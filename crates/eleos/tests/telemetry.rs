//! Telemetry must be a pure observer: toggling `EleosConfig::telemetry`
//! cannot change a single simulated tick or stored byte, even across GC,
//! checkpoints, mid-write power cuts, injected program failures and
//! crash/recover cycles. And when it is on, the attribution ledger must
//! partition the device's busy time exactly (the conservation invariant).

use eleos::frontend::{Frontend, GroupCommitPolicy};
use eleos::{Eleos, EleosConfig, PageMode, WriteBatch, WriteOpts};
use eleos_flash::{Activity, CostProfile, FaultInjector, FlashDevice, Geometry, SpanKind};
use eleos_workloads::multi_client::{generate, MultiClientConfig};
use proptest::prelude::*;

/// One scripted operation. Errors (DeviceFull, aborts) are tolerated but
/// must be identical between the paired runs — the per-op clock readings
/// the runner returns would diverge otherwise.
#[derive(Debug, Clone)]
enum Op {
    Batch(Vec<(u64, u8, u16)>),
    Delete(Vec<u64>),
    Checkpoint,
    Maintenance,
    /// Power-cut after `n` further flash commands, drive one write into
    /// the cut, crash, restore power, recover.
    CrashRecover(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => prop::collection::vec((0u64..96, any::<u8>(), 1u16..1500), 1..12).prop_map(Op::Batch),
        1 => prop::collection::vec(0u64..96, 1..6).prop_map(Op::Delete),
        1 => Just(Op::Checkpoint),
        1 => Just(Op::Maintenance),
        // The 6-page write issues only a few mutating commands: small
        // budgets cut it mid-way, larger ones crash after it lands.
        1 => (0u64..8).prop_map(Op::CrashRecover),
    ]
}

/// Program-failure ordinals for `FaultInjector::script` (none, usually).
fn fault_strategy() -> impl Strategy<Value = Vec<u64>> {
    prop_oneof![
        2 => Just(Vec::new()),
        1 => prop::collection::vec(5u64..400, 1..3).prop_map(|mut v| {
            v.sort_unstable();
            v.dedup();
            v
        }),
    ]
}

fn cfg(telemetry: bool) -> EleosConfig {
    EleosConfig {
        ckpt_log_bytes: 256 * 1024,
        telemetry,
        ..EleosConfig::test_small()
    }
}

fn page_bytes(lpid: u64, seed: u8, len: u16) -> Vec<u8> {
    (0..len as usize)
        .map(|i| (lpid as u8) ^ seed ^ (i as u8).wrapping_mul(31))
        .collect()
}

/// Execute the script on a device that fails the programs at `faults`
/// ordinals, and return everything behavior-visible: the clock after every
/// op, and the final readable content of the key space.
fn run_script(ops: &[Op], faults: &[u64], telemetry: bool) -> (Vec<u64>, Vec<(u64, Vec<u8>)>) {
    let c = cfg(telemetry);
    let dev = FlashDevice::new(Geometry::tiny(), CostProfile::unit())
        .with_faults(FaultInjector::script(faults.iter().copied()));
    let mut ssd = Eleos::format(dev, c.clone()).expect("format");
    let mut ticks = Vec::with_capacity(ops.len());
    for op in ops {
        match op {
            Op::Batch(pages) => {
                let mut b = WriteBatch::new(PageMode::Variable);
                for &(lpid, seed, len) in pages {
                    b.put(lpid, &page_bytes(lpid, seed, len)).expect("put");
                }
                let _ = ssd.write(&b, WriteOpts::default());
            }
            Op::Delete(lpids) => {
                let _ = ssd.delete_batch(lpids);
            }
            Op::Checkpoint => {
                let _ = ssd.checkpoint();
            }
            Op::Maintenance => {
                let _ = ssd.maintenance();
            }
            Op::CrashRecover(n) => {
                ssd.device_mut().set_power_cut_after(*n);
                let mut b = WriteBatch::new(PageMode::Variable);
                for lpid in 0..6u64 {
                    b.put(lpid, &page_bytes(lpid, *n as u8, 900)).expect("put");
                }
                let _ = ssd.write(&b, WriteOpts::default());
                let mut flash = ssd.crash();
                flash.clear_power_cut();
                ssd = Eleos::recover(flash, c.clone()).expect("recover");
            }
        }
        ticks.push(ssd.now());
        if telemetry {
            // The observer must stay internally consistent at every step.
            if let Some(err) = ssd.snapshot().conservation_error() {
                panic!("conservation violated mid-script: {err}");
            }
        }
    }
    let mut content = Vec::new();
    for lpid in 0..96u64 {
        if let Ok(page) = ssd.read(lpid) {
            content.push((lpid, page.to_vec()));
        }
    }
    (ticks, content)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole determinism guarantee: a telemetry-on run and a
    /// telemetry-off run of the same script are tick-identical after every
    /// operation and byte-identical in what they stored.
    #[test]
    fn telemetry_toggle_is_invisible_to_simulation(
        ops in prop::collection::vec(op_strategy(), 1..40),
        faults in fault_strategy(),
    ) {
        let on = run_script(&ops, &faults, true);
        let off = run_script(&ops, &faults, false);
        prop_assert_eq!(on.0, off.0, "simulated clocks diverged");
        prop_assert_eq!(on.1, off.1, "stored content diverged");
    }
}

/// Conservation through the full lifecycle on a deliberately hostile
/// schedule: enough overwrites to force GC, sparse checkpoints, and two
/// crash/recover cycles. Every bucket of simulated time must stay
/// accounted for, and the big three activities must all be visible.
#[test]
fn conservation_holds_across_gc_and_recovery() {
    let c = cfg(true);
    let mut ssd =
        Eleos::format(FlashDevice::new(Geometry::tiny(), CostProfile::unit()), c.clone())
            .expect("format");
    let mut seed = 0u8;
    for cycle in 0..2 {
        // ~4 MB of overwrite churn per cycle on the 16 MB tiny geometry:
        // enough to sink free lists below the watermark and run GC with
        // live pages in the victims.
        for round in 0..500u64 {
            let mut b = WriteBatch::new(PageMode::Variable);
            for k in 0..6u64 {
                let lpid = (round * 7 + k * 13) % 96;
                seed = seed.wrapping_add(1);
                b.put(lpid, &page_bytes(lpid, seed, 1100 + (k as u16) * 60)).expect("put");
            }
            let _ = ssd.write(&b, WriteOpts::default());
            if round % 13 == 0 {
                let _ = ssd.maintenance();
            }
        }
        let _ = ssd.checkpoint();
        let snap = ssd.snapshot();
        assert!(snap.conservation_error().is_none(), "cycle {cycle}: {:?}",
            snap.conservation_error());
        let flash = ssd.crash();
        ssd = Eleos::recover(flash, c.clone()).expect("recover");
    }

    let snap = ssd.snapshot();
    assert!(snap.conservation_error().is_none(), "{:?}", snap.conservation_error());
    assert!(snap.total_busy_ns() > 0);
    // The lifecycle exercised at least writes, WAL appends and recovery.
    for a in [Activity::UserWrite, Activity::Wal, Activity::Recovery] {
        assert!(
            snap.activity_busy_ns(a) > 0,
            "activity {} recorded no time",
            a.label()
        );
    }
    // GC ran: the overwrite pressure on the tiny geometry sinks free
    // lists below the watermark, so summary reads and victim erases are
    // charged to the gc bucket. (With only 96 hot LPIDs the victims are
    // nearly all garbage, so gc *programs* may legitimately be zero.)
    assert!(
        snap.ledger.activity_flash_ns(Activity::Gc) > 0,
        "GC recorded no flash time"
    );
    // And the ledger rows re-partition the exact total.
    let sum: u64 = Activity::ALL.iter().map(|&a| snap.activity_busy_ns(a)).sum();
    assert_eq!(sum, snap.total_busy_ns());
}

/// The host front-end is a first-class telemetry citizen: driving a
/// multi-client schedule through group commit — including time-threshold
/// flushes, whose waits advance the SimClock CPU horizon — must leave the
/// `frontend` activity row populated, the group_flush span recorded, and
/// `conservation_error` exactly `None` (the conservation check is
/// equality, so any unattributed or double-counted tick trips it).
#[test]
fn frontend_activity_row_conserves() {
    let c = cfg(true);
    let mut ssd =
        Eleos::format(FlashDevice::new(Geometry::tiny(), CostProfile::unit()), c.clone())
            .expect("format");
    let mc = MultiClientConfig {
        clients: 3,
        batches_per_client: 40,
        lpids_per_client: 32,
        // Gaps long enough that the 25 us time threshold below fires for
        // some groups — the idle wait it charges must stay conserved.
        mean_gap_ns: 30_000,
        seed: 9,
        ..MultiClientConfig::default()
    };
    let mut fe = Frontend::new(
        mc.clients,
        GroupCommitPolicy {
            flush_bytes: 4 * 1024,
            flush_interval_ns: 25_000,
            max_queued_batches: 16,
            ..GroupCommitPolicy::default()
        },
    );
    for cb in generate(&mc) {
        let mut b = WriteBatch::new(PageMode::Variable);
        for (lpid, payload) in &cb.pages {
            b.put(*lpid, payload).expect("put");
        }
        fe.submit(&mut ssd, cb.client, cb.at, b).expect("submit");
        // Conservation must hold at every step, not just at the end.
        assert!(ssd.snapshot().conservation_error().is_none());
    }
    fe.flush(&mut ssd).expect("final flush");

    let snap = ssd.snapshot();
    assert!(snap.conservation_error().is_none(), "{:?}", snap.conservation_error());
    assert!(
        snap.ledger.cpu_ns(Activity::Frontend) > 0,
        "frontend bookkeeping CPU was not attributed"
    );
    assert_eq!(
        snap.span(SpanKind::GroupFlush).count(),
        fe.groups_flushed(),
        "one group_flush span per durable group"
    );
    // The frontend row participates in the exact repartition of busy time.
    let sum: u64 = Activity::ALL.iter().map(|&a| snap.activity_busy_ns(a)).sum();
    assert_eq!(sum, snap.total_busy_ns());
}
