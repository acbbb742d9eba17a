//! Fault-path regression tests (Section VII): scripted single-fault
//! sweeps over checkpointing and GC, program-failure and power-cut sweeps
//! over one multi-round GC pass, probabilistic faults under churn, and
//! end-to-end bad-block retirement.
//!
//! The sweep tests inject exactly one program failure at *every* ordinal
//! position in a fixed deterministic workload, then audit, crash,
//! recover, audit again, and keep writing. Sweeping the ordinal means no
//! fragile "fail the 17th program" magic numbers: every program the
//! checkpoint or GC path issues gets its turn to fail, so each of the
//! failure handlers (WAL fallback, checkpoint retry, force-close
//! migration, GC relocation abort, recovery defensive erase) is exercised
//! with a pinned, replayable script. These sweeps reproduce the bugs the
//! chaos soak found (see `eleos-bench`'s `chaos_regressions` for the
//! original seeds).

use eleos::{Eleos, EleosConfig, EleosError, PageMode, PhysAddr, WriteBatch, WriteOpts};
use eleos_flash::{CostProfile, EblockAddr, FlashDevice, FlashError, Geometry, WblockAddr};
use std::collections::BTreeMap;

fn dev() -> FlashDevice {
    FlashDevice::new(Geometry::tiny(), CostProfile::unit())
}

fn cfg() -> EleosConfig {
    EleosConfig {
        ckpt_log_bytes: u64::MAX, // explicit checkpoints only
        ..EleosConfig::test_small()
    }
}

fn payload(lpid: u64, v: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (lpid as u8) ^ (v as u8) ^ (i as u8).wrapping_mul(29))
        .collect()
}

type Shadow = BTreeMap<u64, Vec<u8>>;

/// Write `batches` deterministic batches, retrying aborted actions like a
/// real host would (Section VII: "the user application may retry the
/// failed batched write"). The shadow records only acknowledged content.
fn write_churn(ssd: &mut Eleos, shadow: &mut Shadow, v: &mut u64, batches: u64, stride: u64) {
    for b in 0..batches {
        let mut batch = WriteBatch::new(PageMode::Variable);
        for k in 0..6u64 {
            *v += 1;
            let lpid = (b * stride + k * 17) % 300;
            let data = payload(lpid, *v, 64 + ((*v * 131) % 1500) as usize);
            if batch.put(lpid, &data).is_err() {
                continue; // duplicate lpid within the batch
            }
            shadow.insert(lpid, data);
        }
        let mut done = false;
        for _ in 0..6 {
            match ssd.write(&batch, WriteOpts::default()) {
                Ok(_) => {
                    done = true;
                    break;
                }
                Err(EleosError::ActionAborted) => continue,
                Err(EleosError::DeviceFull) => {
                    ssd.maintenance().unwrap();
                    continue;
                }
                Err(e) => panic!("write failed non-retryably: {e}"),
            }
        }
        assert!(done, "batch {b} never acknowledged");
    }
}

fn audit(ssd: &mut Eleos, shadow: &Shadow, ctx: &str) {
    for (lpid, data) in shadow {
        let got = ssd.read(*lpid).unwrap_or_else(|e| panic!("{ctx}: lpid {lpid} unreadable: {e}"));
        assert_eq!(got.as_ref(), data.as_slice(), "{ctx}: lpid {lpid} content");
    }
}

/// One program failure at ordinal `nth` of the checkpoint path. The
/// checkpoint must either complete (internal retry / WAL fallback /
/// force-close migration absorb the fault) or abort cleanly — and in both
/// cases every acknowledged page must survive the subsequent crash, and
/// the healed EBLOCK must be safely re-provisionable.
///
/// Regressions pinned by this sweep:
/// * stale checkpoint retry bytes: a retried flush action must re-encode
///   from the live tables, because the abort's own migration rewrites
///   mapping entries between attempts;
/// * force-close failure: the close plan's in-memory metadata is the only
///   copy of the entry list — migrating with empty metadata erased the
///   EBLOCK with its live pages still inside;
/// * recovery handing out a poisoned zero-frontier EBLOCK without the
///   healing erase (`EblockPoisoned` on its very first program);
/// * standby-starved recovery: the resumed log writer had zero standby
///   EBLOCKs until the very end of recovery, so a recovery-time log page
///   landing on the last WBLOCK recorded an empty forward-pointer set and
///   the first post-recovery write shut the controller down.
#[test]
fn single_fault_sweep_over_checkpoint() {
    for nth in 1..=40u64 {
        let mut ssd = Eleos::format(dev(), cfg()).unwrap();
        let mut shadow = Shadow::new();
        let mut v = 0u64;
        write_churn(&mut ssd, &mut shadow, &mut v, 30, 7);
        ssd.checkpoint().unwrap();
        // Dirty a spread of mapping pages so the next checkpoint has real
        // flush work (and real stale-bytes exposure).
        write_churn(&mut ssd, &mut shadow, &mut v, 12, 11);

        ssd.device_mut().faults_mut().fail_nth_from_now(nth);
        match ssd.checkpoint() {
            Ok(()) => {}
            Err(EleosError::ActionAborted) => {} // retries exhausted: previous ckpt intact
            Err(e) => panic!("nth={nth}: checkpoint failed non-retryably: {e}"),
        }
        audit(&mut ssd, &shadow, &format!("nth={nth} post-ckpt"));

        let flash = ssd.crash();
        let mut ssd = Eleos::recover(flash, cfg()).unwrap();
        audit(&mut ssd, &shadow, &format!("nth={nth} post-recovery"));

        // Keep writing: a poisoned EBLOCK that slipped back into a free
        // list unerased only detonates when re-provisioned.
        write_churn(&mut ssd, &mut shadow, &mut v, 20, 13);
        ssd.maintenance().unwrap();
        audit(&mut ssd, &shadow, &format!("nth={nth} post-churn"));
    }
}

/// One program failure at ordinal `nth` of a GC-heavy maintenance pass:
/// relocation actions abort, victims keep their data, and a later pass
/// retries — no acknowledged page may be lost across the abort or the
/// crash that follows. Also pinned the standby-starved recovery bug (see
/// `single_fault_sweep_over_checkpoint`): recovery after the GC crash
/// appends enough force-close records to cross a log-EBLOCK boundary.
#[test]
fn single_fault_sweep_over_gc() {
    for nth in 1..=30u64 {
        let mut ssd = Eleos::format(dev(), cfg()).unwrap();
        let mut shadow = Shadow::new();
        let mut v = 0u64;
        // Overwrite-heavy churn builds garbage so maintenance has victims.
        write_churn(&mut ssd, &mut shadow, &mut v, 120, 3);

        ssd.device_mut().faults_mut().fail_nth_from_now(nth);
        ssd.maintenance().unwrap();
        audit(&mut ssd, &shadow, &format!("nth={nth} post-gc"));

        let flash = ssd.crash();
        let mut ssd = Eleos::recover(flash, cfg()).unwrap();
        audit(&mut ssd, &shadow, &format!("nth={nth} post-recovery"));

        write_churn(&mut ssd, &mut shadow, &mut v, 20, 13);
        audit(&mut ssd, &shadow, &format!("nth={nth} post-churn"));
    }
}

/// GC for every channel under 12 of its 16 free EBLOCKs, back up to 12
/// (`target` is the free fraction each channel's rounds aim for).
fn gc_cfg(target: f64) -> EleosConfig {
    let mut c = cfg();
    c.gc.free_watermark = 0.75;
    c.gc.free_target = target;
    c
}

/// One `maybe_gc` is a pass of several rounds: each round's victims are
/// nearly full, so no channel reaches its target before it stalls.
fn pass_cfg() -> EleosConfig {
    gc_cfg(0.75)
}

fn locations(ssd: &mut Eleos, shadow: &Shadow) -> BTreeMap<u64, PhysAddr> {
    shadow
        .keys()
        .map(|&lpid| (lpid, ssd.lpid_location(lpid).unwrap().unwrap()))
        .collect()
}

/// A churned device whose next `maybe_gc` runs with `config`, its shadow,
/// and every shadow LPID's address before that call. The churn runs under
/// the default watermarks, which leave closed, part-dead EBLOCKs on every
/// channel; the device is then reopened under `config`, where every
/// channel is under the watermark. Every caller takes the same
/// deterministic path, so the passes are identical up to the fault a
/// caller arms, and their first rounds are identical whatever the target.
fn before_pass(config: EleosConfig) -> (Eleos, Shadow, BTreeMap<u64, PhysAddr>) {
    let mut ssd = Eleos::format(dev(), cfg()).unwrap();
    let mut shadow = Shadow::new();
    let mut v = 0u64;
    write_churn(&mut ssd, &mut shadow, &mut v, 120, 3);
    let mut ssd = Eleos::recover(ssd.crash(), config).unwrap();
    let before = locations(&mut ssd, &shadow);
    (ssd, shadow, before)
}

/// What a fault-free `maybe_gc` under `config` does.
struct Pass {
    /// Victims, in address order.
    victims: Vec<EblockAddr>,
    /// Where the pass moves each relocated LPID.
    moved_to: BTreeMap<u64, PhysAddr>,
    /// Program attempts the pass issues.
    programs: u64,
    /// Mutating flash commands (programs and erases) the pass issues.
    mutations: u64,
}

fn fault_free_pass(config: EleosConfig) -> Pass {
    let (mut ssd, shadow, before) = before_pass(config);
    let programs = ssd.device_mut().faults_mut().programs_seen();
    let s0 = ssd.device().stats().clone();
    let commits = ssd.snapshot().eleos.commits;
    ssd.maybe_gc().unwrap();
    let s1 = ssd.device().stats().clone();
    let programs = ssd.device_mut().faults_mut().programs_seen() - programs;
    assert_eq!(ssd.snapshot().eleos.commits - commits, 1, "one action");
    let moved_to: BTreeMap<u64, PhysAddr> = locations(&mut ssd, &shadow)
        .into_iter()
        .filter(|(lpid, at)| before[lpid] != *at)
        .collect();
    let mut victims: Vec<EblockAddr> = moved_to.keys().map(|l| before[l].eblock_addr()).collect();
    victims.sort();
    victims.dedup();
    for (lpid, at) in &moved_to {
        assert_eq!(
            at.channel, before[lpid].channel,
            "lpid {lpid} stays on its channel"
        );
    }
    Pass {
        victims,
        moved_to,
        programs,
        mutations: s1.programs + s1.erases - s0.programs - s0.erases,
    }
}

/// The fault-free pass, checked to span several rounds on distinct
/// channels, and the GC-bin EBLOCKs that only its later rounds fill
/// (its first round is the whole of a target-0 pass).
fn multi_round_pass() -> (Pass, Vec<EblockAddr>) {
    let pass = fault_free_pass(pass_cfg());
    let first = fault_free_pass(gc_cfg(0.0));
    let channels: std::collections::BTreeSet<u32> =
        first.victims.iter().map(|v| v.channel).collect();
    assert!(
        channels.len() >= 2 && channels.len() == first.victims.len(),
        "the first round must collect victims on distinct channels: {:?}",
        first.victims
    );
    assert!(
        first.victims.iter().all(|v| pass.victims.contains(v))
            && pass.victims.len() > first.victims.len(),
        "the pass must run later rounds: {:?} then {:?}",
        first.victims,
        pass.victims
    );
    let bins = |later: bool| -> Vec<EblockAddr> {
        pass.moved_to
            .iter()
            .filter(|(lpid, _)| first.moved_to.contains_key(lpid) != later)
            .map(|(_, at)| at.eblock_addr())
            .collect()
    };
    let first_bins = bins(false);
    let mut later_bins: Vec<EblockAddr> = bins(true)
        .into_iter()
        .filter(|b| !first_bins.contains(b))
        .collect();
    later_bins.sort();
    later_bins.dedup();
    (pass, later_bins)
}

/// One program failure at every program ordinal of a multi-round GC pass.
/// The pass is one system action, so a failure on a relocation WBLOCK of a
/// *later round's* victim aborts the relocation of every victim of every
/// round: none is erased, every relocated LPID keeps its old address,
/// `gc_relocation_aborts` is 1, and the next `maybe_gc` completes. Every
/// acknowledged page reads back before and after `crash()` + `recover()`.
#[test]
fn program_failure_in_a_multi_round_gc_pass_keeps_every_victim() {
    let (pass, later_bins) = multi_round_pass();
    let mut later_hits = 0;
    for nth in 0..pass.programs {
        let ctx = format!("nth={nth}");
        let (mut ssd, shadow, before) = before_pass(pass_cfg());
        let watched: Vec<EblockAddr> = pass.victims.iter().chain(&later_bins).copied().collect();
        let erases = |ssd: &Eleos| -> Vec<u32> {
            watched
                .iter()
                .map(|&eb| ssd.device().erase_count(eb).unwrap())
                .collect()
        };
        let erases0 = erases(&ssd);
        ssd.device_mut().faults_mut().fail_nth_from_now(nth);
        ssd.maybe_gc().unwrap();
        let erased: Vec<bool> = erases(&ssd)
            .iter()
            .zip(&erases0)
            .map(|(a, b)| a > b)
            .collect();
        let aborts = ssd.snapshot().eleos.gc_relocation_aborts;
        if aborts > 0 {
            assert_eq!(aborts, 1, "{ctx}: one abort for the pass");
            for (v, &gone) in pass.victims.iter().zip(&erased) {
                assert!(!gone, "{ctx}: victim {v:?} erased by an aborted pass");
            }
            for lpid in pass.moved_to.keys() {
                assert_eq!(
                    ssd.lpid_location(*lpid).unwrap(),
                    Some(before[lpid]),
                    "{ctx}: lpid {lpid} left its victim"
                );
            }
            // A failed program poisons its EBLOCK, which is migrated and
            // erased: the failure was in a bin only later rounds fill.
            later_hits += erased[pass.victims.len()..].iter().any(|&e| e) as u32;
        }
        audit(&mut ssd, &shadow, &format!("{ctx} post-gc"));
        ssd.maybe_gc().unwrap();
        audit(&mut ssd, &shadow, &format!("{ctx} next gc"));

        let flash = ssd.crash();
        let mut ssd = Eleos::recover(flash, pass_cfg()).unwrap();
        audit(&mut ssd, &shadow, &format!("{ctx} post-recovery"));
    }
    assert!(
        later_hits > 0,
        "no ordinal failed a relocation WBLOCK of a later round"
    );
}

/// Power lost after every mutating flash command of one multi-round GC
/// pass: after `crash()` + `recover()` every acknowledged LPID reads back
/// intact at either its address before the pass or the one the pass
/// moves it to — the pass's relocation commits for every victim of every
/// round or for none.
#[test]
fn power_cut_sweep_over_a_multi_round_gc_pass() {
    let (pass, _) = multi_round_pass();
    for cut in 0..=pass.mutations {
        let (mut ssd, shadow, before) = before_pass(pass_cfg());
        ssd.device_mut().set_power_cut_after(cut);
        match ssd.maybe_gc() {
            Ok(()) | Err(EleosError::Flash(FlashError::PowerLost)) | Err(EleosError::ShutDown) => {}
            Err(e) => panic!("cut={cut}: unexpected GC error {e}"),
        }
        let mut flash = ssd.crash();
        flash.clear_power_cut();
        let mut ssd = Eleos::recover(flash, pass_cfg()).unwrap();
        let after = locations(&mut ssd, &shadow);
        let moved: Vec<bool> = pass
            .moved_to
            .iter()
            .map(|(lpid, to)| {
                let at = after[lpid];
                assert!(
                    at == before[lpid] || at == *to,
                    "cut={cut}: lpid {lpid} at {at:?}, neither {:?} nor {to:?}",
                    before[lpid]
                );
                at == *to
            })
            .collect();
        assert!(
            moved.iter().all(|&m| m) || moved.iter().all(|&m| !m),
            "cut={cut}: the pass committed for some victims only"
        );
        for (lpid, at) in &after {
            if !pass.moved_to.contains_key(lpid) {
                assert_eq!(*at, before[lpid], "cut={cut}: lpid {lpid} moved");
            }
        }
        audit(&mut ssd, &shadow, &format!("cut={cut} post-recovery"));
    }
}

/// Probabilistic program failures while GC and checkpoints run: the
/// differential contract (acknowledged content survives, aborted batches
/// take no effect) must hold under a seeded random fault stream.
#[test]
fn probabilistic_faults_during_gc_and_checkpoints() {
    let mut ssd = Eleos::format(dev(), cfg()).unwrap();
    let mut shadow = Shadow::new();
    let mut v = 0u64;
    write_churn(&mut ssd, &mut shadow, &mut v, 40, 7);

    *ssd.device_mut().faults_mut() = eleos_flash::FaultInjector::probabilistic(0.01, 0xDECAF);
    for round in 0..8u64 {
        write_churn(&mut ssd, &mut shadow, &mut v, 30, 3 + round);
        match ssd.checkpoint() {
            Ok(()) | Err(EleosError::ActionAborted) => {}
            Err(e) => panic!("round {round}: checkpoint failed: {e}"),
        }
        ssd.maintenance().unwrap();
    }
    let stats = ssd.snapshot().eleos.clone();
    assert!(
        stats.program_failures > 0,
        "fault stream never fired: {stats:?}"
    );
    assert!(stats.aborts > 0, "no action ever aborted: {stats:?}");

    // Recovery runs fault-free (the injector models transient failures,
    // and keeping it live would make the audit vacuous), mirroring the
    // chaos soak's protocol.
    ssd.device_mut().faults_mut().set_probability(0.0);
    audit(&mut ssd, &shadow, "probabilistic pre-crash");
    let flash = ssd.crash();
    let mut ssd = Eleos::recover(flash, cfg()).unwrap();
    audit(&mut ssd, &shadow, "probabilistic post-recovery");
}

/// A persistently bad EBLOCK (every WBLOCK fails every program, like real
/// failed media) must be retired after `retire_program_failures` heal
/// cycles: writes keep succeeding around it, the free lists permanently
/// exclude it, `retired_bytes` accounts for the lost capacity, and the
/// `Retired` state survives crash recovery.
#[test]
fn bad_eblock_is_retired_with_capacity_accounting() {
    let geo = Geometry::tiny();
    let mut config = cfg();
    config.retire_program_failures = 2;
    let mut device = dev();
    for w in 0..geo.wblocks_per_eblock {
        device.faults_mut().add_bad_wblock(WblockAddr::new(1, 9, w));
    }
    let mut ssd = Eleos::format(device, config.clone()).unwrap();
    let mut shadow = Shadow::new();
    let mut v = 0u64;

    let mut rounds = 0;
    let retired = loop {
        write_churn(&mut ssd, &mut shadow, &mut v, 40, 3 + rounds);
        // Every durable batch seals a log page, and this config never
        // auto-checkpoints — without an explicit checkpoint the WAL is
        // never truncated and Used+Log EBLOCKs swallow the device.
        match ssd.checkpoint() {
            Ok(()) | Err(EleosError::ActionAborted) => {}
            Err(e) => panic!("round {rounds}: checkpoint failed: {e}"),
        }
        ssd.maintenance().unwrap();
        let r = ssd
            .eblock_report()
            .into_iter()
            .find(|(c, e, _, _, _)| (*c, *e) == (1, 9))
            .expect("eblock report covers every eblock");
        if r.2 == "Retired" {
            break r;
        }
        rounds += 1;
        assert!(rounds < 40, "eblock 1/9 never retired; last state {r:?}");
    };
    assert_eq!(retired.2, "Retired");
    assert_eq!(ssd.snapshot().eleos.retired_eblocks, 1);

    let space = ssd.space_report();
    assert_eq!(space.retired_bytes, geo.eblock_bytes());
    assert!(
        space.free_bytes + space.retired_bytes + space.overhead_bytes <= space.total_bytes,
        "capacity accounting inconsistent: {space:?}"
    );
    audit(&mut ssd, &shadow, "pre-crash");

    // Retirement is durable: the block must not re-enter provisioning
    // after recovery, and the lost capacity must still be counted.
    let flash = ssd.crash();
    let mut ssd = Eleos::recover(flash, config).unwrap();
    let r = ssd
        .eblock_report()
        .into_iter()
        .find(|(c, e, _, _, _)| (*c, *e) == (1, 9))
        .unwrap();
    assert_eq!(r.2, "Retired", "retirement lost across recovery");
    assert_eq!(ssd.space_report().retired_bytes, geo.eblock_bytes());
    audit(&mut ssd, &shadow, "post-recovery");

    // The degraded device still serves writes at full correctness.
    write_churn(&mut ssd, &mut shadow, &mut v, 40, 5);
    ssd.checkpoint().unwrap();
    ssd.maintenance().unwrap();
    audit(&mut ssd, &shadow, "post-retirement churn");
}

/// A poisoned WAL EBLOCK must leave the writer's standby pool for good.
/// Before the fix, the writer kept offering it as a forward-pointer
/// candidate; once truncation-reclaim erased and freed it, a later seal
/// could program into a block the allocator had already handed to user
/// data. With every WBLOCK of the standby bad, heavy checkpoint-driven
/// truncation makes the reclaim-then-reuse sequence happen repeatedly.
#[test]
fn poisoned_wal_standby_never_reused_after_reclaim() {
    let geo = Geometry::tiny();
    let mut config = cfg();
    config.retire_program_failures = 0; // never retire: keep the block cycling
    let mut device = dev();
    for w in 0..geo.wblocks_per_eblock {
        device.faults_mut().add_bad_wblock(WblockAddr::new(3, 4, w));
    }
    let mut ssd = Eleos::format(device, config.clone()).unwrap();
    let mut shadow = Shadow::new();
    let mut v = 0u64;
    for round in 0..12u64 {
        write_churn(&mut ssd, &mut shadow, &mut v, 25, 3 + round);
        match ssd.checkpoint() {
            Ok(()) | Err(EleosError::ActionAborted) => {}
            Err(e) => panic!("round {round}: checkpoint failed: {e}"),
        }
        ssd.maintenance().unwrap();
    }
    audit(&mut ssd, &shadow, "pre-crash");
    let flash = ssd.crash();
    let mut ssd = Eleos::recover(flash, config).unwrap();
    audit(&mut ssd, &shadow, "post-recovery");
}
