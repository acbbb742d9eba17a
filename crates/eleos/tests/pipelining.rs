//! Pipelined vs. serial equivalence for the deferred-completion I/O
//! scheduler (`EleosConfig::defer_io`).
//!
//! * On a **single-channel** device there is no parallelism to exploit, so
//!   the deferred and serial schedules must be *identical* — same bytes,
//!   same simulated op/byte counts, same final clock tick. This is the
//!   equivalence oracle: any tick divergence means the scheduler changed
//!   semantics, not just overlap.
//! * On a **multi-channel** device with GC disabled the two schedules issue
//!   the same operations, so all counters must match while the deferred
//!   clock finishes no later than the serial one.
//! * `read_batch` must return exactly the bytes of sequential `read`s, and
//!   the clock must stay monotone throughout.

use eleos::{Eleos, EleosConfig, PageMode, WriteBatch, WriteOpts};
use eleos_flash::{CostProfile, FlashDevice, Geometry};
use proptest::prelude::*;
use std::collections::HashMap;

fn geo_1ch() -> Geometry {
    Geometry {
        channels: 1,
        eblocks_per_channel: 24,
        wblocks_per_eblock: 16,
        wblock_bytes: 16 * 1024,
        rblock_bytes: 4 * 1024,
    }
}

fn cfg(defer_io: bool) -> EleosConfig {
    EleosConfig {
        ckpt_log_bytes: 256 * 1024, // frequent truncation -> log reclaim GC
        map_entries_per_page: 16,
        mapping_cache_pages: 8,
        max_user_lpid: 4096,
        defer_io,
        ..EleosConfig::default()
    }
}

/// A scripted workload step.
#[derive(Debug, Clone)]
enum Op {
    Batch(Vec<(u64, u8, u16)>),
    Read(u64),
    Maintenance,
    CrashRecover,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => prop::collection::vec((0u64..48, any::<u8>(), 64u16..2000), 1..10).prop_map(Op::Batch),
        3 => (0u64..48).prop_map(Op::Read),
        1 => Just(Op::Maintenance),
        1 => Just(Op::CrashRecover),
    ]
}

fn page_bytes(lpid: u64, seed: u8, len: u16) -> Vec<u8> {
    (0..len as usize)
        .map(|i| (lpid as u8) ^ seed ^ (i as u8).wrapping_mul(29))
        .collect()
}

/// Run one script to completion, returning the controller for inspection.
fn run_script(geo: Geometry, defer_io: bool, ops: &[Op]) -> Eleos {
    let dev = FlashDevice::new(geo, CostProfile::unit());
    let mut ssd = Eleos::format(dev, cfg(defer_io)).unwrap();
    let mut last_now = ssd.now();
    for op in ops {
        match op {
            Op::Batch(pages) => {
                let mut b = WriteBatch::new(PageMode::Variable);
                for &(lpid, seed, len) in pages {
                    b.put(lpid, &page_bytes(lpid, seed, len)).unwrap();
                }
                ssd.write(&b, WriteOpts::default()).unwrap();
            }
            Op::Read(lpid) => {
                let _ = ssd.read(*lpid); // NotFound is fine
            }
            Op::Maintenance => ssd.maintenance().unwrap(),
            Op::CrashRecover => {
                let flash = ssd.crash();
                ssd = Eleos::recover(flash, cfg(defer_io)).unwrap();
            }
        }
        // The clock never goes backwards, deferred or not.
        assert!(ssd.now() >= last_now, "clock went backwards");
        last_now = ssd.now();
    }
    ssd
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The oracle: on one channel, deferred completion is byte- AND
    /// tick-identical to the serial schedule, across writes, reads, GC
    /// pressure, checkpoints and crash recovery.
    #[test]
    fn single_channel_is_tick_identical(ops in prop::collection::vec(op_strategy(), 1..50)) {
        let serial = run_script(geo_1ch(), false, &ops);
        let deferred = run_script(geo_1ch(), true, &ops);
        prop_assert_eq!(serial.now(), deferred.now(), "final clock tick diverged");
        prop_assert_eq!(serial.snapshot().eleos, deferred.snapshot().eleos);
        prop_assert_eq!(serial.device().stats(), deferred.device().stats());
    }

    /// Multi-channel, GC disabled: identical op streams, so all simulated
    /// op/byte counts match; the deferred schedule finishes no later.
    #[test]
    fn multi_channel_counts_match_and_deferred_is_no_slower(
        batches in prop::collection::vec(
            prop::collection::vec((0u64..96, any::<u8>(), 64u16..1800), 1..12), 1..25),
        reads in prop::collection::vec(0u64..96, 1..40),
    ) {
        let no_gc = |defer_io| EleosConfig {
            gc: eleos::GcConfig {
                free_watermark: 0.0,
                free_target: 0.0,
                ..eleos::GcConfig::default()
            },
            ..cfg(defer_io)
        };
        let run = |defer_io: bool| {
            let dev = FlashDevice::new(Geometry::tiny(), CostProfile::unit());
            let mut ssd = Eleos::format(dev, no_gc(defer_io)).unwrap();
            for pages in &batches {
                let mut b = WriteBatch::new(PageMode::Variable);
                for &(lpid, seed, len) in pages {
                    b.put(lpid, &page_bytes(lpid, seed, len)).unwrap();
                }
                ssd.write(&b, WriteOpts::default()).unwrap();
            }
            let mapped: Vec<u64> = reads
                .iter()
                .copied()
                .filter(|&l| ssd.stored_len(l).unwrap().is_some())
                .collect();
            let bytes = ssd.read_batch(&mapped).unwrap();
            (ssd, mapped, bytes)
        };
        let (serial, mapped_s, bytes_s) = run(false);
        let (deferred, mapped_d, bytes_d) = run(true);
        prop_assert_eq!(&mapped_s, &mapped_d);
        prop_assert_eq!(bytes_s, bytes_d, "read_batch bytes diverged");
        // Same ops, same bytes moved — only the schedule may differ.
        let s = serial.device().stats();
        let d = deferred.device().stats();
        prop_assert_eq!(s.programs, d.programs);
        prop_assert_eq!(s.bytes_programmed, d.bytes_programmed);
        prop_assert_eq!(s.rblock_reads, d.rblock_reads);
        prop_assert_eq!(s.bytes_read, d.bytes_read);
        prop_assert_eq!(s.erases, d.erases);
        prop_assert_eq!(serial.snapshot().eleos, deferred.snapshot().eleos);
        prop_assert!(deferred.now() <= serial.now(),
            "deferred schedule slower: {} > {}", deferred.now(), serial.now());
    }

    /// `read_batch` returns exactly what sequential `read`s return, on the
    /// same instance, with GC and overwrites in the mix.
    #[test]
    fn read_batch_matches_sequential_reads(
        batches in prop::collection::vec(
            prop::collection::vec((0u64..48, any::<u8>(), 64u16..2000), 1..10), 1..30),
        probe in prop::collection::vec(0u64..48, 1..32),
    ) {
        let dev = FlashDevice::new(Geometry::tiny(), CostProfile::unit());
        let mut ssd = Eleos::format(dev, cfg(true)).unwrap();
        let mut shadow: HashMap<u64, Vec<u8>> = HashMap::new();
        for pages in &batches {
            let mut b = WriteBatch::new(PageMode::Variable);
            for &(lpid, seed, len) in pages {
                let data = page_bytes(lpid, seed, len);
                b.put(lpid, &data).unwrap();
                shadow.insert(lpid, data);
            }
            ssd.write(&b, WriteOpts::default()).unwrap();
        }
        let mapped: Vec<u64> = probe.iter().copied().filter(|l| shadow.contains_key(l)).collect();
        let t0 = ssd.now();
        let batch = ssd.read_batch(&mapped).unwrap();
        let t1 = ssd.now();
        prop_assert!(t1 >= t0, "read_batch moved the clock backwards");
        for (lpid, got) in mapped.iter().zip(&batch) {
            prop_assert_eq!(got, &shadow[lpid], "lpid {}", lpid);
            let serial = ssd.read(*lpid).unwrap();
            prop_assert_eq!(got, &serial, "batch vs serial read of lpid {}", lpid);
        }
    }
}

/// Deterministic: GC-heavy overwrites on multi-channel geometry stay
/// correct under round-robin collection, survive a crash, and actually
/// overlap channels (overlap ratio above the serialized floor).
#[test]
fn gc_round_robin_correct_and_overlapping() {
    let dev = FlashDevice::new(Geometry::tiny(), CostProfile::unit());
    let mut ssd = Eleos::format(dev, cfg(true)).unwrap();
    let mut shadow: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut v = 0u8;
    for round in 0..220u64 {
        let mut b = WriteBatch::new(PageMode::Variable);
        for k in 0..12u64 {
            v = v.wrapping_add(1);
            let lpid = (round * 7 + k * 11) % 96;
            let data = page_bytes(lpid, v, 600 + ((round + k) % 900) as u16);
            b.put(lpid, &data).unwrap();
            shadow.insert(lpid, data);
        }
        ssd.write(&b, WriteOpts::default()).unwrap();
    }
    assert!(ssd.snapshot().eleos.gc_collections > 0, "workload must trigger GC");
    let ratio = ssd.snapshot().overlap_ratio();
    let channels = ssd.device().geometry().channels as f64;
    assert!(
        ratio > 1.05 / channels,
        "no channel overlap measured: ratio {ratio:.4}"
    );
    for (lpid, data) in &shadow {
        assert_eq!(ssd.read(*lpid).unwrap(), *data, "lpid {lpid}");
    }
    let flash = ssd.crash();
    let mut ssd = Eleos::recover(flash, cfg(true)).unwrap();
    for (lpid, data) in &shadow {
        assert_eq!(ssd.read(*lpid).unwrap(), *data, "post-recovery lpid {lpid}");
    }
}

/// Deterministic: on one channel, GC passes of several rounds each are
/// still tick-identical with `defer_io` on and off. A watermark and target
/// far above the floor keep the free list from running dry, so a pass
/// relocates all of its rounds' victims in one action — the case the
/// proptest's short scripts never reach.
#[test]
fn single_channel_multi_round_passes_are_tick_identical() {
    let run = |defer_io: bool| {
        let config = EleosConfig {
            gc: eleos::GcConfig {
                free_watermark: 0.5,
                free_target: 0.75,
                ..eleos::GcConfig::default()
            },
            ..cfg(defer_io)
        };
        let dev = FlashDevice::new(geo_1ch(), CostProfile::unit());
        let mut ssd = Eleos::format(dev, config.clone()).unwrap();
        // The most victims one pass relocated in one action.
        let mut widest = 0;
        for b in 0..300u64 {
            if b == 150 {
                ssd = Eleos::recover(ssd.crash(), config.clone()).unwrap();
            }
            let s0 = ssd.snapshot().eleos;
            ssd.maybe_gc().unwrap();
            let s1 = ssd.snapshot().eleos;
            if s1.commits - s0.commits == 1 {
                widest = widest.max(s1.gc_collections - s0.gc_collections);
            }
            let mut batch = WriteBatch::new(PageMode::Variable);
            for k in 0..24u64 {
                let lpid = (b * 37 + k * 101) % 1200;
                let len = 600 + ((b + k) * 131 % 1400) as u16;
                batch.put(lpid, &page_bytes(lpid, b as u8, len)).unwrap();
            }
            ssd.write(&batch, WriteOpts::default()).unwrap();
        }
        (ssd, widest)
    };
    let (serial, _) = run(false);
    let (deferred, widest) = run(true);
    assert_eq!(serial.now(), deferred.now(), "final clock tick diverged");
    assert_eq!(serial.snapshot().eleos, deferred.snapshot().eleos);
    assert_eq!(serial.device().stats(), deferred.device().stats());
    assert!(
        widest >= 3,
        "no pass relocated 3 rounds in one action: {widest}"
    );
}
