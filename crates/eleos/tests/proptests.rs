//! Property-based tests on the ELEOS FTL invariants:
//!
//! * read-your-writes against a shadow model for arbitrary batch schedules;
//! * crash atomicity: after a crash at an arbitrary point, every ACKed
//!   batch is fully visible and no partial buffer is (Section III-A1);
//! * write-failure handling never loses committed data.

use eleos::{Eleos, EleosConfig, EleosError, PageMode, WriteBatch, WriteOpts};
use eleos_flash::{CostProfile, FaultInjector, FlashDevice, Geometry};
use proptest::prelude::*;
use std::collections::HashMap;

fn cfg() -> EleosConfig {
    EleosConfig {
        ckpt_log_bytes: 256 * 1024,
        ..EleosConfig::test_small()
    }
}

fn dev() -> FlashDevice {
    FlashDevice::new(Geometry::tiny(), CostProfile::unit())
}

/// One scripted operation.
#[derive(Debug, Clone)]
enum Op {
    /// Write a batch of (lpid, seed, len) pages.
    Batch(Vec<(u64, u8, u16)>),
    Checkpoint,
    Read(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => prop::collection::vec((0u64..96, any::<u8>(), 1u16..1500), 1..12).prop_map(Op::Batch),
        1 => Just(Op::Checkpoint),
        3 => (0u64..96).prop_map(Op::Read),
    ]
}

/// The `(lpid, payload)` pages a batch was built from, in `put` order.
type Pages = Vec<(u64, Vec<u8>)>;

fn page_bytes(lpid: u64, seed: u8, len: u16) -> Vec<u8> {
    (0..len as usize)
        .map(|i| (lpid as u8) ^ seed ^ (i as u8).wrapping_mul(31))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn shadow_model_read_your_writes(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let mut ssd = Eleos::format(dev(), cfg()).unwrap();
        let mut shadow: HashMap<u64, Vec<u8>> = HashMap::new();
        for op in ops {
            match op {
                Op::Batch(pages) => {
                    let mut b = WriteBatch::new(PageMode::Variable);
                    for &(lpid, seed, len) in &pages {
                        b.put(lpid, &page_bytes(lpid, seed, len)).unwrap();
                    }
                    ssd.write(&b, WriteOpts::default()).unwrap();
                    for &(lpid, seed, len) in &pages {
                        shadow.insert(lpid, page_bytes(lpid, seed, len));
                    }
                }
                Op::Checkpoint => ssd.checkpoint().unwrap(),
                Op::Read(lpid) => match shadow.get(&lpid) {
                    Some(expect) => prop_assert_eq!(&ssd.read(lpid).unwrap(), expect),
                    None => prop_assert!(matches!(ssd.read(lpid), Err(EleosError::NotFound(_)))),
                },
            }
        }
        // Final full audit.
        for (lpid, expect) in &shadow {
            prop_assert_eq!(&ssd.read(*lpid).unwrap(), expect);
        }
    }

    #[test]
    fn crash_at_arbitrary_point_preserves_acked_state(
        ops in prop::collection::vec(op_strategy(), 1..40),
        crash_after in 0usize..40,
    ) {
        let mut ssd = Eleos::format(dev(), cfg()).unwrap();
        let mut shadow: HashMap<u64, Vec<u8>> = HashMap::new();
        for (i, op) in ops.iter().enumerate() {
            if i == crash_after {
                break;
            }
            match op {
                Op::Batch(pages) => {
                    let mut b = WriteBatch::new(PageMode::Variable);
                    for &(lpid, seed, len) in pages {
                        b.put(lpid, &page_bytes(lpid, seed, len)).unwrap();
                    }
                    ssd.write(&b, WriteOpts::default()).unwrap(); // ACKed
                    for &(lpid, seed, len) in pages {
                        shadow.insert(lpid, page_bytes(lpid, seed, len));
                    }
                }
                Op::Checkpoint => ssd.checkpoint().unwrap(),
                Op::Read(_) => {}
            }
        }
        let flash = ssd.crash();
        let mut ssd = Eleos::recover(flash, cfg()).unwrap();
        for (lpid, expect) in &shadow {
            prop_assert_eq!(&ssd.read(*lpid).unwrap(), expect, "lpid {}", lpid);
        }
        // And it still accepts writes after recovery.
        let mut b = WriteBatch::new(PageMode::Variable);
        b.put(0, b"alive").unwrap();
        ssd.write(&b, WriteOpts::default()).unwrap();
        prop_assert_eq!(ssd.read(0).unwrap(), b"alive");
    }

    #[test]
    fn random_write_failures_never_lose_committed_data(
        ops in prop::collection::vec(
            prop::collection::vec((0u64..64, any::<u8>(), 64u16..1024), 1..8),
            5..25,
        ),
        fail_p in 0.0f64..0.04,
        seed in any::<u64>(),
    ) {
        let flash = FlashDevice::new(Geometry::tiny(), CostProfile::unit())
            .with_faults(FaultInjector::probabilistic(fail_p, seed));
        // Formatting itself may hit injected failures; skip those runs
        // (the paper assumes a formatted device).
        let Ok(mut ssd) = Eleos::format(flash, cfg()) else { return Ok(()); };
        let mut shadow: HashMap<u64, Vec<u8>> = HashMap::new();
        'outer: for pages in &ops {
            let mut b = WriteBatch::new(PageMode::Variable);
            for &(lpid, seed, len) in pages {
                b.put(lpid, &page_bytes(lpid, seed, len)).unwrap();
            }
            // Retry aborted buffers, as the interface contract demands.
            for _attempt in 0..6 {
                match ssd.write(&b, WriteOpts::default()) {
                    Ok(_) => {
                        for &(lpid, seed, len) in pages {
                            shadow.insert(lpid, page_bytes(lpid, seed, len));
                        }
                        continue 'outer;
                    }
                    Err(EleosError::ActionAborted) => continue,
                    Err(EleosError::ShutDown) => break 'outer,
                    Err(e) => return Err(TestCaseError::fail(format!("unexpected {e}"))),
                }
            }
            break; // persistent failure: stop writing, but audit below
        }
        for (lpid, expect) in &shadow {
            match ssd.read(*lpid) {
                Ok(got) => prop_assert_eq!(&got, expect, "lpid {}", lpid),
                Err(e) => return Err(TestCaseError::fail(format!("read {lpid}: {e}"))),
            }
        }
    }

    #[test]
    fn fixed_and_variable_modes_agree_on_content(
        pages in prop::collection::vec((0u64..64, any::<u8>(), 1u16..2000), 1..20)
    ) {
        let mut cfg_v = cfg();
        cfg_v.page_mode = PageMode::Variable;
        let mut cfg_f = cfg();
        cfg_f.page_mode = PageMode::Fixed(4096);
        let mut ssd_v = Eleos::format(dev(), cfg_v).unwrap();
        let mut ssd_f = Eleos::format(dev(), cfg_f).unwrap();
        let mut bv = WriteBatch::new(PageMode::Variable);
        let mut bf = WriteBatch::new(PageMode::Fixed(4096));
        for &(lpid, seed, len) in &pages {
            let data = page_bytes(lpid, seed, len);
            bv.put(lpid, &data).unwrap();
            bf.put(lpid, &data).unwrap();
        }
        // Fixed-page wire size is always at least the variable one.
        prop_assert!(bf.wire_len() >= bv.wire_len());
        ssd_v.write(&bv, WriteOpts::default()).unwrap();
        ssd_f.write(&bf, WriteOpts::default()).unwrap();
        for &(lpid, _, _) in &pages {
            prop_assert_eq!(ssd_v.read(lpid).unwrap(), ssd_f.read(lpid).unwrap());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Multiple crash/recover cycles at arbitrary points, with deletes in
    /// the mix: every ACKed write and delete must be reflected after every
    /// recovery.
    #[test]
    fn multi_crash_cycles_with_deletes(
        segments in prop::collection::vec(
            (
                prop::collection::vec(op_strategy(), 1..20),
                prop::collection::vec(0u64..96, 0..6), // lpids to delete
            ),
            1..5,
        )
    ) {
        let mut shadow: HashMap<u64, Vec<u8>> = HashMap::new();
        let mut ssd = Eleos::format(dev(), cfg()).unwrap();
        for (ops, dels) in segments {
            for op in ops {
                match op {
                    Op::Batch(pages) => {
                        let mut b = WriteBatch::new(PageMode::Variable);
                        for &(lpid, seed, len) in &pages {
                            b.put(lpid, &page_bytes(lpid, seed, len)).unwrap();
                        }
                        ssd.write(&b, WriteOpts::default()).unwrap();
                        for &(lpid, seed, len) in &pages {
                            shadow.insert(lpid, page_bytes(lpid, seed, len));
                        }
                    }
                    Op::Checkpoint => ssd.checkpoint().unwrap(),
                    Op::Read(_) => {}
                }
            }
            if !dels.is_empty() {
                ssd.delete_batch(&dels).unwrap();
                for d in &dels {
                    shadow.remove(d);
                }
            }
            let flash = ssd.crash();
            ssd = Eleos::recover(flash, cfg()).unwrap();
            for (lpid, expect) in &shadow {
                prop_assert_eq!(&ssd.read(*lpid).unwrap(), expect, "lpid {}", lpid);
            }
            for lpid in 0..96u64 {
                if !shadow.contains_key(&lpid) {
                    prop_assert!(
                        matches!(ssd.read(lpid), Err(EleosError::NotFound(_))),
                        "lpid {} should be absent", lpid
                    );
                }
            }
        }
    }

    /// A write failure aborts a buffer; crashing before the retry must
    /// leave the aborted buffer invisible and everything ACKed intact.
    #[test]
    fn crash_after_aborted_write(
        committed in prop::collection::vec((0u64..64, any::<u8>(), 64u16..1024), 3..20),
        failing in prop::collection::vec((0u64..64, any::<u8>(), 64u16..1024), 1..8),
    ) {
        let mut ssd = Eleos::format(dev(), cfg()).unwrap();
        let mut shadow: HashMap<u64, Vec<u8>> = HashMap::new();
        let mut b = WriteBatch::new(PageMode::Variable);
        for &(lpid, seed, len) in &committed {
            b.put(lpid, &page_bytes(lpid, seed, len)).unwrap();
        }
        ssd.write(&b, WriteOpts::default()).unwrap();
        for &(lpid, seed, len) in &committed {
            shadow.insert(lpid, page_bytes(lpid, seed, len));
        }
        // Force the next data program to fail, aborting the action.
        let mut fb = WriteBatch::new(PageMode::Variable);
        for &(lpid, seed, len) in &failing {
            fb.put(lpid, &page_bytes(lpid, seed ^ 0xFF, len)).unwrap();
        }
        ssd.device_mut().faults_mut().fail_nth_from_now(0);
        match ssd.write(&fb, WriteOpts::default()) {
            Err(EleosError::ActionAborted) => {}
            other => return Err(TestCaseError::fail(format!("expected abort, got {other:?}"))),
        }
        // Crash without retrying.
        let flash = ssd.crash();
        let mut ssd = Eleos::recover(flash, cfg()).unwrap();
        for (lpid, expect) in &shadow {
            prop_assert_eq!(&ssd.read(*lpid).unwrap(), expect, "lpid {}", lpid);
        }
        // The aborted buffer's *new* content is nowhere visible unless the
        // lpid was also in the committed set.
        for &(lpid, seed, len) in &failing {
            let bytes = page_bytes(lpid, seed ^ 0xFF, len);
            if let Ok(got) = ssd.read(lpid) {
                prop_assert!(
                    shadow.get(&lpid).is_some_and(|v| *v == got) || got != bytes,
                    "aborted write for {} became visible", lpid
                );
            }
        }
        // The device still accepts writes.
        ssd.write(&fb, WriteOpts::default()).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The zero-copy data plane must change no semantics: reads are
    /// refcounted views of flash-resident buffers, so (a) read-after-write
    /// always matches the shadow model across batches, GC cycles, and a
    /// crash/recover, and (b) a view handed out *before* GC migrated (and
    /// erased) its source EBLOCK still carries the bytes captured at read
    /// time — flash contents are immutable between program and erase, and
    /// erase only drops refcounts.
    #[test]
    fn zero_copy_views_stable_across_gc_and_crash(
        rounds in prop::collection::vec(
            prop::collection::vec((0u64..48, any::<u8>(), 64u16..1200), 2..10),
            4..16,
        ),
        crash_after in 0usize..16,
    ) {
        // An always-on GC watermark forces real victim scans and
        // migrations at this tiny scale.
        let gc_cfg = EleosConfig {
            gc: eleos::GcConfig {
                free_watermark: 0.95,
                free_target: 0.95,
                ..eleos::GcConfig::default()
            },
            ..cfg()
        };
        let mut ssd = Eleos::format(dev(), gc_cfg.clone()).unwrap();
        let mut shadow: HashMap<u64, Vec<u8>> = HashMap::new();
        let mut held: Vec<(u64, Vec<u8>, bytes::Bytes)> = Vec::new();
        for (i, pages) in rounds.iter().enumerate() {
            if i == crash_after {
                let flash = ssd.crash();
                ssd = Eleos::recover(flash, gc_cfg.clone()).unwrap();
            }
            let mut b = WriteBatch::new(PageMode::Variable);
            for &(lpid, seed, len) in pages {
                b.put(lpid, &page_bytes(lpid, seed, len)).unwrap();
            }
            ssd.write(&b, WriteOpts::default()).unwrap();
            for &(lpid, seed, len) in pages {
                shadow.insert(lpid, page_bytes(lpid, seed, len));
            }
            // GC cycle: relocates live pages and erases victims while
            // `held` still points into the old EBLOCKs.
            ssd.maintenance().unwrap();
            let mut lpids: Vec<u64> = shadow.keys().copied().collect();
            lpids.sort_unstable();
            for lpid in lpids.into_iter().take(3) {
                let view = ssd.read(lpid).unwrap();
                prop_assert_eq!(&view, &shadow[&lpid]);
                held.push((lpid, shadow[&lpid].clone(), view));
            }
        }
        ssd.drain();
        // Every held view still equals its capture-time snapshot, no
        // matter how many erases hit its source EBLOCK since.
        for (lpid, snap, view) in &held {
            prop_assert_eq!(view, snap, "held view of lpid {} mutated", lpid);
        }
        // And current reads still match the shadow model exactly.
        for (lpid, expect) in &shadow {
            prop_assert_eq!(&ssd.read(*lpid).unwrap(), expect, "lpid {}", lpid);
        }
    }

    /// The controller adopts a written batch's buffer instead of copying
    /// it, so a batch that keeps growing after `write` — and a clone that
    /// shares its buffer — must copy before it changes: every page read
    /// back after each generation's writes, and every current page before
    /// and after a crash, still matches what was written.
    #[test]
    fn adopted_batch_buffers_copy_on_write(
        gens in prop::collection::vec(
            (
                prop::collection::vec((0u64..24, any::<u8>(), 1u16..1200), 1..4),
                prop::collection::vec((24u64..48, any::<u8>(), 1u16..1200), 1..4),
            ),
            2..8,
        ),
    ) {
        let gc_cfg = EleosConfig {
            gc: eleos::GcConfig {
                free_watermark: 0.95,
                free_target: 0.95,
                ..eleos::GcConfig::default()
            },
            ..cfg()
        };
        let mut ssd = Eleos::format(dev(), gc_cfg.clone()).unwrap();
        let mut shadow: HashMap<u64, Vec<u8>> = HashMap::new();
        let mut held: Vec<(u64, Vec<u8>, bytes::Bytes)> = Vec::new();
        let mut b = WriteBatch::new(PageMode::Variable);
        let mut b_pages: Pages = Vec::new();
        let mut clone: Option<(WriteBatch, Pages)> = None;
        // Write a batch, model it, and hold a view of every page it wrote.
        let mut write = |ssd: &mut Eleos, batch: &WriteBatch, pages: &Pages| {
            ssd.write(batch, WriteOpts::default()).unwrap();
            for (lpid, page) in pages {
                shadow.insert(*lpid, page.clone());
            }
            for &(lpid, _) in pages {
                let view = ssd.read(lpid).unwrap();
                assert_eq!(view, shadow[&lpid], "lpid {lpid}");
                held.push((lpid, shadow[&lpid].clone(), view));
            }
        };
        for (b_new, c_new) in &gens {
            for &(lpid, seed, len) in b_new {
                let page = page_bytes(lpid, seed, len);
                b.put(lpid, &page).unwrap();
                b_pages.push((lpid, page));
            }
            write(&mut ssd, &b, &b_pages);
            // The clone is taken once, while the device holds the buffer
            // it shares with `b`, and then grows on its own.
            let (c, c_pages) = clone.get_or_insert_with(|| (b.clone(), b_pages.clone()));
            for &(lpid, seed, len) in c_new {
                let page = page_bytes(lpid, seed, len);
                c.put(lpid, &page).unwrap();
                c_pages.push((lpid, page));
            }
            write(&mut ssd, c, c_pages);
            ssd.maintenance().unwrap();
        }
        ssd.drain();
        for (lpid, snap, view) in &held {
            prop_assert_eq!(view, snap, "held view of lpid {} changed", lpid);
        }
        for (lpid, expect) in &shadow {
            prop_assert_eq!(&ssd.read(*lpid).unwrap(), expect, "lpid {}", lpid);
        }
        let flash = ssd.crash();
        let mut ssd = Eleos::recover(flash, gc_cfg).unwrap();
        for (lpid, expect) in &shadow {
            prop_assert_eq!(&ssd.read(*lpid).unwrap(), expect, "lpid {} after recovery", lpid);
        }
    }
}
