//! Integration tests: the full ELEOS FTL against a shadow model, under
//! overwrite pressure (GC), crashes, and injected write failures.

use eleos::types::MAP_PAGE_BASE;
use eleos::{
    shard_of_lpid, Eleos, EleosConfig, EleosError, GcPolicy, PageMode, ShardedEleos, WriteBatch,
    WriteOpts,
};
use eleos_flash::{CostProfile, FlashDevice, Geometry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

fn small_dev() -> FlashDevice {
    FlashDevice::new(Geometry::tiny(), CostProfile::unit())
}

/// A medium device: 8 channels x 32 eblocks x 16 wblocks x 16 KB = 64 MB.
fn medium_dev() -> FlashDevice {
    let geo = Geometry {
        channels: 8,
        eblocks_per_channel: 32,
        wblocks_per_eblock: 16,
        wblock_bytes: 16 * 1024,
        rblock_bytes: 4 * 1024,
    };
    FlashDevice::new(geo, CostProfile::unit())
}

fn cfg() -> EleosConfig {
    EleosConfig::test_small()
}

/// Config with automatic checkpointing so log truncation (and hence log
/// EBLOCK reclamation) happens under sustained load.
fn cfg_auto_ckpt() -> EleosConfig {
    EleosConfig {
        ckpt_log_bytes: 512 * 1024,
        ..EleosConfig::test_small()
    }
}

fn payload(lpid: u64, version: u64, len: usize) -> Vec<u8> {
    let mut v = Vec::with_capacity(len);
    let mut x = lpid.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ version;
    while v.len() < len {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        v.extend_from_slice(&x.to_le_bytes());
    }
    v.truncate(len);
    v
}

#[test]
fn write_read_many_batches_variable() {
    let mut ssd = Eleos::format(small_dev(), cfg()).unwrap();
    let mut shadow: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut rng = StdRng::seed_from_u64(1);
    for round in 0..20u64 {
        let mut batch = WriteBatch::new(PageMode::Variable);
        for _ in 0..16 {
            let lpid = rng.gen_range(0..200u64);
            let len = rng.gen_range(1..3000usize);
            let data = payload(lpid, round, len);
            batch.put(lpid, &data).unwrap();
            shadow.insert(lpid, data);
        }
        ssd.write(&batch, WriteOpts::default()).unwrap();
    }
    for (lpid, data) in &shadow {
        assert_eq!(ssd.read(*lpid).unwrap(), *data, "lpid {lpid}");
    }
    assert!(ssd.snapshot().eleos.batches == 20);
    assert!(ssd.read(9999).is_err());
}

#[test]
fn duplicate_lpids_in_one_batch_last_wins() {
    let mut ssd = Eleos::format(small_dev(), cfg()).unwrap();
    let mut batch = WriteBatch::new(PageMode::Variable);
    batch.put(5, b"first version").unwrap();
    batch.put(6, b"other").unwrap();
    batch.put(5, b"second version").unwrap();
    ssd.write(&batch, WriteOpts::default()).unwrap();
    assert_eq!(ssd.read(5).unwrap(), b"second version");
    assert_eq!(ssd.read(6).unwrap(), b"other");
}

#[test]
fn fixed_page_mode_stores_and_reads() {
    let mut config = cfg();
    config.page_mode = PageMode::Fixed(4096);
    let mut ssd = Eleos::format(small_dev(), config).unwrap();
    let mut batch = WriteBatch::new(PageMode::Fixed(4096));
    batch.put(1, &payload(1, 0, 100)).unwrap();
    batch.put(2, &payload(2, 0, 4000)).unwrap();
    ssd.write(&batch, WriteOpts::default()).unwrap();
    assert_eq!(ssd.read(1).unwrap(), payload(1, 0, 100));
    assert_eq!(ssd.read(2).unwrap(), payload(2, 0, 4000));
    // Every page occupies the full fixed size on flash.
    assert_eq!(ssd.stored_len(1).unwrap(), Some(4096));
    assert_eq!(ssd.stored_len(2).unwrap(), Some(4096));
}

#[test]
fn variable_mode_stores_compactly() {
    let mut ssd = Eleos::format(small_dev(), cfg()).unwrap();
    let mut batch = WriteBatch::new(PageMode::Variable);
    batch.put(1, &payload(1, 0, 100)).unwrap();
    ssd.write(&batch, WriteOpts::default()).unwrap();
    // 100 bytes payload + 16 header -> 128 stored.
    assert_eq!(ssd.stored_len(1).unwrap(), Some(128));
}

#[test]
fn overwrite_pressure_triggers_gc_and_preserves_data() {
    let mut ssd = Eleos::format(small_dev(), cfg_auto_ckpt()).unwrap();
    let mut shadow: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut rng = StdRng::seed_from_u64(7);
    // Working set of ~1 MB on a 16 MB device, overwritten many times:
    // GC must kick in to reclaim space.
    for round in 0..500u64 {
        let mut batch = WriteBatch::new(PageMode::Variable);
        for _ in 0..32 {
            let lpid = rng.gen_range(0..1024u64);
            let len = rng.gen_range(64..2048usize);
            let data = payload(lpid, round, len);
            batch.put(lpid, &data).unwrap();
            shadow.insert(lpid, data);
        }
        ssd.write(&batch, WriteOpts::default()).unwrap();
    }
    assert!(
        ssd.snapshot().eleos.gc_collections > 0,
        "expected GC under overwrite pressure: {:?}",
        ssd.snapshot().eleos
    );
    assert!(ssd.snapshot().eleos.gc_erases > 0);
    for (lpid, data) in &shadow {
        assert_eq!(ssd.read(*lpid).unwrap(), *data, "lpid {lpid} after GC");
    }
}

#[test]
fn gc_selection_policies_all_work() {
    for sel in GcPolicy::ALL {
        let mut config = cfg_auto_ckpt();
        config.gc.policy = sel;
        let mut ssd = Eleos::format(medium_dev(), config).unwrap();
        let mut shadow: HashMap<u64, Vec<u8>> = HashMap::new();
        let mut rng = StdRng::seed_from_u64(11);
        for round in 0..150u64 {
            let mut batch = WriteBatch::new(PageMode::Variable);
            for _ in 0..32 {
                let lpid = rng.gen_range(0..512u64);
                let data = payload(lpid, round, rng.gen_range(64..2048));
                batch.put(lpid, &data).unwrap();
                shadow.insert(lpid, data);
            }
            ssd.write(&batch, WriteOpts::default()).unwrap();
        }
        for (lpid, data) in &shadow {
            assert_eq!(ssd.read(*lpid).unwrap(), *data, "{sel:?} lpid {lpid}");
        }
    }
}

#[test]
fn crash_recover_preserves_acked_batches() {
    let mut ssd = Eleos::format(small_dev(), cfg()).unwrap();
    let mut shadow: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut rng = StdRng::seed_from_u64(3);
    for round in 0..10u64 {
        let mut batch = WriteBatch::new(PageMode::Variable);
        for _ in 0..8 {
            let lpid = rng.gen_range(0..100u64);
            let data = payload(lpid, round, rng.gen_range(64..1500));
            batch.put(lpid, &data).unwrap();
            shadow.insert(lpid, data);
        }
        ssd.write(&batch, WriteOpts::default()).unwrap();
    }
    let dev = ssd.crash();
    let mut ssd = Eleos::recover(dev, cfg()).unwrap();
    for (lpid, data) in &shadow {
        assert_eq!(ssd.read(*lpid).unwrap(), *data, "lpid {lpid} after recovery");
    }
    // The recovered controller keeps working.
    let mut batch = WriteBatch::new(PageMode::Variable);
    batch.put(0, b"post-recovery").unwrap();
    ssd.write(&batch, WriteOpts::default()).unwrap();
    assert_eq!(ssd.read(0).unwrap(), b"post-recovery");
}

#[test]
fn repeated_crash_recover_cycles() {
    let mut shadow: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut rng = StdRng::seed_from_u64(5);
    let mut dev = Some(small_dev());
    let mut version = 0u64;
    for cycle in 0..6 {
        let mut ssd = if cycle == 0 {
            Eleos::format(dev.take().unwrap(), cfg()).unwrap()
        } else {
            Eleos::recover(dev.take().unwrap(), cfg()).unwrap()
        };
        for (lpid, data) in &shadow {
            assert_eq!(ssd.read(*lpid).unwrap(), *data, "cycle {cycle} lpid {lpid}");
        }
        for _ in 0..5 {
            let mut batch = WriteBatch::new(PageMode::Variable);
            for _ in 0..8 {
                version += 1;
                let lpid = rng.gen_range(0..64u64);
                let data = payload(lpid, version, rng.gen_range(64..1024));
                batch.put(lpid, &data).unwrap();
                shadow.insert(lpid, data);
            }
            ssd.write(&batch, WriteOpts::default()).unwrap();
        }
        if cycle % 2 == 1 {
            ssd.checkpoint().unwrap();
        }
        dev = Some(ssd.crash());
    }
}

/// Regression for three recovery bugs found by crash torture:
/// (1) a checkpoint's summary-page flush LSN equal to its own first Write
/// record LSN caused the redo guard to skip it; (2) an EBLOCK recycled
/// from log standby to user data kept a stale Log purpose, so recovery's
/// standby cleanup freed live data; (3) the checkpoint trigger counted
/// record bytes rather than physical log WBLOCKs, so the log was never
/// truncated under small batches.
#[test]
fn many_crash_cycles_with_gc_and_auto_checkpoints() {
    let mut shadow: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let mut version = 0u64;
    let config = cfg_auto_ckpt();
    let mut ssd = Eleos::format(small_dev(), config.clone()).unwrap();
    for cycle in 0..25 {
        let batches = rng.gen_range(5..50);
        for _ in 0..batches {
            let mut b = WriteBatch::new(PageMode::Variable);
            for _ in 0..rng.gen_range(1..16) {
                version += 1;
                let lpid = rng.gen_range(0..512u64);
                let data = payload(lpid, version, rng.gen_range(64..2048));
                b.put(lpid, &data).unwrap();
                shadow.insert(lpid, data);
            }
            ssd.write(&b, WriteOpts::default()).unwrap();
        }
        let flash = ssd.crash();
        ssd = Eleos::recover(flash, config.clone()).unwrap();
        for (lpid, data) in &shadow {
            assert_eq!(ssd.read(*lpid).unwrap(), *data, "cycle {cycle} lpid {lpid}");
        }
    }
}

#[test]
fn crash_with_gc_activity_then_recover() {
    let mut ssd = Eleos::format(small_dev(), cfg_auto_ckpt()).unwrap();
    let mut shadow: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut rng = StdRng::seed_from_u64(13);
    for round in 0..350u64 {
        let mut batch = WriteBatch::new(PageMode::Variable);
        for _ in 0..32 {
            let lpid = rng.gen_range(0..768u64);
            let data = payload(lpid, round, rng.gen_range(64..2048));
            batch.put(lpid, &data).unwrap();
            shadow.insert(lpid, data);
        }
        ssd.write(&batch, WriteOpts::default()).unwrap();
        if round == 120 {
            ssd.checkpoint().unwrap();
        }
    }
    assert!(ssd.snapshot().eleos.gc_collections > 0, "GC must have run");
    let dev = ssd.crash();
    let mut ssd = Eleos::recover(dev, cfg_auto_ckpt()).unwrap();
    for (lpid, data) in &shadow {
        assert_eq!(ssd.read(*lpid).unwrap(), *data, "lpid {lpid}");
    }
    // And GC keeps working after recovery.
    for round in 1000..1050u64 {
        let mut batch = WriteBatch::new(PageMode::Variable);
        for _ in 0..32 {
            let lpid = rng.gen_range(0..768u64);
            let data = payload(lpid, round, rng.gen_range(64..2048));
            batch.put(lpid, &data).unwrap();
            shadow.insert(lpid, data);
        }
        ssd.write(&batch, WriteOpts::default()).unwrap();
    }
    for (lpid, data) in &shadow {
        assert_eq!(ssd.read(*lpid).unwrap(), *data, "lpid {lpid} post-recovery GC");
    }
}

#[test]
fn session_ordering_and_recovery_of_wsn() {
    let mut ssd = Eleos::format(small_dev(), cfg()).unwrap();
    let sid = ssd.open_session().unwrap();
    let mut b = WriteBatch::new(PageMode::Variable);
    b.put(1, b"v1").unwrap();
    ssd.write(&b, WriteOpts::ordered(sid, 1)).unwrap();
    // Skipping a WSN is rejected with the highest ACK.
    let mut b2 = WriteBatch::new(PageMode::Variable);
    b2.put(1, b"v3").unwrap();
    match ssd.write(&b2, WriteOpts::ordered(sid, 3)) {
        Err(EleosError::WsnOutOfOrder { got: 3, highest_acked: 1 }) => {}
        other => panic!("expected WsnOutOfOrder, got {other:?}"),
    }
    // Duplicate is rejected the same way (idempotent redo after lost ACK).
    match ssd.write(&b2, WriteOpts::ordered(sid, 1)) {
        Err(EleosError::WsnOutOfOrder { got: 1, highest_acked: 1 }) => {}
        other => panic!("expected WsnOutOfOrder, got {other:?}"),
    }
    ssd.write(&b2, WriteOpts::ordered(sid, 2)).unwrap();
    assert_eq!(ssd.read(1).unwrap(), b"v3");

    // WSN state survives a crash.
    let dev = ssd.crash();
    let mut ssd = Eleos::recover(dev, cfg()).unwrap();
    assert_eq!(ssd.session_highest_wsn(sid), Some(2));
    let mut b3 = WriteBatch::new(PageMode::Variable);
    b3.put(1, b"v4").unwrap();
    // Redoing WSN 2 after crash is rejected (already applied)...
    assert!(matches!(
        ssd.write(&b3, WriteOpts::ordered(sid, 2)),
        Err(EleosError::WsnOutOfOrder { highest_acked: 2, .. })
    ));
    // ...and WSN 3 proceeds.
    ssd.write(&b3, WriteOpts::ordered(sid, 3)).unwrap();
    assert_eq!(ssd.read(1).unwrap(), b"v4");
}

#[test]
fn write_failure_aborts_and_retry_succeeds() {
    // Fail one data program mid-run; ELEOS must abort the action, migrate
    // the poisoned EBLOCK, and accept the retried buffer.
    let mut shadow: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut rng = StdRng::seed_from_u64(21);
    let dev = FlashDevice::new(Geometry::tiny(), CostProfile::unit());
    let mut ssd = Eleos::format(dev, cfg()).unwrap();
    // Prime some committed data so migration has something to move.
    for round in 0..5u64 {
        let mut batch = WriteBatch::new(PageMode::Variable);
        for _ in 0..8 {
            let lpid = rng.gen_range(0..64u64);
            let data = payload(lpid, round, rng.gen_range(64..1024));
            batch.put(lpid, &data).unwrap();
            shadow.insert(lpid, data);
        }
        ssd.write(&batch, WriteOpts::default()).unwrap();
    }
    // Inject: fail the 3rd program attempt from now.
    ssd.device_mut().faults_mut().fail_nth_from_now(2);
    let mut aborted = 0;
    for round in 100..120u64 {
        let mut batch = WriteBatch::new(PageMode::Variable);
        let mut staged: Vec<(u64, Vec<u8>)> = Vec::new();
        for _ in 0..8 {
            let lpid = rng.gen_range(0..64u64);
            let data = payload(lpid, round, rng.gen_range(64..1024));
            batch.put(lpid, &data).unwrap();
            staged.push((lpid, data));
        }
        match ssd.write(&batch, WriteOpts::default()) {
            Ok(_) => {
                for (l, d) in staged {
                    shadow.insert(l, d);
                }
            }
            Err(EleosError::ActionAborted) => {
                aborted += 1;
                // Retry the same buffer (the paper's contract).
                ssd.write(&batch, WriteOpts::default()).unwrap();
                for (l, d) in staged {
                    shadow.insert(l, d);
                }
            }
            Err(e) => panic!("unexpected error {e}"),
        }
    }
    assert_eq!(aborted, 1, "exactly one injected failure");
    assert!(ssd.snapshot().eleos.migrations >= 1);
    for (lpid, data) in &shadow {
        assert_eq!(ssd.read(*lpid).unwrap(), *data, "lpid {lpid} after failure");
    }
}

#[test]
fn recovery_without_checkpoint_after_format_only() {
    // Format writes the initial checkpoint; recovering an untouched device
    // must work and serve an empty mapping.
    let ssd = Eleos::format(small_dev(), cfg()).unwrap();
    let dev = ssd.crash();
    let mut ssd = Eleos::recover(dev, cfg()).unwrap();
    assert!(matches!(ssd.read(1), Err(EleosError::NotFound(1))));
}

#[test]
fn explicit_checkpoints_bound_replay_and_preserve_data() {
    let mut ssd = Eleos::format(small_dev(), cfg()).unwrap();
    let mut shadow: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut rng = StdRng::seed_from_u64(17);
    for round in 0..12u64 {
        let mut batch = WriteBatch::new(PageMode::Variable);
        for _ in 0..8 {
            let lpid = rng.gen_range(0..128u64);
            let data = payload(lpid, round, rng.gen_range(64..1024));
            batch.put(lpid, &data).unwrap();
            shadow.insert(lpid, data);
        }
        ssd.write(&batch, WriteOpts::default()).unwrap();
        if round % 4 == 3 {
            ssd.checkpoint().unwrap();
        }
    }
    assert!(ssd.snapshot().eleos.checkpoints >= 3);
    let dev = ssd.crash();
    let mut ssd = Eleos::recover(dev, cfg()).unwrap();
    for (lpid, data) in &shadow {
        assert_eq!(ssd.read(*lpid).unwrap(), *data);
    }
}

#[test]
fn mapping_cache_pressure_forces_paging() {
    // Tiny cache (8 pages), lpids spread over many mapping pages: the
    // mapping table must page to flash and back transparently.
    let mut config = cfg();
    config.mapping_cache_pages = 4;
    let mut ssd = Eleos::format(medium_dev(), config).unwrap();
    let mut shadow: HashMap<u64, Vec<u8>> = HashMap::new();
    for round in 0..4u64 {
        for group in 0..16u64 {
            let mut batch = WriteBatch::new(PageMode::Variable);
            for k in 0..8u64 {
                let lpid = group * 160 + k; // spread across mapping pages of 16 entries
                let data = payload(lpid, round, 200);
                batch.put(lpid, &data).unwrap();
                shadow.insert(lpid, data);
            }
            ssd.write(&batch, WriteOpts::default()).unwrap();
        }
        ssd.checkpoint().unwrap();
    }
    for (lpid, data) in &shadow {
        assert_eq!(ssd.read(*lpid).unwrap(), *data, "lpid {lpid}");
    }
}

#[test]
fn empty_batch_rejected() {
    let mut ssd = Eleos::format(small_dev(), cfg()).unwrap();
    let batch = WriteBatch::new(PageMode::Variable);
    assert!(matches!(ssd.write(&batch, WriteOpts::default()), Err(EleosError::EmptyBatch)));
}

#[test]
fn virtual_time_advances_and_scales_with_work() {
    let dev = FlashDevice::new(Geometry::tiny(), CostProfile::weak_controller());
    let mut ssd = Eleos::format(dev, cfg()).unwrap();
    let t0 = ssd.now();
    let mut batch = WriteBatch::new(PageMode::Variable);
    for lpid in 0..32u64 {
        batch.put(lpid, &payload(lpid, 0, 1024)).unwrap();
    }
    ssd.write(&batch, WriteOpts::default()).unwrap();
    let t1 = ssd.now();
    assert!(t1 > t0, "time must advance with a write");
    ssd.read(0).unwrap();
    assert!(ssd.now() > t1, "time must advance with a read");
}

#[test]
fn delete_clears_mapping_and_survives_crash() {
    let mut ssd = Eleos::format(small_dev(), cfg()).unwrap();
    let mut batch = WriteBatch::new(PageMode::Variable);
    batch.put(1, b"keep me").unwrap();
    batch.put(2, b"delete me").unwrap();
    batch.put(3, b"also delete").unwrap();
    ssd.write(&batch, WriteOpts::default()).unwrap();
    ssd.delete_batch(&[2, 3]).unwrap();
    assert!(matches!(ssd.read(2), Err(EleosError::NotFound(2))));
    assert!(matches!(ssd.read(3), Err(EleosError::NotFound(3))));
    assert_eq!(ssd.read(1).unwrap(), b"keep me");
    // Deletes are durable across crashes.
    let dev = ssd.crash();
    let mut ssd = Eleos::recover(dev, cfg()).unwrap();
    assert!(matches!(ssd.read(2), Err(EleosError::NotFound(2))));
    assert_eq!(ssd.read(1).unwrap(), b"keep me");
    // Deleting an unknown LPID is an idempotent no-op.
    ssd.delete(2).unwrap();
    // A new write after delete works.
    let mut b = WriteBatch::new(PageMode::Variable);
    b.put(2, b"reborn").unwrap();
    ssd.write(&b, WriteOpts::default()).unwrap();
    assert_eq!(ssd.read(2).unwrap(), b"reborn");
}

#[test]
fn delete_frees_space_for_gc() {
    let mut ssd = Eleos::format(small_dev(), cfg_auto_ckpt()).unwrap();
    let mut rng = StdRng::seed_from_u64(77);
    // Fill a large fraction of the device, then delete most of it; further
    // writes must succeed because deletes made the space reclaimable.
    for round in 0..220u64 {
        let mut batch = WriteBatch::new(PageMode::Variable);
        for _ in 0..16 {
            let lpid = rng.gen_range(0..2048u64);
            batch.put(lpid, &payload(lpid, round, 3000)).unwrap();
        }
        ssd.write(&batch, WriteOpts::default()).unwrap();
        if round % 10 == 9 {
            let dels: Vec<u64> = (0..2048u64).filter(|_| rng.gen_bool(0.3)).collect();
            ssd.delete_batch(&dels).unwrap();
        }
    }
    assert!(ssd.snapshot().eleos.gc_erases > 0);
    // Batch boundaries: empty and reserved-lpid deletes rejected.
    assert!(matches!(ssd.delete_batch(&[]), Err(EleosError::EmptyBatch)));
    assert!(matches!(
        ssd.delete_batch(&[MAP_PAGE_BASE]),
        Err(EleosError::ReservedLpid(_))
    ));
    // A reserved LPID after the first is rejected before anything is
    // logged: a logged first record would pin log truncation for good,
    // and the churn below would then run the device out of space.
    assert!(matches!(
        ssd.delete_batch(&[1, MAP_PAGE_BASE]),
        Err(EleosError::ReservedLpid(_))
    ));
    for round in 0..2000u64 {
        let mut batch = WriteBatch::new(PageMode::Variable);
        for _ in 0..16 {
            let lpid = rng.gen_range(0..2048u64);
            batch.put(lpid, &payload(lpid, round, 3000)).unwrap();
        }
        ssd.write(&batch, WriteOpts::default())
            .unwrap_or_else(|e| panic!("batch {round} after the rejected delete: {e:?}"));
    }
}

#[test]
fn lpids_past_the_map_range_are_rejected_before_anything_changes() {
    let far = cfg().max_user_lpid + 100_000;
    let rejected = |r: eleos::Result<_>| matches!(r, Err(EleosError::NotFound(l)) if l == far);

    // Direct write and delete: an error, and not a counter or clock tick
    // moves; the device still recovers.
    let mut ssd = Eleos::format(small_dev(), cfg()).unwrap();
    let mut b = WriteBatch::new(PageMode::Variable);
    b.put(1, b"one").unwrap();
    b.put(2, b"two").unwrap();
    ssd.write(&b, WriteOpts::default()).unwrap();
    let before = ssd.snapshot().to_json();
    let mut bad = WriteBatch::new(PageMode::Variable);
    bad.put(2, b"lost").unwrap();
    bad.put(far, b"far").unwrap();
    assert!(rejected(ssd.write(&bad, WriteOpts::default()).map(drop)));
    assert!(rejected(ssd.delete_batch(&[1, far])));
    assert_eq!(ssd.snapshot().to_json(), before);
    let mut ssd = Eleos::recover(ssd.crash(), cfg()).unwrap();
    assert_eq!(ssd.read(1).unwrap(), b"one");
    assert_eq!(ssd.read(2).unwrap(), b"two");

    // A cross-shard group whose far LPID sits on the second shard: the
    // first shard's prepare is rolled back and nothing is installed.
    let far = (far..).find(|&l| shard_of_lpid(l, 2) == 1).unwrap();
    let near = (0..).find(|&l| shard_of_lpid(l, 2) == 0).unwrap();
    let devs = (0..2).map(|_| small_dev()).collect();
    let mut sh = ShardedEleos::format(devs, &cfg()).unwrap();
    let mut b = WriteBatch::new(PageMode::Variable);
    b.put(near, b"near").unwrap();
    sh.write_group(&b).unwrap();
    let mut bad = WriteBatch::new(PageMode::Variable);
    bad.put(near, b"lost").unwrap();
    bad.put(far, b"far").unwrap();
    assert!(matches!(sh.write_group(&bad), Err(EleosError::NotFound(l)) if l == far));
    assert!(matches!(sh.delete_batch(&[near, far]), Err(EleosError::NotFound(l)) if l == far));
    assert_eq!(sh.read(near).unwrap(), b"near");
    let mut sh = ShardedEleos::recover(sh.crash(), &cfg()).unwrap();
    assert_eq!(sh.read(near).unwrap(), b"near");
}

#[test]
fn pipelined_ordered_writes_preserve_order_and_save_time() {
    // Same workload, synchronous vs pipelined ordered writes: identical
    // contents, and the pipelined run finishes earlier in virtual time
    // because the host never blocks on flash completion.
    let run = |pipelined: bool| -> (u64, bytes::Bytes) {
        let dev = FlashDevice::new(Geometry::tiny(), CostProfile::weak_controller());
        let mut ssd = Eleos::format(dev, cfg()).unwrap();
        let sid = ssd.open_session().unwrap();
        let t0 = ssd.now();
        for wsn in 1..=20u64 {
            let mut b = WriteBatch::new(PageMode::Variable);
            for k in 0..16u64 {
                b.put(k, &payload(k, wsn, 1024)).unwrap();
            }
            if pipelined {
                ssd.write(&b, WriteOpts::ordered_pipelined(sid, wsn)).unwrap();
            } else {
                ssd.write(&b, WriteOpts::ordered(sid, wsn)).unwrap();
            }
        }
        ssd.drain();
        let elapsed = ssd.now() - t0;
        (elapsed, ssd.read(3).unwrap())
    };
    let (t_sync, d_sync) = run(false);
    let (t_pipe, d_pipe) = run(true);
    assert_eq!(d_sync, d_pipe, "content identical under both modes");
    assert!(
        t_pipe < t_sync,
        "pipelining must save virtual time: {t_pipe} vs {t_sync}"
    );
}

#[test]
fn mapping_cache_bounded_by_eviction_flush() {
    // A tiny mapping cache with writes spread over many mapping pages:
    // dirty pages must be eviction-flushed so the cache stays bounded even
    // without explicit checkpoints.
    let mut config = cfg();
    config.mapping_cache_pages = 6;
    config.max_user_lpid = 4096;
    let mut ssd = Eleos::format(small_dev(), config).unwrap();
    for round in 0..30u64 {
        let mut b = WriteBatch::new(PageMode::Variable);
        for k in 0..8u64 {
            // 16 entries per mapping page; stride past page boundaries.
            let lpid = (round * 8 + k) * 17 % 4096;
            b.put(lpid, &payload(lpid, round, 300)).unwrap();
        }
        ssd.write(&b, WriteOpts::default()).unwrap();
        assert!(
            ssd.snapshot().mapping_cached_pages <= 6 + 8,
            "cache ballooned to {}",
            ssd.snapshot().mapping_cached_pages
        );
    }
    // Everything still readable through the paged mapping.
    for round in 0..30u64 {
        for k in 0..8u64 {
            let lpid = (round * 8 + k) * 17 % 4096;
            assert!(ssd.read(lpid).is_ok(), "lpid {lpid}");
        }
    }
}

#[test]
fn space_report_tracks_consumption() {
    let mut ssd = Eleos::format(small_dev(), cfg()).unwrap();
    let r0 = ssd.space_report();
    assert_eq!(r0.total_bytes, 16 * 1024 * 1024);
    assert!(r0.free_bytes > r0.total_bytes / 2);
    // Write ~1 MB, overwrite it once: live stays ~1 MB, reclaimable grows.
    for round in 0..2u64 {
        let mut b = WriteBatch::new(PageMode::Variable);
        for lpid in 0..256u64 {
            b.put(lpid, &payload(lpid, round, 4000)).unwrap();
        }
        ssd.write(&b, WriteOpts::default()).unwrap();
    }
    let r = ssd.space_report();
    assert!(r.free_bytes < r0.free_bytes);
    assert!(r.reclaimable_bytes > 900_000, "reclaimable {}", r.reclaimable_bytes);
    let live = r.live_estimate();
    assert!(
        (900_000..2_500_000).contains(&live),
        "live estimate {live} should be ~1 MB plus structure slack"
    );
}

#[test]
fn multiple_interleaved_sessions_stay_independent() {
    let mut ssd = Eleos::format(small_dev(), cfg()).unwrap();
    let a = ssd.open_session().unwrap();
    let b = ssd.open_session().unwrap();
    assert_ne!(a, b, "controller assigns distinct SIDs");
    for wsn in 1..=5u64 {
        let mut wa = WriteBatch::new(PageMode::Variable);
        wa.put(1, &payload(1, wsn, 200)).unwrap();
        ssd.write(&wa, WriteOpts::ordered(a, wsn)).unwrap();
        // Session b intentionally lags.
        if wsn <= 2 {
            let mut wb = WriteBatch::new(PageMode::Variable);
            wb.put(2, &payload(2, wsn + 100, 200)).unwrap();
            ssd.write(&wb, WriteOpts::ordered(b, wsn)).unwrap();
        }
    }
    assert_eq!(ssd.session_highest_wsn(a), Some(5));
    assert_eq!(ssd.session_highest_wsn(b), Some(2));
    // Cross-session WSNs don't interfere.
    assert!(matches!(
        ssd.write(&WriteBatch::new(PageMode::Variable), WriteOpts::ordered(b, 5)),
        Err(EleosError::WsnOutOfOrder { highest_acked: 2, .. })
    ));
}

/// Long soak: sustained skewed churn with periodic crashes on a larger
/// device. Run explicitly with `cargo test -p eleos -- --ignored`.
#[test]
#[ignore = "multi-minute soak; run with --ignored"]
fn soak_churn_crash_audit() {
    let geo = Geometry {
        channels: 8,
        eblocks_per_channel: 32,
        wblocks_per_eblock: 32,
        wblock_bytes: 32 * 1024,
        rblock_bytes: 4 * 1024,
    }; // 256 MB
    let config = EleosConfig {
        ckpt_log_bytes: 4 * 1024 * 1024,
        max_user_lpid: 1 << 16,
        mapping_cache_pages: 256,
        ..EleosConfig::test_small()
    };
    let mut ssd =
        Eleos::format(FlashDevice::new(geo, CostProfile::unit()), config.clone()).unwrap();
    let mut shadow: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut rng = StdRng::seed_from_u64(0x50A6 ^ 0xFFFF);
    let mut version = 0u64;
    for cycle in 0..12 {
        for _ in 0..800 {
            let mut b = WriteBatch::new(PageMode::Variable);
            for _ in 0..32 {
                version += 1;
                let lpid = rng.gen_range(0..40_000u64);
                let data = payload(lpid, version, rng.gen_range(64..3500));
                b.put(lpid, &data).unwrap();
                shadow.insert(lpid, data);
            }
            ssd.write(&b, WriteOpts::default()).unwrap();
        }
        let flash = ssd.crash();
        ssd = Eleos::recover(flash, config.clone()).unwrap();
        for (lpid, data) in &shadow {
            assert_eq!(ssd.read(*lpid).unwrap(), *data, "cycle {cycle} lpid {lpid}");
        }
    }
    assert!(ssd.snapshot().eleos.gc_erases > 0);
}
