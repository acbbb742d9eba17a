//! Workspace-level integration tests: the full stack — Bw-tree application
//! over each storage configuration on the emulated flash — plus
//! cross-backend consistency and application-visible crash recovery.

use eleos_repro::bwtree::{BlockStore, BwTree, BwTreeConfig, EleosStore};
use eleos_repro::eleos::{Eleos, EleosConfig, PageMode};
use eleos_repro::flash::{CostProfile, FlashDevice, Geometry};
use eleos_repro::lss::{LogStore, LssConfig};
use eleos_repro::oxblock::{OxBlock, OxConfig};
use eleos_repro::workloads::{YcsbConfig, YcsbOp, YcsbWorkload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

fn geo() -> Geometry {
    Geometry {
        channels: 8,
        eblocks_per_channel: 16,
        wblocks_per_eblock: 32,
        wblock_bytes: 32 * 1024,
        rblock_bytes: 4 * 1024,
    } // 128 MB
}

fn eleos_tree(mode: PageMode, cache_pages: usize) -> BwTree<EleosStore> {
    let dev = FlashDevice::new(geo(), CostProfile::unit());
    let cfg = EleosConfig {
        page_mode: mode,
        max_user_lpid: 1 << 16,
        ckpt_log_bytes: 8 << 20,
        mapping_cache_pages: 1 << 14,
        ..Default::default()
    };
    let ssd = Eleos::format(dev, cfg).unwrap();
    BwTree::new(
        EleosStore::new(ssd),
        BwTreeConfig {
            cache_pages,
            write_buffer_bytes: 256 * 1024,
        },
    )
}

fn block_tree(cache_pages: usize) -> BwTree<BlockStore> {
    let dev = FlashDevice::new(geo(), CostProfile::unit());
    let logical_pages = geo().total_bytes() * 7 / 10 / 4096;
    let ftl = OxBlock::format(dev, OxConfig::new(logical_pages)).unwrap();
    let lss = LogStore::new(ftl, LssConfig::default());
    BwTree::new(
        BlockStore::new(lss),
        BwTreeConfig {
            cache_pages,
            write_buffer_bytes: 256 * 1024,
        },
    )
}

fn value(k: u64, v: u64) -> Vec<u8> {
    let mut out = vec![0u8; 100];
    out[..8].copy_from_slice(&k.to_le_bytes());
    out[8..16].copy_from_slice(&v.to_le_bytes());
    out
}

/// The same YCSB schedule must produce identical application state on all
/// three storage configurations.
#[test]
fn all_three_backends_agree_under_ycsb() {
    let records = 5_000u64;
    let ops = 8_000u64;
    let run_ops = |shadow: &mut HashMap<u64, Vec<u8>>| -> Vec<YcsbOp> {
        let mut w = YcsbWorkload::new(YcsbConfig::write_heavy(records, 99));
        let mut script = Vec::with_capacity(ops as usize);
        for _ in 0..ops {
            let op = w.next_op();
            if let YcsbOp::Update(k, v) = &op {
                shadow.insert(*k, v.clone());
            }
            script.push(op);
        }
        script
    };
    let mut shadow: HashMap<u64, Vec<u8>> = HashMap::new();
    for k in 0..records {
        shadow.insert(k, value(k, 0));
    }
    let script = run_ops(&mut shadow);

    // Drive each backend with the identical script.
    macro_rules! drive {
        ($tree:expr) => {{
            let mut t = $tree;
            for k in 0..records {
                t.upsert(k, value(k, 0)).unwrap();
            }
            t.flush_all().unwrap();
            for op in &script {
                match op {
                    YcsbOp::Read(k) => {
                        t.get(*k).unwrap();
                    }
                    YcsbOp::Update(k, v) => t.upsert(*k, v.clone()).unwrap(),
                }
            }
            // Audit against the shadow.
            for (k, v) in &shadow {
                assert_eq!(t.get(*k).unwrap().as_deref(), Some(v.as_slice()), "key {k}");
            }
        }};
    }
    drive!(eleos_tree(PageMode::Variable, 256));
    drive!(eleos_tree(PageMode::Fixed(4096), 256));
    drive!(block_tree(256));
}

/// Crash the ELEOS-backed tree mid-workload; after recovery, every page the
/// application flushed must be intact (the tree keeps no host-side
/// durability state — exactly the paper's point).
#[test]
fn application_crash_recovery_via_eleos() {
    let mut tree = eleos_tree(PageMode::Variable, 64);
    let mut rng = StdRng::seed_from_u64(11);
    for k in 0..3_000u64 {
        tree.upsert(k, value(k, 1)).unwrap();
    }
    for _ in 0..5_000 {
        let k = rng.gen_range(0..3_000u64);
        tree.upsert(k, value(k, 2)).unwrap();
    }
    tree.flush_all().unwrap();
    // Remember where every page lives (the tree's index would normally be
    // rebuilt from application metadata; here we snapshot it).
    let pages: Vec<u64> = (0..tree.page_count() as u64).collect();

    // Crash the controller and recover it.
    let store = tree.store_mut();
    let ssd = std::mem::replace(
        &mut store.ssd,
        Eleos::format(
            FlashDevice::new(Geometry::tiny(), CostProfile::unit()),
            EleosConfig::test_small(),
        )
        .unwrap(),
    );
    let flash = ssd.crash();
    let cfg = EleosConfig {
        page_mode: PageMode::Variable,
        max_user_lpid: 1 << 16,
        ckpt_log_bytes: 8 << 20,
        mapping_cache_pages: 1 << 14,
        ..Default::default()
    };
    let mut recovered = Eleos::recover(flash, cfg).unwrap();
    for pid in pages {
        assert!(
            recovered.read(pid).is_ok(),
            "page {pid} unreadable after crash recovery"
        );
    }
}

/// A mixed-size object store over ELEOS: blobs from 64 bytes to ~100 KB in
/// the same batches (the "variable length blobs" motivation of Section
/// I-B).
#[test]
fn mixed_size_blob_store() {
    use eleos_repro::eleos::{WriteBatch, WriteOpts};
    let dev = FlashDevice::new(geo(), CostProfile::unit());
    let cfg = EleosConfig {
        max_user_lpid: 4096,
        ckpt_log_bytes: 8 << 20,
        ..Default::default()
    };
    let mut ssd = Eleos::format(dev, cfg).unwrap();
    let mut rng = StdRng::seed_from_u64(21);
    let mut shadow: HashMap<u64, Vec<u8>> = HashMap::new();
    for round in 0..30 {
        let mut batch = WriteBatch::new(PageMode::Variable);
        for _ in 0..12 {
            let lpid = rng.gen_range(0..512u64);
            let len = match rng.gen_range(0..3) {
                0 => rng.gen_range(1..200usize),        // tiny
                1 => rng.gen_range(1_000..8_000usize),  // page-ish
                _ => rng.gen_range(50_000..100_000usize), // blob
            };
            let data: Vec<u8> = (0..len).map(|i| (i as u8) ^ (round as u8)).collect();
            batch.put(lpid, &data).unwrap();
            shadow.insert(lpid, data);
        }
        ssd.write(&batch, WriteOpts::default()).unwrap();
    }
    for (lpid, data) in &shadow {
        assert_eq!(&ssd.read(*lpid).unwrap(), data, "blob {lpid}");
    }
    // Variable-size storage: stored bytes track payloads, not page grids.
    let s = ssd.snapshot().eleos;
    assert!(s.padding_overhead() < 0.10, "padding {}", s.padding_overhead());
}
