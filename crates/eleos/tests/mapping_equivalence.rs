//! Demand-paged mapping equivalence (DESIGN.md §15).
//!
//! The translation pages live on flash; what varies per config is only the
//! size of the LRU *cache* in front of them (`mapping_cache_pages`). It may
//! not be observable through the logical interface: the same operation
//! schedule — writes spread across many translation pages, deletes,
//! checkpoints, crash-recover cycles at the same schedule positions —
//! driven against a tiny cache under heavy eviction pressure and against a
//! cache whose bound never binds must leave both twins with identical
//! logical state: every LPID reads back the same bytes (or `NotFound`) on
//! each. Physical placement is *allowed* to differ (eviction flushes write
//! translation pages at different times); only the logical mapping must
//! agree. This keeps the crash sweeps and proptests, which run with a
//! roomy default cache, valid oracles for the demand-paged configuration.

use eleos::{Eleos, EleosConfig, EleosError, PageMode, WriteBatch, WriteOpts};
use eleos_flash::{CostProfile, FlashDevice, Geometry};
use proptest::prelude::*;
use std::collections::HashMap;

fn dev() -> FlashDevice {
    FlashDevice::new(Geometry::tiny(), CostProfile::unit())
}

/// Small translation pages (16 entries) + LPIDs spread over 0..1024 means
/// the schedule touches ~64 translation pages; a 3-page cache is under
/// constant eviction pressure.
fn cfg(cache_pages: usize) -> EleosConfig {
    EleosConfig {
        // Small enough that long schedules cross automatic checkpoints,
        // so crash points land mid-flush (WAL-protected translation-page
        // writes in flight).
        ckpt_log_bytes: 96 * 1024,
        mapping_cache_pages: cache_pages,
        ..EleosConfig::test_small()
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Write a batch of (lpid, seed, len) pages.
    Batch(Vec<(u64, u8, u16)>),
    Delete(Vec<u64>),
    Checkpoint,
    /// Crash and recover at this schedule position.
    Crash,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        // LPIDs over 0..1024 with 16-entry translation pages: every batch
        // touches several translation pages, far more than the tiny cache
        // holds.
        6 => prop::collection::vec((0u64..1024, any::<u8>(), 64u16..900), 1..10)
            .prop_map(Op::Batch),
        2 => prop::collection::vec(0u64..1024, 1..6).prop_map(Op::Delete),
        1 => Just(Op::Checkpoint),
        1 => Just(Op::Crash),
    ]
}

fn page_bytes(lpid: u64, seed: u8, len: u16) -> Vec<u8> {
    (0..len as usize)
        .map(|i| (lpid as u8) ^ seed ^ (i as u8).wrapping_mul(31))
        .collect()
}

/// Drive one schedule against one config; return the final logical state
/// (shadow-checked along the way so a divergence names its op index).
fn run_schedule(ops: &[Op], cfg: EleosConfig) -> Result<HashMap<u64, Vec<u8>>, TestCaseError> {
    let mut ssd = Eleos::format(dev(), cfg.clone()).unwrap();
    let mut shadow: HashMap<u64, Vec<u8>> = HashMap::new();
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Batch(pages) => {
                let mut b = WriteBatch::new(PageMode::Variable);
                let mut staged = Vec::new();
                for &(lpid, seed, len) in pages {
                    if staged.iter().any(|(l, _)| *l == lpid) {
                        continue;
                    }
                    let data = page_bytes(lpid, seed, len);
                    b.put(lpid, &data).unwrap();
                    staged.push((lpid, data));
                }
                ssd.write(&b, WriteOpts::default()).unwrap();
                for (lpid, data) in staged {
                    shadow.insert(lpid, data);
                }
            }
            Op::Delete(lpids) => {
                let pick: Vec<u64> = lpids
                    .iter()
                    .copied()
                    .filter(|l| shadow.contains_key(l))
                    .collect();
                if pick.is_empty() {
                    continue;
                }
                ssd.delete_batch(&pick).unwrap();
                for l in &pick {
                    shadow.remove(l);
                }
            }
            Op::Checkpoint => ssd.checkpoint().unwrap(),
            Op::Crash => {
                let flash = ssd.crash();
                ssd = Eleos::recover(flash, cfg.clone()).unwrap();
                // Acked ⇒ durable regardless of which translation pages
                // were cached dirty at the cut.
                for (lpid, expect) in &shadow {
                    let got = ssd.read(*lpid).map_err(|e| {
                        TestCaseError::fail(format!("op {i}: lpid {lpid} lost: {e}"))
                    })?;
                    prop_assert_eq!(got.as_ref(), expect.as_slice(), "op {} lpid {}", i, lpid);
                }
            }
        }
    }
    // Final audit doubles as the extraction of the logical state.
    let mut state = HashMap::new();
    for lpid in 0..1024u64 {
        match ssd.read(lpid) {
            Ok(bytes) => {
                state.insert(lpid, bytes.to_vec());
            }
            Err(EleosError::NotFound(_)) => {}
            Err(e) => return Err(TestCaseError::fail(format!("lpid {lpid}: {e}"))),
        }
    }
    prop_assert_eq!(&state, &shadow, "device diverged from shadow");
    Ok(state)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The demand-paged twins: a tiny cache and one whose bound never
    /// binds (1 << 16 pages, far beyond the ~64 translation pages the
    /// schedule touches) end a schedule (with mid-run crash-recover
    /// cycles) in the same logical state.
    #[test]
    fn cache_size_is_invisible_to_logical_state(
        ops in prop::collection::vec(op_strategy(), 1..40),
    ) {
        let tiny = run_schedule(&ops, cfg(3))?;
        let roomy = run_schedule(&ops, cfg(1 << 16))?;
        prop_assert_eq!(&tiny, &roomy, "tiny vs roomy cache logical state");
    }
}
