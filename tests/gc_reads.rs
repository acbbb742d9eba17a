//! GC read amplification and relocation actions under uniform overwrites
//! of variable-size pages.
//!
//! A victim's live LPAGEs are 0.6–2 KB and RBLOCKs 4 KB, so reading them
//! page by page reads most RBLOCKs several times. The validity scan reads
//! them as RBLOCK runs instead, and the bytes GC reads stay close to the
//! bytes it moves. A GC round that collects victims on several channels
//! relocates them all in one system action, so there are fewer relocation
//! actions than victims. The churned device must also read back intact,
//! before and after `crash()` + `recover()`.

use eleos_repro::eleos::{Eleos, EleosConfig, PageMode, WriteBatch, WriteOpts};
use eleos_repro::flash::{CostProfile, FlashDevice, Geometry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const LEN: (u32, u32) = (640, 2047);
const BATCH_BYTES: u32 = 1 << 20;
/// Bytes GC may read per byte it moves: the moved RBLOCKs rounded out, the
/// victims' metadata WBLOCKs, and RBLOCKs shared with dead neighbours.
/// Reading each live page on its own comes to ≈ 3.9 here, runs to ≈ 1.2.
const MAX_READ_PER_MOVED_BYTE: f64 = 1.5;
/// GC relocation actions per victim collected. One action per victim comes
/// to 1.0; one per round, with the 8 channels' free lists draining
/// together, to ≈ 0.57. A GC pass merges its rounds into one action only
/// while each victim's channel keeps two free EBLOCKs, and here GC starts
/// below two (the watermark), so every round still commits on its own. The
/// merge is pinned by `eleos::gc`'s unit tests instead.
const MAX_ACTIONS_PER_VICTIM: f64 = 0.75;

/// 8 channels × 16 EBLOCKs × 32 WBLOCKs × 32 KB = 128 MB.
fn geometry() -> Geometry {
    Geometry {
        channels: 8,
        eblocks_per_channel: 16,
        wblocks_per_eblock: 32,
        wblock_bytes: 32 * 1024,
        rblock_bytes: 4 * 1024,
    }
}

/// Page payloads are slices of one seeded random buffer; the shadow keeps
/// each LPID's `(offset, len)` in it.
struct Store {
    pool: Vec<u8>,
    shadow: Vec<(u32, u32)>,
    rng: StdRng,
}

impl Store {
    fn page(&self, lpid: u64) -> &[u8] {
        let (off, len) = self.shadow[lpid as usize];
        &self.pool[off as usize..(off + len) as usize]
    }

    /// Write one ~1 MB batch of fresh payloads for the LPIDs `next` draws.
    fn write_batch(&mut self, ssd: &mut Eleos, mut next: impl FnMut(&mut StdRng) -> Option<u64>) {
        let mut batch = WriteBatch::new(PageMode::Variable);
        let mut bytes = 0;
        while bytes < BATCH_BYTES {
            let Some(lpid) = next(&mut self.rng) else {
                break;
            };
            let len = self.rng.gen_range(LEN.0..=LEN.1);
            let off = self.rng.gen_range(0..self.pool.len() as u32 - LEN.1);
            self.shadow[lpid as usize] = (off, len);
            batch.put(lpid, self.page(lpid)).unwrap();
            bytes += len;
        }
        ssd.write(&batch, WriteOpts::default()).unwrap();
    }

    fn verify(&self, ssd: &mut Eleos, when: &str) {
        for lpid in 0..self.shadow.len() as u64 {
            assert_eq!(
                &ssd.read(lpid).unwrap()[..],
                self.page(lpid),
                "lpid {lpid} {when}"
            );
        }
    }
}

#[test]
fn gc_reads_little_more_than_it_moves_and_the_churn_survives_a_crash() {
    let geo = geometry();
    // Half of raw capacity holds live data.
    let lpids = geo.total_bytes() / 2 / 1344;
    let cfg = EleosConfig {
        max_user_lpid: lpids + 1,
        // Checkpoints only where the test takes them.
        ckpt_log_bytes: u64::MAX,
        mapping_cache_pages: 1 << 14,
        ..Default::default()
    };
    let mut ssd = Eleos::format(FlashDevice::new(geo, CostProfile::unit()), cfg.clone()).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let pool: Vec<u8> = (0..1 << 20).map(|_| rng.gen()).collect();
    let mut st = Store {
        pool,
        shadow: vec![(0, 0); lpids as usize],
        rng,
    };

    // The log is truncated only at the checkpoints the test takes, one
    // every 16 batches.
    let mut loaded = 0..lpids;
    while !loaded.is_empty() {
        for _ in 0..16 {
            st.write_batch(&mut ssd, |_| loaded.next());
            if loaded.is_empty() {
                break;
            }
        }
        ssd.checkpoint().unwrap();
    }
    // Two keyspaces of uniform overwrites; the second is measured, once GC
    // has reached its steady state. Returns the GC relocation actions and
    // victims of the churn's writes: between checkpoints, every commit is
    // a user write or a GC relocation action.
    let churn = |ssd: &mut Eleos, st: &mut Store| -> (u64, u64) {
        let (mut actions, mut victims) = (0, 0);
        let mut left = lpids;
        while left > 0 {
            ssd.checkpoint().unwrap();
            let b = ssd.snapshot().eleos;
            for _ in 0..16 {
                st.write_batch(ssd, |rng| {
                    left = left.checked_sub(1)?;
                    Some(rng.gen_range(0..lpids))
                });
                if left == 0 {
                    break;
                }
            }
            let a = ssd.snapshot().eleos;
            actions += (a.commits - b.commits) - (a.batches - b.batches);
            victims += a.gc_collections - b.gc_collections;
        }
        (actions, victims)
    };
    churn(&mut ssd, &mut st);
    let before = ssd.snapshot();
    let (gc_actions, victims) = churn(&mut ssd, &mut st);
    let after = ssd.snapshot();

    let per_victim = gc_actions as f64 / victims as f64;
    assert!(
        per_victim <= MAX_ACTIONS_PER_VICTIM,
        "{gc_actions} GC relocation actions for {victims} victims ({per_victim:.2} per victim)"
    );

    let moved = after.eleos.gc_moved_bytes - before.eleos.gc_moved_bytes;
    let read = after.flash.bytes_read - before.flash.bytes_read;
    assert!(moved > 0, "the churn must relocate live pages");
    let ratio = read as f64 / moved as f64;
    assert!(
        ratio <= MAX_READ_PER_MOVED_BYTE,
        "GC read {read} B to move {moved} B ({ratio:.2} per moved byte)"
    );

    st.verify(&mut ssd, "after the churn");
    // Recovery redoes the log since the last checkpoint: the last batches
    // and their GC relocations.
    let mut ssd = Eleos::recover(ssd.crash(), cfg).unwrap();
    st.verify(&mut ssd, "after crash and recovery");
}
