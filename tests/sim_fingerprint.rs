//! Simulation fingerprint: every metric the controller's telemetry
//! snapshot visits, the final simulated clock among them, for small
//! scripted runs, against the committed `tests/data/sim_fingerprint.txt`.
//!
//! The simulation is a pure function of its inputs, so a change to how the
//! controller runs on the host (hashing, buffer reuse, encoding in place)
//! must leave this file byte-identical. A change that is meant to move the
//! simulation rewrites it: on a mismatch the test writes what it measured
//! next to the build's other test outputs and prints that path; copying
//! the file over the committed one blesses it, and its diff is the list of
//! rows the change moved.
//!
//! * `gc_churn` — uniform overwrites of variable-size pages at ~60 % of
//!   raw capacity, with automatic checkpoints, then a crash and recovery;
//!   the mapping cache holds the whole map.
//! * `paged_lru` — skewed reads and overwrite batches behind an LRU
//!   mapping cache a quarter the size of the map, with deferred I/O on.
//! * `sharded` — a 2-shard array behind a 4-client group-commit
//!   front-end: cross-shard (two-phase) and single-shard groups carrying
//!   session advances, cross- and single-shard deletes, and direct
//!   ordered writes on one shard; each shard is fingerprinted before and
//!   after a crash and recovery.

use std::fmt::Write as _;

use eleos_repro::eleos::{
    Controller, Eleos, EleosConfig, EleosError, Frontend, GroupCommitPolicy, PageMode,
    ShardedEleos, Sid, TelemetrySnapshot, WriteBatch, WriteOpts,
};
use eleos_repro::flash::{CostProfile, FlashDevice, Geometry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const FINGERPRINT: &str = "tests/data/sim_fingerprint.txt";

/// Payloads are slices of one seeded random buffer; the shadow keeps each
/// LPID's `(offset, len)` in it, or `None` once the LPID is deleted.
struct Store {
    pool: Vec<u8>,
    shadow: Vec<Option<(u32, u32)>>,
    len: (u32, u32),
}

impl Store {
    fn new(seed: u64, lpids: u64, len: (u32, u32)) -> Store {
        let mut rng = StdRng::seed_from_u64(seed);
        Store {
            pool: (0..1 << 20).map(|_| rng.gen()).collect(),
            shadow: vec![Some((0, 0)); lpids as usize],
            len,
        }
    }

    fn page(&self, lpid: u64) -> &[u8] {
        let (off, len) = self.shadow[lpid as usize].expect("lpid is not deleted");
        &self.pool[off as usize..(off + len) as usize]
    }

    /// One batch of fresh payloads for `lpids`.
    fn batch(&mut self, rng: &mut StdRng, lpids: impl Iterator<Item = u64>) -> WriteBatch {
        let mut batch = WriteBatch::new(PageMode::Variable);
        for lpid in lpids {
            let len = rng.gen_range(self.len.0..=self.len.1);
            let off = rng.gen_range(0..self.pool.len() as u32 - self.len.1);
            self.shadow[lpid as usize] = Some((off, len));
            batch.put(lpid, self.page(lpid)).unwrap();
        }
        batch
    }

    /// Write one batch of fresh payloads for `lpids`.
    fn write(&mut self, ssd: &mut Eleos, rng: &mut StdRng, lpids: impl Iterator<Item = u64>) {
        let batch = self.batch(rng, lpids);
        ssd.write(&batch, WriteOpts::default()).unwrap();
    }

    /// Delete `lpids` from the shadow and from `ssd`.
    fn delete<C: Controller>(&mut self, ssd: &mut C, lpids: &[u64]) {
        for &lpid in lpids {
            self.shadow[lpid as usize] = None;
        }
        ssd.delete(lpids).unwrap();
    }

    /// Read every LPID back and check it against the shadow.
    fn verify<C: Controller>(&self, ssd: &mut C, when: &str) {
        for lpid in 0..self.shadow.len() as u64 {
            match self.shadow[lpid as usize] {
                Some(_) => assert_eq!(
                    &ssd.read(lpid).unwrap()[..],
                    self.page(lpid),
                    "lpid {lpid} {when}"
                ),
                None => assert!(
                    matches!(ssd.read(lpid), Err(EleosError::NotFound(l)) if l == lpid),
                    "deleted lpid {lpid} {when}"
                ),
            }
        }
    }
}

/// One `script key value` line per snapshot metric.
fn fingerprint(out: &mut String, script: &str, s: &TelemetrySnapshot) {
    s.visit(|key, v| writeln!(out, "{script} {key} {v}").unwrap());
}

/// 4 channels × 32 EBLOCKs × 32 WBLOCKs × 32 KB = 128 MB, filled to ~60 %
/// and overwritten twice over, then crashed and recovered.
fn gc_churn(out: &mut String) {
    let geo = Geometry {
        channels: 4,
        eblocks_per_channel: 32,
        wblocks_per_eblock: 32,
        wblock_bytes: 32 * 1024,
        rblock_bytes: 4 * 1024,
    };
    let lpids = geo.total_bytes() * 6 / 10 / 1400;
    let cfg = EleosConfig {
        max_user_lpid: lpids + 1,
        ckpt_log_bytes: 4 << 20,
        mapping_cache_pages: 1 << 14,
        ..Default::default()
    };
    let mut ssd = Eleos::format(
        FlashDevice::new(geo, CostProfile::high_end_cpu()),
        cfg.clone(),
    )
    .unwrap();
    let mut st = Store::new(1, lpids, (640, 2047));
    let mut rng = StdRng::seed_from_u64(2);
    let per_batch = 700;
    let mut next = 0;
    while next < lpids {
        let end = (next + per_batch).min(lpids);
        st.write(&mut ssd, &mut rng, next..end);
        next = end;
    }
    for _ in 0..2 * lpids / per_batch {
        let keys: Vec<u64> = (0..per_batch).map(|_| rng.gen_range(0..lpids)).collect();
        st.write(&mut ssd, &mut rng, keys.into_iter());
    }
    ssd.drain();
    st.verify(&mut ssd, "after the churn");
    fingerprint(out, "gc_churn", &ssd.snapshot());
    let mut ssd = Eleos::recover(ssd.crash(), cfg).unwrap();
    st.verify(&mut ssd, "after crash and recovery");
    fingerprint(out, "gc_churn.recovered", &ssd.snapshot());
}

/// 4 channels × 32 EBLOCKs × 16 WBLOCKs × 32 KB = 64 MB holding 16 K
/// LPIDs, whose 64 translation pages share a 16-page cache. Requests of
/// 16 reads, skewed to the first eighth of the LPIDs (which fits in the
/// cache), and every eighth request an overwrite batch of 64 pages.
fn paged(out: &mut String) {
    let geo = Geometry {
        channels: 4,
        eblocks_per_channel: 32,
        wblocks_per_eblock: 16,
        wblock_bytes: 32 * 1024,
        rblock_bytes: 4 * 1024,
    };
    let lpids: u64 = 16 * 1024;
    let cfg = EleosConfig {
        max_user_lpid: lpids + 1,
        ckpt_log_bytes: 4 << 20,
        mapping_cache_pages: (lpids / 256 / 4) as usize,
        ..Default::default()
    };
    let mut ssd = Eleos::format(FlashDevice::new(geo, CostProfile::high_end_cpu()), cfg).unwrap();
    let mut st = Store::new(3, lpids, (64, 2047));
    let mut rng = StdRng::seed_from_u64(4);
    for start in (0..lpids).step_by(1024) {
        st.write(&mut ssd, &mut rng, start..start + 1024);
    }
    ssd.checkpoint().unwrap();
    let skewed = |rng: &mut StdRng| {
        if rng.gen_range(0..4u32) < 3 {
            rng.gen_range(0..lpids / 8)
        } else {
            rng.gen_range(0..lpids)
        }
    };
    for request in 0..1200 {
        for _ in 0..16 {
            let lpid = skewed(&mut rng);
            assert_eq!(&ssd.read(lpid).unwrap()[..], st.page(lpid), "lpid {lpid}");
        }
        if request % 8 == 7 {
            let keys: Vec<u64> = (0..64).map(|_| skewed(&mut rng)).collect();
            st.write(&mut ssd, &mut rng, keys.into_iter());
        }
    }
    ssd.drain();
    st.verify(&mut ssd, "after the script");
    fingerprint(out, "paged_lru", &ssd.snapshot());
}

/// Two shards, each a `Geometry::tiny()` device (4 channels × 16 EBLOCKs
/// × 16 WBLOCKs × 16 KB = 16 MB), holding 8 K LPIDs behind an 8-page
/// mapping cache per shard. After a fill, 120 rounds each submit 16
/// sessioned client batches of random LPIDs (cross-shard groups, two-phase
/// commit) and two sessioned batches owned by one shard, alternating
/// (single-shard groups, the direct path); every fourth round deletes
/// across both shards and on one shard, alternating, and every tenth
/// writes an ordered / ordered-pipelined pair straight to shard 1. The
/// array is then crashed and recovered.
fn sharded(out: &mut String) {
    const CLIENTS: usize = 4;
    let lpids: u64 = 8 * 1024;
    let cfg = EleosConfig {
        max_user_lpid: lpids + 1,
        ckpt_log_bytes: 512 << 10,
        mapping_cache_pages: 8,
        ..Default::default()
    };
    let devs = || {
        (0..2)
            .map(|_| FlashDevice::new(Geometry::tiny(), CostProfile::high_end_cpu()))
            .collect()
    };
    let mut sh = ShardedEleos::format(devs(), &cfg).unwrap();
    let owned: Vec<Vec<u64>> = (0..2)
        .map(|s| (0..lpids).filter(|&l| sh.shard_of(l) == s).collect())
        .collect();
    let mut st = Store::new(5, lpids, (64, 2047));
    let mut rng = StdRng::seed_from_u64(6);
    for start in (0..lpids).step_by(512) {
        sh.write_group(&st.batch(&mut rng, start..start + 512)).unwrap();
    }
    let mut fe = Frontend::new(
        CLIENTS,
        GroupCommitPolicy {
            flush_bytes: 16 * 1024,
            flush_interval_ns: 50_000,
            max_queued_batches: 8,
        },
    );
    let sids: Vec<Sid> = (0..CLIENTS).map(|_| sh.open_session().unwrap()).collect();
    let mut wsns = [0; CLIENTS];
    let direct = sh.open_session().unwrap();
    let mut direct_wsn = 0;
    let mut at = sh.host_now();
    for round in 0..120 {
        let s = round % 2;
        // `(client, keys)`: 16 batches across both shards, then 2 owned by
        // shard `s`; the front-end flushes after each kind.
        let mut batches: Vec<(usize, Vec<u64>)> = (0..16)
            .map(|k| {
                let n = rng.gen_range(4..=24);
                (k % CLIENTS, (0..n).map(|_| rng.gen_range(0..lpids)).collect())
            })
            .collect();
        batches.extend((0..2).map(|c| {
            let keys = (0..8).map(|_| owned[s][rng.gen_range(0..owned[s].len())]);
            (c, keys.collect())
        }));
        for (i, (c, keys)) in batches.into_iter().enumerate() {
            let batch = st.batch(&mut rng, keys.into_iter());
            wsns[c] += 1;
            at += rng.gen_range(0..20_000);
            fe.submit_sessioned(&mut sh, c, at, batch, sids[c], wsns[c]).unwrap();
            if i == 15 || i == 17 {
                fe.flush(&mut sh).unwrap();
            }
        }
        if round % 4 == 3 {
            let mut across: Vec<u64> = (0..6)
                .map(|i| owned[i % 2][rng.gen_range(0..owned[i % 2].len())])
                .collect();
            across.sort_unstable();
            across.dedup();
            st.delete(&mut sh, &across);
            let d = round / 4 % 2;
            let mut one: Vec<u64> = (0..3)
                .map(|_| owned[d][rng.gen_range(0..owned[d].len())])
                .collect();
            one.sort_unstable();
            one.dedup();
            st.delete(&mut sh, &one);
        }
        if round % 10 == 9 {
            for pipelined in [false, true] {
                let keys: Vec<u64> = (0..6)
                    .map(|_| owned[1][rng.gen_range(0..owned[1].len())])
                    .collect();
                let batch = st.batch(&mut rng, keys.into_iter());
                direct_wsn += 1;
                let opts = if pipelined {
                    WriteOpts::ordered_pipelined(direct, direct_wsn)
                } else {
                    WriteOpts::ordered(direct, direct_wsn)
                };
                sh.shard_mut(1).write(&batch, opts).unwrap();
            }
        }
        at = at.max(sh.host_now());
    }
    sh.drain();
    st.verify(&mut sh, "after the script");
    for s in 0..2 {
        fingerprint(out, &format!("sharded.{s}"), &sh.shard(s).snapshot());
    }
    let mut sh = ShardedEleos::recover(sh.crash(), &cfg).unwrap();
    st.verify(&mut sh, "after crash and recovery");
    for s in 0..2 {
        fingerprint(out, &format!("sharded.{s}.recovered"), &sh.shard(s).snapshot());
    }
}

#[test]
fn simulation_matches_the_committed_fingerprint() {
    let mut got = String::new();
    gc_churn(&mut got);
    paged(&mut got);
    sharded(&mut got);

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(FINGERPRINT);
    let want = std::fs::read_to_string(&path).unwrap_or_default();
    if got == want {
        return;
    }
    let actual = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("sim_fingerprint.txt");
    std::fs::write(&actual, &got).unwrap();
    let want_lines: Vec<&str> = want.lines().collect();
    let moved: Vec<String> = got
        .lines()
        .enumerate()
        .filter(|&(i, line)| want_lines.get(i) != Some(&line))
        .take(20)
        .map(|(i, line)| format!("  want {:?}\n  got  {line:?}", want_lines.get(i)))
        .collect();
    panic!(
        "the simulation moved ({} lines measured, {} committed); first differences:\n{}\n\
         measured fingerprint written to {}; copy it over {FINGERPRINT} to bless a change \
         that is meant to move the simulation",
        got.lines().count(),
        want_lines.len(),
        moved.join("\n"),
        actual.display()
    );
}
