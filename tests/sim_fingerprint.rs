//! Simulation fingerprint: every counter of the controller's telemetry
//! snapshot and the final simulated clock, for two small scripted runs,
//! against the committed `tests/data/sim_fingerprint.txt`.
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
//! * `paged_lru` / `paged_clock` — skewed reads and overwrite batches
//!   behind a mapping cache a quarter the size of the map, with deferred
//!   I/O on, under each replacement policy.

use std::fmt::Write as _;

use eleos_repro::eleos::{
    Eleos, EleosConfig, MapCachePolicy, PageMode, TelemetrySnapshot, WriteBatch, WriteOpts,
};
use eleos_repro::flash::{Activity, CostProfile, FlashDevice, FlashOp, Geometry, SpanKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const FINGERPRINT: &str = "tests/data/sim_fingerprint.txt";

/// Payloads are slices of one seeded random buffer; the shadow keeps each
/// LPID's `(offset, len)` in it.
struct Store {
    pool: Vec<u8>,
    shadow: Vec<(u32, u32)>,
    len: (u32, u32),
}

impl Store {
    fn new(seed: u64, lpids: u64, len: (u32, u32)) -> Store {
        let mut rng = StdRng::seed_from_u64(seed);
        Store {
            pool: (0..1 << 20).map(|_| rng.gen()).collect(),
            shadow: vec![(0, 0); lpids as usize],
            len,
        }
    }

    fn page(&self, lpid: u64) -> &[u8] {
        let (off, len) = self.shadow[lpid as usize];
        &self.pool[off as usize..(off + len) as usize]
    }

    /// Write one batch of fresh payloads for `lpids`.
    fn write(&mut self, ssd: &mut Eleos, rng: &mut StdRng, lpids: impl Iterator<Item = u64>) {
        let mut batch = WriteBatch::new(PageMode::Variable);
        for lpid in lpids {
            let len = rng.gen_range(self.len.0..=self.len.1);
            let off = rng.gen_range(0..self.pool.len() as u32 - self.len.1);
            self.shadow[lpid as usize] = (off, len);
            batch.put(lpid, self.page(lpid)).unwrap();
        }
        ssd.write(&batch, WriteOpts::default()).unwrap();
    }

    /// Read every LPID back and check it against the shadow.
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

/// One `script key value` line per snapshot counter.
fn fingerprint(out: &mut String, script: &str, s: &TelemetrySnapshot) {
    let mut put = |key: &str, v: u64| writeln!(out, "{script} {key} {v}").unwrap();
    put("now_ns", s.now);
    put("cpu_busy_ns", s.cpu_busy_ns);
    let e = &s.eleos;
    for (key, v) in [
        ("eleos.batches", e.batches),
        ("eleos.lpages", e.lpages),
        ("eleos.payload_bytes", e.payload_bytes),
        ("eleos.stored_bytes", e.stored_bytes),
        ("eleos.reads", e.reads),
        ("eleos.read_bytes", e.read_bytes),
        ("eleos.commits", e.commits),
        ("eleos.aborts", e.aborts),
        ("eleos.gc_collections", e.gc_collections),
        ("eleos.gc_moved_pages", e.gc_moved_pages),
        ("eleos.gc_moved_bytes", e.gc_moved_bytes),
        ("eleos.gc_erases", e.gc_erases),
        ("eleos.migrations", e.migrations),
        ("eleos.checkpoints", e.checkpoints),
        ("eleos.gc_installs_aborted", e.gc_installs_aborted),
        ("eleos.program_failures", e.program_failures),
        ("eleos.action_retries", e.action_retries),
        ("eleos.gc_relocation_aborts", e.gc_relocation_aborts),
        ("eleos.wal_fallbacks", e.wal_fallbacks),
        ("eleos.retired_eblocks", e.retired_eblocks),
    ] {
        put(key, v);
    }
    let f = &s.flash;
    for (key, v) in [
        ("flash.programs", f.programs),
        ("flash.program_failures", f.program_failures),
        ("flash.bytes_programmed", f.bytes_programmed),
        ("flash.rblock_reads", f.rblock_reads),
        ("flash.bytes_read", f.bytes_read),
        ("flash.erases", f.erases),
    ] {
        put(key, v);
    }
    for (ch, &ns) in f.channel_busy_ns.iter().enumerate() {
        put(&format!("flash.channel_busy_ns.{ch}"), ns);
    }
    put("mapping.cached_pages", s.mapping_cached_pages as u64);
    let m = &s.map_cache;
    for (key, v) in [
        ("mapping.hits", m.hits),
        ("mapping.misses", m.misses),
        ("mapping.flash_loads", m.flash_loads),
        ("mapping.evictions", m.evictions),
    ] {
        put(key, v);
    }
    for a in Activity::ALL {
        put(&format!("ledger.cpu.{}", a.label()), s.ledger.cpu_ns(a));
        for op in FlashOp::ALL {
            let ns = s.ledger.op_activity_ns(op, a);
            put(&format!("ledger.flash.{}.{}", a.label(), op.label()), ns);
        }
    }
    for k in SpanKind::ALL {
        let h = s.span(k);
        for (stat, v) in [
            ("count", h.count()),
            ("sum", h.sum()),
            ("p50", h.p50()),
            ("p99", h.p99()),
            ("max", h.max()),
        ] {
            put(&format!("span.{}.{stat}", k.label()), v);
        }
    }
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
fn paged(out: &mut String, script: &str, policy: MapCachePolicy) {
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
        mapping_cache_policy: policy,
        defer_io: true,
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
    fingerprint(out, script, &ssd.snapshot());
}

#[test]
fn simulation_matches_the_committed_fingerprint() {
    let mut got = String::new();
    gc_churn(&mut got);
    paged(&mut got, "paged_lru", MapCachePolicy::Lru);
    paged(&mut got, "paged_clock", MapCachePolicy::Clock);

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
