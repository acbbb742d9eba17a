//! Host wall-clock perf baseline for the controller data plane.
//!
//! Unlike the figure binaries (which report *virtual-time* throughput),
//! `perfbench` measures how fast the emulator+FTL run on the host: it
//! drives the TPC-C 1 MB-buffer batched write path, a Zipfian YCSB-style
//! read path, a GC-heavy uniform-overwrite path at ~70 % utilization, and a
//! `read_batch` path (the deferred-completion scheduler's two target
//! scenarios — those also print their simulated-time speedup vs the serial
//! schedule) for a fixed operation count and appends one entry per bench to
//! `BENCH_controller.json` — the perf trajectory all later optimisation PRs
//! are measured against.
//!
//! Usage:
//!   perfbench [--label NAME] [--scale full|small] [--out FILE]
//!             [--compare FILE] [--max-regression X.Y]
//!             [--shards N]
//!   perfbench --telemetry-out FILE
//!
//! Every bench runs on one host thread; entries record `host_threads: 1`.
//!
//! `--shards N` (default 8; must divide the 8-channel array) sizes the
//! sharded router the `shard_scale_64c` entry runs against, recorded per
//! entry under the `shards` key (1 for the unsharded benches).
//!
//! The `net_scale_loopback` entry drives the wire-protocol server
//! (DESIGN.md §16) over loopback TCP with 4 concurrent client threads,
//! recorded under the `net_clients` key (0 for the in-process benches).
//!
//! `--telemetry-out` skips the benches, runs a small mixed scenario, checks
//! the telemetry conservation invariant (attribution buckets must sum to
//! the simulated busy time) and writes the snapshot JSON to FILE — the
//! `scripts/ci.sh` telemetry gate.
//!
//! `--compare` reads a committed BENCH_controller.json and fails (exit 1)
//! if any bench's simulated-ops-per-host-second dropped by more than
//! `--max-regression` (default 2.0×) against the most recent committed
//! entry of the same bench name — that is the `scripts/perf_smoke.sh` gate.

use eleos::{Eleos, EleosConfig, GcPolicy, PageMode, WriteBatch, WriteOpts};
use eleos_bench::perfjson::{parse_entries, render_entry, BenchEntry};
use eleos_bench::tpcc_driver::{run_tpcc, Interface};
use eleos_flash::{CostProfile, FlashDevice, Geometry, SpanKind};
use eleos_workloads::{TpccTraceConfig, Zipfian};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

fn bench_geo() -> Geometry {
    Geometry {
        channels: 8,
        eblocks_per_channel: 64,
        wblocks_per_eblock: 32,
        wblock_bytes: 32 * 1024,
        rblock_bytes: 4 * 1024,
    } // 512 MB
}

/// TPC-C batched-write path: replay the fitted compressed-page trace
/// through ELEOS variable-size pages with a 1 MB write buffer.
fn bench_tpcc_write(scale: &str, label: &str) -> BenchEntry {
    // The smoke scale must still amortize per-run setup (trace generation,
    // device init) or the gate compares startup cost against steady state.
    let (volume, repeat): (u64, u32) = if scale == "small" {
        (48 * 1024 * 1024, 1)
    } else {
        (96 * 1024 * 1024, 8)
    };
    let mut ops = 0u64;
    let mut host = 0.0f64;
    let mut programmed = 0u64;
    let mut cpu_busy = 0u64;
    let mut flash_busy = 0u64;
    let mut write_p99 = 0u64;
    // Each repetition replays against a fresh device so the measurement
    // window is long enough to be stable without ever needing GC.
    for _ in 0..repeat {
        let trace_cfg = TpccTraceConfig {
            pages: 40_000,
            ..Default::default()
        };
        let t = Instant::now();
        let r = run_tpcc(
            Interface::BatchVp,
            CostProfile::high_end_cpu(),
            bench_geo(),
            1024 * 1024,
            volume,
            trace_cfg,
        );
        host += t.elapsed().as_secs_f64();
        ops += r.pages;
        programmed += r.flash_bytes_programmed;
        cpu_busy += r.cpu_busy_ns;
        flash_busy += r.flash_busy_ns;
        write_p99 = write_p99.max(r.write_p99_ns);
    }
    BenchEntry {
        label: label.to_string(),
        bench: "tpcc_write_vp_1mb".to_string(),
        scale: scale.to_string(),
        ops,
        host_seconds: host,
        sim_ops_per_host_sec: ops as f64 / host,
        bytes_programmed: programmed,
        bytes_read: 0,
        cpu_busy_ns: cpu_busy,
        flash_busy_ns: flash_busy,
        write_p99_ns: write_p99,
        host_threads: 1,
        mapping_cache_pages: 1 << 16,
        gc_policy: GcPolicy::MinCostDecline.label().to_string(),
        shards: 1,
        net_clients: 0,
    }
}

/// YCSB-style read path: load variable-size pages, then issue Zipfian
/// point reads straight against `Eleos::read`.
fn bench_ycsb_read(scale: &str, label: &str) -> BenchEntry {
    let (records, ops): (u64, u64) = if scale == "small" {
        (20_000, 60_000)
    } else {
        (50_000, 4_000_000)
    };
    let dev = FlashDevice::new(bench_geo(), CostProfile::high_end_cpu());
    let cfg = EleosConfig {
        max_user_lpid: records + 1,
        ckpt_log_bytes: u64::MAX,
        mapping_cache_pages: 1 << 14,
        ..Default::default()
    };
    let mut ssd = Eleos::format(dev, cfg).expect("format");
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let mut batch = WriteBatch::new(PageMode::Variable);
    for lpid in 0..records {
        let len = rng.gen_range(64..2048usize);
        let mut page = vec![0u8; len];
        page[..8].copy_from_slice(&lpid.to_le_bytes());
        batch.put(lpid, &page).expect("load put");
        if batch.wire_len() >= 1024 * 1024 {
            ssd.write(&batch, WriteOpts::default()).expect("load write");
            batch = WriteBatch::new(PageMode::Variable);
        }
    }
    if !batch.is_empty() {
        ssd.write(&batch, WriteOpts::default()).expect("load write");
    }
    ssd.drain();

    let zipf = Zipfian::new(records, 0.99);
    let bytes_read0 = ssd.device().stats().bytes_read;
    let snap0 = ssd.snapshot();
    let t = Instant::now();
    let mut sink = 0u64;
    for _ in 0..ops {
        let lpid = zipf.next_scrambled(&mut rng) % records;
        let page = ssd.read(lpid).expect("read");
        sink = sink.wrapping_add(page.len() as u64).wrapping_add(page[0] as u64);
    }
    let host = t.elapsed().as_secs_f64();
    std::hint::black_box(sink);
    let snap = ssd.snapshot();
    BenchEntry {
        label: label.to_string(),
        bench: "ycsb_read_zipfian".to_string(),
        scale: scale.to_string(),
        ops,
        host_seconds: host,
        sim_ops_per_host_sec: ops as f64 / host,
        bytes_programmed: ssd.device().stats().bytes_programmed,
        bytes_read: ssd.device().stats().bytes_read - bytes_read0,
        cpu_busy_ns: snap.cpu_busy_ns - snap0.cpu_busy_ns,
        flash_busy_ns: snap.flash.total_busy_ns() - snap0.flash.total_busy_ns(),
        write_p99_ns: 0, // read bench: the measured window records no write spans
        host_threads: 1,
        mapping_cache_pages: 1 << 14,
        gc_policy: GcPolicy::MinCostDecline.label().to_string(),
        shards: 1,
        net_clients: 0,
    }
}

/// Uniform-random variable-size page, first 8 bytes = lpid.
fn uniform_page(lpid: u64, rng: &mut StdRng) -> Vec<u8> {
    let len = rng.gen_range(640..2048usize);
    let mut page = vec![0u8; len];
    page[..8].copy_from_slice(&lpid.to_le_bytes());
    page
}

/// Fill to ~`records` live pages in 1 MB batches.
fn load_uniform(ssd: &mut Eleos, records: u64, rng: &mut StdRng) {
    let mut batch = WriteBatch::new(PageMode::Variable);
    for lpid in 0..records {
        batch.put(lpid, &uniform_page(lpid, rng)).expect("load put");
        if batch.wire_len() >= 1024 * 1024 {
            ssd.write(&batch, WriteOpts::default()).expect("load write");
            batch = WriteBatch::new(PageMode::Variable);
        }
    }
    if !batch.is_empty() {
        ssd.write(&batch, WriteOpts::default()).expect("load write");
    }
    ssd.drain();
}

/// GC-heavy path: ~70 % utilization, then uniform overwrites — the
/// deferred-completion scheduler's round-robin collector keeps every
/// channel's GC in flight at once. Runs both schedules; the appended
/// entry is the deferred (default) one, the serial run feeds the printed
/// simulated-time speedup.
fn bench_gc_heavy(scale: &str, label: &str) -> BenchEntry {
    let geo = bench_geo();
    let records = (geo.total_bytes() as f64 * 0.70 / 1400.0) as u64;
    let overwrites = if scale == "small" { records / 2 } else { records * 2 };
    let run = |defer_io: bool| {
        let dev = FlashDevice::new(geo, CostProfile::high_end_cpu());
        let cfg = EleosConfig {
            max_user_lpid: records + 1,
            ckpt_log_bytes: 16 * 1024 * 1024,
            mapping_cache_pages: 1 << 14,
            defer_io,
            ..Default::default()
        };
        let mut ssd = Eleos::format(dev, cfg).expect("format");
        let mut rng = StdRng::seed_from_u64(0x60C0);
        load_uniform(&mut ssd, records, &mut rng);
        let sim0 = ssd.now();
        let programmed0 = ssd.device().stats().bytes_programmed;
        let t = Instant::now();
        let mut batch = WriteBatch::new(PageMode::Variable);
        for _ in 0..overwrites {
            let lpid = rng.gen_range(0..records);
            batch.put(lpid, &uniform_page(lpid, &mut rng)).expect("put");
            if batch.wire_len() >= 1024 * 1024 {
                ssd.write(&batch, WriteOpts::default()).expect("overwrite");
                batch = WriteBatch::new(PageMode::Variable);
            }
        }
        if !batch.is_empty() {
            ssd.write(&batch, WriteOpts::default()).expect("overwrite");
        }
        ssd.drain();
        let host = t.elapsed().as_secs_f64();
        let snap = ssd.snapshot();
        (host, ssd.now() - sim0, ssd.device().stats().bytes_programmed - programmed0, snap)
    };
    let (_, sim_serial, _, _) = run(false);
    let (host, sim_deferred, programmed, snap) = run(true);
    eprintln!(
        "  gc_heavy_uniform: simulated-time speedup {:.2}x (deferred vs serial schedule)",
        sim_serial as f64 / sim_deferred as f64
    );
    BenchEntry {
        label: label.to_string(),
        bench: "gc_heavy_uniform".to_string(),
        scale: scale.to_string(),
        ops: overwrites,
        host_seconds: host,
        sim_ops_per_host_sec: overwrites as f64 / host,
        bytes_programmed: programmed,
        bytes_read: 0,
        // Whole-run busy time and write span (load + overwrite phases):
        // the span histogram is cumulative, so the p99 covers both.
        cpu_busy_ns: snap.cpu_busy_ns,
        flash_busy_ns: snap.flash.total_busy_ns(),
        write_p99_ns: snap.span(SpanKind::WriteBatch).p99(),
        host_threads: 1,
        mapping_cache_pages: 1 << 14,
        gc_policy: GcPolicy::MinCostDecline.label().to_string(),
        shards: 1,
        net_clients: 0,
    }
}

/// Batched read path: uniform point reads in groups of 16 through
/// `Eleos::read_batch`, on the weak-controller profile whose 60 µs flash
/// reads are what deferred completion hides.
fn bench_read_batch(scale: &str, label: &str) -> BenchEntry {
    let (records, ops): (u64, u64) = if scale == "small" {
        (20_000, 60_000)
    } else {
        (50_000, 4_000_000)
    };
    let run = |defer_io: bool| {
        let dev = FlashDevice::new(bench_geo(), CostProfile::weak_controller());
        let cfg = EleosConfig {
            max_user_lpid: records + 1,
            ckpt_log_bytes: u64::MAX,
            mapping_cache_pages: 1 << 14,
            defer_io,
            ..Default::default()
        };
        let mut ssd = Eleos::format(dev, cfg).expect("format");
        let mut rng = StdRng::seed_from_u64(0x5EED);
        load_uniform(&mut ssd, records, &mut rng);
        let sim0 = ssd.now();
        let read0 = ssd.device().stats().bytes_read;
        let t = Instant::now();
        let mut done = 0u64;
        let mut lpids = Vec::with_capacity(16);
        let mut sink = 0u64;
        while done < ops {
            lpids.clear();
            for _ in 0..16usize.min((ops - done) as usize) {
                lpids.push(rng.gen_range(0..records));
            }
            done += lpids.len() as u64;
            for page in ssd.read_batch(&lpids).expect("read_batch") {
                sink = sink.wrapping_add(page.len() as u64).wrapping_add(page[0] as u64);
            }
        }
        std::hint::black_box(sink);
        let host = t.elapsed().as_secs_f64();
        let snap = ssd.snapshot();
        (host, ssd.now() - sim0, ssd.device().stats().bytes_read - read0, snap)
    };
    let (_, sim_serial, _, _) = run(false);
    let (host, sim_deferred, bytes_read, snap) = run(true);
    eprintln!(
        "  ycsb_read_batch: simulated-time speedup {:.2}x (deferred vs serial schedule)",
        sim_serial as f64 / sim_deferred as f64
    );
    BenchEntry {
        label: label.to_string(),
        bench: "ycsb_read_batch".to_string(),
        scale: scale.to_string(),
        ops,
        host_seconds: host,
        sim_ops_per_host_sec: ops as f64 / host,
        bytes_programmed: 0,
        bytes_read,
        cpu_busy_ns: snap.cpu_busy_ns,
        flash_busy_ns: snap.flash.total_busy_ns(),
        write_p99_ns: 0, // read bench: the timed window issues no writes
        host_threads: 1,
        mapping_cache_pages: 1 << 14,
        gc_policy: GcPolicy::MinCostDecline.label().to_string(),
        shards: 1,
        net_clients: 0,
    }
}

/// Small mixed scenario for the `--telemetry-out` gate: sequential load,
/// one round of uniform overwrites, point reads, and a checkpoint on a
/// 64 MB device — exercises the user_write/user_read/wal/ckpt buckets in
/// well under a second.
fn telemetry_scenario() -> eleos::TelemetrySnapshot {
    let geo = Geometry {
        channels: 4,
        eblocks_per_channel: 16,
        wblocks_per_eblock: 32,
        wblock_bytes: 32 * 1024,
        rblock_bytes: 4 * 1024,
    };
    let records = 8_000u64;
    let cfg = EleosConfig {
        max_user_lpid: records + 1,
        ckpt_log_bytes: 4 * 1024 * 1024,
        mapping_cache_pages: 1 << 12,
        ..Default::default()
    };
    let mut ssd =
        Eleos::format(FlashDevice::new(geo, CostProfile::high_end_cpu()), cfg).expect("format");
    let mut rng = StdRng::seed_from_u64(0x7E1E);
    load_uniform(&mut ssd, records, &mut rng);
    let mut batch = WriteBatch::new(PageMode::Variable);
    for _ in 0..records {
        let lpid = rng.gen_range(0..records);
        batch.put(lpid, &uniform_page(lpid, &mut rng)).expect("put");
        if batch.wire_len() >= 256 * 1024 {
            ssd.write(&batch, WriteOpts::default()).expect("overwrite");
            batch = WriteBatch::new(PageMode::Variable);
        }
    }
    if !batch.is_empty() {
        ssd.write(&batch, WriteOpts::default()).expect("overwrite");
    }
    let mut sink = 0u64;
    for _ in 0..2_000 {
        let lpid = rng.gen_range(0..records);
        let page = ssd.read(lpid).expect("read");
        sink = sink.wrapping_add(page[0] as u64);
    }
    std::hint::black_box(sink);
    // Aborted/full checkpoints are fine here — the gate checks conservation
    // of whatever work actually happened, not checkpoint success.
    let _ = ssd.checkpoint();
    ssd.drain();
    ssd.snapshot()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let get_flag = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };

    // `--telemetry-out FILE`: run the small mixed scenario, enforce the
    // attribution conservation invariant in-process, and write the
    // TelemetrySnapshot JSON — the scripts/ci.sh telemetry gate.
    if let Some(path) = get_flag("--telemetry-out") {
        let snap = telemetry_scenario();
        if let Some(err) = snap.conservation_error() {
            eprintln!("perfbench: telemetry conservation FAILED: {err}");
            std::process::exit(1);
        }
        std::fs::write(&path, snap.to_json()).expect("write telemetry json");
        eprintln!(
            "perfbench: telemetry snapshot ok (total busy {} ns, write p99 {} ns) -> {path}",
            snap.total_busy_ns(),
            snap.span(SpanKind::WriteBatch).p99()
        );
        return;
    }

    let label = get_flag("--label").unwrap_or_else(|| "dev".to_string());
    let scale = get_flag("--scale").unwrap_or_else(|| "full".to_string());
    let out_path = get_flag("--out").unwrap_or_else(|| "BENCH_controller.json".to_string());
    let compare = get_flag("--compare");
    let max_regression: f64 = get_flag("--max-regression")
        .and_then(|v| v.parse().ok())
        .unwrap_or(2.0);
    // `--shards N` sizes the shard_scale entry's router (8 must divide
    // evenly); the other benches always run the unsharded path.
    let shards = get_flag("--shards")
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1 && 8 % n == 0)
        .unwrap_or(8);

    eprintln!("perfbench: label={label} scale={scale} shards={shards}");
    let entries = vec![
        bench_tpcc_write(&scale, &label),
        bench_ycsb_read(&scale, &label),
        bench_gc_heavy(&scale, &label),
        bench_read_batch(&scale, &label),
        eleos_bench::frontend_scale::bench_frontend_scale(&scale, &label),
        eleos_bench::shard_scale::bench_shard_scale(&scale, &label, shards),
        eleos_bench::net_scale::bench_net_scale(&scale, &label),
    ];
    for e in &entries {
        eprintln!(
            "  {:<22} {:>9} ops in {:>8.3}s host = {:>12.1} sim-ops/host-sec \
             ({} B programmed, {} B read)",
            e.bench, e.ops, e.host_seconds, e.sim_ops_per_host_sec, e.bytes_programmed, e.bytes_read
        );
    }

    // Append to the trajectory file (create with a JSON array wrapper).
    let mut all = std::fs::read_to_string(&out_path)
        .map(|t| parse_entries(&t))
        .unwrap_or_default();
    all.extend(entries.iter().cloned());
    let mut json = String::from("[\n");
    for (i, e) in all.iter().enumerate() {
        render_entry(e, &mut json);
        json.push_str(if i + 1 < all.len() { ",\n" } else { "\n" });
    }
    json.push_str("]\n");
    std::fs::write(&out_path, json).expect("write bench json");
    eprintln!("perfbench: appended {} entries to {out_path}", entries.len());

    // Regression gate for perf_smoke.sh.
    if let Some(committed_path) = compare {
        let committed = std::fs::read_to_string(&committed_path)
            .map(|t| parse_entries(&t))
            .unwrap_or_default();
        let mut failed = false;
        for e in &entries {
            let Some(base) = committed.iter().rev().find(|c| c.bench == e.bench) else {
                eprintln!("  {}: no committed baseline, skipping gate", e.bench);
                continue;
            };
            let ratio = base.sim_ops_per_host_sec / e.sim_ops_per_host_sec;
            if ratio > max_regression {
                eprintln!(
                    "  REGRESSION {}: {:.1} sim-ops/host-sec vs committed {:.1} ({ratio:.2}x \
                     slower, limit {max_regression:.2}x)",
                    e.bench, e.sim_ops_per_host_sec, base.sim_ops_per_host_sec
                );
                failed = true;
            } else {
                eprintln!(
                    "  ok {}: {ratio:.2}x of committed baseline (limit {max_regression:.2}x)",
                    e.bench
                );
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
}
