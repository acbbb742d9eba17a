//! One function per table/figure of the paper. Binaries are thin wrappers;
//! `repro_all` composes every table into EXPERIMENTS.md.

use crate::report::{attribution_table, fmt_bytes, fmt_rate, Table};
use crate::tpcc_driver::{run_tpcc, run_tpcc_trace, Interface};
use crate::ycsb_driver::{run_ycsb, GcMode, YcsbResult, YcsbSetup};
use eleos::{Eleos, EleosConfig, PageMode, WriteBatch, WriteOpts};
use eleos_flash::{CostProfile, FlashDevice, Geometry, Nanos};
use eleos_workloads::{TpccEngine, TpccEngineConfig, TpccTraceConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Interfaces in presentation order.
pub const INTERFACES: [Interface; 3] = [Interface::Block, Interface::BatchFp, Interface::BatchVp];

/// Geometry used by the TPC-C replays: 8 × 32 × 64 × 32 KB = 512 MB.
fn tpcc_geometry() -> Geometry {
    Geometry {
        channels: 8,
        eblocks_per_channel: 32,
        wblocks_per_eblock: 64,
        wblock_bytes: 32 * 1024,
        rblock_bytes: 4 * 1024,
    }
}

fn tpcc_trace() -> TpccTraceConfig {
    TpccTraceConfig {
        pages: 50_000,
        ..Default::default()
    }
}

/// Scaled replay volume (the paper used the first 100 GB of the trace).
pub const TPCC_VOLUME: u64 = 48 * 1024 * 1024;

// ---------------------------------------------------------------------
// Fig. 1 — cost vs performance analytical model
// ---------------------------------------------------------------------

/// Fig. 1(c): cost per operation/second for a key-value store whose data is
/// (a) all in main memory, (b) on SSD behind a block interface, (c) on SSD
/// behind the batched interface. An analytical model in the spirit of
/// Lomet (DaMoN'18), grounded in this repo's calibrated cost profile: the
/// I/O-path CPU per page is taken from the `high_end_cpu` profile (one
/// context+commit per page for Block; amortized over a 256-page buffer for
/// Batch).
pub fn fig1() -> Table {
    let p = CostProfile::high_end_cpu();
    // Cost model constants (arbitrary currency units).
    let mem_per_gb = 10.0; // DRAM rent
    let ssd_per_gb = 0.33; // flash rent (paper: "flash storage cost is lower")
    let cpu_per_core = 50.0; // one core's rent
    let dataset_gb = 100.0;
    let core_ns_per_sec = 1e9;

    // CPU nanoseconds per operation.
    let op_cpu = 1_500.0; // in-memory op
    let block_io_cpu = (p.context_ns + p.commit_force_ns) as f64 + 25_000.0; // per-page I/O path
    let batch_io_cpu = (p.context_ns + p.commit_force_ns) as f64 / 256.0
        + p.per_page_ns as f64
        + 25_000.0 / 4.0; // amortized per page

    let mut t = Table::new(
        "Fig. 1 — cost vs performance (analytical; cost units per dataset)",
        &["ops/sec", "in-memory $", "SSD block $", "SSD batch $"],
    );
    for exp in 2..=6 {
        let ops = 10f64.powi(exp);
        let mem_cost = dataset_gb * mem_per_gb + cpu_per_core * (ops * op_cpu / core_ns_per_sec);
        let ssd_block = dataset_gb * ssd_per_gb
            + cpu_per_core * (ops * (op_cpu + block_io_cpu) / core_ns_per_sec);
        let ssd_batch = dataset_gb * ssd_per_gb
            + cpu_per_core * (ops * (op_cpu + batch_io_cpu) / core_ns_per_sec);
        t.row(vec![
            fmt_rate(ops),
            format!("{mem_cost:.1}"),
            format!("{ssd_block:.1}"),
            format!("{ssd_batch:.1}"),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// Fig. 9 — TPC-C write throughput vs batch size (weak controller)
// ---------------------------------------------------------------------

pub fn fig9() -> Table {
    let buffers: [usize; 7] = [
        64 * 1024,
        128 * 1024,
        256 * 1024,
        512 * 1024,
        1024 * 1024,
        2 * 1024 * 1024,
        4 * 1024 * 1024,
    ];
    let mut t = Table::new(
        format!(
            "Fig. 9 — TPC-C write throughput (pages/s), weak controller, volume {}",
            fmt_bytes(TPCC_VOLUME)
        ),
        &["buffer", "Block", "Batch (FP)", "Batch (VP)", "VP MB/s"],
    );
    for buf in buffers {
        let mut cells = vec![fmt_bytes(buf as u64)];
        let mut vp_mb = 0.0;
        for itf in INTERFACES {
            let r = run_tpcc(
                itf,
                CostProfile::weak_controller(),
                tpcc_geometry(),
                buf,
                TPCC_VOLUME,
                tpcc_trace(),
            );
            cells.push(fmt_rate(r.pages_per_sec()));
            if itf == Interface::BatchVp {
                vp_mb = r.mb_per_sec();
            }
        }
        cells.push(format!("{vp_mb:.1}"));
        t.row(cells);
    }
    t
}

// ---------------------------------------------------------------------
// Table II — TPC-C throughput with a high-end CPU
// ---------------------------------------------------------------------

pub fn table2() -> Table {
    let mut t = Table::new(
        "Table II — TPC-C write throughput, high-end-CPU simulator, 1 MB buffer",
        &[
            "interface",
            "pages/s",
            "MB/s",
            "paper pages/s",
            "paper MB/s",
        ],
    );
    let paper = [("Block", "52.73K", "206.2"), ("Batch (FP)", "255.03K", "1015.9"), ("Batch (VP)", "447.79K", "992.4")];
    for (i, itf) in INTERFACES.iter().enumerate() {
        let r = run_tpcc(
            *itf,
            CostProfile::high_end_cpu(),
            tpcc_geometry(),
            1024 * 1024,
            TPCC_VOLUME,
            tpcc_trace(),
        );
        t.row(vec![
            itf.label().to_string(),
            fmt_rate(r.pages_per_sec()),
            format!("{:.1}", r.mb_per_sec()),
            paper[i].1.to_string(),
            paper[i].2.to_string(),
        ]);
    }
    t
}

/// Table II rerun with the *organic* trace: pages generated by actually
/// executing TPC-C transactions on the miniature engine with real page
/// compression, instead of the fitted log-normal. The shape must agree.
pub fn table2_engine_trace() -> Table {
    let mut engine = TpccEngine::new(TpccEngineConfig {
        warehouses: 4,
        flush_every: 16,
        seed: 11,
    });
    // Generate enough flush events up front (reused for every interface).
    let mut events = Vec::new();
    let mut bytes = 0u64;
    while bytes < 3 * TPCC_VOLUME / 2 {
        let chunk = engine.run(4000);
        bytes += chunk.iter().map(|w| w.len as u64).sum::<u64>();
        events.extend(chunk);
    }
    let max_lpid = events.iter().map(|w| w.lpid).max().unwrap_or(0) + 1;
    let mean =
        events.iter().map(|w| w.len as u64).sum::<u64>() as f64 / events.len() as f64;
    let mut t = Table::new(
        format!(
            "Table II (organic trace) — engine-generated compressed pages, mean {:.0} B",
            mean
        ),
        &["interface", "pages/s", "MB/s"],
    );
    for itf in INTERFACES {
        let r = run_tpcc_trace(
            itf,
            CostProfile::high_end_cpu(),
            tpcc_geometry(),
            1024 * 1024,
            TPCC_VOLUME,
            events.iter().copied(),
            max_lpid,
        );
        t.row(vec![
            itf.label().to_string(),
            fmt_rate(r.pages_per_sec()),
            format!("{:.1}", r.mb_per_sec()),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// Fig. 10a/10b — Bw-tree YCSB throughput and bytes written vs cache size
// ---------------------------------------------------------------------

/// Records/ops used by the YCSB experiments (scaled from the paper's 10 M
/// records / 300 s runs).
pub const YCSB_RECORDS: u64 = 50_000;
pub const YCSB_OPS: u64 = 50_000;

pub fn fig10ab(read_heavy: bool) -> (Table, Table) {
    let caches = [0.05, 0.10, 0.25, 0.50, 0.75, 1.0];
    let mix = if read_heavy { "95% reads" } else { "95% updates" };
    let mut ta = Table::new(
        format!(
            "Fig. 10a — Bw-tree YCSB throughput (ops/s), {mix}, {} records, GC off",
            YCSB_RECORDS
        ),
        &["cache", "Block", "Batch (FP)", "Batch (VP)", "VP/Block"],
    );
    let mut tb = Table::new(
        "Fig. 10b — total data written to the SSD during the runs",
        &["cache", "Block", "Batch (FP)", "Batch (VP)", "VP saving vs FP"],
    );
    for &cache in &caches {
        let mut results: Vec<YcsbResult> = Vec::new();
        for itf in INTERFACES {
            results.push(run_ycsb(
                itf,
                &YcsbSetup {
                    profile: CostProfile::weak_controller(),
                    records: YCSB_RECORDS,
                    cache_frac: cache,
                    ops: YCSB_OPS,
                    gc: GcMode::Disabled,
                    read_heavy,
                    seed: 42,
                    warmup_ops: 0,
                },
            ));
        }
        let ratio = results[2].ops_per_sec() / results[0].ops_per_sec();
        ta.row(vec![
            format!("{:.0}%", cache * 100.0),
            fmt_rate(results[0].ops_per_sec()),
            fmt_rate(results[1].ops_per_sec()),
            fmt_rate(results[2].ops_per_sec()),
            format!("{ratio:.2}x"),
        ]);
        let saving = 1.0
            - results[2].flash_bytes_written as f64
                / results[1].flash_bytes_written.max(1) as f64;
        tb.row(vec![
            format!("{:.0}%", cache * 100.0),
            fmt_bytes(results[0].flash_bytes_written),
            fmt_bytes(results[1].flash_bytes_written),
            fmt_bytes(results[2].flash_bytes_written),
            format!("{:.0}%", saving * 100.0),
        ]);
    }
    (ta, tb)
}

// ---------------------------------------------------------------------
// Fig. 10c — throughput with GC enabled (cache = 10 %)
// ---------------------------------------------------------------------

pub fn fig10c() -> Table {
    let mut t = Table::new(
        "Fig. 10c — Bw-tree YCSB throughput with GC, cache 10% (decline vs GC-off)",
        &["interface", "GC off ops/s", "GC on ops/s", "decline"],
    );
    for itf in INTERFACES {
        let base = YcsbSetup {
            profile: CostProfile::weak_controller(),
            records: YCSB_RECORDS,
            cache_frac: 0.10,
            ops: YCSB_OPS,
            gc: GcMode::Disabled,
            read_heavy: false,
            seed: 42,
            warmup_ops: 0,
        };
        let off = run_ycsb(itf, &base);
        let on = run_ycsb(
            itf,
            &YcsbSetup {
                gc: GcMode::Enabled { capacity_factor: 3.0 },
                // Fill the bounded device before measuring so GC is in
                // steady state (the paper measures a 300 s window with GC
                // continuously active).
                warmup_ops: 60_000,
                ..base
            },
        );
        let decline = 1.0 - on.ops_per_sec() / off.ops_per_sec();
        t.row(vec![
            itf.label().to_string(),
            fmt_rate(off.ops_per_sec()),
            fmt_rate(on.ops_per_sec()),
            format!("{:.1}%", decline * 100.0),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// Channel overlap — the deferred-completion scheduler (DESIGN.md §2)
// ---------------------------------------------------------------------

/// One measured phase of an overlap scenario.
struct OverlapRun {
    ops: u64,
    sim_ns: Nanos,
    /// Σ per-channel busy time / (channels × elapsed) over the measured
    /// phase: 1/channels means fully serialized, 1.0 means all channels
    /// busy the whole time.
    overlap: f64,
}

impl OverlapRun {
    /// The phase of `ops` operations since `start`: the virtual time and
    /// the device's total channel busy time when the phase began.
    fn since(ssd: &Eleos, ops: u64, (t0, busy0): (Nanos, Nanos)) -> OverlapRun {
        let sim_ns = ssd.now() - t0;
        let stats = ssd.device().stats();
        let channels = stats.channel_busy_ns.len() as u64;
        let overlap = (stats.total_busy_ns() - busy0) as f64 / (channels * sim_ns) as f64;
        OverlapRun { ops, sim_ns, overlap }
    }
}

fn overlap_ssd(records: u64, geo: Geometry, profile: CostProfile) -> Eleos {
    let cfg = EleosConfig {
        max_user_lpid: records + 1,
        // Small enough that checkpoints advance the truncation LSN during
        // the run, so GC also reclaims sealed log EBLOCKs.
        ckpt_log_bytes: 8 * 1024 * 1024,
        mapping_cache_pages: 1 << 14,
        ..Default::default()
    };
    Eleos::format(FlashDevice::new(geo, profile), cfg).expect("format")
}

fn overlap_page(lpid: u64, rng: &mut StdRng) -> Vec<u8> {
    let len = rng.gen_range(640..2048usize);
    let mut page = vec![0u8; len];
    page[..8].copy_from_slice(&lpid.to_le_bytes());
    page
}

/// Sequential load of `records` variable-size pages in ~1 MB batches,
/// drained at the end. Shared by the overlap and attribution scenarios.
fn load_sequential(ssd: &mut Eleos, records: u64, rng: &mut StdRng) {
    let mut batch = WriteBatch::new(PageMode::Variable);
    for lpid in 0..records {
        batch.put(lpid, &overlap_page(lpid, rng)).expect("load put");
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

/// GC-heavy phase: fill the device to ~70 % utilization, then uniform
/// random overwrites — every channel's free list sinks below the
/// watermark, so the round-robin collector always has victims on several
/// channels at once. Measures the overwrite phase only.
fn overlap_gc_heavy(geo: Geometry, records: u64, overwrites: u64) -> OverlapRun {
    let mut ssd = overlap_ssd(records, geo, CostProfile::high_end_cpu());
    let mut rng = StdRng::seed_from_u64(0x60C0);
    load_sequential(&mut ssd, records, &mut rng);

    let start = (ssd.now(), ssd.device().stats().total_busy_ns());
    let mut batch = WriteBatch::new(PageMode::Variable);
    for _ in 0..overwrites {
        let lpid = rng.gen_range(0..records);
        batch.put(lpid, &overlap_page(lpid, &mut rng)).expect("put");
        if batch.wire_len() >= 1024 * 1024 {
            ssd.write(&batch, WriteOpts::default()).expect("overwrite");
            batch = WriteBatch::new(PageMode::Variable);
        }
    }
    if !batch.is_empty() {
        ssd.write(&batch, WriteOpts::default()).expect("overwrite");
    }
    ssd.drain();
    OverlapRun::since(&ssd, overwrites, start)
}

/// Point-read phase: load, then uniform point reads in groups of
/// `batch_size`, each group one `Eleos::read_batch` (`batched`), whose
/// flash reads overlap across channels, or one blocking `Eleos::read` per
/// LPID. Uses the weak-controller profile: real flash read latency
/// (60 µs) is what the scheduler hides; on the simulated high-end profile
/// flash reads cost 500 ns and the read path is purely CPU-bound either
/// way.
fn overlap_reads(
    batched: bool,
    geo: Geometry,
    records: u64,
    reads: u64,
    batch_size: usize,
) -> OverlapRun {
    let mut ssd = overlap_ssd(records, geo, CostProfile::weak_controller());
    let mut rng = StdRng::seed_from_u64(0xBA7C);
    load_sequential(&mut ssd, records, &mut rng);

    let start = (ssd.now(), ssd.device().stats().total_busy_ns());
    let mut done = 0u64;
    let mut lpids = Vec::with_capacity(batch_size);
    while done < reads {
        lpids.clear();
        for _ in 0..batch_size.min((reads - done) as usize) {
            lpids.push(rng.gen_range(0..records));
        }
        done += lpids.len() as u64;
        if batched {
            std::hint::black_box(ssd.read_batch(&lpids).expect("read_batch"));
        } else {
            for &lpid in &lpids {
                std::hint::black_box(ssd.read(lpid).expect("read"));
            }
        }
    }
    OverlapRun::since(&ssd, reads, start)
}

/// Throughput and channel utilization for the two scenarios the scheduler
/// targets: GC, which round-robins one victim per needy channel per round
/// and has no serial counterpart, and point reads, batched (deferred)
/// against one blocking read per LPID (serial). The two read columns issue
/// identical op/byte counts, so their gap is pure channel overlap.
pub fn overlap_scheduler() -> Table {
    // 8 × 32 × 32 × 32 KB = 256 MB. Utilization is computed against raw
    // capacity; after the fixed reserves at this scale (checkpoint area,
    // one user-open plus three GC bins per channel, log standbys, the 15 %
    // free-list target) the free headroom sits just above the GC
    // watermark, so the collector runs continuously on every channel.
    let geo = Geometry {
        channels: 8,
        eblocks_per_channel: 32,
        wblocks_per_eblock: 32,
        wblock_bytes: 32 * 1024,
        rblock_bytes: 4 * 1024,
    };
    // ~70 % utilization at the ~1.4 KB mean stored-page size.
    let gc_records = (geo.total_bytes() as f64 * 0.70 / 1400.0) as u64;
    let rd_records = 60_000u64;

    let mut t = Table::new(
        "Overlap — deferred-completion scheduler, 8 channels (serial vs overlapped)",
        &["scenario", "serial Kops/sim-s", "deferred Kops/sim-s", "speedup", "channel util"],
    );
    let mut row = |name: &str, serial: Option<OverlapRun>, deferred: OverlapRun| {
        let k = |r: &OverlapRun| format!("{:.1}", r.ops as f64 / (r.sim_ns as f64 / 1e9) / 1e3);
        let util = |r: &OverlapRun| format!("{:.0}%", r.overlap * 100.0);
        let (serial_k, speedup, util) = match &serial {
            Some(s) => (
                k(s),
                format!("{:.2}x", s.sim_ns as f64 / deferred.sim_ns as f64),
                format!("{} -> {}", util(s), util(&deferred)),
            ),
            None => ("—".into(), "—".into(), util(&deferred)),
        };
        t.row(vec![name.to_string(), serial_k, k(&deferred), speedup, util]);
    };
    row(
        "GC-heavy uniform overwrite (70% util)",
        None,
        overlap_gc_heavy(geo, gc_records, gc_records * 2),
    );
    row(
        "point reads, read_batch(16), weak ctrl",
        Some(overlap_reads(false, geo, rd_records, 60_000, 16)),
        overlap_reads(true, geo, rd_records, 60_000, 16),
    );
    t
}

// ---------------------------------------------------------------------
// Time attribution — the telemetry ledger (DESIGN.md §10)
// ---------------------------------------------------------------------

/// Geometry for the attribution scenarios: 4 × 16 × 32 × 32 KB = 64 MB —
/// small enough that all three run in seconds, large enough that GC,
/// checkpointing and WAL maintenance all engage.
fn attribution_geo() -> Geometry {
    Geometry {
        channels: 4,
        eblocks_per_channel: 16,
        wblocks_per_eblock: 32,
        wblock_bytes: 32 * 1024,
        rblock_bytes: 4 * 1024,
    }
}

/// Snapshot with the conservation invariant enforced. A committed
/// attribution table whose buckets don't sum to the device's busy time is
/// a regression, not a statistic — panic, don't render.
fn checked_snapshot(ssd: &Eleos) -> eleos::TelemetrySnapshot {
    let snap = ssd.snapshot();
    if let Some(err) = snap.conservation_error() {
        panic!("attribution conservation violated: {err}");
    }
    snap
}

/// Where the simulated time goes under a pure sequential load: user
/// programs should dominate, with WAL and checkpoint visible but small.
pub fn attribution_write_heavy() -> (Table, &'static str) {
    let geo = attribution_geo();
    let records = (geo.total_bytes() as f64 * 0.45 / 1400.0) as u64;
    let mut ssd = overlap_ssd(records, geo, CostProfile::high_end_cpu());
    let mut rng = StdRng::seed_from_u64(0xA77B);
    load_sequential(&mut ssd, records, &mut rng);
    let snap = checked_snapshot(&ssd);
    (
        attribution_table("Attribution — write-heavy sequential load", &snap),
        "Sequential load to ~45 % utilization in ~1 MB batches. Every simulated nanosecond \
         of flash-channel busy time and controller CPU is charged to the activity that \
         caused it; the share column partitions total busy time (flash + CPU), summing to \
         100 %. With no overwrites there is almost nothing for GC to reclaim, so user_write \
         programs dominate and the overhead activities (wal, ckpt) are the fixed cost of \
         durability.",
    )
}

/// The same ledger under GC pressure: fill to ~70 %, then overwrite
/// uniformly at random — the gc row grows to a first-class share. Uses
/// the overlap scenario's 256 MB / 8-channel geometry: at the smaller
/// attribution geometry the fixed per-channel reserves (open + GC bins,
/// log standbys, free-list target) eat too much of the device for a
/// 70 % fill to leave GC headroom.
pub fn attribution_gc_heavy() -> (Table, &'static str) {
    let geo = Geometry {
        channels: 8,
        eblocks_per_channel: 32,
        wblocks_per_eblock: 32,
        wblock_bytes: 32 * 1024,
        rblock_bytes: 4 * 1024,
    };
    let records = (geo.total_bytes() as f64 * 0.70 / 1400.0) as u64;
    let mut ssd = overlap_ssd(records, geo, CostProfile::high_end_cpu());
    let mut rng = StdRng::seed_from_u64(0x6CAD);
    load_sequential(&mut ssd, records, &mut rng);
    let mut batch = WriteBatch::new(PageMode::Variable);
    for _ in 0..records * 2 {
        let lpid = rng.gen_range(0..records);
        batch.put(lpid, &overlap_page(lpid, &mut rng)).expect("overwrite put");
        if batch.wire_len() >= 1024 * 1024 {
            ssd.write(&batch, WriteOpts::default()).expect("overwrite");
            batch = WriteBatch::new(PageMode::Variable);
        }
    }
    if !batch.is_empty() {
        ssd.write(&batch, WriteOpts::default()).expect("overwrite");
    }
    ssd.drain();
    let snap = checked_snapshot(&ssd);
    (
        attribution_table("Attribution — GC-heavy uniform overwrite (70 % utilization)", &snap),
        "Fill to ~70 % utilization, then overwrite every record twice at uniform random. \
         The ledger covers the whole run (fill + overwrite): gc reads relocate surviving \
         pages, gc programs rewrite them, and gc erases reclaim the victims — write \
         amplification rendered as a time budget instead of a byte ratio. Compare the gc \
         row here against the write-heavy table, where it is absent.",
    )
}

/// Full lifecycle: write under sparse checkpoints, crash, recover. The
/// device's telemetry survives the crash (it lives with the flash array),
/// so the recovered controller's ledger shows the whole life including the
/// recovery row — and still satisfies conservation.
pub fn attribution_recovery() -> (Table, &'static str) {
    let geo = attribution_geo();
    let records = (geo.total_bytes() as f64 * 0.30 / 1400.0) as u64;
    let cfg = EleosConfig {
        max_user_lpid: records + 1,
        // Sparse checkpoints: most of the run stays ahead of the last
        // checkpoint, so recovery replays a long WAL suffix and the
        // recovery row is a visible share, not a rounding error.
        ckpt_log_bytes: 64 * 1024 * 1024,
        mapping_cache_pages: 1 << 14,
        ..Default::default()
    };
    let mut ssd =
        Eleos::format(FlashDevice::new(geo, CostProfile::high_end_cpu()), cfg.clone())
            .expect("format");
    let mut rng = StdRng::seed_from_u64(0x2ECF);
    load_sequential(&mut ssd, records, &mut rng);
    let flash = ssd.crash();
    let ssd = Eleos::recover(flash, cfg).expect("recover");
    let snap = checked_snapshot(&ssd);
    (
        attribution_table("Attribution — write, crash, recover (full lifecycle)", &snap),
        "Sequential load with periodic checkpoints suppressed (64 MB checkpoint-log \
         threshold on a 64 MB device — the ckpt row is the format-time initial \
         checkpoint), then a crash and a full recovery. The attribution ledger lives with \
         the flash array, so it survives the crash: the table shows the entire lifecycle, \
         with the recovery row covering the two-pass log scan and mapping replay. \
         Conservation (rows summing to the device's total busy time) holds across the \
         crash boundary.",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_model_orders_costs_sensibly() {
        let t = fig1();
        assert_eq!(t.rows.len(), 5);
        // At low throughput, SSD options are cheaper than memory; batch is
        // never more expensive than block.
        let low = &t.rows[0];
        let mem: f64 = low[1].parse().unwrap();
        let block: f64 = low[2].parse().unwrap();
        let batch: f64 = low[3].parse().unwrap();
        assert!(block < mem && batch <= block);
    }
}
