//! The benchmark's metric and workload tables (the source `BENCHMARK.json`
//! is checked against) and the derivation of every metric from a
//! [`RunData`].

use eleos_flash::{Activity, CostProfile};

use crate::stats::{median, min_max, peak_rss_mb, Samples};
use crate::trace::{Agg, Name, Recorder};
use crate::workloads::RunData;

/// One metric: its name, unit, which way is better, which clock it is on
/// (`host`, `sim` or `-` for counts and ratios) and, end to end, the share
/// of the parent's median by which it may worsen.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub clock: &'static str,
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    clock: &'static str,
    bound: f64,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        clock,
        bound,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    clock: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        clock,
        bound: 0.0,
    }
}

pub const WORKLOADS: [(&str, &str); 6] = [
    ("tpcc_direct", "TPC-C compressed pages in 1 MB batches straight into Eleos::write on fresh devices: the paper's headline path; controller pipeline and flash emulator only, no GC, map faults or server"),
    ("gc_churn", "uniform overwrites at 70% of raw capacity in GC steady state: victim selection, relocation and erases dominate, and the tail shows foreground GC stalls; the map fits"),
    ("read_paged", "Zipfian reads of 16 LPIDs with a mapping cache a quarter the size of the map: the only workload where map misses and the read path carry the cost; writes, WAL and GC idle"),
    ("group_sharded", "64 simulated clients through Frontend into 4 shards: group-commit coalescing and cross-shard two-phase commit, deterministic, no sockets; every other workload has one shard"),
    ("net_write", "2 loopback TCP connections, 32 un-ACKed 4-page batches each over a small live set: codec, reader threads, ingress channel, engine loop and one WAL force per group; GC only erases dead EBLOCKs"),
    ("net_mixed", "1 loopback connection alternating a pipelined 4-page write with a blocking 16-LPID read over a small store: every read flushes the open group, so write-side gains that cost reads show as a loss"),
];

pub const END_TO_END: [Metric; 8] = [
    e2e("setup_s", "s", "lower", "host", 0.25),
    e2e("host_lpages_per_s", "1/s", "higher", "host", 0.25),
    e2e("req_p50_us", "us", "lower", "host", 0.25),
    e2e("req_p99_us", "us", "lower", "host", 0.25),
    e2e("sim_lpages_per_s", "1/s", "higher", "sim", 0.10),
    e2e("sim_req_p99_us", "us", "lower", "sim", 0.15),
    e2e("write_amp", "ratio", "lower", "-", 0.10),
    e2e("space_amp", "ratio", "lower", "-", 0.01),
];

pub const PER_LAYER: [Metric; 85] = [
    layer("proto.encode_host_ns_per_frame", "ns", "lower", "host"),
    layer("proto.decode_host_ns_per_frame", "ns", "lower", "host"),
    layer("proto.wire_bytes_per_payload_byte", "ratio", "lower", "-"),
    layer("engine.frames_in", "count", "lower", "-"),
    layer("engine.acks_out", "count", "higher", "-"),
    layer("engine.reacks", "count", "lower", "-"),
    layer("engine.purged_batches", "count", "lower", "-"),
    layer("engine.sim_net_ns_per_lpage", "ns", "lower", "sim"),
    layer("engine.residual_host_ns_per_frame", "ns", "lower", "host"),
    layer("frontend.groups_flushed", "count", "lower", "-"),
    layer("frontend.batches_per_group", "ratio", "higher", "-"),
    layer("frontend.group_bytes_mean", "B", "higher", "-"),
    layer("frontend.queue_delay_p99_sim_us", "us", "lower", "sim"),
    layer("frontend.sim_ns_per_lpage", "ns", "lower", "sim"),
    layer(
        "frontend.submit_self_host_ns_per_batch",
        "ns",
        "lower",
        "host",
    ),
    layer(
        "frontend.flush_self_host_ns_per_group",
        "ns",
        "lower",
        "host",
    ),
    layer("sharded.cross_shard_group_frac", "ratio", "lower", "-"),
    layer("sharded.units_per_group_mean", "ratio", "lower", "-"),
    layer(
        "sharded.write_group_host_ns_per_group",
        "ns",
        "lower",
        "host",
    ),
    layer("sharded.shard_busy_skew", "ratio", "lower", "sim"),
    layer("batch.put_host_ns_per_lpage", "ns", "lower", "host"),
    layer("batch.parse_host_ns_per_lpage", "ns", "lower", "host"),
    layer("batch.append_host_ns_per_lpage", "ns", "lower", "host"),
    layer("controller.write_host_ns_per_call", "ns", "lower", "host"),
    layer("controller.write_host_ns_per_lpage", "ns", "lower", "host"),
    layer("controller.read_host_ns_per_lpage", "ns", "lower", "host"),
    layer(
        "controller.read_batch_host_ns_per_lpage",
        "ns",
        "lower",
        "host",
    ),
    layer("controller.session_host_ns_per_call", "ns", "lower", "host"),
    layer("controller.host_share", "ratio", "lower", "host"),
    layer("controller.commits", "count", "lower", "-"),
    layer("controller.aborts", "count", "lower", "-"),
    layer("controller.action_retries", "count", "lower", "-"),
    layer("controller.sim_write_ns_per_lpage", "ns", "lower", "sim"),
    layer("controller.sim_read_ns_per_lpage", "ns", "lower", "sim"),
    layer("wal.wblocks_programmed", "count", "lower", "-"),
    layer("wal.bytes_per_user_byte", "ratio", "lower", "-"),
    layer("wal.programs_per_group", "ratio", "lower", "-"),
    layer("wal.sim_ns_per_lpage", "ns", "lower", "sim"),
    layer("wal.fallbacks", "count", "lower", "-"),
    layer("mapping.hits", "count", "higher", "-"),
    layer("mapping.misses", "count", "lower", "-"),
    layer("mapping.hit_rate", "ratio", "higher", "-"),
    layer("mapping.flash_loads", "count", "lower", "-"),
    layer("mapping.evictions", "count", "lower", "-"),
    layer("mapping.sim_io_ns_per_lpage", "ns", "lower", "sim"),
    layer("mapping.lookup_hit_host_ns", "ns", "lower", "host"),
    layer("mapping.lookup_miss_host_ns", "ns", "lower", "host"),
    layer("gc.collections", "count", "lower", "-"),
    layer("gc.moved_pages", "count", "lower", "-"),
    layer("gc.moved_bytes_per_user_byte", "ratio", "lower", "-"),
    layer("gc.erases", "count", "lower", "-"),
    layer("gc.installs_aborted", "count", "lower", "-"),
    layer("gc.relocation_aborts", "count", "lower", "-"),
    layer("gc.sim_ns_per_lpage", "ns", "lower", "sim"),
    layer("gc.busy_share_sim", "ratio", "lower", "sim"),
    layer("gc.stall_call_frac", "ratio", "lower", "-"),
    layer("gc.host_ns_per_collection", "ns", "lower", "host"),
    layer("ckpt.checkpoints", "count", "lower", "-"),
    layer("ckpt.sim_ns_per_lpage", "ns", "lower", "sim"),
    layer("ckpt.checkpoint_host_ms", "ms", "lower", "host"),
    layer("recovery.host_ms", "ms", "lower", "host"),
    layer("recovery.rblock_reads", "count", "lower", "-"),
    layer("recovery.sim_ns", "ns", "lower", "sim"),
    layer("flash.programs", "count", "lower", "-"),
    layer("flash.bytes_programmed", "B", "lower", "-"),
    layer("flash.rblock_reads", "count", "lower", "-"),
    layer("flash.bytes_read", "B", "lower", "-"),
    layer("flash.erases", "count", "lower", "-"),
    layer("flash.overlap_ratio", "ratio", "higher", "sim"),
    layer("flash.program_host_ns", "ns", "lower", "host"),
    layer("flash.read_host_ns", "ns", "lower", "host"),
    layer("flash.erase_host_ns", "ns", "lower", "host"),
    layer("flash.est_host_share", "ratio", "lower", "host"),
    layer("telemetry.conservation_ok", "bool", "higher", "-"),
    layer("telemetry.on_cost_frac", "ratio", "lower", "host"),
    layer("workloads.gen_host_s", "s", "lower", "host"),
    layer("harness.self_host_ns_per_lpage", "ns", "lower", "host"),
    layer("harness.host_share", "ratio", "lower", "host"),
    layer("harness.peak_rss_mb", "MB", "lower", "host"),
    layer("batch.put_host_share", "ratio", "lower", "host"),
    layer("frontend.host_share", "ratio", "lower", "host"),
    layer("client.host_share", "ratio", "lower", "host"),
    layer("trace.overhead_frac", "ratio", "lower", "host"),
    layer("trace.residual_frac", "ratio", "lower", "host"),
    layer("trace.spans", "count", "lower", "-"),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn per(num: u64, den: u64) -> f64 {
    ratio(num as f64, den as f64)
}

/// `attempted`, `failed` of the result line: timed requests, read-back
/// comparisons and conservation checks together.
pub fn attempted_failed(d: &RunData) -> (u64, u64) {
    let attempted = d.phase.attempted + d.fin.checked + 1;
    let failed = d.phase.failed + d.fin.mismatched + !d.fin.conservation_ok as u64;
    (attempted, failed)
}

/// The end-to-end metrics, in [`END_TO_END`] order, and lines for a reader.
pub fn end_to_end(d: &RunData) -> (Vec<(&'static str, f64)>, Vec<String>) {
    let ph = &d.phase;
    let rates = ph.rates(false);
    let host = Samples::new(ph.req_host_ns.clone());
    let sim = Samples::new(ph.req_sim_ns.clone());
    // Amplification over the timed phase; over the set-up's writes for a
    // workload whose timed phase writes nothing.
    let w = if ph.delta.payload_bytes > 0 {
        &ph.delta
    } else {
        &d.preload
    };
    let metrics = vec![
        ("setup_s", d.setup_s),
        ("host_lpages_per_s", median(&rates)),
        ("req_p50_us", host.quantile(0.50) as f64 / 1e3),
        ("req_p99_us", host.quantile(0.99) as f64 / 1e3),
        (
            "sim_lpages_per_s",
            ratio(ph.lpages as f64, ph.sim_ns as f64 / 1e9),
        ),
        ("sim_req_p99_us", sim.quantile(0.99) as f64 / 1e3),
        ("write_amp", per(w.bytes_programmed, w.payload_bytes)),
        ("space_amp", per(w.stored_bytes, w.payload_bytes)),
    ];
    let (lo, hi) = min_max(&rates);
    let notes = vec![
        format!("setup repeated {} time(s), median reported", d.setup_reps),
        format!(
            "host_lpages_per_s: median of {} windows, min {lo:.0} max {hi:.0}",
            rates.len()
        ),
        format!(
            "req latency: {} samples, {} beyond p99{}",
            host.count(),
            host.beyond(0.99),
            if host.beyond(0.99) < 10 {
                " (fewer than 10: p99 is not resolved)"
            } else {
                ""
            }
        ),
        format!(
            "timed phase: {:.3} s host, {:.3} s sim",
            ph.wall_ns(false) as f64 / 1e9,
            ph.sim_ns as f64 / 1e9
        ),
        format!(
            "oracle: {} LPAGEs read back twice, {} mismatched; conservation {}",
            d.fin.checked / 2,
            d.fin.mismatched,
            if d.fin.conservation_ok {
                "ok"
            } else {
                "VIOLATED"
            }
        ),
    ];
    (metrics, notes)
}

/// The per-layer metrics, in [`PER_LAYER`] order, and the per-layer host
/// table for a reader.
pub fn per_layer(d: &RunData) -> (Vec<(&'static str, f64)>, Vec<String>) {
    let (ph, c, pr) = (&d.phase, &d.phase.delta, &d.probes);
    let profile = CostProfile::high_end_cpu();
    let lpages = ph.lpages;
    let groups = c.batches;
    let sim_per_lpage = |a: Activity| per(c.busy(a), lpages);

    // Spans exist for the traced windows only.
    let traced_wall = ph.wall_ns(true);
    let traced_lpages: u64 = ph
        .windows
        .iter()
        .filter(|w| w.traced)
        .map(|w| w.lpages)
        .sum();
    let ctl_rec: &Recorder = d.engine_rec.as_ref().unwrap_or(&d.driver_rec);
    let sum = |rec: &Recorder, names: &[Name]| {
        names.iter().fold(Agg::default(), |a, &n| {
            let b = rec.agg(n);
            Agg {
                count: a.count + b.count,
                total_ns: a.total_ns + b.total_ns,
                self_ns: a.self_ns + b.self_ns,
            }
        })
    };
    let writes = sum(ctl_rec, &[Name::CtlWrite, Name::CtlWriteSessions]);
    let reads = ctl_rec.agg(Name::CtlRead);
    let sessions = ctl_rec.agg(Name::CtlSession);
    let ctl_all = sum(
        ctl_rec,
        &[
            Name::CtlWrite,
            Name::CtlWriteSessions,
            Name::CtlRead,
            Name::CtlReadBatch,
            Name::CtlSession,
            Name::CtlDelete,
            Name::CtlCheckpoint,
            Name::CtlMaintenance,
            Name::CtlDrain,
        ],
    );
    let counts = ctl_rec.counts;
    let drv = &d.driver_rec;
    let harness = sum(drv, &[Name::Request, Name::Gen, Name::Oracle]);
    let put = drv.agg(Name::BatchPut);
    let submit = drv.agg(Name::FrontendSubmit);
    let submit_flush = drv.agg(Name::FrontendSubmitFlush);
    let frontend = sum(
        drv,
        &[
            Name::FrontendSubmit,
            Name::FrontendSubmitFlush,
            Name::FrontendFlush,
        ],
    );
    let client = sum(
        drv,
        &[Name::ClientWrite, Name::ClientWait, Name::ClientRead],
    );

    // Socket workloads: the driver threads run side by side, so their span
    // time is averaged over the connections to compare with the wall.
    let drivers = d.drivers as f64;
    let share = |self_ns: u64| ratio(self_ns as f64 / drivers, traced_wall as f64);

    // Engine thread, traced windows: wall = controller spans + reply
    // encoding (replayed) + the rest (loop, channel, syscalls, frontend,
    // idle).
    let net = d.net.unwrap_or_default();
    let frames_traced = per(
        net.frames_in * traced_wall,
        ph.wall_ns(true) + ph.wall_ns(false),
    );
    let engine_residual = if d.net.is_some() {
        (traced_wall as f64
            - ctl_all.total_ns as f64
            - pr.proto_encode_reply_ns_per_frame * frames_traced)
            .max(0.0)
    } else {
        0.0
    };

    let flash_est_ns = pr.flash_program_ns * c.programs as f64
        + pr.flash_read_ns * c.rblock_reads as f64
        + pr.flash_erase_ns * c.erases as f64;
    let wal_wblocks = c.wal_program_ns / profile.program_duration(d.geo.wblock_bytes).max(1);
    let mean_free = per(counts.free_write_ns, counts.writes - counts.gc_writes);
    let gc_extra_ns = (counts.gc_write_ns as f64 - mean_free * counts.gc_writes as f64).max(0.0);
    let collections_traced = per(c.gc_collections * counts.writes, groups);
    let busy_mean = per(c.unit_busy.iter().sum(), c.unit_busy.len() as u64);
    let (traced_rates, untraced_rates) = (ph.rates(true), ph.rates(false));
    let sharded = d.units > 1;

    let metrics = vec![
        (
            "proto.encode_host_ns_per_frame",
            pr.proto_encode_ns_per_frame,
        ),
        (
            "proto.decode_host_ns_per_frame",
            pr.proto_decode_ns_per_frame,
        ),
        (
            "proto.wire_bytes_per_payload_byte",
            pr.proto_wire_bytes_per_payload_byte,
        ),
        ("engine.frames_in", net.frames_in as f64),
        ("engine.acks_out", net.acks_out as f64),
        ("engine.reacks", net.reacks as f64),
        ("engine.purged_batches", net.purged_batches as f64),
        ("engine.sim_net_ns_per_lpage", sim_per_lpage(Activity::Net)),
        (
            "engine.residual_host_ns_per_frame",
            ratio(engine_residual, frames_traced),
        ),
        ("frontend.groups_flushed", d.frontend.groups as f64),
        (
            "frontend.batches_per_group",
            per(d.frontend.batches, d.frontend.groups),
        ),
        (
            "frontend.group_bytes_mean",
            if d.frontend.groups > 0 {
                per(c.payload_bytes, d.frontend.groups)
            } else {
                0.0
            },
        ),
        (
            "frontend.queue_delay_p99_sim_us",
            d.frontend.queue_delay_p99_sim_ns as f64 / 1e3,
        ),
        (
            "frontend.sim_ns_per_lpage",
            sim_per_lpage(Activity::Frontend),
        ),
        (
            "frontend.submit_self_host_ns_per_batch",
            per(submit.self_ns, submit.count),
        ),
        (
            "frontend.flush_self_host_ns_per_group",
            (per(submit_flush.self_ns, submit_flush.count) - per(submit.self_ns, submit.count))
                .max(0.0),
        ),
        (
            "sharded.cross_shard_group_frac",
            per(counts.cross_unit_writes, counts.writes),
        ),
        (
            "sharded.units_per_group_mean",
            per(counts.units_touched, counts.writes),
        ),
        (
            "sharded.write_group_host_ns_per_group",
            if sharded {
                per(writes.total_ns, writes.count)
            } else {
                0.0
            },
        ),
        (
            "sharded.shard_busy_skew",
            if sharded {
                ratio(
                    c.unit_busy.iter().copied().max().unwrap_or(0) as f64,
                    busy_mean,
                )
            } else {
                0.0
            },
        ),
        ("batch.put_host_ns_per_lpage", pr.batch_put_ns_per_lpage),
        ("batch.parse_host_ns_per_lpage", pr.batch_parse_ns_per_lpage),
        (
            "batch.append_host_ns_per_lpage",
            pr.batch_append_ns_per_lpage,
        ),
        (
            "controller.write_host_ns_per_call",
            per(writes.total_ns, writes.count),
        ),
        (
            "controller.write_host_ns_per_lpage",
            per(writes.total_ns, counts.write_lpages),
        ),
        (
            "controller.read_host_ns_per_lpage",
            per(reads.total_ns, reads.count),
        ),
        (
            "controller.read_batch_host_ns_per_lpage",
            pr.read_batch_ns_per_lpage,
        ),
        (
            "controller.session_host_ns_per_call",
            per(sessions.total_ns, sessions.count),
        ),
        (
            "controller.host_share",
            ratio(ctl_all.total_ns as f64, traced_wall as f64),
        ),
        ("controller.commits", c.commits as f64),
        ("controller.aborts", c.aborts as f64),
        ("controller.action_retries", c.action_retries as f64),
        (
            "controller.sim_write_ns_per_lpage",
            per(c.busy(Activity::UserWrite), c.lpages),
        ),
        (
            "controller.sim_read_ns_per_lpage",
            per(c.busy(Activity::UserRead), c.reads),
        ),
        ("wal.wblocks_programmed", wal_wblocks as f64),
        (
            "wal.bytes_per_user_byte",
            per(wal_wblocks * d.geo.wblock_bytes as u64, c.payload_bytes),
        ),
        ("wal.programs_per_group", per(wal_wblocks, groups)),
        ("wal.sim_ns_per_lpage", sim_per_lpage(Activity::Wal)),
        ("wal.fallbacks", c.wal_fallbacks as f64),
        ("mapping.hits", c.map_hits as f64),
        ("mapping.misses", c.map_misses as f64),
        (
            "mapping.hit_rate",
            per(c.map_hits, c.map_hits + c.map_misses),
        ),
        ("mapping.flash_loads", c.map_flash_loads as f64),
        ("mapping.evictions", c.map_evictions as f64),
        (
            "mapping.sim_io_ns_per_lpage",
            sim_per_lpage(Activity::MapIo),
        ),
        ("mapping.lookup_hit_host_ns", pr.map_hit_ns),
        ("mapping.lookup_miss_host_ns", pr.map_miss_ns),
        ("gc.collections", c.gc_collections as f64),
        ("gc.moved_pages", c.gc_moved_pages as f64),
        (
            "gc.moved_bytes_per_user_byte",
            per(c.gc_moved_bytes, c.payload_bytes),
        ),
        ("gc.erases", c.gc_erases as f64),
        ("gc.installs_aborted", c.gc_installs_aborted as f64),
        ("gc.relocation_aborts", c.gc_relocation_aborts as f64),
        ("gc.sim_ns_per_lpage", sim_per_lpage(Activity::Gc)),
        (
            "gc.busy_share_sim",
            per(c.busy(Activity::Gc), c.total_busy()),
        ),
        ("gc.stall_call_frac", per(counts.gc_writes, counts.writes)),
        (
            "gc.host_ns_per_collection",
            ratio(gc_extra_ns, collections_traced),
        ),
        ("ckpt.checkpoints", c.checkpoints as f64),
        ("ckpt.sim_ns_per_lpage", sim_per_lpage(Activity::Ckpt)),
        ("ckpt.checkpoint_host_ms", d.fin.checkpoint_host_ms),
        ("recovery.host_ms", d.fin.recover_host_ms),
        ("recovery.rblock_reads", d.fin.recover_rblock_reads as f64),
        ("recovery.sim_ns", d.fin.recover_sim_ns as f64),
        ("flash.programs", c.programs as f64),
        ("flash.bytes_programmed", c.bytes_programmed as f64),
        ("flash.rblock_reads", c.rblock_reads as f64),
        ("flash.bytes_read", c.bytes_read as f64),
        ("flash.erases", c.erases as f64),
        (
            "flash.overlap_ratio",
            per(
                c.flash_busy,
                d.geo.channels as u64 * d.units as u64 * ph.sim_ns,
            ),
        ),
        ("flash.program_host_ns", pr.flash_program_ns),
        ("flash.read_host_ns", pr.flash_read_ns),
        ("flash.erase_host_ns", pr.flash_erase_ns),
        (
            "flash.est_host_share",
            ratio(flash_est_ns, (ph.wall_ns(true) + ph.wall_ns(false)) as f64),
        ),
        (
            "telemetry.conservation_ok",
            d.fin.conservation_ok as u64 as f64,
        ),
        ("telemetry.on_cost_frac", pr.telemetry_on_cost_frac),
        ("workloads.gen_host_s", d.gen_host_s),
        (
            "harness.self_host_ns_per_lpage",
            per(harness.self_ns, traced_lpages),
        ),
        ("harness.host_share", share(harness.self_ns)),
        ("harness.peak_rss_mb", peak_rss_mb()),
        ("batch.put_host_share", share(put.self_ns)),
        ("frontend.host_share", share(frontend.self_ns)),
        ("client.host_share", share(client.self_ns)),
        (
            "trace.overhead_frac",
            ratio(median(&untraced_rates), median(&traced_rates)) - 1.0,
        ),
        (
            "trace.residual_frac",
            1.0 - ratio(drv.root_ns() as f64 / drivers, traced_wall as f64),
        ),
        (
            "trace.spans",
            (drv.span_count() + d.engine_rec.as_ref().map_or(0, Recorder::span_count)) as f64,
        ),
    ];

    // The host table: self time per layer over the traced windows of the
    // thread(s) that drive the workload; by construction the rows and the
    // residual sum to the traced wall.
    let in_process_ctl = if d.engine_rec.is_none() {
        ctl_all.self_ns
    } else {
        0
    };
    let mut table = vec![format!(
        "per-layer host table over {:.3} s of traced windows ({} LPAGEs):",
        traced_wall as f64 / 1e9,
        traced_lpages
    )];
    let mut row = |label: &str, ns: f64| {
        table.push(format!(
            "  {label:<34} {:>10.3} ms {:>6.1} %  {:>9.1} ns/LPAGE",
            ns / 1e6,
            100.0 * ratio(ns, traced_wall as f64),
            ratio(ns, traced_lpages as f64)
        ));
    };
    row(
        "harness (gen, oracle, request self)",
        harness.self_ns as f64 / drivers,
    );
    row("batch.put", put.self_ns as f64 / drivers);
    row(
        "frontend (submit/flush self)",
        frontend.self_ns as f64 / drivers,
    );
    row("client (write/wait/read)", client.self_ns as f64 / drivers);
    row("controller (trait calls)", in_process_ctl as f64);
    row(
        "residual (outside any span)",
        traced_wall as f64 - drv.root_ns() as f64 / drivers,
    );
    if d.engine_rec.is_some() {
        table.push("engine thread over the same windows:".into());
        let mut row = |label: &str, ns: f64| {
            table.push(format!(
                "  {label:<34} {:>10.3} ms {:>6.1} %",
                ns / 1e6,
                100.0 * ratio(ns, traced_wall as f64)
            ));
        };
        row("controller (trait calls)", ctl_all.total_ns as f64);
        row(
            "proto reply encode (replayed)",
            pr.proto_encode_reply_ns_per_frame * frames_traced,
        );
        row(
            "engine residual (loop, channel, frontend, idle)",
            engine_residual,
        );
    }
    table.push(format!(
        "  of controller time, flash emulator (calibrated estimate): {:.1} % of the wall",
        100.0 * ratio(flash_est_ns, (ph.wall_ns(true) + ph.wall_ns(false)) as f64)
    ));
    (metrics, table)
}
