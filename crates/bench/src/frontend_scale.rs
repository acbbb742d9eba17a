//! `frontend_scale` — group commit vs per-client serial submission.
//!
//! Sweeps the client count of the host front-end (DESIGN.md §11) over the
//! same small-batch arrival schedules and measures, in simulated time, how
//! much group commit recovers of the per-write overhead that dominates
//! when every client submits 1–4-page ~1 KB batches on its own. The
//! baseline is *per-client serial submission*: the identical arrival
//! schedule, one `Eleos::write` per client batch, no coalescing — what a
//! controller without a batching front-end would see. Both runs do the
//! identical logical work, so the simulated-duration ratio is the write
//! throughput speedup.

use crate::perfjson::BenchEntry;
use crate::report::Table;
use eleos::frontend::{Frontend, GroupCommitPolicy};
use eleos::{Eleos, EleosConfig, EleosError, PageMode, WriteBatch, WriteOpts};
use eleos_flash::{CostProfile, FlashDevice, Geometry, SpanKind};
use eleos_workloads::multi_client::{generate, total_pages, ClientBatch, MultiClientConfig};
use std::time::Instant;

/// 8 × 64 × 32 × 32 KB = 512 MB. The *serial* baseline needs the headroom:
/// every 1–4-page write seals its own WBLOCK, so thousands of small writes
/// burn space far beyond their payload — the very overhead this sweep
/// measures.
fn geo() -> Geometry {
    Geometry {
        channels: 8,
        eblocks_per_channel: 64,
        wblocks_per_eblock: 32,
        wblock_bytes: 32 * 1024,
        rblock_bytes: 4 * 1024,
    }
}

fn schedule(clients: usize, batches_per_client: usize) -> Vec<ClientBatch> {
    generate(&MultiClientConfig {
        clients,
        batches_per_client,
        // Small client batches: this is the regime where per-write
        // overhead (WAL commit, wblock seal) dominates and group commit
        // has something to amortize.
        pages_per_batch: (1, 4),
        payload_bytes: (200, 800),
        mean_gap_ns: 4_000,
        rate_skew: 0.4,
        lpids_per_client: 128,
        seed: 0xF00D,
    })
}

/// `ckpt_log_bytes` is a parameter because the two callers need opposite
/// things: the sweep's short schedules keep checkpoints out of the
/// measurement entirely (`u64::MAX`), while the perfbench entry's long
/// window *must* checkpoint — the serial-submission baseline burns one WAL
/// commit per 1 KB batch, and without truncation-reclaim the log area
/// exhausts the 512 MB device and shuts the controller down.
fn controller(clients: usize, ckpt_log_bytes: u64) -> Eleos {
    let cfg = EleosConfig {
        max_user_lpid: clients as u64 * 128 + 1,
        ckpt_log_bytes,
        mapping_cache_pages: 1 << 12,
        ..Default::default()
    };
    Eleos::format(FlashDevice::new(geo(), CostProfile::high_end_cpu()), cfg).expect("format")
}

fn policy() -> GroupCommitPolicy {
    GroupCommitPolicy {
        flush_bytes: 32 * 1024,
        flush_interval_ns: 100_000,
        max_queued_batches: 256,
        ..GroupCommitPolicy::default()
    }
}

fn build(cb: &ClientBatch) -> WriteBatch {
    let mut b = WriteBatch::new(PageMode::Variable);
    for (lpid, payload) in &cb.pages {
        b.put(*lpid, payload).expect("put");
    }
    b
}

/// The serial baseline's bounded retry, mirroring the front-end's.
fn write_retry(ssd: &mut Eleos, b: &WriteBatch) {
    for _ in 0..8 {
        match ssd.write(b, WriteOpts::default()) {
            Ok(_) => return,
            Err(EleosError::ActionAborted) => continue,
            Err(EleosError::DeviceFull) => match ssd.maintenance() {
                Ok(()) | Err(EleosError::ActionAborted) | Err(EleosError::DeviceFull) => {}
                Err(e) => panic!("maintenance failed: {e}"),
            },
            Err(e) => panic!("serial write failed: {e}"),
        }
    }
    panic!("serial write exhausted retries");
}

/// One sweep point: both runs over the identical schedule.
#[derive(Debug, Clone)]
pub struct FrontendScalePoint {
    pub clients: usize,
    pub batches: u64,
    pub pages: u64,
    pub payload_bytes: u64,
    /// Simulated duration of the group-commit run (format to drain).
    pub grouped_sim_ns: u64,
    /// Simulated duration of the per-client serial-submission run.
    pub serial_sim_ns: u64,
    /// Write-throughput speedup: `serial_sim_ns / grouped_sim_ns`.
    pub speedup: f64,
    /// Groups the front-end flushed.
    pub groups: u64,
    /// Worst per-client p99 queue delay (enqueue → group durable).
    pub p99_queue_delay_ns: u64,
    /// Host wall-clock of the grouped run (for the perf trajectory).
    pub host_seconds: f64,
    pub bytes_programmed: u64,
    pub cpu_busy_ns: u64,
    pub flash_busy_ns: u64,
    pub write_p99_ns: u64,
}

/// Run one client count over `batches_per_client` arrivals per client,
/// checkpointing every `ckpt_log_bytes` of log (see `controller`).
pub fn run_point(
    clients: usize,
    batches_per_client: usize,
    ckpt_log_bytes: u64,
) -> FrontendScalePoint {
    let sched = schedule(clients, batches_per_client);
    let payload_bytes: u64 = sched
        .iter()
        .flat_map(|b| b.pages.iter())
        .map(|(_, p)| p.len() as u64)
        .sum();

    // Group-commit run.
    let mut ssd = controller(clients, ckpt_log_bytes);
    let mut fe = Frontend::new(clients, policy());
    let sim0 = ssd.now();
    let programmed0 = ssd.device().stats().bytes_programmed;
    let t = Instant::now();
    for cb in &sched {
        fe.submit(&mut ssd, cb.client, cb.at, build(cb)).expect("submit");
    }
    fe.flush(&mut ssd).expect("final flush");
    ssd.drain();
    let host_seconds = t.elapsed().as_secs_f64();
    let grouped_sim_ns = ssd.now() - sim0;
    let p99_queue_delay_ns = (0..clients).map(|c| fe.queue_delay(c).p99()).max().unwrap_or(0);
    let snap = ssd.snapshot();

    // Per-client serial submission: same arrivals, one write per batch.
    let mut serial = controller(clients, ckpt_log_bytes);
    let serial0 = serial.now();
    for cb in &sched {
        serial.device_mut().clock_mut().wait_until(cb.at);
        write_retry(&mut serial, &build(cb));
    }
    serial.drain();
    let serial_sim_ns = serial.now() - serial0;

    FrontendScalePoint {
        clients,
        batches: sched.len() as u64,
        pages: total_pages(&sched) as u64,
        payload_bytes,
        grouped_sim_ns,
        serial_sim_ns,
        speedup: serial_sim_ns as f64 / grouped_sim_ns as f64,
        groups: fe.groups_flushed(),
        p99_queue_delay_ns,
        host_seconds,
        bytes_programmed: ssd.device().stats().bytes_programmed - programmed0,
        cpu_busy_ns: snap.cpu_busy_ns,
        flash_busy_ns: snap.flash.total_busy_ns(),
        write_p99_ns: snap.span(SpanKind::WriteBatch).p99(),
    }
}

/// The EXPERIMENTS.md sweep: 1 → 64 clients.
pub fn frontend_scale_table() -> (Table, &'static str) {
    let mut t = Table::new(
        "frontend_scale — group commit vs per-client serial submission",
        &[
            "clients",
            "batches",
            "pages",
            "groups",
            "grouped sim ms",
            "serial sim ms",
            "speedup",
            "p99 queue delay us",
        ],
    );
    for clients in [1usize, 2, 4, 8, 16, 32, 64] {
        let p = run_point(clients, 64, u64::MAX);
        t.row(vec![
            clients.to_string(),
            p.batches.to_string(),
            p.pages.to_string(),
            p.groups.to_string(),
            format!("{:.2}", p.grouped_sim_ns as f64 / 1e6),
            format!("{:.2}", p.serial_sim_ns as f64 / 1e6),
            format!("{:.2}x", p.speedup),
            format!("{:.0}", p.p99_queue_delay_ns as f64 / 1e3),
        ]);
    }
    (
        t,
        "*Beyond the paper:* the host front-end (DESIGN.md §11). N simulated \
         clients submit 1–4-page ~1 KB batches on skewed arrival schedules; the \
         group-commit policy (32 KB / 100 us / 256-batch cap) coalesces the queue \
         into one `Eleos::write` per flush and ACKs each client batch when its \
         covering group is durable. The serial column replays the identical \
         arrivals one `Eleos::write` per client batch, each burning a WAL \
         commit and a sealed WBLOCK for ~1 KB of payload. Arrivals outpace \
         serial writes, so even one client's backlog coalesces (~19x); the \
         point of the sweep is the *scaling*: aggregate throughput grows \
         ~linearly with client count at a flat ~21x advantage, while the time \
         threshold pins every client's p99 queue delay near 100 us no matter \
         how many neighbours share the device.",
    )
}

/// The perfbench entry: the 64-client grouped run, host wall-clock.
///
/// The full-scale arrival count is sized so the *measured* grouped run
/// lasts >= 0.5 host-seconds on a development machine — short windows put
/// startup jitter in the same decade as the signal and made the committed
/// trajectory noisy.
pub fn bench_frontend_scale(scale: &str, label: &str) -> BenchEntry {
    let batches_per_client = if scale == "small" { 128 } else { 4096 };
    let p = run_point(64, batches_per_client, 16 * 1024 * 1024);
    eprintln!(
        "  frontend_scale: 64 clients, {} groups, simulated speedup {:.2}x vs serial \
         submission, worst p99 queue delay {} us",
        p.groups,
        p.speedup,
        p.p99_queue_delay_ns / 1_000
    );
    BenchEntry {
        label: label.to_string(),
        bench: "frontend_scale_64c".to_string(),
        scale: scale.to_string(),
        ops: p.batches,
        host_seconds: p.host_seconds,
        sim_ops_per_host_sec: p.batches as f64 / p.host_seconds,
        bytes_programmed: p.bytes_programmed,
        bytes_read: 0,
        cpu_busy_ns: p.cpu_busy_ns,
        flash_busy_ns: p.flash_busy_ns,
        write_p99_ns: p.write_p99_ns,
        host_threads: 1,
        mapping_cache_pages: 1 << 12,
        gc_policy: eleos::GcPolicy::MinCostDecline.label().to_string(),
        shards: 1,
        net_clients: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The PR's headline acceptance: at 64 clients, group commit must beat
    /// per-client serial submission by >= 1.3x in simulated write
    /// throughput, with the worst per-client p99 queue delay still bounded
    /// by a small multiple of the flush interval.
    #[test]
    fn frontend_scale_64_clients_beats_serial() {
        let p = run_point(64, 24, u64::MAX);
        assert!(
            p.speedup >= 1.3,
            "64-client speedup {:.2}x below the 1.3x floor \
             (grouped {} ns vs serial {} ns)",
            p.speedup,
            p.grouped_sim_ns,
            p.serial_sim_ns
        );
        assert!(p.groups > 0 && p.groups < p.batches, "no coalescing happened");
        let bound = 20 * policy().flush_interval_ns;
        assert!(
            p.p99_queue_delay_ns <= bound,
            "p99 queue delay {} ns exceeds bound {} ns",
            p.p99_queue_delay_ns,
            bound
        );
    }

    /// With one client the front-end must not lose ground: amortization is
    /// small but the grouped path may never be slower than ~parity.
    #[test]
    fn frontend_scale_single_client_is_no_worse() {
        let p = run_point(1, 48, u64::MAX);
        assert!(
            p.speedup >= 0.95,
            "single-client grouped run regressed: {:.2}x",
            p.speedup
        );
    }
}
