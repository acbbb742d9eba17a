//! `shard_scale` — multi-controller sharding vs one controller.
//!
//! Sweeps the shard count of the sharded router (DESIGN.md §14) over the
//! identical 64-client group-commit schedule and measures, in simulated
//! time, how much hash-partitioning the LPID space buys once each shard's
//! controller CPU (mapping updates, codec, WAL framing) advances on its
//! own clock. The flash array is held constant — 8 channels total, split
//! evenly across shards — so the sweep isolates the controller-CPU
//! scaling from raw flash bandwidth; cross-shard groups pay the full
//! two-phase commit (per-shard `Prepare` force, coordinator decision
//! force, per-shard `Commit` force), so the curve is an honest account of
//! 2PC overhead, not just ideal partitioning.
//!
//! The 1-shard point doubles as the identity proof: the router with one
//! shard takes the exact unsharded path, and
//! `one_shard_matches_unsharded_exactly` asserts snapshot-JSON equality.

use crate::report::Table;
use eleos::frontend::GroupCommitPolicy;
use eleos::sharded::{ShardedEleos, ShardedFrontend};
use eleos::{EleosConfig, PageMode, TelemetrySnapshot, WriteBatch};
use eleos_flash::{CostProfile, FlashDevice, Geometry, SpanKind};
use eleos_workloads::multi_client::{generate, total_pages, ClientBatch, MultiClientConfig};

/// 8 channels total, split evenly across shards: 1 shard sees the exact
/// `frontend_scale` geometry (8 × 64 × 32 × 32 KB = 512 MB), 8 shards get
/// one channel each. Total flash bandwidth and capacity are constant
/// across the sweep.
fn shard_geo(n_shards: usize) -> Geometry {
    assert!(8 % n_shards == 0, "sweep points divide the 8-channel array");
    Geometry {
        channels: (8 / n_shards) as u32,
        eblocks_per_channel: 64,
        wblocks_per_eblock: 32,
        wblock_bytes: 32 * 1024,
        rblock_bytes: 4 * 1024,
    }
}

/// Same small-batch regime as `frontend_scale`: this is where controller
/// CPU per page dominates and sharding has something to parallelize.
fn schedule(clients: usize, batches_per_client: usize) -> Vec<ClientBatch> {
    generate(&MultiClientConfig {
        clients,
        batches_per_client,
        pages_per_batch: (1, 4),
        payload_bytes: (200, 800),
        mean_gap_ns: 4_000,
        rate_skew: 0.4,
        lpids_per_client: 128,
        seed: 0xF00D,
    })
}

fn config(clients: usize) -> EleosConfig {
    EleosConfig {
        max_user_lpid: clients as u64 * 128 + 1,
        ckpt_log_bytes: u64::MAX,
        mapping_cache_pages: 1 << 12,
        ..Default::default()
    }
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

/// One sweep point.
#[derive(Debug, Clone)]
pub struct ShardScalePoint {
    pub pages: u64,
    /// Simulated duration, format to drain, on the host timeline
    /// (max over shard clocks).
    pub sim_ns: u64,
    /// Groups the front-end flushed.
    pub groups: u64,
    pub write_p99_ns: u64,
}

impl ShardScalePoint {
    /// Simulated write throughput: LPAGEs per simulated second.
    pub fn sim_pages_per_sec(&self) -> f64 {
        self.pages as f64 / (self.sim_ns as f64 / 1e9)
    }
}

/// Run the 64-client group-commit schedule against `n_shards` shards.
pub fn run_point(n_shards: usize, clients: usize, batches_per_client: usize) -> ShardScalePoint {
    let sched = schedule(clients, batches_per_client);
    let cfg = config(clients);
    let devs: Vec<FlashDevice> = (0..n_shards)
        .map(|_| FlashDevice::new(shard_geo(n_shards), CostProfile::high_end_cpu()))
        .collect();
    let mut sh = ShardedEleos::format(devs, &cfg).expect("format");
    let mut fe = ShardedFrontend::new(clients, policy());
    let sim0 = sh.host_now();
    for cb in &sched {
        fe.submit(&mut sh, cb.client, cb.at, build(cb)).expect("submit");
    }
    fe.flush(&mut sh).expect("final flush");
    sh.drain();
    let sim_ns = sh.host_now() - sim0;
    let merged = TelemetrySnapshot::merge(sh.snapshots());
    assert!(
        merged.conservation_error().is_none(),
        "per-shard conservation violated: {:?}",
        merged.conservation_error()
    );
    ShardScalePoint {
        pages: total_pages(&sched) as u64,
        sim_ns,
        groups: fe.groups_flushed(),
        write_p99_ns: merged.span(SpanKind::WriteBatch).p99(),
    }
}

/// The EXPERIMENTS.md sweep: 1 → 8 shards at 64 clients.
pub fn shard_scale_table() -> (Table, &'static str) {
    let mut t = Table::new(
        "shard_scale — sharded router vs one controller, 64 clients",
        &[
            "shards",
            "groups",
            "sim ms",
            "pages/sim-sec",
            "speedup",
            "write p99 us",
        ],
    );
    let mut base_ns = 0u64;
    for n in [1usize, 2, 4, 8] {
        let p = run_point(n, 64, 48);
        if n == 1 {
            base_ns = p.sim_ns;
        }
        t.row(vec![
            n.to_string(),
            p.groups.to_string(),
            format!("{:.2}", p.sim_ns as f64 / 1e6),
            format!("{:.0}", p.sim_pages_per_sec()),
            format!("{:.2}x", base_ns as f64 / p.sim_ns as f64),
            format!("{:.0}", p.write_p99_ns as f64 / 1e3),
        ]);
    }
    (
        t,
        "*Beyond the paper:* the sharded router (DESIGN.md §14). The 64-client \
         group-commit schedule of `frontend_scale` replays against 1/2/4/8 \
         controller shards over a constant 8-channel flash array (channels split \
         evenly). Each shard owns its mapping/WAL/GC and advances its own \
         simulated clock, so per-page controller CPU (codec, mapping, payload \
         transport) runs shard-parallel; a coalesced group straddling shards \
         pays the full 2PC (per-shard Prepare force, coordinator CoordCommit \
         force, per-shard Commit force). Throughput climbs monotonically 1→8 \
         shards, but modestly: groups commit synchronously, so Amdahl caps the \
         win at the parallelizable per-page fraction of each group, and the \
         serial 2PC decision chain claws back part of it — the honest price of \
         cross-shard atomicity at this group size. The win widens with \
         CPU-heavier groups; the curve here is deliberately measured at the \
         `frontend_scale` operating point, not a sharding-flattering one.",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use eleos::{Eleos, Frontend};

    /// Tentpole acceptance #1: a 1-shard router run is *identical* to the
    /// unsharded controller + front-end — every simulated counter, span
    /// and ledger cell, via snapshot-JSON equality.
    #[test]
    fn one_shard_matches_unsharded_exactly() {
        let sched = schedule(16, 12);
        let cfg = config(16);

        let dev = FlashDevice::new(shard_geo(1), CostProfile::high_end_cpu());
        let mut ssd = Eleos::format(dev, cfg.clone()).expect("format");
        let mut fe = Frontend::new(16, policy());
        for cb in &sched {
            fe.submit(&mut ssd, cb.client, cb.at, build(cb)).expect("submit");
        }
        fe.flush(&mut ssd).expect("flush");
        ssd.drain();
        let unsharded = ssd.snapshot().to_json();

        let devs = vec![FlashDevice::new(shard_geo(1), CostProfile::high_end_cpu())];
        let mut sh = ShardedEleos::format(devs, &cfg).expect("format");
        let mut sfe = ShardedFrontend::new(16, policy());
        for cb in &sched {
            sfe.submit(&mut sh, cb.client, cb.at, build(cb)).expect("submit");
        }
        sfe.flush(&mut sh).expect("flush");
        sh.drain();
        let sharded = sh.shard(0).snapshot().to_json();

        assert_eq!(unsharded, sharded, "1-shard router must be byte-identical");
    }

    /// Tentpole acceptance #2: simulated throughput climbs monotonically
    /// from 1 to 8 shards at 64 clients.
    #[test]
    fn shard_scale_is_monotonic_1_to_8() {
        let mut last = 0.0f64;
        let mut curve = Vec::new();
        for n in [1usize, 2, 4, 8] {
            let p = run_point(n, 64, 24);
            let tput = p.sim_pages_per_sec();
            curve.push((n, tput));
            assert!(
                tput > last,
                "throughput must climb with shard count: {curve:?}"
            );
            last = tput;
        }
    }
}
