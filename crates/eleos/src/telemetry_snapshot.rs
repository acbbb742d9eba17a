//! The unified controller observability snapshot (DESIGN.md §10).
//!
//! [`Eleos::snapshot`](crate::Eleos::snapshot) returns one coherent view
//! of everything observable at the current simulated instant, replacing the
//! old accessor sprawl (`stats()`, `overlap_ratio()`, `channel_busy_ns()`,
//! `mapping_cached_pages()`). A snapshot is a plain value: benches diff two
//! of them, merge ledgers across phases, and render attribution tables
//! without re-touching the controller.
//!
//! The **conservation check** lives here: the attribution ledger is
//! maintained at the charge sites (flash submit, `FlashDevice::cpu`),
//! while `FlashStats::channel_busy_ns` and `SimClock::cpu_busy_ns` tally
//! the same time independently and unattributed. For flash the two must
//! agree *exactly* per channel; for CPU the attributed total must never
//! exceed the clock's tally — the shortfall is CPU charged on the shared
//! clock outside the controller (host drivers), reported as part of the
//! `host` bucket.

use crate::mapping::MapCacheStats;
use crate::stats::EleosStats;
use eleos_flash::{
    Activity, AttributionLedger, FlashOp, FlashStats, LatencyHistogram, Nanos, SpanKind,
};
use std::fmt::Write as _;

/// Everything observable about an [`crate::Eleos`] controller at one
/// simulated instant.
#[derive(Debug, Clone)]
pub struct TelemetrySnapshot {
    /// Current virtual time (CPU timeline).
    pub now: Nanos,
    /// Total CPU time ever charged on the clock (work, not waits),
    /// including host-side charges outside the controller.
    pub cpu_busy_ns: Nanos,
    /// Controller-level operation counters.
    pub eleos: EleosStats,
    /// Device-level operation counters.
    pub flash: FlashStats,
    /// Mapping pages resident in the controller cache.
    pub mapping_cached_pages: usize,
    /// Mapping-cache hit/miss/eviction counters (demand paging).
    pub map_cache: MapCacheStats,
    /// The resource × activity time-attribution ledger.
    pub ledger: AttributionLedger,
    /// Latency histograms, indexed by [`SpanKind::index`].
    pub spans: Vec<LatencyHistogram>,
}

impl TelemetrySnapshot {
    /// Channel overlap ratio over the whole run so far:
    /// `Σ per-channel busy ns / (channels · now)`.
    pub fn overlap_ratio(&self) -> f64 {
        self.flash.overlap_ratio(self.now)
    }

    /// Latency histogram for one span kind.
    pub fn span(&self, kind: SpanKind) -> &LatencyHistogram {
        &self.spans[kind.index()]
    }

    /// CPU time charged on the shared clock but not attributed by the
    /// controller — host-side driver work (bwtree/lss/oxblock `host_cpu`)
    /// that bypasses `FlashDevice::cpu`. Reported under `host`.
    pub fn unattributed_cpu_ns(&self) -> Nanos {
        self.cpu_busy_ns.saturating_sub(self.ledger.cpu_total())
    }

    /// The full `host` CPU bucket: explicitly attributed host charges plus
    /// the unattributed residue.
    pub fn host_cpu_ns(&self) -> Nanos {
        self.ledger.cpu_ns(Activity::Host) + self.unattributed_cpu_ns()
    }

    /// Total simulated busy time across all resources: every flash-channel
    /// busy nanosecond plus every CPU-busy nanosecond. The attribution
    /// table sums to exactly this.
    pub fn total_busy_ns(&self) -> Nanos {
        self.flash.total_busy_ns() + self.cpu_busy_ns
    }

    /// Busy time attributed to one activity across all resources (the
    /// `host` row additionally absorbs the unattributed CPU residue, so the
    /// rows sum to [`TelemetrySnapshot::total_busy_ns`]).
    pub fn activity_busy_ns(&self, a: Activity) -> Nanos {
        let mut ns = self.ledger.cpu_ns(a) + self.ledger.activity_flash_ns(a);
        if a == Activity::Host {
            ns += self.unattributed_cpu_ns();
        }
        ns
    }

    /// Verify the conservation invariants; `None` means they hold.
    ///
    /// 1. Per flash channel, the ledger's attributed time equals the
    ///    device's independent busy tally **exactly** — every channel
    ///    nanosecond is attributed, none twice.
    /// 2. Attributed CPU never exceeds the clock's busy tally (the
    ///    difference is host-side work, accounted in the `host` bucket).
    pub fn conservation_error(&self) -> Option<String> {
        for ch in 0..self.ledger.channels() {
            let attributed = self.ledger.channel_total(ch as u32);
            let device = self.flash.channel_busy_ns.get(ch).copied().unwrap_or(0);
            if attributed != device {
                return Some(format!(
                    "channel {ch}: ledger attributes {attributed} ns but device tallied {device} ns"
                ));
            }
        }
        if self.ledger.cpu_total() > self.cpu_busy_ns {
            return Some(format!(
                "attributed CPU {} ns exceeds clock busy tally {} ns",
                self.ledger.cpu_total(),
                self.cpu_busy_ns
            ));
        }
        None
    }

    /// Render the snapshot as one JSON object (hand-rolled — the workspace
    /// carries no serde). Schema:
    ///
    /// ```json
    /// {
    ///   "now_ns": u64, "cpu_busy_ns": u64, "total_busy_ns": u64,
    ///   "unattributed_cpu_ns": u64, "mapping_cached_pages": u64,
    ///   "map_cache": { "hits": .., "misses": .., "flash_loads": ..,
    ///                  "evictions": .. },
    ///   "flash": { "programs": .., "bytes_programmed": .., "rblock_reads": ..,
    ///              "bytes_read": .., "erases": .., "program_failures": ..,
    ///              "total_busy_ns": .. },
    ///   "cpu_attr_ns": { "<activity>": u64, .. },
    ///   "flash_attr_ns": { "<activity>": { "program": u64, "read": u64,
    ///                                      "erase": u64 }, .. },
    ///   "spans": { "<kind>": { "count": .., "p50_ns": .., "p95_ns": ..,
    ///                          "p99_ns": .., "max_ns": .., "mean_ns": .. }, .. },
    ///   "conservation_ok": bool
    /// }
    /// ```
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(2048);
        s.push('{');
        let _ = write!(
            s,
            "\"now_ns\":{},\"cpu_busy_ns\":{},\"total_busy_ns\":{},\
             \"unattributed_cpu_ns\":{},\"mapping_cached_pages\":{}",
            self.now,
            self.cpu_busy_ns,
            self.total_busy_ns(),
            self.unattributed_cpu_ns(),
            self.mapping_cached_pages
        );
        let _ = write!(
            s,
            ",\"map_cache\":{{\"hits\":{},\"misses\":{},\"flash_loads\":{},\"evictions\":{}}}",
            self.map_cache.hits,
            self.map_cache.misses,
            self.map_cache.flash_loads,
            self.map_cache.evictions
        );
        let _ = write!(
            s,
            ",\"flash\":{{\"programs\":{},\"bytes_programmed\":{},\"rblock_reads\":{},\
             \"bytes_read\":{},\"erases\":{},\"program_failures\":{},\"total_busy_ns\":{}}}",
            self.flash.programs,
            self.flash.bytes_programmed,
            self.flash.rblock_reads,
            self.flash.bytes_read,
            self.flash.erases,
            self.flash.program_failures,
            self.flash.total_busy_ns()
        );
        s.push_str(",\"cpu_attr_ns\":{");
        for (i, a) in Activity::ALL.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{}\":{}", a.label(), self.ledger.cpu_ns(*a));
        }
        s.push_str("},\"flash_attr_ns\":{");
        for (i, a) in Activity::ALL.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{}\":{{", a.label());
            for (j, op) in FlashOp::ALL.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                let _ = write!(s, "\"{}\":{}", op.label(), self.ledger.op_activity_ns(*op, *a));
            }
            s.push('}');
        }
        s.push_str("},\"spans\":{");
        for (i, k) in SpanKind::ALL.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let h = self.span(*k);
            let _ = write!(
                s,
                "\"{}\":{{\"count\":{},\"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{},\
                 \"max_ns\":{},\"mean_ns\":{:.1}}}",
                k.label(),
                h.count(),
                h.p50(),
                h.p95(),
                h.p99(),
                h.max(),
                h.mean()
            );
        }
        let _ = write!(
            s,
            "}},\"conservation_ok\":{}}}",
            self.conservation_error().is_none()
        );
        s
    }

    /// Combine per-shard snapshots into one array-wide view. Shards own
    /// disjoint devices, so cross-shard counters are straight sums and
    /// simulated "now" is the max over shard clocks — but attribution
    /// ledgers are **not** collapsed: conservation is a per-shard
    /// invariant (each ledger re-partitions *its own* device's busy
    /// time), and [`MergedSnapshot`] keeps every shard's rows labeled by
    /// shard id instead of blending them.
    pub fn merge(shards: Vec<TelemetrySnapshot>) -> MergedSnapshot {
        assert!(!shards.is_empty(), "merge needs at least one snapshot");
        MergedSnapshot { shards }
    }
}

/// Array-wide telemetry assembled by [`TelemetrySnapshot::merge`]: summed
/// controller/flash counters, merged span histograms, per-shard ledgers
/// kept intact and labeled by shard id.
#[derive(Debug, Clone)]
pub struct MergedSnapshot {
    /// The per-shard snapshots, in shard order (index == shard id).
    pub shards: Vec<TelemetrySnapshot>,
}

impl MergedSnapshot {
    /// Host timeline: the max over shard clocks.
    pub fn now(&self) -> Nanos {
        self.shards.iter().map(|s| s.now).max().unwrap_or(0)
    }

    /// Total CPU busy time across all shard clocks.
    pub fn cpu_busy_ns(&self) -> Nanos {
        self.shards.iter().map(|s| s.cpu_busy_ns).sum()
    }

    /// Total busy time (flash + CPU) across the array.
    pub fn total_busy_ns(&self) -> Nanos {
        self.shards.iter().map(|s| s.total_busy_ns()).sum()
    }

    /// Summed controller counters.
    pub fn eleos(&self) -> EleosStats {
        let mut t = EleosStats::default();
        for s in &self.shards {
            let e = &s.eleos;
            t.batches += e.batches;
            t.lpages += e.lpages;
            t.payload_bytes += e.payload_bytes;
            t.stored_bytes += e.stored_bytes;
            t.reads += e.reads;
            t.read_bytes += e.read_bytes;
            t.commits += e.commits;
            t.aborts += e.aborts;
            t.gc_collections += e.gc_collections;
            t.gc_moved_pages += e.gc_moved_pages;
            t.gc_moved_bytes += e.gc_moved_bytes;
            t.gc_erases += e.gc_erases;
            t.migrations += e.migrations;
            t.checkpoints += e.checkpoints;
            t.gc_installs_aborted += e.gc_installs_aborted;
            t.program_failures += e.program_failures;
            t.action_retries += e.action_retries;
            t.gc_relocation_aborts += e.gc_relocation_aborts;
            t.wal_fallbacks += e.wal_fallbacks;
            t.retired_eblocks += e.retired_eblocks;
        }
        t
    }

    /// Summed device counters; `channel_busy_ns` concatenates the shards'
    /// channel slots in shard order (disjoint physical channels).
    pub fn flash(&self) -> FlashStats {
        let mut t = FlashStats::default();
        for s in &self.shards {
            let f = &s.flash;
            t.programs += f.programs;
            t.program_failures += f.program_failures;
            t.bytes_programmed += f.bytes_programmed;
            t.rblock_reads += f.rblock_reads;
            t.bytes_read += f.bytes_read;
            t.erases += f.erases;
            t.channel_busy_ns.extend_from_slice(&f.channel_busy_ns);
        }
        t
    }

    /// Summed mapping-cache counters across shards.
    pub fn map_cache(&self) -> MapCacheStats {
        let mut t = MapCacheStats::default();
        for s in &self.shards {
            t.hits += s.map_cache.hits;
            t.misses += s.map_cache.misses;
            t.flash_loads += s.map_cache.flash_loads;
            t.evictions += s.map_cache.evictions;
        }
        t
    }

    /// Merged latency histogram for one span kind across all shards.
    pub fn span(&self, kind: SpanKind) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for s in &self.shards {
            h.merge(s.span(kind));
        }
        h
    }

    /// Busy time one activity consumed across the whole array.
    pub fn activity_busy_ns(&self, a: Activity) -> Nanos {
        self.shards.iter().map(|s| s.activity_busy_ns(a)).sum()
    }

    /// Per-shard conservation: `None` only when **every** shard's ledger
    /// re-partitions its own device's busy time exactly. A violation names
    /// the offending shard.
    pub fn conservation_error(&self) -> Option<String> {
        for (i, s) in self.shards.iter().enumerate() {
            if let Some(e) = s.conservation_error() {
                return Some(format!("shard {i}: {e}"));
            }
        }
        None
    }

    /// Attribution rows labeled by shard id: one
    /// `(shard, activity, cpu_ns, flash_ns)` row per shard × activity with
    /// any busy time, in shard order.
    pub fn ledger_rows(&self) -> Vec<(usize, Activity, Nanos, Nanos)> {
        let mut rows = Vec::new();
        for (i, s) in self.shards.iter().enumerate() {
            for &a in Activity::ALL.iter() {
                let cpu = s.ledger.cpu_ns(a)
                    + if a == Activity::Host { s.unattributed_cpu_ns() } else { 0 };
                let flash = s.ledger.activity_flash_ns(a);
                if cpu > 0 || flash > 0 {
                    rows.push((i, a, cpu, flash));
                }
            }
        }
        rows
    }

    /// JSON rendering: array-wide totals plus every shard's full snapshot
    /// labeled by shard id.
    ///
    /// ```json
    /// { "shards": n, "now_ns": .., "cpu_busy_ns": .., "total_busy_ns": ..,
    ///   "conservation_ok": bool,
    ///   "per_shard": [ { "shard": 0, ...TelemetrySnapshot::to_json... }, .. ] }
    /// ```
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(2048 * self.shards.len());
        let _ = write!(
            s,
            "{{\"shards\":{},\"now_ns\":{},\"cpu_busy_ns\":{},\"total_busy_ns\":{},\
             \"conservation_ok\":{},\"per_shard\":[",
            self.shards.len(),
            self.now(),
            self.cpu_busy_ns(),
            self.total_busy_ns(),
            self.conservation_error().is_none()
        );
        for (i, snap) in self.shards.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let inner = snap.to_json();
            let _ = write!(s, "{{\"shard\":{},{}", i, &inner[1..]);
        }
        s.push_str("]}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_snapshot(channels: usize) -> TelemetrySnapshot {
        TelemetrySnapshot {
            now: 0,
            cpu_busy_ns: 0,
            eleos: EleosStats::default(),
            flash: FlashStats {
                channel_busy_ns: vec![0; channels],
                ..FlashStats::default()
            },
            mapping_cached_pages: 0,
            map_cache: MapCacheStats::default(),
            ledger: AttributionLedger::new(channels),
            spans: vec![LatencyHistogram::new(); SpanKind::COUNT],
        }
    }

    #[test]
    fn conservation_detects_channel_mismatch() {
        let mut s = empty_snapshot(2);
        assert!(s.conservation_error().is_none());
        s.flash.channel_busy_ns[1] = 500;
        let err = s.conservation_error().expect("mismatch must be flagged");
        assert!(err.contains("channel 1"), "{err}");
        s.ledger.charge_flash(1, FlashOp::Program, Activity::UserWrite, 500);
        assert!(s.conservation_error().is_none());
    }

    #[test]
    fn conservation_allows_host_cpu_residue_but_not_excess() {
        let mut s = empty_snapshot(1);
        s.cpu_busy_ns = 100;
        s.ledger.charge_cpu(Activity::UserWrite, 60);
        assert!(s.conservation_error().is_none());
        assert_eq!(s.unattributed_cpu_ns(), 40);
        assert_eq!(s.host_cpu_ns(), 40);
        // Rows sum to the total busy time.
        let by_activity: Nanos = Activity::ALL.iter().map(|&a| s.activity_busy_ns(a)).sum();
        assert_eq!(by_activity, s.total_busy_ns());
        // Attributing more CPU than the clock tallied is a bug.
        s.ledger.charge_cpu(Activity::Gc, 50);
        assert!(s.conservation_error().is_some());
    }

    #[test]
    fn merge_sums_counters_and_keeps_conservation_per_shard() {
        let mut a = empty_snapshot(2);
        a.now = 100;
        a.cpu_busy_ns = 10;
        a.eleos.batches = 3;
        a.flash.bytes_programmed = 1000;
        a.flash.channel_busy_ns[0] = 50;
        a.ledger.charge_flash(0, FlashOp::Program, Activity::UserWrite, 50);
        a.spans[SpanKind::WriteBatch.index()].record(500);
        let mut b = empty_snapshot(2);
        b.now = 400;
        b.cpu_busy_ns = 5;
        b.eleos.batches = 2;
        b.flash.bytes_programmed = 200;
        b.spans[SpanKind::WriteBatch.index()].record(900);
        let m = TelemetrySnapshot::merge(vec![a, b]);
        assert_eq!(m.now(), 400);
        assert_eq!(m.cpu_busy_ns(), 15);
        assert_eq!(m.eleos().batches, 5);
        assert_eq!(m.flash().bytes_programmed, 1200);
        assert_eq!(m.flash().channel_busy_ns.len(), 4, "channels concatenate");
        assert_eq!(m.span(SpanKind::WriteBatch).count(), 2);
        assert!(m.conservation_error().is_none());
        // Rows are labeled by shard id; only shard 0 has busy time here.
        let rows = m.ledger_rows();
        assert!(rows.iter().any(|&(s, a, _, f)| s == 0 && a == Activity::UserWrite && f == 50));
        // Shard 1's only busy time is its unattributed CPU → a Host row.
        assert_eq!(
            rows.iter().filter(|&&(s, ..)| s == 1).collect::<Vec<_>>(),
            vec![&(1, Activity::Host, 5, 0)]
        );
    }

    #[test]
    fn merge_conservation_violation_names_the_shard() {
        let a = empty_snapshot(1);
        let mut b = empty_snapshot(1);
        b.flash.channel_busy_ns[0] = 7; // unattributed device time on shard 1
        let m = TelemetrySnapshot::merge(vec![a, b]);
        let err = m.conservation_error().expect("shard 1 must be flagged");
        assert!(err.starts_with("shard 1:"), "{err}");
        let j = m.to_json();
        assert!(j.contains("\"conservation_ok\":false"), "{j}");
        assert!(j.contains("\"shard\":1"), "{j}");
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn json_has_the_documented_keys() {
        let mut s = empty_snapshot(2);
        s.now = 1234;
        s.cpu_busy_ns = 77;
        s.flash.channel_busy_ns[0] = 900;
        s.ledger.charge_flash(0, FlashOp::Read, Activity::Gc, 900);
        s.spans[SpanKind::WriteBatch.index()].record(1000);
        let j = s.to_json();
        for key in [
            "\"now_ns\":1234",
            "\"cpu_busy_ns\":77",
            "\"total_busy_ns\":",
            "\"unattributed_cpu_ns\":",
            "\"mapping_cached_pages\":",
            "\"map_cache\":{",
            "\"hits\":",
            "\"misses\":",
            "\"flash_loads\":",
            "\"evictions\":",
            "\"flash\":{",
            "\"cpu_attr_ns\":{",
            "\"flash_attr_ns\":{",
            "\"spans\":{",
            "\"write_batch\":{\"count\":1",
            "\"group_flush\":{",
            "\"p99_ns\":",
            "\"conservation_ok\":true",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
        // Every activity row appears in both attribution maps.
        let (cpu_attr, rest) = j.split_once("\"flash_attr_ns\":").expect("flash_attr_ns");
        let (flash_attr, _) = rest.split_once("\"spans\":").expect("spans");
        for a in Activity::ALL {
            let key = format!("\"{}\":", a.label());
            assert!(cpu_attr.contains(&key), "{key} missing from cpu_attr_ns: {j}");
            assert!(flash_attr.contains(&key), "{key} missing from flash_attr_ns: {j}");
        }
        // Balanced braces (cheap well-formedness check without a parser).
        assert_eq!(
            j.matches('{').count(),
            j.matches('}').count(),
            "unbalanced JSON: {j}"
        );
    }
}
