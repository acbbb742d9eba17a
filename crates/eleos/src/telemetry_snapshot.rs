//! The unified controller observability snapshot (DESIGN.md §10).
//!
//! [`Eleos::snapshot`](crate::Eleos::snapshot) returns one coherent view
//! of everything observable at the current simulated instant, and
//! [`TelemetrySnapshot::visit`] lists every metric in it once for its
//! renderings. A snapshot is a plain value: benches diff two of them,
//! merge ledgers across phases, and render attribution tables without
//! re-touching the controller.
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

    /// Calls `f(key, value)` for every metric of the snapshot, each key
    /// once, in this order: `now_ns`, `cpu_busy_ns`; `eleos.<counter>`,
    /// `flash.<counter>`, `flash.channel_busy_ns.<channel>`;
    /// `mapping.cached_pages`, `mapping.<counter>`; per [`Activity`],
    /// `ledger.cpu.<activity>` then `ledger.flash.<activity>.<op>`; per
    /// [`SpanKind`], `span.<kind>.{count,sum,p50,p99,max}`. Counter names
    /// come from the `counters!` declarations of [`EleosStats`],
    /// [`FlashStats`] and [`MapCacheStats`], so a new counter reaches the
    /// JSON and the simulation fingerprint unasked. Keys are formatted on
    /// the fly: call this from rendering code only, never from a path
    /// that serves a request.
    pub fn visit(&self, mut f: impl FnMut(&str, u64)) {
        let mut put = |key: std::fmt::Arguments, v: u64| f(&key.to_string(), v);
        put(format_args!("now_ns"), self.now);
        put(format_args!("cpu_busy_ns"), self.cpu_busy_ns);
        self.eleos.visit(|n, v| put(format_args!("eleos.{n}"), v));
        self.flash.visit(|n, v| put(format_args!("flash.{n}"), v));
        for (ch, &ns) in self.flash.channel_busy_ns.iter().enumerate() {
            put(format_args!("flash.channel_busy_ns.{ch}"), ns);
        }
        put(format_args!("mapping.cached_pages"), self.mapping_cached_pages as u64);
        self.map_cache.visit(|n, v| put(format_args!("mapping.{n}"), v));
        for a in Activity::ALL {
            put(format_args!("ledger.cpu.{}", a.label()), self.ledger.cpu_ns(a));
            for op in FlashOp::ALL {
                let ns = self.ledger.op_activity_ns(op, a);
                put(format_args!("ledger.flash.{}.{}", a.label(), op.label()), ns);
            }
        }
        for k in SpanKind::ALL {
            let h = self.span(k);
            let stats = [h.count(), h.sum(), h.p50(), h.p99(), h.max()];
            for (stat, v) in ["count", "sum", "p50", "p99", "max"].into_iter().zip(stats) {
                put(format_args!("span.{}.{stat}", k.label()), v);
            }
        }
    }

    /// Render the snapshot as one flat JSON object (hand-rolled — the
    /// workspace carries no serde): every [`TelemetrySnapshot::visit`]
    /// key with its value, then the derived `total_busy_ns`,
    /// `unattributed_cpu_ns` and `conservation_ok` (a bool).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        self.visit(|k, v| s.push_str(&format!("\"{k}\":{v},")));
        let _ = write!(
            s,
            "\"total_busy_ns\":{},\"unattributed_cpu_ns\":{},\"conservation_ok\":{}}}",
            self.total_busy_ns(),
            self.unattributed_cpu_ns(),
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
            t.add(&s.eleos);
        }
        t
    }

    /// Summed device counters; `channel_busy_ns` concatenates the shards'
    /// channel slots in shard order (disjoint physical channels).
    pub fn flash(&self) -> FlashStats {
        let mut t = FlashStats::default();
        for s in &self.shards {
            t.add(&s.flash);
            t.channel_busy_ns.extend_from_slice(&s.flash.channel_busy_ns);
        }
        t
    }

    /// Summed mapping-cache counters across shards.
    pub fn map_cache(&self) -> MapCacheStats {
        let mut t = MapCacheStats::default();
        for s in &self.shards {
            t.add(&s.map_cache);
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
    use std::collections::BTreeMap;

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

    /// A 2-channel snapshot whose counters are all distinct and non-zero.
    #[rustfmt::skip]
    fn counted(b: u64) -> TelemetrySnapshot {
        TelemetrySnapshot {
            eleos: EleosStats {
                batches: b, lpages: b + 1, payload_bytes: b + 2, stored_bytes: b + 3,
                reads: b + 4, read_bytes: b + 5, commits: b + 6, aborts: b + 7,
                gc_collections: b + 8, gc_moved_pages: b + 9, gc_moved_bytes: b + 10,
                gc_erases: b + 11, migrations: b + 12, checkpoints: b + 13,
                gc_installs_aborted: b + 14, program_failures: b + 15, action_retries: b + 16,
                gc_relocation_aborts: b + 17, wal_fallbacks: b + 18, retired_eblocks: b + 19,
            },
            flash: FlashStats {
                programs: b + 20, program_failures: b + 21, bytes_programmed: b + 22,
                rblock_reads: b + 23, bytes_read: b + 24, erases: b + 25,
                channel_busy_ns: vec![0; 2],
            },
            map_cache: MapCacheStats {
                hits: b + 26, misses: b + 27, flash_loads: b + 28, evictions: b + 29,
            },
            ..empty_snapshot(2)
        }
    }

    /// Every visited key mapped to its value.
    fn visited(s: &TelemetrySnapshot) -> BTreeMap<String, u64> {
        let mut keys = BTreeMap::new();
        s.visit(|k, v| assert!(keys.insert(k.to_string(), v).is_none(), "{k} twice"));
        keys
    }

    #[test]
    fn json_sees_every_counter() {
        let (a, mut b) = (empty_snapshot(2), empty_snapshot(2));
        b.eleos.aborts = 1;
        // The same count, quantiles and max; one more nanosecond in total.
        let spans = |last: u64| {
            let mut s = empty_snapshot(2);
            for v in [896, 1100, last].into_iter().chain([1000; 97]) {
                s.spans[SpanKind::Read.index()].record(v);
            }
            s
        };
        for (x, y, key) in [(a, b, "eleos.aborts"), (spans(1000), spans(1001), "span.read.sum")] {
            let (vx, vy) = (visited(&x), visited(&y));
            assert_eq!(vx.keys().filter(|&k| vx[k] != vy[k]).collect::<Vec<_>>(), [key]);
            assert_ne!(x.to_json(), y.to_json(), "{key} is missing from the JSON");
        }
    }

    #[test]
    fn merge_sums_counters_and_keeps_conservation_per_shard() {
        let mut a = counted(1);
        a.now = 100;
        a.cpu_busy_ns = 10;
        a.flash.channel_busy_ns[0] = 50;
        a.ledger.charge_flash(0, FlashOp::Program, Activity::UserWrite, 50);
        a.spans[SpanKind::WriteBatch.index()].record(500);
        let mut b = counted(100);
        b.now = 400;
        b.cpu_busy_ns = 5;
        b.spans[SpanKind::WriteBatch.index()].record(900);
        let (va, vb) = (visited(&a), visited(&b));
        let m = TelemetrySnapshot::merge(vec![a, b]);
        // Every scalar counter of the merge is the sum over the shards.
        let merged = TelemetrySnapshot {
            eleos: m.eleos(),
            flash: m.flash(),
            map_cache: m.map_cache(),
            ..empty_snapshot(0)
        };
        let mut summed = 0;
        for (k, v) in visited(&merged) {
            let counter = ["eleos.", "flash.", "mapping."].iter().any(|p| k.starts_with(p));
            if counter && !k.starts_with("flash.channel_busy_ns.") && k != "mapping.cached_pages" {
                assert_eq!(v, va[&k] + vb[&k], "{k}");
                summed += 1;
            }
        }
        assert_eq!(summed, 30);
        assert_eq!(m.now(), 400);
        assert_eq!(m.cpu_busy_ns(), 15);
        assert_eq!(m.flash().channel_busy_ns, [50, 0, 0, 0], "channels concatenate");
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
    fn json_has_every_visited_key() {
        let mut s = counted(1);
        s.now = 1234;
        s.cpu_busy_ns = 77;
        s.flash.channel_busy_ns[0] = 900;
        s.ledger.charge_flash(0, FlashOp::Read, Activity::Gc, 900);
        s.spans[SpanKind::WriteBatch.index()].record(1000);
        let j = s.to_json();
        let keys = visited(&s);
        for (k, v) in &keys {
            assert!(j.contains(&format!("\"{k}\":{v},")), "missing {k}:{v} in {j}");
        }
        // No other key but the three derived ones, and nothing nested.
        assert_eq!(j.matches("\":").count(), keys.len() + 3, "{j}");
        assert!(j.contains("\"total_busy_ns\":") && j.contains("\"unattributed_cpu_ns\":"), "{j}");
        assert!(j.ends_with(",\"conservation_ok\":true}"), "{j}");
        assert_eq!((j.matches('{').count(), j.matches('}').count()), (1, 1), "{j}");
        let has = |k: String| assert!(keys.contains_key(&k), "{k} is not visited");
        (0..2).for_each(|ch| has(format!("flash.channel_busy_ns.{ch}")));
        for a in Activity::ALL {
            has(format!("ledger.cpu.{}", a.label()));
            for op in FlashOp::ALL {
                has(format!("ledger.flash.{}.{}", a.label(), op.label()));
            }
        }
        for k in SpanKind::ALL {
            for stat in ["count", "sum", "p50", "p99", "max"] {
                has(format!("span.{}.{stat}", k.label()));
            }
        }
    }
}
