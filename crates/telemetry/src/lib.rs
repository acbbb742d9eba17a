//! # eleos-telemetry — deterministic simulated-time observability
//!
//! Observability primitives for the discrete-event SSD simulation
//! (DESIGN.md §10). Everything here is driven by *simulated* nanoseconds
//! taken from `SimClock`, never wall clock, so recording is replay-stable:
//! a run with telemetry enabled is tick- and byte-identical to one with it
//! disabled. Recording never touches the clock, the RNG, or control flow —
//! it only accumulates counters on the side.
//!
//! Four primitives:
//!
//! * [`LatencyHistogram`] — log-bucketed (4 sub-buckets per octave, ≤ 25 %
//!   relative error), mergeable, with p50/p95/p99/max;
//! * [`AttributionLedger`] — splits every simulated busy nanosecond by
//!   resource (per-channel flash program/read/erase, controller CPU) ×
//!   [`Activity`] (user write, user read, GC, checkpoint, WAL, recovery…);
//! * [`EventRing`] — bounded structured event buffer subsuming the old
//!   `ELEOS_TRACE_EB` print hack;
//! * [`Telemetry`] — the per-device container holding all of the above
//!   plus the *current activity* used to attribute charges.

#![forbid(unsafe_code)]

mod hist;
mod ledger;
mod ring;

pub use hist::LatencyHistogram;
pub use ledger::AttributionLedger;
pub use ring::{Event, EventRing};

/// Simulated nanoseconds (mirrors `eleos_flash::Nanos`; this crate is
/// dependency-free so the flash crate can depend on it).
pub type Nanos = u64;

/// What the controller is doing when a resource is consumed. Attribution
/// taxonomy of the ledger's columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Activity {
    /// Foreground batched user writes (parse, provision, program, commit).
    UserWrite,
    /// Foreground reads (`read`, `read_batch`).
    UserRead,
    /// GC victim selection, validity scans, relocation and erases.
    Gc,
    /// Checkpointing (map/table/summary flushes, ckpt-area programs).
    Ckpt,
    /// WAL page seals and log forces.
    Wal,
    /// Crash recovery (scan, replay, rebuild, fixups).
    Recovery,
    /// Write-failure migration of already-durable pages.
    Migrate,
    /// Mapping (translation) page I/O: demand faults reading translation
    /// pages from flash, and cache-pressure eviction flushes of dirty
    /// ones. Checkpoint-driven mapping flushes stay under `Ckpt`.
    MapIo,
    /// Host front-end work: group-commit queueing, coalescing client
    /// batches, and time-threshold flush waits (DESIGN.md §11).
    Frontend,
    /// Network service work: wire-frame decode, per-connection session
    /// bookkeeping, and ingress dispatch in `eleos-server` (DESIGN.md §16).
    Net,
    /// Time charged on the shared clock outside the controller (host-side
    /// CPU from bwtree/lss drivers, unattributed residue).
    Host,
}

impl Activity {
    pub const COUNT: usize = 11;
    pub const ALL: [Activity; Activity::COUNT] = [
        Activity::UserWrite,
        Activity::UserRead,
        Activity::Gc,
        Activity::Ckpt,
        Activity::Wal,
        Activity::Recovery,
        Activity::Migrate,
        Activity::MapIo,
        Activity::Frontend,
        Activity::Net,
        Activity::Host,
    ];

    #[inline]
    pub fn index(self) -> usize {
        match self {
            Activity::UserWrite => 0,
            Activity::UserRead => 1,
            Activity::Gc => 2,
            Activity::Ckpt => 3,
            Activity::Wal => 4,
            Activity::Recovery => 5,
            Activity::Migrate => 6,
            Activity::MapIo => 7,
            Activity::Frontend => 8,
            Activity::Net => 9,
            Activity::Host => 10,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Activity::UserWrite => "user_write",
            Activity::UserRead => "user_read",
            Activity::Gc => "gc",
            Activity::Ckpt => "ckpt",
            Activity::Wal => "wal",
            Activity::Recovery => "recovery",
            Activity::Migrate => "migrate",
            Activity::MapIo => "map_io",
            Activity::Frontend => "frontend",
            Activity::Net => "net",
            Activity::Host => "host",
        }
    }
}

/// The three flash operations a channel can spend time on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FlashOp {
    Program,
    Read,
    Erase,
}

impl FlashOp {
    pub const COUNT: usize = 3;
    pub const ALL: [FlashOp; FlashOp::COUNT] = [FlashOp::Program, FlashOp::Read, FlashOp::Erase];

    #[inline]
    pub fn index(self) -> usize {
        match self {
            FlashOp::Program => 0,
            FlashOp::Read => 1,
            FlashOp::Erase => 2,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            FlashOp::Program => "program",
            FlashOp::Read => "read",
            FlashOp::Erase => "erase",
        }
    }
}

/// Operation kinds whose end-to-end simulated latency gets a histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// One `write(batch, opts)` call, submit to durable ACK.
    WriteBatch,
    /// One point `read`.
    Read,
    /// One `read_batch` call.
    ReadBatch,
    /// One `delete_batch` call.
    DeleteBatch,
    /// One GC collection round (victims selected → relocated → erased).
    GcCollect,
    /// One checkpoint.
    Checkpoint,
    /// One full crash recovery.
    Recovery,
    /// One group-commit flush: group opened (first batch enqueued) to the
    /// covering `Eleos::write` reaching durability.
    GroupFlush,
}

impl SpanKind {
    pub const COUNT: usize = 8;
    pub const ALL: [SpanKind; SpanKind::COUNT] = [
        SpanKind::WriteBatch,
        SpanKind::Read,
        SpanKind::ReadBatch,
        SpanKind::DeleteBatch,
        SpanKind::GcCollect,
        SpanKind::Checkpoint,
        SpanKind::Recovery,
        SpanKind::GroupFlush,
    ];

    #[inline]
    pub fn index(self) -> usize {
        match self {
            SpanKind::WriteBatch => 0,
            SpanKind::Read => 1,
            SpanKind::ReadBatch => 2,
            SpanKind::DeleteBatch => 3,
            SpanKind::GcCollect => 4,
            SpanKind::Checkpoint => 5,
            SpanKind::Recovery => 6,
            SpanKind::GroupFlush => 7,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            SpanKind::WriteBatch => "write_batch",
            SpanKind::Read => "read",
            SpanKind::ReadBatch => "read_batch",
            SpanKind::DeleteBatch => "delete_batch",
            SpanKind::GcCollect => "gc_collect",
            SpanKind::Checkpoint => "checkpoint",
            SpanKind::Recovery => "recovery",
            SpanKind::GroupFlush => "group_flush",
        }
    }
}

/// Per-device telemetry state: the attribution ledger, one latency
/// histogram per [`SpanKind`], the bounded event ring, and the *current
/// activity* that charges are attributed to.
///
/// When `enabled` is false every recording call is a cheap no-op (a branch
/// on one bool); the activity scoping still tracks so enabling telemetry
/// mid-run attributes correctly from that point on.
#[derive(Debug, Clone)]
pub struct Telemetry {
    enabled: bool,
    /// `!0` when enabled, `0` when disabled: the ledger charge paths mask
    /// the nanosecond amount instead of branching, so the disabled path is
    /// an unconditional add of zero — branch-free on the hot path.
    mask: Nanos,
    activity: Activity,
    pub ledger: AttributionLedger,
    spans: Vec<LatencyHistogram>,
    pub ring: EventRing,
}

/// Default bound on the structured event ring.
pub const DEFAULT_RING_CAPACITY: usize = 1024;

impl Telemetry {
    pub fn new(channels: usize, enabled: bool) -> Self {
        Telemetry {
            enabled,
            mask: if enabled { !0 } else { 0 },
            activity: Activity::Host,
            ledger: AttributionLedger::new(channels),
            spans: vec![LatencyHistogram::new(); SpanKind::COUNT],
            ring: EventRing::new(DEFAULT_RING_CAPACITY),
        }
    }

    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
        self.mask = if enabled { !0 } else { 0 };
    }

    #[inline]
    pub fn activity(&self) -> Activity {
        self.activity
    }

    /// Switch the current activity, returning the previous one so callers
    /// can restore it (`let prev = t.set_activity(a); ...; t.set_activity(prev)`).
    #[inline]
    pub fn set_activity(&mut self, activity: Activity) -> Activity {
        std::mem::replace(&mut self.activity, activity)
    }

    /// Attribute `ns` of controller CPU to the current activity.
    /// Branch-free: with telemetry disabled the masked amount is zero and
    /// the add is a no-op, so the write hot path never branches here.
    #[inline]
    pub fn charge_cpu(&mut self, ns: Nanos) {
        self.ledger.charge_cpu(self.activity, ns & self.mask);
    }

    /// Attribute `ns` of channel time to (channel, op, current activity).
    /// Branch-free like [`Telemetry::charge_cpu`].
    #[inline]
    pub fn charge_flash(&mut self, channel: u32, op: FlashOp, ns: Nanos) {
        self.ledger
            .charge_flash(channel, op, self.activity, ns & self.mask);
    }

    /// Record a completed span of simulated time `[start, end]`.
    #[inline]
    pub fn record_span(&mut self, kind: SpanKind, start: Nanos, end: Nanos) {
        if self.enabled {
            self.spans[kind.index()].record(end.saturating_sub(start));
        }
    }

    pub fn span(&self, kind: SpanKind) -> &LatencyHistogram {
        &self.spans[kind.index()]
    }

    pub fn spans(&self) -> &[LatencyHistogram] {
        &self.spans
    }

    /// Push a structured event; `what` is built lazily so disabled
    /// telemetry never pays the formatting cost.
    #[inline]
    pub fn event(&mut self, at: Nanos, channel: u32, eblock: u32, what: impl FnOnce() -> String) {
        if self.enabled {
            self.ring.push(Event {
                at,
                channel,
                eblock,
                what: what(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activity_indices_are_a_permutation() {
        let mut seen = [false; Activity::COUNT];
        for a in Activity::ALL {
            assert!(!seen[a.index()], "{a:?} collides");
            seen[a.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
        let mut seen = [false; FlashOp::COUNT];
        for op in FlashOp::ALL {
            assert!(!seen[op.index()]);
            seen[op.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
        let mut seen = [false; SpanKind::COUNT];
        for k in SpanKind::ALL {
            assert!(!seen[k.index()]);
            seen[k.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn disabled_telemetry_records_nothing() {
        let mut t = Telemetry::new(2, false);
        t.charge_cpu(100);
        t.charge_flash(1, FlashOp::Program, 50);
        t.record_span(SpanKind::WriteBatch, 0, 10);
        t.event(5, 0, 0, || unreachable!("must not format when disabled"));
        assert_eq!(t.ledger.cpu_total(), 0);
        assert_eq!(t.ledger.flash_total(), 0);
        assert!(t.span(SpanKind::WriteBatch).is_empty());
        assert_eq!(t.ring.len(), 0);
    }

    #[test]
    fn activity_scoping_attributes_charges() {
        let mut t = Telemetry::new(1, true);
        let prev = t.set_activity(Activity::Gc);
        assert_eq!(prev, Activity::Host);
        t.charge_cpu(40);
        t.charge_flash(0, FlashOp::Erase, 2000);
        t.set_activity(prev);
        t.charge_cpu(5);
        assert_eq!(t.ledger.cpu_ns(Activity::Gc), 40);
        assert_eq!(t.ledger.cpu_ns(Activity::Host), 5);
        assert_eq!(t.ledger.flash_ns(0, FlashOp::Erase, Activity::Gc), 2000);
        assert_eq!(t.ledger.flash_total(), 2000);
    }
}
