//! The ELEOS controller. [`Eleos`] owns the emulated flash device and all
//! FTL state; each paper mechanism is an `impl Eleos` block in its own
//! child module:
//!
//! | Paper | Module |
//! |---|---|
//! | III-A2 sessions, V read path | this file |
//! | IV user writes, deletes and the cross-shard 2PC share (DESIGN.md §14) | `user` |
//! | IV-B/C system-action engine, log helpers | `action` |
//! | IV-A1/A2 EBLOCK allocation and write provisioning | `provision` |
//! | VI garbage collection | `gc` |
//! | VII write failures and EBLOCK migration | `failure` |
//! | VIII-B fuzzy checkpoints | `ckpt_ops` |
//! | VIII-C crash recovery | `recovery` |
//!
//! The state is private to this module. The sharded router and the
//! group-commit front-end reach it through the few `pub(crate)` methods
//! that make up the shard interface.

mod action;
mod ckpt_ops;
mod failure;
mod gc;
mod provision;
mod recovery;
mod user;

pub use gc::SpaceReport;
pub(crate) use user::StagedAction;
pub use user::{BatchAck, WriteOpts};

use crate::batch::{decode_stored_header, ENTRY_HEADER};
use crate::ckpt::CkptArea;
use crate::config::EleosConfig;
use crate::error::{EleosError, Result};
use crate::mapping::MappingTable;
use crate::session::SessionTable;
use crate::stats::EleosStats;
use crate::summary::{EblockPurpose, EblockState, SummaryTable};
use crate::types::{ActionId, Lpid, Lsn, Sid, Usn, Wsn};
use crate::wal::{LogRecord, LogWriter};
use bytes::Bytes;
use eleos_flash::{Activity, ByteExtent, EblockAddr, FlashDevice, IoTicket, Nanos, SpanKind};
use provision::ChannelState;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// The ELEOS SSD controller.
///
/// Owns the emulated flash device and all FTL state. See the crate docs for
/// the public API walkthrough.
#[derive(Debug)]
pub struct Eleos {
    dev: FlashDevice,
    cfg: EleosConfig,
    mapping: MappingTable,
    summary: SummaryTable,
    sessions: SessionTable,
    chans: Vec<ChannelState>,
    wal: LogWriter,
    ckpt_area: CkptArea,
    usn: Usn,
    next_action: ActionId,
    active_first_lsn: BTreeMap<ActionId, Lsn>,
    trunc_lsn: Lsn,
    last_ckpt_bytes: u64,
    /// `next_lsn` recorded by the previous checkpoint; EBLOCKs open since
    /// before it are force-closed by the next checkpoint.
    last_ckpt_lsn: Lsn,
    stats: EleosStats,
    rng: StdRng,
    shutdown: bool,
    next_chan_rr: u32,
}

impl Eleos {
    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Initialize a fresh device: reserve the checkpoint area and the first
    /// log EBLOCK, build free lists, and take the initial checkpoint.
    pub fn format(mut dev: FlashDevice, cfg: EleosConfig) -> Result<Eleos> {
        dev.telemetry_mut().set_enabled(cfg.telemetry);
        let geo = *dev.geometry();
        assert!(geo.channels <= 64, "PhysAddr packs 6 channel bits");
        assert!(geo.eblocks_per_channel <= 1 << 18, "PhysAddr packs 18 eblock bits");
        assert!(
            geo.eblock_bytes() / 64 <= 1 << 20,
            "PhysAddr packs 20 offset bits of 64-byte units"
        );
        assert!(
            geo.eblocks_per_channel >= 4,
            "need room for checkpoint area, log, and data"
        );
        let mapping = MappingTable::new(
            cfg.max_user_lpid,
            cfg.map_entries_per_page,
            cfg.mapping_cache_pages,
        );
        let mut summary = SummaryTable::new(geo);
        for eb in CkptArea::reserved_eblocks() {
            summary.update(eb, 0, |d| {
                d.state = EblockState::Used;
                d.purpose = EblockPurpose::CkptArea;
            });
        }
        let log_eb = EblockAddr::new(0, 2);
        summary.update(log_eb, 0, |d| {
            d.state = EblockState::Open;
            d.purpose = EblockPurpose::Log;
        });
        let mut chans: Vec<ChannelState> = (0..geo.channels)
            .map(|_| ChannelState::new(cfg.gc.open_bins))
            .collect();
        for c in 0..geo.channels {
            let start = if c == 0 { 3 } else { 0 };
            for eb in start..geo.eblocks_per_channel {
                chans[c as usize].free.push_back(eb);
            }
        }
        let mut this = Eleos {
            dev,
            mapping,
            summary,
            sessions: SessionTable::new(),
            chans,
            wal: LogWriter::fresh(log_eb),
            ckpt_area: CkptArea::new(1),
            usn: 0,
            next_action: 1,
            active_first_lsn: BTreeMap::new(),
            trunc_lsn: 1,
            last_ckpt_bytes: 0,
            last_ckpt_lsn: 0,
            stats: EleosStats::default(),
            rng: StdRng::seed_from_u64(0x1EE0_5EED),
            shutdown: false,
            next_chan_rr: 0,
            cfg,
        };
        this.top_up_log_standbys()?;
        this.checkpoint()?;
        Ok(this)
    }

    // ------------------------------------------------------------------
    // Telemetry helpers (DESIGN.md §10)
    // ------------------------------------------------------------------

    /// Run `f` with the attribution ledger charging to `a`, restoring the
    /// previous activity afterwards (error paths included). Nested scopes
    /// compose: a GC triggered inside a user write re-attributes only its
    /// own charges.
    #[inline]
    pub(crate) fn with_activity<T>(
        &mut self,
        a: Activity,
        f: impl FnOnce(&mut Self) -> Result<T>,
    ) -> Result<T> {
        let prev = self.dev.telemetry_mut().set_activity(a);
        let res = f(self);
        self.dev.telemetry_mut().set_activity(prev);
        res
    }

    /// [`Eleos::with_activity`] that also records a `span` from the call's
    /// start when `f` succeeds — the wrapper of a public operation.
    fn traced<T>(
        &mut self,
        a: Activity,
        span: SpanKind,
        f: impl FnOnce(&mut Self) -> Result<T>,
    ) -> Result<T> {
        let t0 = self.dev.clock().now();
        let res = self.with_activity(a, f);
        if res.is_ok() {
            self.finish_span(span, t0);
        }
        res
    }

    /// Record a completed span of `kind` that started at simulated time
    /// `start` and ends now.
    #[inline]
    pub(crate) fn finish_span(&mut self, kind: SpanKind, start: Nanos) {
        let end = self.dev.clock().now();
        self.dev.telemetry_mut().record_span(kind, start, end);
    }

    /// Charge host-side CPU attributed to `a` — the hook out-of-crate
    /// layers (the wire-protocol server's frame decode and dispatch under
    /// [`Activity::Net`]) use to keep the attribution ledger's
    /// conservation invariant exact.
    #[inline]
    pub fn charge_host_cpu(&mut self, a: Activity, ns: Nanos) {
        let prev = self.dev.telemetry_mut().set_activity(a);
        self.dev.cpu(ns);
        self.dev.telemetry_mut().set_activity(prev);
    }

    /// Record an EBLOCK lifecycle event in the structured event ring (the
    /// chaos harness dumps the tail on divergence).
    fn trace_eb(&mut self, eb: EblockAddr, what: &str) {
        let now = self.dev.clock().now();
        let lsn = self.wal.next_lsn();
        self.dev
            .telemetry_mut()
            .event(now, eb.channel, eb.eblock, || format!("{what} next_lsn {lsn}"));
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Current virtual time (CPU timeline).
    pub fn now(&self) -> Nanos {
        self.dev.clock().now()
    }

    pub fn device(&self) -> &FlashDevice {
        &self.dev
    }

    pub fn device_mut(&mut self) -> &mut FlashDevice {
        &mut self.dev
    }

    pub fn config(&self) -> &EleosConfig {
        &self.cfg
    }

    /// Wait until all in-flight flash operations complete (end of an
    /// experiment).
    pub fn drain(&mut self) {
        self.dev.clock_mut().drain();
    }

    /// Simulate a controller crash: all volatile state is dropped; only the
    /// flash device (and its clock/stats) survives. Recover with
    /// [`Eleos::recover`].
    pub fn crash(self) -> FlashDevice {
        self.dev
    }

    // ------------------------------------------------------------------
    // Sessions (Section III-A2)
    // ------------------------------------------------------------------

    /// Open an ordered-write session; the controller assigns a random SID
    /// and makes the session durable before returning it.
    pub fn open_session(&mut self) -> Result<Sid> {
        let mut sid: Sid = self.rng.gen();
        while sid == 0 || self.sessions.is_open(sid) {
            sid = self.rng.gen();
        }
        self.open_session_as(sid)?;
        Ok(sid)
    }

    /// Open a session under a caller-chosen SID (durable before
    /// returning). The sharded router uses this to mirror one logical
    /// session onto every shard so any shard can gate that session's
    /// writes; SID 0 is reserved and an already-open SID is rejected.
    pub fn open_session_as(&mut self, sid: Sid) -> Result<()> {
        if sid == 0 || self.sessions.is_open(sid) {
            return Err(EleosError::UnknownSession(sid));
        }
        self.sessions.open(sid);
        self.log_session(LogRecord::SessionOpen { sid })
    }

    /// Close a session (durable before returning, like the open).
    pub fn close_session(&mut self, sid: Sid) -> Result<()> {
        if !self.sessions.is_open(sid) {
            return Err(EleosError::UnknownSession(sid));
        }
        self.sessions.close(sid);
        self.log_session(LogRecord::SessionClose { sid })
    }

    /// Append a session open or close and wait until it is durable.
    fn log_session(&mut self, rec: LogRecord) -> Result<()> {
        self.log_append(&rec)?;
        let t = self.log_force()?;
        self.dev.clock_mut().wait_until(t);
        Ok(())
    }

    /// Highest WSN applied for a session (the value re-ACKed on
    /// out-of-order writes).
    pub fn session_highest_wsn(&self, sid: Sid) -> Option<Wsn> {
        self.sessions.highest_wsn(sid)
    }

    /// Reject advances for SID 0 or for a session that is not open. The
    /// sharded router asks its coordinator, where every session is
    /// mirrored.
    pub(crate) fn check_sessions_open(&self, advances: &[(Sid, Wsn)]) -> Result<()> {
        match advances
            .iter()
            .find(|&&(sid, _)| sid == 0 || !self.sessions.is_open(sid))
        {
            Some(&(sid, _)) => Err(EleosError::UnknownSession(sid)),
            None => Ok(()),
        }
    }

    // ------------------------------------------------------------------
    // Read path (Section V)
    // ------------------------------------------------------------------

    /// Read the current content of an LPAGE by LPID (`read_LPID` of
    /// Section IX-A2). Returns exactly the payload bytes — adjacent data in
    /// the covering RBLOCKs is never revealed. The returned [`Bytes`] is a
    /// zero-copy view of the device's stored buffer whenever the LPAGE sits
    /// inside one WBLOCK.
    pub fn read(&mut self, lpid: Lpid) -> Result<Bytes> {
        self.traced(Activity::UserRead, SpanKind::Read, |this| {
            let profile = *this.dev.profile();
            this.dev
                .cpu(profile.host_submit_ns + profile.read_ctx_ns);
            let addr = this
                .mapping
                .get(lpid, &mut this.dev)?
                .ok_or(EleosError::NotFound(lpid))?;
            let (bytes, t) = this.dev.read_extent(addr.extent())?;
            this.dev.clock_mut().wait_until(t);
            let (stored_lpid, _kind, plen) = decode_stored_header(&bytes)?;
            if stored_lpid != lpid {
                return Err(EleosError::Corrupt("stored lpage identity mismatch"));
            }
            this.dev.cpu(profile.transport_cpu(plen as u64));
            this.stats.reads += 1;
            this.stats.read_bytes += plen as u64;
            Ok(bytes.slice(ENTRY_HEADER..ENTRY_HEADER + plen))
        })
    }

    /// Read a batch of LPAGEs, overlapping flash reads that land on
    /// distinct channels (deferred completion): all extents are submitted
    /// up front and the CPU waits once for the collective horizon instead
    /// of serializing on each read. Returns payloads in input order; any
    /// unmapped LPID fails the whole call.
    pub fn read_batch(&mut self, lpids: &[Lpid]) -> Result<Vec<Bytes>> {
        self.traced(Activity::UserRead, SpanKind::ReadBatch, |this| {
            let profile = *this.dev.profile();
            // Phase 1: mapping lookups, interleaved with their CPU charges
            // (mapping faults read flash but never block the CPU).
            let mut addrs = Vec::with_capacity(lpids.len());
            for &lpid in lpids {
                this.dev
                    .cpu(profile.host_submit_ns + profile.read_ctx_ns);
                let addr = this
                    .mapping
                    .get(lpid, &mut this.dev)?
                    .ok_or(EleosError::NotFound(lpid))?;
                addrs.push(addr);
            }
            // Phase 2: submit every data read, channel-major, then wait once.
            let exts: Vec<ByteExtent> = addrs.iter().map(|a| a.extent()).collect();
            let reads = this.dev.read_extents_async(&exts)?;
            let tickets: Vec<IoTicket> = reads.iter().map(|r| r.1).collect();
            this.dev.clock_mut().wait_all(&tickets);
            // Phase 3: decode and hand back views.
            let mut out = Vec::with_capacity(lpids.len());
            for (&lpid, (bytes, _)) in lpids.iter().zip(reads) {
                let (stored_lpid, _kind, plen) = decode_stored_header(&bytes)?;
                if stored_lpid != lpid {
                    return Err(EleosError::Corrupt("stored lpage identity mismatch"));
                }
                this.dev.cpu(profile.transport_cpu(plen as u64));
                this.stats.reads += 1;
                this.stats.read_bytes += plen as u64;
                out.push(bytes.slice(ENTRY_HEADER..ENTRY_HEADER + plen));
            }
            Ok(out)
        })
    }

    /// Current stored length (on-flash bytes) of an LPID, if mapped.
    pub fn stored_len(&mut self, lpid: Lpid) -> Result<Option<u64>> {
        Ok(self.mapping.get(lpid, &mut self.dev)?.map(|a| a.len))
    }

    // ------------------------------------------------------------------
    // Observability
    // ------------------------------------------------------------------

    /// One coherent view of everything observable about this controller at
    /// the current simulated instant: operation counters, flash counters,
    /// mapping-cache counters, the time-attribution ledger, and the
    /// latency span histograms.
    pub fn snapshot(&self) -> crate::telemetry_snapshot::TelemetrySnapshot {
        let t = self.dev.telemetry();
        crate::telemetry_snapshot::TelemetrySnapshot {
            now: self.dev.clock().now(),
            cpu_busy_ns: self.dev.clock().cpu_busy_ns(),
            eleos: self.stats.clone(),
            flash: self.dev.stats().clone(),
            mapping_cached_pages: self.mapping.cached_pages(),
            map_cache: self.mapping.cache_stats(),
            ledger: t.ledger.clone(),
            spans: t.spans().to_vec(),
        }
    }

    /// Newest `n` structured events (oldest first) — the bounded event ring
    /// the chaos harness dumps on divergence.
    pub fn recent_events(&self, n: usize) -> Vec<String> {
        self.dev
            .telemetry()
            .ring
            .tail(n)
            .map(|e| e.to_string())
            .collect()
    }
}
