//! The ELEOS controller: system-action engine, write path (Section IV),
//! read path (Section V), sessions, and write-failure handling (Section
//! VII). GC lives in `gc.rs`, checkpointing in `ckpt_ops.rs`, recovery in
//! `recovery.rs` — all as `impl Eleos` blocks.

use crate::batch::{decode_stored_header, parse_batch, WriteBatch, ENTRY_HEADER};
use crate::ckpt::CkptArea;
use crate::config::EleosConfig;
use crate::error::{EleosError, Result};
use crate::mapping::MappingTable;
use crate::phys::{PhysAddr, NULL_PADDR};
use crate::provision::{encode_eblock_meta, ChannelState, OpenEblock};
use crate::session::SessionTable;
use crate::stats::EleosStats;
use crate::summary::{EblockPurpose, EblockState, SummaryTable};
use crate::types::{ActionId, ActionKind, IntHash, Lpid, Lsn, PageKind, Sid, Usn, Wsn};
use crate::wal::{LogRecord, LogWriter, SealOutcome};
use bytes::Bytes;
use eleos_flash::{
    Activity, ByteExtent, EblockAddr, FlashDevice, FlashError, IoTicket, Nanos, SpanKind,
    WblockAddr,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashSet};

/// Options for [`Eleos::write`] — the single write entry point.
///
/// The default is an unordered, synchronous write (the common case).
/// Session-ordered and pipelined variants are opted into per call:
///
/// ```ignore
/// ssd.write(&batch, WriteOpts::default())?;                    // unordered
/// ssd.write(&batch, WriteOpts::ordered(sid, wsn))?;            // WSN-checked
/// ssd.write(&batch, WriteOpts::ordered_pipelined(sid, wsn))?;  // no ACK wait
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteOpts {
    /// Ordered-write session: `(sid, wsn)`; `wsn` must be exactly one
    /// higher than the session's highest applied WSN (Section III-A2).
    pub session: Option<(Sid, Wsn)>,
    /// Skip the durability wait: the call returns once the commit record
    /// is appended, and `BatchAck::done_at` tells when the buffer becomes
    /// durable ("waiting for an ACK wastes parallelism").
    pub pipelined: bool,
}

impl WriteOpts {
    /// Session-ordered synchronous write.
    pub fn ordered(sid: Sid, wsn: Wsn) -> Self {
        WriteOpts {
            session: Some((sid, wsn)),
            pipelined: false,
        }
    }

    /// Session-ordered pipelined write (no durability wait).
    pub fn ordered_pipelined(sid: Sid, wsn: Wsn) -> Self {
        WriteOpts {
            session: Some((sid, wsn)),
            pipelined: true,
        }
    }
}

/// Acknowledgement returned for a committed write buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchAck {
    /// LPAGEs durably written.
    pub lpages: usize,
    /// Virtual time at which the buffer became durable.
    pub done_at: Nanos,
}

/// One page of work inside a system action: the stored entry bytes plus the
/// conditional-install expectation for GC/migration.
#[derive(Debug, Clone)]
pub(crate) struct ActionPage {
    pub lpid: Lpid,
    pub kind: PageKind,
    /// Stored entry bytes (header + payload + padding). A refcounted view —
    /// for user writes a slice of the batch buffer, for GC/migration the
    /// flash read result — so building an action never copies page payloads.
    pub bytes: Bytes,
    /// Packed address this page is being relocated from (GC/migrate);
    /// `NULL_PADDR` for user and checkpoint writes.
    pub old_addr: u64,
}

/// Where a system action's pages are provisioned.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Dest {
    /// Distribute across all channels into the user open EBLOCKs (Fig. 3
    /// "new LPAGE write"; checkpoint table writes use this too).
    User,
    /// Write into the age-binned GC open EBLOCKs (Section VI-B) of the
    /// victim's channel, or of the channel [`Eleos::gc_dest_channel`]
    /// redirects to — resolved when the segment is provisioned.
    GcBin { victim_channel: u32, victim_ts: Usn },
}

/// A contiguous run of a system action's pages and where it is
/// provisioned. User, checkpoint and migration actions are one segment; a
/// GC pass's relocation action has one per victim, in victim order.
pub(crate) type Segment = (std::ops::Range<usize>, Dest);

/// What a staged user action counts when it commits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StagedKind {
    /// A user write and its batch statistics.
    Write {
        lpages: u64,
        payload_bytes: u64,
        stored_bytes: u64,
    },
    /// A delete (TRIM): entries install `NULL_PADDR`.
    Delete,
}

impl StagedKind {
    /// Count a committed write's batch; a delete counts only its commit.
    fn count(self, stats: &mut EleosStats) {
        if let StagedKind::Write {
            lpages,
            payload_bytes,
            stored_bytes,
        } = self
        {
            stats.batches += 1;
            stats.lpages += lpages;
            stats.payload_bytes += payload_bytes;
            stats.stored_bytes += stored_bytes;
        }
    }
}

/// A user write or delete staged for commit: its `Write` records are
/// logged and its data programs submitted, but nothing is installed. A
/// direct delete commits it at once; one shard's share of a cross-shard
/// group (see `eleos::sharded`) is *prepared* instead — a forced `Prepare
/// { gid }` follows the stage and the group's outcome belongs to the
/// coordinator: [`Eleos::commit_prepared`] or [`Eleos::abort_prepared`]
/// finishes it (recovery resolves survivors by consulting the coordinator
/// log for `CoordCommit { gid }`).
#[derive(Debug, Clone)]
pub(crate) struct StagedAction {
    pub id: ActionId,
    /// LSN of the action's first `Write` record (the install tag).
    pub first_lsn: Lsn,
    /// Simulated time the controller started on the action (span start).
    pub t0: Nanos,
    /// `(lpid, packed new address)` per page, in batch order
    /// (`NULL_PADDR` for deletes).
    pub entries: Vec<(Lpid, u64)>,
    /// Provisioned addresses — freed as garbage if the group aborts
    /// (empty for deletes, which provision nothing).
    pub new_addrs: Vec<PhysAddr>,
    /// When the staged work — data programs, and a prepared action's
    /// forced `Prepare` — is durable.
    pub durable: Nanos,
    pub kind: StagedKind,
}

/// A planned EBLOCK close produced during provisioning.
#[derive(Debug)]
pub(crate) struct CloseEvent {
    pub addr: EblockAddr,
    pub ts: Usn,
    pub data_wblocks: u16,
    pub meta_wblocks: u16,
    /// Encoded metadata pages, kept for abort-repair (Section VII).
    pub meta_pages: Vec<Bytes>,
    /// The metadata entries themselves, kept so a write failure in this
    /// EBLOCK can still migrate it (the flash copy may never land).
    pub entries: Vec<(PageKind, Lpid)>,
}

/// Output of write provisioning for one system action (for a GC pass, of
/// every round it staged).
#[derive(Debug, Default)]
pub(crate) struct Plan {
    /// Physical address per page (parallel to the action's page list).
    pub addrs: Vec<PhysAddr>,
    /// WBLOCK programs to execute, in required program order. Each buffer
    /// is a refcounted view (typically a slice of the batch buffer) that
    /// the device adopts without copying.
    pub ios: Vec<(WblockAddr, Bytes)>,
    /// EBLOCKs closed by this action.
    pub closes: Vec<CloseEvent>,
    /// Data regions provisioned: (eblock, start byte, end byte).
    pub touched: Vec<(EblockAddr, u64, u64)>,
}

impl Plan {
    /// Packed new address of page `i`: null under a delete's empty plan.
    fn new_addr(&self, i: usize) -> u64 {
        self.addrs.get(i).map_or(NULL_PADDR, |a| a.pack())
    }
}

/// The ELEOS SSD controller.
///
/// Owns the emulated flash device and all FTL state. See the crate docs for
/// the public API walkthrough.
#[derive(Debug)]
pub struct Eleos {
    pub(crate) dev: FlashDevice,
    pub(crate) cfg: EleosConfig,
    pub(crate) mapping: MappingTable,
    pub(crate) summary: SummaryTable,
    pub(crate) sessions: SessionTable,
    pub(crate) chans: Vec<ChannelState>,
    pub(crate) wal: LogWriter,
    pub(crate) ckpt_area: CkptArea,
    pub(crate) usn: Usn,
    pub(crate) next_action: ActionId,
    pub(crate) active_first_lsn: BTreeMap<ActionId, Lsn>,
    pub(crate) trunc_lsn: Lsn,
    pub(crate) last_ckpt_bytes: u64,
    /// `next_lsn` recorded by the previous checkpoint; EBLOCKs open since
    /// before it are force-closed by the next checkpoint.
    pub(crate) last_ckpt_lsn: Lsn,
    pub(crate) stats: EleosStats,
    pub(crate) rng: StdRng,
    pub(crate) shutdown: bool,
    pub(crate) next_chan_rr: u32,
    /// `ELEOS_TRACE_EB=ch/eb` parsed once at construction; when set,
    /// matching EBLOCK events are also mirrored to stderr (the event ring
    /// records them regardless, whenever telemetry is enabled).
    pub(crate) trace_filter: Option<(u32, u32)>,
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
            cfg.mapping_cache_policy,
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
            .map(|c| ChannelState::new(c, cfg.gc.open_bins))
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
            trace_filter: Self::parse_trace_filter(),
            cfg,
        };
        this.top_up_log_standbys()?;
        this.checkpoint()?;
        Ok(this)
    }

    /// Parse `ELEOS_TRACE_EB=ch/eb` (once, at construction).
    pub(crate) fn parse_trace_filter() -> Option<(u32, u32)> {
        let f = std::env::var("ELEOS_TRACE_EB").ok()?;
        let mut it = f.split('/');
        let ch = it.next()?.parse().ok()?;
        let eb = it.next()?.parse().ok()?;
        Some((ch, eb))
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
    pub(crate) fn traced<T>(
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
        self.sessions.open(sid);
        self.log_append(&LogRecord::SessionOpen { sid })?;
        let t = self.log_force()?;
        self.dev.clock_mut().wait_until(t);
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
        self.log_append(&LogRecord::SessionOpen { sid })?;
        let t = self.log_force()?;
        self.dev.clock_mut().wait_until(t);
        Ok(())
    }

    /// Close a session (durable before returning, like the open).
    pub fn close_session(&mut self, sid: Sid) -> Result<()> {
        if !self.sessions.is_open(sid) {
            return Err(EleosError::UnknownSession(sid));
        }
        self.sessions.close(sid);
        self.log_append(&LogRecord::SessionClose { sid })?;
        let t = self.log_force()?;
        self.dev.clock_mut().wait_until(t);
        Ok(())
    }

    /// Highest WSN applied for a session (the value re-ACKed on
    /// out-of-order writes).
    pub fn session_highest_wsn(&self, sid: Sid) -> Option<Wsn> {
        self.sessions.highest_wsn(sid)
    }

    // ------------------------------------------------------------------
    // Write path (Section IV)
    // ------------------------------------------------------------------

    /// Write a batch of LPAGEs in one I/O — the single write entry point.
    ///
    /// `WriteOpts::default()` writes without session ordering ("users
    /// without ordering requirements can ignore sessions") and blocks on
    /// the virtual clock until the buffer is durable.
    /// [`WriteOpts::ordered`] enforces the session WSN protocol;
    /// [`WriteOpts::ordered_pipelined`] additionally skips the durability
    /// wait (Section III-A2: "waiting for an ACK wastes parallelism") —
    /// the returned `done_at` is when the buffer becomes durable, and the
    /// host learns of unACKed buffers after a crash via the WSN redo
    /// protocol. Call [`Eleos::drain`] to synchronize with all in-flight
    /// flash work.
    pub fn write(&mut self, batch: &WriteBatch, opts: WriteOpts) -> Result<BatchAck> {
        if let Some((sid, wsn)) = opts.session {
            self.sessions.check_next(sid, wsn)?;
            let advances = [(sid, wsn)];
            self.write_inner(&advances, batch, !opts.pipelined)
        } else {
            self.write_inner(&[], batch, !opts.pipelined)
        }
    }

    /// Write a coalesced group batch that carries durable WSN advances for
    /// *several* sessions at once (the group-commit front-end's path: one
    /// group may cover batches from many network sessions). Each advance is
    /// logged as a `Commit { sid, wsn }` record of the same system action,
    /// so the advances are atomic with the group — a crash either redoes
    /// the group *and* the advances or neither, which is what lets a
    /// reconnecting host dedup its redo replay against the re-ACKed
    /// highest WSN. WSN sequencing is the caller's job (the front-end
    /// validates against queue-aware expected values before submitting);
    /// this method only requires every session to be open.
    pub fn write_sessions(
        &mut self,
        batch: &WriteBatch,
        advances: &[(Sid, Wsn)],
    ) -> Result<BatchAck> {
        for &(sid, _) in advances {
            if sid == 0 || !self.sessions.is_open(sid) {
                return Err(EleosError::UnknownSession(sid));
            }
        }
        self.write_inner(advances, batch, true)
    }

    /// The direct write: intake, one system action over the batch, then
    /// housekeeping.
    fn write_inner(
        &mut self,
        advances: &[(Sid, Wsn)],
        batch: &WriteBatch,
        wait_durable: bool,
    ) -> Result<BatchAck> {
        self.traced(Activity::UserWrite, SpanKind::WriteBatch, |this| {
            let (pages, kind) = this.user_pages(batch)?;
            this.maybe_gc()?;
            let plan = this.plan(&pages, Dest::User)?;
            let done_at =
                this.execute(ActionKind::User, advances, &pages, &plan, wait_durable)?;
            kind.count(&mut this.stats);
            // The user's batch is committed and installed from here on.
            // Internal housekeeping failures (a program-failure abort
            // inside a mapping flush or automatic checkpoint, even after
            // its bounded retries) must not surface as a write error: the
            // caller would re-submit an already-durable buffer and
            // double-write it. Both are retried on a later write; genuine
            // errors (ShutDown, flash faults) still propagate.
            this.post_write_maintenance()?;
            Ok(BatchAck {
                lpages: pages.len(),
                done_at,
            })
        })
    }

    /// Intake of a user write, shared by the direct and the prepared
    /// write: check the batch, copy it into controller memory, charge the
    /// host submission and transport, and return its pages with the
    /// statistics its commit counts. The copy is the transport DMA of the
    /// host buffer — every page view, WBLOCK program and stored buffer
    /// downstream slices it. Every LPID is checked against the mapping's
    /// range before anything is charged or logged, so a rejected batch
    /// changes nothing.
    fn user_pages(&mut self, batch: &WriteBatch) -> Result<(Vec<ActionPage>, StagedKind)> {
        if self.shutdown {
            return Err(EleosError::ShutDown);
        }
        if batch.is_empty() {
            return Err(EleosError::EmptyBatch);
        }
        let bytes = Bytes::copy_from_slice(batch.as_bytes());
        let entries = parse_batch(&bytes, self.cfg.page_mode)?;
        for e in &entries {
            if e.kind != PageKind::User {
                return Err(EleosError::Corrupt("user batch contains table-page entries"));
            }
            self.mapping.check_lpid(e.lpid)?;
        }
        // Host submission + transport (one I/O, many packets).
        let profile = *self.dev.profile();
        self.dev
            .cpu(profile.host_submit_ns + profile.transport_cpu(bytes.len() as u64));
        let pages: Vec<ActionPage> = entries
            .iter()
            .map(|e| ActionPage {
                lpid: e.lpid,
                kind: PageKind::User,
                bytes: bytes.slice(e.stored_range()),
                old_addr: NULL_PADDR,
            })
            .collect();
        let stored_bytes: u64 = pages.iter().map(|p| p.bytes.len() as u64).sum();
        let kind = StagedKind::Write {
            lpages: pages.len() as u64,
            payload_bytes: batch
                .payload_bytes()
                .max(stored_bytes - (pages.len() * ENTRY_HEADER) as u64),
            stored_bytes,
        };
        Ok((pages, kind))
    }

    /// Post-commit housekeeping: evict-flush dirty mapping pages under
    /// cache pressure ("flushed, e.g., by page eviction or checkpointing" —
    /// Section VIII-C2) and take an automatic checkpoint once enough log
    /// has accumulated. The sharded router calls this only after a
    /// cross-shard group fully resolves, so log truncation never runs
    /// while a `Prepare` is awaiting its coordinator decision.
    pub(crate) fn post_write_maintenance(&mut self) -> Result<()> {
        if self.mapping.overfull() {
            let dirty = self.mapping.dirty_pages();
            let k = dirty.len().min(8);
            // Cache-pressure eviction flushes are mapping I/O, not
            // checkpoint work — the ledger row the policy lab reads.
            let res = self.with_activity(Activity::MapIo, |this| {
                this.flush_map_pages(&dirty[..k])
            });
            match res {
                Ok(()) | Err(EleosError::ActionAborted) => {}
                Err(e) => return Err(e),
            }
        }
        if self.wal.bytes_appended - self.last_ckpt_bytes >= self.cfg.ckpt_log_bytes {
            match self.checkpoint() {
                Ok(()) | Err(EleosError::ActionAborted) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
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
    // Deletes (TRIM)
    // ------------------------------------------------------------------

    /// Durably delete one LPAGE. See [`Eleos::delete_batch`].
    pub fn delete(&mut self, lpid: Lpid) -> Result<()> {
        self.delete_batch(&[lpid])
    }

    /// Durably delete a batch of LPAGEs (TRIM): the mappings are cleared
    /// and the storage they occupied becomes reclaimable garbage. Deletes
    /// run as an ordinary system action — a Write record with a null new
    /// address — so crash recovery replays them like any other update.
    /// Unknown LPIDs are ignored (idempotent redo after a lost ACK); LPIDs
    /// outside the mapping's range are rejected before anything is logged.
    pub fn delete_batch(&mut self, lpids: &[Lpid]) -> Result<()> {
        self.with_activity(Activity::UserWrite, |this| {
            let s = this.stage_delete(lpids)?;
            this.commit_staged(&s, 0).map(drop)
        })
    }

    /// Intake and stage of a user delete, shared by the direct and the
    /// prepared delete: check every LPID (before anything is charged or
    /// logged), charge the host submission and the action context, and
    /// stage one null-address `Write` per LPID under an empty plan.
    fn stage_delete(&mut self, lpids: &[Lpid]) -> Result<StagedAction> {
        if self.shutdown {
            return Err(EleosError::ShutDown);
        }
        if lpids.is_empty() {
            return Err(EleosError::EmptyBatch);
        }
        for &lpid in lpids {
            self.mapping.check_lpid(lpid)?;
        }
        let t0 = self.dev.clock().now();
        let profile = *self.dev.profile();
        self.dev.cpu(
            profile.host_submit_ns
                + profile.context_ns
                + profile.per_page_ns * lpids.len() as u64,
        );
        let pages: Vec<ActionPage> = lpids
            .iter()
            .map(|&lpid| ActionPage {
                lpid,
                kind: PageKind::User,
                bytes: Bytes::new(),
                old_addr: NULL_PADDR,
            })
            .collect();
        self.stage_user(t0, &pages, Plan::default(), StagedKind::Delete)
    }

    /// [`Eleos::stage`] for a user write or delete, keeping what its
    /// commit (or a group abort) needs.
    fn stage_user(
        &mut self,
        t0: Nanos,
        pages: &[ActionPage],
        plan: Plan,
        kind: StagedKind,
    ) -> Result<StagedAction> {
        let (id, first_lsn, durable) = self.stage(ActionKind::User, pages, &plan)?;
        Ok(StagedAction {
            id,
            first_lsn,
            t0,
            entries: pages
                .iter()
                .enumerate()
                .map(|(i, p)| (p.lpid, plan.new_addr(i)))
                .collect(),
            new_addrs: plan.addrs,
            durable,
            kind,
        })
    }

    /// Commit a staged user action: force its `Commit` record and wait
    /// until the action is durable — no earlier than `floor` (the
    /// coordinator's decision for a prepared action, 0 for a direct
    /// delete) — then install its entries, finish it, count it and record
    /// its span. Returns when it is durable.
    fn commit_staged(&mut self, s: &StagedAction, floor: Nanos) -> Result<Nanos> {
        let (_, t_log) = self.log_commit(s.id, &[])?;
        let durable = floor.max(t_log).max(s.durable);
        self.dev.clock_mut().wait_until(durable);
        self.dev.cpu(self.dev.profile().commit_force_ns);
        let installs = s.entries.iter().map(|&(lpid, new)| (PageKind::User, lpid, new));
        self.install(s.id, installs, s.first_lsn)?;
        self.finish_action(s.id, &[])?;
        s.kind.count(&mut self.stats);
        let span = match s.kind {
            StagedKind::Write { .. } => SpanKind::WriteBatch,
            StagedKind::Delete => SpanKind::DeleteBatch,
        };
        self.finish_span(span, s.t0);
        Ok(durable)
    }

    // ------------------------------------------------------------------
    // Cross-shard two-phase group commit (shard-local half; the router
    // lives in `eleos::sharded`)
    // ------------------------------------------------------------------

    /// Phase 1 for a user write: the direct write's intake and stage —
    /// Write records and data programs — then a forced `Prepare { gid }`
    /// instead of a `Commit`. Nothing is installed; the caller must finish
    /// with [`Eleos::commit_prepared`] or [`Eleos::abort_prepared`]. A
    /// program failure self-aborts exactly like the direct path (Section
    /// VII migrate + `ActionAborted`), and the router then aborts the
    /// group's other prepared shards.
    pub(crate) fn prepare_write(&mut self, batch: &WriteBatch, gid: u64) -> Result<StagedAction> {
        self.with_activity(Activity::UserWrite, |this| {
            let t0 = this.dev.clock().now();
            let (pages, kind) = this.user_pages(batch)?;
            this.maybe_gc()?;
            let plan = this.plan(&pages, Dest::User)?;
            let s = this.stage_user(t0, &pages, plan, kind)?;
            this.prepare(s, gid)
        })
    }

    /// Phase 1 for a delete (TRIM) sub-batch: the direct delete's stage
    /// plus a forced `Prepare { gid }`. Deletes ride the same 2PC so a
    /// cross-shard group mixing writes and deletes stays atomic.
    pub(crate) fn prepare_delete(&mut self, lpids: &[Lpid], gid: u64) -> Result<StagedAction> {
        self.with_activity(Activity::UserWrite, |this| {
            let s = this.stage_delete(lpids)?;
            this.prepare(s, gid)
        })
    }

    /// Force `Prepare { gid }` after a staged action: from here its outcome
    /// belongs to the coordinator.
    fn prepare(&mut self, mut s: StagedAction, gid: u64) -> Result<StagedAction> {
        self.log_append(&LogRecord::Prepare { action: s.id, gid })?;
        s.durable = s.durable.max(self.log_force()?);
        Ok(s)
    }

    /// Coordinator decision: append and force `CoordCommit { gid }` on this
    /// shard's WAL (the router designates shard 0 as coordinator). Returns
    /// when the decision is durable — only after that may participants run
    /// [`Eleos::commit_prepared`].
    /// Session advances for the group ride the same force as extra
    /// `Commit { action, sid, wsn }` records on fresh action ids (an
    /// action with no `Write` records installs nothing on replay, so the
    /// records carry only the WSN advance). Ordering matters: the
    /// decision is appended *before* the advances, so an advance can be
    /// durable only if the decision is — the reverse would let a session
    /// claim a WSN whose group rolled back. If the decision survives a
    /// crash but the advances do not, the client's redo re-applies the
    /// identical bytes and the WSN check deduplicates (DESIGN.md §16).
    pub(crate) fn coord_commit(&mut self, gid: u64, advances: &[(Sid, Wsn)]) -> Result<Nanos> {
        self.log_append(&LogRecord::CoordCommit { gid })?;
        for &(sid, wsn) in advances {
            let id = self.next_action;
            self.next_action += 1;
            self.log_append(&LogRecord::Commit { action: id, sid, wsn })?;
        }
        let t = self.log_force()?;
        for &(sid, wsn) in advances {
            if sid != 0 {
                self.sessions.advance(sid, wsn);
            }
        }
        Ok(t)
    }

    /// Phase 2 commit of a prepared action: [`Eleos::commit_staged`] no
    /// earlier than `coord_durable`, when the coordinator decision hit
    /// flash. Returns when this shard's share of the group is durable.
    pub(crate) fn commit_prepared(
        &mut self,
        p: &StagedAction,
        coord_durable: Nanos,
    ) -> Result<Nanos> {
        self.with_activity(Activity::UserWrite, |this| {
            this.commit_staged(p, coord_durable)
        })
    }

    /// Roll back a prepared action (a sibling shard's prepare failed): log
    /// `Abort`, free the provisioned addresses as garbage. The data
    /// programs already succeeded here, so no frontier reconciliation or
    /// migration is needed — the bytes are simply dead.
    pub(crate) fn abort_prepared(&mut self, p: &StagedAction) -> Result<()> {
        self.with_activity(Activity::UserWrite, |this| {
            this.stats.aborts += 1;
            let abort_lsn = this.log_append(&LogRecord::Abort { action: p.id })?;
            this.active_first_lsn.remove(&p.id);
            for na in &p.new_addrs {
                this.summary
                    .update(na.eblock_addr(), abort_lsn, |d| d.avail += na.len);
            }
            Ok(())
        })
    }

    // ------------------------------------------------------------------
    // Log helpers
    // ------------------------------------------------------------------

    pub(crate) fn log_append(&mut self, rec: &LogRecord) -> Result<Lsn> {
        // All log I/O — seals, forces, standby top-ups triggered by a seal
        // — attributes to the WAL regardless of what action appended.
        self.with_activity(Activity::Wal, |this| this.wal_append(rec))
    }

    /// [`Eleos::log_append`] inside the caller's WAL activity scope, so a
    /// run of records pays for one scope.
    fn wal_append(&mut self, rec: &LogRecord) -> Result<Lsn> {
        let (lsn, outcome) = self.wal.append(rec, &mut self.dev)?;
        if let Some(o) = outcome {
            self.after_seal(&o)?;
        }
        Ok(lsn)
    }

    pub(crate) fn log_force(&mut self) -> Result<Nanos> {
        self.with_activity(Activity::Wal, |this| {
            let (t, outcome) = this.wal.force(&mut this.dev)?;
            if let Some(o) = outcome {
                this.after_seal(&o)?;
            }
            Ok(t)
        })
    }

    /// Keep EBLOCK summary descriptors in sync with log-page placement and
    /// keep the forward-pointer standby pool full.
    fn after_seal(&mut self, o: &SealOutcome) -> Result<()> {
        let lsn_tag = self.wal.next_lsn();
        self.summary.update(o.addr.eblock, lsn_tag, |d| {
            d.max_lsn = d.max_lsn.max(o.last_lsn);
            if d.state == EblockState::Free {
                d.state = EblockState::Open;
                d.purpose = EblockPurpose::Log;
            }
        });
        for &eb in &o.entered {
            self.summary.update(eb, lsn_tag, |d| {
                d.state = EblockState::Open;
                d.purpose = EblockPurpose::Log;
            });
        }
        for &eb in &o.filled {
            self.summary.update(eb, lsn_tag, |d| {
                d.state = EblockState::Used;
            });
            self.index_log_reclaim(eb);
        }
        for &eb in &o.poisoned {
            // A poisoned log EBLOCK still holds earlier valid pages; it is
            // reclaimed by truncation like any full log EBLOCK. The page
            // itself landed at a fallback forward-pointer candidate — the
            // paper's three provisioned locations absorbing the failure.
            self.note_program_failure(eb);
            self.stats.wal_fallbacks += 1;
            self.summary.update(eb, lsn_tag, |d| {
                d.state = EblockState::Used;
                d.max_lsn = d.max_lsn.max(o.last_lsn);
            });
            self.index_log_reclaim(eb);
        }
        self.top_up_log_standbys()
    }

    /// Register a now-`Used` log EBLOCK in its channel's truncation-reclaim
    /// index (keyed by `max_lsn` so the GC probe pops lowest-LSN first).
    pub(crate) fn index_log_reclaim(&mut self, eb: EblockAddr) {
        let d = self.summary.get(eb);
        if d.state == EblockState::Used && d.purpose == EblockPurpose::Log {
            self.chans[eb.channel as usize]
                .log_reclaim
                .insert((d.max_lsn, eb.eblock));
        }
    }

    pub(crate) fn top_up_log_standbys(&mut self) -> Result<()> {
        let need = self.wal.standbys_needed(self.cfg.log_standby_eblocks);
        for _ in 0..need {
            match self.alloc_any_eblock() {
                Ok(eb) => {
                    self.summary.update(eb, self.wal.next_lsn(), |d| {
                        d.purpose = EblockPurpose::Log;
                        d.state = EblockState::Open;
                    });
                    self.wal.add_standby(eb);
                    // Unforced: if the record is lost, the standby either
                    // entered the log chain (rebuilt by the recovery scan)
                    // or stays empty and is re-freed by the open-EBLOCK
                    // fixup.
                    self.wal_append(&LogRecord::LogStandby {
                        channel: eb.channel,
                        eblock: eb.eblock,
                    })?;
                }
                Err(EleosError::DeviceFull) => break, // degrade to fewer fallbacks
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // EBLOCK allocation
    // ------------------------------------------------------------------

    /// Record an EBLOCK lifecycle event in the structured event ring (the
    /// chaos harness dumps the tail on divergence). When the cached
    /// `ELEOS_TRACE_EB=ch/eb` filter matches, the event is also mirrored to
    /// stderr — the old `trace_eb` env hack, now a filter over the ring.
    pub(crate) fn trace_eb(&mut self, eb: EblockAddr, what: &str) {
        let now = self.dev.clock().now();
        let lsn = self.wal.next_lsn();
        self.dev
            .telemetry_mut()
            .event(now, eb.channel, eb.eblock, || format!("{what} next_lsn {lsn}"));
        if self.trace_filter == Some((eb.channel, eb.eblock)) {
            eprintln!(
                "[trace] {what} ch{}/eb{} next_lsn {lsn}",
                eb.channel, eb.eblock
            );
        }
    }

    pub(crate) fn alloc_eblock(&mut self, channel: u32) -> Result<EblockAddr> {
        let free = &mut self.chans[channel as usize].free;
        if free.is_empty() {
            return Err(EleosError::DeviceFull);
        }
        let eb = if self.cfg.wear_aware_alloc {
            // Pick the least-worn free EBLOCK (wear-leveling extension).
            let (pos, _) = free
                .iter()
                .enumerate()
                .min_by_key(|(_, &e)| {
                    self.summary.get(EblockAddr::new(channel, e)).erase_count
                })
                .expect("non-empty free list");
            free.remove(pos).unwrap()
        } else {
            free.pop_front().unwrap()
        };
        let addr = EblockAddr::new(channel, eb);
        self.trace_eb(addr, "alloc");
        self.summary.update(addr, self.wal.next_lsn(), |d| {
            d.state = EblockState::Open;
            d.purpose = EblockPurpose::Data;
        });
        Ok(addr)
    }

    /// Allocate from whichever channel has the most free EBLOCKs (used for
    /// log standbys, which have no channel affinity).
    fn alloc_any_eblock(&mut self) -> Result<EblockAddr> {
        let ch = (0..self.chans.len())
            .max_by_key(|&c| self.chans[c].free.len())
            .unwrap() as u32;
        self.alloc_eblock(ch)
    }

    /// Destination channel for relocating a victim's valid pages: the
    /// victim's own channel while it can still provision a GC bin, else
    /// the channel with the most free EBLOCKs. Placement has no
    /// correctness affinity (the mapping records the new address wherever
    /// it lands), and pinning relocation to a channel whose free list is
    /// empty deadlocks GC exactly when it is most needed: the bin
    /// allocation fails with `DeviceFull` even though erasing the victim
    /// would free space. User writes already route around full channels
    /// and log standbys allocate anywhere; this gives GC the same escape.
    pub(crate) fn gc_dest_channel(&self, victim_channel: u32) -> u32 {
        if !self.chans[victim_channel as usize].free.is_empty() {
            return victim_channel;
        }
        (0..self.chans.len())
            .max_by_key(|&c| self.chans[c].free.len())
            .unwrap() as u32
    }

    // ------------------------------------------------------------------
    // The system-action engine (Section IV: init / execute / commit)
    //
    // Every update runs as stage → commit → install → done. `execute`
    // strings the steps together for a direct action; a user write or
    // delete staged on its own (`stage_user`) is committed by
    // `commit_staged`, at once or after its group's `Prepare`.
    // ------------------------------------------------------------------

    /// A synchronous one-segment system action with no session advances.
    /// Returns when it is durable.
    pub(crate) fn run_action(
        &mut self,
        akind: ActionKind,
        pages: &[ActionPage],
        dest: Dest,
    ) -> Result<Nanos> {
        if pages.is_empty() {
            return Ok(self.now());
        }
        let plan = self.plan(pages, dest)?;
        self.execute(akind, &[], pages, &plan, true)
    }

    /// Initialization: charge an action's context and per-page CPU, then
    /// provision its `pages` into `dest` (command generation).
    fn plan(&mut self, pages: &[ActionPage], dest: Dest) -> Result<Plan> {
        let profile = *self.dev.profile();
        self.dev
            .cpu(profile.context_ns + profile.per_page_ns * pages.len() as u64);
        let mut plan = Plan::default();
        self.provision(pages, &[(0..pages.len(), dest)], &mut plan)?;
        Ok(plan)
    }

    /// The rest of a system action whose `pages` are provisioned by `plan`
    /// (and whose CPU is charged): stage, `Commit` records and log force,
    /// installs, `Done`. A GC pass stages its rounds into one plan and
    /// executes it once. Returns when the action is durable.
    pub(crate) fn execute(
        &mut self,
        akind: ActionKind,
        advances: &[(Sid, Wsn)],
        pages: &[ActionPage],
        plan: &Plan,
        wait_durable: bool,
    ) -> Result<Nanos> {
        let (id, first_lsn, programmed) = self.stage(akind, pages, plan)?;
        let (commit_lsn, t_log) = self.log_commit(id, advances)?;
        let durable = programmed.max(t_log);
        if wait_durable {
            // Synchronous semantics: the host sees the ACK only after the
            // commit record and all data are on flash.
            self.dev.clock_mut().wait_until(durable);
        }
        self.dev.cpu(self.dev.profile().commit_force_ns);

        let installs = pages.iter().zip(&plan.addrs);
        match akind {
            ActionKind::User | ActionKind::Ckpt => {
                self.install(id, installs.map(|(p, na)| (p.kind, p.lpid, na.pack())), first_lsn)?;
            }
            ActionKind::Gc | ActionKind::Migrate => {
                for (p, na) in installs {
                    let new_packed = na.pack();
                    let installed =
                        self.install_conditional(p.kind, p.lpid, p.old_addr, new_packed, first_lsn)?;
                    if installed {
                        if let Some(oa) = PhysAddr::unpack(p.old_addr) {
                            self.summary
                                .update(oa.eblock_addr(), commit_lsn, |d| d.avail += oa.len);
                        }
                    } else {
                        let lsn = self.log_append(&LogRecord::GcInstallAborted {
                            action: id,
                            lpid: p.lpid,
                            new_addr: new_packed,
                        })?;
                        self.summary
                            .update(na.eblock_addr(), lsn, |d| d.avail += na.len);
                        self.stats.gc_installs_aborted += 1;
                    }
                }
            }
        }
        self.finish_action(id, advances)?;
        Ok(durable)
    }

    /// Stage a system action whose `pages` are provisioned by `plan`:
    /// allocate its id, append one `Write` record per page (new address
    /// from `plan`, null under a delete's empty plan) and the plan's
    /// `CloseEblock` records in one WAL scope, pin log truncation at the
    /// first `Write`, and submit `plan.ios` as one batch. Returns the id,
    /// the first `Write`'s LSN and when the programs complete. A program
    /// failure aborts the action (Section VII) with `ActionAborted`.
    fn stage(
        &mut self,
        akind: ActionKind,
        pages: &[ActionPage],
        plan: &Plan,
    ) -> Result<(ActionId, Lsn, Nanos)> {
        let id = self.next_action;
        self.next_action += 1;
        let first_lsn = self.with_activity(Activity::Wal, |this| {
            let mut first_lsn = 0;
            for (i, p) in pages.iter().enumerate() {
                let lsn = this.wal_append(&LogRecord::Write {
                    action: id,
                    akind,
                    lpid: p.lpid,
                    new_addr: plan.new_addr(i),
                    old_addr: p.old_addr,
                })?;
                if i == 0 {
                    first_lsn = lsn;
                    this.active_first_lsn.insert(id, lsn);
                }
            }
            for c in &plan.closes {
                this.wal_append(&LogRecord::CloseEblock {
                    channel: c.addr.channel,
                    eblock: c.addr.eblock,
                    ts: c.ts,
                    data_wblocks: c.data_wblocks,
                    meta_wblocks: c.meta_wblocks,
                })?;
            }
            Ok(first_lsn)
        })?;

        // One batched submission, programmed in input order without moving
        // the CPU, so WBLOCKs on distinct channels overlap. The plan's
        // buffers are refcount clones of the batch transport's, no byte
        // copies.
        let mut programmed = 0;
        for r in self.dev.program_batch(&plan.ios) {
            match r {
                Ok(t) => programmed = programmed.max(t),
                Err(FlashError::ProgramFailed(addr)) => {
                    return self.handle_write_failure(id, plan, addr, 0);
                }
                Err(e) => return Err(e.into()),
            }
        }
        Ok((id, first_lsn, programmed))
    }

    /// Append an action's `Commit` records and force them: one per session
    /// advance, all under the action's id (one bare record without
    /// advances). Every advance precedes the force, so the advances are
    /// durable exactly when the action is (replay advances each one; a
    /// duplicate `Commit` for an already-seen action is harmless — redo
    /// already ran). Returns the first record's LSN and when the force
    /// completes.
    fn log_commit(&mut self, id: ActionId, advances: &[(Sid, Wsn)]) -> Result<(Lsn, Nanos)> {
        let (sid, wsn) = advances.first().copied().unwrap_or((0, 0));
        let commit_lsn = self.log_append(&LogRecord::Commit { action: id, sid, wsn })?;
        for &(sid, wsn) in advances.iter().skip(1) {
            self.log_append(&LogRecord::Commit { action: id, sid, wsn })?;
        }
        Ok((commit_lsn, self.log_force()?))
    }

    /// Install committed `(kind, lpid, packed new address)` pages
    /// unconditionally, tagging mapping updates with `tag`: each displaced
    /// address is logged as `OldAddr` and credited to its EBLOCK's AVAIL.
    /// The install of user and checkpoint actions, of committed prepared
    /// actions and of the prepared actions recovery commits.
    pub(crate) fn install(
        &mut self,
        id: ActionId,
        pages: impl IntoIterator<Item = (PageKind, Lpid, u64)>,
        tag: Lsn,
    ) -> Result<()> {
        for (kind, lpid, new_packed) in pages {
            let old = match kind {
                PageKind::User => self.mapping.set(lpid, new_packed, tag, &mut self.dev)?,
                PageKind::MapPage => {
                    let i = PageKind::table_index(lpid) as u32;
                    let old = self.mapping.small_addr(i);
                    self.mapping.mark_page_flushed(i, new_packed);
                    old
                }
                PageKind::SmallPage => {
                    let i = PageKind::table_index(lpid) as usize;
                    let old = self.mapping.tiny_addr(i);
                    self.mapping.set_tiny_addr(i, new_packed);
                    old
                }
                PageKind::SummaryPage => {
                    let i = PageKind::table_index(lpid) as usize;
                    let old = self.summary.page_addr(i);
                    self.summary.set_page_addr(i, new_packed);
                    old
                }
            };
            if old != NULL_PADDR {
                let lsn = self.log_append(&LogRecord::OldAddr {
                    action: id,
                    lpid,
                    old_addr: old,
                })?;
                if let Some(oa) = PhysAddr::unpack(old) {
                    self.summary
                        .update(oa.eblock_addr(), lsn, |d| d.avail += oa.len);
                }
            }
        }
        Ok(())
    }

    /// Finish a committed action: append `Done`, release its log-truncation
    /// pin, apply its session advances and count the commit.
    fn finish_action(&mut self, id: ActionId, advances: &[(Sid, Wsn)]) -> Result<()> {
        self.log_append(&LogRecord::Done { action: id })?;
        self.active_first_lsn.remove(&id);
        for &(sid, wsn) in advances {
            if sid != 0 {
                self.sessions.advance(sid, wsn);
            }
        }
        self.stats.commits += 1;
        Ok(())
    }

    fn install_conditional(
        &mut self,
        kind: PageKind,
        lpid: Lpid,
        expected_old: u64,
        new_packed: u64,
        tag_lsn: Lsn,
    ) -> Result<bool> {
        Ok(match kind {
            PageKind::User => {
                self.mapping
                    .set_if(lpid, expected_old, new_packed, tag_lsn, &mut self.dev)?
            }
            PageKind::MapPage => {
                let i = PageKind::table_index(lpid) as u32;
                if self.mapping.small_addr(i) == expected_old {
                    self.mapping.set_small_addr(i, new_packed);
                    true
                } else {
                    false
                }
            }
            PageKind::SmallPage => {
                let i = PageKind::table_index(lpid) as usize;
                if self.mapping.tiny_addr(i) == expected_old {
                    self.mapping.set_tiny_addr(i, new_packed);
                    true
                } else {
                    false
                }
            }
            PageKind::SummaryPage => {
                let i = PageKind::table_index(lpid) as usize;
                if self.summary.page_addr(i) == expected_old {
                    self.summary.set_page_addr(i, new_packed);
                    true
                } else {
                    false
                }
            }
        })
    }

    /// Current address of an LPID by its page kind — the table GC consults
    /// for validity (Section VI-C).
    pub(crate) fn lookup_addr(&mut self, kind: PageKind, lpid: Lpid) -> Result<u64> {
        Ok(match kind {
            PageKind::User => self
                .mapping
                .get(lpid, &mut self.dev)?
                .map(|a| a.pack())
                .unwrap_or(NULL_PADDR),
            PageKind::MapPage => self.mapping.small_addr(PageKind::table_index(lpid) as u32),
            PageKind::SmallPage => self.mapping.tiny_addr(PageKind::table_index(lpid) as usize),
            PageKind::SummaryPage => self.summary.page_addr(PageKind::table_index(lpid) as usize),
        })
    }

    // ------------------------------------------------------------------
    // Write provisioning (Section IV-A1)
    // ------------------------------------------------------------------

    /// Provision every segment in order into `plan`, whose addresses grow
    /// to cover `pages` (a GC pass adds each round's pages and segments to
    /// the plan of the rounds before it). A GC segment's destination
    /// channel is resolved here, against the free lists the segments
    /// before it left, as consecutive single-victim actions would resolve
    /// it.
    pub(crate) fn provision(
        &mut self,
        pages: &[ActionPage],
        segs: &[Segment],
        plan: &mut Plan,
    ) -> Result<()> {
        plan.addrs.resize(pages.len(), PhysAddr::new(0, 0, 0, 0));
        for (range, dest) in segs {
            let provisioned = match *dest {
                Dest::User => self.provision_user(pages, range.clone(), plan),
                Dest::GcBin { victim_channel, .. } => {
                    let channel = self.gc_dest_channel(victim_channel);
                    self.provision_chunk(channel, pages, range.clone(), *dest, plan)
                }
            };
            if let Err(e) = provisioned {
                // The plan will never run (a GC pass drops with it every
                // round staged before): roll back the cursors it advanced,
                // or the next program into them skips unwritten WBLOCKs.
                let lsn = self.wal.next_lsn();
                self.unwind_plan(plan, None, lsn)?;
                return Err(e);
            }
        }
        Ok(())
    }

    /// Global provisioning: partition into roughly equal chunks, respecting
    /// LPAGE boundaries (Section IV-A1). Channels are ordered by free
    /// capacity so one that GC has not yet replenished is not starved
    /// further.
    fn provision_user(
        &mut self,
        pages: &[ActionPage],
        range: std::ops::Range<usize>,
        plan: &mut Plan,
    ) -> Result<()> {
        let geo = *self.dev.geometry();
        let mut order: Vec<u32> = (0..geo.channels).collect();
        order.rotate_left(self.next_chan_rr as usize % geo.channels as usize);
        order.sort_by_key(|&c| std::cmp::Reverse(self.chans[c as usize].free.len()));
        let usable: Vec<u32> = order
            .iter()
            .copied()
            .filter(|&c| {
                let ch = &self.chans[c as usize];
                !ch.free.is_empty() || ch.user_open.is_some()
            })
            .collect();
        let order = if usable.is_empty() { order } else { usable };
        let total: u64 = pages[range.clone()]
            .iter()
            .map(|p| p.bytes.len() as u64)
            .sum();
        let target = (total / order.len() as u64).max(geo.wblock_bytes as u64);
        let mut chunk_start = range.start;
        let mut acc = 0u64;
        let mut chunk_no = 0usize;
        for i in range.clone() {
            acc += pages[i].bytes.len() as u64;
            if acc >= target || i + 1 == range.end {
                let channel = order[chunk_no % order.len()];
                self.provision_chunk(channel, pages, chunk_start..i + 1, Dest::User, plan)?;
                chunk_no += 1;
                chunk_start = i + 1;
                acc = 0;
            }
        }
        self.next_chan_rr = (self.next_chan_rr + 1) % geo.channels;
        Ok(())
    }

    /// Channel provisioning: pack a contiguous range of pages into the
    /// channel's open EBLOCK(s), closing and replacing them as they fill.
    fn provision_chunk(
        &mut self,
        channel: u32,
        pages: &[ActionPage],
        range: std::ops::Range<usize>,
        dest: Dest,
        plan: &mut Plan,
    ) -> Result<()> {
        let geo = *self.dev.geometry();
        let mut i = range.start;
        while i < range.end {
            let mut ob = self.take_cursor(channel, dest)?;
            let start = ob.frontier;
            debug_assert_eq!(start % geo.wblock_bytes as u64, 0, "chunk starts at a fresh WBLOCK");
            let mut cur = start;
            let first_in_region = i;
            while i < range.end {
                let len = pages[i].bytes.len() as u64;
                if !ob.can_accept(cur - start + len, i - first_in_region + 1, &geo) {
                    break;
                }
                plan.addrs[i] = PhysAddr::new(channel, ob.addr.eblock, cur, len);
                ob.meta.push((pages[i].kind, pages[i].lpid));
                if ob.first_lsn.is_none() {
                    ob.first_lsn = Some(self.wal.next_lsn());
                }
                self.usn += 1;
                cur += len;
                i += 1;
            }
            if cur == start {
                if ob.frontier == 0 {
                    // A single page larger than an entire EBLOCK.
                    self.put_cursor(channel, dest, ob);
                    return Err(EleosError::PageTooLarge {
                        len: pages[i].bytes.len(),
                        max: geo.eblock_bytes() as usize,
                    });
                }
                // Nothing fits in the remainder: close and retry with a
                // fresh EBLOCK ("the remaining space will be fragmented").
                self.close_cursor(ob, dest, plan)?;
                continue;
            }
            // Materialize WBLOCK I/O commands for [start, frontier).
            ob.frontier = cur;
            let frag = ob.align_frontier(&geo);
            if frag > 0 {
                let lsn = self.wal.next_lsn();
                self.summary.update(ob.addr, lsn, |d| d.avail += frag);
            }
            // The region bytes are exactly the concatenation of the page
            // views (pages pack back-to-back from `start`).
            let wb = geo.wblock_bytes as usize;
            let first = WblockAddr::new(channel, ob.addr.eblock, (start / wb as u64) as u32);
            push_wblocks(&pages[first_in_region..i], first, wb, &mut plan.ios);
            plan.touched.push((ob.addr, start, ob.frontier));
            // Close if the EBLOCK can no longer accept even a minimal page.
            if !ob.can_accept(64, 1, &geo) {
                self.close_cursor(ob, dest, plan)?;
            } else {
                self.put_cursor(channel, dest, ob);
            }
        }
        Ok(())
    }

    fn take_cursor(&mut self, channel: u32, dest: Dest) -> Result<OpenEblock> {
        let slot = match dest {
            Dest::User => &mut self.chans[channel as usize].user_open,
            // With hot/cold separation disabled (ablation), GC relocations
            // share the user open EBLOCK — cold data mixes back in with
            // hot, exactly what Section VI-B argues against.
            Dest::GcBin { .. } if !self.cfg.gc.hot_cold_separation => {
                &mut self.chans[channel as usize].user_open
            }
            Dest::GcBin { victim_ts, .. } => {
                let bin = self.chans[channel as usize].closest_gc_bin(victim_ts);
                &mut self.chans[channel as usize].gc_open[bin]
            }
        };
        if let Some(ob) = slot.take() {
            return Ok(ob);
        }
        let addr = self.alloc_eblock(channel)?;
        let mut ob = OpenEblock::new(addr);
        if let Dest::GcBin { victim_ts, .. } = dest {
            ob.bin_ts = Some(victim_ts);
        }
        Ok(ob)
    }

    fn put_cursor(&mut self, channel: u32, dest: Dest, mut ob: OpenEblock) {
        match dest {
            Dest::User => self.chans[channel as usize].user_open = Some(ob),
            Dest::GcBin { .. } if !self.cfg.gc.hot_cold_separation => {
                self.chans[channel as usize].user_open = Some(ob);
            }
            Dest::GcBin { victim_ts, .. } => {
                ob.bin_ts = Some(victim_ts);
                let bin = self.chans[channel as usize].closest_gc_bin(victim_ts);
                self.chans[channel as usize].gc_open[bin] = Some(ob);
            }
        }
    }

    /// Close an open EBLOCK: plan its metadata flush, update its descriptor
    /// and record the close event (the CloseEblock log record is appended
    /// by the engine after the Write records).
    pub(crate) fn close_cursor(&mut self, ob: OpenEblock, dest: Dest, plan: &mut Plan) -> Result<()> {
        let geo = *self.dev.geometry();
        let data_wblocks = ob.data_wblocks(&geo);
        let ts = match dest {
            Dest::User => self.usn,
            Dest::GcBin { .. } => ob.bin_ts.unwrap_or(self.usn),
        };
        let meta_pages: Vec<Bytes> = encode_eblock_meta(&ob.meta, ts, data_wblocks, &geo)
            .into_iter()
            .map(Bytes::from)
            .collect();
        let meta_wblocks = meta_pages.len() as u32;
        debug_assert!(data_wblocks + meta_wblocks <= geo.wblocks_per_eblock);
        for (k, page) in meta_pages.iter().enumerate() {
            plan.ios.push((
                WblockAddr::new(ob.addr.channel, ob.addr.eblock, data_wblocks + k as u32),
                page.clone(),
            ));
        }
        let lsn = self.wal.next_lsn();
        let frontier = ob.frontier;
        self.summary.update(ob.addr, lsn, |d| {
            d.state = EblockState::Used;
            d.data_wblocks = data_wblocks as u16;
            d.meta_wblocks = meta_wblocks as u16;
            d.ts = ts;
            // Metadata space and the unprogrammed tail are reclaimable.
            d.avail += geo.eblock_bytes() - frontier;
        });
        plan.closes.push(CloseEvent {
            addr: ob.addr,
            ts,
            data_wblocks: data_wblocks as u16,
            meta_wblocks: meta_wblocks as u16,
            meta_pages,
            entries: ob.meta,
        });
        Ok(())
    }

    // ------------------------------------------------------------------
    // Write-failure handling (Section VII)
    // ------------------------------------------------------------------

    /// Abort the failed action and migrate the poisoned EBLOCK's committed
    /// LPAGEs to new locations. The caller's buffer must be retried.
    fn handle_write_failure<T>(
        &mut self,
        id: ActionId,
        plan: &Plan,
        failed: WblockAddr,
        depth: u8,
    ) -> Result<T> {
        self.stats.aborts += 1;
        self.note_program_failure(failed.eblock);
        let abort_lsn = self.log_append(&LogRecord::Abort { action: id })?;
        self.active_first_lsn.remove(&id);
        let failed_eb = failed.eblock;
        self.unwind_plan(plan, Some(failed_eb), abort_lsn)?;
        // Migrate the poisoned EBLOCK (Section VII). If it was closed by
        // this very plan its metadata never reached flash — use the close
        // event's in-memory copy.
        match plan.closes.iter().find(|c| c.addr == failed_eb) {
            Some(c) => self.migrate_with_meta(failed_eb, &c.entries, depth)?,
            None => self.migrate_eblock(failed_eb, depth)?,
        }
        Err(EleosError::ActionAborted)
    }

    /// Reconcile a plan that will never commit with the device. EBLOCKs
    /// that the plan *closed* are repaired to a durable close (gaps
    /// zero-filled), so their whole provisioned region is garbage; EBLOCKs
    /// still open roll their cursor back to the device frontier, leaving
    /// only the programmed part as garbage. `failed` is skipped: migration
    /// reclaims it whole.
    fn unwind_plan(&mut self, plan: &Plan, failed: Option<EblockAddr>, lsn: Lsn) -> Result<()> {
        let geo = *self.dev.geometry();
        let closed: std::collections::HashSet<EblockAddr> =
            plan.closes.iter().map(|c| c.addr).collect();
        for &(eb, start, end) in &plan.touched {
            if Some(eb) == failed {
                continue;
            }
            let dev_frontier = self.dev.programmed_wblocks(eb)? as u64 * geo.wblock_bytes as u64;
            let garbage = if closed.contains(&eb) {
                end - start
            } else {
                self.rollback_cursor_frontier(eb, dev_frontier);
                dev_frontier.min(end).saturating_sub(start.min(dev_frontier))
            };
            if garbage > 0 {
                self.summary.update(eb, lsn, |d| d.avail += garbage);
            }
        }
        // Closed EBLOCKs whose metadata never hit flash get repaired now.
        for c in &plan.closes {
            if Some(c.addr) != failed {
                self.ensure_close_durable(c)?;
            }
        }
        Ok(())
    }

    fn rollback_cursor_frontier(&mut self, eb: EblockAddr, dev_frontier: u64) {
        let ch = &mut self.chans[eb.channel as usize];
        if let Some(ob) = ch.user_open.as_mut() {
            if ob.addr == eb {
                ob.frontier = dev_frontier;
                return;
            }
        }
        for slot in ch.gc_open.iter_mut().flatten() {
            if slot.addr == eb {
                slot.frontier = dev_frontier;
                return;
            }
        }
    }

    /// Make a planned close durable after an abort interrupted its
    /// execution, zero-fill any data WBLOCKs the aborted action never
    /// programmed (their space is already counted as garbage), then program
    /// whatever metadata WBLOCKs are still missing.
    fn ensure_close_durable(&mut self, c: &CloseEvent) -> Result<()> {
        let geo = *self.dev.geometry();
        let done = self.dev.programmed_wblocks(c.addr)?;
        let meta_start = c.data_wblocks as u32;
        if done < meta_start {
            let zeros = Bytes::from(vec![0u8; geo.wblock_bytes as usize]);
            for w in done..meta_start {
                match self.dev.program(
                    WblockAddr::new(c.addr.channel, c.addr.eblock, w),
                    zeros.clone(),
                    &[],
                ) {
                    Ok(_) => {}
                    Err(FlashError::ProgramFailed(_)) => {
                        self.note_program_failure(c.addr);
                        return self.migrate_with_meta(c.addr, &c.entries, 1);
                    }
                    Err(e) => return Err(e.into()),
                }
            }
        }
        let done = self.dev.programmed_wblocks(c.addr)?;
        for (k, page) in c.meta_pages.iter().enumerate() {
            let w = meta_start + k as u32;
            if w < done {
                continue;
            }
            match self.dev.program(
                WblockAddr::new(c.addr.channel, c.addr.eblock, w),
                page.clone(),
                &[],
            ) {
                Ok(_) => {}
                Err(FlashError::ProgramFailed(_)) => {
                    // This EBLOCK is now poisoned too; migrate it as well,
                    // with the close event's metadata (never durable).
                    self.note_program_failure(c.addr);
                    return self.migrate_with_meta(c.addr, &c.entries, 1);
                }
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    /// Move all still-valid committed LPAGEs out of `eb`, then erase it.
    /// Reuses the GC code path (Section VII: "The implementation of EBLOCK
    /// migration is very similar to GC").
    pub(crate) fn migrate_eblock(&mut self, eb: EblockAddr, depth: u8) -> Result<()> {
        // Prefer the open cursor's in-memory metadata (it never reached
        // flash); fall back to the flash copy for closed EBLOCKs.
        let mut meta = self.detach_cursor_meta(eb);
        if meta.is_empty() {
            meta = self.read_flash_meta(eb).unwrap_or_default();
        }
        self.migrate_with_meta(eb, &meta, depth)
    }

    /// Migration core: move all mapping-valid LPAGEs described by `meta`
    /// out of `eb`, then erase it. `meta` is borrowed — retries reuse the
    /// caller's list so committed pages are never dropped and nested
    /// failures never clone the (potentially thousands-long) entry list.
    pub(crate) fn migrate_with_meta(
        &mut self,
        eb: EblockAddr,
        meta: &[(PageKind, Lpid)],
        depth: u8,
    ) -> Result<()> {
        self.with_activity(Activity::Migrate, |this| {
            this.migrate_with_meta_impl(eb, meta, depth)
        })
    }

    fn migrate_with_meta_impl(
        &mut self,
        eb: EblockAddr,
        meta: &[(PageKind, Lpid)],
        depth: u8,
    ) -> Result<()> {
        if u32::from(depth) > self.cfg.gc.migrate_retry_limit {
            self.shutdown = true;
            return Err(EleosError::ShutDown);
        }
        if depth > 0 {
            self.stats.action_retries += 1;
        }
        self.stats.migrations += 1;
        let valid = self.scan_valid_pages(eb, meta)?;
        if !valid.is_empty() {
            let victim_ts = self.summary.get(eb).ts;
            let dest = Dest::GcBin {
                victim_channel: eb.channel,
                victim_ts: if victim_ts == 0 { self.usn } else { victim_ts },
            };
            match self.run_action(ActionKind::Migrate, &valid, dest) {
                Ok(_) => {}
                Err(EleosError::ActionAborted) => {
                    // A nested failure already migrated the nested EBLOCK;
                    // retry this one with the same metadata.
                    return self.migrate_with_meta(eb, meta, depth + 1);
                }
                Err(e) => return Err(e),
            }
        }
        self.erase_and_free(eb)?;
        Ok(())
    }

    /// Read an EBLOCK's metadata from flash via its descriptor, if present
    /// and decodable.
    pub(crate) fn read_flash_meta(&mut self, eb: EblockAddr) -> Option<Vec<(PageKind, Lpid)>> {
        let geo = *self.dev.geometry();
        let d = *self.summary.get(eb);
        let frontier = self.dev.programmed_wblocks(eb).ok()?;
        let (start, count) = (d.data_wblocks as u32, d.meta_wblocks as u32);
        if count == 0 || start + count > frontier {
            return None;
        }
        let (bytes, t) = self.dev.read_wblocks(eb, start, count).ok()?;
        self.dev.clock_mut().wait_until(t);
        let views: Vec<&[u8]> = bytes.chunks(geo.wblock_bytes as usize).collect();
        crate::provision::decode_eblock_meta(&views, &geo).map(|m| m.entries)
    }

    /// Remove and return the in-memory metadata of the open cursor for
    /// `eb`, if any (otherwise the EBLOCK's metadata must be on flash).
    pub(crate) fn detach_cursor_meta(&mut self, eb: EblockAddr) -> Vec<(PageKind, Lpid)> {
        let ch = &mut self.chans[eb.channel as usize];
        if let Some(ob) = ch.user_open.take() {
            if ob.addr == eb {
                return ob.meta;
            }
            ch.user_open = Some(ob);
        }
        for slot in ch.gc_open.iter_mut() {
            if let Some(ob) = slot.take() {
                if ob.addr == eb {
                    return ob.meta;
                }
                *slot = Some(ob);
            }
        }
        Vec::new()
    }

    /// Newest-to-oldest validity scan over metadata entries (Section VI-C,
    /// Fig. 6): duplicate LPIDs must be moved only once, and an entry is
    /// valid only if the mapping still points into this EBLOCK.
    ///
    /// The paper deduplicates by requiring monotonically decreasing
    /// addresses. That invariant breaks when an *aborted* action left a
    /// metadata entry at a newer position whose LPID still maps to an older
    /// offset — the stale entry would lower the watermark and cause a later
    /// valid page to be skipped (and then erased). We therefore deduplicate
    /// with an explicit seen-set, which subsumes the monotonic rule and is
    /// immune to aborted-entry poisoning.
    pub(crate) fn scan_valid_pages(
        &mut self,
        eb: EblockAddr,
        meta: &[(PageKind, Lpid)],
    ) -> Result<Vec<ActionPage>> {
        let mut valid = Vec::new();
        let tickets = self.scan_valid_pages_submit(eb, meta, &mut valid)?;
        self.dev.clock_mut().wait_all(&tickets);
        Ok(valid)
    }

    /// Validity scan with deferred completion, appending the valid pages to
    /// `valid` in oldest-to-newest write order. The lookups run first, all
    /// of them, so mapping faults keep their serial order; the valid
    /// entries' data is then read as RBLOCK runs
    /// ([`crate::gc::read_in_rblock_runs`]), so an RBLOCK shared by several
    /// live LPAGEs is read once. The run tickets are returned instead of
    /// waited on: callers collecting several EBLOCKs batch them so reads on
    /// distinct channels overlap.
    pub(crate) fn scan_valid_pages_submit(
        &mut self,
        eb: EblockAddr,
        meta: &[(PageKind, Lpid)],
        valid: &mut Vec<ActionPage>,
    ) -> Result<Vec<IoTicket>> {
        let mut found: Vec<(Lpid, PageKind, u64, ByteExtent)> = Vec::new();
        let mut seen: HashSet<Lpid, IntHash> =
            HashSet::with_capacity_and_hasher(meta.len(), IntHash::default());
        for &(kind, lpid) in meta.iter().rev() {
            if !seen.insert(lpid) {
                continue; // obsolete older version of an LPID already seen
            }
            let packed = self.lookup_addr(kind, lpid)?;
            let Some(addr) = PhysAddr::unpack(packed) else {
                continue;
            };
            if addr.eblock_addr() != eb {
                continue;
            }
            found.push((lpid, kind, packed, addr.extent()));
        }
        found.reverse(); // restore oldest-to-newest write order
        let exts: Vec<ByteExtent> = found.iter().map(|f| f.3).collect();
        let (pages, tickets) = crate::gc::read_in_rblock_runs(&mut self.dev, &exts)?;
        valid.extend(
            found
                .into_iter()
                .zip(pages)
                .map(|((lpid, kind, old_addr, _), bytes)| ActionPage {
                    lpid,
                    kind,
                    bytes,
                    old_addr,
                }),
        );
        Ok(tickets)
    }

    /// Erase an EBLOCK, reset its descriptor and return it to the free
    /// list.
    pub(crate) fn erase_and_free(&mut self, eb: EblockAddr) -> Result<()> {
        let t = self.dev.erase(eb)?;
        self.dev.clock_mut().wait_until(t);
        self.retire_erased(eb)
    }

    /// Post-erase bookkeeping shared by the blocking and batched erase
    /// paths: log the erase, reset the descriptor, drop the EBLOCK from the
    /// log-reclaim index and return it to the free list — unless the block
    /// has crossed the lifetime program-failure threshold, in which case it
    /// is permanently retired instead of being re-provisioned.
    pub(crate) fn retire_erased(&mut self, eb: EblockAddr) -> Result<()> {
        self.trace_eb(eb, "erase_and_free");
        let lsn = self.log_append(&LogRecord::EraseEblock {
            channel: eb.channel,
            eblock: eb.eblock,
        })?;
        self.summary.update(eb, lsn, |d| {
            d.state = EblockState::Free;
            d.purpose = EblockPurpose::Data;
            d.erase_count += 1;
            d.data_wblocks = 0;
            d.meta_wblocks = 0;
            d.avail = 0;
            d.ts = 0;
            d.max_lsn = 0;
            // d.program_failures deliberately survives the erase: it is the
            // retirement policy's cross-heal-cycle evidence.
        });
        self.chans[eb.channel as usize]
            .log_reclaim
            .retain(|&(_, e)| e != eb.eblock);
        self.stats.gc_erases += 1;
        let failures = self.summary.get(eb).program_failures;
        if self.cfg.retire_program_failures > 0 && failures >= self.cfg.retire_program_failures {
            // The block keeps failing across heal cycles: bad media, not a
            // transient. Log the retirement after the erase so replay lands
            // on the retired state last, and never return it to the free
            // list — DeviceFull now honestly reflects the lost capacity.
            let rlsn = self.log_append(&LogRecord::RetireEblock {
                channel: eb.channel,
                eblock: eb.eblock,
            })?;
            self.summary.update(eb, rlsn, |d| d.state = EblockState::Retired);
            self.stats.retired_eblocks += 1;
            return Ok(());
        }
        self.trace_eb(eb, "free (post-erase)");
        self.chans[eb.channel as usize].free.push_back(eb.eblock);
        Ok(())
    }

    /// Record a program failure against the EBLOCK that absorbed it: bump
    /// the controller-level counter and the block's lifetime failure count
    /// in the summary (the evidence [`Eleos::retire_erased`] consults).
    /// The reserved checkpoint area is exempt — it is a fixed address the
    /// recovery protocol depends on, so it can never be retired.
    pub(crate) fn note_program_failure(&mut self, eb: EblockAddr) {
        self.trace_eb(eb, "program failure");
        self.stats.program_failures += 1;
        if self.summary.get(eb).purpose == EblockPurpose::CkptArea {
            return;
        }
        let lsn = self.wal.next_lsn();
        self.summary.update(eb, lsn, |d| {
            d.program_failures = d.program_failures.saturating_add(1);
        });
    }

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

/// Push the programs of a region whose `pages` pack back-to-back from the
/// start of WBLOCK `first`, the last one zero-padded. Pages that are
/// adjacent views of one buffer are taken as one chunk: a user batch chunk
/// is usually one slice of the batch buffer, so its full WBLOCKs become
/// zero-copy slices of it, and a GC victim's consecutive live pages are
/// copied with one copy.
fn push_wblocks(
    pages: &[ActionPage],
    first: WblockAddr,
    wb: usize,
    ios: &mut Vec<(WblockAddr, Bytes)>,
) {
    let mut at = first;
    let mut buf: Vec<u8> = Vec::new();
    let mut i = 0;
    while i < pages.len() {
        let mut chunk = pages[i].bytes.clone();
        i += 1;
        while i < pages.len() && chunk.try_extend(&pages[i].bytes) {
            i += 1;
        }
        let mut off = 0;
        while off < chunk.len() {
            if buf.is_empty() && chunk.len() - off >= wb {
                ios.push((at, chunk.slice(off..off + wb)));
                off += wb;
            } else {
                if buf.is_empty() {
                    buf.reserve_exact(wb);
                }
                let take = (chunk.len() - off).min(wb - buf.len());
                buf.extend_from_slice(&chunk[off..off + take]);
                off += take;
                if buf.len() < wb {
                    continue;
                }
                ios.push((at, Bytes::from(std::mem::take(&mut buf))));
            }
            at.wblock += 1;
        }
    }
    if !buf.is_empty() {
        buf.resize(wb, 0);
        ios.push((at, Bytes::from(buf)));
    }
}
