//! The user-action pipeline (Section IV; DESIGN.md §14): write and delete
//! intake, staging, commit and install, the shard-local half of the
//! cross-shard two-phase group commit (the router lives in
//! `eleos::sharded`), and the housekeeping that follows a committed write.

use super::action::{ActionPage, Dest, Plan};
use super::Eleos;
use crate::batch::{parse_batch, WriteBatch, ENTRY_HEADER};
use crate::error::{EleosError, Result};
use crate::phys::{PhysAddr, NULL_PADDR};
use crate::stats::EleosStats;
use crate::types::{ActionId, ActionKind, Lpid, Lsn, PageKind, Sid, Wsn};
use crate::wal::LogRecord;
use bytes::Bytes;
use eleos_flash::{Activity, Nanos, SpanKind};

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

/// What a staged user action counts when it commits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StagedKind {
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
    id: ActionId,
    /// LSN of the action's first `Write` record (the install tag).
    first_lsn: Lsn,
    /// Simulated time the controller started on the action (span start).
    t0: Nanos,
    /// `(lpid, packed new address)` per page, in batch order
    /// (`NULL_PADDR` for deletes).
    entries: Vec<(Lpid, u64)>,
    /// Provisioned addresses — freed as garbage if the group aborts
    /// (empty for deletes, which provision nothing).
    new_addrs: Vec<PhysAddr>,
    /// When the staged work — data programs, and a prepared action's
    /// forced `Prepare` — is durable.
    pub(crate) durable: Nanos,
    kind: StagedKind,
}

impl Eleos {
    // ------------------------------------------------------------------
    // Writes
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
        }
        self.write_inner(opts.session.as_slice(), batch, !opts.pipelined)
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
        self.check_sessions_open(advances)?;
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
            let (pages, plan, kind) = this.plan_user_write(batch)?;
            let done_at =
                this.execute(ActionKind::User, advances, &pages, &plan, wait_durable)?;
            kind.count(&mut this.stats);
            // The user's batch is committed and installed from here on, so
            // the housekeeping after it reports none of its own aborts or
            // `DeviceFull` (see `post_write_maintenance`).
            this.post_write_maintenance()?;
            Ok(BatchAck {
                lpages: pages.len(),
                done_at,
            })
        })
    }

    /// Intake and plan of a user write, shared by the direct and the
    /// prepared write: check the batch, adopt its buffer, charge the host
    /// submission and transport, run GC if it is due, and provision the
    /// pages. Returns them with their plan and the statistics their commit
    /// counts. The transport DMA is charged in simulated time but copies
    /// nothing: the controller takes a refcounted view of the host's
    /// buffer ([`WriteBatch::shared`]), and every page view, WBLOCK program
    /// and stored WBLOCK downstream slices it. Every LPID is checked
    /// against the mapping's range before anything is charged or logged,
    /// so a rejected batch changes nothing.
    fn plan_user_write(
        &mut self,
        batch: &WriteBatch,
    ) -> Result<(Vec<ActionPage>, Plan, StagedKind)> {
        if self.shutdown {
            return Err(EleosError::ShutDown);
        }
        if batch.is_empty() {
            return Err(EleosError::EmptyBatch);
        }
        let bytes = batch.shared();
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
        self.maybe_gc()?;
        let plan = self.plan(&pages, Dest::User)?;
        Ok((pages, plan, kind))
    }

    /// Post-commit housekeeping: evict-flush dirty mapping pages under
    /// cache pressure ("flushed, e.g., by page eviction or checkpointing" —
    /// Section VIII-C2) and take an automatic checkpoint once enough log
    /// has accumulated. The sharded router calls this only after a
    /// cross-shard group fully resolves, so log truncation never runs
    /// while a `Prepare` is awaiting its coordinator decision.
    ///
    /// The user action it follows has committed and installed. A flush or
    /// checkpoint that aborts on a program failure, even after its bounded
    /// retries, or finds no space (`ActionAborted`, `DeviceFull`) is
    /// therefore not the caller's error: the caller would believe a durable
    /// batch had no effect, and re-submit or drop it. Both are retried on a
    /// later write; `ShutDown` and flash errors still propagate.
    pub(crate) fn post_write_maintenance(&mut self) -> Result<()> {
        fn deferred(res: Result<()>) -> Result<()> {
            match res {
                Err(EleosError::ActionAborted | EleosError::DeviceFull) => Ok(()),
                res => res,
            }
        }
        if self.mapping.overfull() {
            let dirty = self.mapping.dirty_pages();
            let k = dirty.len().min(8);
            // Cache-pressure eviction flushes are mapping I/O, not
            // checkpoint work — the ledger row the policy lab reads.
            deferred(self.with_activity(Activity::MapIo, |this| {
                this.flush_map_pages(&dirty[..k])
            }))?;
        }
        if self.wal.bytes_appended - self.last_ckpt_bytes >= self.cfg.ckpt_log_bytes {
            deferred(self.checkpoint())?;
        }
        Ok(())
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

    // ------------------------------------------------------------------
    // Stage and commit
    // ------------------------------------------------------------------

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
    // Cross-shard two-phase group commit (shard-local half)
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
            let (pages, plan, kind) = this.plan_user_write(batch)?;
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
}
