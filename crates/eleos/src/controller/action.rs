//! The system-action engine (Section IV-B/C: init / execute / commit) and
//! the log helpers every action appends through.
//!
//! Every update runs as stage → commit → install → done. `execute`
//! strings the steps together for a direct action; a user write or
//! delete staged on its own (`user::stage_user`) is committed by
//! `commit_staged`, at once or after its group's `Prepare`.

use super::Eleos;
use crate::error::{EleosError, Result};
use crate::phys::{PhysAddr, NULL_PADDR};
use crate::summary::{EblockPurpose, EblockState};
use crate::types::{ActionId, ActionKind, Lpid, Lsn, PageKind, Sid, Usn, Wsn};
use crate::wal::{LogRecord, SealOutcome};
use bytes::Bytes;
use eleos_flash::{Activity, EblockAddr, FlashError, Nanos, WblockAddr};

/// One page of work inside a system action: the stored entry bytes plus the
/// conditional-install expectation for GC/migration.
#[derive(Debug, Clone)]
pub(super) struct ActionPage {
    pub(super) lpid: Lpid,
    pub(super) kind: PageKind,
    /// Stored entry bytes (header + payload + padding). A refcounted view —
    /// for user writes a slice of the batch buffer, for GC/migration the
    /// flash read result — so building an action never copies page payloads.
    pub(super) bytes: Bytes,
    /// Packed address this page is being relocated from (GC/migrate);
    /// `NULL_PADDR` for user and checkpoint writes.
    pub(super) old_addr: u64,
}

/// Where a system action's pages are provisioned.
#[derive(Debug, Clone, Copy)]
pub(super) enum Dest {
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
pub(super) type Segment = (std::ops::Range<usize>, Dest);

/// A planned EBLOCK close produced during provisioning.
#[derive(Debug)]
pub(super) struct CloseEvent {
    pub(super) addr: EblockAddr,
    pub(super) ts: Usn,
    pub(super) data_wblocks: u16,
    pub(super) meta_wblocks: u16,
    /// Encoded metadata pages, kept for abort-repair (Section VII).
    pub(super) meta_pages: Vec<Bytes>,
    /// The metadata entries themselves, kept so a write failure in this
    /// EBLOCK can still migrate it (the flash copy may never land).
    pub(super) entries: Vec<(PageKind, Lpid)>,
}

impl CloseEvent {
    /// The `CloseEblock` record that makes this close durable.
    pub(super) fn record(&self) -> LogRecord {
        LogRecord::CloseEblock {
            channel: self.addr.channel,
            eblock: self.addr.eblock,
            ts: self.ts,
            data_wblocks: self.data_wblocks,
            meta_wblocks: self.meta_wblocks,
        }
    }
}

/// Output of write provisioning for one system action (for a GC pass, of
/// every round it staged).
#[derive(Debug, Default)]
pub(super) struct Plan {
    /// Physical address per page (parallel to the action's page list).
    pub(super) addrs: Vec<PhysAddr>,
    /// WBLOCK programs to execute, in required program order. Each buffer
    /// is a refcounted view (typically a slice of the batch buffer) that
    /// the device adopts without copying.
    pub(super) ios: Vec<(WblockAddr, Bytes)>,
    /// EBLOCKs closed by this action.
    pub(super) closes: Vec<CloseEvent>,
    /// Data regions provisioned: (eblock, start byte, end byte).
    pub(super) touched: Vec<(EblockAddr, u64, u64)>,
}

impl Plan {
    /// Packed new address of page `i`: null under a delete's empty plan.
    pub(super) fn new_addr(&self, i: usize) -> u64 {
        self.addrs.get(i).map_or(NULL_PADDR, |a| a.pack())
    }
}

impl Eleos {
    // ------------------------------------------------------------------
    // The system-action engine
    // ------------------------------------------------------------------

    /// A synchronous one-segment system action with no session advances.
    /// Returns when it is durable.
    pub(super) fn run_action(
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
    pub(super) fn plan(&mut self, pages: &[ActionPage], dest: Dest) -> Result<Plan> {
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
    pub(super) fn execute(
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
    pub(super) fn stage(
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
                this.wal_append(&c.record())?;
            }
            Ok(first_lsn)
        })?;

        // One batched submission, programmed in input order without moving
        // the CPU, so WBLOCKs on distinct channels overlap. A user plan's
        // full WBLOCKs are refcount views of the host's batch buffer, no
        // byte copies.
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
    pub(super) fn log_commit(
        &mut self,
        id: ActionId,
        advances: &[(Sid, Wsn)],
    ) -> Result<(Lsn, Nanos)> {
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
    pub(super) fn install(
        &mut self,
        id: ActionId,
        pages: impl IntoIterator<Item = (PageKind, Lpid, u64)>,
        tag: Lsn,
    ) -> Result<()> {
        for (kind, lpid, new_packed) in pages {
            let old = match kind {
                PageKind::User => self.mapping.set(lpid, new_packed, tag, &mut self.dev)?,
                _ => {
                    let old = self.table_addr(kind, lpid);
                    self.set_table_addr(kind, lpid, new_packed);
                    old
                }
            };
            if kind == PageKind::MapPage {
                // A checkpoint flushed this map page: its cached copy is
                // clean now.
                let i = PageKind::table_index(lpid) as u32;
                self.mapping.mark_page_flushed(i, new_packed);
            }
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

    /// Install a relocated page only if its table still holds
    /// `expected_old` (GC and migration, Section VI-C). Returns whether it
    /// installed.
    fn install_conditional(
        &mut self,
        kind: PageKind,
        lpid: Lpid,
        expected_old: u64,
        new_packed: u64,
        tag_lsn: Lsn,
    ) -> Result<bool> {
        if kind == PageKind::User {
            return self
                .mapping
                .set_if(lpid, expected_old, new_packed, tag_lsn, &mut self.dev);
        }
        let installed = self.table_addr(kind, lpid) == expected_old;
        if installed {
            self.set_table_addr(kind, lpid, new_packed);
        }
        Ok(installed)
    }

    /// Finish a committed action: append `Done`, release its log-truncation
    /// pin, apply its session advances and count the commit.
    pub(super) fn finish_action(&mut self, id: ActionId, advances: &[(Sid, Wsn)]) -> Result<()> {
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

    /// Current address of an LPID by its page kind — the table GC consults
    /// for validity (Section VI-C).
    pub(super) fn lookup_addr(&mut self, kind: PageKind, lpid: Lpid) -> Result<u64> {
        if kind == PageKind::User {
            return Ok(self
                .mapping
                .get(lpid, &mut self.dev)?
                .map_or(NULL_PADDR, |a| a.pack()));
        }
        Ok(self.table_addr(kind, lpid))
    }

    /// Address of a table page: a mapping page's in the small table, a
    /// small-table page's in the tiny table, a summary page's in the
    /// summary's own page index.
    fn table_addr(&self, kind: PageKind, lpid: Lpid) -> u64 {
        let i = PageKind::table_index(lpid) as usize;
        match kind {
            PageKind::MapPage => self.mapping.small_addr(i as u32),
            PageKind::SmallPage => self.mapping.tiny_addr(i),
            PageKind::SummaryPage => self.summary.page_addr(i),
            PageKind::User => unreachable!("user pages are addressed by the mapping"),
        }
    }

    /// Point a table page's slot (see [`Eleos::table_addr`]) at `packed`.
    fn set_table_addr(&mut self, kind: PageKind, lpid: Lpid, packed: u64) {
        let i = PageKind::table_index(lpid) as usize;
        match kind {
            PageKind::MapPage => self.mapping.set_small_addr(i as u32, packed),
            PageKind::SmallPage => self.mapping.set_tiny_addr(i, packed),
            PageKind::SummaryPage => self.summary.set_page_addr(i, packed),
            PageKind::User => unreachable!("user pages are addressed by the mapping"),
        }
    }

    // ------------------------------------------------------------------
    // Log helpers
    // ------------------------------------------------------------------

    pub(super) fn log_append(&mut self, rec: &LogRecord) -> Result<Lsn> {
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

    pub(super) fn log_force(&mut self) -> Result<Nanos> {
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
    pub(super) fn index_log_reclaim(&mut self, eb: EblockAddr) {
        let d = self.summary.get(eb);
        if d.state == EblockState::Used && d.purpose == EblockPurpose::Log {
            self.chans[eb.channel as usize]
                .log_reclaim
                .insert((d.max_lsn, eb.eblock));
        }
    }

    pub(super) fn top_up_log_standbys(&mut self) -> Result<()> {
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
}
