//! Fuzzy checkpointing (Section VIII-B).
//!
//! A checkpoint flushes dirty mapping-table pages, the whole small table,
//! and dirty EBLOCK-summary pages through ordinary (logged) checkpoint
//! system actions; force-closes EBLOCKs that have been open since before
//! the previous checkpoint (they would otherwise pin the truncation LSN);
//! computes the truncation LSN as the minimum of the three factors; and
//! persists the checkpoint record to the well-known location.

use super::action::{ActionPage, Dest, Plan};
use super::provision::OpenEblock;
use super::Eleos;
use crate::batch::encode_entry;
use crate::ckpt::CheckpointRecord;
use crate::error::{EleosError, Result};
use crate::phys::NULL_PADDR;
use crate::summary::{EblockPurpose, EblockState};
use crate::types::{ActionKind, Lsn, PageKind, MAP_PAGE_BASE, SMALL_PAGE_BASE, SUMMARY_PAGE_BASE};
use eleos_flash::{Activity, FlashError, SpanKind};

/// Attempts of a checkpoint-internal flush action that aborts on a program
/// failure (see [`Eleos::run_ckpt_action`]).
const CKPT_ATTEMPTS: u32 = 3;

impl Eleos {
    /// Take a fuzzy checkpoint.
    pub fn checkpoint(&mut self) -> Result<()> {
        self.traced(Activity::Ckpt, SpanKind::Checkpoint, |this| {
            if this.shutdown {
                return Err(EleosError::ShutDown);
            }
            // 1. Force-close EBLOCKs open since before the previous checkpoint
            //    ("forcibly closes some open EBLOCKs if they are opened for too
            //    long").
            let stale_before = this.last_ckpt_lsn;
            this.force_close_stale_opens(stale_before)?;

            // 2. Flush dirty mapping pages.
            let dirty = this.mapping.dirty_pages();
            this.flush_map_pages(&dirty)?;

            // 3. Flush the entire small table (it indexes the mapping pages
            //    just flushed; the tiny table goes into the checkpoint record).
            this.run_ckpt_action(|this| {
                let mode = this.cfg.page_mode;
                Ok((0..this.mapping.n_small_pages())
                    .map(|i| ActionPage {
                        lpid: SMALL_PAGE_BASE + i as u64,
                        kind: PageKind::SmallPage,
                        bytes: encode_entry(
                            SMALL_PAGE_BASE + i as u64,
                            PageKind::SmallPage,
                            &this.mapping.encode_small_page(i),
                            mode,
                        ),
                        old_addr: NULL_PADDR,
                    })
                    .collect())
            })?;

            // 4. Flush dirty (or never-flushed) summary pages. The flush LSN
            //    recorded inside each page is the last already-assigned LSN:
            //    every record at or below it is captured by the encoded
            //    content, and every later record (including this flush action's
            //    own Write records, whose first LSN is `next_lsn()`) replays on
            //    top under the strict `lsn > flush_lsn` guard — the checkpoint
            //    stays fuzzy but idempotent.
            this.flush_summary_pages()?;

            // 5. Truncation LSN = min of the three factors (Section VIII-B).
            let mut trunc = this.wal.next_lsn();
            if let Some(&l) = this.active_first_lsn.values().min() {
                trunc = trunc.min(l);
            }
            if let Some(l) = this.mapping.min_rec_lsn() {
                trunc = trunc.min(l);
            }
            if let Some(l) = this.summary.min_rec_lsn() {
                trunc = trunc.min(l);
            }
            for ob in this.chans.iter().flat_map(|ch| ch.cursors()) {
                if let Some(l) = ob.first_lsn {
                    trunc = trunc.min(l);
                }
            }

            // 6. Everything appended so far must be durable before the record
            //    points at it.
            let t = this.log_force()?;
            this.dev.clock_mut().wait_until(t);
            trunc = trunc.min(this.wal.pending_first_lsn());

            // 7. Write the checkpoint record.
            let (log_resume, log_resume_seq) = this.wal.resume_point(trunc);
            let rec = CheckpointRecord {
                seq: this.ckpt_area.next_seq(),
                trunc_lsn: trunc,
                next_lsn: this.wal.next_lsn(),
                log_resume,
                log_resume_seq,
                usn: this.usn,
                next_action: this.next_action,
                tiny: this.mapping.tiny().to_vec(),
                summary_small: this.summary.page_addrs().to_vec(),
                sessions: this.sessions.clone(),
            };
            match this.ckpt_area.write(&mut this.dev, &rec) {
                Ok(t) => this.dev.clock_mut().wait_until(t),
                Err(EleosError::Flash(eleos_flash::FlashError::ProgramFailed(addr))) => {
                    this.note_program_failure(addr.eblock);
                    // The reserved EBLOCK refused the record even after a
                    // retry. The previous checkpoint is intact and every state
                    // change this checkpoint flushed is already durable and
                    // logged — skip the record; truncation simply does not
                    // advance this round.
                    return Ok(());
                }
                Err(e) => return Err(e),
            }

            // 8. "Checkpointing does not itself truncate the log. Rather it
            //    only updates the log truncation LSN" — old log EBLOCKs are
            //    erased later by GC.
            this.trunc_lsn = trunc;
            this.wal.truncate_directory(trunc);
            this.last_ckpt_bytes = this.wal.bytes_appended;
            this.last_ckpt_lsn = rec.next_lsn;
            this.stats.checkpoints += 1;
            Ok(())
        })
    }

    /// Run a checkpoint-internal flush action with bounded retry. A
    /// program-failure abort has already migrated valid pages off the
    /// poisoned EBLOCK, so the retry provisions a fresh destination;
    /// without the retry the abort would surface to whichever user write
    /// happened to trigger the automatic checkpoint, and the caller would
    /// re-submit (and double-write) an already-committed buffer.
    ///
    /// `build` re-encodes the pages on EVERY attempt. That is not an
    /// optimization knob: the abort's own failure handling migrates the
    /// poisoned EBLOCK, and the migration rewrites mapping entries and
    /// summary descriptors. Re-programming the first attempt's bytes would
    /// commit a flush that silently drops those updates — the install
    /// marks the pages clean, nothing re-flushes them, and the stale copy
    /// is what the next recovery loads.
    fn run_ckpt_action<F>(&mut self, mut build: F) -> Result<()>
    where
        F: FnMut(&mut Self) -> Result<Vec<ActionPage>>,
    {
        // Attribution is inherited from the caller: checkpoint-driven
        // flushes run under `Ckpt`, cache-pressure eviction flushes
        // reached from the write path run under `MapIo` — never as
        // user-write work either way.
        for attempt in 1..=CKPT_ATTEMPTS {
            let pages = build(self)?;
            match self.run_action(ActionKind::Ckpt, &pages, Dest::User) {
                Ok(_) => return Ok(()),
                Err(EleosError::ActionAborted) if attempt < CKPT_ATTEMPTS => {
                    self.stats.action_retries += 1;
                }
                Err(e) => return Err(e),
            }
        }
        Err(EleosError::ActionAborted)
    }

    /// Flush the dirty / never-flushed summary pages with bounded retry.
    /// `encode_page` marks each page clean as a side effect, so every
    /// failed attempt restores the dirty bits and rec LSNs before the
    /// retry (or the final error): a clean-but-not-durable page would let
    /// truncation advance past records it still depends on, and would
    /// hide it from the next attempt's dirty scan.
    fn flush_summary_pages(&mut self) -> Result<()> {
        self.with_activity(Activity::Ckpt, |this| {
            let mode = this.cfg.page_mode;
            for attempt in 1..=CKPT_ATTEMPTS {
                let to_flush: Vec<usize> = (0..this.summary.n_pages())
                    .filter(|&p| {
                        this.summary.page_meta(p).dirty || this.summary.page_addr(p) == NULL_PADDR
                    })
                    .collect();
                if to_flush.is_empty() {
                    return Ok(());
                }
                let pre_rec_lsns: Vec<(usize, Lsn)> = to_flush
                    .iter()
                    .map(|&p| (p, this.summary.page_meta(p).rec_lsn))
                    .collect();
                let flush_lsn = this.wal.next_lsn() - 1;
                let summary_pages: Vec<ActionPage> = to_flush
                    .iter()
                    .map(|&p| {
                        let payload = this.summary.encode_page(p, flush_lsn);
                        ActionPage {
                            lpid: SUMMARY_PAGE_BASE + p as u64,
                            kind: PageKind::SummaryPage,
                            bytes: encode_entry(
                                SUMMARY_PAGE_BASE + p as u64,
                                PageKind::SummaryPage,
                                &payload,
                                mode,
                            ),
                            old_addr: NULL_PADDR,
                        }
                    })
                    .collect();
                match this.run_action(ActionKind::Ckpt, &summary_pages, Dest::User) {
                    Ok(_) => return Ok(()),
                    Err(e) => {
                        for &(p, rec) in &pre_rec_lsns {
                            // rec == 0 means the page was clean (flushed only
                            // because its flash address was NULL) — it depends
                            // on no records, so there is nothing to re-pin.
                            if rec != 0 {
                                this.summary.mark_dirty(p, rec);
                            }
                        }
                        match e {
                            EleosError::ActionAborted if attempt < CKPT_ATTEMPTS => {
                                this.stats.action_retries += 1;
                            }
                            other => return Err(other),
                        }
                    }
                }
            }
            Err(EleosError::ActionAborted)
        })
    }

    /// Flush specific mapping pages through a checkpoint system action
    /// (also used for cache-pressure eviction flushes). The pages are
    /// re-encoded from the live cache on every retry attempt so a
    /// mid-flush migration's mapping updates are never overwritten by the
    /// previous attempt's stale bytes.
    pub(super) fn flush_map_pages(&mut self, pages: &[u32]) -> Result<()> {
        if pages.is_empty() {
            return Ok(());
        }
        self.run_ckpt_action(|this| {
            let mode = this.cfg.page_mode;
            let mut aps = Vec::with_capacity(pages.len());
            for &p in pages {
                let payload = this.mapping.encode_page(p, &mut this.dev)?;
                aps.push(ActionPage {
                    lpid: MAP_PAGE_BASE + p as u64,
                    kind: PageKind::MapPage,
                    bytes: encode_entry(
                        MAP_PAGE_BASE + p as u64,
                        PageKind::MapPage,
                        &payload,
                        mode,
                    ),
                    old_addr: NULL_PADDR,
                });
            }
            Ok(aps)
        })?;
        Ok(())
    }

    /// Force-close any open EBLOCK whose first logged write predates
    /// `before_lsn` (0 = close nothing).
    fn force_close_stale_opens(&mut self, before_lsn: Lsn) -> Result<()> {
        if before_lsn == 0 {
            return Ok(());
        }
        for ch in 0..self.chans.len() {
            for slot in 0..self.chans[ch].slots() {
                if let Some((ob, dest)) = self.chans[ch].take_stale(slot, before_lsn) {
                    self.force_close_now(ob, dest)?;
                }
            }
        }
        Ok(())
    }

    /// Close an open EBLOCK immediately: flush its metadata and log the
    /// close (used by checkpointing and post-recovery fixup).
    pub(super) fn force_close_now(&mut self, ob: OpenEblock, dest: Dest) -> Result<()> {
        if ob.frontier == 0 && ob.meta.is_empty() {
            // Never written: hand it straight back to the free list.
            let addr = ob.addr;
            let lsn = self.wal.next_lsn();
            self.summary.update(addr, lsn, |d| {
                d.state = EblockState::Free;
                d.purpose = EblockPurpose::Data;
            });
            self.trace_eb(addr, "free (unwritten close fast path)");
            self.chans[addr.channel as usize].free.push_back(addr.eblock);
            return Ok(());
        }
        let addr = ob.addr;
        let mut plan = Plan::default();
        self.close_cursor(ob, dest, &mut plan);
        // Deferred completion: all programs target this one EBLOCK (one
        // channel), so submitting them back to back and waiting once is
        // schedule-identical to waiting per program.
        let mut horizon = 0;
        for (at, data) in &plan.ios {
            match self.dev.program(*at, data.clone(), &[]) {
                Ok(t) => horizon = horizon.max(t),
                Err(FlashError::ProgramFailed(_)) => {
                    self.dev.clock_mut().wait_until(horizon);
                    self.note_program_failure(addr);
                    // The cursor was already detached into the close plan, so
                    // the only copy of this EBLOCK's entry list is the close
                    // event's — `migrate_eblock` would find neither cursor nor
                    // flash metadata and erase the block with its live pages
                    // still inside.
                    return self.migrate_closed_or_open(addr, &plan, 0);
                }
                Err(e) => return Err(e.into()),
            }
        }
        self.dev.clock_mut().wait_until(horizon);
        for c in &plan.closes {
            self.log_append(&c.record())?;
        }
        Ok(())
    }
}
