//! Fuzzy checkpointing (Section VIII-B).
//!
//! A checkpoint flushes dirty mapping-table pages, the whole small table,
//! and dirty EBLOCK-summary pages through ordinary (logged) checkpoint
//! system actions; force-closes EBLOCKs that have been open since before
//! the previous checkpoint (they would otherwise pin the truncation LSN);
//! computes the truncation LSN as the minimum of the three factors; and
//! persists the checkpoint record to the well-known location.

use crate::batch::encode_entry;
use crate::ckpt::CheckpointRecord;
use crate::controller::{ActionPage, Dest, Eleos, Plan};
use crate::error::{EleosError, Result};
use crate::phys::NULL_PADDR;
use crate::summary::{EblockPurpose, EblockState};
use crate::types::{ActionKind, Lsn, PageKind, MAP_PAGE_BASE, SMALL_PAGE_BASE, SUMMARY_PAGE_BASE};
use crate::wal::LogRecord;
use eleos_flash::{Activity, FlashError, SpanKind};

impl Eleos {
    /// Take a fuzzy checkpoint.
    pub fn checkpoint(&mut self) -> Result<()> {
        let t0 = self.dev.clock().now();
        let res = self.with_activity(Activity::Ckpt, |this| this.checkpoint_impl());
        if res.is_ok() {
            self.finish_span(SpanKind::Checkpoint, t0);
        }
        res
    }

    fn checkpoint_impl(&mut self) -> Result<()> {
        if self.shutdown {
            return Err(EleosError::ShutDown);
        }
        // 1. Force-close EBLOCKs open since before the previous checkpoint
        //    ("forcibly closes some open EBLOCKs if they are opened for too
        //    long").
        let stale_before = self.last_ckpt_lsn;
        self.force_close_stale_opens(stale_before)?;

        // 2. Flush dirty mapping pages.
        let dirty = self.mapping.dirty_pages();
        self.flush_map_pages(&dirty)?;

        // 3. Flush the entire small table (it indexes the mapping pages
        //    just flushed; the tiny table goes into the checkpoint record).
        self.run_ckpt_action(|this| {
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
        self.flush_summary_pages()?;

        // 5. Truncation LSN = min of the three factors (Section VIII-B).
        let mut trunc = self.wal.next_lsn();
        if let Some(&l) = self.active_first_lsn.values().min() {
            trunc = trunc.min(l);
        }
        if let Some(l) = self.mapping.min_rec_lsn() {
            trunc = trunc.min(l);
        }
        if let Some(l) = self.summary.min_rec_lsn() {
            trunc = trunc.min(l);
        }
        for ch in &self.chans {
            for ob in ch.user_open.iter().chain(ch.gc_open.iter().flatten()) {
                if let Some(l) = ob.first_lsn {
                    trunc = trunc.min(l);
                }
            }
        }

        // 6. Everything appended so far must be durable before the record
        //    points at it.
        let t = self.log_force()?;
        self.dev.clock_mut().wait_until(t);
        trunc = trunc.min(self.wal.pending_first_lsn());

        // 7. Write the checkpoint record.
        let (log_resume, log_resume_seq) = self.wal.resume_point(trunc);
        let rec = CheckpointRecord {
            seq: self.ckpt_area.next_seq(),
            trunc_lsn: trunc,
            next_lsn: self.wal.next_lsn(),
            log_resume,
            log_resume_seq,
            usn: self.usn,
            next_action: self.next_action,
            tiny: self.mapping.tiny().to_vec(),
            summary_small: self.summary.page_addrs().to_vec(),
            sessions: self.sessions.clone(),
        };
        match self.ckpt_area.write(&mut self.dev, &rec) {
            Ok(t) => self.dev.clock_mut().wait_until(t),
            Err(EleosError::Flash(eleos_flash::FlashError::ProgramFailed(addr))) => {
                self.note_program_failure(addr.eblock);
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
        self.trunc_lsn = trunc;
        self.wal.truncate_directory(trunc);
        self.last_ckpt_bytes = self.wal.bytes_appended;
        self.last_ckpt_lsn = rec.next_lsn;
        self.stats.checkpoints += 1;
        Ok(())
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
        let attempts = self.cfg.ckpt_retry_attempts.max(1);
        for attempt in 1..=attempts {
            let pages = build(self)?;
            match self.run_action(ActionKind::Ckpt, &pages, Dest::User) {
                Ok(_) => return Ok(()),
                Err(EleosError::ActionAborted) if attempt < attempts => {
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
        self.with_activity(Activity::Ckpt, |this| this.flush_summary_pages_impl())
    }

    fn flush_summary_pages_impl(&mut self) -> Result<()> {
        let mode = self.cfg.page_mode;
        let attempts = self.cfg.ckpt_retry_attempts.max(1);
        for attempt in 1..=attempts {
            let to_flush: Vec<usize> = (0..self.summary.n_pages())
                .filter(|&p| {
                    self.summary.page_meta(p).dirty || self.summary.page_addr(p) == NULL_PADDR
                })
                .collect();
            if to_flush.is_empty() {
                return Ok(());
            }
            let pre_rec_lsns: Vec<(usize, Lsn)> = to_flush
                .iter()
                .map(|&p| (p, self.summary.page_meta(p).rec_lsn))
                .collect();
            let flush_lsn = self.wal.next_lsn() - 1;
            let summary_pages: Vec<ActionPage> = to_flush
                .iter()
                .map(|&p| {
                    let payload = self.summary.encode_page(p, flush_lsn);
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
            match self.run_action(ActionKind::Ckpt, &summary_pages, Dest::User) {
                Ok(_) => return Ok(()),
                Err(e) => {
                    for &(p, rec) in &pre_rec_lsns {
                        // rec == 0 means the page was clean (flushed only
                        // because its flash address was NULL) — it depends
                        // on no records, so there is nothing to re-pin.
                        if rec != 0 {
                            self.summary.mark_dirty(p, rec);
                        }
                    }
                    match e {
                        EleosError::ActionAborted if attempt < attempts => {
                            self.stats.action_retries += 1;
                        }
                        other => return Err(other),
                    }
                }
            }
        }
        Err(EleosError::ActionAborted)
    }

    /// Flush specific mapping pages through a checkpoint system action
    /// (also used for cache-pressure eviction flushes). The pages are
    /// re-encoded from the live cache on every retry attempt so a
    /// mid-flush migration's mapping updates are never overwritten by the
    /// previous attempt's stale bytes.
    pub(crate) fn flush_map_pages(&mut self, pages: &[u32]) -> Result<()> {
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
            let stale_user = self.chans[ch]
                .user_open
                .as_ref()
                .is_some_and(|ob| ob.first_lsn.is_some_and(|l| l < before_lsn));
            if stale_user {
                let ob = self.chans[ch].user_open.take().unwrap();
                self.force_close_now(ob, Dest::User)?;
            }
            for bin in 0..self.chans[ch].gc_open.len() {
                let stale = self.chans[ch].gc_open[bin]
                    .as_ref()
                    .is_some_and(|ob| ob.first_lsn.is_some_and(|l| l < before_lsn));
                if stale {
                    let ob = self.chans[ch].gc_open[bin].take().unwrap();
                    let victim_ts = ob.bin_ts.unwrap_or(self.usn);
                    self.force_close_now(
                        ob,
                        Dest::GcBin {
                            victim_channel: ch as u32,
                            victim_ts,
                        },
                    )?;
                }
            }
        }
        Ok(())
    }

    /// Close an open EBLOCK immediately: flush its metadata and log the
    /// close (used by checkpointing and post-recovery fixup).
    pub(crate) fn force_close_now(
        &mut self,
        ob: crate::provision::OpenEblock,
        dest: Dest,
    ) -> Result<()> {
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
        self.close_cursor(ob, dest, &mut plan)?;
        // Deferred completion: all programs target this one EBLOCK (one
        // channel), so submitting them back to back and waiting once is
        // schedule-identical to waiting per program — except on the
        // program-failure path, where the serial wait order is preserved
        // with `defer_io` off.
        let defer = self.cfg.defer_io;
        let mut horizon = 0;
        for (at, data) in &plan.ios {
            match self.dev.program(*at, data.clone(), &[]) {
                Ok(t) if defer => horizon = horizon.max(t),
                Ok(t) => self.dev.clock_mut().wait_until(t),
                Err(FlashError::ProgramFailed(_)) => {
                    self.dev.clock_mut().wait_until(horizon);
                    self.note_program_failure(addr);
                    // The cursor was already detached into the close plan, so
                    // the only copy of this EBLOCK's entry list is the close
                    // event's — `migrate_eblock` would find neither cursor nor
                    // flash metadata and erase the block with its live pages
                    // still inside.
                    return match plan.closes.iter().find(|c| c.addr == addr) {
                        Some(c) => self.migrate_with_meta(addr, &c.entries, 0),
                        None => self.migrate_eblock(addr, 0),
                    };
                }
                Err(e) => return Err(e.into()),
            }
        }
        self.dev.clock_mut().wait_until(horizon);
        for c in &plan.closes {
            self.log_append(&LogRecord::CloseEblock {
                channel: c.addr.channel,
                eblock: c.addr.eblock,
                ts: c.ts,
                data_wblocks: c.data_wblocks,
                meta_wblocks: c.meta_wblocks,
            })?;
        }
        Ok(())
    }
}
