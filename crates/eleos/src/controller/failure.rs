//! Write-failure handling (Section VII): abort the failed action, unwind
//! its plan, and migrate the poisoned EBLOCK's committed LPAGEs through
//! the GC relocation path; plus the erase bookkeeping migration and GC
//! share, and the retirement policy it feeds.

use super::action::{CloseEvent, Dest, Plan};
use super::Eleos;
use crate::error::{EleosError, Result};
use crate::summary::{EblockPurpose, EblockState};
use crate::types::{ActionId, ActionKind, Lpid, Lsn, PageKind};
use crate::wal::LogRecord;
use bytes::Bytes;
use eleos_flash::{Activity, EblockAddr, FlashError, WblockAddr};
use std::collections::HashSet;

/// Maximum nested retry depth for failure-path migrations (a program
/// failure while relocating pages away from an earlier failure). Each
/// retry relocates to a freshly provisioned destination; exhausting the
/// bound shuts the controller down (recovery still replays everything
/// durable).
const MIGRATE_RETRY_LIMIT: u8 = 3;

impl Eleos {
    /// Abort the failed action and migrate the poisoned EBLOCK's committed
    /// LPAGEs to new locations. The caller's buffer must be retried.
    pub(super) fn handle_write_failure<T>(
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
        self.migrate_closed_or_open(failed_eb, plan, depth)?;
        Err(EleosError::ActionAborted)
    }

    /// Migrate `eb` with the metadata of `plan`'s close of it if the plan
    /// closed it (that copy is the only one: the close never reached
    /// flash and its cursor is detached), else as [`Eleos::migrate_eblock`]
    /// finds it.
    pub(super) fn migrate_closed_or_open(
        &mut self,
        eb: EblockAddr,
        plan: &Plan,
        depth: u8,
    ) -> Result<()> {
        match plan.closes.iter().find(|c| c.addr == eb) {
            Some(c) => self.migrate_with_meta(eb, &c.entries, depth),
            None => self.migrate_eblock(eb, depth),
        }
    }

    /// Reconcile a plan that will never commit with the device. EBLOCKs
    /// that the plan *closed* are repaired to a durable close (gaps
    /// zero-filled), so their whole provisioned region is garbage; EBLOCKs
    /// still open roll their cursor back to the device frontier, leaving
    /// only the programmed part as garbage. `failed` is skipped: migration
    /// reclaims it whole.
    pub(super) fn unwind_plan(
        &mut self,
        plan: &Plan,
        failed: Option<EblockAddr>,
        lsn: Lsn,
    ) -> Result<()> {
        let geo = *self.dev.geometry();
        let closed: HashSet<EblockAddr> = plan.closes.iter().map(|c| c.addr).collect();
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
        if let Some(Some(ob)) = self.chans[eb.channel as usize].slot_of(eb) {
            ob.frontier = dev_frontier;
        }
    }

    /// Make a planned close durable after an abort interrupted its
    /// execution, zero-fill any data WBLOCKs the aborted action never
    /// programmed (their space is already counted as garbage), then program
    /// whatever metadata WBLOCKs are still missing. A program failure here
    /// poisons this EBLOCK too; it is migrated with the close event's
    /// metadata (never durable).
    fn ensure_close_durable(&mut self, c: &CloseEvent) -> Result<()> {
        let geo = *self.dev.geometry();
        let meta_start = c.data_wblocks as u32;
        let zeros = Bytes::from(vec![0u8; geo.wblock_bytes as usize]);
        let done = self.dev.programmed_wblocks(c.addr)?;
        let fill = (done..meta_start).map(|w| (w, zeros.clone()));
        let meta = (meta_start..).zip(c.meta_pages.iter().cloned());
        for (w, page) in fill.chain(meta.filter(|&(w, _)| w >= done)) {
            match self
                .dev
                .program(WblockAddr::new(c.addr.channel, c.addr.eblock, w), page, &[])
            {
                Ok(_) => {}
                Err(FlashError::ProgramFailed(_)) => {
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
    fn migrate_eblock(&mut self, eb: EblockAddr, depth: u8) -> Result<()> {
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
    pub(super) fn migrate_with_meta(
        &mut self,
        eb: EblockAddr,
        meta: &[(PageKind, Lpid)],
        depth: u8,
    ) -> Result<()> {
        self.with_activity(Activity::Migrate, |this| {
            if depth > MIGRATE_RETRY_LIMIT {
                this.shutdown = true;
                return Err(EleosError::ShutDown);
            }
            if depth > 0 {
                this.stats.action_retries += 1;
            }
            this.stats.migrations += 1;
            let valid = this.scan_valid_pages(eb, meta)?;
            if !valid.is_empty() {
                let victim_ts = this.summary.get(eb).ts;
                let dest = Dest::GcBin {
                    victim_channel: eb.channel,
                    victim_ts: if victim_ts == 0 { this.usn } else { victim_ts },
                };
                match this.run_action(ActionKind::Migrate, &valid, dest) {
                    Ok(_) => {}
                    Err(EleosError::ActionAborted) => {
                        // A nested failure already migrated the nested
                        // EBLOCK; retry this one with the same metadata.
                        return this.migrate_with_meta(eb, meta, depth + 1);
                    }
                    Err(e) => return Err(e),
                }
            }
            this.erase_and_free(eb)
        })
    }

    /// Read an EBLOCK's metadata from flash via its descriptor, if present
    /// and decodable.
    fn read_flash_meta(&mut self, eb: EblockAddr) -> Option<Vec<(PageKind, Lpid)>> {
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
        super::provision::decode_eblock_meta(&views, &geo).map(|m| m.entries)
    }

    /// Remove and return the in-memory metadata of the open cursor for
    /// `eb`, if any (otherwise the EBLOCK's metadata must be on flash).
    fn detach_cursor_meta(&mut self, eb: EblockAddr) -> Vec<(PageKind, Lpid)> {
        self.chans[eb.channel as usize]
            .slot_of(eb)
            .and_then(Option::take)
            .map_or_else(Vec::new, |ob| ob.meta)
    }

    /// Erase an EBLOCK, reset its descriptor and return it to the free
    /// list.
    pub(super) fn erase_and_free(&mut self, eb: EblockAddr) -> Result<()> {
        let t = self.dev.erase(eb)?;
        self.dev.clock_mut().wait_until(t);
        self.retire_erased(eb)
    }

    /// Post-erase bookkeeping shared by the blocking and batched erase
    /// paths: log the erase, reset the descriptor, drop the EBLOCK from the
    /// log-reclaim index and return it to the free list — unless the block
    /// has crossed the lifetime program-failure threshold, in which case it
    /// is permanently retired instead of being re-provisioned.
    pub(super) fn retire_erased(&mut self, eb: EblockAddr) -> Result<()> {
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
    pub(super) fn note_program_failure(&mut self, eb: EblockAddr) {
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
}
