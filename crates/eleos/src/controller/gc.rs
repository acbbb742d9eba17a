//! Garbage collection (Section VI).
//!
//! GC runs per channel when its free-EBLOCK fraction drops below the
//! configured watermark. Victims are chosen by the min-cost-decline score
//! (1 − E) / (E² · age) — smallest first; log EBLOCKs are reclaimed
//! separately by truncation ("no data movement is needed"). Valid LPAGEs of
//! a victim are identified by a newest-to-oldest scan over its persisted
//! metadata (Fig. 6) that deduplicates LPIDs with a seen-set, read as RBLOCK
//! runs so each covered RBLOCK is read once, and moved through the ordinary
//! system-action write path with conditional installs.
//!
//! A GC *pass* (one [`Eleos::maybe_gc`] call) runs rounds of one victim
//! per needy channel, and relocates all of them in one system action. Each
//! round reads and scans its victims and provisions their live pages into
//! the pass's plan; the log records, programs, commit force, installs and
//! victim erases wait for the end of the pass. A pass commits early only
//! before a round that could run a channel's free list dry.

use super::action::{ActionPage, Dest, Plan, Segment};
use super::provision::decode_eblock_meta;
use super::Eleos;
use crate::config::GcPolicy;
use crate::error::{EleosError, Result};
use crate::phys::PhysAddr;
use crate::summary::{EblockDesc, EblockPurpose, EblockState};
use crate::types::{ActionKind, IntHash, Lpid, PageKind, Usn};
use bytes::Bytes;
use eleos_flash::{
    Activity, ByteExtent, EblockAddr, FlashDevice, Geometry, IoTicket, Nanos, SpanKind,
};
use std::collections::HashSet;

/// One victim readied for relocation: its address, birth timestamp, and
/// the (kind, lpid) entries decoded from its persisted metadata.
type VictimPrep = (EblockAddr, Usn, Vec<(PageKind, Lpid)>);

/// EBLOCKs that staging one victim can allocate on its channel. The
/// victim's live pages fit in one fresh EBLOCK: they fit in the victim,
/// whose metadata described at least as many entries. So its segment
/// fills at most the GC bin it finds open, then one new EBLOCK.
const ALLOCS_PER_VICTIM: usize = 1;

/// Candidate window for [`GcPolicy::WindowedGreedy`]: greedy selection
/// considers only this many oldest closed EBLOCKs per channel. Too narrow a
/// window is dangerous, not just slow: under sequential fill the oldest
/// blocks are fully valid, so a tiny window degenerates to oldest-first and
/// can relocate valid data faster than it reclaims garbage until the device
/// reports `DeviceFull` (measured in the GC policy lab,
/// `eleos-bench::gc_lab`).
const GREEDY_WINDOW: usize = 8;

/// The relocation a GC pass has staged so far: the live pages of every
/// round's victims, provisioned into one plan. Nothing of it is logged,
/// programmed, installed or erased until [`Eleos::commit_pass`].
#[derive(Debug, Default)]
struct Pass {
    pages: Vec<ActionPage>,
    plan: Plan,
    /// Each staged round's victims, at most one per channel.
    rounds: Vec<Vec<EblockAddr>>,
    /// When the first round was staged: the start of the pass's
    /// `GcCollect` span.
    t0: Nanos,
}

impl Pass {
    /// Victims pending on `channel`, which the commit erases into its
    /// free list.
    fn pending(&self, channel: u32) -> usize {
        self.rounds
            .iter()
            .flatten()
            .filter(|v| v.channel == channel)
            .count()
    }

    /// EBLOCKs of `channel` that cannot be victims while the pass is open:
    /// its pending victims, and the EBLOCKs its plan closed. Those are
    /// `Used` before any of their WBLOCKs is programmed, so collecting one
    /// would self-heal-erase a block the pass is about to program.
    fn excluded(&self, channel: u32) -> Vec<u32> {
        self.rounds
            .iter()
            .flatten()
            .copied()
            .chain(self.plan.closes.iter().map(|c| c.addr))
            .filter(|a| a.channel == channel)
            .map(|a| a.eblock)
            .collect()
    }
}

/// Read extents of one EBLOCK with each covered RBLOCK read once (Section
/// V: the device reads whole RBLOCKs). The extents are covered by RBLOCK
/// runs ([`rblock_runs`]), the runs are submitted through
/// [`FlashDevice::read_extents_async`], and each extent is sliced out of its
/// run. Returns the extents' bytes in input order and the runs' tickets,
/// not yet waited on.
fn read_in_rblock_runs(
    dev: &mut FlashDevice,
    exts: &[ByteExtent],
) -> Result<(Vec<Bytes>, Vec<IoTicket>)> {
    let mut sorted = exts.to_vec();
    sorted.sort_unstable_by_key(|e| e.offset);
    let runs = rblock_runs(&sorted, dev.geometry());
    let (data, tickets): (Vec<Bytes>, Vec<IoTicket>) =
        dev.read_extents_async(&runs)?.into_iter().unzip();
    let bytes = exts.iter().map(|e| slice_runs(&runs, &data, *e)).collect();
    Ok((bytes, tickets))
}

/// Cover `sorted` (extents of one EBLOCK, ascending offset) with RBLOCK
/// runs: each extent is rounded out to whole RBLOCKs, touching or
/// overlapping ranges merge, and runs split at WBLOCK boundaries. The split
/// costs no RBLOCK read (WBLOCKs are RBLOCK-aligned) and keeps every run
/// inside one stored WBLOCK, so reading it is a zero-copy view.
fn rblock_runs(sorted: &[ByteExtent], geo: &Geometry) -> Vec<ByteExtent> {
    let (rb, wb) = (geo.rblock_bytes as u64, geo.wblock_bytes as u64);
    let mut runs: Vec<ByteExtent> = Vec::new();
    for e in sorted {
        debug_assert_eq!(e.eblock, sorted[0].eblock, "runs are per EBLOCK");
        let mut lo = e.offset / rb * rb;
        let hi = e.end().div_ceil(rb) * rb;
        while lo < hi {
            let end = hi.min((lo / wb + 1) * wb);
            match runs.last_mut() {
                Some(r) if lo <= r.end() && lo / wb == r.offset / wb => {
                    r.len = r.len.max(end - r.offset);
                }
                _ => runs.push(ByteExtent::new(e.eblock, lo, end - lo)),
            }
            lo = end;
        }
    }
    runs
}

/// The bytes of `ext` out of the `runs` read for it (`data[k]` holds
/// `runs[k]`): a zero-copy slice when it lies in one run, else the
/// concatenation of its slices of consecutive runs — a page spanning
/// WBLOCKs, the same copy a spanning [`FlashDevice::read_extent`] makes.
fn slice_runs(runs: &[ByteExtent], data: &[Bytes], ext: ByteExtent) -> Bytes {
    let mut k = runs.partition_point(|r| r.end() <= ext.offset);
    let r = runs[k];
    if ext.end() <= r.end() {
        let lo = (ext.offset - r.offset) as usize;
        return data[k].slice(lo..lo + ext.len as usize);
    }
    let mut out = Vec::with_capacity(ext.len as usize);
    let mut at = ext.offset;
    while at < ext.end() {
        let r = runs[k];
        let hi = ext.end().min(r.end());
        out.extend_from_slice(&data[k][(at - r.offset) as usize..(hi - r.offset) as usize]);
        at = hi;
        k += 1;
    }
    Bytes::from(out)
}

impl Eleos {
    /// Trigger GC on any channel below the free-space watermark
    /// (Section IV-A1: "lower than 10%, the channel will be marked for
    /// GC"), in one pass.
    ///
    /// Needy channels are serviced round-robin — one reclaim step per
    /// channel per round, with the round's metadata reads and valid-page
    /// reads batched so distinct channels overlap. Every round's victims
    /// are relocated by the pass's one system action and erased after its
    /// commit, one overlapped batch per round.
    pub fn maybe_gc(&mut self) -> Result<()> {
        // Attribute everything underneath — victim scans, relocation
        // actions, erases, and any WAL appends they cause — to GC (WAL
        // I/O re-scopes itself inside `log_append`).
        self.with_activity(Activity::Gc, |this| {
            if this.shutdown {
                return Ok(());
            }
            let geo = *this.dev.geometry();
            let total = geo.eblocks_per_channel as f64;
            let target = (total * this.cfg.gc.free_target).ceil() as usize;
            let watermark = (total * this.cfg.gc.free_watermark).ceil() as usize;
            let active = (0..geo.channels)
                .filter(|&c| this.chans[c as usize].free.len() < watermark)
                .collect();
            let mut pass = Pass::default();
            // An aborted pass has nothing left to commit; a later one
            // retries.
            if this.gc_rounds(&mut pass, active, target)? {
                this.commit_pass(&mut pass)?;
            }
            Ok(())
        })
    }

    /// A channel's free EBLOCKs as GC's targets count them: its free list
    /// plus its victims pending in `pass` — the count per-round erases
    /// would have left.
    fn gc_free(&self, pass: &Pass, channel: u32) -> usize {
        self.chans[channel as usize].free.len() + pass.pending(channel)
    }

    /// Run GC rounds over the `active` channels, staging them into `pass`.
    /// Each round reclaims a truncated log EBLOCK per channel if it has
    /// one, erased at once, else stages a victim. A channel leaves once it
    /// reaches `target`, exhausts its candidates or its guard, or stalls
    /// for three rounds. Returns false if an early commit aborted the pass.
    fn gc_rounds(&mut self, pass: &mut Pass, mut active: Vec<u32>, target: usize) -> Result<bool> {
        let geo = *self.dev.geometry();
        let mut guard = vec![geo.eblocks_per_channel * 2; geo.channels as usize];
        let mut stalled = vec![0u32; geo.channels as usize];
        while !active.is_empty() {
            let before: Vec<usize> = active.iter().map(|&c| self.gc_free(pass, c)).collect();
            // Log EBLOCKs whose records are all below the truncation LSN
            // are free to erase — "smallest scores because no data
            // movement is needed" (Section VI-A).
            let mut erases: Vec<EblockAddr> = Vec::new();
            let mut wanting: Vec<u32> = Vec::new();
            for &ch in &active {
                guard[ch as usize] -= 1;
                match self.pop_truncated_log_eblock(ch) {
                    Some(eb) => erases.push(eb),
                    None => wanting.push(ch),
                }
            }
            self.erase_batch(&erases)?;
            // If this round could run a victim's channel dry, commit the
            // pass first, so provisioning sees the free lists per-round
            // erases would have left.
            let dry = wanting
                .iter()
                .any(|&c| self.chans[c as usize].free.len() <= ALLOCS_PER_VICTIM);
            if dry && !pass.rounds.is_empty() && !self.commit_pass(pass)? {
                return Ok(false);
            }
            let mut victims: Vec<EblockAddr> = Vec::new();
            let mut exhausted: Vec<u32> = Vec::new();
            for &ch in &wanting {
                match self.select_victim(ch, &pass.excluded(ch)) {
                    Some(v) => victims.push(v),
                    None => exhausted.push(ch), // nothing reclaimable on ch
                }
            }
            if !victims.is_empty() {
                self.stage_round(pass, &victims)?;
            }
            let mut next = Vec::new();
            for (i, &ch) in active.iter().enumerate() {
                if exhausted.contains(&ch) {
                    continue;
                }
                let c = ch as usize;
                let now_free = self.gc_free(pass, ch);
                if now_free <= before[i] {
                    stalled[c] += 1;
                    if stalled[c] >= 3 {
                        // No net progress (victims too full); stop rather
                        // than churn.
                        continue;
                    }
                } else {
                    stalled[c] = 0;
                }
                if now_free >= target || guard[c] == 0 {
                    continue;
                }
                next.push(ch);
            }
            active = next;
        }
        Ok(true)
    }

    /// Pop the lowest-`max_lsn` truncated (`max_lsn < trunc_lsn`) Used+Log
    /// EBLOCK on `channel` from the log-reclaim index, or `None`. Entries
    /// are validated against the summary on pop: stale ones (erased or
    /// repurposed since insertion) are dropped, re-keyed ones corrected.
    fn pop_truncated_log_eblock(&mut self, channel: u32) -> Option<EblockAddr> {
        let reclaim = &mut self.chans[channel as usize].log_reclaim;
        loop {
            let &(key_lsn, eb) = reclaim.iter().next()?;
            let addr = EblockAddr::new(channel, eb);
            let d = *self.summary.get(addr);
            if d.state != EblockState::Used || d.purpose != EblockPurpose::Log {
                reclaim.remove(&(key_lsn, eb));
                continue;
            }
            if d.max_lsn != key_lsn {
                reclaim.remove(&(key_lsn, eb));
                reclaim.insert((d.max_lsn, eb));
                continue;
            }
            if d.max_lsn < self.trunc_lsn {
                reclaim.remove(&(key_lsn, eb));
                return Some(addr);
            }
            // The smallest max_lsn is not truncatable yet, so none are.
            return None;
        }
    }

    /// Erase a set of EBLOCKs (at most one per channel), overlapping the
    /// erases on distinct channels. A single EBLOCK takes the blocking
    /// [`Eleos::erase_and_free`] path, which waits for the erase before
    /// appending its `EraseEblock` record; the batched arm below appends
    /// first and waits after, so folding the two would move the WAL append
    /// relative to the clock and change the simulated schedule.
    ///
    /// Multi-victim rounds go through [`FlashDevice::erase_batch`]: all
    /// erases are submitted in one device batch, then each successfully
    /// erased block is retired in victim order. An error mid-batch still retires
    /// the successfully erased prefix — those blocks are physically erased,
    /// so their descriptors must not go stale — before propagating.
    fn erase_batch(&mut self, ebs: &[EblockAddr]) -> Result<()> {
        match ebs {
            [] => Ok(()),
            [eb] => self.erase_and_free(*eb),
            _ => {
                let mut tickets: Vec<IoTicket> = Vec::with_capacity(ebs.len());
                let mut first_err = None;
                for (i, r) in self.dev.erase_batch(ebs).into_iter().enumerate() {
                    match r {
                        Ok(done_at) => {
                            tickets.push(IoTicket {
                                channel: ebs[i].channel,
                                done_at,
                            });
                            self.retire_erased(ebs[i])?;
                        }
                        Err(e) => {
                            first_err = Some(e);
                            break;
                        }
                    }
                }
                self.dev.clock_mut().wait_all(&tickets);
                match first_err {
                    Some(e) => Err(e.into()),
                    None => Ok(()),
                }
            }
        }
    }

    /// Stage one round of victims (at most one per channel) into `pass`
    /// in three phases: (1) the metadata reads, batched, (2) the validity
    /// scans, with one collective wait on their RBLOCK runs, (3) the live
    /// pages provisioned into the pass's plan, one [`Segment`] per victim
    /// into that victim's own GC bin. The action's CPU is charged as it
    /// grows: its context with its first page, then each page.
    fn stage_round(&mut self, pass: &mut Pass, victims: &[EblockAddr]) -> Result<()> {
        if pass.rounds.is_empty() {
            pass.t0 = self.dev.clock().now();
        }
        let geo = *self.dev.geometry();
        let wb = geo.wblock_bytes as u64;
        // Phase 1: frontier checks, then all metadata reads batched. "only
        // the metadata pages need to be read to decide which data pages
        // remain valid" (Section IV-A1).
        let mut metas: Vec<(EblockAddr, Usn, u32, u32)> = Vec::new();
        for &victim in victims {
            self.stats.gc_collections += 1;
            let d = *self.summary.get(victim);
            let frontier = self.dev.programmed_wblocks(victim)?;
            if frontier == 0 {
                // Descriptor is stale (erase lost in a crash window):
                // self-heal immediately.
                self.erase_and_free(victim)?;
                continue;
            }
            let meta_start = d.data_wblocks as u32;
            let meta_count = d.meta_wblocks as u32;
            if meta_count == 0 || meta_start + meta_count > frontier {
                return Err(EleosError::Corrupt("victim eblock metadata unreadable"));
            }
            metas.push((victim, d.ts, meta_start, meta_count));
        }
        if metas.is_empty() {
            return Ok(());
        }
        let exts: Vec<ByteExtent> = metas
            .iter()
            .map(|&(v, _, start, count)| ByteExtent::new(v, start as u64 * wb, count as u64 * wb))
            .collect();
        let reads = self.dev.read_extents_async(&exts)?;
        let tickets: Vec<IoTicket> = reads.iter().map(|r| r.1).collect();
        self.dev.clock_mut().wait_all(&tickets);
        let mut preps: Vec<VictimPrep> = Vec::with_capacity(metas.len());
        for (&(victim, ts, _, _), (bytes, _)) in metas.iter().zip(reads) {
            let views: Vec<&[u8]> = bytes.chunks(geo.wblock_bytes as usize).collect();
            let Some(m) = decode_eblock_meta(&views, &geo) else {
                return Err(EleosError::Corrupt("victim eblock metadata unreadable"));
            };
            preps.push((victim, ts, m.entries));
        }
        // Phase 2: validity scans, appending each victim's live pages to the
        // pass's pages in victim order; RBLOCK-run reads submitted per
        // victim, one collective wait so victim channels overlap.
        let first = pass.pages.len();
        let mut ends: Vec<usize> = Vec::with_capacity(preps.len());
        let mut waits: Vec<IoTicket> = Vec::new();
        for (victim, _, entries) in &preps {
            waits.extend(self.scan_valid_pages_submit(*victim, entries, &mut pass.pages)?);
            ends.push(pass.pages.len());
        }
        self.dev.clock_mut().wait_all(&waits);
        // Phase 3: the victims' live pages are provisioned now, one segment
        // per victim, so later rounds see the cursors, free lists and `usn`
        // this round leaves.
        let mut segs: Vec<Segment> = Vec::with_capacity(preps.len());
        let mut start = first;
        for ((victim, ts, _), end) in preps.iter().zip(ends) {
            if end > start {
                let moved = &pass.pages[start..end];
                self.stats.gc_moved_pages += moved.len() as u64;
                self.stats.gc_moved_bytes +=
                    moved.iter().map(|p| p.bytes.len() as u64).sum::<u64>();
                let dest = Dest::GcBin {
                    victim_channel: victim.channel,
                    victim_ts: *ts,
                };
                segs.push((start..end, dest));
            }
            start = end;
        }
        let moved = (pass.pages.len() - first) as u64;
        if moved > 0 {
            let profile = *self.dev.profile();
            let context = if first == 0 { profile.context_ns } else { 0 };
            self.dev.cpu(context + profile.per_page_ns * moved);
            self.provision(&pass.pages, &segs, &mut pass.plan)?;
        }
        pass.rounds
            .push(preps.into_iter().map(|(victim, _, _)| victim).collect());
        Ok(())
    }

    /// Commit `pass`, leaving it empty: one relocation action for every
    /// page it staged (one context, one `Commit` and log force), then the
    /// erases of its victims, one overlapped batch per round. Returns false
    /// if a program failure aborted the action: then no victim of any
    /// round is erased, each keeps its data for a later pass, and
    /// `gc_relocation_aborts` rises by one.
    fn commit_pass(&mut self, pass: &mut Pass) -> Result<bool> {
        let Pass {
            pages,
            plan,
            rounds,
            t0,
        } = std::mem::take(pass);
        if !pages.is_empty() {
            match self.execute(ActionKind::Gc, &[], &pages, &plan, false) {
                Ok(t) => self.dev.clock_mut().wait_until(t),
                Err(EleosError::ActionAborted) => {
                    self.stats.gc_relocation_aborts += 1;
                    return Ok(false);
                }
                Err(e) => return Err(e),
            }
        }
        // "Once the system action is successfully committed ... [the old
        // EBLOCK] can be erased."
        for victims in &rounds {
            self.erase_batch(victims)?;
        }
        if !rounds.is_empty() {
            self.finish_span(SpanKind::GcCollect, t0);
        }
        Ok(true)
    }

    /// Newest-to-oldest validity scan over metadata entries (Section VI-C,
    /// Fig. 6): duplicate LPIDs must be moved only once, and an entry is
    /// valid only if the mapping still points into this EBLOCK.
    ///
    /// The paper deduplicates by requiring monotonically decreasing
    /// addresses: "for any two valid LPAGEs P1 and P2 in an EBLOCK, if P2
    /// is newer than P1, then P2's address must be after P1's address".
    /// That invariant breaks when an *aborted* action left a
    /// metadata entry at a newer position whose LPID still maps to an older
    /// offset — the stale entry would lower the watermark and cause a later
    /// valid page to be skipped (and then erased). We therefore deduplicate
    /// with an explicit seen-set, which subsumes the monotonic rule and is
    /// immune to aborted-entry poisoning.
    pub(super) fn scan_valid_pages(
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
    /// entries' data is then read as RBLOCK runs ([`read_in_rblock_runs`]),
    /// so an RBLOCK shared by several live LPAGEs is read once. The run
    /// tickets are returned instead of waited on: callers collecting
    /// several EBLOCKs batch them so reads on distinct channels overlap.
    fn scan_valid_pages_submit(
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
        let (pages, tickets) = read_in_rblock_runs(&mut self.dev, &exts)?;
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

    /// Pick the victim per the configured selection policy. All policies
    /// share the min-score convention; candidates keep channel eb-index
    /// order so ties resolve to the lowest EBLOCK deterministically.
    /// EBLOCKs of the channel in `skip` are passed over.
    fn select_victim(&self, channel: u32, skip: &[u32]) -> Option<EblockAddr> {
        let geo = *self.dev.geometry();
        let now = self.usn;
        let mut candidates: Vec<(EblockAddr, EblockDesc)> = Vec::new();
        for eb in 0..geo.eblocks_per_channel {
            let addr = EblockAddr::new(channel, eb);
            let d = *self.summary.get(addr);
            if d.state != EblockState::Used || d.purpose != EblockPurpose::Data {
                continue;
            }
            if d.avail == 0 || skip.contains(&eb) {
                continue; // nothing reclaimable, or passed over
            }
            candidates.push((addr, d));
        }
        let pool: &[(EblockAddr, EblockDesc)] = match self.cfg.gc.policy {
            // Greedy restricted to the W oldest closed EBLOCKs: hot blocks
            // (still accruing garbage) stay out of consideration.
            GcPolicy::WindowedGreedy => {
                candidates.sort_by_key(|&(a, d)| (d.ts, a.eblock));
                let w = GREEDY_WINDOW.min(candidates.len());
                &candidates[..w]
            }
            _ => &candidates[..],
        };
        let mut best: Option<(EblockAddr, f64)> = None;
        for &(addr, d) in pool {
            let score = match self.cfg.gc.policy {
                GcPolicy::MinCostDecline => d.gc_score(&geo, now),
                // Greedy: most available space first -> minimize score.
                GcPolicy::Greedy | GcPolicy::WindowedGreedy => -(d.avail as f64),
                // Greedy discounted by lifetime erases: worn blocks look
                // less attractive, spreading erase load.
                GcPolicy::WearAware => -(d.avail as f64) / (1.0 + d.erase_count as f64),
                // Oldest first (LLAMA's circular buffer).
                GcPolicy::Oldest => d.ts as f64,
            };
            if best.is_none_or(|(_, s)| score < s) {
                best = Some((addr, score));
            }
        }
        best.map(|(a, _)| a)
    }

    /// Public hook for applications: run GC and checkpointing housekeeping.
    pub fn maintenance(&mut self) -> Result<()> {
        self.maybe_gc()?;
        if self.wal.bytes_appended - self.last_ckpt_bytes >= self.cfg.ckpt_log_bytes {
            self.checkpoint()?;
        }
        Ok(())
    }
}

/// Space accounting snapshot (see [`Eleos::space_report`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpaceReport {
    /// Raw device capacity in bytes.
    pub total_bytes: u64,
    /// Bytes in erased (Free) EBLOCKs.
    pub free_bytes: u64,
    /// Bytes the summary table counts as reclaimable garbage (AVAIL).
    pub reclaimable_bytes: u64,
    /// Bytes consumed by the controller's own structures: the checkpoint
    /// area and log EBLOCKs.
    pub overhead_bytes: u64,
    /// Bytes in permanently retired EBLOCKs (repeated program failures or
    /// endurance exhaustion) — capacity the device has genuinely lost.
    /// `DeviceFull` reflects this: retired blocks never re-enter a free
    /// list.
    pub retired_bytes: u64,
}

impl SpaceReport {
    /// Upper bound on live data: everything not free, not known garbage,
    /// not controller overhead, not retired.
    pub fn live_estimate(&self) -> u64 {
        self.total_bytes
            .saturating_sub(self.free_bytes)
            .saturating_sub(self.reclaimable_bytes)
            .saturating_sub(self.overhead_bytes)
            .saturating_sub(self.retired_bytes)
    }
}

impl Eleos {
    /// Aggregate space accounting across the device.
    pub fn space_report(&self) -> SpaceReport {
        let geo = *self.dev.geometry();
        let eb_bytes = geo.eblock_bytes();
        let mut free = 0u64;
        let mut reclaimable = 0u64;
        let mut overhead = 0u64;
        let mut retired = 0u64;
        for ch in 0..geo.channels {
            for eb in 0..geo.eblocks_per_channel {
                let d = self.summary.get(EblockAddr::new(ch, eb));
                match (d.state, d.purpose) {
                    (EblockState::Free, _) => free += eb_bytes,
                    (EblockState::Retired, _) => retired += eb_bytes,
                    (_, EblockPurpose::Log | EblockPurpose::CkptArea) => overhead += eb_bytes,
                    _ => reclaimable += d.avail.min(eb_bytes),
                }
            }
        }
        SpaceReport {
            total_bytes: geo.total_bytes(),
            free_bytes: free,
            reclaimable_bytes: reclaimable,
            overhead_bytes: overhead,
            retired_bytes: retired,
        }
    }

    /// Diagnostic report: `(channel, eblock, state, purpose, avail)` for
    /// every EBLOCK (used by tests and the bench harness).
    pub fn eblock_report(&self) -> Vec<(u32, u32, String, String, u64)> {
        let geo = *self.dev.geometry();
        let mut out = Vec::new();
        for ch in 0..geo.channels {
            for eb in 0..geo.eblocks_per_channel {
                let d = self.summary.get(EblockAddr::new(ch, eb));
                out.push((
                    ch,
                    eb,
                    format!("{:?}", d.state),
                    format!("{:?}", d.purpose),
                    d.avail,
                ));
            }
        }
        out
    }

    /// Diagnostic: where an LPID currently lives.
    pub fn lpid_location(&mut self, lpid: Lpid) -> Result<Option<PhysAddr>> {
        self.mapping.get(lpid, &mut self.dev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::WriteBatch;
    use crate::config::{EleosConfig, GcConfig, PageMode};
    use crate::controller::WriteOpts;
    use eleos_flash::CostProfile;
    use std::collections::BTreeMap;

    fn payload(lpid: Lpid, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u64 ^ lpid.wrapping_mul(131)) as u8)
            .collect()
    }

    /// A victim whose live LPAGEs share RBLOCKs, one of which spans three
    /// WBLOCKs, with dead RBLOCKs between them: the scan returns every page
    /// byte-equal to a per-page read and reads each covered RBLOCK once.
    #[test]
    fn validity_scan_reads_each_covered_rblock_once() {
        // One channel, so the batch lands in one EBLOCK in batch order.
        let geo = Geometry {
            channels: 1,
            ..Geometry::tiny()
        };
        let cfg = EleosConfig {
            max_user_lpid: 256,
            ckpt_log_bytes: u64::MAX,
            ..Default::default()
        };
        let mut ssd = Eleos::format(FlashDevice::new(geo, CostProfile::unit()), cfg).unwrap();
        let mut batch = WriteBatch::new(PageMode::Variable);
        for lpid in 0..60 {
            let len = if lpid == 40 {
                36 * 1024
            } else {
                500 + 37 * lpid as usize
            };
            batch.put(lpid, &payload(lpid, len)).unwrap();
        }
        ssd.write(&batch, WriteOpts::default()).unwrap();
        // Dead RBLOCKs: a stretch of ~11 KB of LPAGEs becomes garbage.
        ssd.delete_batch(&(12..24).collect::<Vec<_>>()).unwrap();

        let eb = ssd.lpid_location(0).unwrap().unwrap().eblock_addr();
        let open = ssd.chans[0].cursors().find(|ob| ob.addr == eb);
        let meta = open.expect("the batch's EBLOCK is still open").meta.clone();

        let reads0 = ssd.dev.stats().rblock_reads;
        let valid = ssd.scan_valid_pages(eb, &meta).unwrap();
        let run_reads = ssd.dev.stats().rblock_reads - reads0;

        let live: Vec<Lpid> = (0..12).chain(24..60).collect();
        let user = valid.iter().filter(|p| p.kind == PageKind::User);
        assert_eq!(user.map(|p| p.lpid).collect::<Vec<_>>(), live);
        let (rb, wb) = (geo.rblock_bytes as u64, geo.wblock_bytes as u64);
        let mut pages_per_rblock: BTreeMap<u64, usize> = BTreeMap::new();
        let mut per_page_rblocks = 0u64;
        let mut spans_wblocks = 0;
        for p in &valid {
            let ext = PhysAddr::unpack(p.old_addr).unwrap().extent();
            let (bytes, _) = ssd.dev.read_extent(ext).unwrap();
            assert_eq!(p.bytes, bytes, "lpid {}", p.lpid);
            for r in ext.offset / rb..=(ext.end() - 1) / rb {
                *pages_per_rblock.entry(r).or_default() += 1;
            }
            per_page_rblocks += ext.rblock_count(&geo) as u64;
            spans_wblocks += (ext.offset / wb != (ext.end() - 1) / wb) as usize;
        }
        // The layout has what the test is about.
        assert!(pages_per_rblock.values().any(|&n| n >= 3));
        assert!(spans_wblocks >= 2, "the 36 KB page and a packed neighbour");
        let (first, last) = (
            *pages_per_rblock.keys().next().unwrap(),
            *pages_per_rblock.keys().next_back().unwrap(),
        );
        assert!(
            pages_per_rblock.len() < (last - first + 1) as usize,
            "a dead RBLOCK gap"
        );
        // Each covered RBLOCK read once, where per-page reads repeat them.
        assert_eq!(run_reads, pages_per_rblock.len() as u64);
        assert!(run_reads < per_page_rblocks);
    }

    /// Victims on distinct channels, collected by one `maybe_gc` round, are
    /// relocated by one system action: one commit and one log force for
    /// the round, every page byte-equal in a GC bin on its victim's own
    /// channel, and every victim erased.
    #[test]
    fn a_gc_round_is_one_system_action() {
        let geo = Geometry::tiny();
        let cfg = EleosConfig {
            max_user_lpid: 4096,
            ckpt_log_bytes: u64::MAX,
            // No GC while the layout is built.
            gc: GcConfig {
                free_watermark: 0.0,
                ..GcConfig::default()
            },
            ..Default::default()
        };
        let mut ssd = Eleos::format(FlashDevice::new(geo, CostProfile::unit()), cfg).unwrap();
        // ~900 KB of 1 KB pages nearly fills one EBLOCK per channel; the
        // overwrite closes them with every tenth of those pages still live.
        let lpids = 0..900u64;
        let mut batch = WriteBatch::new(PageMode::Variable);
        for lpid in lpids.clone() {
            batch.put(lpid, &payload(lpid, 1000)).unwrap();
        }
        ssd.write(&batch, WriteOpts::default()).unwrap();
        let mut batch = WriteBatch::new(PageMode::Variable);
        for lpid in lpids.clone().filter(|l| l % 10 != 0) {
            batch.put(lpid, &payload(lpid + 7, 1000)).unwrap();
        }
        ssd.write(&batch, WriteOpts::default()).unwrap();
        // Seal the writes' trailing records so the round's own force is the
        // only log page it adds.
        ssd.log_force().unwrap();

        let victims: Vec<EblockAddr> = (0..geo.channels)
            .filter_map(|c| ssd.select_victim(c, &[]))
            .collect();
        assert!(victims.len() >= 2, "victims {victims:?}");
        let mut moved: Vec<(Lpid, PhysAddr, Bytes)> = Vec::new();
        for lpid in lpids {
            let old = ssd.lpid_location(lpid).unwrap().unwrap();
            if victims.contains(&old.eblock_addr()) {
                let (bytes, _) = ssd.dev.read_extent(old.extent()).unwrap();
                moved.push((lpid, old, bytes));
            }
        }
        for v in &victims {
            assert!(
                moved.iter().any(|m| m.1.eblock_addr() == *v),
                "{v:?} has live pages"
            );
        }

        let before = ssd.stats.clone();
        let log_before = ssd.wal.bytes_appended;
        // Every channel needs GC, and one round meets the target.
        ssd.cfg.gc.free_watermark = 1.0;
        ssd.cfg.gc.free_target = 0.0;
        ssd.maybe_gc().unwrap();

        assert_eq!(
            ssd.stats.gc_collections - before.gc_collections,
            victims.len() as u64
        );
        assert_eq!(
            ssd.stats.commits - before.commits,
            1,
            "one action for the round"
        );
        assert_eq!(
            ssd.wal.bytes_appended - log_before,
            geo.wblock_bytes as u64,
            "one log force for the round"
        );
        for (lpid, old, bytes) in &moved {
            let new = ssd.lpid_location(*lpid).unwrap().unwrap();
            assert_eq!(
                new.channel, old.channel,
                "lpid {lpid} stays on its victim's channel"
            );
            // No user write lands in a GC bin: its user pages all moved.
            let relocated = |&(kind, l): &(PageKind, Lpid)| {
                kind != PageKind::User || moved.iter().any(|m| m.0 == l)
            };
            let mut open = ssd.chans[new.channel as usize].cursors();
            assert!(
                open.any(|ob| ob.addr == new.eblock_addr() && ob.meta.iter().all(relocated)),
                "lpid {lpid} lands in a GC bin"
            );
            assert_eq!(
                &ssd.dev.read_extent(new.extent()).unwrap().0,
                bytes,
                "lpid {lpid}"
            );
        }
        for v in &victims {
            assert_eq!(ssd.summary.get(*v).state, EblockState::Free, "{v:?}");
            assert_eq!(ssd.dev.programmed_wblocks(*v).unwrap(), 0, "{v:?} erased");
        }
    }

    /// One channel of 32 EBLOCKs, with no GC until a test raises the
    /// watermark.
    fn one_channel(gc: GcConfig) -> Eleos {
        let geo = Geometry {
            channels: 1,
            eblocks_per_channel: 32,
            ..Geometry::tiny()
        };
        let cfg = EleosConfig {
            max_user_lpid: 4096,
            ckpt_log_bytes: u64::MAX,
            gc: GcConfig {
                free_watermark: 0.0,
                ..gc
            },
            ..Default::default()
        };
        Eleos::format(FlashDevice::new(geo, CostProfile::unit()), cfg).unwrap()
    }

    /// Write LPIDs `0..n` as 1 KB pages, overwrite those `keep` rejects and
    /// seal the log: the first write's EBLOCKs close with only the kept
    /// pages live. Returns every LPID's address and stored bytes.
    fn churned(
        ssd: &mut Eleos,
        n: Lpid,
        keep: impl Fn(Lpid) -> bool,
    ) -> Vec<(Lpid, PhysAddr, Bytes)> {
        let writes = [
            (0, (0..n).collect::<Vec<_>>()),
            (7, (0..n).filter(|&l| !keep(l)).collect()),
        ];
        for (seed, lpids) in writes {
            let mut batch = WriteBatch::new(PageMode::Variable);
            for lpid in lpids {
                batch.put(lpid, &payload(lpid + seed, 1000)).unwrap();
            }
            ssd.write(&batch, WriteOpts::default()).unwrap();
        }
        ssd.log_force().unwrap();
        (0..n)
            .map(|lpid| {
                let at = ssd.lpid_location(lpid).unwrap().unwrap();
                (lpid, at, ssd.dev.read_extent(at.extent()).unwrap().0)
            })
            .collect()
    }

    /// One `maybe_gc` pass whose target is `extra` EBLOCKs above the free
    /// list.
    fn gc_pass(ssd: &mut Eleos, extra: usize) {
        let total = ssd.dev.geometry().eblocks_per_channel as f64;
        let free = ssd.chans[0].free.len() as f64;
        ssd.cfg.gc.free_watermark = 1.0;
        ssd.cfg.gc.free_target = (free + extra as f64 - 0.5) / total;
        ssd.maybe_gc().unwrap();
    }

    /// The victims the pass moved pages out of, after checking that every
    /// moved page is byte-equal at its new address.
    fn moved_from(ssd: &mut Eleos, pages: &[(Lpid, PhysAddr, Bytes)]) -> Vec<EblockAddr> {
        let mut victims = Vec::new();
        for (lpid, old, bytes) in pages {
            let new = ssd.lpid_location(*lpid).unwrap().unwrap();
            if new != *old {
                assert_eq!(
                    &ssd.dev.read_extent(new.extent()).unwrap().0,
                    bytes,
                    "lpid {lpid}"
                );
                victims.push(old.eblock_addr());
            }
        }
        victims.dedup();
        victims
    }

    /// Three rounds of one pass on one channel are one system action: one
    /// commit, one log force, every victim erased after it.
    #[test]
    fn a_multi_round_gc_pass_is_one_system_action() {
        let mut ssd = one_channel(GcConfig::default());
        let pages = churned(&mut ssd, 1000, |l| l % 25 == 0);
        let before = ssd.stats.clone();
        let log_before = ssd.wal.bytes_appended;
        // The first round opens a GC bin, so the target takes three.
        gc_pass(&mut ssd, 2);

        let rounds = ssd.stats.gc_collections - before.gc_collections;
        assert!(rounds >= 3, "{rounds} rounds");
        assert_eq!(
            ssd.stats.commits - before.commits,
            1,
            "one action for the pass"
        );
        assert_eq!(
            ssd.wal.bytes_appended - log_before,
            ssd.dev.geometry().wblock_bytes as u64,
            "one log force for the pass"
        );
        let victims = moved_from(&mut ssd, &pages);
        assert_eq!(victims.len() as u64, rounds, "{victims:?}");
        for v in &victims {
            assert_eq!(ssd.summary.get(*v).state, EblockState::Free, "{v:?}");
            assert_eq!(ssd.dev.programmed_wblocks(*v).unwrap(), 0, "{v:?} erased");
        }
    }

    /// With no GC bin (`open_bins: 0`, the hot/cold ablation's "off" row),
    /// a pass relocates into the user stream's open EBLOCK, which the next
    /// user write continues, and every page reads back before and after a
    /// crash.
    #[test]
    fn with_no_gc_bin_a_pass_relocates_into_the_user_eblock() {
        let mut ssd = one_channel(GcConfig {
            open_bins: 0,
            ..GcConfig::default()
        });
        let keep = |l: Lpid| l.is_multiple_of(25);
        let pages = churned(&mut ssd, 1000, keep);
        gc_pass(&mut ssd, 1);
        assert!(!moved_from(&mut ssd, &pages).is_empty());
        let mut dests = Vec::new();
        for (lpid, old, _) in &pages {
            let new = ssd.lpid_location(*lpid).unwrap().unwrap();
            if new != *old {
                dests.push(new.eblock_addr());
            }
        }
        let mut batch = WriteBatch::new(PageMode::Variable);
        batch.put(2000, &payload(2000, 1000)).unwrap();
        ssd.write(&batch, WriteOpts::default()).unwrap();
        let user = ssd.lpid_location(2000).unwrap().unwrap().eblock_addr();
        assert!(dests.contains(&user), "{user:?} not among {dests:?}");

        let expect = |l: Lpid| match l {
            2000 => payload(l, 1000),
            l if keep(l) => payload(l, 1000),
            l => payload(l + 7, 1000),
        };
        let cfg = ssd.cfg.clone();
        for round in ["before", "after"] {
            for lpid in (0..1000).chain([2000]) {
                let got = ssd.read(lpid).unwrap();
                assert_eq!(got, expect(lpid), "lpid {lpid} {round} the crash");
            }
            ssd = Eleos::recover(ssd.crash(), cfg.clone()).unwrap();
        }
    }

    /// A GC bin that fills mid-pass is closed — `Used` — before any of its
    /// WBLOCKs is programmed, and it carries the age of the oldest victim
    /// in it. Oldest-first selection would pick it next; the pass must
    /// pass it over, or it would self-heal-erase the bin it is about to
    /// program.
    #[test]
    fn a_pass_never_collects_a_bin_it_closed() {
        let mut ssd = one_channel(GcConfig {
            policy: GcPolicy::Oldest,
            open_bins: 1,
            ..GcConfig::default()
        });
        // Two thirds of each EBLOCK stay live, so two victims overfill one
        // bin.
        let pages = churned(&mut ssd, 1000, |l| l % 3 != 0);
        let before = ssd.stats.clone();
        let erases = |ssd: &Eleos, eb| ssd.dev.erase_count(EblockAddr::new(0, eb)).unwrap();
        let erases_before: Vec<u32> = (0..32).map(|eb| erases(&ssd, eb)).collect();
        gc_pass(&mut ssd, 1);

        assert!(ssd.stats.gc_collections - before.gc_collections >= 3);
        assert_eq!(
            ssd.stats.commits - before.commits,
            1,
            "one action for the pass"
        );
        let victims = moved_from(&mut ssd, &pages);
        // The first victim's pages went to the bin that closed.
        let bin = ssd.lpid_location(1).unwrap().unwrap().eblock_addr();
        assert_eq!(pages[1].1.eblock_addr(), victims[0], "lpid 1 moved");
        assert!(!victims.contains(&bin));
        assert_eq!(
            ssd.summary.get(bin).state,
            EblockState::Used,
            "the bin closed"
        );
        assert_eq!(
            erases(&ssd, bin.eblock),
            erases_before[bin.eblock as usize],
            "the bin was not erased"
        );
        assert!(
            ssd.chans[0].cursors().all(|ob| ob.addr != bin),
            "a later bin is open"
        );
    }

    #[test]
    fn runs_merge_touching_rblocks_and_split_at_wblocks() {
        let geo = Geometry::tiny(); // 4 KB RBLOCKs, 16 KB WBLOCKs
        let eb = EblockAddr::new(0, 3);
        let ext = |offset, len| ByteExtent::new(eb, offset, len);
        let pages = [
            ext(0, 1024),
            ext(1024, 1024),
            ext(3072, 2048),   // RBLOCKs 0-1: overlaps the run
            ext(8192, 64),     // RBLOCK 2: touches it
            ext(14_336, 4096), // RBLOCKs 3-4: crosses the WBLOCK boundary
            ext(28_672, 64),   // RBLOCK 7, after dead RBLOCKs 5-6
        ];
        let runs = rblock_runs(&pages, &geo);
        assert_eq!(
            runs,
            vec![ext(0, 16_384), ext(16_384, 4096), ext(28_672, 4096)]
        );
        let byte = |at: u64| (at / 64) as u8;
        let bytes = |e: &ByteExtent| (e.offset..e.end()).map(byte).collect::<Vec<u8>>();
        let data: Vec<Bytes> = runs.iter().map(|r| bytes(r).into()).collect();
        for p in pages {
            assert_eq!(slice_runs(&runs, &data, p), bytes(&p));
        }
    }
}
