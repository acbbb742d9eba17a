//! Crash recovery (Section VIII-C).
//!
//! Recovery reads the latest checkpoint, scans the log chain, and performs
//! the paper's **two-pass replay**:
//!
//! * **Pass 1** recovers the *physical addresses* of mapping-table and
//!   summary-table pages: checkpoint flushes and GC relocations of table
//!   pages after the checkpoint would otherwise leave the addresses in the
//!   checkpoint record dangling (Fig. 7).
//! * **Pass 2** redoes the *values*: mapping installs (unconditional for
//!   user/checkpoint actions, conditional for GC — Section VIII-C2),
//!   EBLOCK-summary updates guarded by per-page flush LSNs (the case
//!   analysis of Section VIII-C3), and AVAIL maintenance from the lazy
//!   OldAddr / GcInstallAborted records.
//!
//! After replay, open EBLOCKs are reconciled with the device's programmed
//! frontier ("reading forward until we encounter the first empty WBLOCK")
//! and force-closed; free lists are rebuilt from the summary table.

use super::action::Dest;
use super::provision::{decode_eblock_meta, ChannelState, OpenEblock};
use super::Eleos;
use crate::batch::{decode_stored_header, ENTRY_HEADER};
use crate::ckpt::CkptArea;
use crate::config::EleosConfig;
use crate::error::{EleosError, Result};
use crate::mapping::MappingTable;
use crate::phys::PhysAddr;
use crate::stats::EleosStats;
use crate::summary::{EblockPurpose, EblockState, SummaryTable};
use crate::types::{ActionId, ActionKind, Lpid, Lsn, PageKind};
use crate::wal::{LogRecord, LogWriter};
use eleos_flash::{Activity, EblockAddr, FlashDevice, SpanKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Buffered per-action state during replay.
#[derive(Debug, Default)]
struct ReplayAction {
    kind: Option<ActionKind>,
    /// `(lpid, new_addr, old_addr)` in log order.
    writes: Vec<(Lpid, u64, u64)>,
}

/// An action the crash left prepared (forced `Prepare { gid }`, no local
/// `Commit`/`Abort`): its outcome is whatever the coordinator decided.
#[derive(Debug)]
struct PendingPrepared {
    id: ActionId,
    gid: u64,
    /// `(lpid, new_addr, old_addr)` in log order.
    writes: Vec<(Lpid, u64, u64)>,
}

/// Everything pass 2 hands back to `recover`.
struct ReplayOutcome {
    open_meta: HashMap<EblockAddr, Vec<(PageKind, Lpid)>>,
    frontier: HashMap<EblockAddr, u64>,
    /// Prepared-but-undecided actions, awaiting the coordinator verdict.
    pending: Vec<PendingPrepared>,
    /// `CoordCommit` gids found in *this* shard's log (nonempty only on
    /// the coordinator shard).
    coord_commits: HashSet<u64>,
    /// Highest group id seen in any `Prepare`/`CoordCommit` record — the
    /// router resumes gid allocation above this so a stale `CoordCommit`
    /// can never validate a future group's `Prepare`.
    max_gid: u64,
}

/// What cross-shard recovery needs from each recovered shard: the
/// coordinator's durable group decisions and the gid high-water mark.
#[derive(Debug, Clone, Default)]
pub(crate) struct CoordRecovery {
    pub(crate) coord_commits: HashSet<u64>,
    pub(crate) max_gid: u64,
}

impl Eleos {
    /// Rebuild a controller from the durable state on `dev`.
    ///
    /// Standalone form: any prepared-but-undecided cross-shard actions are
    /// resolved against this device's own log (correct for the coordinator
    /// shard and for an unsharded controller, whose log never holds a
    /// `Prepare`). Sharded recovery goes through
    /// [`Eleos::recover_with_coord`] so non-coordinator shards consult the
    /// coordinator's decisions.
    pub fn recover(dev: FlashDevice, cfg: EleosConfig) -> Result<Eleos> {
        Ok(Self::recover_with_coord(dev, cfg, None)?.0)
    }

    /// Recover one shard. `coord` carries the coordinator shard's durable
    /// `CoordCommit` gid set (`None` means "this shard is its own
    /// coordinator" — recover it first and feed its `CoordRecovery` to the
    /// others). A prepared action whose gid is in the set is redone and a
    /// local `Commit` is logged; otherwise it rolls back with a logged
    /// `Abort` — either way the verdict is durable here, so a second crash
    /// re-resolves identically even after the coordinator log truncates.
    pub(crate) fn recover_with_coord(
        mut dev: FlashDevice,
        cfg: EleosConfig,
        coord: Option<&HashSet<u64>>,
    ) -> Result<(Eleos, CoordRecovery)> {
        dev.telemetry_mut().set_enabled(cfg.telemetry);
        // Everything until the controller is handed back — checkpoint
        // probes, log scan, table loads, replay, fixups — is recovery work.
        // The activity is set on the *device* because most of it happens
        // before an `Eleos` exists.
        dev.telemetry_mut().set_activity(Activity::Recovery);
        let t0 = dev.clock().now();
        let geo = *dev.geometry();
        let ckpt =
            CkptArea::find_latest(&mut dev).ok_or(EleosError::Corrupt("no checkpoint found"))?;
        let scan = LogWriter::scan(
            &mut dev,
            &ckpt.log_resume,
            ckpt.log_resume_seq,
            ckpt.next_lsn,
        );
        let trunc = ckpt.trunc_lsn;

        let mut mapping =
            MappingTable::new(
            cfg.max_user_lpid,
            cfg.map_entries_per_page,
            cfg.mapping_cache_pages,
            cfg.mapping_cache_policy,
        );
        mapping.load_tiny(&ckpt.tiny)?;
        let mut summary_small = ckpt.summary_small.clone();

        // ---------------- pass 1: table-page addresses ----------------
        let mut p1: HashMap<ActionId, Vec<(Lpid, u64, u64, bool)>> = HashMap::new();
        let mut map_patches: Vec<(u32, u64, u64, bool)> = Vec::new();
        for (lsn, rec) in &scan.records {
            if *lsn < trunc {
                continue;
            }
            match rec {
                LogRecord::Write {
                    action,
                    akind,
                    lpid,
                    new_addr,
                    old_addr,
                } if PageKind::of(*lpid) != PageKind::User => {
                    let cond = matches!(*akind, ActionKind::Gc | ActionKind::Migrate);
                    p1.entry(*action)
                        .or_default()
                        .push((*lpid, *new_addr, *old_addr, cond));
                }
                LogRecord::Commit { action, .. } => {
                    for (lpid, new, old, cond) in p1.remove(action).unwrap_or_default() {
                        match PageKind::of(lpid) {
                            PageKind::MapPage => {
                                map_patches.push((PageKind::table_index(lpid) as u32, new, old, cond));
                            }
                            PageKind::SmallPage => {
                                let i = PageKind::table_index(lpid) as usize;
                                if i < mapping.n_small_pages()
                                    && (!cond || mapping.tiny_addr(i) == old)
                                {
                                    mapping.set_tiny_addr(i, new);
                                }
                            }
                            PageKind::SummaryPage => {
                                let i = PageKind::table_index(lpid) as usize;
                                if i < summary_small.len() && (!cond || summary_small[i] == old) {
                                    summary_small[i] = new;
                                }
                            }
                            PageKind::User => unreachable!(),
                        }
                    }
                }
                LogRecord::Abort { action } => {
                    p1.remove(action);
                }
                _ => {}
            }
        }

        // Load small-table pages through the (patched) tiny table, then
        // apply the deferred mapping-page patches in log order.
        for i in 0..mapping.n_small_pages() {
            let packed = mapping.tiny_addr(i);
            if let Some(addr) = PhysAddr::unpack(packed) {
                let (bytes, _) = dev.read_extent(addr.extent())?;
                let (lpid, kind, plen) = decode_stored_header(&bytes)?;
                if kind != PageKind::SmallPage || PageKind::table_index(lpid) as usize != i {
                    return Err(EleosError::Corrupt("small-table page identity mismatch"));
                }
                mapping.decode_small_page(i, &bytes[ENTRY_HEADER..ENTRY_HEADER + plen])?;
            }
        }
        for (i, new, old, cond) in map_patches {
            if (i as usize) < mapping.n_pages() && (!cond || mapping.small_addr(i) == old) {
                mapping.set_small_addr(i, new);
            }
        }

        // Load the summary table through its (patched) small table.
        let mut summary = SummaryTable::new(geo);
        for (i, &packed) in summary_small.iter().enumerate() {
            let addr = PhysAddr::unpack(packed)
                .ok_or(EleosError::Corrupt("summary page never flushed"))?;
            let (bytes, _) = dev.read_extent(addr.extent())?;
            let (lpid, kind, plen) = decode_stored_header(&bytes)?;
            if kind != PageKind::SummaryPage || PageKind::table_index(lpid) as usize != i {
                return Err(EleosError::Corrupt("summary page identity mismatch"));
            }
            summary
                .decode_page(i, &bytes[ENTRY_HEADER..ENTRY_HEADER + plen])
                .ok_or(EleosError::Corrupt("summary page payload"))?;
            summary.set_page_addr(i, packed);
        }

        // ---------------- assemble the controller ----------------
        let chans: Vec<ChannelState> = (0..geo.channels)
            .map(|_| ChannelState::new(cfg.gc.open_bins))
            .collect();
        let mut this = Eleos {
            dev,
            mapping,
            summary,
            sessions: ckpt.sessions.clone(),
            chans,
            wal: LogWriter::resume(&scan),
            ckpt_area: CkptArea::new(ckpt.seq + 1),
            usn: ckpt.usn,
            next_action: ckpt.next_action,
            active_first_lsn: BTreeMap::new(),
            trunc_lsn: trunc,
            last_ckpt_bytes: 0,
            last_ckpt_lsn: ckpt.next_lsn,
            stats: EleosStats::default(),
            rng: StdRng::seed_from_u64(0x1EE0_5EED ^ ckpt.seq),
            shutdown: false,
            next_chan_rr: 0,
            cfg,
        };

        // ---------------- pass 2: value redo ----------------
        let outcome = this.replay_pass2(&scan.records, trunc)?;
        let ReplayOutcome {
            open_meta,
            frontier,
            pending,
            coord_commits,
            max_gid,
        } = outcome;
        // The coordinator's verdict set: passed in for follower shards,
        // this shard's own scan for the coordinator / unsharded case.
        let committed_gids: HashSet<u64> = match coord {
            Some(s) => s.clone(),
            None => coord_commits.clone(),
        };

        // ---------------- post-replay fixups ----------------
        this.fixup_log_eblocks(&scan)?;
        // The open-EBLOCK fixup can migrate (poisoned or metadata-less
        // blocks), and a migration's relocation action must be able to
        // allocate — so the free lists need a first rebuild *before* the
        // fixup. The rebuild runs again afterwards (it is idempotent) to
        // account for every block the fixup freed or consumed.
        this.rebuild_free_lists()?;
        // `resume` starts the writer with zero standbys, so every seal up
        // to this point had only the in-EBLOCK forward pointer. The fixup
        // below can append enough records (force-closes, migrations) to
        // fill the current log EBLOCK — and a page that lands on the last
        // WBLOCK with no standbys records an *empty* forward-pointer set,
        // stranding the writer (the next seal shuts the controller down).
        // Top the standbys up first so recovery-time seals always have
        // somewhere to point.
        this.top_up_log_standbys()?;
        // Resolve prepared-but-undecided cross-shard actions now that the
        // log writer can seal safely. No-op (zero appends) when the log
        // holds no Prepare records — the unsharded path is byte-identical.
        this.resolve_prepared(pending, &committed_gids)?;
        this.fixup_open_eblocks(open_meta, frontier, &scan)?;
        this.rebuild_free_lists()?;
        // Seed the per-channel log-reclaim index now that every descriptor
        // has settled: each Used+Log EBLOCK is a future truncation
        // candidate (runtime transitions are indexed by `after_seal`).
        for ch in 0..geo.channels {
            for eb_i in 0..geo.eblocks_per_channel {
                this.index_log_reclaim(EblockAddr::new(ch, eb_i));
            }
        }
        this.top_up_log_standbys()?;
        this.dev.telemetry_mut().set_activity(Activity::Host);
        this.finish_span(SpanKind::Recovery, t0);
        Ok((
            this,
            CoordRecovery {
                coord_commits,
                max_gid,
            },
        ))
    }

    /// Apply the coordinator verdict to each action the crash left
    /// prepared, and log the resolution durably (forced) before the
    /// controller serves traffic: committed groups install like ordinary
    /// committed actions; everything else rolls back, its provisioned
    /// space becoming garbage. The pre-crash summary can never already
    /// reflect these effects (the decision had not been applied locally),
    /// so the AVAIL adds are unguarded, like the implicit-abort path.
    fn resolve_prepared(
        &mut self,
        pending: Vec<PendingPrepared>,
        committed_gids: &HashSet<u64>,
    ) -> Result<()> {
        if pending.is_empty() {
            return Ok(());
        }
        for p in pending {
            if committed_gids.contains(&p.gid) {
                self.log_append(&LogRecord::Commit {
                    action: p.id,
                    sid: 0,
                    wsn: 0,
                })?;
                let tag = self.wal.next_lsn();
                let installs = p.writes.iter().map(|&(lpid, new, _)| (PageKind::User, lpid, new));
                self.install(p.id, installs, tag)?;
                self.log_append(&LogRecord::Done { action: p.id })?;
            } else {
                let abort_lsn = self.log_append(&LogRecord::Abort { action: p.id })?;
                for &(_, new, _) in &p.writes {
                    if let Some(na) = PhysAddr::unpack(new) {
                        self.summary
                            .update(na.eblock_addr(), abort_lsn, |d| d.avail += na.len);
                    }
                }
            }
        }
        let t = self.log_force()?;
        self.dev.clock_mut().wait_until(t);
        Ok(())
    }

    /// Pass 2 of log replay. Returns the rebuilt in-memory metadata and
    /// byte frontiers of open EBLOCKs, plus the cross-shard prepare state.
    fn replay_pass2(&mut self, records: &[(Lsn, LogRecord)], trunc: Lsn) -> Result<ReplayOutcome> {
        let geo = *self.dev.geometry();
        let mut actions: HashMap<ActionId, ReplayAction> = HashMap::new();
        let mut committed: HashSet<ActionId> = HashSet::new();
        let mut open_meta: HashMap<EblockAddr, Vec<(PageKind, Lpid)>> = HashMap::new();
        let mut frontier: HashMap<EblockAddr, u64> = HashMap::new();
        let mut max_action: ActionId = self.next_action;
        // Cross-shard 2PC state: actions with a forced Prepare and, on the
        // coordinator shard, the durable group decisions.
        let mut prepared: HashMap<ActionId, u64> = HashMap::new();
        let mut coord_commits: HashSet<u64> = HashSet::new();
        let mut max_gid: u64 = 0;

        for (lsn, rec) in records {
            let lsn = *lsn;
            if lsn < trunc {
                continue;
            }
            match rec {
                LogRecord::Write {
                    action,
                    akind,
                    lpid,
                    new_addr,
                    old_addr,
                } => {
                    max_action = max_action.max(*action + 1);
                    self.usn += 1;
                    let a = actions.entry(*action).or_default();
                    a.kind = Some(*akind);
                    a.writes.push((*lpid, *new_addr, *old_addr));
                    let Some(na) = PhysAddr::unpack(*new_addr) else {
                        continue; // a delete: no provisioning to redo
                    };
                    let eb = na.eblock_addr();
                    // Case 1 (Section VIII-C3).
                    let flush = self.summary.flush_lsn(eb);
                    let state = self.summary.get(eb).state;
                    let ignorable = state != EblockState::Open && flush >= lsn;
                    if !ignorable {
                        // Metadata is not LSN-protected: always rebuild it.
                        open_meta
                            .entry(eb)
                            .or_default()
                            .push((PageKind::of(*lpid), *lpid));
                    }
                    // Frontier tracking is unguarded: truncation factor (3)
                    // guarantees every write to a still-open EBLOCK is in
                    // the replay window.
                    let f = frontier.entry(eb).or_insert(0);
                    if lsn > flush {
                        // Redo provisioning: state transition plus the
                        // fragmentation gap between the previous frontier
                        // and this write. A data write proves the EBLOCK is
                        // (now) a data block — a flushed descriptor may
                        // still carry a stale Log purpose from a previous
                        // life as a log standby.
                        let gap = na.offset.saturating_sub(*f);
                        self.summary.update(eb, lsn, |d| {
                            d.purpose = EblockPurpose::Data;
                            if d.state == EblockState::Free {
                                d.state = EblockState::Open;
                            }
                            if gap > 0 && d.state == EblockState::Open {
                                d.avail += gap;
                            }
                        });
                    }
                    *f = (*f).max(na.offset + na.len);
                }
                LogRecord::CloseEblock {
                    channel,
                    eblock,
                    ts,
                    data_wblocks,
                    meta_wblocks,
                } => {
                    // Case 2.
                    let eb = EblockAddr::new(*channel, *eblock);
                    let flush = self.summary.flush_lsn(eb);
                    let closed = self.summary.get(eb).state == EblockState::Used;
                    if closed && lsn <= flush {
                        continue;
                    }
                    open_meta.remove(&eb);
                    if lsn > flush {
                        let f = frontier.get(&eb).copied().unwrap_or(0);
                        let ts = *ts;
                        let (dw, mw) = (*data_wblocks, *meta_wblocks);
                        // Normal operation adds eblock_bytes - frontier at
                        // close; mirror that with the replayed frontier.
                        self.summary.update(eb, lsn, |d| {
                            d.state = EblockState::Used;
                            d.data_wblocks = dw;
                            d.meta_wblocks = mw;
                            d.ts = ts;
                            d.avail += geo.eblock_bytes().saturating_sub(f);
                        });
                    }
                }
                LogRecord::Commit { action, sid, wsn } => {
                    committed.insert(*action);
                    prepared.remove(action);
                    if *sid != 0 {
                        self.sessions.advance(*sid, *wsn);
                    }
                    if let Some(a) = actions.remove(action) {
                        let conditional =
                            matches!(a.kind, Some(ActionKind::Gc) | Some(ActionKind::Migrate));
                        for (lpid, new, old) in a.writes {
                            if PageKind::of(lpid) != PageKind::User {
                                continue; // table pages were handled in pass 1
                            }
                            if conditional {
                                let installed =
                                    self.mapping.set_if(lpid, old, new, lsn, &mut self.dev)?;
                                if installed {
                                    if let Some(oa) = PhysAddr::unpack(old) {
                                        let ebo = oa.eblock_addr();
                                        if lsn > self.summary.flush_lsn(ebo) {
                                            self.summary
                                                .update(ebo, lsn, |d| d.avail += oa.len);
                                        }
                                    }
                                }
                                // Failed conditional installs are accounted
                                // by GcInstallAborted records.
                            } else {
                                self.mapping.set(lpid, new, lsn, &mut self.dev)?;
                                // Old-address AVAIL comes from OldAddr
                                // records (Fig. 8: the mapping table may not
                                // hold the correct prior address here).
                            }
                        }
                    }
                }
                LogRecord::Abort { action } => {
                    prepared.remove(action);
                    if let Some(a) = actions.remove(action) {
                        for (_, new, _) in a.writes {
                            if let Some(na) = PhysAddr::unpack(new) {
                                let eb = na.eblock_addr();
                                if lsn > self.summary.flush_lsn(eb) {
                                    self.summary.update(eb, lsn, |d| d.avail += na.len);
                                }
                            }
                        }
                    }
                }
                LogRecord::Prepare { action, gid } => {
                    prepared.insert(*action, *gid);
                    max_gid = max_gid.max(*gid);
                }
                LogRecord::CoordCommit { gid } => {
                    coord_commits.insert(*gid);
                    max_gid = max_gid.max(*gid);
                }
                LogRecord::OldAddr { old_addr, .. } => {
                    if let Some(oa) = PhysAddr::unpack(*old_addr) {
                        let eb = oa.eblock_addr();
                        if lsn > self.summary.flush_lsn(eb) {
                            self.summary.update(eb, lsn, |d| d.avail += oa.len);
                        }
                    }
                }
                LogRecord::GcInstallAborted { new_addr, .. } => {
                    if let Some(na) = PhysAddr::unpack(*new_addr) {
                        let eb = na.eblock_addr();
                        if lsn > self.summary.flush_lsn(eb) {
                            self.summary.update(eb, lsn, |d| d.avail += na.len);
                        }
                    }
                }
                LogRecord::Done { .. } => {}
                LogRecord::SessionOpen { sid } => {
                    if !self.sessions.is_open(*sid) {
                        self.sessions.open(*sid);
                    }
                }
                LogRecord::SessionClose { sid } => self.sessions.close(*sid),
                LogRecord::LogStandby { channel, eblock } => {
                    let eb = EblockAddr::new(*channel, *eblock);
                    let flush = self.summary.flush_lsn(eb);
                    if lsn > flush {
                        self.summary.update(eb, lsn, |d| {
                            d.state = EblockState::Open;
                            d.purpose = EblockPurpose::Log;
                        });
                    }
                }
                LogRecord::EraseEblock { channel, eblock } => {
                    let eb = EblockAddr::new(*channel, *eblock);
                    self.trace_eb(eb, "replay EraseEblock");
                    let flush = self.summary.flush_lsn(eb);
                    open_meta.remove(&eb);
                    frontier.remove(&eb);
                    if lsn > flush {
                        self.summary.update(eb, lsn, |d| {
                            d.state = EblockState::Free;
                            d.purpose = EblockPurpose::Data;
                            d.erase_count += 1;
                            d.data_wblocks = 0;
                            d.meta_wblocks = 0;
                            d.avail = 0;
                            d.ts = 0;
                            d.max_lsn = 0;
                        });
                    }
                }
                LogRecord::RetireEblock { channel, eblock } => {
                    // Always logged right after the block's final
                    // EraseEblock, so replaying in order lands on Retired
                    // last; `rebuild_free_lists` collects only Free blocks,
                    // which keeps retired capacity out of provisioning.
                    let eb = EblockAddr::new(*channel, *eblock);
                    open_meta.remove(&eb);
                    frontier.remove(&eb);
                    if lsn > self.summary.flush_lsn(eb) {
                        self.summary.update(eb, lsn, |d| {
                            d.state = EblockState::Retired;
                            d.purpose = EblockPurpose::Data;
                        });
                    }
                }
            }
        }
        // Actions with neither commit nor abort: a *prepared* one is the
        // coordinator's call — hand it up for resolution. The rest are
        // implicitly aborted: their provisioned space is garbage.
        let mut pending = Vec::new();
        for (id, a) in actions {
            if let Some(&gid) = prepared.get(&id) {
                pending.push(PendingPrepared {
                    id,
                    gid,
                    writes: a.writes,
                });
                continue;
            }
            for (_, new, _) in a.writes {
                if let Some(na) = PhysAddr::unpack(new) {
                    let eb = na.eblock_addr();
                    self.summary
                        .update(eb, self.wal.next_lsn(), |d| d.avail += na.len);
                }
            }
        }
        // Resolution order must be deterministic (HashMap iteration isn't).
        pending.sort_by_key(|p| p.id);
        self.next_action = max_action;
        Ok(ReplayOutcome {
            open_meta,
            frontier,
            pending,
            coord_commits,
            max_gid,
        })
    }

    /// Reconcile log-EBLOCK descriptors with the scanned chain: the log
    /// writer updates them only in memory during normal operation.
    fn fixup_log_eblocks(&mut self, scan: &crate::wal::ScanResult) -> Result<()> {
        let geo = *self.dev.geometry();
        let mut max_lsn_by_eb: HashMap<EblockAddr, Lsn> = HashMap::new();
        for p in &scan.pages {
            let e = max_lsn_by_eb.entry(p.addr.eblock).or_insert(0);
            *e = (*e).max(p.last_lsn);
        }
        for c in &scan.resume_candidates {
            max_lsn_by_eb.entry(c.eblock).or_insert(0);
        }
        for (eb, max_lsn) in max_lsn_by_eb {
            let frontier = self.dev.programmed_wblocks(eb)?;
            let full = frontier >= geo.wblocks_per_eblock;
            let lsn = self.wal.next_lsn();
            self.summary.update(eb, lsn, |d| {
                d.purpose = EblockPurpose::Log;
                d.max_lsn = d.max_lsn.max(max_lsn);
                d.state = if full {
                    EblockState::Used
                } else {
                    EblockState::Open
                };
            });
        }
        Ok(())
    }

    /// The open-EBLOCK reconciliation of Section VIII-C3: fix frontiers
    /// from the device, detect un-logged closes by probing for persisted
    /// metadata, then force-close everything that holds data.
    fn fixup_open_eblocks(
        &mut self,
        mut open_meta: HashMap<EblockAddr, Vec<(PageKind, Lpid)>>,
        frontier: HashMap<EblockAddr, u64>,
        scan: &crate::wal::ScanResult,
    ) -> Result<()> {
        let geo = *self.dev.geometry();
        let log_ebs: HashSet<EblockAddr> = scan
            .pages
            .iter()
            .map(|p| p.addr.eblock)
            .chain(scan.resume_candidates.iter().map(|c| c.eblock))
            .collect();
        // Deferred completion: prefetch every metadata probe in one
        // channel-major batch before the fixup loop, so probes on distinct
        // channels overlap instead of each blocking the CPU. The loop
        // consumes the prefetched bytes. Skipped on one channel, where no
        // overlap is possible and the loop's blocking read serves every
        // probe.
        let mut prefetched: HashMap<EblockAddr, bytes::Bytes> = HashMap::new();
        if geo.channels > 1 {
            let wb = geo.wblock_bytes as u64;
            let mut probe_ebs: Vec<EblockAddr> = Vec::new();
            let mut exts: Vec<eleos_flash::ByteExtent> = Vec::new();
            for ch in 0..geo.channels {
                for eb_i in 0..geo.eblocks_per_channel {
                    let eb = EblockAddr::new(ch, eb_i);
                    let d = *self.summary.get(eb);
                    if d.state != EblockState::Open
                        || d.purpose != EblockPurpose::Data
                        || log_ebs.contains(&eb)
                    {
                        continue;
                    }
                    let f_dev = self.dev.programmed_wblocks(eb)? as u64 * wb;
                    let f_rep = frontier.get(&eb).copied().unwrap_or(0);
                    let f_rep_aligned = f_rep.div_ceil(wb) * wb;
                    if f_dev > f_rep_aligned {
                        probe_ebs.push(eb);
                        exts.push(eleos_flash::ByteExtent::new(
                            eb,
                            f_rep_aligned,
                            f_dev - f_rep_aligned,
                        ));
                    }
                }
            }
            let reads = self.dev.read_extents_async(&exts)?;
            let tickets: Vec<eleos_flash::IoTicket> = reads.iter().map(|r| r.1).collect();
            self.dev.clock_mut().wait_all(&tickets);
            for (eb, (bytes, _)) in probe_ebs.into_iter().zip(reads) {
                prefetched.insert(eb, bytes);
            }
        }
        for ch in 0..geo.channels {
            for eb_i in 0..geo.eblocks_per_channel {
                let eb = EblockAddr::new(ch, eb_i);
                let d = *self.summary.get(eb);
                if d.state != EblockState::Open
                    || d.purpose == EblockPurpose::CkptArea
                    || log_ebs.contains(&eb)
                {
                    continue;
                }
                if self.chans[ch as usize].slot_of(eb).is_some() {
                    // Opened by this loop (a failed force-close migrates
                    // into a GC bin): its pages are logged, and closing it
                    // here would book them as garbage under a cursor that
                    // still writes into it.
                    continue;
                }
                if d.purpose == EblockPurpose::Log {
                    if self.wal.standbys().contains(&eb) {
                        // A standby this recovery just provisioned — the
                        // writer holds a live reference, so reclaiming it
                        // here would re-free a block the log is about to
                        // program (the stale-standby corruption all over
                        // again).
                        continue;
                    }
                    // A pre-crash log standby that never received a page:
                    // return it to the data pool below via rebuild.
                    let lsn = self.wal.next_lsn();
                    self.summary.update(eb, lsn, |d| {
                        d.state = EblockState::Free;
                        d.purpose = EblockPurpose::Data;
                    });
                    continue;
                }
                let wb = geo.wblock_bytes as u64;
                let f_dev = self.dev.programmed_wblocks(eb)? as u64 * wb;
                let mut f_rep = frontier.get(&eb).copied().unwrap_or(0);
                let f_rep_aligned = f_rep.div_ceil(wb) * wb;
                if f_dev > f_rep_aligned {
                    // Extra programmed WBLOCKs: either the metadata of an
                    // un-logged close, or garbage from un-logged writes.
                    let meta_start = (f_rep_aligned / wb) as u32;
                    let count = (f_dev / wb) as u32 - meta_start;
                    let bytes = match prefetched.remove(&eb) {
                        Some(b) if b.len() == (count as u64 * wb) as usize => b,
                        _ => {
                            let (b, t) = self.dev.read_wblocks(eb, meta_start, count)?;
                            self.dev.clock_mut().wait_until(t);
                            b
                        }
                    };
                    let views: Vec<&[u8]> = bytes.chunks(geo.wblock_bytes as usize).collect();
                    if let Some(m) = decode_eblock_meta(&views, &geo) {
                        if m.data_wblocks == meta_start {
                            // The close made it to flash; only the close
                            // record was lost. Adopt it (Case 2 equivalent).
                            let lsn = self.wal.next_lsn();
                            let ts = m.ts;
                            self.summary.update(eb, lsn, |d| {
                                d.state = EblockState::Used;
                                d.data_wblocks = meta_start as u16;
                                d.meta_wblocks = count as u16;
                                d.ts = ts;
                                d.avail += geo.eblock_bytes() - f_rep;
                            });
                            open_meta.remove(&eb);
                            continue;
                        }
                    }
                    // Garbage from writes whose log records were lost
                    // ("added to AVAIL as if they were written by aborted
                    // system actions").
                    let lsn = self.wal.next_lsn();
                    let garbage = f_dev - f_rep;
                    self.summary.update(eb, lsn, |d| d.avail += garbage);
                    f_rep = f_dev;
                } else if f_dev < f_rep_aligned {
                    // Writes logged but never programmed (uncommitted):
                    // the space is still erased and programmable, so the
                    // frontier simply rolls back.
                    f_rep = f_dev;
                }
                if f_dev == 0 {
                    let lsn = self.wal.next_lsn();
                    self.summary.update(eb, lsn, |d| {
                        d.state = EblockState::Free;
                        d.purpose = EblockPurpose::Data;
                        d.avail = 0;
                    });
                    continue;
                }
                // Force-close with the rebuilt metadata.
                let mut ob = OpenEblock::new(eb);
                ob.frontier = f_rep.div_ceil(wb) * wb;
                ob.meta = open_meta.remove(&eb).unwrap_or_default();
                if ob.can_accept(0, 0, &geo) {
                    self.force_close_now(ob, Dest::User)?;
                } else {
                    // No room left for metadata: migrate the whole EBLOCK
                    // with the rebuilt metadata. A program failure during
                    // recovery relocates and retries like any migration.
                    self.migrate_with_meta(eb, &ob.meta, 0)?;
                }
            }
        }
        Ok(())
    }

    /// Rebuild per-channel free lists from descriptor states. Idempotent
    /// (each call rebuilds from scratch): recovery runs it both before the
    /// open-EBLOCK fixup, so fixup-time migrations can allocate, and after,
    /// so blocks the fixup freed or consumed are accounted for.
    fn rebuild_free_lists(&mut self) -> Result<()> {
        let geo = *self.dev.geometry();
        for ch in 0..geo.channels {
            self.chans[ch as usize].free.clear();
            let free = self.summary.channel_eblocks_in_state(ch, EblockState::Free);
            for eb_i in free {
                let eb = EblockAddr::new(ch, eb_i);
                if self.summary.get(eb).purpose != EblockPurpose::Data {
                    continue;
                }
                // A descriptor can say Free while the device still holds
                // data (the erase happened but its record was lost — or
                // vice versa). Erase defensively if needed. A crash can
                // also land between a program failure and the healing
                // erase: the block then has zero programmed WBLOCKs but is
                // still poisoned, and handing it out like that would fail
                // its very first program with `EblockPoisoned`.
                if self.dev.programmed_wblocks(eb)? > 0 || self.dev.is_poisoned(eb)? {
                    self.trace_eb(eb, "defensive erase");
                    let t = self.dev.erase(eb)?;
                    self.dev.clock_mut().wait_until(t);
                }
                self.trace_eb(eb, "free (recovery rebuild)");
                self.chans[ch as usize].free.push_back(eb_i);
            }
        }
        Ok(())
    }
}
