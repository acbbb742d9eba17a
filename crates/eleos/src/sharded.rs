//! Sharded multi-controller scale-out (DESIGN.md §14).
//!
//! The LPID space is hash-partitioned across N independent [`Eleos`]
//! shards, each owning its own flash device (channels, WAL, GC, mapping,
//! telemetry ledger). [`ShardedEleos`] is the router: it splits a client
//! batch into per-shard sub-batches and commits groups that straddle
//! shards atomically with a **two-phase group commit** — every participant forces a `Prepare { gid }` record after
//! its data programs, the coordinator (shard 0) forces `CoordCommit
//! { gid }`, and only then do participants install and `Commit`. A crash
//! anywhere in that window never exposes a half-applied group: recovery
//! replays each shard, collects prepared-but-undecided actions, and
//! resolves them against the coordinator's durable gid set (redo if
//! present, roll back otherwise), logging the verdict locally so a second
//! crash re-resolves identically.
//!
//! Groups that land entirely on one shard bypass 2PC and take the exact
//! direct [`Eleos::write`] / [`Eleos::delete_batch`] path — a 1-shard
//! router is byte-identical to an unsharded controller.
//!
//! ## Simulated time
//!
//! Each shard advances its own [`SimClock`]; the *host* timeline is the
//! max over shard clocks ([`ShardedEleos::host_now`]). A cross-shard group
//! first syncs every participant to the host instant, then lets the
//! phase-1 prepares advance each shard independently — sim-time parallel,
//! which is exactly the scaling the sharding buys. The coordinator may
//! decide only once every `Prepare` is durable, and a participant's
//! phase-2 durability waits on the coordinator decision, so the ACK
//! instant (`max` over participants) reflects the true 2PC critical path.
//!
//! [`SimClock`]: eleos_flash::SimClock

use std::collections::HashSet;

use crate::batch::{parse_batch, WriteBatch, ENTRY_HEADER};
use crate::config::EleosConfig;
use crate::controller::{BatchAck, Eleos, PreparedAction, WriteOpts};
use crate::error::{EleosError, Result};
use crate::telemetry_snapshot::TelemetrySnapshot;
use crate::types::{Lpid, Sid, Wsn};
use eleos_flash::{FlashDevice, Nanos};

/// Fibonacci-hash an LPID onto `n_shards` partitions. Multiplicative
/// hashing scatters the sequential LPIDs real workloads use; the high
/// half of the product decides so low-bit patterns cannot alias.
pub fn shard_of_lpid(lpid: Lpid, n_shards: usize) -> usize {
    debug_assert!(n_shards > 0);
    ((lpid.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % n_shards as u64) as usize
}

/// Hash-partitioned router over N independent [`Eleos`] shards with
/// atomic cross-shard group commit. See the module docs.
#[derive(Debug)]
pub struct ShardedEleos {
    shards: Vec<Eleos>,
    /// Next cross-shard group id. Recovery resumes this above every gid
    /// seen in any shard's log, so a surviving `CoordCommit` can never
    /// validate a future group's `Prepare`.
    next_gid: u64,
}

impl ShardedEleos {
    /// Format one controller per device. Every shard shares the same
    /// config (geometry may differ per device if the caller wants
    /// asymmetric shards).
    pub fn format(devs: Vec<FlashDevice>, cfg: &EleosConfig) -> Result<ShardedEleos> {
        assert!(!devs.is_empty(), "need at least one shard");
        let shards = devs
            .into_iter()
            .map(|dev| Eleos::format(dev, cfg.clone()))
            .collect::<Result<Vec<_>>>()?;
        Ok(ShardedEleos { shards, next_gid: 1 })
    }

    /// Recover every shard after a crash. The coordinator (shard 0) is
    /// recovered first and standalone — its own log holds the group
    /// verdicts — then each follower resolves its prepared-but-undecided
    /// actions against the coordinator's durable `CoordCommit` set.
    pub fn recover(devs: Vec<FlashDevice>, cfg: &EleosConfig) -> Result<ShardedEleos> {
        assert!(!devs.is_empty(), "need at least one shard");
        let mut it = devs.into_iter();
        let (coord, coord_rec) =
            Eleos::recover_with_coord(it.next().unwrap(), cfg.clone(), None)?;
        let mut shards = vec![coord];
        let mut max_gid = coord_rec.max_gid;
        let committed: HashSet<u64> = coord_rec.coord_commits;
        for dev in it {
            let (shard, rec) = Eleos::recover_with_coord(dev, cfg.clone(), Some(&committed))?;
            max_gid = max_gid.max(rec.max_gid);
            shards.push(shard);
        }
        Ok(ShardedEleos {
            shards,
            next_gid: max_gid + 1,
        })
    }

    /// Crash the whole array: every shard's volatile state is dropped and
    /// the devices come back in shard order for [`ShardedEleos::recover`].
    pub fn crash(self) -> Vec<FlashDevice> {
        self.shards.into_iter().map(|s| s.crash()).collect()
    }

    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Which shard owns `lpid`.
    pub fn shard_of(&self, lpid: Lpid) -> usize {
        shard_of_lpid(lpid, self.shards.len())
    }

    pub fn shard(&self, i: usize) -> &Eleos {
        &self.shards[i]
    }

    pub fn shard_mut(&mut self, i: usize) -> &mut Eleos {
        &mut self.shards[i]
    }

    /// Host timeline: the max over all shard clocks (a host observing all
    /// shards has seen every completed event).
    pub fn host_now(&self) -> Nanos {
        self.shards.iter().map(|s| s.now()).max().unwrap_or(0)
    }

    /// Wait until all in-flight flash work on every shard completes.
    pub fn drain(&mut self) {
        for s in &mut self.shards {
            s.drain();
        }
    }

    /// Run GC/space maintenance on every shard.
    pub fn maintenance(&mut self) -> Result<()> {
        for s in &mut self.shards {
            s.maintenance()?;
        }
        Ok(())
    }

    /// Checkpoint every shard.
    pub fn checkpoint(&mut self) -> Result<()> {
        for s in &mut self.shards {
            s.checkpoint()?;
        }
        Ok(())
    }

    /// Per-shard telemetry snapshots, in shard order. Merge with
    /// [`TelemetrySnapshot::merge`] for array-wide totals.
    pub fn snapshots(&self) -> Vec<TelemetrySnapshot> {
        self.shards.iter().map(|s| s.snapshot()).collect()
    }

    /// Read one LPAGE from its owning shard.
    pub fn read(&mut self, lpid: Lpid) -> Result<bytes::Bytes> {
        let s = self.shard_of(lpid);
        self.shards[s].read(lpid)
    }

    /// Batched read: split by owning shard, one `read_batch` per shard,
    /// results returned in request order.
    pub fn read_batch(&mut self, lpids: &[Lpid]) -> Result<Vec<bytes::Bytes>> {
        if self.shards.len() == 1 {
            return self.shards[0].read_batch(lpids);
        }
        let n = self.shards.len();
        let mut per_shard: Vec<Vec<(usize, Lpid)>> = vec![Vec::new(); n];
        for (i, &l) in lpids.iter().enumerate() {
            per_shard[shard_of_lpid(l, n)].push((i, l));
        }
        let mut out: Vec<Option<bytes::Bytes>> = vec![None; lpids.len()];
        for (s, want) in per_shard.into_iter().enumerate() {
            if want.is_empty() {
                continue;
            }
            let ls: Vec<Lpid> = want.iter().map(|&(_, l)| l).collect();
            let got = self.shards[s].read_batch(&ls)?;
            for ((i, _), b) in want.into_iter().zip(got) {
                out[i] = Some(b);
            }
        }
        Ok(out.into_iter().map(|b| b.expect("all lpids routed")).collect())
    }

    // ------------------------------------------------------------------
    // Sessions (mirrored onto every shard)
    // ------------------------------------------------------------------

    /// Open one logical session across the array. Shard 0 assigns the SID
    /// (durable there first); every other shard mirrors it under the same
    /// SID so whichever shard a group's advance lands on can gate that
    /// session's WSNs. [`ShardedEleos::session_highest`] is the max over
    /// shards, so per-shard tables never need cross-talk.
    pub fn open_session(&mut self) -> Result<Sid> {
        let sid = self.shards[0].open_session()?;
        for s in 1..self.shards.len() {
            self.shards[s].open_session_as(sid)?;
        }
        Ok(sid)
    }

    /// Close the session on every shard (durable per shard, like the open).
    pub fn close_session(&mut self, sid: Sid) -> Result<()> {
        for s in &mut self.shards {
            s.close_session(sid)?;
        }
        Ok(())
    }

    /// Highest WSN the array has applied for `sid`: the max over shards
    /// (a group's advance is durable on exactly one shard — the fast-path
    /// owner or the coordinator).
    pub fn session_highest(&self, sid: Sid) -> Option<Wsn> {
        self.shards
            .iter()
            .filter_map(|s| s.session_highest_wsn(sid))
            .max()
    }

    /// Write a (possibly coalesced) batch atomically across shards: the
    /// single-shard fast path is the direct [`Eleos::write`]; a group that
    /// straddles shards goes through the two-phase group commit.
    pub fn write_group(&mut self, batch: &WriteBatch) -> Result<BatchAck> {
        self.write_group_sessions(batch, &[])
    }

    /// [`ShardedEleos::write_group`] plus session advances made durable
    /// atomically with the group: on the single-shard fast path they ride
    /// that shard's commit force ([`Eleos::write_sessions`]); on the
    /// cross-shard path they ride the coordinator's `CoordCommit` force —
    /// decision first, advances after, one force — so an advance can be
    /// durable only if the group's verdict is.
    pub fn write_group_sessions(
        &mut self,
        batch: &WriteBatch,
        advances: &[(Sid, Wsn)],
    ) -> Result<BatchAck> {
        if batch.is_empty() {
            return Err(EleosError::EmptyBatch);
        }
        for &(sid, _) in advances {
            if sid == 0 || !self.shards[0].sessions.is_open(sid) {
                return Err(EleosError::UnknownSession(sid));
            }
        }
        let subs = self.split_batch(batch)?;
        if subs.len() == 1 {
            let (s, _) = subs.into_iter().next().unwrap();
            self.sync_shard(s);
            return if advances.is_empty() {
                self.shards[s].write(batch, WriteOpts::default())
            } else {
                self.shards[s].write_sessions(batch, advances)
            };
        }

        let gid = self.next_gid;
        self.next_gid += 1;
        let now = self.host_now();
        // Phase 1: sync every participant to the host instant, then let
        // the prepares advance each shard's clock independently (sim-time
        // parallel). A prepare failure aborts the already-prepared
        // siblings and surfaces to the caller (retryable like the direct
        // path's `ActionAborted`).
        let mut prepared: Vec<(usize, PreparedAction)> = Vec::with_capacity(subs.len());
        for (s, sub) in &subs {
            self.shards[*s].device_mut().clock_mut().wait_until(now);
            match self.shards[*s].prepare_write(sub, gid) {
                Ok(p) => prepared.push((*s, p)),
                Err(e) => {
                    for (ps, p) in &prepared {
                        self.shards[*ps].abort_prepared(p)?;
                    }
                    return Err(e);
                }
            }
        }
        self.finish_group(gid, prepared, batch.len(), advances)
    }

    /// Delete a batch of LPAGEs atomically across shards (TRIM). Same
    /// routing contract as [`ShardedEleos::write_group`].
    pub fn delete_batch(&mut self, lpids: &[Lpid]) -> Result<()> {
        if lpids.is_empty() {
            return Err(EleosError::EmptyBatch);
        }
        let n = self.shards.len();
        let mut per_shard: Vec<Vec<Lpid>> = vec![Vec::new(); n];
        for &l in lpids {
            per_shard[shard_of_lpid(l, n)].push(l);
        }
        let involved: Vec<usize> =
            (0..n).filter(|&s| !per_shard[s].is_empty()).collect();
        if involved.len() == 1 {
            let s = involved[0];
            self.sync_shard(s);
            return self.shards[s].delete_batch(&per_shard[s]);
        }

        let gid = self.next_gid;
        self.next_gid += 1;
        let now = self.host_now();
        let mut prepared: Vec<(usize, PreparedAction)> = Vec::with_capacity(involved.len());
        for &s in &involved {
            self.shards[s].device_mut().clock_mut().wait_until(now);
            match self.shards[s].prepare_delete(&per_shard[s], gid) {
                Ok(p) => prepared.push((s, p)),
                Err(e) => {
                    for (ps, p) in &prepared {
                        self.shards[*ps].abort_prepared(p)?;
                    }
                    return Err(e);
                }
            }
        }
        self.finish_group(gid, prepared, lpids.len(), &[]).map(|_| ())
    }

    /// Phases 2a/2b shared by writes and deletes: coordinator decision,
    /// participant installs, deferred maintenance.
    fn finish_group(
        &mut self,
        gid: u64,
        prepared: Vec<(usize, PreparedAction)>,
        lpages: usize,
        advances: &[(Sid, Wsn)],
    ) -> Result<BatchAck> {
        // The coordinator may decide only once every participant's
        // `Prepare` is durable.
        let all_prepared = prepared
            .iter()
            .map(|(_, p)| p.prepared_durable)
            .max()
            .unwrap_or(0);
        self.shards[0]
            .device_mut()
            .clock_mut()
            .wait_until(all_prepared);
        let coord_durable = self.shards[0].coord_commit(gid, advances)?;
        // Phase 2: install on every participant; each shard's share is
        // durable no earlier than the coordinator decision.
        let mut done_at = coord_durable;
        for (s, p) in &prepared {
            done_at = done_at.max(self.shards[*s].commit_prepared(p, coord_durable)?);
        }
        // Housekeeping (mapping eviction flushes, automatic checkpoints —
        // and so WAL truncation) runs only after the whole group resolved:
        // no shard can truncate away a `Prepare` that is still awaiting
        // its verdict, and the coordinator cannot truncate a `CoordCommit`
        // a participant has not yet acted on.
        for (s, _) in &prepared {
            self.shards[*s].post_write_maintenance()?;
        }
        Ok(BatchAck { lpages, done_at })
    }

    /// Split a coalesced batch into per-shard sub-batches, preserving
    /// arrival order within each shard (duplicate LPIDs stay later-wins
    /// per shard, and cross-shard duplicates are independent installs of
    /// the same group). Returns `(shard, sub-batch)` in ascending shard
    /// order; the payload copies are the routing cost the honest model
    /// charges via each shard's transport CPU in phase 1.
    fn split_batch(&self, batch: &WriteBatch) -> Result<Vec<(usize, WriteBatch)>> {
        let n = self.shards.len();
        let mode = self.shards[0].config().page_mode;
        if n == 1 {
            return Ok(vec![(0, WriteBatch::new(mode))]); // content unused on fast path
        }
        let bytes = batch.as_bytes();
        let entries = parse_batch(bytes, mode)?;
        let mut subs: Vec<Option<WriteBatch>> = (0..n).map(|_| None).collect();
        for e in &entries {
            let s = shard_of_lpid(e.lpid, n);
            let payload = &bytes[e.start + ENTRY_HEADER..e.start + ENTRY_HEADER + e.payload_len];
            subs[s]
                .get_or_insert_with(|| WriteBatch::new(mode))
                .put(e.lpid, payload)?;
        }
        Ok(subs
            .into_iter()
            .enumerate()
            .filter_map(|(s, b)| b.map(|b| (s, b)))
            .collect())
    }

    /// Advance one shard's clock to the host instant (a request arriving
    /// at a shard cannot start before the host dispatched it).
    fn sync_shard(&mut self, s: usize) {
        let now = self.host_now();
        self.shards[s].device_mut().clock_mut().wait_until(now);
    }
}

/// Per-client ACK from the sharded front-end — same contract as
/// [`crate::frontend::GroupAck`].
pub use crate::frontend::GroupAck;

/// The sharded front-end *is* the generic [`crate::Frontend`]: since the
/// front-end went generic over [`crate::Controller`], the line-for-line
/// `ShardedFrontend` twin this module carried in PR 7 collapsed into it.
/// The alias keeps PR 7 call sites compiling unchanged; front-end
/// bookkeeping (queue CPU, group-assembly CPU, the group-flush span) is
/// charged to unit 0 — shard 0 here — so a 1-shard run stays
/// byte-identical to the unsharded front-end.
pub use crate::frontend::Frontend as ShardedFrontend;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PageMode;
    use crate::frontend::GroupCommitPolicy;
    use eleos_flash::{CostProfile, Geometry};

    fn devs(n: usize) -> Vec<FlashDevice> {
        (0..n)
            .map(|_| FlashDevice::new(Geometry::tiny(), CostProfile::unit()))
            .collect()
    }

    fn sharded(n: usize) -> ShardedEleos {
        ShardedEleos::format(devs(n), &EleosConfig::test_small()).unwrap()
    }

    fn batch(entries: &[(u64, u8, usize)]) -> WriteBatch {
        let mut b = WriteBatch::new(PageMode::Variable);
        for &(lpid, fill, len) in entries {
            b.put(lpid, &vec![fill; len]).unwrap();
        }
        b
    }

    /// LPIDs guaranteed to land on distinct shards of a 2-shard array.
    fn straddling_pair() -> (u64, u64) {
        let a = 1u64;
        let sa = shard_of_lpid(a, 2);
        for b in 2..64 {
            if shard_of_lpid(b, 2) != sa {
                return (a, b);
            }
        }
        unreachable!("hash cannot map 64 lpids to one shard")
    }

    #[test]
    fn hash_covers_all_shards() {
        for n in 1..=8usize {
            let mut hit = vec![false; n];
            for l in 0..1024u64 {
                hit[shard_of_lpid(l, n)] = true;
            }
            assert!(hit.iter().all(|&h| h), "{n} shards all reachable");
        }
    }

    #[test]
    fn cross_shard_group_commits_atomically_and_reads_back() {
        let mut sh = sharded(2);
        let (a, b) = straddling_pair();
        let ack = sh.write_group(&batch(&[(a, 0xAA, 100), (b, 0xBB, 300)])).unwrap();
        assert_eq!(ack.lpages, 2);
        assert_eq!(sh.read(a).unwrap(), vec![0xAA; 100]);
        assert_eq!(sh.read(b).unwrap(), vec![0xBB; 300]);
        assert_eq!(sh.read_batch(&[b, a]).unwrap()[0], vec![0xBB; 300]);
    }

    #[test]
    fn cross_shard_group_survives_crash_after_coord_commit() {
        let cfg = EleosConfig::test_small();
        let mut sh = ShardedEleos::format(devs(2), &cfg).unwrap();
        let (a, b) = straddling_pair();
        sh.write_group(&batch(&[(a, 0x11, 80), (b, 0x22, 80)])).unwrap();
        let devs = sh.crash();
        let mut sh = ShardedEleos::recover(devs, &cfg).unwrap();
        assert_eq!(sh.read(a).unwrap(), vec![0x11; 80]);
        assert_eq!(sh.read(b).unwrap(), vec![0x22; 80]);
    }

    #[test]
    fn cross_shard_delete_removes_everywhere() {
        let mut sh = sharded(2);
        let (a, b) = straddling_pair();
        sh.write_group(&batch(&[(a, 1, 64), (b, 2, 64)])).unwrap();
        sh.delete_batch(&[a, b]).unwrap();
        assert!(matches!(sh.read(a), Err(EleosError::NotFound(_))));
        assert!(matches!(sh.read(b), Err(EleosError::NotFound(_))));
    }

    #[test]
    fn gid_allocation_resumes_above_recovered_high_water() {
        let cfg = EleosConfig::test_small();
        let mut sh = ShardedEleos::format(devs(2), &cfg).unwrap();
        let (a, b) = straddling_pair();
        for _ in 0..3 {
            sh.write_group(&batch(&[(a, 7, 64), (b, 8, 64)])).unwrap();
        }
        let used = sh.next_gid;
        let devs = sh.crash();
        let sh = ShardedEleos::recover(devs, &cfg).unwrap();
        assert!(sh.next_gid >= used, "{} < {}", sh.next_gid, used);
    }

    #[test]
    fn sharded_frontend_acks_and_conserves_per_shard() {
        let mut sh = sharded(2);
        let mut fe = ShardedFrontend::new(2, GroupCommitPolicy::default());
        let (a, b) = straddling_pair();
        fe.submit(&mut sh, 0, 100, batch(&[(a, 3, 200)])).unwrap();
        fe.submit(&mut sh, 1, 200, batch(&[(b, 4, 200)])).unwrap();
        let acks = fe.flush(&mut sh).unwrap();
        assert_eq!(acks.len(), 2);
        assert_eq!(sh.read(a).unwrap(), vec![3u8; 200]);
        for snap in sh.snapshots() {
            assert!(snap.conservation_error().is_none());
        }
    }
}
