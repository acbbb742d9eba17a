//! The unified controller API (DESIGN.md §15).
//!
//! PR 7's sharded router duplicated the controller surface: every harness
//! (chaos, crash sweeps, `repro_all`) carried parallel
//! `Eleos`-vs-`ShardedEleos` code paths, and the two front-ends were
//! line-for-line twins. [`Controller`] is the one write/read/recover
//! surface both implement; harnesses are generic over it and a 1-unit
//! array is byte-identical to the unsharded controller (the sharded
//! router's existing fast-path guarantee).
//!
//! The media type is uniformly `Vec<FlashDevice>` — one device per unit —
//! so crash/recover harness code needs no per-implementation plumbing:
//! `crash()` hands the devices back in unit order and `recover()` accepts
//! them the same way.

use crate::batch::WriteBatch;
use crate::config::EleosConfig;
use crate::controller::{BatchAck, Eleos, WriteOpts};
use crate::error::Result;
use crate::sharded::ShardedEleos;
use crate::telemetry_snapshot::{MergedSnapshot, TelemetrySnapshot};
use crate::types::{Lpid, Sid, Wsn};
use bytes::Bytes;
use eleos_flash::{FlashDevice, Nanos};

/// One controller surface over both the single controller ([`Eleos`]) and
/// the hash-partitioned array ([`ShardedEleos`]).
///
/// Group semantics: [`Controller::write`] and [`Controller::delete`] are
/// atomic for the whole batch — on the array that means cross-shard
/// two-phase group commit; on the single controller the batch is one
/// action. [`Controller::unit`]/[`Controller::unit_mut`] expose the
/// underlying controllers for harness plumbing (fault injection, power
/// cuts, event rings) without widening this trait per-experiment.
pub trait Controller: Sized {
    /// Format fresh media: one controller per device, devices in unit
    /// order.
    fn format(devs: Vec<FlashDevice>, cfg: &EleosConfig) -> Result<Self>;

    /// Recover from crashed media (the vector [`Controller::crash`]
    /// returned, in the same unit order).
    fn recover(devs: Vec<FlashDevice>, cfg: &EleosConfig) -> Result<Self>;

    /// Drop all volatile state; only the flash devices survive, returned
    /// in unit order.
    fn crash(self) -> Vec<FlashDevice>;

    /// Write a (possibly coalesced) batch atomically.
    fn write(&mut self, batch: &WriteBatch) -> Result<BatchAck>;

    /// [`Controller::write`] plus per-session WSN advances made durable
    /// atomically with the batch (Section III-A2). Each `(sid, wsn)` pair
    /// is the highest WSN the batch covers for that session; after the
    /// ACK, [`Controller::session_highest`] reflects it even across a
    /// crash/recover of the same media.
    fn write_sessions(&mut self, batch: &WriteBatch, advances: &[(Sid, Wsn)])
        -> Result<BatchAck>;

    /// Open an ordered-write session; the controller assigns the SID and
    /// makes it durable before returning.
    fn open_session(&mut self) -> Result<Sid>;

    /// Close a session (durable before returning).
    fn close_session(&mut self, sid: Sid) -> Result<()>;

    /// Highest WSN durably applied for `sid` (`None` if the session is
    /// unknown or has no applied writes) — the value a server re-ACKs to
    /// a reconnecting client so it can discard acknowledged redo buffers.
    fn session_highest(&self, sid: Sid) -> Option<Wsn>;

    /// Read one LPAGE.
    fn read(&mut self, lpid: Lpid) -> Result<Bytes>;

    /// Batched read, results in request order.
    fn read_batch(&mut self, lpids: &[Lpid]) -> Result<Vec<Bytes>>;

    /// Delete a batch of LPAGEs atomically (TRIM).
    fn delete(&mut self, lpids: &[Lpid]) -> Result<()>;

    /// Take a fuzzy checkpoint on every unit.
    fn checkpoint(&mut self) -> Result<()>;

    /// Run GC/space maintenance on every unit.
    fn maintenance(&mut self) -> Result<()>;

    /// Wait until all in-flight flash work completes.
    fn drain(&mut self);

    /// Host timeline: the max over unit clocks.
    fn host_now(&self) -> Nanos;

    /// Array-wide telemetry (a 1-unit merge for the single controller).
    fn snapshot(&self) -> MergedSnapshot;

    /// Number of underlying controllers.
    fn units(&self) -> usize;

    /// The unit that owns `lpid`.
    fn unit_of(&self, lpid: Lpid) -> usize;

    /// Borrow one underlying controller.
    fn unit(&self, i: usize) -> &Eleos;

    /// Mutably borrow one underlying controller. Unit 0 hosts the shared
    /// front-end bookkeeping (dispatch clock, frontend CPU ledger rows).
    fn unit_mut(&mut self, i: usize) -> &mut Eleos;
}

impl Controller for Eleos {
    fn format(mut devs: Vec<FlashDevice>, cfg: &EleosConfig) -> Result<Self> {
        assert_eq!(devs.len(), 1, "Eleos is a single-device controller");
        Eleos::format(devs.pop().unwrap(), cfg.clone())
    }

    fn recover(mut devs: Vec<FlashDevice>, cfg: &EleosConfig) -> Result<Self> {
        assert_eq!(devs.len(), 1, "Eleos is a single-device controller");
        Eleos::recover(devs.pop().unwrap(), cfg.clone())
    }

    fn crash(self) -> Vec<FlashDevice> {
        vec![Eleos::crash(self)]
    }

    fn write(&mut self, batch: &WriteBatch) -> Result<BatchAck> {
        Eleos::write(self, batch, WriteOpts::default())
    }

    fn write_sessions(
        &mut self,
        batch: &WriteBatch,
        advances: &[(Sid, Wsn)],
    ) -> Result<BatchAck> {
        Eleos::write_sessions(self, batch, advances)
    }

    fn open_session(&mut self) -> Result<Sid> {
        Eleos::open_session(self)
    }

    fn close_session(&mut self, sid: Sid) -> Result<()> {
        Eleos::close_session(self, sid)
    }

    fn session_highest(&self, sid: Sid) -> Option<Wsn> {
        self.session_highest_wsn(sid)
    }

    fn read(&mut self, lpid: Lpid) -> Result<Bytes> {
        Eleos::read(self, lpid)
    }

    fn read_batch(&mut self, lpids: &[Lpid]) -> Result<Vec<Bytes>> {
        Eleos::read_batch(self, lpids)
    }

    fn delete(&mut self, lpids: &[Lpid]) -> Result<()> {
        self.delete_batch(lpids)
    }

    fn checkpoint(&mut self) -> Result<()> {
        Eleos::checkpoint(self)
    }

    fn maintenance(&mut self) -> Result<()> {
        Eleos::maintenance(self)
    }

    fn drain(&mut self) {
        Eleos::drain(self)
    }

    fn host_now(&self) -> Nanos {
        self.now()
    }

    fn snapshot(&self) -> MergedSnapshot {
        TelemetrySnapshot::merge(vec![Eleos::snapshot(self)])
    }

    fn units(&self) -> usize {
        1
    }

    fn unit_of(&self, _lpid: Lpid) -> usize {
        0
    }

    fn unit(&self, i: usize) -> &Eleos {
        assert_eq!(i, 0, "Eleos has exactly one unit");
        self
    }

    fn unit_mut(&mut self, i: usize) -> &mut Eleos {
        assert_eq!(i, 0, "Eleos has exactly one unit");
        self
    }
}

impl Controller for ShardedEleos {
    fn format(devs: Vec<FlashDevice>, cfg: &EleosConfig) -> Result<Self> {
        ShardedEleos::format(devs, cfg)
    }

    fn recover(devs: Vec<FlashDevice>, cfg: &EleosConfig) -> Result<Self> {
        ShardedEleos::recover(devs, cfg)
    }

    fn crash(self) -> Vec<FlashDevice> {
        ShardedEleos::crash(self)
    }

    fn write(&mut self, batch: &WriteBatch) -> Result<BatchAck> {
        self.write_group(batch)
    }

    fn write_sessions(
        &mut self,
        batch: &WriteBatch,
        advances: &[(Sid, Wsn)],
    ) -> Result<BatchAck> {
        self.write_group_sessions(batch, advances)
    }

    fn open_session(&mut self) -> Result<Sid> {
        ShardedEleos::open_session(self)
    }

    fn close_session(&mut self, sid: Sid) -> Result<()> {
        ShardedEleos::close_session(self, sid)
    }

    fn session_highest(&self, sid: Sid) -> Option<Wsn> {
        ShardedEleos::session_highest(self, sid)
    }

    fn read(&mut self, lpid: Lpid) -> Result<Bytes> {
        ShardedEleos::read(self, lpid)
    }

    fn read_batch(&mut self, lpids: &[Lpid]) -> Result<Vec<Bytes>> {
        ShardedEleos::read_batch(self, lpids)
    }

    fn delete(&mut self, lpids: &[Lpid]) -> Result<()> {
        self.delete_batch(lpids)
    }

    fn checkpoint(&mut self) -> Result<()> {
        ShardedEleos::checkpoint(self)
    }

    fn maintenance(&mut self) -> Result<()> {
        ShardedEleos::maintenance(self)
    }

    fn drain(&mut self) {
        ShardedEleos::drain(self)
    }

    fn host_now(&self) -> Nanos {
        ShardedEleos::host_now(self)
    }

    fn snapshot(&self) -> MergedSnapshot {
        TelemetrySnapshot::merge(self.snapshots())
    }

    fn units(&self) -> usize {
        self.n_shards()
    }

    fn unit_of(&self, lpid: Lpid) -> usize {
        self.shard_of(lpid)
    }

    fn unit(&self, i: usize) -> &Eleos {
        self.shard(i)
    }

    fn unit_mut(&mut self, i: usize) -> &mut Eleos {
        self.shard_mut(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PageMode;
    use eleos_flash::{CostProfile, Geometry};

    fn devs(n: usize) -> Vec<FlashDevice> {
        (0..n)
            .map(|_| FlashDevice::new(Geometry::tiny(), CostProfile::unit()))
            .collect()
    }

    fn batch(lpid: u64, fill: u8, len: usize) -> WriteBatch {
        let mut b = WriteBatch::new(PageMode::Variable);
        b.put(lpid, &vec![fill; len]).unwrap();
        b
    }

    /// The same generic driver against both implementations: write, read,
    /// crash, recover, read again — entirely through the trait.
    fn drive<C: Controller>(n: usize) {
        let cfg = EleosConfig::test_small();
        let mut c = C::format(devs(n), &cfg).unwrap();
        let ack = c.write(&batch(7, 0xAB, 200)).unwrap();
        assert_eq!(ack.lpages, 1);
        assert_eq!(c.read(7).unwrap(), vec![0xAB; 200]);
        assert_eq!(c.read_batch(&[7]).unwrap()[0], vec![0xAB; 200]);
        assert_eq!(c.units(), n);
        assert!(c.unit_of(7) < n);
        assert!(c.snapshot().conservation_error().is_none());
        c.checkpoint().unwrap();
        let media = c.crash();
        assert_eq!(media.len(), n);
        let mut c = C::recover(media, &cfg).unwrap();
        assert_eq!(c.read(7).unwrap(), vec![0xAB; 200]);
        c.delete(&[7]).unwrap();
        assert!(c.read(7).is_err());
        c.drain();
    }

    #[test]
    fn eleos_implements_the_controller_surface() {
        drive::<Eleos>(1);
    }

    #[test]
    fn sharded_implements_the_controller_surface() {
        drive::<ShardedEleos>(2);
    }

    /// A 1-shard array and the bare controller stay byte-identical when
    /// driven through the same generic surface (snapshot-JSON equality).
    fn script<C: Controller>() -> String {
        let cfg = EleosConfig::test_small();
        let mut c = C::format(devs(1), &cfg).unwrap();
        for i in 0..40u64 {
            c.write(&batch(i % 8, i as u8, 100 + (i as usize % 900))).unwrap();
        }
        c.checkpoint().unwrap();
        c.maintenance().unwrap();
        c.drain();
        c.snapshot().to_json()
    }

    #[test]
    fn one_shard_array_is_byte_identical_through_the_trait() {
        let solo = script::<Eleos>();
        let arr = script::<ShardedEleos>();
        // The merged wrapper differs ({"shards":1,...per_shard}), but the
        // embedded per-shard snapshot must match the solo run exactly.
        let solo_inner = solo
            .split("\"per_shard\":[")
            .nth(1)
            .unwrap()
            .trim_end_matches("]}");
        let arr_inner = arr
            .split("\"per_shard\":[")
            .nth(1)
            .unwrap()
            .trim_end_matches("]}");
        assert_eq!(solo_inner, arr_inner);
    }
}
