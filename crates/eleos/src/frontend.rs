//! Host front-end: simulated multi-client submission with group commit
//! (DESIGN.md §11).
//!
//! The paper's premise is that a batched write interface amortizes
//! controller and flash costs across many host writers, but a controller
//! is driven by exactly one synchronous submitter. The [`Frontend`]
//! closes that gap deterministically: N simulated client streams enqueue
//! variable-size LPAGE batches stamped with [`SimClock`]-timeline arrival
//! times, and a [`GroupCommitPolicy`] coalesces queued batches into one
//! [`Controller::write`] per flush. A client batch is ACKed only when the
//! group covering it is durable — acked-implies-durable holds per client
//! across group boundaries, and a crash mid-flush drops or keeps *whole*
//! groups (the covering write is atomic; on a sharded array that is the
//! cross-shard group-commit guarantee).
//!
//! The front-end is generic over [`Controller`], so one implementation
//! drives both [`Eleos`](crate::Eleos) and the sharded array — unit 0
//! hosts the dispatch clock and the front-end's own CPU ledger rows in
//! both cases.
//!
//! Everything runs on the shared [`SimClock`]: arrival gaps and the
//! group-commit *time threshold* advance the CPU horizon via idle waits
//! (never silently free), and the front-end's own bookkeeping CPU is
//! charged to [`Activity::Frontend`] so the attribution ledger's
//! conservation check stays exact.
//!
//! [`SimClock`]: eleos_flash::SimClock

use crate::api::Controller;
use crate::batch::WriteBatch;
use crate::controller::BatchAck;
#[cfg(test)]
use crate::controller::Eleos;
use crate::error::{EleosError, Result};
use crate::types::{Sid, Wsn};
use eleos_flash::{Activity, LatencyHistogram, Nanos, SpanKind};

/// When does a group of queued client batches flush?
#[derive(Debug, Clone)]
pub struct GroupCommitPolicy {
    /// Size threshold: flush once the coalesced group reaches this many
    /// wire bytes.
    pub flush_bytes: usize,
    /// Time threshold: flush once the group has been open (first batch
    /// enqueued) this long, even if under the size threshold. The wait is
    /// charged to the SimClock CPU horizon.
    pub flush_interval_ns: Nanos,
    /// Backpressure cap: flush once this many client batches are queued,
    /// bounding front-end memory and per-batch queue delay.
    pub max_queued_batches: usize,
}

/// Front-end CPU per enqueued client batch (queue bookkeeping), attributed
/// to [`Activity::Frontend`].
const ENQUEUE_CPU_NS: Nanos = 300;

/// Front-end CPU per flush (group assembly), plus [`ENQUEUE_CPU_NS`] per
/// batch for coalescing, attributed to [`Activity::Frontend`].
const FLUSH_CPU_NS: Nanos = 1_000;

impl Default for GroupCommitPolicy {
    fn default() -> Self {
        GroupCommitPolicy {
            flush_bytes: 64 * 1024,
            flush_interval_ns: 200_000,
            max_queued_batches: 256,
        }
    }
}

/// ACK for one client batch, issued when its covering group is durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupAck {
    /// Id of the group that carried this batch (monotonic flush counter).
    pub group: u64,
    /// Submitting client.
    pub client: usize,
    /// Per-client submission sequence number (0-based).
    pub client_seq: u64,
    /// LPAGEs in this client batch.
    pub lpages: usize,
    /// SimClock time the batch entered the queue.
    pub enqueued_at: Nanos,
    /// SimClock time the covering group became durable.
    pub durable_at: Nanos,
    /// Session advance this batch carried (`None` for unordered writes):
    /// the `(sid, wsn)` the server echoes in its wire `Ack` so the client
    /// can drop the redo buffer for that WSN.
    pub session: Option<(Sid, Wsn)>,
}

#[derive(Debug)]
struct PendingBatch {
    client: usize,
    client_seq: u64,
    enqueued_at: Nanos,
    batch: WriteBatch,
    session: Option<(Sid, Wsn)>,
}

/// Deterministic multi-client submission layer over one [`Controller`].
///
/// Batches queue in arrival order; a flush coalesces the whole queue into
/// one [`Controller::write`] (duplicate LPIDs across client batches are
/// legal — the batch wire format applies entries in order, later wins). On
/// any flush error the queue is left intact and nothing is ACKed: after a
/// crash, queued-but-unACKed batches are simply lost, which is exactly the
/// contract an unACKed write has.
#[derive(Debug)]
pub struct Frontend {
    policy: GroupCommitPolicy,
    clients: usize,
    pending: Vec<PendingBatch>,
    pending_bytes: usize,
    /// SimClock time the open group's first batch was enqueued.
    group_open_at: Option<Nanos>,
    next_group: u64,
    next_seq: Vec<u64>,
    queue_delay: Vec<LatencyHistogram>,
    acked_batches: Vec<u64>,
}

impl Frontend {
    pub fn new(clients: usize, policy: GroupCommitPolicy) -> Self {
        assert!(clients > 0, "frontend needs at least one client");
        assert!(policy.max_queued_batches > 0, "backpressure cap must be positive");
        Frontend {
            policy,
            clients,
            pending: Vec::new(),
            pending_bytes: 0,
            group_open_at: None,
            next_group: 0,
            next_seq: vec![0; clients],
            queue_delay: vec![LatencyHistogram::new(); clients],
            acked_batches: vec![0; clients],
        }
    }

    /// Submit one client batch arriving at SimClock time `at`. Returns the
    /// ACKs of every group this submission caused to flush (usually empty
    /// or one group; at most two when the time threshold fires before the
    /// arrival is enqueued).
    pub fn submit<C: Controller>(
        &mut self,
        ssd: &mut C,
        client: usize,
        at: Nanos,
        batch: WriteBatch,
    ) -> Result<Vec<GroupAck>> {
        self.submit_inner(ssd, client, at, batch, None)
    }

    /// [`Frontend::submit`] under the session WSN protocol (Section
    /// III-A2). The check is **queue-aware**: the expected next WSN is the
    /// durably-applied high-water *plus* the batches already queued for
    /// the session in the open group, so a client pipelining WSNs 5,6,7
    /// into one group is in order while a gap or duplicate is rejected
    /// with [`EleosError::WsnOutOfOrder`] carrying the durable high-water
    /// to re-ACK — the rejected batch is not enqueued and nothing else is
    /// disturbed. The advance becomes durable atomically with the covering
    /// group's commit.
    pub fn submit_sessioned<C: Controller>(
        &mut self,
        ssd: &mut C,
        client: usize,
        at: Nanos,
        batch: WriteBatch,
        sid: Sid,
        wsn: Wsn,
    ) -> Result<Vec<GroupAck>> {
        let durable = match ssd.session_highest(sid) {
            Some(w) => w,
            None => return Err(EleosError::UnknownSession(sid)),
        };
        let queued = self
            .pending
            .iter()
            .filter(|pb| matches!(pb.session, Some((s, _)) if s == sid))
            .count() as Wsn;
        if wsn != durable + queued + 1 {
            return Err(EleosError::WsnOutOfOrder {
                got: wsn,
                highest_acked: durable,
            });
        }
        self.submit_inner(ssd, client, at, batch, Some((sid, wsn)))
    }

    fn submit_inner<C: Controller>(
        &mut self,
        ssd: &mut C,
        client: usize,
        at: Nanos,
        batch: WriteBatch,
        session: Option<(Sid, Wsn)>,
    ) -> Result<Vec<GroupAck>> {
        assert!(client < self.clients, "client {client} out of range");
        if batch.is_empty() {
            return Err(EleosError::EmptyBatch);
        }
        let mut acks = Vec::new();
        // The group timer fires before this arrival is enqueued: flush the
        // open group at its deadline (idle-waiting the CPU there — the time
        // threshold is never free).
        if let Some(open) = self.group_open_at {
            let deadline = open.saturating_add(self.policy.flush_interval_ns);
            if at.max(ssd.host_now()) >= deadline {
                ssd.unit_mut(0).device_mut().clock_mut().wait_until(deadline);
                acks.extend(self.flush(ssd)?);
            }
        }
        ssd.unit_mut(0).device_mut().clock_mut().wait_until(at);
        self.charge_cpu(ssd, ENQUEUE_CPU_NS)?;
        let now = ssd.host_now();
        let client_seq = self.next_seq[client];
        self.next_seq[client] += 1;
        self.pending_bytes += batch.wire_len();
        if self.group_open_at.is_none() {
            self.group_open_at = Some(now);
        }
        self.pending.push(PendingBatch {
            client,
            client_seq,
            enqueued_at: now,
            batch,
            session,
        });
        if self.pending_bytes >= self.policy.flush_bytes
            || self.pending.len() >= self.policy.max_queued_batches
        {
            acks.extend(self.flush(ssd)?);
        }
        Ok(acks)
    }

    /// Flush the open group now regardless of thresholds (timer expiry
    /// driven from outside, or end-of-run drain). No-op on an empty queue.
    pub fn flush<C: Controller>(&mut self, ssd: &mut C) -> Result<Vec<GroupAck>> {
        if self.pending.is_empty() {
            self.group_open_at = None;
            return Ok(Vec::new());
        }
        let open_at = self.group_open_at.unwrap_or_else(|| ssd.host_now());
        // Group assembly: one flush fee plus a per-batch coalescing fee.
        self.charge_cpu(ssd, FLUSH_CPU_NS + ENQUEUE_CPU_NS * self.pending.len() as Nanos)?;
        // Sized exactly: the controller adopts this buffer, so any spare
        // capacity would stay pinned as long as its WBLOCKs live.
        let mut merged =
            WriteBatch::with_capacity(self.pending[0].batch.mode(), self.pending_bytes);
        for pb in &self.pending {
            merged.append_batch(&pb.batch)?;
        }
        // One advance per session in the group: the max WSN it covers
        // (batches queue in WSN order, so this is the last one seen),
        // in first-appearance order for determinism.
        let mut advances: Vec<(Sid, Wsn)> = Vec::new();
        for pb in &self.pending {
            if let Some((sid, wsn)) = pb.session {
                match advances.iter_mut().find(|(s, _)| *s == sid) {
                    Some(a) => a.1 = a.1.max(wsn),
                    None => advances.push((sid, wsn)),
                }
            }
        }
        let ack = Self::write_with_retries(ssd, &merged, &advances)?;
        let group = self.next_group;
        self.next_group += 1;
        ssd.unit_mut(0).finish_span(SpanKind::GroupFlush, open_at);
        let durable_at = ack.done_at;
        let mut acks = Vec::with_capacity(self.pending.len());
        for pb in self.pending.drain(..) {
            self.queue_delay[pb.client].record(durable_at.saturating_sub(pb.enqueued_at));
            self.acked_batches[pb.client] += 1;
            acks.push(GroupAck {
                group,
                client: pb.client,
                client_seq: pb.client_seq,
                lpages: pb.batch.len(),
                enqueued_at: pb.enqueued_at,
                durable_at,
                session: pb.session,
            });
        }
        self.pending_bytes = 0;
        self.group_open_at = None;
        Ok(acks)
    }

    /// One durable group write, absorbing transient controller conditions
    /// the same way a host driver would: aborted actions retry, a full
    /// device runs maintenance first. Bounded so genuine faults surface.
    fn write_with_retries<C: Controller>(
        ssd: &mut C,
        batch: &WriteBatch,
        advances: &[(Sid, Wsn)],
    ) -> Result<BatchAck> {
        let mut attempts = 0;
        loop {
            let res = if advances.is_empty() {
                ssd.write(batch)
            } else {
                ssd.write_sessions(batch, advances)
            };
            match res {
                Ok(a) => return Ok(a),
                Err(EleosError::ActionAborted) if attempts < 8 => attempts += 1,
                Err(EleosError::DeviceFull) if attempts < 8 => {
                    attempts += 1;
                    ssd.maintenance()?;
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn charge_cpu<C: Controller>(&self, ssd: &mut C, ns: Nanos) -> Result<()> {
        ssd.unit_mut(0).with_activity(Activity::Frontend, |this| {
            this.device_mut().cpu(ns);
            Ok(())
        })
    }

    /// Queue-delay (enqueue → covering group durable) histogram of one
    /// client.
    pub fn queue_delay(&self, client: usize) -> &LatencyHistogram {
        &self.queue_delay[client]
    }

    /// Batches ACKed so far for `client`.
    pub fn acked_batches(&self, client: usize) -> u64 {
        self.acked_batches[client]
    }

    /// Batches submitted so far for `client` (acked + queued).
    pub fn submitted_batches(&self, client: usize) -> u64 {
        self.next_seq[client]
    }

    /// Client batches currently queued (unACKed).
    pub fn pending_batches(&self) -> usize {
        self.pending.len()
    }

    /// Wire bytes currently queued.
    pub fn pending_bytes(&self) -> usize {
        self.pending_bytes
    }

    /// Groups flushed durably so far.
    pub fn groups_flushed(&self) -> u64 {
        self.next_group
    }

    /// Id the currently open (or next) group will carry — chaos divergence
    /// dumps name this alongside the client.
    pub fn next_group_id(&self) -> u64 {
        self.next_group
    }

    pub fn clients(&self) -> usize {
        self.clients
    }

    /// Register one more client stream (a new network connection) and
    /// return its index.
    pub fn add_client(&mut self) -> usize {
        let id = self.clients;
        self.clients += 1;
        self.next_seq.push(0);
        self.queue_delay.push(LatencyHistogram::new());
        self.acked_batches.push(0);
        id
    }

    /// Drop every queued-but-unflushed batch of `client` (its connection
    /// died before the group closed). Returns how many batches were
    /// discarded — exactly the unACKed ones, which is the loss an unACKed
    /// write is allowed to suffer. Batches already inside a flushed group
    /// are untouched: once the covering group is durable they are ACKed
    /// state, and a reconnecting session learns so from the re-ACKed WSN.
    pub fn purge_client(&mut self, client: usize) -> usize {
        let before = self.pending.len();
        self.pending.retain(|pb| pb.client != client);
        let dropped = before - self.pending.len();
        if dropped > 0 {
            self.pending_bytes = self.pending.iter().map(|pb| pb.batch.wire_len()).sum();
            if self.pending.is_empty() {
                self.group_open_at = None;
            }
        }
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EleosConfig, PageMode};
    use eleos_flash::{CostProfile, FlashDevice, Geometry};

    fn ssd() -> Eleos {
        let dev = FlashDevice::new(Geometry::tiny(), CostProfile::unit());
        Eleos::format(dev, EleosConfig::test_small()).unwrap()
    }

    fn batch(lpid: u64, fill: u8, len: usize) -> WriteBatch {
        let mut b = WriteBatch::new(PageMode::Variable);
        b.put(lpid, &vec![fill; len]).unwrap();
        b
    }

    #[test]
    fn size_threshold_flushes_one_group_for_all_clients() {
        let mut ssd = ssd();
        let mut fe = Frontend::new(
            3,
            GroupCommitPolicy {
                flush_bytes: 3 * 128,
                flush_interval_ns: u64::MAX,
                ..GroupCommitPolicy::default()
            },
        );
        assert!(fe.submit(&mut ssd, 0, 0, batch(1, 1, 100)).unwrap().is_empty());
        assert!(fe.submit(&mut ssd, 1, 10, batch(2, 2, 100)).unwrap().is_empty());
        let acks = fe.submit(&mut ssd, 2, 20, batch(3, 3, 100)).unwrap();
        assert_eq!(acks.len(), 3);
        assert!(acks.iter().all(|a| a.group == 0));
        assert_eq!(
            acks.iter().map(|a| a.client).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        // ACKed means durable and readable.
        assert_eq!(ssd.read(1).unwrap(), vec![1u8; 100]);
        assert_eq!(ssd.read(3).unwrap(), vec![3u8; 100]);
        assert_eq!(fe.groups_flushed(), 1);
        assert_eq!(fe.pending_batches(), 0);
        for c in 0..3 {
            assert_eq!(fe.acked_batches(c), 1);
            assert_eq!(fe.queue_delay(c).count(), 1);
        }
    }

    #[test]
    fn time_threshold_flushes_at_deadline_and_advances_clock() {
        let mut ssd = ssd();
        let mut fe = Frontend::new(
            1,
            GroupCommitPolicy {
                flush_bytes: usize::MAX,
                flush_interval_ns: 5_000,
                ..GroupCommitPolicy::default()
            },
        );
        assert!(fe.submit(&mut ssd, 0, 0, batch(1, 1, 64)).unwrap().is_empty());
        let open = ssd.now();
        // The next arrival is far past the deadline: the timer fires first.
        let acks = fe.submit(&mut ssd, 0, 1_000_000, batch(2, 2, 64)).unwrap();
        assert_eq!(acks.len(), 1);
        assert_eq!(acks[0].client_seq, 0);
        // The flush started at the deadline, not at the second arrival.
        assert!(acks[0].durable_at >= open + 5_000);
        assert!(acks[0].durable_at < 1_000_000);
        // The second batch is queued in a fresh group.
        assert_eq!(fe.pending_batches(), 1);
        assert!(ssd.now() >= 1_000_000, "arrival wait advances the horizon");
        let acks = fe.flush(&mut ssd).unwrap();
        assert_eq!(acks.len(), 1);
        assert_eq!(acks[0].group, 1);
        assert_eq!(ssd.read(2).unwrap(), vec![2u8; 64]);
    }

    #[test]
    fn backpressure_cap_bounds_queue() {
        let mut ssd = ssd();
        let mut fe = Frontend::new(
            2,
            GroupCommitPolicy {
                flush_bytes: usize::MAX,
                flush_interval_ns: u64::MAX,
                max_queued_batches: 4,
            },
        );
        let mut acked = 0;
        for i in 0..16u64 {
            acked += fe
                .submit(&mut ssd, (i % 2) as usize, i * 10, batch(i, i as u8, 80))
                .unwrap()
                .len();
            assert!(fe.pending_batches() < 4, "cap must bound the queue");
        }
        assert_eq!(acked, 16);
        assert_eq!(fe.groups_flushed(), 4);
    }

    #[test]
    fn duplicate_lpids_across_clients_resolve_in_arrival_order() {
        let mut ssd = ssd();
        let mut fe = Frontend::new(2, GroupCommitPolicy::default());
        fe.submit(&mut ssd, 0, 0, batch(7, 0xAA, 100)).unwrap();
        fe.submit(&mut ssd, 1, 5, batch(7, 0xBB, 60)).unwrap();
        fe.flush(&mut ssd).unwrap();
        // Later arrival wins within the coalesced group.
        assert_eq!(ssd.read(7).unwrap(), vec![0xBB; 60]);
    }

    #[test]
    fn flush_on_empty_queue_is_a_noop() {
        let mut ssd = ssd();
        let mut fe = Frontend::new(1, GroupCommitPolicy::default());
        assert!(fe.flush(&mut ssd).unwrap().is_empty());
        assert_eq!(fe.groups_flushed(), 0);
    }

    #[test]
    fn frontend_cpu_is_attributed_and_conserved() {
        let mut ssd = ssd();
        let mut fe = Frontend::new(2, GroupCommitPolicy::default());
        fe.submit(&mut ssd, 0, 100, batch(1, 1, 200)).unwrap();
        fe.submit(&mut ssd, 1, 50_000, batch(2, 2, 200)).unwrap();
        fe.flush(&mut ssd).unwrap();
        let snap = ssd.snapshot();
        assert!(snap.ledger.cpu_ns(Activity::Frontend) > 0);
        assert!(snap.conservation_error().is_none());
        assert!(!ssd.device().telemetry().span(SpanKind::GroupFlush).is_empty());
    }
}
