//! Discrete-event virtual clock.
//!
//! The paper measures throughput as work completed per unit of wall-clock
//! time on a physical testbed. Our substrate is an emulator, so time is
//! *simulated*: latencies accumulate on a virtual clock and reported
//! throughput is `work / simulated seconds`. This keeps results
//! deterministic and host-machine independent; the paper's effects are
//! ratios of per-I/O overheads and bytes moved, which the model captures
//! exactly (see DESIGN.md §2).
//!
//! Resource model:
//!
//! * one **serial CPU timeline** (`cpu_now`) shared by the single-threaded
//!   host driver and the controller firmware — the paper's experiments are
//!   single-threaded end to end;
//! * one **busy-until horizon per flash channel** — channels operate in
//!   parallel, so I/O commands submitted to different channels overlap
//!   (Section IV-B), while commands on the same channel serialize.
//!
//! An I/O submitted at CPU time `t` to channel `c` starts at
//! `max(t, channel_free[c])` and completes `duration` later. The CPU keeps
//! running; a caller that must block on completion (e.g. forcing a commit
//! log record) calls [`SimClock::wait_until`].

/// Nanosecond-resolution virtual time.
pub type Nanos = u64;

/// Completion token for a submitted channel operation.
///
/// Submission returns one of these instead of blocking; the caller batches
/// tickets and retires them with a single [`SimClock::wait_all`], so
/// operations on distinct channels overlap while the CPU advances once to
/// the collective horizon (deferred completion).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoTicket {
    /// Channel the operation was submitted on.
    pub channel: u32,
    /// Channel-timeline completion time.
    pub done_at: Nanos,
}

/// The virtual clock. Owned by the [`crate::FlashDevice`]; every latency in
/// the system flows through it.
#[derive(Debug, Clone)]
pub struct SimClock {
    cpu_now: Nanos,
    channel_free: Vec<Nanos>,
    /// Total CPU time ever spent via [`SimClock::cpu`]. Unlike `cpu_now`
    /// this never jumps forward on waits, so it is the independent tally
    /// the telemetry conservation check compares the attribution ledger
    /// against (the ledger is maintained at the charge sites, this here).
    cpu_busy: Nanos,
}

impl SimClock {
    pub fn new(channels: u32) -> Self {
        SimClock {
            cpu_now: 0,
            channel_free: vec![0; channels as usize],
            cpu_busy: 0,
        }
    }

    /// Current CPU-timeline time.
    #[inline]
    pub fn now(&self) -> Nanos {
        self.cpu_now
    }

    /// Spend `ns` of serial CPU time (host or controller work).
    #[inline]
    pub fn cpu(&mut self, ns: Nanos) {
        self.cpu_now += ns;
        self.cpu_busy += ns;
    }

    /// Total CPU time spent through [`SimClock::cpu`] since creation (or
    /// the last [`SimClock::reset`]); excludes time the CPU merely waited.
    #[inline]
    pub fn cpu_busy_ns(&self) -> Nanos {
        self.cpu_busy
    }

    /// Submit an operation of `duration` to `channel` at the current CPU
    /// time. Returns its completion time. Does **not** block the CPU.
    #[inline]
    pub fn submit_channel(&mut self, channel: u32, duration: Nanos) -> Nanos {
        let slot = &mut self.channel_free[channel as usize];
        let start = (*slot).max(self.cpu_now);
        let done = start + duration;
        *slot = done;
        done
    }

    /// Block the CPU until `t` (no-op if `t` is in the past).
    #[inline]
    pub fn wait_until(&mut self, t: Nanos) {
        self.cpu_now = self.cpu_now.max(t);
    }

    /// Retire a batch of completion tickets: block the CPU once, until the
    /// latest of them. Equivalent to — but cheaper and more overlap-friendly
    /// than — calling [`SimClock::wait_until`] per ticket, because the CPU
    /// advances a single time to the collective horizon.
    pub fn wait_all(&mut self, tickets: &[IoTicket]) {
        if let Some(max) = tickets.iter().map(|t| t.done_at).max() {
            self.wait_until(max);
        }
    }

    /// Block the CPU until every channel is idle. Used at the end of an
    /// experiment so that reported elapsed time covers all in-flight I/O.
    pub fn drain(&mut self) {
        let max = self.channel_free.iter().copied().max().unwrap_or(0);
        self.wait_until(max);
    }

    /// Earliest time `channel` could start a new operation.
    #[inline]
    pub fn channel_free_at(&self, channel: u32) -> Nanos {
        self.channel_free[channel as usize].max(self.cpu_now)
    }

    /// Number of channels this clock models.
    #[inline]
    pub fn channels(&self) -> u32 {
        self.channel_free.len() as u32
    }

    /// Reset all timelines to zero (fresh experiment on the same device).
    pub fn reset(&mut self) {
        self.cpu_now = 0;
        self.cpu_busy = 0;
        for c in &mut self.channel_free {
            *c = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channels_overlap_cpu_serializes() {
        let mut c = SimClock::new(2);
        c.cpu(100);
        // Two I/Os to different channels submitted back to back overlap.
        let d0 = c.submit_channel(0, 1_000);
        let d1 = c.submit_channel(1, 1_000);
        assert_eq!(d0, 1_100);
        assert_eq!(d1, 1_100);
        // Same channel serializes.
        let d2 = c.submit_channel(0, 1_000);
        assert_eq!(d2, 2_100);
        // CPU has not advanced past its own work.
        assert_eq!(c.now(), 100);
        c.drain();
        assert_eq!(c.now(), 2_100);
    }

    #[test]
    fn wait_until_never_goes_backwards() {
        let mut c = SimClock::new(1);
        c.cpu(500);
        c.wait_until(100);
        assert_eq!(c.now(), 500);
        c.wait_until(900);
        assert_eq!(c.now(), 900);
    }

    #[test]
    fn submit_after_wait_starts_at_cpu_time() {
        let mut c = SimClock::new(1);
        let d = c.submit_channel(0, 50);
        c.wait_until(d);
        let d2 = c.submit_channel(0, 50);
        assert_eq!(d2, 100);
    }

    #[test]
    fn wait_all_advances_once_to_max_horizon() {
        let mut c = SimClock::new(3);
        let tickets: Vec<IoTicket> = (0..3)
            .map(|ch| IoTicket {
                channel: ch,
                done_at: c.submit_channel(ch, 1_000 * (ch as Nanos + 1)),
            })
            .collect();
        c.wait_all(&tickets);
        // CPU jumps straight to the slowest channel, not the sum.
        assert_eq!(c.now(), 3_000);
        // Empty batches are a no-op.
        c.wait_all(&[]);
        assert_eq!(c.now(), 3_000);
    }

    #[test]
    fn wait_all_matches_serial_waits_on_one_channel() {
        // The single-channel determinism oracle: per-op waits and one
        // deferred wait land the CPU at the same tick when there is no
        // parallelism to exploit.
        let mut serial = SimClock::new(1);
        for _ in 0..4 {
            let d = serial.submit_channel(0, 250);
            serial.wait_until(d);
        }
        let mut deferred = SimClock::new(1);
        let tickets: Vec<IoTicket> = (0..4)
            .map(|_| IoTicket {
                channel: 0,
                done_at: deferred.submit_channel(0, 250),
            })
            .collect();
        deferred.wait_all(&tickets);
        assert_eq!(serial.now(), deferred.now());
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = SimClock::new(2);
        c.cpu(10);
        c.submit_channel(1, 10);
        c.reset();
        assert_eq!(c.now(), 0);
        assert_eq!(c.channel_free_at(1), 0);
        assert_eq!(c.cpu_busy_ns(), 0);
    }

    #[test]
    fn cpu_busy_counts_work_not_waits() {
        let mut c = SimClock::new(1);
        c.cpu(100);
        let d = c.submit_channel(0, 10_000);
        c.wait_until(d);
        c.cpu(50);
        // now() includes the wait; cpu_busy_ns() only the charged work.
        assert_eq!(c.now(), 10_150);
        assert_eq!(c.cpu_busy_ns(), 150);
    }
}
