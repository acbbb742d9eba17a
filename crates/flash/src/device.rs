//! The emulated Open-Channel SSD flash device.
//!
//! Exposes the raw operations a real OCSSD gives the controller firmware —
//! program a WBLOCK, read RBLOCKs, erase an EBLOCK — while enforcing NAND
//! semantics (erase-before-write, in-order programming within an EBLOCK,
//! program failures that poison the rest of the EBLOCK) and charging
//! latencies on the [`SimClock`].

use crate::addr::{ByteExtent, EblockAddr, WblockAddr};
use crate::clock::{IoTicket, Nanos, SimClock};
use crate::cost::CostProfile;
use crate::eblock::EblockSim;
use crate::error::{FlashError, Result};
use crate::fault::FaultInjector;
use crate::geometry::Geometry;
use crate::stats::FlashStats;
use bytes::Bytes;
use eleos_telemetry::{FlashOp, Telemetry};

/// The emulated flash array plus its clock, cost model and fault injector.
///
/// The device survives controller "crashes": an FTL under test drops its
/// volatile state and rebuilds from the device alone (see the `eleos`
/// crate's recovery tests).
#[derive(Debug)]
pub struct FlashDevice {
    geo: Geometry,
    profile: CostProfile,
    blocks: Vec<Vec<EblockSim>>,
    clock: SimClock,
    faults: FaultInjector,
    stats: FlashStats,
    /// Maximum erases per EBLOCK before it becomes permanently bad.
    endurance: u32,
    /// Per-EBLOCK erase counts, channel-major — kept in step with the
    /// `EblockSim`s so `wear_map()` can hand out a borrowed view instead of
    /// collecting a fresh `Vec` on every call.
    wear: Vec<u32>,
    /// Simulated-time observability: the attribution ledger, span latency
    /// histograms and the structured event ring (DESIGN.md §10). Owned by
    /// the device because the device is the single place where channel
    /// time is charged.
    telemetry: Telemetry,
    /// Power-cut budget: `Some(n)` allows `n` more mutating commands
    /// (programs and erases that pass validation); afterwards every
    /// mutating command fails with [`FlashError::PowerLost`] without
    /// touching media, stats or the clock. `None` = mains power.
    power_budget: Option<u64>,
}

impl FlashDevice {
    pub fn new(geo: Geometry, profile: CostProfile) -> Self {
        geo.validate();
        let blocks = (0..geo.channels)
            .map(|_| {
                (0..geo.eblocks_per_channel)
                    .map(|_| EblockSim::default())
                    .collect()
            })
            .collect();
        FlashDevice {
            clock: SimClock::new(geo.channels),
            wear: vec![0u32; geo.total_eblocks() as usize],
            telemetry: Telemetry::new(geo.channels as usize, true),
            geo,
            profile,
            blocks,
            faults: FaultInjector::none(),
            stats: FlashStats {
                channel_busy_ns: vec![0; geo.channels as usize],
                ..FlashStats::default()
            },
            endurance: u32::MAX,
            power_budget: None,
        }
    }

    /// Arm a simulated power cut: the next `n` mutating commands (programs
    /// and erases that pass validation) succeed, then power is lost and
    /// every further mutation fails with [`FlashError::PowerLost`]. Reads
    /// keep working — the media is frozen in its pre-cut state, exactly
    /// what recovery will see.
    pub fn set_power_cut_after(&mut self, n: u64) {
        self.power_budget = Some(n);
    }

    /// Restore mains power (mutations succeed again). The crash-sweep
    /// harness calls this between `Eleos::crash()` and `Eleos::recover`.
    pub fn clear_power_cut(&mut self) {
        self.power_budget = None;
    }

    /// Spend one unit of the power budget. Returns an error if the budget
    /// is exhausted — the caller must bail before mutating anything.
    #[inline]
    fn tick_power_budget(&mut self) -> Result<()> {
        if let Some(rem) = self.power_budget.as_mut() {
            if *rem == 0 {
                return Err(FlashError::PowerLost);
            }
            *rem -= 1;
        }
        Ok(())
    }

    /// Submit `duration` on `channel` and account its busy time. All channel
    /// occupancy flows through here so the per-channel utilization counters
    /// — and the telemetry attribution ledger — stay in step with the clock.
    #[inline]
    fn submit(&mut self, channel: u32, op: FlashOp, duration: Nanos) -> Nanos {
        self.stats.channel_busy_ns[channel as usize] += duration;
        self.telemetry.charge_flash(channel, op, duration);
        self.clock.submit_channel(channel, duration)
    }

    /// Spend `ns` of serial CPU time, attributed to the telemetry's current
    /// activity. The controller charges CPU through here; host-side drivers
    /// that charge the clock directly show up as the unattributed residue
    /// ("host" bucket) of the conservation check.
    #[inline]
    pub fn cpu(&mut self, ns: Nanos) {
        self.clock.cpu(ns);
        self.telemetry.charge_cpu(ns);
    }

    /// Replace the fault injector (builder style).
    pub fn with_faults(mut self, faults: FaultInjector) -> Self {
        self.faults = faults;
        self
    }

    /// Set an erase-endurance limit (builder style).
    pub fn with_endurance(mut self, max_erases: u32) -> Self {
        self.endurance = max_erases;
        self
    }

    #[inline]
    pub fn geometry(&self) -> &Geometry {
        &self.geo
    }

    #[inline]
    pub fn profile(&self) -> &CostProfile {
        &self.profile
    }

    #[inline]
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    #[inline]
    pub fn clock_mut(&mut self) -> &mut SimClock {
        &mut self.clock
    }

    #[inline]
    pub fn stats(&self) -> &FlashStats {
        &self.stats
    }

    pub fn faults_mut(&mut self) -> &mut FaultInjector {
        &mut self.faults
    }

    #[inline]
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    #[inline]
    pub fn telemetry_mut(&mut self) -> &mut Telemetry {
        &mut self.telemetry
    }

    fn eb(&self, a: EblockAddr) -> Result<&EblockSim> {
        if !a.in_bounds(&self.geo) {
            return Err(FlashError::OutOfBounds);
        }
        Ok(&self.blocks[a.channel as usize][a.eblock as usize])
    }

    fn eb_mut(&mut self, a: EblockAddr) -> Result<&mut EblockSim> {
        if !a.in_bounds(&self.geo) {
            return Err(FlashError::OutOfBounds);
        }
        Ok(&mut self.blocks[a.channel as usize][a.eblock as usize])
    }

    /// Program one WBLOCK. `data` must be exactly one WBLOCK; `tag` is
    /// optional out-of-band metadata (truncated/zero-padded to the TAG area).
    ///
    /// `data` is adopted, not copied: pass a [`Bytes`] (e.g. a slice of the
    /// controller's batch buffer) and the device stores that refcounted view
    /// directly. `&[u8]`/`&Vec<u8>` still work through `Into<Bytes>` at the
    /// cost of one copy.
    ///
    /// Returns the channel-timeline completion time. The CPU timeline is not
    /// blocked — callers needing durability wait on the returned time.
    pub fn program(
        &mut self,
        addr: WblockAddr,
        data: impl Into<Bytes>,
        tag: &[u8],
    ) -> Result<Nanos> {
        let data: Bytes = data.into();
        if !addr.in_bounds(&self.geo) {
            return Err(FlashError::OutOfBounds);
        }
        if data.len() != self.geo.wblock_bytes as usize {
            return Err(FlashError::BadLength {
                expected: self.geo.wblock_bytes as usize,
                got: data.len(),
            });
        }
        let geo = self.geo;
        // Validate ordering rules before consuming a fault-injector slot.
        {
            let eb = &self.blocks[addr.channel() as usize][addr.eblock.eblock as usize];
            if let Err(check) = eb.check_programmable(&geo, addr.wblock) {
                return Err(check.into_error(addr));
            }
        }
        self.tick_power_budget()?;
        let duration = self.profile.program_duration(geo.wblock_bytes);
        let done = self.submit(addr.channel(), FlashOp::Program, duration);
        if self.faults.should_fail(addr) {
            self.stats.program_failures += 1;
            self.blocks[addr.channel() as usize][addr.eblock.eblock as usize].poison();
            return Err(FlashError::ProgramFailed(addr));
        }
        self.blocks[addr.channel() as usize][addr.eblock.eblock as usize]
            .apply_program(&geo, addr.wblock, data, tag);
        self.stats.programs += 1;
        self.stats.bytes_programmed += geo.wblock_bytes as u64;
        Ok(done)
    }

    /// Read an arbitrary byte extent within one EBLOCK. The device fetches
    /// the covering RBLOCKs (charging their latency and counting their bytes
    /// — Section V: "some extra data may be transferred to memory as well")
    /// and returns exactly the requested bytes.
    ///
    /// When the extent lies inside one WBLOCK the returned [`Bytes`] is a
    /// zero-copy view of the stored buffer; spanning extents are assembled
    /// into one fresh buffer.
    ///
    /// Returns `(bytes, completion_time)`.
    pub fn read_extent(&mut self, ext: ByteExtent) -> Result<(Bytes, Nanos)> {
        self.check_readable(ext)?;
        Ok(self.read_checked(ext))
    }

    /// Fail unless `ext` is in bounds and every RBLOCK it covers is
    /// programmed.
    fn check_readable(&self, ext: ByteExtent) -> Result<()> {
        if !ext.in_bounds(&self.geo) {
            return Err(FlashError::OutOfBounds);
        }
        let first = ext.first_rblock(&self.geo);
        let count = ext.rblock_count(&self.geo);
        // WBLOCKs program in order, so the programmed RBLOCKs are a prefix:
        // the last one covered decides.
        let eb = self.eb(ext.eblock)?;
        if count > 0 && !eb.rblock_programmed(&self.geo, first + count - 1) {
            let programmed = eb.programmed_wblocks() * self.geo.rblocks_per_wblock();
            return Err(FlashError::ReadUnwritten {
                eblock: ext.eblock,
                rblock: first.max(programmed),
            });
        }
        Ok(())
    }

    /// [`FlashDevice::read_extent`] of an extent that passed
    /// [`FlashDevice::check_readable`].
    fn read_checked(&mut self, ext: ByteExtent) -> (Bytes, Nanos) {
        let geo = self.geo;
        let count = ext.rblock_count(&geo);
        let duration = self.profile.read_duration(count, geo.rblock_bytes);
        let done = self.submit(ext.eblock.channel, FlashOp::Read, duration);
        let out = self.blocks[ext.eblock.channel as usize][ext.eblock.eblock as usize].read_bytes(
            &geo,
            ext.offset as usize,
            ext.len as usize,
        );
        self.stats.rblock_reads += count as u64;
        self.stats.bytes_read += count as u64 * geo.rblock_bytes as u64;
        (out, done)
    }

    /// Submit a batch of extent reads without blocking the CPU: the deferred
    /// completion path of the I/O scheduler. Each extent is issued through
    /// [`FlashDevice::read_extent`] in input order; the CPU does not move
    /// between submissions, so extents on distinct channels overlap on the
    /// [`SimClock`]'s per-channel horizons. Results come back in input
    /// order, each paired with an [`IoTicket`] the caller retires later via
    /// [`SimClock::wait_all`].
    ///
    /// All extents are validated before anything is submitted, so a failed
    /// call leaves the clock and the counters untouched.
    pub fn read_extents_async(&mut self, exts: &[ByteExtent]) -> Result<Vec<(Bytes, IoTicket)>> {
        for ext in exts {
            self.check_readable(*ext)?;
        }
        Ok(exts
            .iter()
            .map(|ext| {
                let (bytes, done_at) = self.read_checked(*ext);
                let channel = ext.eblock.channel;
                (bytes, IoTicket { channel, done_at })
            })
            .collect())
    }

    /// Program a batch of WBLOCKs with deferred completion: a loop of
    /// [`FlashDevice::program`] calls in input order that stops at the
    /// first error. The CPU does not move between submissions, so programs
    /// on distinct channels overlap on the [`SimClock`]'s per-channel
    /// horizons; completion times are channel-timeline.
    ///
    /// Returns one result per *processed* command: `results.len()` is less
    /// than `cmds.len()` exactly when an error truncated the batch. A
    /// command that fails by fault injection still occupies its channel and
    /// poisons the EBLOCK, and reports [`FlashError::ProgramFailed`]; a
    /// command rejected by validation or power loss leaves media, stats and
    /// the clock untouched.
    pub fn program_batch(&mut self, cmds: &[(WblockAddr, Bytes)]) -> Vec<Result<Nanos>> {
        let mut results = Vec::with_capacity(cmds.len());
        for (addr, data) in cmds {
            let r = self.program(*addr, data.clone(), &[]);
            let stop = r.is_err();
            results.push(r);
            if stop {
                break;
            }
        }
        results
    }

    /// Erase a batch of EBLOCKs with deferred completion: a loop of
    /// [`FlashDevice::erase`] calls in input order that stops at the first
    /// error. Returns one result per processed command.
    pub fn erase_batch(&mut self, addrs: &[EblockAddr]) -> Vec<Result<Nanos>> {
        let mut results = Vec::with_capacity(addrs.len());
        for a in addrs {
            let r = self.erase(*a);
            let stop = r.is_err();
            results.push(r);
            if stop {
                break;
            }
        }
        results
    }

    /// Read whole WBLOCKs `[first, first + count)` of an EBLOCK. A
    /// single-WBLOCK read is a zero-copy clone of the stored buffer.
    pub fn read_wblocks(&mut self, eb: EblockAddr, first: u32, count: u32) -> Result<(Bytes, Nanos)> {
        let ext = ByteExtent::new(
            eb,
            first as u64 * self.geo.wblock_bytes as u64,
            count as u64 * self.geo.wblock_bytes as u64,
        );
        self.read_extent(ext)
    }

    /// Read the TAG (out-of-band) area of one WBLOCK. Charged as one RBLOCK
    /// read on the channel.
    pub fn read_tag(&mut self, addr: WblockAddr) -> Result<(Bytes, Nanos)> {
        if !addr.in_bounds(&self.geo) {
            return Err(FlashError::OutOfBounds);
        }
        let geo = self.geo;
        {
            let eb = self.eb(addr.eblock)?;
            if addr.wblock >= eb.programmed_wblocks() {
                return Err(FlashError::ReadUnwritten {
                    eblock: addr.eblock,
                    rblock: addr.wblock * geo.rblocks_per_wblock(),
                });
            }
        }
        let duration = self.profile.read_duration(1, geo.rblock_bytes);
        let done = self.submit(addr.channel(), FlashOp::Read, duration);
        let tag = self.eb(addr.eblock)?.read_tag(&geo, addr.wblock);
        self.stats.rblock_reads += 1;
        self.stats.bytes_read += geo.rblock_bytes as u64;
        Ok((tag, done))
    }

    /// Erase an EBLOCK. Fails permanently once the endurance limit is hit.
    pub fn erase(&mut self, a: EblockAddr) -> Result<Nanos> {
        let endurance = self.endurance;
        {
            let eb = self.eb(a)?;
            if eb.erase_count() >= endurance {
                return Err(FlashError::WornOut(a));
            }
        }
        self.tick_power_budget()?;
        let eb = self.eb_mut(a)?;
        eb.erase();
        let wear_idx = a.channel as usize * self.geo.eblocks_per_channel as usize + a.eblock as usize;
        self.wear[wear_idx] += 1;
        self.stats.erases += 1;
        let duration = self.profile.erase_eblock_ns;
        Ok(self.submit(a.channel, FlashOp::Erase, duration))
    }

    /// How many WBLOCKs of this EBLOCK have been programmed (the "write
    /// frontier"). Recovery uses this to "read forward until the first empty
    /// WBLOCK" (Section VIII-C3).
    pub fn programmed_wblocks(&self, a: EblockAddr) -> Result<u32> {
        Ok(self.eb(a)?.programmed_wblocks())
    }

    /// True if the given WBLOCK has been programmed.
    pub fn is_wblock_programmed(&self, addr: WblockAddr) -> Result<bool> {
        Ok(self.eb(addr.eblock)?.programmed_wblocks() > addr.wblock)
    }

    /// True if the EBLOCK suffered a program failure since its last erase.
    pub fn is_poisoned(&self, a: EblockAddr) -> Result<bool> {
        Ok(self.eb(a)?.is_poisoned())
    }

    /// Lifetime erase count of one EBLOCK.
    pub fn erase_count(&self, a: EblockAddr) -> Result<u32> {
        Ok(self.eb(a)?.erase_count())
    }

    /// Erase counts of every EBLOCK (wear report), channel-major. Borrowed
    /// view of the maintained per-EBLOCK counters — no allocation.
    pub fn wear_map(&self) -> &[u32] {
        &self.wear
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> FlashDevice {
        FlashDevice::new(Geometry::tiny(), CostProfile::unit())
    }

    fn wb(geo: &Geometry, fill: u8) -> Vec<u8> {
        vec![fill; geo.wblock_bytes as usize]
    }

    #[test]
    fn program_read_roundtrip() {
        let mut d = dev();
        let geo = *d.geometry();
        let a = WblockAddr::new(0, 0, 0);
        d.program(a, wb(&geo, 0x5A), b"tag0").unwrap();
        let (bytes, _) = d
            .read_extent(ByteExtent::new(a.eblock, 64, 128))
            .unwrap();
        assert_eq!(bytes, vec![0x5A; 128]);
        assert_eq!(d.stats().programs, 1);
        assert_eq!(d.stats().bytes_programmed, geo.wblock_bytes as u64);
    }

    #[test]
    fn read_counts_covering_rblocks_not_requested_bytes() {
        let mut d = dev();
        let geo = *d.geometry();
        let a = WblockAddr::new(0, 0, 0);
        d.program(a, wb(&geo, 1), &[]).unwrap();
        // 100 bytes crossing an RBLOCK boundary -> 2 RBLOCKs transferred.
        let before = d.stats().bytes_read;
        d.read_extent(ByteExtent::new(a.eblock, geo.rblock_bytes as u64 - 50, 100))
            .unwrap();
        assert_eq!(d.stats().bytes_read - before, 2 * geo.rblock_bytes as u64);
    }

    #[test]
    fn out_of_order_and_rewrite_rejected() {
        let mut d = dev();
        let geo = *d.geometry();
        let e = d.program(WblockAddr::new(0, 0, 1), wb(&geo, 0), &[]);
        assert!(matches!(e, Err(FlashError::OutOfOrderProgram { .. })));
        d.program(WblockAddr::new(0, 0, 0), wb(&geo, 0), &[]).unwrap();
        let e = d.program(WblockAddr::new(0, 0, 0), wb(&geo, 0), &[]);
        assert!(matches!(e, Err(FlashError::ProgramBeforeErase(_))));
    }

    #[test]
    fn read_unwritten_is_error() {
        let mut d = dev();
        let e = d.read_extent(ByteExtent::new(EblockAddr::new(0, 0), 0, 64));
        assert!(matches!(e, Err(FlashError::ReadUnwritten { .. })));
    }

    #[test]
    fn erase_enables_rewrite_and_counts_wear() {
        let mut d = dev();
        let geo = *d.geometry();
        let a = WblockAddr::new(1, 3, 0);
        d.program(a, wb(&geo, 1), &[]).unwrap();
        d.erase(a.eblock).unwrap();
        assert_eq!(d.erase_count(a.eblock).unwrap(), 1);
        d.program(a, wb(&geo, 2), &[]).unwrap();
        let (bytes, _) = d.read_extent(ByteExtent::new(a.eblock, 0, 8)).unwrap();
        assert_eq!(bytes, vec![2; 8]);
    }

    #[test]
    fn injected_failure_poisons_eblock() {
        let mut d = FlashDevice::new(Geometry::tiny(), CostProfile::unit())
            .with_faults(FaultInjector::script([1]));
        let geo = *d.geometry();
        d.program(WblockAddr::new(0, 0, 0), wb(&geo, 1), &[]).unwrap();
        let e = d.program(WblockAddr::new(0, 0, 1), wb(&geo, 2), &[]);
        assert!(matches!(e, Err(FlashError::ProgramFailed(_))));
        assert!(d.is_poisoned(EblockAddr::new(0, 0)).unwrap());
        // Further programs to the same EBLOCK fail even though the injector
        // would allow them.
        let e = d.program(WblockAddr::new(0, 0, 1), wb(&geo, 2), &[]);
        assert!(matches!(e, Err(FlashError::EblockPoisoned(_))));
        // Data written before the failure is still readable (needed for
        // migration, Section VII).
        let (bytes, _) = d
            .read_extent(ByteExtent::new(EblockAddr::new(0, 0), 0, 4))
            .unwrap();
        assert_eq!(bytes, vec![1; 4]);
        // Erase heals it.
        d.erase(EblockAddr::new(0, 0)).unwrap();
        d.program(WblockAddr::new(0, 0, 0), wb(&geo, 3), &[]).unwrap();
    }

    #[test]
    fn endurance_limit_wears_out() {
        let mut d = FlashDevice::new(Geometry::tiny(), CostProfile::unit()).with_endurance(2);
        let a = EblockAddr::new(0, 0);
        d.erase(a).unwrap();
        d.erase(a).unwrap();
        assert!(matches!(d.erase(a), Err(FlashError::WornOut(_))));
    }

    #[test]
    fn tag_roundtrip() {
        let mut d = dev();
        let geo = *d.geometry();
        let a = WblockAddr::new(2, 0, 0);
        d.program(a, wb(&geo, 0), b"hello-tag").unwrap();
        let (tag, _) = d.read_tag(a).unwrap();
        assert_eq!(&tag[..9], b"hello-tag");
        assert!(d.read_tag(WblockAddr::new(2, 0, 1)).is_err());
    }

    #[test]
    fn frontier_queries() {
        let mut d = dev();
        let geo = *d.geometry();
        let a = EblockAddr::new(0, 1);
        assert_eq!(d.programmed_wblocks(a).unwrap(), 0);
        d.program(WblockAddr::new(0, 1, 0), wb(&geo, 0), &[]).unwrap();
        d.program(WblockAddr::new(0, 1, 1), wb(&geo, 0), &[]).unwrap();
        assert_eq!(d.programmed_wblocks(a).unwrap(), 2);
        assert!(d.is_wblock_programmed(WblockAddr::new(0, 1, 1)).unwrap());
        assert!(!d.is_wblock_programmed(WblockAddr::new(0, 1, 2)).unwrap());
    }

    #[test]
    fn clock_advances_with_operations() {
        let mut d = FlashDevice::new(Geometry::tiny(), CostProfile::weak_controller());
        let geo = *d.geometry();
        let done = d.program(WblockAddr::new(0, 0, 0), wb(&geo, 0), &[]).unwrap();
        assert!(done >= d.profile().prog_wblock_ns);
        // Different channels overlap.
        let done1 = d.program(WblockAddr::new(1, 0, 0), wb(&geo, 0), &[]).unwrap();
        assert_eq!(done, done1);
    }

    #[test]
    fn wear_map_covers_all_eblocks() {
        let mut d = dev();
        let geo = *d.geometry();
        assert_eq!(d.wear_map().len(), geo.total_eblocks() as usize);
        d.erase(EblockAddr::new(0, 0)).unwrap();
        assert_eq!(d.wear_map().iter().sum::<u32>(), 1);
        let last = EblockAddr::new(geo.channels - 1, geo.eblocks_per_channel - 1);
        d.erase(last).unwrap();
        assert_eq!(*d.wear_map().last().unwrap(), 1);
        assert_eq!(d.wear_map()[0], d.erase_count(EblockAddr::new(0, 0)).unwrap());
    }

    #[test]
    fn read_extents_async_overlaps_channels_and_preserves_input_order() {
        let mut d = FlashDevice::new(Geometry::tiny(), CostProfile::weak_controller());
        let geo = *d.geometry();
        d.program(WblockAddr::new(0, 0, 0), wb(&geo, 1), &[]).unwrap();
        d.program(WblockAddr::new(1, 0, 0), wb(&geo, 2), &[]).unwrap();
        d.clock_mut().drain();
        let t0 = d.clock().now();
        // Input order deliberately channel-descending; results must come
        // back in input order while the submissions overlap.
        let exts = [
            ByteExtent::new(EblockAddr::new(1, 0), 0, 32),
            ByteExtent::new(EblockAddr::new(0, 0), 0, 32),
        ];
        let res = d.read_extents_async(&exts).unwrap();
        assert_eq!(res[0].0, vec![2u8; 32]);
        assert_eq!(res[1].0, vec![1u8; 32]);
        assert_eq!(res[0].1.channel, 1);
        assert_eq!(res[1].1.channel, 0);
        // Distinct channels: both complete at the same tick, and the CPU
        // did not move during submission.
        assert_eq!(res[0].1.done_at, res[1].1.done_at);
        assert_eq!(d.clock().now(), t0);
        let tickets: Vec<_> = res.iter().map(|r| r.1).collect();
        d.clock_mut().wait_all(&tickets);
        assert_eq!(d.clock().now(), res[0].1.done_at);
    }

    #[test]
    fn read_extents_async_validation_failure_leaves_clock_untouched() {
        let mut d = dev();
        let geo = *d.geometry();
        d.program(WblockAddr::new(0, 0, 0), wb(&geo, 1), &[]).unwrap();
        let before_stats = d.stats().clone();
        let before_free = d.clock().channel_free_at(0);
        let exts = [
            ByteExtent::new(EblockAddr::new(0, 0), 0, 32),
            // Unwritten EBLOCK: the whole batch must be rejected up front.
            ByteExtent::new(EblockAddr::new(1, 1), 0, 32),
        ];
        assert!(matches!(
            d.read_extents_async(&exts),
            Err(FlashError::ReadUnwritten { .. })
        ));
        assert_eq!(d.stats(), &before_stats);
        assert_eq!(d.clock().channel_free_at(0), before_free);
    }

    #[test]
    fn channel_busy_ns_tracks_all_operation_kinds() {
        let mut d = FlashDevice::new(Geometry::tiny(), CostProfile::weak_controller())
            .with_faults(FaultInjector::script([1]));
        let geo = *d.geometry();
        let prog = d.profile().program_duration(geo.wblock_bytes);
        let read1 = d.profile().read_duration(1, geo.rblock_bytes);
        let erase = d.profile().erase_eblock_ns;
        d.program(WblockAddr::new(0, 0, 0), wb(&geo, 1), &[]).unwrap();
        // Failed program still occupies the channel.
        let e = d.program(WblockAddr::new(0, 0, 1), wb(&geo, 1), &[]);
        assert!(matches!(e, Err(FlashError::ProgramFailed(_))));
        d.read_extent(ByteExtent::new(EblockAddr::new(0, 0), 0, 8))
            .unwrap();
        d.read_tag(WblockAddr::new(0, 0, 0)).unwrap();
        d.erase(EblockAddr::new(0, 0)).unwrap();
        let busy = &d.stats().channel_busy_ns;
        assert_eq!(busy.len(), geo.channels as usize);
        assert_eq!(busy[0], 2 * prog + 2 * read1 + erase);
        assert!(busy[1..].iter().all(|&b| b == 0));
        // Busy time equals the channel's final horizon here (one channel,
        // no CPU-induced gaps).
        d.clock_mut().drain();
        assert_eq!(d.stats().total_busy_ns(), d.clock().now());
    }

    #[test]
    fn telemetry_ledger_matches_channel_busy_exactly() {
        use eleos_telemetry::Activity;
        let mut d = FlashDevice::new(Geometry::tiny(), CostProfile::weak_controller())
            .with_faults(FaultInjector::script([1]));
        let geo = *d.geometry();
        d.telemetry_mut().set_activity(Activity::UserWrite);
        d.program(WblockAddr::new(0, 0, 0), wb(&geo, 1), &[]).unwrap();
        // Failed program still occupies — and is attributed — channel time.
        let e = d.program(WblockAddr::new(0, 0, 1), wb(&geo, 1), &[]);
        assert!(matches!(e, Err(FlashError::ProgramFailed(_))));
        d.telemetry_mut().set_activity(Activity::Gc);
        d.read_extent(ByteExtent::new(EblockAddr::new(0, 0), 0, 8))
            .unwrap();
        d.erase(EblockAddr::new(0, 0)).unwrap();
        d.telemetry_mut().set_activity(Activity::Host);
        d.cpu(123);
        // Conservation: the attributed ledger reproduces the independent
        // per-channel busy counters and the clock's CPU tally exactly.
        let ledger = &d.telemetry().ledger;
        for ch in 0..geo.channels {
            assert_eq!(
                ledger.channel_total(ch),
                d.stats().channel_busy_ns[ch as usize],
                "channel {ch}"
            );
        }
        assert_eq!(ledger.cpu_total(), d.clock().cpu_busy_ns());
        let prog = d.profile().program_duration(geo.wblock_bytes);
        assert_eq!(
            ledger.flash_ns(0, FlashOp::Program, Activity::UserWrite),
            2 * prog
        );
        assert_eq!(
            ledger.flash_ns(0, FlashOp::Erase, Activity::Gc),
            d.profile().erase_eblock_ns
        );
    }

    #[test]
    fn power_cut_freezes_media_but_allows_reads() {
        let mut d = dev();
        let geo = *d.geometry();
        d.set_power_cut_after(1);
        d.program(WblockAddr::new(0, 0, 0), wb(&geo, 1), &[]).unwrap();
        let stats_before = d.stats().clone();
        let free_before = d.clock().channel_free_at(0);
        let e = d.program(WblockAddr::new(0, 0, 1), wb(&geo, 2), &[]);
        assert!(matches!(e, Err(FlashError::PowerLost)));
        assert!(matches!(d.erase(EblockAddr::new(1, 0)), Err(FlashError::PowerLost)));
        // Dropped commands leave media, stats and the clock untouched.
        assert_eq!(d.stats(), &stats_before);
        assert_eq!(d.clock().channel_free_at(0), free_before);
        assert_eq!(d.programmed_wblocks(EblockAddr::new(0, 0)).unwrap(), 1);
        // Reads still serve the pre-cut media state.
        let (bytes, _) = d
            .read_extent(ByteExtent::new(EblockAddr::new(0, 0), 0, 8))
            .unwrap();
        assert_eq!(bytes, vec![1; 8]);
        // Power restored: mutations succeed again.
        d.clear_power_cut();
        d.program(WblockAddr::new(0, 0, 1), wb(&geo, 2), &[]).unwrap();
    }

    /// Assert two devices are in byte-identical simulated state: media,
    /// stats, wear, clock timelines and the telemetry ledger.
    fn assert_devices_identical(a: &FlashDevice, b: &FlashDevice) {
        let geo = *a.geometry();
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.wear_map(), b.wear_map());
        assert_eq!(a.clock().now(), b.clock().now());
        assert_eq!(a.clock().cpu_busy_ns(), b.clock().cpu_busy_ns());
        for ch in 0..geo.channels {
            assert_eq!(
                a.clock().channel_free_at(ch),
                b.clock().channel_free_at(ch),
                "channel {ch} horizon"
            );
        }
        assert_eq!(
            format!("{:?}", a.telemetry().ledger),
            format!("{:?}", b.telemetry().ledger)
        );
        for ch in 0..geo.channels {
            for eb in 0..geo.eblocks_per_channel {
                let at = EblockAddr::new(ch, eb);
                assert_eq!(a.programmed_wblocks(at), b.programmed_wblocks(at));
                assert_eq!(a.is_poisoned(at).unwrap(), b.is_poisoned(at).unwrap());
                let n = a.programmed_wblocks(at).unwrap();
                if n > 0 {
                    let len = n as u64 * geo.wblock_bytes as u64;
                    let (da, _) = a.clone_for_read(at, len);
                    let (db, _) = b.clone_for_read(at, len);
                    assert_eq!(da, db, "media of {at:?}");
                }
            }
        }
    }

    impl FlashDevice {
        /// Test helper: read programmed bytes without disturbing shared
        /// state comparisons (reads do charge time, so both sides call it).
        fn clone_for_read(&self, at: EblockAddr, len: u64) -> (Vec<u8>, u64) {
            let eb = self.eb(at).unwrap();
            let geo = self.geometry();
            (eb.read_bytes(geo, 0, len as usize).to_vec(), len)
        }
    }

    /// A mixed workload driven through the batch APIs, compared against the
    /// same workload issued per op: programs across channels, overlapped
    /// reads, a couple of erases, with interleaved CPU charges.
    fn drive_batches(d: &mut FlashDevice) {
        let geo = *d.geometry();
        // Round 1: program two WBLOCKs on every channel.
        let mut cmds = Vec::new();
        for ch in 0..geo.channels {
            for w in 0..2 {
                cmds.push((
                    WblockAddr::new(ch, ch % geo.eblocks_per_channel, w),
                    Bytes::from(vec![(ch as u8) ^ (w as u8) | 1; geo.wblock_bytes as usize]),
                ));
            }
        }
        assert!(d.program_batch(&cmds).iter().all(|r| r.is_ok()));
        d.cpu(100);
        // Round 2: batched reads back, input order channel-descending.
        let exts: Vec<ByteExtent> = (0..geo.channels)
            .rev()
            .map(|ch| {
                ByteExtent::new(
                    EblockAddr::new(ch, ch % geo.eblocks_per_channel),
                    8,
                    geo.wblock_bytes as u64,
                )
            })
            .collect();
        let res = d.read_extents_async(&exts).unwrap();
        let tickets: Vec<IoTicket> = res.iter().map(|r| r.1).collect();
        d.clock_mut().wait_all(&tickets);
        // Round 3: erase half the touched EBLOCKs.
        let victims: Vec<EblockAddr> = (0..geo.channels)
            .step_by(2)
            .map(|ch| EblockAddr::new(ch, ch % geo.eblocks_per_channel))
            .collect();
        assert!(d.erase_batch(&victims).iter().all(|r| r.is_ok()));
        d.clock_mut().drain();
    }

    #[test]
    fn batch_apis_match_per_op_serial_path() {
        // Reference: the same logical workload issued through the per-op
        // APIs in the batch's input order.
        let mut per_op = dev();
        let geo = *per_op.geometry();
        for ch in 0..geo.channels {
            for w in 0..2 {
                per_op
                    .program(
                        WblockAddr::new(ch, ch % geo.eblocks_per_channel, w),
                        vec![(ch as u8) ^ (w as u8) | 1; geo.wblock_bytes as usize],
                        &[],
                    )
                    .unwrap();
            }
        }
        per_op.cpu(100);
        let mut tickets = Vec::new();
        for ch in (0..geo.channels).rev() {
            let ext = ByteExtent::new(
                EblockAddr::new(ch, ch % geo.eblocks_per_channel),
                8,
                geo.wblock_bytes as u64,
            );
            let (_, done) = per_op.read_extent(ext).unwrap();
            tickets.push(IoTicket { channel: ch, done_at: done });
        }
        per_op.clock_mut().wait_all(&tickets);
        for ch in (0..geo.channels).step_by(2) {
            per_op
                .erase(EblockAddr::new(ch, ch % geo.eblocks_per_channel))
                .unwrap();
        }
        per_op.clock_mut().drain();

        let mut batched = dev();
        drive_batches(&mut batched);
        assert_devices_identical(&per_op, &batched);
    }

    #[test]
    fn program_batch_fault_truncates_like_serial_caller() {
        let mut d = FlashDevice::new(Geometry::tiny(), CostProfile::unit())
            .with_faults(FaultInjector::script([3]));
        let geo = *d.geometry();
        // Five programs across two channels; fault ordinal 3 (the fourth
        // attempted program, ordinals are 0-based) fails and truncates the
        // batch.
        let cmds: Vec<(WblockAddr, Bytes)> = (0..5)
            .map(|i| {
                (
                    WblockAddr::new(i % 2, 0, i / 2),
                    Bytes::from(wb(&geo, i as u8 + 1)),
                )
            })
            .collect();
        let rs = d.program_batch(&cmds);
        assert_eq!(rs.len(), 4);
        assert!(rs[..3].iter().all(|r| r.is_ok()));
        assert!(matches!(rs[3], Err(FlashError::ProgramFailed(a)) if a == cmds[3].0));
        // The failed program poisoned its EBLOCK and charged time; the
        // command after it was never attempted.
        assert!(d.is_poisoned(EblockAddr::new(1, 0)).unwrap());
        assert_eq!(d.stats().programs, 3);
        assert_eq!(d.stats().program_failures, 1);
        assert_eq!(d.programmed_wblocks(EblockAddr::new(0, 0)).unwrap(), 2);
        assert_eq!(d.programmed_wblocks(EblockAddr::new(1, 0)).unwrap(), 1);
        // Fault ordinals after the failure were not consumed: the next
        // program is ordinal 4 and succeeds.
        d.erase(EblockAddr::new(1, 0)).unwrap();
        d.program(WblockAddr::new(1, 0, 0), wb(&geo, 9), &[]).unwrap();
    }

    #[test]
    fn program_batch_validates_against_virtual_frontier() {
        let mut d = dev();
        let geo = *d.geometry();
        // Two sequential WBLOCKs of one EBLOCK in one batch: the second is
        // only valid because the first precedes it in the same batch.
        let rs = d.program_batch(&[
            (WblockAddr::new(0, 0, 0), Bytes::from(wb(&geo, 1))),
            (WblockAddr::new(0, 0, 1), Bytes::from(wb(&geo, 2))),
        ]);
        assert!(rs.iter().all(|r| r.is_ok()));
        // An out-of-order jump inside a batch is rejected without touching
        // anything after it.
        let rs = d.program_batch(&[
            (WblockAddr::new(1, 0, 0), Bytes::from(wb(&geo, 1))),
            (WblockAddr::new(1, 0, 3), Bytes::from(wb(&geo, 2))),
            (WblockAddr::new(2, 0, 0), Bytes::from(wb(&geo, 3))),
        ]);
        assert_eq!(rs.len(), 2);
        assert!(rs[0].is_ok());
        assert!(matches!(
            rs[1],
            Err(FlashError::OutOfOrderProgram { expected_next: 1, .. })
        ));
        assert_eq!(d.programmed_wblocks(EblockAddr::new(2, 0)).unwrap(), 0);
    }

    #[test]
    fn program_batch_power_cut_truncates_without_side_effects() {
        let mut d = dev();
        let geo = *d.geometry();
        d.set_power_cut_after(2);
        let cmds: Vec<(WblockAddr, Bytes)> = (0..4)
            .map(|ch| (WblockAddr::new(ch, 0, 0), Bytes::from(wb(&geo, 7))))
            .collect();
        let rs = d.program_batch(&cmds);
        assert_eq!(rs.len(), 3);
        assert!(rs[0].is_ok() && rs[1].is_ok());
        assert!(matches!(rs[2], Err(FlashError::PowerLost)));
        assert_eq!(d.stats().programs, 2);
        // The dropped commands left their channels untouched.
        assert_eq!(d.clock().channel_free_at(2), d.clock().now());
        assert_eq!(d.programmed_wblocks(EblockAddr::new(2, 0)).unwrap(), 0);
    }

    #[test]
    fn erase_batch_respects_endurance_with_truncation() {
        let mut d = FlashDevice::new(Geometry::tiny(), CostProfile::unit()).with_endurance(1);
        let a0 = EblockAddr::new(0, 0);
        let a1 = EblockAddr::new(1, 0);
        // Same EBLOCK twice in one batch: the second hits the endurance
        // limit through the virtual erase count and truncates the batch.
        let rs = d.erase_batch(&[a0, a0, a1]);
        assert_eq!(rs.len(), 2);
        assert!(rs[0].is_ok());
        assert!(matches!(rs[1], Err(FlashError::WornOut(a)) if a == a0));
        assert_eq!(d.erase_count(a0).unwrap(), 1);
        assert_eq!(d.erase_count(a1).unwrap(), 0);
    }

    #[test]
    fn single_wblock_read_shares_programmed_buffer() {
        let mut d = dev();
        let geo = *d.geometry();
        let buf = Bytes::from(wb(&geo, 9));
        d.program(WblockAddr::new(0, 0, 0), buf.clone(), &[]).unwrap();
        let (view, _) = d
            .read_extent(ByteExtent::new(EblockAddr::new(0, 0), 16, 64))
            .unwrap();
        // Zero-copy: the returned view extends a prefix slice of the
        // original buffer, which only works for the same backing Arc.
        assert!(buf.slice(0..16).try_extend(&view));
        assert_eq!(view, vec![9u8; 64]);
    }
}
