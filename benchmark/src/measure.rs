//! What every workload shares: the device, the input pool, the shadow
//! oracle, public-snapshot counters, the timed phase's windows and the
//! end-of-run protocol (read-back, checkpoint, fixed tail, crash, recover,
//! read-back again).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use eleos::{Controller, EleosConfig, MergedSnapshot, PageMode, WriteBatch};
use eleos_flash::{Activity, CostProfile, FlashDevice, FlashOp, Geometry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trace::{now_ns, Name, TracedController};

/// Run size. `Full` is what `BENCHMARK.json` measures; `Smoke` is the same
/// code on a small device for `cargo test`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// What one invocation was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    /// Op counts are `seconds ×` a per-workload constant calibrated on the
    /// reference box, so counts (and with them every sim-clock metric) are a
    /// function of the arguments alone.
    pub seconds: u64,
    pub trace: bool,
    pub scale: Scale,
}

impl Params {
    /// `full × seconds` at full scale, `smoke` otherwise.
    pub fn count(&self, full_per_second: u64, smoke: u64) -> u64 {
        match self.scale {
            Scale::Full => full_per_second * self.seconds,
            Scale::Smoke => smoke,
        }
    }

    pub fn pick<T>(&self, full: T, smoke: T) -> T {
        match self.scale {
            Scale::Full => full,
            Scale::Smoke => smoke,
        }
    }
}

/// 8 ch × 64 EBLOCK × 32 WBLOCK × 32 KB = 512 MB (16 EBLOCKs per channel at
/// smoke scale), split evenly over `shards` devices.
pub fn geometry(p: &Params, shards: u32) -> Geometry {
    Geometry {
        channels: 8 / shards,
        eblocks_per_channel: p.pick(64, 16),
        wblocks_per_eblock: 32,
        wblock_bytes: 32 * 1024,
        rblock_bytes: 4 * 1024,
    }
}

pub fn devices(p: &Params, shards: u32) -> Vec<FlashDevice> {
    (0..shards)
        .map(|_| FlashDevice::new(geometry(p, shards), CostProfile::high_end_cpu()))
        .collect()
}

/// Windows the timed phase is cut into. Host rates are medians over them;
/// the traced run records spans in the odd ones.
pub const WINDOWS: usize = 16;

// ---------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------

/// Seeded random bytes every page payload is a slice of. The shadow keeps
/// `(offset, length)`, so the expected content of any LPAGE can be compared
/// byte for byte without storing or checksumming it at write time.
pub struct Pool {
    bytes: Vec<u8>,
}

const MAX_PAGE: usize = 4096;

impl Pool {
    pub fn new(seed: u64, len: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
        let mut bytes = vec![0u8; len + MAX_PAGE];
        for w in bytes.chunks_exact_mut(8) {
            w.copy_from_slice(&rng.gen::<u64>().to_le_bytes());
        }
        Pool { bytes }
    }

    /// A random offset every slice of up to [`MAX_PAGE`] bytes fits at.
    #[inline]
    pub fn offset(&self, rng: &mut StdRng) -> u32 {
        rng.gen_range(0..(self.bytes.len() - MAX_PAGE) as u32)
    }

    #[inline]
    pub fn slice(&self, off: u32, len: u32) -> &[u8] {
        &self.bytes[off as usize..off as usize + len as usize]
    }
}

/// Expected content of every LPID the run has had ACKed: a token the
/// workload can regenerate the payload from, and the length.
pub struct Shadow {
    entries: Vec<(u64, u32)>,
}

const ABSENT: u32 = u32::MAX;

impl Shadow {
    pub fn new(lpids: u64) -> Self {
        Shadow {
            entries: vec![(0, ABSENT); lpids as usize],
        }
    }

    #[inline]
    pub fn set(&mut self, lpid: u64, token: u64, len: u32) {
        self.entries[lpid as usize] = (token, len);
    }

    pub fn get(&self, lpid: u64) -> Option<(u64, u32)> {
        let (token, len) = self.entries[lpid as usize];
        (len != ABSENT).then_some((token, len))
    }

    pub fn lpids(&self) -> u64 {
        self.entries.len() as u64
    }

    /// Up to `limit` LPIDs that have been written, spread over the keyspace.
    pub fn present(&self, limit: usize) -> Vec<u64> {
        let stride = (self.lpids() as usize / limit).max(1);
        (0..self.lpids())
            .step_by(stride)
            .filter(|&l| self.get(l).is_some())
            .collect()
    }

    /// Take over `other`'s entries for `lpids` (threads that write disjoint
    /// LPID ranges each keep their own shadow).
    pub fn absorb(&mut self, other: &Shadow, lpids: std::ops::Range<u64>) {
        let r = lpids.start as usize..lpids.end as usize;
        self.entries[r.clone()].copy_from_slice(&other.entries[r]);
    }
}

/// Read back every LPID of the shadow and compare with what `expected`
/// regenerates. Returns `(lpages checked, mismatches)`; an
/// LPID the shadow has never seen written must read as not found.
pub fn verify<C: Controller>(
    ctrl: &mut C,
    shadow: &Shadow,
    expected: &dyn Fn(u64, u32) -> Vec<u8>,
) -> (u64, u64) {
    let (mut checked, mut bad) = (0u64, 0u64);
    for lpid in 0..shadow.lpids() {
        checked += 1;
        let ok = match (shadow.get(lpid), ctrl.read(lpid)) {
            (Some((token, len)), Ok(page)) => page[..] == expected(token, len)[..],
            (None, Err(eleos::EleosError::NotFound(_))) => true,
            _ => false,
        };
        bad += !ok as u64;
    }
    (checked, bad)
}

// ---------------------------------------------------------------------
// Public-snapshot counters
// ---------------------------------------------------------------------

macro_rules! counters {
    ($($field:ident),* $(,)?) => {
        /// The additive counters of a [`MergedSnapshot`], flattened so that
        /// phases can be subtracted and rounds summed.
        #[derive(Debug, Clone, Default, PartialEq)]
        pub struct Counters {
            $(pub $field: u64,)*
            /// Busy ns (CPU + flash) per activity.
            pub activity: [u64; Activity::COUNT],
            /// Busy ns (CPU + flash) per unit.
            pub unit_busy: Vec<u64>,
        }

        impl Counters {
            fn zip(&self, o: &Counters, f: impl Fn(u64, u64) -> u64) -> Counters {
                let n = self.unit_busy.len().max(o.unit_busy.len());
                let at = |v: &Vec<u64>, i: usize| v.get(i).copied().unwrap_or(0);
                Counters {
                    $($field: f(self.$field, o.$field),)*
                    activity: std::array::from_fn(|i| f(self.activity[i], o.activity[i])),
                    unit_busy: (0..n).map(|i| f(at(&self.unit_busy, i), at(&o.unit_busy, i))).collect(),
                }
            }
        }
    };
}

counters! {
    cpu_busy, batches, lpages, payload_bytes, stored_bytes, reads, read_bytes, commits, aborts,
    gc_collections, gc_moved_pages, gc_moved_bytes, gc_erases, checkpoints, gc_installs_aborted,
    action_retries, gc_relocation_aborts, wal_fallbacks, programs, bytes_programmed, rblock_reads,
    bytes_read, erases, flash_busy, map_hits, map_misses, map_flash_loads, map_evictions,
    wal_program_ns,
}

impl Counters {
    pub fn of(s: &MergedSnapshot) -> Counters {
        let (e, f, m) = (s.eleos(), s.flash(), s.map_cache());
        Counters {
            cpu_busy: s.cpu_busy_ns(),
            batches: e.batches,
            lpages: e.lpages,
            payload_bytes: e.payload_bytes,
            stored_bytes: e.stored_bytes,
            reads: e.reads,
            read_bytes: e.read_bytes,
            commits: e.commits,
            aborts: e.aborts,
            gc_collections: e.gc_collections,
            gc_moved_pages: e.gc_moved_pages,
            gc_moved_bytes: e.gc_moved_bytes,
            gc_erases: e.gc_erases,
            checkpoints: e.checkpoints,
            gc_installs_aborted: e.gc_installs_aborted,
            action_retries: e.action_retries,
            gc_relocation_aborts: e.gc_relocation_aborts,
            wal_fallbacks: e.wal_fallbacks,
            programs: f.programs,
            bytes_programmed: f.bytes_programmed,
            rblock_reads: f.rblock_reads,
            bytes_read: f.bytes_read,
            erases: f.erases,
            flash_busy: f.total_busy_ns(),
            map_hits: m.hits,
            map_misses: m.misses,
            map_flash_loads: m.flash_loads,
            map_evictions: m.evictions,
            wal_program_ns: s
                .shards
                .iter()
                .map(|u| u.ledger.op_activity_ns(FlashOp::Program, Activity::Wal))
                .sum(),
            activity: std::array::from_fn(|i| s.activity_busy_ns(Activity::ALL[i])),
            unit_busy: s.shards.iter().map(|u| u.total_busy_ns()).collect(),
        }
    }

    pub fn minus(&self, earlier: &Counters) -> Counters {
        self.zip(earlier, u64::saturating_sub)
    }

    pub fn plus(&self, other: &Counters) -> Counters {
        self.zip(other, |a, b| a + b)
    }

    pub fn busy(&self, a: Activity) -> u64 {
        self.activity[a.index()]
    }

    pub fn total_busy(&self) -> u64 {
        self.cpu_busy + self.flash_busy
    }
}

// ---------------------------------------------------------------------
// The timed phase
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub wall_ns: u64,
    pub lpages: u64,
    pub traced: bool,
}

/// Everything measured between the start and the end of the timed phase.
#[derive(Default)]
pub struct Phase {
    pub windows: Vec<Window>,
    /// Host ns per request, every request of the phase.
    pub req_host_ns: Vec<u64>,
    /// Sim ns per request (in-process workloads only).
    pub req_sim_ns: Vec<u64>,
    /// LPAGEs durably ACKed or returned.
    pub lpages: u64,
    /// Requests issued and requests that failed or were refused.
    pub attempted: u64,
    pub failed: u64,
    /// Sim-clock length of the phase.
    pub sim_ns: u64,
    /// Public-snapshot counters over the phase.
    pub delta: Counters,
}

impl Phase {
    pub fn wall_ns(&self, traced: bool) -> u64 {
        self.windows
            .iter()
            .filter(|w| w.traced == traced)
            .map(|w| w.wall_ns)
            .sum()
    }

    /// LPAGE/s of each window with the given tracing state.
    pub fn rates(&self, traced: bool) -> Vec<f64> {
        self.windows
            .iter()
            .filter(|w| w.traced == traced && w.wall_ns > 0)
            .map(|w| w.lpages as f64 / (w.wall_ns as f64 / 1e9))
            .collect()
    }
}

/// Opens and closes the windows of a timed phase, turning the recorders'
/// switch on for the odd ones of a traced run.
pub struct WindowClock {
    trace: bool,
    switch: Arc<AtomicBool>,
    start_ns: u64,
    lpages0: u64,
    index: usize,
    pub windows: Vec<Window>,
}

impl WindowClock {
    /// `first` is the index of the first window this clock opens (a phase
    /// can be cut across several clocks).
    pub fn new(trace: bool, switch: Arc<AtomicBool>, first: usize) -> Self {
        WindowClock {
            trace,
            switch,
            start_ns: 0,
            lpages0: 0,
            index: first,
            windows: Vec::new(),
        }
    }

    fn traced(&self) -> bool {
        self.trace && self.index % 2 == 1
    }

    pub fn open(&mut self, lpages_so_far: u64) {
        // Relaxed: the flag publishes no other data.
        self.switch.store(self.traced(), Ordering::Relaxed);
        self.lpages0 = lpages_so_far;
        self.start_ns = now_ns();
    }

    pub fn close(&mut self, lpages_so_far: u64) {
        let wall_ns = now_ns() - self.start_ns;
        self.switch.store(false, Ordering::Relaxed);
        self.windows.push(Window {
            wall_ns,
            lpages: lpages_so_far - self.lpages0,
            traced: self.traced(),
        });
        self.index += 1;
    }
}

// ---------------------------------------------------------------------
// Writing pool pages in batches
// ---------------------------------------------------------------------

/// One page to write: where it goes and which pool slice it carries.
#[derive(Debug, Clone, Copy)]
pub struct PageRef {
    pub lpid: u64,
    pub off: u32,
    pub len: u32,
}

/// Pack `pages` into one [`WriteBatch`].
pub fn pack(pool: &Pool, pages: &[PageRef]) -> WriteBatch {
    let mut b = WriteBatch::new(PageMode::Variable);
    for p in pages {
        b.put(p.lpid, pool.slice(p.off, p.len)).expect("put");
    }
    b
}

/// `pages` as `(lpid, payload)` pairs.
pub fn page_slices<'a>(pool: &'a Pool, pages: &[PageRef]) -> Vec<(u64, &'a [u8])> {
    pages
        .iter()
        .map(|p| (p.lpid, pool.slice(p.off, p.len)))
        .collect()
}

/// Record `pages` as ACKed.
pub fn remember(shadow: &mut Shadow, pages: &[PageRef]) {
    for p in pages {
        shadow.set(p.lpid, p.off as u64, p.len);
    }
}

/// Untimed write of `pages` as one batch (preload, warm-up, tail).
pub fn write_pages<C: Controller>(
    ctrl: &mut C,
    pool: &Pool,
    shadow: &mut Shadow,
    pages: &[PageRef],
) {
    ctrl.write(&pack(pool, pages)).expect("untimed write");
    remember(shadow, pages);
}

/// One timed write request inside the caller's `harness.request` span:
/// pack (`batch.put`), write through the traced controller, and on success
/// take the latency samples and update the shadow (`harness.oracle`).
pub fn timed_write<C: Controller>(
    ctrl: &mut TracedController<C>,
    pool: &Pool,
    shadow: &mut Shadow,
    pages: &[PageRef],
    phase: &mut Phase,
) {
    let batch = ctrl.rec.span(Name::BatchPut, || pack(pool, pages));
    let (sim, t) = (ctrl.host_now(), now_ns());
    let res = ctrl.write(&batch);
    let host_ns = now_ns() - t;
    phase.attempted += 1;
    match res {
        Ok(ack) => {
            phase.req_host_ns.push(host_ns);
            phase.req_sim_ns.push(ack.done_at - sim);
            phase.lpages += pages.len() as u64;
            ctrl.rec.span(Name::Oracle, || remember(shadow, pages));
        }
        Err(_) => phase.failed += 1,
    }
}

/// Draw pages of `len_range` bytes for uniformly chosen LPIDs until the
/// batch would reach `batch_bytes` on the wire.
pub fn draw_uniform(
    rng: &mut StdRng,
    pool: &Pool,
    lpids: u64,
    len_range: (u32, u32),
    batch_bytes: usize,
    out: &mut Vec<PageRef>,
) {
    out.clear();
    let mut wire = 0usize;
    while wire < batch_bytes {
        let len = rng.gen_range(len_range.0..=len_range.1);
        out.push(PageRef {
            lpid: rng.gen_range(0..lpids),
            off: pool.offset(rng),
            len,
        });
        wire += eleos::types::align_lpage(len as usize + eleos::batch::ENTRY_HEADER);
    }
}

/// The fixed tail the pool workloads write between checkpoint and crash:
/// eight 1 MB batches of uniform overwrites.
pub fn overwrite_tail<C: Controller>(
    ctrl: &mut C,
    shadow: &mut Shadow,
    rng: &mut StdRng,
    pool: &Pool,
    len_range: (u32, u32),
) {
    let mut pages = Vec::new();
    for _ in 0..8 {
        draw_uniform(rng, pool, shadow.lpids(), len_range, 1 << 20, &mut pages);
        write_pages(ctrl, pool, shadow, &pages);
    }
}

/// Load LPIDs `0..lpids` once, in order, in `batch_bytes` batches.
pub fn preload<C: Controller>(
    ctrl: &mut C,
    rng: &mut StdRng,
    pool: &Pool,
    shadow: &mut Shadow,
    len_range: (u32, u32),
    batch_bytes: usize,
) {
    let mut pages = Vec::new();
    let mut wire = 0usize;
    for lpid in 0..shadow.lpids() {
        let len = rng.gen_range(len_range.0..=len_range.1);
        pages.push(PageRef {
            lpid,
            off: pool.offset(rng),
            len,
        });
        wire += eleos::types::align_lpage(len as usize + eleos::batch::ENTRY_HEADER);
        if wire >= batch_bytes || lpid + 1 == shadow.lpids() {
            write_pages(ctrl, pool, shadow, &pages);
            pages.clear();
            wire = 0;
        }
    }
    ctrl.drain();
}

// ---------------------------------------------------------------------
// End of run: the correctness and durability oracle
// ---------------------------------------------------------------------

/// What the end-of-run protocol measured.
#[derive(Debug, Clone, Default)]
pub struct Finish {
    /// LPAGEs compared over both read-backs, and how many differed.
    pub checked: u64,
    pub mismatched: u64,
    pub conservation_ok: bool,
    pub checkpoint_host_ms: f64,
    pub recover_host_ms: f64,
    pub recover_sim_ns: u64,
    pub recover_rblock_reads: u64,
}

/// Read back, checkpoint, write the fixed `tail`, crash, recover, read back
/// again. The tail makes the recovery work a fixed amount of log after a
/// checkpoint rather than wherever in the checkpoint cycle the timed phase
/// happened to stop.
pub fn finish<C: Controller>(
    mut ctrl: C,
    cfg: &EleosConfig,
    shadow: &mut Shadow,
    expected: &dyn Fn(u64, u32) -> Vec<u8>,
    tail: impl FnOnce(&mut C, &mut Shadow),
) -> (C, Finish) {
    let mut fin = Finish::default();
    ctrl.drain();
    let (checked, bad) = verify(&mut ctrl, shadow, expected);
    fin.checked += checked;
    fin.mismatched += bad;
    fin.conservation_ok = ctrl.snapshot().conservation_error().is_none();

    let t = Instant::now();
    ctrl.checkpoint().expect("checkpoint");
    fin.checkpoint_host_ms = t.elapsed().as_secs_f64() * 1e3;
    tail(&mut ctrl, shadow);
    ctrl.drain();

    let sim0 = ctrl.host_now();
    let reads0 = ctrl.snapshot().flash().rblock_reads;
    let media = ctrl.crash();
    let t = Instant::now();
    let mut ctrl = C::recover(media, cfg).expect("recover");
    fin.recover_host_ms = t.elapsed().as_secs_f64() * 1e3;
    fin.recover_sim_ns = ctrl.host_now() - sim0;
    fin.recover_rblock_reads = ctrl.snapshot().flash().rblock_reads - reads0;

    let (checked, bad) = verify(&mut ctrl, shadow, expected);
    fin.checked += checked;
    fin.mismatched += bad;
    fin.conservation_ok &= ctrl.snapshot().conservation_error().is_none();
    (ctrl, fin)
}
