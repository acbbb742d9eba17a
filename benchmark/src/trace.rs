//! Boundary tracing from outside the program.
//!
//! A [`Recorder`] keeps spans in memory (name, id, parent, request id,
//! start, end) and aggregates them online: a span's *self time* is its
//! duration minus the part its child spans cover, so the self times of all
//! spans under one root sum to that root's duration by construction.
//! [`TracedController`] implements the public [`Controller`] trait by
//! delegation and records one span around every trait call, so it sits at
//! the frontend → controller boundary even inside the server's engine
//! thread (`ServerHandle<TracedController<Eleos>>`).
//!
//! Every recorder has a shared on/off switch. With the switch off a span
//! site costs one relaxed load and a predictable branch; the end-to-end run
//! never turns it on. The traced run turns it on for every second window of
//! the timed phase, so traced and untraced windows of one process give the
//! tracing overhead.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use bytes::Bytes;
use eleos::error::Result;
use eleos::types::{Lpid, Sid, Wsn};
use eleos::{BatchAck, Controller, Eleos, EleosConfig, MergedSnapshot, WriteBatch};
use eleos_flash::{FlashDevice, Nanos};

/// Nanoseconds since the first call in this process: one epoch for every
/// thread, so spans recorded on different threads share a timeline.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

macro_rules! names {
    ($($variant:ident => $label:literal),* $(,)?) => {
        /// Where a span was taken. The label's prefix is the layer.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u8)]
        pub enum Name { $($variant),* }

        impl Name {
            pub const ALL: &'static [Name] = &[$(Name::$variant),*];
            pub fn label(self) -> &'static str {
                match self { $(Name::$variant => $label),* }
            }
        }
    };
}

names! {
    Request => "harness.request",
    Gen => "harness.gen",
    Oracle => "harness.oracle",
    BatchPut => "batch.put",
    FrontendSubmit => "frontend.submit",
    FrontendSubmitFlush => "frontend.submit_flush",
    FrontendFlush => "frontend.flush",
    ClientWrite => "client.write",
    ClientWait => "client.wait_acked",
    ClientRead => "client.read",
    CtlWrite => "controller.write",
    CtlWriteSessions => "controller.write_sessions",
    CtlRead => "controller.read",
    CtlReadBatch => "controller.read_batch",
    CtlSession => "controller.session",
    CtlDelete => "controller.delete",
    CtlCheckpoint => "controller.checkpoint",
    CtlMaintenance => "controller.maintenance",
    CtlDrain => "controller.drain",
}

/// One recorded span. `parent` is 0 for a root; ids start at 1.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: Name,
    pub id: u32,
    pub parent: u32,
    pub req: u64,
    pub start: u64,
    pub end: u64,
}

/// Per-name totals over every span seen while the switch was on.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Open {
    id: u32,
    start: u64,
    child_ns: u64,
}

/// Spans kept per recorder for the JSON-lines file; the aggregates cover
/// every span regardless.
pub const KEEP_SPANS: usize = 1 << 16;

pub struct Recorder {
    on: Arc<AtomicBool>,
    stack: Vec<Open>,
    next_id: u32,
    agg: Vec<Agg>,
    spans: Vec<Span>,
    /// `(span id, sid, wsn)`: the session advances a group write made
    /// durable. A socket request `(sid, wsn)` belongs to the first group
    /// whose advance for `sid` reaches `wsn`.
    links: Vec<(u32, Sid, Wsn)>,
    /// Time spent in root spans (the part of the wall the spans cover).
    root_ns: u64,
    /// Request id stamped on every span closed from now on: spans of one
    /// request share it.
    pub req: u64,
    /// Counts [`TracedController`] takes at the boundary.
    pub counts: BoundaryCounts,
    /// Sim ns of every group write of a detached [`TracedController`].
    pub group_sim_ns: Vec<u64>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::with_switch(Arc::new(AtomicBool::new(false)))
    }
}

impl Recorder {
    /// A recorder that shares `on` with whoever else holds it (the harness
    /// flips one switch for the engine thread and every client thread).
    pub fn with_switch(on: Arc<AtomicBool>) -> Self {
        Recorder {
            on,
            stack: Vec::with_capacity(8),
            next_id: 1,
            agg: vec![Agg::default(); Name::ALL.len()],
            spans: Vec::new(),
            links: Vec::new(),
            root_ns: 0,
            req: 0,
            counts: BoundaryCounts::default(),
            group_sim_ns: Vec::new(),
        }
    }

    pub fn switch(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.on)
    }

    pub fn set_on(&self, on: bool) {
        // Relaxed: the flag publishes no other data, it only selects
        // whether later span sites record.
        self.on.store(on, Ordering::Relaxed);
    }

    /// Open a span if the switch is on; pass the result to [`Recorder::exit`].
    #[inline]
    pub fn enter(&mut self) -> bool {
        if !self.on.load(Ordering::Relaxed) {
            return false;
        }
        if self.spans.capacity() == 0 {
            self.spans.reserve_exact(KEEP_SPANS);
        }
        let id = self.next_id;
        self.next_id += 1;
        self.stack.push(Open {
            id,
            start: now_ns(),
            child_ns: 0,
        });
        true
    }

    /// Close the span opened by the matching [`Recorder::enter`]; returns
    /// its id (0 when nothing was recorded).
    #[inline]
    pub fn exit(&mut self, entered: bool, name: Name) -> u32 {
        if !entered {
            return 0;
        }
        let end = now_ns();
        let open = self.stack.pop().expect("exit without enter");
        let dur = end - open.start;
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.id
            }
            None => {
                self.root_ns += dur;
                0
            }
        };
        let a = &mut self.agg[name as usize];
        a.count += 1;
        a.total_ns += dur;
        a.self_ns += dur - open.child_ns.min(dur);
        if self.spans.len() < KEEP_SPANS {
            self.spans.push(Span {
                name,
                id: open.id,
                parent,
                req: self.req,
                start: open.start,
                end,
            });
        }
        open.id
    }

    /// Time `f` as one span.
    #[inline]
    pub fn span<T>(&mut self, name: Name, f: impl FnOnce() -> T) -> T {
        let e = self.enter();
        let out = f();
        self.exit(e, name);
        out
    }

    pub fn agg(&self, name: Name) -> Agg {
        self.agg[name as usize]
    }

    pub fn root_ns(&self) -> u64 {
        self.root_ns
    }

    /// Fold another recorder's aggregates and kept spans into this one
    /// (span ids of `other` are shifted past this recorder's).
    pub fn absorb(&mut self, other: Recorder) {
        let shift = self.next_id - 1;
        for (a, b) in self.agg.iter_mut().zip(&other.agg) {
            a.count += b.count;
            a.total_ns += b.total_ns;
            a.self_ns += b.self_ns;
        }
        self.root_ns += other.root_ns;
        self.counts.absorb(&other.counts);
        let room = KEEP_SPANS.saturating_sub(self.spans.len());
        self.spans
            .extend(other.spans.into_iter().take(room).map(|mut s| {
                s.id += shift;
                if s.parent != 0 {
                    s.parent += shift;
                }
                s
            }));
        self.links.extend(
            other
                .links
                .into_iter()
                .map(|(id, sid, wsn)| (id + shift, sid, wsn)),
        );
        self.next_id += other.next_id - 1;
    }

    /// Spans opened so far (kept or not).
    pub fn span_count(&self) -> u64 {
        (self.next_id - 1) as u64
    }

    /// Append the kept spans as JSON lines, `thread` labelling the source.
    pub fn write_jsonl(&self, thread: &str, out: &mut String) {
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"thread\":\"{thread}\",\"name\":\"{}\",\"id\":{},\"parent\":{},\"req\":{},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.name.label(),
                s.id,
                s.parent,
                s.req,
                s.start,
                s.end
            );
        }
        for (id, sid, wsn) in &self.links {
            let _ = writeln!(
                out,
                "{{\"thread\":\"{thread}\",\"link\":{id},\"sid\":{sid},\"wsn\":{wsn}}}"
            );
        }
    }
}

/// Counts taken at the controller boundary while the switch is on, so that
/// ratios are measured where the work happens.
#[derive(Debug, Clone, Copy, Default)]
pub struct BoundaryCounts {
    /// Group writes (`write` + `write_sessions`) seen.
    pub writes: u64,
    /// LPAGEs those writes carried.
    pub write_lpages: u64,
    /// Group writes during which a flash erase happened (foreground GC or
    /// log truncation ran inside the call).
    pub gc_writes: u64,
    pub gc_write_ns: u64,
    pub free_write_ns: u64,
    /// Group writes whose pages live on more than one unit.
    pub cross_unit_writes: u64,
    /// Sum over group writes of the number of distinct units touched.
    pub units_touched: u64,
}

impl BoundaryCounts {
    fn absorb(&mut self, o: &BoundaryCounts) {
        self.writes += o.writes;
        self.write_lpages += o.write_lpages;
        self.gc_writes += o.gc_writes;
        self.gc_write_ns += o.gc_write_ns;
        self.free_write_ns += o.free_write_ns;
        self.cross_unit_writes += o.cross_unit_writes;
        self.units_touched += o.units_touched;
    }
}

/// The public [`Controller`] trait, delegated, with a span around every
/// call.
pub struct TracedController<C: Controller> {
    inner: C,
    pub rec: Recorder,
    /// For a controller the harness cannot reach while it runs (the server's
    /// engine thread owns it): stamp each span with this controller's call
    /// ordinal as its request id, and keep the sim latency of every group
    /// write in `rec.group_sim_ns`. In-process the harness sets `rec.req` and
    /// takes sim latencies itself.
    pub detached: bool,
    calls: u64,
}

impl<C: Controller> TracedController<C> {
    pub fn new(inner: C, rec: Recorder) -> Self {
        TracedController {
            inner,
            rec,
            detached: false,
            calls: 0,
        }
    }

    fn erases(&self) -> u64 {
        (0..self.inner.units())
            .map(|i| self.inner.unit(i).device().stats().erases)
            .sum()
    }

    /// Distinct units the pages of `batch` live on (1 without parsing when
    /// there is one unit).
    fn units_of(&self, batch: &WriteBatch) -> u64 {
        if self.inner.units() == 1 {
            return 1;
        }
        let mut seen = 0u64;
        if let Ok(entries) = eleos::batch::parse_batch(batch.as_bytes(), batch.mode()) {
            for e in entries {
                seen |= 1 << self.inner.unit_of(e.lpid);
            }
        }
        seen.count_ones() as u64
    }

    fn forward(
        &mut self,
        name: Name,
        batch: &WriteBatch,
        advances: &[(Sid, Wsn)],
    ) -> Result<BatchAck> {
        match name {
            Name::CtlWrite => self.inner.write(batch),
            _ => self.inner.write_sessions(batch, advances),
        }
    }

    /// `write` and `write_sessions`: one group made durable.
    fn group_write(
        &mut self,
        name: Name,
        batch: &WriteBatch,
        advances: &[(Sid, Wsn)],
    ) -> Result<BatchAck> {
        self.call();
        let sim0 = self.inner.host_now();
        let res = if self.on() {
            self.traced_write(name, batch, advances)
        } else {
            self.forward(name, batch, advances)
        };
        if let (true, Ok(ack)) = (self.detached, &res) {
            self.rec.group_sim_ns.push(ack.done_at.saturating_sub(sim0));
        }
        res
    }

    fn traced_write(
        &mut self,
        name: Name,
        batch: &WriteBatch,
        advances: &[(Sid, Wsn)],
    ) -> Result<BatchAck> {
        let units = self.units_of(batch);
        let erases0 = self.erases();
        let e = self.rec.enter();
        let t0 = now_ns();
        let res = self.forward(name, batch, advances);
        let dur = now_ns() - t0;
        let id = self.rec.exit(e, name);
        for &(sid, wsn) in advances {
            if self.rec.links.len() < KEEP_SPANS {
                self.rec.links.push((id, sid, wsn));
            }
        }
        let gc = self.erases() > erases0;
        let c = &mut self.rec.counts;
        c.writes += 1;
        c.write_lpages += batch.len() as u64;
        c.units_touched += units;
        c.cross_unit_writes += (units > 1) as u64;
        if gc {
            c.gc_writes += 1;
            c.gc_write_ns += dur;
        } else {
            c.free_write_ns += dur;
        }
        res
    }

    #[inline]
    fn call(&mut self) {
        self.calls += 1;
        if self.detached {
            self.rec.req = self.calls;
        }
    }

    #[inline]
    fn on(&self) -> bool {
        self.rec.on.load(Ordering::Relaxed)
    }
}

impl<C: Controller> Controller for TracedController<C> {
    fn format(devs: Vec<FlashDevice>, cfg: &EleosConfig) -> Result<Self> {
        Ok(TracedController::new(
            C::format(devs, cfg)?,
            Recorder::default(),
        ))
    }

    fn recover(devs: Vec<FlashDevice>, cfg: &EleosConfig) -> Result<Self> {
        Ok(TracedController::new(
            C::recover(devs, cfg)?,
            Recorder::default(),
        ))
    }

    fn crash(self) -> Vec<FlashDevice> {
        self.inner.crash()
    }

    #[inline]
    fn write(&mut self, batch: &WriteBatch) -> Result<BatchAck> {
        self.group_write(Name::CtlWrite, batch, &[])
    }

    #[inline]
    fn write_sessions(&mut self, batch: &WriteBatch, advances: &[(Sid, Wsn)]) -> Result<BatchAck> {
        self.group_write(Name::CtlWriteSessions, batch, advances)
    }

    fn open_session(&mut self) -> Result<Sid> {
        self.call();
        let inner = &mut self.inner;
        self.rec.span(Name::CtlSession, || inner.open_session())
    }

    fn close_session(&mut self, sid: Sid) -> Result<()> {
        self.call();
        let inner = &mut self.inner;
        self.rec.span(Name::CtlSession, || inner.close_session(sid))
    }

    #[inline]
    fn session_highest(&self, sid: Sid) -> Option<Wsn> {
        // `&self`: cannot record; a map lookup, counted in the caller's
        // self time.
        self.inner.session_highest(sid)
    }

    #[inline]
    fn read(&mut self, lpid: Lpid) -> Result<Bytes> {
        self.call();
        let inner = &mut self.inner;
        self.rec.span(Name::CtlRead, || inner.read(lpid))
    }

    #[inline]
    fn read_batch(&mut self, lpids: &[Lpid]) -> Result<Vec<Bytes>> {
        self.call();
        let inner = &mut self.inner;
        self.rec
            .span(Name::CtlReadBatch, || inner.read_batch(lpids))
    }

    fn delete(&mut self, lpids: &[Lpid]) -> Result<()> {
        self.call();
        let inner = &mut self.inner;
        self.rec.span(Name::CtlDelete, || inner.delete(lpids))
    }

    fn checkpoint(&mut self) -> Result<()> {
        self.call();
        let inner = &mut self.inner;
        self.rec.span(Name::CtlCheckpoint, || inner.checkpoint())
    }

    fn maintenance(&mut self) -> Result<()> {
        self.call();
        let inner = &mut self.inner;
        self.rec.span(Name::CtlMaintenance, || inner.maintenance())
    }

    fn drain(&mut self) {
        self.call();
        let inner = &mut self.inner;
        self.rec.span(Name::CtlDrain, || inner.drain())
    }

    #[inline]
    fn host_now(&self) -> Nanos {
        self.inner.host_now()
    }

    fn snapshot(&self) -> MergedSnapshot {
        self.inner.snapshot()
    }

    #[inline]
    fn units(&self) -> usize {
        self.inner.units()
    }

    #[inline]
    fn unit_of(&self, lpid: Lpid) -> usize {
        self.inner.unit_of(lpid)
    }

    #[inline]
    fn unit(&self, i: usize) -> &Eleos {
        self.inner.unit(i)
    }

    #[inline]
    fn unit_mut(&mut self, i: usize) -> &mut Eleos {
        self.inner.unit_mut(i)
    }
}
