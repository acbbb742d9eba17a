//! `net_write` and `net_mixed`: the full stack as a client sees it, over
//! loopback TCP. `ServerHandle::spawn` runs in this process over one traced
//! `Eleos`; every connection drives the repo's own `Client` from one thread.
//!
//! - `net_write`: two connections, each with a window of 32 un-ACKed 4-page
//!   batches over a private 8,192-LPID slice. `Client` absorbs ACKs only
//!   while it waits, so the ACK of request *k* is seen when request *k + 32*
//!   is about to be sent: the median latency follows window ÷ throughput and
//!   the tail shows stalls.
//! - `net_mixed`: one connection over a device preloaded with 16,384 LPIDs.
//!   Each iteration pipelines one 4-page write (uniform over the keyspace)
//!   and then blocks on a read of 16 LPIDs (Zipfian over the keyspace), which
//!   the server answers after flushing the open group. The request is the
//!   iteration, a true round trip. Every window runs against a fresh server
//!   and device. README.md records why this is not two connections over one
//!   device preloaded as `read_paged`.

use std::net::SocketAddr;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use eleos::frontend::GroupCommitPolicy;
use eleos::{Controller, Eleos, EleosConfig};
use eleos_server::{Client, Frame, NetStats, ServerHandle};
use eleos_workloads::{TpccTrace, TpccTraceConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::read_paged::{self, READS};
use super::{repeat_setup, FrontendCounts, RunData};
use crate::measure::{
    devices, draw_uniform, finish, overwrite_tail, page_slices, remember, Counters, PageRef,
    Params, Phase, Pool, Shadow, Window, WindowClock, WINDOWS,
};
use crate::probes::{self, Probes};
use crate::trace::{now_ns, Name, Recorder, TracedController};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Write,
    Mixed,
}

impl Mix {
    /// Connections, one client thread each. `net_mixed` has one: with every
    /// read flushing the open group, one closed-loop connection makes each
    /// group exactly one batch, so the sim side repeats exactly for a seed;
    /// with a second connection group contents are a matter of thread timing.
    pub fn conns(self) -> usize {
        match self {
            Mix::Write => 2,
            Mix::Mixed => 1,
        }
    }
}

const PAGES: usize = 4;
/// Un-ACKed batches a `net_write` connection keeps in flight.
const IN_FLIGHT: u64 = 32;
const SLICE: u64 = 8_192;
/// Requests per connection per second of `--seconds`.
const WRITES_PER_SECOND: u64 = 22_000;
const ITERATIONS_PER_SECOND: u64 = 4_800;
/// Requests of connection 0 whose frames the traced run keeps for the
/// codec replay.
const KEEP_FRAMES: u64 = 512;

type Ctrl = TracedController<Eleos>;

/// 16,384 LPIDs; the map fits. Every `net_write` connection keeps
/// overwriting its own half, so an EBLOCK is dead by the time GC gets to it
/// and GC only erases.
fn config() -> EleosConfig {
    EleosConfig {
        max_user_lpid: 2 * SLICE + 1,
        ckpt_log_bytes: 64 << 20,
        mapping_cache_pages: 1 << 12,
        ..Default::default()
    }
}

/// Inputs generated once per run.
struct Inputs {
    pool: Pool,
    /// Zipfian read keys (`net_mixed`).
    keys: Vec<u32>,
    /// TPC-C compressed-page sizes (`net_write`).
    lens: Vec<u32>,
    gen_host_s: f64,
}

fn inputs(p: &Params, mix: Mix) -> Inputs {
    let lpids = config().max_user_lpid - 1;
    let t = Instant::now();
    let pool = Pool::new(p.seed, 8 << 20);
    let (keys, lens) = match mix {
        Mix::Mixed => (read_paged::zipfian_keys(p, lpids), Vec::new()),
        Mix::Write => {
            let trace = TpccTrace::new(TpccTraceConfig {
                seed: p.seed,
                ..Default::default()
            });
            (Vec::new(), trace.take(1 << 16).map(|w| w.len).collect())
        }
    };
    Inputs {
        pool,
        keys,
        lens,
        gen_host_s: t.elapsed().as_secs_f64(),
    }
}

/// A running server over a fresh device, with its connections open.
struct Server {
    handle: Option<ServerHandle<Ctrl>>,
    clients: Vec<Client>,
    /// What the device holds (`net_mixed` preloads every LPID).
    shadow: Shadow,
    before: Counters,
    sim0: u64,
}

impl Drop for Server {
    /// A set-up that is thrown away still has a server running: close the
    /// connections, then stop the server and wait for its threads.
    fn drop(&mut self) {
        self.clients.clear();
        if let Some(h) = self.handle.take() {
            h.shutdown();
        }
    }
}

fn serve(p: &Params, mix: Mix, pool: &Pool, switch: &Arc<AtomicBool>) -> Server {
    let cfg = config();
    let mut shadow = Shadow::new(cfg.max_user_lpid - 1);
    let mut ctrl = match mix {
        Mix::Mixed => read_paged::loaded(p, &cfg, pool, &mut shadow),
        Mix::Write => Ctrl::format(devices(p, 1), &cfg).expect("format"),
    };
    // The engine thread owns the controller from here on; the harness
    // reaches it only through the switch.
    ctrl.rec = Recorder::with_switch(Arc::clone(switch));
    ctrl.detached = true;
    let before = Counters::of(&ctrl.snapshot());
    let sim0 = ctrl.host_now();
    let handle =
        ServerHandle::spawn(ctrl, GroupCommitPolicy::default(), "127.0.0.1:0").expect("spawn");
    let addr: SocketAddr = handle.addr();
    let clients = (0..mix.conns())
        .map(|_| Client::connect(addr).expect("connect"))
        .collect();
    Server {
        handle: Some(handle),
        clients,
        shadow,
        before,
        sim0,
    }
}

/// One connection: its client, what its thread needs and what it measures.
struct Conn<'a> {
    /// The LPIDs only this connection writes: its share of the keyspace,
    /// all of which it keeps overwriting.
    own: std::ops::Range<u64>,
    client: Client,
    clock: WindowClock,
    rec: Recorder,
    shadow: Shadow,
    rng: StdRng,
    pool: &'a Pool,
    phase: Phase,
    frames: Vec<Frame>,
    keep_frames: bool,
    pages: Vec<PageRef>,
}

impl Conn<'_> {
    /// Draw one batch of [`PAGES`] pages with `lpid` and `len` from the
    /// given closures, as the owned pages `Client::write` takes.
    fn draw(
        &mut self,
        lpid: impl Fn(&mut StdRng) -> u64,
        len: impl Fn(&mut StdRng) -> u32,
    ) -> Vec<(u64, Vec<u8>)> {
        let (rng, pool, pages) = (&mut self.rng, self.pool, &mut self.pages);
        self.rec.span(Name::Gen, || {
            pages.clear();
            for _ in 0..PAGES {
                pages.push(PageRef {
                    lpid: lpid(rng),
                    off: pool.offset(rng),
                    len: len(rng),
                });
            }
            pages
                .iter()
                .map(|r| (r.lpid, pool.slice(r.off, r.len).to_vec()))
                .collect()
        })
    }

    fn send(&mut self, pages: Vec<(u64, Vec<u8>)>) -> Option<u64> {
        let keep = self.keep_frames && self.phase.attempted < KEEP_FRAMES;
        let kept = keep.then(|| pages.clone());
        let client = &mut self.client;
        let res = self.rec.span(Name::ClientWrite, || client.write(pages));
        self.phase.attempted += 1;
        match res {
            Ok(wsn) => {
                let (shadow, refs) = (&mut self.shadow, &self.pages);
                self.rec.span(Name::Oracle, || remember(shadow, refs));
                if let Some(pages) = kept {
                    let sid = self.client.sid();
                    self.frames.push(Frame::WriteBatch { sid, wsn, pages });
                    self.frames.push(Frame::Ack {
                        sid,
                        highest_wsn: wsn,
                        group: wsn,
                    });
                }
                Some(wsn)
            }
            Err(_) => {
                self.phase.failed += 1;
                None
            }
        }
    }
}

/// Send times of the batches in flight, and how far ACKs have been seen.
struct InFlight {
    sent_at: [u64; 2 * IN_FLIGHT as usize],
    seen: u64,
}

impl InFlight {
    /// Take a latency sample for every WSN the client has absorbed an ACK
    /// for since the last call.
    fn absorb(&mut self, client: &Client, phase: &mut Phase) {
        let now = now_ns();
        while self.seen < client.highest_acked() {
            self.seen += 1;
            phase
                .req_host_ns
                .push(now - self.sent_at[(self.seen % (2 * IN_FLIGHT)) as usize]);
            phase.lpages += PAGES as u64;
        }
    }
}

fn write_loop(c: &mut Conn, windows: usize, per_window: u64, lens: &[u32]) {
    let own = c.own.clone();
    let mut flight = InFlight {
        sent_at: [0; 2 * IN_FLIGHT as usize],
        seen: 0,
    };
    for _ in 0..windows {
        c.clock.open(c.phase.lpages);
        for _ in 0..per_window {
            c.rec.req = c.phase.attempted + 1;
            let request = c.rec.enter();
            let pages = c.draw(
                |r| r.gen_range(own.clone()),
                |r| lens[r.gen_range(0..lens.len())],
            );
            let t = now_ns();
            if let Some(wsn) = c.send(pages) {
                flight.sent_at[(wsn % (2 * IN_FLIGHT)) as usize] = t;
                if wsn > IN_FLIGHT {
                    let client = &mut c.client;
                    if c.rec
                        .span(Name::ClientWait, || client.wait_acked(wsn - IN_FLIGHT))
                        .is_err()
                    {
                        c.phase.failed += 1;
                    }
                }
                flight.absorb(&c.client, &mut c.phase);
            }
            c.rec.exit(request, Name::Request);
        }
        c.clock.close(c.phase.lpages);
    }
    // The ACKs still in flight arrive outside any window.
    if c.client.wait_all_acked().is_err() {
        c.phase.failed += 1;
    }
    flight.absorb(&c.client, &mut c.phase);
}

fn mixed_loop(c: &mut Conn, windows: usize, per_window: u64, keys: &[u32]) {
    let own = c.own.clone();
    let mut cursor = 0;
    for _ in 0..windows {
        c.clock.open(c.phase.lpages);
        for _ in 0..per_window {
            if cursor + READS > keys.len() {
                cursor = 0;
            }
            c.rec.req = c.phase.attempted + 1;
            let request = c.rec.enter();
            let t = now_ns();
            let pages = c.draw(
                |r| r.gen_range(own.clone()),
                |r| r.gen_range(read_paged::LEN.0..=read_paged::LEN.1),
            );
            let wsn = c.send(pages);
            let lpids: Vec<u64> = keys[cursor..cursor + READS]
                .iter()
                .map(|&k| k as u64)
                .collect();
            cursor += READS;
            let client = &mut c.client;
            let resp = c.rec.span(Name::ClientRead, || client.read(lpids.clone()));
            let host_ns = now_ns() - t;
            // Read-your-writes: the server flushed the open group before it
            // read, so the write is ACKed, and with one connection every
            // LPID reads as the shadow has it.
            let (shadow, pool) = (&c.shadow, c.pool);
            let ok = c.rec.span(Name::Oracle, || match (&resp, wsn) {
                (Ok(resp), Some(wsn)) => {
                    client.highest_acked() >= wsn
                        && resp.len() == READS
                        && lpids
                            .iter()
                            .zip(resp)
                            .all(|(&l, page)| match (page, shadow.get(l)) {
                                (Some(page), Some((off, len))) => {
                                    page[..] == *pool.slice(off as u32, len)
                                }
                                _ => false,
                            })
                }
                _ => false,
            });
            if ok {
                c.phase.req_host_ns.push(host_ns);
                c.phase.lpages += (PAGES + READS) as u64;
            } else {
                c.phase.failed += 1;
            }
            if let (true, Ok(resp)) = (c.keep_frames && c.phase.attempted <= KEEP_FRAMES, resp) {
                c.frames.push(Frame::ReadBatch { lpids });
                c.frames.push(Frame::ReadResp { pages: resp });
            }
            c.rec.exit(request, Name::Request);
        }
        c.clock.close(c.phase.lpages);
    }
}

pub fn run(p: &Params, mix: Mix) -> RunData {
    let switch = Arc::new(AtomicBool::new(false));
    let ((inp, first), setup_s, setup_reps) = repeat_setup(|| {
        let inp = inputs(p, mix);
        let server = serve(p, mix, &inp.pool, &switch);
        (inp, server)
    });
    let per_window = match mix {
        Mix::Write => p.count(WRITES_PER_SECOND, 2_048),
        Mix::Mixed => p.count(ITERATIONS_PER_SECOND, 512),
    }
    .div_ceil(WINDOWS as u64);
    let conns = mix.conns();
    let lpids = first.shadow.lpids();
    // `net_mixed` burns 64 KB of flash per iteration, so it gets a fresh
    // server and device for every window (set up between windows, untimed)
    // and GC never starts: once it does, how much it relocates differs 2x
    // from seed to seed.
    let rounds = match mix {
        Mix::Write => 1,
        Mix::Mixed => WINDOWS,
    };
    let windows = WINDOWS / rounds;

    let mut phase = Phase::default();
    let mut driver_rec = Recorder::default();
    let mut engine_rec = Recorder::default();
    let mut frames = Vec::new();
    let mut net = NetStats::default();
    let mut preload = Counters::default();
    let mut next = Some(first);
    let mut last = None;
    for round in 0..rounds {
        drop(last.take());
        let mut srv = next
            .take()
            .unwrap_or_else(|| serve(p, mix, &inp.pool, &switch));
        let start = Barrier::new(conns);
        let share = lpids / conns as u64;
        let clients = std::mem::take(&mut srv.clients);
        let outs: Vec<Conn> = std::thread::scope(|scope| {
            let threads: Vec<_> = clients
                .into_iter()
                .enumerate()
                .map(|(index, client)| {
                    let rec = Recorder::with_switch(Arc::clone(&switch));
                    let mut c = Conn {
                        own: index as u64 * share..(index as u64 + 1) * share,
                        client,
                        clock: WindowClock::new(p.trace, rec.switch(), round * windows),
                        rec,
                        shadow: Shadow::new(lpids),
                        rng: StdRng::seed_from_u64(
                            p.seed
                                .wrapping_mul(31)
                                .wrapping_add((round * conns + index) as u64),
                        ),
                        pool: &inp.pool,
                        phase: Phase::default(),
                        frames: Vec::new(),
                        keep_frames: p.trace && index == 0 && round == 0,
                        pages: Vec::new(),
                    };
                    // Reads are compared with what the device holds now.
                    c.shadow.absorb(&srv.shadow, 0..lpids);
                    let (start, inp) = (&start, &inp);
                    scope.spawn(move || {
                        start.wait();
                        match mix {
                            Mix::Write => write_loop(&mut c, windows, per_window, &inp.lens),
                            Mix::Mixed => mixed_loop(&mut c, windows, per_window, &inp.keys),
                        }
                        c
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("client thread"))
                .collect()
        });
        let (mut ctrl, stats): (Ctrl, NetStats) = srv.handle.take().expect("server").shutdown();

        // Fold the connections into the phase: window i is the connections'
        // windows i side by side.
        for w in 0..windows {
            phase.windows.push(Window {
                wall_ns: outs.iter().map(|o| o.clock.windows[w].wall_ns).sum::<u64>()
                    / conns as u64,
                lpages: outs.iter().map(|o| o.clock.windows[w].lpages).sum(),
                traced: outs[0].clock.windows[w].traced,
            });
        }
        let mut batches_sent = 0;
        for o in outs {
            phase.req_host_ns.extend(o.phase.req_host_ns);
            phase.lpages += o.phase.lpages;
            phase.attempted += o.phase.attempted;
            phase.failed += o.phase.failed;
            batches_sent += o.phase.attempted;
            srv.shadow.absorb(&o.shadow, o.own.clone());
            driver_rec.absorb(o.rec);
            frames.extend(o.frames);
        }
        // Every batch ACKed exactly once, none re-ACKed.
        phase.attempted += 2;
        phase.failed += (stats.acks_out != batches_sent) as u64 + (stats.reacks != 0) as u64;
        net.frames_in += stats.frames_in;
        net.acks_out += stats.acks_out;
        net.reacks += stats.reacks;
        net.purged_batches += stats.purged_batches;
        ctrl.drain();
        phase.sim_ns += ctrl.host_now() - srv.sim0;
        phase.delta = phase
            .delta
            .plus(&Counters::of(&ctrl.snapshot()).minus(&srv.before));
        preload = srv.before.clone();
        let mut rec = std::mem::take(&mut ctrl.rec);
        // A request's sim latency cannot be seen from the client: that of
        // the group writes stands in.
        phase.req_sim_ns.append(&mut rec.group_sim_ns);
        engine_rec.absorb(rec);
        last = Some((ctrl, std::mem::replace(&mut srv.shadow, Shadow::new(0))));
    }
    let (mut ctrl, mut shadow) = last.expect("at least one round");
    let frontend = FrontendCounts {
        groups: phase.delta.batches,
        batches: net.acks_out,
        queue_delay_p99_sim_ns: ctrl
            .snapshot()
            .span(eleos_flash::SpanKind::GroupFlush)
            .p99(),
    };

    let pool = &inp.pool;
    let mut rng = StdRng::seed_from_u64(p.seed ^ 0x7A11);
    let mut pages = Vec::new();
    let len = if mix == Mix::Mixed {
        read_paged::LEN
    } else {
        (640, 2047)
    };
    draw_uniform(&mut rng, pool, lpids, len, 1 << 20, &mut pages);
    let mut probes = Probes::default();
    if p.trace {
        probes = probes::run(
            p,
            &mut ctrl,
            &page_slices(pool, &pages),
            &shadow.present(4096),
        );
        probes::proto(p, &frames, &mut probes);
    }
    let geo = *ctrl.unit(0).device().geometry();
    let (_, fin) = finish(
        ctrl,
        &config(),
        &mut shadow,
        &|off, len| pool.slice(off as u32, len).to_vec(),
        |ctrl, shadow| overwrite_tail(ctrl, shadow, &mut rng, pool, len),
    );
    RunData {
        setup_s,
        setup_reps,
        gen_host_s: inp.gen_host_s,
        phase,
        preload,
        fin,
        drivers: conns,
        driver_rec,
        engine_rec: Some(engine_rec),
        frontend,
        net: Some(net),
        frames,
        probes,
        op_counts: format!(
            "connections={conns} requests_per_connection={} lpids={lpids} servers={rounds}",
            per_window * WINDOWS as u64
        ),
        ..RunData::new(geo)
    }
}
