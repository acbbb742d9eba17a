//! `read_paged`: Zipfian point reads over a preloaded device whose mapping
//! cache holds a quarter of the translation pages, so `eleos::mapping`
//! misses and the read path carry the cost; writes, WAL and GC are idle.

use std::time::Instant;

use eleos::{Controller, Eleos, EleosConfig};
use eleos_workloads::Zipfian;
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::{repeat_setup, RunData};
use crate::measure::{
    devices, draw_uniform, finish, overwrite_tail, page_slices, preload, Counters, Params, Phase,
    Pool, Shadow, WindowClock, WINDOWS,
};
use crate::probes::{self, Probes};
use crate::trace::{now_ns, Name, TracedController};

pub const LEN: (u32, u32) = (64, 2047);
const BATCH: usize = 1 << 20;
/// LPIDs per read request: what the server does for one `ReadBatch` frame.
pub const READS: usize = 16;
/// Timed read requests per second of `--seconds`.
const REQUESTS_PER_SECOND: u64 = 80_000;

/// `lpids` LPIDs behind a mapping cache that holds a quarter of their
/// translation pages (256 entries per page).
fn config(lpids: u64) -> EleosConfig {
    EleosConfig {
        max_user_lpid: lpids + 1,
        ckpt_log_bytes: 64 << 20,
        mapping_cache_pages: (lpids / 256 / 4) as usize,
        ..Default::default()
    }
}

/// Scrambled Zipfian(0.99) LPIDs, drawn ahead of the timed phase (a draw
/// costs as much as a quarter of a read) and walked cyclically.
pub fn zipfian_keys(p: &Params, lpids: u64) -> Vec<u32> {
    let zipf = Zipfian::new(lpids, 0.99);
    let mut rng = StdRng::seed_from_u64(p.seed ^ 0x5EED);
    (0..p.pick(1usize << 22, 1 << 16))
        .map(|_| zipf.next_scrambled(&mut rng) as u32)
        .collect()
}

/// Format, load every LPID of the shadow once and checkpoint.
pub fn loaded(
    p: &Params,
    cfg: &EleosConfig,
    pool: &Pool,
    shadow: &mut Shadow,
) -> TracedController<Eleos> {
    let mut ctrl = TracedController::<Eleos>::format(devices(p, 1), cfg).expect("format");
    let mut rng = StdRng::seed_from_u64(p.seed);
    preload(&mut ctrl, &mut rng, pool, shadow, LEN, BATCH);
    ctrl.checkpoint().expect("checkpoint");
    ctrl.drain();
    ctrl
}

struct State {
    ctrl: TracedController<Eleos>,
    pool: Pool,
    shadow: Shadow,
    keys: Vec<u32>,
    gen_host_s: f64,
    preload: Counters,
}

fn setup(p: &Params) -> State {
    let lpids = p.pick(262_144, 32_768);
    let t = Instant::now();
    let pool = Pool::new(p.seed, 8 << 20);
    let keys = zipfian_keys(p, lpids);
    let gen_host_s = t.elapsed().as_secs_f64();
    let mut shadow = Shadow::new(lpids);
    let ctrl = loaded(p, &config(lpids), &pool, &mut shadow);
    let preload = Counters::of(&ctrl.snapshot());
    State {
        ctrl,
        pool,
        shadow,
        keys,
        gen_host_s,
        preload,
    }
}

pub fn run(p: &Params) -> RunData {
    let (st, setup_s, setup_reps) = repeat_setup(|| setup(p));
    let State {
        mut ctrl,
        pool,
        mut shadow,
        keys,
        gen_host_s,
        preload,
    } = st;
    let lpids = shadow.lpids();
    let per_window = p.count(REQUESTS_PER_SECOND, 8_000).div_ceil(WINDOWS as u64);
    let mut phase = Phase::default();
    let mut clock = WindowClock::new(p.trace, ctrl.rec.switch(), 0);
    let mut cursor = 0usize;
    let mut sink = 0u64;

    let before = Counters::of(&ctrl.snapshot());
    let sim0 = ctrl.host_now();
    for _ in 0..WINDOWS {
        clock.open(phase.lpages);
        for _ in 0..per_window {
            if cursor + READS > keys.len() {
                cursor = 0;
            }
            ctrl.rec.req = phase.attempted;
            let request = ctrl.rec.enter();
            let (sim, t) = (ctrl.host_now(), now_ns());
            let mut ok = true;
            for &lpid in &keys[cursor..cursor + READS] {
                match ctrl.read(lpid as u64) {
                    Ok(page) => sink = sink.wrapping_add(page.len() as u64 + page[0] as u64),
                    Err(_) => ok = false,
                }
            }
            let host_ns = now_ns() - t;
            ctrl.rec.exit(request, Name::Request);
            cursor += READS;
            phase.attempted += 1;
            if ok {
                phase.req_host_ns.push(host_ns);
                phase.req_sim_ns.push(ctrl.host_now() - sim);
                phase.lpages += READS as u64;
            } else {
                phase.failed += 1;
            }
        }
        clock.close(phase.lpages);
    }
    std::hint::black_box(sink);
    phase.sim_ns = ctrl.host_now() - sim0;
    phase.delta = Counters::of(&ctrl.snapshot()).minus(&before);
    phase.windows = clock.windows;

    let mut pages = Vec::new();
    let mut rng = StdRng::seed_from_u64(p.seed ^ 0x7A11);
    draw_uniform(&mut rng, &pool, lpids, LEN, BATCH, &mut pages);
    let probes = if p.trace {
        probes::run(
            p,
            &mut ctrl,
            &page_slices(&pool, &pages),
            &shadow.present(4096),
        )
    } else {
        Probes::default()
    };
    let driver_rec = std::mem::take(&mut ctrl.rec);
    let geo = *ctrl.unit(0).device().geometry();
    let (_, fin) = finish(
        ctrl,
        &config(lpids),
        &mut shadow,
        &|off, len| pool.slice(off as u32, len).to_vec(),
        |ctrl, shadow| overwrite_tail(ctrl, shadow, &mut rng, &pool, LEN),
    );
    RunData {
        setup_s,
        setup_reps,
        gen_host_s,
        phase,
        preload,
        fin,
        driver_rec,
        probes,
        op_counts: format!("lpids={lpids} requests={}", per_window * WINDOWS as u64),
        ..RunData::new(geo)
    }
}
