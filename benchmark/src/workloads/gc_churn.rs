//! `gc_churn`: uniform overwrites of a device filled to ~70 % of raw
//! capacity, after one untimed pass of overwrites so that write
//! amplification has levelled off. `eleos::gc` dominates; the map fits.

use std::time::Instant;

use eleos::{Controller, Eleos, EleosConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::{repeat_setup, RunData};
use crate::measure::{
    devices, draw_uniform, finish, geometry, overwrite_tail, page_slices, preload, timed_write,
    write_pages, Counters, Params, Phase, Pool, Shadow, WindowClock, WINDOWS,
};
use crate::probes::{self, Probes};
use crate::trace::{Name, TracedController};

const LEN: (u32, u32) = (640, 2047);
const BATCH: usize = 1 << 20;
/// Timed 1 MB batches per second of `--seconds`.
const BATCHES_PER_SECOND: u64 = 192;

struct State {
    ctrl: TracedController<Eleos>,
    cfg: EleosConfig,
    pool: Pool,
    shadow: Shadow,
    rng: StdRng,
    gen_host_s: f64,
    preload: Counters,
}

fn setup(p: &Params) -> State {
    // 70 % of raw capacity; the small smoke device has no room above 50 %.
    let lpids = (geometry(p, 1).total_bytes() as f64 * p.pick(0.70, 0.50) / 1400.0) as u64;
    let t = Instant::now();
    let pool = Pool::new(p.seed, 8 << 20);
    let gen_host_s = t.elapsed().as_secs_f64();
    let cfg = EleosConfig {
        max_user_lpid: lpids + 1,
        ckpt_log_bytes: 16 << 20,
        mapping_cache_pages: 1 << 14,
        ..Default::default()
    };
    let mut ctrl = TracedController::<Eleos>::format(devices(p, 1), &cfg).expect("format");
    let mut shadow = Shadow::new(lpids);
    let mut rng = StdRng::seed_from_u64(p.seed);
    preload(&mut ctrl, &mut rng, &pool, &mut shadow, LEN, BATCH);
    // One keyspace of overwrites, untimed: GC reaches its steady state.
    let mut pages = Vec::new();
    let mut written = 0;
    while written < lpids {
        draw_uniform(&mut rng, &pool, lpids, LEN, BATCH, &mut pages);
        write_pages(&mut ctrl, &pool, &mut shadow, &pages);
        written += pages.len() as u64;
    }
    ctrl.drain();
    let preload = Counters::of(&ctrl.snapshot());
    State {
        ctrl,
        cfg,
        pool,
        shadow,
        rng,
        gen_host_s,
        preload,
    }
}

pub fn run(p: &Params) -> RunData {
    let (st, setup_s, setup_reps) = repeat_setup(|| setup(p));
    let State {
        mut ctrl,
        cfg,
        pool,
        mut shadow,
        mut rng,
        gen_host_s,
        preload,
    } = st;
    let lpids = shadow.lpids();
    let per_window = p.count(BATCHES_PER_SECOND, 64).div_ceil(WINDOWS as u64);
    let mut phase = Phase::default();
    let mut clock = WindowClock::new(p.trace, ctrl.rec.switch(), 0);
    let mut pages = Vec::new();

    let before = Counters::of(&ctrl.snapshot());
    let sim0 = ctrl.host_now();
    for _ in 0..WINDOWS {
        clock.open(phase.lpages);
        for _ in 0..per_window {
            ctrl.rec.req = phase.attempted;
            let request = ctrl.rec.enter();
            ctrl.rec.span(Name::Gen, || {
                draw_uniform(&mut rng, &pool, lpids, LEN, BATCH, &mut pages)
            });
            timed_write(&mut ctrl, &pool, &mut shadow, &pages, &mut phase);
            ctrl.rec.exit(request, Name::Request);
        }
        clock.close(phase.lpages);
    }
    ctrl.drain();
    phase.sim_ns = ctrl.host_now() - sim0;
    phase.delta = Counters::of(&ctrl.snapshot()).minus(&before);
    phase.windows = clock.windows;

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
    // The crash drops the controller; its spans are taken out first.
    let driver_rec = std::mem::take(&mut ctrl.rec);
    let geo = *ctrl.unit(0).device().geometry();
    let (_, fin) = finish(
        ctrl,
        &cfg,
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
        op_counts: format!("lpids={lpids} batches={}", per_window * WINDOWS as u64),
        ..RunData::new(geo)
    }
}
