//! `tpcc_direct`: the paper's headline path (Fig. 9). The TPC-C
//! compressed-page trace packed into 1 MB batches and written straight
//! through `Eleos::write`, in rounds that each start on a freshly formatted
//! device, so GC, checkpoints and map faults never run.

use std::time::Instant;

use eleos::{Controller, Eleos, EleosConfig};
use eleos_workloads::{TpccTrace, TpccTraceConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::{repeat_setup, RunData};
use crate::measure::{
    devices, finish, page_slices, timed_write, write_pages, Counters, PageRef, Params, Phase, Pool,
    Shadow, WindowClock,
};
use crate::probes::{self, Probes};
use crate::stats::median;
use crate::trace::{Name, Recorder, TracedController};

const BATCH: usize = 1 << 20;
/// Timed rounds per second of `--seconds`; a round is one window.
const ROUNDS_PER_SECOND: u64 = 17;
/// Rounds written during set-up so that the first timed round is warm.
const WARMUP_ROUNDS: usize = 2;

struct State {
    /// The batches of one round; every round replays them.
    batches: Vec<Vec<PageRef>>,
    pool: Pool,
    cfg: EleosConfig,
    gen_host_s: f64,
}

/// Configuration of `tpcc_driver::run_batch`: the map cache holds 65,536
/// translation pages, far more than the trace's 157.
fn config(pages: u64, telemetry: bool) -> EleosConfig {
    EleosConfig {
        max_user_lpid: pages + 1,
        ckpt_log_bytes: 64 << 20,
        map_entries_per_page: 256,
        mapping_cache_pages: 1 << 16,
        telemetry,
        ..Default::default()
    }
}

fn fresh(p: &Params, cfg: &EleosConfig, rec: Recorder) -> TracedController<Eleos> {
    TracedController::new(
        Eleos::format(devices(p, 1).pop().expect("one device"), cfg.clone()).expect("format"),
        rec,
    )
}

fn setup(p: &Params) -> State {
    let pages = p.pick(40_000, 4_000);
    let round_bytes: usize = p.pick(96 << 20, 6 << 20);
    let t = Instant::now();
    let pool = Pool::new(p.seed, 8 << 20);
    let mut rng = StdRng::seed_from_u64(p.seed);
    let mut trace = TpccTrace::new(TpccTraceConfig {
        pages,
        seed: p.seed,
        ..Default::default()
    });
    let mut batches = vec![Vec::new()];
    let (mut wire, mut total) = (0usize, 0usize);
    while total < round_bytes {
        let w = trace.next().expect("the trace is infinite");
        if wire >= BATCH {
            batches.push(Vec::new());
            wire = 0;
        }
        let stored = eleos::types::align_lpage(w.len as usize + eleos::batch::ENTRY_HEADER);
        batches.last_mut().expect("non-empty").push(PageRef {
            lpid: w.lpid,
            off: pool.offset(&mut rng),
            len: w.len,
        });
        wire += stored;
        total += stored;
    }
    let gen_host_s = t.elapsed().as_secs_f64();
    let cfg = config(pages, true);
    for _ in 0..WARMUP_ROUNDS {
        let mut ctrl = fresh(p, &cfg, Recorder::default());
        let mut shadow = Shadow::new(pages);
        for b in &batches {
            write_pages(&mut ctrl, &pool, &mut shadow, b);
        }
    }
    State {
        batches,
        pool,
        cfg,
        gen_host_s,
    }
}

/// Rounds with `EleosConfig::telemetry` off and on, interleaved: the host
/// cost of telemetry as a share of the round, and whether the sim clock and
/// the flash counters are identical either way (they must be).
fn telemetry_cost(p: &Params, st: &State) -> (f64, bool) {
    let round = |telemetry: bool| {
        let cfg = config(st.cfg.max_user_lpid - 1, telemetry);
        let mut ctrl = fresh(p, &cfg, Recorder::default());
        let mut shadow = Shadow::new(cfg.max_user_lpid);
        let t = Instant::now();
        for b in &st.batches {
            write_pages(&mut ctrl, &st.pool, &mut shadow, b);
        }
        ctrl.drain();
        let wall = t.elapsed().as_secs_f64();
        (wall, ctrl.host_now(), ctrl.snapshot().flash())
    };
    let mut fracs = Vec::new();
    let mut identical = true;
    for _ in 0..5 {
        let (mut off_s, mut on_s) = (0.0, 0.0);
        for _ in 0..2 {
            let (off, on) = (round(false), round(true));
            off_s += off.0;
            on_s += on.0;
            identical &= off.1 == on.1 && off.2 == on.2;
        }
        fracs.push(on_s / off_s - 1.0);
    }
    (median(&fracs), identical)
}

pub fn run(p: &Params) -> RunData {
    let (st, setup_s, setup_reps) = repeat_setup(|| setup(p));
    let lpids = st.cfg.max_user_lpid - 1;
    let rounds = p.count(ROUNDS_PER_SECOND, 4) as usize;
    let mut phase = Phase::default();
    let mut rec = Recorder::default();
    let mut clock = WindowClock::new(p.trace, rec.switch(), 0);
    let mut shadow = Shadow::new(lpids);
    let mut last = None;

    for _ in 0..rounds {
        drop(last.take());
        let mut ctrl = fresh(p, &st.cfg, rec);
        shadow = Shadow::new(lpids);
        let before = Counters::of(&ctrl.snapshot());
        let sim0 = ctrl.host_now();
        clock.open(phase.lpages);
        for b in &st.batches {
            ctrl.rec.req = phase.attempted;
            let request = ctrl.rec.enter();
            timed_write(&mut ctrl, &st.pool, &mut shadow, b, &mut phase);
            ctrl.rec.exit(request, Name::Request);
        }
        ctrl.drain();
        clock.close(phase.lpages);
        phase.sim_ns += ctrl.host_now() - sim0;
        phase.delta = phase
            .delta
            .plus(&Counters::of(&ctrl.snapshot()).minus(&before));
        rec = std::mem::take(&mut ctrl.rec);
        last = Some(ctrl);
    }
    phase.windows = clock.windows;
    let mut ctrl = last.expect("at least one round");

    let mut probes = Probes::default();
    if p.trace {
        probes = probes::run(
            p,
            &mut ctrl,
            &page_slices(&st.pool, &st.batches[0]),
            &shadow.present(4096),
        );
        let (frac, identical) = telemetry_cost(p, &st);
        probes.telemetry_on_cost_frac = frac;
        phase.attempted += 1;
        phase.failed += !identical as u64;
    }
    let geo = *ctrl.unit(0).device().geometry();
    let (_, fin) = finish(
        ctrl,
        &st.cfg,
        &mut shadow,
        &|off, len| st.pool.slice(off as u32, len).to_vec(),
        |ctrl, shadow| {
            for b in st.batches.iter().take(8) {
                write_pages(ctrl, &st.pool, shadow, b);
            }
        },
    );
    RunData {
        setup_s,
        setup_reps,
        gen_host_s: st.gen_host_s,
        phase,
        fin,
        driver_rec: rec,
        probes,
        op_counts: format!(
            "rounds={rounds} batches_per_round={} lpids={lpids}",
            st.batches.len()
        ),
        ..RunData::new(geo)
    }
}
