//! `group_sharded`: 64 simulated clients through the group-commit
//! `Frontend` into a 4-shard `ShardedEleos`, so coalescing and cross-shard
//! two-phase commit do the work, deterministically and without sockets.

use std::collections::VecDeque;
use std::time::Instant;

use eleos::frontend::{Frontend, GroupAck, GroupCommitPolicy};
use eleos::{Controller, EleosConfig, PageMode, ShardedEleos, WriteBatch};
use eleos_workloads::multi_client::{generate, page_payload, ClientBatch, MultiClientConfig};

use super::{repeat_setup, FrontendCounts, RunData};
use crate::measure::{devices, finish, Counters, Params, Phase, Shadow, WindowClock, WINDOWS};
use crate::probes::{self, Probes};
use crate::stats::Samples;
use crate::trace::{now_ns, Name, TracedController};

const CLIENTS: usize = 64;
const LPIDS_PER_CLIENT: u64 = 128;
const SHARDS: u32 = 4;
/// Timed client batches per second of `--seconds`, per client.
const BATCHES_PER_CLIENT_PER_SECOND: u64 = 3_100;

type Ctrl = TracedController<ShardedEleos>;

/// One segment of the schedule: `generate` restarts every client at time 0
/// and sequence 0, so a segment is shifted to start where the last ended.
fn segment(p: &Params, index: u64, batches_per_client: usize, at_base: u64) -> Vec<ClientBatch> {
    let mut seg = generate(&MultiClientConfig {
        clients: CLIENTS,
        batches_per_client,
        pages_per_batch: (1, 4),
        payload_bytes: (200, 800),
        mean_gap_ns: 4_000,
        rate_skew: 0.4,
        lpids_per_client: LPIDS_PER_CLIENT,
        seed: p.seed.wrapping_mul(1_000_003).wrapping_add(index),
    });
    for cb in &mut seg {
        cb.at += at_base;
    }
    seg
}

fn config() -> EleosConfig {
    EleosConfig {
        max_user_lpid: CLIENTS as u64 * LPIDS_PER_CLIENT + 1,
        ckpt_log_bytes: 16 << 20,
        mapping_cache_pages: 1 << 12,
        ..Default::default()
    }
}

/// The shadow token of a page: `page_payload` regenerates the content from
/// the client, the batch's sequence number and the page's index.
fn token(cb: &ClientBatch, page: usize) -> u64 {
    (cb.client as u64) << 48 | cb.seq << 8 | page as u64
}

fn expected(token: u64, len: u32) -> Vec<u8> {
    let (client, seq, page) = (token >> 48, token >> 8 & ((1 << 40) - 1), token & 0xFF);
    page_payload(client as usize, seq, page as usize, len as usize)
}

struct Driver {
    fe: Frontend,
    /// Host submit time of every batch not yet ACKed, oldest first (groups
    /// ACK in submission order).
    in_flight: VecDeque<u64>,
    at_base: u64,
}

impl Driver {
    fn acked(&mut self, acks: &[GroupAck], phase: &mut Phase) {
        let now = now_ns();
        for (a, sent) in acks.iter().zip(self.in_flight.drain(..acks.len())) {
            phase.req_host_ns.push(now - sent);
            phase.req_sim_ns.push(a.durable_at - a.enqueued_at);
            phase.lpages += a.lpages as u64;
        }
    }

    /// Submit every batch of `seg`, then flush what is left queued.
    fn submit_all(
        &mut self,
        ctrl: &mut Ctrl,
        shadow: &mut Shadow,
        seg: &[ClientBatch],
        phase: &mut Phase,
    ) {
        for cb in seg {
            ctrl.rec.req = phase.attempted;
            let request = ctrl.rec.enter();
            let batch = ctrl.rec.span(Name::BatchPut, || {
                let mut b = WriteBatch::new(PageMode::Variable);
                for (lpid, payload) in &cb.pages {
                    b.put(*lpid, payload).expect("put");
                }
                b
            });
            let submit = ctrl.rec.enter();
            self.in_flight.push_back(now_ns());
            let res = self.fe.submit(ctrl, cb.client, cb.at, batch);
            let flushed = matches!(&res, Ok(acks) if !acks.is_empty());
            ctrl.rec.exit(
                submit,
                if flushed {
                    Name::FrontendSubmitFlush
                } else {
                    Name::FrontendSubmit
                },
            );
            phase.attempted += 1;
            match res {
                Ok(acks) => self.acked(&acks, phase),
                Err(_) => {
                    self.in_flight.pop_back();
                    phase.failed += 1;
                }
            }
            ctrl.rec.span(Name::Oracle, || {
                for (i, (lpid, payload)) in cb.pages.iter().enumerate() {
                    shadow.set(*lpid, token(cb, i), payload.len() as u32);
                }
            });
            ctrl.rec.exit(request, Name::Request);
        }
        let flush = ctrl.rec.enter();
        let acks = self.fe.flush(ctrl).expect("flush");
        ctrl.rec.exit(flush, Name::FrontendFlush);
        self.acked(&acks, phase);
        self.at_base = seg.last().map_or(self.at_base, |cb| cb.at);
    }
}

struct State {
    ctrl: Ctrl,
    first: Vec<ClientBatch>,
    gen_host_s: f64,
    per_segment: usize,
}

fn setup(p: &Params) -> State {
    let per_segment = (p.count(BATCHES_PER_CLIENT_PER_SECOND, 128) as usize).div_ceil(WINDOWS);
    let t = Instant::now();
    let first = segment(p, 0, per_segment, 0);
    let gen_host_s = t.elapsed().as_secs_f64();
    let ctrl = Ctrl::format(devices(p, SHARDS), &config()).expect("format");
    State {
        ctrl,
        first,
        gen_host_s,
        per_segment,
    }
}

pub fn run(p: &Params) -> RunData {
    let (st, setup_s, setup_reps) = repeat_setup(|| setup(p));
    let State {
        mut ctrl,
        first,
        mut gen_host_s,
        per_segment,
    } = st;
    let mut d = Driver {
        fe: Frontend::new(CLIENTS, GroupCommitPolicy::default()),
        in_flight: VecDeque::new(),
        at_base: 0,
    };
    let mut shadow = Shadow::new(config().max_user_lpid - 1);
    let mut phase = Phase::default();
    let mut clock = WindowClock::new(p.trace, ctrl.rec.switch(), 0);
    let before = Counters::of(&ctrl.snapshot());
    let sim0 = ctrl.host_now();
    let mut seg = first;
    for w in 0..WINDOWS {
        if w > 0 {
            // Generated between windows, untimed, so memory stays bounded.
            let t = Instant::now();
            seg = segment(p, w as u64, per_segment, d.at_base);
            gen_host_s += t.elapsed().as_secs_f64();
        }
        clock.open(phase.lpages);
        d.submit_all(&mut ctrl, &mut shadow, &seg, &mut phase);
        clock.close(phase.lpages);
    }
    ctrl.drain();
    phase.sim_ns = ctrl.host_now() - sim0;
    phase.delta = Counters::of(&ctrl.snapshot()).minus(&before);
    phase.windows = clock.windows;
    let frontend = FrontendCounts {
        groups: d.fe.groups_flushed(),
        batches: phase.attempted - phase.failed,
        queue_delay_p99_sim_ns: Samples::new(phase.req_sim_ns.clone()).quantile(0.99),
    };

    let probes = if p.trace {
        let pages: Vec<(u64, &[u8])> = seg
            .iter()
            .flat_map(|cb| &cb.pages)
            .map(|(l, b)| (*l, &b[..]))
            .collect();
        probes::run(p, &mut ctrl, &pages, &shadow.present(4096))
    } else {
        Probes::default()
    };
    let driver_rec = std::mem::take(&mut ctrl.rec);
    let geo = *ctrl.unit(0).device().geometry();
    let tail = segment(p, WINDOWS as u64, 8, d.at_base);
    let (_, fin) = finish(ctrl, &config(), &mut shadow, &expected, |ctrl, shadow| {
        d.submit_all(ctrl, shadow, &tail, &mut Phase::default());
    });
    RunData {
        setup_s,
        setup_reps,
        gen_host_s,
        phase,
        fin,
        units: SHARDS as usize,
        driver_rec,
        frontend,
        probes,
        op_counts: format!(
            "clients={CLIENTS} shards={SHARDS} batches={}",
            per_segment * CLIENTS * WINDOWS
        ),
        ..RunData::new(geo)
    }
}
