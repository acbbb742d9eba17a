//! The six workloads. Each has a `setup` (untimed here, reported as
//! `setup_s`) and a `run` that measures the timed phase, checks outputs and
//! hands back a [`RunData`]; `report` turns that into metrics.

use std::time::Instant;

use eleos_flash::Geometry;
use eleos_server::{Frame, NetStats};

use crate::measure::{Counters, Finish, Params, Phase};
use crate::probes::Probes;
use crate::stats::median;
use crate::trace::Recorder;

pub mod gc_churn;
pub mod group_sharded;
pub mod net;
pub mod read_paged;
pub mod tpcc_direct;

/// What the group-commit front-end did over the timed phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct FrontendCounts {
    pub groups: u64,
    pub batches: u64,
    pub queue_delay_p99_sim_ns: u64,
}

/// Everything one workload run measured.
pub struct RunData {
    pub setup_s: f64,
    pub setup_reps: usize,
    /// Host seconds of the last set-up spent generating inputs.
    pub gen_host_s: f64,
    pub phase: Phase,
    /// Counters over the set-up's own writes: the amplification base of a
    /// workload whose timed phase writes nothing.
    pub preload: Counters,
    pub fin: Finish,
    /// Geometry of one unit, and how many units the controller has.
    pub geo: Geometry,
    pub units: usize,
    /// Threads that drive the workload side by side (connections; 1
    /// in-process).
    pub drivers: usize,
    /// Spans of the thread(s) that drive the workload; in-process they
    /// include the controller spans.
    pub driver_rec: Recorder,
    /// Controller spans of the server's engine thread (socket workloads).
    pub engine_rec: Option<Recorder>,
    pub frontend: FrontendCounts,
    pub net: Option<NetStats>,
    /// Frames of the first requests, both directions, for the codec replay.
    pub frames: Vec<Frame>,
    pub probes: Probes,
    /// Fixed op counts of this run, for the result's descriptor.
    pub op_counts: String,
}

impl RunData {
    /// A run of an in-process workload on one unit of geometry `geo`, with
    /// nothing measured yet.
    pub fn new(geo: Geometry) -> Self {
        RunData {
            setup_s: 0.0,
            setup_reps: 0,
            gen_host_s: 0.0,
            phase: Phase::default(),
            preload: Counters::default(),
            fin: Finish::default(),
            geo,
            units: 1,
            drivers: 1,
            driver_rec: Recorder::default(),
            engine_rec: None,
            frontend: FrontendCounts::default(),
            net: None,
            frames: Vec::new(),
            probes: Probes::default(),
            op_counts: String::new(),
        }
    }
}

/// Runs `setup` several times, dropping each state before the next, and
/// keeps the last; `setup_s` is the median. Five times, or three once they
/// have taken a second together; a set-up that takes seconds runs as often
/// as fits in four.
pub fn repeat_setup<S>(setup: impl Fn() -> S) -> (S, f64, usize) {
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let state = setup();
        times.push(t.elapsed().as_secs_f64());
        let total: f64 = times.iter().sum();
        if times.len() == 5 || (times.len() >= 3 && total >= 1.0) || total >= 4.0 {
            return (state, median(&times), times.len());
        }
        drop(state);
    }
}

pub const NAMES: [&str; 6] = [
    "tpcc_direct",
    "gc_churn",
    "read_paged",
    "group_sharded",
    "net_write",
    "net_mixed",
];

pub fn run(name: &str, p: &Params) -> Option<RunData> {
    Some(match name {
        "tpcc_direct" => tpcc_direct::run(p),
        "gc_churn" => gc_churn::run(p),
        "read_paged" => read_paged::run(p),
        "group_sharded" => group_sharded::run(p),
        "net_write" => net::run(p, net::Mix::Write),
        "net_mixed" => net::run(p, net::Mix::Mixed),
        _ => return None,
    })
}
