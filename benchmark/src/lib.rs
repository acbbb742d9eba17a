//! The repo's benchmark: six workloads on two clocks (host wall time and
//! `SimClock` nanoseconds) with a per-layer table traced from outside the
//! program. See `README.md` in this directory and `BENCHMARK.json` at the
//! root of the repo.

pub mod json;
pub mod measure;
pub mod probes;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;
