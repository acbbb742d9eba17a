//! # eleos-bench — experiment harness
//!
//! Drivers that regenerate every table and figure of the paper's
//! evaluation (Section IX), plus shared reporting helpers. Each figure has
//! a binary (`fig1`, `fig9`, `table2`, `fig10a`, `fig10b`, `fig10c`,
//! `ablation`, `repro_all`). Host wall-clock speed is measured by the
//! separate `benchmark/` package, which does not link this crate.
//!
//! Scale note: the paper's testbed replayed 100 GB traces against a
//! physical SSD; the emulator holds device contents in RAM, so every
//! experiment runs a scaled volume (printed in its header). Throughputs
//! are virtual-time measurements (see `eleos_flash::SimClock`): the
//! reproduction target is the *shape* — who wins, by what factor, where
//! the crossovers sit.

#![forbid(unsafe_code)]

pub mod ablation;
pub mod chaos;
pub mod experiments;
pub mod frontend_scale;
pub mod gc_lab;
pub mod harness;
pub mod model;
pub mod report;
pub mod shard_scale;
pub mod tpcc_driver;
pub mod ycsb_driver;

pub use report::Table;
pub use tpcc_driver::{run_tpcc, Interface, TpccResult};
pub use ycsb_driver::{run_ycsb, GcMode, YcsbResult, YcsbSetup};
