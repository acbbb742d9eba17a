//! # eleos-repro — reproduction of the ELEOS SSD controller (ICDE 2021)
//!
//! Facade crate re-exporting the whole workspace:
//!
//! * [`flash`] — the emulated Open-Channel SSD (channels, EBLOCKs,
//!   erase-before-write, fault injection, virtual clock);
//! * [`eleos`] — the paper's contribution: an FTL with a batched write
//!   interface for variable-size pages, controller-side GC and recovery;
//! * [`oxblock`] — the conventional block-at-a-time FTL baseline;
//! * [`lss`] — the host-based log-structured store the Block baseline
//!   needs;
//! * [`bwtree`] — the Bw-tree-style KV store of the evaluation;
//! * [`workloads`] — YCSB and TPC-C-like trace generators.
//!
//! See `examples/quickstart.rs` for a five-minute tour, and the
//! `eleos-bench` crate for the binaries that regenerate every table and
//! figure of the paper.

#![forbid(unsafe_code)]

pub use eleos;
pub use eleos_bwtree as bwtree;
pub use eleos_flash as flash;
pub use eleos_lss as lss;
pub use eleos_workloads as workloads;
pub use oxblock;
