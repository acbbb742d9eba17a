//! # eleos-workloads — benchmark workload generators
//!
//! Deterministic generators for the paper's two benchmark families
//! (Section IX-A3):
//!
//! * [`ycsb`] — the YCSB key-value workloads (write-heavy 5 %/95 % and the
//!   footnoted read-heavy variant), Zipfian key choice;
//! * [`tpcc`] — a fast synthetic stand-in for the AsterixDB TPC-C
//!   compressed-page I/O trace: variable page sizes averaging 1.91 KB (see
//!   DESIGN.md §2 for the substitution rationale);
//! * [`tpcc_engine`] — the *organic* alternative: a miniature TPC-C
//!   transaction engine over a paged store with real page compression
//!   ([`compress`]), whose flush stream is the trace;
//! * [`zipf`] — the shared Zipfian generator;
//! * [`multi_client`] — deterministic multi-client submission schedules
//!   with skewed per-client rates, feeding the host front-end
//!   (DESIGN.md §11).

#![forbid(unsafe_code)]

pub mod compress;
pub mod multi_client;
pub mod tpcc;
pub mod tpcc_engine;
pub mod trace_io;
pub mod ycsb;
pub mod zipf;

pub use multi_client::{ClientBatch, MultiClientConfig};
pub use tpcc::{PageWrite, TpccTrace, TpccTraceConfig};
pub use tpcc_engine::{TpccEngine, TpccEngineConfig};
pub use trace_io::{load_trace, read_trace, save_trace, write_trace};
pub use ycsb::{YcsbConfig, YcsbOp, YcsbWorkload};
pub use zipf::Zipfian;
