//! `eleos-server` — a wire-protocol storage server over the ELEOS
//! group-commit front-end (DESIGN.md §16, ROADMAP item 4).
//!
//! Hand-rolled on `std::net` (the workspace builds offline; no async
//! runtime is vendored), the server exposes the paper's session-based
//! redo protocol over TCP:
//!
//! - **Frames** — `[len][opcode][payload]`, strict decode, 4 MiB cap
//!   ([`proto`]).
//! - **Sessions** — one per connection, resumable: `Hello{sid}` re-ACKs
//!   the durable WSN high-water, and the client replays unACKed batches
//!   exactly-once ([`client`]).
//! - **Group commit** — every connection feeds one [`eleos::Frontend`]
//!   through a bounded ingress channel; a batch is ACKed only when its
//!   covering group is durable, and the channel bound plus TCP flow
//!   control is the backpressure story ([`engine`]).
//! - **Chaos** — killed connections, partial frames, and slow readers
//!   against a differential oracle ([`chaos`]); `eleos-bench chaos --net`
//!   drives the same harness.
//!
//! The server is generic over [`eleos::Controller`], so the same binary
//! logic fronts a single controller or the sharded array.

#![forbid(unsafe_code)]

pub mod chaos;
pub mod client;
pub mod engine;
pub mod proto;
pub mod server;

pub use chaos::{run_kill_sweep, run_net_chaos, NetChaosConfig, NetChaosReport};
pub use client::Client;
pub use engine::{Engine, EngineMsg, NetStats};
pub use proto::{Frame, FrameReader, FrameStep, MAX_FRAME, PROTO_VERSION, REACK_GROUP};
pub use server::ServerHandle;
