//! # eleos-flash — emulated Open-Channel SSD
//!
//! A NAND flash array emulator with a discrete-event virtual clock, used as
//! the hardware substrate for the ELEOS reproduction (the paper prototyped
//! on a CNEX Open-Channel SSD; see DESIGN.md §2 for the substitution
//! rationale).
//!
//! The emulator enforces the NAND semantics an FTL must respect:
//!
//! * **erase-before-write** — a WBLOCK cannot be reprogrammed without
//!   erasing its EBLOCK;
//! * **in-order programming** — WBLOCKs within an EBLOCK must be programmed
//!   sequentially;
//! * **program failures** — injectable; a failure poisons the rest of the
//!   EBLOCK until erase (driving the paper's Section VII migration path);
//! * **finite endurance** — optional erase-count limit.
//!
//! Latency is simulated: flash operations occupy per-channel timelines,
//! CPU work occupies a serial CPU timeline (see [`SimClock`]), and the
//! calibrated [`CostProfile`]s reproduce the paper's two hardware
//! configurations.

#![forbid(unsafe_code)]

pub mod addr;
pub mod clock;
pub mod cost;
pub mod device;
mod eblock;
pub mod error;
pub mod fault;
pub mod geometry;
pub mod stats;

pub use addr::{ByteExtent, EblockAddr, WblockAddr};
pub use clock::{IoTicket, Nanos, SimClock};
pub use cost::{packets_for, CostProfile, PACKET_PAYLOAD_BYTES};
pub use device::FlashDevice;
pub use error::{FlashError, Result};
pub use fault::FaultInjector;
pub use geometry::{Geometry, TAG_BYTES_PER_RBLOCK};
pub use stats::FlashStats;
// Telemetry primitives travel with the device that records into them
// (DESIGN.md §10); re-exported so downstream crates need no direct dep.
pub use eleos_telemetry::{
    counters, Activity, AttributionLedger, Event, EventRing, FlashOp, LatencyHistogram, SpanKind,
    Telemetry,
};
