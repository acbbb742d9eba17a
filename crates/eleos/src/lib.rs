//! # ELEOS — an SSD controller FTL with batched writes of variable-size pages
//!
//! Reproduction of *"Programming an SSD Controller to Support Batched
//! Writes for Variable-Size Pages"* (Do, Luo, Lomet — ICDE 2021), on top of
//! the [`eleos_flash`] Open-Channel SSD emulator.
//!
//! ELEOS replaces the conventional block-at-a-time SSD interface with a
//! **batched write interface** — one I/O writes many logical pages
//! (LPAGEs) — and supports **variable-size** LPAGEs (64-byte aligned), so
//! compressed/encrypted/B-tree pages store without internal fragmentation.
//! Log structuring, garbage collection and recovery live entirely inside
//! the controller; the host needs none of them.
//!
//! ## Quick start
//!
//! ```
//! use eleos::{Eleos, EleosConfig, PageMode, WriteBatch, WriteOpts};
//! use eleos_flash::{CostProfile, FlashDevice, Geometry};
//!
//! let dev = FlashDevice::new(Geometry::tiny(), CostProfile::unit());
//! let mut ssd = Eleos::format(dev, EleosConfig::test_small()).unwrap();
//!
//! // Batch several variable-size pages into one I/O.
//! let mut batch = WriteBatch::new(PageMode::Variable);
//! batch.put(1, b"hello").unwrap();
//! batch.put(2, &vec![7u8; 1000]).unwrap();
//! let ack = ssd.write(&batch, WriteOpts::default()).unwrap();
//! assert_eq!(ack.lpages, 2);
//!
//! // Read back by LPID.
//! assert_eq!(ssd.read(1).unwrap(), b"hello");
//!
//! // Ordered sessions: writes carry consecutive WSNs.
//! let sid = ssd.open_session().unwrap();
//! let mut b2 = WriteBatch::new(PageMode::Variable);
//! b2.put(1, b"newer").unwrap();
//! ssd.write(&b2, WriteOpts::ordered(sid, 1)).unwrap();
//! assert_eq!(ssd.read(1).unwrap(), b"newer");
//!
//! // One snapshot exposes counters, latency spans and the time-
//! // attribution ledger (DESIGN.md §10).
//! let snap = ssd.snapshot();
//! assert!(snap.conservation_error().is_none());
//!
//! // Crash and recover: committed state survives.
//! let dev = ssd.crash();
//! let mut ssd = Eleos::recover(dev, EleosConfig::test_small()).unwrap();
//! assert_eq!(ssd.read(1).unwrap(), b"newer");
//! ```
//!
//! ## Module map (paper section → module)
//!
//! | Paper | Module |
//! |---|---|
//! | III-A interface & sessions | [`batch`], [`session`], [`controller`] |
//! | III-B mapping table (3 levels) | [`mapping`] |
//! | III-B EBLOCK summary table | [`summary`] |
//! | IV write path & provisioning | [`controller`], [`provision`] |
//! | V read path | [`controller`] |
//! | VI garbage collection | [`gc`] |
//! | VII write failures | [`controller`] (migration) |
//! | VIII durability & recovery | [`wal`], [`ckpt`], [`recovery`] |

#![forbid(unsafe_code)]

pub mod api;
pub mod batch;
pub mod ckpt;
mod ckpt_ops;
pub mod codec;
pub mod config;
pub mod controller;
pub mod error;
pub mod frontend;
pub mod gc;
pub mod mapping;
pub mod phys;
pub mod provision;
pub mod recovery;
pub mod session;
pub mod sharded;
pub mod stats;
pub mod summary;
pub mod telemetry_snapshot;
pub mod types;
pub mod wal;

pub use api::Controller;
pub use batch::WriteBatch;
pub use config::{EleosConfig, GcConfig, GcPolicy, MapCachePolicy, PageMode};
pub use controller::{BatchAck, Eleos, WriteOpts};
pub use error::{EleosError, Result};
pub use frontend::{Frontend, GroupAck, GroupCommitPolicy};
pub use mapping::MapCacheStats;
pub use phys::{PhysAddr, NULL_PADDR};
pub use gc::SpaceReport;
pub use sharded::{shard_of_lpid, ShardedEleos, ShardedFrontend};
pub use stats::EleosStats;
pub use telemetry_snapshot::{MergedSnapshot, TelemetrySnapshot};
pub use types::{Lpid, Lsn, Sid, Usn, Wsn, LPAGE_ALIGN};
