//! # oxblock — conventional block-at-a-time FTL baseline
//!
//! An analogue of OX-Block, the "full-fledged, generic FTL" the paper's
//! evaluation uses as the **Block** comparator (Section IX-A2): a standard
//! 4 KB-page-mapped, log-structured FTL behind a block read/write
//! interface, with greedy GC and no batching semantics.
//!
//! The decisive behavioural differences from ELEOS (Section IX-C1):
//!
//! * a host write is split by the NVMe-oF/TCP transport into packets, and
//!   OX-Block creates **one write context per packet** — each context pays
//!   context-creation cost and forces its own commit log record (≈17
//!   contexts and commit forces per 1 MB, versus ELEOS's one);
//! * the maximum internal write is bounded by the packet size, so a single
//!   context cannot stripe across every flash channel at once.
//!
//! Durability of the *content* is the host's problem in the Block
//! configuration (the host LSS journals its own mapping); this baseline
//! faithfully pays the I/O and CPU costs of per-context commit records but
//! does not implement crash recovery of its page map.

#![forbid(unsafe_code)]

pub mod ftl;
pub mod map;

pub use ftl::{OxBlock, OxConfig, OxStats};
pub use map::PageMap;
