//! # eleos-lss — host-based log-structured store over a conventional FTL
//!
//! The **Block** baseline of the paper's evaluation: when the SSD exposes
//! only a block-at-a-time interface, a data system that wants batched
//! writes must build its own log-structured store on the host
//! (LLAMA-style). That brings back exactly the overheads ELEOS eliminates
//! (Sections I-A, IX-C2):
//!
//! * the host must keep its own **mapping table** durable — modelled here
//!   by periodic mapping checkpoints appended to the log (consuming write
//!   bandwidth);
//! * the host must run its own **garbage collection**, and because it
//!   "lacks such information" about which flash-resident data is garbage,
//!   it must *read whole log segments and parse them* to find still-current
//!   pages — significant read amplification.
//!
//! Pages are fixed 4 KB slots (the block interface's granularity): a
//! 16-byte header (`magic, payload_len, page_id`) plus up to 4080 payload
//! bytes.

#![forbid(unsafe_code)]

pub mod store;

pub use store::{LogStore, LssConfig, LssError, LssStats, MAX_PAYLOAD};
