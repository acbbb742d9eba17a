//! # eleos-bwtree — the Bw-tree key-value store of the paper's evaluation
//!
//! A Bw-tree-style KV store "modified to simply perform updates in place
//! without creating delta chains" (Section IX-A3), with a buffer cache
//! sized as a fraction of the dataset and a 1 MB write buffer, over a
//! pluggable [`store::PageStore`]:
//!
//! * [`store::EleosStore`] — the batched interface (VP or FP page mode);
//! * [`store::BlockStore`] — the conventional block interface plus a
//!   host-based log-structured store.
//!
//! This is the application layer driven by the YCSB experiments
//! (Fig. 10a–c).

#![forbid(unsafe_code)]

pub mod page;
pub mod store;
pub mod tree;

pub use page::LeafPage;
pub use store::{BlockStore, EleosStore, PageStore, StoreError};
pub use tree::{BwStats, BwTree, BwTreeConfig};
