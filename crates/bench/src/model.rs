//! The host-visible write contract of one client, as an executable model.
//!
//! The paper's interface is all-or-nothing per batch: an aborted action
//! leaves nothing behind and the host retries the buffer (Section VII),
//! and recovery redoes exactly the committed actions (Section VIII). A
//! [`Model`] holds what one client may rely on:
//!
//! * the pages and deletes the store acknowledged ([`Model::apply`],
//!   [`Model::ack`]) — durable across every later crash;
//! * the operations it submitted but has no verdict for, in submission
//!   order ([`Model::stage`]) — a crash may have committed any prefix of
//!   them, and nothing else.
//!
//! After a crash, [`Model::resolve`] settles the unacknowledged operations
//! against what the device reads back, and [`Model::audit`] checks every
//! acknowledged page and delete. Both take the device as a `read` closure
//! (content, `Ok(None)` for not-found, or an error), so a test can fake
//! the device with a map and a remote client can read over the wire;
//! [`read_lpid`] is that closure for a [`Controller`].

use eleos::{Controller, EleosError};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// One mutating client operation: a write batch (an LPID written twice
/// keeps the later copy) or a delete batch.
#[derive(Debug, Clone)]
pub enum Op {
    Write(Vec<(u64, Vec<u8>)>),
    Delete(Vec<u64>),
}

impl Op {
    fn lpids(&self) -> Vec<u64> {
        match self {
            Op::Write(pages) => pages.iter().map(|(l, _)| *l).collect(),
            Op::Delete(lpids) => lpids.clone(),
        }
    }

    /// What this operation leaves `lpid` as: `Some(Some(content))`,
    /// `Some(None)` for deleted, `None` if it does not touch `lpid`.
    fn effect(&self, lpid: u64) -> Option<Option<&[u8]>> {
        match self {
            Op::Write(pages) => pages
                .iter()
                .rfind(|(l, _)| *l == lpid)
                .map(|(_, d)| Some(d.as_slice())),
            Op::Delete(lpids) => lpids.contains(&lpid).then_some(None),
        }
    }
}

/// One LPID as a [`Model`] reads it from a controller: its content,
/// `None` when it is not found, or the error.
pub fn read_lpid<C: Controller>(c: &mut C, lpid: u64) -> Result<Option<impl AsRef<[u8]>>, String> {
    match c.read(lpid) {
        Ok(data) => Ok(Some(data)),
        Err(EleosError::NotFound(_)) => Ok(None),
        Err(e) => Err(e.to_string()),
    }
}

/// A read-back that contradicts the model: the LPID and what was wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    pub lpid: u64,
    pub what: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: lpid {}", self.what, self.lpid)
    }
}

/// One client's acknowledged state plus its unacknowledged operations.
#[derive(Debug, Clone, Default)]
pub struct Model {
    pages: BTreeMap<u64, Vec<u8>>,
    deleted: BTreeSet<u64>,
    pending: VecDeque<Op>,
    writes: u64,
    deletes: u64,
}

impl Model {
    /// An operation the store acknowledged as soon as it returned.
    pub fn apply(&mut self, op: Op) {
        match op {
            Op::Write(pages) => {
                self.writes += 1;
                for (l, d) in pages {
                    self.deleted.remove(&l);
                    self.pages.insert(l, d);
                }
            }
            Op::Delete(lpids) => {
                self.deletes += 1;
                for l in lpids {
                    self.pages.remove(&l);
                    self.deleted.insert(l);
                }
            }
        }
    }

    /// An operation submitted without a verdict yet.
    pub fn stage(&mut self, op: Op) {
        self.pending.push_back(op);
    }

    /// The oldest staged operation was acknowledged. False if none was
    /// staged.
    pub fn ack(&mut self) -> bool {
        match self.pending.pop_front() {
            Some(op) => {
                self.apply(op);
                true
            }
            None => false,
        }
    }

    /// Settle every staged operation after a crash: absorb the longest
    /// staged prefix whose LPIDs all read back as that prefix leaves them,
    /// and drop the rest. Prefixes are tried longest first; each reads the
    /// touched LPIDs in first-touch order and stops at the first mismatch.
    /// Returns the number absorbed, or the LPID at which even the empty
    /// prefix fails — a torn group.
    pub fn resolve<B: AsRef<[u8]>>(
        &mut self,
        mut read: impl FnMut(u64) -> Result<Option<B>, String>,
    ) -> Result<usize, Divergence> {
        let ops: Vec<Op> = self.pending.drain(..).collect();
        let mut touched: Vec<u64> = Vec::new();
        for l in ops.iter().flat_map(Op::lpids) {
            if !touched.contains(&l) {
                touched.push(l);
            }
        }
        let mut p = ops.len();
        while let Some(lpid) = self.first_mismatch(&ops[..p], &touched, &mut read) {
            if p == 0 {
                let what = format!(
                    "torn group (no prefix of {} unacknowledged op(s) reads back)",
                    ops.len()
                );
                return Err(Divergence { lpid, what });
            }
            p -= 1;
        }
        ops.into_iter().take(p).for_each(|op| self.apply(op));
        Ok(p)
    }

    /// The first of `touched` that does not read back as the acknowledged
    /// state followed by `prefix` leaves it.
    fn first_mismatch<B: AsRef<[u8]>>(
        &self,
        prefix: &[Op],
        touched: &[u64],
        read: &mut impl FnMut(u64) -> Result<Option<B>, String>,
    ) -> Option<u64> {
        touched.iter().copied().find(|&l| {
            let want = prefix
                .iter()
                .rev()
                .find_map(|op| op.effect(l))
                .unwrap_or_else(|| self.pages.get(&l).map(Vec::as_slice));
            !match (read(l), want) {
                (Ok(Some(got)), Some(want)) => got.as_ref() == want,
                (Ok(None), None) => true,
                _ => false,
            }
        })
    }

    /// Check every acknowledged page and delete against the device.
    /// Returns the number of pages compared.
    pub fn audit<B: AsRef<[u8]>>(
        &self,
        mut read: impl FnMut(u64) -> Result<Option<B>, String>,
    ) -> Result<u64, Divergence> {
        for (&lpid, want) in &self.pages {
            let what = match read(lpid) {
                Ok(Some(got)) if got.as_ref() == want.as_slice() => continue,
                Ok(Some(got)) => format!(
                    "corruption (expected {} bytes, got {})",
                    want.len(),
                    got.as_ref().len()
                ),
                Ok(None) => "loss (not found)".to_string(),
                Err(e) => format!("loss ({e})"),
            };
            return Err(Divergence { lpid, what });
        }
        for &lpid in &self.deleted {
            let what = match read(lpid) {
                Ok(None) => continue,
                Ok(Some(_)) => "resurrection of a deleted page".to_string(),
                Err(e) => format!("error on a deleted page ({e})"),
            };
            return Err(Divergence { lpid, what });
        }
        Ok(self.pages.len() as u64)
    }

    /// Acknowledged live pages.
    pub fn pages(&self) -> &BTreeMap<u64, Vec<u8>> {
        &self.pages
    }

    /// Acknowledged deletes not since rewritten.
    pub fn deleted(&self) -> &BTreeSet<u64> {
        &self.deleted
    }

    /// Write batches acknowledged, including ones absorbed by `resolve`.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Delete batches acknowledged, including ones absorbed by `resolve`.
    pub fn deletes(&self) -> u64 {
        self.deletes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn page(fill: u8) -> Vec<u8> {
        vec![fill; 64]
    }

    /// A device faked as a map: absent means not found.
    fn reader(
        dev: &HashMap<u64, Vec<u8>>,
    ) -> impl FnMut(u64) -> Result<Option<Vec<u8>>, String> + '_ {
        |l| Ok(dev.get(&l).cloned())
    }

    #[test]
    fn resolve_absorbs_the_durable_prefix() {
        let mut m = Model::default();
        m.apply(Op::Write(vec![(1, page(1))]));
        m.stage(Op::Write(vec![(1, page(2)), (2, page(3))]));
        m.stage(Op::Delete(vec![1]));
        m.stage(Op::Write(vec![(2, page(4)), (3, page(5))]));
        // The crash committed the first write and the delete, not the last write.
        let dev = HashMap::from([(2, page(3))]);
        assert_eq!(m.resolve(reader(&dev)), Ok(2));
        assert_eq!((m.writes(), m.deletes()), (2, 1));
        assert_eq!(m.audit(reader(&dev)), Ok(1));
        assert!(m.deleted().contains(&1));
        // Nothing is left to resolve.
        assert_eq!(m.resolve(reader(&HashMap::new())), Ok(0));
    }

    #[test]
    fn resolve_reports_a_torn_group_on_a_never_acknowledged_lpid() {
        let mut m = Model::default();
        m.apply(Op::Write(vec![(1, page(1))]));
        m.stage(Op::Write(vec![(1, page(2)), (2, page(3))]));
        // Only the new LPID became durable: no prefix explains that. The
        // audit alone would pass, as it reads only acknowledged LPIDs.
        let dev = HashMap::from([(1, page(1)), (2, page(3))]);
        let d = m.clone().resolve(reader(&dev)).unwrap_err();
        assert_eq!(d.lpid, 2);
        assert!(d.what.starts_with("torn group"), "{d}");
        assert_eq!(m.audit(reader(&dev)), Ok(1));
    }

    #[test]
    fn an_lpid_written_twice_in_one_batch_keeps_the_later_copy() {
        let mut m = Model::default();
        m.stage(Op::Write(vec![(1, page(1)), (2, page(2)), (1, page(3))]));
        let dev = HashMap::from([(1, page(3)), (2, page(2))]);
        assert_eq!(m.resolve(reader(&dev)), Ok(1));
        assert_eq!(m.audit(reader(&dev)), Ok(2));
    }

    #[test]
    fn ack_applies_staged_ops_in_order_and_audit_names_the_loss() {
        let mut m = Model::default();
        m.stage(Op::Write(vec![(7, page(1))]));
        m.stage(Op::Write(vec![(7, page(2))]));
        assert!(m.ack() && m.ack() && !m.ack());
        assert_eq!(m.pages()[&7], page(2));
        let d = m.audit(reader(&HashMap::from([(7, page(1))]))).unwrap_err();
        assert_eq!(
            d.to_string(),
            "corruption (expected 64 bytes, got 64): lpid 7"
        );
        let d = m.audit(reader(&HashMap::new())).unwrap_err();
        assert_eq!(d.to_string(), "loss (not found): lpid 7");
    }
}
