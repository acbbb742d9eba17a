//! Offline stand-in for the `bytes` crate (1.x API subset).
//!
//! The sandbox has no reachable crates.io mirror, so the workspace vendors
//! the subset of `bytes` it uses as an in-tree path dependency with the same
//! package name. `Bytes` is a refcounted immutable byte slice backed by
//! `Arc<Vec<u8>>`: cloning and `slice()` are O(1) refcount bumps, which is
//! what the zero-copy data plane relies on. There is no `BytesMut`: the one
//! mutable byte buffer, `eleos::WriteBatch`, keeps its own `Arc<Vec<u8>>`.
//!
//! Two deliberate extensions over upstream:
//! - `From<Arc<Vec<u8>>>` views a shared vector without copying it. The
//!   controller uses it to adopt a write batch's buffer. The view pins the
//!   vector: its owner can only change it through `Arc::make_mut`, which
//!   copies while a view is alive, so a `Bytes` never changes.
//! - [`Bytes::try_extend`] widens a slice over the next one when both are
//!   adjacent views of the same backing allocation. The flash provisioning
//!   path uses it to recognise that consecutive batch entries are one
//!   contiguous region of the original write-batch buffer.

#![forbid(unsafe_code)]

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// A cheaply cloneable, immutable slice of contiguous memory.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty `Bytes`.
    pub fn new() -> Self {
        Bytes::from(Vec::new())
    }

    /// Copy `data` into a fresh allocation.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A sub-slice sharing the same backing allocation (O(1), no copy).
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice out of bounds");
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// Widen this view over `next` in place if `next` is the adjacent view
    /// of the same allocation. Returns whether it did; views backed by
    /// different allocations or not contiguous are left as they were.
    /// (Extension over upstream `bytes`; used by the zero-copy
    /// provisioning path.)
    pub fn try_extend(&mut self, next: &Bytes) -> bool {
        let adjacent = Arc::ptr_eq(&self.data, &next.data) && self.end == next.start;
        if adjacent {
            self.end = next.end;
        }
        adjacent
    }

    /// Copy this view out into an owned `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes::from(Arc::new(v))
    }
}

/// A view of the whole shared vector (no copy).
impl From<Arc<Vec<u8>>> for Bytes {
    fn from(data: Arc<Vec<u8>>) -> Self {
        let end = data.len();
        Bytes {
            data,
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Self {
        Bytes::from(s.to_vec())
    }
}

impl From<&Vec<u8>> for Bytes {
    fn from(v: &Vec<u8>) -> Self {
        Bytes::from(v.clone())
    }
}

impl<const N: usize> From<&[u8; N]> for Bytes {
    fn from(s: &[u8; N]) -> Self {
        Bytes::from(s.to_vec())
    }
}

impl From<Box<[u8]>> for Bytes {
    fn from(b: Box<[u8]>) -> Self {
        Bytes::from(b.into_vec())
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter().take(32) {
            if (0x20..0x7f).contains(&b) {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        if self.len() > 32 {
            write!(f, "… ({} bytes)", self.len())?;
        }
        write!(f, "\"")
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_ref() == other.as_ref()
    }
}

impl Eq for Bytes {}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_ref().hash(state);
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_ref() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_ref() == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_ref() == other.as_slice()
    }
}

impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_ref()
    }
}

impl PartialEq<Bytes> for [u8] {
    fn eq(&self, other: &Bytes) -> bool {
        self == other.as_ref()
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_ref() == other
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Bytes {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_ref() == *other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_shares_allocation() {
        let b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(s, [2, 3, 4]);
        assert_eq!(s.len(), 3);
        let s2 = s.slice(..2);
        assert_eq!(s2, [2, 3]);
    }

    #[test]
    fn try_extend_widens_in_place() {
        let b = Bytes::from(vec![0, 1, 2, 3, 4, 5, 6, 7]);
        let mut v = b.slice(1..3);
        assert!(v.try_extend(&b.slice(3..5)));
        assert!(v.try_extend(&b.slice(5..6)));
        assert_eq!(v, [1, 2, 3, 4, 5]);
        // A gap or another allocation leaves the view as it was.
        assert!(!v.try_extend(&b.slice(7..8)));
        assert!(!v.try_extend(&Bytes::from(vec![6])));
        assert_eq!(v, [1, 2, 3, 4, 5]);
    }

    #[test]
    fn shared_vec_is_viewed_not_copied() {
        let v = Arc::new(vec![1u8, 2, 3]);
        let b = Bytes::from(Arc::clone(&v));
        assert_eq!(b, [1u8, 2, 3]);
        assert_eq!(b.as_ptr(), v.as_ptr());
        assert_eq!(Arc::strong_count(&v), 2);
    }

    #[test]
    fn equality_across_types() {
        let b = Bytes::from(vec![1u8, 2, 3]);
        assert_eq!(b, vec![1u8, 2, 3]);
        assert_eq!(b, [1u8, 2, 3]);
        assert_eq!(b, &[1u8, 2, 3][..]);
        assert_eq!(vec![1u8, 2, 3], b);
    }

    #[test]
    fn empty_bytes() {
        let b = Bytes::new();
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
        assert_eq!(b.slice(0..0), Bytes::default());
    }
}
