//! Offline stand-in for the `bytes` crate (1.x API subset).
//!
//! The sandbox has no reachable crates.io mirror, so the workspace vendors
//! the subset of `bytes` it uses as an in-tree path dependency with the same
//! package name. `Bytes` is a refcounted immutable byte slice backed by
//! `Arc<Vec<u8>>`: cloning and `slice()` are O(1) refcount bumps, which is
//! what the zero-copy data plane relies on. `BytesMut` is an append-only
//! builder whose `freeze()` hands the accumulated buffer to a `Bytes`
//! without copying.
//!
//! One deliberate extension over upstream: [`Bytes::try_extend`] widens a
//! slice over the next one when both are adjacent views of the same backing
//! allocation. The flash provisioning path uses it to recognise that
//! consecutive batch entries are one contiguous region of the original
//! write-batch buffer.

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
        let end = v.len();
        Bytes {
            data: Arc::new(v),
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

/// Sink for serializing integers and slices (subset of `bytes::BufMut`).
pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append `count` copies of `val`.
    fn put_bytes(&mut self, val: u8, count: usize);
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }

    fn put_bytes(&mut self, val: u8, count: usize) {
        self.resize(self.len() + count, val);
    }
}

/// Append-only byte builder (subset of `bytes::BytesMut`).
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    pub fn new() -> Self {
        BytesMut { buf: Vec::new() }
    }

    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            buf: Vec::with_capacity(cap),
        }
    }

    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn clear(&mut self) {
        self.buf.clear();
    }

    pub fn extend_from_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }

    pub fn resize(&mut self, new_len: usize, value: u8) {
        self.buf.resize(new_len, value);
    }

    pub fn truncate(&mut self, len: usize) {
        self.buf.truncate(len);
    }

    /// Hand the accumulated buffer to an immutable `Bytes` without copying.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }

    fn put_bytes(&mut self, val: u8, count: usize) {
        self.buf.resize(self.buf.len() + count, val);
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl std::ops::DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl From<BytesMut> for Bytes {
    fn from(b: BytesMut) -> Self {
        b.freeze()
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BytesMut({} bytes)", self.buf.len())
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
    fn freeze_roundtrip() {
        let mut m = BytesMut::with_capacity(16);
        m.put_u16_le(0xE1E0);
        m.put_u8(7);
        m.put_slice(b"abc");
        m.put_bytes(0, 2);
        let b = m.freeze();
        assert_eq!(b, [0xE0, 0xE1, 7, b'a', b'b', b'c', 0, 0]);
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
