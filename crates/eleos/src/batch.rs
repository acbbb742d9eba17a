//! Write-buffer (batch) construction and parsing.
//!
//! The `flush_batch` API (Section IX-A2) transfers one opaque byte buffer;
//! "ELEOS identifies the pages by parsing the batch using metadata within
//! the batch". Each entry is a 16-byte header followed by the payload,
//! padded out to the stored LPAGE size:
//!
//! ```text
//! | magic u16 | kind u8 | pad u8 | payload_len u32 | lpid u64 | payload … pad |
//! ```
//!
//! In variable-page mode the entry occupies `align64(16 + payload_len)`
//! bytes; in fixed-page mode it always occupies the fixed page size — the
//! padding is transferred and stored, which is exactly the bandwidth waste
//! the paper's variable-size pages eliminate (Table II discussion).
//!
//! The bytes written to flash are identical to the wire bytes, so a stored
//! LPAGE is self-identifying (the read path re-verifies the header).
//!
//! They are also the same memory. The buffer is refcounted: the
//! controller's intake adopts it through [`WriteBatch::shared`] instead of
//! copying it, so every page view, WBLOCK program and stored WBLOCK slices
//! the host's own allocation (the transport is still charged in simulated
//! time). A `put` or `append_batch` on a batch whose bytes are still held
//! elsewhere copies them first, so a stored WBLOCK never changes.

use std::fmt;
use std::sync::Arc;

use crate::config::PageMode;
use crate::error::{EleosError, Result};
use crate::types::{Lpid, PageKind, MAP_PAGE_BASE};
use bytes::Bytes;

/// Magic tag opening every entry header.
pub const ENTRY_MAGIC: u16 = 0xE1E0;
/// Bytes of the per-entry header.
pub const ENTRY_HEADER: usize = 16;

/// Capacity below which a growing batch doubles; above it, it grows by
/// half. An adopted buffer stays alive, spare capacity included, as long as
/// a stored WBLOCK points into it, so a large batch keeps at most a third
/// of its allocation idle instead of half.
const DOUBLING_LIMIT: usize = 256 << 10;

/// Host-side builder for a write buffer.
#[derive(Clone)]
pub struct WriteBatch {
    mode: PageMode,
    buf: Arc<Vec<u8>>,
    entries: usize,
    payload_bytes: u64,
}

impl WriteBatch {
    pub fn new(mode: PageMode) -> Self {
        Self::with_capacity(mode, 0)
    }

    /// An empty batch whose buffer holds `bytes` wire bytes before it grows.
    pub fn with_capacity(mode: PageMode, bytes: usize) -> Self {
        WriteBatch {
            mode,
            buf: Arc::new(Vec::with_capacity(bytes)),
            entries: 0,
            payload_bytes: 0,
        }
    }

    /// Append one LPAGE. Later entries for the same LPID overwrite earlier
    /// ones (Section III-A1: pages are posted "in a serial order matching
    /// the order in which an application posted them").
    pub fn put(&mut self, lpid: Lpid, payload: &[u8]) -> Result<()> {
        if lpid >= MAP_PAGE_BASE {
            return Err(EleosError::ReservedLpid(lpid));
        }
        self.put_internal(lpid, PageKind::User, payload)
    }

    /// Internal variant used by the controller itself for table pages.
    pub(crate) fn put_internal(&mut self, lpid: Lpid, kind: PageKind, payload: &[u8]) -> Result<()> {
        let entry_len = ENTRY_HEADER + payload.len();
        let stored = self.stored_len_for(entry_len)?;
        let buf = self.writable(stored);
        let end = buf.len() + stored;
        buf.extend_from_slice(&encode_header(lpid, kind, payload.len()));
        buf.extend_from_slice(payload);
        buf.resize(end, 0);
        self.entries += 1;
        self.payload_bytes += payload.len() as u64;
        Ok(())
    }

    /// The buffer, unshared (copied first if a view of it is alive) and
    /// with room for `additional` more bytes: it doubles up to
    /// [`DOUBLING_LIMIT`] and grows by half above.
    fn writable(&mut self, additional: usize) -> &mut Vec<u8> {
        let buf = Arc::make_mut(&mut self.buf);
        let need = buf.len() + additional;
        let cap = buf.capacity();
        if need > cap {
            let grown = if cap * 2 <= DOUBLING_LIMIT { cap * 2 } else { cap + cap / 2 };
            buf.reserve_exact(grown.max(need) - buf.len());
        }
        buf
    }

    fn stored_len_for(&self, entry_len: usize) -> Result<usize> {
        match self.mode {
            PageMode::Variable => {
                let max = ((1usize << 20) - 1) * 64;
                if entry_len > max {
                    return Err(EleosError::PageTooLarge {
                        len: entry_len - ENTRY_HEADER,
                        max: max - ENTRY_HEADER,
                    });
                }
                Ok(crate::types::align_lpage(entry_len))
            }
            PageMode::Fixed(sz) => {
                if entry_len > sz as usize {
                    return Err(EleosError::PageTooLarge {
                        len: entry_len - ENTRY_HEADER,
                        max: sz as usize - ENTRY_HEADER,
                    });
                }
                Ok(sz as usize)
            }
        }
    }

    /// Append every entry of `other` (group-commit coalescing: the wire
    /// format is a plain concatenation of entries, so merging client
    /// batches is a byte append). Entry order — and therefore the
    /// duplicate-LPID later-wins rule — follows append order. Modes must
    /// match.
    pub fn append_batch(&mut self, other: &WriteBatch) -> Result<()> {
        if self.mode != other.mode {
            return Err(EleosError::Corrupt("coalesced batches must share a page mode"));
        }
        self.writable(other.buf.len()).extend_from_slice(&other.buf);
        self.entries += other.entries;
        self.payload_bytes += other.payload_bytes;
        Ok(())
    }

    /// Number of LPAGEs in the buffer.
    pub fn len(&self) -> usize {
        self.entries
    }

    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Bytes that will cross the transport (= bytes stored on flash before
    /// WBLOCK-level fragmentation).
    pub fn wire_len(&self) -> usize {
        self.buf.len()
    }

    /// Sum of raw payload bytes (pre-padding), for write-amplification
    /// accounting.
    pub fn payload_bytes(&self) -> u64 {
        self.payload_bytes
    }

    pub fn mode(&self) -> PageMode {
        self.mode
    }

    /// The wire bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// The wire bytes as a refcounted view of this batch's own buffer (no
    /// copy). Later `put`s and `append_batch`es copy the buffer first, so
    /// the view never changes.
    pub fn shared(&self) -> Bytes {
        Bytes::from(Arc::clone(&self.buf))
    }
}

impl fmt::Debug for WriteBatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WriteBatch")
            .field("mode", &self.mode)
            .field("entries", &self.entries)
            .field("payload_bytes", &self.payload_bytes)
            .field("wire_len", &self.buf.len())
            .finish()
    }
}

/// One parsed entry: borrowed view into the batch bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryView {
    pub lpid: Lpid,
    pub kind: PageKind,
    /// Offset of the entry (header) within the batch.
    pub start: usize,
    /// Stored length (header + payload + padding).
    pub stored_len: usize,
    /// Payload length (no header, no padding).
    pub payload_len: usize,
}

impl EntryView {
    /// Byte range of the whole stored entry within the batch.
    pub fn stored_range(&self) -> std::ops::Range<usize> {
        self.start..self.start + self.stored_len
    }
}

/// Controller-side parse of a batch (Section IX-A2). Fails on any malformed
/// entry: the atomicity guarantee means a bad buffer is rejected whole.
pub fn parse_batch(bytes: &[u8], mode: PageMode) -> Result<Vec<EntryView>> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        if bytes.len() - pos < ENTRY_HEADER {
            return Err(EleosError::Corrupt("truncated entry header in batch"));
        }
        let magic = u16::from_le_bytes([bytes[pos], bytes[pos + 1]]);
        if magic != ENTRY_MAGIC {
            return Err(EleosError::Corrupt("bad entry magic in batch"));
        }
        let kind = PageKind::from_u8(bytes[pos + 2])
            .ok_or(EleosError::Corrupt("bad entry kind in batch"))?;
        let payload_len =
            u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap()) as usize;
        let lpid = u64::from_le_bytes(bytes[pos + 8..pos + 16].try_into().unwrap());
        let entry_len = ENTRY_HEADER + payload_len;
        let stored_len = match mode {
            PageMode::Variable => crate::types::align_lpage(entry_len),
            PageMode::Fixed(sz) => sz as usize,
        };
        if pos + stored_len > bytes.len() || entry_len > stored_len {
            return Err(EleosError::Corrupt("entry overruns batch"));
        }
        out.push(EntryView {
            lpid,
            kind,
            start: pos,
            stored_len,
            payload_len,
        });
        pos += stored_len;
    }
    if out.is_empty() {
        return Err(EleosError::EmptyBatch);
    }
    Ok(out)
}

/// Build the 16-byte entry header in one shot (the encode hot loop appends
/// it as a single `extend_from_slice` instead of five small writes).
fn encode_header(lpid: Lpid, kind: PageKind, payload_len: usize) -> [u8; ENTRY_HEADER] {
    let mut hdr = [0u8; ENTRY_HEADER];
    hdr[0..2].copy_from_slice(&ENTRY_MAGIC.to_le_bytes());
    hdr[2] = kind as u8;
    hdr[4..8].copy_from_slice(&(payload_len as u32).to_le_bytes());
    hdr[8..16].copy_from_slice(&lpid.to_le_bytes());
    hdr
}

/// Build the stored bytes of a single entry (header + payload + padding)
/// outside a batch — used by the controller for its own table pages. The
/// buffer is allocated at its exact stored size up front, then frozen into
/// a refcounted `Bytes` without copying.
pub(crate) fn encode_entry(lpid: Lpid, kind: PageKind, payload: &[u8], mode: PageMode) -> Bytes {
    let entry_len = ENTRY_HEADER + payload.len();
    let stored = match mode {
        PageMode::Variable => crate::types::align_lpage(entry_len),
        PageMode::Fixed(sz) => {
            assert!(
                entry_len <= sz as usize,
                "internal table page of {entry_len} bytes exceeds fixed page size {sz}"
            );
            sz as usize
        }
    };
    let mut out = Vec::with_capacity(stored);
    out.extend_from_slice(&encode_header(lpid, kind, payload.len()));
    out.extend_from_slice(payload);
    out.resize(stored, 0);
    Bytes::from(out)
}

/// Decode the header of a stored LPAGE read back from flash.
pub fn decode_stored_header(bytes: &[u8]) -> Result<(Lpid, PageKind, usize)> {
    if bytes.len() < ENTRY_HEADER {
        return Err(EleosError::Corrupt("stored lpage shorter than header"));
    }
    let magic = u16::from_le_bytes([bytes[0], bytes[1]]);
    if magic != ENTRY_MAGIC {
        return Err(EleosError::Corrupt("stored lpage has bad magic"));
    }
    let kind =
        PageKind::from_u8(bytes[2]).ok_or(EleosError::Corrupt("stored lpage has bad kind"))?;
    let payload_len = u32::from_le_bytes(bytes[4..8].try_into().unwrap()) as usize;
    let lpid = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    if ENTRY_HEADER + payload_len > bytes.len() {
        return Err(EleosError::Corrupt("stored lpage payload overruns extent"));
    }
    Ok((lpid, kind, payload_len))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_parse_variable() {
        let mut b = WriteBatch::new(PageMode::Variable);
        b.put(1, &[0xAA; 100]).unwrap();
        b.put(2, &[0xBB; 48]).unwrap(); // header+48 = 64 exactly
        b.put(1, &[0xCC; 1]).unwrap(); // duplicate lpid allowed
        assert_eq!(b.len(), 3);
        assert_eq!(b.wire_len(), 128 + 64 + 64);
        let entries = parse_batch(b.as_bytes(), PageMode::Variable).unwrap();
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].lpid, 1);
        assert_eq!(entries[0].stored_len, 128);
        assert_eq!(entries[1].stored_len, 64);
        assert_eq!(entries[2].lpid, 1);
        // Payload recoverable through the stored range.
        let e = &entries[0];
        let payload = &b.as_bytes()[e.start + ENTRY_HEADER..e.start + ENTRY_HEADER + e.payload_len];
        assert_eq!(payload, &[0xAA; 100]);
    }

    #[test]
    fn fixed_mode_pads_to_page_size() {
        let mut b = WriteBatch::new(PageMode::Fixed(4096));
        b.put(7, &[1; 100]).unwrap();
        assert_eq!(b.wire_len(), 4096);
        let entries = parse_batch(b.as_bytes(), PageMode::Fixed(4096)).unwrap();
        assert_eq!(entries[0].stored_len, 4096);
        assert_eq!(entries[0].payload_len, 100);
    }

    #[test]
    fn fixed_mode_rejects_oversized() {
        let mut b = WriteBatch::new(PageMode::Fixed(4096));
        let e = b.put(7, &vec![0; 4096]); // 4096 + 16 header > 4096
        assert!(matches!(e, Err(EleosError::PageTooLarge { .. })));
    }

    #[test]
    fn reserved_lpid_rejected() {
        let mut b = WriteBatch::new(PageMode::Variable);
        assert!(matches!(
            b.put(MAP_PAGE_BASE, &[0; 10]),
            Err(EleosError::ReservedLpid(_))
        ));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(matches!(
            parse_batch(&[0u8; 64], PageMode::Variable),
            Err(EleosError::Corrupt(_))
        ));
        assert!(matches!(
            parse_batch(&[], PageMode::Variable),
            Err(EleosError::EmptyBatch)
        ));
        // Truncated buffer: valid header claiming more than present.
        let mut b = WriteBatch::new(PageMode::Variable);
        b.put(1, &[0; 200]).unwrap();
        let cut = &b.as_bytes()[..100];
        assert!(parse_batch(cut, PageMode::Variable).is_err());
    }

    #[test]
    fn stored_header_roundtrip() {
        let mut b = WriteBatch::new(PageMode::Variable);
        b.put(42, &[9; 77]).unwrap();
        let (lpid, kind, plen) = decode_stored_header(b.as_bytes()).unwrap();
        assert_eq!((lpid, kind, plen), (42, PageKind::User, 77));
    }

    #[test]
    fn shared_views_the_batch_buffer() {
        let mut b = WriteBatch::new(PageMode::Variable);
        b.put(1, &[7; 100]).unwrap();
        let view = b.shared();
        assert_eq!(view.as_ptr(), b.as_bytes().as_ptr());
        assert_eq!(view, b.as_bytes());
    }

    #[test]
    fn writes_after_sharing_copy_first() {
        let mut b = WriteBatch::new(PageMode::Variable);
        b.put(1, &[1; 100]).unwrap();
        let first = b.shared();
        let old = first.to_vec();

        b.put(2, &[2; 100]).unwrap();
        assert_eq!(first, old);
        assert_ne!(b.as_bytes().as_ptr(), first.as_ptr());
        assert_eq!(&b.as_bytes()[..old.len()], &old[..]);

        let second = b.shared();
        let mut other = WriteBatch::new(PageMode::Variable);
        other.put(3, &[3; 10]).unwrap();
        b.append_batch(&other).unwrap();
        assert_eq!(first, old);
        assert_eq!(second.len(), 2 * 128);
        assert_eq!(b.wire_len(), 2 * 128 + 64);

        // A clone shares the buffer until one side writes.
        let mut c = b.clone();
        let before = b.shared();
        assert_eq!(c.as_bytes().as_ptr(), before.as_ptr());
        c.put(4, &[4; 10]).unwrap();
        assert_eq!(before, b.as_bytes());
        assert_eq!(b.wire_len(), 2 * 128 + 64);
        assert_eq!(c.wire_len(), 2 * 128 + 128);
        assert_eq!(parse_batch(c.as_bytes(), PageMode::Variable).unwrap().len(), 4);
    }

    #[test]
    fn large_batches_keep_little_spare_capacity() {
        let mut b = WriteBatch::new(PageMode::Variable);
        let payload = [5u8; 4000];
        for lpid in 0..1000 {
            b.put(lpid, &payload).unwrap();
            let (len, cap) = (b.wire_len(), b.buf.capacity());
            assert!(cap >= len);
            if len > DOUBLING_LIMIT {
                assert!(cap * 2 <= len * 3, "capacity {cap} for {len} bytes");
            }
        }
        let mut merged = WriteBatch::with_capacity(PageMode::Variable, b.wire_len());
        merged.append_batch(&b).unwrap();
        assert_eq!(merged.buf.capacity(), b.wire_len());
    }

    #[test]
    fn empty_payload_is_one_aligned_unit() {
        let mut b = WriteBatch::new(PageMode::Variable);
        b.put(3, &[]).unwrap();
        assert_eq!(b.wire_len(), 64); // header rounds to one 64-byte unit
        let entries = parse_batch(b.as_bytes(), PageMode::Variable).unwrap();
        assert_eq!(entries[0].payload_len, 0);
    }
}
