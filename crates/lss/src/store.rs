//! The host log-structured store.

use oxblock::ftl::{OxBlock, OxError, LOGICAL_PAGE};
use eleos_flash::Nanos;
use std::collections::{HashMap, VecDeque};
use std::fmt;

/// Bytes of payload a 4 KB log slot can carry after its header.
pub const MAX_PAYLOAD: usize = LOGICAL_PAGE - HEADER;

const HEADER: usize = 16;
const PAGE_MAGIC: u16 = 0x1055;
/// Page-id used by mapping-checkpoint slots (never valid for GC).
const CKPT_ID: u64 = u64::MAX;

/// Errors from the host store.
#[derive(Debug)]
pub enum LssError {
    /// Payload exceeds [`MAX_PAYLOAD`].
    PayloadTooLarge(usize),
    /// Unknown page id.
    NotFound(u64),
    /// The log is out of space even after host GC.
    LogFull,
    /// Underlying FTL error.
    Ftl(OxError),
    /// A parsed log slot was malformed.
    Corrupt,
}

impl fmt::Display for LssError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LssError::PayloadTooLarge(n) => write!(f, "payload of {n} bytes exceeds {MAX_PAYLOAD}"),
            LssError::NotFound(id) => write!(f, "page {id} not found"),
            LssError::LogFull => write!(f, "log store is full"),
            LssError::Ftl(e) => write!(f, "ftl error: {e}"),
            LssError::Corrupt => write!(f, "corrupt log slot"),
        }
    }
}

impl std::error::Error for LssError {}

impl From<OxError> for LssError {
    fn from(e: OxError) -> Self {
        LssError::Ftl(e)
    }
}

pub type Result<T> = std::result::Result<T, LssError>;

/// Configuration of the host store.
#[derive(Debug, Clone)]
pub struct LssConfig {
    /// 4 KB slots per log segment (256 = 1 MB, the paper's buffer size).
    pub segment_pages: u32,
    /// Free-segment fraction below which host GC cleans from the log head.
    pub gc_free_watermark: f64,
    /// Appended bytes between host mapping checkpoints (the durability tax
    /// of host-based log structuring).
    pub ckpt_interval_bytes: u64,
    /// Slots the in-memory write buffer holds before an automatic flush
    /// (matches the paper's 1 MB write buffer when equal to
    /// `segment_pages`).
    pub buffer_pages: u32,
}

impl Default for LssConfig {
    fn default() -> Self {
        LssConfig {
            segment_pages: 256,
            gc_free_watermark: 0.10,
            ckpt_interval_bytes: 8 * 1024 * 1024,
            buffer_pages: 256,
        }
    }
}

/// Free-segment fraction host GC tries to restore.
const GC_FREE_TARGET: f64 = 0.15;

/// Host-side counters.
#[derive(Debug, Clone, Default)]
pub struct LssStats {
    pub puts: u64,
    pub flushes: u64,
    pub gets: u64,
    /// Host GC passes over segments.
    pub gc_segments_cleaned: u64,
    /// Still-current pages host GC re-appended.
    pub gc_pages_moved: u64,
    /// Bytes host GC had to read and parse (the read amplification of
    /// Section IX-C2).
    pub gc_bytes_read: u64,
    /// Mapping-checkpoint slots appended.
    pub ckpt_pages_written: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SegState {
    Free,
    /// In the log, holding `used` written slots.
    Used { used: u32 },
}

/// The host log-structured store.
#[derive(Debug)]
pub struct LogStore {
    ftl: OxBlock,
    cfg: LssConfig,
    /// page_id → absolute slot LBA.
    mapping: HashMap<u64, u64>,
    segs: Vec<SegState>,
    /// Segments in log order, oldest first (cleaning order).
    log_order: VecDeque<u32>,
    free: VecDeque<u32>,
    /// Append position: segment + next slot.
    tail: Option<(u32, u32)>,
    /// Staged (page_id, padded 4 KB slot bytes).
    buf: Vec<(u64, Vec<u8>)>,
    bytes_since_ckpt: u64,
    stats: LssStats,
}

impl LogStore {
    pub fn new(ftl: OxBlock, cfg: LssConfig) -> Self {
        let n_segs = (ftl.logical_pages() / cfg.segment_pages as u64) as u32;
        assert!(n_segs >= 4, "log needs at least 4 segments");
        LogStore {
            mapping: HashMap::new(),
            segs: vec![SegState::Free; n_segs as usize],
            log_order: VecDeque::new(),
            free: (0..n_segs).collect(),
            tail: None,
            buf: Vec::new(),
            bytes_since_ckpt: 0,
            stats: LssStats::default(),
            ftl,
            cfg,
        }
    }

    pub fn stats(&self) -> &LssStats {
        &self.stats
    }

    pub fn ftl(&self) -> &OxBlock {
        &self.ftl
    }

    pub fn ftl_mut(&mut self) -> &mut OxBlock {
        &mut self.ftl
    }

    pub fn now(&self) -> Nanos {
        self.ftl.now()
    }

    fn encode_slot(page_id: u64, payload: &[u8]) -> Vec<u8> {
        let mut slot = Vec::with_capacity(LOGICAL_PAGE);
        slot.extend_from_slice(&PAGE_MAGIC.to_le_bytes());
        slot.extend_from_slice(&[0u8; 2]);
        slot.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        slot.extend_from_slice(&page_id.to_le_bytes());
        slot.extend_from_slice(payload);
        slot.resize(LOGICAL_PAGE, 0);
        slot
    }

    fn decode_slot(bytes: &[u8]) -> Result<(u64, &[u8])> {
        if bytes.len() < HEADER {
            return Err(LssError::Corrupt);
        }
        let magic = u16::from_le_bytes(bytes[0..2].try_into().unwrap());
        if magic != PAGE_MAGIC {
            return Err(LssError::Corrupt);
        }
        let len = u32::from_le_bytes(bytes[4..8].try_into().unwrap()) as usize;
        let id = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        if HEADER + len > bytes.len() {
            return Err(LssError::Corrupt);
        }
        Ok((id, &bytes[HEADER..HEADER + len]))
    }

    /// Stage one page write. Flushes automatically when the write buffer is
    /// full.
    pub fn put(&mut self, page_id: u64, payload: &[u8]) -> Result<()> {
        if payload.len() > MAX_PAYLOAD {
            return Err(LssError::PayloadTooLarge(payload.len()));
        }
        self.stats.puts += 1;
        self.buf.push((page_id, Self::encode_slot(page_id, payload)));
        if self.buf.len() >= self.cfg.buffer_pages as usize {
            self.flush()?;
        }
        Ok(())
    }

    /// Write the staged buffer to the log tail via the block interface.
    pub fn flush(&mut self) -> Result<Nanos> {
        if self.buf.is_empty() {
            return Ok(self.now());
        }
        self.maybe_host_gc()?;
        let staged = std::mem::take(&mut self.buf);
        let done = self.append_slots(&staged)?;
        self.stats.flushes += 1;
        self.bytes_since_ckpt += staged.len() as u64 * LOGICAL_PAGE as u64;
        if self.bytes_since_ckpt >= self.cfg.ckpt_interval_bytes {
            self.checkpoint_mapping()?;
            self.bytes_since_ckpt = 0;
        }
        Ok(done)
    }

    /// Append encoded slots at the tail, updating the mapping. Writes are
    /// issued per contiguous run within a segment (one host I/O each).
    fn append_slots<B: AsRef<[u8]>>(&mut self, slots: &[(u64, B)]) -> Result<Nanos> {
        let mut i = 0usize;
        let mut done = 0;
        while i < slots.len() {
            let (seg, next) = match self.tail {
                Some(t) => t,
                None => {
                    let seg = self.take_free_segment()?;
                    (seg, 0)
                }
            };
            let room = (self.cfg.segment_pages - next) as usize;
            let n = room.min(slots.len() - i);
            let lba = seg as u64 * self.cfg.segment_pages as u64 + next as u64;
            let mut data = Vec::with_capacity(n * LOGICAL_PAGE);
            for (_, slot_bytes) in &slots[i..i + n] {
                data.extend_from_slice(slot_bytes.as_ref());
            }
            let t = self.ftl.write(lba, &data)?;
            done = done.max(t);
            for (k, (page_id, _)) in slots[i..i + n].iter().enumerate() {
                if *page_id != CKPT_ID {
                    self.mapping.insert(*page_id, lba + k as u64);
                }
            }
            let used = next + n as u32;
            self.segs[seg as usize] = SegState::Used { used };
            if used >= self.cfg.segment_pages {
                self.tail = None;
            } else {
                self.tail = Some((seg, used));
            }
            i += n;
        }
        Ok(done)
    }

    fn take_free_segment(&mut self) -> Result<u32> {
        let seg = self.free.pop_front().ok_or(LssError::LogFull)?;
        self.log_order.push_back(seg);
        self.segs[seg as usize] = SegState::Used { used: 0 };
        Ok(seg)
    }

    /// Read the current version of a page.
    pub fn get(&mut self, page_id: u64) -> Result<bytes::Bytes> {
        // The write buffer may hold the newest (possibly only) version.
        if let Some((_, slot)) = self.buf.iter().rev().find(|(id, _)| *id == page_id) {
            let (_, payload) = Self::decode_slot(slot)?;
            self.stats.gets += 1;
            return Ok(bytes::Bytes::copy_from_slice(payload));
        }
        let lba = *self.mapping.get(&page_id).ok_or(LssError::NotFound(page_id))?;
        let (bytes, _) = self.ftl.read(lba, 1)?;
        let (id, payload) = Self::decode_slot(&bytes)?;
        if id != page_id {
            return Err(LssError::Corrupt);
        }
        let len = payload.len();
        self.stats.gets += 1;
        // The payload sits at a fixed offset inside the slot the FTL handed
        // back — return a refcounted view instead of copying it out.
        Ok(bytes.slice(HEADER..HEADER + len))
    }

    /// Read a batch of pages. The block interface gives the host no way to
    /// express the batch to the device, so this is inherently a serial loop
    /// over [`LogStore::get`] — the contrast to `Eleos::read_batch` is the
    /// point of the comparison.
    pub fn get_batch(&mut self, page_ids: &[u64]) -> Result<Vec<bytes::Bytes>> {
        page_ids.iter().map(|&p| self.get(p)).collect()
    }

    /// Periodic host mapping checkpoint: serialize every mapping entry into
    /// log slots (16 bytes per entry). These slots are garbage the moment a
    /// newer checkpoint lands — their cost is the point.
    fn checkpoint_mapping(&mut self) -> Result<()> {
        let entries_per_slot = MAX_PAYLOAD / 16;
        let n_slots = self.mapping.len().div_ceil(entries_per_slot).max(1);
        let mut slots = Vec::with_capacity(n_slots);
        let mut it = self.mapping.iter();
        for _ in 0..n_slots {
            let mut payload = Vec::with_capacity(MAX_PAYLOAD);
            for (id, lba) in it.by_ref().take(entries_per_slot) {
                payload.extend_from_slice(&id.to_le_bytes());
                payload.extend_from_slice(&lba.to_le_bytes());
            }
            slots.push((CKPT_ID, Self::encode_slot(CKPT_ID, &payload)));
        }
        self.stats.ckpt_pages_written += slots.len() as u64;
        self.append_slots(&slots)?;
        Ok(())
    }

    /// Host GC: clean segments from the log head until the free fraction
    /// recovers. Each pass must read and parse the *whole segment*
    /// (Section IX-C2) and re-append still-current pages at the tail.
    fn maybe_host_gc(&mut self) -> Result<()> {
        let n = self.segs.len() as f64;
        let watermark = (n * self.cfg.gc_free_watermark).ceil() as usize;
        let target = (n * GC_FREE_TARGET).ceil() as usize;
        if self.free.len() >= watermark {
            return Ok(());
        }
        let mut guard = self.segs.len() * 2;
        while self.free.len() < target && guard > 0 {
            guard -= 1;
            if !self.clean_head_segment()? {
                break;
            }
        }
        Ok(())
    }

    fn clean_head_segment(&mut self) -> Result<bool> {
        // Never clean the tail segment we are appending into.
        let Some(seg) = self.log_order.front().copied() else {
            return Ok(false);
        };
        if self.tail.is_some_and(|(t, _)| t == seg) {
            return Ok(false);
        }
        self.log_order.pop_front();
        let SegState::Used { used } = self.segs[seg as usize] else {
            return Ok(true);
        };
        if used > 0 {
            // Read the WHOLE written extent of the segment and parse it.
            let base = seg as u64 * self.cfg.segment_pages as u64;
            let (bytes, t) = self.ftl.read(base, used)?;
            self.ftl.device_mut().clock_mut().wait_until(t);
            self.stats.gc_bytes_read += bytes.len() as u64;
            // Survivors are refcounted views into the segment read — the
            // relocation never duplicates slot bytes on the host side.
            let mut survivors: Vec<(u64, bytes::Bytes)> = Vec::new();
            for k in 0..used as usize {
                let slot = &bytes[k * LOGICAL_PAGE..(k + 1) * LOGICAL_PAGE];
                let Ok((id, _)) = Self::decode_slot(slot) else {
                    continue;
                };
                if id == CKPT_ID {
                    continue; // superseded checkpoint data
                }
                if self.mapping.get(&id) == Some(&(base + k as u64)) {
                    survivors.push((id, bytes.slice(k * LOGICAL_PAGE..(k + 1) * LOGICAL_PAGE)));
                }
            }
            self.stats.gc_pages_moved += survivors.len() as u64;
            if !survivors.is_empty() {
                self.append_slots(&survivors)?;
            }
        }
        self.segs[seg as usize] = SegState::Free;
        self.free.push_back(seg);
        self.stats.gc_segments_cleaned += 1;
        Ok(true)
    }

    /// Number of free segments (experiment introspection).
    pub fn free_segments(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eleos_flash::{CostProfile, FlashDevice, Geometry};
    use oxblock::OxConfig;

    fn store(segment_pages: u32, buffer_pages: u32) -> LogStore {
        let dev = FlashDevice::new(Geometry::tiny(), CostProfile::unit());
        // Expose 2048 logical pages (8 MB) of the 16 MB device.
        let ftl = OxBlock::format(dev, OxConfig::new(2048)).unwrap();
        LogStore::new(
            ftl,
            LssConfig {
                segment_pages,
                buffer_pages,
                ckpt_interval_bytes: 1024 * 1024,
                ..Default::default()
            },
        )
    }

    #[test]
    fn put_flush_get_roundtrip() {
        let mut s = store(64, 8);
        s.put(1, b"hello").unwrap();
        s.put(2, &vec![7u8; 4000]).unwrap();
        s.flush().unwrap();
        assert_eq!(s.get(1).unwrap(), b"hello");
        assert_eq!(s.get(2).unwrap(), vec![7u8; 4000]);
        assert!(matches!(s.get(3), Err(LssError::NotFound(3))));
    }

    #[test]
    fn unflushed_pages_read_from_buffer() {
        let mut s = store(64, 64);
        s.put(1, b"v1").unwrap();
        s.flush().unwrap();
        s.put(1, b"v2").unwrap(); // staged only
        assert_eq!(s.get(1).unwrap(), b"v2");
    }

    #[test]
    fn buffer_autoflushes_when_full() {
        let mut s = store(64, 4);
        for i in 0..4u64 {
            s.put(i, &[i as u8; 100]).unwrap();
        }
        assert_eq!(s.stats().flushes, 1);
        assert_eq!(s.get(3).unwrap(), vec![3u8; 100]);
    }

    #[test]
    fn oversized_payload_rejected() {
        let mut s = store(64, 8);
        assert!(matches!(
            s.put(1, &vec![0u8; MAX_PAYLOAD + 1]),
            Err(LssError::PayloadTooLarge(_))
        ));
    }

    #[test]
    fn host_gc_cleans_and_preserves_current_pages() {
        let mut s = store(32, 16); // 64 segments of 128 KB
        // Overwrite a 64-page working set many times to force cleaning.
        for round in 0..40u64 {
            for id in 0..64u64 {
                s.put(id, &[round as u8; 1000]).unwrap();
            }
        }
        s.flush().unwrap();
        assert!(s.stats().gc_segments_cleaned > 0, "stats: {:?}", s.stats());
        assert!(s.stats().gc_bytes_read > 0, "host GC must read whole segments");
        for id in 0..64u64 {
            assert_eq!(s.get(id).unwrap(), vec![39u8; 1000], "page {id}");
        }
    }

    #[test]
    fn mapping_checkpoints_consume_log_space() {
        let mut s = store(64, 16);
        for id in 0..400u64 {
            s.put(id, &[1u8; 2000]).unwrap();
        }
        s.flush().unwrap();
        assert!(s.stats().ckpt_pages_written > 0);
    }
}
