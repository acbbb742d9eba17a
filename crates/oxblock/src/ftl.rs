//! The conventional page-mapped FTL.

use crate::map::{unpack_slot, PageMap, NULL_SLOT};
use eleos_flash::{ByteExtent, EblockAddr, FlashDevice, FlashError, Nanos, WblockAddr};
use std::collections::VecDeque;
use std::fmt;

/// Logical page size of the block interface (matches the RBLOCK).
pub const LOGICAL_PAGE: usize = 4096;

/// Errors surfaced by the block interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OxError {
    /// Read of a logical page that has never been written.
    Unmapped(u64),
    /// LBA range exceeds the exposed logical space.
    OutOfRange,
    /// Data length is not a whole number of logical pages.
    BadLength,
    /// No free EBLOCK could be reclaimed.
    DeviceFull,
    Flash(FlashError),
}

impl fmt::Display for OxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OxError::Unmapped(lpn) => write!(f, "logical page {lpn} is unmapped"),
            OxError::OutOfRange => write!(f, "lba out of range"),
            OxError::BadLength => write!(f, "data must be whole 4 KB pages"),
            OxError::DeviceFull => write!(f, "no space left on device"),
            OxError::Flash(e) => write!(f, "flash error: {e}"),
        }
    }
}

impl std::error::Error for OxError {}

impl From<FlashError> for OxError {
    fn from(e: FlashError) -> Self {
        OxError::Flash(e)
    }
}

pub type Result<T> = std::result::Result<T, OxError>;

/// Configuration of the baseline FTL.
#[derive(Debug, Clone)]
pub struct OxConfig {
    /// Exposed logical pages (the rest of the capacity is
    /// over-provisioning).
    pub logical_pages: u64,
}

impl OxConfig {
    pub fn new(logical_pages: u64) -> Self {
        OxConfig { logical_pages }
    }
}

/// Free-EBLOCK fraction below which greedy GC runs.
const GC_FREE_WATERMARK: f64 = 0.10;

/// Logical pages per write context. The transport bounds an internal write
/// by the packet size (Section IX-C1); 16 pages = 64 KB.
const CONTEXT_PAGES: usize = 16;

/// Operation counters.
#[derive(Debug, Clone, Default)]
pub struct OxStats {
    /// Host write I/Os.
    pub host_writes: u64,
    /// Write contexts created (one per packet-bounded chunk).
    pub contexts: u64,
    /// Commit log records forced (one per context).
    pub commit_forces: u64,
    /// Logical pages written by the host.
    pub pages_written: u64,
    /// Logical pages read by the host.
    pub pages_read: u64,
    /// Pages relocated by GC.
    pub gc_moved_pages: u64,
    /// EBLOCKs erased by GC.
    pub gc_erases: u64,
    pub gc_collections: u64,
}

#[derive(Debug)]
struct ChanState {
    free: VecDeque<u32>,
    /// Open EBLOCK and its next free WBLOCK index.
    open: Option<(u32, u32)>,
}

/// The conventional block-at-a-time FTL.
#[derive(Debug)]
pub struct OxBlock {
    dev: FlashDevice,
    cfg: OxConfig,
    map: PageMap,
    chans: Vec<ChanState>,
    /// Valid 4 KB pages per EBLOCK, channel-major.
    valid: Vec<u32>,
    /// Round-robin channel for WBLOCK allocation.
    rr: u32,
    /// Dedicated commit-log EBLOCK (channel 0, eblock 0) and its cursor.
    log_wblock: u32,
    stats: OxStats,
}

impl OxBlock {
    pub fn format(dev: FlashDevice, cfg: OxConfig) -> Result<OxBlock> {
        let geo = *dev.geometry();
        assert_eq!(
            geo.rblock_bytes as usize, LOGICAL_PAGE,
            "oxblock assumes 4 KB RBLOCKs"
        );
        let capacity_pages = (geo.total_bytes() - geo.eblock_bytes()) / LOGICAL_PAGE as u64;
        if cfg.logical_pages > capacity_pages {
            return Err(OxError::DeviceFull);
        }
        let mut chans: Vec<ChanState> = (0..geo.channels)
            .map(|_| ChanState {
                free: VecDeque::new(),
                open: None,
            })
            .collect();
        for c in 0..geo.channels {
            // Channel 0, EBLOCK 0 is the commit-log block.
            let start = if c == 0 { 1 } else { 0 };
            for eb in start..geo.eblocks_per_channel {
                chans[c as usize].free.push_back(eb);
            }
        }
        Ok(OxBlock {
            map: PageMap::new(cfg.logical_pages),
            valid: vec![0; geo.total_eblocks() as usize],
            chans,
            rr: 0,
            log_wblock: 0,
            stats: OxStats::default(),
            dev,
            cfg,
        })
    }

    pub fn stats(&self) -> &OxStats {
        &self.stats
    }

    pub fn device(&self) -> &FlashDevice {
        &self.dev
    }

    pub fn device_mut(&mut self) -> &mut FlashDevice {
        &mut self.dev
    }

    pub fn now(&self) -> Nanos {
        self.dev.clock().now()
    }

    pub fn logical_pages(&self) -> u64 {
        self.cfg.logical_pages
    }

    fn pages_per_wblock(&self) -> u32 {
        self.dev.geometry().rblocks_per_wblock()
    }

    /// Write `data` (whole 4 KB pages) at logical page `lba`. Returns the
    /// virtual completion time of the whole host I/O.
    pub fn write(&mut self, lba: u64, data: &[u8]) -> Result<Nanos> {
        if data.is_empty() || !data.len().is_multiple_of(LOGICAL_PAGE) {
            return Err(OxError::BadLength);
        }
        let npages = (data.len() / LOGICAL_PAGE) as u64;
        if lba + npages > self.cfg.logical_pages {
            return Err(OxError::OutOfRange);
        }
        let profile = *self.dev.profile();
        self.dev
            .clock_mut()
            .cpu(profile.host_submit_ns + profile.transport_cpu(data.len() as u64));
        self.stats.host_writes += 1;
        self.stats.pages_written += npages;

        let mut done = 0;
        // One write context per packet-bounded chunk (Section IX-C1).
        let mut page_idx = 0usize;
        while page_idx < npages as usize {
            let in_ctx = CONTEXT_PAGES.min(npages as usize - page_idx);
            self.stats.contexts += 1;
            self.dev
                .clock_mut()
                .cpu(profile.context_ns + profile.per_page_ns * in_ctx as u64);
            let mut ctx_done = 0;
            // Pack the context's pages into WBLOCKs, striping round-robin
            // across channels.
            let per_wb = self.pages_per_wblock() as usize;
            let mut p = 0usize;
            while p < in_ctx {
                let group = per_wb.min(in_ctx - p);
                let (ch, eb, wblock) = self.alloc_wblock()?;
                let geo = *self.dev.geometry();
                let mut buf = vec![0u8; geo.wblock_bytes as usize];
                let mut tag = Vec::with_capacity(per_wb * 8);
                for g in 0..group {
                    let off = (page_idx + p + g) * LOGICAL_PAGE;
                    buf[g * LOGICAL_PAGE..(g + 1) * LOGICAL_PAGE]
                        .copy_from_slice(&data[off..off + LOGICAL_PAGE]);
                    tag.extend_from_slice(&(lba + (page_idx + p + g) as u64).to_le_bytes());
                }
                // Unused tag slots are marked invalid.
                for _ in group..per_wb {
                    tag.extend_from_slice(&u64::MAX.to_le_bytes());
                }
                let t = self.dev.program(WblockAddr::new(ch, eb, wblock), &buf, &tag)?;
                ctx_done = ctx_done.max(t);
                // Install mappings.
                let first_slot = wblock * self.pages_per_wblock();
                for g in 0..group {
                    let lpn = lba + (page_idx + p + g) as u64;
                    let old = self.map.set(lpn, ch, eb, first_slot + g as u32);
                    self.adjust_valid(old, ch, eb);
                }
                p += group;
            }
            // Force the per-context commit record (the 17× cost the batch
            // interface amortizes away).
            let t_log = self.force_commit_record()?;
            self.stats.commit_forces += 1;
            self.dev.clock_mut().cpu(profile.commit_force_ns);
            let t = ctx_done.max(t_log);
            self.dev.clock_mut().wait_until(t);
            done = done.max(t);
            page_idx += in_ctx;
        }
        self.maybe_gc()?;
        Ok(done)
    }

    fn adjust_valid(&mut self, old: u64, new_ch: u32, new_eb: u32) {
        let geo = *self.dev.geometry();
        if old != NULL_SLOT {
            let (och, oeb, _) = unpack_slot(old);
            let idx = (och as u64 * geo.eblocks_per_channel as u64 + oeb as u64) as usize;
            self.valid[idx] = self.valid[idx].saturating_sub(1);
        }
        let idx = (new_ch as u64 * geo.eblocks_per_channel as u64 + new_eb as u64) as usize;
        self.valid[idx] += 1;
    }

    /// Read `npages` logical pages starting at `lba`.
    pub fn read(&mut self, lba: u64, npages: u32) -> Result<(bytes::Bytes, Nanos)> {
        if lba + npages as u64 > self.cfg.logical_pages {
            return Err(OxError::OutOfRange);
        }
        let profile = *self.dev.profile();
        self.dev
            .clock_mut()
            .cpu(profile.host_submit_ns + profile.read_ctx_ns);
        // Collect refcounted views per logical page; physically adjacent
        // pages coalesce into one view, so a read that stays inside one
        // WBLOCK never copies.
        let mut segs: Vec<bytes::Bytes> = Vec::new();
        let mut total = 0usize;
        let mut done = 0;
        for i in 0..npages as u64 {
            let lpn = lba + i;
            let (ch, eb, slot) = self.map.get(lpn).ok_or(OxError::Unmapped(lpn))?;
            let ext = ByteExtent::new(
                EblockAddr::new(ch, eb),
                slot as u64 * LOGICAL_PAGE as u64,
                LOGICAL_PAGE as u64,
            );
            let (bytes, t) = self.dev.read_extent(ext)?;
            total += bytes.len();
            if !segs.last_mut().is_some_and(|last| last.try_extend(&bytes)) {
                segs.push(bytes);
            }
            done = done.max(t);
        }
        self.dev.clock_mut().wait_until(done);
        self.dev
            .clock_mut()
            .cpu(profile.transport_cpu(total as u64));
        self.stats.pages_read += npages as u64;
        let out = if segs.len() == 1 {
            segs.pop().unwrap()
        } else {
            let mut v = Vec::with_capacity(total);
            for s in &segs {
                v.extend_from_slice(s);
            }
            bytes::Bytes::from(v)
        };
        Ok((out, done))
    }

    fn alloc_wblock(&mut self) -> Result<(u32, u32, u32)> {
        let geo = *self.dev.geometry();
        let channels = geo.channels;
        for _ in 0..channels {
            let ch = self.rr % channels;
            self.rr = (self.rr + 1) % channels;
            let st = &mut self.chans[ch as usize];
            if st.open.is_none() {
                if let Some(eb) = st.free.pop_front() {
                    st.open = Some((eb, 0));
                }
            }
            if let Some((eb, w)) = st.open {
                let next = w + 1;
                if next >= geo.wblocks_per_eblock {
                    st.open = None;
                } else {
                    st.open = Some((eb, next));
                }
                return Ok((ch, eb, w));
            }
        }
        Err(OxError::DeviceFull)
    }

    /// Program a commit log record to the dedicated log EBLOCK (erasing it
    /// in place when full — content durability is owned by the host in the
    /// Block configuration; the *cost* is what matters here).
    fn force_commit_record(&mut self) -> Result<Nanos> {
        let geo = *self.dev.geometry();
        let log_eb = EblockAddr::new(0, 0);
        if self.log_wblock >= geo.wblocks_per_eblock {
            let t = self.dev.erase(log_eb)?;
            self.dev.clock_mut().wait_until(t);
            self.log_wblock = 0;
        }
        let buf = vec![0xC0u8; geo.wblock_bytes as usize];
        let t = self
            .dev
            .program(WblockAddr::new(0, 0, self.log_wblock), &buf, &[])?;
        self.log_wblock += 1;
        Ok(t)
    }

    /// Greedy GC: per channel below the watermark, erase the EBLOCK with
    /// the fewest valid pages, relocating the survivors.
    fn maybe_gc(&mut self) -> Result<()> {
        let geo = *self.dev.geometry();
        let total = geo.eblocks_per_channel as f64;
        for ch in 0..geo.channels {
            let watermark = (total * GC_FREE_WATERMARK).ceil() as usize;
            let mut guard = geo.eblocks_per_channel * 2;
            while self.chans[ch as usize].free.len() < watermark && guard > 0 {
                guard -= 1;
                if !self.gc_once(ch)? {
                    break;
                }
            }
        }
        Ok(())
    }

    fn gc_once(&mut self, ch: u32) -> Result<bool> {
        let geo = *self.dev.geometry();
        let open_eb = self.chans[ch as usize].open.map(|(eb, _)| eb);
        let mut victim: Option<(u32, u32)> = None; // (eb, valid)
        for eb in 0..geo.eblocks_per_channel {
            if ch == 0 && eb == 0 {
                continue; // commit-log block
            }
            if Some(eb) == open_eb || self.chans[ch as usize].free.contains(&eb) {
                continue;
            }
            // Only fully-written EBLOCKs are candidates.
            let frontier = self.dev.programmed_wblocks(EblockAddr::new(ch, eb))?;
            if frontier < geo.wblocks_per_eblock {
                continue;
            }
            let idx = (ch as u64 * geo.eblocks_per_channel as u64 + eb as u64) as usize;
            let v = self.valid[idx];
            if victim.is_none_or(|(_, bv)| v < bv) {
                victim = Some((eb, v));
            }
        }
        let Some((eb, _)) = victim else {
            return Ok(false);
        };
        self.collect(ch, eb)?;
        Ok(true)
    }

    fn collect(&mut self, ch: u32, eb: u32) -> Result<()> {
        self.stats.gc_collections += 1;
        let geo = *self.dev.geometry();
        let per_wb = self.pages_per_wblock();
        let addr = EblockAddr::new(ch, eb);
        // Read the TAG area of every WBLOCK to learn the stored LPNs, then
        // relocate the pages the map still points at. Each survivor is a
        // zero-copy view into the victim WBLOCK's stored buffer.
        let mut survivors: Vec<(u64, bytes::Bytes)> = Vec::new();
        for w in 0..geo.wblocks_per_eblock {
            let (tag, _) = self.dev.read_tag(WblockAddr::new(ch, eb, w))?;
            for g in 0..per_wb {
                let lpn = u64::from_le_bytes(tag[g as usize * 8..g as usize * 8 + 8].try_into().unwrap());
                if lpn == u64::MAX {
                    continue;
                }
                let slot = w * per_wb + g;
                if lpn < self.map.len() as u64 && self.map.points_to(lpn, ch, eb, slot) {
                    let ext = ByteExtent::new(
                        addr,
                        slot as u64 * LOGICAL_PAGE as u64,
                        LOGICAL_PAGE as u64,
                    );
                    let (bytes, t) = self.dev.read_extent(ext)?;
                    self.dev.clock_mut().wait_until(t);
                    survivors.push((lpn, bytes));
                }
            }
        }
        // Rewrite survivors through the internal path (flash cost only).
        let mut i = 0usize;
        while i < survivors.len() {
            let group = (per_wb as usize).min(survivors.len() - i);
            let (nch, neb, wblock) = self.alloc_wblock()?;
            let mut buf = vec![0u8; geo.wblock_bytes as usize];
            let mut tag = Vec::with_capacity(per_wb as usize * 8);
            for g in 0..group {
                let (lpn, ref bytes) = survivors[i + g];
                buf[g * LOGICAL_PAGE..(g + 1) * LOGICAL_PAGE].copy_from_slice(&bytes[..]);
                tag.extend_from_slice(&lpn.to_le_bytes());
            }
            for _ in group..per_wb as usize {
                tag.extend_from_slice(&u64::MAX.to_le_bytes());
            }
            let t = self.dev.program(WblockAddr::new(nch, neb, wblock), &buf, &tag)?;
            self.dev.clock_mut().wait_until(t);
            let first_slot = wblock * per_wb;
            for g in 0..group {
                let lpn = survivors[i + g].0;
                let old = self.map.set(lpn, nch, neb, first_slot + g as u32);
                self.adjust_valid(old, nch, neb);
            }
            i += group;
        }
        self.stats.gc_moved_pages += survivors.len() as u64;
        let t = self.dev.erase(addr)?;
        self.dev.clock_mut().wait_until(t);
        let idx = (ch as u64 * geo.eblocks_per_channel as u64 + eb as u64) as usize;
        self.valid[idx] = 0;
        self.chans[ch as usize].free.push_back(eb);
        self.stats.gc_erases += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eleos_flash::{CostProfile, Geometry};

    fn ftl(logical_pages: u64) -> OxBlock {
        let dev = FlashDevice::new(Geometry::tiny(), CostProfile::unit());
        OxBlock::format(dev, OxConfig::new(logical_pages)).unwrap()
    }

    fn page(fill: u8) -> Vec<u8> {
        vec![fill; LOGICAL_PAGE]
    }

    #[test]
    fn write_read_roundtrip() {
        let mut f = ftl(256);
        let mut data = page(1);
        data.extend(page(2));
        f.write(10, &data).unwrap();
        let (got, _) = f.read(10, 2).unwrap();
        assert_eq!(&got[..LOGICAL_PAGE], &page(1)[..]);
        assert_eq!(&got[LOGICAL_PAGE..], &page(2)[..]);
        assert!(matches!(f.read(12, 1), Err(OxError::Unmapped(12))));
    }

    #[test]
    fn overwrite_returns_latest() {
        let mut f = ftl(64);
        f.write(0, &page(1)).unwrap();
        f.write(0, &page(2)).unwrap();
        let (got, _) = f.read(0, 1).unwrap();
        assert_eq!(got, page(2));
    }

    #[test]
    fn contexts_scale_with_write_size() {
        let mut f = ftl(1024);
        // 64 pages with 16-page contexts -> 4 contexts, 4 commit forces.
        let data: Vec<u8> = (0..64).flat_map(|i| page(i as u8)).collect();
        f.write(0, &data).unwrap();
        assert_eq!(f.stats().contexts, 4);
        assert_eq!(f.stats().commit_forces, 4);
        // A single page is still one context.
        f.write(100, &page(9)).unwrap();
        assert_eq!(f.stats().contexts, 5);
    }

    #[test]
    fn bad_inputs_rejected() {
        let mut f = ftl(16);
        assert!(matches!(f.write(0, &[0u8; 100]), Err(OxError::BadLength)));
        assert!(matches!(f.write(0, &[]), Err(OxError::BadLength)));
        assert!(matches!(f.write(15, &[0u8; 2 * LOGICAL_PAGE]), Err(OxError::OutOfRange)));
        assert!(matches!(f.read(16, 1), Err(OxError::OutOfRange)));
    }

    #[test]
    fn gc_reclaims_under_overwrite_pressure() {
        // Tiny device: 16 MB raw; expose 1 MB logical and overwrite it many
        // times.
        let mut f = ftl(256);
        let data: Vec<u8> = (0..16).flat_map(|i| page(i as u8)).collect();
        for round in 0..600u64 {
            let lba = (round * 16) % 256;
            let fill: Vec<u8> = (0..16).flat_map(|i| page((round + i) as u8)).collect();
            f.write(lba, &fill).unwrap();
        }
        let _ = data;
        assert!(f.stats().gc_erases > 0, "stats: {:?}", f.stats());
        // Content still correct: last writer for each lba region wins.
        for lba in (0..256).step_by(16) {
            let (got, _) = f.read(lba, 16).unwrap();
            // The round that last wrote this region:
            let last_round = (0..600u64).rev().find(|r| (r * 16) % 256 == lba).unwrap();
            for i in 0..16u64 {
                let expect = (last_round + i) as u8;
                assert!(
                    got[(i as usize) * LOGICAL_PAGE..][..LOGICAL_PAGE]
                        .iter()
                        .all(|&b| b == expect),
                    "lba {lba} page {i}"
                );
            }
        }
    }

    #[test]
    fn time_advances_more_for_block_than_nothing() {
        let dev = FlashDevice::new(Geometry::tiny(), CostProfile::weak_controller());
        let mut f = OxBlock::format(dev, OxConfig::new(256)).unwrap();
        let t0 = f.now();
        f.write(0, &page(1)).unwrap();
        assert!(f.now() > t0);
    }

    #[test]
    fn format_rejects_oversubscription() {
        let dev = FlashDevice::new(Geometry::tiny(), CostProfile::unit());
        let total_pages = 16 * 1024 * 1024 / LOGICAL_PAGE as u64;
        assert!(matches!(
            OxBlock::format(dev, OxConfig::new(total_pages)),
            Err(OxError::DeviceFull)
        ));
    }
}
