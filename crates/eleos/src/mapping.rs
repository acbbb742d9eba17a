//! The three-level mapping table (Section III-B).
//!
//! * **Mapping table** — LPID → packed physical address (+ length). Too
//!   large to pin in memory, so it is paginated and demand-cached; pages are
//!   stored on flash as ordinary LPAGEs (LPID = `MAP_PAGE_BASE + page_no`)
//!   and are therefore relocated by GC like any other page.
//! * **Small table** — flash address of each mapping page. Memory-resident;
//!   flushed at checkpoints as LPAGEs (`SMALL_PAGE_BASE + i`).
//! * **Tiny table** — flash address of each small-table page; small enough
//!   to live inside the checkpoint record itself.

use crate::batch::{decode_stored_header, ENTRY_HEADER};
use crate::error::{EleosError, Result};
use crate::phys::{PhysAddr, NULL_PADDR};
use crate::types::{Lpid, Lsn, PageKind, MAP_PAGE_BASE};
use eleos_flash::{Activity, FlashDevice};

/// No slot: an absent page's index entry, and the recency list's ends.
const NIL: u32 = u32::MAX;

/// One cached mapping page.
#[derive(Debug, Clone)]
struct CachedPage {
    /// The mapping page held.
    page: u32,
    /// Packed physical addresses, one per LPID slot.
    entries: Vec<u64>,
    dirty: bool,
    /// First LSN that dirtied the page since its last flush.
    rec_lsn: Lsn,
    /// Recency-list neighbours: the resident slot used just before this
    /// one and the one used just after ([`NIL`] at the ends).
    older: u32,
    newer: u32,
}

eleos_flash::counters! {
    /// Observational cache counters (never feed back into control flow, so
    /// they cannot perturb the simulation).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct MapCacheStats {
        /// Lookups served from the cache.
        pub hits: u64,
        /// Demand loads (page absent from the cache).
        pub misses: u64,
        /// Misses that read a translation page from flash (the rest were
        /// never-flushed pages materialized as all-unmapped).
        pub flash_loads: u64,
        /// Clean pages dropped by LRU replacement.
        pub evictions: u64,
    }
}

/// The mapping-table hierarchy.
#[derive(Debug)]
pub struct MappingTable {
    per_page: usize,
    n_pages: usize,
    max_cache: usize,
    /// Level 2: packed flash address of each mapping page.
    small: Vec<u64>,
    /// Level 3: packed flash address of each small-table page.
    tiny: Vec<u64>,
    /// Cached pages, in no particular order. A slot holds a resident page
    /// or is on `free`; a free slot is clean and keeps its `entries`
    /// buffer for the next fault to decode into.
    slots: Vec<CachedPage>,
    /// Slots that hold no page (evicted, or a fault that failed).
    free: Vec<u32>,
    /// Slot of each mapping page, by page number ([`NIL`]: not resident).
    index: Vec<u32>,
    /// Ends of the recency list through the resident slots, least and most
    /// recently used.
    lru: u32,
    mru: u32,
    stats: MapCacheStats,
}

impl MappingTable {
    pub fn new(max_user_lpid: u64, per_page: usize, max_cache: usize) -> Self {
        assert!(per_page > 0);
        let n_pages = ((max_user_lpid + 1) as usize).div_ceil(per_page);
        let n_small = n_pages.div_ceil(per_page);
        MappingTable {
            per_page,
            n_pages,
            max_cache: max_cache.max(1),
            small: vec![NULL_PADDR; n_pages],
            tiny: vec![NULL_PADDR; n_small],
            slots: Vec::new(),
            free: Vec::new(),
            index: vec![NIL; n_pages],
            lru: NIL,
            mru: NIL,
            stats: MapCacheStats::default(),
        }
    }

    #[inline]
    pub fn n_pages(&self) -> usize {
        self.n_pages
    }

    #[inline]
    pub fn n_small_pages(&self) -> usize {
        self.tiny.len()
    }

    #[inline]
    pub fn page_of(&self, lpid: Lpid) -> u32 {
        debug_assert!(lpid < MAP_PAGE_BASE);
        (lpid as usize / self.per_page) as u32
    }

    pub(crate) fn check_lpid(&self, lpid: Lpid) -> Result<()> {
        if lpid >= MAP_PAGE_BASE {
            return Err(EleosError::ReservedLpid(lpid));
        }
        if lpid as usize / self.per_page >= self.n_pages {
            return Err(EleosError::NotFound(lpid));
        }
        Ok(())
    }

    /// Load a mapping page into the cache (reading flash on a miss). A hit
    /// is one index load and a move to the recency list's most recent end.
    fn load_page(&mut self, page: u32, dev: &mut FlashDevice) -> Result<&mut CachedPage> {
        let slot = match self.index[page as usize] {
            NIL => self.fault_in(page, dev)?,
            slot => {
                self.stats.hits += 1;
                let slot = slot as usize;
                if slot != self.mru as usize {
                    self.unlink(slot);
                    self.push_mru(slot);
                }
                slot
            }
        };
        Ok(&mut self.slots[slot])
    }

    /// Demand-load an absent mapping page, evicting first if the cache is
    /// full. The page decodes straight into a free slot's buffer — on a
    /// full cache, the victim's — so only a fault that grows the cache
    /// allocates. A failed read leaves the evictions done and the page
    /// absent. Flash reads are attributed to [`Activity::MapIo`].
    fn fault_in(&mut self, page: u32, dev: &mut FlashDevice) -> Result<usize> {
        self.stats.misses += 1;
        self.maybe_evict_clean();
        let slot = match self.free.pop() {
            Some(slot) => slot as usize,
            None => {
                self.slots.push(CachedPage {
                    page,
                    entries: vec![NULL_PADDR; self.per_page],
                    dirty: false,
                    rec_lsn: 0,
                    older: NIL,
                    newer: NIL,
                });
                self.slots.len() - 1
            }
        };
        if let Err(e) = self.read_page(page, slot, dev) {
            self.free.push(slot as u32);
            return Err(e);
        }
        self.slots[slot].page = page;
        self.index[page as usize] = slot as u32;
        self.push_mru(slot);
        Ok(slot)
    }

    /// Fill `slot`'s entries with mapping page `page`: all unmapped if it
    /// was never flushed, else decoded from its flash copy.
    fn read_page(&mut self, page: u32, slot: usize, dev: &mut FlashDevice) -> Result<()> {
        let entries = &mut self.slots[slot].entries;
        let Some(addr) = PhysAddr::unpack(self.small[page as usize]) else {
            entries.fill(NULL_PADDR);
            return Ok(());
        };
        self.stats.flash_loads += 1;
        let prev = dev.telemetry_mut().set_activity(Activity::MapIo);
        let read = dev.read_extent(addr.extent());
        dev.telemetry_mut().set_activity(prev);
        let (bytes, _) = read?;
        let (lpid, kind, plen) = decode_stored_header(&bytes)?;
        if kind != PageKind::MapPage || lpid != MAP_PAGE_BASE + page as u64 {
            return Err(EleosError::Corrupt("mapping page identity mismatch"));
        }
        if plen != entries.len() * 8 {
            return Err(EleosError::Corrupt("mapping page payload"));
        }
        decode_entries(&bytes[ENTRY_HEADER..ENTRY_HEADER + plen], entries);
        Ok(())
    }

    /// Make room for one incoming page: evict clean pages, least recently
    /// used first, until the cache is below its bound. Dirty pages are
    /// never dropped — they are flushed by checkpointing (or an
    /// eviction-flush driven by the controller) and evicted clean later —
    /// so with every resident page dirty the cache overflows its bound
    /// until they are. The walk starts at the least recent end of the
    /// recency list, so each victim costs one step plus one per dirty page
    /// it passes.
    fn maybe_evict_clean(&mut self) {
        if self.cached_pages() < self.max_cache {
            return;
        }
        let mut slot = self.lru;
        while slot != NIL && self.cached_pages() >= self.max_cache {
            let p = &self.slots[slot as usize];
            let (page, dirty, newer) = (p.page, p.dirty, p.newer);
            if !dirty {
                self.unlink(slot as usize);
                self.index[page as usize] = NIL;
                self.free.push(slot);
                self.stats.evictions += 1;
            }
            slot = newer;
        }
    }

    /// Take `slot` out of the recency list.
    fn unlink(&mut self, slot: usize) {
        let CachedPage { older, newer, .. } = self.slots[slot];
        match older {
            NIL => self.lru = newer,
            s => self.slots[s as usize].newer = newer,
        }
        match newer {
            NIL => self.mru = older,
            s => self.slots[s as usize].older = older,
        }
    }

    /// Put `slot` at the most recent end of the recency list.
    fn push_mru(&mut self, slot: usize) {
        let p = &mut self.slots[slot];
        p.older = self.mru;
        p.newer = NIL;
        match self.mru {
            NIL => self.lru = slot as u32,
            s => self.slots[s as usize].newer = slot as u32,
        }
        self.mru = slot as u32;
    }

    /// True when the cache exceeds its bound with dirty pages (the
    /// controller should flush some).
    pub fn overfull(&self) -> bool {
        self.cached_pages() > self.max_cache
    }

    /// Observational cache counters.
    pub fn cache_stats(&self) -> MapCacheStats {
        self.stats
    }

    /// Look up the current physical address of an LPID.
    pub fn get(&mut self, lpid: Lpid, dev: &mut FlashDevice) -> Result<Option<PhysAddr>> {
        self.check_lpid(lpid)?;
        let page = self.page_of(lpid);
        let slot = lpid as usize % self.per_page;
        let p = self.load_page(page, dev)?;
        Ok(PhysAddr::unpack(p.entries[slot]))
    }

    /// Install a new packed address; returns the previous packed value.
    pub fn set(&mut self, lpid: Lpid, packed: u64, lsn: Lsn, dev: &mut FlashDevice) -> Result<u64> {
        self.check_lpid(lpid)?;
        let page = self.page_of(lpid);
        let slot = lpid as usize % self.per_page;
        let p = self.load_page(page, dev)?;
        let old = p.entries[slot];
        p.entries[slot] = packed;
        if !p.dirty {
            p.dirty = true;
            p.rec_lsn = lsn;
        }
        Ok(old)
    }

    /// Conditional install used by GC commits (Section VI-C): the new
    /// address is installed only if the current value still equals
    /// `expected_old`. Returns whether the install happened.
    pub fn set_if(
        &mut self,
        lpid: Lpid,
        expected_old: u64,
        packed: u64,
        lsn: Lsn,
        dev: &mut FlashDevice,
    ) -> Result<bool> {
        self.check_lpid(lpid)?;
        let page = self.page_of(lpid);
        let slot = lpid as usize % self.per_page;
        let p = self.load_page(page, dev)?;
        if p.entries[slot] != expected_old {
            return Ok(false);
        }
        p.entries[slot] = packed;
        if !p.dirty {
            p.dirty = true;
            p.rec_lsn = lsn;
        }
        Ok(true)
    }

    /// Dirty mapping pages (for checkpoint flushing).
    pub fn dirty_pages(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self
            .slots
            .iter()
            .filter(|p| p.dirty)
            .map(|p| p.page)
            .collect();
        v.sort_unstable();
        v
    }

    /// Truncation factor (2): smallest rec LSN across dirty pages.
    pub fn min_rec_lsn(&self) -> Option<Lsn> {
        self.slots
            .iter()
            .filter(|p| p.dirty)
            .map(|p| p.rec_lsn)
            .min()
    }

    /// Serialize the payload of a mapping page for flushing.
    pub fn encode_page(&mut self, page: u32, dev: &mut FlashDevice) -> Result<Vec<u8>> {
        let per_page = self.per_page;
        let p = self.load_page(page, dev)?;
        let mut out = Vec::with_capacity(per_page * 8);
        for &e in &p.entries {
            out.extend_from_slice(&e.to_le_bytes());
        }
        Ok(out)
    }

    /// Record that `page` was durably flushed to `packed_addr` (updates the
    /// small table and cleans the cache entry).
    pub fn mark_page_flushed(&mut self, page: u32, packed_addr: u64) {
        self.small[page as usize] = packed_addr;
        let slot = self.index[page as usize];
        if slot != NIL {
            let p = &mut self.slots[slot as usize];
            p.dirty = false;
            p.rec_lsn = 0;
        }
    }

    // ---- small / tiny table access ----

    pub fn small_addr(&self, page: u32) -> u64 {
        self.small[page as usize]
    }

    /// Directly overwrite a small-table entry (recovery pass 1 relocations).
    pub fn set_small_addr(&mut self, page: u32, packed: u64) {
        self.small[page as usize] = packed;
        // Any cached copy may be stale relative to the relocated page only
        // in identity, not content — content moves verbatim — so the cache
        // stays valid.
    }

    pub fn tiny_addr(&self, small_page: usize) -> u64 {
        self.tiny[small_page]
    }

    pub fn set_tiny_addr(&mut self, small_page: usize, packed: u64) {
        self.tiny[small_page] = packed;
    }

    pub fn tiny(&self) -> &[u64] {
        &self.tiny
    }

    /// Serialize one small-table page (a slice of mapping-page addresses).
    pub fn encode_small_page(&self, small_page: usize) -> Vec<u8> {
        let lo = small_page * self.per_page;
        let hi = ((small_page + 1) * self.per_page).min(self.small.len());
        let mut out = Vec::with_capacity((hi - lo) * 8);
        for &e in &self.small[lo..hi] {
            out.extend_from_slice(&e.to_le_bytes());
        }
        out
    }

    /// Load one small-table page from its flushed bytes (recovery).
    pub fn decode_small_page(&mut self, small_page: usize, payload: &[u8]) -> Result<()> {
        let lo = small_page * self.per_page;
        if !payload.len().is_multiple_of(8) {
            return Err(EleosError::Corrupt("small-table page payload"));
        }
        let out = self
            .small
            .get_mut(lo..lo + payload.len() / 8)
            .ok_or(EleosError::Corrupt("small-table page out of range"))?;
        decode_entries(payload, out);
        Ok(())
    }

    /// Load the tiny table from the checkpoint record.
    pub fn load_tiny(&mut self, tiny: &[u64]) -> Result<()> {
        if tiny.len() != self.tiny.len() {
            return Err(EleosError::Corrupt("tiny table size mismatch"));
        }
        self.tiny.copy_from_slice(tiny);
        Ok(())
    }

    /// Number of cached pages (test introspection).
    pub fn cached_pages(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

/// Decode little-endian packed addresses into `out`, one per 8 bytes
/// (`bytes` holds exactly `out.len()` of them).
fn decode_entries(bytes: &[u8], out: &mut [u64]) {
    debug_assert_eq!(bytes.len(), out.len() * 8);
    for (e, c) in out.iter_mut().zip(bytes.chunks_exact(8)) {
        *e = u64::from_le_bytes(c.try_into().unwrap());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::encode_entry;
    use crate::config::PageMode;
    use eleos_flash::{CostProfile, Geometry, WblockAddr};
    use proptest::prelude::*;

    fn dev() -> FlashDevice {
        FlashDevice::new(Geometry::tiny(), CostProfile::unit())
    }

    fn addr(off: u64, len: u64) -> PhysAddr {
        PhysAddr::new(0, 0, off, len)
    }

    /// The resident pages, in page order.
    fn resident(m: &MappingTable) -> Vec<u32> {
        (0..m.n_pages as u32)
            .filter(|&page| m.index[page as usize] != NIL)
            .collect()
    }

    /// Program one stored LPAGE alone in WBLOCK `n` of channel 0 (in
    /// program order) and return its packed address.
    fn program_entry(d: &mut FlashDevice, n: u32, lpid: Lpid, payload: &[u8]) -> u64 {
        let geo = *d.geometry();
        let stored = encode_entry(lpid, PageKind::of(lpid), payload, PageMode::Variable);
        let mut wblock = vec![0u8; geo.wblock_bytes as usize];
        wblock[..stored.len()].copy_from_slice(&stored);
        let (eblock, w) = (n / geo.wblocks_per_eblock, n % geo.wblocks_per_eblock);
        d.program(WblockAddr::new(0, eblock, w), wblock, &[])
            .unwrap();
        let offset = w as u64 * geo.wblock_bytes as u64;
        PhysAddr::new(0, eblock, offset, stored.len() as u64).pack()
    }

    #[test]
    fn unmapped_lpid_is_none() {
        let mut m = MappingTable::new(1000, 16, 4);
        let mut d = dev();
        assert_eq!(m.get(5, &mut d).unwrap(), None);
    }

    #[test]
    fn set_get_roundtrip_and_old_value() {
        let mut m = MappingTable::new(1000, 16, 4);
        let mut d = dev();
        let a1 = addr(0, 64).pack();
        let a2 = addr(64, 128).pack();
        assert_eq!(m.set(7, a1, 1, &mut d).unwrap(), NULL_PADDR);
        assert_eq!(m.set(7, a2, 2, &mut d).unwrap(), a1);
        assert_eq!(m.get(7, &mut d).unwrap(), PhysAddr::unpack(a2));
    }

    #[test]
    fn conditional_install_semantics() {
        let mut m = MappingTable::new(1000, 16, 4);
        let mut d = dev();
        let a1 = addr(0, 64).pack();
        let a2 = addr(64, 64).pack();
        let a3 = addr(128, 64).pack();
        m.set(9, a1, 1, &mut d).unwrap();
        // Expected-old matches: installed.
        assert!(m.set_if(9, a1, a2, 2, &mut d).unwrap());
        // Stale expected-old: rejected (a user write won the race).
        assert!(!m.set_if(9, a1, a3, 3, &mut d).unwrap());
        assert_eq!(m.get(9, &mut d).unwrap(), PhysAddr::unpack(a2));
    }

    #[test]
    fn dirty_tracking_and_rec_lsn() {
        let mut m = MappingTable::new(1000, 16, 4);
        let mut d = dev();
        assert!(m.min_rec_lsn().is_none());
        m.set(0, addr(0, 64).pack(), 10, &mut d).unwrap();
        m.set(17, addr(64, 64).pack(), 20, &mut d).unwrap(); // page 1
        assert_eq!(m.dirty_pages(), vec![0, 1]);
        assert_eq!(m.min_rec_lsn(), Some(10));
        m.mark_page_flushed(0, addr(4096, 192).pack());
        assert_eq!(m.dirty_pages(), vec![1]);
        assert_eq!(m.min_rec_lsn(), Some(20));
        assert_eq!(m.small_addr(0), addr(4096, 192).pack());
    }

    #[test]
    fn clean_pages_evicted_dirty_retained() {
        let mut m = MappingTable::new(1000, 16, 2);
        let mut d = dev();
        m.set(0, addr(0, 64).pack(), 1, &mut d).unwrap(); // page 0, dirty
        m.get(16, &mut d).unwrap(); // page 1, clean
        m.get(32, &mut d).unwrap(); // page 2 -> must evict page 1 (clean)
        assert!(m.cached_pages() <= 2);
        assert!(m.dirty_pages().contains(&0), "dirty page survived eviction");
    }

    #[test]
    fn reserved_lpid_rejected() {
        let mut m = MappingTable::new(1000, 16, 4);
        let mut d = dev();
        assert!(matches!(
            m.get(MAP_PAGE_BASE, &mut d),
            Err(EleosError::ReservedLpid(_))
        ));
    }

    #[test]
    fn lpid_beyond_max_not_found() {
        let mut m = MappingTable::new(100, 16, 4);
        let mut d = dev();
        assert!(matches!(m.get(5000, &mut d), Err(EleosError::NotFound(_))));
    }

    #[test]
    fn small_page_encode_decode_roundtrip() {
        let mut m = MappingTable::new(1000, 16, 4);
        m.set_small_addr(3, addr(64, 64).pack());
        let bytes = m.encode_small_page(0);
        let mut m2 = MappingTable::new(1000, 16, 4);
        m2.decode_small_page(0, &bytes).unwrap();
        assert_eq!(m2.small_addr(3), addr(64, 64).pack());
    }

    #[test]
    fn lru_never_drops_dirty() {
        let mut m = MappingTable::new(1000, 16, 2);
        let mut d = dev();
        m.set(0, addr(0, 64).pack(), 1, &mut d).unwrap(); // page 0 dirty
        m.set(16, addr(64, 64).pack(), 2, &mut d).unwrap(); // page 1 dirty
        m.get(32, &mut d).unwrap(); // page 2: both candidates dirty -> overflow
        assert_eq!(m.cached_pages(), 3);
        assert!(m.overfull());
        assert_eq!(m.dirty_pages(), vec![0, 1]);
    }

    #[test]
    fn roomy_bound_never_evicts_and_never_overfull() {
        let mut m = MappingTable::new(1000, 16, 1 << 16);
        let mut d = dev();
        for p in 0..10u64 {
            m.get(p * 16, &mut d).unwrap();
        }
        assert_eq!(m.cached_pages(), 10);
        assert!(!m.overfull());
        assert_eq!(m.cache_stats().evictions, 0);
    }

    #[test]
    fn cache_stats_count_hits_and_misses() {
        let mut m = MappingTable::new(1000, 16, 4);
        let mut d = dev();
        m.get(0, &mut d).unwrap(); // miss (never flushed: no flash read)
        m.get(1, &mut d).unwrap(); // hit (same page)
        let s = m.cache_stats();
        assert_eq!((s.misses, s.hits, s.flash_loads), (1, 1, 0));
    }

    /// The pages each access of a scripted mix evicts, in access order, and
    /// the final hit and miss counts. The script runs 12 mapping pages
    /// through a 4-page cache: reads skewed to pages 0-4, writes that pin
    /// pages dirty, and every tenth step a checkpoint that cleans them.
    fn eviction_trace() -> (Vec<u32>, u64, u64) {
        let mut m = MappingTable::new(16 * 12 - 1, 16, 4);
        let mut d = dev();
        let mut evicted = Vec::new();
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        for step in 0..120 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let r = x >> 33;
            let page = if r.is_multiple_of(3) {
                r / 3 % 12
            } else {
                r / 3 % 5
            };
            let lpid = page * 16 + r % 16;
            let before = resident(&m);
            if r.is_multiple_of(7) {
                m.set(lpid, addr(64 * step, 64).pack(), step, &mut d)
                    .unwrap();
            } else {
                m.get(lpid, &mut d).unwrap();
            }
            let after = resident(&m);
            evicted.extend(before.iter().filter(|p| !after.contains(p)));
            if step % 10 == 9 {
                // A checkpoint: flushed pages come back all-unmapped, which
                // is all the replacement order needs.
                for p in m.dirty_pages() {
                    m.mark_page_flushed(p, NULL_PADDR);
                }
            }
        }
        let s = m.cache_stats();
        assert_eq!(s.evictions, evicted.len() as u64);
        (evicted, s.hits, s.misses)
    }

    #[test]
    fn lru_eviction_order_is_pinned() {
        let (evicted, hits, misses) = eviction_trace();
        assert_eq!(
            evicted,
            [
                9, 5, 3, 11, 4, 1, 7, 3, 10, 1, 0, 10, 2, 0, 3, 2, 1, 7, 3, 1, 2, 4, 8, 0, 10, 4,
                6, 4, 3, 2, 0, 7, 4, 1, 3, 6, 11, 5, 2, 4, 1, 9, 3, 8, 1, 0, 3, 2, 4, 10, 6, 7, 1,
                2, 4, 3, 6, 0, 8, 4
            ]
        );
        assert_eq!((hits, misses), (56, 64));
    }

    #[test]
    fn failed_fault_keeps_the_eviction_and_frees_the_slot() {
        let mut m = MappingTable::new(16 * 8 - 1, 16, 2);
        let mut d = dev();
        let a = addr(0, 64).pack();
        m.set(0, a, 1, &mut d).unwrap(); // page 0, flushed below
        let payload = m.encode_page(0, &mut d).unwrap();
        let map0 = program_entry(&mut d, 0, MAP_PAGE_BASE, &payload);
        m.mark_page_flushed(0, map0);
        m.get(16, &mut d).unwrap(); // page 1: the cache is full
        let user = program_entry(&mut d, 1, 5, &[7; 100]);
        m.set_small_addr(2, user);
        assert!(matches!(m.get(32, &mut d), Err(EleosError::Corrupt(_))));
        // Page 0 was evicted and counted before the read; page 2 never
        // became resident, and its slot went back to the free list.
        assert_eq!(resident(&m), [1]);
        assert_eq!(m.cached_pages(), 1);
        let s = m.cache_stats();
        assert_eq!((s.misses, s.flash_loads, s.evictions), (3, 1, 1));
        // The next fault takes that slot without evicting, and none of
        // page 0's entries leak into never-flushed page 3.
        assert_eq!(m.get(48, &mut d).unwrap(), None);
        assert_eq!(resident(&m), [1, 3]);
        assert_eq!(m.cache_stats().evictions, 1);
        // Page 0 reloads from flash in place of page 1, the LRU.
        assert_eq!(m.get(0, &mut d).unwrap(), PhysAddr::unpack(a));
        assert_eq!(resident(&m), [0, 3]);
        let s = m.cache_stats();
        assert_eq!((s.misses, s.flash_loads, s.evictions), (5, 2, 2));
    }

    /// LPIDs per mapping page in the differential scripts.
    const PER: u64 = 4;

    /// One step of a differential script. LPIDs are taken modulo the
    /// table's.
    #[derive(Debug, Clone)]
    enum Op {
        Get(u64),
        Set(u64, u64),
        /// A conditional install whose expected value is current (`true`)
        /// or stale.
        SetIf(u64, bool, u64),
        /// Flush the dirty page this picks (modulo their number), as the
        /// controller's write-back valve does.
        Flush(usize),
        /// Flush every dirty page, as a checkpoint does.
        Checkpoint,
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            4 => (0..1024u64).prop_map(Op::Get),
            3 => (0..1024u64, 0..512u64).prop_map(|(l, v)| Op::Set(l, v)),
            2 => (0..1024u64, any::<bool>(), 0..512u64).prop_map(|(l, c, v)| Op::SetIf(l, c, v)),
            1 => (0..24usize).prop_map(Op::Flush),
            1 => Just(Op::Checkpoint),
        ]
    }

    struct ModelPage {
        page: u32,
        last_used: u64,
        dirty: bool,
        rec_lsn: Lsn,
    }

    /// The replacement rule written as a plain scan: a miss on a full
    /// cache evicts the clean resident page with the smallest tick, and
    /// again while the cache is still at its bound, and overflows when
    /// every resident page is dirty.
    struct Model {
        bound: usize,
        /// The current packed value of every LPID.
        value: Vec<u64>,
        /// Pages with a flash copy: a miss on one is a flash load.
        flushed: Vec<bool>,
        resident: Vec<ModelPage>,
        /// Pages evicted since the last [`Model::take_evicted`].
        evicted: Vec<u32>,
        tick: u64,
        stats: MapCacheStats,
    }

    impl Model {
        fn new(bound: usize, n_pages: usize) -> Self {
            Model {
                bound,
                value: vec![NULL_PADDR; n_pages * PER as usize],
                flushed: vec![false; n_pages],
                resident: Vec::new(),
                evicted: Vec::new(),
                tick: 0,
                stats: MapCacheStats::default(),
            }
        }

        fn access(&mut self, page: u32) -> &mut ModelPage {
            self.tick += 1;
            let i = match self.resident.iter().position(|r| r.page == page) {
                Some(i) => {
                    self.stats.hits += 1;
                    i
                }
                None => {
                    self.stats.misses += 1;
                    while self.resident.len() >= self.bound {
                        let victim = (0..self.resident.len())
                            .filter(|&i| !self.resident[i].dirty)
                            .min_by_key(|&i| self.resident[i].last_used);
                        let Some(v) = victim else { break };
                        self.evicted.push(self.resident.remove(v).page);
                        self.stats.evictions += 1;
                    }
                    self.stats.flash_loads += self.flushed[page as usize] as u64;
                    self.resident.push(ModelPage {
                        page,
                        last_used: 0,
                        dirty: false,
                        rec_lsn: 0,
                    });
                    self.resident.len() - 1
                }
            };
            let r = &mut self.resident[i];
            r.last_used = self.tick;
            r
        }

        fn take_evicted(&mut self) -> Vec<u32> {
            let mut v = std::mem::take(&mut self.evicted);
            v.sort_unstable();
            v
        }

        fn resident_pages(&self) -> Vec<u32> {
            let mut v: Vec<u32> = self.resident.iter().map(|r| r.page).collect();
            v.sort_unstable();
            v
        }

        fn dirty_pages(&self) -> Vec<u32> {
            let mut v: Vec<u32> = self
                .resident
                .iter()
                .filter(|r| r.dirty)
                .map(|r| r.page)
                .collect();
            v.sort_unstable();
            v
        }

        fn min_rec_lsn(&self) -> Option<Lsn> {
            self.resident
                .iter()
                .filter(|r| r.dirty)
                .map(|r| r.rec_lsn)
                .min()
        }
    }

    impl ModelPage {
        fn dirty(&mut self, lsn: Lsn) {
            if !self.dirty {
                self.dirty = true;
                self.rec_lsn = lsn;
            }
        }
    }

    /// Flush `page` as the controller does — encode it, program it as a
    /// mapping LPAGE, mark it flushed — on the table and the model alike.
    fn flush(m: &mut MappingTable, d: &mut FlashDevice, model: &mut Model, n: &mut u32, page: u32) {
        let payload = m.encode_page(page, d).unwrap();
        model.access(page);
        let at = program_entry(d, *n, MAP_PAGE_BASE + page as u64, &payload);
        *n += 1;
        m.mark_page_flushed(page, at);
        model.flushed[page as usize] = true;
        if let Some(r) = model.resident.iter_mut().find(|r| r.page == page) {
            r.dirty = false;
            r.rec_lsn = 0;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The cache against [`Model`] over random scripts: after every
        /// step the same pages were evicted, and the counters, the dirty
        /// set, the minimum rec LSN, overflow and every value read agree.
        /// Each script opens by dirtying one page more than the bound
        /// holds (overflow), checkpointing, and faulting a fresh page,
        /// which must evict two, so a script has at least two pages more
        /// than the bound.
        #[test]
        fn cache_matches_the_scan_model(
            bound in 1usize..=8,
            pages in 4usize..=24,
            ops in prop::collection::vec(op(), 0..160),
        ) {
            let n_pages = pages.max(bound + 2);
            let lpids = n_pages as u64 * PER;
            let geo = Geometry {
                channels: 1,
                eblocks_per_channel: 64,
                wblocks_per_eblock: 128,
                wblock_bytes: 512,
                rblock_bytes: 512,
            };
            let mut d = FlashDevice::new(geo, CostProfile::unit());
            let mut m = MappingTable::new(lpids - 1, PER as usize, bound);
            let mut model = Model::new(bound, n_pages);
            let mut programmed = 0;
            let opening = (0..=bound as u64)
                .map(|p| Op::Set(p * PER, 1))
                .chain([Op::Checkpoint, Op::Get((bound as u64 + 1) * PER)]);
            for (step, op) in opening.chain(ops).enumerate() {
                let lsn = step as Lsn + 1;
                let before = resident(&m);
                match op {
                    Op::Get(lpid) => {
                        let lpid = lpid % lpids;
                        let got = m.get(lpid, &mut d).unwrap();
                        model.access(m.page_of(lpid));
                        prop_assert_eq!(got, PhysAddr::unpack(model.value[lpid as usize]));
                    }
                    Op::Set(lpid, v) => {
                        let lpid = lpid % lpids;
                        let v = addr(64 * v, 64).pack();
                        let old = m.set(lpid, v, lsn, &mut d).unwrap();
                        model.access(m.page_of(lpid)).dirty(lsn);
                        prop_assert_eq!(old, std::mem::replace(&mut model.value[lpid as usize], v));
                    }
                    Op::SetIf(lpid, current, v) => {
                        let lpid = lpid % lpids;
                        let v = addr(64 * v, 64).pack();
                        let now = model.value[lpid as usize];
                        let expected = if current { now } else { now ^ 1 };
                        let done = m.set_if(lpid, expected, v, lsn, &mut d).unwrap();
                        let r = model.access(m.page_of(lpid));
                        prop_assert_eq!(done, current);
                        if current {
                            r.dirty(lsn);
                            model.value[lpid as usize] = v;
                        }
                    }
                    Op::Flush(k) => {
                        let dirty = m.dirty_pages();
                        if !dirty.is_empty() {
                            let page = dirty[k % dirty.len()];
                            flush(&mut m, &mut d, &mut model, &mut programmed, page);
                        }
                    }
                    Op::Checkpoint => {
                        for page in m.dirty_pages() {
                            flush(&mut m, &mut d, &mut model, &mut programmed, page);
                        }
                    }
                }
                let after = resident(&m);
                let evicted: Vec<u32> = before.into_iter().filter(|p| !after.contains(p)).collect();
                prop_assert_eq!(evicted, model.take_evicted(), "step {}", step);
                prop_assert_eq!(&after, &model.resident_pages());
                prop_assert_eq!(m.cached_pages(), after.len());
                prop_assert_eq!(m.cache_stats(), model.stats);
                prop_assert_eq!(m.dirty_pages(), model.dirty_pages());
                prop_assert_eq!(m.min_rec_lsn(), model.min_rec_lsn());
                prop_assert_eq!(m.overfull(), model.resident.len() > bound);
                if step == bound {
                    prop_assert!(m.overfull(), "the opening overflows");
                }
                if step == bound + 2 {
                    prop_assert!(!m.overfull(), "the opening recovers");
                    prop_assert_eq!(m.cache_stats().evictions, 2);
                }
            }
        }
    }

    #[test]
    fn tiny_table_sizing() {
        let m = MappingTable::new(1000, 16, 4);
        // 1001 lpids / 16 = 63 pages; 63 / 16 = 4 small pages.
        assert_eq!(m.n_pages(), 63);
        assert_eq!(m.n_small_pages(), 4);
    }
}
