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
use crate::types::{IntHash, Lpid, Lsn, PageKind, MAP_PAGE_BASE};
use eleos_flash::{Activity, FlashDevice};
use std::collections::HashMap;

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
    /// LRU tick.
    last_used: u64,
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
    /// Resident pages, packed in no particular order, so LRU's victim
    /// search walks a dense vector.
    slots: Vec<CachedPage>,
    /// Slot of each resident page.
    index: HashMap<u32, usize, IntHash>,
    tick: u64,
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
            index: HashMap::default(),
            tick: 0,
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
    /// is one hash probe.
    fn load_page(&mut self, page: u32, dev: &mut FlashDevice) -> Result<&mut CachedPage> {
        self.tick += 1;
        let slot = match self.index.get(&page) {
            Some(&slot) => {
                self.stats.hits += 1;
                slot
            }
            None => self.fault_in(page, dev)?,
        };
        let p = &mut self.slots[slot];
        p.last_used = self.tick;
        Ok(p)
    }

    /// Demand-load an absent mapping page into a new slot, evicting first
    /// if the cache is full. Flash reads are attributed to
    /// [`Activity::MapIo`].
    fn fault_in(&mut self, page: u32, dev: &mut FlashDevice) -> Result<usize> {
        self.stats.misses += 1;
        self.maybe_evict_clean();
        let entries = match PhysAddr::unpack(self.small[page as usize]) {
            None => vec![NULL_PADDR; self.per_page], // never flushed: all unmapped
            Some(addr) => {
                self.stats.flash_loads += 1;
                let prev = dev.telemetry_mut().set_activity(Activity::MapIo);
                let read = dev.read_extent(addr.extent());
                dev.telemetry_mut().set_activity(prev);
                let (bytes, _) = read?;
                let (lpid, kind, plen) = decode_stored_header(&bytes)?;
                if kind != PageKind::MapPage || lpid != MAP_PAGE_BASE + page as u64 {
                    return Err(EleosError::Corrupt("mapping page identity mismatch"));
                }
                decode_map_payload(&bytes[ENTRY_HEADER..ENTRY_HEADER + plen], self.per_page)
                    .ok_or(EleosError::Corrupt("mapping page payload"))?
            }
        };
        let slot = self.slots.len();
        self.slots.push(CachedPage {
            page,
            entries,
            dirty: false,
            rec_lsn: 0,
            last_used: 0,
        });
        self.index.insert(page, slot);
        Ok(slot)
    }

    /// Make room for one incoming page: evict the clean resident page used
    /// least recently. Dirty pages are never dropped — they are flushed by
    /// checkpointing (or an eviction-flush driven by the controller) and
    /// evicted clean later — so with every resident page dirty the cache
    /// overflows its bound until they are.
    fn maybe_evict_clean(&mut self) {
        while self.slots.len() >= self.max_cache {
            let victim = self
                .slots
                .iter()
                .enumerate()
                .filter(|(_, p)| !p.dirty)
                .min_by_key(|(_, p)| p.last_used)
                .map(|(slot, _)| slot);
            let Some(slot) = victim else { break };
            let page = self.slots.swap_remove(slot).page;
            self.index.remove(&page);
            if let Some(moved) = self.slots.get(slot) {
                self.index.insert(moved.page, slot);
            }
            self.stats.evictions += 1;
        }
    }

    /// True when the cache exceeds its bound with dirty pages (the
    /// controller should flush some).
    pub fn overfull(&self) -> bool {
        self.slots.len() > self.max_cache
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
        if let Some(&slot) = self.index.get(&page) {
            let p = &mut self.slots[slot];
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
        let entries = decode_map_payload(payload, payload.len() / 8)
            .ok_or(EleosError::Corrupt("small-table page payload"))?;
        if lo + entries.len() > self.small.len() {
            return Err(EleosError::Corrupt("small-table page out of range"));
        }
        self.small[lo..lo + entries.len()].copy_from_slice(&entries);
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
        self.slots.len()
    }
}

fn decode_map_payload(bytes: &[u8], expect: usize) -> Option<Vec<u64>> {
    if bytes.len() != expect * 8 {
        return None;
    }
    Some(
        bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use eleos_flash::{CostProfile, Geometry};

    fn dev() -> FlashDevice {
        FlashDevice::new(Geometry::tiny(), CostProfile::unit())
    }

    fn addr(off: u64, len: u64) -> PhysAddr {
        PhysAddr::new(0, 0, off, len)
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
        let resident = |m: &MappingTable| -> Vec<u32> {
            let mut v: Vec<u32> = m.slots.iter().map(|p| p.page).collect();
            v.sort_unstable();
            v
        };
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
    fn tiny_table_sizing() {
        let m = MappingTable::new(1000, 16, 4);
        // 1001 lpids / 16 = 63 pages; 63 / 16 = 4 small pages.
        assert_eq!(m.n_pages(), 63);
        assert_eq!(m.n_small_pages(), 4);
    }
}
