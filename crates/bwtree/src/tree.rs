//! The Bw-tree-style key-value store, as modified by the paper for its
//! evaluation (Section IX-A3): update-in-place leaf pages (no delta
//! chains), an in-memory index, a buffer cache sized as a fraction of the
//! dataset, and a 1 MB write buffer flushed to the page store.
//!
//! With ELEOS as the store, the tree needs no host-side mapping-table
//! durability and no host GC — "cached LPAGES are only mapped to their main
//! memory locations"; with the Block store, the host LSS supplies both (at
//! host cost).

use crate::page::LeafPage;
use crate::store::{PageStore, Result, StoreError};
use std::collections::{BTreeMap, HashMap};

/// Tree configuration.
#[derive(Debug, Clone)]
pub struct BwTreeConfig {
    /// Buffer-cache capacity in pages.
    pub cache_pages: usize,
    /// Write-buffer capacity in bytes (the paper uses 1 MB).
    pub write_buffer_bytes: usize,
}

impl Default for BwTreeConfig {
    fn default() -> Self {
        BwTreeConfig {
            cache_pages: 1024,
            write_buffer_bytes: 1024 * 1024,
        }
    }
}

/// Split threshold for a leaf's serialized size. 4000 bytes keeps every
/// page within a 4 KB fixed slot (header included) in FP/Block modes.
const MAX_PAGE_BYTES: usize = 4000;

/// Host CPU cost per application operation.
const OP_COST_NS: u64 = 1_500;

/// Operation counters.
#[derive(Debug, Clone, Default)]
pub struct BwStats {
    pub gets: u64,
    pub upserts: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub pages_flushed: u64,
    pub flushes: u64,
    pub splits: u64,
}

#[derive(Debug)]
struct Cached {
    page: LeafPage,
    dirty: bool,
    tick: u64,
}

/// The key-value store over a pluggable [`PageStore`].
pub struct BwTree<S: PageStore> {
    store: S,
    cfg: BwTreeConfig,
    /// Separator key → page id. The sentinel entry at key 0 covers the
    /// whole key space.
    index: BTreeMap<u64, u64>,
    cache: HashMap<u64, Cached>,
    /// Staged dirty pages awaiting the next flush: pid → encoded bytes.
    wbuf: Vec<(u64, Vec<u8>)>,
    wbuf_slot: HashMap<u64, usize>,
    wbuf_bytes: usize,
    next_pid: u64,
    tick: u64,
    stats: BwStats,
}

impl<S: PageStore> BwTree<S> {
    pub fn new(store: S, cfg: BwTreeConfig) -> Self {
        assert!(cfg.cache_pages >= 2, "cache must hold at least two pages");
        let mut index = BTreeMap::new();
        index.insert(0u64, 0u64);
        let mut cache = HashMap::new();
        cache.insert(
            0,
            Cached {
                page: LeafPage::new(),
                dirty: true,
                tick: 0,
            },
        );
        BwTree {
            store,
            cfg,
            index,
            cache,
            wbuf: Vec::new(),
            wbuf_slot: HashMap::new(),
            wbuf_bytes: 0,
            next_pid: 1,
            tick: 0,
            stats: BwStats::default(),
        }
    }

    pub fn stats(&self) -> &BwStats {
        &self.stats
    }

    pub fn store(&self) -> &S {
        &self.store
    }

    pub fn store_mut(&mut self) -> &mut S {
        &mut self.store
    }

    pub fn now(&self) -> u64 {
        self.store.now()
    }

    /// Resize the buffer cache (e.g. to a fraction of the *actual* page
    /// count once the load phase is complete). Excess pages are evicted
    /// immediately.
    pub fn set_cache_pages(&mut self, pages: usize) -> Result<()> {
        self.cfg.cache_pages = pages.max(2);
        self.evict_for_room()
    }

    /// Number of leaf pages in the tree.
    pub fn page_count(&self) -> usize {
        self.index.len()
    }

    fn locate(&self, key: u64) -> u64 {
        *self
            .index
            .range(..=key)
            .next_back()
            .expect("sentinel guarantees a leaf")
            .1
    }

    /// Bring a page into the cache, reading from the write buffer or the
    /// store as needed.
    fn load(&mut self, pid: u64) -> Result<()> {
        self.tick += 1;
        if let Some(c) = self.cache.get_mut(&pid) {
            c.tick = self.tick;
            self.stats.cache_hits += 1;
            return Ok(());
        }
        self.stats.cache_misses += 1;
        let page = if let Some(&slot) = self.wbuf_slot.get(&pid) {
            LeafPage::decode(&self.wbuf[slot].1)
                .ok_or_else(|| StoreError::Backend("corrupt staged page".into()))?
        } else {
            let bytes = self.store.read_page(pid)?;
            LeafPage::decode(&bytes)
                .ok_or_else(|| StoreError::Backend("corrupt stored page".into()))?
        };
        self.evict_for_room()?;
        self.cache.insert(
            pid,
            Cached {
                page,
                dirty: false,
                tick: self.tick,
            },
        );
        Ok(())
    }

    fn evict_for_room(&mut self) -> Result<()> {
        while self.cache.len() >= self.cfg.cache_pages {
            // Tie-break equal ticks by pid: HashMap iteration order is
            // randomized per process, and the victim choice feeds back into
            // the simulated write stream, so `min_by_key(tick)` alone makes
            // whole experiment runs non-reproducible.
            let victim = self
                .cache
                .iter()
                .min_by_key(|(&pid, c)| (c.tick, pid))
                .map(|(&pid, _)| pid)
                .expect("cache not empty");
            let c = self.cache.remove(&victim).unwrap();
            if c.dirty {
                self.stage(victim, c.page.encode())?;
            }
        }
        Ok(())
    }

    /// Stage an encoded dirty page into the write buffer; flush when the
    /// buffer reaches its budget.
    fn stage(&mut self, pid: u64, bytes: Vec<u8>) -> Result<()> {
        match self.wbuf_slot.get(&pid) {
            Some(&slot) => {
                self.wbuf_bytes = self.wbuf_bytes - self.wbuf[slot].1.len() + bytes.len();
                self.wbuf[slot].1 = bytes;
            }
            None => {
                self.wbuf_bytes += bytes.len();
                self.wbuf_slot.insert(pid, self.wbuf.len());
                self.wbuf.push((pid, bytes));
            }
        }
        if self.wbuf_bytes >= self.cfg.write_buffer_bytes {
            self.flush_write_buffer()?;
        }
        Ok(())
    }

    /// Flush the staged write buffer as one batch (the paper's 1 MB flush).
    pub fn flush_write_buffer(&mut self) -> Result<()> {
        if self.wbuf.is_empty() {
            return Ok(());
        }
        let staged = std::mem::take(&mut self.wbuf);
        self.wbuf_slot.clear();
        self.wbuf_bytes = 0;
        self.stats.pages_flushed += staged.len() as u64;
        self.stats.flushes += 1;
        self.store.write_batch(&staged)?;
        self.store.maintenance()?;
        Ok(())
    }

    /// Read the value for `key`.
    pub fn get(&mut self, key: u64) -> Result<Option<Vec<u8>>> {
        self.store.host_cpu(OP_COST_NS);
        self.stats.gets += 1;
        let pid = self.locate(key);
        self.load(pid)?;
        Ok(self.cache[&pid].page.get(key).map(|v| v.to_vec()))
    }

    /// Insert or update a record (update-in-place, per the modified
    /// Bw-tree).
    pub fn upsert(&mut self, key: u64, value: Vec<u8>) -> Result<()> {
        self.store.host_cpu(OP_COST_NS);
        self.stats.upserts += 1;
        let pid = self.locate(key);
        self.load(pid)?;
        let c = self.cache.get_mut(&pid).unwrap();
        c.page.upsert(key, value);
        c.dirty = true;
        if c.page.size() > MAX_PAGE_BYTES {
            self.split(pid)?;
        }
        Ok(())
    }

    fn split(&mut self, pid: u64) -> Result<()> {
        self.stats.splits += 1;
        let c = self.cache.get_mut(&pid).unwrap();
        let right = c.page.split();
        let right_key = right.first_key().expect("split yields non-empty right");
        let right_pid = self.next_pid;
        self.next_pid += 1;
        self.index.insert(right_key, right_pid);
        self.tick += 1;
        let tick = self.tick;
        self.evict_for_room()?;
        self.cache.insert(
            right_pid,
            Cached {
                page: right,
                dirty: true,
                tick,
            },
        );
        Ok(())
    }

    /// Flush every dirty page (end of load phase / shutdown).
    pub fn flush_all(&mut self) -> Result<()> {
        let mut dirty: Vec<u64> = self
            .cache
            .iter()
            .filter(|(_, c)| c.dirty)
            .map(|(&pid, _)| pid)
            .collect();
        // Deterministic flush order (HashMap iteration order is not).
        dirty.sort_unstable();
        for pid in dirty {
            let bytes = {
                let c = self.cache.get_mut(&pid).unwrap();
                c.dirty = false;
                c.page.encode()
            };
            self.stage(pid, bytes)?;
        }
        self.flush_write_buffer()
    }

    /// Average serialized leaf size over cached pages (diagnostics: the
    /// ~70% utilization claim).
    pub fn avg_cached_page_size(&self) -> f64 {
        if self.cache.is_empty() {
            return 0.0;
        }
        self.cache.values().map(|c| c.page.size()).sum::<usize>() as f64
            / self.cache.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::EleosStore;
    use eleos::{Eleos, EleosConfig, PageMode};
    use eleos_flash::{CostProfile, FlashDevice, Geometry};

    fn tree(cache_pages: usize, mode: PageMode) -> BwTree<EleosStore> {
        let dev = FlashDevice::new(Geometry::tiny(), CostProfile::unit());
        let cfg = EleosConfig {
            page_mode: mode,
            ckpt_log_bytes: 1024 * 1024,
            max_user_lpid: 1 << 16,
            ..EleosConfig::test_small()
        };
        let ssd = Eleos::format(dev, cfg).unwrap();
        BwTree::new(
            EleosStore::new(ssd),
            BwTreeConfig {
                cache_pages,
                write_buffer_bytes: 64 * 1024,
            },
        )
    }

    fn value(k: u64, v: u64) -> Vec<u8> {
        let mut out = vec![0u8; 100];
        out[..8].copy_from_slice(&k.to_le_bytes());
        out[8..16].copy_from_slice(&v.to_le_bytes());
        out
    }

    #[test]
    fn insert_get_in_memory() {
        let mut t = tree(64, PageMode::Variable);
        for k in 0..100u64 {
            t.upsert(k, value(k, 0)).unwrap();
        }
        for k in 0..100u64 {
            assert_eq!(t.get(k).unwrap(), Some(value(k, 0)));
        }
        assert_eq!(t.get(1000).unwrap(), None);
    }

    #[test]
    fn splits_create_pages_with_expected_utilization() {
        let mut t = tree(256, PageMode::Variable);
        for k in 0..3000u64 {
            t.upsert(k, value(k, 0)).unwrap();
        }
        assert!(t.stats().splits > 10);
        assert!(t.page_count() > 10);
        // Post-split pages sit between half and fully full.
        let avg = t.avg_cached_page_size();
        assert!(
            avg > 1500.0 && avg < 4000.0,
            "avg page size {avg} out of expected band"
        );
    }

    #[test]
    fn eviction_under_small_cache_roundtrips_through_store() {
        let mut t = tree(4, PageMode::Variable);
        for k in 0..2000u64 {
            t.upsert(k, value(k, 1)).unwrap();
        }
        assert!(t.stats().flushes > 0, "write buffer must have flushed");
        for k in (0..2000u64).step_by(7) {
            assert_eq!(t.get(k).unwrap(), Some(value(k, 1)), "key {k}");
        }
        assert!(t.stats().cache_misses > 0, "cache must thrash on re-reads");
    }

    #[test]
    fn overwrites_visible_after_eviction_cycles() {
        let mut t = tree(4, PageMode::Variable);
        for k in 0..500u64 {
            t.upsert(k, value(k, 1)).unwrap();
        }
        for k in 0..500u64 {
            t.upsert(k, value(k, 2)).unwrap();
        }
        for k in (0..500u64).step_by(3) {
            assert_eq!(t.get(k).unwrap(), Some(value(k, 2)), "key {k}");
        }
    }

    #[test]
    fn fixed_page_mode_also_roundtrips() {
        let mut t = tree(4, PageMode::Fixed(4096));
        for k in 0..800u64 {
            t.upsert(k, value(k, 3)).unwrap();
        }
        t.flush_all().unwrap();
        for k in (0..800u64).step_by(11) {
            assert_eq!(t.get(k).unwrap(), Some(value(k, 3)), "key {k}");
        }
    }

    #[test]
    fn flush_all_makes_everything_durable_via_store() {
        let mut t = tree(64, PageMode::Variable);
        for k in 0..300u64 {
            t.upsert(k, value(k, 4)).unwrap();
        }
        t.flush_all().unwrap();
        // Every page is now reachable purely through the store.
        let pids: Vec<u64> = t.index.values().copied().collect();
        for pid in pids {
            assert!(t.store_mut().read_page(pid).is_ok(), "pid {pid}");
        }
    }

    #[test]
    fn time_advances_with_io_not_just_ops() {
        let mut t = tree(4, PageMode::Variable);
        let t0 = t.now();
        for k in 0..1000u64 {
            t.upsert(k, value(k, 0)).unwrap();
        }
        assert!(t.now() > t0);
    }
}
