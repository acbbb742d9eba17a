//! ELEOS configuration.

/// Page sizing discipline across the I/O interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageMode {
    /// Variable-size pages, 64-byte aligned (this paper's contribution).
    Variable,
    /// Fixed-size pages of the given stored size: every LPAGE occupies
    /// exactly this many flash bytes regardless of payload length. This is
    /// the prior DaMoN'19 controller ("Batch (FP)" in the evaluation).
    Fixed(u32),
}

/// GC victim-selection policy. The paper uses min-cost-decline (Section
/// VI-A); the alternatives exist for the policy-lab ablation in
/// EXPERIMENTS.md (write amplification / GC busy share / p99 latency at
/// 70/80/90% utilization).
///
/// The discriminants seed each policy's lab workload, so they are fixed:
/// deleting a policy (2 was the LFS cost-benefit cleaner) reseeds no other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GcPolicy {
    /// Score = (1 − E) / (E² · age); smallest scores selected (the paper's
    /// strategy, from Lomet et al., "Efficiently reclaiming space in a log
    /// structured store").
    MinCostDecline = 0,
    /// Select EBLOCKs with most reclaimable space first.
    Greedy = 1,
    /// Greedy restricted to the 8 oldest closed EBLOCKs per channel
    /// (`GREEDY_WINDOW` in the GC module): an age window keeps hot EBLOCKs
    /// (still accruing garbage) out of consideration without full cost
    /// modelling.
    WindowedGreedy = 3,
    /// Greedy discounted by lifetime erase count: a heavily erased EBLOCK
    /// looks proportionally less attractive, steering erases toward
    /// less-worn blocks (victim-side wear leveling; allocation is FIFO).
    WearAware = 4,
    /// Select oldest EBLOCKs first (LLAMA's circular-buffer strategy).
    Oldest = 5,
}

impl GcPolicy {
    /// Every policy, in ablation-table order.
    pub const ALL: [GcPolicy; 5] = [
        GcPolicy::MinCostDecline,
        GcPolicy::Greedy,
        GcPolicy::WindowedGreedy,
        GcPolicy::WearAware,
        GcPolicy::Oldest,
    ];

    /// Stable snake_case name: the policy lab's row key.
    pub fn label(self) -> &'static str {
        match self {
            GcPolicy::MinCostDecline => "min_cost_decline",
            GcPolicy::Greedy => "greedy",
            GcPolicy::WindowedGreedy => "windowed_greedy",
            GcPolicy::WearAware => "wear_aware",
            GcPolicy::Oldest => "oldest",
        }
    }
}

/// Garbage-collection knobs, gathered in one sub-struct (they travel
/// together: a policy-lab run swaps the whole group at once).
#[derive(Debug, Clone)]
pub struct GcConfig {
    /// Victim selection policy.
    pub policy: GcPolicy,
    /// Fraction of free EBLOCKs per channel below which GC is triggered
    /// (Section IV-A1: "lower than 10%").
    pub free_watermark: f64,
    /// Fraction of free EBLOCKs GC tries to restore per run.
    pub free_target: f64,
    /// Number of open EBLOCKs per channel dedicated to GC writes, used for
    /// age-binned cold/hot separation (Section VI-B). With 0, GC writes
    /// share the user open EBLOCK: the paper always separates them, so 0 is
    /// an ablation.
    pub open_bins: usize,
}

impl Default for GcConfig {
    fn default() -> Self {
        GcConfig {
            policy: GcPolicy::MinCostDecline,
            free_watermark: 0.10,
            free_target: 0.15,
            open_bins: 3,
        }
    }
}

/// Tunables for the ELEOS controller.
#[derive(Debug, Clone)]
pub struct EleosConfig {
    /// Page sizing across the interface.
    pub page_mode: PageMode,
    /// Garbage collection: victim policy, watermarks, hot/cold binning and
    /// failure-path retry bounds.
    pub gc: GcConfig,
    /// Bytes of log appended between automatic fuzzy checkpoints
    /// (Section VIII-B "regularly performs fuzzy checkpointing").
    pub ckpt_log_bytes: u64,
    /// Mapping-table entries per mapping page.
    pub map_entries_per_page: usize,
    /// Maximum mapping (translation) pages held in the in-memory cache;
    /// a fault beyond the bound evicts the least-recently-used clean page,
    /// and dirty pages are flushed first (Section III-B: the mapping table
    /// is "too large to be totally cached in memory" — translation pages
    /// live in EBLOCKs like data and fault in on demand).
    pub mapping_cache_pages: usize,
    /// Highest application LPID supported (pre-sizes the mapping table).
    pub max_user_lpid: u64,
    /// Number of standby EBLOCKs kept ready for the log's forward-pointer
    /// fallback chain (Section VIII-A provisions three next locations).
    pub log_standby_eblocks: usize,
    /// Retire an EBLOCK permanently once it has accumulated this many
    /// failed WBLOCK programs over its lifetime (failure counts survive
    /// the erase that heals a poisoned block). Retired blocks never
    /// re-enter a free list, so a persistently bad region stops being
    /// re-provisioned after a bounded number of heal cycles. `0` disables
    /// retirement (every failure is treated as transient, the pre-PR-3
    /// behaviour).
    pub retire_program_failures: u16,
    /// Simulated-time telemetry (DESIGN.md §10): latency spans, the
    /// resource × activity attribution ledger, and the structured event
    /// ring. Recording is passive — it never touches the clock, the RNG or
    /// control flow — so a run with telemetry off is tick- and
    /// byte-identical to the same run with it on (enforced by proptest).
    /// Off reduces every record site to one branch.
    pub telemetry: bool,
}

impl Default for EleosConfig {
    fn default() -> Self {
        EleosConfig {
            page_mode: PageMode::Variable,
            gc: GcConfig::default(),
            ckpt_log_bytes: 4 * 1024 * 1024,
            map_entries_per_page: 256,
            mapping_cache_pages: 1024,
            max_user_lpid: 1 << 20,
            log_standby_eblocks: 2,
            retire_program_failures: 4,
            telemetry: true,
        }
    }
}

impl EleosConfig {
    /// Config for unit tests: small mapping pages and tiny cache so paging
    /// paths are exercised even by small tests.
    pub fn test_small() -> Self {
        EleosConfig {
            ckpt_log_bytes: u64::MAX, // explicit checkpoints only
            map_entries_per_page: 16,
            mapping_cache_pages: 8,
            max_user_lpid: 4096,
            ..Default::default()
        }
    }

    /// Stored size of a page holding `payload_len` bytes plus the entry
    /// header, under this config's page mode.
    pub fn stored_len(&self, entry_len: usize) -> usize {
        match self.page_mode {
            PageMode::Variable => crate::types::align_lpage(entry_len),
            PageMode::Fixed(sz) => {
                debug_assert!(entry_len <= sz as usize);
                sz as usize
            }
        }
    }

    /// Largest permissible entry (header + payload) in bytes.
    pub fn max_entry_len(&self) -> usize {
        match self.page_mode {
            // Bounded by the 20-bit 64-byte-unit length field of PhysAddr.
            PageMode::Variable => ((1usize << 20) - 1) * 64,
            PageMode::Fixed(sz) => sz as usize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stored_len_variable_aligns() {
        let c = EleosConfig::default();
        assert_eq!(c.stored_len(1), 64);
        assert_eq!(c.stored_len(100), 128);
        assert_eq!(c.stored_len(4096), 4096);
    }

    #[test]
    fn stored_len_fixed_pads_to_page() {
        let c = EleosConfig {
            page_mode: PageMode::Fixed(4096),
            ..Default::default()
        };
        assert_eq!(c.stored_len(1), 4096);
        assert_eq!(c.stored_len(2000), 4096);
        assert_eq!(c.max_entry_len(), 4096);
    }

    #[test]
    fn defaults_match_paper_thresholds() {
        let c = EleosConfig::default();
        assert!((c.gc.free_watermark - 0.10).abs() < 1e-9);
        assert_eq!(c.gc.open_bins, 3);
        assert_eq!(c.gc.policy, GcPolicy::MinCostDecline);
    }

    #[test]
    fn gc_policy_labels_are_unique() {
        let mut labels: Vec<_> = GcPolicy::ALL.iter().map(|p| p.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), GcPolicy::ALL.len());
    }
}
