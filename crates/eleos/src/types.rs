//! Core identifier types and the LPID namespace.

/// Logical page ID. Applications use the low namespace; the FTL's own table
/// pages (mapping table, small table, EBLOCK summary table) are stored as
/// LPAGEs too (Section VIII-C1 — GC moves them like any other page) and live
/// in reserved high ranges.
pub type Lpid = u64;

/// Log sequence number.
pub type Lsn = u64;

/// Update sequence number — the paper's proxy for time (footnote 1). One USN
/// is assigned per LPAGE written.
pub type Usn = u64;

/// Session ID ("SIDs are random numbers assigned by the SSD").
pub type Sid = u64;

/// Write sequence number within a session; starts at 1.
pub type Wsn = u64;

/// System action ID (internal, monotonic).
pub type ActionId = u64;

/// LPAGE payloads are aligned to 64 bytes "to reduce the overhead for
/// storing the LPAGE length" (Section III-A); the smallest LPAGE is also
/// 64 bytes.
pub const LPAGE_ALIGN: usize = 64;

/// Round `n` up to the LPAGE alignment.
#[inline]
pub const fn align_lpage(n: usize) -> usize {
    (n + LPAGE_ALIGN - 1) & !(LPAGE_ALIGN - 1)
}

/// First LPID of the mapping-table-page range.
pub const MAP_PAGE_BASE: Lpid = 1 << 40;
/// First LPID of the small-table-page range (small table indexes mapping
/// pages; Section III-B).
pub const SMALL_PAGE_BASE: Lpid = 1 << 41;
/// First LPID of the EBLOCK-summary-table-page range.
pub const SUMMARY_PAGE_BASE: Lpid = 1 << 42;

/// What kind of page an LPID denotes. Stored as the `type` byte in EBLOCK
/// metadata (Section IV-A1) so GC knows which address table to consult.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum PageKind {
    /// Application data.
    User = 0,
    /// A page of the mapping table.
    MapPage = 1,
    /// A page of the small table (index over mapping pages).
    SmallPage = 2,
    /// A page of the EBLOCK summary table.
    SummaryPage = 3,
}

impl PageKind {
    /// Classify an LPID.
    #[inline]
    pub fn of(lpid: Lpid) -> PageKind {
        if lpid >= SUMMARY_PAGE_BASE {
            PageKind::SummaryPage
        } else if lpid >= SMALL_PAGE_BASE {
            PageKind::SmallPage
        } else if lpid >= MAP_PAGE_BASE {
            PageKind::MapPage
        } else {
            PageKind::User
        }
    }

    /// Page index within its table, for table-page LPIDs.
    #[inline]
    pub fn table_index(lpid: Lpid) -> u64 {
        match PageKind::of(lpid) {
            PageKind::User => panic!("user lpid {lpid} has no table index"),
            PageKind::MapPage => lpid - MAP_PAGE_BASE,
            PageKind::SmallPage => lpid - SMALL_PAGE_BASE,
            PageKind::SummaryPage => lpid - SUMMARY_PAGE_BASE,
        }
    }

    pub fn from_u8(b: u8) -> Option<PageKind> {
        match b {
            0 => Some(PageKind::User),
            1 => Some(PageKind::MapPage),
            2 => Some(PageKind::SmallPage),
            3 => Some(PageKind::SummaryPage),
            _ => None,
        }
    }
}

/// The kind of write a system action performs. Determines which open EBLOCK
/// receives the data (Fig. 3: one open EBLOCK per type of write) and which
/// commit/install semantics apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActionKind {
    /// A user write buffer, optionally ordered within a session.
    User,
    /// Garbage-collection relocation (conditional install).
    Gc,
    /// Checkpoint flushing table pages (installs into small/summary tables).
    Ckpt,
    /// Write-failure migration (GC semantics, sourced from an open EBLOCK).
    Migrate,
}

/// `HashMap` / `HashSet` state for integer keys (the LPIDs of GC's
/// validity-scan seen-set): one multiply per key where the std default
/// runs SipHash. The multiplier is odd and drawn at random per table, as
/// `RandomState` draws its keys, so clients cannot choose LPIDs that
/// collide. The seen-set is only probed, never iterated, so the hasher
/// moves host time only, never the simulation.
#[derive(Debug, Clone)]
pub(crate) struct IntHash(u64);

impl Default for IntHash {
    fn default() -> Self {
        use std::hash::BuildHasher;
        IntHash(std::collections::hash_map::RandomState::new().hash_one(0u64) | 1)
    }
}

impl std::hash::BuildHasher for IntHash {
    type Hasher = IntHasher;

    fn build_hasher(&self) -> IntHasher {
        IntHasher { mul: self.0, h: 0 }
    }
}

/// The hasher [`IntHash`] builds.
pub(crate) struct IntHasher {
    mul: u64,
    h: u64,
}

impl std::hash::Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b.into());
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.h = (self.h ^ n).wrapping_mul(self.mul);
    }

    fn finish(&self) -> u64 {
        // The product's high bits are its best mixed; tables index buckets
        // by the low ones.
        self.h.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn align_rounds_up_to_64() {
        assert_eq!(align_lpage(0), 0);
        assert_eq!(align_lpage(1), 64);
        assert_eq!(align_lpage(64), 64);
        assert_eq!(align_lpage(65), 128);
        assert_eq!(align_lpage(4096), 4096);
    }

    #[test]
    fn page_kind_classification() {
        assert_eq!(PageKind::of(0), PageKind::User);
        assert_eq!(PageKind::of(MAP_PAGE_BASE - 1), PageKind::User);
        assert_eq!(PageKind::of(MAP_PAGE_BASE + 5), PageKind::MapPage);
        assert_eq!(PageKind::of(SMALL_PAGE_BASE), PageKind::SmallPage);
        assert_eq!(PageKind::of(SUMMARY_PAGE_BASE + 9), PageKind::SummaryPage);
    }

    #[test]
    fn table_index_strips_base() {
        assert_eq!(PageKind::table_index(MAP_PAGE_BASE + 7), 7);
        assert_eq!(PageKind::table_index(SUMMARY_PAGE_BASE), 0);
    }

    #[test]
    #[should_panic(expected = "no table index")]
    fn user_lpid_has_no_table_index() {
        PageKind::table_index(42);
    }

    #[test]
    fn kind_byte_roundtrip() {
        for k in [
            PageKind::User,
            PageKind::MapPage,
            PageKind::SmallPage,
            PageKind::SummaryPage,
        ] {
            assert_eq!(PageKind::from_u8(k as u8), Some(k));
        }
        assert_eq!(PageKind::from_u8(99), None);
    }
}
