//! Emulated erase block: data storage plus NAND programming-rule enforcement.
//!
//! Storage is one refcounted [`Bytes`] per programmed WBLOCK. NAND contents
//! are immutable between program and erase, so handing out `Bytes` views of
//! the stored buffers is safe: a program stores the caller's buffer without
//! copying, and reads within one WBLOCK are O(1) slices of it. `erase()`
//! merely drops the refcounts — outstanding readers keep their data alive,
//! mirroring how a real controller's DMA'd read buffers survive the erase of
//! their source block.

use crate::error::{FlashError, Result};
use crate::geometry::{Geometry, TAG_BYTES_PER_RBLOCK};
use bytes::Bytes;

/// In-memory state of one erase block.
///
/// WBLOCK buffers are adopted on program and dropped on erase, so a
/// mostly-empty emulated device costs little memory.
#[derive(Debug, Default)]
pub(crate) struct EblockSim {
    /// One refcounted buffer per programmed WBLOCK, in program order
    /// (programs must be sequential, so index == wblock number).
    wblocks: Vec<Bytes>,
    /// Out-of-band TAG bytes, 16 per RBLOCK, parallel to `wblocks`.
    tags: Option<Box<[u8]>>,
    /// Set when a program fails; all further programs fail until erase
    /// (Section VII: "when a WBLOCK cannot be written, subsequent WBLOCKs of
    /// the same EBLOCK cannot be written either").
    poisoned: bool,
    /// Lifetime erase count (endurance/wear-leveling accounting).
    erase_count: u32,
}

impl EblockSim {
    pub(crate) fn programmed_wblocks(&self) -> u32 {
        self.wblocks.len() as u32
    }

    pub(crate) fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    pub(crate) fn erase_count(&self) -> u32 {
        self.erase_count
    }

    /// Record a failed program attempt: the partially-programmed EBLOCK can
    /// no longer accept writes.
    pub(crate) fn poison(&mut self) {
        self.poisoned = true;
    }

    /// Validate that `wblock` is the next programmable page, without
    /// modifying anything.
    pub(crate) fn check_programmable(
        &self,
        geo: &Geometry,
        wblock: u32,
    ) -> std::result::Result<(), ProgramCheck> {
        let programmed = self.programmed_wblocks();
        if self.poisoned {
            return Err(ProgramCheck::Poisoned);
        }
        if programmed >= geo.wblocks_per_eblock {
            return Err(ProgramCheck::Full);
        }
        if wblock < programmed {
            return Err(ProgramCheck::Rewrite);
        }
        if wblock != programmed {
            return Err(ProgramCheck::OutOfOrder {
                expected: programmed,
            });
        }
        Ok(())
    }

    /// Commit a successful program of `wblock` (already validated): adopt
    /// the caller's buffer without copying.
    pub(crate) fn apply_program(&mut self, geo: &Geometry, wblock: u32, data: Bytes, tag: &[u8]) {
        debug_assert_eq!(wblock, self.programmed_wblocks());
        debug_assert_eq!(data.len(), geo.wblock_bytes as usize);
        self.wblocks.push(data);

        if !tag.is_empty() {
            let tag_area = geo.rblocks_per_eblock() as usize * TAG_BYTES_PER_RBLOCK;
            let tags = self
                .tags
                .get_or_insert_with(|| vec![0u8; tag_area].into_boxed_slice());
            let per_wblock = geo.rblocks_per_wblock() as usize * TAG_BYTES_PER_RBLOCK;
            let toff = wblock as usize * per_wblock;
            let n = tag.len().min(per_wblock);
            tags[toff..toff + n].copy_from_slice(&tag[..n]);
        }
    }

    /// Read `len` bytes starting at `offset` within the EBLOCK. When the
    /// range lies inside one programmed WBLOCK this is a zero-copy slice;
    /// a spanning read assembles the WBLOCK pieces into one fresh buffer.
    /// The caller has already verified RBLOCK alignment and programmed-ness.
    pub(crate) fn read_bytes(&self, geo: &Geometry, offset: usize, len: usize) -> Bytes {
        let wb = geo.wblock_bytes as usize;
        let first = offset / wb;
        let within = offset % wb;
        if within + len <= wb {
            return self.wblocks[first].slice(within..within + len);
        }
        let mut out = Vec::with_capacity(len);
        let mut at = offset;
        let end = offset + len;
        while at < end {
            let w = at / wb;
            let lo = at % wb;
            let hi = (end - w * wb).min(wb);
            out.extend_from_slice(&self.wblocks[w][lo..hi]);
            at = w * wb + hi;
        }
        Bytes::from(out)
    }

    /// Read the TAG bytes of one WBLOCK's RBLOCKs.
    pub(crate) fn read_tag(&self, geo: &Geometry, wblock: u32) -> Bytes {
        let per_wblock = geo.rblocks_per_wblock() as usize * TAG_BYTES_PER_RBLOCK;
        match &self.tags {
            Some(tags) => {
                let off = wblock as usize * per_wblock;
                Bytes::copy_from_slice(&tags[off..off + per_wblock])
            }
            None => Bytes::from(vec![0u8; per_wblock]),
        }
    }

    /// Is the RBLOCK at `rblock` (EBLOCK-relative) inside the programmed
    /// region?
    pub(crate) fn rblock_programmed(&self, geo: &Geometry, rblock: u32) -> bool {
        rblock < self.programmed_wblocks() * geo.rblocks_per_wblock()
    }

    /// Erase: drop the WBLOCK refcounts, clear poison, bump wear.
    /// Outstanding `Bytes` handed out by reads stay valid — they own a
    /// refcount on the old buffers.
    pub(crate) fn erase(&mut self) {
        self.wblocks.clear();
        self.tags = None;
        self.poisoned = false;
        self.erase_count += 1;
    }
}

/// Internal programming-rule verdicts, converted to [`FlashError`] by the
/// device (which knows the full address).
#[derive(Debug)]
pub(crate) enum ProgramCheck {
    Poisoned,
    Full,
    Rewrite,
    OutOfOrder { expected: u32 },
}

impl ProgramCheck {
    pub(crate) fn into_error(self, addr: crate::addr::WblockAddr) -> FlashError {
        match self {
            ProgramCheck::Poisoned => FlashError::EblockPoisoned(addr.eblock),
            ProgramCheck::Full => FlashError::EblockFull(addr.eblock),
            ProgramCheck::Rewrite => FlashError::ProgramBeforeErase(addr),
            ProgramCheck::OutOfOrder { expected } => FlashError::OutOfOrderProgram {
                addr,
                expected_next: expected,
            },
        }
    }
}

/// Re-exported for device module use.
pub(crate) fn _silence_unused(_: &Result<()>) {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_program_and_read() {
        let geo = Geometry::tiny();
        let mut eb = EblockSim::default();
        let data = Bytes::from(vec![0xAB; geo.wblock_bytes as usize]);
        eb.check_programmable(&geo, 0).map_err(|_| ()).unwrap();
        eb.apply_program(&geo, 0, data, &[]);
        assert_eq!(eb.programmed_wblocks(), 1);
        let out = eb.read_bytes(&geo, 100, 16);
        assert_eq!(out, vec![0xAB; 16]);
    }

    #[test]
    fn single_wblock_read_is_zero_copy() {
        let geo = Geometry::tiny();
        let mut eb = EblockSim::default();
        let buf = Bytes::from(vec![7u8; geo.wblock_bytes as usize]);
        eb.apply_program(&geo, 0, buf.clone(), &[]);
        let view = eb.read_bytes(&geo, 8, 32);
        // Shares the same backing allocation: joining the two views of the
        // original buffer succeeds, which only happens for the same Arc.
        assert!(buf.slice(0..8).try_join(&view).is_some());
    }

    #[test]
    fn spanning_read_assembles() {
        let geo = Geometry::tiny();
        let wb = geo.wblock_bytes as usize;
        let mut eb = EblockSim::default();
        eb.apply_program(&geo, 0, Bytes::from(vec![1u8; wb]), &[]);
        eb.apply_program(&geo, 1, Bytes::from(vec![2u8; wb]), &[]);
        let out = eb.read_bytes(&geo, wb - 4, 8);
        assert_eq!(out, [1, 1, 1, 1, 2, 2, 2, 2]);
    }

    #[test]
    fn out_of_order_program_rejected() {
        let geo = Geometry::tiny();
        let eb = EblockSim::default();
        assert!(matches!(
            eb.check_programmable(&geo, 2),
            Err(ProgramCheck::OutOfOrder { expected: 0 })
        ));
    }

    #[test]
    fn rewrite_rejected_until_erase() {
        let geo = Geometry::tiny();
        let mut eb = EblockSim::default();
        let data = Bytes::from(vec![1u8; geo.wblock_bytes as usize]);
        eb.apply_program(&geo, 0, data, &[]);
        assert!(matches!(
            eb.check_programmable(&geo, 0),
            Err(ProgramCheck::Rewrite)
        ));
        eb.erase();
        assert!(eb.check_programmable(&geo, 0).is_ok());
        assert_eq!(eb.erase_count(), 1);
    }

    #[test]
    fn poison_blocks_until_erase() {
        let geo = Geometry::tiny();
        let mut eb = EblockSim::default();
        eb.poison();
        assert!(matches!(
            eb.check_programmable(&geo, 0),
            Err(ProgramCheck::Poisoned)
        ));
        eb.erase();
        assert!(!eb.is_poisoned());
        assert!(eb.check_programmable(&geo, 0).is_ok());
    }

    #[test]
    fn full_eblock_rejects() {
        let geo = Geometry::tiny();
        let mut eb = EblockSim::default();
        for w in 0..geo.wblocks_per_eblock {
            eb.apply_program(&geo, w, Bytes::from(vec![0u8; geo.wblock_bytes as usize]), &[]);
        }
        assert!(matches!(
            eb.check_programmable(&geo, geo.wblocks_per_eblock),
            Err(ProgramCheck::Full)
        ));
    }

    #[test]
    fn tags_roundtrip_and_default_zero() {
        let geo = Geometry::tiny();
        let mut eb = EblockSim::default();
        assert!(eb.read_tag(&geo, 0).iter().all(|&b| b == 0));
        let data = Bytes::from(vec![0u8; geo.wblock_bytes as usize]);
        let tag = vec![7u8; 16];
        eb.apply_program(&geo, 0, data, &tag);
        let back = eb.read_tag(&geo, 0);
        assert_eq!(&back[..16], &tag[..]);
        assert!(back[16..].iter().all(|&b| b == 0));
    }

    #[test]
    fn reads_survive_erase() {
        let geo = Geometry::tiny();
        let mut eb = EblockSim::default();
        eb.apply_program(&geo, 0, Bytes::from(vec![9u8; geo.wblock_bytes as usize]), &[]);
        let view = eb.read_bytes(&geo, 0, 64);
        eb.erase();
        // The refcounted view outlives the erase.
        assert_eq!(view, vec![9u8; 64]);
    }

    #[test]
    fn rblock_programmed_tracks_frontier() {
        let geo = Geometry::tiny(); // 4 rblocks per wblock
        let mut eb = EblockSim::default();
        assert!(!eb.rblock_programmed(&geo, 0));
        eb.apply_program(&geo, 0, Bytes::from(vec![0u8; geo.wblock_bytes as usize]), &[]);
        assert!(eb.rblock_programmed(&geo, 3));
        assert!(!eb.rblock_programmed(&geo, 4));
    }
}
