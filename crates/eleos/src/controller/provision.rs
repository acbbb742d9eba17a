//! Write provisioning (Section IV-A1/A2): per-channel free lists and
//! open-EBLOCK cursors, EBLOCK allocation, and the packing of a system
//! action's pages into WBLOCK programs.
//!
//! Each channel keeps a free-EBLOCK list and an open set of EBLOCK
//! cursors, laid out only here: one slot for user writes and
//! `GcConfig::open_bins` age-binned ones for GC writes (Fig. 3; log writes
//! are provisioned by the log writer). Provisioning is performed at
//! WBLOCK granularity: every batch chunk starts at a fresh WBLOCK (the
//! previously-programmed tail cannot be appended to), and LPAGEs pack
//! byte-contiguously across WBLOCK boundaries within the chunk.
//!
//! An open EBLOCK accumulates *metadata* — the `(type, LPID)` of every
//! LPAGE written — which is flushed to the WBLOCKs immediately after the
//! data when the EBLOCK closes, so that it "occurs in the highest order
//! pages of the EBLOCK and describes all data pages".

use super::action::{ActionPage, CloseEvent, Dest, Plan, Segment};
use super::Eleos;
use crate::codec::{checksum, Reader, Writer};
use crate::error::{EleosError, Result};
use crate::phys::PhysAddr;
use crate::summary::{EblockPurpose, EblockState};
use crate::types::{Lpid, Lsn, PageKind, Usn};
use bytes::Bytes;
use eleos_flash::{EblockAddr, Geometry, WblockAddr};
use std::collections::{BTreeSet, VecDeque};

const META_MAGIC: u64 = 0x454C_454F_534D_4554; // "ELEOSMET"
const META_HEADER: usize = 48;
const META_ENTRY: usize = 9; // kind u8 + lpid u64

/// Metadata WBLOCKs needed to describe `n` entries.
pub(super) fn meta_wblocks_for(n_entries: usize, geo: &Geometry) -> u32 {
    let per = (geo.wblock_bytes as usize - META_HEADER) / META_ENTRY;
    n_entries.div_ceil(per).max(1) as u32
}

/// An open EBLOCK cursor.
#[derive(Debug, Clone)]
pub(super) struct OpenEblock {
    pub(super) addr: EblockAddr,
    /// First unprovisioned byte. WBLOCK-aligned between batches.
    pub(super) frontier: u64,
    /// In-memory metadata: `(kind, LPID)` in write order.
    pub(super) meta: Vec<(PageKind, Lpid)>,
    /// LSN of the first write record into this EBLOCK since it was opened —
    /// truncation factor (3) of Section VIII-B.
    pub(super) first_lsn: Option<Lsn>,
    /// For GC destinations: the age bin this EBLOCK approximates (Section
    /// VI-B), re-stamped with the age of each victim a GC bin receives.
    pub(super) bin_ts: Option<Usn>,
}

impl OpenEblock {
    pub(super) fn new(addr: EblockAddr) -> Self {
        OpenEblock {
            addr,
            frontier: 0,
            meta: Vec::new(),
            first_lsn: None,
            bin_ts: None,
        }
    }

    /// Data WBLOCKs provisioned so far (frontier rounded up).
    pub(super) fn data_wblocks(&self, geo: &Geometry) -> u32 {
        (self.frontier.div_ceil(geo.wblock_bytes as u64)) as u32
    }

    /// Last byte usable for data, leaving room to flush metadata for
    /// `extra_entries` more LPAGEs.
    pub(super) fn usable_end(&self, extra_entries: usize, geo: &Geometry) -> u64 {
        let meta_wb = meta_wblocks_for(self.meta.len() + extra_entries, geo) as u64;
        geo.eblock_bytes()
            .saturating_sub(meta_wb * geo.wblock_bytes as u64)
    }

    /// Can this EBLOCK accept `bytes` more data (plus metadata for
    /// `entries` more LPAGEs) starting at the current frontier?
    pub(super) fn can_accept(&self, bytes: u64, entries: usize, geo: &Geometry) -> bool {
        self.frontier + bytes <= self.usable_end(entries, geo)
    }

    /// Round the frontier up to the next WBLOCK boundary (end of a batch
    /// chunk); returns the bytes lost to fragmentation.
    pub(super) fn align_frontier(&mut self, geo: &Geometry) -> u64 {
        let wb = geo.wblock_bytes as u64;
        let aligned = self.frontier.div_ceil(wb) * wb;
        let frag = aligned - self.frontier;
        self.frontier = aligned;
        frag
    }
}

/// Serialize an EBLOCK's metadata into WBLOCK-sized pages.
pub(super) fn encode_eblock_meta(
    entries: &[(PageKind, Lpid)],
    ts: Usn,
    data_wblocks: u32,
    geo: &Geometry,
) -> Vec<Vec<u8>> {
    let per = (geo.wblock_bytes as usize - META_HEADER) / META_ENTRY;
    let nparts = entries.len().div_ceil(per).max(1);
    let mut pages = Vec::with_capacity(nparts);
    for part in 0..nparts {
        let lo = part * per;
        let hi = ((part + 1) * per).min(entries.len());
        let mut body = Vec::with_capacity((hi - lo) * META_ENTRY);
        for &(kind, lpid) in &entries[lo..hi] {
            let mut w = Writer(&mut body);
            w.u8(kind as u8);
            w.u64(lpid);
        }
        let mut page = Vec::with_capacity(geo.wblock_bytes as usize);
        {
            let mut w = Writer(&mut page);
            w.u64(META_MAGIC);
            w.u16(part as u16);
            w.u16(nparts as u16);
            w.u32(entries.len() as u32);
            w.u32(data_wblocks);
            w.u64(ts);
            w.u64(checksum(&body));
        }
        page.resize(META_HEADER, 0);
        page.extend_from_slice(&body);
        page.resize(geo.wblock_bytes as usize, 0);
        pages.push(page);
    }
    pages
}

/// Decoded EBLOCK metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) struct EblockMeta {
    pub(super) entries: Vec<(PageKind, Lpid)>,
    pub(super) ts: Usn,
    pub(super) data_wblocks: u32,
}

/// Decode metadata from consecutive WBLOCK images. `pages` must start at
/// the first metadata WBLOCK. Returns `None` if the bytes are not valid
/// metadata (recovery uses this to probe whether an EBLOCK was closed).
pub(super) fn decode_eblock_meta(pages: &[&[u8]], geo: &Geometry) -> Option<EblockMeta> {
    let first = pages.first()?;
    let mut r = Reader::new(first);
    if r.u64()? != META_MAGIC {
        return None;
    }
    let part0 = r.u16()?;
    let nparts = r.u16()? as usize;
    let total = r.u32()? as usize;
    let data_wblocks = r.u32()?;
    let ts = r.u64()?;
    if part0 != 0 || nparts == 0 || nparts > pages.len() {
        return None;
    }
    let per = (geo.wblock_bytes as usize - META_HEADER) / META_ENTRY;
    let mut entries = Vec::with_capacity(total);
    for (part, page) in pages.iter().take(nparts).enumerate() {
        let mut r = Reader::new(page);
        if r.u64()? != META_MAGIC || r.u16()? != part as u16 || r.u16()? as usize != nparts {
            return None;
        }
        if r.u32()? as usize != total || r.u32()? != data_wblocks || r.u64()? != ts {
            return None;
        }
        let sum = r.u64()?;
        let lo = part * per;
        let hi = ((part + 1) * per).min(total);
        let body_len = (hi - lo) * META_ENTRY;
        if META_HEADER + body_len > page.len() {
            return None;
        }
        let body = &page[META_HEADER..META_HEADER + body_len];
        if checksum(body) != sum {
            return None;
        }
        let mut br = Reader::new(body);
        for _ in lo..hi {
            let kind = PageKind::from_u8(br.u8()?)?;
            entries.push((kind, br.u64()?));
        }
    }
    if entries.len() != total {
        return None;
    }
    Some(EblockMeta {
        entries,
        ts,
        data_wblocks,
    })
}

/// Per-channel provisioning state.
#[derive(Debug)]
pub(super) struct ChannelState {
    /// Erased EBLOCKs ready for use (FIFO for a little wear smoothing).
    pub(super) free: VecDeque<u32>,
    /// The open set: slot 0 receives user (and checkpoint) writes, slots
    /// `1..=open_bins` are the age-binned GC bins (Section VI-B). With no
    /// GC bin, relocations share slot 0 and cold data mixes back in with
    /// hot, which Section VI-B argues against (an ablation).
    open: Vec<Option<OpenEblock>>,
    /// `Used+Log` EBLOCKs on this channel ordered by `max_lsn`, so the GC
    /// truncation probe pops the lowest-LSN candidate instead of rescanning
    /// every EBLOCK. Entries are validated lazily against the summary on
    /// pop; stale ones are dropped or re-keyed.
    pub(super) log_reclaim: BTreeSet<(Lsn, u32)>,
}

impl ChannelState {
    pub(super) fn new(open_bins: usize) -> Self {
        ChannelState {
            free: VecDeque::new(),
            open: vec![None; 1 + open_bins],
            log_reclaim: BTreeSet::new(),
        }
    }

    /// The slot a write to `dest` provisions from. A GC write takes the
    /// first empty bin (it adopts the victim's age), else the bin whose
    /// age is closest to the victim's (Section VI-B).
    fn slot(&self, dest: Dest) -> usize {
        let Dest::GcBin { victim_ts, .. } = dest else {
            return 0;
        };
        let bins = self.open.iter().enumerate().skip(1);
        if let Some((i, _)) = bins.clone().find(|(_, ob)| ob.is_none()) {
            return i;
        }
        bins.flat_map(|(i, ob)| Some((i, ob.as_ref()?.bin_ts.unwrap_or(0))))
            .min_by_key(|&(_, ts)| ts.abs_diff(victim_ts))
            .map_or(0, |(i, _)| i)
    }

    /// Return a cursor to the slot it was taken from; a GC bin takes the
    /// age of the victim it last received.
    fn put(&mut self, dest: Dest, mut ob: OpenEblock) {
        let slot = self.slot(dest);
        if let (Dest::GcBin { victim_ts, .. }, 1..) = (dest, slot) {
            ob.bin_ts = Some(victim_ts);
        }
        self.open[slot] = Some(ob);
    }

    /// Every open cursor on this channel.
    pub(super) fn cursors(&self) -> impl Iterator<Item = &OpenEblock> {
        self.open.iter().flatten()
    }

    /// The slot whose cursor holds `eb`, if any.
    pub(super) fn slot_of(&mut self, eb: EblockAddr) -> Option<&mut Option<OpenEblock>> {
        self.open
            .iter_mut()
            .find(|slot| slot.as_ref().is_some_and(|ob| ob.addr == eb))
    }

    /// Number of slots in the open set.
    pub(super) fn slots(&self) -> usize {
        self.open.len()
    }

    /// Detach slot `slot`'s cursor if its first logged write predates
    /// `before`, with the destination its close is stamped for.
    pub(super) fn take_stale(&mut self, slot: usize, before: Lsn) -> Option<(OpenEblock, Dest)> {
        let ob = self.open[slot].take_if(|ob| ob.first_lsn.is_some_and(|l| l < before))?;
        let dest = match (slot, ob.bin_ts) {
            (1.., Some(victim_ts)) => Dest::GcBin {
                victim_channel: ob.addr.channel,
                victim_ts,
            },
            _ => Dest::User,
        };
        Some((ob, dest))
    }
}

impl Eleos {
    // ------------------------------------------------------------------
    // EBLOCK allocation
    // ------------------------------------------------------------------

    pub(super) fn alloc_eblock(&mut self, channel: u32) -> Result<EblockAddr> {
        let eb = self.chans[channel as usize]
            .free
            .pop_front()
            .ok_or(EleosError::DeviceFull)?;
        let addr = EblockAddr::new(channel, eb);
        self.trace_eb(addr, "alloc");
        self.summary.update(addr, self.wal.next_lsn(), |d| {
            d.state = EblockState::Open;
            d.purpose = EblockPurpose::Data;
        });
        Ok(addr)
    }

    /// Allocate from whichever channel has the most free EBLOCKs (used for
    /// log standbys, which have no channel affinity).
    pub(super) fn alloc_any_eblock(&mut self) -> Result<EblockAddr> {
        let ch = (0..self.chans.len())
            .max_by_key(|&c| self.chans[c].free.len())
            .unwrap() as u32;
        self.alloc_eblock(ch)
    }

    /// Destination channel for relocating a victim's valid pages: the
    /// victim's own channel while it can still provision a GC bin, else
    /// the channel with the most free EBLOCKs. Placement has no
    /// correctness affinity (the mapping records the new address wherever
    /// it lands), and pinning relocation to a channel whose free list is
    /// empty deadlocks GC exactly when it is most needed: the bin
    /// allocation fails with `DeviceFull` even though erasing the victim
    /// would free space. User writes already route around full channels
    /// and log standbys allocate anywhere; this gives GC the same escape.
    fn gc_dest_channel(&self, victim_channel: u32) -> u32 {
        if !self.chans[victim_channel as usize].free.is_empty() {
            return victim_channel;
        }
        (0..self.chans.len())
            .max_by_key(|&c| self.chans[c].free.len())
            .unwrap() as u32
    }

    // ------------------------------------------------------------------
    // Write provisioning (Section IV-A1)
    // ------------------------------------------------------------------

    /// Provision every segment in order into `plan`, whose addresses grow
    /// to cover `pages` (a GC pass adds each round's pages and segments to
    /// the plan of the rounds before it). A GC segment's destination
    /// channel is resolved here, against the free lists the segments
    /// before it left, as consecutive single-victim actions would resolve
    /// it.
    pub(super) fn provision(
        &mut self,
        pages: &[ActionPage],
        segs: &[Segment],
        plan: &mut Plan,
    ) -> Result<()> {
        plan.addrs.resize(pages.len(), PhysAddr::new(0, 0, 0, 0));
        for (range, dest) in segs {
            let provisioned = match *dest {
                Dest::User => self.provision_user(pages, range.clone(), plan),
                Dest::GcBin { victim_channel, .. } => {
                    let channel = self.gc_dest_channel(victim_channel);
                    self.provision_chunk(channel, pages, range.clone(), *dest, plan)
                }
            };
            if let Err(e) = provisioned {
                // The plan will never run (a GC pass drops with it every
                // round staged before): roll back the cursors it advanced,
                // or the next program into them skips unwritten WBLOCKs.
                let lsn = self.wal.next_lsn();
                self.unwind_plan(plan, None, lsn)?;
                return Err(e);
            }
        }
        Ok(())
    }

    /// Global provisioning: partition into roughly equal chunks, respecting
    /// LPAGE boundaries (Section IV-A1). Channels are ordered by free
    /// capacity so one that GC has not yet replenished is not starved
    /// further.
    fn provision_user(
        &mut self,
        pages: &[ActionPage],
        range: std::ops::Range<usize>,
        plan: &mut Plan,
    ) -> Result<()> {
        let geo = *self.dev.geometry();
        let mut order: Vec<u32> = (0..geo.channels).collect();
        order.rotate_left(self.next_chan_rr as usize % geo.channels as usize);
        order.sort_by_key(|&c| std::cmp::Reverse(self.chans[c as usize].free.len()));
        let usable: Vec<u32> = order
            .iter()
            .copied()
            .filter(|&c| {
                let ch = &self.chans[c as usize];
                !ch.free.is_empty() || ch.open[0].is_some()
            })
            .collect();
        let order = if usable.is_empty() { order } else { usable };
        let total: u64 = pages[range.clone()]
            .iter()
            .map(|p| p.bytes.len() as u64)
            .sum();
        let target = (total / order.len() as u64).max(geo.wblock_bytes as u64);
        let mut chunk_start = range.start;
        let mut acc = 0u64;
        let mut chunk_no = 0usize;
        for i in range.clone() {
            acc += pages[i].bytes.len() as u64;
            if acc >= target || i + 1 == range.end {
                let channel = order[chunk_no % order.len()];
                self.provision_chunk(channel, pages, chunk_start..i + 1, Dest::User, plan)?;
                chunk_no += 1;
                chunk_start = i + 1;
                acc = 0;
            }
        }
        self.next_chan_rr = (self.next_chan_rr + 1) % geo.channels;
        Ok(())
    }

    /// Channel provisioning: pack a contiguous range of pages into the
    /// channel's open EBLOCK(s), closing and replacing them as they fill.
    fn provision_chunk(
        &mut self,
        channel: u32,
        pages: &[ActionPage],
        range: std::ops::Range<usize>,
        dest: Dest,
        plan: &mut Plan,
    ) -> Result<()> {
        let geo = *self.dev.geometry();
        let mut i = range.start;
        while i < range.end {
            let mut ob = self.take_cursor(channel, dest)?;
            let start = ob.frontier;
            debug_assert_eq!(start % geo.wblock_bytes as u64, 0, "chunk starts at a fresh WBLOCK");
            let mut cur = start;
            let first_in_region = i;
            while i < range.end {
                let len = pages[i].bytes.len() as u64;
                if !ob.can_accept(cur - start + len, i - first_in_region + 1, &geo) {
                    break;
                }
                plan.addrs[i] = PhysAddr::new(channel, ob.addr.eblock, cur, len);
                ob.meta.push((pages[i].kind, pages[i].lpid));
                if ob.first_lsn.is_none() {
                    ob.first_lsn = Some(self.wal.next_lsn());
                }
                self.usn += 1;
                cur += len;
                i += 1;
            }
            if cur == start {
                if ob.frontier == 0 {
                    // A single page larger than an entire EBLOCK.
                    self.chans[channel as usize].put(dest, ob);
                    return Err(EleosError::PageTooLarge {
                        len: pages[i].bytes.len(),
                        max: geo.eblock_bytes() as usize,
                    });
                }
                // Nothing fits in the remainder: close and retry with a
                // fresh EBLOCK ("the remaining space will be fragmented").
                self.close_cursor(ob, dest, plan);
                continue;
            }
            // Materialize WBLOCK I/O commands for [start, frontier).
            ob.frontier = cur;
            let frag = ob.align_frontier(&geo);
            if frag > 0 {
                let lsn = self.wal.next_lsn();
                self.summary.update(ob.addr, lsn, |d| d.avail += frag);
            }
            // The region bytes are exactly the concatenation of the page
            // views (pages pack back-to-back from `start`).
            let wb = geo.wblock_bytes as usize;
            let first = WblockAddr::new(channel, ob.addr.eblock, (start / wb as u64) as u32);
            push_wblocks(&pages[first_in_region..i], first, wb, &mut plan.ios);
            plan.touched.push((ob.addr, start, ob.frontier));
            // Close if the EBLOCK can no longer accept even a minimal page.
            if !ob.can_accept(64, 1, &geo) {
                self.close_cursor(ob, dest, plan);
            } else {
                self.chans[channel as usize].put(dest, ob);
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Open-EBLOCK cursors
    // ------------------------------------------------------------------

    fn take_cursor(&mut self, channel: u32, dest: Dest) -> Result<OpenEblock> {
        let ch = &mut self.chans[channel as usize];
        let slot = ch.slot(dest);
        if let Some(ob) = ch.open[slot].take() {
            return Ok(ob);
        }
        let addr = self.alloc_eblock(channel)?;
        let mut ob = OpenEblock::new(addr);
        if let Dest::GcBin { victim_ts, .. } = dest {
            ob.bin_ts = Some(victim_ts);
        }
        Ok(ob)
    }

    /// Close an open EBLOCK: plan its metadata flush, update its descriptor
    /// and record the close event (the CloseEblock log record is appended
    /// by the engine after the Write records).
    pub(super) fn close_cursor(&mut self, ob: OpenEblock, dest: Dest, plan: &mut Plan) {
        let geo = *self.dev.geometry();
        let data_wblocks = ob.data_wblocks(&geo);
        let ts = match dest {
            Dest::User => self.usn,
            Dest::GcBin { .. } => ob.bin_ts.unwrap_or(self.usn),
        };
        let meta_pages: Vec<Bytes> = encode_eblock_meta(&ob.meta, ts, data_wblocks, &geo)
            .into_iter()
            .map(Bytes::from)
            .collect();
        let meta_wblocks = meta_pages.len() as u32;
        debug_assert!(data_wblocks + meta_wblocks <= geo.wblocks_per_eblock);
        for (k, page) in meta_pages.iter().enumerate() {
            plan.ios.push((
                WblockAddr::new(ob.addr.channel, ob.addr.eblock, data_wblocks + k as u32),
                page.clone(),
            ));
        }
        let lsn = self.wal.next_lsn();
        let frontier = ob.frontier;
        self.summary.update(ob.addr, lsn, |d| {
            d.state = EblockState::Used;
            d.data_wblocks = data_wblocks as u16;
            d.meta_wblocks = meta_wblocks as u16;
            d.ts = ts;
            // Metadata space and the unprogrammed tail are reclaimable.
            d.avail += geo.eblock_bytes() - frontier;
        });
        plan.closes.push(CloseEvent {
            addr: ob.addr,
            ts,
            data_wblocks: data_wblocks as u16,
            meta_wblocks: meta_wblocks as u16,
            meta_pages,
            entries: ob.meta,
        });
    }
}

/// Push the programs of a region whose `pages` pack back-to-back from the
/// start of WBLOCK `first`, the last one zero-padded. Pages that are
/// adjacent views of one buffer are taken as one chunk: a user batch chunk
/// is usually one slice of the batch buffer, so its full WBLOCKs become
/// zero-copy slices of it, and a GC victim's consecutive live pages are
/// copied with one copy.
fn push_wblocks(
    pages: &[ActionPage],
    first: WblockAddr,
    wb: usize,
    ios: &mut Vec<(WblockAddr, Bytes)>,
) {
    let mut at = first;
    let mut buf: Vec<u8> = Vec::new();
    let mut i = 0;
    while i < pages.len() {
        let mut chunk = pages[i].bytes.clone();
        i += 1;
        while i < pages.len() && chunk.try_extend(&pages[i].bytes) {
            i += 1;
        }
        let mut off = 0;
        while off < chunk.len() {
            if buf.is_empty() && chunk.len() - off >= wb {
                ios.push((at, chunk.slice(off..off + wb)));
                off += wb;
            } else {
                if buf.is_empty() {
                    buf.reserve_exact(wb);
                }
                let take = (chunk.len() - off).min(wb - buf.len());
                buf.extend_from_slice(&chunk[off..off + take]);
                off += take;
                if buf.len() < wb {
                    continue;
                }
                ios.push((at, Bytes::from(std::mem::take(&mut buf))));
            }
            at.wblock += 1;
        }
    }
    if !buf.is_empty() {
        buf.resize(wb, 0);
        ios.push((at, Bytes::from(buf)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geo() -> Geometry {
        Geometry::tiny() // 16 KB wblocks, 16 per eblock
    }

    #[test]
    fn meta_wblock_sizing() {
        let g = geo();
        assert_eq!(meta_wblocks_for(0, &g), 1);
        assert_eq!(meta_wblocks_for(1, &g), 1);
        let per = (g.wblock_bytes as usize - META_HEADER) / META_ENTRY;
        assert_eq!(meta_wblocks_for(per, &g), 1);
        assert_eq!(meta_wblocks_for(per + 1, &g), 2);
    }

    #[test]
    fn meta_encode_decode_roundtrip() {
        let g = geo();
        let entries: Vec<(PageKind, Lpid)> = (0..5000u64)
            .map(|i| {
                let k = if i % 7 == 0 {
                    PageKind::MapPage
                } else {
                    PageKind::User
                };
                (k, i * 3)
            })
            .collect();
        let pages = encode_eblock_meta(&entries, 999, 12, &g);
        assert!(pages.len() >= 2, "5000 entries need multiple pages");
        let views: Vec<&[u8]> = pages.iter().map(|p| p.as_slice()).collect();
        let meta = decode_eblock_meta(&views, &g).unwrap();
        assert_eq!(meta.entries, entries);
        assert_eq!(meta.ts, 999);
        assert_eq!(meta.data_wblocks, 12);
    }

    #[test]
    fn meta_decode_rejects_garbage_and_truncation() {
        let g = geo();
        let garbage = vec![0u8; g.wblock_bytes as usize];
        assert!(decode_eblock_meta(&[garbage.as_slice()], &g).is_none());
        let entries: Vec<(PageKind, Lpid)> = (0..5000u64).map(|i| (PageKind::User, i)).collect();
        let pages = encode_eblock_meta(&entries, 1, 1, &g);
        // Only the first part present: incomplete.
        assert!(decode_eblock_meta(&[pages[0].as_slice()], &g).is_none());
        // Corrupted body: checksum catches it.
        let mut bad = pages.clone();
        bad[1][META_HEADER + 3] ^= 0xFF;
        let views: Vec<&[u8]> = bad.iter().map(|p| p.as_slice()).collect();
        assert!(decode_eblock_meta(&views, &g).is_none());
    }

    #[test]
    fn open_eblock_frontier_math() {
        let g = geo();
        let mut ob = OpenEblock::new(EblockAddr::new(0, 3));
        assert_eq!(ob.data_wblocks(&g), 0);
        ob.frontier = 100;
        assert_eq!(ob.data_wblocks(&g), 1);
        let frag = ob.align_frontier(&g);
        assert_eq!(frag, 16 * 1024 - 100);
        assert_eq!(ob.frontier, 16 * 1024);
        assert_eq!(ob.align_frontier(&g), 0); // already aligned
    }

    #[test]
    fn can_accept_reserves_metadata_space() {
        let g = geo();
        let ob = OpenEblock::new(EblockAddr::new(0, 3));
        let total = g.eblock_bytes();
        // One metadata WBLOCK is always reserved.
        assert!(ob.can_accept(total - g.wblock_bytes as u64, 10, &g));
        assert!(!ob.can_accept(total, 10, &g));
    }

    #[test]
    fn gc_bin_selection() {
        let gc = |victim_ts| Dest::GcBin {
            victim_channel: 0,
            victim_ts,
        };
        let bin = |eb, ts| OpenEblock {
            bin_ts: Some(ts),
            ..OpenEblock::new(EblockAddr::new(0, eb))
        };
        // No GC bin: relocations share the user slot.
        assert_eq!(ChannelState::new(0).slot(gc(100)), 0);
        let mut ch = ChannelState::new(3);
        assert_eq!(ch.slot(Dest::User), 0);
        // All empty: first bin.
        assert_eq!(ch.slot(gc(100)), 1);
        ch.open[1] = Some(bin(4, 100));
        // Next empty bin wins over distance computation.
        assert_eq!(ch.slot(gc(5000)), 2);
        ch.open[2] = Some(bin(5, 5000));
        ch.open[3] = Some(bin(6, 90));
        // Full bins: closest timestamp.
        assert_eq!(ch.slot(gc(94)), 3);
        assert_eq!(ch.slot(gc(4000)), 2);
        assert_eq!(ch.slot(gc(150)), 1);
        // A put re-ages the bin to its latest victim, and the next choice
        // follows the new age.
        assert_eq!(ch.slot(gc(2000)), 1);
        let ob = ch.open[1].take().unwrap();
        ch.put(gc(2000), ob);
        assert_eq!(ch.open[1].as_ref().unwrap().bin_ts, Some(2000));
        assert_eq!(ch.slot(gc(150)), 3);
    }
}
