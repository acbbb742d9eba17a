//! The linked-list log (Section VIII-A).
//!
//! Each log page is one WBLOCK. A page stores up to three *forward
//! pointers* — provisioned locations for its successor page. If programming
//! the successor at the first location fails (poisoning that EBLOCK), the
//! same page content is retried at the second, then the third. Recovery
//! walks the chain the same way: "we read from these three locations one by
//! one until the first valid log page is found". If a page cannot be
//! written to any of its three locations, ELEOS shuts down writing.
//!
//! Page layout (64-byte header, then records):
//!
//! ```text
//! | magic u64 | seq u64 | first_lsn u64 | count u32 | fwd[3] u64 |
//! | payload_len u32 | checksum u64 | pad to 64 | records … | pad |
//! ```

use crate::codec::checksum;
use crate::error::{EleosError, Result};
use crate::types::Lsn;
use crate::wal::record::LogRecord;
use eleos_flash::{EblockAddr, FlashError, FlashDevice, Nanos, WblockAddr};

const LOG_MAGIC: u64 = 0x454C_454F_534C_4F47; // "ELEOSLOG"
const HEADER_BYTES: usize = 64;
const NULL_PTR: u64 = u64::MAX;

fn pack_wb(a: WblockAddr) -> u64 {
    ((a.channel() as u64) << 48) | ((a.eblock.eblock as u64) << 16) | a.wblock as u64
}

fn unpack_wb(v: u64) -> Option<WblockAddr> {
    if v == NULL_PTR {
        return None;
    }
    Some(WblockAddr::new(
        (v >> 48) as u32,
        ((v >> 16) & 0xFFFF_FFFF) as u32,
        (v & 0xFFFF) as u32,
    ))
}

/// Directory entry for a sealed (programmed) log page.
#[derive(Debug, Clone, Copy)]
pub struct PageDirEntry {
    pub seq: u64,
    pub addr: WblockAddr,
    pub first_lsn: Lsn,
    pub last_lsn: Lsn,
}

/// What happened when a page was sealed; the controller uses this to keep
/// EBLOCK summary descriptors in sync.
#[derive(Debug, Clone)]
pub struct SealOutcome {
    pub addr: WblockAddr,
    pub done_at: Nanos,
    pub first_lsn: Lsn,
    pub last_lsn: Lsn,
    /// EBLOCKs poisoned by failed program attempts during this seal.
    pub poisoned: Vec<EblockAddr>,
    /// Standby EBLOCKs this seal started writing into.
    pub entered: Vec<EblockAddr>,
    /// EBLOCKs that became full with this seal.
    pub filled: Vec<EblockAddr>,
}

/// Result of scanning the log chain during recovery.
#[derive(Debug)]
pub struct ScanResult {
    pub records: Vec<(Lsn, LogRecord)>,
    /// Directory of every page found.
    pub pages: Vec<PageDirEntry>,
    /// Sequence number the next page should carry.
    pub next_seq: u64,
    /// Candidate locations where the next page may be written.
    pub resume_candidates: Vec<WblockAddr>,
    /// Next LSN to assign.
    pub next_lsn: Lsn,
}

/// The log writer.
#[derive(Debug)]
pub struct LogWriter {
    next_lsn: Lsn,
    page_seq: u64,
    pending: Vec<u8>,
    pending_count: u32,
    pending_first_lsn: Lsn,
    /// Candidate locations for the page currently being built (the forward
    /// pointers of the previously sealed page).
    candidates: Vec<WblockAddr>,
    /// Erased EBLOCKs reserved for the log's fallback chain.
    standbys: Vec<EblockAddr>,
    cur_eblock: EblockAddr,
    directory: Vec<PageDirEntry>,
    /// Completion time of the last durable force.
    last_durable: Nanos,
    /// Physical log growth: bytes of WBLOCKs sealed (each force consumes a
    /// whole WBLOCK). Drives automatic checkpointing — record bytes would
    /// badly under-count the log's real space consumption under small
    /// batches.
    pub bytes_appended: u64,
}

impl LogWriter {
    /// Start a fresh log in `first_eblock` (which must be erased).
    pub fn fresh(first_eblock: EblockAddr) -> Self {
        LogWriter {
            next_lsn: 1,
            page_seq: 0,
            pending: Vec::new(),
            pending_count: 0,
            pending_first_lsn: 1,
            candidates: vec![WblockAddr::new(first_eblock.channel, first_eblock.eblock, 0)],
            standbys: Vec::new(),
            cur_eblock: first_eblock,
            directory: Vec::new(),
            last_durable: 0,
            bytes_appended: 0,
        }
    }

    /// Resume after recovery at the position the scan identified.
    pub fn resume(scan: &ScanResult) -> Self {
        let cur = scan
            .resume_candidates
            .first()
            .map(|c| c.eblock)
            .expect("scan always yields at least one candidate");
        LogWriter {
            next_lsn: scan.next_lsn,
            page_seq: scan.next_seq,
            pending: Vec::new(),
            pending_count: 0,
            pending_first_lsn: scan.next_lsn,
            candidates: scan.resume_candidates.clone(),
            standbys: Vec::new(),
            cur_eblock: cur,
            directory: scan.pages.clone(),
            last_durable: 0,
            bytes_appended: 0,
        }
    }

    pub fn next_lsn(&self) -> Lsn {
        self.next_lsn
    }

    /// First LSN of the page currently being built — log records at or
    /// beyond this are not yet durable.
    pub fn pending_first_lsn(&self) -> Lsn {
        self.pending_first_lsn
    }

    /// How many standby EBLOCKs the controller should top up.
    pub fn standbys_needed(&self, target: usize) -> usize {
        target.saturating_sub(self.standbys.len())
    }

    /// Feed an erased standby EBLOCK (purpose = Log). Until the first page
    /// is sealed no earlier page names its successors, so a standby's head
    /// also becomes a candidate for that first page, up to three.
    pub fn add_standby(&mut self, eb: EblockAddr) {
        self.standbys.push(eb);
        if self.page_seq == 0 && self.candidates.len() < 3 {
            self.candidates.push(WblockAddr::new(eb.channel, eb.eblock, 0));
        }
    }

    pub fn standbys(&self) -> &[EblockAddr] {
        &self.standbys
    }

    pub fn directory(&self) -> &[PageDirEntry] {
        &self.directory
    }

    /// Drop directory entries wholly below the truncation LSN.
    pub fn truncate_directory(&mut self, trunc_lsn: Lsn) {
        self.directory.retain(|p| p.last_lsn >= trunc_lsn);
    }

    /// The earliest page whose records reach `lsn` (checkpoint resume
    /// pointer). Falls back to the current build position for an empty
    /// directory.
    pub fn resume_point(&self, lsn: Lsn) -> (Vec<WblockAddr>, u64) {
        for p in &self.directory {
            if p.last_lsn >= lsn {
                return (vec![p.addr], p.seq);
            }
        }
        (self.candidates.clone(), self.page_seq)
    }

    fn page_capacity(dev: &FlashDevice) -> usize {
        dev.geometry().wblock_bytes as usize - HEADER_BYTES
    }

    /// Append a record; seals the current page first if the record would
    /// not fit. Returns the record's LSN and the seal outcome if one
    /// happened.
    ///
    /// The record is encoded straight into the page being built. If that
    /// overflows the page, the record is split off, the records before it
    /// are sealed, and it opens the next page.
    pub fn append(
        &mut self,
        rec: &LogRecord,
        dev: &mut FlashDevice,
    ) -> Result<(Lsn, Option<SealOutcome>)> {
        let start = self.pending.len();
        rec.encode(&mut self.pending);
        let mut outcome = None;
        if self.pending.len() > Self::page_capacity(dev) {
            let record = self.pending.split_off(start);
            outcome = Some(self.seal(dev)?);
            self.pending.extend_from_slice(&record);
        }
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        if self.pending_count == 0 {
            self.pending_first_lsn = lsn;
        }
        self.pending_count += 1;
        Ok((lsn, outcome))
    }

    /// Force all appended records to flash. Returns the channel-time at
    /// which durability is reached (caller waits on it) and the seal
    /// outcome, if a page was written.
    pub fn force(&mut self, dev: &mut FlashDevice) -> Result<(Nanos, Option<SealOutcome>)> {
        if self.pending_count == 0 {
            return Ok((self.last_durable, None));
        }
        let outcome = self.seal(dev)?;
        self.last_durable = outcome.done_at;
        Ok((outcome.done_at, Some(outcome)))
    }

    /// Serialize the pending records as one log page and program it at the
    /// first workable candidate location.
    fn seal(&mut self, dev: &mut FlashDevice) -> Result<SealOutcome> {
        debug_assert!(self.pending_count > 0, "sealing an empty page");
        let geo = *dev.geometry();
        let mut poisoned = Vec::new();
        let mut entered = Vec::new();
        let mut filled = Vec::new();

        let candidates = std::mem::take(&mut self.candidates);
        for cand in candidates {
            // Skip candidates that are already occupied (e.g. a standby head
            // consumed by an earlier fallback) or whose EBLOCK is poisoned.
            match dev.is_wblock_programmed(cand) {
                Ok(true) => continue,
                Ok(false) => {}
                Err(_) => continue,
            }
            if dev.is_poisoned(cand.eblock).unwrap_or(true) {
                continue;
            }
            // The forward pointers depend on where this page actually lands.
            let fwd = self.compute_fwd(cand, &geo);
            // The page must be re-encoded per candidate (the forward
            // pointers depend on where it lands), but the device adopts the
            // buffer zero-copy instead of duplicating a whole WBLOCK.
            let page = self.encode_page(cand, &fwd, geo.wblock_bytes as usize);
            match dev.program(cand, page, &[]) {
                Ok(done_at) => {
                    if cand.eblock != self.cur_eblock {
                        // We rolled into a standby EBLOCK.
                        self.standbys.retain(|&s| s != cand.eblock);
                        entered.push(cand.eblock);
                        self.cur_eblock = cand.eblock;
                    }
                    if cand.wblock + 1 == geo.wblocks_per_eblock {
                        filled.push(cand.eblock);
                    }
                    let first_lsn = self.pending_first_lsn;
                    let last_lsn = first_lsn + self.pending_count as u64 - 1;
                    self.directory.push(PageDirEntry {
                        seq: self.page_seq,
                        addr: cand,
                        first_lsn,
                        last_lsn,
                    });
                    self.page_seq += 1;
                    self.bytes_appended += geo.wblock_bytes as u64;
                    self.pending.clear();
                    self.pending_count = 0;
                    self.pending_first_lsn = self.next_lsn;
                    self.candidates = fwd;
                    return Ok(SealOutcome {
                        addr: cand,
                        done_at,
                        first_lsn,
                        last_lsn,
                        poisoned,
                        entered,
                        filled,
                    });
                }
                Err(FlashError::ProgramFailed(_)) => {
                    poisoned.push(cand.eblock);
                    // A poisoned EBLOCK is dead to the log: the controller
                    // hands it to truncation-reclaim, which erases and
                    // re-provisions it. If it stayed in the standby pool,
                    // a later seal could program into the block after it
                    // has been freed — or reallocated to user data.
                    self.standbys.retain(|&s| s != cand.eblock);
                    continue;
                }
                Err(_) => continue,
            }
        }
        // "When a log page cannot be written to any of these three
        // locations, we currently shut down writing to the SSD."
        Err(EleosError::ShutDown)
    }

    /// Candidate locations for the *next* page, given where this one lands.
    fn compute_fwd(&self, landed: WblockAddr, geo: &eleos_flash::Geometry) -> Vec<WblockAddr> {
        let mut fwd = Vec::with_capacity(3);
        if landed.wblock + 1 < geo.wblocks_per_eblock {
            fwd.push(WblockAddr::new(
                landed.channel(),
                landed.eblock.eblock,
                landed.wblock + 1,
            ));
        }
        for sb in &self.standbys {
            if *sb == landed.eblock {
                continue;
            }
            if fwd.len() == 3 {
                break;
            }
            fwd.push(WblockAddr::new(sb.channel, sb.eblock, 0));
        }
        debug_assert!(!fwd.is_empty(), "log writer has nowhere to go");
        fwd
    }

    fn encode_page(&self, _at: WblockAddr, fwd: &[WblockAddr], wblock_bytes: usize) -> Vec<u8> {
        let mut page = Vec::with_capacity(wblock_bytes);
        page.extend_from_slice(&LOG_MAGIC.to_le_bytes());
        page.extend_from_slice(&self.page_seq.to_le_bytes());
        page.extend_from_slice(&self.pending_first_lsn.to_le_bytes());
        page.extend_from_slice(&self.pending_count.to_le_bytes());
        for i in 0..3 {
            let v = fwd.get(i).map(|&a| pack_wb(a)).unwrap_or(NULL_PTR);
            page.extend_from_slice(&v.to_le_bytes());
        }
        page.extend_from_slice(&(self.pending.len() as u32).to_le_bytes());
        page.extend_from_slice(&checksum(&self.pending).to_le_bytes());
        page.resize(HEADER_BYTES, 0);
        page.extend_from_slice(&self.pending);
        page.resize(wblock_bytes, 0);
        page
    }

    /// Walk the log chain from `start_candidates` expecting `start_seq`,
    /// decoding every record (recovery, Section VIII-C).
    pub fn scan(
        dev: &mut FlashDevice,
        start_candidates: &[WblockAddr],
        start_seq: u64,
        baseline_lsn: Lsn,
    ) -> ScanResult {
        let mut records = Vec::new();
        let mut pages = Vec::new();
        let mut candidates: Vec<WblockAddr> = start_candidates.to_vec();
        let mut seq = start_seq;
        let mut next_lsn = baseline_lsn;
        'chain: loop {
            for &cand in &candidates {
                if !dev.is_wblock_programmed(cand).unwrap_or(false) {
                    continue;
                }
                let Ok((bytes, _)) = dev.read_wblocks(cand.eblock, cand.wblock, 1) else {
                    continue;
                };
                let Some((page_seq, first_lsn, count, fwd, payload)) = decode_page(&bytes) else {
                    continue;
                };
                if page_seq != seq {
                    continue; // an older page at a fallback location
                }
                let mut r = crate::codec::Reader::new(payload);
                let mut lsn = first_lsn;
                for _ in 0..count {
                    match LogRecord::decode(&mut r) {
                        Some(rec) => {
                            records.push((lsn, rec));
                            lsn += 1;
                        }
                        None => break,
                    }
                }
                pages.push(PageDirEntry {
                    seq,
                    addr: cand,
                    first_lsn,
                    last_lsn: first_lsn + count as u64 - 1,
                });
                next_lsn = next_lsn.max(first_lsn + count as u64);
                seq += 1;
                candidates = fwd;
                continue 'chain;
            }
            break;
        }
        ScanResult {
            records,
            pages,
            next_seq: seq,
            resume_candidates: candidates,
            next_lsn,
        }
    }
}

/// Decode a log page: returns (seq, first_lsn, count, fwd, payload).
#[allow(clippy::type_complexity)]
fn decode_page(bytes: &[u8]) -> Option<(u64, Lsn, u32, Vec<WblockAddr>, &[u8])> {
    if bytes.len() < HEADER_BYTES {
        return None;
    }
    let magic = u64::from_le_bytes(bytes[0..8].try_into().unwrap());
    if magic != LOG_MAGIC {
        return None;
    }
    let seq = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let first_lsn = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
    let count = u32::from_le_bytes(bytes[24..28].try_into().unwrap());
    let mut fwd = Vec::new();
    for i in 0..3 {
        let off = 28 + i * 8;
        if let Some(a) = unpack_wb(u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap())) {
            fwd.push(a);
        }
    }
    let payload_len = u32::from_le_bytes(bytes[52..56].try_into().unwrap()) as usize;
    let sum = u64::from_le_bytes(bytes[56..64].try_into().unwrap());
    if HEADER_BYTES + payload_len > bytes.len() {
        return None;
    }
    let payload = &bytes[HEADER_BYTES..HEADER_BYTES + payload_len];
    if checksum(payload) != sum {
        return None;
    }
    Some((seq, first_lsn, count, fwd, payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eleos_flash::{CostProfile, FaultInjector, Geometry};

    fn dev() -> FlashDevice {
        FlashDevice::new(Geometry::tiny(), CostProfile::unit())
    }

    fn rec(action: u64) -> LogRecord {
        LogRecord::Done { action }
    }

    #[test]
    fn append_force_scan_roundtrip() {
        let mut d = dev();
        let mut w = LogWriter::fresh(EblockAddr::new(0, 2));
        let (lsn1, _) = w.append(&rec(1), &mut d).unwrap();
        let (lsn2, _) = w.append(&rec(2), &mut d).unwrap();
        assert_eq!((lsn1, lsn2), (1, 2));
        let (t, sealed) = w.force(&mut d).unwrap();
        assert!(sealed.is_some());
        assert!(t > 0);
        let scan = LogWriter::scan(&mut d, &[WblockAddr::new(0, 2, 0)], 0, 1);
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.records[0], (1, rec(1)));
        assert_eq!(scan.records[1], (2, rec(2)));
        assert_eq!(scan.next_lsn, 3);
        assert_eq!(scan.next_seq, 1);
    }

    #[test]
    fn force_with_nothing_pending_is_noop() {
        let mut d = dev();
        let mut w = LogWriter::fresh(EblockAddr::new(0, 2));
        let (t, sealed) = w.force(&mut d).unwrap();
        assert_eq!(t, 0);
        assert!(sealed.is_none());
    }

    #[test]
    fn pages_chain_across_forces() {
        let mut d = dev();
        let mut w = LogWriter::fresh(EblockAddr::new(0, 2));
        for i in 0..5 {
            w.append(&rec(i), &mut d).unwrap();
            w.force(&mut d).unwrap();
        }
        let scan = LogWriter::scan(&mut d, &[WblockAddr::new(0, 2, 0)], 0, 1);
        assert_eq!(scan.records.len(), 5);
        assert_eq!(scan.pages.len(), 5);
        assert_eq!(scan.next_seq, 5);
        // Resume candidates point after the last page.
        assert_eq!(scan.resume_candidates[0], WblockAddr::new(0, 2, 5));
    }

    #[test]
    fn full_page_auto_seals() {
        let mut d = dev();
        let mut w = LogWriter::fresh(EblockAddr::new(0, 2));
        // Done records are 9 bytes; a 16 KB page fits many, so append until
        // at least two pages have sealed.
        let mut seals = 0;
        for i in 0..5000 {
            let (_, outcome) = w.append(&rec(i), &mut d).unwrap();
            if outcome.is_some() {
                seals += 1;
            }
        }
        assert!(seals >= 2, "expected auto-seals, got {seals}");
        w.force(&mut d).unwrap();
        let scan = LogWriter::scan(&mut d, &[WblockAddr::new(0, 2, 0)], 0, 1);
        assert_eq!(scan.records.len(), 5000);
    }

    /// Records are encoded in place into the page being built. The record
    /// that overflows a page seals the records before it as one page —
    /// byte for byte their reference encodings — and opens the next page.
    #[test]
    fn an_overflowing_record_opens_the_next_page() {
        let mut d = dev();
        let mut w = LogWriter::fresh(EblockAddr::new(0, 2));
        let cap = LogWriter::page_capacity(&d);
        let record = |i: u64| match i % 3 {
            0 => LogRecord::Done { action: i },
            _ => LogRecord::Write {
                action: i,
                akind: crate::types::ActionKind::Gc,
                lpid: i * 7,
                new_addr: i << 20,
                old_addr: !i,
            },
        };
        let mut page = Vec::new();
        for i in 0.. {
            let rec = record(i);
            let mut enc = Vec::new();
            rec.encode(&mut enc);
            let (lsn, sealed) = w.append(&rec, &mut d).unwrap();
            assert_eq!(lsn, i + 1);
            let Some(o) = sealed else {
                page.extend_from_slice(&enc);
                assert_eq!(w.pending, page);
                continue;
            };
            assert!(page.len() <= cap && page.len() + enc.len() > cap);
            assert_eq!((o.first_lsn, o.last_lsn), (1, lsn - 1));
            let (bytes, _) = d.read_wblocks(o.addr.eblock, o.addr.wblock, 1).unwrap();
            let (seq, first_lsn, count, _, payload) = decode_page(&bytes).unwrap();
            assert_eq!((seq, first_lsn, count as u64), (0, 1, lsn - 1));
            assert_eq!(payload, &page[..]);
            assert!(bytes[HEADER_BYTES + page.len()..].iter().all(|&b| b == 0));
            assert_eq!((w.pending_first_lsn(), w.pending_count), (lsn, 1));
            assert_eq!(w.pending, enc);
            break;
        }
    }

    #[test]
    fn rolls_into_standby_when_eblock_full() {
        let mut d = dev();
        let geo = *d.geometry();
        let mut w = LogWriter::fresh(EblockAddr::new(0, 2));
        w.add_standby(EblockAddr::new(1, 3));
        w.add_standby(EblockAddr::new(2, 4));
        let pages_needed = geo.wblocks_per_eblock + 3;
        let mut entered = Vec::new();
        for i in 0..pages_needed as u64 {
            w.append(&rec(i), &mut d).unwrap();
            let (_, outcome) = w.force(&mut d).unwrap();
            let o = outcome.unwrap();
            entered.extend(o.entered);
        }
        assert_eq!(entered, vec![EblockAddr::new(1, 3)]);
        let scan = LogWriter::scan(&mut d, &[WblockAddr::new(0, 2, 0)], 0, 1);
        assert_eq!(scan.pages.len(), pages_needed as usize);
    }

    #[test]
    fn fallback_on_program_failure_keeps_chain_readable() {
        // Fail the 3rd log program (ordinal 2): the page retries at the
        // standby; recovery must still find every record.
        let mut d = FlashDevice::new(Geometry::tiny(), CostProfile::unit())
            .with_faults(FaultInjector::script([2]));
        let mut w = LogWriter::fresh(EblockAddr::new(0, 2));
        w.add_standby(EblockAddr::new(1, 3));
        w.add_standby(EblockAddr::new(2, 4));
        for i in 0..6 {
            w.append(&rec(i), &mut d).unwrap();
            let (_, outcome) = w.force(&mut d).unwrap();
            assert!(outcome.is_some());
        }
        assert_eq!(d.stats().program_failures, 1);
        let scan = LogWriter::scan(&mut d, &[WblockAddr::new(0, 2, 0)], 0, 1);
        assert_eq!(scan.records.len(), 6, "all records recoverable after fallback");
        // The chain left the poisoned EBLOCK.
        assert!(scan.pages.iter().any(|p| p.addr.eblock != EblockAddr::new(0, 2)));
    }

    #[test]
    fn first_page_falls_back_to_a_standby() {
        // Fail the very first log program: the head is the only place
        // nothing has pointed at yet, so the standbys must catch the page.
        let mut d = FlashDevice::new(Geometry::tiny(), CostProfile::unit())
            .with_faults(FaultInjector::script([0]));
        let mut w = LogWriter::fresh(EblockAddr::new(0, 2));
        w.add_standby(EblockAddr::new(1, 3));
        w.add_standby(EblockAddr::new(2, 4));
        let (lsn, _) = w.append(&rec(7), &mut d).unwrap();
        let (_, outcome) = w.force(&mut d).unwrap();
        let o = outcome.unwrap();
        assert_eq!(o.poisoned, vec![EblockAddr::new(0, 2)]);
        assert_eq!(o.addr, WblockAddr::new(1, 3, 0));
        let (cands, seq) = w.resume_point(1);
        let scan = LogWriter::scan(&mut d, &cands, seq, 1);
        assert_eq!(scan.records, vec![(lsn, rec(7))]);
    }

    #[test]
    fn shutdown_when_all_candidates_fail() {
        let mut d = FlashDevice::new(Geometry::tiny(), CostProfile::unit())
            .with_faults(FaultInjector::probabilistic(1.0, 1));
        let mut w = LogWriter::fresh(EblockAddr::new(0, 2));
        w.add_standby(EblockAddr::new(1, 3));
        w.append(&rec(0), &mut d).unwrap();
        assert!(matches!(w.force(&mut d), Err(EleosError::ShutDown)));
    }

    #[test]
    fn resume_continues_lsns_and_chain() {
        let mut d = dev();
        let mut w = LogWriter::fresh(EblockAddr::new(0, 2));
        w.append(&rec(1), &mut d).unwrap();
        w.force(&mut d).unwrap();
        let scan = LogWriter::scan(&mut d, &[WblockAddr::new(0, 2, 0)], 0, 1);
        let mut w2 = LogWriter::resume(&scan);
        let (lsn, _) = w2.append(&rec(2), &mut d).unwrap();
        assert_eq!(lsn, 2);
        w2.force(&mut d).unwrap();
        let scan2 = LogWriter::scan(&mut d, &[WblockAddr::new(0, 2, 0)], 0, 1);
        assert_eq!(scan2.records.len(), 2);
    }

    #[test]
    fn resume_point_finds_page_containing_lsn() {
        let mut d = dev();
        let mut w = LogWriter::fresh(EblockAddr::new(0, 2));
        for i in 0..4 {
            w.append(&rec(i), &mut d).unwrap();
            w.force(&mut d).unwrap();
        }
        // LSN 3 lives in the third page (wblock 2).
        let (cands, seq) = w.resume_point(3);
        assert_eq!(cands[0], WblockAddr::new(0, 2, 2));
        assert_eq!(seq, 2);
        // Truncate below LSN 3 drops the first two pages.
        w.truncate_directory(3);
        assert_eq!(w.directory().len(), 2);
    }

    #[test]
    fn scan_tolerates_stale_page_at_fallback_location() {
        // Simulate: page 0 written, then a page with wrong seq sits at the
        // forward location of a different chain. Scan must not follow it.
        let mut d = dev();
        let mut w = LogWriter::fresh(EblockAddr::new(0, 2));
        w.append(&rec(1), &mut d).unwrap();
        w.force(&mut d).unwrap();
        // Start scanning from wblock 1 expecting seq 0: page there (none)
        // -> empty scan with sane defaults.
        let scan = LogWriter::scan(&mut d, &[WblockAddr::new(0, 2, 1)], 0, 5);
        assert!(scan.records.is_empty());
        assert_eq!(scan.next_lsn, 5);
    }
}
