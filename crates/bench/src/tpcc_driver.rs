//! TPC-C trace replay driver (Fig. 9 and Table II).
//!
//! Replays the synthetic compressed-page trace against the three storage
//! interfaces, measuring write throughput in pages/s and interface
//! bandwidth in MB/s of virtual time:
//!
//! * **Block** — pages padded to 4 KB and appended sequentially through the
//!   block interface in `buffer`-sized host I/Os (the storage engine whose
//!   trace the paper replays is an LSM B⁺-tree, so its page writes are
//!   large sequential I/Os); the conventional FTL turns every
//!   packet-bounded chunk into its own write context.
//! * **Batch (FP)** — ELEOS in fixed-4 KB-page mode: one context per
//!   buffer, pages padded.
//! * **Batch (VP)** — ELEOS with variable-size pages: one context per
//!   buffer, no padding.

use eleos::{Eleos, EleosConfig, PageMode, WriteBatch, WriteOpts};
use eleos_flash::{CostProfile, FlashDevice, Geometry, Nanos, SpanKind};
use eleos_workloads::{PageWrite, TpccTrace, TpccTraceConfig};
use oxblock::{OxBlock, OxConfig};

/// The three storage interfaces under comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interface {
    Block,
    BatchFp,
    BatchVp,
}

impl Interface {
    pub fn label(&self) -> &'static str {
        match self {
            Interface::Block => "Block",
            Interface::BatchFp => "Batch (FP)",
            Interface::BatchVp => "Batch (VP)",
        }
    }
}

/// Result of one replay run.
#[derive(Debug, Clone)]
pub struct TpccResult {
    pub interface: Interface,
    pub buffer_bytes: usize,
    /// TPC-C pages written.
    pub pages: u64,
    /// Bytes that crossed the storage interface (incl. padding).
    pub wire_bytes: u64,
    /// Bytes physically programmed to flash during the run (data + meta +
    /// log amplification).
    pub flash_bytes_programmed: u64,
    /// Virtual elapsed time.
    pub sim_ns: Nanos,
    /// Simulated controller-CPU busy time (telemetry snapshot).
    pub cpu_busy_ns: Nanos,
    /// Simulated flash-channel busy time, summed across channels.
    pub flash_busy_ns: Nanos,
    /// p99 of the write-batch latency span; 0 for the block path, whose
    /// conventional FTL records no controller spans.
    pub write_p99_ns: Nanos,
}

impl TpccResult {
    pub fn pages_per_sec(&self) -> f64 {
        self.pages as f64 / (self.sim_ns as f64 / 1e9)
    }

    pub fn mb_per_sec(&self) -> f64 {
        (self.wire_bytes as f64 / 1e6) / (self.sim_ns as f64 / 1e9)
    }
}

/// Fixed logical page size used by the Block and Batch(FP) configurations.
pub const FIXED_PAGE: usize = 4096;
/// Payload capacity of a fixed page after the 16-byte entry header.
pub const FIXED_PAYLOAD: usize = FIXED_PAGE - 16;

/// Replay `volume_bytes` of the fitted synthetic trace through
/// `interface` with the given write-buffer size.
pub fn run_tpcc(
    interface: Interface,
    profile: CostProfile,
    geo: Geometry,
    buffer_bytes: usize,
    volume_bytes: u64,
    trace_cfg: TpccTraceConfig,
) -> TpccResult {
    let max_lpid = trace_cfg.pages + 1;
    let trace = TpccTrace::new(trace_cfg);
    run_tpcc_trace(interface, profile, geo, buffer_bytes, volume_bytes, trace, max_lpid)
}

/// Replay an arbitrary page-write trace (e.g. the organic TPC-C engine's
/// flush stream) through `interface`.
pub fn run_tpcc_trace(
    interface: Interface,
    profile: CostProfile,
    geo: Geometry,
    buffer_bytes: usize,
    volume_bytes: u64,
    trace: impl Iterator<Item = PageWrite>,
    max_lpid: u64,
) -> TpccResult {
    match interface {
        Interface::Block => run_block(profile, geo, buffer_bytes, volume_bytes, trace),
        Interface::BatchFp => run_batch(
            PageMode::Fixed(FIXED_PAGE as u32),
            profile,
            geo,
            buffer_bytes,
            volume_bytes,
            trace,
            max_lpid,
        ),
        Interface::BatchVp => run_batch(
            PageMode::Variable,
            profile,
            geo,
            buffer_bytes,
            volume_bytes,
            trace,
            max_lpid,
        ),
    }
}

fn run_batch(
    mode: PageMode,
    profile: CostProfile,
    geo: Geometry,
    buffer_bytes: usize,
    volume_bytes: u64,
    mut trace: impl Iterator<Item = PageWrite>,
    max_lpid: u64,
) -> TpccResult {
    let dev = FlashDevice::new(geo, profile);
    let cfg = EleosConfig {
        page_mode: mode,
        max_user_lpid: max_lpid,
        ckpt_log_bytes: 64 * 1024 * 1024,
        map_entries_per_page: 256,
        mapping_cache_pages: 1 << 16,
        ..Default::default()
    };
    let mut ssd = Eleos::format(dev, cfg).unwrap();
    let t0 = ssd.now();
    let mut pages = 0u64;
    let mut payload = 0u64;
    let mut wire = 0u64;
    let mut batch = WriteBatch::new(mode);
    let mut scratch = vec![0xA5u8; FIXED_PAYLOAD];
    while payload < volume_bytes {
        let Some(w) = trace.next() else { break };
        let len = (w.len as usize).min(FIXED_PAYLOAD);
        scratch[0..8].copy_from_slice(&w.lpid.to_le_bytes());
        batch.put(w.lpid, &scratch[..len]).unwrap();
        pages += 1;
        payload += len as u64;
        if batch.wire_len() >= buffer_bytes {
            wire += batch.wire_len() as u64;
            ssd.write(&batch, WriteOpts::default()).unwrap();
            batch = WriteBatch::new(mode);
        }
    }
    if !batch.is_empty() {
        wire += batch.wire_len() as u64;
        ssd.write(&batch, WriteOpts::default()).unwrap();
    }
    ssd.drain();
    let snap = ssd.snapshot();
    TpccResult {
        interface: match mode {
            PageMode::Variable => Interface::BatchVp,
            PageMode::Fixed(_) => Interface::BatchFp,
        },
        buffer_bytes,
        pages,
        wire_bytes: wire,
        flash_bytes_programmed: snap.flash.bytes_programmed,
        sim_ns: ssd.now() - t0,
        cpu_busy_ns: snap.cpu_busy_ns,
        flash_busy_ns: snap.flash.total_busy_ns(),
        write_p99_ns: snap.span(SpanKind::WriteBatch).p99(),
    }
}

fn run_block(
    profile: CostProfile,
    geo: Geometry,
    buffer_bytes: usize,
    volume_bytes: u64,
    mut trace: impl Iterator<Item = PageWrite>,
) -> TpccResult {
    let dev = FlashDevice::new(geo, profile);
    // Expose 85% of the raw capacity; the replay appends sequentially and
    // the volume is sized to stay below it, so FTL GC stays out of the
    // measurement (matching the paper's fresh-drive replay).
    let logical_pages = geo.total_bytes() * 85 / 100 / FIXED_PAGE as u64;
    let mut ftl = OxBlock::format(dev, OxConfig::new(logical_pages)).unwrap();
    let t0 = ftl.now();
    let mut pages = 0u64;
    let mut payload = 0u64;
    let mut wire = 0u64;
    let mut next_lba = 0u64;
    let buffer_pages = (buffer_bytes / FIXED_PAGE).max(1);
    let mut buf: Vec<u8> = Vec::with_capacity(buffer_pages * FIXED_PAGE);
    while payload < volume_bytes {
        let Some(w) = trace.next() else { break };
        let len = (w.len as usize).min(FIXED_PAYLOAD);
        let mut slot = vec![0xA5u8; FIXED_PAGE];
        slot[0..8].copy_from_slice(&w.lpid.to_le_bytes());
        buf.extend_from_slice(&slot);
        pages += 1;
        payload += len as u64;
        if buf.len() >= buffer_pages * FIXED_PAGE {
            wire += buf.len() as u64;
            let lba_pages = (buf.len() / FIXED_PAGE) as u64;
            ftl.write(next_lba, &buf).unwrap();
            next_lba = (next_lba + lba_pages) % (logical_pages - buffer_pages as u64);
            buf.clear();
        }
    }
    if !buf.is_empty() {
        wire += buf.len() as u64;
        ftl.write(next_lba, &buf).unwrap();
    }
    ftl.device_mut().clock_mut().drain();
    TpccResult {
        interface: Interface::Block,
        buffer_bytes,
        pages,
        wire_bytes: wire,
        flash_bytes_programmed: ftl.device().stats().bytes_programmed,
        sim_ns: ftl.now() - t0,
        cpu_busy_ns: ftl.device().clock().cpu_busy_ns(),
        flash_busy_ns: ftl.device().stats().total_busy_ns(),
        write_p99_ns: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_geo() -> Geometry {
        Geometry {
            channels: 8,
            eblocks_per_channel: 16,
            wblocks_per_eblock: 64,
            wblock_bytes: 32 * 1024,
            rblock_bytes: 4 * 1024,
        } // 256 MB
    }

    #[test]
    fn batch_vp_beats_fp_in_pages_per_sec() {
        let vol = 8 * 1024 * 1024;
        let cfg = TpccTraceConfig {
            pages: 20_000,
            ..Default::default()
        };
        let vp = run_tpcc(
            Interface::BatchVp,
            CostProfile::high_end_cpu(),
            small_geo(),
            1024 * 1024,
            vol,
            cfg.clone(),
        );
        let fp = run_tpcc(
            Interface::BatchFp,
            CostProfile::high_end_cpu(),
            small_geo(),
            1024 * 1024,
            vol,
            cfg,
        );
        let ratio = vp.pages_per_sec() / fp.pages_per_sec();
        assert!(
            ratio > 1.4 && ratio < 2.6,
            "VP/FP pages-per-sec ratio {ratio} (paper: ~1.75x)"
        );
    }

    #[test]
    fn batch_beats_block_on_high_end_cpu() {
        let vol = 8 * 1024 * 1024;
        let cfg = TpccTraceConfig {
            pages: 20_000,
            ..Default::default()
        };
        let fp = run_tpcc(
            Interface::BatchFp,
            CostProfile::high_end_cpu(),
            small_geo(),
            1024 * 1024,
            vol,
            cfg.clone(),
        );
        let block = run_tpcc(
            Interface::Block,
            CostProfile::high_end_cpu(),
            small_geo(),
            1024 * 1024,
            vol,
            cfg,
        );
        let ratio = fp.mb_per_sec() / block.mb_per_sec();
        assert!(
            ratio > 3.0 && ratio < 7.0,
            "FP/Block bandwidth ratio {ratio} (paper: ~4.9x)"
        );
    }

    #[test]
    fn larger_buffers_raise_batch_throughput() {
        let vol = 4 * 1024 * 1024;
        let cfg = TpccTraceConfig {
            pages: 20_000,
            ..Default::default()
        };
        let small = run_tpcc(
            Interface::BatchVp,
            CostProfile::weak_controller(),
            small_geo(),
            64 * 1024,
            vol,
            cfg.clone(),
        );
        let large = run_tpcc(
            Interface::BatchVp,
            CostProfile::weak_controller(),
            small_geo(),
            1024 * 1024,
            vol,
            cfg,
        );
        assert!(
            large.pages_per_sec() > small.pages_per_sec(),
            "batching gains with larger buffers: {} vs {}",
            large.pages_per_sec(),
            small.pages_per_sec()
        );
    }
}
