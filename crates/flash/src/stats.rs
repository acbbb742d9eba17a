//! Operation counters for the emulated device.
//!
//! These feed the paper's evaluation directly: Fig. 10(b) is "the total
//! amount of data written to the SSD during benchmarks", i.e.
//! [`FlashStats::bytes_programmed`].

crate::counters! {
    /// Monotonic counters, updated by every device operation.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct FlashStats {
        /// Successful WBLOCK programs.
        pub programs: u64,
        /// Program attempts that failed (injected or endurance).
        pub program_failures: u64,
        /// Bytes written by successful programs (whole WBLOCKs).
        pub bytes_programmed: u64,
        /// RBLOCK read operations.
        pub rblock_reads: u64,
        /// Bytes transferred by reads (whole RBLOCKs).
        pub bytes_read: u64,
        /// EBLOCK erases.
        pub erases: u64;
        /// Busy nanoseconds accumulated per channel (programs, reads and
        /// erases, including failed programs — the channel was occupied
        /// either way). One slot per channel; the device sizes the vector
        /// at construction.
        pub channel_busy_ns: Vec<u64>,
    }
}

impl FlashStats {
    /// Total busy nanoseconds summed over all channels.
    pub fn total_busy_ns(&self) -> u64 {
        self.channel_busy_ns.iter().sum()
    }

    /// Channel overlap ratio over an elapsed virtual interval:
    /// `Σ channel busy / (channels · elapsed)`, in `[0, 1]`. A value near
    /// `1/channels` means I/O was fully serialized; higher means channels
    /// genuinely ran in parallel. Returns 0 when there is nothing to report.
    pub fn overlap_ratio(&self, elapsed_ns: u64) -> f64 {
        let channels = self.channel_busy_ns.len() as u64;
        if channels == 0 || elapsed_ns == 0 {
            return 0.0;
        }
        self.total_busy_ns() as f64 / (channels * elapsed_ns) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_ratio_bounds() {
        let s = FlashStats {
            channel_busy_ns: vec![500, 500, 0, 0],
            ..FlashStats::default()
        };
        // 1000 busy ns over 4 channels × 1000 ns elapsed.
        assert!((s.overlap_ratio(1_000) - 0.25).abs() < 1e-12);
        assert_eq!(s.overlap_ratio(0), 0.0);
        assert_eq!(FlashStats::default().overlap_ratio(1_000), 0.0);
    }
}
