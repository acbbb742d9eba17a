//! Controller-level operation counters.

/// Counters kept by the ELEOS controller (volatile; reset on recovery).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EleosStats {
    /// Write buffers accepted (committed).
    pub batches: u64,
    /// LPAGEs written by user batches.
    pub lpages: u64,
    /// Raw payload bytes received from users (pre-padding).
    pub payload_bytes: u64,
    /// Bytes occupied on flash by user LPAGEs (headers + alignment or
    /// fixed-page padding) — the numerator of internal fragmentation.
    pub stored_bytes: u64,
    /// Read requests served.
    pub reads: u64,
    /// Payload bytes returned to readers.
    pub read_bytes: u64,
    /// Committed system actions (all kinds).
    pub commits: u64,
    /// Aborted system actions.
    pub aborts: u64,
    /// GC victim EBLOCKs processed.
    pub gc_collections: u64,
    /// LPAGEs relocated by GC.
    pub gc_moved_pages: u64,
    /// Bytes relocated by GC.
    pub gc_moved_bytes: u64,
    /// EBLOCK erases driven by GC (incl. log truncation reclaims).
    pub gc_erases: u64,
    /// Write-failure migrations performed (Section VII).
    pub migrations: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// GC relocations dropped because a newer user write won (conditional
    /// install failed).
    pub gc_installs_aborted: u64,
    /// Program failures the controller observed and handled (any path:
    /// user action, GC relocation, checkpoint flush, WAL seal, close
    /// repair). A device-level failure can be counted once per controller
    /// reaction, so this tracks *handled events*, not raw flash errors.
    pub program_failures: u64,
    /// Bounded retries of internal actions (checkpoint flushes, nested
    /// migrations) after a program-failure abort. User-action retries are
    /// the application's job and are not counted here.
    pub action_retries: u64,
    /// GC relocation actions aborted by a program failure, one per aborted
    /// pass: a pass relocates the victims of all of its rounds in one
    /// action, so every one of them keeps its data and is retried by a
    /// later pass.
    pub gc_relocation_aborts: u64,
    /// Log pages placed at a fallback forward-pointer candidate after the
    /// primary location failed to program (Section VIII-A's three
    /// provisioned locations absorbing a failure).
    pub wal_fallbacks: u64,
    /// EBLOCKs permanently retired for repeated program failures or
    /// erase-endurance exhaustion.
    pub retired_eblocks: u64,
}

impl EleosStats {
    /// Flash-level write amplification relative to user payload bytes.
    pub fn write_amplification(&self, flash_bytes_programmed: u64) -> f64 {
        if self.payload_bytes == 0 {
            return 0.0;
        }
        flash_bytes_programmed as f64 / self.payload_bytes as f64
    }

    /// Internal fragmentation overhead of the stored representation.
    pub fn padding_overhead(&self) -> f64 {
        if self.payload_bytes == 0 {
            return 0.0;
        }
        self.stored_bytes as f64 / self.payload_bytes as f64 - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amplification_and_padding() {
        let s = EleosStats {
            payload_bytes: 1000,
            stored_bytes: 1300,
            ..Default::default()
        };
        assert!((s.write_amplification(2600) - 2.6).abs() < 1e-9);
        assert!((s.padding_overhead() - 0.3).abs() < 1e-9);
        let z = EleosStats::default();
        assert_eq!(z.write_amplification(100), 0.0);
        assert_eq!(z.padding_overhead(), 0.0);
    }
}
