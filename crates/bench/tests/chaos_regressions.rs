//! Pinned chaos-soak seeds that each found a real controller bug. A
//! [`ChaosConfig`] fully determines the operation sequence and fault
//! script, so replaying the exact failing seed is the regression test.
//! Cycle counts are trimmed to just past the cycle where the original
//! divergence fired (earlier cycles replay identically).

use eleos_bench::chaos::{run_chaos, ChaosConfig};

fn check(cfg: ChaosConfig) {
    if let Err(f) = run_chaos(&cfg) {
        panic!("{f}");
    }
}

/// A crash landed between a program failure and the healing erase; the
/// recovery free-list rebuild handed out the still-poisoned zero-frontier
/// EBLOCK, whose very first program then failed with `EblockPoisoned`.
/// Fixed by erasing defensively when the device reports the block
/// poisoned even at frontier zero (`recovery::rebuild_free_lists`).
#[test]
fn seed_0_recovery_hands_out_poisoned_free_block() {
    check(ChaosConfig { seed: 0, ..Default::default() });
}

/// A checkpoint flush action aborted on a program failure, and the retry
/// re-programmed the *first* attempt's pre-encoded bytes — losing the
/// mapping updates the abort's own migration had just made. The stale
/// flush then satisfied the install, recovery loaded the stale map page,
/// and committed writes vanished. Fixed by re-encoding every attempt
/// from the live tables (`ckpt_ops::run_ckpt_action`).
#[test]
fn seed_6_checkpoint_retry_must_reencode() {
    check(ChaosConfig { seed: 6, ..Default::default() });
}

/// Checkpointing force-closes stale open EBLOCKs; when the close's
/// metadata program failed, the failure path called `migrate_eblock`,
/// which found neither the (already detached) cursor metadata nor any
/// flash metadata — and erased the EBLOCK with its live pages inside.
/// Fixed by migrating with the close plan's in-memory entry list
/// (`ckpt_ops::force_close_now`).
#[test]
fn seed_9_force_close_failure_loses_close_metadata() {
    check(ChaosConfig { seed: 9, cycles: 9, ..Default::default() });
}

/// A poisoned WAL standby stayed in the writer's standby pool after the
/// controller handed it to truncation-reclaim. Reclaim erased and freed
/// it; a later seal offered it as a forward-pointer candidate again and
/// programmed a block sitting in the free list — which the allocator
/// then handed to a user cursor still poisoned. Fixed by dropping
/// poisoned EBLOCKs from the standby pool (`wal::writer::seal`).
#[test]
fn seed_14_poisoned_wal_standby_reused_after_reclaim() {
    check(ChaosConfig { seed: 14, cycles: 2, ..Default::default() });
}

/// Same stale-standby defect, higher fault rate: here the stale seal
/// *succeeded* into the freed block, so recovery replayed log records
/// out of an EBLOCK that user data had since overwritten — surfacing as
/// silent post-recovery content corruption rather than `EblockPoisoned`.
#[test]
fn seed_9_high_fail_p_stale_standby_corruption() {
    check(ChaosConfig { seed: 9, fail_p: 0.006, ..Default::default() });
}

/// A GC pass provisioned one round's live pages into GC bins, then a
/// later round's bin allocation failed with `DeviceFull`. The pass was
/// dropped, but the bins' cursors still pointed past WBLOCKs that were
/// never programmed, so the next program into such a bin failed with
/// `OutOfOrderProgram` — here under a front-end flush. Fixed by
/// unwinding a failed provisioning's plan the way an aborted action's
/// plan is unwound (`Eleos::provision`, `Eleos::unwind_plan`).
#[test]
fn seed_30_failed_gc_provisioning_keeps_cursor_advances() {
    check(ChaosConfig { seed: 30, clients: 4, ..Default::default() });
}

/// The same stale-cursor defect on a single writer over two shards,
/// surfacing in a checkpoint.
#[test]
fn seed_102_failed_provisioning_two_shards() {
    check(ChaosConfig { seed: 102, shards: 2, cycles: 7, ..Default::default() });
}

/// The same stale-cursor defect through the front-end over two shards,
/// surfacing in a checkpoint.
#[test]
fn seed_120_failed_provisioning_sharded_front_end() {
    check(ChaosConfig { seed: 120, clients: 4, shards: 2, ..Default::default() });
}

/// A cross-shard delete including LPID 102 committed and installed, then
/// the map-eviction flush after it found no space and returned
/// `DeviceFull`. The router reported the durable delete as failed, the
/// model kept LPID 102, and recovery correctly had it deleted. Fixed by
/// absorbing `DeviceFull` in post-commit housekeeping like an abort
/// (`Eleos::post_write_maintenance`).
#[test]
fn seed_62_committed_delete_reported_device_full() {
    check(ChaosConfig { seed: 62, shards: 2, cycles: 8, ..Default::default() });
}

/// The same housekeeping `DeviceFull` after a committed cross-shard
/// delete, at the higher program-failure rate: the model kept LPID 33,
/// which recovery correctly had deleted.
#[test]
fn seed_189_high_fail_p_committed_group_reported_device_full() {
    check(ChaosConfig { seed: 189, fail_p: 0.02, shards: 2, cycles: 8, ..Default::default() });
}

/// Format's first log page had one candidate location, WBLOCK 0 of the
/// head EBLOCK, so one program failure on its first seal shut the device
/// down ("format failed: controller shut down after repeated log write
/// failures"). Fixed by making the standbys added before the first seal
/// candidates too (`wal::writer::add_standby`).
#[test]
fn seed_105_first_log_page_fails_at_format() {
    check(ChaosConfig { seed: 105, cycles: 1, ..Default::default() });
}

/// The soak's own acceptance bar: default configuration, first ten
/// seeds, zero divergences.
#[test]
fn first_ten_seeds_zero_divergences() {
    for seed in 0..10 {
        check(ChaosConfig { seed, ..Default::default() });
    }
}
