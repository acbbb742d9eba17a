//! Session WSN redo protocol coverage (ISSUE 10 satellite 2).
//!
//! Section III-A2: within a session, write buffers carry consecutive
//! WSNs; a gap or duplicate is *not applied* and the highest applied WSN
//! is re-ACKed, so a host can redo unACKed writes after a crash without
//! duplicating effects. These tests pin that contract through the public
//! write path, through `crash()`/`recover()` cycles, through the
//! group-commit front-end's queue-aware variant, and through the sharded
//! array's cross-shard advance path.

use eleos::frontend::{Frontend, GroupCommitPolicy};
use eleos::types::Wsn;
use eleos::{
    Controller, Eleos, EleosConfig, EleosError, PageMode, ShardedEleos, WriteBatch, WriteOpts,
};
use eleos_flash::{CostProfile, FlashDevice, Geometry};
use proptest::prelude::*;

fn ssd() -> Eleos {
    Eleos::format(
        FlashDevice::new(Geometry::tiny(), CostProfile::unit()),
        EleosConfig::test_small(),
    )
    .unwrap()
}

fn batch(lpid: u64, fill: u8, len: usize) -> WriteBatch {
    let mut b = WriteBatch::new(PageMode::Variable);
    b.put(lpid, &vec![fill; len]).unwrap();
    b
}

#[test]
fn gap_is_not_applied_and_reacks_highest() {
    let mut e = ssd();
    let sid = e.open_session().unwrap();
    e.write(&batch(1, 0x11, 64), WriteOpts::ordered(sid, 1)).unwrap();
    // Gap: wsn 3 while 2 is expected.
    match e.write(&batch(2, 0x33, 64), WriteOpts::ordered(sid, 3)) {
        Err(EleosError::WsnOutOfOrder { got: 3, highest_acked: 1 }) => {}
        r => panic!("unexpected: {r:?}"),
    }
    assert!(matches!(e.read(2), Err(EleosError::NotFound(_))), "gap write must not apply");
    assert_eq!(e.session_highest_wsn(sid), Some(1));
}

#[test]
fn duplicate_is_not_applied_and_reacks_highest() {
    let mut e = ssd();
    let sid = e.open_session().unwrap();
    e.write(&batch(1, 0x11, 64), WriteOpts::ordered(sid, 1)).unwrap();
    e.write(&batch(2, 0x22, 64), WriteOpts::ordered(sid, 2)).unwrap();
    // Duplicate redo of wsn 1 with different bytes: rejected, old bytes stay.
    match e.write(&batch(1, 0xFF, 32), WriteOpts::ordered(sid, 1)) {
        Err(EleosError::WsnOutOfOrder { got: 1, highest_acked: 2 }) => {}
        r => panic!("unexpected: {r:?}"),
    }
    assert_eq!(e.read(1).unwrap().as_ref(), &[0x11; 64][..]);
    assert_eq!(e.session_highest_wsn(sid), Some(2));
}

#[test]
fn redo_after_crash_is_idempotent() {
    let cfg = EleosConfig::test_small();
    let mut e = ssd();
    let sid = e.open_session().unwrap();
    for w in 1..=3u64 {
        e.write(&batch(w, w as u8, 100), WriteOpts::ordered(sid, w)).unwrap();
    }
    // Crash; the host replays its unACKed tail — which here includes
    // writes the controller already applied (the ACKs were "lost").
    let dev = e.crash();
    let mut e = Eleos::recover(dev, cfg.clone()).unwrap();
    assert_eq!(e.session_highest_wsn(sid), Some(3), "high-water survives recovery");
    for w in 2..=3u64 {
        // Redo with *different* bytes: must be discarded, not re-applied.
        match e.write(&batch(w, 0xEE, 50), WriteOpts::ordered(sid, w)) {
            Err(EleosError::WsnOutOfOrder { highest_acked: 3, .. }) => {}
            r => panic!("redo wsn {w}: unexpected {r:?}"),
        }
    }
    // Original effects exactly once.
    for w in 1..=3u64 {
        assert_eq!(e.read(w).unwrap().as_ref(), &vec![w as u8; 100][..]);
    }
    // The redo continues where the ACKs ran out.
    e.write(&batch(9, 9, 64), WriteOpts::ordered(sid, 4)).unwrap();
    assert_eq!(e.session_highest_wsn(sid), Some(4));

    // A second crash re-resolves identically.
    let dev = e.crash();
    let e2 = Eleos::recover(dev, cfg).unwrap();
    assert_eq!(e2.session_highest_wsn(sid), Some(4));
}

#[test]
fn multi_session_advances_commit_atomically_with_the_batch() {
    let cfg = EleosConfig::test_small();
    let mut e = ssd();
    let a = e.open_session().unwrap();
    let b = e.open_session().unwrap();
    // One coalesced group carries advances for two sessions (the wire
    // server's group commit does exactly this).
    let mut m = WriteBatch::new(PageMode::Variable);
    m.put(1, &[0xAA; 80]).unwrap();
    m.put(2, &[0xBB; 80]).unwrap();
    e.write_sessions(&m, &[(a, 2), (b, 1)]).unwrap();
    assert_eq!(e.session_highest_wsn(a), Some(2));
    assert_eq!(e.session_highest_wsn(b), Some(1));

    // Both advances rode the same commit force: they survive a crash
    // together with the data.
    let dev = e.crash();
    let mut e = Eleos::recover(dev, cfg).unwrap();
    assert_eq!(e.session_highest_wsn(a), Some(2));
    assert_eq!(e.session_highest_wsn(b), Some(1));
    assert_eq!(e.read(1).unwrap().as_ref(), &[0xAA; 80][..]);
    assert_eq!(e.read(2).unwrap().as_ref(), &[0xBB; 80][..]);
}

#[test]
fn write_sessions_rejects_unknown_and_reserved_sids() {
    let mut e = ssd();
    assert!(matches!(
        e.write_sessions(&batch(1, 1, 32), &[(12345, 1)]),
        Err(EleosError::UnknownSession(12345))
    ));
    assert!(matches!(
        e.write_sessions(&batch(1, 1, 32), &[(0, 1)]),
        Err(EleosError::UnknownSession(0))
    ));
}

#[test]
fn sharded_cross_shard_advance_survives_crash() {
    let cfg = EleosConfig::test_small();
    let devs: Vec<FlashDevice> = (0..2)
        .map(|_| FlashDevice::new(Geometry::tiny(), CostProfile::unit()))
        .collect();
    let mut sh = ShardedEleos::format(devs, &cfg).unwrap();
    let sid = Controller::open_session(&mut sh).unwrap();
    // A batch wide enough to straddle both shards: the advance rides the
    // coordinator's CoordCommit force.
    let mut m = WriteBatch::new(PageMode::Variable);
    for l in 0..16u64 {
        m.put(l, &[l as u8; 70]).unwrap();
    }
    sh.write_group_sessions(&m, &[(sid, 1)]).unwrap();
    assert_eq!(ShardedEleos::session_highest(&sh, sid), Some(1));

    let devs = sh.crash();
    let mut sh = ShardedEleos::recover(devs, &cfg).unwrap();
    assert_eq!(
        ShardedEleos::session_highest(&sh, sid),
        Some(1),
        "cross-shard advance durable with the group"
    );
    for l in 0..16u64 {
        assert_eq!(sh.read(l).unwrap().as_ref(), &[l as u8; 70][..]);
    }
    // The redo of wsn 1 is rejected — exactly-once across the array.
    assert!(matches!(
        sh.write_group_sessions(&m, &[(sid, 1)]),
        Ok(_) | Err(_)
    ));
}

#[test]
fn frontend_queue_aware_check_allows_pipelining_rejects_gaps() {
    let mut e = ssd();
    let sid = e.open_session().unwrap();
    let mut fe = Frontend::new(2, GroupCommitPolicy {
        flush_bytes: usize::MAX,
        flush_interval_ns: u64::MAX,
        max_queued_batches: 100,
    });
    // WSNs 1..=3 pipeline into the open group without any flush.
    for w in 1..=3u64 {
        fe.submit_sessioned(&mut e, 0, w * 10, batch(w, w as u8, 60), sid, w).unwrap();
    }
    assert_eq!(fe.pending_batches(), 3);
    // A gap (5) and a duplicate (2) are rejected against queue + durable.
    assert!(matches!(
        fe.submit_sessioned(&mut e, 0, 40, batch(9, 9, 60), sid, 5),
        Err(EleosError::WsnOutOfOrder { got: 5, highest_acked: 0 })
    ));
    assert!(matches!(
        fe.submit_sessioned(&mut e, 0, 41, batch(9, 9, 60), sid, 2),
        Err(EleosError::WsnOutOfOrder { got: 2, highest_acked: 0 })
    ));
    // The flush makes all three durable atomically; the ACKs carry the
    // session tags and the table reflects the max.
    let acks = fe.flush(&mut e).unwrap();
    assert_eq!(acks.len(), 3);
    assert_eq!(acks[2].session, Some((sid, 3)));
    assert_eq!(e.session_highest_wsn(sid), Some(3));
    // Now 4 is next (and the rejected 5 is *still* a gap... until 4 lands).
    fe.submit_sessioned(&mut e, 1, 50, batch(4, 4, 60), sid, 4).unwrap();
    fe.flush(&mut e).unwrap();
    assert_eq!(e.session_highest_wsn(sid), Some(4));
}

#[test]
fn frontend_purge_drops_only_that_clients_unflushed_batches() {
    let mut e = ssd();
    let mut fe = Frontend::new(2, GroupCommitPolicy {
        flush_bytes: usize::MAX,
        flush_interval_ns: u64::MAX,
        max_queued_batches: 100,
    });
    fe.submit(&mut e, 0, 1, batch(1, 1, 50)).unwrap();
    fe.submit(&mut e, 1, 2, batch(2, 2, 50)).unwrap();
    fe.submit(&mut e, 0, 3, batch(3, 3, 50)).unwrap();
    assert_eq!(fe.purge_client(0), 2);
    assert_eq!(fe.pending_batches(), 1);
    let acks = fe.flush(&mut e).unwrap();
    assert_eq!(acks.len(), 1);
    assert_eq!(acks[0].client, 1);
    assert_eq!(e.read(2).unwrap().as_ref(), &[2u8; 50][..]);
    assert!(matches!(e.read(1), Err(EleosError::NotFound(_))), "purged batch not applied");
    // add_client extends the stream set for fresh connections.
    assert_eq!(fe.add_client(), 2);
    fe.submit(&mut e, 2, 9, batch(5, 5, 50)).unwrap();
    fe.flush(&mut e).unwrap();
    assert_eq!(fe.acked_batches(2), 1);
}

// Model-based proptest: an arbitrary interleaving of in-order writes,
// gaps, duplicates, and crash/recover cycles behaves exactly like the
// obvious model — applied iff next-in-sequence, high-water survives
// crashes, rejected writes leave no trace.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn session_protocol_matches_model_through_crashes(
        ops in prop::collection::vec(
            prop_oneof![
                3 => Just(0u8), // in-order write
                1 => Just(1u8), // gap (+2)
                1 => Just(2u8), // duplicate (highest)
                1 => Just(3u8), // crash + recover
            ],
            1..24
        ),
    ) {
        let cfg = EleosConfig::test_small();
        let mut e = ssd();
        let sid = e.open_session().unwrap();
        let mut highest: Wsn = 0; // model high-water
        let mut content: Vec<(u64, u8)> = Vec::new(); // lpid -> fill (model)

        for (i, op) in ops.iter().enumerate() {
            match op {
                0 => {
                    let w = highest + 1;
                    let lpid = w % 7;
                    let fill = i as u8;
                    e.write(&batch(lpid, fill, 60), WriteOpts::ordered(sid, w)).unwrap();
                    highest = w;
                    content.retain(|(l, _)| *l != lpid);
                    content.push((lpid, fill));
                }
                1 => {
                    let r = e.write(&batch(99, 0xEE, 40), WriteOpts::ordered(sid, highest + 2));
                    prop_assert!(matches!(
                        r,
                        Err(EleosError::WsnOutOfOrder { highest_acked, .. }) if highest_acked == highest
                    ));
                }
                2 => {
                    if highest > 0 {
                        let r = e.write(&batch(98, 0xDD, 40), WriteOpts::ordered(sid, highest));
                        prop_assert!(matches!(
                            r,
                            Err(EleosError::WsnOutOfOrder { highest_acked, .. }) if highest_acked == highest
                        ));
                    }
                }
                _ => {
                    let dev = e.crash();
                    e = Eleos::recover(dev, cfg.clone()).unwrap();
                }
            }
            prop_assert_eq!(e.session_highest_wsn(sid), Some(highest));
        }
        // Rejected writes never left bytes behind.
        prop_assert!(matches!(e.read(99), Err(EleosError::NotFound(_))));
        prop_assert!(matches!(e.read(98), Err(EleosError::NotFound(_))));
        for (lpid, fill) in content {
            prop_assert_eq!(e.read(lpid).unwrap().as_ref(), &[fill; 60][..]);
        }
    }
}
