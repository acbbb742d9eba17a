//! Shared crash-point sweep harness, generic over [`Controller`].
//!
//! `crash_sweep.rs` (1-unit [`eleos::Eleos`]) and `crash_sweep_sharded.rs`
//! (2-shard [`eleos::ShardedEleos`]) used to carry line-for-line copies of
//! this machinery; since the front-end and controller surface went generic
//! the whole sweep — schedule, drive loop, shadow oracle, atomicity check
//! — is written once here and parameterized by [`SweepParams`].
//!
//! The contract checked per cut point (see the two test files' module docs
//! for the full statement): acked ⇒ durable, per-client prefix, and
//! all-or-nothing commit of the in-flight group across clients (and, for
//! the sharded array, across every shard the group touched).

use eleos::frontend::{Frontend, GroupCommitPolicy};
use eleos::{Controller, EleosConfig, EleosError, PageMode, WriteBatch};
use eleos_flash::{CostProfile, FlashDevice, FlashError, Geometry};
use eleos_workloads::multi_client::{generate, ClientBatch, MultiClientConfig};
use std::collections::BTreeMap;

/// What varies between the unsharded and the sharded sweep.
pub struct SweepParams {
    /// Devices/controllers in the array (1 = unsharded).
    pub units: usize,
    /// Auto-checkpoint threshold — small enough that the script crosses
    /// several checkpoints, so cut points land inside ckpt flushes too.
    pub ckpt_log_bytes: u64,
    /// Script length per client.
    pub batches_per_client: usize,
    /// Workload seed (distinct per sweep so the two suites exercise
    /// different schedules).
    pub seed: u64,
}

pub fn cfg(p: &SweepParams) -> EleosConfig {
    EleosConfig {
        ckpt_log_bytes: p.ckpt_log_bytes,
        ..EleosConfig::test_small()
    }
}

pub fn schedule(p: &SweepParams) -> (MultiClientConfig, Vec<ClientBatch>) {
    let mc = MultiClientConfig {
        clients: 4,
        batches_per_client: p.batches_per_client,
        pages_per_batch: (1, 3),
        payload_bytes: (64, 900),
        mean_gap_ns: 15_000,
        rate_skew: 0.6,
        lpids_per_client: 48,
        seed: p.seed,
    };
    let sched = generate(&mc);
    (mc, sched)
}

pub fn policy() -> GroupCommitPolicy {
    GroupCommitPolicy {
        flush_bytes: 4 * 1024,
        flush_interval_ns: 60_000,
        max_queued_batches: 8,
        ..GroupCommitPolicy::default()
    }
}

fn build(cb: &ClientBatch) -> WriteBatch {
    let mut b = WriteBatch::new(PageMode::Variable);
    for (lpid, payload) in &cb.pages {
        b.put(*lpid, payload).unwrap();
    }
    b
}

fn devices(n: usize) -> Vec<FlashDevice> {
    (0..n)
        .map(|_| FlashDevice::new(Geometry::tiny(), CostProfile::unit()))
        .collect()
}

/// Drive the whole schedule; stops at the first error (the power cut).
fn drive<C: Controller>(
    c: &mut C,
    fe: &mut Frontend,
    sched: &[ClientBatch],
) -> Result<(), EleosError> {
    for cb in sched {
        fe.submit(c, cb.client, cb.at, build(cb))?;
    }
    fe.flush(c)?;
    Ok(())
}

/// Expected content of `client`'s LPID slice after its first `prefix`
/// batches applied in submission order (later writes of an LPID win).
fn expected_map(sched: &[ClientBatch], client: usize, prefix: u64) -> BTreeMap<u64, Vec<u8>> {
    let mut map = BTreeMap::new();
    let mut batches: Vec<&ClientBatch> = sched.iter().filter(|b| b.client == client).collect();
    batches.sort_by_key(|b| b.seq);
    for cb in batches.into_iter().take(prefix as usize) {
        for (lpid, payload) in &cb.pages {
            map.insert(*lpid, payload.clone());
        }
    }
    map
}

/// Actual durable content of `client`'s LPID slice, read through the
/// controller (each LPID from its owning unit).
fn actual_map<C: Controller>(
    c: &mut C,
    mc: &MultiClientConfig,
    client: usize,
) -> BTreeMap<u64, Vec<u8>> {
    let base = client as u64 * mc.lpids_per_client;
    let mut map = BTreeMap::new();
    for lpid in base..base + mc.lpids_per_client {
        match c.read(lpid) {
            Ok(bytes) => {
                map.insert(lpid, bytes.to_vec());
            }
            Err(EleosError::NotFound(_)) => {}
            Err(e) => panic!("client {client} lpid {lpid}: unexpected read error {e}"),
        }
    }
    map
}

/// Mutating flash commands (programs + erases) each unit issues during the
/// fault-free scripted run.
pub fn baseline_mutations<C: Controller>(p: &SweepParams) -> Vec<u64> {
    let (mc, sched) = schedule(p);
    let mut c = C::format(devices(p.units), &cfg(p)).unwrap();
    let base: Vec<u64> = (0..p.units)
        .map(|u| c.unit(u).device().stats().programs + c.unit(u).device().stats().erases)
        .collect();
    let mut fe = Frontend::new(mc.clients, policy());
    drive(&mut c, &mut fe, &sched).unwrap();
    (0..p.units)
        .map(|u| {
            c.unit(u).device().stats().programs + c.unit(u).device().stats().erases - base[u]
        })
        .collect()
}

/// One cut point: unit `cut_unit` loses power after its `cut_after`-th
/// mutating command; the whole array then crashes and recovers. Returns a
/// human-readable description of any contract divergence.
pub fn check_cut<C: Controller>(
    p: &SweepParams,
    cut_unit: usize,
    cut_after: u64,
) -> Result<(), String> {
    let (mc, sched) = schedule(p);
    let mut c = C::format(devices(p.units), &cfg(p)).unwrap();
    let mut fe = Frontend::new(mc.clients, policy());
    c.unit_mut(cut_unit).device_mut().set_power_cut_after(cut_after);
    match drive(&mut c, &mut fe, &sched) {
        Ok(()) => {
            // Budget never exhausted (cut point beyond the script): the
            // whole schedule must be acked.
            for cl in 0..mc.clients {
                if fe.acked_batches(cl) != mc.batches_per_client as u64 {
                    return Err(format!(
                        "unit={cut_unit} cut={cut_after}: no power cut but client {cl} \
                         acked {}/{}",
                        fe.acked_batches(cl),
                        mc.batches_per_client
                    ));
                }
            }
        }
        Err(EleosError::Flash(FlashError::PowerLost)) | Err(EleosError::ShutDown) => {}
        Err(e) => {
            return Err(format!(
                "unit={cut_unit} cut={cut_after}: unexpected drive error {e}"
            ))
        }
    }
    let acked: Vec<u64> = (0..mc.clients).map(|cl| fe.acked_batches(cl)).collect();
    let enqueued: Vec<u64> = (0..mc.clients).map(|cl| fe.submitted_batches(cl)).collect();

    let mut devs = c.crash();
    devs[cut_unit].clear_power_cut();
    let mut c = match C::recover(devs, &cfg(p)) {
        Ok(s) => s,
        Err(e) => {
            return Err(format!(
                "unit={cut_unit} cut={cut_after}: recovery failed: {e}"
            ))
        }
    };

    // Which prefix does the durable state of each client correspond to?
    let mut match_acked = vec![false; mc.clients];
    let mut match_enqueued = vec![false; mc.clients];
    for cl in 0..mc.clients {
        let actual = actual_map(&mut c, &mc, cl);
        match_acked[cl] = actual == expected_map(&sched, cl, acked[cl]);
        match_enqueued[cl] = actual == expected_map(&sched, cl, enqueued[cl]);
        if !match_acked[cl] && !match_enqueued[cl] {
            // Diagnose: find any prefix that matches, to tell a partial
            // group apart from outright corruption.
            let any = (0..=mc.batches_per_client as u64)
                .find(|&pf| actual == expected_map(&sched, cl, pf));
            return Err(format!(
                "unit={cut_unit} cut={cut_after}: client {cl} durable state matches \
                 neither acked prefix {} nor enqueued prefix {} (group {} in flight; \
                 any-prefix match: {:?})",
                acked[cl],
                enqueued[cl],
                fe.next_group_id(),
                any
            ));
        }
    }
    // Group atomicity across clients (and units): the in-flight group
    // commits for all or for none.
    let all_acked = (0..mc.clients).all(|cl| match_acked[cl]);
    let all_enqueued = (0..mc.clients).all(|cl| match_enqueued[cl]);
    if !(all_acked || all_enqueued) {
        return Err(format!(
            "unit={cut_unit} cut={cut_after}: in-flight group {} torn across \
             clients/units: acked={acked:?} enqueued={enqueued:?} \
             match_acked={match_acked:?} match_enqueued={match_enqueued:?}",
            fe.next_group_id()
        ));
    }
    Ok(())
}
