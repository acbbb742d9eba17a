//! Exhaustive crash-point sweeps over the multi-client front-end, judged by
//! the per-client [`Model`].
//!
//! A scripted multi-client workload runs through the group-commit
//! [`Frontend`], and a device cuts power after *every* mutating flash
//! command ordinal of the script: each program and erase gets its turn to
//! be the last one that completes. The 1-unit sweep cuts an [`Eleos`]; the
//! 2-shard sweep cuts each shard of a [`ShardedEleos`] in turn, where groups
//! straddle both shards and commit through the two-phase group commit
//! (DESIGN.md §14). After each cut the whole array crashes and recovers
//! with power restored, and the cut is judged by:
//!
//! * one [`Model`] per client, with every batch the client submitted
//!   staged and its acknowledged ones acked: [`Model::resolve`] absorbs
//!   the staged batches that read back, and [`Model::audit`] then checks
//!   every acknowledged page (acked ⇒ durable, a prefix per client);
//! * a ghost check: every LPID of the client's slice that the model does
//!   not hold reads not-found (`audit` reads only the LPIDs it knows);
//! * group atomicity: every flush drains the whole queue into one atomic
//!   write, so each client absorbs all of its staged batches or none, and
//!   all clients, on every shard, make the same choice. A per-client model
//!   cannot see this.

use eleos::frontend::{Frontend, GroupCommitPolicy};
use eleos::{Controller, Eleos, EleosConfig, EleosError, PageMode, ShardedEleos, WriteBatch};
use eleos_bench::model::{read_lpid, Model, Op};
use eleos_flash::{CostProfile, FlashDevice, FlashError, Geometry};
use eleos_workloads::multi_client::{generate, ClientBatch, MultiClientConfig};

/// What varies between the unsharded and the sharded sweep.
struct SweepParams {
    /// Devices/controllers in the array (1 = unsharded).
    units: usize,
    /// Auto-checkpoint threshold: small enough that the script crosses
    /// several checkpoints, so cut points land inside checkpoint flushes.
    ckpt_log_bytes: u64,
    /// Script length per client.
    batches_per_client: usize,
    /// Workload seed (distinct per sweep, so the two exercise different
    /// schedules).
    seed: u64,
}

const ONE_UNIT: SweepParams = SweepParams {
    units: 1,
    ckpt_log_bytes: 192 * 1024,
    batches_per_client: 30,
    seed: 0xC0FFEE,
};

const TWO_SHARDS: SweepParams = SweepParams {
    units: 2,
    ckpt_log_bytes: 128 * 1024,
    batches_per_client: 18,
    seed: 0x5AAD,
};

fn cfg(p: &SweepParams) -> EleosConfig {
    EleosConfig {
        ckpt_log_bytes: p.ckpt_log_bytes,
        ..EleosConfig::test_small()
    }
}

fn schedule(p: &SweepParams) -> (MultiClientConfig, Vec<ClientBatch>) {
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

fn policy() -> GroupCommitPolicy {
    GroupCommitPolicy {
        flush_bytes: 4 * 1024,
        flush_interval_ns: 60_000,
        max_queued_batches: 8,
    }
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
        let mut b = WriteBatch::new(PageMode::Variable);
        for (lpid, payload) in &cb.pages {
            b.put(*lpid, payload).unwrap();
        }
        fe.submit(c, cb.client, cb.at, b)?;
    }
    fe.flush(c)?;
    Ok(())
}

/// Mutating flash commands (programs + erases) each unit issues during the
/// fault-free scripted run.
fn baseline_mutations<C: Controller>(p: &SweepParams) -> Vec<u64> {
    let (mc, sched) = schedule(p);
    let mut c = C::format(devices(p.units), &cfg(p)).unwrap();
    let mutations = |c: &C, u: usize| {
        let s = c.unit(u).device().stats();
        s.programs + s.erases
    };
    let base: Vec<u64> = (0..p.units).map(|u| mutations(&c, u)).collect();
    let mut fe = Frontend::new(mc.clients, policy());
    drive(&mut c, &mut fe, &sched).unwrap();
    (0..p.units).map(|u| mutations(&c, u) - base[u]).collect()
}

/// One cut point: unit `cut_unit` loses power after its `cut_after`-th
/// mutating command; the whole array then crashes and recovers. Returns a
/// description of any contract divergence.
fn check_cut<C: Controller>(
    p: &SweepParams,
    cut_unit: usize,
    cut_after: u64,
) -> Result<(), String> {
    let (mc, sched) = schedule(p);
    let mut c = C::format(devices(p.units), &cfg(p)).unwrap();
    let mut fe = Frontend::new(mc.clients, policy());
    c.unit_mut(cut_unit)
        .device_mut()
        .set_power_cut_after(cut_after);
    let driven = drive(&mut c, &mut fe, &sched);
    let at = format!(
        "unit={cut_unit} cut={cut_after} (group {} in flight)",
        fe.next_group_id()
    );
    match driven {
        // Budget never exhausted (cut point beyond the script): the whole
        // schedule must be acked.
        Ok(()) => {
            for cl in 0..mc.clients {
                let (acked, n) = (fe.acked_batches(cl), mc.batches_per_client);
                if acked != n as u64 {
                    return Err(format!(
                        "{at}: no power cut but client {cl} acked {acked}/{n}"
                    ));
                }
            }
        }
        Err(EleosError::Flash(FlashError::PowerLost)) | Err(EleosError::ShutDown) => {}
        Err(e) => return Err(format!("{at}: unexpected drive error {e}")),
    }

    // Each client's model: its submitted batches staged in submission
    // order, the acknowledged ones acked.
    let mut models = vec![Model::default(); mc.clients];
    for (cl, m) in models.iter_mut().enumerate() {
        let batches = sched.iter().filter(|b| b.client == cl);
        for cb in batches.take(fe.submitted_batches(cl) as usize) {
            m.stage(Op::Write(cb.pages.clone()));
        }
        for _ in 0..fe.acked_batches(cl) {
            m.ack();
        }
    }
    let staged: Vec<u64> = (0..mc.clients)
        .map(|cl| fe.submitted_batches(cl) - fe.acked_batches(cl))
        .collect();

    let mut devs = c.crash();
    devs[cut_unit].clear_power_cut();
    let mut c = C::recover(devs, &cfg(p)).map_err(|e| format!("{at}: recovery failed: {e}"))?;

    let mut absorbed = vec![0; mc.clients];
    for (cl, m) in models.iter_mut().enumerate() {
        let diverged = |d| format!("{at}: client {cl}: {d}");
        absorbed[cl] = m.resolve(|l| read_lpid(&mut c, l)).map_err(diverged)? as u64;
        m.audit(|l| read_lpid(&mut c, l)).map_err(diverged)?;
    }
    // `audit` reads only the LPIDs a model knows: the rest of each
    // client's slice must read not-found.
    for (cl, m) in models.iter().enumerate() {
        let base = cl as u64 * mc.lpids_per_client;
        for lpid in (base..base + mc.lpids_per_client).filter(|l| !m.pages().contains_key(l)) {
            match read_lpid(&mut c, lpid) {
                Ok(None) => {}
                Ok(Some(_)) => return Err(format!("{at}: client {cl}: ghost page: lpid {lpid}")),
                Err(e) => return Err(format!("{at}: client {cl}: {e}: lpid {lpid}")),
            }
        }
    }
    // The in-flight group commits for every client and unit, or for none.
    let all = absorbed.iter().zip(&staged).all(|(a, s)| a == s);
    let none = absorbed.iter().all(|&a| a == 0);
    if !(all || none) {
        return Err(format!(
            "{at}: group torn across clients/units: absorbed {absorbed:?} of staged {staged:?}"
        ));
    }
    Ok(())
}

/// Cut each unit `u` at every ordinal of `0..=last[u]` and judge every cut.
fn sweep<C: Controller>(p: &SweepParams, last: &[u64]) {
    let mut divergences = Vec::new();
    for (unit, &m) in last.iter().enumerate() {
        divergences.extend((0..=m).filter_map(|cut| check_cut::<C>(p, unit, cut).err()));
    }
    let cuts: u64 = last.iter().map(|m| m + 1).sum();
    println!(
        "{} unit(s), cuts 0..={last:?}: {} of {cuts} diverged",
        p.units,
        divergences.len()
    );
    assert!(
        divergences.is_empty(),
        "{} of {cuts} crash points diverged:\n{}",
        divergences.len(),
        divergences.join("\n")
    );
}

/// Every mutating flash command of the 1-unit scripted run gets its turn to
/// be the last one that completes, from `cut_after = 0` (power lost before
/// the first workload command) to the full, never-cut run.
#[test]
fn crash_after_every_flash_command_ordinal() {
    let m = baseline_mutations::<Eleos>(&ONE_UNIT);
    assert!(
        (100..=2000).contains(&m[0]),
        "script issues {m:?} mutating commands; want a bounded sweep in the hundreds"
    );
    sweep::<Eleos>(&ONE_UNIT, &m);
}

/// The contract holds when the cut lands during the very first group flush
/// (no checkpoint yet, WAL barely started).
#[test]
fn crash_during_first_group_is_all_or_nothing() {
    sweep::<Eleos>(&ONE_UNIT, &[12]);
}

/// Every mutating flash command of the 2-shard scripted run, on each shard
/// in turn, gets to be that shard's last completed command.
#[test]
fn crash_after_every_flash_command_ordinal_on_each_shard() {
    let m = baseline_mutations::<ShardedEleos>(&TWO_SHARDS);
    let total: u64 = m.iter().sum();
    assert!(
        (100..=2500).contains(&total),
        "script issues {m:?} mutating commands; want a bounded sweep in the hundreds"
    );
    assert!(
        m.iter().all(|&s| s > 20),
        "every shard must see real traffic, got {m:?}"
    );
    sweep::<ShardedEleos>(&TWO_SHARDS, &m);
}

/// The contract holds when the cut lands during the very first cross-shard
/// group (no checkpoint yet, coordinator log barely started).
#[test]
fn crash_during_first_sharded_group_is_all_or_nothing() {
    sweep::<ShardedEleos>(&TWO_SHARDS, &[12; 2]);
}
