//! Chaos soak with a differential oracle.
//!
//! A long-running randomized torture driver that interleaves batched
//! writes, deletes, batched-read audits, checkpoints, GC pressure,
//! mid-run crashes, and recovery — under probabilistic program failures
//! *and* a persistent bad-WBLOCK region — and checks each client against
//! its own [`Model`] of the write contract:
//!
//! * an acknowledged write is durable with its new content, surviving any
//!   later crash; an acknowledged delete reads `NotFound` until rewritten;
//! * a call that failed took no effect;
//! * a call that died with no verdict (a `ShutDown`, or a batch still
//!   queued in the front-end) is staged, and after the crash
//!   [`Model::resolve`] absorbs the longest prefix of the staged calls
//!   that recovery made durable — anything torn is a divergence.
//!
//! One client drives the controller directly with batches over the whole
//! key space; several share it through the group-commit [`Frontend`],
//! each in its own slice of the key space, and a batch counts as
//! acknowledged on its group's ACK. The soak is generic over
//! [`Controller`]: `--shards N` runs it on the sharded router (DESIGN.md
//! §14), where batches that straddle shards commit through 2PC.
//!
//! Every run is fully determined by its [`ChaosConfig`] (the seed drives
//! both the workload RNG and the fault injector), so a divergence dumps a
//! one-line repro command that replays the exact fault script.

use crate::model::{read_lpid, Divergence, Model, Op};
use crate::report::Table;
use eleos::frontend::{Frontend, GroupCommitPolicy};
use eleos::{Controller, Eleos, EleosConfig, EleosError, ShardedEleos, WriteBatch};
use eleos_flash::{CostProfile, FaultInjector, FlashDevice, Geometry, WblockAddr};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Everything that determines a chaos run. Two runs with equal configs
/// execute the identical operation sequence against the identical fault
/// script.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seeds the workload RNG (shard `s`'s fault injector uses
    /// `seed ^ 0xFA17 ^ (s << 32)`).
    pub seed: u64,
    /// Crash/recover cycles to run.
    pub cycles: usize,
    /// Operation steps between crashes (the exact count per cycle is
    /// randomized around this).
    pub steps_per_cycle: usize,
    /// Probabilistic program-failure rate while the workload runs
    /// (suppressed during recovery itself; the bad region stays active).
    pub fail_p: f64,
    /// Persistent bad region: every WBLOCK of this `(channel, eblock)`
    /// fails all programs forever — on *every* shard's device. `None`
    /// disables the region.
    pub bad_eblock: Option<(u32, u32)>,
    /// LPID key space.
    pub max_lpid: u64,
    /// Concurrent client streams, each checked by its own [`Model`]. `1`
    /// drives the controller directly with batches over the whole key
    /// space; `> 1` drives it through the group-commit [`Frontend`], each
    /// client confined to its private `max_lpid / clients` slice.
    pub clients: usize,
    /// Controller shards. `1` is the unsharded path; `> 1` hash-routes
    /// LPIDs across shards so batches straddle them and commit via 2PC.
    pub shards: usize,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0,
            cycles: 10,
            steps_per_cycle: 60,
            fail_p: 0.002,
            bad_eblock: Some((2, 7)),
            max_lpid: 512,
            clients: 1,
            shards: 1,
        }
    }
}

/// Aggregated outcome of one divergence-free run.
#[derive(Debug, Clone, Default)]
pub struct ChaosReport {
    pub seed: u64,
    /// Write batches that entered a client's model: acknowledged, or
    /// absorbed by [`Model::resolve`] after a crash.
    pub batches: u64,
    /// User-visible `ActionAborted`s that were retried successfully.
    pub aborts_retried: u64,
    /// Crash/recover cycles survived (scheduled + shutdown-forced).
    pub crashes: u64,
    /// Controller shutdowns absorbed by an early crash/recover.
    pub shutdowns: u64,
    /// Writes dropped because the device was genuinely full.
    pub device_full: u64,
    /// Delete batches acknowledged.
    pub deletes: u64,
    /// Read audits performed (individual page comparisons).
    pub audited_pages: u64,
    /// Program failures the controller handled, summed across lives and
    /// shards (the in-controller counter resets on recovery).
    pub program_failures: u64,
    /// Internal bounded retries, summed across lives and shards.
    pub action_retries: u64,
    /// EBLOCKs permanently retired by the end of the run, summed across
    /// shards (from the summary, so it survives recovery).
    pub retired_eblocks: u64,
    /// Checkpoints taken, summed across lives and shards.
    pub checkpoints: u64,
    /// Distinct live pages at the end.
    pub live_pages: u64,
    /// Group-commit flushes the front-end completed (0 in single-client
    /// mode, which bypasses the front-end).
    pub groups: u64,
}

/// A divergence between the device and the oracle (or an invariant
/// violation). Carries everything needed to replay the failing run, plus
/// the tail of each shard's structured event ring — the last thing the
/// controllers were doing when the oracle caught them.
#[derive(Debug, Clone)]
pub struct ChaosFailure {
    pub seed: u64,
    pub cycle: usize,
    pub step: usize,
    pub what: String,
    pub config: ChaosConfig,
    /// Most recent structured telemetry events at the divergence, oldest
    /// first, each prefixed by its shard (empty when the controller no
    /// longer exists, e.g. a failed format or recovery).
    pub events: Vec<String>,
}

impl ChaosFailure {
    /// One-line deterministic repro command (the seed + config *is* the
    /// fault script).
    pub fn repro_command(&self) -> String {
        let bad = match self.config.bad_eblock {
            Some((c, e)) => format!("--bad-eblock {c}/{e}"),
            None => "--no-bad-region".to_string(),
        };
        let clients = if self.config.clients > 1 {
            format!(" --clients {}", self.config.clients)
        } else {
            String::new()
        };
        let shards = if self.config.shards > 1 {
            format!(" --shards {}", self.config.shards)
        } else {
            String::new()
        };
        format!(
            "cargo run --release -p eleos-bench --bin chaos -- --seed {} --cycles {} \
             --steps {} --fail-p {} {bad}{clients}{shards}",
            self.seed, self.config.cycles, self.config.steps_per_cycle, self.config.fail_p
        )
    }
}

impl fmt::Display for ChaosFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "ORACLE DIVERGENCE seed {} cycle {} step {}: {}",
            self.seed, self.cycle, self.step, self.what
        )?;
        if !self.events.is_empty() {
            writeln!(f, "  last controller events (oldest first):")?;
            for e in &self.events {
                writeln!(f, "    {e}")?;
            }
        }
        write!(f, "  repro: {}", self.repro_command())
    }
}

fn controller_cfg(max_lpid: u64) -> EleosConfig {
    EleosConfig {
        ckpt_log_bytes: 512 * 1024,
        map_entries_per_page: 16,
        mapping_cache_pages: 8,
        max_user_lpid: max_lpid,
        ..Default::default()
    }
}

/// One `tiny` device per shard, each with its own fault injector (distinct
/// probabilistic stream per shard, same bad region).
fn make_devices(cfg: &ChaosConfig) -> Vec<FlashDevice> {
    (0..cfg.shards)
        .map(|s| {
            let geo = Geometry::tiny();
            let mut faults =
                FaultInjector::probabilistic(cfg.fail_p, cfg.seed ^ 0xFA17 ^ ((s as u64) << 32));
            if let Some((ch, eb)) = cfg.bad_eblock {
                for w in 0..geo.wblocks_per_eblock {
                    faults.add_bad_wblock(WblockAddr::new(ch, eb, w));
                }
            }
            FlashDevice::new(geo, CostProfile::unit()).with_faults(faults)
        })
        .collect()
}

/// Deterministic page content: recomputable from `(lpid, version)` so the
/// model only has to remember what it stored.
fn page_content(lpid: u64, version: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (lpid as u8) ^ (version as u8).rotate_left((i % 7) as u32) ^ (i as u8))
        .collect()
}

/// Event-ring tails of every shard, each line prefixed with its shard id.
fn recent_events<C: Controller>(sh: &C, n: usize) -> Vec<String> {
    let mut out = Vec::new();
    for s in 0..sh.units() {
        out.extend(
            sh.unit(s)
                .recent_events(n)
                .into_iter()
                .map(|e| format!("shard {s}: {e}")),
        );
    }
    out
}

/// Run one chaos soak to completion. `Ok` means zero divergences.
///
/// Dispatch: `shards == 1` instantiates the generic soak with the
/// unsharded [`Eleos`] (a 1-shard router is byte-identical, so nothing is
/// lost); `shards > 1` with [`ShardedEleos`]. Both run the same code.
pub fn run_chaos(cfg: &ChaosConfig) -> Result<ChaosReport, Box<ChaosFailure>> {
    assert!(cfg.shards >= 1, "shards must be >= 1");
    if cfg.shards == 1 {
        run_chaos_on::<Eleos>(cfg)
    } else {
        run_chaos_on::<ShardedEleos>(cfg)
    }
}

/// A failure with no event tails attached.
fn failure(cfg: &ChaosConfig, cycle: usize, step: usize, what: String) -> Box<ChaosFailure> {
    Box::new(ChaosFailure {
        seed: cfg.seed,
        cycle,
        step,
        what,
        config: cfg.clone(),
        events: Vec::new(),
    })
}

/// The group-commit front-end that several clients share; `None` for one
/// client, which drives the controller directly.
fn frontend(clients: usize) -> Option<Frontend> {
    let policy = GroupCommitPolicy {
        flush_bytes: 3 * 1024,
        flush_interval_ns: 50_000,
        max_queued_batches: 8,
    };
    (clients > 1).then(|| Frontend::new(clients, policy))
}

/// What the soak does after a step.
enum Disposition {
    Continue,
    Crash,
}

/// Map a checkpoint or maintenance result onto the soak's contract:
/// transient conditions are absorbed, a controller shutdown forces the
/// next crash, anything else is a divergence.
fn housekeeping(res: Result<(), EleosError>, what: &str) -> Result<Disposition, String> {
    match res {
        Ok(()) | Err(EleosError::ActionAborted) | Err(EleosError::DeviceFull) => {
            Ok(Disposition::Continue)
        }
        Err(EleosError::ShutDown) => Ok(Disposition::Crash),
        Err(e) => Err(format!("{what} failed: {e}")),
    }
}

/// Map a front-end submit or flush result onto the soak's contract, like
/// [`housekeeping`] but counting the transient conditions (the queue stays
/// intact inside the front-end).
fn frontend_result<T>(
    res: Result<T, EleosError>,
    report: &mut ChaosReport,
) -> Result<Disposition, String> {
    match res {
        Ok(_) => Ok(Disposition::Continue),
        Err(EleosError::ShutDown) => Ok(Disposition::Crash),
        Err(EleosError::ActionAborted) => {
            report.aborts_retried += 1;
            Ok(Disposition::Continue)
        }
        Err(EleosError::DeviceFull) => {
            report.device_full += 1;
            Ok(Disposition::Continue)
        }
        Err(e) => Err(format!("front-end call failed non-retryably: {e}")),
    }
}

/// One soak in progress: the controller, the front-end when clients share
/// it, and one [`Model`] per client.
struct Soak<'a, C: Controller> {
    cfg: &'a ChaosConfig,
    ecfg: EleosConfig,
    rng: StdRng,
    sh: C,
    fe: Option<Frontend>,
    models: Vec<Model>,
    /// Front-end ACKs already applied to each client's model.
    acked: Vec<u64>,
    versions: Vec<u64>,
    /// Simulated arrival time of the last front-end submission.
    at: u64,
    report: ChaosReport,
}

/// Run one soak: steps until a scheduled or forced crash, then one crash →
/// recover → resolve → audit block per cycle.
fn run_chaos_on<C: Controller>(cfg: &ChaosConfig) -> Result<ChaosReport, Box<ChaosFailure>> {
    assert!(
        cfg.max_lpid / cfg.clients as u64 > 0,
        "max_lpid must give every client a nonempty slice"
    );
    let ecfg = controller_cfg(cfg.max_lpid);
    let sh = C::format(make_devices(cfg), &ecfg)
        .map_err(|e| failure(cfg, 0, 0, format!("format failed: {e}")))?;
    let mut s = Soak {
        cfg,
        ecfg,
        rng: StdRng::seed_from_u64(cfg.seed),
        sh,
        fe: frontend(cfg.clients),
        models: vec![Model::default(); cfg.clients],
        acked: vec![0; cfg.clients],
        versions: vec![0; cfg.clients],
        at: 0,
        report: ChaosReport {
            seed: cfg.seed,
            ..Default::default()
        },
    };
    for cycle in 0..cfg.cycles {
        let steps = s
            .rng
            .gen_range(cfg.steps_per_cycle / 2..=cfg.steps_per_cycle.max(2));
        for step in 0..steps {
            match s.step() {
                Ok(Disposition::Continue) => {}
                Ok(Disposition::Crash) => {
                    s.report.shutdowns += 1;
                    break;
                }
                Err(what) => return Err(s.fail(cycle, step, what)),
            }
        }
        s = s
            .crash_and_recover()
            .map_err(|what| failure(cfg, cycle, 0, what))?;
        s.settle().map_err(|what| s.fail(cycle, 0, what))?;
    }
    accumulate(&mut s.report, &s.sh);
    if let Some(fe) = &s.fe {
        s.report.groups += fe.groups_flushed();
    }
    s.report.retired_eblocks = retired_count(&s.sh);
    s.report.batches = s.models.iter().map(Model::writes).sum();
    s.report.deletes = s.models.iter().map(Model::deletes).sum();
    s.report.live_pages = s.models.iter().map(|m| m.pages().len() as u64).sum();
    Ok(s.report)
}

impl<C: Controller> Soak<'_, C> {
    /// A failure with the event-ring tails of every shard attached.
    fn fail(&self, cycle: usize, step: usize, what: String) -> Box<ChaosFailure> {
        let mut f = failure(self.cfg, cycle, step, what);
        f.events = recent_events(&self.sh, 16);
        f
    }

    fn step(&mut self) -> Result<Disposition, String> {
        let roll: u32 = self.rng.gen_range(0..100);
        if roll < 55 {
            self.write()
        } else if roll < 70 {
            self.audit_live()
        } else if roll < 80 {
            self.delete()
        } else if roll < 90 {
            housekeeping(self.sh.checkpoint(), "checkpoint")
        } else {
            housekeeping(self.sh.maintenance(), "maintenance")
        }
    }

    /// The client of the next operation (no draw with one client).
    fn client(&mut self) -> usize {
        match self.models.len() {
            1 => 0,
            n => self.rng.gen_range(0..n),
        }
    }

    /// One client batch: straight into the controller with one client (up
    /// to 7 pages over the whole key space), else through the front-end
    /// (up to 5 pages in the client's own slice).
    fn write(&mut self) -> Result<Disposition, String> {
        let c = self.client();
        let slice = self.cfg.max_lpid / self.models.len() as u64;
        let max_pages = if self.fe.is_some() { 5 } else { 7 };
        let mut b = WriteBatch::new(eleos::PageMode::Variable);
        let mut pages: Vec<(u64, Vec<u8>)> = Vec::new();
        for _ in 0..self.rng.gen_range(1..max_pages + 1usize) {
            self.versions[c] += 1;
            let lpid = c as u64 * slice + self.rng.gen_range(0..slice);
            let data = page_content(lpid, self.versions[c], self.rng.gen_range(64..1536));
            if pages.iter().any(|(l, _)| *l == lpid) {
                continue; // one version per LPID per batch
            }
            b.put(lpid, &data).map_err(|e| format!("put failed: {e}"))?;
            pages.push((lpid, data));
        }
        let Some(fe) = self.fe.as_mut() else {
            return self.write_direct(&b, pages);
        };
        self.at += self.rng.gen_range(2_000..30_000);
        let before = fe.submitted_batches(c);
        let res = fe.submit(&mut self.sh, c, self.at, b);
        if fe.submitted_batches(c) > before {
            // Queued (even if a flush afterwards errored): await its ACK.
            self.models[c].stage(Op::Write(pages));
        }
        self.absorb_acks()?;
        frontend_result(res, &mut self.report)
    }

    /// Section VII contract: `ActionAborted` means "retry the buffer".
    fn write_direct(
        &mut self,
        b: &WriteBatch,
        pages: Vec<(u64, Vec<u8>)>,
    ) -> Result<Disposition, String> {
        for _attempt in 0..8 {
            match self.sh.write(b) {
                Ok(_) => {
                    self.models[0].apply(Op::Write(pages));
                    return Ok(Disposition::Continue);
                }
                Err(EleosError::ActionAborted) => self.report.aborts_retried += 1,
                Err(EleosError::DeviceFull) => {
                    // Genuinely full (retirement shrinks capacity): the
                    // batch is dropped. Nudge GC to reclaim; a shutdown
                    // here surfaces at the next call.
                    self.report.device_full += 1;
                    return match self.sh.maintenance() {
                        Ok(())
                        | Err(EleosError::ActionAborted)
                        | Err(EleosError::DeviceFull)
                        | Err(EleosError::ShutDown) => Ok(Disposition::Continue),
                        Err(e) => Err(format!("maintenance after DeviceFull failed: {e}")),
                    };
                }
                Err(EleosError::ShutDown) => {
                    // No verdict (mid-2PC, the decision may be durable):
                    // recovery decides it.
                    self.models[0].stage(Op::Write(pages));
                    return Ok(Disposition::Crash);
                }
                Err(e) => return Err(format!("write failed non-retryably: {e}")),
            }
        }
        // Bounded retries exhausted without an ack: dropped, within contract.
        Ok(Disposition::Continue)
    }

    /// Apply every ACK the front-end has counted to its client's model.
    /// ACKs come from the `acked_batches` counters rather than the returned
    /// `GroupAck` lists, so an error return that swallowed a successful
    /// deadline flush cannot desynchronize the oracle.
    fn absorb_acks(&mut self) -> Result<(), String> {
        let Some(fe) = &self.fe else { return Ok(()) };
        for (c, model) in self.models.iter_mut().enumerate() {
            while self.acked[c] < fe.acked_batches(c) {
                if !model.ack() {
                    return Err(format!(
                        "client {c}: front-end acked batch {} the model never staged",
                        self.acked[c]
                    ));
                }
                self.acked[c] += 1;
            }
        }
        Ok(())
    }

    /// Read back a sample of one client's acknowledged pages with one
    /// batched read, and its lowest deleted LPID. Unacknowledged writes
    /// have no durability claim, so queued batches are invisible here.
    fn audit_live(&mut self) -> Result<Disposition, String> {
        let c = self.client();
        let model = &self.models[c];
        if !model.pages().is_empty() {
            let keys: Vec<u64> = model.pages().keys().copied().collect();
            let n = self.rng.gen_range(1..=12usize.min(keys.len()));
            let lpids: Vec<u64> = (0..n)
                .map(|_| keys[self.rng.gen_range(0..keys.len())])
                .collect();
            let pages = self
                .sh
                .read_batch(&lpids)
                .map_err(|e| format!("client {c}: read_batch of live lpids failed: {e}"))?;
            for (lpid, got) in lpids.iter().zip(&pages) {
                let want = &model.pages()[lpid];
                if got.as_ref() != want.as_slice() {
                    return Err(format!(
                        "client {c}: live read divergence: lpid {lpid} (shard {}) expected {} \
                         bytes, got {}",
                        self.sh.unit_of(*lpid),
                        want.len(),
                        got.len()
                    ));
                }
                self.report.audited_pages += 1;
            }
        }
        if let Some(&lpid) = model.deleted().iter().next() {
            match self.sh.read(lpid) {
                Err(EleosError::NotFound(_)) => {}
                Ok(_) => return Err(format!("client {c}: deleted lpid {lpid} still readable")),
                Err(e) => {
                    return Err(format!(
                        "client {c}: deleted lpid {lpid} errored oddly: {e}"
                    ))
                }
            }
        }
        Ok(Disposition::Continue)
    }

    /// Delete up to four of one client's live LPIDs. Deletes bypass the
    /// front-end, so it is drained first: a queued write of an LPID must
    /// not land after its delete.
    fn delete(&mut self) -> Result<Disposition, String> {
        if let Some(fe) = self.fe.as_mut() {
            let res = fe.flush(&mut self.sh);
            let drained = fe.pending_batches() == 0;
            self.absorb_acks()?;
            match frontend_result(res, &mut self.report)? {
                Disposition::Continue if drained => {}
                // The drain did not complete: skip the delete this step
                // rather than reorder around the queue.
                d => return Ok(d),
            }
        }
        let c = self.client();
        let model = &mut self.models[c];
        if model.pages().is_empty() {
            return Ok(Disposition::Continue);
        }
        let keys: Vec<u64> = model.pages().keys().copied().collect();
        let n = self.rng.gen_range(1..=4usize.min(keys.len()));
        let mut pick: Vec<u64> = Vec::with_capacity(n);
        for _ in 0..n {
            let k = keys[self.rng.gen_range(0..keys.len())];
            if !pick.contains(&k) {
                pick.push(k);
            }
        }
        for _attempt in 0..8 {
            match self.sh.delete(&pick) {
                Ok(()) => {
                    model.apply(Op::Delete(pick));
                    return Ok(Disposition::Continue);
                }
                Err(EleosError::ActionAborted) => self.report.aborts_retried += 1,
                Err(EleosError::ShutDown) => {
                    model.stage(Op::Delete(pick));
                    return Ok(Disposition::Crash);
                }
                Err(EleosError::DeviceFull) => return Ok(Disposition::Continue),
                Err(e) => return Err(format!("client {c}: delete failed non-retryably: {e}")),
            }
        }
        Ok(Disposition::Continue)
    }

    /// CRASH: only the flash arrays (with their fault injectors) survive.
    fn crash_and_recover(mut self) -> Result<Self, String> {
        if let Some(fe) = &self.fe {
            self.report.groups += fe.groups_flushed();
        }
        accumulate(&mut self.report, &self.sh);
        self.report.crashes += 1;
        let mut devs = self.sh.crash();
        // A real deployment would retry recovery until it sticks; for a
        // deterministic soak, quiesce the *probabilistic* faults during
        // recovery. The persistent bad region stays active — recovery must
        // handle it (and does, via migrate + retirement).
        for d in &mut devs {
            d.faults_mut().set_probability(0.0);
        }
        self.sh = C::recover(devs, &self.ecfg).map_err(|e| format!("recovery failed: {e}"))?;
        for s in 0..self.cfg.shards {
            self.sh
                .unit_mut(s)
                .device_mut()
                .faults_mut()
                .set_probability(self.cfg.fail_p);
        }
        Ok(self)
    }

    /// After recovery: resolve every client's unacknowledged operations
    /// against what recovery decided, then audit every client's
    /// acknowledged state and each shard's capacity accounting. Queued
    /// batches die with the front-end.
    fn settle(&mut self) -> Result<(), String> {
        let in_flight = self.fe.as_ref().map(Frontend::next_group_id);
        self.fe = frontend(self.cfg.clients);
        self.acked.fill(0);
        let diverged = |c: usize, d: Divergence, sh: &C| {
            let group = in_flight
                .map(|g| format!(" (group {g} in flight at crash)"))
                .unwrap_or_default();
            format!(
                "client {c}: post-recovery {d} (shard {}){group}",
                sh.unit_of(d.lpid)
            )
        };
        for c in 0..self.models.len() {
            if let Err(d) = self.models[c].resolve(|l| read_lpid(&mut self.sh, l)) {
                return Err(diverged(c, d, &self.sh));
            }
        }
        for c in 0..self.models.len() {
            match self.models[c].audit(|l| read_lpid(&mut self.sh, l)) {
                Ok(n) => self.report.audited_pages += n,
                Err(d) => return Err(diverged(c, d, &self.sh)),
            }
        }
        capacity_invariant(&self.sh).map_or(Ok(()), Err)
    }
}
/// Check the space-accounting invariants on every shard; `Some(description)`
/// on violation.
fn capacity_invariant<C: Controller>(sh: &C) -> Option<String> {
    for s in 0..sh.units() {
        let ssd = sh.unit(s);
        let geo = *ssd.device().geometry();
        let r = ssd.space_report();
        let retired = retired_on(ssd);
        if r.retired_bytes != retired * geo.eblock_bytes() {
            return Some(format!(
                "shard {s}: space report counts {} retired bytes but the summary holds {} \
                 retired EBLOCKs ({} bytes each)",
                r.retired_bytes,
                retired,
                geo.eblock_bytes()
            ));
        }
        let covered = r.free_bytes + r.retired_bytes + r.overhead_bytes;
        if covered > r.total_bytes {
            return Some(format!(
                "shard {s}: space report over-covers the device: free {} + retired {} + \
                 overhead {} > total {}",
                r.free_bytes, r.retired_bytes, r.overhead_bytes, r.total_bytes
            ));
        }
    }
    None
}

fn retired_on(ssd: &eleos::Eleos) -> u64 {
    ssd.eblock_report()
        .iter()
        .filter(|(_, _, state, _, _)| state == "Retired")
        .count() as u64
}

fn retired_count<C: Controller>(sh: &C) -> u64 {
    (0..sh.units()).map(|s| retired_on(sh.unit(s))).sum()
}

fn accumulate<C: Controller>(report: &mut ChaosReport, sh: &C) {
    for snap in sh.snapshot().shards {
        let s = snap.eleos;
        report.program_failures += s.program_failures;
        report.action_retries += s.action_retries;
        report.checkpoints += s.checkpoints;
    }
}

/// Run `n_seeds` short soaks (for repro_all / EXPERIMENTS.md) and render
/// the fault-handling counters. Panics on any divergence — a divergence in
/// the committed experiment table is a regression, not a statistic.
pub fn fault_handling_table(n_seeds: u64) -> (Table, &'static str) {
    let mut t = Table::new(
        "Chaos soak: graceful degradation under injected faults",
        &[
            "seed",
            "batches",
            "crashes",
            "aborts retried",
            "pgm failures",
            "internal retries",
            "retired EBLOCKs",
            "audited pages",
        ],
    );
    for seed in 0..n_seeds {
        let cfg = ChaosConfig {
            seed,
            cycles: 6,
            steps_per_cycle: 40,
            ..Default::default()
        };
        match run_chaos(&cfg) {
            Ok(r) => {
                t.row(vec![
                    seed.to_string(),
                    r.batches.to_string(),
                    r.crashes.to_string(),
                    r.aborts_retried.to_string(),
                    r.program_failures.to_string(),
                    r.action_retries.to_string(),
                    r.retired_eblocks.to_string(),
                    r.audited_pages.to_string(),
                ]);
            }
            Err(f) => panic!("{f}"),
        }
    }
    (
        t,
        "Each seed interleaves writes, deletes, batched-read audits, checkpoints and GC \
         with crash/recover cycles, under probabilistic program failures (p = 0.002) plus a \
         persistent 16-WBLOCK bad region, and audits every acknowledged page against an \
         in-memory differential oracle after each recovery. Zero divergences is the pass \
         criterion; the counters show the controller absorbing the faults — bounded \
         retries, Section VII abort-and-retry at the interface, and permanent retirement \
         of the bad region once its failure count crosses the threshold.",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// CI-sized smoke: one fixed seed, bad region + probabilistic faults,
    /// must complete divergence-free.
    #[test]
    fn chaos_smoke_fixed_seed() {
        let cfg = ChaosConfig {
            seed: 7,
            cycles: 3,
            steps_per_cycle: 24,
            ..Default::default()
        };
        let r = run_chaos(&cfg).unwrap_or_else(|f| panic!("{f}"));
        assert!(r.batches > 0, "soak did no work");
        assert!(r.crashes >= 3);
    }

    /// Multi-client front-end smoke: four client streams through group
    /// commit, one model per client, must complete divergence-free.
    #[test]
    fn multi_client_chaos_smoke_fixed_seed() {
        let cfg = ChaosConfig {
            seed: 11,
            cycles: 3,
            steps_per_cycle: 24,
            clients: 4,
            ..Default::default()
        };
        let r = run_chaos(&cfg).unwrap_or_else(|f| panic!("{f}"));
        assert!(r.batches > 0, "soak acked no client batches");
        assert!(r.groups > 0, "front-end flushed no groups");
        assert!(r.crashes >= 3);
    }

    /// Sharded smoke: four client streams over two controller shards, so
    /// merged groups straddle shards and commit via 2PC; must complete
    /// divergence-free.
    #[test]
    fn sharded_chaos_smoke_fixed_seed() {
        let cfg = ChaosConfig {
            seed: 13,
            cycles: 3,
            steps_per_cycle: 24,
            clients: 4,
            shards: 2,
            ..Default::default()
        };
        let r = run_chaos(&cfg).unwrap_or_else(|f| panic!("{f}"));
        assert!(r.batches > 0, "soak acked no client batches");
        assert!(r.groups > 0, "front-end flushed no groups");
        assert!(r.crashes >= 3);
    }

    /// Direct (no front-end) sharded smoke: single-writer batches straddle
    /// both shards, exercising write-path 2PC without group coalescing.
    #[test]
    fn sharded_single_writer_chaos_smoke_fixed_seed() {
        let cfg = ChaosConfig {
            seed: 17,
            cycles: 3,
            steps_per_cycle: 24,
            shards: 2,
            ..Default::default()
        };
        let r = run_chaos(&cfg).unwrap_or_else(|f| panic!("{f}"));
        assert!(r.batches > 0, "soak did no work");
        assert!(r.crashes >= 3);
    }

    #[test]
    fn repro_command_mentions_seed_and_region() {
        let multi = ChaosFailure {
            seed: 3,
            cycle: 0,
            step: 0,
            what: "test".into(),
            config: ChaosConfig {
                clients: 4,
                shards: 2,
                ..ChaosConfig::default()
            },
            events: Vec::new(),
        };
        assert!(multi.repro_command().contains("--clients 4"));
        assert!(multi.repro_command().contains("--shards 2"));
        let f = ChaosFailure {
            seed: 42,
            cycle: 1,
            step: 2,
            what: "test".into(),
            config: ChaosConfig::default(),
            events: vec!["ckpt begin lsn=7".into()],
        };
        let cmd = f.repro_command();
        assert!(cmd.contains("--seed 42"));
        assert!(cmd.contains("--bad-eblock 2/7"));
        assert!(!cmd.contains("--shards"));
        let shown = f.to_string();
        assert!(shown.contains("last controller events"));
        assert!(shown.contains("ckpt begin lsn=7"));
    }
}
