//! Connection-chaos harness with a differential oracle (DESIGN.md §16).
//!
//! The wire server's fault model is the *connection*: it can die at any
//! protocol ordinal, leave half a frame in the socket, or stop draining
//! ACKs. The contract under all of that is **acked-or-atomic-group**:
//!
//! 1. A durably ACKed batch never vanishes — after any reconnect, the
//!    session's re-ACKed high-water is at least every ACK the client saw.
//! 2. An unACKed batch may vanish, but the client's redo replay applies
//!    it exactly once (the WSN check discards what was already applied).
//! 3. After every client drains its redo buffer, reads — over the wire
//!    and directly against the controller after a drained shutdown —
//!    match the op-order model exactly.
//!
//! Each client owns the LPIDs congruent to its index so the model is
//! deterministic regardless of how the engine interleaves connections.
//! The harness is generic over [`Controller`] and dispatches on shard
//! count, like `eleos-bench`'s in-process chaos oracle; `eleos-bench
//! chaos --net` and the killed-connection sweep test both drive it.

use std::collections::HashMap;
use std::io::Write;

use eleos::frontend::GroupCommitPolicy;
use eleos::types::Lpid;
use eleos::{Controller, Eleos, EleosConfig, EleosError, ShardedEleos};
use eleos_flash::{CostProfile, FlashDevice, Geometry};

use crate::client::Client;
use crate::proto::Frame;
use crate::server::ServerHandle;

/// Knobs for one randomized net-chaos run.
#[derive(Debug, Clone)]
pub struct NetChaosConfig {
    pub seed: u64,
    /// Concurrent TCP clients (each owns an LPID residue class).
    pub clients: usize,
    /// Total operations across all clients.
    pub ops: usize,
    /// Kill a random connection every N ops (0 = never).
    pub kill_every: usize,
    /// Dying connections first leave a truncated frame (and sometimes
    /// garbage) in the socket.
    pub partial_frames: bool,
    /// Client 0 never drains ACKs until the end (slow consumer).
    pub slow_reader: bool,
    /// 1 = single controller, >1 = sharded array.
    pub shards: usize,
    /// LPIDs per client.
    pub lpids_per_client: usize,
}

impl Default for NetChaosConfig {
    fn default() -> Self {
        NetChaosConfig {
            seed: 0xE1E05,
            clients: 3,
            ops: 120,
            kill_every: 17,
            partial_frames: true,
            slow_reader: true,
            shards: 1,
            lpids_per_client: 8,
        }
    }
}

/// Outcome of a chaos run; `divergences` must be empty.
#[derive(Debug, Clone, Default)]
pub struct NetChaosReport {
    pub ops: usize,
    pub kills: usize,
    pub reconnects: usize,
    pub reacks_survived: u64,
    pub divergences: Vec<String>,
}

/// SplitMix64: deterministic, dependency-free randomness for scripts.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

fn devices(n: usize) -> Vec<FlashDevice> {
    (0..n)
        .map(|_| FlashDevice::new(Geometry::tiny(), CostProfile::unit()))
        .collect()
}

/// A low-threshold policy so small chaos scripts exercise many group
/// boundaries (kills land both mid-group and between groups).
fn chaos_policy() -> GroupCommitPolicy {
    GroupCommitPolicy {
        flush_bytes: 2 * 1024,
        flush_interval_ns: 200_000,
        max_queued_batches: 8,
    }
}

/// Run the randomized chaos script against a freshly formatted controller
/// behind a loopback server. Dispatches on `cfg.shards`.
pub fn run_net_chaos(cfg: &NetChaosConfig) -> NetChaosReport {
    if cfg.shards <= 1 {
        run_generic::<Eleos>(cfg, devices(1))
    } else {
        run_generic::<ShardedEleos>(cfg, devices(cfg.shards))
    }
}

fn run_generic<C: Controller + Send + 'static>(
    cfg: &NetChaosConfig,
    devs: Vec<FlashDevice>,
) -> NetChaosReport {
    let ssd = C::format(devs, &EleosConfig::test_small()).expect("format");
    let handle = ServerHandle::spawn(ssd, chaos_policy(), "127.0.0.1:0").expect("spawn server");
    let addr = handle.addr();

    let mut rng = Rng(cfg.seed);
    let mut report = NetChaosReport::default();
    let mut clients: Vec<Client> = (0..cfg.clients)
        .map(|_| Client::connect(addr).expect("connect"))
        .collect();
    // Op-order model of what each client's LPIDs must hold once every
    // redo buffer drains. `None` = deleted (or never written).
    let mut model: Vec<HashMap<Lpid, Option<Vec<u8>>>> =
        vec![HashMap::new(); cfg.clients];

    let owned = |ci: usize, k: usize| (ci + k * cfg.clients) as Lpid;

    for op in 0..cfg.ops {
        let ci = rng.below(cfg.clients);
        let roll = rng.below(100);
        let r = if roll < 70 {
            // Pipelined write of 1-3 owned pages.
            let n = 1 + rng.below(3);
            let pages: Vec<(Lpid, Vec<u8>)> = (0..n)
                .map(|_| {
                    let l = owned(ci, rng.below(cfg.lpids_per_client));
                    let len = 16 + rng.below(240);
                    let fill = (rng.next() & 0xFF) as u8;
                    (l, vec![fill; len])
                })
                .collect();
            for (l, v) in &pages {
                model[ci].insert(*l, Some(v.clone()));
            }
            clients[ci].write(pages).map(|_| ())
        } else if roll < 85 {
            // Drain + read-own + verify (the slow reader skips draining
            // mid-run; its verification waits for the end).
            if cfg.slow_reader && ci == 0 {
                Ok(())
            } else {
                clients[ci].wait_all_acked().and_then(|()| {
                    verify_client(&mut clients[ci], &model[ci], ci, &mut report.divergences)
                })
            }
        } else {
            // Synchronous delete of an owned page.
            let l = owned(ci, rng.below(cfg.lpids_per_client));
            model[ci].insert(l, None);
            clients[ci].delete(vec![l])
        };
        if let Err(e) = r {
            report
                .divergences
                .push(format!("op {op} client {ci}: io failure: {e}"));
            break;
        }
        report.ops += 1;

        if cfg.kill_every > 0 && op % cfg.kill_every == cfg.kill_every - 1 {
            let ki = rng.below(cfg.clients);
            if cfg.partial_frames {
                // Leave a truncated frame (sometimes preceded by garbage)
                // in the socket before dying.
                let wire = Frame::WriteBatch {
                    sid: clients[ki].sid(),
                    wsn: u64::MAX,
                    pages: vec![(owned(ki, 0), vec![0xEE; 64])],
                }
                .encode();
                let cut = 1 + rng.below(wire.len() - 1);
                let mut junk = Vec::new();
                if rng.below(2) == 0 {
                    junk.extend_from_slice(&[0xFF; 7]);
                }
                junk.extend_from_slice(&wire[..cut]);
                let _ = clients[ki].raw_stream().write_all(&junk);
            }
            clients[ki].kill();
            report.kills += 1;
            let h_before = clients[ki].highest_acked();
            match clients[ki].reconnect(addr) {
                Ok(server_h) => {
                    report.reconnects += 1;
                    if server_h < h_before {
                        report.divergences.push(format!(
                            "client {ki}: ACKed wsn vanished: server {server_h} < seen {h_before}"
                        ));
                    }
                }
                Err(e) => {
                    report
                        .divergences
                        .push(format!("client {ki}: reconnect failed: {e}"));
                    break;
                }
            }
        }
    }

    // Drain every redo buffer, then verify over the wire.
    for ci in 0..cfg.clients {
        if let Err(e) = clients[ci].wait_all_acked() {
            report
                .divergences
                .push(format!("client {ci}: final drain failed: {e}"));
            continue;
        }
        let _ = verify_client(&mut clients[ci], &model[ci], ci, &mut report.divergences);
    }

    // Graceful shutdown hands the controller back; verify durable state
    // directly (no wire in the way).
    let (mut ssd, stats) = handle.shutdown();
    report.reacks_survived = stats.reacks;
    for (ci, m) in model.iter().enumerate() {
        for (&l, want) in m {
            match (ssd.read(l), want) {
                (Ok(got), Some(w)) if got.as_ref() == &w[..] => {}
                (Err(EleosError::NotFound(_)), None) => {}
                (got, want) => report.divergences.push(format!(
                    "controller: client {ci} lpid {l}: want {:?}, got {:?}",
                    want.as_ref().map(|v| (v.len(), v.first().copied())),
                    got.map(|b| (b.len(), b.first().copied())),
                )),
            }
        }
    }
    if let Some(err) = ssd.snapshot().conservation_error() {
        report
            .divergences
            .push(format!("telemetry conservation violated: {err}"));
    }
    report
}

fn verify_client(
    c: &mut Client,
    model: &HashMap<Lpid, Option<Vec<u8>>>,
    ci: usize,
    divergences: &mut Vec<String>,
) -> std::io::Result<()> {
    let mut lpids: Vec<Lpid> = model.keys().copied().collect();
    lpids.sort_unstable();
    let got = c.read(lpids.clone())?;
    for (l, g) in lpids.iter().zip(got) {
        let want = &model[l];
        let ok = match (&g, want) {
            (Some(g), Some(w)) => g == w,
            (None, None) => true,
            _ => false,
        };
        if !ok {
            divergences.push(format!(
                "wire: client {ci} lpid {l}: want {:?}, got {:?}",
                want.as_ref().map(|v| (v.len(), v.first().copied())),
                g.as_ref().map(|v| (v.len(), v.first().copied())),
            ));
        }
    }
    Ok(())
}

/// Deterministic killed-connection sweep: one scripted client run, killed
/// at *every* protocol ordinal in turn (after op `k` for each `k`),
/// reconnect-redo, finish the script, and check the acked-or-atomic-group
/// contract each time. Returns the divergences across all ordinals.
pub fn run_kill_sweep(script_ops: usize, shards: usize, seed: u64) -> NetChaosReport {
    let mut total = NetChaosReport::default();
    for kill_at in 0..script_ops {
        let cfg = NetChaosConfig {
            seed,
            clients: 1,
            ops: script_ops,
            // `op % kill_every == kill_every-1` fires first at op kill_at.
            kill_every: kill_at + 1,
            partial_frames: kill_at % 2 == 0,
            slow_reader: false,
            shards,
            lpids_per_client: 6,
        };
        let r = run_net_chaos(&cfg);
        total.ops += r.ops;
        total.kills += r.kills;
        total.reconnects += r.reconnects;
        total.reacks_survived += r.reacks_survived;
        for d in r.divergences {
            total.divergences.push(format!("kill@{kill_at}: {d}"));
        }
    }
    total
}
