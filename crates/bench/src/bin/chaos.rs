//! Chaos soak driver: randomized crash/fault torture with a differential
//! oracle (see `eleos_bench::chaos`).
//!
//! Default mode runs 10 seeds, each interleaving writes, deletes, batched
//! reads, checkpoints and GC with crash/recover cycles under probabilistic
//! program failures plus a persistent bad-WBLOCK region, auditing every
//! acknowledged page against a per-client model after each recovery.
//! Any divergence prints the seed and the exact repro command, and the
//! process exits 1.
//!
//!     cargo run --release -p eleos-bench --bin chaos
//!     cargo run --release -p eleos-bench --bin chaos -- --seed 7 --cycles 3
//!     cargo run --release -p eleos-bench --bin chaos -- --seeds 25 --fail-p 0.005
//!
//! `--net` switches to the wire-protocol axis (eleos-server): randomized
//! killed connections, partial frames and slow readers against a loopback
//! server, plus a kill-at-every-protocol-ordinal sweep, audited by the
//! acked-or-atomic-group differential oracle.
//!
//!     cargo run --release -p eleos-bench --bin chaos -- --net
//!     cargo run --release -p eleos-bench --bin chaos -- --net --seeds 3 \
//!         --ops 200 --clients 4 --shards 2 --kill-sweep 12

use eleos_bench::chaos::{run_chaos, ChaosConfig};
use eleos_server::{run_kill_sweep, run_net_chaos, NetChaosConfig};

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn parse<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    flag_value(args, flag).and_then(|v| {
        v.parse().ok().or_else(|| {
            eprintln!("chaos: could not parse value {v:?} for {flag}");
            std::process::exit(2);
        })
    })
}

/// The `--net` axis: loopback wire-protocol chaos (killed connections,
/// partial frames, slow readers) plus the kill-at-every-ordinal sweep.
fn net_main(args: &[String]) {
    let mut base = NetChaosConfig::default();
    if let Some(c) = parse(args, "--clients") {
        base.clients = c;
    }
    if let Some(o) = parse(args, "--ops") {
        base.ops = o;
    }
    if let Some(s) = parse(args, "--shards") {
        if s < 1 {
            eprintln!("chaos: --shards wants N >= 1");
            std::process::exit(2);
        }
        base.shards = s;
    }
    if let Some(k) = parse(args, "--kill-every") {
        base.kill_every = k;
    }
    let seeds: Vec<u64> = match parse::<u64>(args, "--seed") {
        Some(s) => vec![s],
        None => {
            let n = parse::<u64>(args, "--seeds").unwrap_or(5);
            (0..n).map(|i| 0xE1E05 + i).collect()
        }
    };
    let sweep_ops: usize = parse(args, "--kill-sweep").unwrap_or(10);

    println!(
        "net chaos: {} seed(s), {} ops x {} clients, kill every ~{}, {} shard(s), \
         partial frames {}, slow readers {}",
        seeds.len(),
        base.ops,
        base.clients,
        base.kill_every,
        base.shards,
        base.partial_frames,
        base.slow_reader
    );
    let mut divergences = 0usize;
    for &seed in &seeds {
        let cfg = NetChaosConfig { seed, ..base.clone() };
        let r = run_net_chaos(&cfg);
        if r.divergences.is_empty() {
            println!(
                "  seed {seed:#x}: OK  {} ops, {} kills, {} reconnects, {} re-ACKs survived",
                r.ops, r.kills, r.reconnects, r.reacks_survived
            );
        } else {
            divergences += r.divergences.len();
            for d in &r.divergences {
                eprintln!("  seed {seed:#x}: DIVERGENCE {d}");
            }
        }
    }
    if sweep_ops > 0 {
        let r = run_kill_sweep(sweep_ops, base.shards, seeds[0]);
        println!(
            "  kill sweep: {} ordinals, {} kills, {} reconnects, {} divergence(s)",
            sweep_ops,
            r.kills,
            r.reconnects,
            r.divergences.len()
        );
        for d in &r.divergences {
            eprintln!("  kill sweep DIVERGENCE: {d}");
        }
        divergences += r.divergences.len();
    }
    if divergences > 0 {
        eprintln!("net chaos FAILED: {divergences} divergence(s)");
        std::process::exit(1);
    }
    println!("net chaos passed: {} seed(s) + sweep, zero divergences", seeds.len());
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: chaos [--seed N | --seeds N] [--cycles N] [--steps N] \
             [--fail-p P] [--bad-eblock CH/EB | --no-bad-region] [--clients N] \
             [--shards N]\n       chaos --net [--seed N | --seeds N] [--ops N] \
             [--clients N] [--shards N] [--kill-every N] [--kill-sweep OPS]"
        );
        return;
    }
    if args.iter().any(|a| a == "--net") {
        net_main(&args);
        return;
    }

    let mut base = ChaosConfig::default();
    if let Some(c) = parse(&args, "--cycles") {
        base.cycles = c;
    }
    if let Some(c) = parse(&args, "--clients") {
        base.clients = c;
    }
    if let Some(s) = parse(&args, "--shards") {
        if s < 1 {
            eprintln!("chaos: --shards wants N >= 1");
            std::process::exit(2);
        }
        base.shards = s;
    }
    if let Some(s) = parse(&args, "--steps") {
        base.steps_per_cycle = s;
    }
    if let Some(p) = parse(&args, "--fail-p") {
        base.fail_p = p;
    }
    if args.iter().any(|a| a == "--no-bad-region") {
        base.bad_eblock = None;
    } else if let Some(spec) = flag_value(&args, "--bad-eblock") {
        let (c, e) = spec
            .split_once('/')
            .and_then(|(c, e)| Some((c.parse().ok()?, e.parse().ok()?)))
            .unwrap_or_else(|| {
                eprintln!("chaos: --bad-eblock wants CH/EB, got {spec:?}");
                std::process::exit(2);
            });
        base.bad_eblock = Some((c, e));
    }

    // A single --seed replays exactly one run (the repro path); otherwise
    // sweep `--seeds` (default 10) consecutive seeds.
    let seeds: Vec<u64> = match parse::<u64>(&args, "--seed") {
        Some(s) => vec![s],
        None => {
            let n = parse::<u64>(&args, "--seeds").unwrap_or(10);
            (0..n).collect()
        }
    };

    println!(
        "chaos soak: {} seed(s), {} cycles x ~{} steps, fail-p {}, bad region {:?}, \
         {} client(s){}, {} shard(s)",
        seeds.len(),
        base.cycles,
        base.steps_per_cycle,
        base.fail_p,
        base.bad_eblock,
        base.clients,
        if base.clients > 1 {
            " via group-commit front-end"
        } else {
            ""
        },
        base.shards
    );

    let mut divergences = 0u32;
    for &seed in &seeds {
        let cfg = ChaosConfig { seed, ..base.clone() };
        match run_chaos(&cfg) {
            Ok(r) => println!(
                "  seed {seed:>3}: OK  {} batches, {} crashes ({} forced), {} aborts retried, \
                 {} pgm failures, {} internal retries, {} retired EBLOCKs, {} pages audited, \
                 {} live{}",
                r.batches,
                r.crashes,
                r.shutdowns,
                r.aborts_retried,
                r.program_failures,
                r.action_retries,
                r.retired_eblocks,
                r.audited_pages,
                r.live_pages,
                if base.clients > 1 {
                    format!(", {} groups", r.groups)
                } else {
                    String::new()
                }
            ),
            Err(f) => {
                divergences += 1;
                eprintln!("{f}");
            }
        }
    }

    if divergences > 0 {
        eprintln!("chaos soak FAILED: {divergences} divergent seed(s)");
        std::process::exit(1);
    }
    println!("chaos soak passed: {} seed(s), zero divergences", seeds.len());
}
