//! Runs every experiment and writes EXPERIMENTS.md at the workspace root
//! (alongside printing each table).
//!
//! Experiments run concurrently on a scoped thread pool by default — each
//! owns its own emulated device and clock, so the simulated numbers (and
//! the generated markdown) are byte-identical to a serial run. Pass
//! `--serial` to run everything on one thread.
//!
//! Usage: `cargo run --release -p eleos-bench --bin repro_all [--serial] [out.md]`

use eleos_bench::harness::{run_jobs, Job};
use std::fmt::Write as _;

fn jobs() -> Vec<Job> {
    vec![
        Box::new(|| {
            vec![(
                eleos_bench::experiments::fig1(),
                "*Paper claim:* SSD-resident data is cheaper over a wide performance \
                 range, and reducing I/O cost (batching) extends that range. \
                 *Measured:* the batch column stays below block at every throughput.",
            )]
        }),
        Box::new(|| {
            vec![(
                eleos_bench::experiments::fig9(),
                "*Paper claim (Fig. 9):* batching beats block-at-a-time, more so at \
                 larger buffers; variable-size pages roughly double fixed-page \
                 throughput in pages/s. *Measured:* VP/FP ≈ 2x; batch throughput \
                 grows with buffer size toward the weak controller's bandwidth \
                 ceiling, overtaking Block once buffers exceed ~128 KB (at 64 KB \
                 a batch is barely larger than one packet, so the batch \
                 interface's extra controller work is not yet amortized — the \
                 crossover the paper's batching argument predicts).",
            )]
        }),
        Box::new(|| {
            vec![(
                eleos_bench::experiments::table2(),
                "*Paper (Table II):* Block 52.73K pages/s / 206 MB/s; Batch(FP) \
                 255.03K / 1016; Batch(VP) 447.79K / 992 — batch ≈ 8.5x block in \
                 pages/s. *Measured:* within a few percent on Block and FP; VP \
                 lands above the paper because the synthetic trace slightly \
                 under-shoots the 1.91 KB mean page and our accounting excludes \
                 controller metadata.",
            )]
        }),
        Box::new(|| {
            let (a, b) = eleos_bench::experiments::fig10ab(false);
            vec![
                (
                    a,
                    "*Paper claim (Fig. 10a):* Batch outperforms Block by 1.12–1.97x \
                     depending on cache size; VP does not degrade vs FP despite losing \
                     flash-page alignment. *Measured:* ratio spans ~1.1x (full cache) \
                     to ~1.8x (small cache); VP ≥ FP everywhere.",
                ),
                (
                    b,
                    "*Paper claim (Fig. 10b):* variable-size pages reduce total data \
                     written by ~30% by eliminating internal fragmentation. *Measured:* \
                     ~45% savings — our B-tree pages average a slightly lower fill \
                     factor than AsterixDB's, so padding waste (and hence VP's saving) \
                     is larger.",
                ),
            ]
        }),
        Box::new(|| {
            vec![(
                eleos_bench::experiments::table2_engine_trace(),
                "*Robustness check:* the same experiment driven by the miniature \
                 TPC-C transaction engine (real transactions, real page \
                 compression) instead of the fitted size distribution — the \
                 ordering and factors must not depend on how the trace was made.",
            )]
        }),
        Box::new(|| {
            let (rh, _) = eleos_bench::experiments::fig10ab(true);
            vec![(
                rh,
                "*Paper (footnote 2):* a read-heavy 95%-read workload was evaluated \
                 but omitted for space. Reads are single-page on every interface, \
                 so the batch advantage shrinks — exactly what this table shows.",
            )]
        }),
        Box::new(|| {
            vec![(
                eleos_bench::experiments::fig10c(),
                "*Paper claim (Fig. 10c):* with GC enabled at 10% cache, Bw-tree \
                 throughput declines ~5.2% on Batch(VP) but ~42.3% on Block, whose \
                 host GC must read and parse whole log segments. *Measured:* VP \
                 3.3% (the deferred-completion collector overlaps victim channels, \
                 softening GC's bite below the paper's serial controller), Block \
                 several times worse (host GC read amplification dominates); our \
                 Block baseline cleans mostly-garbage segments more cheaply than \
                 the paper's, softening its decline.",
            )]
        }),
        Box::new(|| {
            vec![(
                eleos_bench::ablation::ablation_gc_policy(),
                "*Beyond the paper:* the min-cost-decline selector the paper adopts \
                 (Section VI-A) against the two strawmen it discusses.",
            )]
        }),
        Box::new(|| {
            vec![(
                eleos_bench::ablation::ablation_hot_cold(),
                "*Beyond the paper:* Section VI-B's cold/hot separation, teased \
                 apart. Three age bins never beat one bin: runs with more EBLOCKs \
                 per channel (up to a 512 MB device and 4x the workload, seed 2; \
                 ROADMAP.md item 21) shrink the 3-bin write-amplification penalty from 13% to 1.3%, \
                 but it stays a penalty. Keeping GC relocations out of the user \
                 write stream does not pay at this geometry (\"off\" is lowest) \
                 but does on all four scaled ones.",
            )]
        }),
        Box::new(|| {
            vec![(
                eleos_bench::ablation::ablation_recovery_time(),
                "*Paper (Section VIII-B):* checkpoints exist to bound recovery \
                 time; this measures that bound against the checkpoint cadence.",
            )]
        }),
        Box::new(|| {
            vec![(
                eleos_bench::ablation::ablation_pipelining(),
                "*Paper (Section III-A2):* ordered sessions exist precisely so \
                 hosts need not wait for ACKs; this quantifies the saved wait.",
            )]
        }),
        Box::new(|| {
            vec![(
                eleos_bench::experiments::overlap_scheduler(),
                "*Beyond the paper:* the deferred-completion I/O scheduler \
                 (DESIGN.md §2, \"submission vs. completion\"). Channel \
                 util is the summed per-channel busy time over channels × \
                 elapsed time, so 12.5% is one channel busy throughout. GC \
                 rounds take a victim from every needy channel and overlap \
                 their reads and erases, and a `maybe_gc` pass relocates \
                 all its rounds' victims in one system action (one context \
                 and one commit force per pass); the controller has no \
                 serial GC schedule, so that row has no serial column. The \
                 read row's serial column runs the same point reads with \
                 one blocking `read()` per LPID on an identically loaded \
                 device, so both columns issue identical op/byte counts and \
                 the speedup is pure channel overlap. \
                 Figures that exercise this: Fig. 10c and \
                 the GC-policy/hot-cold ablations (collector overlap), Fig. \
                 10a read misses via `read_batch` (read overlap); Fig. 9 and \
                 Table II are write-path-bound and already overlapped by \
                 per-action program batching, so they are unaffected.",
            )]
        }),
        Box::new(|| {
            let (t, notes) = eleos_bench::frontend_scale::frontend_scale_table();
            vec![(t, notes)]
        }),
        Box::new(|| {
            let (t, notes) = eleos_bench::shard_scale::shard_scale_table();
            vec![(t, notes)]
        }),
        Box::new(|| {
            let (t, notes) = eleos_bench::chaos::fault_handling_table(6);
            vec![(t, notes)]
        }),
        Box::new(|| {
            let (t, notes) = eleos_bench::experiments::attribution_write_heavy();
            vec![(t, notes)]
        }),
        Box::new(|| {
            let (t, notes) = eleos_bench::experiments::attribution_gc_heavy();
            vec![(t, notes)]
        }),
        Box::new(|| {
            let (t, notes) = eleos_bench::experiments::attribution_recovery();
            vec![(t, notes)]
        }),
        Box::new(|| {
            let (t, notes) = eleos_bench::gc_lab::policy_lab_table();
            vec![(t, notes)]
        }),
        Box::new(|| {
            vec![(
                eleos_bench::ablation::ablation_log_standbys(),
                "*Beyond the paper:* resilience of the three-location log \
                 forward-pointer scheme (Section VIII-A) under injected program \
                 failures.",
            )]
        }),
    ]
}

/// Options deleted because no row showed them winning, each with the
/// null result measured before it went.
const DELETED_OPTIONS: &str = "## Deleted options and their null results\n\n\
- The `cost_benefit` GC policy (the LFS cleaner's age · (1 − u) / 2u) was the \
  worst policy that finished in the GC policy lab at every utilisation: write \
  amp 7.32 / 13.92 / 47.35 at 70 / 80 / 90%, against greedy's 6.03 / 8.18 / \
  20.90.\n\
- Least-worn-first free-block allocation moved the wear CV of the skewed churn \
  from 0.55 to 0.54 at the same write amp of 2.56, so allocation is FIFO, as \
  in the paper.\n\
- The Bw-tree's delta-chain mode (consolidate at 8) gave the same 10.41K ops/s \
  and 50.04 MB written as the in-place tree under the YCSB update mix; the \
  paper evaluates only the in-place tree (Section IX-A3).\n\
- CLOCK replacement in the mapping-page cache ended the simulation \
  fingerprint's paged-map script (16 K LPIDs, 64 translation pages, a 16-page \
  cache) at the same simulated time as LRU with 63,569 hits, 1,084 misses and \
  1,020 flash loads against LRU's 63,570, 1,083 and 1,019, took 60 hits to \
  LRU's 56 in the 120-access eviction trace, and read a hit rate of 0.4890 \
  and 47,586 simulated LPAGE/s on the `read_paged` benchmark against LRU's \
  0.4894 and 47,587, while the `Unbounded` policy was LRU with a bound that \
  never binds, so the cache is LRU only.\n";

fn main() {
    let mut out_path = "EXPERIMENTS.md".to_string();
    let mut serial = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--serial" => serial = true,
            flag if flag.starts_with("--") => {
                eprintln!("repro_all: unknown flag {flag:?}\nusage: repro_all [--serial] [out.md]");
                std::process::exit(2);
            }
            other => out_path = other.to_string(),
        }
    }

    let t0 = std::time::Instant::now();
    let sections = run_jobs(jobs(), !serial);
    let mode = if serial { "serial" } else { "parallel" };
    eprintln!("repro_all: experiments done in {:.1}s ({mode})", t0.elapsed().as_secs_f64());

    let mut md = String::new();
    md.push_str("# EXPERIMENTS — paper vs measured\n\n");
    md.push_str(
        "Generated by `cargo run --release -p eleos-bench --bin repro_all`.\n\
         All throughputs are virtual-time measurements on the flash emulator\n\
         (DESIGN.md §2); volumes are scaled from the paper's 100 GB testbed\n\
         runs. The reproduction target is the shape: ordering, factors and\n\
         crossovers.\n\n",
    );
    for (t, notes) in sections.iter().flatten() {
        t.print();
        let _ = write!(md, "{}\n{}\n\n", t.render(), notes);
    }
    md.push_str(DELETED_OPTIONS);

    std::fs::write(&out_path, md).expect("write EXPERIMENTS.md");
    println!("wrote {out_path}");
}
