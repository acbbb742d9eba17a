//! `benchmark --workload W --seed N --seconds S --trace 0|1 [--scale smoke]
//! [--out DIR]` runs one workload in this process, prints every metric by
//! name with unit and clock on stderr, and prints as the last line of
//! stdout one JSON object `{correct, attempted, failed, metrics}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. With `--out` it also writes `result_<W>_trace<T>.json`
//! (the same metrics plus the descriptor) and, traced,
//! `trace_<W>.jsonl`.
//!
//! `benchmark --check A.json B.json` compares two sets of results written
//! by `run.sh --sets 2`.

use std::fmt::Write as _;
use std::process::ExitCode;

use eleos_benchmark::json::{self, Value};
use eleos_benchmark::measure::{Params, Scale};
use eleos_benchmark::report::{self, Metric, END_TO_END, PER_LAYER, WORKLOADS};
use eleos_benchmark::stats::host_descriptor;
use eleos_benchmark::workloads;

fn arg(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--check") {
        return match (args.get(i + 1), args.get(i + 2)) {
            (Some(a), Some(b)) => check(a, b),
            _ => usage("--check needs two files"),
        };
    }
    let Some(workload) = arg(&args, "--workload") else {
        return usage("missing --workload");
    };
    let parsed = (
        arg(&args, "--seed").map_or(Ok(1), |s| s.parse::<u64>()),
        arg(&args, "--seconds").map_or(Ok(8), |s| s.parse::<u64>()),
        arg(&args, "--trace").map_or(Ok(0), |s| s.parse::<u8>()),
    );
    let (Ok(seed), Ok(seconds @ 1..=60), Ok(trace @ 0..=1)) = parsed else {
        return usage("--seed N, --seconds 1..60 and --trace 0|1 take whole numbers");
    };
    let scale = match arg(&args, "--scale").as_deref() {
        None | Some("full") => Scale::Full,
        Some("smoke") => Scale::Smoke,
        Some(_) => return usage("--scale is full or smoke"),
    };
    let p = Params {
        seed,
        seconds,
        trace: trace == 1,
        scale,
    };
    let Some(data) = workloads::run(&workload, &p) else {
        return usage(&format!("unknown workload {workload}"));
    };

    let (attempted, failed) = report::attempted_failed(&data);
    let (table, (metrics, notes)): (&[Metric], _) = if p.trace {
        (&PER_LAYER, report::per_layer(&data))
    } else {
        (&END_TO_END, report::end_to_end(&data))
    };
    assert!(
        metrics.len() == table.len() && metrics.iter().zip(table).all(|(m, t)| m.0 == t.name),
        "the derived metrics are the declared ones, in order"
    );

    let descriptor = format!(
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"seconds\":{seconds},\"trace\":{trace},\
         \"scale\":\"{scale:?}\",\"op_counts\":\"{}\",\"host\":{}}}",
        data.op_counts,
        host_descriptor()
    );
    eprintln!("{descriptor}");
    for ((name, value), m) in metrics.iter().zip(table) {
        let bound = if p.trace {
            String::new()
        } else {
            format!("  bound {:.0} %", m.bound * 100.0)
        };
        eprintln!(
            "  {name:<42} {value:>18.4} {:<6} clock={:<4} better={}{bound}",
            m.unit, m.clock, m.better
        );
    }
    for line in &notes {
        eprintln!("  {line}");
    }
    eprintln!(
        "  attempted {attempted}, failed {failed}, fail_frac {}",
        failed as f64 / attempted as f64
    );

    let mut body = String::new();
    for (i, ((name, value), m)) in metrics.iter().zip(table).enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            num(*value),
            m.unit
        );
    }
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}",
        failed == 0
    );
    if let Some(dir) = arg(&args, "--out") {
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| {
                let file = format!("{dir}/result_{workload}_trace{trace}.json");
                std::fs::write(
                    file,
                    format!("{{\"descriptor\": {descriptor}, \"result\": {result}}}\n"),
                )
            })
            .and_then(|()| {
                if !p.trace {
                    return Ok(());
                }
                let mut lines = String::new();
                data.driver_rec.write_jsonl("driver", &mut lines);
                if let Some(rec) = &data.engine_rec {
                    rec.write_jsonl("engine", &mut lines);
                }
                std::fs::write(format!("{dir}/trace_{workload}.jsonl"), lines)
            });
        if let Err(e) = written {
            eprintln!("benchmark: cannot write under {dir}: {e}");
            return ExitCode::from(2);
        }
    }
    println!("{result}");
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("benchmark: {failed} of {attempted} operations failed or did not verify");
        ExitCode::from(1)
    }
}

fn usage(why: &str) -> ExitCode {
    eprintln!("benchmark: {why}");
    eprintln!(
        "usage: benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--scale full|smoke] [--out DIR]\n\
         \x20      benchmark --check SET_A.json SET_B.json",
        WORKLOADS.map(|w| w.0).join("|")
    );
    ExitCode::from(2)
}

/// The metrics of every run of a set file, keyed by `(workload, trace)`.
fn runs(path: &str) -> Result<Vec<(String, u8, Value)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let set = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    set.get("runs")
        .ok_or(format!("{path}: no runs"))?
        .as_arr()
        .iter()
        .map(|run| {
            let d = run.get("descriptor").ok_or("run without descriptor")?;
            let workload = d
                .get("workload")
                .and_then(Value::as_str)
                .ok_or("no workload")?
                .to_string();
            let trace = d
                .get("trace")
                .and_then(Value::as_f64)
                .ok_or("no trace flag")? as u8;
            let metrics = run
                .get("result")
                .and_then(|r| r.get("metrics"))
                .ok_or("no metrics")?
                .clone();
            Ok((workload, trace, metrics))
        })
        .collect()
}

/// Two sets of the same code agree: every end-to-end metric within its
/// bound (second set no worse than the first, either way round), and on the
/// four in-process workloads every metric that is not on the host clock is
/// identical.
fn check(a: &str, b: &str) -> ExitCode {
    let (ra, rb) = match (runs(a), runs(b)) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("benchmark --check: {e}");
            return ExitCode::from(2);
        }
    };
    let mut bad = 0;
    let mut compared = 0;
    for (workload, trace, ma) in &ra {
        let Some((_, _, mb)) = rb.iter().find(|(w, t, _)| w == workload && t == trace) else {
            eprintln!("MISSING  {workload} trace={trace} in {b}");
            bad += 1;
            continue;
        };
        let in_process = !workload.starts_with("net_");
        let table: &[Metric] = if *trace == 1 { &PER_LAYER } else { &END_TO_END };
        for m in table {
            let value = |set: &Value| {
                set.get(m.name)
                    .and_then(|v| v.get("value"))
                    .and_then(Value::as_f64)
            };
            let (Some(va), Some(vb)) = (value(ma), value(mb)) else {
                eprintln!("MISSING  {workload} {} in one set", m.name);
                bad += 1;
                continue;
            };
            compared += 1;
            if m.clock != "host" && in_process && va != vb {
                eprintln!(
                    "DIFFERS  {workload} {}: {va} vs {vb} (must be identical)",
                    m.name
                );
                bad += 1;
            }
            if *trace == 0 {
                let rel = if va == vb {
                    0.0
                } else {
                    (va - vb).abs() / va.abs().min(vb.abs())
                };
                if rel > m.bound {
                    eprintln!(
                        "BOUND    {workload} {}: {va} vs {vb} differ by {:.1} % > {:.0} %",
                        m.name,
                        rel * 100.0,
                        m.bound * 100.0
                    );
                    bad += 1;
                }
            }
        }
    }
    eprintln!("benchmark --check: {compared} metric pairs compared, {bad} problems");
    if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
