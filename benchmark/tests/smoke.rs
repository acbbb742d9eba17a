//! Every workload completes at smoke scale with nothing failed, emits
//! exactly the declared metrics, and the per-layer metrics discriminate
//! between the workloads the way `README.md` says they do.

use std::collections::HashMap;

use eleos_benchmark::measure::{Params, Scale};
use eleos_benchmark::report::{self, END_TO_END, PER_LAYER};
use eleos_benchmark::workloads;

/// Per-layer metrics of one traced smoke run, after checking both runs.
fn layers(workload: &str) -> HashMap<&'static str, f64> {
    let mut p = Params {
        seed: 7,
        seconds: 1,
        trace: false,
        scale: Scale::Smoke,
    };
    let data = workloads::run(workload, &p).expect("known workload");
    let (attempted, failed) = report::attempted_failed(&data);
    assert!(
        attempted > 0 && failed == 0,
        "{workload}: {failed} of {attempted} failed"
    );
    let (metrics, _) = report::end_to_end(&data);
    assert!(metrics
        .iter()
        .map(|m| m.0)
        .eq(END_TO_END.iter().map(|m| m.name)));
    for (name, value) in &metrics {
        assert!(
            value.is_finite() && *value > 0.0,
            "{workload}: {name} = {value} (end-to-end metrics are never 0)"
        );
    }

    p.trace = true;
    let data = workloads::run(workload, &p).expect("known workload");
    let (attempted, failed) = report::attempted_failed(&data);
    assert!(
        attempted > 0 && failed == 0,
        "{workload} traced: {failed} of {attempted} failed"
    );
    let (metrics, _) = report::per_layer(&data);
    assert!(metrics
        .iter()
        .map(|m| m.0)
        .eq(PER_LAYER.iter().map(|m| m.name)));
    for (name, value) in &metrics {
        assert!(value.is_finite(), "{workload}: {name} = {value}");
    }
    let m: HashMap<_, _> = metrics.into_iter().collect();
    assert_eq!(m["telemetry.conservation_ok"], 1.0);
    assert!(
        m["trace.spans"] > 0.0,
        "{workload}: the traced run recorded spans"
    );
    assert!(
        m["trace.residual_frac"].abs() <= 0.05,
        "{workload}: residual {}",
        m["trace.residual_frac"]
    );
    m
}

#[test]
fn tpcc_direct() {
    let m = layers("tpcc_direct");
    assert_eq!(m["gc.collections"], 0.0);
    assert!(m["mapping.hit_rate"] > 0.99);
    assert_eq!(m["engine.frames_in"], 0.0);
    assert_eq!(m["sharded.cross_shard_group_frac"], 0.0);
}

#[test]
fn gc_churn() {
    let m = layers("gc_churn");
    assert!(m["gc.collections"] > 0.0);
    assert!(m["gc.moved_bytes_per_user_byte"] > 0.0);
    assert_eq!(m["engine.frames_in"], 0.0);
    assert_eq!(m["sharded.cross_shard_group_frac"], 0.0);
}

#[test]
fn read_paged() {
    let m = layers("read_paged");
    assert_eq!(m["gc.collections"], 0.0);
    assert!(m["mapping.hit_rate"] < 0.95);
    assert!(m["mapping.flash_loads"] > 0.0);
    assert!(m["mapping.lookup_miss_host_ns"] > m["mapping.lookup_hit_host_ns"]);
    assert_eq!(m["engine.frames_in"], 0.0);
    assert_eq!(m["sharded.cross_shard_group_frac"], 0.0);
}

#[test]
fn group_sharded() {
    let m = layers("group_sharded");
    assert!(m["sharded.cross_shard_group_frac"] > 0.0);
    assert!(m["sharded.units_per_group_mean"] > 1.0);
    assert!(m["frontend.batches_per_group"] > 1.0);
    assert_eq!(m["engine.frames_in"], 0.0);
}

#[test]
fn net_write() {
    let m = layers("net_write");
    assert!(m["engine.frames_in"] > 0.0);
    assert_eq!(
        m["engine.acks_out"],
        m["frontend.groups_flushed"] * m["frontend.batches_per_group"]
    );
    assert_eq!(m["engine.reacks"], 0.0);
    assert!(m["proto.encode_host_ns_per_frame"] > 0.0);
    assert_eq!(m["sharded.cross_shard_group_frac"], 0.0);
}

#[test]
fn net_mixed() {
    let m = layers("net_mixed");
    assert!(
        m["engine.frames_in"] > m["engine.acks_out"],
        "reads arrive beside writes"
    );
    assert!(m["controller.read_host_ns_per_lpage"] > 0.0);
    assert!(
        m["frontend.batches_per_group"] == 1.0,
        "every read flushes a group of one batch"
    );
    assert_eq!(m["sharded.cross_shard_group_frac"], 0.0);
}
