#!/usr/bin/env bash
# Tier-1 CI gate, in dependency order: release build, the full workspace
# test suite (the bare root package alone runs only its 5 facade tests —
# the 3 end-to-end tests, the GC read-amplification guard and the
# simulation fingerprint; --workspace is what exercises every crate),
# lint-clean at -D warnings, the crash sweeps (single controller and
# sharded), mapping-cache equivalence, the GC-pass gates (deferred
# completion, fault and power-cut sweeps over a multi-round pass, GC reads
# and relocation actions, the simulation fingerprint — which also pins a
# 2-shard group-commit script), the GC policy lab smoke, the
# EXPERIMENTS.md reproduction (repro_all regenerates the committed file
# byte for byte), the host front-end gates (group commit vs serial,
# refinement proptest), the sharded-router gates (1-shard identity, monotonic shard
# scaling, sharded refinement proptest, sharded telemetry), the chaos
# sweep (one soak checked by a per-client model, 200 seeds in each of nine
# configurations, divergent seeds held to a committed list), the
# wire-server gates (loopback e2e, frame fuzz, killed-connection sweep),
# the session WSN redo gate, the net chaos smoke, and last the benchmark
# package's smoke-scale oracle.
#
# Usage: scripts/ci.sh
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --release --workspace

echo "== cargo test =="
cargo test -q --workspace

echo "== cargo clippy (-D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== crash sweep (every flash-command ordinal, shadow oracle) =="
# Bounded: the scripted multi-client run issues a few hundred mutating
# commands; the sweep crashes after each one (~seconds in release).
cargo test -q --release -p eleos --test crash_sweep

echo "== sharded crash sweep (2 shards, cross-shard 2PC atomicity) =="
# Every mutating flash ordinal on each shard in turn becomes that shard's
# last command; a group Prepared on one shard but not coordinator-
# committed must roll back everywhere, a committed one must redo.
cargo test -q --release -p eleos --test crash_sweep_sharded

echo "== mapping-cache equivalence (demand paging vs memory resident) =="
# The flash-resident mapping gate (DESIGN.md §15): two LRU twins, a tiny
# cache under constant eviction pressure and one whose bound never binds,
# end every random schedule (with mid-run crash-recover cycles) in
# identical logical state — which keeps the crash sweeps, run with a roomy
# cache, valid oracles for demand paging.
cargo test -q --release -p eleos --test mapping_equivalence

echo "== GC pass gates (deferred completion, fault sweeps, GC reads, fingerprint) =="
# One maybe_gc call relocates all of its rounds' victims in one system
# action: round-robin rounds overlap channels, one-channel passes of
# several rounds read back across a crash, a program failure or power cut
# at every ordinal of a multi-round pass keeps it all-or-none, and the
# root guard bounds GC bytes read per byte moved and relocation actions
# per victim. The fingerprint writes every key TelemetrySnapshot::visit
# yields (the final simulated clock, every counter, the ledger, the span
# summaries) for a GC churn, a paged-map script and, per shard, a 2-shard
# group-commit script (cross- and single-shard groups with session
# advances, deletes, direct ordered writes, a crash) against
# tests/data/sim_fingerprint.txt: a host-only change must leave it as is.
# It pins every counter by construction: adding one is one line in its
# counters! block, and this gate then fails until a design change blesses
# the new rows.
cargo test -q --release -p eleos --test pipelining
cargo test -q --release -p eleos --test fault_paths
cargo test -q --release --test gc_reads
cargo test -q --release --test sim_fingerprint

echo "== GC policy lab smoke (bounded grid, measurement plumbing) =="
# Two policies at one utilization with a short churn: WA >= 1, GC busy
# share in [0,1], nonzero latency tail; plus the full policy × utilization
# cross product at toy scale. The committed full grid lives in
# EXPERIMENTS.md (repro_all).
cargo test -q --release -p eleos-bench --lib gc_lab

echo "== EXPERIMENTS.md reproduction (repro_all, byte for byte) =="
# Every table is simulated and deterministic: a change that keeps the
# design must regenerate the committed file exactly, and a design change
# commits the regenerated file with it. About 30 s on 2 vCPUs.
cargo build -q --release -p eleos-bench --bin repro_all
exp_dir=$(mktemp -d)
trap 'rm -rf "$exp_dir"' EXIT
"${CARGO_TARGET_DIR:-target}/release/repro_all" "$exp_dir/EXPERIMENTS.md" >/dev/null
diff EXPERIMENTS.md "$exp_dir/EXPERIMENTS.md"

echo "== front-end gate (group commit vs serial, refinement proptest) =="
cargo test -q --release -p eleos-bench frontend
cargo test -q --release -p eleos --test frontend_permutations

echo "== sharded gate (1-shard identity, monotonic scaling, refinement) =="
cargo test -q --release -p eleos-bench --lib shard_scale
cargo test -q --release -p eleos --test sharded_permutations
cargo test -q --release -p eleos --test telemetry_sharded

echo "== chaos sweep (differential oracle, 200 seeds x 9 configurations) =="
# One client drives the controller directly; several share it through the
# group-commit front-end. Two or three shards make batches straddle shards
# and commit through 2PC; --fail-p 0.02 raises the program-failure rate.
# Seeds still diverge on known, open defects (ROADMAP.md item 20): the
# step fails when any configuration's divergent seeds differ from
# crates/bench/tests/data/chaos_divergent_seeds.txt, in either direction.
scripts/chaos_sweep.sh

echo "== wire-server gates (loopback e2e, frame fuzz, killed-connection sweep) =="
# The eleos-server suite: N concurrent TCP clients through group commit
# with read-your-writes and drain-on-shutdown (loopback), frame-decoder
# robustness under arbitrary splits/truncation/garbage (frame_fuzz), and
# the connection killed at every protocol ordinal upholding the
# acked-or-atomic-group contract, single and sharded (conn_chaos).
cargo test -q --release -p eleos-server --test loopback
cargo test -q --release -p eleos-server --test frame_fuzz
cargo test -q --release -p eleos-server --test conn_chaos

echo "== session WSN redo gate (gap/duplicate re-ACK, crash idempotence) =="
# Satellite of DESIGN.md §16: gap/duplicate WSNs are never applied and
# re-ACK the durable high-water; redo after crash()/recover() is
# idempotent; multi-session advances commit atomically with their group,
# unsharded and across the 2PC coordinator.
cargo test -q --release -p eleos --test session_redo

echo "== net chaos smoke (killed conns, partial frames, slow readers) =="
# Randomized wire-level chaos against the loopback server plus a bounded
# kill-at-every-ordinal sweep, audited by the differential oracle.
cargo run --release -p eleos-bench --bin chaos -- --net --seeds 3 --kill-sweep 8 --shards 2

echo "== benchmark smoke oracle (six workloads, read-back + crash/recover) =="
# The benchmark package (BENCHMARK.json) at smoke scale: every workload
# reads back byte for byte, crashes, recovers and reads back again.
cargo test -q --manifest-path benchmark/Cargo.toml

echo "ci: OK"
