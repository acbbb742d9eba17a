#!/usr/bin/env bash
# Tier-1 CI gate, in dependency order: release build, the full workspace
# test suite (the bare root package alone runs only its 4 facade tests —
# the 3 end-to-end tests and the GC read-amplification guard; --workspace
# is what exercises every crate), lint-clean at -D warnings, the GC-pass
# gates (defer on/off identity, fault and power-cut sweeps over a
# multi-round pass, GC reads and relocation actions), the host
# front-end gates (exhaustive crash-point sweep + frontend bench tests),
# the sharded-router gates (cross-shard crash sweep, 1-shard identity,
# monotonic shard scaling, sharded refinement proptest), bounded
# chaos-soak smokes (fault-injected differential oracle, single-client,
# multi-client and sharded), the wire-server gates (loopback e2e, frame
# fuzz, killed-connection sweep, session WSN redo, net chaos smoke), the
# benchmark package's smoke-scale oracle, then the wall-clock perf smoke
# gate against the committed BENCH_controller.json.
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
# The flash-resident mapping gates (DESIGN.md §15): tiny LRU / tiny CLOCK
# / unbounded caches end every random schedule (with mid-run crash-recover
# cycles) in identical logical state, and a never-binding bounded cache
# replays the unbounded run byte-for-byte (snapshot-JSON equality) — the
# anchor that keeps the crash sweeps valid oracles for demand paging.
cargo test -q --release -p eleos --test mapping_equivalence

echo "== GC pass gates (defer_io identity, fault sweeps, GC reads) =="
# One maybe_gc call relocates all of its rounds' victims in one system
# action: one-channel passes of several rounds stay tick-identical with
# defer_io on and off, a program failure or power cut at every ordinal of
# a multi-round pass keeps it all-or-none, and the root guard bounds GC
# bytes read per byte moved and relocation actions per victim.
cargo test -q --release -p eleos --test pipelining
cargo test -q --release -p eleos --test fault_paths
cargo test -q --release --test gc_reads

echo "== GC policy lab smoke (bounded grid, measurement plumbing) =="
# Two policies at one utilization with a short churn: WA >= 1, GC busy
# share in [0,1], nonzero latency tail; plus the full policy × utilization
# cross product at toy scale. The committed full grid lives in
# EXPERIMENTS.md (repro_all).
cargo test -q --release -p eleos-bench --lib gc_lab

echo "== front-end gate (group commit vs serial, refinement proptest) =="
cargo test -q --release -p eleos-bench frontend
cargo test -q --release -p eleos --test frontend_permutations

echo "== sharded gate (1-shard identity, monotonic scaling, refinement) =="
cargo test -q --release -p eleos-bench --lib shard_scale
cargo test -q --release -p eleos --test sharded_permutations
cargo test -q --release -p eleos --test telemetry_sharded

echo "== chaos smoke (differential oracle, 5 seeds) =="
cargo run --release -p eleos-bench --bin chaos -- --seeds 5

echo "== multi-client chaos smoke (group-commit front-end, 5 seeds) =="
cargo run --release -p eleos-bench --bin chaos -- --seeds 5 --clients 4

echo "== sharded chaos smoke (2 shards, cross-shard 2PC groups, 5 seeds) =="
cargo run --release -p eleos-bench --bin chaos -- --seeds 5 --clients 4 --shards 2

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

echo "== telemetry gate (snapshot schema + conservation) =="
# perfbench --telemetry-out runs a small mixed scenario, enforces the
# attribution conservation invariant in-process (exit 1 on violation),
# and writes the snapshot JSON; the greps pin the documented schema.
telemetry_json="$(mktemp)"
trap 'rm -f "$telemetry_json"' EXIT
cargo run --release -p eleos-bench --bin perfbench -- --telemetry-out "$telemetry_json"
for key in now_ns cpu_busy_ns total_busy_ns unattributed_cpu_ns \
           mapping_cached_pages map_cache hits misses flash_loads \
           evictions flash cpu_attr_ns flash_attr_ns spans \
           user_write gc ckpt wal map_io recovery frontend group_flush \
           write_batch p99_ns conservation_ok; do
  grep -q "\"$key\"" "$telemetry_json" \
    || { echo "telemetry gate: missing key \"$key\"" >&2; exit 1; }
done
grep -q '"conservation_ok":true' "$telemetry_json" \
  || { echo "telemetry gate: conservation_ok is not true" >&2; exit 1; }

echo "== bench schema gate (host_threads/shards/mapping/gc keys) =="
# Committed trajectory entries label their wall-clock measurement with
# the host thread count, since the sharded router with its shard count,
# and since the demand-paged mapping with its cache bound and GC policy;
# the parser defaults pre-existing entries (1 thread, 1 shard, unbounded
# map, paper policy).
for key in host_threads shards mapping_cache_pages gc_policy net_clients; do
  grep -q "\"$key\"" BENCH_controller.json \
    || { echo "bench schema gate: BENCH_controller.json has no $key key" >&2; exit 1; }
done

echo "== perf smoke =="
scripts/perf_smoke.sh

echo "ci: OK"
