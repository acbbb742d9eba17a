#!/usr/bin/env bash
# The benchmark's one command (see README.md here, BENCHMARK.json at the root).
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       Build, run one workload in a fresh process and print its result as
#       the last line of stdout: the end-to-end metrics with --trace 0, the
#       per-layer metrics with --trace 1. Everything for a reader goes to
#       stderr. This is the form BENCHMARK.json's command takes.
#
#   benchmark/run.sh [--trace] [--sets N] [--check] [--seed N] [--seconds S]
#       Build, make one untimed warm-up pass, then run every workload, each
#       in a fresh process, printing every metric by name with unit and
#       clock. --trace repeats each workload traced (per-layer table,
#       out/setK/trace_<workload>.jsonl). --sets N runs N full sets into
#       out/set1.json .. out/setN.json; --check (implies --trace and at
#       least two sets) fails unless the first two sets agree: every
#       end-to-end metric within its bound and, on the four in-process
#       workloads, every metric that is not on the host clock identical.
#
# Exits non-zero if the build fails, if any operation of any workload fails
# or does not verify, or if --check finds a disagreement.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# The target directory is shared with the repo (../target) unless the caller
# names one; a relative name is relative to where the caller stands.
if [[ -n "${CARGO_TARGET_DIR:-}" ]]; then
    [[ "$CARGO_TARGET_DIR" == /* ]] || CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR"
else
    CARGO_TARGET_DIR="$here/../target"
fi
export CARGO_TARGET_DIR

cargo build --release --offline --manifest-path "$here/Cargo.toml" 1>&2
bin="$CARGO_TARGET_DIR/release/benchmark"

# glibc malloc otherwise moves its mmap and trim thresholds as the program
# frees large buffers, and whether the 1 MB batch buffers are then recycled
# from the heap or mapped afresh (page faults: 20 % of tpcc_direct) differs
# from run to run. Fixed thresholds make every run recycle them.
export MALLOC_MMAP_THRESHOLD_=33554432 MALLOC_TRIM_THRESHOLD_=4294967296 MALLOC_TOP_PAD_=268435456

BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
BENCH_GIT_REV="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo none)"
export BENCH_RUSTC BENCH_GIT_REV

for a in "$@"; do
    if [[ "$a" == "--workload" ]]; then
        exec "$bin" "$@" --out "$here/out"
    fi
done

trace=0 sets=1 check=0 seed=1
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$here/../BENCHMARK.json")"
while [[ $# -gt 0 ]]; do
    case "$1" in
        --trace) trace=1 ;;
        --check) check=1 trace=1 ;;
        --sets) sets="$2"; shift ;;
        --seed) seed="$2"; shift ;;
        --seconds) seconds="$2"; shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
    shift
done
if [[ $check -eq 1 && $sets -lt 2 ]]; then sets=2; fi

workloads=(tpcc_direct gc_churn read_paged group_sharded net_write net_mixed)

# The first pass on a cold machine reads 20-25 % slow: one short untimed
# pass before anything is measured.
echo "run.sh: warm-up pass" >&2
"$bin" --workload tpcc_direct --seconds 2 >/dev/null 2>&1 || true

failed=0
for set in $(seq 1 "$sets"); do
    dir="$here/out/set$set"
    rm -rf "$dir"
    mkdir -p "$dir"
    for w in "${workloads[@]}"; do
        for t in $(seq 0 "$trace"); do
            echo "run.sh: set $set, $w, trace $t" >&2
            "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$t" --out "$dir" || failed=1
        done
    done
    {
        printf '{"runs": [\n'
        first=1
        for f in "$dir"/result_*.json; do
            [[ $first -eq 1 ]] || printf ',\n'
            first=0
            tr -d '\n' < "$f"
        done
        printf '\n]}\n'
    } > "$here/out/set$set.json"
    echo "run.sh: wrote $here/out/set$set.json" >&2
done

if [[ $check -eq 1 ]]; then
    "$bin" --check "$here/out/set1.json" "$here/out/set2.json" || failed=1
fi
exit "$failed"
