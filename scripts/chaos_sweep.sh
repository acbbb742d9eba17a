#!/usr/bin/env bash
# Chaos sweep gate: `chaos --seeds 200` (seeds 0-199) in nine
# configurations, each configuration's divergent seeds compared with the
# committed list in crates/bench/tests/data/chaos_divergent_seeds.txt.
# Any difference fails, in either direction: a new divergent seed is a
# regression, and a seed that starts passing leaves the file in the change
# that fixes it. About 20 s in release on a 2-vCPU host.
#
# Usage: scripts/chaos_sweep.sh           # gate against the committed list
#        scripts/chaos_sweep.sh --print   # print the measured list instead
set -euo pipefail

cd "$(dirname "$0")/.."

data=crates/bench/tests/data/chaos_divergent_seeds.txt
configs=(
    ""
    "--shards 2"
    "--clients 4"
    "--clients 4 --shards 2"
    "--clients 2 --shards 3"
    "--fail-p 0.02"
    "--fail-p 0.02 --shards 2"
    "--fail-p 0.02 --clients 4 --shards 2"
    "--fail-p 0.02 --clients 4"
)

cargo build -q --release -p eleos-bench --bin chaos
chaos="${CARGO_TARGET_DIR:-target}/release/chaos"

measured=""
for flags in "${configs[@]}"; do
    # shellcheck disable=SC2086 # the flags split into words on purpose
    ok=$("$chaos" --seeds 200 $flags 2>/dev/null |
        sed -n 's/^  seed *\([0-9]*\): OK.*/\1/p' || true)
    divergent=$(comm -23 <(seq 0 199 | sort) <(sort <<<"$ok") | sort -n | paste -sd' ')
    measured+="${flags:-default}: ${divergent}"$'\n'
done

if [[ "${1:-}" == "--print" ]]; then
    printf %s "$measured"
    exit 0
fi
if ! diff <(grep -v '^#' "$data") <(printf %s "$measured"); then
    echo "chaos sweep: divergent seeds differ from $data (< committed, > measured)" >&2
    exit 1
fi
echo "chaos sweep: divergent seeds match $data"
