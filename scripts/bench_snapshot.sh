#!/usr/bin/env bash
# Record the engine A/B performance snapshot: binary-heap baseline vs the
# timer-wheel + payload-pool engine, as events/sec on a scheduler
# microbench and an end-to-end many-flow dumbbell.
#
# Writes results/BENCH_hotpath.json (machine-readable) and the campaign
# manifest, and prints the comparison table. The run aborts if the two
# engines' simulation results are not byte-identical.
#
# Usage: scripts/bench_snapshot.sh [--quick]
#   --quick   smaller workload (the perf gate's unit of work; see
#             scripts/bench_gate.sh). Full mode is what BENCH_hotpath.json
#             in the repo records.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -q -p suss-bench --bin hotpath
./target/release/hotpath "$@"
