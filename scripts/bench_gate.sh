#!/usr/bin/env bash
# Same-host perf-regression gate: build the base commit and this tree,
# run each one's quick hotpath A/B interleaved, and fail if the median of
# any events/sec group slowed down by more than 25%.
#
# The base is HEAD when the tree has uncommitted changes (the change under
# test is the diff against it), HEAD^ otherwise (the change is the last
# commit). It is built in a git worktree under target/bench-base, kept
# between runs so only the crates that changed rebuild. Both sides run on
# this host, back to back, so the gate measures the change, not the host.
#
# Usage: scripts/bench_gate.sh (from anywhere inside the repo)
set -euo pipefail
cd "$(dirname "$0")/.."

RUNS=5
BASE_DIR=target/bench-base

if [ -n "$(git status --porcelain)" ]; then base_rev=HEAD; else base_rev=HEAD^; fi
base_sha=$(git rev-parse --verify "$base_rev^{commit}")
if [ -e "$BASE_DIR/.git" ]; then
    git -C "$BASE_DIR" checkout -q --force --detach "$base_sha"
else
    git worktree prune
    git worktree add -q --force --detach "$BASE_DIR" "$base_sha"
fi
echo "base: $base_rev ($base_sha), head: this tree, $RUNS interleaved runs each"
(cd "$BASE_DIR" && cargo build --release -q -p suss-bench --bin hotpath)
cargo build --release -q -p suss-bench --bin hotpath

OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT
# Run one side's quick A/B in its own tree (it writes results/ there). The
# bin exits non-zero if its two engines' results diverge.
hotpath() {
    (cd "$1" && ./target/release/hotpath --quick >/dev/null 2>"$OUT/hotpath.err") \
        || { cat "$OUT/hotpath.err" >&2; exit 1; }
    cp "$1/results/BENCH_hotpath.quick.json" "$2"
}
for i in $(seq "$RUNS"); do
    hotpath "$BASE_DIR" "$OUT/base.$i.json"
    hotpath . "$OUT/head.$i.json"
done
cargo run --release -q -p simtrace --bin suss-trace -- \
    bench-diff "$OUT"/base.*.json "$OUT"/head.*.json --max-slowdown 25
