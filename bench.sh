#!/bin/sh
# Regenerate the committed BENCH_<scenario>.json files at the repo
# root: release build, full (non-smoke) scenarios, fixed seeds. Run on
# a quiet machine; absolute numbers are machine-specific, but the
# cell-vs-cell ratios are what the committed trajectory tracks.
#
#   ./bench.sh                # every scenario (chaos, shard_scaling, stripe_scaling)
#   ./bench.sh stripe_scaling # one scenario
#   ./bench.sh all --allow-regression  # accept a >20% p99 regression
#
# After regenerating, the p99 guard diffs each file against the
# version committed at git HEAD and fails if a mode's p99 regressed
# by more than 20% — pass --allow-regression to accept the new
# trajectory on purpose (slower machine, intentional tradeoff).
set -eu

cd "$(dirname "$0")"

scenario="${1:-all}"
allow=""
if [ "${2:-}" = "--allow-regression" ] || [ "${1:-}" = "--allow-regression" ]; then
    allow="--allow-regression"
    [ "$scenario" = "--allow-regression" ] && scenario="all"
fi

echo "== release build"
cargo build --release -p wacs-bench --bin proxy_bench

echo "== proxy_bench --scenario $scenario"
./target/release/proxy_bench --scenario "$scenario" --out .

echo "== validate (+ p99 guard vs git HEAD)"
# shellcheck disable=SC2086
./target/release/proxy_bench --check --against-git $allow BENCH_*.json

echo "bench.sh: done"
