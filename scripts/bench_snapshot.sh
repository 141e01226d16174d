#!/usr/bin/env bash
# Refreshes every committed BENCH_*.json snapshot at the repo root:
#
#   BENCH_baseband.json     bench_snapshot     baseband engine pkt/s, allocs/pkt
#   BENCH_dcb.json          bench_dcb          greedy-vs-exact gap, CTMC cross-check
#   BENCH_faults.json       bench_faults       throughput retained per fault level
#   BENCH_distributed.json  bench_distributed  convergence epoch, msgs/AP per loss rate
#   BENCH_soak.json         bench_soak         soak events/s, peak RSS, retained
#
# The controller path (Algorithm 1 per arrival, Algorithm 2 per epoch) is
# timed end to end and per layer by the benchmark package instead
# (workloads exact-churn, soak-faults, plane-lossy; see acornbench/README.md):
#   cargo run --release --offline --manifest-path acornbench/Cargo.toml -- \
#       --workload exact-churn --seed 1 --seconds 38 --trace 1
#
# Usage: scripts/bench_snapshot.sh
set -euo pipefail
cd "$(dirname "$0")/.."

for b in bench_snapshot bench_dcb bench_faults bench_distributed bench_soak; do
    echo
    echo "== $b =="
    cargo run --quiet --offline --release -p acorn-bench --bin "$b"
done

echo
echo "snapshots written to BENCH_baseband.json, BENCH_dcb.json, BENCH_faults.json,"
echo "BENCH_distributed.json and BENCH_soak.json"
