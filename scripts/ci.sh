#!/usr/bin/env bash
# The tier-1 gate, runnable locally and from any CI runner:
#   1. formatting (cargo fmt --check, whole workspace),
#   2. panic-path budget: `unwrap()` / `expect(` / `panic!(` in ANY
#      crate's non-test code must not grow past the audited baselines
#      (one for library crates, one for the bench/figure binaries —
#      fallible library paths return typed errors instead),
#   3. warnings-clean check build of the whole workspace, and a
#      warnings-clean rustdoc build (no dangling intra-doc links),
#   4. release build,
#   5. the root test suite (tier-1: reproduction guards, properties,
#      determinism, resilience, event-runtime goldens),
#   5a. the allocation oracle gate: every Algorithm 2 entry point (the
#      controller's sharded reallocation, the zone replay, the free
#      allocate / allocate_sharded) against fingerprints of the former
#      per-entry-point implementations, the sharded path against its
#      per-component composition, and the acorn-core unit tests,
#   5b. the exact-estimator oracle gate: every shortcut on the exact
#      §4.2 path (tabulated union bound, fused error rates, per-SNR
#      estimate memo, one-model throughput total) is bit-identical to
#      the computation it replaced,
#   5c. the distributed golden-twin gate: the zone-controller plane's
#      benign-path allocation must equal the centralized controller's
#      exactly, and partitions must degrade per-zone only,
#   5d. the chaos-soak smoke gate: short-horizon soak with internal
#      ACORN_THREADS = 1/2/8 sweep (bit-identical logs + sketch
#      fingerprints), sabotage negative test, bounded-telemetry growth,
#      plane chaos heal, and the sketch property suite,
#   6. the observability overhead gate: the baseband packet path must
#      stay zero-allocation with a NullSink attached (measured under the
#      counting allocator), and instrumented runs must be bit-identical
#      to plain ones,
#   7. the determinism + golden suites re-run under ACORN_THREADS = 1, 2
#      and 8 — the engine's thread-count cap must never move an output
#      bit, including the hard-coded pre-port fingerprints. The
#      determinism sweep runs with a RecordingSink attached and asserts
#      byte-stable snapshot JSON; the resilience suite records through
#      the events-layer sinks (faults.*, csa.*, iapp.* counters),
#   8. the benchmark package's own tests (acornbench/, built against the
#      workspace crates by path), so an API change that would break the
#      benchmark fails here first.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== fmt check =="
cargo fmt --all -- --check

echo
echo "== panic-path budget (all crates, non-test) =="
# Two audited baselines. Library crates (28): provably-unreachable
# expects (core/par.rs), frame-layout invariants (baseband/frame.rs),
# and lock-poisoning fallbacks — everything reachable from user input
# returns a typed error (the soak crate adds zero: all fallible
# registrations go through `if let Ok`). Bench/figure binaries (32) may
# unwrap on their own outputs. Test modules sit at the bottom of each
# file behind #[cfg(test)], so counting stops at that marker.
LIB_PANIC_BASELINE=28
BIN_PANIC_BASELINE=32
count_panics() { # $1: newline-separated file list
    local total=0 f hits
    while IFS= read -r f; do
        [ -f "$f" ] || continue
        hits=$(awk '/#\[cfg\(test\)\]/{exit} {print}' "$f" \
            | grep -cE '\.unwrap\(\)|\.expect\(|panic!\(' || true)
        if [ "$hits" -gt 0 ]; then
            echo "  $f: $hits" >&2
            total=$((total + hits))
        fi
    done <<< "$1"
    echo "$total"
}
lib_count=$(count_panics "$(find crates -path 'crates/bench' -prune -o \
    -path '*/src/*' -name '*.rs' -print | sort)")
bin_count=$(count_panics "$(find crates/bench/src -name '*.rs' | sort)")
echo "  lib total: $lib_count (baseline $LIB_PANIC_BASELINE)"
echo "  bench-bin total: $bin_count (baseline $BIN_PANIC_BASELINE)"
if [ "$lib_count" -gt "$LIB_PANIC_BASELINE" ] \
    || [ "$bin_count" -gt "$BIN_PANIC_BASELINE" ]; then
    echo "panic-path budget exceeded" >&2
    echo "(convert the new unwrap/expect/panic to a typed error, or" >&2
    echo " re-audit and bump the baseline in scripts/ci.sh)" >&2
    exit 1
fi

echo
echo "== warnings-clean check =="
RUSTFLAGS="-D warnings" cargo check --offline --workspace --all-targets
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo
echo "== release build =="
cargo build --release --offline

echo
echo "== tests =="
cargo test -q --offline

echo
echo "== allocation oracle gate =="
# One hedged Algorithm 2 driver serves every entry point; its outputs
# (assignments, total_bps bits, iterations, switches, history) must match
# fingerprints captured from the per-entry-point copies it replaced, and
# the sharded path must equal per-component allocate runs with the shard
# seed schedule on random connected and disconnected graphs.
cargo test -q --offline --release --test allocation_oracle
cargo test -q --offline --release -p acorn-core --lib

echo
echo "== observability overhead gate (NullSink) =="
# The disabled-observability contract, measured rather than assumed:
# 0 allocs/packet on the warm baseband path, plain == instrumented bit
# patterns. scripts/bench_snapshot.sh tracks the companion < 2%
# wall-clock budget in BENCH_allocation.json / BENCH_baseband.json.
cargo test -q --offline --release -p acorn-bench --test obs_overhead

echo
echo "== goodput-table accuracy gate =="
# The memoized SNR->PER->goodput table must stay within its documented
# error budget (GoodputTable::GOODPUT_TOLERANCE_BPS) over the full
# MCS x width x SNR sweep, and must not change any golden-topology
# coloring. The companion spatial_graph properties pin the grid-built
# interference graph to the brute-force oracle, edge for edge.
cargo test -q --offline --release --test table_accuracy --test spatial_graph

echo
echo "== exact-estimator oracle gate =="
# The exact path's shortcuts must not move a bit: the tabulated ln(n!)
# union bound and the fused coded-BER/PER evaluation against
# fingerprints of the unshortcut code, the per-SNR estimate memo against
# fresh estimates, the one-model throughput total against the per-AP
# sum, and the memo's invalidation rules. The phy unit tests pin the
# ln(n!) table and the fused fading pass against the functions they
# replace.
cargo test -q --offline --release --test estimator_oracle
cargo test -q --offline --release -p acorn-phy --lib

echo
echo "== dynamic-channel-bonding gate =="
# The DCB event simulator must land within the documented tolerance of
# the exactly solved Faridi-style CTMC on every cross-check topology x
# Markovian policy, and the branch-and-bound optimum must terminate on
# the enumerable gap topologies without the greedy ever beating it
# (tests/dcb.rs documents both bounds; bench_dcb snapshots the same
# numbers to BENCH_dcb.json).
cargo test -q --offline --release --test dcb

echo
echo "== distributed golden-twin gate =="
# The distributed control plane must land on EXACTLY the centralized
# controller's allocation on the benign path (assignments, widths and
# associations, bit for bit) on three seeded multi-zone topologies, and
# a partition must degrade only the isolated zone (per-zone safe mode,
# post-heal reconvergence to the twin).
cargo test -q --offline --release --test distributed_twin

echo
echo "== chaos-soak smoke gate =="
# Short-horizon soak over a 16-AP city grid: the chaos sweep test runs
# the full faulty soak at ACORN_THREADS = 1/2/8 internally and asserts
# bit-identical event logs, telemetry snapshot bytes (which cover every
# sketch fingerprint), and final state; sabotage must trip the watchdog
# with replayable coordinates; sketch/series telemetry must stay
# bounded as the horizon grows; and the distributed plane must heal
# back to its centralized twin under periodic partition/crash windows.
# The sketch property suite pins merge commutativity / associativity
# and the deterministic rank-error bound against an exact ECDF.
cargo test -q --offline --release --test soak
cargo test -q --offline --release -p acorn-obs --test sketch_props

echo
echo "== determinism across thread counts =="
# determinism.rs sweeps ACORN_THREADS internally (fault-free AND faulty
# composites, the per-transmission DCB runs over the overlapping-BSS
# grid, plus the faulty distributed control plane: loss + a
# zone-controller crash, event-log/telemetry/per-zone-allocation
# equality); the outer loop additionally pins the *ambient* thread
# count for the golden-fingerprint and resilience suites.
# baseband_determinism.rs sweeps ACORN_THREADS itself and asserts the
# batched packet engine (run_packets) is outcome-for-outcome bit-identical
# to the per-packet path at 1/2/8 threads; the obs_overhead gate above
# holds the companion zero-allocation claim for both paths.
for t in 1 2 8; do
    echo "-- ACORN_THREADS=$t --"
    ACORN_THREADS=$t cargo test -q --offline --release \
        --test determinism --test event_runtime --test resilience
done
cargo test -q --offline --release --test baseband_determinism

echo
echo "== benchmark tests =="
# The benchmark is a package of its own that builds against the
# workspace crates by path; its tests catch API drift that would break
# it.
cargo test --release --offline --manifest-path acornbench/Cargo.toml

echo
echo "== city-scale determinism (10k APs, sharded + memoized) =="
# The full 25x25-district composite: sharded re-allocation and the
# memoized table swept at ACORN_THREADS = 1/2/8 inside the test.
ACORN_CITY_FULL=1 cargo test -q --offline --release \
    --test determinism sharded_and_city

echo
echo "ci: all gates passed"
