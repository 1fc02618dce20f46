#!/usr/bin/env bash
# Offline CI gate: everything here must pass with no network access
# (all dependencies are vendored under vendor/ — see README "Offline builds").
#
#   ./ci.sh         # full gate: build, tests, clippy, fmt, rustdoc, plansearch and perfbench smoke
#   ./ci.sh quick   # tier-1 only: release build + root test suite
#
# The root suite includes the training-epoch allocation gate
# (tests/train_alloc.rs, a counting global allocator).
#
# The serving system's gates (closed-loop serving, observability, health
# plane, chaos, sharding, tenant isolation, adaptation, and the wall-clock
# gates in crates/serve/tests/timed_gates.rs) run inside the workspace tests.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> build (release)"
cargo build --release

echo "==> test (root package)"
cargo test -q

if [[ "${1:-}" == "quick" ]]; then
    echo "ci.sh quick: OK"
    exit 0
fi

# The root package ran above; every other workspace member runs here, so
# each test runs once.
echo "==> test (workspace)"
cargo test --workspace --exclude dace-repro -q

echo "==> clippy"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> fmt"
cargo fmt --all --check

# Rustdoc gate: every intra-doc link must resolve. The crates are listed
# rather than `--workspace`, which would also document the vendored
# offline stand-ins and fail on their own links.
echo "==> rustdoc"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline -q \
    -p dace-plan -p dace-catalog -p dace-query -p dace-engine -p dace-nn \
    -p dace-core -p dace-obs -p dace-serve -p dace-baselines -p dace-eval \
    -p dace-repro

# Scratch space for the smokes' JSON reports below.
OBS_TMP=$(mktemp -d)
trap 'rm -rf "$OBS_TMP"' EXIT

# Plan-search smoke: put DACE inside the optimizer on a 3-database suite
# (train, search with the learned scorer, execute every pick) and gate on
# the subsystem's contract. plansearch itself exits non-zero on violation;
# the emitted JSON is re-asserted here: the sub-plan memo shared work,
# DACE-picked plans didn't regress total executed latency by more than 5%
# against the analytic picks, and the router routed every query.
echo "==> plansearch smoke"
cargo run --release -q -p dace-eval --bin plansearch -- --smoke --json \
    >"$OBS_TMP/plansearch.json"
jq -e '.scoring.memo_hit_rate > 0
       and .learned_total_ms <= .analytic_total_ms * 1.05
       and .routing.routed_queries > 0
       and .routing.routed_queries == .queries' \
    "$OBS_TMP/plansearch.json" >/dev/null \
    || { echo "FAIL: plansearch smoke out of bounds"; cat "$OBS_TMP/plansearch.json"; exit 1; }

# Benchmark smoke: perfbench's helper tests, then every workload for one
# second. perfbench exits non-zero when any output check fails — every
# served value must match the offline reference to 1e-9, every search pick
# must repeat across passes, training must be finite and deterministic — so
# the short runs gate the benchmark's correctness, not its timings.
echo "==> perfbench tests"
cargo test --release --offline --manifest-path perfbench/Cargo.toml
echo "==> perfbench smoke"
for workload in serve plan_search train; do
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seconds 1 --trace 0 >"$OBS_TMP/perfbench-$workload.txt" \
        || { echo "FAIL: perfbench $workload"; tail -5 "$OBS_TMP/perfbench-$workload.txt"; exit 1; }
done

echo "ci.sh: OK"
