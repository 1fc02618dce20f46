#!/usr/bin/env bash
# Offline CI gate: everything here must pass with no network access
# (all dependencies are vendored under vendor/ — see README "Offline builds").
#
#   ./ci.sh         # full gate: build, tests, clippy, fmt, bench and perfbench smoke
#   ./ci.sh quick   # tier-1 only: release build + root test suite
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

echo "==> test (workspace)"
cargo test --workspace -q

echo "==> clippy"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> fmt"
cargo fmt --all --check

# Serve smoke: drive the online serving path end to end (8 clients × 20
# requests, micro-batched). serve_bench exits non-zero if any request is
# shed or the metrics snapshot comes back incomplete.
echo "==> serve smoke"
cargo run --release -q -p dace-eval --bin serve_bench -- --smoke

# Observability smoke: a 2-epoch training run must emit a parseable JSONL
# run manifest (one record per epoch with the expected keys), the serve
# registry's Prometheus export must carry the serve_* metric families, and
# the flight-recorder trace (drained after server shutdown, so the flush
# cannot race live workers) must come back as a non-empty event array.
echo "==> obs smoke"
OBS_TMP=$(mktemp -d)
trap 'rm -rf "$OBS_TMP"' EXIT
cargo run --release -q -p dace-eval --bin serve_bench -- --smoke --epochs 2 \
    --manifest "$OBS_TMP/manifest.jsonl" --prom "$OBS_TMP/metrics.prom" \
    --trace "$OBS_TMP/trace.json"
jq -es 'length >= 2
        and all(.[]; has("phase") and has("epoch") and has("train_loss")
                     and has("grad_norm") and has("lr") and has("epoch_ms")
                     and has("early_stop"))
        and (map(select(.phase == "pretrain")) | length >= 2)
        and (map(select(.phase == "lora")) | length >= 1)' \
    "$OBS_TMP/manifest.jsonl" >/dev/null \
    || { echo "FAIL: run manifest malformed"; exit 1; }
grep -q 'serve_e2e_us{quantile="0.5"}' "$OBS_TMP/metrics.prom" \
    || { echo "FAIL: Prometheus export missing serve_e2e_us quantiles"; exit 1; }
grep -q '^serve_completed_total ' "$OBS_TMP/metrics.prom" \
    || { echo "FAIL: Prometheus export missing serve counters"; exit 1; }
jq -e 'length > 0 and all(.[]; has("name") and has("ts") and has("pid"))' \
    "$OBS_TMP/trace.json" >/dev/null \
    || { echo "FAIL: smoke trace empty or malformed"; exit 1; }

# Health smoke: the estimator health plane end to end. serve_bench
# --introspect drives a mini observe→retrain→swap run against a server with
# a durable journal, SLO burn-rate tracking and a live introspection
# endpoint, hits /health, /metrics, /events, /version and /trace through
# its in-process HTTP client (no curl), and injects a breaker-open window
# that must flip /health to "degraded" and auto-dump a diagnostic bundle.
# The binary exits non-zero on any violated gate; the journal tail and the
# report JSON are re-asserted here: at least one SwapPromoted record, a
# burn-rate Alert carrying both window burns and the threshold, an intact
# causal trace from DriftTripped through SwapPromoted into the flight
# recorder, and introspection-enabled throughput within 3% of the disabled
# baseline.
echo "==> health smoke"
cargo run --release -q -p dace-eval --bin serve_bench -- \
    --introspect --smoke --json --events "$OBS_TMP/events.json" \
    >"$OBS_TMP/health.json"
jq -e '(map(.event | objects | keys[0] | select(. == "SwapPromoted")) | length >= 1)
       and (map(.event.Alert? | select(. != null)) | length >= 1)
       and (map(.event.Alert? | select(. != null))
            | all(has("fast_burn") and has("slow_burn") and has("threshold")))' \
    "$OBS_TMP/events.json" >/dev/null \
    || { echo "FAIL: journal tail missing swap/alert records"; cat "$OBS_TMP/events.json"; exit 1; }
jq -e '.drift_trips >= 1
       and .swaps_promoted >= 1
       and .probation_passed >= 1
       and .trace_match and .trace_in_recorder
       and .alerts >= 1
       and .alert_fast_burn > .alert_threshold
       and .alert_slow_burn > .alert_threshold
       and .health_ok_seen and .health_degraded_seen
       and .breaker_opened_journaled
       and .bundles_dumped >= 1
       and .endpoints_ok
       and .throughput_ratio >= 0.97' \
    "$OBS_TMP/health.json" >/dev/null \
    || { echo "FAIL: health smoke out of bounds"; cat "$OBS_TMP/health.json"; exit 1; }

# Chaos smoke: run the serving path under a fixed seeded fault plan (1%
# worker kills, 1% batch panics, 0.5% checkpoint corruption) with a
# circuit-broken fallback estimator. serve_bench itself exits non-zero on
# any contract violation; the emitted JSON is re-asserted here: ≥99% of
# requests answered (degraded answers count, shed does not), the worker
# pool never dies, every degraded answer is flagged and counted, and the
# corrupted-checkpoint rejection path fired.
echo "==> chaos smoke"
cargo run --release -q -p dace-eval --bin serve_bench -- \
    --chaos --smoke --json --chaos-seed 3405 >"$OBS_TMP/chaos.json"
jq -e '.availability >= 0.99
       and .pool_exhausted == 0
       and .completed == .requests
       and .degraded <= .completed
       and .checkpoint_rejects >= 1' \
    "$OBS_TMP/chaos.json" >/dev/null \
    || { echo "FAIL: chaos smoke out of bounds"; cat "$OBS_TMP/chaos.json"; exit 1; }

# Sharding smoke: the sharded scheduler plus the quantized fast tier.
# serve_bench --shards exits non-zero itself on any violated gate
# (per-shard completion parity > 1.25 in the saturated parity pass, a
# lost or duplicated request under work-stealing, zero steals under
# forced imbalance, the quantized tier outside its q-error bound, or —
# only on machines with at least as many cores as shards — 1→4 shard
# scaling below 3×); the emitted JSON is re-asserted here.
echo "==> sharding smoke"
cargo run --release -q -p dace-eval --bin serve_bench -- \
    --shards 4 --smoke --json >"$OBS_TMP/sharding.json"
jq -e '.parity_ratio <= 1.25
       and .steal_lost == 0
       and .steal_answered == .steal_requests
       and .steal_count >= 1
       and .quantized_max_qerror < 1.5
       and ((.scaling_gated | not) or .scaling_1_to_max >= 3.0)' \
    "$OBS_TMP/sharding.json" >/dev/null \
    || { echo "FAIL: sharding smoke out of bounds"; cat "$OBS_TMP/sharding.json"; exit 1; }

# Tenants smoke: the multi-tenant isolation gate. serve_bench --tenants
# exits non-zero itself on any violated gate (per-tenant p99 fairness
# spread over 3× among equal-weight tenants, any cross-tenant
# featurization-cache hit, well-behaved availability under 99% while one
# tenant floods at 10× its quota, a cold-tenant request shed instead of
# answered zero-shot, an unbounded adapter hot set, or a dead fault
# site); the emitted JSON is re-asserted here. The committed isolation
# record results/tenants.md comes from the full (non-smoke) run.
echo "==> tenants smoke"
cargo run --release -q -p dace-eval --bin serve_bench -- \
    --tenants --smoke --json >"$OBS_TMP/tenants.json"
jq -e '.fairness.p99_spread <= 3
       and .fairness.gated_tenants >= 2
       and .bleed.cross_tenant_hits == 0
       and .bleed.first_pass_misses == (.bleed.tenants * .bleed.plans_per_tenant)
       and .noisy.well_behaved_availability >= 0.99
       and .noisy.quota_rejected >= 1
       and .noisy.well_behaved_shed == 0
       and .paging.unanswered == 0
       and .paging.cold_all_degraded
       and .paging.adapter_evictions >= 1
       and .paging.injected_corrupt_failures >= 1' \
    "$OBS_TMP/tenants.json" >/dev/null \
    || { echo "FAIL: tenants smoke out of bounds"; cat "$OBS_TMP/tenants.json"; exit 1; }

# Adaptive smoke: run the observe→retrain→swap loop end to end (clean
# traffic → sustained 6× drift → background retrain → shadow eval →
# checkpointed promotion → probation), plus a sabotaged sub-run whose
# garbage candidate must be rejected. serve_bench itself exits non-zero on
# any contract violation; the emitted JSON is re-asserted here: drift was
# detected, exactly the clean run's retrain promoted a new version,
# post-swap q-error p90 recovered to within 1.2× of the pre-drift p90, no
# probation rollback fired on the clean run, and the sabotaged candidate
# never published.
echo "==> adaptive smoke"
cargo run --release -q -p dace-eval --bin serve_bench -- \
    --adaptive --smoke --json >"$OBS_TMP/adaptive.json"
jq -e '.drift_trips >= 1
       and .retrains_succeeded >= 1
       and .promotions >= 1
       and .versions_after > .versions_before
       and .rollbacks == 0
       and .post_q_p90 <= .pre_q_p90 * 1.2
       and .sabotage_rejections >= 1
       and .sabotage_promotions == 0' \
    "$OBS_TMP/adaptive.json" >/dev/null \
    || { echo "FAIL: adaptive smoke out of bounds"; cat "$OBS_TMP/adaptive.json"; exit 1; }

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

# Bench smoke: compile and run each bench once in test mode (no sampling);
# catches bit-rot in the criterion harness wiring without the full run.
echo "==> bench smoke"
cargo test --benches -p dace-bench -q

# Allocation smoke: the counting-allocator bench must show a steady-state
# training epoch allocating under its committed ceiling (the binary asserts
# the ceiling itself); the emitted JSON is additionally sanity-checked here.
echo "==> alloc smoke"
cargo bench -q -p dace-bench --bench train_alloc -- --out "$OBS_TMP/bench_train.json"
jq -e '.samples_per_sec > 0
       and .alloc_bytes_per_epoch_workspace <= .alloc_ceiling_bytes
       and .single_plan_forward_us > 0' \
    "$OBS_TMP/bench_train.json" >/dev/null \
    || { echo "FAIL: BENCH_train.json out of bounds"; exit 1; }

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
