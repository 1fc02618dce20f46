//! Allocation-counting training benchmark (not a criterion bench — this is a
//! plain `harness = false` binary so it can install a `#[global_allocator]`).
//!
//! Proves the zero-allocation steady state: after the warm-up epochs grow the
//! workspace to its high-water mark, a training epoch allocates (near) zero
//! heap bytes. Exits non-zero if the steady state regresses past the
//! committed ceiling, so `ci.sh` can use it as a smoke gate. Writes a
//! machine-readable summary to the path given by `--out <path>` (skipped when
//! absent, e.g. under `cargo test --benches`).

use std::sync::Arc;
use std::time::Instant;

use dace_bench::counting_alloc::{self, CountingAlloc};
use dace_bench::synthetic_training_set;
use dace_core::{TrainConfig, Trainer};
use dace_obs::{MemorySink, RunSink};
use dace_plan::Dataset;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Committed ceiling on heap bytes a steady-state epoch may allocate. The
/// residual is the small per-batch bookkeeping (`params_mut` pointer `Vec`s
/// for the optimizer step and gradient-norm telemetry); the epoch's tensor
/// work runs entirely in the reused [`dace_core::Workspace`].
const STEADY_EPOCH_ALLOC_CEILING: u64 = 64 * 1024;

const PLANS: usize = 256;
const EPOCHS: usize = 8;
/// Epochs 0–1 grow every scratch buffer to its high-water mark; steady state
/// is everything after.
const WARMUP_EPOCHS: usize = 2;

fn config() -> TrainConfig {
    TrainConfig {
        epochs: EPOCHS,
        ..TrainConfig::default()
    }
}

/// Per-epoch allocation figures for one training run over `train`:
/// (steady-state max bytes/epoch, mean steady epoch wall ms).
fn run(train: &Dataset) -> (u64, f64) {
    let sink = Arc::new(MemorySink::new());
    Trainer::with_sink(config(), sink.clone() as Arc<dyn RunSink>)
        .fit(train)
        .unwrap();
    let records: Vec<_> = sink
        .records()
        .into_iter()
        .filter(|r| r.alloc_bytes.is_some())
        .collect();
    assert!(
        records.len() >= EPOCHS,
        "expected >= {EPOCHS} epoch records with alloc_bytes, got {}",
        records.len()
    );
    let steady = &records[WARMUP_EPOCHS..];
    let max_bytes = steady.iter().filter_map(|r| r.alloc_bytes).max().unwrap();
    let mean_ms = steady.iter().map(|r| r.epoch_ms).sum::<f64>() / steady.len() as f64;
    (max_bytes, mean_ms)
}

fn main() {
    let mut out_path = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--out" {
            out_path = args.next();
        }
        // Tolerate whatever else cargo test/bench passes (--bench, filters).
    }

    dace_obs::set_alloc_probe(counting_alloc::bytes_allocated);

    let train = synthetic_training_set(PLANS, 42);

    let (workspace_bytes, workspace_ms) = run(&train);
    let samples_per_sec = PLANS as f64 / (workspace_ms / 1e3);

    // Single-plan end-to-end forward latency (featurize + workspace forward).
    let est = Trainer::new(config()).fit(&train).unwrap();
    let tree = &train.plans[0].tree;
    let reps = 2000;
    let t0 = Instant::now();
    let mut acc = 0.0f64;
    for _ in 0..reps {
        acc += est.predict_ms(tree);
    }
    let single_plan_forward_us = t0.elapsed().as_secs_f64() * 1e6 / reps as f64;
    assert!(acc.is_finite());

    println!("steady-state epoch alloc: {workspace_bytes} B");
    println!("training throughput: {samples_per_sec:.0} plans/s");
    println!("single-plan forward: {single_plan_forward_us:.1} µs");

    if let Some(path) = out_path {
        let json = format!(
            "{{\n  \"plans\": {PLANS},\n  \"epochs\": {EPOCHS},\n  \
             \"samples_per_sec\": {samples_per_sec:.1},\n  \
             \"alloc_bytes_per_epoch_workspace\": {workspace_bytes},\n  \
             \"alloc_ceiling_bytes\": {STEADY_EPOCH_ALLOC_CEILING},\n  \
             \"single_plan_forward_us\": {single_plan_forward_us:.2}\n}}\n"
        );
        std::fs::write(&path, json).expect("write BENCH_train.json");
        println!("wrote {path}");
    }

    assert!(
        workspace_bytes <= STEADY_EPOCH_ALLOC_CEILING,
        "steady-state epoch allocated {workspace_bytes} B > ceiling {STEADY_EPOCH_ALLOC_CEILING} B"
    );
}
