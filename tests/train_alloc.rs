//! Allocation gate for the training loop: once the warm-up epochs have grown
//! the reused workspace to its high-water mark, a training epoch must stay
//! (near) off the heap — in pre-training and in LoRA fine-tuning alike.
//!
//! The binary installs a byte-counting `#[global_allocator]` and wires it
//! into the trainer's per-epoch `alloc_bytes` through
//! [`dace_obs::set_alloc_probe`]. The counter sees every thread in the
//! process, so this file must hold exactly one `#[test]`: a second test
//! running alongside would charge its allocations to these epochs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dace_core::{TrainConfig, Trainer};
use dace_obs::{MemorySink, RunSink};
use dace_plan::{Dataset, LabeledPlan, MachineId, NodeType, OpPayload, PlanNode, TreeBuilder};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Gross bytes requested from the allocator so far: frees are not
/// subtracted, and `realloc` counts only its growth.
static BYTES: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only an atomic
// and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(
            new_size.saturating_sub(layout.size()) as u64,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn bytes_allocated() -> u64 {
    BYTES.load(Ordering::Relaxed)
}

/// Ceiling on heap bytes a steady-state epoch may allocate: none. The
/// epoch's tensor work runs in reused [`dace_core::Workspace`]s and
/// per-run scratch, the optimizer steps each parameter group in place
/// without collecting parameter pointers, and telemetry reads the gradient
/// norm the optimizer step already computed.
const STEADY_EPOCH_ALLOC_CEILING: u64 = 0;

const PLANS: usize = 256;
const EPOCHS: usize = 8;
/// Epochs 0–1 grow every scratch buffer to its high-water mark; steady state
/// is everything after.
const WARMUP_EPOCHS: usize = 2;

fn node(ty: NodeType, est_cost: f64, est_rows: f64, actual_ms: f64, actual_rows: f64) -> PlanNode {
    let mut node = PlanNode::new(ty, OpPayload::Other);
    node.est_cost = est_cost;
    node.est_rows = est_rows;
    node.actual_ms = actual_ms;
    node.actual_rows = actual_rows;
    node
}

/// Learnable three-node corpus: a join over a sequential and an index scan,
/// whose latency depends on an operator-specific cost multiplier (hash join
/// 10× cheaper per cost unit than nested loop) the model must discover.
fn synthetic_training_set(n: usize, seed: u64) -> Dataset {
    let mut rng = SmallRng::seed_from_u64(seed);
    let plans = (0..n)
        .map(|_| {
            let cost = rng.gen_range(10.0..10_000.0f64);
            let rows = cost * rng.gen_range(5.0..15.0);
            let (join, mult) = if rng.gen_bool(0.5) {
                (NodeType::HashJoin, 0.002)
            } else {
                (NodeType::NestedLoop, 0.02)
            };
            let mut b = TreeBuilder::new();
            let scan = b.leaf(node(NodeType::SeqScan, cost, rows, cost * 0.004, rows));
            let index = b.leaf(node(
                NodeType::IndexScan,
                cost * 0.3,
                rows * 0.1,
                cost * 0.01,
                rows * 0.1,
            ));
            let root_ms = cost * 2.0 * mult + cost * 0.014;
            let root = b.internal(node(join, cost * 2.0, rows, root_ms, rows), &[scan, index]);
            LabeledPlan {
                tree: b.finish(root),
                db_id: 0,
                machine: MachineId::M1,
            }
        })
        .collect();
    Dataset::from_plans(plans)
}

/// Steady-state per-epoch allocation of one phase's records: the largest
/// after the warm-up epochs, plus every epoch's bytes.
fn steady_max(sink: &MemorySink, phase: &str) -> (u64, Vec<u64>) {
    let per_epoch: Vec<u64> = sink
        .records()
        .iter()
        .filter(|r| r.phase == phase)
        .filter_map(|r| r.alloc_bytes)
        .collect();
    assert!(
        per_epoch.len() >= EPOCHS,
        "expected >= {EPOCHS} {phase} epoch records with alloc_bytes, got {}",
        per_epoch.len()
    );
    (*per_epoch[WARMUP_EPOCHS..].iter().max().unwrap(), per_epoch)
}

#[test]
fn steady_state_training_epoch_stays_under_the_allocation_ceiling() {
    dace_obs::set_alloc_probe(bytes_allocated);
    let train = synthetic_training_set(PLANS, 42);
    let config = TrainConfig {
        epochs: EPOCHS,
        ..TrainConfig::default()
    };
    let sink = Arc::new(MemorySink::new());
    let est = Trainer::with_sink(config, sink.clone() as Arc<dyn RunSink>)
        .fit(&train)
        .unwrap();
    // LoRA fine-tuning of the fitted model runs the same loop with the
    // other half of the parameters trainable.
    let lora_sink = MemorySink::new();
    est.clone()
        .fine_tune_lora_with_sink(
            &synthetic_training_set(PLANS / 4, 43),
            EPOCHS,
            config.lr,
            Some(&lora_sink),
        )
        .unwrap();

    let (pretrain_max, pretrain) = steady_max(&sink, "pretrain");
    let (lora_max, lora) = steady_max(&lora_sink, "lora");
    // Straight to stderr, past libtest's capture, so `cargo test -q` shows
    // the measurement on a passing run too.
    let _ = writeln!(
        std::io::stderr(),
        "train_alloc: steady-state epoch allocated {pretrain_max} B pretraining, \
         {lora_max} B fine-tuning (ceiling {STEADY_EPOCH_ALLOC_CEILING} B; \
         per epoch {pretrain:?} / {lora:?})"
    );
    // The ceiling is 0 B, so staying under it means allocating nothing.
    for (phase, bytes) in [("pretraining", pretrain_max), ("fine-tuning", lora_max)] {
        assert_eq!(
            bytes, STEADY_EPOCH_ALLOC_CEILING,
            "steady-state {phase} epoch allocated {bytes} B > ceiling {STEADY_EPOCH_ALLOC_CEILING} B"
        );
    }
}
