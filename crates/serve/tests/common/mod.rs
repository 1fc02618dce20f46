//! Shared test support: a quickly trainable synthetic plan workload
//! (the same learnable shape `dace-core`'s tests use), and the closed-loop
//! clients for the tests that put concurrent load on a server.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use dace_core::{DaceEstimator, TrainConfig, Trainer};
use dace_plan::{
    Dataset, LabeledPlan, MachineId, NodeType, OpPayload, PlanNode, PlanTree, TreeBuilder,
};
use dace_serve::{DaceServer, ModelRegistry};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Synthetic learnable dataset: latency = f(node-type mix, est cost).
pub fn synthetic_dataset(n: usize, seed: u64) -> Dataset {
    let mut rng = SmallRng::seed_from_u64(seed);
    let plans = (0..n)
        .map(|_| {
            let mut b = TreeBuilder::new();
            let scan_cost = rng.gen_range(10.0..10_000.0f64);
            let scan_rows = scan_cost * rng.gen_range(5.0..15.0);
            let use_hash = rng.gen_bool(0.5);
            let scan = {
                let mut node = PlanNode::new(NodeType::SeqScan, OpPayload::Other);
                node.est_cost = scan_cost;
                node.est_rows = scan_rows;
                node.actual_ms = scan_cost * 0.004;
                node.actual_rows = scan_rows;
                b.leaf(node)
            };
            let scan2 = {
                let mut node = PlanNode::new(NodeType::IndexScan, OpPayload::Other);
                node.est_cost = scan_cost * 0.3;
                node.est_rows = scan_rows * 0.1;
                node.actual_ms = scan_cost * 0.01;
                node.actual_rows = scan_rows * 0.1;
                b.leaf(node)
            };
            let join_ty = if use_hash {
                NodeType::HashJoin
            } else {
                NodeType::NestedLoop
            };
            let mult = if use_hash { 0.002 } else { 0.02 };
            let root = {
                let mut node = PlanNode::new(join_ty, OpPayload::Other);
                node.est_cost = scan_cost * 2.0;
                node.est_rows = scan_rows;
                node.actual_ms = scan_cost * 2.0 * mult + scan_cost * 0.014;
                node.actual_rows = scan_rows;
                b.internal(node, &[scan, scan2])
            };
            LabeledPlan {
                tree: b.finish(root),
                db_id: 0,
                machine: MachineId::M1,
            }
        })
        .collect();
    Dataset::from_plans(plans)
}

/// A small pre-trained estimator (deterministic).
#[allow(dead_code)] // a test binary may train its own for longer
pub fn quick_estimator(seed: u64) -> (DaceEstimator, Dataset) {
    let train = synthetic_dataset(80, seed);
    (trained_estimator(&train, 4), train)
}

/// An estimator fitted to `train` for `epochs` epochs (deterministic).
pub fn trained_estimator(train: &Dataset, epochs: usize) -> DaceEstimator {
    Trainer::new(TrainConfig {
        epochs,
        ..Default::default()
    })
    .fit(train)
    .unwrap()
}

/// A registry serving `est` plus a LoRA adapter named `"tenant"`,
/// fine-tuned against an 8× slower copy of `train` (an across-machine
/// shift): the mixed traffic [`closed_loop`] sends.
#[allow(dead_code)] // not every test binary serves adapter traffic
pub fn registry_with_tenant_adapter(est: DaceEstimator, train: &Dataset) -> ModelRegistry {
    let mut shifted = train.clone();
    for p in &mut shifted.plans {
        for id in p.tree.ids().collect::<Vec<_>>() {
            p.tree.node_mut(id).actual_ms *= 8.0;
        }
    }
    let mut tuned = est.clone();
    tuned.fine_tune_lora(&shifted, 3, 2e-3).unwrap();
    let registry = ModelRegistry::new(est);
    registry
        .install_adapter("tenant", &tuned.extract_adapter())
        .unwrap();
    registry
}

/// What one [`closed_loop`] run saw from the client side.
#[allow(dead_code)]
pub struct ClosedLoop {
    pub secs: f64,
    pub answered: u64,
    pub degraded: u64,
}

/// `clients` threads each issue `requests` blocking predictions over
/// `pool`, with no deadline; every fourth request goes through the
/// `"tenant"` adapter (see [`registry_with_tenant_adapter`]).
#[allow(dead_code)]
pub fn closed_loop(
    server: &DaceServer,
    pool: &[PlanTree],
    clients: usize,
    requests: usize,
) -> ClosedLoop {
    let answered = AtomicU64::new(0);
    let degraded = AtomicU64::new(0);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for c in 0..clients {
            let (answered, degraded) = (&answered, &degraded);
            s.spawn(move || {
                for r in 0..requests {
                    let tree = &pool[(c * 7 + r) % pool.len()];
                    let adapter = ((c + r) % 4 == 0).then_some("tenant");
                    if let Ok(pred) = server.predict_with(tree, adapter, None) {
                        answered.fetch_add(1, Ordering::Relaxed);
                        if pred.degraded {
                            degraded.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    ClosedLoop {
        secs: t0.elapsed().as_secs_f64(),
        answered: answered.load(Ordering::Relaxed),
        degraded: degraded.load(Ordering::Relaxed),
    }
}

/// The trees of a dataset, for tests that submit plans rather than
/// labeled plans.
#[allow(dead_code)]
pub fn trees(data: &Dataset) -> Vec<PlanTree> {
    data.plans.iter().map(|p| p.tree.clone()).collect()
}
