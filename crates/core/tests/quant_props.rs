//! Quantization accuracy proptests: the int8 fast tier must stay within a
//! fixed multiplicative bound of the full-precision path over *arbitrary*
//! plan shapes — not just the training distribution.

use std::sync::OnceLock;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use dace_core::{
    DaceEstimator, PlanFeatures, QuantWorkspace, QuantizedEstimator, TrainConfig, Trainer,
};
use dace_plan::{
    ChildIds, Dataset, LabeledPlan, MachineId, NodeType, OpPayload, PlanNode, PlanTree, TreeBuilder,
};

/// The fast tier's accuracy contract, in q-error against full precision.
/// Predictions live in exp(log-ms) space, so int8 rounding in the network
/// shows up multiplicatively; the serving tests hold 1.25 in-distribution,
/// and this bound must survive adversarial plan shapes too.
const TIER_QERROR_BOUND: f64 = 1.5;

const NODE_TYPES: [NodeType; 8] = [
    NodeType::SeqScan,
    NodeType::IndexScan,
    NodeType::BitmapHeapScan,
    NodeType::NestedLoop,
    NodeType::HashJoin,
    NodeType::MergeJoin,
    NodeType::Sort,
    NodeType::HashAggregate,
];

fn training_dataset(n: usize, seed: u64) -> Dataset {
    let mut rng = SmallRng::seed_from_u64(seed);
    let plans = (0..n)
        .map(|i| {
            let mut b = TreeBuilder::new();
            let kids: Vec<_> = (0..rng.gen_range(1..=ChildIds::MAX))
                .map(|_| {
                    let mut n = PlanNode::new(NodeType::SeqScan, OpPayload::Other);
                    n.est_cost = rng.gen_range(10.0..1e4);
                    n.est_rows = rng.gen_range(1.0..1e5);
                    n.actual_ms = rng.gen_range(0.1..50.0);
                    b.leaf(n)
                })
                .collect();
            let mut root = PlanNode::new(NodeType::HashJoin, OpPayload::Other);
            root.est_cost = rng.gen_range(100.0..1e5);
            root.est_rows = rng.gen_range(1.0..1e6);
            root.actual_ms = rng.gen_range(1.0..200.0);
            let id = b.internal(root, &kids);
            LabeledPlan {
                tree: b.finish(id),
                db_id: (i % 4) as u16,
                machine: MachineId::M1,
            }
        })
        .collect();
    Dataset::from_plans(plans)
}

/// One trained estimator (and its int8 twin) shared across every property
/// case — training per case would swamp the suite.
fn tiers() -> &'static (DaceEstimator, QuantizedEstimator) {
    static TIERS: OnceLock<(DaceEstimator, QuantizedEstimator)> = OnceLock::new();
    TIERS.get_or_init(|| {
        let est = Trainer::new(TrainConfig {
            epochs: 3,
            seed: 17,
            ..Default::default()
        })
        .fit(&training_dataset(60, 17))
        .expect("training");
        let quant = QuantizedEstimator::from_estimator(&est);
        (est, quant)
    })
}

/// A random plan tree grown bottom-up: `shape` drives both structure and
/// the cost/cardinality annotations, so cases cover deep chains, bushy
/// joins, single leaves, and degenerate zero-cost nodes.
fn random_tree(shape: (u64, usize)) -> PlanTree {
    let (seed, nodes) = shape;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = TreeBuilder::new();
    let mut roots: Vec<_> = (0..nodes)
        .map(|_| {
            let mut n = PlanNode::new(
                NODE_TYPES[rng.gen_range(0..NODE_TYPES.len())],
                OpPayload::Other,
            );
            n.est_cost = if rng.gen_bool(0.1) {
                0.0
            } else {
                10f64.powf(rng.gen_range(-1.0..7.0))
            };
            n.est_rows = 10f64.powf(rng.gen_range(0.0..8.0));
            b.leaf(n)
        })
        .collect();
    while roots.len() > 1 {
        // Combine two roots per step (a node has at most two children, and
        // the forest must shrink).
        let kids: Vec<_> = roots.drain(..2).collect();
        let mut n = PlanNode::new(
            NODE_TYPES[rng.gen_range(0..NODE_TYPES.len())],
            OpPayload::Other,
        );
        n.est_cost = 10f64.powf(rng.gen_range(0.0..7.0));
        n.est_rows = 10f64.powf(rng.gen_range(0.0..8.0));
        roots.insert(0, b.internal(n, &kids));
    }
    let root = roots.pop().expect("at least one node");
    b.finish(root)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Across arbitrary plan shapes, the quantized tier's prediction is
    /// finite, positive, and within [`TIER_QERROR_BOUND`] of full precision.
    #[test]
    fn quantized_tier_stays_within_qerror_bound(
        seed in 0u64..10_000,
        nodes in 1usize..24,
    ) {
        let (est, quant) = tiers();
        let tree = random_tree((seed, nodes));
        let feats = est.featurizer.encode(&tree);
        let refs: Vec<&PlanFeatures> = vec![&feats];
        let full = est.predict_features_batch_ms(&refs)[0];
        let mut ws = QuantWorkspace::default();
        let (mut roots, mut out) = (Vec::new(), Vec::new());
        quant.predict_features_batch_ms_timed_ws(&refs, &mut ws, &mut roots, &mut out);
        let fast = out[0];
        prop_assert!(fast.is_finite() && fast > 0.0, "quantized pred degenerate: {fast}");
        let q = (fast / full).max(full / fast);
        prop_assert!(
            q < TIER_QERROR_BOUND,
            "tier divergence {q} over bound: quantized {fast} vs full {full} ({nodes} nodes)"
        );
    }
}
