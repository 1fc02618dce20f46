//! Property tests for hostile-input hardening: arbitrary adversarial plan
//! trees — NaN/Inf/negative cost and cardinality estimates, degenerate
//! single-node plans, pathologically deep chains — fed through the full
//! prediction path must never panic and never produce a non-finite
//! prediction. Admission-time `validate_plan` is the first line of
//! defense; this suite proves the model itself survives anything that
//! slips past it (defense in depth).

use dace_core::{DaceEstimator, TrainConfig, Trainer};
use dace_plan::{
    validate_plan, Dataset, LabeledPlan, MachineId, NodeType, OpPayload, PlanNode, PlanTree,
    TreeBuilder, DEFAULT_MAX_PLAN_DEPTH,
};
use proptest::prelude::*;
use std::sync::OnceLock;

fn trained() -> &'static DaceEstimator {
    static EST: OnceLock<DaceEstimator> = OnceLock::new();
    EST.get_or_init(|| {
        let plans = (0..24)
            .map(|i| {
                let cost = 50.0 + 41.0 * i as f64;
                let mut b = TreeBuilder::new();
                let mut node = PlanNode::new(NodeType::SeqScan, OpPayload::Other);
                node.est_cost = cost;
                node.est_rows = cost * 4.0;
                node.actual_ms = cost * 0.005;
                node.actual_rows = cost * 4.0;
                let root = b.leaf(node);
                LabeledPlan {
                    tree: b.finish(root),
                    db_id: 0,
                    machine: MachineId::M1,
                }
            })
            .collect();
        Trainer::new(TrainConfig {
            epochs: 1,
            ..Default::default()
        })
        .fit(&Dataset::from_plans(plans))
        .unwrap()
    })
}

/// The pool of hostile estimate values a node can carry.
fn hostile_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(-1.0),
        Just(-1e300),
        Just(0.0),
        Just(1e308),
        1.0f64..1e6, // benign values mixed in
    ]
}

/// A hostile plan: a random left-leaning tree of `depth` internal nodes,
/// every node's cost/rows drawn from the hostile pool.
fn hostile_plan() -> impl Strategy<Value = PlanTree> {
    (
        1usize..12,
        proptest::collection::vec((hostile_value(), hostile_value()), 12),
        proptest::collection::vec(0usize..4, 12),
    )
        .prop_map(|(depth, vals, types)| {
            let ty = |i: usize| match types[i] {
                0 => NodeType::SeqScan,
                1 => NodeType::HashJoin,
                2 => NodeType::Sort,
                _ => NodeType::IndexScan,
            };
            let mut b = TreeBuilder::new();
            let mut node = PlanNode::new(ty(0), OpPayload::Other);
            node.est_cost = vals[0].0;
            node.est_rows = vals[0].1;
            let mut cur = b.leaf(node);
            for (i, &(cost, rows)) in vals.iter().enumerate().take(depth).skip(1) {
                let mut node = PlanNode::new(ty(i), OpPayload::Other);
                node.est_cost = cost;
                node.est_rows = rows;
                cur = b.internal(node, &[cur]);
            }
            b.finish(cur)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The full batch prediction path over hostile trees: no panic, every
    /// output finite. (`safe_log1p` in the featurizer is what makes the
    /// NaN/Inf cases hold.)
    #[test]
    fn hostile_plans_predict_finite(plans in proptest::collection::vec(hostile_plan(), 1..6)) {
        let est = trained();
        let refs: Vec<&PlanTree> = plans.iter().collect();
        let preds = est.predict_batch_ms(&refs);
        prop_assert_eq!(preds.len(), plans.len());
        for p in preds {
            prop_assert!(p.is_finite(), "hostile plan produced non-finite prediction {p}");
        }
    }

    /// `validate_plan` agrees with itself: hostile numeric estimates are
    /// flagged, and a plan it accepts genuinely has finite estimates.
    #[test]
    fn validate_plan_is_sound_on_hostile_trees(tree in hostile_plan()) {
        match validate_plan(&tree, DEFAULT_MAX_PLAN_DEPTH) {
            Ok(()) => {
                for id in tree.ids() {
                    prop_assert!(tree.node(id).est_cost.is_finite());
                    prop_assert!(tree.node(id).est_rows.is_finite());
                }
            }
            Err(e) => {
                // Typed rejection; rendering it must not panic either.
                let _ = e.to_string();
            }
        }
    }
}

#[test]
fn deep_chain_predicts_finite_without_overflow() {
    let est = trained();
    let mut b = TreeBuilder::new();
    let mut node = PlanNode::new(NodeType::SeqScan, OpPayload::Other);
    node.est_cost = 100.0;
    node.est_rows = 1000.0;
    let mut cur = b.leaf(node);
    for _ in 0..300 {
        let mut node = PlanNode::new(NodeType::Materialize, OpPayload::Other);
        node.est_cost = 10.0;
        node.est_rows = 1000.0;
        cur = b.internal(node, &[cur]);
    }
    let tree = b.finish(cur);
    // Deeper than the default serving depth limit would admit…
    assert!(validate_plan(&tree, 256).is_err());
    // …but the model still handles it without recursion blowups.
    let p = est.predict_ms(&tree);
    assert!(p.is_finite());
}
