//! Root-row inference equivalence: the batched root-latency path
//! (`DaceModel::predict_roots_timed_ws`, which folds attention to the root
//! row) must agree with the all-rows reference (`DaceModel::predict_root`)
//! to f32 rounding on arbitrary plan shapes and masks, and a plan's score
//! must be bit-identical alone and inside any mixed-size batch — the search
//! memo and the serve feature cache both reuse a score computed in one
//! batch for a plan seen in another.

use std::sync::OnceLock;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use dace_core::{DaceEstimator, DaceModel, Featurizer, PlanFeatures, TrainConfig, Trainer};
use dace_nn::Workspace;
use dace_plan::{
    Dataset, LabeledPlan, MachineId, NodeType, OpPayload, PlanNode, PlanTree, TreeBuilder,
};

/// Largest allowed |Δ ln ms| between the root-row and all-rows passes.
const LN_MS_TOLERANCE: f32 = 1e-5;

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

/// A random plan tree grown bottom-up from `seed`: `nodes` leaves merged
/// under random operators until one root remains, so shapes range from a
/// single leaf to deep chains and bushy joins.
fn random_tree(seed: u64, nodes: usize) -> PlanTree {
    let mut rng = SmallRng::seed_from_u64(seed);
    let node = |rng: &mut SmallRng| {
        let mut n = PlanNode::new(
            NODE_TYPES[rng.gen_range(0..NODE_TYPES.len())],
            OpPayload::Other,
        );
        n.est_cost = 10f64.powf(rng.gen_range(-1.0..7.0));
        n.est_rows = 10f64.powf(rng.gen_range(0.0..8.0));
        n.actual_ms = 10f64.powf(rng.gen_range(-2.0..3.0));
        n
    };
    let mut b = TreeBuilder::new();
    let mut roots: Vec<_> = (0..nodes).map(|_| b.leaf(node(&mut rng))).collect();
    while roots.len() > 1 {
        let take = rng.gen_range(1..=3usize).min(roots.len());
        let kids: Vec<_> = roots.drain(..take).collect();
        let parent = node(&mut rng);
        roots.insert(0, b.internal(parent, kids));
    }
    b.finish(roots[0])
}

/// One briefly trained estimator shared by every case.
fn estimator() -> &'static DaceEstimator {
    static EST: OnceLock<DaceEstimator> = OnceLock::new();
    EST.get_or_init(|| {
        let plans = (0..60)
            .map(|i| LabeledPlan {
                tree: random_tree(1000 + i, 1 + (i as usize % 9)),
                db_id: 0,
                machine: MachineId::M1,
            })
            .collect();
        Trainer::new(TrainConfig {
            epochs: 3,
            seed: 5,
            ..Default::default()
        })
        .fit(&Dataset::from_plans(plans))
        .expect("training")
    })
}

/// Root log-latencies of `feats` scored as one root-row batch.
fn root_row(model: &DaceModel, feats: &[&PlanFeatures]) -> Vec<f32> {
    let mut ws = Workspace::new();
    let mut out = Vec::new();
    model.predict_roots_timed_ws(feats, &mut ws, &mut out);
    out
}

/// `feats` with the root's mask row replaced by a non-interval pattern
/// (every other position, root included), forcing the dense fallback.
fn non_interval(feats: &PlanFeatures) -> PlanFeatures {
    let mut f = feats.clone();
    for (j, m) in f.mask[..feats.x.rows()].iter_mut().enumerate() {
        *m = j % 2 == 0;
    }
    f
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn root_row_matches_all_rows_and_is_batch_invariant(
        shapes in proptest::collection::vec((0u64..u64::MAX, 1usize..=24), 1..=40),
        rotate in 0usize..40,
    ) {
        let est = estimator();
        let full = Featurizer {
            config: dace_core::FeatureConfig {
                disable_tree_attention: true,
                ..est.featurizer.config
            },
            ..est.featurizer.clone()
        };
        // Tree masks, full masks (DACE w/o tree attention) and one
        // hand-built non-interval mask, interleaved into one mixed batch.
        let mut feats: Vec<PlanFeatures> = Vec::new();
        for (i, &(seed, nodes)) in shapes.iter().enumerate() {
            let tree = random_tree(seed, nodes);
            feats.push(if i % 3 == 1 {
                full.encode(&tree)
            } else {
                est.featurizer.encode(&tree)
            });
        }
        if let Some(f) = feats.iter().position(|f| f.x.rows() >= 3) {
            feats[f] = non_interval(&feats[f]);
        }
        let len = feats.len();
        feats.rotate_left(rotate % len);
        let refs: Vec<&PlanFeatures> = feats.iter().collect();

        let batched = root_row(&est.model, &refs);
        prop_assert_eq!(batched.len(), refs.len());
        for (i, f) in refs.iter().enumerate() {
            let reference = est.model.predict_root(f);
            prop_assert!(
                (batched[i] - reference).abs() <= LN_MS_TOLERANCE,
                "plan {} ({} nodes): root-row {} vs all-rows {}",
                i, f.x.rows(), batched[i], reference
            );
            let alone = root_row(&est.model, &[f])[0];
            prop_assert_eq!(
                alone.to_bits(),
                batched[i].to_bits(),
                "plan {} scored {} alone but {} in a batch of {}",
                i, alone, batched[i], refs.len()
            );
        }
        // The estimator's chunked entry point sees the same scores.
        let ms = est.predict_features_batch_ms(&refs);
        for (m, &r) in ms.iter().zip(&batched) {
            prop_assert_eq!(m.to_bits(), Featurizer::to_ms(r).to_bits());
        }
    }
}
