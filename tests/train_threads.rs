//! Training is bit-identical at any thread count.
//!
//! `Trainer::fit` and `DaceEstimator::fine_tune_lora` split every
//! mini-batch into fixed plan shards, compute the shards' gradients on
//! `TrainConfig::threads` threads and sum them in shard order. So 1, 2 and
//! 3 threads must give byte-identical estimators (`to_json`, with the
//! `threads` field itself set equal) and identical predictions. The corpora
//! cover a last batch shorter than the others (with a short last shard)
//! and a whole corpus smaller than one shard.

use dace_core::{DaceEstimator, TrainConfig, Trainer};
use dace_plan::{
    Dataset, LabeledPlan, MachineId, NodeId, NodeType, OpPayload, PlanNode, PlanTree, TreeBuilder,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const THREADS: [usize; 3] = [1, 2, 3];

/// A random labeled tree of 1–7 nodes whose latency follows its estimated
/// cost with an operator-dependent factor.
fn random_plan(rng: &mut SmallRng) -> PlanTree {
    fn subtree(b: &mut TreeBuilder, rng: &mut SmallRng, budget: usize) -> (NodeId, f64) {
        let cost = rng.gen_range(10.0..5_000.0f64);
        let rows = cost * rng.gen_range(1.0..20.0);
        let node = |ty: NodeType, cost: f64, ms: f64| {
            let mut n = PlanNode::new(ty, OpPayload::Other);
            n.est_cost = cost;
            n.est_rows = rows;
            n.actual_ms = ms;
            n.actual_rows = rows;
            n
        };
        if budget <= 1 {
            let ty = [NodeType::SeqScan, NodeType::IndexScan][rng.gen_range(0..2)];
            let ms = cost * if ty == NodeType::SeqScan { 0.004 } else { 0.01 };
            return (b.leaf(node(ty, cost, ms)), ms);
        }
        let (left, left_ms) = subtree(b, rng, budget / 2);
        if budget == 2 {
            let ms = left_ms + cost * 0.006;
            return (b.internal(node(NodeType::Sort, cost, ms), vec![left]), ms);
        }
        let (right, right_ms) = subtree(b, rng, budget - 1 - budget / 2);
        let (ty, mult) = if rng.gen_bool(0.5) {
            (NodeType::HashJoin, 0.002)
        } else {
            (NodeType::NestedLoop, 0.02)
        };
        let ms = left_ms + right_ms + cost * mult;
        (b.internal(node(ty, cost, ms), vec![left, right]), ms)
    }
    let mut b = TreeBuilder::new();
    let budget = rng.gen_range(1..=7);
    let (root, _) = subtree(&mut b, rng, budget);
    b.finish(root)
}

fn corpus(n: usize, seed: u64) -> Dataset {
    let mut rng = SmallRng::seed_from_u64(seed);
    Dataset::from_plans(
        (0..n)
            .map(|_| LabeledPlan {
                tree: random_plan(&mut rng),
                db_id: 0,
                machine: MachineId::M1,
            })
            .collect(),
    )
}

/// Fit on `train`, then LoRA fine-tune on `tune`, with `threads` threads.
fn train(threads: usize, train: &Dataset, tune: &Dataset) -> DaceEstimator {
    let config = TrainConfig {
        epochs: 3,
        threads,
        ..TrainConfig::default()
    };
    let mut est = Trainer::new(config).fit(train).unwrap();
    est.fine_tune_lora(tune, 3, config.lr).unwrap();
    est
}

/// The estimator's bytes with its thread setting normalized.
fn bytes(est: &DaceEstimator) -> String {
    let mut est = est.clone();
    est.config.threads = 0;
    est.to_json()
}

fn assert_thread_count_invariant(name: &str, train_set: &Dataset, tune_set: &Dataset) {
    let test = corpus(40, 99);
    let trees: Vec<&PlanTree> = test.plans.iter().map(|p| &p.tree).collect();
    let runs: Vec<(usize, DaceEstimator)> = THREADS
        .iter()
        .map(|&t| (t, train(t, train_set, tune_set)))
        .collect();
    let (_, first) = &runs[0];
    let want_json = bytes(first);
    let want_ms = first.predict_batch_ms(&trees);
    for (threads, est) in &runs[1..] {
        assert!(
            bytes(est) == want_json,
            "{name}: {threads} threads trained different weights than 1"
        );
        let got_ms = est.predict_batch_ms(&trees);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&got_ms),
            bits(&want_ms),
            "{name}: {threads} threads predict differently than 1"
        );
    }
}

#[test]
fn weights_and_predictions_do_not_depend_on_the_thread_count() {
    // 150 plans in 64-plan batches: 64, 64, 22, so the last batch is short
    // and its second shard holds 6 plans; 40 tuning plans make one batch of
    // shards 16, 16, 8.
    assert_thread_count_invariant("short last batch", &corpus(150, 1), &corpus(40, 2));
    // 10 plans: one batch smaller than one shard, so no helper thread runs.
    assert_thread_count_invariant("batch below a shard", &corpus(10, 3), &corpus(7, 4));
}
