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
use dace_obs::hash::fnv1a64;
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
            return (b.internal(node(NodeType::Sort, cost, ms), &[left]), ms);
        }
        let (right, right_ms) = subtree(b, rng, budget - 1 - budget / 2);
        let (ty, mult) = if rng.gen_bool(0.5) {
            (NodeType::HashJoin, 0.002)
        } else {
            (NodeType::NestedLoop, 0.02)
        };
        let ms = left_ms + right_ms + cost * mult;
        (b.internal(node(ty, cost, ms), &[left, right]), ms)
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

/// FNV-1a digest of [`bytes`] after [`train`] on the "short last batch"
/// corpora, on the AVX-512 kernel tier. Any change to the arithmetic of a
/// training step (the shard sum's order, the projection, Adam, the refold)
/// moves it.
const GOLDEN_DIGEST: u64 = 0xf0db_1be4_db50_db8b;

/// Whether the matmul kernels run the tier [`GOLDEN_DIGEST`] was taken on.
/// The AVX2 and scalar tiers round differently, so there the digest is
/// not checked; the thread-count test below still holds on every tier.
fn on_the_golden_tier() -> bool {
    #[cfg(target_arch = "x86_64")]
    return std::arch::is_x86_feature_detected!("avx512f");
    #[cfg(not(target_arch = "x86_64"))]
    return false;
}

#[test]
fn training_reproduces_the_golden_weights_at_every_thread_count() {
    if !on_the_golden_tier() {
        eprintln!("no AVX-512: the golden training digest is not checked");
        return;
    }
    let (train_set, tune_set) = (corpus(150, 1), corpus(40, 2));
    for threads in THREADS {
        let digest = fnv1a64(bytes(&train(threads, &train_set, &tune_set)).as_bytes());
        assert_eq!(
            digest, GOLDEN_DIGEST,
            "{threads} threads: trained weights digest {digest:#018x}"
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
