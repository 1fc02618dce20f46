//! Property tests for the batched training path: packing a mini-batch of
//! plans into one block-diagonal forward/backward pass must be equivalent
//! to running each plan through the same passes as a one-plan batch — for
//! the forward pass and for the accumulated gradient — up to floating-point
//! summation order (asserted at 1e-4).

use dace_core::{DaceModel, LossAdjuster, PackedBatch, PlanFeatures, FEATURE_DIM};
use dace_nn::Tensor2;
use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Build a random plan: a tree over `n` nodes in DFS preorder, with each
/// node's sub-plan as its span, its depth as its height, and random
/// features/targets.
fn random_plan(n: usize, seed: u64) -> PlanFeatures {
    let mut rng = SmallRng::seed_from_u64(seed);
    let x = Tensor2::uniform(n, FEATURE_DIM, 1.0, seed ^ 0xFEA7);
    // In preorder a node is the root (depth 0) or sits at most one level
    // below the node before it; any such depth sequence is a tree.
    let mut heights = vec![0u32; n];
    for i in 1..n {
        heights[i] = rng.gen_range(1..=heights[i - 1] + 1);
    }
    // A node's sub-plan runs up to the next node at its depth or above.
    let spans = (0..n)
        .map(|i| {
            (
                i,
                (i + 1..n).find(|&j| heights[j] <= heights[i]).unwrap_or(n),
            )
        })
        .collect();
    let targets: Vec<f32> = (0..n).map(|_| rng.gen_range(-2.0f32..6.0)).collect();
    PlanFeatures {
        x,
        spans,
        heights,
        targets,
    }
}

fn plan_strategy() -> impl Strategy<Value = PlanFeatures> {
    (1usize..=6, 0u64..1_000_000).prop_map(|(n, seed)| random_plan(n, seed))
}

/// Sum of every parameter gradient, flattened in parameter order.
fn flat_grads(model: &mut DaceModel) -> Vec<f32> {
    model
        .params_mut()
        .iter()
        .flat_map(|p| p.grad.as_slice().to_vec())
        .collect()
}

/// The per-plan oracle: `f` alone as a one-plan batch through the training
/// forward pass, returning its per-node predictions.
fn forward_one(model: &mut DaceModel, f: &PlanFeatures) -> Vec<f32> {
    model.forward_batch_compact(&PackedBatch::pack(&[f]).unwrap());
    model.batch_preds().as_slice().to_vec()
}

proptest! {
    #[test]
    fn batched_forward_matches_per_plan_forwards(
        plans in vec(plan_strategy(), 1..=4),
        seed in 0u64..1_000,
    ) {
        let mut model = DaceModel::new(seed);
        let refs: Vec<&PlanFeatures> = plans.iter().collect();
        let packed = PackedBatch::pack(&refs).unwrap();
        let mut batched = model.clone();
        batched.forward_batch_compact(&packed);
        let preds = batched.batch_preds();
        let mut row = 0;
        for (b, f) in plans.iter().enumerate() {
            let single = forward_one(&mut model, f);
            for (r, want) in single.iter().enumerate() {
                let got = preds.get(row + r, 0);
                prop_assert!(
                    (got - want).abs() < 1e-4,
                    "plan {b} row {r}: batched {got} vs single {want}"
                );
            }
            row += single.len();
        }
    }

    #[test]
    fn batched_gradient_matches_accumulated_per_plan(
        plans in vec(plan_strategy(), 1..=4),
        seed in 0u64..1_000,
    ) {
        let adjuster = LossAdjuster::new(0.5);
        let count = plans.len() as f32;

        // Reference: one backward per one-plan batch, gradients scaled by
        // 1/B accumulate in the parameters.
        let mut per_plan = DaceModel::new(seed);
        for f in &plans {
            let preds = forward_one(&mut per_plan, f);
            let (_, grad) = adjuster.loss_and_grad(&preds, &f.targets, &f.heights);
            let d: Vec<f32> = grad.iter().map(|g| g / count).collect();
            per_plan.backward_compact(&Tensor2::from_vec(d.len(), 1, d));
        }
        let want = flat_grads(&mut per_plan);

        // Batched: one block-diagonal forward/backward over the packed
        // batch, per-plan loss normalization applied per block.
        let mut batched = DaceModel::new(seed);
        let refs: Vec<&PlanFeatures> = plans.iter().collect();
        let packed = PackedBatch::pack(&refs).unwrap();
        batched.forward_batch_compact(&packed);
        let preds = batched.batch_preds();
        let mut d = Tensor2::zeros(preds.rows(), 1);
        let mut start = 0;
        for &n in &packed.lens {
            let rows = start..start + n;
            let wsum: f32 = rows
                .clone()
                .map(|r| adjuster.weight(packed.heights[r]))
                .sum::<f32>()
                .max(1e-12);
            for r in rows {
                let w = adjuster.weight(packed.heights[r]);
                let err = preds.get(r, 0) - packed.targets[r];
                d.set(r, 0, 2.0 * w * err / wsum / count);
            }
            start += n;
        }
        batched.backward_compact(&d);
        let got = flat_grads(&mut batched);

        prop_assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            prop_assert!(
                (g - w).abs() < 1e-4 * (1.0 + w.abs()),
                "grad[{i}]: batched {g} vs per-plan {w}"
            );
        }
    }
}
