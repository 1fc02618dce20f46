//! Training on the fold is exact: the all-rows forward and backward that
//! `DaceModel::forward_batch_compact` / `backward_compact` run in the
//! 18-dimensional folded algebra must match the unfolded network — 128-wide
//! Q/K/V attention (`MaskedSelfAttention::forward_packed_ws` /
//! `backward_params_ws`) feeding three LoRA layers applied as
//! `x·W + (x·B)·A + b` — to f32 rounding, in predictions and in every
//! parameter gradient, in both LoRA modes.
//!
//! The trainer computes a mini-batch's gradient as plan shards, each one's
//! fold-space gradients summed in shard order before one projection onto
//! the parameters (`DaceModel::backward_shards` runs the same steps
//! serially). That sum must match the unfolded network's gradient to the
//! same tolerance. The unfolded network is block-diagonal per plan, so its
//! whole-batch gradient is the sum of its shards' gradients. The reference
//! sums them in shard order, as the trainer does: a bias gradient is a
//! plain sum of signed rows that can cancel to a tiny value, and regrouping
//! that sum alone can move it by more than 1e-4 of itself.
//!
//! The fold is cached inside the model, so the file also checks that the
//! training forward refolds after an optimizer step and after a
//! fine-tuning run: its next predictions must equal, bit for bit, those of
//! a freshly deserialized copy.

use dace_core::{
    DaceEstimator, DaceModel, PackedBatch, PlanFeatures, TrainConfig, Trainer, FEATURE_DIM,
};
use dace_nn::{Adam, AttnScratch, LoraMode, MaskedSelfAttention, Param, Tensor2, MASK_NEG};
use dace_plan::{Dataset, LabeledPlan, MachineId, NodeType, OpPayload, PlanNode, TreeBuilder};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Largest allowed |Δ ln ms| between folded and unfolded predictions.
const LN_MS_TOLERANCE: f32 = 1e-5;
/// Largest allowed max-norm gradient error, relative to the reference
/// gradient's max-norm, per parameter tensor.
const GRAD_RELATIVE_TOLERANCE: f32 = 1e-4;
/// A hidden ReLU pre-activation this close to zero (relative to its
/// layer's largest) may fall on either side of the kink under the two
/// summation orders, which moves a whole row's gradient through that unit;
/// such cases are skipped. Over 1000 sampled cases, the only two beyond
/// 1e-5 relative error had a pre-activation within 1e-7 of zero.
const RELU_MARGIN: f32 = 1e-6;

/// A random plan: a tree over `n` nodes in DFS preorder, with each node's
/// sub-plan as its span, its depth as its height, and random features and
/// targets.
fn random_plan(n: usize, seed: u64) -> PlanFeatures {
    let mut rng = SmallRng::seed_from_u64(seed);
    let x = Tensor2::uniform(n, FEATURE_DIM, 1.5, seed ^ 0xFEA7);
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
    PlanFeatures {
        x,
        spans,
        heights,
        targets: (0..n).map(|_| rng.gen_range(-2.0f32..6.0)).collect(),
    }
}

/// The batch's spans as the additive score bias the unfolded attention
/// reads: one `n_max × n_max` matrix per plan, of which only the leading
/// `lens[b]²` corner is read, `0.0` inside a row's span and `MASK_NEG`
/// outside it.
fn span_bias(batch: &PackedBatch) -> (usize, Vec<f32>) {
    let n_max = *batch.lens.iter().max().unwrap();
    let mut bias = vec![MASK_NEG; batch.lens.len() * n_max * n_max];
    let mut row0 = 0;
    for (b, &n) in batch.lens.iter().enumerate() {
        for i in 0..n {
            let (start, end) = batch.spans[row0 + i];
            let at = (b * n_max + i) * n_max;
            bias[at + start - row0..at + end - row0].fill(0.0);
        }
        row0 += n;
    }
    (n_max, bias)
}

/// A seeded model in `mode` with non-zero LoRA `A` and biases on every
/// layer, so each merged weight and each bias path carries signal.
fn model(seed: u64, mode: LoraMode) -> DaceModel {
    let mut m = DaceModel::new(seed);
    m.set_mode(mode);
    // params_mut order: W_Q, W_K, W_V, then (W, bias, B, A) per MLP layer.
    for (i, p) in m.params_mut().into_iter().enumerate().skip(3) {
        if matches!((i - 3) % 4, 1 | 3) {
            let (r, c) = (p.value.rows(), p.value.cols());
            p.value = Tensor2::uniform(r, c, 0.1, seed ^ (0xB1A5 + i as u64));
        }
    }
    m
}

/// The unfolded network the fold replaces: the attention layer and the
/// three LoRA layers' `(W, bias, B, A)` as separate parameters.
struct Unfolded {
    attention: MaskedSelfAttention,
    mlp: Vec<Param>,
    ws: AttnScratch,
    attn_out: Tensor2,
    /// Per layer: its input `x`, the LoRA intermediate `x·B`, and its
    /// pre-activation (the ReLU gate of the two hidden layers).
    cache: Vec<(Tensor2, Tensor2, Tensor2)>,
}

impl Unfolded {
    /// Copy `model`'s weights and trainability, with zeroed gradients.
    fn of(model: &mut DaceModel) -> Unfolded {
        let mut params: Vec<Param> = model.params_mut().into_iter().map(|p| p.clone()).collect();
        for p in &mut params {
            p.zero_grad();
        }
        let mlp = params.split_off(3);
        let mut attention = model.attention().clone();
        for (dst, src) in attention.params_mut().into_iter().zip(params) {
            *dst = src;
        }
        Unfolded {
            attention,
            mlp,
            ws: AttnScratch::default(),
            attn_out: Tensor2::default(),
            cache: Vec::new(),
        }
    }

    /// Per-row predictions: 128-wide block-diagonal attention, then each
    /// LoRA layer unmerged.
    fn forward(&mut self, batch: &PackedBatch) -> Tensor2 {
        let (n_max, bias) = span_bias(batch);
        self.attention.forward_packed_ws(
            &batch.xc,
            &batch.lens,
            n_max,
            &bias,
            &mut self.ws,
            &mut self.attn_out,
        );
        self.cache.clear();
        let mut x = self.attn_out.clone();
        for (l, p) in self.mlp.chunks(4).enumerate() {
            let xb = x.matmul(&p[2].value);
            let mut y = x.matmul(&p[0].value);
            y.add_assign(&xb.matmul(&p[3].value));
            y.add_row_broadcast(p[1].value.row(0));
            let pre = y.clone();
            if l < 2 {
                y.as_mut_slice().iter_mut().for_each(|v| *v = v.max(0.0));
            }
            self.cache.push((x, xb, pre));
            x = y;
        }
        x
    }

    /// Whether some hidden pre-activation of the last forward sits within
    /// [`RELU_MARGIN`] of zero, relative to its layer's largest.
    fn near_relu_kink(&self) -> bool {
        self.cache[..2].iter().any(|(_, _, pre)| {
            let top = max_abs(pre);
            pre.as_slice().iter().any(|v| v.abs() < RELU_MARGIN * top)
        })
    }

    /// Accumulate every trainable parameter's gradient from `d_pred`.
    fn backward(&mut self, d_pred: &Tensor2, batch: &PackedBatch) {
        let mut dy = d_pred.clone();
        for l in (0..3).rev() {
            let (x, xb, _) = &self.cache[l];
            let p = &mut self.mlp[4 * l..4 * l + 4];
            if p[0].trainable {
                p[0].grad.add_assign(&x.matmul_tn(&dy));
            }
            if p[1].trainable {
                dy.col_sums_acc(p[1].grad.row_mut(0));
            }
            if p[3].trainable {
                p[3].grad.add_assign(&xb.matmul_tn(&dy));
            }
            let dxb = dy.matmul_nt(&p[3].value);
            if p[2].trainable {
                p[2].grad.add_assign(&x.matmul_tn(&dxb));
            }
            let mut dx = dy.matmul_nt(&p[0].value);
            dx.add_assign(&dxb.matmul_nt(&p[2].value));
            if l > 0 {
                let pre = &self.cache[l - 1].2;
                for (d, &z) in dx.as_mut_slice().iter_mut().zip(pre.as_slice()) {
                    if z <= 0.0 {
                        *d = 0.0;
                    }
                }
            }
            dy = dx;
        }
        self.attention
            .backward_params_ws(&dy, &batch.xc, &batch.lens, &mut self.ws);
    }

    /// Every parameter's gradient, in `DaceModel::params_mut` order.
    fn grads(&mut self) -> Vec<Tensor2> {
        let attn = self
            .attention
            .params_mut()
            .into_iter()
            .map(|p| p.grad.clone());
        attn.chain(self.mlp.iter().map(|p| p.grad.clone()))
            .collect()
    }
}

fn max_abs(t: &Tensor2) -> f32 {
    t.as_slice().iter().fold(0.0f32, |m, v| m.max(v.abs()))
}

/// Every parameter gradient of `folded` within [`GRAD_RELATIVE_TOLERANCE`]
/// of the reference's, relative to the reference's max-norm.
fn assert_grads_match(folded: &mut DaceModel, want: &[Tensor2], mode: LoraMode) {
    let got: Vec<Tensor2> = folded.params_mut().iter().map(|p| p.grad.clone()).collect();
    prop_assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let mut diff = g.clone();
        diff.scale(-1.0);
        diff.add_assign(w);
        let (err, scale) = (max_abs(&diff), max_abs(w));
        prop_assert!(
            err <= GRAD_RELATIVE_TOLERANCE * scale,
            "{:?} param {}: max error {} against max gradient {}",
            mode,
            i,
            err,
            scale
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn folded_training_matches_the_unfolded_network(
        plans in proptest::collection::vec((1usize..=12, 0u64..1_000_000), 1..=20),
        seed in 0u64..1_000,
        finetune in 0u8..2,
    ) {
        let mode = if finetune == 1 { LoraMode::Finetune } else { LoraMode::Pretrain };
        let feats: Vec<PlanFeatures> = plans
            .iter()
            .map(|&(n, s)| random_plan(n, s))
            .collect();
        let refs: Vec<&PlanFeatures> = feats.iter().collect();
        let batch = PackedBatch::pack(&refs).unwrap();

        let mut folded = model(seed, mode);
        let mut reference = Unfolded::of(&mut folded);
        let want = reference.forward(&batch);
        if reference.near_relu_kink() {
            continue;
        }
        folded.forward_batch_compact(&batch);
        let got = folded.batch_preds().clone();
        prop_assert_eq!(got.rows(), want.rows());
        for (r, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            prop_assert!(
                (g - w).abs() <= LN_MS_TOLERANCE,
                "row {}: folded {} vs unfolded {}", r, g, w
            );
        }

        let d_pred = Tensor2::uniform(want.rows(), 1, 1.0, seed ^ 0xD0D0);
        folded.backward_compact(&d_pred);
        reference.backward(&d_pred, &batch);
        assert_grads_match(&mut folded, &reference.grads(), mode);
    }

    #[test]
    fn sharded_gradients_match_the_unfolded_network(
        plans in proptest::collection::vec((1usize..=12, 0u64..1_000_000), 1..=20),
        shard_plans in 1usize..=6,
        seed in 0u64..1_000,
        finetune in 0u8..2,
    ) {
        let mode = if finetune == 1 { LoraMode::Finetune } else { LoraMode::Pretrain };
        let feats: Vec<PlanFeatures> = plans
            .iter()
            .map(|&(n, s)| random_plan(n, s))
            .collect();
        let refs: Vec<&PlanFeatures> = feats.iter().collect();
        let batch = PackedBatch::pack(&refs).unwrap();
        let shards: Vec<PackedBatch> = refs
            .chunks(shard_plans)
            .map(|c| PackedBatch::pack(c).unwrap())
            .collect();

        let mut folded = model(seed, mode);
        let mut reference = Unfolded::of(&mut folded);
        let rows = reference.forward(&batch).rows();
        if reference.near_relu_kink() {
            continue;
        }
        // The shards' compact rows, back to back, are the batch's rows.
        let d_pred = Tensor2::uniform(rows, 1, 1.0, seed ^ 0x5A4D);
        let mut start = 0;
        let d_preds: Vec<Tensor2> = shards
            .iter()
            .map(|s| {
                let n = s.xc.rows();
                start += n;
                d_pred.row_block(start - n, n)
            })
            .collect();
        prop_assert_eq!(start, rows);
        // The reference sums its shards' gradients in shard order, as the
        // trainer sums the shards' fold-space gradients.
        let mut want: Vec<Tensor2> = Vec::new();
        for (shard, d) in shards.iter().zip(&d_preds) {
            let mut part = Unfolded::of(&mut folded);
            part.forward(shard);
            part.backward(d, shard);
            let grads = part.grads();
            if want.is_empty() {
                want = grads;
            } else {
                want.iter_mut().zip(&grads).for_each(|(w, g)| w.add_assign(g));
            }
        }
        folded.backward_shards(&shards, &d_preds);
        assert_grads_match(&mut folded, &want, mode);
    }
}

fn node(ty: NodeType, cost: f64, ms: f64) -> PlanNode {
    let mut n = PlanNode::new(ty, OpPayload::Other);
    n.est_cost = cost;
    n.est_rows = cost * 3.0;
    n.actual_ms = ms;
    n
}

/// Two-node plans whose latency tracks the scan's estimated cost.
fn dataset(n: usize, seed: u64) -> Dataset {
    let mut rng = SmallRng::seed_from_u64(seed);
    let plans = (0..n)
        .map(|_| {
            let cost = rng.gen_range(10.0..10_000.0f64);
            let mut b = TreeBuilder::new();
            let scan = b.leaf(node(NodeType::SeqScan, cost, cost * 0.004));
            let root = b.internal(node(NodeType::Sort, cost * 1.5, cost * 0.006), &[scan]);
            LabeledPlan {
                tree: b.finish(root),
                db_id: 0,
                machine: MachineId::M1,
            }
        })
        .collect();
    Dataset::from_plans(plans)
}

/// `model`'s training-forward predictions on `batch`, as bits.
fn forward_bits(model: &mut DaceModel, batch: &PackedBatch) -> Vec<u32> {
    model.forward_batch_compact(batch);
    model
        .batch_preds()
        .as_slice()
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

/// A copy of `model` rebuilt from its serialized form: no cached fold.
fn fresh(model: &DaceModel) -> DaceModel {
    serde_json::from_str(&serde_json::to_string(model).unwrap()).unwrap()
}

#[test]
fn the_training_forward_refolds_after_every_weight_change() {
    let feats: Vec<PlanFeatures> = (0..6)
        .map(|i| random_plan(1 + i * 2, 40 + i as u64))
        .collect();
    let refs: Vec<&PlanFeatures> = feats.iter().collect();
    let batch = PackedBatch::pack(&refs).unwrap();

    // One Adam step on a bare model, after a forward cached the fold.
    let mut m = model(11, LoraMode::Pretrain);
    let before = forward_bits(&mut m, &batch);
    let d_pred = m.batch_preds().clone();
    m.backward_compact(&d_pred);
    Adam::new(1e-2).step(&mut m.params_mut());
    let after = forward_bits(&mut m, &batch);
    assert_eq!(
        after,
        forward_bits(&mut fresh(&m), &batch),
        "stale fold after an Adam step"
    );
    assert_ne!(after, before, "an Adam step must change predictions");

    // A fine-tuning run on a trained estimator, after a forward cached the
    // fold of the pre-trained weights.
    let mut est: DaceEstimator = Trainer::new(TrainConfig {
        epochs: 1,
        ..Default::default()
    })
    .fit(&dataset(24, 1))
    .unwrap();
    let before = forward_bits(&mut est.model, &batch);
    est.fine_tune_lora(&dataset(8, 2), 1, 1e-2).unwrap();
    let after = forward_bits(&mut est.model, &batch);
    let want = forward_bits(&mut fresh(&est.model), &batch);
    assert_eq!(after, want, "stale fold after fine-tuning");
    assert_ne!(after, before, "a fine-tuning step must change predictions");
}
