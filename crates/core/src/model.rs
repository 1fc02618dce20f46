//! The DACE network: one tree-masked attention layer feeding a three-layer
//! LoRA MLP that predicts every sub-plan's log-latency in parallel.

use dace_nn::{LoraLinear, LoraMode, MaskedSelfAttention, Param, Tensor2, Workspace};
use serde::{Deserialize, Serialize};

use crate::adapter::{AdapterError, LoraAdapter, LoraLayerWeights};
use crate::featurize::{PackedBatch, PlanFeatures, FEATURE_DIM};
use crate::rootnet::{FoldGrads, RootBlock, RootCell, RootNet};
use crate::update::{UpdateSlices, SLICES};

/// Width of the penultimate hidden layer `h₂` — the encoding dimension the
/// pre-trained-encoder interface exposes (Eq. 9: `w_E = h₂`).
pub const ENCODING_DIM: usize = 64;

/// Attention key/query and value width (paper: `d_k = d_v = 128`).
const D_K: usize = 128;
const D_V: usize = 128;
/// MLP layer widths (paper: `W₁, W₂, W₃ = 128, 64, 1`).
const H1: usize = 128;
/// LoRA ranks per MLP layer (paper: `r₁, r₂, r₃ = 32, 16, 8`).
const RANKS: [usize; 3] = [32, 16, 8];

/// The DACE model (Sec. IV-C).
///
/// Every pass runs on the folded [`RootNet`] of the current weights. The
/// layers are private so that every weight change goes through a method
/// that also marks the cached fold stale: [`DaceModel::params_mut`], the
/// crate's `layers_mut` (a training run) and [`DaceModel::apply_adapter`].
/// The next pass refolds.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DaceModel {
    /// Tree-masked single-head self-attention (Eq. 5).
    attention: MaskedSelfAttention,
    /// MLP layer 1 with LoRA rank 32.
    l1: LoraLinear,
    /// MLP layer 2 with LoRA rank 16.
    l2: LoraLinear,
    /// MLP layer 3 with LoRA rank 8.
    l3: LoraLinear,
    /// The folded twin of the weights above, folded on first use.
    #[serde(skip)]
    root: RootCell,
    /// Scratch arena for the training forward/backward: activations
    /// and gradients live here and reuse capacity across mini-batches, so
    /// steady-state epochs stop allocating. Cloning a model (early-stopping
    /// snapshots) resets the arena instead of copying it.
    #[serde(skip)]
    ws: Workspace,
}

/// Wall-time split of one batched inference forward pass, for the serve
/// layer's per-stage telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ForwardTimings {
    /// Time in the block-diagonal attention layer (µs).
    pub attention_us: u64,
    /// Time in the root-row MLP (µs).
    pub mlp_us: u64,
}

impl ForwardTimings {
    /// Sum two timing splits (chunked forwards accumulate into one total).
    pub fn accumulate(&mut self, other: ForwardTimings) {
        self.attention_us += other.attention_us;
        self.mlp_us += other.mlp_us;
    }
}

impl DaceModel {
    /// Seeded model with the paper's dimensions.
    pub fn new(seed: u64) -> DaceModel {
        DaceModel {
            attention: MaskedSelfAttention::new(FEATURE_DIM, D_K, D_V, seed),
            l1: LoraLinear::new(D_V, H1, RANKS[0], seed ^ 0x01),
            l2: LoraLinear::new(H1, ENCODING_DIM, RANKS[1], seed ^ 0x02),
            l3: LoraLinear::new(ENCODING_DIM, 1, RANKS[2], seed ^ 0x03),
            root: RootCell::default(),
            ws: Workspace::new(),
        }
    }

    /// A model of the given layers, with an empty fold and workspace.
    pub(crate) fn from_layers(attention: MaskedSelfAttention, mlp: [LoraLinear; 3]) -> DaceModel {
        let [l1, l2, l3] = mlp;
        DaceModel {
            attention,
            l1,
            l2,
            l3,
            root: RootCell::default(),
            ws: Workspace::new(),
        }
    }

    /// The tree-masked attention layer.
    pub fn attention(&self) -> &MaskedSelfAttention {
        &self.attention
    }

    /// The three LoRA MLP layers, input side first.
    pub(crate) fn mlp(&self) -> [&LoraLinear; 3] {
        [&self.l1, &self.l2, &self.l3]
    }

    /// The folded twin of the current weights, built on first use and
    /// cached until a weight changes. Serving builds it when a model
    /// version is published, so no request pays for the fold.
    pub fn root_net(&self) -> &RootNet {
        self.root
            .get_or_fold(|| RootNet::fold(&self.attention, self.mlp()))
    }

    /// The training forward pass, over a packed mini-batch's compact
    /// layout: the all-rows pass on the fold ([`RootNet`]), refolded in
    /// place first if a weight changed since the last pass. Every
    /// activation lands in the model's workspace arena, reusing capacity
    /// from the previous mini-batch. Predictions are left in the
    /// workspace — read them with [`DaceModel::batch_preds`] — in compact
    /// row order (`Σ lens[b] × 1`). Pair with
    /// [`DaceModel::backward_compact`].
    pub fn forward_batch_compact(&mut self, batch: &PackedBatch) {
        self.root
            .get_or_refold(&self.attention, [&self.l1, &self.l2, &self.l3])
            .forward_rows(batch, &mut self.ws);
    }

    /// The compact predictions of the last
    /// [`DaceModel::forward_batch_compact`] call (`Σ lens[b] × 1`).
    pub fn batch_preds(&self) -> &Tensor2 {
        &self.ws.preds
    }

    /// The training backward pass, from compact per-row prediction
    /// gradients (`Σ lens[b] × 1`, matching [`DaceModel::batch_preds`]):
    /// runs on workspace buffers and accumulates the exact gradients of the
    /// attention projections and the LoRA layers through the fold. Several
    /// calls between two weight changes accumulate, as with any backward.
    pub fn backward_compact(&mut self, d_pred: &Tensor2) {
        self.root
            .get_or_refold(&self.attention, [&self.l1, &self.l2, &self.l3])
            .backward_rows(
                d_pred,
                &mut self.ws,
                &mut FoldGrads::default(),
                &mut self.attention,
                [&mut self.l1, &mut self.l2, &mut self.l3],
            );
    }

    /// The data-parallel training backward, run serially: for each plan
    /// shard of one mini-batch, the all-rows forward and the backward's
    /// row pass from that shard's prediction gradients `d_preds[s]`
    /// (already scaled for the whole batch); then, one parameter group
    /// after another, the shards' fold-space gradients summed in shard
    /// order and projected onto the group's parameters. [`Trainer::fit`]
    /// runs the same steps with the shards and the groups spread over its
    /// worker threads, so a batch's gradient does not depend on how many
    /// threads computed it. Accumulates like
    /// [`DaceModel::backward_compact`].
    ///
    /// [`Trainer::fit`]: crate::Trainer::fit
    pub fn backward_shards(&mut self, shards: &[PackedBatch], d_preds: &[Tensor2]) {
        assert_eq!(shards.len(), d_preds.len(), "one gradient per shard");
        if shards.is_empty() {
            return;
        }
        let scores = self.scores_trainable();
        let net = self
            .root
            .get_or_refold(&self.attention, [&self.l1, &self.l2, &self.l3]);
        let mut parts = Vec::with_capacity(shards.len());
        for (shard, d_pred) in shards.iter().zip(d_preds) {
            net.forward_rows(shard, &mut self.ws);
            let mut grads = FoldGrads::default();
            net.row_grads(d_pred, &mut self.ws, scores, &mut grads);
            parts.push(grads);
        }
        let slices = UpdateSlices::new(
            &mut self.attention,
            [&mut self.l1, &mut self.l2, &mut self.l3],
        );
        for s in 0..SLICES {
            slices.project(s, net, parts.iter());
        }
    }

    /// Whether the attention projections train, so the backward's row pass
    /// must compute the score gradient `dM` (pre-training, not LoRA
    /// fine-tuning).
    pub(crate) fn scores_trainable(&self) -> bool {
        self.attention.wq.trainable || self.attention.wk.trainable
    }

    /// The layers, lent to a training run's update slices. Like
    /// [`DaceModel::params_mut`], this marks the cached fold stale.
    pub(crate) fn layers_mut(&mut self) -> (&mut MaskedSelfAttention, [&mut LoraLinear; 3]) {
        self.root.clear();
        (
            &mut self.attention,
            [&mut self.l1, &mut self.l2, &mut self.l3],
        )
    }

    /// Batched root-latency inference over already-featurized plans:
    /// per-plan *root* log-latency predictions, appended to `out` (cleared
    /// first), with the attention/MLP wall-time split returned.
    ///
    /// Runs on the folded [`RootNet`] ([`DaceModel::root_net`]): root-row
    /// attention and the MLP for the root rows alone, `O(d² + n·d)` for the
    /// attention of an `n`-node plan. A plan's prediction is bit-identical
    /// whatever else shares its batch, and it matches the all-rows
    /// [`DaceModel::predict_root`] to f32 rounding. Scratch lives in the
    /// caller's workspace: once its buffers reach the high-water batch size,
    /// repeated calls stop touching the allocator — the serve worker's and
    /// the search scorer's steady-state forward path.
    ///
    /// # Panics
    /// Panics unless each plan's root span is its whole plan, as
    /// [`Featurizer::encode`](crate::Featurizer::encode) always emits.
    pub fn predict_roots_timed_ws(
        &self,
        feats: &[&PlanFeatures],
        ws: &mut Workspace,
        out: &mut Vec<f32>,
    ) -> ForwardTimings {
        out.clear();
        if feats.is_empty() {
            return ForwardTimings::default();
        }
        let blocks = feats.iter().map(|f| {
            let len = f.x.rows();
            assert_eq!(
                f.spans.first(),
                Some(&(0, len)),
                "the root must attend to its whole plan"
            );
            RootBlock {
                x: &f.x,
                start: 0,
                len,
            }
        });
        self.root_net().forward(blocks, ws, out)
    }

    /// [`DaceModel::predict_roots_timed_ws`] over plans whose encoded rows
    /// sit back to back in one compact tensor from row `row0` (`lens[b]`
    /// rows per plan, root first), with no spans or per-plan
    /// [`PlanFeatures`]: the plan-search scorer's entry. A root's span is
    /// its whole plan, with tree attention or without, so none is read.
    /// Bit-identical to the [`PlanFeatures`] entry on the same rows.
    pub fn predict_roots_compact_timed_ws(
        &self,
        xc: &Tensor2,
        row0: usize,
        lens: &[usize],
        ws: &mut Workspace,
        out: &mut Vec<f32>,
    ) -> ForwardTimings {
        out.clear();
        if lens.is_empty() {
            return ForwardTimings::default();
        }
        let blocks = lens.iter().scan(row0, |next, &len| {
            let start = *next;
            *next += len;
            Some(RootBlock { x: xc, start, len })
        });
        self.root_net().forward(blocks, ws, out)
    }

    /// Inference: per-node log-latency predictions — the all-rows pass on
    /// the cached fold, which every sub-plan reader (and every equivalence
    /// test of the root-row path) goes through.
    pub fn predict(&self, feats: &PlanFeatures) -> Tensor2 {
        std::mem::take(&mut self.all_rows(feats).preds)
    }

    /// Root-node log-latency (node 0 in DFS order).
    pub fn predict_root(&self, feats: &PlanFeatures) -> f32 {
        self.predict(feats).get(0, 0)
    }

    /// The pre-trained-encoder output: the root's `h₂` activations
    /// (`ENCODING_DIM` values), the paper's `w_E` (Eq. 9).
    pub fn encode(&self, feats: &PlanFeatures) -> Vec<f32> {
        self.all_rows(feats).h2.row(0).to_vec()
    }

    /// One plan through the all-rows pass, in a fresh workspace.
    fn all_rows(&self, feats: &PlanFeatures) -> Workspace {
        let batch = PackedBatch::pack(&[feats]).expect("a one-plan batch is never empty");
        let mut ws = Workspace::new();
        self.root_net().forward_rows(&batch, &mut ws);
        ws
    }

    /// All parameters (base + LoRA) for the optimizer. Handing out mutable
    /// weights marks the cached [`RootNet`] stale.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.root.clear();
        let mut params = self.attention.params_mut();
        params.extend(self.l1.params_mut());
        params.extend(self.l2.params_mut());
        params.extend(self.l3.params_mut());
        params
    }

    /// Switch between pre-training and LoRA fine-tuning. In fine-tune mode
    /// the attention projections freeze too: the paper fine-tunes only
    /// `ΔW` of the MLP (Eq. 8).
    pub fn set_mode(&mut self, mode: LoraMode) {
        let finetune = mode == LoraMode::Finetune;
        for p in self.attention.params_mut() {
            p.trainable = !finetune;
        }
        self.l1.set_mode(mode);
        self.l2.set_mode(mode);
        self.l3.set_mode(mode);
    }

    /// Extract the current LoRA adapter weights (`l1`, `l2`, `l3`) — the
    /// complete fine-tuned state, since fine-tuning freezes everything else.
    pub fn extract_adapter(&self) -> LoraAdapter {
        let layer = |l: &LoraLinear| {
            let (b, a) = l.lora_weights();
            LoraLayerWeights {
                b: b.clone(),
                a: a.clone(),
            }
        };
        LoraAdapter {
            layers: vec![layer(&self.l1), layer(&self.l2), layer(&self.l3)],
        }
    }

    /// Install an extracted adapter. All-or-nothing: shapes are validated
    /// against every layer before any weight moves, so a failed install can
    /// never leave the model half-swapped.
    pub fn apply_adapter(&mut self, adapter: &LoraAdapter) -> Result<(), AdapterError> {
        if adapter.layers.len() != 3 {
            return Err(AdapterError {
                reason: format!("expected 3 layers, got {}", adapter.layers.len()),
            });
        }
        let shape = |t: &Tensor2| (t.rows(), t.cols());
        for (i, (layer, w)) in [&self.l1, &self.l2, &self.l3]
            .into_iter()
            .zip(&adapter.layers)
            .enumerate()
        {
            let (b, a) = layer.lora_weights();
            if shape(&w.b) != shape(b) || shape(&w.a) != shape(a) {
                return Err(AdapterError {
                    reason: format!(
                        "layer {} wants B {:?} / A {:?}, adapter has B {:?} / A {:?}",
                        i + 1,
                        shape(b),
                        shape(a),
                        shape(&w.b),
                        shape(&w.a)
                    ),
                });
            }
        }
        self.root.clear();
        for (layer, w) in [&mut self.l1, &mut self.l2, &mut self.l3]
            .into_iter()
            .zip(&adapter.layers)
        {
            layer
                .set_lora_weights(w.b.clone(), w.a.clone())
                .expect("shapes pre-validated");
        }
        Ok(())
    }

    /// Drop every parameter's optimizer state ([`Param::detach`]): the
    /// inference-only form the serving registry shares across threads.
    pub fn detach(&mut self) {
        for p in self.params_mut() {
            p.detach();
        }
    }

    /// Reallocate optimizer state dropped by [`DaceModel::detach`], making
    /// the model trainable again.
    pub fn restore_training_state(&mut self) {
        for p in self.params_mut() {
            p.restore_state();
        }
    }

    /// Base (non-LoRA) parameter count — the "DACE" row of Table II.
    pub fn base_param_count(&self) -> usize {
        self.attention.param_count()
            + self.l1.base_param_count()
            + self.l2.base_param_count()
            + self.l3.base_param_count()
    }

    /// LoRA adapter parameter count — what "DACE-LoRA" adds.
    pub fn lora_param_count(&self) -> usize {
        self.l1.lora_param_count() + self.l2.lora_param_count() + self.l3.lora_param_count()
    }

    /// Model size in megabytes (f32 parameters).
    pub fn size_mb(&self) -> f64 {
        (self.base_param_count() * 4) as f64 / 1_048_576.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::featurize::{FeatureConfig, Featurizer};
    use dace_plan::{Dataset, LabeledPlan, MachineId, NodeType, OpPayload, PlanNode, TreeBuilder};

    fn toy_features() -> PlanFeatures {
        let mut b = TreeBuilder::new();
        let s1 = {
            let mut n = PlanNode::new(NodeType::SeqScan, OpPayload::Other);
            n.est_cost = 100.0;
            n.est_rows = 1000.0;
            n.actual_ms = 3.0;
            b.leaf(n)
        };
        let s2 = {
            let mut n = PlanNode::new(NodeType::IndexScan, OpPayload::Other);
            n.est_cost = 50.0;
            n.est_rows = 10.0;
            n.actual_ms = 1.0;
            b.leaf(n)
        };
        let j = {
            let mut n = PlanNode::new(NodeType::HashJoin, OpPayload::Other);
            n.est_cost = 400.0;
            n.est_rows = 500.0;
            n.actual_ms = 8.0;
            b.internal(n, &[s1, s2])
        };
        let plan = LabeledPlan {
            tree: b.finish(j),
            db_id: 0,
            machine: MachineId::M1,
        };
        let ds = Dataset::from_plans(vec![plan.clone()]);
        let f = Featurizer::fit(&ds, FeatureConfig::default());
        f.encode(&plan.tree)
    }

    #[test]
    fn forward_shapes_are_per_node() {
        let mut model = DaceModel::new(1);
        let feats = toy_features();
        model.forward_batch_compact(&PackedBatch::pack(&[&feats]).unwrap());
        let preds = model.batch_preds();
        assert_eq!(preds.rows(), 3);
        assert_eq!(preds.cols(), 1);
        assert!(preds.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn training_and_inference_forward_agree() {
        let mut model = DaceModel::new(2);
        let feats = toy_features();
        model.forward_batch_compact(&PackedBatch::pack(&[&feats]).unwrap());
        let a = model.batch_preds();
        let b = model.predict(&feats);
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() < 1e-6);
        }
        assert_eq!(model.predict_root(&feats), b.get(0, 0));
    }

    #[test]
    fn encoder_output_has_encoding_dim() {
        let model = DaceModel::new(3);
        let feats = toy_features();
        let e = model.encode(&feats);
        assert_eq!(e.len(), ENCODING_DIM);
    }

    #[test]
    fn parameter_budget_is_lightweight() {
        let model = DaceModel::new(4);
        // The paper reports 0.064 MB for DACE and a LoRA add-on ~25% of it.
        assert!(
            model.size_mb() < 0.2,
            "model too large: {} MB",
            model.size_mb()
        );
        let lora_ratio = model.lora_param_count() as f64 / model.base_param_count() as f64;
        assert!(lora_ratio < 0.6, "LoRA ratio {lora_ratio}");
    }

    #[test]
    fn finetune_mode_freezes_base_weights() {
        let mut model = DaceModel::new(5);
        model.set_mode(LoraMode::Finetune);
        assert!(!model.attention.wq.trainable);
        assert!(!model.l1.w.trainable);
        assert!(model.l1.lora_a.trainable);
        model.set_mode(LoraMode::Pretrain);
        assert!(model.attention.wq.trainable);
        assert!(!model.l1.lora_a.trainable);
    }

    #[test]
    fn backward_accumulates_gradients() {
        let mut model = DaceModel::new(6);
        let feats = toy_features();
        model.forward_batch_compact(&PackedBatch::pack(&[&feats]).unwrap());
        let preds = model.batch_preds().clone();
        model.backward_compact(&preds);
        let grad_norm: f32 = model.params_mut().iter().map(|p| p.grad.norm_sq()).sum();
        assert!(grad_norm > 0.0, "no gradient flowed");
    }

    /// The root-row entry on the toy plan with the root's span replaced.
    fn predict_root_with_span(span: (usize, usize)) {
        let mut feats = toy_features();
        feats.spans[0] = span;
        let (mut ws, mut out) = (Workspace::new(), Vec::new());
        DaceModel::new(8).predict_roots_timed_ws(&[&feats], &mut ws, &mut out);
    }

    #[test]
    #[should_panic(expected = "the root must attend to its whole plan")]
    fn the_root_row_entry_rejects_a_span_that_misses_the_root() {
        predict_root_with_span((1, 3));
    }

    #[test]
    #[should_panic(expected = "the root must attend to its whole plan")]
    fn the_root_row_entry_rejects_a_partial_root_span() {
        predict_root_with_span((0, 2));
    }

    #[test]
    fn serde_roundtrip_preserves_predictions() {
        let model = DaceModel::new(7);
        let feats = toy_features();
        let before = model.predict_root(&feats);
        let json = serde_json::to_string(&model).unwrap();
        let restored: DaceModel = serde_json::from_str(&json).unwrap();
        assert_eq!(restored.predict_root(&feats), before);
    }
}
