//! The DACE network: one tree-masked attention layer feeding a three-layer
//! LoRA MLP that predicts every sub-plan's log-latency in parallel.

use dace_nn::{LoraLinear, LoraMode, MaskedSelfAttention, Param, Relu, Tensor2, Workspace};
use serde::{Deserialize, Serialize};

use crate::adapter::{AdapterError, LoraAdapter, LoraLayerWeights};
use crate::featurize::{PackedBatch, PlanFeatures, FEATURE_DIM};

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
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DaceModel {
    /// Tree-masked single-head self-attention (Eq. 5).
    pub attention: MaskedSelfAttention,
    /// MLP layer 1 with LoRA rank 32.
    pub l1: LoraLinear,
    /// MLP layer 2 with LoRA rank 16.
    pub l2: LoraLinear,
    /// MLP layer 3 with LoRA rank 8.
    pub l3: LoraLinear,
    /// Scratch arena for the compact batched forward/backward: activations
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
            ws: Workspace::new(),
        }
    }

    /// The training forward pass, over a packed mini-batch's compact
    /// layout (one block-diagonal attention call for the whole batch):
    /// every activation (attention Q/K/V/probs, MLP hiddens, LoRA
    /// intermediates, ReLU masks) lands in the model's workspace arena,
    /// reusing capacity from the previous mini-batch. Predictions are left
    /// in the workspace — read them with [`DaceModel::batch_preds`] — in
    /// compact row order (`Σ lens[b] × 1`). Pair with
    /// [`DaceModel::backward_compact`].
    pub fn forward_batch_compact(&mut self, batch: &PackedBatch) {
        let ws = &mut self.ws;
        ws.xc.copy_from(&batch.xc);
        ws.lens.clear();
        ws.lens.extend_from_slice(&batch.lens);
        self.attention.forward_packed_ws(
            &ws.xc,
            &ws.lens,
            batch.n_max,
            &batch.bias,
            &mut ws.attn,
            &mut ws.attn_out,
        );
        self.l1
            .forward_ws(&ws.attn_out, &mut ws.h1, &mut ws.xb1, &mut ws.tmp);
        Relu::forward_in_place(&mut ws.h1, &mut ws.mask1);
        self.l2
            .forward_ws(&ws.h1, &mut ws.h2, &mut ws.xb2, &mut ws.tmp);
        Relu::forward_in_place(&mut ws.h2, &mut ws.mask2);
        self.l3
            .forward_ws(&ws.h2, &mut ws.preds, &mut ws.xb3, &mut ws.tmp);
    }

    /// The compact predictions of the last
    /// [`DaceModel::forward_batch_compact`] call (`Σ lens[b] × 1`).
    pub fn batch_preds(&self) -> &Tensor2 {
        &self.ws.preds
    }

    /// The training backward pass, from compact per-row prediction
    /// gradients (`Σ lens[b] × 1`, matching [`DaceModel::batch_preds`]):
    /// the entire chain runs on workspace buffers, accumulating parameter
    /// gradients.
    pub fn backward_compact(&mut self, d_pred: &Tensor2) {
        let ws = &mut self.ws;
        self.l3.backward_ws(
            d_pred,
            &ws.h2,
            &ws.xb3,
            &mut ws.d1,
            &mut ws.dxb,
            &mut ws.gtmp,
        );
        Relu::backward_in_place(&mut ws.d1, &ws.mask2);
        self.l2.backward_ws(
            &ws.d1,
            &ws.h1,
            &ws.xb2,
            &mut ws.d2,
            &mut ws.dxb,
            &mut ws.gtmp,
        );
        Relu::backward_in_place(&mut ws.d2, &ws.mask1);
        self.l1.backward_ws(
            &ws.d2,
            &ws.attn_out,
            &ws.xb1,
            &mut ws.d1,
            &mut ws.dxb,
            &mut ws.gtmp,
        );
        // Attention is the first layer: only parameter gradients remain.
        self.attention
            .backward_params_ws(&ws.d1, &ws.xc, &ws.lens, &mut ws.attn);
    }

    /// Batched root-latency inference over already-featurized plans:
    /// per-plan *root* log-latency predictions, appended to `out` (cleared
    /// first), with the attention/MLP wall-time split returned.
    ///
    /// Only what the root prediction needs is computed: root-row attention
    /// ([`MaskedSelfAttention::forward_roots_into`], `O(d·d_k + n·d)` per
    /// plan) feeds the root rows alone through the MLP. Every kernel is
    /// row-independent, so a plan's prediction is bit-identical whatever
    /// else shares its batch, and it matches the all-rows
    /// [`DaceModel::predict_root`] to f32 rounding. Scratch lives in the
    /// caller's workspace: once its buffers reach the high-water batch size,
    /// repeated calls stop touching the allocator — the serve worker's and
    /// the search scorer's steady-state forward path.
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
        let t_attn = std::time::Instant::now();
        self.attention.forward_roots_into(
            feats.iter().map(|f| (&f.x, f.mask.as_slice())),
            &mut ws.attn,
            &mut ws.heads,
        );
        self.root_mlp_timed(t_attn, feats.len(), ws, out)
    }

    /// [`DaceModel::predict_roots_timed_ws`] over plans whose encoded rows
    /// sit back to back in one compact tensor from row `row0` (`lens[b]`
    /// rows per plan, root first), with no masks or per-plan [`PlanFeatures`]
    /// ([`MaskedSelfAttention::forward_roots_compact_into`]): the plan-search
    /// scorer's entry. Bit-identical to the masked entry on the same rows.
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
        let t_attn = std::time::Instant::now();
        self.attention
            .forward_roots_compact_into(xc, row0, lens, &mut ws.attn, &mut ws.heads);
        self.root_mlp_timed(t_attn, lens.len(), ws, out)
    }

    /// The MLP over the `plans` root rows attention left in `ws.heads`,
    /// appending their log-latencies to `out`; attention is timed from
    /// `t_attn`.
    fn root_mlp_timed(
        &self,
        t_attn: std::time::Instant,
        plans: usize,
        ws: &mut Workspace,
        out: &mut Vec<f32>,
    ) -> ForwardTimings {
        let attention_us = t_attn.elapsed().as_micros() as u64;
        let t_mlp = std::time::Instant::now();
        self.l1
            .forward_ws(&ws.heads, &mut ws.h1, &mut ws.xb1, &mut ws.tmp);
        Relu::relu_in_place(&mut ws.h1);
        self.l2
            .forward_ws(&ws.h1, &mut ws.h2, &mut ws.xb2, &mut ws.tmp);
        Relu::relu_in_place(&mut ws.h2);
        self.l3
            .forward_ws(&ws.h2, &mut ws.preds, &mut ws.xb3, &mut ws.tmp);
        let mlp_us = t_mlp.elapsed().as_micros() as u64;
        out.extend((0..plans).map(|b| ws.preds.get(b, 0)));
        ForwardTimings {
            attention_us,
            mlp_us,
        }
    }

    /// Inference: per-node log-latency predictions without caching — the
    /// all-rows pass every sub-plan reader (and every equivalence test of
    /// the root-row path) goes through.
    pub fn predict(&self, feats: &PlanFeatures) -> Tensor2 {
        self.l3.forward_inference(&self.hidden(feats))
    }

    /// Root-node log-latency (node 0 in DFS order).
    pub fn predict_root(&self, feats: &PlanFeatures) -> f32 {
        self.predict(feats).get(0, 0)
    }

    /// The pre-trained-encoder output: the root's `h₂` activations
    /// (`ENCODING_DIM` values), the paper's `w_E` (Eq. 9).
    pub fn encode(&self, feats: &PlanFeatures) -> Vec<f32> {
        self.hidden(feats).row(0).to_vec()
    }

    /// Every node's `h₂` activations: the all-rows attention pass through
    /// the first two MLP layers.
    fn hidden(&self, feats: &PlanFeatures) -> Tensor2 {
        let a = self.attention.forward_inference(&feats.x, &feats.mask);
        let mut h1 = self.l1.forward_inference(&a);
        Relu::relu_in_place(&mut h1);
        let mut h2 = self.l2.forward_inference(&h1);
        Relu::relu_in_place(&mut h2);
        h2
    }

    /// All parameters (base + LoRA) for the optimizer.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
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
            b.internal(n, vec![s1, s2])
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
