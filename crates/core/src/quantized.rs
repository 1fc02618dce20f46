//! An int8 twin of [`DaceModel`]. No serving path uses it: it is kept only
//! for perfbench's `core.quantized.single_us` calibration figure and its
//! own tests (`tests/quant_props.rs`), until that metric is retired.
//!
//! [`QuantizedModel::from_model`] folds each MLP layer's LoRA delta into its
//! base weight and int8-quantizes everything (per-output-channel scales);
//! the forward pass packs the plans, runs block-diagonal tree attention
//! over every row, gathers the root rows and runs the 3-layer MLP on them,
//! so predictions differ from the full-precision
//! [`DaceModel::predict_roots_timed_ws`] only by quantization error.

use dace_nn::{QuantScratch, QuantizedAttention, QuantizedLinear, Relu, Tensor2};
use std::time::Instant;

use crate::featurize::{Featurizer, PlanFeatures, FEATURE_DIM};
use crate::model::{DaceModel, ForwardTimings};
use crate::trainer::DaceEstimator;

/// Reusable scratch for the quantized forward: packed input, attention
/// buffers, root rows and MLP activations. One per worker; buffers grow to
/// the high-water batch size and then stop allocating — the same
/// steady-state story as the f32 [`Workspace`](dace_nn::Workspace).
#[derive(Debug, Default)]
pub struct QuantWorkspace {
    /// Int8 kernel scratch (quantized activation row, Q/K/V projections).
    pub qs: QuantScratch,
    xc: Tensor2,
    attn_out: Tensor2,
    heads: Tensor2,
    h1: Tensor2,
    h2: Tensor2,
    preds: Tensor2,
}

/// Int8 twin of [`DaceModel`]: quantized attention projections plus three
/// LoRA-folded quantized MLP layers. Holds no optimizer or training state —
/// inference only, cheap to rebuild.
#[derive(Debug, Clone)]
pub struct QuantizedModel {
    attention: QuantizedAttention,
    l1: QuantizedLinear,
    l2: QuantizedLinear,
    l3: QuantizedLinear,
}

impl QuantizedModel {
    /// Quantize a full-precision model. The current LoRA adapter (if any)
    /// is folded into the MLP base weights, so the twin reflects exactly
    /// the weights the f32 path would serve.
    pub fn from_model(model: &DaceModel) -> QuantizedModel {
        let [l1, l2, l3] = model.mlp();
        QuantizedModel {
            attention: QuantizedAttention::from_attention(model.attention()),
            l1: QuantizedLinear::from_lora(l1),
            l2: QuantizedLinear::from_lora(l2),
            l3: QuantizedLinear::from_lora(l3),
        }
    }

    /// Quantized weight bytes — roughly 4× below the f32 parameters.
    pub fn bytes(&self) -> usize {
        self.attention.bytes() + self.l1.bytes() + self.l2.bytes() + self.l3.bytes()
    }

    /// Quantized twin of [`DaceModel::predict_roots_timed_ws`]: batched
    /// root log-latency inference over the compact layout, appending to
    /// `out` (cleared first). Attention runs int8 projections over every
    /// row, then the root rows are gathered for the int8 MLP.
    pub fn predict_roots_timed_ws(
        &self,
        feats: &[&PlanFeatures],
        ws: &mut QuantWorkspace,
        out: &mut Vec<f32>,
    ) -> ForwardTimings {
        out.clear();
        if feats.is_empty() {
            return ForwardTimings::default();
        }
        let total: usize = feats.iter().map(|f| f.x.rows()).sum();
        ws.xc.resize_zeroed(total, FEATURE_DIM);
        let mut row = 0;
        for f in feats {
            ws.xc.set_row_block(row, &f.x);
            row += f.x.rows();
        }
        let t_attn = Instant::now();
        self.attention.forward_spans_into(
            &ws.xc,
            feats.iter().map(|f| f.spans.as_slice()),
            &mut ws.qs,
            &mut ws.attn_out,
        );
        let attention_us = t_attn.elapsed().as_micros() as u64;
        let t_mlp = Instant::now();
        // Only the root rows (each block's first row) run through the MLP.
        ws.heads.resize_zeroed(feats.len(), ws.attn_out.cols());
        let mut start = 0;
        for (b, f) in feats.iter().enumerate() {
            ws.heads.row_mut(b).copy_from_slice(ws.attn_out.row(start));
            start += f.x.rows();
        }
        self.l1.forward_into(&ws.heads, &mut ws.h1, &mut ws.qs);
        Relu::forward_in_place(&mut ws.h1);
        self.l2.forward_into(&ws.h1, &mut ws.h2, &mut ws.qs);
        Relu::forward_in_place(&mut ws.h2);
        self.l3.forward_into(&ws.h2, &mut ws.preds, &mut ws.qs);
        let mlp_us = t_mlp.elapsed().as_micros() as u64;
        out.extend((0..feats.len()).map(|b| ws.preds.get(b, 0)));
        ForwardTimings {
            attention_us,
            mlp_us,
        }
    }
}

/// A [`QuantizedModel`] plus the batch chunking knob, mirroring
/// [`DaceEstimator::predict_features_batch_ms_timed_ws`]. It takes the
/// full-precision estimator's features, so no featurizer is duplicated
/// here.
#[derive(Debug, Clone)]
pub struct QuantizedEstimator {
    /// The int8 network.
    pub model: QuantizedModel,
    batch_plans: usize,
}

impl QuantizedEstimator {
    /// Build the int8 twin of a full-precision estimator.
    pub fn from_estimator(est: &DaceEstimator) -> QuantizedEstimator {
        QuantizedEstimator {
            model: QuantizedModel::from_model(&est.model),
            batch_plans: est.config.batch_plans,
        }
    }

    /// Quantized twin of
    /// [`DaceEstimator::predict_features_batch_ms_timed_ws`]: chunked
    /// batch prediction in milliseconds over caller-owned scratch,
    /// appended to `out` (cleared first), aligned with `feats`.
    pub fn predict_features_batch_ms_timed_ws(
        &self,
        feats: &[&PlanFeatures],
        ws: &mut QuantWorkspace,
        roots: &mut Vec<f32>,
        out: &mut Vec<f64>,
    ) -> ForwardTimings {
        let chunk = self.batch_plans.max(1);
        out.clear();
        let mut timings = ForwardTimings::default();
        for group in feats.chunks(chunk) {
            let t = self.model.predict_roots_timed_ws(group, ws, roots);
            timings.accumulate(t);
            out.extend(roots.iter().map(|&r| Featurizer::to_ms(r)));
        }
        timings
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::{TrainConfig, Trainer};
    use dace_plan::{
        ChildIds, Dataset, LabeledPlan, MachineId, NodeType, OpPayload, PlanNode, TreeBuilder,
    };
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn synthetic_dataset(n: usize, seed: u64) -> Dataset {
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

    fn quick_estimator(seed: u64) -> DaceEstimator {
        let ds = synthetic_dataset(60, seed);
        Trainer::new(TrainConfig {
            epochs: 3,
            seed,
            ..Default::default()
        })
        .fit(&ds)
        .expect("training")
    }

    fn encode_all(est: &DaceEstimator, ds: &Dataset) -> Vec<PlanFeatures> {
        ds.plans
            .iter()
            .map(|p| est.featurizer.encode(&p.tree))
            .collect()
    }

    #[test]
    fn quantized_estimator_tracks_full_precision_within_qerror_bound() {
        let est = quick_estimator(41);
        let ds = synthetic_dataset(24, 42);
        let feats = encode_all(&est, &ds);
        let refs: Vec<&PlanFeatures> = feats.iter().collect();
        let full = est.predict_features_batch_ms(&refs);
        let q = QuantizedEstimator::from_estimator(&est);
        let mut ws = QuantWorkspace::default();
        let (mut roots, mut out) = (Vec::new(), Vec::new());
        q.predict_features_batch_ms_timed_ws(&refs, &mut ws, &mut roots, &mut out);
        assert_eq!(out.len(), full.len());
        for (a, b) in out.iter().zip(&full) {
            assert!(
                a.is_finite() && *a > 0.0,
                "quantized pred not positive: {a}"
            );
            let q_err = (a / b).max(b / a);
            assert!(q_err < 1.25, "int8 vs f32 divergence too large: {a} vs {b}");
        }
    }

    #[test]
    fn quantized_batching_is_chunk_invariant() {
        let est = quick_estimator(43);
        let ds = synthetic_dataset(10, 44);
        let feats = encode_all(&est, &ds);
        let refs: Vec<&PlanFeatures> = feats.iter().collect();
        let q = QuantizedEstimator::from_estimator(&est);
        let mut small = q.clone();
        small.batch_plans = 3;
        let mut ws = QuantWorkspace::default();
        let (mut roots, mut a, mut b) = (Vec::new(), Vec::new(), Vec::new());
        q.predict_features_batch_ms_timed_ws(&refs, &mut ws, &mut roots, &mut a);
        small.predict_features_batch_ms_timed_ws(&refs, &mut ws, &mut roots, &mut b);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-9, "chunking changed predictions");
        }
    }

    #[test]
    fn quantized_model_is_smaller_than_f32() {
        let est = quick_estimator(45);
        let q = QuantizedModel::from_model(&est.model);
        let f32_bytes = est.model.base_param_count() * 4;
        assert!(
            q.bytes() * 3 < f32_bytes,
            "quantized twin not smaller: {} vs {}",
            q.bytes(),
            f32_bytes
        );
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let est = quick_estimator(46);
        let q = QuantizedEstimator::from_estimator(&est);
        let mut ws = QuantWorkspace::default();
        let (mut roots, mut out) = (Vec::new(), Vec::new());
        let t = q.predict_features_batch_ms_timed_ws(&[], &mut ws, &mut roots, &mut out);
        assert!(out.is_empty());
        assert_eq!(t, ForwardTimings::default());
    }
}
