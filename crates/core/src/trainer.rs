//! Training, LoRA fine-tuning and the estimator facade.
//!
//! Both [`Trainer::fit`] and [`DaceEstimator::fine_tune_lora`] run through
//! one shared mini-batch loop ([`run_epochs`]): each mini-batch is packed
//! once ([`PackedBatch`]) and trained with **one** block-diagonal
//! forward/backward pass instead of one pass per plan. The gradient is
//! mathematically identical to accumulating one pass per plan (the
//! attention bias is block-diagonal), differing only in floating-point
//! summation order; `tests/batch_props.rs` asserts agreement to 1e-4
//! against one-plan batches through the same passes.

use std::sync::Arc;
use std::time::Instant;

use dace_nn::{Adam, LoraMode, Tensor2, Workspace};
use dace_obs::{alloc_probe_bytes, span, EpochRecord, MetricsRegistry, RunSink, Verbosity};
use dace_plan::{Dataset, LabeledPlan, PlanTree};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::adapter::{AdapterError, LoraAdapter};
use crate::featurize::{FeatureConfig, Featurizer, PackedBatch, PlanFeatures};
use crate::loss::LossAdjuster;
use crate::model::{DaceModel, ForwardTimings};

/// Why training or fine-tuning could not run. An automated retrain loop
/// (the serving layer's drift-triggered fine-tune) feeds whatever its
/// feedback window holds into these entry points; a window that drained
/// empty must degrade into a typed error the caller can count and skip,
/// never a panic that kills the trainer thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrainError {
    /// The dataset (or packed mini-batch) contained no plans.
    EmptyDataset,
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::EmptyDataset => write!(f, "dataset is empty: nothing to train on"),
        }
    }
}

impl std::error::Error for TrainError {}

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Passes over the training set.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Plans per optimizer step (gradient accumulation batch).
    pub batch_plans: usize,
    /// Loss-adjuster α (0 = root only, 1 = uniform, 0.5 = paper's value).
    pub alpha: f32,
    /// Initialization / shuffling seed.
    pub seed: u64,
    /// Featurization variant flags (ablations).
    pub features: FeatureConfig,
    /// Fraction of the training plans held out as a validation split for
    /// early stopping. `0.0` (the default) disables the split entirely and
    /// reproduces the fixed-epoch behavior.
    #[serde(default)]
    pub validation_fraction: f32,
    /// Consecutive epochs without validation improvement tolerated before
    /// stopping early and restoring the best weights. `0` (the default)
    /// disables early stopping.
    #[serde(default)]
    pub patience: usize,
    /// Threads for data-sharded featurization (`0` = all available cores).
    /// Featurization is pure per-plan work, so the result is identical at
    /// any thread count.
    #[serde(default)]
    pub featurize_threads: usize,
    /// Stderr progress during training ([`Verbosity::Quiet`] by default —
    /// telemetry sinks receive every epoch regardless).
    #[serde(default)]
    pub verbosity: Verbosity,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 20,
            lr: 1e-3,
            batch_plans: 64,
            alpha: 0.5,
            seed: 0xDACE,
            features: FeatureConfig::default(),
            validation_fraction: 0.0,
            patience: 0,
            featurize_threads: 0,
            verbosity: Verbosity::Quiet,
        }
    }
}

/// Featurize every tree, sharding the work across crossbeam scoped threads.
/// Output order matches `trees` regardless of thread count (featurization is
/// pure per-plan work). This is the one featurization entry point shared by
/// training, [`DaceEstimator::predict_batch_ms`] and the serving scheduler's
/// cache-miss path; small inputs (< 64 trees) take the serial path so
/// latency-sensitive callers never pay thread-spawn overhead.
pub fn featurize_trees_sharded(
    featurizer: &Featurizer,
    trees: &[&PlanTree],
    threads: usize,
) -> Vec<PlanFeatures> {
    let _span = span!("featurize");
    let threads = if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    };
    let threads = threads.min(trees.len().max(1));
    if threads <= 1 || trees.len() < 64 {
        return trees.iter().map(|t| featurizer.encode(t)).collect();
    }
    let chunk = trees.len().div_ceil(threads);
    crossbeam::scope(|scope| {
        let handles: Vec<_> = trees
            .chunks(chunk)
            .map(|ts| {
                scope.spawn(move |_| ts.iter().map(|t| featurizer.encode(t)).collect::<Vec<_>>())
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("featurization thread panicked"))
            .collect::<Vec<_>>()
    })
    .expect("crossbeam scope failed")
    .into_iter()
    .flatten()
    .collect()
}

/// [`featurize_trees_sharded`] over labeled plans.
fn featurize_sharded(
    featurizer: &Featurizer,
    plans: &[LabeledPlan],
    threads: usize,
) -> Vec<PlanFeatures> {
    let trees: Vec<&PlanTree> = plans.iter().map(|p| &p.tree).collect();
    featurize_trees_sharded(featurizer, &trees, threads)
}

/// Per-row loss gradient for a packed batch, matching the per-plan loss:
/// each plan's weighted squared-log-error is normalized by its own weight
/// sum, then scaled by `1 / batch_size`. `preds` has one row per *real*
/// node (`Σ lens[b]`), targets and heights are read through the batch's
/// padded index, and the gradient is written into the caller's reusable
/// buffer — no allocation once `d_pred` reaches capacity. Returns the
/// batch's mean per-plan weighted loss (the quantity the gradient
/// descends), which telemetry reports per epoch.
fn packed_grad(
    adjuster: &LossAdjuster,
    preds: &Tensor2,
    batch: &PackedBatch,
    d_pred: &mut Tensor2,
) -> f32 {
    d_pred.resize_zeroed(preds.rows(), 1);
    let inv_batch = 1.0 / batch.count as f32;
    let mut loss = 0.0f32;
    let mut row = 0usize;
    for b in 0..batch.count {
        let base = b * batch.n_max;
        let n = batch.lens[b];
        let mut wsum = 0.0f32;
        for i in 0..n {
            wsum += adjuster.weight(batch.heights[base + i]);
        }
        let wsum = wsum.max(1e-12);
        for i in 0..n {
            let w = adjuster.weight(batch.heights[base + i]);
            let err = preds.get(row, 0) - batch.targets[base + i];
            loss += w * err * err / wsum * inv_batch;
            d_pred.set(row, 0, 2.0 * w * err / wsum * inv_batch);
            row += 1;
        }
    }
    loss
}

/// Gross heap bytes allocated since the `start` probe reading, when an
/// allocation probe is installed ([`dace_obs::set_alloc_probe`]).
fn alloc_delta(start: Option<u64>) -> Option<u64> {
    Some(alloc_probe_bytes()?.saturating_sub(start?))
}

/// Mean per-plan validation loss on a held-out index set, plus each held-out
/// plan's root Q-error (`max(pred/actual, actual/pred)` in ms space) for
/// telemetry quantiles.
fn validation_stats(
    model: &DaceModel,
    adjuster: &LossAdjuster,
    feats: &[PlanFeatures],
    val_idx: &[usize],
) -> (f32, Vec<f64>) {
    let _span = span!("validate");
    let mut total = 0.0f32;
    let mut qerrs = Vec::with_capacity(val_idx.len());
    for &i in val_idx {
        let f = &feats[i];
        let preds = model.predict(f);
        let pred_slice: Vec<f32> = (0..preds.rows()).map(|r| preds.get(r, 0)).collect();
        let (loss, _) = adjuster.loss_and_grad(&pred_slice, &f.targets, &f.heights);
        total += loss;
        // Root is row 0 in DFS order; Q-error compares in ms space.
        let pred_ms = Featurizer::to_ms(pred_slice[0]).max(1e-6);
        let actual_ms = Featurizer::to_ms(f.targets[0]).max(1e-6);
        qerrs.push((pred_ms / actual_ms).max(actual_ms / pred_ms));
    }
    (total / val_idx.len().max(1) as f32, qerrs)
}

/// Quantile of an unsorted sample set by exact rank (`ceil(p·n)`-th order
/// statistic), `None` on an empty set. Shared by training telemetry and the
/// serving layer's q-error drift detector — one definition of "p90" across
/// the whole observe→retrain loop.
pub fn quantile(samples: &mut [f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((p * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    Some(samples[rank - 1])
}

/// Per-run telemetry wiring threaded through [`run_epochs`]: which phase the
/// records belong to, where they go, and how chatty stderr is.
struct RunTelemetry<'a> {
    phase: &'static str,
    sink: Option<&'a dyn RunSink>,
    verbosity: Verbosity,
}

impl RunTelemetry<'_> {
    /// Whether per-epoch stats are worth computing at all.
    fn active(&self) -> bool {
        self.sink.is_some() || self.verbosity > Verbosity::Quiet
    }

    fn emit(&self, record: &EpochRecord) {
        if self.verbosity >= Verbosity::Epochs {
            eprintln!("{}", record.summary_line());
        }
        if let Some(sink) = self.sink {
            sink.epoch(record);
        }
    }
}

/// The shared mini-batch loop behind [`Trainer::fit`] and
/// [`DaceEstimator::fine_tune_lora`]: shuffle the plan order once, pack
/// every mini-batch once, then per epoch reshuffle only the *batch order*
/// and run one allocation-free block-diagonal forward/backward per batch
/// (workspace-compact path), one optimizer step per batch.
///
/// Batches are packed once (epoch-persistent packing): each epoch is a
/// seeded-random permutation of the same fixed batches, so every batch is
/// visited exactly once per epoch and no epoch re-packs anything.
///
/// When `validation_fraction > 0` and `patience > 0`, a seeded validation
/// split (drawn from its own RNG stream so the shuffle stream is unchanged)
/// is scored after every epoch; training stops after `patience` epochs
/// without improvement and the best-scoring weights are restored.
#[allow(clippy::too_many_arguments)]
fn run_epochs(
    model: &mut DaceModel,
    adjuster: &LossAdjuster,
    feats: &[PlanFeatures],
    epochs: usize,
    lr: f32,
    batch_plans: usize,
    shuffle_seed: u64,
    validation_fraction: f32,
    patience: usize,
    telemetry: RunTelemetry<'_>,
) {
    // A serving snapshot (DaceModel::detach) has no optimizer state;
    // reallocate it so registry-loaded models can be fine-tuned directly.
    model.restore_training_state();
    let mut opt = Adam::new(lr);
    let mut rng = SmallRng::seed_from_u64(shuffle_seed);

    let early_stop = validation_fraction > 0.0 && patience > 0 && feats.len() >= 2;
    let (mut order, val_idx): (Vec<usize>, Vec<usize>) = if early_stop {
        // The split uses a dedicated RNG stream so enabling early stopping
        // does not perturb the mini-batch shuffle sequence.
        let mut split_rng = SmallRng::seed_from_u64(shuffle_seed ^ 0xDA7A_5B17);
        let mut idx: Vec<usize> = (0..feats.len()).collect();
        idx.shuffle(&mut split_rng);
        let val_len =
            ((feats.len() as f32 * validation_fraction) as usize).clamp(1, feats.len() - 1);
        let val = idx.split_off(feats.len() - val_len);
        (idx, val)
    } else {
        ((0..feats.len()).collect(), Vec::new())
    };

    // Pack every mini-batch once, before the first epoch. Plan membership
    // of each batch is frozen from here on; epochs permute the batch order.
    order.shuffle(&mut rng);
    let batches: Vec<PackedBatch> = order
        .chunks(batch_plans.max(1))
        .map(|chunk| {
            let refs: Vec<&PlanFeatures> = chunk.iter().map(|&i| &feats[i]).collect();
            PackedBatch::pack(&refs).expect("mini-batch chunks are non-empty")
        })
        .collect();
    let mut batch_order: Vec<usize> = (0..batches.len()).collect();
    // Reused gradient buffer: with the packs hoisted and the model running
    // on its workspace arena, the batch loop's steady state is
    // allocation-free.
    let mut d_buf = Tensor2::default();

    let telemetry_on = telemetry.active();
    let mut best_val = f32::INFINITY;
    let mut best_model: Option<DaceModel> = None;
    let mut bad_epochs = 0usize;
    for epoch in 0..epochs {
        let _span = span!("train_epoch");
        let epoch_started = Instant::now();
        batch_order.shuffle(&mut rng);
        let alloc_start = if telemetry_on {
            alloc_probe_bytes()
        } else {
            None
        };
        let mut loss_sum = 0.0f64;
        let mut batches_done = 0usize;
        let mut grad_norm = 0.0f64;
        for &bi in &batch_order {
            let packed = &batches[bi];
            model.forward_batch_compact(packed);
            let loss = packed_grad(adjuster, model.batch_preds(), packed, &mut d_buf);
            loss_sum += f64::from(loss);
            batches_done += 1;
            model.backward_compact(&d_buf);
            if telemetry_on {
                // Gradient norm over the parameters the optimizer will
                // actually move (mirrors Adam's clip-norm accounting).
                let g: f32 = model
                    .params_mut()
                    .iter()
                    .filter(|p| p.trainable)
                    .map(|p| p.grad.norm_sq())
                    .sum();
                grad_norm = f64::from(g).sqrt();
            }
            opt.step(&mut model.params_mut());
        }
        // Sampled around the batch loop only: validation and snapshotting
        // below are allowed to allocate without polluting the metric.
        let alloc_bytes = alloc_delta(alloc_start);
        if let Some(bytes) = alloc_bytes {
            MetricsRegistry::global()
                .histogram("train_epoch_alloc_bytes")
                .record(bytes);
        }

        let mut val_loss = None;
        let mut qerrs: Vec<f64> = Vec::new();
        let decision = if early_stop {
            let (val, q) = validation_stats(model, adjuster, feats, &val_idx);
            val_loss = Some(f64::from(val));
            qerrs = q;
            if val < best_val {
                best_val = val;
                best_model = Some(model.clone());
                bad_epochs = 0;
                "improved".to_string()
            } else {
                bad_epochs += 1;
                if bad_epochs >= patience {
                    "stop".to_string()
                } else {
                    format!("patience {bad_epochs}/{patience}")
                }
            }
        } else {
            "continue".to_string()
        };

        if telemetry_on {
            telemetry.emit(&EpochRecord {
                phase: telemetry.phase.to_string(),
                epoch,
                epochs_planned: epochs,
                train_loss: loss_sum / batches_done.max(1) as f64,
                grad_norm,
                lr: f64::from(lr),
                epoch_ms: epoch_started.elapsed().as_secs_f64() * 1e3,
                val_loss,
                val_qerr_p50: quantile(&mut qerrs, 0.50),
                val_qerr_p90: quantile(&mut qerrs, 0.90),
                val_qerr_p99: quantile(&mut qerrs, 0.99),
                early_stop: decision,
                alloc_bytes,
                trace: dace_obs::current_trace(),
            });
        }
        if early_stop && bad_epochs >= patience {
            break;
        }
    }
    if let Some(best) = best_model {
        *model = best;
    }
    if let Some(sink) = telemetry.sink {
        sink.finish();
    }
}

/// Fits a [`DaceEstimator`] on a labeled dataset.
#[derive(Debug, Clone, Default)]
pub struct Trainer {
    /// Hyper-parameters.
    pub config: TrainConfig,
    /// Per-epoch telemetry destination (run manifests); `None` trains
    /// without telemetry overhead.
    pub sink: Option<Arc<dyn RunSink>>,
}

impl Trainer {
    /// Trainer with a config.
    pub fn new(config: TrainConfig) -> Trainer {
        Trainer { config, sink: None }
    }

    /// Trainer that reports every epoch to `sink` (e.g. a
    /// [`dace_obs::JsonlSink`] writing a `--manifest` file).
    pub fn with_sink(config: TrainConfig, sink: Arc<dyn RunSink>) -> Trainer {
        Trainer {
            config,
            sink: Some(sink),
        }
    }

    /// Pre-train DACE on `train` (plans from many databases).
    ///
    /// Featurization is sharded across threads; training runs the shared
    /// batched loop (one block-diagonal forward/backward per mini-batch). An empty
    /// dataset is a typed [`TrainError::EmptyDataset`], not a panic — the
    /// serving layer's auto-retrain feeds whatever its feedback window holds.
    pub fn fit(&self, train: &Dataset) -> Result<DaceEstimator, TrainError> {
        if train.is_empty() {
            return Err(TrainError::EmptyDataset);
        }
        let cfg = self.config;
        let featurizer = Featurizer::fit(train, cfg.features);
        let mut model = DaceModel::new(cfg.seed);
        model.set_mode(LoraMode::Pretrain);
        let adjuster = LossAdjuster::new(cfg.alpha);

        // Featurize once; features are static during training.
        let feats = featurize_sharded(&featurizer, &train.plans, cfg.featurize_threads);
        run_epochs(
            &mut model,
            &adjuster,
            &feats,
            cfg.epochs,
            cfg.lr,
            cfg.batch_plans,
            cfg.seed ^ 0x5417,
            cfg.validation_fraction,
            cfg.patience,
            RunTelemetry {
                phase: "pretrain",
                sink: self.sink.as_deref(),
                verbosity: cfg.verbosity,
            },
        );
        Ok(DaceEstimator {
            model,
            featurizer,
            adjuster,
            config: cfg,
        })
    }
}

/// A trained DACE estimator: model + featurizer + loss adjuster.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DaceEstimator {
    /// The network.
    pub model: DaceModel,
    /// The fitted featurizer (part of the pre-trained artifact).
    pub featurizer: Featurizer,
    /// The loss adjuster used in (fine-)training.
    pub adjuster: LossAdjuster,
    /// The training configuration.
    pub config: TrainConfig,
}

impl DaceEstimator {
    /// Predict a plan's latency in milliseconds (root node only — inference
    /// has no sub-plan overhead, Sec. V-E).
    pub fn predict_ms(&self, tree: &PlanTree) -> f64 {
        let feats = self.featurizer.encode(tree);
        Featurizer::to_ms(self.model.predict_root(&feats))
    }

    /// Per-sub-plan latency predictions (ms), DFS order — the parallel
    /// sub-plan prediction of Eq. 6.
    pub fn predict_subplans_ms(&self, tree: &PlanTree) -> Vec<f64> {
        let feats = self.featurizer.encode(tree);
        let preds = self.model.predict(&feats);
        (0..preds.rows())
            .map(|r| Featurizer::to_ms(preds.get(r, 0)))
            .collect()
    }

    /// The pre-trained-encoder interface: the plan's `h₂` embedding (Eq. 9),
    /// for knowledge integration into within-database models.
    pub fn encode(&self, tree: &PlanTree) -> Vec<f32> {
        let feats = self.featurizer.encode(tree);
        self.model.encode(&feats)
    }

    /// Batched latency prediction (ms): featurize all plans (sharded across
    /// threads, same code path as training) and run root-row inference in
    /// chunks of `config.batch_plans`. Output order matches `trees`.
    pub fn predict_batch_ms(&self, trees: &[&PlanTree]) -> Vec<f64> {
        let feats = featurize_trees_sharded(&self.featurizer, trees, self.config.featurize_threads);
        let refs: Vec<&PlanFeatures> = feats.iter().collect();
        self.predict_features_batch_ms(&refs)
    }

    /// Batch-entry prediction over already-featurized plans — the serving
    /// scheduler's path, where features come from a cache rather than fresh
    /// featurization. Chunks by `config.batch_plans`; output order matches
    /// `feats`.
    pub fn predict_features_batch_ms(&self, feats: &[&PlanFeatures]) -> Vec<f64> {
        let mut ws = Workspace::new();
        let mut roots = Vec::new();
        let mut out = Vec::new();
        self.predict_features_batch_ms_timed_ws(feats, &mut ws, &mut roots, &mut out);
        out
    }

    /// [`predict_features_batch_ms`] over caller-owned scratch, with the
    /// attention/MLP wall-time split accumulated across chunks — the serve
    /// worker's steady-state entry point. The workspace and the `roots`
    /// staging vector are reused across calls (no allocation once they
    /// reach the high-water batch size); millisecond predictions are
    /// appended to `out` (cleared first), aligned with `feats`.
    ///
    /// Chunks run root-row inference ([`DaceModel::predict_roots_timed_ws`]):
    /// no padding rows exist, so mixed plan sizes cost nothing and chunking
    /// needs no size sorting — plain input-order chunks keep the output
    /// aligned for free.
    ///
    /// [`predict_features_batch_ms`]: DaceEstimator::predict_features_batch_ms
    pub fn predict_features_batch_ms_timed_ws(
        &self,
        feats: &[&PlanFeatures],
        ws: &mut Workspace,
        roots: &mut Vec<f32>,
        out: &mut Vec<f64>,
    ) -> ForwardTimings {
        let chunk = self.config.batch_plans.max(1);
        out.clear();
        let mut timings = ForwardTimings::default();
        for group in feats.chunks(chunk) {
            let t = self.model.predict_roots_timed_ws(group, ws, roots);
            timings.accumulate(t);
            out.extend(roots.iter().map(|&r| Featurizer::to_ms(r)));
        }
        timings
    }

    /// Extract the current LoRA adapter (the complete fine-tuned state) for
    /// hand-off to a serving registry.
    pub fn extract_adapter(&self) -> LoraAdapter {
        self.model.extract_adapter()
    }

    /// A copy of this estimator with `adapter` installed — base weights,
    /// featurizer and config shared unchanged. All-or-nothing on shape
    /// mismatch.
    pub fn with_adapter(&self, adapter: &LoraAdapter) -> Result<DaceEstimator, AdapterError> {
        let mut est = self.clone();
        est.model.apply_adapter(adapter)?;
        Ok(est)
    }

    /// An inference-only copy: identical predictions, but every parameter's
    /// optimizer state is dropped ([`DaceModel::detach`]), cutting the
    /// snapshot to a quarter of the training-time memory. This is what the
    /// serving registry publishes. Fine-tuning such a copy transparently
    /// reallocates the state.
    pub fn serving_clone(&self) -> DaceEstimator {
        let mut est = self.clone();
        est.model.detach();
        est
    }

    /// LoRA fine-tuning (the across-more adaptation, Sec. IV-D): freezes
    /// every base weight and trains only the MLP adapters `ΔW = B·A` on the
    /// new data. Runs the same shared batched loop as [`Trainer::fit`]
    /// (distinct shuffle stream), honoring the config's early-stopping
    /// settings. An empty dataset returns [`TrainError::EmptyDataset`] with
    /// the estimator untouched.
    pub fn fine_tune_lora(
        &mut self,
        data: &Dataset,
        epochs: usize,
        lr: f32,
    ) -> Result<(), TrainError> {
        self.fine_tune_lora_with_sink(data, epochs, lr, None)
    }

    /// [`fine_tune_lora`] with per-epoch telemetry: records go to `sink`
    /// under phase `"lora"`, and the config's verbosity gates stderr
    /// progress, exactly as in pre-training.
    ///
    /// [`fine_tune_lora`]: DaceEstimator::fine_tune_lora
    pub fn fine_tune_lora_with_sink(
        &mut self,
        data: &Dataset,
        epochs: usize,
        lr: f32,
        sink: Option<&dyn RunSink>,
    ) -> Result<(), TrainError> {
        if data.is_empty() {
            return Err(TrainError::EmptyDataset);
        }
        self.model.set_mode(LoraMode::Finetune);
        let feats = featurize_sharded(&self.featurizer, &data.plans, self.config.featurize_threads);
        run_epochs(
            &mut self.model,
            &self.adjuster,
            &feats,
            epochs,
            lr,
            self.config.batch_plans,
            self.config.seed ^ 0xF17E,
            self.config.validation_fraction,
            self.config.patience,
            RunTelemetry {
                phase: "lora",
                sink,
                verbosity: self.config.verbosity,
            },
        );
        Ok(())
    }

    /// The incremental fine-tune entry point for online adaptation: LoRA
    /// fine-tune a *copy* of this estimator on `data` and return it,
    /// leaving `self` untouched. This is what a background retrain thread
    /// calls against the currently-serving snapshot — the candidate it
    /// returns goes through shadow evaluation before any registry
    /// promotion, so the serving model must never be mutated in place.
    pub fn fine_tuned_clone(
        &self,
        data: &Dataset,
        epochs: usize,
        lr: f32,
    ) -> Result<DaceEstimator, TrainError> {
        let mut candidate = self.clone();
        candidate.fine_tune_lora(data, epochs, lr)?;
        Ok(candidate)
    }

    /// Serialize to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("estimator serialization cannot fail")
    }

    /// Deserialize from JSON.
    pub fn from_json(json: &str) -> Result<DaceEstimator, serde_json::Error> {
        serde_json::from_str(json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dace_plan::{LabeledPlan, MachineId, NodeType, OpPayload, PlanNode, TreeBuilder};
    use rand::Rng;

    /// Synthetic learnable dataset: latency = f(node type mix, est cost)
    /// with a per-operator multiplier the model must discover.
    fn synthetic_dataset(n: usize, seed: u64) -> Dataset {
        let mut rng = SmallRng::seed_from_u64(seed);
        let plans = (0..n)
            .map(|_| {
                let mut b = TreeBuilder::new();
                let scan_cost = rng.gen_range(10.0..10_000.0f64);
                let scan_rows = scan_cost * rng.gen_range(5.0..15.0);
                let use_hash = rng.gen_bool(0.5);
                let scan = {
                    let mut node = PlanNode::new(NodeType::SeqScan, OpPayload::Other);
                    node.est_cost = scan_cost;
                    node.est_rows = scan_rows;
                    node.actual_ms = scan_cost * 0.004;
                    node.actual_rows = scan_rows;
                    b.leaf(node)
                };
                let scan2 = {
                    let mut node = PlanNode::new(NodeType::IndexScan, OpPayload::Other);
                    node.est_cost = scan_cost * 0.3;
                    node.est_rows = scan_rows * 0.1;
                    node.actual_ms = scan_cost * 0.01; // index 10× slower/unit than est
                    node.actual_rows = scan_rows * 0.1;
                    b.leaf(node)
                };
                let join_ty = if use_hash {
                    NodeType::HashJoin
                } else {
                    NodeType::NestedLoop
                };
                // Hash joins are 2× cheaper per cost unit than nested loops:
                // the operator-dependent EDQO the model must learn.
                let mult = if use_hash { 0.002 } else { 0.02 };
                let root = {
                    let mut node = PlanNode::new(join_ty, OpPayload::Other);
                    node.est_cost = scan_cost * 2.0;
                    node.est_rows = scan_rows;
                    node.actual_ms = scan_cost * 2.0 * mult + scan_cost * 0.014;
                    node.actual_rows = scan_rows;
                    b.internal(node, vec![scan, scan2])
                };
                LabeledPlan {
                    tree: b.finish(root),
                    db_id: 0,
                    machine: MachineId::M1,
                }
            })
            .collect();
        Dataset::from_plans(plans)
    }

    fn median_qerror(est: &DaceEstimator, ds: &Dataset) -> f64 {
        let mut qs: Vec<f64> = ds
            .plans
            .iter()
            .map(|p| {
                let pred = est.predict_ms(&p.tree).max(1e-6);
                let actual = p.latency_ms().max(1e-6);
                (pred / actual).max(actual / pred)
            })
            .collect();
        qs.sort_by(f64::total_cmp);
        qs[qs.len() / 2]
    }

    #[test]
    fn learns_operator_dependent_cost_correction() {
        let train = synthetic_dataset(400, 1);
        let test = synthetic_dataset(100, 2);
        let trainer = Trainer::new(TrainConfig {
            epochs: 60,
            ..Default::default()
        });
        let est = trainer.fit(&train).unwrap();
        let q = median_qerror(&est, &test);
        assert!(
            q < 1.5,
            "median qerror {q} too high — model failed to learn"
        );
    }

    #[test]
    fn subplan_predictions_cover_every_node() {
        let train = synthetic_dataset(50, 3);
        let est = Trainer::new(TrainConfig {
            epochs: 2,
            ..Default::default()
        })
        .fit(&train)
        .unwrap();
        let preds = est.predict_subplans_ms(&train.plans[0].tree);
        assert_eq!(preds.len(), train.plans[0].tree.len());
        assert!(preds.iter().all(|&p| p > 0.0 && p.is_finite()));
    }

    #[test]
    fn lora_fine_tune_adapts_to_shifted_latencies() {
        let train = synthetic_dataset(300, 4);
        let trainer = Trainer::new(TrainConfig {
            epochs: 40,
            ..Default::default()
        });
        let mut est = trainer.fit(&train).unwrap();

        // "Machine 2": every latency is 3× slower.
        let mut shifted = synthetic_dataset(300, 5);
        for p in &mut shifted.plans {
            for id in p.tree.ids().collect::<Vec<_>>() {
                p.tree.node_mut(id).actual_ms *= 3.0;
            }
        }
        let before = median_qerror(&est, &shifted);
        est.fine_tune_lora(&shifted, 40, 2e-3).unwrap();
        let after = median_qerror(&est, &shifted);
        assert!(
            after < before,
            "fine-tuning did not help: {before} → {after}"
        );
        assert!(after < 1.8, "fine-tuned qerror {after} too high");
        // Base weights stayed frozen during fine-tuning, so the original
        // distribution is still predicted sanely through W (ΔW absorbed the
        // shift): check that fine-tuned predictions moved ~3×.
        let p0 = &train.plans[0].tree;
        let pred = est.predict_ms(p0);
        assert!(pred.is_finite() && pred > 0.0);
    }

    #[test]
    fn estimator_roundtrips_through_json() {
        let train = synthetic_dataset(40, 6);
        let est = Trainer::new(TrainConfig {
            epochs: 2,
            ..Default::default()
        })
        .fit(&train)
        .unwrap();
        let json = est.to_json();
        let restored = DaceEstimator::from_json(&json).unwrap();
        let t = &train.plans[0].tree;
        assert!((est.predict_ms(t) - restored.predict_ms(t)).abs() < 1e-9);
        assert_eq!(est.encode(t), restored.encode(t));
    }

    #[test]
    fn training_is_deterministic() {
        let train = synthetic_dataset(60, 7);
        let cfg = TrainConfig {
            epochs: 3,
            ..Default::default()
        };
        let a = Trainer::new(cfg).fit(&train).unwrap();
        let b = Trainer::new(cfg).fit(&train).unwrap();
        let t = &train.plans[0].tree;
        assert_eq!(a.predict_ms(t), b.predict_ms(t));
    }

    /// The per-plan oracle: [`Trainer::fit`]'s schedule (plan order
    /// shuffled once, fixed batch membership, per-epoch batch permutation)
    /// with one single-plan batch per forward/backward, its gradient scaled
    /// by `1 / B` and accumulated across the mini-batch before each
    /// optimizer step.
    fn fit_per_plan(cfg: TrainConfig, train: &Dataset) -> DaceEstimator {
        let featurizer = Featurizer::fit(train, cfg.features);
        let mut model = DaceModel::new(cfg.seed);
        model.set_mode(LoraMode::Pretrain);
        let adjuster = LossAdjuster::new(cfg.alpha);
        let feats: Vec<PlanFeatures> = train
            .plans
            .iter()
            .map(|p| featurizer.encode(&p.tree))
            .collect();
        let mut opt = Adam::new(cfg.lr);
        let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x5417);
        let mut order: Vec<usize> = (0..feats.len()).collect();
        order.shuffle(&mut rng);
        let chunks: Vec<&[usize]> = order.chunks(cfg.batch_plans).collect();
        let mut batch_order: Vec<usize> = (0..chunks.len()).collect();
        for _ in 0..cfg.epochs {
            batch_order.shuffle(&mut rng);
            for &bi in &batch_order {
                let inv_batch = 1.0 / chunks[bi].len() as f32;
                for &i in chunks[bi] {
                    let f = &feats[i];
                    model.forward_batch_compact(&PackedBatch::pack(&[f]).unwrap());
                    let preds = model.batch_preds().as_slice().to_vec();
                    let (_, grad) = adjuster.loss_and_grad(&preds, &f.targets, &f.heights);
                    let d: Vec<f32> = grad.iter().map(|g| g * inv_batch).collect();
                    model.backward_compact(&Tensor2::from_vec(d.len(), 1, d));
                }
                opt.step(&mut model.params_mut());
            }
        }
        DaceEstimator {
            model,
            featurizer,
            adjuster,
            config: cfg,
        }
    }

    #[test]
    fn batched_fit_matches_per_plan_reference() {
        // Two optimizer steps keep floating-point drift between the batched
        // and per-plan loops far below the assertion tolerance; the loops
        // see identical shuffles, batches and initial weights.
        let train = synthetic_dataset(60, 9);
        let cfg = TrainConfig {
            epochs: 2,
            ..Default::default()
        };
        let batched = Trainer::new(cfg).fit(&train).unwrap();
        let reference = fit_per_plan(cfg, &train);
        for p in &train.plans {
            let a = batched.predict_ms(&p.tree).ln();
            let b = reference.predict_ms(&p.tree).ln();
            assert!(
                (a - b).abs() < 1e-3,
                "batched {a} vs per-plan {b} log-ms diverged"
            );
        }
    }

    #[test]
    fn predict_batch_matches_single_plan_predictions() {
        let train = synthetic_dataset(80, 10);
        let est = Trainer::new(TrainConfig {
            epochs: 3,
            ..Default::default()
        })
        .fit(&train)
        .unwrap();
        let trees: Vec<&PlanTree> = train.plans.iter().map(|p| &p.tree).collect();
        let batch = est.predict_batch_ms(&trees);
        assert_eq!(batch.len(), trees.len());
        for (tree, &b) in trees.iter().zip(&batch) {
            let single = est.predict_ms(tree);
            // Same weights, same math up to padded-kernel summation order.
            assert!(
                ((b.ln() - single.ln()).abs()) < 1e-4,
                "batched {b} vs single {single}"
            );
        }
    }

    #[test]
    fn lora_fine_tune_with_zero_lr_is_identity() {
        // Regression: the shared loop must not mutate weights through any
        // side channel (Adam state, packing, mode switches) when lr = 0.
        let train = synthetic_dataset(50, 11);
        let mut est = Trainer::new(TrainConfig {
            epochs: 2,
            ..Default::default()
        })
        .fit(&train)
        .unwrap();
        let before: Vec<f64> = train
            .plans
            .iter()
            .map(|p| est.predict_ms(&p.tree))
            .collect();
        est.fine_tune_lora(&train, 3, 0.0).unwrap();
        let after: Vec<f64> = train
            .plans
            .iter()
            .map(|p| est.predict_ms(&p.tree))
            .collect();
        assert_eq!(before, after, "lr=0 fine-tune changed predictions");
    }

    #[test]
    fn early_stopping_halts_and_restores_best_weights() {
        let train = synthetic_dataset(120, 12);
        let with_es = Trainer::new(TrainConfig {
            epochs: 40,
            validation_fraction: 0.2,
            patience: 2,
            ..Default::default()
        })
        .fit(&train)
        .unwrap();
        // Early stopping must leave a usable model behind.
        let q = median_qerror(&with_es, &train);
        assert!(q.is_finite() && q >= 1.0);
        // And with it disabled the same config still trains the fixed
        // number of epochs and yields identical results run-to-run.
        let a = Trainer::new(TrainConfig {
            epochs: 3,
            validation_fraction: 0.2,
            patience: 2,
            ..Default::default()
        })
        .fit(&train)
        .unwrap();
        let b = Trainer::new(TrainConfig {
            epochs: 3,
            validation_fraction: 0.2,
            patience: 2,
            ..Default::default()
        })
        .fit(&train)
        .unwrap();
        assert_eq!(
            a.predict_ms(&train.plans[0].tree),
            b.predict_ms(&train.plans[0].tree),
            "early stopping broke determinism"
        );
    }

    #[test]
    fn sharded_featurization_matches_sequential() {
        let train = synthetic_dataset(100, 13);
        let f = Featurizer::fit(&train, FeatureConfig::default());
        let seq = featurize_sharded(&f, &train.plans, 1);
        let par = featurize_sharded(&f, &train.plans, 4);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.x, b.x);
            assert_eq!(a.targets, b.targets);
            assert_eq!(a.mask, b.mask);
        }
    }

    #[test]
    fn adapter_extraction_roundtrips_fine_tuned_state() {
        let train = synthetic_dataset(120, 20);
        let trainer = Trainer::new(TrainConfig {
            epochs: 6,
            ..Default::default()
        });
        let base = trainer.fit(&train).unwrap();

        let mut shifted = synthetic_dataset(120, 21);
        for p in &mut shifted.plans {
            for id in p.tree.ids().collect::<Vec<_>>() {
                p.tree.node_mut(id).actual_ms *= 2.0;
            }
        }
        let mut tuned = base.clone();
        tuned.fine_tune_lora(&shifted, 5, 2e-3).unwrap();

        // base + extracted adapter ≡ the fine-tuned estimator, bit-exactly.
        let adapter = tuned.extract_adapter();
        let restored = base.with_adapter(&adapter).unwrap();
        for p in shifted.plans.iter().take(10) {
            assert_eq!(restored.predict_ms(&p.tree), tuned.predict_ms(&p.tree));
        }
        // And the JSON hand-off preserves it exactly too.
        let via_json = LoraAdapter::from_json(&adapter.to_json()).unwrap();
        assert_eq!(via_json, adapter);
        // A wrong-shape adapter is rejected atomically: predictions after a
        // failed install match the untouched base.
        let bad = LoraAdapter {
            layers: adapter.layers[..2].to_vec(),
        };
        assert!(base.with_adapter(&bad).is_err());
    }

    #[test]
    fn serving_clone_predicts_identically_and_stays_tunable() {
        let train = synthetic_dataset(60, 22);
        let est = Trainer::new(TrainConfig {
            epochs: 3,
            ..Default::default()
        })
        .fit(&train)
        .unwrap();
        let mut served = est.serving_clone();
        for p in train.plans.iter().take(8) {
            assert_eq!(served.predict_ms(&p.tree), est.predict_ms(&p.tree));
        }
        let trees: Vec<&PlanTree> = train.plans.iter().map(|p| &p.tree).collect();
        assert_eq!(
            served.predict_batch_ms(&trees),
            est.predict_batch_ms(&trees)
        );
        // Detached state must transparently reallocate when training resumes.
        served.fine_tune_lora(&train, 1, 1e-3).unwrap();
        assert!(served.predict_ms(&train.plans[0].tree).is_finite());
    }

    #[test]
    fn predict_features_batch_matches_tree_batch() {
        let train = synthetic_dataset(70, 23);
        let est = Trainer::new(TrainConfig {
            epochs: 2,
            ..Default::default()
        })
        .fit(&train)
        .unwrap();
        let trees: Vec<&PlanTree> = train.plans.iter().map(|p| &p.tree).collect();
        let feats = featurize_trees_sharded(&est.featurizer, &trees, 4);
        let refs: Vec<&PlanFeatures> = feats.iter().collect();
        assert_eq!(
            est.predict_features_batch_ms(&refs),
            est.predict_batch_ms(&trees)
        );
    }

    #[test]
    fn fingerprints_separate_structure_and_survive_identical_plans() {
        let train = synthetic_dataset(40, 24);
        let f = Featurizer::fit(&train, FeatureConfig::default());
        let a = f.fingerprint(&train.plans[0].tree);
        assert_eq!(
            a,
            f.fingerprint(&train.plans[0].tree.clone()),
            "fingerprint must be deterministic"
        );
        // Different cost profiles ⇒ different fingerprints.
        assert_ne!(a, f.fingerprint(&train.plans[1].tree));
        // A different featurizer (refitted scalers) keys differently, so a
        // base swap can never serve stale cached features.
        let f2 = Featurizer::fit(&synthetic_dataset(40, 25), FeatureConfig::default());
        assert_ne!(a, f2.fingerprint(&train.plans[0].tree));
    }

    #[test]
    fn telemetry_sink_sees_every_epoch_without_perturbing_training() {
        use dace_obs::MemorySink;

        let train = synthetic_dataset(80, 30);
        let cfg = TrainConfig {
            epochs: 4,
            validation_fraction: 0.25,
            patience: 10,
            ..Default::default()
        };
        let silent = Trainer::new(cfg).fit(&train).unwrap();
        let sink = Arc::new(MemorySink::new());
        let observed = Trainer::with_sink(cfg, Arc::clone(&sink) as Arc<dyn RunSink>)
            .fit(&train)
            .unwrap();
        // Telemetry must be a pure observer: bit-identical training.
        assert_eq!(
            silent.predict_ms(&train.plans[0].tree),
            observed.predict_ms(&train.plans[0].tree),
            "attaching a sink changed training"
        );

        let records = sink.records();
        assert_eq!(records.len(), 4, "one record per epoch");
        for (e, r) in records.iter().enumerate() {
            assert_eq!(r.phase, "pretrain");
            assert_eq!(r.epoch, e);
            assert_eq!(r.epochs_planned, 4);
            assert!(r.train_loss.is_finite() && r.train_loss > 0.0);
            assert!(r.grad_norm.is_finite() && r.grad_norm > 0.0);
            assert!(r.epoch_ms >= 0.0);
            let p50 = r.val_qerr_p50.expect("validation split active");
            let p99 = r.val_qerr_p99.expect("validation split active");
            assert!(p50 >= 1.0 && p99 >= p50, "q-error quantiles out of order");
            assert!(r.val_loss.is_some());
            assert!(
                matches!(r.early_stop.as_str(), "improved" | "stop" | "continue")
                    || r.early_stop.starts_with("patience")
            );
        }
        // Loss should broadly improve over the run.
        assert!(
            records.last().unwrap().train_loss < records[0].train_loss,
            "training loss did not decrease"
        );

        // Fine-tuning reports under its own phase.
        let mut est = observed;
        let ft_sink = MemorySink::new();
        est.fine_tune_lora_with_sink(&train, 2, 1e-3, Some(&ft_sink))
            .unwrap();
        let ft = ft_sink.records();
        assert_eq!(ft.len(), 2);
        assert!(ft.iter().all(|r| r.phase == "lora"));
    }

    #[test]
    fn encoder_embeddings_distinguish_plans() {
        let train = synthetic_dataset(100, 8);
        let est = Trainer::new(TrainConfig {
            epochs: 10,
            ..Default::default()
        })
        .fit(&train)
        .unwrap();
        let e1 = est.encode(&train.plans[0].tree);
        let e2 = est.encode(&train.plans[1].tree);
        assert_eq!(e1.len(), crate::model::ENCODING_DIM);
        assert_ne!(e1, e2, "embeddings should differ across plans");
    }
}
