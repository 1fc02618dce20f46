#![warn(missing_docs)]
//! DACE — the Database-Agnostic Cost Estimator (the paper's contribution).
//!
//! The model corrects the DBMS optimizer's estimated cost into a latency
//! prediction without looking at any data characteristics: each plan node is
//! encoded as `one-hot(node type) ‖ scaled log cost ‖ scaled log cardinality`
//! (d = 18), a single-head tree-masked transformer layer (Eq. 5) mixes each
//! node with its descendants, and a three-layer MLP with LoRA adapters
//! (Eq. 6, 8) predicts the latency of **every sub-plan in parallel**.
//! Training weights each node's loss by `α^height` (Eq. 4, 7) — the
//! tree-structure-based loss adjustment that fixes QPPNet's information
//! redundancy.
//!
//! Entry points:
//! * [`Trainer::fit`] — pre-train on labeled plans from many databases;
//! * [`DaceEstimator::predict_ms`] — zero-shot latency prediction;
//! * [`DaceEstimator::fine_tune_lora`] — the across-more adaptation
//!   (train only `ΔW = B·A`, Sec. IV-D);
//! * [`DaceEstimator::encode`] — the pre-trained-encoder interface that
//!   feeds knowledge integration into within-database models (Eq. 9).

mod adapter;
mod featurize;
mod loss;
mod model;
mod persist;
mod quantized;
mod scoring;
mod trainer;

pub use adapter::{AdapterError, LoraAdapter, LoraLayerWeights};
pub use dace_nn::{Tensor2, Workspace};
pub use featurize::{
    log_feature, node_fingerprint, FeatureConfig, Featurizer, PackedBatch, PlanFeatures,
    FEATURE_DIM,
};
pub use loss::LossAdjuster;
pub use model::{DaceModel, ForwardTimings, ENCODING_DIM};
pub use persist::{
    decode_checkpoint, encode_checkpoint, fnv1a64, load_checkpoint, save_checkpoint,
    CheckpointError, CHECKPOINT_MAGIC,
};
pub use quantized::{QuantWorkspace, QuantizedEstimator, QuantizedModel};
pub use scoring::ScoreSession;
pub use trainer::{
    featurize_trees_sharded, quantile, DaceEstimator, TrainConfig, TrainError, Trainer,
};
