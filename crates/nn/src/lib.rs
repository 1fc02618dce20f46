#![warn(missing_docs)]
//! A micro deep-learning library: just enough to train DACE and the
//! baselines, from scratch, with no native dependencies.
//!
//! The paper's models are small (DACE is ~30k parameters), so instead of
//! binding a tensor framework this crate implements row-major `f32` matrices
//! ([`Tensor2`]) and a handful of modules with *explicit* forward/backward
//! passes: [`Linear`], [`LoraLinear`] (Low-Rank Adaptation, Eq. 8 of the
//! paper), [`Relu`], and single-head [`MaskedSelfAttention`] (Eq. 5).
//!
//! Every layer is stateless: one forward, and one backward that takes what
//! the forward read or left (its input, the ReLU's output, or the
//! attention's [`AttnScratch`]), so a layer can run any number of times
//! before its backward passes and holds no forward cache. Attention runs
//! over stacked blocks of rows (one block per plan) with an additive score
//! bias; a single plan is one block.
//!
//! Optimization is [`Adam`] with gradient clipping; featurization helpers
//! ([`RobustScaler`], one-hot) round out the kit.
//!
//! Every module's backward pass is verified against central finite
//! differences in the test suite — the from-scratch substitute for trusting
//! a framework's autograd.

mod adam;
mod attention;
mod linear;
mod param;
mod quant;
mod relu;
mod scaler;
mod tensor;
mod workspace;

pub use adam::{Adam, AdamUpdate};
pub use attention::{MaskedSelfAttention, MASK_NEG};
pub use linear::{Linear, LoraLinear, LoraMode};
pub use param::Param;
pub use quant::{QuantRows, QuantScratch, QuantizedAttention, QuantizedLinear, QuantizedMatrix};
pub use relu::Relu;
pub use scaler::RobustScaler;
pub use tensor::{softmax_in_place, Tensor2};
pub use workspace::{AttnScratch, Workspace};

/// Seeded Xavier/Glorot-uniform initialization bound for a `fan_in × fan_out`
/// weight matrix.
pub fn xavier_bound(fan_in: usize, fan_out: usize) -> f32 {
    (6.0 / (fan_in + fan_out) as f32).sqrt()
}
