//! Reusable scratch arenas for allocation-free forward/backward passes.
//!
//! Every buffer is a plain [`Tensor2`] (or `Vec`) reshaped in place via
//! [`Tensor2::resize_zeroed`] and friends: the first pass grows each buffer
//! to its high-water capacity, after which steady-state training epochs and
//! serving batches stop touching the allocator entirely. The arena doubles
//! as the layer-activation cache — forward passes leave Q/K/V/probs and the
//! MLP activations here and backward passes read them back, replacing the
//! per-layer `x.clone()` caches of the reference path.

use crate::tensor::Tensor2;

/// Attention-layer scratch: projections and per-block temporaries that
/// persist from a packed forward pass to the matching backward pass.
#[derive(Debug, Default)]
pub struct AttnScratch {
    /// Query projection of the whole packed input (forward → backward).
    pub q: Tensor2,
    /// Key projection (forward → backward).
    pub k: Tensor2,
    /// Value projection (forward → backward).
    pub v: Tensor2,
    /// Concatenated per-block softmax probabilities; block `b` contributes
    /// `lens[b]²` values (forward → backward).
    pub probs: Vec<f32>,
    /// Per-block row copy of `q`.
    pub qb: Tensor2,
    /// Per-block row copy of `k`.
    pub kb: Tensor2,
    /// Per-block row copy of `v`.
    pub vb: Tensor2,
    /// Per-block score / probability matrix (forward).
    pub scores: Tensor2,
    /// Per-block matmul product, scattered into the packed output.
    pub blk: Tensor2,
    /// Per-block probability matrix rebuilt from `probs` (backward).
    pub pb: Tensor2,
    /// Per-block upstream-gradient row copy (backward).
    pub dob: Tensor2,
    /// Per-block `dP` (backward).
    pub dp: Tensor2,
    /// Per-block `dScores` (backward).
    pub dscores: Tensor2,
    /// Packed `dQ` (backward).
    pub dq: Tensor2,
    /// Packed `dK` (backward).
    pub dk: Tensor2,
    /// Packed `dV` (backward).
    pub dv: Tensor2,
    /// Parameter-gradient product scratch (`xᵀ dQ` etc., backward).
    pub gtmp: Tensor2,
    /// Root-row inference: each block's root input row (`B × d`).
    pub roots: Tensor2,
    /// Root-row inference: root queries `x₀·W_Q` (`B × d_k`).
    pub q0: Tensor2,
    /// Root-row inference: `W_Kᵀ`, transposed once per call (`d_k × d`).
    pub wk_t: Tensor2,
    /// Root-row inference: folded keys `u = (x₀·W_Q)·W_Kᵀ` (`B × d`).
    pub u: Tensor2,
    /// Root-row inference: attention-weighted input means `x̄` (`B × d`).
    pub xbar: Tensor2,
    /// Root-row inference: one plan's root score row.
    pub srow: Vec<f32>,
}

/// The full model scratch arena threaded through the batched compact
/// forward/backward and the per-worker serving forward path.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Attention sub-arena.
    pub attn: AttnScratch,
    /// Compact input of the last batched forward (the backward's `x`).
    pub xc: Tensor2,
    /// Block lengths of the last batched forward.
    pub lens: Vec<usize>,
    /// Attention output (the MLP's input).
    pub attn_out: Tensor2,
    /// First hidden activation (post-ReLU; the sign lives in `mask1`).
    pub h1: Tensor2,
    /// Second hidden activation (post-ReLU).
    pub h2: Tensor2,
    /// Final predictions of the last forward pass.
    pub preds: Tensor2,
    /// LoRA intermediate `x @ B` of layer 1 (forward → backward).
    pub xb1: Tensor2,
    /// LoRA intermediate of layer 2.
    pub xb2: Tensor2,
    /// LoRA intermediate of layer 3.
    pub xb3: Tensor2,
    /// ReLU sign mask after layer 1.
    pub mask1: Vec<bool>,
    /// ReLU sign mask after layer 2.
    pub mask2: Vec<bool>,
    /// Shared matmul temporary for the LoRA forward/backward.
    pub tmp: Tensor2,
    /// Gradient ping buffer.
    pub d1: Tensor2,
    /// Gradient pong buffer.
    pub d2: Tensor2,
    /// `d(x @ B)` scratch (backward).
    pub dxb: Tensor2,
    /// Parameter-gradient product scratch (backward).
    pub gtmp: Tensor2,
    /// Root attention outputs of root-row inference (the MLP's input).
    pub heads: Tensor2,
}

impl Workspace {
    /// Empty workspace; buffers grow to their high-water marks on first use.
    pub fn new() -> Workspace {
        Workspace::default()
    }
}

impl Clone for Workspace {
    /// Model snapshots (e.g. early stopping's best-weights copy) must not
    /// duplicate megabytes of scratch: clones start with an empty arena.
    fn clone(&self) -> Workspace {
        Workspace::default()
    }
}
