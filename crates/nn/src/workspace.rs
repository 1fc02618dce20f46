//! Reusable scratch arenas for allocation-free forward/backward passes.
//!
//! Every buffer is a plain [`Tensor2`] (or `Vec`) reshaped in place via
//! [`Tensor2::resize_zeroed`] and friends: the first pass grows each buffer
//! to its high-water capacity, after which steady-state training epochs and
//! serving batches stop touching the allocator entirely. The arena doubles
//! as the layer-activation cache — forward passes leave attention state
//! (Q/K/V and probabilities for [`crate::MaskedSelfAttention`], `x̄` and
//! probabilities for DACE's folded pass) and the MLP activations here, and
//! backward passes read them back instead of per-layer `x.clone()` caches.

use crate::tensor::Tensor2;

/// Attention-layer scratch: projections and per-block temporaries that
/// persist from a packed forward pass to the matching backward pass.
/// [`crate::MaskedSelfAttention`]'s packed passes use the Q/K/V fields;
/// DACE's folded passes use only `probs`, `roots`, `u`, `xbar` and `srow`.
#[derive(Debug, Clone, Default)]
pub struct AttnScratch {
    /// Query projection of the whole packed input (forward → backward).
    pub q: Tensor2,
    /// Key projection (forward → backward).
    pub k: Tensor2,
    /// Value projection (forward → backward).
    pub v: Tensor2,
    /// Concatenated softmax probabilities (forward → backward): block `b`
    /// of a packed pass contributes `lens[b]²` values, and each row of
    /// DACE's all-rows pass one value per position of its span.
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
    /// Folded keys `u = x·M`, where `M = W_Q·W_Kᵀ/√d_k`: one row per root
    /// (root-row inference, `B × d`) or per node (the all-rows pass,
    /// `n × d`).
    pub u: Tensor2,
    /// Attention-weighted input means `x̄ = Σ_j p_j·x_j`, one row per root
    /// or per node like `u` (all rows: forward → backward).
    pub xbar: Tensor2,
    /// Root-row inference: one plan's root score row. The all-rows
    /// backward reuses it for one row's `dP` over its span.
    pub srow: Vec<f32>,
}

/// The full model scratch arena threaded through DACE's folded passes: the
/// all-rows training forward/backward and the serving root-row forward.
/// The all-rows pass keeps its attention state (`x̄`, probabilities) in
/// [`AttnScratch`] and the MLP activations here.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Attention sub-arena.
    pub attn: AttnScratch,
    /// Compact input of the last batched forward (the backward's `x`).
    pub xc: Tensor2,
    /// Each row's attention span `(start, end)` in `xc`'s rows, of the last
    /// batched forward.
    pub spans: Vec<(usize, usize)>,
    /// First hidden activation (post-ReLU; the sign lives in `mask1`).
    pub h1: Tensor2,
    /// Second hidden activation (post-ReLU).
    pub h2: Tensor2,
    /// Final predictions of the last forward pass.
    pub preds: Tensor2,
    /// ReLU sign mask after layer 1.
    pub mask1: Vec<bool>,
    /// ReLU sign mask after layer 2.
    pub mask2: Vec<bool>,
    /// Gradient at the second hidden layer, `dH₂` (backward).
    pub d1: Tensor2,
    /// Gradient at the first hidden layer, `dH₁` (backward).
    pub d2: Tensor2,
    /// Gradient at the attention means, `dX̄ = dH₁·(W_V·W₁')ᵀ` (backward).
    pub dxbar: Tensor2,
    /// Per-row `dS·X` products, stacked (backward): `dM = Xᵀ·(dS·X)`.
    pub dsx: Tensor2,
    /// Gradient of `l1`'s merged weight, `W_Vᵀ·G` (backward).
    pub gw: Tensor2,
    /// Parameter-gradient product scratch (backward).
    pub gtmp: Tensor2,
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
