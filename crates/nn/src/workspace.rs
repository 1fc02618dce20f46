//! Reusable scratch arenas for allocation-free forward/backward passes.
//!
//! Every buffer is a plain [`Tensor2`] (or `Vec`) reshaped in place via
//! [`Tensor2::resize_zeroed`] and friends: the first pass grows each buffer
//! to its high-water capacity, after which steady-state training epochs and
//! serving batches stop touching the allocator entirely. The arena doubles
//! as the layer-activation cache — forward passes leave attention state
//! (Q/K/V and probabilities in [`AttnScratch`] for
//! [`crate::MaskedSelfAttention`], `x̄` and probabilities in [`Workspace`]
//! for DACE's folded pass) and the MLP activations here, and backward
//! passes read them back instead of per-layer `x.clone()` caches.

use crate::tensor::Tensor2;

/// [`crate::MaskedSelfAttention`]'s scratch: projections and per-block
/// temporaries that persist from a packed forward pass to the matching
/// backward pass.
#[derive(Debug, Clone, Default)]
pub struct AttnScratch {
    /// Query projection of the whole packed input (forward → backward).
    pub q: Tensor2,
    /// Key projection (forward → backward).
    pub k: Tensor2,
    /// Value projection (forward → backward).
    pub v: Tensor2,
    /// Concatenated softmax probabilities (forward → backward): block `b`
    /// of a packed pass contributes `lens[b]²` values.
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
}

/// The full model scratch arena threaded through DACE's folded passes: the
/// all-rows training forward/backward and the serving root-row forward.
/// Both keep their attention state (`x̄`, probabilities) and the MLP
/// activations here.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Softmax probabilities of the all-rows pass (forward → backward):
    /// each row contributes one value per position of its span.
    pub probs: Vec<f32>,
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
    /// Compact input of the last batched forward (the backward's `x`).
    pub xc: Tensor2,
    /// Each row's attention span `(start, end)` in `xc`'s rows, of the last
    /// batched forward.
    pub spans: Vec<(usize, usize)>,
    /// First hidden activation (post-ReLU; the backward reads the ReLU's
    /// sign from it).
    pub h1: Tensor2,
    /// Second hidden activation (post-ReLU; the backward reads the ReLU's
    /// sign from it).
    pub h2: Tensor2,
    /// Final predictions of the last forward pass.
    pub preds: Tensor2,
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

    /// Grow every buffer's capacity to at least `other`'s, so this
    /// workspace runs whatever `other` has run without allocating. Threads
    /// that take turns at the same work use it to share one high-water
    /// mark.
    pub fn reserve_like(&mut self, other: &Workspace) {
        let Workspace {
            probs,
            roots,
            u,
            xbar,
            srow,
            xc,
            spans,
            h1,
            h2,
            preds,
            d1,
            d2,
            dxbar,
            dsx,
            gw,
            gtmp,
        } = self;
        for (t, o) in [
            (roots, &other.roots),
            (u, &other.u),
            (xbar, &other.xbar),
            (xc, &other.xc),
            (h1, &other.h1),
            (h2, &other.h2),
            (preds, &other.preds),
            (d1, &other.d1),
            (d2, &other.d2),
            (dxbar, &other.dxbar),
            (dsx, &other.dsx),
            (gw, &other.gw),
            (gtmp, &other.gtmp),
        ] {
            t.reserve_like(o);
        }
        reserve_vec_like(probs, &other.probs);
        reserve_vec_like(srow, &other.srow);
        reserve_vec_like(spans, &other.spans);
    }
}

/// Grow `v`'s capacity to at least `other`'s.
fn reserve_vec_like<T>(v: &mut Vec<T>, other: &Vec<T>) {
    v.reserve_exact(other.capacity().saturating_sub(v.len()));
}

impl Clone for Workspace {
    /// Model snapshots (e.g. early stopping's best-weights copy) must not
    /// duplicate megabytes of scratch: clones start with an empty arena.
    fn clone(&self) -> Workspace {
        Workspace::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_like_takes_the_larger_capacity() {
        let mut big = Workspace::new();
        big.h1.resize_zeroed(300, 128);
        big.probs.resize(900, 0.0);
        big.spans.resize(300, (0, 0));
        let mut small = Workspace::new();
        small.h1.resize_zeroed(10, 128);
        small.reserve_like(&big);
        assert_eq!(
            (small.h1.rows(), small.h1.cols()),
            (10, 128),
            "contents are kept"
        );
        assert!(small.probs.capacity() >= 900);
        assert!(small.spans.capacity() >= 300);
        // Growing to `big`'s size keeps the buffer where it is.
        let at = small.h1.as_slice().as_ptr();
        small.h1.resize_zeroed(300, 128);
        assert_eq!(small.h1.as_slice().as_ptr(), at);
        let at = big.h1.as_slice().as_ptr();
        big.reserve_like(&small);
        assert_eq!(
            big.h1.as_slice().as_ptr(),
            at,
            "a larger buffer is left alone"
        );
    }
}
