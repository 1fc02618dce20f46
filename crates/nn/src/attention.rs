//! Single-head masked self-attention (Eq. 5 of the paper).
//!
//! `Attention(Q,K,V) = softmax(QKᵀ ⊙ M / √d_k) V` with `M` the
//! tree-structured mask: disallowed positions are driven to `-∞` before the
//! softmax, so every node attends to exactly itself and its descendants.
//! DACE uses one head and one layer (Sec. V-A), so no multi-head machinery.
//!
//! Every pass runs through one **block-diagonal** code path: the input is
//! stacked blocks of rows, attention scores are computed only *within*
//! each block, and rows never attend across block boundaries. A single
//! plan is the degenerate case of one block; a packed mini-batch supplies
//! one variable-length block per plan ([`MaskedSelfAttention::forward_packed`]),
//! giving one set of large Q/K/V projections per batch instead of one per
//! plan and per-block score work proportional to each plan's *real* size.
//!
//! Batched root-latency inference takes a shortcut instead:
//! [`MaskedSelfAttention::forward_roots_into`] computes only each plan's
//! root row, folded to one weighted mean of the input rows.

use serde::{Deserialize, Serialize};

use crate::param::Param;
use crate::tensor::Tensor2;
use crate::workspace::AttnScratch;

fn default_true() -> bool {
    true
}

/// Additive value standing in for `-∞` in masked score positions.
///
/// Kept finite so that a *real* node with every tree position masked would
/// still produce finite probabilities; genuine `-∞` is reserved for padding
/// rows (see [`Tensor2::softmax_rows`]'s fully-masked-row handling).
pub const MASK_NEG: f32 = -1.0e9;

/// Convert a boolean attention mask into an additive score bias.
fn mask_to_bias(mask: &[bool]) -> Vec<f32> {
    mask.iter()
        .map(|&allowed| if allowed { 0.0 } else { MASK_NEG })
        .collect()
}

/// Single-head masked scaled-dot-product self-attention with learned
/// projections `W_Q`, `W_K` (d → d_k) and `W_V` (d → d_v); no biases, as in
/// the paper's Eq. 5.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MaskedSelfAttention {
    /// Query projection, `d × d_k`.
    pub wq: Param,
    /// Key projection, `d × d_k`.
    pub wk: Param,
    /// Value projection, `d × d_v`.
    pub wv: Param,
    d_k: usize,
    #[serde(skip)]
    cache: Option<Cache>,
    /// Train/eval switch: in eval mode the caching forward entry points
    /// route to their inference twins and skip cloning `x` into the cache.
    #[serde(skip, default = "default_true")]
    train: bool,
}

#[derive(Debug, Clone)]
struct Cache {
    x: Tensor2,
    q: Tensor2,
    k: Tensor2,
    v: Tensor2,
    /// Concatenated per-block probability matrices: block `b` contributes
    /// `lens[b]²` row-major softmax values.
    probs: Vec<f32>,
    /// Rows of each attention block (`[x.rows()]` for a single plan).
    lens: Vec<usize>,
}

impl MaskedSelfAttention {
    /// New attention block with `d`-dim inputs, `d_k`-dim queries/keys and
    /// `d_v`-dim values.
    pub fn new(d: usize, d_k: usize, d_v: usize, seed: u64) -> MaskedSelfAttention {
        MaskedSelfAttention {
            wq: Param::xavier(d, d_k, seed),
            wk: Param::xavier(d, d_k, seed ^ 0x5EED_0001),
            wv: Param::xavier(d, d_v, seed ^ 0x5EED_0002),
            d_k,
            cache: None,
            train: true,
        }
    }

    /// Query/key width (`d_k`) — the softmax scale denominator. Exposed so
    /// the quantized twin reproduces the exact scaling.
    pub fn dk(&self) -> usize {
        self.d_k
    }

    /// Switch between training (activations cached for backward) and eval
    /// (no cache clone) behaviour of the caching forward entry points.
    pub fn set_train(&mut self, train: bool) {
        self.train = train;
        if !train {
            self.cache = None;
        }
    }

    /// Forward pass over `x` (`n × d`) with `mask` (`n × n`, row-major;
    /// `mask[i*n+j]` = may node `i` attend to node `j`). Caches for backward.
    pub fn forward(&mut self, x: &Tensor2, mask: &[bool]) -> Tensor2 {
        let bias = mask_to_bias(mask);
        self.forward_bias(x, &bias)
    }

    /// Forward pass without caching (inference).
    pub fn forward_inference(&self, x: &Tensor2, mask: &[bool]) -> Tensor2 {
        let bias = mask_to_bias(mask);
        self.forward_bias_inference(x, &bias)
    }

    /// Forward pass with an arbitrary additive score bias (`n × n`,
    /// row-major): `softmax((QKᵀ)/√d_k + bias)`. This generalizes boolean
    /// masking (bias = −∞) and supports QueryFormer-style tree-bias
    /// attention (bias = −λ·distance). Caches for backward.
    pub fn forward_bias(&mut self, x: &Tensor2, bias: &[f32]) -> Tensor2 {
        self.forward_block_diag(x, x.rows(), bias)
    }

    /// Biased forward pass without caching (inference).
    pub fn forward_bias_inference(&self, x: &Tensor2, bias: &[f32]) -> Tensor2 {
        self.forward_block_diag_inference(x, x.rows(), bias)
    }

    /// Block-diagonal forward pass over a packed batch. `x` is
    /// `(nb · block) × d`: `nb` plans each padded to `block` rows. `bias`
    /// holds one `block × block` additive score matrix per plan,
    /// concatenated (`bias[b·block² + i·block + j]`); padding rows/columns
    /// carry `-∞` so their probabilities vanish. Caches for backward.
    pub fn forward_block_diag(&mut self, x: &Tensor2, block: usize, bias: &[f32]) -> Tensor2 {
        let lens = Self::uniform_lens(x.rows(), block);
        self.forward_packed(x, &lens, block, bias)
    }

    /// Block-diagonal forward pass without caching (inference).
    pub fn forward_block_diag_inference(&self, x: &Tensor2, block: usize, bias: &[f32]) -> Tensor2 {
        let lens = Self::uniform_lens(x.rows(), block);
        self.forward_packed_inference(x, &lens, block, bias)
    }

    fn uniform_lens(n: usize, block: usize) -> Vec<usize> {
        assert!(
            block > 0 && n.is_multiple_of(block),
            "rows must tile into blocks"
        );
        vec![block; n / block]
    }

    /// Variable-length block-diagonal forward pass. `x` holds the blocks'
    /// rows back to back **without padding**: block `b` occupies the next
    /// `lens[b]` rows. `bias` is still laid out padded — one
    /// `stride × stride` matrix per block of which only the leading
    /// `lens[b] × lens[b]` corner is read — so a [`PackedBatch`]-style bias
    /// buffer works for both the padded and the compacted row layouts.
    /// Caches for backward.
    ///
    /// This is the fast path for mini-batch training: score/softmax/PV work
    /// is `Σ lens[b]²`, not `nb · stride²`, and the Q/K/V projections only
    /// touch real rows. Results are bit-identical to the padded layout
    /// because padded score columns carry `-∞` bias (probability exactly
    /// zero) and padded rows are all-masked (softmax row exactly zero).
    pub fn forward_packed(
        &mut self,
        x: &Tensor2,
        lens: &[usize],
        stride: usize,
        bias: &[f32],
    ) -> Tensor2 {
        if !self.train {
            return self.forward_packed_inference(x, lens, stride, bias);
        }
        let (q, k, v, probs) = self.project_packed(x, lens, stride, bias);
        let out = Self::apply_probs(&probs, &v, lens);
        self.cache = Some(Cache {
            x: x.clone(),
            q,
            k,
            v,
            probs,
            lens: lens.to_vec(),
        });
        out
    }

    /// Workspace twin of [`forward_packed`]: every intermediate lives in
    /// `ws` and the attention output lands in `out`, so steady-state calls
    /// allocate nothing. `ws.{q, k, v, probs}` double as the backward
    /// cache — call [`backward_params_ws`] with the same `ws`. Same kernels
    /// and op order as [`forward_packed`], so results are bit-identical.
    ///
    /// [`forward_packed`]: MaskedSelfAttention::forward_packed
    /// [`backward_params_ws`]: MaskedSelfAttention::backward_params_ws
    pub fn forward_packed_ws(
        &self,
        x: &Tensor2,
        lens: &[usize],
        stride: usize,
        bias: &[f32],
        ws: &mut AttnScratch,
        out: &mut Tensor2,
    ) {
        let n = x.rows();
        assert_eq!(n, lens.iter().sum::<usize>(), "lens must cover all rows");
        assert!(
            lens.iter().all(|&l| l <= stride),
            "block longer than bias stride"
        );
        assert_eq!(
            bias.len(),
            lens.len() * stride * stride,
            "bias must be stride² per block"
        );
        x.matmul_into(&self.wq.value, &mut ws.q);
        x.matmul_into(&self.wk.value, &mut ws.k);
        x.matmul_into(&self.wv.value, &mut ws.v);
        let scale = 1.0 / (self.d_k as f32).sqrt();
        ws.probs.clear();
        out.resize_zeroed(n, self.wv.value.cols());
        let mut start = 0;
        for (b, &l) in lens.iter().enumerate() {
            ws.qb.copy_row_block_from(&ws.q, start, l);
            ws.kb.copy_row_block_from(&ws.k, start, l);
            ws.qb.matmul_nt_into(&ws.kb, &mut ws.scores);
            ws.scores.scale(scale);
            let bias_b = &bias[b * stride * stride..(b + 1) * stride * stride];
            for i in 0..l {
                let row = ws.scores.row_mut(i);
                for (s, &bv) in row.iter_mut().zip(&bias_b[i * stride..i * stride + l]) {
                    *s += bv;
                }
            }
            ws.scores.softmax_rows();
            ws.probs.extend_from_slice(ws.scores.as_slice());
            ws.vb.copy_row_block_from(&ws.v, start, l);
            ws.scores.matmul_into(&ws.vb, &mut ws.blk);
            out.set_row_block(start, &ws.blk);
            start += l;
        }
    }

    /// Workspace twin of [`backward_params_only`]: reads the Q/K/V/probs a
    /// [`forward_packed_ws`] call left in `ws` and accumulates
    /// dW_Q/dW_K/dW_V with the same op order (so gradients are
    /// bit-identical), never materializing `dx` — correct because attention
    /// is the model's first layer.
    ///
    /// [`backward_params_only`]: MaskedSelfAttention::backward_params_only
    /// [`forward_packed_ws`]: MaskedSelfAttention::forward_packed_ws
    pub fn backward_params_ws(
        &mut self,
        d_out: &Tensor2,
        x: &Tensor2,
        lens: &[usize],
        ws: &mut AttnScratch,
    ) {
        let n = x.rows();
        assert_eq!(d_out.rows(), n, "d_out must match forward rows");
        let scale = 1.0 / (self.d_k as f32).sqrt();
        ws.dq.resize_zeroed(n, ws.q.cols());
        ws.dk.resize_zeroed(n, ws.k.cols());
        ws.dv.resize_zeroed(n, ws.v.cols());
        let (mut start, mut p) = (0, 0);
        for &l in lens {
            ws.pb.copy_from_slice_shaped(l, l, &ws.probs[p..p + l * l]);
            ws.dob.copy_row_block_from(d_out, start, l);
            ws.vb.copy_row_block_from(&ws.v, start, l);

            // dV_b = P_bᵀ @ dOut_b ; dP_b = dOut_b @ V_bᵀ
            ws.pb.matmul_tn_into(&ws.dob, &mut ws.blk);
            ws.dv.set_row_block(start, &ws.blk);
            ws.dob.matmul_nt_into(&ws.vb, &mut ws.dp);

            // Softmax backward per row: ds = p ⊙ (dp − ⟨dp, p⟩).
            ws.dscores.resize_zeroed(l, l);
            for i in 0..l {
                let p_row = ws.pb.row(i);
                let dp_row = ws.dp.row(i);
                let dot: f32 = p_row.iter().zip(dp_row).map(|(a, b)| a * b).sum();
                let out_row = ws.dscores.row_mut(i);
                for j in 0..l {
                    out_row[j] = p_row[j] * (dp_row[j] - dot) * scale;
                }
            }

            // dQ_b = dS_b @ K_b ; dK_b = dS_bᵀ @ Q_b
            ws.kb.copy_row_block_from(&ws.k, start, l);
            ws.qb.copy_row_block_from(&ws.q, start, l);
            ws.dscores.matmul_into(&ws.kb, &mut ws.blk);
            ws.dq.set_row_block(start, &ws.blk);
            ws.dscores.matmul_tn_into(&ws.qb, &mut ws.blk);
            ws.dk.set_row_block(start, &ws.blk);
            start += l;
            p += l * l;
        }

        if self.wq.trainable {
            x.matmul_tn_into(&ws.dq, &mut ws.gtmp);
            self.wq.grad.add_assign(&ws.gtmp);
        }
        if self.wk.trainable {
            x.matmul_tn_into(&ws.dk, &mut ws.gtmp);
            self.wk.grad.add_assign(&ws.gtmp);
        }
        if self.wv.trainable {
            x.matmul_tn_into(&ws.dv, &mut ws.gtmp);
            self.wv.grad.add_assign(&ws.gtmp);
        }
    }

    /// Variable-length block-diagonal forward pass without caching.
    pub fn forward_packed_inference(
        &self,
        x: &Tensor2,
        lens: &[usize],
        stride: usize,
        bias: &[f32],
    ) -> Tensor2 {
        let (_, _, v, probs) = self.project_packed(x, lens, stride, bias);
        Self::apply_probs(&probs, &v, lens)
    }

    /// Root-row inference: each block's attention output for its **root**
    /// (row 0) only — the one row a root-latency prediction reads.
    /// `blocks` yields one `(x, mask)` pair per plan: its `l × d` node
    /// rows and row-major `l × l` boolean mask. Output row `b` of `out`
    /// (`B × d_v`) is block `b`'s root attention output.
    ///
    /// With no biases and a single head, the root output folds exactly:
    /// `s_j = (x₀·W_Q)·(x_j·W_K) = x_j·u` with `u = W_K·(x₀·W_Q)ᵀ`, so
    /// `out_0 = Σ_j p_j·(x_j·W_V) = x̄·W_V` with `x̄ = Σ_j p_j·x_j` and
    /// `p = softmax_j(s_j/√d_k)` over the root's mask row. That costs
    /// `O(d·d_k + n·d)` per plan instead of three `n`-row projections plus
    /// every node's subtree scores. The fold reassociates float sums, so
    /// results match the all-rows pass ([`forward_inference`]) to f32
    /// rounding, not bit for bit.
    ///
    /// Every step is row-independent — batched [`Tensor2::matmul_into`]
    /// (against a `W_Kᵀ` transposed once per call) for the root query,
    /// the folded key and the value projection, and per-plan
    /// [`Tensor2::row_dots_nt`] / [`Tensor2::row_combine`] calls for the
    /// scores and `x̄` — so a plan's output is bit-identical whatever
    /// else shares its batch. The search memo and the serve feature cache
    /// rely on that.
    ///
    /// Tree masks over DFS-ordered nodes make the root row one interval
    /// (the whole plan), scored without a bias buffer; a non-interval row
    /// (hand-built features only) is scored densely from its first allowed
    /// position with [`MASK_NEG`] added at masked positions, exactly as in
    /// the bias path.
    ///
    /// [`forward_inference`]: MaskedSelfAttention::forward_inference
    pub fn forward_roots_into<'a, I>(&self, blocks: I, ws: &mut AttnScratch, out: &mut Tensor2)
    where
        I: IntoIterator<Item = (&'a Tensor2, &'a [bool])>,
        I::IntoIter: Clone,
    {
        let blocks = blocks.into_iter();
        let d = self.wq.value.rows();
        let nb = blocks.clone().count();
        ws.roots.resize_for_overwrite(nb, d);
        for (b, (x, _)) in blocks.clone().enumerate() {
            assert!(x.rows() > 0, "a block needs a root row");
            ws.roots.row_mut(b).copy_from_slice(x.row(0));
        }
        ws.roots.matmul_into(&self.wq.value, &mut ws.q0);
        self.wk.value.transpose_into(&mut ws.wk_t);
        ws.q0.matmul_into(&ws.wk_t, &mut ws.u);
        let scale = 1.0 / (self.d_k as f32).sqrt();
        ws.xbar.resize_zeroed(nb, d);
        for (b, (x, mask)) in blocks.enumerate() {
            let l = x.rows();
            assert_eq!(mask.len(), l * l, "mask must be len² per block");
            let mrow = &mask[..l];
            // A fully masked row scores densely with every position masked,
            // which softmaxes to uniform weights — as the bias path does.
            let j0 = mrow.iter().position(|&b| b).unwrap_or(0);
            let allowed = mrow[j0..].iter().take_while(|&&b| b).count();
            let interval = allowed > 0 && !mrow[j0 + allowed..].iter().any(|&b| b);
            let run = if interval { allowed } else { l - j0 };
            if ws.srow.len() < run {
                ws.srow.resize(run, 0.0);
            }
            let s = &mut ws.srow[..run];
            ws.u.row_dots_nt(b, x, j0, run, s);
            for v in s.iter_mut() {
                *v *= scale;
            }
            if !interval {
                for (v, &ok) in s.iter_mut().zip(&mrow[j0..]) {
                    if !ok {
                        *v += MASK_NEG;
                    }
                }
            }
            let max = s.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for v in s.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            for v in s.iter_mut() {
                *v /= sum;
            }
            Tensor2::row_combine(s, x, j0, ws.xbar.row_mut(b));
        }
        ws.xbar.matmul_into(&self.wv.value, out);
    }

    /// Shared Q/K/V projection + per-block masked softmax. The projections
    /// are three large matmuls over the whole packed input; scores are
    /// computed block-by-block on each block's `lens[b] × lens[b]` corner,
    /// so the cost is `Σ lens[b]²·d_k`, not `(Σ lens[b])²·d_k`.
    fn project_packed(
        &self,
        x: &Tensor2,
        lens: &[usize],
        stride: usize,
        bias: &[f32],
    ) -> (Tensor2, Tensor2, Tensor2, Vec<f32>) {
        let n = x.rows();
        assert_eq!(n, lens.iter().sum::<usize>(), "lens must cover all rows");
        assert!(
            lens.iter().all(|&l| l <= stride),
            "block longer than bias stride"
        );
        assert_eq!(
            bias.len(),
            lens.len() * stride * stride,
            "bias must be stride² per block"
        );
        let q = x.matmul(&self.wq.value);
        let k = x.matmul(&self.wk.value);
        let v = x.matmul(&self.wv.value);
        let scale = 1.0 / (self.d_k as f32).sqrt();
        let mut probs = Vec::with_capacity(lens.iter().map(|l| l * l).sum());
        let mut start = 0;
        for (b, &l) in lens.iter().enumerate() {
            let qb = q.row_block(start, l);
            let kb = k.row_block(start, l);
            let mut scores = qb.matmul_nt(&kb);
            scores.scale(scale);
            let bias_b = &bias[b * stride * stride..(b + 1) * stride * stride];
            for i in 0..l {
                let row = scores.row_mut(i);
                for (s, &bv) in row.iter_mut().zip(&bias_b[i * stride..i * stride + l]) {
                    *s += bv;
                }
            }
            scores.softmax_rows();
            probs.extend_from_slice(scores.as_slice());
            start += l;
        }
        (q, k, v, probs)
    }

    /// `out_b = P_b @ V_b` for each block.
    fn apply_probs(probs: &[f32], v: &Tensor2, lens: &[usize]) -> Tensor2 {
        let mut out = Tensor2::zeros(v.rows(), v.cols());
        let (mut start, mut p) = (0, 0);
        for &l in lens {
            let pb = Tensor2::from_vec(l, l, probs[p..p + l * l].to_vec());
            let vb = v.row_block(start, l);
            out.set_row_block(start, &pb.matmul(&vb));
            start += l;
            p += l * l;
        }
        out
    }

    /// Backward pass: accumulates dW_Q/dW_K/dW_V and returns dx. Works for
    /// any block structure the forward pass cached. With the padded
    /// (`forward_block_diag`) layout, padding rows (zero input, fully
    /// masked, zero upstream gradient) contribute exactly zero to every
    /// weight gradient because both their probability rows and their
    /// `d_out` rows are zero.
    pub fn backward(&mut self, d_out: &Tensor2) -> Tensor2 {
        let (dq, dk, dv) = self.backward_accumulate(d_out);
        let mut dx = dq.matmul_nt(&self.wq.value);
        dx.add_assign(&dk.matmul_nt(&self.wk.value));
        dx.add_assign(&dv.matmul_nt(&self.wv.value));
        dx
    }

    /// Backward pass that only accumulates the weight gradients, skipping
    /// the three `dx` back-projections. Correct whenever the caller
    /// discards `dx` — i.e. whenever attention is the first layer.
    pub fn backward_params_only(&mut self, d_out: &Tensor2) {
        let _ = self.backward_accumulate(d_out);
    }

    /// Shared backward core: per-block gradients through PV, softmax and
    /// the score product, plus dW_Q/dW_K/dW_V accumulation. Returns
    /// (dQ, dK, dV) for the `dx` projections.
    fn backward_accumulate(&mut self, d_out: &Tensor2) -> (Tensor2, Tensor2, Tensor2) {
        let Cache {
            x,
            q,
            k,
            v,
            probs,
            lens,
        } = self.cache.take().expect("backward called before forward");
        let n = x.rows();
        assert_eq!(d_out.rows(), n, "d_out must match cached rows");
        let scale = 1.0 / (self.d_k as f32).sqrt();

        let mut dq = Tensor2::zeros(n, q.cols());
        let mut dk = Tensor2::zeros(n, k.cols());
        let mut dv = Tensor2::zeros(n, v.cols());
        let (mut start, mut p) = (0, 0);
        for &l in &lens {
            let pb = Tensor2::from_vec(l, l, probs[p..p + l * l].to_vec());
            let d_out_b = d_out.row_block(start, l);
            let vb = v.row_block(start, l);

            // dV_b = P_bᵀ @ dOut_b ; dP_b = dOut_b @ V_bᵀ
            dv.set_row_block(start, &pb.matmul_tn(&d_out_b));
            let dp = d_out_b.matmul_nt(&vb);

            // Softmax backward per row: ds = p ⊙ (dp − ⟨dp, p⟩).
            let mut dscores = Tensor2::zeros(l, l);
            for i in 0..l {
                let p_row = pb.row(i);
                let dp_row = dp.row(i);
                let dot: f32 = p_row.iter().zip(dp_row).map(|(a, b)| a * b).sum();
                let out_row = dscores.row_mut(i);
                for j in 0..l {
                    out_row[j] = p_row[j] * (dp_row[j] - dot) * scale;
                }
            }

            // dQ_b = dS_b @ K_b ; dK_b = dS_bᵀ @ Q_b
            let kb = k.row_block(start, l);
            let qb = q.row_block(start, l);
            dq.set_row_block(start, &dscores.matmul(&kb));
            dk.set_row_block(start, &dscores.matmul_tn(&qb));
            start += l;
            p += l * l;
        }

        if self.wq.trainable {
            self.wq.grad.add_assign(&x.matmul_tn(&dq));
        }
        if self.wk.trainable {
            self.wk.grad.add_assign(&x.matmul_tn(&dk));
        }
        if self.wv.trainable {
            self.wv.grad.add_assign(&x.matmul_tn(&dv));
        }
        (dq, dk, dv)
    }

    /// Mutable references to the projection parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.wq, &mut self.wk, &mut self.wv]
    }

    /// Total scalar parameters.
    pub fn param_count(&self) -> usize {
        self.wq.count() + self.wk.count() + self.wv.count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_mask(n: usize) -> Vec<bool> {
        vec![true; n * n]
    }

    /// Lower-triangular-style tree mask: node 0 sees all, leaves see self.
    fn chain_mask(n: usize) -> Vec<bool> {
        let mut m = vec![false; n * n];
        for i in 0..n {
            for j in i..n {
                m[i * n + j] = true;
            }
        }
        m
    }

    #[test]
    fn masked_rows_ignore_disallowed_positions() {
        let attn = MaskedSelfAttention::new(4, 8, 8, 3);
        let x = Tensor2::uniform(3, 4, 1.0, 7);
        let out_full = attn.forward_inference(&x, &full_mask(3));
        let out_chain = attn.forward_inference(&x, &chain_mask(3));
        // The last node attends only to itself under the chain mask: its
        // output must equal its own value projection.
        let v = x.matmul(&attn.wv.value);
        for c in 0..8 {
            assert!((out_chain.get(2, c) - v.get(2, c)).abs() < 1e-5);
        }
        // And the restricted rows must differ from the fully-attended output
        // (row 0 sees everything under both masks, so compare row 2).
        let differs = (0..8).any(|c| (out_full.get(2, c) - out_chain.get(2, c)).abs() > 1e-6);
        assert!(differs);
    }

    #[test]
    fn changing_a_masked_out_node_does_not_change_output() {
        let attn = MaskedSelfAttention::new(4, 8, 8, 3);
        let mut x = Tensor2::uniform(3, 4, 1.0, 7);
        let mask = chain_mask(3);
        let before = attn.forward_inference(&x, &mask);
        // Node 0 is masked out from node 2's view (mask[2][0] = false) and
        // node 1's view; perturb node 0 and check rows 1, 2 are unchanged.
        x.set(0, 0, x.get(0, 0) + 10.0);
        let after = attn.forward_inference(&x, &mask);
        for r in 1..3 {
            for c in 0..8 {
                assert!(
                    (before.get(r, c) - after.get(r, c)).abs() < 1e-5,
                    "row {r} changed despite mask"
                );
            }
        }
    }

    #[test]
    fn block_diag_matches_per_plan_forwards() {
        let attn = MaskedSelfAttention::new(4, 8, 8, 3);
        // Two "plans": 2 and 3 nodes, padded to block = 3.
        let xa = Tensor2::uniform(2, 4, 1.0, 7);
        let xb = Tensor2::uniform(3, 4, 1.0, 8);
        let ma = chain_mask(2);
        let mb = chain_mask(3);
        let out_a = attn.forward_inference(&xa, &ma);
        let out_b = attn.forward_inference(&xb, &mb);

        let block = 3;
        let mut x = Tensor2::zeros(2 * block, 4);
        for r in 0..2 {
            for c in 0..4 {
                x.set(r, c, xa.get(r, c));
            }
        }
        for r in 0..3 {
            for c in 0..4 {
                x.set(block + r, c, xb.get(r, c));
            }
        }
        // Bias: MASK_NEG for real tree-masked positions, -inf wherever a
        // padding row or column is involved.
        let mut bias = vec![f32::NEG_INFINITY; 2 * block * block];
        for i in 0..2 {
            for j in 0..2 {
                bias[i * block + j] = if ma[i * 2 + j] { 0.0 } else { MASK_NEG };
            }
        }
        for i in 0..3 {
            for j in 0..3 {
                bias[block * block + i * block + j] = if mb[i * 3 + j] { 0.0 } else { MASK_NEG };
            }
        }
        let out = attn.forward_block_diag_inference(&x, block, &bias);
        for r in 0..2 {
            for c in 0..8 {
                assert!((out.get(r, c) - out_a.get(r, c)).abs() < 1e-5);
            }
        }
        for r in 0..3 {
            for c in 0..8 {
                assert!((out.get(block + r, c) - out_b.get(r, c)).abs() < 1e-5);
            }
        }
        // The padding row (fully masked) must come out exactly zero.
        for c in 0..8 {
            assert_eq!(out.get(2, c), 0.0);
        }
    }

    #[test]
    fn root_row_fold_matches_all_rows_row_zero() {
        let attn = MaskedSelfAttention::new(6, 8, 5, 21);
        let x = Tensor2::uniform(4, 6, 1.0, 22);
        // Tree, full, non-interval and fully masked root rows.
        let mut gap = chain_mask(4);
        gap[1] = false;
        let mut blind = chain_mask(4);
        blind[..4].fill(false);
        let masks = [chain_mask(4), full_mask(4), gap, blind];
        let mut ws = AttnScratch::default();
        let mut out = Tensor2::default();
        attn.forward_roots_into(masks.iter().map(|m| (&x, m.as_slice())), &mut ws, &mut out);
        assert_eq!((out.rows(), out.cols()), (masks.len(), 5));
        for (b, m) in masks.iter().enumerate() {
            let want = attn.forward_inference(&x, m);
            for c in 0..5 {
                let (got, want) = (out.get(b, c), want.get(0, c));
                assert!(
                    (got - want).abs() < 1e-5,
                    "mask {b} col {c}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn workspace_packed_pass_matches_caching_path() {
        let mut a = MaskedSelfAttention::new(4, 8, 8, 3);
        let mut b = a.clone();
        // Two blocks of 2 and 3 rows, compact layout, stride 3.
        let x = Tensor2::uniform(5, 4, 1.0, 7);
        let stride = 3;
        let mut bias = vec![f32::NEG_INFINITY; 2 * stride * stride];
        let (ma, mb) = (chain_mask(2), chain_mask(3));
        for i in 0..2 {
            for j in 0..2 {
                bias[i * stride + j] = if ma[i * 2 + j] { 0.0 } else { MASK_NEG };
            }
        }
        for i in 0..3 {
            for j in 0..3 {
                bias[stride * stride + i * stride + j] = if mb[i * 3 + j] { 0.0 } else { MASK_NEG };
            }
        }
        let lens = [2usize, 3];
        let d_out = Tensor2::uniform(5, 8, 1.0, 19);

        let out = a.forward_packed(&x, &lens, stride, &bias);
        a.backward_params_only(&d_out);

        let mut ws = AttnScratch::default();
        let mut out_ws = Tensor2::default();
        b.forward_packed_ws(&x, &lens, stride, &bias, &mut ws, &mut out_ws);
        b.backward_params_ws(&d_out, &x, &lens, &mut ws);

        assert_eq!(out.as_slice(), out_ws.as_slice());
        for (pa, pb) in a.params_mut().iter().zip(b.params_mut().iter()) {
            assert_eq!(pa.grad.as_slice(), pb.grad.as_slice());
        }

        // A second pass through the same (warmed) workspace must agree too.
        b.forward_packed_ws(&x, &lens, stride, &bias, &mut ws, &mut out_ws);
        assert_eq!(out.as_slice(), out_ws.as_slice());
    }

    #[test]
    fn eval_mode_packed_forward_skips_cache() {
        let mut a = MaskedSelfAttention::new(4, 8, 8, 3);
        let x = Tensor2::uniform(3, 4, 1.0, 7);
        let bias = mask_to_bias(&chain_mask(3));
        a.set_train(false);
        let out = a.forward_packed(&x, &[3], 3, &bias);
        assert!(a.cache.is_none());
        assert_eq!(
            out.as_slice(),
            a.forward_packed_inference(&x, &[3], 3, &bias).as_slice()
        );
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut attn = MaskedSelfAttention::new(3, 4, 4, 11);
        let x = Tensor2::uniform(4, 3, 1.0, 17);
        let mask = chain_mask(4);
        let y = attn.forward(&x, &mask);
        let dx = attn.backward(&y); // loss = ||y||²/2

        let eps = 1e-2f32;
        let loss = |attn: &MaskedSelfAttention, x: &Tensor2| {
            0.5 * attn.forward_inference(x, &mask).norm_sq()
        };

        // Check each projection matrix.
        for which in 0..3 {
            let len = match which {
                0 => attn.wq.value.len(),
                1 => attn.wk.value.len(),
                _ => attn.wv.value.len(),
            };
            for idx in 0..len {
                let (orig, ana) = {
                    let p = match which {
                        0 => &attn.wq,
                        1 => &attn.wk,
                        _ => &attn.wv,
                    };
                    (p.value.as_slice()[idx], p.grad.as_slice()[idx])
                };
                let set = |attn: &mut MaskedSelfAttention, v: f32| {
                    let p = match which {
                        0 => &mut attn.wq,
                        1 => &mut attn.wk,
                        _ => &mut attn.wv,
                    };
                    p.value.as_mut_slice()[idx] = v;
                };
                set(&mut attn, orig + eps);
                let lp = loss(&attn, &x);
                set(&mut attn, orig - eps);
                let lm = loss(&attn, &x);
                set(&mut attn, orig);
                let num = (lp - lm) / (2.0 * eps);
                assert!(
                    (num - ana).abs() < 5e-2 * (1.0 + ana.abs()),
                    "W{which}[{idx}]: numeric {num} vs analytic {ana}"
                );
            }
        }
        // Check dx.
        let mut x2 = x.clone();
        for idx in 0..x2.len() {
            let orig = x2.as_slice()[idx];
            x2.as_mut_slice()[idx] = orig + eps;
            let lp = loss(&attn, &x2);
            x2.as_mut_slice()[idx] = orig - eps;
            let lm = loss(&attn, &x2);
            x2.as_mut_slice()[idx] = orig;
            let num = (lp - lm) / (2.0 * eps);
            let ana = dx.as_slice()[idx];
            assert!(
                (num - ana).abs() < 5e-2 * (1.0 + ana.abs()),
                "dx[{idx}]: numeric {num} vs analytic {ana}"
            );
        }
    }
}
