//! Single-head masked self-attention (Eq. 5 of the paper).
//!
//! `Attention(Q,K,V) = softmax(QKᵀ ⊙ M / √d_k) V` with `M` the
//! tree-structured mask: disallowed positions are driven to `-∞` before the
//! softmax, so every node attends to exactly itself and its descendants.
//! DACE uses one head and one layer (Sec. V-A), so no multi-head machinery.
//!
//! The attention math lives in one forward/backward pair over a
//! **block-diagonal** layout: the input is stacked blocks of rows,
//! attention scores are computed only *within* each block, and rows never
//! attend across block boundaries. A packed training mini-batch supplies
//! one variable-length block per plan
//! ([`MaskedSelfAttention::forward_packed_ws`] /
//! [`MaskedSelfAttention::backward_params_ws`]), giving one set of large
//! Q/K/V projections per batch instead of one per plan and per-block score
//! work proportional to each plan's *real* size. The single-plan entry
//! points ([`MaskedSelfAttention::forward_bias`] and friends) are the
//! degenerate case of one block, run through the same two functions.
//!
//! Batched root-latency inference takes a shortcut instead:
//! [`MaskedSelfAttention::forward_roots_into`] computes only each plan's
//! root row, folded to one weighted mean of the input rows.

use serde::{Deserialize, Serialize};

use crate::param::Param;
use crate::tensor::Tensor2;
use crate::workspace::AttnScratch;

/// One plan's rows as the root-row fold reads them: rows
/// `[start, start + len)` of `x`, root first, and the root's mask row over
/// them (empty: the whole plan is attended).
#[derive(Clone, Copy)]
struct RootBlock<'a> {
    x: &'a Tensor2,
    start: usize,
    len: usize,
    mask_row: &'a [bool],
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
    /// Input of the last [`MaskedSelfAttention::forward_bias`] call, taken
    /// by the matching [`MaskedSelfAttention::backward`].
    #[serde(skip)]
    cache_x: Option<Tensor2>,
    /// Scratch of the single-plan entry points; after `forward_bias` it
    /// holds the Q/K/V/probs `backward` reads.
    #[serde(skip)]
    scratch: AttnScratch,
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
            cache_x: None,
            scratch: AttnScratch::default(),
        }
    }

    /// Query/key width (`d_k`) — the softmax scale denominator. Exposed so
    /// the quantized twin reproduces the exact scaling.
    pub fn dk(&self) -> usize {
        self.d_k
    }

    /// Forward pass without caching (inference) over `x` (`n × d`) with
    /// `mask` (`n × n`, row-major; `mask[i*n+j]` = may node `i` attend to
    /// node `j`).
    pub fn forward_inference(&self, x: &Tensor2, mask: &[bool]) -> Tensor2 {
        let bias = mask_to_bias(mask);
        self.forward_bias_inference(x, &bias)
    }

    /// Forward pass with an arbitrary additive score bias (`n × n`,
    /// row-major): `softmax((QKᵀ)/√d_k + bias)`. This generalizes boolean
    /// masking (bias = −∞) and supports QueryFormer-style tree-bias
    /// attention (bias = −λ·distance). Caches for [`backward`]: one
    /// [`forward_packed_ws`] block over the layer's own scratch.
    ///
    /// [`backward`]: MaskedSelfAttention::backward
    /// [`forward_packed_ws`]: MaskedSelfAttention::forward_packed_ws
    pub fn forward_bias(&mut self, x: &Tensor2, bias: &[f32]) -> Tensor2 {
        let mut ws = std::mem::take(&mut self.scratch);
        let mut out = Tensor2::default();
        self.forward_packed_ws(x, &[x.rows()], x.rows(), bias, &mut ws, &mut out);
        self.scratch = ws;
        self.cache_x = Some(x.clone());
        out
    }

    /// Biased forward pass without caching (inference).
    pub fn forward_bias_inference(&self, x: &Tensor2, bias: &[f32]) -> Tensor2 {
        let mut out = Tensor2::default();
        let n = x.rows();
        self.forward_packed_ws(x, &[n], n, bias, &mut AttnScratch::default(), &mut out);
        out
    }

    /// Backward pass of the last [`forward_bias`]: accumulates
    /// dW_Q/dW_K/dW_V through [`backward_params_ws`] and returns dx, the
    /// three back-projections `dQ·W_Qᵀ + dK·W_Kᵀ + dV·W_Vᵀ`.
    ///
    /// [`forward_bias`]: MaskedSelfAttention::forward_bias
    /// [`backward_params_ws`]: MaskedSelfAttention::backward_params_ws
    pub fn backward(&mut self, d_out: &Tensor2) -> Tensor2 {
        let x = self.cache_x.take().expect("backward called before forward");
        let mut ws = std::mem::take(&mut self.scratch);
        self.backward_params_ws(d_out, &x, &[x.rows()], &mut ws);
        let mut dx = ws.dq.matmul_nt(&self.wq.value);
        dx.add_assign(&ws.dk.matmul_nt(&self.wk.value));
        dx.add_assign(&ws.dv.matmul_nt(&self.wv.value));
        self.scratch = ws;
        dx
    }

    /// Variable-length block-diagonal forward pass. `x` holds the blocks'
    /// rows back to back **without padding**: block `b` occupies the next
    /// `lens[b]` rows. `bias` is laid out padded — one `stride × stride`
    /// matrix per block of which only the leading `lens[b] × lens[b]`
    /// corner is read — so a `PackedBatch`-style bias buffer serves the
    /// compact row layout directly.
    ///
    /// Score/softmax/PV work is `Σ lens[b]²`, not `nb · stride²`, and the
    /// Q/K/V projections only touch real rows. Every intermediate lives in
    /// `ws` and the attention output lands in `out`, so steady-state calls
    /// allocate nothing. `ws.{q, k, v, probs}` double as the backward
    /// cache — call [`backward_params_ws`] with the same `ws`.
    ///
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

    /// Backward pass over the Q/K/V/probs a [`forward_packed_ws`] call
    /// left in `ws`: per-block gradients through PV, softmax and the score
    /// product, then dW_Q/dW_K/dW_V accumulation. dQ/dK/dV stay in `ws`;
    /// `dx` is never materialized here — DACE's attention is its first
    /// layer, and [`backward`] adds the projections when a caller needs
    /// them.
    ///
    /// [`forward_packed_ws`]: MaskedSelfAttention::forward_packed_ws
    /// [`backward`]: MaskedSelfAttention::backward
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
        self.roots_into(
            blocks.into_iter().map(|(x, mask)| {
                let l = x.rows();
                assert_eq!(mask.len(), l * l, "mask must be len² per block");
                RootBlock {
                    x,
                    start: 0,
                    len: l,
                    mask_row: &mask[..l],
                }
            }),
            ws,
            out,
        );
    }

    /// [`forward_roots_into`] over plans packed back to back in one compact
    /// tensor from row `row0`: plan `b` is rows
    /// `row0 + [Σ lens[..b], Σ lens[..=b])` of `xc`, root first (DFS order). No masks are read: a tree-masked root attends to
    /// its whole plan, and so does every row of an unmasked plan, so the
    /// root row is always one full interval. Outputs are bit-identical to
    /// [`forward_roots_into`] on the same plans with either mask.
    ///
    /// [`forward_roots_into`]: MaskedSelfAttention::forward_roots_into
    pub fn forward_roots_compact_into(
        &self,
        xc: &Tensor2,
        row0: usize,
        lens: &[usize],
        ws: &mut AttnScratch,
        out: &mut Tensor2,
    ) {
        let blocks = lens.iter().scan(row0, |next, &len| {
            let start = *next;
            *next += len;
            Some(RootBlock {
                x: xc,
                start,
                len,
                mask_row: &[],
            })
        });
        self.roots_into(blocks, ws, out);
    }

    /// The root-row fold behind both entries.
    fn roots_into<'a, I>(&self, blocks: I, ws: &mut AttnScratch, out: &mut Tensor2)
    where
        I: Iterator<Item = RootBlock<'a>> + Clone,
    {
        let d = self.wq.value.rows();
        let nb = blocks.clone().count();
        ws.roots.resize_for_overwrite(nb, d);
        for (b, blk) in blocks.clone().enumerate() {
            assert!(blk.len > 0, "a block needs a root row");
            ws.roots.row_mut(b).copy_from_slice(blk.x.row(blk.start));
        }
        ws.roots.matmul_into(&self.wq.value, &mut ws.q0);
        self.wk.value.transpose_into(&mut ws.wk_t);
        ws.q0.matmul_into(&ws.wk_t, &mut ws.u);
        let scale = 1.0 / (self.d_k as f32).sqrt();
        ws.xbar.resize_zeroed(nb, d);
        for (b, blk) in blocks.enumerate() {
            let mrow = blk.mask_row;
            let (j0, run, interval) = if mrow.is_empty() {
                (0, blk.len, true)
            } else {
                // A fully masked row scores densely with every position
                // masked, which softmaxes to uniform weights — as the bias
                // path does.
                let j0 = mrow.iter().position(|&b| b).unwrap_or(0);
                let allowed = mrow[j0..].iter().take_while(|&&b| b).count();
                let interval = allowed > 0 && !mrow[j0 + allowed..].iter().any(|&b| b);
                let run = if interval { allowed } else { blk.len - j0 };
                (j0, run, interval)
            };
            if ws.srow.len() < run {
                ws.srow.resize(run, 0.0);
            }
            let s = &mut ws.srow[..run];
            ws.u.row_dots_nt(b, blk.x, blk.start + j0, run, s);
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
            Tensor2::row_combine(s, blk.x, blk.start + j0, ws.xbar.row_mut(b));
        }
        ws.xbar.matmul_into(&self.wv.value, out);
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
    fn packed_blocks_match_per_plan_forwards() {
        let attn = MaskedSelfAttention::new(4, 8, 8, 3);
        // Two "plans" of 2 and 3 nodes, compact rows, bias stride 3.
        let xa = Tensor2::uniform(2, 4, 1.0, 7);
        let xb = Tensor2::uniform(3, 4, 1.0, 8);
        let (ma, mb) = (chain_mask(2), chain_mask(3));
        let out_a = attn.forward_inference(&xa, &ma);
        let out_b = attn.forward_inference(&xb, &mb);

        let stride = 3;
        let mut x = Tensor2::zeros(5, 4);
        x.set_row_block(0, &xa);
        x.set_row_block(2, &xb);
        // Bias: MASK_NEG for real tree-masked positions, -inf in the
        // padded corner a shorter block never reads.
        let mut bias = vec![f32::NEG_INFINITY; 2 * stride * stride];
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
        let mut ws = AttnScratch::default();
        let mut out = Tensor2::default();
        attn.forward_packed_ws(&x, &[2, 3], stride, &bias, &mut ws, &mut out);
        for c in 0..8 {
            for r in 0..2 {
                assert!((out.get(r, c) - out_a.get(r, c)).abs() < 1e-5);
            }
            for r in 0..3 {
                assert!((out.get(2 + r, c) - out_b.get(r, c)).abs() < 1e-5);
            }
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
    fn compact_roots_are_bit_identical_to_masked_blocks() {
        let attn = MaskedSelfAttention::new(6, 8, 5, 21);
        let xa = Tensor2::uniform(3, 6, 1.0, 23);
        let xb = Tensor2::uniform(5, 6, 1.0, 24);
        let (ma, mb) = (chain_mask(3), full_mask(5));
        let mut ws = AttnScratch::default();
        let mut want = Tensor2::default();
        attn.forward_roots_into(
            [(&xa, ma.as_slice()), (&xb, mb.as_slice())],
            &mut ws,
            &mut want,
        );
        let mut xc = Tensor2::zeros(8, 6);
        xc.set_row_block(0, &xa);
        xc.set_row_block(3, &xb);
        let mut got = Tensor2::default();
        attn.forward_roots_compact_into(&xc, 0, &[3, 5], &mut ws, &mut got);
        let bits = |t: &Tensor2| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
    }
}
