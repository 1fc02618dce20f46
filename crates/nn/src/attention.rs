//! Single-head masked self-attention (Eq. 5 of the paper).
//!
//! `Attention(Q,K,V) = softmax(QKᵀ ⊙ M / √d_k) V` with `M` the
//! tree-structured mask: disallowed positions are driven to `-∞` before the
//! softmax, so every node attends to exactly itself and its descendants.
//! DACE uses one head and one layer (Sec. V-A), so no multi-head machinery.
//!
//! The layer has one stateless forward/backward pair over a
//! **block-diagonal** layout: the input is stacked blocks of rows,
//! attention scores are computed only *within* each block, and rows never
//! attend across block boundaries ([`MaskedSelfAttention::forward_packed_ws`] /
//! [`MaskedSelfAttention::backward_params_ws`]). The mask is an additive
//! score bias ([`MASK_NEG`] where a node may not attend, or any other
//! bias, such as QueryFormer's `−λ·distance`). A single plan is one block.
//! The caller owns the scratch ([`AttnScratch`]) that carries Q/K/V and
//! the probabilities from the forward to the backward, and the input the
//! backward takes. The backward leaves `dQ`/`dK`/`dV` in the scratch; a
//! caller that needs `dx` forms `dQ·W_Qᵀ + dK·W_Kᵀ + dV·W_Vᵀ` itself.
//!
//! DACE runs neither: its attention output feeds `l1` with no nonlinearity
//! in between, so the model crate folds these weights, with the MLP's, into
//! an 18-dimensional twin for training and inference alike.

use serde::{Deserialize, Serialize};

use crate::param::Param;
use crate::tensor::Tensor2;
use crate::workspace::AttnScratch;

/// Additive value standing in for `-∞` in masked score positions.
///
/// Kept finite so that a *real* node with every tree position masked would
/// still produce finite probabilities; genuine `-∞` is reserved for padding
/// rows (see [`Tensor2::softmax_rows`]'s fully-masked-row handling).
pub const MASK_NEG: f32 = -1.0e9;

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
        }
    }

    /// Query/key width (`d_k`) — the softmax scale denominator. Exposed so
    /// the folded and quantized inference twins reproduce the exact scaling.
    pub fn dk(&self) -> usize {
        self.d_k
    }

    /// Variable-length block-diagonal forward pass:
    /// `softmax(QKᵀ/√d_k + bias)·V` within each block. `x` holds the
    /// blocks' rows back to back **without padding**: block `b` occupies
    /// the next `lens[b]` rows. `bias` is laid out padded — one
    /// `stride × stride` matrix per block of which only the leading
    /// `lens[b] × lens[b]` corner is read — so a `PackedBatch`-style bias
    /// buffer serves the compact row layout directly. One plan is
    /// `lens = [n]`, `stride = n` and an `n × n` bias.
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
    /// left in `ws`, with `x` that call's input: per-block gradients
    /// through PV, softmax and the score product, then dW_Q/dW_K/dW_V
    /// accumulation. dQ/dK/dV stay in `ws`; `dx` is never materialized
    /// here, so a caller that needs it adds the three back-projections
    /// `dQ·W_Qᵀ + dK·W_Kᵀ + dV·W_Vᵀ` itself.
    ///
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

    /// One plan's attention: a single block under `mask` as a
    /// [`MASK_NEG`] bias.
    fn attend(attn: &MaskedSelfAttention, x: &Tensor2, mask: &[bool]) -> Tensor2 {
        let bias: Vec<f32> = mask
            .iter()
            .map(|&ok| if ok { 0.0 } else { MASK_NEG })
            .collect();
        let (n, mut out) = (x.rows(), Tensor2::default());
        attn.forward_packed_ws(x, &[n], n, &bias, &mut AttnScratch::default(), &mut out);
        out
    }

    #[test]
    fn masked_rows_ignore_disallowed_positions() {
        let attn = MaskedSelfAttention::new(4, 8, 8, 3);
        let x = Tensor2::uniform(3, 4, 1.0, 7);
        let out_full = attend(&attn, &x, &full_mask(3));
        let out_chain = attend(&attn, &x, &chain_mask(3));
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
        let before = attend(&attn, &x, &mask);
        // Node 0 is masked out from node 2's view (mask[2][0] = false) and
        // node 1's view; perturb node 0 and check rows 1, 2 are unchanged.
        x.set(0, 0, x.get(0, 0) + 10.0);
        let after = attend(&attn, &x, &mask);
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
        let out_a = attend(&attn, &xa, &ma);
        let out_b = attend(&attn, &xb, &mb);

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
}
