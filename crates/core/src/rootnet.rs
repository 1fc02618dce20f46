//! The folded root-row network: the one forward path of batched inference.
//!
//! Inference reads only the root's prediction (Sec. V-E). DACE's attention
//! is a single bias-free head (Eq. 5) whose output feeds `l1` with no
//! nonlinearity in between, so for the root row the whole network collapses
//! exactly into a few small matrices over the `d = 18` input features:
//!
//! * `M = W_Q·W_Kᵀ/√d_k` (`d × d`): the root's score for node `j` is
//!   `s_j = (x₀·W_Q)·(x_j·W_K)/√d_k = (x₀·M)·x_j`;
//! * `W_V·W₁'` (`d × 128`) with `W₁' = W₁ + B₁A₁`: the root's attention
//!   output is `x̄·W_V` with `x̄ = Σ_j p_j·x_j`, and it reaches the first
//!   ReLU only through `l1`, so `x̄·(W_V·W₁') + b₁` is exact;
//! * `W₂' = W₂ + B₂A₂` and `W₃' = W₃ + B₃A₃`: each LoRA adapter merged
//!   into its base weight once instead of applied on every call.
//!
//! A plan then costs `d² + 128·d + 64·128 + 64` ≈ 10.9k multiply-adds plus
//! `2d` per node (its score and its share of `x̄`), against ≈43.3k plus `2d`
//! per node for the unfolded projections and LoRA layers. The fold
//! reassociates float sums, so predictions match the all-rows
//! [`DaceModel::predict_root`] to f32 rounding, not bit for bit.
//!
//! [`DaceModel::predict_root`]: crate::DaceModel::predict_root

use std::sync::OnceLock;
use std::time::Instant;

use dace_nn::{AttnScratch, LoraLinear, MaskedSelfAttention, Relu, Tensor2, Workspace, MASK_NEG};

use crate::model::ForwardTimings;

/// One plan's rows as the root-row pass reads them: rows
/// `[start, start + len)` of `x`, root first, and the root's mask row over
/// them (empty: the whole plan is attended).
#[derive(Clone, Copy)]
pub(crate) struct RootBlock<'a> {
    pub(crate) x: &'a Tensor2,
    pub(crate) start: usize,
    pub(crate) len: usize,
    pub(crate) mask_row: &'a [bool],
}

/// The root-row twin of a [`DaceModel`](crate::DaceModel)'s weights, folded
/// once per set of weights (see the module docs). Built and cached by
/// [`DaceModel::root_net`](crate::DaceModel::root_net).
#[derive(Debug)]
pub struct RootNet {
    /// `W_Q·W_Kᵀ/√d_k`, `d × d`.
    m: Tensor2,
    /// `W_V·(W₁ + B₁A₁)`, `d × 128`.
    wv1: Tensor2,
    b1: Vec<f32>,
    /// `W₂ + B₂A₂`, `128 × 64`.
    w2: Tensor2,
    b2: Vec<f32>,
    /// `W₃ + B₃A₃`, `64 × 1`.
    w3: Tensor2,
    b3: Vec<f32>,
}

impl RootNet {
    /// Fold an attention layer and the three LoRA MLP layers it feeds.
    pub(crate) fn fold(attention: &MaskedSelfAttention, layers: [&LoraLinear; 3]) -> RootNet {
        let [l1, l2, l3] = layers;
        let mut m = attention.wq.value.matmul_nt(&attention.wk.value);
        m.scale(1.0 / (attention.dk() as f32).sqrt());
        let bias = |l: &LoraLinear| l.b.value.row(0).to_vec();
        RootNet {
            m,
            wv1: attention.wv.value.matmul(&l1.merged_weight()),
            b1: bias(l1),
            w2: l2.merged_weight(),
            b2: bias(l2),
            w3: l3.merged_weight(),
            b3: bias(l3),
        }
    }

    /// Root log-latency of every block, appended to `out`, with the
    /// attention/MLP wall-time split.
    ///
    /// Every step is row-independent: batched [`Tensor2::matmul_into`] for
    /// the folded keys and the three layers, and per-plan
    /// [`Tensor2::row_dots_nt`] / [`Tensor2::row_combine`] calls for the
    /// scores and `x̄`. So a plan's prediction is bit-identical whatever
    /// else shares its batch; the search memo and the serve feature cache
    /// rely on that. Scratch lives in `ws`, so once its buffers reach the
    /// high-water batch size, repeated calls stop touching the allocator.
    pub(crate) fn forward<'a, I>(
        &self,
        blocks: I,
        ws: &mut Workspace,
        out: &mut Vec<f32>,
    ) -> ForwardTimings
    where
        I: Iterator<Item = RootBlock<'a>> + Clone,
    {
        let t_attn = Instant::now();
        self.root_means(blocks, &mut ws.attn);
        let attention_us = t_attn.elapsed().as_micros() as u64;
        let t_mlp = Instant::now();
        ws.attn.xbar.matmul_into(&self.wv1, &mut ws.h1);
        ws.h1.add_row_broadcast(&self.b1);
        Relu::relu_in_place(&mut ws.h1);
        ws.h1.matmul_into(&self.w2, &mut ws.h2);
        ws.h2.add_row_broadcast(&self.b2);
        Relu::relu_in_place(&mut ws.h2);
        ws.h2.matmul_into(&self.w3, &mut ws.preds);
        ws.preds.add_row_broadcast(&self.b3);
        let mlp_us = t_mlp.elapsed().as_micros() as u64;
        out.extend_from_slice(ws.preds.as_slice());
        ForwardTimings {
            attention_us,
            mlp_us,
        }
    }

    /// Each block's attention-weighted input mean `x̄` into `ws.xbar`
    /// (`B × d`): scores `s_j = (x₀·M)·x_j` over the root's mask row, then
    /// `x̄ = Σ_j softmax(s)_j·x_j`.
    ///
    /// Tree masks over DFS-ordered nodes make the root row one interval
    /// (the whole plan), scored without a bias buffer. A non-interval row
    /// (hand-built features only) is scored densely from its first allowed
    /// position with [`MASK_NEG`] added at masked positions, exactly as in
    /// the all-rows bias path; a fully masked row softmaxes to uniform
    /// weights, as it does there.
    fn root_means<'a, I>(&self, blocks: I, ws: &mut AttnScratch)
    where
        I: Iterator<Item = RootBlock<'a>> + Clone,
    {
        let d = self.m.rows();
        let nb = blocks.clone().count();
        ws.roots.resize_zeroed(nb, d);
        for (b, blk) in blocks.clone().enumerate() {
            assert!(blk.len > 0, "a block needs a root row");
            ws.roots.row_mut(b).copy_from_slice(blk.x.row(blk.start));
        }
        ws.roots.matmul_into(&self.m, &mut ws.u);
        ws.xbar.resize_zeroed(nb, d);
        for (b, blk) in blocks.enumerate() {
            let mrow = blk.mask_row;
            let (j0, run, interval) = if mrow.is_empty() {
                (0, blk.len, true)
            } else {
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
    }
}

/// A model's lazily folded [`RootNet`]. `Default`, `Clone` and
/// deserialization all give an empty cell, so every copy folds its own
/// weights on first use, and the owning model empties it on every path
/// that can change a weight.
#[derive(Debug, Default)]
pub(crate) struct RootCell(OnceLock<RootNet>);

impl RootCell {
    /// The cached twin, folded by `fold` on first use.
    pub(crate) fn get_or_fold(&self, fold: impl FnOnce() -> RootNet) -> &RootNet {
        self.0.get_or_init(fold)
    }

    /// Drop the cached twin: its weights are about to change.
    pub(crate) fn clear(&mut self) {
        self.0.take();
    }
}

impl Clone for RootCell {
    fn clone(&self) -> RootCell {
        RootCell::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_mask(n: usize) -> Vec<bool> {
        let mut m = vec![false; n * n];
        for i in 0..n {
            for j in i..n {
                m[i * n + j] = true;
            }
        }
        m
    }

    fn layers(seed: u64) -> [LoraLinear; 3] {
        let mut ls = [
            LoraLinear::new(5, 128, 4, seed),
            LoraLinear::new(128, 64, 4, seed ^ 1),
            LoraLinear::new(64, 1, 4, seed ^ 2),
        ];
        // Non-zero adapters and biases, so the merge is exercised.
        for (i, l) in ls.iter_mut().enumerate() {
            let (r, c) = (l.lora_a.value.rows(), l.lora_a.value.cols());
            l.lora_a.value = Tensor2::uniform(r, c, 0.3, seed ^ (10 + i as u64));
            l.b.value = Tensor2::uniform(1, c, 0.3, seed ^ (20 + i as u64));
        }
        ls
    }

    /// The unfolded reference: all-rows attention, then the three LoRA
    /// layers on row 0.
    fn unfolded(attn: &MaskedSelfAttention, ls: &[LoraLinear; 3], x: &Tensor2, m: &[bool]) -> f32 {
        let a = attn.forward_inference(x, m).row_block(0, 1);
        let mut h1 = ls[0].forward_inference(&a);
        Relu::relu_in_place(&mut h1);
        let mut h2 = ls[1].forward_inference(&h1);
        Relu::relu_in_place(&mut h2);
        ls[2].forward_inference(&h2).get(0, 0)
    }

    fn masked_blocks<'a>(
        items: &'a [(Tensor2, Vec<bool>)],
    ) -> impl Iterator<Item = RootBlock<'a>> + Clone {
        items.iter().map(|(x, m)| RootBlock {
            x,
            start: 0,
            len: x.rows(),
            mask_row: &m[..x.rows()],
        })
    }

    #[test]
    fn fold_matches_the_unfolded_network_on_every_mask_shape() {
        let attn = MaskedSelfAttention::new(6, 8, 5, 21);
        let ls = layers(31);
        let net = RootNet::fold(&attn, [&ls[0], &ls[1], &ls[2]]);
        let x = Tensor2::uniform(4, 6, 1.0, 22);
        // Tree, full, non-interval and fully masked root rows.
        let mut gap = chain_mask(4);
        gap[1] = false;
        let mut blind = chain_mask(4);
        blind[..4].fill(false);
        let items: Vec<_> = [chain_mask(4), vec![true; 16], gap, blind]
            .into_iter()
            .map(|m| (x.clone(), m))
            .collect();
        let (mut ws, mut out) = (Workspace::new(), Vec::new());
        net.forward(masked_blocks(&items), &mut ws, &mut out);
        assert_eq!(out.len(), items.len());
        for (b, (x, m)) in items.iter().enumerate() {
            let want = unfolded(&attn, &ls, x, m);
            assert!(
                (out[b] - want).abs() < 1e-5,
                "mask {b}: folded {} vs unfolded {want}",
                out[b]
            );
        }
    }

    #[test]
    fn compact_blocks_are_bit_identical_to_masked_blocks() {
        let attn = MaskedSelfAttention::new(6, 8, 5, 21);
        let ls = layers(32);
        let net = RootNet::fold(&attn, [&ls[0], &ls[1], &ls[2]]);
        let items = vec![
            (Tensor2::uniform(3, 6, 1.0, 23), chain_mask(3)),
            (Tensor2::uniform(5, 6, 1.0, 24), vec![true; 25]),
        ];
        let (mut ws, mut want, mut got) = (Workspace::new(), Vec::new(), Vec::new());
        net.forward(masked_blocks(&items), &mut ws, &mut want);
        let mut xc = Tensor2::zeros(8, 6);
        xc.set_row_block(0, &items[0].0);
        xc.set_row_block(3, &items[1].0);
        let compact = [(0, 3), (3, 5)].map(|(start, len)| RootBlock {
            x: &xc,
            start,
            len,
            mask_row: &[],
        });
        net.forward(compact.into_iter(), &mut ws, &mut got);
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
    }
}
