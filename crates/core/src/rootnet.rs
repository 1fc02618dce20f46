//! The folded network: DACE's one set of forward (and backward) matrices.
//!
//! DACE's attention is a single bias-free head (Eq. 5) whose output feeds
//! `l1` with no nonlinearity in between, so the whole network collapses
//! exactly into a few small matrices over the `d = 18` input features:
//!
//! * `M = W_Q·W_Kᵀ/√d_k` (`d × d`): node `i`'s score for node `j` is
//!   `s_ij = (x_i·W_Q)·(x_j·W_K)/√d_k = (x_i·M)·x_j`;
//! * `W_V·W₁'` (`d × 128`) with `W₁' = W₁ + B₁A₁`: node `i`'s attention
//!   output is `x̄_i·W_V` with `x̄_i = Σ_j p_ij·x_j`, and it reaches the
//!   first ReLU only through `l1`, so `x̄_i·(W_V·W₁') + b₁` is exact;
//! * `W₂' = W₂ + B₂A₂` and `W₃' = W₃ + B₃A₃`: each LoRA adapter merged
//!   into its base weight once instead of applied on every call.
//!
//! [`RootNet::refold`] is the one fold routine, a refold of each of the
//! fold's four parts ([`Group`]) in turn. Two passes run on it:
//!
//! * **Root rows** ([`RootNet::forward`]): inference reads only the root's
//!   prediction (Sec. V-E), so a plan costs `d² + 128·d + 64·128 + 64` ≈
//!   10.9k multiply-adds plus `2d` per node, against ≈43.3k plus `2d` per
//!   node for the unfolded projections and LoRA layers.
//! * **All rows** ([`RootNet::forward_rows`] / [`RootNet::backward_rows`]):
//!   training scores every sub-plan (Eq. 6–7), and sub-plan inference reads
//!   every row. The same ≈10.9k per row forward, ≈21k per row backward, and
//!   ~`4d` per attended pair. The backward is two steps: a row pass
//!   ([`RootNet::row_grads`]) that reduces a batch's rows to the gradients
//!   of the folded matrices ([`FoldGrads`], ≈11k floats whatever the batch
//!   size), and a projection ([`RootNet::apply_grads`]) that maps those to
//!   the parameter gradients by the chain rule once per optimizer step. So
//!   training moves the paper's parameters and Adam state exactly as the
//!   unfolded network would, and the trainer can run the row pass on plan
//!   shards in parallel and sum their [`FoldGrads`] before one projection.
//!
//! The projection and the refold both split by parameter group ([`Group`]):
//! each group's parameters take their gradients from two of the summed
//! [`FoldGrads`] parts ([`FoldGrads::parts`]) and fold into one part of the
//! net ([`RootNet::refold_part`]). The trainer runs the groups on separate
//! threads (`crate::update`).
//!
//! The fold reassociates float sums, so results match the unfolded network
//! to f32 rounding, not bit for bit.

use std::sync::OnceLock;
use std::time::Instant;

use dace_nn::{softmax_in_place, LoraLinear, MaskedSelfAttention, Relu, Tensor2, Workspace};

use crate::featurize::PackedBatch;

use crate::model::ForwardTimings;

/// One plan's rows as the root-row pass reads them: rows
/// `[start, start + len)` of `x`, root first. The root attends to all of
/// them: its span is the whole plan, with tree attention or without.
#[derive(Clone, Copy)]
pub(crate) struct RootBlock<'a> {
    pub(crate) x: &'a Tensor2,
    pub(crate) start: usize,
    pub(crate) len: usize,
}

/// The folded twin of a [`DaceModel`](crate::DaceModel)'s weights (see the
/// module docs). Folded once per set of weights and cached by the model:
/// [`DaceModel::root_net`](crate::DaceModel::root_net) for inference, and
/// refolded in place by the training forward after every optimizer step.
#[derive(Debug, Default)]
pub struct RootNet {
    /// `W_Q·W_Kᵀ/√d_k`, `d × d`.
    m: Tensor2,
    /// `1/√d_k`, the score scale folded into `m`.
    scale: f32,
    /// A copy of `W_V`, `d × 128`: the projection onto `l1` reads it for
    /// `dW₁' = W_Vᵀ·G`, so it needs no access to the attention's weights.
    wv: Tensor2,
    /// `W₁ + B₁A₁`, `128 × 128`: not read by any forward, but the backward
    /// needs it for `dW_V`.
    w1: Tensor2,
    /// `W_V·(W₁ + B₁A₁)`, `d × 128`.
    wv1: Tensor2,
    b1: Vec<f32>,
    /// `(W_V·W₁')ᵀ`, `128 × d`: the row pass's `dX̄ = dH₁·(W_V·W₁')ᵀ`.
    wv1_t: Tensor2,
    /// `W₂ + B₂A₂`, `128 × 64`.
    w2: Tensor2,
    /// `W₂'ᵀ`, `64 × 128`: the row pass's `dH₁ = dH₂·W₂'ᵀ`.
    w2_t: Tensor2,
    b2: Vec<f32>,
    /// `W₃ + B₃A₃`, `64 × 1`.
    w3: Tensor2,
    /// `W₃'ᵀ`, `1 × 64`: the row pass's `dH₂ = dŷ·W₃'ᵀ`.
    w3_t: Tensor2,
    b3: Vec<f32>,
}

/// One batch's (or one shard's) gradients in the fold's coordinates, as
/// [`RootNet::row_grads`] leaves them: the merged layers' `dW₃'`, `db₃`,
/// `dW₂'`, `db₂`, `G = X̄ᵀ·dH₁` (the gradient of `W_V·W₁'`), `db₁` and
/// `dM`, ≈11k floats however many rows produced them. Gradients are sums
/// over rows, so shards' [`FoldGrads`] add up to the batch's.
#[derive(Debug, Default)]
pub(crate) struct FoldGrads {
    dw3: Tensor2,
    /// Bias gradients are `1 × width` rows.
    db3: Tensor2,
    dw2: Tensor2,
    db2: Tensor2,
    g: Tensor2,
    db1: Tensor2,
    /// `Σ_b X_bᵀ·dS_b·X_b`; `0 × 0` when the row pass skipped the scores
    /// (frozen attention).
    dm: Tensor2,
}

impl FoldGrads {
    /// The two parts `group`'s parameters take their gradients from: `G`
    /// (for `W_V`) and `dM` for the attention, `G` and `db₁` for `l1`, and
    /// `dW'` and `db` for `l2` and `l3`.
    pub(crate) fn parts(&self, group: Group) -> [&Tensor2; 2] {
        match group {
            Group::Attention => [&self.g, &self.dm],
            Group::L1 => [&self.g, &self.db1],
            Group::L2 => [&self.dw2, &self.db2],
            Group::L3 => [&self.dw3, &self.db3],
        }
    }
}

/// A parameter group of the model, and the part of the fold refolded from
/// it. Each group's gradients, optimizer step and fold part can be updated
/// apart from the others' (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Group {
    /// `W_Q`, `W_K`, `W_V`; its fold part is `M` (from `W_Q` and `W_K`).
    Attention,
    /// `l1`; its fold part is `W₁'`, `W_V·W₁'` and its transpose, `b₁` and
    /// the copy of `W_V`, so it also reads the attention's `W_V`.
    L1,
    /// `l2`; its fold part is `W₂'`, `W₂'ᵀ` and `b₂`.
    L2,
    /// `l3`; its fold part is `W₃'`, `W₃'ᵀ` and `b₃`.
    L3,
}

impl Group {
    /// Every group, in parameter order ([`crate::DaceModel::params_mut`]).
    pub(crate) const ALL: [Group; 4] = [Group::Attention, Group::L1, Group::L2, Group::L3];
}

/// A fold part's product of frozen weights, kept across refolds: `M` while
/// the attention is frozen (LoRA fine-tuning), `B·A` while an adapter is
/// (pre-training). Computed on the first refold that passes it, then
/// copied. Valid only while the weights it came from cannot change, so one
/// lives for one training run.
#[derive(Debug, Default)]
pub(crate) struct FrozenProduct(Option<Tensor2>);

impl FrozenProduct {
    /// The product `compute` writes, computed on the first call only.
    fn get(&mut self, compute: impl FnOnce(&mut Tensor2)) -> &Tensor2 {
        self.0.get_or_insert_with(|| {
            let mut t = Tensor2::default();
            compute(&mut t);
            t
        })
    }
}

/// `W + B·A` of `layer` into `out`, as [`LoraLinear::merged_weight_into`]
/// computes it; `B·A` comes from `cache` while the adapter is frozen.
fn merge_into(layer: &LoraLinear, out: &mut Tensor2, cache: Option<&mut FrozenProduct>) {
    let frozen = !(layer.lora_b.trainable || layer.lora_a.trainable);
    match cache {
        Some(cache) if frozen => {
            out.copy_from(cache.get(|ba| layer.lora_b.value.matmul_into(&layer.lora_a.value, ba)));
            out.add_assign(&layer.w.value);
        }
        _ => layer.merged_weight_into(out),
    }
}

/// `db = Σ_r dy[r, ·]` into a reused `1 × cols` buffer.
fn col_sums_into(dy: &Tensor2, db: &mut Tensor2) {
    db.resize_zeroed(1, dy.cols());
    dy.col_sums_acc(db.row_mut(0));
}

impl RootNet {
    /// Fold an attention layer and the three LoRA MLP layers it feeds.
    pub(crate) fn fold(attention: &MaskedSelfAttention, layers: [&LoraLinear; 3]) -> RootNet {
        let mut net = RootNet::default();
        net.refold(attention, layers);
        net
    }

    /// The one fold routine: recompute every folded matrix from the current
    /// weights into this net's buffers, reusing their capacity, so a refold
    /// allocates nothing. About 1M multiply-adds, dominated by the
    /// `128 × 32 × 128` adapter product of `l1`. The transposes the row
    /// pass multiplies by are written here too, once per set of weights
    /// rather than once per backward.
    pub(crate) fn refold(&mut self, attention: &MaskedSelfAttention, layers: [&LoraLinear; 3]) {
        for group in Group::ALL {
            self.refold_part(group, attention, layers, None);
        }
    }

    /// Refold only `group`'s part of the net (see [`Group`]), reading only
    /// the weights that part is folded from, with its product of frozen
    /// weights taken from `cache` when there is one ([`FrozenProduct`]).
    /// The cached product is the same bits as a fresh one, and `cached + W`
    /// is the arithmetic [`LoraLinear::merged_weight_into`] does.
    pub(crate) fn refold_part(
        &mut self,
        group: Group,
        attention: &MaskedSelfAttention,
        layers: [&LoraLinear; 3],
        cache: Option<&mut FrozenProduct>,
    ) {
        let (wq, wk) = (&attention.wq, &attention.wk);
        match group {
            Group::Attention => {
                self.scale = 1.0 / (attention.dk() as f32).sqrt();
                let scale = self.scale;
                let score = |m: &mut Tensor2| {
                    wq.value.matmul_nt_into(&wk.value, m);
                    m.scale(scale);
                };
                match cache {
                    Some(cache) if !(wq.trainable || wk.trainable) => {
                        self.m.copy_from(cache.get(score));
                    }
                    _ => score(&mut self.m),
                }
            }
            Group::L1 => {
                let l1 = layers[0];
                self.wv.copy_from(&attention.wv.value);
                merge_into(l1, &mut self.w1, cache);
                self.wv.matmul_into(&self.w1, &mut self.wv1);
                self.wv1.transpose_into(&mut self.wv1_t);
                self.b1.clear();
                self.b1.extend_from_slice(l1.b.value.row(0));
            }
            Group::L2 | Group::L3 => {
                let (l, w, w_t, b) = if group == Group::L2 {
                    (layers[1], &mut self.w2, &mut self.w2_t, &mut self.b2)
                } else {
                    (layers[2], &mut self.w3, &mut self.w3_t, &mut self.b3)
                };
                merge_into(l, w, cache);
                w.transpose_into(w_t);
                b.clear();
                b.extend_from_slice(l.b.value.row(0));
            }
        }
    }

    /// Exchange `group`'s part of the net with `other`'s, buffers and all:
    /// how the trainer installs a part another thread refolded.
    pub(crate) fn swap_part(&mut self, group: Group, other: &mut RootNet) {
        use std::mem::swap;
        match group {
            Group::Attention => {
                swap(&mut self.m, &mut other.m);
                swap(&mut self.scale, &mut other.scale);
            }
            Group::L1 => {
                swap(&mut self.wv, &mut other.wv);
                swap(&mut self.w1, &mut other.w1);
                swap(&mut self.wv1, &mut other.wv1);
                swap(&mut self.wv1_t, &mut other.wv1_t);
                swap(&mut self.b1, &mut other.b1);
            }
            Group::L2 => {
                swap(&mut self.w2, &mut other.w2);
                swap(&mut self.w2_t, &mut other.w2_t);
                swap(&mut self.b2, &mut other.b2);
            }
            Group::L3 => {
                swap(&mut self.w3, &mut other.w3);
                swap(&mut self.w3_t, &mut other.w3_t);
                swap(&mut self.b3, &mut other.b3);
            }
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
        self.root_means(blocks, ws);
        let attention_us = t_attn.elapsed().as_micros() as u64;
        let t_mlp = Instant::now();
        ws.xbar.matmul_into(&self.wv1, &mut ws.h1);
        ws.h1.add_row_broadcast(&self.b1);
        Relu::forward_in_place(&mut ws.h1);
        ws.h1.matmul_into(&self.w2, &mut ws.h2);
        ws.h2.add_row_broadcast(&self.b2);
        Relu::forward_in_place(&mut ws.h2);
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
    /// (`B × d`): scores `s_j = (x₀·M)·x_j` over the whole block, then
    /// `x̄ = Σ_j softmax(s)_j·x_j`.
    fn root_means<'a, I>(&self, blocks: I, ws: &mut Workspace)
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
            if ws.srow.len() < blk.len {
                ws.srow.resize(blk.len, 0.0);
            }
            let p = &mut ws.srow[..blk.len];
            ws.u.row_dots_nt(b, blk.x, blk.start, blk.len, p);
            softmax_in_place(p);
            Tensor2::row_combine(p, blk.x, blk.start, ws.xbar.row_mut(b));
        }
    }

    /// The all-rows forward over a packed mini-batch's compact layout:
    /// every node's log-latency into `ws.preds` (`Σ lens[b] × 1`, compact
    /// row order), with everything [`RootNet::backward_rows`] reads left in
    /// `ws`: the input and the row spans, the attention probabilities and
    /// means `x̄` and both hidden layers (post-ReLU; the backward reads the
    /// ReLU's sign from them).
    ///
    /// Node `i` scores only the rows `j` of its span, as `u_i·x_j` with
    /// `u = X·M`, and softmaxes over them; its probabilities are stored
    /// back to back, one per span position. The 128-wide attention output
    /// is never formed: the first layer is `x̄·(W_V·W₁') + b₁`.
    pub(crate) fn forward_rows(&self, batch: &PackedBatch, ws: &mut Workspace) {
        ws.xc.copy_from(&batch.xc);
        ws.spans.clone_from(&batch.spans);
        let x = &ws.xc;
        x.matmul_into(&self.m, &mut ws.u);
        ws.xbar.resize_zeroed(x.rows(), x.cols());
        ws.probs.clear();
        for (i, &(start, end)) in batch.spans.iter().enumerate() {
            let p0 = ws.probs.len();
            ws.probs.resize(p0 + end - start, 0.0);
            let p = &mut ws.probs[p0..];
            ws.u.row_dots_nt(i, x, start, end - start, p);
            softmax_in_place(p);
            Tensor2::row_combine(p, x, start, ws.xbar.row_mut(i));
        }
        ws.xbar.matmul_into(&self.wv1, &mut ws.h1);
        ws.h1.add_row_broadcast(&self.b1);
        Relu::forward_in_place(&mut ws.h1);
        ws.h1.matmul_into(&self.w2, &mut ws.h2);
        ws.h2.add_row_broadcast(&self.b2);
        Relu::forward_in_place(&mut ws.h2);
        ws.h2.matmul_into(&self.w3, &mut ws.preds);
        ws.preds.add_row_broadcast(&self.b3);
    }

    /// The all-rows backward of the last [`RootNet::forward_rows`] run on
    /// `ws`, from per-row prediction gradients `d_pred` (`Σ lens[b] × 1`):
    /// accumulates the gradient of every trainable parameter of the layers
    /// this net was folded from, which must still hold the folded weights.
    /// The row pass ([`RootNet::row_grads`]) into `grads`, then the
    /// projection ([`RootNet::apply_grads`]).
    pub(crate) fn backward_rows(
        &self,
        d_pred: &Tensor2,
        ws: &mut Workspace,
        grads: &mut FoldGrads,
        attention: &mut MaskedSelfAttention,
        layers: [&mut LoraLinear; 3],
    ) {
        let scores = attention.wq.trainable || attention.wk.trainable;
        self.row_grads(d_pred, ws, scores, grads);
        self.apply_grads(grads, ws, attention, layers);
    }

    /// The row pass of the backward: from the last
    /// [`RootNet::forward_rows`] run on `ws` and per-row prediction
    /// gradients `d_pred` (`Σ lens[b] × 1`), the gradients of the folded
    /// matrices into `out`, overwriting it. Reads only `self` and `ws`, so
    /// plan shards of one batch can run it on separate threads, each with
    /// its own workspace.
    ///
    /// * each merged layer gets `dW' = xᵀ·dy` and `db = Σ dy`;
    /// * `G = X̄ᵀ·dH₁` is the gradient of `W_V·W₁'`;
    /// * with `scores`, `dX̄ = dH₁·(W_V·W₁')ᵀ` gives `dP_i = dX̄_i·X_{span i}ᵀ`
    ///   over row `i`'s span, the softmax backward gives `dS`, and
    ///   `dM = Xᵀ·(dS·X)`.
    ///
    /// Fine-tuning freezes the attention, so it passes `scores = false`
    /// and the score backward is skipped.
    pub(crate) fn row_grads(
        &self,
        d_pred: &Tensor2,
        ws: &mut Workspace,
        scores: bool,
        out: &mut FoldGrads,
    ) {
        assert_eq!(
            d_pred.rows(),
            ws.xc.rows(),
            "d_pred must match forward rows"
        );
        ws.h2.matmul_tn_into(d_pred, &mut out.dw3);
        col_sums_into(d_pred, &mut out.db3);
        d_pred.matmul_into(&self.w3_t, &mut ws.d1);
        Relu::backward_in_place(&mut ws.d1, &ws.h2);
        ws.h1.matmul_tn_into(&ws.d1, &mut out.dw2);
        col_sums_into(&ws.d1, &mut out.db2);
        ws.d1.matmul_into(&self.w2_t, &mut ws.d2);
        Relu::backward_in_place(&mut ws.d2, &ws.h1);
        ws.xbar.matmul_tn_into(&ws.d2, &mut out.g);
        col_sums_into(&ws.d2, &mut out.db1);
        if !scores {
            out.dm.resize_zeroed(0, 0);
            return;
        }

        ws.d2.matmul_into(&self.wv1_t, &mut ws.dxbar);
        let x = &ws.xc;
        ws.dsx.resize_zeroed(x.rows(), x.cols());
        let mut p0 = 0;
        for (i, &(start, end)) in ws.spans.iter().enumerate() {
            let l = end - start;
            if ws.srow.len() < l {
                ws.srow.resize(l, 0.0);
            }
            let ds = &mut ws.srow[..l];
            ws.dxbar.row_dots_nt(i, x, start, l, ds);
            let p = &ws.probs[p0..p0 + l];
            let dot: f32 = p.iter().zip(ds.iter()).map(|(a, b)| a * b).sum();
            for (g, &pj) in ds.iter_mut().zip(p) {
                *g = pj * (*g - dot);
            }
            Tensor2::row_combine(ds, x, start, ws.dsx.row_mut(i));
            p0 += l;
        }
        x.matmul_tn_into(&ws.dsx, &mut out.dm);
    }

    /// The projection step of the backward: maps fold-space gradients
    /// (one batch's, or its shards' summed) onto the trainable parameters
    /// of the layers this net was folded from, by the chain rule:
    /// * each merged layer's `dW'` and `db` go through
    ///   [`LoraLinear::backward_merged`] (`dW = dW'` in pre-training,
    ///   `dB = dW'·Aᵀ` and `dA = Bᵀ·dW'` in fine-tuning);
    /// * `dW₁' = W_Vᵀ·G` and `dW_V = G·W₁'ᵀ`;
    /// * `dW_Q = dM·W_K/√d_k` and `dW_K = dMᵀ·W_Q/√d_k`.
    ///
    /// Only `ws.gw` and `ws.gtmp` are written, so a workspace still holding
    /// a forward can lend them. The groups' projections
    /// ([`RootNet::project_l1`], [`RootNet::project_attention`] and
    /// [`LoraLinear::backward_merged`]) touch disjoint parameters, so any
    /// order of them, or running them on separate threads, gives the same
    /// bits.
    pub(crate) fn apply_grads(
        &self,
        grads: &FoldGrads,
        ws: &mut Workspace,
        attention: &mut MaskedSelfAttention,
        layers: [&mut LoraLinear; 3],
    ) {
        let [l1, l2, l3] = layers;
        l3.backward_merged(&grads.dw3, grads.db3.row(0), &mut ws.gtmp);
        l2.backward_merged(&grads.dw2, grads.db2.row(0), &mut ws.gtmp);
        self.project_l1(&grads.g, grads.db1.row(0), l1, &mut ws.gw, &mut ws.gtmp);
        self.project_attention(&grads.g, &grads.dm, attention, &mut ws.gtmp);
    }

    /// `l1`'s projection: `dW₁' = W_Vᵀ·G` (into `gw`) through
    /// [`LoraLinear::backward_merged`] with the bias gradient `db1`. Reads
    /// the fold's copy of `W_V`.
    pub(crate) fn project_l1(
        &self,
        g: &Tensor2,
        db1: &[f32],
        l1: &mut LoraLinear,
        gw: &mut Tensor2,
        scratch: &mut Tensor2,
    ) {
        self.wv.matmul_tn_into(g, gw);
        l1.backward_merged(gw, db1, scratch);
    }

    /// The attention's projection: `dW_V = G·W₁'ᵀ`, `dW_Q = dM·W_K/√d_k`
    /// and `dW_K = dMᵀ·W_Q/√d_k`, each only if that weight trains.
    pub(crate) fn project_attention(
        &self,
        g: &Tensor2,
        dm: &Tensor2,
        attention: &mut MaskedSelfAttention,
        scratch: &mut Tensor2,
    ) {
        if attention.wv.trainable {
            g.matmul_nt_into(&self.w1, scratch);
            attention.wv.grad.add_assign(scratch);
        }
        if !(attention.wq.trainable || attention.wk.trainable) {
            return;
        }
        assert_eq!(
            dm.rows(),
            self.m.rows(),
            "the row pass skipped the scores of a trainable attention"
        );
        if attention.wq.trainable {
            dm.matmul_into(&attention.wk.value, scratch);
            scratch.scale(self.scale);
            attention.wq.grad.add_assign(scratch);
        }
        if attention.wk.trainable {
            dm.matmul_tn_into(&attention.wq.value, scratch);
            scratch.scale(self.scale);
            attention.wk.grad.add_assign(scratch);
        }
    }
}

/// A model's lazily folded [`RootNet`]. `Default`, `Clone` and
/// deserialization all give an empty cell, so every copy folds its own
/// weights on first use, and the owning model empties it on every path
/// that can change a weight.
#[derive(Debug, Default)]
pub(crate) struct RootCell {
    net: OnceLock<RootNet>,
    /// The last emptied net, kept for its buffers: the next
    /// [`RootCell::get_or_refold`] refolds into them instead of allocating.
    spare: Option<RootNet>,
}

impl RootCell {
    /// The cached twin, folded by `fold` on first use.
    pub(crate) fn get_or_fold(&self, fold: impl FnOnce() -> RootNet) -> &RootNet {
        self.net.get_or_init(fold)
    }

    /// The cached twin, refolded in place from the given weights when the
    /// cell is empty — the training forward's entry, allocation-free once
    /// the spare exists.
    pub(crate) fn get_or_refold(
        &mut self,
        attention: &MaskedSelfAttention,
        layers: [&LoraLinear; 3],
    ) -> &RootNet {
        let spare = &mut self.spare;
        self.net.get_or_init(|| {
            let mut net = spare.take().unwrap_or_default();
            net.refold(attention, layers);
            net
        })
    }

    /// Mark the twin stale: its weights are about to change. Its buffers
    /// are kept for the next refold.
    pub(crate) fn clear(&mut self) {
        if let Some(net) = self.net.take() {
            self.spare = Some(net);
        }
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
    use dace_nn::{AttnScratch, MASK_NEG};

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

    /// The unfolded reference: all-rows attention over a chain's
    /// ancestor mask, then the three LoRA layers on the root row.
    fn unfolded(attn: &MaskedSelfAttention, ls: &[LoraLinear; 3], x: &Tensor2) -> f32 {
        let n = x.rows();
        let chain: Vec<f32> = (0..n * n)
            .map(|c| if c / n <= c % n { 0.0 } else { MASK_NEG })
            .collect();
        let mut a = Tensor2::default();
        attn.forward_packed_ws(x, &[n], n, &chain, &mut AttnScratch::default(), &mut a);
        let mut h1 = ls[0].forward(&a.row_block(0, 1));
        Relu::forward_in_place(&mut h1);
        let mut h2 = ls[1].forward(&h1);
        Relu::forward_in_place(&mut h2);
        ls[2].forward(&h2).get(0, 0)
    }

    fn blocks(xs: &[Tensor2]) -> impl Iterator<Item = RootBlock<'_>> + Clone {
        xs.iter().map(|x| RootBlock {
            x,
            start: 0,
            len: x.rows(),
        })
    }

    #[test]
    fn fold_matches_the_unfolded_network() {
        let attn = MaskedSelfAttention::new(6, 8, 5, 21);
        let ls = layers(31);
        let net = RootNet::fold(&attn, [&ls[0], &ls[1], &ls[2]]);
        let xs: Vec<Tensor2> = [1, 4, 7]
            .into_iter()
            .map(|n| Tensor2::uniform(n, 6, 1.0, 22 + n as u64))
            .collect();
        let (mut ws, mut out) = (Workspace::new(), Vec::new());
        net.forward(blocks(&xs), &mut ws, &mut out);
        assert_eq!(out.len(), xs.len());
        for (b, x) in xs.iter().enumerate() {
            let want = unfolded(&attn, &ls, x);
            assert!(
                (out[b] - want).abs() < 1e-5,
                "block {b}: folded {} vs unfolded {want}",
                out[b]
            );
        }
    }

    #[test]
    fn compact_blocks_are_bit_identical_to_separate_blocks() {
        let attn = MaskedSelfAttention::new(6, 8, 5, 21);
        let ls = layers(32);
        let net = RootNet::fold(&attn, [&ls[0], &ls[1], &ls[2]]);
        let xs = [
            Tensor2::uniform(3, 6, 1.0, 23),
            Tensor2::uniform(5, 6, 1.0, 24),
        ];
        let (mut ws, mut want, mut got) = (Workspace::new(), Vec::new(), Vec::new());
        net.forward(blocks(&xs), &mut ws, &mut want);
        let mut xc = Tensor2::zeros(8, 6);
        xc.set_row_block(0, &xs[0]);
        xc.set_row_block(3, &xs[1]);
        let compact = [(0, 3), (3, 5)].map(|(start, len)| RootBlock { x: &xc, start, len });
        net.forward(compact.into_iter(), &mut ws, &mut got);
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
    }
}
