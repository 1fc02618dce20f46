//! The update half of a training step, in fixed slices: summing the
//! shards' fold-space gradients, projecting them onto the parameters,
//! stepping Adam and refolding.
//!
//! There is one slice per parameter group ([`Group`]), fixed by the
//! model's structure, never by the thread count. Each stage touches only
//! its own group's parameters and fold part:
//!
//! 1. **Sum and project** ([`UpdateSlices::project`]): the group's two
//!    [`FoldGrads`] parts summed in shard order, projected onto its
//!    parameters, and each parameter's squared gradient norm recorded.
//!    [`UpdateSlices::norm_sq`] adds those in parameter order, as
//!    [`dace_nn::Adam::step`] does, for the clip scale.
//! 2. **Adam** ([`UpdateSlices::adam`]): the group's parameters take the
//!    step's [`AdamUpdate`].
//! 3. **Refold** ([`UpdateSlices::refold`]): the group's fold part is
//!    refolded into the slice's spare net. This must follow every group's
//!    Adam step, because `l1`'s part reads the attention's `W_V`.
//!    [`UpdateSlices::install`] then swaps the parts into the fold.
//!
//! A stage's slices can run on separate threads in any order. Whatever ran
//! them, the arithmetic is that of one thread running the whole serial
//! step, so the bits never depend on the thread count. The groups sit
//! behind their own locks while the slices borrow the model's layers.

use std::ops::Deref;
use std::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

use dace_nn::{AdamUpdate, LoraLinear, MaskedSelfAttention, Param, Tensor2};

use crate::model::DaceModel;
use crate::rootnet::{FoldGrads, FrozenProduct, Group, RootNet};

/// Update slices per step: one per parameter group.
pub(crate) const SLICES: usize = Group::ALL.len();

const POISONED: &str = "a training thread panicked while updating a parameter group";

/// One slice's state, kept for a whole training run, so that a step
/// allocates nothing once every buffer has reached its size.
#[derive(Default)]
struct SliceState {
    /// The group's two [`FoldGrads`] parts ([`FoldGrads::parts`]), summed
    /// over a batch's shards.
    sum: [Tensor2; 2],
    /// Projection scratch.
    gw: Tensor2,
    gtmp: Tensor2,
    /// Each of the group's parameters' squared gradient norm after the
    /// projection, in parameter order; `None` for a frozen parameter.
    norms: [Option<f32>; 4],
    /// The net the group's fold part is refolded into, then swapped into
    /// the trainer's fold. Only that part is ever filled.
    spare: RootNet,
    /// The part's product of frozen weights, for the run.
    frozen: FrozenProduct,
}

/// A model's layers lent to a training run, each parameter group behind
/// its own lock, with each slice's state. See the module docs.
pub(crate) struct UpdateSlices<'m> {
    attention: RwLock<&'m mut MaskedSelfAttention>,
    mlp: [RwLock<&'m mut LoraLinear>; 3],
    state: [Mutex<SliceState>; SLICES],
}

fn read<'a, T>(lock: &'a RwLock<T>) -> RwLockReadGuard<'a, T> {
    lock.read().expect(POISONED)
}

fn write<'a, T>(lock: &'a RwLock<T>) -> RwLockWriteGuard<'a, T> {
    lock.write().expect(POISONED)
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().expect(POISONED)
}

/// The attention's parameters in [`DaceModel::params_mut`] order.
fn attention_params(a: &mut MaskedSelfAttention) -> [&mut Param; 3] {
    [&mut a.wq, &mut a.wk, &mut a.wv]
}

/// A LoRA layer's parameters in [`DaceModel::params_mut`] order.
fn lora_params(l: &mut LoraLinear) -> [&mut Param; 4] {
    [&mut l.w, &mut l.b, &mut l.lora_b, &mut l.lora_a]
}

/// Each trainable parameter's squared gradient norm into `norms`.
fn record_norms<'p>(norms: &mut [Option<f32>; 4], params: impl IntoIterator<Item = &'p mut Param>) {
    *norms = [None; 4];
    for (n, p) in norms.iter_mut().zip(params) {
        *n = p.trainable.then(|| p.grad.norm_sq());
    }
}

/// `group`'s two [`FoldGrads`] parts summed over `shards` in their order,
/// into `sum`: the first copied, the rest added, as a whole
/// [`FoldGrads`] sum would.
fn sum_parts<G: Deref<Target = FoldGrads>>(
    sum: &mut [Tensor2; 2],
    group: Group,
    shards: impl Iterator<Item = G>,
) {
    for (i, grads) in shards.enumerate() {
        for (dst, src) in sum.iter_mut().zip(grads.parts(group)) {
            if i == 0 {
                dst.copy_from(src);
            } else {
                dst.add_assign(src);
            }
        }
    }
}

impl<'m> UpdateSlices<'m> {
    /// Lend `attention` and the three MLP layers to the slices, e.g. from
    /// [`DaceModel::layers_mut`].
    pub(crate) fn new(
        attention: &'m mut MaskedSelfAttention,
        mlp: [&'m mut LoraLinear; 3],
    ) -> UpdateSlices<'m> {
        UpdateSlices {
            attention: RwLock::new(attention),
            mlp: mlp.map(RwLock::new),
            state: Default::default(),
        }
    }

    /// Slice `s`'s sum and projection: its group's gradients from the
    /// shards' [`FoldGrads`] (one batch's, in shard order) through `fold`,
    /// the fold of the current weights. Gradients accumulate, as with any
    /// backward.
    pub(crate) fn project<G: Deref<Target = FoldGrads>>(
        &self,
        s: usize,
        fold: &RootNet,
        shards: impl Iterator<Item = G>,
    ) {
        let group = Group::ALL[s];
        let state = &mut *lock(&self.state[s]);
        let SliceState {
            sum,
            gw,
            gtmp,
            norms,
            ..
        } = state;
        sum_parts(sum, group, shards);
        if group == Group::Attention {
            let mut attention = write(&self.attention);
            fold.project_attention(&sum[0], &sum[1], &mut attention, gtmp);
            record_norms(norms, attention_params(&mut attention));
            return;
        }
        let mut layer = write(&self.mlp[s - 1]);
        if group == Group::L1 {
            fold.project_l1(&sum[0], sum[1].row(0), &mut layer, gw, gtmp);
        } else {
            layer.backward_merged(&sum[0], sum[1].row(0), gtmp);
        }
        record_norms(norms, lora_params(&mut layer));
    }

    /// The squared global norm of the trainable gradients after every
    /// slice's projection: the parameters' norms added in parameter order.
    pub(crate) fn norm_sq(&self) -> f32 {
        let norms: [[Option<f32>; 4]; SLICES] = std::array::from_fn(|s| lock(&self.state[s]).norms);
        norms.iter().flatten().flatten().copied().sum()
    }

    /// Slice `s`'s Adam step: `update` on each of its group's parameters.
    pub(crate) fn adam(&self, s: usize, update: &AdamUpdate) {
        if s == 0 {
            for p in attention_params(&mut write(&self.attention)) {
                update.apply(p);
            }
        } else {
            for p in lora_params(&mut write(&self.mlp[s - 1])) {
                update.apply(p);
            }
        }
    }

    /// Slice `s`'s refold: its group's fold part, from the current
    /// weights, into the slice's spare net, reusing the part's product of
    /// frozen weights. The groups are only read, so every slice can refold
    /// at once.
    pub(crate) fn refold(&self, s: usize) {
        let state = &mut *lock(&self.state[s]);
        let attention = read(&self.attention);
        let [l1, l2, l3] = self.mlp.each_ref().map(read);
        state.spare.refold_part(
            Group::ALL[s],
            &attention,
            [&l1, &l2, &l3],
            Some(&mut state.frozen),
        );
    }

    /// Swap every slice's refolded part into `fold`, which then folds the
    /// current weights.
    pub(crate) fn install(&self, fold: &mut RootNet) {
        for (group, state) in Group::ALL.into_iter().zip(&self.state) {
            fold.swap_part(group, &mut lock(state).spare);
        }
    }

    /// A model with copies of the current weights.
    pub(crate) fn snapshot(&self) -> DaceModel {
        DaceModel::from_layers(
            (**read(&self.attention)).clone(),
            self.mlp.each_ref().map(|l| (**read(l)).clone()),
        )
    }
}
