//! The baselines' one training loop, and the dense `Linear → ReLU` step
//! every baseline stacks.
//!
//! Every learned baseline trains the same way: `epochs` passes over the
//! training plans in a freshly shuffled order, cut into mini-batches, with
//! one forward and backward per plan accumulating gradients and one
//! [`Adam::step`] per mini-batch. [`fit_minibatches`] is that loop; a model
//! supplies only its per-plan forward/backward.

use dace_nn::{Adam, Linear, Param, Relu, Tensor2};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A baseline's training schedule, from its public knobs.
pub(crate) struct Schedule {
    /// Passes over the training plans.
    pub(crate) epochs: usize,
    /// Adam learning rate.
    pub(crate) lr: f32,
    /// Plans per optimizer step (0 is taken as 1).
    pub(crate) batch: usize,
    /// Model seed; the shuffle draws from `seed ^ 0x5417`.
    pub(crate) seed: u64,
}

/// Train `model` on plans `0..plans` under `schedule`. Each epoch shuffles
/// the plan order and walks it in mini-batches of `schedule.batch` plans
/// (the last may be short). For each plan `i` of a mini-batch of `len`
/// plans, `plan(model, i, len)` runs the forward and backward and
/// accumulates gradients, whose loss term is divided by `len`. Each batch
/// then ends in one Adam step over `params(model)`, which clears the
/// gradients.
pub(crate) fn fit_minibatches<M>(
    model: &mut M,
    plans: usize,
    schedule: &Schedule,
    params: fn(&mut M) -> Vec<&mut Param>,
    mut plan: impl FnMut(&mut M, usize, usize),
) {
    let mut opt = Adam::new(schedule.lr);
    let mut order: Vec<usize> = (0..plans).collect();
    let mut rng = SmallRng::seed_from_u64(schedule.seed ^ 0x5417);
    let bs = schedule.batch.max(1);
    for _ in 0..schedule.epochs {
        order.shuffle(&mut rng);
        for batch in order.chunks(bs) {
            for &i in batch {
                plan(model, i, batch.len());
            }
            opt.step(&mut params(model));
        }
    }
}

/// `relu(x·W + b)`.
pub(crate) fn linear_relu(layer: &Linear, x: &Tensor2) -> Tensor2 {
    let mut y = layer.forward(x);
    Relu::forward_in_place(&mut y);
    y
}

/// Backward of [`linear_relu`] from the gradient `dy` at its output `y`,
/// with `x` its input: accumulates the layer's gradients and returns `dx`.
pub(crate) fn linear_relu_backward(
    layer: &mut Linear,
    mut dy: Tensor2,
    x: &Tensor2,
    y: &Tensor2,
) -> Tensor2 {
    Relu::backward_in_place(&mut dy, y);
    layer.backward(&dy, x)
}
