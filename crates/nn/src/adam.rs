//! Adam optimizer with global-norm gradient clipping.

use serde::{Deserialize, Serialize};

use crate::param::Param;

/// Adam (Kingma & Ba) with bias-corrected moments.
///
/// Parameters marked `trainable = false` are skipped entirely — this is how
/// the LoRA pre-train/fine-tune split reaches the optimizer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    /// Global gradient-norm clip (0 disables clipping).
    pub clip_norm: f32,
    /// Step counter.
    t: u64,
}

impl Adam {
    /// Adam with the usual defaults and the given learning rate.
    pub fn new(lr: f32) -> Adam {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            clip_norm: 5.0,
            t: 0,
        }
    }

    /// Steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Apply one optimization step to `params` and clear their gradients.
    /// Returns the global norm of the trainable gradients before clipping.
    pub fn step(&mut self, params: &mut [&mut Param]) -> f32 {
        let norm_sq: f32 = params
            .iter()
            .filter(|p| p.trainable)
            .map(|p| p.grad.norm_sq())
            .sum();
        let update = self.begin_step(norm_sq);
        for p in params.iter_mut() {
            update.apply(p);
        }
        update.norm()
    }

    /// Start one optimization step from `norm_sq`, the squared global norm
    /// of the trainable gradients (each parameter's [`Tensor2::norm_sq`]
    /// summed in parameter order, as [`Adam::step`] sums them): advances
    /// the step counter and returns the update every parameter then takes.
    /// The update touches one parameter at a time, so the parameters can
    /// take it in any order, on any thread, with the same result as
    /// [`Adam::step`].
    ///
    /// [`Tensor2::norm_sq`]: crate::Tensor2::norm_sq
    pub fn begin_step(&mut self, norm_sq: f32) -> AdamUpdate {
        self.t += 1;
        let norm = norm_sq.sqrt();
        // Global-norm clip over trainable gradients.
        let scale = if self.clip_norm > 0.0 && norm > self.clip_norm {
            self.clip_norm / norm
        } else {
            1.0
        };
        AdamUpdate {
            lr: self.lr,
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            scale,
            bc1: 1.0 - self.beta1.powi(self.t as i32),
            bc2: 1.0 - self.beta2.powi(self.t as i32),
            norm,
        }
    }
}

/// One Adam step's update, shared by every parameter ([`Adam::begin_step`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamUpdate {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    /// Gradient scale of the global-norm clip.
    scale: f32,
    /// Bias corrections of the two moments.
    bc1: f32,
    bc2: f32,
    norm: f32,
}

impl AdamUpdate {
    /// The global norm of the trainable gradients before clipping.
    pub fn norm(&self) -> f32 {
        self.norm
    }

    /// Update `p` if it is trainable, then clear its gradient.
    pub fn apply(&self, p: &mut Param) {
        if !p.trainable {
            p.zero_grad();
            return;
        }
        // A detached serving snapshot (Param::detach) has 0×0 state;
        // reallocate instead of indexing out of bounds so fine-tuning a
        // registry-loaded model just works.
        p.restore_state();
        // Fused single-pass update: split-borrowing the param fields lets
        // value/m/v update, and the gradient clear, in one zipped sweep.
        let Param {
            value, grad, m, v, ..
        } = p;
        for (((val, gi), mi), vi) in value
            .as_mut_slice()
            .iter_mut()
            .zip(grad.as_mut_slice())
            .zip(m.as_mut_slice())
            .zip(v.as_mut_slice())
        {
            let g = std::mem::take(gi) * self.scale;
            *mi = self.beta1 * *mi + (1.0 - self.beta1) * g;
            *vi = self.beta2 * *vi + (1.0 - self.beta2) * g * g;
            let m_hat = *mi / self.bc1;
            let v_hat = *vi / self.bc2;
            *val -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor2;

    /// Adam should minimize a simple quadratic: f(w) = ||w - target||².
    #[test]
    fn converges_on_quadratic() {
        let target = [3.0f32, -2.0, 0.5];
        let mut p = Param::new(Tensor2::zeros(1, 3));
        let mut opt = Adam::new(0.05);
        for _ in 0..800 {
            for (i, &t) in target.iter().enumerate() {
                let w = p.value.get(0, i);
                p.grad.set(0, i, 2.0 * (w - t));
            }
            opt.step(&mut [&mut p]);
        }
        for (i, &t) in target.iter().enumerate() {
            assert!(
                (p.value.get(0, i) - t).abs() < 1e-2,
                "w[{i}] = {}",
                p.value.get(0, i)
            );
        }
    }

    #[test]
    fn frozen_params_do_not_move() {
        let mut p = Param::new(Tensor2::zeros(1, 2));
        p.trainable = false;
        p.grad.set(0, 0, 100.0);
        let mut opt = Adam::new(0.1);
        opt.step(&mut [&mut p]);
        assert_eq!(p.value.get(0, 0), 0.0);
        // Gradient is still cleared so stale grads never leak.
        assert_eq!(p.grad.get(0, 0), 0.0);
    }

    #[test]
    fn clipping_bounds_the_update() {
        let mut p = Param::new(Tensor2::zeros(1, 1));
        p.grad.set(0, 0, 1e6);
        let mut opt = Adam::new(0.1);
        opt.step(&mut [&mut p]);
        // First Adam step magnitude is ≈ lr regardless, but the clipped
        // gradient keeps the moments sane; just check finiteness and scale.
        assert!(p.value.get(0, 0).abs() <= 0.11);
        assert!(p.value.get(0, 0).is_finite());
    }

    #[test]
    fn step_returns_the_pre_clip_norm() {
        let mut p = Param::new(Tensor2::zeros(1, 2));
        p.grad.set(0, 0, 30.0);
        p.grad.set(0, 1, 40.0);
        let mut frozen = Param::new(Tensor2::zeros(1, 1));
        frozen.trainable = false;
        frozen.grad.set(0, 0, 1e3);
        let norm = Adam::new(0.1).step(&mut [&mut p, &mut frozen]);
        assert_eq!(
            norm, 50.0,
            "frozen gradients are not counted, clipping comes after"
        );
    }

    #[test]
    fn step_counter_advances() {
        let mut opt = Adam::new(0.1);
        let mut p = Param::new(Tensor2::zeros(1, 1));
        assert_eq!(opt.steps(), 0);
        opt.step(&mut [&mut p]);
        opt.step(&mut [&mut p]);
        assert_eq!(opt.steps(), 2);
    }
}
