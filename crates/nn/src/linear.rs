//! Fully-connected layers, with and without LoRA adapters.

use serde::{Deserialize, Serialize};

use crate::param::Param;
use crate::tensor::Tensor2;

/// `y = x @ W + b`. Stateless: the backward takes the forward's input, so
/// one layer can run any number of times before its backward passes (the
/// recursive tree networks call the same layer once per plan node).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Linear {
    /// Weight, `in × out`.
    pub w: Param,
    /// Bias, `1 × out`.
    pub b: Param,
}

impl Linear {
    /// Xavier-initialized layer.
    pub fn new(input: usize, output: usize, seed: u64) -> Linear {
        Linear {
            w: Param::xavier(input, output, seed),
            b: Param::zeros(1, output),
        }
    }

    /// Forward pass: `x @ W + b`.
    pub fn forward(&self, x: &Tensor2) -> Tensor2 {
        let mut y = x.matmul(&self.w.value);
        y.add_row_broadcast(self.b.value.row(0));
        y
    }

    /// Backward pass of [`Linear::forward`] on input `x`: accumulates
    /// `dW = xᵀ @ dy` and `db` (the column sums of `dy`); returns
    /// `dx = dy @ Wᵀ`.
    pub fn backward(&mut self, dy: &Tensor2, x: &Tensor2) -> Tensor2 {
        self.w.grad.add_assign(&x.matmul_tn(dy));
        let sums = dy.col_sums();
        for (i, s) in sums.iter().enumerate() {
            let cur = self.b.grad.get(0, i);
            self.b.grad.set(0, i, cur + s);
        }
        dy.matmul_nt(&self.w.value)
    }

    /// Mutable references to the layer's parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w, &mut self.b]
    }

    /// Total scalar parameters.
    pub fn param_count(&self) -> usize {
        self.w.count() + self.b.count()
    }
}

/// Which parameter set trains in a [`LoraLinear`] (the paper's Eq. 8
/// protocol).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LoraMode {
    /// Pre-training: update `W`/bias, freeze the adapters.
    Pretrain,
    /// Fine-tuning: freeze `W`/bias, update only `ΔW = B·A`.
    Finetune,
}

/// `y = x @ W + (x @ B) @ A + b` — a linear layer with a rank-`r` LoRA
/// adapter (`B: in×r`, `A: r×out`, `r ≪ min(in, out)`).
///
/// `A` starts at zero so `ΔW = 0` at initialization: fine-tuning begins
/// exactly at the pre-trained function.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LoraLinear {
    /// Base weight, `in × out`.
    pub w: Param,
    /// Bias, `1 × out`.
    pub b: Param,
    /// LoRA down-projection, `in × r`.
    pub lora_b: Param,
    /// LoRA up-projection, `r × out`.
    pub lora_a: Param,
    /// Current training mode.
    pub mode: LoraMode,
}

impl LoraLinear {
    /// Xavier base weight, Xavier `B`, zero `A`, pre-train mode.
    ///
    /// The rank only needs to be smaller than the larger dimension to save
    /// parameters (the paper itself uses r₃ = 8 on its 64 → 1 output layer).
    pub fn new(input: usize, output: usize, rank: usize, seed: u64) -> LoraLinear {
        assert!(
            rank >= 1 && rank < input.max(output),
            "LoRA rank must be in 1..max(in,out)"
        );
        let mut l = LoraLinear {
            w: Param::xavier(input, output, seed),
            b: Param::zeros(1, output),
            lora_b: Param::xavier(input, rank, seed ^ 0x10_0A),
            lora_a: Param::zeros(rank, output),
            mode: LoraMode::Pretrain,
        };
        l.set_mode(LoraMode::Pretrain);
        l
    }

    /// Switch pre-train / fine-tune mode, updating trainability flags.
    pub fn set_mode(&mut self, mode: LoraMode) {
        self.mode = mode;
        let finetune = mode == LoraMode::Finetune;
        self.w.trainable = !finetune;
        self.b.trainable = !finetune;
        self.lora_a.trainable = finetune;
        self.lora_b.trainable = finetune;
    }

    /// Forward pass, the layer's definition: `y = x @ W + (x @ B) @ A + b`,
    /// the adapter applied unmerged.
    pub fn forward(&self, x: &Tensor2) -> Tensor2 {
        let mut y = x.matmul(&self.w.value);
        y.add_assign(&x.matmul(&self.lora_b.value).matmul(&self.lora_a.value));
        y.add_row_broadcast(self.b.value.row(0));
        y
    }

    /// The base weight with the adapter merged in, `W + B·A` (`in × out`):
    /// the single matrix an inference-only twin multiplies by.
    pub fn merged_weight(&self) -> Tensor2 {
        let mut w = Tensor2::default();
        self.merged_weight_into(&mut w);
        w
    }

    /// [`LoraLinear::merged_weight`] into a caller-owned buffer, reusing its
    /// capacity: `B·A` first, then `W` added (float addition commutes, so
    /// the bits match `W + B·A`).
    pub fn merged_weight_into(&self, out: &mut Tensor2) {
        self.lora_b.value.matmul_into(&self.lora_a.value, out);
        out.add_assign(&self.w.value);
    }

    /// Backward pass of a layer run through its merged weight
    /// `W' = W + B·A`, given `dw = xᵀ·dy` (the gradient of `W'`) and the
    /// bias gradient `db = Σ dy` (the upstream gradient's column sums):
    /// accumulates only on the parameters the current mode marks trainable
    /// (frozen gradients are skipped entirely, which is what makes LoRA
    /// tuning cheaper than full training, Sec. V-C). Pre-training takes
    /// `dW = dw` and the bias `db`; fine-tuning takes `dB = dw·Aᵀ` and
    /// `dA = Bᵀ·dw`. `scratch` is reusable product space.
    pub fn backward_merged(&mut self, dw: &Tensor2, db: &[f32], scratch: &mut Tensor2) {
        if self.w.trainable {
            self.w.grad.add_assign(dw);
        }
        if self.b.trainable {
            let grad = self.b.grad.row_mut(0);
            assert_eq!(grad.len(), db.len(), "bias gradient width mismatch");
            for (g, &d) in grad.iter_mut().zip(db) {
                *g += d;
            }
        }
        if self.lora_b.trainable {
            dw.matmul_nt_into(&self.lora_a.value, scratch);
            self.lora_b.grad.add_assign(scratch);
        }
        if self.lora_a.trainable {
            self.lora_b.value.matmul_tn_into(dw, scratch);
            self.lora_a.grad.add_assign(scratch);
        }
    }

    /// Mutable references to all parameters (frozen ones included; the
    /// optimizer honours `trainable`).
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w, &mut self.b, &mut self.lora_b, &mut self.lora_a]
    }

    /// The adapter weights `(B, A)` — everything fine-tuning trains. This is
    /// the hand-off unit for per-database adapters: extract after
    /// fine-tuning, ship, and [`set_lora_weights`] into a base model.
    ///
    /// [`set_lora_weights`]: LoraLinear::set_lora_weights
    pub fn lora_weights(&self) -> (&Tensor2, &Tensor2) {
        (&self.lora_b.value, &self.lora_a.value)
    }

    /// Install adapter weights `(B, A)` extracted from a compatible layer.
    /// Fails (returning the expected shapes) instead of silently producing
    /// a model with torn dimensions.
    pub fn set_lora_weights(&mut self, b: Tensor2, a: Tensor2) -> Result<(), String> {
        let want_b = (self.lora_b.value.rows(), self.lora_b.value.cols());
        let want_a = (self.lora_a.value.rows(), self.lora_a.value.cols());
        if (b.rows(), b.cols()) != want_b || (a.rows(), a.cols()) != want_a {
            return Err(format!(
                "LoRA shape mismatch: got B {}×{} / A {}×{}, layer expects B {}×{} / A {}×{}",
                b.rows(),
                b.cols(),
                a.rows(),
                a.cols(),
                want_b.0,
                want_b.1,
                want_a.0,
                want_a.1
            ));
        }
        self.lora_b.value = b;
        self.lora_a.value = a;
        Ok(())
    }

    /// Base (non-LoRA) parameter count.
    pub fn base_param_count(&self) -> usize {
        self.w.count() + self.b.count()
    }

    /// Adapter-only parameter count (what fine-tuning trains).
    pub fn lora_param_count(&self) -> usize {
        self.lora_a.count() + self.lora_b.count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Central finite-difference gradient check for Linear.
    #[test]
    fn linear_gradients_match_finite_differences() {
        let mut layer = Linear::new(3, 2, 7);
        let x = Tensor2::uniform(4, 3, 1.0, 11);
        // Loss = sum(y²)/2 so dy = y.
        let y = layer.forward(&x);
        let dx = layer.backward(&y, &x);

        let eps = 1e-3f32;
        let loss = |layer: &Linear, x: &Tensor2| -> f32 {
            let y = layer.forward(x);
            0.5 * y.norm_sq()
        };
        // Check dW numerically.
        for idx in 0..layer.w.value.len() {
            let orig = layer.w.value.as_slice()[idx];
            layer.w.value.as_mut_slice()[idx] = orig + eps;
            let lp = loss(&layer, &x);
            layer.w.value.as_mut_slice()[idx] = orig - eps;
            let lm = loss(&layer, &x);
            layer.w.value.as_mut_slice()[idx] = orig;
            let num = (lp - lm) / (2.0 * eps);
            let ana = layer.w.grad.as_slice()[idx];
            assert!(
                (num - ana).abs() < 1e-2 * (1.0 + ana.abs()),
                "dW[{idx}]: numeric {num} vs analytic {ana}"
            );
        }
        // Check dx numerically.
        let mut x2 = x.clone();
        for idx in 0..x2.len() {
            let orig = x2.as_slice()[idx];
            x2.as_mut_slice()[idx] = orig + eps;
            let lp = loss(&layer, &x2);
            x2.as_mut_slice()[idx] = orig - eps;
            let lm = loss(&layer, &x2);
            x2.as_mut_slice()[idx] = orig;
            let num = (lp - lm) / (2.0 * eps);
            let ana = dx.as_slice()[idx];
            assert!(
                (num - ana).abs() < 1e-2 * (1.0 + ana.abs()),
                "dx[{idx}]: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn lora_starts_identical_to_base() {
        let lora = LoraLinear::new(6, 4, 2, 3);
        let x = Tensor2::uniform(5, 6, 1.0, 9);
        let y = lora.forward(&x);
        // A is zero ⇒ ΔW = 0 ⇒ output equals the base layer's.
        let base = x.matmul(&lora.w.value);
        for (a, b) in y.as_slice().iter().zip(base.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn lora_gradients_match_finite_differences() {
        // Pre-training moves W and the bias, fine-tuning only the adapters;
        // frozen parameters must receive no gradient at all.
        for mode in [LoraMode::Pretrain, LoraMode::Finetune] {
            let mut layer = LoraLinear::new(4, 3, 2, 5);
            layer.set_mode(mode);
            // Nonzero A so every gradient path is exercised.
            layer.lora_a.value = Tensor2::uniform(2, 3, 0.5, 21);
            let x = Tensor2::uniform(3, 4, 1.0, 13);
            // Loss = sum(y²)/2 so dy = y; dW' = xᵀ·dy and dx = dy·W'ᵀ.
            let y = layer.forward(&x);
            let dx = y.matmul_nt(&layer.merged_weight());
            let mut scratch = Tensor2::default();
            layer.backward_merged(&x.matmul_tn(&y), &y.col_sums(), &mut scratch);

            let eps = 1e-3f32;
            let loss = |layer: &LoraLinear, x: &Tensor2| 0.5 * layer.forward(x).norm_sq();
            let close = |num: f32, ana: f32| (num - ana).abs() < 2e-2 * (1.0 + ana.abs());
            for p in 0..4 {
                let len = layer.params_mut()[p].value.len();
                for idx in 0..len {
                    let (orig, ana, trainable) = {
                        let ps = layer.params_mut();
                        (
                            ps[p].value.as_slice()[idx],
                            ps[p].grad.as_slice()[idx],
                            ps[p].trainable,
                        )
                    };
                    if !trainable {
                        assert_eq!(ana, 0.0, "{mode:?} frozen param {p} got a gradient");
                        continue;
                    }
                    layer.params_mut()[p].value.as_mut_slice()[idx] = orig + eps;
                    let lp = loss(&layer, &x);
                    layer.params_mut()[p].value.as_mut_slice()[idx] = orig - eps;
                    let lm = loss(&layer, &x);
                    layer.params_mut()[p].value.as_mut_slice()[idx] = orig;
                    let num = (lp - lm) / (2.0 * eps);
                    assert!(close(num, ana), "{mode:?} param {p}[{idx}]: {num} vs {ana}");
                }
            }
            let mut x2 = x.clone();
            for idx in 0..x2.len() {
                let orig = x2.as_slice()[idx];
                x2.as_mut_slice()[idx] = orig + eps;
                let lp = loss(&layer, &x2);
                x2.as_mut_slice()[idx] = orig - eps;
                let lm = loss(&layer, &x2);
                x2.as_mut_slice()[idx] = orig;
                let (num, ana) = ((lp - lm) / (2.0 * eps), dx.as_slice()[idx]);
                assert!(close(num, ana), "{mode:?} dx[{idx}]: {num} vs {ana}");
            }
        }
    }

    #[test]
    fn mode_switch_flips_trainability() {
        let mut layer = LoraLinear::new(8, 4, 2, 1);
        assert!(layer.w.trainable && !layer.lora_a.trainable);
        layer.set_mode(LoraMode::Finetune);
        assert!(!layer.w.trainable && layer.lora_a.trainable && layer.lora_b.trainable);
    }

    #[test]
    fn lora_weight_roundtrip_and_shape_guard() {
        let mut src = LoraLinear::new(6, 4, 2, 3);
        src.lora_a.value = Tensor2::uniform(2, 4, 0.5, 17);
        let mut dst = LoraLinear::new(6, 4, 2, 99);
        let (b, a) = src.lora_weights();
        dst.set_lora_weights(b.clone(), a.clone()).unwrap();
        let x = Tensor2::uniform(3, 6, 1.0, 5);
        // Same base? No — different seeds. But the LoRA delta must match:
        // Δ = (x @ B) @ A is identical once the adapters are installed.
        let delta = |l: &LoraLinear| x.matmul(&l.lora_b.value).matmul(&l.lora_a.value);
        assert_eq!(delta(&src).as_slice(), delta(&dst).as_slice());
        // Wrong-rank adapters are rejected, not torn in.
        let bad = LoraLinear::new(6, 4, 3, 1);
        let (bb, ba) = (bad.lora_b.value.clone(), bad.lora_a.value.clone());
        assert!(dst.set_lora_weights(bb, ba).is_err());
    }

    #[test]
    fn lora_param_count_is_much_smaller() {
        let layer = LoraLinear::new(128, 128, 32, 2);
        assert!(layer.lora_param_count() < layer.base_param_count());
        assert_eq!(layer.lora_param_count(), 128 * 32 + 32 * 128);
    }
}
