//! ReLU activation. Every pass is a per-element select rather than a branch,
//! so the loops vectorize and random signs cost no branch mispredictions.

use serde::{Deserialize, Serialize};

use crate::tensor::Tensor2;

/// Elementwise `max(0, x)`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Relu {
    #[serde(skip)]
    mask: Option<Vec<bool>>,
}

impl Relu {
    /// New activation.
    pub fn new() -> Relu {
        Relu::default()
    }

    /// Forward pass; caches the activation mask for backward.
    pub fn forward(&mut self, x: &Tensor2) -> Tensor2 {
        let mut y = x.clone();
        Relu::forward_in_place(&mut y);
        self.mask = Some(x.as_slice().iter().map(|&v| v > 0.0).collect());
        y
    }

    /// In-place [`Relu::forward`] without a mask: every element that is not
    /// `> 0` (negatives, both zeros, NaN) becomes `+0.0`. Pairs with
    /// [`Relu::backward_in_place`], which reads the sign back from the
    /// output this leaves.
    pub fn forward_in_place(x: &mut Tensor2) {
        for v in x.as_mut_slice() {
            *v = if *v > 0.0 { *v } else { 0.0 };
        }
    }

    /// In-place backward of [`Relu::forward_in_place`]: zero `d` wherever
    /// the stored output `y` is not `> 0`. `y > 0 ⇔ x > 0`, so this is the
    /// mask replay of [`Relu::backward`] without a mask.
    pub fn backward_in_place(d: &mut Tensor2, y: &Tensor2) {
        assert_eq!(d.len(), y.len(), "relu output/gradient length mismatch");
        for (v, &out) in d.as_mut_slice().iter_mut().zip(y.as_slice()) {
            *v = if out > 0.0 { *v } else { 0.0 };
        }
    }

    /// Forward pass without caching (inference). Only negatives are
    /// clamped: `-0.0` and NaN pass through.
    pub fn forward_inference(&self, x: &Tensor2) -> Tensor2 {
        let mut y = x.clone();
        for v in y.as_mut_slice() {
            *v = if *v < 0.0 { 0.0 } else { *v };
        }
        y
    }

    /// Stateless backward from the *output* `y` (the mask is recoverable
    /// because `y > 0 ⇔ x > 0`). Companion to [`crate::Linear::backward_from`]
    /// for recursive tree networks.
    pub fn backward_from(dy: &Tensor2, y: &Tensor2) -> Tensor2 {
        let mut dx = dy.clone();
        for (v, &out) in dx.as_mut_slice().iter_mut().zip(y.as_slice()) {
            *v = if out <= 0.0 { 0.0 } else { *v };
        }
        dx
    }

    /// Backward pass: zero gradient where the input was non-positive.
    pub fn backward(&mut self, dy: &Tensor2) -> Tensor2 {
        let mask = self.mask.take().expect("backward before forward");
        let mut dx = dy.clone();
        for (v, &alive) in dx.as_mut_slice().iter_mut().zip(&mask) {
            *v = if alive { *v } else { 0.0 };
        }
        dx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_and_backward_gate_together() {
        let mut relu = Relu::new();
        let x = Tensor2::from_vec(1, 4, vec![-1.0, 0.0, 2.0, -3.0]);
        let y = relu.forward(&x);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0, 0.0]);
        let dy = Tensor2::from_vec(1, 4, vec![1.0, 1.0, 1.0, 1.0]);
        let dx = relu.backward(&dy);
        assert_eq!(dx.as_slice(), &[0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn inference_matches_training_forward() {
        let mut relu = Relu::new();
        let x = Tensor2::uniform(3, 3, 2.0, 5);
        let a = relu.forward(&x);
        let b = relu.forward_inference(&x);
        assert_eq!(a, b);
    }

    #[test]
    fn in_place_ops_match_allocating_ops() {
        let mut relu = Relu::new();
        let x = Tensor2::uniform(4, 5, 2.0, 9);
        let y = relu.forward(&x);
        let mut y_ip = x.clone();
        Relu::forward_in_place(&mut y_ip);
        assert_eq!(y.as_slice(), y_ip.as_slice());

        let dy = Tensor2::uniform(4, 5, 1.0, 10);
        let dx = relu.backward(&dy);
        let mut dx_ip = dy.clone();
        Relu::backward_in_place(&mut dx_ip, &y_ip);
        assert_eq!(dx.as_slice(), dx_ip.as_slice());
    }

    /// Bit for bit on the values a comparison can get wrong: the forward
    /// gives `x > 0 ? x : +0.0`, and the mask-free backward gives what
    /// replaying a saved `x > 0` mask gave, for every gradient value.
    #[test]
    fn in_place_ops_are_exact_on_special_values() {
        let sub = f32::MIN_POSITIVE / 2.0;
        let vals = [
            -0.0,
            0.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            sub,
            -sub,
            1.5,
            -1.5,
        ];
        let n = vals.len();
        let mut y = Tensor2::from_vec(1, n, vals.to_vec());
        Relu::forward_in_place(&mut y);
        for (&x, &out) in vals.iter().zip(y.as_slice()) {
            let want = if x > 0.0 { x.to_bits() } else { 0 }; // +0.0
            assert_eq!(out.to_bits(), want, "forward of {x:?}");
        }

        // Row r holds gradient vals[r] at every column; column c sits
        // behind the activation of vals[c].
        let grads: Vec<f32> = vals.iter().flat_map(|&g| vec![g; n]).collect();
        let mut d = Tensor2::from_vec(n, n, grads.clone());
        let ys = Tensor2::from_vec(n, n, y.as_slice().repeat(n));
        Relu::backward_in_place(&mut d, &ys);
        let mask: Vec<bool> = vals.iter().map(|&x| x > 0.0).collect();
        for (i, (&got, &g)) in d.as_slice().iter().zip(&grads).enumerate() {
            let mut want = g;
            if !mask[i % n] {
                want = 0.0;
            }
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "gradient {g:?} behind {:?}",
                vals[i % n]
            );
        }
    }
}
