//! ReLU activation with cached mask.

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
        let mask: Vec<bool> = y
            .as_mut_slice()
            .iter_mut()
            .map(|v| {
                if *v > 0.0 {
                    true
                } else {
                    *v = 0.0;
                    false
                }
            })
            .collect();
        self.mask = Some(mask);
        y
    }

    /// In-place [`Relu::forward`]: clamp negatives in `x` directly, saving
    /// the sign mask into the caller's buffer (cleared and refilled, so no
    /// allocation once capacity is reached). Pairs with
    /// [`Relu::backward_in_place`].
    pub fn forward_in_place(x: &mut Tensor2, mask: &mut Vec<bool>) {
        mask.clear();
        mask.extend(x.as_mut_slice().iter_mut().map(|v| {
            if *v > 0.0 {
                true
            } else {
                *v = 0.0;
                false
            }
        }));
    }

    /// In-place [`Relu::backward`]: zero `d` wherever the saved sign mask
    /// is dead.
    pub fn backward_in_place(d: &mut Tensor2, mask: &[bool]) {
        assert_eq!(d.len(), mask.len(), "relu mask/gradient length mismatch");
        for (v, &alive) in d.as_mut_slice().iter_mut().zip(mask) {
            if !alive {
                *v = 0.0;
            }
        }
    }

    /// In-place inference forward (no mask saved).
    pub fn relu_in_place(x: &mut Tensor2) {
        for v in x.as_mut_slice() {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
    }

    /// Forward pass without caching (inference).
    pub fn forward_inference(&self, x: &Tensor2) -> Tensor2 {
        let mut y = x.clone();
        for v in y.as_mut_slice() {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        y
    }

    /// Stateless backward from the *output* `y` (the mask is recoverable
    /// because `y > 0 ⇔ x > 0`). Companion to [`crate::Linear::backward_from`]
    /// for recursive tree networks.
    pub fn backward_from(dy: &Tensor2, y: &Tensor2) -> Tensor2 {
        let mut dx = dy.clone();
        for (v, &out) in dx.as_mut_slice().iter_mut().zip(y.as_slice()) {
            if out <= 0.0 {
                *v = 0.0;
            }
        }
        dx
    }

    /// Backward pass: zero gradient where the input was non-positive.
    pub fn backward(&mut self, dy: &Tensor2) -> Tensor2 {
        let mask = self.mask.take().expect("backward before forward");
        let mut dx = dy.clone();
        for (v, &alive) in dx.as_mut_slice().iter_mut().zip(&mask) {
            if !alive {
                *v = 0.0;
            }
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
        let mut mask = Vec::new();
        Relu::forward_in_place(&mut y_ip, &mut mask);
        assert_eq!(y.as_slice(), y_ip.as_slice());

        let dy = Tensor2::uniform(4, 5, 1.0, 10);
        let dx = relu.backward(&dy);
        let mut dx_ip = dy.clone();
        Relu::backward_in_place(&mut dx_ip, &mask);
        assert_eq!(dx.as_slice(), dx_ip.as_slice());

        let mut inf = x.clone();
        Relu::relu_in_place(&mut inf);
        assert_eq!(inf, relu.forward_inference(&x));
    }
}
