//! ReLU activation. Every pass is a per-element select rather than a branch,
//! so the loops vectorize and random signs cost no branch mispredictions.

use crate::tensor::Tensor2;

/// Elementwise `max(0, x)`, in place and without a mask: the backward reads
/// the sign back from the forward's output.
pub struct Relu;

impl Relu {
    /// Forward pass in place: every element that is not `> 0` (negatives,
    /// both zeros, NaN) becomes `+0.0`. Pairs with
    /// [`Relu::backward_in_place`], which reads the sign back from the
    /// output this leaves.
    pub fn forward_in_place(x: &mut Tensor2) {
        for v in x.as_mut_slice() {
            *v = if *v > 0.0 { *v } else { 0.0 };
        }
    }

    /// Backward pass of [`Relu::forward_in_place`] in place: zero `d`
    /// wherever the stored output `y` is not `> 0`. `y > 0 ⇔ x > 0`, so
    /// this gates exactly as a saved `x > 0` mask would.
    pub fn backward_in_place(d: &mut Tensor2, y: &Tensor2) {
        assert_eq!(d.len(), y.len(), "relu output/gradient length mismatch");
        for (v, &out) in d.as_mut_slice().iter_mut().zip(y.as_slice()) {
            *v = if out > 0.0 { *v } else { 0.0 };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_and_backward_gate_together() {
        let mut y = Tensor2::from_vec(1, 4, vec![-1.0, 0.0, 2.0, -3.0]);
        Relu::forward_in_place(&mut y);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0, 0.0]);
        let mut d = Tensor2::from_vec(1, 4, vec![1.0, 1.0, 1.0, 1.0]);
        Relu::backward_in_place(&mut d, &y);
        assert_eq!(d.as_slice(), &[0.0, 0.0, 1.0, 0.0]);
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
