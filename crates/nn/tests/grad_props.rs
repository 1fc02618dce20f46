//! Property-based gradient checks: for random shapes, inputs and parameter
//! values, every module's analytic backward pass must match central finite
//! differences. This is the trust anchor of the from-scratch NN library.
//! Attention is checked through its one packed pair, `forward_packed_ws` /
//! `backward_params_ws`, on one block, with `dx` formed from the `dQ`/`dK`/
//! `dV` it leaves as QueryFormer forms it. LoRA is checked through the
//! merged-weight gradient DACE's folded training pass runs:
//! `LoraLinear::backward_merged` from `dW' = xᵀ·dy` and `db = Σ dy`.

use dace_nn::{
    AttnScratch, Linear, LoraLinear, MaskedSelfAttention, Relu, RobustScaler, Tensor2, MASK_NEG,
};
use proptest::prelude::*;

const EPS: f32 = 1e-2;
const TOL: f32 = 6e-2;

fn close(numeric: f32, analytic: f32) -> bool {
    (numeric - analytic).abs() < TOL * (1.0 + analytic.abs())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn linear_weight_gradients(rows in 1usize..5, input in 1usize..6, output in 1usize..5, seed in 0u64..1_000) {
        let mut layer = Linear::new(input, output, seed);
        let x = Tensor2::uniform(rows, input, 1.0, seed ^ 0xF00D);
        let y = layer.forward(&x);
        let _ = layer.backward(&y, &x); // loss = ||y||²/2
        let loss = |l: &Linear| 0.5 * l.forward(&x).norm_sq();
        for idx in 0..layer.w.value.len() {
            let orig = layer.w.value.as_slice()[idx];
            let ana = layer.w.grad.as_slice()[idx];
            layer.w.value.as_mut_slice()[idx] = orig + EPS;
            let lp = loss(&layer);
            layer.w.value.as_mut_slice()[idx] = orig - EPS;
            let lm = loss(&layer);
            layer.w.value.as_mut_slice()[idx] = orig;
            prop_assert!(close((lp - lm) / (2.0 * EPS), ana));
        }
        // Bias gradients too.
        for idx in 0..layer.b.value.len() {
            let orig = layer.b.value.as_slice()[idx];
            let ana = layer.b.grad.as_slice()[idx];
            layer.b.value.as_mut_slice()[idx] = orig + EPS;
            let lp = loss(&layer);
            layer.b.value.as_mut_slice()[idx] = orig - EPS;
            let lm = loss(&layer);
            layer.b.value.as_mut_slice()[idx] = orig;
            prop_assert!(close((lp - lm) / (2.0 * EPS), ana));
        }
    }

    #[test]
    fn lora_adapter_gradients(rows in 1usize..4, dim in 3usize..7, seed in 0u64..1_000) {
        let rank = 2;
        let mut layer = LoraLinear::new(dim, dim, rank, seed);
        layer.set_mode(dace_nn::LoraMode::Finetune);
        layer.lora_a.value = Tensor2::uniform(rank, dim, 0.5, seed ^ 0xA);
        let x = Tensor2::uniform(rows, dim, 1.0, seed ^ 0xB);
        let y = layer.forward(&x);
        let mut scratch = Tensor2::default();
        layer.backward_merged(&x.matmul_tn(&y), &y.col_sums(), &mut scratch); // loss = ||y||²/2
        let loss = |l: &LoraLinear| 0.5 * l.forward(&x).norm_sq();
        // params_mut order: W, bias, B, A — fine-tuning trains the last two.
        for which in [2usize, 3] {
            for idx in 0..layer.params_mut()[which].value.len() {
                let (orig, ana) = {
                    let ps = layer.params_mut();
                    (ps[which].value.as_slice()[idx], ps[which].grad.as_slice()[idx])
                };
                layer.params_mut()[which].value.as_mut_slice()[idx] = orig + EPS;
                let lp = loss(&layer);
                layer.params_mut()[which].value.as_mut_slice()[idx] = orig - EPS;
                let lm = loss(&layer);
                layer.params_mut()[which].value.as_mut_slice()[idx] = orig;
                prop_assert!(close((lp - lm) / (2.0 * EPS), ana));
            }
        }
    }

    #[test]
    fn attention_gradients(n in 2usize..5, d in 2usize..5, seed in 0u64..1_000) {
        let mut attn = MaskedSelfAttention::new(d, 4, 4, seed);
        let attend = |a: &MaskedSelfAttention, x: &Tensor2, bias: &[f32], ws: &mut AttnScratch| {
            let mut out = Tensor2::default();
            a.forward_packed_ws(x, &[n], n, bias, ws, &mut out);
            out
        };
        let mut x = Tensor2::uniform(n, d, 1.0, seed ^ 0xC);
        // Random "tree-ish" mask: lower-triangular style, always reflexive.
        let mut mask = vec![false; n * n];
        for i in 0..n {
            for j in i..n {
                mask[i * n + j] = true;
            }
        }
        let bias: Vec<f32> = mask.iter().map(|&ok| if ok { 0.0 } else { MASK_NEG }).collect();
        let mut ws = AttnScratch::default();
        let y = attend(&attn, &x, &bias, &mut ws);
        attn.backward_params_ws(&y, &x, &[n], &mut ws); // loss = ||y||²/2
        let mut dx = ws.dq.matmul_nt(&attn.wq.value);
        dx.add_assign(&ws.dk.matmul_nt(&attn.wk.value));
        dx.add_assign(&ws.dv.matmul_nt(&attn.wv.value));
        let loss = |a: &MaskedSelfAttention, x: &Tensor2| {
            0.5 * attend(a, x, &bias, &mut AttnScratch::default()).norm_sq()
        };
        // W_Q, W_K, W_V: the gradients `backward_params_ws` accumulates.
        for which in 0..3 {
            for idx in 0..attn.params_mut()[which].value.len() {
                let (orig, ana) = {
                    let ps = attn.params_mut();
                    (ps[which].value.as_slice()[idx], ps[which].grad.as_slice()[idx])
                };
                attn.params_mut()[which].value.as_mut_slice()[idx] = orig + EPS;
                let lp = loss(&attn, &x);
                attn.params_mut()[which].value.as_mut_slice()[idx] = orig - EPS;
                let lm = loss(&attn, &x);
                attn.params_mut()[which].value.as_mut_slice()[idx] = orig;
                prop_assert!(close((lp - lm) / (2.0 * EPS), ana));
            }
        }
        for idx in 0..x.len() {
            let orig = x.as_slice()[idx];
            let ana = dx.as_slice()[idx];
            x.as_mut_slice()[idx] = orig + EPS;
            let lp = loss(&attn, &x);
            x.as_mut_slice()[idx] = orig - EPS;
            let lm = loss(&attn, &x);
            x.as_mut_slice()[idx] = orig;
            prop_assert!(close((lp - lm) / (2.0 * EPS), ana));
        }
    }

    #[test]
    fn relu_gradient_gates(rows in 1usize..5, cols in 1usize..6, seed in 0u64..1_000) {
        let x = Tensor2::uniform(rows, cols, 2.0, seed);
        let mut y = x.clone();
        Relu::forward_in_place(&mut y);
        let dy = Tensor2::uniform(rows, cols, 1.0, seed ^ 1);
        let mut dx = dy.clone();
        Relu::backward_in_place(&mut dx, &y);
        for i in 0..x.len() {
            if x.as_slice()[i] > 0.0 {
                prop_assert_eq!(dx.as_slice()[i], dy.as_slice()[i]);
                prop_assert_eq!(y.as_slice()[i], x.as_slice()[i]);
            } else {
                prop_assert_eq!(dx.as_slice()[i], 0.0);
                prop_assert_eq!(y.as_slice()[i], 0.0);
            }
        }
    }

    #[test]
    fn softmax_rows_are_distributions_for_any_input(
        rows in 1usize..6,
        cols in 1usize..8,
        scale in 0.1f32..50.0,
        seed in 0u64..1_000
    ) {
        let mut x = Tensor2::uniform(rows, cols, scale, seed);
        x.softmax_rows();
        for r in 0..rows {
            let row = x.row(r);
            prop_assert!(row.iter().all(|v| (0.0..=1.0).contains(v) && v.is_finite()));
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn scaler_roundtrips_any_distribution(values in proptest::collection::vec(-1e6f64..1e6, 2..200), probe in -1e6f64..1e6) {
        let s = RobustScaler::fit(&values);
        prop_assert!(s.iqr > 0.0);
        let t = s.transform(probe);
        prop_assert!(t.is_finite());
        prop_assert!((s.inverse(t) - probe).abs() < 1e-6 * (1.0 + probe.abs()));
    }

    #[test]
    fn matmul_is_associative_with_transpose_identities(
        m in 1usize..5, k in 1usize..5, n in 1usize..5, seed in 0u64..1_000
    ) {
        let a = Tensor2::uniform(m, k, 1.0, seed);
        let b = Tensor2::uniform(k, n, 1.0, seed ^ 2);
        let ab = a.matmul(&b);
        // (AB)ᵀ = BᵀAᵀ
        let lhs = ab.transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
        // matmul_tn / matmul_nt agree with explicit transposes.
        let tn = a.transpose().matmul(&ab); // (k×m)(m×n)
        let tn_fast = a.matmul_tn(&ab);
        for (x, y) in tn.as_slice().iter().zip(tn_fast.as_slice()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }
}
