//! Bit-identity proptests for the `_into` kernel family and in-place softmax.
//!
//! The zero-allocation training path is only sound if every buffer-reuse
//! kernel produces *exactly* the same bits as its allocating counterpart.
//! The reused output buffers are pre-poisoned with garbage of a *different*
//! shape so stale capacity can never leak into results. Agreement of the
//! kernel tiers themselves (AVX-512, AVX2+FMA, blocked scalar) with a naive
//! oracle is a unit test in `tensor.rs`, which can reach each tier directly.

use proptest::prelude::*;

use dace_nn::Tensor2;

/// A deterministic garbage buffer, shaped differently from any result, so
/// `_into` must fully overwrite both shape and contents.
fn poisoned() -> Tensor2 {
    Tensor2::uniform(3, 7, 123.0, 0xBAD)
}

fn dims() -> impl Strategy<Value = (usize, usize, usize)> {
    // Cover the FMA tile edges (n % 16, m % 4), the blocked-kernel panels,
    // and the k % 8 dot-product boundary.
    (1usize..24, 1usize..20, 1usize..36)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matmul_into_is_bit_identical(mkn in dims(), seed in 0u64..1000) {
        let (m, k, n) = mkn;
        let a = Tensor2::uniform(m, k, 1.0, seed);
        let b = Tensor2::uniform(k, n, 1.0, seed ^ 0xF00D);
        let want = a.matmul(&b);
        let mut out = poisoned();
        a.matmul_into(&b, &mut out);
        prop_assert_eq!(want.as_slice(), out.as_slice());
        prop_assert_eq!((out.rows(), out.cols()), (m, n));
        // Reusing the warmed buffer must give the same bits again.
        a.matmul_into(&b, &mut out);
        prop_assert_eq!(want.as_slice(), out.as_slice());
    }

    #[test]
    fn matmul_tn_into_is_bit_identical(mkn in dims(), seed in 0u64..1000) {
        let (m, k, n) = mkn;
        let a = Tensor2::uniform(k, m, 1.0, seed);
        let b = Tensor2::uniform(k, n, 1.0, seed ^ 0xF00D);
        let want = a.matmul_tn(&b);
        let mut out = poisoned();
        a.matmul_tn_into(&b, &mut out);
        prop_assert_eq!(want.as_slice(), out.as_slice());
        prop_assert_eq!((out.rows(), out.cols()), (m, n));
    }

    #[test]
    fn matmul_nt_into_is_bit_identical(mkn in dims(), seed in 0u64..1000) {
        let (m, k, n) = mkn;
        let a = Tensor2::uniform(m, k, 1.0, seed);
        let b = Tensor2::uniform(n, k, 1.0, seed ^ 0xF00D);
        let want = a.matmul_nt(&b);
        let mut out = poisoned();
        a.matmul_nt_into(&b, &mut out);
        prop_assert_eq!(want.as_slice(), out.as_slice());
        prop_assert_eq!((out.rows(), out.cols()), (m, n));
    }

    #[test]
    fn row_block_copy_and_col_sums_acc_match(
        shape in (2usize..12, 1usize..9),
        seed in 0u64..1000,
    ) {
        let (rows, cols) = shape;
        let x = Tensor2::uniform(rows, cols, 2.0, seed);
        let start = (seed as usize) % (rows - 1);
        let take = 1 + (seed as usize) % (rows - start);
        let want = x.row_block(start, take);
        let mut got = poisoned();
        got.copy_row_block_from(&x, start, take);
        prop_assert_eq!(want.as_slice(), got.as_slice());
        prop_assert_eq!((got.rows(), got.cols()), (take, cols));

        let mut acc = vec![0.0f32; cols];
        x.col_sums_acc(&mut acc);
        prop_assert_eq!(x.col_sums(), acc.clone());
        // Accumulation (not overwrite): a second pass ~doubles the sums
        // (approximate — the second pass folds onto a non-zero start, which
        // reassociates the float sum).
        x.col_sums_acc(&mut acc);
        for (s, a) in x.col_sums().iter().zip(&acc) {
            prop_assert!((2.0 * s - a).abs() <= 1e-4 * (1.0 + a.abs()));
        }
    }
}

/// In-place softmax (already the only softmax) must keep its all-`−∞`-row
/// guarantee when fed through reused buffers.
#[test]
fn softmax_fully_masked_rows_stay_zero_in_reused_buffers() {
    let inf = f32::NEG_INFINITY;
    let mut x = poisoned();
    x.copy_from_slice_shaped(3, 3, &[inf, inf, inf, 0.0, inf, 0.0, inf, inf, 1.0]);
    x.softmax_rows();
    assert!(x.as_slice().iter().all(|v| v.is_finite()));
    assert_eq!(x.row(0), &[0.0, 0.0, 0.0]);
    assert!((x.get(1, 0) - 0.5).abs() < 1e-6);
    assert!((x.get(2, 2) - 1.0).abs() < 1e-6);
}
