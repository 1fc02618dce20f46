//! Row-major 2-D `f32` tensors and the linear-algebra kernels the modules
//! need. The matmul family has three tiers, picked at runtime from what the
//! CPU supports:
//!
//! 1. **AVX-512F register-tiled kernels** (x86-64 with `avx512f`
//!    detected): 6×32 output tiles accumulate over the whole shared
//!    dimension in zmm registers — twice the lane width and deeper
//!    accumulator parallelism than the AVX2 tier, with masked loads/stores
//!    covering the column tail so every output element stays on the fused
//!    p-ascending path.
//! 2. **AVX2+FMA register-tiled kernels** (x86-64 with `avx2`+`fma`
//!    detected): 4×16 output tiles accumulate over the whole shared
//!    dimension in ymm registers, so each B element is loaded once per
//!    four output rows and every multiply-add is fused. Batched training
//!    packs whole mini-batches into single tensors (hundreds of rows),
//!    which is exactly the regime these tiles are built for.
//! 3. **Blocked scalar kernels** (portable fallback): four output rows per
//!    pass with chained-zip inner loops that auto-vectorize without bounds
//!    checks, shared dimension in L1-sized blocks.
//!
//! `simd_strided` and `simd_dots` are the only places that pick a tier;
//! every entry point falls back to its blocked scalar kernel when they
//! report no SIMD tier.
//!
//! Per output element every tier keeps the same `p`-ascending summation
//! order (FMA only fuses the rounding of each step); `matmul_nt`'s
//! dot-product path additionally splits the sum across SIMD lanes, which
//! reassociates it — all consumers tolerate 1e-5.

#[cfg(target_arch = "x86_64")]
use std::cell::RefCell;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// AVX2+FMA register-tiled kernels, used when the CPU supports them.
// Raw-pointer kernels take (ptr, strides, dims) tuples by design; bundling
// them into structs would only obscure the hot loops.
#[allow(clippy::too_many_arguments)]
#[cfg(target_arch = "x86_64")]
mod fma {
    use std::arch::x86_64::*;

    /// Cached runtime check for `avx2` + `fma`.
    pub fn available() -> bool {
        use std::sync::OnceLock;
        static AVAIL: OnceLock<bool> = OnceLock::new();
        *AVAIL.get_or_init(|| {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        })
    }

    /// One `R × 16` output tile of `C = op(A) @ B`, accumulated over the
    /// whole shared dimension in `2R` ymm registers.
    /// `op(A)(i, p) = a[i·sa + p·sp]` expresses both the normal layout
    /// (`sa = k, sp = 1`) and the transposed one (`sa = 1, sp = m`) without
    /// materializing a transpose.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn tile16<const R: usize>(
        a: *const f32,
        sa: usize,
        sp: usize,
        b: *const f32,
        c: *mut f32,
        i: usize,
        j: usize,
        k: usize,
        n: usize,
    ) {
        let mut acc = [[_mm256_setzero_ps(); 2]; R];
        for p in 0..k {
            let bp = b.add(p * n + j);
            let b0 = _mm256_loadu_ps(bp);
            let b1 = _mm256_loadu_ps(bp.add(8));
            for (t, row) in acc.iter_mut().enumerate() {
                let av = _mm256_set1_ps(*a.add((i + t) * sa + p * sp));
                row[0] = _mm256_fmadd_ps(av, b0, row[0]);
                row[1] = _mm256_fmadd_ps(av, b1, row[1]);
            }
        }
        for (t, row) in acc.iter().enumerate() {
            let cp = c.add((i + t) * n + j);
            _mm256_storeu_ps(cp, row[0]);
            _mm256_storeu_ps(cp.add(8), row[1]);
        }
    }

    /// `C (m×n, pre-zeroed) = op(A) @ B (k×n)` with
    /// `op(A)(i, p) = a[i·sa + p·sp]`. Full 16-wide column tiles run in
    /// registers; the `n % 16` tail falls back to scalar loops with the
    /// same per-element summation order.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn matmul_strided(
        a: *const f32,
        sa: usize,
        sp: usize,
        b: *const f32,
        c: *mut f32,
        m: usize,
        k: usize,
        n: usize,
    ) {
        let nt = n - n % 16;
        let mut i = 0;
        while i < m {
            let r = (m - i).min(4);
            let mut j = 0;
            while j < nt {
                match r {
                    4 => tile16::<4>(a, sa, sp, b, c, i, j, k, n),
                    3 => tile16::<3>(a, sa, sp, b, c, i, j, k, n),
                    2 => tile16::<2>(a, sa, sp, b, c, i, j, k, n),
                    _ => tile16::<1>(a, sa, sp, b, c, i, j, k, n),
                }
                j += 16;
            }
            for t in 0..r {
                for jj in nt..n {
                    let mut s = 0.0f32;
                    for p in 0..k {
                        s += *a.add((i + t) * sa + p * sp) * *b.add(p * n + jj);
                    }
                    *c.add((i + t) * n + jj) = s;
                }
            }
            i += r;
        }
    }

    /// Horizontal sum of a ymm register's eight lanes.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn hsum(v: __m256) -> f32 {
        let hi = _mm256_extractf128_ps(v, 1);
        let s = _mm_add_ps(_mm256_castps256_ps128(v), hi);
        let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
        let s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
        _mm_cvtss_f32(s)
    }

    /// Four dot products `c[j..j+4] = a_row · b_rows[j..j+4]` over `k`,
    /// eight lanes at a time.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn dot4(a_row: *const f32, b: *const f32, c: *mut f32, j: usize, k: usize) {
        let kt = k - k % 8;
        let mut acc = [_mm256_setzero_ps(); 4];
        let mut p = 0;
        while p < kt {
            let av = _mm256_loadu_ps(a_row.add(p));
            for (u, accu) in acc.iter_mut().enumerate() {
                let bv = _mm256_loadu_ps(b.add((j + u) * k + p));
                *accu = _mm256_fmadd_ps(av, bv, *accu);
            }
            p += 8;
        }
        for (u, accu) in acc.iter().enumerate() {
            let mut s = hsum(*accu);
            for pp in kt..k {
                s += *a_row.add(pp) * *b.add((j + u) * k + pp);
            }
            *c.add(j + u) = s;
        }
    }

    /// `C (m×n) = A (m×k) @ B (n×k)ᵀ`: every element is a dot product
    /// over `k`. Four B rows share each streamed A row.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn matmul_nt(
        a: *const f32,
        b: *const f32,
        c: *mut f32,
        m: usize,
        k: usize,
        n: usize,
    ) {
        let ntile = n - n % 4;
        for i in 0..m {
            let a_row = a.add(i * k);
            let c_row = c.add(i * n);
            let mut j = 0;
            while j < ntile {
                dot4(a_row, b, c_row, j, k);
                j += 4;
            }
            for jj in ntile..n {
                let mut s = 0.0f32;
                for p in 0..k {
                    s += *a_row.add(p) * *b.add(jj * k + p);
                }
                *c_row.add(jj) = s;
            }
        }
    }
}

/// AVX-512F register-tiled kernels, preferred over the AVX2 tier when the
/// CPU supports them: same tile structure at twice the lane width.
#[allow(clippy::too_many_arguments)]
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use std::arch::x86_64::*;

    /// Cached runtime check for `avx512f`.
    pub fn available() -> bool {
        use std::sync::OnceLock;
        static AVAIL: OnceLock<bool> = OnceLock::new();
        *AVAIL.get_or_init(|| std::arch::is_x86_feature_detected!("avx512f"))
    }

    /// One `R × 32` output tile of `C = op(A) @ B`, accumulated over the
    /// whole shared dimension in `2R` zmm registers. Strides as in
    /// [`super::fma::matmul_strided`].
    #[target_feature(enable = "avx512f")]
    unsafe fn tile32<const R: usize>(
        a: *const f32,
        sa: usize,
        sp: usize,
        b: *const f32,
        c: *mut f32,
        i: usize,
        j: usize,
        k: usize,
        n: usize,
    ) {
        let mut acc = [[_mm512_setzero_ps(); 2]; R];
        for p in 0..k {
            let bp = b.add(p * n + j);
            let b0 = _mm512_loadu_ps(bp);
            let b1 = _mm512_loadu_ps(bp.add(16));
            for (t, row) in acc.iter_mut().enumerate() {
                let av = _mm512_set1_ps(*a.add((i + t) * sa + p * sp));
                row[0] = _mm512_fmadd_ps(av, b0, row[0]);
                row[1] = _mm512_fmadd_ps(av, b1, row[1]);
            }
        }
        for (t, row) in acc.iter().enumerate() {
            let cp = c.add((i + t) * n + j);
            _mm512_storeu_ps(cp, row[0]);
            _mm512_storeu_ps(cp.add(16), row[1]);
        }
    }

    /// One `R × ≤16` masked output tile: the column tail of
    /// [`matmul_strided`], still fused and p-ascending per element.
    #[target_feature(enable = "avx512f")]
    unsafe fn tile16m<const R: usize>(
        a: *const f32,
        sa: usize,
        sp: usize,
        b: *const f32,
        c: *mut f32,
        i: usize,
        j: usize,
        k: usize,
        n: usize,
        mask: __mmask16,
    ) {
        let mut acc = [_mm512_setzero_ps(); R];
        for p in 0..k {
            let bv = _mm512_maskz_loadu_ps(mask, b.add(p * n + j));
            for (t, accu) in acc.iter_mut().enumerate() {
                let av = _mm512_set1_ps(*a.add((i + t) * sa + p * sp));
                *accu = _mm512_fmadd_ps(av, bv, *accu);
            }
        }
        for (t, accu) in acc.iter().enumerate() {
            _mm512_mask_storeu_ps(c.add((i + t) * n + j), mask, *accu);
        }
    }

    /// `C (m×n, pre-zeroed) = op(A) @ B (k×n)` with
    /// `op(A)(i, p) = a[i·sa + p·sp]`. Full 32-wide column tiles run in
    /// registers; the tail runs in ≤16-wide masked tiles.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn matmul_strided(
        a: *const f32,
        sa: usize,
        sp: usize,
        b: *const f32,
        c: *mut f32,
        m: usize,
        k: usize,
        n: usize,
    ) {
        let mut i = 0;
        while i < m {
            let r = (m - i).min(6);
            let mut j = 0;
            while j + 32 <= n {
                match r {
                    6 => tile32::<6>(a, sa, sp, b, c, i, j, k, n),
                    5 => tile32::<5>(a, sa, sp, b, c, i, j, k, n),
                    4 => tile32::<4>(a, sa, sp, b, c, i, j, k, n),
                    3 => tile32::<3>(a, sa, sp, b, c, i, j, k, n),
                    2 => tile32::<2>(a, sa, sp, b, c, i, j, k, n),
                    _ => tile32::<1>(a, sa, sp, b, c, i, j, k, n),
                }
                j += 32;
            }
            while j < n {
                let rem = (n - j).min(16);
                let mask = 0xffffu16 >> (16 - rem);
                match r {
                    6 => tile16m::<6>(a, sa, sp, b, c, i, j, k, n, mask),
                    5 => tile16m::<5>(a, sa, sp, b, c, i, j, k, n, mask),
                    4 => tile16m::<4>(a, sa, sp, b, c, i, j, k, n, mask),
                    3 => tile16m::<3>(a, sa, sp, b, c, i, j, k, n, mask),
                    2 => tile16m::<2>(a, sa, sp, b, c, i, j, k, n, mask),
                    _ => tile16m::<1>(a, sa, sp, b, c, i, j, k, n, mask),
                }
                j += rem;
            }
            i += r;
        }
    }

    /// Four dot products `c[j..j+4] = a_row · b_rows[j..j+4]` over `k`,
    /// sixteen lanes at a time.
    #[target_feature(enable = "avx512f")]
    unsafe fn dot4(a_row: *const f32, b: *const f32, c: *mut f32, j: usize, k: usize) {
        let kt = k - k % 16;
        let mut acc = [_mm512_setzero_ps(); 4];
        let mut p = 0;
        while p < kt {
            let av = _mm512_loadu_ps(a_row.add(p));
            for (u, accu) in acc.iter_mut().enumerate() {
                let bv = _mm512_loadu_ps(b.add((j + u) * k + p));
                *accu = _mm512_fmadd_ps(av, bv, *accu);
            }
            p += 16;
        }
        for (u, accu) in acc.iter().enumerate() {
            let mut s = _mm512_reduce_add_ps(*accu);
            for pp in kt..k {
                s += *a_row.add(pp) * *b.add((j + u) * k + pp);
            }
            *c.add(j + u) = s;
        }
    }

    /// `C (m×n) = A (m×k) @ B (n×k)ᵀ`: every element is a dot product
    /// over `k`. Four B rows share each streamed A row.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn matmul_nt(
        a: *const f32,
        b: *const f32,
        c: *mut f32,
        m: usize,
        k: usize,
        n: usize,
    ) {
        let ntile = n - n % 4;
        for i in 0..m {
            let a_row = a.add(i * k);
            let c_row = c.add(i * n);
            let mut j = 0;
            while j < ntile {
                dot4(a_row, b, c_row, j, k);
                j += 4;
            }
            for jj in ntile..n {
                let mut s = 0.0f32;
                for p in 0..k {
                    s += *a_row.add(p) * *b.add(jj * k + p);
                }
                *c_row.add(jj) = s;
            }
        }
    }
}

/// Whether the CPU has a SIMD tier ([`simd_strided`] and [`simd_dots`]
/// will run a kernel rather than return `false`).
#[cfg(target_arch = "x86_64")]
fn simd_available() -> bool {
    avx512::available() || fma::available()
}

/// `C (m×n) = op(A) @ B (k×n)` with `op(A)(i, p) = a[i·sa + p·sp]`, on the
/// widest SIMD tier the CPU has: AVX-512F, else AVX2+FMA. The one place
/// that knows the tier order, with [`simd_dots`]. Returns `false`, writing
/// nothing, on a CPU with neither; the caller then runs its scalar kernel.
///
/// # Safety
/// `a` must be readable at every `i·sa + p·sp` (`i < m`, `p < k`), `b` for
/// `k·n` floats and `c` writable for `m·n`.
#[allow(clippy::too_many_arguments)]
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
unsafe fn simd_strided(
    a: *const f32,
    sa: usize,
    sp: usize,
    b: *const f32,
    c: *mut f32,
    m: usize,
    k: usize,
    n: usize,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if avx512::available() {
            avx512::matmul_strided(a, sa, sp, b, c, m, k, n);
            return true;
        }
        if fma::available() {
            fma::matmul_strided(a, sa, sp, b, c, m, k, n);
            return true;
        }
    }
    false
}

/// `C (m×n) = A (m×k) @ B (n×k)ᵀ` as one dot product per element, on the
/// same tier [`simd_strided`] picks. Returns `false`, writing nothing, on a
/// CPU with no SIMD tier.
///
/// # Safety
/// `a` must be readable for `m·k` floats, `b` for `n·k` and `c` writable
/// for `m·n`.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
unsafe fn simd_dots(
    a: *const f32,
    b: *const f32,
    c: *mut f32,
    m: usize,
    k: usize,
    n: usize,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if avx512::available() {
            avx512::matmul_nt(a, b, c, m, k, n);
            return true;
        }
        if fma::available() {
            fma::matmul_nt(a, b, c, m, k, n);
            return true;
        }
    }
    false
}

/// Output-row panel height of the blocked matmul kernels: each streamed
/// B row feeds this many independent accumulator rows.
const MR: usize = 4;

/// Minimum A rows before `matmul_nt` packs a transposed B: below this the
/// pack (`cols × rows` scalar stores) rivals the multiply work itself, and
/// serving's single-row score products stay on the direct dot-product path.
#[cfg(target_arch = "x86_64")]
const NT_PACK_MIN_ROWS: usize = 8;

#[cfg(target_arch = "x86_64")]
thread_local! {
    /// Per-thread transposed-B scratch for [`Tensor2::matmul_nt_into`];
    /// grows to a high-water mark and never shrinks.
    static NT_PACK: std::cell::RefCell<Tensor2> = RefCell::new(Tensor2::default());
}

/// Side of the square tiles [`Tensor2::transpose_into`] copies.
const TRANSPOSE_TILE: usize = 16;

/// Shared-dimension block size: a `KC × n` B panel (n ≤ 128 everywhere in
/// this model) stays within L1/L2 while a panel of output rows is built.
const KC: usize = 64;

/// A dense row-major matrix of `f32`.
///
/// The default value is the empty `0 × 0` tensor — the natural initial
/// state for the reusable scratch buffers of the `_into` kernel family,
/// which reshape in place and grow capacity only to a high-water mark.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Tensor2 {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor2 {
    /// Zero-filled `rows × cols` tensor.
    pub fn zeros(rows: usize, cols: usize) -> Tensor2 {
        Tensor2 {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Tensor from existing data (`data.len() == rows * cols`).
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Tensor2 {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Tensor2 { rows, cols, data }
    }

    /// Uniform random tensor in `[-bound, bound]`, seeded.
    pub fn uniform(rows: usize, cols: usize, bound: f32, seed: u64) -> Tensor2 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-bound..=bound))
            .collect();
        Tensor2 { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True iff the tensor has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// One row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// One row as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Flat data.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Flat mutable data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reshape to `rows × cols` reusing the existing allocation, with every
    /// element zeroed. The workhorse of the `_into` kernel family: once a
    /// scratch buffer has grown to its high-water capacity this never
    /// touches the allocator again.
    pub fn resize_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Reshape to `rows × cols` reusing the existing allocation **without**
    /// re-zeroing when the element count is unchanged. For kernels that
    /// overwrite every output element (the SIMD matmul tiers): stale values
    /// never survive, and skipping the memset keeps the hot loops
    /// store-once. Paths that *accumulate* into the output (blocked/seed
    /// matmul) must zero it first — see [`Tensor2::fill_zero`].
    pub(crate) fn resize_for_overwrite(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        let len = rows * cols;
        if self.data.len() != len {
            self.data.clear();
            self.data.resize(len, 0.0);
        }
    }

    /// Grow the buffer's capacity to at least `other`'s, keeping shape and
    /// contents: a later reshape to any size `other` has held allocates
    /// nothing.
    pub fn reserve_like(&mut self, other: &Tensor2) {
        self.data
            .reserve_exact(other.data.capacity().saturating_sub(self.data.len()));
    }

    /// Become a copy of `src` (shape and contents), reusing capacity.
    pub fn copy_from(&mut self, src: &Tensor2) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Become a `rows × cols` copy of `src`, reusing capacity
    /// (`src.len() == rows * cols`).
    pub fn copy_from_slice_shaped(&mut self, rows: usize, cols: usize, src: &[f32]) {
        assert_eq!(src.len(), rows * cols, "shape/data mismatch");
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.extend_from_slice(src);
    }

    /// Allocation-free [`Tensor2::row_block`]: become a copy of `rows`
    /// consecutive rows of `src` starting at `start`, reusing capacity.
    pub fn copy_row_block_from(&mut self, src: &Tensor2, start: usize, rows: usize) {
        assert!(start + rows <= src.rows, "row block out of bounds");
        let s = start * src.cols;
        self.copy_from_slice_shaped(rows, src.cols, &src.data[s..s + rows * src.cols]);
    }

    /// `self @ other` (`(m×k) @ (k×n) → m×n`).
    pub fn matmul(&self, other: &Tensor2) -> Tensor2 {
        let mut out = Tensor2::default();
        self.matmul_into(other, &mut out);
        out
    }

    /// [`Tensor2::matmul`] writing into a caller-owned buffer: `out` is
    /// reshaped in place and filled by the same dispatched kernels, so the
    /// result is bit-identical to the allocating form while steady-state
    /// callers stop touching the allocator.
    pub fn matmul_into(&self, other: &Tensor2, out: &mut Tensor2) {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        out.resize_for_overwrite(self.rows, other.cols);
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let (a, b, c) = (
            self.data.as_ptr(),
            other.data.as_ptr(),
            out.data.as_mut_ptr(),
        );
        // SAFETY: the shape assert and the resize make `self` m×k, `other`
        // k×n and `out` m×n.
        if unsafe { simd_strided(a, k, 1, b, c, m, k, n) } {
            return;
        }
        out.fill_zero();
        self.matmul_blocked_into(other, out);
    }

    /// Blocked scalar `matmul` fallback: panels of [`MR`] output rows
    /// accumulate together so each B row is loaded once per panel, and k is
    /// processed in [`KC`]-sized blocks so the touched B panel stays
    /// cache-resident. Accumulates into `out`, which must be pre-zeroed
    /// `m × n`.
    fn matmul_blocked_into(&self, other: &Tensor2, out: &mut Tensor2) {
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let a = &self.data;
        let mut i = 0;
        while i + MR <= m {
            let out_panel = &mut out.data[i * n..(i + MR) * n];
            let (o0, rest) = out_panel.split_at_mut(n);
            let (o1, rest) = rest.split_at_mut(n);
            let (o2, o3) = rest.split_at_mut(n);
            for p0 in (0..k).step_by(KC) {
                let p1 = (p0 + KC).min(k);
                for p in p0..p1 {
                    let a0 = a[i * k + p];
                    let a1 = a[(i + 1) * k + p];
                    let a2 = a[(i + 2) * k + p];
                    let a3 = a[(i + 3) * k + p];
                    if a0 == 0.0 && a1 == 0.0 && a2 == 0.0 && a3 == 0.0 {
                        // One-hot feature rows make A sparse; skip dead lanes.
                        continue;
                    }
                    let b_row = other.row(p);
                    for ((((&b, v0), v1), v2), v3) in b_row
                        .iter()
                        .zip(&mut *o0)
                        .zip(&mut *o1)
                        .zip(&mut *o2)
                        .zip(&mut *o3)
                    {
                        *v0 += a0 * b;
                        *v1 += a1 * b;
                        *v2 += a2 * b;
                        *v3 += a3 * b;
                    }
                }
            }
            i += MR;
        }
        // Remainder rows (m % MR) take the scalar path.
        for i in i..m {
            let out_row = &mut out.data[i * n..(i + 1) * n];
            for p in 0..k {
                let av = a[i * k + p];
                if av == 0.0 {
                    continue;
                }
                for (o, &b) in out_row.iter_mut().zip(other.row(p)) {
                    *o += av * b;
                }
            }
        }
    }

    /// `selfᵀ @ other` (`(k×m)ᵀ @ (k×n) → m×n`) without materializing the
    /// transpose.
    pub fn matmul_tn(&self, other: &Tensor2) -> Tensor2 {
        let mut out = Tensor2::default();
        self.matmul_tn_into(other, &mut out);
        out
    }

    /// [`Tensor2::matmul_tn`] writing into a caller-owned buffer. See
    /// [`Tensor2::matmul_into`] for the reuse contract.
    pub fn matmul_tn_into(&self, other: &Tensor2, out: &mut Tensor2) {
        assert_eq!(self.rows, other.rows, "matmul_tn shape mismatch");
        out.resize_for_overwrite(self.cols, other.cols);
        let (k, m, n) = (self.rows, self.cols, other.cols);
        let (a, b, c) = (
            self.data.as_ptr(),
            other.data.as_ptr(),
            out.data.as_mut_ptr(),
        );
        // SAFETY: the shape assert and the resize make `self` k×m (read
        // transposed), `other` k×n and `out` m×n.
        if unsafe { simd_strided(a, 1, m, b, c, m, k, n) } {
            return;
        }
        out.fill_zero();
        self.matmul_tn_blocked_into(other, out);
    }

    /// Blocked scalar `matmul_tn` fallback: for each shared row `p`, panels
    /// of [`MR`] output rows consume the same streamed B row. Accumulates
    /// into `out`, which must be pre-zeroed `m × n`.
    fn matmul_tn_blocked_into(&self, other: &Tensor2, out: &mut Tensor2) {
        let (k, m, n) = (self.rows, self.cols, other.cols);
        for p in 0..k {
            let a_row = self.row(p);
            let b_row = other.row(p);
            let mut i = 0;
            while i + MR <= m {
                let (a0, a1, a2, a3) = (a_row[i], a_row[i + 1], a_row[i + 2], a_row[i + 3]);
                if a0 == 0.0 && a1 == 0.0 && a2 == 0.0 && a3 == 0.0 {
                    i += MR;
                    continue;
                }
                let out_panel = &mut out.data[i * n..(i + MR) * n];
                let (o0, rest) = out_panel.split_at_mut(n);
                let (o1, rest) = rest.split_at_mut(n);
                let (o2, o3) = rest.split_at_mut(n);
                for ((((&b, v0), v1), v2), v3) in b_row.iter().zip(o0).zip(o1).zip(o2).zip(o3) {
                    *v0 += a0 * b;
                    *v1 += a1 * b;
                    *v2 += a2 * b;
                    *v3 += a3 * b;
                }
                i += MR;
            }
            for (i, &av) in a_row.iter().enumerate().take(m).skip(i) {
                if av == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[i * n..(i + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += av * b;
                }
            }
        }
    }

    /// `self @ otherᵀ` (`(m×k) @ (n×k)ᵀ → m×n`) without materializing the
    /// transpose.
    pub fn matmul_nt(&self, other: &Tensor2) -> Tensor2 {
        let mut out = Tensor2::default();
        self.matmul_nt_into(other, &mut out);
        out
    }

    /// [`Tensor2::matmul_nt`] writing into a caller-owned buffer. See
    /// [`Tensor2::matmul_into`] for the reuse contract.
    pub fn matmul_nt_into(&self, other: &Tensor2, out: &mut Tensor2) {
        assert_eq!(self.cols, other.cols, "matmul_nt shape mismatch");
        // Every `matmul_nt` tier overwrites each output element (dot
        // products and tile stores, never accumulation), so no tier needs
        // the output pre-zeroed.
        out.resize_for_overwrite(self.rows, other.rows);
        // With enough output rows to amortize the pack, transpose B once
        // into a thread-local scratch and run the register-tiled strided
        // kernel: per-element dot products are latency-bound (one
        // accumulator chain per output), while the tile kernel keeps 6×2
        // independent chains in flight. Same fused p-ascending per-element
        // summation; the scratch reuses its high-water capacity, so steady
        // state stays allocation-free.
        let (m, k, n) = (self.rows, self.cols, other.rows);
        #[cfg(target_arch = "x86_64")]
        if m >= NT_PACK_MIN_ROWS && simd_available() {
            NT_PACK.with(|cell| {
                let bt = &mut *cell.borrow_mut();
                other.transpose_into(bt);
                let (a, b, c) = (self.data.as_ptr(), bt.data.as_ptr(), out.data.as_mut_ptr());
                // SAFETY: `self` is m×k, the packed `bt` k×n and `out` m×n.
                let ran = unsafe { simd_strided(a, k, 1, b, c, m, k, n) };
                debug_assert!(ran, "simd_available() promised a SIMD tier");
            });
            return;
        }
        let (a, b, c) = (
            self.data.as_ptr(),
            other.data.as_ptr(),
            out.data.as_mut_ptr(),
        );
        // SAFETY: the shape assert and the resize make `self` m×k, `other`
        // n×k and `out` m×n.
        if unsafe { simd_dots(a, b, c, m, k, n) } {
            return;
        }
        self.matmul_nt_blocked_into(other, out);
    }

    /// Blocked scalar `matmul_nt` fallback: [`MR`] dot products run
    /// together so the streamed A row is loaded once per panel of B rows.
    /// Overwrites `out`, which must be pre-shaped `m × n`.
    fn matmul_nt_blocked_into(&self, other: &Tensor2, out: &mut Tensor2) {
        let (m, k, n) = (self.rows, self.cols, other.rows);
        for i in 0..m {
            let a_row = self.row(i);
            let out_row = &mut out.data[i * n..(i + 1) * n];
            let mut j = 0;
            while j + MR <= n {
                let (b0, b1, b2, b3) = (
                    other.row(j),
                    other.row(j + 1),
                    other.row(j + 2),
                    other.row(j + 3),
                );
                let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
                for ((((&a, &v0), &v1), &v2), &v3) in a_row.iter().zip(b0).zip(b1).zip(b2).zip(b3) {
                    s0 += a * v0;
                    s1 += a * v1;
                    s2 += a * v2;
                    s3 += a * v3;
                }
                out_row[j] = s0;
                out_row[j + 1] = s1;
                out_row[j + 2] = s2;
                out_row[j + 3] = s3;
                j += MR;
            }
            for (j, o) in out_row.iter_mut().enumerate().take(n).skip(j) {
                let b_row = other.row(j);
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a_row[p] * b_row[p];
                }
                *o = acc;
            }
        }
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Tensor2 {
        let mut out = Tensor2::default();
        self.transpose_into(&mut out);
        out
    }

    /// [`Tensor2::transpose`] into a caller-owned buffer, reusing capacity.
    ///
    /// Copies 16 × 16 tiles, so the writes of one tile stay within 16
    /// output rows. Writing a whole input row at once strides the writes
    /// by the input's row count instead: for a `128 × 128` matrix that is
    /// 512 bytes, which maps every write of a row to 8 of the L1 cache's
    /// sets, and the transpose ran ≈2.5× slower.
    pub fn transpose_into(&self, out: &mut Tensor2) {
        let (rows, cols) = (self.rows, self.cols);
        out.resize_for_overwrite(cols, rows);
        for r0 in (0..rows).step_by(TRANSPOSE_TILE) {
            let r1 = (r0 + TRANSPOSE_TILE).min(rows);
            for c0 in (0..cols).step_by(TRANSPOSE_TILE) {
                let c1 = (c0 + TRANSPOSE_TILE).min(cols);
                for r in r0..r1 {
                    for (c, &v) in (c0..c1).zip(&self.data[r * cols + c0..r * cols + c1]) {
                        out.data[c * rows + r] = v;
                    }
                }
            }
        }
    }

    /// Elementwise in-place addition.
    pub fn add_assign(&mut self, other: &Tensor2) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "add shape mismatch"
        );
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place scaling.
    pub fn scale(&mut self, s: f32) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Add a row vector (`1 × cols`) to every row.
    pub fn add_row_broadcast(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "bias length mismatch");
        for r in 0..self.rows {
            for (a, b) in self.row_mut(r).iter_mut().zip(bias) {
                *a += b;
            }
        }
    }

    /// Column sums (`1 × cols`), e.g. the bias gradient.
    pub fn col_sums(&self) -> Vec<f32> {
        let mut sums = vec![0.0; self.cols];
        self.col_sums_acc(&mut sums);
        sums
    }

    /// Accumulate column sums into `acc` (`acc[j] += Σ_r self[r, j]`) —
    /// the allocation-free [`Tensor2::col_sums`] the bias gradients use.
    pub fn col_sums_acc(&self, acc: &mut [f32]) {
        assert_eq!(acc.len(), self.cols, "col_sums_acc width mismatch");
        for r in 0..self.rows {
            for (s, &v) in acc.iter_mut().zip(self.row(r)) {
                *s += v;
            }
        }
    }

    /// Row-wise softmax in place: [`softmax_in_place`] on every row.
    pub fn softmax_rows(&mut self) {
        for r in 0..self.rows {
            softmax_in_place(self.row_mut(r));
        }
    }

    /// Dot products of row `i` of `self` against rows `j0..j0+n` of
    /// `other` (same width), written to `dst[..n]`: one row of a
    /// `self @ otherᵀ` product restricted to a column interval. The
    /// serving attention path uses this to score only the positions a
    /// tree mask allows.
    pub fn row_dots_nt(&self, i: usize, other: &Tensor2, j0: usize, n: usize, dst: &mut [f32]) {
        assert_eq!(self.cols, other.cols, "row_dots_nt width mismatch");
        assert!(
            n <= other.rows && j0 <= other.rows - n,
            "row_dots_nt range out of bounds"
        );
        assert!(dst.len() >= n, "row_dots_nt dst shorter than n");
        let k = self.cols;
        let a_row = &self.data[i * k..(i + 1) * k];
        let b = other.data[j0 * k..].as_ptr();
        // SAFETY: `a_row` holds k floats, rows `j0..j0 + n` of `other` (k
        // wide) are in bounds and `dst` holds at least n floats, all
        // asserted above.
        if unsafe { simd_dots(a_row.as_ptr(), b, dst.as_mut_ptr(), 1, k, n) } {
            return;
        }
        for (j, d) in dst[..n].iter_mut().enumerate() {
            let b_row = other.row(j0 + j);
            *d = a_row.iter().zip(b_row).map(|(a, b)| a * b).sum();
        }
    }

    /// `dst = weights @ other[j0..j0+weights.len())`: a convex combination
    /// of a row interval of `other`, written to `dst[..other.cols]`. The
    /// serving attention path uses this for the probability-weighted value
    /// sum over only the unmasked positions.
    pub fn row_combine(weights: &[f32], other: &Tensor2, j0: usize, dst: &mut [f32]) {
        let m = weights.len();
        assert!(
            m <= other.rows && j0 <= other.rows - m,
            "row_combine range out of bounds"
        );
        let n = other.cols;
        assert!(dst.len() >= n, "row_combine dst shorter than other.cols()");
        let b = other.data[j0 * n..].as_ptr();
        // SAFETY: rows `j0..j0 + m` of `other` (n wide) are in bounds and
        // `dst` holds at least n floats, both asserted above.
        if unsafe { simd_strided(weights.as_ptr(), m, 1, b, dst.as_mut_ptr(), 1, m, n) } {
            return;
        }
        dst[..n].fill(0.0);
        for (p, &w) in weights.iter().enumerate() {
            for (d, &b) in dst[..n].iter_mut().zip(other.row(j0 + p)) {
                *d += w * b;
            }
        }
    }

    /// Copy of `rows` consecutive rows starting at `start`.
    pub fn row_block(&self, start: usize, rows: usize) -> Tensor2 {
        assert!(start + rows <= self.rows, "row block out of bounds");
        let s = start * self.cols;
        Tensor2::from_vec(rows, self.cols, self.data[s..s + rows * self.cols].to_vec())
    }

    /// Overwrite consecutive rows starting at `start` with `src`'s rows.
    pub fn set_row_block(&mut self, start: usize, src: &Tensor2) {
        assert_eq!(src.cols, self.cols, "row block width mismatch");
        assert!(start + src.rows <= self.rows, "row block out of bounds");
        let s = start * self.cols;
        self.data[s..s + src.data.len()].copy_from_slice(&src.data);
    }

    /// Set all elements to zero (e.g. to clear gradients).
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Squared Frobenius norm.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum()
    }
}

/// Softmax of one score row in place, max-subtracted for stability: the
/// one softmax every attention path runs. A row whose entries are all
/// `-inf` (a fully masked row, e.g. batch padding) becomes all zeros rather
/// than NaN: naive max-subtraction would compute `(-inf) - (-inf) = NaN`
/// there.
pub fn softmax_in_place(row: &mut [f32]) {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if max == f32::NEG_INFINITY {
        row.fill(0.0);
        return;
    }
    let mut sum = 0.0;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    if sum > 0.0 {
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(rows: usize, cols: usize, v: &[f32]) -> Tensor2 {
        Tensor2::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn matmul_matches_hand_example() {
        let a = t(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn transposed_matmuls_agree_with_explicit_transpose() {
        let a = Tensor2::uniform(4, 3, 1.0, 1);
        let b = Tensor2::uniform(4, 5, 1.0, 2);
        let via_tn = a.matmul_tn(&b);
        let explicit = a.transpose().matmul(&b);
        for (x, y) in via_tn.as_slice().iter().zip(explicit.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
        let c = Tensor2::uniform(5, 3, 1.0, 3);
        let via_nt = a.matmul_nt(&c);
        let explicit2 = a.matmul(&c.transpose());
        for (x, y) in via_nt.as_slice().iter().zip(explicit2.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn tiled_transpose_matches_the_definition() {
        for (rows, cols) in [
            (1, 1),
            (1, 40),
            (40, 1),
            (16, 16),
            (17, 33),
            (128, 128),
            (18, 130),
        ] {
            let a = Tensor2::uniform(rows, cols, 1.0, (rows * 1000 + cols) as u64);
            let t = a.transpose();
            assert_eq!((t.rows(), t.cols()), (cols, rows));
            for r in 0..rows {
                for c in 0..cols {
                    assert_eq!(t.get(c, r).to_bits(), a.get(r, c).to_bits());
                }
            }
        }
    }

    #[test]
    fn softmax_rows_are_distributions() {
        let mut x = t(2, 3, &[1.0, 2.0, 3.0, -1e9, 0.0, -1e9]);
        x.softmax_rows();
        for r in 0..2 {
            let sum: f32 = x.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // Masked positions get ~0 probability, the unmasked one ~1.
        assert!(x.get(1, 1) > 0.999);
        assert!(x.get(1, 0) < 1e-6);
    }

    #[test]
    fn softmax_extreme_values_are_stable() {
        let mut x = t(1, 3, &[1e9, 1e9, -1e9]);
        x.softmax_rows();
        assert!(x.as_slice().iter().all(|v| v.is_finite()));
        assert!((x.get(0, 0) - 0.5).abs() < 1e-4);
    }

    #[test]
    fn softmax_fully_masked_row_is_zero_not_nan() {
        // Padding rows in a packed batch have every score at -inf; the
        // softmax must turn them into all-zero rows, and neighbours must be
        // unaffected.
        let inf = f32::NEG_INFINITY;
        let mut x = t(3, 3, &[inf, inf, inf, 0.0, inf, 0.0, inf, inf, 1.0]);
        x.softmax_rows();
        assert!(x.as_slice().iter().all(|v| v.is_finite()));
        assert_eq!(x.row(0), &[0.0, 0.0, 0.0]);
        assert!((x.get(1, 0) - 0.5).abs() < 1e-6);
        assert_eq!(x.get(1, 1), 0.0);
        assert!((x.get(2, 2) - 1.0).abs() < 1e-6);
    }

    /// The naive triple loop every kernel tier is checked against.
    fn naive_matmul(a: &Tensor2, b: &Tensor2) -> Tensor2 {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let mut out = Tensor2::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a.get(i, p) * b.get(p, j);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    #[test]
    fn every_kernel_tier_matches_naive_oracle() {
        // Run each tier's kernels directly — AVX-512 and AVX2+FMA whenever
        // the CPU has them, plus the blocked scalar fallback everywhere — so
        // a tier the dispatcher skips on the running CPU is still checked. Shapes
        // cross every tile edge: rows around the 4-row (AVX2, blocked) and
        // 6-row (AVX-512) panels and `NT_PACK_MIN_ROWS`, columns around the
        // 16/32-wide tiles and the 4-wide dot panels, shared dims around
        // the 8/16-lane dot-product steps — plus DACE-sized operands.
        let grid = [1usize, 5, 7, 8, 13].into_iter().flat_map(|m| {
            [1usize, 9, 17, 45]
                .into_iter()
                .flat_map(move |k| [3usize, 16, 17, 33, 51].map(|n| (m, k, n)))
        });
        for (m, k, n) in grid.chain([(4, 4, 4), (12, 18, 33), (21, 128, 64)]) {
            let a = Tensor2::uniform(m, k, 1.0, (m * 1000 + k * 10 + n) as u64);
            let b = Tensor2::uniform(k, n, 1.0, (n * 1000 + k) as u64);
            let (at, bt) = (a.transpose(), b.transpose());
            let want = naive_matmul(&a, &b);
            let check = |what: &str, got: &Tensor2| {
                assert_eq!((got.rows(), got.cols()), (m, n), "{what} shape");
                for (w, g) in want.as_slice().iter().zip(got.as_slice()) {
                    assert!(
                        (w - g).abs() <= 1e-5 * (1.0 + w.abs()),
                        "{what} at {m}x{k}x{n}: {g} vs {w}"
                    );
                }
            };
            // Dispatched entry points; with m >= NT_PACK_MIN_ROWS
            // on a SIMD host `matmul_nt` takes the transpose-pack path.
            check("matmul", &a.matmul(&b));
            check("matmul_tn", &at.matmul_tn(&b));
            check("matmul_nt", &a.matmul_nt(&bt));

            let mut out = Tensor2::zeros(m, n);
            a.matmul_blocked_into(&b, &mut out);
            check("blocked matmul", &out);
            out.fill_zero();
            at.matmul_tn_blocked_into(&b, &mut out);
            check("blocked matmul_tn", &out);
            a.matmul_nt_blocked_into(&bt, &mut out);
            check("blocked matmul_nt", &out);

            #[cfg(target_arch = "x86_64")]
            macro_rules! simd_tier {
                ($tier:ident) => {
                    if $tier::available() {
                        let (pa, pat, pb, pbt) = (
                            a.data.as_ptr(),
                            at.data.as_ptr(),
                            b.data.as_ptr(),
                            bt.data.as_ptr(),
                        );
                        // SAFETY: every operand has the extents the kernels
                        // read or write (a m×k, at k×m, b k×n, bt n×k, out
                        // m×n), and they run only behind `available()`.
                        let mut out = Tensor2::zeros(m, n);
                        let po = out.data.as_mut_ptr();
                        unsafe { $tier::matmul_strided(pa, k, 1, pb, po, m, k, n) };
                        check(concat!(stringify!($tier), " matmul"), &out);
                        let po = out.data.as_mut_ptr();
                        unsafe { $tier::matmul_strided(pat, 1, m, pb, po, m, k, n) };
                        check(concat!(stringify!($tier), " matmul_tn"), &out);
                        let po = out.data.as_mut_ptr();
                        unsafe { $tier::matmul_nt(pa, pbt, po, m, k, n) };
                        check(concat!(stringify!($tier), " matmul_nt"), &out);
                    }
                };
            }
            #[cfg(target_arch = "x86_64")]
            {
                simd_tier!(avx512);
                simd_tier!(fma);
            }
        }
    }

    #[test]
    #[should_panic(expected = "row_dots_nt dst shorter than n")]
    fn row_dots_nt_rejects_a_short_dst() {
        let a = Tensor2::uniform(2, 8, 1.0, 1);
        let b = Tensor2::uniform(40, 8, 1.0, 2);
        let mut dst = vec![0.0f32; 3];
        a.row_dots_nt(0, &b, 0, 40, &mut dst);
    }

    #[test]
    #[should_panic(expected = "row_combine dst shorter than other.cols()")]
    fn row_combine_rejects_a_short_dst() {
        let other = Tensor2::uniform(4, 48, 1.0, 3);
        let mut dst = vec![0.0f32; 5];
        Tensor2::row_combine(&[0.25; 4], &other, 0, &mut dst);
    }

    #[test]
    fn broadcast_and_col_sums() {
        let mut x = Tensor2::zeros(3, 2);
        x.add_row_broadcast(&[1.0, 2.0]);
        assert_eq!(x.col_sums(), vec![3.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn shape_mismatch_panics() {
        let a = Tensor2::zeros(2, 3);
        let b = Tensor2::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn uniform_is_seeded_and_bounded() {
        let a = Tensor2::uniform(10, 10, 0.5, 42);
        let b = Tensor2::uniform(10, 10, 0.5, 42);
        assert_eq!(a, b);
        assert!(a.as_slice().iter().all(|v| v.abs() <= 0.5));
        let c = Tensor2::uniform(10, 10, 0.5, 43);
        assert_ne!(a, c);
    }
}
