//! Int8 quantized inference kernels. No serving path uses them: they are
//! kept only for perfbench's `core.quantized.single_us` calibration figure
//! and their own tests, until that metric is retired.
//!
//! Weight matrices are quantized **per output channel** ("per-row scale":
//! the matrix is stored transposed, one row per output channel, each row
//! carrying its own `f32` scale), activations are quantized dynamically per
//! input row, and dot products accumulate in `i32` before one multiply by
//! `scale_x · scale_w` dequantizes the result. That keeps the quantization
//! error per output at the int8 resolution (~1/127 relative) regardless of
//! channel magnitude spread.
//!
//! [`QuantizedLinear`] additionally **folds the LoRA delta into the base
//! weight** at quantization time (`W_eff = W + B·A`): the quantized forward
//! is a single int8 matmul plus bias where the full-precision path runs
//! three f32 matmuls — the fold is exact (done in f32 before quantizing)
//! and is where most of the int8 path's speedup comes from.
//!
//! [`QuantizedAttention`] quantizes only the Q/K/V projections; scores,
//! the softmax over each row's span and the value combine stay in f32.

use crate::attention::MaskedSelfAttention;
use crate::linear::LoraLinear;
use crate::tensor::{softmax_in_place, Tensor2};

/// One int8-quantized weight matrix with per-output-channel scales.
///
/// Logically `in × out` (the right-hand side of `y = x·W`), stored
/// **k-major and quad-interleaved**: inputs are grouped in quads of four
/// (zero-padded), and for quad `q` the weights of all output channels sit
/// contiguously as 4-byte groups — `w[4q..4q+4, o]` at byte offset
/// `(q·out_pad + o)·4`. That is exactly the operand shape of AVX-512 VNNI's
/// `vpdpbusd` (64 int8 MACs per instruction into sixteen i32 lanes), and it
/// lets the scalar fallback accumulate down columns without the per-channel
/// horizontal reduction that made a channel-major layout slower than the
/// autovectorized f32 matmul at `in_dim = FEATURE_DIM`.
///
/// Activations are quantized to **u8 with a +128 zero point** (`vpdpbusd`
/// is unsigned×signed); the exact correction `128·Σ_k w[k,o]` is
/// precomputed per channel (the private `wsum`) and subtracted after
/// accumulation, so the result equals the symmetric i8·i8 dot bit for bit
/// on every path.
#[derive(Debug, Clone)]
pub struct QuantizedMatrix {
    /// `quads × out_pad × 4` int8, quad-interleaved k-major (see above).
    data: Vec<i8>,
    /// Per-output-channel dequantization scale, zero-padded to `out_pad`.
    scales: Vec<f32>,
    /// Per-channel weight sums (`Σ_k w[k,o]`) for the u8 zero-point
    /// correction, zero-padded to `out_pad`.
    wsum: Vec<i32>,
    in_dim: usize,
    out_dim: usize,
    /// `ceil(in_dim / 4)` input quads.
    quads: usize,
    /// `out_dim` rounded up to the 32-channel register tile.
    out_pad: usize,
}

/// Quantized activation lanes per `vpdpbusd` group.
const QUAD: usize = 4;
/// i32 lanes per AVX-512 vector.
const TILE: usize = 16;
/// Output channels per register tile (two vectors); `out_pad` rounds up to
/// this so the column loop never branches on vector width.
const GROUP: usize = 2 * TILE;
/// Input rows per register tile: 4 rows × 2 column vectors = 8 live
/// accumulators, leaving headroom for the weight and broadcast registers.
const ROW_TILE: usize = 4;

/// Dynamically quantized activation rows, decoupled from the matmul so one
/// quantization pass can feed several weight matrices (the attention Q/K/V
/// projections share it three ways).
///
/// Rows are u8 at a +128 zero point, padded to whole quads with the zero
/// point (padding multiplies all-zero weights). A zero or non-finite input
/// row keeps `sx = 0` and an all-zero-point quantized row, which the
/// matmul turns into an exactly-zero output row rather than poison.
#[derive(Debug, Default)]
pub struct QuantRows {
    /// `n × quads·4` u8, row-major.
    xu: Vec<u8>,
    /// Per-row dequantization scale (`absmax / 127`, 0 for degenerate rows).
    sx: Vec<f32>,
    n: usize,
    quads: usize,
}

impl QuantRows {
    /// Quantize every row of `x`. Buffers are reused across calls.
    ///
    /// The AVX-512 path rounds half-way values to even (`vcvtps2dq`) where
    /// the portable path rounds them away from zero — a ≤1-LSB difference
    /// on exact `.5` boundaries only, well inside the int8 error budget.
    pub fn quantize(&mut self, x: &Tensor2) {
        let quads = x.cols().div_ceil(QUAD);
        let stride = quads * QUAD;
        self.n = x.rows();
        self.quads = quads;
        self.xu.clear();
        self.xu.resize(self.n * stride, ZERO_POINT);
        self.sx.clear();
        self.sx.resize(self.n, 0.0);
        #[cfg(target_arch = "x86_64")]
        {
            if vnni_available() {
                // SAFETY: guarded by runtime avx512f+bw+vl detection.
                unsafe { self.quantize_avx512(x, stride) };
                return;
            }
        }
        self.quantize_scalar(x, stride);
    }

    fn quantize_scalar(&mut self, x: &Tensor2, stride: usize) {
        for i in 0..self.n {
            let row = x.row(i);
            let mut absmax = 0.0f32;
            for &v in row {
                absmax = absmax.max(v.abs());
            }
            if absmax == 0.0 || !absmax.is_finite() {
                continue;
            }
            self.sx[i] = absmax / 127.0;
            let inv = 127.0 / absmax;
            let dst = &mut self.xu[i * stride..i * stride + row.len()];
            for (q, &v) in dst.iter_mut().zip(row) {
                let s = (v * inv).round().clamp(-127.0, 127.0) as i32;
                *q = (s + i32::from(ZERO_POINT)) as u8;
            }
        }
    }

    /// Vectorized row quantization: one abs-max/NaN sweep and one
    /// scale-round-clamp-narrow sweep per row, 16 lanes at a time with
    /// masked tail loads/stores.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512bw,avx512vl")]
    unsafe fn quantize_avx512(&mut self, x: &Tensor2, stride: usize) {
        use std::arch::x86_64::*;
        let len = x.cols();
        let sign = _mm512_set1_ps(-0.0);
        for i in 0..self.n {
            let row = x.row(i).as_ptr();
            let mut vmax = _mm512_setzero_ps();
            let mut unord: u16 = 0;
            let mut k = 0;
            while k + TILE <= len {
                let v = _mm512_loadu_ps(row.add(k));
                unord |= _mm512_cmp_ps_mask::<_CMP_UNORD_Q>(v, v);
                vmax = _mm512_max_ps(vmax, _mm512_andnot_ps(sign, v));
                k += TILE;
            }
            if k < len {
                let m: u16 = (1 << (len - k)) - 1;
                let v = _mm512_maskz_loadu_ps(m, row.add(k));
                unord |= _mm512_cmp_ps_mask::<_CMP_UNORD_Q>(v, v);
                vmax = _mm512_max_ps(vmax, _mm512_andnot_ps(sign, v));
            }
            let absmax = _mm512_reduce_max_ps(vmax);
            if absmax == 0.0 || !absmax.is_finite() || unord != 0 {
                continue; // degenerate row: sx stays 0, xu stays zero-point
            }
            self.sx[i] = absmax / 127.0;
            let inv = _mm512_set1_ps(127.0 / absmax);
            let lo = _mm512_set1_epi32(-127);
            let hi = _mm512_set1_epi32(127);
            let zp = _mm512_set1_epi32(i32::from(ZERO_POINT));
            let dst = self.xu.as_mut_ptr().add(i * stride);
            let mut k = 0;
            while k < len {
                let m: u16 = if k + TILE <= len {
                    !0
                } else {
                    (1 << (len - k)) - 1
                };
                let v = _mm512_maskz_loadu_ps(m, row.add(k));
                let q = _mm512_cvtps_epi32(_mm512_mul_ps(v, inv));
                let q = _mm512_add_epi32(_mm512_min_epi32(_mm512_max_epi32(q, lo), hi), zp);
                _mm_mask_storeu_epi8(dst.add(k).cast(), m, _mm512_cvtepi32_epi8(q));
                k += TILE;
            }
        }
    }
}

impl QuantizedMatrix {
    /// Quantize a full-precision `in × out` matrix. Each output channel
    /// (column of `w`) gets scale `max|w[:,o]| / 127`; an all-zero channel
    /// keeps scale 0 and dequantizes to exact zeros.
    pub fn from_f32(w: &Tensor2) -> QuantizedMatrix {
        let (in_dim, out_dim) = (w.rows(), w.cols());
        let quads = in_dim.div_ceil(QUAD);
        let out_pad = out_dim.div_ceil(GROUP) * GROUP;
        let mut data = vec![0i8; quads * out_pad * QUAD];
        let mut scales = vec![0.0f32; out_pad];
        let mut wsum = vec![0i32; out_pad];
        for o in 0..out_dim {
            let mut absmax = 0.0f32;
            for k in 0..in_dim {
                absmax = absmax.max(w.get(k, o).abs());
            }
            if absmax == 0.0 {
                continue;
            }
            scales[o] = absmax / 127.0;
            let inv = 127.0 / absmax;
            for k in 0..in_dim {
                let q = (w.get(k, o) * inv).round().clamp(-127.0, 127.0) as i8;
                data[(k / QUAD * out_pad + o) * QUAD + k % QUAD] = q;
                wsum[o] += i32::from(q);
            }
        }
        QuantizedMatrix {
            data,
            scales,
            wsum,
            in_dim,
            out_dim,
            quads,
            out_pad,
        }
    }

    /// Input dimension (`rows` of the logical matrix).
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension (`cols` of the logical matrix).
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Reconstruct the f32 matrix (`in × out`) — tests and error analysis.
    pub fn dequantize(&self) -> Tensor2 {
        let mut out = Tensor2::zeros(self.in_dim, self.out_dim);
        for k in 0..self.in_dim {
            let row = out.row_mut(k);
            for (o, v) in row.iter_mut().enumerate() {
                let q = self.data[(k / QUAD * self.out_pad + o) * QUAD + k % QUAD];
                *v = f32::from(q) * self.scales[o];
            }
        }
        out
    }

    /// Bytes held by the quantized weights (the memory-footprint story:
    /// ~4× smaller than the f32 matrix they replace).
    pub fn bytes(&self) -> usize {
        self.data.len() + self.scales.len() * 4 + self.wsum.len() * 4
    }

    /// `y = x · W` with dynamic per-row activation quantization. `x` is
    /// `n × in_dim`; `out` is resized to `n × out_dim`. `scratch` holds the
    /// quantized activation rows and is reused across calls.
    pub fn matmul_into(&self, x: &Tensor2, out: &mut Tensor2, scratch: &mut QuantScratch) {
        assert_eq!(x.cols(), self.in_dim, "input width mismatch");
        scratch.rows.quantize(x);
        self.matmul_quant_into(&scratch.rows, out);
    }

    /// `y = x · W` over already-quantized rows — the attention forward
    /// quantizes once and feeds all three projections through here.
    pub fn matmul_quant_into(&self, rows: &QuantRows, out: &mut Tensor2) {
        assert_eq!(rows.quads, self.quads, "quantized row width mismatch");
        // Every element of `out` is written below (degenerate rows dequantize
        // to exact zeros via `sx = 0`), so no zero-fill is needed.
        out.resize_for_overwrite(rows.n, self.out_dim);
        if rows.n == 0 {
            return;
        }
        #[cfg(target_arch = "x86_64")]
        {
            if vnni_available() {
                // SAFETY: guarded by runtime avx512f+bw+vnni detection;
                // data/scales/wsum are padded to whole 32-channel groups.
                unsafe { self.gemm_vnni(rows, out) };
                return;
            }
        }
        self.gemm_scalar(rows, out);
    }

    /// Portable kernel: i32 accumulation down each quad column, identical
    /// arithmetic (and therefore bit-identical output) to the VNNI path.
    fn gemm_scalar(&self, rows: &QuantRows, out: &mut Tensor2) {
        let stride = self.quads * QUAD;
        for i in 0..rows.n {
            let xu = &rows.xu[i * stride..(i + 1) * stride];
            let sx = rows.sx[i];
            let y = out.row_mut(i);
            for (o, v) in y.iter_mut().enumerate() {
                let mut acc = 0i32;
                for q in 0..self.quads {
                    let w = &self.data[(q * self.out_pad + o) * QUAD..][..QUAD];
                    let x4 = &xu[q * QUAD..][..QUAD];
                    for j in 0..QUAD {
                        acc += i32::from(x4[j]) * i32::from(w[j]);
                    }
                }
                acc -= i32::from(ZERO_POINT) * self.wsum[o];
                // Grouped as acc·(sx·scale) to match the VNNI epilogue's
                // rounding order exactly.
                *v = acc as f32 * (sx * self.scales[o]);
            }
        }
    }

    /// AVX-512 VNNI kernel, register-tiled 4 rows × 32 channels: each
    /// weight group is loaded once and dotted into four row accumulators
    /// (`vpdpbusd` — 64 int8 MACs per instruction, no horizontal
    /// reductions anywhere). The u8 zero-point correction (`acc − 128·Σw`)
    /// and dequantization are vectorized in the epilogue; the ragged last
    /// half-group uses masked stores.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
    unsafe fn gemm_vnni(&self, rows: &QuantRows, out: &mut Tensor2) {
        let mut r0 = 0;
        // Full row tiles with a compile-time row count (the accumulator
        // array must unroll into registers — a runtime-bounded row loop
        // spills it to the stack on every vpdpbusd), then the ragged tail
        // one row at a time.
        while r0 + ROW_TILE <= rows.n {
            self.gemm_vnni_tile::<ROW_TILE>(rows, out, r0);
            r0 += ROW_TILE;
        }
        while r0 < rows.n {
            self.gemm_vnni_tile::<1>(rows, out, r0);
            r0 += 1;
        }
    }

    /// One `RT`-row stripe of the VNNI GEMM (see [`Self::gemm_vnni`]).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
    unsafe fn gemm_vnni_tile<const RT: usize>(
        &self,
        rows: &QuantRows,
        out: &mut Tensor2,
        r0: usize,
    ) {
        use std::arch::x86_64::*;
        let stride = self.quads * QUAD;
        let data = self.data.as_ptr();
        let xu = rows.xu.as_ptr();
        let mut c = 0;
        while c < self.out_pad {
            let mut acc = [[_mm512_setzero_si512(); 2]; RT];
            for q in 0..self.quads {
                let wp = data.add((q * self.out_pad + c) * QUAD);
                let w0 = _mm512_loadu_si512(wp.cast());
                let w1 = _mm512_loadu_si512(wp.add(TILE * QUAD).cast());
                for (r, a) in acc.iter_mut().enumerate() {
                    let xb = _mm512_set1_epi32(
                        xu.add((r0 + r) * stride + q * QUAD)
                            .cast::<i32>()
                            .read_unaligned(),
                    );
                    a[0] = _mm512_dpbusd_epi32(a[0], xb, w0);
                    a[1] = _mm512_dpbusd_epi32(a[1], xb, w1);
                }
            }
            let corr0 =
                _mm512_slli_epi32::<7>(_mm512_loadu_si512(self.wsum.as_ptr().add(c).cast()));
            let corr1 =
                _mm512_slli_epi32::<7>(_mm512_loadu_si512(self.wsum.as_ptr().add(c + TILE).cast()));
            let sc0 = _mm512_loadu_ps(self.scales.as_ptr().add(c));
            let sc1 = _mm512_loadu_ps(self.scales.as_ptr().add(c + TILE));
            let lanes0 = self.out_dim.saturating_sub(c).min(TILE);
            let lanes1 = self.out_dim.saturating_sub(c + TILE).min(TILE);
            let m0: u16 = if lanes0 == TILE {
                !0
            } else {
                (1 << lanes0) - 1
            };
            let m1: u16 = if lanes1 == TILE {
                !0
            } else {
                (1 << lanes1) - 1
            };
            for (r, a) in acc.iter().enumerate() {
                let sx = _mm512_set1_ps(rows.sx[r0 + r]);
                let y = out.row_mut(r0 + r).as_mut_ptr();
                let v0 = _mm512_mul_ps(
                    _mm512_cvtepi32_ps(_mm512_sub_epi32(a[0], corr0)),
                    _mm512_mul_ps(sx, sc0),
                );
                _mm512_mask_storeu_ps(y.add(c), m0, v0);
                if lanes1 > 0 {
                    let v1 = _mm512_mul_ps(
                        _mm512_cvtepi32_ps(_mm512_sub_epi32(a[1], corr1)),
                        _mm512_mul_ps(sx, sc1),
                    );
                    _mm512_mask_storeu_ps(y.add(c + TILE), m1, v1);
                }
            }
            c += GROUP;
        }
    }
}

/// The u8 activation zero point (`xq + 128`), correcting through
/// [`QuantizedMatrix::wsum`].
const ZERO_POINT: u8 = 128;

#[cfg(target_arch = "x86_64")]
fn vnni_available() -> bool {
    use std::sync::OnceLock;
    static AVAIL: OnceLock<bool> = OnceLock::new();
    *AVAIL.get_or_init(|| {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
            && std::arch::is_x86_feature_detected!("avx512vl")
            && std::arch::is_x86_feature_detected!("avx512vnni")
    })
}

/// Reusable scratch for the quantized forward path: the quantized
/// activation row plus the attention projection buffers. One per worker;
/// buffers grow to the high-water batch size and then stop allocating.
#[derive(Debug, Default)]
pub struct QuantScratch {
    rows: QuantRows,
    /// Quantized-projection outputs (f32 after dequantization).
    pub q: Tensor2,
    /// Key projections.
    pub k: Tensor2,
    /// Value projections.
    pub v: Tensor2,
    srow: Vec<f32>,
}

/// A LoRA linear layer quantized for inference: the LoRA delta is folded
/// into the base weight in f32 (`W + B·A`, exact), then the folded matrix
/// is int8-quantized per output channel. Bias stays f32.
#[derive(Debug, Clone)]
pub struct QuantizedLinear {
    /// The folded, quantized weight.
    pub w: QuantizedMatrix,
    bias: Vec<f32>,
}

impl QuantizedLinear {
    /// Quantize `layer` with its LoRA delta folded in.
    pub fn from_lora(layer: &LoraLinear) -> QuantizedLinear {
        QuantizedLinear {
            w: QuantizedMatrix::from_f32(&layer.merged_weight()),
            bias: layer.b.value.row(0).to_vec(),
        }
    }

    /// `y = x·W_q + b` into `y` (resized to `n × out`).
    pub fn forward_into(&self, x: &Tensor2, y: &mut Tensor2, scratch: &mut QuantScratch) {
        self.w.matmul_into(x, y, scratch);
        for i in 0..y.rows() {
            for (v, b) in y.row_mut(i).iter_mut().zip(&self.bias) {
                *v += b;
            }
        }
    }

    /// Quantized weight bytes (bias excluded).
    pub fn bytes(&self) -> usize {
        self.w.bytes()
    }
}

/// The quantized twin of [`MaskedSelfAttention`]: int8 Q/K/V projections,
/// then an f32 softmax and value combine over each row's span.
#[derive(Debug, Clone)]
pub struct QuantizedAttention {
    wq: QuantizedMatrix,
    wk: QuantizedMatrix,
    wv: QuantizedMatrix,
    d_k: usize,
}

impl QuantizedAttention {
    /// Quantize an attention block's projections.
    pub fn from_attention(attn: &MaskedSelfAttention) -> QuantizedAttention {
        QuantizedAttention {
            wq: QuantizedMatrix::from_f32(&attn.wq.value),
            wk: QuantizedMatrix::from_f32(&attn.wk.value),
            wv: QuantizedMatrix::from_f32(&attn.wv.value),
            d_k: attn.dk(),
        }
    }

    /// Output width (`d_v`).
    pub fn out_dim(&self) -> usize {
        self.wv.out_dim()
    }

    /// Quantized weight bytes across the three projections.
    pub fn bytes(&self) -> usize {
        self.wq.bytes() + self.wk.bytes() + self.wv.bytes()
    }

    /// Int8 block-diagonal tree attention over every row: blocks stream in
    /// as slices of per-row spans over the compact input `x`, one span per
    /// row of the block. Row `i` of a block is scored, softmaxed and
    /// value-summed over its span `[start, end)` of the block's rows only.
    /// Only the three projections run int8; tracks the f32
    /// [`MaskedSelfAttention::forward_packed_ws`] under the same spans as a
    /// [`MASK_NEG`](crate::MASK_NEG) bias within quantization error.
    pub fn forward_spans_into<'s, I>(
        &self,
        x: &Tensor2,
        blocks: I,
        ws: &mut QuantScratch,
        out: &mut Tensor2,
    ) where
        I: IntoIterator<Item = &'s [(usize, usize)]>,
    {
        let n = x.rows();
        // Quantize the input rows once and feed all three projections from
        // the same buffer — q/k/v are their destinations.
        {
            let QuantScratch { rows, q, k, v, .. } = ws;
            rows.quantize(x);
            self.wq.matmul_quant_into(rows, q);
            self.wk.matmul_quant_into(rows, k);
            self.wv.matmul_quant_into(rows, v);
        }
        let scale = 1.0 / (self.d_k as f32).sqrt();
        out.resize_zeroed(n, self.wv.out_dim());
        let mut start = 0;
        for spans in blocks {
            for (i, &(s0, s1)) in spans.iter().enumerate() {
                let run = s1 - s0;
                if ws.srow.len() < run {
                    ws.srow.resize(run, 0.0);
                }
                let s = &mut ws.srow[..run];
                ws.q.row_dots_nt(start + i, &ws.k, start + s0, run, s);
                for v in s.iter_mut() {
                    *v *= scale;
                }
                softmax_in_place(s);
                Tensor2::row_combine(s, &ws.v, start + s0, out.row_mut(start + i));
            }
            start += spans.len();
        }
        assert_eq!(start, n, "blocks must cover all rows");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AttnScratch, MASK_NEG};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_tensor(rows: usize, cols: usize, seed: u64) -> Tensor2 {
        let mut rng = SmallRng::seed_from_u64(seed);
        Tensor2::from_vec(
            rows,
            cols,
            (0..rows * cols).map(|_| rng.gen_range(-2.0..2.0)).collect(),
        )
    }

    #[test]
    fn dequantize_roundtrip_error_is_subpercent() {
        let w = random_tensor(64, 128, 1);
        let q = QuantizedMatrix::from_f32(&w);
        let back = q.dequantize();
        for (a, b) in w.as_slice().iter().zip(back.as_slice()) {
            assert!((a - b).abs() <= 2.0 / 127.0 + 1e-6, "{a} vs {b}");
        }
        assert!(q.bytes() < 64 * 128 * 4 / 3, "not actually smaller");
    }

    #[test]
    fn quantized_matmul_tracks_f32() {
        let w = random_tensor(32, 48, 2);
        let x = random_tensor(8, 32, 3);
        let q = QuantizedMatrix::from_f32(&w);
        let mut scratch = QuantScratch::default();
        let mut got = Tensor2::default();
        q.matmul_into(&x, &mut got, &mut scratch);
        let want = x.matmul(&w);
        for (g, w_) in got.as_slice().iter().zip(want.as_slice()) {
            // Two int8 quantizations (weight + activation) in a 32-term
            // dot product: error stays well under 5% of the row magnitude.
            assert!((g - w_).abs() < 0.15, "{g} vs {w_}");
        }
    }

    #[test]
    fn zero_and_nonfinite_rows_stay_finite() {
        let w = random_tensor(8, 4, 4);
        let q = QuantizedMatrix::from_f32(&w);
        let mut x = Tensor2::zeros(2, 8);
        x.row_mut(1)[0] = f32::INFINITY;
        let mut scratch = QuantScratch::default();
        let mut got = Tensor2::default();
        q.matmul_into(&x, &mut got, &mut scratch);
        assert!(got.as_slice().iter().all(|v| v.is_finite()));
        assert!(got.row(0).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn folded_lora_linear_tracks_inference_forward() {
        let mut layer = LoraLinear::new(32, 16, 8, 7);
        // Give the LoRA factors real weight so folding is exercised.
        let b = random_tensor(32, 8, 8);
        let a = random_tensor(8, 16, 9);
        layer.set_lora_weights(b, a).unwrap();
        let x = random_tensor(4, 32, 10);
        let want = layer.forward(&x);
        let q = QuantizedLinear::from_lora(&layer);
        let mut scratch = QuantScratch::default();
        let mut got = Tensor2::default();
        q.forward_into(&x, &mut got, &mut scratch);
        for (g, w_) in got.as_slice().iter().zip(want.as_slice()) {
            // Int8 error scales with ‖x‖·‖w_channel‖ (here the synthetic
            // folded channels reach ~16), not with |y| — so the bound is
            // absolute-or-relative, whichever is looser at this magnitude.
            assert!((g - w_).abs() < (0.02 * w_.abs()).max(0.5), "{g} vs {w_}");
        }
    }

    #[test]
    fn quantized_attention_tracks_f32_on_tree_spans() {
        let attn = MaskedSelfAttention::new(16, 32, 24, 11);
        let q = QuantizedAttention::from_attention(&attn);
        let x = random_tensor(5, 16, 12);
        // Row 0 is the root of two two-node chains, 1 → 2 and 3 → 4.
        let spans = [(0, 5), (1, 3), (2, 3), (3, 5), (4, 5)];
        let mut bias = vec![MASK_NEG; 25];
        for (i, &(s0, s1)) in spans.iter().enumerate() {
            bias[i * 5 + s0..i * 5 + s1].fill(0.0);
        }
        let mut want = Tensor2::default();
        let mut attn_ws = AttnScratch::default();
        attn.forward_packed_ws(&x, &[5], 5, &bias, &mut attn_ws, &mut want);
        let mut ws = QuantScratch::default();
        let mut got = Tensor2::default();
        q.forward_spans_into(&x, [&spans[..]], &mut ws, &mut got);
        assert_eq!(got.rows(), want.rows());
        for (g, w_) in got.as_slice().iter().zip(want.as_slice()) {
            assert!((g - w_).abs() < 0.2, "{g} vs {w_}");
        }
    }

    #[test]
    fn vnni_and_scalar_kernels_agree_bit_for_bit() {
        // Ragged dims on purpose: inputs off the quad, outputs off both the
        // 16-lane half-group and the 32-channel group (masked stores), and
        // row counts off the 4-row register tile.
        for (in_dim, out_dim, n, seed) in [
            (18, 23, 5, 17),
            (1, 1, 1, 18),
            (128, 48, 7, 19),
            (7, 129, 4, 20),
            (18, 16, 9, 21),
        ] {
            let w = random_tensor(in_dim, out_dim, seed);
            let mut x = random_tensor(n, in_dim, seed + 100);
            x.row_mut(0).fill(0.0); // degenerate row: exact zeros both paths
            let q = QuantizedMatrix::from_f32(&w);
            let mut scratch = QuantScratch::default();
            let mut fast = Tensor2::default();
            q.matmul_into(&x, &mut fast, &mut scratch);
            let mut rows = QuantRows::default();
            rows.quantize(&x);
            let mut want = Tensor2::default();
            want.resize_for_overwrite(n, out_dim);
            q.gemm_scalar(&rows, &mut want);
            for i in 0..n {
                assert_eq!(fast.row(i), want.row(i), "dims {in_dim}×{out_dim} row {i}");
            }
            assert!(fast.row(0).iter().all(|&v| v == 0.0), "zero row not zeroed");
        }
    }
}
