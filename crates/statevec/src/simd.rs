//! SIMD-shaped kernel inner loops with runtime AVX2 dispatch.
//!
//! The workspace compiles for the baseline `x86-64` target (SSE2 scalar
//! math), so the hot amplitude loops in [`crate::kernels`] and
//! [`crate::expval`] would never see AVX2 no matter how they are written.
//! This module fixes that without a rebuild: every inner-loop body is a
//! single `#[inline(always)]` function written in an explicitly
//! vectorizable shape — amplitudes viewed as interleaved `re`/`im` `f64`
//! lanes, loop-invariant matrix entries hoisted into scalars, no
//! per-iteration branches — and instantiated **twice**: once as a plain
//! function (scalar/SSE2 codegen) and once under
//! `#[target_feature(enable = "avx2")]`, where LLVM re-optimizes the same
//! IR with 4-wide `f64` vectors. [`simd_selected`] picks the AVX2
//! instantiation at runtime when the CPU supports it.
//!
//! **Bitwise parity is by construction.** Both instantiations compile the
//! *same Rust expressions*, and Rust guarantees strict IEEE-754 semantics:
//! `a * b + c` is never contracted to a fused multiply-add, so the AVX2
//! build performs the identical sequence of rounded operations — only more
//! of them per cycle. The scalar instantiation stays reachable through
//! [`set_force_scalar`] (or the `NWQ_SCALAR_KERNELS=1` environment
//! variable) so parity tests and calibration benches can pin
//! `scalar == simd` bit-for-bit on the AVX2 host itself.

use crate::kernels::DiagFactor;
use nwq_common::{Mat2, Mat4, C64};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

/// `true` when the CPU supports AVX2 (detected once per process).
pub fn avx2_detected() -> bool {
    static DETECTED: OnceLock<bool> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx2")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

fn env_forced_scalar() -> bool {
    static ENV: OnceLock<bool> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("NWQ_SCALAR_KERNELS")
            .map(|v| v != "0" && !v.is_empty())
            .unwrap_or(false)
    })
}

/// Forces (or un-forces) the scalar instantiation regardless of CPU
/// support — the runtime switch parity tests and the calibration bench
/// flip to measure `simd` against `scalar` in one process. Both
/// instantiations are bitwise identical, so flipping this mid-run can
/// change only speed, never results.
pub fn set_force_scalar(on: bool) {
    FORCE_SCALAR.store(on, Ordering::Relaxed);
}

/// `true` while [`set_force_scalar`] (or `NWQ_SCALAR_KERNELS`) pins the
/// scalar path.
pub fn scalar_forced() -> bool {
    FORCE_SCALAR.load(Ordering::Relaxed) || env_forced_scalar()
}

/// `true` when kernel sweeps will run through the AVX2 instantiation:
/// the CPU supports it and nothing forces the scalar path.
#[inline]
pub fn simd_selected() -> bool {
    avx2_detected() && !scalar_forced()
}

/// Reinterprets an amplitude slice as its interleaved `re`/`im` `f64`
/// lanes. `C64` is `#[repr(C)] { re: f64, im: f64 }`, explicitly
/// layout-compatible with `[f64; 2]`.
#[inline(always)]
fn lanes_mut(amps: &mut [C64]) -> &mut [f64] {
    // SAFETY: C64 is #[repr(C)] with exactly two f64 fields, so a [C64]
    // allocation is a valid [f64] allocation of twice the length; f64 has
    // no invalid bit patterns and alignment is identical.
    unsafe { std::slice::from_raw_parts_mut(amps.as_mut_ptr() as *mut f64, amps.len() * 2) }
}

/// Instantiates `$body` as `mod $name { scalar, avx2 }` plus a public
/// dispatcher `$name` that selects the AVX2 build when
/// [`simd_selected`] holds. The dispatch cost is one relaxed atomic load
/// per *sweep*, not per amplitude — callers hand whole loops to these
/// entry points.
macro_rules! simd_dispatch {
    ($(#[$doc:meta])* pub fn $name:ident($($arg:ident: $ty:ty),* $(,)?) = $body:ident) => {
        $(#[$doc])*
        pub fn $name($($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(enable = "avx2")]
                unsafe fn avx2($($arg: $ty),*) {
                    $body($($arg),*)
                }
                if $crate::simd::simd_selected() {
                    // SAFETY: simd_selected() is true only when AVX2 was
                    // detected on this CPU.
                    return unsafe { avx2($($arg),*) };
                }
            }
            $body($($arg),*)
        }
    };
}

// ---------------------------------------------------------------------------
// Explicit AVX2 kernels for the dense mat2/mat4 sweeps.
//
// Auto-vectorization recovers most of the win for the diagonal and
// expectation sweeps, but the dense pair/quad updates leave throughput on
// the table (deinterleave shuffles, matrix-constant reloads). These
// hand-written kernels process two complex amplitudes per 256-bit vector
// with the classic `vaddsubpd` complex multiply:
//
//   cmul(v, m) = addsub(v·[m.re], swap_pairs(v)·[m.im])
//              = [ar·m.re − ai·m.im, ai·m.re + ar·m.im, …]
//
// which is bitwise the scalar `C64` product (`m.re·ar ≡ ar·m.re` — f64
// multiplication is commutative at the bit level — and the add/sub pairs
// the same operands), followed by `vaddpd` accumulation in the scalar
// kernels' exact association order. The scalar instantiations remain the
// reference the parity tests compare against.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx {
    use super::*;
    use std::arch::x86_64::*;

    /// Broadcast of one complex matrix entry: (`[re; 4]`, `[im; 4]`).
    #[inline(always)]
    unsafe fn bcast(c: C64) -> (__m256d, __m256d) {
        (_mm256_set1_pd(c.re), _mm256_set1_pd(c.im))
    }

    /// `[ai, ar, bi, br]` — swaps re/im within each complex pair.
    #[inline(always)]
    unsafe fn swap_pairs(v: __m256d) -> __m256d {
        _mm256_permute_pd(v, 0b0101)
    }

    /// Two complex products `m · v` (matrix entry left, broadcast as
    /// `(re, im)`): `re' = v.re·m.re − v.im·m.im`,
    /// `im' = v.im·m.re + v.re·m.im` — bitwise `C64::mul(m, v)` (the f64
    /// products commute exactly; the add/sub pair the same operands in the
    /// same order).
    #[inline(always)]
    unsafe fn cmul(v: __m256d, m: (__m256d, __m256d)) -> __m256d {
        _mm256_addsub_pd(_mm256_mul_pd(v, m.0), _mm256_mul_pd(swap_pairs(v), m.1))
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn mat2_pairs(lo: &mut [C64], hi: &mut [C64], m: &Mat2) {
        let n = lo.len();
        debug_assert_eq!(n, hi.len());
        let m00 = bcast(m.0[0][0]);
        let m01 = bcast(m.0[0][1]);
        let m10 = bcast(m.0[1][0]);
        let m11 = bcast(m.0[1][1]);
        let lp = lo.as_mut_ptr() as *mut f64;
        let hp = hi.as_mut_ptr() as *mut f64;
        let vec_n = n & !1;
        let mut j = 0;
        while j < vec_n {
            let a = _mm256_loadu_pd(lp.add(2 * j));
            let b = _mm256_loadu_pd(hp.add(2 * j));
            let nl = _mm256_add_pd(cmul(a, m00), cmul(b, m01));
            let nh = _mm256_add_pd(cmul(a, m10), cmul(b, m11));
            _mm256_storeu_pd(lp.add(2 * j), nl);
            _mm256_storeu_pd(hp.add(2 * j), nh);
            j += 2;
        }
        if vec_n < n {
            // Odd run length: scalar tail, identical expressions.
            let (a, b) = (lo[vec_n], hi[vec_n]);
            lo[vec_n] = m.0[0][0] * a + m.0[0][1] * b;
            hi[vec_n] = m.0[1][0] * a + m.0[1][1] * b;
        }
    }

    /// Stride-1 sweep (q = 0): pairs are adjacent (`[lo0, hi0, lo1, hi1]`),
    /// so the run-based kernel would degrade to its scalar tail. Instead,
    /// two pairs are gathered into the standard lane shape with cross-lane
    /// permutes, updated exactly as in [`mat2_pairs`], and scattered back.
    #[target_feature(enable = "avx2")]
    unsafe fn mat2_stride1(amps: &mut [C64], m: &Mat2) {
        let m00 = bcast(m.0[0][0]);
        let m01 = bcast(m.0[0][1]);
        let m10 = bcast(m.0[1][0]);
        let m11 = bcast(m.0[1][1]);
        let p = amps.as_mut_ptr() as *mut f64;
        let n = amps.len();
        let vec_n = n & !7;
        let mut i = 0;
        // Two independent 2-pair bodies per iteration: the gather → cmul →
        // scatter chain is latency-bound, so interleaving two chains keeps
        // the multiply ports busy.
        while i < vec_n {
            let y0 = _mm256_loadu_pd(p.add(2 * i)); // [lo0, hi0]
            let y1 = _mm256_loadu_pd(p.add(2 * i + 4)); // [lo1, hi1]
            let y2 = _mm256_loadu_pd(p.add(2 * i + 8));
            let y3 = _mm256_loadu_pd(p.add(2 * i + 12));
            let a0 = _mm256_permute2f128_pd(y0, y1, 0x20); // [lo0, lo1]
            let b0 = _mm256_permute2f128_pd(y0, y1, 0x31); // [hi0, hi1]
            let a1 = _mm256_permute2f128_pd(y2, y3, 0x20);
            let b1 = _mm256_permute2f128_pd(y2, y3, 0x31);
            let nl0 = _mm256_add_pd(cmul(a0, m00), cmul(b0, m01));
            let nh0 = _mm256_add_pd(cmul(a0, m10), cmul(b0, m11));
            let nl1 = _mm256_add_pd(cmul(a1, m00), cmul(b1, m01));
            let nh1 = _mm256_add_pd(cmul(a1, m10), cmul(b1, m11));
            _mm256_storeu_pd(p.add(2 * i), _mm256_permute2f128_pd(nl0, nh0, 0x20));
            _mm256_storeu_pd(p.add(2 * i + 4), _mm256_permute2f128_pd(nl0, nh0, 0x31));
            _mm256_storeu_pd(p.add(2 * i + 8), _mm256_permute2f128_pd(nl1, nh1, 0x20));
            _mm256_storeu_pd(p.add(2 * i + 12), _mm256_permute2f128_pd(nl1, nh1, 0x31));
            i += 8;
        }
        while i < n & !3 {
            let y0 = _mm256_loadu_pd(p.add(2 * i));
            let y1 = _mm256_loadu_pd(p.add(2 * i + 4));
            let a = _mm256_permute2f128_pd(y0, y1, 0x20);
            let b = _mm256_permute2f128_pd(y0, y1, 0x31);
            let nl = _mm256_add_pd(cmul(a, m00), cmul(b, m01));
            let nh = _mm256_add_pd(cmul(a, m10), cmul(b, m11));
            _mm256_storeu_pd(p.add(2 * i), _mm256_permute2f128_pd(nl, nh, 0x20));
            _mm256_storeu_pd(p.add(2 * i + 4), _mm256_permute2f128_pd(nl, nh, 0x31));
            i += 4;
        }
        while i < n {
            // Lone trailing pair (2-amplitude register): scalar.
            let (a, b) = (amps[i], amps[i + 1]);
            amps[i] = m.0[0][0] * a + m.0[0][1] * b;
            amps[i + 1] = m.0[1][0] * a + m.0[1][1] * b;
            i += 2;
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn mat2_sweep(amps: &mut [C64], stride: usize, m: &Mat2) {
        if stride == 1 {
            return mat2_stride1(amps, m);
        }
        let block = stride << 1;
        for c in amps.chunks_mut(block) {
            let (lo, hi) = c.split_at_mut(stride);
            mat2_pairs(lo, hi, m);
        }
    }

    /// The 16 matrix entries of a 4×4 update, broadcast row-major.
    type Mat4Rows = [[(__m256d, __m256d); 4]; 4];

    #[inline(always)]
    unsafe fn build_rows(m: &Mat4) -> Mat4Rows {
        let mut rows = [[(_mm256_setzero_pd(), _mm256_setzero_pd()); 4]; 4];
        for (r, row) in rows.iter_mut().enumerate() {
            for (k, e) in row.iter_mut().enumerate() {
                *e = bcast(m.0[r][k]);
            }
        }
        rows
    }

    /// Four row outputs for two quads held in lane shape. Accumulation
    /// matches the scalar body's `((r0·v0 + r1·v1) + r2·v2) + r3·v3` order
    /// per lane; one swapped copy per input is shared by all four rows.
    #[inline(always)]
    unsafe fn quad_rows(v: &[__m256d; 4], rows: &Mat4Rows) -> [__m256d; 4] {
        let sv = [
            swap_pairs(v[0]),
            swap_pairs(v[1]),
            swap_pairs(v[2]),
            swap_pairs(v[3]),
        ];
        let mut out = [_mm256_setzero_pd(); 4];
        for (r, o) in out.iter_mut().enumerate() {
            let row = &rows[r];
            let mut acc = _mm256_addsub_pd(
                _mm256_mul_pd(v[0], row[0].0),
                _mm256_mul_pd(sv[0], row[0].1),
            );
            for k in 1..4 {
                acc = _mm256_add_pd(
                    acc,
                    _mm256_addsub_pd(
                        _mm256_mul_pd(v[k], row[k].0),
                        _mm256_mul_pd(sv[k], row[k].1),
                    ),
                );
            }
            *o = acc;
        }
        out
    }

    /// Scalar quad update at one run index — exactly the expressions and
    /// association order of the scalar body (`mat4_quads_body`).
    #[inline(always)]
    fn quad_scalar(
        c00: &mut [C64],
        c01: &mut [C64],
        c10: &mut [C64],
        c11: &mut [C64],
        j: usize,
        m: &Mat4,
    ) {
        let v = [c00[j], c01[j], c10[j], c11[j]];
        let r = &m.0;
        c00[j] = r[0][0] * v[0] + r[0][1] * v[1] + r[0][2] * v[2] + r[0][3] * v[3];
        c01[j] = r[1][0] * v[0] + r[1][1] * v[1] + r[1][2] * v[2] + r[1][3] * v[3];
        c10[j] = r[2][0] * v[0] + r[2][1] * v[1] + r[2][2] * v[2] + r[2][3] * v[3];
        c11[j] = r[3][0] * v[0] + r[3][1] * v[1] + r[3][2] * v[2] + r[3][3] * v[3];
    }

    #[inline(always)]
    unsafe fn quads_with_rows(
        c00: &mut [C64],
        c01: &mut [C64],
        c10: &mut [C64],
        c11: &mut [C64],
        m: &Mat4,
        rows: &Mat4Rows,
    ) {
        let n = c00.len();
        debug_assert!(c01.len() == n && c10.len() == n && c11.len() == n);
        let p0 = c00.as_mut_ptr() as *mut f64;
        let p1 = c01.as_mut_ptr() as *mut f64;
        let p2 = c10.as_mut_ptr() as *mut f64;
        let p3 = c11.as_mut_ptr() as *mut f64;
        let vec_n = n & !1;
        let mut j = 0;
        while j < vec_n {
            let v = [
                _mm256_loadu_pd(p0.add(2 * j)),
                _mm256_loadu_pd(p1.add(2 * j)),
                _mm256_loadu_pd(p2.add(2 * j)),
                _mm256_loadu_pd(p3.add(2 * j)),
            ];
            let out = quad_rows(&v, rows);
            _mm256_storeu_pd(p0.add(2 * j), out[0]);
            _mm256_storeu_pd(p1.add(2 * j), out[1]);
            _mm256_storeu_pd(p2.add(2 * j), out[2]);
            _mm256_storeu_pd(p3.add(2 * j), out[3]);
            j += 2;
        }
        if vec_n < n {
            quad_scalar(c00, c01, c10, c11, vec_n, m);
        }
    }

    /// `s_lo = 1` half-pair: quads interleave as `[q.v0, q.v1]` in
    /// `half0` and `[q.v2, q.v3]` in `half1`, so two quads are gathered
    /// into the standard lane shape with cross-lane permutes, pushed
    /// through [`quad_rows`], and scattered back.
    #[inline(always)]
    unsafe fn mat4_interleaved(h0: &mut [C64], h1: &mut [C64], m: &Mat4, rows: &Mat4Rows) {
        let nq = h0.len() / 2;
        let p0 = h0.as_mut_ptr() as *mut f64;
        let p1 = h1.as_mut_ptr() as *mut f64;
        let vec_q = nq & !1;
        let mut q = 0;
        while q < vec_q {
            let ya0 = _mm256_loadu_pd(p0.add(4 * q)); // [q0.v0, q0.v1]
            let ya1 = _mm256_loadu_pd(p0.add(4 * q + 4)); // [q1.v0, q1.v1]
            let yb0 = _mm256_loadu_pd(p1.add(4 * q)); // [q0.v2, q0.v3]
            let yb1 = _mm256_loadu_pd(p1.add(4 * q + 4)); // [q1.v2, q1.v3]
            let v = [
                _mm256_permute2f128_pd(ya0, ya1, 0x20), // [q0.v0, q1.v0]
                _mm256_permute2f128_pd(ya0, ya1, 0x31), // [q0.v1, q1.v1]
                _mm256_permute2f128_pd(yb0, yb1, 0x20),
                _mm256_permute2f128_pd(yb0, yb1, 0x31),
            ];
            let o = quad_rows(&v, rows);
            _mm256_storeu_pd(p0.add(4 * q), _mm256_permute2f128_pd(o[0], o[1], 0x20));
            _mm256_storeu_pd(p0.add(4 * q + 4), _mm256_permute2f128_pd(o[0], o[1], 0x31));
            _mm256_storeu_pd(p1.add(4 * q), _mm256_permute2f128_pd(o[2], o[3], 0x20));
            _mm256_storeu_pd(p1.add(4 * q + 4), _mm256_permute2f128_pd(o[2], o[3], 0x31));
            q += 2;
        }
        if vec_q < nq {
            // Lone trailing quad (s_hi = 2 registers): scalar, same
            // expressions.
            let r = &m.0;
            let v = [h0[2 * q], h0[2 * q + 1], h1[2 * q], h1[2 * q + 1]];
            h0[2 * q] = r[0][0] * v[0] + r[0][1] * v[1] + r[0][2] * v[2] + r[0][3] * v[3];
            h0[2 * q + 1] = r[1][0] * v[0] + r[1][1] * v[1] + r[1][2] * v[2] + r[1][3] * v[3];
            h1[2 * q] = r[2][0] * v[0] + r[2][1] * v[1] + r[2][2] * v[2] + r[2][3] * v[3];
            h1[2 * q + 1] = r[3][0] * v[0] + r[3][1] * v[1] + r[3][2] * v[2] + r[3][3] * v[3];
        }
    }

    #[inline(always)]
    unsafe fn half_pair_with_rows(
        half0: &mut [C64],
        half1: &mut [C64],
        s_lo: usize,
        m: &Mat4,
        rows: &Mat4Rows,
    ) {
        if s_lo == 1 {
            return mat4_interleaved(half0, half1, m, rows);
        }
        let lo_block = s_lo << 1;
        for (c0, c1) in half0.chunks_mut(lo_block).zip(half1.chunks_mut(lo_block)) {
            let (c00, c01) = c0.split_at_mut(s_lo);
            let (c10, c11) = c1.split_at_mut(s_lo);
            quads_with_rows(c00, c01, c10, c11, m, rows);
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn mat4_half_pair(half0: &mut [C64], half1: &mut [C64], s_lo: usize, m: &Mat4) {
        let rows = build_rows(m);
        half_pair_with_rows(half0, half1, s_lo, m, &rows);
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn mat4_sweep(amps: &mut [C64], s_hi: usize, s_lo: usize, m: &Mat4) {
        let m = &{ *m };
        let rows = build_rows(m);
        let block = s_hi << 1;
        for c in amps.chunks_mut(block) {
            let (h0, h1) = c.split_at_mut(s_hi);
            half_pair_with_rows(h0, h1, s_lo, m, &rows);
        }
    }
}

// ---------------------------------------------------------------------------
// Single-qubit pair sweep.
// ---------------------------------------------------------------------------

/// One (lo, hi) half-pair: the full `2×2` update over equal-length runs,
/// written on interleaved lanes. Expression-for-expression this is
/// the complex pair update `lo' = m00·a + m01·b`, `hi' = m10·a + m11·b`
/// with the complex products expanded, so it is bitwise identical to the
/// scalar kernel on every input.
#[inline(always)]
fn mat2_pairs_body(lo: &mut [C64], hi: &mut [C64], m: &Mat2) {
    debug_assert_eq!(lo.len(), hi.len());
    let (m00, m01, m10, m11) = (m.0[0][0], m.0[0][1], m.0[1][0], m.0[1][1]);
    let lo = lanes_mut(lo);
    let hi = lanes_mut(hi);
    for (l, h) in lo.chunks_exact_mut(2).zip(hi.chunks_exact_mut(2)) {
        let (ar, ai) = (l[0], l[1]);
        let (br, bi) = (h[0], h[1]);
        l[0] = (m00.re * ar - m00.im * ai) + (m01.re * br - m01.im * bi);
        l[1] = (m00.re * ai + m00.im * ar) + (m01.re * bi + m01.im * br);
        h[0] = (m10.re * ar - m10.im * ai) + (m11.re * br - m11.im * bi);
        h[1] = (m10.re * ai + m10.im * ar) + (m11.re * bi + m11.im * br);
    }
}

#[inline(always)]
fn mat2_sweep_body(amps: &mut [C64], stride: usize, m: &Mat2) {
    let block = stride << 1;
    for c in amps.chunks_mut(block) {
        let (lo, hi) = c.split_at_mut(stride);
        mat2_pairs_body(lo, hi, m);
    }
}

/// Full serial single-qubit sweep: every block's (lo, hi) pair run
/// through the `2×2` update. `stride = 2^q`. The dense sweeps dispatch to
/// hand-written AVX2 kernels (see [`avx`]) rather than the
/// auto-vectorized body — the explicit `vaddsubpd` form is bitwise
/// identical and measurably faster.
pub fn mat2_sweep(amps: &mut [C64], stride: usize, m: &Mat2) {
    #[cfg(target_arch = "x86_64")]
    if simd_selected() {
        return unsafe { avx::mat2_sweep(amps, stride, m) };
    }
    mat2_sweep_body(amps, stride, m)
}

/// One outer block's (lo, hi) half-pair — the per-block body the
/// Rayon-parallel dispatch path hands to worker threads.
pub fn mat2_pairs(lo: &mut [C64], hi: &mut [C64], m: &Mat2) {
    #[cfg(target_arch = "x86_64")]
    if simd_selected() {
        return unsafe { avx::mat2_pairs(lo, hi, m) };
    }
    mat2_pairs_body(lo, hi, m)
}

// ---------------------------------------------------------------------------
// Two-qubit quad sweep.
// ---------------------------------------------------------------------------

/// The `4×4` update over four equal-length quadrant runs, on interleaved
/// lanes: each output is `((row0·v0 + row1·v1) + row2·v2) + row3·v3`, the
/// left-associated order every exchanged and mirrored quad kernel in
/// `kernels` repeats.
#[inline(always)]
fn mat4_quads_body(c00: &mut [C64], c01: &mut [C64], c10: &mut [C64], c11: &mut [C64], m: &Mat4) {
    let n = c00.len();
    debug_assert!(c01.len() == n && c10.len() == n && c11.len() == n);
    let rows = m.0;
    let c00 = lanes_mut(c00);
    let c01 = lanes_mut(c01);
    let c10 = lanes_mut(c10);
    let c11 = lanes_mut(c11);
    for j in 0..n {
        let (re, im) = (2 * j, 2 * j + 1);
        let v = [
            (c00[re], c00[im]),
            (c01[re], c01[im]),
            (c10[re], c10[im]),
            (c11[re], c11[im]),
        ];
        let mut out = [(0.0f64, 0.0f64); 4];
        for (r, o) in out.iter_mut().enumerate() {
            let row = &rows[r];
            // ((p0 + p1) + p2) + p3, each p = row[k] * v[k] expanded.
            let mut acc_re = row[0].re * v[0].0 - row[0].im * v[0].1;
            let mut acc_im = row[0].re * v[0].1 + row[0].im * v[0].0;
            acc_re += row[1].re * v[1].0 - row[1].im * v[1].1;
            acc_im += row[1].re * v[1].1 + row[1].im * v[1].0;
            acc_re += row[2].re * v[2].0 - row[2].im * v[2].1;
            acc_im += row[2].re * v[2].1 + row[2].im * v[2].0;
            acc_re += row[3].re * v[3].0 - row[3].im * v[3].1;
            acc_im += row[3].re * v[3].1 + row[3].im * v[3].0;
            *o = (acc_re, acc_im);
        }
        c00[re] = out[0].0;
        c00[im] = out[0].1;
        c01[re] = out[1].0;
        c01[im] = out[1].1;
        c10[re] = out[2].0;
        c10[im] = out[2].1;
        c11[re] = out[3].0;
        c11[im] = out[3].1;
    }
}

#[inline(always)]
fn mat4_half_pair_body(half0: &mut [C64], half1: &mut [C64], s_lo: usize, m: &Mat4) {
    let lo_block = s_lo << 1;
    for (c0, c1) in half0.chunks_mut(lo_block).zip(half1.chunks_mut(lo_block)) {
        let (c00, c01) = c0.split_at_mut(s_lo);
        let (c10, c11) = c1.split_at_mut(s_lo);
        mat4_quads_body(c00, c01, c10, c11, m);
    }
}

#[inline(always)]
fn mat4_sweep_body(amps: &mut [C64], s_hi: usize, s_lo: usize, m: &Mat4) {
    // Stack-copy the matrix so the optimizer can keep the 16 entries in
    // registers across the sweep (same reasoning as apply_mat4_prenorm).
    let m = &{ *m };
    let block = s_hi << 1;
    for c in amps.chunks_mut(block) {
        let (h0, h1) = c.split_at_mut(s_hi);
        mat4_half_pair_body(h0, h1, s_lo, m);
    }
}

/// Full serial two-qubit sweep (`hi > lo` prenormalized, `s_hi = 2^hi`,
/// `s_lo = 2^lo`). Dispatches to the explicit AVX2 quad kernel.
pub fn mat4_sweep(amps: &mut [C64], s_hi: usize, s_lo: usize, m: &Mat4) {
    #[cfg(target_arch = "x86_64")]
    if simd_selected() {
        return unsafe { avx::mat4_sweep(amps, s_hi, s_lo, m) };
    }
    mat4_sweep_body(amps, s_hi, s_lo, m)
}

/// One outer block's half-pair — the per-block body of the
/// block-parallel two-qubit path.
pub fn mat4_half_pair(half0: &mut [C64], half1: &mut [C64], s_lo: usize, m: &Mat4) {
    #[cfg(target_arch = "x86_64")]
    if simd_selected() {
        return unsafe { avx::mat4_half_pair(half0, half1, s_lo, m) };
    }
    mat4_half_pair_body(half0, half1, s_lo, m)
}

// ---------------------------------------------------------------------------
// Diagonal sweeps.
// ---------------------------------------------------------------------------

/// Multiplies a contiguous run by one complex constant — the innermost
/// body of every diagonal fast path. `a *= d` expanded on lanes, matching
/// `C64::mul` bitwise (`re' = re·d.re − im·d.im`, `im' = re·d.im + im·d.re`).
#[inline(always)]
fn diag_scale_body(amps: &mut [C64], d: C64) {
    let lanes = lanes_mut(amps);
    for a in lanes.chunks_exact_mut(2) {
        let (re, im) = (a[0], a[1]);
        a[0] = re * d.re - im * d.im;
        a[1] = re * d.im + im * d.re;
    }
}

// The three sweeps below take a *window* of the register: `amps` holds
// the amplitudes at absolute indices `base..base + amps.len()`, and the
// factor bits are read off the absolute index. A window must not start in
// the middle of a constant run it extends past — true of the two shapes
// `kernels` cuts: whole `2^{q+1}` blocks for every factor qubit `q`, or a
// power-of-two window starting at a multiple of its own length. The whole
// register is the window `base = 0`.

#[inline(always)]
fn diag1_sweep_body(amps: &mut [C64], base: usize, q: usize, d0: C64, d1: C64) {
    // Bit q is constant over runs of 2^q: alternate d0/d1 runs instead of
    // re-deriving the bit per amplitude. Each amplitude still computes
    // exactly `a *= d[bit]`, so this is value-identical to the indexed
    // form for every iteration order.
    let stride = 1usize << q;
    for (k, run) in amps.chunks_mut(stride).enumerate() {
        let bit = ((base + k * stride) >> q) & 1;
        diag_scale_body(run, if bit == 1 { d1 } else { d0 });
    }
}

simd_dispatch! {
    /// Serial diagonal single-qubit sweep in alternating constant runs.
    pub fn diag1_sweep(amps: &mut [C64], base: usize, q: usize, d0: C64, d1: C64) =
        diag1_sweep_body
}

#[inline(always)]
fn diag2_sweep_body(amps: &mut [C64], base: usize, hi: usize, lo: usize, d: &[C64; 4]) {
    // Bits (hi, lo) are constant over runs of 2^lo; the run's first index
    // carries both bits of every amplitude inside it.
    let s_lo = 1usize << lo;
    for (k, run) in amps.chunks_mut(s_lo).enumerate() {
        let first = base + k * s_lo;
        let idx = (((first >> hi) & 1) << 1) | ((first >> lo) & 1);
        diag_scale_body(run, d[idx]);
    }
}

simd_dispatch! {
    /// Serial diagonal two-qubit sweep in constant runs (`hi > lo`).
    pub fn diag2_sweep(amps: &mut [C64], base: usize, hi: usize, lo: usize, d: &[C64; 4]) =
        diag2_sweep_body
}

#[inline(always)]
fn diag_multi_sweep_body(amps: &mut [C64], base: usize, factors: &[DiagFactor]) {
    // Multi-factor sweeps keep the factor loop innermost so each
    // amplitude multiplies the factors in plan order — the bitwise
    // contract of apply_diag_sweep.
    for (i, a) in amps.iter_mut().enumerate() {
        for f in factors {
            *a *= f.at(base + i);
        }
    }
}

simd_dispatch! {
    /// Serial multi-factor diagonal sweep (factor loop innermost).
    pub fn diag_multi_sweep(amps: &mut [C64], base: usize, factors: &[DiagFactor]) =
        diag_multi_sweep_body
}

// ---------------------------------------------------------------------------
// Expectation-value flip-mask sign sweep.
// ---------------------------------------------------------------------------

/// Fills `out[j]` with the group phase `Σ_t c_t·(−1)^{|(base+j) ∧ z_t|}`
/// for a block of consecutive amplitude indices. The term loop runs
/// *outer* so each `out[j]` receives its `c·sign` contributions in group
/// order — the accumulation sequence of the per-index scalar loop
/// ([`crate::expval::GroupPhase`]) — while the index loop becomes a
/// branch-free lane sweep LLVM can vectorize: `x & z`, popcount parity,
/// `sign = 1 − 2·parity`, two multiply-adds.
#[inline(always)]
fn group_phase_block_body(out: &mut [C64], base: usize, terms: &[(C64, u64)]) {
    for o in out.iter_mut() {
        *o = C64::default();
    }
    for &(c, z) in terms {
        for (j, o) in out.iter_mut().enumerate() {
            let x = (base + j) as u64;
            let sign = 1.0 - 2.0 * ((x & z).count_ones() & 1) as f64;
            o.re += c.re * sign;
            o.im += c.im * sign;
        }
    }
}

simd_dispatch! {
    /// Group-phase block fill for the batched direct expectation.
    pub fn group_phase_block(out: &mut [C64], base: usize, terms: &[(C64, u64)]) =
        group_phase_block_body
}

/// Fills `out[j]` with the flip-group pair weight of local index
/// `k = base + j`: `|own[k]|²` for the diagonal group (`flip` is `None`),
/// else `conj(partner[k⊕flip])·own[k]`. On one node `partner` is `own`;
/// on a sharded register it is the shard the mask's rank bits point at
/// and `flip` carries only the mask's local bits.
#[inline(always)]
fn flip_weights_block_body(
    out: &mut [C64],
    own: &[C64],
    partner: &[C64],
    base: usize,
    flip: Option<usize>,
) {
    match flip {
        None => {
            for (j, o) in out.iter_mut().enumerate() {
                *o = C64::new(own[base + j].norm_sqr(), 0.0);
            }
        }
        Some(m) => {
            for (j, o) in out.iter_mut().enumerate() {
                let k = base + j;
                *o = partner[k ^ m].conj() * own[k];
            }
        }
    }
}

simd_dispatch! {
    /// Flip-group pair-weight block fill for the batched direct
    /// expectation.
    pub fn flip_weights_block(
        out: &mut [C64],
        own: &[C64],
        partner: &[C64],
        base: usize,
        flip: Option<usize>,
    ) = flip_weights_block_body
}

#[cfg(test)]
mod tests {
    use super::*;
    use nwq_common::mat::{mat_cx, mat_h, mat_rz, mat_rzz};

    fn rand_state(n: usize, seed: u64) -> Vec<C64> {
        (0..1usize << n)
            .map(|i| {
                let t = (i as f64 * 0.37 + seed as f64).sin();
                C64::new(t, (t * 2.1).cos())
            })
            .collect()
    }

    fn bits(v: &[C64]) -> Vec<(u64, u64)> {
        v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
    }

    /// Runs `f` twice — SIMD-selected and scalar-forced — and asserts the
    /// two results are bitwise identical.
    fn assert_instantiations_agree(mut f: impl FnMut(&mut [C64]), n: usize, seed: u64) {
        let psi = rand_state(n, seed);
        let mut fast = psi.clone();
        let mut slow = psi;
        set_force_scalar(false);
        f(&mut fast);
        set_force_scalar(true);
        f(&mut slow);
        set_force_scalar(false);
        assert_eq!(bits(&fast), bits(&slow));
    }

    #[test]
    fn mat2_instantiations_bitwise_identical() {
        for q in [0usize, 3, 9] {
            assert_instantiations_agree(|a| mat2_sweep(a, 1 << q, &mat_h()), 10, q as u64);
        }
    }

    #[test]
    fn mat4_instantiations_bitwise_identical() {
        for (hi, lo) in [(1usize, 0usize), (9, 4), (9, 8)] {
            assert_instantiations_agree(
                |a| mat4_sweep(a, 1 << hi, 1 << lo, &mat_cx()),
                10,
                (hi * 13 + lo) as u64,
            );
        }
    }

    #[test]
    fn diag_instantiations_bitwise_identical() {
        let rz = mat_rz(0.83);
        assert_instantiations_agree(|a| diag1_sweep(a, 0, 4, rz.0[0][0], rz.0[1][1]), 10, 5);
        let rzz = mat_rzz(1.1);
        let d = [rzz.0[0][0], rzz.0[1][1], rzz.0[2][2], rzz.0[3][3]];
        assert_instantiations_agree(|a| diag2_sweep(a, 0, 7, 2, &d), 10, 6);
    }

    #[test]
    fn group_phase_instantiations_bitwise_identical() {
        let terms: Vec<(C64, u64)> = (0..7)
            .map(|t| (C64::new(0.1 * t as f64, -0.02 * t as f64), 0b1011 << t))
            .collect();
        let mut fast = vec![C64::default(); 64];
        let mut slow = vec![C64::default(); 64];
        set_force_scalar(false);
        group_phase_block(&mut fast, 128, &terms);
        set_force_scalar(true);
        group_phase_block(&mut slow, 128, &terms);
        set_force_scalar(false);
        assert_eq!(bits(&fast), bits(&slow));
    }

    #[test]
    fn force_scalar_round_trips() {
        assert!(!scalar_forced() || env_forced_scalar());
        set_force_scalar(true);
        assert!(scalar_forced());
        assert!(!simd_selected());
        set_force_scalar(false);
    }
}
