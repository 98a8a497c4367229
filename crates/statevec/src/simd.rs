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

use crate::kernels::{DiagFactor, Mat4Shape, SubKind};
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
    const { assert!(std::mem::size_of::<C64>() == 2 * std::mem::size_of::<f64>()) };
    // SAFETY: C64 is #[repr(C)] with exactly two f64 fields (size checked
    // above), so a [C64] allocation is a valid [f64] allocation of twice
    // the length; f64 has no invalid bit patterns and alignment is
    // identical.
    unsafe { std::slice::from_raw_parts_mut(amps.as_mut_ptr() as *mut f64, amps.len() * 2) }
}

/// `t` with a zero bit inserted at position `b`: the `t`-th index whose
/// bit `b` is clear. Chained for two bits, it walks every pair or quad of
/// a gate in one loop, whatever the block sizes.
#[inline(always)]
pub(crate) fn insert_zero_bit(t: usize, b: usize) -> usize {
    ((t >> b) << (b + 1)) | (t & ((1 << b) - 1))
}

/// Instantiates `$body` as `mod $name { scalar, avx2 }` plus a public
/// dispatcher `$name` that selects the AVX2 build when
/// [`simd_selected`] holds. The dispatch cost is one relaxed atomic load
/// per *sweep*, not per amplitude — callers hand whole loops to these
/// entry points.
macro_rules! simd_dispatch {
    ($(#[$doc:meta])* pub fn $name:ident($($arg:ident: $ty:ty),* $(,)?) = $body:ident) => {
        simd_dispatch! { $(#[$doc])* pub fn $name($($arg: $ty),*) -> () = $body }
    };
    ($(#[$doc:meta])* pub fn $name:ident($($arg:ident: $ty:ty),* $(,)?) -> $ret:ty = $body:ident) => {
        $(#[$doc])*
        pub fn $name($($arg: $ty),*) -> $ret {
            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(enable = "avx2")]
                unsafe fn avx2($($arg: $ty),*) -> $ret {
                    $body($($arg),*)
                }
                if $crate::simd::simd_selected() {
                    debug_assert!($crate::simd::avx2_detected());
                    // SAFETY: simd_selected() is true only when AVX2 was
                    // detected on this CPU; the body is safe code.
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

    // Every function here is `unsafe` for one of two reasons, each named
    // in its SAFETY line and `debug_assert!`ed in its body:
    // - AVX2: it executes AVX2 instructions, so the CPU must have them.
    //   The public `#[target_feature(enable = "avx2")]` kernels are
    //   reached only through the dispatchers outside this module, which
    //   check `simd_selected()` first; the helpers are `inline(always)`
    //   into those kernels.
    // - Bounds: it reads and writes through raw pointers at computed
    //   offsets; the caller states the bound every offset stays under.

    /// Broadcast of one complex matrix entry: (`[re; 4]`, `[im; 4]`).
    /// SAFETY: AVX2.
    #[inline(always)]
    unsafe fn bcast(c: C64) -> (__m256d, __m256d) {
        debug_assert!(avx2_detected());
        (_mm256_set1_pd(c.re), _mm256_set1_pd(c.im))
    }

    /// The four entries of a 2×2 matrix, broadcast row-major.
    type Mat2B = [(__m256d, __m256d); 4];

    /// SAFETY: AVX2.
    #[inline(always)]
    unsafe fn bcast2(m: &Mat2) -> Mat2B {
        debug_assert!(avx2_detected());
        [
            bcast(m.0[0][0]),
            bcast(m.0[0][1]),
            bcast(m.0[1][0]),
            bcast(m.0[1][1]),
        ]
    }

    /// `[ai, ar, bi, br]` — swaps re/im within each complex pair.
    /// SAFETY: AVX2.
    #[inline(always)]
    unsafe fn swap_pairs(v: __m256d) -> __m256d {
        debug_assert!(avx2_detected());
        _mm256_permute_pd(v, 0b0101)
    }

    /// Two complex products `m · v` (matrix entry left, broadcast as
    /// `(re, im)`): `re' = v.re·m.re − v.im·m.im`,
    /// `im' = v.im·m.re + v.re·m.im` — bitwise `C64::mul(m, v)` (the f64
    /// products commute exactly; the add/sub pair the same operands in the
    /// same order).
    ///
    /// SAFETY: AVX2.
    #[inline(always)]
    unsafe fn cmul(v: __m256d, m: (__m256d, __m256d)) -> __m256d {
        debug_assert!(avx2_detected());
        _mm256_addsub_pd(_mm256_mul_pd(v, m.0), _mm256_mul_pd(swap_pairs(v), m.1))
    }

    /// The dense pair update on two lane pairs: `lo' = m00·a + m01·b`,
    /// `hi' = m10·a + m11·b`, lane for lane the scalar `pair_update`.
    ///
    /// SAFETY: AVX2.
    #[inline(always)]
    unsafe fn dense2(a: __m256d, b: __m256d, e: &Mat2B) -> (__m256d, __m256d) {
        debug_assert!(avx2_detected());
        (
            _mm256_add_pd(cmul(a, e[0]), cmul(b, e[1])),
            _mm256_add_pd(cmul(a, e[2]), cmul(b, e[3])),
        )
    }

    /// One amplitude (16 bytes at `p`) in the low lane pair, zeros above.
    ///
    /// SAFETY: AVX2; `p` is valid for reading 2 `f64`.
    #[inline(always)]
    unsafe fn load1(p: *const f64) -> __m256d {
        debug_assert!(avx2_detected() && !p.is_null());
        _mm256_set_m128d(_mm_setzero_pd(), _mm_loadu_pd(p))
    }

    /// Stores the low lane pair of `v` (one amplitude) to `p`.
    ///
    /// SAFETY: AVX2; `p` is valid for writing 2 `f64`.
    #[inline(always)]
    unsafe fn store1(p: *mut f64, v: __m256d) {
        debug_assert!(avx2_detected() && !p.is_null());
        _mm_storeu_pd(p, _mm256_castpd256_pd128(v))
    }

    /// Runs the lane-wise update `f` over `n` amplitude pairs
    /// `(lo[idx(t)], hi[idx(t)])`, `t < n`, two pairs per vector.
    /// `runs` promises `idx(t + 1) == idx(t) + 1` for every even `t` (the
    /// index's bit 0 is free), so both pairs are one 256-bit load per
    /// side; otherwise each vector is assembled from two 128-bit halves
    /// (`s_lo = 1` stripes). An odd last pair runs alone in the low lanes.
    /// Each pair goes through `f` exactly once, so the pair order is free.
    ///
    /// SAFETY: AVX2; bounds: `lo` and `hi` are each valid for `bound`
    /// amplitudes, every `idx(t)` (`t < n`; `idx(t) + 1` under `runs`) is
    /// below `bound`, and distinct `t` address distinct amplitudes (no
    /// pair is read after it is written).
    #[inline(always)]
    unsafe fn pairs_idx(
        lo: *mut f64,
        hi: *mut f64,
        bound: usize,
        n: usize,
        runs: bool,
        idx: impl Fn(usize) -> usize,
        f: impl Fn(__m256d, __m256d) -> (__m256d, __m256d),
    ) {
        debug_assert!(avx2_detected());
        let vec_n = n & !1;
        let mut t = 0;
        if runs {
            while t < vec_n {
                debug_assert!(idx(t + 1) == idx(t) + 1 && idx(t) + 1 < bound);
                let i = 2 * idx(t);
                let (a, b) = f(_mm256_loadu_pd(lo.add(i)), _mm256_loadu_pd(hi.add(i)));
                _mm256_storeu_pd(lo.add(i), a);
                _mm256_storeu_pd(hi.add(i), b);
                t += 2;
            }
        } else {
            while t < vec_n {
                debug_assert!(idx(t) < bound && idx(t + 1) < bound);
                let (i, j) = (2 * idx(t), 2 * idx(t + 1));
                let a = _mm256_loadu2_m128d(lo.add(j), lo.add(i));
                let b = _mm256_loadu2_m128d(hi.add(j), hi.add(i));
                let (a, b) = f(a, b);
                _mm256_storeu2_m128d(lo.add(j), lo.add(i), a);
                _mm256_storeu2_m128d(hi.add(j), hi.add(i), b);
                t += 2;
            }
        }
        if vec_n < n {
            debug_assert!(idx(vec_n) < bound);
            let i = 2 * idx(vec_n);
            let (a, b) = f(load1(lo.add(i)), load1(hi.add(i)));
            store1(lo.add(i), a);
            store1(hi.add(i), b);
        }
    }

    /// Stride-1 sweep (q = 0): pairs are adjacent (`[lo0, hi0, lo1, hi1]`),
    /// so two pairs are gathered into the standard lane shape with
    /// cross-lane permutes, updated exactly as in [`dense2`], and
    /// scattered back.
    ///
    /// SAFETY: AVX2; bounds: `amps.len()` is even.
    #[target_feature(enable = "avx2")]
    unsafe fn mat2_stride1(amps: &mut [C64], m: &Mat2) {
        debug_assert!(avx2_detected() && amps.len().is_multiple_of(2));
        let e = bcast2(m);
        let p = amps.as_mut_ptr() as *mut f64;
        let n = amps.len();
        let vec_n = n & !7;
        let mut i = 0;
        // Two independent 2-pair bodies per iteration: the gather → cmul →
        // scatter chain is latency-bound, so interleaving two chains keeps
        // the multiply ports busy. SAFETY: `i + 8 <= vec_n <= n` here and
        // `i + 4 <= n` below, so every 4-f64 access stays inside `amps`.
        while i < vec_n {
            let y0 = _mm256_loadu_pd(p.add(2 * i)); // [lo0, hi0]
            let y1 = _mm256_loadu_pd(p.add(2 * i + 4)); // [lo1, hi1]
            let y2 = _mm256_loadu_pd(p.add(2 * i + 8));
            let y3 = _mm256_loadu_pd(p.add(2 * i + 12));
            let a0 = _mm256_permute2f128_pd(y0, y1, 0x20); // [lo0, lo1]
            let b0 = _mm256_permute2f128_pd(y0, y1, 0x31); // [hi0, hi1]
            let a1 = _mm256_permute2f128_pd(y2, y3, 0x20);
            let b1 = _mm256_permute2f128_pd(y2, y3, 0x31);
            let (nl0, nh0) = dense2(a0, b0, &e);
            let (nl1, nh1) = dense2(a1, b1, &e);
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
            let (nl, nh) = dense2(a, b, &e);
            _mm256_storeu_pd(p.add(2 * i), _mm256_permute2f128_pd(nl, nh, 0x20));
            _mm256_storeu_pd(p.add(2 * i + 4), _mm256_permute2f128_pd(nl, nh, 0x31));
            i += 4;
        }
        if i < n {
            // Lone trailing pair (2-amplitude register): low lanes only.
            let (nl, nh) = dense2(load1(p.add(2 * i)), load1(p.add(2 * i + 2)), &e);
            store1(p.add(2 * i), nl);
            store1(p.add(2 * i + 2), nh);
        }
    }

    /// Whole-register single-qubit sweep: the four entries are broadcast
    /// once, then the pairs run block by block, each block's low and high
    /// runs of `stride ≥ 2` in one plain loop (stride 1 pairs lanes in
    /// [`mat2_stride1`]).
    ///
    /// SAFETY: AVX2; bounds: `stride` is a power of two and `amps` whole
    /// blocks of `2·stride`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn mat2_sweep(amps: &mut [C64], stride: usize, m: &Mat2) {
        debug_assert!(avx2_detected());
        debug_assert!(stride.is_power_of_two() && amps.len().is_multiple_of(2 * stride));
        if stride == 1 {
            return mat2_stride1(amps, m);
        }
        let e = bcast2(m);
        for c in amps.chunks_mut(2 * stride) {
            let p = c.as_mut_ptr() as *mut f64;
            // SAFETY: `c` is one whole block of 2·stride amplitudes; t <
            // stride indexes its low half, t + stride its high; stride ≥ 2
            // is even, so runs pair up.
            pairs_idx(
                p,
                p.add(2 * stride),
                stride,
                stride,
                true,
                |t| t,
                |a, b| dense2(a, b, &e),
            );
        }
    }

    /// One (lo, hi) window pair of a split single-qubit sweep.
    ///
    /// SAFETY: AVX2; bounds: `lo.len() == hi.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn mat2_pairs(lo: &mut [C64], hi: &mut [C64], m: &Mat2) {
        let n = lo.len();
        debug_assert!(avx2_detected() && n == hi.len());
        let e = bcast2(m);
        // SAFETY: idx(t) = t < n = lo.len() = hi.len(); `lo` and `hi` are
        // disjoint borrows.
        pairs_idx(
            lo.as_mut_ptr() as *mut f64,
            hi.as_mut_ptr() as *mut f64,
            n,
            n,
            true,
            |t| t,
            |a, b| dense2(a, b, &e),
        );
    }

    /// One 2×2 sub-block of a block-structured gate over `n` pairs
    /// `(lo[idx(t)], hi[idx(t)])`: `Identity` touches nothing, `Diag`
    /// multiplies each side by its entry, `Dense` runs [`dense2`].
    ///
    /// SAFETY: as [`pairs_idx`]. A `target_feature` function of its own
    /// (not `inline(always)`) so the update closures below are compiled
    /// with AVX2 too.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    unsafe fn sub_pairs(
        lo: *mut f64,
        hi: *mut f64,
        bound: usize,
        n: usize,
        runs: bool,
        idx: impl Fn(usize) -> usize,
        k: SubKind,
        m: &Mat2,
    ) {
        debug_assert!(avx2_detected());
        match k {
            SubKind::Identity => {}
            SubKind::Diag => {
                let (d0, d1) = (bcast(m.0[0][0]), bcast(m.0[1][1]));
                pairs_idx(lo, hi, bound, n, runs, idx, |a, b| {
                    (cmul(a, d0), cmul(b, d1))
                });
            }
            SubKind::Dense => {
                let e = bcast2(m);
                pairs_idx(lo, hi, bound, n, runs, idx, |a, b| dense2(a, b, &e));
            }
        }
    }

    /// Whole-register sweep of a block-structured two-qubit gate (`hi >
    /// lo`, `shape` a `BlockHi`/`BlockLo`): each non-identity sub-block
    /// is broadcast once and walks all of its stripes in one loop.
    ///
    /// SAFETY: AVX2; bounds: `hi > lo` and `amps` whole blocks of
    /// `2^{hi+1}`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn block_sweep(amps: &mut [C64], hi: usize, lo: usize, shape: &Mat4Shape) {
        let (s_hi, s_lo) = (1usize << hi, 1usize << lo);
        debug_assert!(avx2_detected());
        debug_assert!(hi > lo && amps.len().is_multiple_of(2 * s_hi));
        let (len, p, runs) = (amps.len(), amps.as_mut_ptr() as *mut f64, lo > 0);
        let n = len / 4;
        let base = |t: usize| insert_zero_bit(insert_zero_bit(t, lo), hi);
        // SAFETY: for t < len/4, base(t) has bits hi and lo clear and is
        // < len, so base(t) | (1 << hi) | (1 << lo) < len as well: every
        // offset below, pair partner included, lies in `amps`.
        match *shape {
            Mat4Shape::BlockHi { a, ka, b, kb } => {
                // Sub-block v acts on the lo bit inside the hi = v half.
                let (lo_p, hi_p, bound) = (p, p.add(2 * s_lo), len - s_lo);
                sub_pairs(lo_p, hi_p, bound, n, runs, base, ka, &a);
                sub_pairs(lo_p, hi_p, bound, n, runs, |t| base(t) | s_hi, kb, &b);
            }
            Mat4Shape::BlockLo { a, ka, b, kb } => {
                // Sub-block v acts across the hi bit in the lo = v stripes.
                let (lo_p, hi_p, bound) = (p, p.add(2 * s_hi), len - s_hi);
                sub_pairs(lo_p, hi_p, bound, n, runs, base, ka, &a);
                sub_pairs(lo_p, hi_p, bound, n, runs, |t| base(t) | s_lo, kb, &b);
            }
            Mat4Shape::Diagonal | Mat4Shape::Dense => {
                unreachable!("block_sweep needs a block shape")
            }
        }
    }

    /// One lockstep window pair (`h0` in the hi = 0 half, `h1` at the same
    /// offset in the hi = 1 half) of a split block-structured sweep.
    ///
    /// SAFETY: AVX2; bounds: equal window lengths, whole blocks of
    /// `2^{lo+1}`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn block_half_pair(h0: &mut [C64], h1: &mut [C64], lo: usize, shape: &Mat4Shape) {
        let s_lo = 1usize << lo;
        let len = h0.len();
        debug_assert!(avx2_detected());
        debug_assert!(len == h1.len() && len.is_multiple_of(2 * s_lo));
        let (p0, p1, n, runs) = (
            h0.as_mut_ptr() as *mut f64,
            h1.as_mut_ptr() as *mut f64,
            len / 2,
            lo > 0,
        );
        let base = |t: usize| insert_zero_bit(t, lo);
        // SAFETY: for t < len/2, base(t) | s_lo < len, so every offset
        // lies in its window; `h0` and `h1` are disjoint borrows.
        match *shape {
            Mat4Shape::BlockHi { a, ka, b, kb } => {
                sub_pairs(p0, p0.add(2 * s_lo), len - s_lo, n, runs, base, ka, &a);
                sub_pairs(p1, p1.add(2 * s_lo), len - s_lo, n, runs, base, kb, &b);
            }
            Mat4Shape::BlockLo { a, ka, b, kb } => {
                sub_pairs(p0, p1, len, n, runs, base, ka, &a);
                sub_pairs(p0, p1, len, n, runs, |t| base(t) | s_lo, kb, &b);
            }
            Mat4Shape::Diagonal | Mat4Shape::Dense => {
                unreachable!("block_half_pair needs a block shape")
            }
        }
    }

    /// The 16 matrix entries of a 4×4 update, broadcast row-major.
    type Mat4Rows = [[(__m256d, __m256d); 4]; 4];

    /// SAFETY: AVX2.
    #[inline(always)]
    unsafe fn build_rows(m: &Mat4) -> Mat4Rows {
        debug_assert!(avx2_detected());
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
    ///
    /// SAFETY: AVX2.
    #[inline(always)]
    unsafe fn quad_rows(v: &[__m256d; 4], rows: &Mat4Rows) -> [__m256d; 4] {
        debug_assert!(avx2_detected());
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

    /// The dense 4×4 update over `n` quads whose members sit at
    /// `p0[i]`, `p0[i + s_lo]`, `p1[i]`, `p1[i + s_lo]` for `i = idx(t)`,
    /// two quads per iteration. `s_lo ≥ 2` leaves bit 0 of `i` free, so
    /// each member pair of two quads is one 256-bit load. At `s_lo = 1`
    /// the members `v0, v1` (and `v2, v3`) are adjacent: two quads are
    /// gathered into lane shape with cross-lane permutes and scattered
    /// back. An odd last quad runs alone in the low lanes.
    ///
    /// SAFETY: AVX2; bounds: `p0` and `p1` are each valid for `bound`
    /// amplitudes, `idx(t) + s_lo < bound` for every `t < n` (and
    /// `idx(t + 1) == idx(t) + 1` for even `t` when `s_lo ≥ 2`), and
    /// distinct quads are disjoint.
    #[inline(always)]
    unsafe fn quads_idx(
        p0: *mut f64,
        p1: *mut f64,
        bound: usize,
        n: usize,
        s_lo: usize,
        idx: impl Fn(usize) -> usize,
        rows: &Mat4Rows,
    ) {
        debug_assert!(avx2_detected());
        let vec_n = n & !1;
        let mut t = 0;
        if s_lo == 1 {
            while t < vec_n {
                debug_assert!(idx(t) + 1 < bound && idx(t + 1) + 1 < bound);
                let (i, j) = (2 * idx(t), 2 * idx(t + 1));
                let ya0 = _mm256_loadu_pd(p0.add(i)); // [q0.v0, q0.v1]
                let ya1 = _mm256_loadu_pd(p0.add(j)); // [q1.v0, q1.v1]
                let yb0 = _mm256_loadu_pd(p1.add(i)); // [q0.v2, q0.v3]
                let yb1 = _mm256_loadu_pd(p1.add(j)); // [q1.v2, q1.v3]
                let v = [
                    _mm256_permute2f128_pd(ya0, ya1, 0x20), // [q0.v0, q1.v0]
                    _mm256_permute2f128_pd(ya0, ya1, 0x31), // [q0.v1, q1.v1]
                    _mm256_permute2f128_pd(yb0, yb1, 0x20),
                    _mm256_permute2f128_pd(yb0, yb1, 0x31),
                ];
                let o = quad_rows(&v, rows);
                _mm256_storeu_pd(p0.add(i), _mm256_permute2f128_pd(o[0], o[1], 0x20));
                _mm256_storeu_pd(p0.add(j), _mm256_permute2f128_pd(o[0], o[1], 0x31));
                _mm256_storeu_pd(p1.add(i), _mm256_permute2f128_pd(o[2], o[3], 0x20));
                _mm256_storeu_pd(p1.add(j), _mm256_permute2f128_pd(o[2], o[3], 0x31));
                t += 2;
            }
        } else {
            let d = 2 * s_lo;
            while t < vec_n {
                debug_assert!(idx(t + 1) == idx(t) + 1 && idx(t) + 1 + s_lo < bound);
                let i = 2 * idx(t);
                let v = [
                    _mm256_loadu_pd(p0.add(i)),
                    _mm256_loadu_pd(p0.add(i + d)),
                    _mm256_loadu_pd(p1.add(i)),
                    _mm256_loadu_pd(p1.add(i + d)),
                ];
                let o = quad_rows(&v, rows);
                _mm256_storeu_pd(p0.add(i), o[0]);
                _mm256_storeu_pd(p0.add(i + d), o[1]);
                _mm256_storeu_pd(p1.add(i), o[2]);
                _mm256_storeu_pd(p1.add(i + d), o[3]);
                t += 2;
            }
        }
        if vec_n < n {
            debug_assert!(idx(vec_n) + s_lo < bound);
            let (i, d) = (2 * idx(vec_n), 2 * s_lo);
            let v = [
                load1(p0.add(i)),
                load1(p0.add(i + d)),
                load1(p1.add(i)),
                load1(p1.add(i + d)),
            ];
            let o = quad_rows(&v, rows);
            store1(p0.add(i), o[0]);
            store1(p0.add(i + d), o[1]);
            store1(p1.add(i), o[2]);
            store1(p1.add(i + d), o[3]);
        }
    }

    /// One lockstep window pair of a split dense two-qubit sweep.
    ///
    /// SAFETY: AVX2; bounds: equal window lengths, whole blocks of
    /// `2·s_lo`, `s_lo` a power of two.
    #[target_feature(enable = "avx2")]
    pub unsafe fn mat4_half_pair(half0: &mut [C64], half1: &mut [C64], s_lo: usize, m: &Mat4) {
        let len = half0.len();
        debug_assert!(avx2_detected() && s_lo.is_power_of_two());
        debug_assert!(len == half1.len() && len.is_multiple_of(2 * s_lo));
        let rows = build_rows(m);
        let (p0, p1) = (
            half0.as_mut_ptr() as *mut f64,
            half1.as_mut_ptr() as *mut f64,
        );
        let lo = s_lo.trailing_zeros() as usize;
        // SAFETY: for t < len/2, insert_zero_bit(t, lo) + s_lo < len: every
        // member is inside its window; the windows are disjoint borrows.
        quads_idx(
            p0,
            p1,
            len,
            len / 2,
            s_lo,
            |t| insert_zero_bit(t, lo),
            &rows,
        );
    }

    /// Whole-register dense two-qubit sweep: the 16 entries are broadcast
    /// once and every quad of every block runs in one loop.
    ///
    /// SAFETY: AVX2; bounds: `s_hi > s_lo`, powers of two, and `amps`
    /// whole blocks of `2·s_hi`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn mat4_sweep(amps: &mut [C64], s_hi: usize, s_lo: usize, m: &Mat4) {
        debug_assert!(avx2_detected());
        debug_assert!(s_lo.is_power_of_two() && s_hi.is_power_of_two());
        debug_assert!(s_hi > s_lo && amps.len().is_multiple_of(2 * s_hi));
        let rows = build_rows(m);
        let (hi, lo) = (
            s_hi.trailing_zeros() as usize,
            s_lo.trailing_zeros() as usize,
        );
        let p = amps.as_mut_ptr() as *mut f64;
        // SAFETY: for t < len/4, i (t with zero bits inserted at lo, then
        // hi) has bits hi and lo clear, so i + s_hi + s_lo < len: all four
        // members lie in `amps`.
        let (bound, n) = (amps.len() - s_hi, amps.len() / 4);
        quads_idx(
            p,
            p.add(2 * s_hi),
            bound,
            n,
            s_lo,
            |t| insert_zero_bit(insert_zero_bit(t, lo), hi),
            &rows,
        );
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
/// hand-written AVX2 kernels (see `avx`) rather than the
/// auto-vectorized body — the explicit `vaddsubpd` form is bitwise
/// identical and measurably faster.
pub fn mat2_sweep(amps: &mut [C64], stride: usize, m: &Mat2) {
    assert!(stride.is_power_of_two() && amps.len().is_multiple_of(2 * stride));
    #[cfg(target_arch = "x86_64")]
    if simd_selected() {
        // SAFETY: AVX2 detected (simd_selected); `stride` is a power of
        // two and `amps` whole blocks of 2·stride amplitudes (asserted above).
        return unsafe { avx::mat2_sweep(amps, stride, m) };
    }
    mat2_sweep_body(amps, stride, m)
}

/// One outer block's (lo, hi) half-pair — the per-block body the
/// Rayon-parallel dispatch path hands to worker threads.
pub fn mat2_pairs(lo: &mut [C64], hi: &mut [C64], m: &Mat2) {
    assert_eq!(lo.len(), hi.len());
    #[cfg(target_arch = "x86_64")]
    if simd_selected() {
        // SAFETY: AVX2 detected (simd_selected); equal lengths (asserted).
        return unsafe { avx::mat2_pairs(lo, hi, m) };
    }
    mat2_pairs_body(lo, hi, m)
}

// ---------------------------------------------------------------------------
// Two-qubit quad sweep.
// ---------------------------------------------------------------------------

/// The `4×4` update over four equal-length quadrant runs, on interleaved
/// lanes: each output is `((row0·v0 + row1·v1) + row2·v2) + row3·v3`, the
/// left-associated order every exchanged quad kernel in
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
    assert!(s_lo.is_power_of_two() && s_hi > s_lo && s_hi.is_power_of_two());
    assert!(amps.len().is_multiple_of(2 * s_hi));
    #[cfg(target_arch = "x86_64")]
    if simd_selected() {
        // SAFETY: AVX2 detected (simd_selected); `amps` is whole blocks of
        // 2·s_hi amplitudes, s_hi > s_lo powers of two (asserted above).
        return unsafe { avx::mat4_sweep(amps, s_hi, s_lo, m) };
    }
    mat4_sweep_body(amps, s_hi, s_lo, m)
}

/// One outer block's half-pair — the per-block body of the
/// block-parallel two-qubit path.
pub fn mat4_half_pair(half0: &mut [C64], half1: &mut [C64], s_lo: usize, m: &Mat4) {
    assert!(s_lo.is_power_of_two());
    assert!(half0.len() == half1.len() && half0.len().is_multiple_of(2 * s_lo));
    #[cfg(target_arch = "x86_64")]
    if simd_selected() {
        // SAFETY: AVX2 detected (simd_selected); equal window lengths,
        // whole inner blocks of 2·s_lo, s_lo a power of two (asserted above).
        return unsafe { avx::mat4_half_pair(half0, half1, s_lo, m) };
    }
    mat4_half_pair_body(half0, half1, s_lo, m)
}

// ---------------------------------------------------------------------------
// Block-structured (controlled) two-qubit sweep.
// ---------------------------------------------------------------------------

/// One 2×2 sub-block across a (low, high) stripe pair: `Identity`
/// touches nothing (multiplying by exact `1+0i` is not a bitwise no-op
/// for `-0.0` parts), `Diag` multiplies in place, `Dense` runs the pair
/// update — the per-element expressions every sharded lean-exchange
/// kernel mirrors.
#[inline(always)]
fn sub_pairwise_body(lo: &mut [C64], hi: &mut [C64], k: SubKind, m: &Mat2) {
    match k {
        SubKind::Identity => {}
        SubKind::Diag => {
            diag_scale_body(lo, m.0[0][0]);
            diag_scale_body(hi, m.0[1][1]);
        }
        SubKind::Dense => mat2_pairs_body(lo, hi, m),
    }
}

/// One window pair (`h0` with the high bit clear, `h1` at the same offset
/// with it set; whole inner blocks of `2^{lo+1}`) of a block-structured
/// two-qubit gate: the scalar twin of [`avx::block_half_pair`].
#[inline(always)]
fn block_half_pair_body(h0: &mut [C64], h1: &mut [C64], lo: usize, shape: &Mat4Shape) {
    let s_lo = 1usize << lo;
    let lo_block = s_lo << 1;
    match *shape {
        Mat4Shape::BlockHi { a, ka, b, kb } => {
            for c in h0.chunks_mut(lo_block) {
                let (c0, c1) = c.split_at_mut(s_lo);
                sub_pairwise_body(c0, c1, ka, &a);
            }
            for c in h1.chunks_mut(lo_block) {
                let (c0, c1) = c.split_at_mut(s_lo);
                sub_pairwise_body(c0, c1, kb, &b);
            }
        }
        Mat4Shape::BlockLo { a, ka, b, kb } => {
            for (c0, c1) in h0.chunks_mut(lo_block).zip(h1.chunks_mut(lo_block)) {
                let (c00, c01) = c0.split_at_mut(s_lo);
                let (c10, c11) = c1.split_at_mut(s_lo);
                sub_pairwise_body(c00, c10, ka, &a);
                sub_pairwise_body(c01, c11, kb, &b);
            }
        }
        Mat4Shape::Diagonal | Mat4Shape::Dense => unreachable!("block sweeps need a block shape"),
    }
}

/// Full serial sweep of a block-structured two-qubit gate (`hi > lo`,
/// `shape` a `BlockHi`/`BlockLo` from [`crate::kernels::mat4_shape`]).
/// Controlled gates touch at most the amplitudes their non-identity
/// sub-blocks act on. The AVX2 kernel broadcasts each sub-block once and
/// walks every stripe of the register in one loop (128-bit lane halves
/// at `lo = 0`); the scalar twin walks block by block. Both evaluate the
/// same per-element expressions, so they agree bitwise.
pub fn block_sweep(amps: &mut [C64], hi: usize, lo: usize, shape: &Mat4Shape) {
    assert!(hi > lo && amps.len().is_multiple_of(2 << hi));
    #[cfg(target_arch = "x86_64")]
    if simd_selected() {
        // SAFETY: AVX2 detected (simd_selected); `amps` is whole blocks of
        // 2^{hi+1} amplitudes with hi > lo (asserted above).
        return unsafe { avx::block_sweep(amps, hi, lo, shape) };
    }
    let s_hi = 1usize << hi;
    for c in amps.chunks_mut(s_hi << 1) {
        let (h0, h1) = c.split_at_mut(s_hi);
        block_half_pair_body(h0, h1, lo, shape);
    }
}

/// One lockstep window pair of a split block-structured sweep (see
/// [`block_sweep`]).
pub fn block_half_pair(h0: &mut [C64], h1: &mut [C64], lo: usize, shape: &Mat4Shape) {
    assert!(h0.len() == h1.len() && h0.len().is_multiple_of(2 << lo));
    #[cfg(target_arch = "x86_64")]
    if simd_selected() {
        // SAFETY: AVX2 detected (simd_selected); equal window lengths,
        // whole inner blocks of 2^{lo+1} (asserted above).
        return unsafe { avx::block_half_pair(h0, h1, lo, shape) };
    }
    block_half_pair_body(h0, h1, lo, shape)
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

// ---------------------------------------------------------------------------
// Adjoint bra-matrix-ket folds: Re⟨φ|M|λ⟩ without materializing M|λ⟩.
//
// Each fold walks only the index structure its matrix shape needs and
// accumulates on a fixed set of lane accumulators, so the scalar and the
// AVX2 instantiation add the same products in the same order: a gradient
// is bitwise the same either way.
// ---------------------------------------------------------------------------

/// `Re(conj(p)·w)`.
#[inline(always)]
fn re_conj_mul(p: C64, w: C64) -> f64 {
    p.re * w.re + p.im * w.im
}

/// `Σ_j conj(φ_j)·λ_j` over one run, on two lane accumulators.
#[inline(always)]
fn dot_run(phi: &[C64], lam: &[C64]) -> C64 {
    debug_assert_eq!(phi.len(), lam.len());
    let (mut re, mut im) = ([0.0f64; 2], [0.0f64; 2]);
    let (pc, lc) = (phi.chunks_exact(2), lam.chunks_exact(2));
    let (p_tail, l_tail) = (pc.remainder(), lc.remainder());
    for (p, l) in pc.zip(lc) {
        for k in 0..2 {
            re[k] += p[k].re * l[k].re + p[k].im * l[k].im;
            im[k] += p[k].re * l[k].im - p[k].im * l[k].re;
        }
    }
    let mut out = C64::new(re[0] + re[1], im[0] + im[1]);
    if let (Some(p), Some(l)) = (p_tail.first(), l_tail.first()) {
        out.re += p.re * l.re + p.im * l.im;
        out.im += p.re * l.im - p.im * l.re;
    }
    out
}

/// `Re Σ_j [conj(φa_j)·(m00·λa_j + m01·λb_j) + conj(φb_j)·(m10·λa_j + m11·λb_j)]`
/// over a (low, high) run pair, on two lane accumulators.
#[inline(always)]
fn pairs_run_fold(pa: &[C64], pb: &[C64], la: &[C64], lb: &[C64], m: &Mat2) -> f64 {
    let n = pa.len();
    debug_assert!(pb.len() == n && la.len() == n && lb.len() == n);
    let r = &m.0;
    let term = |j: usize| {
        let (a, b) = (la[j], lb[j]);
        re_conj_mul(pa[j], r[0][0] * a + r[0][1] * b)
            + re_conj_mul(pb[j], r[1][0] * a + r[1][1] * b)
    };
    let mut acc = [0.0f64; 2];
    let vec_n = n & !1;
    for j in (0..vec_n).step_by(2) {
        acc[0] += term(j);
        acc[1] += term(j + 1);
    }
    let mut total = acc[0] + acc[1];
    if vec_n < n {
        total += term(vec_n);
    }
    total
}

#[inline(always)]
fn fold_diag_body(phi: &[C64], lam: &[C64], f: &DiagFactor) -> f64 {
    // The factor is constant over runs of 2^low: one conjugate dot per
    // run, scaled by its entry.
    let low = match *f {
        DiagFactor::One { q, .. } => q,
        DiagFactor::Two { lo, .. } => lo,
    };
    let run = 1usize << low;
    let mut total = 0.0;
    for (k, (p, l)) in phi.chunks(run).zip(lam.chunks(run)).enumerate() {
        let s = dot_run(p, l);
        let d = f.at(k * run);
        total += d.re * s.re - d.im * s.im;
    }
    total
}

simd_dispatch! {
    /// `Re⟨φ|D|λ⟩` for a diagonal `D` (one factor): one pass, one
    /// conjugate dot per constant run — every UCCSD RZ apex derivative.
    pub fn fold_diag(phi: &[C64], lam: &[C64], f: &DiagFactor) -> f64 = fold_diag_body
}

#[inline(always)]
fn fold_mat2_body(phi: &[C64], lam: &[C64], q: usize, m: &Mat2) -> f64 {
    let stride = 1usize << q;
    let mut total = 0.0;
    for (pc, lc) in phi.chunks(stride << 1).zip(lam.chunks(stride << 1)) {
        let (pa, pb) = pc.split_at(stride);
        let (la, lb) = lc.split_at(stride);
        total += pairs_run_fold(pa, pb, la, lb, m);
    }
    total
}

simd_dispatch! {
    /// `Re⟨φ|M|λ⟩` for a dense single-qubit `M` on qubit `q`, block by
    /// block.
    pub fn fold_mat2(phi: &[C64], lam: &[C64], q: usize, m: &Mat2) -> f64 = fold_mat2_body
}

/// One sub-block's share of a block-shaped fold. A diagonal sub-block
/// (identity included — a fold multiplies, it does not skip) is two
/// conjugate dots; an exactly zero one contributes nothing and is not
/// read.
#[inline(always)]
fn sub_fold(pa: &[C64], pb: &[C64], la: &[C64], lb: &[C64], k: SubKind, m: &Mat2) -> f64 {
    match k {
        SubKind::Dense => pairs_run_fold(pa, pb, la, lb, m),
        SubKind::Identity | SubKind::Diag => {
            let (d0, d1) = (m.0[0][0], m.0[1][1]);
            let mut total = 0.0;
            for (d, p, l) in [(d0, pa, la), (d1, pb, lb)] {
                if d.norm_sqr() != 0.0 {
                    let s = dot_run(p, l);
                    total += d.re * s.re - d.im * s.im;
                }
            }
            total
        }
    }
}

#[inline(always)]
fn fold_block_body(phi: &[C64], lam: &[C64], hi: usize, lo: usize, shape: &Mat4Shape) -> f64 {
    let (s_hi, s_lo) = (1usize << hi, 1usize << lo);
    let lo_block = s_lo << 1;
    let mut total = 0.0;
    for (pc, lc) in phi.chunks(s_hi << 1).zip(lam.chunks(s_hi << 1)) {
        let (p0, p1) = pc.split_at(s_hi);
        let (l0, l1) = lc.split_at(s_hi);
        match *shape {
            Mat4Shape::BlockHi { a, ka, b, kb } => {
                for (p, l, k, m) in [(p0, l0, ka, &a), (p1, l1, kb, &b)] {
                    for (pq, lq) in p.chunks(lo_block).zip(l.chunks(lo_block)) {
                        let (pa, pb) = pq.split_at(s_lo);
                        let (la, lb) = lq.split_at(s_lo);
                        total += sub_fold(pa, pb, la, lb, k, m);
                    }
                }
            }
            Mat4Shape::BlockLo { a, ka, b, kb } => {
                let quads = p0
                    .chunks(lo_block)
                    .zip(p1.chunks(lo_block))
                    .zip(l0.chunks(lo_block).zip(l1.chunks(lo_block)));
                for ((q0, q1), (m0, m1)) in quads {
                    let (p00, p01) = q0.split_at(s_lo);
                    let (p10, p11) = q1.split_at(s_lo);
                    let (l00, l01) = m0.split_at(s_lo);
                    let (l10, l11) = m1.split_at(s_lo);
                    total += sub_fold(p00, p10, l00, l10, ka, &a);
                    total += sub_fold(p01, p11, l01, l11, kb, &b);
                }
            }
            Mat4Shape::Diagonal | Mat4Shape::Dense => {
                unreachable!("fold_block needs a block shape")
            }
        }
    }
    total
}

simd_dispatch! {
    /// `Re⟨φ|M|λ⟩` for a block-structured two-qubit `M` (`hi > lo`): each
    /// sub-block folds only the pairs it acts on, with its own 2×2.
    pub fn fold_block(phi: &[C64], lam: &[C64], hi: usize, lo: usize, shape: &Mat4Shape) -> f64 =
        fold_block_body
}

#[inline(always)]
fn fold_mat4_body(phi: &[C64], lam: &[C64], hi: usize, lo: usize, m: &Mat4) -> f64 {
    let (s_hi, s_lo) = (1usize << hi, 1usize << lo);
    let rows = &m.0;
    let mut acc = [0.0f64; 2];
    for (pc, lc) in phi.chunks(s_hi << 1).zip(lam.chunks(s_hi << 1)) {
        let (p0, p1) = pc.split_at(s_hi);
        let (l0, l1) = lc.split_at(s_hi);
        for i in (0..s_hi).step_by(s_lo << 1) {
            for j in i..i + s_lo {
                let v = [l0[j], l0[j + s_lo], l1[j], l1[j + s_lo]];
                let p = [p0[j], p0[j + s_lo], p1[j], p1[j + s_lo]];
                let mut t = 0.0;
                for r in 0..4 {
                    let row = rows[r][0] * v[0]
                        + rows[r][1] * v[1]
                        + rows[r][2] * v[2]
                        + rows[r][3] * v[3];
                    t += re_conj_mul(p[r], row);
                }
                acc[j & 1] += t;
            }
        }
    }
    acc[0] + acc[1]
}

simd_dispatch! {
    /// `Re⟨φ|M|λ⟩` for a dense two-qubit `M` (`hi > lo`), quad by quad.
    pub fn fold_mat4(phi: &[C64], lam: &[C64], hi: usize, lo: usize, m: &Mat4) -> f64 =
        fold_mat4_body
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

    /// The safe entry points check the bounds their raw-pointer bodies
    /// rely on, in every build: a stride that is not a power of two
    /// would otherwise index past the end of the register.
    #[test]
    fn sweeps_reject_strides_that_are_not_powers_of_two() {
        type Sweep = fn(&mut [C64]);
        let cases: [(&str, Sweep); 4] = [
            ("mat2_sweep", |a| mat2_sweep(a, 3, &mat_h())),
            ("mat4_sweep", |a| mat4_sweep(a, 6, 3, &mat_cx())),
            ("mat4_sweep s_hi", |a| mat4_sweep(a, 3, 1, &mat_cx())),
            ("mat4_half_pair", |a| {
                let (h0, h1) = a.split_at_mut(6);
                mat4_half_pair(h0, h1, 3, &mat_cx())
            }),
        ];
        for (what, sweep) in cases {
            let mut amps = vec![C64::default(); 12];
            let caught =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sweep(&mut amps)));
            assert!(caught.is_err(), "{what} accepted a bad stride");
        }
        let mut amps = vec![C64::default(); 16];
        mat4_sweep(&mut amps, 4, 2, &mat_cx());
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
