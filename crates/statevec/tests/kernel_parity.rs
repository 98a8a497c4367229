//! Value-exact parity between the kernel entry points and a fully-serial,
//! index-by-index mirror.
//!
//! Every path of `apply_mat2` / `apply_mat4` (serial sweep, sweep split
//! across the pool, diagonal and block-structured fast paths) computes
//! each amplitude pair/quad with the same arithmetic in the same order —
//! a split only changes *which thread* owns a block, never the
//! floating-point expression. The results must therefore be **bitwise
//! identical** to a serial mirror, not merely approximately equal. These
//! tests pin that guarantee on both sides of the one dispatch floor
//! (`PAR_MIN_AMPS`): one register size just below it, where every sweep
//! is serial, and one at it, where a multi-thread pool splits every sweep
//! — low target qubits into runs of whole blocks, the top qubit into
//! lockstep windows of the two halves. (Cuts the host's pool would never
//! make are covered by `partition_parity.rs`.)

use nwq_common::mat::{
    block_diag, mat_cp, mat_cx, mat_h, mat_ry, mat_rz, mat_rzz, mat_swap, mat_x, mat_y,
};
use nwq_common::{Mat2, Mat4, C64, PAR_MIN_AMPS};
use nwq_statevec::kernels::{apply_mat2, apply_mat4};
use proptest::prelude::*;

/// Register width at the dispatch floor.
const FLOOR: usize = PAR_MIN_AMPS.trailing_zeros() as usize;

/// Serial mirror of `apply_mat2`, replicating both the diagonal fast path
/// and the general pair math expression-for-expression.
fn serial_mat2(amps: &mut [C64], q: usize, m: &Mat2) {
    if m.0[0][1].norm_sqr() == 0.0 && m.0[1][0].norm_sqr() == 0.0 {
        let (d0, d1) = (m.0[0][0], m.0[1][1]);
        for (i, a) in amps.iter_mut().enumerate() {
            let d = if (i >> q) & 1 == 1 { d1 } else { d0 };
            *a *= d;
        }
        return;
    }
    let stride = 1usize << q;
    let block = stride << 1;
    for c in amps.chunks_mut(block) {
        let (lo, hi) = c.split_at_mut(stride);
        for j in 0..stride {
            let a = lo[j];
            let b = hi[j];
            lo[j] = m.0[0][0] * a + m.0[0][1] * b;
            hi[j] = m.0[1][0] * a + m.0[1][1] * b;
        }
    }
}

/// Serial mirror of one 2×2 sub-block of a block-structured mat4: the
/// kernels SKIP identity sub-blocks (multiplying by exact `1+0i` flips
/// the sign of a `-0.0` real part when the imaginary part is `-0.0`, so
/// "skip" and "multiply by one" are NOT bitwise equivalent), multiply
/// diagonal ones in place, and pair-MAC dense ones.
fn serial_sub_pair(lo: &mut C64, hi: &mut C64, m: &Mat2) {
    let diag = m.0[0][1].norm_sqr() == 0.0 && m.0[1][0].norm_sqr() == 0.0;
    let one = |c: C64| c.re == 1.0 && c.im == 0.0;
    if diag && one(m.0[0][0]) && one(m.0[1][1]) {
        return; // identity: untouched
    }
    if diag {
        *lo *= m.0[0][0];
        *hi *= m.0[1][1];
        return;
    }
    let a = *lo;
    let b = *hi;
    *lo = m.0[0][0] * a + m.0[0][1] * b;
    *hi = m.0[1][0] * a + m.0[1][1] * b;
}

/// Serial mirror of `apply_mat4` (same qubit normalization, same quad
/// expression), including the diagonal and block-structured fast paths.
fn serial_mat4(amps: &mut [C64], qa: usize, qb: usize, m: &Mat4) {
    let (hi_q, lo_q, mat) = if qa > qb {
        (qa, qb, *m)
    } else {
        (qb, qa, m.swap_qubits())
    };
    if (0..4).all(|r| (0..4).all(|c| r == c || mat.0[r][c].norm_sqr() == 0.0)) {
        let d = [mat.0[0][0], mat.0[1][1], mat.0[2][2], mat.0[3][3]];
        for (i, a) in amps.iter_mut().enumerate() {
            let idx = (((i >> hi_q) & 1) << 1) | ((i >> lo_q) & 1);
            *a *= d[idx];
        }
        return;
    }
    let z = |r: usize, c: usize| mat.0[r][c].norm_sqr() == 0.0;
    // Hi-block-diagonal (e.g. CX with the control on the high bit): each
    // high-bit half evolves under its own 2×2 on the low bit.
    if z(0, 2) && z(0, 3) && z(1, 2) && z(1, 3) && z(2, 0) && z(2, 1) && z(3, 0) && z(3, 1) {
        let a = Mat2([[mat.0[0][0], mat.0[0][1]], [mat.0[1][0], mat.0[1][1]]]);
        let b = Mat2([[mat.0[2][2], mat.0[2][3]], [mat.0[3][2], mat.0[3][3]]]);
        let dim = amps.len();
        for i in 0..dim {
            if (i >> lo_q) & 1 == 0 {
                let j = i | (1 << lo_q);
                let sub = if (i >> hi_q) & 1 == 1 { &b } else { &a };
                let (l, r) = amps.split_at_mut(j);
                serial_sub_pair(&mut l[i], &mut r[0], sub);
            }
        }
        return;
    }
    // Lo-block-diagonal (e.g. CX with the control on the low bit): each
    // low-bit stripe evolves under its own 2×2 across the high bit.
    if z(0, 1) && z(0, 3) && z(2, 1) && z(2, 3) && z(1, 0) && z(1, 2) && z(3, 0) && z(3, 2) {
        let a = Mat2([[mat.0[0][0], mat.0[0][2]], [mat.0[2][0], mat.0[2][2]]]);
        let b = Mat2([[mat.0[1][1], mat.0[1][3]], [mat.0[3][1], mat.0[3][3]]]);
        let dim = amps.len();
        for i in 0..dim {
            if (i >> hi_q) & 1 == 0 {
                let j = i | (1 << hi_q);
                let sub = if (i >> lo_q) & 1 == 1 { &b } else { &a };
                let (l, r) = amps.split_at_mut(j);
                serial_sub_pair(&mut l[i], &mut r[0], sub);
            }
        }
        return;
    }
    let s_lo = 1usize << lo_q;
    let s_hi = 1usize << hi_q;
    let block = s_hi << 1;
    let lo_block = s_lo << 1;
    for c in amps.chunks_mut(block) {
        let (h0, h1) = c.split_at_mut(s_hi);
        for (c0, c1) in h0.chunks_mut(lo_block).zip(h1.chunks_mut(lo_block)) {
            let (c00, c01) = c0.split_at_mut(s_lo);
            let (c10, c11) = c1.split_at_mut(s_lo);
            for j in 0..s_lo {
                let v = [c00[j], c01[j], c10[j], c11[j]];
                let mut out = [C64::default(); 4];
                for (r, o) in out.iter_mut().enumerate() {
                    let row = &mat.0[r];
                    *o = row[0] * v[0] + row[1] * v[1] + row[2] * v[2] + row[3] * v[3];
                }
                c00[j] = out[0];
                c01[j] = out[1];
                c10[j] = out[2];
                c11[j] = out[3];
            }
        }
    }
}

/// Deterministic pseudo-random normalized state.
fn rand_state(n: usize, seed: u64) -> Vec<C64> {
    let mut v: Vec<C64> = (0..1usize << n)
        .map(|i| {
            let t = (i as f64 * 0.61803 + seed as f64 * 0.77).sin();
            C64::new(t, (t * 1.7 + 0.3).cos())
        })
        .collect();
    let norm: f64 = v.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
    for a in &mut v {
        *a = *a * (1.0 / norm);
    }
    v
}

fn bits(v: &[C64]) -> Vec<(u64, u64)> {
    v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
}

fn assert_bit_identical(fast: &[C64], slow: &[C64], what: &str) {
    for (i, (x, y)) in fast.iter().zip(slow).enumerate() {
        assert!(
            x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
            "{what}: amplitude {i} differs bitwise: {x:?} vs {y:?}"
        );
    }
}

#[test]
fn mat2_bitwise_parity_across_dispatch_paths() {
    // One size each side of the floor; low/mid/high q sweeps the
    // stride-1 kernel, whole-block runs and the lockstep-window cut.
    for n in [FLOOR - 1, FLOOR] {
        for q in [0, 1, n / 2, n - 3, n - 2, n - 1] {
            for (label, m) in [
                ("h", mat_h()),
                ("x", mat_x()),
                ("y", mat_y()),
                ("rz", mat_rz(0.7)),
            ] {
                let psi = rand_state(n, (n * 31 + q) as u64);
                let mut fast = psi.clone();
                let mut slow = psi;
                apply_mat2(&mut fast, q, &m);
                serial_mat2(&mut slow, q, &m);
                assert_bit_identical(&fast, &slow, &format!("mat2 {label} n={n} q={q}"));
            }
        }
    }
}

#[test]
fn mat4_bitwise_parity_across_dispatch_paths() {
    for n in [FLOOR - 1, FLOOR] {
        // Low/low, high/high, and mixed pairs in both argument orders.
        let pairs = [
            (0, 1),
            (1, 0),
            (n - 1, n - 2),
            (n - 2, n - 1),
            (0, n - 1),
            (n - 1, 0),
            (2, n - 3),
        ];
        for (qa, qb) in pairs {
            for (label, m) in [
                ("cx", mat_cx()),
                ("swap", mat_swap()),
                ("rzz", mat_rzz(0.9)),
                ("cp", mat_cp(0.4)),
            ] {
                let psi = rand_state(n, (n * 131 + qa * 17 + qb) as u64);
                let mut fast = psi.clone();
                let mut slow = psi;
                apply_mat4(&mut fast, qa, qb, &m);
                serial_mat4(&mut slow, qa, qb, &m);
                assert_bit_identical(&fast, &slow, &format!("mat4 {label} n={n} qa={qa} qb={qb}"));
            }
        }
    }
}

#[test]
fn mat4_block_identity_subblock_preserves_negative_zero() {
    // CX is block-structured with an identity sub-block on the
    // control=0 half. That half must be SKIPPED, not multiplied by
    // `1+0i`: for an amplitude `-0.0 - 0.0i`, `a *= C64::new(1.0, 0.0)`
    // yields `re = (-0.0 * 1.0) - (-0.0 * 0.0) = +0.0`, flipping the
    // sign bit. Random test states never hold exact zeros, so this case
    // pins the hazard explicitly with a hand-built state.
    let n = FLOOR;
    let neg_zero = C64::new(-0.0, -0.0);
    for (qa, qb) in [(2usize, 9usize), (9, 2), (0, n - 1), (n - 1, 0)] {
        let mut psi = vec![neg_zero; 1usize << n];
        psi[0] = C64::new(1.0, 0.0);
        let mut fast = psi.clone();
        let mut slow = psi;
        apply_mat4(&mut fast, qa, qb, &mat_cx());
        serial_mat4(&mut slow, qa, qb, &mat_cx());
        assert_bit_identical(&fast, &slow, &format!("cx -0.0 qa={qa} qb={qb}"));
        // Amplitudes with both gate bits clear sit in the identity
        // sub-block (control = 0, target = 0): they must be bitwise
        // untouched — each -0.0 keeps its sign bit. (Amplitudes with the
        // control bit set go through the dense X sub-block's MAC, which
        // legitimately rewrites -0.0 to +0.0.)
        for (i, a) in fast.iter().enumerate() {
            if (i >> qa) & 1 != 0 || (i >> qb) & 1 != 0 {
                continue;
            }
            let want = if i == 0 { C64::new(1.0, 0.0) } else { neg_zero };
            assert!(
                a.re.to_bits() == want.re.to_bits() && a.im.to_bits() == want.im.to_bits(),
                "cx identity half rewrote amp {i}: {a:?} (qa={qa} qb={qb})"
            );
        }
    }
}

/// Identity, diagonal or dense sub-block for [`block_diag`].
fn sub_of_kind(k: u8, angle: f64) -> Mat2 {
    match k {
        0 => Mat2::identity(),
        1 => mat_rz(angle),
        _ => mat_ry(angle),
    }
}

#[test]
fn block_shapes_bitwise_parity_across_dispatch_paths() {
    // Every pair of sub-block kinds in both orientations, on states with
    // exact ±0 parts and mixed signs, one size each side of the floor.
    for n in [FLOOR - 1, FLOOR] {
        let mut psi = rand_state(n, n as u64);
        for (i, a) in psi.iter_mut().enumerate() {
            match i % 4 {
                0 => *a = C64::new(-0.0, -0.0),
                1 => *a = C64::new(0.0, -a.im),
                _ => {}
            }
        }
        for kinds in (0..3u8).flat_map(|a| (0..3u8).map(move |b| (a, b))) {
            for hi_blocks in [true, false] {
                let m = block_diag(
                    hi_blocks,
                    &sub_of_kind(kinds.0, 0.73),
                    &sub_of_kind(kinds.1, -0.29),
                );
                for (qa, qb) in [(1, 0), (n - 1, 0), (n - 1, 1), (5, 2), (2, n - 1)] {
                    let mut fast = psi.clone();
                    let mut slow = psi.clone();
                    apply_mat4(&mut fast, qa, qb, &m);
                    serial_mat4(&mut slow, qa, qb, &m);
                    let what =
                        format!("block {kinds:?} hi_blocks={hi_blocks} n={n} qa={qa} qb={qb}");
                    assert_bit_identical(&fast, &slow, &what);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn mat2_parity_random(n in FLOOR - 1..=FLOOR, q in 0usize..32, kind in 0u8..4, seed in 0u64..1000) {
        let q = q % n;
        let m = match kind {
            0 => mat_h(),
            1 => mat_x(),
            2 => mat_rz(0.1 + seed as f64 * 1e-3),
            _ => mat_y(),
        };
        let psi = rand_state(n, seed);
        let mut fast = psi.clone();
        let mut slow = psi;
        apply_mat2(&mut fast, q, &m);
        serial_mat2(&mut slow, q, &m);
        prop_assert_eq!(bits(&fast), bits(&slow));
    }

    #[test]
    fn mat4_parity_random(
        n in FLOOR - 1..=FLOOR,
        qa in 0usize..32,
        dq in 1usize..31,
        kind in 0u8..4,
        seed in 0u64..1000,
    ) {
        let qa = qa % n;
        let qb = (qa + 1 + (dq - 1) % (n - 1)) % n; // always != qa
        let m = match kind {
            0 => mat_cx(),
            1 => mat_swap(),
            2 => mat_rzz(0.1 + seed as f64 * 1e-3),
            _ => mat_cp(0.2 + seed as f64 * 1e-3),
        };
        let psi = rand_state(n, seed.wrapping_add(7));
        let mut fast = psi.clone();
        let mut slow = psi;
        apply_mat4(&mut fast, qa, qb, &m);
        serial_mat4(&mut slow, qa, qb, &m);
        prop_assert_eq!(bits(&fast), bits(&slow));
    }
}
