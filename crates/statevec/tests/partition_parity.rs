//! Bitwise parity between a sweep cut into an explicit number of parts
//! and the serial sweep, independent of the host's core count.
//!
//! `kernels` splits a sweep into as many parts as the pool has threads,
//! and only from `PAR_MIN_AMPS` amplitudes up — so on a 1- or 2-core CI
//! host the public entry points never cut a register in 3, 4 or 8, and
//! never cut a small one at all. The `*_parts` entry points take the part
//! count explicitly; these tests drive them over every target position of
//! 3–12-qubit registers: qubit 0 (the stride-1 kernel), mid qubits (runs
//! of whole blocks, block counts not divisible by the part count), and
//! the top qubits (halves cut into lockstep windows). Gate kernels reduce
//! nothing, so every cut must give the serial sweep's bits, in the
//! forced-scalar and the AVX2 instantiation alike.

use nwq_common::mat::{
    embed_high, embed_low, mat_cp, mat_cx, mat_h, mat_rx, mat_ry, mat_rz, mat_rzz, mat_swap, mat_x,
    mat_y,
};
use nwq_common::{Mat2, Mat4, C64};
use nwq_statevec::kernels::{
    apply_diag_sweep_parts, apply_mat2_parts, apply_mat4_parts, mat4_shape, DiagFactor, Mat4Shape,
};
use nwq_statevec::simd::set_force_scalar;
use proptest::prelude::*;
use std::sync::Mutex;

const PARTS: [usize; 5] = [1, 2, 3, 4, 8];

/// The scalar/SIMD switch is process-global: one test at a time.
static SCALAR_SWITCH: Mutex<()> = Mutex::new(());

/// Runs `body` under the forced-scalar kernels, then under the runtime
/// selection (AVX2 where the CPU has it).
fn in_both_instantiations(body: impl Fn(&str)) {
    let _g = SCALAR_SWITCH.lock().unwrap_or_else(|p| p.into_inner());
    set_force_scalar(true);
    let scalar = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body("scalar")));
    set_force_scalar(false);
    if let Err(p) = scalar {
        std::panic::resume_unwind(p);
    }
    body("selected");
}

/// Deterministic pseudo-random normalized state (no RNG dependency).
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

/// Index-by-index mirror of a diagonal sweep: every amplitude multiplied
/// by each factor's entry for its own index bits, in factor order.
fn serial_diag_sweep(amps: &mut [C64], factors: &[DiagFactor]) {
    for (i, a) in amps.iter_mut().enumerate() {
        for f in factors {
            *a *= match *f {
                DiagFactor::One { q, d } => d[(i >> q) & 1],
                DiagFactor::Two { hi, lo, d } => d[(((i >> hi) & 1) << 1) | ((i >> lo) & 1)],
            };
        }
    }
}

/// One matrix of every [`Mat4Shape`] (block shapes with identity, diagonal
/// and dense sub-blocks), first argument = matrix high bit.
fn mat4_of_kind(kind: u8, angle: f64) -> Mat4 {
    let controlled = |u: Mat2| {
        let mut m = Mat4::identity();
        for r in 0..2 {
            for c in 0..2 {
                m.0[2 + r][2 + c] = u.0[r][c];
            }
        }
        m
    };
    match kind {
        0 => mat_rzz(angle),                           // Diagonal
        1 => mat_cp(angle),                            // Diagonal
        2 => mat_cx(),                                 // BlockHi {Identity, Dense}
        3 => controlled(mat_rz(angle)),                // Diagonal (controlled phase)
        4 => embed_low(&mat_ry(angle)),                // BlockHi {Dense, Dense}
        5 => embed_high(&mat_rx(angle)),               // BlockLo {Dense, Dense}
        6 => mat_cx().swap_qubits(),                   // BlockLo {Identity, Dense}
        7 => mat_swap(),                               // Dense
        _ => mat_ry(angle).kron(&mat_rx(0.3 - angle)), // Dense
    }
}

#[test]
fn mat4_kinds_cover_every_shape() {
    let shapes: Vec<Mat4Shape> = (0..9).map(|k| mat4_shape(&mat4_of_kind(k, 0.7))).collect();
    assert!(shapes.iter().any(|s| matches!(s, Mat4Shape::Diagonal)));
    assert!(shapes
        .iter()
        .any(|s| matches!(s, Mat4Shape::BlockHi { .. })));
    assert!(shapes
        .iter()
        .any(|s| matches!(s, Mat4Shape::BlockLo { .. })));
    assert!(shapes.iter().any(|s| matches!(s, Mat4Shape::Dense)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Single-qubit sweeps, dense and diagonal, on EVERY target qubit.
    #[test]
    fn mat2_parts_match_serial_bitwise(n in 3usize..=12, kind in 0u8..5, seed in 0u64..1000) {
        let m = match kind {
            0 => mat_h(),
            1 => mat_x(),
            2 => mat_y(),
            3 => mat_rz(0.1 + seed as f64 * 1e-3),
            _ => mat_ry(0.2 + seed as f64 * 1e-3),
        };
        let psi = rand_state(n, seed);
        in_both_instantiations(|mode| {
            for q in 0..n {
                let mut serial = psi.clone();
                apply_mat2_parts(&mut serial, q, &m, 1);
                for parts in PARTS {
                    let mut cut = psi.clone();
                    apply_mat2_parts(&mut cut, q, &m, parts);
                    assert_eq!(bits(&cut), bits(&serial), "{mode} n={n} q={q} kind={kind} parts={parts}");
                }
            }
        });
    }

    /// Two-qubit sweeps of every shape: each high qubit with the lowest,
    /// the adjacent and a middle low qubit, in both argument orders.
    #[test]
    fn mat4_parts_match_serial_bitwise(n in 3usize..=12, kind in 0u8..9, seed in 0u64..1000) {
        let m = mat4_of_kind(kind, 0.1 + seed as f64 * 1e-3);
        let psi = rand_state(n, seed.wrapping_add(7));
        in_both_instantiations(|mode| {
            for hi in 1..n {
                let mut los = vec![0, hi / 2, hi - 1];
                los.dedup();
                for lo in los {
                    for (qa, qb) in [(hi, lo), (lo, hi)] {
                        let mut serial = psi.clone();
                        apply_mat4_parts(&mut serial, qa, qb, &m, 1);
                        for parts in PARTS {
                            let mut cut = psi.clone();
                            apply_mat4_parts(&mut cut, qa, qb, &m, parts);
                            assert_eq!(
                                bits(&cut),
                                bits(&serial),
                                "{mode} n={n} qa={qa} qb={qb} kind={kind} parts={parts}"
                            );
                        }
                    }
                }
            }
        });
    }

    /// Coalesced diagonal sweeps of 1–4 mixed factors against the
    /// index-by-index mirror; the first factor walks every qubit so the
    /// sweep's top qubit does too.
    #[test]
    fn diag_sweep_parts_match_serial_bitwise(n in 3usize..=12, nf in 1usize..5, seed in 0u64..1000) {
        let psi = rand_state(n, seed.wrapping_add(11));
        in_both_instantiations(|mode| {
            for top in 0..n {
                let factors: Vec<DiagFactor> = (0..nf)
                    .map(|f| {
                        let phase = 0.3 + 0.17 * f as f64 + seed as f64 * 1e-3;
                        let qa = if f == 0 { top } else { (seed as usize + 3 * f) % n };
                        let qb = (qa + 1 + f) % n;
                        if (f + seed as usize).is_multiple_of(2) || qa == qb {
                            let d = mat_rz(phase);
                            DiagFactor::One { q: qa, d: [d.0[0][0], d.0[1][1]] }
                        } else {
                            let d = mat_rzz(phase);
                            DiagFactor::Two {
                                hi: qa.max(qb),
                                lo: qa.min(qb),
                                d: [d.0[0][0], d.0[1][1], d.0[2][2], d.0[3][3]],
                            }
                        }
                    })
                    .collect();
                let mut serial = psi.clone();
                serial_diag_sweep(&mut serial, &factors);
                for parts in PARTS {
                    let mut cut = psi.clone();
                    apply_diag_sweep_parts(&mut cut, &factors, parts);
                    assert_eq!(bits(&cut), bits(&serial), "{mode} n={n} parts={parts} {factors:?}");
                }
            }
        });
    }
}
