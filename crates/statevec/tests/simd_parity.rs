//! Bitwise parity between the explicit-AVX kernel instantiations and the
//! forced-scalar path.
//!
//! The SIMD rewrite is only allowed to change *speed*: every vector body
//! evaluates the same floating-point expressions in the same order as
//! the scalar body, so results must match **bit for bit** — on the AVX2
//! host itself, not just on a scalar fallback machine.
//!
//! The scalar/SIMD switch is process-global, so every test in this file
//! serializes on one lock; a test observing the switch mid-flip would
//! otherwise silently compare scalar against scalar.

use nwq_common::mat::{mat_cp, mat_cx, mat_h, mat_rz, mat_rzz, mat_swap, mat_x, mat_y};
use nwq_common::{C64, PAR_MIN_AMPS};
use nwq_statevec::kernels::{apply_diag_sweep, apply_mat2, apply_mat4, DiagFactor};
use nwq_statevec::simd::set_force_scalar;
use proptest::prelude::*;
use std::sync::Mutex;

/// Register width at the dispatch floor.
const FLOOR: usize = PAR_MIN_AMPS.trailing_zeros() as usize;

static SCALAR_SWITCH: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    SCALAR_SWITCH
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
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

/// Runs `body` twice on clones of `psi` — forced-scalar, then with the
/// runtime selection restored — and requires bitwise identity.
fn assert_scalar_simd_parity(psi: &[C64], what: &str, body: &dyn Fn(&mut [C64])) {
    let _g = lock();
    let mut scalar = psi.to_vec();
    set_force_scalar(true);
    body(&mut scalar);
    set_force_scalar(false);
    let mut simd = psi.to_vec();
    body(&mut simd);
    for (i, (s, v)) in scalar.iter().zip(&simd).enumerate() {
        assert!(
            s.re.to_bits() == v.re.to_bits() && s.im.to_bits() == v.im.to_bits(),
            "{what}: amplitude {i} differs bitwise: scalar {s:?} vs simd {v:?}"
        );
    }
}

/// The proptests below stay on small registers (they sweep stride
/// regimes, and every sweep there is serial); this pins scalar == SIMD
/// one size each side of the dispatch floor, where a multi-thread pool
/// hands the same bodies block runs and lockstep half windows.
#[test]
fn scalar_vs_simd_bitwise_either_side_of_the_dispatch_floor() {
    for n in [FLOOR - 1, FLOOR] {
        let psi = rand_state(n, n as u64);
        for q in [0, n / 2, n - 1] {
            for m in [mat_h(), mat_rz(0.37)] {
                assert_scalar_simd_parity(&psi, &format!("mat2 n={n} q={q}"), &|amps| {
                    apply_mat2(amps, q, &m);
                });
            }
        }
        for (qa, qb) in [(1, 0), (n - 1, 0), (n - 2, n - 1)] {
            for m in [mat_cx(), mat_swap(), mat_rzz(0.41)] {
                assert_scalar_simd_parity(&psi, &format!("mat4 n={n} qa={qa} qb={qb}"), &|amps| {
                    apply_mat4(amps, qa, qb, &m);
                });
            }
        }
        let (rz, rzz) = (mat_rz(0.9), mat_rzz(-0.6));
        let factors = [
            DiagFactor::One {
                q: n - 1,
                d: [rz.0[0][0], rz.0[1][1]],
            },
            DiagFactor::Two {
                hi: n - 2,
                lo: 3,
                d: [rzz.0[0][0], rzz.0[1][1], rzz.0[2][2], rzz.0[3][3]],
            },
        ];
        for f in [&factors[..1], &factors[1..], &factors[..]] {
            assert_scalar_simd_parity(&psi, &format!("diag n={n} nf={}", f.len()), &|amps| {
                apply_diag_sweep(amps, f);
            });
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// mat2 sweeps across every stride regime: q = 0 exercises the
    /// interleaved stride-1 gather kernel, 1 ≤ q < 2 the scalar-tail
    /// run shape, larger q the full-run vector path.
    #[test]
    fn mat2_scalar_vs_simd_bitwise(n in 9usize..14, q in 0usize..16, kind in 0u8..4, seed in 0u64..1000) {
        let q = q % n;
        let m = match kind {
            0 => mat_h(),
            1 => mat_x(),
            2 => mat_rz(0.1 + seed as f64 * 1e-3),
            _ => mat_y(),
        };
        let psi = rand_state(n, seed);
        assert_scalar_simd_parity(&psi, &format!("mat2 n={n} q={q} kind={kind}"), &|amps| {
            apply_mat2(amps, q, &m);
        });
    }

    /// mat4 across qubit pairs in both orders: lo = 0 exercises the
    /// interleaved quad kernel, adjacent and far pairs the blocked path.
    #[test]
    fn mat4_scalar_vs_simd_bitwise(
        n in 9usize..14,
        qa in 0usize..16,
        dq in 1usize..15,
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
        let psi = rand_state(n, seed.wrapping_add(3));
        assert_scalar_simd_parity(&psi, &format!("mat4 n={n} qa={qa} qb={qb} kind={kind}"), &|amps| {
            apply_mat4(amps, qa, qb, &m);
        });
    }

    /// Fused diagonal sweeps: mixed one- and two-qubit factors through
    /// the single-pass table kernels.
    #[test]
    fn diag_sweep_scalar_vs_simd_bitwise(n in 9usize..14, nf in 1usize..5, seed in 0u64..1000) {
        let factors: Vec<DiagFactor> = (0..nf)
            .map(|f| {
                let phase = 0.3 + 0.17 * f as f64 + seed as f64 * 1e-3;
                let qa = (seed as usize + 3 * f) % n;
                if f % 2 == 0 {
                    let d = nwq_common::mat::mat_rz(phase);
                    DiagFactor::One { q: qa, d: [d.0[0][0], d.0[1][1]] }
                } else {
                    let qb = (qa + 1 + f) % n;
                    let (hi, lo) = (qa.max(qb), qa.min(qb));
                    let d = nwq_common::mat::mat_rzz(phase);
                    DiagFactor::Two { hi, lo, d: [d.0[0][0], d.0[1][1], d.0[2][2], d.0[3][3]] }
                }
            })
            .collect();
        let psi = rand_state(n, seed.wrapping_add(11));
        assert_scalar_simd_parity(&psi, &format!("diag n={n} nf={nf}"), &|amps| {
            apply_diag_sweep(amps, &factors);
        });
    }

    /// The blocked expectation sweep (group-phase sign fills + flip
    /// weights) must produce the same energy bits scalar and SIMD.
    #[test]
    fn expval_scalar_vs_simd_bitwise(n in 8usize..12, seed in 0u64..1000) {
        let mut terms = Vec::new();
        for j in 0..n {
            let mut z = vec![b'I'; n];
            z[j] = b'Z';
            terms.push((
                C64::real(0.4 + 0.01 * j as f64),
                nwq_pauli::PauliString::parse(std::str::from_utf8(&z).unwrap()).unwrap(),
            ));
            let mut xx = vec![b'I'; n];
            xx[j] = b'X';
            xx[(j + 1) % n] = if j % 2 == 0 { b'X' } else { b'Y' };
            terms.push((
                C64::real(0.1 + 0.02 * j as f64),
                nwq_pauli::PauliString::parse(std::str::from_utf8(&xx).unwrap()).unwrap(),
            ));
        }
        let op = nwq_pauli::PauliOp::from_terms(n, terms);
        let amps = rand_state(n, seed.wrapping_add(23));
        let state = nwq_statevec::StateVector::from_amplitudes(amps).unwrap();
        let _g = lock();
        set_force_scalar(true);
        let scalar = nwq_statevec::expval::energy_direct_batched(&state, &op).unwrap();
        set_force_scalar(false);
        let simd = nwq_statevec::expval::energy_direct_batched(&state, &op).unwrap();
        prop_assert_eq!(scalar.to_bits(), simd.to_bits());
    }
}
