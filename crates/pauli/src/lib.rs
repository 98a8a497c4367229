//! # nwq-pauli
//!
//! Pauli-operator algebra for the NWQ-Sim-rs workspace:
//!
//! - [`pauli::Pauli`] / [`pauli::Phase`] — single-qubit Paulis and the
//!   quarter-phase group;
//! - [`string::PauliString`] — symplectic (bitmask) Pauli strings with O(1)
//!   products and commutation checks (≤ 64 qubits);
//! - [`op::PauliOp`] — sparse weighted sums: the observable/Hamiltonian
//!   type, with sums, products, and commutators (used by coupled-cluster
//!   downfolding's commutator expansion, paper Eq. 2);
//! - [`apply`] — Rayon-parallel action of strings/sums on amplitude slices
//!   and the *direct expectation value* method of paper §4.2;
//! - [`grouping`] — qubit-wise-commuting measurement grouping, which turns
//!   the post-ansatz state cache of §4.1 into per-group basis changes;
//! - [`matrix`] — dense realizations for small-register reference tests;
//! - [`prepared`] — the θ-independent part of the §4.2 readout (flip-mask
//!   grouping and per-group phase tables), built once per operator.

#![warn(missing_docs)]

pub mod apply;
pub mod grouping;
pub mod matrix;
pub mod op;
pub mod pauli;
pub mod prepared;
pub mod string;
pub mod taper;

pub use op::PauliOp;
pub use pauli::{Pauli, Phase};
pub use prepared::{FlipGroup, PreparedObservable};
pub use string::PauliString;

#[cfg(test)]
mod proptests {
    use crate::apply::{apply_string, expectation_string};
    use crate::matrix::{dense_matvec, string_to_dense};
    use crate::string::PauliString;
    use nwq_common::{C64, C_ONE};
    use proptest::prelude::*;

    prop_compose! {
        fn arb_string(n: usize)(x in 0u64..(1 << n), z in 0u64..(1 << n)) -> PauliString {
            PauliString::from_masks(n, x, z).unwrap()
        }
    }

    fn arb_state(n: usize) -> impl Strategy<Value = Vec<C64>> {
        proptest::collection::vec((-1.0..1.0f64, -1.0..1.0f64), 1 << n).prop_map(|v| {
            let mut psi: Vec<C64> = v.into_iter().map(|(r, i)| C64::new(r, i)).collect();
            let norm: f64 = psi.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
            if norm > 1e-9 {
                for a in psi.iter_mut() {
                    *a = *a * (1.0 / norm);
                }
            } else {
                psi[0] = C_ONE;
            }
            psi
        })
    }

    proptest! {
        #[test]
        fn string_product_consistent_with_commutation(
            a in arb_string(5), b in arb_string(5)
        ) {
            let (ph_ab, s_ab) = a.mul(&b);
            let (ph_ba, s_ba) = b.mul(&a);
            prop_assert_eq!(s_ab, s_ba);
            if a.commutes_with(&b) {
                prop_assert_eq!(ph_ab, ph_ba);
            } else {
                // Anticommuting: phases differ by −1.
                prop_assert_eq!(ph_ab.mul(ph_ba.inverse()).power(), 2);
            }
        }

        #[test]
        fn string_square_is_identity(a in arb_string(6)) {
            let (ph, s) = a.mul(&a);
            prop_assert!(s.is_identity());
            prop_assert_eq!(ph.power(), 0);
        }

        #[test]
        fn product_weight_bounded_by_support_union(a in arb_string(6), b in arb_string(6)) {
            let (_, s) = a.mul(&b);
            prop_assert_eq!(s.support() & !(a.support() | b.support()), 0);
        }

        #[test]
        fn apply_preserves_norm(s in arb_string(4), psi in arb_state(4)) {
            // Pauli strings are unitary, so norms are preserved.
            let out = apply_string(&s, C_ONE, &psi).unwrap();
            let n_in: f64 = psi.iter().map(|a| a.norm_sqr()).sum();
            let n_out: f64 = out.iter().map(|a| a.norm_sqr()).sum();
            prop_assert!((n_in - n_out).abs() < 1e-9);
        }

        #[test]
        fn apply_matches_dense(s in arb_string(4), psi in arb_state(4)) {
            let fast = apply_string(&s, C_ONE, &psi).unwrap();
            let slow = dense_matvec(&string_to_dense(&s), &psi);
            for (f, g) in fast.iter().zip(&slow) {
                prop_assert!(f.approx_eq(*g, 1e-9));
            }
        }

        #[test]
        fn expectation_is_real_and_bounded(s in arb_string(4), psi in arb_state(4)) {
            // Pauli strings are Hermitian with eigenvalues ±1.
            let e = expectation_string(&s, &psi).unwrap();
            prop_assert!(e.im.abs() < 1e-9);
            prop_assert!(e.re.abs() <= 1.0 + 1e-9);
        }

        #[test]
        fn expectation_equals_overlap_with_applied(s in arb_string(4), psi in arb_state(4)) {
            let e = expectation_string(&s, &psi).unwrap();
            let p_psi = apply_string(&s, C_ONE, &psi).unwrap();
            let overlap: C64 = psi.iter().zip(&p_psi).map(|(a, b)| a.conj() * *b).sum();
            prop_assert!(e.approx_eq(overlap, 1e-9));
        }

        #[test]
        fn qubit_wise_commuting_implies_commuting(a in arb_string(6), b in arb_string(6)) {
            if a.qubit_wise_commutes(&b) {
                prop_assert!(a.commutes_with(&b));
            }
        }

        #[test]
        fn taper_generators_commute_and_sectors_cover_spectrum(
            coeffs in proptest::collection::vec(-1.0..1.0f64, 4)
        ) {
            // Random 3-qubit operator with a guaranteed ZZ-pair symmetry:
            // terms act on qubits (0,1) only through {XX, YY, ZZ} plus a
            // free field on qubit 2.
            let h = crate::op::PauliOp::from_terms(3, vec![
                (nwq_common::C64::real(coeffs[0]), PauliString::parse("IXX").unwrap()),
                (nwq_common::C64::real(coeffs[1]), PauliString::parse("IYY").unwrap()),
                (nwq_common::C64::real(coeffs[2]), PauliString::parse("IZZ").unwrap()),
                (nwq_common::C64::real(coeffs[3]), PauliString::parse("XII").unwrap()),
            ]);
            if h.is_zero() {
                return Ok(());
            }
            let gens = crate::taper::find_z2_symmetries(&h);
            for g in &gens {
                for (_, s) in h.terms() {
                    prop_assert!(g.commutes_with(s));
                }
            }
            // Ground energy over both sectors equals the full ground energy.
            let (e_full, _) = crate::matrix::dense_ground_state(&h, 6000);
            let mut best = f64::INFINITY;
            for reference in 0u64..8 {
                if let Ok(r) = crate::taper::taper(&h, reference) {
                    if r.tapered.n_qubits() > 0 && !r.tapered.is_zero() {
                        let (e, _) = crate::matrix::dense_ground_state(&r.tapered, 6000);
                        best = best.min(e);
                    } else if r.tapered.n_qubits() == 0 || r.tapered.is_zero() {
                        best = best.min(r.tapered.identity_coeff().re);
                    }
                }
            }
            // Power iteration converges slowly for small spectral gaps;
            // 1e-4 absolute is ample to catch a broken taper.
            prop_assert!((best - e_full).abs() < 1e-4, "best {} vs full {}", best, e_full);
        }
    }
}
