//! Action of Pauli strings and sums on raw amplitude slices.
//!
//! These routines implement the paper's *direct expectation value* method
//! (§4.2): with full access to the amplitudes, `⟨ψ|P|ψ⟩` is an exact
//! reduction rather than a sampled estimate. Because a Pauli string maps
//! each basis state to exactly one other basis state, the "double sum" of
//! Eq. 8 collapses to a single embarrassingly parallel sum that Rayon
//! spreads across cores — the CPU analog of NWQ-Sim's GPU batching.

use crate::op::PauliOp;
use crate::string::PauliString;
use nwq_common::{bits::masked_parity, Error, Result, C64, C_ZERO, PAR_MIN_AMPS};
use rayon::prelude::*;

fn check_dim(n_qubits: usize, len: usize) -> Result<()> {
    if len != 1usize << n_qubits {
        return Err(Error::DimensionMismatch {
            expected: 1usize << n_qubits,
            got: len,
        });
    }
    Ok(())
}

/// Computes `out[y] = c · f(y⊕m) · in[y⊕m]` for the string `c·P`, i.e.
/// `|out⟩ = c·P|in⟩` (gather form, no write conflicts).
pub fn apply_string(string: &PauliString, coeff: C64, input: &[C64]) -> Result<Vec<C64>> {
    check_dim(string.n_qubits(), input.len())?;
    let m = string.x_mask();
    let z = string.z_mask();
    let y_phase = crate::pauli::Phase::from_power(string.y_count()).to_c64() * coeff;
    let body = |y: usize| {
        let src = y ^ m as usize;
        let sign = if masked_parity(src as u64, z) {
            -1.0
        } else {
            1.0
        };
        y_phase * sign * input[src]
    };
    let out = if input.len() >= PAR_MIN_AMPS {
        (0..input.len()).into_par_iter().map(body).collect()
    } else {
        (0..input.len()).map(body).collect()
    };
    Ok(out)
}

/// Accumulates `out += c·P|in⟩` in place.
pub fn accumulate_string(
    string: &PauliString,
    coeff: C64,
    input: &[C64],
    out: &mut [C64],
) -> Result<()> {
    check_dim(string.n_qubits(), input.len())?;
    check_dim(string.n_qubits(), out.len())?;
    let m = string.x_mask() as usize;
    let z = string.z_mask();
    let y_phase = crate::pauli::Phase::from_power(string.y_count()).to_c64() * coeff;
    let body = |(y, o): (usize, &mut C64)| {
        let src = y ^ m;
        let sign = if masked_parity(src as u64, z) {
            -1.0
        } else {
            1.0
        };
        *o += y_phase * sign * input[src];
    };
    if out.len() >= PAR_MIN_AMPS {
        out.par_iter_mut()
            .enumerate()
            .for_each(|(y, o)| body((y, o)));
    } else {
        out.iter_mut().enumerate().for_each(|(y, o)| body((y, o)));
    }
    Ok(())
}

/// Computes `|out⟩ = H|in⟩` for a full Pauli sum. Used by Lanczos / exact
/// diagonalization and by QPE's Trotter steps.
pub fn apply_op(op: &PauliOp, input: &[C64]) -> Result<Vec<C64>> {
    check_dim(op.n_qubits(), input.len())?;
    let mut out = vec![C_ZERO; input.len()];
    for &(c, s) in op.terms() {
        accumulate_string(&s, c, input, &mut out)?;
    }
    Ok(out)
}

/// Exact expectation `⟨ψ|P|ψ⟩` of a single string (paper §4.2, Eq. 8
/// collapsed to a single parallel reduction).
pub fn expectation_string(string: &PauliString, psi: &[C64]) -> Result<C64> {
    check_dim(string.n_qubits(), psi.len())?;
    let m = string.x_mask() as usize;
    let z = string.z_mask();
    let y_phase = crate::pauli::Phase::from_power(string.y_count()).to_c64();
    let body = |x: usize| {
        let sign = if masked_parity(x as u64, z) {
            -1.0
        } else {
            1.0
        };
        psi[x ^ m].conj() * psi[x] * sign
    };
    let raw: C64 = if psi.len() >= PAR_MIN_AMPS {
        (0..psi.len())
            .into_par_iter()
            .map(body)
            .reduce(|| C_ZERO, |a, b| a + b)
    } else {
        (0..psi.len()).map(body).sum()
    };
    Ok(raw * y_phase)
}

/// Exact expectation `⟨ψ|H|ψ⟩` of a Pauli sum. Terms are independent, so
/// the outer loop parallelizes over terms for many-term observables while
/// each inner reduction stays serial (better cache behaviour than nesting).
pub fn expectation_op(op: &PauliOp, psi: &[C64]) -> Result<C64> {
    check_dim(op.n_qubits(), psi.len())?;
    let many_terms = op.num_terms() >= 8 && psi.len() < (1 << 20);
    let term_exp = |(c, s): &(C64, PauliString)| -> C64 {
        let m = s.x_mask() as usize;
        let z = s.z_mask();
        let y_phase = crate::pauli::Phase::from_power(s.y_count()).to_c64();
        let raw: C64 = if !many_terms && psi.len() >= PAR_MIN_AMPS {
            (0..psi.len())
                .into_par_iter()
                .map(|x| {
                    let sign = if masked_parity(x as u64, z) {
                        -1.0
                    } else {
                        1.0
                    };
                    psi[x ^ m].conj() * psi[x] * sign
                })
                .reduce(|| C_ZERO, |a, b| a + b)
        } else {
            (0..psi.len())
                .map(|x| {
                    let sign = if masked_parity(x as u64, z) {
                        -1.0
                    } else {
                        1.0
                    };
                    psi[x ^ m].conj() * psi[x] * sign
                })
                .sum()
        };
        raw * y_phase * *c
    };
    let total = if many_terms {
        op.terms()
            .par_iter()
            .map(term_exp)
            .reduce(|| C_ZERO, |a, b| a + b)
    } else {
        op.terms().iter().map(term_exp).sum()
    };
    Ok(total)
}

/// Real part of `⟨ψ|H|ψ⟩` — the energy for Hermitian observables.
pub fn energy(op: &PauliOp, psi: &[C64]) -> Result<f64> {
    Ok(expectation_op(op, psi)?.re)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::op_to_dense;
    use nwq_common::{C_I, C_ONE};

    fn basis(n: usize, idx: usize) -> Vec<C64> {
        let mut v = vec![C_ZERO; 1 << n];
        v[idx] = C_ONE;
        v
    }

    fn plus_state(n: usize) -> Vec<C64> {
        let dim = 1usize << n;
        let a = C64::real(1.0 / (dim as f64).sqrt());
        vec![a; dim]
    }

    #[test]
    fn x_flips_basis_state() {
        let s = PauliString::parse("IX").unwrap();
        let out = apply_string(&s, C_ONE, &basis(2, 0)).unwrap();
        assert!(out[1].approx_eq(C_ONE, 1e-12));
        assert!(out[0].approx_eq(C_ZERO, 1e-12));
    }

    #[test]
    fn y_on_basis_states() {
        let s = PauliString::parse("Y").unwrap();
        let out = apply_string(&s, C_ONE, &basis(1, 0)).unwrap();
        assert!(out[1].approx_eq(C_I, 1e-12));
        let out = apply_string(&s, C_ONE, &basis(1, 1)).unwrap();
        assert!(out[0].approx_eq(-C_I, 1e-12));
    }

    #[test]
    fn z_phases_basis_state() {
        let s = PauliString::parse("ZI").unwrap();
        let out = apply_string(&s, C_ONE, &basis(2, 2)).unwrap();
        assert!(out[2].approx_eq(-C_ONE, 1e-12));
    }

    #[test]
    fn apply_matches_dense_matrix() {
        // Random-ish state, compare string action against dense matvec.
        let n = 3;
        let dim = 1 << n;
        let psi: Vec<C64> = (0..dim)
            .map(|i| C64::new((i as f64 * 0.37).sin(), (i as f64 * 0.61).cos()))
            .collect();
        for lbl in ["XYZ", "ZIX", "YYI", "III", "ZZZ"] {
            let s = PauliString::parse(lbl).unwrap();
            let fast = apply_string(&s, C_ONE, &psi).unwrap();
            let op = PauliOp::single(C_ONE, s);
            let mat = op_to_dense(&op);
            for r in 0..dim {
                let mut acc = C_ZERO;
                for c in 0..dim {
                    acc += mat[r * dim + c] * psi[c];
                }
                assert!(acc.approx_eq(fast[r], 1e-10), "{lbl} row {r}");
            }
        }
    }

    #[test]
    fn accumulate_adds() {
        let s = PauliString::parse("X").unwrap();
        let input = basis(1, 0);
        let mut out = basis(1, 1);
        accumulate_string(&s, C64::real(2.0), &input, &mut out).unwrap();
        assert!(out[1].approx_eq(C64::real(3.0), 1e-12));
    }

    #[test]
    fn apply_op_linear_combination() {
        // (ZZ + XX)|00⟩ = |00⟩ + |11⟩.
        let h = PauliOp::parse("1.0 ZZ + 1.0 XX").unwrap();
        let out = apply_op(&h, &basis(2, 0)).unwrap();
        assert!(out[0].approx_eq(C_ONE, 1e-12));
        assert!(out[3].approx_eq(C_ONE, 1e-12));
        assert!(out[1].approx_eq(C_ZERO, 1e-12));
    }

    #[test]
    fn expectation_zz_on_basis_states() {
        let s = PauliString::parse("ZZ").unwrap();
        assert!((expectation_string(&s, &basis(2, 0)).unwrap().re - 1.0).abs() < 1e-12);
        assert!((expectation_string(&s, &basis(2, 1)).unwrap().re + 1.0).abs() < 1e-12);
        assert!((expectation_string(&s, &basis(2, 3)).unwrap().re - 1.0).abs() < 1e-12);
    }

    #[test]
    fn expectation_xx_on_plus_state() {
        let s = PauliString::parse("XX").unwrap();
        let e = expectation_string(&s, &plus_state(2)).unwrap();
        assert!((e.re - 1.0).abs() < 1e-12);
        assert!(e.im.abs() < 1e-12);
    }

    #[test]
    fn toy_hamiltonian_energy_on_bell_state() {
        // |Φ+⟩ = (|00⟩+|11⟩)/√2 has ⟨ZZ⟩ = 1, ⟨XX⟩ = 1 → E = 2 for Eq. 4.
        let h = PauliOp::parse("1.0 ZZ + 1.0 XX").unwrap();
        let r = C64::real(std::f64::consts::FRAC_1_SQRT_2);
        let bell = vec![r, C_ZERO, C_ZERO, r];
        assert!((energy(&h, &bell).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn expectation_of_hermitian_is_real() {
        let h = PauliOp::parse("0.5 XY + 0.5 YX + 1.0 ZI").unwrap();
        let psi: Vec<C64> = (0..4)
            .map(|i| C64::new((i as f64).sin() + 0.3, (i as f64 * 2.0).cos()))
            .collect();
        let norm: f64 = psi.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
        let psi: Vec<C64> = psi.into_iter().map(|a| a * (1.0 / norm)).collect();
        let e = expectation_op(&h, &psi).unwrap();
        assert!(
            e.im.abs() < 1e-10,
            "Hermitian expectation must be real, got {e}"
        );
    }

    #[test]
    fn expectation_linear_in_op() {
        let a = PauliOp::parse("1.0 ZI").unwrap();
        let b = PauliOp::parse("1.0 IX").unwrap();
        let sum = &a + &b;
        let psi = plus_state(2);
        let ea = expectation_op(&a, &psi).unwrap();
        let eb = expectation_op(&b, &psi).unwrap();
        let es = expectation_op(&sum, &psi).unwrap();
        assert!((ea + eb).approx_eq(es, 1e-12));
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let s = PauliString::parse("XX").unwrap();
        assert!(apply_string(&s, C_ONE, &basis(1, 0)).is_err());
        let h = PauliOp::parse("1.0 ZZ").unwrap();
        assert!(expectation_op(&h, &basis(3, 0)).is_err());
    }

    #[test]
    fn large_state_parallel_path() {
        // Exercise the Rayon path (dim at the floor) and check ⟨Z...Z⟩ on |0...0⟩.
        let n = PAR_MIN_AMPS.trailing_zeros() as usize;
        let s = PauliString::parse(&"Z".repeat(n)).unwrap();
        let psi = basis(n, 0);
        let e = expectation_string(&s, &psi).unwrap();
        assert!((e.re - 1.0).abs() < 1e-12);
        let out = apply_string(&s, C_ONE, &psi).unwrap();
        assert!(out[0].approx_eq(C_ONE, 1e-12));
    }
}
