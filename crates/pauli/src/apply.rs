//! Action of Pauli strings and sums on raw amplitude slices.
//!
//! These routines implement the paper's *direct expectation value* method
//! (§4.2): with full access to the amplitudes, `⟨ψ|P|ψ⟩` is an exact
//! reduction rather than a sampled estimate. Because a Pauli string maps
//! each basis state to exactly one other basis state, the "double sum" of
//! Eq. 8 collapses to a single embarrassingly parallel sum that Rayon
//! spreads across cores — the CPU analog of NWQ-Sim's GPU batching.

use crate::op::PauliOp;
use crate::prepared::{FlipGroup, PhaseTable, PreparedObservable};
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

/// Computes `|out⟩ = H|in⟩` for a full Pauli sum in one amplitude pass
/// per flip group of the operator's prepared observable
/// ([`PauliOp::prepared`], the grouping the §4.2 readout folds over):
///
/// `out[y] = Σ_m f_m(y⊕m)·in[y⊕m]`, `f_m(x) = Σ_{t∈m} c_t·i^{y_t}·(−1)^{|x∧z_t|}`.
///
/// A group with a phase table reads `f_m` off it; any other group streams
/// the phase for a block of indices, then folds it. A molecular
/// Hamiltonian has several terms per group, so this makes `groups`
/// passes instead of `terms` (51 instead of 361 on the 8-qubit water
/// model). Used by the adjoint gradient's `|φ⟩ = H|ψ⟩`, ADAPT pool
/// screening and the Lanczos references.
///
/// Each `out[y]` sums its groups in group order however the register is
/// cut, so from `PAR_MIN_AMPS` amplitudes up the pool fills disjoint
/// output chunks and the result is bitwise the serial one. Against the
/// per-term sum of [`accumulate_string`] only the association differs
/// (≈ 1e-15 relative).
pub fn apply_op(op: &PauliOp, input: &[C64]) -> Result<Vec<C64>> {
    apply_prepared(op.prepared(), input).map(|(out, _)| out)
}

/// [`apply_op`] on an already prepared operator, also returning the
/// number of whole-register amplitude passes it made (one per group).
pub fn apply_prepared(prepared: &PreparedObservable, input: &[C64]) -> Result<(Vec<C64>, usize)> {
    check_dim(prepared.n_qubits(), input.len())?;
    let mut out = vec![C_ZERO; input.len()];
    let passes = fill_grouped(prepared, input, &mut out, input.len() >= PAR_MIN_AMPS);
    Ok((out, passes))
}

/// `out += H·input`, chunk by chunk: every group visits a chunk before
/// the next chunk starts. `parallel` hands the chunks to the pool.
/// Returns the group visits per chunk, i.e. the passes over the register.
fn fill_grouped(
    prepared: &PreparedObservable,
    input: &[C64],
    out: &mut [C64],
    parallel: bool,
) -> usize {
    let fill = |base: usize, chunk: &mut [C64]| {
        let mut visits = 0;
        for (group, table) in prepared.iter() {
            accumulate_group(group, table, input, base, chunk);
            visits += 1;
        }
        visits
    };
    let chunk = out.len().min(APPLY_CHUNK);
    let visits: usize = if parallel {
        out.par_chunks_mut(chunk)
            .enumerate()
            .map(|(k, c)| fill(k * chunk, c))
            .sum()
    } else {
        out.chunks_mut(chunk)
            .enumerate()
            .map(|(k, c)| fill(k * chunk, c))
            .sum()
    };
    visits / (out.len() / chunk)
}

/// Output indices per unit of [`apply_prepared`]'s work: every group
/// visits one chunk while it is in cache, and the pool's parts are whole
/// chunks. A power of two, so chunks stay aligned to the phase-table runs.
const APPLY_CHUNK: usize = 1 << 12;

/// Indices per streamed phase block.
const PHASE_BLOCK: usize = 64;

/// `out[j] += f_m(y⊕m)·in[y⊕m]` for `y = base + j`, one group. `out` is a
/// power-of-two chunk starting at a multiple of its length.
fn accumulate_group(
    group: &FlipGroup,
    table: Option<PhaseTable<'_>>,
    input: &[C64],
    base: usize,
    out: &mut [C64],
) {
    let m = group.mask as usize;
    match table {
        // A tabulated phase is real and symmetric, f(y⊕m) = f(y): read
        // the table over runs that never straddle its pivot bit.
        Some(t) => {
            let run = out.len().min(t.max_run());
            let m_in = m & (run - 1);
            for (k, o) in out.chunks_mut(run).enumerate() {
                let x0 = base + k * run;
                let (f, c) = t.run(x0, run);
                let src = &input[(x0 ^ m) & !(run - 1)..][..run];
                for (j, o) in o.iter_mut().enumerate() {
                    *o += src[j ^ m_in].scale(f[j ^ c]);
                }
            }
        }
        // Streamed: |(y⊕m)∧z| = |y∧z| + |m∧z| mod 2, so with each
        // coefficient pre-signed by (−1)^{|m∧z|} (exact) the block of
        // phases is a sign fill over consecutive y, terms outer.
        None => {
            let mut phase = [C_ZERO; PHASE_BLOCK];
            for (k, o) in out.chunks_mut(PHASE_BLOCK).enumerate() {
                let y0 = base + k * PHASE_BLOCK;
                let ph = &mut phase[..o.len()];
                ph.fill(C_ZERO);
                for &(c, z) in &group.terms {
                    let c = if masked_parity(m as u64, z) { -c } else { c };
                    for (j, f) in ph.iter_mut().enumerate() {
                        let sign = 1.0 - 2.0 * (((y0 + j) as u64 & z).count_ones() & 1) as f64;
                        f.re += c.re * sign;
                        f.im += c.im * sign;
                    }
                }
                for (j, (o, f)) in o.iter_mut().zip(ph.iter()).enumerate() {
                    *o += *f * input[(y0 + j) ^ m];
                }
            }
        }
    }
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

    /// `H|ψ⟩` term by term, the reference the grouped pass is held to.
    fn apply_per_term(op: &PauliOp, psi: &[C64]) -> Vec<C64> {
        let mut out = vec![C_ZERO; psi.len()];
        for &(c, s) in op.terms() {
            accumulate_string(&s, c, psi, &mut out).unwrap();
        }
        out
    }

    fn wavy_state(n: usize) -> Vec<C64> {
        (0..1usize << n)
            .map(|i| C64::new((i as f64 * 0.37).sin(), (i as f64 * 0.61 + 0.2).cos()))
            .collect()
    }

    #[test]
    fn grouped_apply_matches_per_term_on_streamed_and_edge_operators() {
        // Complex coefficients and odd-Y groups have no table: streamed.
        let complex = PauliOp::from_terms(
            3,
            vec![
                (C64::new(0.3, -0.2), PauliString::parse("XYZ").unwrap()),
                (C64::new(-0.1, 0.7), PauliString::parse("XXZ").unwrap()),
                (C64::imag(0.5), PauliString::parse("YIX").unwrap()),
                (C64::new(0.25, 0.0), PauliString::parse("ZZI").unwrap()),
                (C64::real(-0.4), PauliString::parse("IZZ").unwrap()),
            ],
        );
        let identity = PauliOp::parse("1.0 III").unwrap();
        let zero = PauliOp::zero(3);
        let psi = wavy_state(3);
        for op in [&complex, &identity, &zero] {
            let grouped = apply_op(op, &psi).unwrap();
            for (g, r) in grouped.iter().zip(&apply_per_term(op, &psi)) {
                assert!(g.approx_eq(*r, 1e-12), "{g:?} vs {r:?}");
            }
        }
        assert_eq!(complex.prepared().num_tables(), 1);
    }

    #[test]
    fn grouped_apply_is_split_independent_at_the_floor() {
        // Tabled (real, even-Y) and streamed groups; every output sums its
        // groups in group order whichever chunks the pool takes.
        let n = PAR_MIN_AMPS.trailing_zeros() as usize;
        let mut labels = Vec::new();
        for (k, pattern) in ["ZZ", "XX", "YY", "XY", "ZX"].iter().enumerate() {
            let mut l = vec![b'I'; n];
            l[k] = pattern.as_bytes()[0];
            l[n - 1 - k] = pattern.as_bytes()[1];
            labels.push(String::from_utf8(l).unwrap());
        }
        let terms = labels
            .iter()
            .enumerate()
            .map(|(k, l)| {
                let c = if k == 3 {
                    C64::imag(0.3)
                } else {
                    C64::real(0.2 + 0.1 * k as f64)
                };
                (c, PauliString::parse(l).unwrap())
            })
            .collect();
        let op = PauliOp::from_terms(n, terms);
        let psi = wavy_state(n);
        let prepared = op.prepared();
        assert!(prepared.num_tables() > 0 && prepared.num_tables() < prepared.groups().len());
        let mut serial = vec![C_ZERO; psi.len()];
        let serial_passes = fill_grouped(prepared, &psi, &mut serial, false);
        let mut parallel = vec![C_ZERO; psi.len()];
        let parallel_passes = fill_grouped(prepared, &psi, &mut parallel, true);
        let groups = prepared.groups().len();
        assert_eq!((serial_passes, parallel_passes), (groups, groups));
        let bits = |v: &[C64]| {
            v.iter()
                .map(|c| (c.re.to_bits(), c.im.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&serial), bits(&parallel));
        assert_eq!(bits(&apply_op(&op, &psi).unwrap()), bits(&serial));
        for (g, r) in serial.iter().zip(&apply_per_term(&op, &psi)) {
            assert!(g.approx_eq(*r, 1e-12));
        }
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
