//! Operator pools for ADAPT-VQE (paper §5.3).
//!
//! ADAPT-VQE grows its ansatz one operator at a time, picking the pool
//! element with the largest energy gradient `|⟨ψ|[H, A_k]|ψ⟩|`. Two pools
//! are provided: the fermionic singles+doubles pool (Grimsley et al.) and
//! a hardware-friendly qubit pool of individual Pauli strings drawn from
//! the fermionic generators (qubit-ADAPT).

use crate::uccsd::{uccsd_excitations, Excitation};
use nwq_common::{Result, C64};
use nwq_pauli::{PauliOp, PauliString};

/// A candidate ansatz-growth operator.
#[derive(Clone, Debug)]
pub struct PoolOperator {
    /// Human-readable provenance (e.g. `"0,1->2,3"`).
    pub name: String,
    /// Anti-Hermitian generator `A` (appended to the ansatz as `e^{θA}`).
    pub generator: PauliOp,
}

/// An ADAPT operator pool.
#[derive(Clone, Debug)]
pub struct OperatorPool {
    /// The candidate operators.
    pub ops: Vec<PoolOperator>,
}

impl OperatorPool {
    /// The fermionic singles+doubles pool on `n_spin_orbitals` qubits with
    /// the lowest `n_electrons` occupied.
    pub fn singles_doubles(n_spin_orbitals: usize, n_electrons: usize) -> Result<Self> {
        let excs = uccsd_excitations(n_spin_orbitals, n_electrons);
        let mut ops = Vec::with_capacity(excs.len());
        for exc in &excs {
            let generator = exc.generator(n_spin_orbitals)?;
            if !generator.is_zero() {
                ops.push(PoolOperator {
                    name: exc.name(),
                    generator,
                });
            }
        }
        Ok(OperatorPool { ops })
    }

    /// The qubit pool: every distinct Pauli string appearing in the
    /// fermionic pool, individually (as `i·P`, anti-Hermitian).
    pub fn qubit_pool(n_spin_orbitals: usize, n_electrons: usize) -> Result<Self> {
        let fermionic = Self::singles_doubles(n_spin_orbitals, n_electrons)?;
        let mut seen: std::collections::BTreeSet<PauliString> = Default::default();
        let mut ops = Vec::new();
        for op in &fermionic.ops {
            for (_, s) in op.generator.terms() {
                if seen.insert(*s) {
                    ops.push(PoolOperator {
                        name: format!("i{}", s.label()),
                        generator: PauliOp::single(C64::imag(1.0), *s),
                    });
                }
            }
        }
        Ok(OperatorPool { ops })
    }

    /// Pool size.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` when the pool has no operators.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The ADAPT gradient of pool element `k` in state `psi`:
    /// `dE/dθ_k |_{θ_k=0} = ⟨ψ|[H, A_k]|ψ⟩` (real for Hermitian H and
    /// anti-Hermitian A).
    pub fn gradient(&self, k: usize, hamiltonian: &PauliOp, psi: &[C64]) -> Result<f64> {
        let comm = hamiltonian.commutator(&self.ops[k].generator)?;
        Ok(nwq_pauli::apply::expectation_op(&comm, psi)?.re)
    }

    /// Gradients of all pool elements (the ADAPT screening step).
    pub fn gradients(&self, hamiltonian: &PauliOp, psi: &[C64]) -> Result<Vec<f64>> {
        (0..self.ops.len())
            .map(|k| self.gradient(k, hamiltonian, psi))
            .collect()
    }

    /// Gradients of all pool elements via a shared `φ = H|ψ⟩`.
    ///
    /// For Hermitian `H` and anti-Hermitian `A` (so `A† = −A`),
    /// `⟨ψ|[H, A]|ψ⟩ = ⟨φ|Aψ⟩ + ⟨Aψ|φ⟩ = 2·Re⟨φ|A_k ψ⟩`, which lets the
    /// screening apply `H` **once** for the whole pool instead of forming
    /// one symbolic commutator per operator (the commutator of an
    /// `m`-term Hamiltonian with a `t`-term generator has up to `2·m·t`
    /// terms — the dominant screening cost for large pools). Results
    /// match [`OperatorPool::gradients`] to floating-point accuracy.
    pub fn gradients_via_phi(&self, hamiltonian: &PauliOp, psi: &[C64]) -> Result<Vec<f64>> {
        let phi = nwq_pauli::apply::apply_op(hamiltonian, psi)?;
        self.ops
            .iter()
            .map(|op| {
                let a_psi = nwq_pauli::apply::apply_op(&op.generator, psi)?;
                let inner: C64 = phi.iter().zip(&a_psi).map(|(f, a)| f.conj() * *a).sum();
                Ok(2.0 * inner.re)
            })
            .collect()
    }
}

/// Convenience: the single excitation used in tests/examples.
pub fn single_excitation_generator(n_qubits: usize, from: usize, to: usize) -> Result<PauliOp> {
    Excitation {
        from: vec![from],
        to: vec![to],
    }
    .generator(n_qubits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::molecules::h2_sto3g;

    #[test]
    fn h2_pool_size() {
        let pool = OperatorPool::singles_doubles(4, 2).unwrap();
        assert_eq!(pool.len(), 3);
        assert!(!pool.is_empty());
    }

    #[test]
    fn all_generators_anti_hermitian() {
        for pool in [
            OperatorPool::singles_doubles(6, 2).unwrap(),
            OperatorPool::qubit_pool(6, 2).unwrap(),
        ] {
            for op in &pool.ops {
                assert!(op.generator.is_anti_hermitian(1e-12), "{}", op.name);
            }
        }
    }

    #[test]
    fn qubit_pool_has_singleton_generators() {
        let pool = OperatorPool::qubit_pool(4, 2).unwrap();
        assert!(!pool.is_empty());
        for op in &pool.ops {
            assert_eq!(op.generator.num_terms(), 1, "{}", op.name);
        }
        // Qubit pool is at least as large as the fermionic pool.
        let fermionic = OperatorPool::singles_doubles(4, 2).unwrap();
        assert!(pool.len() >= fermionic.len());
    }

    #[test]
    fn gradient_at_hf_identifies_double_excitation_for_h2() {
        // At the HF state of H2, single-excitation gradients vanish
        // (Brillouin's theorem); the double has a non-zero gradient.
        let m = h2_sto3g();
        let h = m.to_qubit_hamiltonian().unwrap();
        let pool = OperatorPool::singles_doubles(4, 2).unwrap();
        let mut psi = vec![nwq_common::C_ZERO; 16];
        psi[m.hf_determinant() as usize] = nwq_common::C_ONE;
        let grads = pool.gradients(&h, &psi).unwrap();
        assert!(grads[0].abs() < 1e-8, "single grad {}", grads[0]);
        assert!(grads[1].abs() < 1e-8, "single grad {}", grads[1]);
        assert!(grads[2].abs() > 1e-3, "double grad {}", grads[2]);
    }

    #[test]
    fn phi_screening_matches_commutator_gradients() {
        // The shared-φ fast path must agree with the legacy per-operator
        // commutator expectation on both pools, at HF and at a state with
        // broad support (where every term contributes).
        let m = h2_sto3g();
        let h = m.to_qubit_hamiltonian().unwrap();
        let mut hf = vec![nwq_common::C_ZERO; 16];
        hf[m.hf_determinant() as usize] = nwq_common::C_ONE;
        let mut spread: Vec<C64> = (0..16)
            .map(|i| C64::new(1.0 + (i as f64) * 0.3, 0.7 - (i as f64) * 0.11))
            .collect();
        let norm = spread.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
        for a in &mut spread {
            *a *= C64::real(1.0 / norm);
        }
        for pool in [
            OperatorPool::singles_doubles(4, 2).unwrap(),
            OperatorPool::qubit_pool(4, 2).unwrap(),
        ] {
            for psi in [&hf, &spread] {
                let slow = pool.gradients(&h, psi).unwrap();
                let fast = pool.gradients_via_phi(&h, psi).unwrap();
                assert_eq!(slow.len(), fast.len());
                for (s, f) in slow.iter().zip(&fast) {
                    assert!((s - f).abs() < 1e-12, "{s} vs {f}");
                }
            }
        }
    }

    #[test]
    fn grouped_apply_matches_per_term_on_hamiltonian_and_generators() {
        // `apply_op` makes one pass per flip group (phase tables for the
        // real, even-Y groups of a JW Hamiltonian; streamed phases for an
        // anti-Hermitian generator); the per-term sum is the reference.
        let h = crate::molecules::water_model(4, 4)
            .to_qubit_hamiltonian()
            .unwrap();
        let n = h.n_qubits();
        let psi: Vec<C64> = (0..1usize << n)
            .map(|i| C64::new((i as f64 * 0.37).sin(), (i as f64 * 0.61 + 0.2).cos()))
            .collect();
        let pool = OperatorPool::singles_doubles(n, 4).unwrap();
        let h_groups = h.prepared().groups().len();
        assert!(h_groups < h.num_terms());
        assert_eq!(h.prepared().num_tables(), h_groups);
        for op in std::iter::once(&h).chain(pool.ops.iter().map(|o| &o.generator)) {
            let grouped = nwq_pauli::apply::apply_op(op, &psi).unwrap();
            let mut per_term = vec![nwq_common::C_ZERO; psi.len()];
            for &(c, s) in op.terms() {
                nwq_pauli::apply::accumulate_string(&s, c, &psi, &mut per_term).unwrap();
            }
            for (g, r) in grouped.iter().zip(&per_term) {
                assert!(g.approx_eq(*r, 1e-12), "{g:?} vs {r:?}");
            }
        }
    }

    #[test]
    fn gradients_are_real_valued_and_finite() {
        let m = h2_sto3g();
        let h = m.to_qubit_hamiltonian().unwrap();
        let pool = OperatorPool::qubit_pool(4, 2).unwrap();
        let mut psi = vec![nwq_common::C_ZERO; 16];
        psi[0b0011] = nwq_common::C_ONE;
        for g in pool.gradients(&h, &psi).unwrap() {
            assert!(g.is_finite());
        }
    }
}
