//! Exact ground-state energies by Lanczos iteration.
//!
//! Reference energies for the ADAPT-VQE convergence study (Fig 5's ΔE
//! axis) need the true ground state of 12-qubit Hamiltonians — too big for
//! dense diagonalization but easy for Lanczos with matrix-free
//! `H|v⟩` products ([`nwq_pauli::apply::apply_op`]).

use nwq_common::{Error, Result, C64};
use nwq_pauli::PauliOp;

/// Configuration for the Lanczos solver.
#[derive(Clone, Copy, Debug)]
pub struct LanczosConfig {
    /// Maximum Krylov dimension.
    pub max_dim: usize,
    /// Convergence threshold on the ground-eigenvalue change per step.
    pub tol: f64,
    /// Seed for the deterministic pseudo-random start vector.
    pub seed: u64,
}

impl Default for LanczosConfig {
    fn default() -> Self {
        LanczosConfig {
            max_dim: 160,
            tol: 1e-11,
            seed: 11,
        }
    }
}

fn dot(a: &[C64], b: &[C64]) -> C64 {
    a.iter().zip(b).map(|(x, y)| x.conj() * *y).sum()
}

fn norm(a: &[C64]) -> f64 {
    a.iter().map(|x| x.norm_sqr()).sum::<f64>().sqrt()
}

fn axpy(y: &mut [C64], alpha: C64, x: &[C64]) {
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * *xi;
    }
}

/// Smallest eigenvalue of a symmetric tridiagonal matrix (diagonal `a`,
/// off-diagonal `b`) via Sturm-sequence bisection.
fn tridiag_smallest_eig(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len();
    debug_assert_eq!(b.len() + 1, n.max(1));
    if n == 1 {
        return a[0];
    }
    // Gershgorin bounds.
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for i in 0..n {
        let r = if i == 0 {
            b[0].abs()
        } else if i == n - 1 {
            b[n - 2].abs()
        } else {
            b[i - 1].abs() + b[i].abs()
        };
        lo = lo.min(a[i] - r);
        hi = hi.max(a[i] + r);
    }
    // Count of eigenvalues < x by the Sturm sequence.
    let count_below = |x: f64| -> usize {
        let mut count = 0;
        let mut d = a[0] - x;
        if d < 0.0 {
            count += 1;
        }
        for i in 1..n {
            let denom = if d.abs() < 1e-300 {
                1e-300_f64.copysign(d)
            } else {
                d
            };
            d = a[i] - x - b[i - 1] * b[i - 1] / denom;
            if d < 0.0 {
                count += 1;
            }
        }
        count
    };
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if count_below(mid) >= 1 {
            hi = mid;
        } else {
            lo = mid;
        }
        if hi - lo < 1e-13 * (1.0 + hi.abs()) {
            break;
        }
    }
    0.5 * (lo + hi)
}

/// Computes the ground-state energy of a Hermitian Pauli operator by
/// Lanczos with full reorthogonalization.
pub fn ground_energy(h: &PauliOp, config: LanczosConfig) -> Result<f64> {
    if !h.is_hermitian(1e-9) {
        return Err(Error::Invalid(
            "Lanczos requires a Hermitian operator".into(),
        ));
    }
    if h.is_zero() {
        return Ok(0.0);
    }
    let dim = 1usize << h.n_qubits();
    // Deterministic start vector (splitmix-style hashing).
    let mut state = config.seed.wrapping_add(0x9E3779B97F4A7C15);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
    };
    let mut v: Vec<C64> = (0..dim).map(|_| C64::new(next(), next())).collect();
    let n0 = norm(&v);
    for x in v.iter_mut() {
        *x = *x * (1.0 / n0);
    }

    let mut basis: Vec<Vec<C64>> = vec![v.clone()];
    let mut alphas: Vec<f64> = Vec::new();
    let mut betas: Vec<f64> = Vec::new();
    let mut prev_eig = f64::INFINITY;

    for k in 0..config.max_dim.min(dim) {
        let mut w = nwq_pauli::apply::apply_op(h, &basis[k])?;
        let alpha = dot(&basis[k], &w).re;
        alphas.push(alpha);
        // w -= alpha v_k + beta v_{k-1}; then full reorthogonalization.
        axpy(&mut w, C64::real(-alpha), &basis[k]);
        if k > 0 {
            axpy(&mut w, C64::real(-betas[k - 1]), &basis[k - 1]);
        }
        for prev in &basis {
            let overlap = dot(prev, &w);
            if overlap.norm() > 0.0 {
                axpy(&mut w, -overlap, prev);
            }
        }
        let eig = tridiag_smallest_eig(&alphas, &betas);
        if (prev_eig - eig).abs() < config.tol {
            return Ok(eig);
        }
        prev_eig = eig;
        let beta = norm(&w);
        if beta < 1e-13 {
            // Krylov space exhausted: eigenvalue is exact.
            return Ok(eig);
        }
        betas.push(beta);
        for x in w.iter_mut() {
            *x = *x * (1.0 / beta);
        }
        basis.push(w);
    }
    Ok(prev_eig)
}

/// Convenience wrapper with default configuration.
pub fn ground_energy_default(h: &PauliOp) -> Result<f64> {
    ground_energy(h, LanczosConfig::default())
}

/// A symmetry sector of the Fock space, selected by occupation pattern.
///
/// Electronic Hamiltonians conserve particle number (and, without
/// spin–orbit terms, each spin's particle number separately), while the
/// *global* ground state of the qubit operator may live in a different
/// sector than the molecule's neutral, spin-balanced one. Variational
/// algorithms built from particle-conserving excitations can only reach
/// their own sector, so their reference energy must be sector-restricted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sector {
    /// Fixed total particle number.
    Particles(usize),
    /// Fixed α (even qubits) and β (odd qubits) particle numbers, in the
    /// interleaved spin-orbital convention.
    Spin {
        /// α electrons (even qubit indices).
        n_alpha: usize,
        /// β electrons (odd qubit indices).
        n_beta: usize,
    },
}

impl Sector {
    /// The balanced sector of a closed-shell molecule with `n_electrons`.
    pub fn closed_shell(n_electrons: usize) -> Self {
        Sector::Spin {
            n_alpha: n_electrons / 2,
            n_beta: n_electrons - n_electrons / 2,
        }
    }

    /// Whether basis state `idx` belongs to the sector.
    #[inline]
    pub fn contains(&self, idx: u64) -> bool {
        const ALPHA_MASK: u64 = 0x5555_5555_5555_5555;
        match *self {
            Sector::Particles(n) => idx.count_ones() as usize == n,
            Sector::Spin { n_alpha, n_beta } => {
                (idx & ALPHA_MASK).count_ones() as usize == n_alpha
                    && (idx & !ALPHA_MASK).count_ones() as usize == n_beta
            }
        }
    }
}

/// Ground-state energy restricted to a symmetry sector. The Hamiltonian
/// must commute with the sector (electronic Hamiltonians do); the Krylov
/// space is seeded inside the sector and re-projected each iteration to
/// suppress numerical drift.
pub fn ground_energy_sector(h: &PauliOp, sector: Sector, config: LanczosConfig) -> Result<f64> {
    if !h.is_hermitian(1e-9) {
        return Err(Error::Invalid(
            "Lanczos requires a Hermitian operator".into(),
        ));
    }
    let dim = 1usize << h.n_qubits();
    let mut state = config.seed.wrapping_add(0x9E3779B97F4A7C15);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
    };
    let project = |v: &mut Vec<C64>| {
        for (i, x) in v.iter_mut().enumerate() {
            if !sector.contains(i as u64) {
                *x = C64::default();
            }
        }
    };
    let mut v: Vec<C64> = (0..dim).map(|_| C64::new(next(), next())).collect();
    project(&mut v);
    let n0 = norm(&v);
    if n0 < 1e-12 {
        return Err(Error::Invalid("sector is empty for this register".into()));
    }
    for x in v.iter_mut() {
        *x = *x * (1.0 / n0);
    }

    let mut basis: Vec<Vec<C64>> = vec![v];
    let mut alphas: Vec<f64> = Vec::new();
    let mut betas: Vec<f64> = Vec::new();
    let mut prev_eig = f64::INFINITY;
    for k in 0..config.max_dim.min(dim) {
        let mut w = nwq_pauli::apply::apply_op(h, &basis[k])?;
        project(&mut w);
        let alpha = dot(&basis[k], &w).re;
        alphas.push(alpha);
        axpy(&mut w, C64::real(-alpha), &basis[k]);
        if k > 0 {
            axpy(&mut w, C64::real(-betas[k - 1]), &basis[k - 1]);
        }
        for prev in &basis {
            let overlap = dot(prev, &w);
            if overlap.norm() > 0.0 {
                axpy(&mut w, -overlap, prev);
            }
        }
        let eig = tridiag_smallest_eig(&alphas, &betas);
        if (prev_eig - eig).abs() < config.tol {
            return Ok(eig);
        }
        prev_eig = eig;
        let beta = norm(&w);
        if beta < 1e-13 {
            return Ok(eig);
        }
        betas.push(beta);
        for x in w.iter_mut() {
            *x = *x * (1.0 / beta);
        }
        basis.push(w);
    }
    Ok(prev_eig)
}

/// Sector-restricted ground energy with default configuration.
pub fn ground_energy_sector_default(h: &PauliOp, sector: Sector) -> Result<f64> {
    ground_energy_sector(h, sector, LanczosConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nwq_pauli::matrix::dense_ground_state;

    #[test]
    fn toy_hamiltonian_ground_energy() {
        let h = PauliOp::parse("1.0 ZZ + 1.0 XX").unwrap();
        let e = ground_energy_default(&h).unwrap();
        assert!((e + 2.0).abs() < 1e-9, "{e}");
    }

    #[test]
    fn single_qubit_field() {
        let h = PauliOp::parse("1.0 X").unwrap();
        assert!((ground_energy_default(&h).unwrap() + 1.0).abs() < 1e-10);
        let h = PauliOp::parse("0.5 Z").unwrap();
        assert!((ground_energy_default(&h).unwrap() + 0.5).abs() < 1e-10);
    }

    #[test]
    fn matches_dense_power_iteration() {
        let h = PauliOp::parse("0.7 XY + 0.4 ZI + 0.3 IZ + 0.2 YY + 0.1 XX").unwrap();
        let (e_dense, _) = dense_ground_state(&h, 3000);
        let e_lanczos = ground_energy_default(&h).unwrap();
        assert!(
            (e_dense - e_lanczos).abs() < 1e-6,
            "{e_dense} vs {e_lanczos}"
        );
    }

    #[test]
    fn h2_fci_energy() {
        let m = nwq_chem::molecules::h2_sto3g();
        let h = m.to_qubit_hamiltonian().unwrap();
        let e = ground_energy_default(&h).unwrap();
        assert!((e + 1.1373).abs() < 2e-3, "{e}");
    }

    #[test]
    fn transverse_field_ising_known_energy() {
        // H = −(Z0Z1 + Z1Z2) − g(X0+X1+X2), g = 1: small chain, compare
        // against dense reference.
        let h = PauliOp::parse("-1.0 ZZI - 1.0 IZZ - 1.0 XII - 1.0 IXI - 1.0 IIX").unwrap();
        let (e_dense, _) = dense_ground_state(&h, 3000);
        let e = ground_energy_default(&h).unwrap();
        assert!((e - e_dense).abs() < 1e-7);
    }

    #[test]
    fn rejects_non_hermitian() {
        let h = PauliOp::single(nwq_common::C_I, nwq_pauli::PauliString::parse("X").unwrap());
        assert!(ground_energy_default(&h).is_err());
    }

    #[test]
    fn zero_operator_energy_zero() {
        let h = PauliOp::zero(3);
        assert_eq!(ground_energy_default(&h).unwrap(), 0.0);
    }

    #[test]
    fn degenerate_spectrum_handled() {
        // H = Z⊗I has eigenvalues ±1 each doubly degenerate.
        let h = PauliOp::parse("1.0 ZI").unwrap();
        assert!((ground_energy_default(&h).unwrap() + 1.0).abs() < 1e-10);
    }

    #[test]
    fn sector_restriction_basics() {
        // H = −Σ n_p (JW: n_p = (I−Z_p)/2): global ground fills every
        // orbital (E = −4); the 2-particle sector ground is −2.
        let mut f = nwq_chem::fermion::FermionOp::zero();
        for p in 0..4 {
            f.add_assign(nwq_chem::fermion::FermionOp::one_body(-1.0, p, p));
        }
        let h = nwq_chem::jw::jordan_wigner(&f, 4).unwrap();
        let global = ground_energy_default(&h).unwrap();
        assert!((global + 4.0).abs() < 1e-9);
        let sector = ground_energy_sector_default(&h, Sector::Particles(2)).unwrap();
        assert!((sector + 2.0).abs() < 1e-9);
        // Spin-resolved: one α + one β — orbitals 0 (α) and 1 (β).
        let spin = ground_energy_sector_default(
            &h,
            Sector::Spin {
                n_alpha: 1,
                n_beta: 1,
            },
        )
        .unwrap();
        assert!((spin + 2.0).abs() < 1e-9);
    }

    #[test]
    fn sector_membership_masks() {
        let s = Sector::Spin {
            n_alpha: 2,
            n_beta: 1,
        };
        // Qubits 0, 2 are α; qubit 1 is β.
        assert!(s.contains(0b0111));
        assert!(!s.contains(0b1110));
        assert!(Sector::Particles(3).contains(0b0111));
        assert!(!Sector::Particles(3).contains(0b0011));
        let cs = Sector::closed_shell(4);
        assert_eq!(
            cs,
            Sector::Spin {
                n_alpha: 2,
                n_beta: 2
            }
        );
    }

    #[test]
    fn empty_sector_rejected() {
        let h = PauliOp::parse("1.0 ZZ").unwrap();
        assert!(ground_energy_sector_default(&h, Sector::Particles(5)).is_err());
    }

    #[test]
    fn sector_energy_at_least_global() {
        let m = nwq_chem::molecules::water_model(3, 4);
        let h = m.to_qubit_hamiltonian().unwrap();
        let global = ground_energy_default(&h).unwrap();
        let sector = ground_energy_sector_default(&h, Sector::closed_shell(4)).unwrap();
        assert!(sector >= global - 1e-9, "sector {sector} < global {global}");
    }

    #[test]
    fn twelve_qubit_water_model_runs() {
        // The Fig 5 reference computation: must converge in reasonable time.
        let m = nwq_chem::molecules::water_fig5();
        let h = m.to_qubit_hamiltonian().unwrap();
        let e = ground_energy_default(&h).unwrap();
        // Variational sanity: at or below the HF energy.
        assert!(
            e <= m.hf_total_energy() + 1e-9,
            "E0 {e} vs HF {}",
            m.hf_total_energy()
        );
    }
}
