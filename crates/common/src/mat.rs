//! Small fixed-size complex matrices used as gate representations.
//!
//! NWQ-Sim restricts gate fusion to at most two qubits (paper §4.3), so the
//! simulator only ever needs 2×2 and 4×4 unitaries. Fixed-size arrays keep
//! these on the stack and let kernels unroll the amplitude updates fully.

use crate::complex::{C64, C_ONE, C_ZERO};
use std::f64::consts::FRAC_1_SQRT_2;
use std::ops::{Index, IndexMut, Mul};

/// A 2×2 complex matrix in row-major order — the representation of every
/// single-qubit gate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Mat2(pub [[C64; 2]; 2]);

/// A 4×4 complex matrix in row-major order — the representation of every
/// two-qubit gate. Basis ordering is `|q_hi q_lo⟩` with the *first* qubit
/// argument of a gate as the most significant bit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Mat4(pub [[C64; 4]; 4]);

impl Mat2 {
    /// The 2×2 identity.
    pub const fn identity() -> Self {
        Mat2([[C_ONE, C_ZERO], [C_ZERO, C_ONE]])
    }

    /// Builds a matrix from rows of `(re, im)` pairs — convenient for tables.
    pub fn from_rows(rows: [[C64; 2]; 2]) -> Self {
        Mat2(rows)
    }

    /// Conjugate transpose.
    pub fn dagger(&self) -> Self {
        let m = &self.0;
        Mat2([
            [m[0][0].conj(), m[1][0].conj()],
            [m[0][1].conj(), m[1][1].conj()],
        ])
    }

    /// Multiplies every entry by a complex scalar.
    pub fn scale(&self, k: C64) -> Self {
        let mut out = *self;
        for r in 0..2 {
            for c in 0..2 {
                out.0[r][c] = self.0[r][c] * k;
            }
        }
        out
    }

    /// `true` when `self · self† ≈ I` within `tol` per entry.
    pub fn is_unitary(&self, tol: f64) -> bool {
        let p = *self * self.dagger();
        p.approx_eq(&Mat2::identity(), tol)
    }

    /// Entry-wise approximate equality.
    pub fn approx_eq(&self, other: &Self, tol: f64) -> bool {
        for r in 0..2 {
            for c in 0..2 {
                if !self.0[r][c].approx_eq(other.0[r][c], tol) {
                    return false;
                }
            }
        }
        true
    }

    /// Equality up to a global phase: finds the first entry of significant
    /// magnitude and compares after phase alignment.
    pub fn approx_eq_up_to_phase(&self, other: &Self, tol: f64) -> bool {
        align_phase_eq(
            self.0.iter().flatten().copied(),
            other.0.iter().flatten().copied(),
            tol,
        )
    }

    /// Kronecker product `self ⊗ rhs` producing a two-qubit matrix with
    /// `self` acting on the more significant qubit.
    pub fn kron(&self, rhs: &Mat2) -> Mat4 {
        let mut out = Mat4::zero();
        for r1 in 0..2 {
            for c1 in 0..2 {
                for r2 in 0..2 {
                    for c2 in 0..2 {
                        out.0[r1 * 2 + r2][c1 * 2 + c2] = self.0[r1][c1] * rhs.0[r2][c2];
                    }
                }
            }
        }
        out
    }

    /// Trace.
    pub fn trace(&self) -> C64 {
        self.0[0][0] + self.0[1][1]
    }

    /// Determinant.
    pub fn det(&self) -> C64 {
        self.0[0][0] * self.0[1][1] - self.0[0][1] * self.0[1][0]
    }
}

impl Mul for Mat2 {
    type Output = Mat2;
    fn mul(self, rhs: Mat2) -> Mat2 {
        let mut out = Mat2([[C_ZERO; 2]; 2]);
        for r in 0..2 {
            for c in 0..2 {
                let mut acc = C_ZERO;
                for k in 0..2 {
                    acc += self.0[r][k] * rhs.0[k][c];
                }
                out.0[r][c] = acc;
            }
        }
        out
    }
}

impl Index<(usize, usize)> for Mat2 {
    type Output = C64;
    fn index(&self, (r, c): (usize, usize)) -> &C64 {
        &self.0[r][c]
    }
}

impl IndexMut<(usize, usize)> for Mat2 {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut C64 {
        &mut self.0[r][c]
    }
}

impl Mat4 {
    /// The 4×4 zero matrix.
    pub const fn zero() -> Self {
        Mat4([[C_ZERO; 4]; 4])
    }

    /// The 4×4 identity.
    pub fn identity() -> Self {
        let mut m = Mat4::zero();
        for i in 0..4 {
            m.0[i][i] = C_ONE;
        }
        m
    }

    /// Conjugate transpose.
    pub fn dagger(&self) -> Self {
        let mut out = Mat4::zero();
        for r in 0..4 {
            for c in 0..4 {
                out.0[r][c] = self.0[c][r].conj();
            }
        }
        out
    }

    /// Entry-wise approximate equality.
    pub fn approx_eq(&self, other: &Self, tol: f64) -> bool {
        for r in 0..4 {
            for c in 0..4 {
                if !self.0[r][c].approx_eq(other.0[r][c], tol) {
                    return false;
                }
            }
        }
        true
    }

    /// Equality up to a global phase.
    pub fn approx_eq_up_to_phase(&self, other: &Self, tol: f64) -> bool {
        align_phase_eq(
            self.0.iter().flatten().copied(),
            other.0.iter().flatten().copied(),
            tol,
        )
    }

    /// `true` when `self · self† ≈ I` within `tol` per entry.
    pub fn is_unitary(&self, tol: f64) -> bool {
        let p = *self * self.dagger();
        p.approx_eq(&Mat4::identity(), tol)
    }

    /// Exchanges the roles of the two qubits: `M'[σ(r)][σ(c)] = M[r][c]`
    /// where σ swaps the two bits of the index. Needed when a fused gate's
    /// stored qubit order differs from the order the kernel expects.
    pub fn swap_qubits(&self) -> Self {
        let sw = |i: usize| ((i & 1) << 1) | (i >> 1);
        let mut out = Mat4::zero();
        for r in 0..4 {
            for c in 0..4 {
                out.0[sw(r)][sw(c)] = self.0[r][c];
            }
        }
        out
    }

    /// Trace.
    pub fn trace(&self) -> C64 {
        (0..4).map(|i| self.0[i][i]).sum()
    }
}

impl Mul for Mat4 {
    type Output = Mat4;
    fn mul(self, rhs: Mat4) -> Mat4 {
        let mut out = Mat4::zero();
        for r in 0..4 {
            for c in 0..4 {
                let mut acc = C_ZERO;
                for k in 0..4 {
                    acc += self.0[r][k] * rhs.0[k][c];
                }
                out.0[r][c] = acc;
            }
        }
        out
    }
}

impl Index<(usize, usize)> for Mat4 {
    type Output = C64;
    fn index(&self, (r, c): (usize, usize)) -> &C64 {
        &self.0[r][c]
    }
}

impl IndexMut<(usize, usize)> for Mat4 {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut C64 {
        &mut self.0[r][c]
    }
}

fn align_phase_eq(
    a: impl Iterator<Item = C64> + Clone,
    b: impl Iterator<Item = C64> + Clone,
    tol: f64,
) -> bool {
    // Find the entry of largest magnitude in `a` to anchor the phase.
    let mut best = (C_ZERO, C_ZERO);
    let mut best_mag = 0.0;
    for (x, y) in a.clone().zip(b.clone()) {
        if x.norm_sqr() > best_mag {
            best_mag = x.norm_sqr();
            best = (x, y);
        }
    }
    if best_mag < tol * tol {
        // `a` is (numerically) zero; require `b` to be zero too.
        return b.into_iter().all(|y| y.norm() <= tol);
    }
    if best.1.norm() <= tol {
        return false;
    }
    let phase = best.1 / best.0;
    let phase = phase * (1.0 / phase.norm());
    a.zip(b).all(|(x, y)| (x * phase).approx_eq(y, tol))
}

// ---------------------------------------------------------------------------
// Standard single-qubit gate matrices.
// ---------------------------------------------------------------------------

/// Pauli-X matrix.
pub fn mat_x() -> Mat2 {
    Mat2([[C_ZERO, C_ONE], [C_ONE, C_ZERO]])
}

/// Pauli-Y matrix.
pub fn mat_y() -> Mat2 {
    Mat2([[C_ZERO, C64::imag(-1.0)], [C64::imag(1.0), C_ZERO]])
}

/// Pauli-Z matrix.
pub fn mat_z() -> Mat2 {
    Mat2([[C_ONE, C_ZERO], [C_ZERO, -C_ONE]])
}

/// Hadamard matrix.
pub fn mat_h() -> Mat2 {
    let h = C64::real(FRAC_1_SQRT_2);
    Mat2([[h, h], [h, -h]])
}

/// Phase gate S = diag(1, i).
pub fn mat_s() -> Mat2 {
    Mat2([[C_ONE, C_ZERO], [C_ZERO, C64::imag(1.0)]])
}

/// Inverse phase gate S† = diag(1, −i).
pub fn mat_sdg() -> Mat2 {
    Mat2([[C_ONE, C_ZERO], [C_ZERO, C64::imag(-1.0)]])
}

/// T gate = diag(1, e^{iπ/4}).
pub fn mat_t() -> Mat2 {
    Mat2([
        [C_ONE, C_ZERO],
        [C_ZERO, C64::cis(std::f64::consts::FRAC_PI_4)],
    ])
}

/// T† gate.
pub fn mat_tdg() -> Mat2 {
    Mat2([
        [C_ONE, C_ZERO],
        [C_ZERO, C64::cis(-std::f64::consts::FRAC_PI_4)],
    ])
}

/// Rotation about X: `RX(θ) = exp(−iθX/2)`.
pub fn mat_rx(theta: f64) -> Mat2 {
    let (s, c) = (theta * 0.5).sin_cos();
    Mat2([[C64::real(c), C64::imag(-s)], [C64::imag(-s), C64::real(c)]])
}

/// Rotation about Y: `RY(θ) = exp(−iθY/2)`.
pub fn mat_ry(theta: f64) -> Mat2 {
    let (s, c) = (theta * 0.5).sin_cos();
    Mat2([[C64::real(c), C64::real(-s)], [C64::real(s), C64::real(c)]])
}

/// Rotation about Z: `RZ(θ) = exp(−iθZ/2) = diag(e^{−iθ/2}, e^{iθ/2})`.
pub fn mat_rz(theta: f64) -> Mat2 {
    Mat2([
        [C64::cis(-theta * 0.5), C_ZERO],
        [C_ZERO, C64::cis(theta * 0.5)],
    ])
}

/// Phase rotation `P(λ) = diag(1, e^{iλ})`.
pub fn mat_p(lambda: f64) -> Mat2 {
    Mat2([[C_ONE, C_ZERO], [C_ZERO, C64::cis(lambda)]])
}

/// General single-qubit unitary `U3(θ, φ, λ)` in the OpenQASM convention.
pub fn mat_u3(theta: f64, phi: f64, lambda: f64) -> Mat2 {
    let (s, c) = (theta * 0.5).sin_cos();
    Mat2([
        [C64::real(c), -C64::cis(lambda) * s],
        [C64::cis(phi) * s, C64::cis(phi + lambda) * c],
    ])
}

/// √X gate.
pub fn mat_sx() -> Mat2 {
    let p = C64::new(0.5, 0.5);
    let m = C64::new(0.5, -0.5);
    Mat2([[p, m], [m, p]])
}

// ---------------------------------------------------------------------------
// Standard two-qubit gate matrices. Convention: for a gate `G(a, b)` the
// matrix index is `(bit_a << 1) | bit_b`, i.e. the first argument is the
// high bit.
// ---------------------------------------------------------------------------

/// CNOT with the first qubit (high bit) as control.
pub fn mat_cx() -> Mat4 {
    let mut m = Mat4::zero();
    m.0[0][0] = C_ONE;
    m.0[1][1] = C_ONE;
    m.0[2][3] = C_ONE;
    m.0[3][2] = C_ONE;
    m
}

/// Controlled-Z (symmetric in its qubits).
pub fn mat_cz() -> Mat4 {
    let mut m = Mat4::identity();
    m.0[3][3] = -C_ONE;
    m
}

/// Controlled-phase `CP(λ)` (symmetric in its qubits).
pub fn mat_cp(lambda: f64) -> Mat4 {
    let mut m = Mat4::identity();
    m.0[3][3] = C64::cis(lambda);
    m
}

/// SWAP gate.
pub fn mat_swap() -> Mat4 {
    let mut m = Mat4::zero();
    m.0[0][0] = C_ONE;
    m.0[1][2] = C_ONE;
    m.0[2][1] = C_ONE;
    m.0[3][3] = C_ONE;
    m
}

/// Two-qubit ZZ rotation `RZZ(θ) = exp(−iθ Z⊗Z / 2)`.
pub fn mat_rzz(theta: f64) -> Mat4 {
    let e_m = C64::cis(-theta * 0.5);
    let e_p = C64::cis(theta * 0.5);
    let mut m = Mat4::zero();
    m.0[0][0] = e_m;
    m.0[1][1] = e_p;
    m.0[2][2] = e_p;
    m.0[3][3] = e_m;
    m
}

// ---------------------------------------------------------------------------
// Angle derivatives of the parameterized gate matrices, `dG/dθ` evaluated
// at the same angle. These are NOT unitary — they feed the adjoint
// differentiation sweep, which contracts ⟨φ|dG/dθ|ψ⟩ without ever applying
// a derivative matrix to a state.
// ---------------------------------------------------------------------------

/// `dRX/dθ = −(i/2)·X·RX(θ)`.
pub fn mat_drx(theta: f64) -> Mat2 {
    let (s, c) = (theta * 0.5).sin_cos();
    Mat2([
        [C64::real(-0.5 * s), C64::imag(-0.5 * c)],
        [C64::imag(-0.5 * c), C64::real(-0.5 * s)],
    ])
}

/// `dRY/dθ = −(i/2)·Y·RY(θ)`.
pub fn mat_dry(theta: f64) -> Mat2 {
    let (s, c) = (theta * 0.5).sin_cos();
    Mat2([
        [C64::real(-0.5 * s), C64::real(-0.5 * c)],
        [C64::real(0.5 * c), C64::real(-0.5 * s)],
    ])
}

/// `dRZ/dθ = diag(−(i/2)e^{−iθ/2}, (i/2)e^{iθ/2})`.
pub fn mat_drz(theta: f64) -> Mat2 {
    Mat2([
        [C64::imag(-0.5) * C64::cis(-theta * 0.5), C_ZERO],
        [C_ZERO, C64::imag(0.5) * C64::cis(theta * 0.5)],
    ])
}

/// `dP/dλ = diag(0, i·e^{iλ})`.
pub fn mat_dp(lambda: f64) -> Mat2 {
    Mat2([
        [C_ZERO, C_ZERO],
        [C_ZERO, C64::imag(1.0) * C64::cis(lambda)],
    ])
}

/// `∂U3/∂θ` (OpenQASM convention, matching [`mat_u3`]).
pub fn mat_du3_dtheta(theta: f64, phi: f64, lambda: f64) -> Mat2 {
    let (s, c) = (theta * 0.5).sin_cos();
    Mat2([
        [C64::real(-0.5 * s), -C64::cis(lambda) * (0.5 * c)],
        [
            C64::cis(phi) * (0.5 * c),
            -C64::cis(phi + lambda) * (0.5 * s),
        ],
    ])
}

/// `∂U3/∂φ`: only the second row carries the `e^{iφ}` factor.
pub fn mat_du3_dphi(theta: f64, phi: f64, lambda: f64) -> Mat2 {
    let (s, c) = (theta * 0.5).sin_cos();
    let i = C64::imag(1.0);
    Mat2([
        [C_ZERO, C_ZERO],
        [i * C64::cis(phi) * s, i * C64::cis(phi + lambda) * c],
    ])
}

/// `∂U3/∂λ`: only the second column carries the `e^{iλ}` factor.
pub fn mat_du3_dlambda(theta: f64, phi: f64, lambda: f64) -> Mat2 {
    let (s, c) = (theta * 0.5).sin_cos();
    let i = C64::imag(1.0);
    Mat2([
        [C_ZERO, -i * C64::cis(lambda) * s],
        [C_ZERO, i * C64::cis(phi + lambda) * c],
    ])
}

/// `dCP/dλ = diag(0, 0, 0, i·e^{iλ})`.
pub fn mat_dcp(lambda: f64) -> Mat4 {
    let mut m = Mat4::zero();
    m.0[3][3] = C64::imag(1.0) * C64::cis(lambda);
    m
}

/// `dRZZ/dθ`, diagonal like [`mat_rzz`] with `∓i/2` prefactors.
pub fn mat_drzz(theta: f64) -> Mat4 {
    let d_m = C64::imag(-0.5) * C64::cis(-theta * 0.5);
    let d_p = C64::imag(0.5) * C64::cis(theta * 0.5);
    let mut m = Mat4::zero();
    m.0[0][0] = d_m;
    m.0[1][1] = d_p;
    m.0[2][2] = d_p;
    m.0[3][3] = d_m;
    m
}

/// Embeds a single-qubit matrix acting on the high bit: `m ⊗ I`.
pub fn embed_high(m: &Mat2) -> Mat4 {
    m.kron(&Mat2::identity())
}

/// Embeds a single-qubit matrix acting on the low bit: `I ⊗ m`.
pub fn embed_low(m: &Mat2) -> Mat4 {
    Mat2::identity().kron(m)
}

/// The block-diagonal two-qubit matrix with sub-blocks `a`, `b`: over the
/// high bit when `hi_blocks` (`|0⟩⟨0| ⊗ a + |1⟩⟨1| ⊗ b`, the layout of a
/// gate controlled by the high bit), else over the low bit
/// (`a ⊗ |0⟩⟨0| + b ⊗ |1⟩⟨1|`).
pub fn block_diag(hi_blocks: bool, a: &Mat2, b: &Mat2) -> Mat4 {
    let mut m = Mat4::zero();
    for r in 0..2 {
        for c in 0..2 {
            if hi_blocks {
                m.0[r][c] = a.0[r][c];
                m.0[2 + r][2 + c] = b.0[r][c];
            } else {
                m.0[2 * r][2 * c] = a.0[r][c];
                m.0[2 * r + 1][2 * c + 1] = b.0[r][c];
            }
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    const TOL: f64 = 1e-12;

    #[test]
    fn derivative_matrices_match_central_differences() {
        let eps = 1e-6;
        // Central differences carry O(eps²) truncation error; 1e-9 leaves
        // two orders of headroom over it for these bounded-entry matrices.
        let tol = 1e-9;
        let diff2 = |f: &dyn Fn(f64) -> Mat2, t: f64| {
            let (p, m) = (f(t + eps), f(t - eps));
            let mut out = Mat2([[C_ZERO; 2]; 2]);
            for r in 0..2 {
                for c in 0..2 {
                    out.0[r][c] = (p.0[r][c] - m.0[r][c]) * (0.5 / eps);
                }
            }
            out
        };
        let diff4 = |f: &dyn Fn(f64) -> Mat4, t: f64| {
            let (p, m) = (f(t + eps), f(t - eps));
            let mut out = Mat4::zero();
            for r in 0..4 {
                for c in 0..4 {
                    out.0[r][c] = (p.0[r][c] - m.0[r][c]) * (0.5 / eps);
                }
            }
            out
        };
        for t in [-1.3, 0.0, 0.41, 2.9] {
            assert!(mat_drx(t).approx_eq(&diff2(&mat_rx, t), tol), "drx({t})");
            assert!(mat_dry(t).approx_eq(&diff2(&mat_ry, t), tol), "dry({t})");
            assert!(mat_drz(t).approx_eq(&diff2(&mat_rz, t), tol), "drz({t})");
            assert!(mat_dp(t).approx_eq(&diff2(&mat_p, t), tol), "dp({t})");
            assert!(mat_dcp(t).approx_eq(&diff4(&mat_cp, t), tol), "dcp({t})");
            assert!(mat_drzz(t).approx_eq(&diff4(&mat_rzz, t), tol), "drzz({t})");
            let (phi, lambda) = (0.7, -0.9);
            assert!(
                mat_du3_dtheta(t, phi, lambda)
                    .approx_eq(&diff2(&|x| mat_u3(x, phi, lambda), t), tol),
                "du3/dθ({t})"
            );
            assert!(
                mat_du3_dphi(t, phi, lambda).approx_eq(&diff2(&|x| mat_u3(t, x, lambda), phi), tol),
                "du3/dφ({t})"
            );
            assert!(
                mat_du3_dlambda(t, phi, lambda)
                    .approx_eq(&diff2(&|x| mat_u3(t, phi, x), lambda), tol),
                "du3/dλ({t})"
            );
        }
    }

    #[test]
    fn standard_gates_are_unitary() {
        for m in [
            mat_x(),
            mat_y(),
            mat_z(),
            mat_h(),
            mat_s(),
            mat_sdg(),
            mat_t(),
            mat_tdg(),
            mat_sx(),
            mat_rx(0.3),
            mat_ry(-1.1),
            mat_rz(2.7),
            mat_p(0.4),
            mat_u3(0.5, 1.0, -0.7),
        ] {
            assert!(m.is_unitary(TOL), "{m:?} not unitary");
        }
        for m in [mat_cx(), mat_cz(), mat_swap(), mat_cp(0.9), mat_rzz(1.3)] {
            assert!(m.is_unitary(TOL), "{m:?} not unitary");
        }
    }

    #[test]
    fn pauli_algebra() {
        // XY = iZ, YZ = iX, ZX = iY
        assert!((mat_x() * mat_y()).approx_eq(&mat_z().scale(C64::imag(1.0)), TOL));
        assert!((mat_y() * mat_z()).approx_eq(&mat_x().scale(C64::imag(1.0)), TOL));
        assert!((mat_z() * mat_x()).approx_eq(&mat_y().scale(C64::imag(1.0)), TOL));
        // X² = Y² = Z² = H² = I
        for m in [mat_x(), mat_y(), mat_z(), mat_h()] {
            assert!((m * m).approx_eq(&Mat2::identity(), TOL));
        }
    }

    #[test]
    fn s_is_sqrt_z_and_t_is_sqrt_s() {
        assert!((mat_s() * mat_s()).approx_eq(&mat_z(), TOL));
        assert!((mat_t() * mat_t()).approx_eq(&mat_s(), TOL));
        assert!((mat_sdg() * mat_s()).approx_eq(&Mat2::identity(), TOL));
        assert!((mat_sx() * mat_sx()).approx_eq(&mat_x(), TOL));
    }

    #[test]
    fn hadamard_conjugation() {
        // H X H = Z and H Z H = X
        assert!((mat_h() * mat_x() * mat_h()).approx_eq(&mat_z(), TOL));
        assert!((mat_h() * mat_z() * mat_h()).approx_eq(&mat_x(), TOL));
    }

    #[test]
    fn y_basis_change() {
        // (S† then H) maps Y-eigenbasis to computational: H S† Y S H† = Z.
        let v = mat_h() * mat_sdg();
        let back = v * mat_y() * v.dagger();
        assert!(back.approx_eq(&mat_z(), TOL));
    }

    #[test]
    fn rotations_at_pi_match_paulis_up_to_phase() {
        assert!(mat_rx(PI).approx_eq_up_to_phase(&mat_x(), TOL));
        assert!(mat_ry(PI).approx_eq_up_to_phase(&mat_y(), TOL));
        assert!(mat_rz(PI).approx_eq_up_to_phase(&mat_z(), TOL));
    }

    #[test]
    fn rz_composition_adds_angles() {
        let a = mat_rz(0.4) * mat_rz(1.1);
        assert!(a.approx_eq(&mat_rz(1.5), TOL));
    }

    #[test]
    fn u3_specializations() {
        assert!(mat_u3(0.0, 0.0, 0.7).approx_eq(&mat_p(0.7), TOL));
        assert!(mat_u3(0.9, 0.0, 0.0).approx_eq(&mat_ry(0.9), TOL));
        assert!(mat_u3(PI, 0.0, PI).approx_eq_up_to_phase(&mat_x(), 1e-10));
    }

    #[test]
    fn kron_embedding() {
        let hx = mat_h().kron(&mat_x());
        assert!(hx.is_unitary(TOL));
        // (H⊗X)(H⊗X) = H²⊗X² = I.
        assert!((hx * hx).approx_eq(&Mat4::identity(), TOL));
        assert!(embed_high(&mat_z()).approx_eq(&mat_z().kron(&Mat2::identity()), TOL));
        assert!(embed_low(&mat_z()).approx_eq(&Mat2::identity().kron(&mat_z()), TOL));
    }

    #[test]
    fn cnot_action() {
        let m = mat_cx();
        // |10⟩ -> |11⟩ (control = high bit set).
        assert!(m.0[3][2].approx_eq(C_ONE, TOL));
        assert!(m.0[2][3].approx_eq(C_ONE, TOL));
        // |01⟩ untouched.
        assert!(m.0[1][1].approx_eq(C_ONE, TOL));
    }

    #[test]
    fn swap_qubits_on_cx_flips_control() {
        // Swapping the qubit roles of CX(a,b) gives CX(b,a).
        let swapped = mat_cx().swap_qubits();
        let expected = mat_swap() * mat_cx() * mat_swap();
        assert!(swapped.approx_eq(&expected, TOL));
    }

    #[test]
    fn cz_symmetric_under_qubit_swap() {
        assert!(mat_cz().swap_qubits().approx_eq(&mat_cz(), TOL));
        assert!(mat_cp(0.3).swap_qubits().approx_eq(&mat_cp(0.3), TOL));
        assert!(mat_rzz(0.8).swap_qubits().approx_eq(&mat_rzz(0.8), TOL));
    }

    #[test]
    fn rzz_diagonal_phases() {
        let m = mat_rzz(1.0);
        assert!(m.0[0][0].approx_eq(C64::cis(-0.5), TOL));
        assert!(m.0[1][1].approx_eq(C64::cis(0.5), TOL));
    }

    #[test]
    fn trace_and_det() {
        assert!(mat_z().trace().approx_eq(C_ZERO, TOL));
        assert!(mat_z().det().approx_eq(-C_ONE, TOL));
        assert!(Mat4::identity().trace().approx_eq(C64::real(4.0), TOL));
    }

    #[test]
    fn phase_insensitive_compare_rejects_different_gates() {
        assert!(!mat_x().approx_eq_up_to_phase(&mat_z(), TOL));
        assert!(!mat_cx().approx_eq_up_to_phase(&mat_cz(), TOL));
    }

    #[test]
    fn block_diag_lays_out_controlled_gates() {
        let (id, x) = (Mat2::identity(), mat_x());
        assert!(block_diag(true, &id, &x).approx_eq(&mat_cx(), 0.0));
        assert!(block_diag(false, &id, &x).approx_eq(&mat_cx().swap_qubits(), 0.0));
        let z = mat_z();
        assert!(block_diag(true, &z, &z).approx_eq(&embed_low(&z), 0.0));
        assert!(block_diag(false, &x, &x).approx_eq(&embed_high(&x), 0.0));
    }
}
