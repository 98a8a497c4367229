//! Walker-batched multi-θ evolution: one amplitude pass drives many
//! parameter points.
//!
//! A [`WalkerSet`] holds `n_walkers` statevectors over the same register
//! interleaved amplitude-major — walker `w`'s amplitude `i` lives at
//! `amps[i · n_walkers + w]`, so the `n_walkers` values of one amplitude
//! index share cache lines. Evolving the set under per-walker plans (same
//! circuit *shape*, one [`crate::plan::PlanTemplate`] bind per θ) then
//! touches each cache line once for all walkers per kernel sweep, instead
//! of streaming the whole register from memory once per θ.
//!
//! The second — and on many-term molecular Hamiltonians the dominant —
//! win is in the readout: the flip-group phase `f(x) = Σ_t c_t·sign_t(x)`
//! of the batched §4.2 expectation is θ-independent, so
//! [`walker_energies`] obtains each block of it ONCE (from the operator's
//! prepared table, or streamed when it has none) and reuses it for every
//! walker.
//!
//! **Bitwise contract.** Every walker kernel applies, per walker, exactly
//! the arithmetic of the single-state serial kernels in
//! [`crate::kernels`] (same expressions, same order, including the
//! diagonal fast paths), and [`walker_energies`] mirrors
//! [`crate::expval::energy_direct_batched`]'s serial accumulation order
//! per walker. An N-walker sweep is therefore bit-for-bit identical to N
//! independent single-state runs — the tests and the serve batcher rely
//! on this.

use crate::expval::{count_sweeps, ensure_finite_energy, prepared, GroupPhase};
use crate::kernels::{DiagFactor, Mat4Shape, SubKind};
use crate::plan::{ExecPlan, PlanOp};
use crate::state::StateVector;
use nwq_common::{Error, Mat2, Mat4, Result, C64, C_ONE, C_ZERO};
use nwq_pauli::PauliOp;

/// `n_walkers` same-width statevectors stored amplitude-major:
/// `amps[i · n_walkers + w]` is walker `w`'s amplitude `i`.
#[derive(Clone, Debug, PartialEq)]
pub struct WalkerSet {
    n_qubits: usize,
    n_walkers: usize,
    amps: Vec<C64>,
}

impl WalkerSet {
    /// `n_walkers` copies of `|0…0⟩` on `n_qubits`. Errors on zero
    /// walkers.
    pub fn zero(n_qubits: usize, n_walkers: usize) -> Result<Self> {
        if n_walkers == 0 {
            return Err(Error::Invalid(
                "walker set needs at least one walker".into(),
            ));
        }
        let dim = 1usize << n_qubits;
        let mut amps = vec![C_ZERO; dim * n_walkers];
        amps[..n_walkers].fill(C_ONE);
        Ok(WalkerSet {
            n_qubits,
            n_walkers,
            amps,
        })
    }

    /// Interleaves existing states (all must share a register width).
    pub fn from_states(states: &[StateVector]) -> Result<Self> {
        let first = states
            .first()
            .ok_or_else(|| Error::Invalid("walker set needs at least one walker".into()))?;
        let n_qubits = first.n_qubits();
        let n_walkers = states.len();
        let dim = first.len();
        let mut amps = vec![C_ZERO; dim * n_walkers];
        for (w, s) in states.iter().enumerate() {
            if s.n_qubits() != n_qubits {
                return Err(Error::DimensionMismatch {
                    expected: n_qubits,
                    got: s.n_qubits(),
                });
            }
            for (i, a) in s.amplitudes().iter().enumerate() {
                amps[i * n_walkers + w] = *a;
            }
        }
        Ok(WalkerSet {
            n_qubits,
            n_walkers,
            amps,
        })
    }

    /// Register width shared by every walker.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Number of walkers in the set.
    #[inline]
    pub fn n_walkers(&self) -> usize {
        self.n_walkers
    }

    /// Amplitudes per walker (`2^n`).
    #[inline]
    pub fn dim(&self) -> usize {
        1usize << self.n_qubits
    }

    /// The full interleaved amplitude buffer.
    #[inline]
    pub fn amplitudes(&self) -> &[C64] {
        &self.amps
    }

    /// Mutable interleaved amplitude buffer (used by the walker kernels).
    #[inline]
    pub fn amplitudes_mut(&mut self) -> &mut [C64] {
        &mut self.amps
    }

    /// Walker `w`'s amplitude `i`.
    #[inline]
    pub fn amp(&self, i: usize, w: usize) -> C64 {
        self.amps[i * self.n_walkers + w]
    }

    /// De-interleaves walker `w` into a standalone state.
    pub fn walker_state(&self, w: usize) -> StateVector {
        let amps = (0..self.dim()).map(|i| self.amp(i, w)).collect();
        StateVector::from_amplitudes(amps).expect("walker dim is a power of two")
    }

    /// De-interleaves the whole set.
    pub fn into_states(self) -> Vec<StateVector> {
        (0..self.n_walkers).map(|w| self.walker_state(w)).collect()
    }

    /// Squared 2-norm of walker `w`.
    pub fn walker_norm_sqr(&self, w: usize) -> f64 {
        (0..self.dim()).map(|i| self.amp(i, w).norm_sqr()).sum()
    }

    /// Rescales walker `w` to unit norm (the walker analog of
    /// [`StateVector::normalize`]). Errors on a zero/non-finite norm.
    pub fn normalize_walker(&mut self, w: usize) -> Result<()> {
        let n = self.walker_norm_sqr(w).sqrt();
        if n <= 0.0 || !n.is_finite() {
            return Err(Error::Numerical(
                "cannot normalize zero/non-finite walker".into(),
            ));
        }
        let inv = 1.0 / n;
        let nw = self.n_walkers;
        for i in 0..self.dim() {
            self.amps[i * nw + w] = self.amps[i * nw + w] * inv;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Walker kernels: per-walker single-state arithmetic, cache line touched
// once for all walkers.
// ---------------------------------------------------------------------------

/// Single-qubit sweep over all walkers. `mats[w]`/`diag[w]` give walker
/// `w`'s matrix and its diagonality; per walker this is exactly the
/// serial `apply_mat2` (pair update, or `a *= d[bit]` diagonal fast
/// path).
#[inline(always)]
fn walker_mat2_body(amps: &mut [C64], nw: usize, stride: usize, mats: &[Mat2], diag: &[bool]) {
    let row = nw;
    let block = (stride << 1) * row;
    for c in amps.chunks_mut(block) {
        let (lo, hi) = c.split_at_mut(stride * row);
        for (l, h) in lo.chunks_exact_mut(row).zip(hi.chunks_exact_mut(row)) {
            for w in 0..row {
                let m = &mats[w];
                if diag[w] {
                    l[w] *= m.0[0][0];
                    h[w] *= m.0[1][1];
                } else {
                    let a = l[w];
                    let b = h[w];
                    l[w] = m.0[0][0] * a + m.0[0][1] * b;
                    h[w] = m.0[1][0] * a + m.0[1][1] * b;
                }
            }
        }
    }
}

/// Walker-batched single-qubit sweep (`stride = 2^q`). Dispatches to the
/// explicit AVX2 walker kernel — lanes are walkers, so the vectors need
/// no shuffles at any stride — with the auto-vectorized body as the
/// scalar reference.
pub fn walker_mat2_sweep(amps: &mut [C64], nw: usize, stride: usize, mats: &[Mat2], diag: &[bool]) {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::simd_selected() {
        // SAFETY: simd_selected() is true only when AVX2 was detected.
        return unsafe { crate::simd::avx::walker_mat2(amps, nw, stride, mats, diag) };
    }
    walker_mat2_body(amps, nw, stride, mats, diag)
}

/// Two-qubit sweep over all walkers (`hi > lo` prenormalized). Per walker
/// this is the serial `apply_mat4_prenorm` quad update, or the
/// `a *= d[idx]` diagonal fast path.
#[inline(always)]
fn walker_mat4_body(
    amps: &mut [C64],
    nw: usize,
    s_hi: usize,
    s_lo: usize,
    mats: &[Mat4],
    diag: &[bool],
) {
    let row = nw;
    let block = (s_hi << 1) * row;
    let lo_block = (s_lo << 1) * row;
    for c in amps.chunks_mut(block) {
        let (h0, h1) = c.split_at_mut(s_hi * row);
        for (c0, c1) in h0.chunks_mut(lo_block).zip(h1.chunks_mut(lo_block)) {
            let (c00, c01) = c0.split_at_mut(s_lo * row);
            let (c10, c11) = c1.split_at_mut(s_lo * row);
            for j in 0..s_lo {
                let base = j * row;
                for w in 0..row {
                    let k = base + w;
                    let m = &mats[w];
                    if diag[w] {
                        c00[k] *= m.0[0][0];
                        c01[k] *= m.0[1][1];
                        c10[k] *= m.0[2][2];
                        c11[k] *= m.0[3][3];
                    } else {
                        let v = [c00[k], c01[k], c10[k], c11[k]];
                        let r = &m.0;
                        c00[k] = r[0][0] * v[0] + r[0][1] * v[1] + r[0][2] * v[2] + r[0][3] * v[3];
                        c01[k] = r[1][0] * v[0] + r[1][1] * v[1] + r[1][2] * v[2] + r[1][3] * v[3];
                        c10[k] = r[2][0] * v[0] + r[2][1] * v[1] + r[2][2] * v[2] + r[2][3] * v[3];
                        c11[k] = r[3][0] * v[0] + r[3][1] * v[1] + r[3][2] * v[2] + r[3][3] * v[3];
                    }
                }
            }
        }
    }
}

/// Walker-batched two-qubit sweep (`s_hi = 2^hi`, `s_lo = 2^lo`,
/// `hi > lo`). Dispatches to the explicit AVX2 walker kernel.
pub fn walker_mat4_sweep(
    amps: &mut [C64],
    nw: usize,
    s_hi: usize,
    s_lo: usize,
    mats: &[Mat4],
    diag: &[bool],
) {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::simd_selected() {
        // SAFETY: simd_selected() is true only when AVX2 was detected.
        return unsafe { crate::simd::avx::walker_mat4(amps, nw, s_hi, s_lo, mats, diag) };
    }
    walker_mat4_body(amps, nw, s_hi, s_lo, mats, diag)
}

/// One walker's 2×2 sub-block on a (low, high) value pair — the walker
/// analog of the single-state block kernels' `apply_sub_pairwise`:
/// `Identity` untouched, `Diag` in-place `*=`, `Dense` 2-term MAC.
#[inline(always)]
fn walker_sub_pair(lo: &mut C64, hi: &mut C64, k: SubKind, m: &nwq_common::Mat2) {
    match k {
        SubKind::Identity => {}
        SubKind::Diag => {
            *lo *= m.0[0][0];
            *hi *= m.0[1][1];
        }
        SubKind::Dense => {
            let a = *lo;
            let b = *hi;
            *lo = m.0[0][0] * a + m.0[0][1] * b;
            *hi = m.0[1][0] * a + m.0[1][1] * b;
        }
    }
}

/// Two-qubit sweep over all walkers where at least one walker's matrix is
/// block-structured (e.g. a CX that did not fuse into a dense block).
/// Per walker this applies exactly the single-state shaped arithmetic of
/// `apply_mat4_shaped` — identity sub-blocks skipped, not multiplied.
/// Scalar-only: per-walker sub-block *skipping* cannot ride the
/// lane-parallel AVX walker kernel, which assumes every lane runs the
/// same dense/diagonal expression.
pub fn walker_mat4_shaped_sweep(
    amps: &mut [C64],
    nw: usize,
    s_hi: usize,
    s_lo: usize,
    mats: &[Mat4],
    shapes: &[Mat4Shape],
) {
    let row = nw;
    let block = (s_hi << 1) * row;
    let lo_block = (s_lo << 1) * row;
    for c in amps.chunks_mut(block) {
        let (h0, h1) = c.split_at_mut(s_hi * row);
        for (c0, c1) in h0.chunks_mut(lo_block).zip(h1.chunks_mut(lo_block)) {
            let (c00, c01) = c0.split_at_mut(s_lo * row);
            let (c10, c11) = c1.split_at_mut(s_lo * row);
            for j in 0..s_lo {
                let base = j * row;
                for w in 0..row {
                    let k = base + w;
                    let m = &mats[w];
                    match &shapes[w] {
                        Mat4Shape::Diagonal => {
                            c00[k] *= m.0[0][0];
                            c01[k] *= m.0[1][1];
                            c10[k] *= m.0[2][2];
                            c11[k] *= m.0[3][3];
                        }
                        Mat4Shape::BlockHi { a, ka, b, kb } => {
                            walker_sub_pair(&mut c00[k], &mut c01[k], *ka, a);
                            walker_sub_pair(&mut c10[k], &mut c11[k], *kb, b);
                        }
                        Mat4Shape::BlockLo { a, ka, b, kb } => {
                            walker_sub_pair(&mut c00[k], &mut c10[k], *ka, a);
                            walker_sub_pair(&mut c01[k], &mut c11[k], *kb, b);
                        }
                        Mat4Shape::Dense => {
                            let v = [c00[k], c01[k], c10[k], c11[k]];
                            let r = &m.0;
                            c00[k] =
                                r[0][0] * v[0] + r[0][1] * v[1] + r[0][2] * v[2] + r[0][3] * v[3];
                            c01[k] =
                                r[1][0] * v[0] + r[1][1] * v[1] + r[1][2] * v[2] + r[1][3] * v[3];
                            c10[k] =
                                r[2][0] * v[0] + r[2][1] * v[1] + r[2][2] * v[2] + r[2][3] * v[3];
                            c11[k] =
                                r[3][0] * v[0] + r[3][1] * v[1] + r[3][2] * v[2] + r[3][3] * v[3];
                        }
                    }
                }
            }
        }
    }
}

/// Diagonal sweep over all walkers. `factors` is factor-major:
/// `factors[f · nw + w]` is walker `w`'s `f`-th factor (all walkers share
/// factor *kinds* at each position — checked by [`plans_aligned`]). Per
/// walker each amplitude multiplies its factors in plan order, exactly
/// like the serial `apply_diag_sweep`.
#[inline(always)]
fn walker_diag_body(amps: &mut [C64], nw: usize, factors: &[DiagFactor]) {
    let n_factors = factors.len() / nw;
    for (i, rows) in amps.chunks_exact_mut(nw).enumerate() {
        for f in 0..n_factors {
            let fr = &factors[f * nw..(f + 1) * nw];
            for (w, a) in rows.iter_mut().enumerate() {
                *a *= fr[w].at(i);
            }
        }
    }
}

/// Walker-batched diagonal sweep (factor-major `factors`). Dispatches to
/// the explicit AVX2 walker kernel (shared bit selectors, per-pair entry
/// tables).
pub fn walker_diag_sweep(amps: &mut [C64], nw: usize, factors: &[DiagFactor]) {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::simd_selected() {
        // SAFETY: simd_selected() is true only when AVX2 was detected.
        return unsafe { crate::simd::avx::walker_diag(amps, nw, factors) };
    }
    walker_diag_body(amps, nw, factors)
}

/// Accumulates one block of the walker-batched flip-group reduction:
/// for each index `x = base + j` with shared group phase `f[j]`, folds
/// `w_w(x) · f[j]` into `accs[w]`, where `w_w` is walker `w`'s pair
/// weight (`|ψ_w[x]|²` for the diagonal group, else
/// `conj(ψ_w[x⊕m])·ψ_w[x]`). Per walker the products and the fold order
/// match `energy_direct_batched`'s serial loop exactly.
#[inline(always)]
fn walker_accum_body(accs: &mut [C64], amps: &[C64], nw: usize, base: usize, m: usize, f: &[C64]) {
    if m == 0 {
        for (j, &fx) in f.iter().enumerate() {
            let row = &amps[(base + j) * nw..(base + j + 1) * nw];
            for (w, acc) in accs.iter_mut().enumerate() {
                *acc += C64::new(row[w].norm_sqr(), 0.0) * fx;
            }
        }
    } else {
        for (j, &fx) in f.iter().enumerate() {
            let x = base + j;
            let row = &amps[x * nw..(x + 1) * nw];
            let mate = &amps[(x ^ m) * nw..((x ^ m) + 1) * nw];
            for (w, acc) in accs.iter_mut().enumerate() {
                *acc += (mate[w].conj() * row[w]) * fx;
            }
        }
    }
}

/// Walker-batched flip-group accumulation block. Dispatches to the
/// explicit AVX2 walker kernel (per-pair register accumulators).
pub fn walker_accum(accs: &mut [C64], amps: &[C64], nw: usize, base: usize, m: usize, f: &[C64]) {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::simd_selected() {
        // SAFETY: simd_selected() is true only when AVX2 was detected.
        return unsafe { crate::simd::avx::walker_accum(accs, amps, nw, base, m, f) };
    }
    walker_accum_body(accs, amps, nw, base, m, f)
}

// ---------------------------------------------------------------------------
// Plan alignment.
// ---------------------------------------------------------------------------

/// `true` when every plan has the same *shape*: identical op sequences up
/// to matrix/phase values (same kinds, same qubits, and for diagonal
/// sweeps the same factor kinds position-for-position). Binding one
/// [`crate::plan::PlanTemplate`] at several θ usually yields aligned
/// plans; they diverge only when a bound matrix changes diagonality with
/// θ (e.g. `RX(0)` coalesces into a diagonal sweep where `RX(1.3)` stays
/// a pair update), in which case callers must fall back to independent
/// evaluation.
pub fn plans_aligned(plans: &[ExecPlan]) -> bool {
    let Some((first, rest)) = plans.split_first() else {
        return true;
    };
    rest.iter().all(|p| {
        p.n_qubits() == first.n_qubits()
            && p.ops().len() == first.ops().len()
            && p.ops().iter().zip(first.ops()).all(|(a, b)| match (a, b) {
                (PlanOp::One(qa, _), PlanOp::One(qb, _)) => qa == qb,
                (PlanOp::Two(ha, la, _), PlanOp::Two(hb, lb, _)) => ha == hb && la == lb,
                (
                    PlanOp::DiagSweep {
                        start: sa, len: la, ..
                    },
                    PlanOp::DiagSweep {
                        start: sb, len: lb, ..
                    },
                ) => {
                    la == lb
                        && p.factors()[*sa..*sa + *la]
                            .iter()
                            .zip(&first.factors()[*sb..*sb + *lb])
                            .all(|(fa, fb)| match (fa, fb) {
                                (DiagFactor::One { q: qa, .. }, DiagFactor::One { q: qb, .. }) => {
                                    qa == qb
                                }
                                (
                                    DiagFactor::Two { hi: ha, lo: la, .. },
                                    DiagFactor::Two { hi: hb, lo: lb, .. },
                                ) => ha == hb && la == lb,
                                _ => false,
                            })
                }
                _ => false,
            })
    })
}

// ---------------------------------------------------------------------------
// Walker energies.
// ---------------------------------------------------------------------------

/// Block width of the walker flip-group reduction (shared-phase buffer).
const WALKER_BLOCK: usize = 128;

/// Per-walker energies `Re⟨ψ_w|H|ψ_w⟩` in one pass over the interleaved
/// buffer. The flip-group phase `f(x)` is θ-independent, so one block of
/// it (read from the operator's prepared table, or streamed) is shared by
/// every walker — the readout work drops from `n_walkers` full term
/// sweeps to at most one. Per walker the result is bitwise
/// [`crate::expval::energy_direct_batched`].
pub fn walker_energies(set: &WalkerSet, op: &PauliOp) -> Result<Vec<f64>> {
    if set.dim() != 1usize << op.n_qubits() {
        return Err(Error::DimensionMismatch {
            expected: 1usize << op.n_qubits(),
            got: set.dim(),
        });
    }
    let _span = nwq_telemetry::span!("expval.walkers");
    let nw = set.n_walkers();
    let dim = set.dim();
    let prepared = prepared(op);
    count_sweeps(op, prepared, nw);
    let mut totals = vec![C_ZERO; nw];
    let mut accs = vec![C_ZERO; nw];
    let mut fbuf = [C_ZERO; WALKER_BLOCK];
    for phase in GroupPhase::of(prepared) {
        let m = phase.mask() as usize;
        accs.fill(C_ZERO);
        for base in (0..dim).step_by(WALKER_BLOCK) {
            let blk = WALKER_BLOCK.min(dim - base);
            phase.fill(&mut fbuf[..blk], base);
            walker_accum(&mut accs, set.amplitudes(), nw, base, m, &fbuf[..blk]);
        }
        for (t, a) in totals.iter_mut().zip(&accs) {
            *t += *a;
        }
    }
    totals
        .iter()
        .map(|t| ensure_finite_energy(t.re, "walker-batched expectation"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Executor;
    use crate::expval::energy_direct_batched;
    use nwq_circuit::{Circuit, ParamExpr};

    fn ansatz(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.ry(q, ParamExpr::var(q % 3));
        }
        for q in 0..n - 1 {
            c.cx(q, q + 1);
        }
        c.rz(0, ParamExpr::var(0)).rzz(1, n - 1, ParamExpr::var(1));
        c
    }

    fn bits(s: &StateVector) -> Vec<(u64, u64)> {
        s.amplitudes()
            .iter()
            .map(|a| (a.re.to_bits(), a.im.to_bits()))
            .collect()
    }

    #[test]
    fn round_trip_preserves_states() {
        let c = ansatz(5);
        let states: Vec<StateVector> = [[0.3, -0.7, 1.1], [0.0, 0.4, -0.2]]
            .iter()
            .map(|p| crate::executor::simulate_plan(&c, p).unwrap())
            .collect();
        let set = WalkerSet::from_states(&states).unwrap();
        assert_eq!(set.n_walkers(), 2);
        assert_eq!(set.n_qubits(), 5);
        for (w, s) in set.clone().into_states().iter().enumerate() {
            assert_eq!(bits(s), bits(&states[w]), "walker {w}");
        }
    }

    #[test]
    fn walker_run_bitwise_matches_independent_runs() {
        let c = ansatz(6);
        let thetas = [
            [0.3, -0.7, 1.1],
            [0.9, 0.4, -1.3],
            [0.0, 0.0, 0.0],
            [2.2, -0.1, 0.7],
        ];
        let plans: Vec<ExecPlan> = thetas
            .iter()
            .map(|p| ExecPlan::compile(&c, p).unwrap())
            .collect();
        assert!(plans_aligned(&plans));
        let mut set = WalkerSet::zero(6, plans.len()).unwrap();
        Executor::new().run_plans_walkers(&plans, &mut set).unwrap();
        for (w, plan) in plans.iter().enumerate() {
            let single = Executor::new().run_plan(plan).unwrap();
            assert_eq!(bits(&set.walker_state(w)), bits(&single), "walker {w}");
        }
    }

    #[test]
    fn walker_energies_bitwise_match_batched_direct() {
        let c = ansatz(6);
        let h = nwq_pauli::PauliOp::parse(
            "0.7 ZZIIII + 0.3 XXIIII + 0.2 IYZXII + 0.1 ZIIIIZ + 0.05 IIIIII + 0.4 IXXIII",
        )
        .unwrap();
        let thetas = [[0.3, -0.7, 1.1], [0.9, 0.4, -1.3], [1.7, 0.2, 0.5]];
        let plans: Vec<ExecPlan> = thetas
            .iter()
            .map(|p| ExecPlan::compile(&c, p).unwrap())
            .collect();
        let mut set = WalkerSet::zero(6, plans.len()).unwrap();
        Executor::new().run_plans_walkers(&plans, &mut set).unwrap();
        let batched = walker_energies(&set, &h).unwrap();
        for (w, plan) in plans.iter().enumerate() {
            let single = Executor::new().run_plan(plan).unwrap();
            let e = energy_direct_batched(&single, &h).unwrap();
            assert_eq!(batched[w].to_bits(), e.to_bits(), "walker {w}");
        }
    }

    #[test]
    fn misaligned_plans_detected() {
        // RX(0) binds to a diagonal (identity) block where RX(1.3) stays a
        // pair update, so the op sequences diverge.
        let mut c = Circuit::new(2);
        c.rx(0, ParamExpr::var(0)).cx(0, 1);
        let a = ExecPlan::compile(&c, &[0.0]).unwrap();
        let b = ExecPlan::compile(&c, &[1.3]).unwrap();
        if a.ops().len() == b.ops().len()
            && a.ops()
                .iter()
                .zip(b.ops())
                .all(|(x, y)| std::mem::discriminant(x) == std::mem::discriminant(y))
        {
            // Bind didn't re-specialize on this build; nothing to assert.
            return;
        }
        assert!(!plans_aligned(&[a, b]));
    }

    #[test]
    fn empty_and_zero_walker_sets() {
        assert!(WalkerSet::zero(3, 0).is_err());
        assert!(WalkerSet::from_states(&[]).is_err());
        assert!(plans_aligned(&[]));
        let set = WalkerSet::zero(3, 2).unwrap();
        assert!((set.walker_norm_sqr(0) - 1.0).abs() < 1e-15);
        assert!((set.walker_norm_sqr(1) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn width_mismatch_rejected() {
        let s3 = StateVector::zero(3);
        let s4 = StateVector::zero(4);
        assert!(WalkerSet::from_states(&[s3.clone(), s4]).is_err());
        let set = WalkerSet::from_states(&[s3]).unwrap();
        let h = nwq_pauli::PauliOp::parse("1.0 ZZ").unwrap();
        assert!(walker_energies(&set, &h).is_err());
    }
}
