//! Energy evaluation strategies (paper §4.1 + §4.2 combined).
//!
//! Three ways to evaluate `⟨ψ(θ)|H|ψ(θ)⟩`, in decreasing cost:
//!
//! 1. **Non-caching** (`energy_non_caching`): re-prepare the ansatz for
//!    every measurement group, apply the group's basis change, read the
//!    diagonal expectations. This is the baseline of paper Fig 3.
//! 2. **Caching** (`energy_cached`): prepare the ansatz once, then for
//!    each group copy the cached amplitudes and apply only the (tiny)
//!    basis-change circuit (§4.1.4).
//! 3. **Direct** (`StateVector::expectation`): no basis changes at all —
//!    evaluate each Pauli term as an exact amplitude reduction (§4.2).
//! 4. **Batched direct** ([`energy_direct_batched`]): the §4.2 reduction
//!    with Hamiltonian terms grouped by X/Y flip-mask, so every term in a
//!    group is evaluated in ONE amplitude pass instead of one pass per
//!    term.
//!
//! All strategies agree to numerical precision; the tests pin that down.
//! The group-based strategies (1, 2) compile the ansatz to an
//! [`crate::plan::ExecPlan`] so parameterized gates fuse at bind time; the
//! reported `gates_applied` stays the *logical* (pre-fusion) gate count,
//! which is the quantity paper Fig 3 compares.

use crate::executor::Executor;
use crate::kernels::dispatches;
use crate::plan::ExecPlan;
use crate::state::StateVector;
use nwq_circuit::basis::group_basis_circuit;
use nwq_circuit::Circuit;
use nwq_common::{bits::masked_parity, Error, Result, C64, C_ZERO};
use nwq_pauli::grouping::MeasurementGroup;
use nwq_pauli::prepared::PhaseTable;
pub use nwq_pauli::prepared::{FlipGroup, PreparedObservable};
use nwq_pauli::PauliOp;
use rayon::prelude::*;

/// Block width (amplitudes) of the serial batched-expectation sweep: big
/// enough to amortize the SIMD dispatch and fill vector lanes, small
/// enough that the phase/weight buffers stay in L1 (2 × 128 × 16 B).
const EXPVAL_BLOCK: usize = 128;

/// Every energy entry point funnels its result through this: a NaN/Inf
/// energy (corrupted amplitudes, injected fault) is surfaced as
/// `Error::Numerical` instead of silently poisoning the optimizer, and
/// counted so `--metrics` artifacts show how often it happened.
fn ensure_finite_energy(energy: f64, context: &str) -> Result<f64> {
    if energy.is_finite() {
        Ok(energy)
    } else {
        nwq_telemetry::counter_add("resilience.nonfinite_detected", 1);
        Err(Error::Numerical(format!(
            "non-finite energy from {context}"
        )))
    }
}

/// Once every string in a group has been rotated to diagonal form, all its
/// expectations come from a single pass over the probabilities:
/// `⟨P_t⟩ = Σ_x |a_x|² (−1)^{|x ∧ support(P_t)|}`.
///
/// Each parallel part folds into ONE preallocated accumulator vector; the
/// per-amplitude closure only indexes into it (no heap traffic inside the
/// amplitude loop).
fn diagonal_group_energy(state: &StateVector, group: &MeasurementGroup) -> f64 {
    let supports: Vec<u64> = group.terms.iter().map(|(_, s)| s.support()).collect();
    let coeffs: Vec<f64> = group.terms.iter().map(|(c, _)| c.re).collect();
    let amps = state.amplitudes();
    let accumulate = |acc: &mut [f64], base: usize, chunk: &[C64]| {
        for (j, a) in chunk.iter().enumerate() {
            let x = (base + j) as u64;
            let p = a.norm_sqr();
            for (t, &m) in supports.iter().enumerate() {
                acc[t] += if masked_parity(x, m) { -p } else { p };
            }
        }
    };
    let per_term: Vec<f64> = if dispatches(amps.len()) {
        let chunk = amps.len().div_ceil(rayon::current_num_threads());
        let partials: Vec<Vec<f64>> = amps
            .par_chunks(chunk)
            .enumerate()
            .map(|(ci, c)| {
                let mut acc = vec![0.0; supports.len()];
                accumulate(&mut acc, ci * chunk, c);
                acc
            })
            .collect();
        let mut total = vec![0.0; supports.len()];
        for part in partials {
            for (x, y) in total.iter_mut().zip(part) {
                *x += y;
            }
        }
        total
    } else {
        let mut acc = vec![0.0; supports.len()];
        accumulate(&mut acc, 0, amps);
        acc
    };
    per_term.iter().zip(&coeffs).map(|(e, c)| e * c).sum()
}

/// The flip-mask groups of `op` (ascending mask order, operator order
/// within a group) — the grouping every §4.2 reduction here folds over.
pub fn flip_groups(op: &PauliOp) -> Vec<FlipGroup> {
    op.prepared().groups().to_vec()
}

/// Where one flip group's phase
/// `f(x) = Σ_t c_t·(−1)^{|x ∧ z_t|}` comes from during a fold: the
/// operator's precomputed table when it has one, else a fresh evaluation
/// of the term sum. Both give the same bits (a table entry is the real
/// part of the streamed sum, whose imaginary part is then `+0.0`), so the
/// fold does not care which it reads.
#[derive(Clone, Copy, Debug)]
pub struct GroupPhase<'a> {
    group: &'a FlipGroup,
    table: Option<PhaseTable<'a>>,
}

impl<'a> GroupPhase<'a> {
    /// The f source of every group of `prepared`, in fold order.
    pub fn of(prepared: &'a PreparedObservable) -> impl Iterator<Item = GroupPhase<'a>> {
        prepared
            .iter()
            .map(|(group, table)| GroupPhase { group, table })
    }

    /// The group's X/Y flip-mask.
    pub fn mask(&self) -> u64 {
        self.group.mask
    }

    /// `f(x)` at one (global) amplitude index.
    #[inline]
    fn at(&self, x: u64) -> C64 {
        match self.table {
            Some(t) => C64::new(t.get(x as usize), 0.0),
            None => {
                let mut f = C_ZERO;
                for &(c, z) in &self.group.terms {
                    let sign = 1.0 - 2.0 * ((x & z).count_ones() & 1) as f64;
                    f += c.scale(sign);
                }
                f
            }
        }
    }

    /// `out[j] = f(base + j)` for a block of consecutive indices: the
    /// streamed fold's phase block.
    fn fill(&self, out: &mut [C64], base: usize) {
        match self.table {
            Some(_) => {
                for (j, o) in out.iter_mut().enumerate() {
                    *o = self.at((base + j) as u64);
                }
            }
            None => crate::simd::group_phase_block(out, base, &self.group.terms),
        }
    }
}

/// Records one evaluation's sweep accounting: `term_sweeps` is what the
/// per-term path would cost, `batched_sweeps` the group passes actually
/// made, `table_folds` how many of those read a prepared table instead of
/// refilling the phase.
fn count_sweeps(op: &PauliOp, prepared: &PreparedObservable) {
    let term_sweeps = op.num_terms() as u64;
    let group_sweeps = prepared.groups().len() as u64;
    nwq_telemetry::counter_add("expval.term_sweeps", term_sweeps);
    nwq_telemetry::counter_add("expval.batched_sweeps", group_sweeps);
    nwq_telemetry::counter_add("expval.sweeps_saved", term_sweeps - group_sweeps);
    nwq_telemetry::counter_add("expval.table_folds", prepared.num_tables() as u64);
}

/// Batched §4.2 direct expectation: Hamiltonian terms sharing an X/Y
/// flip-mask `m` read the same amplitude pairs `(ψ[x⊕m], ψ[x])`, so the
/// per-term reductions collapse to one pass per *mask group*:
///
/// `⟨H⟩ = Σ_m Σ_x conj(ψ[x⊕m]) ψ[x] · Σ_{t: m_t=m} c_t φ_t (−1)^{|x ∧ z_t|}`
///
/// For molecular Hamiltonians many terms share flip-masks (all-diagonal
/// terms share `m = 0`), so this does strictly fewer amplitude sweeps than
/// the per-term `expectation_op` path. The inner sum is the group phase
/// `f_m(x)`: it depends on neither θ nor ψ, so the grouping and (under a
/// byte budget) the phase tables are prepared once per operator
/// ([`PauliOp::prepared`]) and an evaluation only folds `w·f` — `groups × 2ⁿ`
/// multiply-adds instead of `terms × 2ⁿ`. Telemetry records
/// `expval.term_sweeps` (what per-term would cost), `expval.batched_sweeps`
/// (passes actually made), `expval.sweeps_saved` and `expval.table_folds`.
pub fn energy_direct_batched(state: &StateVector, op: &PauliOp) -> Result<f64> {
    energy_prepared(state, op, op.prepared())
}

/// [`energy_direct_batched`] over an explicitly supplied preparation of
/// `op` (the tests pass a zero-budget one to pin table ≡ streaming).
fn energy_prepared(
    state: &StateVector,
    op: &PauliOp,
    prepared: &PreparedObservable,
) -> Result<f64> {
    let psi = state.amplitudes();
    if psi.len() != 1usize << op.n_qubits() {
        return Err(Error::DimensionMismatch {
            expected: 1usize << op.n_qubits(),
            got: psi.len(),
        });
    }
    count_sweeps(op, prepared);
    let _span = nwq_telemetry::span!("expval.batched");
    let mut total = 0.0;
    for phase in GroupPhase::of(prepared) {
        total += shard_group_partial(psi, psi, 0, op.n_qubits(), phase);
    }
    ensure_finite_energy(total, "batched direct expectation")
}

/// One shard's contribution to the real part of a flip group's sum — the
/// one fold every §4.2 reduction runs (a single-node state is the
/// one-shard case):
///
/// `Re Σ_{x ∈ shard} conj(ψ[x⊕m]) ψ[x] · f_m(x)`
///
/// `own` holds the rank's amplitudes (global indices `rank·2^n_local ..`),
/// `partner` the shard holding the `x⊕m` side (the own shard again when
/// the mask's rank bits are zero).
///
/// The products are added in index order, whichever f source `phase`
/// is. Shards the one dispatch rule sends to the pool
/// ([`crate::kernels::dispatches`]: a multi-thread pool and at least
/// `PAR_MIN_AMPS` amplitudes) are reduced per element in the pool's
/// contiguous parts, so there — and only there — the sum's association
/// depends on the pool width. Every smaller shard, on every host, takes
/// the serial sweep: with a table, one fused multiply-add chain per run of
/// the table; without, fill a block of phases `f` and pair weights `w`
/// (both vectorize), then fold `w·f`. The diagonal (`m = 0`) group reads
/// one amplitude per index via `norm_sqr` instead of a conjugate product
/// (`Re(conj(a)·a)` computes `re·re − im·(−im)`, bitwise `norm_sqr`).
/// NaN/Inf amplitudes poison the sum through the weights and surface in
/// the callers' finiteness check.
pub fn shard_group_partial(
    own: &[C64],
    partner: &[C64],
    rank: usize,
    n_local: usize,
    phase: GroupPhase<'_>,
) -> f64 {
    debug_assert_eq!(own.len(), partner.len());
    debug_assert_eq!(own.len(), 1usize << n_local);
    let mask = phase.mask();
    let flip = (mask != 0).then_some((mask & ((1u64 << n_local) - 1)) as usize);
    let base = rank << n_local;
    if dispatches(own.len()) {
        let body = |k: usize| -> C64 {
            let w = match flip {
                None => C64::new(own[k].norm_sqr(), 0.0),
                Some(m) => partner[k ^ m].conj() * own[k],
            };
            w * phase.at((base | k) as u64)
        };
        return (0..own.len())
            .into_par_iter()
            .map(body)
            .reduce(|| C_ZERO, |a, b| a + b)
            .re;
    }
    let Some(table) = phase.table else {
        let mut fbuf = [C_ZERO; EXPVAL_BLOCK];
        let mut wbuf = [C_ZERO; EXPVAL_BLOCK];
        let mut acc = C_ZERO;
        for k0 in (0..own.len()).step_by(EXPVAL_BLOCK) {
            let blk = EXPVAL_BLOCK.min(own.len() - k0);
            phase.fill(&mut fbuf[..blk], base + k0);
            crate::simd::flip_weights_block(&mut wbuf[..blk], own, partner, k0, flip);
            for j in 0..blk {
                acc += wbuf[j] * fbuf[j];
            }
        }
        return acc.re;
    };
    // `f` is real here, so only `Re(w)·f` reaches the real part: the
    // streamed fold adds `w.re·f.re − w.im·(+0.0)`, which differs from
    // `w.re·f` at most in the sign of a zero, and an accumulator that
    // starts at `+0.0` never holds `−0.0` — same bits, half the
    // arithmetic. A run of the table is contiguous up to a fixed xor `c`
    // (as is the partner side), so nothing is gathered or buffered and the
    // add chain is the only serial dependency; `j ^ c < run` because both
    // are below the power of two `run`, the `&` only tells the compiler.
    let run = own.len().min(table.max_run());
    let mut acc = 0.0;
    for k0 in (0..own.len()).step_by(run) {
        let (f, cf) = table.run(base + k0, run);
        let own = &own[k0..k0 + run];
        match flip {
            None => {
                for (j, a) in own.iter().enumerate() {
                    acc += a.norm_sqr() * f[(j ^ cf) & (run - 1)];
                }
            }
            Some(m) => {
                let p0 = (k0 ^ m) & !(run - 1);
                let (partner, cm) = (&partner[p0..p0 + run], m & (run - 1));
                for (j, b) in own.iter().enumerate() {
                    // Re(conj(a)·b) = a.re·b.re − (−a.im)·b.im, exactly.
                    let a = partner[(j ^ cm) & (run - 1)];
                    acc += (a.re * b.re + a.im * b.im) * f[(j ^ cf) & (run - 1)];
                }
            }
        }
    }
    acc
}

/// Result of a full energy evaluation, with the gate accounting that
/// paper Fig 3 compares.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnergyEval {
    /// The energy `Re⟨H⟩` (identity terms included by the caller's
    /// grouping; see [`energy_cached`]).
    pub energy: f64,
    /// Logical (pre-fusion) gates charged to this evaluation — the paper's
    /// Fig 3 cost metric, independent of how much the plan layer fuses.
    pub gates_applied: u64,
}

/// Baseline: re-run the ansatz before every measurement group. The ansatz
/// is compiled to a plan ONCE (binding and fusion are per-θ, not per-group)
/// but still *executed* once per group — that re-preparation is the cost
/// paper Fig 3 charges this strategy.
pub fn energy_non_caching(
    ansatz: &Circuit,
    params: &[f64],
    groups: &[MeasurementGroup],
    identity_energy: f64,
) -> Result<EnergyEval> {
    let mut ex = Executor::new();
    let plan = ExecPlan::compile(ansatz, params)?;
    let mut energy = identity_energy;
    let mut gates_applied = 0u64;
    for g in groups {
        let mut state = ex.run_plan(&plan)?;
        gates_applied += plan.stats().gates_in as u64;
        let basis = group_basis_circuit(ansatz.n_qubits(), g)?;
        ex.run_on(&basis, &[], &mut state)?;
        gates_applied += basis.len() as u64;
        energy += diagonal_group_energy_with_diagonalized(&state, g);
    }
    Ok(EnergyEval {
        energy: ensure_finite_energy(energy, "non-caching group evaluation")?,
        gates_applied,
    })
}

/// Caching execution: one ansatz run, then per-group basis changes applied
/// to copies of the cached state (§4.1). The ansatz runs through its
/// compiled plan; basis-change circuits are tiny and concrete, so they run
/// gate-by-gate.
pub fn energy_cached(
    ansatz: &Circuit,
    params: &[f64],
    groups: &[MeasurementGroup],
    identity_energy: f64,
) -> Result<EnergyEval> {
    let mut ex = Executor::new();
    let plan = ExecPlan::compile(ansatz, params)?;
    let cached = ex.run_plan(&plan)?;
    let mut energy = identity_energy;
    let mut gates_applied = plan.stats().gates_in as u64;
    for g in groups {
        let basis = group_basis_circuit(ansatz.n_qubits(), g)?;
        if basis.is_empty() {
            energy += diagonal_group_energy_with_diagonalized(&cached, g);
        } else {
            let mut state = cached.clone();
            ex.run_on(&basis, &[], &mut state)?;
            gates_applied += basis.len() as u64;
            energy += diagonal_group_energy_with_diagonalized(&state, g);
        }
    }
    Ok(EnergyEval {
        energy: ensure_finite_energy(energy, "cached group evaluation")?,
        gates_applied,
    })
}

/// After the group's basis change, each string contributes through its
/// *diagonalized* form (X/Y → Z on the same support).
fn diagonal_group_energy_with_diagonalized(state: &StateVector, group: &MeasurementGroup) -> f64 {
    // Identity terms have empty support and contribute coeff · 1; they are
    // covered by the same formula (parity of empty mask is even).
    let diag_group = MeasurementGroup {
        terms: group
            .terms
            .iter()
            .map(|&(c, s)| (c, nwq_circuit::basis::diagonalized(&s)))
            .collect(),
        basis: group.basis.clone(),
    };
    diagonal_group_energy(state, &diag_group)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nwq_circuit::ParamExpr;
    use nwq_pauli::grouping::{group_qubit_wise, group_singletons};
    use nwq_pauli::PauliOp;

    fn toy_ansatz() -> Circuit {
        let mut c = Circuit::new(2);
        c.ry(0, ParamExpr::var(0)).cx(0, 1).rz(1, ParamExpr::var(1));
        c
    }

    fn check_all_strategies_agree(h: &PauliOp, params: &[f64]) {
        let ansatz = toy_ansatz();
        let groups = group_qubit_wise(h);
        let singles = group_singletons(h);
        let direct = {
            let s = crate::executor::simulate(&ansatz, params).unwrap();
            s.energy(h).unwrap()
        };
        let nc = energy_non_caching(&ansatz, params, &groups, 0.0).unwrap();
        let ca = energy_cached(&ansatz, params, &groups, 0.0).unwrap();
        let nc_s = energy_non_caching(&ansatz, params, &singles, 0.0).unwrap();
        assert!(
            (nc.energy - direct).abs() < 1e-10,
            "non-caching {} vs {}",
            nc.energy,
            direct
        );
        assert!(
            (ca.energy - direct).abs() < 1e-10,
            "cached {} vs {}",
            ca.energy,
            direct
        );
        assert!((nc_s.energy - direct).abs() < 1e-10);
        // Caching must never use more gates.
        assert!(ca.gates_applied <= nc.gates_applied);
    }

    #[test]
    fn strategies_agree_on_toy_hamiltonian() {
        let h = PauliOp::parse("1.0 ZZ + 1.0 XX").unwrap();
        check_all_strategies_agree(&h, &[0.3, -0.7]);
        check_all_strategies_agree(&h, &[1.2, 0.0]);
    }

    #[test]
    fn strategies_agree_with_y_terms_and_identity() {
        let h = PauliOp::parse("0.5 YY + 0.25 ZI + 0.125 II + 0.3 XY").unwrap();
        check_all_strategies_agree(&h, &[0.9, 0.4]);
    }

    #[test]
    fn caching_gate_savings_grow_with_terms() {
        // Many groups: caching runs the ansatz once instead of per group.
        let h = PauliOp::parse("1.0 XX + 1.0 YY + 1.0 ZZ + 0.5 XZ + 0.5 ZX").unwrap();
        let ansatz = toy_ansatz();
        let groups = group_singletons(&h);
        let nc = energy_non_caching(&ansatz, &[0.4, 0.2], &groups, 0.0).unwrap();
        let ca = energy_cached(&ansatz, &[0.4, 0.2], &groups, 0.0).unwrap();
        // Non-caching pays ansatz gates per group.
        let ansatz_len = ansatz.len() as u64;
        assert!(nc.gates_applied >= groups.len() as u64 * ansatz_len);
        assert!(ca.gates_applied < nc.gates_applied);
        assert!((nc.energy - ca.energy).abs() < 1e-10);
    }

    #[test]
    fn identity_energy_offset_applies() {
        let h = PauliOp::parse("1.0 ZZ").unwrap();
        let groups = group_qubit_wise(&h);
        let e = energy_cached(&toy_ansatz(), &[0.0, 0.0], &groups, 2.5).unwrap();
        // θ=0 ansatz leaves |00⟩ (up to the rz phase): ⟨ZZ⟩=1 ⇒ 1 + 2.5.
        assert!((e.energy - 3.5).abs() < 1e-10);
    }

    #[test]
    fn diagonal_group_single_pass_matches_direct() {
        // Purely diagonal Hamiltonian needs zero basis-change gates.
        let h = PauliOp::parse("0.7 ZZ + 0.2 ZI + 0.1 IZ").unwrap();
        let groups = group_qubit_wise(&h);
        assert_eq!(groups.len(), 1);
        let ansatz = toy_ansatz();
        let ca = energy_cached(&ansatz, &[0.8, 0.1], &groups, 0.0).unwrap();
        let direct = crate::executor::simulate(&ansatz, &[0.8, 0.1])
            .unwrap()
            .energy(&h)
            .unwrap();
        assert!((ca.energy - direct).abs() < 1e-10);
        // Only the ansatz gates were applied — no basis changes.
        assert_eq!(ca.gates_applied, ansatz.len() as u64);
    }

    #[test]
    fn batched_direct_matches_per_term_direct() {
        let ansatz = toy_ansatz();
        for h in [
            PauliOp::parse("1.0 ZZ + 1.0 XX").unwrap(),
            PauliOp::parse("0.5 YY + 0.25 ZI + 0.125 II + 0.3 XY").unwrap(),
            PauliOp::parse("1.0 XX + 1.0 YY + 1.0 ZZ + 0.5 XZ + 0.5 ZX + 0.1 IZ").unwrap(),
        ] {
            for params in [[0.3, -0.7], [1.2, 0.0], [0.9, 0.4]] {
                let s = crate::executor::simulate(&ansatz, &params).unwrap();
                let per_term = s.energy(&h).unwrap();
                let batched = energy_direct_batched(&s, &h).unwrap();
                assert!(
                    (batched - per_term).abs() < 1e-12,
                    "batched {batched} vs per-term {per_term}"
                );
            }
        }
    }

    #[test]
    fn batched_direct_groups_by_flip_mask() {
        // ZZ, ZI, IZ, II all have flip-mask 0; XX has its own: 2 sweeps
        // where per-term does 5 (the counters are pinned in
        // tests/telemetry_counters.rs).
        let h = PauliOp::parse("0.7 ZZ + 0.2 ZI + 0.1 IZ + 0.05 II + 1.0 XX").unwrap();
        let sizes: Vec<usize> = flip_groups(&h).iter().map(|g| g.terms.len()).collect();
        assert_eq!(sizes, [4, 1]);
        let s = crate::executor::simulate(&toy_ansatz(), &[0.8, 0.1]).unwrap();
        let e = energy_direct_batched(&s, &h).unwrap();
        let per_term = s.energy(&h).unwrap();
        assert!((e - per_term).abs() < 1e-12);
    }

    #[test]
    fn batched_direct_either_side_of_the_dispatch_floor() {
        let floor = nwq_common::PAR_MIN_AMPS.trailing_zeros() as usize;
        for n in [floor - 1, floor] {
            batched_direct_matches_per_term(n);
        }
    }

    fn batched_direct_matches_per_term(n: usize) {
        let mut ansatz = Circuit::new(n);
        for q in 0..n {
            ansatz.h(q);
        }
        ansatz.cx(0, n - 1).rz(1, 0.4);
        let h = PauliOp::parse(&format!(
            "0.5 {}X + 0.25 Z{} + 0.125 {}",
            "I".repeat(n - 1),
            "I".repeat(n - 1),
            "Z".repeat(n)
        ))
        .unwrap();
        let s = crate::executor::simulate(&ansatz, &[]).unwrap();
        let per_term = s.energy(&h).unwrap();
        let batched = energy_direct_batched(&s, &h).unwrap();
        assert!((batched - per_term).abs() < 1e-12);
    }

    #[test]
    fn sharded_flip_group_reduction_matches_batched_direct() {
        // 4-qubit register sharded over 4 "ranks" (2 local qubits): sum of
        // per-rank flip-group partials must reproduce the single-node
        // batched energy.
        let n = 4;
        let n_local = 2;
        let n_ranks = 1usize << (n - n_local);
        let mut ansatz = Circuit::new(n);
        for q in 0..n {
            ansatz.h(q);
        }
        ansatz.cx(0, 3).ry(1, 0.7).rzz(2, 3, -0.4).cz(0, 2);
        let h = PauliOp::parse("0.7 ZZZZ + 0.3 XIXI + 0.2 IYZX + 0.1 ZIII + 0.05 IIII").unwrap();
        let s = crate::executor::simulate(&ansatz, &[]).unwrap();
        let single = energy_direct_batched(&s, &h).unwrap();
        let full = s.amplitudes();
        let part = full.len() / n_ranks;
        let shards: Vec<&[C64]> = (0..n_ranks)
            .map(|r| &full[r * part..(r + 1) * part])
            .collect();
        let mut total = 0.0;
        for phase in GroupPhase::of(h.prepared()) {
            for (r, own) in shards.iter().enumerate() {
                let partner = shards[r ^ (phase.mask() >> n_local) as usize];
                total += shard_group_partial(own, partner, r, n_local, phase);
            }
        }
        assert!(
            (total - single).abs() < 1e-12,
            "sharded {total} vs single {single}"
        );
    }

    /// A normalized state with no structure the readout could exploit.
    fn dense_state(n: usize, seed: u64) -> StateVector {
        let mut amps: Vec<C64> = (0..1usize << n)
            .map(|i| {
                let t = (i as f64 * 0.37 + seed as f64 * 1.3).sin();
                C64::new(t, (t * 2.1 + 0.4).cos())
            })
            .collect();
        let norm = amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
        for a in amps.iter_mut() {
            *a = *a * (1.0 / norm);
        }
        StateVector::from_amplitudes(amps).unwrap()
    }

    /// The contract of the prepared observable: folding the tables gives
    /// the bits of refilling the phase (zero-budget preparation), and both
    /// agree with the per-term reference.
    fn assert_paths_agree(states: &[StateVector], op: &PauliOp) {
        let streaming = PreparedObservable::with_budget(op, 0);
        assert_eq!(streaming.num_tables(), 0);
        for s in states {
            let e = energy_direct_batched(s, op).unwrap();
            let streamed = energy_prepared(s, op, &streaming).unwrap();
            assert_eq!(e.to_bits(), streamed.to_bits(), "table vs streaming");
            let per_term = s.energy(op).unwrap();
            assert!((e - per_term).abs() < 1e-12, "{e} vs per-term {per_term}");
        }
    }

    /// Hermitian operator from `(x_mask, z_mask, coeff, even_y)` specs;
    /// `even_y` turns one Y into an X where needed, so the term's
    /// effective coefficient is real and its group can be tabulated.
    fn hermitian_op(n: usize, specs: &[(u64, u64, f64, bool)]) -> PauliOp {
        let terms = specs
            .iter()
            .map(|&(x, mut z, c, even_y)| {
                if even_y && (x & z).count_ones() % 2 == 1 {
                    z &= !(1 << (x & z).trailing_zeros());
                }
                let s = nwq_pauli::PauliString::from_masks(n, x, z).unwrap();
                (C64::real(c), s)
            })
            .collect();
        PauliOp::from_terms(n, terms)
    }

    #[test]
    fn prepared_tables_fold_to_streaming_bits_on_edge_operators() {
        let n = 5;
        let states = [dense_state(n, 1), dense_state(n, 2), dense_state(n, 3)];
        // Identity only; one diagonal group; every term its own mask.
        let identity = PauliOp::scalar(n, C64::real(-1.25));
        let diagonal = PauliOp::parse("0.7 ZZIII + 0.2 IZIZI - 0.4 IIIIZ + 0.1 IIIII").unwrap();
        let distinct = PauliOp::parse("0.5 XIIII + 0.3 IXIIZ - 0.2 YYIII + 0.9 XXXXX").unwrap();
        for (op, groups) in [(&identity, 1), (&diagonal, 1), (&distinct, 4)] {
            let p = op.prepared();
            assert_eq!((p.groups().len(), p.num_tables()), (groups, groups));
            assert_paths_agree(&states, op);
        }
        assert_paths_agree(&states, &PauliOp::zero(n));
    }

    #[test]
    fn prepared_tables_either_side_of_the_dispatch_floor() {
        // Below the floor the fold is the serial one on every host; at the
        // floor a multi-thread pool reduces in parts. Tables and streaming agree bitwise on
        // both sides, and both stay within 1e-12 of the per-term sum.
        let floor = nwq_common::PAR_MIN_AMPS.trailing_zeros() as usize;
        for n in [floor - 1, floor] {
            let top = 1u64 << (n - 1);
            let op = hermitian_op(
                n,
                &[
                    (0, top | 0b11, 0.7, true),
                    (0, 0, -0.3, true),
                    (top | 1, 0b1000_0000, 0.25, true),
                    (top | 1, top | 0b100_0001, -0.5, true),
                    (0b110_0000, 0b110_0000, 0.4, true),
                    (0b110, 0b010, 0.6, false),
                ],
            );
            // The odd-Y term's group streams; the rest are tabulated.
            let p = op.prepared();
            assert_eq!((p.groups().len(), p.num_tables()), (4, 3));
            assert_paths_agree(&[dense_state(n, 5)], &op);
        }
    }

    #[test]
    fn non_hermitian_operator_takes_the_streaming_fallback() {
        // An anti-Hermitian ADAPT-style generator plus a complex-weighted
        // term: no group has a real symmetric phase.
        let op = PauliOp::from_terms(
            3,
            vec![
                (
                    C64::imag(0.5),
                    nwq_pauli::PauliString::parse("XYI").unwrap(),
                ),
                (
                    C64::imag(-0.5),
                    nwq_pauli::PauliString::parse("YXI").unwrap(),
                ),
                (
                    C64::new(0.3, -0.2),
                    nwq_pauli::PauliString::parse("IIX").unwrap(),
                ),
                (
                    C64::imag(0.1),
                    nwq_pauli::PauliString::parse("ZZI").unwrap(),
                ),
            ],
        );
        assert_eq!(op.prepared().num_tables(), 0);
        let s = dense_state(3, 9);
        let e = energy_direct_batched(&s, &op).unwrap();
        let reference = s.expectation(&op).unwrap().re;
        assert!((e - reference).abs() < 1e-12, "{e} vs {reference}");
        assert_paths_agree(&[s], &op);
    }

    #[test]
    fn edited_operator_does_not_read_stale_tables() {
        let s = dense_state(2, 4);
        let mut h = PauliOp::parse("0.7 ZZ + 0.2 XX + 0.001 YY + 0.002 IZ").unwrap();
        let before = energy_direct_batched(&s, &h).unwrap();
        assert_eq!(h.truncate(0.01), 2);
        let fresh = PauliOp::parse("0.7 ZZ + 0.2 XX").unwrap();
        let after = energy_direct_batched(&s, &h).unwrap();
        assert_ne!(after.to_bits(), before.to_bits());
        assert_eq!(
            after.to_bits(),
            energy_direct_batched(&s, &fresh).unwrap().to_bits()
        );
        h.simplify(0.5);
        let zz = PauliOp::parse("0.7 ZZ").unwrap();
        assert_eq!(
            energy_direct_batched(&s, &h).unwrap().to_bits(),
            energy_direct_batched(&s, &zz).unwrap().to_bits()
        );
    }

    mod random_operators {
        use super::*;
        use proptest::prelude::*;

        /// `(n, amplitudes of two states, term specs)` for 2–10 qubits.
        #[allow(clippy::type_complexity)]
        fn arb_case() -> impl Strategy<Value = (usize, Vec<(f64, f64)>, Vec<(u64, u64, f64, bool)>)>
        {
            (2..11usize).prop_flat_map(|n| {
                let amps = proptest::collection::vec((-1.0..1.0f64, -1.0..1.0f64), 2 << n);
                // Few distinct masks on small registers, so groups have
                // several terms; one term in eight keeps an odd Y count.
                let term = (0..1u64 << n, 0..1u64 << n, -1.0..1.0f64, 0..8u8)
                    .prop_map(|(x, z, c, k)| (x, z, c, k != 0));
                (
                    proptest::strategy::Just(n),
                    amps,
                    proptest::collection::vec(term, 1..24),
                )
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn table_fold_is_bitwise_streaming_and_matches_per_term(
                (n, amps, specs) in arb_case(),
            ) {
                let op = hermitian_op(n, &specs);
                let states: Vec<StateVector> = amps
                    .chunks(1 << n)
                    .map(|half| {
                        let norm = half.iter().map(|(r, i)| r * r + i * i).sum::<f64>().sqrt();
                        let scale = if norm > 1e-9 { 1.0 / norm } else { 0.0 };
                        let amps = half.iter().map(|&(r, i)| C64::new(r, i) * scale).collect();
                        StateVector::from_amplitudes(amps).unwrap()
                    })
                    .collect();
                assert_paths_agree(&states, &op);
            }
        }
    }

    #[test]
    fn batched_direct_rejects_non_finite_energy() {
        let mut s = crate::executor::simulate(&toy_ansatz(), &[0.1, 0.2]).unwrap();
        s.amplitudes_mut()[0] = nwq_common::C64::new(f64::NAN, 0.0);
        let h = PauliOp::parse("1.0 ZZ").unwrap();
        let e = energy_direct_batched(&s, &h).unwrap_err();
        assert!(matches!(e, Error::Numerical(_)), "{e}");
    }

    #[test]
    fn batched_direct_dimension_mismatch_rejected() {
        let s = crate::executor::simulate(&toy_ansatz(), &[0.1, 0.2]).unwrap();
        let h = PauliOp::parse("1.0 ZZZ").unwrap();
        assert!(energy_direct_batched(&s, &h).is_err());
    }

    #[test]
    fn large_register_parallel_reduction() {
        let n = 13;
        let mut ansatz = Circuit::new(n);
        for q in 0..n {
            ansatz.h(q);
        }
        let label = format!("{}{}", "Z".repeat(2), "I".repeat(n - 2));
        let h = PauliOp::parse(&format!("1.0 {label}")).unwrap();
        let groups = group_qubit_wise(&h);
        let e = energy_cached(&ansatz, &[], &groups, 0.0).unwrap();
        // Uniform superposition: ⟨ZZ…⟩ = 0.
        assert!(e.energy.abs() < 1e-10);
    }
}
