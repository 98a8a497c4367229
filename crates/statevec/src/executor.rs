//! Circuit execution on the parallel statevector kernels.

use crate::kernels::{
    apply_diag_sweep, apply_mat2, apply_mat4, apply_mat4_prenorm, apply_mat4_shaped, DiagFactor,
};
use crate::plan::{ExecPlan, PlanOp};
use crate::state::StateVector;
use crate::stats::ExecStats;
use nwq_circuit::{Circuit, Gate, GateMatrix};
use nwq_common::{Error, Result};

/// Post-sweep numerical health checks (paper-scale runs accumulate norm
/// drift over millions of kernel sweeps; hardware faults show up as NaN/Inf
/// amplitudes). The check is one `norm_sqr` pass, amortized over
/// `check_interval` circuit runs so the steady-state overhead stays well
/// under 1% of the plan sweeps it guards.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NormGuard {
    /// Master switch; disabled guards cost nothing.
    pub enabled: bool,
    /// Renormalize when `|‖ψ‖² − 1|` exceeds this.
    pub tolerance: f64,
    /// Check once every this many circuit runs (0 is treated as 1).
    pub check_interval: u64,
}

impl Default for NormGuard {
    fn default() -> Self {
        NormGuard {
            enabled: true,
            tolerance: 1e-6,
            check_interval: 8,
        }
    }
}

impl NormGuard {
    /// A guard that checks after every circuit run — what the fault tests
    /// use so injected drift is caught on the very next sweep.
    pub fn strict() -> Self {
        NormGuard {
            enabled: true,
            tolerance: 1e-9,
            check_interval: 1,
        }
    }

    /// A disabled guard (pre-resilience behavior).
    pub fn disabled() -> Self {
        NormGuard {
            enabled: false,
            ..NormGuard::default()
        }
    }
}

/// Executes circuits against statevectors, accumulating gate statistics.
#[derive(Debug, Default)]
pub struct Executor {
    stats: ExecStats,
    guard: NormGuard,
    runs_since_check: u64,
}

impl Executor {
    /// A fresh executor with zeroed counters and the default norm guard.
    pub fn new() -> Self {
        Executor::default()
    }

    /// A fresh executor with an explicit health-check policy.
    pub fn with_guard(guard: NormGuard) -> Self {
        Executor {
            guard,
            ..Executor::default()
        }
    }

    /// The active health-check policy.
    pub fn guard(&self) -> NormGuard {
        self.guard
    }

    /// Replaces the health-check policy.
    pub fn set_guard(&mut self, guard: NormGuard) {
        self.guard = guard;
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    /// Resets the counters.
    pub fn reset_stats(&mut self) {
        self.stats = ExecStats::default();
    }

    /// Amortized post-sweep health check: every `check_interval` circuit
    /// runs, verify the state norm is finite (NaN/Inf → `Error::Numerical`,
    /// the caller's retry layer decides what to do) and renormalize away
    /// accumulated drift beyond the tolerance.
    fn health_check(&mut self, state: &mut StateVector) -> Result<()> {
        if !self.guard.enabled {
            return Ok(());
        }
        self.runs_since_check += 1;
        if self.runs_since_check < self.guard.check_interval.max(1) {
            return Ok(());
        }
        self.runs_since_check = 0;
        nwq_telemetry::counter_add("resilience.norm_checks", 1);
        let norm2 = state.norm_sqr();
        if !norm2.is_finite() {
            nwq_telemetry::counter_add("resilience.nonfinite_detected", 1);
            return Err(Error::Numerical(
                "non-finite amplitudes detected after kernel sweep".into(),
            ));
        }
        if (norm2 - 1.0).abs() > self.guard.tolerance {
            state.normalize()?;
            nwq_telemetry::counter_add("resilience.renormalizations", 1);
        }
        Ok(())
    }

    /// Applies `circuit` (with `params` bound) to `state` in place.
    pub fn run_on(
        &mut self,
        circuit: &Circuit,
        params: &[f64],
        state: &mut StateVector,
    ) -> Result<()> {
        if circuit.n_qubits() != state.n_qubits() {
            return Err(Error::DimensionMismatch {
                expected: state.n_qubits(),
                got: circuit.n_qubits(),
            });
        }
        self.stats.circuits_run += 1;
        nwq_telemetry::counter_add("executor.circuits_run", 1);
        let _span = nwq_telemetry::span!("executor.run");
        let dim = state.len() as u64;
        let mut gates_1q = 0u64;
        let mut gates_2q = 0u64;
        let mut fused = 0u64;
        for gate in circuit.gates() {
            if matches!(gate, Gate::Fused1(..) | Gate::Fused2(..)) {
                self.stats.fused_blocks += 1;
                fused += 1;
            }
            match gate.matrix(params)? {
                GateMatrix::One(q, m) => {
                    apply_mat2(state.amplitudes_mut(), q, &m);
                    self.stats.gates_1q += 1;
                    self.stats.amplitude_updates += dim;
                    gates_1q += 1;
                }
                GateMatrix::Two(a, b, m) => {
                    apply_mat4(state.amplitudes_mut(), a, b, &m);
                    self.stats.gates_2q += 1;
                    self.stats.amplitude_updates += dim;
                    gates_2q += 1;
                }
            }
        }
        nwq_telemetry::counter_add("executor.gates_1q", gates_1q);
        nwq_telemetry::counter_add("executor.gates_2q", gates_2q);
        nwq_telemetry::counter_add("executor.fused_blocks", fused);
        nwq_telemetry::counter_add("executor.amplitude_updates", dim * (gates_1q + gates_2q));
        self.health_check(state)
    }

    /// Runs `circuit` from `|0…0⟩`, returning the final state.
    pub fn run(&mut self, circuit: &Circuit, params: &[f64]) -> Result<StateVector> {
        let mut state = StateVector::zero(circuit.n_qubits());
        self.run_on(circuit, params, &mut state)?;
        Ok(state)
    }

    /// Applies a compiled plan to `state` in place. Every plan op counts as
    /// a fused block; a coalesced diagonal sweep costs one amplitude pass
    /// no matter how many logical gates it carries.
    pub fn run_plan_on(&mut self, plan: &ExecPlan, state: &mut StateVector) -> Result<()> {
        if plan.n_qubits() != state.n_qubits() {
            return Err(Error::DimensionMismatch {
                expected: state.n_qubits(),
                got: plan.n_qubits(),
            });
        }
        self.stats.circuits_run += 1;
        nwq_telemetry::counter_add("executor.circuits_run", 1);
        let _span = nwq_telemetry::span!("executor.run_plan");
        let dim = state.len() as u64;
        let mut gates_1q = 0u64;
        let mut gates_2q = 0u64;
        for (k, op) in plan.ops().iter().enumerate() {
            match op {
                PlanOp::One(q, m) => {
                    apply_mat2(state.amplitudes_mut(), *q, m);
                    gates_1q += 1;
                }
                PlanOp::Two(hi, lo, m) => {
                    // Plans pre-normalize to hi > lo and classify the
                    // matrix shape at bind time.
                    apply_mat4_shaped(state.amplitudes_mut(), *hi, *lo, m, plan.shape_at(k));
                    gates_2q += 1;
                }
                PlanOp::DiagSweep {
                    start,
                    len,
                    two_qubit,
                } => {
                    apply_diag_sweep(
                        state.amplitudes_mut(),
                        &plan.factors()[*start..*start + *len],
                    );
                    if *two_qubit {
                        gates_2q += 1;
                    } else {
                        gates_1q += 1;
                    }
                }
            }
        }
        let ops = plan.len() as u64;
        self.stats.gates_1q += gates_1q;
        self.stats.gates_2q += gates_2q;
        self.stats.fused_blocks += ops;
        self.stats.amplitude_updates += dim * ops;
        nwq_telemetry::counter_add("executor.gates_1q", gates_1q);
        nwq_telemetry::counter_add("executor.gates_2q", gates_2q);
        nwq_telemetry::counter_add("executor.fused_blocks", ops);
        nwq_telemetry::counter_add("executor.amplitude_updates", dim * ops);
        self.health_check(state)
    }

    /// Runs a compiled plan from `|0…0⟩`, returning the final state.
    pub fn run_plan(&mut self, plan: &ExecPlan) -> Result<StateVector> {
        let mut state = StateVector::zero(plan.n_qubits());
        self.run_plan_on(plan, &mut state)?;
        Ok(state)
    }

    /// Un-applies a compiled plan: replays `plan`'s ops in reverse order
    /// with each matrix daggered (diagonal factors conjugated), without
    /// materializing the inverse plan. `run_plan_on(p, s)` followed by
    /// `run_plan_inverse_on(p, s)` returns `s` to its original value up to
    /// floating-point rounding — time-reversed replay for debugging and
    /// the adjoint gradient sweep. Gate accounting matches a forward run
    /// of the inverse plan.
    pub fn run_plan_inverse_on(&mut self, plan: &ExecPlan, state: &mut StateVector) -> Result<()> {
        if plan.n_qubits() != state.n_qubits() {
            return Err(Error::DimensionMismatch {
                expected: state.n_qubits(),
                got: plan.n_qubits(),
            });
        }
        self.stats.circuits_run += 1;
        nwq_telemetry::counter_add("executor.circuits_run", 1);
        nwq_telemetry::counter_add("executor.inverse_runs", 1);
        let _span = nwq_telemetry::span!("executor.run_plan_inverse");
        let dim = state.len() as u64;
        let mut gates_1q = 0u64;
        let mut gates_2q = 0u64;
        let mut conj_factors: Vec<DiagFactor> = Vec::new();
        for op in plan.ops().iter().rev() {
            match op {
                PlanOp::One(q, m) => {
                    apply_mat2(state.amplitudes_mut(), *q, &m.dagger());
                    gates_1q += 1;
                }
                PlanOp::Two(hi, lo, m) => {
                    apply_mat4_prenorm(state.amplitudes_mut(), *hi, *lo, &m.dagger());
                    gates_2q += 1;
                }
                PlanOp::DiagSweep {
                    start,
                    len,
                    two_qubit,
                } => {
                    conj_factors.clear();
                    conj_factors.extend(
                        plan.factors()[*start..*start + *len]
                            .iter()
                            .rev()
                            .map(|f| f.conj()),
                    );
                    apply_diag_sweep(state.amplitudes_mut(), &conj_factors);
                    if *two_qubit {
                        gates_2q += 1;
                    } else {
                        gates_1q += 1;
                    }
                }
            }
        }
        let ops = plan.len() as u64;
        self.stats.gates_1q += gates_1q;
        self.stats.gates_2q += gates_2q;
        self.stats.fused_blocks += ops;
        self.stats.amplitude_updates += dim * ops;
        nwq_telemetry::counter_add("executor.gates_1q", gates_1q);
        nwq_telemetry::counter_add("executor.gates_2q", gates_2q);
        nwq_telemetry::counter_add("executor.fused_blocks", ops);
        nwq_telemetry::counter_add("executor.amplitude_updates", dim * ops);
        self.health_check(state)
    }
}

/// One-shot convenience: run a circuit from `|0…0⟩` without tracking stats.
pub fn simulate(circuit: &Circuit, params: &[f64]) -> Result<StateVector> {
    Executor::new().run(circuit, params)
}

/// One-shot convenience: compile `circuit` against `params` (bind + fuse +
/// diagonal coalescing) and run the plan from `|0…0⟩`. This is the fast
/// path every energy-evaluation loop in `nwq-core` routes through.
pub fn simulate_plan(circuit: &Circuit, params: &[f64]) -> Result<StateVector> {
    let plan = ExecPlan::compile(circuit, params)?;
    Executor::new().run_plan(&plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nwq_circuit::reference;
    use nwq_circuit::ParamExpr;

    #[test]
    fn bell_state_matches_reference() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let fast = simulate(&c, &[]).unwrap();
        let slow = reference::run(&c, &[]).unwrap();
        for (a, b) in fast.amplitudes().iter().zip(&slow) {
            assert!(a.approx_eq(*b, 1e-12));
        }
    }

    #[test]
    fn executor_counts_gates() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).rz(2, 0.3).cz(1, 2);
        let mut ex = Executor::new();
        ex.run(&c, &[]).unwrap();
        let s = ex.stats();
        assert_eq!(s.gates_1q, 2);
        assert_eq!(s.gates_2q, 2);
        assert_eq!(s.total_gates(), 4);
        assert_eq!(s.circuits_run, 1);
        assert_eq!(s.amplitude_updates, 4 * 8);
        ex.reset_stats();
        assert_eq!(ex.stats().total_gates(), 0);
    }

    #[test]
    fn parameterized_execution() {
        let mut c = Circuit::new(1);
        c.ry(0, ParamExpr::var(0));
        // RY(π) |0⟩ = |1⟩.
        let s = simulate(&c, &[std::f64::consts::PI]).unwrap();
        assert!((s.probability(1) - 1.0).abs() < 1e-12);
        assert!(simulate(&c, &[]).is_err());
    }

    #[test]
    fn width_mismatch_rejected() {
        let c = Circuit::new(3);
        let mut st = StateVector::zero(2);
        assert!(Executor::new().run_on(&c, &[], &mut st).is_err());
    }

    #[test]
    fn random_circuit_matches_reference() {
        let mut c = Circuit::new(5);
        c.h(0)
            .cx(0, 3)
            .ry(1, 0.4)
            .rzz(2, 4, -0.8)
            .swap(1, 4)
            .t(2)
            .cz(3, 2)
            .sx(0)
            .cp(4, 0, 1.2)
            .sdg(3);
        let fast = simulate(&c, &[]).unwrap();
        let slow = reference::run(&c, &[]).unwrap();
        for (a, b) in fast.amplitudes().iter().zip(&slow) {
            assert!(a.approx_eq(*b, 1e-10));
        }
    }

    #[test]
    fn plan_execution_counts_sweeps_not_logical_gates() {
        // h t cx on 2 qubits fuses to one block: one sweep of 4 amplitudes.
        let mut c = Circuit::new(2);
        c.h(0).t(0).cx(0, 1);
        let plan = crate::plan::ExecPlan::compile(&c, &[]).unwrap();
        let mut ex = Executor::new();
        let fast = ex.run_plan(&plan).unwrap();
        let s = ex.stats();
        assert_eq!(s.fused_blocks, 1);
        assert_eq!(s.amplitude_updates, 4);
        assert_eq!(s.circuits_run, 1);
        let slow = reference::run(&c, &[]).unwrap();
        for (a, b) in fast.amplitudes().iter().zip(&slow) {
            assert!(a.approx_eq(*b, 1e-12));
        }
    }

    #[test]
    fn plan_width_mismatch_rejected() {
        let plan = crate::plan::ExecPlan::compile(&Circuit::new(3), &[]).unwrap();
        let mut st = StateVector::zero(2);
        assert!(Executor::new().run_plan_on(&plan, &mut st).is_err());
    }

    #[test]
    fn norm_guard_renormalizes_drifted_state() {
        let mut c = Circuit::new(1);
        c.h(0);
        let mut ex = Executor::with_guard(NormGuard::strict());
        let mut st = StateVector::zero(1);
        // Inject multiplicative drift well past the tolerance.
        for a in st.amplitudes_mut() {
            *a = *a * 1.01;
        }
        ex.run_on(&c, &[], &mut st).unwrap();
        assert!((st.norm_sqr() - 1.0).abs() < 1e-12, "{}", st.norm_sqr());
    }

    #[test]
    fn norm_guard_rejects_non_finite_amplitudes() {
        let mut c = Circuit::new(1);
        c.h(0);
        let mut ex = Executor::with_guard(NormGuard::strict());
        let mut st = StateVector::zero(1);
        st.amplitudes_mut()[0] = nwq_common::C64::new(f64::NAN, 0.0);
        let e = ex.run_on(&c, &[], &mut st).unwrap_err();
        assert!(matches!(e, Error::Numerical(_)), "{e}");
    }

    #[test]
    fn disabled_guard_leaves_drift_alone() {
        let mut c = Circuit::new(1);
        c.h(0);
        let mut ex = Executor::with_guard(NormGuard::disabled());
        assert!(!ex.guard().enabled);
        let mut st = StateVector::zero(1);
        for a in st.amplitudes_mut() {
            *a = *a * 2.0;
        }
        ex.run_on(&c, &[], &mut st).unwrap();
        assert!((st.norm_sqr() - 4.0).abs() < 1e-12);
        ex.set_guard(NormGuard::strict());
        ex.run_on(&c, &[], &mut st).unwrap();
        assert!((st.norm_sqr() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fused_circuit_counts_fused_blocks() {
        let mut c = Circuit::new(2);
        c.h(0).t(0).cx(0, 1);
        let (fused, _) = nwq_circuit::fusion::fuse(&c).unwrap();
        let mut ex = Executor::new();
        let fast = ex.run(&fused, &[]).unwrap();
        assert!(ex.stats().fused_blocks > 0);
        let slow = reference::run(&c, &[]).unwrap();
        let f = reference::fidelity(fast.amplitudes(), &slow);
        assert!((f - 1.0).abs() < 1e-10);
    }
}
