//! The VQE driver — the classical–quantum loop of paper §3.1.

use crate::backend::{Backend, GradientBackend};
use nwq_circuit::Circuit;
use nwq_common::Result;
use nwq_opt::{GradOptimizer, Optimizer};
use nwq_pauli::PauliOp;
use nwq_telemetry::JsonValue;

/// A VQE problem instance: observable plus parameterized ansatz.
#[derive(Clone, Debug)]
pub struct VqeProblem {
    /// The Hermitian observable whose ground energy is sought.
    pub hamiltonian: PauliOp,
    /// The parameterized state-preparation circuit.
    pub ansatz: Circuit,
}

/// Outcome of a VQE run.
#[derive(Clone, Debug)]
pub struct VqeResult {
    /// Minimized energy.
    pub energy: f64,
    /// Optimal parameters.
    pub params: Vec<f64>,
    /// Energy evaluations consumed.
    pub evaluations: usize,
    /// Whether the optimizer reported convergence.
    pub converged: bool,
    /// Best-so-far energy after each evaluation (monotone non-increasing).
    pub history: Vec<f64>,
}

/// How the gradient-driven VQE drivers obtain `∂E/∂θ`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GradSource {
    /// Analytic adjoint differentiation: the full gradient from one
    /// forward sweep, one `H|ψ⟩` application, and one backward
    /// inverse-replay — about four statevector-evolution equivalents
    /// regardless of the parameter count. Requires a
    /// [`GradientBackend`].
    Adjoint,
    /// Two-term shift rule `∂E/∂θ_j = [E(θ+s·e_j) − E(θ−s·e_j)] / denom`,
    /// evaluated with `E(θ)` as one backend batch of `2·n + 1` points
    /// ([`nwq_opt::shift_rule_gradient`]). Exact
    /// only when the shift matches the generator spectrum — see the
    /// constructors.
    ParameterShift {
        /// Per-parameter shift `s`.
        shift: f64,
        /// Divisor applied to the energy difference.
        denom: f64,
    },
    /// Central finite differences with the given step (a fallback for
    /// parameters with no known shift rule).
    FiniteDifference(f64),
}

impl GradSource {
    /// The π/2 shift rule, exact for rotation generators with eigenvalues
    /// ±1 (hardware-efficient RX/RY/RZ layers). **Silently returns zero**
    /// for π-periodic fermionic excitation parameters — use
    /// [`GradSource::shift_excitations`] for UCCSD-style ansätze.
    pub fn shift_rotations() -> Self {
        GradSource::ParameterShift {
            shift: std::f64::consts::FRAC_PI_2,
            denom: 2.0,
        }
    }

    /// The π/4 shift rule, exact for fermionic single/double excitation
    /// generators (eigenvalues {0, ±i}, π-periodic energy) — the UCCSD
    /// case.
    pub fn shift_excitations() -> Self {
        GradSource::ParameterShift {
            shift: std::f64::consts::FRAC_PI_4,
            denom: 1.0,
        }
    }

    /// Stable identifier used in checkpoints and reports.
    pub fn name(&self) -> &'static str {
        match self {
            GradSource::Adjoint => "adjoint",
            GradSource::ParameterShift { .. } => "parameter-shift",
            GradSource::FiniteDifference(_) => "finite-difference",
        }
    }

    /// Cost of one fused value-and-gradient evaluation in
    /// energy-evaluation equivalents.
    pub fn cost(&self, n_params: usize) -> usize {
        match self {
            GradSource::Adjoint => 4,
            _ => 2 * n_params + 1,
        }
    }

    /// Checkpoint-fingerprint encoding: resuming is only sound when the
    /// gradients are computed the same way.
    pub(crate) fn fingerprint_json(&self) -> JsonValue {
        let mut fields = vec![("name".into(), JsonValue::Str(self.name().into()))];
        match *self {
            GradSource::Adjoint => {}
            GradSource::ParameterShift { shift, denom } => {
                fields.push(("shift".into(), JsonValue::Float(shift)));
                fields.push(("denom".into(), JsonValue::Float(denom)));
            }
            GradSource::FiniteDifference(eps) => {
                fields.push(("eps".into(), JsonValue::Float(eps)));
            }
        }
        JsonValue::Object(fields)
    }
}

/// Runs VQE: minimizes `⟨ψ(θ)|H|ψ(θ)⟩` over θ with the given backend and
/// optimizer, starting from `x0` (pass zeros for a HF start).
///
/// Backend failures abort the run promptly (after the default transient
/// retry budget) instead of silently poisoning the optimizer with infinite
/// objective values; see [`crate::resilience::run_vqe_with`] for
/// checkpointing and custom retry policies.
pub fn run_vqe(
    problem: &VqeProblem,
    backend: &mut dyn Backend,
    optimizer: &mut dyn Optimizer,
    x0: &[f64],
    max_evals: usize,
) -> Result<VqeResult> {
    crate::resilience::run_vqe_with(
        problem,
        backend,
        optimizer,
        x0,
        max_evals,
        &crate::resilience::ResilienceOptions::default(),
    )
}

/// Runs VQE driven by gradients: the optimizer consumes fused
/// energy-and-gradient evaluations whose cost (in energy-evaluation
/// equivalents, counted against `max_evals`) depends on `source` —
/// ≈ 4 per gradient for [`GradSource::Adjoint`] independent of the
/// parameter count, `2·n + 1` for the shift/finite-difference rules.
///
/// See [`crate::resilience::run_vqe_grad_with`] for checkpointing and
/// custom retry policies.
pub fn run_vqe_grad(
    problem: &VqeProblem,
    backend: &mut dyn GradientBackend,
    optimizer: &mut dyn GradOptimizer,
    source: GradSource,
    x0: &[f64],
    max_evals: usize,
) -> Result<VqeResult> {
    crate::resilience::run_vqe_grad_with(
        problem,
        backend,
        optimizer,
        source,
        x0,
        max_evals,
        &crate::resilience::ResilienceOptions::default(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{DirectBackend, SamplingBackend};
    use crate::exact::ground_energy_default;
    use nwq_chem::molecules::h2_sto3g;
    use nwq_chem::uccsd::uccsd_ansatz;
    use nwq_circuit::ParamExpr;
    use nwq_opt::{NelderMead, Spsa};

    fn toy_problem() -> VqeProblem {
        // H = ZZ + XX with RY/CX ansatz reaches the Bell ground state
        // (E = −2) at θ = ±π/2 … entangler structure: use two params.
        let mut ansatz = Circuit::new(2);
        ansatz
            .ry(0, ParamExpr::var(0))
            .cx(0, 1)
            .ry(1, ParamExpr::var(1));
        VqeProblem {
            hamiltonian: PauliOp::parse("1.0 ZZ + 1.0 XX").unwrap(),
            ansatz,
        }
    }

    #[test]
    fn toy_vqe_reaches_ground_state() {
        let problem = toy_problem();
        let exact = ground_energy_default(&problem.hamiltonian).unwrap();
        let mut backend = DirectBackend::new();
        let mut opt = NelderMead::default();
        // Start in the basin of the global minimum (θ = (π/2, π)); the
        // landscape also has an E = 0 stationary region that traps a
        // simplex started near the origin.
        let r = run_vqe(&problem, &mut backend, &mut opt, &[1.0, 2.5], 2000).unwrap();
        assert!((r.energy - exact).abs() < 1e-5, "{} vs {exact}", r.energy);
        assert!(r.energy >= exact - 1e-9, "variational bound violated");
    }

    #[test]
    fn h2_uccsd_vqe_hits_fci() {
        let m = h2_sto3g();
        let h = m.to_qubit_hamiltonian().unwrap();
        let ansatz = uccsd_ansatz(4, 2).unwrap();
        let exact = ground_energy_default(&h).unwrap();
        let problem = VqeProblem {
            hamiltonian: h,
            ansatz,
        };
        let mut backend = DirectBackend::new();
        let mut opt = NelderMead::for_vqe();
        let x0 = vec![0.0; problem.ansatz.n_params()];
        let r = run_vqe(&problem, &mut backend, &mut opt, &x0, 4000).unwrap();
        // Chemical accuracy vs FCI.
        assert!(
            (r.energy - exact).abs() < 1.6e-3,
            "VQE {} vs FCI {exact}",
            r.energy
        );
        // And below HF (correlation captured).
        assert!(r.energy < m.hf_total_energy() - 1e-4);
    }

    #[test]
    fn history_is_monotone_best_so_far() {
        let problem = toy_problem();
        let mut backend = DirectBackend::new();
        let mut opt = NelderMead::default();
        let r = run_vqe(&problem, &mut backend, &mut opt, &[0.9, 0.4], 300).unwrap();
        for w in r.history.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
        assert_eq!(r.history.len(), r.evaluations);
    }

    #[test]
    fn spsa_with_sampling_backend_improves_energy() {
        let problem = toy_problem();
        let mut backend = SamplingBackend::new(4000, 5);
        let start = {
            let mut b = DirectBackend::new();
            b.energy(&problem.ansatz, &[0.9, 0.4], &problem.hamiltonian)
                .unwrap()
        };
        let mut opt = Spsa {
            a: 0.3,
            ..Default::default()
        };
        let r = run_vqe(&problem, &mut backend, &mut opt, &[0.9, 0.4], 600).unwrap();
        // Check true (noiseless) energy at the found parameters improved.
        let mut b = DirectBackend::new();
        let true_e = b
            .energy(&problem.ansatz, &r.params, &problem.hamiltonian)
            .unwrap();
        assert!(true_e < start, "{true_e} !< {start}");
    }

    #[test]
    fn parameter_count_validated() {
        let problem = toy_problem();
        let mut backend = DirectBackend::new();
        let mut opt = NelderMead::default();
        assert!(run_vqe(&problem, &mut backend, &mut opt, &[0.1], 100).is_err());
    }

    #[test]
    fn non_hermitian_observable_rejected() {
        let mut problem = toy_problem();
        problem.hamiltonian = PauliOp::single(
            nwq_common::C_I,
            nwq_pauli::PauliString::parse("XY").unwrap(),
        );
        let mut backend = DirectBackend::new();
        let mut opt = NelderMead::default();
        assert!(run_vqe(&problem, &mut backend, &mut opt, &[0.0, 0.0], 100).is_err());
    }
}
