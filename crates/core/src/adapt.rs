//! ADAPT-VQE (paper §5.3, Fig 5).
//!
//! Instead of a fixed UCCSD circuit, ADAPT-VQE grows the ansatz one
//! operator per iteration: screen the pool by the energy gradient
//! `|⟨ψ|[H, A_k]|ψ⟩|`, append `e^{θ A_k}` for the winner (one new layer
//! per iteration, as the paper notes), re-optimize all parameters, repeat
//! until the largest gradient or the energy improvement stalls.

use crate::backend::Backend;
use crate::resilience::{drive, ResilienceOptions, ResilientEvaluator};
use nwq_chem::pool::OperatorPool;
use nwq_chem::uccsd::{append_generator_exponential, append_hf_state};
use nwq_circuit::Circuit;
use nwq_common::{Error, Result};
use nwq_opt::Optimizer;
use nwq_pauli::PauliOp;
use nwq_statevec::executor::simulate_plan;
use nwq_telemetry::JsonValue;

/// ADAPT-VQE configuration.
#[derive(Clone, Debug)]
pub struct AdaptConfig {
    /// Stop after this many growth iterations.
    pub max_iterations: usize,
    /// Stop when the largest pool gradient magnitude falls below this.
    pub grad_tol: f64,
    /// Inner-loop optimizer evaluation budget per iteration.
    pub inner_max_evals: usize,
    /// Optional energy target: stop once `E − target ≤ accuracy`.
    pub target_energy: Option<f64>,
    /// Accuracy threshold used with `target_energy` (1 mHa = chemical
    /// accuracy in the paper's Fig 5).
    pub accuracy: f64,
}

impl Default for AdaptConfig {
    fn default() -> Self {
        AdaptConfig {
            max_iterations: 30,
            grad_tol: 1e-4,
            inner_max_evals: 3000,
            target_energy: None,
            accuracy: 1e-3,
        }
    }
}

/// One ADAPT iteration record.
#[derive(Clone, Debug)]
pub struct AdaptIteration {
    /// Name of the operator appended this iteration.
    pub operator: String,
    /// Largest pool gradient magnitude at selection time.
    pub max_gradient: f64,
    /// Optimized energy after appending.
    pub energy: f64,
    /// Ansatz gate count after appending.
    pub ansatz_gates: usize,
}

/// Outcome of an ADAPT-VQE run.
#[derive(Clone, Debug)]
pub struct AdaptResult {
    /// Final energy.
    pub energy: f64,
    /// Final parameters (one per appended operator).
    pub params: Vec<f64>,
    /// The grown ansatz circuit.
    pub ansatz: Circuit,
    /// Per-iteration records (Fig 5's series).
    pub iterations: Vec<AdaptIteration>,
    /// Why the loop stopped.
    pub stop_reason: StopReason,
    /// Successful backend energy evaluations across the whole run
    /// (initial HF energy plus every inner-loop evaluation).
    pub total_evaluations: usize,
}

/// Why ADAPT-VQE terminated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// Pool gradients all below tolerance.
    GradientConverged,
    /// Reached the configured accuracy vs the target energy.
    ReachedAccuracy,
    /// Exhausted `max_iterations`.
    IterationLimit,
}

/// Runs ADAPT-VQE for `hamiltonian` with the given pool, starting from the
/// Hartree–Fock determinant of `n_electrons` electrons.
pub fn run_adapt_vqe(
    hamiltonian: &PauliOp,
    pool: &OperatorPool,
    n_electrons: usize,
    backend: &mut dyn Backend,
    optimizer: &mut dyn Optimizer,
    config: &AdaptConfig,
) -> Result<AdaptResult> {
    run_adapt_vqe_with(
        hamiltonian,
        pool,
        n_electrons,
        backend,
        optimizer,
        config,
        &ResilienceOptions::default(),
    )
}

/// [`run_adapt_vqe`] with resilience: checkpoint/restart, bounded retries
/// of transient failures, and prompt abort (wrapped in
/// [`Error::Interrupted`]) once the retry budget is exhausted.
///
/// Restart replays the checkpoint's successful-energy log from the start
/// of the run; because pool screening and the inner optimizers are
/// deterministic given that log, the resumed trajectory — operator
/// selections included — is bitwise identical to an uninterrupted run.
pub fn run_adapt_vqe_with(
    hamiltonian: &PauliOp,
    pool: &OperatorPool,
    n_electrons: usize,
    backend: &mut dyn Backend,
    optimizer: &mut dyn Optimizer,
    config: &AdaptConfig,
    opts: &ResilienceOptions,
) -> Result<AdaptResult> {
    if pool.is_empty() {
        return Err(Error::Invalid("ADAPT pool is empty".into()));
    }
    let _span = nwq_telemetry::span!("adapt.run");
    let fingerprint = adapt_fingerprint(hamiltonian, pool, n_electrons, config);
    drive("adapt", fingerprint, backend, optimizer, opts, |ev, opt| {
        adapt_loop(hamiltonian, pool, n_electrons, opt, config, ev)
    })
}

fn adapt_fingerprint(
    hamiltonian: &PauliOp,
    pool: &OperatorPool,
    n_electrons: usize,
    config: &AdaptConfig,
) -> JsonValue {
    JsonValue::Object(vec![
        (
            "n_qubits".into(),
            JsonValue::Int(hamiltonian.n_qubits() as u64),
        ),
        (
            "h_terms".into(),
            JsonValue::Int(hamiltonian.terms().len() as u64),
        ),
        ("pool_size".into(), JsonValue::Int(pool.ops.len() as u64)),
        ("n_electrons".into(), JsonValue::Int(n_electrons as u64)),
        (
            "max_iterations".into(),
            JsonValue::Int(config.max_iterations as u64),
        ),
        ("grad_tol".into(), JsonValue::Float(config.grad_tol)),
        (
            "inner_max_evals".into(),
            JsonValue::Int(config.inner_max_evals as u64),
        ),
        ("accuracy".into(), JsonValue::Float(config.accuracy)),
        (
            "target_energy".into(),
            config
                .target_energy
                .map_or(JsonValue::Null, JsonValue::Float),
        ),
    ])
}

fn adapt_loop<B: Backend + ?Sized>(
    hamiltonian: &PauliOp,
    pool: &OperatorPool,
    n_electrons: usize,
    optimizer: &mut dyn Optimizer,
    config: &AdaptConfig,
    ev: &mut ResilientEvaluator<'_, B>,
) -> Result<AdaptResult> {
    let n_qubits = hamiltonian.n_qubits();
    let mut ansatz = Circuit::new(n_qubits);
    append_hf_state(&mut ansatz, n_electrons)?;
    let mut params: Vec<f64> = Vec::new();
    let mut chosen: Vec<String> = Vec::new();
    let mut iterations: Vec<AdaptIteration> = Vec::new();
    let mut energy = ev.eval(&ansatz, &params, hamiltonian)?;
    let mut stop_reason = StopReason::IterationLimit;

    for _iter in 0..config.max_iterations {
        let iter_start = std::time::Instant::now();
        // Screening: gradients need the current state. The shared-φ
        // analytic path applies H once for the whole pool instead of
        // forming one H·A commutator per candidate.
        let state = simulate_plan(&ansatz, &params)?;
        let grads = pool.gradients_via_phi(hamiltonian, state.amplitudes())?;
        let (best_k, best_g) = grads
            .iter()
            .enumerate()
            .map(|(k, g)| (k, g.abs()))
            // total_cmp keeps screening panic-free if a corrupted state
            // produces NaN gradients.
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("non-empty pool");
        if best_g < config.grad_tol {
            stop_reason = StopReason::GradientConverged;
            break;
        }
        // Grow the ansatz by one layer.
        append_generator_exponential(&mut ansatz, &pool.ops[best_k].generator, params.len())?;
        chosen.push(pool.ops[best_k].name.clone());
        ev.set_extra(
            "chosen_operators",
            JsonValue::Array(chosen.iter().cloned().map(JsonValue::Str).collect()),
        );
        params.push(0.0);

        // Re-optimize all parameters (warm start from previous optimum).
        let r = optimizer.try_minimize(
            &mut |theta| ev.eval(&ansatz, theta, hamiltonian),
            &params,
            config.inner_max_evals,
        )?;
        params = r.params;
        energy = r.value;
        iterations.push(AdaptIteration {
            operator: pool.ops[best_k].name.clone(),
            max_gradient: best_g,
            energy,
            ansatz_gates: ansatz.len(),
        });
        if nwq_telemetry::enabled() {
            nwq_telemetry::record_iteration(nwq_telemetry::IterationRecord {
                iteration: iterations.len() - 1,
                energy,
                grad_norm: Some(best_g),
                evaluations: r.evals as u64,
                gates: ansatz.len() as u64,
                wall_ms: iter_start.elapsed().as_secs_f64() * 1e3,
                label: Some(pool.ops[best_k].name.clone()),
            });
        }
        if let Some(target) = config.target_energy {
            if energy - target <= config.accuracy {
                stop_reason = StopReason::ReachedAccuracy;
                break;
            }
        }
    }
    Ok(AdaptResult {
        energy,
        params,
        ansatz,
        iterations,
        stop_reason,
        total_evaluations: ev.total_evals(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::DirectBackend;
    use crate::exact::ground_energy_default;
    use nwq_chem::molecules::h2_sto3g;
    use nwq_opt::NelderMead;

    #[test]
    fn h2_adapt_reaches_chemical_accuracy() {
        let m = h2_sto3g();
        let h = m.to_qubit_hamiltonian().unwrap();
        let exact = ground_energy_default(&h).unwrap();
        let pool = OperatorPool::singles_doubles(4, 2).unwrap();
        let mut backend = DirectBackend::new();
        let mut opt = NelderMead::for_vqe();
        let config = AdaptConfig {
            target_energy: Some(exact),
            max_iterations: 6,
            ..Default::default()
        };
        let r = run_adapt_vqe(&h, &pool, 2, &mut backend, &mut opt, &config).unwrap();
        assert!(
            r.energy - exact <= 1e-3,
            "ADAPT {} vs exact {exact}",
            r.energy
        );
        assert_eq!(r.stop_reason, StopReason::ReachedAccuracy);
        // H2's dominant operator is the double excitation; it should be
        // picked first (Brillouin: singles have zero gradient at HF).
        assert_eq!(r.iterations[0].operator, "0,1->2,3");
    }

    #[test]
    fn energies_monotone_non_increasing() {
        let m = h2_sto3g();
        let h = m.to_qubit_hamiltonian().unwrap();
        let pool = OperatorPool::singles_doubles(4, 2).unwrap();
        let mut backend = DirectBackend::new();
        let mut opt = NelderMead::for_vqe();
        let config = AdaptConfig {
            max_iterations: 3,
            ..Default::default()
        };
        let r = run_adapt_vqe(&h, &pool, 2, &mut backend, &mut opt, &config).unwrap();
        let mut prev = f64::INFINITY;
        for it in &r.iterations {
            assert!(it.energy <= prev + 1e-9);
            prev = it.energy;
        }
    }

    #[test]
    fn each_iteration_adds_one_layer() {
        // Paper: "each adaptive iteration increases the ansatz depth by
        // only 1 layer" — gates grow monotonically, one operator at a time.
        let m = h2_sto3g();
        let h = m.to_qubit_hamiltonian().unwrap();
        let pool = OperatorPool::singles_doubles(4, 2).unwrap();
        let mut backend = DirectBackend::new();
        let mut opt = NelderMead::for_vqe();
        let config = AdaptConfig {
            max_iterations: 3,
            grad_tol: 1e-8,
            ..Default::default()
        };
        let r = run_adapt_vqe(&h, &pool, 2, &mut backend, &mut opt, &config).unwrap();
        assert_eq!(r.params.len(), r.iterations.len());
        let mut prev_gates = 0;
        for it in &r.iterations {
            assert!(it.ansatz_gates > prev_gates);
            prev_gates = it.ansatz_gates;
        }
    }

    #[test]
    fn gradient_convergence_stops_loop() {
        // A Hamiltonian whose ground state *is* HF: all gradients vanish.
        let h = PauliOp::parse("-1.0 ZIII - 1.0 IZII + 1.0 IIZI + 1.0 IIIZ").unwrap();
        let pool = OperatorPool::singles_doubles(4, 2).unwrap();
        let mut backend = DirectBackend::new();
        let mut opt = NelderMead::for_vqe();
        let r = run_adapt_vqe(
            &h,
            &pool,
            2,
            &mut backend,
            &mut opt,
            &AdaptConfig::default(),
        )
        .unwrap();
        assert_eq!(r.stop_reason, StopReason::GradientConverged);
        assert!(r.iterations.is_empty());
        assert!((r.energy + 4.0).abs() < 1e-10);
    }

    #[test]
    fn adapt_kill_and_resume_is_bitwise_identical() {
        let m = h2_sto3g();
        let h = m.to_qubit_hamiltonian().unwrap();
        let pool = OperatorPool::singles_doubles(4, 2).unwrap();
        let config = AdaptConfig {
            max_iterations: 3,
            grad_tol: 1e-8,
            inner_max_evals: 400,
            ..Default::default()
        };
        let clean = {
            let mut backend = DirectBackend::new();
            let mut opt = NelderMead::for_vqe();
            run_adapt_vqe(&h, &pool, 2, &mut backend, &mut opt, &config).unwrap()
        };
        let path = std::env::temp_dir().join(format!(
            "nwq-resilience-{}-adapt-kill.json",
            std::process::id()
        ));
        {
            let mut backend = DirectBackend::new();
            let mut opt = NelderMead::for_vqe();
            let opts = crate::resilience::ResilienceOptions {
                checkpoint: Some(crate::resilience::CheckpointConfig::new(&path)),
                abort_after_evals: Some(clean.total_evaluations / 2),
                ..Default::default()
            };
            let err = run_adapt_vqe_with(&h, &pool, 2, &mut backend, &mut opt, &config, &opts)
                .unwrap_err();
            assert!(
                matches!(
                    err,
                    Error::Interrupted {
                        checkpoint: Some(_),
                        ..
                    }
                ),
                "{err}"
            );
        }
        let resumed = {
            let mut backend = DirectBackend::new();
            let mut opt = NelderMead::for_vqe();
            let opts = crate::resilience::ResilienceOptions {
                resume: Some(crate::resilience::ResumeState::load(&path).unwrap()),
                ..Default::default()
            };
            run_adapt_vqe_with(&h, &pool, 2, &mut backend, &mut opt, &config, &opts).unwrap()
        };
        assert_eq!(resumed.energy.to_bits(), clean.energy.to_bits());
        assert_eq!(resumed.total_evaluations, clean.total_evaluations);
        assert_eq!(resumed.iterations.len(), clean.iterations.len());
        for (a, b) in resumed.iterations.iter().zip(&clean.iterations) {
            assert_eq!(a.operator, b.operator);
            assert_eq!(a.energy.to_bits(), b.energy.to_bits());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn analytic_screening_matches_legacy_selection() {
        // The analytic shared-φ screening must reproduce the legacy
        // commutator-expectation loop on the committed H2 pool: same
        // winning operator (index 2, the "0,1->2,3" double excitation),
        // same sign, same magnitude to floating-point accuracy.
        let m = h2_sto3g();
        let h = m.to_qubit_hamiltonian().unwrap();
        let pool = OperatorPool::singles_doubles(4, 2).unwrap();
        let mut ansatz = Circuit::new(4);
        append_hf_state(&mut ansatz, 2).unwrap();
        let state = simulate_plan(&ansatz, &[]).unwrap();
        let legacy = pool.gradients(&h, state.amplitudes()).unwrap();
        let analytic = pool.gradients_via_phi(&h, state.amplitudes()).unwrap();
        assert_eq!(legacy.len(), analytic.len());
        for (l, a) in legacy.iter().zip(&analytic) {
            assert!((l - a).abs() < 1e-12, "{l} vs {a}");
            assert_eq!(l.signum(), a.signum());
        }
        let pick = |g: &[f64]| {
            g.iter()
                .enumerate()
                .max_by(|x, y| x.1.abs().total_cmp(&y.1.abs()))
                .map(|(k, _)| k)
                .unwrap()
        };
        assert_eq!(pick(&legacy), pick(&analytic));
        assert_eq!(pick(&analytic), 2);
        assert_eq!(pool.ops[2].name, "0,1->2,3");
    }

    #[test]
    fn empty_pool_rejected() {
        let h = PauliOp::parse("1.0 ZZ").unwrap();
        let pool = OperatorPool { ops: Vec::new() };
        let mut backend = DirectBackend::new();
        let mut opt = NelderMead::default();
        assert!(run_adapt_vqe(
            &h,
            &pool,
            1,
            &mut backend,
            &mut opt,
            &AdaptConfig::default()
        )
        .is_err());
    }
}
