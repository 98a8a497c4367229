//! Cross-crate resilience tests: checkpoint→restart trajectory identity
//! (property-tested over the kill point and optimizer), end-to-end fault
//! injection through the full VQE stack, and per-fault-class detection by
//! the numerical health guards.

use nwq_circuit::{Circuit, ParamExpr};
use nwq_common::Error;
use nwq_core::backend::DirectBackend;
use nwq_core::resilience::{
    run_vqe_with, CheckpointConfig, FaultSpec, FaultyBackend, ResilienceOptions, ResumeState,
};
use nwq_core::vqe::{run_vqe, VqeProblem, VqeResult};
use nwq_dist::{run_sharded, run_sharded_resilient, FaultSchedule, RecoveryOptions, ShardOptions};
use nwq_opt::{NelderMead, Optimizer, Spsa};
use nwq_pauli::PauliOp;
use nwq_statevec::NormGuard;
use proptest::prelude::*;
use std::path::PathBuf;

fn toy_problem() -> VqeProblem {
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

fn make_optimizer(which: bool) -> Box<dyn Optimizer> {
    if which {
        Box::new(NelderMead::default())
    } else {
        Box::new(Spsa {
            a: 0.3,
            ..Default::default()
        })
    }
}

fn tmp_checkpoint(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("nwq-restart-{}-{tag}.json", std::process::id()))
}

fn assert_bitwise_equal(a: &VqeResult, b: &VqeResult) {
    assert_eq!(a.energy.to_bits(), b.energy.to_bits());
    assert_eq!(a.evaluations, b.evaluations);
    assert_eq!(a.params.len(), b.params.len());
    for (x, y) in a.params.iter().zip(&b.params) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    assert_eq!(a.history, b.history);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Killing a run at ANY point and resuming from its checkpoint must
    /// reproduce the uninterrupted trajectory bitwise, for both a
    /// deterministic simplex optimizer and seeded SPSA.
    #[test]
    fn kill_anywhere_resume_is_bitwise_identical(
        kill_after in 1usize..120,
        use_nelder_mead in proptest::bool::ANY,
        x0a in -1.5..1.5f64,
        x0b in -1.5..1.5f64,
    ) {
        let problem = toy_problem();
        let x0 = [x0a, x0b];
        let max_evals = 160;
        let clean = {
            let mut backend = DirectBackend::new();
            let mut opt = make_optimizer(use_nelder_mead);
            run_vqe(&problem, &mut backend, &mut *opt, &x0, max_evals).unwrap()
        };
        let path = tmp_checkpoint(&format!("prop-{kill_after}-{use_nelder_mead}"));
        let killed = {
            let mut backend = DirectBackend::new();
            let mut opt = make_optimizer(use_nelder_mead);
            let opts = ResilienceOptions {
                checkpoint: Some(CheckpointConfig::new(&path)),
                abort_after_evals: Some(kill_after),
                ..Default::default()
            };
            run_vqe_with(&problem, &mut backend, &mut *opt, &x0, max_evals, &opts)
        };
        match killed {
            // Kill point inside the run: resume and compare bitwise.
            Err(Error::Interrupted { checkpoint: Some(_), .. }) => {
                let resumed = {
                    let mut backend = DirectBackend::new();
                    let mut opt = make_optimizer(use_nelder_mead);
                    let opts = ResilienceOptions {
                        resume: Some(ResumeState::load(&path).unwrap()),
                        ..Default::default()
                    };
                    run_vqe_with(&problem, &mut backend, &mut *opt, &x0, max_evals, &opts)
                        .unwrap()
                };
                assert_bitwise_equal(&resumed, &clean);
            }
            // Run converged before the kill point: must match the clean run.
            Ok(r) => assert_bitwise_equal(&r, &clean),
            Err(other) => panic!("unexpected failure: {other}"),
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn h2_uccsd_vqe_converges_through_ten_percent_faults() {
    let m = nwq_chem::molecules::h2_sto3g();
    let h = m.to_qubit_hamiltonian().unwrap();
    let exact =
        nwq_core::exact::ground_energy_sector_default(&h, nwq_core::exact::Sector::closed_shell(2))
            .unwrap();
    let problem = VqeProblem {
        hamiltonian: h,
        ansatz: nwq_chem::uccsd::uccsd_ansatz(4, 2).unwrap(),
    };
    let mut backend = FaultyBackend::wrap(DirectBackend::new(), FaultSpec::eval_failures(0.1, 7));
    let mut opt = NelderMead::for_vqe();
    let x0 = vec![0.0; problem.ansatz.n_params()];
    let r = run_vqe_with(
        &problem,
        &mut backend,
        &mut opt,
        &x0,
        4000,
        &ResilienceOptions::default(),
    )
    .unwrap();
    assert!(
        (r.energy - exact).abs() < 1.6e-3,
        "faulted VQE {} vs exact {exact}",
        r.energy
    );
    assert!(backend.fault_stats().eval_failures > 0);
}

// --- per-fault-class detection: every fault the injector can plant is ---
// --- caught by a guard somewhere downstream.                          ---

#[test]
fn rank_loss_is_surfaced_as_transient_backend_error() {
    let mut c = Circuit::new(4);
    c.h(0).cx(0, 1).cx(1, 2).cx(2, 3);
    // A rank death with no recovery budget is a lost rank: the run aborts.
    let no_recovery = RecoveryOptions {
        max_recoveries: 0,
        ..RecoveryOptions::default()
    };
    let e = run_sharded_resilient(
        &c,
        &[],
        4,
        &ShardOptions::default(),
        &no_recovery,
        &FaultSchedule::kill(1, 2),
    )
    .unwrap_err();
    assert!(matches!(e, Error::Backend(_)), "{e}");
    assert!(e.is_transient(), "{e}");
}

#[test]
fn corrupted_exchange_is_caught_by_the_norm_guard() {
    let mut c = Circuit::new(4);
    c.h(3).cx(3, 0).cx(0, 2); // gates on global qubits at 4 ranks
    let mut sharded = run_sharded(&c, &[], 4, &ShardOptions::default()).unwrap();
    sharded
        .corrupt_amplitude(2, 1, nwq_common::C64::new(f64::NAN, f64::NAN))
        .unwrap();
    let corrupted = sharded.gather();
    // Feed the corrupted state through a strictly guarded executor sweep:
    // the non-finite amplitudes must be rejected as a numerical error.
    let mut ex = nwq_statevec::Executor::with_guard(NormGuard::strict());
    let mut state = corrupted;
    let id = Circuit::new(4);
    let e = ex.run_on(&id, &[], &mut state).unwrap_err();
    assert!(matches!(e, Error::Numerical(_)), "{e}");
}

#[test]
fn norm_drift_is_repaired_by_the_norm_guard() {
    let mut c = Circuit::new(4);
    c.h(3).cx(3, 0).cx(0, 2);
    let mut sharded = run_sharded(&c, &[], 4, &ShardOptions::default()).unwrap();
    sharded.scale_partition(0, 1.001).unwrap();
    let drifted = sharded.gather();
    assert!((drifted.norm_sqr() - 1.0).abs() > 1e-9);
    let mut ex = nwq_statevec::Executor::with_guard(NormGuard::strict());
    let mut state = drifted;
    let id = Circuit::new(4);
    ex.run_on(&id, &[], &mut state).unwrap();
    assert!(
        (state.norm_sqr() - 1.0).abs() < 1e-12,
        "guard must renormalize"
    );
}

#[test]
fn injected_nan_energy_is_detected_and_retried_end_to_end() {
    let problem = toy_problem();
    let spec = FaultSpec {
        nan_amplitude: 0.15,
        seed: 11,
        ..FaultSpec::default()
    };
    let mut backend = FaultyBackend::wrap(DirectBackend::new(), spec);
    let mut opt = NelderMead::default();
    let r = run_vqe_with(
        &problem,
        &mut backend,
        &mut opt,
        &[1.0, 2.5],
        2000,
        &ResilienceOptions::default(),
    )
    .unwrap();
    assert!(r.energy.is_finite());
    assert!((r.energy + 2.0).abs() < 1e-4);
    assert!(backend.fault_stats().nan_amplitudes > 0);
}
