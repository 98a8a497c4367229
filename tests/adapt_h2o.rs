//! Integration: ADAPT-VQE convergence on downfolded water-like models
//! (the Fig 5 experiment at test-sized scale; the 12-qubit instance runs
//! in the `figures` binary).

use nwq_chem::downfold::downfold_to_active;
use nwq_chem::molecules::water_model;
use nwq_chem::pool::OperatorPool;
use nwq_core::adapt::{run_adapt_vqe, AdaptConfig, StopReason};
use nwq_core::backend::DirectBackend;
use nwq_core::exact::{ground_energy_sector_default, Sector};
use nwq_opt::NelderMead;

#[test]
fn adapt_reaches_chemical_accuracy_on_8_qubit_water_model() {
    let mol = water_model(4, 4);
    let h = mol.to_qubit_hamiltonian().expect("hamiltonian builds");
    let e_exact = ground_energy_sector_default(&h, Sector::closed_shell(4)).expect("Lanczos");
    let e_hf = mol.hf_total_energy();
    assert!(e_exact < e_hf, "model must have correlation energy");

    let pool = OperatorPool::singles_doubles(8, 4).expect("pool builds");
    let mut backend = DirectBackend::new();
    let mut opt = NelderMead::for_vqe();
    let config = AdaptConfig {
        max_iterations: 12,
        grad_tol: 1e-6,
        inner_max_evals: 1500,
        target_energy: Some(e_exact),
        accuracy: 1e-3,
    };
    let r = run_adapt_vqe(&h, &pool, 4, &mut backend, &mut opt, &config).expect("ADAPT");

    // Fig 5's qualitative claims at this scale:
    // (1) chemical accuracy is reached,
    assert_eq!(
        r.stop_reason,
        StopReason::ReachedAccuracy,
        "dE = {}",
        r.energy - e_exact
    );
    assert!(r.energy - e_exact <= 1e-3);
    // (2) energy decreases monotonically with iteration,
    let mut prev = f64::INFINITY;
    for it in &r.iterations {
        assert!(it.energy <= prev + 1e-9);
        prev = it.energy;
    }
    // (3) one operator (layer) is added per iteration,
    assert_eq!(r.params.len(), r.iterations.len());
    // (4) the result is variational.
    assert!(r.energy >= e_exact - 1e-8);
}

#[test]
fn adapt_workflow_downfolds_then_converges() {
    // Full §2 + §5.3 chain: 5-orbital model → 4-orbital active space
    // (8 qubits) → ADAPT.
    let mol = water_model(5, 4);
    let (active, report) = downfold_to_active(&mol, 0, 4).expect("downfold");
    let h = active.to_qubit_hamiltonian().expect("hamiltonian builds");
    let pool = OperatorPool::singles_doubles(h.n_qubits(), active.n_electrons()).expect("pool");
    let mut backend = DirectBackend::new();
    let mut opt = NelderMead::for_vqe();
    let config = AdaptConfig {
        max_iterations: 10,
        grad_tol: 1e-6,
        inner_max_evals: 1200,
        target_energy: None,
        accuracy: 1e-3,
    };
    let r = run_adapt_vqe(
        &h,
        &pool,
        active.n_electrons(),
        &mut backend,
        &mut opt,
        &config,
    )
    .expect("ADAPT");
    assert_eq!(h.n_qubits(), 8);
    assert_eq!(report.discarded_virtuals, 1);
    assert!(report.external_mp2_energy < 0.0);
    // The ADAPT energy must sit between exact and HF of the active space.
    let e_exact = ground_energy_sector_default(&h, Sector::closed_shell(4)).expect("Lanczos");
    assert!(r.energy >= e_exact - 1e-8);
    assert!(!r.iterations.is_empty());
    let first = r.iterations.first().unwrap().energy;
    let last = r.iterations.last().unwrap().energy;
    assert!(last <= first);
}

#[test]
fn adapt_gradient_screening_prefers_strong_operators() {
    // The first chosen operator must carry the largest HF-state gradient.
    let mol = water_model(4, 4);
    let h = mol.to_qubit_hamiltonian().expect("hamiltonian builds");
    let pool = OperatorPool::singles_doubles(8, 4).expect("pool builds");
    let mut psi = vec![nwq_common::C_ZERO; 1 << 8];
    psi[mol.hf_determinant() as usize] = nwq_common::C_ONE;
    let grads = pool.gradients(&h, &psi).expect("gradients");
    let best_by_grad = grads
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).unwrap())
        .unwrap()
        .0;
    let mut backend = DirectBackend::new();
    let mut opt = NelderMead::for_vqe();
    let config = AdaptConfig {
        max_iterations: 1,
        inner_max_evals: 400,
        ..Default::default()
    };
    let r = run_adapt_vqe(&h, &pool, 4, &mut backend, &mut opt, &config).expect("ADAPT");
    assert_eq!(r.iterations[0].operator, pool.ops[best_by_grad].name);
}
