//! Integration: alternative ansätze and execution strategies — the
//! hardware-efficient ansatz vs UCCSD, and batched parameter-shift
//! gradients driving a gradient-based VQE.

use nwq_chem::molecules::h2_sto3g;
use nwq_chem::uccsd::uccsd_ansatz;
use nwq_circuit::hea::hardware_efficient_ansatz;
use nwq_core::backend::{Backend, DirectBackend};
use nwq_core::exact::ground_energy_default;
use nwq_core::vqe::{run_vqe, run_vqe_grad, GradSource, VqeProblem, VqeResult};
use nwq_opt::{Adam, NelderMead, Optimizer};

/// Library Adam on shift-rule gradients, with a budget of exactly
/// `gradients` fused evaluations.
fn adam_shift_rule(
    problem: &VqeProblem,
    source: GradSource,
    lr: f64,
    x0: &[f64],
    gradients: usize,
) -> VqeResult {
    let mut adam = Adam {
        lr,
        ..Default::default()
    };
    let budget = gradients * source.cost(problem.ansatz.n_params());
    run_vqe_grad(
        problem,
        &mut DirectBackend::new(),
        &mut adam,
        source,
        x0,
        budget,
    )
    .unwrap()
}

#[test]
fn hea_vqe_solves_toy_hamiltonian() {
    let h = nwq_pauli::PauliOp::parse("1.0 ZZ + 1.0 XX").unwrap();
    let exact = ground_energy_default(&h).unwrap();
    let ansatz = hardware_efficient_ansatz(2, 2).unwrap();
    let problem = VqeProblem {
        hamiltonian: h,
        ansatz,
    };
    let mut backend = DirectBackend::new();
    let mut opt = NelderMead {
        initial_step: 0.4,
        ..Default::default()
    };
    let x0: Vec<f64> = (0..problem.ansatz.n_params())
        .map(|k| 0.3 + 0.1 * k as f64)
        .collect();
    let r = run_vqe(&problem, &mut backend, &mut opt, &x0, 6000).unwrap();
    assert!((r.energy - exact).abs() < 1e-4, "{} vs {exact}", r.energy);
}

#[test]
fn hea_is_shallower_but_less_structured_than_uccsd() {
    // The tradeoff the paper's related work discusses: HEA needs far
    // fewer gates per layer than UCCSD, at the cost of chemical
    // structure.
    let uccsd = uccsd_ansatz(4, 2).unwrap();
    let hea = hardware_efficient_ansatz(4, 2).unwrap();
    assert!(
        hea.len() < uccsd.len() / 3,
        "HEA {} vs UCCSD {}",
        hea.len(),
        uccsd.len()
    );
    assert!(hea.depth() < uccsd.depth());
}

#[test]
fn hea_vqe_on_h2_beats_hartree_fock() {
    // HEA lacks particle-number structure and traps simplex methods in
    // barren regions; exact per-rotation parameter-shift gradients (the
    // π/2 rule IS exact for HEA) with Adam escape them.
    let mol = h2_sto3g();
    let h = mol.to_qubit_hamiltonian().unwrap();
    let exact = ground_energy_default(&h).unwrap();
    let ansatz = hardware_efficient_ansatz(4, 2).unwrap();
    let x0: Vec<f64> = (0..ansatz.n_params())
        .map(|k| 0.3 + 0.17 * (k as f64) * (if k % 2 == 0 { 1.0 } else { -1.0 }))
        .collect();
    let problem = VqeProblem {
        hamiltonian: h,
        ansatz,
    };
    let e = adam_shift_rule(&problem, GradSource::shift_rotations(), 0.08, &x0, 250).energy;
    assert!(
        e < mol.hf_total_energy() - 1e-3,
        "{e} vs HF {}",
        mol.hf_total_energy()
    );
    assert!(e >= exact - 1e-9, "variational bound violated");
}

#[test]
fn batched_gradient_descent_matches_nelder_mead_optimum() {
    // Drive Adam with batched parameter-shift gradients (paper §6.2
    // batching) and confirm it lands on the same H2 minimum as the
    // derivative-free path.
    let mol = h2_sto3g();
    let h = mol.to_qubit_hamiltonian().unwrap();
    let ansatz = uccsd_ansatz(4, 2).unwrap();
    let exact = ground_energy_default(&h).unwrap();

    // UCCSD parameters need the π/4 excitation rule: the π/2 rule
    // returns an exactly zero gradient at the HF point.
    let problem = VqeProblem {
        hamiltonian: h,
        ansatz,
    };
    let x0 = vec![0.0; problem.ansatz.n_params()];
    let e = adam_shift_rule(&problem, GradSource::shift_excitations(), 0.1, &x0, 120).energy;
    assert!(
        (e - exact).abs() < 1.6e-3,
        "batched-gradient VQE {e} vs {exact}"
    );

    // Cross-check against the derivative-free optimum.
    let mut backend = DirectBackend::new();
    let mut nm = NelderMead::for_vqe();
    let mut objective = |x: &[f64]| {
        backend
            .energy(&problem.ansatz, x, &problem.hamiltonian)
            .unwrap()
    };
    let nm_result = nm.minimize(&mut objective, &x0, 4000);
    assert!((e - nm_result.value).abs() < 2e-3);
}
