//! Integration: the full Fig 2 pipeline on H2/STO-3G, across backends.

use nwq_chem::downfold::downfold_to_active;
use nwq_chem::molecules::h2_sto3g;
use nwq_chem::uccsd::uccsd_ansatz;
use nwq_core::backend::{
    Backend, CachedMeasureBackend, DirectBackend, DistributedBackend, NonCachingBackend,
};
use nwq_core::exact::{ground_energy_default, ground_energy_sector_default, Sector};
use nwq_core::vqe::{run_vqe, VqeProblem};
use nwq_opt::{NelderMead, Optimizer};
use nwq_pauli::PauliOp;

fn h2_problem() -> (VqeProblem, f64, f64) {
    let mol = h2_sto3g();
    let h = mol.to_qubit_hamiltonian().expect("JW");
    let exact = ground_energy_default(&h).expect("Lanczos");
    let problem = VqeProblem {
        hamiltonian: h,
        ansatz: uccsd_ansatz(4, 2).expect("UCCSD"),
    };
    (problem, exact, mol.hf_total_energy())
}

#[test]
fn h2_vqe_reaches_chemical_accuracy_direct_backend() {
    let (problem, exact, hf) = h2_problem();
    let mut backend = DirectBackend::new();
    let mut opt = NelderMead::for_vqe();
    let x0 = vec![0.0; problem.ansatz.n_params()];
    let r = run_vqe(&problem, &mut backend, &mut opt, &x0, 4000).expect("VQE");
    assert!((r.energy - exact).abs() < 1.6e-3, "{} vs {exact}", r.energy);
    assert!(r.energy < hf, "no correlation recovered");
    assert!(r.energy >= exact - 1e-9, "variational bound violated");
}

#[test]
fn all_exact_backends_agree_along_the_optimization_path() {
    let (problem, _, _) = h2_problem();
    // Fixed parameter probes, including the known H2 optimum region.
    for theta in [[0.0, 0.0, 0.0], [0.05, -0.02, 0.11], [0.0, 0.0, -0.22]] {
        let mut direct = DirectBackend::new();
        let reference = direct
            .energy(&problem.ansatz, &theta, &problem.hamiltonian)
            .expect("direct energy");
        let mut others: Vec<Box<dyn Backend>> = vec![
            Box::new(NonCachingBackend::new()),
            Box::new(CachedMeasureBackend::new()),
            Box::new(DistributedBackend::new(2)),
            Box::new(DistributedBackend::new(4)),
        ];
        for b in others.iter_mut() {
            let e = b
                .energy(&problem.ansatz, &theta, &problem.hamiltonian)
                .expect("backend energy");
            assert!(
                (e - reference).abs() < 1e-9,
                "{} disagrees at {theta:?}: {e} vs {reference}",
                b.name()
            );
        }
    }
}

#[test]
fn workflow_and_manual_pipeline_agree() {
    // The Fig 2 pipeline with nothing to fold: downfolding H2 to its own
    // two orbitals reproduces the bare problem.
    let mol = h2_sto3g();
    let (active, _) = downfold_to_active(&mol, 0, 2).expect("downfold");
    let h = active.to_qubit_hamiltonian().expect("JW");
    assert_eq!(h.n_qubits(), 4);
    assert!(h.num_terms() > 4);
    let folded_exact = ground_energy_sector_default(&h, Sector::closed_shell(active.n_electrons()))
        .expect("Lanczos");
    let folded = VqeProblem {
        ansatz: uccsd_ansatz(h.n_qubits(), active.n_electrons()).expect("UCCSD"),
        hamiltonian: h,
    };
    let (problem, exact, hf) = h2_problem();
    let run = |problem: &VqeProblem| {
        let mut backend = DirectBackend::new();
        let mut opt = NelderMead::for_vqe();
        let x0 = vec![0.0; problem.ansatz.n_params()];
        run_vqe(problem, &mut backend, &mut opt, &x0, 4000).expect("VQE")
    };
    let (wf, manual) = (run(&folded), run(&problem));
    assert!((wf.energy - manual.energy).abs() < 1e-6);
    assert!((folded_exact - exact).abs() < 1e-8);
    assert!((wf.energy - folded_exact).abs() < 1.6e-3);
    assert!(wf.energy < hf);
}

#[test]
fn caching_backend_saves_gates_on_a_real_optimization() {
    // Run the same short optimization on caching and non-caching
    // backends; the cached path must apply far fewer gates (Fig 3's
    // claim exercised end-to-end).
    let (problem, _, _) = h2_problem();
    let budget = 120;
    let run = |backend: &mut dyn Backend| {
        let mut opt = NelderMead::for_vqe();
        let x0 = vec![0.0; problem.ansatz.n_params()];
        let mut objective = |theta: &[f64]| {
            backend
                .energy(&problem.ansatz, theta, &problem.hamiltonian)
                .expect("energy evaluates")
        };
        opt.minimize(&mut objective, &x0, budget);
    };
    let mut non_caching = NonCachingBackend::new();
    run(&mut non_caching);
    let mut cached = CachedMeasureBackend::new();
    run(&mut cached);
    let mut direct = DirectBackend::new();
    run(&mut direct);
    let g_nc = non_caching.stats().gates_applied;
    let g_ca = cached.stats().gates_applied;
    let g_d = direct.stats().gates_applied;
    assert!(g_nc > 3 * g_ca, "non-caching {g_nc} vs cached {g_ca}");
    assert!(g_ca > g_d, "cached {g_ca} vs direct {g_d}");
}

#[test]
fn vqe_on_parsed_textbook_hamiltonian() {
    // The paper's Eq. 4 toy Hamiltonian, end to end from a text label.
    let h = PauliOp::parse("1.0 ZZ + 1.0 XX").expect("parses");
    let mut ansatz = nwq_circuit::Circuit::new(2);
    ansatz
        .ry(0, nwq_circuit::ParamExpr::var(0))
        .cx(0, 1)
        .ry(1, nwq_circuit::ParamExpr::var(1));
    let exact = ground_energy_default(&h).expect("Lanczos");
    let problem = VqeProblem {
        hamiltonian: h,
        ansatz,
    };
    let mut backend = DirectBackend::new();
    let mut opt = NelderMead::default();
    let r = run_vqe(&problem, &mut backend, &mut opt, &[1.0, 2.5], 2500).expect("VQE");
    assert!((r.energy - exact).abs() < 1e-5);
}
