//! `water8_lbfgs_adjoint` — the 8-qubit water model's UCCSD ansatz (26
//! parameters, 3300 gates, 361 terms) minimised by L-BFGS on adjoint
//! gradients, from a seeded start near Hartree–Fock.
//!
//! The same statevec layer as the other VQE workloads, used *backwards*:
//! dagger tape, inverse replay, bra-matrix-ket reductions. A forward-kernel
//! or plan change that costs the adjoint path shows here and nowhere else.
//! The circuit shape is fixed, so template work and bind are negligible.

use super::{err, Outcome, RunCfg, SampleCounts, TraceCommon, VqeLayers};
use crate::backends::{DecompBackend, SharedTracer, Timed};
use crate::rng::Rng;
use crate::span::{Layer, Tracer};
use nwq_chem::{molecules, uccsd};
use nwq_core::backend::{
    Backend, CachedMeasureBackend, DirectBackend, GradientBackend, NonCachingBackend,
};
use nwq_core::exact::{ground_energy_sector_default, Sector};
use nwq_core::vqe::{run_vqe_grad, GradSource, VqeProblem, VqeResult};
use nwq_opt::Lbfgs;
use nwq_statevec::{plan_cache, simd};
use std::time::Instant;

const ORBITALS: usize = 4;
const ELECTRONS: usize = 4;
const BUDGET: usize = 4000;
const START_SPREAD: f64 = 0.05;
const ENERGY_TOL_HA: f64 = 1e-6;

pub(super) struct Water8 {
    pub problem: VqeProblem,
    pub exact: f64,
}

/// Integrals → Jordan–Wigner → UCCSD → exact reference, each in a span.
pub(super) fn build(tracer: &SharedTracer) -> Result<Water8, String> {
    let mol = Tracer::scope(tracer, Layer::ChemIntegrals, || {
        molecules::water_model(ORBITALS, ELECTRONS)
    });
    let hamiltonian =
        Tracer::scope(tracer, Layer::ChemJw, || mol.to_qubit_hamiltonian()).map_err(err)?;
    let ansatz = Tracer::scope(tracer, Layer::ChemAnsatz, || {
        uccsd::uccsd_ansatz(hamiltonian.n_qubits(), ELECTRONS)
    })
    .map_err(err)?;
    let exact = Tracer::scope(tracer, Layer::ChemExactRef, || {
        ground_energy_sector_default(&hamiltonian, Sector::closed_shell(ELECTRONS))
    })
    .map_err(err)?;
    Ok(Water8 {
        problem: VqeProblem {
            hamiltonian,
            ansatz,
        },
        exact,
    })
}

fn start_point(rng: &mut Rng, n_params: usize) -> Vec<f64> {
    (0..n_params)
        .map(|_| rng.range(-START_SPREAD, START_SPREAD))
        .collect()
}

fn solve(
    problem: &VqeProblem,
    backend: &mut dyn GradientBackend,
    x0: &[f64],
) -> Result<VqeResult, String> {
    run_vqe_grad(
        problem,
        backend,
        &mut Lbfgs::default(),
        GradSource::Adjoint,
        x0,
        BUDGET,
    )
    .map_err(err)
}

/// Paper §4.1 / §4.2 as reproducible rungs: evaluations per second of each
/// backend over one fixed θ list, each rung's energies within 1e-10 of the
/// rung before (bitwise for the scalar/SIMD pair).
fn ablation_ladder(w: &Water8, seed: u64, out: &mut Outcome) -> Result<(), String> {
    let mut rng = Rng::new(seed, 3);
    let n = w.problem.ansatz.n_params();
    let thetas: Vec<Vec<f64>> = (0..3)
        .map(|_| (0..n).map(|_| rng.range(-0.3, 0.3)).collect())
        .collect();
    // Sweeps the list until 0.3 s have gone by (the non-caching rung needs
    // one sweep; the direct rungs need hundreds to be timed at all).
    let rung = |backend: &mut dyn Backend| -> Result<(f64, Vec<f64>), String> {
        let start = Instant::now();
        let mut evals = 0usize;
        let mut energies = Vec::new();
        while energies.is_empty() || start.elapsed().as_secs_f64() < 0.3 {
            energies.clear();
            for theta in &thetas {
                backend.invalidate_cache();
                energies.push(
                    backend
                        .energy(&w.problem.ansatz, theta, &w.problem.hamiltonian)
                        .map_err(err)?,
                );
                evals += 1;
            }
        }
        Ok((evals as f64 / start.elapsed().as_secs_f64(), energies))
    };
    let (noncaching, e_nc) = rung(&mut NonCachingBackend::new())?;
    let (cached, e_cm) = rung(&mut CachedMeasureBackend::new())?;
    let (direct, e_d) = rung(&mut DirectBackend::new())?;
    simd::set_force_scalar(true);
    let scalar = rung(&mut DirectBackend::new());
    simd::set_force_scalar(false);
    let (direct_scalar, e_ds) = scalar?;

    let close = |a: &[f64], b: &[f64]| a.iter().zip(b).all(|(x, y)| (x - y).abs() <= 1e-10);
    out.check(close(&e_nc, &e_cm), || {
        format!("ablation: cached {e_cm:?} not within 1e-10 of non-caching {e_nc:?}")
    });
    out.check(close(&e_cm, &e_d), || {
        format!("ablation: direct {e_d:?} not within 1e-10 of cached {e_cm:?}")
    });
    out.check(
        e_d.iter()
            .zip(&e_ds)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        || format!("ablation: scalar {e_ds:?} not bitwise equal to SIMD {e_d:?}"),
    );
    let m = &mut out.metrics;
    m.set("ablation.noncaching_evals_per_s", noncaching);
    m.set("ablation.cached_evals_per_s", cached);
    m.set("ablation.direct_evals_per_s", direct);
    m.set("ablation.direct_scalar_evals_per_s", direct_scalar);
    Ok(())
}

pub fn run(cfg: RunCfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let tracer = SharedTracer::new(super::new_tracer().into());

    // Everything before the first timed solve: chemistry, exact reference,
    // and one cold gradient (forward template + dagger tape compile, state
    // allocation).
    let (w, setup_s) = super::timed_setup(|| {
        plan_cache::clear();
        let w = build(&tracer)?;
        let x0 = vec![0.0; w.problem.ansatz.n_params()];
        DirectBackend::new()
            .energy_and_gradient(&w.problem.ansatz, &x0, &w.problem.hamiltonian)
            .map_err(err)?;
        Ok(w)
    })?;
    let chem_setup = super::take_setup_chem(&tracer);

    let n_params = w.problem.ansatz.n_params();
    let cpu_before = crate::host::cpu_times_s();
    // Plain and traced solves draw the same sequence of start points, so
    // solve i of one kind is comparable bit for bit with solve i of the
    // other, and the first traced solve's counts repeat for a seed.
    let (mut rng_plain, mut rng_traced) = (Rng::new(cfg.seed, 2), Rng::new(cfg.seed, 2));
    let mut plain: Vec<VqeResult> = Vec::new();
    let mut gates_applied: Vec<u64> = Vec::new();
    let mut traced: Vec<VqeResult> = Vec::new();
    let mut counts: Vec<SampleCounts> = Vec::new();
    let (plain_s, traced_s) = super::interleave(
        cfg,
        || {
            let x0 = start_point(&mut rng_plain, n_params);
            let start = Instant::now();
            let mut backend = DirectBackend::new();
            let result = solve(&w.problem, &mut backend, &x0)?;
            let t = start.elapsed().as_secs_f64();
            gates_applied.push(backend.stats().gates_applied);
            plain.push(result);
            Ok(t)
        },
        || {
            if traced.is_empty() {
                // The first traced solve pays the template and dagger-tape
                // builds, like the first solve of a process.
                plan_cache::clear();
            }
            let x0 = start_point(&mut rng_traced, n_params);
            let start = Instant::now();
            let mut backend = Timed::new(DecompBackend::new(tracer.clone()), tracer.clone());
            let result = Tracer::scope(&tracer, Layer::Driver, || {
                solve(&w.problem, &mut backend, &x0)
            })?;
            let t = start.elapsed().as_secs_f64();
            let mut c = SampleCounts::default();
            c.absorb(&backend);
            c.evals = result.evaluations as u64;
            c.iterations = backend.energies.len() as u64;
            c.evals_to_accuracy = super::evals_to_accuracy(&backend.energies, w.exact);
            counts.push(c);
            traced.push(result);
            Ok(t)
        },
    )?;

    let solved = |r: &VqeResult| (r.energy - w.exact).abs() <= ENERGY_TOL_HA;
    let ops = (plain.len() + traced.len()) as u64;
    let ok_ops = plain.iter().chain(&traced).filter(|r| solved(r)).count() as u64;

    if !cfg.trace {
        let samples: Vec<super::Sample> = (0..plain.len())
            .map(|i| super::Sample {
                seconds: plain_s[i],
                evals: plain[i].evaluations as f64,
                ops: 1,
                ok_ops: u64::from(solved(&plain[i])),
                amp_updates: (gates_applied[i] << w.problem.ansatz.n_qubits()) as f64,
                amp_seconds: plain_s[i],
            })
            .collect();
        super::fill_batch(&mut out.metrics, setup_s, &samples);
    } else {
        out.check(
            traced.iter().zip(&plain).all(|(a, b)| {
                a.energy.to_bits() == b.energy.to_bits() && a.evaluations == b.evaluations
            }),
            || "decomposed backend is not bitwise equal to DirectBackend over a solve".into(),
        );

        // adjoint.bind_s: the dagger-tape bind is inside
        // `energy_and_gradient`, so it is timed by replaying it alone.
        let adjoint = plan_cache::adjoint_for(&w.problem.ansatz).map_err(err)?;
        let bind_began = Instant::now();
        const BIND_REPLAYS: u32 = 50;
        for _ in 0..BIND_REPLAYS {
            std::hint::black_box(adjoint.bind(&traced[0].params).map_err(err)?);
        }
        let bind_s = bind_began.elapsed().as_secs_f64() / f64::from(BIND_REPLAYS);

        ablation_ladder(&w, cfg.seed, &mut out)?;

        let m = &mut out.metrics;
        let t = tracer.borrow();
        let bw_64m = TraceCommon {
            tracer: &t,
            traced_s: &traced_s,
            plain_s: &plain_s,
            cpu_before,
        }
        .fill(m);
        VqeLayers {
            tracer: &t,
            first: counts[0],
            amp_updates: counts.iter().map(|c| c.amp_updates).sum(),
            traced_samples: traced.len(),
            n_qubits: w.problem.ansatz.n_qubits(),
            h_terms: w.problem.hamiltonian.num_terms(),
            flip_groups: nwq_statevec::expval::flip_groups(&w.problem.hamiltonian).len(),
            ansatz_gates: w.problem.ansatz.len(),
            bw_64m_gbs: bw_64m,
        }
        .fill(m);
        for (name, seconds) in chem_setup {
            m.set(name, seconds);
        }
        let grads_per_sample =
            counts.iter().map(|c| c.decomp.grads).sum::<u64>() as f64 / counts.len() as f64;
        m.set("adjoint.bind_s", bind_s * grads_per_sample);
        m.set(
            "core.energy_err_ha",
            plain
                .iter()
                .chain(&traced)
                .map(|r| (r.energy - w.exact).abs())
                .fold(0.0, f64::max),
        );
        let all_s: Vec<f64> = plain_s.iter().chain(&traced_s).copied().collect();
        super::fill_solve_p90(m, &all_s);
        super::fill_latency(m, &all_s.iter().map(|t| t * 1e3).collect::<Vec<_>>());
        m.set("fail_frac", (ops - ok_ops) as f64 / ops as f64);
    }
    out.attempted = ops;
    out.failed = ops - ok_ops;
    Ok(out)
}
