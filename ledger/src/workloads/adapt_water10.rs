//! `adapt_water10` — the paper's Fig 5 workflow exactly as `nwq adapt`
//! runs it, on the 10-qubit water model (the largest size whose run fits
//! the time cap; the 12-qubit instance takes minutes): singles-and-doubles
//! pool, Nelder–Mead inner loop, grown until the energy is within 1 mHa of
//! the sector-Lanczos ground energy.
//!
//! The circuit shape grows every iteration — one new `PlanTemplate` per
//! iteration — and the Hamiltonian has hundreds of terms, so mid-size
//! evolution, `expval` and pool screening dominate; bind and chemistry
//! set-up are small. The inputs do not depend on the seed: the samples of
//! a run are repeats.

use super::{err, Outcome, RunCfg, SampleCounts, TraceCommon, VqeLayers};
use crate::backends::{DecompBackend, SharedTracer, Timed};
use crate::span::{Layer, Tracer};
use nwq_chem::molecules;
use nwq_chem::pool::OperatorPool;
use nwq_core::adapt::{run_adapt_vqe, AdaptConfig, AdaptResult, StopReason};
use nwq_core::backend::{Backend, DirectBackend};
use nwq_core::exact::{ground_energy_sector_default, Sector};
use nwq_opt::NelderMead;
use nwq_pauli::PauliOp;
use nwq_statevec::plan_cache;
use std::time::Instant;

const ORBITALS: usize = 5;
const ELECTRONS: usize = 4;
/// `nwq adapt`'s default `--max-iter`.
const MAX_ITERATIONS: usize = 12;
/// Growth iterations the seed commit needs to reach 1 mHa; a run that
/// takes a different number found a different operator sequence.
const EXPECTED_ITERATIONS: usize = 11;

struct Ready {
    hamiltonian: PauliOp,
    pool: OperatorPool,
    exact: f64,
    config: AdaptConfig,
}

fn set_up(tracer: &SharedTracer) -> Result<Ready, String> {
    let mol = Tracer::scope(tracer, Layer::ChemIntegrals, || {
        molecules::water_model(ORBITALS, ELECTRONS)
    });
    let hamiltonian =
        Tracer::scope(tracer, Layer::ChemJw, || mol.to_qubit_hamiltonian()).map_err(err)?;
    let pool = Tracer::scope(tracer, Layer::ChemAnsatz, || {
        OperatorPool::singles_doubles(hamiltonian.n_qubits(), ELECTRONS)
    })
    .map_err(err)?;
    let exact = Tracer::scope(tracer, Layer::ChemExactRef, || {
        ground_energy_sector_default(&hamiltonian, Sector::closed_shell(ELECTRONS))
    })
    .map_err(err)?;
    let config = AdaptConfig {
        max_iterations: MAX_ITERATIONS,
        target_energy: Some(exact),
        ..Default::default()
    };
    Ok(Ready {
        hamiltonian,
        pool,
        exact,
        config,
    })
}

/// One ADAPT run from a cold plan cache, as a fresh `nwq adapt` process
/// would see it.
fn adapt(r: &Ready, backend: &mut dyn Backend) -> Result<AdaptResult, String> {
    plan_cache::clear();
    run_adapt_vqe(
        &r.hamiltonian,
        &r.pool,
        ELECTRONS,
        backend,
        &mut NelderMead::for_vqe(),
        &r.config,
    )
    .map_err(err)
}

fn reached(r: &Ready, run: &AdaptResult) -> bool {
    run.stop_reason == StopReason::ReachedAccuracy
        && run.energy - r.exact <= r.config.accuracy
        && run.iterations.len() == EXPECTED_ITERATIONS
}

pub fn run(cfg: RunCfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let tracer = SharedTracer::new(super::new_tracer().into());
    let (ready, setup_s) = super::timed_setup(|| set_up(&tracer))?;
    let chem_setup = super::take_setup_chem(&tracer);

    let cpu_before = crate::host::cpu_times_s();
    let mut plain: Vec<AdaptResult> = Vec::new();
    let mut gates_applied: Vec<u64> = Vec::new();
    let mut traced: Vec<AdaptResult> = Vec::new();
    let mut counts: Vec<SampleCounts> = Vec::new();
    let (plain_s, traced_s) = super::interleave(
        cfg,
        || {
            let start = Instant::now();
            let mut backend = DirectBackend::new();
            let result = adapt(&ready, &mut backend)?;
            let t = start.elapsed().as_secs_f64();
            gates_applied.push(backend.stats().gates_applied);
            plain.push(result);
            Ok(t)
        },
        || {
            let start = Instant::now();
            let mut backend = Timed::new(DecompBackend::new(tracer.clone()), tracer.clone());
            let result = Tracer::scope(&tracer, Layer::Driver, || adapt(&ready, &mut backend))?;
            let t = start.elapsed().as_secs_f64();
            let mut c = SampleCounts::default();
            c.absorb(&backend);
            c.evals = result.total_evaluations as u64;
            c.iterations = result.iterations.len() as u64;
            c.evals_to_accuracy = super::evals_to_accuracy(&backend.energies, ready.exact);
            counts.push(c);
            traced.push(result);
            Ok(t)
        },
    )?;
    let ops = (plain.len() + traced.len()) as u64;
    let ok_ops = plain
        .iter()
        .chain(&traced)
        .filter(|r| reached(&ready, r))
        .count() as u64;

    if !cfg.trace {
        let samples: Vec<super::Sample> = (0..plain.len())
            .map(|i| super::Sample {
                seconds: plain_s[i],
                evals: plain[i].total_evaluations as f64,
                ops: 1,
                ok_ops: u64::from(reached(&ready, &plain[i])),
                amp_updates: (gates_applied[i] << ready.hamiltonian.n_qubits()) as f64,
                amp_seconds: plain_s[i],
            })
            .collect();
        super::fill_batch(&mut out.metrics, setup_s, &samples);
    } else {
        if traced.is_empty() {
            return Err("--seconds is too short for one plain and one traced ADAPT run".into());
        }
        out.check(
            traced.iter().all(|r| {
                r.energy.to_bits() == plain[0].energy.to_bits()
                    && r.total_evaluations == plain[0].total_evaluations
            }),
            || "decomposed backend is not bitwise equal to DirectBackend over an ADAPT run".into(),
        );

        // chem.pool_grad_s: screening happens inside `run_adapt_vqe`, so
        // one pass is timed by replaying it on the final state; a run makes
        // one pass per growth iteration.
        let last = &traced[0];
        let state =
            nwq_statevec::executor::simulate_plan(&last.ansatz, &last.params).map_err(err)?;
        const SCREEN_REPLAYS: u32 = 3;
        let screen_began = Instant::now();
        for _ in 0..SCREEN_REPLAYS {
            std::hint::black_box(
                ready
                    .pool
                    .gradients_via_phi(&ready.hamiltonian, state.amplitudes())
                    .map_err(err)?,
            );
        }
        let screen_s = screen_began.elapsed().as_secs_f64() / f64::from(SCREEN_REPLAYS);

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
            n_qubits: ready.hamiltonian.n_qubits(),
            h_terms: ready.hamiltonian.num_terms(),
            flip_groups: nwq_statevec::expval::flip_groups(&ready.hamiltonian).len(),
            ansatz_gates: last.ansatz.len(),
            bw_64m_gbs: bw_64m,
        }
        .fill(m);
        for (name, seconds) in chem_setup {
            m.set(name, seconds);
        }
        m.set("chem.pool_grad_s", screen_s * last.iterations.len() as f64);
        m.set(
            "core.energy_err_ha",
            plain
                .iter()
                .chain(&traced)
                .map(|r| (r.energy - ready.exact).abs())
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
