//! `h2_scan_nm` — SNIPPETS.md Snippet 1's potential-energy scan: 100
//! H2/STO-3G bond lengths, each built from integrals and solved by
//! Nelder–Mead VQE on a fresh `DirectBackend`.
//!
//! A 16-amplitude state gives the kernels almost nothing to do, so this is
//! the overhead-bound regime: plan bind, template lookup, the optimiser,
//! allocation and per-geometry chemistry carry the wall time.

use super::{err, Outcome, RunCfg, SampleCounts, TraceCommon, VqeLayers};
use crate::backends::{DecompBackend, SharedTracer, Timed};
use crate::rng::Rng;
use crate::span::{Layer, Tracer};
use nwq_chem::{sto3g, uccsd};
use nwq_circuit::Circuit;
use nwq_core::backend::{Backend, DirectBackend};
use nwq_core::exact::{ground_energy_sector_default, Sector};
use nwq_core::vqe::{run_vqe, VqeProblem, VqeResult};
use nwq_opt::NelderMead;
use nwq_statevec::plan_cache;
use std::time::Instant;

const GEOMETRIES: usize = 100;
const MAX_EVALS: usize = 300;
/// A geometry fails when its VQE energy is further than this from the
/// exact ground energy of its own Hamiltonian.
const ENERGY_TOL_HA: f64 = 1e-6;

/// 0.5–4.0 bohr in 100 cells, one point per cell, placed by the seed.
fn bond_lengths(seed: u64) -> Vec<f64> {
    let mut rng = Rng::new(seed, 1);
    (0..GEOMETRIES)
        .map(|i| 0.5 + 3.5 * (i as f64 + rng.unit()) / GEOMETRIES as f64)
        .collect()
}

#[derive(Default)]
struct Scan {
    seconds: f64,
    evals: u64,
    gates_applied: u64,
    /// Per geometry: energy and solve time (integrals to converged energy).
    energies: Vec<f64>,
    geometry_s: Vec<f64>,
}

impl Scan {
    fn record(&mut self, began: Instant, result: &VqeResult, gates_applied: u64) {
        self.geometry_s.push(began.elapsed().as_secs_f64());
        self.evals += result.evaluations as u64;
        self.gates_applied += gates_applied;
        self.energies.push(result.energy);
    }
}

/// One scan on the stock path.
fn scan_plain(grid: &[f64], ansatz: &Circuit) -> Result<Scan, String> {
    let start = Instant::now();
    let mut scan = Scan::default();
    let x0 = vec![0.0; ansatz.n_params()];
    for &r in grid {
        let began = Instant::now();
        let hamiltonian = sto3g::h2_molecule(r)
            .and_then(|mol| mol.to_qubit_hamiltonian())
            .map_err(err)?;
        let problem = VqeProblem {
            hamiltonian,
            ansatz: ansatz.clone(),
        };
        let mut backend = DirectBackend::new();
        let result = run_vqe(
            &problem,
            &mut backend,
            &mut NelderMead::for_vqe(),
            &x0,
            MAX_EVALS,
        )
        .map_err(err)?;
        scan.record(began, &result, backend.stats().gates_applied);
    }
    scan.seconds = start.elapsed().as_secs_f64();
    Ok(scan)
}

/// The same scan with every layer boundary inside a span and the backend
/// decomposed.
fn scan_traced(
    grid: &[f64],
    ansatz: &Circuit,
    refs: &[f64],
    tracer: &SharedTracer,
) -> Result<(Scan, SampleCounts), String> {
    let start = Instant::now();
    let mut scan = Scan::default();
    let mut counts = SampleCounts::default();
    let x0 = vec![0.0; ansatz.n_params()];
    for (&r, &exact) in grid.iter().zip(refs) {
        let began = Instant::now();
        let mol =
            Tracer::scope(tracer, Layer::ChemIntegrals, || sto3g::h2_molecule(r)).map_err(err)?;
        let hamiltonian =
            Tracer::scope(tracer, Layer::ChemJw, || mol.to_qubit_hamiltonian()).map_err(err)?;
        let problem = VqeProblem {
            hamiltonian,
            ansatz: ansatz.clone(),
        };
        let mut backend = Timed::new(DecompBackend::new(tracer.clone()), tracer.clone());
        let result = Tracer::scope(tracer, Layer::Driver, || {
            run_vqe(
                &problem,
                &mut backend,
                &mut NelderMead::for_vqe(),
                &x0,
                MAX_EVALS,
            )
        })
        .map_err(err)?;
        scan.record(began, &result, backend.stats().gates_applied);
        counts.absorb(&backend);
        counts.evals += result.evaluations as u64;
        counts.iterations += backend.energies.len() as u64;
        counts.evals_to_accuracy += super::evals_to_accuracy(&backend.energies, exact);
    }
    scan.seconds = start.elapsed().as_secs_f64();
    Ok((scan, counts))
}

struct Ready {
    ansatz: Circuit,
    /// Exact ground energy per geometry.
    refs: Vec<f64>,
    h_terms: usize,
    flip_groups: usize,
}

/// Everything before the first timed scan: the shared UCCSD ansatz, the
/// exact reference of every geometry, and one cold scan (first template
/// compile, allocator and page-cache warm-up).
fn set_up(grid: &[f64], tracer: &SharedTracer) -> Result<Ready, String> {
    plan_cache::clear();
    let ansatz =
        Tracer::scope(tracer, Layer::ChemAnsatz, || uccsd::uccsd_ansatz(4, 2)).map_err(err)?;
    let mut refs = Vec::with_capacity(grid.len());
    let (mut h_terms, mut flip_groups) = (0, 0);
    for &r in grid {
        let h = sto3g::h2_molecule(r)
            .and_then(|mol| mol.to_qubit_hamiltonian())
            .map_err(err)?;
        h_terms = h.num_terms();
        flip_groups = nwq_statevec::expval::flip_groups(&h).len();
        let exact = Tracer::scope(tracer, Layer::ChemExactRef, || {
            ground_energy_sector_default(&h, Sector::closed_shell(2))
        });
        refs.push(exact.map_err(err)?);
    }
    scan_plain(grid, &ansatz)?;
    Ok(Ready {
        ansatz,
        refs,
        h_terms,
        flip_groups,
    })
}

pub fn run(cfg: RunCfg) -> Result<Outcome, String> {
    let grid = bond_lengths(cfg.seed);
    let mut out = Outcome::default();
    let tracer = SharedTracer::new(super::new_tracer().into());
    let (ready, setup_s) = super::timed_setup(|| set_up(&grid, &tracer))?;
    let setup_chem = super::take_setup_chem(&tracer);

    let cpu_before = crate::host::cpu_times_s();
    let mut scans: Vec<Scan> = Vec::new();
    let mut traced: Vec<Scan> = Vec::new();
    let mut counts: Vec<SampleCounts> = Vec::new();
    let (plain_s, traced_s) = super::interleave(
        cfg,
        || {
            scans.push(scan_plain(&grid, &ready.ansatz)?);
            Ok(scans[scans.len() - 1].seconds)
        },
        || {
            if traced.is_empty() {
                // The first traced scan pays the template build, like the
                // first scan of a process.
                plan_cache::clear();
            }
            let (scan, c) = scan_traced(&grid, &ready.ansatz, &ready.refs, &tracer)?;
            counts.push(c);
            traced.push(scan);
            Ok(traced[traced.len() - 1].seconds)
        },
    )?;

    // Output check: every geometry of every scan against its own exact
    // ground energy.
    let geometry_ok = |scan: &Scan| {
        scan.energies
            .iter()
            .zip(&ready.refs)
            .filter(|(e, exact)| (*e - *exact).abs() <= ENERGY_TOL_HA)
            .count() as u64
    };
    let ops = ((scans.len() + traced.len()) * GEOMETRIES) as u64;
    let ok_ops: u64 = scans.iter().chain(&traced).map(geometry_ok).sum();

    if !cfg.trace {
        let samples: Vec<super::Sample> = scans
            .iter()
            .map(|s| super::Sample {
                seconds: s.seconds,
                evals: s.evals as f64,
                ops: GEOMETRIES as u64,
                ok_ops: geometry_ok(s),
                amp_updates: (s.gates_applied << 4) as f64,
                amp_seconds: s.seconds,
            })
            .collect();
        super::fill_batch(&mut out.metrics, setup_s, &samples);
    } else {
        out.check(
            traced.iter().all(|s| {
                s.evals == scans[0].evals
                    && s.energies
                        .iter()
                        .zip(&scans[0].energies)
                        .all(|(a, b)| a.to_bits() == b.to_bits())
            }),
            || "decomposed backend is not bitwise equal to DirectBackend over a scan".into(),
        );

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
            n_qubits: 4,
            h_terms: ready.h_terms,
            flip_groups: ready.flip_groups,
            ansatz_gates: ready.ansatz.len(),
            bw_64m_gbs: bw_64m,
        }
        .fill(m);
        for (name, seconds) in setup_chem {
            m.set(name, seconds);
        }
        m.set(
            "core.energy_err_ha",
            scans
                .iter()
                .chain(&traced)
                .flat_map(|s| s.energies.iter().zip(&ready.refs))
                .map(|(e, exact)| (e - exact).abs())
                .fold(0.0, f64::max),
        );
        let all_s: Vec<f64> = plain_s.iter().chain(&traced_s).copied().collect();
        super::fill_solve_p90(m, &all_s);
        let lat_ms: Vec<f64> = scans
            .iter()
            .flat_map(|s| s.geometry_s.iter().map(|t| t * 1e3))
            .collect();
        super::fill_latency(m, &lat_ms);
        m.set("fail_frac", (ops - ok_ops) as f64 / ops as f64);
    }
    out.attempted = ops;
    out.failed = ops - ok_ops;
    Ok(out)
}
