//! `nwq` — command-line front end to the NWQ-Sim-rs VQE workflow.
//!
//! ```text
//! nwq vqe   [--molecule h2|h4|water] [--r BOHR] [--orbitals N] [--electrons M]
//!           [--optimizer nm|lbfgs|adam|spsa] [--grad adjoint|shift|fd]
//!           [--max-evals N] [--metrics FILE.json] [resilience flags]
//! nwq adapt [--orbitals N] [--electrons M] [--max-iter K] [--metrics FILE.json]
//!           [resilience flags]
//! nwq qpe   [--r BOHR] [--ancillas N] [--steps N] [--order 1|2] [--metrics FILE.json]
//! nwq fuse  --in FILE.qasm [--out FILE.qasm is unsupported: fused blocks
//!           have no QASM form; stats are printed instead]
//! nwq serve [--addr 127.0.0.1:7878] [--workers N] [--queue-capacity N]
//!           [--max-batch N] [--cache-capacity N] [--aging-ms MS]
//!           [--retries N] [--inject-faults RATE] [--fault-seed SEED]
//!           [--kill-after-evals N] [--metrics FILE.json]
//! nwq client --addr HOST:PORT --op submit|status|result|cancel|stats|drain
//!           [--molecule toy|h2|water] [--job energy|vqe|adapt]
//!           [--params a,b,...] [--x0 a,b,...] [--max-evals N] [--max-iter K]
//!           [--priority low|normal|high] [--deadline-ms MS] [--id N] [--wait 0|1]
//!           [--timeout-ms MS]
//! nwq dist  [--qubits N] [--ranks R] [--layers L]
//!           [--snapshot-every N] [--inject-rank-loss RATE] [--fault-seed SEED]
//!           [--exchange-timeout-ms MS] [--exchange-retries N]
//!           [--metrics FILE.json]
//! nwq info
//! ```
//!
//! Resilience flags (vqe and adapt):
//!
//! ```text
//! --checkpoint FILE        write atomic JSON snapshots to FILE
//! --checkpoint-every N     snapshot cadence in best-energy improvements (10)
//! --resume FILE            resume a previous run from its checkpoint
//! --retries N              transient-failure retry budget per evaluation (5)
//! --inject-faults RATE     inject seeded evaluation failures at RATE
//! --fault-seed SEED        fault-injection RNG seed (12345)
//! --kill-after-evals N     abort after N fresh evaluations (testing hook)
//! ```
//!
//! Every subcommand prints plain-text results; exit code 0 on success,
//! 1 on a domain error, 2 on a usage error. `--metrics FILE.json` enables
//! the nwq-telemetry layer and writes its JSON snapshot on success.

use nwq_chem::molecules::{h2_sto3g, water_model};
use nwq_chem::sto3g::h2_molecule;
use nwq_chem::uccsd::uccsd_ansatz;
use nwq_chem::MolecularIntegrals;
use nwq_core::backend::{Backend, DirectBackend};
use nwq_core::exact::{ground_energy_sector_default, Sector};
use nwq_core::qpe::{run_qpe, QpeConfig};
use nwq_core::resilience::{
    run_vqe_with, CheckpointConfig, FaultSpec, FaultyBackend, ResilienceOptions, ResumeState,
    RetryPolicy,
};
use nwq_core::vqe::{GradSource, VqeProblem};
use nwq_opt::{Adam, GradOptimizer, Lbfgs, NelderMead, Optimizer, Spsa, FD_STEP};
use std::collections::HashMap;
use std::process::ExitCode;

struct Args {
    flags: HashMap<String, String>,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut flags = HashMap::new();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            let key = a
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got {a:?}"))?;
            let val = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            flags.insert(key.to_string(), val.clone());
        }
        Ok(Args { flags })
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value for --{key}: {v:?}")),
        }
    }

    fn str_or(&self, key: &str, default: &str) -> String {
        self.flags
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }
}

fn molecule_from(args: &Args) -> Result<MolecularIntegrals, String> {
    match args.str_or("molecule", "h2").as_str() {
        "h2" => {
            if args.flags.contains_key("r") {
                let r: f64 = args.get("r", 1.4008)?;
                h2_molecule(r).map_err(|e| e.to_string())
            } else {
                Ok(h2_sto3g())
            }
        }
        "h4" => {
            let r: f64 = args.get("r", 1.8)?;
            nwq_chem::sto3g::hydrogen_chain_sto3g(4, r).map_err(|e| e.to_string())
        }
        "water" => {
            let orbitals: usize = args.get("orbitals", 4)?;
            let electrons: usize = args.get("electrons", 4)?;
            Ok(water_model(orbitals, electrons))
        }
        other => Err(format!("unknown molecule {other:?} (expected h2|h4|water)")),
    }
}

fn optimizer_from(args: &Args) -> Result<Box<dyn Optimizer>, String> {
    Ok(match args.str_or("optimizer", "nm").as_str() {
        "nm" => Box::new(NelderMead::for_vqe()),
        "lbfgs" => Box::new(Lbfgs::default()),
        "adam" => Box::new(Adam::default()),
        "spsa" => Box::new(Spsa::default()),
        other => {
            return Err(format!(
                "unknown optimizer {other:?} (expected nm|lbfgs|adam|spsa)"
            ))
        }
    })
}

/// The gradient-capable optimizer for `--grad` runs; Nelder–Mead and SPSA
/// have no use for gradients, so they are rejected up front.
fn grad_optimizer_from(args: &Args) -> Result<Box<dyn GradOptimizer>, String> {
    Ok(match args.str_or("optimizer", "lbfgs").as_str() {
        "lbfgs" => Box::new(Lbfgs::default()),
        "adam" => Box::new(Adam::default()),
        other => {
            return Err(format!(
                "--grad requires a gradient-based optimizer (lbfgs|adam), got {other:?}"
            ))
        }
    })
}

/// How `--grad` runs obtain ∂E/∂θ. `shift` uses the π/4 excitation rule
/// (exact for the UCCSD ansatz the vqe subcommand builds).
fn grad_source_from(args: &Args) -> Result<Option<GradSource>, String> {
    Ok(match args.flags.get("grad").map(String::as_str) {
        None => None,
        Some("adjoint") => Some(GradSource::Adjoint),
        Some("shift") => Some(GradSource::shift_excitations()),
        Some("fd") => Some(GradSource::FiniteDifference(FD_STEP)),
        Some(other) => {
            return Err(format!(
                "unknown gradient source {other:?} (expected adjoint|shift|fd)"
            ))
        }
    })
}

/// Builds [`ResilienceOptions`] from the shared resilience flags.
fn resilience_from(args: &Args) -> Result<ResilienceOptions, String> {
    let mut opts = ResilienceOptions {
        retry: RetryPolicy {
            max_retries: args.get("retries", 5)?,
        },
        ..Default::default()
    };
    if let Some(path) = args.flags.get("checkpoint") {
        opts.checkpoint = Some(CheckpointConfig {
            path: path.into(),
            every_improvements: args.get("checkpoint-every", 10)?,
        });
    }
    if let Some(path) = args.flags.get("resume") {
        let state = ResumeState::load(std::path::Path::new(path)).map_err(|e| e.to_string())?;
        println!(
            "resume  : replaying {} evaluations from {path}",
            state.evaluations()
        );
        opts.resume = Some(state);
    }
    if args.flags.contains_key("kill-after-evals") {
        opts.abort_after_evals = Some(args.get("kill-after-evals", 0)?);
    }
    Ok(opts)
}

/// A [`DirectBackend`], wrapped in fault injection when `--inject-faults`
/// asks for it.
fn backend_from(args: &Args) -> Result<Box<dyn Backend>, String> {
    let rate: f64 = args.get("inject-faults", 0.0)?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("--inject-faults must be in [0, 1], got {rate}"));
    }
    if rate > 0.0 {
        let seed: u64 = args.get("fault-seed", 12345)?;
        println!("faults  : injecting evaluation failures at rate {rate} (seed {seed})");
        Ok(Box::new(FaultyBackend::wrap(
            DirectBackend::new(),
            FaultSpec::eval_failures(rate, seed),
        )))
    } else {
        Ok(Box::new(DirectBackend::new()))
    }
}

fn cmd_vqe(args: &Args) -> Result<(), String> {
    let mol = molecule_from(args)?;
    let max_evals: usize = args.get("max-evals", 4000)?;
    let h = mol.to_qubit_hamiltonian().map_err(|e| e.to_string())?;
    let ansatz = uccsd_ansatz(h.n_qubits(), mol.n_electrons()).map_err(|e| e.to_string())?;
    println!(
        "molecule: {} spatial orbitals, {} electrons -> {} qubits, {} Pauli terms",
        mol.n_spatial(),
        mol.n_electrons(),
        h.n_qubits(),
        h.num_terms()
    );
    println!(
        "ansatz  : UCCSD, {} gates, {} parameters",
        ansatz.len(),
        ansatz.n_params()
    );
    println!("E_HF    : {:+.6} Ha", mol.hf_total_energy());
    // The problem owns the one Hamiltonian the run and the exact
    // reference share, so its prepared observable is built once.
    let problem = VqeProblem {
        hamiltonian: h,
        ansatz,
    };
    let opts = resilience_from(args)?;
    let x0 = vec![0.0; problem.ansatz.n_params()];
    let (r, stats) = match grad_source_from(args)? {
        Some(source) => {
            if args.get("inject-faults", 0.0)? > 0.0 {
                return Err(
                    "--inject-faults is incompatible with --grad (fault injection wraps \
                     the backend in an energy-only decorator)"
                        .into(),
                );
            }
            let mut backend = DirectBackend::new();
            let mut optimizer = grad_optimizer_from(args)?;
            println!(
                "grad    : {} source, {} equivalents per fused gradient",
                source.name(),
                source.cost(problem.ansatz.n_params())
            );
            let r = nwq_core::resilience::run_vqe_grad_with(
                &problem,
                &mut backend,
                &mut *optimizer,
                source,
                &x0,
                max_evals,
                &opts,
            )
            .map_err(|e| e.to_string())?;
            (r, backend.stats())
        }
        None => {
            let mut backend = backend_from(args)?;
            let mut optimizer = optimizer_from(args)?;
            let r = run_vqe_with(
                &problem,
                &mut *backend,
                &mut *optimizer,
                &x0,
                max_evals,
                &opts,
            )
            .map_err(|e| e.to_string())?;
            let stats = backend.stats();
            (r, stats)
        }
    };
    println!(
        "E_VQE   : {:+.6} Ha  ({} evaluations)  bits {:#018x}",
        r.energy,
        r.evaluations,
        r.energy.to_bits()
    );
    if let Some(ckpt) = &opts.checkpoint {
        println!("ckpt    : wrote {}", ckpt.path.display());
    }
    let h = &problem.hamiltonian;
    if h.n_qubits() <= 14 {
        let exact = ground_energy_sector_default(h, Sector::closed_shell(mol.n_electrons()))
            .map_err(|e| e.to_string())?;
        println!(
            "E_exact : {exact:+.6} Ha  (error {:+.2e})",
            r.energy - exact
        );
    }
    println!(
        "backend : {} ansatz runs, {} gates applied",
        stats.ansatz_runs, stats.gates_applied
    );
    Ok(())
}

fn cmd_adapt(args: &Args) -> Result<(), String> {
    let orbitals: usize = args.get("orbitals", 4)?;
    let electrons: usize = args.get("electrons", 4)?;
    let max_iter: usize = args.get("max-iter", 12)?;
    let mol = water_model(orbitals, electrons);
    let h = mol.to_qubit_hamiltonian().map_err(|e| e.to_string())?;
    let exact = ground_energy_sector_default(&h, Sector::closed_shell(electrons))
        .map_err(|e| e.to_string())?;
    let pool = nwq_chem::pool::OperatorPool::singles_doubles(h.n_qubits(), electrons)
        .map_err(|e| e.to_string())?;
    println!(
        "ADAPT-VQE: {} qubits, {} terms, pool {} | E_exact {exact:+.6}",
        h.n_qubits(),
        h.num_terms(),
        pool.len()
    );
    let opts = resilience_from(args)?;
    let mut backend = backend_from(args)?;
    let mut opt = NelderMead::for_vqe();
    let config = nwq_core::adapt::AdaptConfig {
        max_iterations: max_iter,
        target_energy: Some(exact),
        ..Default::default()
    };
    let r = nwq_core::adapt::run_adapt_vqe_with(
        &h,
        &pool,
        electrons,
        &mut *backend,
        &mut opt,
        &config,
        &opts,
    )
    .map_err(|e| e.to_string())?;
    for (i, it) in r.iterations.iter().enumerate() {
        println!(
            "iter {:>2}: +{:<14} E = {:+.8}  dE = {:+.2e}",
            i + 1,
            it.operator,
            it.energy,
            it.energy - exact
        );
    }
    println!(
        "stop: {:?} (dE = {:+.2e}, {} evaluations)",
        r.stop_reason,
        r.energy - exact,
        r.total_evaluations
    );
    if let Some(ckpt) = &opts.checkpoint {
        println!("ckpt    : wrote {}", ckpt.path.display());
    }
    Ok(())
}

fn cmd_qpe(args: &Args) -> Result<(), String> {
    let r: f64 = args.get("r", 1.4008)?;
    let ancillas: usize = args.get("ancillas", 6)?;
    let steps: usize = args.get("steps", 16)?;
    let order: usize = args.get("order", 2)?;
    let mol = h2_molecule(r).map_err(|e| e.to_string())?;
    let h = mol.to_qubit_hamiltonian().map_err(|e| e.to_string())?;
    let mut prep = nwq_circuit::Circuit::new(h.n_qubits());
    nwq_chem::uccsd::append_hf_state(&mut prep, mol.n_electrons()).map_err(|e| e.to_string())?;
    let cfg = QpeConfig {
        n_ancilla: ancillas,
        t: 1.5,
        trotter_steps: steps,
        order: match order {
            1 => nwq_circuit::exp_pauli::TrotterOrder::First,
            2 => nwq_circuit::exp_pauli::TrotterOrder::Second,
            _ => return Err("--order must be 1 or 2".into()),
        },
    };
    let out = run_qpe(&h, &prep, &cfg).map_err(|e| e.to_string())?;
    println!(
        "QPE (H2 at R = {r} a0): E = {:+.5} Ha (resolution {:.5}, peak p = {:.3})",
        out.energy_near(mol.hf_total_energy()),
        out.resolution(),
        out.peak_probability
    );
    Ok(())
}

fn cmd_fuse(args: &Args) -> Result<(), String> {
    let path = args
        .flags
        .get("in")
        .ok_or_else(|| "--in FILE.qasm is required".to_string())?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let circuit = nwq_circuit::qasm::from_qasm(&text).map_err(|e| e.to_string())?;
    let (fused, stats) = nwq_circuit::fusion::fuse(&circuit).map_err(|e| e.to_string())?;
    println!(
        "{path}: {} qubits, {} gates -> {} fused blocks ({:.1}% reduction, depth {} -> {})",
        circuit.n_qubits(),
        stats.gates_before,
        stats.gates_after,
        stats.reduction() * 100.0,
        circuit.depth(),
        fused.depth()
    );
    Ok(())
}

/// `nwq serve`: bind the TCP job server and run until a client drains it.
fn cmd_serve(args: &Args) -> Result<(), String> {
    let addr = args.str_or("addr", "127.0.0.1:7878");
    let rate: f64 = args.get("inject-faults", 0.0)?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("--inject-faults must be in [0, 1], got {rate}"));
    }
    let mut engine = nwq_serve::EngineConfig {
        workers: args.get("workers", 2)?,
        queue: nwq_serve::QueueConfig {
            capacity: args.get("queue-capacity", 64)?,
            aging_ms: args.get("aging-ms", 1000.0)?,
        },
        cache: nwq_serve::CacheConfig {
            capacity: args.get("cache-capacity", 4096)?,
        },
        max_batch: args.get("max-batch", 8)?,
        retry: RetryPolicy {
            max_retries: args.get("retries", 5)?,
        },
        ..Default::default()
    };
    if rate > 0.0 {
        let seed: u64 = args.get("fault-seed", 12345)?;
        println!("faults  : injecting evaluation failures at rate {rate} (seed {seed})");
        engine.faults = Some(FaultSpec::eval_failures(rate, seed));
    }
    if args.flags.contains_key("kill-after-evals") {
        engine.abort_after_evals = Some(args.get("kill-after-evals", 0)?);
    }
    let cfg = nwq_serve::ServerConfig {
        engine,
        ..Default::default()
    };
    let server = nwq_serve::Server::bind(&addr, cfg).map_err(|e| format!("binding {addr}: {e}"))?;
    let bound = server.local_addr().map_err(|e| e.to_string())?;
    println!(
        "serving : {bound} ({} workers, queue {}, max batch {})",
        args.get("workers", 2usize)?,
        args.get("queue-capacity", 64usize)?,
        args.get("max-batch", 8usize)?
    );
    println!("drain   : nwq client --addr {bound} --op drain");
    server.run().map_err(|e| e.to_string())?;
    println!("drained : all accepted jobs reached a terminal state");
    Ok(())
}

/// `nwq dist`: run a layered benchmark circuit through the real sharded
/// executor and report the measured-vs-modeled communication picture plus
/// a gather-free energy readout. `--snapshot-every` / `--inject-rank-loss`
/// route through the survivable executor: consistent-cut snapshots plus
/// bitwise replay recovery from scheduled rank deaths.
fn cmd_dist(args: &Args) -> Result<(), String> {
    let n_qubits: usize = args.get("qubits", 16)?;
    let n_ranks: usize = args.get("ranks", 4)?;
    let layers: usize = args.get("layers", 2)?;
    let snapshot_every: usize = args.get("snapshot-every", 0)?;
    let loss_rate: f64 = args.get("inject-rank-loss", 0.0)?;
    if !(0.0..=1.0).contains(&loss_rate) {
        return Err(format!(
            "--inject-rank-loss must be in [0, 1], got {loss_rate}"
        ));
    }
    let resilient = snapshot_every > 0 || loss_rate > 0.0;

    // Layered hardware-efficient circuit whose CX ring always crosses the
    // global/local boundary — the benchmark ledger's `sharded_hea22`.
    let mut c = nwq_circuit::Circuit::new(n_qubits);
    for q in 0..n_qubits {
        c.h(q);
    }
    for l in 0..layers {
        for q in 0..n_qubits {
            c.ry(q, 0.3 + 0.1 * (l * n_qubits + q) as f64 / n_qubits as f64);
        }
        for q in 0..n_qubits {
            c.cx(q, (q + 1) % n_qubits);
        }
    }

    let plan = nwq_dist::plan_communication(&c, n_ranks).map_err(|e| e.to_string())?;
    let opts = nwq_dist::ShardOptions {
        exchange_timeout_ms: args.get("exchange-timeout-ms", 2000)?,
        exchange_retries: args.get("exchange-retries", 4)?,
    };
    let started = std::time::Instant::now();
    let (state, recovery_report) = if resilient {
        let schedule = if loss_rate > 0.0 {
            let seed: u64 = args.get("fault-seed", 12345)?;
            let mut inj = nwq_dist::FaultInjector::new(nwq_dist::FaultSpec {
                rank_death: loss_rate,
                seed,
                ..Default::default()
            });
            let s = nwq_dist::FaultSchedule::from_injector(&mut inj, c.gates().len(), n_ranks);
            println!(
                "faults  : scheduling {} rank deaths at rate {loss_rate} (seed {seed})",
                s.deaths.len()
            );
            s
        } else {
            nwq_dist::FaultSchedule::none()
        };
        let recovery = nwq_dist::RecoveryOptions {
            snapshot_every: if snapshot_every > 0 {
                snapshot_every
            } else {
                8
            },
            // Every scheduled death costs at most one recovery; the slack
            // covers nothing in practice but keeps the budget non-brittle.
            max_recoveries: schedule.deaths.len() as u32 + 4,
            ..Default::default()
        };
        let (state, report) =
            nwq_dist::run_sharded_resilient(&c, &[], n_ranks, &opts, &recovery, &schedule)
                .map_err(|e| e.to_string())?;
        (state, Some(report))
    } else {
        let state = nwq_dist::run_sharded(&c, &[], n_ranks, &opts).map_err(|e| e.to_string())?;
        (state, None)
    };
    let wall_s = started.elapsed().as_secs_f64();
    let stats = state.comm_stats();

    // Gather-free readout: ZZ ring + X fields, reduced shard by shard.
    let op = {
        let mut terms = Vec::new();
        for q in 0..n_qubits {
            let mut zz = vec!['I'; n_qubits];
            zz[q] = 'Z';
            zz[(q + 1) % n_qubits] = 'Z';
            terms.push(format!("0.5 {}", zz.iter().collect::<String>()));
        }
        nwq_pauli::PauliOp::parse(&terms.join(" + ")).map_err(|e| e.to_string())?
    };
    let energy = nwq_dist::distributed_energy(&state, &op).map_err(|e| e.to_string())?;

    let model = nwq_dist::CostModel::perlmutter_like();
    let gates = c.gates().len() as u64;
    let updates = gates as f64 * (1u64 << n_qubits) as f64;
    println!(
        "layout  : {n_qubits} qubits over {n_ranks} ranks ({} local qubits, {} amps/shard)",
        state.n_local(),
        state.partition_len()
    );
    println!(
        "gates   : {gates} total ({} local, {} global)",
        stats.local_gates, stats.global_gates
    );
    println!(
        "comm    : {} messages, {} bytes (planned {} / {})",
        stats.messages, stats.bytes, plan.messages, plan.bytes
    );
    println!(
        "lean    : {} exchanges elided, {} bytes saved vs naive",
        stats.exchanges_elided, stats.bytes_saved
    );
    // After a recovery, the measured stats cover only the final
    // generation's replayed suffix — the plan-equality invariant only
    // holds for fault-free runs.
    if loss_rate == 0.0 && stats != plan {
        return Err("measured exchange traffic diverged from the communication plan".into());
    }
    println!(
        "model   : {:.3e} s comm + {:.3e} s compute (Perlmutter-like α–β)",
        model.comm_time_s(&stats, n_ranks),
        model.compute_time_s(gates, n_qubits, n_ranks)
    );
    println!(
        "measured: {wall_s:.3} s wall, {:.3e} amplitude updates/s",
        updates / wall_s
    );
    if let Some(report) = &recovery_report {
        println!(
            "recovery: {} snapshots planned, {} recoveries over {} generations{}",
            report.snapshots_planned,
            report.recoveries,
            report.generations,
            if report.resume_steps.is_empty() {
                String::new()
            } else {
                format!(" (resumed at tape steps {:?})", report.resume_steps)
            }
        );
    }
    println!("E       : {energy:+.6} (gather-free ZZ-ring readout)");
    Ok(())
}

/// Parses `--params`-style comma-separated float lists.
fn float_list(args: &Args, key: &str) -> Result<Vec<f64>, String> {
    match args.flags.get(key) {
        None => Ok(Vec::new()),
        Some(s) if s.trim().is_empty() => Ok(Vec::new()),
        Some(s) => s
            .split(',')
            .map(|t| {
                t.trim()
                    .parse::<f64>()
                    .map_err(|_| format!("bad float {t:?} in --{key}"))
            })
            .collect(),
    }
}

/// Builds a [`nwq_serve::JobSpec`] from `client --op submit` flags.
fn job_spec_from(args: &Args) -> Result<nwq_serve::JobSpec, String> {
    let molecule = args.str_or("molecule", "toy");
    let kind = match args.str_or("job", "energy").as_str() {
        "energy" => nwq_serve::JobKind::EnergyEval {
            params: float_list(args, "params")?,
        },
        "vqe" => nwq_serve::JobKind::Vqe {
            x0: float_list(args, "x0")?,
            max_evals: args.get("max-evals", 2000)?,
        },
        "adapt" => nwq_serve::JobKind::Adapt {
            max_iterations: args.get("max-iter", 8)?,
        },
        other => return Err(format!("unknown --job {other:?} (energy|vqe|adapt)")),
    };
    let priority_name = args.str_or("priority", "normal");
    let priority = nwq_serve::Priority::parse(&priority_name)
        .ok_or_else(|| format!("unknown --priority {priority_name:?} (low|normal|high)"))?;
    let mut spec = nwq_serve::JobSpec {
        molecule,
        kind,
        priority,
        deadline_ms: None,
    };
    if args.flags.contains_key("deadline-ms") {
        spec.deadline_ms = Some(args.get("deadline-ms", 0)?);
    }
    Ok(spec)
}

/// `nwq client`: one protocol operation against a running server. Replies
/// are printed as raw protocol JSON — one line, pipeable to `jq`.
fn cmd_client(args: &Args) -> Result<(), String> {
    let addr = args
        .flags
        .get("addr")
        .ok_or_else(|| "--addr HOST:PORT is required".to_string())?;
    let op = args.str_or("op", "stats");
    // A read timeout turns a hung server into a clean error instead of a
    // stuck process. Default 0 = disabled: blocking waits (`--wait 1`) may
    // legitimately sit for the server's full 300 s wait cap.
    let timeout_ms: u64 = args.get("timeout-ms", 0)?;
    let timeout = (timeout_ms > 0).then(|| std::time::Duration::from_millis(timeout_ms));
    let mut client =
        nwq_serve::Client::connect_with_timeout(addr, timeout).map_err(|e| e.to_string())?;
    let id = |key: &str| -> Result<u64, String> { args.get(key, u64::MAX) };
    let reply = match op.as_str() {
        "submit" => {
            let spec = job_spec_from(args)?;
            match client.submit(&spec).map_err(|e| e.to_string())? {
                nwq_serve::SubmitOutcome::Accepted(id) => {
                    if args.get("wait", 0u8)? != 0 {
                        client.wait_result(id).map_err(|e| e.to_string())?
                    } else {
                        client.result(id).map_err(|e| e.to_string())?
                    }
                }
                nwq_serve::SubmitOutcome::Rejected { reason } => {
                    println!("{{\"ok\":0,\"rejected\":1,\"reason\":\"{reason}\"}}");
                    return Err(format!("submission rejected: {reason}"));
                }
            }
        }
        "status" => client
            .request(&nwq_serve::Request::Status { id: id("id")? })
            .map_err(|e| e.to_string())?,
        "result" => {
            if args.get("wait", 0u8)? != 0 {
                client.wait_result(id("id")?).map_err(|e| e.to_string())?
            } else {
                client.result(id("id")?).map_err(|e| e.to_string())?
            }
        }
        "cancel" => client
            .request(&nwq_serve::Request::Cancel { id: id("id")? })
            .map_err(|e| e.to_string())?,
        "stats" => client.stats().map_err(|e| e.to_string())?,
        "drain" => client.drain().map_err(|e| e.to_string())?,
        other => {
            return Err(format!(
                "unknown --op {other:?} (submit|status|result|cancel|stats|drain)"
            ))
        }
    };
    println!("{}", reply.render());
    Ok(())
}

fn cmd_info() {
    println!("NWQ-Sim-rs {}", env!("CARGO_PKG_VERSION"));
    println!("Rust reproduction of 'Enabling Scalable VQE Simulation on Leading HPC Systems' (SC-W 2023).");
    println!();
    println!("subcommands: vqe | adapt | qpe | fuse | serve | client | dist | info");
    println!(
        "figures    : cargo run --release -p nwq-bench --bin figures -- \
         [fig1a|fig1b|fig1c|fig3|fig4|fig5|dist|qpe|ablation|crossover|all]"
    );
    println!(
        "benchmark  : cargo run --release --offline --manifest-path ledger/Cargo.toml -- check"
    );
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else {
        cmd_info();
        return ExitCode::from(2);
    };
    let args = match Args::parse(&argv[1..]) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage error: {e}");
            return ExitCode::from(2);
        }
    };
    let metrics_path = args.flags.get("metrics").cloned();
    if metrics_path.is_some() {
        nwq_telemetry::set_enabled(true);
        nwq_telemetry::set_run_info("command", cmd.as_str());
        nwq_telemetry::set_run_info("argv", argv.join(" "));
        nwq_telemetry::set_run_info("version", env!("CARGO_PKG_VERSION"));
    }
    let result = match cmd.as_str() {
        "vqe" => cmd_vqe(&args),
        "adapt" => cmd_adapt(&args),
        "qpe" => cmd_qpe(&args),
        "fuse" => cmd_fuse(&args),
        "serve" => cmd_serve(&args),
        "client" => cmd_client(&args),
        "dist" => cmd_dist(&args),
        "info" => {
            cmd_info();
            Ok(())
        }
        other => {
            eprintln!("unknown subcommand {other:?}");
            return ExitCode::from(2);
        }
    };
    if let (Some(path), Ok(())) = (&metrics_path, &result) {
        // Derived gauge: fraction of post-ansatz lookups served from cache.
        let hits = nwq_telemetry::counter_value("cache.hits");
        let misses = nwq_telemetry::counter_value("cache.misses");
        if hits + misses > 0 {
            nwq_telemetry::gauge_set("cache.hit_rate", hits as f64 / (hits + misses) as f64);
        }
        match nwq_telemetry::snapshot().write_json(std::path::Path::new(path)) {
            Ok(()) => println!("metrics : wrote {path}"),
            Err(e) => {
                eprintln!("error: failed to write metrics to {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
