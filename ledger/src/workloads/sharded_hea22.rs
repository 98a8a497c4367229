//! `sharded_hea22` — the `nwq dist` circuit: a 22-qubit two-layer
//! hardware-efficient ansatz (H wall, RY layers, CX rings) run by
//! `run_sharded` with one thread per rank, then read out gather-free as a
//! ZZ-ring energy.
//!
//! A 64 MiB register streamed once per gate and 256 MiB exchanged: kernel
//! bandwidth and the exchange protocol do all the work; plan, bind and
//! optimiser do none. Two ranks (= the host's cores) are timed; one rank
//! is the plain single-threaded baseline.

use super::{err, Outcome, RunCfg, TraceCommon};
use crate::rng::Rng;
use crate::span::{Layer, Tracer};
use crate::stats;
use nwq_circuit::Circuit;
use nwq_dist::{
    distributed_energy, plan_communication, plan_communication_naive, run_resilient_energy,
    run_sharded, CommStats, CostModel, DistStateVector, FaultSchedule, RecoveryOptions,
    ShardOptions,
};
use nwq_pauli::PauliOp;
use std::cell::RefCell;
use std::time::Instant;

const QUBITS: usize = 22;
const LAYERS: usize = 2;
const RANKS: usize = 2;

/// `nwq dist`'s layered circuit; the seed shifts every RY angle.
fn hea(n: usize, angle_offset: f64) -> Circuit {
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.h(q);
    }
    for l in 0..LAYERS {
        for q in 0..n {
            c.ry(q, 0.3 + angle_offset + 0.1 * (l * n + q) as f64 / n as f64);
        }
        for q in 0..n {
            c.cx(q, (q + 1) % n);
        }
    }
    c
}

/// `nwq dist`'s readout: 0.5·Z_q Z_{q+1} around the ring.
fn zz_ring(n: usize) -> Result<PauliOp, String> {
    let terms: Vec<String> = (0..n)
        .map(|q| {
            let mut s = vec!['I'; n];
            s[q] = 'Z';
            s[(q + 1) % n] = 'Z';
            format!("0.5 {}", s.iter().collect::<String>())
        })
        .collect();
    PauliOp::parse(&terms.join(" + ")).map_err(err)
}

struct RunTimes {
    run_s: f64,
    energy_s: f64,
}

impl RunTimes {
    fn total(&self) -> f64 {
        self.run_s + self.energy_s
    }
}

/// `run_sharded` then `distributed_energy`, each inside a span.
fn run_once(
    circuit: &Circuit,
    op: &PauliOp,
    ranks: usize,
    tracer: &RefCell<Tracer>,
) -> Result<(RunTimes, f64, DistStateVector), String> {
    let start = Instant::now();
    let state = Tracer::scope(tracer, Layer::DistRun, || {
        run_sharded(circuit, &[], ranks, &ShardOptions::default())
    })
    .map_err(err)?;
    let run_s = start.elapsed().as_secs_f64();
    let energy =
        Tracer::scope(tracer, Layer::DistEnergy, || distributed_energy(&state, op)).map_err(err)?;
    let times = RunTimes {
        run_s,
        energy_s: start.elapsed().as_secs_f64() - run_s,
    };
    Ok((times, energy, state))
}

fn same_bits(a: &[nwq_common::C64], b: &[nwq_common::C64]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}

pub fn run(cfg: RunCfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let tracer = RefCell::new(Tracer::default());
    let angle_offset = Rng::new(cfg.seed, 4).range(0.0, 0.2);

    // Everything before the first timed run: circuit, observable, the
    // communication plan, and one cold run (first touch of both shards and
    // the exchange buffers).
    let ((circuit, op, plan, reference_energy), setup_s) = super::timed_setup(|| {
        let circuit = hea(QUBITS, angle_offset);
        let op = zz_ring(QUBITS)?;
        let plan = plan_communication(&circuit, RANKS).map_err(err)?;
        let (_, energy, _) = run_once(&circuit, &op, RANKS, &tracer)?;
        Ok((circuit, op, plan, energy))
    })?;
    *tracer.borrow_mut() = Tracer::default();
    let updates_per_run = (circuit.len() << QUBITS) as f64;

    // A run is correct when its measured traffic equals the plan and its
    // energy repeats the first run's bits.
    let good = |energy: f64, state: &DistStateVector| {
        u64::from(state.comm_stats() == plan && energy.to_bits() == reference_energy.to_bits())
    };

    let cpu_before = crate::host::cpu_times_s();
    let (mut ops, mut ok_ops) = (0u64, 0u64);
    // Untraced 2-rank runs record into a tracer nobody reads.
    let unread = RefCell::new(Tracer::default());
    let mut plain: Vec<(RunTimes, u64)> = Vec::new();
    let (mut r2, mut r1): (Vec<RunTimes>, Vec<RunTimes>) = (Vec::new(), Vec::new());
    let mut traced_turn = 0usize;
    let (_, traced_s) = super::interleave(
        cfg,
        || {
            let (times, energy, state) = run_once(&circuit, &op, RANKS, &unread)?;
            plain.push((times, good(energy, &state)));
            Ok(plain[plain.len() - 1].0.total())
        },
        || {
            // Traced samples alternate two ranks with the single-threaded
            // baseline.
            traced_turn += 1;
            if traced_turn % 2 == 1 {
                let (times, energy, state) = run_once(&circuit, &op, RANKS, &tracer)?;
                ops += 1;
                ok_ops += good(energy, &state);
                r2.push(times);
                Ok(r2[r2.len() - 1].total())
            } else {
                r1.push(run_once(&circuit, &op, 1, &tracer)?.0);
                Ok(r1[r1.len() - 1].total())
            }
        },
    )?;
    ops += plain.len() as u64;
    ok_ops += plain.iter().map(|(_, ok)| ok).sum::<u64>();

    // Two ranks against the single-threaded baseline: same amplitudes bit
    // for bit. (The energies differ in the last digits: the readout folds
    // per-rank partial sums, so its rounding depends on the rank count.)
    let (_, energy_r2, state_r2) = run_once(&circuit, &op, RANKS, &unread)?;
    let (_, energy_r1, state_r1) = run_once(&circuit, &op, 1, &unread)?;
    let measured: CommStats = state_r2.comm_stats();
    let half = state_r2.partition_len();
    out.check(
        same_bits(&state_r1.partition(0)[..half], state_r2.partition(0))
            && same_bits(&state_r1.partition(0)[half..], state_r2.partition(1)),
        || "2-rank state is not bitwise equal to the 1-rank state".into(),
    );
    out.check((energy_r2 - energy_r1).abs() <= 1e-9, || {
        format!("2-rank energy {energy_r2} vs 1-rank {energy_r1}")
    });
    drop((state_r1, state_r2));

    if !cfg.trace {
        let samples: Vec<super::Sample> = plain
            .iter()
            .map(|(t, ok)| super::Sample {
                seconds: t.total(),
                evals: 1.0,
                ops: 1,
                ok_ops: *ok,
                amp_updates: updates_per_run,
                amp_seconds: t.run_s,
            })
            .collect();
        super::fill_batch(&mut out.metrics, setup_s, &samples);
    } else {
        if r1.is_empty() {
            return Err("--seconds is too short for a plain, a 2-rank and a 1-rank run".into());
        }
        // Snapshot overhead: the survivable executor with a cut every 24
        // gates and no faults, each repetition against the plain run +
        // readout made just before it.
        let recovery = RecoveryOptions {
            snapshot_every: 24,
            ..Default::default()
        };
        let mut overheads = Vec::new();
        for _ in 0..2 {
            let (plain_times, _, _) = run_once(&circuit, &op, RANKS, &unread)?;
            let start = Instant::now();
            let (energy, report) = run_resilient_energy(
                &circuit,
                &[],
                RANKS,
                &op,
                &ShardOptions::default(),
                &recovery,
                &FaultSchedule::none(),
            )
            .map_err(err)?;
            overheads.push(start.elapsed().as_secs_f64() / plain_times.total() - 1.0);
            out.check(
                energy.to_bits() == reference_energy.to_bits() && report.recoveries == 0,
                || {
                    format!(
                        "resilient run: energy {energy}, {} recoveries",
                        report.recoveries
                    )
                },
            );
        }

        // Four ranks oversubscribe two cores, so only counts are taken, on
        // a 16-qubit instance of the same circuit.
        let small = hea(16, angle_offset);
        let r4 = run_sharded(&small, &[], 4, &ShardOptions::default())
            .map_err(err)?
            .comm_stats();
        out.check(r4 == plan_communication(&small, 4).map_err(err)?, || {
            "4-rank measured traffic differs from its plan".into()
        });

        let m = &mut out.metrics;
        let t = tracer.borrow();
        let med = |v: &[RunTimes], f: fn(&RunTimes) -> f64| {
            stats::median(&v.iter().map(f).collect::<Vec<_>>())
        };
        let plain_total: Vec<f64> = plain.iter().map(|(t, _)| t.total()).collect();
        let r2_total: Vec<f64> = r2.iter().map(RunTimes::total).collect();
        let bw_64m = TraceCommon {
            tracer: &t,
            traced_s: &traced_s,
            plain_s: &plain_total,
            cpu_before,
        }
        .fill(m);
        // Overhead compares like with like: 2-rank runs only.
        m.set(
            "trace.overhead_frac",
            stats::median(&r2_total) / stats::median(&plain_total) - 1.0,
        );
        let run_r2 = med(&r2, |t| t.run_s);
        let run_r1 = med(&r1, |t| t.run_s);
        m.set("dist.run_s_r1", run_r1);
        m.set("dist.run_s_r2", run_r2);
        m.set("dist.energy_s", med(&r2, |t| t.energy_s));
        m.set("dist.scaling_eff_r2", run_r1 / (RANKS as f64 * run_r2));
        // Upper bound on exchange + wait + serial share of the 2-rank run.
        m.set("dist.nonoverlap_s", run_r2 - run_r1 / RANKS as f64);
        m.set("dist.messages", measured.messages as f64);
        m.set("dist.bytes", measured.bytes as f64);
        let naive = plan_communication_naive(&circuit, RANKS).map_err(err)?;
        m.set(
            "dist.bytes_vs_naive",
            measured.bytes as f64 / naive.bytes as f64,
        );
        m.set("dist.exchanges_elided", measured.exchanges_elided as f64);
        m.set(
            "dist.plan_matches_measured",
            f64::from(u8::from(measured == plan)),
        );
        // Ceiling: each rank streaming at the single-thread probe rate.
        m.set(
            "dist.roofline_frac",
            super::roofline_frac(updates_per_run, run_r2, bw_64m * RANKS as f64),
        );
        let model = CostModel::perlmutter_like();
        m.set(
            "dist.model_over_measured",
            model.total_time_s(&measured, circuit.len() as u64, QUBITS, RANKS) / run_r2,
        );
        m.set("dist.snapshot_overhead_frac", stats::median(&overheads));
        m.set("dist.r4_messages", r4.messages as f64);
        m.set("dist.r4_bytes", r4.bytes as f64);
        m.set("exec.amp_updates", updates_per_run);
        m.set("exec.amp_updates_per_s", updates_per_run / run_r1);
        m.set(
            "exec.roofline_frac",
            super::roofline_frac(updates_per_run, run_r1, bw_64m),
        );
        let all_ms: Vec<f64> = plain_total
            .iter()
            .chain(&r2_total)
            .map(|t| t * 1e3)
            .collect();
        super::fill_latency(m, &all_ms);
        m.set("fail_frac", (ops - ok_ops) as f64 / ops as f64);
    }
    out.attempted = ops;
    out.failed = ops - ok_ops;
    Ok(out)
}
