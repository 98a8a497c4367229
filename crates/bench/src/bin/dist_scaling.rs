//! Distributed sharded-execution scaling sweep, emitting the committed
//! `BENCH_dist.json` baseline.
//!
//! For each (qubits, ranks) grid point the binary runs a layered
//! hardware-efficient circuit through the REAL sharded executor — one OS
//! worker thread per rank, true pair-exchange messages on global-qubit
//! gates — and records:
//!
//! - measured wall time and the derived amplitude-update rate
//!   (`gates × 2^n / wall_s`), the ranks × qubits × updates/s curve;
//! - measured exchange traffic ([`nwq_dist::CommStats`]) checked exactly
//!   against the non-executing [`nwq_dist::plan_communication`] predictor;
//! - the α–β [`nwq_dist::CostModel`] prediction (Perlmutter-like
//!   defaults), kept alongside the measurement it models;
//! - a gather-free energy readout via [`nwq_dist::distributed_energy`], so
//!   the largest configuration is exercised end to end without ever
//!   materializing the register in one allocation.
//!
//! The full grid pushes a ≥24-qubit register (2^24 amplitudes, 256 MiB of
//! complex doubles) past the point where per-shard ownership matters;
//! `--quick` runs a small grid suitable for CI smoke.
//!
//! Usage: `dist_scaling [--quick] [--out PATH]` (default `./BENCH_dist.json`).

use nwq_circuit::Circuit;
use nwq_dist::{
    distributed_energy, plan_communication, plan_communication_naive, run_sharded,
    run_sharded_resilient, CostModel, FaultSchedule, RecoveryOptions, ShardOptions,
};
use nwq_pauli::PauliOp;
use nwq_telemetry::{JsonValue, Object};
use std::time::Instant;

/// Layered hardware-efficient circuit: per layer a single-qubit rotation
/// sweep, a CX ring (whose wrap-around link always crosses the
/// global/local boundary), and an RZZ ladder. Deterministic angles.
fn layered_circuit(n: usize, layers: usize) -> Circuit {
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.h(q);
    }
    for l in 0..layers {
        for q in 0..n {
            c.ry(q, 0.3 + 0.1 * (l * n + q) as f64 / n as f64);
        }
        for q in 0..n {
            c.cx(q, (q + 1) % n);
        }
        for q in (0..n - 1).step_by(2) {
            c.rzz(q, q + 1, 0.2 + 0.05 * l as f64);
        }
    }
    c
}

/// Transverse-field-Ising-style observable: ZZ on the ring plus X fields.
/// Built directly (no 24-char parse strings) and gather-free evaluable.
fn observable(n: usize) -> PauliOp {
    let mut terms = Vec::new();
    for q in 0..n {
        let mut zz = vec!['I'; n];
        zz[q] = 'Z';
        zz[(q + 1) % n] = 'Z';
        terms.push(format!("0.5 {}", zz.iter().collect::<String>()));
        let mut x = vec!['I'; n];
        x[q] = 'X';
        terms.push(format!("0.25 {}", x.iter().collect::<String>()));
    }
    PauliOp::parse(&terms.join(" + ")).expect("well-formed observable")
}

struct Point {
    qubits: usize,
    ranks: usize,
    gates: u64,
    local_gates: u64,
    global_gates: u64,
    messages: u64,
    bytes: u64,
    naive_messages: u64,
    naive_bytes: u64,
    exchanges_elided: u64,
    exchanges_fused: u64,
    bytes_saved: u64,
    modeled_comm_s: f64,
    modeled_total_s: f64,
    wall_s: f64,
    updates_per_s: f64,
    energy: f64,
}

impl Point {
    /// Lean payload bytes as a fraction of the naive full-exchange plan.
    fn bytes_vs_naive(&self) -> f64 {
        if self.naive_bytes == 0 {
            1.0
        } else {
            self.bytes as f64 / self.naive_bytes as f64
        }
    }
}

fn run_point(n_qubits: usize, n_ranks: usize, layers: usize, op: &PauliOp) -> Point {
    let c = layered_circuit(n_qubits, layers);
    let plan = plan_communication(&c, n_ranks).expect("plan");
    let naive = plan_communication_naive(&c, n_ranks).expect("naive plan");
    let started = Instant::now();
    let state = run_sharded(&c, &[], n_ranks, &ShardOptions::default()).expect("sharded run");
    let wall_s = started.elapsed().as_secs_f64();
    let stats = state.comm_stats();
    assert_eq!(
        stats, plan,
        "measured exchange traffic must equal the θ-aware plan ({n_qubits}q × {n_ranks}r)"
    );
    assert_eq!(
        stats.bytes + stats.bytes_saved,
        naive.bytes,
        "every byte not moved must be accounted as saved ({n_qubits}q × {n_ranks}r)"
    );
    // Gather-free readout: the energy is reduced shard-by-shard; the full
    // register is never assembled into one allocation.
    let energy = distributed_energy(&state, op).expect("distributed energy");
    assert!(energy.is_finite());
    let gates = c.gates().len() as u64;
    let model = CostModel::perlmutter_like();
    let updates = gates as f64 * (1u64 << n_qubits) as f64;
    Point {
        qubits: n_qubits,
        ranks: n_ranks,
        gates,
        local_gates: stats.local_gates,
        global_gates: stats.global_gates,
        messages: stats.messages,
        bytes: stats.bytes,
        naive_messages: naive.messages,
        naive_bytes: naive.bytes,
        exchanges_elided: stats.exchanges_elided,
        exchanges_fused: stats.exchanges_fused,
        bytes_saved: stats.bytes_saved,
        modeled_comm_s: model.comm_time_s(&stats, n_ranks),
        modeled_total_s: model.total_time_s(&stats, gates, n_qubits, n_ranks),
        wall_s,
        updates_per_s: updates / wall_s,
        energy,
    }
}

/// θ-aware communication probe feeding the report's `comm` block:
///
/// 1. a circuit whose every global gate is diagonal (RZ/CZ/RZZ on the top
///    qubits) must move ZERO payload bytes at every rank count — the
///    elision path, checked bitwise against the single-node simulator;
/// 2. a bound 12-qubit UCCSD ansatz must move at most half the naive
///    full-exchange payload (half-shard payloads + diagonal elision +
///    fused windows), again bitwise at every rank count.
fn comm_probe(n_qubits: usize, rank_grid: &[usize]) -> JsonValue {
    // --- diagonal-global workload: local entangling prelude, then only
    // diagonal gates touching the global qubits.
    let mut diag = Circuit::new(n_qubits);
    diag.h(0).h(1).h(2);
    diag.cx(0, 1).cx(1, 2).cx(2, 3);
    for g in (n_qubits - 3)..n_qubits {
        diag.rz(g, 0.3 + 0.1 * g as f64);
        diag.cz(g, (g + n_qubits - 4) % n_qubits);
    }
    diag.rzz(n_qubits - 2, n_qubits - 1, 0.7);
    let diag_single = nwq_statevec::simulate(&diag, &[]).expect("single-node diag");
    let mut diag_naive_bytes = 0u64;
    for &r in rank_grid.iter().filter(|&&r| r > 1) {
        let state = run_sharded(&diag, &[], r, &ShardOptions::default()).expect("diag run");
        let stats = state.comm_stats();
        assert_eq!(
            (stats.messages, stats.bytes),
            (0, 0),
            "diagonal global gates must exchange nothing ({r} ranks)"
        );
        assert!(stats.exchanges_elided > 0, "elision must be exercised");
        for (a, b) in state
            .gather()
            .amplitudes()
            .iter()
            .zip(diag_single.amplitudes())
        {
            assert_eq!(a.re.to_bits(), b.re.to_bits(), "diag bitwise ({r} ranks)");
            assert_eq!(a.im.to_bits(), b.im.to_bits(), "diag bitwise ({r} ranks)");
        }
        diag_naive_bytes = plan_communication_naive(&diag, r).expect("naive").bytes;
    }

    // --- UCCSD workload: the paper's chemistry ansatz, bound angles.
    let uccsd = nwq_chem::uccsd::uccsd_ansatz(12, 4).expect("uccsd ansatz");
    let params: Vec<f64> = (0..uccsd.n_params())
        .map(|k| 0.05 + 0.02 * k as f64)
        .collect();
    let uccsd_single = nwq_statevec::simulate(&uccsd, &params).expect("single-node uccsd");
    let mut uccsd_bytes = 0u64;
    let mut uccsd_naive_bytes = 0u64;
    for &r in rank_grid {
        let state = run_sharded(&uccsd, &params, r, &ShardOptions::default()).expect("uccsd run");
        let stats = state.comm_stats();
        for (a, b) in state
            .gather()
            .amplitudes()
            .iter()
            .zip(uccsd_single.amplitudes())
        {
            assert_eq!(a.re.to_bits(), b.re.to_bits(), "uccsd bitwise ({r} ranks)");
            assert_eq!(a.im.to_bits(), b.im.to_bits(), "uccsd bitwise ({r} ranks)");
        }
        if r > 1 {
            let naive = plan_communication_naive(&uccsd, r).expect("naive").bytes;
            assert!(
                naive >= 2 * stats.bytes,
                "UCCSD payload must shrink ≥2× vs naive: {naive} < 2×{} ({r} ranks)",
                stats.bytes
            );
            uccsd_bytes = stats.bytes;
            uccsd_naive_bytes = naive;
        }
    }
    let top_ranks = *rank_grid.last().expect("ranks") as u64;
    println!(
        "comm probe: diagonal workload 0 B moved (naive {diag_naive_bytes} B), \
         uccsd@{top_ranks}r {uccsd_bytes} B vs naive {uccsd_naive_bytes} B \
         ({:.3}× reduction)",
        uccsd_naive_bytes as f64 / uccsd_bytes.max(1) as f64
    );

    let mut o = Object::new();
    o.push("diag_qubits", JsonValue::Int(n_qubits as u64));
    o.push("diag_global_bytes", JsonValue::Int(0));
    o.push("diag_naive_bytes", JsonValue::Int(diag_naive_bytes));
    o.push("uccsd_qubits", JsonValue::Int(12));
    o.push("uccsd_ranks", JsonValue::Int(top_ranks));
    o.push("uccsd_bytes", JsonValue::Int(uccsd_bytes));
    o.push("uccsd_naive_bytes", JsonValue::Int(uccsd_naive_bytes));
    o.push(
        "uccsd_reduction",
        JsonValue::Float(uccsd_naive_bytes as f64 / uccsd_bytes.max(1) as f64),
    );
    o.into_value()
}

/// Survivability probe on one grid point, feeding the report's `recovery`
/// block: snapshot overhead (clean resilient run with consistent-cut
/// snapshots vs the plain sharded run, summed over `reps` repetitions to
/// damp timer noise) and recovery latency over a sweep of single-rank
/// deaths spread across the gate tape — every recovered run checked
/// bitwise against the fault-free amplitudes.
fn recovery_probe(
    n_qubits: usize,
    n_ranks: usize,
    layers: usize,
    snapshot_every: usize,
    death_runs: usize,
    reps: usize,
) -> JsonValue {
    let c = layered_circuit(n_qubits, layers);
    let opts = ShardOptions {
        exchange_timeout_ms: 500,
        exchange_retries: 2,
    };
    let recovery = RecoveryOptions {
        snapshot_every,
        max_recoveries: 4,
        keep_versions: 2,
        snapshot_dir: None,
    };
    let clean = run_sharded(&c, &[], n_ranks, &ShardOptions::default()).expect("clean run");
    let clean_amps: Vec<u64> = clean
        .gather()
        .amplitudes()
        .iter()
        .flat_map(|a| [a.re.to_bits(), a.im.to_bits()])
        .collect();

    // Best-of-reps damps scheduler noise on both sides; the systematic
    // snapshot cost is what survives the min.
    let mut plain_s = f64::INFINITY;
    let mut resilient_s = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        run_sharded(&c, &[], n_ranks, &ShardOptions::default()).expect("plain rep");
        plain_s = plain_s.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let (state, report) =
            run_sharded_resilient(&c, &[], n_ranks, &opts, &recovery, &FaultSchedule::none())
                .expect("clean resilient rep");
        resilient_s = resilient_s.min(t.elapsed().as_secs_f64());
        assert_eq!(report.recoveries, 0, "clean runs must not recover");
        assert!(report.snapshots_planned > 0);
        drop(state);
    }
    let overhead_pct = ((resilient_s - plain_s) / plain_s * 100.0).max(0.0);
    assert!(
        overhead_pct < 10.0,
        "snapshot overhead must stay under 10% of sweep time, got {overhead_pct:.2}% \
         (plain {plain_s:.4}s vs resilient {resilient_s:.4}s over {reps} reps)"
    );

    let n_gates = c.gates().len();
    let mut recovery_ms: Vec<f64> = Vec::new();
    let mut bitwise = true;
    for k in 0..death_runs {
        let gate_step = (k * n_gates) / death_runs;
        let rank = k % n_ranks;
        let schedule = FaultSchedule::kill(gate_step, rank);
        let (state, report) = run_sharded_resilient(&c, &[], n_ranks, &opts, &recovery, &schedule)
            .expect("recovered run");
        assert_eq!(report.recoveries, 1, "one death, one recovery");
        recovery_ms.extend(&report.recovery_ms);
        let amps: Vec<u64> = state
            .gather()
            .amplitudes()
            .iter()
            .flat_map(|a| [a.re.to_bits(), a.im.to_bits()])
            .collect();
        bitwise &= amps == clean_amps;
    }
    assert!(bitwise, "recovered amplitudes must be bitwise identical");
    recovery_ms.sort_by(|a, b| a.total_cmp(b));
    let pct = |p: f64| -> f64 {
        let idx = ((recovery_ms.len() as f64 - 1.0) * p).round() as usize;
        recovery_ms[idx]
    };
    println!(
        "recovery probe {n_qubits}q × {n_ranks}r: snapshot overhead {overhead_pct:.2}%, \
         {death_runs} deaths recovered bitwise, restore p50 {:.3} ms / p99 {:.3} ms",
        pct(0.5),
        pct(0.99)
    );

    let mut o = Object::new();
    o.push("probe_qubits", JsonValue::Int(n_qubits as u64));
    o.push("probe_ranks", JsonValue::Int(n_ranks as u64));
    o.push("snapshot_every", JsonValue::Int(snapshot_every as u64));
    o.push("plain_wall_s", JsonValue::Float(plain_s));
    o.push("resilient_wall_s", JsonValue::Float(resilient_s));
    o.push("snapshot_overhead_pct", JsonValue::Float(overhead_pct));
    o.push("death_runs", JsonValue::Int(death_runs as u64));
    o.push("recovery_p50_ms", JsonValue::Float(pct(0.5)));
    o.push("recovery_p99_ms", JsonValue::Float(pct(0.99)));
    o.push("bitwise_identical", JsonValue::Int(u64::from(bitwise)));
    o.into_value()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_dist.json".into());

    let (qubit_grid, rank_grid, layers): (&[usize], &[usize], usize) = if quick {
        (&[10, 12], &[1, 2, 4, 8], 1)
    } else {
        (&[16, 20, 24], &[1, 2, 4, 8], 2)
    };

    let mut points = Vec::new();
    for &n in qubit_grid {
        let op = observable(n);
        for &r in rank_grid {
            let p = run_point(n, r, layers, &op);
            println!(
                "{:>2} qubits × {r} ranks: {:>7.3} s wall, {:.3e} updates/s, \
                 {} msgs ({} B, {:.3}× naive), modeled {:.3e} s comm, energy {:+.6}",
                n,
                p.wall_s,
                p.updates_per_s,
                p.messages,
                p.bytes,
                p.bytes_vs_naive(),
                p.modeled_comm_s,
                p.energy
            );
            points.push(p);
        }
    }

    let max_qubits = *qubit_grid.last().expect("non-empty grid") as u64;
    let exchanged: u64 = points
        .iter()
        .filter(|p| p.ranks > 1)
        .map(|p| p.messages)
        .sum();
    assert!(
        exchanged > 0,
        "multi-rank points must exercise real exchange messages"
    );
    // The θ-aware plan must beat the naive full-exchange plan decisively
    // at the largest grid point: the layered workload mixes dense global
    // rotations (full payload), boundary-crossing CXs (half payload or
    // block-local) and diagonal RZZs (elided), landing well under 0.55×.
    let top = points
        .iter()
        .rfind(|p| p.ranks > 1)
        .expect("multi-rank point");
    assert!(
        top.bytes_vs_naive() <= 0.55,
        "lean payload must stay ≤0.55× naive at {}q × {}r, got {:.3}×",
        top.qubits,
        top.ranks,
        top.bytes_vs_naive()
    );

    let mut report = Object::new();
    report.push("benchmark", JsonValue::Str("dist_scaling".into()));
    report.push(
        "mode",
        JsonValue::Str(if quick { "quick" } else { "full" }.into()),
    );
    report.push("max_qubits", JsonValue::Int(max_qubits));
    report.push("layers", JsonValue::Int(layers as u64));
    report.push("gather_free_readout", JsonValue::Int(1));
    report.push("plan_matches_measured", JsonValue::Int(1));
    // Survivability probe: a mid-grid point through the resilient
    // executor, in BOTH modes so quick and full artifacts share a schema.
    // snapshot_every is the amortization knob: a snapshot memcpys the
    // whole shard (≈ the cost of one dense gate), so a cadence of 24
    // keeps the overhead comfortably inside the <10% budget while still
    // bounding replay to 24 gates.
    // Lean exchange shrank the plain-run denominator, so the probe runs
    // at 18 qubits in both modes: a smaller register would let the fixed
    // per-snapshot memcpy dominate the percentage.
    let recovery = if quick {
        recovery_probe(18, 4, layers, 24, 8, 5)
    } else {
        recovery_probe(18, 4, layers, 24, 12, 5)
    };
    report.push("recovery", recovery);
    // θ-aware communication probe: diagonal elision and the UCCSD
    // payload reduction, both bitwise-checked against single node.
    let comm = comm_probe(*qubit_grid.last().expect("grid"), rank_grid);
    report.push("comm", comm);
    let mut arr = Vec::new();
    for p in &points {
        let mut o = Object::new();
        o.push("qubits", JsonValue::Int(p.qubits as u64));
        o.push("ranks", JsonValue::Int(p.ranks as u64));
        o.push("gates", JsonValue::Int(p.gates));
        o.push("local_gates", JsonValue::Int(p.local_gates));
        o.push("global_gates", JsonValue::Int(p.global_gates));
        o.push("messages", JsonValue::Int(p.messages));
        o.push("bytes", JsonValue::Int(p.bytes));
        let mut cm = Object::new();
        cm.push("naive_messages", JsonValue::Int(p.naive_messages));
        cm.push("naive_bytes", JsonValue::Int(p.naive_bytes));
        cm.push("exchanges_elided", JsonValue::Int(p.exchanges_elided));
        cm.push("exchanges_fused", JsonValue::Int(p.exchanges_fused));
        cm.push("bytes_saved", JsonValue::Int(p.bytes_saved));
        cm.push("bytes_vs_naive", JsonValue::Float(p.bytes_vs_naive()));
        o.push("comm", cm.into_value());
        o.push("modeled_comm_s", JsonValue::Float(p.modeled_comm_s));
        o.push("modeled_total_s", JsonValue::Float(p.modeled_total_s));
        o.push("wall_s", JsonValue::Float(p.wall_s));
        o.push("updates_per_s", JsonValue::Float(p.updates_per_s));
        o.push("energy", JsonValue::Float(p.energy));
        arr.push(o.into_value());
    }
    report.push("points", JsonValue::Array(arr));
    std::fs::write(&out, report.into_value().render()).expect("write BENCH_dist.json");
    println!(
        "wrote {out}   ({} grid points, ≤{max_qubits} qubits)",
        points.len()
    );
}
