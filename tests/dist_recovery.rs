//! Chaos tests for the survivable sharded executor: a rank killed at an
//! arbitrary gate step must be recovered from the last consistent cut and
//! replayed to a state — and an energy — BITWISE identical to the
//! fault-free run, across shard counts. Stragglers that stay under the
//! exchange deadline must never trip a spurious recovery.

use nwq_circuit::Circuit;
use nwq_dist::{
    distributed_energy, run_resilient_energy, run_sharded, run_sharded_resilient, FaultSchedule,
    RankDelay, RecoveryOptions, ShardOptions,
};
use nwq_pauli::PauliOp;
use proptest::prelude::*;

/// Short exchange deadlines so a dead rank's partners give up in
/// milliseconds instead of the production default's seconds.
fn test_opts() -> ShardOptions {
    ShardOptions {
        exchange_timeout_ms: 100,
        exchange_retries: 2,
    }
}

fn test_recovery(snapshot_every: usize) -> RecoveryOptions {
    RecoveryOptions {
        snapshot_every,
        max_recoveries: 8,
        keep_versions: 2,
        snapshot_dir: None,
    }
}

/// Random circuits over the same gate alphabet the dist parity proptests
/// sweep — every kind the sharded executor knows, local and global.
fn arb_circuit(n: usize, max_len: usize) -> impl Strategy<Value = Circuit> {
    let gate = (0..8u8, 0..n, 1..n.max(2), -3.0..3.0f64);
    proptest::collection::vec(gate, 1..max_len).prop_map(move |specs| {
        let mut c = Circuit::new(n);
        for (kind, q, dq, angle) in specs {
            let q2 = (q + dq) % n;
            match kind {
                0 => c.h(q),
                1 => c.x(q),
                2 => c.rz(q, angle),
                3 => c.ry(q, angle),
                4 if q2 != q => c.cx(q, q2),
                5 if q2 != q => c.cz(q, q2),
                6 if q2 != q => c.rzz(q, q2, angle),
                7 if q2 != q => c.swap(q, q2),
                _ => c.rx(q, angle),
            };
        }
        c
    })
}

fn ring_hamiltonian(n: usize) -> PauliOp {
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
    PauliOp::parse(&terms.join(" + ")).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Kill a random rank at a random gate step, for every shard count:
    /// amplitudes and the gather-free energy must be bitwise identical to
    /// the fault-free run.
    #[test]
    fn random_rank_death_recovers_bitwise(
        c in (5usize..=6).prop_flat_map(|n| arb_circuit(n, 18)),
        kill_seed in 0usize..1000,
        snapshot_every in 1usize..6,
    ) {
        let h = ring_hamiltonian(c.n_qubits());
        let clean = run_sharded(&c, &[], 1, &test_opts()).unwrap().gather();
        for n_ranks in [2usize, 4, 8] {
            // The shard-partial reduction order depends on the rank count,
            // so the fault-free energy reference is per-n_ranks.
            let clean_energy = {
                let state = run_sharded(&c, &[], n_ranks, &test_opts()).unwrap();
                distributed_energy(&state, &h).unwrap()
            };
            let gate_step = kill_seed % c.gates().len();
            let rank = (kill_seed / 7) % n_ranks;
            let schedule = FaultSchedule::kill(gate_step, rank);
            let (state, report) = run_sharded_resilient(
                &c, &[], n_ranks, &test_opts(), &test_recovery(snapshot_every), &schedule,
            ).unwrap();
            prop_assert_eq!(report.recoveries, 1, "ranks={}", n_ranks);
            for (a, b) in state.gather().amplitudes().iter().zip(clean.amplitudes()) {
                prop_assert_eq!(a.re.to_bits(), b.re.to_bits(), "ranks={}", n_ranks);
                prop_assert_eq!(a.im.to_bits(), b.im.to_bits(), "ranks={}", n_ranks);
            }
            let (energy, report) = run_resilient_energy(
                &c, &[], n_ranks, &h, &test_opts(), &test_recovery(snapshot_every), &schedule,
            ).unwrap();
            prop_assert_eq!(report.recoveries, 1);
            prop_assert_eq!(energy.to_bits(), clean_energy.to_bits(), "ranks={}", n_ranks);
        }
    }
}

/// Stragglers below the exchange deadline slow the run down but must not
/// be mistaken for dead ranks: zero recoveries, bitwise-clean result.
#[test]
fn stragglers_under_deadline_cause_no_false_recoveries() {
    let mut c = Circuit::new(5);
    c.h(0);
    for q in 1..5 {
        c.cx(q - 1, q);
    }
    c.ry(4, 0.8).rzz(0, 4, -0.4).swap(1, 4);
    let clean = run_sharded(&c, &[], 4, &test_opts()).unwrap().gather();
    let schedule = FaultSchedule {
        deaths: vec![],
        drops: vec![],
        delays: (0..4)
            .map(|rank| RankDelay {
                gate_step: 1 + rank,
                rank,
                delay_ms: 30,
            })
            .collect(),
    };
    let (state, report) =
        run_sharded_resilient(&c, &[], 4, &test_opts(), &test_recovery(4), &schedule).unwrap();
    assert_eq!(report.recoveries, 0, "sub-deadline stalls are not failures");
    assert_eq!(report.generations, 1);
    for (a, b) in state.gather().amplitudes().iter().zip(clean.amplitudes()) {
        assert_eq!(a.re.to_bits(), b.re.to_bits());
        assert_eq!(a.im.to_bits(), b.im.to_bits());
    }
}

/// The recovered energy pipeline composes with telemetry: the resilience
/// counters move when a death is recovered.
#[test]
fn recovery_counters_are_recorded() {
    nwq_telemetry::set_enabled(true);
    let before = nwq_telemetry::counter_value("resilience.shard_recoveries");
    let mut c = Circuit::new(5);
    c.h(0);
    for q in 1..5 {
        c.cx(q - 1, q);
    }
    let schedule = FaultSchedule::kill(2, 1);
    let (_, report) =
        run_sharded_resilient(&c, &[], 4, &test_opts(), &test_recovery(2), &schedule).unwrap();
    assert_eq!(report.recoveries, 1);
    let after = nwq_telemetry::counter_value("resilience.shard_recoveries");
    assert!(after > before, "counter must advance: {before} -> {after}");
}

/// Snapshot amortization: a consistent cut copies each shard once, so a
/// cut every 24 gates must cost under 10 % of the plain sharded run. This
/// is the probe the retired scaling bench asserted: 18 qubits over 4 ranks, one
/// H + RY + CX-ring + RZZ layer, best of alternating runs. A timing bound,
/// so it runs in release builds only (CI's chaos job builds this file with
/// `--release`).
#[test]
#[cfg_attr(debug_assertions, ignore = "timing bound; run with --release")]
fn snapshot_every_24_gates_costs_under_10_percent() {
    let n = 18;
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.h(q);
    }
    for q in 0..n {
        c.ry(q, 0.3 + 0.1 * q as f64 / n as f64);
    }
    for q in 0..n {
        c.cx(q, (q + 1) % n);
    }
    for q in (0..n - 1).step_by(2) {
        c.rzz(q, q + 1, 0.2);
    }
    let opts = ShardOptions::default();
    let recovery = RecoveryOptions {
        snapshot_every: 24,
        ..Default::default()
    };
    let (mut plain_s, mut resilient_s) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..9 {
        let t = std::time::Instant::now();
        let plain = run_sharded(&c, &[], 4, &opts).unwrap();
        plain_s = plain_s.min(t.elapsed().as_secs_f64());
        drop(plain);
        let t = std::time::Instant::now();
        let (resilient, report) =
            run_sharded_resilient(&c, &[], 4, &opts, &recovery, &FaultSchedule::none()).unwrap();
        resilient_s = resilient_s.min(t.elapsed().as_secs_f64());
        drop(resilient);
        assert_eq!(report.recoveries, 0);
        assert_eq!(report.snapshots_planned, 2);
    }
    let overhead = resilient_s / plain_s - 1.0;
    assert!(
        overhead < 0.10,
        "snapshot overhead {:.1} % ({plain_s:.4} s plain, {resilient_s:.4} s resilient)",
        overhead * 100.0
    );
}
