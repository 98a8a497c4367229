//! Integration: the sharded multi-rank engine is bit-exact against the
//! single-node engine on chemistry workloads, and its communication
//! accounting matches the static planner.

use nwq_chem::molecules::h2_sto3g;
use nwq_chem::uccsd::uccsd_ansatz;
use nwq_circuit::qft::qft_circuit;
use nwq_dist::{
    plan_communication, plan_communication_naive, run_sharded, CommStats, CostModel,
    DistStateVector, ShardOptions,
};
use nwq_statevec::simulate;

fn sharded(circuit: &nwq_circuit::Circuit, n_ranks: usize) -> DistStateVector {
    run_sharded(circuit, &[], n_ranks, &ShardOptions::default()).expect("distributed")
}

#[test]
fn uccsd_ansatz_bit_exact_across_rank_counts() {
    let ansatz = uccsd_ansatz(6, 2)
        .expect("UCCSD")
        .bind(&[0.13; 8])
        .expect("bind");
    let single = simulate(&ansatz, &[]).expect("single-node");
    for n_ranks in [1usize, 2, 4, 8] {
        let gathered = sharded(&ansatz, n_ranks).gather();
        for (a, b) in gathered.amplitudes().iter().zip(single.amplitudes()) {
            assert!(a.approx_eq(*b, 1e-10), "ranks={n_ranks}");
        }
    }
}

#[test]
fn energies_match_across_engines() {
    let mol = h2_sto3g();
    let h = mol.to_qubit_hamiltonian().expect("JW");
    let ansatz = uccsd_ansatz(4, 2).expect("UCCSD");
    let theta = [0.06, -0.03, -0.2];
    let bound = ansatz.bind(&theta).expect("bind");
    let e_single = simulate(&bound, &[])
        .expect("run")
        .energy(&h)
        .expect("energy");
    let gathered = sharded(&bound, 2).gather();
    let e_dist = gathered.energy(&h).expect("energy");
    assert!((e_single - e_dist).abs() < 1e-12);
}

#[test]
fn qft_stresses_global_qubits() {
    // The QFT touches every qubit pair: heavy cross-rank traffic, still
    // bit-exact.
    let qft = qft_circuit(7).expect("QFT");
    let single = simulate(&qft, &[]).expect("single-node");
    let d = sharded(&qft, 8);
    let (gathered, stats) = (d.gather(), d.comm_stats());
    assert!(stats.global_gates > 0);
    assert!(stats.messages > 0);
    for (a, b) in gathered.amplitudes().iter().zip(single.amplitudes()) {
        assert!(a.approx_eq(*b, 1e-9));
    }
}

#[test]
fn planner_matches_execution_on_chemistry_circuits() {
    let ansatz = uccsd_ansatz(6, 2)
        .expect("UCCSD")
        .bind(&[0.1; 8])
        .expect("bind");
    for n_ranks in [2usize, 4] {
        let executed = sharded(&ansatz, n_ranks).comm_stats();
        let planned = plan_communication(&ansatz, n_ranks).expect("plan");
        assert_eq!(executed, planned, "ranks={n_ranks}");
    }
}

#[test]
fn lean_plan_halves_uccsd_payload_vs_naive() {
    // The θ-aware plan (diagonal globals elided, half-shard payloads)
    // moves at most half the bytes of the naive full-partition exchange
    // on the 12-qubit UCCSD ansatz: naive/lean is 2.00 / 2.56 / 2.89 at
    // 2 / 4 / 8 ranks, so the bound holds at equality on 2 ranks.
    let ansatz = uccsd_ansatz(12, 4).expect("UCCSD");
    let params: Vec<f64> = (0..ansatz.n_params())
        .map(|k| 0.05 + 0.02 * k as f64)
        .collect();
    let bound = ansatz.bind(&params).expect("bind");
    for n_ranks in [2usize, 4, 8] {
        let lean = plan_communication(&bound, n_ranks).expect("plan").bytes;
        let naive = plan_communication_naive(&bound, n_ranks)
            .expect("naive plan")
            .bytes;
        assert!(lean > 0, "ranks={n_ranks}");
        assert!(
            naive >= 2 * lean,
            "ranks={n_ranks}: naive {naive} B < 2 x lean {lean} B"
        );
    }
}

#[test]
fn lean_plan_keeps_layered_hea_payload_under_055_of_naive() {
    // Layered hardware-efficient circuit (RY sweep, CX ring crossing the
    // global/local boundary, RZZ ladder): at 4 and 8 ranks the lean plan
    // moves at most 0.55x the naive payload (2 ranks sit at 4/7).
    for (n, layers) in [(12usize, 1usize), (24, 2)] {
        let mut c = nwq_circuit::Circuit::new(n);
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
        for n_ranks in [4usize, 8] {
            let lean = plan_communication(&c, n_ranks).expect("plan");
            let naive = plan_communication_naive(&c, n_ranks).expect("naive plan");
            assert!(lean.exchanges_elided > 0, "{n}q ranks={n_ranks}");
            let ratio = lean.bytes as f64 / naive.bytes as f64;
            assert!(ratio <= 0.55, "{n}q ranks={n_ranks}: {ratio}");
        }
    }
}

/// The circuit the benchmark ledger's `sharded_hea22` and the `nwq dist`
/// CLI build: an H wall, then per layer an RY sweep and a CX ring.
fn layered_hea(n: usize, layers: usize) -> nwq_circuit::Circuit {
    let mut c = nwq_circuit::Circuit::new(n);
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
    }
    c
}

#[test]
fn plan_pins_the_hea_traffic_of_the_ledger_and_ci_runs() {
    // (qubits, ranks, layers): the ledger's 22-qubit 2-rank run, then
    // `nwq dist` as the dist and chaos CI jobs call it.
    let cases = [
        (
            22,
            2,
            2,
            CommStats {
                messages: 10,
                bytes: 268_435_456,
                global_gates: 7,
                local_gates: 103,
                exchanges_elided: 4,
                bytes_saved: 201_326_592,
            },
        ),
        (
            14,
            4,
            2,
            CommStats {
                messages: 36,
                bytes: 2_097_152,
                global_gates: 12,
                local_gates: 58,
                exchanges_elided: 28,
                bytes_saved: 2_097_152,
            },
        ),
        (
            24,
            4,
            1,
            CommStats {
                messages: 22,
                bytes: 1_342_177_280,
                global_gates: 7,
                local_gates: 65,
                exchanges_elided: 14,
                bytes_saved: 1_073_741_824,
            },
        ),
    ];
    for (n, n_ranks, layers, want) in cases {
        let got = plan_communication(&layered_hea(n, layers), n_ranks).expect("plan");
        assert_eq!(got, want, "{n} qubits, {n_ranks} ranks, {layers} layers");
    }
}

#[test]
fn cost_model_shows_compute_scaling() {
    let ansatz = uccsd_ansatz(6, 2)
        .expect("UCCSD")
        .bind(&[0.1; 8])
        .expect("bind");
    let model = CostModel::perlmutter_like();
    let t1 = model.compute_time_s(ansatz.len() as u64, 6, 1);
    let t4 = model.compute_time_s(ansatz.len() as u64, 6, 4);
    assert!((t1 / t4 - 4.0).abs() < 1e-9);
    // Communication is zero on one rank, positive on more.
    assert_eq!(
        model.comm_time_s(&plan_communication(&ansatz, 1).expect("plan"), 1),
        0.0
    );
    assert!(model.comm_time_s(&plan_communication(&ansatz, 4).expect("plan"), 4) > 0.0);
}
