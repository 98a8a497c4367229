//! Integration: the sharded multi-rank engine is bit-exact against the
//! single-node engine on chemistry workloads, and its communication
//! accounting matches the static planner.

use nwq_chem::molecules::h2_sto3g;
use nwq_chem::uccsd::uccsd_ansatz;
use nwq_circuit::qft::qft_circuit;
use nwq_dist::{plan_communication, run_sharded, CostModel, DistStateVector, ShardOptions};
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
