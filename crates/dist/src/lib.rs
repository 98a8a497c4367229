//! # nwq-dist
//!
//! Multi-rank (PGAS-style) distributed statevector execution — the
//! substrate standing in for NWQ-Sim's multi-node MPI/NVSHMEM backends on
//! Perlmutter/Summit. One way to run a circuit sharded:
//!
//! - [`shard`] — the execution core: one compile (circuit → tape of gate
//!   steps, the half-shard swaps that make global qubits local, snapshot
//!   barriers and scheduled faults), one generation loop (one OS worker
//!   thread per rank, the swap its only message, respawn-and-replay from
//!   the last consistent cut on failure). [`run_sharded`] is that
//!   loop with snapshots, faults and recovery all off; the result is
//!   bitwise identical to [`nwq_statevec::simulate`], which is the
//!   reference every parity test compares against;
//! - [`partition::DistStateVector`] — the partitioned amplitude container
//!   the executor assembles;
//! - [`energy`] — gather-free shard-parallel expectation values, so
//!   registers past single-allocation size can still be read out;
//! - [`comm`] — communication counters and the non-executing planners
//!   ([`plan_communication`] pinned to agree exactly with the measured
//!   exchange counts, [`plan_communication_naive`] the full-exchange
//!   baseline that `bytes_saved` is measured against);
//! - [`costmodel`] — α–β latency/bandwidth model with Perlmutter-like
//!   defaults, kept as a predictor checked against measured counters;
//! - [`faults`] — deterministic seeded fault injection (failed
//!   evaluations, NaN energies, rank deaths / message drops / stragglers)
//!   used to exercise the workspace's recovery paths;
//! - [`snapshot`] — versioned consistent-cut shard snapshots backing the
//!   executor's bitwise rank-loss recovery.

#![warn(missing_docs)]

pub mod comm;
pub mod costmodel;
pub mod energy;
pub mod faults;
pub mod partition;
pub mod shard;
pub mod snapshot;

pub use comm::{plan_communication, plan_communication_naive, plan_communication_with, CommStats};
pub use costmodel::CostModel;
pub use energy::{distributed_energy, run_resilient_energy};
pub use faults::{
    FaultInjector, FaultSchedule, FaultSpec, FaultStats, MessageDrop, RankDeath, RankDelay,
};
pub use partition::DistStateVector;
pub use shard::{
    run_sharded, run_sharded_resilient, RecoveryOptions, RecoveryReport, ShardOptions,
};
pub use snapshot::SnapshotStore;

#[cfg(test)]
pub(crate) mod proptests {
    use crate::comm::{plan_communication, plan_communication_naive};
    use crate::{run_sharded, run_sharded_resilient, FaultSchedule, RecoveryOptions, ShardOptions};
    use nwq_circuit::{Circuit, Gate};
    use nwq_common::mat::{mat_cx, mat_rx, mat_ry};
    use nwq_statevec::StateVector;
    use proptest::prelude::*;

    pub(crate) fn arb_circuit(n: usize, max_len: usize) -> impl Strategy<Value = Circuit> {
        let gate = (0..9u8, 0..n, 1..n.max(2), -3.0..3.0f64);
        proptest::collection::vec(gate, 0..max_len).prop_map(move |specs| {
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
                    // A dense 4×4 unitary: with SWAP, the two-qubit kind whose
                    // kernel sums depend on which qubit is the matrix high bit.
                    8 if q2 != q => {
                        let m = mat_cx() * mat_ry(angle).kron(&mat_rx(0.5 - angle));
                        c.push(Gate::Fused2(q, q2, m)).expect("distinct qubits")
                    }
                    _ => c.rx(q, angle),
                };
            }
            c
        })
    }

    pub(crate) fn same_bits(a: &StateVector, b: &StateVector) -> bool {
        a.amplitudes()
            .iter()
            .zip(b.amplitudes())
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn distributed_bit_exact_vs_single_node(
            c in (5usize..=6).prop_flat_map(|n| arb_circuit(n, 24))
        ) {
            // The sharded run must be BITWISE identical to the single-node
            // simulator for every shard count — same kernel arithmetic,
            // same diagonal fast paths, exchange and all.
            let single = nwq_statevec::simulate(&c, &[]).unwrap();
            for n_ranks in [1usize, 2, 4, 8] {
                let d = run_sharded(&c, &[], n_ranks, &ShardOptions::default()).unwrap();
                prop_assert!(same_bits(&d.gather(), &single), "ranks={}", n_ranks);
                // Measured exchange traffic equals the non-executing plan,
                // and every byte not moved is booked against the naive
                // full-exchange baseline.
                let stats = d.comm_stats();
                prop_assert_eq!(stats, plan_communication(&c, n_ranks).unwrap());
                let naive = plan_communication_naive(&c, n_ranks).unwrap();
                prop_assert_eq!(stats.bytes + stats.bytes_saved, naive.bytes);
            }
        }

        #[test]
        fn resilient_run_bit_exact_clean_and_under_rank_death(
            c in (5usize..=6).prop_flat_map(|n| arb_circuit(n, 20)),
            kill_seed in 0usize..1000,
        ) {
            // The same tape with snapshot barriers compiled in and a fault
            // plan armed: bitwise identical to the single-node simulator
            // for every shard count, whether the schedule is empty (a
            // zero-rate injector consumes its draws and plans nothing) or
            // kills a rank mid-run.
            let single = nwq_statevec::simulate(&c, &[]).unwrap();
            let opts = ShardOptions { exchange_timeout_ms: 100, exchange_retries: 2 };
            let recovery = RecoveryOptions {
                snapshot_every: 2,
                max_recoveries: 8,
                keep_versions: 2,
                snapshot_dir: None,
            };
            for n_ranks in [1usize, 2, 4, 8] {
                let mut inj = crate::FaultInjector::new(crate::FaultSpec::default());
                let calm = FaultSchedule::from_injector(&mut inj, c.len(), n_ranks);
                prop_assert_eq!(inj.stats().total(), 0);
                let (d, report) =
                    run_sharded_resilient(&c, &[], n_ranks, &opts, &recovery, &calm).unwrap();
                prop_assert_eq!(report.recoveries, 0);
                prop_assert!(same_bits(&d.gather(), &single), "calm ranks={}", n_ranks);
                prop_assert_eq!(d.comm_stats(), plan_communication(&c, n_ranks).unwrap());
            }
            // A rank death replayed from the last cut (elision decisions
            // included) stays bitwise.
            if !c.gates().is_empty() {
                let n_ranks = 4usize;
                let schedule = FaultSchedule::kill(
                    kill_seed % c.gates().len(),
                    (kill_seed / 7) % n_ranks,
                );
                let (d, report) =
                    run_sharded_resilient(&c, &[], n_ranks, &opts, &recovery, &schedule).unwrap();
                prop_assert_eq!(report.recoveries, 1);
                prop_assert!(same_bits(&d.gather(), &single), "rank death vs single");
            }
        }

        #[test]
        fn comm_monotone_in_rank_count(c in arb_circuit(6, 24)) {
            let m2 = plan_communication(&c, 2).unwrap().messages;
            let m4 = plan_communication(&c, 4).unwrap().messages;
            let m8 = plan_communication(&c, 8).unwrap().messages;
            prop_assert!(m2 <= m4 && m4 <= m8);
        }
    }
}
