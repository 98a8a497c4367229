//! Communication accounting for sharded execution.

use nwq_circuit::Circuit;
use nwq_common::Result;
use std::ops::AddAssign;

/// Counters for inter-rank communication. This is the quantity that
/// dominates distributed statevector simulation (SV-Sim's PGAS design):
/// gates on *global* qubits (those encoded in the rank id) force partner
/// ranks to exchange amplitudes. The executor's only message is the
/// half-shard swap that makes a global qubit local.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Point-to-point messages exchanged: one per rank per swap.
    pub messages: u64,
    /// Payload bytes moved between ranks: half a shard per message.
    pub bytes: u64,
    /// Gates on at least one qubit the canonical layout keeps global.
    pub global_gates: u64,
    /// Gates on canonically local qubits only.
    pub local_gates: u64,
    /// Naive messages of the global gates served without any swap:
    /// diagonal gates (a local phase sweep), block gates whose selector
    /// is global (each rank applies its own sub-block), and gates whose
    /// global qubits an earlier swap already made local.
    pub exchanges_elided: u64,
    /// Naive payload bytes minus moved bytes, so `bytes + bytes_saved`
    /// is the [`plan_communication_naive`] payload on a fault-free run.
    pub bytes_saved: u64,
}

impl CommStats {
    /// Average message size in bytes (0 when no messages were sent).
    pub fn avg_message_bytes(&self) -> f64 {
        if self.messages == 0 {
            0.0
        } else {
            self.bytes as f64 / self.messages as f64
        }
    }

    /// Fraction of gates that needed communication.
    pub fn global_fraction(&self) -> f64 {
        let total = self.global_gates + self.local_gates;
        if total == 0 {
            0.0
        } else {
            self.global_gates as f64 / total as f64
        }
    }
}

impl AddAssign for CommStats {
    fn add_assign(&mut self, rhs: CommStats) {
        self.messages += rhs.messages;
        self.bytes += rhs.bytes;
        self.global_gates += rhs.global_gates;
        self.local_gates += rhs.local_gates;
        self.exchanges_elided += rhs.exchanges_elided;
        self.bytes_saved += rhs.bytes_saved;
    }
}

/// Predicts the communication a circuit will generate on `n_ranks` ranks
/// *without executing it* — used for scaling studies beyond locally
/// simulable sizes. Must agree exactly with the executing path (pinned by
/// tests), which includes rejecting exactly the rank counts the executor
/// rejects: `n_ranks` must be a power of two small enough that every rank
/// keeps at least 2 local qubits.
///
/// This is the θ-aware plan: it resolves every gate's bound matrix and
/// compiles the very tape the executor replays — which qubits a gate needs
/// local (none for a diagonal, all but the selector for a block gate),
/// the swaps that bring them there, the steps that restore the layout —
/// so "measured == planned" is a structural identity on fault-free runs.
/// Symbolic (unbound)
/// circuits are planned against a representative generic binding; pass
/// concrete angles via [`plan_communication_with`] when you have them.
pub fn plan_communication(circuit: &Circuit, n_ranks: usize) -> Result<CommStats> {
    plan_communication_with(circuit, &[], n_ranks)
}

/// [`plan_communication`] against a concrete parameter binding — the plan
/// the executor realizes when running `circuit` with `params`.
pub fn plan_communication_with(
    circuit: &Circuit,
    params: &[f64],
    n_ranks: usize,
) -> Result<CommStats> {
    crate::shard::plan_lean(circuit, params, n_ranks)
}

/// Predicts the *naive* exchange pattern: every global gate moves full
/// partitions pairwise within its 2^globals-rank group, regardless of
/// matrix structure. No executor sends this way; it is the planner-only
/// baseline `bytes_saved` is measured against (`bytes + bytes_saved` of
/// any run equals this plan's `bytes`). Rejects exactly the rank counts
/// the executor rejects.
pub fn plan_communication_naive(circuit: &Circuit, n_ranks: usize) -> Result<CommStats> {
    let n_local = crate::shard::validate_ranks(circuit.n_qubits(), n_ranks)?;
    let part_bytes = 16u64 << n_local;
    let mut stats = CommStats::default();
    for g in circuit.gates() {
        let globals = g.qubits().iter().filter(|&&q| q >= n_local).count() as u32;
        if globals == 0 {
            stats.local_gates += 1;
        } else {
            stats.global_gates += 1;
            // Each group of 2^globals ranks exchanges pairwise: every rank
            // sends its partition to each of the (2^globals − 1) partners.
            let group = 1u64 << globals;
            let msgs = n_ranks as u64 / group * group * (group - 1);
            stats.messages += msgs;
            stats.bytes += msgs * part_bytes;
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{run_sharded, ShardOptions};
    use nwq_circuit::Circuit;

    #[test]
    fn local_only_circuit_has_no_comm() {
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).rz(1, 0.3);
        let s = plan_communication(&c, 4).unwrap(); // 2 global qubits: 2 and 3
        assert_eq!(s.messages, 0);
        assert_eq!(s.local_gates, 3);
        assert_eq!(s.global_fraction(), 0.0);
    }

    #[test]
    fn global_single_qubit_gate_pairs_ranks() {
        let mut c = Circuit::new(4);
        c.h(3); // with 4 ranks, qubits 2,3 are global
        let s = plan_communication(&c, 4).unwrap();
        // One swap brings qubit 3 in and one takes it home: each is 4
        // messages (every rank to its partner) of half a partition.
        assert_eq!(s.messages, 8);
        assert_eq!(s.bytes, 8 * 16 * 2); // partitions of 2^2 amplitudes
        assert_eq!(s.global_gates, 1);
        assert_eq!(s.exchanges_elided, 0);
        assert_eq!(s.bytes_saved, 0);
        // The naive plan sends 4 whole partitions: the same bytes.
        let naive = plan_communication_naive(&c, 4).unwrap();
        assert_eq!((naive.messages, naive.bytes), (4, 4 * 16 * 4));
    }

    #[test]
    fn diagonal_global_gate_moves_zero_bytes() {
        let mut c = Circuit::new(4);
        c.rz(3, 0.7).cz(2, 3); // both diagonal, both on global qubits
        let s = plan_communication(&c, 4).unwrap();
        assert_eq!(s.messages, 0);
        assert_eq!(s.bytes, 0);
        assert_eq!(s.global_gates, 2);
        // rz: 1 naive send × 4 ranks; cz: 3 naive sends × 4 ranks.
        assert_eq!(s.exchanges_elided, 4 + 12);
        assert_eq!(s.bytes_saved, (4 + 12) * 16 * 4);
        let naive = plan_communication_naive(&c, 4).unwrap();
        assert_eq!(naive.messages, 4 + 12);
        assert_eq!(s.bytes_saved, naive.bytes);
    }

    #[test]
    fn global_global_two_qubit_gate_quads_ranks() {
        let mut c = Circuit::new(4);
        c.cx(2, 3);
        // Naive: one group of 4 ranks, each sends to 3 partners.
        let naive = plan_communication_naive(&c, 4).unwrap();
        assert_eq!(naive.messages, 12);
        assert_eq!(naive.global_gates, 1);
        assert_eq!(naive.exchanges_elided, 0);
        // Swap: CX's control selects a sub-block, so only the target
        // comes local (one swap in, one home; 4 half-partition messages
        // each) and every rank applies its own sub-block.
        let lean = plan_communication(&c, 4).unwrap();
        assert_eq!(lean.messages, 8);
        assert_eq!(lean.bytes, 8 * 16 * 2);
        assert_eq!(lean.exchanges_elided, 0);
        assert_eq!(lean.bytes_saved, 12 * 16 * 4 - 8 * 16 * 2);
    }

    #[test]
    fn more_ranks_more_comm() {
        let mut c = Circuit::new(10);
        for q in 0..10 {
            c.h(q);
        }
        let s2 = plan_communication(&c, 2).unwrap();
        let s8 = plan_communication(&c, 8).unwrap();
        assert!(s8.global_gates > s2.global_gates);
        assert!(s8.messages > s2.messages);
    }

    #[test]
    fn single_rank_never_communicates() {
        let mut c = Circuit::new(6);
        c.h(5).cx(4, 5).swap(0, 5);
        let s = plan_communication(&c, 1).unwrap();
        assert_eq!(s.messages, 0);
        assert_eq!(s.global_gates, 0);
        assert_eq!(s.local_gates, 3);
    }

    #[test]
    fn accumulation() {
        let mut a = CommStats {
            messages: 2,
            bytes: 64,
            global_gates: 1,
            local_gates: 3,
            exchanges_elided: 5,
            bytes_saved: 128,
        };
        a += CommStats {
            messages: 1,
            bytes: 32,
            global_gates: 1,
            local_gates: 0,
            exchanges_elided: 2,
            bytes_saved: 64,
        };
        assert_eq!(a.messages, 3);
        assert_eq!(a.bytes, 96);
        assert_eq!(a.exchanges_elided, 7);
        assert_eq!(a.bytes_saved, 192);
        assert!((a.avg_message_bytes() - 32.0).abs() < 1e-12);
        assert!((a.global_fraction() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn non_power_of_two_ranks_rejected() {
        let c = Circuit::new(4);
        for bad in [0usize, 3, 6, 12] {
            let e = plan_communication(&c, bad).unwrap_err();
            assert!(
                matches!(e, nwq_common::Error::Invalid(_)),
                "{bad} ranks: {e}"
            );
        }
    }

    /// Regression for the degenerate-rank divergence: with
    /// `n_ranks ∈ {2^n_qubits, 2^(n_qubits+1)}` the executor refuses to
    /// build partitions (fewer than 2 local qubits per rank), but the
    /// planner used to clamp `n_local` and report full pairwise traffic
    /// for 1-amplitude "partitions". Planner and executor must agree in
    /// this regime too: both reject.
    #[test]
    fn degenerate_rank_counts_agree_with_executor() {
        for n_qubits in [3usize, 4, 5] {
            let mut c = Circuit::new(n_qubits);
            for q in 0..n_qubits {
                c.h(q);
            }
            for n_ranks in [1usize << n_qubits, 1usize << (n_qubits + 1)] {
                let planned = plan_communication(&c, n_ranks);
                let executed = run_sharded(&c, &[], n_ranks, &ShardOptions::default());
                assert!(
                    planned.is_err(),
                    "planner must reject {n_ranks} ranks on {n_qubits} qubits"
                );
                assert!(
                    executed.is_err(),
                    "executor must reject {n_ranks} ranks on {n_qubits} qubits"
                );
                assert!(matches!(
                    planned.unwrap_err(),
                    nwq_common::Error::Invalid(_)
                ));
            }
            // The boundary case (exactly 2 local qubits) is valid on both
            // sides and must agree exactly.
            if n_qubits >= 4 {
                let n_ranks = 1usize << (n_qubits - 2);
                let planned = plan_communication(&c, n_ranks).unwrap();
                let measured = run_sharded(&c, &[], n_ranks, &ShardOptions::default())
                    .unwrap()
                    .comm_stats();
                assert_eq!(planned, measured, "{n_qubits} qubits / {n_ranks} ranks");
            }
        }
    }
}
