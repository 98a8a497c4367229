//! Interconnect cost model.
//!
//! Converts [`CommStats`] and gate counts into a
//! modeled wall-clock time for an HPC system, using the classic
//! latency–bandwidth (α–β) model plus a per-amplitude compute rate. The
//! default parameters approximate a Perlmutter-like machine (Slingshot-11
//! NICs, A100-class node throughput); they are inputs to scaling *shape*
//! studies, not absolute-time claims.

use crate::comm::CommStats;

/// α–β communication model plus a flat compute rate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Per-message latency in seconds (α).
    pub latency_s: f64,
    /// Link bandwidth in bytes/second (1/β).
    pub bandwidth_bps: f64,
    /// Amplitude updates per second per rank (device throughput).
    pub updates_per_s: f64,
}

impl CostModel {
    /// Perlmutter-like defaults: ~2 µs MPI latency, ~25 GB/s effective
    /// per-NIC bandwidth, ~10^10 amplitude updates/s per GPU.
    pub fn perlmutter_like() -> Self {
        CostModel {
            latency_s: 2e-6,
            bandwidth_bps: 25e9,
            updates_per_s: 1e10,
        }
    }

    /// Modeled communication time for the given counters, assuming the
    /// per-rank exchanges of one gate proceed concurrently across rank
    /// pairs (so each gate pays one partition transfer, not `n_ranks`).
    ///
    /// The model consumes whatever planner produced the counters: feed
    /// it [`plan_communication`](crate::comm::plan_communication) (the
    /// swap plan — elided diagonals, half-shard payloads) and
    /// the smaller `bytes` shrink the β term directly, so halving the
    /// moved payload halves the bandwidth-bound share of the modeled
    /// time.
    pub fn comm_time_s(&self, stats: &CommStats, n_ranks: usize) -> f64 {
        if stats.messages == 0 {
            return 0.0;
        }
        // Per global gate, all pair exchanges happen in parallel; the
        // critical path is one message of the average size per gate.
        let per_gate_bytes = stats.avg_message_bytes();
        let gates = stats.global_gates as f64;
        let concurrent_msgs = (stats.messages as f64 / gates / n_ranks as f64).max(1.0);
        gates * concurrent_msgs * (self.latency_s + per_gate_bytes / self.bandwidth_bps)
    }

    /// Modeled compute time: every gate updates all local amplitudes.
    pub fn compute_time_s(&self, total_gates: u64, n_qubits: usize, n_ranks: usize) -> f64 {
        let local_amps = (1u128 << n_qubits) as f64 / n_ranks as f64;
        total_gates as f64 * local_amps / self.updates_per_s
    }

    /// Total modeled time.
    pub fn total_time_s(
        &self,
        stats: &CommStats,
        total_gates: u64,
        n_qubits: usize,
        n_ranks: usize,
    ) -> f64 {
        self.comm_time_s(stats, n_ranks) + self.compute_time_s(total_gates, n_qubits, n_ranks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(messages: u64, bytes: u64, global: u64, local: u64) -> CommStats {
        CommStats {
            messages,
            bytes,
            global_gates: global,
            local_gates: local,
            ..CommStats::default()
        }
    }

    #[test]
    fn zero_comm_zero_time() {
        let m = CostModel::perlmutter_like();
        assert_eq!(m.comm_time_s(&stats(0, 0, 0, 10), 4), 0.0);
    }

    #[test]
    fn comm_time_scales_with_bytes() {
        let m = CostModel::perlmutter_like();
        let t_small = m.comm_time_s(&stats(4, 4 * 1024, 1, 0), 4);
        let t_big = m.comm_time_s(&stats(4, 4 * 1024 * 1024, 1, 0), 4);
        assert!(t_big > t_small);
    }

    #[test]
    fn half_shard_payloads_halve_bandwidth_bound_time() {
        // In the bandwidth-dominated regime, the lean planner's
        // half-shard payloads (same message count, half the bytes) must
        // halve the modeled comm time to within the latency term.
        let m = CostModel::perlmutter_like();
        let full_bytes = 4u64 * (16 << 20);
        let full = m.comm_time_s(&stats(4, full_bytes, 1, 0), 4);
        let half = m.comm_time_s(&stats(4, full_bytes / 2, 1, 0), 4);
        let alpha = m.latency_s;
        assert!(
            (half - full / 2.0).abs() <= alpha,
            "half-payload time {half} vs full/2 {}",
            full / 2.0
        );
        // And a fully elided (diagonal) schedule costs nothing at all.
        assert_eq!(
            m.comm_time_s(
                &CommStats {
                    exchanges_elided: 8,
                    bytes_saved: full_bytes,
                    global_gates: 2,
                    ..CommStats::default()
                },
                4
            ),
            0.0
        );
    }

    #[test]
    fn compute_time_halves_with_doubled_ranks() {
        let m = CostModel::perlmutter_like();
        let t2 = m.compute_time_s(100, 20, 2);
        let t4 = m.compute_time_s(100, 20, 4);
        assert!((t2 / t4 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn strong_scaling_crossover_exists() {
        // With a fixed problem, adding ranks cuts compute but adds
        // communication; beyond some rank count total time rises again —
        // the canonical distributed-statevector tradeoff.
        let m = CostModel::perlmutter_like();
        let n_qubits = 24;
        let total_gates = 10_000u64;
        let time_at = |n_ranks: usize| {
            let n_global = n_ranks.trailing_zeros() as usize;
            let part_bytes = 16u64 << (n_qubits - n_global);
            // Assume 30 % of gates touch a global qubit.
            let global = total_gates * 3 / 10;
            let msgs = global * 2 * (n_ranks as u64 / 2);
            let s = stats(msgs, msgs * part_bytes, global, total_gates - global);
            m.total_time_s(&s, total_gates, n_qubits, n_ranks)
        };
        let t1 = time_at(1);
        let t4 = time_at(4);
        assert!(t4 < t1, "scaling must help initially: {t4} !< {t1}");
    }
}
