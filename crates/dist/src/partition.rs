//! A statevector partitioned across ranks.
//!
//! Rank `r` owns amplitudes whose top `log2(R)` index bits equal `r`
//! (PGAS layout, as in SV-Sim): global index = `(rank << n_local) | local`.
//! This is the container only — what [`crate::shard`] assembles from its
//! workers' shards and [`crate::energy`] reads out; gates are applied by
//! the sharded executor, never here.

use crate::comm::CommStats;
use nwq_common::bits::dim;
use nwq_common::{Error, Result, C64, C_ONE, C_ZERO};
use nwq_statevec::StateVector;

/// A distributed statevector over `n_ranks` simulated ranks.
#[derive(Clone, Debug)]
pub struct DistStateVector {
    n_qubits: usize,
    n_local: usize,
    partitions: Vec<Vec<C64>>,
    comm: CommStats,
}

impl DistStateVector {
    /// `|0…0⟩` distributed over `n_ranks` (power of two, and small enough
    /// that every rank owns at least 4 amplitudes so two-qubit local gates
    /// remain possible).
    pub fn zero(n_qubits: usize, n_ranks: usize) -> Result<Self> {
        let n_local = crate::shard::validate_ranks(n_qubits, n_ranks)?;
        let part_len = dim(n_local);
        let mut partitions = vec![vec![C_ZERO; part_len]; n_ranks];
        partitions[0][0] = C_ONE;
        Ok(DistStateVector {
            n_qubits,
            n_local,
            partitions,
            comm: CommStats::default(),
        })
    }

    /// Assembles a distributed state from worker-produced shards (the real
    /// sharded executor's reassembly path). Shard shape is the caller's
    /// invariant: `partitions.len()` ranks of `2^n_local` amplitudes each.
    pub(crate) fn from_parts(
        n_qubits: usize,
        n_local: usize,
        partitions: Vec<Vec<C64>>,
        comm: CommStats,
    ) -> Self {
        debug_assert_eq!(partitions.len() << n_local, dim(n_qubits));
        debug_assert!(partitions.iter().all(|p| p.len() == dim(n_local)));
        DistStateVector {
            n_qubits,
            n_local,
            partitions,
            comm,
        }
    }

    /// Read-only view of one rank's shard (global indices
    /// `rank·2^n_local .. (rank+1)·2^n_local`).
    pub fn partition(&self, rank: usize) -> &[C64] {
        &self.partitions[rank]
    }

    /// Register width.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Rank count.
    pub fn n_ranks(&self) -> usize {
        self.partitions.len()
    }

    /// Qubits stored within each rank (the rest select the rank).
    pub fn n_local(&self) -> usize {
        self.n_local
    }

    /// Communication counters accumulated so far.
    pub fn comm_stats(&self) -> CommStats {
        self.comm
    }

    /// Gathers the partitions into a single-node [`StateVector`]
    /// (the verification/readout path).
    pub fn gather(&self) -> StateVector {
        let mut amps = Vec::with_capacity(dim(self.n_qubits));
        for p in &self.partitions {
            amps.extend_from_slice(p);
        }
        StateVector::from_amplitudes(amps).expect("partition sizes are powers of two")
    }

    /// Amplitudes per rank partition.
    pub fn partition_len(&self) -> usize {
        self.partitions[0].len()
    }

    /// Overwrites one amplitude of one rank's partition — the
    /// fault-injection hook modelling a corrupted exchange payload. The
    /// simulator itself never calls this.
    pub fn corrupt_amplitude(&mut self, rank: usize, index: usize, value: C64) -> Result<()> {
        let part = self.partitions.get_mut(rank).ok_or(Error::Invalid(format!(
            "rank {rank} out of range for corruption hook"
        )))?;
        let len = part.len();
        let slot = part.get_mut(index).ok_or(Error::Invalid(format!(
            "amplitude {index} out of range {len}"
        )))?;
        *slot = value;
        Ok(())
    }

    /// Rescales one rank's partition — the fault-injection hook modelling
    /// accumulated norm drift on a node.
    pub fn scale_partition(&mut self, rank: usize, factor: f64) -> Result<()> {
        let part = self.partitions.get_mut(rank).ok_or(Error::Invalid(format!(
            "rank {rank} out of range for drift hook"
        )))?;
        for a in part.iter_mut() {
            *a = *a * factor;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_checks() {
        assert!(DistStateVector::zero(4, 3).is_err());
        assert!(DistStateVector::zero(3, 4).is_err()); // < 2 local qubits
        let d = DistStateVector::zero(5, 4).unwrap();
        assert_eq!(d.n_local(), 3);
        assert_eq!(d.n_ranks(), 4);
        assert_eq!(d.gather().probability(0), 1.0);
    }

    #[test]
    fn corruption_hook_plants_non_finite_amplitudes() {
        let mut d = DistStateVector::zero(5, 4).unwrap();
        d.corrupt_amplitude(2, 3, C64::new(f64::NAN, f64::NAN))
            .unwrap();
        assert!(!d.gather().norm_sqr().is_finite());
        assert!(d.corrupt_amplitude(4, 0, C_ZERO).is_err());
        assert!(d.corrupt_amplitude(0, 8, C_ZERO).is_err());
    }

    #[test]
    fn drift_hook_breaks_normalization_detectably() {
        let mut d = DistStateVector::zero(5, 4).unwrap();
        d.scale_partition(0, 1.001).unwrap();
        let norm = d.gather().norm_sqr();
        assert!(norm.is_finite());
        assert!((norm - 1.0).abs() > 1e-9, "norm {norm} should have drifted");
        assert!(d.scale_partition(4, 1.001).is_err());
    }
}
