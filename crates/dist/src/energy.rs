//! Gather-free distributed expectation values.
//!
//! The point of sharded execution is registers too large to hold in one
//! allocation — so the energy readout must not [`DistStateVector::gather`]
//! either. This module evaluates `⟨ψ|H|ψ⟩` directly on the shards with the
//! batched §4.2 flip-group reduction from [`nwq_statevec::expval`]:
//!
//! `⟨H⟩ = Σ_m Σ_x conj(ψ[x⊕m]) ψ[x] · Σ_{t: m_t=m} c_t φ_t (−1)^{|x∧z_t|}`
//!
//! For a flip-mask `m`, rank `r`'s partner shard is `r ⊕ (m >> n_local)` —
//! each rank reads exactly one remote shard per group, the distributed
//! analog of one exchanged message per rank. A group's value is
//! [`group_value`]'s fixed tree over aligned leaves in global index
//! order: rank subtrees are added pairwise in rank order, and shards
//! smaller than a leaf are chained inside it. So the energy is bitwise
//! [`nwq_statevec::expval::energy_direct_batched`]'s on the gathered
//! state, at every rank count and pool width.
//!
//! The expectation-phase traffic is recorded in telemetry
//! (`dist.expval_messages` / `dist.expval_bytes`) but *not* folded into
//! the gate-phase [`crate::comm::CommStats`]: `plan_communication`
//! predicts circuit execution, and the measured-equals-planned invariant
//! is pinned by tests.

use crate::partition::DistStateVector;
use nwq_common::{Error, Result, C64};
use nwq_pauli::PauliOp;
use nwq_statevec::expval::{group_value, GroupPhase};

/// Evaluates `Re⟨ψ|H|ψ⟩` on a sharded register without gathering.
pub fn distributed_energy(state: &DistStateVector, op: &PauliOp) -> Result<f64> {
    if op.n_qubits() != state.n_qubits() {
        return Err(Error::DimensionMismatch {
            expected: 1usize << state.n_qubits(),
            got: 1usize << op.n_qubits(),
        });
    }
    let _span = nwq_telemetry::span!("dist.energy");
    let n_local = state.n_local();
    let n_ranks = state.n_ranks();
    let part_bytes = (state.partition_len() * 16) as u64;
    let shards: Vec<&[C64]> = (0..n_ranks).map(|r| state.partition(r)).collect();
    let mut expval_messages = 0u64;
    let mut total = 0.0;
    for phase in GroupPhase::of(op.prepared()) {
        let global_flip = (phase.mask() >> n_local) as usize;
        if global_flip >= n_ranks {
            // A flip on a rank-id bit beyond the layout pairs each shard
            // with one that does not exist — every such product is over
            // amplitudes of disjoint support halves, but the mask cannot
            // arise: PauliOp width was checked above, so global_flip < 2^n_global.
            return Err(Error::Invalid(format!(
                "flip mask {:#x} addresses rank {global_flip} of {n_ranks}",
                phase.mask()
            )));
        }
        if global_flip != 0 {
            // One cross-rank shard read per rank, mirroring an exchange.
            expval_messages += n_ranks as u64;
        }
        total += group_value(&shards, n_local, phase);
    }
    nwq_telemetry::counter_add("dist.expval_messages", expval_messages);
    nwq_telemetry::counter_add("dist.expval_bytes", expval_messages * part_bytes);
    if total.is_finite() {
        Ok(total)
    } else {
        nwq_telemetry::counter_add("resilience.nonfinite_detected", 1);
        Err(Error::Numerical(
            "non-finite energy from distributed expectation".into(),
        ))
    }
}

/// Runs `circuit` through the survivable executor
/// ([`crate::shard::run_sharded_resilient`]: snapshots + recovery), then
/// reads the energy out gather-free from the recovered
/// (bitwise-identical) shards. Returns `(energy, recovery report)`.
pub fn run_resilient_energy(
    circuit: &nwq_circuit::Circuit,
    params: &[f64],
    n_ranks: usize,
    op: &PauliOp,
    opts: &crate::shard::ShardOptions,
    recovery: &crate::shard::RecoveryOptions,
    schedule: &crate::faults::FaultSchedule,
) -> Result<(f64, crate::shard::RecoveryReport)> {
    let (state, report) =
        crate::shard::run_sharded_resilient(circuit, params, n_ranks, opts, recovery, schedule)?;
    let energy = distributed_energy(&state, op)?;
    Ok((energy, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{run_sharded, ShardOptions};
    use nwq_circuit::Circuit;
    use nwq_statevec::expval::shard_group_partial;

    fn sample_circuit(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        c.h(0);
        for q in 1..n {
            c.cx(q - 1, q);
        }
        c.rz(n - 1, 0.7).ry(0, -0.4).swap(0, n - 1);
        c
    }

    #[test]
    fn distributed_energy_matches_single_node() {
        let c = sample_circuit(6);
        let h =
            PauliOp::parse("0.5 ZZIIII + 0.25 XIIIIX + 0.125 IYZXII + 0.1 ZIIIII + 0.05 IIIIII")
                .unwrap();
        let single = nwq_statevec::simulate(&c, &[]).unwrap();
        let expected = nwq_statevec::expval::energy_direct_batched(&single, &h).unwrap();
        for n_ranks in [1usize, 2, 4, 8] {
            let d = run_sharded(&c, &[], n_ranks, &ShardOptions::default()).unwrap();
            let e = distributed_energy(&d, &h).unwrap();
            assert!(
                (e - expected).abs() < 1e-12,
                "ranks={n_ranks}: {e} vs {expected}"
            );
        }
    }

    /// The sharded readout over the operator's tables gives the bits of
    /// the same readout with every phase streamed, at every rank count,
    /// and both agree with the single-node per-term reference.
    #[test]
    fn table_readout_is_bitwise_the_streaming_readout_at_every_rank_count() {
        use nwq_pauli::PreparedObservable;
        let c = sample_circuit(6);
        // XIIIIX flips a rank bit at 2 and 4 ranks; IYZXII has an odd Y
        // count, so its group streams either way.
        let h = PauliOp::parse(
            "0.5 ZZIIII + 0.25 XIIIIX - 0.3 YIIIIY + 0.125 IYZXII + 0.1 ZIIIII + 0.05 IIIIII \
             + 0.2 IIXXII + 0.15 IIYYIZ",
        )
        .unwrap();
        let tables = h.prepared();
        assert_eq!((tables.groups().len(), tables.num_tables()), (4, 3));
        let streaming = PreparedObservable::with_budget(&h, 0);
        let per_term = nwq_statevec::simulate(&c, &[]).unwrap().energy(&h).unwrap();
        for n_ranks in [1usize, 2, 4] {
            let d = run_sharded(&c, &[], n_ranks, &ShardOptions::default()).unwrap();
            let mut streamed = 0.0;
            for phase in GroupPhase::of(&streaming) {
                for r in 0..n_ranks {
                    let partner = r ^ (phase.mask() >> d.n_local()) as usize;
                    let (own, partner) = (d.partition(r), d.partition(partner));
                    streamed += shard_group_partial(own, partner, r, d.n_local(), phase);
                }
            }
            let e = distributed_energy(&d, &h).unwrap();
            assert_eq!(e.to_bits(), streamed.to_bits(), "ranks={n_ranks}");
            assert!((e - per_term).abs() < 1e-12, "ranks={n_ranks}: {e}");
        }
    }

    /// Above one readout leaf the energy is still bitwise the single
    /// node's: at one leaf above the dispatch floor every shard of 2 ranks
    /// is a leaf and 4 and 8 ranks chain their shards inside one; at two
    /// leaves above it, 8-rank shards are still below a leaf.
    #[test]
    fn streamed_readout_is_bitwise_the_single_node_at_every_rank_count() {
        use nwq_pauli::PauliString;
        let floor = nwq_common::PAR_MIN_AMPS.trailing_zeros() as usize;
        for n in [floor + 1, floor + 2] {
            let mut c = Circuit::new(n);
            for q in 0..n {
                c.h(q);
            }
            c.ry(0, 0.3)
                .cx(0, n - 1)
                .ry(n - 1, -0.7)
                .cx(n - 1, 1)
                .rz(2, 0.4);
            c.ry(n - 2, 1.1).cx(n - 2, 3);
            // Complex coefficients keep every group off the phase tables;
            // the flip masks reach rank bits at every rank count.
            let top = 1u64 << (n - 1);
            let terms = [
                (C64::new(0.5, 0.1), 0, top | 0b11),
                (C64::new(-0.3, 0.2), 0, 0b1010),
                (C64::new(0.25, -0.05), top | 1, 0b100),
                (C64::new(0.4, 0.3), top | 1, top | 0b10),
                (C64::new(-0.2, 0.0), (top >> 1) | 0b10, 0b10),
                (C64::new(0.15, 0.5), 0b1100, 0b0100),
            ]
            .map(|(c, x, z)| (c, PauliString::from_masks(n, x, z).unwrap()));
            let h = PauliOp::from_terms(n, terms.to_vec());
            assert_eq!(h.prepared().num_tables(), 0);
            let single = nwq_statevec::simulate(&c, &[]).unwrap();
            let expected = nwq_statevec::expval::energy_direct_batched(&single, &h).unwrap();
            let reference = single.expectation(&h).unwrap().re;
            assert!(
                (expected - reference).abs() < 1e-12,
                "{expected} vs {reference}"
            );
            for n_ranks in [1usize, 2, 4, 8] {
                let d = run_sharded(&c, &[], n_ranks, &ShardOptions::default()).unwrap();
                let e = distributed_energy(&d, &h).unwrap();
                assert_eq!(e.to_bits(), expected.to_bits(), "n={n} ranks={n_ranks}");
            }
        }
    }

    #[test]
    fn energy_rejects_width_mismatch() {
        let c = sample_circuit(4);
        let d = run_sharded(&c, &[], 2, &ShardOptions::default()).unwrap();
        let h = PauliOp::parse("1.0 ZZZZZ").unwrap();
        assert!(distributed_energy(&d, &h).is_err());
    }

    #[test]
    fn energy_surfaces_non_finite_states() {
        let c = sample_circuit(5);
        let mut d = run_sharded(&c, &[], 4, &ShardOptions::default()).unwrap();
        d.corrupt_amplitude(1, 0, nwq_common::C64::new(f64::NAN, 0.0))
            .unwrap();
        let h = PauliOp::parse("1.0 ZZZZZ").unwrap();
        let e = distributed_energy(&d, &h).unwrap_err();
        assert!(matches!(e, Error::Numerical(_)), "{e}");
    }
}
