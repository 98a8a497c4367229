//! # nwq-statevec
//!
//! The single-node NWQ-Sim engine: a Rayon-parallel statevector simulator
//! with the paper's three VQE optimizations built in:
//!
//! - [`kernels`] — in-place parallel gate kernels (safe chunking, diagonal
//!   fast paths) — the CPU analog of NWQ-Sim's GPU amplitude updates;
//! - [`executor::Executor`] — circuit execution with gate accounting;
//! - [`plan::ExecPlan`] / [`plan::PlanTemplate`] — compiled circuits with
//!   a structure/bind split: the §4.3 fusion and commuting-diagonal
//!   coalescing decisions are made ONCE per circuit *shape*
//!   ([`plan::PlanTemplate::build`], cached globally by [`plan_cache`])
//!   and each new θ only replays the recorded arithmetic
//!   ([`plan::PlanTemplate::bind`], microseconds, zero re-fusion);
//! - [`cache::PostAnsatzCache`] — §4.1 post-ansatz state caching;
//! - [`expval`] — §4.1/§4.2 energy evaluation strategies (non-caching
//!   baseline, cached basis changes, direct expectation);
//! - [`measure`] — traditional shot-based sampling, kept as the baseline
//!   the direct method is compared against;
//! - [`state::StateVector`] — the amplitude container (Fig 1c memory
//!   model);
//! - [`batch`] — batched multi-parameter execution and batched
//!   parameter-shift gradients (paper §6.2 future work, implemented);
//! - [`simd`] — explicit AVX2 instantiations of every serial inner loop
//!   (pair/quad updates, fused diagonal sweeps, expectation fills), with
//!   a runtime force-scalar switch pinning scalar == SIMD bit-for-bit.

#![warn(missing_docs)]

pub mod adjoint;
pub mod batch;
pub mod cache;
pub mod executor;
pub mod expval;
pub mod kernels;
pub mod measure;
pub mod plan;
pub mod plan_cache;
pub mod simd;
pub mod state;
pub mod stats;

pub use adjoint::{AdjointGradient, AdjointTape, AdjointTemplate};
pub use executor::{simulate, simulate_plan, Executor, NormGuard};
pub use plan::{BoundBlock, ExecPlan, PlanOp, PlanStats, PlanTemplate};
pub use state::StateVector;

#[cfg(test)]
mod proptests {
    use crate::executor::simulate;
    use nwq_circuit::reference;
    use nwq_circuit::Circuit;
    use proptest::prelude::*;

    fn arb_circuit(n: usize, max_len: usize) -> impl Strategy<Value = Circuit> {
        let gate = (0..11u8, 0..n, 1..n.max(2), -3.0..3.0f64);
        proptest::collection::vec(gate, 0..max_len).prop_map(move |specs| {
            let mut c = Circuit::new(n);
            for (kind, q, dq, angle) in specs {
                let q2 = (q + dq) % n;
                match kind {
                    0 => c.h(q),
                    1 => c.x(q),
                    2 => c.s(q),
                    3 => c.sx(q),
                    4 => c.rz(q, angle),
                    5 => c.ry(q, angle),
                    6 => c.u3(q, angle, angle * 0.5, -angle),
                    7 if q2 != q => c.cx(q, q2),
                    8 if q2 != q => c.cz(q, q2),
                    9 if q2 != q => c.rzz(q, q2, angle),
                    10 if q2 != q => c.swap(q, q2),
                    _ => c.rx(q, angle),
                };
            }
            c
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn executor_matches_reference(c in arb_circuit(5, 28)) {
            let fast = simulate(&c, &[]).unwrap();
            let slow = reference::run(&c, &[]).unwrap();
            for (a, b) in fast.amplitudes().iter().zip(&slow) {
                prop_assert!(a.approx_eq(*b, 1e-8));
            }
        }

        #[test]
        fn executor_preserves_norm(c in arb_circuit(6, 40)) {
            let s = simulate(&c, &[]).unwrap();
            prop_assert!((s.norm_sqr() - 1.0).abs() < 1e-8);
        }

        #[test]
        fn fused_execution_matches_unfused(c in arb_circuit(4, 24)) {
            let plain = simulate(&c, &[]).unwrap();
            let (fused, _) = nwq_circuit::fusion::fuse(&c).unwrap();
            let opt = simulate(&fused, &[]).unwrap();
            let fid = reference::fidelity(plain.amplitudes(), opt.amplitudes());
            prop_assert!((fid - 1.0).abs() < 1e-8);
        }
    }
}
