//! # nwq-circuit
//!
//! Quantum circuit IR and transpiler for the NWQ-Sim-rs workspace:
//!
//! - [`gate::Gate`] — the simulator's native ≤2-qubit gate set, including
//!   transpiler-produced fused blocks;
//! - [`circuit::Circuit`] — gate list with symbolic parameters
//!   ([`param::ParamExpr`]), binding, composition, and inversion, and its
//!   memoised structural identity [`circuit::Shape`];
//! - [`fusion`] — the §4.3 gate-fusion pass (capped at two qubits by
//!   design);
//! - [`passes`] — adjacent-inverse cancellation and rotation merging;
//! - [`exp_pauli`] — synthesis of `exp(−iθ/2·P)` (UCCSD/Trotter building
//!   block);
//! - [`basis`] — measurement basis changes (§4.1.2);
//! - [`qft`] — (inverse) quantum Fourier transform for QPE;
//! - [`reference`](mod@reference) — a naive simulator used as the workspace's test oracle.

#![warn(missing_docs)]

pub mod basis;
pub mod circuit;
pub mod exp_pauli;
pub mod fusion;
pub mod gate;
pub mod hea;
pub mod param;
pub mod passes;
pub mod qasm;
pub mod qft;
pub mod reference;

pub use circuit::{Circuit, Shape};
pub use gate::{Gate, GateMatrix};
pub use param::ParamExpr;

#[cfg(test)]
mod proptests {
    use crate::circuit::Circuit;
    use crate::fusion::fuse;
    use crate::passes::cancel_and_merge;
    use crate::reference::{run, states_equivalent};
    use proptest::prelude::*;

    /// A random concrete circuit on `n` qubits.
    fn arb_circuit(n: usize, max_len: usize) -> impl Strategy<Value = Circuit> {
        let gate = (0..10u8, 0..n, 1..n.max(2), -3.0..3.0f64);
        proptest::collection::vec(gate, 0..max_len).prop_map(move |specs| {
            let mut c = Circuit::new(n);
            for (kind, q, dq, angle) in specs {
                let q2 = (q + dq) % n;
                match kind {
                    0 => c.h(q),
                    1 => c.x(q),
                    2 => c.s(q),
                    3 => c.t(q),
                    4 => c.rz(q, angle),
                    5 => c.ry(q, angle),
                    6 if q2 != q => c.cx(q, q2),
                    7 if q2 != q => c.cz(q, q2),
                    8 if q2 != q => c.rzz(q, q2, angle),
                    9 if q2 != q => c.swap(q, q2),
                    _ => c.rx(q, angle),
                };
            }
            c
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn fusion_preserves_state(c in arb_circuit(4, 24)) {
            let before = run(&c, &[]).unwrap();
            let (fused, stats) = fuse(&c).unwrap();
            let after = run(&fused, &[]).unwrap();
            prop_assert!(states_equivalent(&before, &after, 1e-8));
            prop_assert!(stats.gates_after <= stats.gates_before);
        }

        #[test]
        fn cancellation_preserves_state(c in arb_circuit(4, 24)) {
            let before = run(&c, &[]).unwrap();
            let simplified = cancel_and_merge(&c).unwrap();
            let after = run(&simplified, &[]).unwrap();
            prop_assert!(states_equivalent(&before, &after, 1e-8));
            prop_assert!(simplified.len() <= c.len());
        }

        #[test]
        fn inverse_undoes_circuit(c in arb_circuit(4, 16)) {
            let mut round = c.clone();
            round.append(&c.inverse()).unwrap();
            let psi = run(&round, &[]).unwrap();
            let zero = crate::reference::zero_state(4);
            prop_assert!(states_equivalent(&psi, &zero, 1e-8));
        }

        #[test]
        fn fusion_idempotent_on_state(c in arb_circuit(3, 16)) {
            let (fused, _) = fuse(&c).unwrap();
            let (fused2, stats2) = fuse(&fused).unwrap();
            let a = run(&fused, &[]).unwrap();
            let b = run(&fused2, &[]).unwrap();
            prop_assert!(states_equivalent(&a, &b, 1e-8));
            prop_assert!(stats2.gates_after <= fused.len());
        }

        #[test]
        fn qasm_roundtrip_preserves_state(c in arb_circuit(4, 20)) {
            let text = crate::qasm::to_qasm(&c).unwrap();
            let back = crate::qasm::from_qasm(&text).unwrap();
            let a = run(&c, &[]).unwrap();
            let b = run(&back, &[]).unwrap();
            for (x, y) in a.iter().zip(&b) {
                prop_assert!(x.approx_eq(*y, 1e-9));
            }
        }

        #[test]
        fn depth_at_most_len(c in arb_circuit(5, 32)) {
            prop_assert!(c.depth() <= c.len());
            let counts = c.one_qubit_count() + c.two_qubit_count();
            prop_assert_eq!(counts, c.len());
        }
    }
}
