//! Batched execution (paper §6.2 "future improvements").
//!
//! The paper proposes simulating independent circuits/parameter sets
//! concurrently to raise device utilization. On the CPU substrate this is
//! a Rayon parallel map over parameter sets — each batch entry owns its
//! statevector, so the batch scales across cores without synchronization
//! (and runs as a plain serial loop on a one-thread pool). The headline
//! consumer is the two-term shift-rule gradient
//! (`nwq_opt::shift_rule_gradient`): `θ` and its `2·n_params` shifted
//! points run as a single batch.

use crate::executor::Executor;
use crate::expval::energy_direct_batched;
use crate::plan::ExecPlan;
use nwq_circuit::Circuit;
use nwq_common::Result;
use nwq_pauli::PauliOp;
use rayon::prelude::*;

/// Batched energy evaluation: `E(θ_k) = ⟨ψ(θ_k)|H|ψ(θ_k)⟩` for every
/// parameter set, through the compiled-plan and batched
/// direct-expectation fast paths. One independent state per entry, run as
/// a Rayon parallel map; each entry runs the same compile, evolve and
/// readout as a single-θ evaluation, so its bits do not depend on the
/// batch it arrives in.
pub fn batched_energies(
    circuit: &Circuit,
    param_sets: &[Vec<f64>],
    observable: &PauliOp,
) -> Result<Vec<f64>> {
    param_sets
        .par_iter()
        .map(|params| {
            let plan = ExecPlan::compile(circuit, params)?;
            let state = Executor::new().run_plan(&plan)?;
            energy_direct_batched(&state, observable)
        })
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use nwq_circuit::ParamExpr;
    use std::f64::consts::{FRAC_PI_2, FRAC_PI_4};

    /// The two-term shift-rule gradient `[E(θ+s·e_i) − E(θ−s·e_i)] / denom`
    /// through the optimizer crate's one implementation, over
    /// [`batched_energies`]: `(π/2, 2)` is exact for ±1-eigenvalue
    /// rotation generators, `(π/4, 1)` for fermionic excitations.
    pub(crate) fn shift_gradient(
        c: &Circuit,
        theta: &[f64],
        h: &PauliOp,
        s: f64,
        denom: f64,
    ) -> Vec<f64> {
        let mut energies = |xs: &[Vec<f64>]| batched_energies(c, xs, h);
        nwq_opt::shift_rule_gradient(&mut energies, theta, s, denom)
            .unwrap()
            .1
    }

    fn toy() -> (Circuit, PauliOp) {
        let mut c = Circuit::new(2);
        c.ry(0, ParamExpr::var(0)).cx(0, 1).ry(1, ParamExpr::var(1));
        (c, PauliOp::parse("1.0 ZZ + 0.5 XI").unwrap())
    }

    #[test]
    fn batched_energies_match_serial() {
        let (c, h) = toy();
        let sets: Vec<Vec<f64>> = (0..5).map(|k| vec![0.3 * k as f64, 0.7]).collect();
        let energies = batched_energies(&c, &sets, &h).unwrap();
        for (params, &e) in sets.iter().zip(&energies) {
            let serial = crate::executor::simulate(&c, params)
                .unwrap()
                .energy(&h)
                .unwrap();
            assert!((e - serial).abs() < 1e-12);
        }
    }

    #[test]
    fn batched_gradient_matches_analytic() {
        // E(θ0, θ1) for this ansatz: ⟨ZZ⟩ = cos θ0 cos θ1 (plus XI part);
        // verify against central-difference instead of deriving closed form.
        let (c, h) = toy();
        let theta = [0.4, -0.8];
        let grad = shift_gradient(&c, &theta, &h, FRAC_PI_2, 2.0);
        let eps = 1e-6;
        for i in 0..2 {
            let mut p = theta.to_vec();
            p[i] += eps;
            let ep = crate::executor::simulate(&c, &p)
                .unwrap()
                .energy(&h)
                .unwrap();
            p[i] -= 2.0 * eps;
            let em = crate::executor::simulate(&c, &p)
                .unwrap()
                .energy(&h)
                .unwrap();
            let fd = (ep - em) / (2.0 * eps);
            assert!(
                (grad[i] - fd).abs() < 1e-6,
                "param {i}: {} vs {fd}",
                grad[i]
            );
        }
    }

    #[test]
    fn excitation_gradient_nonzero_where_pi_half_rule_fails() {
        // A UCCSD-style block: exp(θ(T−T†)) on 2 qubits via two Pauli
        // exponentials with coefficient 1/2 — E(θ) is π-periodic, so the
        // π/2 rule reports zero gradient at θ=0 while the true slope is
        // finite. The π/4 rule must match finite differences.
        let mut c = Circuit::new(2);
        c.x(0);
        let gen = nwq_pauli::PauliOp::from_terms(
            2,
            vec![
                (
                    nwq_common::C64::imag(0.5),
                    nwq_pauli::PauliString::parse("XY").unwrap(),
                ),
                (
                    nwq_common::C64::imag(-0.5),
                    nwq_pauli::PauliString::parse("YX").unwrap(),
                ),
            ],
        );
        for (coeff, s) in gen.terms() {
            nwq_circuit::exp_pauli::append_exp_pauli(
                &mut c,
                s,
                ParamExpr::scaled_var(0, -2.0 * coeff.im),
            )
            .unwrap();
        }
        let h = PauliOp::parse("1.0 XX + 0.2 ZI").unwrap();
        let theta = [0.0];
        let naive = shift_gradient(&c, &theta, &h, FRAC_PI_2, 2.0);
        let proper = shift_gradient(&c, &theta, &h, FRAC_PI_4, 1.0);
        let eps = 1e-6;
        let ep = crate::executor::simulate(&c, &[eps])
            .unwrap()
            .energy(&h)
            .unwrap();
        let em = crate::executor::simulate(&c, &[-eps])
            .unwrap()
            .energy(&h)
            .unwrap();
        let fd = (ep - em) / (2.0 * eps);
        assert!(
            fd.abs() > 0.1,
            "test setup: finite gradient expected, got {fd}"
        );
        assert!(
            naive[0].abs() < 1e-9,
            "π/2 rule should vanish here, got {}",
            naive[0]
        );
        assert!((proper[0] - fd).abs() < 1e-6, "{} vs {fd}", proper[0]);
    }

    #[test]
    fn empty_batch() {
        let (c, h) = toy();
        assert!(batched_energies(&c, &[], &h).unwrap().is_empty());
    }

    #[test]
    fn gradient_of_zero_param_circuit_is_empty() {
        let mut c = Circuit::new(1);
        c.h(0);
        let h = PauliOp::parse("1.0 Z").unwrap();
        let g = shift_gradient(&c, &[], &h, FRAC_PI_2, 2.0);
        assert!(g.is_empty());
    }
}
