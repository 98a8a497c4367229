//! # nwq-opt
//!
//! Classical optimizers for variational quantum algorithms — step 4 of the
//! XACC co-processing loop (paper §3.1): derivative-free Nelder–Mead (the
//! default VQE inner loop), SPSA for noisy/shot-based objectives, and Adam
//! and L-BFGS, each written once as a gradient loop over a
//! [`GradObjective`] (analytic adjoint or [`shift_rule_gradient`]
//! gradients). Their energy-only entry points feed that loop central
//! differences of step [`FD_STEP`].

#![warn(missing_docs)]

pub mod gradient;
pub mod lbfgs;
pub mod nelder_mead;
pub mod spsa;
pub mod traits;

pub use gradient::{shift_rule_gradient, Adam, FD_STEP};
pub use lbfgs::Lbfgs;
pub use nelder_mead::NelderMead;
pub use spsa::Spsa;
pub use traits::{BatchedObjective, GradObjective, GradOptimizer, OptResult, Optimizer};

#[cfg(test)]
mod proptests {
    use crate::{Adam, NelderMead, Optimizer};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn nelder_mead_never_worse_than_start(
            a in -2.0..2.0f64, b in -2.0..2.0f64, x0 in -1.0..1.0f64, x1 in -1.0..1.0f64
        ) {
            let mut nm = NelderMead::default();
            let mut f = move |x: &[f64]| (x[0] - a).powi(2) + 0.5 * (x[1] - b).powi(2);
            let start = f(&[x0, x1]);
            let r = nm.minimize(&mut f, &[x0, x1], 400);
            prop_assert!(r.value <= start + 1e-12);
        }

        #[test]
        fn adam_never_worse_than_start(c in 0.1..3.0f64, x0 in -1.5..1.5f64) {
            let mut adam = Adam::default();
            let mut f = move |x: &[f64]| c * (1.0 - x[0].cos());
            let start = f(&[x0]);
            let r = adam.minimize(&mut f, &[x0], 200);
            prop_assert!(r.value <= start + 1e-12);
        }

        #[test]
        fn quadratic_minimum_found(a in -1.5..1.5f64) {
            let mut nm = NelderMead::default();
            let mut f = move |x: &[f64]| (x[0] - a).powi(2);
            let r = nm.minimize(&mut f, &[0.0], 600);
            prop_assert!((r.params[0] - a).abs() < 1e-3);
        }
    }
}
