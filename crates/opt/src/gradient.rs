//! Shift-rule gradients and Adam gradient descent.
//!
//! A two-term shift rule `∂f/∂x_i = [f(x+s·e_i) − f(x−s·e_i)] / denom`
//! covers the parameter-shift rules (`s = π/2`, `denom = 2` for generators
//! with eigenvalues ±1; `s = π/4`, `denom = 1` for fermionic excitations)
//! and central finite differences (`denom = 2s`). [`shift_rule_gradient`]
//! evaluates one as a single batch; the energy-only entry points of
//! [`Adam`] and [`crate::Lbfgs`] wrap their objective in central
//! differences of step [`FD_STEP`] and run their gradient loop.

use crate::traits::{
    single, state_f64, BatchedObjective, GradObjective, GradOptimizer, OptResult, Optimizer,
};
use nwq_common::Result;
use nwq_telemetry::JsonValue;

/// Step of the central differences that feed the energy-only entry points
/// of [`Adam`] and [`crate::Lbfgs`].
pub const FD_STEP: f64 = 1e-6;

/// `f(x)` and the two-term shift-rule gradient at `x`, from ONE batched
/// call on `[x, x+s·e_0, x−s·e_0, x+s·e_1, …]` — batching backends
/// evaluate all `2·n + 1` points as one parallel map. Component `i` is
/// `(f(x+s·e_i) − f(x−s·e_i)) / denom`.
pub fn shift_rule_gradient(
    f: &mut BatchedObjective<'_>,
    x: &[f64],
    s: f64,
    denom: f64,
) -> Result<(f64, Vec<f64>)> {
    let mut points = Vec::with_capacity(2 * x.len() + 1);
    points.push(x.to_vec());
    for i in 0..x.len() {
        let mut plus = x.to_vec();
        plus[i] += s;
        points.push(plus);
        let mut minus = x.to_vec();
        minus[i] -= s;
        points.push(minus);
    }
    let e = f(&points)?;
    if e.len() != points.len() {
        return Err(nwq_common::Error::Invalid(format!(
            "batched objective returned {} values for {} parameter vectors",
            e.len(),
            points.len()
        )));
    }
    let grad = e[1..]
        .chunks_exact(2)
        .map(|pm| (pm[0] - pm[1]) / denom)
        .collect();
    Ok((e[0], grad))
}

/// A batched energy objective seen as a [`GradObjective`]: gradients are
/// central differences of step [`FD_STEP`] at `2·n + 1` evaluations each.
pub(crate) struct CentralDifference<'f, 'a>(pub(crate) &'f mut BatchedObjective<'a>);

impl GradObjective for CentralDifference<'_, '_> {
    fn value(&mut self, x: &[f64]) -> Result<f64> {
        single(self.0, x)
    }

    fn value_and_grad(&mut self, x: &[f64]) -> Result<(f64, Vec<f64>)> {
        shift_rule_gradient(self.0, x, FD_STEP, 2.0 * FD_STEP)
    }

    fn grad_cost(&self, n_params: usize) -> usize {
        2 * n_params + 1
    }
}

/// Adam gradient descent.
#[derive(Clone, Debug)]
pub struct Adam {
    /// Learning rate.
    pub lr: f64,
    /// First-moment decay.
    pub beta1: f64,
    /// Second-moment decay.
    pub beta2: f64,
    /// Numerical stabilizer.
    pub eps: f64,
    /// Stop when the gradient ∞-norm falls below this.
    pub g_tol: f64,
}

impl Default for Adam {
    fn default() -> Self {
        Adam {
            lr: 0.05,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            g_tol: 1e-6,
        }
    }
}

impl Optimizer for Adam {
    fn name(&self) -> &'static str {
        "adam"
    }

    fn state_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("lr".into(), JsonValue::Float(self.lr)),
            ("beta1".into(), JsonValue::Float(self.beta1)),
            ("beta2".into(), JsonValue::Float(self.beta2)),
            ("eps".into(), JsonValue::Float(self.eps)),
            ("g_tol".into(), JsonValue::Float(self.g_tol)),
        ])
    }

    fn restore_state(&mut self, state: &JsonValue) -> Result<()> {
        self.lr = state_f64(state, "lr")?;
        self.beta1 = state_f64(state, "beta1")?;
        self.beta2 = state_f64(state, "beta2")?;
        self.eps = state_f64(state, "eps")?;
        self.g_tol = state_f64(state, "g_tol")?;
        Ok(())
    }

    fn try_minimize(
        &mut self,
        f: &mut dyn FnMut(&[f64]) -> Result<f64>,
        x0: &[f64],
        max_evals: usize,
    ) -> Result<OptResult> {
        let mut batched = |xs: &[Vec<f64>]| xs.iter().map(|x| f(x)).collect();
        self.try_minimize_batched(&mut batched, x0, max_evals)
    }

    /// Energy-only entry: the gradient loop
    /// ([`GradOptimizer::try_minimize_grad`]) on central differences of
    /// step [`FD_STEP`], each one batch of `2·n + 1` points.
    fn try_minimize_batched(
        &mut self,
        f: &mut BatchedObjective<'_>,
        x0: &[f64],
        max_evals: usize,
    ) -> Result<OptResult> {
        self.try_minimize_grad(&mut CentralDifference(f), x0, max_evals)
    }
}

impl GradOptimizer for Adam {
    /// Analytic-gradient loop: one [`GradObjective::value_and_grad`] per
    /// iteration supplies both the step direction and the best-so-far
    /// tracking, so an adjoint-backed objective costs `grad_cost` (≈ 4)
    /// evaluation-equivalents per iteration regardless of the parameter
    /// count — versus `2·n + 1` for a shift-rule or central-difference
    /// gradient.
    fn try_minimize_grad(
        &mut self,
        obj: &mut dyn GradObjective,
        x0: &[f64],
        max_evals: usize,
    ) -> Result<OptResult> {
        let n = x0.len();
        let mut x = x0.to_vec();
        let mut m = vec![0.0; n];
        let mut v = vec![0.0; n];
        let grad_cost = obj.grad_cost(n).max(1);
        let mut evals = 0usize;
        let mut best: Option<(f64, Vec<f64>)> = None;
        let mut converged = false;
        let mut t = 0usize;
        while evals + grad_cost <= max_evals {
            let (val, grad) = obj.value_and_grad(&x)?;
            evals += grad_cost;
            if best.as_ref().is_none_or(|(b, _)| val < *b) {
                best = Some((val, x.clone()));
            }
            let gnorm = grad.iter().fold(0.0f64, |a, g| a.max(g.abs()));
            if gnorm < self.g_tol {
                converged = true;
                break;
            }
            t += 1;
            for i in 0..n {
                m[i] = self.beta1 * m[i] + (1.0 - self.beta1) * grad[i];
                v[i] = self.beta2 * v[i] + (1.0 - self.beta2) * grad[i] * grad[i];
                let mhat = m[i] / (1.0 - self.beta1.powi(t as i32));
                let vhat = v[i] / (1.0 - self.beta2.powi(t as i32));
                x[i] -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
        let (value, params) = match best {
            Some(b) => b,
            None => {
                // Budget too small for even one gradient: report the
                // starting point honestly with one plain evaluation.
                let val = obj.value(&x)?;
                evals += 1;
                (val, x)
            }
        };
        Ok(OptResult {
            params,
            value,
            evals,
            converged,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scalar function as a batched objective.
    fn batched(f: impl Fn(&[f64]) -> f64) -> impl FnMut(&[Vec<f64>]) -> Result<Vec<f64>> {
        move |xs: &[Vec<f64>]| Ok(xs.iter().map(|x| f(x)).collect())
    }

    #[test]
    fn parameter_shift_is_exact_for_sinusoids() {
        // E(θ) = cos θ: the π/2 rule gives exactly −sin θ.
        let mut f = batched(|x| x[0].cos());
        for theta in [-1.0, 0.0, 0.4, 2.2] {
            let (e, g) =
                shift_rule_gradient(&mut f, &[theta], std::f64::consts::FRAC_PI_2, 2.0).unwrap();
            assert_eq!(e, theta.cos());
            assert!((g[0] + theta.sin()).abs() < 1e-12, "θ={theta}");
        }
    }

    #[test]
    fn finite_difference_approximates() {
        let mut f = batched(|x| x[0].powi(3) + 2.0 * x[1]);
        let (_, g) = shift_rule_gradient(&mut f, &[2.0, 0.0], 1e-5, 2e-5).unwrap();
        assert!((g[0] - 12.0).abs() < 1e-5);
        assert!((g[1] - 2.0).abs() < 1e-8);
    }

    #[test]
    fn shift_rule_gradient_is_one_interleaved_batch() {
        let mut batches: Vec<Vec<Vec<f64>>> = Vec::new();
        let mut f = |xs: &[Vec<f64>]| {
            batches.push(xs.to_vec());
            Ok(xs.iter().map(|x| x[0] - 3.0 * x[1]).collect())
        };
        let (e, g) = shift_rule_gradient(&mut f, &[0.5, 0.25], 0.5, 1.0).unwrap();
        assert_eq!((e, g), (-0.25, vec![1.0, -3.0]));
        // One batch: x, then x ± s·e_i interleaved per parameter.
        assert_eq!(batches.len(), 1);
        let points = batches[0].concat();
        assert_eq!(
            points,
            [0.5, 0.25, 1.0, 0.25, 0.0, 0.25, 0.5, 0.75, 0.5, -0.25]
        );

        // No parameters: the batch is x alone.
        let (e, g) = shift_rule_gradient(&mut batched(|_| 7.0), &[], 0.5, 1.0).unwrap();
        assert_eq!((e, g), (7.0, vec![]));

        // Wrong output width surfaces as an error, not a bad gradient.
        let e = shift_rule_gradient(&mut |_| Ok(vec![0.0]), &[1.0], 0.5, 1.0).unwrap_err();
        assert!(matches!(e, nwq_common::Error::Invalid(_)), "{e:?}");
    }

    #[test]
    fn adam_minimizes_vqe_like_energy() {
        // E(θ) = 1 − cos(θ0)·cos(θ1), minimum 0 at origin.
        let mut adam = Adam {
            lr: 0.1,
            ..Default::default()
        };
        let mut f = |x: &[f64]| 1.0 - x[0].cos() * x[1].cos();
        let r = adam.minimize(&mut f, &[0.8, -0.6], 4000);
        assert!(r.value < 1e-6, "value {}", r.value);
    }

    #[test]
    fn adam_with_finite_difference() {
        let mut adam = Adam {
            lr: 0.2,
            ..Default::default()
        };
        let mut f = |x: &[f64]| (x[0] - 3.0).powi(2);
        let r = adam.minimize(&mut f, &[0.0], 4000);
        assert!((r.params[0] - 3.0).abs() < 1e-2, "{:?}", r.params);
    }

    #[test]
    fn adam_converges_flag_on_flat_landscape() {
        let mut adam = Adam::default();
        let mut f = |_: &[f64]| 1.0;
        let r = adam.minimize(&mut f, &[0.5], 100);
        assert!(r.converged);
        assert_eq!(r.value, 1.0);
    }

    #[test]
    fn adam_aborts_promptly_on_objective_error() {
        let mut adam = Adam::default();
        let mut count = 0usize;
        let mut f = |x: &[f64]| -> Result<f64> {
            count += 1;
            if count == 4 {
                Err(nwq_common::Error::Backend("lost".into()))
            } else {
                Ok(x[0].powi(2))
            }
        };
        assert!(adam.try_minimize(&mut f, &[1.0], 5000).is_err());
        assert_eq!(count, 4);
    }

    #[test]
    fn adam_state_round_trip() {
        let src = Adam {
            lr: 0.07,
            g_tol: 1e-4,
            ..Default::default()
        };
        let mut dst = Adam::default();
        dst.restore_state(&src.state_json()).unwrap();
        assert_eq!((dst.lr, dst.g_tol), (0.07, 1e-4));
        assert_eq!(Adam::default().name(), "adam");
    }

    #[test]
    fn adam_respects_budget() {
        let mut adam = Adam::default();
        let mut count = 0usize;
        let mut f = |x: &[f64]| {
            count += 1;
            x[0].powi(2)
        };
        let r = adam.minimize(&mut f, &[1.0], 30);
        assert!(r.evals <= 30);
        assert_eq!(count, r.evals);
    }

    #[test]
    fn adam_batched_matches_serial_trajectory_exactly() {
        let f = |x: &[f64]| 1.0 - x[0].cos() * x[1].cos();
        let x0 = [0.8, -0.6];
        let mut serial_pts: Vec<Vec<f64>> = Vec::new();
        let mut a1 = Adam::default();
        let r1 = a1
            .try_minimize(
                &mut |x: &[f64]| {
                    serial_pts.push(x.to_vec());
                    Ok(f(x))
                },
                &x0,
                60,
            )
            .unwrap();
        let mut batched_pts: Vec<Vec<f64>> = Vec::new();
        let mut widths: Vec<usize> = Vec::new();
        let mut a2 = Adam::default();
        let r2 = a2
            .try_minimize_batched(
                &mut |xs: &[Vec<f64>]| {
                    widths.push(xs.len());
                    batched_pts.extend(xs.iter().cloned());
                    Ok(xs.iter().map(|x| f(x)).collect())
                },
                &x0,
                60,
            )
            .unwrap();
        assert_eq!(r1, r2);
        assert_eq!(serial_pts, batched_pts);
        assert_eq!(serial_pts.len(), r1.evals);
        // Each gradient rides one multi-vector call (x and its 2·n probes).
        assert_eq!(widths.iter().max(), Some(&5), "{widths:?}");
    }

    struct CosObj {
        grad_calls: usize,
    }

    impl GradObjective for CosObj {
        fn value(&mut self, x: &[f64]) -> Result<f64> {
            Ok(1.0 - x[0].cos() * x[1].cos())
        }

        fn value_and_grad(&mut self, x: &[f64]) -> Result<(f64, Vec<f64>)> {
            self.grad_calls += 1;
            Ok((
                1.0 - x[0].cos() * x[1].cos(),
                vec![x[0].sin() * x[1].cos(), x[0].cos() * x[1].sin()],
            ))
        }

        fn grad_cost(&self, _n_params: usize) -> usize {
            4
        }
    }

    #[test]
    fn adam_analytic_loop_costs_grad_cost_per_iteration() {
        let mut adam = Adam {
            lr: 0.1,
            ..Default::default()
        };
        let mut obj = CosObj { grad_calls: 0 };
        let r = adam
            .try_minimize_grad(&mut obj, &[0.8, -0.6], 2000)
            .unwrap();
        assert!(r.value < 1e-6, "value {}", r.value);
        assert!(r.evals <= 2000);
        // Every iteration is exactly one fused value-and-gradient call.
        assert_eq!(r.evals, 4 * obj.grad_calls);
    }

    #[test]
    fn adam_grad_budget_too_small_falls_back_to_one_value() {
        let mut adam = Adam::default();
        let mut obj = CosObj { grad_calls: 0 };
        let r = adam.try_minimize_grad(&mut obj, &[0.8, -0.6], 3).unwrap();
        assert_eq!(r.evals, 1);
        assert!(!r.converged);
        assert_eq!(r.params, vec![0.8, -0.6]);
        assert_eq!(obj.grad_calls, 0);
    }

    #[test]
    fn adam_grad_converges_flag_at_stationary_point() {
        let mut adam = Adam::default();
        let mut obj = CosObj { grad_calls: 0 };
        let r = adam.try_minimize_grad(&mut obj, &[0.0, 0.0], 100).unwrap();
        assert!(r.converged);
        assert_eq!(r.value, 0.0);
        assert_eq!(obj.grad_calls, 1);
    }
}
