//! Gradient estimation and gradient-descent optimizers.
//!
//! For ansatz parameters entering through Pauli exponentials, the
//! parameter-shift rule gives *exact* gradients from two energy
//! evaluations per parameter: `∂E/∂θ = [E(θ+s) − E(θ−s)] / (2 sin s)` with
//! `s = π/2` for generators with eigenvalues ±1. Central finite differences
//! are provided for everything else.

use crate::traits::{
    single, state_f64, BatchedObjective, GradObjective, GradOptimizer, OptResult, Optimizer,
};
use nwq_common::Result;
use nwq_telemetry::JsonValue;

/// Exact parameter-shift gradient for ±1-eigenvalue generators, with a
/// fallible objective: the first evaluation error aborts the sweep.
pub fn try_parameter_shift_gradient(
    f: &mut dyn FnMut(&[f64]) -> Result<f64>,
    x: &[f64],
) -> Result<Vec<f64>> {
    let s = std::f64::consts::FRAC_PI_2;
    let mut grad = vec![0.0; x.len()];
    let mut xp = x.to_vec();
    for i in 0..x.len() {
        xp[i] = x[i] + s;
        let fp = f(&xp)?;
        xp[i] = x[i] - s;
        let fm = f(&xp)?;
        xp[i] = x[i];
        grad[i] = (fp - fm) / 2.0;
    }
    Ok(grad)
}

/// Exact parameter-shift gradient for ±1-eigenvalue generators.
pub fn parameter_shift_gradient(f: &mut dyn FnMut(&[f64]) -> f64, x: &[f64]) -> Vec<f64> {
    try_parameter_shift_gradient(&mut |p| Ok(f(p)), x)
        .expect("infallible objective cannot produce an error")
}

/// Central finite-difference gradient with step `eps` and a fallible
/// objective: the first evaluation error aborts the sweep.
pub fn try_finite_difference_gradient(
    f: &mut dyn FnMut(&[f64]) -> Result<f64>,
    x: &[f64],
    eps: f64,
) -> Result<Vec<f64>> {
    let mut grad = vec![0.0; x.len()];
    let mut xp = x.to_vec();
    for i in 0..x.len() {
        xp[i] = x[i] + eps;
        let fp = f(&xp)?;
        xp[i] = x[i] - eps;
        let fm = f(&xp)?;
        xp[i] = x[i];
        grad[i] = (fp - fm) / (2.0 * eps);
    }
    Ok(grad)
}

/// Central finite-difference gradient with step `eps`.
pub fn finite_difference_gradient(
    f: &mut dyn FnMut(&[f64]) -> f64,
    x: &[f64],
    eps: f64,
) -> Vec<f64> {
    try_finite_difference_gradient(&mut |p| Ok(f(p)), x, eps)
        .expect("infallible objective cannot produce an error")
}

/// Builds the `2·n` shifted parameter vectors of a two-term shift rule in
/// the same interleaved order (`x+s·e_0, x−s·e_0, x+s·e_1, …`) the serial
/// sweeps evaluate, so batched and serial gradients visit identical
/// points.
fn shifted_pairs(x: &[f64], s: f64) -> Vec<Vec<f64>> {
    let mut out = Vec::with_capacity(2 * x.len());
    for i in 0..x.len() {
        let mut plus = x.to_vec();
        plus[i] += s;
        out.push(plus);
        let mut minus = x.to_vec();
        minus[i] -= s;
        out.push(minus);
    }
    out
}

/// Parameter-shift gradient through a *batched* objective: all `2·n`
/// shifted evaluations ride one call, so batching backends evaluate
/// them as one parallel map instead of `2·n` serial simulations. Values match [`try_parameter_shift_gradient`] exactly
/// (same points, and batched backends are bitwise identical per entry).
pub fn try_parameter_shift_gradient_batched(
    f: &mut BatchedObjective<'_>,
    x: &[f64],
) -> Result<Vec<f64>> {
    if x.is_empty() {
        return Ok(Vec::new());
    }
    let e = f(&shifted_pairs(x, std::f64::consts::FRAC_PI_2))?;
    if e.len() != 2 * x.len() {
        return Err(nwq_common::Error::Invalid(format!(
            "batched objective returned {} values for {} parameter vectors",
            e.len(),
            2 * x.len()
        )));
    }
    Ok((0..x.len())
        .map(|i| (e[2 * i] - e[2 * i + 1]) / 2.0)
        .collect())
}

/// Central finite-difference gradient through a *batched* objective; the
/// batched analog of [`try_finite_difference_gradient`].
pub fn try_finite_difference_gradient_batched(
    f: &mut BatchedObjective<'_>,
    x: &[f64],
    eps: f64,
) -> Result<Vec<f64>> {
    if x.is_empty() {
        return Ok(Vec::new());
    }
    let e = f(&shifted_pairs(x, eps))?;
    if e.len() != 2 * x.len() {
        return Err(nwq_common::Error::Invalid(format!(
            "batched objective returned {} values for {} parameter vectors",
            e.len(),
            2 * x.len()
        )));
    }
    Ok((0..x.len())
        .map(|i| (e[2 * i] - e[2 * i + 1]) / (2.0 * eps))
        .collect())
}

/// How [`Adam`] obtains gradients.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GradientMode {
    /// Parameter-shift rule (exact for Pauli-exponential parameters).
    ParameterShift,
    /// Central finite differences with the given step.
    FiniteDifference(f64),
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
    /// Gradient source.
    pub mode: GradientMode,
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
            mode: GradientMode::ParameterShift,
            g_tol: 1e-6,
        }
    }
}

impl Optimizer for Adam {
    fn name(&self) -> &'static str {
        "adam"
    }

    fn state_json(&self) -> JsonValue {
        let (mode, fd_step) = match self.mode {
            GradientMode::ParameterShift => ("parameter-shift", JsonValue::Null),
            GradientMode::FiniteDifference(eps) => ("finite-difference", JsonValue::Float(eps)),
        };
        JsonValue::Object(vec![
            ("lr".into(), JsonValue::Float(self.lr)),
            ("beta1".into(), JsonValue::Float(self.beta1)),
            ("beta2".into(), JsonValue::Float(self.beta2)),
            ("eps".into(), JsonValue::Float(self.eps)),
            ("g_tol".into(), JsonValue::Float(self.g_tol)),
            ("mode".into(), JsonValue::Str(mode.into())),
            ("fd_step".into(), fd_step),
        ])
    }

    fn restore_state(&mut self, state: &JsonValue) -> Result<()> {
        self.lr = state_f64(state, "lr")?;
        self.beta1 = state_f64(state, "beta1")?;
        self.beta2 = state_f64(state, "beta2")?;
        self.eps = state_f64(state, "eps")?;
        self.g_tol = state_f64(state, "g_tol")?;
        self.mode = match state.get("mode").and_then(JsonValue::as_str) {
            Some("parameter-shift") => GradientMode::ParameterShift,
            Some("finite-difference") => {
                GradientMode::FiniteDifference(state_f64(state, "fd_step")?)
            }
            other => {
                return Err(nwq_common::Error::Invalid(format!(
                    "unknown adam gradient mode {other:?}"
                )))
            }
        };
        Ok(())
    }

    fn try_minimize(
        &mut self,
        f: &mut dyn FnMut(&[f64]) -> Result<f64>,
        x0: &[f64],
        max_evals: usize,
    ) -> Result<OptResult> {
        let n = x0.len();
        let mut x = x0.to_vec();
        let mut m = vec![0.0; n];
        let mut v = vec![0.0; n];
        let mut evals = 0usize;
        let mut best_val = f(&x)?;
        evals += 1;
        let mut best_x = x.clone();
        let mut converged = false;
        let grad_cost = 2 * n.max(1);
        let mut t = 0usize;
        while evals + grad_cost < max_evals {
            t += 1;
            let grad = match self.mode {
                GradientMode::ParameterShift => try_parameter_shift_gradient(f, &x)?,
                GradientMode::FiniteDifference(eps) => try_finite_difference_gradient(f, &x, eps)?,
            };
            evals += grad_cost;
            let gnorm = grad.iter().fold(0.0f64, |a, g| a.max(g.abs()));
            if gnorm < self.g_tol {
                converged = true;
                break;
            }
            for i in 0..n {
                m[i] = self.beta1 * m[i] + (1.0 - self.beta1) * grad[i];
                v[i] = self.beta2 * v[i] + (1.0 - self.beta2) * grad[i] * grad[i];
                let mhat = m[i] / (1.0 - self.beta1.powi(t as i32));
                let vhat = v[i] / (1.0 - self.beta2.powi(t as i32));
                x[i] -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
            let val = f(&x)?;
            evals += 1;
            if val < best_val {
                best_val = val;
                best_x = x.clone();
            }
        }
        Ok(OptResult {
            params: best_x,
            value: best_val,
            evals,
            converged,
        })
    }

    /// Batched override: every gradient's `2·n` shifted evaluations ride
    /// ONE multi-vector call (one parallel map on backends that batch)
    /// instead of `2·n` serial simulations. The
    /// trajectory is identical to [`Optimizer::try_minimize`] — same
    /// points, same order, same eval count.
    fn try_minimize_batched(
        &mut self,
        f: &mut BatchedObjective<'_>,
        x0: &[f64],
        max_evals: usize,
    ) -> Result<OptResult> {
        let n = x0.len();
        let mut x = x0.to_vec();
        let mut m = vec![0.0; n];
        let mut v = vec![0.0; n];
        let mut evals = 0usize;
        let mut best_val = single(f, &x)?;
        evals += 1;
        let mut best_x = x.clone();
        let mut converged = false;
        let grad_cost = 2 * n.max(1);
        let mut t = 0usize;
        while evals + grad_cost < max_evals {
            t += 1;
            let grad = match self.mode {
                GradientMode::ParameterShift => try_parameter_shift_gradient_batched(f, &x)?,
                GradientMode::FiniteDifference(eps) => {
                    try_finite_difference_gradient_batched(f, &x, eps)?
                }
            };
            evals += grad_cost;
            let gnorm = grad.iter().fold(0.0f64, |a, g| a.max(g.abs()));
            if gnorm < self.g_tol {
                converged = true;
                break;
            }
            for i in 0..n {
                m[i] = self.beta1 * m[i] + (1.0 - self.beta1) * grad[i];
                v[i] = self.beta2 * v[i] + (1.0 - self.beta2) * grad[i] * grad[i];
                let mhat = m[i] / (1.0 - self.beta1.powi(t as i32));
                let vhat = v[i] / (1.0 - self.beta2.powi(t as i32));
                x[i] -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
            let val = single(f, &x)?;
            evals += 1;
            if val < best_val {
                best_val = val;
                best_x = x.clone();
            }
        }
        Ok(OptResult {
            params: best_x,
            value: best_val,
            evals,
            converged,
        })
    }
}

impl GradOptimizer for Adam {
    /// Analytic-gradient loop: one [`GradObjective::value_and_grad`] per
    /// iteration supplies both the step direction and the best-so-far
    /// tracking, so an adjoint-backed objective costs `grad_cost` (≈ 4)
    /// evaluation-equivalents per iteration regardless of the parameter
    /// count — versus `2·n + 1` for the shift-rule loops above.
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

    #[test]
    fn parameter_shift_is_exact_for_sinusoids() {
        // E(θ) = cos θ: parameter-shift gives exactly −sin θ.
        let mut f = |x: &[f64]| x[0].cos();
        for theta in [-1.0, 0.0, 0.4, 2.2] {
            let g = parameter_shift_gradient(&mut f, &[theta]);
            assert!((g[0] + theta.sin()).abs() < 1e-12, "θ={theta}");
        }
    }

    #[test]
    fn finite_difference_approximates() {
        let mut f = |x: &[f64]| x[0].powi(3) + 2.0 * x[1];
        let g = finite_difference_gradient(&mut f, &[2.0, 0.0], 1e-5);
        assert!((g[0] - 12.0).abs() < 1e-5);
        assert!((g[1] - 2.0).abs() < 1e-8);
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
            mode: GradientMode::FiniteDifference(1e-6),
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
    fn adam_state_round_trip_both_modes() {
        for mode in [
            GradientMode::ParameterShift,
            GradientMode::FiniteDifference(1e-5),
        ] {
            let src = Adam {
                lr: 0.07,
                mode,
                ..Default::default()
            };
            let mut dst = Adam::default();
            dst.restore_state(&src.state_json()).unwrap();
            assert_eq!(dst.lr, 0.07);
            assert_eq!(dst.mode, mode);
        }
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
    fn batched_gradients_match_serial_exactly() {
        let f = |x: &[f64]| 1.5 - x[0].cos() * x[1].cos() + 0.2 * (x[0] - x[1]).sin();
        let x = [0.31, -1.07];
        let serial_ps = try_parameter_shift_gradient(&mut |p: &[f64]| Ok(f(p)), &x).unwrap();
        let mut bf = |xs: &[Vec<f64>]| Ok(xs.iter().map(|p| f(p)).collect::<Vec<_>>());
        let batched_ps = try_parameter_shift_gradient_batched(&mut bf, &x).unwrap();
        assert_eq!(
            serial_ps, batched_ps,
            "bitwise-identical points → bitwise grad"
        );

        let serial_fd =
            try_finite_difference_gradient(&mut |p: &[f64]| Ok(f(p)), &x, 1e-6).unwrap();
        let batched_fd = try_finite_difference_gradient_batched(&mut bf, &x, 1e-6).unwrap();
        assert_eq!(serial_fd, batched_fd);

        // Empty parameter vector: no objective call at all.
        let mut calls = 0usize;
        let mut counting = |xs: &[Vec<f64>]| {
            calls += 1;
            Ok(xs.iter().map(|p| f(p)).collect::<Vec<_>>())
        };
        assert!(try_parameter_shift_gradient_batched(&mut counting, &[])
            .unwrap()
            .is_empty());
        assert_eq!(calls, 0);

        // Wrong output width surfaces as an error, not a bad gradient.
        let e = try_parameter_shift_gradient_batched(&mut |_| Ok(vec![0.0]), &x).unwrap_err();
        assert!(matches!(e, nwq_common::Error::Invalid(_)), "{e:?}");
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
        // Shift pairs actually ride multi-vector calls (2·n wide).
        assert_eq!(widths.iter().max(), Some(&4), "{widths:?}");
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
