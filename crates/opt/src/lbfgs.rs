//! Limited-memory BFGS with backtracking line search.
//!
//! The quasi-Newton workhorse for smooth, exactly-evaluated objectives —
//! the regime the paper's direct-expectation backend creates (no shot
//! noise), where it converges in far fewer energy evaluations than
//! simplex or SPSA methods.

use crate::gradient::{try_finite_difference_gradient, try_finite_difference_gradient_batched};
use crate::traits::{
    single, state_f64, state_u64, BatchedObjective, GradObjective, GradOptimizer, OptResult,
    Optimizer,
};
use nwq_common::Result;
use nwq_telemetry::JsonValue;
use std::collections::VecDeque;

/// L-BFGS configuration.
#[derive(Clone, Debug)]
pub struct Lbfgs {
    /// History length (m). 5–10 is standard.
    pub memory: usize,
    /// Finite-difference step for gradients.
    pub fd_eps: f64,
    /// Terminate when the gradient ∞-norm falls below this.
    pub g_tol: f64,
    /// Armijo sufficient-decrease constant.
    pub c1: f64,
    /// Line-search backtracking factor.
    pub backtrack: f64,
    /// Maximum line-search trials per iteration.
    pub max_ls: usize,
}

impl Default for Lbfgs {
    fn default() -> Self {
        Lbfgs {
            memory: 8,
            fd_eps: 1e-6,
            g_tol: 1e-7,
            c1: 1e-4,
            backtrack: 0.5,
            max_ls: 25,
        }
    }
}

impl Optimizer for Lbfgs {
    fn name(&self) -> &'static str {
        "lbfgs"
    }

    fn state_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("memory".into(), JsonValue::Int(self.memory as u64)),
            ("fd_eps".into(), JsonValue::Float(self.fd_eps)),
            ("g_tol".into(), JsonValue::Float(self.g_tol)),
            ("c1".into(), JsonValue::Float(self.c1)),
            ("backtrack".into(), JsonValue::Float(self.backtrack)),
            ("max_ls".into(), JsonValue::Int(self.max_ls as u64)),
        ])
    }

    fn restore_state(&mut self, state: &JsonValue) -> Result<()> {
        self.memory = state_u64(state, "memory")? as usize;
        self.fd_eps = state_f64(state, "fd_eps")?;
        self.g_tol = state_f64(state, "g_tol")?;
        self.c1 = state_f64(state, "c1")?;
        self.backtrack = state_f64(state, "backtrack")?;
        self.max_ls = state_u64(state, "max_ls")? as usize;
        Ok(())
    }

    fn try_minimize(
        &mut self,
        f: &mut dyn FnMut(&[f64]) -> Result<f64>,
        x0: &[f64],
        max_evals: usize,
    ) -> Result<OptResult> {
        let n = x0.len();
        let mut evals = 0usize;
        let mut x = x0.to_vec();
        let mut fx = f(&x)?;
        evals += 1;
        if n == 0 {
            return Ok(OptResult {
                params: x,
                value: fx,
                evals,
                converged: true,
            });
        }
        let grad_cost = 2 * n;
        let mut history: VecDeque<(Vec<f64>, Vec<f64>, f64)> = VecDeque::new(); // (s, y, 1/yᵀs)
        let mut g = try_finite_difference_gradient(f, &x, self.fd_eps)?;
        evals += grad_cost;
        let mut converged = false;

        while evals + grad_cost + 2 <= max_evals {
            let gnorm = g.iter().fold(0.0f64, |a, v| a.max(v.abs()));
            if gnorm < self.g_tol {
                converged = true;
                break;
            }
            let d = two_loop_direction(&history, &g);
            let slope = dot(&g, &d);
            if slope >= 0.0 {
                // Not a descent direction (stale curvature) — reset.
                history.clear();
                let d: Vec<f64> = g.iter().map(|v| -v).collect();
                let (nx, nfx, used, ok) = self.line_search(f, &x, fx, &g, &d, max_evals - evals)?;
                evals += used;
                if !ok {
                    break;
                }
                x = nx;
                fx = nfx;
            } else {
                let (nx, nfx, used, ok) = self.line_search(f, &x, fx, &g, &d, max_evals - evals)?;
                evals += used;
                if !ok {
                    break;
                }
                let s: Vec<f64> = nx.iter().zip(&x).map(|(a, b)| a - b).collect();
                x = nx;
                fx = nfx;
                if evals + grad_cost > max_evals {
                    break;
                }
                let new_g = try_finite_difference_gradient(f, &x, self.fd_eps)?;
                evals += grad_cost;
                let y: Vec<f64> = new_g.iter().zip(&g).map(|(a, b)| a - b).collect();
                let ys = dot(&y, &s);
                if ys > 1e-12 {
                    if history.len() == self.memory {
                        history.pop_front();
                    }
                    history.push_back((s, y, 1.0 / ys));
                }
                g = new_g;
                continue;
            }
            if evals + grad_cost > max_evals {
                break;
            }
            g = try_finite_difference_gradient(f, &x, self.fd_eps)?;
            evals += grad_cost;
        }
        Ok(OptResult {
            params: x,
            value: fx,
            evals,
            converged,
        })
    }

    /// Batched override: every finite-difference gradient's `2·n` probe
    /// evaluations ride ONE multi-vector call (one parallel map on
    /// backends that batch). Line-search trials stay
    /// sequential — each depends on the previous trial's outcome. The
    /// trajectory is identical to [`Optimizer::try_minimize`] — same
    /// points, same order, same eval count.
    fn try_minimize_batched(
        &mut self,
        f: &mut BatchedObjective<'_>,
        x0: &[f64],
        max_evals: usize,
    ) -> Result<OptResult> {
        let n = x0.len();
        let mut evals = 0usize;
        let mut x = x0.to_vec();
        let mut fx = single(f, &x)?;
        evals += 1;
        if n == 0 {
            return Ok(OptResult {
                params: x,
                value: fx,
                evals,
                converged: true,
            });
        }
        let grad_cost = 2 * n;
        let mut history: VecDeque<(Vec<f64>, Vec<f64>, f64)> = VecDeque::new();
        let mut g = try_finite_difference_gradient_batched(f, &x, self.fd_eps)?;
        evals += grad_cost;
        let mut converged = false;

        while evals + grad_cost + 2 <= max_evals {
            let gnorm = g.iter().fold(0.0f64, |a, v| a.max(v.abs()));
            if gnorm < self.g_tol {
                converged = true;
                break;
            }
            let d = two_loop_direction(&history, &g);
            let slope = dot(&g, &d);
            if slope >= 0.0 {
                history.clear();
                let d: Vec<f64> = g.iter().map(|v| -v).collect();
                let (nx, nfx, used, ok) = {
                    let mut sf = |p: &[f64]| single(f, p);
                    self.line_search(&mut sf, &x, fx, &g, &d, max_evals - evals)?
                };
                evals += used;
                if !ok {
                    break;
                }
                x = nx;
                fx = nfx;
            } else {
                let (nx, nfx, used, ok) = {
                    let mut sf = |p: &[f64]| single(f, p);
                    self.line_search(&mut sf, &x, fx, &g, &d, max_evals - evals)?
                };
                evals += used;
                if !ok {
                    break;
                }
                let s: Vec<f64> = nx.iter().zip(&x).map(|(a, b)| a - b).collect();
                x = nx;
                fx = nfx;
                if evals + grad_cost > max_evals {
                    break;
                }
                let new_g = try_finite_difference_gradient_batched(f, &x, self.fd_eps)?;
                evals += grad_cost;
                let y: Vec<f64> = new_g.iter().zip(&g).map(|(a, b)| a - b).collect();
                let ys = dot(&y, &s);
                if ys > 1e-12 {
                    if history.len() == self.memory {
                        history.pop_front();
                    }
                    history.push_back((s, y, 1.0 / ys));
                }
                g = new_g;
                continue;
            }
            if evals + grad_cost > max_evals {
                break;
            }
            g = try_finite_difference_gradient_batched(f, &x, self.fd_eps)?;
            evals += grad_cost;
        }
        Ok(OptResult {
            params: x,
            value: fx,
            evals,
            converged,
        })
    }
}

impl GradOptimizer for Lbfgs {
    /// Analytic-gradient loop: each gradient is one
    /// [`GradObjective::value_and_grad`] call costing
    /// [`GradObjective::grad_cost`] evaluation-equivalents (≈ 4 for an
    /// adjoint-backed objective, independent of the parameter count),
    /// versus `2·n` finite-difference probes in the black-box loops.
    /// Line-search trials use [`GradObjective::value`] at cost 1 each.
    fn try_minimize_grad(
        &mut self,
        obj: &mut dyn GradObjective,
        x0: &[f64],
        max_evals: usize,
    ) -> Result<OptResult> {
        let n = x0.len();
        let mut evals = 0usize;
        let mut x = x0.to_vec();
        if n == 0 {
            let fx = obj.value(&x)?;
            return Ok(OptResult {
                params: x,
                value: fx,
                evals: 1,
                converged: true,
            });
        }
        let grad_cost = obj.grad_cost(n).max(1);
        if grad_cost > max_evals {
            // Budget too small for even one gradient: report the starting
            // point honestly with one plain evaluation.
            let fx = obj.value(&x)?;
            return Ok(OptResult {
                params: x,
                value: fx,
                evals: 1,
                converged: false,
            });
        }
        let (mut fx, mut g) = obj.value_and_grad(&x)?;
        evals += grad_cost;
        let mut history: VecDeque<(Vec<f64>, Vec<f64>, f64)> = VecDeque::new();
        let mut converged = false;

        while evals + grad_cost < max_evals {
            let gnorm = g.iter().fold(0.0f64, |a, v| a.max(v.abs()));
            if gnorm < self.g_tol {
                converged = true;
                break;
            }
            let d = two_loop_direction(&history, &g);
            let slope = dot(&g, &d);
            if slope >= 0.0 {
                history.clear();
                let d: Vec<f64> = g.iter().map(|v| -v).collect();
                let (nx, nfx, used, ok) = {
                    let mut vf = |p: &[f64]| obj.value(p);
                    self.line_search(&mut vf, &x, fx, &g, &d, max_evals - evals)?
                };
                evals += used;
                if !ok {
                    break;
                }
                x = nx;
                fx = nfx;
            } else {
                let (nx, nfx, used, ok) = {
                    let mut vf = |p: &[f64]| obj.value(p);
                    self.line_search(&mut vf, &x, fx, &g, &d, max_evals - evals)?
                };
                evals += used;
                if !ok {
                    break;
                }
                let s: Vec<f64> = nx.iter().zip(&x).map(|(a, b)| a - b).collect();
                x = nx;
                fx = nfx;
                if evals + grad_cost > max_evals {
                    break;
                }
                let (nfx2, new_g) = obj.value_and_grad(&x)?;
                evals += grad_cost;
                fx = nfx2;
                let y: Vec<f64> = new_g.iter().zip(&g).map(|(a, b)| a - b).collect();
                let ys = dot(&y, &s);
                if ys > 1e-12 {
                    if history.len() == self.memory {
                        history.pop_front();
                    }
                    history.push_back((s, y, 1.0 / ys));
                }
                g = new_g;
                continue;
            }
            if evals + grad_cost > max_evals {
                break;
            }
            let (nfx2, new_g) = obj.value_and_grad(&x)?;
            evals += grad_cost;
            fx = nfx2;
            g = new_g;
        }
        Ok(OptResult {
            params: x,
            value: fx,
            evals,
            converged,
        })
    }
}

impl Lbfgs {
    /// Backtracking Armijo line search; returns `(x_new, f_new,
    /// evals_used, success)`.
    fn line_search(
        &self,
        f: &mut dyn FnMut(&[f64]) -> Result<f64>,
        x: &[f64],
        fx: f64,
        g: &[f64],
        d: &[f64],
        budget: usize,
    ) -> Result<(Vec<f64>, f64, usize, bool)> {
        let slope = dot(g, d);
        let mut t = 1.0;
        let mut used = 0usize;
        for _ in 0..self.max_ls {
            if used + 1 > budget {
                break;
            }
            let cand: Vec<f64> = x.iter().zip(d).map(|(xi, di)| xi + t * di).collect();
            let fc = f(&cand)?;
            used += 1;
            if fc <= fx + self.c1 * t * slope {
                return Ok((cand, fc, used, true));
            }
            t *= self.backtrack;
        }
        Ok((x.to_vec(), fx, used, false))
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Two-loop L-BFGS recursion: the search direction `d = −H·g` implied by
/// the curvature history `(s, y, 1/yᵀs)`, with the standard initial
/// Hessian scaling `γ = sᵀy/yᵀy` from the latest pair.
fn two_loop_direction(history: &VecDeque<(Vec<f64>, Vec<f64>, f64)>, g: &[f64]) -> Vec<f64> {
    let mut q = g.to_vec();
    let mut alphas = Vec::with_capacity(history.len());
    for (s, y, rho) in history.iter().rev() {
        let alpha = rho * dot(s, &q);
        for (qi, yi) in q.iter_mut().zip(y) {
            *qi -= alpha * yi;
        }
        alphas.push(alpha);
    }
    if let Some((s, y, _)) = history.back() {
        let gamma = dot(s, y) / dot(y, y).max(1e-300);
        for qi in q.iter_mut() {
            *qi *= gamma;
        }
    }
    for ((s, y, rho), alpha) in history.iter().zip(alphas.into_iter().rev()) {
        let beta = rho * dot(y, &q);
        for (qi, si) in q.iter_mut().zip(s) {
            *qi += (alpha - beta) * si;
        }
    }
    q.iter().map(|v| -v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quadratic_bowl_fast_convergence() {
        let mut opt = Lbfgs::default();
        let mut f = |x: &[f64]| (x[0] - 1.0).powi(2) + 10.0 * (x[1] + 2.0).powi(2);
        let r = opt.minimize(&mut f, &[0.0, 0.0], 500);
        assert!(r.converged, "{r:?}");
        assert!((r.params[0] - 1.0).abs() < 1e-5);
        assert!((r.params[1] + 2.0).abs() < 1e-5);
    }

    #[test]
    fn rosenbrock_2d() {
        let mut opt = Lbfgs::default();
        let mut f = |x: &[f64]| (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2);
        let r = opt.minimize(&mut f, &[-1.2, 1.0], 5000);
        assert!((r.params[0] - 1.0).abs() < 1e-3, "{:?}", r.params);
        assert!((r.params[1] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn beats_nelder_mead_on_smooth_high_dim() {
        // 10-dimensional convex quadratic: L-BFGS should reach 1e-8 in
        // far fewer evaluations than Nelder–Mead.
        let bowl = |x: &[f64]| -> f64 {
            x.iter()
                .enumerate()
                .map(|(i, v)| (1.0 + i as f64) * v * v)
                .sum()
        };
        let x0 = vec![1.0; 10];
        let mut lbfgs = Lbfgs::default();
        let mut f1 = bowl;
        let r1 = lbfgs.minimize(&mut f1, &x0, 3000);
        let mut nm = crate::NelderMead::default();
        let mut f2 = bowl;
        let r2 = nm.minimize(&mut f2, &x0, 3000);
        assert!(r1.value < 1e-8, "L-BFGS value {}", r1.value);
        assert!(r1.value <= r2.value * 1.0001 + 1e-12);
    }

    #[test]
    fn vqe_like_periodic_landscape() {
        let mut opt = Lbfgs::default();
        let mut f = |x: &[f64]| 2.0 - x[0].cos() - (x[1] - 0.4).cos();
        let r = opt.minimize(&mut f, &[0.6, -0.3], 1000);
        assert!(r.value < 1e-8, "value {}", r.value);
    }

    #[test]
    fn aborts_promptly_on_objective_error() {
        let mut opt = Lbfgs::default();
        let mut count = 0usize;
        let mut f = |x: &[f64]| -> Result<f64> {
            count += 1;
            if count == 3 {
                Err(nwq_common::Error::Backend("fault".into()))
            } else {
                Ok((x[0] - 1.0).powi(2))
            }
        };
        assert!(opt.try_minimize(&mut f, &[0.0], 5000).is_err());
        assert_eq!(count, 3, "must stop inside the first gradient sweep");
    }

    #[test]
    fn state_json_round_trip() {
        let src = Lbfgs {
            memory: 12,
            fd_eps: 1e-5,
            ..Default::default()
        };
        let mut dst = Lbfgs::default();
        dst.restore_state(&src.state_json()).unwrap();
        assert_eq!(dst.memory, 12);
        assert_eq!(dst.fd_eps, 1e-5);
        assert_eq!(src.name(), "lbfgs");
    }

    #[test]
    fn batched_matches_serial_trajectory_exactly() {
        // The identical-trajectory contract checkpoint replay depends on:
        // same points, same order, same eval count, bitwise-equal result.
        let bowl =
            |x: &[f64]| (x[0] - 1.0).powi(2) + 10.0 * (x[1] + 2.0).powi(2) + 0.3 * x[0] * x[1];
        let mut serial_pts: Vec<Vec<f64>> = Vec::new();
        let mut opt1 = Lbfgs::default();
        let r1 = opt1
            .try_minimize(
                &mut |x: &[f64]| {
                    serial_pts.push(x.to_vec());
                    Ok(bowl(x))
                },
                &[0.2, -0.4],
                90,
            )
            .unwrap();
        let mut batched_pts: Vec<Vec<f64>> = Vec::new();
        let mut widths: Vec<usize> = Vec::new();
        let mut opt2 = Lbfgs::default();
        let r2 = opt2
            .try_minimize_batched(
                &mut |xs: &[Vec<f64>]| {
                    widths.push(xs.len());
                    batched_pts.extend(xs.iter().cloned());
                    Ok(xs.iter().map(|x| bowl(x)).collect())
                },
                &[0.2, -0.4],
                90,
            )
            .unwrap();
        assert_eq!(r1, r2);
        assert_eq!(serial_pts, batched_pts);
        assert_eq!(serial_pts.len(), r1.evals);
        // The FD probes actually ride multi-vector calls (2·n wide).
        assert_eq!(widths.iter().max(), Some(&4), "{widths:?}");
    }

    struct Quad {
        value_calls: usize,
        grad_calls: usize,
        fail_on_grad_call: Option<usize>,
    }

    impl Quad {
        fn new() -> Self {
            Quad {
                value_calls: 0,
                grad_calls: 0,
                fail_on_grad_call: None,
            }
        }

        fn f(x: &[f64]) -> f64 {
            x.iter()
                .enumerate()
                .map(|(i, v)| (1.0 + i as f64) * (v - 0.5).powi(2))
                .sum()
        }
    }

    impl GradObjective for Quad {
        fn value(&mut self, x: &[f64]) -> Result<f64> {
            self.value_calls += 1;
            Ok(Self::f(x))
        }

        fn value_and_grad(&mut self, x: &[f64]) -> Result<(f64, Vec<f64>)> {
            self.grad_calls += 1;
            if self.fail_on_grad_call == Some(self.grad_calls) {
                return Err(nwq_common::Error::Backend("fault".into()));
            }
            let g = x
                .iter()
                .enumerate()
                .map(|(i, v)| 2.0 * (1.0 + i as f64) * (v - 0.5))
                .collect();
            Ok((Self::f(x), g))
        }

        fn grad_cost(&self, _n_params: usize) -> usize {
            4
        }
    }

    #[test]
    fn analytic_gradients_converge_within_flat_budget() {
        // 6 parameters: an FD gradient costs 12 evals, so a 100-eval
        // budget allows only ~7 iterations. The analytic objective's flat
        // cost of 4 buys three times as many — enough to drive the
        // quadratic's gradient ∞-norm below g_tol and set the flag.
        let mut opt = Lbfgs::default();
        let mut obj = Quad::new();
        let r = opt
            .try_minimize_grad(&mut obj, &[1.0, -1.0, 2.0, 0.0, 0.9, -0.2], 100)
            .unwrap();
        assert!(r.converged, "{r:?}");
        assert!(r.value < 1e-10, "value {}", r.value);
        assert!(r.evals <= 100, "{r:?}");
        for p in &r.params {
            assert!((p - 0.5).abs() < 1e-5);
        }
    }

    #[test]
    fn grad_budget_too_small_falls_back_to_one_value() {
        let mut opt = Lbfgs::default();
        let mut obj = Quad::new();
        let r = opt.try_minimize_grad(&mut obj, &[2.0, 2.0], 3).unwrap();
        assert_eq!(r.evals, 1);
        assert!(!r.converged);
        assert_eq!(r.params, vec![2.0, 2.0]);
        assert_eq!(obj.value_calls, 1);
        assert_eq!(obj.grad_calls, 0);
    }

    #[test]
    fn grad_zero_dim_converges_immediately() {
        let mut opt = Lbfgs::default();
        let mut obj = Quad::new();
        let r = opt.try_minimize_grad(&mut obj, &[], 10).unwrap();
        assert!(r.converged);
        assert_eq!(r.evals, 1);
    }

    #[test]
    fn grad_objective_error_aborts_promptly() {
        let mut opt = Lbfgs::default();
        let mut obj = Quad::new();
        obj.fail_on_grad_call = Some(2);
        assert!(opt.try_minimize_grad(&mut obj, &[3.0], 1000).is_err());
        assert_eq!(obj.grad_calls, 2, "must stop at the failing gradient");
    }

    #[test]
    fn respects_budget_and_zero_dim() {
        let mut opt = Lbfgs::default();
        let mut count = 0usize;
        let mut f = |x: &[f64]| {
            count += 1;
            x[0].powi(2)
        };
        let r = opt.minimize(&mut f, &[3.0], 25);
        assert!(r.evals <= 25);
        assert_eq!(count, r.evals);
        let mut f0 = |_: &[f64]| 5.0;
        let r0 = opt.minimize(&mut f0, &[], 10);
        assert_eq!(r0.value, 5.0);
        assert!(r0.converged);
    }
}
