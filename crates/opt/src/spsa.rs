//! Simultaneous Perturbation Stochastic Approximation.
//!
//! SPSA estimates the full gradient from two objective evaluations per
//! iteration regardless of dimension — the standard choice when VQE
//! energies are noisy (shot-based backends) or parameter counts are large.

use crate::traits::{single, state_f64, state_u64, BatchedObjective, OptResult, Optimizer};
use nwq_common::Result;
use nwq_telemetry::JsonValue;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// SPSA configuration with the classic `a_k = a/(k+1+A)^α`,
/// `c_k = c/(k+1)^γ` gain schedules.
#[derive(Clone, Debug)]
pub struct Spsa {
    /// Step-size numerator.
    pub a: f64,
    /// Perturbation-size numerator.
    pub c: f64,
    /// Step-size stability constant.
    pub big_a: f64,
    /// Step-size decay exponent (0.602 is the canonical value).
    pub alpha: f64,
    /// Perturbation decay exponent (0.101 canonical).
    pub gamma: f64,
    /// RNG seed (runs are reproducible for a fixed seed).
    pub seed: u64,
}

impl Default for Spsa {
    fn default() -> Self {
        Spsa {
            a: 0.2,
            c: 0.1,
            big_a: 10.0,
            alpha: 0.602,
            gamma: 0.101,
            seed: 7,
        }
    }
}

impl Optimizer for Spsa {
    fn name(&self) -> &'static str {
        "spsa"
    }

    fn state_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("a".into(), JsonValue::Float(self.a)),
            ("c".into(), JsonValue::Float(self.c)),
            ("big_a".into(), JsonValue::Float(self.big_a)),
            ("alpha".into(), JsonValue::Float(self.alpha)),
            ("gamma".into(), JsonValue::Float(self.gamma)),
            ("seed".into(), JsonValue::Int(self.seed)),
        ])
    }

    fn restore_state(&mut self, state: &JsonValue) -> Result<()> {
        self.a = state_f64(state, "a")?;
        self.c = state_f64(state, "c")?;
        self.big_a = state_f64(state, "big_a")?;
        self.alpha = state_f64(state, "alpha")?;
        self.gamma = state_f64(state, "gamma")?;
        self.seed = state_u64(state, "seed")?;
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

    /// SPSA's two perturbed evaluations per iteration are independent of
    /// each other, so they go out as one width-2 batch — a batching
    /// backend evaluates both `θ±c·Δ` states in one call: `f([x])`, then
    /// per iteration `f([x+cΔ, x−cΔ])` followed by `f([x'])`.
    fn try_minimize_batched(
        &mut self,
        f: &mut BatchedObjective<'_>,
        x0: &[f64],
        max_evals: usize,
    ) -> Result<OptResult> {
        let n = x0.len();
        // Re-seeding at the start of every run makes the perturbation
        // sequence a pure function of the configuration: a resumed run
        // replaying a logged energy prefix reconstructs the RNG exactly.
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut x = x0.to_vec();
        let mut evals = 0usize;
        let mut best = (single(f, &x)?, x.clone());
        evals += 1;
        if n == 0 {
            return Ok(OptResult {
                params: x,
                value: best.0,
                evals,
                converged: true,
            });
        }
        let mut k = 0usize;
        while evals + 2 <= max_evals {
            let ak = self.a / ((k as f64) + 1.0 + self.big_a).powf(self.alpha);
            let ck = self.c / ((k as f64) + 1.0).powf(self.gamma);
            // Rademacher perturbation.
            let delta: Vec<f64> = (0..n)
                .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
                .collect();
            let xp: Vec<f64> = x.iter().zip(&delta).map(|(v, d)| v + ck * d).collect();
            let xm: Vec<f64> = x.iter().zip(&delta).map(|(v, d)| v - ck * d).collect();
            let pair = f(&[xp, xm])?;
            let [fp, fm] = pair.as_slice() else {
                return Err(nwq_common::Error::Invalid(format!(
                    "batched objective returned {} values for 2 parameter vectors",
                    pair.len()
                )));
            };
            evals += 2;
            let diff = (fp - fm) / (2.0 * ck);
            for (v, d) in x.iter_mut().zip(&delta) {
                *v -= ak * diff / d;
            }
            let fx = single(f, &x)?;
            evals += 1;
            if fx < best.0 {
                best = (fx, x.clone());
            }
            k += 1;
        }
        Ok(OptResult {
            params: best.1,
            value: best.0,
            evals,
            converged: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimizes_quadratic() {
        let mut spsa = Spsa {
            a: 0.5,
            ..Default::default()
        };
        let mut f = |x: &[f64]| (x[0] - 1.0).powi(2) + (x[1] + 0.5).powi(2);
        let r = spsa.minimize(&mut f, &[0.0, 0.0], 3000);
        assert!(r.value < 1e-3, "value {}", r.value);
        assert!((r.params[0] - 1.0).abs() < 0.05);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let run = || {
            let mut spsa = Spsa::default();
            let mut f = |x: &[f64]| x[0].powi(2) + 0.3 * x[1].powi(2);
            spsa.minimize(&mut f, &[1.0, -1.0], 500)
        };
        let a = run();
        let b = run();
        assert_eq!(a.params, b.params);
        assert_eq!(a.value, b.value);
    }

    #[test]
    fn tolerates_noisy_objective() {
        // Deterministic pseudo-noise superimposed on a bowl.
        let mut spsa = Spsa {
            a: 0.4,
            c: 0.2,
            ..Default::default()
        };
        let mut calls = 0usize;
        let mut f = |x: &[f64]| {
            calls += 1;
            let noise = ((calls as f64) * 12.9898).sin() * 0.01;
            x[0].powi(2) + x[1].powi(2) + noise
        };
        let r = spsa.minimize(&mut f, &[1.5, -1.5], 4000);
        assert!(r.params[0].abs() < 0.2, "{:?}", r.params);
        assert!(r.params[1].abs() < 0.2);
    }

    #[test]
    fn aborts_promptly_on_objective_error() {
        let mut spsa = Spsa::default();
        let mut count = 0usize;
        let mut f = |x: &[f64]| -> Result<f64> {
            count += 1;
            if count == 7 {
                Err(nwq_common::Error::Numerical("nan energy".into()))
            } else {
                Ok(x[0].powi(2))
            }
        };
        let e = spsa.try_minimize(&mut f, &[1.0, 2.0], 10_000).unwrap_err();
        assert!(e.is_transient());
        assert_eq!(count, 7);
    }

    #[test]
    fn state_json_round_trip_preserves_seed() {
        let src = Spsa {
            seed: 424242,
            a: 0.3,
            ..Default::default()
        };
        let mut dst = Spsa::default();
        dst.restore_state(&src.state_json()).unwrap();
        assert_eq!(dst.seed, 424242);
        assert_eq!(dst.a, 0.3);
        assert_eq!(src.name(), "spsa");
        // Restored configuration reproduces the exact trajectory.
        let run = |opt: &mut Spsa| {
            let mut f = |x: &[f64]| x[0].powi(2) + 0.3 * x[1].powi(2);
            opt.minimize(&mut f, &[1.0, -1.0], 300)
        };
        let mut a = Spsa {
            seed: 424242,
            a: 0.3,
            ..Default::default()
        };
        assert_eq!(run(&mut a).params, run(&mut dst).params);
    }

    #[test]
    fn batched_trajectory_matches_scalar_exactly() {
        // The batched entry point must be a drop-in replacement: identical
        // evaluation points ⇒ identical (bitwise) trajectory and counts.
        let obj = |x: &[f64]| (x[0] - 0.7).powi(2) + 0.4 * x[1] * x[1] + 0.05 * (x[0] * x[1]).sin();
        let scalar = Spsa::default()
            .try_minimize(&mut |x| Ok(obj(x)), &[1.0, -0.5], 400)
            .unwrap();
        let mut widths = Vec::new();
        let batched = Spsa::default()
            .try_minimize_batched(
                &mut |xs| {
                    widths.push(xs.len());
                    Ok(xs.iter().map(|x| obj(x)).collect())
                },
                &[1.0, -0.5],
                400,
            )
            .unwrap();
        assert_eq!(scalar.params, batched.params);
        assert_eq!(scalar.value, batched.value);
        assert_eq!(scalar.evals, batched.evals);
        // Per-iteration shape: initial width-1, then (2, 1) pairs.
        assert_eq!(widths[0], 1);
        assert_eq!(widths[1], 2);
        assert_eq!(widths[2], 1);
        assert!(widths.iter().filter(|&&w| w == 2).count() > 10);
    }

    #[test]
    fn batched_rejects_wrong_width_and_propagates_errors() {
        let e = Spsa::default()
            .try_minimize_batched(&mut |xs| Ok(vec![0.0; xs.len() + 1]), &[1.0], 100)
            .unwrap_err();
        assert!(matches!(e, nwq_common::Error::Invalid(_)), "{e:?}");
        let mut calls = 0usize;
        let e = Spsa::default()
            .try_minimize_batched(
                &mut |xs| {
                    calls += 1;
                    if calls == 2 {
                        Err(nwq_common::Error::Numerical("nan energy".into()))
                    } else {
                        Ok(vec![0.0; xs.len()])
                    }
                },
                &[1.0],
                100,
            )
            .unwrap_err();
        assert!(e.is_transient());
        assert_eq!(calls, 2);
    }

    #[test]
    fn respects_budget() {
        let mut spsa = Spsa::default();
        let mut count = 0usize;
        let mut f = |x: &[f64]| {
            count += 1;
            x[0].powi(2)
        };
        let r = spsa.minimize(&mut f, &[3.0], 50);
        assert!(r.evals <= 50);
        assert_eq!(count, r.evals);
    }
}
