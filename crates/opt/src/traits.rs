//! Optimizer interface shared by the VQE drivers.

use nwq_common::Result;
use nwq_telemetry::JsonValue;

/// A batched black-box objective: evaluates every parameter vector in the
/// slice, returning one value per vector in input order.
pub type BatchedObjective<'a> = dyn FnMut(&[Vec<f64>]) -> Result<Vec<f64>> + 'a;

/// Result of an optimization run.
#[derive(Clone, Debug, PartialEq)]
pub struct OptResult {
    /// Best parameter vector found.
    pub params: Vec<f64>,
    /// Objective value at `params`.
    pub value: f64,
    /// Objective evaluations consumed.
    pub evals: usize,
    /// Whether the convergence criterion was met (vs. hitting the
    /// evaluation budget).
    pub converged: bool,
}

/// A minimizer of black-box objectives `f: R^n → R`.
///
/// Implementations must be deterministic for a fixed seed/configuration so
/// experiment harness runs are reproducible — the checkpoint/restart layer
/// in `nwq-core` relies on this to replay an interrupted trajectory from a
/// logged prefix of objective values.
pub trait Optimizer {
    /// Minimizes the *fallible* objective `f` starting from `x0`, with at
    /// most `max_evals` evaluations. An `Err` from the objective aborts the
    /// run promptly and is propagated to the caller — implementations must
    /// not keep burning the evaluation budget after a failure.
    fn try_minimize(
        &mut self,
        f: &mut dyn FnMut(&[f64]) -> Result<f64>,
        x0: &[f64],
        max_evals: usize,
    ) -> Result<OptResult>;

    /// Minimizes using a *batched* objective: one call evaluates every
    /// parameter vector in the slice and returns one value per vector, in
    /// input order. Optimizers whose iterations contain structurally
    /// independent evaluations (SPSA's `θ±c·Δ` pair, the `2·n + 1` points
    /// of a central-difference gradient) override this to group them into
    /// multi-vector calls, letting batching backends
    /// evaluate all of them in one call. The trajectory
    /// must be *identical* to [`try_minimize`](Self::try_minimize) — same
    /// evaluation points, same order, same eval count — so the two entry
    /// points are interchangeable for checkpoint replay.
    ///
    /// The default adapter simply feeds width-1 batches through
    /// `try_minimize`.
    fn try_minimize_batched(
        &mut self,
        f: &mut BatchedObjective<'_>,
        x0: &[f64],
        max_evals: usize,
    ) -> Result<OptResult> {
        self.try_minimize(&mut |x: &[f64]| single(f, x), x0, max_evals)
    }

    /// Infallible convenience wrapper around
    /// [`try_minimize`](Self::try_minimize).
    fn minimize(
        &mut self,
        f: &mut dyn FnMut(&[f64]) -> f64,
        x0: &[f64],
        max_evals: usize,
    ) -> OptResult {
        self.try_minimize(&mut |x| Ok(f(x)), x0, max_evals)
            .expect("infallible objective cannot produce an error")
    }

    /// Stable identifier used in checkpoint files to verify that a resumed
    /// run reconstructs the same optimizer kind (e.g. `"nelder-mead"`).
    fn name(&self) -> &'static str;

    /// Serializable configuration snapshot for checkpoints. The default is
    /// `null` (stateless / nothing worth recording); optimizers whose
    /// trajectory depends on configuration (step sizes, RNG seeds) should
    /// return an object so resume can verify or restore it.
    fn state_json(&self) -> JsonValue {
        JsonValue::Null
    }

    /// Restores configuration from a [`state_json`](Self::state_json)
    /// snapshot. The default accepts anything and changes nothing.
    fn restore_state(&mut self, _state: &JsonValue) -> Result<()> {
        Ok(())
    }
}

/// An objective that can produce its own analytic gradient — e.g. a VQE
/// energy backed by adjoint differentiation, where the full `∂E/∂θ`
/// costs a small constant number of statevector evolutions regardless of
/// the parameter count.
pub trait GradObjective {
    /// Evaluates the objective alone (one energy-evaluation equivalent).
    fn value(&mut self, x: &[f64]) -> Result<f64>;

    /// Evaluates the objective and its full gradient at `x` in one pass.
    fn value_and_grad(&mut self, x: &[f64]) -> Result<(f64, Vec<f64>)>;

    /// Cost of one [`value_and_grad`](GradObjective::value_and_grad) call
    /// in energy-evaluation equivalents, used for `max_evals` budget
    /// accounting (adjoint: ~4 independent of `n_params`;
    /// shift rules and central differences: `2·n_params + 1`).
    fn grad_cost(&self, n_params: usize) -> usize;
}

/// A minimizer that can consume analytic gradients via [`GradObjective`].
/// The budget is still expressed in energy-evaluation equivalents so
/// gradient-based and derivative-free runs are directly comparable.
pub trait GradOptimizer: Optimizer {
    /// Minimizes `obj` from `x0` spending at most `max_evals`
    /// energy-evaluation equivalents (gradient calls cost
    /// [`GradObjective::grad_cost`] each).
    fn try_minimize_grad(
        &mut self,
        obj: &mut dyn GradObjective,
        x0: &[f64],
        max_evals: usize,
    ) -> Result<OptResult>;
}

/// Evaluates a batched objective on one parameter vector, enforcing the
/// one-value-per-vector contract.
pub(crate) fn single(f: &mut BatchedObjective<'_>, x: &[f64]) -> Result<f64> {
    let vals = f(std::slice::from_ref(&x.to_vec()))?;
    match vals.as_slice() {
        [v] => Ok(*v),
        other => Err(nwq_common::Error::Invalid(format!(
            "batched objective returned {} values for 1 parameter vector",
            other.len()
        ))),
    }
}

/// Reads a required float field out of an optimizer state object, keeping
/// restore-path error messages uniform across implementations.
pub(crate) fn state_f64(state: &JsonValue, key: &str) -> Result<f64> {
    state
        .get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| nwq_common::Error::Invalid(format!("optimizer state missing float '{key}'")))
}

/// Reads a required unsigned-integer field out of an optimizer state object.
pub(crate) fn state_u64(state: &JsonValue, key: &str) -> Result<u64> {
    state.get(key).and_then(JsonValue::as_u64).ok_or_else(|| {
        nwq_common::Error::Invalid(format!("optimizer state missing integer '{key}'"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nwq_common::Error;

    struct Null;
    impl Optimizer for Null {
        fn try_minimize(
            &mut self,
            f: &mut dyn FnMut(&[f64]) -> Result<f64>,
            x0: &[f64],
            _max_evals: usize,
        ) -> Result<OptResult> {
            Ok(OptResult {
                params: x0.to_vec(),
                value: f(x0)?,
                evals: 1,
                converged: false,
            })
        }

        fn name(&self) -> &'static str {
            "null"
        }
    }

    #[test]
    fn trait_object_usable() {
        let mut opt: Box<dyn Optimizer> = Box::new(Null);
        let mut f = |x: &[f64]| x[0] * x[0];
        let r = opt.minimize(&mut f, &[2.0], 10);
        assert_eq!(r.value, 4.0);
        assert_eq!(r.evals, 1);
    }

    #[test]
    fn objective_error_propagates() {
        let mut opt = Null;
        let mut f = |_: &[f64]| Err(Error::Backend("boom".into()));
        let e = opt.try_minimize(&mut f, &[1.0], 10).unwrap_err();
        assert_eq!(e, Error::Backend("boom".into()));
    }

    #[test]
    fn default_batched_adapter_feeds_width_one_batches() {
        let mut opt = Null;
        let mut widths = Vec::new();
        let r = opt
            .try_minimize_batched(
                &mut |xs: &[Vec<f64>]| {
                    widths.push(xs.len());
                    Ok(xs.iter().map(|x| x[0] * x[0]).collect())
                },
                &[3.0],
                10,
            )
            .unwrap();
        assert_eq!(r.value, 9.0);
        assert_eq!(widths, vec![1]);

        // Contract violation (wrong output width) surfaces as an error.
        let e = opt
            .try_minimize_batched(&mut |_| Ok(vec![]), &[1.0], 10)
            .unwrap_err();
        assert!(matches!(e, Error::Invalid(_)), "{e:?}");
    }

    #[test]
    fn default_state_round_trip() {
        let mut opt = Null;
        assert!(matches!(opt.state_json(), JsonValue::Null));
        opt.restore_state(&JsonValue::Int(3)).unwrap();
        assert_eq!(opt.name(), "null");
    }
}
