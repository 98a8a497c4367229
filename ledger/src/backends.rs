//! The ledger's own `Backend`s: a decomposition of `DirectBackend` into
//! the public calls it makes, each inside a span, and a timing decorator
//! for any backend. Both exist only in the traced run; end-to-end numbers
//! always come from the stock `DirectBackend`.

use crate::span::{Layer, Tracer};
use nwq_circuit::Circuit;
use nwq_common::Result;
use nwq_core::backend::{Backend, BackendStats, GradientBackend};
use nwq_pauli::PauliOp;
use nwq_statevec::executor::Executor;
use nwq_statevec::expval::energy_direct_batched;
use nwq_statevec::{plan_cache, ExecPlan, StateVector};
use std::cell::RefCell;
use std::rc::Rc;

pub type SharedTracer = Rc<RefCell<Tracer>>;

/// Counts the decomposition backend reads off the structs the calls
/// return (`PlanStats`, `ExecStats`, `AdjointGradient`).
#[derive(Clone, Copy, Debug, Default)]
pub struct DecompCounts {
    pub templates_built: u64,
    pub template_cache_hits: u64,
    pub state_cache_hits: u64,
    pub state_cache_misses: u64,
    /// `PlanStats::ops` and `::gates_in` of the most recent bind.
    pub plan_ops: u64,
    pub plan_gates_in: u64,
    pub grads: u64,
    pub adjoint_sweeps: u64,
    pub adjoint_reductions: u64,
    pub adjoint_blocks: u64,
}

/// `DirectBackend::energy`, call for call: single-slot post-ansatz cache
/// keyed on the exact θ bits, `plan_cache::template_for` →
/// `PlanTemplate::bind_into` (reused scratch plan) →
/// `Executor::run_plan_on` from `|0…0⟩` → `energy_direct_batched`.
/// Energies are bitwise equal to `DirectBackend`'s; the traced run and a
/// unit test both check it.
pub struct DecompBackend {
    tracer: SharedTracer,
    executor: Executor,
    plan: ExecPlan,
    cached: Option<(Vec<u64>, StateVector)>,
    stats: BackendStats,
    counts: DecompCounts,
}

impl DecompBackend {
    pub fn new(tracer: SharedTracer) -> Self {
        DecompBackend {
            tracer,
            executor: Executor::new(),
            plan: ExecPlan::empty(),
            cached: None,
            stats: BackendStats::default(),
            counts: DecompCounts::default(),
        }
    }

    pub fn counts(&self) -> DecompCounts {
        self.counts
    }

    pub fn amplitude_updates(&self) -> u64 {
        self.executor.stats().amplitude_updates
    }

    fn span<T>(&self, layer: Layer, f: impl FnOnce() -> T) -> T {
        Tracer::scope(&self.tracer, layer, f)
    }
}

impl Backend for DecompBackend {
    fn energy(&mut self, ansatz: &Circuit, params: &[f64], observable: &PauliOp) -> Result<f64> {
        // Same key as PostAnsatzCache: −0.0 folds onto 0.0, NaN stays
        // cacheable.
        let key: Vec<u64> = params.iter().map(|p| (p + 0.0).to_bits()).collect();
        if !matches!(&self.cached, Some((k, _)) if *k == key) {
            self.counts.state_cache_misses += 1;
            let shapes_before = plan_cache::len();
            let template = self.span(Layer::PlanTemplate, || plan_cache::template_for(ansatz))?;
            if plan_cache::len() > shapes_before {
                self.counts.templates_built += 1;
            } else {
                self.counts.template_cache_hits += 1;
            }
            let plan = &mut self.plan;
            Tracer::scope(&self.tracer, Layer::PlanBind, || {
                template.bind_into(params, plan)
            })?;
            self.counts.plan_ops = self.plan.stats().ops as u64;
            self.counts.plan_gates_in = self.plan.stats().gates_in as u64;
            let (executor, plan) = (&mut self.executor, &self.plan);
            let state = Tracer::scope(&self.tracer, Layer::ExecEvolve, || {
                let mut state = StateVector::zero(plan.n_qubits());
                executor.run_plan_on(plan, &mut state).map(|()| state)
            })?;
            self.cached = Some((key, state));
            self.stats.ansatz_runs += 1;
            self.stats.gates_applied += ansatz.len() as u64;
        } else {
            self.counts.state_cache_hits += 1;
        }
        let state = &self.cached.as_ref().expect("state was just ensured").1;
        let e = self.span(Layer::ExpvalEnergy, || {
            energy_direct_batched(state, observable)
        })?;
        self.stats.evaluations += 1;
        Ok(e)
    }

    fn stats(&self) -> BackendStats {
        self.stats
    }

    fn name(&self) -> &'static str {
        "ledger-decomposed"
    }

    fn invalidate_cache(&mut self) {
        self.cached = None;
    }
}

impl GradientBackend for DecompBackend {
    fn energy_and_gradient(
        &mut self,
        ansatz: &Circuit,
        params: &[f64],
        observable: &PauliOp,
    ) -> Result<(f64, Vec<f64>)> {
        let g = self.span(Layer::AdjointGrad, || {
            nwq_statevec::adjoint::energy_and_gradient(ansatz, params, observable)
        })?;
        self.counts.grads += 1;
        self.counts.adjoint_sweeps += g.sweeps;
        self.counts.adjoint_reductions += g.reductions;
        self.counts.adjoint_blocks += g.blocks;
        self.stats.evaluations += 1;
        self.stats.ansatz_runs += 1;
        self.stats.gates_applied += ansatz.len() as u64;
        Ok((g.energy, g.gradient))
    }

    fn as_backend(&mut self) -> &mut dyn Backend {
        self
    }
}

/// Timing decorator: one [`Layer::Backend`] span per call into `inner`,
/// so the enclosing driver span's self time is the driver and optimiser
/// alone. Also keeps every energy served, in order, for
/// `opt.evals_to_accuracy`.
pub struct Timed<B> {
    pub inner: B,
    tracer: SharedTracer,
    pub energies: Vec<f64>,
}

impl<B> Timed<B> {
    pub fn new(inner: B, tracer: SharedTracer) -> Self {
        Timed {
            inner,
            tracer,
            energies: Vec::new(),
        }
    }
}

impl<B: Backend> Backend for Timed<B> {
    fn energy(&mut self, ansatz: &Circuit, params: &[f64], observable: &PauliOp) -> Result<f64> {
        let inner = &mut self.inner;
        let e = Tracer::scope(&self.tracer, Layer::Backend, || {
            inner.energy(ansatz, params, observable)
        })?;
        self.energies.push(e);
        Ok(e)
    }

    fn stats(&self) -> BackendStats {
        self.inner.stats()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn invalidate_cache(&mut self) {
        self.inner.invalidate_cache();
    }
}

impl<B: GradientBackend> GradientBackend for Timed<B> {
    fn energy_and_gradient(
        &mut self,
        ansatz: &Circuit,
        params: &[f64],
        observable: &PauliOp,
    ) -> Result<(f64, Vec<f64>)> {
        let inner = &mut self.inner;
        let (e, g) = Tracer::scope(&self.tracer, Layer::Backend, || {
            inner.energy_and_gradient(ansatz, params, observable)
        })?;
        self.energies.push(e);
        Ok((e, g))
    }

    fn as_backend(&mut self) -> &mut dyn Backend {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nwq_chem::{molecules, uccsd};
    use nwq_core::backend::DirectBackend;

    fn bitwise_vs_direct(mol: nwq_chem::MolecularIntegrals) {
        let h = mol.to_qubit_hamiltonian().unwrap();
        let ansatz = uccsd::uccsd_ansatz(h.n_qubits(), mol.n_electrons()).unwrap();
        let tracer = SharedTracer::default();
        let mut ours = Timed::new(DecompBackend::new(tracer.clone()), tracer.clone());
        let mut direct = DirectBackend::new();
        let mut rng = crate::rng::Rng::new(7, 1);
        let mut thetas: Vec<Vec<f64>> = (0..6)
            .map(|_| {
                (0..ansatz.n_params())
                    .map(|_| rng.range(-0.8, 0.8))
                    .collect()
            })
            .collect();
        thetas.push(thetas[5].clone()); // repeated θ: the state-cache hit path
        thetas.push(vec![-0.0; ansatz.n_params()]);
        thetas.push(vec![0.0; ansatz.n_params()]);
        for theta in &thetas {
            let a = ours.energy(&ansatz, theta, &h).unwrap();
            let b = direct.energy(&ansatz, theta, &h).unwrap();
            assert_eq!(a.to_bits(), b.to_bits(), "θ = {theta:?}");
        }
        let c = ours.inner.counts();
        assert_eq!(c.state_cache_hits, direct.cache_stats().hits);
        assert_eq!(c.state_cache_misses, direct.cache_stats().misses);
        assert_eq!(ours.stats(), direct.stats());
        assert_eq!(
            ours.inner.amplitude_updates(),
            direct.executor_stats().amplitude_updates
        );
        let (e, g) = ours.energy_and_gradient(&ansatz, &thetas[0], &h).unwrap();
        let (e2, g2) = direct.energy_and_gradient(&ansatz, &thetas[0], &h).unwrap();
        assert_eq!(e.to_bits(), e2.to_bits());
        assert_eq!(g, g2);
        // Every backend call is one Backend span whose children are the
        // decomposed calls.
        let t = tracer.borrow();
        assert_eq!(t.layer(Layer::Backend).count, thetas.len() as u64 + 1);
        assert_eq!(t.layer(Layer::PlanBind).count, c.state_cache_misses);
        assert_eq!(t.layer(Layer::ExpvalEnergy).count, thetas.len() as u64);
        assert_eq!(t.layer(Layer::AdjointGrad).count, 1);
    }

    #[test]
    fn decomposition_is_bitwise_direct_backend_on_h2() {
        bitwise_vs_direct(molecules::h2_sto3g());
    }

    #[test]
    fn decomposition_is_bitwise_direct_backend_on_water8() {
        bitwise_vs_direct(molecules::water_model(4, 4));
    }
}
