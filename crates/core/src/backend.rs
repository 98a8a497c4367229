//! Execution backends — the XACC-style abstraction (paper §3).
//!
//! A [`Backend`] turns `(ansatz, θ, observable)` into an energy. The four
//! implementations span the paper's design space:
//!
//! | backend | ansatz executions per E(θ) | measurement | paper section |
//! |---|---|---|---|
//! | [`NonCachingBackend`] | one per measurement group | exact diagonal readout | Fig 3 baseline |
//! | [`CachedMeasureBackend`] | one | basis changes on cached state | §4.1 |
//! | [`DirectBackend`] | one | direct amplitude reduction, no basis gates | §4.1 + §4.2 |
//! | [`SamplingBackend`] | one | finite shots (statistical noise) | §4.2.1 baseline |
//!
//! A fifth, [`DistributedBackend`], runs the ansatz on the sharded
//! multi-rank engine and reads out gather-free — the multi-node path.

use nwq_circuit::Circuit;
use nwq_common::{Error, Result};
use nwq_pauli::grouping::{group_qubit_wise, group_singletons};
use nwq_pauli::PauliOp;
use nwq_statevec::cache::PostAnsatzCache;
use nwq_statevec::executor::Executor;
use nwq_statevec::expval::{energy_cached, energy_direct_batched, energy_non_caching};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Cumulative work counters for a backend.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BackendStats {
    /// Energy evaluations served.
    pub evaluations: u64,
    /// Total gates applied across all evaluations.
    pub gates_applied: u64,
    /// Ansatz circuit executions.
    pub ansatz_runs: u64,
}

/// An owned, thread-movable backend — the form worker pools hold. Every
/// backend in this module is `Send` (plain owned data, no interior
/// mutability), so boxing with the bound costs nothing and lets a server
/// hand each worker thread its own engine.
pub type BoxedBackend = Box<dyn Backend + Send>;

/// An energy-evaluation engine for variational algorithms.
pub trait Backend {
    /// Evaluates `⟨ψ(θ)|H|ψ(θ)⟩`.
    fn energy(&mut self, ansatz: &Circuit, params: &[f64], observable: &PauliOp) -> Result<f64>;

    /// Evaluates one energy per parameter set, in input order. The default
    /// runs the sets sequentially through [`energy`](Self::energy);
    /// backends with a genuinely batched engine (a parallel map over θ,
    /// device-side batching) override this. Results must be
    /// bitwise identical to the sequential path — callers treat the two
    /// entry points as interchangeable.
    fn energy_batch(
        &mut self,
        ansatz: &Circuit,
        param_sets: &[Vec<f64>],
        observable: &PauliOp,
    ) -> Result<Vec<f64>> {
        param_sets
            .iter()
            .map(|p| self.energy(ansatz, p, observable))
            .collect()
    }

    /// Work counters.
    fn stats(&self) -> BackendStats;

    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// Drops cached derived state (post-ansatz states, compiled plans) so
    /// the next evaluation recomputes from scratch — the recovery hook the
    /// resilience layer pulls between retries, since a transient fault may
    /// have poisoned whatever was cached. No-op for stateless backends.
    fn invalidate_cache(&mut self) {}
}

/// An energy engine that can also produce the *analytic* gradient
/// `∂E/∂θ` — via adjoint differentiation, where the full gradient costs a
/// small constant number of statevector evolutions (≈ 4) regardless of
/// the parameter count, versus `2·n` circuit evaluations for the
/// parameter-shift rule.
pub trait GradientBackend: Backend {
    /// Evaluates `⟨ψ(θ)|H|ψ(θ)⟩` and its full gradient in one adjoint
    /// sweep.
    fn energy_and_gradient(
        &mut self,
        ansatz: &Circuit,
        params: &[f64],
        observable: &PauliOp,
    ) -> Result<(f64, Vec<f64>)>;

    /// Upcast to the plain-energy interface (explicit because dyn-trait
    /// upcasting coercion is not assumed from the pinned toolchain).
    fn as_backend(&mut self) -> &mut dyn Backend;
}

fn check_widths(ansatz: &Circuit, observable: &PauliOp) -> Result<()> {
    if ansatz.n_qubits() != observable.n_qubits() {
        return Err(Error::DimensionMismatch {
            expected: ansatz.n_qubits(),
            got: observable.n_qubits(),
        });
    }
    Ok(())
}

// ---------------------------------------------------------------------------

/// Re-prepares the ansatz for every measurement group (Fig 3 baseline).
#[derive(Debug, Default)]
pub struct NonCachingBackend {
    stats: BackendStats,
}

impl NonCachingBackend {
    /// A fresh baseline backend.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Backend for NonCachingBackend {
    fn energy(&mut self, ansatz: &Circuit, params: &[f64], observable: &PauliOp) -> Result<f64> {
        check_widths(ansatz, observable)?;
        let groups = group_singletons(observable);
        let eval = energy_non_caching(ansatz, params, &groups, 0.0)?;
        self.stats.evaluations += 1;
        self.stats.gates_applied += eval.gates_applied;
        self.stats.ansatz_runs += groups.len() as u64;
        Ok(eval.energy)
    }

    fn stats(&self) -> BackendStats {
        self.stats
    }

    fn name(&self) -> &'static str {
        "non-caching"
    }
}

// ---------------------------------------------------------------------------

/// Caches the post-ansatz state, then applies per-group basis changes
/// (paper §4.1), with qubit-wise-commuting grouping to shrink the group
/// count.
#[derive(Debug, Default)]
pub struct CachedMeasureBackend {
    stats: BackendStats,
}

impl CachedMeasureBackend {
    /// A fresh caching backend.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Backend for CachedMeasureBackend {
    fn energy(&mut self, ansatz: &Circuit, params: &[f64], observable: &PauliOp) -> Result<f64> {
        check_widths(ansatz, observable)?;
        let groups = group_qubit_wise(observable);
        let eval = energy_cached(ansatz, params, &groups, 0.0)?;
        self.stats.evaluations += 1;
        self.stats.gates_applied += eval.gates_applied;
        self.stats.ansatz_runs += 1;
        Ok(eval.energy)
    }

    fn stats(&self) -> BackendStats {
        self.stats
    }

    fn name(&self) -> &'static str {
        "cached-measure"
    }
}

// ---------------------------------------------------------------------------

/// The paper's fastest path: cached post-ansatz state plus *direct*
/// expectation values (§4.2) — zero measurement gates.
#[derive(Debug)]
pub struct DirectBackend {
    cache: PostAnsatzCache,
    executor: Executor,
    stats: BackendStats,
}

impl Default for DirectBackend {
    fn default() -> Self {
        DirectBackend {
            cache: PostAnsatzCache::new(),
            executor: Executor::new(),
            stats: BackendStats::default(),
        }
    }
}

impl DirectBackend {
    /// A direct backend with an empty post-ansatz cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cache statistics (hits mean reused post-ansatz states).
    pub fn cache_stats(&self) -> nwq_statevec::cache::CacheStats {
        self.cache.stats()
    }

    /// Execution statistics of the backend's own executor (fused blocks,
    /// amplitude sweeps) — the plan-layer effect, per backend instance.
    pub fn executor_stats(&self) -> nwq_statevec::stats::ExecStats {
        self.executor.stats()
    }
}

impl Backend for DirectBackend {
    fn energy(&mut self, ansatz: &Circuit, params: &[f64], observable: &PauliOp) -> Result<f64> {
        check_widths(ansatz, observable)?;
        // Cache misses bind the ansatz's globally cached PlanTemplate (the
        // structural fusion/coalescing pass runs once per circuit shape,
        // process-wide; each θ only replays the recorded arithmetic); the
        // energy readout batches Pauli terms by flip-mask. `gates_applied`
        // stays the logical gate count so the Fig 3 cost comparison is
        // independent of how much the plan fuses.
        let misses_before = self.cache.stats().misses;
        let state = self
            .cache
            .get_or_prepare_plan(ansatz, params, &mut self.executor)?;
        let e = energy_direct_batched(state, observable)?;
        self.stats.evaluations += 1;
        if self.cache.stats().misses != misses_before {
            self.stats.ansatz_runs += 1;
            self.stats.gates_applied += ansatz.len() as u64;
        }
        Ok(e)
    }

    /// Multi-θ evaluation as one parallel map over θ, one plan bind,
    /// evolution and readout per entry
    /// ([`nwq_statevec::batch::batched_energies`]). Bitwise identical per
    /// entry to the sequential path. The post-ansatz cache is neither
    /// consulted nor populated here — batch entries are fresh θ by
    /// construction (optimizer probes), so a lookup would only add misses.
    fn energy_batch(
        &mut self,
        ansatz: &Circuit,
        param_sets: &[Vec<f64>],
        observable: &PauliOp,
    ) -> Result<Vec<f64>> {
        if param_sets.len() < 2 {
            return param_sets
                .iter()
                .map(|p| self.energy(ansatz, p, observable))
                .collect();
        }
        check_widths(ansatz, observable)?;
        let energies = nwq_statevec::batch::batched_energies(ansatz, param_sets, observable)?;
        let n = param_sets.len() as u64;
        self.stats.evaluations += n;
        self.stats.ansatz_runs += n;
        self.stats.gates_applied += ansatz.len() as u64 * n;
        Ok(energies)
    }

    fn stats(&self) -> BackendStats {
        self.stats
    }

    fn name(&self) -> &'static str {
        "direct"
    }

    fn invalidate_cache(&mut self) {
        self.cache.invalidate();
    }
}

impl GradientBackend for DirectBackend {
    /// Adjoint differentiation over the compiled plan: |ψ⟩ forward once,
    /// φ = H|ψ⟩ once, then one backward inverse-replay accumulating every
    /// `∂E/∂θ_j` — about four statevector-evolution equivalents total
    /// ([`nwq_statevec::adjoint::energy_and_gradient`]). The dagger tape
    /// is derived once per circuit shape and cached process-wide alongside
    /// the forward template.
    fn energy_and_gradient(
        &mut self,
        ansatz: &Circuit,
        params: &[f64],
        observable: &PauliOp,
    ) -> Result<(f64, Vec<f64>)> {
        check_widths(ansatz, observable)?;
        let g = nwq_statevec::adjoint::energy_and_gradient(ansatz, params, observable)?;
        self.stats.evaluations += 1;
        self.stats.ansatz_runs += 1;
        self.stats.gates_applied += ansatz.len() as u64;
        Ok((g.energy, g.gradient))
    }

    fn as_backend(&mut self) -> &mut dyn Backend {
        self
    }
}

// ---------------------------------------------------------------------------

/// Traditional finite-shot estimation (the baseline of §4.2.1): caching
/// and grouping are still used, but each group is read out by sampling.
#[derive(Debug)]
pub struct SamplingBackend {
    shots_per_group: usize,
    rng: StdRng,
    stats: BackendStats,
}

impl SamplingBackend {
    /// A sampling backend with the given per-group shot budget and seed.
    pub fn new(shots_per_group: usize, seed: u64) -> Self {
        SamplingBackend {
            shots_per_group,
            rng: StdRng::seed_from_u64(seed),
            stats: BackendStats::default(),
        }
    }
}

impl Backend for SamplingBackend {
    fn energy(&mut self, ansatz: &Circuit, params: &[f64], observable: &PauliOp) -> Result<f64> {
        check_widths(ansatz, observable)?;
        let groups = group_qubit_wise(observable);
        let mut ex = Executor::new();
        let cached = ex.run(ansatz, params)?;
        let mut energy = 0.0;
        for g in &groups {
            let basis = nwq_circuit::basis::group_basis_circuit(ansatz.n_qubits(), g)?;
            let mut st = cached.clone();
            ex.run_on(&basis, &[], &mut st)?;
            // Diagonalize the strings for post-rotation readout.
            let diag = nwq_pauli::grouping::MeasurementGroup {
                terms: g
                    .terms
                    .iter()
                    .map(|&(c, s)| (c, nwq_circuit::basis::diagonalized(&s)))
                    .collect(),
                basis: g.basis.clone(),
            };
            energy += nwq_statevec::measure::sampled_group_energy(
                &st,
                &diag,
                self.shots_per_group,
                &mut self.rng,
            )?;
        }
        self.stats.evaluations += 1;
        self.stats.gates_applied += ex.stats().total_gates();
        self.stats.ansatz_runs += 1;
        Ok(energy)
    }

    fn stats(&self) -> BackendStats {
        self.stats
    }

    fn name(&self) -> &'static str {
        "sampling"
    }
}

// ---------------------------------------------------------------------------

/// Runs the ansatz on the sharded multi-rank engine, then reads the
/// energy out gather-free, shard by shard — an evaluation never holds the
/// `2^n` amplitudes in one allocation.
#[derive(Debug)]
pub struct DistributedBackend {
    n_ranks: usize,
    comm: nwq_dist::CommStats,
    stats: BackendStats,
}

impl DistributedBackend {
    /// A distributed backend over `n_ranks` simulated ranks.
    pub fn new(n_ranks: usize) -> Self {
        DistributedBackend {
            n_ranks,
            comm: Default::default(),
            stats: Default::default(),
        }
    }

    /// Accumulated simulated communication.
    pub fn comm_stats(&self) -> nwq_dist::CommStats {
        self.comm
    }
}

impl Backend for DistributedBackend {
    fn energy(&mut self, ansatz: &Circuit, params: &[f64], observable: &PauliOp) -> Result<f64> {
        check_widths(ansatz, observable)?;
        let state = nwq_dist::run_sharded(
            ansatz,
            params,
            self.n_ranks,
            &nwq_dist::ShardOptions::default(),
        )?;
        self.comm += state.comm_stats();
        self.stats.evaluations += 1;
        self.stats.ansatz_runs += 1;
        self.stats.gates_applied += ansatz.len() as u64;
        nwq_dist::distributed_energy(&state, observable)
    }

    fn stats(&self) -> BackendStats {
        self.stats
    }

    fn name(&self) -> &'static str {
        "distributed"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nwq_circuit::ParamExpr;

    /// Compile-time thread-safety audit: a worker pool moves backends into
    /// threads (`Send`) and shares immutable handles across them (`Sync`).
    /// Every concrete backend is plain owned data — if someone introduces
    /// an `Rc`/`RefCell`/raw pointer into a backend or its statevec
    /// internals, this stops compiling rather than failing at runtime.
    #[test]
    fn backends_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BackendStats>();
        assert_send_sync::<NonCachingBackend>();
        assert_send_sync::<CachedMeasureBackend>();
        assert_send_sync::<DirectBackend>();
        assert_send_sync::<SamplingBackend>();
        assert_send_sync::<DistributedBackend>();
        // DirectBackend internals, audited individually so a regression
        // names the offending type.
        assert_send_sync::<PostAnsatzCache>();
        assert_send_sync::<Executor>();
        assert_send_sync::<nwq_statevec::cache::CacheStats>();
        assert_send_sync::<nwq_statevec::stats::ExecStats>();
        // Workers share one ansatz, whose memoised shape fills lazily.
        assert_send_sync::<Circuit>();
        // The boxed trait-object path workers own must be movable.
        fn assert_send<T: Send + ?Sized>() {}
        assert_send::<BoxedBackend>();
        assert_send::<crate::resilience::FaultyBackend>();
    }

    fn toy() -> (Circuit, PauliOp) {
        let mut ansatz = Circuit::new(2);
        ansatz.ry(0, ParamExpr::var(0)).cx(0, 1);
        let h = PauliOp::parse("1.0 ZZ + 1.0 XX").unwrap();
        (ansatz, h)
    }

    #[test]
    fn all_backends_agree_on_exact_energy() {
        let (ansatz, h) = toy();
        let params = [0.7];
        let mut direct = DirectBackend::new();
        let reference = direct.energy(&ansatz, &params, &h).unwrap();
        let mut nc = NonCachingBackend::new();
        let mut cm = CachedMeasureBackend::new();
        let mut dist = DistributedBackend::new(1);
        for (name, e) in [
            ("non-caching", nc.energy(&ansatz, &params, &h).unwrap()),
            ("cached", cm.energy(&ansatz, &params, &h).unwrap()),
            ("distributed", dist.energy(&ansatz, &params, &h).unwrap()),
        ] {
            assert!((e - reference).abs() < 1e-10, "{name}: {e} vs {reference}");
        }
    }

    #[test]
    fn sampling_converges_to_direct() {
        let (ansatz, h) = toy();
        let params = [0.7];
        let mut direct = DirectBackend::new();
        let reference = direct.energy(&ansatz, &params, &h).unwrap();
        let mut sampling = SamplingBackend::new(400_000, 3);
        let e = sampling.energy(&ansatz, &params, &h).unwrap();
        assert!((e - reference).abs() < 0.02, "{e} vs {reference}");
    }

    #[test]
    fn gate_cost_ordering_matches_paper() {
        // non-caching ≥ cached-measure ≥ direct in gates per evaluation.
        let (ansatz, h) = toy();
        let params = [0.4];
        let mut nc = NonCachingBackend::new();
        let mut cm = CachedMeasureBackend::new();
        let mut d = DirectBackend::new();
        nc.energy(&ansatz, &params, &h).unwrap();
        cm.energy(&ansatz, &params, &h).unwrap();
        d.energy(&ansatz, &params, &h).unwrap();
        assert!(nc.stats().gates_applied >= cm.stats().gates_applied);
        assert!(cm.stats().gates_applied >= d.stats().gates_applied);
        // Direct applies exactly the ansatz, nothing else.
        assert_eq!(d.stats().gates_applied, ansatz.len() as u64);
    }

    #[test]
    fn energy_batch_is_bitwise_identical_to_sequential() {
        // The batched override must be indistinguishable (to the bit)
        // from evaluating each θ on a fresh backend, at every width.
        let (ansatz, h) = toy();
        for width in [2, 6, 8] {
            let sets: Vec<Vec<f64>> = (0..width).map(|k| vec![0.1 + 0.3 * k as f64]).collect();
            let mut d = DirectBackend::new();
            let batch = d.energy_batch(&ansatz, &sets, &h).unwrap();
            assert_eq!(batch.len(), width);
            assert_eq!(d.stats().evaluations, width as u64);
            for (p, &e) in sets.iter().zip(&batch) {
                let seq = DirectBackend::new().energy(&ansatz, p, &h).unwrap();
                assert_eq!(e.to_bits(), seq.to_bits());
            }
        }
    }

    #[test]
    fn direct_backend_caches_between_identical_calls() {
        let (ansatz, h) = toy();
        let mut d = DirectBackend::new();
        d.energy(&ansatz, &[0.4], &h).unwrap();
        d.energy(&ansatz, &[0.4], &h).unwrap(); // hit
        d.energy(&ansatz, &[0.5], &h).unwrap(); // miss
        assert_eq!(d.cache_stats().hits, 1);
        assert_eq!(d.cache_stats().misses, 2);
        assert_eq!(d.stats().ansatz_runs, 2);
    }

    #[test]
    fn direct_backend_executes_fused_plans() {
        // The seed baseline's gap: executor.fused_blocks == 0 across a VQE
        // run because symbolic ansätze never fused. The plan path must fuse;
        // backend-local stats keep this race-free under parallel tests.
        let (ansatz, h) = toy();
        let mut d = DirectBackend::new();
        d.energy(&ansatz, &[0.7], &h).unwrap();
        let ex = d.executor_stats();
        assert!(
            ex.fused_blocks > 0,
            "plan execution must report fused blocks"
        );
        // ry(0)·cx(0,1) fuses into one block: one 4-amplitude sweep beats
        // the two sweeps the unfused path would make.
        assert!(
            ex.amplitude_updates < ansatz.len() as u64 * 4,
            "fused plan must sweep fewer amplitudes than gate-by-gate"
        );
    }

    #[test]
    fn width_mismatch_rejected() {
        let (ansatz, _) = toy();
        let h3 = PauliOp::parse("1.0 ZZZ").unwrap();
        assert!(DirectBackend::new().energy(&ansatz, &[0.1], &h3).is_err());
    }

    #[test]
    fn distributed_backend_counts_comm() {
        let mut ansatz = Circuit::new(4);
        ansatz.h(3).cx(3, 0); // touches global qubits at 4 ranks
        let h = PauliOp::parse("1.0 ZIII").unwrap();
        let mut dist = DistributedBackend::new(4);
        dist.energy(&ansatz, &[], &h).unwrap();
        assert!(dist.comm_stats().messages > 0);
        assert_eq!(dist.stats().evaluations, 1);
    }
}
