//! Post-ansatz state caching (paper §4.1).
//!
//! VQE evaluates one Hamiltonian under many measurement bases per parameter
//! set. Without caching, every basis requires re-preparing `|ψ(θ)⟩ = U(θ)|0⟩`
//! — the dominant gate cost (paper Fig 3, upper curve). NWQ-Sim instead
//! simulates the ansatz once per θ and keeps the amplitudes resident,
//! reusing them for every subsequent basis change.

use crate::executor::Executor;
use crate::plan::ExecPlan;
use crate::state::StateVector;
use nwq_circuit::Circuit;
use nwq_common::Result;

/// Cache statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Reuses of an already-prepared state.
    pub hits: u64,
    /// Ansatz executions forced by a parameter change (or cold cache).
    pub misses: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0.0 on no lookups).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A single-slot cache of the most recent post-ansatz state, keyed by the
/// exact parameter vector.
#[derive(Debug)]
pub struct PostAnsatzCache {
    entry: Option<Entry>,
    stats: CacheStats,
    /// Scratch plan reused across misses: `PlanTemplate::bind_into`
    /// rewrites it with zero allocation once the op/factor lists have
    /// grown to the ansatz's size.
    plan_scratch: ExecPlan,
}

#[derive(Debug)]
struct Entry {
    /// Bit patterns of the parameters (exact match semantics, NaN-safe).
    key: Vec<u64>,
    state: StateVector,
}

fn key_of(params: &[f64]) -> Vec<u64> {
    // Bit-pattern keys keep NaN parameters cacheable (NaN != NaN under f64
    // comparison), but 0.0 and -0.0 compare equal while having different
    // bit patterns — an optimizer crossing zero from below would spuriously
    // miss. Normalize -0.0 to 0.0 before taking bits.
    params.iter().map(|p| (p + 0.0).to_bits()).collect()
}

impl Default for PostAnsatzCache {
    fn default() -> Self {
        Self::new()
    }
}

impl PostAnsatzCache {
    /// An empty cache.
    pub fn new() -> Self {
        PostAnsatzCache {
            entry: None,
            stats: CacheStats::default(),
            plan_scratch: ExecPlan::empty(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Drops the cached state.
    pub fn invalidate(&mut self) {
        self.entry = None;
    }

    /// Returns the post-ansatz state for `params`, preparing it on a miss:
    /// the ansatz's cached [`crate::PlanTemplate`] (built once per circuit
    /// structure by the global [`crate::plan_cache`]) is bound against
    /// `params` into a reusable scratch plan — no re-fusion, no allocation
    /// after the first miss — and run by `executor`. The returned
    /// reference stays valid until the next call with different
    /// parameters.
    pub fn get_or_prepare_plan(
        &mut self,
        ansatz: &Circuit,
        params: &[f64],
        executor: &mut Executor,
    ) -> Result<&StateVector> {
        let key = key_of(params);
        let hit = matches!(&self.entry, Some(e) if e.key == key);
        if hit {
            self.stats.hits += 1;
            nwq_telemetry::counter_add("cache.hits", 1);
        } else {
            self.stats.misses += 1;
            nwq_telemetry::counter_add("cache.misses", 1);
            let template = crate::plan_cache::template_for(ansatz)?;
            template.bind_into(params, &mut self.plan_scratch)?;
            let state = executor.run_plan(&self.plan_scratch)?;
            self.entry = Some(Entry { key, state });
        }
        Ok(&self.entry.as_ref().expect("entry was just ensured").state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nwq_circuit::ParamExpr;

    fn ansatz() -> Circuit {
        let mut c = Circuit::new(2);
        c.ry(0, ParamExpr::var(0)).cx(0, 1);
        c
    }

    #[test]
    fn hit_on_same_params_miss_on_new() {
        let a = ansatz();
        let mut cache = PostAnsatzCache::new();
        let mut ex = Executor::new();
        cache.get_or_prepare_plan(&a, &[0.3], &mut ex).unwrap();
        cache.get_or_prepare_plan(&a, &[0.3], &mut ex).unwrap();
        cache.get_or_prepare_plan(&a, &[0.4], &mut ex).unwrap();
        let s = cache.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        // Ansatz ran only on misses.
        assert_eq!(ex.stats().circuits_run, 2);
    }

    #[test]
    fn plan_prepare_matches_simulate_and_tracks_hit_rate() {
        let a = ansatz();
        let mut cache = PostAnsatzCache::new();
        let mut ex = Executor::new();
        assert_eq!(cache.stats().hit_rate(), 0.0);
        cache.get_or_prepare_plan(&a, &[0.3], &mut ex).unwrap();
        cache.get_or_prepare_plan(&a, &[0.3], &mut ex).unwrap();
        cache.get_or_prepare_plan(&a, &[0.7], &mut ex).unwrap();
        cache.get_or_prepare_plan(&a, &[0.7], &mut ex).unwrap();
        let s = cache.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 2);
        assert!((s.hit_rate() - 0.5).abs() < 1e-15);
        // The plan-prepared state matches gate-by-gate simulation.
        let via_plan = cache.get_or_prepare_plan(&a, &[0.7], &mut ex).unwrap();
        let via_gates = crate::simulate(&a, &[0.7]).unwrap();
        for (x, y) in via_plan.amplitudes().iter().zip(via_gates.amplitudes()) {
            assert!(x.approx_eq(*y, 1e-12));
        }
    }

    #[test]
    fn cached_state_is_correct() {
        let a = ansatz();
        let mut cache = PostAnsatzCache::new();
        let mut ex = Executor::new();
        let s = cache
            .get_or_prepare_plan(&a, &[std::f64::consts::PI], &mut ex)
            .unwrap();
        // RY(π)|0⟩ = |1⟩, CX -> |11⟩.
        assert!((s.probability(3) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn invalidate_forces_reprepare() {
        let a = ansatz();
        let mut cache = PostAnsatzCache::new();
        let mut ex = Executor::new();
        cache.get_or_prepare_plan(&a, &[0.2], &mut ex).unwrap();
        cache.invalidate();
        cache.get_or_prepare_plan(&a, &[0.2], &mut ex).unwrap();
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn nan_params_are_exact_keys() {
        // NaN != NaN under f64 comparison, but bit-pattern keys make the
        // same NaN hit the cache instead of looping on misses forever.
        let a = ansatz();
        let mut cache = PostAnsatzCache::new();
        let mut ex = Executor::new();
        cache.get_or_prepare_plan(&a, &[f64::NAN], &mut ex).unwrap();
        cache.get_or_prepare_plan(&a, &[f64::NAN], &mut ex).unwrap();
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn signed_zero_params_share_a_key() {
        // 0.0 == -0.0, so a parameter crossing zero from below must reuse
        // the cached state instead of missing on the sign bit.
        let a = ansatz();
        let mut cache = PostAnsatzCache::new();
        let mut ex = Executor::new();
        cache.get_or_prepare_plan(&a, &[0.0], &mut ex).unwrap();
        cache.get_or_prepare_plan(&a, &[-0.0], &mut ex).unwrap();
        cache.get_or_prepare_plan(&a, &[0.0], &mut ex).unwrap();
        let s = cache.stats();
        assert_eq!(s.hits, 2, "-0.0 must hit the 0.0 entry");
        assert_eq!(s.misses, 1);
        assert_eq!(ex.stats().circuits_run, 1);
    }

    #[test]
    fn signed_zero_mixed_with_nan_and_nonzero() {
        let a = ansatz();
        let mut cache = PostAnsatzCache::new();
        let mut ex = Executor::new();
        cache.get_or_prepare_plan(&a, &[-0.0], &mut ex).unwrap();
        cache.get_or_prepare_plan(&a, &[0.0], &mut ex).unwrap(); // hit
        cache.get_or_prepare_plan(&a, &[f64::NAN], &mut ex).unwrap(); // miss
        cache.get_or_prepare_plan(&a, &[f64::NAN], &mut ex).unwrap(); // hit
        cache.get_or_prepare_plan(&a, &[0.5], &mut ex).unwrap(); // miss
        let s = cache.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 3);
    }
}
