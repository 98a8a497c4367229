//! Global LRU cache of [`PlanTemplate`]s keyed by circuit structure.
//!
//! Building a template (the structural fusion pass plus constant folding)
//! is the expensive half of plan compilation; binding θ is microseconds.
//! This cache makes [`crate::ExecPlan::compile`] amortize the build across
//! every evaluation of the same circuit shape — within one optimizer run,
//! across `PostAnsatzCache` invalidations, and across jobs on all
//! `nwq-serve` workers (the cache is process-global and thread-safe).
//!
//! Entries are keyed by the circuit's memoised [`Shape`]
//! ([`Circuit::shape`]): the exact structural encoding plus its
//! fingerprint, built once per circuit value and shared by its clones, so
//! a lookup constructs no key. It matches on `Arc` identity first — the
//! hot loop's circuit carries the very `Arc` the entry holds — and falls
//! back to fingerprint plus full-key equality for a separately built
//! circuit of equal content, so collisions cannot alias templates. A
//! content hit re-points the entry at the caller's `Arc`, making that
//! circuit's next lookup a pointer hit.
//!
//! Telemetry: `plan.cache.hits` / `plan.cache.misses` /
//! `plan.cache.evictions` counters, `plan.cache.shapes_derived` (circuit
//! shapes derived, by whichever caller is first, see `Circuit::shape`),
//! `plan.cache.key_compares` (full-key comparisons on the fallback path)
//! and the `plan.cache.size` gauge.

use crate::adjoint::AdjointTemplate;
use crate::plan::PlanTemplate;
use nwq_circuit::{Circuit, Shape};
use nwq_common::Result;
use parking_lot::Mutex;
use std::sync::Arc;

/// Maximum number of cached templates; least-recently-used beyond this.
pub const CAPACITY: usize = 64;

struct Entry {
    shape: Arc<Shape>,
    template: Arc<PlanTemplate>,
    /// Dagger/derivative metadata, derived lazily on the first gradient
    /// request for this shape and evicted together with the template.
    adjoint: Option<Arc<AdjointTemplate>>,
    last_used: u64,
}

struct Inner {
    entries: Vec<Entry>,
    tick: u64,
}

static CACHE: Mutex<Inner> = Mutex::new(Inner {
    entries: Vec::new(),
    tick: 0,
});

impl Inner {
    /// The entry for `shape`, marked most recently used: by pointer, else
    /// by content (adopting the caller's `Arc`).
    fn find(&mut self, shape: &Arc<Shape>) -> Option<&mut Entry> {
        self.tick += 1;
        let tick = self.tick;
        let idx = match self
            .entries
            .iter()
            .position(|e| Arc::ptr_eq(&e.shape, shape))
        {
            Some(idx) => idx,
            None => {
                let mut compares = 0;
                let idx = self.entries.iter().position(|e| {
                    e.shape.fingerprint() == shape.fingerprint() && {
                        compares += 1;
                        e.shape.key() == shape.key()
                    }
                });
                nwq_telemetry::counter_add("plan.cache.key_compares", compares);
                let idx = idx?;
                self.entries[idx].shape = shape.clone();
                idx
            }
        };
        let entry = &mut self.entries[idx];
        entry.last_used = tick;
        Some(entry)
    }
}

/// The cached `(template, adjoint)` pair for `shape`, if any.
fn lookup(shape: &Arc<Shape>) -> Option<(Arc<PlanTemplate>, Option<Arc<AdjointTemplate>>)> {
    let mut inner = CACHE.lock();
    let e = inner.find(shape)?;
    Some((e.template.clone(), e.adjoint.clone()))
}

fn insert(shape: &Arc<Shape>, template: Arc<PlanTemplate>) -> Arc<PlanTemplate> {
    let mut inner = CACHE.lock();
    // Another thread may have built the same template while we did; keep
    // the canonical copy so concurrent callers share one allocation.
    if let Some(e) = inner.find(shape) {
        return e.template.clone();
    }
    if inner.entries.len() >= CAPACITY {
        if let Some((idx, _)) = inner
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.last_used)
        {
            inner.entries.swap_remove(idx);
            nwq_telemetry::counter_add("plan.cache.evictions", 1);
        }
    }
    // The failed `find` above already advanced the clock.
    let last_used = inner.tick;
    inner.entries.push(Entry {
        shape: shape.clone(),
        template: template.clone(),
        adjoint: None,
        last_used,
    });
    nwq_telemetry::gauge_set("plan.cache.size", inner.entries.len() as f64);
    template
}

/// The template for `shape`, with its cached adjoint if one was derived.
fn entry_for(
    circuit: &Circuit,
    shape: &Arc<Shape>,
) -> Result<(Arc<PlanTemplate>, Option<Arc<AdjointTemplate>>)> {
    if let Some(hit) = lookup(shape) {
        nwq_telemetry::counter_add("plan.cache.hits", 1);
        return Ok(hit);
    }
    nwq_telemetry::counter_add("plan.cache.misses", 1);
    let template = Arc::new(PlanTemplate::build(circuit)?);
    Ok((insert(shape, template), None))
}

/// Returns the cached template for `circuit`'s structure, building and
/// inserting it on first sight. The build happens outside the cache lock;
/// losing a build race returns the canonical cached copy.
pub fn template_for(circuit: &Circuit) -> Result<Arc<PlanTemplate>> {
    Ok(entry_for(circuit, circuit.shape())?.0)
}

/// Returns the cached [`AdjointTemplate`] for `circuit`'s structure,
/// deriving it from the forward template on first request (one
/// `plan.dagger_compiled` bump per shape, not per gradient). One lookup
/// serves both templates. Losing a derive race returns the canonical
/// cached copy; an entry evicted between derive and store still yields a
/// valid template, it just isn't cached.
pub fn adjoint_for(circuit: &Circuit) -> Result<Arc<AdjointTemplate>> {
    let shape = circuit.shape();
    let (template, adjoint) = entry_for(circuit, shape)?;
    if let Some(adj) = adjoint {
        nwq_telemetry::counter_add("plan.cache.dagger_hits", 1);
        return Ok(adj);
    }
    // Derive outside the lock: there is no reason to serialize concurrent
    // gradient callers on it.
    let adjoint = Arc::new(AdjointTemplate::build(template));
    nwq_telemetry::counter_add("plan.dagger_compiled", 1);
    let mut inner = CACHE.lock();
    if let Some(e) = inner.find(shape) {
        if let Some(existing) = &e.adjoint {
            return Ok(existing.clone());
        }
        e.adjoint = Some(adjoint.clone());
    }
    Ok(adjoint)
}

/// Number of templates currently cached.
pub fn len() -> usize {
    CACHE.lock().entries.len()
}

/// Drops every cached template. Intended for tests that assert build
/// counts; safe at any time (outstanding `Arc`s stay valid).
pub fn clear() {
    CACHE.lock().entries.clear();
    nwq_telemetry::gauge_set("plan.cache.size", 0.0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use nwq_circuit::ParamExpr;

    fn param_circuit(angle_offset: f64) -> Circuit {
        let mut c = Circuit::new(2);
        c.ry(0, ParamExpr::var(0)).cx(0, 1).rz(1, angle_offset);
        c
    }

    #[test]
    fn same_structure_shares_one_template() {
        let a = template_for(&param_circuit(0.25)).unwrap();
        let b = template_for(&param_circuit(0.25)).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn pointer_hit_and_content_hit_return_the_same_template() {
        // An angle no other test uses, so this shape is this test's own.
        let c = param_circuit(0.3125);
        let first = template_for(&c).unwrap();
        // The entry holds the circuit's own shape `Arc`: a pointer hit.
        assert!(Arc::ptr_eq(&template_for(&c).unwrap(), &first));
        assert!(Arc::ptr_eq(&template_for(&c.clone()).unwrap(), &first));
        // A separately built equal circuit has an equal but distinct
        // shape: found by content, same template.
        let twin = param_circuit(0.3125);
        assert!(!Arc::ptr_eq(twin.shape(), c.shape()));
        assert!(Arc::ptr_eq(&template_for(&twin).unwrap(), &first));
        // The entry adopted the twin's shape, and still serves both.
        let inner = CACHE.lock();
        assert!(inner
            .entries
            .iter()
            .any(|e| Arc::ptr_eq(&e.shape, twin.shape())));
        drop(inner);
        assert!(Arc::ptr_eq(&template_for(&c).unwrap(), &first));
    }

    #[test]
    fn mutating_a_keyed_circuit_yields_its_new_template() {
        let mut c = param_circuit(0.4375);
        let before = template_for(&c).unwrap();
        c.h(0);
        let after = template_for(&c).unwrap();
        assert!(!Arc::ptr_eq(&before, &after));
        assert_eq!(after.bind(&[0.1]).unwrap().stats().gates_in, 4);
    }

    #[test]
    fn different_const_angles_are_different_structures() {
        // Constant angles fold into template matrices, so they are part
        // of the structure.
        let a = template_for(&param_circuit(0.25)).unwrap();
        let b = template_for(&param_circuit(0.75)).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn capacity_bounds_cache_size() {
        for i in 0..(CAPACITY + 8) {
            let mut c = Circuit::new(8);
            // Distinct structures: vary the target qubit.
            c.h(i % 8).rz((i / 8) % 8, 0.1 + i as f64);
            template_for(&c).unwrap();
        }
        assert!(len() <= CAPACITY);
    }

    #[test]
    fn clear_resets_and_rebuild_matches_bitwise() {
        let c = param_circuit(0.5);
        let before = template_for(&c).unwrap().bind(&[0.3]).unwrap();
        clear();
        let after = template_for(&c).unwrap().bind(&[0.3]).unwrap();
        assert_eq!(before.ops().len(), after.ops().len());
        for (x, y) in before.factors().iter().zip(after.factors()) {
            assert_eq!(x, y);
        }
    }
}
