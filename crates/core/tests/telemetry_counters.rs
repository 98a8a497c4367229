//! Tests that assert values of process-global telemetry counters.
//!
//! The registry is one per process, and any test can switch it on or off:
//! beside the crate's concurrent unit tests a counter read here could miss
//! its own increments (another test disabled the registry mid-window) or
//! include someone else's, which failed about once in 45 runs. These tests
//! live in their own test binary (nothing else runs in the process) and
//! take one lock (they cannot land in each other's window), so the counts
//! are exact.

use nwq_circuit::{Circuit, ParamExpr};
use nwq_core::backend::{Backend, DirectBackend};
use nwq_core::vqe::VqeProblem;
use nwq_pauli::PauliOp;
use std::sync::{Mutex, MutexGuard};

/// Enables a freshly reset registry for as long as the guard lives.
fn exclusive_telemetry() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    // A test that failed while holding it has already been reported.
    let guard = LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    nwq_telemetry::reset();
    nwq_telemetry::set_enabled(true);
    guard
}

fn toy_problem() -> VqeProblem {
    let mut ansatz = Circuit::new(2);
    ansatz
        .ry(0, ParamExpr::var(0))
        .cx(0, 1)
        .ry(1, ParamExpr::var(1));
    VqeProblem {
        hamiltonian: PauliOp::parse("1.0 ZZ + 1.0 XX").unwrap(),
        ansatz,
    }
}

#[test]
fn repeated_theta_hits_cache_and_is_visible_in_telemetry() {
    // BENCH_vqe.json once showed misses == evaluations with hits untested
    // and invisible; pin both the cache behaviour and the counters.
    let _telemetry = exclusive_telemetry();
    let p = toy_problem();
    let mut d = DirectBackend::new();
    let e1 = d.energy(&p.ansatz, &[0.25, 0.1], &p.hamiltonian).unwrap();
    let e2 = d.energy(&p.ansatz, &[0.25, 0.1], &p.hamiltonian).unwrap();
    let hits = nwq_telemetry::counter_value("cache.hits");
    let misses = nwq_telemetry::counter_value("cache.misses");
    nwq_telemetry::set_enabled(false);
    assert_eq!(
        e1.to_bits(),
        e2.to_bits(),
        "cache hit must reproduce the energy exactly"
    );
    assert_eq!((hits, misses), (1, 1), "repeated θ: one miss, then one hit");
    assert!((d.cache_stats().hit_rate() - 0.5).abs() < 1e-15);
    // The second evaluation did not re-run the ansatz.
    assert_eq!(d.stats().ansatz_runs, 1);
    assert_eq!(d.stats().evaluations, 2);
}
