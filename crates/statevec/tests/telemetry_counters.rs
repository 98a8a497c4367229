//! Tests that assert exact values of process-global telemetry counters.
//!
//! The registry is one per process and every kernel and readout in the
//! crate emits into it while it is enabled, so an exact count is only
//! meaningful when nothing else runs in the process: these tests live in
//! their own test binary (no other test's evaluations can land in the
//! enabled window) and take one lock (they cannot land in each other's).

use nwq_circuit::{Circuit, ParamExpr};
use nwq_pauli::PauliOp;
use nwq_statevec::expval::energy_direct_batched;
use nwq_statevec::{plan_cache, Executor, NormGuard, StateVector};
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

#[test]
fn norm_guard_amortizes_over_interval() {
    let _telemetry = exclusive_telemetry();
    let mut c = Circuit::new(1);
    c.h(0);
    let guard = NormGuard {
        enabled: true,
        tolerance: 1e-6,
        check_interval: 4,
    };
    let mut ex = Executor::with_guard(guard);
    let mut st = StateVector::zero(1);
    for _ in 0..8 {
        ex.run_on(&c, &[], &mut st).unwrap();
    }
    let checks = nwq_telemetry::counter_value("resilience.norm_checks");
    nwq_telemetry::set_enabled(false);
    assert_eq!(checks, 2, "8 runs at interval 4 → 2 checks");
}

#[test]
fn template_lookups_key_each_circuit_once_and_hit_by_pointer() {
    let _telemetry = exclusive_telemetry();
    let build = || {
        let mut c = Circuit::new(3);
        c.ry(0, ParamExpr::var(0)).cx(0, 1).rzz(1, 2, 0.6180339);
        c
    };
    let c = build();
    for _ in 0..5 {
        plan_cache::template_for(&c).unwrap();
    }
    plan_cache::adjoint_for(&c.clone()).unwrap();
    let count = nwq_telemetry::counter_value;
    let one_circuit = (
        count("plan.cache.shapes_derived"),
        count("plan.cache.key_compares"),
    );
    // A separately built equal circuit keys itself once and is found by
    // one full-key comparison; from then on it hits by pointer too.
    let twin = build();
    for _ in 0..3 {
        plan_cache::template_for(&twin).unwrap();
    }
    let with_twin = (
        count("plan.cache.shapes_derived"),
        count("plan.cache.key_compares"),
    );
    nwq_telemetry::set_enabled(false);
    assert_eq!(one_circuit, (1, 0));
    assert_eq!(with_twin, (2, 1));
}

#[test]
fn batched_direct_counts_sweeps_per_call_and_tables_per_operator() {
    let _telemetry = exclusive_telemetry();
    // ZZ, ZI, IZ, II share flip-mask 0; XX has its own: each evaluation
    // makes 2 group sweeps where per-term would make 5. The operator is
    // prepared by the first evaluation and never again — not by the
    // second, not through a clone.
    let h = PauliOp::parse("0.7 ZZ + 0.2 ZI + 0.1 IZ + 0.05 II + 1.0 XX").unwrap();
    let mut c = Circuit::new(2);
    c.ry(0, 0.8).cx(0, 1).rz(1, 0.1);
    let s = nwq_statevec::simulate(&c, &[]).unwrap();
    let first = energy_direct_batched(&s, &h).unwrap();
    let again = energy_direct_batched(&s, &h.clone()).unwrap();
    let count = nwq_telemetry::counter_value;
    let sweeps = (
        count("expval.term_sweeps"),
        count("expval.batched_sweeps"),
        count("expval.sweeps_saved"),
    );
    let tables = (
        count("expval.tables_built"),
        count("expval.table_bytes"),
        count("expval.table_folds"),
    );
    nwq_telemetry::set_enabled(false);
    assert_eq!(first.to_bits(), again.to_bits());
    assert_eq!(sweeps, (2 * 5, 2 * 2, 2 * 3));
    // A full diagonal table of 4 entries and a half table of 2.
    assert_eq!(tables, (1, (4 + 2) * 8, 2 * 2));
}

#[test]
fn tables_are_counted_by_whichever_caller_prepares_first() {
    // H·ψ prepares the operator before any readout does; the one build
    // is still counted, and the readout after it builds nothing.
    let _telemetry = exclusive_telemetry();
    let h = PauliOp::parse("0.7 ZZ + 0.2 ZI + 0.1 IZ + 0.05 II + 1.0 XX").unwrap();
    let mut c = Circuit::new(2);
    c.ry(0, 0.8).cx(0, 1).rz(1, 0.1);
    let s = nwq_statevec::simulate(&c, &[]).unwrap();
    nwq_pauli::apply::apply_op(&h, s.amplitudes()).unwrap();
    let after_apply = nwq_telemetry::counter_value("expval.tables_built");
    energy_direct_batched(&s, &h).unwrap();
    let count = nwq_telemetry::counter_value;
    let tables = (count("expval.tables_built"), count("expval.table_bytes"));
    nwq_telemetry::set_enabled(false);
    assert_eq!(after_apply, 1);
    assert_eq!(tables, (1, (4 + 2) * 8));
}

#[test]
fn dispatch_rule_is_pinned_by_sweep_counts() {
    // The floor as a count, not a clock: a sweep over PAR_MIN_AMPS
    // amplitudes is split iff the pool can run parts concurrently, one
    // amplitude fewer never is.
    use nwq_common::{mat::mat_h, PAR_MIN_AMPS};
    use nwq_statevec::kernels::{apply_mat2, parallel_dispatch_enabled};
    let _telemetry = exclusive_telemetry();
    let count = nwq_telemetry::counter_value;
    let mut at_floor = vec![nwq_common::C64::real(1.0); PAR_MIN_AMPS];
    apply_mat2(&mut at_floor, 3, &mat_h());
    let floor_sweeps = (count("kernels.par_sweeps"), count("kernels.serial_sweeps"));
    nwq_telemetry::reset();
    nwq_telemetry::set_enabled(true);
    let mut below = vec![nwq_common::C64::real(1.0); PAR_MIN_AMPS / 2];
    apply_mat2(&mut below, 3, &mat_h());
    let below_sweeps = (count("kernels.par_sweeps"), count("kernels.serial_sweeps"));
    nwq_telemetry::set_enabled(false);
    let split = u64::from(parallel_dispatch_enabled());
    assert_eq!(floor_sweeps, (split, 1 - split));
    assert_eq!(below_sweeps, (0, 1));
}

#[test]
fn adjoint_applies_h_once_per_flip_group() {
    // |φ⟩ = H|ψ⟩ makes one pass per flip group: ZZ, ZI and IZ share the
    // diagonal mask, XX and YY another — 2 passes for 5 terms, per run.
    let _telemetry = exclusive_telemetry();
    let h = PauliOp::parse("0.7 ZZ + 0.2 ZI + 0.1 IZ + 1.0 XX + 0.4 YY").unwrap();
    let mut c = Circuit::new(2);
    c.ry(0, ParamExpr::var(0)).cx(0, 1).rz(1, ParamExpr::var(1));
    for theta in [[0.3, -0.2], [0.9, 0.4], [-1.1, 0.05]] {
        nwq_statevec::adjoint::energy_and_gradient(&c, &theta, &h).unwrap();
    }
    let count = nwq_telemetry::counter_value;
    let (runs, passes) = (count("grad.adjoint_runs"), count("grad.adjoint_h_passes"));
    nwq_telemetry::set_enabled(false);
    assert_eq!((runs, passes), (3, 3 * 2));
}
