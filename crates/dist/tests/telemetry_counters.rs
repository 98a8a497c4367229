//! Exact-count assertions on the process-global telemetry registry live in
//! their own test binary: while the registry is enabled every fault any
//! concurrently running test injects is counted too, so inside the crate's
//! unit-test binary this count was off by one every few dozen runs.

use nwq_dist::{FaultInjector, FaultSpec};

#[test]
fn telemetry_counts_injected_faults() {
    nwq_telemetry::reset();
    nwq_telemetry::set_enabled(true);
    let mut inj = FaultInjector::new(FaultSpec {
        nan_amplitude: 1.0,
        seed: 1,
        ..FaultSpec::default()
    });
    assert!(inj.should_inject_nan());
    assert!(inj.should_inject_nan());
    let injected = nwq_telemetry::counter_value("resilience.faults_injected");
    let by_class = nwq_telemetry::counter_value("resilience.faults.nan_amplitude");
    nwq_telemetry::set_enabled(false);
    assert_eq!(injected, 2);
    assert_eq!(by_class, 2);
}
