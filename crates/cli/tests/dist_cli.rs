//! `nwq dist` end to end: the sharded run's measured traffic equals its
//! plan, and a 22-qubit readout streams its diagonal phases instead of
//! building tables.

mod common;

use common::{assert_ok, nwq, stdout, TempPath};
use nwq_telemetry::JsonValue;

#[test]
fn dist_run_measures_the_planned_traffic() {
    let out = nwq(&["dist", "--qubits", "14", "--ranks", "4"]);
    // The command itself fails when measured and planned traffic differ.
    assert_ok(&out);
    let text = stdout(&out);
    let comm = text
        .lines()
        .find(|l| l.starts_with("comm"))
        .expect("a comm line");
    // "comm    : M messages, B bytes (planned M' / B')"
    let numbers: Vec<u64> = comm
        .split(|c: char| !c.is_ascii_digit())
        .filter_map(|t| t.parse().ok())
        .collect();
    assert_eq!(numbers.len(), 4, "{comm}");
    assert_eq!(numbers[..2], numbers[2..], "{comm}");
    assert!(numbers[0] > 0, "{comm}");
}

#[test]
fn readout_at_22_qubits_builds_no_phase_tables() {
    // One 22-qubit diagonal table would be 32 MiB against a 64 MiB state:
    // the prepared observable must keep streaming that phase.
    let metrics = TempPath::new("dist-metrics.json");
    let out = nwq(&[
        "dist",
        "--qubits",
        "22",
        "--ranks",
        "2",
        "--layers",
        "1",
        "--metrics",
        metrics.arg(),
    ]);
    assert_ok(&out);
    let doc = JsonValue::parse(&std::fs::read_to_string(&metrics.0).expect("metrics written"))
        .expect("metrics parse");
    let counters = doc.get("counters").expect("counters");
    for name in ["expval.table_bytes", "expval.tables_built"] {
        let n = counters
            .get(name)
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0);
        assert_eq!(n, 0.0, "{name}");
    }
}
