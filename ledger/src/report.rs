//! Whole-suite runs (`run`, `trace`, `check`) and the files they write.
//!
//! Each workload runs in a fresh child process — the same invocation the
//! benchmark driver makes — so peak RSS, the global plan cache and the
//! thread pools of one workload never leak into the next.

use crate::workloads::NAMES;
use nwq_telemetry::{JsonValue, Object};
use std::process::{Command, Stdio};

pub const SCHEMA: &str = "ledger/1";

/// Runs one workload in a child process, echoes its metric lines, and
/// returns the result object from its last line.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<JsonValue, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting {workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!("{workload} exited with {}", output.status));
    }
    let stdout = String::from_utf8(output.stdout).map_err(|e| e.to_string())?;
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines
        .pop()
        .ok_or_else(|| format!("{workload} printed nothing"))?;
    for line in lines {
        println!("{line}");
    }
    JsonValue::parse(last).map_err(|e| format!("{workload}: unreadable result line: {e}"))
}

fn is_correct(result: &JsonValue) -> bool {
    result.get("correct").and_then(JsonValue::as_u64) == Some(1)
}

/// `ledger run` / `ledger trace`: every workload once, one JSON file.
pub fn suite(trace: bool, seed: u64, seconds: f64, out: &str) -> Result<(), String> {
    let mut workloads = Object::new();
    let mut incorrect = Vec::new();
    for name in NAMES {
        let result = child(name, seed, seconds, trace)?;
        if !is_correct(&result) {
            incorrect.push(*name);
        }
        workloads.push(*name, result);
    }
    let mut file = Object::new();
    file.push("schema", JsonValue::Str(SCHEMA.into()));
    file.push(
        "mode",
        JsonValue::Str(if trace { "trace" } else { "run" }.into()),
    );
    file.push("seed", JsonValue::Int(seed));
    file.push("seconds", JsonValue::Float(seconds));
    file.push("claim", JsonValue::Null);
    file.push("host", crate::host::fingerprint());
    file.push("workloads", workloads.into_value());
    std::fs::write(out, file.into_value().render() + "\n")
        .map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote {out}");
    if incorrect.is_empty() {
        Ok(())
    } else {
        Err(format!("output checks failed on {incorrect:?}"))
    }
}

/// `ledger check`: every workload with a one-second window — a few
/// samples each, every output check — for use as a smoke test.
pub fn check(seed: u64) -> Result<(), String> {
    for name in NAMES {
        let result = child(name, seed, 1.0, false)?;
        let count = |k| result.get(k).and_then(JsonValue::as_u64).unwrap_or(0);
        println!(
            "check {name}: {} attempted, {} failed",
            count("attempted"),
            count("failed")
        );
        if !is_correct(&result) {
            return Err(format!("{name}: output checks failed"));
        }
    }
    Ok(())
}

/// One metric value of a run file.
#[derive(Debug, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub value: f64,
}

/// Parses a file written by [`suite`]: the document and its metric rows.
pub fn read_run(path: &str) -> Result<(JsonValue, Vec<Row>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let file = JsonValue::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if file.get("schema").and_then(JsonValue::as_str) != Some(SCHEMA) {
        return Err(format!("{path}: not a {SCHEMA} file"));
    }
    let mut rows = Vec::new();
    let workloads = file
        .get("workloads")
        .and_then(JsonValue::as_object)
        .ok_or_else(|| format!("{path}: no workloads"))?;
    for (workload, result) in workloads {
        let metrics = result
            .get("metrics")
            .and_then(JsonValue::as_object)
            .ok_or_else(|| format!("{path}: {workload} has no metrics"))?;
        for (metric, m) in metrics {
            let value = m
                .get("value")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("{path}: {workload}.{metric} has no value"))?;
            rows.push(Row {
                workload: workload.clone(),
                metric: metric.clone(),
                value,
            });
        }
    }
    Ok((file, rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_file_round_trips_through_the_json_layer() {
        // What `suite` writes is what `read_run` reads, every digit.
        let mut m = Object::new();
        for (name, value, unit) in [
            ("solve_s_p50", 0.18796462549999998, "s"),
            ("jobs_per_s", 536.065121743549, "1/s"),
        ] {
            let mut o = Object::new();
            o.push("value", JsonValue::Float(value));
            o.push("unit", JsonValue::Str(unit.into()));
            m.push(name, o.into_value());
        }
        let mut result = Object::new();
        result.push("correct", JsonValue::Int(1));
        result.push("metrics", m.into_value());
        let mut workloads = Object::new();
        workloads.push("h2_scan_nm", result.into_value());
        let mut file = Object::new();
        file.push("schema", JsonValue::Str(SCHEMA.into()));
        file.push("claim", JsonValue::Null);
        file.push("host", crate::host::fingerprint());
        file.push("workloads", workloads.into_value());

        let path =
            std::env::temp_dir().join(format!("ledger-roundtrip-{}.json", std::process::id()));
        let path = path.to_str().unwrap();
        std::fs::write(path, file.into_value().render()).unwrap();
        let (read, rows) = read_run(path).unwrap();
        std::fs::remove_file(path).unwrap();
        let row = |metric: &str, value| Row {
            workload: "h2_scan_nm".into(),
            metric: metric.into(),
            value,
        };
        assert_eq!(
            rows,
            vec![
                row("solve_s_p50", 0.18796462549999998),
                row("jobs_per_s", 536.065121743549)
            ]
        );
        assert!(matches!(read.get("claim"), Some(JsonValue::Null)));
        assert!(read.get("host").and_then(|h| h.get("nproc")).is_some());
        // The driver's result line parses with the same reader.
        let line = r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {}}"#;
        assert!(is_correct(&JsonValue::parse(line).unwrap()));
    }
}
