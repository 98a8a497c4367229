//! `ledger compare`: two sets of run files, one verdict per (workload,
//! end-to-end metric) against the bound `BENCHMARK.json` fixes.

use crate::report::read_run;
use crate::stats::quartiles;
use nwq_telemetry::JsonValue;
use std::collections::BTreeMap;

/// Per-layer counts that must repeat exactly between runs of one seed.
const EXACT_REPEAT: &[&str] = &[
    "opt.evals",
    "dist.bytes",
    "dist.messages",
    "adjoint.evolution_equivalents",
    "plan.templates_built",
];

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The spread between one side's own runs exceeds the bound, so the
    /// two medians cannot be told apart at that resolution.
    Unresolved,
}

struct Rule {
    lower_is_better: bool,
    bound: f64,
}

/// `(q1, median, q3)`; a single value stands for all three.
fn summary(values: &[f64]) -> (f64, f64, f64) {
    match values {
        [one] => (*one, *one, *one),
        _ => quartiles(values),
    }
}

/// Verdict on `new` against `base` under `rule`; also returns the share
/// by which the new median is worse (negative: better).
fn judge(base: &[f64], new: &[f64], rule: &Rule) -> (Verdict, f64) {
    let (b1, b2, b3) = summary(base);
    let (n1, n2, n3) = summary(new);
    let worse_by = if rule.lower_is_better {
        n2 / b2 - 1.0
    } else {
        1.0 - n2 / b2
    };
    let spread = ((b3 - b1) / b2).abs().max(((n3 - n1) / n2).abs());
    let verdict = if spread > rule.bound {
        Verdict::Unresolved
    } else if worse_by > rule.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (verdict, worse_by)
}

fn rules(bench: &JsonValue) -> Result<BTreeMap<String, Rule>, String> {
    let list = bench
        .get("end_to_end")
        .and_then(JsonValue::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let text = |k| {
                m.get(k)
                    .and_then(JsonValue::as_str)
                    .ok_or(format!("metric without {k}"))
            };
            let bound = m
                .get("bound")
                .and_then(JsonValue::as_f64)
                .ok_or("metric without bound")?;
            Ok((
                text("name")?.to_string(),
                Rule {
                    lower_is_better: text("better")? == "lower",
                    bound,
                },
            ))
        })
        .collect()
}

type Side = BTreeMap<(String, String), Vec<f64>>;

fn load(paths: &str) -> Result<(Side, Vec<u64>), String> {
    let mut side = Side::new();
    let mut seeds = Vec::new();
    for path in paths.split(',').filter(|p| !p.is_empty()) {
        let (file, rows) = read_run(path)?;
        seeds.extend(file.get("seed").and_then(JsonValue::as_u64));
        for row in rows {
            side.entry((row.workload, row.metric))
                .or_default()
                .push(row.value);
        }
    }
    if side.is_empty() {
        return Err("no run files given".into());
    }
    Ok((side, seeds))
}

/// Prints one row per pair present on both sides; `Ok(true)` when any
/// end-to-end metric is worse or an exact-repeat count differs.
pub fn compare(base_paths: &str, new_paths: &str, bench_path: &str) -> Result<bool, String> {
    let bench_text =
        std::fs::read_to_string(bench_path).map_err(|e| format!("reading {bench_path}: {e}"))?;
    let rules = rules(&JsonValue::parse(&bench_text).map_err(|e| format!("{bench_path}: {e}"))?)?;
    let (base, mut seeds) = load(base_paths)?;
    let (new, new_seeds) = load(new_paths)?;
    seeds.extend(new_seeds);
    let one_seed = seeds.windows(2).all(|w| w[0] == w[1]);

    println!("workload metric base_median [q1 q3] new_median [q1 q3] new/base verdict");
    let mut any_worse = false;
    for ((workload, metric), base_values) in &base {
        let Some(new_values) = new.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let (b1, b2, b3) = summary(base_values);
        let (n1, n2, n3) = summary(new_values);
        let verdict = if let Some(rule) = rules.get(metric) {
            let (verdict, worse_by) = judge(base_values, new_values, rule);
            any_worse |= verdict == Verdict::Worse;
            format!(
                "{} (worse by {:+.1}%, bound {:.0}%)",
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                },
                100.0 * worse_by,
                100.0 * rule.bound
            )
        } else if one_seed && EXACT_REPEAT.contains(&metric.as_str()) {
            let first = base_values[0];
            if base_values
                .iter()
                .chain(new_values)
                .all(|v| v.to_bits() == first.to_bits())
            {
                "repeats".to_string()
            } else {
                any_worse = true;
                "differs".to_string()
            }
        } else {
            "-".to_string()
        };
        println!(
            "{workload} {metric} {b2} [{b1} {b3}] {n2} [{n1} {n3}] {:.4} {verdict}",
            n2 / b2
        );
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let lower = Rule {
            lower_is_better: true,
            bound: 0.10,
        };
        let higher = Rule {
            lower_is_better: false,
            bound: 0.10,
        };
        let base = [1.00, 1.01, 0.99];
        assert_eq!(judge(&base, &[1.05, 1.06, 1.04], &lower).0, Verdict::Ok);
        assert_eq!(judge(&base, &[1.20, 1.21, 1.19], &lower).0, Verdict::Worse);
        // Faster is never worse; slower throughput is.
        assert_eq!(judge(&base, &[0.50, 0.51, 0.49], &lower).0, Verdict::Ok);
        assert_eq!(judge(&base, &[0.80, 0.81, 0.79], &higher).0, Verdict::Worse);
        assert_eq!(judge(&base, &[1.30, 1.31, 1.29], &higher).0, Verdict::Ok);
        // A side whose own runs spread wider than the bound resolves nothing.
        assert_eq!(
            judge(&base, &[1.0, 1.4, 0.8], &lower).0,
            Verdict::Unresolved
        );
        let (_, worse_by) = judge(&[2.0], &[2.5], &lower);
        assert!((worse_by - 0.25).abs() < 1e-12);
    }
}
