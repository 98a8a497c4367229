//! `ledger` — the repository's benchmark. See `README.md`.

mod backends;
mod compare;
mod host;
mod metrics;
mod openloop;
mod probe;
mod report;
mod rng;
mod span;
mod stats;
mod workloads;

use nwq_telemetry::{JsonValue, Object};
use std::collections::HashMap;
use std::process::ExitCode;
use workloads::RunCfg;

/// Measured window of `run` and `trace` when `--seconds` is not given:
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;

struct Args {
    positional: Vec<String>,
    flags: HashMap<String, String>,
}

impl Args {
    fn parse(argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            positional: Vec::new(),
            flags: HashMap::new(),
        };
        let mut argv = argv.peekable();
        while let Some(a) = argv.next() {
            match a.strip_prefix("--") {
                Some(key) => {
                    let value = argv
                        .next()
                        .ok_or_else(|| format!("--{key} needs a value"))?;
                    args.flags.insert(key.to_string(), value);
                }
                None => args.positional.push(a),
            }
        }
        Ok(args)
    }

    fn get<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.flags
            .get(key)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("bad value {v:?} for --{key}"))
            })
            .transpose()
    }

    fn require<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.get(key)?.ok_or_else(|| format!("missing --{key}"))
    }
}

/// The driver's entry point: one workload, one run, result on the last
/// line of standard output.
fn single_run(args: &Args) -> Result<(), String> {
    let workload: String = args.require("workload")?;
    let cfg = RunCfg {
        seed: args.require("seed")?,
        seconds: args.require("seconds")?,
        trace: match args.require::<u8>("trace")? {
            0 => false,
            1 => true,
            other => return Err(format!("--trace is 0 or 1, got {other}")),
        },
    };
    if cfg.seconds.is_nan() || cfg.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let out = workloads::run(&workload, cfg)?;
    for problem in &out.problems {
        eprintln!("ledger: {workload}: output check failed: {problem}");
    }
    let mut metrics = Object::new();
    for (name, value, unit) in out.metrics.rows(cfg.trace)? {
        println!("{workload} {name} {value} {unit}");
        let mut m = Object::new();
        m.push("value", JsonValue::Float(value));
        m.push("unit", JsonValue::Str(unit.into()));
        metrics.push(name, m.into_value());
    }
    let correct = out.failed == 0 && out.problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        out.failed,
        metrics.into_value().render()
    );
    Ok(())
}

fn dispatch(args: &Args) -> Result<ExitCode, String> {
    match args.positional.first().map(String::as_str) {
        None => single_run(args)?,
        Some(mode @ ("run" | "trace")) => report::suite(
            mode == "trace",
            args.get("seed")?.unwrap_or(1),
            args.get("seconds")?.unwrap_or(DEFAULT_SECONDS),
            &args.require::<String>("out")?,
        )?,
        Some("check") => report::check(args.get("seed")?.unwrap_or(1))?,
        Some("compare") => {
            let bench = args
                .get("bench")?
                .unwrap_or_else(|| "BENCHMARK.json".to_string());
            let base: String = args.require("base")?;
            let new: String = args.require("new")?;
            if compare::compare(&base, &new, &bench)? {
                return Ok(ExitCode::from(1));
            }
        }
        Some(other) => {
            return Err(format!(
                "unknown subcommand {other:?} (run | trace | check | compare, or --workload …)"
            ))
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match Args::parse(std::env::args().skip(1)).and_then(|args| dispatch(&args)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}
