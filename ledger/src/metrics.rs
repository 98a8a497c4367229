//! The metric names and units the ledger emits — the same lists
//! `BENCHMARK.json` declares (a unit test pins the two together).
//!
//! Every run prints every metric of its kind: the driver requires it. A
//! per-layer metric that does not exist on a workload (a `dist.*` time on
//! the H2 scan) reads 0 there.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by `--trace 0`. Each is defined on every
/// workload and is never 0; `README.md` gives the per-workload meaning.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("solve_s_p50", "s"),
    ("evals_per_s", "1/s"),
    ("amp_updates_per_s", "1/s"),
    ("jobs_per_s", "1/s"),
    ("goodput_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Issue-level end-to-end names that cannot carry a proportional bound
    // on every workload (see README.md, "Demoted metrics").
    ("fail_frac", "ratio"),
    ("lat_p50_ms", "ms"),
    ("lat_p95_ms", "ms"),
    ("max_ok_rate", "jobs/s"),
    // chem / pauli
    ("chem.integrals_s", "s"),
    ("chem.jw_s", "s"),
    ("chem.h_terms", "count"),
    ("chem.ansatz_build_s", "s"),
    ("chem.ansatz_gates", "count"),
    ("chem.pool_grad_s", "s"),
    ("chem.exact_ref_s", "s"),
    // statevec.plan
    ("plan.template_s", "s"),
    ("plan.templates_built", "count"),
    ("plan.bind_s", "s"),
    ("plan.binds", "count"),
    ("plan.bind_us_p50", "us"),
    ("plan.bind_us_p99", "us"),
    ("plan.ops_per_gate", "ratio"),
    ("plan.cache_hits", "count"),
    // statevec.executor
    ("exec.evolve_s", "s"),
    ("exec.amp_updates", "count"),
    ("exec.amp_updates_per_s", "1/s"),
    ("exec.roofline_frac", "ratio"),
    // statevec.expval
    ("expval.energy_s", "s"),
    ("expval.terms", "count"),
    ("expval.flip_groups", "count"),
    ("expval.term_amps_per_s", "1/s"),
    // statevec.adjoint
    ("adjoint.grad_s", "s"),
    ("adjoint.grads", "count"),
    ("adjoint.evolution_equivalents", "ratio"),
    ("adjoint.bind_s", "s"),
    // statevec.walkers / statevec.cache
    ("walkers.batch8_evals_per_s", "1/s"),
    ("walkers.seq8_evals_per_s", "1/s"),
    ("cache.hit_rate", "ratio"),
    // core + opt
    ("core.driver_self_s", "s"),
    ("opt.evals", "count"),
    ("opt.iterations", "count"),
    ("opt.evals_to_accuracy", "count"),
    ("core.energy_err_ha", "Ha"),
    ("core.solve_s_p90", "s"),
    // dist
    ("dist.run_s_r1", "s"),
    ("dist.run_s_r2", "s"),
    ("dist.energy_s", "s"),
    ("dist.scaling_eff_r2", "ratio"),
    ("dist.nonoverlap_s", "s"),
    ("dist.messages", "count"),
    ("dist.bytes", "bytes"),
    ("dist.bytes_vs_naive", "ratio"),
    ("dist.exchanges_elided", "count"),
    ("dist.plan_matches_measured", "count"),
    ("dist.roofline_frac", "ratio"),
    ("dist.model_over_measured", "ratio"),
    ("dist.snapshot_overhead_frac", "ratio"),
    ("dist.r4_messages", "count"),
    ("dist.r4_bytes", "bytes"),
    // serve
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p95", "ms"),
    ("serve.service_ms_p50", "ms"),
    ("serve.transport_ms_p50", "ms"),
    ("serve.lat_p99_ms_r500", "ms"),
    ("serve.lat_p99_ms_r1500", "ms"),
    ("serve.lat_p99_ms_r3000", "ms"),
    ("serve.batch_size_mean", "count"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.rejected_frac", "ratio"),
    ("serve.backlog_end", "count"),
    ("serve.protocol_us", "us"),
    ("serve.gen_late_ms_p99", "ms"),
    // process / host
    ("proc.cpu_user_s", "s"),
    ("proc.cpu_sys_frac", "ratio"),
    ("trace.coverage_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("probe.bw_gbs_1g", "GB/s"),
    ("probe.bw_gbs_64m", "GB/s"),
    ("probe.fma_gflops", "GFLOP/s"),
    // paper ladder (§4.1 / §4.2), water8
    ("ablation.noncaching_evals_per_s", "1/s"),
    ("ablation.cached_evals_per_s", "1/s"),
    ("ablation.direct_evals_per_s", "1/s"),
    ("ablation.direct_scalar_evals_per_s", "1/s"),
];

/// Metric values of one run, keyed by name.
#[derive(Clone, Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `value` under `name`, which must be a declared metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// `(name, value, unit)` for every metric of `kind`, in declaration
    /// order. A missing per-layer value reads 0; a missing end-to-end
    /// value is an error (each must exist on every workload).
    pub fn rows(&self, trace: bool) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
        let table = if trace { PER_LAYER } else { END_TO_END };
        table
            .iter()
            .map(|&(name, unit)| match self.get(name) {
                Some(v) if v.is_finite() => Ok((name, v, unit)),
                Some(v) => Err(format!("metric {name} is not finite ({v})")),
                None if trace => Ok((name, 0.0, unit)),
                None => Err(format!("end-to-end metric {name} was not measured")),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nwq_telemetry::JsonValue;

    /// `BENCHMARK.json` and the tables above must name the same metrics
    /// with the same units, in the same order.
    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let bench = JsonValue::parse(include_str!("../../BENCHMARK.json")).unwrap();
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String)> = bench
                .get(key)
                .and_then(JsonValue::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, ours, "{key}");
        }
        let workloads: Vec<&str> = bench
            .get("workloads")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(JsonValue::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }

    #[test]
    fn missing_layer_metric_reads_zero_but_missing_end_to_end_is_an_error() {
        let mut m = Metrics::default();
        m.set("plan.binds", 7.0);
        let rows = m.rows(true).unwrap();
        assert_eq!(rows.len(), PER_LAYER.len());
        assert!(rows.contains(&("plan.binds", 7.0, "count")));
        assert!(rows.contains(&("dist.bytes", 0.0, "bytes")));
        assert!(m.rows(false).unwrap_err().contains("setup_s"));
    }
}
