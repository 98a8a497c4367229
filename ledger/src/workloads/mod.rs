//! The five workloads. Each takes `--seed`, `--seconds` and `--trace` and
//! returns counted operations plus the metrics of its kind; `README.md`
//! records why each exists and what each metric means on it.

pub mod adapt_water10;
pub mod h2_scan_nm;
pub mod serve_mixed_open;
pub mod sharded_hea22;
pub mod water8_lbfgs_adjoint;

use crate::metrics::Metrics;
use crate::span::Tracer;
use crate::stats;
use std::time::Instant;

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: &[&str] = &[
    "h2_scan_nm",
    "water8_lbfgs_adjoint",
    "adapt_water10",
    "sharded_hea22",
    "serve_mixed_open",
];

/// One invocation's arguments.
#[derive(Clone, Copy, Debug)]
pub struct RunCfg {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// `false`: end-to-end metrics from the stock code paths, nothing
    /// wrapped. `true`: per-layer metrics from the decomposed, span-wrapped
    /// paths plus the probes.
    pub trace: bool,
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (geometry / solve / ADAPT run / sharded run /
    /// served job).
    pub attempted: u64,
    /// Operations that errored, were refused, or returned a wrong answer.
    pub failed: u64,
    /// Whole-run output checks that did not hold (plan ≠ measured traffic,
    /// traced ≠ untraced bits, …). Any entry makes the run incorrect.
    pub problems: Vec<String>,
    pub metrics: Metrics,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

pub fn run(name: &str, cfg: RunCfg) -> Result<Outcome, String> {
    match name {
        "h2_scan_nm" => h2_scan_nm::run(cfg),
        "water8_lbfgs_adjoint" => water8_lbfgs_adjoint::run(cfg),
        "adapt_water10" => adapt_water10::run(cfg),
        "sharded_hea22" => sharded_hea22::run(cfg),
        "serve_mixed_open" => serve_mixed_open::run(cfg),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {NAMES:?})"
        )),
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// A tracer that keeps the individual `plan.bind` durations (their
/// percentiles are reported).
fn new_tracer() -> Tracer {
    let mut tracer = Tracer::default();
    tracer.keep_samples(crate::span::Layer::PlanBind);
    tracer
}

/// Ends the set-up part of a run: returns the seconds per set-up of each
/// chemistry layer the set-up spanned (every set-up builds one ansatz or
/// pool, which counts the repetitions) and starts the tracer afresh, so
/// that set-up spans stay out of the traced wall.
fn take_setup_chem(tracer: &crate::backends::SharedTracer) -> Vec<(&'static str, f64)> {
    use crate::span::Layer::*;
    let done = std::mem::replace(&mut *tracer.borrow_mut(), new_tracer());
    let reps = done.layer(ChemAnsatz).count as f64;
    [
        ("chem.integrals_s", ChemIntegrals),
        ("chem.jw_s", ChemJw),
        ("chem.ansatz_build_s", ChemAnsatz),
        ("chem.exact_ref_s", ChemExactRef),
    ]
    .into_iter()
    .filter(|(_, layer)| done.layer(*layer).count > 0)
    .map(|(name, layer)| (name, done.layer(layer).total_s / reps))
    .collect()
}

/// Sets up several times and reports the median time, keeping the last
/// result: five repetitions, or three once 1.5 s have gone by. A single
/// set-up of a few milliseconds is mostly first-touch noise.
fn timed_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let began = Instant::now();
    let mut times = Vec::new();
    loop {
        let start = Instant::now();
        let built = setup()?;
        times.push(start.elapsed().as_secs_f64());
        if times.len() >= 5 || (times.len() >= 3 && began.elapsed().as_secs_f64() > 1.5) {
            return Ok((built, stats::median(&times)));
        }
    }
}

/// Calls `sample` (which returns its own duration in seconds) until the
/// next one would no longer fit in `seconds`; always at least once.
fn sample_for(
    seconds: f64,
    mut sample: impl FnMut() -> Result<f64, String>,
) -> Result<Vec<f64>, String> {
    let began = Instant::now();
    let mut times = Vec::new();
    loop {
        let t = sample()?;
        times.push(t);
        if began.elapsed().as_secs_f64() + t > seconds {
            return Ok(times);
        }
    }
}

/// The measured window. Untraced runs take `plain` samples only. Traced
/// runs take one `plain` sample, then two `traced`, and repeat, so that
/// the two kinds see the same drift of the host's clock speed and their
/// ratio is the tracing overhead. Returns `(plain, traced)` sample times.
fn interleave(
    cfg: RunCfg,
    mut plain: impl FnMut() -> Result<f64, String>,
    mut traced: impl FnMut() -> Result<f64, String>,
) -> Result<(Vec<f64>, Vec<f64>), String> {
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut turn = 0usize;
    sample_for(cfg.seconds, || {
        turn += 1;
        if !cfg.trace || turn % 3 == 1 {
            plain().inspect(|&t| plain_s.push(t))
        } else {
            traced().inspect(|&t| traced_s.push(t))
        }
    })?;
    Ok((plain_s, traced_s))
}

/// One timed sample of a batch workload (scan / solve / ADAPT run /
/// sharded run).
#[derive(Clone, Copy, Debug, Default)]
struct Sample {
    seconds: f64,
    /// Energy-evaluation equivalents.
    evals: f64,
    /// Operations completed, and those whose output check passed.
    ops: u64,
    ok_ops: u64,
    /// Computed amplitude updates (logical gates × 2ⁿ per circuit
    /// execution) and the seconds they took.
    amp_updates: f64,
    amp_seconds: f64,
}

/// The end-to-end metrics of a batch workload. Every rate is the median
/// over samples of that sample's own rate, so a burst of interference
/// that slows a few samples does not move it.
fn fill_batch(m: &mut Metrics, setup_s: f64, samples: &[Sample]) {
    let median_of =
        |f: fn(&Sample) -> f64| stats::median(&samples.iter().map(f).collect::<Vec<_>>());
    m.set("setup_s", setup_s);
    m.set("solve_s_p50", median_of(|s| s.seconds));
    m.set("evals_per_s", median_of(|s| s.evals / s.seconds));
    m.set(
        "amp_updates_per_s",
        median_of(|s| s.amp_updates / s.amp_seconds),
    );
    m.set("jobs_per_s", median_of(|s| s.ops as f64 / s.seconds));
    m.set("goodput_per_s", median_of(|s| s.ok_ops as f64 / s.seconds));
    m.set("peak_rss_mb", crate::host::peak_rss_mib());
}

/// Operation latencies: the median always, p95 when the rule allows.
fn fill_latency(m: &mut Metrics, lat_ms: &[f64]) {
    m.set("lat_p50_ms", stats::median(lat_ms));
    if let Some(p95) = stats::percentile(lat_ms, 95) {
        m.set("lat_p95_ms", p95);
    }
}

/// The per-layer metrics every traced run reports: probes, CPU split,
/// span coverage and tracing overhead.
struct TraceCommon<'a> {
    tracer: &'a Tracer,
    /// Sample times traced and untraced.
    traced_s: &'a [f64],
    plain_s: &'a [f64],
    /// CPU seconds `(user, system)` at the start of the measured window.
    cpu_before: (f64, f64),
}

/// CPU split since `cpu_before`, then the roofline probes. Returns
/// `probe.bw_gbs_64m`, the bandwidth the roofline fractions divide by.
fn fill_host(m: &mut Metrics, cpu_before: (f64, f64)) -> f64 {
    let (user, sys) = crate::host::cpu_times_s();
    let (user, sys) = (user - cpu_before.0, sys - cpu_before.1);
    m.set("proc.cpu_user_s", user);
    m.set(
        "proc.cpu_sys_frac",
        sys / (user + sys).max(f64::MIN_POSITIVE),
    );
    let (bw_1g, bw_64m, fma) = crate::probe::run_all();
    m.set("probe.bw_gbs_1g", bw_1g);
    m.set("probe.bw_gbs_64m", bw_64m);
    m.set("probe.fma_gflops", fma);
    bw_64m
}

impl TraceCommon<'_> {
    /// Returns `probe.bw_gbs_64m`.
    fn fill(&self, m: &mut Metrics) -> f64 {
        let traced_wall_s: f64 = self.traced_s.iter().sum();
        m.set(
            "trace.coverage_frac",
            self.tracer.covered_s() / traced_wall_s,
        );
        // Sample i of either kind has the same input, so the first k of
        // each are compared, k being the shorter count.
        let k = self.traced_s.len().min(self.plain_s.len());
        m.set(
            "trace.overhead_frac",
            stats::median(&self.traced_s[..k]) / stats::median(&self.plain_s[..k]) - 1.0,
        );
        fill_host(m, self.cpu_before)
    }
}

/// `32 B × updates ÷ seconds ÷ bandwidth`: computed bytes (one 16-byte
/// amplitude read and written per update) against the triad probe at the
/// 64 MiB footprint.
fn roofline_frac(amp_updates: f64, seconds: f64, bw_gbs: f64) -> f64 {
    if seconds > 0.0 && bw_gbs > 0.0 {
        32.0 * amp_updates / seconds / (bw_gbs * 1e9)
    } else {
        0.0
    }
}

/// Counts read off one traced sample. Counts (unlike times) repeat
/// exactly for a seed, so they are reported from the first traced sample
/// of a run rather than averaged over however many samples fitted.
#[derive(Clone, Copy, Debug, Default)]
struct SampleCounts {
    decomp: crate::backends::DecompCounts,
    amp_updates: u64,
    /// Energy-evaluation equivalents the driver reported.
    evals: u64,
    /// Backend calls (NM: energies; L-BFGS: gradients) or ADAPT growth
    /// iterations.
    iterations: u64,
    /// 1-based index of the first backend call whose energy is within
    /// 1 mHa of the reference (0: never).
    evals_to_accuracy: u64,
}

impl SampleCounts {
    fn absorb(&mut self, backend: &crate::backends::Timed<crate::backends::DecompBackend>) {
        let c = backend.inner.counts();
        let d = &mut self.decomp;
        d.templates_built += c.templates_built;
        d.template_cache_hits += c.template_cache_hits;
        d.state_cache_hits += c.state_cache_hits;
        d.state_cache_misses += c.state_cache_misses;
        d.plan_ops = c.plan_ops;
        d.plan_gates_in = c.plan_gates_in;
        d.grads += c.grads;
        d.adjoint_sweeps += c.adjoint_sweeps;
        d.adjoint_reductions += c.adjoint_reductions;
        d.adjoint_blocks += c.adjoint_blocks;
        self.amp_updates += backend.inner.amplitude_updates();
    }
}

/// 1-based index of the first energy within 1 mHa of `exact`, or 0.
fn evals_to_accuracy(energies: &[f64], exact: f64) -> u64 {
    energies
        .iter()
        .position(|e| e - exact <= 1e-3)
        .map_or(0, |i| i as u64 + 1)
}

/// The statevec / core / opt rows of a traced VQE-style workload. Times
/// are seconds per traced sample; counts come from the first sample.
struct VqeLayers<'a> {
    tracer: &'a Tracer,
    first: SampleCounts,
    /// Amplitude updates over all traced samples (pairs with the summed
    /// evolve time).
    amp_updates: u64,
    traced_samples: usize,
    n_qubits: usize,
    h_terms: usize,
    flip_groups: usize,
    ansatz_gates: usize,
    bw_64m_gbs: f64,
}

impl VqeLayers<'_> {
    fn fill(&self, m: &mut Metrics) {
        use crate::span::Layer::*;
        let n = self.traced_samples as f64;
        let per_sample = |layer| self.tracer.layer(layer).total_s / n;
        m.set("chem.integrals_s", per_sample(ChemIntegrals));
        m.set("chem.jw_s", per_sample(ChemJw));
        m.set("chem.ansatz_build_s", per_sample(ChemAnsatz));
        m.set("chem.exact_ref_s", per_sample(ChemExactRef));
        m.set("chem.h_terms", self.h_terms as f64);
        m.set("chem.ansatz_gates", self.ansatz_gates as f64);

        let c = self.first.decomp;
        m.set("plan.template_s", per_sample(PlanTemplate));
        m.set("plan.templates_built", c.templates_built as f64);
        m.set("plan.cache_hits", c.template_cache_hits as f64);
        m.set("plan.bind_s", per_sample(PlanBind));
        m.set("plan.binds", c.state_cache_misses as f64);
        let binds = &self.tracer.layer(PlanBind).samples;
        if !binds.is_empty() {
            m.set("plan.bind_us_p50", 1e6 * stats::median(binds));
        }
        if let Some(p99) = stats::percentile(binds, 99) {
            m.set("plan.bind_us_p99", 1e6 * p99);
        }
        if c.plan_gates_in > 0 {
            m.set(
                "plan.ops_per_gate",
                c.plan_ops as f64 / c.plan_gates_in as f64,
            );
        }
        let lookups = c.state_cache_hits + c.state_cache_misses;
        if lookups > 0 {
            m.set("cache.hit_rate", c.state_cache_hits as f64 / lookups as f64);
        }

        let evolve = self.tracer.layer(ExecEvolve);
        m.set("exec.evolve_s", evolve.total_s / n);
        m.set("exec.amp_updates", self.first.amp_updates as f64);
        if evolve.total_s > 0.0 {
            m.set(
                "exec.amp_updates_per_s",
                self.amp_updates as f64 / evolve.total_s,
            );
            m.set(
                "exec.roofline_frac",
                roofline_frac(self.amp_updates as f64, evolve.total_s, self.bw_64m_gbs),
            );
        }

        let expval = self.tracer.layer(ExpvalEnergy);
        m.set("expval.energy_s", expval.total_s / n);
        m.set("expval.terms", self.h_terms as f64);
        m.set("expval.flip_groups", self.flip_groups as f64);
        if expval.total_s > 0.0 {
            let term_amps = (self.h_terms << self.n_qubits) as f64 * expval.count as f64;
            m.set("expval.term_amps_per_s", term_amps / expval.total_s);
        }

        m.set("adjoint.grad_s", per_sample(AdjointGrad));
        m.set("adjoint.grads", c.grads as f64);
        if c.adjoint_blocks > 0 {
            m.set(
                "adjoint.evolution_equivalents",
                (c.adjoint_sweeps + c.adjoint_reductions) as f64 / c.adjoint_blocks as f64,
            );
        }

        // Driver span minus the backend spans inside it: run_vqe*/ADAPT
        // bookkeeping plus nwq-opt (and, for ADAPT, pool screening).
        m.set("core.driver_self_s", self.tracer.layer(Driver).self_s / n);
        m.set("opt.evals", self.first.evals as f64);
        m.set("opt.iterations", self.first.iterations as f64);
        m.set("opt.evals_to_accuracy", self.first.evals_to_accuracy as f64);
    }
}

/// `core.solve_s_p90`, when the percentile rule allows it.
fn fill_solve_p90(m: &mut Metrics, sample_s: &[f64]) {
    if let Some(p90) = stats::percentile(sample_s, 90) {
        m.set("core.solve_s_p90", p90);
    }
}
