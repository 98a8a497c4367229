//! Process-wide telemetry: hierarchical span timers, atomic counters, and
//! per-iteration optimizer records, exported as a stable JSON document.
//!
//! The registry is a process-wide singleton that is **disabled by default**:
//! every recording call starts with one relaxed atomic load and a branch, so
//! instrumented hot paths (per-gate counters in the statevector kernels) are
//! effectively free unless a sink is installed with [`set_enabled`].
//!
//! Layout of the exported document (see [`Snapshot::to_json`]):
//!
//! ```json
//! {
//!   "run": { "command": "vqe", "molecule": "h2", ... },
//!   "spans": [ { "path": "vqe/iteration", "count": 12,
//!                "total_ms": 3.4, "min_ms": 0.1, "max_ms": 0.9 } ],
//!   "counters": { "statevec.gates_1q": 420, "plan.bind_ms": 0.0012 },
//!   "iterations": [ { "i": 0, "energy": -1.1, "grad_norm": 0.3,
//!                     "evaluations": 5, "gates": 120, "wall_ms": 1.2 } ],
//!   "histograms": { "serve.latency_ms": { "count": 120, "mean": 4.2,
//!                   "min": 0.4, "max": 39.0, "p50": 3.1, "p95": 12.0,
//!                   "p99": 31.0 } }
//! }
//! ```
//!
//! Only `std` and `parking_lot` are used; JSON is serialized by hand so the
//! crate stays dependency-light and the schema stays under our control.

mod histogram;
mod json;

pub use histogram::Histogram;
pub use json::{JsonValue, Object, ParseError};

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// A counter cell: monotonically accumulated integer or float.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CounterValue {
    /// Integer counter (event counts, byte totals).
    Int(u64),
    /// Float accumulator (modeled times, fractional quantities).
    Float(f64),
}

/// Aggregated timing for one span path.
#[derive(Clone, Debug, Default)]
pub struct SpanStats {
    /// Number of completed spans at this path.
    pub count: u64,
    /// Total time across completions, in nanoseconds.
    pub total_ns: u128,
    /// Shortest single completion, in nanoseconds.
    pub min_ns: u128,
    /// Longest single completion, in nanoseconds.
    pub max_ns: u128,
}

/// One optimizer iteration as recorded by the VQE / ADAPT drivers.
#[derive(Clone, Debug, Default)]
pub struct IterationRecord {
    /// Zero-based iteration index.
    pub iteration: usize,
    /// Best energy known at the end of the iteration (Hartree).
    pub energy: f64,
    /// Gradient norm, when the driver computes one (ADAPT screening).
    pub grad_norm: Option<f64>,
    /// Objective evaluations consumed by the iteration.
    pub evaluations: u64,
    /// Gates in the ansatz at the end of the iteration.
    pub gates: u64,
    /// Wall-clock time of the iteration in milliseconds.
    pub wall_ms: f64,
    /// Free-form label (ADAPT: operator chosen this round).
    pub label: Option<String>,
}

#[derive(Default)]
struct Registry {
    run: BTreeMap<String, String>,
    spans: BTreeMap<String, SpanStats>,
    counters: BTreeMap<String, CounterValue>,
    iterations: Vec<IterationRecord>,
    histograms: BTreeMap<String, Histogram>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SPAN_HISTOGRAMS: AtomicBool = AtomicBool::new(false);

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
        run: BTreeMap::new(),
        spans: BTreeMap::new(),
        counters: BTreeMap::new(),
        iterations: Vec::new(),
        histograms: BTreeMap::new(),
    });
    &REGISTRY
}

thread_local! {
    static SPAN_PATH: std::cell::RefCell<Vec<&'static str>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Turns recording on or off process-wide. Off (the default) reduces every
/// recording call to a relaxed load and a branch.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether the registry currently accepts records.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Attaches a key/value pair to the run header of the export.
pub fn set_run_info(key: impl Into<String>, value: impl Into<String>) {
    if !enabled() {
        return;
    }
    registry().lock().run.insert(key.into(), value.into());
}

/// Adds `delta` to the integer counter `name`.
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    let mut reg = registry().lock();
    match reg
        .counters
        .entry(name.to_string())
        .or_insert(CounterValue::Int(0))
    {
        CounterValue::Int(v) => *v += delta,
        CounterValue::Float(v) => *v += delta as f64,
    }
}

/// Adds `delta` to the float accumulator `name`.
#[inline]
pub fn value_add(name: &'static str, delta: f64) {
    if !enabled() {
        return;
    }
    let mut reg = registry().lock();
    match reg
        .counters
        .entry(name.to_string())
        .or_insert(CounterValue::Float(0.0))
    {
        CounterValue::Int(v) => *v += delta as u64,
        CounterValue::Float(v) => *v += delta,
    }
}

/// Overwrites the float gauge `name` with `value` (last write wins). Use for
/// derived ratios such as cache hit-rates where accumulation is meaningless.
#[inline]
pub fn gauge_set(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    registry()
        .lock()
        .counters
        .insert(name.to_string(), CounterValue::Float(value));
}

/// Records one sample into the histogram `name` (creating it on first
/// use). Histograms aggregate latency-style quantities into fixed
/// log-buckets; the export carries p50/p95/p99 summaries.
pub fn histogram_record(name: &str, value: f64) {
    if !enabled() {
        return;
    }
    registry()
        .lock()
        .histograms
        .entry(name.to_string())
        .or_default()
        .record(value);
}

/// Reads a copy of the histogram `name`, if it has recorded anything.
pub fn histogram_snapshot(name: &str) -> Option<Histogram> {
    registry().lock().histograms.get(name).cloned()
}

/// When enabled, every completed [`span()`] additionally records its elapsed
/// milliseconds into a histogram named `span.<path>`, making tail latency
/// (not just min/mean/max) visible for any instrumented section.
pub fn set_span_histograms(on: bool) {
    SPAN_HISTOGRAMS.store(on, Ordering::Relaxed);
}

/// Records one optimizer iteration.
pub fn record_iteration(record: IterationRecord) {
    if !enabled() {
        return;
    }
    registry().lock().iterations.push(record);
}

/// RAII timer for one section; see [`span()`].
pub struct SpanGuard {
    start: Option<Instant>,
}

/// Opens a span named `name`, nested under any span currently open on this
/// thread: dropping the guard records the elapsed time under the
/// slash-joined path (e.g. `"vqe/iteration/energy"`). When telemetry is
/// disabled the guard is inert and costs one atomic load.
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { start: None };
    }
    SPAN_PATH.with(|p| p.borrow_mut().push(name));
    SpanGuard {
        start: Some(Instant::now()),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let elapsed = start.elapsed().as_nanos();
        let path = SPAN_PATH.with(|p| {
            let mut stack = p.borrow_mut();
            let path = stack.join("/");
            stack.pop();
            path
        });
        let mut reg = registry().lock();
        if SPAN_HISTOGRAMS.load(Ordering::Relaxed) {
            reg.histograms
                .entry(format!("span.{path}"))
                .or_default()
                .record(elapsed as f64 / 1e6);
        }
        let s = reg.spans.entry(path).or_default();
        s.count += 1;
        s.total_ns += elapsed;
        s.min_ns = if s.count == 1 {
            elapsed
        } else {
            s.min_ns.min(elapsed)
        };
        s.max_ns = s.max_ns.max(elapsed);
    }
}

/// Opens a [`span()`] guard bound to a local: `let _s = span!("vqe.iteration");`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
}

/// Immutable copy of the registry contents at one moment.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Run header key/value pairs.
    pub run: BTreeMap<String, String>,
    /// Aggregated spans keyed by slash-joined path.
    pub spans: BTreeMap<String, SpanStats>,
    /// Counters and float accumulators.
    pub counters: BTreeMap<String, CounterValue>,
    /// Optimizer iterations in recording order.
    pub iterations: Vec<IterationRecord>,
    /// Log-bucket histograms keyed by name.
    pub histograms: BTreeMap<String, Histogram>,
}

/// Copies the current registry contents.
pub fn snapshot() -> Snapshot {
    let reg = registry().lock();
    Snapshot {
        run: reg.run.clone(),
        spans: reg.spans.clone(),
        counters: reg.counters.clone(),
        iterations: reg.iterations.clone(),
        histograms: reg.histograms.clone(),
    }
}

/// Clears all recorded data (the enabled flag is left as-is).
pub fn reset() {
    let mut reg = registry().lock();
    reg.run.clear();
    reg.spans.clear();
    reg.counters.clear();
    reg.iterations.clear();
    reg.histograms.clear();
}

/// Convenience: reads a counter's integer value (0 when absent or float).
pub fn counter_value(name: &str) -> u64 {
    match registry().lock().counters.get(name) {
        Some(CounterValue::Int(v)) => *v,
        _ => 0,
    }
}

impl Snapshot {
    /// Serializes to the stable JSON schema described at the crate root.
    pub fn to_json(&self) -> String {
        let mut root = json::Object::new();
        let mut run = json::Object::new();
        for (k, v) in &self.run {
            run.push(k, JsonValue::Str(v.clone()));
        }
        root.push("run", run.into_value());

        let mut spans = Vec::new();
        for (path, s) in &self.spans {
            let mut o = json::Object::new();
            o.push("path", JsonValue::Str(path.clone()));
            o.push("count", JsonValue::Int(s.count));
            o.push("total_ms", JsonValue::Float(s.total_ns as f64 / 1e6));
            o.push("min_ms", JsonValue::Float(s.min_ns as f64 / 1e6));
            o.push("max_ms", JsonValue::Float(s.max_ns as f64 / 1e6));
            spans.push(o.into_value());
        }
        root.push("spans", JsonValue::Array(spans));

        let mut counters = json::Object::new();
        for (name, v) in &self.counters {
            let jv = match v {
                CounterValue::Int(i) => JsonValue::Int(*i),
                CounterValue::Float(f) => JsonValue::Float(*f),
            };
            counters.push(name, jv);
        }
        root.push("counters", counters.into_value());

        let mut iterations = Vec::new();
        for it in &self.iterations {
            let mut o = json::Object::new();
            o.push("i", JsonValue::Int(it.iteration as u64));
            o.push("energy", JsonValue::Float(it.energy));
            o.push(
                "grad_norm",
                it.grad_norm
                    .map(JsonValue::Float)
                    .unwrap_or(JsonValue::Null),
            );
            o.push("evaluations", JsonValue::Int(it.evaluations));
            o.push("gates", JsonValue::Int(it.gates));
            o.push("wall_ms", JsonValue::Float(it.wall_ms));
            if let Some(label) = &it.label {
                o.push("label", JsonValue::Str(label.clone()));
            }
            iterations.push(o.into_value());
        }
        root.push("iterations", JsonValue::Array(iterations));

        let mut histograms = json::Object::new();
        for (name, h) in &self.histograms {
            histograms.push(name, h.summary_json());
        }
        root.push("histograms", histograms.into_value());

        root.into_value().render()
    }

    /// Writes the JSON document to `path`.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global, so tests share it; each test uses its
    // own counter/span names and tolerates other tests' records. The
    // enable flags are process-global too, and a record made while another
    // test has them flipped the other way is lost (or wrongly kept) — so
    // every test that touches a flag holds this lock for as long as it
    // depends on the flag's value.
    static FLAGS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn lock_flags() -> std::sync::MutexGuard<'static, ()> {
        // A test that failed while holding the lock must not fail the rest.
        FLAGS.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn with_telemetry<R>(f: impl FnOnce() -> R) -> R {
        let _flags = lock_flags();
        set_enabled(true);
        let r = f();
        set_enabled(false);
        r
    }

    #[test]
    fn disabled_records_nothing() {
        let _flags = lock_flags();
        set_enabled(false);
        counter_add("test.disabled", 5);
        let _g = span("test.disabled.span");
        drop(_g);
        let snap = snapshot();
        assert!(!snap.counters.contains_key("test.disabled"));
        assert!(!snap.spans.contains_key("test.disabled.span"));
    }

    #[test]
    fn counters_accumulate() {
        with_telemetry(|| {
            counter_add("test.counters.a", 2);
            counter_add("test.counters.a", 3);
            value_add("test.counters.f", 0.5);
            value_add("test.counters.f", 0.25);
        });
        let snap = snapshot();
        assert_eq!(snap.counters["test.counters.a"], CounterValue::Int(5));
        assert_eq!(snap.counters["test.counters.f"], CounterValue::Float(0.75));
    }

    #[test]
    fn spans_nest_and_aggregate() {
        with_telemetry(|| {
            for _ in 0..3 {
                let _outer = span("test_outer");
                let _inner = span("test_inner");
            }
        });
        let snap = snapshot();
        assert_eq!(snap.spans["test_outer"].count, 3);
        let nested = &snap.spans["test_outer/test_inner"];
        assert_eq!(nested.count, 3);
        assert!(nested.total_ns >= nested.min_ns * 3 / 2);
        assert!(nested.min_ns <= nested.max_ns);
    }

    #[test]
    fn gauges_overwrite_instead_of_accumulating() {
        with_telemetry(|| {
            gauge_set("test.gauge.rate", 0.25);
            gauge_set("test.gauge.rate", 0.75);
            set_enabled(false);
            gauge_set("test.gauge.disabled", 1.0);
        });
        let snap = snapshot();
        assert_eq!(snap.counters["test.gauge.rate"], CounterValue::Float(0.75));
        assert!(!snap.counters.contains_key("test.gauge.disabled"));
    }

    #[test]
    fn iteration_records_roundtrip() {
        with_telemetry(|| {
            record_iteration(IterationRecord {
                iteration: 0,
                energy: -1.25,
                grad_norm: Some(0.5),
                evaluations: 7,
                gates: 42,
                wall_ms: 1.5,
                label: Some("op_3".into()),
            });
        });
        let snap = snapshot();
        let it = snap.iterations.iter().find(|i| i.gates == 42).unwrap();
        assert_eq!(it.energy, -1.25);
        assert_eq!(it.label.as_deref(), Some("op_3"));
    }

    #[test]
    fn json_has_stable_top_level_shape() {
        with_telemetry(|| {
            set_run_info("command", "test \"quoted\"");
            counter_add("test.json.count", 1);
        });
        let doc = snapshot().to_json();
        assert!(doc.starts_with('{'));
        for key in [
            "\"run\"",
            "\"spans\"",
            "\"counters\"",
            "\"iterations\"",
            "\"histograms\"",
        ] {
            assert!(doc.contains(key), "missing {key} in {doc}");
        }
        assert!(doc.contains("test \\\"quoted\\\""));
    }

    #[test]
    fn histogram_registry_records_and_exports() {
        with_telemetry(|| {
            for i in 1..=100 {
                histogram_record("test.hist.latency", i as f64);
            }
            // Disabled: nothing recorded.
            set_enabled(false);
            histogram_record("test.hist.disabled", 1.0);
        });
        let h = histogram_snapshot("test.hist.latency").unwrap();
        assert_eq!(h.count(), 100);
        assert!(h.p99().unwrap() >= h.p50().unwrap());
        let doc = snapshot().to_json();
        assert!(doc.contains("\"test.hist.latency\""), "{doc}");
        assert!(histogram_snapshot("test.hist.disabled").is_none());
    }

    #[test]
    fn span_timers_feed_histograms_when_opted_in() {
        with_telemetry(|| {
            set_span_histograms(true);
            for _ in 0..5 {
                let _g = span("test_span_hist");
            }
            set_span_histograms(false);
            let _g = span("test_span_hist_off");
        });
        let h = histogram_snapshot("span.test_span_hist").unwrap();
        assert_eq!(h.count(), 5);
        assert!(h.p95().unwrap() >= 0.0);
        assert!(histogram_snapshot("span.test_span_hist_off").is_none());
        // The plain span aggregate still recorded both.
        let snap = snapshot();
        assert_eq!(snap.spans["test_span_hist"].count, 5);
        assert_eq!(snap.spans["test_span_hist_off"].count, 1);
    }
}
