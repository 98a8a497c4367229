//! Spans recorded by the ledger's own files around calls into each layer.
//!
//! A span is entered before a public call and exited after it; spans nest,
//! and a layer's *self* time is its spans' duration minus the part their
//! child spans cover. Totals are folded in as each span closes, so a run
//! with millions of evaluations keeps only the open stack and one
//! aggregate per layer in memory (plus the raw durations of layers whose
//! percentiles are reported).

use std::time::Instant;

/// The layer boundaries the ledger can see from outside.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// One optimisation driver call (`run_vqe`, `run_vqe_grad`,
    /// `run_adapt_vqe`); self time is driver + `nwq-opt`.
    Driver,
    /// One `Backend` call; self time is cache keying and allocation.
    Backend,
    ChemIntegrals,
    ChemJw,
    ChemAnsatz,
    ChemExactRef,
    PlanTemplate,
    PlanBind,
    ExecEvolve,
    ExpvalEnergy,
    AdjointGrad,
    DistRun,
    DistEnergy,
}

const N_LAYERS: usize = Layer::DistEnergy as usize + 1;

/// Per-layer totals.
#[derive(Clone, Debug, Default)]
pub struct LayerTotals {
    pub count: u64,
    /// Summed span duration, seconds.
    pub total_s: f64,
    /// Summed duration not covered by child spans, seconds.
    pub self_s: f64,
    /// Individual span durations in seconds, kept only for layers named
    /// in [`Tracer::keep_samples`].
    pub samples: Vec<f64>,
}

struct Frame {
    layer: Layer,
    start_ns: u64,
    child_ns: u64,
}

/// In-memory span recorder for one thread of control.
pub struct Tracer {
    origin: Instant,
    stack: Vec<Frame>,
    totals: Vec<LayerTotals>,
    keep: [bool; N_LAYERS],
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            stack: Vec::new(),
            totals: vec![LayerTotals::default(); N_LAYERS],
            keep: [false; N_LAYERS],
        }
    }
}

impl Tracer {
    /// Retains the individual durations of `layer`'s spans.
    pub fn keep_samples(&mut self, layer: Layer) {
        self.keep[layer as usize] = true;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span of `layer` as a child of the innermost open span.
    pub fn enter(&mut self, layer: Layer) {
        let t = self.now_ns();
        self.enter_at(layer, t);
    }

    /// Closes the innermost open span, which must be of `layer`.
    pub fn exit(&mut self, layer: Layer) {
        let t = self.now_ns();
        self.exit_at(layer, t);
    }

    /// [`enter`](Self::enter) with an explicit timestamp.
    pub fn enter_at(&mut self, layer: Layer, t_ns: u64) {
        self.stack.push(Frame {
            layer,
            start_ns: t_ns,
            child_ns: 0,
        });
    }

    /// [`exit`](Self::exit) with an explicit timestamp.
    pub fn exit_at(&mut self, layer: Layer, t_ns: u64) {
        let frame = self.stack.pop().expect("exit without a matching enter");
        assert_eq!(frame.layer, layer, "spans must close innermost first");
        let dur = t_ns.saturating_sub(frame.start_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        let agg = &mut self.totals[layer as usize];
        agg.count += 1;
        agg.total_s += dur as f64 * 1e-9;
        agg.self_s += dur.saturating_sub(frame.child_ns) as f64 * 1e-9;
        if self.keep[layer as usize] {
            agg.samples.push(dur as f64 * 1e-9);
        }
    }

    /// Runs `f` inside a span of `layer`.
    pub fn scope<T>(cell: &std::cell::RefCell<Tracer>, layer: Layer, f: impl FnOnce() -> T) -> T {
        cell.borrow_mut().enter(layer);
        let out = f();
        cell.borrow_mut().exit(layer);
        out
    }

    /// Totals of one layer.
    pub fn layer(&self, layer: Layer) -> &LayerTotals {
        &self.totals[layer as usize]
    }

    /// Self time summed over every layer: the part of the traced wall
    /// time the spans account for.
    pub fn covered_s(&self) -> f64 {
        self.totals.iter().map(|t| t.self_s).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::default();
        t.keep_samples(Layer::PlanBind);
        // driver [0, 100): backend [10, 60) { bind [12, 22), evolve [22, 52) },
        // backend [70, 90) { bind [70, 75) }.
        t.enter_at(Layer::Driver, 0);
        t.enter_at(Layer::Backend, 10);
        t.enter_at(Layer::PlanBind, 12);
        t.exit_at(Layer::PlanBind, 22);
        t.enter_at(Layer::ExecEvolve, 22);
        t.exit_at(Layer::ExecEvolve, 52);
        t.exit_at(Layer::Backend, 60);
        t.enter_at(Layer::Backend, 70);
        t.enter_at(Layer::PlanBind, 70);
        t.exit_at(Layer::PlanBind, 75);
        t.exit_at(Layer::Backend, 90);
        t.exit_at(Layer::Driver, 100);

        let ns = |s: f64| (s * 1e9).round() as u64;
        assert_eq!(ns(t.layer(Layer::Driver).total_s), 100);
        assert_eq!(ns(t.layer(Layer::Driver).self_s), 30); // 100 − (50 + 20)
        assert_eq!(t.layer(Layer::Backend).count, 2);
        assert_eq!(ns(t.layer(Layer::Backend).self_s), 10 + 15);
        assert_eq!(ns(t.layer(Layer::PlanBind).self_s), 15);
        assert_eq!(ns(t.layer(Layer::ExecEvolve).self_s), 30);
        // Grandchildren are subtracted from their parent only, so the
        // self times partition the root span exactly.
        assert_eq!(ns(t.covered_s()), 100);
        assert_eq!(t.layer(Layer::PlanBind).samples.len(), 2);
        assert!(t.layer(Layer::Backend).samples.is_empty());
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn crossing_spans_are_rejected() {
        let mut t = Tracer::default();
        t.enter_at(Layer::Driver, 0);
        t.enter_at(Layer::Backend, 1);
        t.exit_at(Layer::Driver, 2);
    }
}
