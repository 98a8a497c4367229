//! Fault-tolerant driving of the variational loops: checkpoint/restart,
//! bounded retries, and a fault-injecting backend decorator.
//!
//! Long VQE campaigns on shared HPC systems die for reasons that have
//! nothing to do with chemistry — job-time limits, preempted nodes, lost
//! ranks, corrupted exchanges. This module makes such runs resumable and
//! the recovery paths testable:
//!
//! - [`CheckpointConfig`] + [`ResumeState`] — versioned, dependency-free
//!   JSON snapshots of a run (optimizer configuration, the ordered log of
//!   successful energies, best parameters), written atomically
//!   (temp + rename) every N improvements and on the way down after a
//!   non-recoverable failure;
//! - [`RetryPolicy`] — bounded re-attempts of transient evaluation
//!   failures ([`Error::is_transient`]), with a cache invalidation between
//!   attempts so a poisoned post-ansatz state cannot survive a retry;
//! - [`FaultyBackend`] — wraps any [`Backend`] and injects deterministic,
//!   seeded evaluation failures and NaN energies from
//!   [`nwq_dist::FaultSpec`].
//!
//! Every driver ([`run_vqe_with`], [`run_vqe_grad_with`],
//! [`crate::adapt::run_adapt_vqe_with`]) runs the same skeleton — resume,
//! snapshot header, evaluation, final checkpoint or interrupt — and every
//! backend call goes through one retry loop.
//!
//! ## Restart semantics: evaluation-log replay
//!
//! A checkpoint stores the ordered energies of every *successful*
//! evaluation. On resume the driver re-runs the optimizer from the same
//! starting point with the same restored configuration and answers the
//! first `eval_log.len()` objective calls from the log without touching
//! the backend. Because every optimizer in `nwq-opt` is deterministic
//! given its configuration (SPSA re-seeds its RNG at the start of each
//! minimization), the replayed trajectory is *bitwise identical* to the
//! original — the resumed run continues exactly where the interrupted one
//! stopped, and its final energy and evaluation count match an
//! uninterrupted run exactly.

use crate::backend::{Backend, GradientBackend};
use crate::vqe::{GradSource, VqeProblem, VqeResult};
use nwq_circuit::Circuit;
use nwq_common::{Error, Result};
use nwq_dist::FaultInjector;
use nwq_opt::{shift_rule_gradient, GradObjective, GradOptimizer, OptResult, Optimizer};
use nwq_pauli::PauliOp;
use nwq_telemetry::JsonValue;
use std::path::{Path, PathBuf};

pub use nwq_dist::{FaultSpec, FaultStats};

/// Checkpoint schema version; bumped on incompatible layout changes and
/// whenever an optimizer's trajectory changes, since replay feeds logged
/// energies back to the points the optimizer visits now.
pub const CHECKPOINT_VERSION: u64 = 3;

/// Bounded-retry policy for transient evaluation failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Re-attempts allowed per evaluation after the first try. Transient
    /// failures beyond this budget abort the run (writing a checkpoint
    /// when one is configured).
    pub max_retries: usize,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_retries: 5 }
    }
}

impl RetryPolicy {
    /// No retries: every failure is immediately fatal.
    pub fn none() -> Self {
        RetryPolicy { max_retries: 0 }
    }
}

/// Where and how often to write checkpoints.
#[derive(Clone, Debug)]
pub struct CheckpointConfig {
    /// Snapshot file path (written atomically via a `.tmp` sibling).
    pub path: PathBuf,
    /// Write a snapshot every this many best-energy improvements. A
    /// snapshot is also written after a failure and at successful
    /// completion regardless of this cadence.
    pub every_improvements: usize,
}

impl CheckpointConfig {
    /// Checkpoints at `path` with the default cadence (every 10
    /// improvements).
    pub fn new(path: impl Into<PathBuf>) -> Self {
        CheckpointConfig {
            path: path.into(),
            every_improvements: 10,
        }
    }
}

/// Resilience knobs accepted by [`run_vqe_with`] and
/// [`crate::adapt::run_adapt_vqe_with`].
#[derive(Clone, Debug, Default)]
pub struct ResilienceOptions {
    /// Periodic checkpointing (off by default).
    pub checkpoint: Option<CheckpointConfig>,
    /// Resume from a previously written checkpoint.
    pub resume: Option<ResumeState>,
    /// Transient-failure retry budget.
    pub retry: RetryPolicy,
    /// Testing hook: inject a fatal failure after this many *fresh*
    /// (non-replayed) successful evaluations — the `--kill-after-evals`
    /// switch the kill-and-resume smoke test uses.
    pub abort_after_evals: Option<usize>,
}

/// The logs a resumed run replays: every successful energy, in order, and
/// beside each the gradient of a fused adjoint evaluation (`None` for a
/// plain energy).
type ReplayLogs = (Vec<f64>, Vec<Option<Vec<f64>>>);

/// A loaded checkpoint, ready to hand to a `*_with` driver.
#[derive(Clone, Debug)]
pub struct ResumeState {
    doc: JsonValue,
}

impl ResumeState {
    /// Loads and validates a checkpoint file.
    pub fn load(path: &Path) -> Result<Self> {
        let context = |e: &dyn std::fmt::Display| {
            Error::Invalid(format!("checkpoint {}: {e}", path.display()))
        };
        let text = std::fs::read_to_string(path).map_err(|e| context(&e))?;
        let doc = JsonValue::parse(&text).map_err(|e| context(&e))?;
        match doc.get("version").and_then(JsonValue::as_u64) {
            Some(CHECKPOINT_VERSION) => Ok(ResumeState { doc }),
            v => Err(context(&format!(
                "unsupported checkpoint version {v:?} (expected {CHECKPOINT_VERSION})"
            ))),
        }
    }

    /// The run kind recorded in the checkpoint (`"vqe"`, `"vqe-grad"` or
    /// `"adapt"`).
    pub fn kind(&self) -> &str {
        self.doc
            .get("kind")
            .and_then(JsonValue::as_str)
            .unwrap_or("")
    }

    /// Best energy recorded at snapshot time, if any evaluation succeeded.
    pub fn best_energy(&self) -> Option<f64> {
        self.doc.get("best")?.get("energy")?.as_f64()
    }

    /// Successful evaluations recorded at snapshot time.
    pub fn evaluations(&self) -> usize {
        self.doc
            .get("eval_log")
            .and_then(JsonValue::as_array)
            .map_or(0, <[JsonValue]>::len)
    }

    /// The energy log and the gradient log parallel to it. Checkpoints
    /// written without a fused evaluation have no `grad_log` field; that
    /// reads as all-`None`.
    fn logs(&self) -> Result<ReplayLogs> {
        let floats = |v: &JsonValue, log: &str| -> Result<Vec<f64>> {
            let bad = || Error::Invalid(format!("non-numeric entry in checkpoint {log}"));
            let items = v.as_array().ok_or_else(bad)?;
            items.iter().map(|x| x.as_f64().ok_or_else(bad)).collect()
        };
        let energies = self
            .doc
            .get("eval_log")
            .ok_or_else(|| Error::Invalid("checkpoint is missing eval_log".into()))?;
        let energies = floats(energies, "eval_log")?;
        let grads: Vec<Option<Vec<f64>>> = match self.doc.get("grad_log") {
            None => vec![None; energies.len()],
            Some(log) => log
                .as_array()
                .ok_or_else(|| Error::Invalid("checkpoint grad_log is not an array".into()))?
                .iter()
                .map(|g| match g {
                    JsonValue::Null => Ok(None),
                    g => floats(g, "grad_log").map(Some),
                })
                .collect::<Result<_>>()?,
        };
        if grads.len() != energies.len() {
            return Err(Error::Invalid(format!(
                "checkpoint grad_log length {} does not match eval_log length {}",
                grads.len(),
                energies.len()
            )));
        }
        Ok((energies, grads))
    }

    /// Verifies the checkpoint matches this run (kind, problem
    /// fingerprint, optimizer), restores the optimizer configuration, and
    /// returns the logs to replay.
    fn prepare<O: Optimizer + ?Sized>(
        &self,
        kind: &str,
        fingerprint: &JsonValue,
        optimizer: &mut O,
    ) -> Result<ReplayLogs> {
        if self.kind() != kind {
            return Err(Error::Invalid(format!(
                "checkpoint kind {:?} cannot resume a {kind} run",
                self.kind()
            )));
        }
        let stored = self.doc.get("fingerprint").ok_or_else(|| {
            Error::Invalid("checkpoint is missing its problem fingerprint".into())
        })?;
        if stored.render() != fingerprint.render() {
            return Err(Error::Invalid(
                "checkpoint fingerprint does not match this problem \
                 (different Hamiltonian, ansatz, start point, or budget)"
                    .into(),
            ));
        }
        let opt = self
            .doc
            .get("optimizer")
            .ok_or_else(|| Error::Invalid("checkpoint is missing optimizer state".into()))?;
        let name = opt.get("name").and_then(JsonValue::as_str).unwrap_or("");
        if name != optimizer.name() {
            return Err(Error::Invalid(format!(
                "checkpoint was written by optimizer {name:?}, cannot resume with {:?}",
                optimizer.name()
            )));
        }
        optimizer.restore_state(opt.get("state").unwrap_or(&JsonValue::Null))?;
        self.logs()
    }
}

/// Writes `doc` to `path` atomically: render to `<path>.tmp`, then rename
/// over the target, so a crash mid-write can never leave a truncated
/// checkpoint behind.
fn write_atomic(path: &Path, doc: &JsonValue) -> Result<()> {
    let context =
        |e: &std::io::Error| Error::Invalid(format!("writing checkpoint {}: {e}", path.display()));
    let tmp = PathBuf::from(format!("{}.tmp", path.display()));
    std::fs::write(&tmp, doc.render()).map_err(|e| context(&e))?;
    std::fs::rename(&tmp, path).map_err(|e| context(&e))?;
    nwq_telemetry::counter_add("resilience.checkpoints_written", 1);
    Ok(())
}

const NONFINITE_ENERGY: &str = "non-finite energy returned by backend";

/// The evaluation engine behind every resilient driver: replays the
/// resumed prefix, retries transient failures with cache invalidation,
/// enforces the kill switch, tracks the best point, and writes
/// checkpoints. `B` is `dyn Backend` for derivative-free loops and
/// `dyn GradientBackend` when the optimizer consumes fused adjoint
/// evaluations ([`eval_grad`](Self::eval_grad)).
pub(crate) struct ResilientEvaluator<'a, B: ?Sized> {
    backend: &'a mut B,
    retry: RetryPolicy,
    checkpoint: Option<CheckpointConfig>,
    abort_after_evals: Option<usize>,
    /// Header fields every snapshot starts with (version, kind,
    /// fingerprint, optimizer configuration).
    header: Vec<(String, JsonValue)>,
    /// Driver-provided informational fields (e.g. ADAPT pool selections).
    extra: Vec<(String, JsonValue)>,
    /// All successful energies, in evaluation order: the resumed prefix
    /// followed by fresh results.
    eval_log: Vec<f64>,
    /// Parallel to `eval_log`: the gradient of each fused adjoint
    /// evaluation, `None` for plain energy evaluations. Only serialized
    /// into snapshots when at least one gradient was recorded.
    grad_log: Vec<Option<Vec<f64>>>,
    /// Objective calls served so far; calls below `replay_until` are
    /// answered from `eval_log` without touching the backend.
    cursor: usize,
    replay_until: usize,
    fresh_evals: usize,
    best_energy: f64,
    best_params: Vec<f64>,
    improvements_since_ckpt: usize,
}

impl<'a, B: Backend + ?Sized> ResilientEvaluator<'a, B> {
    fn new(
        backend: &'a mut B,
        opts: &ResilienceOptions,
        header: Vec<(String, JsonValue)>,
        (eval_log, grad_log): ReplayLogs,
    ) -> Self {
        let replay_until = eval_log.len();
        ResilientEvaluator {
            backend,
            retry: opts.retry,
            checkpoint: opts.checkpoint.clone(),
            abort_after_evals: opts.abort_after_evals,
            header,
            extra: Vec::new(),
            eval_log,
            grad_log,
            cursor: 0,
            replay_until,
            fresh_evals: 0,
            best_energy: f64::INFINITY,
            best_params: Vec::new(),
            improvements_since_ckpt: 0,
        }
    }

    /// Total successful evaluations so far (replayed + fresh).
    pub(crate) fn total_evals(&self) -> usize {
        self.eval_log.len()
    }

    /// Attaches/overwrites an informational snapshot field.
    pub(crate) fn set_extra(&mut self, key: &str, value: JsonValue) {
        if let Some(slot) = self.extra.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            self.extra.push((key.to_string(), value));
        }
    }

    fn replaying(&self) -> bool {
        self.cursor < self.replay_until
    }

    /// Answers the next objective call from the resumed log.
    fn replay(&mut self, theta: &[f64]) -> f64 {
        let e = self.eval_log[self.cursor];
        self.cursor += 1;
        nwq_telemetry::counter_add("resilience.evals_replayed", 1);
        self.note_success(e, theta);
        e
    }

    /// The kill-switch limit, when `n` more fresh evaluations would
    /// cross it.
    fn kill_due(&self, n: usize) -> Option<usize> {
        self.abort_after_evals
            .filter(|&limit| self.fresh_evals + n > limit)
    }

    /// The one retry loop every fresh backend call runs through: trip the
    /// kill switch if `n` more evaluations would cross it, then call until
    /// the result is `healthy` (a non-finite one is a transient
    /// [`Error::Numerical`] named by `unhealthy`), dropping the backend's
    /// cache before each of at most `max_retries` re-attempts of a
    /// transient failure.
    fn attempt<T>(
        &mut self,
        n: usize,
        mut call: impl FnMut(&mut B) -> Result<T>,
        healthy: impl Fn(&T) -> bool,
        unhealthy: &str,
    ) -> Result<T> {
        if let Some(limit) = self.kill_due(n) {
            return Err(Error::Invalid(format!(
                "kill switch tripped after {limit} fresh evaluations"
            )));
        }
        let mut attempt = 0;
        loop {
            let outcome = call(&mut *self.backend).and_then(|v| {
                if healthy(&v) {
                    Ok(v)
                } else {
                    nwq_telemetry::counter_add("resilience.nonfinite_detected", 1);
                    Err(Error::Numerical(unhealthy.into()))
                }
            });
            match outcome {
                Err(e) if e.is_transient() && attempt < self.retry.max_retries => {
                    attempt += 1;
                    nwq_telemetry::counter_add("resilience.retries", 1);
                    // A transient fault may have poisoned cached derived
                    // state; drop it so the retry recomputes from scratch.
                    self.backend.invalidate_cache();
                }
                outcome => return outcome,
            }
        }
    }

    /// Logs one fresh success; true when it improved the best energy.
    fn record(&mut self, e: f64, grad: Option<Vec<f64>>, theta: &[f64]) -> bool {
        self.cursor += 1;
        self.fresh_evals += 1;
        self.eval_log.push(e);
        self.grad_log.push(grad);
        self.note_success(e, theta)
    }

    /// One resilient objective evaluation at `theta`.
    pub(crate) fn eval(&mut self, ansatz: &Circuit, theta: &[f64], h: &PauliOp) -> Result<f64> {
        if self.replaying() {
            return Ok(self.replay(theta));
        }
        let e = self.attempt(
            1,
            |b| b.energy(ansatz, theta, h),
            |e| e.is_finite(),
            NONFINITE_ENERGY,
        )?;
        if self.record(e, None, theta) {
            self.maybe_checkpoint()?;
        }
        Ok(e)
    }

    /// One resilient *batched* objective evaluation: all of `thetas` in
    /// one backend call ([`Backend::energy_batch`]),
    /// bitwise identical per entry to calling [`eval`](Self::eval) in
    /// order. Falls back to element-wise evaluation whenever any element
    /// would be served from the replay log or would trip the kill switch
    /// mid-batch — those paths have per-evaluation semantics that must be
    /// preserved exactly.
    pub(crate) fn eval_batch(
        &mut self,
        ansatz: &Circuit,
        thetas: &[Vec<f64>],
        h: &PauliOp,
    ) -> Result<Vec<f64>> {
        if thetas.len() < 2 || self.replaying() || self.kill_due(thetas.len()).is_some() {
            return thetas.iter().map(|t| self.eval(ansatz, t, h)).collect();
        }
        let es = self.attempt(
            thetas.len(),
            |b| b.energy_batch(ansatz, thetas, h),
            |es| es.iter().all(|e| e.is_finite()),
            NONFINITE_ENERGY,
        )?;
        let mut improved = false;
        for (&e, theta) in es.iter().zip(thetas) {
            improved |= self.record(e, None, theta);
        }
        if improved {
            self.maybe_checkpoint()?;
        }
        Ok(es)
    }

    fn note_success(&mut self, e: f64, theta: &[f64]) -> bool {
        if e < self.best_energy {
            self.best_energy = e;
            self.best_params = theta.to_vec();
            self.improvements_since_ckpt += 1;
            true
        } else {
            false
        }
    }

    fn snapshot(&self) -> JsonValue {
        let floats = |v: &[f64]| JsonValue::Array(v.iter().map(|&x| JsonValue::Float(x)).collect());
        let mut fields = self.header.clone();
        fields.extend(self.extra.iter().cloned());
        fields.push(("eval_log".into(), floats(&self.eval_log)));
        if self.grad_log.iter().any(Option::is_some) {
            let grads = self
                .grad_log
                .iter()
                .map(|g| g.as_deref().map_or(JsonValue::Null, floats))
                .collect();
            fields.push(("grad_log".into(), JsonValue::Array(grads)));
        }
        let best = if self.best_params.is_empty() {
            JsonValue::Null
        } else {
            JsonValue::Object(vec![
                ("energy".into(), JsonValue::Float(self.best_energy)),
                ("params".into(), floats(&self.best_params)),
                (
                    "evaluations".into(),
                    JsonValue::Int(self.eval_log.len() as u64),
                ),
            ])
        };
        fields.push(("best".into(), best));
        JsonValue::Object(fields)
    }

    fn maybe_checkpoint(&mut self) -> Result<()> {
        let due = match &self.checkpoint {
            Some(cfg) => self.improvements_since_ckpt >= cfg.every_improvements.max(1),
            None => false,
        };
        if due {
            self.write_checkpoint()?;
        }
        Ok(())
    }

    fn write_checkpoint(&mut self) -> Result<()> {
        if let Some(cfg) = &self.checkpoint {
            write_atomic(&cfg.path, &self.snapshot())?;
            self.improvements_since_ckpt = 0;
        }
        Ok(())
    }

    /// Wraps `cause` in [`Error::Interrupted`] after a best-effort final
    /// checkpoint, whose path it names when the write succeeded.
    fn interrupt(&mut self, cause: Error) -> Error {
        nwq_telemetry::counter_add("resilience.interrupted", 1);
        let path = self
            .checkpoint
            .as_ref()
            .map(|c| c.path.display().to_string());
        Error::Interrupted {
            checkpoint: path.filter(|_| self.write_checkpoint().is_ok()),
            cause: Box::new(cause),
        }
    }
}

impl<B: GradientBackend + ?Sized> ResilientEvaluator<'_, B> {
    /// One resilient *fused* energy-and-gradient evaluation at `theta`.
    /// Resumed prefixes are answered from the checkpoint's parallel
    /// gradient log without touching the backend — a replayed position
    /// recorded without a gradient means the resumed trajectory diverged
    /// and is an error.
    pub(crate) fn eval_grad(
        &mut self,
        ansatz: &Circuit,
        theta: &[f64],
        h: &PauliOp,
    ) -> Result<(f64, Vec<f64>)> {
        if self.replaying() {
            let g = self.grad_log[self.cursor].clone().ok_or_else(|| {
                Error::Invalid(
                    "checkpoint replay diverged: gradient requested at an \
                     evaluation recorded without one"
                        .into(),
                )
            })?;
            return Ok((self.replay(theta), g));
        }
        let (e, g) = self.attempt(
            1,
            |b| b.energy_and_gradient(ansatz, theta, h),
            |(e, g)| e.is_finite() && g.iter().all(|v| v.is_finite()),
            "non-finite energy or gradient returned by backend",
        )?;
        if self.record(e, Some(g.clone()), theta) {
            self.maybe_checkpoint()?;
        }
        Ok((e, g))
    }
}

/// The skeleton of every resilient driver: verify `opts.resume` against
/// `kind` and `fingerprint` and restore the optimizer from it, build the
/// snapshot header from the optimizer as it will run, run `body` on a
/// fresh evaluator, then write the final checkpoint — or, when `body`
/// fails, wrap the cause in [`Error::Interrupted`] after a last one.
pub(crate) fn drive<B, O, T>(
    kind: &str,
    fingerprint: JsonValue,
    backend: &mut B,
    optimizer: &mut O,
    opts: &ResilienceOptions,
    body: impl FnOnce(&mut ResilientEvaluator<'_, B>, &mut O) -> Result<T>,
) -> Result<T>
where
    B: Backend + ?Sized,
    O: Optimizer + ?Sized,
{
    let logs = match &opts.resume {
        Some(state) => state.prepare(kind, &fingerprint, optimizer)?,
        None => ReplayLogs::default(),
    };
    let header = vec![
        ("version".into(), JsonValue::Int(CHECKPOINT_VERSION)),
        ("kind".into(), JsonValue::Str(kind.into())),
        ("fingerprint".into(), fingerprint),
        (
            "optimizer".into(),
            JsonValue::Object(vec![
                ("name".into(), JsonValue::Str(optimizer.name().into())),
                ("state".into(), optimizer.state_json()),
            ]),
        ),
    ];
    let mut ev = ResilientEvaluator::new(backend, opts, header, logs);
    match body(&mut ev, optimizer) {
        Ok(out) => {
            ev.write_checkpoint()?;
            Ok(out)
        }
        Err(cause) => Err(ev.interrupt(cause)),
    }
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// 64-bit content fingerprint of a circuit: the fingerprint of its
/// memoised [`nwq_circuit::Shape`] (width, parameter count, and every
/// gate's kind, qubits and parameter expressions). Two circuits
/// fingerprint equal iff they would compile to the same `ExecPlan` for the
/// same bindings — the identity the serving layer batches and caches by.
pub fn circuit_content_fingerprint(circuit: &Circuit) -> u64 {
    circuit.shape().fingerprint()
}

/// Content fingerprint of a `(Hamiltonian, ansatz)` pair: the circuit
/// fingerprint folded with every Pauli term's exact coefficient bits and
/// X/Z masks. Equal fingerprints mean an energy evaluation is the same
/// computation — safe to answer from a shared cache or to batch into one
/// expectation sweep across tenants.
pub fn problem_content_fingerprint(hamiltonian: &PauliOp, ansatz: &Circuit) -> u64 {
    let mut h = circuit_content_fingerprint(ansatz);
    h = fnv1a(h, &(hamiltonian.n_qubits() as u64).to_le_bytes());
    for (coeff, string) in hamiltonian.terms() {
        h = fnv1a(h, &coeff.re.to_bits().to_le_bytes());
        h = fnv1a(h, &coeff.im.to_bits().to_le_bytes());
        h = fnv1a(h, &string.x_mask().to_le_bytes());
        h = fnv1a(h, &string.z_mask().to_le_bytes());
    }
    h
}

/// Builds the VQE problem fingerprint stored in (and verified against)
/// checkpoints: resuming is only sound when the objective and the start
/// point are exactly those of the interrupted run — and, for a
/// gradient-driven run, when the gradients are computed the same way.
fn vqe_fingerprint(
    problem: &VqeProblem,
    x0: &[f64],
    max_evals: usize,
    source: Option<&GradSource>,
) -> JsonValue {
    let (h, ansatz) = (&problem.hamiltonian, &problem.ansatz);
    let mut fields = vec![
        (
            "content_fp".into(),
            JsonValue::Int(problem_content_fingerprint(h, ansatz)),
        ),
        ("n_qubits".into(), JsonValue::Int(ansatz.n_qubits() as u64)),
        ("n_params".into(), JsonValue::Int(ansatz.n_params() as u64)),
        ("ansatz_gates".into(), JsonValue::Int(ansatz.len() as u64)),
        ("h_terms".into(), JsonValue::Int(h.terms().len() as u64)),
        (
            "x0".into(),
            JsonValue::Array(x0.iter().map(|&x| JsonValue::Float(x)).collect()),
        ),
        ("max_evals".into(), JsonValue::Int(max_evals as u64)),
    ];
    if let Some(source) = source {
        fields.push(("grad_source".into(), source.fingerprint_json()));
    }
    JsonValue::Object(fields)
}

/// Rejects a start point shorter than the ansatz's parameter list and a
/// non-Hermitian observable.
fn check_vqe(problem: &VqeProblem, x0: &[f64]) -> Result<()> {
    if x0.len() < problem.ansatz.n_params() {
        return Err(Error::ParameterMismatch {
            expected: problem.ansatz.n_params(),
            got: x0.len(),
        });
    }
    if !problem.hamiltonian.is_hermitian(1e-9) {
        return Err(Error::Invalid("VQE observable must be Hermitian".into()));
    }
    Ok(())
}

/// The best-so-far energy after each evaluation of a VQE run, plus one
/// telemetry [`nwq_telemetry::IterationRecord`] per *improvement* (not
/// per evaluation, which keeps the artifact bounded for long runs).
struct Recorder {
    history: Vec<f64>,
    telemetry: bool,
    ansatz_gates: u64,
    last_mark: std::time::Instant,
}

impl Recorder {
    fn new(ansatz: &Circuit) -> Self {
        Recorder {
            history: Vec::new(),
            telemetry: nwq_telemetry::enabled(),
            ansatz_gates: ansatz.len() as u64,
            last_mark: std::time::Instant::now(),
        }
    }

    /// Adds `energies`, which became known together (one evaluation, or
    /// a gradient's `x` and its probes), to the history. Each improvement
    /// is recorded with the evaluation count once all of them are known;
    /// `grad_norm` belongs to the first.
    fn note(&mut self, energies: &[f64], grad_norm: Option<f64>) {
        let evaluations = (self.history.len() + energies.len()) as u64;
        for (k, &e) in energies.iter().enumerate() {
            let prev_best = self.history.last().copied().unwrap_or(f64::INFINITY);
            let best = prev_best.min(e);
            self.history.push(best);
            if self.telemetry && best < prev_best {
                nwq_telemetry::record_iteration(nwq_telemetry::IterationRecord {
                    iteration: self.history.len() - 1,
                    energy: best,
                    grad_norm: grad_norm.filter(|_| k == 0),
                    evaluations,
                    gates: self.ansatz_gates,
                    wall_ms: self.last_mark.elapsed().as_secs_f64() * 1e3,
                    label: None,
                });
                self.last_mark = std::time::Instant::now();
            }
        }
    }

    fn finish(self, r: OptResult) -> VqeResult {
        VqeResult {
            energy: r.value,
            params: r.params,
            evaluations: r.evals,
            converged: r.converged,
            history: self.history,
        }
    }
}

/// [`crate::vqe::run_vqe`] with resilience: checkpoint/restart, bounded
/// retries of transient failures, and prompt abort (wrapped in
/// [`Error::Interrupted`]) once the retry budget is exhausted.
pub fn run_vqe_with(
    problem: &VqeProblem,
    backend: &mut dyn Backend,
    optimizer: &mut dyn Optimizer,
    x0: &[f64],
    max_evals: usize,
    opts: &ResilienceOptions,
) -> Result<VqeResult> {
    check_vqe(problem, x0)?;
    let _span = nwq_telemetry::span!("vqe.run");
    let fingerprint = vqe_fingerprint(problem, x0, max_evals, None);
    drive("vqe", fingerprint, backend, optimizer, opts, |ev, opt| {
        let mut rec = Recorder::new(&problem.ansatz);
        // The driver feeds the optimizer through its *batched* entry
        // point: optimizers that group independent evaluations (SPSA's
        // ±perturbation pair) send them as one multi-θ batch, which a
        // batching backend evaluates as one parallel map. The trajectory
        // is identical to the scalar entry either way.
        let mut objective = |thetas: &[Vec<f64>]| -> Result<Vec<f64>> {
            let es = ev.eval_batch(&problem.ansatz, thetas, &problem.hamiltonian)?;
            for e in &es {
                rec.note(std::slice::from_ref(e), None);
            }
            Ok(es)
        };
        let r = opt.try_minimize_batched(&mut objective, x0, max_evals)?;
        Ok(rec.finish(r))
    })
}

/// The gradient-consuming VQE objective fed to a
/// [`GradOptimizer`]: fused adjoint evaluations go through
/// [`ResilientEvaluator::eval_grad`] (and the checkpoint gradient log);
/// shift-rule and finite-difference gradients ride the *batched* energy
/// path — one backend batch of `x` and its `2·n` probes, through
/// [`shift_rule_gradient`] — and replay via the ordinary evaluation log.
struct VqeGradObjective<'e, 'a, B: ?Sized> {
    ev: &'e mut ResilientEvaluator<'a, B>,
    problem: &'e VqeProblem,
    source: GradSource,
    rec: Recorder,
}

fn max_abs(g: &[f64]) -> f64 {
    g.iter().fold(0.0f64, |a, v| a.max(v.abs()))
}

impl<B: GradientBackend + ?Sized> GradObjective for VqeGradObjective<'_, '_, B> {
    fn value(&mut self, x: &[f64]) -> Result<f64> {
        let e = self
            .ev
            .eval(&self.problem.ansatz, x, &self.problem.hamiltonian)?;
        self.rec.note(&[e], None);
        Ok(e)
    }

    fn value_and_grad(&mut self, x: &[f64]) -> Result<(f64, Vec<f64>)> {
        let problem = self.problem;
        let (ansatz, h) = (&problem.ansatz, &problem.hamiltonian);
        let (s, denom) = match self.source {
            GradSource::Adjoint => {
                let (e, g) = self.ev.eval_grad(ansatz, x, h)?;
                self.rec.note(&[e], Some(max_abs(&g)));
                return Ok((e, g));
            }
            GradSource::ParameterShift { shift, denom } => (shift, denom),
            GradSource::FiniteDifference(eps) => (eps, 2.0 * eps),
        };
        // `x` and its `2·n` probes ride one resilient batch, and every
        // energy in it joins the history in batch order — the points an
        // energy-only run of the same optimizer records.
        let ev = &mut *self.ev;
        let mut energies = Vec::new();
        let mut batch = |xs: &[Vec<f64>]| {
            energies = ev.eval_batch(ansatz, xs, h)?;
            Ok(energies.clone())
        };
        let (e, g) = shift_rule_gradient(&mut batch, x, s, denom)?;
        self.rec.note(&energies, Some(max_abs(&g)));
        Ok((e, g))
    }

    fn grad_cost(&self, n_params: usize) -> usize {
        self.source.cost(n_params)
    }
}

/// [`crate::vqe::run_vqe_grad`] with resilience: checkpoint/restart
/// (fused adjoint evaluations snapshot their gradients alongside the
/// energies), bounded retries of transient failures, and prompt abort
/// wrapped in [`Error::Interrupted`].
///
/// `max_evals` is a budget in *energy-evaluation equivalents*: a fused
/// gradient costs [`GradSource::cost`] (≈ 4 for adjoint, `2·n + 1` for
/// shift rules), which keeps gradient-driven and derivative-free runs
/// directly comparable.
pub fn run_vqe_grad_with(
    problem: &VqeProblem,
    backend: &mut dyn GradientBackend,
    optimizer: &mut dyn GradOptimizer,
    source: GradSource,
    x0: &[f64],
    max_evals: usize,
    opts: &ResilienceOptions,
) -> Result<VqeResult> {
    check_vqe(problem, x0)?;
    let _span = nwq_telemetry::span!("vqe.grad.run");
    let fingerprint = vqe_fingerprint(problem, x0, max_evals, Some(&source));
    drive(
        "vqe-grad",
        fingerprint,
        backend,
        optimizer,
        opts,
        |ev, opt| {
            let mut objective = VqeGradObjective {
                ev,
                problem,
                source,
                rec: Recorder::new(&problem.ansatz),
            };
            let r = opt.try_minimize_grad(&mut objective, x0, max_evals)?;
            Ok(objective.rec.finish(r))
        },
    )
}

/// Wraps a [`Backend`] with deterministic, seeded fault injection:
/// evaluation failures surface as transient [`Error::Backend`] and
/// NaN-amplitude faults as non-finite energies, exercising the retry and
/// health-guard paths of the drivers above. Energy-only: it decorates
/// [`Backend`], not [`GradientBackend`].
///
/// Generic over the inner backend, which it owns: a caller holding a
/// warmed backend (a server worker) moves it in for one run and takes it
/// back with [`into_inner`](Self::into_inner).
pub struct FaultyBackend<B> {
    inner: B,
    injector: FaultInjector,
}

impl<B: Backend> FaultyBackend<B> {
    /// Decorates `inner` with faults drawn from `spec`.
    pub fn wrap(inner: B, spec: FaultSpec) -> Self {
        FaultyBackend {
            inner,
            injector: FaultInjector::new(spec),
        }
    }

    /// Faults injected so far, by class.
    pub fn fault_stats(&self) -> FaultStats {
        self.injector.stats()
    }

    /// Removes the decorator, returning the inner backend with whatever
    /// state it cached.
    pub fn into_inner(self) -> B {
        self.inner
    }
}

impl<B: Backend> Backend for FaultyBackend<B> {
    fn energy(&mut self, ansatz: &Circuit, params: &[f64], observable: &PauliOp) -> Result<f64> {
        // Both draws happen before the inner call so the fault sequence is
        // a pure function of the seed, independent of inner behaviour.
        let fail = self.injector.should_fail_eval();
        let nan = self.injector.should_inject_nan();
        if fail {
            return Err(Error::Backend("injected evaluation failure".into()));
        }
        if nan {
            // Models corrupted amplitudes reaching the reduction: the
            // readout "completes" but the result is garbage.
            return Ok(f64::NAN);
        }
        self.inner.energy(ansatz, params, observable)
    }

    fn stats(&self) -> crate::backend::BackendStats {
        self.inner.stats()
    }

    fn name(&self) -> &'static str {
        "faulty"
    }

    fn invalidate_cache(&mut self) {
        self.inner.invalidate_cache();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BackendStats, DirectBackend};
    use nwq_circuit::ParamExpr;
    use nwq_opt::{NelderMead, Spsa};

    fn toy_problem() -> VqeProblem {
        let mut ansatz = Circuit::new(2);
        ansatz
            .ry(0, ParamExpr::var(0))
            .cx(0, 1)
            .ry(1, ParamExpr::var(1));
        VqeProblem {
            hamiltonian: PauliOp::parse("1.0 ZZ + 1.0 XX").unwrap(),
            ansatz,
        }
    }

    fn tmp_checkpoint(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("nwq-resilience-{}-{name}.json", std::process::id()))
    }

    /// Fails every evaluation with a structural (non-transient) error.
    struct BrokenBackend {
        attempts: u64,
    }

    impl Backend for BrokenBackend {
        fn energy(&mut self, _: &Circuit, _: &[f64], _: &PauliOp) -> Result<f64> {
            self.attempts += 1;
            Err(Error::Invalid("backend is permanently broken".into()))
        }
        fn stats(&self) -> BackendStats {
            BackendStats::default()
        }
        fn name(&self) -> &'static str {
            "broken"
        }
    }

    #[test]
    fn content_fingerprints_separate_problems_not_instances() {
        let p = toy_problem();
        // Same content, fresh instances → identical fingerprint.
        let a = problem_content_fingerprint(&p.hamiltonian, &p.ansatz);
        let b = {
            let q = toy_problem();
            problem_content_fingerprint(&q.hamiltonian, &q.ansatz)
        };
        assert_eq!(a, b);
        // Different Hamiltonian coefficient → different fingerprint.
        let h2 = PauliOp::parse("1.0 ZZ + 0.5 XX").unwrap();
        assert_ne!(a, problem_content_fingerprint(&h2, &p.ansatz));
        // Different ansatz structure → different fingerprint.
        let mut other = Circuit::new(2);
        other.ry(1, nwq_circuit::ParamExpr::var(0)).cx(0, 1);
        assert_ne!(
            circuit_content_fingerprint(&p.ansatz),
            circuit_content_fingerprint(&other)
        );
        assert_ne!(a, problem_content_fingerprint(&p.hamiltonian, &other));
        // Gate order matters: ry·cx vs cx·ry are different circuits.
        let mut swapped = Circuit::new(2);
        swapped.cx(0, 1).ry(0, nwq_circuit::ParamExpr::var(0));
        let mut original = Circuit::new(2);
        original.ry(0, nwq_circuit::ParamExpr::var(0)).cx(0, 1);
        assert_ne!(
            circuit_content_fingerprint(&swapped),
            circuit_content_fingerprint(&original)
        );
    }

    #[test]
    fn fatal_error_aborts_promptly_without_poisoning() {
        let problem = toy_problem();
        let mut backend = BrokenBackend { attempts: 0 };
        let mut opt = NelderMead::default();
        let err = run_vqe_with(
            &problem,
            &mut backend,
            &mut opt,
            &[0.4, 0.2],
            500,
            &ResilienceOptions::default(),
        )
        .unwrap_err();
        // Non-transient: no retries, aborted at the very first evaluation.
        assert_eq!(backend.attempts, 1);
        match err {
            Error::Interrupted { checkpoint, cause } => {
                assert!(checkpoint.is_none());
                assert!(matches!(*cause, Error::Invalid(_)));
            }
            other => panic!("expected Interrupted, got {other}"),
        }
    }

    #[test]
    fn retries_recover_from_injected_eval_failures() {
        let problem = toy_problem();
        let mut backend =
            FaultyBackend::wrap(DirectBackend::new(), FaultSpec::eval_failures(0.1, 42));
        let mut opt = NelderMead::default();
        let r = run_vqe_with(
            &problem,
            &mut backend,
            &mut opt,
            &[1.0, 2.5],
            2000,
            &ResilienceOptions::default(),
        )
        .unwrap();
        assert!((r.energy + 2.0).abs() < 1e-4, "energy {}", r.energy);
        assert!(
            backend.fault_stats().eval_failures > 0,
            "10% fault rate over a long run must fire"
        );
    }

    #[test]
    fn nan_injection_is_detected_and_retried() {
        let problem = toy_problem();
        let spec = FaultSpec {
            nan_amplitude: 0.1,
            seed: 9,
            ..FaultSpec::default()
        };
        let mut backend = FaultyBackend::wrap(DirectBackend::new(), spec);
        let mut opt = NelderMead::default();
        let r = run_vqe_with(
            &problem,
            &mut backend,
            &mut opt,
            &[1.0, 2.5],
            2000,
            &ResilienceOptions::default(),
        )
        .unwrap();
        assert!(r.energy.is_finite());
        assert!((r.energy + 2.0).abs() < 1e-4, "energy {}", r.energy);
        assert!(backend.fault_stats().nan_amplitudes > 0);
    }

    #[test]
    fn exhausted_retry_budget_interrupts_with_checkpoint() {
        let problem = toy_problem();
        let path = tmp_checkpoint("exhausted");
        let spec = FaultSpec::eval_failures(1.0, 3); // every evaluation fails
        let mut backend = FaultyBackend::wrap(DirectBackend::new(), spec);
        let mut opt = NelderMead::default();
        let opts = ResilienceOptions {
            checkpoint: Some(CheckpointConfig::new(&path)),
            retry: RetryPolicy { max_retries: 2 },
            ..Default::default()
        };
        let err =
            run_vqe_with(&problem, &mut backend, &mut opt, &[0.4, 0.2], 500, &opts).unwrap_err();
        match err {
            Error::Interrupted { checkpoint, cause } => {
                assert_eq!(checkpoint.as_deref(), path.to_str());
                assert!(cause.is_transient(), "cause should be the backend fault");
            }
            other => panic!("expected Interrupted, got {other}"),
        }
        // 1 initial try + 2 retries, nothing more.
        assert_eq!(backend.fault_stats().eval_failures, 3);
        let resumed = ResumeState::load(&path).unwrap();
        assert_eq!(resumed.kind(), "vqe");
        assert_eq!(resumed.evaluations(), 0); // nothing ever succeeded
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn vqe_kill_and_resume_is_bitwise_identical() {
        let problem = toy_problem();
        let x0 = [1.0, 2.5];
        let max_evals = 400;
        let clean = {
            let mut backend = DirectBackend::new();
            let mut opt = NelderMead::default();
            crate::vqe::run_vqe(&problem, &mut backend, &mut opt, &x0, max_evals).unwrap()
        };

        let path = tmp_checkpoint("vqe-kill");
        let killed = {
            let mut backend = DirectBackend::new();
            let mut opt = NelderMead::default();
            let opts = ResilienceOptions {
                checkpoint: Some(CheckpointConfig::new(&path)),
                abort_after_evals: Some(37),
                ..Default::default()
            };
            run_vqe_with(&problem, &mut backend, &mut opt, &x0, max_evals, &opts).unwrap_err()
        };
        assert!(
            matches!(
                killed,
                Error::Interrupted {
                    checkpoint: Some(_),
                    ..
                }
            ),
            "{killed}"
        );

        let resumed = {
            let mut backend = DirectBackend::new();
            let mut opt = NelderMead::default();
            let opts = ResilienceOptions {
                resume: Some(ResumeState::load(&path).unwrap()),
                ..Default::default()
            };
            run_vqe_with(&problem, &mut backend, &mut opt, &x0, max_evals, &opts).unwrap()
        };
        assert_eq!(resumed.energy.to_bits(), clean.energy.to_bits());
        assert_eq!(resumed.evaluations, clean.evaluations);
        assert_eq!(resumed.params.len(), clean.params.len());
        for (a, b) in resumed.params.iter().zip(&clean.params) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(resumed.history, clean.history);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn spsa_vqe_pair_batching_preserves_scalar_trajectory() {
        // The driver feeds SPSA's ±perturbation pairs to the backend as
        // width-2 `eval_batch` calls. The result must be bitwise what the
        // scalar entry point produces.
        let problem = toy_problem();
        let x0 = [0.9, 0.4];
        let mk_opt = || Spsa {
            a: 0.3,
            ..Default::default()
        };
        let scalar = {
            let mut backend = DirectBackend::new();
            mk_opt()
                .try_minimize(
                    &mut |t: &[f64]| backend.energy(&problem.ansatz, t, &problem.hamiltonian),
                    &x0,
                    240,
                )
                .unwrap()
        };
        let mut backend = DirectBackend::new();
        let r = crate::vqe::run_vqe(&problem, &mut backend, &mut mk_opt(), &x0, 240).unwrap();
        assert_eq!(r.energy.to_bits(), scalar.value.to_bits());
        assert_eq!(r.evaluations, scalar.evals);
        for (a, b) in r.params.iter().zip(&scalar.params) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn spsa_kill_and_resume_is_bitwise_identical() {
        let problem = toy_problem();
        let x0 = [0.9, 0.4];
        let max_evals = 240;
        let mk_opt = || Spsa {
            a: 0.3,
            ..Default::default()
        };
        let clean = {
            let mut backend = DirectBackend::new();
            let mut opt = mk_opt();
            crate::vqe::run_vqe(&problem, &mut backend, &mut opt, &x0, max_evals).unwrap()
        };
        let path = tmp_checkpoint("spsa-kill");
        {
            let mut backend = DirectBackend::new();
            let mut opt = mk_opt();
            let opts = ResilienceOptions {
                checkpoint: Some(CheckpointConfig::new(&path)),
                abort_after_evals: Some(51),
                ..Default::default()
            };
            run_vqe_with(&problem, &mut backend, &mut opt, &x0, max_evals, &opts).unwrap_err();
        }
        let resumed = {
            let mut backend = DirectBackend::new();
            let mut opt = mk_opt();
            let opts = ResilienceOptions {
                resume: Some(ResumeState::load(&path).unwrap()),
                ..Default::default()
            };
            run_vqe_with(&problem, &mut backend, &mut opt, &x0, max_evals, &opts).unwrap()
        };
        assert_eq!(resumed.energy.to_bits(), clean.energy.to_bits());
        assert_eq!(resumed.evaluations, clean.evaluations);
        for (a, b) in resumed.params.iter().zip(&clean.params) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_rejects_mismatched_problem_and_optimizer() {
        let problem = toy_problem();
        let path = tmp_checkpoint("mismatch");
        {
            let mut backend = DirectBackend::new();
            let mut opt = NelderMead::default();
            let opts = ResilienceOptions {
                checkpoint: Some(CheckpointConfig::new(&path)),
                ..Default::default()
            };
            run_vqe_with(&problem, &mut backend, &mut opt, &[0.4, 0.2], 200, &opts).unwrap();
        }
        let resume = ResumeState::load(&path).unwrap();
        // Different starting point → fingerprint mismatch.
        let mut backend = DirectBackend::new();
        let mut opt = NelderMead::default();
        let opts = ResilienceOptions {
            resume: Some(resume.clone()),
            ..Default::default()
        };
        let err =
            run_vqe_with(&problem, &mut backend, &mut opt, &[0.5, 0.2], 200, &opts).unwrap_err();
        assert!(matches!(err, Error::Invalid(_)), "{err}");
        // Different optimizer → rejected by name.
        let mut spsa = Spsa::default();
        let err =
            run_vqe_with(&problem, &mut backend, &mut spsa, &[0.4, 0.2], 200, &opts).unwrap_err();
        assert!(err.to_string().contains("optimizer"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn version_1_checkpoint_is_rejected_by_version() {
        // Version 1 stored content fingerprints of a retired encoding;
        // version 2 logged energy-only Adam and L-BFGS trajectories that
        // the central-difference gradient loop no longer visits.
        for version in [1, 2] {
            let path = tmp_checkpoint(&format!("v{version}"));
            std::fs::write(&path, format!(r#"{{"version": {version}, "kind": "vqe"}}"#)).unwrap();
            let err = ResumeState::load(&path).unwrap_err();
            assert!(matches!(err, Error::Invalid(_)), "{err}");
            assert!(
                err.to_string().contains("unsupported checkpoint version"),
                "{err}"
            );
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn checkpoint_write_is_atomic_no_tmp_left_behind() {
        let problem = toy_problem();
        let path = tmp_checkpoint("atomic");
        let mut backend = DirectBackend::new();
        let mut opt = NelderMead::default();
        let opts = ResilienceOptions {
            checkpoint: Some(CheckpointConfig {
                path: path.clone(),
                every_improvements: 1,
            }),
            ..Default::default()
        };
        run_vqe_with(&problem, &mut backend, &mut opt, &[1.0, 2.5], 300, &opts).unwrap();
        assert!(path.exists());
        assert!(!PathBuf::from(format!("{}.tmp", path.display())).exists());
        let resumed = ResumeState::load(&path).unwrap();
        assert!(resumed.best_energy().unwrap() < -1.9);
        std::fs::remove_file(&path).ok();
    }

    fn h2_grad_problem() -> (VqeProblem, f64) {
        let m = nwq_chem::molecules::h2_sto3g();
        let h = m.to_qubit_hamiltonian().unwrap();
        let exact = crate::exact::ground_energy_default(&h).unwrap();
        let ansatz = nwq_chem::uccsd::uccsd_ansatz(4, 2).unwrap();
        (
            VqeProblem {
                hamiltonian: h,
                ansatz,
            },
            exact,
        )
    }

    #[test]
    fn adjoint_gradient_matches_parameter_shift_rule() {
        // Acceptance bar: adjoint = analytic, parameter shift (π/4 rule,
        // exact for excitation generators) = analytic → agreement to 1e-10.
        let (problem, _) = h2_grad_problem();
        let (ansatz, h) = (&problem.ansatz, &problem.hamiltonian);
        let theta = [0.11, -0.23, 0.37];
        let mut backend = DirectBackend::new();
        let (e, g) = backend.energy_and_gradient(ansatz, &theta, h).unwrap();
        let mut batch = |xs: &[Vec<f64>]| backend.energy_batch(ansatz, xs, h);
        let s = std::f64::consts::FRAC_PI_4;
        let (e_plain, shift) = shift_rule_gradient(&mut batch, &theta, s, 1.0).unwrap();
        assert!((e - e_plain).abs() < 1e-12, "{e} vs {e_plain}");
        for (j, (gj, sj)) in g.iter().zip(&shift).enumerate() {
            assert!((gj - sj).abs() < 1e-10, "param {j}: {gj} vs {sj}");
        }
    }

    #[test]
    fn lbfgs_adjoint_h2_chemical_accuracy_within_17_equivalents() {
        // The headline claim: adjoint gradients + L-BFGS solve H2 in ≤ 17
        // energy-evaluation equivalents, vs 85 plain evaluations for the
        // committed Nelder–Mead baseline — a 5× reduction.
        let (problem, exact) = h2_grad_problem();
        let x0 = vec![0.0; problem.ansatz.n_params()];
        let mut backend = DirectBackend::new();
        let mut opt = nwq_opt::Lbfgs::default();
        let r = crate::vqe::run_vqe_grad(
            &problem,
            &mut backend,
            &mut opt,
            GradSource::Adjoint,
            &x0,
            17,
        )
        .unwrap();
        assert!(r.evaluations <= 17, "used {} equivalents", r.evaluations);
        assert!(
            (r.energy - exact).abs() < 1.6e-3,
            "E {} vs FCI {exact} in {} equivalents",
            r.energy,
            r.evaluations
        );
        // The adjoint trajectory is pinned exactly.
        assert_eq!(r.evaluations, 15);
        assert_eq!(r.energy.to_bits(), 0xbff2_3258_ab16_c7ff, "{}", r.energy);
    }

    #[test]
    fn adam_adjoint_h2_reaches_chemical_accuracy() {
        let (problem, exact) = h2_grad_problem();
        let x0 = vec![0.0; problem.ansatz.n_params()];
        let mut backend = DirectBackend::new();
        let mut opt = nwq_opt::Adam::default();
        let r = crate::vqe::run_vqe_grad(
            &problem,
            &mut backend,
            &mut opt,
            GradSource::Adjoint,
            &x0,
            400,
        )
        .unwrap();
        assert!(
            (r.energy - exact).abs() < 1.6e-3,
            "E {} vs FCI {exact} in {} equivalents",
            r.energy,
            r.evaluations
        );
        // The adjoint trajectory is pinned exactly.
        assert_eq!(r.evaluations, 400);
        assert_eq!(r.energy.to_bits(), 0xbff2_3258_c237_29df, "{}", r.energy);
    }

    #[test]
    fn energy_only_runs_match_the_finite_difference_grad_path() {
        // Energy-only Adam and L-BFGS are their gradient loop on central
        // differences: the same points, in the same order, as a
        // `GradSource::FiniteDifference` run — so the same energy bits,
        // evaluation count and history. Both reach chemical accuracy on
        // UCCSD, where a π/2 shift rule reads a zero gradient at HF.
        let (problem, exact) = h2_grad_problem();
        let x0 = vec![0.0; problem.ansatz.n_params()];
        let optimizers: [fn() -> Box<dyn GradOptimizer>; 2] = [
            || Box::new(nwq_opt::Lbfgs::default()),
            || Box::new(nwq_opt::Adam::default()),
        ];
        for make in optimizers {
            let mut backend = DirectBackend::new();
            let energy_only =
                crate::vqe::run_vqe(&problem, &mut backend, &mut *make(), &x0, 4000).unwrap();
            let grad = crate::vqe::run_vqe_grad(
                &problem,
                &mut DirectBackend::new(),
                &mut *make(),
                GradSource::FiniteDifference(nwq_opt::FD_STEP),
                &x0,
                4000,
            )
            .unwrap();
            assert!((energy_only.energy - exact).abs() < 1.6e-3);
            assert_eq!(energy_only.energy.to_bits(), grad.energy.to_bits());
            assert_eq!(energy_only.evaluations, grad.evaluations);
            assert_eq!(energy_only.history, grad.history);
        }
    }

    #[test]
    fn shift_source_run_agrees_with_adjoint_run() {
        // Same optimizer, two gradient sources: the π/4 shift rule is
        // exact for UCCSD, so both runs must land at the same minimum
        // (within optimizer tolerance), with the shift run charged
        // 2n + 1 equivalents per gradient.
        let (problem, exact) = h2_grad_problem();
        let x0 = vec![0.0; problem.ansatz.n_params()];
        let run = |source: GradSource, budget: usize| {
            let mut backend = DirectBackend::new();
            let mut opt = nwq_opt::Lbfgs::default();
            crate::vqe::run_vqe_grad(&problem, &mut backend, &mut opt, source, &x0, budget).unwrap()
        };
        let adj = run(GradSource::Adjoint, 60);
        let shift = run(GradSource::shift_excitations(), 200);
        assert!((adj.energy - exact).abs() < 1.6e-3);
        assert!((shift.energy - exact).abs() < 1.6e-3);
        assert!(
            (adj.energy - shift.energy).abs() < 1e-6,
            "adjoint {} vs shift {}",
            adj.energy,
            shift.energy
        );
    }

    /// Kills a gradient run from `source` after `kill_after` fresh
    /// evaluations, resumes it from the checkpoint, and checks that it
    /// ends bitwise where an uninterrupted run does.
    fn grad_kill_and_resume(source: GradSource, kill_after: usize) {
        let (problem, _) = h2_grad_problem();
        let x0 = vec![0.0; problem.ansatz.n_params()];
        let run = |opts: &ResilienceOptions| {
            let mut backend = DirectBackend::new();
            let mut opt = nwq_opt::Lbfgs::default();
            run_vqe_grad_with(&problem, &mut backend, &mut opt, source, &x0, 60, opts)
        };
        let clean = run(&ResilienceOptions::default()).unwrap();
        let path = tmp_checkpoint(&format!("grad-kill-{}-{kill_after}", source.name()));
        let err = run(&ResilienceOptions {
            checkpoint: Some(CheckpointConfig::new(&path)),
            abort_after_evals: Some(kill_after),
            ..Default::default()
        })
        .unwrap_err();
        assert!(
            matches!(
                err,
                Error::Interrupted {
                    checkpoint: Some(_),
                    ..
                }
            ),
            "{err}"
        );
        let state = ResumeState::load(&path).unwrap();
        assert_eq!(state.kind(), "vqe-grad");
        assert_eq!(state.evaluations(), kill_after);
        let resumed = run(&ResilienceOptions {
            resume: Some(state),
            ..Default::default()
        })
        .unwrap();
        assert_same_run(&resumed, &clean);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn grad_kill_and_resume_is_bitwise_identical() {
        // The gradient log must checkpoint and replay alongside the energy
        // log for every gradient source: fused adjoint evaluations replay
        // their gradients, shift-rule and finite-difference batches replay
        // energy by energy. On H2 the two-term sources evaluate x and its
        // probes as 7-point batches at evaluations 0–6 and 9–15, so both
        // of their kill points land inside a batch.
        let two_term = [5, 11];
        for (source, kill_points) in [
            (GradSource::Adjoint, &[5][..]),
            (GradSource::shift_excitations(), &two_term[..]),
            (
                GradSource::FiniteDifference(nwq_opt::FD_STEP),
                &two_term[..],
            ),
        ] {
            for &kill_after in kill_points {
                grad_kill_and_resume(source, kill_after);
            }
        }
    }

    #[test]
    fn grad_checkpoint_rejects_plain_vqe_resume() {
        // A plain VQE checkpoint has no gradient log; resuming a gradient
        // run from it must fail (kind mismatch) rather than silently
        // replaying energies without gradients.
        let problem = toy_problem();
        let path = tmp_checkpoint("grad-kind-mismatch");
        {
            let mut backend = DirectBackend::new();
            let mut opt = NelderMead::default();
            let opts = ResilienceOptions {
                checkpoint: Some(CheckpointConfig::new(&path)),
                ..Default::default()
            };
            run_vqe_with(&problem, &mut backend, &mut opt, &[1.0, 2.5], 200, &opts).unwrap();
        }
        let (grad_problem, _) = h2_grad_problem();
        let mut backend = DirectBackend::new();
        let mut opt = nwq_opt::Lbfgs::default();
        let opts = ResilienceOptions {
            resume: Some(ResumeState::load(&path).unwrap()),
            ..Default::default()
        };
        let err = run_vqe_grad_with(
            &grad_problem,
            &mut backend,
            &mut opt,
            GradSource::Adjoint,
            &vec![0.0; grad_problem.ansatz.n_params()],
            60,
            &opts,
        )
        .unwrap_err();
        assert!(matches!(err, Error::Invalid(_)), "{err}");
        std::fs::remove_file(&path).ok();
    }

    /// A [`DirectBackend`] that logs the method and width of every call
    /// it serves — `e` (energy), `b<n>` (energy batch of n), `g` (fused
    /// energy and gradient) — and counts cache invalidations. When
    /// `flaky`, its second fused evaluation fails transiently and its
    /// third returns a NaN gradient component.
    #[derive(Default)]
    struct TestBackend {
        inner: DirectBackend,
        calls: Vec<String>,
        invalidations: usize,
        flaky: bool,
    }

    impl TestBackend {
        /// The call log, run-length encoded: `e*3 b7 g*2 …`.
        fn pattern(&self) -> String {
            let mut runs: Vec<(&str, usize)> = Vec::new();
            for c in &self.calls {
                match runs.last_mut() {
                    Some((last, n)) if *last == c => *n += 1,
                    _ => runs.push((c, 1)),
                }
            }
            let runs: Vec<String> = runs
                .iter()
                .map(|&(c, n)| match n {
                    1 => c.to_string(),
                    n => format!("{c}*{n}"),
                })
                .collect();
            runs.join(" ")
        }
    }

    impl Backend for TestBackend {
        fn energy(&mut self, ansatz: &Circuit, params: &[f64], h: &PauliOp) -> Result<f64> {
            self.calls.push("e".into());
            self.inner.energy(ansatz, params, h)
        }
        fn energy_batch(
            &mut self,
            ansatz: &Circuit,
            xs: &[Vec<f64>],
            h: &PauliOp,
        ) -> Result<Vec<f64>> {
            self.calls.push(format!("b{}", xs.len()));
            self.inner.energy_batch(ansatz, xs, h)
        }
        fn stats(&self) -> BackendStats {
            self.inner.stats()
        }
        fn name(&self) -> &'static str {
            "test"
        }
        fn invalidate_cache(&mut self) {
            self.invalidations += 1;
            self.inner.invalidate_cache();
        }
    }

    impl GradientBackend for TestBackend {
        fn energy_and_gradient(
            &mut self,
            ansatz: &Circuit,
            params: &[f64],
            h: &PauliOp,
        ) -> Result<(f64, Vec<f64>)> {
            self.calls.push("g".into());
            let grad_calls = self.calls.iter().filter(|c| *c == "g").count();
            let (e, mut g) = match (self.flaky, grad_calls) {
                (true, 2) => return Err(Error::Backend("transient gradient failure".into())),
                _ => self.inner.energy_and_gradient(ansatz, params, h)?,
            };
            if self.flaky && grad_calls == 3 {
                g[0] = f64::NAN;
            }
            Ok((e, g))
        }
        fn as_backend(&mut self) -> &mut dyn Backend {
            self
        }
    }

    /// Asserts two runs ended bitwise alike: energy, evaluations,
    /// parameters and history.
    fn assert_same_run(a: &VqeResult, b: &VqeResult) {
        assert_eq!(a.energy.to_bits(), b.energy.to_bits());
        assert_eq!(a.evaluations, b.evaluations);
        let bits = |r: &VqeResult| r.params.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a), bits(b));
        assert_eq!(a.history, b.history);
    }

    #[test]
    fn grad_retries_recover_from_transient_and_nan_gradients() {
        let (problem, _) = h2_grad_problem();
        let x0 = vec![0.0; problem.ansatz.n_params()];
        let run = |backend: &mut dyn GradientBackend, retry: RetryPolicy| {
            let opts = ResilienceOptions {
                retry,
                ..Default::default()
            };
            let mut opt = nwq_opt::Lbfgs::default();
            let source = GradSource::Adjoint;
            run_vqe_grad_with(&problem, backend, &mut opt, source, &x0, 60, &opts)
        };
        let clean = run(&mut DirectBackend::new(), RetryPolicy::default()).unwrap();
        let flaky = || TestBackend {
            flaky: true,
            ..Default::default()
        };
        let mut backend = flaky();
        let r = run(&mut backend, RetryPolicy::default()).unwrap();
        // Both faults were retried after dropping the backend's cache,
        // and the run retraced the clean trajectory.
        assert_eq!(backend.invalidations, 2);
        assert_same_run(&r, &clean);

        let mut backend = flaky();
        match run(&mut backend, RetryPolicy::none()).unwrap_err() {
            Error::Interrupted { checkpoint, cause } => {
                assert!(checkpoint.is_none());
                assert!(cause.is_transient(), "{cause}");
            }
            other => panic!("expected Interrupted, got {other}"),
        }
        assert_eq!(backend.pattern(), "g e*2 g");
        assert_eq!(backend.invalidations, 0);
    }

    #[test]
    fn grad_and_energy_runs_send_pinned_backend_calls() {
        // The backend sees the same calls, method and batch width, for
        // every optimizer and gradient source. A resumed run sends only
        // the fresh remainder, as scalar energies while a batch straddles
        // the replay boundary.
        let toy = toy_problem();
        let energy_run = |opt: &mut dyn Optimizer, x0: &[f64], budget: usize| {
            let mut b = TestBackend::default();
            let opts = ResilienceOptions::default();
            run_vqe_with(&toy, &mut b, opt, x0, budget, &opts).unwrap();
            b.pattern()
        };
        assert_eq!(
            energy_run(&mut NelderMead::default(), &[1.0, 2.5], 400),
            "e*89"
        );
        let mut spsa = Spsa {
            a: 0.3,
            ..Default::default()
        };
        assert_eq!(
            energy_run(&mut spsa, &[0.9, 0.4], 16),
            "e b2 e b2 e b2 e b2 e b2 e"
        );

        let (h2, _) = h2_grad_problem();
        let x0 = vec![0.0; h2.ansatz.n_params()];
        let path = tmp_checkpoint("pinned-calls");
        let grad_run = |source: GradSource, opts: &ResilienceOptions| {
            let mut b = TestBackend::default();
            let mut opt = nwq_opt::Lbfgs::default();
            let r = run_vqe_grad_with(&h2, &mut b, &mut opt, source, &x0, 60, opts);
            (r, b.pattern())
        };
        let shift = GradSource::shift_excitations();
        let clean = ResilienceOptions::default();
        let (_, calls) = grad_run(shift, &clean);
        assert_eq!(calls, "b7 e*2 b7 e b7 e b7 e b7");
        let (_, calls) = grad_run(GradSource::Adjoint, &clean);
        assert_eq!(calls, "g e*2 g e g e g e g");

        // Killed after 11 fresh evaluations: inside the second 7-point
        // batch (evaluations 10–16), which falls back to scalar energies.
        let killed = ResilienceOptions {
            checkpoint: Some(CheckpointConfig::new(&path)),
            abort_after_evals: Some(11),
            ..Default::default()
        };
        let (r, calls) = grad_run(shift, &killed);
        assert!(r.is_err());
        assert_eq!(calls, "b7 e*4");
        let resumed = ResilienceOptions {
            resume: Some(ResumeState::load(&path).unwrap()),
            ..Default::default()
        };
        let (r, calls) = grad_run(shift, &resumed);
        assert!(r.is_ok());
        assert_eq!(calls, "e*6 b7 e b7 e b7");
        std::fs::remove_file(&path).ok();
    }
}
