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

use crate::backend::{Backend, BoxedBackend, GradientBackend};
use crate::vqe::{GradSource, VqeProblem, VqeResult};
use nwq_circuit::Circuit;
use nwq_common::{Error, Result};
use nwq_dist::FaultInjector;
use nwq_opt::{shift_rule_gradient, GradObjective, GradOptimizer, Optimizer};
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

    /// The run kind recorded in the checkpoint (`"vqe"` or `"adapt"`).
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

    /// The per-evaluation gradient log, parallel to `eval_log`: `None`
    /// for plain energy evaluations, `Some(∂E/∂θ)` for fused adjoint
    /// evaluations. Checkpoints written by gradient-free runs have no
    /// `grad_log` field; that reads as all-`None`.
    fn grad_log(&self) -> Result<Vec<Option<Vec<f64>>>> {
        let Some(items) = self.doc.get("grad_log").and_then(JsonValue::as_array) else {
            return Ok(vec![None; self.evaluations()]);
        };
        items
            .iter()
            .map(|v| {
                if matches!(v, JsonValue::Null) {
                    return Ok(None);
                }
                let entries = v.as_array().ok_or_else(|| {
                    Error::Invalid("non-array entry in checkpoint grad_log".into())
                })?;
                entries
                    .iter()
                    .map(|g| {
                        g.as_f64().ok_or_else(|| {
                            Error::Invalid("non-numeric entry in checkpoint grad_log".into())
                        })
                    })
                    .collect::<Result<Vec<f64>>>()
                    .map(Some)
            })
            .collect()
    }

    /// The ordered successful-energy log to replay.
    fn eval_log(&self) -> Result<Vec<f64>> {
        let items = self
            .doc
            .get("eval_log")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| Error::Invalid("checkpoint is missing eval_log".into()))?;
        items
            .iter()
            .map(|v| {
                v.as_f64().ok_or_else(|| {
                    Error::Invalid("non-numeric entry in checkpoint eval_log".into())
                })
            })
            .collect()
    }

    /// Verifies the checkpoint matches this run (kind, problem
    /// fingerprint, optimizer), restores the optimizer configuration, and
    /// returns the evaluation log to replay.
    fn prepare(
        &self,
        kind: &str,
        fingerprint: &JsonValue,
        optimizer: &mut dyn Optimizer,
    ) -> Result<Vec<f64>> {
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
        self.eval_log()
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

/// The shared evaluation engine behind [`run_vqe_with`] and
/// [`crate::adapt::run_adapt_vqe_with`]: replays the resumed prefix,
/// retries transient failures with cache invalidation, enforces the kill
/// switch, tracks the best point, and writes checkpoints.
/// The execution engine a [`ResilientEvaluator`] drives: a plain energy
/// backend for derivative-free loops, a gradient-capable one when the
/// optimizer consumes fused adjoint evaluations.
pub(crate) enum Engine<'a> {
    Plain(&'a mut dyn Backend),
    Grad(&'a mut dyn GradientBackend),
}

impl Engine<'_> {
    fn plain(&mut self) -> &mut dyn Backend {
        match self {
            Engine::Plain(b) => *b,
            Engine::Grad(g) => g.as_backend(),
        }
    }
}

pub(crate) struct ResilientEvaluator<'a> {
    engine: Engine<'a>,
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

impl<'a> ResilientEvaluator<'a> {
    pub(crate) fn new(
        backend: &'a mut dyn Backend,
        opts: &ResilienceOptions,
        header: Vec<(String, JsonValue)>,
        resumed_log: Vec<f64>,
    ) -> Self {
        let resumed_grads = vec![None; resumed_log.len()];
        Self::with_engine(
            Engine::Plain(backend),
            opts,
            header,
            resumed_log,
            resumed_grads,
        )
    }

    /// A gradient-capable evaluator: like [`new`](Self::new) but driving a
    /// [`GradientBackend`] and replaying `resumed_grads` (parallel to
    /// `resumed_log`) for fused evaluations.
    pub(crate) fn new_grad(
        backend: &'a mut dyn GradientBackend,
        opts: &ResilienceOptions,
        header: Vec<(String, JsonValue)>,
        resumed_log: Vec<f64>,
        resumed_grads: Vec<Option<Vec<f64>>>,
    ) -> Self {
        Self::with_engine(
            Engine::Grad(backend),
            opts,
            header,
            resumed_log,
            resumed_grads,
        )
    }

    fn with_engine(
        engine: Engine<'a>,
        opts: &ResilienceOptions,
        header: Vec<(String, JsonValue)>,
        resumed_log: Vec<f64>,
        resumed_grads: Vec<Option<Vec<f64>>>,
    ) -> Self {
        debug_assert_eq!(resumed_log.len(), resumed_grads.len());
        let replay_until = resumed_log.len();
        ResilientEvaluator {
            engine,
            retry: opts.retry,
            checkpoint: opts.checkpoint.clone(),
            abort_after_evals: opts.abort_after_evals,
            header,
            extra: Vec::new(),
            eval_log: resumed_log,
            grad_log: resumed_grads,
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

    /// One resilient objective evaluation at `theta`.
    pub(crate) fn eval(&mut self, ansatz: &Circuit, theta: &[f64], h: &PauliOp) -> Result<f64> {
        if self.cursor < self.replay_until {
            let e = self.eval_log[self.cursor];
            self.cursor += 1;
            nwq_telemetry::counter_add("resilience.evals_replayed", 1);
            self.note_success(e, theta);
            return Ok(e);
        }
        if let Some(limit) = self.abort_after_evals {
            if self.fresh_evals >= limit {
                return Err(Error::Invalid(format!(
                    "kill switch tripped after {limit} fresh evaluations"
                )));
            }
        }
        let mut attempt = 0;
        loop {
            let outcome = self.engine.plain().energy(ansatz, theta, h).and_then(|e| {
                if e.is_finite() {
                    Ok(e)
                } else {
                    nwq_telemetry::counter_add("resilience.nonfinite_detected", 1);
                    Err(Error::Numerical(
                        "non-finite energy returned by backend".into(),
                    ))
                }
            });
            match outcome {
                Ok(e) => {
                    self.cursor += 1;
                    self.fresh_evals += 1;
                    self.eval_log.push(e);
                    self.grad_log.push(None);
                    let improved = self.note_success(e, theta);
                    if improved {
                        self.maybe_checkpoint()?;
                    }
                    return Ok(e);
                }
                Err(e) if e.is_transient() && attempt < self.retry.max_retries => {
                    attempt += 1;
                    nwq_telemetry::counter_add("resilience.retries", 1);
                    // A transient fault may have poisoned cached derived
                    // state; drop it so the retry recomputes from scratch.
                    self.engine.plain().invalidate_cache();
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// One resilient *fused* energy-and-gradient evaluation at `theta`
    /// (gradient engines only). Resumed prefixes are answered from the
    /// checkpoint's parallel gradient log without touching the backend —
    /// a replayed position recorded without a gradient means the resumed
    /// trajectory diverged and is an error.
    pub(crate) fn eval_grad(
        &mut self,
        ansatz: &Circuit,
        theta: &[f64],
        h: &PauliOp,
    ) -> Result<(f64, Vec<f64>)> {
        if self.cursor < self.replay_until {
            let e = self.eval_log[self.cursor];
            let g = self.grad_log[self.cursor].clone().ok_or_else(|| {
                Error::Invalid(
                    "checkpoint replay diverged: gradient requested at an \
                     evaluation recorded without one"
                        .into(),
                )
            })?;
            self.cursor += 1;
            nwq_telemetry::counter_add("resilience.evals_replayed", 1);
            self.note_success(e, theta);
            return Ok((e, g));
        }
        if let Some(limit) = self.abort_after_evals {
            if self.fresh_evals >= limit {
                return Err(Error::Invalid(format!(
                    "kill switch tripped after {limit} fresh evaluations"
                )));
            }
        }
        let mut attempt = 0;
        loop {
            let outcome = match &mut self.engine {
                Engine::Grad(b) => b.energy_and_gradient(ansatz, theta, h),
                Engine::Plain(_) => Err(Error::Invalid(
                    "fused gradient evaluation requires a gradient-capable backend".into(),
                )),
            }
            .and_then(|(e, g)| {
                if e.is_finite() && g.iter().all(|v| v.is_finite()) {
                    Ok((e, g))
                } else {
                    nwq_telemetry::counter_add("resilience.nonfinite_detected", 1);
                    Err(Error::Numerical(
                        "non-finite energy or gradient returned by backend".into(),
                    ))
                }
            });
            match outcome {
                Ok((e, g)) => {
                    self.cursor += 1;
                    self.fresh_evals += 1;
                    self.eval_log.push(e);
                    self.grad_log.push(Some(g.clone()));
                    let improved = self.note_success(e, theta);
                    if improved {
                        self.maybe_checkpoint()?;
                    }
                    return Ok((e, g));
                }
                Err(e) if e.is_transient() && attempt < self.retry.max_retries => {
                    attempt += 1;
                    nwq_telemetry::counter_add("resilience.retries", 1);
                    self.engine.plain().invalidate_cache();
                }
                Err(e) => return Err(e),
            }
        }
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
        let replaying = self.cursor < self.replay_until;
        let kill_mid_batch = self
            .abort_after_evals
            .is_some_and(|limit| self.fresh_evals + thetas.len() > limit);
        if thetas.len() < 2 || replaying || kill_mid_batch {
            return thetas.iter().map(|t| self.eval(ansatz, t, h)).collect();
        }
        let mut attempt = 0;
        loop {
            let outcome = self
                .engine
                .plain()
                .energy_batch(ansatz, thetas, h)
                .and_then(|es| {
                    if es.iter().all(|e| e.is_finite()) {
                        Ok(es)
                    } else {
                        nwq_telemetry::counter_add("resilience.nonfinite_detected", 1);
                        Err(Error::Numerical(
                            "non-finite energy returned by backend".into(),
                        ))
                    }
                });
            match outcome {
                Ok(es) => {
                    let mut improved = false;
                    for (e, theta) in es.iter().zip(thetas) {
                        self.cursor += 1;
                        self.fresh_evals += 1;
                        self.eval_log.push(*e);
                        self.grad_log.push(None);
                        improved |= self.note_success(*e, theta);
                    }
                    if improved {
                        self.maybe_checkpoint()?;
                    }
                    return Ok(es);
                }
                Err(e) if e.is_transient() && attempt < self.retry.max_retries => {
                    attempt += 1;
                    nwq_telemetry::counter_add("resilience.retries", 1);
                    self.engine.plain().invalidate_cache();
                }
                Err(e) => return Err(e),
            }
        }
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
        let mut fields = self.header.clone();
        fields.extend(self.extra.iter().cloned());
        fields.push((
            "eval_log".into(),
            JsonValue::Array(self.eval_log.iter().map(|&e| JsonValue::Float(e)).collect()),
        ));
        if self.grad_log.iter().any(Option::is_some) {
            fields.push((
                "grad_log".into(),
                JsonValue::Array(
                    self.grad_log
                        .iter()
                        .map(|g| match g {
                            None => JsonValue::Null,
                            Some(v) => {
                                JsonValue::Array(v.iter().map(|&x| JsonValue::Float(x)).collect())
                            }
                        })
                        .collect(),
                ),
            ));
        }
        let best = if self.best_params.is_empty() {
            JsonValue::Null
        } else {
            JsonValue::Object(vec![
                ("energy".into(), JsonValue::Float(self.best_energy)),
                (
                    "params".into(),
                    JsonValue::Array(
                        self.best_params
                            .iter()
                            .map(|&p| JsonValue::Float(p))
                            .collect(),
                    ),
                ),
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

    /// Final snapshot after a successful run (propagates write errors).
    pub(crate) fn checkpoint_final(&mut self) -> Result<()> {
        self.write_checkpoint()
    }

    /// Best-effort snapshot on the way down; returns the path on success
    /// for embedding in [`Error::Interrupted`].
    pub(crate) fn checkpoint_on_failure(&mut self) -> Option<String> {
        let path = self.checkpoint.as_ref()?.path.display().to_string();
        self.write_checkpoint().ok()?;
        Some(path)
    }

    /// Wraps `cause` in [`Error::Interrupted`] after attempting a final
    /// checkpoint.
    pub(crate) fn interrupt(&mut self, cause: Error) -> Error {
        nwq_telemetry::counter_add("resilience.interrupted", 1);
        Error::Interrupted {
            checkpoint: self.checkpoint_on_failure(),
            cause: Box::new(cause),
        }
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
/// point are exactly those of the interrupted run.
fn vqe_fingerprint(problem: &VqeProblem, x0: &[f64], max_evals: usize) -> JsonValue {
    JsonValue::Object(vec![
        (
            "content_fp".into(),
            JsonValue::Int(problem_content_fingerprint(
                &problem.hamiltonian,
                &problem.ansatz,
            )),
        ),
        (
            "n_qubits".into(),
            JsonValue::Int(problem.ansatz.n_qubits() as u64),
        ),
        (
            "n_params".into(),
            JsonValue::Int(problem.ansatz.n_params() as u64),
        ),
        (
            "ansatz_gates".into(),
            JsonValue::Int(problem.ansatz.len() as u64),
        ),
        (
            "h_terms".into(),
            JsonValue::Int(problem.hamiltonian.terms().len() as u64),
        ),
        (
            "x0".into(),
            JsonValue::Array(x0.iter().map(|&x| JsonValue::Float(x)).collect()),
        ),
        ("max_evals".into(), JsonValue::Int(max_evals as u64)),
    ])
}

/// Builds the snapshot header shared by both run kinds. Call *after*
/// restoring the optimizer so the stored state reflects what actually ran.
pub(crate) fn snapshot_header(
    kind: &str,
    fingerprint: JsonValue,
    optimizer: &dyn Optimizer,
) -> Vec<(String, JsonValue)> {
    vec![
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
    ]
}

/// Verifies and applies `opts.resume` (when present), returning the
/// evaluation log to replay.
pub(crate) fn prepare_resume(
    opts: &ResilienceOptions,
    kind: &str,
    fingerprint: &JsonValue,
    optimizer: &mut dyn Optimizer,
) -> Result<Vec<f64>> {
    match &opts.resume {
        Some(state) => state.prepare(kind, fingerprint, optimizer),
        None => Ok(Vec::new()),
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
    if x0.len() < problem.ansatz.n_params() {
        return Err(Error::ParameterMismatch {
            expected: problem.ansatz.n_params(),
            got: x0.len(),
        });
    }
    if !problem.hamiltonian.is_hermitian(1e-9) {
        return Err(Error::Invalid("VQE observable must be Hermitian".into()));
    }
    let _span = nwq_telemetry::span!("vqe.run");
    let fingerprint = vqe_fingerprint(problem, x0, max_evals);
    let resumed_log = prepare_resume(opts, "vqe", &fingerprint, optimizer)?;
    let header = snapshot_header("vqe", fingerprint, optimizer);
    let mut ev = ResilientEvaluator::new(backend, opts, header, resumed_log);

    let mut history: Vec<f64> = Vec::new();
    let telemetry = nwq_telemetry::enabled();
    let ansatz_gates = problem.ansatz.len() as u64;
    let mut last_mark = std::time::Instant::now();
    let result = {
        // The driver feeds the optimizer through its *batched* entry
        // point: optimizers that group independent evaluations (SPSA's
        // ±perturbation pair) send them as one multi-θ batch, which a
        // batching backend evaluates as one parallel map. The trajectory
        // is identical to the scalar entry either way.
        let mut objective = |thetas: &[Vec<f64>]| -> Result<Vec<f64>> {
            let es = ev.eval_batch(&problem.ansatz, thetas, &problem.hamiltonian)?;
            for &e in &es {
                let prev_best = history.last().copied().unwrap_or(f64::INFINITY);
                let best = prev_best.min(e);
                history.push(best);
                // One record per *improvement*, not per evaluation — keeps
                // the artifact bounded for long optimizer runs.
                if telemetry && best < prev_best {
                    nwq_telemetry::record_iteration(nwq_telemetry::IterationRecord {
                        iteration: history.len() - 1,
                        energy: best,
                        grad_norm: None,
                        evaluations: history.len() as u64,
                        gates: ansatz_gates,
                        wall_ms: last_mark.elapsed().as_secs_f64() * 1e3,
                        label: None,
                    });
                    last_mark = std::time::Instant::now();
                }
            }
            Ok(es)
        };
        optimizer.try_minimize_batched(&mut objective, x0, max_evals)
    };
    match result {
        Ok(r) => {
            ev.checkpoint_final()?;
            Ok(VqeResult {
                energy: r.value,
                params: r.params,
                evaluations: r.evals,
                converged: r.converged,
                history,
            })
        }
        Err(cause) => Err(ev.interrupt(cause)),
    }
}

/// The VQE problem fingerprint for gradient-driven runs: the plain VQE
/// fingerprint plus the gradient source, since replaying a trajectory is
/// only sound when the gradients are computed the same way.
fn vqe_grad_fingerprint(
    problem: &VqeProblem,
    x0: &[f64],
    max_evals: usize,
    source: &GradSource,
) -> JsonValue {
    match vqe_fingerprint(problem, x0, max_evals) {
        JsonValue::Object(mut fields) => {
            fields.push(("grad_source".into(), source.fingerprint_json()));
            JsonValue::Object(fields)
        }
        other => other,
    }
}

/// The gradient-consuming VQE objective fed to a
/// [`GradOptimizer`]: fused adjoint evaluations go through
/// [`ResilientEvaluator::eval_grad`] (and the checkpoint gradient log);
/// shift-rule and finite-difference gradients ride the *batched* energy
/// path — one backend batch of `x` and its `2·n` probes, through
/// [`shift_rule_gradient`] — and replay via the ordinary evaluation log.
struct VqeGradObjective<'a, 'b> {
    ev: &'b mut ResilientEvaluator<'a>,
    problem: &'b VqeProblem,
    source: GradSource,
    history: &'b mut Vec<f64>,
    telemetry: bool,
    ansatz_gates: u64,
    last_mark: std::time::Instant,
}

impl VqeGradObjective<'_, '_> {
    /// Best-so-far bookkeeping per evaluation, as on the energy-only path.
    fn note(&mut self, e: f64, grad_norm: Option<f64>) {
        let prev_best = self.history.last().copied().unwrap_or(f64::INFINITY);
        let best = prev_best.min(e);
        self.history.push(best);
        if self.telemetry && best < prev_best {
            nwq_telemetry::record_iteration(nwq_telemetry::IterationRecord {
                iteration: self.history.len() - 1,
                energy: best,
                grad_norm,
                evaluations: self.ev.total_evals() as u64,
                gates: self.ansatz_gates,
                wall_ms: self.last_mark.elapsed().as_secs_f64() * 1e3,
                label: None,
            });
            self.last_mark = std::time::Instant::now();
        }
    }

    /// Energy and two-term shift-rule gradient at `x`: `x` and its `2·n`
    /// probes ride one resilient batch, and every energy in it joins the
    /// history in batch order — the points an energy-only run of the
    /// same optimizer records.
    fn shift_rule(&mut self, x: &[f64], s: f64, denom: f64) -> Result<(f64, Vec<f64>)> {
        let (ev, problem) = (&mut *self.ev, self.problem);
        let mut energies = Vec::new();
        let mut batch = |xs: &[Vec<f64>]| {
            energies = ev.eval_batch(&problem.ansatz, xs, &problem.hamiltonian)?;
            Ok(energies.clone())
        };
        let (e, g) = shift_rule_gradient(&mut batch, x, s, denom)?;
        let gnorm = g.iter().fold(0.0f64, |a: f64, v: &f64| a.max(v.abs()));
        self.note(e, Some(gnorm));
        for &probe in &energies[1..] {
            self.note(probe, None);
        }
        Ok((e, g))
    }
}

impl GradObjective for VqeGradObjective<'_, '_> {
    fn value(&mut self, x: &[f64]) -> Result<f64> {
        let e = self
            .ev
            .eval(&self.problem.ansatz, x, &self.problem.hamiltonian)?;
        self.note(e, None);
        Ok(e)
    }

    fn value_and_grad(&mut self, x: &[f64]) -> Result<(f64, Vec<f64>)> {
        let (e, g) = match self.source {
            GradSource::Adjoint => {
                self.ev
                    .eval_grad(&self.problem.ansatz, x, &self.problem.hamiltonian)?
            }
            GradSource::ParameterShift { shift, denom } => return self.shift_rule(x, shift, denom),
            GradSource::FiniteDifference(eps) => return self.shift_rule(x, eps, 2.0 * eps),
        };
        let gnorm = g.iter().fold(0.0f64, |a: f64, v: &f64| a.max(v.abs()));
        self.note(e, Some(gnorm));
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
    if x0.len() < problem.ansatz.n_params() {
        return Err(Error::ParameterMismatch {
            expected: problem.ansatz.n_params(),
            got: x0.len(),
        });
    }
    if !problem.hamiltonian.is_hermitian(1e-9) {
        return Err(Error::Invalid("VQE observable must be Hermitian".into()));
    }
    let _span = nwq_telemetry::span!("vqe.grad.run");
    let fingerprint = vqe_grad_fingerprint(problem, x0, max_evals, &source);
    let resumed_log = prepare_resume(opts, "vqe-grad", &fingerprint, optimizer)?;
    let resumed_grads = match &opts.resume {
        Some(state) => {
            let grads = state.grad_log()?;
            if grads.len() != resumed_log.len() {
                return Err(Error::Invalid(format!(
                    "checkpoint grad_log length {} does not match eval_log length {}",
                    grads.len(),
                    resumed_log.len()
                )));
            }
            grads
        }
        None => Vec::new(),
    };
    let header = snapshot_header("vqe-grad", fingerprint, optimizer);
    let mut ev = ResilientEvaluator::new_grad(backend, opts, header, resumed_log, resumed_grads);

    let mut history: Vec<f64> = Vec::new();
    let telemetry = nwq_telemetry::enabled();
    let ansatz_gates = problem.ansatz.len() as u64;
    let result = {
        let mut objective = VqeGradObjective {
            ev: &mut ev,
            problem,
            source,
            history: &mut history,
            telemetry,
            ansatz_gates,
            last_mark: std::time::Instant::now(),
        };
        optimizer.try_minimize_grad(&mut objective, x0, max_evals)
    };
    match result {
        Ok(r) => {
            ev.checkpoint_final()?;
            Ok(VqeResult {
                energy: r.value,
                params: r.params,
                evaluations: r.evals,
                converged: r.converged,
                history,
            })
        }
        Err(cause) => Err(ev.interrupt(cause)),
    }
}

/// Wraps any [`Backend`] with deterministic, seeded fault injection:
/// evaluation failures surface as transient [`Error::Backend`] and
/// NaN-amplitude faults as non-finite energies, exercising the retry and
/// health-guard paths of the drivers above.
pub struct FaultyBackend {
    inner: BoxedBackend,
    injector: FaultInjector,
}

impl FaultyBackend {
    /// Decorates `inner` with faults drawn from `spec`. The inner box is
    /// `Send` so a fault-injecting backend can still be owned by a worker
    /// thread.
    pub fn new(inner: BoxedBackend, spec: FaultSpec) -> Self {
        FaultyBackend {
            inner,
            injector: FaultInjector::new(spec),
        }
    }

    /// Decorates a concrete backend (convenience over [`FaultyBackend::new`]).
    pub fn wrap(inner: impl Backend + Send + 'static, spec: FaultSpec) -> Self {
        FaultyBackend::new(Box::new(inner), spec)
    }

    /// Faults injected so far, by class.
    pub fn fault_stats(&self) -> FaultStats {
        self.injector.stats()
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &dyn Backend {
        self.inner.as_ref()
    }
}

impl Backend for FaultyBackend {
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
        use crate::backend::GradientBackend;
        let (problem, _) = h2_grad_problem();
        let theta = [0.11, -0.23, 0.37];
        let mut backend = DirectBackend::new();
        let (e, g) = backend
            .energy_and_gradient(&problem.ansatz, &theta, &problem.hamiltonian)
            .unwrap();
        let e_plain = backend
            .energy(&problem.ansatz, &theta, &problem.hamiltonian)
            .unwrap();
        assert!((e - e_plain).abs() < 1e-12, "{e} vs {e_plain}");
        let s = std::f64::consts::FRAC_PI_4;
        for (j, gj) in g.iter().enumerate() {
            let mut plus = theta.to_vec();
            plus[j] += s;
            let mut minus = theta.to_vec();
            minus[j] -= s;
            let ep = backend
                .energy(&problem.ansatz, &plus, &problem.hamiltonian)
                .unwrap();
            let em = backend
                .energy(&problem.ansatz, &minus, &problem.hamiltonian)
                .unwrap();
            let shift = ep - em; // π/4 rule: denom 1
            assert!((gj - shift).abs() < 1e-10, "param {j}: {gj} vs {shift}");
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

    #[test]
    fn grad_kill_and_resume_is_bitwise_identical() {
        // The gradient log must checkpoint and replay alongside the energy
        // log: a killed adjoint run resumed from disk retraces the exact
        // fused-evaluation trajectory.
        let (problem, _) = h2_grad_problem();
        let x0 = vec![0.0; problem.ansatz.n_params()];
        let max_evals = 60;
        let clean = {
            let mut backend = DirectBackend::new();
            let mut opt = nwq_opt::Lbfgs::default();
            crate::vqe::run_vqe_grad(
                &problem,
                &mut backend,
                &mut opt,
                GradSource::Adjoint,
                &x0,
                max_evals,
            )
            .unwrap()
        };
        let path = tmp_checkpoint("grad-kill");
        {
            let mut backend = DirectBackend::new();
            let mut opt = nwq_opt::Lbfgs::default();
            let opts = ResilienceOptions {
                checkpoint: Some(CheckpointConfig::new(&path)),
                abort_after_evals: Some(5),
                ..Default::default()
            };
            let err = run_vqe_grad_with(
                &problem,
                &mut backend,
                &mut opt,
                GradSource::Adjoint,
                &x0,
                max_evals,
                &opts,
            )
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
        }
        let state = ResumeState::load(&path).unwrap();
        assert_eq!(state.kind(), "vqe-grad");
        let resumed = {
            let mut backend = DirectBackend::new();
            let mut opt = nwq_opt::Lbfgs::default();
            let opts = ResilienceOptions {
                resume: Some(state),
                ..Default::default()
            };
            run_vqe_grad_with(
                &problem,
                &mut backend,
                &mut opt,
                GradSource::Adjoint,
                &x0,
                max_evals,
                &opts,
            )
            .unwrap()
        };
        assert_eq!(resumed.energy.to_bits(), clean.energy.to_bits());
        assert_eq!(resumed.evaluations, clean.evaluations);
        for (a, b) in resumed.params.iter().zip(&clean.params) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(resumed.history, clean.history);
        std::fs::remove_file(&path).ok();
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

    #[test]
    fn plain_engine_rejects_fused_gradient_evaluations() {
        let problem = toy_problem();
        let mut backend = DirectBackend::new();
        let opt = NelderMead::default();
        let fp = vqe_fingerprint(&problem, &[0.0, 0.0], 100);
        let header = snapshot_header("vqe", fp, &opt);
        let opts = ResilienceOptions::default();
        let mut ev = ResilientEvaluator::new(&mut backend, &opts, header, Vec::new());
        let err = ev
            .eval_grad(&problem.ansatz, &[0.0, 0.0], &problem.hamiltonian)
            .unwrap_err();
        assert!(
            err.to_string().contains("gradient-capable"),
            "unexpected error: {err}"
        );
    }
}
