//! The in-process job engine: admission, scheduling, worker pool,
//! cross-job batching, shared caching, and graceful drain.
//!
//! ## Ownership model (see DESIGN.md)
//!
//! Each worker thread *owns* one [`DirectBackend`] for the lifetime of the
//! engine. The `run_vqe_with`/`run_adapt_vqe_with` drivers take
//! `&mut dyn Backend`, so a worker lends its backend to one job at a time
//! and keeps the warmed post-ansatz cache and compiled-plan state across
//! jobs — no per-job backend construction, no statevector cloning, no
//! locking on the hot path.
//!
//! ## Determinism
//!
//! Every result the engine returns is bitwise identical to running the
//! same job alone through the library: energy evaluations go through
//! exactly the `ExecPlan::compile → run_plan → energy_direct_batched`
//! pipeline that [`DirectBackend`] uses (whether computed alone, inside a
//! cross-job batch, or answered from the shared cache), and VQE/ADAPT jobs
//! run the stock resilient drivers. Injected faults only ever trigger
//! retries, which recompute the same deterministic values.
//!
//! `ExecPlan::compile` resolves through the process-global
//! [`nwq_statevec::plan_cache`], so all workers share ONE
//! [`nwq_statevec::PlanTemplate`] per circuit structure: the first worker
//! to see a molecule's ansatz pays the structural fusion pass, every
//! later evaluation on any worker only rebinds θ. Template binding is
//! bitwise identical to a cold compile (pinned by the plan-parity suite),
//! so this sharing is invisible in results.

use crate::cache::{CacheConfig, SharedCache, SharedCacheStats};
use crate::job::{JobId, JobKind, JobOutcome, JobSpec, JobStatus};
use crate::problem::{build_problem, ServeProblem};
use crate::queue::{Admission, AdmissionQueue, QueueConfig, QueuedJob};
use nwq_core::adapt::{run_adapt_vqe_with, AdaptConfig};
use nwq_core::backend::{Backend, DirectBackend};
use nwq_core::resilience::{run_vqe_with, FaultyBackend, ResilienceOptions, RetryPolicy};
use nwq_dist::{FaultInjector, FaultSpec};
use nwq_opt::NelderMead;
use nwq_statevec::batch::batched_energies;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Engine tuning.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Worker threads, each owning a [`DirectBackend`].
    pub workers: usize,
    /// Admission-queue bounds and aging.
    pub queue: QueueConfig,
    /// Shared energy-cache sizing.
    pub cache: CacheConfig,
    /// Maximum energy evaluations grouped into one expectation sweep.
    pub max_batch: usize,
    /// Retry budget for transient evaluation failures.
    pub retry: RetryPolicy,
    /// Deterministic fault injection applied by every worker (testing).
    pub faults: Option<FaultSpec>,
    /// PR 3 kill switch, plumbed into each job's resilience options: abort
    /// any single job after this many fresh evaluations.
    pub abort_after_evals: Option<usize>,
    /// Crash-containment budget: a job whose worker panics is re-queued
    /// (alone, with its attempt counter bumped) until it has been tried
    /// this many times, then quarantined as a poison job — terminal
    /// `Failed` with a `poison_job_quarantined` error — so one bad job
    /// cannot crash-loop the pool.
    pub max_job_attempts: u32,
    /// Testing hook: an energy job whose FIRST parameter is bitwise equal
    /// to this value panics the claiming worker before any computation,
    /// exercising the crash-containment path deterministically.
    pub panic_marker: Option<f64>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 2,
            queue: QueueConfig::default(),
            cache: CacheConfig::default(),
            max_batch: 8,
            retry: RetryPolicy::default(),
            faults: None,
            abort_after_evals: None,
            max_job_attempts: 3,
            panic_marker: None,
        }
    }
}

/// Reply to a submission.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// The job was admitted under this id.
    Accepted(JobId),
    /// Explicit backpressure or validation failure; nothing was queued.
    Rejected {
        /// Machine-readable reason (`"queue_full"`, `"draining"`, or a
        /// validation message).
        reason: String,
    },
}

/// Aggregate engine accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Submissions received (accepted or not).
    pub submitted: u64,
    /// Submissions admitted to the queue.
    pub accepted: u64,
    /// Submissions rejected (backpressure or validation).
    pub rejected: u64,
    /// Jobs finished successfully.
    pub completed: u64,
    /// Jobs finished with an error.
    pub failed: u64,
    /// Jobs cancelled while queued.
    pub cancelled: u64,
    /// Jobs whose queueing deadline elapsed.
    pub expired: u64,
    /// Energy-evaluation groups executed (size ≥ 1).
    pub batches: u64,
    /// Energy evaluations that ran inside those groups.
    pub batched_jobs: u64,
    /// Largest group executed.
    pub max_batch_size: u64,
    /// Jobs re-queued after their worker panicked mid-claim.
    pub requeued: u64,
    /// Jobs quarantined as poison after exhausting their attempt budget.
    pub quarantined: u64,
    /// Job records the engine currently holds (every accepted job keeps
    /// one so `status`/`result` stay answerable; terminal ones hold no
    /// spec). Filled in by [`Engine::stats`].
    pub jobs_retained: u64,
}

impl EngineStats {
    /// Mean energy-evaluation group size (1.0 when nothing batched yet).
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            1.0
        } else {
            self.batched_jobs as f64 / self.batches as f64
        }
    }
}

/// A client-visible view of one job's record.
#[derive(Clone, Debug)]
pub struct JobView {
    /// Engine job id.
    pub id: JobId,
    /// Current lifecycle state.
    pub status: JobStatus,
    /// Result, once `status == Done`.
    pub outcome: Option<JobOutcome>,
    /// Failure message, once `status == Failed` (or `Expired`).
    pub error: Option<String>,
}

/// What the engine keeps per accepted job. The spec (molecule name, θ
/// vector) is only needed until the job is terminal — a worker claims it,
/// possibly again after a crash requeue — so [`Shared::finish`] drops it
/// and a finished record is just what `status`/`result` print. A server
/// that has answered millions of jobs holds their outcomes, not their
/// inputs.
struct JobRecord {
    spec: Option<JobSpec>,
    status: JobStatus,
    outcome: Option<JobOutcome>,
    error: Option<String>,
    submitted: Instant,
}

impl JobRecord {
    fn view(&self, id: JobId) -> JobView {
        JobView {
            id,
            status: self.status,
            outcome: self.outcome.clone(),
            error: self.error.clone(),
        }
    }
}

/// Every accepted job's record, indexed by id. Ids are handed out densely
/// from 1, so records live in fixed-size chunks allocated as ids reach
/// them: memory grows one chunk per [`JobTable::CHUNK`] jobs, linear in
/// the jobs seen. (A hash map here doubled and rehashed itself each time
/// the count crossed 7/8 of a power of two, so a server's peak memory
/// jumped by tens of MiB depending on whether its throughput had carried
/// it past the next threshold.)
#[derive(Default)]
struct JobTable {
    chunks: Vec<Vec<Option<JobRecord>>>,
    len: usize,
}

impl JobTable {
    const CHUNK: usize = 1024;

    fn get(&self, id: JobId) -> Option<&JobRecord> {
        let id = id as usize;
        self.chunks
            .get(id / Self::CHUNK)?
            .get(id % Self::CHUNK)?
            .as_ref()
    }

    fn get_mut(&mut self, id: JobId) -> Option<&mut JobRecord> {
        self.slot_mut(id)?.as_mut()
    }

    fn slot_mut(&mut self, id: JobId) -> Option<&mut Option<JobRecord>> {
        let id = id as usize;
        self.chunks
            .get_mut(id / Self::CHUNK)?
            .get_mut(id % Self::CHUNK)
    }

    /// Stores `record` under `id`. Concurrent submitters may insert ids
    /// slightly out of order; the gap stays empty until its id arrives.
    fn insert(&mut self, id: JobId, record: JobRecord) {
        let (chunk, slot) = (id as usize / Self::CHUNK, id as usize % Self::CHUNK);
        while self.chunks.len() <= chunk {
            self.chunks.push(Vec::with_capacity(Self::CHUNK));
        }
        let chunk = &mut self.chunks[chunk];
        if chunk.len() <= slot {
            chunk.resize_with(slot + 1, || None);
        }
        if chunk[slot].replace(record).is_none() {
            self.len += 1;
        }
    }

    fn remove(&mut self, id: JobId) {
        if self.slot_mut(id).and_then(Option::take).is_some() {
            self.len -= 1;
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn values(&self) -> impl Iterator<Item = &JobRecord> {
        self.chunks.iter().flatten().flatten()
    }
}

struct Shared {
    cfg: EngineConfig,
    queue: AdmissionQueue,
    jobs: Mutex<JobTable>,
    /// Notified whenever any job reaches a terminal status.
    terminal: Condvar,
    problems: Mutex<HashMap<String, Arc<ServeProblem>>>,
    cache: SharedCache,
    next_id: AtomicU64,
    stats: Mutex<EngineStats>,
}

/// The multi-tenant job engine. All methods take `&self`; share it behind
/// an `Arc` across connection handlers.
pub struct Engine {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Engine {
    /// Starts the worker pool and returns the running engine.
    pub fn start(cfg: EngineConfig) -> Engine {
        let n_workers = cfg.workers.max(1);
        let faults = cfg.faults;
        let shared = Arc::new(Shared {
            queue: AdmissionQueue::new(cfg.queue),
            cache: SharedCache::new(cfg.cache),
            cfg,
            jobs: Mutex::new(JobTable::default()),
            terminal: Condvar::new(),
            problems: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            stats: Mutex::new(EngineStats::default()),
        });
        let workers = (0..n_workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("nwq-serve-worker-{i}"))
                    .spawn(move || worker_loop(shared, faults))
                    .expect("spawning a worker thread")
            })
            .collect();
        Engine {
            shared,
            workers: Mutex::new(workers),
        }
    }

    /// Submits a job: validates it against the registry, then attempts
    /// admission. Rejection is explicit and immediate — nothing queues.
    pub fn submit(&self, mut spec: JobSpec) -> SubmitOutcome {
        let s = &self.shared;
        lock(&s.stats).submitted += 1;
        nwq_telemetry::counter_add("serve.submitted", 1);
        let problem = match s.problem(&spec.molecule) {
            Ok(p) => p,
            Err(e) => return self.reject(e.to_string()),
        };
        let n_params = problem.problem.ansatz.n_params();
        match &mut spec.kind {
            JobKind::EnergyEval { params } => {
                if params.len() != n_params {
                    return self.reject(format!(
                        "molecule {:?} needs {n_params} params, got {}",
                        spec.molecule,
                        params.len()
                    ));
                }
            }
            JobKind::Vqe { x0, .. } => {
                if x0.is_empty() {
                    *x0 = vec![0.0; n_params];
                } else if x0.len() != n_params {
                    return self.reject(format!(
                        "molecule {:?} needs {n_params} x0 entries, got {}",
                        spec.molecule,
                        x0.len()
                    ));
                }
            }
            JobKind::Adapt { max_iterations } => {
                if *max_iterations == 0 {
                    return self.reject("adapt needs max_iterations >= 1".into());
                }
            }
        }
        let id = s.next_id.fetch_add(1, Ordering::Relaxed);
        let now = Instant::now();
        lock(&s.jobs).insert(
            id,
            JobRecord {
                spec: Some(spec.clone()),
                status: JobStatus::Queued,
                outcome: None,
                error: None,
                submitted: now,
            },
        );
        let admission = s.queue.push(QueuedJob {
            id,
            fingerprint: problem.fingerprint,
            batchable: spec.kind.batchable(),
            priority: spec.priority,
            enqueued: now,
            deadline_ms: spec.deadline_ms,
            attempts: 0,
        });
        match admission {
            Admission::Accepted => {
                lock(&s.stats).accepted += 1;
                nwq_telemetry::counter_add("serve.accepted", 1);
                nwq_telemetry::gauge_set("serve.queue_depth", s.queue.depth() as f64);
                SubmitOutcome::Accepted(id)
            }
            Admission::RejectedQueueFull => {
                lock(&s.jobs).remove(id);
                self.reject("queue_full".into())
            }
            Admission::RejectedDraining => {
                lock(&s.jobs).remove(id);
                self.reject("draining".into())
            }
        }
    }

    fn reject(&self, reason: String) -> SubmitOutcome {
        lock(&self.shared.stats).rejected += 1;
        nwq_telemetry::counter_add("serve.rejected", 1);
        SubmitOutcome::Rejected { reason }
    }

    /// Current status of a job, if the id is known.
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        lock(&self.shared.jobs).get(id).map(|r| r.status)
    }

    /// Full record view of a job, if the id is known.
    pub fn view(&self, id: JobId) -> Option<JobView> {
        lock(&self.shared.jobs).get(id).map(|r| r.view(id))
    }

    /// Blocks until the job reaches a terminal status or `timeout` passes;
    /// returns the latest view either way (`None` for unknown ids).
    pub fn wait_terminal(&self, id: JobId, timeout: Duration) -> Option<JobView> {
        let s = &self.shared;
        let deadline = Instant::now() + timeout;
        let mut jobs = lock(&s.jobs);
        loop {
            match jobs.get(id) {
                None => return None,
                Some(r) if r.status.is_terminal() => break,
                Some(_) => {}
            }
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (guard, _) = s
                .terminal
                .wait_timeout(jobs, deadline - now)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            jobs = guard;
        }
        jobs.get(id).map(|r| r.view(id))
    }

    /// Cancels a job that is still queued. Returns `false` when the job is
    /// unknown or already claimed by a worker — running work is never
    /// interrupted.
    pub fn cancel(&self, id: JobId) -> bool {
        let s = &self.shared;
        if !s.queue.remove(id) {
            return false;
        }
        lock(&s.stats).cancelled += 1;
        nwq_telemetry::counter_add("serve.cancelled", 1);
        s.finish(id, JobStatus::Cancelled, None, Some("cancelled".into()));
        true
    }

    /// Graceful drain: stop admitting, run every accepted job to a
    /// terminal state, then shut the worker pool down. No accepted job is
    /// lost. Idempotent.
    pub fn drain(&self) {
        let s = &self.shared;
        s.queue.set_draining();
        let mut jobs = lock(&s.jobs);
        while jobs.values().any(|r| !r.status.is_terminal()) {
            jobs = s
                .terminal
                .wait(jobs)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        drop(jobs);
        s.queue.close();
        for handle in lock(&self.workers).drain(..) {
            let _ = handle.join();
        }
    }

    /// Engine accounting snapshot.
    pub fn stats(&self) -> EngineStats {
        let jobs_retained = lock(&self.shared.jobs).len() as u64;
        EngineStats {
            jobs_retained,
            ..*lock(&self.shared.stats)
        }
    }

    /// Shared-cache accounting snapshot.
    pub fn cache_stats(&self) -> SharedCacheStats {
        self.shared.cache.stats()
    }

    /// Jobs currently waiting in the admission queue.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.depth()
    }

    /// Whether the engine has stopped admitting new work.
    pub fn draining(&self) -> bool {
        self.shared.queue.draining()
    }
}

impl Shared {
    /// Builds (once) and returns the shared problem for a molecule.
    fn problem(&self, name: &str) -> nwq_common::Result<Arc<ServeProblem>> {
        if let Some(p) = lock(&self.problems).get(name) {
            return Ok(Arc::clone(p));
        }
        // Built outside the lock: construction is pure, and a duplicate
        // build on a race is cheaper than holding the map over JW mapping.
        let built = Arc::new(build_problem(name)?);
        let mut g = lock(&self.problems);
        let entry = g.entry(name.to_string()).or_insert(built);
        Ok(Arc::clone(entry))
    }

    /// Marks a queued job running; returns its spec and queue wait. `None`
    /// means the record vanished or is already terminal (should not
    /// happen — cancel goes through the queue) and the claim is dropped.
    fn claim(&self, job: &QueuedJob) -> Option<(JobSpec, f64)> {
        let wait_ms = job.waited_ms(Instant::now());
        let mut jobs = lock(&self.jobs);
        let r = jobs.get_mut(job.id)?;
        let spec = r.spec.clone()?;
        r.status = JobStatus::Running;
        Some((spec, wait_ms))
    }

    /// Transitions a job to a terminal status and wakes waiters.
    fn finish(
        &self,
        id: JobId,
        status: JobStatus,
        outcome: Option<JobOutcome>,
        error: Option<String>,
    ) {
        let mut jobs = lock(&self.jobs);
        if let Some(r) = jobs.get_mut(id) {
            r.spec = None;
            r.status = status;
            r.outcome = outcome;
            r.error = error;
            if let Some(o) = &r.outcome {
                nwq_telemetry::histogram_record("serve.latency_ms", o.wall_ms);
                nwq_telemetry::histogram_record("serve.queue_wait_ms", o.queue_wait_ms);
            }
        }
        drop(jobs);
        let mut stats = lock(&self.stats);
        match status {
            JobStatus::Done => {
                stats.completed += 1;
                nwq_telemetry::counter_add("serve.completed", 1);
            }
            JobStatus::Failed => {
                stats.failed += 1;
                nwq_telemetry::counter_add("serve.failed", 1);
            }
            JobStatus::Expired => {
                stats.expired += 1;
                nwq_telemetry::counter_add("serve.expired", 1);
                nwq_telemetry::counter_add("serve.deadline_exceeded", 1);
            }
            _ => {}
        }
        drop(stats);
        self.terminal.notify_all();
    }

    fn wall_ms(&self, id: JobId) -> f64 {
        lock(&self.jobs)
            .get(id)
            .map_or(0.0, |r| r.submitted.elapsed().as_secs_f64() * 1e3)
    }

    /// Resolves every claimed-but-unfinished job after a worker panic:
    /// jobs under the attempt budget go back to the queue (alone, so a
    /// poison job cannot drag batch-mates down again); jobs at the budget
    /// are quarantined — terminal `Failed` with a `poison_job_quarantined`
    /// error. Every claimed job MUST end up queued or terminal here, or
    /// [`Engine::drain`] would wait forever on a `Running` record.
    fn recover_claimed(&self, claimed: &[QueuedJob], panic_msg: &str) {
        let budget = self.cfg.max_job_attempts.max(1);
        for job in claimed {
            let unfinished = lock(&self.jobs)
                .get(job.id)
                .is_some_and(|r| !r.status.is_terminal());
            if !unfinished {
                continue;
            }
            let attempts = job.attempts + 1;
            if attempts >= budget {
                lock(&self.stats).quarantined += 1;
                nwq_telemetry::counter_add("serve.jobs_quarantined", 1);
                self.finish(
                    job.id,
                    JobStatus::Failed,
                    None,
                    Some(format!(
                        "poison_job_quarantined: worker panicked on all \
                         {attempts} attempts (last: {panic_msg})"
                    )),
                );
            } else {
                if let Some(r) = lock(&self.jobs).get_mut(job.id) {
                    r.status = JobStatus::Queued;
                }
                lock(&self.stats).requeued += 1;
                nwq_telemetry::counter_add("serve.jobs_requeued", 1);
                self.queue.requeue(QueuedJob {
                    batchable: false,
                    enqueued: Instant::now(),
                    attempts,
                    ..job.clone()
                });
            }
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Derives the fault spec for one job. Streams are seeded per *job*,
/// not per worker: which worker claims a job (a race) and what it ran
/// before must not shift another job's fault sequence, so the injected
/// pattern is a pure function of the configured seed and the job id
/// regardless of scheduling. The multiplier is the splitmix64 increment,
/// spreading consecutive ids across the seed space.
fn job_faults(faults: Option<FaultSpec>, job: JobId) -> Option<FaultSpec> {
    faults.map(|spec| FaultSpec {
        seed: spec.seed ^ job.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ..spec
    })
}

fn worker_loop(shared: Arc<Shared>, faults: Option<FaultSpec>) {
    let mut backend = DirectBackend::new();
    let max_batch = shared.cfg.max_batch.max(1);
    while let Some(claim) = shared.queue.pop_batch(max_batch) {
        nwq_telemetry::gauge_set("serve.queue_depth", shared.queue.depth() as f64);
        // Jobs the queue purged as past-deadline fail fast with a distinct
        // terminal error — they never touch the backend and never occupy a
        // batch slot.
        for job in claim.expired {
            shared.finish(
                job.id,
                JobStatus::Expired,
                None,
                Some("deadline_exceeded: job expired while queued".into()),
            );
        }
        // Defensive second pass: a job can cross its deadline between the
        // queue's purge and this worker getting scheduled.
        let now = Instant::now();
        let mut live = Vec::with_capacity(claim.runnable.len());
        for job in claim.runnable {
            if job.expired(now) {
                shared.finish(
                    job.id,
                    JobStatus::Expired,
                    None,
                    Some("deadline_exceeded: job expired while queued".into()),
                );
            } else {
                live.push(job);
            }
        }
        if live.is_empty() {
            continue;
        }
        // Crash-requeued energy evals come back with `batchable == false`
        // (they re-run alone so a poison job cannot take batch-mates down
        // with it), but they still need the energy-group path — route by
        // the job's actual kind, not the queue flag.
        let solo_energy = !live[0].batchable
            && lock(&shared.jobs)
                .get(live[0].id)
                .and_then(|r| r.spec.as_ref())
                .is_some_and(|spec| matches!(spec.kind, JobKind::EnergyEval { .. }));
        // Containment boundary: a panic anywhere in job execution must not
        // take the worker thread (and every job it would ever have run)
        // down with it. The backend is rebuilt afterwards — its caches may
        // be mid-mutation — and every claimed-but-unfinished job in the
        // group is re-queued or quarantined.
        let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if live[0].batchable || solo_energy {
                run_energy_group(&shared, &mut backend, faults, &live);
            } else {
                debug_assert_eq!(live.len(), 1, "non-batchable jobs pop alone");
                for job in &live {
                    run_long_job(&shared, &mut backend, job_faults(faults, job.id), job);
                }
            }
        }));
        if let Err(payload) = ran {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "worker panicked".to_string());
            nwq_telemetry::counter_add("serve.worker_panics", 1);
            backend = DirectBackend::new();
            shared.recover_claimed(&live, &msg);
        }
    }
}

/// Evaluates one energy with the resilient drivers' retry discipline
/// (fault draws before the computation, non-finite energies rejected,
/// cache dropped before each retry). It is a separate path from
/// [`FaultyBackend`] under the library's retry loop because its first
/// attempt uses `precomputed`, the value from the cross-job sweep;
/// retries recompute through the worker's backend — bitwise the same
/// value, since both paths are the compiled-plan pipeline.
fn energy_with_retries(
    shared: &Shared,
    backend: &mut DirectBackend,
    injector: &mut Option<FaultInjector>,
    problem: &ServeProblem,
    params: &[f64],
    mut precomputed: Option<f64>,
) -> nwq_common::Result<f64> {
    let mut attempt = 0;
    loop {
        // Mirror FaultyBackend: both draws happen before the computation so
        // the fault sequence is a pure function of the seed.
        let (fail, nan) = match injector.as_mut() {
            Some(inj) => (inj.should_fail_eval(), inj.should_inject_nan()),
            None => (false, false),
        };
        let outcome = if fail {
            Err(nwq_common::Error::Backend(
                "injected evaluation failure".into(),
            ))
        } else if nan {
            Err(nwq_common::Error::Numerical(
                "non-finite energy returned by backend".into(),
            ))
        } else {
            match precomputed.take() {
                Some(e) => Ok(e),
                None => backend.energy(
                    &problem.problem.ansatz,
                    params,
                    &problem.problem.hamiltonian,
                ),
            }
        };
        match outcome {
            Ok(e) if e.is_finite() => return Ok(e),
            Ok(_) => {
                return Err(nwq_common::Error::Numerical(
                    "non-finite energy returned by backend".into(),
                ))
            }
            Err(e) if e.is_transient() && attempt < shared.cfg.retry.max_retries => {
                attempt += 1;
                nwq_telemetry::counter_add("serve.retries", 1);
                backend.invalidate_cache();
            }
            Err(e) => return Err(e),
        }
    }
}

/// Runs one claimed group of compatible energy evaluations: shared-cache
/// pass first, then one batched expectation sweep over the misses.
fn run_energy_group(
    shared: &Shared,
    backend: &mut DirectBackend,
    faults: Option<FaultSpec>,
    group: &[QueuedJob],
) {
    let batch_size = group.len();
    {
        let mut stats = lock(&shared.stats);
        stats.batches += 1;
        stats.batched_jobs += batch_size as u64;
        stats.max_batch_size = stats.max_batch_size.max(batch_size as u64);
    }
    nwq_telemetry::counter_add("serve.batches", 1);
    nwq_telemetry::histogram_record("serve.batch_size", batch_size as f64);

    let problem = match shared.problem_of(group) {
        Ok(p) => p,
        Err(e) => {
            for job in group {
                shared.claim(job);
                shared.finish(job.id, JobStatus::Failed, None, Some(e.to_string()));
            }
            return;
        }
    };

    // Cache pass: hits complete immediately; misses collect for the sweep.
    let mut misses: Vec<(JobId, Vec<f64>, f64)> = Vec::new();
    for job in group {
        let Some((spec, wait_ms)) = shared.claim(job) else {
            continue;
        };
        let JobKind::EnergyEval { params } = spec.kind else {
            shared.finish(
                job.id,
                JobStatus::Failed,
                None,
                Some("non-energy job in an energy group".into()),
            );
            continue;
        };
        match shared.cache.lookup(problem.fingerprint, &params) {
            Some(e) => {
                let outcome = JobOutcome {
                    energy: e,
                    evaluations: 0,
                    batch_size,
                    cache_hit: true,
                    wall_ms: shared.wall_ms(job.id),
                    queue_wait_ms: wait_ms,
                };
                shared.finish(job.id, JobStatus::Done, Some(outcome), None);
            }
            None => misses.push((job.id, params, wait_ms)),
        }
    }
    if misses.is_empty() {
        return;
    }
    if let Some(marker) = shared.cfg.panic_marker {
        // Deterministic crash hook for containment tests: trips after the
        // whole group is claimed (so batch-mates are provably recovered)
        // and before any computation (so the poison value never runs).
        if misses
            .iter()
            .any(|(_, p, _)| p.first().is_some_and(|x| x.to_bits() == marker.to_bits()))
        {
            panic!("panic_marker parameter claimed by worker");
        }
    }

    // One batched evaluation over all missed parameter sets — the same
    // compile-and-run pipeline DirectBackend uses per evaluation, mapped
    // over θ on the pool.
    let param_sets: Vec<Vec<f64>> = misses.iter().map(|(_, p, _)| p.clone()).collect();
    let sweep = batched_energies(
        &problem.problem.ansatz,
        &param_sets,
        &problem.problem.hamiltonian,
    );
    match sweep {
        Ok(energies) => {
            for ((id, params, wait_ms), e) in misses.into_iter().zip(energies) {
                let mut injector = job_faults(faults, id).map(FaultInjector::new);
                match energy_with_retries(
                    shared,
                    backend,
                    &mut injector,
                    &problem,
                    &params,
                    Some(e),
                ) {
                    Ok(e) => {
                        shared.cache.insert(problem.fingerprint, &params, e);
                        let outcome = JobOutcome {
                            energy: e,
                            evaluations: 1,
                            batch_size,
                            cache_hit: false,
                            wall_ms: shared.wall_ms(id),
                            queue_wait_ms: wait_ms,
                        };
                        shared.finish(id, JobStatus::Done, Some(outcome), None);
                    }
                    Err(err) => {
                        shared.finish(id, JobStatus::Failed, None, Some(err.to_string()));
                    }
                }
            }
        }
        Err(err) => {
            for (id, _, _) in misses {
                shared.finish(id, JobStatus::Failed, None, Some(err.to_string()));
            }
        }
    }
}

/// Runs one VQE or ADAPT job through the stock resilient drivers, lending
/// the worker's warmed backend (behind the fault decorator when `faults`
/// is set).
fn run_long_job(
    shared: &Shared,
    backend: &mut DirectBackend,
    faults: Option<FaultSpec>,
    job: &QueuedJob,
) {
    let Some((spec, wait_ms)) = shared.claim(job) else {
        return;
    };
    let problem = match shared.problem(&spec.molecule) {
        Ok(p) => p,
        Err(e) => {
            shared.finish(job.id, JobStatus::Failed, None, Some(e.to_string()));
            return;
        }
    };
    let opts = ResilienceOptions {
        retry: shared.cfg.retry,
        abort_after_evals: shared.cfg.abort_after_evals,
        ..Default::default()
    };
    let mut opt = NelderMead::for_vqe();
    let mut run = |backend: &mut dyn Backend| -> nwq_common::Result<(f64, u64)> {
        match &spec.kind {
            JobKind::Vqe { x0, max_evals } => {
                let r = run_vqe_with(&problem.problem, backend, &mut opt, x0, *max_evals, &opts)?;
                Ok((r.energy, r.evaluations as u64))
            }
            JobKind::Adapt { max_iterations } => {
                let pool = nwq_chem::pool::OperatorPool::singles_doubles(
                    problem.problem.hamiltonian.n_qubits(),
                    problem.n_electrons,
                )?;
                let config = AdaptConfig {
                    max_iterations: *max_iterations,
                    ..Default::default()
                };
                let r = run_adapt_vqe_with(
                    &problem.problem.hamiltonian,
                    &pool,
                    problem.n_electrons,
                    backend,
                    &mut opt,
                    &config,
                    &opts,
                )?;
                Ok((r.energy, r.total_evaluations as u64))
            }
            JobKind::EnergyEval { .. } => Err(nwq_common::Error::Invalid(
                "energy jobs take the batched path".into(),
            )),
        }
    };
    let result = match faults {
        Some(spec) => {
            let mut faulty = FaultyBackend::wrap(std::mem::take(backend), spec);
            let result = run(&mut faulty);
            *backend = faulty.into_inner();
            result
        }
        None => run(backend),
    };
    match result {
        Ok((energy, evaluations)) => {
            let outcome = JobOutcome {
                energy,
                evaluations,
                batch_size: 1,
                cache_hit: false,
                wall_ms: shared.wall_ms(job.id),
                queue_wait_ms: wait_ms,
            };
            shared.finish(job.id, JobStatus::Done, Some(outcome), None);
        }
        Err(e) => shared.finish(job.id, JobStatus::Failed, None, Some(e.to_string())),
    }
}

impl Shared {
    /// Resolves the (already memoized) problem a claimed group refers to.
    fn problem_of(&self, group: &[QueuedJob]) -> nwq_common::Result<Arc<ServeProblem>> {
        let id = group[0].id;
        let molecule = lock(&self.jobs)
            .get(id)
            .and_then(|r| r.spec.as_ref())
            .map(|spec| spec.molecule.clone())
            .ok_or_else(|| nwq_common::Error::Invalid(format!("job {id} has no record")))?;
        self.problem(&molecule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_energy(theta: [f64; 2]) -> JobSpec {
        JobSpec::energy("toy", theta.to_vec())
    }

    fn wait(engine: &Engine, id: JobId) -> JobView {
        engine
            .wait_terminal(id, Duration::from_secs(60))
            .expect("job id must be known")
    }

    #[test]
    fn served_energy_matches_direct_backend_bitwise() {
        let engine = Engine::start(EngineConfig::default());
        let thetas = [[0.3, -0.7], [1.1, 0.2], [0.0, 0.0]];
        let ids: Vec<JobId> = thetas
            .iter()
            .map(|&t| match engine.submit(toy_energy(t)) {
                SubmitOutcome::Accepted(id) => id,
                r => panic!("{r:?}"),
            })
            .collect();
        let problem = build_problem("toy").unwrap();
        for (&theta, &id) in thetas.iter().zip(&ids) {
            let view = wait(&engine, id);
            assert_eq!(view.status, JobStatus::Done, "{:?}", view.error);
            let mut direct = DirectBackend::new();
            let reference = direct
                .energy(
                    &problem.problem.ansatz,
                    &theta,
                    &problem.problem.hamiltonian,
                )
                .unwrap();
            let served = view.outcome.unwrap().energy;
            assert_eq!(served.to_bits(), reference.to_bits());
        }
        engine.drain();
    }

    #[test]
    fn finished_jobs_keep_their_answer_but_not_their_spec() {
        // A long-lived server: 5 000 energy jobs through a 64-slot queue.
        // Every record stays answerable, none still holds its θ vector.
        let engine = Engine::start(EngineConfig::default());
        let n_jobs = 5_000u64;
        let mut ids = Vec::new();
        for k in 0..n_jobs {
            let theta = [0.001 * (k % 97) as f64, -0.002 * (k % 89) as f64];
            loop {
                match engine.submit(toy_energy(theta)) {
                    SubmitOutcome::Accepted(id) => break ids.push(id),
                    SubmitOutcome::Rejected { reason } => {
                        assert_eq!(reason, "queue_full");
                        wait(&engine, *ids.last().unwrap());
                    }
                }
            }
        }
        for &id in &ids {
            assert_eq!(wait(&engine, id).status, JobStatus::Done);
        }
        assert_eq!(engine.stats().jobs_retained, n_jobs);
        assert!(lock(&engine.shared.jobs).values().all(|r| r.spec.is_none()));
        for id in [ids[0], *ids.last().unwrap()] {
            assert_eq!(engine.status(id), Some(JobStatus::Done));
            let first = engine.view(id).unwrap();
            let again = wait(&engine, id);
            assert!(first.outcome.is_some());
            assert_eq!(
                first.outcome, again.outcome,
                "a second result is the same answer"
            );
            assert_eq!((first.status, first.error), (again.status, again.error));
        }
        engine.drain();
    }

    #[test]
    fn job_table_grows_one_chunk_at_a_time_and_tolerates_out_of_order_ids() {
        let record = |status| JobRecord {
            spec: None,
            status,
            outcome: None,
            error: None,
            submitted: Instant::now(),
        };
        let mut table = JobTable::default();
        let last = 3 * JobTable::CHUNK as JobId;
        // Racing submitters insert ids out of order; the table does not care.
        for id in (1..=last).rev() {
            table.insert(id, record(JobStatus::Queued));
        }
        assert_eq!(table.len(), last as usize);
        // Ids 0..=3·CHUNK span exactly four chunks: no over-allocation.
        assert_eq!(table.chunks.len(), 4);
        assert!(table.chunks.iter().all(|c| c.capacity() == JobTable::CHUNK));

        table.get_mut(7).unwrap().status = JobStatus::Done;
        assert_eq!(table.get(7).map(|r| r.status), Some(JobStatus::Done));
        table.remove(8);
        table.remove(8);
        assert!(table.get(8).is_none());
        assert!(table.get(0).is_none() && table.get(last + 1).is_none());
        assert!(table.get(JobId::MAX).is_none());
        assert_eq!(table.len(), last as usize - 1);
        assert_eq!(table.values().count(), table.len());
        // Re-inserting an id replaces its record without double counting.
        table.insert(7, record(JobStatus::Failed));
        assert_eq!(table.len(), last as usize - 1);
    }

    #[test]
    fn repeated_theta_hits_shared_cache() {
        let engine = Engine::start(EngineConfig {
            workers: 1,
            ..Default::default()
        });
        let first = match engine.submit(toy_energy([0.4, 0.9])) {
            SubmitOutcome::Accepted(id) => id,
            r => panic!("{r:?}"),
        };
        let e1 = wait(&engine, first).outcome.unwrap();
        let second = match engine.submit(toy_energy([0.4, 0.9])) {
            SubmitOutcome::Accepted(id) => id,
            r => panic!("{r:?}"),
        };
        let e2 = wait(&engine, second).outcome.unwrap();
        assert_eq!(e1.energy.to_bits(), e2.energy.to_bits());
        assert!(!e1.cache_hit);
        assert!(e2.cache_hit, "second identical request must be a hit");
        assert!(engine.cache_stats().hits >= 1);
        engine.drain();
    }

    #[test]
    fn full_queue_rejects_explicitly_and_loses_nothing() {
        // One worker, held busy by a VQE job, with a 2-slot queue: the
        // overload must be rejected with "queue_full", and every accepted
        // job must still complete on drain.
        let engine = Engine::start(EngineConfig {
            workers: 1,
            queue: QueueConfig {
                capacity: 2,
                ..Default::default()
            },
            ..Default::default()
        });
        let blocker = match engine.submit(JobSpec::vqe("toy", vec![1.0, 2.5], 2000)) {
            SubmitOutcome::Accepted(id) => id,
            r => panic!("{r:?}"),
        };
        let mut accepted = vec![blocker];
        let mut rejected = 0;
        for k in 0..12 {
            match engine.submit(toy_energy([0.01 * k as f64, 0.5])) {
                SubmitOutcome::Accepted(id) => accepted.push(id),
                SubmitOutcome::Rejected { reason } => {
                    assert_eq!(reason, "queue_full");
                    rejected += 1;
                }
            }
        }
        assert!(rejected > 0, "12 submissions into 2 slots must overflow");
        engine.drain();
        for id in accepted {
            let view = engine.view(id).unwrap();
            assert_eq!(view.status, JobStatus::Done, "{:?}", view.error);
        }
        assert_eq!(engine.stats().rejected, rejected);
        // Post-drain submissions are rejected, not lost.
        assert!(matches!(
            engine.submit(toy_energy([0.0, 0.0])),
            SubmitOutcome::Rejected { .. }
        ));
    }

    #[test]
    fn compatible_pending_evals_share_one_batch() {
        // One worker, blocked behind a VQE job while ten compatible energy
        // evals queue up: when the worker frees, it must claim them as
        // one group (mean batch size > 1).
        let engine = Engine::start(EngineConfig {
            workers: 1,
            max_batch: 16,
            ..Default::default()
        });
        let blocker = match engine.submit(JobSpec::vqe("toy", vec![1.0, 2.5], 1500)) {
            SubmitOutcome::Accepted(id) => id,
            r => panic!("{r:?}"),
        };
        let ids: Vec<JobId> = (0..10)
            .map(
                |k| match engine.submit(toy_energy([0.1 * k as f64, -0.3])) {
                    SubmitOutcome::Accepted(id) => id,
                    r => panic!("{r:?}"),
                },
            )
            .collect();
        wait(&engine, blocker);
        for id in &ids {
            assert_eq!(wait(&engine, *id).status, JobStatus::Done);
        }
        let stats = engine.stats();
        assert!(
            stats.max_batch_size > 1,
            "queued compatible evals must group: {stats:?}"
        );
        // Every grouped job reports the batch it rode in.
        let sizes: Vec<usize> = ids
            .iter()
            .map(|&id| engine.view(id).unwrap().outcome.unwrap().batch_size)
            .collect();
        assert!(sizes.iter().any(|&s| s > 1), "{sizes:?}");
        engine.drain();
    }

    #[test]
    fn vqe_and_adapt_jobs_match_library_runs() {
        let engine = Engine::start(EngineConfig::default());
        let vqe_id = match engine.submit(JobSpec::vqe("toy", vec![1.0, 2.5], 2000)) {
            SubmitOutcome::Accepted(id) => id,
            r => panic!("{r:?}"),
        };
        let adapt_id = match engine.submit(JobSpec::adapt("h2", 4)) {
            SubmitOutcome::Accepted(id) => id,
            r => panic!("{r:?}"),
        };
        let vqe_view = wait(&engine, vqe_id);
        assert_eq!(vqe_view.status, JobStatus::Done, "{:?}", vqe_view.error);
        let served = vqe_view.outcome.unwrap();

        let problem = build_problem("toy").unwrap();
        let mut backend = DirectBackend::new();
        let mut opt = NelderMead::for_vqe();
        let reference = run_vqe_with(
            &problem.problem,
            &mut backend,
            &mut opt,
            &[1.0, 2.5],
            2000,
            &ResilienceOptions::default(),
        )
        .unwrap();
        assert_eq!(served.energy.to_bits(), reference.energy.to_bits());
        assert_eq!(served.evaluations, reference.evaluations as u64);

        let adapt_view = wait(&engine, adapt_id);
        assert_eq!(adapt_view.status, JobStatus::Done, "{:?}", adapt_view.error);
        // H2 UCCSD ADAPT reaches the curve minimum quickly.
        assert!((adapt_view.outcome.unwrap().energy + 1.137).abs() < 5e-3);
        engine.drain();
    }

    #[test]
    fn expired_deadline_jobs_never_run() {
        // Deadline of 0 ms: by the time any worker claims it, it is late.
        let engine = Engine::start(EngineConfig {
            workers: 1,
            ..Default::default()
        });
        let blocker = match engine.submit(JobSpec::vqe("toy", vec![1.0, 2.5], 1500)) {
            SubmitOutcome::Accepted(id) => id,
            r => panic!("{r:?}"),
        };
        let doomed = match engine.submit(toy_energy([0.5, 0.5]).with_deadline_ms(0)) {
            SubmitOutcome::Accepted(id) => id,
            r => panic!("{r:?}"),
        };
        wait(&engine, blocker);
        let view = wait(&engine, doomed);
        assert_eq!(view.status, JobStatus::Expired);
        assert!(view.outcome.is_none());
        assert!(engine.stats().expired >= 1);
        engine.drain();
    }

    #[test]
    fn already_expired_job_fails_fast_without_burning_a_worker() {
        // No blocker here: the worker is idle and pops the job immediately,
        // but the queue purges it before selection — it must terminate with
        // the distinct deadline_exceeded error and never reach a backend
        // (no batch is ever formed).
        let engine = Engine::start(EngineConfig {
            workers: 1,
            ..Default::default()
        });
        let doomed = match engine.submit(toy_energy([0.5, 0.5]).with_deadline_ms(0)) {
            SubmitOutcome::Accepted(id) => id,
            r => panic!("{r:?}"),
        };
        let view = wait(&engine, doomed);
        assert_eq!(view.status, JobStatus::Expired);
        assert!(
            view.outcome.is_none(),
            "expired job must not produce output"
        );
        let err = view.error.expect("expired job carries a terminal error");
        assert!(
            err.starts_with("deadline_exceeded"),
            "distinct terminal status, got: {err}"
        );
        let stats = engine.stats();
        assert!(stats.expired >= 1);
        assert_eq!(stats.batches, 0, "job must never reach a backend");
        engine.drain();
    }

    #[test]
    fn cancel_works_only_while_queued() {
        let engine = Engine::start(EngineConfig {
            workers: 1,
            ..Default::default()
        });
        let blocker = match engine.submit(JobSpec::vqe("toy", vec![1.0, 2.5], 1500)) {
            SubmitOutcome::Accepted(id) => id,
            r => panic!("{r:?}"),
        };
        let victim = match engine.submit(toy_energy([0.2, 0.2])) {
            SubmitOutcome::Accepted(id) => id,
            r => panic!("{r:?}"),
        };
        assert!(engine.cancel(victim), "queued job must cancel");
        assert_eq!(engine.status(victim), Some(JobStatus::Cancelled));
        assert!(!engine.cancel(victim), "cancel is not idempotent-true");
        assert!(!engine.cancel(9999), "unknown id");
        wait(&engine, blocker);
        assert!(!engine.cancel(blocker), "terminal job cannot cancel");
        engine.drain();
        assert_eq!(engine.stats().cancelled, 1);
    }

    #[test]
    fn faulty_engine_still_returns_exact_energies() {
        let engine = Engine::start(EngineConfig {
            faults: Some(FaultSpec::eval_failures(0.2, 11)),
            ..Default::default()
        });
        let theta = [0.45, -1.2];
        // Enough submissions that a 20% fault rate fires with near
        // certainty somewhere, exercising the retry path.
        let ids: Vec<JobId> = (0..16)
            .map(|k| {
                let t = [theta[0] + 0.01 * k as f64, theta[1]];
                match engine.submit(toy_energy(t)) {
                    SubmitOutcome::Accepted(id) => id,
                    r => panic!("{r:?}"),
                }
            })
            .collect();
        let problem = build_problem("toy").unwrap();
        for (k, id) in ids.iter().enumerate() {
            let view = wait(&engine, *id);
            assert_eq!(view.status, JobStatus::Done, "{:?}", view.error);
            let t = [theta[0] + 0.01 * k as f64, theta[1]];
            let mut direct = DirectBackend::new();
            let reference = direct
                .energy(&problem.problem.ansatz, &t, &problem.problem.hamiltonian)
                .unwrap();
            assert_eq!(view.outcome.unwrap().energy.to_bits(), reference.to_bits());
        }
        engine.drain();
    }

    #[test]
    fn panicking_job_is_quarantined_without_losing_batch_mates() {
        // One worker, one poison energy job sharing a claim group with
        // innocents. The first claim panics the worker: everyone in the
        // group is re-queued solo; the innocents then complete, while the
        // poison job crash-loops until the attempt budget quarantines it.
        let marker = f64::from_bits(0x7ff8_0000_dead_0001); // NaN payload, never computed
        let engine = Engine::start(EngineConfig {
            workers: 1,
            max_batch: 8,
            max_job_attempts: 3,
            panic_marker: Some(marker),
            ..Default::default()
        });
        let blocker = match engine.submit(JobSpec::vqe("toy", vec![1.0, 2.5], 1500)) {
            SubmitOutcome::Accepted(id) => id,
            r => panic!("{r:?}"),
        };
        let poison = match engine.submit(toy_energy([marker, 0.0])) {
            SubmitOutcome::Accepted(id) => id,
            r => panic!("{r:?}"),
        };
        let innocents: Vec<JobId> = (0..4)
            .map(
                |k| match engine.submit(toy_energy([0.1 * k as f64, -0.2])) {
                    SubmitOutcome::Accepted(id) => id,
                    r => panic!("{r:?}"),
                },
            )
            .collect();
        wait(&engine, blocker);
        for id in &innocents {
            let view = wait(&engine, *id);
            assert_eq!(view.status, JobStatus::Done, "{:?}", view.error);
        }
        let view = wait(&engine, poison);
        assert_eq!(view.status, JobStatus::Failed);
        let err = view.error.expect("quarantine carries a terminal error");
        assert!(
            err.starts_with("poison_job_quarantined"),
            "distinct terminal error, got: {err}"
        );
        engine.drain();
        let stats = engine.stats();
        assert_eq!(stats.quarantined, 1, "{stats:?}");
        assert!(stats.requeued >= 1, "{stats:?}");
        // Zero-loss accounting: every accepted job reached exactly one
        // terminal state despite the crashes.
        assert_eq!(
            stats.completed + stats.failed + stats.cancelled + stats.expired,
            stats.accepted,
            "{stats:?}"
        );
    }

    #[test]
    fn invalid_specs_are_rejected_without_queueing() {
        let engine = Engine::start(EngineConfig::default());
        for spec in [
            JobSpec::energy("benzene", vec![0.1]),
            JobSpec::energy("toy", vec![0.1]), // needs 2 params
            JobSpec::vqe("toy", vec![0.1, 0.2, 0.3], 100),
            JobSpec::adapt("toy", 0),
        ] {
            assert!(
                matches!(engine.submit(spec.clone()), SubmitOutcome::Rejected { .. }),
                "{spec:?}"
            );
        }
        assert_eq!(engine.stats().rejected, 4);
        assert_eq!(engine.queue_depth(), 0);
        engine.drain();
    }
}
