//! `serve_mixed_open` — the served loop: an in-process `nwq-serve` server
//! on loopback with one worker, answering energy evaluations for a mix of
//! molecules and of repeated and fresh parameter points.
//!
//! Queue, batcher, shared cache, protocol and transport do most of the
//! work here and the kernels little. Phase A is a closed loop on one
//! connection with 16 jobs in flight. Phase B is an **open loop** at three
//! fixed rates: one connection submits on schedule, a second collects
//! results, and latency runs from each job's *due* time to its result
//! reply. Refused jobs are counted, never retried.

use super::{err, Outcome, RunCfg};
use crate::openloop;
use crate::rng::Rng;
use crate::stats;
use nwq_core::backend::{Backend, DirectBackend};
use nwq_serve::{
    build_problem, Client, Engine, EngineConfig, JobSpec, QueueConfig, Request, Server,
    ServerConfig, SubmitOutcome,
};
use nwq_statevec::plan_cache;
use nwq_telemetry::JsonValue;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Offered rates of the open-loop phase, jobs per second.
const RATES: [f64; 3] = [500.0, 1500.0, 3000.0];
/// A job is good when its correct answer arrives within this of its due
/// time; the same limit applies to p99 for `max_ok_rate`.
const LATENCY_LIMIT_MS: f64 = 25.0;
/// An open-loop step is valid only while the generator itself keeps to
/// its schedule.
const GEN_LATE_LIMIT_MS: f64 = 1.0;
const MOLECULES: [&str; 2] = ["h2", "water"];
const H2_SHARE: f64 = 0.85;
const GRID_POINTS: usize = 32;
const GRID_SHARE: f64 = 0.5;
const VERIFY_EVERY: usize = 16;
/// Fewer outstanding jobs than one batch is work in flight, not a backlog.
const IN_FLIGHT_ALLOWANCE: usize = 8;
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);
/// The default 64-slot admission queue holds 21 ms of arrivals at the top
/// rate — less than one pre-emption of a virtual CPU by the host (stalls
/// of 20–90 ms were seen on the reference host), which turned a blip of
/// the host into refused jobs. With this capacity only sustained overload
/// refuses.
const QUEUE_CAPACITY: usize = 4096;
/// Jobs the closed-loop phase keeps in flight: two batches' worth.
const WINDOW: usize = 16;

/// The seeded job stream: 85 % h2 / 15 % water, θ from a 32-point grid per
/// molecule with probability ½ (shared-cache hits once the grid has been
/// seen), otherwise a fresh point.
struct Jobs {
    rng: Rng,
    n_params: [usize; 2],
    grids: [Vec<Vec<f64>>; 2],
}

struct Job {
    molecule: usize,
    theta: Vec<f64>,
}

impl Jobs {
    fn new(seed: u64, n_params: [usize; 2]) -> Self {
        let mut rng = Rng::new(seed, 5);
        let grids = n_params.map(|n| {
            (0..GRID_POINTS)
                .map(|_| (0..n).map(|_| rng.range(-0.3, 0.3)).collect())
                .collect()
        });
        Jobs {
            rng,
            n_params,
            grids,
        }
    }

    fn next(&mut self) -> Job {
        let molecule = usize::from(self.rng.unit() >= H2_SHARE);
        let theta = if self.rng.unit() < GRID_SHARE {
            let point = (self.rng.unit() * GRID_POINTS as f64) as usize;
            self.grids[molecule][point].clone()
        } else {
            (0..self.n_params[molecule])
                .map(|_| self.rng.range(-0.3, 0.3))
                .collect()
        };
        Job { molecule, theta }
    }
}

impl Job {
    fn spec(&self) -> JobSpec {
        JobSpec::energy(MOLECULES[self.molecule], self.theta.clone())
    }
}

/// A running server plus its serving thread; dropping it drains the
/// engine and joins the thread.
struct Live {
    addr: String,
    engine: Arc<Engine>,
    serving: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl Live {
    /// Everything before the first timed job: bind, worker start, and one
    /// job per molecule (registry build, template compile, first state).
    fn start() -> Result<Live, String> {
        plan_cache::clear();
        let cfg = ServerConfig {
            engine: EngineConfig {
                workers: 1,
                queue: QueueConfig {
                    capacity: QUEUE_CAPACITY,
                    ..Default::default()
                },
                ..Default::default()
            },
            ..Default::default()
        };
        let server = Server::bind("127.0.0.1:0", cfg).map_err(err)?;
        let addr = server.local_addr().map_err(err)?.to_string();
        let engine = server.engine();
        let serving = std::thread::spawn(move || server.run());
        let live = Live {
            addr,
            engine,
            serving: Some(serving),
        };
        let mut client = live.connect()?;
        for molecule in MOLECULES {
            let n = build_problem(molecule)
                .map_err(err)?
                .problem
                .ansatz
                .n_params();
            match client
                .submit(&JobSpec::energy(molecule, vec![0.01; n]))
                .map_err(err)?
            {
                SubmitOutcome::Accepted(id) => client.wait_result(id).map_err(err)?,
                SubmitOutcome::Rejected { reason } => {
                    return Err(format!("warm-up refused: {reason}"))
                }
            };
        }
        Ok(live)
    }

    fn connect(&self) -> Result<Client, String> {
        Client::connect_with_timeout(&self.addr, Some(REPLY_TIMEOUT)).map_err(err)
    }
}

impl Drop for Live {
    fn drop(&mut self) {
        // Errors here mean the server is already gone; there is nothing
        // left to stop.
        if let Ok(mut client) = self.connect() {
            let _ = client.drain();
        }
        if let Some(handle) = self.serving.take() {
            let _ = handle.join();
        }
    }
}

/// One answered job as the client saw it.
struct Answer {
    /// Index into the phase's job list.
    k: usize,
    latency_ms: f64,
    done: bool,
    energy: f64,
    cache_hit: bool,
    /// Server-side `wall_ms` and `queue_wait_ms` of the job's outcome.
    wall_ms: f64,
    queue_wait_ms: f64,
}

fn answer(k: usize, since: Instant, reply: &JsonValue) -> Answer {
    let num = |key| {
        reply
            .get(key)
            .and_then(JsonValue::as_f64)
            .unwrap_or(f64::NAN)
    };
    Answer {
        k,
        latency_ms: since.elapsed().as_secs_f64() * 1e3,
        done: reply.get("status").and_then(JsonValue::as_str) == Some("done"),
        energy: num("energy"),
        cache_hit: reply.get("cache_hit").and_then(JsonValue::as_u64) == Some(1),
        wall_ms: num("wall_ms"),
        queue_wait_ms: num("queue_wait_ms"),
    }
}

#[derive(Default)]
struct Phase {
    jobs: Vec<Job>,
    answers: Vec<Answer>,
    /// Jobs the server refused, plus jobs never sent before the deadline.
    refused: usize,
    seconds: f64,
    /// Open loop only.
    late_ms_p99: f64,
    backlog_mid: usize,
    backlog_end: usize,
}

impl Phase {
    /// Answers that are done, verified where checked, and inside the
    /// latency limit.
    fn good(&self, wrong: &[bool]) -> usize {
        self.answers
            .iter()
            .filter(|a| a.done && !wrong[a.k] && a.latency_ms <= LATENCY_LIMIT_MS)
            .count()
    }

    fn latencies(&self) -> Vec<f64> {
        self.answers.iter().map(|a| a.latency_ms).collect()
    }

    fn keeps_up(&self) -> bool {
        self.backlog_end <= self.backlog_mid.max(IN_FLIGHT_ALLOWANCE)
    }

    fn valid(&self) -> bool {
        self.late_ms_p99 <= GEN_LATE_LIMIT_MS
    }
}

/// Phase A: a closed loop on one connection that keeps [`WINDOW`] jobs in
/// flight — enough to keep the single worker busy — and submits the next
/// job each time the oldest is answered.
///
/// With one job in flight this phase measured how long an idle virtual
/// CPU of the host takes to wake, four thread hand-offs per job, and
/// flipped between 45 µs and 130 µs per job from one process to the next;
/// with the worker saturated it measures the work per job.
fn closed_loop(live: &Live, jobs: &mut Jobs, seconds: f64) -> Result<Phase, String> {
    let mut client = live.connect()?;
    let mut phase = Phase::default();
    let mut in_flight: VecDeque<(usize, Instant, u64)> = VecDeque::with_capacity(WINDOW);
    let began = Instant::now();
    loop {
        let open = began.elapsed().as_secs_f64() < seconds;
        while open && in_flight.len() < WINDOW {
            let job = jobs.next();
            let spec = job.spec();
            let k = phase.jobs.len();
            phase.jobs.push(job);
            let sent = Instant::now();
            match client.submit(&spec).map_err(err)? {
                SubmitOutcome::Accepted(id) => in_flight.push_back((k, sent, id)),
                SubmitOutcome::Rejected { .. } => phase.refused += 1,
            }
        }
        let Some((k, sent, id)) = in_flight.pop_front() else {
            break;
        };
        let reply = client.wait_result(id).map_err(err)?;
        phase.answers.push(answer(k, sent, &reply));
    }
    phase.seconds = began.elapsed().as_secs_f64();
    Ok(phase)
}

/// Phase B, one step: `rate` jobs per second for `seconds`, submitted on
/// schedule by this thread and collected by a second connection. A
/// `submit` is a request and a reply, so a server slow to admit holds the
/// generator up; that wait is inside every latency (they run from the due
/// time) and is reported as `serve.gen_late_ms_p99`. (Writing submits
/// without reading their replies was tried: with Nagle on the server's
/// side of the socket it stalls for a delayed-ACK period and measures
/// that instead.)
fn open_loop(live: &Live, jobs: &mut Jobs, rate: f64, seconds: f64) -> Result<Phase, String> {
    let n = ((rate * seconds) as usize).max(1);
    let job_list: Vec<Job> = (0..n).map(|_| jobs.next()).collect();
    let specs: Vec<JobSpec> = job_list.iter().map(Job::spec).collect();
    let mut submitter = live.connect()?;
    let mut collector = live.connect()?;
    let collected = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, Instant, u64)>();

    let (answers, sent) = std::thread::scope(|scope| {
        let collecting = scope.spawn(|| -> Result<Vec<Answer>, String> {
            let mut answers = Vec::with_capacity(n);
            for (k, due, id) in rx {
                let reply = collector.wait_result(id).map_err(err)?;
                answers.push(answer(k, due, &reply));
                collected.fetch_add(1, Ordering::Relaxed);
            }
            Ok(answers)
        });

        let start = Instant::now() + Duration::from_millis(2);
        let deadline = start + Duration::from_secs_f64(seconds + 0.5);
        let (mut accepted, mut refused, mut backlog_mid) = (0usize, 0usize, 0usize);
        let mut failure = None;
        let (late_s, unsent) = openloop::pace(start, rate, n, deadline, |k, due| {
            if failure.is_some() {
                return;
            }
            match submitter.submit(&specs[k]) {
                Ok(SubmitOutcome::Accepted(id)) => {
                    accepted += 1;
                    // The collector only stops early on its own error,
                    // which it reports when joined.
                    let _ = tx.send((k, due, id));
                }
                Ok(SubmitOutcome::Rejected { .. }) => refused += 1,
                Err(e) => failure = Some(err(e)),
            }
            if k == n / 2 {
                backlog_mid = accepted - collected.load(Ordering::Relaxed);
            }
        });
        let backlog_end = accepted - collected.load(Ordering::Relaxed);
        drop(tx);
        let answers = collecting.join().expect("collector thread panicked");
        let sent = match failure {
            Some(e) => Err(e),
            None => Ok((
                late_s,
                refused + unsent,
                backlog_mid,
                backlog_end,
                start.elapsed().as_secs_f64(),
            )),
        };
        (answers, sent)
    });
    let (late_s, refused, backlog_mid, backlog_end, elapsed) = sent?;
    let late_ms: Vec<f64> = late_s.iter().map(|s| s * 1e3).collect();
    Ok(Phase {
        jobs: job_list,
        answers: answers?,
        refused,
        seconds: elapsed,
        // Reported whatever the count: it gates the step, it is not a timing
        // of the system.
        late_ms_p99: stats::quantile_sorted(&stats::sorted(&late_ms), 0.99),
        backlog_mid,
        backlog_end,
    })
}

/// Every 16th job of a phase against a fresh `DirectBackend`, bit for bit.
/// Returns one flag per job: answered, checked, and wrong.
fn verify(phase: &Phase, problems: &[nwq_serve::ServeProblem; 2]) -> Result<Vec<bool>, String> {
    let mut wrong = vec![false; phase.jobs.len()];
    for a in phase
        .answers
        .iter()
        .filter(|a| a.done && a.k % VERIFY_EVERY == 0)
    {
        let job = &phase.jobs[a.k];
        let p = &problems[job.molecule].problem;
        let expect = DirectBackend::new()
            .energy(&p.ansatz, &job.theta, &p.hamiltonian)
            .map_err(err)?;
        wrong[a.k] = a.energy.to_bits() != expect.to_bits();
    }
    Ok(wrong)
}

/// Evaluations per second of eight water θ through `energy_batch` (one
/// walker-batched sweep) and through eight `energy` calls.
fn walkers_probe(problem: &nwq_core::vqe::VqeProblem, seed: u64) -> Result<(f64, f64), String> {
    let mut rng = Rng::new(seed, 6);
    let sets: Vec<Vec<f64>> = (0..8)
        .map(|_| {
            (0..problem.ansatz.n_params())
                .map(|_| rng.range(-0.3, 0.3))
                .collect()
        })
        .collect();
    let rate = |batched: bool| -> Result<f64, String> {
        let mut backend = DirectBackend::new();
        let start = Instant::now();
        let mut evals = 0usize;
        while start.elapsed().as_secs_f64() < 0.3 {
            if batched {
                backend
                    .energy_batch(&problem.ansatz, &sets, &problem.hamiltonian)
                    .map_err(err)?;
            } else {
                for theta in &sets {
                    backend
                        .energy(&problem.ansatz, theta, &problem.hamiltonian)
                        .map_err(err)?;
                }
            }
            evals += sets.len();
        }
        Ok(evals as f64 / start.elapsed().as_secs_f64())
    };
    Ok((rate(true)?, rate(false)?))
}

/// Microseconds for one request's protocol work on both ends:
/// `Request::to_line` + `Request::parse_line`, which carry the `JobSpec`
/// JSON round trip.
fn protocol_us(spec: &JobSpec) -> Result<f64, String> {
    const REPS: u32 = 2000;
    let request = Request::Submit(spec.clone());
    let start = Instant::now();
    for _ in 0..REPS {
        let line = std::hint::black_box(&request).to_line();
        std::hint::black_box(Request::parse_line(&line)?);
    }
    Ok(start.elapsed().as_secs_f64() * 1e6 / f64::from(REPS))
}

pub fn run(cfg: RunCfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (live, setup_s) = super::timed_setup(Live::start)?;
    let problems = [
        build_problem("h2").map_err(err)?,
        build_problem("water").map_err(err)?,
    ];
    let mut jobs = Jobs::new(
        cfg.seed,
        [0, 1].map(|m| problems[m].problem.ansatz.n_params()),
    );

    let cpu_before = crate::host::cpu_times_s();
    let closed = closed_loop(&live, &mut jobs, 0.2 * cfg.seconds)?;
    let step_s = 0.8 * cfg.seconds / RATES.len() as f64;
    let mut steps = Vec::new();
    for rate in RATES {
        steps.push(open_loop(&live, &mut jobs, rate, step_s)?);
    }
    let engine_stats = live.engine.stats();
    let cache_stats = live.engine.cache_stats();
    drop(live);
    if cfg.trace {
        // CPU split of the phases alone, before the output checks run.
        super::fill_host(&mut out.metrics, cpu_before);
    }

    // Failure accounting: refused, unsent, unanswered, not done, or wrong.
    let mut wrongs = Vec::new();
    for phase in std::iter::once(&closed).chain(&steps) {
        let wrong = verify(phase, &problems)?;
        let answered_well = phase
            .answers
            .iter()
            .filter(|a| a.done && !wrong[a.k])
            .count();
        out.attempted += phase.jobs.len() as u64;
        out.failed += (phase.jobs.len() - answered_well) as u64;
        wrongs.push(wrong);
    }
    for (rate, step) in RATES.iter().zip(&steps) {
        if !step.valid() {
            eprintln!(
                "ledger: serve_mixed_open: step at {rate} jobs/s is invalid: the generator ran \
                 {:.3} ms late at p99 (limit {GEN_LATE_LIMIT_MS} ms)",
                step.late_ms_p99
            );
        }
    }

    let m = &mut out.metrics;
    let closed_lat = closed.latencies();
    let (mid, top) = (&steps[1], &steps[2]);
    if !cfg.trace {
        let done = closed.answers.iter().filter(|a| a.done).count() as f64;
        m.set("setup_s", setup_s);
        m.set("solve_s_p50", stats::median(&closed_lat) * 1e-3);
        m.set("evals_per_s", done / closed.seconds);
        m.set("jobs_per_s", done / closed.seconds);
        // Computed: logical gates × 2ⁿ of every phase-A job that ran a
        // circuit (a shared-cache hit runs none).
        let updates: f64 = closed
            .answers
            .iter()
            .filter(|a| a.done && !a.cache_hit)
            .map(|a| {
                let ansatz = &problems[closed.jobs[a.k].molecule].problem.ansatz;
                (ansatz.len() << ansatz.n_qubits()) as f64
            })
            .sum();
        m.set("amp_updates_per_s", updates / closed.seconds);
        m.set("goodput_per_s", top.good(&wrongs[3]) as f64 / top.seconds);
        m.set("peak_rss_mb", crate::host::peak_rss_mib());
    } else {
        m.set("fail_frac", out.failed as f64 / out.attempted as f64);
        super::fill_latency(m, &mid.latencies());
        let p99 = |step: &Phase| {
            // A job that was refused or never answered misses every limit.
            (step.answers.len() == step.jobs.len())
                .then(|| stats::percentile(&step.latencies(), 99))
                .flatten()
        };
        let mut max_ok = 0.0;
        for ((rate, step), wrong) in RATES.iter().zip(&steps).zip(&wrongs[1..]) {
            let clean = step.refused == 0 && step.answers.iter().all(|a| a.done && !wrong[a.k]);
            let in_limit = p99(step).is_some_and(|p| p <= LATENCY_LIMIT_MS);
            if step.valid() && clean && step.keeps_up() && in_limit {
                max_ok = *rate;
            }
        }
        m.set("max_ok_rate", max_ok);
        for (name, step) in [
            "serve.lat_p99_ms_r500",
            "serve.lat_p99_ms_r1500",
            "serve.lat_p99_ms_r3000",
        ]
        .into_iter()
        .zip(&steps)
        {
            if let Some(p) = p99(step) {
                m.set(name, p);
            }
        }
        let of_mid = |f: fn(&Answer) -> f64| mid.answers.iter().map(f).collect::<Vec<_>>();
        let queue_wait = of_mid(|a| a.queue_wait_ms);
        m.set("serve.queue_wait_ms_p50", stats::median(&queue_wait));
        if let Some(p95) = stats::percentile(&queue_wait, 95) {
            m.set("serve.queue_wait_ms_p95", p95);
        }
        m.set(
            "serve.service_ms_p50",
            stats::median(&of_mid(|a| a.wall_ms - a.queue_wait_ms)),
        );
        m.set(
            "serve.transport_ms_p50",
            stats::median(&of_mid(|a| a.latency_ms - a.wall_ms)),
        );
        m.set("serve.batch_size_mean", engine_stats.mean_batch_size());
        m.set("serve.cache_hit_rate", cache_stats.hit_rate());
        m.set("cache.hit_rate", cache_stats.hit_rate());
        let offered: usize = steps.iter().map(|s| s.jobs.len()).sum();
        let refused: usize = steps.iter().map(|s| s.refused).sum();
        m.set("serve.rejected_frac", refused as f64 / offered as f64);
        m.set("serve.backlog_end", top.backlog_end as f64);
        m.set("serve.gen_late_ms_p99", top.late_ms_p99);
        m.set("serve.protocol_us", protocol_us(&mid.jobs[0].spec())?);
        let (batch8, seq8) = walkers_probe(&problems[1].problem, cfg.seed)?;
        m.set("walkers.batch8_evals_per_s", batch8);
        m.set("walkers.seq8_evals_per_s", seq8);
        // No spans cross the socket: coverage here is the share of the
        // client-observed latency at the middle rate that the server's own
        // clock (queue wait + service) accounts for.
        let server_ms: f64 = mid.answers.iter().map(|a| a.wall_ms).sum();
        m.set(
            "trace.coverage_frac",
            server_ms / mid.latencies().iter().sum::<f64>(),
        );
    }
    Ok(out)
}
