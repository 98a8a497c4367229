//! Deterministic closed-loop load generator for the `nwq-serve` job
//! server, emitting the committed `BENCH_serve.json` baseline.
//!
//! The workload models homogeneous tenants — many clients evaluating the
//! same registry molecule over a small shared grid of parameter points —
//! because that is the regime cross-job batching and the shared energy
//! cache are built for:
//!
//! 1. **Batching phase**: both workers are pinned by VQE jobs while a
//!    burst of compatible energy evaluations queues behind them, so the
//!    first free worker must claim a multi-job group (mean batch size > 1
//!    by construction, not by racing).
//! 2. **Steady-state phase**: every client runs a closed loop — submit a
//!    burst, wait for all results, repeat — over a θ-grid smaller than a
//!    round, so later rounds hit energies cached by earlier ones and the
//!    small queue forces explicit `queue_full` rejections under the burst
//!    peaks (counted and retried).
//!
//! Every returned energy is verified bitwise against a fresh
//! `DirectBackend` evaluation of the same θ; the report records the check.
//! Parameter points are a fixed grid — no RNG anywhere — so the workload
//! (though not the timing) is identical run to run.

use nwq_core::backend::{Backend, DirectBackend};
use nwq_serve::{
    build_problem, Client, EngineConfig, JobSpec, Priority, QueueConfig, Server, ServerConfig,
    SubmitOutcome,
};
use nwq_telemetry::{JsonValue, Object};
use std::time::{Duration, Instant};

const CLIENTS: usize = 6;
const ROUNDS: usize = 6;
const BURST: usize = 8;
/// θ-grid size; smaller than one round's burst total so repeats (and thus
/// shared-cache hits) are guaranteed once the first round completes.
const GRID: usize = 16;

fn grid_theta(k: usize) -> Vec<f64> {
    let i = k % GRID;
    vec![-1.5 + 0.2 * i as f64, 0.7 - 0.13 * i as f64]
}

fn priority_of(k: usize) -> Priority {
    match k % 3 {
        0 => Priority::Low,
        1 => Priority::Normal,
        _ => Priority::High,
    }
}

/// Submits with bounded retry on explicit `queue_full` backpressure.
/// Returns `(job id, rejections seen)`.
fn submit_with_retry(client: &mut Client, spec: &JobSpec) -> (u64, u64) {
    let mut rejections = 0;
    loop {
        match client.submit(spec).expect("transport to server") {
            SubmitOutcome::Accepted(id) => return (id, rejections),
            SubmitOutcome::Rejected { reason } => {
                assert_eq!(reason, "queue_full", "only backpressure expected");
                rejections += 1;
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

fn main() {
    let root = std::env::args().nth(1).unwrap_or_else(|| ".".into());
    nwq_telemetry::set_enabled(true);

    let cfg = ServerConfig {
        engine: EngineConfig {
            workers: 2,
            // Small queue relative to the burst peak (6 clients × 8 jobs)
            // so admission rejection is actually exercised.
            queue: QueueConfig {
                capacity: 24,
                ..Default::default()
            },
            max_batch: 8,
            ..Default::default()
        },
        ..Default::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind loopback");
    let addr = server.local_addr().expect("local addr").to_string();
    let serving = std::thread::spawn(move || server.run());
    println!("serving on {addr} (2 workers, queue 24, max batch 8)");

    let started = Instant::now();

    // --- Phase 1: guaranteed batching and guaranteed backpressure. Pin
    // both workers with VQE jobs, then push more compatible evaluations
    // than the 24-slot queue holds: the overflow must come back as
    // explicit `queue_full` (retried here), and the first worker to free
    // must claim a multi-job group. ---
    let mut pinned = Client::connect(&addr).expect("connect");
    let mut phase1_rejections = 0u64;
    let mut phase1_ids = Vec::new();
    for _ in 0..2 {
        // Water UCCSD has enough parameters that Nelder–Mead consumes the
        // whole budget — each blocker reliably pins its worker far longer
        // than the 30 loopback submissions below take. (Budget sized for
        // the SIMD kernels; 800 sufficed when evaluations were ~2.5× slower.)
        let (id, _) = submit_with_retry(&mut pinned, &JobSpec::vqe("water", vec![], 2400));
        phase1_ids.push(id);
    }
    for k in 0..30 {
        // Off-grid θ so phase 1 never touches the phase 2 cache.
        let theta = vec![3.0 + 0.01 * k as f64, -2.0];
        let (id, rej) = submit_with_retry(&mut pinned, &JobSpec::energy("toy", theta));
        phase1_rejections += rej;
        phase1_ids.push(id);
    }
    for id in &phase1_ids {
        let reply = pinned.wait_result(*id).expect("result");
        assert_eq!(
            reply.get("status").and_then(JsonValue::as_str),
            Some("done"),
            "phase 1 job {id}"
        );
    }

    // --- Phase 2: closed-loop homogeneous tenants. ---
    type ClientReport = (u64, Vec<(usize, f64)>);
    let reports: Vec<ClientReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut client = Client::connect(&addr).expect("connect");
                    let mut rejections = 0u64;
                    let mut energies: Vec<(usize, f64)> = Vec::new();
                    for round in 0..ROUNDS {
                        let mut ids = Vec::with_capacity(BURST);
                        for j in 0..BURST {
                            let k = c * 31 + round * 7 + j;
                            let spec =
                                JobSpec::energy("toy", grid_theta(k)).with_priority(priority_of(k));
                            let (id, rej) = submit_with_retry(&mut client, &spec);
                            rejections += rej;
                            ids.push((k, id));
                        }
                        for (k, id) in ids {
                            let reply = client.wait_result(id).expect("result");
                            assert_eq!(
                                reply.get("status").and_then(JsonValue::as_str),
                                Some("done"),
                                "job {id}: {reply:?}"
                            );
                            let e = reply
                                .get("energy")
                                .and_then(JsonValue::as_f64)
                                .expect("done reply has energy");
                            energies.push((k, e));
                        }
                    }
                    (rejections, energies)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();

    // --- Verify every served energy bitwise against a fresh backend. ---
    let problem = build_problem("toy").expect("registry problem");
    let mut reference = DirectBackend::new();
    let mut eval = |theta: &[f64]| {
        reference
            .energy(&problem.problem.ansatz, theta, &problem.problem.hamiltonian)
            .expect("reference evaluation")
    };
    let mut checked = 0u64;
    for (_, energies) in &reports {
        for &(k, served) in energies {
            let expect = eval(&grid_theta(k));
            assert_eq!(
                served.to_bits(),
                expect.to_bits(),
                "θ-grid point {k}: served {served} != reference {expect}"
            );
            checked += 1;
        }
    }
    let client_rejections: u64 = phase1_rejections + reports.iter().map(|(r, _)| r).sum::<u64>();
    let jobs_done = checked + phase1_ids.len() as u64;
    println!(
        "verified {checked} served energies bitwise against DirectBackend ({jobs_done} jobs total)"
    );

    // --- Server-side accounting, then drain. ---
    let stats = pinned.stats().expect("stats");
    let engine = stats.get("engine").expect("engine section").clone();
    let cache = stats.get("cache").expect("cache section").clone();
    let mean_batch = engine
        .get("mean_batch_size")
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0);
    let hit_rate = cache
        .get("hit_rate")
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0);
    assert!(
        mean_batch > 1.0,
        "homogeneous workload must batch (mean {mean_batch})"
    );
    assert!(
        hit_rate > 0.0,
        "repeated θ-grid must hit the shared cache (rate {hit_rate})"
    );
    assert!(
        client_rejections > 0,
        "30 submissions into a 24-slot queue behind pinned workers must see queue_full"
    );
    pinned.drain().expect("drain");
    serving.join().expect("server thread").expect("server run");

    // --- Report. ---
    let latency = nwq_telemetry::histogram_snapshot("serve.latency_ms")
        .map(|h| h.summary_json())
        .unwrap_or(JsonValue::Null);
    let queue_wait = nwq_telemetry::histogram_snapshot("serve.queue_wait_ms")
        .map(|h| h.summary_json())
        .unwrap_or(JsonValue::Null);
    let mut workload = Object::new();
    workload.push("clients", JsonValue::Int(CLIENTS as u64));
    workload.push("rounds", JsonValue::Int(ROUNDS as u64));
    workload.push("burst", JsonValue::Int(BURST as u64));
    workload.push("theta_grid", JsonValue::Int(GRID as u64));
    workload.push("molecule", JsonValue::Str("toy".into()));
    workload.push("jobs_done", JsonValue::Int(jobs_done));
    workload.push("wall_s", JsonValue::Float(wall_s));
    workload.push("jobs_per_s", JsonValue::Float(jobs_done as f64 / wall_s));
    let mut admission = Object::new();
    admission.push(
        "client_observed_rejections",
        JsonValue::Int(client_rejections),
    );
    admission.push("queue_capacity", JsonValue::Int(24));
    let mut verifiedo = Object::new();
    verifiedo.push("energies_checked", JsonValue::Int(checked));
    verifiedo.push("bitwise_identical", JsonValue::Int(1));
    let mut report = Object::new();
    report.push("benchmark", JsonValue::Str("serve_load".into()));
    report.push("workload", workload.into_value());
    report.push("engine", engine);
    report.push("cache", cache);
    report.push("admission", admission.into_value());
    report.push("latency_ms", latency);
    report.push("queue_wait_ms", queue_wait);
    report.push("verified", verifiedo.into_value());
    let path = format!("{root}/BENCH_serve.json");
    std::fs::write(&path, report.into_value().render()).expect("write BENCH_serve.json");
    println!(
        "wrote BENCH_serve.json   ({jobs_done} jobs, {:.0} jobs/s, mean batch {mean_batch:.2}, cache hit rate {hit_rate:.2})",
        jobs_done as f64 / wall_s
    );
}
