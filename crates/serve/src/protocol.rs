//! The line-delimited JSON wire protocol.
//!
//! One request per line, one response per line, UTF-8, `\n`-terminated —
//! debuggable with `nc` and greppable in logs. Encoding rides on the
//! workspace's hand-rolled JSON layer (`nwq-telemetry`), which round-trips
//! finite `f64` bitwise; that is what extends the server's exactness
//! guarantee across the wire. Booleans are encoded as `0`/`1` (the JSON
//! layer has no boolean variant; incoming `true`/`false` literals parse to
//! `1`/`0`, so standard clients interoperate).
//!
//! ## Verbs
//!
//! | request | reply |
//! |---|---|
//! | `{"verb":"submit","spec":{…}}` | `{"ok":1,"id":N,"status":"queued"}` or `{"ok":0,"rejected":1,"reason":"queue_full"}` |
//! | `{"verb":"status","id":N}` | `{"ok":1,"id":N,"status":"running"}` |
//! | `{"verb":"result","id":N,"wait":1}` | `{"ok":1,"id":N,"status":"done","energy":…,…}` |
//! | `{"verb":"cancel","id":N}` | `{"ok":1,"cancelled":0∣1}` |
//! | `{"verb":"stats"}` | `{"ok":1,"queue_depth":…,"engine":{…},"cache":{…}}` |
//! | `{"verb":"drain"}` | `{"ok":1,"draining":1}` after all accepted jobs finish |
//!
//! Malformed lines get `{"ok":0,"error":"…"}` and the connection stays
//! open.

use crate::engine::{EngineStats, JobView, SubmitOutcome};
use crate::job::{JobId, JobSpec, JobStatus};
use nwq_telemetry::{JsonValue, Object};
use std::io::{ErrorKind, Write};
use std::time::{Duration, Instant};

/// Writes one `\n`-terminated protocol line, surviving partial writes and
/// transient stalls, and giving up after `budget` of cumulative stalling.
///
/// A reply is written to a socket owned by a worker-side connection
/// thread, so an unread reply to a stalled client must never wedge that
/// thread forever: short writes are resumed from where they stopped,
/// `Interrupted` is retried, and `WouldBlock`/`TimedOut` (what a socket
/// with `set_write_timeout` reports when the peer stops reading) is
/// retried only until `budget` has elapsed — then the write fails with
/// `TimedOut` and the caller drops the connection.
pub fn write_line_with_deadline<W: Write>(
    w: &mut W,
    line: &str,
    budget: Duration,
) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(line.len() + 1);
    buf.extend_from_slice(line.as_bytes());
    buf.push(b'\n');
    let start = Instant::now();
    let mut written = 0usize;
    while written < buf.len() {
        match w.write(&buf[written..]) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    ErrorKind::WriteZero,
                    "client closed the write side mid-reply",
                ))
            }
            Ok(n) => written += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if start.elapsed() >= budget {
                    return Err(std::io::Error::new(
                        ErrorKind::TimedOut,
                        format!(
                            "reply write stalled past {budget:?} \
                             ({written}/{} bytes sent)",
                            buf.len()
                        ),
                    ));
                }
                // An OS-level write timeout already blocked for its
                // interval; the yield only guards against hot-spinning on
                // a genuinely non-blocking stream.
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// A decoded client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Submit a job.
    Submit(JobSpec),
    /// Query a job's lifecycle status.
    Status {
        /// Target job.
        id: JobId,
    },
    /// Fetch a job's result, optionally blocking until it is terminal.
    Result {
        /// Target job.
        id: JobId,
        /// Block until terminal (bounded by the server's wait cap).
        wait: bool,
    },
    /// Cancel a still-queued job.
    Cancel {
        /// Target job.
        id: JobId,
    },
    /// Server-wide statistics snapshot.
    Stats,
    /// Stop admission, finish all accepted jobs, then shut down.
    Drain,
}

impl Request {
    /// Decodes one protocol line.
    pub fn parse_line(line: &str) -> Result<Request, String> {
        let v = JsonValue::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
        let verb = v
            .get("verb")
            .and_then(JsonValue::as_str)
            .ok_or("request is missing \"verb\"")?;
        let id = || -> Result<JobId, String> {
            v.get("id")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("{verb:?} needs a numeric \"id\""))
        };
        match verb {
            "submit" => {
                let spec = v.get("spec").ok_or("submit is missing \"spec\"")?;
                Ok(Request::Submit(JobSpec::from_json(spec)?))
            }
            "status" => Ok(Request::Status { id: id()? }),
            "result" => Ok(Request::Result {
                id: id()?,
                wait: v.get("wait").and_then(JsonValue::as_u64).unwrap_or(0) != 0,
            }),
            "cancel" => Ok(Request::Cancel { id: id()? }),
            "stats" => Ok(Request::Stats),
            "drain" => Ok(Request::Drain),
            other => Err(format!("unknown verb {other:?}")),
        }
    }

    /// Encodes the request as one protocol line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut o = Object::new();
        match self {
            Request::Submit(spec) => {
                o.push("verb", JsonValue::Str("submit".into()));
                o.push("spec", spec.to_json());
            }
            Request::Status { id } => {
                o.push("verb", JsonValue::Str("status".into()));
                o.push("id", JsonValue::Int(*id));
            }
            Request::Result { id, wait } => {
                o.push("verb", JsonValue::Str("result".into()));
                o.push("id", JsonValue::Int(*id));
                o.push("wait", JsonValue::Int(u64::from(*wait)));
            }
            Request::Cancel { id } => {
                o.push("verb", JsonValue::Str("cancel".into()));
                o.push("id", JsonValue::Int(*id));
            }
            Request::Stats => o.push("verb", JsonValue::Str("stats".into())),
            Request::Drain => o.push("verb", JsonValue::Str("drain".into())),
        }
        o.into_value().render()
    }
}

fn flag(b: bool) -> JsonValue {
    JsonValue::Int(u64::from(b))
}

/// `{"ok":0,"error":…}` — protocol-level failure; connection stays open.
pub fn error_reply(message: &str) -> JsonValue {
    let mut o = Object::new();
    o.push("ok", flag(false));
    o.push("error", JsonValue::Str(message.into()));
    o.into_value()
}

/// Reply to a submit: accepted (with id) or explicitly rejected.
pub fn submit_reply(outcome: &SubmitOutcome) -> JsonValue {
    let mut o = Object::new();
    match outcome {
        SubmitOutcome::Accepted(id) => {
            o.push("ok", flag(true));
            o.push("id", JsonValue::Int(*id));
            o.push("status", JsonValue::Str(JobStatus::Queued.as_str().into()));
        }
        SubmitOutcome::Rejected { reason } => {
            o.push("ok", flag(false));
            o.push("rejected", flag(true));
            o.push("reason", JsonValue::Str(reason.clone()));
        }
    }
    o.into_value()
}

/// Reply to a status query.
pub fn status_reply(id: JobId, status: Option<JobStatus>) -> JsonValue {
    match status {
        None => error_reply(&format!("unknown job id {id}")),
        Some(s) => {
            let mut o = Object::new();
            o.push("ok", flag(true));
            o.push("id", JsonValue::Int(id));
            o.push("status", JsonValue::Str(s.as_str().into()));
            o.into_value()
        }
    }
}

/// Reply to a result query: the full record view, outcome included when
/// the job is done.
pub fn result_reply(view: Option<&JobView>) -> JsonValue {
    let Some(view) = view else {
        return error_reply("unknown job id");
    };
    let mut o = Object::new();
    o.push("ok", flag(true));
    o.push("id", JsonValue::Int(view.id));
    o.push("status", JsonValue::Str(view.status.as_str().into()));
    if let Some(out) = &view.outcome {
        o.push("energy", JsonValue::Float(out.energy));
        o.push("evaluations", JsonValue::Int(out.evaluations));
        o.push("batch_size", JsonValue::Int(out.batch_size as u64));
        o.push("cache_hit", flag(out.cache_hit));
        o.push("wall_ms", JsonValue::Float(out.wall_ms));
        o.push("queue_wait_ms", JsonValue::Float(out.queue_wait_ms));
    }
    if let Some(err) = &view.error {
        o.push("error", JsonValue::Str(err.clone()));
    }
    o.into_value()
}

/// Reply to a cancel attempt.
pub fn cancel_reply(cancelled: bool) -> JsonValue {
    let mut o = Object::new();
    o.push("ok", flag(true));
    o.push("cancelled", flag(cancelled));
    o.into_value()
}

/// Reply to a stats query.
pub fn stats_reply(
    queue_depth: usize,
    draining: bool,
    engine: &EngineStats,
    cache: &crate::cache::SharedCacheStats,
) -> JsonValue {
    let mut e = Object::new();
    e.push("submitted", JsonValue::Int(engine.submitted));
    e.push("accepted", JsonValue::Int(engine.accepted));
    e.push("rejected", JsonValue::Int(engine.rejected));
    e.push("completed", JsonValue::Int(engine.completed));
    e.push("failed", JsonValue::Int(engine.failed));
    e.push("cancelled", JsonValue::Int(engine.cancelled));
    e.push("expired", JsonValue::Int(engine.expired));
    e.push("batches", JsonValue::Int(engine.batches));
    e.push("batched_jobs", JsonValue::Int(engine.batched_jobs));
    e.push("max_batch_size", JsonValue::Int(engine.max_batch_size));
    e.push("requeued", JsonValue::Int(engine.requeued));
    e.push("quarantined", JsonValue::Int(engine.quarantined));
    e.push("jobs_retained", JsonValue::Int(engine.jobs_retained));
    e.push(
        "mean_batch_size",
        JsonValue::Float(engine.mean_batch_size()),
    );
    let mut c = Object::new();
    c.push("hits", JsonValue::Int(cache.hits));
    c.push("misses", JsonValue::Int(cache.misses));
    c.push("insertions", JsonValue::Int(cache.insertions));
    c.push("evictions", JsonValue::Int(cache.evictions));
    c.push("hit_rate", JsonValue::Float(cache.hit_rate()));
    let mut o = Object::new();
    o.push("ok", flag(true));
    o.push("queue_depth", JsonValue::Int(queue_depth as u64));
    o.push("draining", flag(draining));
    o.push("engine", e.into_value());
    o.push("cache", c.into_value());
    o.into_value()
}

/// Reply to a drain request (sent after the engine finishes draining).
pub fn drain_reply() -> JsonValue {
    let mut o = Object::new();
    o.push("ok", flag(true));
    o.push("draining", flag(true));
    o.into_value()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobOutcome, Priority};

    #[test]
    fn requests_round_trip_through_lines() {
        let reqs = [
            Request::Submit(
                JobSpec::energy("h2", vec![0.1, -0.2, 0.3])
                    .with_priority(Priority::High)
                    .with_deadline_ms(500),
            ),
            Request::Status { id: 7 },
            Request::Result { id: 7, wait: true },
            Request::Result { id: 8, wait: false },
            Request::Cancel { id: 9 },
            Request::Stats,
            Request::Drain,
        ];
        for req in reqs {
            let line = req.to_line();
            assert!(!line.contains('\n'), "one request per line: {line}");
            assert_eq!(Request::parse_line(&line).unwrap(), req, "{line}");
        }
    }

    #[test]
    fn standard_json_booleans_are_accepted() {
        let req = Request::parse_line(r#"{"verb":"result","id":3,"wait":true}"#).unwrap();
        assert_eq!(req, Request::Result { id: 3, wait: true });
        let req = Request::parse_line(r#"{"verb":"result","id":3,"wait":false}"#).unwrap();
        assert_eq!(req, Request::Result { id: 3, wait: false });
    }

    #[test]
    fn malformed_requests_name_the_problem() {
        for (line, needle) in [
            ("not json", "bad JSON"),
            (r#"{"id":3}"#, "verb"),
            (r#"{"verb":"fly"}"#, "unknown verb"),
            (r#"{"verb":"status"}"#, "id"),
            (r#"{"verb":"submit"}"#, "spec"),
            (r#"{"verb":"submit","spec":{"job":"energy"}}"#, "molecule"),
        ] {
            let err = Request::parse_line(line).unwrap_err();
            assert!(err.contains(needle), "{line} -> {err}");
        }
    }

    #[test]
    fn result_reply_round_trips_energy_bitwise() {
        let energy = -1.137_283_834_976_625_4_f64;
        let view = JobView {
            id: 42,
            status: JobStatus::Done,
            outcome: Some(JobOutcome {
                energy,
                evaluations: 1,
                batch_size: 4,
                cache_hit: false,
                wall_ms: 12.5,
                queue_wait_ms: 3.25,
            }),
            error: None,
        };
        let line = result_reply(Some(&view)).render();
        let back = JsonValue::parse(&line).unwrap();
        assert_eq!(back.get("ok").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(back.get("status").and_then(JsonValue::as_str), Some("done"));
        let got = back.get("energy").and_then(JsonValue::as_f64).unwrap();
        assert_eq!(
            got.to_bits(),
            energy.to_bits(),
            "energy must survive the wire"
        );
        assert_eq!(back.get("batch_size").and_then(JsonValue::as_u64), Some(4));
    }

    /// A writer that accepts at most `chunk` bytes per call and emits
    /// `stalls` WouldBlock errors before every successful write.
    struct FlakyWriter {
        chunk: usize,
        stalls: usize,
        pending_stalls: usize,
        wrote: Vec<u8>,
    }

    impl FlakyWriter {
        fn new(chunk: usize, stalls: usize) -> FlakyWriter {
            FlakyWriter {
                chunk,
                stalls,
                pending_stalls: stalls,
                wrote: Vec::new(),
            }
        }
    }

    impl std::io::Write for FlakyWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.pending_stalls > 0 {
                self.pending_stalls -= 1;
                return Err(std::io::Error::new(ErrorKind::WouldBlock, "stalled"));
            }
            self.pending_stalls = self.stalls;
            let n = buf.len().min(self.chunk);
            self.wrote.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn deadline_write_survives_partial_writes_and_transient_stalls() {
        let line = stats_reply(3, false, &EngineStats::default(), &Default::default()).render();
        let mut w = FlakyWriter::new(5, 2);
        write_line_with_deadline(&mut w, &line, Duration::from_secs(5)).unwrap();
        assert_eq!(w.wrote, format!("{line}\n").into_bytes());
    }

    #[test]
    fn deadline_write_gives_up_on_a_permanently_stalled_client() {
        struct AlwaysStalled;
        impl std::io::Write for AlwaysStalled {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::new(ErrorKind::WouldBlock, "stalled"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let err =
            write_line_with_deadline(&mut AlwaysStalled, "{\"ok\":1}", Duration::from_millis(20))
                .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::TimedOut, "{err}");
    }

    #[test]
    fn deadline_write_reports_a_closed_peer_as_write_zero() {
        struct Closed;
        impl std::io::Write for Closed {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let err = write_line_with_deadline(&mut Closed, "{\"ok\":1}", Duration::from_millis(20))
            .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::WriteZero, "{err}");
    }

    #[test]
    fn stats_reply_reports_containment_counters() {
        let engine = EngineStats {
            requeued: 4,
            quarantined: 1,
            ..Default::default()
        };
        let line = stats_reply(0, false, &engine, &Default::default()).render();
        let v = JsonValue::parse(&line).unwrap();
        let e = v.get("engine").unwrap();
        assert_eq!(e.get("requeued").and_then(JsonValue::as_u64), Some(4));
        assert_eq!(e.get("quarantined").and_then(JsonValue::as_u64), Some(1));
    }

    #[test]
    fn rejection_reply_is_explicit() {
        let reply = submit_reply(&SubmitOutcome::Rejected {
            reason: "queue_full".into(),
        });
        let line = reply.render();
        let v = JsonValue::parse(&line).unwrap();
        assert_eq!(v.get("ok").and_then(JsonValue::as_u64), Some(0));
        assert_eq!(v.get("rejected").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(
            v.get("reason").and_then(JsonValue::as_str),
            Some("queue_full")
        );
    }
}
