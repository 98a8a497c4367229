//! Open-loop pacing: requests leave on a fixed schedule whether or not
//! earlier ones have been answered, and latency runs from the time a
//! request was *due*, so a stall is charged to every request it delays.

use std::time::{Duration, Instant};

/// Due time of request `k` at `rate` requests per second.
pub fn due(start: Instant, rate: f64, k: usize) -> Instant {
    start + Duration::from_secs_f64(k as f64 / rate)
}

/// Blocks until `t`: sleeps while more than `SPIN` remains, then spins
/// (a sleep alone overshoots by the timer slack, ~60 µs here, which at
/// 3000 requests/s is a fifth of the period).
pub fn wait_until(t: Instant) {
    const SPIN: Duration = Duration::from_micros(150);
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        let left = t - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Sends requests `0..n` on the schedule `due(start, rate, k)`, calling
/// `send(k, due_k)` for each. A request that cannot leave on time (the
/// previous `send` was still blocked) leaves as soon as it can and is
/// never dropped. Sending stops at `deadline`; the requests not sent by
/// then are returned as the second element. Returns how late each sent
/// request left, in seconds.
pub fn pace(
    start: Instant,
    rate: f64,
    n: usize,
    deadline: Instant,
    mut send: impl FnMut(usize, Instant),
) -> (Vec<f64>, usize) {
    let mut late_s = Vec::with_capacity(n);
    for k in 0..n {
        let due_k = due(start, rate, k);
        wait_until(due_k);
        let now = Instant::now();
        if now >= deadline {
            return (late_s, n - k);
        }
        late_s.push((now - due_k).as_secs_f64());
        send(k, due_k);
    }
    (late_s, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_evenly_spaced_from_the_start() {
        let start = Instant::now();
        assert_eq!(due(start, 500.0, 0), start);
        assert_eq!(due(start, 500.0, 1) - start, Duration::from_millis(2));
        assert_eq!(due(start, 500.0, 250) - start, Duration::from_millis(500));
    }

    /// A stall in the service path delays the requests scheduled during
    /// it; measured from their due times, each of them carries the part of
    /// the stall it waited out, and the generator reports running late.
    #[test]
    fn an_injected_stall_is_charged_to_the_requests_it_delays() {
        const RATE: f64 = 1000.0;
        const STALL: Duration = Duration::from_millis(30);
        let start = Instant::now() + Duration::from_millis(5);
        let mut replies: Vec<(Instant, Instant)> = Vec::new();
        let (late_s, unsent) = pace(
            start,
            RATE,
            60,
            start + Duration::from_secs(5),
            |k, due_k| {
                if k == 10 {
                    std::thread::sleep(STALL); // the service blocks the sender
                }
                replies.push((due_k, Instant::now()));
            },
        );
        assert_eq!((late_s.len(), unsent), (60, 0));
        let latency = |k: usize| replies[k].1 - replies[k].0;
        // Request 10 waited out the whole stall; request 20, due 10 ms into
        // it, at least the remaining 20 ms. Sleeps only overshoot, so
        // these are lower bounds, never flaky upper ones.
        assert!(latency(10) >= STALL);
        assert!(
            latency(20) >= Duration::from_millis(19),
            "{:?}",
            latency(20)
        );
        assert!(late_s[20] >= 0.019);
        // Requests before the stall left on time (well within a period of
        // slack on a loaded test host).
        assert!(late_s[..10].iter().all(|&l| l < 0.03));
        // Due times never moved: the schedule is fixed, not closed-loop.
        assert_eq!(replies[59].0, due(start, RATE, 59));
    }

    #[test]
    fn sending_stops_at_the_deadline_and_reports_the_rest() {
        let start = Instant::now();
        let (late_s, unsent) = pace(
            start,
            100.0,
            50,
            start + Duration::from_millis(100),
            |_, _| {},
        );
        assert!(unsent >= 39 && late_s.len() + unsent == 50, "{unsent}");
    }
}
