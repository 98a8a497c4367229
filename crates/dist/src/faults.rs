//! Deterministic fault injection for resilience testing.
//!
//! Long VQE campaigns on real HPC systems see evaluation failures, NaN/Inf
//! amplitudes, dead ranks, dropped messages and stragglers as routine
//! events. This module makes those events *reproducible*: a seeded
//! [`FaultInjector`] decides, per opportunity, whether a fault fires, so
//! every recovery path in the workspace can be exercised by an ordinary
//! unit test. The injector is pure configuration + RNG — it never touches
//! simulator state itself; the execution layers ask it what to break: the
//! `FaultyBackend` decorator in `nwq-core` per evaluation, the sharded
//! executor through a [`FaultSchedule`] drawn with
//! [`FaultSchedule::from_injector`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-opportunity fault probabilities (each in `[0, 1]`) plus the RNG
/// seed. The default spec injects nothing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultSpec {
    /// Probability that an energy evaluation fails outright (models a
    /// crashed/preempted backend call).
    pub eval_failure: f64,
    /// Probability that an evaluation returns a NaN energy (models
    /// corrupted amplitudes reaching the reduction).
    pub nan_amplitude: f64,
    /// Probability (per gate step) that a rank process dies — consumed by
    /// [`crate::shard::run_sharded_resilient`] via
    /// [`FaultSchedule::from_injector`]. Whether a death is recoverable is
    /// the run's [`crate::RecoveryOptions::max_recoveries`], not the
    /// fault's.
    pub rank_death: f64,
    /// Probability (per gate step) that a rank silently drops its exchange
    /// sends, leaving partners to hit their receive deadline.
    pub message_drop: f64,
    /// Probability (per gate step) that a rank stalls as a straggler
    /// before executing the step.
    pub message_delay: f64,
    /// Straggler stall length in milliseconds (used when `message_delay`
    /// fires).
    pub delay_ms: u64,
    /// RNG seed; the whole fault sequence is a pure function of it.
    pub seed: u64,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            eval_failure: 0.0,
            nan_amplitude: 0.0,
            rank_death: 0.0,
            message_drop: 0.0,
            message_delay: 0.0,
            delay_ms: 0,
            seed: 0,
        }
    }
}

impl FaultSpec {
    /// A spec that injects evaluation failures at `rate` — the knob the
    /// CLI's `--inject-faults RATE` exposes.
    pub fn eval_failures(rate: f64, seed: u64) -> Self {
        FaultSpec {
            eval_failure: rate,
            seed,
            ..FaultSpec::default()
        }
    }

    /// Whether any fault class has a nonzero rate.
    pub fn is_active(&self) -> bool {
        self.eval_failure > 0.0
            || self.nan_amplitude > 0.0
            || self.rank_death > 0.0
            || self.message_drop > 0.0
            || self.message_delay > 0.0
    }
}

/// Counts of faults actually injected, by class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Evaluation failures fired.
    pub eval_failures: u64,
    /// NaN-amplitude faults fired.
    pub nan_amplitudes: u64,
    /// Rank deaths fired.
    pub rank_deaths: u64,
    /// Message drops fired.
    pub message_drops: u64,
    /// Straggler delays fired.
    pub message_delays: u64,
}

impl FaultStats {
    /// Total faults fired across all classes.
    pub fn total(&self) -> u64 {
        self.eval_failures
            + self.nan_amplitudes
            + self.rank_deaths
            + self.message_drops
            + self.message_delays
    }
}

/// Seeded fault source. Each `should_*` call consumes exactly one RNG draw
/// for its class, so the fault sequence is deterministic given the spec —
/// two runs with the same seed fail at the same opportunities.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    spec: FaultSpec,
    rng: StdRng,
    stats: FaultStats,
}

impl FaultInjector {
    /// An injector driven by `spec`.
    pub fn new(spec: FaultSpec) -> Self {
        FaultInjector {
            spec,
            rng: StdRng::seed_from_u64(spec.seed),
            stats: FaultStats::default(),
        }
    }

    /// The driving spec.
    pub fn spec(&self) -> FaultSpec {
        self.spec
    }

    /// Faults fired so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// One seeded draw for one fault opportunity. The draw is consumed
    /// even at rate 0, so enabling one class never shifts another class's
    /// sequence.
    fn trip(&mut self, rate: f64, class: &'static str) -> bool {
        let fired = self.rng.gen_bool(rate.clamp(0.0, 1.0));
        if fired {
            nwq_telemetry::counter_add("resilience.faults_injected", 1);
            nwq_telemetry::counter_add(class, 1);
        }
        fired
    }

    /// Should the next energy evaluation fail?
    pub fn should_fail_eval(&mut self) -> bool {
        let fired = self.trip(self.spec.eval_failure, "resilience.faults.eval_failure");
        self.stats.eval_failures += fired as u64;
        fired
    }

    /// Should the next evaluation return a NaN energy?
    pub fn should_inject_nan(&mut self) -> bool {
        let fired = self.trip(self.spec.nan_amplitude, "resilience.faults.nan_amplitude");
        self.stats.nan_amplitudes += fired as u64;
        fired
    }

    /// Should a rank die at the next gate step? Returns the
    /// dying rank id when it fires; a second draw decides whether it dies
    /// mid-exchange (after its sends, before its receives).
    pub fn should_kill_rank(&mut self, n_ranks: usize) -> Option<(usize, bool)> {
        let fired = self.trip(self.spec.rank_death, "resilience.faults.rank_death");
        self.stats.rank_deaths += fired as u64;
        if fired && n_ranks > 0 {
            let rank = self.rng.gen_range(0..n_ranks);
            let mid_exchange = self.rng.gen_bool(0.5);
            Some((rank, mid_exchange))
        } else {
            None
        }
    }

    /// Should a rank drop its exchange sends at the next gate step?
    /// Returns the dropping rank id when it fires.
    pub fn should_drop_message(&mut self, n_ranks: usize) -> Option<usize> {
        let fired = self.trip(self.spec.message_drop, "resilience.faults.message_drop");
        self.stats.message_drops += fired as u64;
        if fired && n_ranks > 0 {
            Some(self.rng.gen_range(0..n_ranks))
        } else {
            None
        }
    }

    /// Should a rank straggle at the next gate step? Returns
    /// `(rank, delay_ms)` when it fires.
    pub fn should_delay_message(&mut self, n_ranks: usize) -> Option<(usize, u64)> {
        let fired = self.trip(self.spec.message_delay, "resilience.faults.message_delay");
        self.stats.message_delays += fired as u64;
        if fired && n_ranks > 0 {
            Some((self.rng.gen_range(0..n_ranks), self.spec.delay_ms))
        } else {
            None
        }
    }
}

/// A rank death planned at a gate step. `mid_exchange` deaths complete the
/// send half of the step's pair-exchange and die before the receive half —
/// the worst case for partners, who see the step's payload arrive and then
/// the channel close.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RankDeath {
    /// Gate index (0-based, over the circuit's gate sequence).
    pub gate_step: usize,
    /// Dying rank id.
    pub rank: usize,
    /// Die after sends but before receives at that step.
    pub mid_exchange: bool,
}

/// A planned message drop: `rank` silently skips its sends at `gate_step`,
/// so partners hit their receive deadline instead of a closed channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MessageDrop {
    /// Gate index (0-based).
    pub gate_step: usize,
    /// Dropping rank id.
    pub rank: usize,
}

/// A planned straggler stall: `rank` sleeps `delay_ms` before executing
/// `gate_step`. Stalls under the exchange deadline must NOT trigger
/// recovery (no false positives).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RankDelay {
    /// Gate index (0-based).
    pub gate_step: usize,
    /// Straggling rank id.
    pub rank: usize,
    /// Stall length in milliseconds.
    pub delay_ms: u64,
}

/// A deterministic schedule of shard faults, in *gate* coordinates — the
/// sharded executor's only fault input. The tape compiler translates these to absolute tape
/// indices and arms each entry exactly once, so a fault fires in the
/// generation that first reaches its step and never re-fires during
/// replay (which would otherwise recovery-loop forever).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    /// Planned rank deaths.
    pub deaths: Vec<RankDeath>,
    /// Planned message drops.
    pub drops: Vec<MessageDrop>,
    /// Planned straggler stalls.
    pub delays: Vec<RankDelay>,
}

impl FaultSchedule {
    /// No faults at all.
    pub fn none() -> Self {
        FaultSchedule::default()
    }

    /// A single clean rank death at `gate_step`.
    pub fn kill(gate_step: usize, rank: usize) -> Self {
        FaultSchedule {
            deaths: vec![RankDeath {
                gate_step,
                rank,
                mid_exchange: false,
            }],
            ..FaultSchedule::default()
        }
    }

    /// Whether the schedule plans any fault.
    pub fn is_empty(&self) -> bool {
        self.deaths.is_empty() && self.drops.is_empty() && self.delays.is_empty()
    }

    /// Draws a schedule from a seeded injector: one `rank_death`,
    /// `message_drop`, and `message_delay` opportunity per gate step, in
    /// that order, so the schedule is a pure function of the spec.
    pub fn from_injector(inj: &mut FaultInjector, n_gates: usize, n_ranks: usize) -> Self {
        let mut schedule = FaultSchedule::default();
        for gate_step in 0..n_gates {
            if let Some((rank, mid_exchange)) = inj.should_kill_rank(n_ranks) {
                schedule.deaths.push(RankDeath {
                    gate_step,
                    rank,
                    mid_exchange,
                });
            }
            if let Some(rank) = inj.should_drop_message(n_ranks) {
                schedule.drops.push(MessageDrop { gate_step, rank });
            }
            if let Some((rank, delay_ms)) = inj.should_delay_message(n_ranks) {
                schedule.delays.push(RankDelay {
                    gate_step,
                    rank,
                    delay_ms,
                });
            }
        }
        schedule
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_injects_nothing() {
        let mut inj = FaultInjector::new(FaultSpec::default());
        assert!(!inj.spec().is_active());
        for _ in 0..1000 {
            assert!(!inj.should_fail_eval());
            assert!(!inj.should_inject_nan());
            assert!(inj.should_kill_rank(4).is_none());
            assert!(inj.should_drop_message(4).is_none());
            assert!(inj.should_delay_message(4).is_none());
        }
        assert_eq!(inj.stats().total(), 0);
    }

    #[test]
    fn fault_sequence_is_deterministic() {
        let spec = FaultSpec {
            eval_failure: 0.3,
            rank_death: 0.2,
            seed: 99,
            ..FaultSpec::default()
        };
        let draw = |spec| {
            let mut inj = FaultInjector::new(spec);
            let evals: Vec<bool> = (0..200).map(|_| inj.should_fail_eval()).collect();
            let ranks: Vec<Option<(usize, bool)>> =
                (0..200).map(|_| inj.should_kill_rank(8)).collect();
            (evals, ranks, inj.stats())
        };
        let (e1, r1, s1) = draw(spec);
        let (e2, r2, s2) = draw(spec);
        assert_eq!(e1, e2);
        assert_eq!(r1, r2);
        assert_eq!(s1, s2);
        assert!(s1.eval_failures > 0 && s1.rank_deaths > 0);
    }

    #[test]
    fn rates_are_roughly_honored() {
        let mut inj = FaultInjector::new(FaultSpec::eval_failures(0.1, 7));
        assert!(inj.spec().is_active());
        let n = 10_000;
        let fired = (0..n).filter(|_| inj.should_fail_eval()).count();
        let rate = fired as f64 / n as f64;
        assert!((rate - 0.1).abs() < 0.02, "observed rate {rate}");
        assert_eq!(inj.stats().eval_failures, fired as u64);
    }

    #[test]
    fn schedule_from_injector_is_deterministic_and_in_range() {
        let spec = FaultSpec {
            rank_death: 0.2,
            message_drop: 0.1,
            message_delay: 0.15,
            delay_ms: 25,
            seed: 42,
            ..FaultSpec::default()
        };
        assert!(spec.is_active());
        let draw = || FaultSchedule::from_injector(&mut FaultInjector::new(spec), 64, 4);
        let (s1, s2) = (draw(), draw());
        assert_eq!(s1, s2);
        assert!(!s1.is_empty());
        assert!(s1.deaths.iter().all(|d| d.rank < 4 && d.gate_step < 64));
        assert!(s1.drops.iter().all(|d| d.rank < 4 && d.gate_step < 64));
        assert!(s1
            .delays
            .iter()
            .all(|d| d.rank < 4 && d.gate_step < 64 && d.delay_ms == 25));
        let mut inj = FaultInjector::new(spec);
        let _ = FaultSchedule::from_injector(&mut inj, 64, 4);
        let stats = inj.stats();
        assert_eq!(stats.rank_deaths as usize, s1.deaths.len());
        assert_eq!(stats.message_drops as usize, s1.drops.len());
        assert_eq!(stats.message_delays as usize, s1.delays.len());
    }

    #[test]
    fn unused_class_rates_do_not_shift_a_draw_sequence() {
        // A class only consumes RNG when its method is called, so the
        // evaluation-fault sequence is the same whether or not the spec
        // also carries shard-fault rates.
        let plain = FaultSpec::eval_failures(0.3, 17);
        let mut a = FaultInjector::new(plain);
        let mut b = FaultInjector::new(FaultSpec {
            rank_death: 0.5,
            message_drop: 0.5,
            ..plain
        });
        let seq_a: Vec<bool> = (0..100).map(|_| a.should_fail_eval()).collect();
        let seq_b: Vec<bool> = (0..100).map(|_| b.should_fail_eval()).collect();
        assert_eq!(seq_a, seq_b);
    }

    #[test]
    fn kill_schedule_is_a_single_clean_death() {
        let s = FaultSchedule::kill(7, 2);
        assert_eq!(s.deaths.len(), 1);
        assert!(s.drops.is_empty() && s.delays.is_empty());
        let d = s.deaths[0];
        assert_eq!((d.gate_step, d.rank, d.mid_exchange), (7, 2, false));
        assert!(FaultSchedule::none().is_empty());
    }
}
