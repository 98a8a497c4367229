//! Real sharded execution: one OS worker thread per rank, and one kind of
//! inter-rank message — the half-shard swap.
//!
//! Each rank's shard is owned by its own thread. The tape compiler keeps a
//! logical → physical qubit layout; before a gate that needs a global
//! qubit local, it swaps that qubit with a local one by exchanging half of
//! each shard with the partner rank (Häner & Steiger, arXiv:1704.01127).
//! Every gate then runs with the single-node kernels at its physical
//! positions; the exchange is a channel send, the in-process analog of an
//! MPI sendrecv: same payload sizes, same message counts, same pairing.
//!
//! There is one way to run: [`run_sharded_resilient`] compiles the circuit
//! once (`compile_tape`: every gate matrix resolved, the layout tracked,
//! swaps and snapshot barriers inserted, the [`FaultSchedule`] translated
//! to tape coordinates) and then spawns worker generations over that tape
//! until one completes. [`run_sharded`] is the same loop with snapshots
//! off, an empty schedule and no recovery budget. Workers run lock-free —
//! the only cross-thread traffic is the amplitude payloads themselves.
//!
//! Bitwise parity with [`nwq_statevec::simulate`] is a hard invariant
//! (pinned by tests and proptests across 1/2/4/8 shards, fault-free and
//! under injected rank death): swaps and transpositions only move data,
//! and every gate runs the single-node kernel on the same operands.

use crate::comm::CommStats;
use crate::faults::FaultSchedule;
use crate::partition::DistStateVector;
use crate::snapshot::SnapshotStore;
use nwq_circuit::{Circuit, GateMatrix};
use nwq_common::{Error, Mat2, Mat4, Result, C64, C_ONE, C_ZERO};
use nwq_statevec::kernels::{self, DiagFactor, Mat4Shape, SubKind};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

/// Options for [`run_sharded`] and [`run_sharded_resilient`].
#[derive(Clone, Copy, Debug)]
pub struct ShardOptions {
    /// Per-attempt receive deadline (milliseconds) on every pair-exchange.
    /// A partner that neither delivers nor disconnects within the deadline
    /// is retried with exponential backoff; after the retry budget the
    /// exchange fails instead of blocking forever.
    pub exchange_timeout_ms: u64,
    /// Bounded retry budget per exchange receive. Attempt `k` waits
    /// `exchange_timeout_ms << k`, so the defaults tolerate ~1 min of
    /// stall before declaring the partner lost.
    pub exchange_retries: u32,
}

impl Default for ShardOptions {
    fn default() -> Self {
        ShardOptions {
            exchange_timeout_ms: 2000,
            exchange_retries: 4,
        }
    }
}

/// Receive-deadline policy every worker applies to every pair-exchange.
#[derive(Clone, Copy, Debug)]
struct ExchangeDeadline {
    timeout: Duration,
    retries: u32,
}

impl From<&ShardOptions> for ExchangeDeadline {
    fn from(opts: &ShardOptions) -> Self {
        ExchangeDeadline {
            timeout: Duration::from_millis(opts.exchange_timeout_ms.max(1)),
            retries: opts.exchange_retries,
        }
    }
}

/// One entry of the compiled, deterministic step list every worker
/// replays. Qubit positions are physical slots: slots below `n_local` index
/// the shard, the rest are rank-id bits.
#[derive(Clone, Debug)]
enum Step {
    /// Non-diagonal single-qubit gate on a local slot.
    Local1(usize, Mat2),
    /// Non-diagonal two-qubit gate on two local slots, in the gate's
    /// argument order (the kernel normalizes exactly like the single-node
    /// path). A dense gate's slots are in the order of its logical qubits.
    Local2(usize, usize, Mat4),
    /// Diagonal gate: a phase sweep. Each rank reads the factor's global
    /// slots off its own id, so no data moves.
    Phase(DiagFactor),
    /// Block gate whose selector sits on rank bit `gbit`: each rank applies
    /// its own 2×2 sub-block to local slot `lo` (identity skipped).
    LocalApply {
        gbit: usize,
        lo: usize,
        sub: [(SubKind, Mat2); 2],
    },
    /// Swaps the qubit on rank bit `gbit` with the one in local slot `lo`:
    /// each rank trades the half shard whose `lo` bit differs from its
    /// `gbit` bit for its partner's matching half.
    Swap { gbit: usize, lo: usize },
    /// Transposes local slots `hi > lo` in place.
    Transpose(usize, usize),
    /// Snapshot barrier: every rank deposits a bitwise copy of its shard
    /// as `version` of the consistent cut.
    Snapshot { version: usize },
}

/// The naive full-exchange cost of the gate a step completes, per rank:
/// the sends that pattern would make (1 for one global qubit, 3 for two,
/// 0 for swaps, transpositions, barriers and local gates), and how many of
/// those the step served without any swap. Booked by the workers and the
/// planner alike, it gives `bytes_saved` and `exchanges_elided`.
#[derive(Clone, Copy, Debug, Default)]
struct Naive {
    sends: u8,
    elided: u8,
}

/// The layout check every dist entry point shares: a power-of-two rank
/// count that leaves each rank at least 2 local qubits. Returns `n_local`.
pub(crate) fn validate_ranks(n_qubits: usize, n_ranks: usize) -> Result<usize> {
    if !n_ranks.is_power_of_two() {
        return Err(Error::Invalid(format!(
            "{n_ranks} ranks: must be a power of two"
        )));
    }
    let n_global = n_ranks.trailing_zeros() as usize;
    if n_global + 2 > n_qubits {
        return Err(Error::Invalid(format!(
            "{n_ranks} ranks leave fewer than 2 local qubits of a {n_qubits}-qubit register"
        )));
    }
    Ok(n_qubits - n_global)
}

/// The logical qubits of a gate (a one-qubit gate's twice).
fn gate_qubits(gm: &GateMatrix) -> [usize; 2] {
    match *gm {
        GateMatrix::One(q, _) => [q, q],
        GateMatrix::Two(a, b, _) => [a, b],
    }
}

/// The logical qubits a gate needs in local slots: every qubit a
/// non-diagonal gate mixes, which is all of them but a block gate's
/// selector.
fn needs_local(gm: &GateMatrix) -> [Option<usize>; 2] {
    match gm {
        GateMatrix::One(q, m) => [(!kernels::mat2_is_diagonal(m)).then_some(*q), None],
        GateMatrix::Two(a, b, m) => match kernels::mat4_shape(m) {
            Mat4Shape::Diagonal => [None, None],
            Mat4Shape::BlockHi { .. } => [Some(*b), None],
            Mat4Shape::BlockLo { .. } => [Some(*a), None],
            Mat4Shape::Dense => [Some(*a), Some(*b)],
        },
    }
}

/// Where each logical qubit lives while the tape is compiled.
struct Layout {
    n_local: usize,
    /// `slot[q]`: the physical slot of logical qubit `q`.
    slot: Vec<usize>,
    /// `qubit[s]`: the logical qubit in slot `s`.
    qubit: Vec<usize>,
}

impl Layout {
    fn canonical(n_qubits: usize, n_local: usize) -> Self {
        Layout {
            n_local,
            slot: (0..n_qubits).collect(),
            qubit: (0..n_qubits).collect(),
        }
    }

    /// Exchanges the qubits of slots `s` and `t` (at least one local) and
    /// returns the step that moves the data: a half-shard swap when one
    /// slot is global, a local transposition otherwise.
    fn exchange(&mut self, s: usize, t: usize) -> Step {
        let (hi, lo) = (s.max(t), s.min(t));
        debug_assert!(lo < self.n_local && hi > lo);
        self.qubit.swap(hi, lo);
        self.slot[self.qubit[hi]] = hi;
        self.slot[self.qubit[lo]] = lo;
        if hi >= self.n_local {
            Step::Swap {
                gbit: hi - self.n_local,
                lo,
            }
        } else {
            Step::Transpose(hi, lo)
        }
    }

    /// The steps that return every qubit to its own slot: each misplaced
    /// global slot takes its qubit back with one swap (one more first when
    /// that qubit sits in another global slot), then local transpositions
    /// sort the rest.
    fn restore(&mut self) -> Vec<Step> {
        let mut steps = Vec::new();
        let n_local = self.n_local;
        while let Some(g) = (n_local..self.qubit.len())
            .filter(|&g| self.qubit[g] != g)
            .min_by_key(|&g| self.slot[g] >= n_local)
        {
            let from = self.slot[g];
            steps.push(if from < n_local {
                self.exchange(g, from)
            } else {
                self.exchange(from, 0)
            });
        }
        for l in 0..n_local {
            if self.qubit[l] != l {
                let from = self.slot[l];
                steps.push(self.exchange(l, from));
            }
        }
        steps
    }

    /// The step that runs a gate once every qubit it needs is local.
    fn gate_step(&self, gm: &GateMatrix) -> Step {
        match gm {
            GateMatrix::One(q, m) if kernels::mat2_is_diagonal(m) => Step::Phase(DiagFactor::One {
                q: self.slot[*q],
                d: [m.0[0][0], m.0[1][1]],
            }),
            GateMatrix::One(q, m) => Step::Local1(self.slot[*q], *m),
            GateMatrix::Two(a, b, m) => {
                let (sa, sb) = (self.slot[*a], self.slot[*b]);
                // Global slots sit above local ones, so `hi` is the global
                // slot whenever there is one.
                let (hi, lo, mh) = if sa > sb {
                    (sa, sb, *m)
                } else {
                    (sb, sa, m.swap_qubits())
                };
                match kernels::mat4_shape(&mh) {
                    Mat4Shape::Diagonal => Step::Phase(DiagFactor::Two {
                        hi,
                        lo,
                        d: [mh.0[0][0], mh.0[1][1], mh.0[2][2], mh.0[3][3]],
                    }),
                    _ if hi < self.n_local => Step::Local2(sa, sb, *m),
                    Mat4Shape::BlockHi { a, ka, b, kb } => Step::LocalApply {
                        gbit: hi - self.n_local,
                        lo,
                        sub: [(ka, a), (kb, b)],
                    },
                    _ => unreachable!("every qubit but a block gate's selector is local"),
                }
            }
        }
    }
}

/// One planned, fire-once fault in *tape* coordinates. The armed flag is
/// shared across recovery generations, so a fault fires in the generation
/// that first reaches its step and never re-fires during replay.
struct PlannedFault {
    step: usize,
    rank: usize,
    armed: AtomicBool,
}

impl PlannedFault {
    fn new(step: usize, rank: usize) -> Self {
        PlannedFault {
            step,
            rank,
            armed: AtomicBool::new(true),
        }
    }

    /// Disarms and fires iff this entry targets (`step`, `rank`) and is
    /// still armed.
    fn fire(&self, step: usize, rank: usize) -> bool {
        self.step == step && self.rank == rank && self.armed.swap(false, Ordering::SeqCst)
    }
}

/// The compiled fault schedule, translated from gate to tape coordinates
/// and shared by every generation's workers.
#[derive(Default)]
struct FaultPlan {
    /// `(fault, mid_exchange)` — mid-exchange deaths complete the step's
    /// sends and die before its receives.
    deaths: Vec<(PlannedFault, bool)>,
    drops: Vec<PlannedFault>,
    /// `(fault, delay_ms)`.
    delays: Vec<(PlannedFault, u64)>,
}

impl FaultPlan {
    fn death_at(&self, step: usize, rank: usize) -> Option<bool> {
        self.deaths
            .iter()
            .find(|(f, _)| f.fire(step, rank))
            .map(|&(_, mid)| mid)
    }

    fn drop_at(&self, step: usize, rank: usize) -> bool {
        self.drops.iter().any(|f| f.fire(step, rank))
    }

    fn delay_at(&self, step: usize, rank: usize) -> Option<u64> {
        self.delays
            .iter()
            .find(|(f, _)| f.fire(step, rank))
            .map(|&(_, ms)| ms)
    }
}

/// Compiled execution: the shared step list with each step's naive cost,
/// the armed faults, and the gate accounting (`plan_communication` must
/// agree with what the workers measure; both read this tape).
struct Tape {
    n_local: usize,
    steps: Vec<Step>,
    naive: Vec<Naive>,
    faults: FaultPlan,
    snapshots_planned: usize,
    /// Gates on canonically local qubits only.
    local_gates: u64,
    /// Gates on at least one canonically global qubit.
    global_gates: u64,
}

impl Tape {
    fn push(&mut self, step: Step, naive: Naive) {
        self.steps.push(step);
        self.naive.push(naive);
    }
}

/// Resolves the circuit into the deterministic tape every worker replays:
/// per gate, the swaps that make its qubits local, then the gate itself
/// (never fused — replay must be bitwise); a snapshot barrier every
/// `snapshot_every` gates (0 = none); `schedule` translated from gate to
/// tape coordinates and armed fire-once; and after the last gate the
/// steps that restore the canonical layout.
///
/// A swap evicts the local qubit whose next use that needs it local comes
/// furthest away (Belady's rule), never one of the gate's own; ties go to
/// the qubit whose own slot is the vacated global one, then to the highest
/// slot. A dense gate whose slots run opposite to its logical qubits gets
/// one local transposition first, so the kernel sees the single node's
/// matrix orientation and sums in the single node's order.
fn compile_tape(
    circuit: &Circuit,
    params: &[f64],
    n_ranks: usize,
    snapshot_every: usize,
    schedule: &FaultSchedule,
) -> Result<Tape> {
    let n_local = validate_ranks(circuit.n_qubits(), n_ranks)?;
    let gates = circuit
        .gates()
        .iter()
        .map(|g| g.matrix(params))
        .collect::<Result<Vec<_>>>()?;
    let needs: Vec<_> = gates.iter().map(needs_local).collect();
    // Per qubit, the indices of the gates that need it local, ascending.
    let mut uses = vec![Vec::new(); circuit.n_qubits()];
    for (i, need) in needs.iter().enumerate() {
        for &q in need.iter().flatten() {
            uses[q].push(i);
        }
    }
    let next_use = |q: usize, after: usize| {
        let u = &uses[q];
        u.get(u.partition_point(|&i| i <= after))
            .copied()
            .unwrap_or(usize::MAX)
    };
    let mut layout = Layout::canonical(circuit.n_qubits(), n_local);
    let mut tape = Tape {
        n_local,
        steps: Vec::with_capacity(circuit.len() + 1),
        naive: Vec::with_capacity(circuit.len() + 1),
        faults: FaultPlan::default(),
        snapshots_planned: 0,
        local_gates: 0,
        global_gates: 0,
    };
    for (gate_idx, (gm, need)) in gates.iter().zip(&needs).enumerate() {
        if snapshot_every > 0 && gate_idx > 0 && gate_idx % snapshot_every == 0 {
            let version = tape.snapshots_planned;
            tape.push(Step::Snapshot { version }, Naive::default());
            tape.snapshots_planned += 1;
        }
        let at = tape.steps.len();
        for d in schedule.deaths.iter().filter(|d| d.gate_step == gate_idx) {
            let fault = PlannedFault::new(at, d.rank);
            tape.faults.deaths.push((fault, d.mid_exchange));
        }
        for d in schedule.drops.iter().filter(|d| d.gate_step == gate_idx) {
            tape.faults.drops.push(PlannedFault::new(at, d.rank));
        }
        for d in schedule.delays.iter().filter(|d| d.gate_step == gate_idx) {
            let fault = PlannedFault::new(at, d.rank);
            tape.faults.delays.push((fault, d.delay_ms));
        }
        let own = gate_qubits(gm);
        let mut swapped = false;
        for &q in need.iter().flatten() {
            let g = layout.slot[q];
            if g < n_local {
                continue;
            }
            let victim = (0..n_local)
                .filter(|&l| !own.contains(&layout.qubit[l]))
                .max_by_key(|&l| {
                    let v = layout.qubit[l];
                    (next_use(v, gate_idx), v == g, l)
                })
                .expect("at least 2 local slots, at most 1 held by the gate");
            tape.push(layout.exchange(g, victim), Naive::default());
            swapped = true;
        }
        if let GateMatrix::Two(a, b, m) = gm {
            let (sa, sb) = (layout.slot[*a], layout.slot[*b]);
            if kernels::mat4_shape(m) == Mat4Shape::Dense && (a > b) != (sa > sb) {
                tape.push(layout.exchange(sa, sb), Naive::default());
            }
        }
        let sends = match (own[0] >= n_local, own[1] >= n_local) {
            (false, false) => 0,
            (true, true) if own[0] != own[1] => 3,
            _ => 1,
        };
        if sends == 0 {
            tape.local_gates += 1;
        } else {
            tape.global_gates += 1;
        }
        let elided = if swapped { 0 } else { sends };
        tape.push(layout.gate_step(gm), Naive { sends, elided });
    }
    for step in layout.restore() {
        tape.push(step, Naive::default());
    }
    Ok(tape)
}

/// θ-aware communication plan: compiles the very tape the executor would
/// run (`compile_tape`) and sums what its workers will send. Backs
/// [`crate::comm::plan_communication_with`].
pub(crate) fn plan_lean(circuit: &Circuit, params: &[f64], n_ranks: usize) -> Result<CommStats> {
    // Symbolic circuits plan against a representative generic binding:
    // every standard gate's *shape* is angle-independent away from
    // measure-zero special angles (RZ/CZ/CP/RZZ diagonal for all θ, CX
    // block for all, RX/RY/U3 dense for generic θ), so the plan matches
    // any non-degenerate binding. Bound circuits use their real matrices.
    let generic: Vec<f64>;
    let params = if params.is_empty() && circuit.n_params() > 0 {
        generic = vec![0.618_033_988_749_894_9; circuit.n_params()];
        &generic
    } else {
        params
    };
    let tape = compile_tape(circuit, params, n_ranks, 0, &FaultSchedule::none())?;
    let n = n_ranks as u64;
    let part_bytes = 16u64 << tape.n_local;
    let swaps = tape
        .steps
        .iter()
        .filter(|s| matches!(s, Step::Swap { .. }))
        .count() as u64;
    let naive_sends: u64 = tape.naive.iter().map(|c| u64::from(c.sends)).sum();
    let elided: u64 = tape.naive.iter().map(|c| u64::from(c.elided)).sum();
    let bytes = swaps * n * part_bytes / 2;
    Ok(CommStats {
        messages: swaps * n,
        bytes,
        local_gates: tape.local_gates,
        global_gates: tape.global_gates,
        exchanges_elided: elided * n,
        bytes_saved: (naive_sends * n * part_bytes).saturating_sub(bytes),
    })
}

/// Exchange payload: the sending rank's packed half shard, tagged with the
/// step index so a desynchronized mesh is detected instead of silently
/// mixing states.
type Msg = (usize, Vec<C64>);

/// What one worker thread reports back.
struct WorkerReport {
    shard: Vec<C64>,
    messages: u64,
    bytes: u64,
    /// Naive sends of the global gates this rank served without a swap.
    elided: u64,
    /// Bytes the naive full-exchange pattern would have sent for the
    /// steps this rank ran.
    naive_bytes: u64,
    seconds: f64,
}

fn lost(rank: usize, partner: usize) -> Error {
    Error::Backend(format!(
        "rank {rank}: exchange with rank {partner} failed (shard lost)"
    ))
}

fn killed(rank: usize, step: usize, mid_exchange: bool) -> Error {
    let phase = if mid_exchange { " mid-exchange" } else { "" };
    Error::Backend(format!(
        "rank {rank} killed by fault injection{phase} at step {step}"
    ))
}

struct Mesh {
    /// `senders[to]` — `None` at the worker's own rank.
    senders: Vec<Option<Sender<Msg>>>,
    /// `receivers[from]` — `None` at the worker's own rank.
    receivers: Vec<Option<Receiver<Msg>>>,
}

impl Mesh {
    fn send(&self, rank: usize, to: usize, step: usize, payload: Vec<C64>) -> Result<()> {
        self.senders[to]
            .as_ref()
            .ok_or_else(|| lost(rank, to))?
            .send((step, payload))
            .map_err(|_| lost(rank, to))
    }

    /// Receives the step-`step` payload from `from` under the exchange
    /// deadline: each missed wait doubles the next one (bounded backoff),
    /// and an exhausted budget reports the partner as missing its deadline
    /// instead of blocking the worker forever. `expect_len` is the half
    /// shard a swap carries, so a desynchronized or mis-packed mesh is
    /// caught at the boundary.
    fn recv(
        &self,
        rank: usize,
        from: usize,
        step: usize,
        expect_len: usize,
        deadline: ExchangeDeadline,
    ) -> Result<Vec<C64>> {
        let rx = self.receivers[from]
            .as_ref()
            .ok_or_else(|| lost(rank, from))?;
        let mut wait = deadline.timeout;
        let mut waits = 0u32;
        let (tag, payload) = loop {
            match rx.recv_timeout(wait) {
                Ok(msg) => break msg,
                Err(RecvTimeoutError::Disconnected) => return Err(lost(rank, from)),
                Err(RecvTimeoutError::Timeout) => {
                    nwq_telemetry::counter_add("resilience.shard_exchange_timeouts", 1);
                    waits += 1;
                    if waits > deadline.retries {
                        return Err(Error::Backend(format!(
                            "rank {rank}: exchange with rank {from} missed its deadline \
                             at step {step} ({waits} waits, last {wait:?})"
                        )));
                    }
                    wait = wait.saturating_mul(2);
                }
            }
        };
        if tag != step || payload.len() != expect_len {
            return Err(Error::Backend(format!(
                "rank {rank}: desynchronized exchange with rank {from} \
                 (expected step {step} / {expect_len} amps, got step {tag} / {} amps)",
                payload.len()
            )));
        }
        Ok(payload)
    }
}

/// Per-worker exchange endpoint: the mesh, a reusable payload buffer (each
/// swap sends one buffer and keeps the one it receives, so a steady-state
/// run allocates nothing per swap after warm-up), the faults armed for the
/// step in flight, and the measured and naive traffic counters.
struct ExchangeIo<'a> {
    mesh: &'a Mesh,
    rank: usize,
    deadline: ExchangeDeadline,
    spare: Vec<C64>,
    /// A message-drop fault is armed for this step: sends are skipped
    /// silently, so partners hit their receive deadline.
    skip_sends: bool,
    /// A mid-exchange death is armed for this step: the rank dies after
    /// the swap's send and before its receive.
    die_mid_exchange: bool,
    messages: u64,
    bytes: u64,
    elided: u64,
    naive_bytes: u64,
}

impl ExchangeIo<'_> {
    /// Fires the faults `plan` holds for (`step`, this rank), in schedule
    /// order: a straggler stall, then a death — clean deaths (and
    /// "mid-exchange" ones on a step that is not a swap) return the kill
    /// error right here — then a message drop. Planned faults fire exactly
    /// once across all generations; `step` is absolute, so replay walks
    /// the same schedule.
    fn arm_faults(&mut self, plan: &FaultPlan, step: usize, swap: bool) -> Result<()> {
        if let Some(ms) = plan.delay_at(step, self.rank) {
            std::thread::sleep(Duration::from_millis(ms));
        }
        self.die_mid_exchange = match plan.death_at(step, self.rank) {
            Some(mid) if mid && swap => true,
            Some(_) => return Err(killed(self.rank, step, false)),
            None => false,
        };
        self.skip_sends = plan.drop_at(step, self.rank);
        Ok(())
    }

    /// [`Step::Swap`]: sends the half of `shard` whose `lo` bit differs
    /// from this rank's `gbit` bit to the partner across `gbit`, then
    /// receives the partner's matching half into the same place. Data
    /// moves; no amplitude is computed. An armed mid-exchange death fires
    /// between send and receive, so the partner sees the payload arrive
    /// and then the channel close.
    fn swap(&mut self, step: usize, shard: &mut [C64], gbit: usize, lo: usize) -> Result<()> {
        let partner = self.rank ^ (1 << gbit);
        let v = 1 - ((self.rank >> gbit) & 1);
        let mut buf = std::mem::take(&mut self.spare);
        if buf.capacity() < shard.len() {
            // A whole shard's capacity, half of it used: an allocation the
            // size of the shards is mapped and unmapped like them, so a
            // run's swap buffers go back to the system when it ends
            // instead of staying in a thread's heap (32 MiB more peak RSS
            // on a 22-qubit, 2-rank run, measured with glibc).
            buf = Vec::with_capacity(shard.len());
        }
        buf.resize(shard.len() / 2, C_ZERO);
        copy_half(shard, &mut buf, lo, v, true);
        if !self.skip_sends {
            self.mesh.send(self.rank, partner, step, buf)?;
            self.messages += 1;
            self.bytes += (shard.len() * 8) as u64;
        }
        if self.die_mid_exchange {
            return Err(killed(self.rank, step, true));
        }
        let mut theirs =
            self.mesh
                .recv(self.rank, partner, step, shard.len() / 2, self.deadline)?;
        copy_half(shard, &mut theirs, lo, v, false);
        self.spare = theirs;
        Ok(())
    }
}

/// Copies between the `lo`-bit == `v` half of `shard` and `packed`, that
/// half in ascending index order: into `packed` when `pack`, back into the
/// shard otherwise.
fn copy_half(shard: &mut [C64], packed: &mut [C64], lo: usize, v: usize, pack: bool) {
    let s_lo = 1usize << lo;
    let runs = shard
        .chunks_exact_mut(s_lo << 1)
        .map(|c| &mut c[v * s_lo..(v + 1) * s_lo]);
    if s_lo == 1 {
        // Runs of one amplitude: an element loop, not a copy call per run
        // (2-3x faster on the 2-vCPU host).
        for (run, p) in runs.zip(packed.iter_mut()) {
            if pack {
                *p = run[0];
            } else {
                run[0] = *p;
            }
        }
    } else {
        for (run, p) in runs.zip(packed.chunks_exact_mut(s_lo)) {
            if pack {
                p.copy_from_slice(run);
            } else {
                run.copy_from_slice(p);
            }
        }
    }
}

/// [`Step::Transpose`]: exchanges bits `hi > lo` of every local index in
/// place — amplitudes with `hi` set and `lo` clear trade places with their
/// mirror. Data moves; no amplitude is computed.
fn transpose(shard: &mut [C64], hi: usize, lo: usize) {
    let (s_hi, s_lo) = (1usize << hi, 1usize << lo);
    for block in shard.chunks_mut(s_hi << 1) {
        let (h0, h1) = block.split_at_mut(s_hi);
        for (a, b) in h0.chunks_mut(s_lo << 1).zip(h1.chunks_mut(s_lo << 1)) {
            a[s_lo..].swap_with_slice(&mut b[..s_lo]);
        }
    }
}

/// The factor one rank applies for a [`Step::Phase`]: the factor's global
/// slots read off the rank id, so what is left acts on local slots only
/// (a scalar rides as a factor with equal entries).
fn local_factor(f: &DiagFactor, rank: usize, n_local: usize) -> DiagFactor {
    let bit = |s: usize| (rank >> (s - n_local)) & 1;
    let scalar = |d: C64| DiagFactor::One { q: 0, d: [d, d] };
    match *f {
        DiagFactor::One { q, d } if q >= n_local => scalar(d[bit(q)]),
        DiagFactor::Two { hi, lo, d } if lo >= n_local => scalar(d[(bit(hi) << 1) | bit(lo)]),
        DiagFactor::Two { hi, lo, d } if hi >= n_local => {
            let h = bit(hi) << 1;
            DiagFactor::One {
                q: lo,
                d: [d[h], d[h | 1]],
            }
        }
        local => local,
    }
}

/// The body of one rank's worker thread: replay the tape from
/// `start_step` (0 for a fresh run, the restored cut's resume step after
/// a recovery) against the owned shard — arm the step's faults, run it,
/// book its naive cost. Every channel failure and every exhausted exchange
/// deadline maps to [`Error::Backend`] — a dead or wedged partner aborts
/// this rank cleanly instead of deadlocking or panicking.
fn worker(
    rank: usize,
    tape: &Tape,
    start_step: usize,
    init: Option<Vec<C64>>,
    mesh: Mesh,
    deadline: ExchangeDeadline,
    snapshots: &SnapshotStore,
) -> Result<WorkerReport> {
    let started = Instant::now();
    let n_local = tape.n_local;
    let part_len = 1usize << n_local;
    let mut shard = init.unwrap_or_else(|| {
        let mut zero = vec![C_ZERO; part_len];
        if rank == 0 {
            zero[0] = C_ONE;
        }
        zero
    });
    debug_assert_eq!(shard.len(), part_len);
    // Each rank-local sweep gets the pool's threads shared among the rank
    // threads, so R busy ranks do not each dispatch the whole pool.
    let parts = kernels::parts_per_caller(part_len, mesh.senders.len());
    let mut io = ExchangeIo {
        mesh: &mesh,
        rank,
        deadline,
        spare: Vec::new(),
        skip_sends: false,
        die_mid_exchange: false,
        messages: 0,
        bytes: 0,
        elided: 0,
        naive_bytes: 0,
    };
    for s in start_step..tape.steps.len() {
        let step = &tape.steps[s];
        io.arm_faults(&tape.faults, s, matches!(step, Step::Swap { .. }))?;
        match step {
            Step::Local1(q, m) => kernels::apply_mat2_parts(&mut shard, *q, m, parts),
            Step::Local2(a, b, m) => kernels::apply_mat4_parts(&mut shard, *a, *b, m, parts),
            Step::Phase(f) => {
                let f = local_factor(f, rank, n_local);
                kernels::apply_diag_sweep_parts(&mut shard, &[f], parts);
            }
            Step::LocalApply { gbit, lo, sub } => {
                let (k, m) = sub[(rank >> gbit) & 1];
                if k != SubKind::Identity {
                    kernels::apply_mat2_parts(&mut shard, *lo, &m, parts);
                }
            }
            Step::Swap { gbit, lo } => io.swap(s, &mut shard, *gbit, *lo)?,
            Step::Transpose(hi, lo) => transpose(&mut shard, *hi, *lo),
            Step::Snapshot { version } => snapshots.deposit(*version, s, rank, &shard)?,
        }
        let naive = tape.naive[s];
        io.elided += u64::from(naive.elided);
        io.naive_bytes += u64::from(naive.sends) * (part_len * 16) as u64;
    }
    Ok(WorkerReport {
        shard,
        messages: io.messages,
        bytes: io.bytes,
        elided: io.elided,
        naive_bytes: io.naive_bytes,
        seconds: started.elapsed().as_secs_f64(),
    })
}

/// Spawns one generation of worker threads over a fresh channel mesh and
/// joins them. A fresh mesh per generation means no stale message from a
/// torn-down generation can leak into the replay.
fn run_generation(
    n_ranks: usize,
    tape: &Tape,
    start_step: usize,
    init: Option<Vec<Vec<C64>>>,
    deadline: ExchangeDeadline,
    snapshots: &SnapshotStore,
) -> Result<Vec<WorkerReport>> {
    // Build the (from, to) channel mesh and hand each worker its row.
    let mut senders: Vec<Vec<Option<Sender<Msg>>>> = (0..n_ranks)
        .map(|_| (0..n_ranks).map(|_| None).collect())
        .collect();
    let mut receivers: Vec<Vec<Option<Receiver<Msg>>>> = (0..n_ranks)
        .map(|_| (0..n_ranks).map(|_| None).collect())
        .collect();
    for from in 0..n_ranks {
        for to in 0..n_ranks {
            if from != to {
                let (tx, rx) = channel();
                senders[from][to] = Some(tx);
                receivers[to][from] = Some(rx);
            }
        }
    }
    let mut init_shards: Vec<Option<Vec<C64>>> = match init {
        Some(shards) => shards.into_iter().map(Some).collect(),
        None => (0..n_ranks).map(|_| None).collect(),
    };
    let joined = std::thread::scope(|scope| -> Result<Vec<_>> {
        let mut handles = Vec::with_capacity(n_ranks);
        for (rank, (sends, recvs)) in senders.drain(..).zip(receivers.drain(..)).enumerate() {
            let mesh = Mesh {
                senders: sends,
                receivers: recvs,
            };
            let init_shard = init_shards[rank].take();
            let handle = std::thread::Builder::new()
                .name(format!("nwq-dist-rank{rank}"))
                .spawn_scoped(scope, move || {
                    worker(
                        rank, tape, start_step, init_shard, mesh, deadline, snapshots,
                    )
                })
                .map_err(|e| Error::Backend(format!("failed to spawn rank {rank} worker: {e}")))?;
            handles.push(handle);
        }
        Ok(handles.into_iter().map(|h| h.join()).collect())
    })?;
    let mut reports = Vec::with_capacity(n_ranks);
    let mut first_error: Option<Error> = None;
    let mut root_error: Option<Error> = None;
    for (rank, outcome) in joined.into_iter().enumerate() {
        match outcome {
            Ok(Ok(report)) => reports.push(report),
            Ok(Err(e)) => {
                // A scheduled death is the root cause; partner-side
                // exchange failures are its fallout.
                if e.to_string().contains("killed by fault") && root_error.is_none() {
                    root_error = Some(e);
                } else if first_error.is_none() {
                    first_error = Some(e);
                }
            }
            Err(_) => {
                if first_error.is_none() {
                    first_error = Some(Error::Backend(format!(
                        "rank {rank} worker panicked during distributed execution"
                    )));
                }
            }
        }
    }
    if let Some(e) = root_error.or(first_error) {
        return Err(e);
    }
    Ok(reports)
}

/// Folds one generation's worker reports into the assembled distributed
/// state, with the measured `dist.*` telemetry counters.
fn assemble(n_qubits: usize, tape: &Tape, reports: Vec<WorkerReport>) -> DistStateVector {
    let n_ranks = reports.len();
    let mut stats = CommStats {
        global_gates: tape.global_gates,
        local_gates: tape.local_gates,
        ..CommStats::default()
    };
    let mut partitions = Vec::with_capacity(n_ranks);
    let mut naive_bytes = 0u64;
    for report in reports {
        stats.messages += report.messages;
        stats.bytes += report.bytes;
        stats.exchanges_elided += report.elided;
        naive_bytes += report.naive_bytes;
        nwq_telemetry::histogram_record("dist.rank_seconds", report.seconds);
        nwq_telemetry::histogram_record("dist.rank_messages", report.messages as f64);
        partitions.push(report.shard);
    }
    // A replayed suffix may hold the final swaps without the gates that
    // paid for them, so the difference saturates.
    stats.bytes_saved = naive_bytes.saturating_sub(stats.bytes);
    nwq_telemetry::counter_add("dist.messages", stats.messages);
    nwq_telemetry::counter_add("dist.bytes", stats.bytes);
    nwq_telemetry::counter_add("dist.local_gates", stats.local_gates);
    nwq_telemetry::counter_add("dist.global_gates", stats.global_gates);
    nwq_telemetry::counter_add("dist.exchanges_elided", stats.exchanges_elided);
    nwq_telemetry::counter_add("dist.bytes_saved", stats.bytes_saved);
    DistStateVector::from_parts(n_qubits, tape.n_local, partitions, stats)
}

/// Knobs for [`run_sharded_resilient`].
#[derive(Clone, Debug)]
pub struct RecoveryOptions {
    /// Insert a snapshot barrier every this many gates (0 disables
    /// snapshots entirely — recovery then restarts from the zero state).
    pub snapshot_every: usize,
    /// Give up after this many recoveries and surface the last failure.
    pub max_recoveries: u32,
    /// Complete snapshot versions kept in memory (older ones pruned).
    pub keep_versions: usize,
    /// Optional directory for the on-disk snapshot mirror.
    pub snapshot_dir: Option<PathBuf>,
}

impl Default for RecoveryOptions {
    fn default() -> Self {
        RecoveryOptions {
            snapshot_every: 16,
            max_recoveries: 8,
            keep_versions: 2,
            snapshot_dir: None,
        }
    }
}

/// What a resilient run went through.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Snapshot barriers compiled into the tape.
    pub snapshots_planned: usize,
    /// Recoveries performed (0 on a fault-free run).
    pub recoveries: u32,
    /// Worker generations spawned (`recoveries + 1`).
    pub generations: u32,
    /// Absolute tape index each recovery resumed from (0 = zero-state
    /// restart because no cut was complete yet).
    pub resume_steps: Vec<usize>,
    /// Coordinator-side latency of each recovery (restore the cut +
    /// bookkeeping), milliseconds.
    pub recovery_ms: Vec<f64>,
    /// Shard buffers the snapshot store allocated: at most
    /// `n_ranks × (keep_versions + 1)`, whatever the cadence.
    pub snapshot_allocs: u64,
    /// Shard bytes copied into the snapshot store: one shard per rank per
    /// barrier reached (replayed barriers included).
    pub snapshot_bytes_copied: u64,
}

/// Runs `circuit` on `n_ranks` real shards, one OS thread per rank, and
/// reassembles the distributed state — bitwise identical to
/// [`nwq_statevec::simulate`]. This is [`run_sharded_resilient`] with
/// nothing to survive: no snapshot barriers, no scheduled faults, and no
/// recovery budget, so a real worker failure ends the run with
/// [`Error::Backend`].
pub fn run_sharded(
    circuit: &Circuit,
    params: &[f64],
    n_ranks: usize,
    opts: &ShardOptions,
) -> Result<DistStateVector> {
    let plain = RecoveryOptions {
        snapshot_every: 0,
        max_recoveries: 0,
        ..RecoveryOptions::default()
    };
    let (state, _) = run_sharded_resilient(
        circuit,
        params,
        n_ranks,
        opts,
        &plain,
        &FaultSchedule::none(),
    )?;
    Ok(state)
}

/// Runs `circuit` on `n_ranks` shards *survivably*: snapshot barriers
/// checkpoint a consistent cut every [`RecoveryOptions::snapshot_every`]
/// gates, and any worker failure — a planned death from `schedule`, a
/// closed channel, or an exhausted exchange deadline — tears the
/// generation down and respawns all ranks from the last complete cut,
/// replaying the tape from that step. Because the tape is deterministic
/// and the cut is bitwise, the recovered run is **bitwise identical** to
/// a fault-free run; ranks that were ahead of the cut simply roll back.
/// With [`RecoveryOptions::max_recoveries`] = 0 the first failure is
/// terminal, which is how a lost rank is modelled.
///
/// The returned state's [`CommStats`] carry the compiled gate split and
/// the *final generation's* measured exchange traffic: on a fault-free
/// run (0 recoveries) that equals [`crate::comm::plan_communication`];
/// after a recovery it covers only the replayed suffix. Telemetry records
/// the recovery count and latency under `resilience.shard_*`.
pub fn run_sharded_resilient(
    circuit: &Circuit,
    params: &[f64],
    n_ranks: usize,
    opts: &ShardOptions,
    recovery: &RecoveryOptions,
    schedule: &FaultSchedule,
) -> Result<(DistStateVector, RecoveryReport)> {
    let _span = nwq_telemetry::span!("dist.run");
    let tape = compile_tape(circuit, params, n_ranks, recovery.snapshot_every, schedule)?;
    let store = SnapshotStore::new(
        n_ranks,
        recovery.keep_versions,
        recovery.snapshot_dir.clone(),
    );
    let deadline = ExchangeDeadline::from(opts);
    let mut report = RecoveryReport {
        snapshots_planned: tape.snapshots_planned,
        ..RecoveryReport::default()
    };
    let mut start_step = 0usize;
    let mut init: Option<Vec<Vec<C64>>> = None;
    loop {
        report.generations += 1;
        match run_generation(n_ranks, &tape, start_step, init.take(), deadline, &store) {
            Ok(reports) => {
                report.snapshot_allocs = store.allocations();
                report.snapshot_bytes_copied = store.bytes_copied();
                return Ok((assemble(circuit.n_qubits(), &tape, reports), report));
            }
            Err(e) => {
                report.recoveries += 1;
                if report.recoveries > recovery.max_recoveries {
                    return Err(Error::Backend(format!(
                        "gave up after {} recoveries; last failure: {e}",
                        recovery.max_recoveries
                    )));
                }
                let restore_started = Instant::now();
                match store.last_complete()? {
                    Some(cut) => {
                        start_step = cut.resume_step;
                        init = Some(cut.shards);
                    }
                    None => {
                        start_step = 0;
                        init = None;
                    }
                }
                let ms = restore_started.elapsed().as_secs_f64() * 1e3;
                report.resume_steps.push(start_step);
                report.recovery_ms.push(ms);
                nwq_telemetry::counter_add("resilience.shard_recoveries", 1);
                nwq_telemetry::counter_add(
                    "resilience.shard_replayed_steps",
                    (tape.steps.len() - start_step) as u64,
                );
                nwq_telemetry::histogram_record("resilience.shard_recovery_ms", ms);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{plan_communication, plan_communication_naive};
    use nwq_circuit::{Circuit, Gate};
    use nwq_common::mat::{mat_cx, mat_rx, mat_u3};

    fn sample_circuit(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        c.h(0);
        for q in 1..n {
            c.cx(q - 1, q);
        }
        c.rz(n - 1, 0.7).ry(0, -0.4).swap(0, n - 1);
        c
    }

    fn assert_bitwise(d: &DistStateVector, single: &nwq_statevec::StateVector, ctx: &str) {
        let gathered = d.gather();
        for (i, (a, b)) in gathered
            .amplitudes()
            .iter()
            .zip(single.amplitudes())
            .enumerate()
        {
            assert_eq!(a.re.to_bits(), b.re.to_bits(), "{ctx} amp {i}");
            assert_eq!(a.im.to_bits(), b.im.to_bits(), "{ctx} amp {i}");
        }
    }

    #[test]
    fn sharded_run_bitwise_matches_single_node() {
        let c = sample_circuit(6);
        let single = nwq_statevec::simulate(&c, &[]).unwrap();
        for n_ranks in [1usize, 2, 4, 8] {
            let d = run_sharded(&c, &[], n_ranks, &ShardOptions::default()).unwrap();
            assert_bitwise(&d, &single, &format!("ranks={n_ranks}"));
        }
    }

    #[test]
    fn sharded_comm_matches_plan() {
        let c = sample_circuit(6);
        for n_ranks in [1usize, 2, 4, 8] {
            let d = run_sharded(&c, &[], n_ranks, &ShardOptions::default()).unwrap();
            let planned = plan_communication(&c, n_ranks).unwrap();
            assert_eq!(d.comm_stats(), planned, "ranks={n_ranks}");
        }
    }

    #[test]
    fn ghz_across_ranks() {
        let mut c = Circuit::new(5);
        c.h(0);
        for q in 1..5 {
            c.cx(0, q);
        }
        let d = run_sharded(&c, &[], 4, &ShardOptions::default()).unwrap();
        let s = d.gather();
        assert!((s.probability(0) - 0.5).abs() < 1e-10);
        assert!((s.probability(0b11111) - 0.5).abs() < 1e-10);
        assert!(d.comm_stats().global_gates >= 2); // CX onto qubits 3 and 4
    }

    #[test]
    fn parameterized_sharded_run() {
        let mut c = Circuit::new(4);
        c.ry(3, nwq_circuit::ParamExpr::var(0)).cx(3, 0);
        let single = nwq_statevec::simulate(&c, &[1.1]).unwrap();
        let d = run_sharded(&c, &[1.1], 2, &ShardOptions::default()).unwrap();
        assert_bitwise(&d, &single, "bound at run time");
    }

    /// H sweep, then two CX steps onto the top qubit with diagonal gates
    /// between them (rz, cp, rzz), some of which meet a rank bit.
    fn apex_circuit(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.h(q);
        }
        let t = n - 1;
        c.cx(0, t)
            .rz(t, 0.37)
            .cp(1, t, 0.21)
            .rzz(n - 2, t, 0.45)
            .cx(0, t)
            .h(0);
        c
    }

    #[test]
    fn apex_circuit_is_bitwise_and_matches_plan() {
        let c = apex_circuit(6);
        let single = nwq_statevec::simulate(&c, &[]).unwrap();
        for n_ranks in [2usize, 4, 8] {
            let d = run_sharded(&c, &[], n_ranks, &ShardOptions::default()).unwrap();
            let ctx = format!("apex ranks={n_ranks}");
            assert_bitwise(&d, &single, &ctx);
            let stats = d.comm_stats();
            assert_eq!(stats, plan_communication(&c, n_ranks).unwrap(), "{ctx}");
            // Everything not moved is accounted as saved vs the naive plan.
            let naive = plan_communication_naive(&c, n_ranks).unwrap();
            assert_eq!(stats.bytes + stats.bytes_saved, naive.bytes, "{ctx}");
            assert!(stats.bytes < naive.bytes, "{ctx}");
        }
    }

    #[test]
    fn diagonal_global_circuit_exchanges_nothing() {
        let mut c = Circuit::new(6);
        c.h(0).h(1).h(2).cx(0, 1).cx(1, 2);
        c.rz(5, 0.3).cz(2, 5).cz(4, 5).rzz(3, 4, 0.7);
        let single = nwq_statevec::simulate(&c, &[]).unwrap();
        for n_ranks in [2usize, 4, 8] {
            let d = run_sharded(&c, &[], n_ranks, &ShardOptions::default()).unwrap();
            let ctx = format!("diag ranks={n_ranks}");
            assert_bitwise(&d, &single, &ctx);
            let stats = d.comm_stats();
            assert_eq!(stats.messages, 0, "{ctx}");
            assert_eq!(stats.bytes, 0, "{ctx}");
            assert!(stats.exchanges_elided > 0, "{ctx}");
            assert_eq!(stats, plan_communication(&c, n_ranks).unwrap(), "{ctx}");
        }
    }

    #[test]
    fn global_control_gates_apply_block_locally() {
        // At 4 ranks, h(5) evicts qubit 4 (its next local use is never:
        // it only ever selects) and ry(3) sends 5 back out, so cx(4, 0)
        // meets a *global* control in superposition: each rank applies I
        // or X to its local target, without a swap.
        let mut c = Circuit::new(6);
        c.h(4)
            .h(5)
            .ry(0, 0.3)
            .ry(1, 0.5)
            .ry(2, 0.7)
            .ry(3, 0.9)
            .cx(4, 0);
        let tape = compile_tape(&c, &[], 4, 0, &FaultSchedule::none()).unwrap();
        assert!(tape
            .steps
            .iter()
            .any(|s| matches!(s, Step::LocalApply { gbit: 1, lo: 0, .. })));
        let single = nwq_statevec::simulate(&c, &[]).unwrap();
        for n_ranks in [4usize, 8] {
            let d = run_sharded(&c, &[], n_ranks, &ShardOptions::default()).unwrap();
            let ctx = format!("blockhi ranks={n_ranks}");
            assert_bitwise(&d, &single, &ctx);
            assert_eq!(
                d.comm_stats(),
                plan_communication(&c, n_ranks).unwrap(),
                "{ctx}"
            );
        }
        // The cx is one of the global gates served without an exchange.
        assert_eq!(plan_communication(&c, 4).unwrap().exchanges_elided, 4);
    }

    #[test]
    fn dense_step_on_reversed_slots_transposes_first_and_moves_signed_zeros() {
        // h(4) evicts qubit 0 (never needed local: z is diagonal), so the
        // dense gate on logical (4, 1) finds 4 in slot 0, below 1: the
        // tape transposes the two slots so the kernel sums in the single
        // node's order (without it amplitude 2 is 2 ulp off). z(0) runs on
        // a rank bit and leaves -0.0 in the zero amplitudes with bit 0
        // set, which the transposition and the restoring swap must carry
        // unchanged.
        let dense = mat_cx() * mat_u3(0.8, 0.3, -0.5).kron(&mat_rx(-0.3));
        let mut c = Circuit::new(5);
        c.h(4)
            .ry(1, 0.7)
            .ry(2, -1.1)
            .ry(3, 0.4)
            .cx(2, 1)
            .rz(4, 0.9)
            .z(0);
        c.push(Gate::Fused2(4, 1, dense)).unwrap();
        c.z(0);
        let single = nwq_statevec::simulate(&c, &[]).unwrap();
        let neg_zero = single
            .amplitudes()
            .iter()
            .flat_map(|a| [a.re, a.im])
            .filter(|x| x.to_bits() == (-0.0f64).to_bits())
            .count();
        assert_eq!(neg_zero, 16);
        for n_ranks in [2usize, 4] {
            let tape = compile_tape(&c, &[], n_ranks, 0, &FaultSchedule::none()).unwrap();
            let at = tape
                .steps
                .iter()
                .rposition(|s| matches!(s, Step::Local2(..)))
                .unwrap();
            assert!(matches!(tape.steps[at - 1], Step::Transpose(1, 0)));
            assert!(matches!(tape.steps[at], Step::Local2(1, 0, _)));
            let d = run_sharded(&c, &[], n_ranks, &ShardOptions::default()).unwrap();
            assert_bitwise(&d, &single, &format!("reversed dense ranks={n_ranks}"));
        }
    }

    /// `(swaps before the last gate, steps after it, of which swaps)`.
    fn tape_shape(c: &Circuit, n_ranks: usize) -> (usize, usize, usize) {
        let tape = compile_tape(c, &[], n_ranks, 0, &FaultSchedule::none()).unwrap();
        let is_swap = |s: &&Step| matches!(s, Step::Swap { .. });
        let last = tape
            .steps
            .iter()
            .rposition(|s| !matches!(s, Step::Swap { .. } | Step::Transpose(..)))
            .unwrap();
        let (body, tail) = tape.steps.split_at(last + 1);
        let tail_swaps = tail.iter().filter(is_swap).count();
        (body.iter().filter(is_swap).count(), tail.len(), tail_swaps)
    }

    #[test]
    fn hea_tapes_swap_then_restore_the_canonical_layout() {
        // The ledger's and the CLI's layered HEA (H wall, RY layers, CX
        // rings): (qubits, ranks, layers) → (triggered swaps, restore
        // steps, restore swaps).
        for (n, n_ranks, layers, want) in [
            (22, 2, 2, (5, 3, 1)),
            (14, 4, 2, (10, 6, 2)),
            (24, 4, 1, (6, 2, 1)),
        ] {
            let mut c = Circuit::new(n);
            for q in 0..n {
                c.h(q);
            }
            for l in 0..layers {
                for q in 0..n {
                    c.ry(q, 0.3 + 0.1 * (l * n + q) as f64 / n as f64);
                }
                for q in 0..n {
                    c.cx(q, (q + 1) % n);
                }
            }
            assert_eq!(tape_shape(&c, n_ranks), want, "{n}q {n_ranks} ranks");
        }
    }

    #[test]
    fn empty_circuit_yields_zero_state() {
        let c = Circuit::new(4);
        let d = run_sharded(&c, &[], 4, &ShardOptions::default()).unwrap();
        assert!((d.gather().probability(0) - 1.0).abs() < 1e-15);
        assert_eq!(d.comm_stats().messages, 0);
    }

    /// Short deadlines so fault tests tear down quickly.
    fn test_opts() -> ShardOptions {
        ShardOptions {
            exchange_timeout_ms: 100,
            exchange_retries: 2,
        }
    }

    fn test_recovery(snapshot_every: usize) -> RecoveryOptions {
        RecoveryOptions {
            snapshot_every,
            max_recoveries: 8,
            keep_versions: 2,
            snapshot_dir: None,
        }
    }

    #[test]
    fn resilient_clean_run_is_bitwise_and_matches_plan() {
        let c = sample_circuit(6);
        let single = nwq_statevec::simulate(&c, &[]).unwrap();
        for n_ranks in [1usize, 2, 4, 8] {
            let (d, report) = run_sharded_resilient(
                &c,
                &[],
                n_ranks,
                &ShardOptions::default(),
                &test_recovery(2),
                &FaultSchedule::none(),
            )
            .unwrap();
            assert_bitwise(&d, &single, &format!("resilient ranks={n_ranks}"));
            // Snapshot barriers exchange nothing: a fault-free resilient
            // run still measures exactly the planned traffic.
            assert_eq!(d.comm_stats(), plan_communication(&c, n_ranks).unwrap());
            assert_eq!(report.recoveries, 0);
            assert_eq!(report.generations, 1);
            assert!(report.snapshots_planned > 0);
        }
    }

    #[test]
    fn zero_rate_injector_is_bitwise_invisible() {
        // A zero-rate injector consumes its RNG draws but schedules
        // nothing, and an armed-but-empty fault plan must be bitwise
        // invisible to the executed state.
        let c = sample_circuit(6);
        let clean = run_sharded(&c, &[], 4, &ShardOptions::default()).unwrap();
        let mut inj = crate::FaultInjector::new(crate::FaultSpec::default());
        let schedule = FaultSchedule::from_injector(&mut inj, c.len(), 4);
        assert!(schedule.is_empty());
        assert_eq!(inj.stats().total(), 0);
        let (faulty, report) =
            run_sharded_resilient(&c, &[], 4, &test_opts(), &test_recovery(2), &schedule).unwrap();
        assert_bitwise(&faulty, &clean.gather(), "zero-rate faults");
        assert_eq!(report.recoveries, 0);
    }

    #[test]
    fn rank_death_without_recovery_budget_is_a_terminal_rank_loss() {
        let c = sample_circuit(5);
        let mut recovery = test_recovery(2);
        recovery.max_recoveries = 0;
        let e = run_sharded_resilient(
            &c,
            &[],
            4,
            &test_opts(),
            &recovery,
            &FaultSchedule::kill(2, 1),
        )
        .unwrap_err();
        assert!(matches!(e, Error::Backend(_)), "{e}");
        assert!(e.is_transient());
        // The scheduled death is reported, not its partners' fallout.
        assert!(e.to_string().contains("rank 1 killed by fault"), "{e}");
    }

    #[test]
    fn every_rank_and_step_recovers_bitwise() {
        let c = sample_circuit(5);
        let single = nwq_statevec::simulate(&c, &[]).unwrap();
        let n_gates = c.len();
        for n_ranks in [2usize, 4] {
            for rank in 0..n_ranks {
                for gate_step in [0, 1, n_gates / 2, n_gates - 1] {
                    let (d, report) = run_sharded_resilient(
                        &c,
                        &[],
                        n_ranks,
                        &test_opts(),
                        &test_recovery(2),
                        &FaultSchedule::kill(gate_step, rank),
                    )
                    .unwrap();
                    let ctx = format!("ranks={n_ranks} rank={rank} step={gate_step}");
                    assert_bitwise(&d, &single, &ctx);
                    assert_eq!(report.recoveries, 1, "{ctx}");
                    assert_eq!(report.generations, 2, "{ctx}");
                }
            }
        }
    }

    #[test]
    fn recovery_inside_apex_circuit_stays_bitwise() {
        // Kill a rank at every step of the apex circuit (half-exchange
        // cx, global phases, half-exchange cx): whichever cut the replay
        // resumes from, every rank redoes the same exchanges and still
        // reproduces the fault-free amplitudes bitwise.
        let c = apex_circuit(5);
        let single = nwq_statevec::simulate(&c, &[]).unwrap();
        for n_ranks in [2usize, 4] {
            for gate_step in 0..c.len() {
                let rank = gate_step % n_ranks;
                let (d, report) = run_sharded_resilient(
                    &c,
                    &[],
                    n_ranks,
                    &test_opts(),
                    &test_recovery(2),
                    &FaultSchedule::kill(gate_step, rank),
                )
                .unwrap();
                let ctx = format!("apex ranks={n_ranks} rank={rank} step={gate_step}");
                assert_bitwise(&d, &single, &ctx);
                assert_eq!(report.recoveries, 1, "{ctx}");
            }
        }
    }

    #[test]
    fn mid_exchange_death_recovers_bitwise() {
        let c = sample_circuit(5);
        let single = nwq_statevec::simulate(&c, &[]).unwrap();
        // Gate 2 of the sample circuit (cx(1, 2)) is global at 8 ranks
        // (n_local = 2): the dying rank completes its sends first, so the
        // partner sees the payload arrive and then the channel close.
        let schedule = FaultSchedule {
            deaths: vec![crate::faults::RankDeath {
                gate_step: 3,
                rank: 5,
                mid_exchange: true,
            }],
            ..FaultSchedule::default()
        };
        let (d, report) =
            run_sharded_resilient(&c, &[], 8, &test_opts(), &test_recovery(2), &schedule).unwrap();
        assert_bitwise(&d, &single, "mid-exchange death");
        assert_eq!(report.recoveries, 1);
    }

    #[test]
    fn dropped_messages_trip_the_deadline_and_recover_bitwise() {
        let c = sample_circuit(6);
        let single = nwq_statevec::simulate(&c, &[]).unwrap();
        let schedule = FaultSchedule {
            drops: vec![crate::faults::MessageDrop {
                gate_step: 4,
                rank: 1,
            }],
            ..FaultSchedule::default()
        };
        let (d, report) =
            run_sharded_resilient(&c, &[], 4, &test_opts(), &test_recovery(2), &schedule).unwrap();
        assert_bitwise(&d, &single, "message drop");
        assert_eq!(report.recoveries, 1);
    }

    #[test]
    fn stragglers_under_the_deadline_cause_no_false_positives() {
        let c = sample_circuit(6);
        let single = nwq_statevec::simulate(&c, &[]).unwrap();
        // 30 ms stalls against a 100 ms (×2 retries) deadline: slow, not
        // dead. Recovery firing here would be a false positive.
        let schedule = FaultSchedule {
            delays: vec![
                crate::faults::RankDelay {
                    gate_step: 1,
                    rank: 0,
                    delay_ms: 30,
                },
                crate::faults::RankDelay {
                    gate_step: 5,
                    rank: 3,
                    delay_ms: 30,
                },
            ],
            ..FaultSchedule::default()
        };
        let (d, report) =
            run_sharded_resilient(&c, &[], 4, &test_opts(), &test_recovery(2), &schedule).unwrap();
        assert_bitwise(&d, &single, "straggler");
        assert_eq!(report.recoveries, 0);
        assert_eq!(d.comm_stats(), plan_communication(&c, 4).unwrap());
    }

    #[test]
    fn recovery_without_snapshots_restarts_from_zero_state() {
        let c = sample_circuit(5);
        let single = nwq_statevec::simulate(&c, &[]).unwrap();
        let (d, report) = run_sharded_resilient(
            &c,
            &[],
            4,
            &test_opts(),
            &test_recovery(0),
            &FaultSchedule::kill(c.len() - 1, 2),
        )
        .unwrap();
        assert_bitwise(&d, &single, "no-snapshot restart");
        assert_eq!(report.snapshots_planned, 0);
        assert_eq!(report.recoveries, 1);
        assert_eq!(report.resume_steps, vec![0]);
    }

    #[test]
    fn recovery_budget_exhaustion_surfaces_the_last_failure() {
        let c = sample_circuit(6);
        // More planned deaths than the recovery budget allows.
        let schedule = FaultSchedule {
            deaths: (0..4)
                .map(|k| crate::faults::RankDeath {
                    gate_step: 2 + k,
                    rank: k % 4,
                    mid_exchange: false,
                })
                .collect(),
            ..FaultSchedule::default()
        };
        // Rank 3's death (gate 5) can't fire in generation 1: it is stuck
        // behind rank 2's death at the gate-4 exchange. So at least two
        // generations must fail, and a budget of 1 has to give up.
        let mut recovery = test_recovery(2);
        recovery.max_recoveries = 1;
        let e = run_sharded_resilient(&c, &[], 4, &test_opts(), &recovery, &schedule).unwrap_err();
        assert!(e.to_string().contains("gave up after 1 recoveries"), "{e}");
    }

    #[test]
    fn snapshot_dir_mirrors_cuts_on_disk() {
        let c = sample_circuit(6);
        let dir = std::env::temp_dir().join(format!("nwq-shard-snap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut recovery = test_recovery(3);
        recovery.snapshot_dir = Some(dir.clone());
        let (d, report) =
            run_sharded_resilient(&c, &[], 2, &test_opts(), &recovery, &FaultSchedule::none())
                .unwrap();
        assert!(report.snapshots_planned > 0);
        // Version 0 was cut at gate 3; both rank mirrors must exist and
        // round-trip bitwise against nothing less than real amplitudes.
        let r0 = crate::snapshot::read_shard_file(&dir, 0, 0).unwrap();
        let r1 = crate::snapshot::read_shard_file(&dir, 0, 1).unwrap();
        assert_eq!(r0.len() + r1.len(), 1 << c.n_qubits());
        let _ = d;
        let _ = std::fs::remove_dir_all(&dir);
    }
}
