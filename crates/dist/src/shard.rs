//! Real sharded execution: one OS worker thread per rank, true message
//! exchange on global-qubit gates.
//!
//! Each rank's shard is owned by its own thread, and a gate on a global
//! qubit moves the partner shard (or the half of it the gate reads)
//! through a channel — the in-process analog of an MPI sendrecv: same
//! payload sizes, same message counts, same pairing.
//!
//! There is one way to run: [`run_sharded_resilient`] compiles the circuit
//! once ([`compile_tape`]: every gate matrix resolved and classified
//! against the PGAS layout, snapshot barriers inserted, the
//! [`FaultSchedule`] translated to tape coordinates) and then spawns
//! worker generations over that tape until one completes. [`run_sharded`]
//! is the same loop with snapshots off, an empty schedule and no recovery
//! budget. Workers run lock-free — the only cross-thread traffic is the
//! amplitude payloads themselves.
//!
//! Bitwise parity with [`nwq_statevec::simulate`] is a hard invariant
//! (pinned by tests and proptests across 1/2/4/8 shards, fault-free and
//! under injected rank death): the per-shard apply paths in
//! [`nwq_statevec::kernels`] mirror the single-node kernels' arithmetic
//! exactly, including the diagonal fast paths.

use crate::comm::CommStats;
use crate::faults::FaultSchedule;
use crate::partition::DistStateVector;
use crate::snapshot::SnapshotStore;
use nwq_circuit::{Circuit, Gate, GateMatrix};
use nwq_common::{Error, Mat2, Mat4, Result, C64, C_ONE, C_ZERO};
use nwq_statevec::kernels::{self, Mat4Shape, SubKind};
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

/// One entry of the compiled, deterministic step list every worker replays.
#[derive(Clone, Debug)]
enum Step {
    /// Rank-local single-qubit gate.
    Local1(usize, Mat2),
    /// Rank-local two-qubit gate, original argument order (the kernel
    /// normalizes exactly like the single-node path).
    Local2(usize, usize, Mat4),
    /// Single-qubit gate on global (rank-id) bit `gbit`.
    Global1 { gbit: usize, m: Mat2 },
    /// Two-qubit gate, global bit `gbit` is the matrix high bit, `lo` is
    /// rank-local.
    GlobalLocal { gbit: usize, lo: usize, m: Mat4 },
    /// Two-qubit gate on two global bits (`bhi` the matrix high bit).
    GlobalGlobal { bhi: usize, blo: usize, m: Mat4 },
    /// Snapshot barrier: every rank deposits a bitwise copy of its shard
    /// as `version` of the consistent cut.
    Snapshot { version: usize },
}

/// Communication class of one tape step — a pure, deterministic function
/// of the step's bound matrix and the PGAS layout, shared verbatim by the
/// executing workers and the non-executing planner so "measured equals
/// planned" stays a structural identity (and so recovery replay reproduces
/// every elision decision bitwise).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum CommClass {
    /// Rank-local step (gates, snapshot barriers): no exchange.
    Local,
    /// Global gate with a diagonal matrix: a local phase sweep, zero
    /// messages (each rank's bits select its diagonal entries).
    Phase,
    /// Global-local gate block-split on the *global* bit: each rank
    /// applies its own 2×2 sub-block to the local qubit, zero messages.
    LocalApply,
    /// Dense pair exchange across global bit `gbit`: full-shard payload.
    PairFull { gbit: usize },
    /// Pair exchange across `gbit` where the partner's kernel reads only
    /// the local-qubit-`lo` == `v` half of the shard: half payload.
    PairHalf { gbit: usize, lo: usize, v: usize },
    /// Global-global gate block-split on global bit `sel`: each rank's
    /// `sel` bit picks a 2×2 sub-block acting across global bit `xbit`.
    /// Identity sub-blocks are skipped, diagonal ones scale locally, and
    /// only the `ndense` dense sub-blocks pair-exchange (full payload).
    GlobalBlock {
        sel: usize,
        xbit: usize,
        ndense: u32,
    },
    /// Dense global-global gate: full quad all-to-all.
    Quad,
}

/// Per-step communication record: the class, the bound matrix's shape
/// (for `Two` steps), and the compile-time fusion-window flags.
#[derive(Clone, Copy, Debug)]
pub(crate) struct StepComm {
    pub(crate) class: CommClass,
    /// Shape of the step's prenormalized matrix (`Dense` placeholder for
    /// non-two-qubit steps).
    pub(crate) shape: Mat4Shape,
    /// Sends per rank the naive full-exchange pattern would make for this
    /// step (1 pair / 3 quad / 0 local) — the `bytes_saved` baseline.
    pub(crate) naive_sends: u8,
    /// This step reuses the fusion mirror established by an earlier
    /// exchange in its window instead of exchanging again.
    pub(crate) fused: bool,
    /// A later step in the window still needs the mirror: keep advancing
    /// the partner copy past this step.
    pub(crate) track: bool,
}

/// Classifies one step. The shape lattice comes from
/// [`kernels::mat4_shape`]; the class decides the exchange *pattern* only
/// — the executor picks arithmetic from the step + shape.
fn classify_step(step: &Step) -> StepComm {
    use kernels::mat4_shape;
    let comm = |class, shape, naive_sends| StepComm {
        class,
        shape,
        naive_sends,
        fused: false,
        track: false,
    };
    match step {
        Step::Local1(..) | Step::Local2(..) | Step::Snapshot { .. } => {
            comm(CommClass::Local, Mat4Shape::Dense, 0)
        }
        Step::Global1 { gbit, m } => {
            if kernels::mat2_is_diagonal(m) {
                comm(CommClass::Phase, Mat4Shape::Dense, 1)
            } else {
                comm(CommClass::PairFull { gbit: *gbit }, Mat4Shape::Dense, 1)
            }
        }
        Step::GlobalLocal { gbit, lo, m } => {
            let shape = mat4_shape(m);
            let class = match shape {
                Mat4Shape::Diagonal => CommClass::Phase,
                Mat4Shape::BlockHi { .. } => CommClass::LocalApply,
                Mat4Shape::BlockLo { ka, kb, .. } => {
                    match (ka == SubKind::Dense, kb == SubKind::Dense) {
                        (true, false) => CommClass::PairHalf {
                            gbit: *gbit,
                            lo: *lo,
                            v: 0,
                        },
                        (false, true) => CommClass::PairHalf {
                            gbit: *gbit,
                            lo: *lo,
                            v: 1,
                        },
                        // Both dense needs the partner's both halves; both
                        // non-dense cannot occur (that matrix is diagonal,
                        // caught above) but the full exchange stays correct.
                        _ => CommClass::PairFull { gbit: *gbit },
                    }
                }
                Mat4Shape::Dense => CommClass::PairFull { gbit: *gbit },
            };
            comm(class, shape, 1)
        }
        Step::GlobalGlobal { bhi, blo, m } => {
            let shape = mat4_shape(m);
            let class = match shape {
                Mat4Shape::Diagonal => CommClass::Phase,
                Mat4Shape::BlockHi { ka, kb, .. } => CommClass::GlobalBlock {
                    sel: *bhi,
                    xbit: *blo,
                    ndense: (ka == SubKind::Dense) as u32 + (kb == SubKind::Dense) as u32,
                },
                Mat4Shape::BlockLo { ka, kb, .. } => CommClass::GlobalBlock {
                    sel: *blo,
                    xbit: *bhi,
                    ndense: (ka == SubKind::Dense) as u32 + (kb == SubKind::Dense) as u32,
                },
                Mat4Shape::Dense => CommClass::Quad,
            };
            comm(class, shape, 3)
        }
    }
}

/// Marks the exchange-fusion windows on a classified tape.
///
/// Legality rule: consecutive pair exchanges with the *identical* class
/// (`PairFull` on the same global bit; `PairHalf` on the same
/// `(gbit, lo, v)`) fuse iff every intervening step is a global phase
/// (`Phase`, which both partners mirror deterministically) or a snapshot
/// barrier (reads shards, never writes). Any other step — local gates,
/// `LocalApply`, other exchanges — invalidates the partner mirror, so it
/// closes every window. At most one window is open at a time, which is
/// why the executor carries a single mirror slot.
fn compute_fusion(steps: &[Step], comm: &mut [StepComm]) {
    let mut open: Option<(usize, CommClass)> = None;
    for j in 0..comm.len() {
        match comm[j].class {
            CommClass::Phase => {}
            CommClass::Local if matches!(steps[j], Step::Snapshot { .. }) => {}
            CommClass::PairFull { .. } | CommClass::PairHalf { .. } => {
                if let Some((prev, class)) = open {
                    if class == comm[j].class {
                        comm[prev].track = true;
                        comm[j].fused = true;
                        open = Some((j, class));
                        continue;
                    }
                }
                open = Some((j, comm[j].class));
            }
            _ => open = None,
        }
    }
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

/// Classifies and resolves one gate against the PGAS layout.
fn gate_step(gate: &Gate, params: &[f64], n_local: usize) -> Result<Step> {
    Ok(match gate.matrix(params)? {
        GateMatrix::One(q, m) => {
            if q < n_local {
                Step::Local1(q, m)
            } else {
                Step::Global1 {
                    gbit: q - n_local,
                    m,
                }
            }
        }
        GateMatrix::Two(a, b, m) => match (a < n_local, b < n_local) {
            (true, true) => Step::Local2(a, b, m),
            (false, true) => Step::GlobalLocal {
                gbit: a - n_local,
                lo: b,
                m,
            },
            (true, false) => Step::GlobalLocal {
                gbit: b - n_local,
                lo: a,
                m: m.swap_qubits(),
            },
            (false, false) => {
                // Normalize like the single-node kernel: numerically
                // higher qubit becomes the matrix high bit.
                let (hi, lo, m) = if a > b {
                    (a, b, m)
                } else {
                    (b, a, m.swap_qubits())
                };
                Step::GlobalGlobal {
                    bhi: hi - n_local,
                    blo: lo - n_local,
                    m,
                }
            }
        },
    })
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

/// Compiled execution: the shared step list, its tape-aligned
/// communication plan, the armed faults, and the gate accounting
/// (`plan_communication` must agree with what the workers measure; both
/// are derived from the same per-step classification).
struct Tape {
    n_local: usize,
    steps: Vec<Step>,
    comm: Vec<StepComm>,
    faults: FaultPlan,
    snapshots_planned: usize,
    local_gates: u64,
    global_gates: u64,
}

/// Resolves the circuit into the deterministic tape every worker replays:
/// one step per gate (never fused — replay must be bitwise), a snapshot
/// barrier every `snapshot_every` gates (0 = none), `schedule` translated
/// from gate to tape coordinates and armed fire-once, then the per-step
/// communication classes with their fusion windows.
fn compile_tape(
    circuit: &Circuit,
    params: &[f64],
    n_ranks: usize,
    snapshot_every: usize,
    schedule: &FaultSchedule,
) -> Result<Tape> {
    let n_local = validate_ranks(circuit.n_qubits(), n_ranks)?;
    let mut steps = Vec::with_capacity(circuit.len() + 1);
    let mut faults = FaultPlan::default();
    let (mut local_gates, mut global_gates, mut snapshots_planned) = (0u64, 0u64, 0usize);
    for (gate_idx, gate) in circuit.gates().iter().enumerate() {
        if snapshot_every > 0 && gate_idx > 0 && gate_idx % snapshot_every == 0 {
            steps.push(Step::Snapshot {
                version: snapshots_planned,
            });
            snapshots_planned += 1;
        }
        let at = steps.len();
        for d in schedule.deaths.iter().filter(|d| d.gate_step == gate_idx) {
            faults
                .deaths
                .push((PlannedFault::new(at, d.rank), d.mid_exchange));
        }
        for d in schedule.drops.iter().filter(|d| d.gate_step == gate_idx) {
            faults.drops.push(PlannedFault::new(at, d.rank));
        }
        for d in schedule.delays.iter().filter(|d| d.gate_step == gate_idx) {
            faults
                .delays
                .push((PlannedFault::new(at, d.rank), d.delay_ms));
        }
        let step = gate_step(gate, params, n_local)?;
        if matches!(step, Step::Local1(..) | Step::Local2(..)) {
            local_gates += 1;
        } else {
            global_gates += 1;
        }
        steps.push(step);
    }
    let mut comm: Vec<StepComm> = steps.iter().map(classify_step).collect();
    compute_fusion(&steps, &mut comm);
    Ok(Tape {
        n_local,
        steps,
        comm,
        faults,
        snapshots_planned,
        local_gates,
        global_gates,
    })
}

/// Accumulates one classified step into planner totals — what `n` ranks
/// running that step's class function send, elide and save, so the
/// planner and the summed per-rank worker counters reduce to the same
/// numbers. `pb` is the full-shard payload size in bytes.
fn accumulate_step(stats: &mut CommStats, sc: &StepComm, n: u64, pb: u64) {
    match sc.class {
        CommClass::Local => {}
        CommClass::Phase => {
            let msgs = sc.naive_sends as u64 * n;
            stats.exchanges_elided += msgs;
            stats.bytes_saved += msgs * pb;
        }
        CommClass::LocalApply => {
            stats.exchanges_elided += n;
            stats.bytes_saved += n * pb;
        }
        CommClass::PairFull { .. } => {
            if sc.fused {
                stats.exchanges_fused += n;
                stats.bytes_saved += n * pb;
            } else {
                stats.messages += n;
                stats.bytes += n * pb;
            }
        }
        CommClass::PairHalf { .. } => {
            if sc.fused {
                stats.exchanges_fused += n;
                stats.bytes_saved += n * pb;
            } else {
                stats.messages += n;
                stats.bytes += n * pb / 2;
                stats.bytes_saved += n * pb / 2;
            }
        }
        CommClass::GlobalBlock { ndense, .. } => {
            let msgs = ndense as u64 * n / 2;
            stats.messages += msgs;
            stats.bytes += msgs * pb;
            stats.exchanges_elided += 3 * n - msgs;
            stats.bytes_saved += (3 * n - msgs) * pb;
        }
        CommClass::Quad => {
            stats.messages += 3 * n;
            stats.bytes += 3 * n * pb;
        }
    }
}

/// θ-aware communication plan: compiles the very tape the executor would
/// run ([`compile_tape`] — same classification, same fusion-window pass)
/// and sums what its workers will send. Backs
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
    let mut stats = CommStats {
        local_gates: tape.local_gates,
        global_gates: tape.global_gates,
        ..CommStats::default()
    };
    for sc in &tape.comm {
        accumulate_step(&mut stats, sc, n_ranks as u64, 16u64 << tape.n_local);
    }
    Ok(stats)
}

/// Exchange payload: the sending rank's shard (or packed half-shard),
/// tagged with the step index so a desynchronized mesh is detected
/// instead of silently mixing states.
type Msg = (usize, Vec<C64>);

/// What one worker thread reports back.
struct WorkerReport {
    shard: Vec<C64>,
    messages: u64,
    bytes: u64,
    /// Messages the naive pattern would have sent but the step's structure
    /// (diagonal elision, block-local application) did not.
    elided: u64,
    /// Pair exchanges avoided by exchange fusion.
    fused: u64,
    /// Naive payload bytes minus actually-sent bytes.
    saved: u64,
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
    /// instead of blocking the worker forever. `expect_len` is the payload
    /// length this step's exchange class calls for — the full shard for a
    /// dense exchange, half of it for a [`CommClass::PairHalf`] step — so
    /// a desynchronized or mis-packed mesh is caught at the boundary.
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

/// Reusable exchange-payload buffers. Sends draw their backing storage
/// here and receives return theirs, so a steady-state exchange loop
/// allocates nothing after warm-up. Two slots cover the worst case (a
/// quad step returns three payloads but the pool only needs enough for
/// the next step's sends; pair steps cycle one buffer).
#[derive(Default)]
struct BufPool(Vec<Vec<C64>>);

impl BufPool {
    fn take(&mut self) -> Vec<C64> {
        self.0.pop().unwrap_or_default()
    }

    fn put(&mut self, mut buf: Vec<C64>) {
        if self.0.len() < 2 {
            buf.clear();
            self.0.push(buf);
        }
    }
}

/// Per-worker exchange endpoint: the mesh, the reusable payload-buffer
/// pool, the faults armed for the step in flight, and the measured /
/// avoided traffic counters.
struct ExchangeIo<'a> {
    mesh: &'a Mesh,
    rank: usize,
    deadline: ExchangeDeadline,
    pool: BufPool,
    /// Full-shard payload size in bytes.
    part_bytes: u64,
    /// A message-drop fault is armed for this step: sends are skipped
    /// silently, so partners hit their receive deadline.
    skip_sends: bool,
    /// A mid-exchange death is armed for this step: the rank dies after
    /// the step's sends (if it has any) and before its receives.
    die_mid_exchange: bool,
    messages: u64,
    bytes: u64,
    elided: u64,
    fused: u64,
    saved: u64,
}

impl ExchangeIo<'_> {
    /// Fires the faults `plan` holds for (`step`, this rank), in schedule
    /// order: a straggler stall, then a death — clean deaths (and
    /// "mid-exchange" ones on a step that is not a global gate) return
    /// the kill error right here — then a message drop. Planned faults
    /// fire exactly once across all generations; `step` is absolute, so
    /// replay walks the same schedule.
    fn arm_faults(&mut self, plan: &FaultPlan, step: usize, global_gate: bool) -> Result<()> {
        if let Some(ms) = plan.delay_at(step, self.rank) {
            std::thread::sleep(Duration::from_millis(ms));
        }
        self.die_mid_exchange = match plan.death_at(step, self.rank) {
            Some(mid) if mid && global_gate => true,
            Some(_) => return Err(killed(self.rank, step, false)),
            None => false,
        };
        self.skip_sends = plan.drop_at(step, self.rank);
        Ok(())
    }

    /// Books `sends` naive messages this rank did not have to send.
    fn elide(&mut self, sends: u64) {
        self.elided += sends;
        self.saved += sends * self.part_bytes;
    }

    /// One symmetric exchange with `mates`: sends the shard — or, with
    /// `half = Some((lo, v))`, its packed `lo`-bit == `v` half — to each
    /// mate, then receives the same-shaped payload from each, in `mates`
    /// order. Sends copy into pooled buffers; receives validate the step
    /// tag and payload length. An armed mid-exchange death fires between
    /// the two halves, so partners see the payload arrive and then the
    /// channel close.
    fn exchange<const N: usize>(
        &mut self,
        step: usize,
        mates: [usize; N],
        shard: &[C64],
        half: Option<(usize, usize)>,
    ) -> Result<[Vec<C64>; N]> {
        let len = if half.is_some() {
            shard.len() / 2
        } else {
            shard.len()
        };
        if !self.skip_sends {
            for &to in &mates {
                let mut buf = self.pool.take();
                match half {
                    Some((lo, v)) => kernels::pack_lo_half(shard, lo, v, &mut buf),
                    None => buf.extend_from_slice(shard),
                }
                self.mesh.send(self.rank, to, step, buf)?;
                self.messages += 1;
                self.bytes += (len * 16) as u64;
            }
        }
        if self.die_mid_exchange {
            return Err(killed(self.rank, step, true));
        }
        let mut payloads: [Vec<C64>; N] = std::array::from_fn(|_| Vec::new());
        for (slot, &from) in payloads.iter_mut().zip(&mates) {
            *slot = self.mesh.recv(self.rank, from, step, len, self.deadline)?;
        }
        Ok(payloads)
    }
}

/// A live fusion window: the partner's payload from the window's anchor
/// exchange, advanced step by step to the partner's current values.
/// `class` is the window's exchange class (a fused step must match it;
/// a mismatch means the compile-time window pass and the executor
/// disagree, which would be a bug).
struct Mirror {
    class: CommClass,
    buf: Vec<C64>,
}

/// Advances a live fusion mirror past an elided diagonal (`Phase`) step.
/// The mirror holds the *partner's* amplitudes, so the diagonal entries
/// are selected by the partner's rank bits — the partner differs from
/// this rank only in the window's exchange bit, and runs exactly these
/// expressions on its own shard, which keeps the mirror bitwise true.
fn phase_on_mirror(mirror: &mut Mirror, rank: usize, step: &Step) {
    let wgbit = match mirror.class {
        CommClass::PairFull { gbit } | CommClass::PairHalf { gbit, .. } => gbit,
        _ => unreachable!("fusion windows are anchored by pair exchanges"),
    };
    let partner = rank ^ (1 << wgbit);
    match step {
        Step::Global1 { gbit, m } => {
            let ph = (partner >> gbit) & 1;
            kernels::scale_amps(&mut mirror.buf, m.0[ph][ph]);
        }
        Step::GlobalLocal { gbit, lo, m } => {
            let ph = (partner >> gbit) & 1;
            if let CommClass::PairHalf { lo: wlo, v, .. } = mirror.class {
                let d0 = m.0[ph << 1][ph << 1];
                let d1 = m.0[(ph << 1) | 1][(ph << 1) | 1];
                kernels::phase_on_lo_half(&mut mirror.buf, wlo, v, *lo, d0, d1);
            } else {
                kernels::apply_global_local_phase(&mut mirror.buf, ph, *lo, m);
            }
        }
        Step::GlobalGlobal { bhi, blo, m } => {
            // Both bits are global, so the phase is one scalar per rank —
            // valid on a packed-half mirror too.
            let pos = (((partner >> bhi) & 1) << 1) | ((partner >> blo) & 1);
            kernels::scale_amps(&mut mirror.buf, m.0[pos][pos]);
        }
        _ => unreachable!("only global diagonal steps are Phase-classified"),
    }
}

/// One rank's live state: its shard, its exchange endpoint, and the open
/// fusion window's partner mirror (at most one window is open at any tape
/// point — compile-time invariant of [`compute_fusion`] — so a single
/// slot suffices). One method per [`CommClass`]; every method uses the
/// exact per-amplitude expressions of the single-node kernels, so the
/// exchange pattern is invisible bitwise.
struct Rank<'a> {
    shard: Vec<C64>,
    io: ExchangeIo<'a>,
    mirror: Option<Mirror>,
    /// Parts each rank-local sweep is cut into: the pool's threads shared
    /// among the rank threads ([`kernels::parts_per_caller`]), so R busy
    /// ranks do not each dispatch the whole pool.
    parts: usize,
}

impl Rank<'_> {
    /// This rank's value of global (rank-id) bit `b`.
    fn bit(&self, b: usize) -> usize {
        (self.io.rank >> b) & 1
    }

    /// [`CommClass::Local`]: a rank-local gate or a snapshot deposit.
    fn local(&mut self, step: &Step, s: usize, snapshots: &SnapshotStore) -> Result<()> {
        match step {
            Step::Local1(q, m) => kernels::apply_mat2_parts(&mut self.shard, *q, m, self.parts),
            Step::Local2(a, b, m) => {
                kernels::apply_mat4_parts(&mut self.shard, *a, *b, m, self.parts)
            }
            Step::Snapshot { version } => {
                return snapshots.deposit(*version, s, self.io.rank, &self.shard)
            }
            _ => unreachable!("Local classifies rank-local steps only"),
        }
        debug_assert!(self.mirror.is_none(), "local gate inside a fusion window");
        Ok(())
    }

    /// [`CommClass::Phase`]: a diagonal global gate is a local phase sweep
    /// (this rank's bits pick the diagonal entries), mirrored onto an open
    /// fusion window's partner copy.
    fn phase(&mut self, step: &Step, sc: &StepComm) {
        match step {
            Step::Global1 { gbit, m } => {
                let own = self.bit(*gbit);
                kernels::apply_global_phase1(&mut self.shard, own, m);
            }
            Step::GlobalLocal { gbit, lo, m } => {
                let own = self.bit(*gbit);
                kernels::apply_global_local_phase(&mut self.shard, own, *lo, m);
            }
            Step::GlobalGlobal { bhi, blo, m } => {
                let pos = (self.bit(*bhi) << 1) | self.bit(*blo);
                kernels::apply_global_global_phase(&mut self.shard, pos, m);
            }
            _ => unreachable!("Phase classifies global steps only"),
        }
        if let Some(mir) = self.mirror.as_mut() {
            phase_on_mirror(mir, self.io.rank, step);
        }
        self.io.elide(sc.naive_sends as u64);
    }

    /// [`CommClass::LocalApply`]: a gate block-split on its global bit —
    /// this rank applies its own 2×2 sub-block to the local qubit.
    fn local_apply(&mut self, step: &Step, sc: &StepComm) {
        let Step::GlobalLocal { gbit, lo, .. } = step else {
            unreachable!("LocalApply is a global-local class");
        };
        let Mat4Shape::BlockHi { a, ka, b, kb } = sc.shape else {
            unreachable!("LocalApply comes from a BlockHi shape");
        };
        let (k, km) = if self.bit(*gbit) == 1 {
            (kb, b)
        } else {
            (ka, a)
        };
        if k != SubKind::Identity {
            kernels::apply_mat2_parts(&mut self.shard, *lo, &km, self.parts);
        }
        self.io.elide(1);
    }

    /// Obtains the partner payload for a pair-class step. A fused step
    /// consumes the live fusion mirror — zero messages; a recovery
    /// generation resuming mid-window finds no mirror and falls back to a
    /// fresh exchange, which stays symmetric because every rank restarted
    /// from the same cut and misses the same mirror.
    fn partner_payload(
        &mut self,
        sc: &StepComm,
        s: usize,
        gbit: usize,
        half: Option<(usize, usize)>,
    ) -> Result<Vec<C64>> {
        if sc.fused {
            if let Some(mir) = self.mirror.take() {
                debug_assert_eq!(mir.class, sc.class);
                self.io.fused += 1;
                self.io.saved += self.io.part_bytes;
                return Ok(mir.buf);
            }
        }
        debug_assert!(self.mirror.is_none());
        let [payload] = self
            .io
            .exchange(s, [self.io.rank ^ (1 << gbit)], &self.shard, half)?;
        if half.is_some() {
            self.io.saved += self.io.part_bytes / 2;
        }
        Ok(payload)
    }

    /// Closes a pair step: a tracked payload (advanced by the step's
    /// `exchange_mirror_*` kernel to the partner's post-gate values)
    /// becomes the window's mirror; an untracked one returns to the pool.
    fn settle(&mut self, sc: &StepComm, payload: Vec<C64>) {
        if sc.track {
            self.mirror = Some(Mirror {
                class: sc.class,
                buf: payload,
            });
        } else {
            self.io.pool.put(payload);
        }
    }

    /// [`CommClass::PairFull`]: dense single-qubit gate on a global bit,
    /// or a two-qubit gate that reads both `lo` halves of the partner.
    fn pair_full(&mut self, step: &Step, sc: &StepComm, s: usize, gbit: usize) -> Result<()> {
        let own = self.bit(gbit);
        let mut theirs = self.partner_payload(sc, s, gbit, None)?;
        let mine = &mut self.shard;
        match (step, sc.shape, sc.track) {
            (Step::Global1 { m, .. }, _, true) => {
                kernels::exchange_mirror_mat2(mine, &mut theirs, own, m)
            }
            (Step::Global1 { m, .. }, _, false) => {
                kernels::apply_exchanged_mat2(mine, &theirs, own, m)
            }
            (Step::GlobalLocal { lo, .. }, Mat4Shape::BlockLo { .. }, true) => {
                kernels::exchange_mirror_blocklo(mine, &mut theirs, own, *lo, &sc.shape)
            }
            (Step::GlobalLocal { lo, .. }, Mat4Shape::BlockLo { .. }, false) => {
                kernels::apply_exchanged_blocklo(mine, &theirs, own, *lo, &sc.shape)
            }
            (Step::GlobalLocal { lo, m, .. }, _, true) => {
                kernels::exchange_mirror_global_local(mine, &mut theirs, own, *lo, m)
            }
            (Step::GlobalLocal { lo, m, .. }, _, false) => {
                kernels::apply_exchanged_mat4_global_local(mine, &theirs, own, *lo, m)
            }
            _ => unreachable!("PairFull classifies Global1 and GlobalLocal steps only"),
        }
        self.settle(sc, theirs);
        Ok(())
    }

    /// [`CommClass::PairHalf`]: a gate block-split on its local qubit with
    /// one dense sub-block — only the `lo == v` half crosses the wire.
    fn pair_half(
        &mut self,
        sc: &StepComm,
        s: usize,
        gbit: usize,
        lo: usize,
        v: usize,
    ) -> Result<()> {
        let Mat4Shape::BlockLo { a, ka, b, kb } = sc.shape else {
            unreachable!("PairHalf comes from a BlockLo shape");
        };
        let own = self.bit(gbit);
        let (dense_m, other_k, other_m) = if v == 0 { (a, kb, b) } else { (b, ka, a) };
        // The non-exchanged `lo == 1-v` stripe applies its own
        // identity/diagonal sub-block locally; the stripes are disjoint,
        // so ordering against the pack is free.
        if other_k != SubKind::Identity {
            kernels::scale_lo_half(&mut self.shard, lo, 1 - v, other_m.0[own][own]);
        }
        let mut theirs = self.partner_payload(sc, s, gbit, Some((lo, v)))?;
        if sc.track {
            kernels::exchange_mirror_half(&mut self.shard, &mut theirs, own, lo, v, &dense_m);
        } else {
            kernels::apply_exchanged_half(&mut self.shard, &theirs, own, lo, v, &dense_m);
        }
        self.settle(sc, theirs);
        Ok(())
    }

    /// [`CommClass::GlobalBlock`]: this rank's `sel` bit picks a 2×2
    /// sub-block acting across global bit `xbit`; only a dense sub-block
    /// exchanges, and its partner shares the `sel` bit, so it takes the
    /// same arm and the exchange stays symmetric.
    fn global_block(&mut self, sc: &StepComm, s: usize, sel: usize, xbit: usize) -> Result<()> {
        debug_assert!(
            self.mirror.is_none(),
            "global-global step in a fusion window"
        );
        let (Mat4Shape::BlockHi { a, ka, b, kb } | Mat4Shape::BlockLo { a, ka, b, kb }) = sc.shape
        else {
            unreachable!("GlobalBlock comes from a block shape");
        };
        let (k, km) = if self.bit(sel) == 1 { (kb, b) } else { (ka, a) };
        let xv = self.bit(xbit);
        match k {
            SubKind::Identity => self.io.elide(3),
            SubKind::Diag => {
                kernels::scale_amps(&mut self.shard, km.0[xv][xv]);
                self.io.elide(3);
            }
            SubKind::Dense => {
                let [theirs] =
                    self.io
                        .exchange(s, [self.io.rank ^ (1 << xbit)], &self.shard, None)?;
                kernels::apply_exchanged_mat2(&mut self.shard, &theirs, xv, &km);
                self.io.pool.put(theirs);
                self.io.elide(2);
            }
        }
        Ok(())
    }

    /// [`CommClass::Quad`]: dense gate on two global bits — all-to-all
    /// within the quad of ranks that differ in those bits.
    fn quad(&mut self, step: &Step, s: usize) -> Result<()> {
        debug_assert!(
            self.mirror.is_none(),
            "global-global step in a fusion window"
        );
        let Step::GlobalGlobal { bhi, blo, m } = step else {
            unreachable!("Quad is a global-global class");
        };
        let pos = (self.bit(*bhi) << 1) | self.bit(*blo);
        // Quad mates in ascending bit-position order, the payload order
        // the kernel expects.
        let base = self.io.rank & !(1 << bhi) & !(1 << blo);
        let mut mates = [0usize; 3];
        for (mate, p) in mates.iter_mut().zip((0..4).filter(|&p| p != pos)) {
            *mate = base | ((p >> 1) << bhi) | ((p & 1) << blo);
        }
        let theirs = self.io.exchange(s, mates, &self.shard, None)?;
        kernels::apply_exchanged_mat4_global_global(
            &mut self.shard,
            [&theirs[0], &theirs[1], &theirs[2]],
            pos,
            m,
        );
        for payload in theirs {
            self.io.pool.put(payload);
        }
        Ok(())
    }
}

/// The body of one rank's worker thread: replay the tape from
/// `start_step` (0 for a fresh run, the restored cut's resume step after
/// a recovery) against the owned shard — arm the step's faults, dispatch
/// on its communication class, die if a mid-exchange death was armed and
/// the class had no exchange to die in. Every channel failure and every
/// exhausted exchange deadline maps to [`Error::Backend`] — a dead or
/// wedged partner aborts this rank cleanly instead of deadlocking or
/// panicking.
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
    let part_len = 1usize << tape.n_local;
    let shard = init.unwrap_or_else(|| {
        let mut zero = vec![C_ZERO; part_len];
        if rank == 0 {
            zero[0] = C_ONE;
        }
        zero
    });
    debug_assert_eq!(shard.len(), part_len);
    let mut w = Rank {
        shard,
        io: ExchangeIo {
            mesh: &mesh,
            rank,
            deadline,
            pool: BufPool::default(),
            part_bytes: (part_len * 16) as u64,
            skip_sends: false,
            die_mid_exchange: false,
            messages: 0,
            bytes: 0,
            elided: 0,
            fused: 0,
            saved: 0,
        },
        mirror: None,
        parts: kernels::parts_per_caller(part_len, mesh.senders.len()),
    };
    for s in start_step..tape.steps.len() {
        let (step, sc) = (&tape.steps[s], &tape.comm[s]);
        w.io.arm_faults(&tape.faults, s, sc.class != CommClass::Local)?;
        match sc.class {
            CommClass::Local => w.local(step, s, snapshots)?,
            CommClass::Phase => w.phase(step, sc),
            CommClass::LocalApply => w.local_apply(step, sc),
            CommClass::PairFull { gbit } => w.pair_full(step, sc, s, gbit)?,
            CommClass::PairHalf { gbit, lo, v } => w.pair_half(sc, s, gbit, lo, v)?,
            CommClass::GlobalBlock { sel, xbit, .. } => w.global_block(sc, s, sel, xbit)?,
            CommClass::Quad => w.quad(step, s)?,
        }
        if w.io.die_mid_exchange {
            return Err(killed(rank, s, true));
        }
    }
    Ok(WorkerReport {
        shard: w.shard,
        messages: w.io.messages,
        bytes: w.io.bytes,
        elided: w.io.elided,
        fused: w.io.fused,
        saved: w.io.saved,
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
/// state, with the usual `dist.*` telemetry (measured counters plus the
/// α–β model's prediction for them).
fn assemble(n_qubits: usize, tape: &Tape, reports: Vec<WorkerReport>) -> DistStateVector {
    let n_ranks = reports.len();
    let mut stats = CommStats {
        global_gates: tape.global_gates,
        local_gates: tape.local_gates,
        ..CommStats::default()
    };
    let mut partitions = Vec::with_capacity(n_ranks);
    for report in reports {
        stats.messages += report.messages;
        stats.bytes += report.bytes;
        stats.exchanges_elided += report.elided;
        stats.exchanges_fused += report.fused;
        stats.bytes_saved += report.saved;
        nwq_telemetry::histogram_record("dist.rank_seconds", report.seconds);
        nwq_telemetry::histogram_record("dist.rank_messages", report.messages as f64);
        partitions.push(report.shard);
    }
    nwq_telemetry::counter_add("dist.messages", stats.messages);
    nwq_telemetry::counter_add("dist.bytes", stats.bytes);
    nwq_telemetry::counter_add("dist.local_gates", stats.local_gates);
    nwq_telemetry::counter_add("dist.global_gates", stats.global_gates);
    nwq_telemetry::counter_add("dist.exchanges_elided", stats.exchanges_elided);
    nwq_telemetry::counter_add("dist.exchange_fused", stats.exchanges_fused);
    nwq_telemetry::counter_add("dist.bytes_saved", stats.bytes_saved);
    let model = crate::costmodel::CostModel::perlmutter_like();
    let total_gates = stats.global_gates + stats.local_gates;
    nwq_telemetry::value_add("dist.modeled_comm_s", model.comm_time_s(&stats, n_ranks));
    nwq_telemetry::value_add(
        "dist.modeled_total_s",
        model.total_time_s(&stats, total_gates, n_qubits, n_ranks),
    );
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
    use nwq_circuit::Circuit;

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

    /// H sweep, then a half-exchange fusion window on the top qubit with
    /// every transparent phase kind between the anchor and the fused
    /// member: `Global1` (rz), diagonal `GlobalLocal` (cp), and — at ≥ 4
    /// ranks — diagonal `GlobalGlobal` (rzz).
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
    fn fusion_window_is_bitwise_and_matches_plan() {
        let c = apex_circuit(6);
        let single = nwq_statevec::simulate(&c, &[]).unwrap();
        for n_ranks in [2usize, 4, 8] {
            let d = run_sharded(&c, &[], n_ranks, &ShardOptions::default()).unwrap();
            let ctx = format!("fused ranks={n_ranks}");
            assert_bitwise(&d, &single, &ctx);
            let stats = d.comm_stats();
            assert_eq!(stats, plan_communication(&c, n_ranks).unwrap(), "{ctx}");
            // The second cx rides the first one's mirror on every rank.
            assert_eq!(stats.exchanges_fused, n_ranks as u64, "{ctx}");
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
        // cx with a *global* control and local target: each rank applies
        // I or X locally — zero messages, still bitwise.
        let mut c = Circuit::new(6);
        c.h(5).h(4).cx(5, 1).cx(4, 0);
        let single = nwq_statevec::simulate(&c, &[]).unwrap();
        for n_ranks in [4usize, 8] {
            let d = run_sharded(&c, &[], n_ranks, &ShardOptions::default()).unwrap();
            let ctx = format!("blockhi ranks={n_ranks}");
            assert_bitwise(&d, &single, &ctx);
            let stats = d.comm_stats();
            // Only the two H's on global qubits exchange.
            assert_eq!(stats.messages, 2 * n_ranks as u64, "{ctx}");
            assert_eq!(stats, plan_communication(&c, n_ranks).unwrap(), "{ctx}");
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
    fn recovery_inside_fusion_window_stays_bitwise() {
        // Kill a rank at every step of a circuit whose tail is a fusion
        // window (anchor cx, transparent phases, fused cx): when the
        // replay resumes past the anchor the mirror is gone on every
        // rank, so the fused member must fall back to a symmetric fresh
        // exchange — and still reproduce the fault-free amplitudes
        // bitwise.
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
