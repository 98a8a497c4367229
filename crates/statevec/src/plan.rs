//! Compiled execution plans with a structure/bind split: compile the
//! circuit *shape* once, rebind θ in microseconds.
//!
//! The variational hot loop evaluates the same circuit shape at thousands
//! of parameter vectors. The seed plan layer re-ran the full fusion +
//! coalescing pass per evaluation (`plan.compiled == 85` on the H2 bench,
//! ~69 % of VQE wall time). Every merge decision in that pass depends only
//! on gate arity and operand qubits — never on θ — so the work splits:
//!
//! 1. [`PlanTemplate::build`] runs `fusion::fuse_structure` once per
//!    circuit shape, records each fused block's replay tape (which source
//!    gates feed it and the exact merge each performs), pre-evaluates all
//!    constant gates, folds every block's maximal constant prefix into a
//!    single matrix, and pre-normalizes constant two-qubit blocks to the
//!    kernel's `hi > lo` convention.
//! 2. [`PlanTemplate::bind`] (and the zero-allocation
//!    [`PlanTemplate::bind_into`]) evaluates only the remaining symbolic
//!    `ParamExpr`s, replaying each tape in the identical floating-point
//!    operation order — the bound plan is **bitwise identical** to a cold
//!    compile at the same θ.
//!
//! Diagonal blocks (RZ cores, CZ/CP/RZZ phases — and UCCSD's
//! CX·RZ·CX apex blocks, which are numerically diagonal at every θ even
//! though they are symbolic) become [`PlanOp::DiagSweep`] factor runs:
//! a run of length ≥ 1 is applied by
//! [`crate::kernels::apply_diag_sweep`] in one multiply-per-factor pass
//! that is bitwise identical to the plain kernels' diagonal fast path.
//! Note UCCSD ansätze do *not* produce adjacent diagonal blocks — the
//! apex blocks are fenced by overlapping CX-ladder blocks — so
//! multi-factor coalescing (`plan.diag_coalesced`) only fires on circuits
//! with genuinely adjacent diagonals; see DESIGN.md §plan.
//!
//! [`ExecPlan::compile`] keeps its signature but now routes through the
//! global [`crate::plan_cache`] LRU, so every energy path (VQE / ADAPT /
//! QPE / batch / serve workers) shares templates automatically. The
//! cache key is the circuit's memoised [`nwq_circuit::Shape`], built once
//! per circuit value, so a rebind's lookup is a pointer comparison.
//! Execution happens through `Executor::run_plan_on` /
//! [`crate::simulate_plan`]; template builds emit `plan.compiled` and the
//! `plan.template` span, binds emit `plan.binds`, `plan.bind_ms` and the
//! `plan.bind` span.

use crate::kernels::{mat2_is_diagonal, mat4_is_diagonal, DiagFactor};
use nwq_circuit::fusion::{self, BlockArity, MergeStep};
use nwq_circuit::{Circuit, Gate, GateMatrix};
use nwq_common::mat::{embed_high, embed_low};
use nwq_common::{Error, Mat2, Mat4, Result};

/// One compiled operation: parameters bound, matrix materialized.
#[derive(Clone, Copy, Debug)]
pub enum PlanOp {
    /// Fused single-qubit block.
    One(usize, Mat2),
    /// Fused two-qubit block, pre-normalized to `hi > lo` so the kernel
    /// can skip the per-call swap (first index is the high qubit).
    Two(usize, usize, Mat4),
    /// Run of ≥1 commuting diagonal blocks applied in one amplitude pass;
    /// indexes the plan's flat [`ExecPlan::factors`] table.
    DiagSweep {
        /// First factor index.
        start: usize,
        /// Number of factors in the run.
        len: usize,
        /// `true` when any factor spans two qubits.
        two_qubit: bool,
    },
}

impl PlanOp {
    /// `true` when the op touches two or more distinct qubits.
    pub fn is_two_qubit(&self) -> bool {
        match self {
            PlanOp::One(..) => false,
            PlanOp::Two(..) => true,
            PlanOp::DiagSweep { two_qubit, .. } => *two_qubit,
        }
    }
}

/// Statistics from one plan bind (the bind-time analog of
/// `fusion::FusionStats`).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PlanStats {
    /// Logical gates in the source circuit, before fusion.
    pub gates_in: usize,
    /// Fused blocks after the §4.3 pass, before diagonal coalescing.
    pub fused_blocks: usize,
    /// Final op count: amplitude sweeps one execution will perform.
    pub ops: usize,
    /// Diagonal blocks folded into multi-factor `DiagSweep` runs (runs of
    /// length 1 don't count: they save no sweep over the plain kernel).
    pub diag_coalesced: usize,
    /// Wall-clock time spent binding, in seconds.
    pub bind_seconds: f64,
}

impl PlanStats {
    /// Amplitude sweeps avoided per execution vs the unfused circuit.
    pub fn sweeps_saved(&self) -> usize {
        self.gates_in.saturating_sub(self.ops)
    }

    /// Fractional sweep reduction, e.g. `0.52` for 52 %.
    pub fn reduction(&self) -> f64 {
        if self.gates_in == 0 {
            0.0
        } else {
            1.0 - self.ops as f64 / self.gates_in as f64
        }
    }
}

/// A circuit bound against one parameter vector: flat op list, every
/// matrix materialized, fusion and diagonal coalescing already applied.
#[derive(Clone, Debug)]
pub struct ExecPlan {
    n_qubits: usize,
    ops: Vec<PlanOp>,
    factors: Vec<DiagFactor>,
    /// Per-op [`Mat4Shape`], classified once at bind time (aligned with
    /// `ops`; non-`Two` ops hold `Dense` as a don't-care placeholder).
    /// The executor and the sharded lean-exchange planner both consume
    /// this instead of re-classifying per sweep.
    shapes: Vec<crate::kernels::Mat4Shape>,
    stats: PlanStats,
}

impl ExecPlan {
    /// Compiles `circuit` with `params` bound, reusing the globally cached
    /// [`PlanTemplate`] for the circuit's structure (building it on first
    /// sight). Fails if the circuit references parameters `params` does
    /// not supply.
    pub fn compile(circuit: &Circuit, params: &[f64]) -> Result<ExecPlan> {
        let template = crate::plan_cache::template_for(circuit)?;
        template.bind(params)
    }

    /// Compiles `circuit` without consulting the template cache: a fresh
    /// structural pass plus an immediate bind. The output is bitwise
    /// identical to [`ExecPlan::compile`]; this entry exists for parity
    /// tests and one-shot circuits that should not occupy a cache slot.
    pub fn compile_uncached(circuit: &Circuit, params: &[f64]) -> Result<ExecPlan> {
        PlanTemplate::build(circuit)?.bind(params)
    }

    /// An empty plan, used as the scratch target for
    /// [`PlanTemplate::bind_into`].
    pub fn empty() -> ExecPlan {
        ExecPlan {
            n_qubits: 0,
            ops: Vec::new(),
            factors: Vec::new(),
            shapes: Vec::new(),
            stats: PlanStats::default(),
        }
    }

    /// The bind-time [`Mat4Shape`](crate::kernels::Mat4Shape) of op `k`
    /// (meaningful for [`PlanOp::Two`]; `Dense` otherwise).
    #[inline]
    pub fn shape_at(&self, k: usize) -> crate::kernels::Mat4Shape {
        self.shapes[k]
    }

    /// Reclassifies every op's matrix shape. Called once per bind/dagger
    /// — a few comparisons per op, negligible next to matrix replay.
    fn recompute_shapes(&mut self) {
        self.shapes.clear();
        self.shapes.extend(self.ops.iter().map(|op| match op {
            PlanOp::Two(_, _, m) => crate::kernels::mat4_shape(m),
            _ => crate::kernels::Mat4Shape::Dense,
        }));
    }

    /// Register width the plan was compiled for.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// The compiled op list, in execution order.
    #[inline]
    pub fn ops(&self) -> &[PlanOp] {
        &self.ops
    }

    /// Flat diagonal-factor table indexed by [`PlanOp::DiagSweep`].
    #[inline]
    pub fn factors(&self) -> &[DiagFactor] {
        &self.factors
    }

    /// Number of amplitude sweeps one execution performs.
    #[inline]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` when the plan performs no sweeps.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Bind statistics.
    #[inline]
    pub fn stats(&self) -> PlanStats {
        self.stats
    }

    /// The inverse plan: ops reversed, dense matrices daggered, diagonal
    /// factors conjugated (and reversed within each sweep, though diagonal
    /// multiplications commute). Applying `self` then `self.dagger()` to
    /// any state returns it to the original up to floating-point rounding
    /// — the basis of time-reversed replay debugging and the adjoint
    /// gradient walk.
    pub fn dagger(&self) -> ExecPlan {
        let mut ops = Vec::with_capacity(self.ops.len());
        let mut factors = Vec::with_capacity(self.factors.len());
        for op in self.ops.iter().rev() {
            match *op {
                PlanOp::One(q, m) => ops.push(PlanOp::One(q, m.dagger())),
                PlanOp::Two(hi, lo, m) => ops.push(PlanOp::Two(hi, lo, m.dagger())),
                PlanOp::DiagSweep {
                    start,
                    len,
                    two_qubit,
                } => {
                    let new_start = factors.len();
                    for f in self.factors[start..start + len].iter().rev() {
                        factors.push(f.conj());
                    }
                    ops.push(PlanOp::DiagSweep {
                        start: new_start,
                        len,
                        two_qubit,
                    });
                }
            }
        }
        let mut plan = ExecPlan {
            n_qubits: self.n_qubits,
            ops,
            factors,
            shapes: Vec::new(),
            stats: self.stats,
        };
        plan.recompute_shapes();
        plan
    }
}

/// One fused block bound at a concrete θ, kept in block (not sweep)
/// granularity for the adjoint walk: the backward pass needs to un-apply
/// and differentiate *blocks*, so diagonal coalescing does not apply here.
/// Two-qubit blocks are pre-normalized to the kernel's `hi > lo`
/// convention. Derivative matrices reuse the same container even though
/// they are not unitary.
#[derive(Clone, Copy, Debug)]
pub enum BoundBlock {
    /// Single-qubit block on a qubit.
    One(usize, Mat2),
    /// Two-qubit block; first index is the high qubit.
    Two(usize, usize, Mat4),
}

fn add2(a: &Mat2, b: &Mat2) -> Mat2 {
    let mut out = *a;
    for r in 0..2 {
        for c in 0..2 {
            out.0[r][c] += b.0[r][c];
        }
    }
    out
}

fn add4(a: &Mat4, b: &Mat4) -> Mat4 {
    let mut out = *a;
    for r in 0..4 {
        for c in 0..4 {
            out.0[r][c] += b.0[r][c];
        }
    }
    out
}

fn dmat2_of(gate: &Gate, params: &[f64], j: usize) -> Result<Option<Mat2>> {
    match gate.derivative(params, j)? {
        None => Ok(None),
        Some(GateMatrix::One(_, m)) => Ok(Some(m)),
        Some(GateMatrix::Two(..)) => Err(Error::Invalid(
            "two-qubit derivative in a single-qubit fusion tape".into(),
        )),
    }
}

fn dmat4_of(gate: &Gate, params: &[f64], j: usize) -> Result<Option<Mat4>> {
    match gate.derivative(params, j)? {
        None => Ok(None),
        Some(GateMatrix::Two(_, _, m)) => Ok(Some(m)),
        Some(GateMatrix::One(..)) => Err(Error::Invalid(
            "single-qubit derivative in a two-qubit fusion tape".into(),
        )),
    }
}

/// Product-rule replay of a single-qubit tape: returns the block matrix
/// and its ∂/∂θ_j (None when the tape does not depend on θ_j).
fn replay1_deriv(steps: &[Step1], params: &[f64], j: usize) -> Result<(Mat2, Option<Mat2>)> {
    let eval = |src: &Src2| match src {
        Src2::Const(m) => Ok(*m),
        Src2::Gate(g) => mat2_of(g, params),
    };
    let deval = |src: &Src2| match src {
        Src2::Const(_) => Ok(None),
        Src2::Gate(g) => dmat2_of(g, params, j),
    };
    let mut acc: Option<(Mat2, Option<Mat2>)> = None;
    for step in steps {
        acc = Some(match (step, acc) {
            (Step1::Set(src), None) => (eval(src)?, deval(src)?),
            (Step1::MulLeft(src), Some((a, da))) => {
                let m = eval(src)?;
                let d = match (deval(src)?, da) {
                    (None, None) => None,
                    (Some(dm), None) => Some(dm * a),
                    (None, Some(da)) => Some(m * da),
                    (Some(dm), Some(da)) => Some(add2(&(dm * a), &(m * da))),
                };
                (m * a, d)
            }
            _ => return Err(Error::Invalid("malformed single-qubit fusion tape".into())),
        });
    }
    acc.ok_or_else(|| Error::Invalid("empty single-qubit fusion tape".into()))
}

/// Product-rule replay of a two-qubit tape (resolving feeders through
/// their own product rule).
fn replay4_deriv(
    steps: &[Step4],
    params: &[f64],
    feeders: &[Vec<Step1>],
    j: usize,
) -> Result<(Mat4, Option<Mat4>)> {
    let eval_pair = |src: &Src4| -> Result<(Mat4, Option<Mat4>)> {
        Ok(match src {
            Src4::Const(m) => (*m, None),
            Src4::Gate(g) => (mat4_of(g, params)?, dmat4_of(g, params, j)?),
            Src4::GateSwapped(g) => (
                mat4_of(g, params)?.swap_qubits(),
                dmat4_of(g, params, j)?.map(|d| d.swap_qubits()),
            ),
            Src4::GateEmbed { gate, high } => (
                embed(&mat2_of(gate, params)?, *high),
                dmat2_of(gate, params, j)?.map(|d| embed(&d, *high)),
            ),
            Src4::Feeder { idx, high } => {
                let (m, dm) = replay1_deriv(&feeders[*idx], params, j)?;
                (embed(&m, *high), dm.map(|d| embed(&d, *high)))
            }
        })
    };
    let mut acc: Option<(Mat4, Option<Mat4>)> = None;
    for step in steps {
        acc = Some(match (step, acc) {
            (Step4::Set(src), None) => eval_pair(src)?,
            (Step4::MulLeft(src), Some((a, da))) => {
                let (m, dm) = eval_pair(src)?;
                let d = match (dm, da) {
                    (None, None) => None,
                    (Some(dm), None) => Some(dm * a),
                    (None, Some(da)) => Some(m * da),
                    (Some(dm), Some(da)) => Some(add4(&(dm * a), &(m * da))),
                };
                (m * a, d)
            }
            (Step4::MulRight(src), Some((a, da))) => {
                let (m, dm) = eval_pair(src)?;
                let d = match (dm, da) {
                    (None, None) => None,
                    (Some(dm), None) => Some(a * dm),
                    (None, Some(da)) => Some(da * m),
                    (Some(dm), Some(da)) => Some(add4(&(da * m), &(a * dm))),
                };
                (a * m, d)
            }
            _ => return Err(Error::Invalid("malformed two-qubit fusion tape".into())),
        });
    }
    acc.ok_or_else(|| Error::Invalid("empty two-qubit fusion tape".into()))
}

fn tape1_params(steps: &[Step1], out: &mut Vec<usize>) {
    for step in steps {
        let (Step1::Set(src) | Step1::MulLeft(src)) = step;
        if let Src2::Gate(g) = src {
            for e in g.param_exprs() {
                if let Some(i) = e.param_index() {
                    out.push(i);
                }
            }
        }
    }
}

/// Matrix source for one replay step of a single-qubit tape.
//
// `Gate` inlines a Mat4 for fused variants, dwarfing `Const(Mat2)`; these
// tapes are tiny (a handful of steps per block, built once per structure),
// so indirection would cost more than the padding it saves.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
enum Src2 {
    /// Pre-evaluated at template build (constant gate or folded prefix).
    Const(Mat2),
    /// Symbolic gate evaluated against θ at bind time.
    Gate(Gate),
}

/// Matrix source for one replay step of a two-qubit tape.
#[derive(Clone, Debug)]
enum Src4 {
    /// Pre-evaluated at template build.
    Const(Mat4),
    /// Symbolic two-qubit gate, used in block orientation.
    Gate(Gate),
    /// Symbolic two-qubit gate applied with swapped qubit order.
    GateSwapped(Gate),
    /// Symbolic single-qubit gate embedded into the block.
    GateEmbed { gate: Gate, high: bool },
    /// Absorbed symbolic single-qubit block: replay `feeders[idx]`, then
    /// embed the product.
    Feeder { idx: usize, high: bool },
}

/// Replay step of a single-qubit tape (`Set` only appears first).
#[derive(Clone, Debug)]
enum Step1 {
    Set(Src2),
    MulLeft(Src2),
}

/// Replay step of a two-qubit tape. `MulRight` is absorption: fusion
/// multiplies the absorbed block's embedded product on the right.
#[derive(Clone, Debug)]
enum Step4 {
    Set(Src4),
    MulLeft(Src4),
    MulRight(Src4),
}

/// One fused block of the template, constant-folded as far as θ allows.
#[derive(Clone, Debug)]
enum TemplateBlock {
    /// Fully constant single-qubit block; `factor` is its diagonal form
    /// when the matrix is exactly diagonal.
    ConstOne {
        q: usize,
        m: Mat2,
        factor: Option<DiagFactor>,
    },
    /// Fully constant two-qubit block, pre-normalized to `hi > lo`.
    ConstTwo {
        hi: usize,
        lo: usize,
        m: Mat4,
        factor: Option<DiagFactor>,
    },
    /// θ-dependent single-qubit block: replay the tape per bind.
    SymOne { q: usize, steps: Vec<Step1> },
    /// θ-dependent two-qubit block in fusion orientation `(a, b)`;
    /// normalized to `hi > lo` after replay.
    SymTwo {
        a: usize,
        b: usize,
        steps: Vec<Step4>,
    },
}

/// The θ-independent half of plan compilation: fused-block topology,
/// per-block replay tapes with constant prefixes folded, and
/// pre-normalized constant matrices. Build once per circuit *structure*
/// (see [`crate::plan_cache`]), then [`bind`](PlanTemplate::bind) per θ.
#[derive(Clone, Debug)]
pub struct PlanTemplate {
    n_qubits: usize,
    gates_in: usize,
    fused_blocks: usize,
    /// Tapes of absorbed symbolic single-qubit blocks, referenced by
    /// [`Src4::Feeder`].
    feeders: Vec<Vec<Step1>>,
    /// Live blocks in emission order.
    blocks: Vec<TemplateBlock>,
}

/// Result of compiling one single-qubit tape: either fully folded or
/// still θ-dependent.
enum OneTape {
    Const(Mat2),
    Sym(Vec<Step1>),
}

fn mat2_of(gate: &Gate, params: &[f64]) -> Result<Mat2> {
    match gate.matrix(params)? {
        GateMatrix::One(_, m) => Ok(m),
        GateMatrix::Two(..) => Err(Error::Invalid(
            "two-qubit gate in a single-qubit fusion tape".into(),
        )),
    }
}

fn mat4_of(gate: &Gate, params: &[f64]) -> Result<Mat4> {
    match gate.matrix(params)? {
        GateMatrix::Two(_, _, m) => Ok(m),
        GateMatrix::One(..) => Err(Error::Invalid(
            "single-qubit gate in a two-qubit fusion tape".into(),
        )),
    }
}

fn embed(m: &Mat2, high: bool) -> Mat4 {
    if high {
        embed_high(m)
    } else {
        embed_low(m)
    }
}

fn diag_factor2(q: usize, m: &Mat2) -> Option<DiagFactor> {
    mat2_is_diagonal(m).then(|| DiagFactor::One {
        q,
        d: [m.0[0][0], m.0[1][1]],
    })
}

fn diag_factor4(hi: usize, lo: usize, m: &Mat4) -> Option<DiagFactor> {
    mat4_is_diagonal(m).then(|| DiagFactor::Two {
        hi,
        lo,
        d: [m.0[0][0], m.0[1][1], m.0[2][2], m.0[3][3]],
    })
}

/// Replays a symbolic single-qubit tape against θ.
fn replay1(steps: &[Step1], params: &[f64]) -> Result<Mat2> {
    let eval = |src: &Src2| match src {
        Src2::Const(m) => Ok(*m),
        Src2::Gate(g) => mat2_of(g, params),
    };
    let mut acc: Option<Mat2> = None;
    for step in steps {
        acc = Some(match (step, acc) {
            (Step1::Set(src), None) => eval(src)?,
            (Step1::MulLeft(src), Some(a)) => eval(src)? * a,
            _ => return Err(Error::Invalid("malformed single-qubit fusion tape".into())),
        });
    }
    acc.ok_or_else(|| Error::Invalid("empty single-qubit fusion tape".into()))
}

/// Replays a symbolic two-qubit tape against θ, resolving feeders.
fn replay4(steps: &[Step4], params: &[f64], feeders: &[Vec<Step1>]) -> Result<Mat4> {
    let eval = |src: &Src4| -> Result<Mat4> {
        match src {
            Src4::Const(m) => Ok(*m),
            Src4::Gate(g) => mat4_of(g, params),
            Src4::GateSwapped(g) => Ok(mat4_of(g, params)?.swap_qubits()),
            Src4::GateEmbed { gate, high } => Ok(embed(&mat2_of(gate, params)?, *high)),
            Src4::Feeder { idx, high } => Ok(embed(&replay1(&feeders[*idx], params)?, *high)),
        }
    };
    let mut acc: Option<Mat4> = None;
    for step in steps {
        acc = Some(match (step, acc) {
            (Step4::Set(src), None) => eval(src)?,
            (Step4::MulLeft(src), Some(a)) => eval(src)? * a,
            (Step4::MulRight(src), Some(a)) => a * eval(src)?,
            _ => return Err(Error::Invalid("malformed two-qubit fusion tape".into())),
        });
    }
    acc.ok_or_else(|| Error::Invalid("empty two-qubit fusion tape".into()))
}

/// Folds the maximal constant prefix of a single-qubit tape. Folding is
/// memoization — it performs exactly the multiplications bind would — so
/// bound output stays bitwise identical.
fn fold1(raw: Vec<Step1>) -> Result<OneTape> {
    let mut acc: Option<Mat2> = None;
    let mut rest: Vec<Step1> = Vec::new();
    for step in raw {
        if rest.is_empty() {
            match (&step, acc) {
                (Step1::Set(Src2::Const(m)), None) => {
                    acc = Some(*m);
                    continue;
                }
                (Step1::MulLeft(Src2::Const(m)), Some(a)) => {
                    acc = Some(*m * a);
                    continue;
                }
                _ => {
                    if let Some(a) = acc {
                        rest.push(Step1::Set(Src2::Const(a)));
                        acc = None;
                    }
                }
            }
        }
        match (&step, rest.is_empty()) {
            (Step1::Set(_), false) | (Step1::MulLeft(_), true) => {
                return Err(Error::Invalid("malformed single-qubit fusion tape".into()));
            }
            _ => rest.push(step),
        }
    }
    match (acc, rest.is_empty()) {
        (Some(m), true) => Ok(OneTape::Const(m)),
        (None, false) => Ok(OneTape::Sym(rest)),
        _ => Err(Error::Invalid("empty single-qubit fusion tape".into())),
    }
}

/// Two-qubit analog of [`fold1`]; returns `Ok(Err(steps))` when symbolic.
#[allow(clippy::type_complexity)]
fn fold4(raw: Vec<Step4>) -> Result<std::result::Result<Mat4, Vec<Step4>>> {
    let mut acc: Option<Mat4> = None;
    let mut rest: Vec<Step4> = Vec::new();
    for step in raw {
        if rest.is_empty() {
            match (&step, acc) {
                (Step4::Set(Src4::Const(m)), None) => {
                    acc = Some(*m);
                    continue;
                }
                (Step4::MulLeft(Src4::Const(m)), Some(a)) => {
                    acc = Some(*m * a);
                    continue;
                }
                (Step4::MulRight(Src4::Const(m)), Some(a)) => {
                    acc = Some(a * *m);
                    continue;
                }
                _ => {
                    if let Some(a) = acc {
                        rest.push(Step4::Set(Src4::Const(a)));
                        acc = None;
                    }
                }
            }
        }
        match (&step, rest.is_empty()) {
            (Step4::Set(_), false) | (Step4::MulLeft(_) | Step4::MulRight(_), true) => {
                return Err(Error::Invalid("malformed two-qubit fusion tape".into()));
            }
            _ => rest.push(step),
        }
    }
    match (acc, rest.is_empty()) {
        (Some(m), true) => Ok(Ok(m)),
        (None, false) => Ok(Err(rest)),
        _ => Err(Error::Invalid("empty two-qubit fusion tape".into())),
    }
}

impl PlanTemplate {
    /// Runs the structural fusion pass and constant folding once for
    /// `circuit`'s shape. Emits the `plan.template` span and bumps
    /// `plan.compiled` (one per distinct structure, not per θ).
    pub fn build(circuit: &Circuit) -> Result<PlanTemplate> {
        let _span = nwq_telemetry::span!("plan.template");
        let structure = fusion::fuse_structure(circuit);
        let gates = circuit.gates();

        let src2 = |gi: usize| -> Result<Src2> {
            let g = &gates[gi];
            Ok(if g.is_symbolic() {
                Src2::Gate(g.clone())
            } else {
                Src2::Const(mat2_of(g, &[])?)
            })
        };

        let mut feeders: Vec<Vec<Step1>> = Vec::new();
        // Per structural block: the folded single-qubit tape, kept for
        // later `AbsorbBlock` references (only 1q blocks are absorbed).
        let mut ones: Vec<Option<OneTape>> = (0..structure.blocks().len()).map(|_| None).collect();
        let mut blocks: Vec<TemplateBlock> = Vec::new();

        for (bi, block) in structure.blocks().iter().enumerate() {
            match block.arity {
                BlockArity::One(q) => {
                    let mut raw = Vec::with_capacity(block.steps.len());
                    for step in &block.steps {
                        raw.push(match *step {
                            MergeStep::Init { gate } => Step1::Set(src2(gate)?),
                            MergeStep::MulLeft { gate } => Step1::MulLeft(src2(gate)?),
                            _ => {
                                return Err(Error::Invalid(
                                    "two-qubit merge step in a single-qubit block".into(),
                                ))
                            }
                        });
                    }
                    let folded = fold1(raw)?;
                    if block.absorbed {
                        ones[bi] = Some(folded);
                    } else {
                        blocks.push(match folded {
                            OneTape::Const(m) => TemplateBlock::ConstOne {
                                q,
                                factor: diag_factor2(q, &m),
                                m,
                            },
                            OneTape::Sym(steps) => TemplateBlock::SymOne { q, steps },
                        });
                    }
                }
                BlockArity::Two(a, b) => {
                    let mut raw = Vec::with_capacity(block.steps.len());
                    for step in &block.steps {
                        raw.push(match *step {
                            MergeStep::Init { gate } => {
                                let g = &gates[gate];
                                Step4::Set(if g.is_symbolic() {
                                    Src4::Gate(g.clone())
                                } else {
                                    Src4::Const(mat4_of(g, &[])?)
                                })
                            }
                            MergeStep::MulLeft { gate } => {
                                let g = &gates[gate];
                                Step4::MulLeft(if g.is_symbolic() {
                                    Src4::Gate(g.clone())
                                } else {
                                    Src4::Const(mat4_of(g, &[])?)
                                })
                            }
                            MergeStep::MulLeftSwapped { gate } => {
                                let g = &gates[gate];
                                Step4::MulLeft(if g.is_symbolic() {
                                    Src4::GateSwapped(g.clone())
                                } else {
                                    Src4::Const(mat4_of(g, &[])?.swap_qubits())
                                })
                            }
                            MergeStep::MulLeftEmbed { gate, high } => {
                                let g = &gates[gate];
                                Step4::MulLeft(if g.is_symbolic() {
                                    Src4::GateEmbed {
                                        gate: g.clone(),
                                        high,
                                    }
                                } else {
                                    Src4::Const(embed(&mat2_of(g, &[])?, high))
                                })
                            }
                            MergeStep::AbsorbBlock { block, high } => Step4::MulRight(
                                match ones[block].as_ref().ok_or_else(|| {
                                    Error::Invalid("absorbed block compiled out of order".into())
                                })? {
                                    OneTape::Const(m) => Src4::Const(embed(m, high)),
                                    OneTape::Sym(tape) => {
                                        feeders.push(tape.clone());
                                        Src4::Feeder {
                                            idx: feeders.len() - 1,
                                            high,
                                        }
                                    }
                                },
                            ),
                        });
                    }
                    blocks.push(match fold4(raw)? {
                        Ok(m) => {
                            // Pre-normalize to the kernel's hi > lo
                            // convention once, here.
                            let (hi, lo, m) = if a > b {
                                (a, b, m)
                            } else {
                                (b, a, m.swap_qubits())
                            };
                            TemplateBlock::ConstTwo {
                                hi,
                                lo,
                                factor: diag_factor4(hi, lo, &m),
                                m,
                            }
                        }
                        Err(steps) => TemplateBlock::SymTwo { a, b, steps },
                    });
                }
            }
        }

        nwq_telemetry::counter_add("plan.compiled", 1);
        Ok(PlanTemplate {
            n_qubits: structure.n_qubits(),
            gates_in: structure.gates_in(),
            fused_blocks: structure.live_blocks(),
            feeders,
            blocks,
        })
    }

    /// Register width of the source circuit.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Gate count of the source circuit.
    #[inline]
    pub fn gates_in(&self) -> usize {
        self.gates_in
    }

    /// Fused blocks the template emits per bind.
    #[inline]
    pub fn fused_blocks(&self) -> usize {
        self.fused_blocks
    }

    /// Binds θ into a fresh plan. See [`PlanTemplate::bind_into`].
    pub fn bind(&self, params: &[f64]) -> Result<ExecPlan> {
        let mut plan = ExecPlan::empty();
        self.bind_into(params, &mut plan)?;
        Ok(plan)
    }

    /// Binds θ into `plan`, reusing its allocations: evaluates only the
    /// symbolic tapes, re-checks diagonality of θ-dependent blocks (a
    /// CX·RZ(θ)·CX apex block is numerically diagonal at every θ; a
    /// RX(θ) block only at θ = 0), and rebuilds the op/factor lists with
    /// no re-fusion. Output is bitwise identical to a cold compile.
    pub fn bind_into(&self, params: &[f64], plan: &mut ExecPlan) -> Result<()> {
        let start = std::time::Instant::now();
        let _span = nwq_telemetry::span!("plan.bind");
        plan.n_qubits = self.n_qubits;
        plan.ops.clear();
        plan.factors.clear();

        let mut diag_coalesced = 0usize;
        let mut diag_sweeps = 0usize;
        // Open run of adjacent diagonal factors: plan.factors[run_start..].
        let mut run_start = 0usize;
        let mut run_two_qubit = false;

        fn flush(
            plan: &mut ExecPlan,
            run_start: &mut usize,
            run_two_qubit: &mut bool,
            diag_coalesced: &mut usize,
            diag_sweeps: &mut usize,
        ) {
            let len = plan.factors.len() - *run_start;
            if len > 0 {
                if len >= 2 {
                    *diag_coalesced += len;
                }
                *diag_sweeps += 1;
                plan.ops.push(PlanOp::DiagSweep {
                    start: *run_start,
                    len,
                    two_qubit: *run_two_qubit,
                });
            }
            *run_start = plan.factors.len();
            *run_two_qubit = false;
        }

        for block in &self.blocks {
            match block {
                TemplateBlock::ConstOne { q, m, factor } => match factor {
                    Some(f) => plan.factors.push(*f),
                    None => {
                        flush(
                            plan,
                            &mut run_start,
                            &mut run_two_qubit,
                            &mut diag_coalesced,
                            &mut diag_sweeps,
                        );
                        plan.ops.push(PlanOp::One(*q, *m));
                    }
                },
                TemplateBlock::ConstTwo { hi, lo, m, factor } => match factor {
                    Some(f) => {
                        plan.factors.push(*f);
                        run_two_qubit = true;
                    }
                    None => {
                        flush(
                            plan,
                            &mut run_start,
                            &mut run_two_qubit,
                            &mut diag_coalesced,
                            &mut diag_sweeps,
                        );
                        plan.ops.push(PlanOp::Two(*hi, *lo, *m));
                    }
                },
                TemplateBlock::SymOne { q, steps } => {
                    let m = replay1(steps, params)?;
                    match diag_factor2(*q, &m) {
                        Some(f) => plan.factors.push(f),
                        None => {
                            flush(
                                plan,
                                &mut run_start,
                                &mut run_two_qubit,
                                &mut diag_coalesced,
                                &mut diag_sweeps,
                            );
                            plan.ops.push(PlanOp::One(*q, m));
                        }
                    }
                }
                TemplateBlock::SymTwo { a, b, steps } => {
                    let m = replay4(steps, params, &self.feeders)?;
                    let (hi, lo, m) = if a > b {
                        (*a, *b, m)
                    } else {
                        (*b, *a, m.swap_qubits())
                    };
                    match diag_factor4(hi, lo, &m) {
                        Some(f) => {
                            plan.factors.push(f);
                            run_two_qubit = true;
                        }
                        None => {
                            flush(
                                plan,
                                &mut run_start,
                                &mut run_two_qubit,
                                &mut diag_coalesced,
                                &mut diag_sweeps,
                            );
                            plan.ops.push(PlanOp::Two(hi, lo, m));
                        }
                    }
                }
            }
        }
        flush(
            plan,
            &mut run_start,
            &mut run_two_qubit,
            &mut diag_coalesced,
            &mut diag_sweeps,
        );

        plan.recompute_shapes();
        plan.stats = PlanStats {
            gates_in: self.gates_in,
            fused_blocks: self.fused_blocks,
            ops: plan.ops.len(),
            diag_coalesced,
            bind_seconds: start.elapsed().as_secs_f64(),
        };
        nwq_telemetry::counter_add("plan.binds", 1);
        nwq_telemetry::counter_add("plan.gates_in", plan.stats.gates_in as u64);
        nwq_telemetry::counter_add("plan.ops", plan.stats.ops as u64);
        nwq_telemetry::counter_add("plan.sweeps_saved", plan.stats.sweeps_saved() as u64);
        nwq_telemetry::counter_add("plan.diag_coalesced", diag_coalesced as u64);
        nwq_telemetry::counter_add("plan.diag_sweeps", diag_sweeps as u64);
        nwq_telemetry::value_add("plan.bind_ms", plan.stats.bind_seconds * 1e3);
        nwq_telemetry::histogram_record("plan.bind_us", plan.stats.bind_seconds * 1e6);
        Ok(())
    }

    /// Number of live fused blocks (the length of the adjoint walk).
    pub(crate) fn n_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// The sorted, deduplicated variational-parameter indices block `bi`
    /// depends on. θ-independent for a fixed structure, so the adjoint
    /// template computes this once per shape.
    pub(crate) fn block_param_indices(&self, bi: usize) -> Vec<usize> {
        let mut out = Vec::new();
        match &self.blocks[bi] {
            TemplateBlock::ConstOne { .. } | TemplateBlock::ConstTwo { .. } => {}
            TemplateBlock::SymOne { steps, .. } => tape1_params(steps, &mut out),
            TemplateBlock::SymTwo { steps, .. } => {
                for step in steps {
                    let (Step4::Set(src) | Step4::MulLeft(src) | Step4::MulRight(src)) = step;
                    match src {
                        Src4::Const(_) => {}
                        Src4::Gate(g) | Src4::GateSwapped(g) | Src4::GateEmbed { gate: g, .. } => {
                            for e in g.param_exprs() {
                                if let Some(i) = e.param_index() {
                                    out.push(i);
                                }
                            }
                        }
                        Src4::Feeder { idx, .. } => tape1_params(&self.feeders[*idx], &mut out),
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Binds block `bi` against θ at block granularity (the same replay
    /// arithmetic [`PlanTemplate::bind_into`] performs, minus diagonal
    /// coalescing).
    pub(crate) fn bind_block(&self, bi: usize, params: &[f64]) -> Result<BoundBlock> {
        Ok(match &self.blocks[bi] {
            TemplateBlock::ConstOne { q, m, .. } => BoundBlock::One(*q, *m),
            TemplateBlock::ConstTwo { hi, lo, m, .. } => BoundBlock::Two(*hi, *lo, *m),
            TemplateBlock::SymOne { q, steps } => BoundBlock::One(*q, replay1(steps, params)?),
            TemplateBlock::SymTwo { a, b, steps } => {
                let m = replay4(steps, params, &self.feeders)?;
                if a > b {
                    BoundBlock::Two(*a, *b, m)
                } else {
                    BoundBlock::Two(*b, *a, m.swap_qubits())
                }
            }
        })
    }

    /// Block `bi` at θ together with its ∂/∂θ_j (`None` when the block
    /// does not depend on θ_j), from one product-rule tape replay. The
    /// replay multiplies the values exactly as [`PlanTemplate::bind_block`]
    /// does, so the block is bitwise that bind's. Two-qubit blocks get
    /// the same `hi > lo` normalization.
    pub(crate) fn bind_block_and_derivative(
        &self,
        bi: usize,
        params: &[f64],
        j: usize,
    ) -> Result<(BoundBlock, Option<BoundBlock>)> {
        Ok(match &self.blocks[bi] {
            TemplateBlock::ConstOne { .. } | TemplateBlock::ConstTwo { .. } => {
                (self.bind_block(bi, params)?, None)
            }
            TemplateBlock::SymOne { q, steps } => {
                let (m, d) = replay1_deriv(steps, params, j)?;
                (BoundBlock::One(*q, m), d.map(|d| BoundBlock::One(*q, d)))
            }
            TemplateBlock::SymTwo { a, b, steps } => {
                let (m, d) = replay4_deriv(steps, params, &self.feeders, j)?;
                if a > b {
                    (
                        BoundBlock::Two(*a, *b, m),
                        d.map(|d| BoundBlock::Two(*a, *b, d)),
                    )
                } else {
                    (
                        BoundBlock::Two(*b, *a, m.swap_qubits()),
                        d.map(|d| BoundBlock::Two(*b, *a, d.swap_qubits())),
                    )
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{simulate, simulate_plan};
    use nwq_circuit::ParamExpr;

    /// Bit-exact encoding of a plan's ops and factors.
    fn plan_bits(plan: &ExecPlan) -> Vec<u64> {
        let mut bits = vec![plan.n_qubits() as u64];
        let push_c = |bits: &mut Vec<u64>, c: nwq_common::C64| {
            bits.push(c.re.to_bits());
            bits.push(c.im.to_bits());
        };
        for op in plan.ops() {
            match op {
                PlanOp::One(q, m) => {
                    bits.extend([1u64, *q as u64]);
                    for r in 0..2 {
                        for c in 0..2 {
                            push_c(&mut bits, m.0[r][c]);
                        }
                    }
                }
                PlanOp::Two(hi, lo, m) => {
                    bits.extend([2u64, *hi as u64, *lo as u64]);
                    for r in 0..4 {
                        for c in 0..4 {
                            push_c(&mut bits, m.0[r][c]);
                        }
                    }
                }
                PlanOp::DiagSweep {
                    start,
                    len,
                    two_qubit,
                } => {
                    bits.extend([3u64, *start as u64, *len as u64, *two_qubit as u64]);
                }
            }
        }
        for f in plan.factors() {
            match f {
                DiagFactor::One { q, d } => {
                    bits.extend([4u64, *q as u64]);
                    for c in d {
                        push_c(&mut bits, *c);
                    }
                }
                DiagFactor::Two { hi, lo, d } => {
                    bits.extend([5u64, *hi as u64, *lo as u64]);
                    for c in d {
                        push_c(&mut bits, *c);
                    }
                }
            }
        }
        bits
    }

    #[test]
    fn plan_matches_gate_by_gate_execution() {
        let mut c = Circuit::new(4);
        c.h(0)
            .ry(1, ParamExpr::var(0))
            .cx(0, 1)
            .rz(1, ParamExpr::var(1))
            .cx(0, 1)
            .rzz(2, 3, 0.7)
            .h(2)
            .cp(3, 0, -0.4);
        let theta = [0.83, -1.91];
        let fast = simulate_plan(&c, &theta).unwrap();
        let slow = simulate(&c.bind(&theta).unwrap(), &[]).unwrap();
        for (a, b) in fast.amplitudes().iter().zip(slow.amplitudes()) {
            assert!(a.approx_eq(*b, 1e-12));
        }
    }

    #[test]
    fn parameterized_gates_fuse_at_bind_time() {
        // The seed baseline's gap: symbolic circuits never fused. A UCCSD-
        // style CX ladder with an RZ core must compile to fewer sweeps.
        let mut c = Circuit::new(4);
        c.h(0).h(1).h(2).h(3);
        c.cx(0, 1).cx(1, 2).cx(2, 3);
        c.rz(3, ParamExpr::var(0));
        c.cx(2, 3).cx(1, 2).cx(0, 1);
        c.h(0).h(1).h(2).h(3);
        let plan = ExecPlan::compile(&c, &[0.21]).unwrap();
        assert!(plan.len() < c.len(), "{} !< {}", plan.len(), c.len());
        assert_eq!(plan.stats().gates_in, c.len());
        assert!(plan.stats().sweeps_saved() > 0);
    }

    #[test]
    fn adjacent_diagonals_coalesce_into_one_sweep() {
        // RZ(0), RZ(1), CZ(2,3), RZZ(2,3): four diagonal gates on disjoint /
        // shared qubits -> fusion leaves 3 blocks, coalescing leaves 1 sweep.
        let mut c = Circuit::new(4);
        c.rz(0, ParamExpr::var(0))
            .rz(1, 0.4)
            .cz(2, 3)
            .rzz(2, 3, 0.9);
        let plan = ExecPlan::compile(&c, &[1.1]).unwrap();
        assert_eq!(plan.len(), 1, "ops: {:?}", plan.ops());
        assert!(matches!(
            plan.ops()[0],
            PlanOp::DiagSweep {
                start: 0,
                len: 3,
                two_qubit: true
            }
        ));
        assert_eq!(plan.factors().len(), 3);
        assert_eq!(plan.stats().diag_coalesced, 3);
        // And it still computes the right state.
        let theta = [1.1];
        let fast = simulate_plan(&c, &theta).unwrap();
        let slow = simulate(&c.bind(&theta).unwrap(), &[]).unwrap();
        for (a, b) in fast.amplitudes().iter().zip(slow.amplitudes()) {
            assert!(a.approx_eq(*b, 1e-12));
        }
    }

    #[test]
    fn single_diagonal_becomes_a_one_factor_sweep() {
        // A lone diagonal block is emitted as a run-of-one DiagSweep (the
        // kernel's diagonal fast path, reached without a matrix dispatch);
        // it does not count as coalescing.
        let mut c = Circuit::new(2);
        c.h(0).rz(1, 0.3);
        let plan = ExecPlan::compile(&c, &[]).unwrap();
        assert_eq!(plan.len(), 2);
        assert!(matches!(
            plan.ops()[1],
            PlanOp::DiagSweep {
                len: 1,
                two_qubit: false,
                ..
            }
        ));
        assert_eq!(plan.stats().diag_coalesced, 0);
        let fast = simulate_plan(&c, &[]).unwrap();
        let slow = simulate(&c, &[]).unwrap();
        for (a, b) in fast.amplitudes().iter().zip(slow.amplitudes()) {
            assert!(a.approx_eq(*b, 1e-12));
        }
    }

    #[test]
    fn non_diagonal_blocks_never_sweep() {
        // H·RZ is not diagonal: the trailing H merges into the RZ block.
        let mut c = Circuit::new(2);
        c.h(0).rz(1, 0.3).h(1);
        let plan = ExecPlan::compile(&c, &[]).unwrap();
        assert!(plan
            .ops()
            .iter()
            .all(|op| !matches!(op, PlanOp::DiagSweep { .. })));
        assert_eq!(plan.stats().diag_coalesced, 0);
    }

    #[test]
    fn one_into_two_qubit_merge() {
        let mut c = Circuit::new(2);
        c.h(0).h(1).cx(0, 1);
        let plan = ExecPlan::compile(&c, &[]).unwrap();
        assert_eq!(plan.len(), 1);
        // Pre-normalized: high qubit first.
        assert!(matches!(plan.ops()[0], PlanOp::Two(1, 0, _)));
        assert!(plan.ops()[0].is_two_qubit());
        let fast = simulate_plan(&c, &[]).unwrap();
        let slow = simulate(&c, &[]).unwrap();
        for (a, b) in fast.amplitudes().iter().zip(slow.amplitudes()) {
            assert!(a.approx_eq(*b, 1e-12));
        }
    }

    #[test]
    fn missing_params_rejected() {
        let mut c = Circuit::new(1);
        c.rx(0, ParamExpr::var(2));
        assert!(ExecPlan::compile(&c, &[0.1]).is_err());
        assert!(ExecPlan::compile_uncached(&c, &[0.1]).is_err());
    }

    #[test]
    fn empty_circuit_compiles_to_empty_plan() {
        let plan = ExecPlan::compile(&Circuit::new(3), &[]).unwrap();
        assert!(plan.is_empty());
        assert_eq!(plan.stats().reduction(), 0.0);
        assert_eq!(plan.n_qubits(), 3);
    }

    #[test]
    fn template_bind_is_bitwise_identical_to_cold_compile() {
        let mut c = Circuit::new(3);
        c.h(0)
            .ry(1, ParamExpr::var(0))
            .cx(0, 1)
            .rz(1, ParamExpr::var(1))
            .cx(0, 1)
            .cz(1, 2)
            .rx(2, ParamExpr::var(2))
            .t(0);
        let theta = [0.83, -1.91, 0.4];
        let cold = ExecPlan::compile_uncached(&c, &theta).unwrap();
        let template = PlanTemplate::build(&c).unwrap();
        let bound = template.bind(&theta).unwrap();
        assert_eq!(plan_bits(&cold), plan_bits(&bound));
        // Rebinding into a scratch plan dirtied at a different θ must give
        // the same bits again.
        let mut scratch = ExecPlan::empty();
        template.bind_into(&[2.0, -0.1, 0.9], &mut scratch).unwrap();
        template.bind_into(&theta, &mut scratch).unwrap();
        assert_eq!(plan_bits(&cold), plan_bits(&scratch));
    }

    #[test]
    fn bind_rechecks_diagonality_per_theta() {
        // RX(θ) is diagonal only at θ = 0: the same template must emit a
        // DiagSweep there and a plain op elsewhere.
        let mut c = Circuit::new(1);
        c.rx(0, ParamExpr::var(0));
        let template = PlanTemplate::build(&c).unwrap();
        let at_zero = template.bind(&[0.0]).unwrap();
        assert!(matches!(at_zero.ops()[0], PlanOp::DiagSweep { len: 1, .. }));
        let generic = template.bind(&[1.3]).unwrap();
        assert!(matches!(generic.ops()[0], PlanOp::One(0, _)));
        for theta in [0.0, 1.3] {
            let fast = simulate_plan(&c, &[theta]).unwrap();
            let slow = simulate(&c.bind(&[theta]).unwrap(), &[]).unwrap();
            for (a, b) in fast.amplitudes().iter().zip(slow.amplitudes()) {
                assert!(a.approx_eq(*b, 1e-12));
            }
        }
    }

    #[test]
    fn all_const_circuit_folds_to_constant_template() {
        // Every block of a concrete circuit folds at build time; binding
        // twice with different (unused) parameter vectors is identical.
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).rz(1, 0.4).cx(1, 2).h(2).t(0);
        let template = PlanTemplate::build(&c).unwrap();
        let a = template.bind(&[]).unwrap();
        let b = template.bind(&[9.9]).unwrap();
        assert_eq!(plan_bits(&a), plan_bits(&b));
        assert_eq!(
            plan_bits(&a),
            plan_bits(&ExecPlan::compile_uncached(&c, &[]).unwrap())
        );
    }
}
