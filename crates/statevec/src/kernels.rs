//! In-place gate application kernels.
//!
//! These are the CPU analog of NWQ-Sim's GPU kernels: each gate touches
//! every amplitude exactly once. A single-qubit gate on qubit `q` splits
//! the array into blocks of `2^{q+1}`, each holding `2^q` independent
//! (low, high) pairs; a two-qubit gate uses blocks of `2^{hi+1}` with an
//! inner split for the `lo` bit. Diagonal matrices (RZ, CZ, CP, RZZ,
//! fused diagonals) multiply amplitudes without pairing.
//!
//! **When a sweep is split** (DESIGN.md §15). One rule, [`dispatches`]:
//! work goes to the thread pool iff the pool has more than one thread and
//! the register holds at least [`PAR_MIN_AMPS`] amplitudes — a floor on
//! *work*, since a pool round trip costs a serial sweep over 2¹⁶ of them.
//! One shape, `partition`: as many contiguous parts as the pool has
//! threads, cut on outer-block boundaries, each running the *same serial
//! SIMD body* the whole register would; a target qubit too high to leave
//! that many blocks gets its blocks' low and high halves cut into matching
//! windows instead. Gate kernels reduce nothing, so every amplitude keeps
//! its arithmetic expression however the register is cut: split and
//! serial sweeps are bitwise identical.

use crate::simd;
use nwq_common::{Error, Mat2, Mat4, Result, C64, PAR_MIN_AMPS};
use rayon::prelude::*;

/// `true` when the Rayon pool can actually run work concurrently. On a
/// single-thread pool a dispatch still computes the right result but is
/// pure overhead, so nothing below dispatches there.
#[inline]
pub fn parallel_dispatch_enabled() -> bool {
    rayon::current_num_threads() > 1
}

/// The one dispatch rule: work over `len` amplitudes goes to the thread
/// pool iff the pool can run it concurrently and `len` reaches
/// [`PAR_MIN_AMPS`]. Gate sweeps, `prob_one`/`collapse` and the readout
/// reductions in [`crate::expval`] all ask this.
#[inline]
pub fn dispatches(len: usize) -> bool {
    len >= PAR_MIN_AMPS && parallel_dispatch_enabled()
}

/// Part count for a sweep over `len` amplitudes issued by one of
/// `callers` threads that run sweeps at the same time (the rank threads
/// of a sharded run): the pool's threads shared out, `max(1, threads /
/// callers)`, under the same floor as [`dispatches`]. Every part count
/// gives the serial bits, so the share moves no amplitude.
pub fn parts_per_caller(len: usize, callers: usize) -> usize {
    if dispatches(len) {
        (rayon::current_num_threads() / callers.max(1)).max(1)
    } else {
        1
    }
}

/// Number of parts a gate sweep over `len` amplitudes runs in (1 =
/// serial), counted so `--metrics` shows which regime a run was in.
fn sweep_parts(len: usize) -> usize {
    if dispatches(len) {
        nwq_telemetry::counter_add("kernels.par_sweeps", 1);
        rayon::current_num_threads()
    } else {
        nwq_telemetry::counter_add("kernels.serial_sweeps", 1);
        1
    }
}

/// One part of a partitioned sweep; `.0` is the absolute index of the
/// part's first amplitude (diagonal sweeps read factor bits off it).
enum Part<'a> {
    /// A run of whole outer blocks.
    Blocks(usize, &'a mut [C64]),
    /// Matching windows of one block's low and high halves (the index is
    /// the low window's).
    Halves(usize, &'a mut [C64], &'a mut [C64]),
}

/// Cuts a register of `2·half`-amplitude blocks into contiguous parts:
/// `parts` runs of whole blocks (sizes differing by at most one block)
/// when there are that many blocks, otherwise power-of-two windows of
/// each block's halves, cut in lockstep and no shorter than `align` (the
/// inner `2^{lo+1}` block of a two-qubit gate), so that all blocks
/// together yield at least `parts` window pairs where `align` allows.
fn partition(amps: &mut [C64], half: usize, align: usize, parts: usize) -> Vec<Part<'_>> {
    let block = half << 1;
    let nblocks = amps.len() / block;
    let mut out = Vec::with_capacity(parts.max(nblocks));
    if nblocks >= parts {
        let (mut rest, mut base) = (amps, 0);
        for p in 0..parts {
            let len = (nblocks / parts + usize::from(p < nblocks % parts)) * block;
            let (head, tail) = rest.split_at_mut(len);
            out.push(Part::Blocks(base, head));
            (rest, base) = (tail, base + len);
        }
    } else {
        let win = (half / parts.div_ceil(nblocks).next_power_of_two()).max(align);
        for (b, c) in amps.chunks_mut(block).enumerate() {
            let (lo, hi) = c.split_at_mut(half);
            for (w, (l, h)) in lo.chunks_mut(win).zip(hi.chunks_mut(win)).enumerate() {
                out.push(Part::Halves(b * block + w * win, l, h));
            }
        }
    }
    out
}

/// Runs one sweep in `parts` parts: `whole` on each run of blocks (on the
/// whole register when `parts` is 1, without touching the pool), `halves`
/// on each window pair.
fn sweep(
    amps: &mut [C64],
    half: usize,
    align: usize,
    parts: usize,
    whole: impl Fn(usize, &mut [C64]) + Sync,
    halves: impl Fn(usize, &mut [C64], &mut [C64]) + Sync,
) {
    if parts <= 1 {
        return whole(0, amps);
    }
    partition(amps, half, align, parts)
        .par_iter_mut()
        .for_each(|part| match part {
            Part::Blocks(base, a) => whole(*base, a),
            Part::Halves(base, lo, hi) => halves(*base, lo, hi),
        });
}

/// `true` when both off-diagonal entries are exactly zero (`±0` counts).
pub fn mat2_is_diagonal(m: &Mat2) -> bool {
    m.0[0][1].norm_sqr() == 0.0 && m.0[1][0].norm_sqr() == 0.0
}

/// `true` when every off-diagonal entry is exactly zero (`±0` counts).
pub fn mat4_is_diagonal(m: &Mat4) -> bool {
    (0..4).all(|r| (0..4).all(|c| r == c || m.0[r][c].norm_sqr() == 0.0))
}

/// Classification of one 2×2 sub-block of a block-structured two-qubit
/// matrix. `Identity` sub-blocks are *skipped outright* by the block
/// kernels — multiplying by exact `1+0i` is not a bitwise no-op for
/// `-0.0` imaginary parts, so "skip" and "multiply by one" diverge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubKind {
    /// Exact identity: diagonal with both entries `1+0i`.
    Identity,
    /// Diagonal but not the identity: per-amplitude `*=`.
    Diag,
    /// General 2×2: paired MAC update.
    Dense,
}

/// Classify a 2×2 matrix for the block kernels.
pub fn mat2_sub_kind(m: &Mat2) -> SubKind {
    if !mat2_is_diagonal(m) {
        return SubKind::Dense;
    }
    let one = |c: C64| c.re == 1.0 && c.im == 0.0;
    if one(m.0[0][0]) && one(m.0[1][1]) {
        SubKind::Identity
    } else {
        SubKind::Diag
    }
}

/// Block structure of a prenormalized (`hi > lo`, high bit first)
/// two-qubit matrix. Controlled gates are block-diagonal: CX with the
/// control on the high bit is `BlockHi{I, X}`, with the control on the
/// low bit `BlockLo{I, X}`. The sharded executor exploits this —
/// `BlockHi` with a global high bit needs **no exchange at all** (each
/// rank applies its own sub-block locally) and `BlockLo` with exactly one
/// dense sub-block needs only **half** the shard from its partner — so
/// the single-node kernels must take the *same* structural shortcuts to
/// stay bitwise identical (an `Identity` sub-block is skipped, not
/// multiplied; a 2-term MAC is not the 4-term MAC with zeros).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Mat4Shape {
    /// Fully diagonal — handled by the diagonal fast path.
    Diagonal,
    /// `m = diag(a, b)` over the HIGH bit: rows/cols `{0,1}` form `a`
    /// (high bit 0), `{2,3}` form `b`; each sub-block acts on the low
    /// bit within its high-bit half.
    BlockHi {
        /// Sub-block for high bit 0.
        a: Mat2,
        /// Kind of `a`.
        ka: SubKind,
        /// Sub-block for high bit 1.
        b: Mat2,
        /// Kind of `b`.
        kb: SubKind,
    },
    /// Block-diagonal over the LOW bit: rows/cols `{0,2}` form `a` (low
    /// bit 0), `{1,3}` form `b`; each sub-block acts on the high bit
    /// within its low-bit stripe.
    BlockLo {
        /// Sub-block for low bit 0.
        a: Mat2,
        /// Kind of `a`.
        ka: SubKind,
        /// Sub-block for low bit 1.
        b: Mat2,
        /// Kind of `b`.
        kb: SubKind,
    },
    /// No exploitable structure: full 4-term MAC kernels.
    Dense,
}

/// Classify a prenormalized two-qubit matrix. Diagonal wins over the
/// block shapes (a diagonal matrix is both), `BlockHi` over `BlockLo`
/// when a matrix is both (only diagonal matrices are).
pub fn mat4_shape(m: &Mat4) -> Mat4Shape {
    if mat4_is_diagonal(m) {
        return Mat4Shape::Diagonal;
    }
    let z = |r: usize, c: usize| m.0[r][c].norm_sqr() == 0.0;
    if z(0, 2) && z(0, 3) && z(1, 2) && z(1, 3) && z(2, 0) && z(2, 1) && z(3, 0) && z(3, 1) {
        let a = Mat2([[m.0[0][0], m.0[0][1]], [m.0[1][0], m.0[1][1]]]);
        let b = Mat2([[m.0[2][2], m.0[2][3]], [m.0[3][2], m.0[3][3]]]);
        return Mat4Shape::BlockHi {
            ka: mat2_sub_kind(&a),
            a,
            kb: mat2_sub_kind(&b),
            b,
        };
    }
    if z(0, 1) && z(0, 3) && z(2, 1) && z(2, 3) && z(1, 0) && z(1, 2) && z(3, 0) && z(3, 2) {
        let a = Mat2([[m.0[0][0], m.0[0][2]], [m.0[2][0], m.0[2][2]]]);
        let b = Mat2([[m.0[1][1], m.0[1][3]], [m.0[3][1], m.0[3][3]]]);
        return Mat4Shape::BlockLo {
            ka: mat2_sub_kind(&a),
            a,
            kb: mat2_sub_kind(&b),
            b,
        };
    }
    Mat4Shape::Dense
}

/// Applies a single-qubit unitary to qubit `q`, in place.
pub fn apply_mat2(amps: &mut [C64], q: usize, m: &Mat2) {
    nwq_telemetry::counter_add("kernels.amplitude_updates", amps.len() as u64);
    if mat2_is_diagonal(m) {
        nwq_telemetry::counter_add("kernels.mat2.diag", 1);
    }
    apply_mat2_parts(amps, q, m, sweep_parts(amps.len()));
}

/// [`apply_mat2`] cut into an explicit number of parts, whatever the pool
/// width and register size (no telemetry). The parity tests drive this
/// with part counts the CI host's pool would never pick.
#[doc(hidden)]
pub fn apply_mat2_parts(amps: &mut [C64], q: usize, m: &Mat2, parts: usize) {
    debug_assert!(1usize << q < amps.len());
    if mat2_is_diagonal(m) {
        let d = [m.0[0][0], m.0[1][1]];
        return diag_parts(amps, &[DiagFactor::One { q, d }], parts);
    }
    let stride = 1usize << q;
    sweep(
        amps,
        stride,
        1,
        parts,
        |_, a| simd::mat2_sweep(a, stride, m),
        |_, lo, hi| simd::mat2_pairs(lo, hi, m),
    );
}

/// Applies a two-qubit unitary, in place. The matrix follows the workspace
/// convention: index = `(bit(q_high_arg) << 1) | bit(q_low_arg)` where
/// `q_high_arg`/`q_low_arg` are the *argument* roles (first/second), not
/// the numeric order. Internally the kernel sorts the qubits and swaps the
/// matrix when needed.
pub fn apply_mat4(amps: &mut [C64], qa: usize, qb: usize, m: &Mat4) {
    // Normalize so `hi > lo` with the matrix's high bit on `hi`.
    if qa > qb {
        apply_mat4_prenorm(amps, qa, qb, m);
    } else {
        apply_mat4_prenorm(amps, qb, qa, &m.swap_qubits());
    }
}

/// [`apply_mat4`] for matrices already normalized to `hi > lo` (first
/// qubit is the matrix's high bit). Compiled plans pre-normalize at
/// template build/bind time, so this entry skips the per-call
/// `swap_qubits` reshuffle of the general wrapper.
pub fn apply_mat4_prenorm(amps: &mut [C64], hi: usize, lo: usize, mat: &Mat4) {
    apply_mat4_shaped(amps, hi, lo, mat, mat4_shape(mat));
}

/// [`apply_mat4_prenorm`] with the matrix's [`Mat4Shape`] supplied by the
/// caller (compiled plans classify once at bind time and cache the shape
/// alongside the op). `shape` must be `mat4_shape(mat)`.
pub fn apply_mat4_shaped(amps: &mut [C64], hi: usize, lo: usize, mat: &Mat4, shape: Mat4Shape) {
    nwq_telemetry::counter_add("kernels.amplitude_updates", amps.len() as u64);
    match shape {
        Mat4Shape::Diagonal => nwq_telemetry::counter_add("kernels.mat4.diag", 1),
        Mat4Shape::BlockHi { .. } | Mat4Shape::BlockLo { .. } => {
            nwq_telemetry::counter_add("kernels.mat4.block", 1)
        }
        Mat4Shape::Dense => {}
    }
    mat4_parts(amps, hi, lo, mat, &shape, sweep_parts(amps.len()));
}

/// The two-qubit sweep in `parts` parts (`hi > lo` normalized, `shape`
/// = `mat4_shape(mat)`): diagonal matrices multiply in place,
/// block-structured ones (controlled gates) touch at most half the
/// amplitudes with 2-term MACs, dense ones run the 4-term quad update.
fn mat4_parts(amps: &mut [C64], hi: usize, lo: usize, mat: &Mat4, shape: &Mat4Shape, parts: usize) {
    debug_assert!(hi > lo);
    debug_assert!(1usize << hi < amps.len());
    debug_assert_eq!(*shape, mat4_shape(mat));
    let (s_hi, s_lo) = (1usize << hi, 1usize << lo);
    match shape {
        Mat4Shape::Diagonal => {
            let d = [mat.0[0][0], mat.0[1][1], mat.0[2][2], mat.0[3][3]];
            diag_parts(amps, &[DiagFactor::Two { hi, lo, d }], parts);
        }
        Mat4Shape::BlockHi { .. } | Mat4Shape::BlockLo { .. } => sweep(
            amps,
            s_hi,
            s_lo << 1,
            parts,
            |_, a| simd::block_sweep(a, hi, lo, shape),
            |_, h0, h1| simd::block_half_pair(h0, h1, lo, shape),
        ),
        Mat4Shape::Dense => sweep(
            amps,
            s_hi,
            s_lo << 1,
            parts,
            |_, a| simd::mat4_sweep(a, s_hi, s_lo, mat),
            |_, h0, h1| simd::mat4_half_pair(h0, h1, s_lo, mat),
        ),
    }
}

/// [`apply_mat4`] cut into an explicit number of parts (see
/// [`apply_mat2_parts`]).
#[doc(hidden)]
pub fn apply_mat4_parts(amps: &mut [C64], qa: usize, qb: usize, m: &Mat4, parts: usize) {
    debug_assert!(qa != qb);
    let (hi, lo, mat) = if qa > qb {
        (qa, qb, *m)
    } else {
        (qb, qa, m.swap_qubits())
    };
    mat4_parts(amps, hi, lo, &mat, &mat4_shape(&mat), parts);
}

/// One diagonal gate inside a coalesced sweep: a per-amplitude phase factor
/// selected by one or two index bits. All diagonal operators commute, so a
/// run of them can be applied in a single amplitude pass (see
/// [`apply_diag_sweep`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DiagFactor {
    /// Diagonal single-qubit gate: `d[bit(q)]`.
    One {
        /// Target qubit.
        q: usize,
        /// Diagonal entries indexed by the qubit's bit.
        d: [C64; 2],
    },
    /// Diagonal two-qubit gate (`hi > lo` normalized by the builder):
    /// `d[(bit(hi) << 1) | bit(lo)]`.
    Two {
        /// Higher-numbered qubit.
        hi: usize,
        /// Lower-numbered qubit.
        lo: usize,
        /// Diagonal entries indexed by the two bits.
        d: [C64; 4],
    },
}

impl DiagFactor {
    /// The complex-conjugated factor — the inverse of a diagonal unitary,
    /// used by plan daggering.
    pub fn conj(&self) -> DiagFactor {
        match *self {
            DiagFactor::One { q, d } => DiagFactor::One {
                q,
                d: [d[0].conj(), d[1].conj()],
            },
            DiagFactor::Two { hi, lo, d } => DiagFactor::Two {
                hi,
                lo,
                d: [d[0].conj(), d[1].conj(), d[2].conj(), d[3].conj()],
            },
        }
    }

    /// The highest qubit this factor reads.
    fn top_qubit(&self) -> usize {
        match *self {
            DiagFactor::One { q, .. } => q,
            DiagFactor::Two { hi, .. } => hi,
        }
    }

    /// The phase this factor contributes to amplitude `i`.
    #[inline]
    pub(crate) fn at(&self, i: usize) -> C64 {
        match *self {
            DiagFactor::One { q, d } => d[(i >> q) & 1],
            DiagFactor::Two { hi, lo, d } => d[(((i >> hi) & 1) << 1) | ((i >> lo) & 1)],
        }
    }
}

/// Applies a run of commuting diagonal gates in ONE amplitude pass: each
/// amplitude is read and written once regardless of how many factors the
/// sweep carries. The compiled-plan layer emits sweeps for every diagonal
/// block (runs of length 1 are common — UCCSD's CX·RZ·CX apex blocks are
/// diagonal but fenced apart by ladder blocks; genuinely adjacent
/// RZ/CZ/CP/RZZ chains coalesce into longer runs).
///
/// Each factor multiplies the amplitude *in place* rather than
/// accumulating a combined phase first: for a run of one this performs
/// exactly the `amp *= d` of the plain kernels' diagonal fast path, so a
/// one-factor sweep is bitwise identical to [`apply_mat2`] /
/// [`apply_mat4`] on the same diagonal matrix.
pub fn apply_diag_sweep(amps: &mut [C64], factors: &[DiagFactor]) {
    if factors.is_empty() {
        return;
    }
    nwq_telemetry::counter_add("kernels.amplitude_updates", amps.len() as u64);
    nwq_telemetry::counter_add("kernels.diag_sweep", 1);
    nwq_telemetry::counter_add("kernels.diag_sweep_factors", factors.len() as u64);
    diag_parts(amps, factors, sweep_parts(amps.len()));
}

/// [`apply_diag_sweep`] cut into an explicit number of parts (see
/// [`apply_mat2_parts`]).
#[doc(hidden)]
pub fn apply_diag_sweep_parts(amps: &mut [C64], factors: &[DiagFactor], parts: usize) {
    if !factors.is_empty() {
        diag_parts(amps, factors, parts);
    }
}

/// The diagonal sweep in `parts` parts, blocked on the highest factor
/// qubit so a run of whole blocks sees every factor bit at its own
/// offset; a window of a half reads the bits above it off its base.
fn diag_parts(amps: &mut [C64], factors: &[DiagFactor], parts: usize) {
    // One-factor sweeps dominate compiled UCCSD plans (ladder-fenced RZ
    // apexes); give them the run-shaped SIMD fast paths. Each amplitude
    // still computes exactly `a *= f.at(i)` per factor, so every arm is
    // bitwise identical to the generic loop.
    let window = |base: usize, a: &mut [C64]| match factors {
        [DiagFactor::One { q, d }] => simd::diag1_sweep(a, base, *q, d[0], d[1]),
        [DiagFactor::Two { hi, lo, d }] => simd::diag2_sweep(a, base, *hi, *lo, d),
        _ => simd::diag_multi_sweep(a, base, factors),
    };
    let top = factors.iter().map(DiagFactor::top_qubit).max();
    let half = 1usize << top.expect("diag_parts needs a factor");
    sweep(amps, half, 1, parts, window, |base, lo, hi| {
        window(base, lo);
        window(base + half, hi);
    });
}

/// Sharded single-qubit update for a *global* qubit (one whose bit lives
/// in the rank id of a distributed run): every amplitude of `own` pairs
/// with the amplitude at the same local index in `partner` (the exchanged
/// shard of the partner rank), and `own_bit` says which half of each pair
/// this shard holds. Mirrors [`apply_mat2`]'s arithmetic exactly — same
/// diagonal fast path, same product/sum order — so a sharded run stays
/// bitwise identical to the single-node kernel.
pub fn apply_exchanged_mat2(own: &mut [C64], partner: &[C64], own_bit: usize, m: &Mat2) {
    debug_assert_eq!(own.len(), partner.len());
    debug_assert!(own_bit < 2);
    nwq_telemetry::counter_add("kernels.amplitude_updates", own.len() as u64);
    if mat2_is_diagonal(m) {
        // Single-node takes the diagonal fast path (`amp *= d[bit]`,
        // partner amplitude never read); replicate it or ±0.0 signs from
        // `m00·x + 0·y` diverge bitwise.
        return apply_global_phase1(own, own_bit, m);
    }
    if own_bit == 0 {
        for (a, b) in own.iter_mut().zip(partner) {
            *a = m.0[0][0] * *a + m.0[0][1] * *b;
        }
    } else {
        for (a, b) in own.iter_mut().zip(partner) {
            *a = m.0[1][0] * *b + m.0[1][1] * *a;
        }
    }
}

/// Sharded two-qubit update where the matrix's *high* bit is a global
/// qubit (rank-id bit `own_hi_bit` for this shard) and its *low* bit is
/// the rank-local qubit `lo`. `m` must be prenormalized (high bit first),
/// exactly as [`apply_mat4_prenorm`] expects. Mirrors the dense quad
/// update's row/column order (`simd::mat4_sweep`) bitwise.
pub fn apply_exchanged_mat4_global_local(
    own: &mut [C64],
    partner: &[C64],
    own_hi_bit: usize,
    lo: usize,
    m: &Mat4,
) {
    debug_assert_eq!(own.len(), partner.len());
    debug_assert!(own_hi_bit < 2);
    debug_assert!(1usize << lo < own.len());
    nwq_telemetry::counter_add("kernels.amplitude_updates", own.len() as u64);
    if mat4_is_diagonal(m) {
        return apply_global_local_phase(own, own_hi_bit, lo, m);
    }
    let m = &{ *m };
    let s_lo = 1usize << lo;
    let lo_block = s_lo << 1;
    for base in (0..own.len()).step_by(lo_block) {
        for i in base..base + s_lo {
            let j = i + s_lo;
            // v indexed (hi bit << 1) | lo bit, matching the quad update.
            let v = if own_hi_bit == 0 {
                [own[i], own[j], partner[i], partner[j]]
            } else {
                [partner[i], partner[j], own[i], own[j]]
            };
            let rows = if own_hi_bit == 0 { [0, 1] } else { [2, 3] };
            let r0 = &m.0[rows[0]];
            let r1 = &m.0[rows[1]];
            own[i] = r0[0] * v[0] + r0[1] * v[1] + r0[2] * v[2] + r0[3] * v[3];
            own[j] = r1[0] * v[0] + r1[1] * v[1] + r1[2] * v[2] + r1[3] * v[3];
        }
    }
}

/// Sharded two-qubit update where BOTH qubits are global: four ranks form
/// a quad, each holding one of the four bit positions. `pos` is this
/// shard's position `(hi_bit << 1) | lo_bit`; `others` holds the three
/// partner payloads for the remaining positions in ascending position
/// order. `m` must be prenormalized (numerically higher qubit = matrix
/// high bit). Bitwise-mirrors the dense quad update (`simd::mat4_sweep`).
pub fn apply_exchanged_mat4_global_global(
    own: &mut [C64],
    others: [&[C64]; 3],
    pos: usize,
    m: &Mat4,
) {
    debug_assert!(pos < 4);
    debug_assert!(others.iter().all(|o| o.len() == own.len()));
    nwq_telemetry::counter_add("kernels.amplitude_updates", own.len() as u64);
    if mat4_is_diagonal(m) {
        return apply_global_global_phase(own, pos, m);
    }
    let m = &{ *m };
    let row = &m.0[pos];
    for (k, a) in own.iter_mut().enumerate() {
        let mut v = [C64::default(); 4];
        let mut oi = 0;
        for (p, slot) in v.iter_mut().enumerate() {
            if p == pos {
                *slot = *a;
            } else {
                *slot = others[oi][k];
                oi += 1;
            }
        }
        *a = row[0] * v[0] + row[1] * v[1] + row[2] * v[2] + row[3] * v[3];
    }
}

// ---------------------------------------------------------------------
// Lean-exchange kernels: phase elision and half-shard payloads for the
// sharded executor. Every function here reduces to the
// exact per-element expressions of the single-node kernels above, which
// is what keeps exchange-lean distributed runs bitwise identical.
// ---------------------------------------------------------------------

/// Diagonal single-qubit gate on a *global* qubit: pure local phase, no
/// exchange. Identical arithmetic to the diagonal arm of
/// [`apply_exchanged_mat2`] (and thus to [`apply_mat2`]'s fast path).
pub fn apply_global_phase1(own: &mut [C64], own_bit: usize, m: &Mat2) {
    debug_assert!(own_bit < 2);
    let d = if own_bit == 1 { m.0[1][1] } else { m.0[0][0] };
    for a in own.iter_mut() {
        *a *= d;
    }
}

/// Diagonal two-qubit gate with a global high bit and local low qubit
/// `lo`: pure local phase, no exchange.
pub fn apply_global_local_phase(own: &mut [C64], own_hi_bit: usize, lo: usize, m: &Mat4) {
    debug_assert!(own_hi_bit < 2);
    let d = [m.0[0][0], m.0[1][1], m.0[2][2], m.0[3][3]];
    for (k, a) in own.iter_mut().enumerate() {
        *a *= d[(own_hi_bit << 1) | ((k >> lo) & 1)];
    }
}

/// Diagonal two-qubit gate with both bits global (`pos` = this rank's
/// `(hi_bit << 1) | lo_bit`): one scalar phase, no exchange.
pub fn apply_global_global_phase(own: &mut [C64], pos: usize, m: &Mat4) {
    debug_assert!(pos < 4);
    let d = m.0[pos][pos];
    for a in own.iter_mut() {
        *a *= d;
    }
}

/// Multiplies every amplitude by one scalar — the sub-block-diagonal arm
/// of a block-structured global-global gate (the rank's whole shard sits
/// on one diagonal entry of its sub-block).
pub fn scale_amps(own: &mut [C64], d: C64) {
    for a in own.iter_mut() {
        *a *= d;
    }
}

/// Packs the `lo`-bit == `v` half of a shard into `buf` (cleared first),
/// in ascending index order — the payload layout of a half-shard
/// exchange. The receiver walks the same order ([`apply_exchanged_half`]).
pub fn pack_lo_half(shard: &[C64], lo: usize, v: usize, buf: &mut Vec<C64>) {
    debug_assert!(v < 2);
    let s_lo = 1usize << lo;
    buf.clear();
    buf.reserve(shard.len() / 2);
    for c in shard.chunks(s_lo << 1) {
        buf.extend_from_slice(&c[v * s_lo..(v + 1) * s_lo]);
    }
}

/// Multiplies the `lo`-bit == `v` half of a shard by a scalar — the
/// diagonal sub-block of a lo-block two-qubit gate whose high bit is
/// global (the rank's high bit picks one diagonal entry).
pub fn scale_lo_half(own: &mut [C64], lo: usize, v: usize, d: C64) {
    let s_lo = 1usize << lo;
    for c in own.chunks_mut(s_lo << 1) {
        for a in c[v * s_lo..(v + 1) * s_lo].iter_mut() {
            *a *= d;
        }
    }
}

/// Half-shard exchanged update: applies the dense 2×2 sub-block `m` of a
/// lo-block-structured gate (global high bit, local low qubit `lo`)
/// across the global bit, touching only elements with `lo`-bit == `v`.
/// `packed` is the partner's matching half in [`pack_lo_half`] order.
/// Mirrors the dense arm of [`simd::block_sweep`] bitwise.
pub fn apply_exchanged_half(
    own: &mut [C64],
    packed: &[C64],
    own_hi_bit: usize,
    lo: usize,
    v: usize,
    m: &Mat2,
) {
    debug_assert!(own_hi_bit < 2);
    debug_assert_eq!(packed.len(), own.len() / 2);
    nwq_telemetry::counter_add("kernels.amplitude_updates", (own.len() / 2) as u64);
    let s_lo = 1usize << lo;
    let mut p = 0;
    for c in own.chunks_mut(s_lo << 1) {
        for a in c[v * s_lo..(v + 1) * s_lo].iter_mut() {
            let b = packed[p];
            p += 1;
            *a = if own_hi_bit == 0 {
                m.0[0][0] * *a + m.0[0][1] * b
            } else {
                m.0[1][0] * b + m.0[1][1] * *a
            };
        }
    }
}

/// Full-payload exchanged update for a lo-block-structured gate with a
/// global high bit: each `lo` stripe applies its own sub-block across the
/// global bit (`Identity` skipped, `Diag` scaled, `Dense` paired with the
/// partner's value at the same local index).
pub fn apply_exchanged_blocklo(
    own: &mut [C64],
    partner: &[C64],
    own_hi_bit: usize,
    lo: usize,
    shape: &Mat4Shape,
) {
    let Mat4Shape::BlockLo { a, ka, b, kb } = shape else {
        panic!("apply_exchanged_blocklo needs a BlockLo shape");
    };
    debug_assert_eq!(own.len(), partner.len());
    nwq_telemetry::counter_add("kernels.amplitude_updates", own.len() as u64);
    let s_lo = 1usize << lo;
    for (base, c) in own.chunks_mut(s_lo << 1).enumerate() {
        let base = base * (s_lo << 1);
        for (v, (k, m)) in [(ka, a), (kb, b)].iter().enumerate() {
            match k {
                SubKind::Identity => {}
                SubKind::Diag => {
                    let d = if own_hi_bit == 1 {
                        m.0[1][1]
                    } else {
                        m.0[0][0]
                    };
                    for x in c[v * s_lo..(v + 1) * s_lo].iter_mut() {
                        *x *= d;
                    }
                }
                SubKind::Dense => {
                    for (off, x) in c[v * s_lo..(v + 1) * s_lo].iter_mut().enumerate() {
                        let bval = partner[base + v * s_lo + off];
                        *x = if own_hi_bit == 0 {
                            m.0[0][0] * *x + m.0[0][1] * bval
                        } else {
                            m.0[1][0] * bval + m.0[1][1] * *x
                        };
                    }
                }
            }
        }
    }
}

/// Probability that qubit `q` measures 1 (parallel reduction).
pub fn prob_one(amps: &[C64], q: usize) -> f64 {
    let body = |(i, a): (usize, &C64)| if (i >> q) & 1 == 1 { a.norm_sqr() } else { 0.0 };
    if dispatches(amps.len()) {
        amps.par_iter().enumerate().map(body).sum()
    } else {
        amps.iter().enumerate().map(body).sum()
    }
}

/// Collapses qubit `q` to `outcome` and renormalizes. `prob` is the
/// probability of that outcome (precomputed by the caller from
/// [`prob_one`]).
///
/// Errors if `prob` is not a positive finite number: collapsing onto a
/// zero-probability outcome has no defined post-measurement state (the
/// unguarded `1/√prob` would silently fill the state with `inf`/NaN).
pub fn collapse(amps: &mut [C64], q: usize, outcome: bool, prob: f64) -> Result<()> {
    if !(prob > 0.0 && prob.is_finite()) {
        return Err(Error::Invalid(format!(
            "cannot collapse qubit {q} to outcome {}: probability {prob} is not positive",
            outcome as u8
        )));
    }
    let inv = 1.0 / prob.sqrt();
    let body = |(i, a): (usize, &mut C64)| {
        if ((i >> q) & 1 == 1) == outcome {
            *a = *a * inv;
        } else {
            *a = C64::default();
        }
    };
    if dispatches(amps.len()) {
        amps.par_iter_mut().enumerate().for_each(body);
    } else {
        amps.iter_mut().enumerate().for_each(body);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nwq_circuit::reference;
    use nwq_common::mat::{mat_cp, mat_cx, mat_cz, mat_h, mat_rz, mat_rzz, mat_swap, mat_x, mat_y};
    use nwq_common::{C_ONE, C_ZERO};

    fn zero(n: usize) -> Vec<C64> {
        let mut v = vec![C_ZERO; 1 << n];
        v[0] = C_ONE;
        v
    }

    fn rand_state(n: usize, seed: u64) -> Vec<C64> {
        let mut v: Vec<C64> = (0..1usize << n)
            .map(|i| {
                let t = (i as f64 + seed as f64 * 0.77).sin();
                C64::new(t, (t * 1.7).cos())
            })
            .collect();
        let norm: f64 = v.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
        for a in &mut v {
            *a = *a * (1.0 / norm);
        }
        v
    }

    #[test]
    fn x_kernel_on_each_qubit() {
        for n in 1..=4 {
            for q in 0..n {
                let mut amps = zero(n);
                apply_mat2(&mut amps, q, &mat_x());
                assert!(amps[1 << q].approx_eq(C_ONE, 1e-12), "n={n} q={q}");
            }
        }
    }

    #[test]
    fn kernels_match_reference_mat2() {
        for q in 0..5 {
            for m in [mat_h(), mat_x(), mat_y(), mat_rz(0.7)] {
                let psi = rand_state(5, q as u64);
                let mut fast = psi.clone();
                apply_mat2(&mut fast, q, &m);
                let slow = reference::apply_mat2(&psi, q, &m);
                for (a, b) in fast.iter().zip(&slow) {
                    assert!(a.approx_eq(*b, 1e-10), "q={q}");
                }
            }
        }
    }

    #[test]
    fn kernels_match_reference_mat4() {
        for qa in 0..4 {
            for qb in 0..4 {
                if qa == qb {
                    continue;
                }
                for m in [mat_cx(), mat_cz(), mat_swap(), mat_rzz(0.9), mat_cp(0.4)] {
                    let psi = rand_state(4, (qa * 7 + qb) as u64);
                    let mut fast = psi.clone();
                    apply_mat4(&mut fast, qa, qb, &m);
                    let slow = reference::apply_mat4(&psi, qa, qb, &m);
                    for (a, b) in fast.iter().zip(&slow) {
                        assert!(a.approx_eq(*b, 1e-10), "qa={qa} qb={qb}");
                    }
                }
            }
        }
    }

    #[test]
    fn bell_via_kernels() {
        let mut amps = zero(2);
        apply_mat2(&mut amps, 0, &mat_h());
        apply_mat4(&mut amps, 0, 1, &mat_cx());
        // CX(control=arg0 high bit). amps convention check vs reference.
        let slow = {
            let mut c = nwq_circuit::Circuit::new(2);
            c.h(0).cx(0, 1);
            reference::run(&c, &[]).unwrap()
        };
        for (a, b) in amps.iter().zip(&slow) {
            assert!(a.approx_eq(*b, 1e-12));
        }
    }

    #[test]
    fn diag_sweep_matches_sequential_application() {
        // RZ(0), CZ(1,3), CP(2,0), RZZ(3,1) applied one by one vs one sweep.
        for n in [4usize, PAR_MIN_AMPS.trailing_zeros() as usize] {
            let psi = rand_state(n, 11);
            let rz = mat_rz(0.83);
            let cz = mat_cz();
            let cp = mat_cp(-0.4);
            let rzz = mat_rzz(1.3);
            let mut seq = psi.clone();
            apply_mat2(&mut seq, 0, &rz);
            apply_mat4(&mut seq, 1, 3, &cz);
            apply_mat4(&mut seq, 2, 0, &cp);
            apply_mat4(&mut seq, 3, 1, &rzz);
            let factors = [
                DiagFactor::One {
                    q: 0,
                    d: [rz.0[0][0], rz.0[1][1]],
                },
                // (1,3) stored hi=3, lo=1 needs the swapped matrix; cz/rzz
                // are swap-symmetric, cp too, so entries read off directly.
                DiagFactor::Two {
                    hi: 3,
                    lo: 1,
                    d: [cz.0[0][0], cz.0[1][1], cz.0[2][2], cz.0[3][3]],
                },
                DiagFactor::Two {
                    hi: 2,
                    lo: 0,
                    d: [cp.0[0][0], cp.0[1][1], cp.0[2][2], cp.0[3][3]],
                },
                DiagFactor::Two {
                    hi: 3,
                    lo: 1,
                    d: [rzz.0[0][0], rzz.0[1][1], rzz.0[2][2], rzz.0[3][3]],
                },
            ];
            let mut swept = psi.clone();
            apply_diag_sweep(&mut swept, &factors);
            // The sweep multiplies each factor in place, exactly like the
            // per-gate diagonal fast paths: bitwise identical, not approx.
            for (a, b) in swept.iter().zip(&seq) {
                assert_eq!(a.re.to_bits(), b.re.to_bits(), "n={n}");
                assert_eq!(a.im.to_bits(), b.im.to_bits(), "n={n}");
            }
        }
    }

    #[test]
    fn one_factor_sweep_is_bitwise_the_diagonal_fast_path() {
        let psi = rand_state(5, 9);
        let rzz = mat_rzz(0.61);
        let mut direct = psi.clone();
        apply_mat4(&mut direct, 1, 4, &rzz); // normalizes to hi=4, lo=1
        let swapped = rzz.swap_qubits();
        let mut swept = psi.clone();
        apply_diag_sweep(
            &mut swept,
            &[DiagFactor::Two {
                hi: 4,
                lo: 1,
                d: [
                    swapped.0[0][0],
                    swapped.0[1][1],
                    swapped.0[2][2],
                    swapped.0[3][3],
                ],
            }],
        );
        for (a, b) in swept.iter().zip(&direct) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
    }

    #[test]
    fn prenorm_entry_matches_general_wrapper() {
        for (qa, qb) in [(3, 1), (1, 3)] {
            let psi = rand_state(5, 21);
            let m = mat_cx();
            let mut via_wrapper = psi.clone();
            apply_mat4(&mut via_wrapper, qa, qb, &m);
            let (hi, lo, mat) = if qa > qb {
                (qa, qb, m)
            } else {
                (qb, qa, m.swap_qubits())
            };
            let mut via_prenorm = psi.clone();
            apply_mat4_prenorm(&mut via_prenorm, hi, lo, &mat);
            for (a, b) in via_prenorm.iter().zip(&via_wrapper) {
                assert_eq!(a.re.to_bits(), b.re.to_bits(), "qa={qa} qb={qb}");
                assert_eq!(a.im.to_bits(), b.im.to_bits(), "qa={qa} qb={qb}");
            }
        }
    }

    #[test]
    fn dispatch_rule_is_the_floor_and_the_pool_width() {
        // One pool round trip costs a serial sweep over thousands of
        // amplitudes, and on a single-thread pool it buys nothing.
        assert!(!dispatches(PAR_MIN_AMPS - 1));
        assert_eq!(dispatches(PAR_MIN_AMPS), parallel_dispatch_enabled());
        assert_eq!(dispatches(usize::MAX), parallel_dispatch_enabled());
    }

    #[test]
    fn partition_covers_the_register_in_order() {
        // (base, amplitudes) per part of a 32-amplitude register.
        let cut = |half, align, parts| -> Vec<(usize, usize)> {
            partition(&mut zero(5), half, align, parts)
                .iter()
                .map(|p| match p {
                    Part::Blocks(b, a) => (*b, a.len()),
                    Part::Halves(b, lo, hi) => (*b, lo.len() + hi.len()),
                })
                .collect()
        };
        // 8 blocks in 3 parts: whole blocks, 3/3/2.
        assert_eq!(cut(2, 1, 3), [(0, 12), (12, 12), (24, 8)]);
        // 1 block in 3 parts: four window pairs, unless `align` forbids.
        assert_eq!(cut(16, 1, 3), [(0, 8), (4, 8), (8, 8), (12, 8)]);
        assert_eq!(cut(16, 8, 3), [(0, 16), (8, 16)]);
        // 2 blocks in 4 parts, windows pinned to the whole half.
        assert_eq!(cut(8, 8, 4), [(0, 16), (16, 16)]);
    }

    #[test]
    fn diag_sweep_empty_is_identity() {
        let psi = rand_state(3, 5);
        let mut swept = psi.clone();
        apply_diag_sweep(&mut swept, &[]);
        assert_eq!(swept, psi);
    }

    #[test]
    fn serial_kernels_match_dispatched_bitwise() {
        // One size each side of the floor; whatever the pool does with
        // them, the bits are the serial sweep's.
        let floor = PAR_MIN_AMPS.trailing_zeros() as usize;
        for n in [floor - 1, floor] {
            for q in [0, 5, n - 1] {
                let psi = rand_state(n, q as u64);
                let mut par = psi.clone();
                let mut ser = psi.clone();
                apply_mat2(&mut par, q, &mat_h());
                apply_mat2_parts(&mut ser, q, &mat_h(), 1);
                assert_bitwise(&[par], &ser, &format!("n={n} q={q}"));
            }
            for (qa, qb) in [(0, 1), (n - 1, 2), (3, n - 2)] {
                for m in [mat_cx(), mat_rzz(0.7), mat_swap()] {
                    let psi = rand_state(n, (qa * 31 + qb) as u64);
                    let mut par = psi.clone();
                    let mut ser = psi.clone();
                    apply_mat4(&mut par, qa, qb, &m);
                    apply_mat4_parts(&mut ser, qa, qb, &m, 1);
                    assert_bitwise(&[par], &ser, &format!("n={n} qa={qa} qb={qb}"));
                }
            }
        }
    }

    /// Splits a full register into `2^n_global` rank shards.
    fn shards(full: &[C64], n_global: usize) -> Vec<Vec<C64>> {
        let n_ranks = 1usize << n_global;
        let part = full.len() / n_ranks;
        (0..n_ranks)
            .map(|r| full[r * part..(r + 1) * part].to_vec())
            .collect()
    }

    fn assert_bitwise(sharded: &[Vec<C64>], full: &[C64], ctx: &str) {
        let part = sharded[0].len();
        for (r, shard) in sharded.iter().enumerate() {
            for (k, a) in shard.iter().enumerate() {
                let b = full[r * part + k];
                assert_eq!(a.re.to_bits(), b.re.to_bits(), "{ctx} rank={r} k={k}");
                assert_eq!(a.im.to_bits(), b.im.to_bits(), "{ctx} rank={r} k={k}");
            }
        }
    }

    #[test]
    fn exchanged_mat2_bitwise_matches_single_node() {
        let n = 4;
        let n_local = 3; // 2 ranks, qubit 3 global
        for m in [mat_h(), mat_x(), mat_y(), mat_rz(0.7)] {
            let psi = rand_state(n, 17);
            let mut full = psi.clone();
            apply_mat2(&mut full, 3, &m);
            let pre = shards(&psi, n - n_local);
            let mut post = pre.clone();
            for (r, shard) in post.iter_mut().enumerate() {
                let own_bit = r & 1;
                apply_exchanged_mat2(shard, &pre[r ^ 1], own_bit, &m);
            }
            assert_bitwise(&post, &full, "mat2");
        }
    }

    #[test]
    fn exchanged_mat4_global_local_bitwise_matches_single_node() {
        let n = 4;
        let n_local = 2; // 4 ranks, qubits 2,3 global
        for (qa, qb) in [(3usize, 1usize), (1, 3)] {
            for m in [mat_cx(), mat_swap(), mat_rzz(0.9), mat_cz()] {
                let psi = rand_state(n, 23);
                let mut full = psi.clone();
                apply_mat4(&mut full, qa, qb, &m);
                // Prenormalize exactly like apply_mat4: hi > lo, matrix
                // swapped when the first argument is the low qubit.
                let mat = if qa > qb { m } else { m.swap_qubits() };
                let (hi, lo) = (qa.max(qb), qa.min(qb));
                let gbit = hi - n_local;
                let pre = shards(&psi, n - n_local);
                let mut post = pre.clone();
                for (r, shard) in post.iter_mut().enumerate() {
                    let own_hi_bit = (r >> gbit) & 1;
                    let partner = r ^ (1 << gbit);
                    apply_exchanged_mat4_global_local(shard, &pre[partner], own_hi_bit, lo, &mat);
                }
                assert_bitwise(&post, &full, "mat4 gl");
            }
        }
    }

    #[test]
    fn exchanged_mat4_global_global_bitwise_matches_single_node() {
        let n = 4;
        let n_local = 2; // 4 ranks, qubits 2,3 global
        for (qa, qb) in [(2usize, 3usize), (3, 2)] {
            for m in [mat_cx(), mat_swap(), mat_cz(), mat_cp(0.4)] {
                let psi = rand_state(n, 31);
                let mut full = psi.clone();
                apply_mat4(&mut full, qa, qb, &m);
                let mat = if qa > qb { m } else { m.swap_qubits() };
                let (hi, lo) = (qa.max(qb), qa.min(qb));
                let (bhi, blo) = (hi - n_local, lo - n_local);
                let pre = shards(&psi, n - n_local);
                let mut post = pre.clone();
                for (r, shard) in post.iter_mut().enumerate() {
                    let pos = (((r >> bhi) & 1) << 1) | ((r >> blo) & 1);
                    let mates: Vec<&[C64]> = (0..4)
                        .filter(|&p| p != pos)
                        .map(|p| {
                            let mut mate = r;
                            mate = (mate & !(1 << bhi)) | (((p >> 1) & 1) << bhi);
                            mate = (mate & !(1 << blo)) | ((p & 1) << blo);
                            pre[mate].as_slice()
                        })
                        .collect();
                    apply_exchanged_mat4_global_global(
                        shard,
                        [mates[0], mates[1], mates[2]],
                        pos,
                        &mat,
                    );
                }
                assert_bitwise(&post, &full, "mat4 gg");
            }
        }
    }

    #[test]
    fn prob_and_collapse() {
        let mut amps = zero(2);
        apply_mat2(&mut amps, 1, &mat_h());
        assert!((prob_one(&amps, 1) - 0.5).abs() < 1e-12);
        assert!(prob_one(&amps, 0) < 1e-12);
        let p = prob_one(&amps, 1);
        collapse(&mut amps, 1, true, p).unwrap();
        assert!((prob_one(&amps, 1) - 1.0).abs() < 1e-12);
        let norm: f64 = amps.iter().map(|a| a.norm_sqr()).sum();
        assert!((norm - 1.0).abs() < 1e-12);
    }

    #[test]
    fn collapse_impossible_outcome_is_an_error() {
        // |00⟩: qubit 1 can never measure 1. Before the guard, this filled
        // the state with inf (1/√0) and silently corrupted later math.
        let mut amps = zero(2);
        let p = prob_one(&amps, 1);
        assert!(p < 1e-300);
        let err = collapse(&mut amps, 1, true, p);
        assert!(err.is_err(), "collapse onto p=0 outcome must fail");
        // The state must be untouched by the failed collapse.
        assert!(amps[0].approx_eq(C_ONE, 1e-15));
        assert!(amps.iter().all(|a| a.norm_sqr().is_finite()));
        // NaN and negative probabilities are rejected too.
        assert!(collapse(&mut amps, 0, false, f64::NAN).is_err());
        assert!(collapse(&mut amps, 0, false, -0.25).is_err());
        assert!(collapse(&mut amps, 0, false, f64::INFINITY).is_err());
        // A legitimate collapse still works.
        collapse(&mut amps, 1, false, 1.0).unwrap();
        assert!(amps[0].approx_eq(C_ONE, 1e-15));
    }
}
