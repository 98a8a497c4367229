//! Adjoint-method analytic gradients: every ∂E/∂θ in one backward sweep.
//!
//! The adjoint method (the technique behind PennyLane Lightning's HPC
//! results) computes the full gradient of `E(θ) = ⟨ψ(θ)|H|ψ(θ)⟩` for a
//! cost independent of the parameter count. With the ansatz compiled to
//! fused blocks `|ψ⟩ = U_N … U_1 |0⟩`:
//!
//! ```text
//! ∂E/∂θ_j = 2 Re ⟨φ_b | ∂U_b/∂θ_j | ψ_{b-1}⟩   summed over blocks b,
//!   φ_b = (U_N … U_{b+1})† H ψ,   ψ_{b-1} = U_{b-1} … U_1 |0⟩
//! ```
//!
//! Three registers suffice: evolve `|ψ⟩` forward once, form `|φ⟩ = H|ψ⟩`
//! once (one pass per flip group of `H`, [`apply_prepared`]), then walk
//! the blocks backward, un-applying each block's dagger to both registers
//! and accumulating the bra-matrix-ket reduction for each parameter the
//! block depends on. Each reduction is a fold shaped by its derivative
//! matrix ([`simd::fold_diag`], [`simd::fold_mat2`], [`simd::fold_block`],
//! [`simd::fold_mat4`]): a diagonal derivative is one conjugate dot per
//! constant run, a block-structured one folds only the pairs its
//! sub-blocks act on. Total cost: one forward evolution, two
//! backward evolutions, and one O(dim) reduction per (block, parameter)
//! pair — ≤ 4 statevector-evolution-equivalents for ansätze where each
//! block carries at most one parameter (UCCSD, HEA), versus `2·P`
//! evolutions for parameter-shift.
//!
//! The walk runs at *block* granularity on the cached [`PlanTemplate`]:
//! [`AdjointTemplate`] (built once per circuit shape, cached in
//! [`crate::plan_cache`] next to the forward template, counted by
//! `plan.dagger_compiled`) records which parameters each block touches;
//! [`AdjointTemplate::bind`] replays each block's tape at θ — with the
//! product rule for derivatives — producing the dagger tape of bound
//! blocks the sweep consumes, with every derivative on one flat list.
//! Block application reuses the SIMD kernels
//! ([`crate::kernels::apply_mat2`] / [`apply_mat4_shaped`]), so
//! force-scalar mode pins the gradient bit-for-bit like every other path.
//!
//! Memory: the three registers are `|ψ⟩`, `|φ⟩`, and the implicit |0…0⟩
//! start — 2 × 16 bytes/amplitude live at once (the derivative reduction
//! reads both registers in place, no scratch register).

use crate::kernels::{
    apply_mat2, apply_mat4_shaped, mat2_is_diagonal, mat4_shape, DiagFactor, Mat4Shape,
};
use crate::plan::BoundBlock;
use crate::plan::PlanTemplate;
use crate::state::StateVector;
use crate::{plan_cache, simd};
use nwq_circuit::Circuit;
use nwq_common::{Error, Result, C64};
use nwq_pauli::{apply::apply_prepared, PauliOp};
use std::ops::Range;
use std::sync::Arc;

/// The θ-independent half of the adjoint walk for one circuit shape:
/// the forward [`PlanTemplate`] plus, per block, the sorted parameter
/// indices the block depends on. Built once per shape (see
/// [`crate::plan_cache::adjoint_for`]) and bound per θ.
#[derive(Debug)]
pub struct AdjointTemplate {
    template: Arc<PlanTemplate>,
    /// Parameter indices per block, sorted and deduplicated.
    block_params: Vec<Vec<usize>>,
}

/// One block of a bound dagger tape: the forward unitary, its dagger, and
/// where its ∂U/∂θ_j matrices sit on the tape's flat derivative list.
#[derive(Clone, Debug)]
pub struct AdjointBlock {
    /// The bound forward block.
    pub op: BoundBlock,
    /// Its conjugate transpose (the un-apply step of the walk).
    pub dag: BoundBlock,
    /// [`Mat4Shape`]s of `op` and `dag` for a two-qubit block, classified
    /// once at bind.
    shapes: Option<(Mat4Shape, Mat4Shape)>,
    /// Range of [`AdjointTape::derivs`] holding this block's derivatives.
    pub derivs: Range<usize>,
}

/// A dagger tape bound at one θ: the block sequence the adjoint sweep
/// walks forward (via `op`) and backward (via `dag`/`derivs`).
#[derive(Clone, Debug)]
pub struct AdjointTape {
    n_qubits: usize,
    blocks: Vec<AdjointBlock>,
    derivs: Vec<(usize, BoundBlock)>,
}

impl AdjointTape {
    /// Register width of the source circuit.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// The bound blocks in forward execution order.
    pub fn blocks(&self) -> &[AdjointBlock] {
        &self.blocks
    }

    /// `(parameter index, ∂U/∂θ_j)` for each dependent parameter of
    /// `block`, chain rule through affine `ParamExpr`s already applied.
    pub fn derivs(&self, block: &AdjointBlock) -> &[(usize, BoundBlock)] {
        &self.derivs[block.derivs.clone()]
    }
}

impl AdjointTemplate {
    /// Derives the adjoint metadata from a forward template. Cheap (a
    /// parameter-index scan); the per-θ work happens in
    /// [`AdjointTemplate::bind`].
    pub fn build(template: Arc<PlanTemplate>) -> AdjointTemplate {
        let block_params = (0..template.n_blocks())
            .map(|bi| template.block_param_indices(bi))
            .collect();
        AdjointTemplate {
            template,
            block_params,
        }
    }

    /// Number of blocks the walk visits.
    pub fn n_blocks(&self) -> usize {
        self.block_params.len()
    }

    /// Binds the dagger tape at θ: replays every block tape (value,
    /// dagger, and product-rule derivative per dependent parameter). Two
    /// allocations per bind: the blocks and one flat derivative list.
    pub fn bind(&self, params: &[f64]) -> Result<AdjointTape> {
        let mut blocks = Vec::with_capacity(self.n_blocks());
        let mut derivs = Vec::with_capacity(self.block_params.iter().map(Vec::len).sum());
        for (bi, deps) in self.block_params.iter().enumerate() {
            let start = derivs.len();
            let mut value = None;
            for &j in deps {
                // The derivative replay computes the block on the way.
                let (op, d) = self.template.bind_block_and_derivative(bi, params, j)?;
                value.get_or_insert(op);
                // `None` only when the chain coefficient is exactly zero
                // (e.g. `scaled_var(j, 0.0)`): a structurally listed but
                // numerically absent dependency.
                if let Some(d) = d {
                    derivs.push((j, d));
                }
            }
            let op = match value {
                Some(op) => op,
                None => self.template.bind_block(bi, params)?,
            };
            let dag = dagger_block(&op);
            let shapes = match (&op, &dag) {
                (BoundBlock::Two(_, _, m), BoundBlock::Two(_, _, d)) => {
                    Some((mat4_shape(m), mat4_shape(d)))
                }
                _ => None,
            };
            blocks.push(AdjointBlock {
                op,
                dag,
                shapes,
                derivs: start..derivs.len(),
            });
        }
        Ok(AdjointTape {
            n_qubits: self.template.n_qubits(),
            blocks,
            derivs,
        })
    }
}

fn dagger_block(b: &BoundBlock) -> BoundBlock {
    match b {
        BoundBlock::One(q, m) => BoundBlock::One(*q, m.dagger()),
        BoundBlock::Two(hi, lo, m) => BoundBlock::Two(*hi, *lo, m.dagger()),
    }
}

fn apply_block(b: &BoundBlock, shape: Option<&Mat4Shape>, amps: &mut [C64]) {
    match (b, shape) {
        (BoundBlock::One(q, m), _) => apply_mat2(amps, *q, m),
        (BoundBlock::Two(hi, lo, m), Some(shape)) => apply_mat4_shaped(amps, *hi, *lo, m, *shape),
        (BoundBlock::Two(..), None) => unreachable!("two-qubit blocks are classified at bind"),
    }
}

/// `Re⟨φ|M|λ⟩` for a derivative block `M`, by the fold its shape needs.
fn bra_block_ket(phi: &[C64], lam: &[C64], d: &BoundBlock) -> f64 {
    match d {
        BoundBlock::One(q, m) if mat2_is_diagonal(m) => {
            let f = DiagFactor::One {
                q: *q,
                d: [m.0[0][0], m.0[1][1]],
            };
            simd::fold_diag(phi, lam, &f)
        }
        BoundBlock::One(q, m) => simd::fold_mat2(phi, lam, *q, m),
        BoundBlock::Two(hi, lo, m) => match mat4_shape(m) {
            Mat4Shape::Diagonal => {
                let d = [m.0[0][0], m.0[1][1], m.0[2][2], m.0[3][3]];
                let f = DiagFactor::Two {
                    hi: *hi,
                    lo: *lo,
                    d,
                };
                simd::fold_diag(phi, lam, &f)
            }
            Mat4Shape::Dense => simd::fold_mat4(phi, lam, *hi, *lo, m),
            shape => simd::fold_block(phi, lam, *hi, *lo, &shape),
        },
    }
}

/// Result of one adjoint gradient evaluation, with enough accounting to
/// assert the ≤ 4 evolution-equivalents cost bound.
#[derive(Clone, Debug)]
pub struct AdjointGradient {
    /// `⟨ψ|H|ψ⟩` at θ (computed from the same `|φ⟩ = H|ψ⟩` the sweep
    /// uses).
    pub energy: f64,
    /// `∂E/∂θ_j` for every parameter, `gradient.len() == params.len()`.
    pub gradient: Vec<f64>,
    /// Block applications performed (forward + two backward registers).
    pub sweeps: u64,
    /// O(dim) bra-matrix-ket reductions performed (one per
    /// (block, parameter) pair).
    pub reductions: u64,
    /// Blocks in the walk (`= plan ops before diagonal coalescing`).
    pub blocks: u64,
}

impl AdjointGradient {
    /// Total cost in units of one full statevector evolution (one pass of
    /// all blocks): `(sweeps + reductions) / blocks`. For one-parameter-
    /// per-block ansätze this is ≤ 4 regardless of parameter count.
    pub fn evolution_equivalents(&self) -> f64 {
        if self.blocks == 0 {
            0.0
        } else {
            (self.sweeps + self.reductions) as f64 / self.blocks as f64
        }
    }
}

/// Computes `E(θ)` and the full analytic gradient `∂E/∂θ` in one adjoint
/// sweep: forward evolution of `|ψ⟩`, one `H|ψ⟩` application, and one
/// backward walk un-applying the cached dagger tape. `observable` must be
/// Hermitian for the result to be a real energy; hermiticity is the
/// caller's contract (checked upstream by the VQE drivers).
///
/// Telemetry: `grad.adjoint_runs`, `grad.adjoint_sweeps`,
/// `grad.adjoint_reductions`, `grad.adjoint_blocks`,
/// `grad.adjoint_h_passes` (amplitude passes of `H|ψ⟩`: one per flip
/// group) counters and the `grad.ms` histogram.
pub fn energy_and_gradient(
    circuit: &Circuit,
    params: &[f64],
    observable: &PauliOp,
) -> Result<AdjointGradient> {
    if observable.n_qubits() != circuit.n_qubits() {
        return Err(Error::DimensionMismatch {
            expected: circuit.n_qubits(),
            got: observable.n_qubits(),
        });
    }
    let start = std::time::Instant::now();
    let _span = nwq_telemetry::span!("grad.adjoint");
    let adj = plan_cache::adjoint_for(circuit)?;
    let tape = adj.bind(params)?;

    // Forward register: |ψ⟩ = U_N … U_1 |0⟩ at block granularity.
    let mut lam = StateVector::zero(circuit.n_qubits()).into_amplitudes();
    let mut sweeps = 0u64;
    for b in &tape.blocks {
        apply_block(&b.op, b.shapes.as_ref().map(|s| &s.0), &mut lam);
        sweeps += 1;
    }

    // Bra register: |φ⟩ = H|ψ⟩, one pass per flip group of the prepared
    // observable the readout shares; the energy falls out of the same
    // product.
    let (phi0, h_passes) = apply_prepared(observable.prepared(), &lam)?;
    let mut energy = C64::real(0.0);
    for (p, l) in lam.iter().zip(&phi0) {
        energy += p.conj() * *l;
    }
    let mut phi = phi0;

    // Backward walk: for b = N … 1, λ ← U_b†λ (= ψ_{b-1}), accumulate
    // 2·Re⟨φ_b|∂U_b|ψ_{b-1}⟩ per dependent parameter, then φ ← U_b†φ.
    let mut gradient = vec![0.0; params.len()];
    let mut reductions = 0u64;
    for b in tape.blocks.iter().rev() {
        let dag_shape = b.shapes.as_ref().map(|s| &s.1);
        apply_block(&b.dag, dag_shape, &mut lam);
        for (j, d) in tape.derivs(b) {
            gradient[*j] += 2.0 * bra_block_ket(&phi, &lam, d);
            reductions += 1;
        }
        apply_block(&b.dag, dag_shape, &mut phi);
        sweeps += 2;
    }

    let blocks = tape.blocks.len() as u64;
    nwq_telemetry::counter_add("grad.adjoint_runs", 1);
    nwq_telemetry::counter_add("grad.adjoint_sweeps", sweeps);
    nwq_telemetry::counter_add("grad.adjoint_reductions", reductions);
    nwq_telemetry::counter_add("grad.adjoint_blocks", blocks);
    nwq_telemetry::counter_add("grad.adjoint_h_passes", h_passes as u64);
    nwq_telemetry::histogram_record("grad.ms", start.elapsed().as_secs_f64() * 1e3);
    Ok(AdjointGradient {
        energy: energy.re,
        gradient,
        sweeps,
        reductions,
        blocks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::tests::shift_gradient;
    use crate::executor::{simulate_plan, Executor};
    use crate::plan::ExecPlan;
    use crate::simd;
    use nwq_circuit::ParamExpr;
    use nwq_common::{Mat2, Mat4};
    use nwq_pauli::PauliString;
    use proptest::prelude::*;
    use std::f64::consts::{FRAC_PI_2, FRAC_PI_4};

    fn fd_gradient(c: &Circuit, params: &[f64], h: &PauliOp) -> Vec<f64> {
        let eps = 1e-6;
        (0..params.len())
            .map(|i| {
                let mut p = params.to_vec();
                p[i] += eps;
                let ep = simulate_plan(c, &p).unwrap().energy(h).unwrap();
                p[i] -= 2.0 * eps;
                let em = simulate_plan(c, &p).unwrap().energy(h).unwrap();
                (ep - em) / (2.0 * eps)
            })
            .collect()
    }

    /// `⟨φ|M|λ⟩` for a single-qubit `M`: the generic index scan the
    /// shape-aware folds are held to.
    fn bra_mat2_ket(phi: &[C64], lam: &[C64], q: usize, m: &Mat2) -> C64 {
        let bit = 1usize << q;
        let mut acc = C64::real(0.0);
        for i0 in (0..phi.len()).filter(|i| i & bit == 0) {
            let i1 = i0 | bit;
            acc += phi[i0].conj() * (m.0[0][0] * lam[i0] + m.0[0][1] * lam[i1]);
            acc += phi[i1].conj() * (m.0[1][0] * lam[i0] + m.0[1][1] * lam[i1]);
        }
        acc
    }

    /// `⟨φ|M|λ⟩` for a two-qubit `M` with `hi > lo`, generic scan.
    fn bra_mat4_ket(phi: &[C64], lam: &[C64], hi: usize, lo: usize, m: &Mat4) -> C64 {
        let (bh, bl) = (1usize << hi, 1usize << lo);
        let mut acc = C64::real(0.0);
        for base in (0..phi.len()).filter(|i| i & (bh | bl) == 0) {
            let idx = [base, base | bl, base | bh, base | bh | bl];
            for r in 0..4 {
                let mut row = C64::real(0.0);
                for c in 0..4 {
                    row += m.0[r][c] * lam[idx[c]];
                }
                acc += phi[idx[r]].conj() * row;
            }
        }
        acc
    }

    /// A normalized state with broad support.
    fn wavy(n: usize, phase: f64) -> Vec<C64> {
        let v: Vec<C64> = (0..1usize << n)
            .map(|i| {
                C64::new(
                    (i as f64 * 0.37 + phase).sin(),
                    (i as f64 * 0.59 - phase).cos(),
                )
            })
            .collect();
        let norm = v.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
        v.into_iter().map(|a| a.scale(1.0 / norm)).collect()
    }

    #[test]
    fn shape_aware_folds_match_the_generic_scan() {
        use nwq_common::mat::{block_diag, mat_rx, mat_ry, mat_rz, mat_rzz};
        // Derivative-like matrices of every shape: diagonal (RZ apex),
        // dense, block-structured with zero / identity / diagonal / dense
        // sub-blocks, dense two-qubit.
        let zero = Mat2([[C64::default(); 2]; 2]);
        let subs = [zero, Mat2::identity(), mat_rz(0.8), mat_ry(-0.45)];
        for n in 2..=8usize {
            let (phi, lam) = (wavy(n, 0.3), wavy(n, -1.2));
            let check = |d: BoundBlock, want: C64, what: &str| {
                let got = bra_block_ket(&phi, &lam, &d);
                assert!(
                    (got - want.re).abs() < 1e-14,
                    "{what} n={n}: {got} vs {}",
                    want.re
                );
                simd::set_force_scalar(true);
                let scalar = bra_block_ket(&phi, &lam, &d);
                simd::set_force_scalar(false);
                assert_eq!(
                    scalar.to_bits(),
                    got.to_bits(),
                    "{what} n={n}: scalar vs SIMD"
                );
            };
            for q in 0..n {
                for m in [mat_rz(0.9), mat_rx(0.4), mat_ry(-1.3)] {
                    check(
                        BoundBlock::One(q, m),
                        bra_mat2_ket(&phi, &lam, q, &m),
                        "mat2",
                    );
                }
            }
            for hi in 1..n {
                for lo in 0..hi {
                    let mut mats = vec![mat_rzz(0.7), mat_ry(0.3).kron(&mat_rx(-0.8))];
                    for a in &subs {
                        for b in &subs {
                            mats.push(block_diag(true, a, b));
                            mats.push(block_diag(false, a, b));
                        }
                    }
                    for m in mats {
                        let what = format!("mat4 ({hi},{lo}) {:?}", mat4_shape(&m));
                        check(
                            BoundBlock::Two(hi, lo, m),
                            bra_mat4_ket(&phi, &lam, hi, lo, &m),
                            &what,
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn bound_tape_blocks_are_the_template_binds() {
        // The tape takes each parameterized block's value from its
        // derivative replay; it must be bitwise the plain bind.
        let mut c = Circuit::new(3);
        c.ry(0, ParamExpr::var(0))
            .cx(0, 1)
            .rz(1, ParamExpr::scaled_var(1, -0.5))
            .rzz(1, 2, 0.3)
            .rx(2, ParamExpr::var(0))
            .cx(2, 0);
        let theta = [0.61, -1.4];
        let adj = plan_cache::adjoint_for(&c).unwrap();
        let tape = adj.bind(&theta).unwrap();
        let bits = |b: &BoundBlock| -> Vec<u64> {
            let entries: Vec<C64> = match b {
                BoundBlock::One(_, m) => m.0.iter().flatten().copied().collect(),
                BoundBlock::Two(_, _, m) => m.0.iter().flatten().copied().collect(),
            };
            entries
                .iter()
                .flat_map(|e| [e.re.to_bits(), e.im.to_bits()])
                .collect()
        };
        for (bi, b) in tape.blocks().iter().enumerate() {
            let plain = adj.template.bind_block(bi, &theta).unwrap();
            assert_eq!(bits(&b.op), bits(&plain), "block {bi}");
        }
        assert!(tape.blocks().iter().any(|b| !tape.derivs(b).is_empty()));
    }

    #[test]
    fn adjoint_matches_shift_on_fixed_hea() {
        // Stride-1 coverage: qubit 0 carries parameterized rotations.
        let mut c = Circuit::new(3);
        c.ry(0, ParamExpr::var(0))
            .rx(1, ParamExpr::var(1))
            .cx(0, 1)
            .rz(2, ParamExpr::var(2))
            .cx(1, 2)
            .ry(0, ParamExpr::var(3));
        let h = PauliOp::parse("1.0 ZZI + 0.5 IXX + 0.25 ZIZ").unwrap();
        let theta = [0.4, -1.1, 0.75, 2.2];
        let adj = energy_and_gradient(&c, &theta, &h).unwrap();
        let shift = shift_gradient(&c, &theta, &h, FRAC_PI_2, 2.0);
        let e = simulate_plan(&c, &theta).unwrap().energy(&h).unwrap();
        assert!((adj.energy - e).abs() < 1e-12, "{} vs {e}", adj.energy);
        for (a, s) in adj.gradient.iter().zip(&shift) {
            assert!((a - s).abs() < 1e-10, "{a} vs {s}");
        }
        for (a, f) in adj.gradient.iter().zip(&fd_gradient(&c, &theta, &h)) {
            assert!((a - f).abs() < 1e-6, "{a} vs {f}");
        }
    }

    #[test]
    fn adjoint_matches_excitation_shift_on_uccsd_style_block() {
        // The committed π/4-rule scenario: exp(θ(T−T†)) via Pauli
        // exponentials with chain coefficient −2·Im(c). The π/2 rule
        // silently returns zero at HF; adjoint must match the π/4 rule.
        let mut c = Circuit::new(2);
        c.x(0);
        let gen = PauliOp::from_terms(
            2,
            vec![
                (C64::imag(0.5), PauliString::parse("XY").unwrap()),
                (C64::imag(-0.5), PauliString::parse("YX").unwrap()),
            ],
        );
        for (coeff, s) in gen.terms() {
            nwq_circuit::exp_pauli::append_exp_pauli(
                &mut c,
                s,
                ParamExpr::scaled_var(0, -2.0 * coeff.im),
            )
            .unwrap();
        }
        let h = PauliOp::parse("1.0 XX + 0.2 ZI").unwrap();
        for theta in [[0.0], [0.37], [-1.2]] {
            let adj = energy_and_gradient(&c, &theta, &h).unwrap();
            let shift = shift_gradient(&c, &theta, &h, FRAC_PI_4, 1.0);
            assert!(
                (adj.gradient[0] - shift[0]).abs() < 1e-10,
                "θ={theta:?}: {} vs {}",
                adj.gradient[0],
                shift[0]
            );
        }
    }

    #[test]
    fn cost_is_bounded_independent_of_parameter_count() {
        // UCCSD-shaped circuits (CX-ladder exponential blocks, ≪ 1
        // parameter per fused block) stay under 4 evolution-equivalents no
        // matter how many parameters are added; an HEA with every block
        // parameterized costs more per block but stays CONSTANT in P —
        // the parameter-count independence the adjoint method promises
        // (parameter-shift grows as 2·P evolutions).
        let uccsd = |n_params: usize| {
            let mut c = Circuit::new(4);
            c.x(0).x(1);
            for j in 0..n_params {
                // Full-width excitation strings (the H2 double-excitation
                // shape): the CX ladders fence the apex blocks apart, so
                // blocks ≫ parameter-dependent blocks — the regime the
                // ≤ 4-equivalents bound describes.
                let gen = PauliOp::from_terms(
                    4,
                    vec![
                        (C64::imag(0.5), PauliString::parse("XXXY").unwrap()),
                        (C64::imag(-0.5), PauliString::parse("XXYX").unwrap()),
                    ],
                );
                for (coeff, s) in gen.terms() {
                    nwq_circuit::exp_pauli::append_exp_pauli(
                        &mut c,
                        s,
                        ParamExpr::scaled_var(j, -2.0 * coeff.im),
                    )
                    .unwrap();
                }
            }
            c
        };
        let h = PauliOp::parse("1.0 ZZII + 0.3 IXXI").unwrap();
        for n_params in [1usize, 3, 8] {
            let theta: Vec<f64> = (0..n_params).map(|k| 0.1 + 0.2 * k as f64).collect();
            let adj = energy_and_gradient(&uccsd(n_params), &theta, &h).unwrap();
            assert!(
                adj.evolution_equivalents() <= 4.0,
                "P={n_params}: {} equivalents",
                adj.evolution_equivalents()
            );
        }
    }

    #[test]
    fn force_scalar_mode_produces_identical_gradient() {
        let mut c = Circuit::new(2);
        c.ry(0, ParamExpr::var(0)).cx(0, 1).rx(1, ParamExpr::var(1));
        let h = PauliOp::parse("0.7 ZZ + 0.3 XI").unwrap();
        let theta = [0.9, -0.4];
        let simd_grad = energy_and_gradient(&c, &theta, &h).unwrap();
        simd::set_force_scalar(true);
        let scalar_grad = energy_and_gradient(&c, &theta, &h);
        simd::set_force_scalar(false);
        let scalar_grad = scalar_grad.unwrap();
        assert_eq!(simd_grad.energy.to_bits(), scalar_grad.energy.to_bits());
        for (a, b) in simd_grad.gradient.iter().zip(&scalar_grad.gradient) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
    }

    #[test]
    fn dagger_tape_round_trips_the_state() {
        let mut c = Circuit::new(3);
        c.h(0)
            .ry(1, ParamExpr::var(0))
            .cx(0, 1)
            .rz(1, ParamExpr::var(1))
            .cx(1, 2)
            .rzz(0, 2, 0.7)
            .u3(2, 0.3, -0.8, 1.1)
            .sx(0);
        let theta = [0.83, -1.91];
        let plan = ExecPlan::compile(&c, &theta).unwrap();
        let mut ex = Executor::new();
        let forward = ex.run_plan(&plan).unwrap();

        // In-place inverse replay returns to |0…0⟩.
        let mut state = forward.clone();
        ex.run_plan_inverse_on(&plan, &mut state).unwrap();
        for (i, a) in state.amplitudes().iter().enumerate() {
            let expect = if i == 0 {
                C64::real(1.0)
            } else {
                C64::real(0.0)
            };
            assert!(a.approx_eq(expect, 1e-10), "amp {i}: {a:?}");
        }

        // The materialized dagger plan does the same.
        let mut state = forward.clone();
        ex.run_plan_on(&plan.dagger(), &mut state).unwrap();
        for (i, a) in state.amplitudes().iter().enumerate() {
            let expect = if i == 0 {
                C64::real(1.0)
            } else {
                C64::real(0.0)
            };
            assert!(a.approx_eq(expect, 1e-10), "amp {i}: {a:?}");
        }

        // And daggering twice reproduces the forward state.
        let again = ex.run_plan(&plan.dagger().dagger()).unwrap();
        assert!((again.fidelity(&forward).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dagger_template_is_cached_once_per_shape() {
        crate::plan_cache::clear();
        let mut c = Circuit::new(2);
        c.ry(0, ParamExpr::scaled_var(0, 2.0)).cx(0, 1);
        let a = crate::plan_cache::adjoint_for(&c).unwrap();
        let b = crate::plan_cache::adjoint_for(&c).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn mismatched_observable_width_rejected() {
        let mut c = Circuit::new(2);
        c.h(0);
        let h = PauliOp::parse("1.0 ZZZ").unwrap();
        assert!(energy_and_gradient(&c, &[], &h).is_err());
    }

    fn arb_hea(n: usize, layers: usize) -> impl Strategy<Value = (Circuit, Vec<f64>)> {
        let angles = proptest::collection::vec(-3.0..3.0f64, n * layers);
        let kinds = proptest::collection::vec(0..3u8, n * layers);
        (angles, kinds).prop_map(move |(angles, kinds)| {
            let mut c = Circuit::new(n);
            let mut p = 0usize;
            for _ in 0..layers {
                for q in 0..n {
                    match kinds[p] {
                        0 => c.rx(q, ParamExpr::var(p)),
                        1 => c.ry(q, ParamExpr::var(p)),
                        _ => c.rz(q, ParamExpr::var(p)),
                    };
                    p += 1;
                }
                for q in 0..n - 1 {
                    c.cx(q, q + 1);
                }
            }
            (c, angles)
        })
    }

    fn arb_observable(n: usize) -> impl Strategy<Value = PauliOp> {
        let term = (proptest::collection::vec(0..4u8, n), -1.0..1.0f64);
        proptest::collection::vec(term, 1..4).prop_map(move |terms| {
            PauliOp::from_terms(
                n,
                terms
                    .into_iter()
                    .map(|(axes, w)| {
                        let text: String = axes
                            .iter()
                            .map(|a| ["I", "X", "Y", "Z"][*a as usize])
                            .collect();
                        (C64::real(w), PauliString::parse(&text).unwrap())
                    })
                    .collect(),
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn adjoint_matches_shift_and_fd_on_random_hea(
            (c, theta) in arb_hea(3, 2),
            h in arb_observable(3),
        ) {
            let adj = energy_and_gradient(&c, &theta, &h).unwrap();
            let shift = shift_gradient(&c, &theta, &h, FRAC_PI_2, 2.0);
            for (a, s) in adj.gradient.iter().zip(&shift) {
                prop_assert!((a - s).abs() < 1e-10, "{} vs {}", a, s);
            }
            for (a, f) in adj.gradient.iter().zip(&fd_gradient(&c, &theta, &h)) {
                prop_assert!((a - f).abs() < 1e-5, "{} vs {}", a, f);
            }
            let e = simulate_plan(&c, &theta).unwrap().energy(&h).unwrap();
            prop_assert!((adj.energy - e).abs() < 1e-10);
        }

        #[test]
        fn adjoint_matches_excitation_shift_on_random_uccsd(
            occ in 0..2usize,
            theta in proptest::collection::vec(-1.5..1.5f64, 2),
            h in arb_observable(4),
        ) {
            // Two random-ish excitation blocks on 4 qubits sharing the
            // committed UCCSD construction (π/4-rule parameters).
            let mut c = Circuit::new(4);
            c.x(occ).x(occ + 1);
            for (j, (a, b)) in [("XY", "YX"), ("XXXY", "XXYX")].iter().enumerate() {
                let gen = PauliOp::from_terms(4, vec![
                    (C64::imag(0.5), PauliString::parse(&format!("{a:I<4}")).unwrap()),
                    (C64::imag(-0.5), PauliString::parse(&format!("{b:I<4}")).unwrap()),
                ]);
                for (coeff, s) in gen.terms() {
                    nwq_circuit::exp_pauli::append_exp_pauli(
                        &mut c, s, ParamExpr::scaled_var(j, -2.0 * coeff.im),
                    ).unwrap();
                }
            }
            let adj = energy_and_gradient(&c, &theta, &h).unwrap();
            let shift = shift_gradient(&c, &theta, &h, FRAC_PI_4, 1.0);
            for (a, s) in adj.gradient.iter().zip(&shift) {
                prop_assert!((a - s).abs() < 1e-10, "{} vs {}", a, s);
            }
            prop_assert!(adj.evolution_equivalents() <= 4.0);
        }

        #[test]
        fn inverse_replay_round_trips_random_circuits(
            (c, theta) in arb_hea(3, 2),
        ) {
            let plan = ExecPlan::compile(&c, &theta).unwrap();
            let mut ex = Executor::new();
            let mut state = ex.run_plan(&plan).unwrap();
            ex.run_plan_inverse_on(&plan, &mut state).unwrap();
            for (i, a) in state.amplitudes().iter().enumerate() {
                let expect = if i == 0 { C64::real(1.0) } else { C64::real(0.0) };
                prop_assert!(a.approx_eq(expect, 1e-10), "amp {}: {:?}", i, a);
            }
        }
    }
}
