//! Property tests: compiled-plan execution is numerically identical to
//! gate-by-gate execution of the same circuit at the same parameters, and
//! the structure/bind split is *bitwise* inert — a template bound against
//! θ produces exactly the bits a cold compile of the same circuit would.
//!
//! The generator biases toward the plan compiler's interesting paths:
//! diagonal runs (RZ/CZ/CP/RZZ chains → `DiagSweep` coalescing), 1q→2q
//! merges (single-qubit gates absorbed into CX/CZ blocks), and symbolic
//! parameters bound at bind time. Register widths 2–8 stay on the
//! serial kernels; a deterministic 13-qubit case crosses the parallel
//! dispatch thresholds.

use nwq_circuit::{Circuit, ParamExpr};
use nwq_statevec::cache::PostAnsatzCache;
use nwq_statevec::kernels::DiagFactor;
use nwq_statevec::{plan_cache, simulate, simulate_plan, ExecPlan, Executor, PlanOp, PlanTemplate};
use proptest::prelude::*;

const N_PARAMS: usize = 4;

/// A parameterized circuit: some angles are constants, some reference one
/// of `N_PARAMS` shared variational parameters (scaled, so distinct gates
/// bind to distinct values).
fn arb_symbolic_circuit(n: usize, max_len: usize) -> impl Strategy<Value = Circuit> {
    let gate = (
        0..12u8,
        0..n,
        1..n.max(2),
        -3.0..3.0f64,
        0..N_PARAMS,
        proptest::bool::ANY,
    );
    proptest::collection::vec(gate, 0..max_len).prop_map(move |specs| {
        let mut c = Circuit::with_params(n, N_PARAMS);
        for (kind, q, dq, angle, var, symbolic) in specs {
            let q2 = (q + dq) % n;
            let expr = if symbolic {
                ParamExpr::scaled_var(var, if angle == 0.0 { 1.0 } else { angle })
            } else {
                ParamExpr::Const(angle)
            };
            match kind {
                // Diagonal-heavy arms: exercise DiagSweep coalescing.
                0 => c.rz(q, expr),
                1 if q2 != q => c.cz(q, q2),
                2 if q2 != q => c.rzz(q, q2, expr),
                3 if q2 != q => c.cp(q, q2, expr),
                4 => c.s(q),
                // Non-diagonal 1q: exercise 1q→1q and 1q→2q merges.
                5 => c.h(q),
                6 => c.ry(q, expr),
                7 => c.sx(q),
                8 => c.u3(q, angle, angle * 0.5, -angle),
                // 2q entanglers: merge targets for pending 1q blocks.
                9 if q2 != q => c.cx(q, q2),
                10 if q2 != q => c.swap(q, q2),
                _ => c.rx(q, expr),
            };
        }
        c
    })
}

fn arb_params() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-3.0..3.0f64, N_PARAMS)
}

/// Exact bit-level encoding of a plan: op kinds, operands, every matrix
/// element and diagonal factor as raw f64 bits. Two plans with equal
/// encodings execute identically down to the last ulp.
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

fn state_bits(s: &nwq_statevec::StateVector) -> Vec<u64> {
    s.amplitudes()
        .iter()
        .flat_map(|a| [a.re.to_bits(), a.im.to_bits()])
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn plan_matches_gate_by_gate(
        (c, theta) in (2..=8usize).prop_flat_map(|n| (arb_symbolic_circuit(n, 32), arb_params()))
    ) {
        let via_plan = simulate_plan(&c, &theta).unwrap();
        let gate_by_gate = simulate(&c.bind(&theta).unwrap(), &[]).unwrap();
        for (a, b) in via_plan.amplitudes().iter().zip(gate_by_gate.amplitudes()) {
            prop_assert!(a.approx_eq(*b, 1e-12), "{a} vs {b}");
        }
    }

    #[test]
    fn plan_never_does_more_sweeps_than_gates(
        (c, theta) in (2..=6usize).prop_flat_map(|n| (arb_symbolic_circuit(n, 24), arb_params()))
    ) {
        let plan = ExecPlan::compile(&c, &theta).unwrap();
        prop_assert!(plan.len() <= c.len());
        prop_assert_eq!(plan.stats().gates_in, c.len());
        prop_assert_eq!(plan.stats().ops, plan.len());
        // Sweeps carry at least one factor and every factor range stays in
        // bounds of the plan's flat factor table.
        for op in plan.ops() {
            if let PlanOp::DiagSweep { start, len, .. } = op {
                prop_assert!(*len >= 1);
                prop_assert!(start + len <= plan.factors().len());
            }
        }
    }

    /// The tentpole invariant: binding a prebuilt template is BITWISE
    /// identical to a cold, uncached compile — same ops, same matrices,
    /// same factors, and (therefore) the same amplitudes. Also covers the
    /// scratch-reuse path (`bind_into` on a dirty plan) and the global
    /// template cache path (`ExecPlan::compile`): a cache hit may never
    /// change a single bit of the result.
    #[test]
    fn template_bind_is_bitwise_cold_compile(
        (c, theta1, theta2) in (2..=7usize).prop_flat_map(
            |n| (arb_symbolic_circuit(n, 28), arb_params(), arb_params()))
    ) {
        let cold = ExecPlan::compile_uncached(&c, &theta1).unwrap();
        let template = PlanTemplate::build(&c).unwrap();
        let bound = template.bind(&theta1).unwrap();
        prop_assert_eq!(plan_bits(&cold), plan_bits(&bound));

        // Dirty the scratch with a different θ, then rebind θ1: the reused
        // allocations must not leak a single bit.
        let mut scratch = ExecPlan::empty();
        template.bind_into(&theta2, &mut scratch).unwrap();
        template.bind_into(&theta1, &mut scratch).unwrap();
        prop_assert_eq!(plan_bits(&cold), plan_bits(&scratch));

        // The cached entry (warm or cold — other tests share the global
        // cache) must return the same bits as the uncached compile.
        let via_cache = ExecPlan::compile(&c, &theta1).unwrap();
        prop_assert_eq!(plan_bits(&cold), plan_bits(&via_cache));

        // And execution of template-bound vs cold plans is bitwise equal.
        let mut ex = Executor::new();
        let a = ex.run_plan(&cold).unwrap();
        let b = ex.run_plan(&scratch).unwrap();
        prop_assert_eq!(state_bits(&a), state_bits(&b));

        // Mutating a circuit the cache has already keyed must drop its
        // memoised shape: the cached compile follows the new gate list.
        let mut c = c;
        c.h(0).rz(1, ParamExpr::var(1));
        let mutated = ExecPlan::compile(&c, &theta1).unwrap();
        prop_assert_eq!(
            plan_bits(&ExecPlan::compile_uncached(&c, &theta1).unwrap()),
            plan_bits(&mutated)
        );
    }

    /// The post-ansatz cache's plan path (template → scratch bind → run)
    /// produces bitwise the state of a cold compile-and-run, on both a
    /// fresh cache and one whose scratch plan is dirty from another θ.
    #[test]
    fn post_ansatz_cache_plan_path_is_bitwise_cold(
        (c, theta1, theta2) in (2..=6usize).prop_flat_map(
            |n| (arb_symbolic_circuit(n, 20), arb_params(), arb_params()))
    ) {
        let mut ex = Executor::new();
        let cold_plan = ExecPlan::compile_uncached(&c, &theta1).unwrap();
        let cold = ex.run_plan(&cold_plan).unwrap();

        let mut cache = PostAnsatzCache::new();
        // Dirty the scratch plan with θ2 first, then prepare θ1.
        cache.get_or_prepare_plan(&c, &theta2, &mut ex).unwrap();
        let via_cache = cache.get_or_prepare_plan(&c, &theta1, &mut ex).unwrap();
        prop_assert_eq!(state_bits(&cold), state_bits(via_cache));
    }
}

/// Deterministic wide-register cases, one width each side of the dispatch
/// floor: at `PAR_MIN_AMPS` amplitudes a multi-thread pool splits every
/// sweep of the plan (the coalesced diag sweep included), one qubit below
/// it none.
#[test]
fn plan_matches_gate_by_gate_either_side_of_the_dispatch_floor() {
    let floor = nwq_common::PAR_MIN_AMPS.trailing_zeros() as usize;
    for n in [floor - 1, floor] {
        wide_plan_matches_gate_by_gate(n);
    }
}

fn wide_plan_matches_gate_by_gate(n: usize) {
    let mut c = Circuit::with_params(n, 2);
    for q in 0..n {
        c.h(q);
    }
    for q in 0..n - 1 {
        c.cx(q, q + 1);
    }
    // A diagonal run over scattered qubits: coalesces into one sweep.
    c.rz(0, ParamExpr::var(0));
    c.rz(5, ParamExpr::scaled_var(1, -0.5));
    c.cz(2, 9).rzz(3, 11, 0.77).cp(n - 1, 4, -1.1);
    // Trailing mixers so the diagonals sit mid-circuit.
    c.ry(6, ParamExpr::var(1)).h(n - 1);
    let theta = [0.93, -1.37];

    let plan = ExecPlan::compile(&c, &theta).unwrap();
    assert!(
        plan.ops()
            .iter()
            .any(|op| matches!(op, PlanOp::DiagSweep { .. })),
        "expected a coalesced diagonal sweep in {:?} ops",
        plan.len()
    );
    assert!(plan.len() < c.len());

    let mut ex = Executor::new();
    let via_plan = ex.run_plan(&plan).unwrap();
    assert_eq!(ex.stats().fused_blocks, plan.len() as u64);
    let gate_by_gate = simulate(&c.bind(&theta).unwrap(), &[]).unwrap();
    for (a, b) in via_plan.amplitudes().iter().zip(gate_by_gate.amplitudes()) {
        assert!(a.approx_eq(*b, 1e-12), "{a} vs {b}");
    }
}

/// Clearing the global template cache and rebuilding must reproduce the
/// exact same plan bits — the cache can never be load-bearing for values.
#[test]
fn template_cache_clear_and_rebuild_is_bitwise_stable() {
    let mut c = Circuit::with_params(3, 2);
    c.h(0)
        .ry(1, ParamExpr::var(0))
        .cx(0, 1)
        .rz(2, ParamExpr::var(1))
        .cz(1, 2)
        .rzz(0, 2, 0.31);
    let theta = [0.41, -2.2];
    let before = ExecPlan::compile(&c, &theta).unwrap();
    plan_cache::clear();
    let after = ExecPlan::compile(&c, &theta).unwrap();
    assert_eq!(plan_bits(&before), plan_bits(&after));
}
