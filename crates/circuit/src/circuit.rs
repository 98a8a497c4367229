//! Circuit container and builder.

use crate::gate::Gate;
use crate::param::ParamExpr;
use nwq_common::{Error, Result};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// An ordered list of gates on a fixed-width register, with a declared
/// variational parameter count.
#[derive(Clone, Default)]
pub struct Circuit {
    n_qubits: usize,
    n_params: usize,
    gates: Vec<Gate>,
    /// Memo of [`Circuit::shape`]: a pure function of the three fields
    /// above, so every method that changes them empties it. Clones share a
    /// filled memo.
    shape: OnceLock<Arc<Shape>>,
}

/// Equality of circuits; the memo is derived data and does not take part.
impl PartialEq for Circuit {
    fn eq(&self, other: &Self) -> bool {
        self.n_qubits == other.n_qubits
            && self.n_params == other.n_params
            && self.gates == other.gates
    }
}

impl fmt::Debug for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Circuit")
            .field("n_qubits", &self.n_qubits)
            .field("n_params", &self.n_params)
            .field("gates", &self.gates)
            .finish()
    }
}

/// A circuit's structural identity: an exact encoding of everything
/// θ-independent that shapes its compiled plan — register width, declared
/// parameter count, and each gate's variant, operands, parameter
/// expressions (constant angles included) and fused-matrix bits — plus a
/// 64-bit FNV-1a fingerprint of that encoding. Equal keys ⇔ identical
/// plan templates; the fingerprint only prunes comparisons.
#[derive(Debug)]
pub struct Shape {
    key: Vec<u64>,
    fingerprint: u64,
}

impl Shape {
    fn of(circuit: &Circuit) -> Shape {
        let key = structural_key(circuit);
        let fingerprint = fnv1a(&key);
        Shape { key, fingerprint }
    }

    /// The exact structural encoding.
    pub fn key(&self) -> &[u64] {
        &self.key
    }

    /// 64-bit FNV-1a hash of [`Shape::key`].
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

fn push_expr(key: &mut Vec<u64>, e: &ParamExpr) {
    match *e {
        ParamExpr::Const(v) => {
            key.push(0);
            key.push(v.to_bits());
        }
        ParamExpr::Var {
            index,
            coeff,
            offset,
        } => {
            key.push(1);
            key.push(index as u64);
            key.push(coeff.to_bits());
            key.push(offset.to_bits());
        }
    }
}

fn structural_key(circuit: &Circuit) -> Vec<u64> {
    // Rough capacity: tag + 2 qubits + ~4 expr words per gate.
    let mut key = Vec::with_capacity(3 + circuit.len() * 7);
    key.push(circuit.n_qubits as u64);
    key.push(circuit.n_params as u64);
    key.push(circuit.len() as u64);
    for gate in &circuit.gates {
        // The mnemonic is unique per variant and ≤ 8 bytes: pack it as
        // the variant tag.
        let mut tag = 0u64;
        for b in gate.name().bytes() {
            tag = (tag << 8) | b as u64;
        }
        key.push(tag);
        for q in gate.qubits() {
            key.push(q as u64);
        }
        for e in gate.param_exprs() {
            push_expr(&mut key, &e);
        }
        let fused: &[nwq_common::C64] = match gate {
            Gate::Fused1(_, m) => m.0.as_flattened(),
            Gate::Fused2(_, _, m) => m.0.as_flattened(),
            _ => &[],
        };
        for c in fused {
            key.push(c.re.to_bits());
            key.push(c.im.to_bits());
        }
    }
    key
}

fn fnv1a(key: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &word in key {
        for byte in word.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

impl Circuit {
    /// An empty circuit on `n_qubits` with no parameters.
    pub fn new(n_qubits: usize) -> Self {
        Circuit::with_params(n_qubits, 0)
    }

    /// An empty circuit declaring `n_params` variational parameters.
    pub fn with_params(n_qubits: usize, n_params: usize) -> Self {
        Circuit {
            n_qubits,
            n_params,
            gates: Vec::new(),
            shape: OnceLock::new(),
        }
    }

    /// The circuit's [`Shape`], built on the first call and kept on the
    /// circuit until it is next mutated: it depends on nothing but the
    /// gate list, width and parameter count, so every evaluation of one
    /// circuit pays for its key once. The build counts itself in
    /// `plan.cache.shapes_derived`, whichever caller (plan cache,
    /// checkpoint fingerprint, serving layer) reaches the memo first.
    pub fn shape(&self) -> &Arc<Shape> {
        self.shape.get_or_init(|| {
            nwq_telemetry::counter_add("plan.cache.shapes_derived", 1);
            Arc::new(Shape::of(self))
        })
    }

    /// Register width.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Declared variational parameter count.
    #[inline]
    pub fn n_params(&self) -> usize {
        self.n_params
    }

    /// Total gate count (the quantity of paper Figs 1a, 3, 4).
    #[inline]
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// `true` when the circuit has no gates.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// The gate list.
    #[inline]
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Appends a gate after validating its operands; widens the declared
    /// parameter count if the gate references a new parameter.
    pub fn push(&mut self, gate: Gate) -> Result<&mut Self> {
        gate.validate(self.n_qubits)?;
        self.shape = OnceLock::new();
        for e in gate.param_exprs() {
            if let Some(i) = e.param_index() {
                self.n_params = self.n_params.max(i + 1);
            }
        }
        self.gates.push(gate);
        Ok(self)
    }

    /// Appends a gate, panicking on invalid operands. The builder methods
    /// below use this; they are the normal construction path and operand
    /// errors there are programming bugs.
    fn push_unchecked(&mut self, gate: Gate) -> &mut Self {
        self.push(gate).expect("invalid gate operand");
        self
    }

    // --- builder methods -------------------------------------------------

    /// Pauli-X.
    pub fn x(&mut self, q: usize) -> &mut Self {
        self.push_unchecked(Gate::X(q))
    }
    /// Pauli-Y.
    pub fn y(&mut self, q: usize) -> &mut Self {
        self.push_unchecked(Gate::Y(q))
    }
    /// Pauli-Z.
    pub fn z(&mut self, q: usize) -> &mut Self {
        self.push_unchecked(Gate::Z(q))
    }
    /// Hadamard.
    pub fn h(&mut self, q: usize) -> &mut Self {
        self.push_unchecked(Gate::H(q))
    }
    /// S gate.
    pub fn s(&mut self, q: usize) -> &mut Self {
        self.push_unchecked(Gate::S(q))
    }
    /// S† gate.
    pub fn sdg(&mut self, q: usize) -> &mut Self {
        self.push_unchecked(Gate::Sdg(q))
    }
    /// T gate.
    pub fn t(&mut self, q: usize) -> &mut Self {
        self.push_unchecked(Gate::T(q))
    }
    /// T† gate.
    pub fn tdg(&mut self, q: usize) -> &mut Self {
        self.push_unchecked(Gate::Tdg(q))
    }
    /// √X gate.
    pub fn sx(&mut self, q: usize) -> &mut Self {
        self.push_unchecked(Gate::SX(q))
    }
    /// X rotation.
    pub fn rx(&mut self, q: usize, theta: impl Into<ParamExpr>) -> &mut Self {
        self.push_unchecked(Gate::RX(q, theta.into()))
    }
    /// Y rotation.
    pub fn ry(&mut self, q: usize, theta: impl Into<ParamExpr>) -> &mut Self {
        self.push_unchecked(Gate::RY(q, theta.into()))
    }
    /// Z rotation.
    pub fn rz(&mut self, q: usize, theta: impl Into<ParamExpr>) -> &mut Self {
        self.push_unchecked(Gate::RZ(q, theta.into()))
    }
    /// Phase rotation.
    pub fn p(&mut self, q: usize, lambda: impl Into<ParamExpr>) -> &mut Self {
        self.push_unchecked(Gate::P(q, lambda.into()))
    }
    /// General single-qubit unitary.
    pub fn u3(
        &mut self,
        q: usize,
        theta: impl Into<ParamExpr>,
        phi: impl Into<ParamExpr>,
        lambda: impl Into<ParamExpr>,
    ) -> &mut Self {
        self.push_unchecked(Gate::U3(q, theta.into(), phi.into(), lambda.into()))
    }
    /// CNOT.
    pub fn cx(&mut self, control: usize, target: usize) -> &mut Self {
        self.push_unchecked(Gate::CX(control, target))
    }
    /// Controlled-Z.
    pub fn cz(&mut self, a: usize, b: usize) -> &mut Self {
        self.push_unchecked(Gate::CZ(a, b))
    }
    /// Controlled-phase.
    pub fn cp(&mut self, a: usize, b: usize, lambda: impl Into<ParamExpr>) -> &mut Self {
        self.push_unchecked(Gate::CP(a, b, lambda.into()))
    }
    /// SWAP.
    pub fn swap(&mut self, a: usize, b: usize) -> &mut Self {
        self.push_unchecked(Gate::SWAP(a, b))
    }
    /// ZZ rotation.
    pub fn rzz(&mut self, a: usize, b: usize, theta: impl Into<ParamExpr>) -> &mut Self {
        self.push_unchecked(Gate::RZZ(a, b, theta.into()))
    }

    // --- combinators ------------------------------------------------------

    /// Appends all gates of `other` (same register width required). The
    /// parameter spaces are shared: θ[i] in `other` remains θ[i].
    pub fn append(&mut self, other: &Circuit) -> Result<&mut Self> {
        if other.n_qubits != self.n_qubits {
            return Err(Error::DimensionMismatch {
                expected: self.n_qubits,
                got: other.n_qubits,
            });
        }
        for g in &other.gates {
            self.push(g.clone())?;
        }
        Ok(self)
    }

    /// Appends `other` with its parameter indices shifted past this
    /// circuit's, keeping the parameter spaces disjoint. Returns the shift
    /// applied.
    pub fn append_shifted(&mut self, other: &Circuit) -> Result<usize> {
        if other.n_qubits != self.n_qubits {
            return Err(Error::DimensionMismatch {
                expected: self.n_qubits,
                got: other.n_qubits,
            });
        }
        let delta = self.n_params;
        for g in &other.gates {
            let shifted = match g.clone() {
                Gate::RX(q, e) => Gate::RX(q, e.shifted(delta)),
                Gate::RY(q, e) => Gate::RY(q, e.shifted(delta)),
                Gate::RZ(q, e) => Gate::RZ(q, e.shifted(delta)),
                Gate::P(q, e) => Gate::P(q, e.shifted(delta)),
                Gate::CP(a, b, e) => Gate::CP(a, b, e.shifted(delta)),
                Gate::RZZ(a, b, e) => Gate::RZZ(a, b, e.shifted(delta)),
                Gate::U3(q, a, b, c) => {
                    Gate::U3(q, a.shifted(delta), b.shifted(delta), c.shifted(delta))
                }
                g => g,
            };
            self.push(shifted)?;
        }
        self.shape = OnceLock::new();
        self.n_params = self.n_params.max(delta + other.n_params);
        Ok(delta)
    }

    /// The inverse circuit (gates reversed and individually inverted).
    pub fn inverse(&self) -> Circuit {
        let mut inv = Circuit::with_params(self.n_qubits, self.n_params);
        for g in self.gates.iter().rev() {
            inv.gates.push(g.inverse());
        }
        inv
    }

    /// Binds parameters, producing a fully concrete circuit.
    pub fn bind(&self, params: &[f64]) -> Result<Circuit> {
        if params.len() < self.n_params {
            return Err(Error::ParameterMismatch {
                expected: self.n_params,
                got: params.len(),
            });
        }
        let mut out = Circuit::new(self.n_qubits);
        for g in &self.gates {
            let bound = match g.clone() {
                Gate::RX(q, e) => Gate::RX(q, e.bound(params)?),
                Gate::RY(q, e) => Gate::RY(q, e.bound(params)?),
                Gate::RZ(q, e) => Gate::RZ(q, e.bound(params)?),
                Gate::P(q, e) => Gate::P(q, e.bound(params)?),
                Gate::CP(a, b, e) => Gate::CP(a, b, e.bound(params)?),
                Gate::RZZ(a, b, e) => Gate::RZZ(a, b, e.bound(params)?),
                Gate::U3(q, a, b, c) => {
                    Gate::U3(q, a.bound(params)?, b.bound(params)?, c.bound(params)?)
                }
                g => g,
            };
            out.gates.push(bound);
        }
        Ok(out)
    }

    /// `true` when no gate reads a variational parameter.
    pub fn is_concrete(&self) -> bool {
        self.gates.iter().all(|g| !g.is_symbolic())
    }

    /// Number of single-qubit gates.
    pub fn one_qubit_count(&self) -> usize {
        self.gates.iter().filter(|g| !g.is_two_qubit()).count()
    }

    /// Number of two-qubit gates.
    pub fn two_qubit_count(&self) -> usize {
        self.gates.iter().filter(|g| g.is_two_qubit()).count()
    }

    /// Circuit depth: the longest chain of gates sharing qubits, computed
    /// with per-qubit frontier layers.
    pub fn depth(&self) -> usize {
        let mut layer = vec![0usize; self.n_qubits];
        let mut depth = 0;
        for g in &self.gates {
            let qs = g.qubits();
            let next = qs.iter().map(|&q| layer[q]).max().unwrap_or(0) + 1;
            for &q in &qs {
                layer[q] = next;
            }
            depth = depth.max(next);
        }
        depth
    }

    /// Histogram of gate mnemonics.
    pub fn gate_histogram(&self) -> std::collections::BTreeMap<&'static str, usize> {
        let mut h = std::collections::BTreeMap::new();
        for g in &self.gates {
            *h.entry(g.name()).or_insert(0) += 1;
        }
        h
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Circuit: {} qubits, {} params, {} gates (depth {})",
            self.n_qubits,
            self.n_params,
            self.gates.len(),
            self.depth()
        )?;
        for (name, count) in self.gate_histogram() {
            writeln!(f, "  {name}: {count}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::ParamExpr;

    fn bell() -> Circuit {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        c
    }

    #[test]
    fn builder_chains() {
        let c = bell();
        assert_eq!(c.len(), 2);
        assert_eq!(c.n_qubits(), 2);
        assert_eq!(c.one_qubit_count(), 1);
        assert_eq!(c.two_qubit_count(), 1);
    }

    #[test]
    fn push_validates() {
        let mut c = Circuit::new(2);
        assert!(c.push(Gate::H(5)).is_err());
        assert!(c.push(Gate::CX(0, 0)).is_err());
        assert!(c.push(Gate::CX(0, 1)).is_ok());
    }

    #[test]
    fn param_count_tracks_max_index() {
        let mut c = Circuit::new(1);
        c.rz(0, ParamExpr::var(4));
        assert_eq!(c.n_params(), 5);
        c.rx(0, ParamExpr::var(1));
        assert_eq!(c.n_params(), 5);
    }

    #[test]
    fn append_shares_params() {
        let mut a = Circuit::new(1);
        a.rz(0, ParamExpr::var(0));
        let mut b = Circuit::new(1);
        b.rx(0, ParamExpr::var(0));
        a.append(&b).unwrap();
        assert_eq!(a.n_params(), 1);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn append_shifted_disjoint_params() {
        let mut a = Circuit::new(1);
        a.rz(0, ParamExpr::var(0));
        let mut b = Circuit::new(1);
        b.rx(0, ParamExpr::var(0));
        let delta = a.append_shifted(&b).unwrap();
        assert_eq!(delta, 1);
        assert_eq!(a.n_params(), 2);
        match a.gates()[1] {
            Gate::RX(_, ParamExpr::Var { index, .. }) => assert_eq!(index, 1),
            ref g => panic!("unexpected {g:?}"),
        }
    }

    #[test]
    fn append_rejects_width_mismatch() {
        let mut a = Circuit::new(2);
        assert!(a.append(&Circuit::new(3)).is_err());
    }

    #[test]
    fn bind_freezes_parameters() {
        let mut c = Circuit::new(1);
        c.rz(0, ParamExpr::scaled_var(0, 2.0));
        assert!(!c.is_concrete());
        let b = c.bind(&[0.5]).unwrap();
        assert!(b.is_concrete());
        match b.gates()[0] {
            Gate::RZ(_, ParamExpr::Const(v)) => assert!((v - 1.0).abs() < 1e-12),
            ref g => panic!("unexpected {g:?}"),
        }
        assert!(c.bind(&[]).is_err());
    }

    #[test]
    fn inverse_reverses_and_inverts() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).s(1);
        let inv = c.inverse();
        assert_eq!(inv.gates()[0], Gate::Sdg(1));
        assert_eq!(inv.gates()[1], Gate::CX(0, 1));
        assert_eq!(inv.gates()[2], Gate::H(0));
    }

    #[test]
    fn depth_computation() {
        // H(0), H(1) are parallel -> depth 1; CX then joins -> depth 2.
        let mut c = Circuit::new(2);
        c.h(0).h(1).cx(0, 1);
        assert_eq!(c.depth(), 2);
        // A serial chain on one qubit.
        let mut c = Circuit::new(1);
        c.h(0).t(0).h(0);
        assert_eq!(c.depth(), 3);
        assert_eq!(Circuit::new(3).depth(), 0);
    }

    #[test]
    fn histogram_counts() {
        let mut c = Circuit::new(2);
        c.h(0).h(1).cx(0, 1);
        let h = c.gate_histogram();
        assert_eq!(h["h"], 2);
        assert_eq!(h["cx"], 1);
    }

    #[test]
    fn shape_memo_is_shared_by_clones_and_dropped_by_every_mutation() {
        let mut c = bell_ry();
        let first = c.shape().clone();
        assert!(Arc::ptr_eq(c.shape(), &first));
        // A clone of a keyed circuit shares the key …
        let twin = c.clone();
        assert!(Arc::ptr_eq(twin.shape(), &first));
        // … and equality never looks at the memo.
        assert_eq!(twin, bell_ry());
        assert!(bell_ry().shape.get().is_none());

        c.push(Gate::H(1)).unwrap();
        let pushed = c.shape().clone();
        assert_ne!(pushed.key(), first.key());
        c.append(&bell()).unwrap();
        let appended = c.shape().clone();
        assert_ne!(appended.key(), pushed.key());
        // Appending a gate-free circuit only widens the parameter count:
        // no push runs, yet the key must still change.
        c.append_shifted(&Circuit::with_params(2, 3)).unwrap();
        assert_ne!(c.shape().key(), appended.key());
        // The clone taken before the edits keeps the original key.
        assert!(Arc::ptr_eq(twin.shape(), &first));
    }

    #[test]
    fn equal_circuits_built_apart_have_equal_shapes() {
        let (a, b) = (bell_ry(), bell_ry());
        let (sa, sb) = (a.shape(), b.shape());
        assert!(!Arc::ptr_eq(sa, sb));
        assert_eq!(sa.key(), sb.key());
        assert_eq!(sa.fingerprint(), sb.fingerprint());
        // A different constant angle is a different shape.
        let mut c = Circuit::new(2);
        c.ry(0, 0.5).cx(0, 1);
        assert_ne!(c.shape().fingerprint(), sa.fingerprint());
    }

    fn bell_ry() -> Circuit {
        let mut c = Circuit::new(2);
        c.ry(0, ParamExpr::var(0)).cx(0, 1);
        c
    }

    #[test]
    fn display_contains_summary() {
        let s = bell().to_string();
        assert!(s.contains("2 qubits"));
        assert!(s.contains("2 gates"));
    }
}
