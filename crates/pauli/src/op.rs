//! Sparse sums of Pauli strings — the observable type of the whole stack.
//!
//! A molecular Hamiltonian after Jordan–Wigner transformation is a sum of
//! thousands to tens of thousands of weighted Pauli strings (paper Fig 1b).
//! `PauliOp` keeps terms in a canonically sorted, combined form so that term
//! counts are meaningful and algebra (sums, products, commutators) stays
//! bounded.

use crate::prepared::{PreparedObservable, TABLE_BUDGET_BYTES};
use crate::string::PauliString;
use nwq_common::{Error, Result, C64, C_ZERO};
use std::collections::HashMap;
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};
use std::sync::{Arc, OnceLock};

/// Default magnitude below which terms are dropped during simplification.
pub const DEFAULT_TRUNCATION: f64 = 1e-12;

/// A weighted sum of Pauli strings over a fixed register width.
#[derive(Clone)]
pub struct PauliOp {
    n_qubits: usize,
    /// Terms sorted by string, with unique strings and no negligible
    /// coefficients (invariant maintained by `simplify`).
    terms: Vec<(C64, PauliString)>,
    /// Memo of [`PauliOp::prepared`]: a pure function of `terms`, so every
    /// method that changes `terms` empties it. Clones share a filled memo.
    prepared: OnceLock<Arc<PreparedObservable>>,
}

/// Equality of operators; the memo is derived data and does not take part.
impl PartialEq for PauliOp {
    fn eq(&self, other: &Self) -> bool {
        self.n_qubits == other.n_qubits && self.terms == other.terms
    }
}

impl PauliOp {
    /// The zero operator.
    pub fn zero(n_qubits: usize) -> Self {
        PauliOp {
            n_qubits,
            terms: Vec::new(),
            prepared: OnceLock::new(),
        }
    }

    /// The identity operator scaled by `c`.
    pub fn scalar(n_qubits: usize, c: C64) -> Self {
        PauliOp::from_terms(n_qubits, vec![(c, PauliString::identity(n_qubits))])
    }

    /// A single weighted string.
    pub fn single(coeff: C64, string: PauliString) -> Self {
        PauliOp::from_terms(string.n_qubits(), vec![(coeff, string)])
    }

    /// Builds an operator from raw terms, combining duplicates and dropping
    /// negligible coefficients.
    pub fn from_terms(n_qubits: usize, terms: Vec<(C64, PauliString)>) -> Self {
        let mut op = PauliOp {
            n_qubits,
            terms,
            prepared: OnceLock::new(),
        };
        op.simplify(DEFAULT_TRUNCATION);
        op
    }

    /// Parses a sum like `"0.5 ZZ + 0.25 XX - 1.0 IZ"`. Whitespace-separated
    /// `±`, coefficient, label triples; coefficients are real.
    pub fn parse(text: &str) -> Result<Self> {
        let cleaned = text.replace('+', " + ").replace('-', " - ");
        let tokens: Vec<&str> = cleaned.split_whitespace().collect();
        let mut terms: Vec<(f64, &str)> = Vec::new();
        let mut sign = 1.0;
        let mut pending_coeff: Option<f64> = None;
        for tok in tokens {
            match tok {
                "+" => sign = 1.0,
                "-" => sign = -1.0,
                _ => {
                    if let Ok(v) = tok.parse::<f64>() {
                        if pending_coeff.is_some() {
                            return Err(Error::Invalid(format!(
                                "two consecutive coefficients near {tok:?}"
                            )));
                        }
                        pending_coeff = Some(sign * v);
                        sign = 1.0;
                    } else {
                        let c = pending_coeff.take().unwrap_or(sign);
                        terms.push((c, tok));
                        sign = 1.0;
                    }
                }
            }
        }
        if pending_coeff.is_some() {
            return Err(Error::Invalid("trailing coefficient with no label".into()));
        }
        if terms.is_empty() {
            return Err(Error::Invalid("no terms".into()));
        }
        let n = terms[0].1.chars().count();
        let mut parsed = Vec::with_capacity(terms.len());
        for (c, lbl) in terms {
            if lbl.chars().count() != n {
                return Err(Error::DimensionMismatch {
                    expected: n,
                    got: lbl.chars().count(),
                });
            }
            parsed.push((C64::real(c), PauliString::parse(lbl)?));
        }
        Ok(PauliOp::from_terms(n, parsed))
    }

    /// Register width.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Number of (combined, non-negligible) terms. This is the quantity
    /// plotted in paper Fig 1b.
    #[inline]
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// Immutable view of the terms.
    #[inline]
    pub fn terms(&self) -> &[(C64, PauliString)] {
        &self.terms
    }

    /// `true` when there are no terms.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// Coefficient of the identity string (0 if absent).
    pub fn identity_coeff(&self) -> C64 {
        self.terms
            .iter()
            .find(|(_, s)| s.is_identity())
            .map(|(c, _)| *c)
            .unwrap_or(C_ZERO)
    }

    /// Combines duplicate strings, drops terms with |coeff| ≤ `tol`, and
    /// restores sorted order.
    pub fn simplify(&mut self, tol: f64) {
        if self.terms.is_empty() {
            return;
        }
        self.prepared = OnceLock::new();
        self.terms.sort_unstable_by_key(|a| a.1);
        let mut out: Vec<(C64, PauliString)> = Vec::with_capacity(self.terms.len());
        for &(c, s) in &self.terms {
            match out.last_mut() {
                Some((acc, last)) if *last == s => *acc += c,
                _ => out.push((c, s)),
            }
        }
        out.retain(|(c, _)| c.norm() > tol);
        self.terms = out;
    }

    /// Removes terms with |coeff| ≤ `tol`, returning the number removed.
    pub fn truncate(&mut self, tol: f64) -> usize {
        let before = self.terms.len();
        self.terms.retain(|(c, _)| c.norm() > tol);
        self.prepared = OnceLock::new();
        before - self.terms.len()
    }

    /// The operator's [`PreparedObservable`] — flip-mask grouping plus the
    /// phase tables that fit [`TABLE_BUDGET_BYTES`] — built on the first
    /// call and kept on the operator: it depends on nothing but the terms,
    /// so it lives and dies with them, needs no key and no eviction.
    ///
    /// The build that makes tables counts them in `expval.tables_built` /
    /// `expval.table_bytes`, whichever caller (readout, `apply_op`,
    /// adjoint) reaches the memo first.
    pub fn prepared(&self) -> &PreparedObservable {
        self.prepared.get_or_init(|| {
            let built = PreparedObservable::with_budget(self, TABLE_BUDGET_BYTES);
            if built.num_tables() > 0 {
                nwq_telemetry::counter_add("expval.tables_built", 1);
                nwq_telemetry::counter_add("expval.table_bytes", built.table_bytes() as u64);
            }
            Arc::new(built)
        })
    }

    /// Scales all coefficients by `k`.
    pub fn scaled(&self, k: C64) -> Self {
        let terms = self.terms.iter().map(|&(c, s)| (c * k, s)).collect();
        PauliOp::from_terms(self.n_qubits, terms)
    }

    /// Hermitian conjugate (conjugates coefficients; strings are Hermitian).
    pub fn dagger(&self) -> Self {
        let terms = self.terms.iter().map(|&(c, s)| (c.conj(), s)).collect();
        PauliOp::from_terms(self.n_qubits, terms)
    }

    /// `true` when the operator is Hermitian within `tol` (all coefficients
    /// real up to `tol`).
    pub fn is_hermitian(&self, tol: f64) -> bool {
        self.terms.iter().all(|(c, _)| c.im.abs() <= tol)
    }

    /// `true` when the operator is anti-Hermitian within `tol`.
    pub fn is_anti_hermitian(&self, tol: f64) -> bool {
        self.terms.iter().all(|(c, _)| c.re.abs() <= tol)
    }

    /// Sum of coefficient magnitudes (the induced 1-norm bound).
    pub fn one_norm(&self) -> f64 {
        self.terms.iter().map(|(c, _)| c.norm()).sum()
    }

    /// Largest coefficient magnitude.
    pub fn max_coeff(&self) -> f64 {
        self.terms.iter().map(|(c, _)| c.norm()).fold(0.0, f64::max)
    }

    /// Operator product via the symplectic string product. Cost is
    /// O(|A|·|B|) string multiplications; the result is simplified.
    pub fn mul_op(&self, rhs: &PauliOp) -> Result<PauliOp> {
        if self.n_qubits != rhs.n_qubits {
            return Err(Error::DimensionMismatch {
                expected: self.n_qubits,
                got: rhs.n_qubits,
            });
        }
        let mut acc: HashMap<PauliString, C64> =
            HashMap::with_capacity(self.terms.len().max(rhs.terms.len()));
        for &(ca, sa) in &self.terms {
            for &(cb, sb) in &rhs.terms {
                let (ph, s) = sa.mul(&sb);
                let c = ca * cb * ph.to_c64();
                *acc.entry(s).or_insert(C_ZERO) += c;
            }
        }
        let terms: Vec<_> = acc.into_iter().map(|(s, c)| (c, s)).collect();
        Ok(PauliOp::from_terms(self.n_qubits, terms))
    }

    /// Commutator `[self, rhs] = self·rhs − rhs·self`, computed term-wise:
    /// commuting string pairs are skipped entirely, which matters for the
    /// downfolding expansions (paper Eq. 2).
    pub fn commutator(&self, rhs: &PauliOp) -> Result<PauliOp> {
        if self.n_qubits != rhs.n_qubits {
            return Err(Error::DimensionMismatch {
                expected: self.n_qubits,
                got: rhs.n_qubits,
            });
        }
        let mut acc: HashMap<PauliString, C64> = HashMap::new();
        for &(ca, sa) in &self.terms {
            for &(cb, sb) in &rhs.terms {
                if sa.commutes_with(&sb) {
                    continue;
                }
                // For anticommuting strings [A,B] = 2AB.
                let (ph, s) = sa.mul(&sb);
                let c = ca * cb * ph.to_c64() * 2.0;
                *acc.entry(s).or_insert(C_ZERO) += c;
            }
        }
        let terms: Vec<_> = acc.into_iter().map(|(s, c)| (c, s)).collect();
        Ok(PauliOp::from_terms(self.n_qubits, terms))
    }

    /// Extends the operator to a wider register (identity on new qubits).
    pub fn resized(&self, n: usize) -> Result<PauliOp> {
        let mut terms = Vec::with_capacity(self.terms.len());
        for &(c, s) in &self.terms {
            terms.push((c, s.resized(n)?));
        }
        Ok(PauliOp::from_terms(n, terms))
    }
}

impl Add for &PauliOp {
    type Output = PauliOp;
    fn add(self, rhs: &PauliOp) -> PauliOp {
        assert_eq!(self.n_qubits, rhs.n_qubits, "register width mismatch");
        let mut terms = self.terms.clone();
        terms.extend_from_slice(&rhs.terms);
        PauliOp::from_terms(self.n_qubits, terms)
    }
}

impl Sub for &PauliOp {
    type Output = PauliOp;
    fn sub(self, rhs: &PauliOp) -> PauliOp {
        assert_eq!(self.n_qubits, rhs.n_qubits, "register width mismatch");
        let mut terms = self.terms.clone();
        terms.extend(rhs.terms.iter().map(|&(c, s)| (-c, s)));
        PauliOp::from_terms(self.n_qubits, terms)
    }
}

impl Neg for &PauliOp {
    type Output = PauliOp;
    fn neg(self) -> PauliOp {
        self.scaled(-nwq_common::C_ONE)
    }
}

impl Mul<f64> for &PauliOp {
    type Output = PauliOp;
    fn mul(self, k: f64) -> PauliOp {
        self.scaled(C64::real(k))
    }
}

impl fmt::Debug for PauliOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PauliOp[{} qubits, {} terms]",
            self.n_qubits,
            self.terms.len()
        )
    }
}

impl fmt::Display for PauliOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            return write!(f, "0");
        }
        for (i, (c, s)) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            write!(f, "({c}) {s}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nwq_common::{C_I, C_ONE};

    fn op(text: &str) -> PauliOp {
        PauliOp::parse(text).unwrap()
    }

    #[test]
    fn parse_toy_hamiltonian() {
        // The paper's Eq. 4 toy Hamiltonian H = Z⊗Z + X⊗X.
        let h = op("1.0 ZZ + 1.0 XX");
        assert_eq!(h.n_qubits(), 2);
        assert_eq!(h.num_terms(), 2);
        assert!(h.is_hermitian(1e-12));
    }

    #[test]
    fn parse_signs_and_bare_labels() {
        let h = op("ZZ - 0.5 XI");
        assert_eq!(h.num_terms(), 2);
        let zz = PauliString::parse("ZZ").unwrap();
        let xi = PauliString::parse("XI").unwrap();
        let coeff = |s| h.terms().iter().find(|(_, t)| *t == s).unwrap().0;
        assert!(coeff(zz).approx_eq(C_ONE, 1e-12));
        assert!(coeff(xi).approx_eq(C64::real(-0.5), 1e-12));
    }

    #[test]
    fn parse_rejects_mixed_widths() {
        assert!(PauliOp::parse("1.0 ZZ + 1.0 X").is_err());
        assert!(PauliOp::parse("").is_err());
        assert!(PauliOp::parse("2.0").is_err());
    }

    #[test]
    fn duplicates_combine_and_cancel() {
        let h = op("0.5 ZZ + 0.5 ZZ");
        assert_eq!(h.num_terms(), 1);
        assert!(h.terms()[0].0.approx_eq(C_ONE, 1e-12));
        let zero = op("1.0 XY - 1.0 XY");
        assert!(zero.is_zero());
        assert_eq!(zero.num_terms(), 0);
    }

    #[test]
    fn addition_and_subtraction() {
        let a = op("1.0 ZZ");
        let b = op("1.0 XX");
        let h = &a + &b;
        assert_eq!(h.num_terms(), 2);
        let d = &h - &a;
        assert_eq!(d, b);
        let n = -&a;
        assert!((&a + &n).is_zero());
    }

    #[test]
    fn scalar_and_identity_coeff() {
        let s = PauliOp::scalar(3, C64::real(2.5));
        assert_eq!(s.num_terms(), 1);
        assert!(s.identity_coeff().approx_eq(C64::real(2.5), 1e-12));
        assert!(op("1.0 XX").identity_coeff().approx_eq(C_ZERO, 1e-12));
    }

    #[test]
    fn product_single_strings() {
        // (X)(Y) = iZ as operators.
        let x = op("1.0 X");
        let y = op("1.0 Y");
        let p = x.mul_op(&y).unwrap();
        assert_eq!(p.num_terms(), 1);
        let (c, s) = p.terms()[0];
        assert_eq!(s.label(), "Z");
        assert!(c.approx_eq(C_I, 1e-12));
    }

    #[test]
    fn product_distributes() {
        let a = op("1.0 XI + 1.0 IZ");
        let b = op("0.5 ZI");
        let p = a.mul_op(&b).unwrap();
        // XI·ZI = -i YI ; IZ·ZI = ZZ.
        assert_eq!(p.num_terms(), 2);
        let yi = p.terms().iter().find(|(_, s)| s.label() == "YI").unwrap();
        assert!(yi.0.approx_eq(C64::imag(-0.5), 1e-12));
        let zz = p.terms().iter().find(|(_, s)| s.label() == "ZZ").unwrap();
        assert!(zz.0.approx_eq(C64::real(0.5), 1e-12));
    }

    #[test]
    fn operator_square_of_toy_hamiltonian() {
        // H = ZZ + XX, H² = 2·I + 2·(ZZ·XX) = 2 I − 2 YY.
        let h = op("1.0 ZZ + 1.0 XX");
        let h2 = h.mul_op(&h).unwrap();
        assert_eq!(h2.num_terms(), 2);
        assert!(h2.identity_coeff().approx_eq(C64::real(2.0), 1e-12));
        let yy = h2.terms().iter().find(|(_, s)| s.label() == "YY").unwrap();
        assert!(yy.0.approx_eq(C64::real(-2.0), 1e-12));
    }

    #[test]
    fn commutator_basics() {
        // [X, Y] = 2iZ.
        let c = op("1.0 X").commutator(&op("1.0 Y")).unwrap();
        assert_eq!(c.num_terms(), 1);
        assert!(c.terms()[0].0.approx_eq(C64::imag(2.0), 1e-12));
        assert_eq!(c.terms()[0].1.label(), "Z");
        // Commuting operators give zero.
        assert!(op("1.0 ZZ").commutator(&op("1.0 XX")).unwrap().is_zero());
        // [A, A] = 0.
        let h = op("1.0 ZZ + 0.3 XI");
        assert!(h.commutator(&h).unwrap().is_zero());
    }

    #[test]
    fn commutator_matches_products() {
        let a = op("1.0 XY + 0.5 ZI");
        let b = op("0.7 YI - 0.2 XZ");
        let direct = &a.mul_op(&b).unwrap() - &b.mul_op(&a).unwrap();
        let comm = a.commutator(&b).unwrap();
        assert_eq!(direct, comm);
    }

    #[test]
    fn hermiticity_checks() {
        assert!(op("1.0 ZZ + 2.0 XX").is_hermitian(1e-12));
        let anti = PauliOp::single(C_I, PauliString::parse("XY").unwrap());
        assert!(anti.is_anti_hermitian(1e-12));
        assert!(!anti.is_hermitian(1e-12));
        // dagger of anti-Hermitian is its negation.
        assert_eq!(anti.dagger(), -&anti);
    }

    #[test]
    fn norms_and_truncation() {
        let mut h = op("0.5 ZZ + 0.25 XX");
        assert!((h.one_norm() - 0.75).abs() < 1e-12);
        assert!((h.max_coeff() - 0.5).abs() < 1e-12);
        assert_eq!(h.truncate(0.3), 1);
        assert_eq!(h.num_terms(), 1);
    }

    #[test]
    fn prepared_is_built_once_shared_by_clones_and_dropped_by_edits() {
        let mut h = op("0.5 ZZ + 0.25 XX + 0.001 YY");
        let first = h.prepared() as *const _;
        assert!(std::ptr::eq(h.prepared(), first));
        // A clone of a prepared operator shares the preparation …
        let twin = h.clone();
        assert!(std::ptr::eq(twin.prepared(), first));
        // … and keeps it when the original's terms change.
        assert_eq!(h.truncate(0.01), 1);
        assert_eq!(h.prepared().groups()[1].terms.len(), 1);
        assert_eq!(twin.prepared().groups()[1].terms.len(), 2);
        assert!(std::ptr::eq(twin.prepared(), first));
        h.simplify(0.3);
        assert_eq!(h.prepared().groups().len(), 1);
        // The memo is derived data: it does not take part in equality.
        assert_eq!(h, op("0.5 ZZ"));
    }

    #[test]
    fn resize_extends_register() {
        let h = op("1.0 ZZ").resized(4).unwrap();
        assert_eq!(h.n_qubits(), 4);
        assert_eq!(h.terms()[0].1.label(), "IIZZ");
    }

    #[test]
    fn display_roundtrip_structure() {
        let h = op("1.0 ZZ + 0.5 XX");
        let shown = h.to_string();
        assert!(shown.contains("ZZ") && shown.contains("XX"));
        assert_eq!(PauliOp::zero(2).to_string(), "0");
    }
}
