//! The prepared observable: everything the §4.2 flip-group readout needs
//! that depends on the operator alone, built once per [`PauliOp`] (see
//! [`PauliOp::prepared`]) instead of once per energy evaluation.
//!
//! Two things are prepared:
//!
//! 1. the **flip-mask grouping** — terms sharing an X/Y flip-mask `m` read
//!    the same amplitude pairs `(ψ[x⊕m], ψ[x])`, so they are evaluated in
//!    one amplitude pass per group;
//! 2. under [`TABLE_BUDGET_BYTES`], the per-group **phase tables**
//!    `f_m(x) = Σ_{t∈m} c_t·i^{y_t}·(−1)^{|x∧z_t|}`, which depend on neither
//!    θ nor ψ.
//!
//! A table is stored only for a group whose every term has a real
//! effective coefficient `c_t·i^{y_t}` and an even Y count — every group
//! of a Hermitian Jordan–Wigner Hamiltonian with real integrals. Then
//! `f_m` is real, and because `|m∧z_t| = y_t` is even,
//! `f_m(x⊕m) = f_m(x)` term by term: the table keeps `f64` values for the
//! half of the indices whose pivot bit (the highest set bit of `m`) is
//! clear. Every other group (anti-Hermitian generators, complex
//! hand-written operators, groups past the budget) has no table and its
//! phase is streamed per evaluation, as before.
//!
//! Each table entry is accumulated as `Σ_t c_t.re·sign_t` in group order
//! from `0.0` — the same operations in the same order as the real part
//! of the streaming fill — so a fold that reads the table produces the
//! same bits as one that refills the phase.

use crate::op::PauliOp;
use crate::pauli::Phase;
use nwq_common::C64;

/// Byte budget for one operator's phase tables: covers the paper's
/// 12-qubit downfolded water Hamiltonians, excludes registers whose
/// single table would rival the state itself (a 22-qubit diagonal group
/// alone is 32 MiB). Groups are tabulated in ascending mask order while
/// they fit.
pub const TABLE_BUDGET_BYTES: usize = 8 << 20;

/// One flip-mask group of an operator: all terms share the X/Y flip-mask
/// `mask`; each term carries its effective coefficient (`c · i^{y_count}`)
/// and Z mask.
#[derive(Clone, Debug)]
pub struct FlipGroup {
    /// X/Y flip-mask shared by every term in the group.
    pub mask: u64,
    /// `(effective coefficient, z_mask)` per term, in operator order.
    pub terms: Vec<(C64, u64)>,
}

/// Read access to one group's real phase table.
#[derive(Clone, Copy, Debug)]
pub struct PhaseTable<'a> {
    values: &'a [f64],
    mask: usize,
    /// Highest set bit of `mask`; the register width for the diagonal
    /// group, whose table is full and whose indices never reach the bit.
    pivot: u32,
}

impl<'a> PhaseTable<'a> {
    /// `f_m(x)`. Indices with the pivot bit set read their `x⊕m` partner.
    #[inline]
    pub fn get(&self, x: usize) -> f64 {
        let y = x ^ (self.mask & 0usize.wrapping_sub((x >> self.pivot) & 1));
        self.values[half_index(y, self.pivot)]
    }

    /// Longest run [`PhaseTable::run`] serves: the indices between two
    /// changes of the pivot bit.
    #[inline]
    pub fn max_run(&self) -> usize {
        1 << self.pivot
    }

    /// The phases of the aligned run `x0 .. x0 + len` (`len` a power of
    /// two up to [`PhaseTable::max_run`], `x0` a multiple of it) as
    /// `(slice, c)` with `f_m(x0 + j) = slice[j ^ c]`: a run never
    /// straddles the pivot bit, so its table entries are contiguous up
    /// to the in-run part of the `x⊕m` flip.
    #[inline]
    pub fn run(&self, x0: usize, len: usize) -> (&'a [f64], usize) {
        debug_assert!(len.is_power_of_two() && len <= self.max_run() && x0.is_multiple_of(len));
        let flip = self.mask & 0usize.wrapping_sub((x0 >> self.pivot) & 1);
        let start = half_index(x0 ^ (flip & !(len - 1)), self.pivot);
        (&self.values[start..start + len], flip & (len - 1))
    }
}

/// Drops bit `pivot` (known clear) from `y`.
#[inline]
fn half_index(y: usize, pivot: u32) -> usize {
    ((y >> (pivot + 1)) << pivot) | (y & ((1 << pivot) - 1))
}

/// Flip-mask grouping and phase tables of one operator.
#[derive(Debug)]
pub struct PreparedObservable {
    n_qubits: usize,
    groups: Vec<FlipGroup>,
    /// Parallel to `groups`: where the group's table starts in `phases`;
    /// `None` where the phase is streamed.
    starts: Vec<Option<usize>>,
    /// Every table, back to back in group order (one allocation).
    phases: Vec<f64>,
}

impl PreparedObservable {
    /// Prepares `op` with at most `table_budget` bytes of phase tables.
    /// [`PauliOp::prepared`] uses [`TABLE_BUDGET_BYTES`]; a budget of 0
    /// gives the streaming-only reference the parity tests compare with.
    pub fn with_budget(op: &PauliOp, table_budget: usize) -> Self {
        // A stable sort keeps operator order within a group, so every
        // group phase accumulates its terms in the order it always has.
        let mut flat: Vec<(u64, C64, u64)> = op
            .terms()
            .iter()
            .map(|&(c, ref s)| {
                let eff = c * Phase::from_power(s.y_count()).to_c64();
                (s.x_mask(), eff, s.z_mask())
            })
            .collect();
        flat.sort_by_key(|t| t.0);
        let groups: Vec<FlipGroup> = flat
            .chunk_by(|a, b| a.0 == b.0)
            .map(|g| FlipGroup {
                mask: g[0].0,
                terms: g.iter().map(|&(_, c, z)| (c, z)).collect(),
            })
            .collect();
        let n_qubits = op.n_qubits();
        let mut entries = 0usize;
        let starts: Vec<Option<usize>> = groups
            .iter()
            .map(|g| {
                let end = entries.checked_add(table_len(n_qubits, g.mask)?)?;
                if end.checked_mul(8)? > table_budget || !has_real_symmetric_phase(g) {
                    return None;
                }
                Some(std::mem::replace(&mut entries, end))
            })
            .collect();
        let mut prepared = PreparedObservable {
            n_qubits,
            groups,
            starts,
            phases: vec![0.0; entries],
        };
        for i in 0..prepared.groups.len() {
            if let Some(range) = prepared.table_range(i) {
                let g = &prepared.groups[i];
                fill_table(&mut prepared.phases[range], pivot(n_qubits, g.mask), g);
            }
        }
        prepared
    }

    fn table_range(&self, group: usize) -> Option<std::ops::Range<usize>> {
        let start = self.starts[group]?;
        let len = table_len(self.n_qubits, self.groups[group].mask)?;
        Some(start..start + len)
    }

    /// Register width of the operator.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// The groups, in ascending mask order.
    pub fn groups(&self) -> &[FlipGroup] {
        &self.groups
    }

    /// Every group with its phase table, if it has one.
    pub fn iter(&self) -> impl Iterator<Item = (&FlipGroup, Option<PhaseTable<'_>>)> {
        self.groups.iter().enumerate().map(|(i, g)| {
            let table = self.table_range(i).map(|range| PhaseTable {
                values: &self.phases[range],
                mask: g.mask as usize,
                pivot: pivot(self.n_qubits, g.mask),
            });
            (g, table)
        })
    }

    /// Number of groups that have a table.
    pub fn num_tables(&self) -> usize {
        self.starts.iter().flatten().count()
    }

    /// Bytes held by the tables.
    pub fn table_bytes(&self) -> usize {
        self.phases.len() * 8
    }
}

fn pivot(n_qubits: usize, mask: u64) -> u32 {
    if mask == 0 {
        n_qubits as u32
    } else {
        mask.ilog2()
    }
}

/// Entries in the table of a group: the full index range for the
/// diagonal group, half of it otherwise. `None` when that overflows.
fn table_len(n_qubits: usize, mask: u64) -> Option<usize> {
    let half = u32::from(mask != 0);
    1usize.checked_shl((n_qubits as u32).checked_sub(half)?)
}

/// `true` when the group's phase is real and symmetric under `x → x⊕m`.
fn has_real_symmetric_phase(g: &FlipGroup) -> bool {
    g.terms
        .iter()
        .all(|&(c, z)| c.im == 0.0 && (g.mask & z).count_ones().is_multiple_of(2))
}

/// Accumulates the group's phase into its zeroed `table`.
fn fill_table(table: &mut [f64], p: u32, g: &FlipGroup) {
    // Terms outer, so each entry accumulates in group order.
    for &(c, z) in &g.terms {
        for (i, t) in table.iter_mut().enumerate() {
            // Re-inserts the clear pivot bit: the i-th index of the kept half.
            let x = (((i >> p) << (p + 1)) | (i & ((1 << p) - 1))) as u64;
            let sign = 1.0 - 2.0 * ((x & z).count_ones() & 1) as f64;
            *t += c.re * sign;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::string::PauliString;

    /// `f_m(x)` by definition, complex.
    fn phase_at(g: &FlipGroup, x: u64) -> C64 {
        let mut f = C64::default();
        for &(c, z) in &g.terms {
            let sign = 1.0 - 2.0 * ((x & z).count_ones() & 1) as f64;
            f += c.scale(sign);
        }
        f
    }

    #[test]
    fn groups_ascend_by_mask_and_keep_operator_order() {
        let h = PauliOp::parse("0.7 ZZ + 0.2 ZI + 0.1 IZ + 0.05 II + 1.0 XX + 0.5 YY").unwrap();
        let p = PreparedObservable::with_budget(&h, TABLE_BUDGET_BYTES);
        let masks: Vec<u64> = p.groups().iter().map(|g| g.mask).collect();
        assert_eq!(masks, [0, 3]);
        assert_eq!(p.groups()[0].terms.len(), 4);
        // YY carries i² = −1 in its effective coefficient.
        let order: Vec<&PauliString> = h
            .terms()
            .iter()
            .map(|(_, s)| s)
            .filter(|s| s.x_mask() == 3)
            .collect();
        let yy_first = order[0].y_count() == 2;
        let expect = if yy_first { [-0.5, 1.0] } else { [1.0, -0.5] };
        let got: Vec<f64> = p.groups()[1].terms.iter().map(|t| t.0.re).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn tables_match_the_definition_at_every_index() {
        let h = PauliOp::parse(
            "0.7 ZZIZ + 0.3 XIXI - 0.2 YIYZ + 0.1 ZIII + 0.05 IIII + 0.4 IXXI + 0.6 IYYI + 0.9 XXXX",
        )
        .unwrap();
        let p = PreparedObservable::with_budget(&h, TABLE_BUDGET_BYTES);
        assert_eq!(p.num_tables(), p.groups().len());
        // The diagonal group keeps all 16 entries, the others 8.
        assert_eq!(p.table_bytes(), (16 + 8 * (p.groups().len() - 1)) * 8);
        for (g, table) in p.iter() {
            let table = table.unwrap();
            for x in 0..16u64 {
                let f = phase_at(g, x);
                assert_eq!(f.im, 0.0);
                assert_eq!(
                    table.get(x as usize).to_bits(),
                    f.re.to_bits(),
                    "mask {:#b} x {x}",
                    g.mask
                );
            }
        }
    }

    #[test]
    fn complex_or_odd_y_groups_are_streamed() {
        let anti = PauliOp::from_terms(
            2,
            vec![
                (C64::imag(0.5), PauliString::parse("XY").unwrap()),
                (C64::imag(-0.5), PauliString::parse("YX").unwrap()),
                (C64::real(0.3), PauliString::parse("ZZ").unwrap()),
                (C64::new(0.1, 0.2), PauliString::parse("XI").unwrap()),
            ],
        );
        let p = PreparedObservable::with_budget(&anti, TABLE_BUDGET_BYTES);
        let tabulated: Vec<u64> = p
            .iter()
            .filter(|(_, t)| t.is_some())
            .map(|(g, _)| g.mask)
            .collect();
        // i·XY has a real effective coefficient but an odd Y count, so
        // f(x⊕m) = −f(x): only the ZZ group qualifies.
        assert_eq!(tabulated, [0]);
    }

    #[test]
    fn budget_is_respected_group_by_group() {
        let h = PauliOp::parse("1.0 ZZZ + 0.5 XII + 0.25 IXI").unwrap();
        // 8 entries for the diagonal group, 4 for each flip group.
        let all = PreparedObservable::with_budget(&h, 1024);
        assert_eq!(all.table_bytes(), (8 + 4 + 4) * 8);
        let two = PreparedObservable::with_budget(&h, (8 + 4) * 8);
        assert_eq!(two.num_tables(), 2);
        let none = PreparedObservable::with_budget(&h, 0);
        assert_eq!((none.num_tables(), none.table_bytes()), (0, 0));
        assert_eq!(none.groups().len(), 3);
        // A 22-qubit diagonal group alone is 32 MiB.
        let ring = PauliOp::parse(&format!("1.0 ZZ{}", "I".repeat(20))).unwrap();
        assert_eq!(ring.prepared().table_bytes(), 0);
    }

    #[test]
    fn empty_operator_prepares_to_nothing() {
        let p = PreparedObservable::with_budget(&PauliOp::zero(3), TABLE_BUDGET_BYTES);
        assert!(p.groups().is_empty());
        assert_eq!(p.num_tables(), 0);
    }
}
