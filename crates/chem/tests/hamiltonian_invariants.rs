//! Physics invariants of the qubit Hamiltonians this crate produces that
//! the readout relies on (ROADMAP item 3): a Jordan–Wigner Hamiltonian
//! built from real integrals — bare, frozen/truncated, or downfolded — is
//! Hermitian with *exactly* real coefficients and an even number of Y's
//! in every string. That is the condition under which every flip group's
//! phase is real and symmetric under `x → x⊕m`, so the prepared
//! observable can tabulate it as a half table of `f64`
//! (`nwq_pauli::prepared`). Checked here, not assumed: a Hamiltonian
//! that broke it would silently fall back to streaming its phases.

use nwq_chem::downfold::{downfold_to_active, hermitian_downfold_qubit, mp2_external_sigma};
use nwq_chem::jw::jordan_wigner;
use nwq_chem::molecules::{h2_sto3g, water_model};
use nwq_pauli::PauliOp;

fn assert_real_even_y_and_fully_tabulated(name: &str, h: &PauliOp) {
    assert!(h.num_terms() > 0, "{name}: empty Hamiltonian");
    for (c, s) in h.terms() {
        assert_eq!(c.im, 0.0, "{name}: {s} has coefficient {c}");
        assert_eq!(s.y_count() % 2, 0, "{name}: {s} has an odd Y count");
    }
    assert!(h.is_hermitian(0.0), "{name}");
    let prepared = h.prepared();
    assert_eq!(
        prepared.num_tables(),
        prepared.groups().len(),
        "{name}: a flip group fell back to streaming"
    );
}

#[test]
fn jw_hamiltonians_are_exactly_real_with_even_y_counts() {
    let water8 = water_model(4, 4);
    let (folded, _) = downfold_to_active(&water8, 0, 3).unwrap();
    for (name, m) in [
        ("h2_sto3g", h2_sto3g()),
        ("water_model(4,4)", water8.clone()),
        ("water_model(5,4)", water_model(5, 4)),
        ("water_model(4,4) downfolded to 3 orbitals", folded),
    ] {
        assert_real_even_y_and_fully_tabulated(name, &m.to_qubit_hamiltonian().unwrap());
    }
}

#[test]
fn eq2_downfolded_hamiltonian_is_exactly_real_with_even_y_counts() {
    // Paper Eq. 2 at the qubit level: second-order commutator expansion
    // with the MP2 external σ, projected onto 3 active orbitals.
    let m = water_model(4, 4);
    let h = m.to_qubit_hamiltonian().unwrap();
    let sigma = jordan_wigner(&mp2_external_sigma(&m, 3), 8).unwrap();
    let active: Vec<usize> = (0..6).collect();
    let h_eff = hermitian_downfold_qubit(&h, &sigma, &active, 0, 2).unwrap();
    assert_real_even_y_and_fully_tabulated("Eq. 2 downfold of water_model(4,4)", &h_eff);
}

#[test]
fn ten_qubit_water_tables_stay_under_0_6_mib() {
    // 131 groups × 1024 × 8 B would be 1.0 MiB as full tables; the x⊕m
    // symmetry halves every non-diagonal one.
    let h = water_model(5, 4).to_qubit_hamiltonian().unwrap();
    let prepared = h.prepared();
    let groups = prepared.groups().len();
    assert_eq!(prepared.table_bytes(), (1024 + (groups - 1) * 512) * 8);
    assert!(
        prepared.table_bytes() <= 600 * 1024,
        "{}",
        prepared.table_bytes()
    );
}
