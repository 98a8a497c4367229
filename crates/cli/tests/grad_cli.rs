//! `nwq vqe --grad` end to end: the adjoint source stays within its
//! evolution-equivalent bound and makes one H·ψ pass per flip group, the
//! shift rule and energy-only Adam reach chemical accuracy, and the flag
//! combinations that cannot consume a gradient are rejected.

mod common;

use common::{assert_ok, nwq, stdout, TempPath};
use nwq_telemetry::JsonValue;

/// The `(error ±x)` figure of the `E_exact` line.
fn energy_error(text: &str) -> f64 {
    text.split("(error ")
        .nth(1)
        .and_then(|rest| rest.split(')').next())
        .expect("an E_exact line with the error")
        .parse()
        .expect("numeric error")
}

fn counter(counters: &JsonValue, name: &str) -> f64 {
    counters
        .get(name)
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0)
}

#[test]
fn adjoint_lbfgs_h2_stays_within_four_equivalents_per_gradient() {
    let metrics = TempPath::new("grad-metrics.json");
    let out = nwq(&[
        "vqe",
        "--molecule",
        "h2",
        "--grad",
        "adjoint",
        "--optimizer",
        "lbfgs",
        "--max-evals",
        "17",
        "--metrics",
        metrics.arg(),
    ]);
    assert_ok(&out);
    let doc = JsonValue::parse(&std::fs::read_to_string(&metrics.0).expect("metrics written"))
        .expect("metrics parse");
    let c = doc.get("counters").expect("counters");
    assert_eq!(counter(c, "plan.dagger_compiled"), 1.0);
    let runs = counter(c, "grad.adjoint_runs");
    assert!(runs > 0.0, "no adjoint runs");
    // Cost bound: at most 4 statevector-evolution equivalents per full
    // gradient, whatever the parameter count.
    let equivalents = (counter(c, "grad.adjoint_sweeps") + counter(c, "grad.adjoint_reductions"))
        / counter(c, "grad.adjoint_blocks");
    assert!(equivalents <= 4.0, "{equivalents} equivalents per gradient");
    // H|psi> makes one pass per flip group: H2's 15 terms fall into 2
    // groups (the diagonal mask and one XXYY-type mask).
    assert_eq!(counter(c, "grad.adjoint_h_passes"), 2.0 * runs);
    let text = stdout(&out);
    assert!(text.contains("grad    : adjoint source"), "{text}");
    let err = energy_error(&text);
    assert!(
        err.abs() < 1.6e-3,
        "adjoint VQE missed chemical accuracy: {err}"
    );
}

#[test]
fn adam_on_the_shift_rule_reaches_chemical_accuracy() {
    let out = nwq(&[
        "vqe",
        "--molecule",
        "h2",
        "--grad",
        "shift",
        "--optimizer",
        "adam",
        "--max-evals",
        "120",
    ]);
    assert_ok(&out);
    let err = energy_error(&stdout(&out));
    assert!(
        err.abs() < 1.6e-3,
        "shift-rule VQE missed chemical accuracy: {err}"
    );
}

#[test]
fn energy_only_adam_converges_on_uccsd() {
    // Without --grad, Adam runs its gradient loop on central differences;
    // a pi/2 shift rule would stall at Hartree-Fock.
    let out = nwq(&["vqe", "--molecule", "h2", "--optimizer", "adam"]);
    assert_ok(&out);
    let err = energy_error(&stdout(&out));
    assert!(
        err.abs() < 1.6e-3,
        "energy-only Adam missed chemical accuracy: {err}"
    );
}

#[test]
fn flags_that_cannot_consume_a_gradient_are_rejected() {
    // Derivative-free optimizers cannot consume gradients.
    let nm = nwq(&[
        "vqe",
        "--molecule",
        "h2",
        "--grad",
        "adjoint",
        "--optimizer",
        "nm",
        "--max-evals",
        "17",
    ]);
    assert!(!nm.status.success(), "nm + --grad was accepted");
    // Fault injection wraps the backend in an energy-only decorator.
    let faulted = nwq(&[
        "vqe",
        "--molecule",
        "h2",
        "--grad",
        "adjoint",
        "--optimizer",
        "lbfgs",
        "--inject-faults",
        "0.1",
        "--max-evals",
        "17",
    ]);
    assert!(
        !faulted.status.success(),
        "--inject-faults + --grad was accepted"
    );
}
