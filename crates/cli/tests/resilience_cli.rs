//! The CLI's resilience paths end to end: a VQE through injected faults
//! retries, checkpoints and still reaches chemical accuracy, and a run
//! killed part-way resumes from its checkpoint to the clean run's result.

mod common;

use common::{assert_ok, nwq, stdout, TempPath};
use nwq_telemetry::JsonValue;
use std::process::Output;

#[test]
fn vqe_through_injected_faults_retries_checkpoints_and_converges() {
    let (ck, metrics) = (
        TempPath::new("fault-ck.json"),
        TempPath::new("fault-metrics.json"),
    );
    let out = nwq(&[
        "vqe",
        "--molecule",
        "h2",
        "--max-evals",
        "2000",
        "--inject-faults",
        "0.1",
        "--fault-seed",
        "12345",
        "--checkpoint",
        ck.arg(),
        "--checkpoint-every",
        "5",
        "--metrics",
        metrics.arg(),
    ]);
    assert_ok(&out);
    let doc = JsonValue::parse(&std::fs::read_to_string(&metrics.0).expect("metrics written"))
        .expect("metrics parse");
    let counters = doc.get("counters").expect("counters");
    for name in [
        "resilience.faults_injected",
        "resilience.retries",
        "resilience.checkpoints_written",
    ] {
        let n = counters
            .get(name)
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0);
        assert!(n > 0.0, "{name} = {n}");
    }
    let text = stdout(&out);
    let err: f64 = text
        .split("(error ")
        .nth(1)
        .and_then(|rest| rest.split(')').next())
        .expect("an E_exact line with the error")
        .parse()
        .expect("numeric error");
    assert!(
        err.abs() < 1.6e-3,
        "faulted VQE missed chemical accuracy: {err}"
    );
}

#[test]
fn killed_vqe_resumes_to_the_clean_run() {
    let ck = TempPath::new("kill-ck.json");
    let e_vqe = |out: &Output| -> Vec<String> {
        stdout(out)
            .lines()
            .filter(|l| l.contains("E_VQE"))
            .map(str::to_owned)
            .collect()
    };
    let base = ["vqe", "--molecule", "h2", "--max-evals", "1500"];
    let clean = nwq(&base);
    assert_ok(&clean);
    // The kill switch exits non-zero after writing the checkpoint.
    let killed = nwq(&[
        &base[..],
        &["--checkpoint", ck.arg(), "--kill-after-evals", "40"],
    ]
    .concat());
    assert!(!killed.status.success(), "kill switch did not trip");
    assert!(ck.0.exists(), "no checkpoint written");
    let resumed = nwq(&[&base[..], &["--resume", ck.arg()]].concat());
    assert_ok(&resumed);
    assert_eq!(e_vqe(&clean).len(), 1);
    // The printed energy has 6 decimals; the line's f64 bits are what
    // shows a resumed run that drifted by less than that.
    let bits = |line: &str| line.split("bits ").nth(1).map(str::to_owned);
    assert!(bits(&e_vqe(&clean)[0]).is_some(), "{:?}", e_vqe(&clean));
    assert_eq!(bits(&e_vqe(&resumed)[0]), bits(&e_vqe(&clean)[0]));
    assert_eq!(e_vqe(&resumed), e_vqe(&clean));
}
