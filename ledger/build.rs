//! Captures the compiler version and, when the tree is a git checkout, the
//! commit for the host fingerprint. Both fall back to "unknown": the
//! benchmark driver runs from an exported tree with no `.git`.

use std::process::Command;

fn first_line(cmd: &mut Command) -> String {
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    println!(
        "cargo:rustc-env=LEDGER_RUSTC={}",
        first_line(Command::new(rustc).arg("-V"))
    );
    println!(
        "cargo:rustc-env=LEDGER_COMMIT={}",
        first_line(Command::new("git").args(["rev-parse", "HEAD"]))
    );
    println!("cargo:rerun-if-changed=build.rs");
}
