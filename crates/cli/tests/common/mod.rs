//! What the CLI integration tests share: running the built `nwq` binary
//! and per-test temp paths.

use std::path::PathBuf;
use std::process::{Command, Output};

pub fn nwq(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_nwq"))
        .args(args)
        .output()
        .expect("nwq starts")
}

pub fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

pub fn assert_ok(out: &Output) {
    assert!(
        out.status.success(),
        "nwq failed: {}\n{}",
        stdout(out),
        String::from_utf8_lossy(&out.stderr)
    );
}

/// A per-test path in the temp directory, removed on drop.
pub struct TempPath(pub PathBuf);

impl TempPath {
    pub fn new(name: &str) -> Self {
        TempPath(std::env::temp_dir().join(format!("nwq-cli-{}-{name}", std::process::id())))
    }

    pub fn arg(&self) -> &str {
        self.0.to_str().expect("utf-8 temp path")
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}
