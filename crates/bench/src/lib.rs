//! Benchmark support crate; all content lives in src/bin/.
