//! Process accounting from `/proc/self` and the host fingerprint.

use nwq_telemetry::{JsonValue, Object};

fn status_kib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:").map_or(0.0, |kib| kib / 1024.0)
}

/// `(user, system)` CPU seconds consumed by this process and its threads.
pub fn cpu_times_s() -> (f64, f64) {
    // Fields 14 and 15 of /proc/self/stat, counted after the parenthesised
    // command name; the unit is USER_HZ, which Linux fixes at 100.
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after_comm.split_whitespace().skip(11);
    let mut ticks = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks() / 100.0, ticks() / 100.0)
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// Host fingerprint written into every output file: a number is only
/// comparable with one taken on the same fingerprint.
pub fn fingerprint() -> JsonValue {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let mut caches = Object::new();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let (Some(level), Some(kind), Some(size)) = (
            read_trimmed(&format!("{dir}/level")),
            read_trimmed(&format!("{dir}/type")),
            read_trimmed(&format!("{dir}/size")),
        ) else {
            continue;
        };
        caches.push(
            format!("L{level}_{}", kind.to_lowercase()),
            JsonValue::Str(size),
        );
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut o = Object::new();
    o.push("cpu_model", JsonValue::Str(cpu_model));
    o.push("nproc", JsonValue::Int(nproc as u64));
    o.push("caches", caches.into_value());
    o.push(
        "avx2_detected",
        JsonValue::Int(u64::from(nwq_statevec::simd::avx2_detected())),
    );
    o.push("rustc", JsonValue::Str(env!("LEDGER_RUSTC").into()));
    o.push("commit", JsonValue::Str(env!("LEDGER_COMMIT").into()));
    o.into_value()
}
