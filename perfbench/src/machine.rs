//! What a result was measured on, and process gauges read from `/proc`.

use statvs::serve::json::{num, obj, s, Json};

/// The stamp printed with every result: CPU model, logical CPUs, commit,
/// seed, run length, and whether the run was traced.
pub fn stamp(workload: &str, seed: u64, seconds: u64, traced: bool) -> Json {
    obj(vec![
        ("workload", s(workload)),
        ("cpu", s(&cpu_model())),
        ("nproc", num(nproc() as f64)),
        ("commit", s(&commit())),
        ("seed", num(seed as f64)),
        ("seconds", num(seconds as f64)),
        ("traced", Json::Bool(traced)),
    ])
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit: `git rev-parse HEAD` when the working
/// directory is the root of a git repository, else `unknown` (a source
/// export carries no history, and git must not find an unrelated
/// repository further up).
fn commit() -> String {
    std::path::Path::new(".git")
        .exists()
        .then(|| {
            std::process::Command::new("git")
                .args(["rev-parse", "HEAD"])
                .stderr(std::process::Stdio::null())
                .output()
        })
        .and_then(Result::ok)
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// A `kB` field of `/proc/self/status`, in kB.
fn status_kb(field: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Peak resident set size (`VmHWM`) of this process, MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Current thread count of this process.
pub fn threads() -> u64 {
    status_kb("Threads:").unwrap_or(0)
}
