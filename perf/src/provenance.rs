//! The header every result file starts with: what was measured, on what.

use crate::metrics::benchmark_hash;
use cqp_obs::Json;
use std::process::Command;

fn output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Commit and dirty flag (when run inside a git checkout), compiler,
/// core count, kernel, seed, run length and the `BENCHMARK.json` hash.
pub fn header(seed: u64, seconds: f64) -> Json {
    let commit = output("git", &["rev-parse", "HEAD"]);
    let dirty = commit
        .as_ref()
        .and_then(|_| output("git", &["status", "--porcelain"]))
        .map(|s| !s.is_empty());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .ok();
    let or_unknown = |v: Option<String>| Json::from(v.unwrap_or_else(|| "unknown".into()));
    Json::obj(vec![
        ("commit", or_unknown(commit)),
        ("dirty", dirty.map_or(Json::Null, Json::Bool)),
        ("rustc", or_unknown(output("rustc", &["-V"]))),
        (
            "nproc",
            Json::from(std::thread::available_parallelism().map_or(0, |n| n.get()) as u64),
        ),
        ("kernel", or_unknown(kernel)),
        ("seed", Json::from(seed)),
        ("seconds", Json::Num(seconds)),
        ("benchmark_json", Json::from(benchmark_hash())),
    ])
}
