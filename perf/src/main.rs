//! `perf` — the repository benchmark's command line.
//!
//! ```text
//! perf --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! perf run    [--seed <n>] [--seconds <s>] [--out <file.json>]
//! perf trace  [--seed <n>] [--seconds <s>] --out <dir>
//! perf spread <run.json>... [--vs <run.json>...]
//! ```
//!
//! The first form runs one workload and prints its result as the last
//! line of standard output: end-to-end metrics with `--trace 0`, per-layer
//! metrics with `--trace 1`. `run` and `trace` run every workload, each in
//! a fresh child process of this binary.

use cqp_obs::Json;
use cqp_perf::metrics::{END_TO_END, PER_LAYER};
use cqp_perf::run::TIERS;
use cqp_perf::spread::{spread, RunFile};
use cqp_perf::workload::Workload;
use cqp_perf::{provenance, run, trace};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

const USAGE: &str = "usage:
  perf --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
  perf run    [--seed <n>] [--seconds <s>] [--out <file.json>]
  perf trace  [--seed <n>] [--seconds <s>] --out <dir>
  perf spread <run.json>... [--vs <run.json>...]
workloads: hot_read, cold_solve, execute_rows, write_mix";

/// `--key value` options.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], allowed: &[&str]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let key = key
                .strip_prefix("--")
                .filter(|k| allowed.contains(k))
                .ok_or_else(|| format!("unexpected argument {key:?}"))?;
            let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            pairs.push((key.to_string(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, key: &str, default: Option<T>) -> Result<T, String> {
        match self.get(key) {
            Some(v) => v.parse().map_err(|_| format!("bad --{key} {v:?}")),
            None => default.ok_or_else(|| format!("--{key} is required")),
        }
    }
}

/// `run_seconds` from `BENCHMARK.json`, the default run length.
fn default_seconds() -> f64 {
    cqp_perf::metrics::benchmark()
        .get("run_seconds")
        .and_then(Json::as_f64)
        .expect("BENCHMARK.json has run_seconds")
}

/// One workload in this process: the form `BENCHMARK.json`'s command runs.
/// Returns the exit status of a run that produced a result.
fn workload(args: &[String]) -> Result<i32, String> {
    let flags = Flags::parse(args, &["workload", "seed", "seconds", "trace", "out"])?;
    let name = flags.get("workload").ok_or("--workload is required")?;
    let w = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed: u64 = flags.number("seed", None)?;
    let seconds: f64 = flags.number("seconds", None)?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let (outcome, table) = match flags.number::<u8>("trace", Some(0))? {
        0 => {
            let report = run::run(w, seed, seconds)?;
            let tiers: Vec<String> = TIERS
                .iter()
                .zip(report.tiers)
                .map(|(t, n)| format!("{t} {n}"))
                .collect();
            eprintln!(
                "run {}: read_n {} op_n {} stale {} error_rate {:.6} tiers [{}] audit {} samples / {} references / {} mismatches",
                w.name(),
                report.read_n,
                report.op_n,
                report.stale,
                report.outcome.failed as f64 / report.outcome.attempted.max(1) as f64,
                tiers.join(", "),
                report.audit.checked,
                report.audit.references,
                report.audit.mismatches
            );
            for t in &report.setups {
                eprintln!(
                    "  setup {:.3}s: db_gen {:.3} boot {:.3} load {:.3} warmup {:.3}",
                    t.total_s, t.db_gen_s, t.boot_s, t.load_s, t.warmup_s
                );
            }
            (report.outcome, &END_TO_END[..])
        }
        1 => {
            let out = flags.get("out").map(PathBuf::from);
            (
                trace::trace(w, seed, seconds, out.as_deref())?,
                &PER_LAYER[..],
            )
        }
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    println!("{}", outcome.result_json(table)?.render());
    Ok(outcome.exit_code())
}

/// Runs every workload in a child process with the given extra flags and
/// returns each result line, parsed.
fn children(seed: u64, seconds: f64, extra: &[&str]) -> Result<Vec<(Workload, Json)>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    Workload::ALL
        .iter()
        .map(|&w| {
            let out = Command::new(&exe)
                .args(["--workload", w.name()])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(extra)
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| e.to_string())?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let line = stdout.lines().last().unwrap_or("");
            let result = cqp_server::json::parse(line)
                .map_err(|_| format!("{}: no result ({})", w.name(), out.status))?;
            Ok((w, result))
        })
        .collect()
}

fn write_results(
    path: &Path,
    seed: u64,
    seconds: f64,
    results: &[(Workload, Json)],
    extra: Vec<(&str, Json)>,
) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    let mut doc = vec![
        ("header", provenance::header(seed, seconds)),
        (
            "results",
            Json::Obj(
                results
                    .iter()
                    .map(|(w, r)| (w.name().to_string(), r.clone()))
                    .collect(),
            ),
        ),
    ];
    doc.extend(extra);
    std::fs::write(path, Json::obj(doc).render() + "\n").map_err(|e| e.to_string())?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// Each workload's per-layer metrics that only the probe reached, from
/// its `layers.json`.
fn probe_derived(out: &Path) -> Result<Json, String> {
    Workload::ALL
        .iter()
        .map(|w| {
            let path = out.join(format!("{}.layers.json", w.name()));
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let layers =
                cqp_server::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            let names = layers
                .get("probe_derived")
                .cloned()
                .unwrap_or(Json::Arr(Vec::new()));
            Ok((w.name().to_string(), names))
        })
        .collect::<Result<Vec<_>, String>>()
        .map(Json::Obj)
}

fn print_table(results: &[(Workload, Json)], table: &[(&str, &str)]) -> bool {
    let mut ok = true;
    for (w, r) in results {
        let correct = r.get("correct").and_then(Json::as_bool) == Some(true);
        ok &= correct;
        println!(
            "{} (correct {correct}, attempted {}, failed {})",
            w.name(),
            r.get("attempted").and_then(Json::as_u64).unwrap_or(0),
            r.get("failed").and_then(Json::as_u64).unwrap_or(0)
        );
        for (name, unit) in table {
            let value = r
                .get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64);
            match value {
                Some(v) => println!("  {name:<28} {v:>14.4} {unit}"),
                None => {
                    ok = false;
                    println!("  {name:<28} {:>14} {unit}", "missing");
                }
            }
        }
    }
    ok
}

fn all(args: &[String], traced: bool) -> Result<bool, String> {
    let flags = Flags::parse(args, &["seed", "seconds", "out"])?;
    let seed: u64 = flags.number("seed", Some(1))?;
    let seconds: f64 = flags.number("seconds", Some(default_seconds()))?;
    if traced {
        let out = flags.get("out").ok_or("perf trace needs --out <dir>")?;
        let results = children(seed, seconds, &["--trace", "1", "--out", out])?;
        let derived = probe_derived(Path::new(out))?;
        write_results(
            &Path::new(out).join("per_layer.json"),
            seed,
            seconds,
            &results,
            vec![("probe_derived", derived)],
        )?;
        Ok(print_table(&results, &PER_LAYER))
    } else {
        let results = children(seed, seconds, &["--trace", "0"])?;
        if let Some(out) = flags.get("out") {
            write_results(Path::new(out), seed, seconds, &results, Vec::new())?;
        }
        Ok(print_table(&results, &END_TO_END))
    }
}

fn spread_cmd(args: &[String]) -> Result<bool, String> {
    let (a, b) = match args.iter().position(|a| a == "--vs") {
        Some(i) => (&args[..i], &args[i + 1..]),
        None => (args, &args[..0]),
    };
    let load = |paths: &[String]| -> Result<Vec<RunFile>, String> {
        paths.iter().map(|p| RunFile::load(Path::new(p))).collect()
    };
    spread(&load(a)?, &load(b)?)
}

fn main() {
    // The program reads `CQP_*` variables (one swaps the serving core);
    // the benchmark measures the defaults. No thread exists yet.
    let inherited: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("CQP_"))
        .collect();
    for key in inherited {
        std::env::remove_var(key);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let status = |ok: bool| if ok { 0 } else { 1 };
    let result = match args.first().map(String::as_str) {
        Some("run") => all(&args[1..], false).map(status),
        Some("trace") => all(&args[1..], true).map(status),
        Some("spread") => spread_cmd(&args[1..]).map(status),
        Some(a) if a.starts_with("--") => workload(&args),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("perf: {e}");
            std::process::exit(2);
        }
    }
}
