//! Repeatability: how far repeated runs spread, against each metric's
//! bound in `BENCHMARK.json`.

use crate::metrics::bounds;
use crate::stats::{median, quartiles};
use crate::workload::Workload;
use cqp_obs::Json;
use std::path::Path;

/// A `perf run` result file: provenance header plus per-workload results.
pub struct RunFile {
    pub header: Json,
    pub results: Json,
}

impl RunFile {
    pub fn load(path: &Path) -> Result<RunFile, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = cqp_server::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        match (doc.get("header"), doc.get("results")) {
            (Some(h), Some(r)) => Ok(RunFile {
                header: h.clone(),
                results: r.clone(),
            }),
            _ => Err(format!("{}: not a perf run file", path.display())),
        }
    }

    fn benchmark_hash(&self) -> Option<&str> {
        self.header.get("benchmark_json").and_then(Json::as_str)
    }

    /// The value of `metric` on workload `w`, when the run measured it.
    pub fn value(&self, w: &str, metric: &str) -> Option<f64> {
        self.results
            .get(w)?
            .get("metrics")?
            .get(metric)?
            .get("value")?
            .as_f64()
    }
}

/// One workload × metric across a set of runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// `(max − min) / median`.
    pub range: f64,
}

impl Spread {
    pub fn of(values: &[f64]) -> Spread {
        let (q1, med, q3) = quartiles(values);
        let max = values.iter().copied().fold(f64::MIN, f64::max);
        let min = values.iter().copied().fold(f64::MAX, f64::min);
        Spread {
            n: values.len(),
            median: med,
            q1,
            q3,
            range: (max - min) / med,
        }
    }
}

/// An absolute floor under `setup_s`'s bound: set-up takes well under a
/// second, so a share of it alone would flag scheduler noise.
const SETUP_FLOOR_S: f64 = 0.05;

/// How far, in the metric's unit, a value may move from `median` before
/// it counts: `bound × median`, and for `setup_s` at least
/// [`SETUP_FLOOR_S`].
fn tolerance(metric: &str, bound: f64, median: f64) -> f64 {
    let share = bound * median.abs();
    if metric == "setup_s" {
        share.max(SETUP_FLOOR_S)
    } else {
        share
    }
}

/// Prints the spread of every workload × end-to-end metric over the runs
/// in `a` and, when `b` is non-empty, the gap between the two sets'
/// medians. Returns whether nothing exceeded its bound; refuses files of
/// different `BENCHMARK.json` versions.
pub fn spread(a: &[RunFile], b: &[RunFile]) -> Result<bool, String> {
    if a.is_empty() {
        return Err("no run files".into());
    }
    let hashes: Vec<Option<&str>> = a.iter().chain(b).map(RunFile::benchmark_hash).collect();
    if hashes.iter().any(|h| *h != hashes[0]) {
        return Err(format!(
            "refusing to mix runs of different BENCHMARK.json versions: {hashes:?}"
        ));
    }
    let mut ok = true;
    println!(
        "{:<13} {:<14} {:>3} {:>12} {:>12} {:>12} {:>7} {:>7} {:>7} {:>8}",
        "workload", "metric", "n", "median", "q1", "q3", "iqr%", "range%", "bound%", "gap%"
    );
    for w in Workload::ALL {
        for (metric, bound) in bounds() {
            let values: Vec<f64> = a
                .iter()
                .filter_map(|f| f.value(w.name(), &metric))
                .collect();
            if values.is_empty() {
                continue;
            }
            let s = Spread::of(&values);
            let tol = tolerance(&metric, bound, s.median);
            let mut flag = s.range * s.median.abs() > tol;
            let gap = if b.is_empty() {
                String::new()
            } else {
                let other: Vec<f64> = b
                    .iter()
                    .filter_map(|f| f.value(w.name(), &metric))
                    .collect();
                if other.is_empty() {
                    flag = true;
                    "missing".into()
                } else {
                    let gap = median(&other) - s.median;
                    flag |= gap.abs() > tol;
                    format!("{:.2}", gap / s.median * 100.0)
                }
            };
            ok &= !flag;
            println!(
                "{:<13} {:<14} {:>3} {:>12.4} {:>12.4} {:>12.4} {:>7.2} {:>7.2} {:>7.2} {:>8}{}",
                w.name(),
                metric,
                s.n,
                s.median,
                s.q1,
                s.q3,
                (s.q3 - s.q1) / s.median * 100.0,
                s.range * 100.0,
                bound * 100.0,
                gap,
                if flag { "  FLAG" } else { "" }
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(hash: &str, p50: f64) -> RunFile {
        let doc = format!(
            "{{\"header\":{{\"benchmark_json\":\"{hash}\"}},\"results\":{{\"hot_read\":{{\"metrics\":{{\"read_p50_ms\":{{\"value\":{p50},\"unit\":\"ms\"}}}}}}}}}}"
        );
        let doc = cqp_server::json::parse(&doc).unwrap();
        RunFile {
            header: doc.get("header").unwrap().clone(),
            results: doc.get("results").unwrap().clone(),
        }
    }

    #[test]
    fn spread_flags_wide_runs_and_gaps_and_refuses_mixed_definitions() {
        let tight = [file("h", 1.00), file("h", 1.01), file("h", 0.99)];
        assert_eq!(spread(&tight, &[]), Ok(true));
        let wide = [file("h", 1.0), file("h", 2.0), file("h", 1.1)];
        assert_eq!(spread(&wide, &[]), Ok(false));
        let moved = [file("h", 2.0), file("h", 2.01), file("h", 1.99)];
        assert_eq!(spread(&tight, &moved), Ok(false));
        assert!(spread(&tight, &[file("other", 1.0)]).is_err());
        let s = Spread::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((s.median, s.range), (2.5, 1.2));
    }

    #[test]
    fn setup_time_has_an_absolute_floor() {
        assert_eq!(tolerance("read_p50_ms", 0.1, 2.0), 0.2);
        assert_eq!(tolerance("setup_s", 0.1, 0.25), SETUP_FLOOR_S);
        assert_eq!(tolerance("setup_s", 0.1, 2.0), 0.2);
    }
}
