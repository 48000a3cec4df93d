//! The metrics the binary prints, and the result line that carries them.
//!
//! `BENCHMARK.json` at the repository root names the same metrics with
//! their direction and regression bound; a test holds the two in step.

use cqp_core::answer_cache::{fnv1a, FNV_OFFSET};
use cqp_obs::Json;

/// The benchmark definition this binary was built with.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// End-to-end metrics (`--trace 0`): name and unit. `read_*` cover the
/// personalize reads; `op_*` every op of the workload's stream, so on
/// `write_mix` they include the profile writes, and on the read-only
/// workloads they equal `read_*`.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("read_rps", "1/s"),
    ("read_p50_ms", "ms"),
    ("read_p99_ms", "ms"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
    ("write_amp", "ratio"),
    ("ok_rate", "ratio"),
];

/// Per-layer metrics (`--trace 1`): name and unit. `_us` metrics are
/// median per-call self times; counts and ratios are per request.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("server.rtt_us", "us"),
    ("server.transport_us", "us"),
    ("http.parse_us", "us"),
    ("json.parse_us", "us"),
    ("canon.template_hash_us", "us"),
    ("engine.parse_query_us", "us"),
    ("session.select_us", "us"),
    ("session.upsert_us", "us"),
    ("wal.append_us", "us"),
    ("wal.bytes_per_write", "B"),
    ("repl.ack_us", "us"),
    ("router.hop_us", "us"),
    ("router.retries", "count"),
    ("core.submit_exact_us", "us"),
    ("core.submit_warm_us", "us"),
    ("core.submit_repair_us", "us"),
    ("core.submit_miss_us", "us"),
    ("answer_cache.hit_rate", "ratio"),
    ("answer_cache.repair_share", "ratio"),
    ("answer_cache.miss_share", "ratio"),
    ("prefspace.extract_us", "us"),
    ("prefspace.delta_us", "us"),
    ("prefspace.k_mean", "count"),
    ("search.us", "us"),
    ("search.p2.c_boundaries_us", "us"),
    ("search.p2.d_maxdoi_us", "us"),
    ("search.p2.branch_bound_us", "us"),
    ("search.p2.c_maxbounds_us", "us"),
    ("search.p2.d_heurdoi_us", "us"),
    ("search.general_us", "us"),
    ("search.states_per_req", "count"),
    ("search.param_evals_per_req", "count"),
    ("search.peak_kb", "KiB"),
    ("cost_cache.hit_rate", "ratio"),
    ("construct.us", "us"),
    ("engine.execute_us", "us"),
    ("engine.rows_per_req", "count"),
    ("storage.blocks_per_req", "count"),
    ("setup.db_gen_s", "s"),
    ("setup.analyze_s", "s"),
    ("setup.load_s", "s"),
    ("setup.warmup_s", "s"),
];

/// What one workload run reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Every metric of the run's table, by name.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// The one-line JSON result: `correct`, `attempted`, `failed` and
    /// `metrics`, each metric with its unit from `table`. Fails when the
    /// metrics are not exactly the table's. A value that is not finite,
    /// such as a p99 of +∞ when more than 1% of ops failed, is `null`; it
    /// comes only from failed ops, so the result is `correct: false`.
    pub fn result_json(&self, table: &[(&str, &str)]) -> Result<Json, String> {
        let mut names: Vec<&str> = self.metrics.iter().map(|(n, _)| *n).collect();
        let mut expected: Vec<&str> = table.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        expected.sort_unstable();
        if names != expected {
            return Err(format!(
                "metrics {names:?} are not the table's {expected:?}"
            ));
        }
        let metrics = table
            .iter()
            .map(|(name, unit)| {
                let value = self.value(name).expect("checked above");
                let value = match value.is_finite() {
                    true => Json::Num(value),
                    false if self.failed > 0 => Json::Null,
                    false => return Err(format!("{name} is {value} with no failed op")),
                };
                Ok((
                    name.to_string(),
                    Json::obj(vec![("value", value), ("unit", Json::from(*unit))]),
                ))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ]))
    }

    /// The process exit status for this result: 0 when correct, else 1.
    /// (A run that cannot produce a result exits 2.)
    pub fn exit_code(&self) -> i32 {
        if self.correct {
            0
        } else {
            1
        }
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }
}

/// The parsed benchmark definition.
pub fn benchmark() -> Json {
    cqp_server::json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON")
}

/// `(name, bound)` of every end-to-end metric in `BENCHMARK.json`.
pub fn bounds() -> Vec<(String, f64)> {
    benchmark()
        .get("end_to_end")
        .and_then(Json::as_array)
        .expect("BENCHMARK.json lists end_to_end metrics")
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).expect("metric name");
            let bound = m.get("bound").and_then(Json::as_f64).expect("metric bound");
            (name.to_string(), bound)
        })
        .collect()
}

/// FNV-1a of `BENCHMARK.json`, the identity run files are compared by.
pub fn benchmark_hash() -> String {
    format!("{:016x}", fnv1a(FNV_OFFSET, BENCHMARK_JSON.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    fn listed(section: &str) -> Vec<(String, String)> {
        benchmark()
            .get(section)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"))
            .iter()
            .map(|m| {
                let name = m.get("name").and_then(Json::as_str).unwrap().to_string();
                let unit = m
                    .get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string();
                (name, unit)
            })
            .collect()
    }

    fn table(t: &[(&str, &str)]) -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_names_exactly_what_the_binary_prints() {
        assert_eq!(listed("end_to_end"), table(&END_TO_END));
        assert_eq!(listed("per_layer"), table(&PER_LAYER));
        let workloads: Vec<String> = listed("workloads").into_iter().map(|(n, _)| n).collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
        let b = benchmark();
        assert_eq!(
            b.get("paths").and_then(Json::as_array),
            Some(&[Json::from("perf")][..])
        );
        let setup = b
            .get("end_to_end")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .find(|m| m.get("name").and_then(Json::as_str) == Some("setup_s"))
            .expect("setup_s is an end-to-end metric");
        let largest = bounds().iter().map(|(_, b)| *b).fold(0.0, f64::max);
        assert_eq!(setup.get("bound").and_then(Json::as_f64), Some(largest));
        assert!(bounds().iter().all(|(_, b)| *b > 0.0 && *b <= 0.25));
    }

    #[test]
    fn result_line_requires_exactly_the_tables_metrics() {
        let table = [("a_ms", "ms"), ("b", "count")];
        let mut o = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("b", 2.0), ("a_ms", 1.5)],
        };
        let line = o.result_json(&table).unwrap().render();
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"a_ms\":{\"value\":1.5,\"unit\":\"ms\"},\"b\":{\"value\":2,\"unit\":\"count\"}}}"
        );
        o.metrics.pop();
        assert!(o.result_json(&table).is_err());
        // +∞ comes only from failed ops; it prints as null.
        o.metrics.push(("a_ms", f64::INFINITY));
        assert!(o.result_json(&table).is_err());
        o.failed = 1;
        o.correct = false;
        let line = o.result_json(&table).unwrap().render();
        assert!(
            line.contains("\"a_ms\":{\"value\":null,\"unit\":\"ms\"}"),
            "{line}"
        );
    }
}
