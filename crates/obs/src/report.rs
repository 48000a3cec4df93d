//! Run-report export: a tiny JSON value type (no serde in this
//! environment), converters from snapshots and folded span trees, and a JSONL
//! appender used by `reproduce` to drop one report line per experiment
//! row next to the CSVs.

use crate::metrics::Snapshot;
use crate::record::Obs;
use crate::trace::SpanView;
use std::fmt::Write as _;
use std::fs::OpenOptions;
use std::io::{self, Write as _};
use std::path::Path;

/// A JSON value. Numbers are `f64` (counter magnitudes here are far below
/// 2^53, where that representation is exact).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number; non-finite values encode as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for object members.
    pub fn obj(members: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Object member lookup (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The numeric payload, if this is a `Num`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an unsigned integer (rejects negatives and
    /// fractional values — the strictness request validation wants).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9e15 => Some(*n as u64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, if this is an `Arr`.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an `Obj`.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Serializes to compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out);
        out
    }

    fn write_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    // Integral values print without a fraction part.
                    if n.fract() == 0.0 && n.abs() < 9e15 {
                        let _ = write!(out, "{}", *n as i64);
                    } else {
                        let _ = write!(out, "{n}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\r' => out.push_str("\\r"),
                        '\t' => out.push_str("\\t"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_into(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).write_into(out);
                    out.push(':');
                    v.write_into(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

/// Metrics snapshot as `{counters:{...}, gauges:{...}, histograms:{...}}`.
pub fn snapshot_to_json(s: &Snapshot) -> Json {
    let counters = Json::Obj(
        s.counters
            .iter()
            .map(|(k, &v)| (k.clone(), Json::from(v)))
            .collect(),
    );
    let gauges = Json::Obj(
        s.gauges
            .iter()
            .map(|(k, &v)| (k.clone(), Json::from(v)))
            .collect(),
    );
    let histograms = Json::Obj(
        s.histograms
            .iter()
            .map(|(k, h)| {
                (
                    k.clone(),
                    Json::obj(vec![
                        ("count", h.count.into()),
                        ("sum", h.sum.into()),
                        ("min", h.min.into()),
                        ("max", h.max.into()),
                        ("mean", h.mean().into()),
                    ]),
                )
            })
            .collect(),
    );
    Json::obj(vec![
        ("counters", counters),
        ("gauges", gauges),
        ("histograms", histograms),
    ])
}

/// Span list as an array of `{path, count, secs, counters:{...}}`.
pub fn spans_to_json(spans: &[SpanView]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("path", Json::from(s.path.as_str())),
                    ("count", s.count.into()),
                    ("secs", s.total.as_secs_f64().into()),
                    (
                        "counters",
                        Json::Obj(
                            s.counter_deltas
                                .iter()
                                .map(|&(k, v)| (k.to_string(), Json::from(v)))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    )
}

/// One run-report line: which experiment/row produced it, free-form
/// context fields, the full metrics snapshot, and the span tree.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Experiment name, e.g. `"fig12a"`.
    pub experiment: String,
    /// Row label, e.g. the algorithm name.
    pub label: String,
    /// Extra context fields (x-value, scale, ...), in insertion order.
    pub fields: Vec<(String, Json)>,
    /// Metrics at the end of the run.
    pub snapshot: Snapshot,
    /// Flattened span tree.
    pub spans: Vec<SpanView>,
}

impl RunReport {
    /// Captures `obs`'s registry and folded span tree into a report line.
    pub fn from_obs(experiment: &str, label: &str, obs: &Obs) -> Self {
        RunReport {
            experiment: experiment.to_string(),
            label: label.to_string(),
            fields: Vec::new(),
            snapshot: obs.snapshot(),
            spans: obs.spans(),
        }
    }

    /// Adds a context field (builder-style).
    pub fn with_field(mut self, key: &str, value: impl Into<Json>) -> Self {
        self.fields.push((key.to_string(), value.into()));
        self
    }

    /// The full JSON object for this line.
    pub fn to_json(&self) -> Json {
        let mut members: Vec<(String, Json)> = vec![
            (
                "experiment".to_string(),
                Json::from(self.experiment.as_str()),
            ),
            ("label".to_string(), Json::from(self.label.as_str())),
        ];
        members.extend(self.fields.iter().cloned());
        members.push(("metrics".to_string(), snapshot_to_json(&self.snapshot)));
        members.push(("spans".to_string(), spans_to_json(&self.spans)));
        Json::Obj(members)
    }

    /// Appends this report as one line to a `.jsonl` file.
    pub fn append_to(&self, path: &Path) -> io::Result<()> {
        let mut file = OpenOptions::new().create(true).append(true).open(path)?;
        writeln!(file, "{}", self.to_json().render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Recorder;

    #[test]
    fn json_escaping_and_numbers() {
        let j = Json::obj(vec![
            ("s", Json::from("a\"b\\c\nd")),
            ("i", Json::from(42u64)),
            ("f", Json::from(1.5)),
            ("bad", Json::Num(f64::NAN)),
            ("arr", Json::Arr(vec![Json::Null, Json::Bool(true)])),
        ]);
        assert_eq!(
            j.render(),
            r#"{"s":"a\"b\\c\nd","i":42,"f":1.5,"bad":null,"arr":[null,true]}"#
        );
    }

    #[test]
    fn json_accessors_navigate_values() {
        let j = Json::obj(vec![
            ("n", Json::from(3.0)),
            ("frac", Json::from(1.5)),
            ("neg", Json::Num(-2.0)),
            ("s", Json::from("hi")),
            ("b", Json::Bool(true)),
            ("a", Json::Arr(vec![Json::from(1u64)])),
        ]);
        assert_eq!(j.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(j.get("frac").and_then(Json::as_u64), None);
        assert_eq!(j.get("frac").and_then(Json::as_f64), Some(1.5));
        assert_eq!(j.get("neg").and_then(Json::as_u64), None);
        assert_eq!(j.get("s").and_then(Json::as_str), Some("hi"));
        assert_eq!(j.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(
            j.get("a").and_then(Json::as_array).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(j.get("missing"), None);
        assert!(j.as_object().is_some());
        assert_eq!(Json::Null.get("x"), None);
    }

    #[test]
    fn report_round_trip_through_obs() {
        let obs = Obs::new();
        {
            let _g = obs.span("solve");
            obs.add("storage.blocks_read", 12);
            obs.observe("engine.rows", 100);
        }
        let line = RunReport::from_obs("fig12a", "C-BOUNDARIES", &obs)
            .with_field("k", 16u64)
            .to_json()
            .render();
        assert!(line.starts_with(r#"{"experiment":"fig12a","label":"C-BOUNDARIES","k":16"#));
        assert!(line.contains(r#""storage.blocks_read":12"#));
        assert!(line.contains(r#""path":"solve""#));
        assert!(line.contains(r#""engine.rows":{"count":1,"sum":100"#));
    }

    #[test]
    fn append_writes_one_line_per_report() {
        let dir = std::env::temp_dir().join("cqp_obs_report_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.report.jsonl");
        let _ = std::fs::remove_file(&path);
        let obs = Obs::new();
        obs.add("c", 1);
        let report = RunReport::from_obs("t", "a", &obs);
        report.append_to(&path).unwrap();
        report.append_to(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
        let _ = std::fs::remove_file(&path);
    }
}
