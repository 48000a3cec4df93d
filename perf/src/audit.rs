//! The answer audit: sampled responses against cold recomputation.
//!
//! Each audited answer must equal a cold `CqpSystem::personalize` on the
//! profile the response was served from — the same preferences, a
//! bit-equal doi, the same cost, size and SQL — and for row requests the
//! same rows, compared by count and an order-sensitive hash of the cells
//! rendered with `Value::to_string`. References are memoized by key.

use crate::workload::{Read, Universe};
use cqp_core::answer_cache::{fnv1a, FNV_OFFSET};
use cqp_core::prelude::{CqpSystem, SolverConfig};
use cqp_core::Algorithm;
use cqp_engine::parse_query;
use cqp_obs::Json;
use cqp_prefs::from_text;
use cqp_storage::{IoMeter, Value};
use std::collections::HashMap;

/// The audited fields of one personalize answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    pub prefs: Vec<u64>,
    pub doi_bits: u64,
    pub cost_blocks: u64,
    pub size_bits: u64,
    pub sql: String,
    /// `(row count, hash of the cells)` for row requests.
    pub rows: Option<(u64, u64)>,
}

/// An audited response: the request, the profile variant the client knows
/// the answered version holds (`None` = the base profile), the answer.
#[derive(Debug, Clone)]
pub struct Sample {
    pub read: Read,
    pub variant: Option<u8>,
    pub answer: Answer,
}

/// Order-sensitive hash of rendered cells; a separator byte after every
/// cell and row keeps `["ab"]` apart from `["a", "b"]`.
fn rows_digest<'a>(rows: impl Iterator<Item = impl Iterator<Item = &'a str>>) -> (u64, u64) {
    let mut h = FNV_OFFSET;
    let mut n = 0;
    for row in rows {
        n += 1;
        for cell in row {
            h = fnv1a(h, cell.as_bytes());
            h = fnv1a(h, &[0x1f]);
        }
        h = fnv1a(h, &[0x1e]);
    }
    (n, h)
}

/// The digest of executed rows, cells rendered as the server renders them.
pub fn value_rows_digest(rows: &[Vec<Value>]) -> (u64, u64) {
    let rendered: Vec<Vec<String>> = rows
        .iter()
        .map(|r| r.iter().map(Value::to_string).collect())
        .collect();
    rows_digest(rendered.iter().map(|r| r.iter().map(String::as_str)))
}

impl Answer {
    /// The audited fields of a `/personalize` 200 body.
    pub fn from_response(body: &Json) -> Option<Answer> {
        let solution = body.get("solution")?;
        let prefs = solution
            .get("prefs")?
            .as_array()?
            .iter()
            .map(Json::as_u64)
            .collect::<Option<Vec<u64>>>()?;
        let rows = match body.get("rows") {
            None => None,
            Some(rows) => {
                let rows = rows
                    .as_array()?
                    .iter()
                    .map(|r| {
                        r.as_array()?
                            .iter()
                            .map(Json::as_str)
                            .collect::<Option<Vec<&str>>>()
                    })
                    .collect::<Option<Vec<Vec<&str>>>>()?;
                Some(rows_digest(rows.iter().map(|r| r.iter().copied())))
            }
        };
        Some(Answer {
            prefs,
            doi_bits: solution.get("doi")?.as_f64()?.to_bits(),
            cost_blocks: solution.get("cost_blocks")?.as_u64()?,
            size_bits: solution.get("size_rows")?.as_f64()?.to_bits(),
            sql: body.get("sql")?.as_str()?.to_string(),
            rows,
        })
    }
}

/// The cold answer to `read` on the given profile variant.
pub fn reference(
    system: &CqpSystem<'_>,
    universe: &Universe,
    read: &Read,
    variant: Option<u8>,
) -> Result<Answer, String> {
    let catalog = universe.db.catalog();
    let mut profile =
        from_text(universe.text(read.user, variant), catalog).map_err(|e| e.to_string())?;
    if let Some(k) = read.top_k {
        profile = profile.with_top_k_selections(k as usize);
    }
    let query = parse_query(read.sql(), catalog).map_err(|e| e.to_string())?;
    let config = SolverConfig {
        algorithm: Algorithm::by_name(read.algorithm_name()).expect("benchmark algorithm"),
        ..SolverConfig::default()
    };
    let out = system
        .personalize(&query, &profile, &read.problem.spec(), &config)
        .map_err(|e| e.to_string())?;
    let rows = if read.rows {
        let executed =
            cqp_engine::execute_personalized(&universe.db, &out.query, &IoMeter::new(0.0))
                .map_err(|e| e.to_string())?;
        Some(value_rows_digest(&executed.rows))
    } else {
        None
    };
    Ok(Answer {
        prefs: out.solution.prefs.iter().map(|&p| p as u64).collect(),
        doi_bits: out.solution.doi.value().to_bits(),
        cost_blocks: out.solution.cost_blocks,
        size_bits: out.solution.size_rows.to_bits(),
        sql: out.sql,
        rows,
    })
}

/// What the audit found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Samples compared.
    pub checked: u64,
    /// Distinct references computed.
    pub references: u64,
    /// Samples whose answer differed from the reference.
    pub mismatches: u64,
}

/// Audits `samples`, computing each distinct reference once, split over
/// `threads` threads.
pub fn audit(universe: &Universe, samples: &[Sample], threads: usize) -> AuditReport {
    let mut keys: Vec<(Read, Option<u8>)> = samples.iter().map(|s| (s.read, s.variant)).collect();
    keys.sort_by_key(|k| format!("{k:?}"));
    keys.dedup();
    let stats = universe.db.analyze();
    let threads = threads.max(1);
    let references: HashMap<(Read, Option<u8>), Result<Answer, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let keys = &keys;
                let stats = stats.clone();
                s.spawn(move || {
                    let system = CqpSystem::from_parts(&universe.db, stats);
                    keys.iter()
                        .skip(t)
                        .step_by(threads)
                        .map(|&(read, variant)| {
                            (
                                (read, variant),
                                reference(&system, universe, &read, variant),
                            )
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("audit thread panicked"))
            .collect()
    });
    let mismatches = samples
        .iter()
        .filter(|s| match &references[&(s.read, s.variant)] {
            Ok(reference) => *reference != s.answer,
            Err(e) => {
                eprintln!("audit: reference for {:?} failed: {e}", s.read);
                true
            }
        })
        .count();
    AuditReport {
        checked: samples.len() as u64,
        references: keys.len() as u64,
        mismatches: mismatches as u64,
    }
}

/// Keeps every `every`-th op's sample, doubling `every` whenever more than
/// `cap` are held: a deterministic sample of between `cap / 2` and `cap`
/// ops whatever the run's length, in bounded memory.
#[derive(Debug)]
pub struct Sampler {
    every: u64,
    cap: usize,
    kept: Vec<(u64, Sample)>,
}

impl Sampler {
    pub fn new(cap: usize) -> Sampler {
        Sampler {
            every: 1,
            cap,
            kept: Vec::new(),
        }
    }

    pub fn wants(&self, index: u64) -> bool {
        index.is_multiple_of(self.every)
    }

    pub fn push(&mut self, index: u64, sample: Sample) {
        debug_assert!(self.wants(index));
        self.kept.push((index, sample));
        if self.kept.len() > self.cap {
            self.every *= 2;
            let every = self.every;
            self.kept.retain(|(i, _)| i.is_multiple_of(every));
        }
    }

    pub fn into_samples(self) -> Vec<Sample> {
        self.kept.into_iter().map(|(_, s)| s).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Problem;

    fn read(user: u16, algorithm: u8, rows: bool) -> Read {
        Read {
            user,
            template: 1,
            algorithm,
            problem: Problem::P2(200),
            top_k: Some(12),
            rows,
        }
    }

    #[test]
    fn audit_accepts_true_answers_and_rejects_a_corrupted_one() {
        let universe = Universe::generate(3);
        let system = CqpSystem::new(&universe.db);
        // A shallow size-bounded personalization keeps rows to compare.
        let with_rows = (0..3)
            .map(|user| Read {
                problem: Problem::P6,
                top_k: Some(4),
                ..read(user, 3, true)
            })
            .find(|r| {
                let a = reference(&system, &universe, r, Some(1)).unwrap();
                a.rows.is_some_and(|(n, _)| n > 0)
            })
            .expect("some read returns rows");
        let reads = [read(0, 3, false), with_rows, read(2, 0, false)];
        let mut samples: Vec<Sample> = reads
            .iter()
            .map(|r| Sample {
                read: *r,
                variant: Some(1),
                answer: reference(&system, &universe, r, Some(1)).unwrap(),
            })
            .collect();
        let clean = audit(&universe, &samples, 2);
        assert_eq!((clean.checked, clean.mismatches), (3, 0));

        // One flipped doi bit is a mismatch, and so is one changed cell.
        samples[0].answer.doi_bits ^= 1;
        assert_eq!(audit(&universe, &samples, 2).mismatches, 1);
        samples[0].answer.doi_bits ^= 1;
        samples[1].answer.rows = samples[1].answer.rows.map(|(n, h)| (n, h ^ 1));
        assert_eq!(audit(&universe, &samples, 1).mismatches, 1);
    }

    #[test]
    fn rows_digest_is_order_sensitive_and_cell_aligned() {
        let d = |rows: &[&[&str]]| rows_digest(rows.iter().map(|r| r.iter().copied()));
        assert_eq!(d(&[&["a"], &["b"]]), d(&[&["a"], &["b"]]));
        assert_ne!(d(&[&["a"], &["b"]]), d(&[&["b"], &["a"]]));
        assert_ne!(d(&[&["ab"]]), d(&[&["a", "b"]]));
        assert_eq!(d(&[&["x"], &["y"]]).0, 2);
    }

    #[test]
    fn sampler_keeps_a_bounded_deterministic_sample() {
        let sample = |i: u64| Sample {
            read: read(0, 0, false),
            variant: None,
            answer: Answer {
                prefs: vec![i],
                doi_bits: 0,
                cost_blocks: 0,
                size_bits: 0,
                sql: String::new(),
                rows: None,
            },
        };
        let mut s = Sampler::new(100);
        for i in 0..10_000 {
            if s.wants(i) {
                s.push(i, sample(i));
            }
        }
        let kept = s.into_samples();
        assert!((50..=100).contains(&kept.len()), "{}", kept.len());
        assert!(kept.iter().all(|k| k.answer.prefs[0] % 128 == 0));
    }
}
