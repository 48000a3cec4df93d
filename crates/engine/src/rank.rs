//! Ranked execution of personalized queries.
//!
//! The paper requires that "the results of a personalized query should be
//! ranked by function `r` based on the preferences that they satisfy in a
//! profile" (Section 3) and notes after the rewriting that "the results of
//! this query may be ranked based on their degree of interest"
//! (Section 4.2).
//!
//! With the strict `HAVING COUNT(*) = L` form every surviving tuple
//! satisfies all `L` preferences and ranking is trivial. This module also
//! offers the *soft* variant — `HAVING COUNT(*) >= 1` — where a tuple
//! satisfies any non-empty subset of the integrated preferences and is
//! ranked by `r` over the dois of the sub-queries it appears in. That is
//! the classic personalization-ranking mode of the underlying preference
//! model (Koutrika & Ioannidis, ICDE 2004).

use crate::error::EngineResult;
use crate::exec::{execute, satisfying_rows};
use crate::query::PersonalizedQuery;
use cqp_obs::NoopRecorder;
use cqp_storage::{Database, IoMeter, Tuple};

/// A result row with its degree of interest.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedRow {
    /// The projected tuple.
    pub row: Tuple,
    /// `r(doi of satisfied preferences)`.
    pub doi: f64,
    /// Indices (into the personalized query's sub-query list) of the
    /// preferences this row satisfies.
    pub satisfied: Vec<usize>,
}

/// How many preferences a row must satisfy to be returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Matching {
    /// `HAVING COUNT(*) = L` — the paper's strict conjunction (Section 4.2).
    All,
    /// `HAVING COUNT(*) >= n` — the soft variant; `AtLeast(1)` is the
    /// classic ranked personalization.
    AtLeast(usize),
}

/// Executes a personalized query and ranks rows by the noisy-or `r`
/// (Formula 10) over the dois of the preferences each row satisfies.
///
/// `pref_dois` must be parallel to `pq.subqueries`. Rows are ordered by
/// descending doi, ties broken by the tuple order for determinism.
pub fn execute_ranked(
    db: &Database,
    pq: &PersonalizedQuery,
    pref_dois: &[f64],
    matching: Matching,
    meter: &IoMeter,
) -> EngineResult<Vec<RankedRow>> {
    assert_eq!(
        pref_dois.len(),
        pq.subqueries.len(),
        "one doi per integrated preference"
    );
    let min_count = match matching {
        Matching::All => pq.num_preferences(),
        Matching::AtLeast(n) => n.max(1),
    };
    if pq.is_trivial() {
        let out = execute(db, &pq.base, meter)?;
        return Ok(out
            .rows
            .into_iter()
            .map(|row| RankedRow {
                row,
                doi: 0.0,
                satisfied: Vec::new(),
            })
            .collect());
    }

    let mut ranked: Vec<RankedRow> = satisfying_rows(db, pq, min_count, meter, &NoopRecorder)?
        .into_iter()
        .map(|(row, prefs)| {
            // Noisy-or over the satisfied preferences' dois (Formula 10).
            let doi = 1.0 - prefs.iter().map(|&i| 1.0 - pref_dois[i]).product::<f64>();
            RankedRow {
                row,
                doi,
                satisfied: prefs,
            }
        })
        .collect();
    ranked.sort_by(|a, b| b.doi.total_cmp(&a.doi).then_with(|| a.row.cmp(&b.row)));
    Ok(ranked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Predicate, QueryBuilder};
    use cqp_storage::{DataType, RelationSchema, Value};

    fn db() -> Database {
        let mut db = Database::with_block_capacity(4);
        db.create_relation(RelationSchema::new(
            "MOVIE",
            vec![
                ("mid", DataType::Int),
                ("title", DataType::Str),
                ("did", DataType::Int),
            ],
        ))
        .unwrap();
        db.create_relation(RelationSchema::new(
            "DIRECTOR",
            vec![("did", DataType::Int), ("name", DataType::Str)],
        ))
        .unwrap();
        db.create_relation(RelationSchema::new(
            "GENRE",
            vec![("mid", DataType::Int), ("genre", DataType::Str)],
        ))
        .unwrap();
        for (mid, title, did) in [
            (1i64, "Both", 1i64),
            (2, "AllenOnly", 1),
            (3, "MusicalOnly", 2),
            (4, "Neither", 2),
        ] {
            db.insert_into(
                "MOVIE",
                vec![Value::Int(mid), Value::str(title), Value::Int(did)],
            )
            .unwrap();
        }
        db.insert_into("DIRECTOR", vec![Value::Int(1), Value::str("W. Allen")])
            .unwrap();
        db.insert_into("DIRECTOR", vec![Value::Int(2), Value::str("Other")])
            .unwrap();
        for (mid, g) in [
            (1i64, "musical"),
            (3, "musical"),
            (2, "drama"),
            (4, "drama"),
        ] {
            db.insert_into("GENRE", vec![Value::Int(mid), Value::str(g)])
                .unwrap();
        }
        db
    }

    fn personalized(db: &Database) -> PersonalizedQuery {
        let c = db.catalog();
        let base = QueryBuilder::from(c, "MOVIE")
            .unwrap()
            .select("MOVIE", "title")
            .unwrap()
            .build();
        PersonalizedQuery::compose(
            base,
            vec![
                vec![
                    Predicate::join(
                        c.resolve("MOVIE", "did").unwrap(),
                        c.resolve("DIRECTOR", "did").unwrap(),
                    ),
                    Predicate::eq(c.resolve("DIRECTOR", "name").unwrap(), "W. Allen"),
                ],
                vec![
                    Predicate::join(
                        c.resolve("MOVIE", "mid").unwrap(),
                        c.resolve("GENRE", "mid").unwrap(),
                    ),
                    Predicate::eq(c.resolve("GENRE", "genre").unwrap(), "musical"),
                ],
            ],
        )
    }

    #[test]
    fn strict_matching_equals_having_count_l() {
        let db = db();
        let pq = personalized(&db);
        let ranked =
            execute_ranked(&db, &pq, &[0.8, 0.45], Matching::All, &IoMeter::default()).unwrap();
        assert_eq!(ranked.len(), 1);
        assert_eq!(ranked[0].row, vec![Value::str("Both")]);
        // r(0.8, 0.45) = 1 - 0.2*0.55 = 0.89.
        assert!((ranked[0].doi - 0.89).abs() < 1e-12);
        assert_eq!(ranked[0].satisfied, vec![0, 1]);
    }

    #[test]
    fn soft_matching_ranks_by_satisfied_dois() {
        let db = db();
        let pq = personalized(&db);
        let ranked = execute_ranked(
            &db,
            &pq,
            &[0.8, 0.45],
            Matching::AtLeast(1),
            &IoMeter::default(),
        )
        .unwrap();
        // Both (0.89) > AllenOnly (0.8) > MusicalOnly (0.45); Neither absent.
        let titles: Vec<_> = ranked.iter().map(|r| r.row[0].clone()).collect();
        assert_eq!(
            titles,
            vec![
                Value::str("Both"),
                Value::str("AllenOnly"),
                Value::str("MusicalOnly")
            ]
        );
        assert!(ranked[0].doi > ranked[1].doi && ranked[1].doi > ranked[2].doi);
    }

    #[test]
    fn at_least_two_equals_all_for_two_prefs() {
        let db = db();
        let pq = personalized(&db);
        let all =
            execute_ranked(&db, &pq, &[0.8, 0.45], Matching::All, &IoMeter::default()).unwrap();
        let two = execute_ranked(
            &db,
            &pq,
            &[0.8, 0.45],
            Matching::AtLeast(2),
            &IoMeter::default(),
        )
        .unwrap();
        assert_eq!(all, two);
    }

    #[test]
    fn trivial_query_rows_have_zero_doi() {
        let db = db();
        let c = db.catalog();
        let base = QueryBuilder::from(c, "MOVIE")
            .unwrap()
            .select("MOVIE", "title")
            .unwrap()
            .build();
        let pq = PersonalizedQuery {
            base,
            subqueries: vec![],
        };
        let ranked =
            execute_ranked(&db, &pq, &[], Matching::AtLeast(1), &IoMeter::default()).unwrap();
        assert_eq!(ranked.len(), 4);
        assert!(ranked.iter().all(|r| r.doi == 0.0));
    }

    #[test]
    #[should_panic(expected = "one doi per integrated preference")]
    fn doi_arity_checked() {
        let db = db();
        let pq = personalized(&db);
        let _ = execute_ranked(&db, &pq, &[0.8], Matching::All, &IoMeter::default());
    }
}
