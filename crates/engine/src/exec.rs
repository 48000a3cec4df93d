//! Query execution with block-metered I/O.
//!
//! A conjunctive query runs in two phases.
//!
//! 1. **Scan.** Every FROM relation is scanned in full, once, in scan order
//!    ([`scan_order`]: the first FROM relation, then each relation joined to
//!    those before it), with its selections pushed down. Each block charges
//!    the [`IoMeter`], so measured I/O is the paper's `b × Σ blocks(R)`
//!    (Figure 15), and a fault plan sees the same read schedule whatever the
//!    join phase does. Rows that pass are *borrowed* from the table.
//! 2. **Join.** Hash joins in [`join_order`] over the exact filtered row
//!    counts: the smallest input first, then the smallest input joined to
//!    the rows so far, never a cross product. A joined row is a list of
//!    borrowed tuples; only projected result rows are cloned.
//!
//! A personalized query (Section 4.2's `UNION ALL … HAVING COUNT(*) = L`)
//! scans every sub-query first, in order, then joins them most selective
//! first into a running intersection of their distinct projected rows,
//! still borrowed, and clones only the rows that survive it. Once the
//! intersection is empty, the remaining sub-queries — scanned and charged
//! like the rest — are not joined. Ranked execution ([`crate::rank`]) shares
//! this path with a `HAVING COUNT(*) >= n` threshold.
//!
//! Join keys and row identity use `Value`'s `Eq`/`Hash` under std's keyed
//! default hasher: NULL never joins, and `Int(1)` and `Float(1.0)` differ.

use crate::error::{EngineError, EngineResult};
use crate::explain::{join_order, scan_order};
use crate::query::{ConjunctiveQuery, PersonalizedQuery, Predicate};
use cqp_obs::record::span_guard;
use cqp_obs::{NoopRecorder, Recorder};
use cqp_storage::{Database, IoMeter, QualifiedAttr, RelationId, Tuple, Value};
use std::collections::HashMap;

/// The output of query execution: projected tuples in deterministic order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecOutput {
    /// Projected rows.
    pub rows: Vec<Tuple>,
}

impl ExecOutput {
    /// Number of result rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the result is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// A projected row whose cells are borrowed from the tables.
pub(crate) type RowRef<'a> = Vec<&'a Value>;

/// One scanned relation: the rows that passed its pushed-down selections.
struct Input<'a> {
    relation: RelationId,
    rows: Vec<&'a Tuple>,
}

/// Joined rows, row-major: one borrowed tuple per joined relation.
struct Joined<'a> {
    relations: Vec<RelationId>,
    tuples: Vec<&'a Tuple>,
}

impl<'a> Joined<'a> {
    fn rows(&self) -> std::slice::ChunksExact<'_, &'a Tuple> {
        self.tuples.chunks_exact(self.relations.len())
    }

    fn len(&self) -> usize {
        self.tuples.len() / self.relations.len()
    }

    /// `(tuple slot, attribute index)` of `qa` in a joined row.
    fn locate(&self, qa: QualifiedAttr) -> Option<(usize, usize)> {
        let slot = self.relations.iter().position(|r| *r == qa.relation)?;
        Some((slot, qa.attr.index()))
    }
}

/// Validates `query` and scans its relations in scan order. Scan totals are
/// reported to `recorder` once per scan (not per block) so the no-op path
/// stays out of the inner loop.
fn scan<'a>(
    db: &'a Database,
    query: &ConjunctiveQuery,
    meter: &IoMeter,
    recorder: &dyn Recorder,
) -> EngineResult<Vec<Input<'a>>> {
    query.validate(db.catalog())?;
    let mut inputs = Vec::with_capacity(query.relations.len());
    for relation in scan_order(db.catalog(), query)? {
        let table = db.table(relation)?;
        let selections: Vec<_> = query
            .predicates
            .iter()
            .filter_map(|p| match p {
                Predicate::Selection { attr, op, value } if attr.relation == relation => {
                    Some((attr.attr.index(), *op, value))
                }
                _ => None,
            })
            .collect();
        let mut rows = Vec::new();
        let mut scanned = 0u64;
        for block in table.blocks() {
            meter.try_charge(1)?;
            scanned += block.len() as u64;
            rows.extend(
                block
                    .rows()
                    .iter()
                    .filter(|row| selections.iter().all(|(i, op, v)| op.eval(&row[*i], v))),
            );
        }
        recorder.add("engine.scans", 1);
        recorder.add("engine.blocks_scanned", table.num_blocks());
        recorder.add("engine.rows_scanned", scanned);
        inputs.push(Input { relation, rows });
    }
    Ok(inputs)
}

/// Joins the scanned inputs in [`join_order`]: each step hash-joins the
/// next input on every join predicate linking it to the rows so far.
fn join<'a>(
    db: &Database,
    query: &ConjunctiveQuery,
    inputs: Vec<Input<'a>>,
    recorder: &dyn Recorder,
) -> EngineResult<Joined<'a>> {
    let relations: Vec<RelationId> = inputs.iter().map(|i| i.relation).collect();
    let sizes: Vec<f64> = inputs.iter().map(|i| i.rows.len() as f64).collect();
    let order = join_order(db.catalog(), query, &relations, &sizes)?;
    let mut slots: Vec<Option<Input<'a>>> = inputs.into_iter().map(Some).collect();
    let mut ordered = order.into_iter().filter_map(|i| slots[i].take());
    let first = ordered.next().ok_or(EngineError::EmptyFrom)?;
    let mut joined = Joined {
        relations: vec![first.relation],
        tuples: first.rows,
    };
    for input in ordered {
        let mut keys = Vec::new();
        for (l, r) in query.joins() {
            let (old, new) = if l.relation == input.relation {
                (*r, *l)
            } else if r.relation == input.relation {
                (*l, *r)
            } else {
                continue;
            };
            if let Some(at) = joined.locate(old) {
                keys.push((at, new.attr.index()));
            }
        }
        joined = hash_join(joined, input, &keys);
        recorder.add("engine.joins", 1);
        recorder.add("engine.join_rows_emitted", joined.len() as u64);
    }
    Ok(joined)
}

/// Hash-joins `right` onto `left`. Each key pairs a `(slot, attribute)` of
/// a joined row with an attribute of `right`. The smaller side builds.
fn hash_join<'a>(
    left: Joined<'a>,
    right: Input<'a>,
    keys: &[((usize, usize), usize)],
) -> Joined<'a> {
    let left_key = |row: &[&'a Tuple], key: &mut RowRef<'a>| {
        key.clear();
        key.extend(keys.iter().map(|&((slot, a), _)| &row[slot][a]));
    };
    let right_key = |row: &'a Tuple, key: &mut RowRef<'a>| {
        key.clear();
        key.extend(keys.iter().map(|&(_, a)| &row[a]));
    };
    let width = left.relations.len();
    let mut tuples = Vec::new();
    let mut key = Vec::with_capacity(keys.len());
    if left.len() <= right.rows.len() {
        let table = build(left.rows(), left_key);
        for &row in &right.rows {
            right_key(row, &mut key);
            for &i in table.get(key.as_slice()).into_iter().flatten() {
                tuples.extend_from_slice(&left.tuples[i * width..(i + 1) * width]);
                tuples.push(row);
            }
        }
    } else {
        let table = build(right.rows.iter().copied(), right_key);
        for row in left.rows() {
            left_key(row, &mut key);
            for &i in table.get(key.as_slice()).into_iter().flatten() {
                tuples.extend_from_slice(row);
                tuples.push(right.rows[i]);
            }
        }
    }
    let mut relations = left.relations;
    relations.push(right.relation);
    Joined { relations, tuples }
}

/// The build side of a hash join: row positions by key. Keys holding a
/// NULL are left out, so NULL never joins — probing needs no check.
fn build<'a, R>(
    rows: impl Iterator<Item = R>,
    key_of: impl Fn(R, &mut RowRef<'a>),
) -> HashMap<RowRef<'a>, Vec<usize>> {
    let mut table: HashMap<RowRef<'a>, Vec<usize>> = HashMap::new();
    let mut key = Vec::new();
    for (i, row) in rows.enumerate() {
        key_of(row, &mut key);
        if key.iter().any(|v| v.is_null()) {
            continue;
        }
        match table.get_mut(key.as_slice()) {
            Some(matches) => matches.push(i),
            None => {
                table.insert(key.clone(), vec![i]);
            }
        }
    }
    table
}

/// `(tuple slot, attribute index)` of each projected attribute.
fn projection(
    db: &Database,
    query: &ConjunctiveQuery,
    joined: &Joined<'_>,
) -> EngineResult<Vec<(usize, usize)>> {
    query
        .projection
        .iter()
        .map(|qa| {
            joined
                .locate(*qa)
                .ok_or_else(|| EngineError::ProjectionUnavailable {
                    attr: db.catalog().attr_name(*qa),
                })
        })
        .collect()
}

/// Executes a conjunctive query, returning projected rows.
///
/// A relation with no join path to the query's first relation is rejected
/// ([`EngineError::DisconnectedRelation`]) rather than producing a cartesian
/// product — the paper's preference paths always join through the graph.
pub fn execute(
    db: &Database,
    query: &ConjunctiveQuery,
    meter: &IoMeter,
) -> EngineResult<ExecOutput> {
    execute_recorded(db, query, meter, &NoopRecorder)
}

/// [`execute`] under an `engine.execute` span, reporting scan/join/row
/// counters to `recorder`.
pub fn execute_recorded(
    db: &Database,
    query: &ConjunctiveQuery,
    meter: &IoMeter,
    recorder: &dyn Recorder,
) -> EngineResult<ExecOutput> {
    let _span = span_guard(recorder, "engine.execute");
    let joined = join(db, query, scan(db, query, meter, recorder)?, recorder)?;
    let columns = projection(db, query, &joined)?;
    let mut rows: Vec<Tuple> = joined
        .rows()
        .map(|row| columns.iter().map(|&(s, a)| row[s][a].clone()).collect())
        .collect();
    rows.sort();
    recorder.add("engine.rows_emitted", rows.len() as u64);
    Ok(ExecOutput { rows })
}

/// Executes a personalized query with the paper's Section 4.2 semantics:
///
/// ```sql
/// SELECT … FROM (q1 UNION ALL … UNION ALL qL)
/// GROUP BY … HAVING COUNT(*) = L
/// ```
///
/// Each sub-query's projected rows are first de-duplicated (a preference can
/// otherwise match a base tuple several times through a join) so that the
/// HAVING count means "number of preferences satisfied".
pub fn execute_personalized(
    db: &Database,
    pq: &PersonalizedQuery,
    meter: &IoMeter,
) -> EngineResult<ExecOutput> {
    execute_personalized_recorded(db, pq, meter, &NoopRecorder)
}

/// [`execute_personalized`] under an `engine.execute_personalized` span:
/// each sub-query runs under a shared `engine.subquery` child span (entries
/// aggregate) and the final HAVING-count filter reports the rows kept.
pub fn execute_personalized_recorded(
    db: &Database,
    pq: &PersonalizedQuery,
    meter: &IoMeter,
    recorder: &dyn Recorder,
) -> EngineResult<ExecOutput> {
    let _span = span_guard(recorder, "engine.execute_personalized");
    if pq.is_trivial() {
        return execute_recorded(db, &pq.base, meter, recorder);
    }
    let kept = satisfying_rows(db, pq, pq.num_preferences(), meter, recorder)?;
    let mut rows: Vec<Tuple> = kept
        .into_keys()
        .map(|row| row.into_iter().cloned().collect())
        .collect();
    rows.sort();
    recorder.add("engine.personalized_rows_kept", rows.len() as u64);
    Ok(ExecOutput { rows })
}

/// The distinct projected rows of `pq`'s sub-queries that satisfy at least
/// `min_count` of them (`HAVING COUNT(*) >= min_count`), each with the
/// ascending indices of the sub-queries it satisfies. Rows stay borrowed.
///
/// Every sub-query is scanned first, in order, so the I/O schedule does not
/// depend on the data. Sub-queries are then joined most selective first —
/// smallest filtered input, then fewest input rows — and their rows folded
/// into a running set: a row first seen at step `s` enters only if the
/// steps left could still bring it to `min_count`, and after each step the
/// rows that no longer can are dropped. For `min_count = L` this is a
/// running intersection, and once it is empty the remaining sub-queries
/// are not joined at all.
pub(crate) fn satisfying_rows<'a>(
    db: &'a Database,
    pq: &PersonalizedQuery,
    min_count: usize,
    meter: &IoMeter,
    recorder: &dyn Recorder,
) -> EngineResult<HashMap<RowRef<'a>, Vec<usize>>> {
    let mut scanned = Vec::with_capacity(pq.subqueries.len());
    for sub in &pq.subqueries {
        let _sub_span = span_guard(recorder, "engine.subquery");
        let _span = span_guard(recorder, "engine.execute");
        scanned.push(scan(db, sub, meter, recorder)?);
        recorder.add("engine.subqueries", 1);
    }
    let mut order: Vec<usize> = (0..scanned.len()).collect();
    order.sort_by_key(|&i| {
        let sizes = scanned[i].iter().map(|input| input.rows.len());
        (sizes.clone().min(), sizes.sum::<usize>())
    });

    let steps = order.len();
    let mut kept: HashMap<RowRef<'a>, Vec<usize>> = HashMap::new();
    let mut key = Vec::new();
    for (step, i) in order.into_iter().enumerate() {
        let admits = step + min_count <= steps;
        if kept.is_empty() && !admits {
            break;
        }
        let sub = &pq.subqueries[i];
        let joined = join(db, sub, std::mem::take(&mut scanned[i]), recorder)?;
        let columns = projection(db, sub, &joined)?;
        recorder.add("engine.rows_emitted", joined.len() as u64);
        if recorder.is_enabled() {
            recorder.observe("engine.subquery_rows", joined.len() as u64);
        }
        for row in joined.rows() {
            key.clear();
            key.extend(columns.iter().map(|&(s, a)| &row[s][a]));
            match kept.get_mut(key.as_slice()) {
                Some(subs) if subs.last() != Some(&i) => subs.push(i),
                Some(_) => {}
                None if admits => {
                    kept.insert(key.clone(), vec![i]);
                }
                None => {}
            }
        }
        let left = steps - 1 - step;
        kept.retain(|_, subs| subs.len() + left >= min_count);
    }
    for subs in kept.values_mut() {
        subs.sort_unstable();
    }
    Ok(kept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{CmpOp, QueryBuilder};
    use cqp_storage::{DataType, RelationSchema};

    /// The movie database of the paper's running example.
    fn paper_db() -> Database {
        let mut db = Database::with_block_capacity(2);
        db.create_relation(RelationSchema::new(
            "MOVIE",
            vec![
                ("mid", DataType::Int),
                ("title", DataType::Str),
                ("year", DataType::Int),
                ("duration", DataType::Int),
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

        let movies: &[(i64, &str, i64, i64, i64)] = &[
            (1, "Everyone Says I Love You", 1996, 101, 1),
            (2, "Manhattan", 1979, 96, 1),
            (3, "Chicago", 2002, 113, 2),
            (4, "Heat", 1995, 170, 3),
        ];
        for (mid, title, year, dur, did) in movies {
            db.insert_into(
                "MOVIE",
                vec![
                    Value::Int(*mid),
                    Value::str(*title),
                    Value::Int(*year),
                    Value::Int(*dur),
                    Value::Int(*did),
                ],
            )
            .unwrap();
        }
        for (did, name) in [(1i64, "W. Allen"), (2, "R. Marshall"), (3, "M. Mann")] {
            db.insert_into("DIRECTOR", vec![Value::Int(did), Value::str(name)])
                .unwrap();
        }
        for (mid, genre) in [
            (1i64, "musical"),
            (1, "comedy"),
            (2, "comedy"),
            (3, "musical"),
            (4, "crime"),
        ] {
            db.insert_into("GENRE", vec![Value::Int(mid), Value::str(genre)])
                .unwrap();
        }
        db
    }

    #[test]
    fn simple_scan_projects_and_meters() {
        let db = paper_db();
        let q = QueryBuilder::from(db.catalog(), "MOVIE")
            .unwrap()
            .select("MOVIE", "title")
            .unwrap()
            .build();
        let meter = IoMeter::new(1.0);
        let out = execute(&db, &q, &meter).unwrap();
        assert_eq!(out.len(), 4);
        // 4 movies at 2 rows/block = 2 blocks.
        assert_eq!(meter.blocks_read(), 2);
    }

    #[test]
    fn selection_filters_rows() {
        let db = paper_db();
        let q = QueryBuilder::from(db.catalog(), "MOVIE")
            .unwrap()
            .select("MOVIE", "title")
            .unwrap()
            .filter("MOVIE", "year", CmpOp::Ge, 1996i64)
            .unwrap()
            .build();
        let out = execute(&db, &q, &IoMeter::default()).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.rows[0][0], Value::str("Chicago"));
    }

    #[test]
    fn join_paper_subquery_q1() {
        // Q1: select title from MOVIE M, DIRECTOR D
        //     where M.did = D.did and D.name = 'W. Allen'
        let db = paper_db();
        let q = QueryBuilder::from(db.catalog(), "MOVIE")
            .unwrap()
            .select("MOVIE", "title")
            .unwrap()
            .join("MOVIE", "did", "DIRECTOR", "did")
            .unwrap()
            .filter("DIRECTOR", "name", CmpOp::Eq, "W. Allen")
            .unwrap()
            .build();
        let out = execute(&db, &q, &IoMeter::default()).unwrap();
        let titles: Vec<_> = out.rows.iter().map(|r| r[0].clone()).collect();
        assert_eq!(
            titles,
            vec![
                Value::str("Everyone Says I Love You"),
                Value::str("Manhattan")
            ]
        );
    }

    #[test]
    fn personalized_query_intersects_preferences() {
        // The paper's Section 4.2 example: W. Allen movies AND musicals.
        let db = paper_db();
        let c = db.catalog();
        let base = QueryBuilder::from(c, "MOVIE")
            .unwrap()
            .select("MOVIE", "title")
            .unwrap()
            .build();
        let m_did = c.resolve("MOVIE", "did").unwrap();
        let d_did = c.resolve("DIRECTOR", "did").unwrap();
        let d_name = c.resolve("DIRECTOR", "name").unwrap();
        let m_mid = c.resolve("MOVIE", "mid").unwrap();
        let g_mid = c.resolve("GENRE", "mid").unwrap();
        let g_genre = c.resolve("GENRE", "genre").unwrap();
        let pq = PersonalizedQuery::compose(
            base,
            vec![
                vec![
                    Predicate::join(m_did, d_did),
                    Predicate::eq(d_name, "W. Allen"),
                ],
                vec![
                    Predicate::join(m_mid, g_mid),
                    Predicate::eq(g_genre, "musical"),
                ],
            ],
        );
        let out = execute_personalized(&db, &pq, &IoMeter::default()).unwrap();
        // Only "Everyone Says I Love You" is both by W. Allen and a musical.
        assert_eq!(out.rows, vec![vec![Value::str("Everyone Says I Love You")]]);
    }

    #[test]
    fn trivial_personalized_query_equals_base() {
        let db = paper_db();
        let base = QueryBuilder::from(db.catalog(), "MOVIE")
            .unwrap()
            .select("MOVIE", "title")
            .unwrap()
            .build();
        let pq = PersonalizedQuery {
            base: base.clone(),
            subqueries: vec![],
        };
        let a = execute_personalized(&db, &pq, &IoMeter::default()).unwrap();
        let b = execute(&db, &base, &IoMeter::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn duplicate_join_matches_are_deduplicated_per_subquery() {
        // Movie 1 has two genres; a genre-less preference on GENRE would
        // match it twice without per-sub-query dedup.
        let db = paper_db();
        let c = db.catalog();
        let base = QueryBuilder::from(c, "MOVIE")
            .unwrap()
            .select("MOVIE", "title")
            .unwrap()
            .build();
        let m_mid = c.resolve("MOVIE", "mid").unwrap();
        let g_mid = c.resolve("GENRE", "mid").unwrap();
        // Preference: "has any genre row" (a pure join preference path).
        let pq = PersonalizedQuery::compose(base, vec![vec![Predicate::join(m_mid, g_mid)]]);
        let out = execute_personalized(&db, &pq, &IoMeter::default()).unwrap();
        // Movies 1,2,3,4 all have genre rows; movie 1 must appear once.
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn disconnected_relation_is_rejected() {
        let db = paper_db();
        let c = db.catalog();
        let mut q = QueryBuilder::from(c, "MOVIE")
            .unwrap()
            .select("MOVIE", "title")
            .unwrap()
            .build();
        q.add_relation(c.relation_id("DIRECTOR").unwrap());
        let err = execute(&db, &q, &IoMeter::default()).unwrap_err();
        assert!(matches!(err, EngineError::DisconnectedRelation { .. }));
    }

    #[test]
    fn meter_accumulates_across_subqueries() {
        let db = paper_db();
        let c = db.catalog();
        let base = QueryBuilder::from(c, "MOVIE")
            .unwrap()
            .select("MOVIE", "title")
            .unwrap()
            .build();
        let m_did = c.resolve("MOVIE", "did").unwrap();
        let d_did = c.resolve("DIRECTOR", "did").unwrap();
        let pq = PersonalizedQuery::compose(
            base,
            vec![
                vec![Predicate::join(m_did, d_did)],
                vec![Predicate::join(m_did, d_did)],
            ],
        );
        let meter = IoMeter::new(1.0);
        execute_personalized(&db, &pq, &meter).unwrap();
        // Each sub-query scans MOVIE (2 blocks) + DIRECTOR (2 blocks).
        assert_eq!(meter.blocks_read(), 8);
        assert!((meter.elapsed_ms() - 8.0).abs() < 1e-12);
    }

    /// `L(k, v)` and `R(k, w)` at 2 tuples per block.
    fn keyed_db(left: &[(Option<i64>, &str)], right: &[(Option<i64>, &str)]) -> Database {
        let mut db = Database::with_block_capacity(2);
        for (name, rows) in [("L", left), ("R", right)] {
            db.create_relation(RelationSchema::new(
                name,
                vec![("k", DataType::Int), ("v", DataType::Str)],
            ))
            .unwrap();
            for (k, v) in rows {
                let key = k.map_or(Value::Null, Value::Int);
                db.insert_into(name, vec![key, Value::str(*v)]).unwrap();
            }
        }
        db
    }

    #[test]
    fn null_keys_never_match_whichever_side_builds() {
        let small: &[(Option<i64>, &str)] = &[(Some(1), "a"), (None, "n")];
        let large: &[(Option<i64>, &str)] = &[
            (Some(1), "x"),
            (None, "y"),
            (None, "z"),
            (Some(2), "w"),
            (Some(1), "u"),
        ];
        // The smaller input builds, so swapping the data swaps the sides.
        for (left, right, want) in [
            (small, large, [["a", "u"], ["a", "x"]]),
            (large, small, [["u", "a"], ["x", "a"]]),
        ] {
            let db = keyed_db(left, right);
            for from in ["L", "R"] {
                let other = if from == "L" { "R" } else { "L" };
                let q = QueryBuilder::from(db.catalog(), from)
                    .unwrap()
                    .join(from, "k", other, "k")
                    .unwrap()
                    .select("L", "v")
                    .unwrap()
                    .select("R", "v")
                    .unwrap()
                    .build();
                let out = execute(&db, &q, &IoMeter::default()).unwrap();
                let want: Vec<Tuple> = want
                    .iter()
                    .map(|r| r.iter().map(|s| Value::str(*s)).collect())
                    .collect();
                assert_eq!(out.rows, want, "FROM {from} first");
            }
        }
    }

    /// A personalized query whose first preference matches nothing.
    fn empty_first_preference(db: &Database) -> PersonalizedQuery {
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
                    Predicate::eq(c.resolve("DIRECTOR", "name").unwrap(), "Nobody"),
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
    fn empty_intersection_still_charges_every_later_subquery() {
        let db = paper_db();
        let pq = empty_first_preference(&db);
        let meter = IoMeter::new(1.0);
        let obs = cqp_obs::Obs::new();
        let out = execute_personalized_recorded(&db, &pq, &meter, &obs).unwrap();
        assert!(out.is_empty());
        let stats = db.analyze();
        let blocks = crate::cost::CostModel::new(&stats).personalized_blocks(&pq);
        assert_eq!(meter.blocks_read(), blocks);
        let reg = obs.registry();
        assert_eq!(reg.counter("engine.scans"), 4);
        assert_eq!(reg.counter("engine.blocks_scanned"), 9);
        assert_eq!(reg.counter("engine.rows_scanned"), 4 + 3 + 4 + 5);
    }

    #[test]
    fn every_nth_fault_fails_on_the_same_block() {
        // 9 blocks in scan order: MOVIE 2 + DIRECTOR 2, then MOVIE 2 +
        // GENRE 3. Each case is (n, completed scans, their blocks) at the
        // failure, as the row-cloning executor reported them: every 5th
        // read fails sub-query 2's first MOVIE block, every 7th its first
        // GENRE block, every 9th the last GENRE block — after the empty
        // first preference, so later sub-queries are still scanned.
        let db = paper_db();
        let pq = empty_first_preference(&db);
        for (n, scans, blocks) in [(5, 2, 4), (7, 3, 6), (9, 3, 6)] {
            let plan = std::sync::Arc::new(cqp_storage::FaultPlan::new(
                3,
                cqp_storage::FaultMode::EveryNth { n },
            ));
            let meter = IoMeter::new(1.0).with_fault_plan(plan.clone());
            let obs = cqp_obs::Obs::new();
            let err = execute_personalized_recorded(&db, &pq, &meter, &obs).unwrap_err();
            assert_eq!(
                err,
                EngineError::Storage(cqp_storage::StorageError::InjectedIo { read_index: n - 1 })
            );
            assert_eq!(meter.blocks_read(), n - 1);
            assert_eq!(plan.reads_seen(), n);
            let reg = obs.registry();
            assert_eq!(reg.counter("engine.scans"), scans, "n = {n}");
            assert_eq!(reg.counter("engine.blocks_scanned"), blocks, "n = {n}");
        }
    }
}
