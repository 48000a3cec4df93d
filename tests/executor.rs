//! Executor equivalence.
//!
//! * A nested-loop reference evaluator — bind FROM relations one at a time,
//!   check each predicate once its relations are bound, project, sort,
//!   apply the HAVING count — against the executor and ranked execution,
//!   over seeded random
//!   queries on a small hand-built database (NULL join keys, duplicate
//!   matches, a two-column join, an INT = FLOAT join, joins within one
//!   relation, cross-type literals, build sides that hash their `INT` keys)
//!   and over `CqpSystem`-built personalized queries on `MovieDbConfig::tiny`.
//! * Golden digests (row count, cell hash, blocks read) of 640 personalized
//!   queries at the benchmark's database scale, captured from the
//!   row-cloning executor this one replaced.

use cqp_core::answer_cache::{fnv1a, FNV_OFFSET};
use cqp_core::construct::construct;
use cqp_core::prelude::*;
use cqp_datagen::{generate_movie_db, generate_movie_profile, MovieDbConfig, ProfileGenConfig};
use cqp_engine::{
    execute, execute_personalized, execute_ranked, parse_query, CmpOp, ConjunctiveQuery, CostModel,
    Matching, PersonalizedQuery, Predicate, RankedRow,
};
use cqp_prefs::Doi;
use cqp_prefspace::{extract, ExtractConfig};
use cqp_storage::{
    DataType, Database, IoMeter, QualifiedAttr, RelationId, RelationSchema, Tuple, Value,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------------
// Reference evaluator
// ---------------------------------------------------------------------------

fn holds(pred: &Predicate, value_of: impl Fn(QualifiedAttr) -> Value) -> bool {
    match pred {
        Predicate::Selection { attr, op, value } => op.eval(&value_of(*attr), value),
        Predicate::Join { left, right } => value_of(*left).sql_eq(&value_of(*right)),
    }
}

/// Nested-loop evaluation of a conjunctive query in FROM order; rows sorted.
fn reference_rows(db: &Database, q: &ConjunctiveQuery) -> Vec<Tuple> {
    let pos = |rel: RelationId| q.relations.iter().position(|r| *r == rel).unwrap();
    let slot = |qa: QualifiedAttr| pos(qa.relation);
    let tables: Vec<Vec<Tuple>> = q
        .relations
        .iter()
        .map(|r| db.table(*r).unwrap().rows().collect())
        .collect();
    // Each predicate is checked at the depth binding its last relation.
    let mut checks: Vec<Vec<&Predicate>> = vec![Vec::new(); q.relations.len()];
    for p in &q.predicates {
        let depth = p.relations().into_iter().map(pos).max();
        checks[depth.unwrap()].push(p);
    }
    let mut out = Vec::new();
    let mut bound: Vec<&Tuple> = Vec::new();
    bind(q, &slot, &tables, &checks, &mut bound, &mut out);
    out.sort();
    out
}

fn bind<'a>(
    q: &ConjunctiveQuery,
    slot: &dyn Fn(QualifiedAttr) -> usize,
    tables: &'a [Vec<Tuple>],
    checks: &[Vec<&Predicate>],
    bound: &mut Vec<&'a Tuple>,
    out: &mut Vec<Tuple>,
) {
    let depth = bound.len();
    if depth == tables.len() {
        out.push(
            q.projection
                .iter()
                .map(|qa| bound[slot(*qa)][qa.attr.index()].clone())
                .collect(),
        );
        return;
    }
    for row in &tables[depth] {
        bound.push(row);
        let value_of = |qa: QualifiedAttr| bound[slot(qa)][qa.attr.index()].clone();
        if checks[depth].iter().all(|p| holds(p, value_of)) {
            bind(q, slot, tables, checks, bound, out);
        }
        bound.pop();
    }
}

/// Each distinct projected row of `pq`'s sub-queries with the indices of
/// the sub-queries it appears in, grouped by `Value` equality alone (no
/// hashing).
fn reference_groups(db: &Database, pq: &PersonalizedQuery) -> Vec<(Tuple, Vec<usize>)> {
    let mut groups: Vec<(Tuple, Vec<usize>)> = Vec::new();
    for (i, sub) in pq.subqueries.iter().enumerate() {
        for row in reference_rows(db, sub) {
            match groups.iter_mut().find(|(r, _)| *r == row) {
                Some((_, subs)) if subs.last() == Some(&i) => {}
                Some((_, subs)) => subs.push(i),
                None => groups.push((row, vec![i])),
            }
        }
    }
    groups
}

/// `q1 UNION ALL … qL GROUP BY … HAVING COUNT(*) = L` over per-sub-query
/// distinct rows.
fn reference_personalized(db: &Database, pq: &PersonalizedQuery) -> Vec<Tuple> {
    if pq.is_trivial() {
        return reference_rows(db, &pq.base);
    }
    let mut rows: Vec<Tuple> = reference_groups(db, pq)
        .into_iter()
        .filter(|(_, subs)| subs.len() == pq.num_preferences())
        .map(|(row, _)| row)
        .collect();
    rows.sort();
    rows
}

/// Soft matching (`HAVING COUNT(*) >= min_count`), ranked by the noisy-or
/// over the satisfied preferences' dois, ties by row.
fn reference_ranked(
    db: &Database,
    pq: &PersonalizedQuery,
    dois: &[f64],
    min_count: usize,
) -> Vec<RankedRow> {
    let mut ranked: Vec<RankedRow> = reference_groups(db, pq)
        .into_iter()
        .filter(|(_, subs)| subs.len() >= min_count)
        .map(|(row, subs)| RankedRow {
            row,
            doi: 1.0 - subs.iter().map(|&i| 1.0 - dois[i]).product::<f64>(),
            satisfied: subs,
        })
        .collect();
    ranked.sort_by(|a, b| b.doi.total_cmp(&a.doi).then_with(|| a.row.cmp(&b.row)));
    ranked
}

/// Runs both evaluators and the block identity on one personalized query.
fn assert_personalized_matches(db: &Database, pq: &PersonalizedQuery, what: &str) {
    let stats = db.analyze();
    let meter = IoMeter::new(1.0);
    let got = execute_personalized(db, pq, &meter).unwrap();
    let sql = cqp_engine::sql::personalized_sql(db.catalog(), pq);
    assert_eq!(got.rows, reference_personalized(db, pq), "{what}: {sql}");
    assert_eq!(
        meter.blocks_read(),
        CostModel::new(&stats).personalized_blocks(pq),
        "{what}: {sql}"
    );
    for sub in &pq.subqueries {
        let meter = IoMeter::new(1.0);
        let got = execute(db, sub, &meter).unwrap();
        assert_eq!(got.rows, reference_rows(db, sub), "{what} sub-query: {sql}");
        assert_eq!(
            meter.blocks_read(),
            CostModel::new(&stats).query_blocks(sub)
        );
    }
    let dois: Vec<f64> = (0..pq.num_preferences())
        .map(|i| 0.9 - 0.1 * i as f64)
        .collect();
    for min_count in 1..=pq.num_preferences() + 1 {
        let meter = IoMeter::new(1.0);
        let got = execute_ranked(db, pq, &dois, Matching::AtLeast(min_count), &meter).unwrap();
        let want = reference_ranked(db, pq, &dois, min_count);
        assert_eq!(got, want, "{what} ranked, at least {min_count}: {sql}");
        assert_eq!(
            meter.blocks_read(),
            CostModel::new(&stats).personalized_blocks(pq)
        );
    }
}

// ---------------------------------------------------------------------------
// Random queries on a hand-built database
// ---------------------------------------------------------------------------

/// Four relations over small domains with ~1 in 6 NULLs, so joins fan out
/// (duplicate matches) and NULL keys appear on both sides of every join.
/// P and Q hold enough rows that a join between them can build on more
/// distinct `INT` keys than a linear search takes. Three tuples per block.
fn edge_db(seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::with_block_capacity(3);
    for (name, attrs) in [
        (
            "P",
            vec![
                ("id", DataType::Int),
                ("k", DataType::Int),
                ("s", DataType::Str),
            ],
        ),
        (
            "Q",
            vec![
                ("pid", DataType::Int),
                ("k", DataType::Int),
                ("tag", DataType::Str),
            ],
        ),
        (
            "R",
            vec![
                ("qk", DataType::Int),
                ("name", DataType::Str),
                ("w", DataType::Float),
            ],
        ),
        ("S", vec![("f", DataType::Float), ("name", DataType::Str)]),
    ] {
        let id = db
            .create_relation(RelationSchema::new(name, attrs))
            .unwrap();
        let types: Vec<DataType> = db
            .catalog()
            .relation(id)
            .unwrap()
            .attributes
            .iter()
            .map(|a| a.ty)
            .collect();
        let rows = if matches!(name, "P" | "Q") {
            16..40usize
        } else {
            5..15
        };
        for _ in 0..rng.gen_range(rows) {
            let row = types.iter().map(|ty| random_value(&mut rng, *ty)).collect();
            db.insert(id, row).unwrap();
        }
    }
    db
}

/// `INT`s are even numbers in -12..=22 (gaps, negative keys) and, one
/// time in 50, a far outlier whose span no join bitmap covers.
fn random_value(rng: &mut StdRng, ty: DataType) -> Value {
    if rng.gen_range(0..6u32) == 0 {
        return Value::Null;
    }
    match ty {
        DataType::Int if rng.gen_range(0..50u32) == 0 => Value::Int(1 << 40),
        DataType::Int => Value::Int(2 * rng.gen_range(-6..12i64)),
        DataType::Float => Value::float(rng.gen_range(0..4i64) as f64 / 2.0),
        DataType::Str => Value::str(["a", "b", "c", "d"][rng.gen_range(0..4usize)]),
    }
}

/// A selection literal: of the column's type, except one time in four of
/// a type drawn independently, as `parse_query` accepts from the wire.
fn random_literal(rng: &mut StdRng, ty: DataType) -> Value {
    let ty = if rng.gen_range(0..4u32) == 0 {
        [DataType::Int, DataType::Float, DataType::Str][rng.gen_range(0..3usize)]
    } else {
        ty
    };
    random_value(rng, ty)
}

/// Join edges of the edge database: (left, right) attribute pairs that
/// must all hold. `P–Q` on two columns, `R.qk = S.f` compares INT with
/// FLOAT and so never matches. `P.id = P.k` and `R.qk = R.w` (INT = FLOAT
/// again) join a relation to itself, so its scan must apply them.
const EDGES: &[&[(&str, &str, &str, &str)]] = &[
    &[("P", "id", "Q", "pid")],
    &[("P", "id", "Q", "pid"), ("P", "k", "Q", "k")],
    &[("Q", "k", "R", "qk")],
    &[("R", "w", "S", "f")],
    &[("P", "k", "R", "qk")],
    &[("R", "qk", "S", "f")],
    &[("P", "s", "S", "name")],
    &[("P", "id", "P", "k")],
    &[("R", "qk", "R", "w")],
];

fn attr(db: &Database, rel: &str, a: &str) -> QualifiedAttr {
    db.catalog().resolve(rel, a).unwrap()
}

/// Extends `relations` by up to `joins` edges and `sels` selections; each
/// edge reaches one relation not yet in `relations`, or adds a predicate
/// between two relations already there.
fn random_path(
    db: &Database,
    rng: &mut StdRng,
    relations: &mut Vec<u16>,
    joins: usize,
    sels: usize,
) -> Vec<Predicate> {
    let mut preds = Vec::new();
    for _ in 0..joins {
        let edge = EDGES[rng.gen_range(0..EDGES.len())];
        let (l, r) = (
            attr(db, edge[0].0, edge[0].1),
            attr(db, edge[0].2, edge[0].3),
        );
        let (has_l, has_r) = (
            relations.contains(&l.relation.0),
            relations.contains(&r.relation.0),
        );
        if !has_l && !has_r {
            continue;
        }
        for (la, lb, ra, rb) in edge.iter() {
            preds.push(Predicate::join(attr(db, la, lb), attr(db, ra, rb)));
        }
        for rel in [l.relation.0, r.relation.0] {
            if !relations.contains(&rel) {
                relations.push(rel);
            }
        }
    }
    for _ in 0..sels {
        let rel = relations[rng.gen_range(0..relations.len())];
        let schema = db.catalog().relation(RelationId(rel)).unwrap();
        let a = rng.gen_range(0..schema.arity());
        let op = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ][rng.gen_range(0..6usize)];
        preds.push(Predicate::Selection {
            attr: QualifiedAttr::new(rel, a as u16),
            op,
            value: random_literal(rng, schema.attributes[a].ty),
        });
    }
    preds
}

fn random_query(db: &Database, rng: &mut StdRng) -> ConjunctiveQuery {
    let n_rel = db.catalog().len() as u16;
    let mut relations = vec![rng.gen_range(0..n_rel)];
    let (joins, sels) = (rng.gen_range(0..4), rng.gen_range(0..3));
    let preds = random_path(db, rng, &mut relations, joins, sels);
    // Any FROM order: the executor scans the first relation, then
    // connectivity order, and the reference binds in FROM order.
    for i in (1..relations.len()).rev() {
        relations.swap(i, rng.gen_range(0..=i));
    }
    let mut projection = Vec::new();
    for _ in 0..rng.gen_range(1..4usize) {
        let rel = relations[rng.gen_range(0..relations.len())];
        let arity = db.catalog().relation(RelationId(rel)).unwrap().arity();
        projection.push(QualifiedAttr::new(rel, rng.gen_range(0..arity) as u16));
    }
    ConjunctiveQuery {
        projection,
        relations: relations.into_iter().map(RelationId).collect(),
        predicates: preds,
    }
}

/// Whether `q` joins two relations on one `INT = INT` key with more than
/// 8 distinct non-NULL keys on each filtered side, so that whichever side
/// builds is hashed rather than searched linearly.
fn hashes_an_int_join(db: &Database, q: &ConjunctiveQuery) -> bool {
    let keys: Vec<_> = q
        .joins()
        .filter(|(l, r)| l.relation != r.relation)
        .collect();
    let [(l, r)] = keys[..] else {
        return false;
    };
    let distinct = |key: QualifiedAttr| {
        let table = db.table(key.relation).unwrap();
        let mut values: Vec<Value> = table
            .rows()
            .filter(|row| {
                q.selections_on(key.relation)
                    .all(|p| holds(p, |qa| row[qa.attr.index()].clone()))
            })
            .map(|row| row[key.attr.index()].clone())
            .filter(|v| matches!(v, Value::Int(_)))
            .collect();
        values.sort();
        values.dedup();
        values.len()
    };
    q.relations.len() == 2 && distinct(*l) > 8 && distinct(*r) > 8
}

#[test]
fn random_conjunctive_queries_match_the_reference() {
    let mut hashed = 0;
    for seed in 0..300u64 {
        let db = edge_db(seed / 30);
        let mut rng = StdRng::seed_from_u64(seed);
        let q = random_query(&db, &mut rng);
        hashed += usize::from(hashes_an_int_join(&db, &q));
        let meter = IoMeter::new(1.0);
        let got = execute(&db, &q, &meter).unwrap();
        let sql = cqp_engine::sql::conjunctive_sql(db.catalog(), &q);
        assert_eq!(got.rows, reference_rows(&db, &q), "seed {seed}: {sql}");
        assert_eq!(
            meter.blocks_read(),
            CostModel::new(&db.analyze()).query_blocks(&q),
            "seed {seed}: {sql}"
        );
    }
    assert!(hashed > 0, "no query hashed an INT join's build side");
}

#[test]
fn random_personalized_queries_match_the_reference() {
    for seed in 0..300u64 {
        let db = edge_db(1000 + seed / 30);
        let mut rng = StdRng::seed_from_u64(1000 + seed);
        let base = random_query(&db, &mut rng);
        let paths = (0..rng.gen_range(1..5usize))
            .map(|_| {
                let mut rels: Vec<u16> = base.relations.iter().map(|r| r.0).collect();
                let (joins, sels) = (rng.gen_range(0..3), rng.gen_range(1..3));
                random_path(&db, &mut rng, &mut rels, joins, sels)
            })
            .collect();
        let pq = PersonalizedQuery::compose(base, paths);
        assert_personalized_matches(&db, &pq, &format!("seed {seed}"));
    }
}

#[test]
fn system_built_personalized_queries_match_the_reference() {
    let db_cfg = MovieDbConfig::tiny(11);
    let db = generate_movie_db(&db_cfg);
    let system = CqpSystem::new(&db);
    let problems = [
        ProblemSpec::p2(40),
        ProblemSpec::p2(120),
        ProblemSpec::p4(Doi::new(0.5)),
        ProblemSpec::p1(1.0, 60.0),
    ];
    let templates = [
        "SELECT title FROM MOVIE",
        "SELECT mid, title FROM MOVIE WHERE MOVIE.year >= 1990",
    ];
    let mut checked = 0;
    for user in 0..4u64 {
        let profile = generate_movie_profile(
            db.catalog(),
            &ProfileGenConfig {
                n_directors: db_cfg.directors,
                n_actors: db_cfg.actors,
                ..ProfileGenConfig::tiny(100 + user)
            },
        );
        for sql in templates {
            let query = parse_query(sql, db.catalog()).unwrap();
            for problem in &problems {
                let config = SolverConfig {
                    algorithm: Algorithm::BranchBound,
                    ..SolverConfig::default()
                };
                let outcome = system
                    .personalize(&query, &profile, problem, &config)
                    .unwrap();
                assert_personalized_matches(&db, &outcome.query, &outcome.sql);
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 32);
}

#[test]
fn same_relation_equality_matches_the_reference_on_the_movie_db() {
    let db = generate_movie_db(&MovieDbConfig::tiny(1));
    let sql = "SELECT mid, did FROM MOVIE WHERE MOVIE.mid = MOVIE.did";
    let q = parse_query(sql, db.catalog()).unwrap();
    let got = execute(&db, &q, &IoMeter::new(1.0)).unwrap();
    assert_eq!(got.rows, reference_rows(&db, &q));
    assert_eq!(got.len(), 1);
}

// ---------------------------------------------------------------------------
// Golden digests at the benchmark's database scale
// ---------------------------------------------------------------------------

/// The benchmark's query templates.
const TEMPLATES: [&str; 10] = [
    "SELECT title FROM MOVIE",
    "SELECT title, year FROM MOVIE",
    "SELECT mid, title FROM MOVIE WHERE MOVIE.year >= 1990",
    "SELECT title, duration FROM MOVIE WHERE MOVIE.year >= 1980",
    "SELECT mid, title FROM MOVIE",
    "SELECT title, duration FROM MOVIE",
    "SELECT title FROM MOVIE WHERE MOVIE.year >= 1975",
    "SELECT title, year FROM MOVIE WHERE MOVIE.year >= 1995",
    "SELECT mid, title FROM MOVIE WHERE MOVIE.year >= 2000",
    "SELECT title, duration FROM MOVIE WHERE MOVIE.year >= 1970",
];

/// Order-sensitive FNV-1a over the rendered cells.
fn cells_hash(rows: &[Tuple]) -> u64 {
    let mut h = FNV_OFFSET;
    for row in rows {
        for v in row {
            h = fnv1a(h, v.to_string().as_bytes());
            h = fnv1a(h, &[0x1f]);
        }
        h = fnv1a(h, &[0x1e]);
    }
    h
}

/// 16 users (the benchmark's profile generator) × 10 templates × K ∈
/// {8, 12, 16} × 4 seeded preference subsets of 1–6 preferences.
fn golden_queries(db: &Database) -> Vec<PersonalizedQuery> {
    let stats = db.analyze();
    let defaults = MovieDbConfig::default();
    let mut rng = StdRng::seed_from_u64(0x601D);
    let mut out = Vec::new();
    for user in 0..16usize {
        let profile = generate_movie_profile(
            db.catalog(),
            &ProfileGenConfig {
                doi_mean: 0.35 + 0.5 * ((user % 8) as f64 / 8.0),
                doi_deviation: 0.15 + 0.05 * (user % 4) as f64,
                n_directors: defaults.directors,
                n_actors: defaults.actors,
                seed: 1000 + user as u64,
                ..ProfileGenConfig::default()
            },
        );
        for (t, sql) in TEMPLATES.iter().enumerate() {
            let base = parse_query(sql, db.catalog()).unwrap();
            let max_k = [8, 12, 16][(user + t) % 3];
            let space = extract(
                &base,
                &profile,
                &stats,
                &ExtractConfig {
                    max_k,
                    ..ExtractConfig::default()
                },
            )
            .space;
            for _ in 0..4 {
                let mut pool: Vec<usize> = (0..space.k()).collect();
                let take = rng.gen_range(1..=space.k().min(6));
                let prefs: Vec<usize> = (0..take)
                    .map(|_| pool.swap_remove(rng.gen_range(0..pool.len())))
                    .collect();
                out.push(construct(&base, &space, &prefs).unwrap());
            }
        }
    }
    out
}

#[test]
fn personalized_queries_match_golden_digests() {
    let db = generate_movie_db(&MovieDbConfig {
        block_capacity: 256,
        ..MovieDbConfig::default()
    });
    let queries = golden_queries(&db);
    let golden: Vec<&str> = include_str!("data/executor_golden.txt").lines().collect();
    assert_eq!(queries.len(), golden.len());
    for (i, (pq, want)) in queries.iter().zip(&golden).enumerate() {
        let meter = IoMeter::new(1.0);
        let out = execute_personalized(&db, pq, &meter).unwrap();
        let first = execute(&db, &pq.subqueries[0], &IoMeter::new(1.0)).unwrap();
        let got = format!(
            "{} {:016x} {} {} {:016x}",
            out.rows.len(),
            cells_hash(&out.rows),
            meter.blocks_read(),
            first.rows.len(),
            cells_hash(&first.rows),
        );
        assert_eq!(
            got,
            *want,
            "query {i}: {}",
            cqp_engine::sql::personalized_sql(db.catalog(), pq)
        );
    }
}
