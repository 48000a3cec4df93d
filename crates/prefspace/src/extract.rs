//! The Preference Space extraction algorithm (paper Figure 3).
//!
//! A best-first traversal of the personalization graph: a priority queue
//! `QP` holds candidate paths in decreasing order of doi. Because `f⊗` is
//! non-increasing in path length (Formula 2), the head of the queue always
//! carries the best doi any remaining candidate can achieve — so
//! preferences are appended to `P` in decreasing doi order, and the
//! algorithm can stop as soon as `K` preferences were extracted or the head
//! doi falls below a threshold.
//!
//! "At various points, the algorithm takes into account the CQP constraints
//! to prune down preferences that can never lead to successful personalized
//! queries" — the two sound prunings implemented here are:
//!
//! * a preference `p` with `cost(Q ∧ p) > cmax` can never belong to a
//!   feasible state of a cost-bounded problem (state cost is the sum of its
//!   members' costs, Formula 6), and
//! * a path doi below `min_doi` can never recover (Formula 2).

use crate::space::{PrefParams, PreferenceSpace};
use cqp_engine::{CardEstimator, ConjunctiveQuery, CostModel, Predicate};
use cqp_prefs::{Doi, JoinEdge, PathCompose, Preference, Profile, SelectionEdge};
use cqp_storage::{DbStats, RelationId};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

/// Configuration for preference extraction.
#[derive(Debug, Clone)]
pub struct ExtractConfig {
    /// Maximum number of preferences to extract (`K` in the experiments).
    pub max_k: usize,
    /// Candidates with doi below this are never queued: by Formula 2 no
    /// extension of such a path can recover.
    pub min_doi: f64,
    /// Prune preferences whose own sub-query already exceeds this cost.
    pub cost_max_blocks: Option<u64>,
    /// Safety bound on path length (number of atomic conditions).
    pub max_path_len: usize,
    /// The `f⊗` used to compose path dois.
    pub compose: PathCompose,
    /// Whether to build the `C`/`S` vectors (`C_PrefSelTime`) or only the
    /// doi order (`D_PrefSelTime`); see paper Figure 12(b).
    pub with_cost_vectors: bool,
}

impl Default for ExtractConfig {
    fn default() -> Self {
        ExtractConfig {
            max_k: 20,
            min_doi: 0.0,
            cost_max_blocks: None,
            max_path_len: 4,
            compose: PathCompose::Product,
            with_cost_vectors: true,
        }
    }
}

/// The result of an extraction run.
#[derive(Debug, Clone)]
pub struct Extraction {
    /// The extracted preference space.
    pub space: PreferenceSpace,
    /// Candidates popped from the queue (a work measure for Figure 12(b)).
    pub candidates_examined: usize,
}

/// A candidate path in the queue: a join chain, optionally completed by a
/// terminal selection edge.
#[derive(Debug, Clone)]
struct Candidate {
    /// Each join starts at the previous one's right relation, so the
    /// chain's relations are exactly its joins' endpoints.
    joins: Vec<JoinEdge>,
    selection: Option<SelectionEdge>,
    doi: Doi,
    /// Relation at the end of the join chain (where expansion continues).
    tip: RelationId,
    /// Insertion sequence number for deterministic tie-breaking.
    seq: usize,
}

impl Candidate {
    fn len(&self) -> usize {
        self.joins.len() + usize::from(self.selection.is_some())
    }

    /// Whether the join chain already passes through `relation`.
    fn visits(&self, relation: RelationId) -> bool {
        self.joins
            .iter()
            .any(|j| j.left.relation == relation || j.right.relation == relation)
    }
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.doi == other.doi && self.seq == other.seq
    }
}
impl Eq for Candidate {}
impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap: higher doi first; FIFO among equal dois.
        self.doi
            .cmp(&other.doi)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Runs the Figure 3 extraction for `query` against `profile`.
pub fn extract(
    query: &ConjunctiveQuery,
    profile: &Profile,
    stats: &DbStats,
    config: &ExtractConfig,
) -> Extraction {
    let cost_model = CostModel::new(stats);
    let card = CardEstimator::new(stats);
    let graph = profile.graph();

    let mut qp: BinaryHeap<Candidate> = BinaryHeap::new();
    let mut seq = 0usize;
    // Formula 2: a path below `min_doi` can never recover, so it is never
    // queued, and the queue head never falls below the threshold.
    let mut push = |qp: &mut BinaryHeap<Candidate>,
                    joins: Vec<JoinEdge>,
                    selection: Option<SelectionEdge>,
                    doi: Doi,
                    tip: RelationId| {
        if doi.value() >= config.min_doi {
            qp.push(Candidate {
                joins,
                selection,
                doi,
                tip,
                seq,
            });
        }
        seq += 1;
    };

    // Step 2: atomic preferences syntactically related to Q.
    for &rel in &query.relations {
        for sel in graph.selections_on(rel) {
            push(&mut qp, Vec::new(), Some(sel.clone()), sel.doi, rel);
        }
        for join in graph.joins_from(rel) {
            if join.right.relation == rel {
                continue; // self-loop would cycle immediately
            }
            let tip = join.right.relation;
            push(&mut qp, vec![join.clone()], None, join.doi, tip);
        }
    }

    let mut prefs: Vec<Preference> = Vec::new();
    let mut params: Vec<PrefParams> = Vec::new();
    let mut seen: HashSet<Vec<Predicate>> = HashSet::new();
    let mut examined = 0usize;

    // Step 3: best-first expansion.
    while let Some(cand) = qp.pop() {
        examined += 1;
        if prefs.len() >= config.max_k {
            break;
        }

        // Cost prune applies to partial paths too: extending a path only
        // adds relations, so cost(Q ∧ extension) ≥ cost(Q ∧ path).
        if let Some(cmax) = config.cost_max_blocks {
            let preds = cand
                .joins
                .iter()
                .map(|j| j.predicate())
                .chain(cand.selection.iter().map(|s| s.predicate()));
            if cost_model.query_blocks(&query.with_predicates(preds)) > cmax {
                continue;
            }
        }

        match cand.selection {
            Some(sel) => {
                // A complete selection preference.
                let pref = if cand.joins.is_empty() {
                    Preference::atomic(sel)
                } else {
                    Preference::implicit(cand.joins, sel, config.compose)
                };
                let predicates = pref.predicates();
                if seen.contains(&predicates) {
                    continue; // reachable via a second path; keep the best-doi one
                }
                params.push(PrefParams {
                    doi: pref.doi,
                    cost_blocks: cost_model
                        .query_blocks(&query.with_predicates(predicates.iter().cloned())),
                    size_factor: card.preference_factor(query, &predicates),
                });
                seen.insert(predicates);
                prefs.push(pref);
            }
            None => {
                // A join-terminated path: extend with adjacent atomic
                // preferences at the tip (Figure 3, step 3.2.2).
                if cand.len() >= config.max_path_len {
                    continue;
                }
                for sel in graph.selections_on(cand.tip) {
                    let doi = config.compose.extend(cand.doi, sel.doi);
                    push(
                        &mut qp,
                        cand.joins.clone(),
                        Some(sel.clone()),
                        doi,
                        cand.tip,
                    );
                }
                for join in graph.joins_from(cand.tip) {
                    let next = join.right.relation;
                    if cand.visits(next) {
                        continue; // acyclic paths only
                    }
                    let doi = config.compose.extend(cand.doi, join.doi);
                    let mut joins = cand.joins.clone();
                    joins.push(join.clone());
                    push(&mut qp, joins, None, doi, next);
                }
            }
        }
    }

    let mut space = PreferenceSpace {
        prefs,
        params,
        base_rows: card.query_rows(query),
        base_cost_blocks: cost_model.query_blocks(query),
        d: Vec::new(),
        c: Vec::new(),
        s: Vec::new(),
    };
    space.build_vectors(config.with_cost_vectors);
    Extraction {
        space,
        candidates_examined: examined,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqp_engine::QueryBuilder;
    use cqp_storage::{DataType, Database, RelationSchema, Value};

    /// Movie database with data so statistics are meaningful.
    fn movie_db() -> Database {
        let mut db = Database::with_block_capacity(4);
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
        for i in 0..40i64 {
            db.insert_into(
                "MOVIE",
                vec![
                    Value::Int(i),
                    Value::str(format!("m{i}")),
                    Value::Int(1980 + (i % 30)),
                    Value::Int(90 + i),
                    Value::Int(i % 5),
                ],
            )
            .unwrap();
            db.insert_into(
                "GENRE",
                vec![
                    Value::Int(i),
                    Value::str(if i % 2 == 0 { "musical" } else { "drama" }),
                ],
            )
            .unwrap();
        }
        for d in 0..5i64 {
            db.insert_into(
                "DIRECTOR",
                vec![Value::Int(d), Value::str(format!("dir{d}"))],
            )
            .unwrap();
        }
        db
    }

    fn base_query(db: &Database) -> ConjunctiveQuery {
        QueryBuilder::from(db.catalog(), "MOVIE")
            .unwrap()
            .select("MOVIE", "title")
            .unwrap()
            .build()
    }

    fn figure1_profile(db: &Database) -> Profile {
        Profile::paper_figure1(db.catalog()).unwrap()
    }

    #[test]
    fn extracts_paper_implicit_preferences() {
        let db = movie_db();
        let stats = db.analyze();
        let q = base_query(&db);
        let profile = figure1_profile(&db);
        let ex = extract(&q, &profile, &stats, &ExtractConfig::default());
        let space = &ex.space;
        space.check_invariants().unwrap();

        // From Figure 1 and a query on MOVIE, two implicit selection
        // preferences arise:
        //   p2∧p1: MOVIE.mid=GENRE.mid and GENRE.genre='musical'  (0.9×0.5=0.45)
        //   p3∧p4: MOVIE.did=DIRECTOR.did and DIRECTOR.name='W. Allen' (1.0×0.8=0.8)
        assert_eq!(space.k(), 2);
        assert!((space.doi(0).value() - 0.8).abs() < 1e-12);
        assert!((space.doi(1).value() - 0.45).abs() < 1e-12);
        // The W. Allen path touches MOVIE (10 blocks) + DIRECTOR (2 blocks);
        // the musical path MOVIE + GENRE (10 blocks).
        assert_eq!(space.cost_blocks(0), 12);
        assert_eq!(space.cost_blocks(1), 20);
        // C orders the musical preference (cost 20) first.
        assert_eq!(space.c, vec![1, 0]);
        assert!(ex.candidates_examined >= 2);
    }

    #[test]
    fn unrelated_query_extracts_nothing() {
        let db = movie_db();
        let stats = db.analyze();
        let profile = figure1_profile(&db);
        // Query over DIRECTOR: Figure 1 has a selection on DIRECTOR.name,
        // which IS related; query over GENRE picks the genre selection.
        let q = QueryBuilder::from(db.catalog(), "DIRECTOR")
            .unwrap()
            .select("DIRECTOR", "name")
            .unwrap()
            .build();
        let ex = extract(&q, &profile, &stats, &ExtractConfig::default());
        // Only the atomic DIRECTOR.name selection relates (no join edges
        // leave DIRECTOR in the Figure 1 graph).
        assert_eq!(ex.space.k(), 1);
        assert!((ex.space.doi(0).value() - 0.8).abs() < 1e-12);
        assert!(ex.space.prefs[0].is_atomic());
    }

    #[test]
    fn max_k_truncates_in_doi_order() {
        let db = movie_db();
        let stats = db.analyze();
        let q = base_query(&db);
        let profile = figure1_profile(&db);
        let cfg = ExtractConfig {
            max_k: 1,
            ..Default::default()
        };
        let ex = extract(&q, &profile, &stats, &cfg);
        assert_eq!(ex.space.k(), 1);
        // The best preference must be the W. Allen one (doi 0.8).
        assert!((ex.space.doi(0).value() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn min_doi_prunes_low_paths() {
        let db = movie_db();
        let stats = db.analyze();
        let q = base_query(&db);
        let profile = figure1_profile(&db);
        let cfg = ExtractConfig {
            min_doi: 0.5,
            ..Default::default()
        };
        let ex = extract(&q, &profile, &stats, &cfg);
        assert_eq!(ex.space.k(), 1); // the 0.45 musical path is pruned
    }

    #[test]
    fn cost_prune_removes_expensive_preferences() {
        let db = movie_db();
        let stats = db.analyze();
        let q = base_query(&db);
        let profile = figure1_profile(&db);
        // The musical path costs 20 blocks; the W. Allen path 12.
        let cfg = ExtractConfig {
            cost_max_blocks: Some(15),
            ..Default::default()
        };
        let ex = extract(&q, &profile, &stats, &cfg);
        assert_eq!(ex.space.k(), 1);
        assert_eq!(ex.space.cost_blocks(0), 12);
    }

    #[test]
    fn doi_only_mode_builds_no_cost_vectors() {
        let db = movie_db();
        let stats = db.analyze();
        let q = base_query(&db);
        let profile = figure1_profile(&db);
        let cfg = ExtractConfig {
            with_cost_vectors: false,
            ..Default::default()
        };
        let ex = extract(&q, &profile, &stats, &cfg);
        assert!(ex.space.c.is_empty());
        assert!(ex.space.s.is_empty());
        assert_eq!(ex.space.d.len(), ex.space.k());
    }

    #[test]
    fn longer_chains_compose_through_intermediate_relations() {
        // Add a CASTS/ACTOR chain so MOVIE → CASTS → ACTOR paths arise.
        let mut db = movie_db();
        db.create_relation(RelationSchema::new(
            "CASTS",
            vec![("mid", DataType::Int), ("aid", DataType::Int)],
        ))
        .unwrap();
        db.create_relation(RelationSchema::new(
            "ACTOR",
            vec![("aid", DataType::Int), ("name", DataType::Str)],
        ))
        .unwrap();
        for i in 0..40i64 {
            db.insert_into("CASTS", vec![Value::Int(i), Value::Int(i % 7)])
                .unwrap();
        }
        for a in 0..7i64 {
            db.insert_into(
                "ACTOR",
                vec![Value::Int(a), Value::str(format!("actor{a}"))],
            )
            .unwrap();
        }
        let stats = db.analyze();
        let c = db.catalog();
        let mut profile = Profile::new("chain");
        profile
            .add_join(c, "MOVIE", "mid", "CASTS", "mid", Doi::new(0.9))
            .unwrap();
        profile
            .add_join(c, "CASTS", "aid", "ACTOR", "aid", Doi::new(0.8))
            .unwrap();
        profile
            .add_selection(c, "ACTOR", "name", "actor3", Doi::new(0.75))
            .unwrap();
        let q = base_query(&db);
        let ex = extract(&q, &profile, &stats, &ExtractConfig::default());
        assert_eq!(ex.space.k(), 1);
        // 0.9 × 0.8 × 0.75 = 0.54
        assert!((ex.space.doi(0).value() - 0.54).abs() < 1e-12);
        assert_eq!(ex.space.prefs[0].len(), 3);
    }

    #[test]
    fn duplicate_paths_are_deduplicated() {
        let db = movie_db();
        let stats = db.analyze();
        let c = db.catalog();
        let mut profile = Profile::new("dup");
        // The same join edge twice with different dois: the extraction must
        // keep one copy of the resulting preference (the higher-doi one
        // comes out of the queue first).
        profile
            .add_join(c, "MOVIE", "did", "DIRECTOR", "did", Doi::new(0.9))
            .unwrap();
        profile
            .add_join(c, "MOVIE", "did", "DIRECTOR", "did", Doi::new(0.4))
            .unwrap();
        profile
            .add_selection(c, "DIRECTOR", "name", "dir1", Doi::new(1.0))
            .unwrap();
        let q = base_query(&db);
        let ex = extract(&q, &profile, &stats, &ExtractConfig::default());
        assert_eq!(ex.space.k(), 1);
        assert!((ex.space.doi(0).value() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn join_paths_never_revisit_a_relation() {
        let db = movie_db();
        let stats = db.analyze();
        let c = db.catalog();
        let mut profile = Profile::new("cycle");
        // MOVIE ⇄ DIRECTOR plus a self-loop on DIRECTOR: a chain's back
        // edge leads to the relation it started from, and the self-loop to
        // its tip. Following either would reach a selection a second time
        // through a longer path.
        profile
            .add_join(c, "MOVIE", "did", "DIRECTOR", "did", Doi::new(0.9))
            .unwrap();
        profile
            .add_join(c, "DIRECTOR", "did", "MOVIE", "did", Doi::new(0.9))
            .unwrap();
        profile
            .add_join(c, "DIRECTOR", "did", "DIRECTOR", "did", Doi::new(0.9))
            .unwrap();
        profile
            .add_selection(c, "MOVIE", "year", 1990i64, Doi::new(0.8))
            .unwrap();
        profile
            .add_selection(c, "DIRECTOR", "name", "dir1", Doi::new(0.7))
            .unwrap();
        let director = QueryBuilder::from(c, "DIRECTOR")
            .unwrap()
            .select("DIRECTOR", "name")
            .unwrap()
            .build();
        for q in [base_query(&db), director] {
            let ex = extract(&q, &profile, &stats, &ExtractConfig::default());
            assert_eq!(ex.space.k(), 2);
            assert!(ex.space.prefs.iter().all(|p| p.len() <= 2));
        }
    }
}
