//! `EXPLAIN` for conjunctive and personalized queries.
//!
//! Renders the plan the executor follows — scans with pushed-down
//! selections, hash joins smallest input first, and the union/group
//! combiner — annotated with the block cost model's and the cardinality
//! estimator's numbers. The planner logic is shared: [`scan_order`] and
//! [`join_order`] are what [`crate::exec::execute`] calls, except that the
//! executor orders joins on the exact row counts its scans produced, where
//! `EXPLAIN` has only the estimator's.

use crate::card::CardEstimator;
use crate::cost::CostModel;
use crate::error::{EngineError, EngineResult};
use crate::query::{ConjunctiveQuery, PersonalizedQuery, Predicate};
use cqp_storage::{Catalog, DbStats, RelationId};
use std::fmt::Write as _;

/// One node of an execution plan tree.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanNode {
    /// Operator description, e.g. `HashJoin(MOVIE.did = DIRECTOR.did)`.
    pub op: String,
    /// Estimated output rows.
    pub est_rows: f64,
    /// Estimated blocks read by this node (scans only; joins are free in
    /// the paper's model).
    pub est_blocks: u64,
    /// Child operators.
    pub children: Vec<PlanNode>,
}

impl PlanNode {
    fn leaf(op: String, est_rows: f64, est_blocks: u64) -> Self {
        PlanNode {
            op,
            est_rows,
            est_blocks,
            children: Vec::new(),
        }
    }

    /// Total estimated blocks of the subtree — the paper's query cost.
    pub fn total_blocks(&self) -> u64 {
        self.est_blocks
            + self
                .children
                .iter()
                .map(PlanNode::total_blocks)
                .sum::<u64>()
    }

    /// Renders the tree, one operator per line, indented.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        let _ = writeln!(
            out,
            "{:indent$}{}  (rows≈{:.1}, blocks={})",
            "",
            self.op,
            self.est_rows,
            self.est_blocks,
            indent = depth * 2
        );
        for c in &self.children {
            c.render_into(out, depth + 1);
        }
    }
}

/// Smallest-input-first join order: start from the input with the fewest
/// rows, then repeatedly take the smallest input joined by a predicate to
/// those already taken, so no step is a cross product. `rows[i]` is the
/// size of `relations[i]`: the executor passes the exact row counts its
/// scans produced, [`explain`] the [`CardEstimator`]'s estimates. Ties go to
/// the earlier relation. Returns positions into `relations`.
pub(crate) fn join_order(
    catalog: &Catalog,
    query: &ConjunctiveQuery,
    relations: &[RelationId],
    rows: &[f64],
) -> EngineResult<Vec<usize>> {
    if relations.is_empty() {
        return Err(EngineError::EmptyFrom);
    }
    let mut order: Vec<usize> = Vec::with_capacity(relations.len());
    let mut remaining: Vec<usize> = (0..relations.len()).collect();
    while !remaining.is_empty() {
        let taken = |rel: RelationId| order.iter().any(|&j| relations[j] == rel);
        let joinable = |i: usize| {
            order.is_empty()
                || query.joins().any(|(l, r)| {
                    (l.relation == relations[i] && taken(r.relation))
                        || (r.relation == relations[i] && taken(l.relation))
                })
        };
        let next = (0..remaining.len())
            .filter(|&p| joinable(remaining[p]))
            .min_by(|&a, &b| rows[remaining[a]].total_cmp(&rows[remaining[b]]));
        let Some(p) = next else {
            let name = catalog.relation(relations[remaining[0]])?.name.clone();
            return Err(EngineError::DisconnectedRelation { relation: name });
        };
        order.push(remaining.remove(p));
    }
    Ok(order)
}

/// The order the executor scans relations in: the first FROM relation,
/// then each relation joined to those before it — [`join_order`] over equal
/// sizes. Scans keep this order whatever the join order, so block charges
/// and fault-plan schedules do not depend on the data.
pub(crate) fn scan_order(
    catalog: &Catalog,
    query: &ConjunctiveQuery,
) -> EngineResult<Vec<RelationId>> {
    let equal = vec![0.0; query.relations.len()];
    let order = join_order(catalog, query, &query.relations, &equal)?;
    Ok(order.into_iter().map(|i| query.relations[i]).collect())
}

/// Builds the plan tree for a conjunctive query.
///
/// Joins follow [`join_order`] over the [`CardEstimator`]'s estimate of
/// each filtered scan. The executor applies the same rule to the exact
/// counts its scans produce, so the two join orders agree whenever the
/// estimates rank the inputs as the data does; scans and block costs agree
/// always.
pub fn explain(
    catalog: &Catalog,
    stats: &DbStats,
    query: &ConjunctiveQuery,
) -> EngineResult<PlanNode> {
    query.validate(catalog)?;
    let cost = CostModel::new(stats);
    let card = CardEstimator::new(stats);
    let scans = scan_order(catalog, query)?;

    let scan_node = |rel: RelationId| -> PlanNode {
        let name = catalog
            .relation(rel)
            .map(|s| s.name.clone())
            .unwrap_or_else(|_| "?".into());
        let single = ConjunctiveQuery {
            projection: Vec::new(),
            relations: vec![rel],
            predicates: query.selections_on(rel).cloned().collect(),
        };
        let op = if single.predicates.is_empty() {
            format!("SeqScan({name})")
        } else {
            let conds: Vec<String> = single
                .predicates
                .iter()
                .map(|p| crate::sql::predicate_sql(catalog, p))
                .collect();
            format!("SeqScan({name}: {})", conds.join(" and "))
        };
        PlanNode::leaf(op, card.query_rows(&single), cost.relation_blocks(rel))
    };
    let estimates: Vec<f64> = scans.iter().map(|&rel| scan_node(rel).est_rows).collect();
    let order = join_order(catalog, query, &scans, &estimates)?;

    let first = scans[order[0]];
    let mut joined: Vec<RelationId> = vec![first];
    let mut node = scan_node(first);
    let mut partial = ConjunctiveQuery {
        projection: Vec::new(),
        relations: vec![first],
        predicates: query.selections_on(first).cloned().collect(),
    };
    for &pos in &order[1..] {
        let rel = scans[pos];
        let right = scan_node(rel);
        // All join predicates linking rel with the joined prefix.
        let mut conds: Vec<String> = Vec::new();
        for (l, r) in query.joins() {
            if (l.relation == rel && joined.contains(&r.relation))
                || (r.relation == rel && joined.contains(&l.relation))
            {
                conds.push(format!(
                    "{} = {}",
                    catalog.attr_name(*l),
                    catalog.attr_name(*r)
                ));
                partial.add_predicate(Predicate::Join {
                    left: *l,
                    right: *r,
                });
            }
        }
        for s in query.selections_on(rel) {
            partial.add_predicate(s.clone());
        }
        partial.add_relation(rel);
        joined.push(rel);
        node = PlanNode {
            op: format!("HashJoin({})", conds.join(" and ")),
            est_rows: card.query_rows(&partial),
            est_blocks: 0,
            children: vec![node, right],
        };
    }

    if query.projection.is_empty() {
        Ok(node)
    } else {
        let proj: Vec<String> = query
            .projection
            .iter()
            .map(|qa| catalog.attr_name(*qa))
            .collect();
        Ok(PlanNode {
            op: format!("Project({})", proj.join(", ")),
            est_rows: node.est_rows,
            est_blocks: 0,
            children: vec![node],
        })
    }
}

/// Builds the plan tree for a personalized query: the union of sub-query
/// plans under the `HAVING COUNT(*) = L` combiner.
pub fn explain_personalized(
    catalog: &Catalog,
    stats: &DbStats,
    pq: &PersonalizedQuery,
) -> EngineResult<PlanNode> {
    if pq.is_trivial() {
        return explain(catalog, stats, &pq.base);
    }
    let card = CardEstimator::new(stats);
    let children: Vec<PlanNode> = pq
        .subqueries
        .iter()
        .map(|q| explain(catalog, stats, q))
        .collect::<EngineResult<_>>()?;
    let paths: Vec<Vec<Predicate>> = pq
        .subqueries
        .iter()
        .map(|q| {
            q.predicates
                .iter()
                .filter(|p| !pq.base.predicates.contains(p))
                .cloned()
                .collect()
        })
        .collect();
    let est_rows = card.conjunction_rows(&pq.base, &paths);
    Ok(PlanNode {
        op: format!(
            "GroupHaving(count(*) = {}) over UnionAll[{}]",
            pq.num_preferences(),
            pq.num_preferences()
        ),
        est_rows,
        est_blocks: 0,
        children,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryBuilder;
    use cqp_storage::{DataType, Database, IoMeter, RelationSchema, Value};

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
        for i in 0..12i64 {
            db.insert_into(
                "MOVIE",
                vec![
                    Value::Int(i),
                    Value::str(format!("m{i}")),
                    Value::Int(i % 3),
                ],
            )
            .unwrap();
        }
        for d in 0..3i64 {
            db.insert_into("DIRECTOR", vec![Value::Int(d), Value::str(format!("d{d}"))])
                .unwrap();
        }
        db
    }

    #[test]
    fn explain_matches_executor_cost() {
        let db = db();
        let stats = db.analyze();
        let q = QueryBuilder::from(db.catalog(), "MOVIE")
            .unwrap()
            .select("MOVIE", "title")
            .unwrap()
            .join("MOVIE", "did", "DIRECTOR", "did")
            .unwrap()
            .filter("DIRECTOR", "name", crate::query::CmpOp::Eq, "d1")
            .unwrap()
            .build();
        let plan = explain(db.catalog(), &stats, &q).unwrap();
        // The plan's total blocks equal the cost model AND the actual I/O.
        let model = CostModel::new(&stats);
        assert_eq!(plan.total_blocks(), model.query_blocks(&q));
        let meter = IoMeter::new(1.0);
        crate::exec::execute(&db, &q, &meter).unwrap();
        assert_eq!(plan.total_blocks(), meter.blocks_read());

        let text = plan.render();
        assert!(text.contains("Project(MOVIE.title)"));
        assert!(text.contains("HashJoin(MOVIE.did = DIRECTOR.did)"));
        assert!(text.contains("SeqScan(DIRECTOR: DIRECTOR.name = 'd1')"));
    }

    #[test]
    fn explain_estimates_join_cardinality() {
        let db = db();
        let stats = db.analyze();
        let q = QueryBuilder::from(db.catalog(), "MOVIE")
            .unwrap()
            .select("MOVIE", "title")
            .unwrap()
            .join("MOVIE", "did", "DIRECTOR", "did")
            .unwrap()
            .build();
        let plan = explain(db.catalog(), &stats, &q).unwrap();
        // 12 movies × 3 directors × 1/3 = 12 rows.
        assert!((plan.est_rows - 12.0).abs() < 1e-6, "{}", plan.est_rows);
    }

    #[test]
    fn explain_personalized_nests_subplans() {
        let db = db();
        let stats = db.analyze();
        let c = db.catalog();
        let base = QueryBuilder::from(c, "MOVIE")
            .unwrap()
            .select("MOVIE", "title")
            .unwrap()
            .build();
        let m = c.resolve("MOVIE", "did").unwrap();
        let d = c.resolve("DIRECTOR", "did").unwrap();
        let pq = crate::query::PersonalizedQuery::compose(
            base,
            vec![vec![Predicate::join(m, d)], vec![Predicate::join(m, d)]],
        );
        let plan = explain_personalized(c, &stats, &pq).unwrap();
        assert_eq!(plan.children.len(), 2);
        assert!(plan.op.contains("count(*) = 2"));
        let model = CostModel::new(&stats);
        assert_eq!(plan.total_blocks(), model.personalized_blocks(&pq));
    }

    #[test]
    fn joins_start_from_the_smallest_estimated_input() {
        let db = db();
        let stats = db.analyze();
        let q = QueryBuilder::from(db.catalog(), "MOVIE")
            .unwrap()
            .select("MOVIE", "title")
            .unwrap()
            .join("MOVIE", "did", "DIRECTOR", "did")
            .unwrap()
            .filter("DIRECTOR", "name", crate::query::CmpOp::Eq, "d1")
            .unwrap()
            .build();
        let plan = explain(db.catalog(), &stats, &q).unwrap();
        // Project → HashJoin(DIRECTOR scan, MOVIE scan): 1 director < 12 movies.
        let join = &plan.children[0];
        assert!(join.children[0].op.starts_with("SeqScan(DIRECTOR"));
        assert!(join.children[1].op.starts_with("SeqScan(MOVIE"));
    }

    #[test]
    fn disconnected_relation_errors_name_the_relation() {
        let db = db();
        let stats = db.analyze();
        let c = db.catalog();
        let mut q = QueryBuilder::from(c, "MOVIE")
            .unwrap()
            .select("MOVIE", "title")
            .unwrap()
            .build();
        q.add_relation(c.relation_id("DIRECTOR").unwrap());
        // DIRECTOR (3 rows) is the smaller input, yet the error names it:
        // the relation with no join path to the first FROM relation.
        let want = EngineError::DisconnectedRelation {
            relation: "DIRECTOR".into(),
        };
        assert_eq!(explain(c, &stats, &q).unwrap_err(), want);
        let meter = IoMeter::new(1.0);
        assert_eq!(crate::exec::execute(&db, &q, &meter).unwrap_err(), want);
        // Rejected before any scan.
        assert_eq!(meter.blocks_read(), 0);
    }

    #[test]
    fn trivial_personalized_explains_base() {
        let db = db();
        let stats = db.analyze();
        let base = QueryBuilder::from(db.catalog(), "MOVIE")
            .unwrap()
            .select("MOVIE", "title")
            .unwrap()
            .build();
        let pq = crate::query::PersonalizedQuery {
            base,
            subqueries: vec![],
        };
        let plan = explain_personalized(db.catalog(), &stats, &pq).unwrap();
        assert!(plan.op.starts_with("Project"));
    }
}
