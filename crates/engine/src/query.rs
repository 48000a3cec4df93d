//! Query ASTs: conjunctive queries and personalized (union/having) queries.

use crate::error::{EngineError, EngineResult};
use cqp_storage::{Catalog, QualifiedAttr, RelationId, StorageResult, Value};

/// Comparison operators available in selection predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// SQL spelling of the operator.
    pub fn sql(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }

    /// Evaluates the operator on two values using SQL NULL semantics.
    pub fn eval(self, left: &Value, right: &Value) -> bool {
        if left.is_null() || right.is_null() {
            return false;
        }
        match self {
            CmpOp::Eq => left == right,
            CmpOp::Ne => left != right,
            CmpOp::Lt => left < right,
            CmpOp::Le => left <= right,
            CmpOp::Gt => left > right,
            CmpOp::Ge => left >= right,
        }
    }
}

/// A predicate of a conjunctive query: an atomic selection or join condition,
/// matching the paper's atomic query elements (Section 3).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Predicate {
    /// `attr op value`, e.g. `GENRE.genre = 'musical'`.
    Selection {
        /// The attribute being constrained.
        attr: QualifiedAttr,
        /// Comparison operator.
        op: CmpOp,
        /// Constant the attribute is compared against.
        value: Value,
    },
    /// `left = right`, e.g. `MOVIE.did = DIRECTOR.did`.
    Join {
        /// Left attribute.
        left: QualifiedAttr,
        /// Right attribute.
        right: QualifiedAttr,
    },
}

impl Predicate {
    /// Convenience constructor for an equality selection.
    pub fn eq(attr: QualifiedAttr, value: impl Into<Value>) -> Self {
        Predicate::Selection {
            attr,
            op: CmpOp::Eq,
            value: value.into(),
        }
    }

    /// Convenience constructor for a join condition.
    pub fn join(left: QualifiedAttr, right: QualifiedAttr) -> Self {
        Predicate::Join { left, right }
    }

    /// Relations referenced by this predicate.
    pub fn relations(&self) -> Vec<RelationId> {
        match self {
            Predicate::Selection { attr, .. } => vec![attr.relation],
            Predicate::Join { left, right } => vec![left.relation, right.relation],
        }
    }
}

/// A conjunctive select-project-join query.
///
/// `relations` is the FROM list; `predicates` the conjunctive WHERE clause;
/// `projection` the SELECT list. Every relation appears at most once (the
/// paper's preference paths are acyclic, so self-joins never arise).
#[derive(Debug, Clone, PartialEq)]
pub struct ConjunctiveQuery {
    /// SELECT list.
    pub projection: Vec<QualifiedAttr>,
    /// FROM list (unique relation ids, in join order preference).
    pub relations: Vec<RelationId>,
    /// Conjunctive WHERE clause.
    pub predicates: Vec<Predicate>,
}

impl ConjunctiveQuery {
    /// A single-relation query projecting the given attributes.
    pub fn scan(relation: RelationId, projection: Vec<QualifiedAttr>) -> Self {
        ConjunctiveQuery {
            projection,
            relations: vec![relation],
            predicates: Vec::new(),
        }
    }

    /// Adds a relation to the FROM list if not already present.
    pub fn add_relation(&mut self, relation: RelationId) {
        if !self.relations.contains(&relation) {
            self.relations.push(relation);
        }
    }

    /// Adds a predicate, pulling any newly referenced relations into FROM.
    pub fn add_predicate(&mut self, pred: Predicate) {
        for r in pred.relations() {
            self.add_relation(r);
        }
        self.predicates.push(pred);
    }

    /// Returns a copy of this query extended with the given predicates.
    pub fn with_predicates(&self, preds: impl IntoIterator<Item = Predicate>) -> Self {
        let mut q = self.clone();
        for p in preds {
            q.add_predicate(p);
        }
        q
    }

    /// Checks that every referenced relation and attribute exists in the
    /// catalog and that every predicate's relations are in the FROM list.
    pub fn validate(&self, catalog: &Catalog) -> EngineResult<()> {
        if self.relations.is_empty() {
            return Err(EngineError::EmptyFrom);
        }
        for r in &self.relations {
            catalog.relation(*r)?;
        }
        let check = |qa: QualifiedAttr| -> EngineResult<()> {
            catalog.check_attr(qa)?;
            if !self.relations.contains(&qa.relation) {
                return Err(EngineError::AttrNotInQuery {
                    attr: catalog.attr_name(qa),
                });
            }
            Ok(())
        };
        for p in &self.projection {
            check(*p)?;
        }
        for pred in &self.predicates {
            match pred {
                Predicate::Selection { attr, .. } => check(*attr)?,
                Predicate::Join { left, right } => {
                    check(*left)?;
                    check(*right)?;
                }
            }
        }
        Ok(())
    }

    /// The predicates on `relation` alone, for push-down: its selections
    /// and any join predicate whose two sides are both in it.
    pub fn selections_on(&self, relation: RelationId) -> impl Iterator<Item = &Predicate> + '_ {
        self.predicates.iter().filter(move |p| match p {
            Predicate::Selection { attr, .. } => attr.relation == relation,
            Predicate::Join { left, right } => {
                left.relation == relation && right.relation == relation
            }
        })
    }

    /// Join predicates of the query.
    pub fn joins(&self) -> impl Iterator<Item = (&QualifiedAttr, &QualifiedAttr)> {
        self.predicates.iter().filter_map(|p| match p {
            Predicate::Join { left, right } => Some((left, right)),
            _ => None,
        })
    }
}

/// A personalized query: the paper's Section 4.2 rewriting.
///
/// Semantics: each sub-query integrates one preference into the base query;
/// the final answer is
/// `SELECT … FROM (q1 UNION ALL … UNION ALL qL) GROUP BY … HAVING COUNT(*) = L`,
/// i.e. the tuples that satisfy *all* selected preferences.
#[derive(Debug, Clone, PartialEq)]
pub struct PersonalizedQuery {
    /// The original, unpersonalized query `Q`.
    pub base: ConjunctiveQuery,
    /// One sub-query per integrated preference: `qi = Q ∧ pi`.
    pub subqueries: Vec<ConjunctiveQuery>,
}

impl PersonalizedQuery {
    /// Builds a personalized query from the base and per-preference
    /// predicate lists (one list = one preference's condition path).
    pub fn compose(base: ConjunctiveQuery, preference_predicates: Vec<Vec<Predicate>>) -> Self {
        let subqueries = preference_predicates
            .into_iter()
            .map(|preds| base.with_predicates(preds))
            .collect();
        PersonalizedQuery { base, subqueries }
    }

    /// Number of integrated preferences (`L`, the HAVING count).
    pub fn num_preferences(&self) -> usize {
        self.subqueries.len()
    }

    /// True when no preferences were integrated: the query degenerates to
    /// the base query.
    pub fn is_trivial(&self) -> bool {
        self.subqueries.is_empty()
    }

    /// Validates base and every sub-query against a catalog.
    pub fn validate(&self, catalog: &Catalog) -> EngineResult<()> {
        self.base.validate(catalog)?;
        for q in &self.subqueries {
            q.validate(catalog)?;
        }
        Ok(())
    }
}

/// A small catalog-aware builder so examples and tests can write queries by
/// name rather than by raw ids.
#[derive(Debug)]
pub struct QueryBuilder<'a> {
    catalog: &'a Catalog,
    query: ConjunctiveQuery,
}

impl<'a> QueryBuilder<'a> {
    /// Starts a query over `relation`.
    pub fn from(catalog: &'a Catalog, relation: &str) -> StorageResult<Self> {
        let rid = catalog.relation_id(relation)?;
        Ok(QueryBuilder {
            catalog,
            query: ConjunctiveQuery {
                projection: Vec::new(),
                relations: vec![rid],
                predicates: Vec::new(),
            },
        })
    }

    /// Adds a `REL.attr` to the SELECT list.
    pub fn select(mut self, relation: &str, attribute: &str) -> StorageResult<Self> {
        let qa = self.catalog.resolve(relation, attribute)?;
        self.query.projection.push(qa);
        self.query.add_relation(qa.relation);
        Ok(self)
    }

    /// Adds a `REL.attr op value` selection.
    pub fn filter(
        mut self,
        relation: &str,
        attribute: &str,
        op: CmpOp,
        value: impl Into<Value>,
    ) -> StorageResult<Self> {
        let qa = self.catalog.resolve(relation, attribute)?;
        self.query.add_predicate(Predicate::Selection {
            attr: qa,
            op,
            value: value.into(),
        });
        Ok(self)
    }

    /// Adds a `RELa.x = RELb.y` join.
    pub fn join(
        mut self,
        left_rel: &str,
        left_attr: &str,
        right_rel: &str,
        right_attr: &str,
    ) -> StorageResult<Self> {
        let l = self.catalog.resolve(left_rel, left_attr)?;
        let r = self.catalog.resolve(right_rel, right_attr)?;
        self.query
            .add_predicate(Predicate::Join { left: l, right: r });
        Ok(self)
    }

    /// Finishes the builder.
    pub fn build(self) -> ConjunctiveQuery {
        self.query
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqp_storage::{DataType, RelationSchema};

    fn paper_catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_relation(RelationSchema::new(
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
        c.add_relation(RelationSchema::new(
            "DIRECTOR",
            vec![("did", DataType::Int), ("name", DataType::Str)],
        ))
        .unwrap();
        c.add_relation(RelationSchema::new(
            "GENRE",
            vec![("mid", DataType::Int), ("genre", DataType::Str)],
        ))
        .unwrap();
        c
    }

    #[test]
    fn builder_constructs_paper_example_query() {
        // select title from MOVIE (Section 4.2)
        let c = paper_catalog();
        let q = QueryBuilder::from(&c, "MOVIE")
            .unwrap()
            .select("MOVIE", "title")
            .unwrap()
            .build();
        assert_eq!(q.relations.len(), 1);
        assert!(q.predicates.is_empty());
        q.validate(&c).unwrap();
    }

    #[test]
    fn add_predicate_pulls_in_relations() {
        let c = paper_catalog();
        let mut q = QueryBuilder::from(&c, "MOVIE")
            .unwrap()
            .select("MOVIE", "title")
            .unwrap()
            .build();
        let l = c.resolve("MOVIE", "did").unwrap();
        let r = c.resolve("DIRECTOR", "did").unwrap();
        q.add_predicate(Predicate::join(l, r));
        assert_eq!(q.relations.len(), 2);
        // Adding it again must not duplicate the relation.
        q.add_predicate(Predicate::join(l, r));
        assert_eq!(q.relations.len(), 2);
        q.validate(&c).unwrap();
    }

    #[test]
    fn compose_builds_one_subquery_per_preference() {
        let c = paper_catalog();
        let base = QueryBuilder::from(&c, "MOVIE")
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
        assert_eq!(pq.num_preferences(), 2);
        assert!(!pq.is_trivial());
        pq.validate(&c).unwrap();
        // Sub-query 1 joins MOVIE with DIRECTOR only.
        assert_eq!(pq.subqueries[0].relations.len(), 2);
        assert_eq!(pq.subqueries[1].relations.len(), 2);
    }

    #[test]
    fn validate_rejects_foreign_attrs() {
        let c = paper_catalog();
        let mut q = QueryBuilder::from(&c, "MOVIE")
            .unwrap()
            .select("MOVIE", "title")
            .unwrap()
            .build();
        // Selection on GENRE without GENRE in FROM: add_predicate would pull
        // the relation in, so construct the broken query manually.
        let g_genre = c.resolve("GENRE", "genre").unwrap();
        q.predicates.push(Predicate::eq(g_genre, "musical"));
        let err = q.validate(&c).unwrap_err();
        assert!(matches!(err, EngineError::AttrNotInQuery { .. }));
    }

    #[test]
    fn validate_rejects_empty_from() {
        let c = paper_catalog();
        let q = ConjunctiveQuery {
            projection: vec![],
            relations: vec![],
            predicates: vec![],
        };
        assert!(matches!(q.validate(&c), Err(EngineError::EmptyFrom)));
    }

    #[test]
    fn cmp_op_eval_semantics() {
        assert!(CmpOp::Eq.eval(&Value::Int(3), &Value::Int(3)));
        assert!(CmpOp::Le.eval(&Value::Int(2), &Value::Int(3)));
        assert!(CmpOp::Ge.eval(&Value::Int(3), &Value::Int(3)));
        assert!(CmpOp::Lt.eval(&Value::Int(2), &Value::Int(3)));
        assert!(!CmpOp::Lt.eval(&Value::Int(3), &Value::Int(3)));
        assert!(CmpOp::Gt.eval(&Value::Int(4), &Value::Int(3)));
        assert!(CmpOp::Ne.eval(&Value::Int(4), &Value::Int(3)));
        assert!(!CmpOp::Ne.eval(&Value::Int(3), &Value::Int(3)));
        assert!(!CmpOp::Eq.eval(&Value::Null, &Value::Null));
        assert!(
            !CmpOp::Ne.eval(&Value::Null, &Value::Int(1)),
            "NULL <> x is unknown"
        );
        assert_eq!(CmpOp::Le.sql(), "<=");
        assert_eq!(CmpOp::Ne.sql(), "<>");
        assert_eq!(CmpOp::Lt.sql(), "<");
        assert_eq!(CmpOp::Gt.sql(), ">");
    }
}
