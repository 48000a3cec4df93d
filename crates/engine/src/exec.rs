//! Query execution with block-metered I/O over row ids.
//!
//! A conjunctive query runs in two phases.
//!
//! 1. **Scan.** Every FROM relation is scanned in full, once, in scan order
//!    ([`scan_order`]: the first FROM relation, then each relation joined to
//!    those before it), with its selections pushed down. Each block charges
//!    the [`IoMeter`], so measured I/O is the paper's `b × Σ blocks(R)`
//!    (Figure 15), and a fault plan sees the same read schedule whatever the
//!    join phase does. Selections, and join predicates whose two sides are
//!    both in the scanned relation, run on the table's typed columns and
//!    yield `u32` row ids. Each selection picks one kernel before its row
//!    loop: an `INT` or `FLOAT` column against a literal of its own type
//!    compares bare numbers, and string `=` / `<>` looks the literal up
//!    once in the column's dictionary and compares codes. Other pairs
//!    (string ranges, cross-type and NULL literals) go through
//!    [`CmpOp::eval`], which every kernel agrees with. The first condition
//!    walks its columns front to back and writes passing row ids; later
//!    ones narrow them.
//! 2. **Join.** Hash joins in [`join_order`] over the exact filtered row
//!    counts: the smallest input first, then the smallest input joined to
//!    the rows so far, never a cross product. A joined row is a list of row
//!    ids, one per relation, and keys are read from the columns. Only result
//!    rows become tuples.
//!
//! A personalized query (Section 4.2's `UNION ALL … HAVING COUNT(*) = L`)
//! scans every sub-query first, in order, each charging its own blocks.
//! The sub-queries share their filtering: each distinct (relation,
//! conditions) pair is filtered once per execution. It then joins them
//! most selective first into a running intersection of their distinct
//! projected rows, keyed on column values, and builds tuples only for the
//! rows that survive it. Once the intersection is empty, the remaining
//! sub-queries — scanned and charged like the rest — are not joined. Ranked
//! execution ([`crate::rank`]) shares this path with a
//! `HAVING COUNT(*) >= n` threshold.
//!
//! Join keys and row identity are [`Cell`]s (a key joining two `INT`
//! columns is the bare `i64`), which compare like `Value`s: NULL never
//! joins, `Int(1)` and `Float(1.0)` differ, and strings compare by content
//! across dictionaries. A build side with more than a few distinct keys
//! hashes them under std's keyed default hasher, since database contents
//! can come from CSV; a smaller one is searched linearly. A hashed `INT`
//! key also gets a bitmap of the keys present over their `[min, max]`,
//! when that needs no more words than the build side has rows: a probe
//! outside the span or on a clear bit skips the hash. A bit's position is
//! the key itself, so the bitmap adds no collisions to craft.

use crate::error::{EngineError, EngineResult};
use crate::explain::{join_order, scan_order};
use crate::query::{CmpOp, ConjunctiveQuery, PersonalizedQuery, Predicate};
use cqp_obs::record::span_guard;
use cqp_obs::{NoopRecorder, Recorder};
use cqp_storage::{
    Cell, Column, ColumnData, Database, IoMeter, QualifiedAttr, RelationId, Table, Tuple, Value,
};
use std::collections::HashMap;
use std::hash::Hash;

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

/// A condition pushed down to one relation's scan.
#[derive(Clone, Copy, PartialEq)]
enum Condition<'q> {
    /// A selection: attribute index, operator, literal.
    Compare(usize, CmpOp, &'q Value),
    /// A join predicate whose two sides are both in the scanned relation:
    /// two attribute indices.
    Equal(usize, usize),
}

/// The row ids of one relation that pass a list of conditions.
struct Filtered<'q> {
    relation: RelationId,
    conditions: Vec<Condition<'q>>,
    rows: Vec<u32>,
}

/// The filtered row ids of one execution: each distinct (relation,
/// conditions) pair is filtered once and shared by every scan of it.
#[derive(Default)]
struct Filters<'q>(Vec<Filtered<'q>>);

impl<'q> Filters<'q> {
    /// The position of `relation`'s row ids under `conditions`, filtering
    /// `table` on first use.
    fn position(
        &mut self,
        relation: RelationId,
        table: &Table,
        conditions: Vec<Condition<'q>>,
    ) -> usize {
        let seen = self
            .0
            .iter()
            .position(|f| f.relation == relation && f.conditions == conditions);
        seen.unwrap_or_else(|| {
            let rows = filter(table, &conditions);
            self.0.push(Filtered {
                relation,
                conditions,
                rows,
            });
            self.0.len() - 1
        })
    }

    fn rows(&self, input: Input) -> &[u32] {
        &self.0[input.filtered].rows
    }
}

/// The row ids of `table` that pass every condition, in order. The first
/// condition produces ids and later ones narrow them; `None` stands for
/// every row until then. A NULL cell passes nothing. A same-relation
/// equality compares [`Cell`]s, as a join key does: `Int` never equals
/// `Float`, and strings compare by content, since the two columns have
/// separate dictionaries.
fn filter(table: &Table, conditions: &[Condition<'_>]) -> Vec<u32> {
    let all = || (0..table.num_rows() as u32).collect();
    let mut rows = None;
    for condition in conditions {
        match *condition {
            Condition::Compare(attr, op, literal) => {
                compare(&mut rows, table.column(attr), op, literal);
            }
            Condition::Equal(a, b) => {
                let (a, b) = (table.column(a), table.column(b));
                keep(rows.get_or_insert_with(all), |r| {
                    let cell = a.cell(r);
                    cell != Cell::Null && cell == b.cell(r)
                });
            }
        }
    }
    rows.unwrap_or_else(all)
}

/// Narrows `rows` to those whose cell satisfies `op literal` as
/// [`CmpOp::eval`] decides, choosing the kernel once, outside the row
/// loop (see the module docs).
fn compare(rows: &mut Option<Vec<u32>>, column: &Column, op: CmpOp, literal: &Value) {
    let nulls = column.nulls();
    match (column.data(), literal) {
        (ColumnData::Int(v), &Value::Int(x)) => match op {
            CmpOp::Eq => select(rows, nulls, v, |c| c == x),
            CmpOp::Ne => select(rows, nulls, v, |c| c != x),
            CmpOp::Lt => select(rows, nulls, v, |c| c < x),
            CmpOp::Le => select(rows, nulls, v, |c| c <= x),
            CmpOp::Gt => select(rows, nulls, v, |c| c > x),
            CmpOp::Ge => select(rows, nulls, v, |c| c >= x),
        },
        // `Value` equates floats by bit pattern and orders them by
        // `partial_cmp`, so -0.0 <> 0.0 yet -0.0 <= 0.0. No cell is NaN.
        (ColumnData::Float(v), &Value::Float(x)) => match op {
            CmpOp::Eq => select(rows, nulls, v, |c| c.to_bits() == x.to_bits()),
            CmpOp::Ne => select(rows, nulls, v, |c| c.to_bits() != x.to_bits()),
            CmpOp::Lt => select(rows, nulls, v, |c| c < x),
            CmpOp::Le => select(rows, nulls, v, |c| c <= x),
            CmpOp::Gt => select(rows, nulls, v, |c| c > x),
            CmpOp::Ge => select(rows, nulls, v, |c| c >= x),
        },
        (ColumnData::Str { codes, dict }, Value::Str(s)) if matches!(op, CmpOp::Eq | CmpOp::Ne) => {
            match (op, dict.code(s)) {
                (CmpOp::Eq, Some(code)) => select(rows, nulls, codes, |c| c == code),
                (CmpOp::Eq, None) => *rows = Some(Vec::new()),
                (_, Some(code)) => select(rows, nulls, codes, |c| c != code),
                (_, None) => select(rows, nulls, codes, |_| true),
            }
        }
        (ColumnData::Str { codes, dict }, _) => {
            let pass: Vec<bool> = dict.values().iter().map(|s| op.eval(s, literal)).collect();
            // A NULL row's placeholder code may not be in `dict`.
            select(rows, nulls, codes, |c| pass.get(c as usize) == Some(&true));
        }
        (ColumnData::Int(v), _) => select(rows, nulls, v, |c| op.eval(&Value::Int(c), literal)),
        (ColumnData::Float(v), _) => {
            select(rows, nulls, v, |c| op.eval(&Value::Float(c), literal));
        }
    }
}

/// Narrows `rows` to the ids whose cell is not NULL and passes `pass`.
/// With no ids yet, walks the NULL marks and values together over the
/// whole column. A NULL row's placeholder value is tested too, so the loops
/// do not branch on the mark.
fn select<T: Copy>(
    rows: &mut Option<Vec<u32>>,
    nulls: &[bool],
    values: &[T],
    pass: impl Fn(T) -> bool,
) {
    match rows {
        Some(rows) => keep(rows, |r| !nulls[r] & pass(values[r])),
        None => {
            let mut ids = vec![0; values.len()];
            let mut kept = 0;
            for (r, (&null, &value)) in nulls.iter().zip(values).enumerate() {
                ids[kept] = r as u32;
                kept += usize::from(!null & pass(value));
            }
            ids.truncate(kept);
            *rows = Some(ids);
        }
    }
}

/// Keeps the row ids that pass `test`, in order. The write is
/// unconditional, so the loop does not branch on the outcome.
fn keep(rows: &mut Vec<u32>, test: impl Fn(usize) -> bool) {
    let mut kept = 0;
    for i in 0..rows.len() {
        let r = rows[i];
        rows[kept] = r;
        kept += usize::from(test(r as usize));
    }
    rows.truncate(kept);
}

/// One scanned relation: its row ids are `Filters::rows(input)`.
#[derive(Clone, Copy)]
struct Input {
    relation: RelationId,
    filtered: usize,
}

/// Joined rows, row-major: one row id per joined relation.
struct Joined<'a> {
    tables: Vec<(RelationId, &'a Table)>,
    rows: Vec<u32>,
}

impl<'a> Joined<'a> {
    fn rows(&self) -> std::slice::ChunksExact<'_, u32> {
        self.rows.chunks_exact(self.tables.len())
    }

    fn len(&self) -> usize {
        self.rows.len() / self.tables.len()
    }

    /// The slot of `qa`'s relation in a joined row, and `qa`'s column.
    fn locate(&self, qa: QualifiedAttr) -> Option<(usize, &'a Column)> {
        let slot = self.tables.iter().position(|(r, _)| *r == qa.relation)?;
        Some((slot, self.tables[slot].1.column(qa.attr.index())))
    }
}

/// Validates `query` and scans its relations in scan order, charging every
/// block and taking each relation's row ids from `filters`. Scan totals are
/// reported to `recorder` once per scan (not per block) so the no-op path
/// stays out of the inner loop.
fn scan<'q>(
    db: &Database,
    query: &'q ConjunctiveQuery,
    filters: &mut Filters<'q>,
    meter: &IoMeter,
    recorder: &dyn Recorder,
) -> EngineResult<Vec<Input>> {
    query.validate(db.catalog())?;
    let mut inputs = Vec::with_capacity(query.relations.len());
    for relation in scan_order(db.catalog(), query)? {
        let table = db.table(relation)?;
        let conditions: Vec<_> = query
            .selections_on(relation)
            .map(|p| match p {
                Predicate::Selection { attr, op, value } => {
                    Condition::Compare(attr.attr.index(), *op, value)
                }
                Predicate::Join { left, right } => {
                    Condition::Equal(left.attr.index(), right.attr.index())
                }
            })
            .collect();
        for _ in 0..table.num_blocks() {
            meter.try_charge(1)?;
        }
        let filtered = filters.position(relation, table, conditions);
        recorder.add("engine.scans", 1);
        recorder.add("engine.blocks_scanned", table.num_blocks());
        recorder.add("engine.rows_scanned", table.num_rows() as u64);
        inputs.push(Input { relation, filtered });
    }
    Ok(inputs)
}

/// Joins the scanned inputs in [`join_order`]: each step hash-joins the
/// next input on every join predicate linking it to the rows so far.
fn join<'a>(
    db: &'a Database,
    query: &ConjunctiveQuery,
    inputs: &[Input],
    filters: &Filters<'_>,
    recorder: &dyn Recorder,
) -> EngineResult<Joined<'a>> {
    let relations: Vec<RelationId> = inputs.iter().map(|i| i.relation).collect();
    let sizes: Vec<f64> = inputs
        .iter()
        .map(|&i| filters.rows(i).len() as f64)
        .collect();
    let order = join_order(db.catalog(), query, &relations, &sizes)?;
    let mut ordered = order.into_iter().map(|i| inputs[i]);
    let first = ordered.next().ok_or(EngineError::EmptyFrom)?;
    let mut joined = Joined {
        tables: vec![(first.relation, db.table(first.relation)?)],
        rows: filters.rows(first).to_vec(),
    };
    for input in ordered {
        let table = db.table(input.relation)?;
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
                keys.push((at, table.column(new.attr.index())));
            }
        }
        let rows = hash_join(&joined, filters.rows(input), &keys);
        joined.tables.push((input.relation, table));
        joined.rows = rows;
        recorder.add("engine.joins", 1);
        recorder.add("engine.join_rows_emitted", joined.len() as u64);
    }
    Ok(joined)
}

/// Hash-joins the row ids `right` onto `left`, returning the joined rows.
/// Each key pairs a `(slot, column)` of a joined row with a column of the
/// new relation. A single key on two `INT` columns is the bare `i64`; any
/// other key is a `Vec` of [`Cell`]s.
fn hash_join<'a>(
    left: &Joined<'a>,
    right: &[u32],
    keys: &[((usize, &'a Column), &'a Column)],
) -> Vec<u32> {
    if let [((slot, lc), rc)] = *keys {
        if let (ColumnData::Int(lv), ColumnData::Int(rv)) = (lc.data(), rc.data()) {
            let (ln, rn) = (lc.nulls(), rc.nulls());
            return join_on(
                left,
                right,
                |row, key| {
                    let r = row[slot] as usize;
                    *key = lv[r];
                    !ln[r]
                },
                |r, key| {
                    *key = rv[r as usize];
                    !rn[r as usize]
                },
            );
        }
    }
    join_on(
        left,
        right,
        |row, key: &mut Vec<Cell<'a>>| {
            key.clear();
            key.extend(
                keys.iter()
                    .map(|&((slot, c), _)| c.cell(row[slot] as usize)),
            );
            !key.contains(&Cell::Null)
        },
        |r, key| {
            key.clear();
            key.extend(keys.iter().map(|&(_, c)| c.cell(r as usize)));
            !key.contains(&Cell::Null)
        },
    )
}

/// A join key: the bare `i64` of a single `INT = INT` key, or a `Vec` of
/// [`Cell`]s.
trait JoinKey: Hash + Eq + Clone + Default {
    /// The key as a [`Bitmap`] slot. Only a bare `i64` is one.
    fn slot(&self) -> Option<i64> {
        None
    }
}

impl JoinKey for i64 {
    fn slot(&self) -> Option<i64> {
        Some(*self)
    }
}

impl JoinKey for Vec<Cell<'_>> {}

/// Hash-joins on keys that `left_key` and `right_key` read into a reused
/// buffer, each returning false for a key holding NULL. The smaller side
/// builds.
fn join_on<K: JoinKey>(
    left: &Joined<'_>,
    right: &[u32],
    left_key: impl Fn(&[u32], &mut K) -> bool,
    right_key: impl Fn(u32, &mut K) -> bool,
) -> Vec<u32> {
    let width = left.tables.len();
    let mut out = Vec::new();
    let mut key = K::default();
    if left.len() <= right.len() {
        let build = Build::new(left.rows(), &left_key);
        for &r in right {
            if right_key(r, &mut key) {
                for i in build.matches(&key) {
                    out.extend_from_slice(&left.rows[i * width..(i + 1) * width]);
                    out.push(r);
                }
            }
        }
    } else {
        let build = Build::new(right.iter().copied(), &right_key);
        for row in left.rows() {
            if left_key(row, &mut key) {
                for i in build.matches(&key) {
                    out.extend_from_slice(row);
                    out.push(right[i]);
                }
            }
        }
    }
    out
}

/// End of a [`Build`] chain.
const END: usize = usize::MAX;

/// Build sides with at most this many distinct keys are searched
/// linearly: comparing a few keys costs less than hashing one, and most
/// joins of a personalized query build on the few rows one selection
/// picks. At most 8 comparisons a probe is no flooding risk either, so only
/// larger build sides need the keyed hasher.
const LINEAR_KEYS: usize = 8;

/// The build side of a hash join: each key's row positions, chained
/// through `next` from the key's head. Keys holding NULL are left out, so
/// NULL never joins and probing needs no check.
struct Build<K> {
    heads: Heads<K>,
    next: Vec<usize>,
    /// The hashed `INT` keys, when their span needs no more words than
    /// the build side has rows: a probe on a clear bit skips the hash.
    present: Option<Bitmap>,
}

/// The chain head of each distinct key.
enum Heads<K> {
    Linear(Vec<(K, usize)>),
    Hashed(HashMap<K, usize>),
}

impl<K: Hash + Eq + Clone> Heads<K> {
    /// Makes `i` the head of `key`'s chain, returning the previous head.
    fn push(&mut self, key: &K, i: usize) -> usize {
        match self {
            Heads::Linear(keys) => {
                if let Some((_, head)) = keys.iter_mut().find(|(k, _)| k == key) {
                    return std::mem::replace(head, i);
                }
                if keys.len() < LINEAR_KEYS {
                    keys.push((key.clone(), i));
                } else {
                    let mut map: HashMap<K, usize> = keys.drain(..).collect();
                    map.insert(key.clone(), i);
                    *self = Heads::Hashed(map);
                }
                END
            }
            Heads::Hashed(map) => match map.get_mut(key) {
                Some(head) => std::mem::replace(head, i),
                None => {
                    map.insert(key.clone(), i);
                    END
                }
            },
        }
    }

    fn get(&self, key: &K) -> usize {
        match self {
            Heads::Linear(keys) => keys.iter().find(|(k, _)| k == key).map_or(END, |&(_, h)| h),
            Heads::Hashed(map) => map.get(key).copied().unwrap_or(END),
        }
    }
}

impl<K: JoinKey> Build<K> {
    fn new<R>(rows: impl ExactSizeIterator<Item = R>, key_of: impl Fn(R, &mut K) -> bool) -> Self {
        let mut heads = Heads::Linear(Vec::new());
        let mut next = Vec::with_capacity(rows.len());
        let mut key = K::default();
        for (i, row) in rows.enumerate() {
            next.push(if key_of(row, &mut key) {
                heads.push(&key, i)
            } else {
                END
            });
        }
        let present = match &heads {
            Heads::Hashed(map) => Bitmap::new(map.keys().filter_map(K::slot), next.len()),
            Heads::Linear(_) => None,
        };
        Build {
            heads,
            next,
            present,
        }
    }

    fn matches(&self, key: &K) -> impl Iterator<Item = usize> + '_ {
        let absent =
            matches!((&self.present, key.slot()), (Some(bits), Some(k)) if !bits.contains(k));
        let mut at = if absent { END } else { self.heads.get(key) };
        std::iter::from_fn(move || {
            let i = at;
            (i != END).then(|| {
                at = self.next[i];
                i
            })
        })
    }
}

/// The `INT` keys present over `[min, min + 64 · words.len())`, one bit a
/// value. A bit's position is the key itself, so crafted keys cannot
/// collide in it.
struct Bitmap {
    min: i64,
    words: Vec<u64>,
}

impl Bitmap {
    /// The bitmap of `keys`, or `None` if there are none or their span needs
    /// more than `max_words` words.
    fn new(keys: impl Iterator<Item = i64> + Clone, max_words: usize) -> Option<Self> {
        let min = keys.clone().min()?;
        let max = keys.clone().max()?;
        // `abs_diff` spans even `i64::MIN..=i64::MAX` without overflow.
        let words = usize::try_from(max.abs_diff(min) / 64 + 1).ok()?;
        if words > max_words {
            return None;
        }
        let mut bits = Bitmap {
            min,
            words: vec![0; words],
        };
        for key in keys {
            let at = key.abs_diff(min);
            bits.words[(at / 64) as usize] |= 1 << (at % 64);
        }
        Some(bits)
    }

    fn contains(&self, key: i64) -> bool {
        if key < self.min {
            return false;
        }
        let at = key.abs_diff(self.min);
        usize::try_from(at / 64)
            .ok()
            .and_then(|w| self.words.get(w))
            .is_some_and(|word| (word >> (at % 64)) & 1 == 1)
    }
}

/// `(slot, column)` of each projected attribute.
fn projection<'a>(
    db: &Database,
    query: &ConjunctiveQuery,
    joined: &Joined<'a>,
) -> EngineResult<Vec<(usize, &'a Column)>> {
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
    let mut filters = Filters::default();
    let inputs = scan(db, query, &mut filters, meter, recorder)?;
    let joined = join(db, query, &inputs, &filters, recorder)?;
    let columns = projection(db, query, &joined)?;
    let mut rows: Vec<Tuple> = joined
        .rows()
        .map(|row| {
            columns
                .iter()
                .map(|&(s, c)| c.cell(row[s] as usize).to_value())
                .collect()
        })
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
    let mut rows: Vec<Tuple> = kept.into_iter().map(|(row, _)| row).collect();
    rows.sort();
    recorder.add("engine.personalized_rows_kept", rows.len() as u64);
    Ok(ExecOutput { rows })
}

/// The distinct projected rows of `pq`'s sub-queries that satisfy at least
/// `min_count` of them (`HAVING COUNT(*) >= min_count`), each with the
/// ascending indices of the sub-queries it satisfies, in no set order.
///
/// Every sub-query is scanned first, in order, so the I/O schedule does not
/// depend on the data. Sub-queries are then joined most selective first —
/// smallest filtered input, then fewest input rows — and their rows folded
/// into a running set keyed on projected cells: a row first seen at step
/// `s` enters only if the steps left could still bring it to `min_count`,
/// and after each step the rows that no longer can are dropped. For
/// `min_count = L` this is a running intersection, and once it is empty the
/// remaining sub-queries are not joined at all.
pub(crate) fn satisfying_rows(
    db: &Database,
    pq: &PersonalizedQuery,
    min_count: usize,
    meter: &IoMeter,
    recorder: &dyn Recorder,
) -> EngineResult<Vec<(Tuple, Vec<usize>)>> {
    let mut filters = Filters::default();
    let mut scanned = Vec::with_capacity(pq.subqueries.len());
    for sub in &pq.subqueries {
        let _sub_span = span_guard(recorder, "engine.subquery");
        let _span = span_guard(recorder, "engine.execute");
        scanned.push(scan(db, sub, &mut filters, meter, recorder)?);
        recorder.add("engine.subqueries", 1);
    }
    let mut order: Vec<usize> = (0..scanned.len()).collect();
    order.sort_by_key(|&i| {
        let sizes = scanned[i].iter().map(|&input| filters.rows(input).len());
        (sizes.clone().min(), sizes.sum::<usize>())
    });

    let steps = order.len();
    let mut kept: HashMap<Vec<Cell<'_>>, Vec<usize>> = HashMap::new();
    let mut key = Vec::new();
    for (step, i) in order.into_iter().enumerate() {
        let admits = step + min_count <= steps;
        if kept.is_empty() && !admits {
            break;
        }
        let sub = &pq.subqueries[i];
        let joined = join(db, sub, &scanned[i], &filters, recorder)?;
        let columns = projection(db, sub, &joined)?;
        recorder.add("engine.rows_emitted", joined.len() as u64);
        recorder.observe("engine.subquery_rows", joined.len() as u64);
        for row in joined.rows() {
            key.clear();
            key.extend(columns.iter().map(|&(s, c)| c.cell(row[s] as usize)));
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
    Ok(kept
        .into_iter()
        .map(|(row, mut subs)| {
            subs.sort_unstable();
            (row.into_iter().map(Cell::to_value).collect(), subs)
        })
        .collect())
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

    #[test]
    fn selections_on_all_null_columns_pass_nothing() {
        // Every cell is NULL, so the string dictionary is empty.
        let mut db = Database::with_block_capacity(2);
        db.create_relation(RelationSchema::new(
            "N",
            vec![("k", DataType::Int), ("v", DataType::Str)],
        ))
        .unwrap();
        for _ in 0..3 {
            db.insert_into("N", vec![Value::Null, Value::Null]).unwrap();
        }
        for (op, lit) in [(CmpOp::Eq, Value::str("a")), (CmpOp::Ne, Value::str("a"))] {
            let q = QueryBuilder::from(db.catalog(), "N")
                .unwrap()
                .select("N", "k")
                .unwrap()
                .filter("N", "v", op, lit.clone())
                .unwrap()
                .build();
            assert!(execute(&db, &q, &IoMeter::default()).unwrap().is_empty());
            let q = QueryBuilder::from(db.catalog(), "N")
                .unwrap()
                .select("N", "v")
                .unwrap()
                .filter("N", "k", op, Value::Int(1))
                .unwrap()
                .build();
            assert!(execute(&db, &q, &IoMeter::default()).unwrap().is_empty());
        }
        // NULL-only columns still project as NULL.
        let q = QueryBuilder::from(db.catalog(), "N")
            .unwrap()
            .select("N", "v")
            .unwrap()
            .build();
        let out = execute(&db, &q, &IoMeter::default()).unwrap();
        assert_eq!(out.rows, vec![vec![Value::Null]; 3]);
    }

    #[test]
    fn same_relation_equality_is_a_scan_condition() {
        let db = paper_db();
        let sql = "SELECT mid, did FROM MOVIE WHERE MOVIE.mid = MOVIE.did";
        let q = crate::parse::parse_query(sql, db.catalog()).unwrap();
        let meter = IoMeter::new(1.0);
        let out = execute(&db, &q, &meter).unwrap();
        assert_eq!(out.rows, vec![vec![Value::Int(1), Value::Int(1)]]);
        let stats = db.analyze();
        assert_eq!(
            meter.blocks_read(),
            crate::cost::CostModel::new(&stats).query_blocks(&q)
        );
        // EXPLAIN lists it in MOVIE's scan: 4 rows × 1/max(V(mid), V(did)).
        let plan = crate::explain::explain(db.catalog(), &stats, &q).unwrap();
        let scan = &plan.children[0];
        assert_eq!(scan.op, "SeqScan(MOVIE: MOVIE.mid = MOVIE.did)");
        assert!((scan.est_rows - 1.0).abs() < 1e-9, "{}", scan.est_rows);

        // Two VARCHAR columns with separate dictionaries: row 0 holds code 0
        // in both, yet "x" <> "y". NULL never equals NULL.
        let mut db = Database::with_block_capacity(2);
        db.create_relation(RelationSchema::new(
            "T",
            vec![("a", DataType::Str), ("b", DataType::Str)],
        ))
        .unwrap();
        for (a, b) in [
            (Value::str("x"), Value::str("y")),
            (Value::str("y"), Value::str("y")),
            (Value::str("y"), Value::str("x")),
            (Value::Null, Value::Null),
            (Value::str("z"), Value::str("z")),
        ] {
            db.insert_into("T", vec![a, b]).unwrap();
        }
        let q = crate::parse::parse_query("SELECT a FROM T WHERE T.a = T.b", db.catalog());
        let out = execute(&db, &q.unwrap(), &IoMeter::default()).unwrap();
        assert_eq!(out.rows, vec![vec![Value::str("y")], vec![Value::str("z")]]);
    }

    #[test]
    fn every_selection_kernel_agrees_with_eval() {
        let big = (1i64 << 53) + 1;
        let ints = [
            None,
            Some(i64::MIN),
            Some(i64::MAX),
            Some(big),
            Some(-big),
            Some(0),
            Some(-1),
            Some(7),
        ];
        let floats = [
            Some(0.0),
            None,
            Some(-0.0),
            Some(0.5),
            Some(big as f64),
            Some(-big as f64),
            Some(-1.0),
            Some(1e300),
        ];
        let strs = [
            Some("a"),
            Some(""),
            None,
            Some("b"),
            Some("a"),
            Some("ab"),
            None,
            Some("z"),
        ];
        let mut db = Database::with_block_capacity(3);
        db.create_relation(RelationSchema::new(
            "T",
            vec![
                ("id", DataType::Int),
                ("i", DataType::Int),
                ("f", DataType::Float),
                ("s", DataType::Str),
                ("n", DataType::Str),
            ],
        ))
        .unwrap();
        let mut rows = Vec::new();
        for (id, ((i, f), s)) in ints.iter().zip(floats).zip(strs).enumerate() {
            let row = vec![
                Value::Int(id as i64),
                i.map_or(Value::Null, Value::Int),
                f.map_or(Value::Null, Value::float),
                s.map_or(Value::Null, Value::str),
                Value::Null,
            ];
            db.insert_into("T", row.clone()).unwrap();
            rows.push(row);
        }
        let literals = [
            Value::Null,
            Value::Int(0),
            Value::Int(-1),
            Value::Int(big),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::float(0.0),
            Value::float(-0.0),
            Value::float(0.5),
            Value::float((1i64 << 53) as f64),
            Value::str("a"),
            Value::str("absent"),
            Value::str(""),
        ];
        let ops = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        let c = db.catalog();
        let id = c.resolve("T", "id").unwrap();
        let every_id = Predicate::Selection {
            attr: id,
            op: CmpOp::Ge,
            value: Value::Int(i64::MIN),
        };
        for (col, name) in ["i", "f", "s", "n"].into_iter().enumerate() {
            let attr = c.resolve("T", name).unwrap();
            for literal in &literals {
                for op in ops {
                    let want: Tuple = rows
                        .iter()
                        .filter(|row| op.eval(&row[col + 1], literal))
                        .map(|row| row[0].clone())
                        .collect();
                    let selection = Predicate::Selection {
                        attr,
                        op,
                        value: literal.clone(),
                    };
                    // Alone, the selection walks whole columns; after a
                    // selection every row passes, it narrows row ids.
                    for predicates in [vec![selection.clone()], vec![every_id.clone(), selection]] {
                        let q = ConjunctiveQuery {
                            projection: vec![id],
                            relations: vec![id.relation],
                            predicates,
                        };
                        let out = execute(&db, &q, &IoMeter::default()).unwrap();
                        let got: Tuple = out.rows.into_iter().flatten().collect();
                        assert_eq!(got, want, "T.{name} {} {literal}", op.sql());
                    }
                }
            }
        }
    }

    /// Joins `L` and `R` on `k` through the executor and by nested loop.
    fn assert_keyed_join(left: &[(Option<i64>, &str)], right: &[(Option<i64>, &str)]) {
        let db = keyed_db(left, right);
        let q = QueryBuilder::from(db.catalog(), "L")
            .unwrap()
            .join("L", "k", "R", "k")
            .unwrap()
            .select("L", "v")
            .unwrap()
            .select("R", "v")
            .unwrap()
            .build();
        let mut want: Vec<Tuple> = Vec::new();
        for (lk, lv) in left {
            for (rk, rv) in right {
                if lk.is_some() && lk == rk {
                    want.push(vec![Value::str(*lv), Value::str(*rv)]);
                }
            }
        }
        want.sort();
        let out = execute(&db, &q, &IoMeter::default()).unwrap();
        assert_eq!(out.rows, want);
    }

    #[test]
    fn int_join_bitmaps_skip_absent_keys_without_overflow() {
        let build = |keys: &[i64]| {
            Build::new(keys.iter().copied(), |k, key: &mut i64| {
                *key = k;
                true
            })
        };
        let hits = |b: &Build<i64>, k: i64| b.matches(&k).count();

        // Keys spanning i64::MIN..=i64::MAX: hashed, but no bitmap.
        let wide = [i64::MIN, i64::MAX, -5, 0, 3, 9, 11, 40, i64::MAX, -1 << 40];
        let b = build(&wide);
        assert!(matches!(b.heads, Heads::Hashed(_)) && b.present.is_none());
        for (k, n) in [
            (i64::MIN, 1),
            (i64::MAX, 2),
            (0, 1),
            (1, 0),
            (i64::MIN + 1, 0),
        ] {
            assert_eq!(hits(&b, k), n, "key {k}");
        }

        // Even keys 100..=120 take one word: probes below, in the gaps and
        // above it miss on the bitmap, the keys themselves hit.
        let dense: Vec<i64> = (100..=120).step_by(2).collect();
        let b = build(&dense);
        assert!(b.present.is_some());
        for k in dense {
            assert_eq!(hits(&b, k), 1, "key {k}");
        }
        for k in [i64::MIN, -1, 99, 101, 119, 121, 164, 1 << 40, i64::MAX] {
            assert_eq!(hits(&b, k), 0, "key {k}");
        }
        // Nine rows take at most nine words: keys 0..=575, not 0..=576.
        assert!(build(&[0, 1, 2, 3, 4, 5, 6, 7, 575]).present.is_some());
        assert!(build(&[0, 1, 2, 3, 4, 5, 6, 7, 576]).present.is_none());

        // The same through the executor, each side building in turn.
        let names = ["a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"];
        let extremes: Vec<(Option<i64>, &str)> = [
            Some(i64::MIN),
            Some(i64::MAX),
            None,
            Some(-5),
            Some(0),
            Some(3),
            Some(9),
            Some(11),
            Some(40),
            Some(i64::MAX),
            Some(-1 << 40),
        ]
        .into_iter()
        .zip(names)
        .collect();
        let dense: Vec<(Option<i64>, &str)> = (100..=122).step_by(2).map(Some).zip(names).collect();
        let probes: Vec<(Option<i64>, &str)> = [
            i64::MIN,
            -1,
            0,
            99,
            100,
            101,
            110,
            119,
            122,
            123,
            1 << 40,
            i64::MAX,
            9,
            -5,
        ]
        .into_iter()
        .map(Some)
        .chain([None])
        .zip(names.iter().cycle().copied())
        .collect();
        for build_side in [&extremes, &dense] {
            assert_keyed_join(build_side, &probes);
            assert_keyed_join(&probes, build_side);
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

    /// MOVIE(mid, title, year), CASTS(mid, aid), ACTOR(aid, name) and
    /// GENRE(mid, genre) at 2 tuples per block: 7, 7, 2 and 4 blocks.
    fn cast_db() -> Database {
        let mut db = Database::with_block_capacity(2);
        for (name, attrs) in [
            (
                "MOVIE",
                vec![
                    ("mid", DataType::Int),
                    ("title", DataType::Str),
                    ("year", DataType::Int),
                ],
            ),
            (
                "CASTS",
                vec![("mid", DataType::Int), ("aid", DataType::Int)],
            ),
            (
                "ACTOR",
                vec![("aid", DataType::Int), ("name", DataType::Str)],
            ),
            (
                "GENRE",
                vec![("mid", DataType::Int), ("genre", DataType::Str)],
            ),
        ] {
            db.create_relation(RelationSchema::new(name, attrs))
                .unwrap();
        }
        for mid in 0..13i64 {
            let movie = vec![
                Value::Int(mid),
                Value::str(format!("m{mid}")),
                Value::Int(1990 + mid),
            ];
            db.insert_into("MOVIE", movie).unwrap();
        }
        for (mid, aid) in [
            (0i64, 0i64),
            (1, 0),
            (1, 1),
            (2, 1),
            (3, 2),
            (4, 0),
            (5, 1),
            (6, 2),
            (7, 0),
            (8, 1),
            (9, 2),
            (12, 0),
            (8, 0),
            (12, 1),
        ] {
            db.insert_into("CASTS", vec![Value::Int(mid), Value::Int(aid)])
                .unwrap();
        }
        for (aid, name) in [(0i64, "A"), (1, "B"), (2, "C")] {
            db.insert_into("ACTOR", vec![Value::Int(aid), Value::str(name)])
                .unwrap();
        }
        for (mid, genre) in [
            (1i64, "comedy"),
            (4, "comedy"),
            (7, "drama"),
            (8, "comedy"),
            (12, "comedy"),
            (3, "drama"),
            (2, "drama"),
        ] {
            db.insert_into("GENRE", vec![Value::Int(mid), Value::str(genre)])
                .unwrap();
        }
        db
    }

    #[test]
    fn every_read_of_shared_scans_is_charged_on_schedule() {
        // Movies since 1994 with actor A, with actor B, and comedies: the
        // first two sub-queries scan MOVIE and CASTS under the same
        // selections, so both are filtered once and charged three and
        // two times.
        let db = cast_db();
        let c = db.catalog();
        let base = QueryBuilder::from(c, "MOVIE")
            .unwrap()
            .select("MOVIE", "title")
            .unwrap()
            .filter("MOVIE", "year", CmpOp::Ge, 1994i64)
            .unwrap()
            .build();
        let attr = |r, a| c.resolve(r, a).unwrap();
        let actor = |name: &str| {
            vec![
                Predicate::join(attr("MOVIE", "mid"), attr("CASTS", "mid")),
                Predicate::join(attr("CASTS", "aid"), attr("ACTOR", "aid")),
                Predicate::eq(attr("ACTOR", "name"), name),
            ]
        };
        let comedy = vec![
            Predicate::join(attr("MOVIE", "mid"), attr("GENRE", "mid")),
            Predicate::eq(attr("GENRE", "genre"), "comedy"),
        ];
        let pq = PersonalizedQuery::compose(base, vec![actor("A"), actor("B"), comedy]);
        let want = execute_personalized(&db, &pq, &IoMeter::default()).unwrap();
        assert_eq!(
            want.rows,
            vec![vec![Value::str("m12")], vec![Value::str("m8")]]
        );

        // The read schedule, scan by scan: (sub-queries done, blocks).
        let blocks = |r: &str| db.table(c.relation_id(r).unwrap()).unwrap().num_blocks();
        let schedule = [
            (0, blocks("MOVIE")),
            (0, blocks("CASTS")),
            (0, blocks("ACTOR")),
            (1, blocks("MOVIE")),
            (1, blocks("CASTS")),
            (1, blocks("ACTOR")),
            (2, blocks("MOVIE")),
            (2, blocks("GENRE")),
        ];
        let total: u64 = schedule.iter().map(|&(_, b)| b).sum();
        let stats = db.analyze();
        assert_eq!(
            total,
            crate::cost::CostModel::new(&stats).personalized_blocks(&pq)
        );
        for n in 1..=total + 1 {
            let plan = std::sync::Arc::new(cqp_storage::FaultPlan::new(
                1,
                cqp_storage::FaultMode::EveryNth { n },
            ));
            let meter = IoMeter::new(1.0).with_fault_plan(plan.clone());
            let obs = cqp_obs::Obs::new();
            let got = execute_personalized_recorded(&db, &pq, &meter, &obs);
            let reg = obs.registry();
            if n == total + 1 {
                assert_eq!(got.unwrap(), want);
                assert_eq!(meter.blocks_read(), total);
                assert_eq!(reg.counter("engine.scans"), schedule.len() as u64);
                continue;
            }
            assert_eq!(
                got.unwrap_err(),
                EngineError::Storage(cqp_storage::StorageError::InjectedIo { read_index: n - 1 }),
                "n = {n}"
            );
            assert_eq!(meter.blocks_read(), n - 1, "n = {n}");
            assert_eq!(plan.reads_seen(), n, "n = {n}");
            // The scans that finished before read n, and their sub-queries.
            let mut read = 0;
            let done = schedule.iter().take_while(|&&(_, b)| {
                read += b;
                read < n
            });
            let (scans, blocks_done) =
                done.fold((0, 0), |(s, b), &(_, blocks)| (s + 1, b + blocks));
            assert_eq!(reg.counter("engine.scans"), scans, "n = {n}");
            assert_eq!(reg.counter("engine.blocks_scanned"), blocks_done, "n = {n}");
            let subqueries = schedule[scans as usize].0;
            assert_eq!(reg.counter("engine.subqueries"), subqueries, "n = {n}");
        }
    }
}
