//! Table and column statistics for cardinality estimation.
//!
//! The CQP "Parameter Estimation" module (paper Section 4.3) needs sizes of
//! personalized queries without executing them. We keep the classic set of
//! per-column statistics — row/null/distinct counts, min/max, most common
//! values, and an equi-depth histogram — and derive selectivities from them
//! under the usual uniformity and independence assumptions. The paper itself
//! notes that "one can afford to use a much less detailed cost model in CQP
//! than the one found in a typical query optimizer" (Section 2).

use crate::column::ColumnData;
use crate::table::Table;
use crate::value::Value;
use std::collections::HashMap;
use std::hash::Hash;

/// Number of most-common values tracked per column.
pub const MCV_TARGET: usize = 8;

/// Number of equi-depth histogram buckets per column.
pub const HISTOGRAM_BUCKETS: usize = 16;

/// Statistics for a single column.
#[derive(Debug, Clone)]
pub struct ColumnStats {
    /// Rows in the table (including NULLs in this column).
    pub n_rows: usize,
    /// NULL values in this column.
    pub n_nulls: usize,
    /// Distinct non-NULL values.
    pub n_distinct: usize,
    /// Minimum non-NULL value, if any row exists.
    pub min: Option<Value>,
    /// Maximum non-NULL value, if any row exists.
    pub max: Option<Value>,
    /// Most common values with their frequencies, descending by frequency.
    pub mcv: Vec<(Value, usize)>,
    /// Equi-depth bucket upper bounds over [`Value::numeric_key`].
    pub histogram: Vec<f64>,
}

impl ColumnStats {
    /// Computes statistics for one column of a table.
    pub fn compute(table: &Table, attr: usize) -> Self {
        let n_rows = table.num_rows();
        let column = table.column(attr);
        let nulls = column.nulls();
        let n_nulls = nulls.iter().filter(|&&null| null).count();
        let present = |r: &usize| !nulls[*r];
        // (value, count) for each distinct non-NULL value; strings count
        // by dictionary code.
        let counts: Vec<(Value, usize)> = match column.data() {
            ColumnData::Int(v) => tally((0..n_rows).filter(present).map(|r| v[r]))
                .map(|(x, c)| (Value::Int(x), c))
                .collect(),
            ColumnData::Float(v) => tally((0..n_rows).filter(present).map(|r| v[r].to_bits()))
                .map(|(bits, c)| (Value::Float(f64::from_bits(bits)), c))
                .collect(),
            ColumnData::Str { codes, dict } => {
                let mut per_code = vec![0usize; dict.values().len()];
                for r in (0..n_rows).filter(present) {
                    per_code[codes[r] as usize] += 1;
                }
                dict.values()
                    .iter()
                    .zip(per_code)
                    .filter(|&(_, c)| c > 0)
                    .map(|(v, c)| (v.clone(), c))
                    .collect()
            }
        };
        let n_distinct = counts.len();

        let mut freq: Vec<&(Value, usize)> = counts.iter().collect();
        // Sort by frequency descending, then by value for determinism.
        freq.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let mcv: Vec<(Value, usize)> = freq.iter().take(MCV_TARGET).map(|&vc| vc.clone()).collect();

        let min = counts.iter().map(|(v, _)| v).min().cloned();
        let max = counts.iter().map(|(v, _)| v).max().cloned();

        // Equi-depth histogram over the numeric key of every non-NULL row.
        let mut keys: Vec<f64> = Vec::with_capacity(n_rows - n_nulls);
        for (v, c) in &counts {
            keys.extend(std::iter::repeat_n(v.numeric_key(), *c));
        }
        keys.sort_by(|a, b| a.partial_cmp(b).expect("numeric keys are not NaN"));
        let histogram = if keys.is_empty() {
            Vec::new()
        } else {
            let mut bounds = Vec::with_capacity(HISTOGRAM_BUCKETS);
            for b in 1..=HISTOGRAM_BUCKETS {
                let idx = (b * keys.len()) / HISTOGRAM_BUCKETS;
                let idx = idx.saturating_sub(1).min(keys.len() - 1);
                bounds.push(keys[idx]);
            }
            bounds
        };

        ColumnStats {
            n_rows,
            n_nulls,
            n_distinct,
            min,
            max,
            mcv,
            histogram,
        }
    }

    /// Fraction of rows with a non-NULL value in this column.
    pub fn non_null_frac(&self) -> f64 {
        if self.n_rows == 0 {
            0.0
        } else {
            (self.n_rows - self.n_nulls) as f64 / self.n_rows as f64
        }
    }

    /// Estimated selectivity of `column = value`.
    ///
    /// Uses exact MCV frequencies where available, and uniformity over the
    /// remaining distinct values otherwise.
    pub fn selectivity_eq(&self, value: &Value) -> f64 {
        if self.n_rows == 0 || value.is_null() {
            return 0.0;
        }
        if let Some((_, c)) = self.mcv.iter().find(|(v, _)| v == value) {
            return *c as f64 / self.n_rows as f64;
        }
        let mcv_rows: usize = self.mcv.iter().map(|(_, c)| *c).sum();
        let rest_rows = (self.n_rows - self.n_nulls).saturating_sub(mcv_rows);
        let rest_distinct = self.n_distinct.saturating_sub(self.mcv.len());
        if rest_distinct == 0 {
            // Value not present at all (every distinct value is an MCV).
            return 0.0;
        }
        (rest_rows as f64 / rest_distinct as f64) / self.n_rows as f64
    }

    /// Estimated selectivity of `column <= value` using the histogram.
    pub fn selectivity_le(&self, value: &Value) -> f64 {
        if self.n_rows == 0 || value.is_null() || self.histogram.is_empty() {
            return 0.0;
        }
        let key = value.numeric_key();
        let below = self.histogram.iter().filter(|&&b| b <= key).count();
        let frac = below as f64 / self.histogram.len() as f64;
        frac.clamp(0.0, 1.0) * self.non_null_frac()
    }

    /// Estimated selectivity of `column >= value` using the histogram.
    pub fn selectivity_ge(&self, value: &Value) -> f64 {
        if self.n_rows == 0 || value.is_null() || self.histogram.is_empty() {
            return 0.0;
        }
        (self.non_null_frac() - self.selectivity_le(value))
            .max(1.0 / self.n_rows as f64)
            .min(1.0)
    }
}

/// The distinct keys with their counts, in no set order.
fn tally<K: Hash + Eq>(keys: impl Iterator<Item = K>) -> impl Iterator<Item = (K, usize)> {
    let mut counts: HashMap<K, usize> = HashMap::new();
    for k in keys {
        *counts.entry(k).or_insert(0) += 1;
    }
    counts.into_iter()
}

/// Statistics for one table.
#[derive(Debug, Clone)]
pub struct TableStats {
    /// Row count.
    pub rows: usize,
    /// Block count — `blocks(R)` of the cost model.
    pub blocks: u64,
    /// Per-column statistics, in attribute order.
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    /// Computes statistics for all columns of a table.
    pub fn compute(table: &Table) -> Self {
        let columns = (0..table.schema().arity())
            .map(|i| ColumnStats::compute(table, i))
            .collect();
        TableStats {
            rows: table.num_rows(),
            blocks: table.num_blocks(),
            columns,
        }
    }
}

/// Statistics for every table of a database, indexed by relation id.
#[derive(Debug, Clone, Default)]
pub struct DbStats {
    /// Per-table statistics in relation-id order.
    pub tables: Vec<TableStats>,
}

impl DbStats {
    /// Statistics for a relation by id index.
    pub fn table(&self, relation: usize) -> Option<&TableStats> {
        self.tables.get(relation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::RelationSchema;
    use crate::value::DataType;

    fn table_with_genres(rows: &[(i64, &str)]) -> Table {
        let schema = RelationSchema::new(
            "GENRE",
            vec![("mid", DataType::Int), ("genre", DataType::Str)],
        );
        let mut t = Table::with_block_capacity(schema, 4);
        for (mid, g) in rows {
            t.insert(vec![Value::Int(*mid), Value::str(*g)]).unwrap();
        }
        t
    }

    #[test]
    fn distinct_and_mcv_counts() {
        let rows: Vec<(i64, &str)> = (0..10)
            .map(|i| (i, if i < 6 { "drama" } else { "musical" }))
            .collect();
        let t = table_with_genres(&rows);
        let s = ColumnStats::compute(&t, 1);
        assert_eq!(s.n_rows, 10);
        assert_eq!(s.n_distinct, 2);
        assert_eq!(s.mcv[0], (Value::str("drama"), 6));
        assert!((s.selectivity_eq(&Value::str("drama")) - 0.6).abs() < 1e-12);
        assert!((s.selectivity_eq(&Value::str("musical")) - 0.4).abs() < 1e-12);
        assert_eq!(s.selectivity_eq(&Value::str("horror")), 0.0);
    }

    #[test]
    fn uniform_fallback_beyond_mcv() {
        // 20 distinct genres, one row each: MCV holds 8 of them, the rest get
        // the uniform estimate (12 rows over 12 distinct) / 20.
        let names: Vec<String> = (0..20).map(|i| format!("g{i:02}")).collect();
        let rows: Vec<(i64, &str)> = names
            .iter()
            .enumerate()
            .map(|(i, n)| (i as i64, n.as_str()))
            .collect();
        let t = table_with_genres(&rows);
        let s = ColumnStats::compute(&t, 1);
        assert_eq!(s.n_distinct, 20);
        assert_eq!(s.mcv.len(), MCV_TARGET);
        let non_mcv = names
            .iter()
            .find(|n| !s.mcv.iter().any(|(v, _)| v == &Value::str(n.as_str())))
            .unwrap();
        let sel = s.selectivity_eq(&Value::str(non_mcv.as_str()));
        assert!((sel - 1.0 / 20.0).abs() < 1e-12, "sel = {sel}");
    }

    #[test]
    fn nulls_are_excluded() {
        let schema = RelationSchema::new("T", vec![("x", DataType::Int)]);
        let mut t = Table::new(schema);
        t.insert(vec![Value::Int(1)]).unwrap();
        t.insert(vec![Value::Null]).unwrap();
        t.insert(vec![Value::Int(1)]).unwrap();
        let s = ColumnStats::compute(&t, 0);
        assert_eq!(s.n_nulls, 1);
        assert_eq!(s.n_distinct, 1);
        assert!((s.non_null_frac() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.selectivity_eq(&Value::Null), 0.0);
    }

    #[test]
    fn min_max_and_histogram() {
        let schema = RelationSchema::new("T", vec![("x", DataType::Int)]);
        let mut t = Table::new(schema);
        for i in 1..=100 {
            t.insert(vec![Value::Int(i)]).unwrap();
        }
        let s = ColumnStats::compute(&t, 0);
        assert_eq!(s.min, Some(Value::Int(1)));
        assert_eq!(s.max, Some(Value::Int(100)));
        assert_eq!(s.histogram.len(), HISTOGRAM_BUCKETS);
        // About half the rows are <= 50.
        let sel = s.selectivity_le(&Value::Int(50));
        assert!((sel - 0.5).abs() < 0.1, "sel = {sel}");
        let ge = s.selectivity_ge(&Value::Int(50));
        assert!((ge - 0.5).abs() < 0.1, "ge = {ge}");
    }

    #[test]
    fn empty_table_stats() {
        let schema = RelationSchema::new("T", vec![("x", DataType::Int)]);
        let t = Table::new(schema);
        let s = ColumnStats::compute(&t, 0);
        assert_eq!(s.n_rows, 0);
        assert_eq!(s.n_distinct, 0);
        assert!(s.histogram.is_empty());
        assert_eq!(s.selectivity_eq(&Value::Int(1)), 0.0);
        assert_eq!(s.selectivity_le(&Value::Int(1)), 0.0);
    }

    #[test]
    fn table_stats_cover_all_columns() {
        let t = table_with_genres(&[(1, "a"), (2, "b")]);
        let ts = TableStats::compute(&t);
        assert_eq!(ts.rows, 2);
        assert_eq!(ts.columns.len(), 2);
        assert_eq!(ts.blocks, 1);
    }
}
