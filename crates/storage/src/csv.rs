//! CSV bulk load and dump.
//!
//! Lets users bring their own data into the engine (and examine generated
//! data outside it) without any external dependency. The dialect is
//! deliberately simple: comma-separated, `"`-quoted fields with `""`
//! escapes, a mandatory header naming the attributes, and the literal
//! `NULL` (unquoted) for SQL NULL. Values are parsed according to the
//! relation schema's declared types.

use crate::database::Database;
use crate::error::{StorageError, StorageResult};
use crate::schema::RelationId;
use crate::value::{DataType, Value};
use cqp_obs::Recorder;
use std::fmt;
use std::path::Path;

/// Errors from CSV parsing (wrapped around storage errors on insert).
#[derive(Debug)]
pub enum CsvError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural or type failure at a given 1-based line.
    Parse {
        /// Line number.
        line: usize,
        /// Explanation.
        reason: String,
    },
    /// The header did not match the relation schema.
    HeaderMismatch {
        /// What the schema wants.
        expected: String,
        /// What the file had.
        got: String,
    },
    /// Insertion failed (arity/type checks).
    Storage(StorageError),
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "io error: {e}"),
            CsvError::Parse { line, reason } => write!(f, "line {line}: {reason}"),
            CsvError::HeaderMismatch { expected, got } => {
                write!(f, "header mismatch: expected `{expected}`, got `{got}`")
            }
            CsvError::Storage(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl std::error::Error for CsvError {}

impl From<std::io::Error> for CsvError {
    fn from(e: std::io::Error) -> Self {
        CsvError::Io(e)
    }
}

impl From<StorageError> for CsvError {
    fn from(e: StorageError) -> Self {
        CsvError::Storage(e)
    }
}

/// One CSV record: the 1-based line it starts on, and its
/// `(field, was_quoted)` pairs.
type Record = (usize, Vec<(String, bool)>);

/// Splits CSV text into records, honouring quotes: a quoted field may hold
/// commas, quotes (as `""`) and line breaks, and a record ends at a `\n`
/// or `\r\n` outside quotes. Quoting matters downstream: only an
/// *unquoted* `NULL` is SQL NULL.
struct Records<'t> {
    chars: std::iter::Peekable<std::str::Chars<'t>>,
    line: usize,
}

impl<'t> Records<'t> {
    fn new(text: &'t str) -> Self {
        Records {
            chars: text.chars().peekable(),
            line: 1,
        }
    }
}

impl Iterator for Records<'_> {
    type Item = Result<Record, CsvError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.chars.peek()?;
        let start = self.line;
        let mut fields = Vec::new();
        let mut cur = String::new();
        let mut in_quotes = false;
        let mut was_quoted = false;
        while let Some(c) = self.chars.next() {
            if c == '\n' {
                self.line += 1;
            }
            if in_quotes {
                match c {
                    '"' if self.chars.peek() == Some(&'"') => {
                        self.chars.next();
                        cur.push('"');
                    }
                    '"' => in_quotes = false,
                    other => cur.push(other),
                }
                continue;
            }
            match c {
                '\n' => {
                    fields.push(finish_field(cur, was_quoted));
                    return Some(Ok((start, fields)));
                }
                '\r' if self.chars.peek() == Some(&'\n') => {}
                ',' => {
                    fields.push(finish_field(std::mem::take(&mut cur), was_quoted));
                    was_quoted = false;
                }
                '"' if cur.is_empty() => {
                    in_quotes = true;
                    was_quoted = true;
                }
                other => cur.push(other),
            }
        }
        if in_quotes {
            return Some(Err(CsvError::Parse {
                line: start,
                reason: "unterminated quoted field".into(),
            }));
        }
        fields.push(finish_field(cur, was_quoted));
        Some(Ok((start, fields)))
    }
}

/// Quoted fields keep their content verbatim; unquoted fields are trimmed.
fn finish_field(raw: String, was_quoted: bool) -> (String, bool) {
    if was_quoted {
        (raw, true)
    } else {
        (raw.trim().to_owned(), false)
    }
}

/// Quotes a string whenever loading it unquoted would not give it back:
/// it is empty, has leading or trailing whitespace (unquoted fields are
/// trimmed), holds a separator, quote or line break, or reads `NULL`.
fn quote_field(s: &str) -> String {
    let bare = !s.is_empty() && s.trim() == s && !s.contains([',', '"', '\n', '\r']) && s != "NULL";
    if !bare {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_owned()
    }
}

/// Serializes a table to CSV text (header + one record per tuple).
pub fn dump_table(db: &Database, relation: RelationId) -> StorageResult<String> {
    let table = db.table(relation)?;
    let schema = table.schema();
    let mut out = String::new();
    let header: Vec<&str> = schema.attributes.iter().map(|a| a.name.as_str()).collect();
    out.push_str(&header.join(","));
    out.push('\n');
    for row in table.rows() {
        let fields: Vec<String> = row
            .iter()
            .map(|v| match v {
                Value::Null => "NULL".to_owned(),
                Value::Str(s) => quote_field(s),
                other => other.to_string(),
            })
            .collect();
        out.push_str(&fields.join(","));
        out.push('\n');
    }
    Ok(out)
}

/// Writes a table to a CSV file.
pub fn dump_table_to(db: &Database, relation: RelationId, path: &Path) -> Result<(), CsvError> {
    let text = dump_table(db, relation)?;
    std::fs::write(path, text)?;
    Ok(())
}

/// Loads CSV text into a relation, validating the header against the
/// schema and parsing each field by its declared type. Returns the number
/// of rows inserted.
pub fn load_table(db: &mut Database, relation: RelationId, text: &str) -> Result<usize, CsvError> {
    load_table_recorded(db, relation, text, &cqp_obs::NoopRecorder)
}

/// [`load_table`], reporting progress to `recorder`: a `storage.csv_load`
/// span wrapping the parse, plus `storage.csv_rows_loaded` /
/// `storage.csv_bytes_parsed` counters.
pub fn load_table_recorded(
    db: &mut Database,
    relation: RelationId,
    text: &str,
    recorder: &dyn Recorder,
) -> Result<usize, CsvError> {
    let _span = cqp_obs::record::span_guard(recorder, "storage.csv_load");
    let inserted = load_table_inner(db, relation, text)?;
    recorder.add("storage.csv_rows_loaded", inserted as u64);
    recorder.add("storage.csv_bytes_parsed", text.len() as u64);
    Ok(inserted)
}

fn load_table_inner(
    db: &mut Database,
    relation: RelationId,
    text: &str,
) -> Result<usize, CsvError> {
    let schema = db.table(relation)?.schema().clone();
    let mut records = Records::new(text);
    let (_, header) = records.next().ok_or(CsvError::Parse {
        line: 1,
        reason: "empty input (missing header)".into(),
    })??;
    let expected: Vec<&str> = schema.attributes.iter().map(|a| a.name.as_str()).collect();
    let got: Vec<String> = header.into_iter().map(|(f, _)| f).collect();
    if got != expected {
        return Err(CsvError::HeaderMismatch {
            expected: expected.join(","),
            got: got.join(","),
        });
    }

    let mut inserted = 0usize;
    for record in records {
        let (line_no, fields) = record?;
        if matches!(fields.as_slice(), [(field, false)] if field.is_empty()) {
            // A blank line.
            continue;
        }
        if fields.len() != schema.arity() {
            return Err(CsvError::Parse {
                line: line_no,
                reason: format!("expected {} fields, got {}", schema.arity(), fields.len()),
            });
        }
        let mut row = Vec::with_capacity(fields.len());
        for ((field, quoted), attr) in fields.iter().zip(&schema.attributes) {
            let value = if field == "NULL" && !quoted {
                Value::Null
            } else {
                match attr.ty {
                    DataType::Int => {
                        Value::Int(field.parse::<i64>().map_err(|_| CsvError::Parse {
                            line: line_no,
                            reason: format!("`{field}` is not an integer ({})", attr.name),
                        })?)
                    }
                    DataType::Float => {
                        let v = field.parse::<f64>().map_err(|_| CsvError::Parse {
                            line: line_no,
                            reason: format!("`{field}` is not a float ({})", attr.name),
                        })?;
                        if !v.is_finite() {
                            return Err(CsvError::Parse {
                                line: line_no,
                                reason: format!("non-finite float in {}", attr.name),
                            });
                        }
                        Value::Float(v)
                    }
                    DataType::Str => Value::Str(field.clone()),
                }
            };
            row.push(value);
        }
        db.insert(relation, row)?;
        inserted += 1;
    }
    Ok(inserted)
}

/// Reads a CSV file into a relation.
pub fn load_table_from(
    db: &mut Database,
    relation: RelationId,
    path: &Path,
) -> Result<usize, CsvError> {
    load_table_from_recorded(db, relation, path, &cqp_obs::NoopRecorder)
}

/// [`load_table_from`] with observability, as in [`load_table_recorded`].
pub fn load_table_from_recorded(
    db: &mut Database,
    relation: RelationId,
    path: &Path,
    recorder: &dyn Recorder,
) -> Result<usize, CsvError> {
    let text = std::fs::read_to_string(path)?;
    load_table_recorded(db, relation, &text, recorder)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::RelationSchema;
    use crate::value::Tuple;
    use proptest::prelude::*;

    fn movie_db() -> (Database, RelationId) {
        let mut db = Database::with_block_capacity(4);
        let rid = db
            .create_relation(RelationSchema::new(
                "MOVIE",
                vec![
                    ("mid", DataType::Int),
                    ("title", DataType::Str),
                    ("rating", DataType::Float),
                ],
            ))
            .unwrap();
        (db, rid)
    }

    #[test]
    fn roundtrip_with_quotes_and_nulls() {
        let (mut db, rid) = movie_db();
        db.insert(
            rid,
            vec![Value::Int(1), Value::str("Plain"), Value::float(7.5)],
        )
        .unwrap();
        db.insert(
            rid,
            vec![
                Value::Int(2),
                Value::str("Comma, The \"Movie\""),
                Value::Null,
            ],
        )
        .unwrap();
        db.insert(
            rid,
            vec![Value::Int(3), Value::str("NULL"), Value::float(1.0)],
        )
        .unwrap();

        let text = dump_table(&db, rid).unwrap();
        assert!(text.starts_with("mid,title,rating\n"));
        assert!(text.contains("\"Comma, The \"\"Movie\"\"\""));
        // The *string* "NULL" is quoted to distinguish it from SQL NULL.
        assert!(text.contains("3,\"NULL\",1"));

        let (mut db2, rid2) = movie_db();
        let n = load_table(&mut db2, rid2, &text).unwrap();
        assert_eq!(n, 3);
        let a: Vec<_> = db.table(rid).unwrap().rows().collect();
        let b: Vec<_> = db2.table(rid2).unwrap().rows().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn header_is_validated() {
        let (mut db, rid) = movie_db();
        let err = load_table(&mut db, rid, "mid,nope,rating\n1,x,2.0\n").unwrap_err();
        assert!(matches!(err, CsvError::HeaderMismatch { .. }));
    }

    #[test]
    fn type_errors_carry_line_numbers() {
        let (mut db, rid) = movie_db();
        let err = load_table(&mut db, rid, "mid,title,rating\n1,x,2.0\nnope,y,3.0\n").unwrap_err();
        match err {
            CsvError::Parse { line, reason } => {
                assert_eq!(line, 3);
                assert!(reason.contains("not an integer"));
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn arity_and_quoting_errors() {
        let (mut db, rid) = movie_db();
        let err = load_table(&mut db, rid, "mid,title,rating\n1,x\n").unwrap_err();
        assert!(matches!(err, CsvError::Parse { line: 2, .. }));
        let err = load_table(&mut db, rid, "mid,title,rating\n1,\"open,2.0\n").unwrap_err();
        assert!(err.to_string().contains("unterminated"));
    }

    #[test]
    fn file_roundtrip() {
        let (mut db, rid) = movie_db();
        db.insert(rid, vec![Value::Int(1), Value::str("A"), Value::float(5.0)])
            .unwrap();
        let path = std::env::temp_dir().join("cqp_csv_roundtrip.csv");
        dump_table_to(&db, rid, &path).unwrap();
        let (mut db2, rid2) = movie_db();
        assert_eq!(load_table_from(&mut db2, rid2, &path).unwrap(), 1);
        std::fs::remove_file(&path).ok();
    }

    /// Dumps `rows` from a fresh MOVIE table and loads them into another.
    fn round_trip(rows: &[Tuple]) -> Vec<Tuple> {
        let (mut db, rid) = movie_db();
        for row in rows {
            db.insert(rid, row.clone()).unwrap();
        }
        let text = dump_table(&db, rid).unwrap();
        let (mut db2, rid2) = movie_db();
        let n = load_table(&mut db2, rid2, &text).unwrap_or_else(|e| panic!("{e}: {text:?}"));
        assert_eq!(n, rows.len(), "{text:?}");
        db2.table(rid2).unwrap().rows().collect()
    }

    #[test]
    fn whitespace_line_breaks_and_empty_strings_round_trip() {
        let rows: Vec<Tuple> = [" padded ", "two\nlines", "", "cr\r", "crlf\r\n", "\t"]
            .iter()
            .enumerate()
            .map(|(i, s)| vec![Value::Int(i as i64), Value::str(*s), Value::Null])
            .collect();
        assert_eq!(round_trip(&rows), rows);

        // An empty string in a one-column table is a record, not a blank line.
        let mut db = Database::new();
        let rid = db
            .create_relation(RelationSchema::new("T", vec![("s", DataType::Str)]))
            .unwrap();
        db.insert(rid, vec![Value::str("")]).unwrap();
        db.insert(rid, vec![Value::Null]).unwrap();
        let text = dump_table(&db, rid).unwrap();
        assert_eq!(text, "s\n\"\"\nNULL\n");
        let mut db2 = Database::new();
        let rid2 = db2
            .create_relation(RelationSchema::new("T", vec![("s", DataType::Str)]))
            .unwrap();
        assert_eq!(load_table(&mut db2, rid2, &text).unwrap(), 2);
        let got: Vec<Tuple> = db2.table(rid2).unwrap().rows().collect();
        assert_eq!(got, vec![vec![Value::str("")], vec![Value::Null]]);
    }

    #[test]
    fn records_span_lines_and_errors_name_their_first_line() {
        let (mut db, rid) = movie_db();
        let text = "mid,title,rating\r\n1,\"a\nb\",2.0\r\n2,\"c\",3.0\r\nnope,\"d\ne\",1\n";
        let err = load_table(&mut db, rid, text).unwrap_err();
        match err {
            CsvError::Parse { line, reason } => {
                // Records start on lines 2, 4 and 5: the first spans two.
                assert_eq!(line, 5);
                assert!(reason.contains("not an integer"));
            }
            other => panic!("unexpected error: {other}"),
        }
        let got: Vec<Tuple> = db.table(rid).unwrap().rows().collect();
        assert_eq!(got[0][1], Value::str("a\nb"));
        // CRLF ends a record; it is not part of the last field.
        assert_eq!(got[1][1], Value::str("c"));
        let err = load_table(
            &mut db,
            rid,
            "mid,title,rating\n1,x,2.0\n2,\"open\n3,y,1.0\n",
        )
        .unwrap_err();
        assert!(matches!(err, CsvError::Parse { line: 3, .. }), "{err}");
    }

    /// A string drawn from the characters and words CSV treats specially.
    fn tricky_string() -> impl Strategy<Value = String> {
        let tokens = [",", "\"", " ", "\t", "\r", "\n", "NULL", "\"\"", "x"];
        prop::collection::vec(0usize..tokens.len(), 0..6)
            .prop_map(move |picks| picks.into_iter().map(|i| tokens[i]).collect())
    }

    /// A MOVIE tuple with each cell NULL one time in four.
    fn tricky_row() -> impl Strategy<Value = Tuple> {
        (0i64..8, -4i32..4, 0usize..4, tricky_string()).prop_map(|(mid, rating, null, title)| {
            vec![
                if mid % 4 == 0 {
                    Value::Null
                } else {
                    Value::Int(mid - 4)
                },
                if null == 0 {
                    Value::Null
                } else {
                    Value::str(title)
                },
                if rating == 0 {
                    Value::Null
                } else {
                    Value::float(f64::from(rating) / 4.0)
                },
            ]
        })
    }

    proptest! {
        /// dump → load returns the same rows for any strings over the
        /// special characters, with NULLs in every column type.
        #[test]
        fn dump_load_round_trips(rows in prop::collection::vec(tricky_row(), 0..8)) {
            prop_assert_eq!(round_trip(&rows), rows);
        }
    }

    #[test]
    fn empty_lines_skipped_and_empty_input_rejected() {
        let (mut db, rid) = movie_db();
        let n = load_table(&mut db, rid, "mid,title,rating\n\n1,x,2.0\n\n").unwrap();
        assert_eq!(n, 1);
        let err = load_table(&mut db, rid, "").unwrap_err();
        assert!(matches!(err, CsvError::Parse { line: 1, .. }));
    }
}
