//! The one CSV writer for experiment tables: a header, then one line per
//! row, each rendered through [`CsvRow`].
//!
//! No external dependency: the rows are flat numeric records, so hand
//! rolling the writer keeps the workspace inside the approved crate set.

use crate::experiments::CsvRow;
use std::path::Path;

/// `rows` as CSV text: `R::HEADER`, then one line per row.
pub fn render<R: CsvRow>(rows: &[R]) -> String {
    std::iter::once(R::HEADER.to_string())
        .chain(rows.iter().map(R::csv))
        .map(|line| line + "\n")
        .collect()
}

/// Writes `csv` to `dir/name.csv`, creating the directory as needed.
pub fn write(dir: &Path, name: &str, csv: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join(format!("{name}.csv")), csv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::AlgoTimeRow;

    #[test]
    fn writes_csv_files() {
        let dir = std::env::temp_dir().join(format!("cqp_csv_test_{}", std::process::id()));
        let rows = vec![AlgoTimeRow {
            x: 10.0,
            algorithm: "C_MaxBounds",
            seconds: 0.001,
            states: 42.0,
        }];
        write(&dir, "t", &render(&rows)).unwrap();
        let content = std::fs::read_to_string(dir.join("t.csv")).unwrap();
        assert!(content.starts_with("x,algorithm,seconds,states"));
        assert!(content.contains("C_MaxBounds"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
