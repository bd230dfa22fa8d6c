//! Minimal fixed-width table rendering for the repro binaries, mirroring the
//! rows/columns of the paper's tables so outputs can be compared side by
//! side, plus the CSV form that `experiments::save_result` writes under
//! `results/`.

use std::fmt::Write as _;

/// Accumulates rows and renders both an aligned text table and CSV.
#[derive(Debug, Clone)]
pub struct TableWriter {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TableWriter {
    /// Start a table with a title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Self {
        TableWriter {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row; cells are taken as already-formatted strings.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width must match header width"
        );
        self.rows.push(cells.to_vec());
    }

    /// Render the aligned text table.
    pub fn render(&self) -> String {
        let ncol = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "=== {} ===", self.title);
        let mut line = String::new();
        for (head, w) in self.header.iter().zip(widths.iter().copied()) {
            let _ = write!(line, "{head:<w$}  ");
        }
        let _ = writeln!(out, "{}", line.trim_end());
        let _ = writeln!(out, "{}", "-".repeat(line.trim_end().len()));
        for row in &self.rows {
            let mut line = String::new();
            for i in 0..ncol {
                let _ = write!(line, "{:<w$}  ", row[i], w = widths[i]);
            }
            let _ = writeln!(out, "{}", line.trim_end());
        }
        out
    }

    /// Print the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// The table as CSV: the header line, then one line per row.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.header.join(","));
        for row in &self.rows {
            let escaped: Vec<String> = row
                .iter()
                .map(|c| {
                    if c.contains(',') || c.contains('"') {
                        format!("\"{}\"", c.replace('"', "\"\""))
                    } else {
                        c.clone()
                    }
                })
                .collect();
            let _ = writeln!(out, "{}", escaped.join(","));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TableWriter::new("demo", &["a", "long_header"]);
        t.row(&["1".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("=== demo ==="));
        assert!(s.contains("long_header"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_mismatched_row() {
        let mut t = TableWriter::new("demo", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = TableWriter::new("demo", &["a"]);
        t.row(&["x,y".into()]);
        let body = t.to_csv();
        assert!(body.contains("\"x,y\""));
    }
}
