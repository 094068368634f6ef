//! Markdown/CSV table rendering for experiment reports.

use std::fmt;

/// A simple column-aligned table rendered as GitHub-flavoured markdown (via
/// [`fmt::Display`]) or CSV.
///
/// # Example
///
/// ```
/// use fetchvp_experiments::Table;
///
/// let mut t = Table::new("Demo", &["bench", "value"]);
/// t.row(&["go".into(), "1.50".into()]);
/// let text = t.to_string();
/// assert!(text.contains("| bench | value |"));
/// assert!(t.to_csv().starts_with("bench,value"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the header width.
    pub fn row(&mut self, cells: &[String]) -> &mut Table {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Renders as CSV (headers first, no title line). A cell holding a
    /// comma, quote or line break is quoted, its quotes doubled (RFC 4180
    /// §2); every other cell is written bare.
    pub fn to_csv(&self) -> String {
        let field = |cell: &String| {
            if cell.contains([',', '"', '\r', '\n']) {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.clone()
            }
        };
        let line = |cells: &Vec<String>| cells.iter().map(field).collect::<Vec<_>>().join(",");
        std::iter::once(&self.headers).chain(&self.rows).map(|r| line(r) + "\n").collect()
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "### {}\n", self.title)?;
        writeln!(f, "| {} |", self.headers.join(" | "))?;
        writeln!(f, "|{}|", self.headers.iter().map(|_| "---").collect::<Vec<_>>().join("|"))?;
        for row in &self.rows {
            writeln!(f, "| {} |", row.join(" | "))?;
        }
        Ok(())
    }
}

/// Formats a fractional speedup the way the paper's figures label it
/// (percent, one decimal).
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Formats a plain number with two decimals.
pub fn num(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_shape() {
        let mut t = Table::new("T", &["a", "b"]);
        t.row(&["1".into(), "2".into()]);
        let text = t.to_string();
        assert!(text.starts_with("### T"));
        assert!(text.contains("|---|---|"));
        assert!(text.contains("| 1 | 2 |"));
        assert_eq!(t.num_rows(), 1);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_is_checked() {
        Table::new("T", &["a"]).row(&["1".into(), "2".into()]);
    }

    #[test]
    fn csv_round_trip() {
        let mut t = Table::new("T", &["x", "y"]);
        t.row(&["3".into(), "4".into()]);
        assert_eq!(t.to_csv(), "x,y\n3,4\n");
    }

    #[test]
    fn csv_quotes_cells_with_commas_quotes_and_line_breaks() {
        let mut t = Table::new("T", &["name", "n"]);
        t.row(&["1, 2".into(), "3".into()]).row(&["say \"hi\"".into(), "a\nb".into()]);
        assert_eq!(t.to_csv(), "name,n\n\"1, 2\",3\n\"say \"\"hi\"\"\",\"a\nb\"\n");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.335), "33.5%");
        assert_eq!(num(2.0), "2.00");
    }
}
