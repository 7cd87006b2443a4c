//! Fixed-width ASCII table rendering for regenerated paper tables.

/// A simple column-aligned text table.
///
/// # Examples
///
/// ```
/// use snap_bench::table::Table;
/// let mut t = Table::new(vec!["input", "words", "time (ms)"]);
/// t.row(vec!["S1".into(), "8".into(), "210".into()]);
/// let text = t.render();
/// assert!(text.contains("S1"));
/// assert!(text.lines().count() >= 3);
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; short rows are padded with empty cells.
    ///
    /// # Panics
    ///
    /// Panics if the row has more cells than there are headers.
    pub fn row(&mut self, mut cells: Vec<String>) -> &mut Self {
        assert!(
            cells.len() <= self.headers.len(),
            "row has {} cells but table has {} columns",
            cells.len(),
            self.headers.len()
        );
        cells.resize(self.headers.len(), String::new());
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Renders the table with a header underline, columns padded to the
    /// widest cell.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{cell:<width$}", width = widths[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(
            &"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders the table as tab-separated values (for `results/*.tsv`).
    pub fn to_tsv(&self) -> String {
        let mut out = self.headers.join("\t");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join("\t"));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["name", "value"]);
        t.row(vec!["alpha".into(), "1".into()]);
        t.row(vec!["b".into(), "22222".into()]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "name   value");
        assert!(lines[1].starts_with("-----"));
        assert_eq!(lines[2], "alpha  1");
        assert_eq!(lines[3], "b      22222");
    }

    #[test]
    fn pads_short_rows() {
        let mut t = Table::new(vec!["a", "b", "c"]);
        t.row(vec!["1".into()]);
        assert_eq!(t.row_count(), 1);
        assert!(t.render().contains('1'));
    }

    #[test]
    #[should_panic(expected = "row has 3 cells")]
    fn long_rows_rejected() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["1".into(), "2".into(), "3".into()]);
    }

    #[test]
    fn zero_column_table_renders_empty_rule() {
        let mut t = Table::new(Vec::<String>::new());
        t.row(Vec::new());
        assert_eq!(t.render(), "\n\n\n");
    }

    #[test]
    fn tsv_output() {
        let mut t = Table::new(vec!["x", "y"]);
        t.row(vec!["1".into(), "2".into()]);
        assert_eq!(t.to_tsv(), "x\ty\n1\t2\n");
    }
}
