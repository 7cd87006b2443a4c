//! Experiment output container: print to stdout, save to `results/`.

use crate::table::Table;
use std::fs;
use std::path::{Path, PathBuf};

/// The rendered output of one experiment.
#[derive(Debug, Clone)]
pub struct ExperimentOutput {
    /// Short identifier, e.g. `fig16`.
    pub id: &'static str,
    /// Human-readable title.
    pub title: String,
    /// Captioned tables, in presentation order.
    pub tables: Vec<(String, Table)>,
    /// Note lines (paper comparisons and shape checks), in order.
    pub notes: Vec<Note>,
}

/// One note line: plain text, or a shape check with its verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Note {
    /// The line, without the verdict a check appends.
    pub text: String,
    /// `Some(holds)` for a shape check, `None` for a plain note.
    pub holds: Option<bool>,
}

impl ExperimentOutput {
    /// Creates an empty output.
    pub fn new(id: &'static str, title: impl Into<String>) -> Self {
        ExperimentOutput {
            id,
            title: title.into(),
            tables: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Adds a captioned table.
    pub fn table(&mut self, caption: impl Into<String>, table: Table) -> &mut Self {
        self.tables.push((caption.into(), table));
        self
    }

    /// Adds a plain note line.
    pub fn note(&mut self, text: impl Into<String>) -> &mut Self {
        self.notes.push(Note {
            text: text.into(),
            holds: None,
        });
        self
    }

    /// Adds a shape check: `text` is the line up to its verdict (its
    /// `: ` or ` — ` separator included), and [`render`](Self::render)
    /// appends `HOLDS` or `CHECK` as `holds` says.
    pub fn check(&mut self, text: impl Into<String>, holds: bool) -> &mut Self {
        self.notes.push(Note {
            text: text.into(),
            holds: Some(holds),
        });
        self
    }

    /// The shape checks, in order: each one's text and whether it holds.
    pub fn checks(&self) -> impl Iterator<Item = (&str, bool)> {
        self.notes
            .iter()
            .filter_map(|n| n.holds.map(|holds| (n.text.as_str(), holds)))
    }

    /// Renders everything as text.
    pub fn render(&self) -> String {
        let mut out = format!("== {} — {} ==\n", self.id, self.title);
        for (caption, table) in &self.tables {
            out.push_str(&format!("\n-- {caption} --\n"));
            out.push_str(&table.render());
        }
        if !self.notes.is_empty() {
            out.push('\n');
            for n in &self.notes {
                let verdict = match n.holds {
                    Some(true) => "HOLDS",
                    Some(false) => "CHECK",
                    None => "",
                };
                out.push_str(&format!("note: {}{verdict}\n", n.text));
            }
        }
        out
    }

    /// Prints the rendered output to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }

    /// Saves the tables as TSV plus the rendered text under `dir`.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating or writing the files.
    pub fn save(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
        fs::create_dir_all(dir)?;
        let mut written = Vec::new();
        let txt = dir.join(format!("{}.txt", self.id));
        fs::write(&txt, self.render())?;
        written.push(txt);
        for (i, (_, table)) in self.tables.iter().enumerate() {
            let path = if self.tables.len() == 1 {
                dir.join(format!("{}.tsv", self.id))
            } else {
                dir.join(format!("{}_{}.tsv", self.id, i))
            };
            fs::write(&path, table.to_tsv())?;
            written.push(path);
        }
        Ok(written)
    }
}

/// The results directory: `results/` at the workspace root, fixed when
/// this crate is compiled, so a binary writes there from any working
/// directory.
pub fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the workspace root")
        .join("results")
}

/// Formats nanoseconds as milliseconds with two decimals.
pub fn ms(ns: u64) -> String {
    format!("{:.2}", ns as f64 / 1e6)
}

/// Formats a ratio with two decimals.
pub fn ratio(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_includes_tables_and_notes() {
        let mut t = Table::new(vec!["a"]);
        t.row(vec!["1".into()]);
        let mut out = ExperimentOutput::new("figX", "demo");
        out.table("caption", t)
            .check("a grows: ", true)
            .note("plain")
            .check("b shrinks — ", false);
        let text = out.render();
        assert!(text.contains("figX"));
        assert!(text.contains("caption"));
        assert!(text.ends_with("\nnote: a grows: HOLDS\nnote: plain\nnote: b shrinks — CHECK\n"));
        let checks: Vec<_> = out.checks().collect();
        assert_eq!(checks, [("a grows: ", true), ("b shrinks — ", false)]);
    }

    #[test]
    fn save_writes_tsv_and_txt() {
        let dir = std::env::temp_dir().join(format!("snapbench-{}", std::process::id()));
        let mut t = Table::new(vec!["x", "y"]);
        t.row(vec!["1".into(), "2".into()]);
        let mut out = ExperimentOutput::new("figY", "demo");
        out.table("c", t);
        let files = out.save(&dir).unwrap();
        assert_eq!(files.len(), 2);
        assert!(files[1].to_string_lossy().ends_with("figY.tsv"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn results_dir_is_the_checked_in_results() {
        let dir = results_dir();
        assert!(dir.join("README.md").is_file(), "{}", dir.display());
        assert_eq!(dir.file_name().unwrap(), "results");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ms(1_500_000), "1.50");
        assert_eq!(ratio(2.0), "2.00");
    }
}
