//! Minimal markdown-table rendering for experiment output.

use std::collections::BTreeMap;
use std::fmt;

/// A titled table with a caption tying it to the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Table title (e.g. "E4: threshold tester, Theorem 1.2").
    pub title: String,
    /// One-line description of what the rows show and what to look for.
    pub caption: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of pre-formatted cells.
    pub rows: Vec<Vec<String>>,
    /// Unrounded values behind some cells, by `(row, column)`, for
    /// verdicts that a rounded cell would blur. Never rendered.
    pub exact: BTreeMap<(usize, usize), f64>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, caption: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            caption: caption.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            exact: BTreeMap::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(cells);
    }

    /// Keeps `value`, unrounded, behind column `col` of the last row.
    ///
    /// # Panics
    ///
    /// Panics if the table has no row or `col` is past the last column.
    pub fn set_exact(&mut self, col: usize, value: f64) {
        assert!(col < self.headers.len(), "column {col} out of range");
        let row = self.rows.len().checked_sub(1).expect("a row to annotate");
        self.exact.insert((row, col), value);
    }

    /// Serializes the table as a JSON object (all cells are strings, so
    /// no escaping subtleties beyond the standard string escapes).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str("\"title\":");
        json_string(&mut out, &self.title);
        out.push_str(",\"caption\":");
        json_string(&mut out, &self.caption);
        out.push_str(",\"headers\":");
        json_string_array(&mut out, &self.headers);
        out.push_str(",\"rows\":[");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json_string_array(&mut out, row);
        }
        out.push_str("]}");
        out
    }
}

/// Serializes a slice of tables as a pretty-ish JSON array (one table
/// per line), replacing the previous `serde_json::to_string_pretty`.
pub fn tables_to_json(tables: &[Table]) -> String {
    let mut out = String::from("[\n");
    for (i, t) in tables.iter().enumerate() {
        out.push_str("  ");
        out.push_str(&t.to_json());
        if i + 1 < tables.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push(']');
    out
}

fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn json_string_array(out: &mut String, items: &[String]) {
    out.push('[');
    for (i, s) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_string(out, s);
    }
    out.push(']');
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "### {}", self.title)?;
        writeln!(f)?;
        writeln!(f, "{}", self.caption)?;
        writeln!(f)?;
        // Column widths for aligned markdown.
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let render_row = |cells: &[String]| -> String {
            let padded: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect();
            format!("| {} |", padded.join(" | "))
        };
        writeln!(f, "{}", render_row(&self.headers))?;
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        writeln!(f, "| {} |", sep.join(" | "))?;
        for row in &self.rows {
            writeln!(f, "{}", render_row(row))?;
        }
        Ok(())
    }
}

/// Formats a float to 4 significant decimals for table cells.
pub fn fmt_f(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 1000.0 {
        format!("{x:.0}")
    } else if x.abs() >= 1.0 {
        format!("{x:.3}")
    } else {
        format!("{x:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_markdown() {
        let mut t = Table::new("T", "cap", &["a", "b"]);
        t.push_row(vec!["1".into(), "2".into()]);
        let s = t.to_string();
        assert!(s.contains("### T"));
        assert!(s.contains("| a | b |"));
        assert!(s.contains("| 1 | 2 |"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        let mut t = Table::new("T", "cap", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f(0.0), "0");
        assert_eq!(fmt_f(0.12345), "0.1235");
        assert_eq!(fmt_f(2.34567), "2.346");
        assert_eq!(fmt_f(123456.0), "123456");
    }
}
