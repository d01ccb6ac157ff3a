//! Fixed-width text tables shaped like the paper's Tables I–XII.
//!
//! Every `firefly-bench` experiment prints its reproduction side by side with
//! the paper's published numbers; this module renders those tables in plain
//! text for the terminal and in Markdown for EXPERIMENTS.md.

use std::fmt;

/// Horizontal alignment of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Align {
    /// Left-aligned (labels).
    Left,
    /// Right-aligned (numbers).
    Right,
}

/// A simple text table builder.
///
/// # Examples
///
/// ```
/// use firefly_metrics::Table;
/// let mut t = Table::new(&["# of caller threads", "seconds", "RPCs/sec"]);
/// t.row(&["1", "26.61", "375"]);
/// t.row(&["2", "16.80", "595"]);
/// let text = t.render();
/// assert!(text.contains("26.61"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    title: Option<String>,
    headers: Vec<String>,
    aligns: Vec<Align>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers; the first column is
    /// left-aligned, the rest right-aligned (the paper's layout).
    pub fn new(headers: &[&str]) -> Self {
        let aligns = headers
            .iter()
            .enumerate()
            .map(|(i, _)| if i == 0 { Align::Left } else { Align::Right })
            .collect();
        Table {
            title: None,
            headers: headers.iter().map(|s| s.to_string()).collect(),
            aligns,
            rows: Vec::new(),
        }
    }

    /// Sets a caption printed above the table.
    pub fn title(mut self, t: &str) -> Self {
        self.title = Some(t.to_string());
        self
    }

    /// Overrides per-column alignment.
    pub fn aligns(mut self, aligns: &[Align]) -> Self {
        assert_eq!(aligns.len(), self.headers.len(), "alignment count");
        self.aligns = aligns.to_vec();
        self
    }

    /// Appends a row; missing cells render empty, extra cells are an error.
    ///
    /// # Panics
    ///
    /// Panics if the row has more cells than there are headers.
    pub fn row(&mut self, cells: &[&str]) -> &mut Self {
        assert!(
            cells.len() <= self.headers.len(),
            "row has {} cells but table has {} columns",
            cells.len(),
            self.headers.len()
        );
        let mut row: Vec<String> = cells.iter().map(|s| s.to_string()).collect();
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Appends a row of already-owned strings.
    pub fn row_owned(&mut self, cells: Vec<String>) -> &mut Self {
        let refs: Vec<&str> = cells.iter().map(|s| s.as_str()).collect();
        self.row(&refs);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no data rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                w[i] = w[i].max(cell.len());
            }
        }
        w
    }

    /// Renders as aligned plain text.
    pub fn render(&self) -> String {
        let widths = self.widths();
        let mut out = String::new();
        if let Some(t) = &self.title {
            out.push_str(t);
            out.push('\n');
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                match self.aligns[i] {
                    Align::Left => line.push_str(&format!("{:<width$}", cell, width = widths[i])),
                    Align::Right => line.push_str(&format!("{:>width$}", cell, width = widths[i])),
                }
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Renders as a Markdown table.
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        if let Some(t) = &self.title {
            out.push_str(&format!("**{t}**\n\n"));
        }
        out.push_str("| ");
        out.push_str(&self.headers.join(" | "));
        out.push_str(" |\n|");
        for a in &self.aligns {
            out.push_str(match a {
                Align::Left => "---|",
                Align::Right => "---:|",
            });
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str("| ");
            out.push_str(&row.join(" | "));
            out.push_str(" |\n");
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Formats a float with `digits` decimal places, trimming to a compact
/// representation like the paper's tables.
pub fn fnum(x: f64, digits: usize) -> String {
    format!("{:.*}", digits, x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(&["threads", "seconds"]);
        t.row(&["1", "26.61"]);
        t.row(&["10", "5.2"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // Numbers are right-aligned within their column.
        assert!(lines[2].ends_with("26.61"));
        assert!(lines[3].ends_with("5.2"));
    }

    #[test]
    fn title_is_printed() {
        let mut t = Table::new(&["a"]).title("Table I: Time for 10000 RPCs");
        t.row(&["x"]);
        assert!(t.render().starts_with("Table I"));
    }

    #[test]
    fn markdown_shape() {
        let mut t = Table::new(&["k", "v"]);
        t.row(&["a", "1"]);
        let md = t.render_markdown();
        assert!(md.contains("| k | v |"));
        assert!(md.contains("|---|---:|"));
        assert!(md.contains("| a | 1 |"));
    }

    #[test]
    fn short_rows_padded() {
        let mut t = Table::new(&["a", "b", "c"]);
        t.row(&["only"]);
        assert_eq!(t.len(), 1);
        assert!(t.render().contains("only"));
    }

    #[test]
    #[should_panic(expected = "row has")]
    fn long_rows_rejected() {
        let mut t = Table::new(&["a"]);
        t.row(&["1", "2"]);
    }

    #[test]
    fn fnum_formats() {
        assert_eq!(fnum(4.654, 2), "4.65");
        assert_eq!(fnum(2661.0, 0), "2661");
    }
}
