//! Fixed-width table printing shared by the regeneration binaries.

/// A simple fixed-width table: a header row, data rows, and an optional
/// caption, printed in the style of the paper's tables.
pub struct Table {
    title: String,
    header: Vec<String>,
    widths: Vec<usize>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        let header: Vec<String> = header.iter().map(|s| s.to_string()).collect();
        let widths = header.iter().map(|h| h.len()).collect();
        Self {
            title: title.into(),
            header,
            widths,
            rows: Vec::new(),
        }
    }

    /// Appends one row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        for (w, c) in self.widths.iter_mut().zip(&cells) {
            *w = (*w).max(c.len());
        }
        self.rows.push(cells);
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("\n=== {} ===\n", self.title));
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w + 2))
                .collect::<String>()
        };
        out.push_str(&line(&self.header, &self.widths));
        out.push('\n');
        let total: usize = self.widths.iter().map(|w| w + 2).sum();
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&line(r, &self.widths));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats seconds with ms precision.
pub fn secs(t: f64) -> String {
    if t >= 1.0 {
        format!("{t:.2}s")
    } else {
        format!("{:.2}ms", t * 1e3)
    }
}

/// Formats a byte count in MiB/KiB.
pub fn bytes(b: u64) -> String {
    mrbc_util::stats::humanize_bytes(b)
}

/// Formats a ratio like the paper's "14.0x".
pub fn ratio(x: f64) -> String {
    format!("{x:.1}x")
}

/// Nearest-rank percentile of an ascending sample (`p` in 0..=1); the
/// default value (0) for an empty one.
pub fn percentile<T: Copy + Default>(sorted: &[T], p: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    sorted[((sorted.len() as f64 - 1.0) * p).round() as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["col", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "123456".into()]);
        let s = t.render();
        assert!(s.contains("demo"));
        assert!(s.contains("long-name"));
        let lines: Vec<&str> = s.lines().filter(|l| !l.is_empty()).collect();
        // Header, rule, two rows, title.
        assert_eq!(lines.len(), 5);
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn wrong_arity_is_rejected() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(secs(2.5), "2.50s");
        assert_eq!(secs(0.0025), "2.50ms");
        assert_eq!(ratio(14.04), "14.0x");
    }
}
