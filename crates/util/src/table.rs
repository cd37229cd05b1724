//! Plain-text table rendering for the Table II harness output.

/// A simple column-aligned text table builder.
#[derive(Debug, Default, Clone)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given header cells.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a data row; short rows are padded with empty cells.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let mut cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        while cells.len() < self.header.len() {
            cells.push(String::new());
        }
        self.rows.push(cells);
        self
    }

    /// Renders the table with a separator line under the header.
    pub fn render(&self) -> String {
        let ncols = self
            .header
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; ncols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                line.push_str(&format!("{cell:<w$}"));
            }
            line.trim_end().to_string()
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols.saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Renders as CSV (header + rows).
    #[cfg(test)]
    pub(crate) fn to_csv(&self) -> String {
        let mut out = crate::csv::encode_row(&self.header);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&crate::csv::encode_row(row));
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
        let mut t = TextTable::new(vec!["name", "value"]);
        t.row(vec!["short", "1"]);
        t.row(vec!["a-much-longer-name", "2"]);
        let out = t.render();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // Columns align: "value" column starts at the same offset.
        let off0 = lines[0].find("value").unwrap();
        let off2 = lines[2].find('1').unwrap();
        assert_eq!(off0, off2);
    }

    #[test]
    fn pads_short_rows() {
        let mut t = TextTable::new(vec!["a", "b", "c"]);
        t.row(vec!["only-one"]);
        assert_eq!(t.rows.len(), 1);
        assert!(t.render().contains("only-one"));
    }

    #[test]
    fn csv_export() {
        let mut t = TextTable::new(vec!["x", "y"]);
        t.row(vec!["1", "2,3"]);
        assert_eq!(t.to_csv(), "x,y\n1,\"2,3\"\n");
    }
}
