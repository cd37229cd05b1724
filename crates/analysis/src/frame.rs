//! A small column-named dataframe over DSOS values.

use dsos_sim::Value;
#[cfg(test)]
use std::collections::BTreeMap;

/// A dataframe: named columns, row-major storage of typed values.
#[derive(Debug, Clone)]
pub struct DataFrame {
    columns: Vec<String>,
    rows: Vec<Vec<Value>>,
}

impl DataFrame {
    /// Builds a frame from column names and rows. Every row must have
    /// one value per column.
    pub fn new<S: Into<String>>(columns: Vec<S>, rows: Vec<Vec<Value>>) -> Self {
        let columns: Vec<String> = columns.into_iter().map(Into::into).collect();
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(
                r.len(),
                columns.len(),
                "row {i} has {} values for {} columns",
                r.len(),
                columns.len()
            );
        }
        Self { columns, rows }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The rows.
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// Index of a column by name.
    pub(crate) fn col(&self, name: &str) -> usize {
        self.columns
            .iter()
            .position(|c| c == name)
            .unwrap_or_else(|| panic!("no such column: {name}"))
    }

    /// A column's values as f64 (non-numeric cells are skipped).
    pub fn f64s(&self, name: &str) -> Vec<f64> {
        let c = self.col(name);
        self.rows.iter().filter_map(|r| r[c].as_f64()).collect()
    }

    /// Keeps rows matching the predicate.
    pub fn filter<F: Fn(&[Value]) -> bool>(&self, pred: F) -> DataFrame {
        DataFrame {
            columns: self.columns.clone(),
            rows: self.rows.iter().filter(|r| pred(r)).cloned().collect(),
        }
    }

    /// Renders the frame as CSV (header + rows) for export to external
    /// plotting tools, mirroring the store plugin's format.
    #[cfg(test)]
    pub(crate) fn to_csv(&self) -> String {
        let mut out = iosim_util::csv::encode_row(&self.columns);
        out.push('\n');
        for r in &self.rows {
            let cells: Vec<String> = r.iter().map(|v| v.to_string()).collect();
            out.push_str(&iosim_util::csv::encode_row(&cells));
            out.push('\n');
        }
        out
    }
}

/// The clone-and-group operations the figure analyses were first
/// written with. The figures now aggregate in one pass over borrowed
/// rows; these stay as the reference their tests compare against.
#[cfg(test)]
impl DataFrame {
    /// Keeps rows whose `col` equals `v`.
    pub(crate) fn filter_eq(&self, col_name: &str, v: &Value) -> DataFrame {
        let c = self.col(col_name);
        self.filter(|r| &r[c] == v)
    }

    /// Distinct values of a column, sorted.
    pub(crate) fn distinct(&self, col_name: &str) -> Vec<Value> {
        let c = self.col(col_name);
        let mut vals: Vec<Value> = Vec::new();
        for r in &self.rows {
            if !vals.contains(&r[c]) {
                vals.push(r[c].clone());
            }
        }
        vals.sort();
        vals
    }

    /// Groups rows by the values of `key_cols` and applies `agg` to
    /// each group, producing `(key, aggregate)` pairs sorted by key.
    pub(crate) fn group_by<T, F>(&self, key_cols: &[&str], agg: F) -> Vec<(Vec<Value>, T)>
    where
        F: Fn(&[&Vec<Value>]) -> T,
    {
        let ids: Vec<usize> = key_cols.iter().map(|c| self.col(c)).collect();
        let mut groups: BTreeMap<Vec<Value>, Vec<&Vec<Value>>> = BTreeMap::new();
        for r in &self.rows {
            let key: Vec<Value> = ids.iter().map(|&i| r[i].clone()).collect();
            groups.entry(key).or_default().push(r);
        }
        groups
            .into_iter()
            .map(|(k, rows)| {
                let out = agg(&rows);
                (k, out)
            })
            .collect()
    }

    /// Mean of a numeric column over a set of rows.
    pub(crate) fn mean_of(rows: &[&Vec<Value>], col_id: usize) -> f64 {
        let vals: Vec<f64> = rows.iter().filter_map(|r| r[col_id].as_f64()).collect();
        if vals.is_empty() {
            0.0
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame() -> DataFrame {
        DataFrame::new(
            vec!["job", "rank", "op", "dur"],
            vec![
                vec![
                    Value::U64(1),
                    Value::U64(0),
                    Value::Str("write".into()),
                    Value::F64(0.5),
                ],
                vec![
                    Value::U64(1),
                    Value::U64(1),
                    Value::Str("write".into()),
                    Value::F64(0.7),
                ],
                vec![
                    Value::U64(1),
                    Value::U64(0),
                    Value::Str("read".into()),
                    Value::F64(0.1),
                ],
                vec![
                    Value::U64(2),
                    Value::U64(0),
                    Value::Str("write".into()),
                    Value::F64(0.9),
                ],
            ],
        )
    }

    #[test]
    fn filter_and_distinct() {
        let f = frame();
        let writes = f.filter_eq("op", &Value::Str("write".into()));
        assert_eq!(writes.len(), 3);
        assert_eq!(f.distinct("job"), vec![Value::U64(1), Value::U64(2)]);
    }

    #[test]
    fn group_by_aggregates_in_key_order() {
        let f = frame();
        let dur = f.col("dur");
        let by_job = f.group_by(&["job"], |rows| DataFrame::mean_of(rows, dur));
        assert_eq!(by_job.len(), 2);
        assert_eq!(by_job[0].0, vec![Value::U64(1)]);
        assert!((by_job[0].1 - 1.3 / 3.0).abs() < 1e-12);
        assert!((by_job[1].1 - 0.9).abs() < 1e-12);
    }

    #[test]
    fn multi_key_grouping() {
        let f = frame();
        let counts = f.group_by(&["job", "op"], |rows| rows.len());
        // (1, read), (1, write), (2, write)
        assert_eq!(counts.len(), 3);
        assert_eq!(counts[0].0, vec![Value::U64(1), Value::Str("read".into())]);
        assert_eq!(counts[1].1, 2);
    }

    #[test]
    fn f64s_extracts_numeric_column() {
        let f = frame();
        assert_eq!(f.f64s("dur"), vec![0.5, 0.7, 0.1, 0.9]);
    }

    #[test]
    fn to_csv_exports_header_and_rows() {
        let csv = frame().to_csv();
        assert!(csv.starts_with("job,rank,op,dur\n"));
        assert_eq!(csv.lines().count(), 5);
        assert!(csv.contains("1,0,write,0.5"));
    }

    #[test]
    #[should_panic(expected = "no such column")]
    fn unknown_column_panics() {
        frame().col("nope");
    }

    #[test]
    #[should_panic(expected = "row 0 has")]
    fn ragged_rows_rejected() {
        let _ = DataFrame::new(vec!["a", "b"], vec![vec![Value::U64(1)]]);
    }
}
