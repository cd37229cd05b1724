//! A small column-named dataframe over DSOS values.

use crate::figures::{KEY_COLUMNS, MEASURE_COLUMNS};
use dsos_sim::Value;
use std::collections::BTreeMap;

/// A dataframe: named columns, row-major storage of typed values, and
/// the figure columns (`figures::KEY_COLUMNS`, `figures::MEASURE_COLUMNS`)
/// a second time as dense columns, built once by [`DataFrame::new`].
#[derive(Debug, Clone)]
pub struct DataFrame {
    columns: Vec<String>,
    rows: Vec<Vec<Value>>,
    keys: [Option<Codes>; KEY_COLUMNS.len()],
    measures: [Option<Floats>; MEASURE_COLUMNS.len()],
}

/// A key column, dictionary-coded: row `i` holds `dict[codes[i]]`. The
/// dictionary is sorted by `Value`'s `Ord` and keeps the first-seen cell
/// of each equal class, so codes compare as the cells do.
#[derive(Debug, Clone)]
pub(crate) struct Codes {
    pub(crate) codes: Vec<u32>,
    pub(crate) dict: Vec<Value>,
}

impl Codes {
    /// The cell `code` stands for.
    pub(crate) fn value(&self, code: u32) -> &Value {
        &self.dict[code as usize]
    }

    /// `f` of each dictionary entry, indexed by code.
    pub(crate) fn per_code<T>(&self, f: impl Fn(&Value) -> T) -> Vec<T> {
        self.dict.iter().map(f).collect()
    }
}

/// A measure column: every cell's `as_f64()`, `None` kept apart from
/// `Some(NaN)` by `present`.
#[derive(Debug, Clone)]
pub(crate) struct Floats {
    vals: Vec<f64>,
    present: Vec<bool>,
}

impl Floats {
    fn new(rows: usize) -> Self {
        Self {
            vals: Vec::with_capacity(rows),
            present: Vec::with_capacity(rows),
        }
    }

    fn push(&mut self, v: Option<f64>) {
        self.vals.push(v.unwrap_or(0.0));
        self.present.push(v.is_some());
    }

    /// Row `i`'s value.
    pub(crate) fn get(&self, i: usize) -> Option<f64> {
        self.present[i].then(|| self.vals[i])
    }

    /// Every row's value, in row order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = Option<f64>> + '_ {
        self.vals
            .iter()
            .zip(&self.present)
            .map(|(&v, &present)| present.then_some(v))
    }
}

/// Codes a key column as its rows go by: provisional codes in
/// first-seen order, renumbered into `Ord` order by [`Coder::finish`].
struct Coder<'a> {
    codes: Vec<u32>,
    seen: BTreeMap<&'a Value, u32>,
    /// The previous row's cell and code: neighbouring rows of a query
    /// result mostly share a job, a rank, a node.
    last: Option<(&'a Value, u32)>,
}

impl<'a> Coder<'a> {
    fn new(rows: usize) -> Self {
        Self {
            codes: Vec::with_capacity(rows),
            seen: BTreeMap::new(),
            last: None,
        }
    }

    fn push(&mut self, cell: &'a Value) {
        // Cells `==` each other only if `Ord` says equal too; a NaN,
        // which `==` nothing, is found in the map instead.
        let code = match self.last {
            Some((last, code)) if last == cell => code,
            _ => {
                let next = u32::try_from(self.seen.len()).expect("fewer than 2^32 distinct keys");
                let code = *self.seen.entry(cell).or_insert(next);
                self.last = Some((cell, code));
                code
            }
        };
        self.codes.push(code);
    }

    fn finish(self) -> Codes {
        let mut rank = vec![0u32; self.seen.len()];
        let mut dict = Vec::with_capacity(self.seen.len());
        for (i, (&cell, &code)) in self.seen.iter().enumerate() {
            rank[code as usize] = i as u32;
            dict.push(cell.clone());
        }
        let mut codes = self.codes;
        for c in &mut codes {
            *c = rank[*c as usize];
        }
        Codes { codes, dict }
    }
}

impl DataFrame {
    /// Builds a frame from column names and rows. Every row must have
    /// one value per column.
    pub fn new<S: Into<String>>(columns: Vec<S>, rows: Vec<Vec<Value>>) -> Self {
        let columns: Vec<String> = columns.into_iter().map(Into::into).collect();
        // Each figure column the frame has, with its position in a row.
        let at = |name: &str| columns.iter().position(|c| c == name);
        let mut coders = KEY_COLUMNS.map(|name| at(name).map(|c| (c, Coder::new(rows.len()))));
        let mut floats = MEASURE_COLUMNS.map(|name| at(name).map(|c| (c, Floats::new(rows.len()))));
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(
                r.len(),
                columns.len(),
                "row {i} has {} values for {} columns",
                r.len(),
                columns.len()
            );
            for (c, coder) in coders.iter_mut().flatten() {
                coder.push(&r[*c]);
            }
            for (c, col) in floats.iter_mut().flatten() {
                col.push(r[*c].as_f64());
            }
        }
        Self {
            keys: coders.map(|c| c.map(|(_, coder)| coder.finish())),
            measures: floats.map(|c| c.map(|(_, col)| col)),
            columns,
            rows,
        }
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

    /// A key column of the figures, coded.
    pub(crate) fn codes(&self, name: &str) -> &Codes {
        let i = KEY_COLUMNS.iter().position(|&c| c == name);
        let i = i.unwrap_or_else(|| panic!("{name} is not a figure key column"));
        self.keys[i]
            .as_ref()
            .unwrap_or_else(|| panic!("no such column: {name}"))
    }

    /// A measure column of the figures, as floats.
    pub(crate) fn floats(&self, name: &str) -> &Floats {
        let i = MEASURE_COLUMNS.iter().position(|&c| c == name);
        let i = i.unwrap_or_else(|| panic!("{name} is not a figure measure column"));
        self.measures[i]
            .as_ref()
            .unwrap_or_else(|| panic!("no such column: {name}"))
    }

    /// A column's values as f64 (non-numeric cells are skipped).
    pub fn f64s(&self, name: &str) -> Vec<f64> {
        let c = self.col(name);
        self.rows.iter().filter_map(|r| r[c].as_f64()).collect()
    }
}

/// The clone-and-group operations the figure analyses were first
/// written with. The figures now aggregate over the typed columns;
/// these stay as the reference their tests compare against.
#[cfg(test)]
mod oracle {
    use super::*;

    impl DataFrame {
        /// Keeps rows matching the predicate.
        pub(crate) fn filter<F: Fn(&[Value]) -> bool>(&self, pred: F) -> DataFrame {
            DataFrame::new(
                self.columns.clone(),
                self.rows.iter().filter(|r| pred(r)).cloned().collect(),
            )
        }

        /// Keeps rows whose `col` equals `v` in `Value`'s total order, the
        /// equality grouping uses (a NaN cell equals a NaN).
        pub(crate) fn filter_eq(&self, col_name: &str, v: &Value) -> DataFrame {
            let c = self.col(col_name);
            self.filter(|r| r[c].cmp(v).is_eq())
        }

        /// Distinct values of a column in `Value`'s total order, sorted;
        /// the first seen stands for its equal class.
        pub(crate) fn distinct(&self, col_name: &str) -> Vec<Value> {
            let c = self.col(col_name);
            let mut vals: Vec<Value> = Vec::new();
            for r in &self.rows {
                if !vals.iter().any(|v| v.cmp(&r[c]).is_eq()) {
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
    fn key_columns_are_coded_in_value_order_keeping_the_first_seen() {
        let cells = [
            Value::Str("b".into()),
            Value::F64(-0.0),
            Value::U64(7),
            Value::F64(f64::NAN),
            Value::F64(0.0),
            Value::Str("a".into()),
            Value::F64(-f64::NAN),
            Value::U64(7),
        ];
        let df = DataFrame::new(vec!["op"], cells.iter().map(|c| vec![c.clone()]).collect());
        let op = df.codes("op");
        let dict: Vec<String> = op.dict.iter().map(|v| format!("{v:?}")).collect();
        assert_eq!(
            dict,
            [
                "U64(7)",
                "F64(-0.0)",
                "F64(NaN)",
                "Str(\"a\")",
                "Str(\"b\")"
            ]
        );
        assert!(op.dict[2].as_f64().unwrap().is_sign_positive());
        assert_eq!(op.codes, [4, 1, 0, 2, 1, 3, 2, 0]);
        for (cell, &code) in cells.iter().zip(&op.codes) {
            assert!(op.dict[code as usize].cmp(cell).is_eq());
        }
    }

    #[test]
    fn measure_columns_keep_a_missing_cell_apart_from_nan() {
        let df = DataFrame::new(
            vec!["seg_dur"],
            vec![
                vec![Value::F64(f64::NAN)],
                vec![Value::Str("N/A".into())],
                vec![Value::I64(-3)],
            ],
        );
        let dur: Vec<Option<f64>> = df.floats("seg_dur").iter().collect();
        assert!(dur[0].unwrap().is_nan());
        assert_eq!(dur[1..], [None, Some(-3.0)]);
    }

    #[test]
    #[should_panic(expected = "no such column")]
    fn unknown_column_panics() {
        frame().col("nope");
    }

    #[test]
    #[should_panic(expected = "no such column: job_id")]
    fn absent_figure_column_panics() {
        frame().codes("job_id");
    }

    #[test]
    #[should_panic(expected = "row 0 has")]
    fn ragged_rows_rejected() {
        let _ = DataFrame::new(vec!["a", "b"], vec![vec![Value::U64(1)]]);
    }
}
