//! `--compare A B`: the regression bounds applied to two sets of runs.
//!
//! A set is the `--out` file of a suite run: one JSON line per run.
//! For every workload × end-to-end metric the medians of the two sets
//! are compared against the metric's bound. A pair whose run-to-run
//! spread (inter-quartile distance over the median, on either side) is
//! wider than the bound cannot carry a verdict either way and is
//! reported as `unresolved`, never as `unchanged`. Per-layer metrics
//! that are counts must be identical wherever both sets hold a traced
//! run of the same workload and seed.

use crate::metrics::{median, repeats_exactly, spread, Better, EndToEnd, END_TO_END};
use crate::workloads::NAMES;
use iosim_util::json::{self, JsonValue};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

/// One set of runs: end-to-end values per `(workload, metric)` and
/// failed operations per workload from the untraced runs, and the
/// exactly-repeating per-layer values per `(workload, seed, metric)`
/// from the traced ones.
#[derive(Debug, Default)]
struct RunSet {
    values: BTreeMap<(String, String), Vec<f64>>,
    failed: BTreeMap<String, u64>,
    counts: BTreeMap<(String, u64, String), f64>,
}

fn parse_set(text: &str) -> Result<RunSet, String> {
    let mut set = RunSet::default();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc = json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let field = |v: &JsonValue, k: &str| {
            v.get(k)
                .cloned()
                .ok_or(format!("line {}: no \"{k}\"", n + 1))
        };
        let traced = field(&doc, "trace")?.as_u64() != Some(0);
        let workload = field(&doc, "workload")?
            .as_str()
            .unwrap_or_default()
            .to_string();
        let seed = field(&doc, "seed")?.as_u64().unwrap_or(0);
        let result = field(&doc, "result")?;
        if !traced {
            *set.failed.entry(workload.clone()).or_default() +=
                field(&result, "failed")?.as_u64().unwrap_or(0);
        }
        let metrics = field(&result, "metrics")?;
        for (name, m) in metrics
            .as_object()
            .ok_or(format!("line {}: metrics is no object", n + 1))?
        {
            let value = field(m, "value")?
                .as_f64()
                .ok_or(format!("line {}: {name} has no number", n + 1))?;
            if !traced {
                set.values
                    .entry((workload.clone(), name.clone()))
                    .or_default()
                    .push(value);
            } else if repeats_exactly(field(m, "unit")?.as_str().unwrap_or_default()) {
                set.counts
                    .insert((workload.clone(), seed, name.clone()), value);
            }
        }
    }
    Ok(set)
}

/// What a pair of value sets says about one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Unchanged,
    Improved,
    Regression,
    Unresolved,
}

/// Applies `m`'s bound to parent values `a` and change values `b`.
pub fn judge(m: &EndToEnd, a: &[f64], b: &[f64]) -> Outcome {
    let (Some(sa), Some(sb)) = (spread(a), spread(b)) else {
        return Outcome::Unresolved;
    };
    if sa.max(sb) > m.bound {
        return Outcome::Unresolved;
    }
    let (ma, mb) = (median(a), median(b));
    let worse = match m.better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    if worse > m.bound {
        Outcome::Regression
    } else if worse < -m.bound {
        Outcome::Improved
    } else {
        Outcome::Unchanged
    }
}

/// Prints one row per workload × metric and exits non-zero on any
/// regression, unresolved pair, rise in failed operations, or count
/// that differs between traced runs of the same workload and seed.
pub fn main(a: &Path, b: &Path) -> ExitCode {
    let load = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| e.to_string())
            .and_then(|t| parse_set(&t))
            .map_err(|e| format!("{}: {e}", p.display()))
    };
    let (sa, sb) = match (load(a), load(b)) {
        (Ok(sa), Ok(sb)) => (sa, sb),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("pipebench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<16} {:<13} {:>14} {:>8} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "spread", "median B", "spread", "change", "bound"
    );
    let mut bad = 0;
    for workload in NAMES {
        for m in &END_TO_END {
            let key = (workload.to_string(), m.name.to_string());
            let (va, vb) = match (sa.values.get(&key), sb.values.get(&key)) {
                (Some(va), Some(vb)) => (va, vb),
                _ => {
                    println!("{workload:<16} {:<13} missing from a set", m.name);
                    bad += 1;
                    continue;
                }
            };
            let outcome = judge(m, va, vb);
            bad += usize::from(matches!(outcome, Outcome::Regression | Outcome::Unresolved));
            let pct =
                |x: Option<f64>| x.map_or("n/a".to_string(), |s| format!("{:.2}%", s * 100.0));
            println!(
                "{workload:<16} {:<13} {:>14.4} {:>8} {:>14.4} {:>8} {:>7.2}% {:>5.0}%  {outcome:?} ({} vs {} runs)",
                m.name,
                median(va),
                pct(spread(va)),
                median(vb),
                pct(spread(vb)),
                (median(vb) - median(va)) / median(va) * 100.0,
                m.bound * 100.0,
                va.len(),
                vb.len(),
            );
        }
        let (fa, fb) = (
            sa.failed.get(workload).copied().unwrap_or(0),
            sb.failed.get(workload).copied().unwrap_or(0),
        );
        if fb > fa {
            println!("{workload:<16} failed operations rose from {fa} to {fb}");
            bad += 1;
        }
    }
    let mut compared = 0;
    for (key, va) in &sa.counts {
        let Some(vb) = sb.counts.get(key) else {
            continue;
        };
        compared += 1;
        if va != vb {
            println!(
                "{:<16} seed {} {}: {va} in A, {vb} in B",
                key.0, key.1, key.2
            );
            bad += 1;
        }
    }
    println!(
        "{compared} per-layer counts compared across traced runs of the same workload and seed"
    );
    if bad == 0 {
        ExitCode::SUCCESS
    } else {
        println!("{bad} rows regressed, are unresolved, are missing, or differ in a count");
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, step: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center + step * (f64::from(i) - 4.5))
            .collect()
    }

    #[test]
    fn bounds_apply_per_direction() {
        let rate = &END_TO_END[1];
        assert_eq!((rate.name, rate.better), ("events_per_s", Better::Higher));
        let base = around(100.0, 0.2);
        let shifted = |m: &EndToEnd, bounds: f64| around(100.0 * (1.0 + bounds * m.bound), 0.2);
        assert_eq!(judge(rate, &base, &shifted(rate, -0.5)), Outcome::Unchanged);
        assert_eq!(
            judge(rate, &base, &shifted(rate, -1.5)),
            Outcome::Regression
        );
        assert_eq!(judge(rate, &base, &shifted(rate, 1.5)), Outcome::Improved);
        let setup = &END_TO_END[0];
        assert_eq!(setup.better, Better::Lower);
        assert_eq!(
            judge(setup, &base, &shifted(setup, 1.5)),
            Outcome::Regression
        );
        assert_eq!(
            judge(setup, &base, &shifted(setup, -1.5)),
            Outcome::Improved
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let rate = &END_TO_END[1];
        let steady = around(100.0, 0.2);
        let noisy = around(100.0, 6.0);
        assert!(spread(&noisy).unwrap() > rate.bound);
        assert_eq!(judge(rate, &steady, &noisy), Outcome::Unresolved);
        assert_eq!(judge(rate, &noisy, &steady), Outcome::Unresolved);
        assert_eq!(judge(rate, &steady, &[100.0]), Outcome::Unresolved);
    }

    #[test]
    fn a_set_file_parses_and_skips_traced_runs() {
        let text = r#"{"workload": "publish-only", "seed": 1, "trace": 0, "result": {"correct": true, "attempted": 5, "failed": 0, "metrics": {"events_per_s": {"value": 270000.5, "unit": "1/s"}}}}
{"workload": "publish-only", "seed": 1, "trace": 1, "result": {"correct": true, "attempted": 5, "failed": 0, "metrics": {"format.ns_per_event": {"value": 900.0, "unit": "ns"}}}}
{"workload": "publish-only", "seed": 2, "trace": 0, "result": {"correct": false, "attempted": 5, "failed": 2, "metrics": {"events_per_s": {"value": 260000.0, "unit": "1/s"}}}}
"#;
        let set = parse_set(text).unwrap();
        let key = ("publish-only".to_string(), "events_per_s".to_string());
        assert_eq!(set.values[&key], vec![270000.5, 260000.0]);
        assert_eq!(
            set.values.len(),
            1,
            "traced runs carry no end-to-end metric"
        );
        assert_eq!(set.failed["publish-only"], 2);
        assert!(
            set.counts.is_empty(),
            "wall-clock layer metrics are not counts"
        );
        assert!(parse_set("{\"workload\": 1}").is_err());
    }
}
