//! Analysis modules — one per paper figure.
//!
//! Each module consumes a [`DataFrame`] whose columns follow the
//! connector's `darshan_data` schema (`op`, `rank`, `job_id`,
//! `ProducerName`, `seg_dur`, `seg_len`, `seg_timestamp`, …) and
//! produces the series the corresponding figure plots, in one or two
//! passes over the frame's rows that aggregate by borrowed cells: a
//! dashboard refresh runs every figure over the same frame, and none
//! of them copies a row.

use crate::frame::DataFrame;
use dsos_sim::Value;
use iosim_util::stats::{Histogram, Summary};
use std::collections::{BTreeMap, BTreeSet};

/// Mean of a group's numeric cells, accumulated as the rows go by.
/// The sum starts from the identity `Iterator::sum` starts from and
/// adds in row order, so it equals collecting the cells and summing
/// them to the bit.
#[derive(Debug, Clone, Copy)]
struct Mean {
    sum: f64,
    n: u64,
}

impl Mean {
    fn new() -> Self {
        Self {
            sum: std::iter::empty::<f64>().sum(),
            n: 0,
        }
    }

    /// Adds a cell; non-numeric cells are skipped.
    fn add(&mut self, cell: &Value) {
        if let Some(v) = cell.as_f64() {
            self.sum += v;
            self.n += 1;
        }
    }

    /// The mean, 0 for a group without numeric cells.
    fn get(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }
}

/// Figure 5: mean occurrences of each operation over a set of jobs,
/// with 95% confidence interval error bars.
#[derive(Debug, Clone, PartialEq)]
pub struct OpOccurrence {
    /// Operation name.
    pub op: String,
    /// Mean count per job.
    pub mean: f64,
    /// Half-width of the 95% CI over jobs.
    pub ci95: f64,
    /// Raw count per job (job id, count), sorted by job id.
    pub per_job: Vec<(u64, u64)>,
}

/// Computes Figure 5's series: per operation, the mean count per job
/// and its 95% confidence interval. One pass counts rows per
/// (op, job); a job an operation never ran in counts as zero.
pub fn op_occurrence(df: &DataFrame) -> Vec<OpOccurrence> {
    let (op, job) = (df.col("op"), df.col("job_id"));
    let mut counts: BTreeMap<&Value, BTreeMap<&Value, u64>> = BTreeMap::new();
    for r in df.rows() {
        *counts
            .entry(&r[op])
            .or_default()
            .entry(&r[job])
            .or_default() += 1;
    }
    let jobs: BTreeSet<&Value> = counts.values().flat_map(BTreeMap::keys).copied().collect();
    counts
        .iter()
        .map(|(op, by_job)| {
            let per_job: Vec<(u64, u64)> = jobs
                .iter()
                .map(|j| (j.as_u64().unwrap_or(0), by_job.get(j).copied().unwrap_or(0)))
                .collect();
            let sample: Vec<f64> = per_job.iter().map(|&(_, n)| n as f64).collect();
            let s = Summary::of(&sample).unwrap_or(Summary {
                n: 0,
                mean: 0.0,
                stddev: 0.0,
                min: 0.0,
                max: 0.0,
            });
            OpOccurrence {
                op: op.as_str().unwrap_or_default().to_string(),
                mean: s.mean,
                ci95: s.ci95_half_width(),
                per_job,
            }
        })
        .collect()
}

/// Figure 6: operation counts per compute node, per job.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeOps {
    /// Node (ProducerName).
    pub node: String,
    /// Job id.
    pub job: u64,
    /// Operation name.
    pub op: String,
    /// Count of that operation on that node in that job.
    pub count: u64,
}

/// Computes Figure 6's series for the given operations (the paper shows
/// open and close), sorted by (node, job, op).
pub fn per_node_ops(df: &DataFrame, ops: &[&str]) -> Vec<NodeOps> {
    let (node, job, op) = (df.col("ProducerName"), df.col("job_id"), df.col("op"));
    let mut counts: BTreeMap<(&Value, &Value, &Value), u64> = BTreeMap::new();
    for r in df.rows() {
        if ops.contains(&r[op].as_str().unwrap_or_default()) {
            *counts.entry((&r[node], &r[job], &r[op])).or_default() += 1;
        }
    }
    counts
        .into_iter()
        .map(|((node, job, op), count)| NodeOps {
            node: node.as_str().unwrap_or_default().to_string(),
            job: job.as_u64().unwrap_or(0),
            op: op.as_str().unwrap_or_default().to_string(),
            count,
        })
        .collect()
}

/// Figure 7: read/write duration statistics per rank per job.
#[derive(Debug, Clone, PartialEq)]
pub struct RankDurations {
    /// Job id.
    pub job: u64,
    /// Rank.
    pub rank: u64,
    /// Operation name ("read"/"write").
    pub op: String,
    /// Mean duration of that operation on that rank (seconds).
    pub mean_dur: f64,
    /// Number of operations.
    pub count: u64,
}

/// Computes Figure 7's series: per (job, rank, op ∈ {read, write})
/// mean duration, sorted by that key.
pub fn per_rank_durations(df: &DataFrame) -> Vec<RankDurations> {
    let (job, rank, op) = (df.col("job_id"), df.col("rank"), df.col("op"));
    let dur = df.col("seg_dur");
    let mut groups: BTreeMap<(&Value, &Value, &str), (Mean, u64)> = BTreeMap::new();
    for r in df.rows() {
        let Some(name @ ("read" | "write")) = r[op].as_str() else {
            continue;
        };
        let (mean, count) = groups
            .entry((&r[job], &r[rank], name))
            .or_insert_with(|| (Mean::new(), 0));
        mean.add(&r[dur]);
        *count += 1;
    }
    groups
        .into_iter()
        .filter_map(|((job, rank, op), (mean, count))| {
            Some(RankDurations {
                job: job.as_u64()?,
                rank: rank.as_u64()?,
                op: op.to_string(),
                mean_dur: mean.get(),
                count,
            })
        })
        .collect()
}

/// Per-job mean duration of an operation — the summary the paper quotes
/// when spotting job 2's anomaly (reads 6.75 s vs 0.05 s). Sorted by
/// job id.
pub fn job_mean_durations(df: &DataFrame, op: &str) -> Vec<(u64, f64)> {
    let (job, opc, dur) = (df.col("job_id"), df.col("op"), df.col("seg_dur"));
    let mut means: BTreeMap<&Value, Mean> = BTreeMap::new();
    for r in df.rows() {
        if r[opc].as_str() == Some(op) {
            means.entry(&r[job]).or_insert_with(Mean::new).add(&r[dur]);
        }
    }
    means
        .into_iter()
        .filter_map(|(job, mean)| Some((job.as_u64()?, mean.get())))
        .collect()
}

/// One job flagged by [`anomalous_jobs`]: its mean operation duration
/// sits a robust z-score away from the fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct JobAnomaly {
    /// Flagged job id.
    pub job: u64,
    /// The job's mean duration of the operation (seconds).
    pub mean_dur: f64,
    /// Fleet median of the per-job means (seconds).
    pub fleet_median: f64,
    /// Robust z-score of the job against the fleet.
    pub z: f64,
}

/// Flags jobs whose per-job mean duration of `op` is a robust outlier
/// against the fleet (z ≥ `min_z` over median/MAD) — the post-run
/// twin of the online detector's fleet-baseline duration alert, and
/// the automatic version of the paper's Figure 7 reading ("job 2's
/// reads average 6.75 s against a 0.05 s fleet mean").
pub fn anomalous_jobs(df: &DataFrame, op: &str, min_z: f64) -> Vec<JobAnomaly> {
    use iosim_util::stats::{mad, median, robust_z};
    let per_job = job_mean_durations(df, op);
    let means: Vec<f64> = per_job.iter().map(|&(_, m)| m).collect();
    let (Some(fleet_median), Some(fleet_mad)) = (median(&means), mad(&means)) else {
        return Vec::new();
    };
    let mut out: Vec<JobAnomaly> = per_job
        .into_iter()
        .filter_map(|(job, mean_dur)| {
            let z = robust_z(mean_dur, fleet_median, fleet_mad);
            (z >= min_z).then_some(JobAnomaly {
                job,
                mean_dur,
                fleet_median,
                z,
            })
        })
        .collect();
    out.sort_by(|a, b| b.z.total_cmp(&a.z).then_with(|| a.job.cmp(&b.job)));
    out
}

/// Figure 8: one point per operation — (seconds into the job, duration,
/// op) — revealing the application's temporal I/O pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct TimePoint {
    /// Seconds from the job's first observed event.
    pub t: f64,
    /// Operation duration (seconds).
    pub dur: f64,
    /// Operation name.
    pub op: String,
    /// Rank that performed it.
    pub rank: u64,
}

/// Figure 8's points before sorting, borrowed: `(seconds from the
/// frame's first timestamp, duration, op, rank)` for every row where
/// all four decode. Empty when there is no finite first timestamp
/// (the smallest numeric `seg_timestamp`, NaN skipped).
fn job_points(df: &DataFrame) -> impl Iterator<Item = (f64, f64, &str, u64)> {
    let (ts, dur, op, rank) = (
        df.col("seg_timestamp"),
        df.col("seg_dur"),
        df.col("op"),
        df.col("rank"),
    );
    let t0 = df
        .rows()
        .iter()
        .filter_map(|r| r[ts].as_f64())
        .fold(f64::INFINITY, f64::min);
    let rows = if t0.is_finite() { df.rows() } else { &[] };
    rows.iter().filter_map(move |r| {
        Some((
            r[ts].as_f64()? - t0,
            r[dur].as_f64()?,
            r[op].as_str()?,
            r[rank].as_u64()?,
        ))
    })
}

/// Computes Figure 8's scatter for one job's frame, sorted by time (a
/// NaN timestamp sorts last, as it does in a DSOS index).
pub fn time_distribution(df: &DataFrame) -> Vec<TimePoint> {
    let mut out: Vec<TimePoint> = job_points(df)
        .map(|(t, dur, op, rank)| TimePoint {
            t,
            dur,
            op: op.to_string(),
            rank,
        })
        .collect();
    out.sort_by(|a, b| a.t.total_cmp(&b.t));
    out
}

/// Figure 9: binned timeline of operation counts and bytes, aggregated
/// across ranks — the Grafana panel series.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    /// Left edge of each bin (seconds into the job).
    pub bin_start: Vec<f64>,
    /// Write operations per bin.
    pub writes: Vec<u64>,
    /// Read operations per bin.
    pub reads: Vec<u64>,
    /// Bytes written per bin.
    pub write_bytes: Vec<f64>,
    /// Bytes read per bin.
    pub read_bytes: Vec<f64>,
}

/// Computes Figure 9's timeline over `bins` equal time bins spanning
/// Figure 8's first to last point: one pass for the first timestamp
/// and that span, one to bin.
pub fn timeline(df: &DataFrame, bins: usize) -> Timeline {
    let (ts, op, len) = (df.col("seg_timestamp"), df.col("op"), df.col("seg_len"));
    let (dur, rank) = (df.col("seg_dur"), df.col("rank"));
    let mut base = f64::INFINITY;
    let mut span: Option<(f64, f64)> = None;
    for r in df.rows() {
        let Some(t) = r[ts].as_f64() else {
            continue;
        };
        base = base.min(t);
        // Figure 8 plots a row only if these decode too (`job_points`).
        if r[dur].as_f64().is_some() && r[op].as_str().is_some() && r[rank].as_u64().is_some() {
            span = Some(span.map_or((t, t), |(lo, hi)| (lo.min(t), hi.max(t))));
        }
    }
    // Subtracting the first timestamp keeps the order, so the span of
    // the relative times is the relative span.
    let span = span.filter(|_| base.is_finite());
    let t0 = span.map_or(0.0, |(first, _)| 0.0f64.min(first - base));
    let t_max = span.map_or(1.0, |(_, last)| last - base).max(1e-9);
    let mut writes = Histogram::new(t0, t_max * 1.0001, bins.max(1));
    let mut reads = Histogram::new(t0, t_max * 1.0001, bins.max(1));
    for r in df.rows() {
        let (Some(t), Some(o)) = (r[ts].as_f64(), r[op].as_str()) else {
            continue;
        };
        let rel = t - base;
        let bytes = r[len].as_f64().unwrap_or(0.0).max(0.0);
        match o {
            "write" => writes.add(rel, bytes),
            "read" => reads.add(rel, bytes),
            _ => {}
        }
    }
    Timeline {
        bin_start: (0..writes.bins()).map(|i| writes.bin_start(i)).collect(),
        writes: writes.counts().to_vec(),
        reads: reads.counts().to_vec(),
        write_bytes: writes.weights().to_vec(),
        read_bytes: reads.weights().to_vec(),
    }
}

/// Correlation of binned I/O behaviour against an external time series
/// (system telemetry such as LDMS `cpu_load` samples) — the analysis
/// the paper motivates: "identify any correlations between the file
/// system, network congestion or resource contentions and the I/O
/// performance".
#[derive(Debug, Clone, PartialEq)]
pub struct LoadCorrelation {
    /// Left edge of each time bin (seconds into the job).
    pub bin_start: Vec<f64>,
    /// Mean operation duration per bin (0 where no ops landed).
    pub mean_dur: Vec<f64>,
    /// Mean telemetry value per bin (NaN-free; bins without samples are
    /// filled from the nearest sample).
    pub telemetry: Vec<f64>,
    /// Pearson correlation between the two series over bins that have
    /// I/O, `None` if degenerate.
    pub r: Option<f64>,
}

/// Correlates a job's per-bin mean operation duration with an external
/// `(seconds_into_job, value)` telemetry series.
pub fn correlate_load(df: &DataFrame, telemetry: &[(f64, f64)], bins: usize) -> LoadCorrelation {
    // Durations are summed per bin in time order, as Figure 8 lists
    // them: only the (time, duration) pairs are sorted, not the rows.
    let mut pts: Vec<(f64, f64)> = job_points(df).map(|(t, dur, ..)| (t, dur)).collect();
    pts.sort_by(|a, b| a.0.total_cmp(&b.0));
    let t_max = pts
        .iter()
        .map(|&(t, _)| t)
        .fold(0.0f64, f64::max)
        .max(telemetry.iter().map(|&(t, _)| t).fold(0.0, f64::max))
        .max(1e-9);
    let bins = bins.max(1);
    let width = t_max * 1.0001 / bins as f64;
    let mut dur_sum = vec![0.0; bins];
    let mut dur_n = vec![0u64; bins];
    for &(t, dur) in &pts {
        let i = ((t / width) as usize).min(bins - 1);
        dur_sum[i] += dur;
        dur_n[i] += 1;
    }
    let mean_dur: Vec<f64> = dur_sum
        .iter()
        .zip(&dur_n)
        .map(|(&s, &n)| if n > 0 { s / n as f64 } else { 0.0 })
        .collect();
    // Bin the telemetry; carry the last seen value through empty bins.
    let mut tel_sum = vec![0.0; bins];
    let mut tel_n = vec![0u64; bins];
    for &(t, v) in telemetry {
        let i = ((t / width) as usize).min(bins - 1);
        tel_sum[i] += v;
        tel_n[i] += 1;
    }
    let mut tel = Vec::with_capacity(bins);
    let mut last = telemetry.first().map_or(0.0, |&(_, v)| v);
    for i in 0..bins {
        if tel_n[i] > 0 {
            last = tel_sum[i] / tel_n[i] as f64;
        }
        tel.push(last);
    }
    // Correlate over bins that actually contain I/O.
    let (xs, ys): (Vec<f64>, Vec<f64>) = mean_dur
        .iter()
        .zip(&tel)
        .zip(&dur_n)
        .filter(|&(_, &n)| n > 0)
        .map(|((&d, &t), _)| (d, t))
        .unzip();
    LoadCorrelation {
        bin_start: (0..bins).map(|i| i as f64 * width).collect(),
        mean_dur,
        telemetry: tel,
        r: iosim_util::stats::pearson(&xs, &ys),
    }
}

/// The figure definitions as first written: clone the frame per view
/// (`filter_eq`, `distinct`, `group_by`, `mean_of`), sort whole points.
/// The one-pass kernels above must equal them on every frame.
#[cfg(test)]
mod oracle {
    use super::*;

    pub(crate) fn op_occurrence(df: &DataFrame) -> Vec<OpOccurrence> {
        let jobs = df.distinct("job_id");
        let mut out = Vec::new();
        for op in df.distinct("op") {
            let op_name = op.as_str().unwrap_or_default().to_string();
            let of_op = df.filter_eq("op", &op);
            let mut per_job = Vec::with_capacity(jobs.len());
            for j in &jobs {
                let n = of_op.filter_eq("job_id", j).len() as u64;
                per_job.push((j.as_u64().unwrap_or(0), n));
            }
            let sample: Vec<f64> = per_job.iter().map(|&(_, n)| n as f64).collect();
            let s = Summary::of(&sample).unwrap_or(Summary {
                n: 0,
                mean: 0.0,
                stddev: 0.0,
                min: 0.0,
                max: 0.0,
            });
            out.push(OpOccurrence {
                op: op_name,
                mean: s.mean,
                ci95: s.ci95_half_width(),
                per_job,
            });
        }
        out
    }

    pub(crate) fn per_node_ops(df: &DataFrame, ops: &[&str]) -> Vec<NodeOps> {
        let mut out = Vec::new();
        for (key, count) in df.group_by(&["ProducerName", "job_id", "op"], |rows| rows.len()) {
            let op = key[2].as_str().unwrap_or_default();
            if !ops.contains(&op) {
                continue;
            }
            out.push(NodeOps {
                node: key[0].as_str().unwrap_or_default().to_string(),
                job: key[1].as_u64().unwrap_or(0),
                op: op.to_string(),
                count: count as u64,
            });
        }
        out
    }

    pub(crate) fn per_rank_durations(df: &DataFrame) -> Vec<RankDurations> {
        let dur = df.col("seg_dur");
        df.group_by(&["job_id", "rank", "op"], |rows| {
            (DataFrame::mean_of(rows, dur), rows.len() as u64)
        })
        .into_iter()
        .filter_map(|(key, (mean_dur, count))| {
            let op = key[2].as_str()?.to_string();
            if op != "read" && op != "write" {
                return None;
            }
            Some(RankDurations {
                job: key[0].as_u64()?,
                rank: key[1].as_u64()?,
                op,
                mean_dur,
                count,
            })
        })
        .collect()
    }

    pub(crate) fn job_mean_durations(df: &DataFrame, op: &str) -> Vec<(u64, f64)> {
        let dur = df.col("seg_dur");
        df.filter_eq("op", &Value::Str(op.to_string()))
            .group_by(&["job_id"], |rows| DataFrame::mean_of(rows, dur))
            .into_iter()
            .filter_map(|(key, mean)| Some((key[0].as_u64()?, mean)))
            .collect()
    }

    pub(crate) fn anomalous_jobs(df: &DataFrame, op: &str, min_z: f64) -> Vec<JobAnomaly> {
        use iosim_util::stats::{mad, median, robust_z};
        let per_job = job_mean_durations(df, op);
        let means: Vec<f64> = per_job.iter().map(|&(_, m)| m).collect();
        let (Some(fleet_median), Some(fleet_mad)) = (median(&means), mad(&means)) else {
            return Vec::new();
        };
        let mut out: Vec<JobAnomaly> = per_job
            .into_iter()
            .filter_map(|(job, mean_dur)| {
                let z = robust_z(mean_dur, fleet_median, fleet_mad);
                (z >= min_z).then_some(JobAnomaly {
                    job,
                    mean_dur,
                    fleet_median,
                    z,
                })
            })
            .collect();
        out.sort_by(|a, b| b.z.total_cmp(&a.z).then_with(|| a.job.cmp(&b.job)));
        out
    }

    pub(crate) fn time_distribution(df: &DataFrame) -> Vec<TimePoint> {
        let ts = df.col("seg_timestamp");
        let t0 = df
            .rows()
            .iter()
            .filter_map(|r| r[ts].as_f64())
            .fold(f64::INFINITY, f64::min);
        if !t0.is_finite() {
            return Vec::new();
        }
        let dur = df.col("seg_dur");
        let op = df.col("op");
        let rank = df.col("rank");
        let mut out: Vec<TimePoint> = df
            .rows()
            .iter()
            .filter_map(|r| {
                Some(TimePoint {
                    t: r[ts].as_f64()? - t0,
                    dur: r[dur].as_f64()?,
                    op: r[op].as_str()?.to_string(),
                    rank: r[rank].as_u64()?,
                })
            })
            .collect();
        // The one edit: the parent's `partial_cmp(..).unwrap()` panics on
        // a NaN timestamp.
        out.sort_by(|a, b| a.t.total_cmp(&b.t));
        out
    }

    pub(crate) fn timeline(df: &DataFrame, bins: usize) -> Timeline {
        let points = time_distribution(df);
        let len_col = df.col("seg_len");
        // Pair each point with its byte count by re-walking rows in the
        // same sorted order; simpler: recompute from rows directly.
        let ts = df.col("seg_timestamp");
        let op = df.col("op");
        let t0 = points.first().map_or(0.0, |p| 0.0f64.min(p.t));
        let t_max = points.last().map_or(1.0, |p| p.t).max(1e-9);
        let mut writes = Histogram::new(t0, t_max * 1.0001, bins.max(1));
        let mut reads = Histogram::new(t0, t_max * 1.0001, bins.max(1));
        let base = df
            .rows()
            .iter()
            .filter_map(|r| r[ts].as_f64())
            .fold(f64::INFINITY, f64::min);
        for r in df.rows() {
            let (Some(t), Some(o)) = (r[ts].as_f64(), r[op].as_str()) else {
                continue;
            };
            let rel = t - base;
            let bytes = r[len_col].as_f64().unwrap_or(0.0).max(0.0);
            match o {
                "write" => writes.add(rel, bytes),
                "read" => reads.add(rel, bytes),
                _ => {}
            }
        }
        Timeline {
            bin_start: (0..writes.bins()).map(|i| writes.bin_start(i)).collect(),
            writes: writes.counts().to_vec(),
            reads: reads.counts().to_vec(),
            write_bytes: writes.weights().to_vec(),
            read_bytes: reads.weights().to_vec(),
        }
    }

    pub(crate) fn correlate_load(
        df: &DataFrame,
        telemetry: &[(f64, f64)],
        bins: usize,
    ) -> LoadCorrelation {
        let pts = time_distribution(df);
        let t_max = pts
            .iter()
            .map(|p| p.t)
            .fold(0.0f64, f64::max)
            .max(telemetry.iter().map(|&(t, _)| t).fold(0.0, f64::max))
            .max(1e-9);
        let bins = bins.max(1);
        let width = t_max * 1.0001 / bins as f64;
        let mut dur_sum = vec![0.0; bins];
        let mut dur_n = vec![0u64; bins];
        for p in &pts {
            let i = ((p.t / width) as usize).min(bins - 1);
            dur_sum[i] += p.dur;
            dur_n[i] += 1;
        }
        let mean_dur: Vec<f64> = dur_sum
            .iter()
            .zip(&dur_n)
            .map(|(&s, &n)| if n > 0 { s / n as f64 } else { 0.0 })
            .collect();
        // Bin the telemetry; carry the last seen value through empty bins.
        let mut tel_sum = vec![0.0; bins];
        let mut tel_n = vec![0u64; bins];
        for &(t, v) in telemetry {
            let i = ((t / width) as usize).min(bins - 1);
            tel_sum[i] += v;
            tel_n[i] += 1;
        }
        let mut tel = Vec::with_capacity(bins);
        let mut last = telemetry.first().map_or(0.0, |&(_, v)| v);
        for i in 0..bins {
            if tel_n[i] > 0 {
                last = tel_sum[i] / tel_n[i] as f64;
            }
            tel.push(last);
        }
        // Correlate over bins that actually contain I/O.
        let (xs, ys): (Vec<f64>, Vec<f64>) = mean_dur
            .iter()
            .zip(&tel)
            .zip(&dur_n)
            .filter(|&(_, &n)| n > 0)
            .map(|((&d, &t), _)| (d, t))
            .unzip();
        LoadCorrelation {
            bin_start: (0..bins).map(|i| i as f64 * width).collect(),
            mean_dur,
            telemetry: tel,
            r: iosim_util::stats::pearson(&xs, &ys),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The connector columns the figures read.
    const COLS: [&str; 7] = [
        "job_id",
        "rank",
        "ProducerName",
        "op",
        "seg_dur",
        "seg_len",
        "seg_timestamp",
    ];

    /// Builds a frame shaped like connector output: columns we use.
    fn frame(rows: Vec<(u64, u64, &str, &str, f64, i64, f64)>) -> DataFrame {
        // (job, rank, node, op, dur, len, ts)
        DataFrame::new(
            COLS.to_vec(),
            rows.into_iter()
                .map(|(j, r, n, o, d, l, t)| {
                    vec![
                        Value::U64(j),
                        Value::U64(r),
                        Value::Str(n.to_string()),
                        Value::Str(o.to_string()),
                        Value::F64(d),
                        Value::I64(l),
                        Value::F64(t),
                    ]
                })
                .collect(),
        )
    }

    #[test]
    fn fig5_op_occurrence_means_and_ci() {
        // Job 1: 2 writes 1 read; job 2: 4 writes 1 read.
        let df = frame(vec![
            (1, 0, "n1", "write", 0.1, 10, 100.0),
            (1, 0, "n1", "write", 0.1, 10, 101.0),
            (1, 0, "n1", "read", 0.1, 10, 102.0),
            (2, 0, "n1", "write", 0.1, 10, 200.0),
            (2, 0, "n1", "write", 0.1, 10, 201.0),
            (2, 0, "n1", "write", 0.1, 10, 202.0),
            (2, 0, "n1", "write", 0.1, 10, 203.0),
            (2, 0, "n1", "read", 0.1, 10, 204.0),
        ]);
        let occ = op_occurrence(&df);
        let write = occ.iter().find(|o| o.op == "write").unwrap();
        assert!((write.mean - 3.0).abs() < 1e-12);
        assert!(write.ci95 > 0.0);
        assert_eq!(write.per_job, vec![(1, 2), (2, 4)]);
        let read = occ.iter().find(|o| o.op == "read").unwrap();
        assert!((read.mean - 1.0).abs() < 1e-12);
        assert_eq!(read.ci95, 0.0); // identical counts → zero CI
    }

    #[test]
    fn anomalous_jobs_flags_the_figure7_read_outlier() {
        // Three calm jobs read at ~0.05 s; job 302 reads at 6.75 s —
        // the Figures 7–9 signature.
        let mut rows = Vec::new();
        for (job, dur) in [(300, 0.050), (301, 0.052), (302, 6.75), (303, 0.048)] {
            for i in 0..4u64 {
                rows.push((job, i % 2, "n1", "read", dur, 1024, 100.0 + i as f64));
                rows.push((job, i % 2, "n1", "write", 0.1, 1024, 90.0 + i as f64));
            }
        }
        let df = frame(rows);
        let hits = anomalous_jobs(&df, "read", 6.0);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].job, 302);
        assert!((hits[0].mean_dur - 6.75).abs() < 1e-12);
        assert!(hits[0].z > 6.0);
        assert!(hits[0].fleet_median < 0.06);
        // Writes are uniform: nothing flagged.
        assert!(anomalous_jobs(&df, "write", 6.0).is_empty());
    }

    #[test]
    fn fig6_per_node_counts() {
        let df = frame(vec![
            (1, 0, "nid00040", "open", 0.0, -1, 100.0),
            (1, 1, "nid00040", "open", 0.0, -1, 100.5),
            (1, 2, "nid00041", "open", 0.0, -1, 100.7),
            (1, 0, "nid00040", "close", 0.0, -1, 110.0),
            (1, 0, "nid00040", "write", 0.1, 10, 105.0),
        ]);
        let ops = per_node_ops(&df, &["open", "close"]);
        assert_eq!(ops.len(), 3); // (40,open) (40,close) (41,open)
        let n40_open = ops
            .iter()
            .find(|o| o.node == "nid00040" && o.op == "open")
            .unwrap();
        assert_eq!(n40_open.count, 2);
        assert!(ops.iter().all(|o| o.op != "write"));
    }

    #[test]
    fn fig7_rank_durations_and_job_anomaly() {
        let df = frame(vec![
            (1, 0, "n", "read", 0.05, 10, 100.0),
            (1, 1, "n", "read", 0.05, 10, 100.0),
            (2, 0, "n", "read", 6.75, 10, 200.0),
            (2, 1, "n", "read", 6.75, 10, 200.0),
        ]);
        let rd = per_rank_durations(&df);
        assert_eq!(rd.len(), 4);
        let job_means = job_mean_durations(&df, "read");
        assert_eq!(job_means.len(), 2);
        assert!((job_means[0].1 - 0.05).abs() < 1e-12);
        assert!((job_means[1].1 - 6.75).abs() < 1e-12);
    }

    #[test]
    fn fig8_points_relative_to_job_start() {
        let df = frame(vec![
            (1, 0, "n", "write", 0.2, 10, 1000.0),
            (1, 1, "n", "write", 0.3, 10, 1010.0),
            (1, 0, "n", "read", 0.1, 10, 1050.0),
        ]);
        let pts = time_distribution(&df);
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0].t, 0.0);
        assert_eq!(pts[2].t, 50.0);
        assert_eq!(pts[2].op, "read");
    }

    #[test]
    fn fig9_timeline_bins_counts_and_bytes() {
        let df = frame(vec![
            (1, 0, "n", "write", 0.1, 100, 0.0),
            (1, 0, "n", "write", 0.1, 100, 1.0),
            (1, 0, "n", "write", 0.1, 100, 9.0),
            (1, 0, "n", "read", 0.1, 50, 9.5),
        ]);
        let tl = timeline(&df, 2);
        assert_eq!(tl.writes.len(), 2);
        assert_eq!(tl.writes[0], 2); // t=0,1
        assert_eq!(tl.writes[1], 1); // t=9
        assert_eq!(tl.reads[1], 1);
        assert!((tl.write_bytes[0] - 200.0).abs() < 1e-9);
        assert!((tl.read_bytes[1] - 50.0).abs() < 1e-9);
    }

    #[test]
    fn correlation_finds_load_driven_slowness() {
        // Op durations track a rising load curve: ops at load 1 take
        // 0.1s, ops at load 2 take 0.2s.
        let mut rows = Vec::new();
        for i in 0..40u64 {
            let load = 1.0 + (i as f64 / 39.0);
            rows.push((1, 0, "n", "write", 0.1 * load, 100, 1000.0 + i as f64));
        }
        let df = frame(rows);
        let telemetry: Vec<(f64, f64)> =
            (0..40).map(|i| (i as f64, 1.0 + i as f64 / 39.0)).collect();
        let c = correlate_load(&df, &telemetry, 10);
        assert_eq!(c.bin_start.len(), 10);
        let r = c.r.expect("correlation defined");
        assert!(r > 0.95, "expected strong positive correlation, got {r}");
    }

    #[test]
    fn correlation_is_none_for_flat_series() {
        let df = frame(vec![
            (1, 0, "n", "write", 0.1, 100, 0.0),
            (1, 0, "n", "write", 0.1, 100, 5.0),
        ]);
        let c = correlate_load(&df, &[(0.0, 1.0), (5.0, 1.0)], 4);
        assert_eq!(c.r, None);
    }

    #[test]
    fn empty_frame_yields_empty_series() {
        let df = frame(vec![]);
        assert!(op_occurrence(&df).is_empty());
        assert!(time_distribution(&df).is_empty());
        let tl = timeline(&df, 4);
        assert_eq!(tl.writes.iter().sum::<u64>(), 0);
    }

    #[test]
    fn nan_timestamp_from_csv_import_sorts_last_and_keeps_the_timeline() {
        // `Value::parse(Type::F64, "NaN")` succeeds, so a CSV import can
        // store a NaN `seg_timestamp`; Figures 8 and 9 used to panic on
        // it in `partial_cmp(..).unwrap()`.
        use dsos_sim::{DsosCluster, Schema, Type};
        let schema = Schema::builder("darshan_data")
            .attr("job_id", Type::U64)
            .attr("rank", Type::U64)
            .attr("ProducerName", Type::Str)
            .attr("op", Type::Str)
            .attr("seg_dur", Type::F64)
            .attr("seg_len", Type::I64)
            .attr("seg_timestamp", Type::F64)
            .index("job_rank_time", &["job_id", "rank", "seg_timestamp"])
            .build()
            .unwrap();
        let cluster = DsosCluster::new(2);
        cluster.create_container("darshan", &schema);
        let csv = [
            "1,0,n1,write,0.1,100,1000.0",
            "1,0,n1,write,0.1,100,NaN",
            "1,1,n1,read,0.2,50,1009.0",
            "1,1,n1,write,0.1,100,1001.0",
        ];
        let rows: Vec<Vec<String>> = csv
            .iter()
            .map(|l| l.split(',').map(str::to_string).collect())
            .collect();
        assert_eq!(
            cluster.import_csv_rows("darshan", &schema, &rows).imported,
            4
        );
        let columns: Vec<&str> = schema.attrs().iter().map(|a| a.name.as_str()).collect();
        let df = DataFrame::new(
            columns,
            cluster.query_prefix("darshan", "job_rank_time", &[]),
        );

        let pts = time_distribution(&df);
        let ts: Vec<f64> = pts.iter().map(|p| p.t).collect();
        assert_eq!(ts[..3], [0.0, 1.0, 9.0]);
        assert!(ts[3].is_nan(), "NaN sorts last: {ts:?}");
        // The span is still first-to-last real point; the NaN row is
        // counted (in the first bin), not lost.
        let tl = timeline(&df, 2);
        assert_eq!(tl.writes, vec![3, 0]);
        assert_eq!(tl.reads, vec![0, 1]);
        assert!((tl.bin_start[1] - 4.5).abs() < 1e-3);
        let c = correlate_load(&df, &[(0.0, 1.0), (9.0, 2.0)], 2);
        assert_eq!(c.mean_dur.len(), 2);
    }

    /// `kernel == oracle`, with every float the same to the bit.
    fn assert_same<T: PartialEq + std::fmt::Debug>(
        what: &str,
        kernel: &[T],
        oracle: &[T],
        floats: impl Fn(&T) -> Vec<f64>,
    ) {
        assert_eq!(kernel, oracle, "{what}");
        let bits = |v: &[T]| -> Vec<u64> { v.iter().flat_map(&floats).map(f64::to_bits).collect() };
        assert_eq!(bits(kernel), bits(oracle), "{what}: float bits");
    }

    /// Every figure kernel against its clone-based definition.
    fn assert_kernels_match_oracles(df: &DataFrame) {
        assert_same(
            "fig5",
            &op_occurrence(df),
            &oracle::op_occurrence(df),
            |o| vec![o.mean, o.ci95],
        );
        let ops = ["open", "close", "flush", ""];
        assert_same(
            "fig6",
            &per_node_ops(df, &ops),
            &oracle::per_node_ops(df, &ops),
            |_| vec![],
        );
        assert_same(
            "fig7",
            &per_rank_durations(df),
            &oracle::per_rank_durations(df),
            |r| vec![r.mean_dur],
        );
        for op in ["read", "write", "open", "nope"] {
            assert_same(
                "job means",
                &job_mean_durations(df, op),
                &oracle::job_mean_durations(df, op),
                |&(_, mean)| vec![mean],
            );
            assert_same(
                "anomalies",
                &anomalous_jobs(df, op, 0.5),
                &oracle::anomalous_jobs(df, op, 0.5),
                |a| vec![a.mean_dur, a.fleet_median, a.z],
            );
        }
        assert_same(
            "fig8",
            &time_distribution(df),
            &oracle::time_distribution(df),
            |p| vec![p.t, p.dur],
        );
        for bins in [0, 1, 7] {
            assert_same(
                "fig9",
                &[timeline(df, bins)],
                &[oracle::timeline(df, bins)],
                |t| [&t.bin_start[..], &t.write_bytes, &t.read_bytes].concat(),
            );
            let telemetry = [(0.0, 1.0), (40.0, 3.0), (300.0, 2.0)];
            assert_same(
                "correlation",
                &[correlate_load(df, &telemetry, bins)],
                &[oracle::correlate_load(df, &telemetry, bins)],
                |c| {
                    let mut f = [&c.bin_start[..], &c.mean_dur, &c.telemetry].concat();
                    f.extend(c.r);
                    f
                },
            );
        }
    }

    #[test]
    fn kernels_match_oracles_on_the_fixed_frames() {
        assert_kernels_match_oracles(&frame(vec![]));
        // One job, one row.
        assert_kernels_match_oracles(&frame(vec![(7, 0, "n", "read", 0.5, 10, 3.0)]));
        // Nothing but ops outside read/write.
        assert_kernels_match_oracles(&frame(vec![
            (1, 0, "n1", "open", 0.0, -1, 100.0),
            (1, 1, "n2", "close", 0.0, -1, 101.0),
            (2, 0, "n1", "flush", 0.3, -1, 99.0),
        ]));
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn kernels_match_oracles_on_generated_frames(
            jobs in 1u64..5,
            rows in prop::collection::vec(
                ((0u64..8, 0u64..4, 0usize..3), 0usize..6, (0usize..5, 0u64..4_000), -3_000i64..70_000, 0u64..2_400),
                0..120,
            ),
        ) {
            const NODES: [&str; 3] = ["nid00040", "nid00041", "nid00052"];
            const OPS: [&str; 6] = ["read", "write", "open", "close", "flush", "read"];
            let rows = rows
                .into_iter()
                .map(|((job, rank, node), op, (dur_kind, dur), len, ts)| {
                    // `seg_dur` cells: mostly floats, some integers,
                    // some not numbers at all, some negative zero.
                    let dur = match dur_kind {
                        0 => Value::Str("N/A".to_string()),
                        1 => Value::U64(dur % 3),
                        2 => Value::F64(-0.0),
                        _ => Value::F64(dur as f64 / 512.0),
                    };
                    vec![
                        Value::U64(300 + job % jobs),
                        Value::U64(rank),
                        Value::Str(NODES[node].to_string()),
                        Value::Str(OPS[op].to_string()),
                        dur,
                        Value::I64(len),
                        // Eighths of a second: repeated timestamps are
                        // common, so the stable sorts are exercised.
                        Value::F64(1_650_000_000.0 + ts as f64 / 8.0),
                    ]
                })
                .collect();
            assert_kernels_match_oracles(&DataFrame::new(COLS.to_vec(), rows));
        }
    }
}
