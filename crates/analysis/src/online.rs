//! Run-time anomaly detection over the live event stream.
//!
//! The paper's Figures 7–9 anomaly — one MPI-IO job whose reads
//! average 6.75 s against a 0.05 s fleet mean, with write slowdown
//! onset after ~250 s — was found by a human staring at Grafana. This
//! module is the automatic version: a streaming engine that consumes
//! the same per-segment events the DSOS store ingests and maintains
//!
//! * rolling per-(job, op) **robust statistics** (median/MAD over
//!   virtual-time windows, [`iosim_util::stats`]),
//! * **phase segmentation** (the write-phases-then-read structure,
//!   recovered from dominant-op transitions between windows),
//! * **straggler-rank detection** (cumulative per-rank I/O time
//!   against the job-wide robust median, the live analogue of the
//!   post-run `TRC008` lint), and
//! * **duration/onset outlier alerts** (window medians against a
//!   rolling baseline, with the onset instant refined by the shared
//!   change-point kernel — the "slowdown after 250 s" alarm).
//!
//! Detections are emitted as typed [`DiagnosticEvent`]s carrying
//! severity, the onset instant, and observed-vs-baseline evidence.
//! The engine is an online algorithm: each event is touched once,
//! windows close as the global virtual-time watermark passes them,
//! and the engine only ever looks backwards. Callers replaying a
//! settled run feed events in virtual-time order.

use iosim_util::stats::{change_point, mad, median, robust_z};
use std::borrow::Cow;
use std::collections::{btree_map, BTreeMap, BTreeSet};
use std::fmt;

/// One I/O segment as the detector sees it — the subset of the
/// 24-column `darshan_data` row the detection algorithms read.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineEvent {
    /// Job the rank belonged to.
    pub job_id: u64,
    /// MPI rank.
    pub rank: u64,
    /// Operation (`open`, `close`, `read`, `write`), as [`op_name`]
    /// decodes it.
    pub op: Cow<'static, str>,
    /// File path operated on.
    pub file: String,
    /// Segment length in bytes (`seg_len`; -1 when not applicable).
    pub len: i64,
    /// Segment offset in bytes (`seg_off`; -1 when not applicable).
    pub off: i64,
    /// Segment duration in seconds (`seg_dur`).
    pub dur: f64,
    /// Segment end timestamp in absolute seconds (`seg_timestamp`).
    pub end: f64,
}

/// An `op` cell as a decoded event keeps it: the connector's four
/// operations borrow a static name, anything else is copied.
pub fn op_name(op: &str) -> Cow<'static, str> {
    ["open", "close", "read", "write"]
        .into_iter()
        .find(|&name| name == op)
        .map_or_else(|| Cow::Owned(op.to_string()), Cow::Borrowed)
}

/// What kind of anomaly a detection reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AnomalyKind {
    /// One rank's cumulative I/O time dwarfs the job median
    /// (`TRC010` when linted).
    StragglerRank,
    /// A window's operation-duration median jumped far above the
    /// rolling baseline (`TRC011`).
    DurationOutlier,
    /// A phase's write mix degenerated into tiny unaligned writes
    /// (`TRC012`).
    PhaseAnomaly,
}

impl AnomalyKind {
    /// Stable kebab-case label.
    pub fn as_str(self) -> &'static str {
        match self {
            AnomalyKind::StragglerRank => "straggler-rank",
            AnomalyKind::DurationOutlier => "duration-outlier",
            AnomalyKind::PhaseAnomaly => "phase-anomaly",
        }
    }
}

impl fmt::Display for AnomalyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How far past its threshold a detection landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DetectionSeverity {
    /// Past the threshold.
    Warning,
    /// At least twice the threshold.
    Critical,
}

impl DetectionSeverity {
    /// Stable lowercase label.
    pub fn as_str(self) -> &'static str {
        match self {
            DetectionSeverity::Warning => "warning",
            DetectionSeverity::Critical => "critical",
        }
    }
}

/// One emitted detection: what, where, when it began, and the
/// observed-vs-baseline evidence backing it.
#[derive(Debug, Clone, PartialEq)]
pub struct DiagnosticEvent {
    /// Anomaly class.
    pub kind: AnomalyKind,
    /// Threshold-relative severity.
    pub severity: DetectionSeverity,
    /// Job the anomaly is in.
    pub job_id: u64,
    /// Offending rank, for rank-scoped anomalies.
    pub rank: Option<u64>,
    /// Operation the evidence is about (`read`/`write`; `io` for
    /// whole-rank anomalies).
    pub op: String,
    /// When the anomalous regime began (absolute virtual seconds).
    pub onset: f64,
    /// When the engine flagged it (absolute virtual seconds — the end
    /// of the window that crossed the threshold).
    pub detected_at: f64,
    /// The observed statistic (seconds for duration anomalies, a
    /// fraction for phase anomalies).
    pub observed: f64,
    /// The baseline it was judged against (same unit as `observed`).
    pub baseline: f64,
    /// Human-readable evidence line (no commas; CSV-safe).
    pub evidence: String,
}

/// One segmented I/O phase of a job: a maximal run of windows sharing
/// a dominant operation.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Phase {
    /// Dominant operation of the phase.
    pub op: String,
    /// Phase start (absolute virtual seconds, window-aligned).
    pub start: f64,
    /// Phase end so far (absolute virtual seconds, window-aligned).
    pub end: f64,
    /// Windows merged into the phase.
    pub windows: u64,
}

/// Minimum same-op events inside a window for its median to be judged
/// (thin windows still extend the history).
const MIN_WINDOW_EVENTS: usize = 3;

/// Robust-z floor for a duration outlier.
const Z_OUTLIER: f64 = 6.0;

/// A rank is a straggler at `STRAGGLER_FACTOR ×` its job's median
/// cumulative I/O time; the post-run `TRC008` lint uses the same factor.
pub const STRAGGLER_FACTOR: f64 = 3.0;

/// Minimum ranks seen in a job before straggler detection engages (and
/// before `TRC008` is considered).
pub const STRAGGLER_MIN_RANKS: usize = 4;

/// Median cumulative I/O time (seconds) required before rank ratios
/// are judged — keeps the first instants of a job quiet.
const STRAGGLER_MIN_MEDIAN_S: f64 = 0.01;

/// Writes strictly shorter than this are "tiny" (bytes).
pub const TINY_WRITE_LEN: i64 = 4096;

/// Offset alignment boundary (bytes).
pub const ALIGNMENT: i64 = 4096;

/// Minimum writes before a tiny-write finding is judged: by one rank
/// in one window here, tiny unaligned ones per file for `TRC007`.
pub const TINY_WRITE_MIN: usize = 8;

/// Tiny-unaligned fraction of a rank's window writes at which the
/// phase anomaly fires.
const TINY_WRITE_FRAC: f64 = 0.5;

/// Detection window policy.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionConfig {
    /// Width of one statistics window in virtual seconds.
    pub window_s: f64,
    /// Closed windows required in an operation's baseline history
    /// before duration outliers can fire (the warm-up budget).
    pub baseline_min_windows: usize,
    /// Multiplicative floor for a duration outlier: the window median
    /// must also exceed `outlier_factor ×` the baseline median, so a
    /// spread-free baseline cannot alert on microscopic jitter.
    pub outlier_factor: f64,
}

impl Default for DetectionConfig {
    fn default() -> Self {
        Self {
            window_s: 10.0,
            baseline_min_windows: 3,
            outlier_factor: 3.0,
        }
    }
}

impl DetectionConfig {
    /// Sets the window width.
    #[must_use]
    pub fn with_window_s(mut self, window_s: f64) -> Self {
        self.window_s = window_s;
        self
    }

    /// Sets the duration-outlier multiplicative floor.
    #[must_use]
    pub fn with_outlier_factor(mut self, factor: f64) -> Self {
        self.outlier_factor = factor;
        self
    }
}

/// Per-(job, window) accumulators, reset at every window close.
#[derive(Debug, Default)]
struct WindowAccum {
    /// Durations per op (`read`/`write` only).
    durs: BTreeMap<String, Vec<f64>>,
    /// I/O time per rank.
    rank_time: BTreeMap<u64, f64>,
    /// Per rank: (writes, tiny unaligned writes).
    writes: BTreeMap<u64, (u64, u64)>,
    /// Event count per op (all ops; drives phase segmentation).
    ops: BTreeMap<String, u64>,
}

impl WindowAccum {
    fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Per-job rolling state.
#[derive(Debug)]
struct JobState {
    /// First observed event end (window origin).
    t0: f64,
    /// Index of the currently open window.
    window: u64,
    accum: WindowAccum,
    /// Closed-window `(window index, duration median)` per op, in
    /// close order.
    med_history: BTreeMap<String, Vec<(u64, f64)>>,
    /// Cumulative I/O time per rank over all closed windows.
    cum_rank_time: BTreeMap<u64, f64>,
    /// Segmented phases so far.
    phases: Vec<Phase>,
    /// Ops already flagged as duration outliers (one episode each).
    outlier_flagged: BTreeSet<String>,
    /// Ranks already flagged as stragglers.
    straggler_flagged: BTreeSet<u64>,
    /// Ranks already flagged for tiny-write phases.
    tiny_flagged: BTreeSet<u64>,
}

impl JobState {
    fn new(t0: f64) -> Self {
        Self {
            t0,
            window: 0,
            accum: WindowAccum::default(),
            med_history: BTreeMap::new(),
            cum_rank_time: BTreeMap::new(),
            phases: Vec::new(),
            outlier_flagged: BTreeSet::new(),
            straggler_flagged: BTreeSet::new(),
            tiny_flagged: BTreeSet::new(),
        }
    }
}

/// The streaming detection engine. Feed events in non-decreasing
/// `end` order via [`OnlineDetector::observe`]; collect detections as
/// they are emitted or all at once from [`OnlineDetector::finish`].
#[derive(Debug)]
pub struct OnlineDetector {
    cfg: DetectionConfig,
    jobs: BTreeMap<u64, JobState>,
    /// Closed-window medians per op across every job — the fleet
    /// baseline that catches a job which is anomalous from its first
    /// window (no within-job calm history to compare against).
    fleet_meds: BTreeMap<String, Vec<f64>>,
    /// Global virtual-time watermark: any job's open window closes
    /// once the watermark passes its end, so a quiet job's statistics
    /// join the fleet baseline while other jobs are still running.
    watermark: f64,
    /// The earliest instant any open window closes at (see
    /// [`close_instant`]): below it, [`OnlineDetector::advance`] has
    /// nothing to do. `-∞` until the next full scan recomputes it.
    next_close: f64,
    detections: Vec<DiagnosticEvent>,
    events: u64,
    /// Events that arrived behind the per-job window watermark (folded
    /// into the open window; nonzero only for unsorted feeds).
    late: u64,
}

impl OnlineDetector {
    /// Creates an engine with the given thresholds.
    pub fn new(cfg: DetectionConfig) -> Self {
        assert!(cfg.window_s > 0.0, "window width must be positive");
        Self {
            cfg,
            jobs: BTreeMap::new(),
            fleet_meds: BTreeMap::new(),
            watermark: f64::NEG_INFINITY,
            next_close: f64::NEG_INFINITY,
            detections: Vec::new(),
            events: 0,
            late: 0,
        }
    }

    /// Total events observed.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Events that arrived behind their job's window watermark.
    pub fn late_events(&self) -> u64 {
        self.late
    }

    /// Detections emitted so far, in emission order.
    pub fn detections(&self) -> &[DiagnosticEvent] {
        &self.detections
    }

    /// Feeds one event. Events should arrive in non-decreasing `end`
    /// order; an event behind its job's open window is folded into
    /// that window and counted in [`OnlineDetector::late_events`].
    pub fn observe(&mut self, e: &OnlineEvent) {
        if !e.end.is_finite() || !e.dur.is_finite() || e.dur < 0.0 {
            return; // impossible rows are the trace lints' business
        }
        self.events += 1;
        self.watermark = self.watermark.max(e.end);
        if let btree_map::Entry::Vacant(slot) = self.jobs.entry(e.job_id) {
            slot.insert(JobState::new(e.end));
            self.next_close = f64::NEG_INFINITY; // the new window joins the gate
        }
        self.advance();
        let window_s = self.cfg.window_s;
        let job = self.jobs.get_mut(&e.job_id).expect("job state exists");
        if window_index(e.end, job.t0, window_s) < job.window {
            self.late += 1;
        }
        let a = &mut job.accum;
        let op = e.op.as_ref();
        *slot(&mut a.ops, op) += 1;
        if op == "read" || op == "write" {
            slot(&mut a.durs, op).push(e.dur);
            *a.rank_time.entry(e.rank).or_default() += e.dur;
        }
        if op == "write" {
            let w = a.writes.entry(e.rank).or_default();
            w.0 += 1;
            if e.len >= 0 && e.len < TINY_WRITE_LEN && e.off >= 0 && e.off % ALIGNMENT != 0 {
                w.1 += 1;
            }
        }
    }

    /// Closes every open window and returns all detections, sorted by
    /// (onset, job, kind, rank, op) for deterministic reporting.
    /// Idempotent: a second call closes nothing further.
    pub fn finish(&mut self) -> Vec<DiagnosticEvent> {
        let jobs: Vec<u64> = self.jobs.keys().copied().collect();
        for job_id in jobs {
            if !self.jobs[&job_id].accum.is_empty() {
                self.close_window(job_id);
            }
        }
        self.next_close = f64::NEG_INFINITY;
        let mut out = self.detections.clone();
        out.sort_by(report_order);
        out
    }

    /// Closes every window the global watermark has passed, in job-id
    /// order. A job with an empty open window jumps straight to the
    /// watermark's window (idle windows carry no evidence). Below
    /// `next_close` no window has been passed, so the scan is skipped.
    fn advance(&mut self) {
        if self.watermark < self.next_close {
            return;
        }
        let window_s = self.cfg.window_s;
        let ids: Vec<u64> = self.jobs.keys().copied().collect();
        for id in ids {
            loop {
                let job = &self.jobs[&id];
                let target = window_index(self.watermark, job.t0, window_s);
                if job.window >= target {
                    break;
                }
                if job.accum.is_empty() {
                    self.jobs.get_mut(&id).expect("job state exists").window = target;
                } else {
                    self.close_window(id);
                }
            }
        }
        self.next_close = self
            .jobs
            .values()
            .map(|job| close_instant(job.t0, job.window, window_s))
            .fold(f64::INFINITY, f64::min);
    }

    /// Closes one job's open window: judges it, extends the
    /// histories, and advances the window index.
    fn close_window(&mut self, job_id: u64) {
        let cfg = self.cfg.clone();
        let job = self.jobs.get_mut(&job_id).expect("job state exists");
        let accum = std::mem::take(&mut job.accum);
        let w = job.window;
        job.window += 1;
        if accum.is_empty() {
            return; // an idle window carries no evidence either way
        }
        let w_start = job.t0 + w as f64 * cfg.window_s;
        let w_end = w_start + cfg.window_s;

        // Phase segmentation: dominant op of the window extends or
        // opens a phase (ties break lexicographically — deterministic).
        let dominant = accum
            .ops
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(a.0)))
            .map(|(op, _)| op.clone())
            .expect("non-empty window");
        match job.phases.last_mut() {
            Some(p) if p.op == dominant => {
                p.end = w_end;
                p.windows += 1;
            }
            _ => job.phases.push(Phase {
                op: dominant.clone(),
                start: w_start,
                end: w_end,
                windows: 1,
            }),
        }

        // Duration outliers: window median per op against the rolling
        // baseline (within-job history, widened to the fleet history
        // while the job is still warming up).
        for (op, durs) in &accum.durs {
            let m = median(durs).expect("non-empty duration set");
            let within = job.med_history.get(op).map_or(&[][..], Vec::as_slice);
            let within_vals: Vec<f64> = within.iter().map(|&(_, v)| v).collect();
            let fleet = self.fleet_meds.get(op).map_or(&[][..], Vec::as_slice);
            let hist = if within_vals.len() >= cfg.baseline_min_windows {
                within_vals.as_slice()
            } else {
                fleet
            };
            if durs.len() >= MIN_WINDOW_EVENTS
                && hist.len() >= cfg.baseline_min_windows
                && !job.outlier_flagged.contains(op)
            {
                let base_med = median(hist).expect("non-empty history");
                let base_mad = mad(hist).expect("non-empty history");
                let z = robust_z(m, base_med, base_mad);
                if z >= Z_OUTLIER && base_med > 0.0 && m >= cfg.outlier_factor * base_med {
                    job.outlier_flagged.insert(op.clone());
                    // Onset: where the within-job median series breaks
                    // regime (the shared change-point kernel); the
                    // current window's start when the job has no calm
                    // prefix to break from.
                    let mut series = within_vals;
                    series.push(m);
                    let onset_window = change_point(&series, 1, Z_OUTLIER).map_or(w, |cp| {
                        if cp.index < within.len() {
                            within[cp.index].0
                        } else {
                            w
                        }
                    });
                    let onset = job.t0 + onset_window as f64 * cfg.window_s;
                    let ratio = m / base_med;
                    let severity = if ratio >= 2.0 * cfg.outlier_factor {
                        DetectionSeverity::Critical
                    } else {
                        DetectionSeverity::Warning
                    };
                    self.detections.push(DiagnosticEvent {
                        kind: AnomalyKind::DurationOutlier,
                        severity,
                        job_id,
                        rank: None,
                        op: op.clone(),
                        onset,
                        detected_at: w_end,
                        observed: m,
                        baseline: base_med,
                        evidence: format!(
                            "window `{op}` median {m:.6}s is {ratio:.1}x the rolling baseline \
                             {base_med:.6}s (robust z {z:.1}; {} ops in window)",
                            durs.len()
                        ),
                    });
                }
            }
            job.med_history.entry(op.clone()).or_default().push((w, m));
            self.fleet_meds.entry(op.clone()).or_default().push(m);
        }

        // Straggler ranks: cumulative I/O time per rank against the
        // job-wide robust median (live TRC008).
        let job = self.jobs.get_mut(&job_id).expect("job state exists");
        for (rank, t) in &accum.rank_time {
            *job.cum_rank_time.entry(*rank).or_default() += t;
        }
        if job.cum_rank_time.len() >= STRAGGLER_MIN_RANKS {
            let times: Vec<f64> = job.cum_rank_time.values().copied().collect();
            let med = median(&times).expect("non-empty rank set");
            if med >= STRAGGLER_MIN_MEDIAN_S {
                let (&worst_rank, &worst) = job
                    .cum_rank_time
                    .iter()
                    .max_by(|a, b| a.1.total_cmp(b.1).then_with(|| b.0.cmp(a.0)))
                    .expect("non-empty rank set");
                if worst >= STRAGGLER_FACTOR * med && !job.straggler_flagged.contains(&worst_rank) {
                    job.straggler_flagged.insert(worst_rank);
                    let ranks = job.cum_rank_time.len();
                    let ratio = worst / med;
                    let severity = if ratio >= 2.0 * STRAGGLER_FACTOR {
                        DetectionSeverity::Critical
                    } else {
                        DetectionSeverity::Warning
                    };
                    self.detections.push(DiagnosticEvent {
                        kind: AnomalyKind::StragglerRank,
                        severity,
                        job_id,
                        rank: Some(worst_rank),
                        op: "io".to_string(),
                        onset: w_start,
                        detected_at: w_end,
                        observed: worst,
                        baseline: med,
                        evidence: format!(
                            "rank {worst_rank} cumulative I/O {worst:.6}s is {ratio:.1}x the job \
                             median {med:.6}s over {ranks} ranks"
                        ),
                    });
                }
            }
        }

        // Phase anomaly: a rank whose window writes degenerate into
        // tiny unaligned writes.
        let job = self.jobs.get_mut(&job_id).expect("job state exists");
        for (rank, &(writes, tiny)) in &accum.writes {
            if writes >= TINY_WRITE_MIN as u64 && !job.tiny_flagged.contains(rank) {
                let frac = tiny as f64 / writes as f64;
                if frac >= TINY_WRITE_FRAC {
                    job.tiny_flagged.insert(*rank);
                    let severity = if frac >= 0.9 {
                        DetectionSeverity::Critical
                    } else {
                        DetectionSeverity::Warning
                    };
                    let phase = job
                        .phases
                        .last()
                        .map_or_else(|| "?".to_string(), |p| p.op.clone());
                    self.detections.push(DiagnosticEvent {
                        kind: AnomalyKind::PhaseAnomaly,
                        severity,
                        job_id,
                        rank: Some(*rank),
                        op: "write".to_string(),
                        onset: w_start,
                        detected_at: w_end,
                        observed: frac,
                        baseline: TINY_WRITE_FRAC,
                        evidence: format!(
                            "{tiny} of {writes} writes by rank {rank} in a `{phase}` phase window \
                             are tiny (<{TINY_WRITE_LEN} B) and unaligned (to {ALIGNMENT} B)"
                        ),
                    });
                }
            }
        }
    }
}

/// `map[key]`, inserted as the default when absent: only a key's first
/// use in a map allocates it.
fn slot<'a, V: Default>(map: &'a mut BTreeMap<String, V>, key: &str) -> &'a mut V {
    if !map.contains_key(key) {
        map.insert(key.to_string(), V::default());
    }
    map.get_mut(key).expect("slot exists")
}

/// The window an instant `t` falls in, for a job whose windows start
/// at `t0`. The cast saturates, so instants before `t0` fall in
/// window 0.
fn window_index(t: f64, t0: f64, window_s: f64) -> u64 {
    ((t - t0) / window_s).floor() as u64
}

/// The smallest watermark whose [`window_index`] passes `window`: the
/// instant that window closes. It steps from the nominal
/// `t0 + (window + 1) · window_s` to the float where the formula
/// itself flips (it is monotone in the watermark), so a gate on this
/// instant closes every window at the event the full scan would.
/// Returns `-∞`, no gate, when the flip is not a positive finite float
/// within a few ulps of the nominal instant.
fn close_instant(t0: f64, window: u64, window_s: f64) -> f64 {
    let passed = |t: f64| window_index(t, t0, window_s) > window;
    let mut t = t0 + (window + 1) as f64 * window_s;
    // Positive finite floats order like their bits: ±1 is one ulp.
    for _ in 0..64 {
        if !(t.is_finite() && t > 0.0) {
            break;
        }
        let below = f64::from_bits(t.to_bits() - 1);
        match (passed(below), passed(t)) {
            (false, true) => return t,
            (true, _) => t = below,
            (false, false) => t = f64::from_bits(t.to_bits() + 1),
        }
    }
    f64::NEG_INFINITY
}

/// The order [`OnlineDetector::finish`] reports detections in:
/// (onset, job, kind, rank, op).
pub fn report_order(a: &DiagnosticEvent, b: &DiagnosticEvent) -> std::cmp::Ordering {
    a.onset
        .total_cmp(&b.onset)
        .then_with(|| a.job_id.cmp(&b.job_id))
        .then_with(|| a.kind.cmp(&b.kind))
        .then_with(|| a.rank.cmp(&b.rank))
        .then_with(|| a.op.cmp(&b.op))
}

/// Renders detections as a deterministic CSV (one line per detection,
/// stable column order) — the machine-readable detection report the
/// golden tests pin.
pub fn report_csv(detections: &[DiagnosticEvent]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from(
        "kind,severity,job_id,rank,op,onset_s,detected_s,observed,baseline,evidence\n",
    );
    for d in detections {
        let rank = d.rank.map_or_else(|| "-".to_string(), |r| r.to_string());
        let _ = writeln!(
            out,
            "{},{},{},{},{},{:.3},{:.3},{:.6},{:.6},{}",
            d.kind.as_str(),
            d.severity.as_str(),
            d.job_id,
            rank,
            d.op,
            d.onset,
            d.detected_at,
            d.observed,
            d.baseline,
            d.evidence
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(job: u64, rank: u64, op: &str, dur: f64, end: f64) -> OnlineEvent {
        OnlineEvent {
            job_id: job,
            rank,
            op: op_name(op),
            file: "/scratch/out.dat".to_string(),
            len: 4 << 20,
            off: 0,
            dur,
            end,
        }
    }

    fn cfg() -> DetectionConfig {
        DetectionConfig {
            window_s: 10.0,
            ..DetectionConfig::default()
        }
    }

    /// A calm job: 4 ranks, steady writes then reads.
    fn calm_events(job: u64, t0: f64) -> Vec<OnlineEvent> {
        let mut out = Vec::new();
        for w in 0..8u64 {
            for i in 0..4u64 {
                for rank in 0..4u64 {
                    let t = t0 + w as f64 * 10.0 + i as f64 * 2.0 + rank as f64 * 0.1;
                    out.push(ev(job, rank, "write", 0.10 + 0.001 * (i % 3) as f64, t));
                }
            }
        }
        for i in 0..8u64 {
            for rank in 0..4u64 {
                let t = t0 + 80.0 + i as f64 * 1.0 + rank as f64 * 0.1;
                out.push(ev(job, rank, "read", 0.05, t));
            }
        }
        out
    }

    #[test]
    fn calm_job_emits_nothing_and_segments_phases() {
        let mut d = OnlineDetector::new(cfg());
        for e in calm_events(1, 1000.0) {
            d.observe(&e);
        }
        assert!(d.finish().is_empty());
        let phases = &d.jobs[&1].phases;
        // Write phase then read phase, recovered from op transitions.
        assert_eq!(phases.len(), 2, "phases: {phases:?}");
        assert_eq!(phases[0].op, "write");
        assert_eq!(phases[0].windows, 8);
        assert_eq!(phases[1].op, "read");
    }

    #[test]
    fn mid_run_slowdown_fires_duration_outlier_with_onset_at_the_shift() {
        let mut d = OnlineDetector::new(cfg());
        // 5 calm write windows, then writes slow 5x from t=1050.
        for w in 0..10u64 {
            for i in 0..4u64 {
                for rank in 0..4u64 {
                    let t = 1000.0 + w as f64 * 10.0 + i as f64 * 2.0 + rank as f64 * 0.1;
                    let dur = if t >= 1050.0 {
                        0.5
                    } else {
                        0.1 + 0.001 * (i % 3) as f64
                    };
                    d.observe(&ev(1, rank, "write", dur, t));
                }
            }
        }
        let dets = d.finish();
        let out: Vec<&DiagnosticEvent> = dets
            .iter()
            .filter(|d| d.kind == AnomalyKind::DurationOutlier)
            .collect();
        assert_eq!(out.len(), 1, "one episode, one alert: {dets:?}");
        let o = out[0];
        assert_eq!(o.job_id, 1);
        assert_eq!(o.op, "write");
        assert!((o.onset - 1050.0).abs() < 1e-9, "onset {}", o.onset);
        assert!(o.observed > o.baseline * 3.0);
        assert!(o.detected_at >= 1050.0);
    }

    #[test]
    fn anomalous_from_the_start_is_caught_by_the_fleet_baseline() {
        let mut d = OnlineDetector::new(cfg());
        // Two calm jobs build the fleet read baseline...
        for e in calm_events(1, 1000.0) {
            d.observe(&e);
        }
        for e in calm_events(2, 3000.0) {
            d.observe(&e);
        }
        // ...then job 3's reads are 100x slow from its first window
        // (the Figures 7–9 job-302 signature).
        for i in 0..16u64 {
            for rank in 0..4u64 {
                let t = 5000.0 + i as f64 * 2.0 + rank as f64 * 0.1;
                d.observe(&ev(3, rank, "read", 5.0, t));
            }
        }
        let dets = d.finish();
        let hit = dets
            .iter()
            .find(|d| d.kind == AnomalyKind::DurationOutlier && d.job_id == 3)
            .expect("fleet baseline catches job 3");
        assert_eq!(hit.op, "read");
        assert_eq!(hit.severity, DetectionSeverity::Critical);
        assert!(dets.iter().all(|d| d.job_id == 3), "calm jobs stay clean");
    }

    #[test]
    fn straggler_rank_is_flagged_once_with_rank_evidence() {
        let mut d = OnlineDetector::new(cfg());
        for w in 0..6u64 {
            for i in 0..4u64 {
                for rank in 0..4u64 {
                    let t = 1000.0 + w as f64 * 10.0 + i as f64 * 2.0 + rank as f64 * 0.1;
                    let dur = if rank == 2 { 0.8 } else { 0.1 };
                    d.observe(&ev(1, rank, "write", dur, t));
                }
            }
        }
        let dets = d.finish();
        let stragglers: Vec<&DiagnosticEvent> = dets
            .iter()
            .filter(|d| d.kind == AnomalyKind::StragglerRank)
            .collect();
        assert_eq!(stragglers.len(), 1, "{dets:?}");
        assert_eq!(stragglers[0].rank, Some(2));
        assert!(stragglers[0].observed > 3.0 * stragglers[0].baseline);
        assert!(stragglers[0].evidence.contains("rank 2"));
    }

    #[test]
    fn tiny_unaligned_writes_fire_the_phase_anomaly() {
        let mut d = OnlineDetector::new(cfg());
        for i in 0..20u64 {
            for rank in 0..4u64 {
                let t = 1000.0 + i as f64 * 0.4 + rank as f64 * 0.05;
                let mut e = ev(1, rank, "write", 0.01, t);
                if rank == 1 {
                    e.len = 512;
                    e.off = 4096 * i as i64 + 17;
                }
                d.observe(&e);
            }
        }
        let dets = d.finish();
        let hit = dets
            .iter()
            .find(|d| d.kind == AnomalyKind::PhaseAnomaly)
            .expect("tiny writes flagged");
        assert_eq!(hit.rank, Some(1));
        assert_eq!(hit.severity, DetectionSeverity::Critical);
        assert!(hit.observed >= 0.9);
        assert!(hit.evidence.contains("unaligned"));
        // Aligned bulk writers stay clean.
        assert!(dets
            .iter()
            .all(|d| d.kind != AnomalyKind::PhaseAnomaly || d.rank == Some(1)));
    }

    #[test]
    fn impossible_rows_and_late_events_are_tolerated() {
        let mut d = OnlineDetector::new(cfg());
        let mut bad = ev(1, 0, "write", f64::NAN, 1000.0);
        d.observe(&bad);
        bad.dur = -1.0;
        d.observe(&bad);
        assert_eq!(d.events(), 0);
        d.observe(&ev(1, 0, "write", 0.1, 1000.0));
        d.observe(&ev(1, 0, "write", 0.1, 1030.0)); // advances the window
        d.observe(&ev(1, 0, "write", 0.1, 1005.0)); // behind the watermark
        assert_eq!(d.events(), 3);
        assert_eq!(d.late_events(), 1);
        assert!(d.finish().is_empty());
    }

    #[test]
    fn report_csv_is_deterministic_and_ordered() {
        let mut d = OnlineDetector::new(cfg());
        for e in calm_events(1, 1000.0) {
            d.observe(&e);
        }
        for e in calm_events(2, 3000.0) {
            d.observe(&e);
        }
        for i in 0..16u64 {
            for rank in 0..4u64 {
                let t = 5000.0 + i as f64 * 2.0 + rank as f64 * 0.1;
                d.observe(&ev(3, rank, "read", 5.0, t));
            }
        }
        let dets = d.finish();
        assert!(!dets.is_empty());
        let csv = report_csv(&dets);
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "kind,severity,job_id,rank,op,onset_s,detected_s,observed,baseline,evidence"
        );
        let body: Vec<&str> = lines.collect();
        assert_eq!(body.len(), dets.len());
        assert!(body[0].starts_with("duration-outlier,"));
        // Every line has the full column arity (evidence is comma-free).
        for l in &body {
            assert_eq!(l.split(',').count(), 10, "line {l}");
        }
        // Byte-stable across a replay.
        let mut d2 = OnlineDetector::new(cfg());
        for e in calm_events(1, 1000.0) {
            d2.observe(&e);
        }
        for e in calm_events(2, 3000.0) {
            d2.observe(&e);
        }
        for i in 0..16u64 {
            for rank in 0..4u64 {
                let t = 5000.0 + i as f64 * 2.0 + rank as f64 * 0.1;
                d2.observe(&ev(3, rank, "read", 5.0, t));
            }
        }
        assert_eq!(report_csv(&d2.finish()), csv);
    }

    /// Observes `e` with the close gate forgotten first, so `advance`
    /// runs its full scan on every event: the gate's reference.
    fn observe_scanning(d: &mut OnlineDetector, e: &OnlineEvent) {
        d.next_close = f64::NEG_INFINITY;
        d.observe(e);
    }

    /// What a window close changes: each job's open window and the
    /// detections so far.
    fn close_state(d: &OnlineDetector) -> (Vec<(u64, u64)>, usize) {
        let windows = d.jobs.iter().map(|(&id, j)| (id, j.window)).collect();
        (windows, d.detections.len())
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The gated engine closes every window at the same event as
        /// one that scans on every event, including events that end
        /// exactly on a window boundary `t0 + k·window_s` or a few ulps
        /// either side of it, with several jobs whose windows are out
        /// of phase, fed in time order or not.
        #[test]
        fn the_close_gate_closes_windows_where_the_full_scan_does(
            width in 0usize..3,
            origin in 0usize..3,
            stream in proptest::collection::vec(
                ((0u64..3, 0u64..5), (0u64..40, any::<bool>(), -2i64..3), (0usize..3, 1u32..400)),
                1..160,
            ),
            time_order in any::<bool>(),
        ) {
            let window_s = [0.1, 1.0 / 3.0, 10.0][width];
            let base = [0.3, 1_000.0, 1.65e9][origin];
            let t0 = |job: u64| base + 7.3 * job as f64;
            // Each job's first event fixes its `t0`.
            let mut events: Vec<OnlineEvent> =
                (0..3).map(|job| ev(job, 0, "write", 0.01, t0(job))).collect();
            for &((job, rank), (k, mid, ulps), (op, dur)) in &stream {
                let end = if mid {
                    t0(job) + (k as f64 + 0.5) * window_s
                } else {
                    let edge = t0(job) + k as f64 * window_s;
                    f64::from_bits(edge.to_bits().wrapping_add_signed(ulps))
                };
                let op = ["read", "write", "open"][op];
                events.push(ev(job, rank, op, 1e-3 * f64::from(dur), end));
            }
            if time_order {
                events.sort_by(|a, b| a.end.total_cmp(&b.end));
            }
            let cfg = DetectionConfig {
                window_s,
                baseline_min_windows: 2,
                ..DetectionConfig::default()
            };
            let mut gated = OnlineDetector::new(cfg.clone());
            let mut scanning = OnlineDetector::new(cfg);
            for e in &events {
                gated.observe(e);
                observe_scanning(&mut scanning, e);
                prop_assert_eq!(close_state(&gated), close_state(&scanning));
            }
            prop_assert_eq!(gated.late_events(), scanning.late_events());
            prop_assert_eq!(gated.finish(), scanning.finish());
            prop_assert_eq!(format!("{:?}", gated.jobs), format!("{:?}", scanning.jobs));
        }
    }
}
