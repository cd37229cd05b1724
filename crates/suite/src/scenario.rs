//! Deterministic, labeled anomaly scenarios for detection testing.
//!
//! Diagnosis is only trustworthy when detection quality is measured
//! against ground truth. This module synthesizes seeded workloads in
//! the online detector's event vocabulary — straggler ranks, mid-run
//! congestion ramps, pathological tiny unaligned writes, and calm
//! controls — each carrying machine-readable [`GroundTruth`] labels
//! (anomaly class, job, rank, time window), so precision and recall
//! are computed *exactly* by [`evaluate`] and gated in CI.
//!
//! Every scenario is a pure function of its [`ScenarioConfig`]: same
//! seed, same events, same labels, byte for byte.

use hpcws_sim::online::{AnomalyKind, DiagnosticEvent, OnlineEvent};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// The anomaly classes the generator can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AnomalyClass {
    /// One rank's I/O runs a large factor slower for the whole job.
    StragglerRank,
    /// All I/O slows by a large factor from a mid-run onset instant.
    CongestionRamp,
    /// One rank's writes degenerate into tiny unaligned writes for a
    /// stretch of the write phase.
    TinyWrites,
    /// No anomaly at all — the false-positive control.
    CalmControl,
}

impl AnomalyClass {
    /// Stable kebab-case label.
    pub fn as_str(self) -> &'static str {
        match self {
            AnomalyClass::StragglerRank => "straggler-rank",
            AnomalyClass::CongestionRamp => "congestion-ramp",
            AnomalyClass::TinyWrites => "tiny-writes",
            AnomalyClass::CalmControl => "calm-control",
        }
    }

    /// The detection kind a correct detector reports for this class
    /// (`None` for the calm control — any detection is a false alarm).
    pub(crate) fn expected_kind(self) -> Option<AnomalyKind> {
        match self {
            AnomalyClass::StragglerRank => Some(AnomalyKind::StragglerRank),
            AnomalyClass::CongestionRamp => Some(AnomalyKind::DurationOutlier),
            AnomalyClass::TinyWrites => Some(AnomalyKind::PhaseAnomaly),
            AnomalyClass::CalmControl => None,
        }
    }
}

/// One labeled anomaly: what was injected, where, and when.
#[derive(Debug, Clone, PartialEq)]
pub struct GroundTruth {
    /// Injected class.
    pub class: AnomalyClass,
    /// Job the anomaly was injected into.
    pub job_id: u64,
    /// Offending rank for rank-scoped injections.
    pub rank: Option<u64>,
    /// `[start, end]` of the anomalous regime in absolute virtual
    /// seconds — a correct detection's onset falls inside it (up to
    /// the evaluation tolerance).
    pub window: (f64, f64),
}

/// Shape of one generated workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioConfig {
    /// RNG seed; every timing and jitter draw descends from it.
    pub seed: u64,
    /// Job id stamped on every event.
    pub job_id: u64,
    /// First event instant (absolute virtual seconds).
    pub t0: f64,
    /// MPI ranks (≥ 4 so straggler detection engages).
    pub ranks: u64,
    /// Statistics windows of writing before the read phase (≥ 8 so
    /// mid-run onsets have a calm prefix to break from).
    pub write_windows: u64,
    /// Statistics windows of reading after the writes (≥ 2).
    pub read_windows: u64,
    /// Width of one window in virtual seconds — match the detector's
    /// `window_s` so labels and statistics windows line up.
    pub window_s: f64,
    /// Same-op events per rank per window (≥ 3 so windows are judged).
    pub events_per_window: u64,
    /// Nominal write duration (seconds).
    pub base_write_s: f64,
    /// Nominal read duration (seconds).
    pub base_read_s: f64,
    /// Fractional duration jitter half-width (keep well under the
    /// detector's outlier factor or calm controls stop being calm).
    pub jitter: f64,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        Self {
            seed: 1,
            job_id: 900,
            t0: 1_650_000_000.0,
            ranks: 4,
            write_windows: 10,
            read_windows: 3,
            window_s: 10.0,
            events_per_window: 4,
            base_write_s: 0.1,
            base_read_s: 0.05,
            jitter: 0.05,
        }
    }
}

impl ScenarioConfig {
    /// Sets the seed.
    #[must_use]
    pub(crate) fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the job id.
    #[must_use]
    pub(crate) fn with_job_id(mut self, job_id: u64) -> Self {
        self.job_id = job_id;
        self
    }

    /// End of the workload (start of the instant after the last
    /// window).
    pub(crate) fn t_end(&self) -> f64 {
        self.t0 + (self.write_windows + self.read_windows) as f64 * self.window_s
    }
}

/// One generated workload: its events (in virtual-time order) and the
/// ground-truth labels of everything injected.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Class the scenario was built around.
    pub class: AnomalyClass,
    /// Stable name (`straggler-rank`, `congestion-ramp`, …).
    pub name: &'static str,
    /// Events in non-decreasing `end` order, ready for
    /// `OnlineDetector::observe`.
    pub events: Vec<OnlineEvent>,
    /// Machine-readable injection labels (empty for calm controls).
    pub labels: Vec<GroundTruth>,
}

/// The multiplicative slowdowns injected: far above the detector's
/// default thresholds (factor 3, z 6) so recall is a fair ask, while
/// calm jitter stays far below them so precision is too.
const STRAGGLER_FACTOR: f64 = 8.0;
const CONGESTION_FACTOR: f64 = 6.0;
/// Tiny-write burst: events per affected window (above the detector's
/// `TINY_WRITE_MIN` of 8).
const TINY_PER_WINDOW: u64 = 10;

/// Generates the labeled scenario for one anomaly class.
pub fn generate(class: AnomalyClass, cfg: &ScenarioConfig) -> Scenario {
    assert!(cfg.ranks >= 4, "straggler detection needs >= 4 ranks");
    assert!(cfg.write_windows >= 8, "mid-run onsets need a calm prefix");
    assert!(cfg.read_windows >= 2 && cfg.events_per_window >= 3);
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ (class as u64).wrapping_mul(0x9E37));

    // Anomaly placement is drawn first so the event loop below is
    // identical across classes (same number of RNG draws per event).
    let straggler_rank = rng.gen_range(0..cfg.ranks);
    let onset_w = rng.gen_range(4..cfg.write_windows - 2);
    let tiny_rank = rng.gen_range(0..cfg.ranks);
    let tiny_start_w = rng.gen_range(1..cfg.write_windows - 2);
    let tiny_span_w = 2u64;

    let onset_t = cfg.t0 + onset_w as f64 * cfg.window_s;
    let mut labels = Vec::new();
    match class {
        AnomalyClass::StragglerRank => labels.push(GroundTruth {
            class,
            job_id: cfg.job_id,
            rank: Some(straggler_rank),
            window: (cfg.t0, cfg.t_end()),
        }),
        AnomalyClass::CongestionRamp => labels.push(GroundTruth {
            class,
            job_id: cfg.job_id,
            rank: None,
            window: (onset_t, cfg.t_end()),
        }),
        AnomalyClass::TinyWrites => labels.push(GroundTruth {
            class,
            job_id: cfg.job_id,
            rank: Some(tiny_rank),
            window: (
                cfg.t0 + tiny_start_w as f64 * cfg.window_s,
                cfg.t0 + (tiny_start_w + tiny_span_w) as f64 * cfg.window_s,
            ),
        }),
        AnomalyClass::CalmControl => {}
    }

    let total_windows = cfg.write_windows + cfg.read_windows;
    let spacing = cfg.window_s / (cfg.events_per_window + 1) as f64;
    let block = 4 << 20;
    let mut events = Vec::new();
    for w in 0..total_windows {
        let reading = w >= cfg.write_windows;
        let (op, base) = if reading {
            ("read", cfg.base_read_s)
        } else {
            ("write", cfg.base_write_s)
        };
        for i in 0..cfg.events_per_window {
            for rank in 0..cfg.ranks {
                let t = cfg.t0
                    + w as f64 * cfg.window_s
                    + (i + 1) as f64 * spacing
                    + rank as f64 * 0.01;
                let mut dur = base * (1.0 + rng.gen_range(-cfg.jitter..cfg.jitter));
                if class == AnomalyClass::StragglerRank && rank == straggler_rank && !reading {
                    dur *= STRAGGLER_FACTOR;
                }
                if class == AnomalyClass::CongestionRamp && t >= onset_t {
                    dur *= CONGESTION_FACTOR;
                }
                events.push(OnlineEvent {
                    job_id: cfg.job_id,
                    rank,
                    op: op.into(),
                    file: "/scratch/scenario.dat".to_string(),
                    len: block,
                    off: block * i64::try_from(w * cfg.events_per_window + i).unwrap_or(0),
                    dur,
                    end: t,
                });
            }
        }
        // The tiny-write burst rides on top of the base workload: the
        // offending rank issues a flurry of sub-block unaligned writes
        // inside the affected windows.
        if class == AnomalyClass::TinyWrites
            && (tiny_start_w..tiny_start_w + tiny_span_w).contains(&w)
        {
            for k in 0..TINY_PER_WINDOW {
                let t = cfg.t0 + w as f64 * cfg.window_s + (k + 1) as f64 * 0.3 + 0.005;
                events.push(OnlineEvent {
                    job_id: cfg.job_id,
                    rank: tiny_rank,
                    op: "write".into(),
                    file: "/scratch/scenario.dat".to_string(),
                    len: 512,
                    off: 4096 * i64::try_from(k).unwrap_or(0) + 13,
                    dur: 0.01,
                    end: t,
                });
            }
        }
    }
    events.sort_by(|a, b| {
        a.end
            .total_cmp(&b.end)
            .then_with(|| a.rank.cmp(&b.rank))
            .then_with(|| a.op.cmp(&b.op))
    });
    Scenario {
        class,
        name: class.as_str(),
        events,
        labels,
    }
}

/// The full labeled corpus for one seed: one scenario per anomaly
/// class plus the calm control, each on its own job id.
pub fn corpus(seed: u64) -> Vec<Scenario> {
    [
        AnomalyClass::StragglerRank,
        AnomalyClass::CongestionRamp,
        AnomalyClass::TinyWrites,
        AnomalyClass::CalmControl,
    ]
    .into_iter()
    .enumerate()
    .map(|(i, class)| {
        let cfg = ScenarioConfig::default()
            .with_seed(seed.wrapping_mul(31).wrapping_add(i as u64))
            .with_job_id(900 + i as u64);
        generate(class, &cfg)
    })
    .collect()
}

/// Exact per-class detection quality against ground truth.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassQuality {
    /// Labels matched by at least one detection.
    pub true_positives: u64,
    /// Detections of the class's kind matching no label.
    pub false_positives: u64,
    /// Labels no detection matched.
    pub false_negatives: u64,
}

impl ClassQuality {
    /// Fraction of this class's detections that were justified
    /// (`1.0` when the class produced no detections at all).
    pub fn precision(&self) -> f64 {
        let dets = self.true_positives + self.false_positives;
        if dets == 0 {
            1.0
        } else {
            self.true_positives as f64 / dets as f64
        }
    }

    /// Fraction of this class's labels that were found (`1.0` when
    /// nothing was labeled).
    pub fn recall(&self) -> f64 {
        let labels = self.true_positives + self.false_negatives;
        if labels == 0 {
            1.0
        } else {
            self.true_positives as f64 / labels as f64
        }
    }

    /// Folds another tally (a different seed or scenario) into this
    /// one.
    pub fn absorb(&mut self, other: ClassQuality) {
        self.true_positives += other.true_positives;
        self.false_positives += other.false_positives;
        self.false_negatives += other.false_negatives;
    }
}

/// Whether a detection is a correct finding of a label, up to `tol`
/// seconds of onset tolerance (detections quantize onsets to window
/// starts, so allow one window of slack).
pub fn matches(d: &DiagnosticEvent, l: &GroundTruth, tol: f64) -> bool {
    l.class.expected_kind() == Some(d.kind)
        && d.job_id == l.job_id
        && (l.rank.is_none() || d.rank == l.rank)
        && d.onset >= l.window.0 - tol
        && d.onset <= l.window.1 + tol
}

/// Scores detections against labels, exactly: every label is either
/// found (some detection matches it) or missed, and every detection
/// either justifies itself against some label or is a false alarm.
/// Detections whose kind corresponds to no evaluated class are
/// counted as false positives of their own class.
pub fn evaluate(
    detections: &[DiagnosticEvent],
    labels: &[GroundTruth],
    tol: f64,
) -> BTreeMap<AnomalyClass, ClassQuality> {
    let kind_class = |k: AnomalyKind| match k {
        AnomalyKind::StragglerRank => AnomalyClass::StragglerRank,
        AnomalyKind::DurationOutlier => AnomalyClass::CongestionRamp,
        AnomalyKind::PhaseAnomaly => AnomalyClass::TinyWrites,
    };
    let mut out: BTreeMap<AnomalyClass, ClassQuality> = BTreeMap::new();
    for l in labels {
        let q = out.entry(l.class).or_default();
        if detections.iter().any(|d| matches(d, l, tol)) {
            q.true_positives += 1;
        } else {
            q.false_negatives += 1;
        }
    }
    for d in detections {
        if !labels.iter().any(|l| matches(d, l, tol)) {
            out.entry(kind_class(d.kind)).or_default().false_positives += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_are_deterministic_per_seed() {
        let cfg = ScenarioConfig::default().with_seed(42);
        let a = generate(AnomalyClass::CongestionRamp, &cfg);
        let b = generate(AnomalyClass::CongestionRamp, &cfg);
        assert_eq!(a, b);
        let c = generate(AnomalyClass::CongestionRamp, &cfg.clone().with_seed(43));
        assert_ne!(a.events, c.events, "different seed, different jitter");
    }

    #[test]
    fn corpus_covers_every_class_with_disjoint_jobs() {
        let corpus = corpus(7);
        assert_eq!(corpus.len(), 4);
        let mut jobs: Vec<u64> = corpus
            .iter()
            .flat_map(|s| s.events.iter().map(|e| e.job_id))
            .collect();
        jobs.sort_unstable();
        jobs.dedup();
        assert_eq!(jobs.len(), 4, "one job per scenario");
        let calm = corpus
            .iter()
            .find(|s| s.class == AnomalyClass::CalmControl)
            .unwrap();
        assert!(calm.labels.is_empty());
        for s in &corpus {
            assert!(s.events.windows(2).all(|w| w[0].end <= w[1].end));
            if s.class != AnomalyClass::CalmControl {
                assert_eq!(s.labels.len(), 1);
            }
        }
    }

    #[test]
    fn evaluate_scores_exactly() {
        let label = GroundTruth {
            class: AnomalyClass::CongestionRamp,
            job_id: 1,
            rank: None,
            window: (100.0, 200.0),
        };
        let det = |onset: f64| DiagnosticEvent {
            kind: AnomalyKind::DurationOutlier,
            severity: hpcws_sim::DetectionSeverity::Warning,
            job_id: 1,
            rank: None,
            op: "write".to_string(),
            onset,
            detected_at: onset + 10.0,
            observed: 0.6,
            baseline: 0.1,
            evidence: String::new(),
        };
        // Found, inside the window.
        let q = evaluate(&[det(150.0)], std::slice::from_ref(&label), 0.0);
        let cq = q[&AnomalyClass::CongestionRamp];
        assert_eq!((cq.true_positives, cq.false_positives), (1, 0));
        assert_eq!(cq.precision(), 1.0);
        assert_eq!(cq.recall(), 1.0);
        // A detection far outside the window is a false positive AND
        // the label goes unfound.
        let q = evaluate(&[det(500.0)], std::slice::from_ref(&label), 5.0);
        let cq = q[&AnomalyClass::CongestionRamp];
        assert_eq!(
            (cq.true_positives, cq.false_positives, cq.false_negatives),
            (0, 1, 1)
        );
        assert_eq!(cq.precision(), 0.0);
        assert_eq!(cq.recall(), 0.0);
        // Tolerance admits a detection quantized slightly early.
        let q = evaluate(&[det(95.0)], &[label], 10.0);
        assert_eq!(q[&AnomalyClass::CongestionRamp].recall(), 1.0);
    }
}
