//! Statistics used by the evaluation harness.
//!
//! The paper reports means over five repetitions, 95% confidence
//! intervals (Figure 5), and percent overhead between Darshan-only and
//! connector runs (Table II). These helpers implement exactly those.

/// Summary statistics over a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n-1 denominator); 0 for n < 2.
    pub stddev: f64,
    /// Minimum observation.
    pub min: f64,
    /// Maximum observation.
    pub max: f64,
}

impl Summary {
    /// Computes summary statistics; returns `None` for an empty sample.
    pub fn of(sample: &[f64]) -> Option<Self> {
        if sample.is_empty() {
            return None;
        }
        let n = sample.len();
        let mean = sample.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            sample.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        for &x in sample {
            min = min.min(x);
            max = max.max(x);
        }
        Some(Summary {
            n,
            mean,
            stddev: var.sqrt(),
            min,
            max,
        })
    }

    /// Half-width of the 95% confidence interval around the mean using
    /// the Student t distribution (as in the paper's Figure 5 error
    /// bars, which use n = 5 jobs).
    pub fn ci95_half_width(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let t = t_critical_95(self.n - 1);
        t * self.stddev / (self.n as f64).sqrt()
    }
}

/// Two-sided 95% critical value of Student's t for `dof` degrees of
/// freedom. Table values for small dof (the harness uses 4), with the
/// normal approximation beyond the table.
pub(crate) fn t_critical_95(dof: usize) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    match dof {
        0 => f64::INFINITY,
        d if d <= TABLE.len() => TABLE[d - 1],
        d if d <= 120 => 1.96 + 2.54 / d as f64, // smooth tail toward the normal limit
        _ => 1.96,
    }
}

/// Percent overhead of `with` relative to `baseline`, as the paper
/// computes it for Table II: `(with - baseline) / baseline * 100`.
///
/// Negative values mean the instrumented run was *faster*, which the
/// paper observed (and attributed to file-system weather between the two
/// measurement campaigns).
pub fn percent_overhead(baseline: f64, with: f64) -> f64 {
    if baseline == 0.0 {
        return 0.0;
    }
    (with - baseline) / baseline * 100.0
}

/// Mean of a sample (0 for an empty one) — convenience for hot paths
/// that already know the sample is non-empty.
pub fn mean(sample: &[f64]) -> f64 {
    if sample.is_empty() {
        0.0
    } else {
        sample.iter().sum::<f64>() / sample.len() as f64
    }
}

/// Median of a sample; `None` when empty. Sorts a copy.
pub fn median(sample: &[f64]) -> Option<f64> {
    if sample.is_empty() {
        return None;
    }
    let mut v = sample.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Median absolute deviation of a sample (unscaled); `None` when
/// empty. The robust spread estimator the run-time anomaly detector
/// and the figure analyses share: unlike the standard deviation, one
/// wild outlier (the very thing being hunted) barely moves it.
pub fn mad(sample: &[f64]) -> Option<f64> {
    let m = median(sample)?;
    let dev: Vec<f64> = sample.iter().map(|x| (x - m).abs()).collect();
    median(&dev)
}

/// Consistency constant making `1.4826 × MAD` estimate the standard
/// deviation of normally distributed data, so robust z-scores read on
/// the familiar sigma scale.
pub(crate) const MAD_SIGMA: f64 = 1.4826;

/// Robust z-score of `x` against a `(median, mad)` baseline:
/// `(x - median) / (MAD_SIGMA * mad)`. A degenerate baseline
/// (`mad == 0`, e.g. a perfectly regular workload) returns `0.0` when
/// `x` equals the median and `f64::INFINITY` (signed) otherwise — any
/// deviation from a spread-free baseline is infinitely surprising.
pub fn robust_z(x: f64, median: f64, mad: f64) -> f64 {
    let d = x - median;
    if mad > 0.0 {
        d / (MAD_SIGMA * mad)
    } else if d == 0.0 {
        0.0
    } else {
        d.signum() * f64::INFINITY
    }
}

/// A detected level shift in a series: the series behaves like
/// `before` up to (excluding) `index` and like `after` from `index`
/// on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChangePoint {
    /// First index of the post-shift regime.
    pub index: usize,
    /// Median of the pre-shift segment.
    pub before: f64,
    /// Median of the post-shift segment.
    pub after: f64,
    /// Robust z-score of the shift: `|after - before|` over the
    /// pre-shift segment's scaled MAD.
    pub score: f64,
}

/// Scans a series for a single level shift (the "slowdown after
/// 250 s" onset) by a least-absolute-deviation two-segment fit: every
/// split with at least `min_segment` points on each side is costed by
/// the summed absolute deviation of each segment around its own
/// median, and the cheapest split (earliest on ties) is the candidate
/// regime boundary. The candidate is returned only when the
/// segment-median jump scores at least `min_score` robust-z units
/// against the pre-shift spread — jitter without a shift fits one
/// regime about as well as two and never clears the score floor.
pub fn change_point(series: &[f64], min_segment: usize, min_score: f64) -> Option<ChangePoint> {
    let min_segment = min_segment.max(1);
    if series.len() < 2 * min_segment {
        return None;
    }
    let sad = |seg: &[f64]| -> f64 {
        let m = median(seg).expect("non-empty segment");
        seg.iter().map(|x| (x - m).abs()).sum()
    };
    let mut best: Option<(f64, usize)> = None;
    for k in min_segment..=(series.len() - min_segment) {
        let (head, tail) = series.split_at(k);
        let cost = sad(head) + sad(tail);
        if best.is_none_or(|(c, _)| cost < c) {
            best = Some((cost, k));
        }
    }
    let (_, k) = best.expect("at least one valid split");
    let (head, tail) = series.split_at(k);
    let before = median(head).expect("non-empty head");
    let after = median(tail).expect("non-empty tail");
    let spread = mad(head).expect("non-empty head");
    let score = robust_z(after, before, spread).abs();
    (score >= min_score).then_some(ChangePoint {
        index: k,
        before,
        after,
        score,
    })
}

/// Pearson correlation coefficient of two equal-length samples;
/// `None` when shorter than 2 or degenerate (zero variance). Used by
/// the I/O-vs-system-telemetry correlation analysis.
pub fn pearson(x: &[f64], y: &[f64]) -> Option<f64> {
    if x.len() != y.len() || x.len() < 2 {
        return None;
    }
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&a, &b) in x.iter().zip(y) {
        sxy += (a - mx) * (b - my);
        sxx += (a - mx) * (a - mx);
        syy += (b - my) * (b - my);
    }
    if sxx <= 0.0 || syy <= 0.0 {
        return None;
    }
    Some(sxy / (sxx * syy).sqrt())
}

/// Linear histogram with fixed-width bins over `[lo, hi)`.
///
/// Used by the Figure 8/9 analyses to bucket operation timestamps into
/// time bins.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    /// Sum of weights per bin (e.g. bytes), parallel to `counts`.
    weights: Vec<f64>,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins spanning
    /// `[lo, hi)`. `bins` must be non-zero and `hi > lo`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(hi > lo, "histogram range must be non-empty");
        Self {
            lo,
            hi,
            counts: vec![0; bins],
            weights: vec![0.0; bins],
        }
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Width of one bin.
    pub(crate) fn bin_width(&self) -> f64 {
        (self.hi - self.lo) / self.counts.len() as f64
    }

    /// Left edge of bin `i`.
    pub fn bin_start(&self, i: usize) -> f64 {
        self.lo + self.bin_width() * i as f64
    }

    /// Adds an observation at `x` with weight `w`. Out-of-range
    /// observations clamp to the first/last bin (the analyses always
    /// construct the range from observed min/max so this only absorbs
    /// floating-point edge effects).
    pub fn add(&mut self, x: f64, w: f64) {
        let idx = ((x - self.lo) / self.bin_width()).floor();
        let idx = (idx.max(0.0) as usize).min(self.counts.len() - 1);
        self.counts[idx] += 1;
        self.weights[idx] += w;
    }

    /// Count of observations per bin.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Summed weights per bin.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.n, 5);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert!((s.stddev - (2.5f64).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
    }

    #[test]
    fn summary_empty_is_none() {
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn summary_single_has_zero_spread() {
        let s = Summary::of(&[7.0]).unwrap();
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.ci95_half_width(), 0.0);
    }

    #[test]
    fn ci95_matches_hand_computation_for_n5() {
        // n=5 -> dof=4 -> t=2.776
        let s = Summary::of(&[10.0, 12.0, 11.0, 9.0, 13.0]).unwrap();
        let expect = 2.776 * s.stddev / 5f64.sqrt();
        assert!((s.ci95_half_width() - expect).abs() < 1e-12);
    }

    #[test]
    fn t_table_monotone_decreasing() {
        let mut prev = f64::INFINITY;
        for dof in 1..100 {
            let t = t_critical_95(dof);
            assert!(t <= prev + 1e-9, "t should not increase with dof");
            prev = t;
        }
        assert!((t_critical_95(1000) - 1.96).abs() < 1e-9);
    }

    #[test]
    fn overhead_signs() {
        assert!((percent_overhead(100.0, 108.41) - 8.41).abs() < 1e-9);
        assert!(percent_overhead(100.0, 90.0) < 0.0);
        assert_eq!(percent_overhead(0.0, 5.0), 0.0);
    }

    #[test]
    fn median_even_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn mad_matches_hand_computation() {
        // median = 3, |dev| = [2,1,0,1,2] → median = 1.
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 5.0]), Some(1.0));
        // median = 2.5, |dev| = [1.5,0.5,0.5,1.5] → median = 1.0.
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0]), Some(1.0));
        // One wild outlier barely moves it: median = 3, |dev| =
        // [2,1,0,1,997] → median = 1.
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 1000.0]), Some(1.0));
        assert_eq!(mad(&[]), None);
        assert_eq!(mad(&[7.0]), Some(0.0));
    }

    #[test]
    fn robust_z_scales_and_degenerates() {
        // (5 - 3) / (1.4826 * 1) ≈ 1.349.
        let z = robust_z(5.0, 3.0, 1.0);
        assert!((z - 2.0 / MAD_SIGMA).abs() < 1e-12);
        assert!(robust_z(1.0, 3.0, 1.0) < 0.0);
        // Spread-free baseline: equality is unremarkable, any
        // deviation is infinitely surprising.
        assert_eq!(robust_z(3.0, 3.0, 0.0), 0.0);
        assert_eq!(robust_z(9.0, 3.0, 0.0), f64::INFINITY);
        assert_eq!(robust_z(-9.0, 3.0, 0.0), f64::NEG_INFINITY);
    }

    #[test]
    fn change_point_finds_the_level_shift() {
        // Five quiet points, then five slow ones: the shift lands at
        // index 5 with before=1.0, after=6.0.
        let series = [1.0, 1.1, 0.9, 1.0, 1.05, 6.0, 6.1, 5.9, 6.0, 6.2];
        let cp = change_point(&series, 2, 3.0).expect("shift detected");
        assert_eq!(cp.index, 5);
        assert!((cp.before - 1.0).abs() < 1e-9);
        assert!((cp.after - 6.0).abs() < 1e-9);
        assert!(cp.score > 3.0);
    }

    #[test]
    fn change_point_ignores_flat_and_short_series() {
        assert_eq!(change_point(&[1.0, 1.0, 1.0, 1.0, 1.0, 1.0], 2, 3.0), None);
        // Too short for two min-length segments.
        assert_eq!(change_point(&[1.0, 9.0, 9.0], 2, 3.0), None);
        // Jittery but shift-free series stays below the score floor.
        let series = [1.0, 1.2, 0.8, 1.1, 0.9, 1.0, 1.15, 0.85];
        assert_eq!(change_point(&series, 2, 6.0), None);
    }

    #[test]
    fn change_point_on_spread_free_prefix_is_infinitely_scored() {
        // A perfectly regular prefix (MAD 0) followed by a jump: the
        // earliest explaining split wins despite the infinite tie.
        let series = [2.0, 2.0, 2.0, 2.0, 8.0, 8.0, 8.0];
        let cp = change_point(&series, 2, 3.0).unwrap();
        assert_eq!(cp.index, 4);
        assert_eq!(cp.score, f64::INFINITY);
    }

    #[test]
    fn pearson_detects_linear_relations() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let up = [2.0, 4.0, 6.0, 8.0];
        let down = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&x, &up).unwrap() - 1.0).abs() < 1e-12);
        assert!((pearson(&x, &down).unwrap() + 1.0).abs() < 1e-12);
        // Degenerate cases.
        assert_eq!(pearson(&x, &[1.0, 1.0, 1.0, 1.0]), None);
        assert_eq!(pearson(&x, &x[..2]), None);
        assert_eq!(pearson(&[1.0], &[1.0]), None);
    }

    #[test]
    fn histogram_binning_and_clamping() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.add(0.0, 1.0);
        h.add(9.99, 2.0);
        h.add(-5.0, 1.0); // clamps to first bin
        h.add(42.0, 1.0); // clamps to last bin
        assert_eq!(h.counts(), &[2, 0, 0, 0, 2]);
        assert!((h.weights()[4] - 3.0).abs() < 1e-12);
        assert!((h.bin_start(1) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn histogram_rejects_zero_bins() {
        let _ = Histogram::new(0.0, 1.0, 0);
    }
}
