//! The metric primitives: counters, gauges, log2-bucketed histograms,
//! and the per-daemon registry they live in.
//!
//! Everything here is virtual-time-native: histograms are recorded in
//! integer nanoseconds (or milliseconds, or whatever unit the family
//! name declares) taken from [`iosim_time`], never from a wall clock.
//! The primitives are lock-free atomics so the hot path pays one
//! relaxed RMW per update; the registry itself is only locked at
//! registration and render time.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing count.
#[derive(Debug, Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// A point-in-time level that can move both ways (queue depth,
/// in-flight frames).
#[derive(Debug, Default)]
pub struct Gauge {
    v: AtomicU64,
}

impl Gauge {
    /// Sets the level outright.
    pub fn set(&self, v: u64) {
        self.v.store(v, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: bucket 0 holds exactly the value 0,
/// bucket `i >= 1` holds values in `[2^(i-1), 2^i - 1]`, and the last
/// bucket additionally absorbs everything at or above `2^62` —
/// recording can never index out of range.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A fixed-shape histogram over `u64` values with log2 bucket bounds.
///
/// The bucket layout is static (no allocation, no rebinning), so
/// recording is one `leading_zeros` plus three relaxed atomic adds.
/// Quantiles are estimated as the *inclusive upper bound* of the
/// bucket the target rank falls in, clamped to the exact observed
/// maximum — a conservative (never under-reporting) estimate.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// Bucket index a value lands in (see [`HISTOGRAM_BUCKETS`]).
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Inclusive upper bound of a bucket.
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= HISTOGRAM_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// New, empty histogram.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let _ = self
            .sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                Some(cur.saturating_add(v))
            });
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of observations.
    pub(crate) fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations (saturating).
    pub(crate) fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Exact observed maximum.
    pub(crate) fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Conservative quantile estimate: the upper bound of the bucket
    /// holding the `ceil(q * count)`-th observation, clamped to the
    /// observed maximum. Returns 0 for an empty histogram; `q` is
    /// clamped to `[0, 1]`.
    pub(crate) fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return bucket_upper_bound(i).min(self.max());
            }
        }
        self.max()
    }

    /// Immutable snapshot of the distribution summary.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            max: self.max(),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
        }
    }

    /// Non-empty buckets as `(inclusive upper bound, count)`, in
    /// ascending bound order — the exposition format's `le` series.
    pub(crate) fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then(|| (bucket_upper_bound(i), n))
            })
            .collect()
    }
}

/// A point-in-time summary of one histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Observation count.
    pub count: u64,
    /// Saturating sum of observations.
    pub sum: u64,
    /// Exact observed maximum.
    pub max: u64,
    /// Conservative median estimate (bucket upper bound).
    pub p50: u64,
    /// Conservative 95th-percentile estimate (bucket upper bound).
    pub p95: u64,
}

impl HistogramSnapshot {
    /// Mean observation, or 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// One registered metric: the handle the instrumented site updates and
/// the registry renders.
#[derive(Debug, Clone)]
pub enum Metric {
    /// Monotonic counter.
    Counter(Arc<Counter>),
    /// Up/down level.
    Gauge(Arc<Gauge>),
    /// Log2-bucketed distribution.
    Histogram(Arc<Histogram>),
}

impl Metric {
    /// The exposition type keyword.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// Families of metrics keyed `family name -> daemon label -> metric`.
///
/// Get-or-create registration: two call sites asking for the same
/// `(family, daemon)` share one handle. Families are `BTreeMap`s so
/// every render is deterministically ordered.
#[derive(Debug, Default)]
pub struct MetricRegistry {
    families: Mutex<BTreeMap<String, BTreeMap<String, Metric>>>,
}

impl MetricRegistry {
    /// New, empty registry.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    fn register(&self, family: &str, daemon: &str, make: impl FnOnce() -> Metric) -> Metric {
        let mut families = self.families.lock();
        families
            .entry(family.to_string())
            .or_default()
            .entry(daemon.to_string())
            .or_insert_with(make)
            .clone()
    }

    /// Get-or-create the counter `family{daemon=...}`.
    ///
    /// # Panics
    /// If the series was already registered with a different kind.
    pub fn counter(&self, family: &str, daemon: &str) -> Arc<Counter> {
        match self.register(family, daemon, || Metric::Counter(Arc::default())) {
            Metric::Counter(c) => c,
            other => panic!("{family}{{daemon={daemon}}} is a {}", other.kind()),
        }
    }

    /// Get-or-create the gauge `family{daemon=...}`.
    ///
    /// # Panics
    /// If the series was already registered with a different kind.
    pub fn gauge(&self, family: &str, daemon: &str) -> Arc<Gauge> {
        match self.register(family, daemon, || Metric::Gauge(Arc::default())) {
            Metric::Gauge(g) => g,
            other => panic!("{family}{{daemon={daemon}}} is a {}", other.kind()),
        }
    }

    /// Get-or-create the histogram `family{daemon=...}`.
    ///
    /// # Panics
    /// If the series was already registered with a different kind.
    pub fn histogram(&self, family: &str, daemon: &str) -> Arc<Histogram> {
        match self.register(family, daemon, || Metric::Histogram(Arc::default())) {
            Metric::Histogram(h) => h,
            other => panic!("{family}{{daemon={daemon}}} is a {}", other.kind()),
        }
    }

    /// Deterministic snapshot of every family, for the exporters:
    /// `(family, [(daemon, metric)])` in lexicographic order.
    pub fn families(&self) -> Vec<(String, Vec<(String, Metric)>)> {
        self.families
            .lock()
            .iter()
            .map(|(fam, series)| {
                (
                    fam.clone(),
                    series.iter().map(|(d, m)| (d.clone(), m.clone())).collect(),
                )
            })
            .collect()
    }

    /// Number of registered series across all families.
    pub fn series_count(&self) -> usize {
        self.families.lock().values().map(BTreeMap::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);

        let g = Gauge::default();
        g.set(10);
        assert_eq!(g.get(), 10);
    }

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        // Bucket 0 is exactly {0}; bucket i >= 1 is [2^(i-1), 2^i - 1].
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        for i in 1..HISTOGRAM_BUCKETS - 1 {
            let lo = 1u64 << (i - 1);
            let hi = (1u64 << i) - 1;
            assert_eq!(bucket_index(lo), i, "lower bound of bucket {i}");
            assert_eq!(bucket_index(hi), i, "upper bound of bucket {i}");
            assert_eq!(bucket_upper_bound(i), hi);
        }
    }

    #[test]
    fn max_bucket_saturates() {
        assert_eq!(bucket_index(1u64 << 62), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_index(1u64 << 63), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_upper_bound(HISTOGRAM_BUCKETS - 1), u64::MAX);

        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.quantile(0.5), u64::MAX);
        // The sum saturates rather than wrapping.
        assert_eq!(h.sum(), u64::MAX);
    }

    #[test]
    fn quantiles_are_conservative_and_clamped() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0, "empty histogram");
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 5);
        assert_eq!(snap.max, 1000);
        // p50 is the 3rd observation (value 3), reported as its bucket
        // upper bound.
        assert_eq!(snap.p50, 3);
        // p95 is the 5th observation (value 1000), reported as
        // min(bucket bound 1023, observed max 1000).
        assert_eq!(snap.p95, 1000);
        assert!((snap.mean() - 221.2).abs() < 1e-9);
        // Out-of-range q clamps.
        assert_eq!(h.quantile(-1.0), h.quantile(0.0));
        assert_eq!(h.quantile(2.0), h.quantile(1.0));
    }

    #[test]
    fn single_value_histogram_quantiles() {
        let h = Histogram::new();
        h.record(0);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 0);
        let h = Histogram::new();
        h.record(17);
        assert_eq!(h.quantile(0.5), 17, "clamped to the exact max");
    }

    #[test]
    fn registry_shares_handles_and_orders_families() {
        let reg = MetricRegistry::new();
        let a = reg.counter("forwarded", "l1");
        let b = reg.counter("forwarded", "l1");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2, "same series shares one handle");
        reg.gauge("queue_depth", "l1").set(3);
        reg.histogram("hop_latency_ns", "l2").record(42);
        let fams = reg.families();
        let names: Vec<&str> = fams.iter().map(|(f, _)| f.as_str()).collect();
        assert_eq!(names, vec!["forwarded", "hop_latency_ns", "queue_depth"]);
        assert_eq!(reg.series_count(), 3);
    }

    #[test]
    #[should_panic(expected = "is a counter")]
    fn registry_rejects_kind_mismatch() {
        let reg = MetricRegistry::new();
        reg.counter("x", "d");
        let _ = reg.gauge("x", "d");
    }
}
