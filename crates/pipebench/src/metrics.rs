//! The metric tables: names, units, directions and regression bounds.
//! `BENCHMARK.json` at the repository root lists the same tables; a
//! test below keeps the two from drifting apart.

/// Which way a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// An end-to-end metric: what a user of the pipeline would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// Every workload reports every one of these from an untraced run.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "events_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
];

/// Per-layer metrics `(name, unit)`, reported by a traced run. Units
/// `count`, `ratio`, `B` and `virt_ms` repeat exactly for a fixed
/// seed; `ns`, `ms` and `%` are wall-clock.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("format.ns_per_event", "ns"),
    ("format.bytes_per_event", "B"),
    ("format.allocs_per_event", "count"),
    ("connector.ns_per_event", "ns"),
    ("connector.wire_msgs", "count"),
    ("codec.encode_ns_per_record", "ns"),
    ("codec.decode_ns_per_record", "ns"),
    ("codec.frames", "count"),
    ("hop.ns_per_wire_msg", "ns"),
    ("hop.ns_per_wire_msg_noformat", "ns"),
    ("hop.queue_high_water", "count"),
    ("wal.ns_per_append", "ns"),
    ("wal.appends", "count"),
    ("wal.fsyncs", "count"),
    ("wal.high_water", "count"),
    ("wal.replayed", "count"),
    ("overload.summarized", "count"),
    ("overload.accuracy", "ratio"),
    ("overload.max_depth", "count"),
    ("ledger.lost", "count"),
    ("parse.ns_per_msg", "ns"),
    ("parse.allocs_per_msg", "count"),
    ("store.deliver_ns_per_msg", "ns"),
    ("store.convert_ns_per_msg", "ns"),
    ("store.rejected", "count"),
    ("store.duplicates", "count"),
    ("dsos.ingest_ns_per_row", "ns"),
    ("dsos.live_bytes_per_row", "B"),
    ("dsos.shard_skew", "ratio"),
    ("dsos.query_job_ns_per_row", "ns"),
    ("dsos.query_rank_ns_per_row", "ns"),
    ("dsos.query_range_ns_per_row", "ns"),
    ("analysis.frame_ns_per_row", "ns"),
    ("analysis.figures_ms", "ms"),
    ("detect.tap_ns_per_row", "ns"),
    ("detect.observe_ns_per_event", "ns"),
    ("detect.finalize_ms", "ms"),
    ("detect.detections", "count"),
    ("telemetry.ns_per_event", "ns"),
    ("telemetry.spans", "count"),
    ("telemetry.spans_dropped", "count"),
    ("lint.trace_ms", "ms"),
    ("app.sim_ns_per_event", "ns"),
    ("virt_latency_p95", "virt_ms"),
    ("trace.coverage", "share"),
    ("trace.overhead_pct", "%"),
];

/// True for per-layer units that must repeat exactly for a fixed seed.
pub fn repeats_exactly(unit: &str) -> bool {
    matches!(unit, "count" | "ratio" | "B" | "virt_ms")
}

/// Median of a sample; `NaN` when it is empty.
pub fn median(values: &[f64]) -> f64 {
    iosim_util::stats::median(values).unwrap_or(f64::NAN)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method); `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    if m < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Inter-quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    Some((q3 - q1) / median(values).abs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosim_util::json;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some((0.5, 3.5)));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[10.0, 40.0, 20.0]), Some((10.0, 40.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&v), 5.5);
        assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn benchmark_json_lists_these_tables() {
        let text = include_str!("../../../BENCHMARK.json");
        let doc = json::parse(text).expect("BENCHMARK.json is JSON");
        let e2e = doc.get("end_to_end").unwrap().as_array().unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (listed, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(listed.get("name").unwrap().as_str(), Some(m.name));
            assert_eq!(listed.get("unit").unwrap().as_str(), Some(m.unit));
            let better = if m.better == Better::Lower {
                "lower"
            } else {
                "higher"
            };
            assert_eq!(listed.get("better").unwrap().as_str(), Some(better));
            assert_eq!(listed.get("bound").unwrap().as_f64(), Some(m.bound));
        }
        let layers = doc.get("per_layer").unwrap().as_array().unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (listed, (name, unit)) in layers.iter().zip(PER_LAYER) {
            assert_eq!(listed.get("name").unwrap().as_str(), Some(name));
            assert_eq!(listed.get("unit").unwrap().as_str(), Some(unit));
        }
        let seconds = doc.get("run_seconds").unwrap().as_f64();
        assert_eq!(
            seconds,
            Some(crate::DEFAULT_SECONDS),
            "the suite defaults to the driver's run length"
        );
        let workloads = doc.get("workloads").unwrap().as_array().unwrap();
        let names: Vec<_> = workloads
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(names, crate::workloads::NAMES);
    }
}
