//! Sampler plugins and metric sets.
//!
//! Beyond the Darshan stream, LDMS's bread and butter is periodic
//! sampling of system telemetry into *metric sets* (Section II). The
//! paper's analysis vision — correlating I/O variability with "file
//! system, network congestion, etc." — needs that telemetry next to the
//! I/O events, so the reproduction ships synthetic meminfo- and
//! vmstat-style samplers whose values follow the same weather model
//! that drives the file systems.

use iosim_time::Epoch;
use std::collections::BTreeMap;

/// A sampled metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Unsigned counter/gauge.
    U64(u64),
    /// Floating gauge.
    F64(f64),
    /// String-valued metric.
    Str(String),
}

/// One sampled metric set: a schema instance from one producer at one
/// instant.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSet {
    /// Schema name (e.g. "meminfo").
    pub schema: String,
    /// Producer (node) name.
    pub producer: String,
    /// Sample timestamp.
    pub timestamp: Epoch,
    /// Metric name → value.
    pub metrics: BTreeMap<String, MetricValue>,
}

/// A sampler plugin: produces one metric set per sampling interval.
pub trait SamplerPlugin: Send + Sync {
    /// The schema this sampler produces.
    fn schema(&self) -> &str;

    /// Takes one sample at virtual time `now`.
    fn sample(&self, producer: &str, now: Epoch) -> MetricSet;
}

fn unit_noise(seed: u64, t: Epoch) -> f64 {
    // Deterministic hash-based noise in [0, 1).
    let mut z = seed ^ t.as_nanos().wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
}

/// Synthetic `/proc/meminfo` sampler.
pub struct MeminfoSampler {
    /// Total memory per node (bytes).
    pub mem_total: u64,
    /// Noise seed.
    pub seed: u64,
}

impl SamplerPlugin for MeminfoSampler {
    fn schema(&self) -> &str {
        "meminfo"
    }

    fn sample(&self, producer: &str, now: Epoch) -> MetricSet {
        let used_frac = 0.35 + 0.3 * unit_noise(self.seed, now);
        let used = (self.mem_total as f64 * used_frac) as u64;
        let mut metrics = BTreeMap::new();
        metrics.insert("MemTotal".into(), MetricValue::U64(self.mem_total));
        metrics.insert("MemFree".into(), MetricValue::U64(self.mem_total - used));
        metrics.insert(
            "Cached".into(),
            MetricValue::U64((self.mem_total as f64 * 0.1) as u64),
        );
        MetricSet {
            schema: "meminfo".into(),
            producer: producer.to_string(),
            timestamp: now,
            metrics,
        }
    }
}

/// Synthetic `vmstat`-style sampler with load following a diurnal curve.
pub struct VmstatSampler {
    /// Noise seed.
    pub seed: u64,
}

impl SamplerPlugin for VmstatSampler {
    fn schema(&self) -> &str {
        "vmstat"
    }

    fn sample(&self, producer: &str, now: Epoch) -> MetricSet {
        let tod = now.seconds_of_day() / 86_400.0;
        let load = 0.4
            + 0.3 * (std::f64::consts::TAU * tod).sin().abs()
            + 0.2 * unit_noise(self.seed, now);
        let mut metrics = BTreeMap::new();
        metrics.insert("cpu_load".into(), MetricValue::F64(load));
        metrics.insert(
            "ctx_switches".into(),
            MetricValue::U64((load * 100_000.0) as u64),
        );
        MetricSet {
            schema: "vmstat".into(),
            producer: producer.to_string(),
            timestamp: now,
            metrics,
        }
    }
}

impl MetricSet {
    /// Encodes the set as a JSON stream payload (schema, producer,
    /// timestamp, and the metric map).
    pub(crate) fn to_json(&self) -> String {
        let mut w = iosim_util::JsonWriter::with_capacity(256);
        w.begin_object();
        w.field_str("schema", &self.schema);
        w.field_str("ProducerName", &self.producer);
        w.field_float("timestamp", self.timestamp.as_secs_f64());
        w.comma();
        w.key("metrics");
        w.begin_object();
        for (name, value) in &self.metrics {
            match value {
                MetricValue::U64(v) => w.field_uint(name, *v),
                MetricValue::F64(v) => w.field_float(name, *v),
                MetricValue::Str(s) => w.field_str(name, s),
            }
        }
        w.end_object();
        w.end_object();
        w.finish()
    }
}

/// Publishes one metric set into the stream pipeline under its schema
/// name as the tag — how system telemetry rides the same transport as
/// the Darshan stream, enabling the paper's "correlate I/O performance
/// variability with system behaviour" analyses.
pub fn publish_metric_set(network: &crate::LdmsNetwork, set: &MetricSet) {
    network.publish(crate::stream::StreamMessage::new(
        &set.schema,
        crate::stream::MsgFormat::Json,
        set.to_json(),
        &set.producer,
        set.timestamp,
    ));
}

/// Runs a sampler at a fixed interval over a window, like an `ldmsd`
/// sampling loop, returning the collected sets.
pub fn sample_window(
    plugin: &dyn SamplerPlugin,
    producer: &str,
    start: Epoch,
    end: Epoch,
    interval: iosim_time::SimDuration,
) -> Vec<MetricSet> {
    assert!(!interval.is_zero(), "sampling interval must be positive");
    let mut out = Vec::new();
    let mut t = start;
    while t <= end {
        out.push(plugin.sample(producer, t));
        t = t + interval;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosim_time::SimDuration;

    #[test]
    fn meminfo_is_self_consistent() {
        let s = MeminfoSampler {
            mem_total: 64 << 30,
            seed: 1,
        };
        let set = s.sample("nid00040", Epoch::from_secs(1000));
        let total = match set.metrics["MemTotal"] {
            MetricValue::U64(v) => v,
            _ => panic!(),
        };
        let free = match set.metrics["MemFree"] {
            MetricValue::U64(v) => v,
            _ => panic!(),
        };
        assert!(free < total);
        assert_eq!(set.schema, "meminfo");
    }

    #[test]
    fn sampling_is_deterministic() {
        let s = VmstatSampler { seed: 9 };
        let a = s.sample("n", Epoch::from_secs(5));
        let b = s.sample("n", Epoch::from_secs(5));
        assert_eq!(a, b);
        let c = s.sample("n", Epoch::from_secs(6));
        assert_ne!(a.metrics, c.metrics);
    }

    #[test]
    fn window_produces_expected_count() {
        let s = VmstatSampler { seed: 2 };
        let sets = sample_window(
            &s,
            "nid1",
            Epoch::from_secs(0),
            Epoch::from_secs(60),
            SimDuration::from_secs(10),
        );
        assert_eq!(sets.len(), 7); // 0,10,...,60 inclusive
        assert!(sets.windows(2).all(|w| w[0].timestamp < w[1].timestamp));
    }

    #[test]
    fn metric_sets_publish_through_the_pipeline() {
        use crate::stream::BufferSink;
        use crate::{LdmsNetwork, Topology};
        let graph = Topology::paper(&["nid00040".to_string()], false);
        let net = LdmsNetwork::build(&graph, None).expect("the paper graph builds");
        let sink = BufferSink::new();
        net.l2().subscribe("vmstat", sink.clone());
        let s = VmstatSampler { seed: 3 };
        for set in sample_window(
            &s,
            "nid00040",
            Epoch::from_secs(0),
            Epoch::from_secs(30),
            SimDuration::from_secs(10),
        ) {
            publish_metric_set(&net, &set);
        }
        let msgs = sink.take();
        assert_eq!(msgs.len(), 4);
        let v = iosim_util::json::parse(&msgs[0].data).unwrap();
        assert_eq!(v.get("schema").unwrap().as_str(), Some("vmstat"));
        assert!(v.get("metrics").unwrap().get("cpu_load").is_some());
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn zero_interval_rejected() {
        let s = VmstatSampler { seed: 2 };
        let _ = sample_window(
            &s,
            "n",
            Epoch::from_secs(0),
            Epoch::from_secs(1),
            SimDuration::ZERO,
        );
    }
}
