//! System telemetry riding the same pipeline as the Darshan stream.
//!
//! LDMS's original job is periodic system sampling; the paper's vision
//! is correlating that telemetry with the connector's I/O events
//! ("identify any correlations between the file system, network
//! congestion or resource contentions and the I/O performance"). This
//! example runs meminfo/vmstat samplers on every compute node,
//! publishes their metric sets through the same two-level aggregation
//! as the Darshan stream, and renders a small combined dashboard.
//!
//! Run with: `cargo run -p repro-suite --example system_telemetry`

use repro_suite::ldms::sampler::{
    publish_metric_set, sample_window, MeminfoSampler, VmstatSampler,
};
use repro_suite::ldms::stream::BufferSink;
use repro_suite::ldms::{LdmsNetwork, Topology};
use repro_suite::simtime::{Epoch, SimDuration};
use repro_suite::util::chart::sparkline;
use repro_suite::util::json;

fn main() {
    let nodes: Vec<String> = (0..4).map(|i| format!("nid{:05}", 40 + i)).collect();
    let net = LdmsNetwork::build(&Topology::paper(&nodes, false), None)
        .expect("the paper topology is well formed");

    // Subscribe analysis taps at the L2 aggregator, one per schema —
    // exactly how the DSOS store subscribes to the Darshan tag.
    let vmstat_tap = BufferSink::new();
    let meminfo_tap = BufferSink::new();
    net.l2().subscribe("vmstat", vmstat_tap.clone());
    net.l2().subscribe("meminfo", meminfo_tap.clone());

    // One ldmsd sampling loop per node: every 10 virtual seconds over a
    // 10-minute window.
    let start = Epoch::from_secs(1_655_300_000);
    let end = start + SimDuration::from_secs(600);
    for (i, node) in nodes.iter().enumerate() {
        let vmstat = VmstatSampler {
            seed: 100 + i as u64,
        };
        let meminfo = MeminfoSampler {
            mem_total: 64 << 30,
            seed: 200 + i as u64,
        };
        for set in sample_window(&vmstat, node, start, end, SimDuration::from_secs(10)) {
            publish_metric_set(&net, &set);
        }
        for set in sample_window(&meminfo, node, start, end, SimDuration::from_secs(10)) {
            publish_metric_set(&net, &set);
        }
    }

    println!(
        "collected {} vmstat and {} meminfo sets across {} nodes\n",
        vmstat_tap.len(),
        meminfo_tap.len(),
        nodes.len()
    );

    // Render one node's cpu_load series the way a Grafana panel would.
    for node in &nodes {
        let series: Vec<f64> = vmstat_tap
            .snapshot()
            .iter()
            .filter(|m| m.producer.as_ref() == node.as_str())
            .filter_map(|m| {
                json::parse(&m.data)
                    .ok()?
                    .get("metrics")?
                    .get("cpu_load")?
                    .as_f64()
            })
            .collect();
        println!("{node} cpu_load |{}|", sparkline(&series));
    }
    println!(
        "\nEvery sample carries an absolute timestamp and traversed the same\n\
         node→L1→L2 aggregation as the Darshan stream, so I/O events and system\n\
         telemetry line up on one time axis — the correlation the paper builds\n\
         the integration for (see also `repro-bench --bin correlate`)."
    );
}
