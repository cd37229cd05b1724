//! Soundness differential harness for the iolint flow solver.
//!
//! The solver (`iolint::analyze_flow`) promises *sound* worst-case
//! bounds: for any concrete execution inside the declared workload
//! envelope, every observed quantity stays at or below its static
//! ceiling, and every provably-guaranteed loss actually happens. This
//! suite makes that promise falsifiable: it re-runs the scenarios the
//! equivalence suites exercise — calm storms, storms through a link
//! outage, storms through a crash-stop (batched and unbatched), plus
//! seed-derived chaos scenarios — with self-telemetry enabled, solves
//! the daemon graph the run was built from, and gates the run's ledger, queue, WAL, overload, and latency telemetry
//! against the solver's bounds:
//!
//! * ledger-attributed loss      ≤ network loss ceiling
//! * ledger summarized mass      ≤ network summarized ceiling
//! * observed accuracy           ≥ static accuracy floor
//! * per-hop queue high-water    ≤ per-hop peak-frames bound
//! * per-hop WAL high-water      ≤ per-hop WAL bound
//! * per-hop folded event mass   ≤ per-hop summarized ceiling
//! * telemetry end-to-end p95    ≤ static latency bound
//! * solver guaranteed loss      ≤ observed loss (+ cadence slack)
//!
//! A separate tightness test keeps the ceilings honest: on the calm
//! storm the summarization ceiling must sit within 2× of what the run
//! actually folded, and the loss ceiling must be exactly zero.

mod fault_common;

use fault_common::{
    base_epoch, check_invariants, random_scenario, run_instrumented_scenario, Scenario,
};
use iolint::{
    analyze_flow, check_flow, effective_workload, parse_conf, pipeline_spec, DaemonConf,
    FaultWindows, FlowReport, HopBounds, LintConfig,
};
use repro_suite::connector::{FaultScript, OverloadConfig, QueueConfig, WalConfig, WorkloadSpec};
use repro_suite::ldms::{DaemonRole, LdmsNetwork, MsgFormat, StreamMessage, StreamSink};
use repro_suite::simtime::{Epoch, SimDuration};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

/// The oversubscribed controller `overload_equivalence.rs` storms
/// through: service 15 msg/s against 100 msg/s per node.
fn storm_policy() -> OverloadConfig {
    OverloadConfig::for_rate(15.0).with_window(SimDuration::from_millis(100))
}

fn storm_scenario(script: FaultScript, wal: Option<WalConfig>) -> Scenario {
    Scenario {
        nodes: 2,
        msgs_per_node: 300,
        queue: QueueConfig::reliable().with_capacity(4096),
        script,
        slack_s: 120,
        standby: false,
        wal,
        overload: Some(storm_policy()),
    }
}

fn outage_script() -> FaultScript {
    let base = base_epoch();
    FaultScript::new().link_flap(
        "l1",
        base + SimDuration::from_millis(500),
        base + SimDuration::from_millis(1500),
    )
}

fn crash_script() -> FaultScript {
    let base = base_epoch();
    FaultScript::new().crash(
        "l1",
        base + SimDuration::from_millis(800),
        base + SimDuration::from_millis(1800),
    )
}

/// The envelope the scenario publish loops actually realize: one
/// message per node every 10 ms starting at the base epoch.
fn workload_of(sc: &Scenario) -> WorkloadSpec {
    WorkloadSpec::new(sc.msgs_per_node as f64 * 0.010)
        .starting_at(base_epoch().as_secs_f64())
        .with_default_rate(100.0)
}

/// Runs one scenario instrumented, solves its lifted topology, and
/// asserts every observed quantity within its static bound. Returns
/// the report and outcome for scenario-specific follow-up assertions.
fn check_run(
    name: &str,
    sc: &Scenario,
    frame: Option<usize>,
) -> (FlowReport, fault_common::Outcome) {
    let (p, o) = run_instrumented_scenario(sc, frame);
    check_invariants(&o).unwrap_or_else(|e| panic!("{name}: {e}"));

    // Solve the graph the run was built from; the publish loops' rate
    // and framing are what a conf file would declare, so state them.
    let mut spec = pipeline_spec(&p);
    spec.set_sampler_conf(DaemonConf {
        rate_hz: Some(100.0),
        batch: frame.map(|f| f as u64),
        line: None,
    });
    let w = workload_of(sc);
    let report = analyze_flow(&spec, Some(&w));

    // ── Network-level gates ─────────────────────────────────────────
    assert!(
        (o.lost as f64) <= report.loss_ceiling + 0.5,
        "{name}: observed loss {} exceeds static ceiling {:.1}",
        o.lost,
        report.loss_ceiling
    );
    assert!(
        (o.summarized as f64) <= report.summarized_ceiling + 0.5,
        "{name}: observed summarized {} exceeds static ceiling {:.1}",
        o.summarized,
        report.summarized_ceiling
    );
    let seen = o.stored + o.summarized;
    if seen > 0 {
        let accuracy = o.stored as f64 / seen as f64;
        assert!(
            accuracy + 1e-9 >= report.accuracy_floor,
            "{name}: observed accuracy {accuracy:.4} below static floor {:.4}",
            report.accuracy_floor
        );
    }
    // The guaranteed-loss *lower* bound must also be realized. The
    // fluid model overstates per-window arrivals by at most one
    // message per flow per window edge (10 ms cadence vs. continuous
    // rate), so allow that discretization slack.
    let windows = FaultWindows::of(&spec.graph).outages.len();
    let cadence_slack = (sc.nodes as f64 + 2.0) * (windows as f64 + 1.0);
    assert!(
        report.guaranteed_loss <= o.lost as f64 + cadence_slack,
        "{name}: solver guarantees {:.1} lost but the run only lost {}",
        report.guaranteed_loss,
        o.lost
    );

    // ── Per-hop gates ───────────────────────────────────────────────
    let by_daemon: HashMap<&str, &HopBounds> =
        report.hops.iter().map(|h| (h.daemon.as_str(), h)).collect();
    assert!(
        !by_daemon.is_empty(),
        "{name}: the solver produced no hops for a live topology"
    );

    let mut gated_hops = 0usize;
    for (daemon, _parked, high_water) in p.network().queue_depths() {
        if let Some(h) = by_daemon.get(daemon.as_str()) {
            gated_hops += 1;
            assert!(
                (high_water as f64) <= h.peak_queue_frames + 0.5,
                "{name}/{daemon}: queue high-water {high_water} frames exceeds bound {:.1}",
                h.peak_queue_frames
            );
        }
    }
    assert!(
        gated_hops > 0,
        "{name}: no live queue matched a solver hop — graph and network disagree?"
    );
    for d in p.network().daemons() {
        let Some(h) = by_daemon.get(d.name()) else {
            continue;
        };
        if let (Some(ws), Some(bound)) = (d.wal_stats(), h.wal_high_water) {
            assert!(
                (ws.high_water as f64) <= bound + 0.5,
                "{name}/{}: WAL high-water {} records exceeds bound {bound:.1}",
                d.name(),
                ws.high_water
            );
        }
    }
    for (daemon, st) in p.network().overload_stats() {
        if let Some(h) = by_daemon.get(daemon.as_str()) {
            assert!(
                (st.folded_events as f64) <= h.summarized_ceiling + 0.5,
                "{name}/{daemon}: folded {} events exceeds summarize ceiling {:.1}",
                st.folded_events,
                h.summarized_ceiling
            );
        }
    }
    let tel = p
        .telemetry()
        .unwrap_or_else(|| panic!("{name}: instrumented run must carry telemetry"));
    let summary = tel.latency_summary();
    if summary.traces > 0 {
        let p95 = summary.p95_end_to_end_s();
        assert!(
            p95 <= report.e2e_latency_s + 1e-6,
            "{name}: observed e2e p95 {p95:.3}s exceeds static bound {:.3}s",
            report.e2e_latency_s
        );
    }

    (report, o)
}

// ── Storm scenarios from overload_equivalence.rs ───────────────────────

#[test]
fn calm_storm_bounds_hold_unbatched() {
    let sc = storm_scenario(FaultScript::new(), None);
    let (report, o) = check_run("calm/unbatched", &sc, None);
    assert_eq!(o.lost, 0);
    // No faults: the solver must *prove* zero loss, not merely bound it.
    assert!(
        report.loss_ceiling < 1.0,
        "calm storm must solve to zero predicted loss, got {:.1}",
        report.loss_ceiling
    );
}

#[test]
fn calm_storm_bounds_hold_batched() {
    let sc = storm_scenario(FaultScript::new(), None);
    let (report, _) = check_run("calm/batched", &sc, Some(5));
    assert!(report.loss_ceiling < 1.0);
}

#[test]
fn outage_storm_bounds_hold_unbatched() {
    let sc = storm_scenario(outage_script(), None);
    check_run("outage/unbatched", &sc, None);
}

#[test]
fn outage_storm_bounds_hold_batched() {
    let sc = storm_scenario(outage_script(), None);
    check_run("outage/batched", &sc, Some(5));
}

#[test]
fn crash_storm_bounds_hold_unbatched() {
    let sc = storm_scenario(crash_script(), Some(WalConfig::durable()));
    check_run("crash/unbatched", &sc, None);
}

#[test]
fn crash_storm_bounds_hold_batched() {
    let sc = storm_scenario(crash_script(), Some(WalConfig::durable()));
    check_run("crash/batched", &sc, Some(5));
}

// ── Chaos scenarios from the failure-injection generator ───────────────

#[test]
fn chaos_seed_1_stays_within_bounds() {
    check_run("chaos/seed-1", &random_scenario(1), None);
}

#[test]
fn chaos_seed_7_stays_within_bounds() {
    check_run("chaos/seed-7", &random_scenario(7), None);
}

#[test]
fn chaos_seed_42_stays_within_bounds() {
    check_run("chaos/seed-42", &random_scenario(42), None);
}

// ── Tightness: the ceilings must stay within shouting distance ─────────

#[test]
fn calm_storm_ceilings_are_tight() {
    let sc = storm_scenario(FaultScript::new(), None);
    let (report, o) = check_run("tightness/calm", &sc, None);
    assert!(o.summarized > 0, "a 7x-oversubscribed run must summarize");
    // The summarization ceiling may not balloon past 2× reality.
    assert!(
        report.summarized_ceiling <= 2.0 * o.summarized as f64,
        "summarize ceiling {:.1} is looser than 2x the observed {}",
        report.summarized_ceiling,
        o.summarized
    );
    // And with no faults the loss ceiling is exactly zero — the bound
    // matches the observation with no slack at all.
    assert_eq!(o.lost, 0);
    assert!(report.loss_ceiling < 1.0);
}

// ── The example confs, built and run ───────────────────────────────────

/// A store plugin that keeps nothing.
struct Discard;

impl StreamSink for Discard {
    fn deliver(&self, _: &StreamMessage) {}
}

/// Builds the graph `conf` declares through `LdmsNetwork::build`,
/// publishes every sampler's declared rate across the conf's workload
/// envelope (interleaved in virtual-time order, sequence- and
/// origin-stamped as the connector stamps them), settles, and asserts
/// the observed loss (between the guaranteed loss and the ceiling),
/// queue high-water and WAL high-water within the bounds `iolint
/// analyze` prints for the conf.
fn run_conf(name: &str, conf: &str) {
    let spec = parse_conf(conf).unwrap_or_else(|e| panic!("{name}: {e}"));
    let w = effective_workload(&spec);
    let (_, report) = check_flow(&spec, None, &LintConfig::new());
    let net = LdmsNetwork::build(&spec.graph, None)
        .unwrap_or_else(|e| panic!("{name}: a conf without lint errors must build: {e}"));
    for (daemon, d) in net.daemons().iter().zip(&spec.graph.daemons) {
        for tag in &d.subscribers {
            daemon.subscribe(tag, Arc::new(Discard));
        }
    }
    // (sampler, period, next publish instant, messages published)
    let mut samplers: Vec<(&str, f64, f64, u64)> = spec
        .graph
        .daemons
        .iter()
        .enumerate()
        .filter(|(_, d)| d.role == DaemonRole::Sampler)
        .map(|(i, d)| {
            let rate = spec.conf(i).rate_hz.unwrap_or(w.default_rate_hz) * w.storm;
            (d.name.as_str(), 1.0 / rate, w.start_s, 0)
        })
        .collect();
    let at = |s: f64| Epoch::from_secs(0) + SimDuration::from_secs_f64(s);
    let mut published = 0u64;
    while let Some(next) = samplers
        .iter_mut()
        .filter(|s| s.2 < w.end_s())
        .min_by(|a, b| a.2.total_cmp(&b.2))
    {
        next.3 += 1;
        let data = format!("{{\"len\":64,\"dur\":0.001,\"seq\":{}}}", next.3);
        net.publish(
            StreamMessage::new(&spec.stream_tag, MsgFormat::Json, data, next.0, at(next.2))
                .with_seq(next.3)
                .with_origin(7, 0),
        );
        published += 1;
        next.2 = w.start_s + next.1 * next.3 as f64;
    }
    net.settle(at(w.end_s() + report.e2e_latency_s + 60.0));

    let ledger = net.ledger();
    assert_eq!(ledger.published(), published, "{name}");
    assert!(ledger.balances(), "{name}: {}", ledger.summary());
    // One message per flow per window edge of discretization slack, as
    // in `check_run`.
    let windows = FaultWindows::of(&spec.graph).outages.len();
    let cadence_slack = (samplers.len() as f64 + 2.0) * (windows as f64 + 1.0);
    assert!(
        report.guaranteed_loss <= ledger.total_lost() as f64 + cadence_slack,
        "{name}: solver guarantees {:.1} lost but the run only lost {}",
        report.guaranteed_loss,
        ledger.total_lost()
    );
    assert!(
        (ledger.total_lost() as f64) <= report.loss_ceiling + 0.5,
        "{name}: observed loss {} exceeds static ceiling {:.1}",
        ledger.total_lost(),
        report.loss_ceiling
    );
    let hops: HashMap<&str, &HopBounds> =
        report.hops.iter().map(|h| (h.daemon.as_str(), h)).collect();
    for (daemon, _parked, high_water) in net.queue_depths() {
        if let Some(h) = hops.get(daemon.as_str()) {
            assert!(
                (high_water as f64) <= h.peak_queue_frames + 0.5,
                "{name}/{daemon}: queue high-water {high_water} exceeds bound {:.1}",
                h.peak_queue_frames
            );
        }
    }
    for d in net.daemons() {
        if let (Some(ws), Some(bound)) = (
            d.wal_stats(),
            hops.get(d.name()).and_then(|h| h.wal_high_water),
        ) {
            assert!(
                (ws.high_water as f64) <= bound + 0.5,
                "{name}/{}: WAL high-water {} exceeds bound {bound:.1}",
                d.name(),
                ws.high_water
            );
        }
    }
}

#[test]
fn a_standby_crash_alone_loses_nothing() {
    // Best-effort samplers with a standby route; only the standby
    // crashes. Traffic never leaves the live primary, so nothing is
    // lost and no loss is provable.
    let conf = "daemon nid00040 sampler\n  upstream voltrino-head\n  standby voltrino-standby\n  rate 10\n\
                daemon nid00041 sampler\n  upstream voltrino-head\n  standby voltrino-standby\n  rate 10\n\
                daemon voltrino-head l1\n  upstream shirley-agg\n\
                daemon voltrino-standby l1\n  upstream shirley-agg\n\
                daemon shirley-agg l2\n  subscribe darshanConnector\n\
                crash voltrino-standby 100 130\n";
    let spec = parse_conf(conf).expect("conf parses");
    let (lints, report) = check_flow(&spec, None, &LintConfig::new());
    assert!(report.guaranteed_loss < 1.0, "{}", report.verdict);
    assert!(!lints.codes().contains("FLOW001"));
    run_conf("standby-crash", conf);
}

#[test]
fn example_confs_run_within_their_analyzed_bounds() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/configs");
    let mut confs: Vec<_> = std::fs::read_dir(&dir)
        .expect("examples/configs exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "conf"))
        .collect();
    confs.sort();
    let mut ran = Vec::new();
    for path in confs {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let conf = std::fs::read_to_string(&path).expect("readable conf");
        let spec = parse_conf(&conf).unwrap_or_else(|e| panic!("{name}: {e}"));
        if check_flow(&spec, None, &LintConfig::new()).0.has_errors() {
            assert_eq!(
                name, "broken-pipeline.conf",
                "only the broken conf may error"
            );
            continue;
        }
        run_conf(&name, &conf);
        ran.push(name);
    }
    assert_eq!(
        ran,
        [
            "overload-pipeline.conf",
            "paper-pipeline.conf",
            "reliable-pipeline.conf",
            "spof-topology.conf",
            "standby-topology.conf"
        ]
    );
}
