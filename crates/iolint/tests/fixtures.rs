//! Fixture-driven lint tests: every lint code has one known-bad
//! fixture that fires exactly that code, and the clean fixtures fire
//! nothing.

use darshan_ldms_connector::{Pipeline, PipelineOpts, DEFAULT_STREAM_TAG};
use iolint::{
    check_flow, check_pipeline_topology, check_pipeline_trace, check_topology, lint_gaps,
    parse_conf, LintConfig, LossBudget, Report, TraceEvent, TraceLintOpts,
};
use iosim_time::{Epoch, SimDuration};
use ldms_sim::{FaultScript, MsgFormat, StreamMessage};

fn report_for(conf: &str) -> Report {
    let spec = parse_conf(conf).expect("fixture parses");
    check_topology(&spec, &LintConfig::new())
}

/// The report `iolint analyze` prints: the topology pass plus the
/// solver-backed `FLOW` lints.
fn flow_report_for(conf: &str) -> Report {
    let spec = parse_conf(conf).expect("fixture parses");
    check_flow(&spec, None, &LintConfig::new()).0
}

/// Asserts the fixture fires exactly the named code (possibly several
/// times) and nothing else.
fn assert_only(conf: &str, code: &str) {
    let report = report_for(conf);
    let codes: Vec<&str> = report.codes().into_iter().collect();
    assert_eq!(codes, vec![code], "report:\n{}", report.render_text());
}

#[test]
fn clean_fixtures_are_clean() {
    // The reliable variant deploys a standby aggregator, so it is
    // fully clean.
    let report = report_for(include_str!("fixtures/clean_reliable.conf"));
    assert!(report.is_clean(), "report:\n{}", report.render_text());
    // The paper topology is deliberately kept as published: its single
    // head-node aggregator draws the advisory SPOF warning (TOP011)
    // and nothing else.
    let report = report_for(include_str!("fixtures/clean_paper.conf"));
    assert!(!report.has_errors(), "report:\n{}", report.render_text());
    let codes: Vec<&str> = report.codes().into_iter().collect();
    assert_eq!(codes, vec!["TOP011"], "report:\n{}", report.render_text());
}

#[test]
fn top001_forwarding_cycle() {
    assert_only(include_str!("fixtures/top001_cycle.conf"), "TOP001");
}

#[test]
fn top002_orphan_sampler() {
    assert_only(include_str!("fixtures/top002_orphan.conf"), "TOP002");
}

#[test]
fn top003_unreachable_store() {
    assert_only(include_str!("fixtures/top003_unreachable.conf"), "TOP003");
}

#[test]
fn top004_missing_subscriber() {
    assert_only(include_str!("fixtures/top004_no_subscriber.conf"), "TOP004");
}

// The `top005_*` fixtures are named after the queue-capacity heuristic
// they were written for. The flow solver convicts the same confs (and
// clears the absorbed one), so the heuristic is gone and the fixtures
// pin the solver's verdict instead.

#[test]
fn top005_queue_overflow_risk() {
    let report = flow_report_for(include_str!("fixtures/top005_overflow_risk.conf"));
    let codes: Vec<&str> = report.codes().into_iter().collect();
    assert_eq!(codes, vec!["FLOW001"], "report:\n{}", report.render_text());
    assert!(report.render_text().contains("≥59900 of the 220000"));
}

#[test]
fn top005_counts_frames_not_messages_when_batching() {
    // Batched sampler: 1000 records/s over a 60s outage is 60000
    // records, but only ~3750 wire frames at 16 records/frame — the
    // head node's 4096-slot queue absorbs it, so the fixture is clean.
    let report = flow_report_for(include_str!("fixtures/top005_batched_absorbed.conf"));
    assert!(report.is_clean(), "report:\n{}", report.render_text());

    // Removing the batch directive restores message units: the very
    // same topology overflows again.
    let unbatched = include_str!("fixtures/top005_batched_absorbed.conf").replace("batch 16", "");
    let report = flow_report_for(&unbatched);
    let codes: Vec<&str> = report.codes().into_iter().collect();
    assert_eq!(codes, vec!["FLOW001"], "report:\n{}", report.render_text());

    // A thinner frame still overflows: ~15000 frames against the same
    // 4096 slots.
    let report = flow_report_for(include_str!("fixtures/top005_batched_overflow.conf"));
    let codes: Vec<&str> = report.codes().into_iter().collect();
    assert_eq!(codes, vec!["FLOW001"], "report:\n{}", report.render_text());
    assert!(report.render_text().contains("≥10904 of the 220000"));
}

#[test]
fn top006_deadline_infeasible() {
    assert_only(include_str!("fixtures/top006_deadline.conf"), "TOP006");
}

#[test]
fn top007_duplicate_daemon() {
    // `parse_conf` now rejects duplicate names outright (CONF-level,
    // with a line number), so the spec-level lint is exercised the way
    // it fires in practice: on an IR assembled programmatically (e.g.
    // lifted from a live network with colliding producer names).
    use iolint::{DaemonSpec, Role, TopologySpec};
    let mut spec = TopologySpec::new(DEFAULT_STREAM_TAG);
    let mut s1 = DaemonSpec::new("nid00040", Role::Sampler);
    s1.upstream = Some("shirley-agg".into());
    let mut s2 = DaemonSpec::new("nid00040", Role::Sampler);
    s2.upstream = Some("shirley-agg".into());
    let mut agg = DaemonSpec::new("shirley-agg", Role::AggregatorL2);
    agg.subscribers.push(DEFAULT_STREAM_TAG.into());
    spec.daemons.extend([s1, s2, agg]);
    let report = check_topology(&spec, &LintConfig::new());
    let codes: Vec<&str> = report.codes().into_iter().collect();
    assert_eq!(codes, vec!["TOP007"], "report:\n{}", report.render_text());

    // And the conf route reports the duplicate as a parse error on the
    // re-declaring line.
    let err = parse_conf(include_str!("fixtures/top007_duplicate.conf"))
        .expect_err("duplicate daemon name must not parse");
    assert_eq!(err.line, 4);
    assert!(err.msg.contains("duplicate daemon name"), "{}", err.msg);
}

#[test]
fn top008_schema_mismatch() {
    let report = report_for(include_str!("fixtures/top008_schema.conf"));
    let codes: Vec<&str> = report.codes().into_iter().collect();
    assert_eq!(codes, vec!["TOP008"]);
    assert!(report.has_errors(), "a missing column is an error");
    assert!(report.render_text().contains("seg_timestamp"));
}

#[test]
fn top009_unprotected_outage() {
    assert_only(include_str!("fixtures/top009_unprotected.conf"), "TOP009");
}

#[test]
fn top010_dangling_upstream() {
    assert_only(include_str!("fixtures/top010_dangling.conf"), "TOP010");
}

#[test]
fn top011_single_point_of_failure() {
    assert_only(include_str!("fixtures/top011_spof.conf"), "TOP011");
}

#[test]
fn top012_wal_capacity_risk() {
    assert_only(include_str!("fixtures/top012_wal.conf"), "TOP012");
}

#[test]
fn top013_sampling_unreachable() {
    assert_only(include_str!("fixtures/top013_sampling.conf"), "TOP013");
}

#[test]
fn top014_replication_overwhelmed() {
    assert_only(include_str!("fixtures/top014_replication.conf"), "TOP014");
}

#[test]
fn top014_staggered_windows_are_clean() {
    let report = report_for(include_str!("fixtures/top014_replication_clean.conf"));
    assert!(report.is_clean(), "report:\n{}", report.render_text());
}

#[test]
fn lint_config_can_silence_a_fixture() {
    let spec = parse_conf(include_str!("fixtures/top004_no_subscriber.conf")).unwrap();
    let cfg = LintConfig::new().allow("TOP004");
    assert!(check_topology(&spec, &cfg).is_clean());
    let cfg = LintConfig::new().allow("missing-subscriber"); // by name too
    assert!(check_topology(&spec, &cfg).is_clean());
}

// ---------------------------------------------------------------------
// Trace fixtures (constructed events — one per code).

fn ev(rank: u64, op: &str, record_id: u64, len: i64, off: i64, dur: f64, end: f64) -> TraceEvent {
    TraceEvent {
        job_id: 7,
        rank,
        op: op.to_string().into(),
        file: "/scratch/o.dat".into(),
        record_id,
        len,
        off,
        dur,
        end,
    }
}

fn trace_codes(events: &[TraceEvent]) -> Vec<&'static str> {
    iolint::check_trace(events, &TraceLintOpts::default(), &LintConfig::new())
        .codes()
        .into_iter()
        .collect()
}

#[test]
fn clean_trace_fixture_is_clean() {
    let mut events = Vec::new();
    for rank in 0..2 {
        events.push(ev(rank, "open", 1, -1, -1, 0.001, 1.0));
        events.push(ev(rank, "write", 1, 1 << 20, 0, 0.01, 1.5));
        events.push(ev(rank, "close", 1, -1, -1, 0.001, 2.0));
    }
    assert!(trace_codes(&events).is_empty());
}

#[test]
fn trc001_unmatched_open() {
    let events = vec![
        ev(0, "open", 1, -1, -1, 0.001, 1.0),
        ev(0, "write", 1, 1 << 20, 0, 0.01, 1.5),
    ];
    assert_eq!(trace_codes(&events), vec!["TRC001"]);
}

#[test]
fn trc002_unmatched_close() {
    let events = vec![ev(0, "close", 1, -1, -1, 0.001, 1.0)];
    assert_eq!(trace_codes(&events), vec!["TRC002"]);
}

#[test]
fn trc003_negative_duration() {
    let events = vec![ev(0, "read", 1, 4096, 0, -0.5, 1.0)];
    assert_eq!(trace_codes(&events), vec!["TRC003"]);
    let events = vec![ev(0, "read", 1, 4096, 0, f64::NAN, 1.0)];
    assert_eq!(trace_codes(&events), vec!["TRC003"]);
}

#[test]
fn trc004_overlapping_ops() {
    // Second read starts (0.7) before the first one ends (1.0).
    let events = vec![
        ev(0, "read", 1, 4096, 0, 0.5, 1.0),
        ev(0, "read", 1, 4096, 4096, 0.5, 1.2),
    ];
    assert_eq!(trace_codes(&events), vec!["TRC004"]);
}

#[test]
fn trc005_non_monotonic_input_order() {
    // Disjoint in time, but delivered in reversed order.
    let events = vec![
        ev(0, "read", 1, 4096, 0, 0.1, 2.0),
        ev(0, "read", 1, 4096, 4096, 0.1, 1.0),
    ];
    assert_eq!(trace_codes(&events), vec!["TRC005"]);
}

#[test]
fn trc007_tiny_unaligned_writes() {
    let events: Vec<TraceEvent> = (0..10)
        .map(|i| {
            ev(
                0,
                "write",
                1,
                100,                     // tiny
                1 + i64::from(i) * 4096, // never block-aligned
                0.001,
                1.0 + f64::from(i),
            )
        })
        .collect();
    assert_eq!(trace_codes(&events), vec!["TRC007"]);
}

#[test]
fn trc008_rank_straggler() {
    let events: Vec<TraceEvent> = (0..4)
        .map(|rank| {
            let dur = if rank == 3 { 1.0 } else { 0.1 };
            ev(rank, "read", 1, 1 << 20, 0, dur, 5.0)
        })
        .collect();
    assert_eq!(trace_codes(&events), vec!["TRC008"]);
}

// ---------------------------------------------------------------------
// End-to-end: a faulted pipeline whose gaps the ledger fully explains
// must produce no TRC006; with the ledger ignored, the same gaps are
// unexplained and the code fires.

#[test]
fn trc006_gap_reconciliation_against_live_pipeline() {
    let p = Pipeline::build_with(
        &["nid00000".to_string()],
        &PipelineOpts {
            dsosd_count: 1,
            faults: FaultScript::new().link_drop_every("nid00000", 3),
            ..PipelineOpts::default()
        },
    );
    // Pre-flight: the topology itself is sound (modulo the advisory
    // SPOF warning the default single-aggregator layout always draws).
    assert!(check_pipeline_topology(
        &p,
        DEFAULT_STREAM_TAG,
        &FaultScript::new(),
        &LintConfig::new().allow("TOP011"),
    )
    .is_clean());

    for i in 0..10u64 {
        let t = Epoch::from_secs(100) + SimDuration::from_millis(i * 10);
        p.network().publish(
            StreamMessage::new(
                DEFAULT_STREAM_TAG,
                MsgFormat::Json,
                payload(7, 0, t.as_secs_f64()),
                "nid00000",
                t,
            )
            .with_seq(i + 1),
        );
    }
    p.settle(Epoch::from_secs(300));
    assert_eq!(p.stored_events(), 7, "every 3rd message dropped");
    assert!(p.store().total_missing() > 0, "gaps exist");

    // The ledger attributes every drop to nid00000's UGNI hop, so the
    // full trace pass reports nothing.
    let report = check_pipeline_trace(&p, &TraceLintOpts::default(), &LintConfig::new());
    assert!(report.is_clean(), "report:\n{}", report.render_text());

    // Same gaps, no loss budget: now they are a monitoring-integrity
    // defect.
    let mut empty = LossBudget::empty();
    let diags = lint_gaps(&p.store().gap_reports(), &mut empty);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].code.code, "TRC006");
}

// ---------------------------------------------------------------------
// The shipped example configs: what the CI smoke step runs, enforced
// here too so `cargo test` catches a drifted example before CI does.

#[test]
fn example_configs_lint_as_shipped() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/configs");
    // Single-aggregator examples ship as the paper deployed them: the
    // advisory SPOF warning is their only finding.
    for spof in [
        "paper-pipeline.conf",
        "reliable-pipeline.conf",
        "spof-topology.conf",
    ] {
        let text = std::fs::read_to_string(format!("{dir}/{spof}")).expect("example exists");
        let report = report_for(&text);
        assert!(!report.has_errors(), "{spof}:\n{}", report.render_text());
        let codes: Vec<&str> = report.codes().into_iter().collect();
        assert_eq!(codes, vec!["TOP011"], "{spof}:\n{}", report.render_text());
    }
    // The crash-tolerant and storm-tolerant examples are fully clean.
    for clean in ["standby-topology.conf", "overload-pipeline.conf"] {
        let text = std::fs::read_to_string(format!("{dir}/{clean}")).expect("example exists");
        let report = report_for(&text);
        assert!(report.is_clean(), "{clean}:\n{}", report.render_text());
    }
    let text =
        std::fs::read_to_string(format!("{dir}/broken-pipeline.conf")).expect("example exists");
    let report = report_for(&text);
    assert!(report.has_errors(), "broken example must fail the linter");
    for code in ["TOP002", "TOP004", "TOP010"] {
        assert!(report.codes().contains(code), "expected {code}");
    }
}

/// A connector-shaped JSON payload the store can ingest.
fn payload(job_id: u64, rank: u64, ts: f64) -> String {
    format!(
        concat!(
            r#"{{"uid":99066,"exe":"/apps/t","file":"/scratch/o.dat","job_id":{},"#,
            r#""rank":{},"ProducerName":"nid00000","record_id":42,"module":"POSIX","#,
            r#""type":"MOD","max_byte":4095,"switches":0,"flushes":-1,"cnt":1,"op":"write","#,
            r#""seg":[{{"data_set":"N/A","pt_sel":-1,"irreg_hslab":-1,"reg_hslab":-1,"#,
            r#""ndims":-1,"npoints":-1,"off":0,"len":4096,"dur":0.005,"timestamp":{}}}]}}"#
        ),
        job_id, rank, ts
    )
}
