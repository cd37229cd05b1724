//! Golden-file tests for the online detection reports.
//!
//! Detection output is part of the published interface: operators diff
//! reports across runs, and CI archives them. The whole stack is
//! virtual-time deterministic, so a fixed-seed campaign must
//! reproduce its detection report byte-for-byte — any change to the
//! detector's thresholds, window phasing, onset refinement, or CSV
//! formatting that shifts a single byte is caught here.
//!
//! To regenerate after an intentional change:
//! `UPDATE_GOLDENS=1 cargo test -p repro-bench --test golden_detection`

use hpcws_sim::online::{report_csv, OnlineDetector};
use hpcws_sim::{AnomalyKind, DetectionConfig};
use repro_suite::scenario;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    assert_eq!(
        actual, expected,
        "{name} drifted from its golden; run with UPDATE_GOLDENS=1 if intentional"
    );
}

#[test]
fn mpi_io_detection_reports_are_byte_stable() {
    // The Figure 7–9 campaign (job 2 carries the injected congestion
    // anomaly) runs with live detection on every job.
    let runs = iosim_apps::figdata::mpi_io_figure_runs(4, true);

    // Per-run (live) detections, jobs in execution order: the write
    // slowdown is caught in flight by each job's own detector.
    let live: Vec<hpcws_sim::DiagnosticEvent> = runs
        .results
        .iter()
        .flat_map(|r| r.detections.iter().cloned())
        .collect();
    assert!(
        live.iter()
            .any(|d| d.job_id == 302 && d.kind == AnomalyKind::DurationOutlier && d.op == "write"),
        "job 302's live write slowdown missing: {live:?}"
    );
    check("detection_jobs_quick.csv", &report_csv(&live));

    // The fleet pass flags the read anomaly the per-run detectors
    // structurally cannot see.
    let fleet = iosim_apps::figdata::fleet_detections(&runs);
    assert!(
        fleet
            .iter()
            .any(|d| d.job_id == 302 && d.kind == AnomalyKind::DurationOutlier && d.op == "read"),
        "job 302's reads must be a fleet-level outlier: {fleet:?}"
    );
    assert!(
        fleet.iter().all(|d| d.job_id == 302),
        "calm jobs must stay clean in the fleet pass: {fleet:?}"
    );
    check("detection_fleet_quick.csv", &report_csv(&fleet));
}

#[test]
fn scenario_corpus_report_is_byte_stable() {
    let mut all = Vec::new();
    for sc in scenario::corpus(1) {
        let mut det = OnlineDetector::new(DetectionConfig::default());
        for e in &sc.events {
            det.observe(e);
        }
        all.extend(det.finish());
    }
    assert!(!all.is_empty(), "the labeled corpus must trip the detector");
    check("detection_corpus.csv", &report_csv(&all));
}
