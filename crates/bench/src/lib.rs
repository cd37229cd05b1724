//! Shared plumbing for the table/figure regeneration binaries.
//!
//! Every binary accepts `--quick` (CI-scale workloads) and `--out DIR`
//! (write CSV exports next to the textual report). Paper-scale runs are
//! the default; they simulate hundreds of ranks and millions of events
//! and can take minutes of wall-clock time.

#![forbid(unsafe_code)]

use std::path::PathBuf;

/// Parsed command-line options shared by the harness binaries.
#[derive(Debug, Clone)]
pub struct HarnessOpts {
    /// Run CI-scale workloads instead of paper-scale.
    pub quick: bool,
    /// Output directory for CSV exports (created if missing).
    pub out: Option<PathBuf>,
}

impl HarnessOpts {
    /// Parses `std::env::args`. Unknown flags abort with usage help.
    pub fn from_args() -> Self {
        let mut quick = false;
        let mut out = None;
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--quick" => quick = true,
                "--out" => {
                    out = Some(PathBuf::from(
                        args.next().expect("--out requires a directory"),
                    ));
                }
                "--help" | "-h" => {
                    eprintln!("usage: [--quick] [--out DIR]");
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unknown flag {other}; usage: [--quick] [--out DIR]");
                    std::process::exit(2);
                }
            }
        }
        Self { quick, out }
    }

    /// The workload scale implied by the flags.
    pub fn scale(&self) -> iosim_apps::table2::Scale {
        if self.quick {
            iosim_apps::table2::Scale::Quick
        } else {
            iosim_apps::table2::Scale::Paper
        }
    }

    /// Writes an artifact file if `--out` was given.
    pub fn write_artifact(&self, name: &str, contents: &str) {
        if let Some(dir) = &self.out {
            std::fs::create_dir_all(dir).expect("create output dir");
            let path = dir.join(name);
            std::fs::write(&path, contents).expect("write artifact");
            eprintln!("wrote {}", path.display());
        }
    }
}

/// Paper reference values for side-by-side comparison in reports.
/// CSV renderings of the Figure 5–9 artifacts. One formatter per
/// figure, shared by the `fig5`..`fig9` binaries and the golden-file
/// tests — a figure CSV's byte layout is part of the published
/// interface, so the tests pin it against checked-in goldens.
pub mod figcsv {
    use hpcws_sim::dashboard;
    use hpcws_sim::figures::{NodeOps, OpOccurrence, RankDurations, TimePoint, Timeline};

    /// Figure 5: mean occurrences of each I/O operation, with 95% CI.
    pub fn fig5(occ: &[OpOccurrence]) -> String {
        let mut csv = String::from("op,mean,ci95\n");
        for o in occ {
            csv.push_str(&format!("{},{:.3},{:.3}\n", o.op, o.mean, o.ci95));
        }
        csv
    }

    /// Figure 6: open/close operations per compute node per job.
    pub fn fig6(ops: &[NodeOps]) -> String {
        let mut csv = String::from("node,job,op,count\n");
        for o in ops {
            csv.push_str(&format!("{},{},{},{}\n", o.node, o.job, o.op, o.count));
        }
        csv
    }

    /// Figure 7: mean read/write durations per rank per job.
    pub fn fig7(rd: &[RankDurations]) -> String {
        let mut csv = String::from("job,rank,op,mean_dur_s,count\n");
        for r in rd {
            csv.push_str(&format!(
                "{},{},{},{:.6},{}\n",
                r.job, r.rank, r.op, r.mean_dur, r.count
            ));
        }
        csv
    }

    /// Figure 8: operation durations over execution time.
    pub fn fig8(pts: &[TimePoint]) -> String {
        let mut csv = String::from("t_s,dur_s,op,rank\n");
        for p in pts {
            csv.push_str(&format!("{:.3},{:.6},{},{}\n", p.t, p.dur, p.op, p.rank));
        }
        csv
    }

    /// Figure 9: the Grafana-style timeline (delegates to the
    /// dashboard's canonical CSV form).
    pub fn fig9(tl: &Timeline) -> String {
        dashboard::timeline_to_csv(tl)
    }
}

pub mod paper {
    /// (config label, fs, avg messages, rate, darshan s, dC s, overhead %)
    pub(crate) type Row = (&'static str, &'static str, f64, f64, f64, f64, f64);

    /// Table IIa as printed in the paper.
    pub const TABLE2A: [Row; 4] = [
        ("collective", "NFS", 50390.0, 37.0, 1376.67, 1355.35, -1.55),
        ("independent", "NFS", 6397.0, 7.0, 880.46, 858.68, -2.47),
        ("collective", "Lustre", 25770.0, 95.0, 249.97, 270.98, 8.41),
        (
            "independent",
            "Lustre",
            15676.0,
            38.0,
            428.18,
            414.35,
            -3.23,
        ),
    ];

    /// Table IIb as printed in the paper.
    pub const TABLE2B: [Row; 4] = [
        (
            "5M particles/rank",
            "NFS",
            1663.0,
            2.0,
            882.46,
            775.24,
            -12.15,
        ),
        (
            "10M particles/rank",
            "NFS",
            1774.0,
            1.0,
            1353.87,
            1365.24,
            0.84,
        ),
        (
            "5M particles/rank",
            "Lustre",
            1995.0,
            3.0,
            417.14,
            467.24,
            12.01,
        ),
        (
            "10M particles/rank",
            "Lustre",
            1711.0,
            2.0,
            1616.87,
            1027.44,
            -36.45,
        ),
    ];

    /// Table IIc as printed in the paper.
    pub const TABLE2C: [Row; 2] = [
        (
            "Pfam-A.seed",
            "NFS",
            3_117_342.0,
            1483.0,
            749.88,
            2826.01,
            276.86,
        ),
        (
            "Pfam-A.seed",
            "Lustre",
            4_461_738.0,
            2396.0,
            135.40,
            1863.98,
            1276.67,
        ),
    ];

    /// The paper's no-format ablation overhead.
    pub const NOFORMAT_OVERHEAD_PCT: f64 = 0.37;

    /// Renders a reference block for a report.
    pub fn reference_block(rows: &[Row]) -> String {
        let mut out =
            String::from("paper reference (config, fs, msgs, rate, darshan_s, dc_s, overhead%):\n");
        for (label, fs, msgs, rate, d, dc, ov) in rows {
            out.push_str(&format!(
                "  {label:<22} {fs:<7} {msgs:>10.0} {rate:>7.1} {d:>9.2} {dc:>9.2} {ov:>+8.2}%\n"
            ));
        }
        out
    }
}

pub mod livehub {
    //! Shared live-diagnosis run: one MPI-IO job with an injected
    //! congestion storm, online detection riding the ingest stream
    //! *streaming* (windows close in-run behind the watermark
    //! frontier), and the diagnosis hub collecting health, fault,
    //! overload, snapshot, and detection events. Used by `iowatch`
    //! (the dashboard) and `pipestat` (the JSON export) so both tell
    //! the same story.

    use darshan_ldms_connector::TelemetryConfig;
    use iosim_apps::experiment::{run_job, Instrumentation, RunResult, RunSpec};
    use iosim_apps::figdata::estimate_write_phase_s;
    use iosim_apps::platform::FsChoice;
    use iosim_apps::workloads::MpiIoTest;
    use iosim_fs::CongestionWindow;
    use iosim_telemetry::HubConfig;
    use iosim_time::SimDuration;

    /// The hub cadence used by the live binaries (virtual seconds).
    pub const SNAPSHOT_EVERY_S: u64 = 5;

    /// The anomalous workload: a CI-scale MPI-IO job whose late write
    /// phase runs under a 1.5x congestion storm (the paper's job-2
    /// signature), detection windows sized to one write burst.
    pub fn workload(quick: bool) -> MpiIoTest {
        let mut a = MpiIoTest::tiny(false);
        a.iterations = 10;
        a.nodes = if quick { 2 } else { 4 };
        a.ranks_per_node = 4;
        a.block = 4 * 1024 * 1024;
        a
    }

    /// The spec for [`workload`]: store + hub-enabled telemetry +
    /// streaming detection + a congestion storm over the late writes.
    pub fn spec(app: &MpiIoTest, seed: u64) -> RunSpec {
        let writes_end = estimate_write_phase_s(app);
        let detection = hpcws_sim::DetectionConfig::default()
            .with_window_s((writes_end / 10.0).max(0.05))
            .with_outlier_factor(1.3);
        let base = RunSpec::calm(FsChoice::Lustre, Instrumentation::connector_default())
            .with_store(true)
            .with_telemetry(TelemetryConfig::trace_all().with_hub(HubConfig {
                snapshot_every_s: SNAPSHOT_EVERY_S,
            }))
            .with_detection(detection)
            .with_detection_alert_budget(writes_end * 2.0);
        let mut spec = base;
        spec.seed = seed;
        spec.job_id = 600 + seed;
        let t0 = spec.epoch_base;
        let storm_start = t0 + SimDuration::from_secs_f64(writes_end * 0.55);
        let storm_end = t0 + SimDuration::from_secs_f64(writes_end * 8.0 + 120.0);
        spec.with_congestion(CongestionWindow::storm(storm_start, storm_end, 1.5))
    }

    /// Runs the anomalous live-diagnosis job end to end.
    pub fn run(quick: bool, seed: u64) -> RunResult {
        let app = workload(quick);
        run_job(&app, &spec(&app, seed))
    }

    /// The hub's downsampled timeline as a JSON array (the
    /// `hub_timeline` family).
    pub fn timeline_json(hub: &iosim_telemetry::DiagHub) -> String {
        let rows = hub.timeline();
        let mut out = String::from("[");
        for (i, r) in rows.iter().enumerate() {
            out.push_str(&format!(
                "{}{{\"level\": {}, \"width_s\": {}, \"bucket_s\": {}, \"series\": \"{}\", \
                 \"last\": {:.6}, \"max\": {:.6}}}",
                if i == 0 { "" } else { ", " },
                r.level,
                r.width_s,
                r.bucket_s,
                r.series,
                r.last,
                r.max
            ));
        }
        out.push(']');
        out
    }

    /// The live detection stream as a JSON array (the
    /// `detection_live_stream` family): each finding with its virtual
    /// emit instant and whether it surfaced in-run.
    pub fn live_stream_json(live: &[iosim_apps::detect::LiveDetection]) -> String {
        let mut out = String::from("[");
        for (i, l) in live.iter().enumerate() {
            out.push_str(&format!(
                "{}{{\"kind\": \"{}\", \"severity\": \"{}\", \"job\": {}, \"rank\": {}, \
                 \"op\": \"{}\", \"onset_s\": {:.3}, \"detected_s\": {:.3}, \
                 \"emitted_s\": {:.3}, \"in_run\": {}}}",
                if i == 0 { "" } else { ", " },
                l.event.kind.as_str(),
                l.event.severity.as_str(),
                l.event.job_id,
                l.event
                    .rank
                    .map_or_else(|| "null".to_string(), |r| r.to_string()),
                l.event.op,
                l.event.onset,
                l.event.detected_at,
                l.emitted_s,
                l.in_run
            ));
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn livehub_run_streams_detections_through_the_hub() {
        let r = livehub::run(true, 1);
        assert!(!r.detections.is_empty(), "the storm must be detected");
        // The live stream carries exactly the oracle's findings.
        assert_eq!(r.live_detections.len(), r.detections.len());
        for d in &r.detections {
            assert!(r.live_detections.iter().any(|l| &l.event == d));
        }
        assert!(
            r.live_detections.iter().any(|l| l.in_run),
            "the storm should surface while ingest is still flowing"
        );
        let p = r.pipeline.as_ref().expect("connector run");
        let hub = p.telemetry().expect("telemetry on").diag().expect("hub on");
        assert!(hub.published() > 0, "hub saw events");
        assert!(
            !hub.timeline().is_empty(),
            "snapshot cadence filled the ring"
        );
        assert!(
            hub.events()
                .iter()
                .any(|e| matches!(e.kind, iosim_telemetry::HubEventKind::Detection(_))),
            "detections published to the hub"
        );
    }

    #[test]
    fn reference_block_renders_all_rows() {
        let block = paper::reference_block(&paper::TABLE2A);
        assert_eq!(block.lines().count(), 5);
        assert!(block.contains("collective"));
        assert!(block.contains("+8.41%"));
    }
}
