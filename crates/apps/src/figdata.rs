//! Figure experiments: run the jobs, pull the stored events out of
//! DSOS, and hand analysis-ready dataframes to `hpcws-sim`.

use crate::detect::{row_to_event, settle_replay};
use crate::experiment::{run_job, Instrumentation, RunSpec};
use crate::platform::FsChoice;
use crate::workloads::{HaccIo, MpiIoTest, Workload};
use darshan_ldms_connector::{Pipeline, COLUMNS};
use hpcws_sim::{DataFrame, DetectionConfig, DiagnosticEvent};
use iosim_fs::CongestionWindow;
use iosim_time::{Epoch, SimDuration};

/// Extracts all of a job's stored events as a dataframe with the
/// `darshan_data` column names.
pub(crate) fn job_frame(pipeline: &Pipeline, job_id: u64) -> DataFrame {
    let columns: Vec<String> = COLUMNS.iter().map(|&(n, _)| n.to_string()).collect();
    DataFrame::new(columns, pipeline.events_of_job(job_id))
}

/// Concatenates several jobs' events into one dataframe.
pub(crate) fn jobs_frame(runs: &[(u64, &Pipeline)]) -> DataFrame {
    let columns: Vec<String> = COLUMNS.iter().map(|&(n, _)| n.to_string()).collect();
    let mut rows = Vec::new();
    for &(job_id, pipeline) in runs {
        rows.extend(pipeline.events_of_job(job_id));
    }
    DataFrame::new(columns, rows)
}

/// One figure campaign's output: per-job ids and results.
pub struct FigureRuns {
    /// Job ids in execution order.
    pub job_ids: Vec<u64>,
    /// The per-job run results (each carries its pipeline).
    pub results: Vec<crate::experiment::RunResult>,
    /// The congestion windows injected per job (empty for healthy
    /// jobs) — exposed so analyses can correlate I/O behaviour against
    /// the known "system telemetry".
    pub congestion: Vec<Vec<CongestionWindow>>,
}

impl FigureRuns {
    /// All events of all jobs as one frame.
    pub fn frame(&self) -> DataFrame {
        let refs: Vec<(u64, &Pipeline)> = self
            .job_ids
            .iter()
            .zip(&self.results)
            .map(|(&j, r)| (j, r.pipeline.as_ref().expect("figure runs store events")))
            .collect();
        jobs_frame(&refs)
    }

    /// One job's events.
    pub fn job_frame(&self, index: usize) -> DataFrame {
        job_frame(
            self.results[index]
                .pipeline
                .as_ref()
                .expect("figure runs store events"),
            self.job_ids[index],
        )
    }
}

/// Replays every stored row of a figure campaign through one fleet-wide
/// detector. Cross-job baselines catch what no single run can: job
/// 302's reads are *uniformly* slow (its own read history never looks
/// anomalous to itself), but against the fleet's cached sub-millisecond
/// reads they are an outlier from the first judged window.
pub fn fleet_detections(runs: &FigureRuns) -> Vec<DiagnosticEvent> {
    let mut events = Vec::new();
    for (&job_id, r) in runs.job_ids.iter().zip(&runs.results) {
        let p = r.pipeline.as_ref().expect("figure runs store events");
        events.extend(
            p.events_of_job(job_id)
                .iter()
                .filter_map(|r| row_to_event(r)),
        );
    }
    // Fleet windows are sized so job 302's storm reads (~145 ms each)
    // still land several per window, while the two calm jobs that ran
    // before it each contribute a cached-read window to the fleet
    // baseline — hence the warm-up floor of two windows here.
    let cfg = DetectionConfig {
        baseline_min_windows: 2,
        ..DetectionConfig::default().with_window_s(0.05)
    };
    settle_replay(events, cfg).1
}

/// Figures 5–6 source: five HACC-IO jobs on Lustre with 10 M
/// particles/rank, events stored in DSOS.
pub fn hacc_figure_runs(jobs: u32, scale_ranks_down: bool) -> FigureRuns {
    let app = if scale_ranks_down {
        HaccIo {
            nodes: 4,
            ranks_per_node: 4,
            particles_per_rank: 200_000,
            path: "/scratch/hacc-io.fig".to_string(),
        }
    } else {
        HaccIo::paper_config(10_000_000)
    };
    run_figure_jobs(&app, FsChoice::Lustre, jobs, |_job_index, spec| spec)
}

/// Figures 7–9 source: five MPI-IO-TEST jobs on Lustre without
/// collective operations (the regime matching the paper's Figure 7:
/// ~50 s writes, ~0.05 s cached reads). Job index 2 gets the paper's
/// anomaly: a mild slowdown during its late write phases and a severe
/// storm during its read phase, so its reads average seconds instead
/// of the cached ~0.05 s and its writes stretch after ~250 s into the
/// run.
pub fn mpi_io_figure_runs(jobs: u32, scale_down: bool) -> FigureRuns {
    let app = if scale_down {
        let mut a = MpiIoTest::tiny(false);
        a.iterations = 10;
        a.nodes = 2;
        a.ranks_per_node = 4;
        a.block = 4 * 1024 * 1024;
        a
    } else {
        MpiIoTest::paper_config(FsChoice::Lustre, false)
    };
    let writes_end = estimate_write_phase_s(&app);
    // Online detection rides along on every figure job. Windows are
    // sized to one write burst (the app writes one block per rank per
    // iteration, ~10 bursts across the write phase), so ~5 calm
    // windows warm the baseline before job 2's storm at 55% of the
    // phase; the 1.3x outlier floor sits between calm jitter and the
    // storm's x1.5 write slowdown — calm jobs stay silent, job 2
    // alarms with its onset at the regime shift.
    let detection = hpcws_sim::DetectionConfig::default()
        .with_window_s((writes_end / 10.0).max(0.05))
        .with_outlier_factor(1.3);
    run_figure_jobs(&app, FsChoice::Lustre, jobs, move |job_index, spec| {
        let spec = spec.with_detection(detection.clone());
        if job_index == 2 {
            let t0 = spec.epoch_base;
            // One storm from 55% of the write phase through the end of
            // the job: late writes slow by x1.5, and the accompanying
            // memory pressure defeats the client caches, so the read
            // phase pays contended server reads instead of page-cache
            // hits — reads orders of magnitude slower, exactly the
            // paper's job-2 signature.
            let storm_start = t0 + SimDuration::from_secs_f64(writes_end * 0.55);
            let storm_end = t0 + SimDuration::from_secs_f64(writes_end * 8.0 + 120.0);
            spec.with_congestion(CongestionWindow::storm(storm_start, storm_end, 1.5))
        } else {
            spec
        }
    })
}

/// Rough duration of the independent write phase, for placing the
/// congestion windows: total bytes over the Lustre OSTs' effective
/// bandwidth under the many-clients penalty. The analysis reads actual
/// timestamps from DSOS, so the placement only needs to land in the
/// right regime.
pub fn estimate_write_phase_s(app: &MpiIoTest) -> f64 {
    let total_bytes = app.block as f64 * f64::from(app.ranks()) * f64::from(app.iterations);
    let p = crate::platform::voltrino_lustre_params();
    let mut bw = p.ost_bw * f64::from(p.ost_count.min(p.stripe_count * app.ranks()));
    if app.ranks() > p.many_clients_threshold {
        bw /= p.many_clients_penalty;
    }
    total_bytes / bw
}

fn run_figure_jobs<F>(app: &dyn Workload, fs: FsChoice, jobs: u32, customize: F) -> FigureRuns
where
    F: Fn(u32, RunSpec) -> RunSpec,
{
    let mut job_ids = Vec::new();
    let mut results = Vec::new();
    let mut congestion = Vec::new();
    for j in 0..jobs {
        let job_id = 300 + u64::from(j);
        let spec = RunSpec::calm(fs, Instrumentation::connector_default())
            .with_store(true)
            .with_job_id(job_id)
            .with_seed(4000 + u64::from(j))
            .with_epoch(Epoch::from_secs(1_655_300_000 + u64::from(j) * 7_200))
            // Calm weather: per-job variability comes from the seeded
            // jitter, keeping the congestion windows aligned with the
            // job's actual phases.
            .with_jitter(0.05);
        let spec = customize(j, spec);
        job_ids.push(job_id);
        congestion.push(spec.congestion.clone());
        results.push(run_job(app, &spec));
    }
    FigureRuns {
        job_ids,
        results,
        congestion,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcws_sim::figures;

    #[test]
    fn hacc_frames_feed_fig5_and_fig6() {
        let runs = hacc_figure_runs(3, true);
        let df = runs.frame();
        assert!(!df.is_empty());
        let occ = figures::op_occurrence(&df);
        let ops: Vec<&str> = occ.iter().map(|o| o.op.as_str()).collect();
        for expected in ["open", "close", "read", "write"] {
            assert!(ops.contains(&expected), "missing op {expected}");
        }
        // Every op occurs the same number of times in every HACC job
        // (deterministic workload) → near-zero CI.
        let opens = occ.iter().find(|o| o.op == "open").unwrap();
        assert_eq!(opens.per_job.len(), 3);
        let nodes = figures::per_node_ops(&df, &["open", "close"]);
        assert!(!nodes.is_empty());
        // 4 nodes × 3 jobs × 2 ops
        assert_eq!(nodes.len(), 4 * 3 * 2);
    }

    #[test]
    fn mpi_io_job2_anomaly_is_visible() {
        let runs = mpi_io_figure_runs(4, true);
        let df = runs.frame();
        let read_means = figures::job_mean_durations(&df, "read");
        assert_eq!(read_means.len(), 4);
        let job2 = read_means
            .iter()
            .find(|&&(j, _)| j == 302)
            .map(|&(_, m)| m)
            .unwrap();
        let others: Vec<f64> = read_means
            .iter()
            .filter(|&&(j, _)| j != 302)
            .map(|&(_, m)| m)
            .collect();
        let normal = iosim_util::stats::mean(&others);
        assert!(
            job2 > normal * 10.0,
            "job 2 reads must be anomalous: {job2} vs {normal}"
        );
    }

    #[test]
    fn online_detector_flags_job2_live_with_onset_in_the_storm_window() {
        let runs = mpi_io_figure_runs(4, true);
        // Calm jobs raise no alarm at all.
        for (i, r) in runs.results.iter().enumerate() {
            if runs.job_ids[i] != 302 {
                assert!(
                    r.detections.is_empty(),
                    "job {} must stay silent: {:?}",
                    runs.job_ids[i],
                    r.detections
                );
            }
        }
        // Job 302's write slowdown is caught in flight...
        let anomalous = &runs.results[2];
        let hit = anomalous
            .detections
            .iter()
            .find(|d| d.kind == hpcws_sim::AnomalyKind::DurationOutlier && d.op == "write")
            .expect("job 302's write slowdown must be detected");
        assert_eq!(hit.job_id, 302);
        // ...with an onset inside the injected storm window (up to one
        // statistics window of quantization on the leading edge).
        let app = {
            let mut a = MpiIoTest::tiny(false);
            a.iterations = 10;
            a.nodes = 2;
            a.ranks_per_node = 4;
            a.block = 4 * 1024 * 1024;
            a
        };
        let writes_end = estimate_write_phase_s(&app);
        let window_s = (writes_end / 10.0).max(0.05);
        let t0 = 1_655_300_000.0 + 2.0 * 7_200.0;
        let storm_start = t0 + writes_end * 0.55;
        let storm_end = t0 + writes_end * 8.0 + 120.0;
        assert!(
            hit.onset >= storm_start - window_s && hit.onset <= storm_end,
            "onset {} outside storm [{storm_start}, {storm_end}] (window {window_s})",
            hit.onset
        );
        assert!(hit.observed > hit.baseline);
        // The same findings ride the lint report as TRC011.
        assert!(
            anomalous.trace_report.codes().contains("TRC011"),
            "{}",
            anomalous.trace_report.render_text()
        );
    }
}
