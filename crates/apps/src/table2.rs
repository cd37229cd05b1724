//! The Table II measurement campaigns.
//!
//! Protocol (Section VI.A): every configuration runs 5 times with
//! stock Darshan and 5 times with the Darshan-LDMS Connector; the two
//! batches run under *different file-system weather* ("the runtimes
//! with Darshan only was performed and recorded 1-2 weeks before the
//! experiments with the Darshan-LDMS Connector"), which is how negative
//! overheads appear. Reported per configuration: the mean connector
//! message count, the message rate, both mean runtimes, and the percent
//! overhead.

use crate::experiment::{run_job, Instrumentation, RunSpec};
use crate::platform::FsChoice;
use crate::workloads::{HaccIo, Hmmer, MpiIoTest, Workload};
use darshan_ldms_connector::{ConnectorConfig, FormatMode};
use iosim_time::Epoch;
use iosim_util::stats::{mean, percent_overhead};
use iosim_util::table::TextTable;

/// Result of one configuration's campaign.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Configuration label (e.g. "Lustre/collective").
    pub label: String,
    /// Target file system.
    pub fs: FsChoice,
    /// Mean messages per connector run ("Avg. Messages").
    pub avg_messages: f64,
    /// Messages per second ("Rate (msgs/sec)").
    pub rate: f64,
    /// Mean runtime of the Darshan-only batch (s).
    pub darshan_runtime: f64,
    /// Mean runtime of the connector batch (s).
    pub dc_runtime: f64,
    /// Percent overhead of the connector.
    pub overhead_pct: f64,
}

/// Campaign protocol parameters.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Repetitions per batch (paper: 5).
    pub reps: u32,
    /// Weather seed of the (earlier) Darshan-only batch.
    pub darshan_campaign_seed: u64,
    /// Weather seed of the connector batch.
    pub dc_campaign_seed: u64,
    /// Start epoch of the connector batch; the Darshan-only batch is
    /// anchored 12 days earlier.
    pub base_epoch: Epoch,
    /// Spacing between repetitions (different times of day).
    pub epoch_stride_s: u64,
    /// Connector configuration for the dC batch.
    pub connector: ConnectorConfig,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        Self {
            reps: 5,
            darshan_campaign_seed: 20_220_603,
            dc_campaign_seed: 20_220_680,
            base_epoch: Epoch::from_secs(1_655_208_000), // 2022-06-14
            epoch_stride_s: 7_200,
            connector: ConnectorConfig::default(),
        }
    }
}

const TWELVE_DAYS_S: u64 = 12 * 86_400;

/// Runs the two batches for one configuration.
pub(crate) fn run_campaign(
    app: &dyn Workload,
    fs: FsChoice,
    label: &str,
    opts: &CampaignOptions,
) -> CampaignResult {
    let mut darshan_runtimes = Vec::with_capacity(opts.reps as usize);
    let mut dc_runtimes = Vec::with_capacity(opts.reps as usize);
    let mut messages = Vec::with_capacity(opts.reps as usize);

    // Each configuration's jobs left the batch queue at their own time
    // of day (the paper never interleaved or aligned its runs) — derive
    // a per-config submission offset so different configurations sample
    // different parts of the diurnal load curve, which is what mixes
    // the overhead signs in Table II.
    let config_offset_s =
        (iosim_util::fnv1a64(format!("{}/{label}", fs.name()).as_bytes()) % 24) * 3_600;

    for rep in 0..u64::from(opts.reps) {
        // Darshan-only batch: 12 days earlier, different weather.
        let base_epoch = Epoch::from_secs(
            opts.base_epoch.as_nanos() / 1_000_000_000 - TWELVE_DAYS_S
                + config_offset_s
                + rep * opts.epoch_stride_s,
        );
        let spec = RunSpec::calm(fs, Instrumentation::DarshanOnly)
            .with_campaign(opts.darshan_campaign_seed)
            .with_epoch(base_epoch)
            .with_seed(1000 + rep)
            .with_job_id(100 + rep)
            .with_jitter(0.05);
        darshan_runtimes.push(run_job(app, &spec).runtime_s);

        // Connector batch.
        let epoch = Epoch::from_secs(
            opts.base_epoch.as_nanos() / 1_000_000_000
                + config_offset_s
                + rep * opts.epoch_stride_s,
        );
        let spec = RunSpec::calm(fs, Instrumentation::Connector(opts.connector.clone()))
            .with_campaign(opts.dc_campaign_seed)
            .with_epoch(epoch)
            .with_seed(2000 + rep)
            .with_job_id(200 + rep)
            .with_jitter(0.05);
        let r = run_job(app, &spec);
        messages.push(r.messages as f64);
        dc_runtimes.push(r.runtime_s);
    }

    let darshan_runtime = mean(&darshan_runtimes);
    let dc_runtime = mean(&dc_runtimes);
    let avg_messages = mean(&messages);
    CampaignResult {
        label: label.to_string(),
        fs,
        avg_messages,
        rate: if dc_runtime > 0.0 {
            avg_messages / dc_runtime
        } else {
            0.0
        },
        darshan_runtime,
        dc_runtime,
        overhead_pct: percent_overhead(darshan_runtime, dc_runtime),
    }
}

/// Renders campaign results in the paper's Table II layout.
pub fn render(title: &str, results: &[CampaignResult]) -> String {
    let mut t = TextTable::new(vec![
        "Config",
        "File System",
        "Avg. Messages",
        "Rate (msgs/sec)",
        "Darshan (s)",
        "dC (s)",
        "% Overhead",
    ]);
    for r in results {
        t.row(vec![
            r.label.clone(),
            r.fs.name().to_string(),
            format!("{:.0}", r.avg_messages),
            format!("{:.1}", r.rate),
            format!("{:.2}", r.darshan_runtime),
            format!("{:.2}", r.dc_runtime),
            format!("{:+.2}%", r.overhead_pct),
        ]);
    }
    format!("## {title}\n{}", t.render())
}

/// Scale of a campaign: `Paper` reproduces the full Section V setup,
/// `Quick` shrinks the workloads (same structure, far fewer
/// ranks/bytes/events) for CI-speed runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Full paper-scale workloads.
    Paper,
    /// CI-scale workloads.
    Quick,
}

fn mpi_io_config(fs: FsChoice, collective: bool, scale: Scale) -> MpiIoTest {
    match scale {
        Scale::Paper => MpiIoTest::paper_config(fs, collective),
        Scale::Quick => {
            let mut app = MpiIoTest::paper_config(fs, collective);
            app.nodes = 4;
            app.ranks_per_node = 4;
            app.iterations = 4;
            app.block = 4 * 1024 * 1024;
            app.hints.cb_nodes = 4;
            app.hints.cb_buffer_size = 4 * 1024 * 1024;
            app.hints.sieve_size = 1024 * 1024;
            app
        }
    }
}

fn hacc_config(particles: u64, scale: Scale) -> HaccIo {
    match scale {
        Scale::Paper => HaccIo::paper_config(particles),
        Scale::Quick => HaccIo {
            nodes: 4,
            ranks_per_node: 4,
            particles_per_rank: particles / 50,
            path: "/scratch/hacc-io.quick".to_string(),
        },
    }
}

fn hmmer_config(scale: Scale) -> Hmmer {
    match scale {
        Scale::Paper => Hmmer::paper_config(),
        Scale::Quick => {
            let mut app = Hmmer::paper_config();
            app.ranks = 8;
            app.families = 400;
            app.sequences = 30_000;
            app.compute_s_per_family = 0.18 * 49.0; // keep compute share
            app
        }
    }
}

/// Table IIa: MPI-IO-TEST, {NFS, Lustre} × {collective, independent}.
pub fn table2a(scale: Scale, opts: &CampaignOptions) -> Vec<CampaignResult> {
    let mut out = Vec::new();
    for fs in FsChoice::both() {
        for collective in [true, false] {
            let app = mpi_io_config(fs, collective, scale);
            let label = if collective {
                "collective"
            } else {
                "independent"
            };
            out.push(run_campaign(&app, fs, label, opts));
        }
    }
    out
}

/// Table IIb: HACC-IO, {NFS, Lustre} × {5M, 10M particles/rank}.
pub fn table2b(scale: Scale, opts: &CampaignOptions) -> Vec<CampaignResult> {
    let mut out = Vec::new();
    for fs in FsChoice::both() {
        for particles in [5_000_000u64, 10_000_000] {
            let app = hacc_config(particles, scale);
            let label = format!("{}M particles/rank", particles / 1_000_000);
            out.push(run_campaign(&app, fs, &label, opts));
        }
    }
    out
}

/// Table IIc: HMMER on both file systems, plus the no-format ablation
/// (paper: 0.37 % with only the LDMS send enabled).
pub fn table2c(scale: Scale, opts: &CampaignOptions) -> Vec<CampaignResult> {
    let app = hmmer_config(scale);
    let mut out = Vec::new();
    for fs in FsChoice::both() {
        out.push(run_campaign(&app, fs, "Pfam-A.seed", opts));
    }
    // Ablation: formatting disabled, LDMS publish only. Scheduled under
    // the same label (hence the same submission offset and weather) as
    // the full-format arm, so the comparison isolates formatting — the
    // paper's 0.37% claim is about the connector, not the weather.
    let mut ablation_opts = opts.clone();
    ablation_opts.connector.format_mode = FormatMode::NoFormat;
    for fs in FsChoice::both() {
        let mut r = run_campaign(&app, fs, "Pfam-A.seed", &ablation_opts);
        r.label = "Pfam-A.seed (no-format)".to_string();
        out.push(r);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> CampaignOptions {
        CampaignOptions {
            reps: 2,
            ..Default::default()
        }
    }

    /// A miniature Table IIc: the same campaign protocol on a
    /// test-sized HMMER, checking the formatting-vs-no-format contrast.
    #[test]
    fn hmmer_mini_campaign_shows_formatting_blowup() {
        let mut app = crate::workloads::Hmmer::tiny();
        app.families = 100;
        app.sequences = 2_000;
        let opts = quick_opts();
        let mut results = Vec::new();
        for fs in FsChoice::both() {
            results.push(run_campaign(&app, fs, "mini", &opts));
        }
        let mut noformat = opts.clone();
        noformat.connector.format_mode = FormatMode::NoFormat;
        for fs in FsChoice::both() {
            // Same label => same per-config submission offset => the
            // two ablation arms run under identical weather, isolating
            // the formatting effect from the campaign artefact.
            results.push(run_campaign(&app, fs, "mini", &noformat));
        }
        assert_eq!(results.len(), 4);
        let nfs_json = &results[0];
        let nfs_raw = &results[2];
        // Full formatting inflates runtime dramatically; no-format does
        // not (paper: 276.9% vs 0.37%). Weather cancels between the two
        // arms (same seeds, same epochs), so compare dC runtimes
        // directly.
        assert!(
            nfs_json.dc_runtime > nfs_raw.dc_runtime * 1.5,
            "JSON formatting must dominate: {:.2}s vs {:.2}s",
            nfs_json.dc_runtime,
            nfs_raw.dc_runtime
        );
        assert!(
            nfs_json.overhead_pct > nfs_raw.overhead_pct + 50.0,
            "formatting should add >50 points of overhead: {:.2}% vs {:.2}%",
            nfs_json.overhead_pct,
            nfs_raw.overhead_pct
        );
        assert!(nfs_json.avg_messages > 0.0);
        assert_eq!(nfs_json.avg_messages, nfs_raw.avg_messages);
    }

    #[test]
    fn render_produces_all_rows() {
        let results = vec![CampaignResult {
            label: "x".into(),
            fs: FsChoice::Nfs,
            avg_messages: 100.0,
            rate: 5.0,
            darshan_runtime: 10.0,
            dc_runtime: 11.0,
            overhead_pct: 10.0,
        }];
        let text = render("Table IIa", &results);
        assert!(text.contains("Table IIa"));
        assert!(text.contains("+10.00%"));
        assert!(text.contains("NFS"));
    }
}
