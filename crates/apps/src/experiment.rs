//! Running one job through the full measurement pipeline.

use crate::platform::{FsChoice, Platform};
use crate::stack::DarshanStack;
use crate::workloads::Workload;
use darshan_ldms_connector::{
    Completeness, ConnectorConfig, DarshanConnector, DeliveryMode, LatencySummary, Pipeline,
    PipelineOpts, RecoveryReport, TelemetryConfig,
};
use darshan_sim::log::write_log;
use darshan_sim::runtime::JobMeta;
use iolint::{check_pipeline_topology, check_pipeline_trace, LintConfig, TraceLintOpts};
use iosim_fs::stats::FsStatsSnapshot;
use iosim_fs::CongestionWindow;
use iosim_mpi::{Job, JobParams};
use iosim_time::{Epoch, SimDuration};
use parking_lot::Mutex;
use std::sync::Arc;

/// Whether a run is a Darshan-only baseline or carries the connector.
#[derive(Debug, Clone)]
pub enum Instrumentation {
    /// Stock Darshan: counters + DXT + log, no streaming.
    DarshanOnly,
    /// Darshan with the Darshan-LDMS Connector attached.
    Connector(ConnectorConfig),
}

impl Instrumentation {
    /// Connector with default configuration.
    pub fn connector_default() -> Self {
        Instrumentation::Connector(ConnectorConfig::default())
    }

    /// Connector that stages each rank's publishes and merges them
    /// deterministically after the run ([`DeliveryMode::Deferred`]).
    pub fn connector_deferred() -> Self {
        Instrumentation::Connector(ConnectorConfig {
            delivery: DeliveryMode::Deferred,
            ..ConnectorConfig::default()
        })
    }

    /// True for connector runs.
    pub(crate) fn is_connector(&self) -> bool {
        matches!(self, Instrumentation::Connector(_))
    }
}

/// Specification of one job run.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Target file system.
    pub fs: FsChoice,
    /// Baseline or connector.
    pub instrumentation: Instrumentation,
    /// Scheduler job id.
    pub job_id: u64,
    /// Seed for per-rank jitter.
    pub seed: u64,
    /// Job start time.
    pub epoch_base: Epoch,
    /// Campaign weather seed (`None` = calm weather, used by tests).
    pub campaign_seed: Option<u64>,
    /// Congestion windows to inject (the Figure 7–9 job-2 anomaly).
    pub congestion: Vec<CongestionWindow>,
    /// The monitoring pipeline the run builds for connector runs: DSOS
    /// cluster, retry queues, faults, standby L1, WAL, overload control
    /// and replication, passed to [`Pipeline::build_with`] as it is.
    /// `attach_store` is off in [`RunSpec::calm`] (overhead runs drop
    /// payloads at L2). Its `telemetry` must stay `None`: the run's one
    /// telemetry switch is [`RunSpec::telemetry`].
    pub pipeline: PipelineOpts,
    /// Jitter half-width for I/O durations.
    pub jitter: f64,
    /// Pipeline self-telemetry policy (`None` by default — the run is
    /// byte-identical to an uninstrumented one).
    pub telemetry: Option<TelemetryConfig>,
    /// Online anomaly detection over the live ingest stream (`None`
    /// by default — the run is byte-identical to an untapped one).
    /// Detection always runs *streaming*: the canonical set lands in
    /// [`RunResult::detections`], the same findings with their emit
    /// instants in [`RunResult::live_detections`], and when the spec
    /// also enables the diagnosis hub (`telemetry` with a `hub`
    /// policy) each finding publishes to the hub as it is emitted.
    pub detection: Option<hpcws_sim::DetectionConfig>,
    /// Advisory budget (virtual seconds) from an anomaly's ground
    /// onset to its emission on the live stream; a detection run
    /// exceeding it draws the `TRC013` lint warning. Ignored without
    /// `detection`.
    pub detection_alert_budget_s: Option<f64>,
}

impl RunSpec {
    /// A calm-weather spec for tests and calibration.
    pub fn calm(fs: FsChoice, instrumentation: Instrumentation) -> Self {
        Self {
            fs,
            instrumentation,
            job_id: 259_903,
            seed: 7,
            epoch_base: Epoch::from_secs(1_650_000_000),
            campaign_seed: None,
            congestion: Vec::new(),
            pipeline: PipelineOpts {
                attach_store: false,
                ..PipelineOpts::default()
            },
            jitter: 0.0,
            telemetry: None,
            detection: None,
            detection_alert_budget_s: None,
        }
    }

    /// Sets the job id (figures run several jobs).
    pub(crate) fn with_job_id(mut self, job_id: u64) -> Self {
        self.job_id = job_id;
        self
    }

    /// Sets the jitter seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the job start epoch.
    pub(crate) fn with_epoch(mut self, epoch_base: Epoch) -> Self {
        self.epoch_base = epoch_base;
        self
    }

    /// Sets the campaign weather seed.
    pub(crate) fn with_campaign(mut self, seed: u64) -> Self {
        self.campaign_seed = Some(seed);
        self
    }

    /// Enables or disables DSOS storage.
    pub fn with_store(mut self, store: bool) -> Self {
        self.pipeline.attach_store = store;
        self
    }

    /// Adds a congestion window.
    pub fn with_congestion(mut self, w: CongestionWindow) -> Self {
        self.congestion.push(w);
        self
    }

    /// Sets the jitter half-width.
    pub fn with_jitter(mut self, jitter: f64) -> Self {
        self.jitter = jitter;
        self
    }

    /// Enables pipeline self-telemetry with the given policy.
    pub fn with_telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Enables online anomaly detection with the given thresholds.
    pub fn with_detection(mut self, cfg: hpcws_sim::DetectionConfig) -> Self {
        self.detection = Some(cfg);
        self
    }

    /// Sets the advisory onset-to-emission alert budget (`TRC013`).
    pub fn with_detection_alert_budget(mut self, budget_s: f64) -> Self {
        self.detection_alert_budget_s = Some(budget_s);
        self
    }
}

/// Everything one run produces.
pub struct RunResult {
    /// Job runtime in virtual seconds (the paper's "Average Runtime"
    /// measures the mean of this over five runs).
    pub runtime_s: f64,
    /// Stream messages published by the connector (0 for baselines).
    pub messages: u64,
    /// Messages actually put on the wire — equals `messages` unbatched;
    /// the frame count when batching coalesces events.
    pub wire_messages: u64,
    /// Messages per rank, rank-indexed.
    pub rank_messages: Vec<u64>,
    /// Messages per second of job runtime.
    pub msg_rate: f64,
    /// I/O events Darshan detected across all ranks.
    pub events_seen: u64,
    /// Stream messages the pipeline lost end to end (0 for baselines
    /// and for fault-free connector runs with a store attached). The
    /// per-hop attribution lives in the pipeline's delivery ledger.
    pub messages_lost: u64,
    /// Event mass delivered at summary fidelity instead of as
    /// individual rows (0 unless an overload controller degraded into
    /// adaptive sampling under storm load).
    pub messages_summarized: u64,
    /// Achieved accuracy: individually-delivered fraction of the event
    /// mass that reached the store (`1.0` when nothing was summarized).
    pub accuracy: f64,
    /// File-system traffic counters.
    pub fs_stats: FsStatsSnapshot,
    /// The monitoring pipeline (present for connector runs; carries
    /// the DSOS cluster for figure queries).
    pub pipeline: Option<Pipeline>,
    /// The Darshan log written at job end.
    pub log_bytes: Vec<u8>,
    /// Pre-flight topology diagnostics, computed before any message
    /// flows (empty for baselines). Unstored overhead runs legitimately
    /// report `TOP004` here: the terminal daemon drops everything.
    pub topology_report: iolint::Report,
    /// Post-run trace diagnostics over the stored events, with
    /// sequence gaps reconciled against the delivery ledger (empty for
    /// baselines and unstored runs).
    pub trace_report: iolint::Report,
    /// Crash-recovery counters for the run: WAL replays, failovers,
    /// suppressed duplicates (all zero on the default fault-free path
    /// and for baselines).
    pub recovery: RecoveryReport,
    /// Hop-level latency digest over the sampled traces (empty unless
    /// the spec enabled telemetry).
    pub latency: LatencySummary,
    /// Post-settle completeness report for the event container:
    /// quorum-acked rows, rows provably unavailable under the fault
    /// schedule, per-shard liveness (`None` for baselines and unstored
    /// runs).
    pub completeness: Option<Completeness>,
    /// Online detections over the run's ingest stream, sorted by
    /// onset (empty unless the spec enabled detection; the same
    /// findings ride in [`RunResult::trace_report`] as
    /// `TRC010`–`TRC012`). Always the settle-replay oracle's output:
    /// that of an engine fed the run's whole ingest log in
    /// [`event_cmp`](crate::detect::event_cmp) order.
    pub detections: Vec<hpcws_sim::DiagnosticEvent>,
    /// The live stream: the same detection set with per-finding emit
    /// instants (empty unless the spec enabled detection; filled with
    /// or without a diagnosis hub). Contains exactly the events of
    /// `detections`.
    pub live_detections: Vec<crate::detect::LiveDetection>,
}

/// Runs one job to completion through the full stack.
pub fn run_job(app: &dyn Workload, spec: &RunSpec) -> RunResult {
    let fs = Platform::filesystem(spec.fs, spec.campaign_seed, &spec.congestion);
    fs.set_active_clients(app.io_clients());

    assert!(
        spec.pipeline.telemetry.is_none(),
        "set telemetry through RunSpec::telemetry, not RunSpec::pipeline.telemetry"
    );
    let pipeline = if spec.instrumentation.is_connector() {
        Some(Pipeline::build_with(
            &Platform::node_names(app.nodes()),
            &PipelineOpts {
                telemetry: spec.telemetry,
                ..spec.pipeline.clone()
            },
        ))
    } else {
        None
    };

    // Run-time detection taps the store's terminal ingest path
    // off-path: the observer only reads row batches, so the storage
    // path is byte-identical whether or not the tap is attached.
    // Windows close in-run behind the watermark frontier of the ranks
    // that do I/O (one on a master-worker job) and findings publish to
    // the diagnosis hub (when the spec has one) at their ingest
    // instants; the canonical detection set is the settle-replay
    // oracle's either way.
    let detector_tap = match (pipeline.as_ref(), &spec.detection) {
        (Some(p), Some(cfg)) => {
            let hub = p.telemetry().and_then(|t| t.diag()).cloned();
            let io_ranks = u64::from(app.io_clients());
            let tap = crate::detect::LiveDetectorTap::new(cfg.clone(), io_ranks, hub);
            p.store().attach_observer(tap.clone());
            Some(tap)
        }
        _ => None,
    };

    // Pre-flight: statically validate the topology (including the
    // chaos script's downtime windows) before a single message flows.
    let topology_report = pipeline.as_ref().map_or_else(iolint::Report::default, |p| {
        check_pipeline_topology(p, &LintConfig::new())
    });

    let job = JobMeta::new(spec.job_id, 99_066, app.exe(), app.ranks());
    let params = JobParams {
        ranks: app.ranks(),
        ranks_per_node: app.ranks_per_node(),
        seed: spec.seed,
        epoch_base: spec.epoch_base,
        interconnect: Platform::interconnect(),
        jitter: spec.jitter,
        first_node: Platform::FIRST_NODE,
    };

    let per_rank: Mutex<Vec<(u32, u64, u64, u64)>> = Mutex::new(Vec::new());
    let snapshots = Mutex::new(Vec::new());
    let connectors: Mutex<Vec<(u32, Arc<DarshanConnector>)>> = Mutex::new(Vec::new());
    let report = Job::run(params, |ctx| {
        let rank = ctx.rank();
        let connector = pipeline.as_ref().map(|p| {
            let cfg = match &spec.instrumentation {
                Instrumentation::Connector(cfg) => cfg.clone(),
                Instrumentation::DarshanOnly => unreachable!("pipeline only built for connector"),
            };
            p.connector_for_rank(cfg, job.clone(), ctx.io.producer_name())
        });
        let stats = connector.as_ref().map(|c| c.stats());
        let sink = connector
            .clone()
            .map(|c| c as Arc<dyn darshan_sim::EventSink>);
        let stack = DarshanStack::new(fs.clone(), job.clone(), rank, sink);
        app.run_rank(ctx, &stack)
            .unwrap_or_else(|e| panic!("rank {rank} I/O failed: {e}"));
        if let Some(c) = connector {
            // Rank end: flush any partially-filled batch frame so no
            // frame outlives its publisher, and keep the connector for
            // deferred-outbox collection.
            c.flush();
            connectors.lock().push((rank, c));
        }
        let fired = stack.rt.events_fired();
        let published = stats.as_ref().map_or(0, |s| s.published());
        let wire = stats.map_or(0, |s| s.wire());
        per_rank.lock().push((rank, published, fired, wire));
        snapshots.lock().push(stack.finalize());
    });

    let runtime_s = report.elapsed.as_secs_f64();

    // Deferred delivery: every rank buffered its publishes into a
    // rank-local outbox instead of contending on the pipeline. Merge
    // the outboxes deterministically — stable-sorted by (publish
    // instant, rank), which is independent of thread interleaving
    // because each outbox is already in that rank's program order —
    // and inject them sequentially.
    if let (Some(p), Instrumentation::Connector(cfg)) = (pipeline.as_ref(), &spec.instrumentation) {
        if cfg.delivery == DeliveryMode::Deferred {
            let mut connectors = connectors.into_inner();
            connectors.sort_by_key(|&(r, _)| r);
            let mut staged = Vec::new();
            for (rank, c) in &connectors {
                staged.extend(c.take_outbox().into_iter().map(|m| (*rank, m)));
            }
            staged.sort_by_key(|(rank, m)| (m.recv_time, *rank));
            for (_, msg) in staged {
                p.network().publish(msg);
            }
        }
    }

    // Run the pipeline to quiescence: drain retry queues up to one
    // minute of virtual time past job end, abandoning (and attributing)
    // whatever cannot be delivered by then. After this the delivery
    // ledger balances exactly. A no-op for fault-free best-effort runs.
    let horizon =
        spec.epoch_base + SimDuration::from_secs_f64(runtime_s) + SimDuration::from_secs(60);
    let (messages_lost, messages_summarized, accuracy) =
        pipeline.as_ref().map_or((0, 0, 1.0), |p| {
            p.settle(horizon);
            let ledger = p.ledger();
            (ledger.total_lost(), ledger.summarized(), ledger.accuracy())
        });

    // Post-settle completeness: what fraction of the quorum-acked rows
    // a degraded query can still prove reachable.
    let completeness = match pipeline.as_ref() {
        Some(p) if spec.pipeline.attach_store => Some(p.store_completeness(horizon)),
        _ => None,
    };

    // Distill the sampled traces into a per-run latency digest before
    // linting, so the budget check sees the settled pipeline.
    let latency = pipeline
        .as_ref()
        .and_then(|p| p.telemetry())
        .map(|t| t.latency_summary())
        .unwrap_or_default();

    // Close the tapped ingest stream: the settled pipeline has
    // delivered everything it ever will, so the virtual-time order is
    // total and the detections deterministic. The tap additionally
    // yields the emit-instant stream its in-run engine produced.
    let (detections, live_detections) = detector_tap.map_or_else(Default::default, |t| {
        let out = t.finalize(horizon);
        (out.detections, out.live)
    });

    // Post-run: lint the stored trace, reconciling sequence gaps
    // against the delivery ledger. Only meaningful with a store.
    let mut trace_report = match pipeline.as_ref() {
        Some(p) if spec.pipeline.attach_store => {
            check_pipeline_trace(p, &TraceLintOpts::default(), &LintConfig::new())
        }
        _ => iolint::Report::default(),
    };
    if !detections.is_empty() {
        trace_report.merge(iolint::check_detections(&detections, &LintConfig::new()));
    }
    if let Some(budget_s) = spec.detection_alert_budget_s {
        let latencies: Vec<(String, f64)> = live_detections
            .iter()
            .map(|l| {
                (
                    format!(
                        "{} job {} {}",
                        l.event.kind.as_str(),
                        l.event.job_id,
                        l.event.op
                    ),
                    l.emitted_s - l.event.onset,
                )
            })
            .collect();
        trace_report.merge(iolint::check_detection_latency(
            &latencies,
            budget_s,
            &LintConfig::new(),
        ));
    }

    let mut per_rank = per_rank.into_inner();
    per_rank.sort_by_key(|&(r, _, _, _)| r);
    let rank_messages: Vec<u64> = per_rank.iter().map(|&(_, m, _, _)| m).collect();
    let messages: u64 = rank_messages.iter().sum();
    let events_seen: u64 = per_rank.iter().map(|&(_, _, e, _)| e).sum();
    let wire_messages: u64 = per_rank.iter().map(|&(_, _, _, w)| w).sum();

    let snapshots = snapshots.into_inner();
    let log_bytes = write_log(
        &job,
        spec.epoch_base.as_secs_f64(),
        spec.epoch_base.as_secs_f64() + runtime_s,
        &snapshots,
    );

    let recovery = pipeline
        .as_ref()
        .map_or_else(RecoveryReport::default, |p| p.recovery_report());

    RunResult {
        runtime_s,
        messages,
        wire_messages,
        rank_messages,
        msg_rate: if runtime_s > 0.0 {
            messages as f64 / runtime_s
        } else {
            0.0
        },
        events_seen,
        messages_lost,
        messages_summarized,
        accuracy,
        fs_stats: fs.stats(),
        pipeline,
        log_bytes,
        topology_report,
        trace_report,
        recovery,
        latency,
        completeness,
        detections,
        live_detections,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::MpiIoTest;
    use darshan_ldms_connector::{BatchConfig, FaultScript, ReplicationConfig};
    use darshan_sim::log::parse_log;

    /// A stored connector spec whose pipeline `edit` adjusts.
    fn stored(edit: impl FnOnce(&mut PipelineOpts)) -> RunSpec {
        let mut s =
            RunSpec::calm(FsChoice::Lustre, Instrumentation::connector_default()).with_store(true);
        edit(&mut s.pipeline);
        s
    }

    #[test]
    fn calm_spec_carries_the_default_pipeline_unstored() {
        let spec = RunSpec::calm(FsChoice::Lustre, Instrumentation::connector_default());
        let expected = PipelineOpts {
            attach_store: false,
            ..PipelineOpts::default()
        };
        assert_eq!(format!("{:?}", spec.pipeline), format!("{expected:?}"));
    }

    #[test]
    #[should_panic(expected = "RunSpec::telemetry")]
    fn telemetry_set_on_the_pipeline_is_refused() {
        let mut spec = RunSpec::calm(FsChoice::Lustre, Instrumentation::connector_default());
        spec.pipeline.telemetry = Some(TelemetryConfig::metrics_only());
        run_job(&MpiIoTest::tiny(false), &spec);
    }

    #[test]
    fn baseline_and_connector_runs_share_io_shape() {
        let app = MpiIoTest::tiny(false);
        let base = run_job(
            &app,
            &RunSpec::calm(FsChoice::Lustre, Instrumentation::DarshanOnly),
        );
        let conn = run_job(
            &app,
            &RunSpec::calm(FsChoice::Lustre, Instrumentation::connector_default()),
        );
        // Same I/O issued either way.
        assert_eq!(base.fs_stats.writes, conn.fs_stats.writes);
        assert_eq!(base.fs_stats.bytes_written, conn.fs_stats.bytes_written);
        // The connector run publishes and takes (at least) as long.
        assert_eq!(base.messages, 0);
        assert!(conn.messages > 0);
        assert!(conn.runtime_s >= base.runtime_s);
        assert_eq!(conn.messages, conn.events_seen);
    }

    #[test]
    fn log_is_parsable_and_complete() {
        let app = MpiIoTest::tiny(false);
        let r = run_job(
            &app,
            &RunSpec::calm(FsChoice::Nfs, Instrumentation::DarshanOnly),
        );
        let log = parse_log(&r.log_bytes).unwrap();
        assert_eq!(log.job.nprocs, app.ranks());
        assert_eq!(log.job.exe, app.exe());
        // Every rank contributed POSIX and MPIIO records for the file.
        assert!(log.records.len() >= app.ranks() as usize);
        assert!(!log.dxt.is_empty());
        assert!(log.summary().contains("MPIIO"));
    }

    #[test]
    fn stored_run_lands_events_in_dsos() {
        let app = MpiIoTest::tiny(false);
        let spec =
            RunSpec::calm(FsChoice::Lustre, Instrumentation::connector_default()).with_store(true);
        let r = run_job(&app, &spec);
        let p = r.pipeline.as_ref().unwrap();
        assert_eq!(p.stored_events() as u64, r.messages);
        assert_eq!(p.store().rejected(), 0);
        assert_eq!(r.messages_lost, 0);
        assert!(p.ledger().balances());
        assert_eq!(p.store().total_missing(), 0);
    }

    #[test]
    fn faulted_run_accounts_every_message() {
        let app = MpiIoTest::tiny(false);
        let spec = stored(|p| p.faults = FaultScript::new().link_loss_prob("l1", 0.2, 11));
        let r = run_job(&app, &spec);
        let p = r.pipeline.as_ref().unwrap();
        assert!(r.messages_lost > 0, "20% loss on the L1→L2 hop must bite");
        assert!(p.ledger().balances());
        assert_eq!(p.stored_events() as u64 + r.messages_lost, r.messages);
        // Gap detection sees at most what the ledger sees (tail losses
        // are invisible to sequence gaps).
        assert!(p.store().total_missing() <= r.messages_lost);
    }

    #[test]
    fn unstored_run_counts_but_does_not_store() {
        let app = MpiIoTest::tiny(false);
        let spec = RunSpec::calm(FsChoice::Lustre, Instrumentation::connector_default());
        let r = run_job(&app, &spec);
        assert!(r.messages > 0);
        assert_eq!(r.pipeline.as_ref().unwrap().stored_events(), 0);
    }

    #[test]
    fn lint_reports_ride_along_with_runs() {
        let app = MpiIoTest::tiny(false);

        // Baselines have no pipeline: both reports are empty.
        let base = run_job(
            &app,
            &RunSpec::calm(FsChoice::Lustre, Instrumentation::DarshanOnly),
        );
        assert!(base.topology_report.is_clean());
        assert!(base.trace_report.is_clean());

        // A stored fault-free run passes pre-flight with no errors —
        // the default single-aggregator layout draws exactly the
        // advisory SPOF warning (TOP011) — and its trace carries no
        // structural errors (anti-pattern *warnings* about the
        // workload's own I/O are legitimate findings).
        let stored = run_job(
            &app,
            &RunSpec::calm(FsChoice::Lustre, Instrumentation::connector_default()).with_store(true),
        );
        assert!(
            !stored.topology_report.has_errors(),
            "{}",
            stored.topology_report.render_text()
        );
        assert!(
            stored.topology_report.codes().contains("TOP011"),
            "{}",
            stored.topology_report.render_text()
        );
        assert!(
            !stored.trace_report.has_errors(),
            "{}",
            stored.trace_report.render_text()
        );

        // An unstored overhead run is flagged pre-flight: the terminal
        // daemon has no subscriber, so everything will be dropped.
        let unstored = run_job(
            &app,
            &RunSpec::calm(FsChoice::Lustre, Instrumentation::connector_default()),
        );
        assert!(unstored.topology_report.codes().contains("TOP004"));
    }

    #[test]
    fn faulted_run_gaps_are_explained_by_the_ledger() {
        // Losses the ledger attributes must never surface as TRC006:
        // a diagnosed outage is not a monitoring-integrity defect.
        let app = MpiIoTest::tiny(false);
        let spec = stored(|p| p.faults = FaultScript::new().link_loss_prob("l1", 0.2, 11));
        let r = run_job(&app, &spec);
        assert!(r.messages_lost > 0);
        assert!(
            !r.trace_report.codes().contains("TRC006"),
            "{}",
            r.trace_report.render_text()
        );
    }

    #[test]
    fn batched_run_stores_the_same_events_with_fewer_wire_messages() {
        let app = MpiIoTest::tiny(false);
        let plain = run_job(
            &app,
            &RunSpec::calm(FsChoice::Lustre, Instrumentation::connector_default()).with_store(true),
        );
        let batched = run_job(
            &app,
            &RunSpec::calm(
                FsChoice::Lustre,
                Instrumentation::Connector(ConnectorConfig {
                    batch: BatchConfig::frames_of(8),
                    ..ConnectorConfig::default()
                }),
            )
            .with_store(true),
        );
        assert_eq!(batched.messages, plain.messages);
        assert_eq!(batched.events_seen, plain.events_seen);
        assert_eq!(
            batched.pipeline.as_ref().unwrap().stored_events(),
            plain.pipeline.as_ref().unwrap().stored_events()
        );
        assert!(
            batched.wire_messages < plain.wire_messages,
            "batching must shrink the wire count: {} vs {}",
            batched.wire_messages,
            plain.wire_messages
        );
        assert_eq!(plain.wire_messages, plain.messages);
        assert!(batched.pipeline.as_ref().unwrap().ledger().balances());
        assert_eq!(batched.messages_lost, 0);
    }

    #[test]
    fn deferred_run_matches_immediate_and_stays_balanced() {
        let app = MpiIoTest::tiny(false);
        let immediate = run_job(
            &app,
            &RunSpec::calm(FsChoice::Lustre, Instrumentation::connector_default()).with_store(true),
        );
        let deferred = run_job(
            &app,
            &RunSpec::calm(FsChoice::Lustre, Instrumentation::connector_deferred())
                .with_store(true),
        );
        assert_eq!(deferred.messages, immediate.messages);
        assert_eq!(
            deferred.pipeline.as_ref().unwrap().stored_events(),
            immediate.pipeline.as_ref().unwrap().stored_events()
        );
        assert_eq!(deferred.messages_lost, 0);
        assert!(deferred.pipeline.as_ref().unwrap().ledger().balances());
    }

    #[test]
    fn replicated_run_stores_once_and_reports_complete() {
        let app = MpiIoTest::tiny(false);
        let plain = run_job(
            &app,
            &RunSpec::calm(FsChoice::Lustre, Instrumentation::connector_default()).with_store(true),
        );
        let repl = run_job(&app, &stored(|p| p.replication = ReplicationConfig::new(2)));
        // R=2 dedups at query time: same logical rows as the seed run.
        assert_eq!(
            repl.pipeline.as_ref().unwrap().stored_events(),
            plain.pipeline.as_ref().unwrap().stored_events()
        );
        let c = repl.completeness.as_ref().unwrap();
        assert!(c.is_complete(), "fault-free run must be complete: {c:?}");
        assert_eq!(c.acked_rows, repl.messages);
        assert_eq!(
            plain.completeness.as_ref().unwrap().acked_rows,
            plain.messages
        );
    }

    #[test]
    fn dsosd_crash_with_replication_loses_no_acked_rows() {
        let app = MpiIoTest::tiny(false);
        let crash_at = Epoch::from_secs(1_650_000_000);
        let spec = stored(|p| {
            p.replication = ReplicationConfig::new(2).with_quorum(1);
            p.faults = FaultScript::new()
                .crash_dsosd("dsosd-0", crash_at + SimDuration::from_millis(1))
                .restart_dsosd("dsosd-0", crash_at + SimDuration::from_secs(30));
        });
        let r = run_job(&app, &spec);
        let p = r.pipeline.as_ref().unwrap();
        let c = r.completeness.as_ref().unwrap();
        assert!(c.is_complete(), "R=2 must survive one dsosd crash: {c:?}");
        assert_eq!(c.acked_rows, r.messages);
        assert_eq!(p.stored_events() as u64, r.messages);
        assert_eq!(p.ledger().store_acked(), r.messages);
    }

    #[test]
    fn determinism_same_spec_same_runtime() {
        let app = MpiIoTest::tiny(true);
        let spec = RunSpec::calm(FsChoice::Nfs, Instrumentation::DarshanOnly)
            .with_jitter(0.05)
            .with_campaign(11);
        let a = run_job(&app, &spec);
        let b = run_job(&app, &spec);
        assert_eq!(a.runtime_s, b.runtime_s);
        assert_eq!(a.fs_stats, b.fs_stats);
    }
}
