//! One differential harness for every opt-in pipeline feature.
//!
//! Batching, deferred delivery, self-telemetry, the diagnosis hub, the
//! detection tap and an idle overload controller are all meant to be
//! pure transport optimizations or pure observation: whichever of them
//! a run carries, the terminal must store the byte-identical set of
//! DSOS rows, the delivery ledger must read the same, and crash
//! recovery must behave the same. This file proves that once: one
//! snapshot ([`Snap`]), one driver ([`drive`]: Darshan hook → connector
//! → pipeline → settle), one comparison ([`assert_equivalent`]), three
//! fault scenarios ([`Fault`]: calm / outage + reliable queue / crash +
//! durable WAL) × {unbatched, batched} × seeds, and a table of
//! [`Feature`] rows that carry only what differs — how the feature
//! edits the reference configuration and what it must additionally
//! have observed. An oversubscribed controller is the one feature that
//! is *not* byte-identical; its obligation is exact coverage instead
//! ([`assert_storm_covered`]).
//!
//! The `run_job`-level tests at the bottom repeat the claim through the
//! full application stack (real rank threads) and pin live/settle
//! detection parity.

mod fault_common;

use fault_common::{base_epoch, check_invariants, check_no_duplicate_rows, node_names, Outcome};
use repro_suite::apps::detect::{event_cmp, LiveDetectorTap};
use repro_suite::apps::experiment::{run_job, Instrumentation, RunResult, RunSpec};
use repro_suite::apps::figdata::estimate_write_phase_s;
use repro_suite::apps::platform::FsChoice;
use repro_suite::apps::workloads::MpiIoTest;
use repro_suite::connector::{
    column_id, summary_column_id, BatchConfig, ConnectorConfig, DeliveryMode, FaultScript,
    OverloadConfig, Pipeline, PipelineOpts, QueueConfig, RecoveryReport, TelemetryConfig,
    WalConfig,
};
use repro_suite::darshan::hooks::{EventSink, IoEvent};
use repro_suite::darshan::runtime::JobMeta;
use repro_suite::darshan::{ModuleId, OpKind};
use repro_suite::dsos::Value;
use repro_suite::hpcws::online::{OnlineDetector, OnlineEvent};
use repro_suite::hpcws::DetectionConfig;
use repro_suite::ldms::SimRng;
use repro_suite::scenario;
use repro_suite::simfs::CongestionWindow;
use repro_suite::simtime::{Clock, Epoch, SimDuration};
use repro_suite::telemetry::{DiagHub, HubConfig, HubEventKind, Metric};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::Arc;

const JOB_ID: u64 = 7;

// --- the snapshot ------------------------------------------------------

/// Everything the pipeline *produced* (as opposed to *observed*),
/// reduced to exactly comparable form. `rows` is the sorted multiset of
/// stored DSOS rows (debug-rendered, so every column participates).
/// Crash-flight dumps are stripped from the recovery report: they exist
/// only when telemetry is attached, and their absence is precisely what
/// the reference run is allowed to differ in.
#[derive(Debug, Clone, PartialEq)]
struct Snap {
    rows: Vec<String>,
    published: u64,
    delivered: u64,
    lost: u64,
    summarized: u64,
    duplicates: u64,
    stored: u64,
    missing: u64,
    balanced: bool,
    recovery: RecoveryReport,
}

fn sorted_rows(p: &Pipeline, job_id: u64) -> Vec<String> {
    let mut rows: Vec<String> = p
        .events_of_job(job_id)
        .iter()
        .map(|row| format!("{row:?}"))
        .collect();
    rows.sort();
    rows
}

fn snapshot(p: &Pipeline) -> Snap {
    let mut recovery = p.recovery_report();
    recovery.crash_dumps.clear();
    Snap {
        rows: sorted_rows(p, JOB_ID),
        published: p.ledger().published(),
        delivered: p.ledger().delivered(),
        lost: p.ledger().total_lost(),
        summarized: p.ledger().summarized(),
        duplicates: p.ledger().duplicates(),
        stored: p.stored_events() as u64,
        missing: p.store().total_missing(),
        balanced: p.ledger().balances(),
        recovery,
    }
}

impl Snap {
    /// What must agree between framings when a WAL is in play: a frame
    /// is one WAL record (one replay, one suppressed duplicate) however
    /// many messages it carries, so WAL traffic counters legitimately
    /// differ. Rows, ledger columns and the crash count do not.
    fn across_framings(&self) -> Snap {
        Snap {
            duplicates: 0,
            recovery: RecoveryReport {
                crashes: self.recovery.crashes,
                ..RecoveryReport::default()
            },
            ..self.clone()
        }
    }
}

// --- the scenarios -----------------------------------------------------

/// What happens to the pipeline while the ranks publish.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fault {
    /// Nothing.
    Calm,
    /// The L1 aggregator goes dark mid-publish; reliable retry queues
    /// park and re-deliver everything.
    Outage,
    /// The L1 aggregator crash-stops mid-publish: volatile queue state
    /// dies, the daemon restarts and replays its durable WAL.
    Crash,
}

/// One deterministic connector-driven scenario: `nodes` ranks, each
/// publishing `events_per_rank` I/O events `think` apart through its
/// own connector, under a fault script and queue/WAL/overload policy.
#[derive(Clone)]
struct Scn {
    fault: Fault,
    nodes: u64,
    events_per_rank: u64,
    think: SimDuration,
    queue: QueueConfig,
    script: FaultScript,
    wal: Option<WalConfig>,
    overload: Option<OverloadConfig>,
    slack_s: u64,
}

impl Fault {
    /// Three seeds per fault, so the equivalence holds over several
    /// topology/workload sizes, not one lucky instance.
    fn seeds(self) -> [u64; 3] {
        match self {
            Fault::Calm => [3, 11, 29],
            Fault::Outage => [5, 17, 23],
            Fault::Crash => [7, 13, 31],
        }
    }

    /// The seed-shaped back-to-back scenario (a few ms of traffic, the
    /// fault in the middle of it) and its frame size.
    fn scenario(self, seed: u64) -> (Scn, usize) {
        let ms = |n| base_epoch() + SimDuration::from_millis(n);
        let (queue, script, wal, slack_s) = match self {
            Fault::Calm => (QueueConfig::default(), FaultScript::new(), None, 60),
            Fault::Outage => (
                QueueConfig::reliable(),
                FaultScript::new().daemon_outage("l1", ms(2), ms(40)),
                None,
                120,
            ),
            Fault::Crash => (
                QueueConfig::reliable(),
                FaultScript::new().crash("l1", ms(3), ms(50)),
                Some(WalConfig::durable()),
                120,
            ),
        };
        let sc = Scn {
            fault: self,
            nodes: 2 + seed % 2,
            events_per_rank: 10 + (seed * 7) % 17,
            think: SimDuration::from_nanos(0),
            queue,
            script,
            wal,
            overload: None,
            slack_s,
        };
        (sc, 2 + (seed % 5) as usize)
    }

    /// The storm-shaped scenario: 100 events/s per rank for three
    /// seconds into a controller provisioned for 15 msg/s — roughly 7×
    /// oversubscribed, so the ladder must escalate into sampling — with
    /// the fault a second long, in the middle.
    fn storm(self) -> Scn {
        let ms = |n| base_epoch() + SimDuration::from_millis(n);
        let (script, wal) = match self {
            Fault::Calm => (FaultScript::new(), None),
            Fault::Outage => (FaultScript::new().link_flap("l1", ms(500), ms(1500)), None),
            // A WAL makes the crash interesting: spilled entries
            // journaled at park time replay on restart instead of
            // dying with the daemon.
            Fault::Crash => (
                FaultScript::new().crash("l1", ms(800), ms(1800)),
                Some(WalConfig::durable()),
            ),
        };
        Scn {
            fault: self,
            nodes: 2,
            events_per_rank: 300,
            think: SimDuration::from_millis(10),
            queue: QueueConfig::reliable().with_capacity(4096),
            script,
            wal,
            overload: Some(
                OverloadConfig::for_rate(15.0).with_window(SimDuration::from_millis(100)),
            ),
            slack_s: 120,
        }
    }
}

impl Scn {
    fn published(&self) -> u64 {
        self.nodes * self.events_per_rank
    }

    /// What the reference run of a seed-shaped scenario must look like:
    /// every fault here is survivable, so nothing is lost or folded.
    fn expect_reference(&self, snap: &Snap, label: &str) {
        assert_eq!(snap.published, self.published(), "{label}");
        assert_eq!(snap.stored, snap.published, "{label}: nothing may be lost");
        assert_eq!(snap.lost, 0, "{label}");
        assert_eq!(snap.summarized, 0, "{label}");
        assert_eq!(snap.missing, 0, "{label}");
        assert!(snap.balanced, "{label}");
        match self.fault {
            Fault::Crash => assert_eq!(snap.recovery.crashes, 1, "{label}"),
            _ => assert_eq!(snap.recovery, RecoveryReport::default(), "{label}"),
        }
    }
}

// --- the driver --------------------------------------------------------

fn io_event(rank: u32, record_id: u64, op: OpKind, clock: &mut Clock) -> IoEvent {
    let start = clock.time_pair();
    clock.advance(SimDuration::from_micros(100));
    IoEvent {
        module: ModuleId::Posix,
        op,
        file: "/scratch/eq.dat".into(),
        record_id,
        rank,
        len: 4096,
        offset: 4096 * record_id as i64,
        start,
        end: clock.time_pair(),
        dur: 1e-4,
        cnt: 1,
        switches: 0,
        flushes: -1,
        max_byte: 4095,
        hdf5: None,
    }
}

/// One settled run: the pipeline, its snapshot, and the detection tap
/// if the feature attached one.
struct Run {
    /// `seed/framing/feature`, for assertion messages.
    label: String,
    p: Pipeline,
    snap: Snap,
    tap: Option<Arc<LiveDetectorTap>>,
}

/// Runs one scenario through the production path (Darshan hook →
/// connector → pipeline → settle) with one feature applied. Ranks are
/// driven sequentially, so every run sees the identical event stream at
/// the identical virtual instants — the only degree of freedom left is
/// the feature under test.
fn drive(sc: &Scn, batch: BatchConfig, feature: &Feature, label: String) -> Run {
    let nodes = node_names(sc.nodes);
    let mut opts = PipelineOpts {
        dsosd_count: 1,
        attach_store: true,
        queue: sc.queue.clone(),
        faults: sc.script.clone(),
        wal: sc.wal.clone(),
        overload: sc.overload.clone(),
        ..PipelineOpts::default()
    };
    let mut cfg = ConnectorConfig {
        batch,
        ..ConnectorConfig::default()
    };
    (feature.edit)(&mut opts, &mut cfg);
    let p = Pipeline::build_with(&nodes, &opts);
    let tap = feature.tap.then(|| {
        let tap = LiveDetectorTap::new(DetectionConfig::default(), sc.nodes, None);
        p.store().attach_observer(tap.clone());
        tap
    });
    let job = JobMeta::new(JOB_ID, 99_066, "/apps/eq", sc.nodes as u32);
    let mut staged = Vec::new();
    for (i, name) in nodes.iter().enumerate() {
        let conn = p.connector_for_rank(cfg.clone(), job.clone(), name.clone());
        // Stagger ranks by a microsecond so no two rows collide.
        let mut clock = Clock::new(base_epoch() + SimDuration::from_micros(i as u64));
        for e in 0..sc.events_per_rank {
            let op = match e {
                0 => OpKind::Open,
                n if n == sc.events_per_rank - 1 => OpKind::Close,
                _ => OpKind::Write,
            };
            clock.advance(sc.think);
            let ev = io_event(i as u32, e, op, &mut clock);
            conn.on_event(&ev, &mut clock);
        }
        conn.flush();
        staged.extend(conn.take_outbox().into_iter().map(|m| (i as u64, m)));
    }
    // Deferred connectors staged everything in rank-local outboxes:
    // merge by (publish instant, rank) and inject, as `run_job` does.
    assert!(
        cfg.delivery == DeliveryMode::Deferred || staged.is_empty(),
        "{label}: immediate mode must not stage"
    );
    staged.sort_by_key(|(rank, m)| (m.recv_time, *rank));
    for (_, msg) in staged {
        p.network().publish(msg);
    }
    p.settle(base_epoch() + SimDuration::from_secs(sc.slack_s));
    let snap = snapshot(&p);
    Run {
        label,
        p,
        snap,
        tap,
    }
}

// --- the feature table -------------------------------------------------

/// One opt-in feature: how it edits the reference configuration, and
/// what it must have observed on the settled pipeline besides leaving
/// the snapshot untouched.
struct Feature {
    name: &'static str,
    edit: fn(&mut PipelineOpts, &mut ConnectorConfig),
    /// Attach a detection tap to the store's ingest observer hook.
    tap: bool,
    check: fn(&Scn, &Run),
}

/// No feature at all: every row below is diffed against this.
const REFERENCE: Feature = Feature {
    name: "reference",
    edit: |_, _| {},
    tap: false,
    check: |_, run| {
        assert!(run.p.telemetry().is_none(), "{}", run.label);
        assert!(
            run.p.recovery_report().crash_dumps.is_empty(),
            "{}: no telemetry, no dumps",
            run.label
        );
    },
};

/// Rank-local outboxes merged after the publish phase. (`batched` and
/// `batched+deferred` are this table crossed with the framing axis.)
const DEFERRED: Feature = Feature {
    name: "deferred",
    edit: |_, cfg| cfg.delivery = DeliveryMode::Deferred,
    tap: false,
    check: |_, _| {},
};

const METRICS_ONLY: Feature = Feature {
    name: "metrics-only",
    edit: |opts, _| opts.telemetry = Some(TelemetryConfig::metrics_only()),
    tap: false,
    check: |sc, run| {
        let t = run.p.telemetry().expect("telemetry attached");
        assert_eq!(t.latency_summary().traces, 0, "{}: sampling off", run.label);
        assert!(t.registry().series_count() > 0, "{}", run.label);
        if sc.fault == Fault::Crash {
            assert_crash_dumped(run);
        }
    },
};

const TRACE_ALL: Feature = Feature {
    name: "trace-all",
    edit: |opts, _| opts.telemetry = Some(TelemetryConfig::trace_all()),
    tap: false,
    check: |sc, run| {
        // The run must actually have observed the pipeline: every
        // message completes a publish→ingest trace.
        let t = run.p.telemetry().expect("telemetry attached");
        let summary = t.latency_summary();
        assert_eq!(summary.end_to_end.count, sc.published(), "{}", run.label);
        assert!(summary.end_to_end.max > 0, "{}", run.label);
        match sc.fault {
            Fault::Calm => {}
            Fault::Outage => {
                // The retry machinery showed up in the metrics.
                let parked: u64 = t
                    .registry()
                    .families()
                    .iter()
                    .filter(|(f, _)| f == "parked_frames")
                    .flat_map(|(_, series)| series.iter())
                    .map(|(_, m)| match m {
                        Metric::Counter(c) => c.get(),
                        _ => 0,
                    })
                    .sum();
                assert!(parked > 0, "{}: outage must park frames", run.label);
            }
            Fault::Crash => assert_crash_dumped(run),
        }
    },
};

const HUB: Feature = Feature {
    name: "hub",
    edit: |opts, _| {
        opts.telemetry = Some(TelemetryConfig::trace_all().with_hub(HubConfig {
            snapshot_every_s: 1,
        }))
    },
    tap: false,
    check: |sc, run| {
        let hub = hub_of(&run.p);
        // The cadence driver ran: at least one metric snapshot landed
        // on the bus and in the timeline ring.
        assert!(hub.published() > 0, "{}: hub saw no events", run.label);
        assert!(!hub.timeline().is_empty(), "{}: empty timeline", run.label);
        match sc.fault {
            Fault::Calm => {}
            Fault::Outage => assert!(
                hub.events()
                    .iter()
                    .any(|e| matches!(e.kind, HubEventKind::Health { .. })),
                "{}: an outage with parked frames must transition health",
                run.label
            ),
            Fault::Crash => {
                let faults: Vec<String> = hub
                    .events()
                    .into_iter()
                    .filter_map(|e| match e.kind {
                        HubEventKind::Fault { kind, detail } => {
                            Some(format!("{} {detail}", kind.as_str()))
                        }
                        _ => None,
                    })
                    .collect();
                for what in ["crash", "restart"] {
                    assert!(
                        faults.iter().any(|f| f.starts_with(what)),
                        "{}: the {what} must publish a fault event, got {faults:?}",
                        run.label
                    );
                }
            }
        }
    },
};

const DETECTION_TAP: Feature = Feature {
    name: "detection tap",
    edit: |_, _| {},
    tap: true,
    check: |_, run| {
        let tap = run.tap.as_ref().expect("the feature attaches a tap");
        // Observation is after dedup: retries and WAL replays must not
        // double-count.
        assert_eq!(
            tap.buffered() as u64,
            run.snap.stored,
            "{}: the tap must observe exactly the stored rows",
            run.label
        );
        // A calm synthetic stream (constant 100 µs durations, aligned
        // 4 KiB writes, < 4 ranks) must not invent anomalies.
        let out = tap.finalize(base_epoch() + SimDuration::from_secs(1_000));
        assert!(
            out.detections.is_empty() && out.live.is_empty(),
            "{}: spurious detections: {:?}",
            run.label,
            out.detections
        );
    },
};

/// Service rate 1e9 msg/s: the fluid meter never accumulates depth,
/// the ladder never leaves Normal, nothing is paced or folded.
const GENEROUS_CONTROLLER: Feature = Feature {
    name: "generous overload controller",
    edit: |opts, _| opts.overload = Some(OverloadConfig::for_rate(1e9)),
    tap: false,
    check: |_, run| assert_eq!(run.p.stored_summaries(), 0, "{}", run.label),
};

fn hub_of(p: &Pipeline) -> Arc<DiagHub> {
    p.telemetry()
        .expect("telemetry attached")
        .diag()
        .expect("hub built")
        .clone()
}

fn assert_crash_dumped(run: &Run) {
    let dumps = run.p.recovery_report().crash_dumps;
    assert_eq!(dumps.len(), 1, "{}: the crash is dumped", run.label);
    let d = &dumps[0];
    assert_eq!(d.daemon, "voltrino-head");
    assert!(
        d.events.iter().any(|e| e.contains("crash-stop")),
        "{}: the flight log records the crash itself",
        run.label
    );
    assert!(!d.render().is_empty());
}

// --- the comparison ----------------------------------------------------

fn framings(frame: usize) -> [(&'static str, BatchConfig); 2] {
    [
        ("unbatched", BatchConfig::disabled()),
        ("batched", BatchConfig::frames_of(frame)),
    ]
}

/// The one comparison. In each framing, every feature's snapshot must
/// equal the featureless reference's, and the feature's own check must
/// hold; the batched reference must in turn equal the unbatched one.
fn assert_equivalent(sc: &Scn, frame: usize, seed: u64, features: &[&Feature]) {
    let mut unbatched: Option<Snap> = None;
    for (framing, batch) in framings(frame) {
        let label = |f: &Feature| format!("seed {seed}: {framing}/{}", f.name);
        let reference = drive(sc, batch.clone(), &REFERENCE, label(&REFERENCE));
        (REFERENCE.check)(sc, &reference);
        sc.expect_reference(&reference.snap, &reference.label);
        match &unbatched {
            None => unbatched = Some(reference.snap.clone()),
            Some(u) if sc.wal.is_some() => assert_eq!(
                reference.snap.across_framings(),
                u.across_framings(),
                "seed {seed}: batched diverged from unbatched"
            ),
            Some(u) => assert_eq!(
                &reference.snap, u,
                "seed {seed}: batched diverged from unbatched"
            ),
        }
        for f in features {
            let run = drive(sc, batch.clone(), f, label(f));
            assert_eq!(
                run.snap, reference.snap,
                "{} diverged from the reference",
                run.label
            );
            (f.check)(sc, &run);
        }
    }
}

/// [`assert_equivalent`] over a fault's three seed-shaped scenarios.
fn assert_features_equivalent(fault: Fault, features: &[&Feature]) {
    for seed in fault.seeds() {
        let (sc, frame) = fault.scenario(seed);
        assert_equivalent(&sc, frame, seed, features);
    }
}

/// Event mass per rank over a container's rows: one per row, or the
/// row's `count_col` when the rows are sketches.
fn mass_by_rank(
    rows: &[Vec<Value>],
    rank_col: usize,
    count_col: Option<usize>,
) -> HashMap<u64, u64> {
    let mut mass: HashMap<u64, u64> = HashMap::new();
    for row in rows {
        let rank = row[rank_col].as_u64().expect("u64 rank");
        let n = count_col.map_or(1, |c| row[c].as_u64().expect("u64 count"));
        *mass.entry(rank).or_default() += n;
    }
    mass
}

/// The oversubscribed controller's obligation: every published event
/// is covered exactly once — as an individual DSOS row, inside exactly
/// one summary sketch's folded count, or as a ledger-attributed loss.
fn assert_storm_covered(fault: Fault, batch: BatchConfig) {
    let sc = fault.storm();
    let run = drive(&sc, batch, &REFERENCE, format!("{fault:?} storm"));
    let (p, o) = (&run.p, &run.snap);
    check_invariants(&Outcome {
        published: sc.published(),
        ledger_published: o.published,
        stored: o.stored,
        lost: o.lost,
        summarized: o.summarized,
        missing: o.missing,
        balances: o.balanced,
    })
    .unwrap();
    check_no_duplicate_rows(p, JOB_ID).unwrap();
    assert!(o.summarized > 0, "a 7x-oversubscribed run must summarize");
    assert_eq!(
        p.store().summary_events(),
        o.summarized,
        "ledger summarized mass must equal the mass the store ingested"
    );
    if fault == Fault::Calm {
        assert_eq!(o.lost, 0, "no faults: degradation must not drop anything");
        // Per-rank exactly-once: with zero losses, each rank's
        // individual rows plus its sketches' folded counts reconstruct
        // its publish count exactly.
        let rows = mass_by_rank(&p.events_of_job(JOB_ID), column_id("rank"), None);
        let sketches = mass_by_rank(
            &p.summaries_of_job(JOB_ID),
            summary_column_id("rank"),
            Some(summary_column_id("count")),
        );
        for rank in 0..sc.nodes {
            let covered =
                rows.get(&rank).copied().unwrap_or(0) + sketches.get(&rank).copied().unwrap_or(0);
            assert_eq!(
                covered, sc.events_per_rank,
                "rank {rank}: rows + sketch mass must equal its published count"
            );
        }
    }
}

// --- batching and deferred delivery ------------------------------------

#[test]
fn calm_runs_are_identical_in_all_four_modes() {
    assert_features_equivalent(Fault::Calm, &[&DEFERRED]);
}

#[test]
fn outages_with_reliable_queues_stay_identical_and_lossless() {
    assert_features_equivalent(Fault::Outage, &[&DEFERRED]);
}

#[test]
fn crashes_with_durable_wal_recover_identically_without_duplicates() {
    assert_features_equivalent(Fault::Crash, &[&DEFERRED]);
}

#[test]
fn best_effort_outages_keep_every_mode_internally_consistent() {
    // With best-effort queues an outage genuinely loses messages, and
    // a dropped frame loses every message inside it — so the four
    // modes legitimately store different subsets. Each mode must still
    // account exactly, never duplicate, and store only rows the calm
    // run would have stored.
    let calm = Scn {
        nodes: 3,
        events_per_rank: 20,
        ..Fault::Calm.scenario(0).0
    };
    let calm_rows: HashSet<String> =
        drive(&calm, BatchConfig::disabled(), &REFERENCE, "calm".into())
            .snap
            .rows
            .into_iter()
            .collect();
    let sc = Scn {
        queue: QueueConfig::best_effort(),
        script: FaultScript::new().daemon_outage(
            "l1",
            base_epoch() + SimDuration::from_millis(2),
            base_epoch() + SimDuration::from_millis(30),
        ),
        ..calm
    };
    let mut lossy_modes = 0;
    for (framing, batch) in framings(4) {
        for feature in [&REFERENCE, &DEFERRED] {
            let label = format!("{framing}/{}", feature.name);
            let snap = drive(&sc, batch.clone(), feature, label.clone()).snap;
            assert!(snap.balanced, "{label}: ledger must balance");
            assert_eq!(
                snap.stored + snap.lost,
                sc.published(),
                "{label}: every message stored or attributed"
            );
            assert_eq!(snap.duplicates, 0, "{label}: nothing delivered twice");
            assert!(
                snap.rows.iter().all(|r| calm_rows.contains(r)),
                "{label}: stored a row the calm run never produced"
            );
            if snap.lost > 0 {
                lossy_modes += 1;
            }
        }
    }
    assert!(
        lossy_modes > 0,
        "the outage window must actually bite somewhere"
    );
}

// --- self-telemetry ----------------------------------------------------

#[test]
fn calm_runs_are_identical_with_and_without_telemetry() {
    assert_features_equivalent(Fault::Calm, &[&METRICS_ONLY, &TRACE_ALL]);
}

#[test]
fn outages_with_reliable_queues_are_identical_with_and_without_telemetry() {
    assert_features_equivalent(Fault::Outage, &[&METRICS_ONLY, &TRACE_ALL]);
}

#[test]
fn crashes_with_durable_wal_are_identical_and_dump_the_flight_recorder() {
    assert_features_equivalent(Fault::Crash, &[&METRICS_ONLY, &TRACE_ALL]);
}

// --- the diagnosis hub -------------------------------------------------

#[test]
fn calm_runs_are_identical_with_the_hub_on() {
    assert_features_equivalent(Fault::Calm, &[&HUB]);
}

#[test]
fn outage_runs_are_identical_and_publish_health_transitions() {
    assert_features_equivalent(Fault::Outage, &[&HUB]);
}

#[test]
fn crash_runs_are_identical_and_publish_fault_events() {
    assert_features_equivalent(Fault::Crash, &[&HUB]);
}

// --- the detection tap -------------------------------------------------

#[test]
fn calm_runs_are_identical_with_and_without_detection() {
    assert_features_equivalent(Fault::Calm, &[&DETECTION_TAP]);
}

#[test]
fn outages_with_reliable_queues_are_identical_with_and_without_detection() {
    assert_features_equivalent(Fault::Outage, &[&DETECTION_TAP]);
}

#[test]
fn crashes_with_durable_wal_are_identical_with_and_without_detection() {
    assert_features_equivalent(Fault::Crash, &[&DETECTION_TAP]);
}

// --- overload control --------------------------------------------------

#[test]
fn generous_controller_is_byte_identical_to_none() {
    for fault in [Fault::Calm, Fault::Outage, Fault::Crash] {
        assert_features_equivalent(fault, &[&GENEROUS_CONTROLLER]);
    }
    // And over the long storm-shaped workload the oversubscribed
    // controller is judged on, with no controller as the reference.
    let long = Scn {
        overload: None,
        ..Fault::Calm.storm()
    };
    assert_equivalent(&long, 5, 0, &[&GENEROUS_CONTROLLER]);
}

#[test]
fn calm_storm_covers_every_event_exactly_once_unbatched() {
    assert_storm_covered(Fault::Calm, BatchConfig::disabled());
}

#[test]
fn calm_storm_covers_every_event_exactly_once_batched() {
    assert_storm_covered(Fault::Calm, BatchConfig::frames_of(5));
}

#[test]
fn storm_through_link_outage_stays_covered_unbatched() {
    assert_storm_covered(Fault::Outage, BatchConfig::disabled());
}

#[test]
fn storm_through_link_outage_stays_covered_batched() {
    assert_storm_covered(Fault::Outage, BatchConfig::frames_of(5));
}

#[test]
fn storm_through_crash_stays_covered_unbatched() {
    assert_storm_covered(Fault::Crash, BatchConfig::disabled());
}

#[test]
fn storm_through_crash_stays_covered_batched() {
    assert_storm_covered(Fault::Crash, BatchConfig::frames_of(5));
}

// --- the same claims through `run_job` ---------------------------------

type SpecEdit = fn(RunSpec) -> RunSpec;

/// Workload-level equivalence: the same MPI job run through the full
/// application stack (`run_job`, with real rank threads) stores the
/// first variant's rows under every other variant of its spec, across
/// seeds. `check` adds what each variant must additionally show.
fn assert_workload_runs_match(variants: &[(&str, SpecEdit)], check: fn(&str, &RunResult)) {
    for seed in [7u64, 11, 23] {
        let app = MpiIoTest::tiny(false);
        let base = RunSpec::calm(FsChoice::Lustre, Instrumentation::connector_default())
            .with_store(true)
            .with_seed(seed);
        let mut reference: Option<(u64, Vec<String>)> = None;
        for (label, edit) in variants {
            let spec = edit(base.clone());
            let r = run_job(&app, &spec);
            let p = r.pipeline.as_ref().expect("connector run has a pipeline");
            assert_eq!(r.messages_lost, 0, "seed {seed}: {label} lost messages");
            assert!(p.ledger().balances(), "seed {seed}: {label} unbalanced");
            assert_eq!(p.store().total_missing(), 0, "seed {seed}: {label}");
            check_no_duplicate_rows(p, spec.job_id).unwrap();
            let rows = sorted_rows(p, spec.job_id);
            match &reference {
                None => reference = Some((r.messages, rows)),
                Some((ref_messages, ref_rows)) => {
                    assert_eq!(
                        r.messages, *ref_messages,
                        "seed {seed}: {label} published a different count"
                    );
                    assert_eq!(
                        &rows, ref_rows,
                        "seed {seed}: {label} stored different rows"
                    );
                }
            }
            check(&format!("seed {seed}: {label}"), &r);
        }
    }
}

/// The parallel-vs-serial half of the harness: deferred delivery runs
/// rank fan-out concurrently yet must merge back to the serial result.
#[test]
fn workload_runs_match_across_modes_and_seeds() {
    assert_workload_runs_match(
        &[
            ("unbatched-serial", |s| s),
            ("batched-serial", |s| {
                s.with_batch(BatchConfig::frames_of(4))
            }),
            ("unbatched-parallel", |s| {
                s.with_delivery(DeliveryMode::Deferred)
            }),
            ("batched-parallel", |s| {
                s.with_batch(BatchConfig::frames_of(4))
                    .with_delivery(DeliveryMode::Deferred)
            }),
        ],
        |_, _| {},
    );
}

/// The calm tiny workload raises no detections and therefore no
/// TRC010–TRC012 lints.
#[test]
fn workload_runs_match_with_and_without_detection() {
    assert_workload_runs_match(
        &[
            ("detector-off", |s| s),
            ("detector-on", |s| {
                s.with_detection(DetectionConfig::default())
            }),
        ],
        |label, r| {
            assert!(
                r.detections.is_empty(),
                "{label}: calm tiny workload must stay silent: {:?}",
                r.detections
            );
            for code in ["TRC010", "TRC011", "TRC012"] {
                assert!(
                    !r.trace_report.codes().contains(code),
                    "{label} raised {code} on a calm run"
                );
            }
        },
    );
}

#[test]
fn workload_runs_match_with_and_without_telemetry() {
    assert_workload_runs_match(
        &[
            ("telemetry-off", |s| s),
            ("trace-all", |s| {
                s.with_telemetry(TelemetryConfig::trace_all())
            }),
        ],
        |label, r| {
            if label.ends_with("telemetry-off") {
                assert!(r.latency.is_empty(), "{label}: off-mode has no spans");
            } else {
                assert_eq!(
                    r.latency.end_to_end.count, r.messages,
                    "{label}: every message traced end to end"
                );
            }
        },
    );
}

/// The `TRC009` latency-budget lint, end to end through `RunSpec`: an
/// impossible budget fires the advisory warning, a generous one stays
/// clean, and a budget without telemetry has no traces to judge.
#[test]
fn latency_budget_lint_fires_through_run_spec() {
    let app = MpiIoTest::tiny(false);
    let base = RunSpec::calm(FsChoice::Lustre, Instrumentation::connector_default())
        .with_store(true)
        .with_telemetry(TelemetryConfig::trace_all());
    let tight = run_job(&app, &base.clone().with_latency_budget(1e-9));
    assert!(
        tight.trace_report.codes().contains("TRC009"),
        "sub-nanosecond budget must fire on any real pipeline"
    );
    assert!(
        !tight.trace_report.has_errors(),
        "TRC009 is advisory: a blown budget warns, never errors"
    );
    let roomy = run_job(&app, &base.with_latency_budget(10.0));
    assert!(!roomy.trace_report.codes().contains("TRC009"));
    let untraced = RunSpec::calm(FsChoice::Lustre, Instrumentation::connector_default())
        .with_store(true)
        .with_latency_budget(1e-9);
    let r = run_job(&app, &untraced);
    assert!(
        !r.trace_report.codes().contains("TRC009"),
        "no telemetry, no traces, no evidence to fire on"
    );
}

// --- live/settle detection parity --------------------------------------

/// The shared anomalous workload: a CI-scale MPI-IO job whose late
/// write phase runs under a 1.5x congestion storm.
fn anomalous_app() -> MpiIoTest {
    let mut a = MpiIoTest::tiny(false);
    a.iterations = 10;
    a.nodes = 2;
    a.ranks_per_node = 4;
    a.block = 4 * 1024 * 1024;
    a
}

fn anomalous_spec(app: &MpiIoTest, seed: u64, hub: bool) -> RunSpec {
    let writes_end = estimate_write_phase_s(app);
    let detection = DetectionConfig::default()
        .with_window_s((writes_end / 10.0).max(0.05))
        .with_outlier_factor(1.3);
    let mut spec = RunSpec::calm(FsChoice::Lustre, Instrumentation::connector_default())
        .with_store(true)
        .with_detection(detection);
    if hub {
        spec = spec.with_telemetry(TelemetryConfig::trace_all().with_hub(HubConfig::default()));
    }
    spec.seed = seed;
    spec.job_id = 700 + seed;
    let t0 = spec.epoch_base;
    let storm_start = t0 + SimDuration::from_secs_f64(writes_end * 0.55);
    let storm_end = t0 + SimDuration::from_secs_f64(writes_end * 8.0 + 120.0);
    spec.with_congestion(CongestionWindow::storm(storm_start, storm_end, 1.5))
}

/// Hub-live detection exactly equals hub-less detection through the
/// whole pipeline, across seeds — and in-run emissions precede the
/// settle horizon.
#[test]
fn live_detections_equal_settle_replay_through_run_job() {
    for seed in [1u64, 7, 42] {
        let app = anomalous_app();
        let live_spec = anomalous_spec(&app, seed, true);
        let settle_spec = anomalous_spec(&app, seed, false);
        let live = run_job(&app, &live_spec);
        let settle = run_job(&app, &settle_spec);

        assert!(
            !settle.detections.is_empty(),
            "seed {seed}: the storm must be detected"
        );
        assert_eq!(
            live.detections, settle.detections,
            "seed {seed}: the oracle must not feel the hub"
        );
        // The live stream is exactly the oracle set.
        assert_eq!(live.live_detections.len(), live.detections.len());
        for d in &live.detections {
            assert!(
                live.live_detections.iter().any(|l| &l.event == d),
                "seed {seed}: live stream is missing {d:?}"
            );
        }
        // Emission instants: in-run findings precede the settle
        // horizon; at least one surfaced in-run.
        let horizon = live_spec.epoch_base.as_secs_f64() + live.runtime_s + 60.0;
        assert!(
            live.live_detections.iter().any(|l| l.in_run),
            "seed {seed}: the storm should surface while ingest flows"
        );
        for l in &live.live_detections {
            assert!(
                l.emitted_s <= horizon,
                "seed {seed}: emission after the settle horizon"
            );
            if l.in_run {
                assert!(
                    l.emitted_s < horizon,
                    "seed {seed}: an in-run emission must precede settle"
                );
            }
        }
        // The hub carried the same findings.
        let hub = hub_of(live.pipeline.as_ref().expect("connector run"));
        let on_hub = hub
            .events()
            .iter()
            .filter(|e| matches!(e.kind, HubEventKind::Detection(_)))
            .count();
        assert_eq!(on_hub, live.live_detections.len());
    }
}

/// Streaming the labeled corpus through the live tap under seeded
/// cross-rank interleavings (per-rank order preserved) emits exactly
/// the straight settle-replay's detection set — for every scenario,
/// across seeds.
#[test]
fn corpus_interleavings_preserve_live_settle_parity() {
    for seed in [1u64, 7, 42] {
        for sc in scenario::corpus(seed) {
            // Straight replay: the oracle.
            let mut sorted: Vec<OnlineEvent> = sc.events.clone();
            sorted.sort_by(event_cmp);
            let mut oracle = OnlineDetector::new(DetectionConfig::default());
            for e in &sorted {
                oracle.observe(e);
            }
            let want = oracle.finish();

            // Live: seeded interleaving across per-rank queues.
            let mut queues: BTreeMap<u64, VecDeque<OnlineEvent>> = BTreeMap::new();
            for e in &sc.events {
                queues.entry(e.rank).or_default().push_back(e.clone());
            }
            let ranks = queues.len() as u64;
            let tap = LiveDetectorTap::new(DetectionConfig::default(), ranks, None);
            let mut rng = SimRng::new(seed);
            let mut clock = 0u64;
            while !queues.is_empty() {
                let keys: Vec<u64> = queues.keys().copied().collect();
                let pick = keys[(rng.next_u64() % keys.len() as u64) as usize];
                let q = queues.get_mut(&pick).expect("picked key exists");
                let e = q.pop_front().expect("nonempty");
                if q.is_empty() {
                    queues.remove(&pick);
                }
                clock += 1;
                tap.offer(e, Epoch::from_nanos(clock));
            }
            let out = tap.finalize(Epoch::from_secs(1_000_000));
            let class = sc.class.as_str();
            assert_eq!(out.detections, want, "seed {seed} {class}: oracle drift");
            let live: Vec<_> = out.live.iter().map(|l| &l.event).collect();
            assert_eq!(
                live.len(),
                want.len(),
                "seed {seed} {class}: live cardinality"
            );
            for d in &want {
                assert!(
                    live.contains(&d),
                    "seed {seed} {class}: live stream is missing {d:?}"
                );
            }
        }
    }
}

/// The `TRC013` detection-latency lint, end to end through `RunSpec`:
/// an impossible alert budget fires the advisory warning, a generous
/// one stays clean — with or without the hub, since the live stream no
/// longer needs one.
#[test]
fn detection_alert_budget_lint_fires_through_run_spec() {
    let app = anomalous_app();
    for hub in [true, false] {
        let tight = run_job(
            &app,
            &anomalous_spec(&app, 1, hub).with_detection_alert_budget(1e-9),
        );
        assert!(
            tight.trace_report.codes().contains("TRC013"),
            "hub {hub}: sub-nanosecond alert budget must fire on any live detection"
        );
        assert!(
            !tight.trace_report.has_errors(),
            "TRC013 is advisory: a blown budget warns, never errors"
        );
    }
    let roomy = run_job(
        &app,
        &anomalous_spec(&app, 1, true).with_detection_alert_budget(1e9),
    );
    assert!(!roomy.trace_report.codes().contains("TRC013"));
}
