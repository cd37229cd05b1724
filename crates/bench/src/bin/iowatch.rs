//! `iowatch` — live diagnosis dashboard over the hub's event stream.
//!
//! Runs the shared anomalous MPI-IO job (late-write congestion storm)
//! with the diagnosis hub enabled and renders what an operator watching
//! the run would have seen, frame by frame in virtual time: metric
//! snapshots, per-daemon health transitions, overload rung changes,
//! fault events, and — the headline — the online detector's findings
//! at the virtual instant each one surfaced, while ingest was still
//! flowing.
//!
//! Modes:
//!
//! * default — threaded delivery, dashboard frames plus the health /
//!   alert / live-detection tables;
//! * `--snapshot` — CI mode: deferred (serial) delivery so the hub's
//!   event stream is byte-deterministic; the run executes twice and
//!   the two event logs must be identical, the live detection set must
//!   equal the settle-replay oracle's, and at least one finding must
//!   have surfaced in-run;
//! * `--parity` — the differential gate: for seeds 1/7/42, every
//!   labeled corpus scenario is streamed through the live tap under a
//!   seeded cross-rank interleaving and the emitted set must exactly
//!   equal a straight settle-replay; the anomalous pipeline run is
//!   also re-run with the hub off and the two oracle sets compared.
//!
//! `--out DIR` exports `BENCH_iowatch_timeline.csv` (the
//! multi-resolution ring), `BENCH_iowatch_events.csv` (the full event
//! log), and `BENCH_iowatch.json` (`hub_timeline` +
//! `detection_live_stream` families). Exits non-zero when any gate
//! fails.

use hpcws_sim::online::OnlineEvent;
use iosim_apps::detect::{settle_replay, LiveDetectorTap};
use iosim_apps::experiment::{Instrumentation, RunResult};
use iosim_telemetry::{DiagHub, HubEvent, HubEventKind};
use iosim_time::Epoch;
use iosim_util::table::TextTable;
use repro_bench::livehub;
use repro_suite::scenario;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

struct Opts {
    quick: bool,
    snapshot: bool,
    parity: bool,
    out: Option<PathBuf>,
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        quick: false,
        snapshot: false,
        parity: false,
        out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => opts.quick = true,
            "--snapshot" => opts.snapshot = true,
            "--parity" => opts.parity = true,
            "--out" => {
                opts.out = Some(PathBuf::from(
                    args.next().expect("--out requires a directory"),
                ));
            }
            "--help" | "-h" => {
                eprintln!("usage: iowatch [--quick] [--snapshot] [--parity] [--out DIR]");
                std::process::exit(0);
            }
            other => {
                eprintln!(
                    "unknown flag {other}; usage: iowatch [--quick] [--snapshot] [--parity] [--out DIR]"
                );
                std::process::exit(2);
            }
        }
    }
    opts
}

/// Renders the operator view: one dashboard frame per cadence interval
/// of virtual time, counting what the hub saw in that window.
fn render_frames(events: &[HubEvent], frame_s: u64) -> TextTable {
    let mut frames: BTreeMap<u64, [u64; 5]> = BTreeMap::new();
    for e in events {
        let bucket = (e.vtime.as_secs_f64() / frame_s as f64).floor() as u64 * frame_s;
        let slot = match e.kind {
            HubEventKind::MetricSnapshot { .. } => 0,
            HubEventKind::Health { .. } => 1,
            HubEventKind::Overload { .. } => 2,
            HubEventKind::Fault { .. } => 3,
            HubEventKind::Detection(_) => 4,
        };
        frames.entry(bucket).or_default()[slot] += 1;
    }
    let mut t = TextTable::new(vec![
        "frame (vtime)",
        "snapshots",
        "health",
        "overload",
        "faults",
        "detections",
    ]);
    for (bucket, counts) in &frames {
        t.row(vec![
            format!("[{bucket}s, {}s)", bucket + frame_s),
            counts[0].to_string(),
            counts[1].to_string(),
            counts[2].to_string(),
            counts[3].to_string(),
            counts[4].to_string(),
        ]);
    }
    t
}

/// The post-run operator tables: health transitions, routed alerts,
/// and the live detection stream with emit instants.
fn render_detail(hub: &DiagHub, r: &RunResult) {
    let mut health = TextTable::new(vec!["vtime (s)", "daemon", "transition", "reason"]);
    let mut faults = TextTable::new(vec!["vtime (s)", "daemon", "fault", "detail"]);
    for e in hub.events() {
        match &e.kind {
            HubEventKind::Health { from, to, reason } => {
                health.row(vec![
                    format!("{:.3}", e.vtime.as_secs_f64()),
                    e.source.clone(),
                    format!("{} -> {}", from.as_str(), to.as_str()),
                    reason.clone(),
                ]);
            }
            HubEventKind::Fault { kind, detail } => {
                faults.row(vec![
                    format!("{:.3}", e.vtime.as_secs_f64()),
                    e.source.clone(),
                    kind.as_str().to_string(),
                    detail.clone(),
                ]);
            }
            _ => {}
        }
    }
    println!("\n-- health transitions --\n{}", health.render());
    println!("-- fault events --\n{}", faults.render());

    let (deduped, suppressed) = hub.alert_stats();
    let mut alerts = TextTable::new(vec!["vtime (s)", "severity", "source", "key", "message"]);
    for a in hub.alerts() {
        alerts.row(vec![
            format!("{:.3}", a.vtime.as_secs_f64()),
            a.severity.as_str().to_string(),
            a.source.clone(),
            a.key.clone(),
            a.message.clone(),
        ]);
    }
    println!(
        "-- routed alerts ({deduped} deduped, {suppressed} flap-suppressed) --\n{}",
        alerts.render()
    );

    let mut live = TextTable::new(vec![
        "emitted (s)",
        "in-run",
        "kind",
        "severity",
        "job",
        "rank",
        "op",
        "onset (s)",
        "lag (s)",
    ]);
    for l in &r.live_detections {
        live.row(vec![
            format!("{:.3}", l.emitted_s),
            if l.in_run { "yes" } else { "settle" }.to_string(),
            l.event.kind.as_str().to_string(),
            l.event.severity.as_str().to_string(),
            l.event.job_id.to_string(),
            l.event
                .rank
                .map_or_else(|| "-".to_string(), |x| x.to_string()),
            l.event.op.clone(),
            format!("{:.3}", l.event.onset),
            format!("{:.3}", l.emitted_s - l.event.onset),
        ]);
    }
    println!("-- live detection stream --\n{}", live.render());
}

/// Gates shared by every mode: the hub saw traffic, the detector found
/// the storm, the live stream is exactly the oracle set, and in-run
/// emissions precede the settle horizon.
fn gate_run(r: &RunResult, hub: &DiagHub, horizon_s: f64, failures: &mut Vec<String>) {
    if hub.published() == 0 {
        failures.push("hub published no events".into());
    }
    if hub.timeline().is_empty() {
        failures.push("snapshot cadence left the timeline ring empty".into());
    }
    if r.detections.is_empty() {
        failures.push("the injected storm was not detected".into());
    }
    if r.live_detections.len() != r.detections.len()
        || r.detections
            .iter()
            .any(|d| !r.live_detections.iter().any(|l| &l.event == d))
    {
        failures.push(format!(
            "live stream ({}) != settle-replay oracle ({})",
            r.live_detections.len(),
            r.detections.len()
        ));
    }
    for l in &r.live_detections {
        if l.in_run && l.emitted_s >= horizon_s {
            failures.push("an in-run emission did not precede the settle horizon".into());
        }
    }
}

/// The settle horizon `run_job` used: job end plus the one-minute
/// drain window.
fn horizon_s(spec: &iosim_apps::experiment::RunSpec, r: &RunResult) -> f64 {
    spec.epoch_base.as_secs_f64() + r.runtime_s + 60.0
}

/// A tiny deterministic PRNG (xorshift64*) so the parity interleavings
/// are seeded without pulling in a dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0.max(1);
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Streams one scenario's events through the live tap under a seeded
/// cross-rank interleaving (per-rank order preserved) and compares the
/// emitted set against a straight settle-replay of the same events.
fn parity_one(events: &[OnlineEvent], seed: u64) -> Result<(usize, usize), String> {
    // Straight replay: the oracle.
    let (_, want) = settle_replay(events.to_vec(), hpcws_sim::DetectionConfig::default());

    // Live: seeded interleaving across per-rank queues.
    let mut queues: BTreeMap<u64, std::collections::VecDeque<OnlineEvent>> = BTreeMap::new();
    for e in events {
        queues.entry(e.rank).or_default().push_back(e.clone());
    }
    let ranks = queues.len() as u64;
    let tap = LiveDetectorTap::new(hpcws_sim::DetectionConfig::default(), ranks, None);
    let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1));
    let mut clock = 0u64;
    while !queues.is_empty() {
        let keys: Vec<u64> = queues.keys().copied().collect();
        let pick = keys[(rng.next() % keys.len() as u64) as usize];
        let q = queues.get_mut(&pick).expect("picked key exists");
        let e = q.pop_front().expect("queues hold only nonempty ranks");
        if q.is_empty() {
            queues.remove(&pick);
        }
        clock += 1;
        tap.offer(e, Epoch::from_nanos(clock));
    }
    let out = tap.finalize(Epoch::from_secs(1_000_000));
    let live: Vec<_> = out.live.iter().map(|l| &l.event).collect();
    if out.detections != want {
        return Err(format!(
            "oracle drift: live-tap replay produced {} detections, straight replay {}",
            out.detections.len(),
            want.len()
        ));
    }
    if live.len() != want.len() || want.iter().any(|d| !live.contains(&d)) {
        return Err(format!(
            "live emissions ({}) != settle-replay ({})",
            live.len(),
            want.len()
        ));
    }
    let in_run = out.live.iter().filter(|l| l.in_run).count();
    Ok((want.len(), in_run))
}

fn main() {
    let opts = parse_args();
    let mut failures: Vec<String> = Vec::new();

    if opts.parity {
        println!("iowatch --parity: hub-live vs settle-replay differential gate");
        let mut table = TextTable::new(vec![
            "seed",
            "scenario",
            "detections",
            "emitted in-run",
            "gate",
        ]);
        for seed in [1u64, 7, 42] {
            for sc in scenario::corpus(seed) {
                let label = sc.class.as_str().to_string();
                match parity_one(&sc.events, seed) {
                    Ok((n, in_run)) => {
                        table.row(vec![
                            seed.to_string(),
                            label,
                            n.to_string(),
                            in_run.to_string(),
                            "pass".to_string(),
                        ]);
                    }
                    Err(e) => {
                        failures.push(format!("seed {seed} {label}: {e}"));
                        table.row(vec![
                            seed.to_string(),
                            label,
                            "-".to_string(),
                            "-".to_string(),
                            "FAIL".to_string(),
                        ]);
                    }
                }
            }
            // Whole-pipeline parity: the same anomalous run with the
            // hub on (streaming detection) and off (settle-replay)
            // must produce identical oracle detection sets.
            let live_run = livehub::run(true, seed);
            let app = livehub::workload(true);
            let mut settle_spec = livehub::spec(&app, seed);
            settle_spec.telemetry = None;
            settle_spec.detection_alert_budget_s = None;
            let settle_run = iosim_apps::experiment::run_job(&app, &settle_spec);
            if live_run.detections != settle_run.detections {
                failures.push(format!(
                    "seed {seed}: pipeline live run detections ({}) != hub-off run ({})",
                    live_run.detections.len(),
                    settle_run.detections.len()
                ));
            }
            let hub = live_run
                .pipeline
                .as_ref()
                .and_then(|p| p.telemetry())
                .and_then(|t| t.diag())
                .cloned()
                .expect("hub enabled");
            let live_spec = livehub::spec(&app, seed);
            gate_run(
                &live_run,
                &hub,
                horizon_s(&live_spec, &live_run),
                &mut failures,
            );
            table.row(vec![
                seed.to_string(),
                "pipeline (storm)".to_string(),
                live_run.detections.len().to_string(),
                live_run
                    .live_detections
                    .iter()
                    .filter(|l| l.in_run)
                    .count()
                    .to_string(),
                if failures.is_empty() { "pass" } else { "FAIL" }.to_string(),
            ]);
        }
        println!("{}", table.render());
        finish(failures);
        return;
    }

    println!(
        "iowatch: live diagnosis dashboard ({} delivery)",
        if opts.snapshot {
            "deferred/deterministic"
        } else {
            "threaded"
        }
    );
    let app = livehub::workload(opts.quick || opts.snapshot);
    let mut spec = livehub::spec(&app, 1);
    if opts.snapshot {
        spec.instrumentation = Instrumentation::connector_deferred();
    }
    let r = iosim_apps::experiment::run_job(&app, &spec);
    let hub = r
        .pipeline
        .as_ref()
        .and_then(|p| p.telemetry())
        .and_then(|t| t.diag())
        .cloned()
        .expect("hub enabled");

    if opts.snapshot {
        // Determinism gate: the identical spec must reproduce the hub
        // event log byte for byte under serial delivery.
        let r2 = iosim_apps::experiment::run_job(&app, &spec);
        let hub2 = r2
            .pipeline
            .as_ref()
            .and_then(|p| p.telemetry())
            .and_then(|t| t.diag())
            .cloned()
            .expect("hub enabled");
        if hub.events_csv() != hub2.events_csv() {
            failures.push("hub event log is not deterministic under deferred delivery".into());
        }
        if r.detections != r2.detections {
            failures.push("detection set is not deterministic under deferred delivery".into());
        }
    }

    let events = hub.events();
    let frame_s = 4 * livehub::SNAPSHOT_EVERY_S;
    println!(
        "\n{} hub events from {} sources, {} dropped from the retained log",
        events.len(),
        events
            .iter()
            .map(|e| e.source.as_str())
            .collect::<std::collections::BTreeSet<_>>()
            .len(),
        hub.log_dropped()
    );
    println!("\n-- dashboard frames ({frame_s}s of virtual time each) --");
    println!("{}", render_frames(&events, frame_s).render());
    render_detail(&hub, &r);
    gate_run(&r, &hub, horizon_s(&spec, &r), &mut failures);

    if let Some(dir) = &opts.out {
        std::fs::create_dir_all(dir).expect("create output dir");
        let mut json = String::from("{\n  \"benchmark\": \"iowatch\",\n");
        let _ = writeln!(json, "  \"hub_events\": {},", events.len());
        let _ = writeln!(
            json,
            "  \"hub_timeline\": {},",
            livehub::timeline_json(&hub)
        );
        let _ = writeln!(
            json,
            "  \"detection_live_stream\": {}",
            livehub::live_stream_json(&r.live_detections)
        );
        json.push_str("}\n");
        for (name, contents) in [
            ("BENCH_iowatch_timeline.csv", hub.timeline_csv()),
            ("BENCH_iowatch_events.csv", hub.events_csv()),
            ("BENCH_iowatch.json", json),
        ] {
            std::fs::write(dir.join(name), contents).expect("write artifact");
            eprintln!("wrote {}", dir.join(name).display());
        }
    }
    finish(failures);
}

fn finish(failures: Vec<String>) {
    if !failures.is_empty() {
        eprintln!("\nFAILURES:");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    println!("\niowatch: all gates passed");
}
