//! `pipestat` — pipeline self-telemetry report for the paper workloads.
//!
//! Runs the four paper workloads through the full pipeline with the
//! telemetry hub enabled (`TelemetryConfig::trace_all()`, so every
//! message carries a trace context) and renders, per workload:
//!
//! * a **per-daemon metric table** from the registry — forwarded /
//!   ingested counters, retry-queue depth, parked frames, retry
//!   backoff histogram, WAL replays, heartbeat misses, and the DSOS
//!   store's dedup-hit counter. Compute-node samplers (`nidNNNNN`) are
//!   folded into one aggregate row to keep the table readable at 128
//!   ranks;
//! * a **per-hop latency table** from the sampled span log — publish,
//!   forward, park, retry, WAL-replay, and ingest hop latencies plus
//!   the end-to-end publish→ingest distribution (p50/p95/max in
//!   virtual milliseconds);
//! * an **online-detection report**: the Figure 7–9 campaign rerun
//!   with the streaming anomaly detector riding every job (live and
//!   fleet-level findings), plus exact precision/recall of the
//!   detector against the labeled scenario corpus — exported as the
//!   `detection_*` families in the JSON snapshot and gated by the CI
//!   `detect` job;
//! * a **live diagnosis hub** section: the shared anomalous MPI-IO run
//!   with streaming detection, exported as the `hub_timeline`
//!   (multi-resolution metric ring) and `detection_live_stream`
//!   (per-finding emit instants) families and gated on exact live vs
//!   settle-replay parity.
//!
//! Emits `BENCH_pipestat.json` (one registry + latency snapshot per
//! workload, via the hub's JSON exporter) and `BENCH_pipestat.prom`
//! (the Prometheus-style text exposition of the headline HACC-IO run).
//! Exits non-zero if any workload loses messages, leaves the delivery
//! ledger unbalanced, completes zero traces, or renders an empty
//! exposition — the CI `telemetry-smoke` job gates on this binary.

use darshan_ldms_connector::{
    DeliveryMode, FaultScript, OverloadConfig, Pipeline, QueueConfig, TelemetryConfig,
    WorkloadSpec, DEFAULT_STREAM_TAG,
};
use hpcws_sim::online::{OnlineDetector, OnlineEvent};
use hpcws_sim::{AnomalyKind, DetectionConfig, DiagnosticEvent};
use iolint::{analyze_flow, FlowReport, Role, TopologySpec};
use iosim_apps::detect::row_to_event;
use iosim_apps::experiment::{run_job, Instrumentation, RunSpec};
use iosim_apps::platform::FsChoice;
use iosim_apps::workloads::{HaccIo, Hmmer, MpiIoTest, Sw4, Workload};
use iosim_telemetry::{HistogramSnapshot, HopKind, LatencySummary, Metric};
use iosim_util::table::TextTable;
use repro_bench::HarnessOpts;
use repro_suite::scenario;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Metric families rendered as table columns, in display order. Must
/// track the families every daemon registers when it is built and the
/// DSOS store.
const FAMILIES: [&str; 14] = [
    "forwarded",
    "ingested",
    "queue_depth",
    "parked_frames",
    "retries",
    "retry_backoff_ms",
    "wal_replayed",
    "heartbeat_misses",
    "ingest_dedup_hits",
    "overload_depth",
    "overload_throttled",
    "overload_spilled",
    "overload_folded",
    "overload_summaries",
];

fn workloads(quick: bool) -> Vec<(&'static str, Box<dyn Workload>)> {
    let scale = if quick { 1 } else { 2 };
    vec![
        (
            "HACC-IO",
            Box::new(HaccIo {
                nodes: 32 * scale,
                ranks_per_node: 4,
                particles_per_rank: 50_000,
                path: "/scratch/hacc-io.pipestat".to_string(),
            }) as Box<dyn Workload>,
        ),
        (
            "MPI-IO-TEST",
            Box::new(MpiIoTest {
                iterations: 4,
                block: 1 << 20,
                ..MpiIoTest {
                    nodes: 8 * scale,
                    ranks_per_node: 4,
                    ..MpiIoTest::tiny(false)
                }
            }),
        ),
        (
            "HMMER",
            Box::new(Hmmer {
                ranks: 8,
                families: 400 * u64::from(scale),
                sequences: 8_000 * u64::from(scale),
                ..Hmmer::tiny()
            }),
        ),
        (
            "sw4",
            Box::new(Sw4 {
                nodes: 4 * scale,
                ranks_per_node: 4,
                grid: [64, 64, 32],
                steps: 8,
                checkpoint_every: 2,
                compute_s_per_step: 0.01,
                path: "/scratch/sw4.pipestat".to_string(),
            }),
        ),
    ]
}

/// One daemon's (or daemon group's) value for one family, summed so
/// sampler rows can be folded together.
#[derive(Default, Clone, Copy)]
struct Cell {
    value: u64,
    hist: Option<HistogramSnapshot>,
    present: bool,
}

impl Cell {
    fn absorb(&mut self, m: &Metric) {
        self.present = true;
        match m {
            Metric::Counter(c) => self.value += c.get(),
            Metric::Gauge(g) => self.value += g.get(),
            Metric::Histogram(h) => {
                let s = h.snapshot();
                let acc = self.hist.get_or_insert_with(HistogramSnapshot::default);
                acc.count += s.count;
                acc.sum = acc.sum.saturating_add(s.sum);
                acc.max = acc.max.max(s.max);
                acc.p50 = acc.p50.max(s.p50);
                acc.p95 = acc.p95.max(s.p95);
            }
        }
    }

    fn render(&self) -> String {
        if !self.present {
            return "-".to_string();
        }
        match self.hist {
            Some(s) if s.count > 0 => format!("n={} p95={}ms", s.count, s.p95),
            Some(_) => "n=0".to_string(),
            None => self.value.to_string(),
        }
    }
}

/// Folds the registry's `family -> daemon -> metric` map into
/// `row label -> family -> cell`, collapsing `nidNNNNN` samplers into
/// one aggregate row.
fn daemon_rows(
    families: &[(String, Vec<(String, Metric)>)],
) -> (BTreeMap<String, BTreeMap<String, Cell>>, usize) {
    let mut rows: BTreeMap<String, BTreeMap<String, Cell>> = BTreeMap::new();
    let mut samplers = std::collections::BTreeSet::new();
    for (family, series) in families {
        for (daemon, metric) in series {
            let label = if daemon.starts_with("nid") {
                samplers.insert(daemon.clone());
                "nid* (samplers)".to_string()
            } else {
                daemon.clone()
            };
            rows.entry(label)
                .or_default()
                .entry(family.clone())
                .or_default()
                .absorb(metric);
        }
    }
    (rows, samplers.len())
}

fn ms(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e6)
}

/// Runs the flow solver over the topology a run actually used, under
/// the rate envelope the run realized (total observed message rate,
/// split evenly across samplers). For the calm paper workloads — no
/// faults, no controller — the solver's ceilings are hard promises the
/// run must stay inside; storms are bursty and only get the floor
/// printed, not gated.
fn static_bounds(p: &Pipeline, messages: u64, msg_rate: f64) -> FlowReport {
    let mut spec = TopologySpec::from_pipeline(p, DEFAULT_STREAM_TAG, &FaultScript::new());
    let samplers = spec
        .daemons
        .iter()
        .filter(|d| d.role == Role::Sampler)
        .count()
        .max(1);
    let per_sampler = (msg_rate / samplers as f64).max(1e-9);
    for d in &mut spec.daemons {
        if d.role == Role::Sampler {
            d.rate_hz = Some(per_sampler);
        }
    }
    let duration = messages as f64 / msg_rate.max(1e-9);
    let w = WorkloadSpec::new(duration).with_default_rate(per_sampler);
    analyze_flow(&spec, Some(&w))
}

fn hop_table(latency: &LatencySummary) -> TextTable {
    let mut t = TextTable::new(vec![
        "hop",
        "spans",
        "p50 (ms)",
        "p95 (ms)",
        "max (ms)",
        "mean (ms)",
    ]);
    for kind in HopKind::ALL {
        let s = latency.hop(kind);
        if s.count == 0 {
            continue;
        }
        t.row(vec![
            kind.as_str().to_string(),
            s.count.to_string(),
            ms(s.p50),
            ms(s.p95),
            ms(s.max),
            format!("{:.3}", s.mean() / 1e6),
        ]);
    }
    let e = &latency.end_to_end;
    t.row(vec![
        "end-to-end".to_string(),
        e.count.to_string(),
        ms(e.p50),
        ms(e.p95),
        ms(e.max),
        format!("{:.3}", e.mean() / 1e6),
    ]);
    t
}

fn main() {
    let opts = HarnessOpts::from_args();
    let mut failures: Vec<String> = Vec::new();
    let mut json = String::from("{\n  \"benchmark\": \"pipestat\",\n");
    let _ = writeln!(json, "  \"quick\": {},", opts.quick);
    json.push_str("  \"workloads\": [\n");
    let mut headline_prom = String::new();

    println!("pipestat: pipeline self-telemetry report (trace-all sampling)");
    let apps = workloads(opts.quick);
    for (wi, (name, app)) in apps.iter().enumerate() {
        let spec = RunSpec::calm(FsChoice::Lustre, Instrumentation::connector_default())
            .with_store(true)
            .with_telemetry(TelemetryConfig::trace_all());
        let r = run_job(app.as_ref(), &spec);
        let p = r.pipeline.as_ref().expect("connector run has a pipeline");
        let tel = p.telemetry().expect("telemetry was requested").clone();
        let balanced = p.ledger().balances();
        let prom = tel.render_prometheus();
        let families = tel.registry().families();
        let (rows, sampler_count) = daemon_rows(&families);

        println!(
            "\n== {name} ==  {} msgs published, {} lost, ledger {}",
            r.messages,
            r.messages_lost,
            if balanced { "balanced" } else { "UNBALANCED" }
        );
        println!(
            "  {} metric series across {} daemons ({} samplers folded), {} traces / {} spans ({} dropped)",
            tel.registry().series_count(),
            rows.len() + sampler_count.saturating_sub(1),
            sampler_count,
            r.latency.traces,
            r.latency.spans,
            r.latency.spans_dropped,
        );

        let mut header = vec!["daemon".to_string()];
        header.extend(FAMILIES.iter().map(|f| (*f).to_string()));
        let mut table = TextTable::new(header);
        for (label, cells) in &rows {
            let mut row = vec![label.clone()];
            for family in FAMILIES {
                row.push(cells.get(family).copied().unwrap_or_default().render());
            }
            table.row(row);
        }
        println!("\n{}", table.render());
        println!("{}", hop_table(&r.latency).render());

        // Static worst-case bounds vs what the run observed. Calm runs
        // sit strictly inside the solver's ceilings or the binary (and
        // the CI job gating on it) fails.
        let flow = static_bounds(p, r.messages, r.msg_rate);
        let p95_s = r.latency.p95_end_to_end_s();
        let mut bound_table = TextTable::new(vec!["quantity", "static bound", "observed"]);
        bound_table.row(vec![
            "lost messages".into(),
            format!("<= {:.0}", flow.loss_ceiling),
            r.messages_lost.to_string(),
        ]);
        bound_table.row(vec![
            "summarized".into(),
            format!("<= {:.0}", flow.summarized_ceiling),
            r.messages_summarized.to_string(),
        ]);
        bound_table.row(vec![
            "e2e p95 (s)".into(),
            format!("<= {:.1}", flow.e2e_latency_s),
            format!("{p95_s:.4}"),
        ]);
        println!("{}", bound_table.render());
        if r.messages_lost as f64 > flow.loss_ceiling + 0.5 {
            failures.push(format!(
                "{name}: lost {} > static ceiling {:.0}",
                r.messages_lost, flow.loss_ceiling
            ));
        }
        if r.messages_summarized as f64 > flow.summarized_ceiling + 0.5 {
            failures.push(format!(
                "{name}: summarized {} > static ceiling {:.0}",
                r.messages_summarized, flow.summarized_ceiling
            ));
        }
        if p95_s > flow.e2e_latency_s {
            failures.push(format!(
                "{name}: e2e p95 {p95_s:.3}s > static bound {:.1}s",
                flow.e2e_latency_s
            ));
        }

        if r.messages_lost != 0 || !balanced {
            failures.push(format!(
                "{name}: lost {} messages (balanced: {balanced})",
                r.messages_lost
            ));
        }
        if r.latency.traces == 0 || r.latency.end_to_end.count == 0 {
            failures.push(format!(
                "{name}: no completed traces despite trace-all sampling"
            ));
        }
        if prom.is_empty() {
            failures.push(format!("{name}: empty Prometheus exposition"));
        }
        if *name == "HACC-IO" {
            headline_prom = prom;
        }

        let _ = writeln!(json, "    {{\n      \"workload\": \"{name}\",");
        let _ = writeln!(json, "      \"messages\": {},", r.messages);
        let _ = writeln!(json, "      \"lost\": {},", r.messages_lost);
        let _ = writeln!(json, "      \"summarized\": {},", r.messages_summarized);
        let _ = writeln!(json, "      \"accuracy\": {:.6},", r.accuracy);
        let _ = writeln!(json, "      \"balanced\": {balanced},");
        let _ = writeln!(
            json,
            "      \"flow_bounds\": {{\"loss_ceiling\": {:.3}, \"summarized_ceiling\": {:.3}, \"e2e_latency_s\": {:.3}}},",
            flow.loss_ceiling, flow.summarized_ceiling, flow.e2e_latency_s
        );
        let _ = writeln!(json, "      \"snapshot\": {}", tel.render_json());
        let _ = writeln!(json, "    }}{}", if wi + 1 < apps.len() { "," } else { "" });
    }
    json.push_str("  ],\n");

    // Online anomaly detection: the Figure 7–9 MPI-IO campaign with
    // live detection riding every job (job 2 carries the injected
    // congestion anomaly), a fleet-level replay over all stored rows,
    // and the labeled scenario corpus scored for exact precision and
    // recall. The CI `detect` job gates on this section: calm jobs
    // must stay silent, job 302 must alarm live with TRC011 and at
    // fleet level on its reads, and the corpus quality gates
    // (precision ≥ 0.9, recall ≥ 0.8 per class) must hold.
    println!("\n== online anomaly detection (Figure 7-9 campaign) ==");
    let runs = iosim_apps::figdata::mpi_io_figure_runs(4, opts.quick);
    let mut live: Vec<DiagnosticEvent> = Vec::new();
    for (i, r) in runs.results.iter().enumerate() {
        let job = runs.job_ids[i];
        if job == 302 {
            let write_hit = r
                .detections
                .iter()
                .any(|d| d.kind == AnomalyKind::DurationOutlier && d.op == "write");
            if !write_hit {
                failures.push("detection: job 302's write slowdown was not flagged live".into());
            }
            if !r.trace_report.codes().contains("TRC011") {
                failures.push("detection: TRC011 missing from job 302's trace report".into());
            }
        } else if !r.detections.is_empty() {
            failures.push(format!(
                "detection: calm job {job} raised {} false alarms",
                r.detections.len()
            ));
        }
        live.extend(r.detections.iter().cloned());
    }

    // Fleet replay: one detector across all four jobs' stored rows.
    // Cross-job baselines catch what no single run can — job 302's
    // reads are uniformly slow, invisible to its own history but an
    // extreme outlier against the fleet's cached reads. Window sizing
    // is tuned to the quick campaign's timescales, so the pass (and
    // its gate) runs in quick mode only.
    let fleet: Vec<DiagnosticEvent> = if opts.quick {
        let mut events: Vec<OnlineEvent> = Vec::new();
        for (&job_id, r) in runs.job_ids.iter().zip(&runs.results) {
            let p = r.pipeline.as_ref().expect("figure runs store events");
            events.extend(
                p.events_of_job(job_id)
                    .iter()
                    .filter_map(|r| row_to_event(r)),
            );
        }
        events.sort_by(|a, b| {
            a.end
                .total_cmp(&b.end)
                .then_with(|| a.job_id.cmp(&b.job_id))
                .then_with(|| a.rank.cmp(&b.rank))
                .then_with(|| a.op.cmp(&b.op))
                .then_with(|| a.file.cmp(&b.file))
                .then_with(|| a.len.cmp(&b.len))
                .then_with(|| a.off.cmp(&b.off))
        });
        let cfg = DetectionConfig {
            baseline_min_windows: 2,
            ..DetectionConfig::default().with_window_s(0.05)
        };
        let mut det = OnlineDetector::new(cfg);
        for e in &events {
            det.observe(e);
        }
        let fleet = det.finish();
        if !fleet
            .iter()
            .any(|d| d.job_id == 302 && d.kind == AnomalyKind::DurationOutlier && d.op == "read")
        {
            failures.push("detection: fleet pass missed job 302's read anomaly".into());
        }
        if fleet.iter().any(|d| d.job_id != 302) {
            failures.push("detection: fleet pass flagged a calm job".into());
        }
        fleet
    } else {
        Vec::new()
    };

    let mut det_table = TextTable::new(vec![
        "source",
        "kind",
        "severity",
        "job",
        "rank",
        "op",
        "onset (s)",
        "detected (s)",
        "observed (s)",
        "baseline (s)",
    ]);
    for (src, d) in live
        .iter()
        .map(|d| ("live", d))
        .chain(fleet.iter().map(|d| ("fleet", d)))
    {
        det_table.row(vec![
            src.to_string(),
            d.kind.to_string(),
            d.severity.as_str().to_string(),
            d.job_id.to_string(),
            d.rank.map_or_else(|| "-".to_string(), |r| r.to_string()),
            d.op.clone(),
            format!("{:.3}", d.onset),
            format!("{:.3}", d.detected_at),
            format!("{:.6}", d.observed),
            format!("{:.6}", d.baseline),
        ]);
    }
    println!("{}", det_table.render());

    println!("== detection quality vs labeled scenario corpus (seeds 1/7/42) ==");
    let mut quality: BTreeMap<scenario::AnomalyClass, scenario::ClassQuality> = BTreeMap::new();
    for seed in [1u64, 7, 42] {
        for sc in scenario::corpus(seed) {
            let mut det = OnlineDetector::new(DetectionConfig::default());
            for e in &sc.events {
                det.observe(e);
            }
            let dets = det.finish();
            if sc.class == scenario::AnomalyClass::CalmControl {
                if !dets.is_empty() {
                    failures.push(format!(
                        "detection: calm control (seed {seed}) raised {} false alarms",
                        dets.len()
                    ));
                }
                continue;
            }
            for (class, q) in scenario::evaluate(&dets, &sc.labels, 10.0) {
                quality.entry(class).or_default().absorb(q);
            }
        }
    }
    let mut quality_table = TextTable::new(vec![
        "class",
        "tp",
        "fp",
        "fn",
        "precision",
        "recall",
        "gate",
    ]);
    for (class, q) in &quality {
        let ok = q.precision() >= 0.9 && q.recall() >= 0.8;
        if !ok {
            failures.push(format!(
                "detection: {} precision {:.3} / recall {:.3} below the 0.9/0.8 gates",
                class.as_str(),
                q.precision(),
                q.recall()
            ));
        }
        quality_table.row(vec![
            class.as_str().to_string(),
            q.true_positives.to_string(),
            q.false_positives.to_string(),
            q.false_negatives.to_string(),
            format!("{:.3}", q.precision()),
            format!("{:.3}", q.recall()),
            (if ok { "pass" } else { "FAIL" }).to_string(),
        ]);
    }
    println!("{}", quality_table.render());

    let json_det = |d: &DiagnosticEvent| {
        format!(
            "{{\"kind\": \"{}\", \"severity\": \"{}\", \"job\": {}, \"rank\": {}, \"op\": \"{}\", \
             \"onset_s\": {:.3}, \"detected_s\": {:.3}, \"observed_s\": {:.6}, \"baseline_s\": {:.6}}}",
            d.kind,
            d.severity.as_str(),
            d.job_id,
            d.rank.map_or_else(|| "null".to_string(), |r| r.to_string()),
            d.op,
            d.onset,
            d.detected_at,
            d.observed,
            d.baseline
        )
    };
    for (key, dets) in [("detection_live", &live), ("detection_fleet", &fleet)] {
        let _ = writeln!(json, "  \"{key}\": [");
        for (i, d) in dets.iter().enumerate() {
            let _ = writeln!(
                json,
                "    {}{}",
                json_det(d),
                if i + 1 < dets.len() { "," } else { "" }
            );
        }
        json.push_str("  ],\n");
    }
    json.push_str("  \"detection_quality\": [\n");
    for (i, (class, q)) in quality.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"class\": \"{}\", \"true_positives\": {}, \"false_positives\": {}, \
             \"false_negatives\": {}, \"precision\": {:.4}, \"recall\": {:.4}}}{}",
            class.as_str(),
            q.true_positives,
            q.false_positives,
            q.false_negatives,
            q.precision(),
            q.recall(),
            if i + 1 < quality.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");

    // Live diagnosis hub: the shared anomalous MPI-IO run with
    // streaming detection and the hub collecting snapshots, health,
    // fault, and detection events. Exported as the `hub_timeline`
    // (multi-resolution metric ring) and `detection_live_stream`
    // (per-finding emit instants) families; gated on exact live vs
    // settle-replay parity.
    println!("\n== live diagnosis hub (anomalous MPI-IO run) ==");
    let live_run = repro_bench::livehub::run(true, 1);
    let hub = live_run
        .pipeline
        .as_ref()
        .and_then(|p| p.telemetry())
        .and_then(|t| t.diag())
        .cloned()
        .expect("livehub spec enables the hub");
    let in_run = live_run.live_detections.iter().filter(|l| l.in_run).count();
    println!(
        "  {} hub events, {} timeline rows, {} detections ({} emitted in-run)",
        hub.published(),
        hub.timeline().len(),
        live_run.detections.len(),
        in_run
    );
    if live_run.detections.is_empty() {
        failures.push("livehub: the injected storm was not detected".into());
    }
    if live_run.live_detections.len() != live_run.detections.len()
        || live_run
            .detections
            .iter()
            .any(|d| !live_run.live_detections.iter().any(|l| &l.event == d))
    {
        failures.push("livehub: live stream != settle-replay oracle".into());
    }
    if hub.timeline().is_empty() {
        failures.push("livehub: snapshot cadence left the timeline ring empty".into());
    }
    let _ = writeln!(
        json,
        "  \"hub_timeline\": {},",
        repro_bench::livehub::timeline_json(&hub)
    );
    let _ = writeln!(
        json,
        "  \"detection_live_stream\": {},",
        repro_bench::livehub::live_stream_json(&live_run.live_detections)
    );

    // Achieved accuracy vs offered load: the HMMER storm rerun with an
    // overload controller whose service rate is 1×, 4× and 16×
    // oversubscribed. Accuracy is the individually-delivered fraction
    // of the event mass that reached the store; the remainder arrived
    // at summary fidelity. The ledger must balance exactly at every
    // load point — degradation is never silent loss — and accuracy
    // must never rise as the offered load grows.
    println!("\n== achieved accuracy vs offered load (HMMER storm) ==");
    let storm_app = Hmmer {
        ranks: 8,
        families: if opts.quick { 100 } else { 400 },
        sequences: if opts.quick { 2_000 } else { 8_000 },
        ..Hmmer::tiny()
    };
    let calib = run_job(
        &storm_app,
        &RunSpec::calm(FsChoice::Lustre, Instrumentation::connector_default())
            .with_store(true)
            .with_delivery(DeliveryMode::Deferred),
    );
    let offered = calib.msg_rate;
    let mut load_table = TextTable::new(vec![
        "offered load",
        "service rate (msg/s)",
        "accuracy",
        "static floor",
        "summarized",
        "lost",
        "ledger",
    ]);
    json.push_str("  \"overload\": [\n");
    let loads = [1.0f64, 4.0, 16.0];
    let mut prev_accuracy = f64::INFINITY;
    for (li, &x) in loads.iter().enumerate() {
        let rate = offered / x;
        let mut spec = RunSpec::calm(FsChoice::Lustre, Instrumentation::connector_default())
            .with_store(true)
            .with_delivery(DeliveryMode::Deferred)
            .with_queue(QueueConfig::reliable().with_capacity(4096))
            .with_overload(OverloadConfig::for_rate(rate));
        // The most oversubscribed point doubles as the overload-metric
        // showcase: telemetry on, so the per-daemon table below shows
        // the overload_* families next to the transport counters.
        if li + 1 == loads.len() {
            spec = spec.with_telemetry(TelemetryConfig::trace_all());
        }
        let r = run_job(&storm_app, &spec);
        let p = r.pipeline.as_ref().expect("connector run has a pipeline");
        let balanced = p.ledger().balances();
        // Informational only: real storms are bursty while the solver's
        // envelope is fluid, so the static floor is shown beside the
        // achieved accuracy but not gated here (the soundness suite
        // gates it on rate-controlled scenarios).
        let floor = static_bounds(p, r.messages, r.msg_rate).accuracy_floor;
        load_table.row(vec![
            format!("{x}x"),
            format!("{rate:.0}"),
            format!("{:.4}", r.accuracy),
            format!(">= {floor:.4}"),
            r.messages_summarized.to_string(),
            r.messages_lost.to_string(),
            if balanced { "balanced" } else { "UNBALANCED" }.to_string(),
        ]);
        if !balanced {
            failures.push(format!("HMMER storm {x}x: ledger unbalanced"));
        }
        if r.accuracy > prev_accuracy + 1e-9 {
            failures.push(format!(
                "HMMER storm {x}x: accuracy {:.4} rose above the lighter load's {prev_accuracy:.4}",
                r.accuracy
            ));
        }
        prev_accuracy = r.accuracy;
        if let Some(tel) = p.telemetry() {
            p.network().sync_overload_telemetry();
            let (rows, _) = daemon_rows(&tel.registry().families());
            let mut header = vec!["daemon".to_string()];
            header.extend(FAMILIES.iter().map(|f| (*f).to_string()));
            let mut table = TextTable::new(header);
            for (label, cells) in &rows {
                let mut row = vec![label.clone()];
                for family in FAMILIES {
                    row.push(cells.get(family).copied().unwrap_or_default().render());
                }
                table.row(row);
            }
            println!("\n(16x storm daemon metrics)\n{}", table.render());
        }
        let _ = writeln!(
            json,
            "    {{\"offered_load\": {x}, \"service_rate\": {rate:.3}, \"accuracy\": {:.6}, \"summarized\": {}, \"lost\": {}, \"balanced\": {balanced}}}{}",
            r.accuracy,
            r.messages_summarized,
            r.messages_lost,
            if li + 1 < loads.len() { "," } else { "" },
        );
    }
    println!("{}", load_table.render());
    json.push_str("  ]\n}\n");

    std::fs::write("BENCH_pipestat.json", &json).expect("write BENCH_pipestat.json");
    std::fs::write("BENCH_pipestat.prom", &headline_prom).expect("write BENCH_pipestat.prom");
    eprintln!("\nwrote BENCH_pipestat.json and BENCH_pipestat.prom");
    opts.write_artifact("BENCH_pipestat.json", &json);
    opts.write_artifact("BENCH_pipestat.prom", &headline_prom);

    if !failures.is_empty() {
        eprintln!("\nFAILURES:");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}
