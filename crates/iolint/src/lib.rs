//! `iolint` — a diagnostics framework for the Darshan-LDMS pipeline.
//!
//! Three passes, one report format:
//!
//! * **Topology** (`TOP001`–`TOP013`): static validation of an
//!   aggregation topology's *shape* — forwarding cycles, orphan
//!   samplers, unreachable stores, missing subscribers, queue-capacity
//!   and retry-deadline feasibility against scheduled downtime,
//!   duplicate producer names, Table I schema coverage,
//!   single-point-of-failure aggregators, WAL and sampling-watermark
//!   sizing. Runs on the daemon graph a
//!   [`Pipeline`]/[`LdmsNetwork`](ldms_sim::LdmsNetwork) is built from,
//!   *before* any message flows, or on a declarative conf file (which
//!   yields the same graph) in CI.
//! * **Flow** (`FLOW001`–`FLOW004`): a whole-pipeline abstract
//!   interpretation ([`analyze_flow`]) deriving sound per-hop
//!   worst-case bounds — peak queue depth, spill volume, WAL
//!   high-water, loss ceiling *and* guaranteed-loss floor,
//!   summarization mass, end-to-end latency — under the conf's fault
//!   script and workload envelope, with solver-backed lints for
//!   provable loss, accuracy-floor breaches, crash-window WAL
//!   overflow, and latency-budget violations. Conf parse failures
//!   surface as `CONF001` with the offending line.
//! * **Trace** (`TRC001`–`TRC013`): linting of stored `darshan_data`
//!   rows — unmatched opens/closes, impossible or overlapping
//!   durations, timestamp regressions, sequence gaps the delivery
//!   ledger cannot explain, latency-budget breaches, the I/O
//!   anti-patterns (tiny unaligned writes, rank stragglers) the paper
//!   diagnoses at run time, the online detector's live findings
//!   (`TRC010`–`TRC012`: straggler ranks, duration outliers, phase
//!   anomalies) folded into the same report, and slow alert delivery
//!   (`TRC013`: a live detection emitted past its alert budget).
//!
//! Diagnostics carry stable codes with rustc-style `allow`/`warn`/
//! `deny` configuration ([`LintConfig`]) and render as plain text, a
//! table, or JSON ([`Report`]).
//!
//! ```
//! use iolint::{check_topology, parse_conf, LintConfig};
//!
//! let spec = parse_conf("
//!     daemon nid0 sampler
//!       upstream agg
//!     daemon agg l2
//! ").unwrap();
//! let report = check_topology(&spec, &LintConfig::new());
//! assert!(report.codes().contains("TOP004")); // no subscriber at `agg`
//! ```

#![forbid(unsafe_code)]
#![warn(clippy::pedantic)]
// Pedantic triage — deliberate exceptions, each with a reason:
#![allow(clippy::must_use_candidate)] // pure getters pervade the diag API; per-fn annotation is noise
#![allow(clippy::missing_errors_doc)] // error conditions are documented in prose on the error types
#![allow(clippy::missing_panics_doc)] // the only panics are internal-invariant expects
#![allow(clippy::cast_precision_loss)] // counts/capacities ≪ 2^52, so u64→f64 is exact in practice
#![allow(clippy::too_many_lines)] // lint_topology/lint_trace are deliberately single linear sweeps

mod conf;
pub mod diag;
mod flow;
mod topology;
mod trace;

pub use conf::{parse_conf, ConfError};
pub use diag::{
    find_lint, Diagnostic, LintCode, LintConfig, LintLevel, Report, Severity, REGISTRY,
};
pub use flow::{analyze_flow, effective_workload, lint_flow, FlowReport, HopBounds};
pub use topology::{
    lint_topology, pipeline_spec, DaemonConf, FaultWindows, OutageKind, OutageSpec, TopologySpec,
};
pub use trace::{
    events_from_cluster, events_from_csv, lint_detection_latency, lint_detections, lint_gaps,
    lint_latency_budget, lint_trace, LossBudget, TraceLintOpts,
};

use darshan_ldms_connector::Pipeline;

/// Runs the topology pass over a spec and folds the findings into a
/// configured [`Report`].
pub fn check_topology(spec: &TopologySpec, config: &LintConfig) -> Report {
    Report::new(lint_topology(spec), config)
}

/// Pre-flight check of an assembled pipeline: runs the topology pass
/// over the graph and fault script the pipeline was built from, with
/// its store schema and storage tier ([`pipeline_spec`]).
pub fn check_pipeline_topology(p: &Pipeline, config: &LintConfig) -> Report {
    Report::new(lint_topology(&pipeline_spec(p)), config)
}

/// Whole-pipeline flow analysis: runs the abstract interpreter over
/// the spec's workload envelope (or `workload`, when given), folds the
/// solver-backed FLOW lints together with the topology pass, and
/// returns both the configured [`Report`] and the bound table.
pub fn check_flow(
    spec: &TopologySpec,
    workload: Option<&darshan_ldms_connector::WorkloadSpec>,
    config: &LintConfig,
) -> (Report, flow::FlowReport) {
    let flow_report = analyze_flow(spec, workload);
    let mut diags = lint_topology(spec);
    diags.extend(lint_flow(spec, &flow_report));
    (Report::new(diags, config), flow_report)
}

/// Runs the trace pass over a slice of decoded events (no gap
/// reconciliation — use [`lint_gaps`] separately when a ledger is
/// available).
pub fn check_trace(events: &[hpcws_sim::OnlineEvent], config: &LintConfig) -> Report {
    Report::new(lint_trace(events), config)
}

/// Post-run check of an assembled pipeline: lints every stored event
/// and reconciles the store's sequence gaps against the pipeline's
/// delivery ledger. [`TraceLintOpts`] has nothing to set.
pub fn check_pipeline_trace(p: &Pipeline, _opts: &TraceLintOpts, config: &LintConfig) -> Report {
    Report::new(trace::lint_pipeline_trace(p), config)
}

/// Advisory latency-budget check (`TRC009`) over a run's sampled
/// latency digest: p95 end-to-end latency and completed-trace count as
/// plain numbers, compared against a budget in virtual seconds.
pub fn check_latency_budget(p95_s: f64, traces: u64, budget_s: f64, config: &LintConfig) -> Report {
    Report::new(trace::lint_latency_budget(p95_s, traces, budget_s), config)
}

/// Folds a run's online detections (`TRC010`–`TRC012`) into a
/// configured [`Report`], so live anomaly alerts render, merge, and
/// gate exactly like every other lint.
pub fn check_detections(detections: &[hpcws_sim::DiagnosticEvent], config: &LintConfig) -> Report {
    Report::new(trace::lint_detections(detections), config)
}

/// Advisory detection-latency check (`TRC013`) over a run's live
/// detections: `(subject, onset-to-emission latency)` pairs as plain
/// values, compared against an alert budget in virtual seconds.
pub fn check_detection_latency(
    latencies: &[(String, f64)],
    budget_s: f64,
    config: &LintConfig,
) -> Report {
    Report::new(trace::lint_detection_latency(latencies, budget_s), config)
}
