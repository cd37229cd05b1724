//! The trace pass: linting stored `darshan_data` rows.
//!
//! Operates on [`OnlineEvent`]s decoded from the stored rows or from an
//! exported Figure 3 CSV. Lints cover structural integrity
//! (unmatched open/close, negative or overlapping durations,
//! non-monotonic timestamps), delivery integrity (sequence gaps the
//! [`DeliveryLedger`](ldms_sim::ledger::DeliveryLedger) cannot
//! explain), and I/O anti-patterns the paper's case studies diagnose
//! at run time (flurries of tiny unaligned writes, rank stragglers).
//!
//! Ordering caveat: DSOS ingestion is hash-sharded by `(job, rank)` and
//! queries merge the shards in index order, so the *input order* of a
//! pipeline query reflects index order, not arrival order.
//! [`TRC005`](crate::diag::TRC005) (non-monotonic timestamps) is
//! therefore meaningful for CSV inputs — where file order is the
//! order the connector emitted — and is a vacuous guard on
//! index-sorted rows. All other lints sort by timestamp themselves.

use crate::diag::{self, Diagnostic};
use darshan_ldms_connector::{GapReport, Pipeline, COLUMNS, CONTAINER};
use dsos_sim::{DsosCluster, Scan, ValueRef};
use hpcws_sim::online::{self, OnlineEvent};
use ldms_sim::ledger::LossRecord;
use ldms_sim::DaemonRole;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Reads every stored event from a cluster, in `job_rank_time` index
/// order, decoding each row where it is stored. The lint reads the
/// store, not the ingest tap: rows the schema rejects, and rows written
/// while every replica of their shard was down, reach the tap but are
/// not part of the stored trace this pass certifies.
pub fn events_from_cluster(cluster: &DsosCluster) -> Vec<OnlineEvent> {
    let mut events = Vec::new();
    cluster.scan(CONTAINER, "job_rank_time", Scan::Prefix(&[]), |row| {
        events.extend(OnlineEvent::decode(&row));
    });
    events
}

/// Decodes a Figure 3 CSV export: 24 fields per line in `COLUMNS`
/// order, each parsed as its column's type. Blank lines are skipped,
/// and the first non-blank line is skipped too when it is the header.
/// Returns `(line, reason)` for the first line that does not decode.
pub fn events_from_csv(text: &str) -> Result<Vec<OnlineEvent>, (usize, String)> {
    let mut events = Vec::new();
    let mut first = true;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let fields = iosim_util::csv::decode_row(line);
        if std::mem::take(&mut first) && fields.first().map(String::as_str) == Some(COLUMNS[0].0) {
            continue; // header row
        }
        let cells: Option<Vec<ValueRef<'_>>> = fields
            .iter()
            .enumerate()
            .map(|(col, f)| ValueRef::parse(COLUMNS.get(col)?.1, f))
            .collect();
        match cells.as_deref().and_then(OnlineEvent::decode) {
            Some(e) => events.push(e),
            None => {
                return Err((
                    i + 1,
                    format!(
                        "expected {} typed fields in schema order, got {}",
                        COLUMNS.len(),
                        fields.len()
                    ),
                ))
            }
        }
    }
    Ok(events)
}

/// The anti-pattern lints' thresholds, which are the detector's
/// ([`online::ALIGNMENT`] and the rest), and the slack of every
/// timestamp comparison. There is nothing to set: the type survives
/// only because [`check_pipeline_trace`](crate::check_pipeline_trace)'s
/// signature takes it.
#[derive(Debug, Clone, Default)]
pub struct TraceLintOpts {}

/// Slack for floating-point timestamp comparisons.
const TIME_TOLERANCE: f64 = 1e-9;

fn subject(job_id: u64, rank: u64) -> String {
    format!("job {job_id} rank {rank}")
}

/// Runs every trace-structure and anti-pattern lint (`TRC001`–`TRC005`,
/// `TRC007`, `TRC008`) over the events, which must be in source order
/// (file order for CSV, index order for store queries).
pub fn lint_trace(events: &[OnlineEvent]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let tol = TIME_TOLERANCE;

    // Group by (job, rank), preserving input order within each group.
    let mut groups: BTreeMap<(u64, u64), Vec<&OnlineEvent>> = BTreeMap::new();
    for e in events {
        groups.entry((e.job_id, e.rank)).or_default().push(e);
    }

    for (&(job_id, rank), group) in &groups {
        // TRC005 — timestamps must not run backwards in source order.
        let regressions = group
            .windows(2)
            .filter(|w| w[1].end + tol < w[0].end)
            .count();
        if regressions > 0 {
            diags.push(
                Diagnostic::new(
                    &diag::TRC005,
                    subject(job_id, rank),
                    format!(
                        "{regressions} timestamp regression(s): events run backwards in time \
                         within one rank's trace"
                    ),
                )
                .with_help("a rank emits segments in order; regressions indicate trace corruption"),
            );
        }

        // The remaining structural lints want timeline order.
        let mut timeline: Vec<&OnlineEvent> = group.clone();
        timeline.sort_by(|a, b| a.end.total_cmp(&b.end));

        // TRC003 — negative or non-finite durations, per event.
        for e in &timeline {
            if e.dur < 0.0 || !e.dur.is_finite() {
                diags.push(
                    Diagnostic::new(
                        &diag::TRC003,
                        subject(job_id, rank),
                        format!(
                            "`{}` on `{}` has impossible duration {}s",
                            e.op, e.file, e.dur
                        ),
                    )
                    .with_help("seg_dur must be a finite non-negative elapsed time"),
                );
            }
        }

        // TRC004 — overlapping operations on one rank. One rank is one
        // thread of execution here; an op starting before the previous
        // one ended means the durations are inconsistent.
        let mut overlaps = 0usize;
        let mut prev_end = f64::NEG_INFINITY;
        for e in &timeline {
            if e.dur >= 0.0 && e.dur.is_finite() {
                if e.end - e.dur + tol < prev_end {
                    overlaps += 1;
                }
                prev_end = prev_end.max(e.end);
            }
        }
        if overlaps > 0 {
            diags.push(
                Diagnostic::new(
                    &diag::TRC004,
                    subject(job_id, rank),
                    format!("{overlaps} operation(s) start before the previous one ended"),
                )
                .with_help("overlapping segments on a single rank make per-op timing unusable"),
            );
        }

        // TRC001/TRC002 — open/close pairing per file record.
        let mut depth: HashMap<u64, (i64, &str)> = HashMap::new();
        for e in &timeline {
            match e.op.as_ref() {
                "open" => {
                    let entry = depth.entry(e.record_id).or_insert((0, e.file.as_str()));
                    entry.0 += 1;
                }
                "close" => {
                    let entry = depth.entry(e.record_id).or_insert((0, e.file.as_str()));
                    if entry.0 == 0 {
                        diags.push(
                            Diagnostic::new(
                                &diag::TRC002,
                                subject(job_id, rank),
                                format!("`close` on `{}` without a matching `open`", e.file),
                            )
                            .with_help(
                                "either the open segment was lost in transit or the trace is \
                                 corrupt; check the delivery ledger",
                            ),
                        );
                    } else {
                        entry.0 -= 1;
                    }
                }
                _ => {}
            }
        }
        let mut unmatched: Vec<(&str, i64)> = depth
            .values()
            .filter(|(d, _)| *d > 0)
            .map(|(d, f)| (*f, *d))
            .collect();
        unmatched.sort_unstable();
        for (file, d) in unmatched {
            diags.push(
                Diagnostic::new(
                    &diag::TRC001,
                    subject(job_id, rank),
                    format!("{d} `open`(s) on `{file}` never closed"),
                )
                .with_help(
                    "an open without a close usually means the job was still running at query \
                     time, the close was lost, or the application leaks descriptors",
                ),
            );
        }

        // TRC007 — flurries of tiny unaligned writes per file.
        let mut tiny: BTreeMap<&str, usize> = BTreeMap::new();
        for e in &timeline {
            if e.op == "write"
                && e.len >= 0
                && e.len < online::TINY_WRITE_LEN
                && e.off >= 0
                && e.off % online::ALIGNMENT != 0
            {
                *tiny.entry(e.file.as_str()).or_default() += 1;
            }
        }
        for (file, n) in tiny {
            if n >= online::TINY_WRITE_MIN {
                diags.push(
                    Diagnostic::new(
                        &diag::TRC007,
                        subject(job_id, rank),
                        format!(
                            "{n} writes to `{file}` are shorter than {} bytes and not aligned \
                             to {} bytes",
                            online::TINY_WRITE_LEN,
                            online::ALIGNMENT
                        ),
                    )
                    .with_help("batch small writes or align them to the file-system block size"),
                );
            }
        }
    }

    // TRC008 — rank stragglers, per job.
    let mut per_job: BTreeMap<u64, BTreeMap<u64, f64>> = BTreeMap::new();
    for e in events {
        if (e.op == "read" || e.op == "write") && e.dur.is_finite() && e.dur >= 0.0 {
            *per_job
                .entry(e.job_id)
                .or_default()
                .entry(e.rank)
                .or_default() += e.dur;
        }
    }
    for (job_id, by_rank) in per_job {
        if by_rank.len() < online::STRAGGLER_MIN_RANKS {
            continue;
        }
        let mut times: Vec<f64> = by_rank.values().copied().collect();
        times.sort_by(f64::total_cmp);
        let median = times[times.len() / 2];
        if median <= 0.0 {
            continue;
        }
        let (&worst_rank, &worst) = by_rank
            .iter()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("non-empty rank map");
        if worst >= online::STRAGGLER_FACTOR * median {
            diags.push(
                Diagnostic::new(
                    &diag::TRC008,
                    format!("job {job_id}"),
                    format!(
                        "rank {worst_rank} spent {worst:.3}s in I/O, {:.1}x the job median of \
                         {median:.3}s",
                        worst / median
                    ),
                )
                .with_help(
                    "one slow rank stalls every collective; check its node and its file layout",
                ),
            );
        }
    }

    diags
}

/// The pool of ledger-attributed losses available to explain sequence
/// gaps, split into per-producer buckets and a shared remainder.
///
/// Hop labels follow the ledger's conventions: a loss at
/// `"<producer>/<link>"` or at the producer's own daemon can only have
/// affected that producer's publishes, while losses at aggregators
/// (e.g. `"voltrino-head/site-net"`, `"shirley-agg"`) could have hit
/// any producer routing through them and live in the shared pool.
#[derive(Debug, Clone)]
pub struct LossBudget {
    specific: HashMap<String, u64>,
    shared: u64,
}

impl LossBudget {
    /// Splits a ledger report into per-producer and shared pools.
    /// `producers` is the set of sampler daemon names.
    pub(crate) fn new<'a, I>(records: &[LossRecord], producers: I) -> Self
    where
        I: IntoIterator<Item = &'a str>,
    {
        let producers: HashSet<&str> = producers.into_iter().collect();
        let mut specific: HashMap<String, u64> = HashMap::new();
        let mut shared = 0u64;
        for r in records {
            let owner = r.hop.split('/').next().unwrap_or(&r.hop);
            if producers.contains(owner) {
                *specific.entry(owner.to_string()).or_default() += r.count;
            } else {
                shared += r.count;
            }
        }
        Self { specific, shared }
    }

    /// An empty budget (every gap is unexplained).
    pub fn empty() -> Self {
        Self {
            specific: HashMap::new(),
            shared: 0,
        }
    }

    /// Draws up to `want` losses attributable to `producer` — its own
    /// bucket first, then the shared pool. Returns how many were
    /// actually available.
    pub(crate) fn consume(&mut self, producer: &str, want: u64) -> u64 {
        let own = self.specific.entry(producer.to_string()).or_default();
        let from_own = want.min(*own);
        *own -= from_own;
        let from_shared = (want - from_own).min(self.shared);
        self.shared -= from_shared;
        from_own + from_shared
    }
}

/// Reconciles the store's sequence-gap reports against the delivery
/// ledger: a gap is only a defect (`TRC006`) when the ledger cannot
/// account for that many losses on the producer's path.
pub fn lint_gaps(gaps: &[GapReport], budget: &mut LossBudget) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut sorted: Vec<&GapReport> = gaps.iter().collect();
    sorted.sort_by_key(|g| (&g.producer, g.job_id, g.rank));
    for g in sorted {
        if g.missing == 0 {
            continue;
        }
        let explained = budget.consume(&g.producer, g.missing);
        let unexplained = g.missing - explained;
        if unexplained > 0 {
            diags.push(
                Diagnostic::new(
                    &diag::TRC006,
                    format!("producer `{}` job {} rank {}", g.producer, g.job_id, g.rank),
                    format!(
                        "{unexplained} of {} missing sequence number(s) have no attributed loss \
                         in the delivery ledger (received {} of {})",
                        g.missing, g.received, g.max_seq
                    ),
                )
                .with_help(
                    "losses the ledger cannot explain mean the pipeline dropped data without \
                     accounting for it — a monitoring-integrity bug, not just an outage",
                ),
            );
        }
    }
    diags
}

/// Runs the full trace pass over an assembled pipeline: decodes every
/// stored event, lints the trace, and reconciles sequence gaps against
/// the pipeline's own ledger.
pub(crate) fn lint_pipeline_trace(p: &Pipeline) -> Vec<Diagnostic> {
    let events = events_from_cluster(p.cluster());
    let mut diags = lint_trace(&events);
    let producers = p
        .topology()
        .daemons
        .iter()
        .filter(|d| d.role == DaemonRole::Sampler);
    let mut budget = LossBudget::new(&p.ledger().report(), producers.map(|d| d.name.as_str()));
    diags.extend(lint_gaps(&p.store().gap_reports(), &mut budget));
    diags
}

/// `TRC009` — advisory end-to-end latency budget over a run's sampled
/// traces. Fed plain numbers (p95 in virtual seconds, completed-trace
/// count) so callers need not hold the telemetry hub; a run with no
/// completed trace never fires.
pub fn lint_latency_budget(p95_s: f64, traces: u64, budget_s: f64) -> Vec<Diagnostic> {
    if traces == 0 || p95_s <= budget_s {
        return Vec::new();
    }
    vec![Diagnostic::new(
        &diag::TRC009,
        "pipeline".to_string(),
        format!(
            "sampled end-to-end p95 latency {p95_s:.6}s exceeds the {budget_s:.6}s budget \
             over {traces} traced messages"
        ),
    )
    .with_help(
        "raise the budget, shorten retry backoff, or inspect the per-hop latency histograms",
    )]
}

/// `TRC013` — advisory alert budget from an anomaly's ground onset to
/// its live emission instant. Fed plain `(subject, latency_s)` pairs
/// so callers need not hold detector types; a run with no live
/// detections never fires, and detections that land *within* the
/// budget stay silent — only the slow ones draw the lint.
pub fn lint_detection_latency(latencies: &[(String, f64)], budget_s: f64) -> Vec<Diagnostic> {
    latencies
        .iter()
        .filter(|(_, lat)| *lat > budget_s)
        .map(|(subject, lat)| {
            Diagnostic::new(
                &diag::TRC013,
                subject.clone(),
                format!(
                    "live detection emitted {lat:.3}s after anomaly onset, \
                     over the {budget_s:.3}s alert budget"
                ),
            )
            .with_help(
                "shrink the detector window, raise the budget, or check whether retries \
                 forced the finding back to settle-time emission",
            )
        })
        .collect()
}

/// `TRC010`–`TRC012` — folds the online detector's emissions into the
/// lint report, so live detection and post-run linting tell one story.
/// Each [`hpcws_sim::DiagnosticEvent`] maps to the code of its anomaly
/// class: straggler ranks to `TRC010`, duration outliers to `TRC011`,
/// phase anomalies to `TRC012`.
pub fn lint_detections(detections: &[hpcws_sim::DiagnosticEvent]) -> Vec<Diagnostic> {
    use hpcws_sim::online::{AnomalyKind, DetectionSeverity};
    detections
        .iter()
        .map(|d| {
            let code = match d.kind {
                AnomalyKind::StragglerRank => &diag::TRC010,
                AnomalyKind::DurationOutlier => &diag::TRC011,
                AnomalyKind::PhaseAnomaly => &diag::TRC012,
            };
            let subject = match d.rank {
                Some(rank) => format!("job {} rank {rank}", d.job_id),
                None => format!("job {}", d.job_id),
            };
            let sev = match d.severity {
                DetectionSeverity::Warning => "",
                DetectionSeverity::Critical => " [critical]",
            };
            Diagnostic::new(
                code,
                subject,
                format!(
                    "{}{sev}: {} (onset t={:.3}s, detected t={:.3}s)",
                    d.kind, d.evidence, d.onset, d.detected_at
                ),
            )
            .with_help(
                "inspect the flagged window in the stored trace; the onset instant bounds \
                 where the regime shifted",
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldms_sim::ledger::LossCause;

    fn ev(
        op: &str,
        file: &str,
        record_id: u64,
        len: i64,
        off: i64,
        dur: f64,
        end: f64,
    ) -> OnlineEvent {
        OnlineEvent {
            job_id: 7,
            rank: 0,
            op: online::op_name(op),
            file: file.into(),
            record_id,
            len,
            off,
            dur,
            end,
        }
    }

    #[test]
    fn clean_trace_produces_no_diagnostics() {
        let events = vec![
            ev("open", "/out.dat", 1, -1, -1, 0.001, 1.0),
            ev("write", "/out.dat", 1, 1 << 20, 0, 0.010, 1.5),
            ev("close", "/out.dat", 1, -1, -1, 0.001, 2.0),
        ];
        assert!(lint_trace(&events).is_empty());
    }

    /// One Figure 3 CSV line: a 4 KiB write at 12.25–12.5 s.
    const LINE: &str = "POSIX,1000,nid00040,0,/out.dat,3,0,42,/bin/app,4095,reg,7,write,1,\
                        8192,-1,0.25,4096,-1,-1,-1,N/A,-1,12.5";

    #[test]
    fn csv_round_trip_decodes() {
        let events = events_from_csv(LINE).unwrap();
        let e = &events[0];
        assert_eq!(e.rank, 3);
        assert_eq!(e.record_id, 42);
        assert_eq!(e.op, "write");
        assert!((e.end - e.dur - 12.25).abs() < 1e-12);
        let short = &LINE[..LINE.rfind(',').unwrap()];
        let long = format!("{LINE},1");
        for (bad, got) in [(short, 23), (long.as_str(), 25)] {
            let want = format!("expected 24 typed fields in schema order, got {got}");
            assert_eq!(events_from_csv(bad), Err((1, want)));
        }
    }

    /// The header is the first non-blank line, wherever it sits; a
    /// header-like line after data is a bad row.
    #[test]
    fn csv_header_may_follow_blank_lines() {
        let header: Vec<&str> = COLUMNS.iter().map(|&(name, _)| name).collect();
        let header = header.join(",");
        let events = events_from_csv(&format!("\n  \n{header}\n{LINE}\n\n{LINE}\n")).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events_from_csv(&format!("{LINE}\n{header}\n"))
                .unwrap_err()
                .0,
            2
        );
    }

    #[test]
    fn budget_prefers_producer_bucket_then_shared() {
        let records = vec![
            LossRecord {
                hop: "nid00040/ugni".into(),
                cause: LossCause::LinkLoss,
                count: 2,
            },
            LossRecord {
                hop: "voltrino-head/site-net".into(),
                cause: LossCause::LinkLoss,
                count: 3,
            },
            LossRecord {
                hop: "shirley-agg".into(),
                cause: LossCause::DaemonDown,
                count: 1,
            },
        ];
        let mut b = LossBudget::new(&records, ["nid00040", "nid00041"]);
        // nid00041 has no bucket of its own: draws from shared (4).
        assert_eq!(b.consume("nid00041", 3), 3);
        // nid00040 drains its own 2, then the last shared 1.
        assert_eq!(b.consume("nid00040", 4), 3);
        assert_eq!(b.consume("nid00040", 1), 0);
    }

    #[test]
    fn gaps_with_budget_are_explained() {
        let gaps = vec![GapReport {
            producer: "nid00040".into(),
            job_id: 7,
            rank: 0,
            received: 8,
            max_seq: 10,
            missing: 2,
        }];
        let records = vec![LossRecord {
            hop: "nid00040/ugni".into(),
            cause: LossCause::LinkLoss,
            count: 2,
        }];
        let mut b = LossBudget::new(&records, ["nid00040"]);
        assert!(lint_gaps(&gaps, &mut b).is_empty());
        let mut empty = LossBudget::empty();
        let diags = lint_gaps(&gaps, &mut empty);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code.code, "TRC006");
        assert!(diags[0].message.contains("2 of 2"));
    }

    #[test]
    fn latency_budget_passes_under_budget_and_with_no_traces() {
        // Comfortably under budget: clean.
        assert!(lint_latency_budget(0.002, 128, 0.5).is_empty());
        // Exactly at budget: clean (the budget is inclusive).
        assert!(lint_latency_budget(0.5, 128, 0.5).is_empty());
        // Over budget but nothing was ever traced: advisory lint has
        // no evidence to fire on.
        assert!(lint_latency_budget(9.0, 0, 0.5).is_empty());
    }

    #[test]
    fn latency_budget_fires_as_advisory_warning_when_exceeded() {
        let diags = lint_latency_budget(1.25, 64, 0.5);
        assert_eq!(diags.len(), 1);
        let d = &diags[0];
        assert_eq!(d.code.code, "TRC009");
        assert_eq!(d.severity, crate::Severity::Warning, "advisory, not error");
        assert_eq!(d.subject, "pipeline");
        assert!(d.message.contains("1.250000s"));
        assert!(d.message.contains("0.500000s budget"));
        assert!(d.message.contains("64 traced messages"));
        assert!(d.help.is_some());
    }

    #[test]
    fn detection_latency_fires_only_past_the_alert_budget() {
        // No live detections: nothing to judge.
        assert!(lint_detection_latency(&[], 5.0).is_empty());
        // Within (or exactly at) budget: clean.
        let fast = vec![
            ("duration-outlier job 900 write".to_string(), 2.0),
            ("straggler-rank job 901 io".to_string(), 5.0),
        ];
        assert!(lint_detection_latency(&fast, 5.0).is_empty());
        // One slow alert among fast ones: exactly one TRC013, advisory.
        let mixed = vec![
            ("duration-outlier job 900 write".to_string(), 2.0),
            ("phase-anomaly job 902 write".to_string(), 61.5),
        ];
        let diags = lint_detection_latency(&mixed, 5.0);
        assert_eq!(diags.len(), 1);
        let d = &diags[0];
        assert_eq!(d.code.code, "TRC013");
        assert_eq!(d.severity, crate::Severity::Warning, "advisory, not error");
        assert_eq!(d.subject, "phase-anomaly job 902 write");
        assert!(d.message.contains("61.500s"));
        assert!(d.message.contains("5.000s alert budget"));
        assert!(d.help.is_some());
    }

    #[test]
    fn online_detections_map_to_trc010_trc011_trc012() {
        use hpcws_sim::online::{AnomalyKind, DetectionSeverity, DiagnosticEvent};
        let det = |kind, rank| DiagnosticEvent {
            kind,
            severity: DetectionSeverity::Critical,
            job_id: 302,
            rank,
            op: "read".to_string(),
            onset: 250.0,
            detected_at: 260.0,
            observed: 6.75,
            baseline: 0.05,
            evidence: "reads 6.75s vs fleet 0.05s".to_string(),
        };
        let diags = lint_detections(&[
            det(AnomalyKind::StragglerRank, Some(3)),
            det(AnomalyKind::DurationOutlier, None),
            det(AnomalyKind::PhaseAnomaly, Some(1)),
        ]);
        assert_eq!(diags.len(), 3);
        assert_eq!(diags[0].code.code, "TRC010");
        assert_eq!(diags[0].subject, "job 302 rank 3");
        assert_eq!(diags[1].code.code, "TRC011");
        assert_eq!(diags[1].subject, "job 302");
        assert_eq!(diags[2].code.code, "TRC012");
        for d in &diags {
            assert_eq!(d.severity, crate::Severity::Warning, "advisory default");
            assert!(d.message.contains("onset t=250.000s"), "{}", d.message);
            assert!(d.message.contains("[critical]"));
            assert!(d.help.is_some());
        }
        assert!(lint_detections(&[]).is_empty());
    }
}
