//! The diagnostics core: lint codes, severities, configuration, and
//! report rendering.
//!
//! Modelled on `rustc`'s diagnostics: every finding carries a stable
//! code (`TOP001`, `TRC006`, …) from a fixed [`REGISTRY`], a severity,
//! a *subject* (which pipeline component or trace location it is
//! about), a message, and an optional help line. A [`LintConfig`] can
//! re-level any code (`allow` / `warn` / `deny`) before a
//! [`Report`] is assembled; reports render as rustc-style text, as an
//! aligned table ([`iosim_util::table::TextTable`]), or as JSON
//! ([`iosim_util::JsonWriter`]) for machine consumers.

use iosim_util::table::TextTable;
use iosim_util::JsonWriter;
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but not necessarily fatal; does not fail a run.
    Warning,
    /// A configuration or trace defect that guarantees data loss or
    /// nonsensical stored data; fails CI and the `iolint` CLI.
    Error,
}

impl Severity {
    /// Stable lowercase label (`"warning"` / `"error"`).
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One lint in the registry: stable code, human name, default
/// severity, and a one-line summary of what it detects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LintCode {
    /// Stable code (`TOP001` … / `TRC001` …).
    pub code: &'static str,
    /// Kebab-case name usable in `-A`/`-W`/`-D` flags.
    pub name: &'static str,
    /// Severity when no [`LintConfig`] override applies.
    pub default_severity: Severity,
    /// One-line description.
    pub summary: &'static str,
}

macro_rules! lint {
    ($ident:ident, $code:literal, $name:literal, $sev:ident, $summary:literal) => {
        /// Registry entry (see [`REGISTRY`]).
        pub const $ident: LintCode = LintCode {
            code: $code,
            name: $name,
            default_severity: Severity::$sev,
            summary: $summary,
        };
    };
}

lint!(
    TOP001,
    "TOP001",
    "forwarding-cycle",
    Error,
    "the upstream chain loops; every message entering the cycle is dropped"
);
lint!(
    TOP002,
    "TOP002",
    "orphan-sampler",
    Error,
    "a sampler daemon has no upstream aggregator; its stream never leaves the node"
);
lint!(
    TOP003,
    "TOP003",
    "unreachable-store",
    Error,
    "a daemon hosts a subscriber but lies on no sampler's forwarding path"
);
lint!(
    TOP004,
    "TOP004",
    "missing-subscriber",
    Error,
    "a forwarding path terminates at a daemon with no subscriber for the stream tag"
);
lint!(
    TOP006,
    "TOP006",
    "deadline-infeasible",
    Error,
    "a retry deadline no longer than the first backoff guarantees every parked message drops"
);
lint!(
    TOP007,
    "TOP007",
    "duplicate-daemon",
    Error,
    "two daemons share one producer name; publishes and fault specs become ambiguous"
);
lint!(
    TOP008,
    "TOP008",
    "schema-mismatch",
    Error,
    "the store schema does not cover the 24 Table I columns"
);
lint!(
    TOP009,
    "TOP009",
    "unprotected-outage",
    Warning,
    "a scheduled outage sits behind a best-effort hop; messages in the window are lost"
);
lint!(
    TOP010,
    "TOP010",
    "dangling-upstream",
    Error,
    "a daemon forwards to an upstream name that does not exist"
);
lint!(
    TOP011,
    "TOP011",
    "single-point-of-failure",
    Warning,
    "every sampler reaches the store through one aggregator with no standby route"
);
lint!(
    TOP012,
    "TOP012",
    "wal-capacity-risk",
    Warning,
    "a scheduled crash window outlasts what the hop's write-ahead log can journal"
);
lint!(
    TOP013,
    "TOP013",
    "sampling-unreachable",
    Warning,
    "a hop's adaptive-sampling watermark sits at or beyond its queue capacity; drops begin before sampling can engage"
);
lint!(
    TOP014,
    "TOP014",
    "replication-overwhelmed",
    Error,
    "the fault script crashes at least as many dsosd daemons concurrently as the store keeps replicas; acknowledged rows can be lost"
);
lint!(
    FLOW001,
    "FLOW001",
    "predicted-unrecoverable-loss",
    Error,
    "the flow solver proves the declared workload must lose messages at this hop"
);
lint!(
    FLOW002,
    "FLOW002",
    "accuracy-below-floor",
    Error,
    "the flow solver's worst-case accuracy bound falls below the declared accuracy floor"
);
lint!(
    FLOW003,
    "FLOW003",
    "wal-overflow-under-crash-window",
    Warning,
    "the flow solver's WAL high-water bound reaches capacity inside a scheduled crash window"
);
lint!(
    FLOW004,
    "FLOW004",
    "latency-budget-statically-violated",
    Warning,
    "the flow solver's end-to-end latency bound exceeds the declared latency budget"
);
lint!(
    CONF001,
    "CONF001",
    "conf-parse-error",
    Error,
    "the conf file does not parse; no other lint can run"
);
lint!(
    TRC001,
    "TRC001",
    "unmatched-open",
    Warning,
    "a file was opened but never closed within the trace"
);
lint!(
    TRC002,
    "TRC002",
    "unmatched-close",
    Error,
    "a close was recorded with no preceding open for the file"
);
lint!(
    TRC003,
    "TRC003",
    "negative-duration",
    Error,
    "an operation's duration is negative or not finite"
);
lint!(
    TRC004,
    "TRC004",
    "overlapping-ops",
    Warning,
    "two operations of one rank overlap in time; POSIX ranks are serial"
);
lint!(
    TRC005,
    "TRC005",
    "non-monotonic-time",
    Error,
    "absolute timestamps within a rank run backwards in record order"
);
lint!(
    TRC006,
    "TRC006",
    "unexplained-gap",
    Error,
    "sequence gaps exceed what the delivery ledger attributes as lost"
);
lint!(
    TRC007,
    "TRC007",
    "tiny-unaligned-writes",
    Warning,
    "many small writes at unaligned offsets; an I/O anti-pattern"
);
lint!(
    TRC008,
    "TRC008",
    "rank-straggler",
    Warning,
    "one rank spends far longer in I/O than its peers"
);
lint!(
    TRC009,
    "TRC009",
    "latency-budget",
    Warning,
    "sampled end-to-end p95 pipeline latency exceeds the configured budget"
);
lint!(
    TRC010,
    "TRC010",
    "straggler-rank-live",
    Warning,
    "the online detector flagged a rank whose cumulative I/O time dwarfs the job median"
);
lint!(
    TRC011,
    "TRC011",
    "duration-outlier",
    Warning,
    "the online detector flagged an operation whose window median broke from its rolling baseline"
);
lint!(
    TRC012,
    "TRC012",
    "phase-anomaly",
    Warning,
    "the online detector flagged an I/O phase degenerating into tiny unaligned writes"
);
lint!(
    TRC013,
    "TRC013",
    "detection-latency",
    Warning,
    "a live detection's onset-to-emission latency exceeds the configured alert budget"
);

/// Every lint, in code order. `TOP*` codes come from the topology
/// pass, `TRC*` codes from the trace pass.
pub const REGISTRY: &[LintCode] = &[
    TOP001, TOP002, TOP003, TOP004, TOP006, TOP007, TOP008, TOP009, TOP010, TOP011, TOP012, TOP013,
    TOP014, FLOW001, FLOW002, FLOW003, FLOW004, CONF001, TRC001, TRC002, TRC003, TRC004, TRC005,
    TRC006, TRC007, TRC008, TRC009, TRC010, TRC011, TRC012, TRC013,
];

/// Looks a lint up by code (`"TOP001"`, case-insensitive) or by name
/// (`"forwarding-cycle"`).
pub fn find_lint(code_or_name: &str) -> Option<&'static LintCode> {
    REGISTRY
        .iter()
        .find(|l| l.code.eq_ignore_ascii_case(code_or_name) || l.name == code_or_name)
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which lint fired.
    pub code: &'static LintCode,
    /// Effective severity (default, or re-levelled by config).
    pub severity: Severity,
    /// What the finding is about (a daemon, a hop, a `(job, rank)`).
    pub subject: String,
    /// The finding itself.
    pub message: String,
    /// Optional remediation hint.
    pub help: Option<String>,
    /// 1-based conf-file line the finding anchors to, when it came
    /// from a parsed conf and the subject has a known declaration.
    pub line: Option<usize>,
}

impl Diagnostic {
    /// Creates a diagnostic at the lint's default severity.
    pub fn new(
        code: &'static LintCode,
        subject: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Self {
            code,
            severity: code.default_severity,
            subject: subject.into(),
            message: message.into(),
            help: None,
            line: None,
        }
    }

    /// Overrides the severity (e.g. a softer variant of a code).
    #[must_use]
    pub(crate) fn with_severity(mut self, severity: Severity) -> Self {
        self.severity = severity;
        self
    }

    /// Attaches a help line.
    #[must_use]
    pub fn with_help(mut self, help: impl Into<String>) -> Self {
        self.help = Some(help.into());
        self
    }

    /// Anchors the finding to a conf-file line (1-based).
    #[must_use]
    pub fn with_line(mut self, line: usize) -> Self {
        self.line = Some(line);
        self
    }
}

/// Per-code level override.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LintLevel {
    /// Suppress the code entirely.
    Allow,
    /// Force warning severity.
    Warn,
    /// Force error severity.
    Deny,
}

/// Allow/warn/deny configuration, keyed by lint code.
#[derive(Debug, Clone, Default)]
pub struct LintConfig {
    levels: HashMap<&'static str, LintLevel>,
}

impl LintConfig {
    /// Default configuration: every lint at its registry severity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets a level by code or name; errors on unknown lints so typos
    /// in CLI flags and configs surface instead of silently allowing.
    pub fn set(&mut self, code_or_name: &str, level: LintLevel) -> Result<(), String> {
        match find_lint(code_or_name) {
            Some(l) => {
                self.levels.insert(l.code, level);
                Ok(())
            }
            None => Err(format!("unknown lint: {code_or_name}")),
        }
    }

    /// Shorthand for [`LintConfig::set`] with [`LintLevel::Allow`].
    #[must_use]
    pub fn allow(mut self, code_or_name: &str) -> Self {
        self.set(code_or_name, LintLevel::Allow)
            .expect("known lint code");
        self
    }

    /// Shorthand for [`LintConfig::set`] with [`LintLevel::Deny`].
    #[cfg(test)]
    #[must_use]
    pub(crate) fn deny(mut self, code_or_name: &str) -> Self {
        self.set(code_or_name, LintLevel::Deny)
            .expect("known lint code");
        self
    }

    /// The override for a code, if any.
    pub(crate) fn level_of(&self, code: &LintCode) -> Option<LintLevel> {
        self.levels.get(code.code).copied()
    }
}

/// A finished lint run: configuration applied, findings ordered by
/// severity (errors first), then code, then subject.
#[derive(Debug, Clone, Default)]
pub struct Report {
    diags: Vec<Diagnostic>,
}

impl Report {
    /// Applies `config` to raw findings (re-levelling or dropping per
    /// the overrides) and orders the survivors deterministically.
    pub fn new(raw: Vec<Diagnostic>, config: &LintConfig) -> Self {
        let mut diags: Vec<Diagnostic> = raw
            .into_iter()
            .filter_map(|mut d| {
                match config.level_of(d.code) {
                    Some(LintLevel::Allow) => return None,
                    Some(LintLevel::Warn) => d.severity = Severity::Warning,
                    Some(LintLevel::Deny) => d.severity = Severity::Error,
                    None => {}
                }
                Some(d)
            })
            .collect();
        diags.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then_with(|| a.code.code.cmp(b.code.code))
                .then_with(|| a.subject.cmp(&b.subject))
                .then_with(|| a.message.cmp(&b.message))
        });
        Self { diags }
    }

    /// The distinct codes that fired.
    pub fn codes(&self) -> BTreeSet<&'static str> {
        self.diags.iter().map(|d| d.code.code).collect()
    }

    /// Error-severity findings.
    pub(crate) fn error_count(&self) -> usize {
        self.diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Warning-severity findings.
    pub(crate) fn warning_count(&self) -> usize {
        self.diags.len() - self.error_count()
    }

    /// True when nothing fired.
    pub fn is_clean(&self) -> bool {
        self.diags.is_empty()
    }

    /// True when at least one error-severity finding survived.
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// Merges another report's findings (both already levelled).
    pub fn merge(&mut self, other: Report) {
        self.diags.extend(other.diags);
        self.diags.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then_with(|| a.code.code.cmp(b.code.code))
                .then_with(|| a.subject.cmp(&b.subject))
                .then_with(|| a.message.cmp(&b.message))
        });
    }

    /// rustc-style rendering:
    ///
    /// ```text
    /// error[TOP001]: forwarding cycle: a -> b -> a
    ///   --> daemon `a`
    ///   = help: aggregation topologies must be a DAG
    /// ```
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for d in &self.diags {
            let _ = writeln!(out, "{}[{}]: {}", d.severity, d.code.code, d.message);
            match d.line {
                Some(line) => {
                    let _ = writeln!(out, "  --> {} (line {line})", d.subject);
                }
                None => {
                    let _ = writeln!(out, "  --> {}", d.subject);
                }
            }
            if let Some(h) = &d.help {
                let _ = writeln!(out, "  = help: {h}");
            }
        }
        out.push_str(&self.summary_line());
        out.push('\n');
        out
    }

    /// Aligned-table rendering for dashboards and logs.
    pub fn render_table(&self) -> String {
        let mut t = TextTable::new(vec!["severity", "code", "subject", "message"]);
        for d in &self.diags {
            t.row(vec![
                d.severity.as_str().to_string(),
                d.code.code.to_string(),
                d.subject.clone(),
                d.message.clone(),
            ]);
        }
        let mut out = t.render();
        out.push_str(&self.summary_line());
        out.push('\n');
        out
    }

    /// Machine-readable rendering:
    /// `{"errors":N,"warnings":N,"diagnostics":[{...}]}`.
    pub fn render_json(&self) -> String {
        let mut w = JsonWriter::with_capacity(256);
        w.begin_object();
        w.field_uint("errors", self.error_count() as u64);
        w.field_uint("warnings", self.warning_count() as u64);
        w.comma();
        w.key("diagnostics");
        w.begin_array();
        for d in &self.diags {
            w.comma();
            w.begin_object();
            w.field_str("code", d.code.code);
            w.field_str("name", d.code.name);
            w.field_str("severity", d.severity.as_str());
            w.field_str("subject", &d.subject);
            w.field_str("message", &d.message);
            if let Some(h) = &d.help {
                w.field_str("help", h);
            }
            if let Some(line) = d.line {
                w.field_uint("line", line as u64);
            }
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }

    fn summary_line(&self) -> String {
        format!(
            "iolint: {} error(s), {} warning(s)",
            self.error_count(),
            self.warning_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_codes_are_unique_and_findable() {
        let codes: BTreeSet<&str> = REGISTRY.iter().map(|l| l.code).collect();
        assert_eq!(codes.len(), REGISTRY.len());
        let names: BTreeSet<&str> = REGISTRY.iter().map(|l| l.name).collect();
        assert_eq!(names.len(), REGISTRY.len());
        for l in REGISTRY {
            assert_eq!(find_lint(l.code).unwrap().code, l.code);
            assert_eq!(find_lint(l.name).unwrap().code, l.code);
        }
        assert_eq!(find_lint("top001").unwrap().code, "TOP001");
        assert!(find_lint("TOP999").is_none());
    }

    #[test]
    fn config_relevels_and_allows() {
        let raw = vec![
            Diagnostic::new(&TOP001, "daemon `a`", "cycle"),
            Diagnostic::new(&TRC001, "job 1 rank 0", "open leak"),
        ];
        let cfg = LintConfig::new().allow("TOP001").deny("unmatched-open");
        let r = Report::new(raw, &cfg);
        assert_eq!(r.diags.len(), 1);
        assert_eq!(r.diags[0].code.code, "TRC001");
        assert_eq!(r.diags[0].severity, Severity::Error);
        assert!(r.has_errors());
    }

    #[test]
    fn unknown_lint_is_an_error() {
        let mut cfg = LintConfig::new();
        assert!(cfg.set("NOPE42", LintLevel::Allow).is_err());
        assert!(cfg.set("TRC003", LintLevel::Warn).is_ok());
    }

    #[test]
    fn report_orders_errors_first_and_renders() {
        let raw = vec![
            Diagnostic::new(&TRC007, "job 1 rank 2", "tiny writes"),
            Diagnostic::new(&TRC003, "job 1 rank 0", "dur=-1").with_help("check the tracer"),
        ];
        let r = Report::new(raw, &LintConfig::new());
        assert_eq!(r.diags[0].code.code, "TRC003");
        let text = r.render_text();
        assert!(text.contains("error[TRC003]: dur=-1"));
        assert!(text.contains("= help: check the tracer"));
        assert!(text.contains("1 error(s), 1 warning(s)"));
        let table = r.render_table();
        assert!(table.contains("severity") && table.contains("TRC007"));
        let json = r.render_json();
        assert!(json.contains("\"errors\":1"));
        assert!(json.contains("\"code\":\"TRC003\""));
        // The JSON must round-trip through the util parser.
        let v = iosim_util::json::parse(&json).unwrap();
        assert_eq!(v.get("warnings").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn empty_report_is_clean() {
        let r = Report::default();
        assert!(r.is_clean());
        assert!(!r.has_errors());
        assert!(r.render_text().contains("0 error(s)"));
    }
}
