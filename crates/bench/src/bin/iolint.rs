//! `iolint` CLI: static topology validation, whole-pipeline flow
//! analysis, and stored-trace linting.
//!
//! ```text
//! iolint [--format text|table|json] [-A CODE] [-W CODE] [-D CODE] topo <conf-file>...
//! iolint [--format ...] [--storm N] [--duration S] analyze <conf-file>...
//! iolint [--format ...] [-A CODE] [-W CODE] [-D CODE] trace <csv-file>...
//! ```
//!
//! `topo` lints declarative topology conf files (see the `iolint`
//! crate docs for the format); `analyze` additionally runs the flow
//! solver — an abstract interpretation of the runtime's fluid model —
//! and prints the per-hop worst-case bound table plus the network
//! verdict (FLOW001–FLOW004 fire from the solver; the pre-solver
//! heuristics downgrade to advisories). `trace` lints Figure 3 CSV
//! exports (24 columns in schema order, optional header row).
//! `-A`/`-W`/`-D` re-level a lint by code (`TOP004`) or name
//! (`missing-subscriber`). `--storm`/`--duration` override the conf's
//! `workload` directive for what-if sweeps.
//!
//! A conf that fails to parse renders as a `CONF001` diagnostic with
//! the offending line, in whichever output format was selected.
//!
//! Exit status: 0 when every file is clean or carries only warnings,
//! 1 when any error-severity diagnostic fires, 2 on usage or I/O
//! errors. (`--json` / `--table` remain accepted as aliases for
//! `--format json` / `--format table`.)

use iolint::{
    check_flow, check_topology, check_trace, effective_workload, events_from_csv, parse_conf,
    ConfError, Diagnostic, LintConfig, Report,
};
use std::process::ExitCode;

const USAGE: &str = "usage: iolint [--format text|table|json] [-A CODE] [-W CODE] [-D CODE] \
                     [--storm N] [--duration S] <topo|analyze|trace> <file>...";

enum Output {
    Text,
    Table,
    Json,
}

struct Cli {
    output: Output,
    config: LintConfig,
    mode: String,
    files: Vec<String>,
    storm: Option<f64>,
    duration: Option<f64>,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut output = Output::Text;
    let mut config = LintConfig::new();
    let mut rest = Vec::new();
    let mut storm = None;
    let mut duration = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => output = Output::Json,
            "--table" => output = Output::Table,
            "--format" => {
                let f = it.next().ok_or("--format needs text|table|json")?;
                output = match f.as_str() {
                    "text" => Output::Text,
                    "table" => Output::Table,
                    "json" => Output::Json,
                    other => return Err(format!("unknown format `{other}` (text|table|json)")),
                };
            }
            "--storm" => {
                let v = it.next().ok_or("--storm needs a multiplier")?;
                storm = Some(v.parse::<f64>().map_err(|_| format!("bad --storm: {v}"))?);
            }
            "--duration" => {
                let v = it.next().ok_or("--duration needs seconds")?;
                duration = Some(
                    v.parse::<f64>()
                        .map_err(|_| format!("bad --duration: {v}"))?,
                );
            }
            "-A" | "--allow" | "-W" | "--warn" | "-D" | "--deny" => {
                let code = it.next().ok_or_else(|| format!("{a} needs a lint code"))?;
                let level = match a.as_str() {
                    "-A" | "--allow" => iolint::LintLevel::Allow,
                    "-W" | "--warn" => iolint::LintLevel::Warn,
                    _ => iolint::LintLevel::Deny,
                };
                config.set(code, level)?;
            }
            "-h" | "--help" => return Err(USAGE.to_string()),
            other => rest.push(other.to_string()),
        }
    }
    let (mode, files) = rest
        .split_first()
        .ok_or_else(|| USAGE.to_string())
        .map(|(m, f)| (m.clone(), f.to_vec()))?;
    if mode != "topo" && mode != "trace" && mode != "analyze" {
        return Err(format!("unknown mode `{mode}`\n{USAGE}"));
    }
    if files.is_empty() {
        return Err(format!("no input files\n{USAGE}"));
    }
    Ok(Cli {
        output,
        config,
        mode,
        files,
        storm,
        duration,
    })
}

/// A parse failure rendered through the normal diagnostic pipeline, so
/// `--format json` consumers never have to scrape stderr.
fn conf_error_report(e: &ConfError, config: &LintConfig) -> Report {
    let d = Diagnostic::new(&iolint::diag::CONF001, "conf", e.msg.clone())
        .with_line(e.line)
        .with_help("fix the conf syntax; no other lint can run until it parses");
    Report::new(vec![d], config)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    let mut any_error = false;
    for file in &cli.files {
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("iolint: {file}: {e}");
                return ExitCode::from(2);
            }
        };
        let mut flow_rendering: Option<String> = None;
        let report = match cli.mode.as_str() {
            "topo" => match parse_conf(&text) {
                Ok(spec) => check_topology(&spec, &cli.config),
                Err(e) => conf_error_report(&e, &cli.config),
            },
            "analyze" => match parse_conf(&text) {
                Ok(spec) => {
                    let mut w = effective_workload(&spec);
                    if let Some(s) = cli.storm {
                        w.storm = s.max(0.0);
                    }
                    if let Some(d) = cli.duration {
                        w.duration_s = d.max(0.0);
                    }
                    let (report, flow) = check_flow(&spec, Some(&w), &cli.config);
                    flow_rendering = Some(match cli.output {
                        Output::Json => flow.render_json(),
                        _ => flow.render_table(),
                    });
                    report
                }
                Err(e) => conf_error_report(&e, &cli.config),
            },
            _ => match events_from_csv(&text) {
                Ok(events) => check_trace(&events, &cli.config),
                Err((line, msg)) => {
                    eprintln!("iolint: {file}:{line}: {msg}");
                    return ExitCode::from(2);
                }
            },
        };
        any_error |= report.has_errors();
        match cli.output {
            Output::Json => match flow_rendering {
                // One object per file: {"flow": ..., "report": ...}.
                Some(flow) => println!("{{\"flow\":{flow},\"report\":{}}}", report.render_json()),
                None => println!("{}", report.render_json()),
            },
            Output::Table => {
                println!("== {file}");
                if let Some(flow) = &flow_rendering {
                    print!("{flow}");
                }
                print!("{}", report.render_table());
            }
            Output::Text => {
                println!("== {file}");
                if let Some(flow) = &flow_rendering {
                    print!("{flow}");
                }
                print!("{}", report.render_text());
            }
        }
    }
    if any_error {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
