//! `pipebench` — the repository's benchmark.
//!
//! ```text
//! pipebench --workload NAME --seed N --seconds S --trace 0|1   one run, one JSON line
//! pipebench [--seed N] [--seconds S] [--runs R] [--out FILE]   the suite, a process per run
//! pipebench --smoke                                             every workload and check at 1/20 size
//! pipebench --compare A.jsonl B.jsonl                           bounds applied to two sets of runs
//! ```
//!
//! See `README.md` beside this crate for the metric glossary, the
//! layer → end-to-end map and how to run an A/B.

mod alloc;
mod check;
mod compare;
mod gen;
mod layers;
mod metrics;
mod run;
mod span;
mod workloads;

use run::{run_traced, run_untraced, RunOpts, RunResult};
use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Seconds of timed work per run when `--seconds` is not given; the
/// same as `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 6.0;

/// Size divisor of `--smoke`.
const SMOKE_SCALE: usize = 20;

const USAGE: &str = "usage: pipebench --workload NAME --seed N --seconds S --trace 0|1
       pipebench [--seed N] [--seconds S] [--runs R] [--out FILE]
       pipebench --smoke
       pipebench --compare A.jsonl B.jsonl
workloads: stream-ingest publish-only durable-storm dashboard-query hmmer-job";

#[derive(Debug, Default)]
struct Cli {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    runs: usize,
    out: Option<PathBuf>,
    smoke: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        runs: 1,
        ..Cli::default()
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !workloads::NAMES.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name}"));
                }
                cli.workload = Some(name.clone());
            }
            "--seed" => cli.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&s) {
                    return Err(format!("--seconds {s} is outside 0..=600"));
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--runs" => {
                cli.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?;
                if !(1..=100).contains(&cli.runs) {
                    return Err(format!("--runs {} is outside 1..=100", cli.runs));
                }
            }
            "--out" => cli.out = Some(PathBuf::from(value()?)),
            "--smoke" => cli.smoke = true,
            "--compare" => cli.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

/// The allocator settings every measuring process runs under: one
/// heap, shared by all threads, that never shrinks and serves large
/// blocks too (the thresholds are glibc's maxima).
///
/// By default glibc gives every new thread an arena of its own, and
/// which arena the short-lived query and rank threads land in differs
/// from run to run; it also hands freed memory back to the kernel and
/// faults it in again on the next pass. On `dashboard-query` that alone
/// moved query time between 0.27 s and 0.70 s from one refresh to the
/// next and the peak RSS between 817 and 1007 MB from one run to the
/// next; with these settings they repeat within 2 % and 0.1 %, and
/// after the warm-up pass a run takes next to no page faults, whose
/// cost in this sandbox varies with the host.
const ALLOCATOR: [(&str, &str); 3] = [
    ("MALLOC_ARENA_MAX", "1"),
    ("MALLOC_TRIM_THRESHOLD_", "2147483647"),
    ("MALLOC_MMAP_THRESHOLD_", "33554432"),
];

/// glibc reads [`ALLOCATOR`] from the environment at start-up, so the
/// process replaces itself once with the variables set. A variable the
/// caller has set is left alone. Parent and change are measured alike.
#[cfg(unix)]
fn pin_allocator(args: &[String]) {
    use std::os::unix::process::CommandExt as _;
    let unset: Vec<_> = ALLOCATOR
        .iter()
        .filter(|(var, _)| std::env::var_os(var).is_none())
        .collect();
    let Ok(exe) = std::env::current_exe() else {
        return;
    };
    if unset.is_empty() {
        return;
    }
    let err = Command::new(exe)
        .args(args)
        .envs(unset.iter().map(|(var, value)| (var, value)))
        .exec();
    eprintln!(
        "pipebench: cannot restart with the allocator pinned ({err}); timings will be noisier"
    );
}

#[cfg(not(unix))]
fn pin_allocator(_args: &[String]) {}

/// Where trace files go: beside the build outputs, which the
/// repository already ignores.
fn trace_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("pipebench")
}

/// Prints a run for the reader: every metric by name with its unit,
/// then the notes, then whatever check tripped.
fn print_run(name: &str, trace: bool, r: &RunResult) {
    println!(
        "== {name} ({})",
        if trace {
            "traced: per-layer"
        } else {
            "untraced: end to end"
        }
    );
    for m in r.metrics.iter().chain(&r.notes) {
        println!("  {:<32} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for p in &r.verdict.problems {
        println!("  FAILED CHECK: {p}");
    }
}

fn run_one(name: &str, opts: &RunOpts, trace: bool) -> RunResult {
    if trace {
        run_traced(name, opts, Some(trace_dir()))
    } else {
        run_untraced(name, opts)
    }
}

/// Every workload, untraced and traced, in this process at `scale`.
/// Returns what failed.
fn smoke(scale: usize) -> Vec<String> {
    let opts = RunOpts::smoke(1, scale);
    let mut failures = Vec::new();
    for name in workloads::NAMES {
        for trace in [false, true] {
            let r = run_one(name, &opts, trace);
            print_run(name, trace, &r);
            if !r.verdict.correct() {
                failures.push(format!(
                    "{name} (trace {}): {:?}",
                    u8::from(trace),
                    r.verdict.problems
                ));
            }
        }
    }
    failures
}

/// The suite: each run in a process of its own, so that `peak_rss_mb`
/// is that run's and nobody else's. The child's report is passed
/// through; its last line, the JSON object, is kept for `--out`.
fn suite(cli: &Cli) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("pipebench: cannot find own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let seconds = cli.seconds.unwrap_or(DEFAULT_SECONDS);
    let mut out = match cli.out.as_ref().map(|p| {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(p)
    }) {
        Some(Err(e)) => {
            eprintln!("pipebench: cannot open --out file: {e}");
            return ExitCode::from(2);
        }
        Some(Ok(f)) => Some(f),
        None => None,
    };
    let mut failed = false;
    for run in 0..cli.runs as u64 {
        let seed = cli.seed.unwrap_or(1) + run;
        for name in workloads::NAMES {
            for trace in ["0", "1"] {
                let child = Command::new(&exe)
                    .args(["--workload", name, "--seed", &seed.to_string()])
                    .args(["--seconds", &seconds.to_string(), "--trace", trace])
                    .stdout(Stdio::piped())
                    .stderr(Stdio::inherit())
                    .output();
                let output = match child {
                    Ok(o) => o,
                    Err(e) => {
                        eprintln!("pipebench: cannot run {name}: {e}");
                        return ExitCode::from(2);
                    }
                };
                let text = String::from_utf8_lossy(&output.stdout);
                let mut lines: Vec<&str> = text.lines().collect();
                let json = lines.pop().unwrap_or("");
                println!("{}", lines.join("\n"));
                if !output.status.success() {
                    failed = true;
                    println!("  {name} exited with {}", output.status);
                }
                if let Some(f) = out.as_mut() {
                    let line = format!(
                        "{{\"workload\": \"{name}\", \"seed\": {seed}, \"trace\": {trace}, \"result\": {json}}}\n"
                    );
                    if let Err(e) = f.write_all(line.as_bytes()) {
                        eprintln!("pipebench: cannot write --out file: {e}");
                        return ExitCode::from(2);
                    }
                }
            }
        }
    }
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("pipebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &cli.compare {
        return compare::main(a, b);
    }
    pin_allocator(&args);
    if cli.smoke {
        let failures = smoke(SMOKE_SCALE);
        for f in &failures {
            eprintln!("pipebench: smoke failed: {f}");
        }
        return if failures.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        };
    }
    let Some(name) = &cli.workload else {
        return suite(&cli);
    };
    let opts = RunOpts::full(
        cli.seed.unwrap_or(1),
        cli.seconds.unwrap_or(DEFAULT_SECONDS),
    );
    let r = run_one(name, &opts, cli.trace);
    print_run(name, cli.trace, &r);
    println!("{}", r.to_json());
    if r.verdict.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Keeps the harness and every correctness check alive under the
    /// repository's own `cargo test`, at a size an unoptimised build
    /// gets through quickly.
    #[test]
    fn smoke_runs_every_workload_and_check() {
        let failures = smoke(SMOKE_SCALE * 10);
        assert!(failures.is_empty(), "{failures:#?}");
    }

    #[test]
    fn the_driver_arguments_parse() {
        let args: Vec<String> = "--workload hmmer-job --seed 7 --seconds 10 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let cli = parse_cli(&args).unwrap();
        assert_eq!(cli.workload.as_deref(), Some("hmmer-job"));
        assert_eq!(
            (cli.seed, cli.seconds, cli.trace),
            (Some(7), Some(10.0), true)
        );
        assert!(parse_cli(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse_cli(&["--trace".into(), "2".into()]).is_err());
        assert!(parse_cli(&["--seconds".into()]).is_err());
    }
}
