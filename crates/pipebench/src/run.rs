//! One benchmark run of one workload: set-up, timed passes, metrics.
//!
//! An untraced run yields the end-to-end metrics; a traced run yields
//! the per-layer metrics from one traced pass plus layer replays, and
//! writes the spans out. End-to-end numbers never come from a traced
//! run: the difference between the two is the tracing overhead.

use crate::check::Verdict;
use crate::layers::{Numbers, Replay};
use crate::metrics::{median, END_TO_END, PER_LAYER};
use crate::span::{chrome_trace, coverage, layer_times, Span, Tracer};
use crate::workloads::{build, Pass, Workload};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// How a run is sized.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    pub seed: u64,
    /// Seconds of timed work to accumulate before the run may stop.
    pub seconds: f64,
    /// Divisor on every workload size (1 = full, 20 = `--smoke`).
    pub scale: usize,
    /// Set-ups per untraced run; `setup_s` is their median.
    pub setups: usize,
    /// Timed repetitions a run makes at least.
    pub min_reps: usize,
}

impl RunOpts {
    /// The driver's run: three set-ups and at least three repetitions,
    /// more while the seconds last.
    pub fn full(seed: u64, seconds: f64) -> Self {
        Self {
            seed,
            seconds,
            scale: 1,
            setups: 3,
            min_reps: 3,
        }
    }

    /// 1/`scale` size, one set-up, one repetition, every check.
    pub fn smoke(seed: u64, scale: usize) -> Self {
        Self {
            seed,
            seconds: 0.0,
            scale,
            setups: 1,
            min_reps: 1,
        }
    }
}

/// A metric as printed: name, value as measured, unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub verdict: Verdict,
    /// The contract's metrics: every end-to-end metric of an untraced
    /// run, every per-layer metric of a traced one.
    pub metrics: Vec<Metric>,
    /// What else a reader wants to see, by name and unit.
    pub notes: Vec<Metric>,
}

impl RunResult {
    /// A metric without a finite value is a failed check, not a number.
    fn new(mut verdict: Verdict, mut metrics: Vec<Metric>, notes: Vec<Metric>) -> Self {
        for m in metrics.iter_mut().filter(|m| !m.value.is_finite()) {
            verdict
                .problems
                .push(format!("metric {} has no value", m.name));
            m.value = 0.0;
        }
        Self {
            verdict,
            metrics,
            notes,
        }
    }

    /// The result as the one JSON object the driver reads.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.verdict.correct(),
            self.verdict.attempted.max(1),
            self.verdict.failed,
            metrics.join(", ")
        )
    }
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Sets the workload up: generate, build, and one untimed warm-up pass
/// of full size (a first pass on a cold heap runs up to twice as slow
/// as a steady one, so un-warmed numbers do not repeat).
fn set_up(name: &str, opts: &RunOpts, verdict: &mut Verdict) -> Box<dyn Workload> {
    let mut w = build(name, opts.seed, opts.scale).expect("workload name checked by the caller");
    verdict.merge(w.pass(None).verdict);
    w
}

/// Repeats timed passes until `seconds` of timed work and `min_reps`
/// repetitions are both reached.
fn timed_passes(w: &mut dyn Workload, opts: &RunOpts, verdict: &mut Verdict) -> Vec<Pass> {
    let mut passes = Vec::new();
    let mut timed_s = 0.0;
    while passes.len() < opts.min_reps || timed_s < opts.seconds {
        let pass = w.pass(None);
        timed_s += pass.wall_s;
        verdict.merge(pass.verdict.clone());
        passes.push(pass);
    }
    passes
}

/// An untraced run: the end-to-end metrics.
pub fn run_untraced(name: &str, opts: &RunOpts) -> RunResult {
    let mut verdict = Verdict::default();
    let mut setup_s = Vec::new();
    let mut workload = None;
    for _ in 0..opts.setups.max(1) {
        // The previous set-up's store is dropped first, or two of them
        // would count towards the peak.
        drop(workload.take());
        let t0 = Instant::now();
        workload = Some(set_up(name, opts, &mut verdict));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("at least one set-up ran");
    let passes = timed_passes(workload.as_mut(), opts, &mut verdict);
    drop(workload);

    let rates: Vec<f64> = passes.iter().map(|p| p.units as f64 / p.wall_s).collect();
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let values = [median(&setup_s), median(&rates), peak_rss_mb()];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, value)| Metric {
            name: m.name,
            value,
            unit: m.unit,
        })
        .collect();
    let mut notes = vec![
        Metric {
            name: "repetitions",
            value: passes.len() as f64,
            unit: "count",
        },
        Metric {
            name: "pass_s",
            value: median(&walls),
            unit: "s",
        },
        Metric {
            name: "failed_share",
            value: verdict.failed as f64 / verdict.attempted.max(1) as f64,
            unit: "ratio",
        },
    ];
    if passes.iter().all(|p| p.query_s.is_some()) {
        let query_rates: Vec<f64> = passes
            .iter()
            .map(|p| p.units as f64 / p.query_s.unwrap_or(f64::NAN))
            .collect();
        notes.push(Metric {
            name: "query_rows_per_s",
            value: median(&query_rates),
            unit: "1/s",
        });
        notes.push(Metric {
            name: "dashboard_s",
            value: median(&walls),
            unit: "s",
        });
    }
    if let Some(v) = find(&passes[0].counts, "virt_latency_p95") {
        notes.push(Metric {
            name: "virt_latency_p95_ms",
            value: v,
            unit: "virt_ms",
        });
    }
    RunResult::new(verdict, metrics, notes)
}

fn find(numbers: &Numbers, name: &str) -> Option<f64> {
    numbers.iter().find(|(k, _)| *k == name).map(|&(_, v)| v)
}

/// A traced run: one untraced and one traced pass of the workload for
/// the spans, their coverage and the tracing overhead, then layer
/// replays for as long as the seconds last.
pub fn run_traced(name: &str, opts: &RunOpts, trace_dir: Option<PathBuf>) -> RunResult {
    let mut verdict = Verdict::default();
    let mut workload = set_up(name, opts, &mut verdict);
    let plain = workload.pass(None);
    let tracer = Arc::new(Tracer::new());
    let traced = workload.pass(Some(&tracer));
    let (shape, interposed) = (workload.replay_shape(), workload.interposed());
    drop(workload);
    verdict.merge(plain.verdict.clone());
    verdict.merge(traced.verdict.clone());
    let spans = tracer.spans();

    let replay = Replay::new(shape, opts.seed, opts.scale);
    // Round 0 warms the heap and takes the allocator counts; its
    // timings are discarded.
    let counted = replay.round(true);
    let mut rounds: Vec<Numbers> = Vec::new();
    let mut timed_s = plain.wall_s + traced.wall_s;
    while rounds.len() < opts.min_reps.min(2) || timed_s < opts.seconds {
        let t0 = Instant::now();
        rounds.push(replay.round(false));
        timed_s += t0.elapsed().as_secs_f64();
    }

    // Each metric comes from the first source that has it: the traced
    // pass's own pipeline, the span arithmetic, the median over timed
    // replay rounds, the counted round.
    let replayed = |name: &str| {
        let v: Vec<f64> = rounds.iter().filter_map(|r| find(r, name)).collect();
        (!v.is_empty()).then(|| median(&v))
    };
    let overhead_pct = (traced.wall_s - plain.wall_s) / plain.wall_s * 100.0;
    let coverage = if interposed {
        coverage(&spans, (traced.wall_s * 1e9) as u64)
    } else {
        estimated_coverage(&traced, &replayed, replay.events() as f64)
    };
    let traced_numbers: Numbers = vec![
        ("trace.coverage", coverage),
        ("trace.overhead_pct", overhead_pct),
    ];
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: find(&traced.counts, name)
                .or_else(|| find(&traced_numbers, name))
                .or_else(|| replayed(name))
                .or_else(|| find(&counted, name))
                .unwrap_or(f64::NAN),
        })
        .collect();
    let mut notes = span_notes(&spans);
    notes.push(Metric {
        name: "replay_rounds",
        value: rounds.len() as f64,
        unit: "count",
    });
    if !(0.85..=1.15).contains(&coverage) {
        notes.push(Metric {
            name: "unattributed",
            value: 1.0 - coverage,
            unit: "share",
        });
    }
    if let Some(dir) = trace_dir {
        let counts: Vec<(String, f64)> = metrics
            .iter()
            .map(|m| (m.name.to_string(), m.value))
            .collect();
        let path = dir.join(format!("trace-{name}.json"));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, chrome_trace(name, &spans, &counts)));
        if let Err(e) = written {
            eprintln!("pipebench: cannot write {}: {e}", path.display());
        }
    }
    RunResult::new(verdict, metrics, notes)
}

/// `hmmer-job` runs inside `run_job`, which owns its pipeline, so no
/// span can be placed inside it. Its coverage is an estimate instead:
/// the replayed per-event cost of every layer a message crosses, times
/// the messages, plus the once-per-run detector settle and trace lint
/// scaled from replay size, over the traced wall time.
fn estimated_coverage(
    traced: &Pass,
    replayed: &dyn Fn(&str) -> Option<f64>,
    replay_events: f64,
) -> f64 {
    let per_event: f64 = [
        "app.sim_ns_per_event",
        "format.ns_per_event",
        "connector.ns_per_event",
        "hop.ns_per_wire_msg",
        "store.deliver_ns_per_msg",
        "telemetry.ns_per_event",
        "detect.tap_ns_per_row",
    ]
    .iter()
    .filter_map(|n| replayed(n))
    .sum();
    let once_ms: f64 = ["detect.finalize_ms", "lint.trace_ms"]
        .iter()
        .filter_map(|n| replayed(n))
        .sum();
    let n = traced.units as f64;
    (per_event * n + once_ms * 1e6 * n / replay_events.max(1.0)) / (traced.wall_s * 1e9)
}

/// Per-layer self time of the traced pass, for the reader.
fn span_notes(spans: &[Span]) -> Vec<Metric> {
    layer_times(spans)
        .into_iter()
        .map(|(name, t)| Metric {
            name,
            value: t.self_ns as f64 / t.count.max(1) as f64,
            unit: "self_ns/span",
        })
        .collect()
}
