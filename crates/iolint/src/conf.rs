//! The declarative conf format: [`parse_conf`] reads a pipeline's
//! daemon graph, fault script and conf-only facts into a
//! [`TopologySpec`]; the graph is the one
//! [`ldms_sim::LdmsNetwork::build`] wires and the lints check.
//!
//! Line-oriented, `#` comments, whitespace-separated tokens:
//!
//! ```text
//! tag darshanConnector
//!
//! daemon nid00040 sampler
//!   upstream voltrino-head
//!   link ugni
//!   rate 120
//!   batch 16
//!   queue capacity=1024 policy=drop-oldest attempts=8 backoff=0.001 max-backoff=1.0
//!
//! daemon voltrino-head l1
//!   upstream shirley-agg
//!   link site-net
//!
//! daemon shirley-agg l2
//!   subscribe darshanConnector
//!
//! outage shirley-agg 100 160      # daemon down [100, 160) virtual secs
//! flap voltrino-head 10 20        # its upstream link down [10, 20)
//! crash voltrino-head 100 130     # crash-stop: volatile state destroyed
//! schema module uid ProducerName ...
//! workload duration=120 start=0 rate=100 storm=1 accuracy-floor=0.9 latency-budget=30
//!
//! dsosd n=4 replicas=2 quorum=1   # storage tier: 4 dsosd, R=2, W=1
//! crash-dsosd dsosd-0 100 130     # dsosd-0 down [100, 130) virtual secs
//! ```
//!
//! `daemon` starts a section; the indented attribute lines apply to
//! the most recent daemon. Roles are `sampler`, `l1`, `l2`; a daemon's
//! link is its role's (`ugni` out of a sampler, `site-net` out of an
//! aggregator), and `link` may only restate it. Queue
//! policies are `drop-oldest`, `drop-newest`, `deadline:<secs>`.
//! Additional per-daemon attributes for the crash-recovery layer:
//! `standby <name>` (after `upstream`) declares a ranked alternative
//! upstream route, and `wal capacity=N [fsync-every=N
//! checkpoint-every=N]` attaches a crash-durable write-ahead log to the
//! hop. `batch <records>` on a sampler declares frame-level batching:
//! the sampler coalesces that many records per wire frame, so every
//! queue and WAL capacity check downstream counts frames, not
//! messages (hops park and journal whole frames).
//!
//! `overload rate=N [sample=N throttle=N spill=N keep-every=N
//! window-ms=N]` attaches the overload-control ladder to a hop: the
//! policy starts from `OverloadConfig::for_rate(rate)` and each key
//! overrides one of its fields. `rate` is the sustainable service rate
//! the fluid ingress meter drains at, and `sample` the meter depth at
//! which the ladder degrades bulk traffic into summary sketches. The
//! linter's `TOP013` fires when that sampling watermark sits at or
//! beyond the hop's queue capacity — the queue overflows (or its
//! deadline expires) before sampling can ever engage, so the run sheds
//! messages instead of degrading accuracy.
//!
//! `outage`, `flap` and `crash` lines become the graph's fault script
//! (`FaultSpec::{DaemonOutage, LinkFlap, Crash}`); they name a daemon
//! or one of the aliases `l1`, `l2`, `standby`.
//! [`crate::FaultWindows::of`] is the one reading of a script as
//! downtime windows.
//!
//! `workload duration=S [start=S rate=HZ storm=X accuracy-floor=F
//! latency-budget=S]` declares the offered-load envelope the flow
//! solver ([`crate::flow::analyze_flow`]) analyzes against: `rate`
//! is the per-sampler default publish rate (a sampler's own `rate`
//! wins), `storm` a uniform load multiplier, and the floor/budget
//! keys arm the solver-backed `FLOW002`/`FLOW004` lints. Without the
//! directive the solver assumes a default envelope stretched to cover
//! every scheduled fault window.
//!
//! `dsosd n=N [replicas=R quorum=W]` declares the storage tier behind
//! the terminal daemon: `n` backend `dsosd` daemons, each row stored
//! on `replicas` of them (default 1) and acknowledged at write quorum
//! `quorum` (default the majority of `replicas`). `crash-dsosd
//! <name> <from_s> <until_s>` scripts a dsosd crash and its restart;
//! `TOP014` fires when the script takes down at least `replicas`
//! dsosd daemons concurrently, because then some shard can lose every
//! copy of an acknowledged row.

use crate::topology::{DaemonConf, StoreSpec, TopologySpec};
use darshan_ldms_connector::{WorkloadSpec, DEFAULT_STREAM_TAG};
use iosim_time::{Epoch, SimDuration};
use ldms_sim::fault::FaultScript;
use ldms_sim::queue::{OverflowPolicy, QueueConfig};
use ldms_sim::{DaemonRole, DaemonSpec, OverloadConfig, TransportLink, WalConfig};
use std::fmt;

/// A conf-file parse error with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfError {
    /// Offending line (1-based).
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ConfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "conf parse error at line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ConfError {}

fn epoch_from_secs_f64(s: f64) -> Epoch {
    Epoch::from_secs(0) + SimDuration::from_secs_f64(s)
}

fn parse_f64(tok: &str, line: usize, what: &str) -> Result<f64, ConfError> {
    tok.parse::<f64>().map_err(|_| ConfError {
        line,
        msg: format!("bad {what}: {tok}"),
    })
}

/// Parses the declarative conf format described in the module docs.
pub fn parse_conf(text: &str) -> Result<TopologySpec, ConfError> {
    let mut spec = TopologySpec::new(DEFAULT_STREAM_TAG);
    let mut faults = FaultScript::new();
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let toks: Vec<&str> = line.split_whitespace().collect();
        let err = |msg: String| ConfError { line: line_no, msg };
        match toks[0] {
            "tag" => {
                let t = toks.get(1).ok_or_else(|| err("tag needs a name".into()))?;
                spec.stream_tag = (*t).to_string();
            }
            "daemon" => {
                let (name, role) = match toks.as_slice() {
                    [_, name, role] => (*name, *role),
                    _ => return Err(err("usage: daemon <name> <sampler|l1|l2>".into())),
                };
                let role = match role {
                    "sampler" => DaemonRole::Sampler,
                    "l1" | "aggregator-l1" => DaemonRole::AggregatorL1,
                    "l2" | "aggregator-l2" => DaemonRole::AggregatorL2,
                    r => return Err(err(format!("unknown role: {r}"))),
                };
                if spec.graph.daemons.iter().any(|d| d.name == name) {
                    return Err(err(format!("duplicate daemon name: {name}")));
                }
                spec.graph.daemons.push(DaemonSpec::new(name, role));
                spec.conf.push(DaemonConf {
                    line: Some(line_no),
                    ..DaemonConf::default()
                });
            }
            "upstream" | "standby" | "link" | "rate" | "batch" | "subscribe" | "queue" | "wal"
            | "overload" => {
                let (Some(d), Some(conf)) = (spec.graph.daemons.last_mut(), spec.conf.last_mut())
                else {
                    return Err(err(format!("`{}` before any `daemon`", toks[0])));
                };
                let arg = |what: &str| {
                    toks.get(1)
                        .ok_or_else(|| err(format!("{} needs {what}", toks[0])))
                };
                match toks[0] {
                    "upstream" => {
                        let t = (*arg("a name")?).to_string();
                        match d.routes.first_mut() {
                            Some(primary) => *primary = t,
                            None => d.routes.push(t),
                        }
                    }
                    "standby" => {
                        let t = arg("a name")?;
                        if d.routes.is_empty() {
                            return Err(err("`standby` needs an `upstream` first".into()));
                        }
                        d.routes.push((*t).to_string());
                    }
                    "wal" => d.wal = Some(parse_wal(&toks[1..], line_no)?),
                    "link" => {
                        let t = arg("a name")?;
                        let own = TransportLink::out_of(d.role).name;
                        if *t != own {
                            return Err(err(format!("`{}` uses link `{own}`, not `{t}`", d.name)));
                        }
                    }
                    "rate" => conf.rate_hz = Some(parse_f64(arg("msgs/sec")?, line_no, "rate")?),
                    "batch" => {
                        let t = arg("records/frame")?;
                        let n = t
                            .parse::<u64>()
                            .ok()
                            .filter(|&n| n >= 1)
                            .ok_or_else(|| err(format!("bad batch (want >= 1): {t}")))?;
                        conf.batch = Some(n);
                    }
                    "subscribe" => d.subscribers.push((*arg("a tag")?).to_string()),
                    "queue" => d.queue = parse_queue(&toks[1..], line_no)?,
                    "overload" => d.overload = Some(parse_overload(&toks[1..], line_no)?),
                    _ => unreachable!("outer match arm"),
                }
            }
            "dsosd" => {
                spec.store = Some(parse_dsosd(&toks[1..], line_no)?);
            }
            "outage" | "flap" | "crash" | "crash-dsosd" => {
                let (name, from, until) = match toks.as_slice() {
                    [_, name, from, until] => (*name, *from, *until),
                    _ => {
                        return Err(err(format!(
                            "usage: {} <daemon> <from_s> <until_s>",
                            toks[0]
                        )))
                    }
                };
                let from = epoch_from_secs_f64(parse_f64(from, line_no, "from")?);
                let until = epoch_from_secs_f64(parse_f64(until, line_no, "until")?);
                faults = match toks[0] {
                    "outage" => faults.daemon_outage(name, from, until),
                    "flap" => faults.link_flap(name, from, until),
                    "crash" => faults.crash(name, from, until),
                    // An empty window scripts nothing.
                    _ if until <= from => faults,
                    _ => faults.crash_dsosd(name, from).restart_dsosd(name, until),
                };
            }
            "schema" => {
                spec.schema_columns = Some(toks[1..].iter().map(|s| (*s).to_string()).collect());
            }
            "workload" => {
                spec.workload = Some(parse_workload(&toks[1..], line_no)?);
            }
            other => return Err(err(format!("unknown directive: {other}"))),
        }
    }
    spec.graph.faults = faults;
    Ok(spec)
}

fn parse_workload(kvs: &[&str], line: usize) -> Result<WorkloadSpec, ConfError> {
    let mut w = WorkloadSpec::default();
    for kv in kvs {
        let (k, v) = kv.split_once('=').ok_or(ConfError {
            line,
            msg: format!("workload setting must be key=value: {kv}"),
        })?;
        match k {
            "duration" => w.duration_s = parse_f64(v, line, "workload duration")?.max(0.0),
            "start" => w.start_s = parse_f64(v, line, "workload start")?.max(0.0),
            "storm" => w.storm = parse_f64(v, line, "workload storm")?.max(0.0),
            "rate" => w.default_rate_hz = parse_f64(v, line, "workload rate")?.max(0.0),
            "accuracy-floor" => {
                let f = parse_f64(v, line, "workload accuracy-floor")?;
                if !(0.0..=1.0).contains(&f) {
                    return Err(ConfError {
                        line,
                        msg: format!("workload accuracy-floor must be in [0, 1]: {v}"),
                    });
                }
                w.accuracy_floor = Some(f);
            }
            "latency-budget" => {
                w.latency_budget_s = Some(parse_f64(v, line, "workload latency-budget")?.max(0.0));
            }
            other => {
                return Err(ConfError {
                    line,
                    msg: format!("unknown workload setting: {other}"),
                })
            }
        }
    }
    Ok(w)
}

fn parse_dsosd(kvs: &[&str], line: usize) -> Result<StoreSpec, ConfError> {
    let mut n: Option<usize> = None;
    let mut replicas: usize = 1;
    let mut quorum: Option<usize> = None;
    for kv in kvs {
        let (k, v) = kv.split_once('=').ok_or(ConfError {
            line,
            msg: format!("dsosd setting must be key=value: {kv}"),
        })?;
        let parsed = v.parse::<usize>().ok().filter(|&x| x >= 1);
        match k {
            "n" => {
                n = Some(parsed.ok_or(ConfError {
                    line,
                    msg: format!("bad dsosd n (want >= 1): {v}"),
                })?);
            }
            "replicas" => {
                replicas = parsed.ok_or(ConfError {
                    line,
                    msg: format!("bad dsosd replicas (want >= 1): {v}"),
                })?;
            }
            "quorum" => {
                quorum = Some(parsed.ok_or(ConfError {
                    line,
                    msg: format!("bad dsosd quorum (want >= 1): {v}"),
                })?);
            }
            other => {
                return Err(ConfError {
                    line,
                    msg: format!("unknown dsosd setting: {other}"),
                })
            }
        }
    }
    let dsosd = n.ok_or(ConfError {
        line,
        msg: "dsosd needs n=<count>".into(),
    })?;
    let write_quorum = quorum.unwrap_or(replicas / 2 + 1);
    if replicas > dsosd || write_quorum > replicas {
        return Err(ConfError {
            line,
            msg: format!(
                "dsosd policy must satisfy 1 <= quorum <= replicas <= n \
                 (got n={dsosd} replicas={replicas} quorum={write_quorum})"
            ),
        });
    }
    Ok(StoreSpec {
        dsosd,
        replicas,
        write_quorum,
        line: Some(line),
    })
}

fn parse_wal(kvs: &[&str], line: usize) -> Result<WalConfig, ConfError> {
    let mut wal = WalConfig::durable();
    let mut capacity: Option<usize> = None;
    for kv in kvs {
        let (k, v) = kv.split_once('=').ok_or(ConfError {
            line,
            msg: format!("wal setting must be key=value: {kv}"),
        })?;
        let bad = |what: &str| ConfError {
            line,
            msg: format!("bad wal {what}: {v}"),
        };
        match k {
            "capacity" => capacity = Some(v.parse().map_err(|_| bad(k))?),
            "fsync-every" => wal.fsync_every = v.parse().map_err(|_| bad(k))?,
            "checkpoint-every" => wal.checkpoint_every = v.parse().map_err(|_| bad(k))?,
            other => {
                return Err(ConfError {
                    line,
                    msg: format!("unknown wal setting: {other}"),
                })
            }
        }
    }
    wal.capacity = capacity.ok_or(ConfError {
        line,
        msg: "wal needs capacity=<n>".into(),
    })?;
    Ok(wal)
}

fn parse_overload(kvs: &[&str], line: usize) -> Result<OverloadConfig, ConfError> {
    let mut rate: Option<f64> = None;
    let mut watermarks: [Option<f64>; 3] = [None; 3];
    let mut keep_every: Option<u64> = None;
    let mut window: Option<SimDuration> = None;
    for kv in kvs {
        let (k, v) = kv.split_once('=').ok_or(ConfError {
            line,
            msg: format!("overload setting must be key=value: {kv}"),
        })?;
        let count = || {
            v.parse::<u64>().map_err(|_| ConfError {
                line,
                msg: format!("bad overload {k}: {v}"),
            })
        };
        match k {
            "rate" => rate = Some(parse_f64(v, line, "overload rate")?),
            "sample" => watermarks[0] = Some(parse_f64(v, line, "overload sample watermark")?),
            "throttle" => watermarks[1] = Some(parse_f64(v, line, k)?),
            "spill" => watermarks[2] = Some(parse_f64(v, line, k)?),
            "keep-every" => keep_every = Some(count()?),
            "window-ms" => {
                let ns = count()?.checked_mul(1_000_000).ok_or(ConfError {
                    line,
                    msg: format!("overload window-ms out of range: {v}"),
                })?;
                window = Some(SimDuration::from_nanos(ns));
            }
            other => {
                return Err(ConfError {
                    line,
                    msg: format!("unknown overload setting: {other}"),
                })
            }
        }
    }
    let rate = rate.filter(|r| *r > 0.0).ok_or(ConfError {
        line,
        msg: "overload needs rate=<msgs/sec> (> 0)".into(),
    })?;
    let mut c = OverloadConfig::for_rate(rate);
    let [sample, throttle, spill] = watermarks;
    c.sample_watermark = sample.unwrap_or(c.sample_watermark);
    c.throttle_watermark = throttle.unwrap_or(c.throttle_watermark);
    c.spill_watermark = spill.unwrap_or(c.spill_watermark);
    c.sample_keep_every = keep_every.unwrap_or(c.sample_keep_every);
    c.window = window.unwrap_or(c.window);
    Ok(c)
}

fn parse_queue(kvs: &[&str], line: usize) -> Result<QueueConfig, ConfError> {
    let mut q = QueueConfig::best_effort();
    for kv in kvs {
        let (k, v) = kv.split_once('=').ok_or(ConfError {
            line,
            msg: format!("queue setting must be key=value: {kv}"),
        })?;
        match k {
            "capacity" => {
                q.capacity = v.parse().map_err(|_| ConfError {
                    line,
                    msg: format!("bad capacity: {v}"),
                })?;
            }
            "attempts" => {
                q.max_attempts = v.parse().map_err(|_| ConfError {
                    line,
                    msg: format!("bad attempts: {v}"),
                })?;
            }
            "backoff" => {
                q.base_backoff = SimDuration::from_secs_f64(parse_f64(v, line, "backoff")?);
            }
            "max-backoff" => {
                q.max_backoff = SimDuration::from_secs_f64(parse_f64(v, line, "max-backoff")?);
            }
            "jitter" => q.jitter = parse_f64(v, line, "jitter")?,
            "policy" => {
                q.policy = match v {
                    "drop-oldest" => OverflowPolicy::DropOldest,
                    "drop-newest" => OverflowPolicy::DropNewest,
                    d if d.starts_with("deadline:") => {
                        let secs = parse_f64(&d["deadline:".len()..], line, "deadline")?;
                        OverflowPolicy::BlockWithDeadline(SimDuration::from_secs_f64(secs))
                    }
                    other => {
                        return Err(ConfError {
                            line,
                            msg: format!("unknown policy: {other}"),
                        })
                    }
                };
            }
            other => {
                return Err(ConfError {
                    line,
                    msg: format!("unknown queue setting: {other}"),
                })
            }
        }
    }
    Ok(q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standby_directive_needs_a_primary_route() {
        let e = parse_conf(
            "daemon a sampler
  standby b
  upstream c
",
        )
        .unwrap_err();
        assert_eq!(e.line, 2);
        let spec = parse_conf(
            "daemon a sampler
  upstream b
  standby c
  upstream d
",
        )
        .unwrap();
        assert_eq!(spec.graph.daemons[0].routes, ["d", "c"]);
    }

    #[test]
    fn overload_pipeline_conf_builds_its_hop_configs() {
        let spec = parse_conf(include_str!(
            "../../../examples/configs/overload-pipeline.conf"
        ))
        .expect("the example parses");
        let hop = |name: &str| {
            spec.graph
                .daemons
                .iter()
                .find(|d| d.name == name)
                .expect("declared")
        };
        let window = SimDuration::from_millis(100);
        for (name, rate, sample) in [
            ("nid00040", 50.0, 512.0),
            ("nid00041", 50.0, 512.0),
            ("voltrino-head", 100.0, 1024.0),
            ("voltrino-standby", 100.0, 1024.0),
        ] {
            let d = hop(name);
            let ov = d
                .overload
                .as_ref()
                .expect("every forwarding hop has a ladder");
            let want = OverloadConfig {
                sample_watermark: sample,
                window,
                ..OverloadConfig::for_rate(rate)
            };
            assert_eq!(ov, &want, "{name}");
            let wal = d.wal.as_ref().expect("every forwarding hop has a WAL");
            assert_eq!(
                (wal.capacity, wal.fsync_every, wal.checkpoint_every),
                (8192, 1, 64)
            );
            assert_eq!((d.queue.capacity, d.queue.max_attempts), (4096, 8));
        }
        let top = hop("shirley-agg");
        assert!(top.overload.is_none() && top.wal.is_none() && top.routes.is_empty());
        // Overrides land on their own fields; the rest is `for_rate`.
        let spec = parse_conf(
            "daemon a l1
  overload rate=10 throttle=3 spill=7 keep-every=2
",
        )
        .unwrap();
        let ov = spec.graph.daemons[0].overload.as_ref().unwrap();
        assert_eq!(
            (
                ov.throttle_watermark,
                ov.spill_watermark,
                ov.sample_watermark
            ),
            (3.0, 7.0, 20.0)
        );
        assert_eq!(
            (ov.sample_keep_every, ov.window),
            (2, SimDuration::from_secs(1))
        );
    }
}
