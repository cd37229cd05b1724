//! The topology pass: static validation of an aggregation pipeline.
//!
//! Works on a [`TopologySpec`] — a plain-data intermediate
//! representation of the Figure 4 topology that can be extracted from
//! a live [`ldms_sim::LdmsNetwork`] / `Pipeline` *or* parsed
//! from a declarative conf file, so the same lints run pre-flight
//! inside the experiment driver and ahead of time in CI.
//!
//! ## Conf format
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
//! the most recent daemon. Roles are `sampler`, `l1`, `l2`. Queue
//! policies are `drop-oldest`, `drop-newest`, `deadline:<secs>`.
//! Additional per-daemon attributes for the crash-recovery layer:
//! `standby <name>` declares a ranked alternative upstream route, and
//! `wal capacity=N` attaches a crash-durable write-ahead log to the
//! hop. `batch <records>` on a sampler declares frame-level batching:
//! the sampler coalesces that many records per wire frame, so every
//! queue and WAL capacity check downstream counts frames, not
//! messages (hops park and journal whole frames).
//!
//! `overload rate=N [sample=N throttle=N spill=N keep-every=N
//! window-ms=N]` attaches the overload-control ladder to a hop:
//! `rate` is the sustainable service rate the fluid ingress meter
//! drains at, and `sample` the meter depth at which the ladder
//! degrades bulk traffic into summary sketches (defaulting to
//! `2 * rate`, mirroring `OverloadConfig::for_rate`). The linter's
//! `TOP013` fires when that sampling watermark sits at or beyond the
//! hop's queue capacity — the queue overflows (or its deadline
//! expires) before sampling can ever engage, so the run sheds
//! messages instead of degrading accuracy.
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
//! <name> <from_s> <until_s>` schedules a dsosd crash-stop window;
//! `TOP014` fires when the script takes down at least `replicas`
//! dsosd daemons concurrently, because then some shard can lose every
//! copy of an acknowledged row.

use crate::diag::{self, Diagnostic, Severity};
use darshan_ldms_connector::{Pipeline, WorkloadSpec, COLUMNS};
use iosim_time::{Epoch, SimDuration};
use ldms_sim::fault::{FaultScript, FaultSpec};
use ldms_sim::queue::{OverflowPolicy, QueueConfig};
use ldms_sim::{DaemonRole, LdmsNetwork};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;

/// Role of a daemon in the spec (mirrors [`DaemonRole`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Compute-node sampler daemon (publishes the stream).
    Sampler,
    /// First-level aggregator.
    AggregatorL1,
    /// Second-level aggregator.
    AggregatorL2,
}

impl Role {
    /// The conf-file spelling of the role.
    #[cfg(test)]
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Role::Sampler => "sampler",
            Role::AggregatorL1 => "l1",
            Role::AggregatorL2 => "l2",
        }
    }
}

/// Overload-control policy attached to a hop (conf-file only, like
/// `rate_hz` — a live network's policy arrives via `NetworkOpts` and
/// is checked pre-flight by the experiment driver, not the linter).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadSpec {
    /// Sustainable service rate (msgs/sec) the fluid meter drains at.
    pub service_rate: f64,
    /// Meter depth at which the degradation ladder escalates into
    /// adaptive sampling (defaults to `2 * service_rate`, matching
    /// `OverloadConfig::for_rate`).
    pub sample_watermark: f64,
}

/// One daemon in the IR.
#[derive(Debug, Clone)]
pub struct DaemonSpec {
    /// Producer / daemon name.
    pub name: String,
    /// Topology role.
    pub role: Role,
    /// Name of the daemon this one forwards to, if any.
    pub upstream: Option<String>,
    /// Ranked standby upstream targets (failover routes after the
    /// primary `upstream`).
    pub standbys: Vec<String>,
    /// Name of the transport link used for the upstream hop.
    pub link: Option<String>,
    /// Retry-queue configuration guarding the upstream hop.
    pub queue: QueueConfig,
    /// Capacity of the crash-durable write-ahead log attached to the
    /// hop (`None` = volatile queue only).
    pub wal_capacity: Option<usize>,
    /// Stream tags with subscribers attached at this daemon.
    pub subscribers: Vec<String>,
    /// Expected publish rate in messages per second (samplers;
    /// conf-file only — live networks do not know their future rate).
    pub rate_hz: Option<f64>,
    /// Records coalesced per wire frame when the sampler batches
    /// (`None` / `Some(1)` = unbatched). Downstream hops park and
    /// journal whole frames, so capacity math divides `rate_hz` by
    /// this. Conf-file only, like `rate_hz`.
    pub batch: Option<u64>,
    /// Overload-control ladder guarding the hop, when declared
    /// (enables `TOP013`). Populated from conf files *and*, since the
    /// flow solver, from live networks via `Ldmsd::overload_config`.
    pub overload: Option<OverloadSpec>,
    /// Conf line the daemon was declared on (1-based), when the spec
    /// came from `parse_conf`. Lets diagnostics point back into the
    /// file; `None` for specs lifted from live networks.
    pub line: Option<usize>,
}

impl DaemonSpec {
    /// A daemon with no upstream, no subscribers, best-effort queue.
    pub fn new(name: &str, role: Role) -> Self {
        Self {
            name: name.to_string(),
            role,
            upstream: None,
            standbys: Vec::new(),
            link: None,
            queue: QueueConfig::best_effort(),
            wal_capacity: None,
            subscribers: Vec::new(),
            rate_hz: None,
            batch: None,
            overload: None,
            line: None,
        }
    }

    fn subscribes(&self, tag: &str) -> bool {
        self.subscribers.iter().any(|t| t == tag)
    }
}

/// What a scheduled downtime window applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutageKind {
    /// The named daemon itself is down.
    Daemon,
    /// The named daemon's upstream link is down.
    Link,
    /// The named daemon crash-stops: down for the window *and* all of
    /// its volatile state (parked queue entries) is destroyed.
    Crash,
}

/// The storage tier behind the terminal daemon: `dsosd` backend
/// count and replication policy (`dsosd` conf directive / lifted from
/// a live [`dsos_sim::DsosCluster`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreSpec {
    /// Backend `dsosd` daemon count.
    pub dsosd: usize,
    /// Copies kept per row.
    pub replicas: usize,
    /// Copies required before a row counts as acknowledged.
    pub write_quorum: usize,
    /// Conf line of the `dsosd` directive, when parsed.
    pub line: Option<usize>,
}

/// One scheduled `dsosd` downtime window `[from, until)` in virtual
/// time (`crash-dsosd` conf directive / `CrashDsosd`+`RestartDsosd`
/// fault pairs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DsosdOutage {
    /// The `dsosd` daemon name (e.g. `dsosd-0`).
    pub daemon: String,
    /// Crash instant.
    pub from: Epoch,
    /// Restart instant (`Epoch::from_nanos(u64::MAX)` when the script
    /// never restarts the daemon).
    pub until: Epoch,
}

/// One scheduled downtime window `[from, until)` in virtual time.
#[derive(Debug, Clone)]
pub struct OutageSpec {
    /// Daemon or link-owner affected.
    pub component: String,
    /// Component kind.
    pub kind: OutageKind,
    /// Window start.
    pub from: Epoch,
    /// Window end.
    pub until: Epoch,
}

/// Plain-data topology description the lints run against.
#[derive(Debug, Clone)]
pub struct TopologySpec {
    /// All daemons (order preserved from the source).
    pub daemons: Vec<DaemonSpec>,
    /// The stream tag the pipeline carries.
    pub stream_tag: String,
    /// Store schema column names, when known (enables `TOP008`).
    pub schema_columns: Option<Vec<String>>,
    /// Scheduled downtime windows (enables `TOP009`).
    pub outages: Vec<OutageSpec>,
    /// Daemons whose upstream link drops traffic *silently*
    /// (probabilistic loss / drop-every faults). Unlike downtime
    /// windows these consume retry attempts with pure backoff, so the
    /// flow solver treats the whole offered load through such a hop
    /// as at-risk.
    pub lossy_links: Vec<String>,
    /// Campaign envelope the flow solver evaluates the topology
    /// against (`workload` conf directive / harness-supplied).
    pub workload: Option<WorkloadSpec>,
    /// Storage tier behind the terminal daemon, when declared
    /// (enables `TOP014`).
    pub store: Option<StoreSpec>,
    /// Scheduled `dsosd` downtime windows (enables `TOP014`).
    pub dsosd_outages: Vec<DsosdOutage>,
}

impl TopologySpec {
    /// An empty spec for the given tag.
    pub fn new(tag: &str) -> Self {
        Self {
            daemons: Vec::new(),
            stream_tag: tag.to_string(),
            schema_columns: None,
            outages: Vec::new(),
            lossy_links: Vec::new(),
            workload: None,
            store: None,
            dsosd_outages: Vec::new(),
        }
    }

    /// Extracts the IR from a live network: daemon roles, upstream
    /// wiring, per-hop queue configs, and which daemons have
    /// subscribers for `tag`. `faults` contributes the downtime
    /// windows (the script the network was built with).
    pub(crate) fn from_network(net: &LdmsNetwork, tag: &str, faults: &FaultScript) -> Self {
        let daemons = net
            .daemons()
            .iter()
            .map(|d| {
                let n = d.subscriber_count(tag);
                let targets = d.upstream_targets();
                DaemonSpec {
                    name: d.name().to_string(),
                    role: match d.role() {
                        DaemonRole::Sampler => Role::Sampler,
                        DaemonRole::AggregatorL1 => Role::AggregatorL1,
                        DaemonRole::AggregatorL2 => Role::AggregatorL2,
                    },
                    upstream: targets.first().map(|t| t.name().to_string()),
                    standbys: targets
                        .iter()
                        .skip(1)
                        .map(|t| t.name().to_string())
                        .collect(),
                    link: d.upstream_link_name(),
                    queue: d.queue_config().unwrap_or_default(),
                    wal_capacity: d.wal_capacity(),
                    subscribers: vec![tag.to_string(); n],
                    rate_hz: None,
                    batch: None,
                    overload: d.overload_config().map(|c| OverloadSpec {
                        service_rate: c.service_rate,
                        sample_watermark: c.sample_watermark,
                    }),
                    line: None,
                }
            })
            .collect();
        let mut spec = Self {
            daemons,
            stream_tag: tag.to_string(),
            schema_columns: None,
            outages: Vec::new(),
            lossy_links: Vec::new(),
            workload: None,
            store: None,
            dsosd_outages: Vec::new(),
        };
        spec.absorb_faults(faults);
        spec
    }

    /// Extracts the IR from an assembled pipeline, additionally
    /// capturing the store's schema columns so `TOP008` can check
    /// Table I coverage.
    pub fn from_pipeline(p: &Pipeline, tag: &str, faults: &FaultScript) -> Self {
        let mut spec = Self::from_network(p.network(), tag, faults);
        spec.schema_columns = Some(
            p.store()
                .schema()
                .attrs()
                .iter()
                .map(|a| a.name.clone())
                .collect(),
        );
        let repl = p.cluster().replication();
        spec.store = Some(StoreSpec {
            dsosd: p.cluster().daemon_count(),
            replicas: repl.replicas,
            write_quorum: repl.write_quorum,
            line: None,
        });
        spec
    }

    /// Folds a chaos script's downtime windows into the spec. The
    /// aliases `"l1"` / `"l2"` resolve to the first daemon with the
    /// matching role; unknown components are skipped, as the network
    /// builder skips them. Probabilistic loss specs
    /// carry no window and are ignored here (the delivery ledger, not
    /// the topology linter, accounts for them).
    pub(crate) fn absorb_faults(&mut self, faults: &FaultScript) {
        // Pair every dsosd crash with the earliest scripted restart of
        // the same daemon after it; unpaired crashes stay down forever.
        let mut dsosd_crashes: Vec<(&str, Epoch)> = Vec::new();
        let mut dsosd_restarts: Vec<(&str, Epoch)> = Vec::new();
        for f in faults.specs() {
            match f {
                FaultSpec::CrashDsosd { daemon, at } => dsosd_crashes.push((daemon, *at)),
                FaultSpec::RestartDsosd { daemon, at } => dsosd_restarts.push((daemon, *at)),
                _ => {}
            }
        }
        dsosd_crashes.sort_by_key(|&(_, at)| at);
        dsosd_restarts.sort_by_key(|&(_, at)| at);
        let mut restart_used = vec![false; dsosd_restarts.len()];
        for (daemon, from) in dsosd_crashes {
            let until = dsosd_restarts
                .iter()
                .enumerate()
                .find(|(i, &(d, at))| !restart_used[*i] && d == daemon && at > from)
                .map_or(Epoch::from_nanos(u64::MAX), |(i, &(_, at))| {
                    restart_used[i] = true;
                    at
                });
            self.dsosd_outages.push(DsosdOutage {
                daemon: daemon.to_string(),
                from,
                until,
            });
        }

        for f in faults.specs() {
            let (name, kind, from, until) = match f {
                FaultSpec::DaemonOutage {
                    daemon,
                    from,
                    until,
                } => (daemon, OutageKind::Daemon, *from, *until),
                FaultSpec::LinkFlap {
                    daemon,
                    from,
                    until,
                } => (daemon, OutageKind::Link, *from, *until),
                FaultSpec::Crash {
                    daemon,
                    at,
                    restart,
                } => (daemon, OutageKind::Crash, *at, *restart),
                // Storage-tier faults were paired into dsosd windows
                // above; they touch no LDMS hop.
                FaultSpec::CrashDsosd { .. } | FaultSpec::RestartDsosd { .. } => continue,
                FaultSpec::LinkLossProb { daemon, .. }
                | FaultSpec::LinkDropEvery { daemon, .. } => {
                    // No downtime window, but the hop can silently eat
                    // any message: record it so the flow solver puts
                    // the full offered load at risk there.
                    if let Some(component) = self.resolve_alias(daemon) {
                        if !self.lossy_links.contains(&component) {
                            self.lossy_links.push(component);
                        }
                    }
                    continue;
                }
            };
            if let Some(component) = self.resolve_alias(name) {
                self.outages.push(OutageSpec {
                    component,
                    kind,
                    from,
                    until,
                });
            }
        }
    }

    fn resolve_alias(&self, name: &str) -> Option<String> {
        if self.daemons.iter().any(|d| d.name == name) {
            return Some(name.to_string());
        }
        let role = match name {
            "l1" => Role::AggregatorL1,
            "l2" => Role::AggregatorL2,
            _ => return None,
        };
        self.daemons
            .iter()
            .find(|d| d.role == role)
            .map(|d| d.name.clone())
    }
}

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
    let mut spec = TopologySpec::new(darshan_ldms_connector::DEFAULT_STREAM_TAG);
    let mut current: Option<usize> = None;
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
                    "sampler" => Role::Sampler,
                    "l1" | "aggregator-l1" => Role::AggregatorL1,
                    "l2" | "aggregator-l2" => Role::AggregatorL2,
                    r => return Err(err(format!("unknown role: {r}"))),
                };
                if spec.daemons.iter().any(|d| d.name == name) {
                    return Err(err(format!("duplicate daemon name: {name}")));
                }
                let mut d = DaemonSpec::new(name, role);
                d.line = Some(line_no);
                spec.daemons.push(d);
                current = Some(spec.daemons.len() - 1);
            }
            "upstream" | "standby" | "link" | "rate" | "batch" | "subscribe" | "queue" | "wal"
            | "overload" => {
                let d = current
                    .map(|i| &mut spec.daemons[i])
                    .ok_or_else(|| err(format!("`{}` before any `daemon`", toks[0])))?;
                match toks[0] {
                    "upstream" => {
                        let t = toks
                            .get(1)
                            .ok_or_else(|| err("upstream needs a name".into()))?;
                        d.upstream = Some((*t).to_string());
                    }
                    "standby" => {
                        let t = toks
                            .get(1)
                            .ok_or_else(|| err("standby needs a name".into()))?;
                        d.standbys.push((*t).to_string());
                    }
                    "wal" => {
                        d.wal_capacity = Some(parse_wal(&toks[1..], line_no)?);
                    }
                    "link" => {
                        let t = toks.get(1).ok_or_else(|| err("link needs a name".into()))?;
                        d.link = Some((*t).to_string());
                    }
                    "rate" => {
                        let t = toks
                            .get(1)
                            .ok_or_else(|| err("rate needs msgs/sec".into()))?;
                        d.rate_hz = Some(parse_f64(t, line_no, "rate")?);
                    }
                    "batch" => {
                        let t = toks
                            .get(1)
                            .ok_or_else(|| err("batch needs records/frame".into()))?;
                        let n = t
                            .parse::<u64>()
                            .ok()
                            .filter(|&n| n >= 1)
                            .ok_or_else(|| err(format!("bad batch (want >= 1): {t}")))?;
                        d.batch = Some(n);
                    }
                    "subscribe" => {
                        let t = toks
                            .get(1)
                            .ok_or_else(|| err("subscribe needs a tag".into()))?;
                        d.subscribers.push((*t).to_string());
                    }
                    "queue" => {
                        d.queue = parse_queue(&toks[1..], line_no)?;
                    }
                    "overload" => {
                        d.overload = Some(parse_overload(&toks[1..], line_no)?);
                    }
                    _ => unreachable!("outer match arm"),
                }
            }
            "dsosd" => {
                spec.store = Some(parse_dsosd(&toks[1..], line_no)?);
            }
            "crash-dsosd" => {
                let (name, from, until) = match toks.as_slice() {
                    [_, name, from, until] => (*name, *from, *until),
                    _ => return Err(err("usage: crash-dsosd <daemon> <from_s> <until_s>".into())),
                };
                spec.dsosd_outages.push(DsosdOutage {
                    daemon: name.to_string(),
                    from: epoch_from_secs_f64(parse_f64(from, line_no, "from")?),
                    until: epoch_from_secs_f64(parse_f64(until, line_no, "until")?),
                });
            }
            "outage" | "flap" | "crash" => {
                let (name, from, until) = match toks.as_slice() {
                    [_, name, from, until] => (*name, *from, *until),
                    _ => {
                        return Err(err(format!(
                            "usage: {} <daemon> <from_s> <until_s>",
                            toks[0]
                        )))
                    }
                };
                spec.outages.push(OutageSpec {
                    component: name.to_string(),
                    kind: match toks[0] {
                        "outage" => OutageKind::Daemon,
                        "crash" => OutageKind::Crash,
                        _ => OutageKind::Link,
                    },
                    from: epoch_from_secs_f64(parse_f64(from, line_no, "from")?),
                    until: epoch_from_secs_f64(parse_f64(until, line_no, "until")?),
                });
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
    // Outage components referencing aliases resolve after all daemons
    // are known; unknown names are kept verbatim (they simply never
    // match a hop, as the network builder skips unknown targets).
    for o in &mut spec.outages {
        if let Some(resolved) = resolve_after_parse(&spec.daemons, &o.component) {
            o.component = resolved;
        }
    }
    Ok(spec)
}

fn resolve_after_parse(daemons: &[DaemonSpec], name: &str) -> Option<String> {
    if daemons.iter().any(|d| d.name == name) {
        return Some(name.to_string());
    }
    let role = match name {
        "l1" => Role::AggregatorL1,
        "l2" => Role::AggregatorL2,
        _ => return None,
    };
    daemons
        .iter()
        .find(|d| d.role == role)
        .map(|d| d.name.clone())
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

fn parse_wal(kvs: &[&str], line: usize) -> Result<usize, ConfError> {
    let mut capacity: Option<usize> = None;
    for kv in kvs {
        let (k, v) = kv.split_once('=').ok_or(ConfError {
            line,
            msg: format!("wal setting must be key=value: {kv}"),
        })?;
        match k {
            "capacity" => {
                capacity = Some(v.parse().map_err(|_| ConfError {
                    line,
                    msg: format!("bad wal capacity: {v}"),
                })?);
            }
            // Cadence knobs are accepted for completeness but do not
            // affect the static capacity lint.
            "fsync-every" | "checkpoint-every" => {
                v.parse::<u32>().map_err(|_| ConfError {
                    line,
                    msg: format!("bad wal {k}: {v}"),
                })?;
            }
            other => {
                return Err(ConfError {
                    line,
                    msg: format!("unknown wal setting: {other}"),
                })
            }
        }
    }
    capacity.ok_or(ConfError {
        line,
        msg: "wal needs capacity=<n>".into(),
    })
}

fn parse_overload(kvs: &[&str], line: usize) -> Result<OverloadSpec, ConfError> {
    let mut rate: Option<f64> = None;
    let mut sample: Option<f64> = None;
    for kv in kvs {
        let (k, v) = kv.split_once('=').ok_or(ConfError {
            line,
            msg: format!("overload setting must be key=value: {kv}"),
        })?;
        match k {
            "rate" => rate = Some(parse_f64(v, line, "overload rate")?),
            "sample" => sample = Some(parse_f64(v, line, "overload sample watermark")?),
            // The remaining ladder knobs are accepted for completeness
            // (so a conf can mirror a full `OverloadConfig`) but do not
            // affect the static sampling-reachability lint.
            "throttle" | "spill" => {
                parse_f64(v, line, k)?;
            }
            "keep-every" | "window-ms" => {
                v.parse::<u64>().map_err(|_| ConfError {
                    line,
                    msg: format!("bad overload {k}: {v}"),
                })?;
            }
            other => {
                return Err(ConfError {
                    line,
                    msg: format!("unknown overload setting: {other}"),
                })
            }
        }
    }
    let service_rate = rate.filter(|r| *r > 0.0).ok_or(ConfError {
        line,
        msg: "overload needs rate=<msgs/sec> (> 0)".into(),
    })?;
    Ok(OverloadSpec {
        service_rate,
        // Mirrors `OverloadConfig::for_rate`: sampling engages at twice
        // the sustainable rate unless the conf pins it explicitly.
        sample_watermark: sample.unwrap_or(service_rate * 2.0),
    })
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

/// Where a forwarding walk ends.
pub(crate) enum WalkEnd {
    /// Reached a daemon with no upstream.
    Terminal(usize),
    /// Re-entered a daemon already on the walk.
    Cycle,
    /// Upstream name resolves to no daemon.
    Dangling,
}

/// Follows the upstream chain from `start`; returns every daemon index
/// on the path (including `start`) plus how the walk ended.
pub(crate) fn walk(
    daemons: &[DaemonSpec],
    by_name: &HashMap<&str, usize>,
    start: usize,
) -> (Vec<usize>, WalkEnd) {
    let mut path = vec![start];
    let mut seen: HashSet<usize> = HashSet::from([start]);
    let mut at = start;
    loop {
        match &daemons[at].upstream {
            None => return (path, WalkEnd::Terminal(at)),
            Some(up) => match by_name.get(up.as_str()) {
                None => return (path, WalkEnd::Dangling),
                Some(&next) => {
                    if !seen.insert(next) {
                        return (path, WalkEnd::Cycle);
                    }
                    path.push(next);
                    at = next;
                }
            },
        }
    }
}

/// Runs every `TOP*` lint over the spec, returning raw findings at
/// their default severities (apply a [`crate::LintConfig`] via
/// [`crate::Report::new`]).
pub fn lint_topology(spec: &TopologySpec) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let tag = &spec.stream_tag;
    let daemons = &spec.daemons;

    // TOP007 — duplicate names. Later duplicates are excluded from the
    // name map so the remaining lints see one daemon per name.
    let mut by_name: HashMap<&str, usize> = HashMap::with_capacity(daemons.len());
    for (i, d) in daemons.iter().enumerate() {
        if by_name.contains_key(d.name.as_str()) {
            diags.push(
                Diagnostic::new(
                    &diag::TOP007,
                    format!("daemon `{}`", d.name),
                    format!("producer name `{}` is declared more than once", d.name),
                )
                .with_help("publishes and fault specs address daemons by name; rename one"),
            );
        } else {
            by_name.insert(d.name.as_str(), i);
        }
    }

    // TOP010 — dangling upstream references.
    for d in daemons {
        if let Some(up) = &d.upstream {
            if !by_name.contains_key(up.as_str()) {
                diags.push(
                    Diagnostic::new(
                        &diag::TOP010,
                        format!("daemon `{}`", d.name),
                        format!("forwards to `{up}`, which is not a declared daemon"),
                    )
                    .with_help("declare the upstream daemon or fix the name"),
                );
            }
        }
    }

    // TOP002 — orphan samplers.
    for d in daemons {
        if d.role == Role::Sampler && d.upstream.is_none() {
            diags.push(
                Diagnostic::new(
                    &diag::TOP002,
                    format!("daemon `{}`", d.name),
                    format!(
                        "sampler `{}` has no upstream aggregator; its stream never leaves the node",
                        d.name
                    ),
                )
                .with_help("connect the sampler to the first-level aggregator"),
            );
        }
    }

    // Walk every sampler's forwarding path once; cycles, terminal
    // subscribers and reachability all fall out of the walks.
    let sampler_ids: Vec<usize> = daemons
        .iter()
        .enumerate()
        .filter(|(_, d)| d.role == Role::Sampler)
        .map(|(i, _)| i)
        .collect();
    let mut reachable: HashSet<usize> = HashSet::new();
    // terminal daemon -> samplers whose path ends there
    let mut terminals: BTreeMap<usize, Vec<&str>> = BTreeMap::new();
    let mut paths: HashMap<usize, Vec<usize>> = HashMap::new();
    for &s in &sampler_ids {
        let (path, end) = walk(daemons, &by_name, s);
        reachable.extend(path.iter().copied());
        if let WalkEnd::Terminal(t) = end {
            terminals.entry(t).or_default().push(&daemons[s].name);
        }
        paths.insert(s, path);
    }

    // Standby (failover) routes also carry traffic: close reachability
    // over them so a subscriber behind a standby-only path is not
    // flagged TOP003.
    let mut frontier: Vec<usize> = reachable.iter().copied().collect();
    while let Some(i) = frontier.pop() {
        for n in daemons[i].upstream.iter().chain(daemons[i].standbys.iter()) {
            if let Some(&j) = by_name.get(n.as_str()) {
                if reachable.insert(j) {
                    frontier.push(j);
                }
            }
        }
    }

    // TOP001 — cycles, found over the whole graph (not only sampler
    // paths) so a looping aggregator pair is flagged even with no
    // sampler attached. Deduplicate by the cycle's member set.
    let mut cycles_seen: HashSet<Vec<usize>> = HashSet::new();
    for start in 0..daemons.len() {
        let (path, end) = walk(daemons, &by_name, start);
        if let WalkEnd::Cycle = end {
            // The walk re-entered some daemon on `path`; the cycle is
            // the suffix starting at the re-entered daemon.
            let last = &daemons[*path.last().expect("non-empty path")];
            let reentry = by_name[last
                .upstream
                .as_ref()
                .expect("cycle walk ends on a forwarding daemon")
                .as_str()];
            let pos = path
                .iter()
                .position(|&i| i == reentry)
                .expect("re-entered daemon is on the path");
            let mut members: Vec<usize> = path[pos..].to_vec();
            let rendered: Vec<&str> = members.iter().map(|&i| daemons[i].name.as_str()).collect();
            let rendered = format!("{} -> {}", rendered.join(" -> "), daemons[reentry].name);
            members.sort_unstable();
            if cycles_seen.insert(members) {
                diags.push(
                    Diagnostic::new(
                        &diag::TOP001,
                        format!("daemon `{}`", daemons[reentry].name),
                        format!("forwarding cycle: {rendered}"),
                    )
                    .with_help(
                        "aggregation must be a DAG; a message entering the cycle never reaches \
                         a terminal store",
                    ),
                );
            }
        }
    }

    // TOP004 — terminal daemons with no subscriber for the tag.
    for (t, samplers) in &terminals {
        if !daemons[*t].subscribes(tag) {
            diags.push(
                Diagnostic::new(
                    &diag::TOP004,
                    format!("daemon `{}`", daemons[*t].name),
                    format!(
                        "terminal daemon `{}` has no subscriber for tag `{tag}`; traffic from {} \
                         sampler(s) ({}) is dropped with cause `no-subscriber`",
                        daemons[*t].name,
                        samplers.len(),
                        samplers.join(", "),
                    ),
                )
                .with_help("attach the store plugin (or another sink) at the terminal daemon"),
            );
        }
    }

    // TOP003 — subscribers nothing can reach.
    for (i, d) in daemons.iter().enumerate() {
        if d.subscribes(tag) && !reachable.contains(&i) && by_name.get(d.name.as_str()) == Some(&i)
        {
            diags.push(
                Diagnostic::new(
                    &diag::TOP003,
                    format!("daemon `{}`", d.name),
                    format!(
                        "`{}` subscribes to tag `{tag}` but lies on no sampler's forwarding path",
                        d.name
                    ),
                )
                .with_help("LDMS Streams does not cache: a subscriber off every path sees nothing"),
            );
        }
    }

    // TOP006 — deadline shorter than the first backoff.
    for d in daemons {
        if d.upstream.is_none() || !d.queue.retries_enabled() {
            continue;
        }
        if let OverflowPolicy::BlockWithDeadline(deadline) = d.queue.policy {
            if deadline <= d.queue.base_backoff {
                diags.push(
                    Diagnostic::new(
                        &diag::TOP006,
                        format!("daemon `{}`", d.name),
                        format!(
                            "retry deadline {:.6}s is not longer than the first backoff {:.6}s: \
                             every parked message expires before its first retry",
                            deadline.as_secs_f64(),
                            d.queue.base_backoff.as_secs_f64(),
                        ),
                    )
                    .with_help("raise the deadline above the base backoff or disable retries"),
                );
            }
        }
    }

    // Downtime windows, grouped per affected hop (the daemon owning
    // the queue that must ride the outage out).
    // hop daemon index -> total scheduled downtime its upstream sees.
    let mut hop_downtime: BTreeMap<usize, f64> = BTreeMap::new();
    // hop daemon index -> longest single crash-stop window its
    // upstream target is scripted for (feeds TOP012).
    let mut hop_crash_window: BTreeMap<usize, f64> = BTreeMap::new();
    for o in &spec.outages {
        let secs = o.until.since(o.from).as_secs_f64();
        if secs <= 0.0 {
            continue;
        }
        match o.kind {
            // A daemon outage (or crash — same downtime, worse state
            // loss) is ridden out by every hop targeting it.
            OutageKind::Daemon | OutageKind::Crash => {
                for (i, d) in daemons.iter().enumerate() {
                    if d.upstream.as_deref() == Some(o.component.as_str()) {
                        *hop_downtime.entry(i).or_default() += secs;
                        if o.kind == OutageKind::Crash {
                            let w = hop_crash_window.entry(i).or_default();
                            *w = w.max(secs);
                        }
                    }
                }
            }
            // A link flap is ridden out by the link's owner.
            OutageKind::Link => {
                if let Some(&i) = by_name.get(o.component.as_str()) {
                    if daemons[i].upstream.is_some() {
                        *hop_downtime.entry(i).or_default() += secs;
                    }
                }
            }
        }
    }

    // Aggregate publish rate flowing through daemon `i`, in *wire
    // units*: a sampler that batches `b` records per frame contributes
    // rate/b frames per second, because downstream queues and WALs
    // park whole frames, not the records inside them. Returns the rate
    // plus the unit word for diagnostics ("frames" once any
    // contributing sampler batches). Conf-file specs only; live
    // networks carry no rates.
    let through_rate = |i: usize| -> (f64, &'static str) {
        let mut rate = 0.0;
        let mut unit = "messages";
        for &s in &sampler_ids {
            if !paths.get(&s).is_some_and(|p| p.contains(&i)) {
                continue;
            }
            let Some(r) = daemons[s].rate_hz else {
                continue;
            };
            match daemons[s].batch {
                Some(b) if b > 1 => {
                    rate += r / b as f64;
                    unit = "frames";
                }
                _ => rate += r,
            }
        }
        (rate, unit)
    };

    for (&i, &down_secs) in &hop_downtime {
        let d = &daemons[i];
        if !d.queue.retries_enabled() {
            // TOP009 — outage behind a best-effort hop: guaranteed loss.
            diags.push(
                Diagnostic::new(
                    &diag::TOP009,
                    format!("daemon `{}`", d.name),
                    format!(
                        "{down_secs:.0}s of scheduled downtime sits behind the best-effort hop at \
                         `{}`; every message in the window is lost",
                        d.name
                    ),
                )
                .with_help("give the hop a retry queue (attempts > 1) to ride the outage out"),
            );
        }
    }

    // TOP012 — write-ahead log too small for the longest scripted
    // crash window it must buffer through: the excess records stay
    // volatile-only, so a crash of the hop itself loses them.
    for (&i, &win_secs) in &hop_crash_window {
        let d = &daemons[i];
        let Some(cap) = d.wal_capacity else { continue };
        let (rate, unit) = through_rate(i);
        if rate <= 0.0 {
            continue;
        }
        let expected = rate * win_secs;
        if expected > cap as f64 {
            diags.push(
                Diagnostic::new(
                    &diag::TOP012,
                    format!("daemon `{}`", d.name),
                    format!(
                        "write-ahead log at `{}` (capacity {cap}) must journal ~{expected:.0} \
                         {unit} over the longest scripted crash window ({win_secs:.0}s at \
                         ~{rate:.0} {unit}/s); the excess is volatile-only and dies if `{}` crashes",
                        d.name, d.name
                    ),
                )
                .with_help("raise the WAL capacity or shorten the crash window"),
            );
        }
    }

    // TOP013 — sampling can never engage: the hop's sample watermark
    // sits at or beyond its bounded queue capacity, so the queue
    // overflows (or its block deadline expires) strictly before the
    // fluid meter can reach the depth that would degrade bulk traffic
    // into sketches. The operator configured accuracy-bounded
    // degradation but will get attributed drops instead.
    for d in daemons {
        let (Some(ov), true) = (&d.overload, d.upstream.is_some()) else {
            continue;
        };
        if ov.sample_watermark >= d.queue.capacity as f64 {
            let shed = match d.queue.policy {
                OverflowPolicy::BlockWithDeadline(_) => "deadline expiry",
                _ => "overflow",
            };
            diags.push(
                Diagnostic::new(
                    &diag::TOP013,
                    format!("daemon `{}`", d.name),
                    format!(
                        "sampling watermark {:.0} at `{}` is not below the queue capacity {}: \
                         queue {shed} sheds messages before the ladder can degrade into sketches",
                        ov.sample_watermark, d.name, d.queue.capacity
                    ),
                )
                .with_help(
                    "raise the queue capacity above the sample watermark (or lower \
                     `overload sample=`) so degradation engages before drops do",
                ),
            );
        }
    }

    // TOP011 — single point of failure: a forwarding daemon whose
    // removal disconnects every sampler from every subscriber. The
    // paper's single head-node aggregator is exactly this; a standby
    // route clears the finding.
    let subscriber_ids: Vec<usize> = daemons
        .iter()
        .enumerate()
        .filter(|(i, d)| d.subscribes(tag) && by_name.get(d.name.as_str()) == Some(i))
        .map(|(i, _)| i)
        .collect();
    let reaches_subscriber = |start: usize, banned: Option<usize>| -> bool {
        let mut seen = HashSet::from([start]);
        let mut frontier = vec![start];
        while let Some(i) = frontier.pop() {
            if subscriber_ids.contains(&i) {
                return true;
            }
            for n in daemons[i].upstream.iter().chain(daemons[i].standbys.iter()) {
                if let Some(&j) = by_name.get(n.as_str()) {
                    if Some(j) != banned && seen.insert(j) {
                        frontier.push(j);
                    }
                }
            }
        }
        false
    };
    let connected: Vec<usize> = sampler_ids
        .iter()
        .copied()
        .filter(|&s| reaches_subscriber(s, None))
        .collect();
    if !connected.is_empty() {
        for (x, d) in daemons.iter().enumerate() {
            if d.role == Role::Sampler || d.upstream.is_none() || d.subscribes(tag) {
                // Samplers originate traffic and subscriber hosts are
                // store endpoints, not forwarders; losing either is a
                // different failure class than a forwarding SPOF.
                continue;
            }
            if connected.iter().all(|&s| !reaches_subscriber(s, Some(x))) {
                diags.push(
                    Diagnostic::new(
                        &diag::TOP011,
                        format!("daemon `{}`", d.name),
                        format!(
                            "every sampler reaches a subscriber only through `{}`; a crash \
                             there stalls the entire pipeline until restart",
                            d.name
                        ),
                    )
                    .with_help(
                        "deploy a standby aggregator (`standby <name>`) so heartbeat failover \
                         has a route to elect",
                    ),
                );
            }
        }
    }

    // TOP014 — replication overwhelmed: at some instant the script
    // has at least `replicas` dsosd daemons down at once, so a shard
    // whose replica set is exactly the downed daemons has no live
    // copy of its acknowledged rows. Windows are half-open, so a
    // restart at the same instant as another daemon's crash does not
    // overlap it. Without a `dsosd` declaration the store is assumed
    // unreplicated (replicas = 1), matching the live default.
    if !spec.dsosd_outages.is_empty() {
        let replicas = spec.store.map_or(1, |s| s.replicas);
        // Sweep window endpoints; ends sort before starts at equal
        // instants (half-open windows touch without overlapping).
        let mut events: Vec<(Epoch, i32)> = Vec::new();
        for o in &spec.dsosd_outages {
            if o.until <= o.from {
                continue;
            }
            events.push((o.from, 1));
            events.push((o.until, -1));
        }
        events.sort_by_key(|&(t, delta)| (t, delta));
        let (mut down, mut peak) = (0i32, 0i32);
        for (_, delta) in events {
            down += delta;
            peak = peak.max(down);
        }
        if usize::try_from(peak).unwrap_or(0) >= replicas {
            let policy = match spec.store {
                Some(s) => format!(
                    "{} dsosd daemon(s), {} replica(s) per row, write quorum {}",
                    s.dsosd, s.replicas, s.write_quorum
                ),
                None => "an undeclared (unreplicated) storage tier".to_string(),
            };
            diags.push(
                Diagnostic::new(
                    &diag::TOP014,
                    "storage tier".to_string(),
                    format!(
                        "the fault script takes down {peak} dsosd daemon(s) concurrently but the \
                         store keeps only {replicas} replica(s) per row ({policy}): a shard placed \
                         on exactly the downed daemons loses every copy of its acknowledged rows",
                    ),
                )
                .with_help(
                    "raise `dsosd replicas=` above the worst concurrent crash count, or stagger \
                     the crash windows so a live replica always remains",
                ),
            );
        }
    }

    // TOP008 — Table I schema coverage.
    if let Some(cols) = &spec.schema_columns {
        let expected: Vec<&str> = COLUMNS.iter().map(|&(n, _)| n).collect();
        let expected_set: BTreeSet<&str> = expected.iter().copied().collect();
        let got_set: BTreeSet<&str> = cols.iter().map(String::as_str).collect();
        let missing: Vec<&str> = expected_set.difference(&got_set).copied().collect();
        let extra: Vec<&str> = got_set.difference(&expected_set).copied().collect();
        if !missing.is_empty() {
            diags.push(
                Diagnostic::new(
                    &diag::TOP008,
                    "schema `darshan_data`".to_string(),
                    format!(
                        "store schema is missing {} of the 24 Table I column(s): {}",
                        missing.len(),
                        missing.join(", ")
                    ),
                )
                .with_help("the store rejects rows whose arity or types mismatch the schema"),
            );
        }
        if !extra.is_empty() {
            diags.push(
                Diagnostic::new(
                    &diag::TOP008,
                    "schema `darshan_data`".to_string(),
                    format!(
                        "store schema declares unknown column(s): {}",
                        extra.join(", ")
                    ),
                )
                .with_severity(Severity::Warning)
                .with_help("extra columns are never populated by the connector"),
            );
        }
        if missing.is_empty() && extra.is_empty() && cols.iter().map(String::as_str).ne(expected) {
            diags.push(
                Diagnostic::new(
                    &diag::TOP008,
                    "schema `darshan_data`".to_string(),
                    "store schema columns are complete but not in Figure 3 order".to_string(),
                )
                .with_severity(Severity::Warning)
                .with_help("CSV export relies on attribute order matching Figure 3"),
            );
        }
    }

    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldms_sim::NetworkOpts;

    const PAPER: &str = "
tag darshanConnector
daemon nid00040 sampler
  upstream voltrino-head
  link ugni
daemon nid00041 sampler
  upstream voltrino-head
  link ugni
daemon voltrino-head l1
  upstream shirley-agg
  link site-net
daemon shirley-agg l2
  subscribe darshanConnector
";

    #[test]
    fn paper_conf_parses_with_only_the_spof_warning() {
        let spec = parse_conf(PAPER).unwrap();
        assert_eq!(spec.daemons.len(), 4);
        assert_eq!(spec.stream_tag, "darshanConnector");
        // The paper's single head-node aggregator is a genuine single
        // point of failure — that warning is the only finding.
        let diags = lint_topology(&spec);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code.code, "TOP011");
        assert!(diags[0].message.contains("voltrino-head"));
    }

    #[test]
    fn standby_route_clears_the_spof_warning() {
        let with_standby = format!(
            "{PAPER}\
daemon voltrino-standby l1
  upstream shirley-agg
  link site-net
"
        )
        .replace(
            "daemon nid00040 sampler\n  upstream voltrino-head",
            "daemon nid00040 sampler\n  upstream voltrino-head\n  standby voltrino-standby",
        )
        .replace(
            "daemon nid00041 sampler\n  upstream voltrino-head",
            "daemon nid00041 sampler\n  upstream voltrino-head\n  standby voltrino-standby",
        );
        let spec = parse_conf(&with_standby).unwrap();
        assert_eq!(spec.daemons[0].standbys, vec!["voltrino-standby"]);
        let codes: Vec<&str> = lint_topology(&spec).iter().map(|d| d.code.code).collect();
        assert!(
            !codes.contains(&"TOP011"),
            "standby must clear the SPOF: {codes:?}"
        );
        assert!(
            !codes.contains(&"TOP003"),
            "the standby aggregator is reachable via failover: {codes:?}"
        );
    }

    #[test]
    fn crash_directive_and_wal_capacity_drive_top012() {
        let conf = "
tag darshanConnector
daemon nid0 sampler
  upstream agg
  rate 100
daemon agg l1
  upstream store
  queue capacity=100000 attempts=8
  wal capacity=50
daemon store l2
  subscribe darshanConnector
crash store 100 130
";
        let spec = parse_conf(conf).unwrap();
        assert_eq!(spec.outages.len(), 1);
        assert_eq!(spec.outages[0].kind, OutageKind::Crash);
        assert_eq!(spec.daemons[1].wal_capacity, Some(50));
        let codes: Vec<&str> = lint_topology(&spec).iter().map(|d| d.code.code).collect();
        // 100 msg/s × 30 s = 3000 records ≫ WAL capacity 50.
        assert!(codes.contains(&"TOP012"), "{codes:?}");
        // A big-enough WAL clears it.
        let ok = conf.replace("wal capacity=50", "wal capacity=4096");
        let codes: Vec<&str> = lint_topology(&parse_conf(&ok).unwrap())
            .iter()
            .map(|d| d.code.code)
            .collect();
        assert!(!codes.contains(&"TOP012"), "{codes:?}");
    }

    #[test]
    fn overload_directive_parses_and_defaults_the_sample_watermark() {
        let spec = parse_conf(
            "daemon a l1\n  upstream b\n  queue capacity=4096 attempts=8\n\
             \x20 overload rate=15 keep-every=8 window-ms=100\ndaemon b l2\n",
        )
        .unwrap();
        let ov = spec.daemons[0].overload.expect("overload parsed");
        assert!((ov.service_rate - 15.0).abs() < 1e-12);
        // for_rate semantics: sampling engages at twice the rate.
        assert!((ov.sample_watermark - 30.0).abs() < 1e-12);
        let spec =
            parse_conf("daemon a l1\n  upstream b\n  overload rate=15 sample=900\ndaemon b l2\n")
                .unwrap();
        assert!((spec.daemons[0].overload.unwrap().sample_watermark - 900.0).abs() < 1e-12);
        // rate is mandatory and must be positive.
        assert!(parse_conf("daemon a l1\n  overload sample=10\n").is_err());
        assert!(parse_conf("daemon a l1\n  overload rate=0\n").is_err());
        assert!(parse_conf("daemon a l1\n  overload rate=5 bogus=1\n").is_err());
    }

    #[test]
    fn sampling_watermark_at_or_beyond_queue_capacity_fires_top013() {
        let conf = |capacity: u32| {
            format!(
                "tag darshanConnector
daemon nid0 sampler
  upstream agg
  rate 100
  queue capacity={capacity} attempts=8
  overload rate=50 sample=512
daemon agg l1
  upstream store
  queue capacity=4096 attempts=8
daemon store l2
  subscribe darshanConnector
"
            )
        };
        // Capacity 256 < sample watermark 512: the queue sheds first.
        let spec = parse_conf(&conf(256)).unwrap();
        let codes: Vec<&str> = lint_topology(&spec).iter().map(|d| d.code.code).collect();
        assert!(codes.contains(&"TOP013"), "{codes:?}");
        // Capacity 4096 leaves headroom above the watermark: clean.
        let spec = parse_conf(&conf(4096)).unwrap();
        let codes: Vec<&str> = lint_topology(&spec).iter().map(|d| d.code.code).collect();
        assert!(!codes.contains(&"TOP013"), "{codes:?}");
        // Equality still fires (the meter can never strictly exceed
        // what the queue already refused to hold).
        let spec = parse_conf(&conf(512)).unwrap();
        let codes: Vec<&str> = lint_topology(&spec).iter().map(|d| d.code.code).collect();
        assert!(codes.contains(&"TOP013"), "{codes:?}");
    }

    #[test]
    fn conf_parser_reports_line_numbers() {
        let e = parse_conf("tag t\nbogus directive\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("bogus"));
        let e = parse_conf("upstream x\n").unwrap_err();
        assert!(e.msg.contains("before any `daemon`"));
        let e = parse_conf("daemon a sampler\n  queue capacity=lots\n").unwrap_err();
        assert!(e.msg.contains("capacity"));
    }

    #[test]
    fn queue_settings_parse() {
        let spec = parse_conf(
            "daemon a l1\n  queue capacity=7 policy=deadline:0.5 attempts=3 backoff=0.002 jitter=0.1\n",
        )
        .unwrap();
        let q = &spec.daemons[0].queue;
        assert_eq!(q.capacity, 7);
        assert_eq!(q.max_attempts, 3);
        assert!(
            matches!(q.policy, OverflowPolicy::BlockWithDeadline(d) if (d.as_secs_f64() - 0.5).abs() < 1e-12)
        );
        assert!((q.base_backoff.as_secs_f64() - 0.002).abs() < 1e-12);
    }

    #[test]
    fn outage_aliases_resolve_to_role() {
        let spec = parse_conf(&format!("{PAPER}\noutage l2 100 160\nflap l1 10 20\n")).unwrap();
        assert_eq!(spec.outages.len(), 2);
        assert_eq!(spec.outages[0].component, "shirley-agg");
        assert_eq!(spec.outages[1].component, "voltrino-head");
    }

    #[test]
    fn spec_from_live_network_carries_only_the_spof_warning() {
        let net = LdmsNetwork::build(
            &["nid00040".into(), "nid00041".into()],
            &NetworkOpts::default(),
        );
        net.l2()
            .subscribe("darshanConnector", ldms_sim::stream::BufferSink::new());
        let spec = TopologySpec::from_network(&net, "darshanConnector", &FaultScript::new());
        assert_eq!(spec.daemons.len(), 4);
        assert!(spec.daemons.iter().any(|d| d.role == Role::AggregatorL2));
        let codes: Vec<&str> = lint_topology(&spec).iter().map(|d| d.code.code).collect();
        assert_eq!(codes, vec!["TOP011"]);
    }

    #[test]
    fn spec_from_standby_network_is_clean() {
        let net = LdmsNetwork::build(
            &["nid00040".into(), "nid00041".into()],
            &NetworkOpts {
                queue: QueueConfig::reliable(),
                standby_l1: true,
                ..NetworkOpts::default()
            },
        );
        net.l2()
            .subscribe("darshanConnector", ldms_sim::stream::BufferSink::new());
        let spec = TopologySpec::from_network(&net, "darshanConnector", &FaultScript::new());
        assert_eq!(spec.daemons.len(), 5);
        assert_eq!(spec.daemons[0].standbys, vec!["voltrino-standby"]);
        assert!(lint_topology(&spec).is_empty());
    }

    #[test]
    fn network_faults_become_outage_windows() {
        let net = LdmsNetwork::build(&["nid0".into()], &NetworkOpts::default());
        net.l2()
            .subscribe("darshanConnector", ldms_sim::stream::BufferSink::new());
        let faults = FaultScript::new()
            .daemon_outage("l2", Epoch::from_secs(10), Epoch::from_secs(20))
            .link_loss_prob("nid0", 0.5, 1);
        let spec = TopologySpec::from_network(&net, "darshanConnector", &faults);
        assert_eq!(spec.outages.len(), 1, "loss-prob specs carry no window");
        assert_eq!(spec.outages[0].component, "shirley-agg");
        // Best-effort hop behind the outage (TOP009) plus the default
        // topology's single-aggregator SPOF (TOP011).
        let codes: Vec<&str> = lint_topology(&spec).iter().map(|d| d.code.code).collect();
        assert_eq!(codes, vec!["TOP009", "TOP011"]);
    }

    #[test]
    fn crash_faults_become_crash_outage_windows() {
        let net = LdmsNetwork::build(&["nid0".into()], &NetworkOpts::default());
        net.l2()
            .subscribe("darshanConnector", ldms_sim::stream::BufferSink::new());
        let faults = FaultScript::new().crash("l1", Epoch::from_secs(100), Epoch::from_secs(130));
        let spec = TopologySpec::from_network(&net, "darshanConnector", &faults);
        assert_eq!(spec.outages.len(), 1);
        assert_eq!(spec.outages[0].kind, OutageKind::Crash);
        assert_eq!(spec.outages[0].component, "voltrino-head");
        // The sampler's best-effort hop rides out the crash: TOP009.
        let codes: Vec<&str> = lint_topology(&spec).iter().map(|d| d.code.code).collect();
        assert!(codes.contains(&"TOP009"), "{codes:?}");
    }

    #[test]
    fn dsosd_directive_parses_and_validates() {
        let spec = parse_conf("dsosd n=4 replicas=2 quorum=1\n").unwrap();
        let s = spec.store.unwrap();
        assert_eq!((s.dsosd, s.replicas, s.write_quorum), (4, 2, 1));
        // Majority quorum by default.
        let s = parse_conf("dsosd n=4 replicas=3\n").unwrap().store.unwrap();
        assert_eq!(s.write_quorum, 2);
        assert!(parse_conf("dsosd replicas=2\n").is_err(), "n is mandatory");
        assert!(parse_conf("dsosd n=2 replicas=3\n").is_err());
        assert!(parse_conf("dsosd n=4 replicas=2 quorum=3\n").is_err());
        assert!(parse_conf("dsosd n=0\n").is_err());
    }

    #[test]
    fn concurrent_dsosd_crashes_reaching_the_replica_count_fire_top014() {
        let base = format!("{PAPER}\ndsosd n=4 replicas=2 quorum=1\n");
        // One crash at a time: a live replica always remains.
        let spec = parse_conf(&format!(
            "{base}crash-dsosd dsosd-0 100 130\ncrash-dsosd dsosd-1 130 160\n"
        ))
        .unwrap();
        let codes: Vec<&str> = lint_topology(&spec).iter().map(|d| d.code.code).collect();
        assert!(
            !codes.contains(&"TOP014"),
            "staggered half-open windows never overlap: {codes:?}"
        );
        // Two overlapping crashes reach R=2: some shard can lose both
        // of its copies.
        let spec = parse_conf(&format!(
            "{base}crash-dsosd dsosd-0 100 130\ncrash-dsosd dsosd-1 120 160\n"
        ))
        .unwrap();
        let diags = lint_topology(&spec);
        let hit = diags.iter().find(|d| d.code.code == "TOP014").unwrap();
        assert!(hit.message.contains("2 dsosd daemon(s) concurrently"));
    }

    #[test]
    fn unreplicated_store_fires_top014_on_any_dsosd_crash() {
        let spec = parse_conf(&format!("{PAPER}\ncrash-dsosd dsosd-0 100 130\n")).unwrap();
        let codes: Vec<&str> = lint_topology(&spec).iter().map(|d| d.code.code).collect();
        assert!(codes.contains(&"TOP014"), "{codes:?}");
    }

    #[test]
    fn dsosd_fault_specs_become_paired_windows() {
        let net = LdmsNetwork::build(&["nid0".into()], &NetworkOpts::default());
        net.l2()
            .subscribe("darshanConnector", ldms_sim::stream::BufferSink::new());
        let faults = FaultScript::new()
            .crash_dsosd("dsosd-0", Epoch::from_secs(100))
            .restart_dsosd("dsosd-0", Epoch::from_secs(130))
            .crash_dsosd("dsosd-1", Epoch::from_secs(200));
        let spec = TopologySpec::from_network(&net, "darshanConnector", &faults);
        assert_eq!(spec.dsosd_outages.len(), 2);
        assert_eq!(spec.dsosd_outages[0].daemon, "dsosd-0");
        assert_eq!(spec.dsosd_outages[0].until, Epoch::from_secs(130));
        // The unpaired crash stays down forever.
        assert_eq!(spec.dsosd_outages[1].until, Epoch::from_nanos(u64::MAX));
        // dsosd faults never become LDMS-hop outages.
        assert!(spec.outages.is_empty());
    }

    #[test]
    fn role_labels_render() {
        assert_eq!(Role::Sampler.as_str(), "sampler");
        assert_eq!(Role::AggregatorL1.as_str(), "l1");
        assert_eq!(Role::AggregatorL2.as_str(), "l2");
    }
}
