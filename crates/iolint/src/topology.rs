//! The topology pass: static validation of an aggregation pipeline.
//!
//! Lints a [`TopologySpec`]: the daemon graph and fault script a
//! network is built from ([`ldms_sim::Topology`]), plus what only a
//! conf file declares (publish rates, batching, conf lines, the
//! workload envelope and the storage tier). [`crate::parse_conf`] yields it
//! from a declarative conf file and [`pipeline_spec`] from an assembled
//! `Pipeline`, which keeps the graph it was built from, so the same
//! lints run pre-flight inside the experiment driver and ahead of time
//! in CI, and the graph a conf file describes is the one
//! [`ldms_sim::LdmsNetwork::build`] wires. The conf format is
//! documented in `iolint::conf`.

use crate::diag::{self, Diagnostic, Severity};
use darshan_ldms_connector::{Pipeline, WorkloadSpec, COLUMNS, DEFAULT_STREAM_TAG};
use iosim_time::Epoch;
use ldms_sim::fault::FaultSpec;
use ldms_sim::queue::OverflowPolicy;
use ldms_sim::{DaemonRole, DaemonSpec, Topology};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// What a conf file declares about one daemon that the network does
/// not carry.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DaemonConf {
    /// Expected publish rate in messages per second (samplers).
    pub rate_hz: Option<f64>,
    /// Records coalesced per wire frame when the sampler batches
    /// (`None` / `Some(1)` = unbatched). Downstream hops park and
    /// journal whole frames, so capacity math divides `rate_hz` by
    /// this.
    pub batch: Option<u64>,
    /// Conf line the daemon was declared on (1-based), so diagnostics
    /// can point back into the file.
    pub line: Option<usize>,
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
/// count and replication policy (`dsosd` conf directive / a
/// pipeline's [`dsos_sim::DsosCluster`]).
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
/// time (a `CrashDsosd` fault and the first later `RestartDsosd` of
/// the same daemon).
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

/// A pipeline as the lints see it: the daemon graph and fault script
/// the network is built from, and the conf-only facts around it.
#[derive(Debug, Clone)]
pub struct TopologySpec {
    /// The daemon graph and its fault script.
    pub graph: Topology,
    /// The stream tag the pipeline carries.
    pub stream_tag: String,
    /// Conf-only facts per daemon, by position in `graph.daemons`
    /// (missing entries declare nothing).
    pub conf: Vec<DaemonConf>,
    /// Store schema column names, when known (enables `TOP008`).
    pub schema_columns: Option<Vec<String>>,
    /// Campaign envelope the flow solver evaluates the topology
    /// against (`workload` conf directive / harness-supplied).
    pub workload: Option<WorkloadSpec>,
    /// Storage tier behind the terminal daemon, when declared
    /// (enables `TOP014`).
    pub store: Option<StoreSpec>,
}

impl TopologySpec {
    /// An empty spec for the given tag.
    pub fn new(tag: &str) -> Self {
        Self {
            graph: Topology::default(),
            stream_tag: tag.to_string(),
            conf: Vec::new(),
            schema_columns: None,
            workload: None,
            store: None,
        }
    }

    /// The conf-only facts of daemon `i`.
    pub fn conf(&self, i: usize) -> DaemonConf {
        self.conf.get(i).copied().unwrap_or_default()
    }

    /// Declares `conf` for every sampler and nothing for the other
    /// daemons: a harness that knows the rate (and framing) it
    /// publishes at states it this way.
    pub fn set_sampler_conf(&mut self, conf: DaemonConf) {
        self.conf = self
            .graph
            .daemons
            .iter()
            .map(|d| match d.role {
                DaemonRole::Sampler => conf,
                _ => DaemonConf::default(),
            })
            .collect();
    }
}

/// The spec of an assembled pipeline: the graph it was built from,
/// its tag, its store's schema columns (so `TOP008` can check Table I
/// coverage) and its storage tier.
pub fn pipeline_spec(p: &Pipeline) -> TopologySpec {
    let repl = p.cluster().replication();
    TopologySpec {
        graph: p.topology().clone(),
        schema_columns: Some(
            p.store()
                .schema()
                .attrs()
                .iter()
                .map(|a| a.name.clone())
                .collect(),
        ),
        store: Some(StoreSpec {
            dsosd: p.cluster().daemon_count(),
            replicas: repl.replicas,
            write_quorum: repl.write_quorum,
            line: None,
        }),
        ..TopologySpec::new(DEFAULT_STREAM_TAG)
    }
}

/// A fault script read as downtime windows, every daemon named through
/// [`Topology::resolve`] (the resolver the network builder uses, so an
/// alias lands where the network applies it; specs naming no daemon
/// are skipped, as the builder skips them).
#[derive(Debug, Clone, Default)]
pub struct FaultWindows {
    /// Daemon, link and crash-stop windows, in script order.
    pub outages: Vec<OutageSpec>,
    /// Daemons whose upstream link drops traffic *silently*
    /// (probabilistic loss / drop-every faults). Unlike downtime
    /// windows these consume retry attempts with pure backoff, so the
    /// flow solver treats the whole offered load through such a hop
    /// as at-risk.
    pub lossy_links: Vec<String>,
    /// `dsosd` crash windows: every crash paired with the earliest
    /// unpaired restart of the same daemon after it.
    pub dsosd: Vec<DsosdOutage>,
}

impl FaultWindows {
    /// Reads `graph`'s fault script.
    pub fn of(graph: &Topology) -> Self {
        let faults = graph.faults.specs();
        let mut w = Self::default();
        let mut dsosd_crashes: Vec<(&str, Epoch)> = Vec::new();
        let mut dsosd_restarts: Vec<(&str, Epoch)> = Vec::new();
        for f in faults {
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
            w.dsosd.push(DsosdOutage {
                daemon: daemon.to_string(),
                from,
                until,
            });
        }

        let name_of = |daemon: &str| graph.resolve(daemon).map(|i| graph.daemons[i].name.clone());
        for f in faults {
            let (daemon, kind, from, until) = match f {
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
                    if let Some(component) = name_of(daemon) {
                        if !w.lossy_links.contains(&component) {
                            w.lossy_links.push(component);
                        }
                    }
                    continue;
                }
            };
            if let Some(component) = name_of(daemon) {
                w.outages.push(OutageSpec {
                    component,
                    kind,
                    from,
                    until,
                });
            }
        }
        w
    }
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
        match daemons[at].upstream() {
            None => return (path, WalkEnd::Terminal(at)),
            Some(up) => match by_name.get(up) {
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
    let daemons = &spec.graph.daemons;
    let windows = FaultWindows::of(&spec.graph);

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
        if let Some(up) = d.upstream() {
            if !by_name.contains_key(up) {
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
        if d.role == DaemonRole::Sampler && d.upstream().is_none() {
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
        .filter(|(_, d)| d.role == DaemonRole::Sampler)
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
        for n in &daemons[i].routes {
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
                .upstream()
                .expect("cycle walk ends on a forwarding daemon")];
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
        if d.upstream().is_none() || !d.queue.retries_enabled() {
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
    for o in &windows.outages {
        let secs = o.until.since(o.from).as_secs_f64();
        if secs <= 0.0 {
            continue;
        }
        match o.kind {
            // A daemon outage (or crash — same downtime, worse state
            // loss) is ridden out by every hop targeting it.
            OutageKind::Daemon | OutageKind::Crash => {
                for (i, d) in daemons.iter().enumerate() {
                    if d.upstream() == Some(o.component.as_str()) {
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
                    if daemons[i].upstream().is_some() {
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
    // contributing sampler batches). Only conf files declare rates.
    let through_rate = |i: usize| -> (f64, &'static str) {
        let mut rate = 0.0;
        let mut unit = "messages";
        for &s in &sampler_ids {
            if !paths.get(&s).is_some_and(|p| p.contains(&i)) {
                continue;
            }
            let conf = spec.conf(s);
            let Some(r) = conf.rate_hz else {
                continue;
            };
            match conf.batch {
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
        let Some(cap) = d.wal.as_ref().map(|w| w.capacity) else {
            continue;
        };
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
        let (Some(ov), true) = (&d.overload, d.upstream().is_some()) else {
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
            for n in &daemons[i].routes {
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
            if d.role == DaemonRole::Sampler || d.upstream().is_none() || d.subscribes(tag) {
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
    if !windows.dsosd.is_empty() {
        let replicas = spec.store.map_or(1, |s| s.replicas);
        // Sweep window endpoints; ends sort before starts at equal
        // instants (half-open windows touch without overlapping).
        let mut events: Vec<(Epoch, i32)> = Vec::new();
        for o in &windows.dsosd {
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
    use crate::conf::parse_conf;
    use darshan_ldms_connector::PipelineOpts;
    use ldms_sim::fault::FaultScript;
    use ldms_sim::queue::QueueConfig;

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
        assert_eq!(spec.graph.daemons.len(), 4);
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
        assert_eq!(spec.graph.daemons[0].routes[1..], ["voltrino-standby"]);
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
        let outages = FaultWindows::of(&spec.graph).outages;
        assert_eq!(outages.len(), 1);
        assert_eq!(outages[0].kind, OutageKind::Crash);
        assert_eq!(
            spec.graph.daemons[1].wal.as_ref().map(|w| w.capacity),
            Some(50)
        );
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

    /// The spec of a paper pipeline built with `opts`.
    fn pipeline(opts: &PipelineOpts) -> TopologySpec {
        let nodes = ["nid00040".to_string(), "nid00041".to_string()];
        pipeline_spec(&Pipeline::build_with(&nodes, opts))
    }

    fn codes(spec: &TopologySpec) -> Vec<&'static str> {
        lint_topology(spec).iter().map(|d| d.code.code).collect()
    }

    #[test]
    fn spec_from_live_network_carries_only_the_spof_warning() {
        let spec = pipeline(&PipelineOpts::default());
        assert_eq!(spec.graph.daemons.len(), 4);
        assert!(spec.graph.daemons[3].subscribes(DEFAULT_STREAM_TAG));
        assert_eq!(codes(&spec), ["TOP011"]);
        // Without the store nothing subscribes at the terminal.
        let spec = pipeline(&PipelineOpts {
            attach_store: false,
            ..PipelineOpts::default()
        });
        assert!(codes(&spec).contains(&"TOP004"));
    }

    #[test]
    fn spec_from_standby_network_is_clean() {
        let spec = pipeline(&PipelineOpts {
            queue: QueueConfig::reliable(),
            standby_l1: true,
            ..PipelineOpts::default()
        });
        assert_eq!(spec.graph.daemons.len(), 5);
        assert_eq!(spec.graph.daemons[0].routes[1..], ["voltrino-standby"]);
        assert!(codes(&spec).is_empty());
    }

    #[test]
    fn network_faults_become_outage_windows() {
        let spec = pipeline(&PipelineOpts {
            faults: FaultScript::new()
                .daemon_outage("l2", Epoch::from_secs(10), Epoch::from_secs(20))
                .link_loss_prob("nid00040", 0.5, 1)
                .crash("nid00099", Epoch::from_secs(1), Epoch::from_secs(2)),
            ..PipelineOpts::default()
        });
        let w = FaultWindows::of(&spec.graph);
        assert_eq!(
            w.outages.len(),
            1,
            "no window for loss or an unknown daemon"
        );
        assert_eq!(w.outages[0].component, "shirley-agg");
        assert_eq!(w.lossy_links, ["nid00040"]);
        // Best-effort hop behind the outage (TOP009) plus the default
        // topology's single-aggregator SPOF (TOP011).
        assert_eq!(codes(&spec), ["TOP009", "TOP011"]);
    }

    #[test]
    fn crash_faults_become_crash_outage_windows() {
        let spec = pipeline(&PipelineOpts {
            faults: FaultScript::new().crash("l1", Epoch::from_secs(100), Epoch::from_secs(130)),
            ..PipelineOpts::default()
        });
        let outages = FaultWindows::of(&spec.graph).outages;
        assert_eq!(outages.len(), 1);
        assert_eq!(outages[0].kind, OutageKind::Crash);
        assert_eq!(outages[0].component, "voltrino-head");
        // The sampler's best-effort hop rides out the crash: TOP009.
        assert!(codes(&spec).contains(&"TOP009"), "{:?}", codes(&spec));
    }

    #[test]
    fn a_crash_of_the_standby_alias_lands_on_the_standby() {
        let crash =
            || FaultScript::new().crash("standby", Epoch::from_secs(100), Epoch::from_secs(130));
        let mut spec = pipeline(&PipelineOpts {
            queue: QueueConfig::reliable(),
            standby_l1: true,
            faults: crash(),
            ..PipelineOpts::default()
        });
        let outages = FaultWindows::of(&spec.graph).outages;
        assert_eq!(outages.len(), 1);
        assert_eq!(
            (outages[0].component.as_str(), outages[0].kind),
            ("voltrino-standby", OutageKind::Crash)
        );
        // The solver sees the window: its envelope stretches to cover
        // it, and a crash of the standby hop puts its parked mass at
        // risk, which no fault-free run of the same graph does.
        spec.set_sampler_conf(DaemonConf {
            rate_hz: Some(10.0),
            ..DaemonConf::default()
        });
        let flow = crate::flow::analyze_flow(&spec, None);
        assert!(flow.workload.end_s() >= 190.0, "{:?}", flow.workload);
        let standby_loss = |f: &crate::flow::FlowReport| {
            f.hops
                .iter()
                .find(|h| h.daemon == "voltrino-standby")
                .unwrap()
                .loss_ceiling
        };
        assert!(standby_loss(&flow) > 0.0, "{}", flow.render_table());
        spec.graph.faults = FaultScript::new();
        let calm = crate::flow::analyze_flow(&spec, Some(&flow.workload));
        assert!(standby_loss(&calm) < standby_loss(&flow));
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
        let graph = Topology {
            faults: FaultScript::new()
                .crash_dsosd("dsosd-0", Epoch::from_secs(100))
                .restart_dsosd("dsosd-0", Epoch::from_secs(130))
                .crash_dsosd("dsosd-1", Epoch::from_secs(200)),
            ..Topology::paper(&["nid0".into()], false)
        };
        let w = FaultWindows::of(&graph);
        assert_eq!(w.dsosd.len(), 2);
        assert_eq!(w.dsosd[0].daemon, "dsosd-0");
        assert_eq!(w.dsosd[0].until, Epoch::from_secs(130));
        // The unpaired crash stays down forever.
        assert_eq!(w.dsosd[1].until, Epoch::from_nanos(u64::MAX));
        // dsosd faults never become LDMS-hop outages.
        assert!(w.outages.is_empty());
    }

    #[test]
    fn overload_directive_parses_and_defaults_the_sample_watermark() {
        let spec = parse_conf(
            "daemon a l1\n  upstream b\n  queue capacity=4096 attempts=8\n\
             \x20 overload rate=15 keep-every=8 window-ms=100\ndaemon b l2\n",
        )
        .unwrap();
        let ov = spec.graph.daemons[0]
            .overload
            .clone()
            .expect("overload parsed");
        assert!((ov.service_rate - 15.0).abs() < 1e-12);
        // for_rate semantics: sampling engages at twice the rate.
        assert!((ov.sample_watermark - 30.0).abs() < 1e-12);
        let spec =
            parse_conf("daemon a l1\n  upstream b\n  overload rate=15 sample=900\ndaemon b l2\n")
                .unwrap();
        let ov = spec.graph.daemons[0].overload.as_ref().unwrap();
        assert!((ov.sample_watermark - 900.0).abs() < 1e-12);
        // rate is mandatory and must be positive.
        assert!(parse_conf("daemon a l1\n  overload sample=10\n").is_err());
        assert!(parse_conf("daemon a l1\n  overload rate=0\n").is_err());
        assert!(parse_conf("daemon a l1\n  overload rate=5 bogus=1\n").is_err());
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
        let q = &spec.graph.daemons[0].queue;
        assert_eq!(q.capacity, 7);
        assert_eq!(q.max_attempts, 3);
        assert!(
            matches!(q.policy, OverflowPolicy::BlockWithDeadline(d) if (d.as_secs_f64() - 0.5).abs() < 1e-12)
        );
        assert!((q.base_backoff.as_secs_f64() - 0.002).abs() < 1e-12);
    }

    #[test]
    fn outage_aliases_resolve_to_role() {
        let spec = parse_conf(
            "daemon n sampler\n  upstream h\ndaemon h l1\n  upstream s\ndaemon s l2\n\
             outage l2 100 160\nflap l1 10 20\n",
        )
        .unwrap();
        let outages = FaultWindows::of(&spec.graph).outages;
        assert_eq!(outages.len(), 2);
        assert_eq!(outages[0].component, "s");
        assert_eq!(outages[1].component, "h");
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
}
