//! The daemon graph of one pipeline, and the network built from it.
//!
//! A [`Topology`] is the one description of an aggregation pipeline:
//! its daemons and the [`FaultScript`] they run under.
//! [`Topology::paper`] gives the paper's shape, `iolint`'s conf parser
//! yields the same type, and `iolint` lints it. [`LdmsNetwork::build`]
//! wires whatever graph it is given, complete, before the first
//! publish: every daemon's routes, queue seed, lifecycle windows,
//! telemetry handles, overload controller and wake-schedule slot. All
//! daemons share one [`DeliveryLedger`] and one wake schedule. The
//! network then publishes, pumps and settles, and reports what its
//! crash-recovery machinery did.

use crate::daemon::{DaemonRole, Fabric, Ldmsd};
use crate::fault::{mix64, FaultScript};
use crate::ledger::{DeliveryLedger, LossCause};
use crate::overload::{OverloadConfig, OverloadStats};
use crate::queue::{QueueConfig, WakeSchedule};
use crate::stream::StreamMessage;
use crate::transport::TransportLink;
use crate::wal::WalConfig;
use iosim_telemetry::{CrashDump, HopKind, Telemetry};
use iosim_time::{Epoch, SimDuration};
use iosim_util::hash::FnvBuildHasher;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One daemon of a [`Topology`].
#[derive(Debug, Clone)]
pub struct DaemonSpec {
    /// Producer / host name.
    pub name: String,
    /// Topology role.
    pub role: DaemonRole,
    /// Daemons this one forwards to: the primary, then ranked standbys.
    pub routes: Vec<String>,
    /// Retry queue guarding the upstream hop (the builder decorrelates
    /// its jitter seed per hop).
    pub queue: QueueConfig,
    /// Write-ahead log making the hop's queue crash-durable.
    pub wal: Option<WalConfig>,
    /// Overload-control ladder guarding the hop.
    pub overload: Option<OverloadConfig>,
    /// Stream tags a store plugin subscribes to here.
    pub subscribers: Vec<String>,
}

impl DaemonSpec {
    /// A terminal daemon: no routes, no subscribers, a best-effort
    /// queue.
    pub fn new(name: &str, role: DaemonRole) -> Self {
        Self {
            name: name.to_string(),
            role,
            routes: Vec::new(),
            queue: QueueConfig::best_effort(),
            wal: None,
            overload: None,
            subscribers: Vec::new(),
        }
    }

    /// The primary route's target, if the daemon forwards.
    pub fn upstream(&self) -> Option<&str> {
        self.routes.first().map(String::as_str)
    }

    /// True when a store plugin subscribes to `tag` here.
    pub fn subscribes(&self, tag: &str) -> bool {
        self.subscribers.iter().any(|t| t == tag)
    }
}

/// The daemon graph of one pipeline, in pump order, and the faults it
/// runs under.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    /// Every daemon, in pump order.
    pub daemons: Vec<DaemonSpec>,
    /// Faults, each naming a daemon or an alias [`Topology::resolve`]
    /// knows; specs naming no daemon are skipped.
    pub faults: FaultScript,
}

impl Topology {
    /// The paper's shape: the compute nodes (sorted, each once) forward
    /// to `voltrino-head`, which forwards to `shirley-agg`; with
    /// `standby`, `voltrino-standby` is every node's second route.
    /// Best-effort hops, no subscriber, no fault.
    pub fn paper(nodes: &[String], standby: bool) -> Self {
        let mut names = nodes.to_vec();
        names.sort();
        names.dedup();
        let mut daemons: Vec<DaemonSpec> = names
            .iter()
            .map(|n| DaemonSpec::new(n, DaemonRole::Sampler))
            .collect();
        daemons.push(DaemonSpec::new(L1, DaemonRole::AggregatorL1));
        if standby {
            daemons.push(DaemonSpec::new(STANDBY, DaemonRole::AggregatorL1));
        }
        for d in &mut daemons {
            d.routes = match d.role {
                DaemonRole::Sampler if standby => vec![L1.into(), STANDBY.into()],
                DaemonRole::Sampler => vec![L1.into()],
                _ => vec![L2.into()],
            };
        }
        daemons.push(DaemonSpec::new(L2, DaemonRole::AggregatorL2));
        Self {
            daemons,
            faults: FaultScript::new(),
        }
    }

    /// Gives every forwarding hop `queue`, `wal` and `overload`.
    pub fn with_hops(
        mut self,
        queue: &QueueConfig,
        wal: Option<&WalConfig>,
        overload: Option<&OverloadConfig>,
    ) -> Self {
        for d in self.daemons.iter_mut().filter(|d| !d.routes.is_empty()) {
            d.queue = queue.clone();
            d.wal = wal.cloned();
            d.overload = overload.cloned();
        }
        self
    }

    /// The daemon a fault spec names: by name, or through the aliases
    /// `"l1"` / `"l2"` (the first aggregator of that role) and
    /// `"standby"` (the first daemon held as a standby route). The
    /// network builder and the linter both resolve through here.
    pub fn resolve(&self, name: &str) -> Option<usize> {
        let ds = &self.daemons;
        let role = |role| ds.iter().position(|d| d.role == role);
        ds.iter()
            .position(|d| d.name == name)
            .or_else(|| match name {
                "l1" => role(DaemonRole::AggregatorL1),
                "l2" => role(DaemonRole::AggregatorL2),
                "standby" => ds.iter().position(|t| {
                    ds.iter()
                        .any(|d| d.routes.iter().skip(1).any(|r| *r == t.name))
                }),
                _ => None,
            })
    }
}

/// Why [`LdmsNetwork::build`] refused a [`Topology`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopologyError(String);

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for TopologyError {}

/// Host names of the paper's head-node (L1) aggregator, its standby,
/// and the remote-cluster (L2) aggregator.
const L1: &str = "voltrino-head";
const STANDBY: &str = "voltrino-standby";
const L2: &str = "shirley-agg";

/// Aggregated crash-recovery counters for one network (and its
/// ledger): what the chaos CLI prints and the acceptance tests assert.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// Crash-stop events processed across all daemons.
    pub crashes: u64,
    /// WAL records appended across all hops.
    pub wal_appended: u64,
    /// WAL records replayed at restarts.
    pub wal_replayed: u64,
    /// Unsynced WAL records destroyed by crashes.
    pub wal_dropped_unsynced: u64,
    /// WAL appends rejected at capacity (entries left volatile-only).
    pub wal_rejected: u64,
    /// Messages attributed `lost-crash` (volatile queue state killed
    /// with no durable record).
    pub lost_crash: u64,
    /// Messages delivered via WAL replay after a crash.
    pub recovered: u64,
    /// Duplicate deliveries suppressed by the idempotent terminal.
    pub duplicates_suppressed: u64,
    /// Route failovers (standby elected after missed heartbeats).
    pub failovers: u64,
    /// Route failbacks (primary re-elected after the hysteresis hold).
    pub failbacks: u64,
    /// Longest observed failover delay in virtual seconds.
    pub max_failover_latency_s: f64,
    /// Flight-recorder dumps captured at crash-stop instants, in
    /// topology order (empty unless telemetry was on).
    pub crash_dumps: Vec<CrashDump>,
}

impl RecoveryReport {
    /// One-line summary for experiment logs and the chaos CLI.
    pub fn summary(&self) -> String {
        format!(
            "crashes={} wal-appended={} wal-replayed={} recovered={} \
             duplicates-suppressed={} lost-crash={} failovers={} failbacks={} \
             max-failover-latency={:.3}s",
            self.crashes,
            self.wal_appended,
            self.wal_replayed,
            self.recovered,
            self.duplicates_suppressed,
            self.lost_crash,
            self.failovers,
            self.failbacks,
            self.max_failover_latency_s,
        )
    }
}

/// An assembled aggregation network, built from a [`Topology`]. All
/// daemons share one [`DeliveryLedger`].
pub struct LdmsNetwork {
    /// Sampler by producer name, looked up on every publish.
    pub(crate) nodes: HashMap<String, Arc<Ldmsd>, FnvBuildHasher>,
    /// Pump/settle order: the graph's daemon order.
    pub(crate) ordered: Vec<Arc<Ldmsd>>,
    /// When each daemon next has something to do, by index into
    /// `ordered`; every daemon holds a handle and books itself.
    wakes: Arc<WakeSchedule>,
    /// Daemon pumps [`LdmsNetwork::pump`] has made.
    daemon_pumps: AtomicU64,
    l1: Arc<Ldmsd>,
    l2: Arc<Ldmsd>,
    ledger: Arc<DeliveryLedger>,
    pub(crate) telemetry: Option<Arc<Telemetry>>,
}

impl LdmsNetwork {
    /// Builds the network `graph` describes, complete: routes, queues,
    /// write-ahead logs, overload control, telemetry and the fault
    /// script. Daemons are pumped in graph order, and a daemon's
    /// position is its overload controller's hop ordinal. Each hop's
    /// jitter seed is decorrelated by the hop: a sampler's position, or
    /// `u64::MAX` less the aggregator's rank among the aggregators.
    /// Every route runs over its owner's role link. Refuses a duplicate
    /// name, a dangling route, a route cycle and a graph without an L2
    /// aggregator.
    pub fn build(
        graph: &Topology,
        telemetry: Option<&Arc<Telemetry>>,
    ) -> Result<Self, TopologyError> {
        let specs = &graph.daemons;
        let fail = |msg: String| Err(TopologyError(msg));
        let mut index = HashMap::with_capacity(specs.len());
        let mut targets: Vec<Vec<usize>> = Vec::with_capacity(specs.len());
        for (i, d) in specs.iter().enumerate() {
            if index.insert(d.name.as_str(), i).is_some() {
                return fail(format!("daemon `{}` is declared twice", d.name));
            }
        }
        for d in specs {
            let mut routes = Vec::with_capacity(d.routes.len());
            for r in &d.routes {
                let Some(&t) = index.get(r.as_str()) else {
                    return fail(format!("`{}` routes to `{r}`, which is no daemon", d.name));
                };
                routes.push(t);
            }
            targets.push(routes);
        }
        let Some(l2_at) = graph.resolve("l2") else {
            return fail("no daemon has the l2 role".into());
        };
        let mut faults = graph
            .faults
            .by_daemon(specs.len(), |name| graph.resolve(name));
        let ledger = Arc::new(DeliveryLedger::new());
        let wakes = Arc::new(WakeSchedule::new());
        let fabric = Fabric {
            ledger: &ledger,
            wakes: &wakes,
            telemetry,
        };
        let mut aggregators = 0;
        let salts: Vec<u64> = (0..specs.len())
            .map(|i| match specs[i].role {
                DaemonRole::Sampler => i as u64,
                _ => {
                    aggregators += 1;
                    u64::MAX - (aggregators - 1)
                }
            })
            .collect();
        // A daemon is built once its route targets are: sweeps in graph
        // order, terminals first. A sweep that builds nothing leaves
        // only daemons on or behind a route cycle.
        let mut built: Vec<Option<Arc<Ldmsd>>> = vec![None; specs.len()];
        while let Some(stuck) = built.iter().position(Option::is_none) {
            let mut progress = false;
            for (i, d) in specs.iter().enumerate() {
                if built[i].is_some() || targets[i].iter().any(|&t| built[t].is_none()) {
                    continue;
                }
                let routes = targets[i]
                    .iter()
                    .map(|&t| {
                        let target = built[t].clone().expect("route target built");
                        (TransportLink::out_of(d.role), target)
                    })
                    .collect();
                let queue = d.queue.clone().with_seed(d.queue.seed ^ mix64(salts[i]));
                let faults = std::mem::take(&mut faults[i]);
                built[i] = Some(Ldmsd::build(d, i, routes, queue, faults, &fabric));
                progress = true;
            }
            if !progress {
                let name = &specs[stuck].name;
                return fail(format!("the routes out of `{name}` never reach a terminal"));
            }
        }
        let ordered: Vec<Arc<Ldmsd>> = built.into_iter().flatten().collect();
        let mut nodes = HashMap::with_capacity_and_hasher(specs.len(), FnvBuildHasher::default());
        for (d, spec) in ordered.iter().zip(specs) {
            if spec.role == DaemonRole::Sampler {
                nodes.insert(spec.name.clone(), d.clone());
            }
        }
        let l1 = graph.resolve("l1").unwrap_or(l2_at);
        Ok(Self {
            nodes,
            l1: ordered[l1].clone(),
            l2: ordered[l2_at].clone(),
            ordered,
            wakes,
            daemon_pumps: AtomicU64::new(0),
            ledger,
            telemetry: telemetry.cloned(),
        })
    }

    /// The first-level (head node) aggregator, where a producer with
    /// no sampler of its own publishes (the L2 aggregator when the
    /// graph has no L1).
    pub fn l1(&self) -> &Arc<Ldmsd> {
        &self.l1
    }

    /// The second-level (remote cluster) aggregator — where store
    /// plugins subscribe.
    pub fn l2(&self) -> &Arc<Ldmsd> {
        &self.l2
    }

    /// Every daemon, in the graph's order.
    pub fn daemons(&self) -> &[Arc<Ldmsd>] {
        &self.ordered
    }

    /// The network-wide delivery ledger.
    pub fn ledger(&self) -> &Arc<DeliveryLedger> {
        &self.ledger
    }

    /// Per-hop retry-queue pressure, in topology order:
    /// `(daemon, currently parked, deepest ever)`. Entries count
    /// buffer slots — a batch frame occupies one.
    pub fn queue_depths(&self) -> Vec<(String, usize, u64)> {
        self.ordered
            .iter()
            .map(|d| (d.name().to_string(), d.queued(), d.queue_high_water()))
            .collect()
    }

    /// Publishes a message from a compute node into the pipeline. An
    /// unknown producer publishes directly at L1 (matching LDMS's
    /// tolerance for external stream sources). Daemons with work that
    /// has come due by the message's publish instant are pumped first,
    /// so buffered traffic re-flows in virtual-time order; with
    /// nothing due — every publish of a fault-free run — that is one
    /// load, whatever the fleet size.
    pub fn publish(&self, msg: StreamMessage) {
        self.note_publish(&msg);
        self.pump(msg.recv_time);
        self.inject(msg);
    }

    /// Accounts a message entering the pipeline and opens its trace.
    pub(crate) fn note_publish(&self, msg: &StreamMessage) {
        self.ledger.record_published_n(msg.weight());
        if let Some(tel) = &self.telemetry {
            if let Some(trace) = msg.trace {
                // The trace's opening span: zero-latency marker at the
                // producer, stamped with the publish instant.
                tel.span(
                    trace,
                    HopKind::Publish,
                    &msg.producer,
                    msg.publish_time,
                    SimDuration::ZERO,
                );
            }
        }
    }

    /// Hands a message to its producer's daemon.
    pub(crate) fn inject(&self, msg: StreamMessage) {
        match self.nodes.get(msg.producer.as_ref()) {
            Some(d) => d.receive(msg),
            None => self.l1.receive(msg),
        }
    }

    /// One pass at virtual instant `now`: pumps every daemon with a
    /// wake-schedule entry due, in topology order, each with that same
    /// `now`. A daemon that books itself during the pass (a drained
    /// retry parked again one hop up) is pumped in this pass when it
    /// comes later in the order than the daemon being pumped, and at
    /// the next pass otherwise — what a sweep over every daemon in
    /// order would do, without the visits that find nothing.
    pub(crate) fn pump(&self, now: Epoch) {
        if let Some(tel) = &self.telemetry {
            // Drive the diagnosis hub's metric-snapshot cadence from
            // the network's virtual-time progression (no-op without a
            // hub).
            tel.advance_diag(now);
        }
        if !self.wakes.any_due(now) {
            return;
        }
        let mut due = BTreeSet::new();
        // Entries that came due behind the pass's position; they go
        // back at the end, so a concurrent pass may not see them until
        // then, but no entry is ever dropped.
        let mut behind = Vec::new();
        let mut at: Option<usize> = None;
        loop {
            while let Some((t, daemon)) = self.wakes.pop_due(now) {
                if at.is_some_and(|at| daemon <= at) {
                    behind.push((t, daemon));
                } else {
                    due.insert(daemon);
                }
            }
            let Some(daemon) = due.pop_first() else {
                break;
            };
            at = Some(daemon);
            self.daemon_pumps.fetch_add(1, Ordering::Relaxed);
            self.ordered[daemon].pump(now);
        }
        self.wakes.add(behind);
    }

    /// Daemon pumps made so far: one per daemon per pass that found a
    /// wake-schedule entry of the daemon's due. Zero after a run in
    /// which no message was ever parked and no daemon fault scripted.
    #[cfg(test)]
    pub(crate) fn daemon_pumps(&self) -> u64 {
        self.daemon_pumps.load(Ordering::Relaxed)
    }

    /// The earliest instant up to `horizon` at which a daemon has a
    /// queued retry, a deadline, a crash or a restart replay to
    /// process. Schedule entries that no longer (or never did) stand
    /// for one — the queue entry was evicted, the entry marks a health
    /// edge — are not instants a settle stops at; they stay in the
    /// schedule, due at the pass this returns the instant of.
    fn next_event(&self, horizon: Epoch) -> Option<Epoch> {
        let mut passed = Vec::new();
        let found = loop {
            let Some((t, daemon)) = self.wakes.pop_due(horizon) else {
                break None;
            };
            passed.push((t, daemon));
            let next = self.ordered[daemon].next_event();
            debug_assert!(
                next.is_none_or(|e| e >= t),
                "{}: event at {next:?} was never scheduled",
                self.ordered[daemon].name()
            );
            if next == Some(t) {
                break Some(t);
            }
        };
        self.wakes.add(passed);
        found
    }

    /// Runs the network to quiescence: repeatedly advances virtual
    /// time to the next scheduled event (queued retry, deadline,
    /// crash, or restart replay) up to `horizon` — read off the wake
    /// schedule, not searched for — then abandons (and attributes)
    /// anything still parked. After this returns, the ledger balances:
    /// `published == delivered + total_lost`.
    pub fn settle(&self, horizon: Epoch) -> usize {
        loop {
            while let Some(t) = self.next_event(horizon) {
                self.pump(t);
            }
            // Close out any open summary sketches: their folded mass
            // re-enters the pipeline (and may park or fold again at a
            // later hop), so drain to quiescence again until no hop
            // holds an open sketch.
            let flushed: usize = self.ordered.iter().map(|d| d.flush_overload(horizon)).sum();
            if flushed == 0 {
                break;
            }
        }
        self.ordered.iter().map(|d| d.abandon_queue(horizon)).sum()
    }

    /// Per-hop overload-controller snapshots, in topology order
    /// (hops without a controller are skipped).
    pub fn overload_stats(&self) -> Vec<(String, OverloadStats)> {
        self.ordered
            .iter()
            .filter_map(|d| d.overload_stats().map(|s| (d.name().to_string(), s)))
            .collect()
    }

    /// Mirrors every hop's overload counters into the telemetry
    /// registry (no-op without telemetry or controllers).
    pub fn sync_overload_telemetry(&self) {
        for d in &self.ordered {
            d.sync_overload_telemetry();
        }
    }

    /// Aggregated crash-recovery counters across every daemon and the
    /// shared ledger.
    pub fn recovery_report(&self) -> RecoveryReport {
        let mut r = RecoveryReport {
            lost_crash: self.ledger.lost_with_cause(LossCause::Crash),
            recovered: self.ledger.recovered(),
            duplicates_suppressed: self.ledger.duplicates(),
            ..RecoveryReport::default()
        };
        let mut max_latency = SimDuration::ZERO;
        for d in &self.ordered {
            r.crashes += d.crashes_seen();
            r.failovers += d.failovers();
            r.failbacks += d.failbacks();
            r.crash_dumps.extend(d.crash_dumps());
            max_latency = max_latency.max(d.max_failover_latency());
            if let Some(w) = d.wal_stats() {
                r.wal_appended += w.appended;
                r.wal_replayed += w.replayed;
                r.wal_dropped_unsynced += w.dropped_unsynced;
                r.wal_rejected += w.rejected_full;
            }
        }
        r.max_failover_latency_s = max_latency.as_secs_f64();
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(links: &[(&str, DaemonRole, &[&str])]) -> Topology {
        let daemons = links
            .iter()
            .map(|&(name, role, routes)| {
                let mut d = DaemonSpec::new(name, role);
                d.routes = routes.iter().map(|r| (*r).to_string()).collect();
                d
            })
            .collect();
        Topology {
            daemons,
            faults: FaultScript::new(),
        }
    }

    #[test]
    fn aliases_resolve_by_role_and_standby_route() {
        let graph = Topology::paper(&["b".into(), "a".into(), "a".into()], true);
        let names: Vec<&str> = graph.daemons.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, ["a", "b", L1, STANDBY, L2]);
        assert_eq!(graph.resolve("l1"), Some(2));
        assert_eq!(graph.resolve("standby"), Some(3));
        assert_eq!(graph.resolve("l2"), Some(4));
        assert_eq!(graph.resolve("b"), Some(1));
        assert_eq!(graph.resolve("nid9"), None);
        assert_eq!(
            Topology::paper(&["a".into()], false).resolve("standby"),
            None
        );
    }

    #[test]
    fn malformed_graphs_are_refused_not_built() {
        use DaemonRole::{AggregatorL1 as L1R, AggregatorL2 as L2R, Sampler};
        let err = |g: Topology| LdmsNetwork::build(&g, None).err().map(|e| e.to_string());
        let refused = |g: Topology, what: &str| {
            let e = err(g).expect("refused");
            assert!(e.contains(what), "{e}");
        };
        refused(
            chain(&[("n", Sampler, &["agg"]), ("n", L2R, &[])]),
            "`n` is declared twice",
        );
        refused(
            chain(&[("n", Sampler, &["agg"]), ("top", L2R, &[])]),
            "`agg`, which is no daemon",
        );
        refused(
            chain(&[
                ("n", Sampler, &["a"]),
                ("a", L1R, &["b"]),
                ("b", L1R, &["a"]),
                ("top", L2R, &[]),
            ]),
            "out of `n` never reach",
        );
        refused(
            chain(&[("n", Sampler, &["a"]), ("a", L1R, &[])]),
            "no daemon has the l2 role",
        );
        // A sampler straight into L2 builds, and L2 stands in for L1.
        let net = LdmsNetwork::build(&chain(&[("n", Sampler, &["top"]), ("top", L2R, &[])]), None)
            .expect("a two-daemon chain builds");
        assert_eq!(net.l1().name(), "top");
    }
}
