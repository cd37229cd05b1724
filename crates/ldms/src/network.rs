//! The assembled two-level aggregation network of the paper.
//!
//! [`LdmsNetwork::build`] is the one way daemons come to exist. It
//! builds the whole tree — compute-node daemons → head-node L1
//! aggregator (plus an optional standby) → remote L2 aggregator —
//! complete from its [`NetworkOpts`], fault script included, before the
//! first publish: every daemon's routes, queue seed, lifecycle windows,
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

/// Host name of the head-node (L1) aggregator.
const L1: &str = "voltrino-head";
/// Host name of the standby L1 aggregator.
const STANDBY: &str = "voltrino-standby";
/// Host name of the remote-cluster (L2) aggregator.
const L2: &str = "shirley-agg";

/// Build options for an [`LdmsNetwork`]. The default reproduces the
/// paper's topology and semantics exactly.
#[derive(Debug, Clone, Default)]
pub struct NetworkOpts {
    /// Retry-queue configuration applied to every hop.
    pub queue: QueueConfig,
    /// Deploy a standby L1 aggregator (`"voltrino-standby"`) and give
    /// every sampler a ranked two-route upstream list.
    pub standby_l1: bool,
    /// Attach a write-ahead log with this configuration to every
    /// forwarding hop, making retry queues crash-durable.
    pub wal: Option<WalConfig>,
    /// Attach every daemon to this telemetry hub (metric registry,
    /// span log; each daemon keeps its own flight recorder). `None`
    /// (the default) keeps the pipeline byte-identical to the
    /// uninstrumented build.
    pub telemetry: Option<Arc<Telemetry>>,
    /// Attach an overload controller with this policy to every
    /// forwarding hop (samplers and aggregators with an upstream).
    /// `None` (the default) keeps every admission a pass-through.
    pub overload: Option<OverloadConfig>,
    /// The chaos schedule the network is built with. A spec names a
    /// compute node, an aggregator host, or one of the aliases `"l1"`,
    /// `"l2"` and `"standby"`; link faults land on the named daemon's
    /// primary upstream link. Specs naming no daemon of the network
    /// are skipped, so one script serves any topology.
    pub faults: FaultScript,
}

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

/// The assembled two-level aggregation network of the paper:
/// compute-node daemons → head-node L1 aggregator → remote L2
/// aggregator, optionally with a standby L1. All daemons share one
/// [`DeliveryLedger`].
pub struct LdmsNetwork {
    /// Entry daemon by producer name, looked up on every publish.
    pub(crate) nodes: HashMap<String, Arc<Ldmsd>, FnvBuildHasher>,
    /// Deterministic pump/settle order: sorted samplers, then L1, the
    /// standby (if any), and L2.
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
    /// Builds the network for the given compute-node names, complete:
    /// queue preset, optional standby L1 aggregator, per-hop
    /// write-ahead logs, telemetry, overload control and the fault
    /// script. Each hop's jitter RNG is decorrelated by deriving its
    /// seed from the configured seed and the hop.
    pub fn build(node_names: &[String], opts: &NetworkOpts) -> Self {
        let mut sorted: Vec<String> = node_names.to_vec();
        sorted.sort();
        // Pump order: sorted samplers, L1, the standby, L2.
        let l1_at = sorted.len();
        let standby_at = opts.standby_l1.then_some(l1_at + 1);
        let l2_at = l1_at + 1 + usize::from(opts.standby_l1);
        let positions: HashMap<&str, usize> = sorted
            .iter()
            .enumerate()
            .map(|(i, n)| (n.as_str(), i))
            .collect();
        let mut faults = opts.faults.by_daemon(l2_at + 1, |name| match name {
            "l1" | L1 => Some(l1_at),
            "l2" | L2 => Some(l2_at),
            "standby" => standby_at,
            STANDBY if standby_at.is_some() => standby_at,
            n => positions.get(n).copied(),
        });
        let ledger = Arc::new(DeliveryLedger::new());
        let wakes = Arc::new(WakeSchedule::new());
        let fabric = Fabric {
            ledger: &ledger,
            wakes: &wakes,
            opts,
        };
        let queue = &opts.queue;
        let hop_queue = |salt: u64| queue.clone().with_seed(queue.seed ^ mix64(salt));
        let mut daemon = |name: &str, role, at: usize, routes, queue| {
            let faults = std::mem::take(&mut faults[at]);
            Ldmsd::build(name, role, at, routes, queue, faults, &fabric)
        };
        let l2 = daemon(
            L2,
            DaemonRole::AggregatorL2,
            l2_at,
            Vec::new(),
            QueueConfig::default(),
        );
        let l1 = daemon(
            L1,
            DaemonRole::AggregatorL1,
            l1_at,
            vec![(TransportLink::site_network(), l2.clone())],
            hop_queue(u64::MAX),
        );
        let standby = standby_at.map(|at| {
            daemon(
                STANDBY,
                DaemonRole::AggregatorL1,
                at,
                vec![(TransportLink::site_network(), l2.clone())],
                hop_queue(u64::MAX - 1),
            )
        });
        let mut nodes = HashMap::with_capacity_and_hasher(sorted.len(), FnvBuildHasher::default());
        let mut ordered = Vec::with_capacity(l2_at + 1);
        for (i, n) in sorted.iter().enumerate() {
            let mut routes = vec![(TransportLink::ugni(), l1.clone())];
            if let Some(s) = &standby {
                routes.push((TransportLink::ugni(), s.clone()));
            }
            let d = daemon(n, DaemonRole::Sampler, i, routes, hop_queue(i as u64));
            nodes.insert(n.clone(), d.clone());
            ordered.push(d);
        }
        ordered.push(l1.clone());
        ordered.extend(standby);
        ordered.push(l2.clone());
        Self {
            nodes,
            ordered,
            wakes,
            daemon_pumps: AtomicU64::new(0),
            l1,
            l2,
            ledger,
            telemetry: opts.telemetry.clone(),
        }
    }

    /// The first-level (head node) aggregator.
    pub fn l1(&self) -> &Arc<Ldmsd> {
        &self.l1
    }

    /// The second-level (remote cluster) aggregator — where store
    /// plugins subscribe.
    pub fn l2(&self) -> &Arc<Ldmsd> {
        &self.l2
    }

    /// Every daemon in deterministic order: sorted samplers, then the
    /// L1, standby (if any), and L2 aggregators (topology
    /// introspection for `iolint`).
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
