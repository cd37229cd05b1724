//! LDMS daemons (`ldmsd`) and the aggregation topology.
//!
//! Mirrors the paper's Section V.C deployment: sampler daemons on the
//! compute nodes, one first-level aggregator on the head node (UGNI
//! transport), and a second-level aggregator on the remote analysis
//! cluster (Shirley) where the store plugins subscribe.
//!
//! Beyond the paper's always-up, fire-and-forget pipeline, each daemon
//! carries a [`Lifecycle`] (crash/restart windows in virtual time) and
//! each upstream connection a bounded [`RetryQueue`]: a send that fails
//! detectably (link flapped down, target daemon crashed) or silently
//! (transport loss) may be parked and retried with exponential backoff,
//! depending on the hop's [`QueueConfig`]. Every message entering the
//! network through [`LdmsNetwork::publish`] is accounted for exactly
//! once in the shared [`DeliveryLedger`] — delivered at the terminal
//! daemon, or lost with a `(hop, cause)` attribution. The default
//! [`QueueConfig::best_effort`] keeps the paper's semantics untouched.
//!
//! The crash-recovery layer adds three opt-in mechanisms on top:
//!
//! * **Durable WALs** ([`crate::wal`]) — a hop configured with a
//!   [`WalConfig`] journals every parked message; a crash-stop fault
//!   ([`crate::FaultSpec::Crash`]) destroys the volatile queue but the
//!   daemon replays durable records at restart.
//! * **Ranked upstream routes with heartbeat election** — a daemon may
//!   hold several upstream routes; after [`crate::heartbeat`]'s missed
//!   beats the active route is declared dead and the best live standby
//!   is elected, with a hold-time hysteresis before failing back.
//! * **Idempotent terminal delivery** — sequenced messages are keyed
//!   `(producer, job, rank, seq)`; a WAL replay re-delivering an
//!   already-delivered key is suppressed and counted, never double
//!   counted.
//!
//! Forwarding walks the upstream chain iteratively (not recursively),
//! with cycle detection: a misconfigured topology drops the looping
//! message and counts it instead of overflowing the stack.

use crate::fault::{FaultScript, FaultSpec, Lifecycle};
use crate::heartbeat::{DETECT_AFTER, FAILBACK_HOLD};
use crate::ledger::{DeliveryLedger, LossCause};
use crate::overload::{OverloadConfig, OverloadController, OverloadState, OverloadStats};
use crate::queue::{QueueConfig, QueueEntry, RetryQueue, WakeSchedule};
use crate::stream::{StreamHub, StreamMessage, StreamSink, StreamStats};
use crate::transport::TransportLink;
use crate::wal::{WalConfig, WalStats, WriteAheadLog};
use iosim_telemetry::{
    Counter, CrashDump, DiagHub, FaultKind, FlightEvent, FlightRecorder, Gauge, HealthState,
    Histogram, HopKind, HubEventKind, Telemetry,
};
use iosim_time::{Epoch, SimDuration};
use iosim_util::hash::FnvBuildHasher;
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// A wake-schedule instant that every pass is past.
const NEXT_PASS: Epoch = Epoch::from_nanos(0);

/// Role of a daemon in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DaemonRole {
    /// Compute-node daemon running sampler plugins.
    Sampler,
    /// First-level aggregator (head node).
    AggregatorL1,
    /// Second-level aggregator (remote cluster).
    AggregatorL2,
}

/// One candidate upstream route: a link and its target daemon.
struct Route {
    link: TransportLink,
    target: Arc<Ldmsd>,
    /// Loss-attribution label for the link (`"<owner>/<link>"`).
    link_hop: String,
}

impl Route {
    /// True when both the link and the target are up at `t`.
    fn is_up(&self, t: Epoch) -> bool {
        !self.link.is_down(t) && self.target.lifecycle.is_up(t)
    }

    /// Earliest instant `>= t` at which the route is usable again.
    fn next_up(&self, t: Epoch) -> Epoch {
        self.link.next_up(t).max(self.target.lifecycle.next_up(t))
    }

    /// Start of the contiguous window in which the route has been
    /// unusable at `t` (`None` when up).
    fn down_since(&self, t: Epoch) -> Option<Epoch> {
        let link = self.link.down_since(t);
        let target = self.target.lifecycle.down_since(t);
        match (link, target) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Instant since which the route has been continuously usable at
    /// `t` (`None` when down).
    fn up_since(&self, t: Epoch) -> Option<Epoch> {
        Some(
            self.link
                .up_since(t)?
                .max(self.target.lifecycle.up_since(t)?),
        )
    }
}

/// A daemon's upstream connection: the ranked route set, the shared
/// bounded store-and-forward queue guarding the hop, and the optional
/// write-ahead log that makes the queue crash-durable.
struct UpstreamSet {
    /// Routes in preference order; index 0 is the primary.
    routes: Vec<Route>,
    queue: RetryQueue,
    /// Loss-attribution label for the queue (`"<owner>/queue"`).
    queue_hop: String,
    wal: Option<WriteAheadLog>,
    /// Index of the currently elected route.
    active: AtomicUsize,
    failovers: AtomicU64,
    failbacks: AtomicU64,
    max_failover_latency_ns: AtomicU64,
}

impl UpstreamSet {
    fn active_idx(&self) -> usize {
        self.active
            .load(Ordering::Relaxed)
            .min(self.routes.len().saturating_sub(1))
    }

    /// Heartbeat-driven route election at `now`. The single-route
    /// (paper) topology short-circuits to the primary, so the default
    /// path pays one atomic load.
    fn elect(&self, now: Epoch) -> usize {
        let cur = self.active_idx();
        if self.routes.len() <= 1 {
            return cur;
        }
        let route = &self.routes[cur];
        if route.is_up(now) {
            // Failback: prefer the best-ranked route, but only after
            // it has been up continuously for the hold time, so a
            // flapping primary does not bounce traffic (hysteresis).
            for (i, r) in self.routes.iter().enumerate().take(cur) {
                if let Some(since) = r.up_since(now) {
                    if since + FAILBACK_HOLD <= now {
                        self.active.store(i, Ordering::Relaxed);
                        self.failbacks.fetch_add(1, Ordering::Relaxed);
                        return i;
                    }
                }
            }
            return cur;
        }
        // The active route is down: declare it dead only after the
        // threshold of missed heartbeats.
        let down_since = route.down_since(now).unwrap_or(now);
        if now < down_since + DETECT_AFTER {
            return cur;
        }
        // Elect the best-ranked live alternative.
        for (i, r) in self.routes.iter().enumerate() {
            if i != cur && r.is_up(now) {
                self.active.store(i, Ordering::Relaxed);
                self.failovers.fetch_add(1, Ordering::Relaxed);
                self.max_failover_latency_ns
                    .fetch_max(now.since(down_since).as_nanos(), Ordering::Relaxed);
                return i;
            }
        }
        cur
    }

    /// Earliest instant at which a parked entry could flow again:
    /// the failed component's recovery, or — with standbys — the
    /// heartbeat detection instant that would elect another route.
    fn recovery_instant(&self, route: &Route, component_up: Epoch, now: Epoch) -> Epoch {
        if self.routes.len() <= 1 {
            return component_up;
        }
        let down_since = route.down_since(now).unwrap_or(now);
        let detect_at = down_since + DETECT_AFTER;
        if detect_at > now {
            component_up.min(detect_at)
        } else {
            // Detection already fired yet election kept this route:
            // every alternative is down too. Wait for the earliest
            // recovery anywhere in the route set.
            self.routes
                .iter()
                .map(|r| r.next_up(now))
                .min()
                .unwrap_or(component_up)
        }
    }
}

/// One scripted crash-stop window and its processing state.
struct CrashWindow {
    at: Epoch,
    restart: Epoch,
    crashed: bool,
    replayed: bool,
}

/// Per-daemon telemetry handles, resolved once at attach time so the
/// hot path pays one atomic bump per metric instead of a registry
/// lookup. Absent entirely (the default) telemetry costs one atomic
/// load per hook site.
struct DaemonTelemetry {
    hub: Arc<Telemetry>,
    /// The live diagnosis hub, resolved once at attach time (absent
    /// when telemetry runs without a hub).
    diag: Option<Arc<DiagHub>>,
    /// Last published health state (dense [`HealthState`] encoding),
    /// so transitions publish exactly once.
    last_health: AtomicU8,
    /// Cached span site label — the daemon name, shared by every span
    /// this daemon records.
    site: Arc<str>,
    flight: Arc<FlightRecorder>,
    forwarded: Arc<Counter>,
    ingested: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    parked_frames: Arc<Counter>,
    retries: Arc<Counter>,
    retry_backoff_ms: Arc<Histogram>,
    wal_replayed: Arc<Counter>,
    heartbeat_misses: Arc<Counter>,
    overload_depth: Arc<Gauge>,
    overload_throttled: Arc<Gauge>,
    overload_spilled: Arc<Gauge>,
    overload_folded: Arc<Gauge>,
    overload_summaries: Arc<Gauge>,
}

/// One LDMS daemon.
pub struct Ldmsd {
    name: String,
    role: DaemonRole,
    hub: StreamHub,
    lifecycle: Lifecycle,
    ledger: Arc<DeliveryLedger>,
    upstream: RwLock<Option<UpstreamSet>>,
    crashes: Mutex<Vec<CrashWindow>>,
    has_crashes: AtomicBool,
    crash_count: AtomicU64,
    /// Set at most once, by [`Ldmsd::attach_telemetry`].
    tel: OnceLock<DaemonTelemetry>,
    crash_dumps: Mutex<Vec<CrashDump>>,
    /// Set at most once, by [`Ldmsd::attach_overload`].
    overload: OnceLock<OverloadController>,
    /// The owning network's wake schedule and this daemon's position
    /// in its pump order; unset for a daemon wired up by hand, which
    /// is pumped by hand too.
    wakes: OnceLock<(Arc<WakeSchedule>, usize)>,
}

/// The daemons one chain walk has passed, for cycle detection. The
/// paper's chains are three daemons long, so the first few sit inline
/// and a walk allocates nothing.
struct Visited {
    inline: [*const Ldmsd; 4],
    len: usize,
    beyond: Vec<*const Ldmsd>,
}

impl Visited {
    fn new() -> Self {
        Self {
            inline: [std::ptr::null(); 4],
            len: 0,
            beyond: Vec::new(),
        }
    }

    /// Notes a daemon; `false` when the walk has been here before.
    fn enter(&mut self, daemon: *const Ldmsd) -> bool {
        if self.inline[..self.len].contains(&daemon) || self.beyond.contains(&daemon) {
            return false;
        }
        if self.len < self.inline.len() {
            self.inline[self.len] = daemon;
            self.len += 1;
        } else {
            self.beyond.push(daemon);
        }
        true
    }
}

impl Ldmsd {
    /// Creates a daemon with no upstream and a private ledger.
    pub fn new(name: &str, role: DaemonRole) -> Arc<Self> {
        Self::with_ledger(name, role, Arc::new(DeliveryLedger::new()))
    }

    /// Creates a daemon sharing a network-wide delivery ledger.
    pub(crate) fn with_ledger(
        name: &str,
        role: DaemonRole,
        ledger: Arc<DeliveryLedger>,
    ) -> Arc<Self> {
        Arc::new(Self {
            name: name.to_string(),
            role,
            hub: StreamHub::new(),
            lifecycle: Lifecycle::new(),
            ledger,
            upstream: RwLock::new(None),
            crashes: Mutex::new(Vec::new()),
            has_crashes: AtomicBool::new(false),
            crash_count: AtomicU64::new(0),
            tel: OnceLock::new(),
            crash_dumps: Mutex::new(Vec::new()),
            overload: OnceLock::new(),
            wakes: OnceLock::new(),
        })
    }

    /// Asks the owning network to pump this daemon at the first pass
    /// at or after `at`.
    fn wake(&self, at: Epoch) {
        if let Some((wakes, index)) = self.wakes.get() {
            wakes.add([(at, *index)]);
        }
    }

    /// Books a visit at the next pass, whatever its instant, when
    /// only a visit would find a health report due: a drain has just
    /// moved the daemon's health without reporting it (the report
    /// carries the instant of the pass that makes it, so it cannot be
    /// made here), or a scripted downtime window lets the clock alone
    /// move it — and publishes need not come in clock order. Such a
    /// daemon is visited every pass while a hub listens, as the sweep
    /// visited every daemon; with no hub there is nothing to report.
    fn keep_health_watch(&self, now: Epoch) {
        if let Some((tel, _)) = self.diag() {
            if !self.lifecycle.always_up()
                || self.health_at(now).to_u8() != tel.last_health.load(Ordering::Relaxed)
            {
                self.wake(NEXT_PASS);
            }
        }
    }

    /// Attaches an overload controller to this daemon's forwarding
    /// hop. `hop_ord` must be unique across the network (it
    /// disambiguates summary-sketch sequence numbers between hops).
    /// Without a controller (the default) every admission is a
    /// pass-through — byte-identical to the uncontrolled pipeline.
    /// Called once, before traffic flows.
    pub(crate) fn attach_overload(&self, config: OverloadConfig, hop_ord: u64) {
        assert!(
            self.overload
                .set(OverloadController::new(config, hop_ord).with_ledger(self.ledger.clone()))
                .is_ok(),
            "{}: overload controller attached twice",
            self.name
        );
    }

    /// The attached overload controller, when one is configured.
    fn overload_ctl(&self) -> Option<&OverloadController> {
        self.overload.get()
    }

    /// Counter snapshot of the hop's overload controller, if attached.
    pub(crate) fn overload_stats(&self) -> Option<OverloadStats> {
        self.overload_ctl().map(|c| c.stats())
    }

    /// The overload policy guarding this hop, if one is attached.
    /// Static analysis introspects the live ladder (service rate,
    /// watermarks, window) instead of guessing from conf defaults.
    pub fn overload_config(&self) -> Option<OverloadConfig> {
        self.overload_ctl().map(|c| c.config().clone())
    }

    /// Mirrors the overload controller's counters into the telemetry
    /// registry's gauges (no-op unless both are attached). Called at
    /// report/exposition points, not per admission.
    pub(crate) fn sync_overload_telemetry(&self) {
        let (Some(tel), Some(st)) = (self.tel(), self.overload_stats()) else {
            return;
        };
        tel.overload_depth.set(st.depth as u64);
        tel.overload_throttled.set(st.throttled);
        tel.overload_spilled.set(st.spilled);
        tel.overload_folded.set(st.folded_events);
        tel.overload_summaries.set(st.summaries);
    }

    /// Attaches this daemon to a telemetry hub: registers its metric
    /// families (so exposition shows them even at zero) and resolves
    /// every handle once. Called once, before traffic flows; the
    /// untraced default path never takes the attached branch.
    pub(crate) fn attach_telemetry(&self, hub: &Arc<Telemetry>) {
        let reg = hub.registry();
        let tel = DaemonTelemetry {
            hub: hub.clone(),
            diag: hub.diag().cloned(),
            last_health: AtomicU8::new(HealthState::Healthy.to_u8()),
            site: Arc::from(self.name.as_str()),
            flight: hub.flight(&self.name),
            forwarded: reg.counter("forwarded", &self.name),
            ingested: reg.counter("ingested", &self.name),
            queue_depth: reg.gauge("queue_depth", &self.name),
            parked_frames: reg.counter("parked_frames", &self.name),
            retries: reg.counter("retries", &self.name),
            retry_backoff_ms: reg.histogram("retry_backoff_ms", &self.name),
            wal_replayed: reg.counter("wal_replayed", &self.name),
            heartbeat_misses: reg.counter("heartbeat_misses", &self.name),
            overload_depth: reg.gauge("overload_depth", &self.name),
            overload_throttled: reg.gauge("overload_throttled", &self.name),
            overload_spilled: reg.gauge("overload_spilled", &self.name),
            overload_folded: reg.gauge("overload_folded", &self.name),
            overload_summaries: reg.gauge("overload_summaries", &self.name),
        };
        assert!(
            self.tel.set(tel).is_ok(),
            "{}: telemetry attached twice",
            self.name
        );
    }

    /// The attached telemetry handles, when telemetry is enabled.
    fn tel(&self) -> Option<&DaemonTelemetry> {
        self.tel.get()
    }

    /// The live diagnosis hub, when telemetry with a hub is attached.
    fn diag(&self) -> Option<(&DaemonTelemetry, &DiagHub)> {
        let tel = self.tel()?;
        Some((tel, tel.diag.as_deref()?))
    }

    /// Derives the daemon's current health from its liveness window,
    /// overload-ladder rung, and retry-queue depth. The reason string
    /// is only built by [`Ldmsd::note_health`] on an actual
    /// transition.
    fn health_at(&self, now: Epoch) -> HealthState {
        if !self.lifecycle.is_up(now) {
            return HealthState::Down;
        }
        if let Some(ctl) = self.overload_ctl() {
            if ctl.state() != OverloadState::Normal {
                return HealthState::Overloaded;
            }
        }
        if self.queued() > 0 {
            return HealthState::Degraded;
        }
        HealthState::Healthy
    }

    /// Publishes a health transition to the diagnosis hub when the
    /// derived state changed since the last check. Called from the
    /// daemon's virtual-time touch points (hop processing, parking,
    /// pump); a no-op without an attached hub.
    fn note_health(&self, now: Epoch) {
        let Some((tel, diag)) = self.diag() else {
            return;
        };
        let state = self.health_at(now);
        let prev = HealthState::from_u8(tel.last_health.swap(state.to_u8(), Ordering::Relaxed));
        if prev == state {
            return;
        }
        let reason = match state {
            HealthState::Down => "liveness window closed (outage or crash)".to_string(),
            HealthState::Overloaded => {
                let rung = self
                    .overload_ctl()
                    .map(|c| c.state().as_str())
                    .unwrap_or("unknown");
                format!("overload ladder at {rung}")
            }
            HealthState::Degraded => format!("{} frames parked for retry", self.queued()),
            HealthState::Healthy => "recovered".to_string(),
        };
        diag.publish(
            &self.name,
            now,
            HubEventKind::Health {
                from: prev,
                to: state,
                reason,
            },
        );
    }

    /// Publishes a lifecycle fault event to the diagnosis hub; a no-op
    /// without an attached hub.
    fn note_fault(&self, at: Epoch, kind: FaultKind, detail: String) {
        if let Some((_, diag)) = self.diag() {
            diag.publish(&self.name, at, HubEventKind::Fault { kind, detail });
        }
    }

    /// Crash dumps recorded at this daemon's crash-stop instants
    /// (empty unless telemetry was attached and a crash fired).
    pub(crate) fn crash_dumps(&self) -> Vec<CrashDump> {
        self.crash_dumps.lock().clone()
    }

    /// The daemon's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The daemon's role.
    pub fn role(&self) -> DaemonRole {
        self.role
    }

    /// Connects this daemon's push target with best-effort semantics
    /// (the paper's behavior: no retry, no queueing).
    pub fn connect_upstream(&self, link: TransportLink, target: Arc<Ldmsd>) {
        self.connect_upstream_with(link, target, QueueConfig::default());
    }

    /// Connects this daemon's push target with an explicit retry-queue
    /// configuration for the hop.
    pub(crate) fn connect_upstream_with(
        &self,
        link: TransportLink,
        target: Arc<Ldmsd>,
        config: QueueConfig,
    ) {
        self.connect_upstream_routes(vec![(link, target)], config, None);
    }

    /// Connects a ranked set of upstream routes (index 0 = primary)
    /// sharing one retry queue, with heartbeat failover between them
    /// and an optional write-ahead log making the queue crash-durable.
    pub(crate) fn connect_upstream_routes(
        &self,
        routes: Vec<(TransportLink, Arc<Ldmsd>)>,
        config: QueueConfig,
        wal: Option<WalConfig>,
    ) {
        let routes: Vec<Route> = routes
            .into_iter()
            .map(|(link, target)| {
                let link_hop = format!("{}/{}", self.name, link.name);
                Route {
                    link,
                    target,
                    link_hop,
                }
            })
            .collect();
        if routes.is_empty() {
            *self.upstream.write() = None;
            return;
        }
        *self.upstream.write() = Some(UpstreamSet {
            routes,
            queue: RetryQueue::new(config),
            queue_hop: format!("{}/queue", self.name),
            wal: wal.map(WriteAheadLog::new),
            active: AtomicUsize::new(0),
            failovers: AtomicU64::new(0),
            failbacks: AtomicU64::new(0),
            max_failover_latency_ns: AtomicU64::new(0),
        });
    }

    /// Schedules an outage window `[from, until)` for this daemon.
    /// While down it neither delivers locally nor forwards; senders
    /// with retry queues park messages until the restart. Unlike
    /// [`Ldmsd::schedule_crash`], the retry queue survives.
    pub(crate) fn schedule_outage(&self, from: Epoch, until: Epoch) {
        self.lifecycle.schedule_down(from, until);
        // Nothing happens to the daemon at the window's edges, but its
        // health report changes there.
        self.wake(NEXT_PASS);
    }

    /// Schedules a crash-stop at `at` with restart at `restart`: the
    /// daemon goes down like an outage, but *all volatile state is
    /// destroyed* at the crash instant — parked queue entries die
    /// (`lost-crash`) unless a durable WAL record covers them, in
    /// which case the restart replays them. Inverted windows are
    /// ignored.
    pub(crate) fn schedule_crash(&self, at: Epoch, restart: Epoch) {
        if restart <= at {
            return;
        }
        self.lifecycle.schedule_down(at, restart);
        self.crashes.lock().push(CrashWindow {
            at,
            restart,
            crashed: false,
            replayed: false,
        });
        self.has_crashes.store(true, Ordering::Relaxed);
        self.wake(at);
        self.wake(restart);
        self.wake(NEXT_PASS);
    }

    /// Schedules a flap window on the primary upstream link. Returns
    /// false if this daemon has no upstream.
    pub(crate) fn schedule_link_flap(&self, from: Epoch, until: Epoch) -> bool {
        match self.upstream.read().as_ref() {
            Some(up) => {
                up.routes[0].link.schedule_flap(from, until);
                true
            }
            None => false,
        }
    }

    /// Enables seeded probabilistic loss on the primary upstream link.
    /// Returns false if this daemon has no upstream.
    pub(crate) fn set_link_loss_prob(&self, prob: f64, seed: u64) -> bool {
        match self.upstream.read().as_ref() {
            Some(up) => {
                up.routes[0].link.set_loss_prob(prob, seed);
                true
            }
            None => false,
        }
    }

    /// Enables deterministic every-`n`-th loss on the primary upstream
    /// link. Returns false if this daemon has no upstream.
    pub(crate) fn set_link_drop_every(&self, every: u64) -> bool {
        match self.upstream.read().as_ref() {
            Some(up) => {
                up.routes[0].link.set_drop_every(every);
                true
            }
            None => false,
        }
    }

    /// Subscribes a sink to a stream tag at this daemon.
    pub fn subscribe(&self, tag: &str, sink: Arc<dyn StreamSink>) {
        self.hub.subscribe(tag, sink);
    }

    /// Number of sinks subscribed to `tag` at this daemon (topology
    /// introspection, used by the `iolint` diagnostics passes).
    pub fn subscriber_count(&self, tag: &str) -> usize {
        self.hub.subscriber_count(tag)
    }

    /// Every upstream target in rank order (primary first, then
    /// standbys).
    pub fn upstream_targets(&self) -> Vec<Arc<Ldmsd>> {
        self.upstream.read().as_ref().map_or(Vec::new(), |u| {
            u.routes.iter().map(|r| r.target.clone()).collect()
        })
    }

    /// The currently *elected* upstream target (primary unless a
    /// failover switched routes), if any.
    #[cfg(test)]
    pub(crate) fn active_upstream(&self) -> Option<Arc<Ldmsd>> {
        self.upstream
            .read()
            .as_ref()
            .map(|u| u.routes[u.active_idx()].target.clone())
    }

    /// Name of the primary upstream transport link, if any.
    pub fn upstream_link_name(&self) -> Option<String> {
        self.upstream
            .read()
            .as_ref()
            .map(|u| u.routes[0].link.name.clone())
    }

    /// The retry-queue configuration guarding the upstream hop, if any.
    pub fn queue_config(&self) -> Option<QueueConfig> {
        self.upstream
            .read()
            .as_ref()
            .map(|u| u.queue.config().clone())
    }

    /// The capacity of the hop's write-ahead log, if one is attached.
    pub fn wal_capacity(&self) -> Option<usize> {
        self.upstream
            .read()
            .as_ref()
            .and_then(|u| u.wal.as_ref().map(|w| w.config().capacity))
    }

    /// Counter snapshot of the hop's write-ahead log, if one is
    /// attached.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.upstream
            .read()
            .as_ref()
            .and_then(|u| u.wal.as_ref().map(WriteAheadLog::stats))
    }

    /// Route failovers performed (standby elected after missed
    /// heartbeats).
    pub(crate) fn failovers(&self) -> u64 {
        self.upstream
            .read()
            .as_ref()
            .map_or(0, |u| u.failovers.load(Ordering::Relaxed))
    }

    /// Route failbacks performed (primary re-elected after the
    /// hysteresis hold).
    pub(crate) fn failbacks(&self) -> u64 {
        self.upstream
            .read()
            .as_ref()
            .map_or(0, |u| u.failbacks.load(Ordering::Relaxed))
    }

    /// Longest observed failover delay (route-down to election) in
    /// virtual time.
    pub(crate) fn max_failover_latency(&self) -> SimDuration {
        SimDuration::from_nanos(
            self.upstream
                .read()
                .as_ref()
                .map_or(0, |u| u.max_failover_latency_ns.load(Ordering::Relaxed)),
        )
    }

    /// Crash-stop events this daemon has processed.
    pub(crate) fn crashes_seen(&self) -> u64 {
        self.crash_count.load(Ordering::Relaxed)
    }

    /// Local stream statistics.
    pub fn stream_stats(&self) -> &StreamStats {
        self.hub.stats()
    }

    /// Messages currently parked in this daemon's retry queue.
    pub fn queued(&self) -> usize {
        self.upstream.read().as_ref().map_or(0, |u| u.queue.len())
    }

    /// Deepest this daemon's retry queue has ever been (entries; a
    /// batch frame counts as one entry).
    pub(crate) fn queue_high_water(&self) -> u64 {
        self.upstream
            .read()
            .as_ref()
            .map_or(0, |u| u.queue.high_water())
    }

    /// Earliest virtual instant at which *anything* scheduled happens
    /// at this daemon: a queue retry/deadline, an unprocessed crash,
    /// or a restart with WAL records awaiting replay.
    pub(crate) fn next_event(&self) -> Option<Epoch> {
        let queue = self
            .upstream
            .read()
            .as_ref()
            .and_then(|u| u.queue.next_event());
        let crash = if self.has_crashes.load(Ordering::Relaxed) {
            self.crashes
                .lock()
                .iter()
                .flat_map(|cw| {
                    let crash = (!cw.crashed).then_some(cw.at);
                    let restart = (!cw.replayed).then_some(cw.restart);
                    crash.into_iter().chain(restart)
                })
                .min()
        } else {
            None
        };
        match (queue, crash) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Receives a message: delivers to local subscribers, then walks
    /// the upstream chain iteratively. Failed hops are parked for
    /// retry or attributed to the ledger, per each hop's queue
    /// configuration.
    pub fn receive(&self, msg: StreamMessage) {
        // Overload admissions can split one arrival into several
        // onward messages (a thinned frame plus flushed summary
        // sketches). The primary continuation walks inline; the extras
        // queue here and each starts a fresh walk — with a fresh
        // visited list, so a summary flushed mid-walk is not mistaken
        // for a forwarding cycle.
        let mut pending: VecDeque<(Arc<Ldmsd>, StreamMessage)> = VecDeque::new();
        self.walk(msg, &mut pending);
        while let Some((daemon, carried)) = pending.pop_front() {
            daemon.walk(carried, &mut pending);
        }
    }

    /// One full chain walk from this daemon, collecting side-channel
    /// continuations into `pending`.
    fn walk(&self, msg: StreamMessage, pending: &mut VecDeque<(Arc<Ldmsd>, StreamMessage)>) {
        let mut visited = Visited::new();
        let mut hop = self.process_hop(msg, &mut visited, pending);
        while let Some((daemon, carried)) = hop {
            hop = daemon.process_hop(carried, &mut visited, pending);
        }
    }

    /// One hop of the chain walk: local dispatch plus the attempt to
    /// forward. Returns the next daemon and the carried message when
    /// the hop succeeded; `None` when the walk ends here (terminal
    /// daemon, parked for retry, attributed loss, or suppressed
    /// duplicate). Messages the overload controller splits off
    /// (summary flushes) are pushed to `pending` for fresh walks.
    fn process_hop(
        &self,
        msg: StreamMessage,
        visited: &mut Visited,
        pending: &mut VecDeque<(Arc<Ldmsd>, StreamMessage)>,
    ) -> Option<(Arc<Ldmsd>, StreamMessage)> {
        if !visited.enter(self) {
            self.record_loss(&self.name, LossCause::CycleDropped, &msg);
            return None;
        }
        let now = msg.recv_time;
        self.note_health(now);
        if !self.lifecycle.is_up(now) {
            // The message arrived at a crashed daemon (it was in
            // flight when the crash hit, or was injected directly).
            self.record_loss(&self.name, LossCause::DaemonDown, &msg);
            return None;
        }
        let guard = self.upstream.read();
        let Some(up) = guard.as_ref() else {
            // Terminal daemon: this is where end-to-end delivery is
            // decided. Batch frames travel the pipeline whole and are
            // only opened here, at the end of their path.
            drop(guard);
            if msg.is_frame() {
                self.deliver_frame(&msg);
            } else {
                self.deliver_terminal(&msg);
            }
            return None;
        };
        // Intermediate dispatches are taps, not deliveries.
        self.hub.dispatch(&msg);
        let Some(ctl) = self.overload_ctl() else {
            return self.try_send(up, msg, 0, None, None, now);
        };
        let rung_before = ctl.state();
        let outcome = ctl.admit(msg, now);
        let rung_after = ctl.state();
        if rung_before != rung_after {
            if let Some((_, diag)) = self.diag() {
                diag.publish(
                    &self.name,
                    now,
                    HubEventKind::Overload {
                        from: rung_before.as_str(),
                        to: rung_after.as_str(),
                    },
                );
            }
            self.note_health(now);
        }
        for s in outcome.summaries {
            let at = s.recv_time.max(now);
            if let Some(c) = self.try_send(up, s, 0, None, None, at) {
                pending.push_back(c);
            }
        }
        if let Some((spilled, release)) = outcome.spill {
            self.park(
                up,
                QueueEntry {
                    msg: spilled,
                    attempts: 0,
                    next_attempt: release,
                    expire: None,
                    cause: LossCause::Backpressure,
                    lsn: None,
                },
                now,
            );
        }
        match outcome.forward {
            Some(m) => {
                // A paced message leaves at its service slot,
                // not its arrival instant.
                let at = m.recv_time.max(now);
                self.try_send(up, m, 0, None, None, at)
            }
            None => None,
        }
    }

    /// Flushes the hop's open summary sketches (if an overload
    /// controller is attached) and forwards them upstream. Returns how
    /// many sketches were flushed. Called when settling a campaign so
    /// folded mass re-enters the pipeline before final accounting.
    pub(crate) fn flush_overload(&self, now: Epoch) -> usize {
        let Some(ctl) = self.overload_ctl() else {
            return 0;
        };
        let summaries = ctl.flush_all(now);
        if summaries.is_empty() {
            return 0;
        }
        let n = summaries.len();
        let continuations: Vec<(Arc<Ldmsd>, StreamMessage)> = {
            let guard = self.upstream.read();
            match guard.as_ref() {
                Some(up) => summaries
                    .into_iter()
                    .filter_map(|s| self.try_send(up, s, 0, None, None, now))
                    .collect(),
                // A terminal daemon never folds (admission happens on
                // the forward path), but account defensively.
                None => {
                    for s in summaries {
                        self.record_loss(&self.name, LossCause::NoSubscriber, &s);
                    }
                    Vec::new()
                }
            }
        };
        for (target, carried) in continuations {
            target.receive(carried);
        }
        n
    }

    /// Terminal delivery of a batch frame: decode it and deliver every
    /// member through the unbatched routine — each member claims its
    /// own `(producer, job, rank, seq)` idempotency key before the
    /// store sees it, so dedup, gap detection, and ingest observe
    /// exactly the logical messages the sampler coalesced.
    fn deliver_frame(&self, frame: &StreamMessage) {
        let members = match crate::batch::decode_frame(&frame.data) {
            Ok(records) => crate::batch::unbatch(frame, records),
            Err(_) => {
                // An undecodable frame cannot be split; deliver it
                // whole so its full weight stays accounted (the store
                // will reject the payload).
                if self.hub.dispatch(frame) > 0 {
                    self.ledger.record_delivered_n(frame.weight());
                } else {
                    self.record_loss(&self.name, LossCause::NoSubscriber, frame);
                }
                return;
            }
        };
        for member in &members {
            self.deliver_terminal(member);
        }
    }

    /// Terminal delivery of one logical (non-frame) message: claim its
    /// idempotency key, dispatch to the store sinks, account it in the
    /// ledger, and close its trace.
    fn deliver_terminal(&self, msg: &StreamMessage) {
        // Claim the key *before* the sinks see the message so a
        // duplicate (a WAL replay of an already-delivered message)
        // never reaches them: it was counted when first delivered,
        // nothing moves. The hub asks only when the tag has a sink, so
        // unstored runs keep no key set.
        let claim = || {
            msg.delivery_key()
                .is_none_or(|key| self.ledger.try_claim_delivery(key))
        };
        match self.hub.dispatch_if(msg, claim) {
            None => return,
            Some(0) => {
                self.record_loss(&self.name, LossCause::NoSubscriber, msg);
                return;
            }
            Some(_) => {}
        }
        if msg.is_summary() {
            // A delivered sketch accounts its folded mass in the
            // ledger's summarized column — not delivered, not lost.
            self.ledger.record_summarized_n(msg.weight());
        } else {
            self.ledger.record_delivered();
            if msg.replayed {
                self.ledger.record_recovered();
            }
        }
        self.note_ingest(msg);
    }

    /// Telemetry for one terminal delivery: bumps the ingest counter
    /// and, for a traced message, closes the trace with an `ingest`
    /// span whose latency is the full publish-to-store sojourn.
    fn note_ingest(&self, msg: &StreamMessage) {
        let Some(tel) = self.tel() else { return };
        tel.ingested.add(msg.weight());
        if let Some(trace) = msg.trace {
            tel.hub.span(
                trace,
                HopKind::Ingest,
                &tel.site,
                msg.recv_time,
                msg.recv_time.since(msg.publish_time),
            );
        }
    }

    /// Attempts one send over the elected upstream route.
    /// `prior_attempts` is how many attempts the message has already
    /// consumed (0 for a fresh message); `expire` carries a
    /// block-with-deadline sojourn deadline across re-parks; `lsn` is
    /// the WAL record already backing the message, if any.
    fn try_send(
        &self,
        up: &UpstreamSet,
        mut msg: StreamMessage,
        prior_attempts: u32,
        expire: Option<Epoch>,
        lsn: Option<u64>,
        now: Epoch,
    ) -> Option<(Arc<Ldmsd>, StreamMessage)> {
        let attempts = prior_attempts + 1;
        let cfg = up.queue.config();
        let retryable = cfg.retries_enabled() && attempts < cfg.max_attempts;
        let route = match self.diag() {
            None => &up.routes[up.elect(now)],
            Some((_, diag)) => {
                // Route elections mutate the failover/failback counters;
                // a change across this election is a fault event worth
                // publishing live.
                let fo = up.failovers.load(Ordering::Relaxed);
                let fb = up.failbacks.load(Ordering::Relaxed);
                let idx = up.elect(now);
                if up.failovers.load(Ordering::Relaxed) > fo {
                    diag.publish(
                        &self.name,
                        now,
                        HubEventKind::Fault {
                            kind: FaultKind::Failover,
                            detail: format!(
                                "elected standby route {}",
                                up.routes[idx].target.name()
                            ),
                        },
                    );
                }
                if up.failbacks.load(Ordering::Relaxed) > fb {
                    diag.publish(
                        &self.name,
                        now,
                        HubEventKind::Fault {
                            kind: FaultKind::Failback,
                            detail: format!(
                                "failed back to route {}",
                                up.routes[idx].target.name()
                            ),
                        },
                    );
                }
                &up.routes[idx]
            }
        };

        // Detectable failures: the sender can see a flapped link or a
        // crashed peer (the connection refuses), so the message is not
        // offered to the link at all.
        let detected = if route.link.is_down(now) {
            Some((LossCause::LinkLoss, route.link.next_up(now)))
        } else if !route.target.lifecycle.is_up(now) {
            Some((LossCause::DaemonDown, route.target.lifecycle.next_up(now)))
        } else {
            None
        };
        if let Some((cause, component_up)) = detected {
            if let Some(tel) = self.tel() {
                // A send finding the active route unresponsive is what
                // heartbeat monitoring observes as a miss.
                tel.heartbeat_misses.inc();
                tel.flight.note(
                    now,
                    format!(
                        "send blocked: {} route={} retryable={retryable}",
                        cause.as_str(),
                        route.target.name()
                    ),
                );
            }
            if retryable {
                // Retry no earlier than the component's scheduled
                // recovery — or the heartbeat-detection instant that
                // would elect a standby route, whichever comes first.
                let recover_at = up.recovery_instant(route, component_up, now);
                let next_attempt = up.queue.backoff_after(attempts, now).max(recover_at);
                self.park(
                    up,
                    QueueEntry {
                        msg,
                        attempts,
                        next_attempt,
                        expire,
                        cause,
                        lsn,
                    },
                    now,
                );
            } else {
                self.complete_wal_durable(up, lsn);
                let hop = match cause {
                    LossCause::DaemonDown => route.target.name(),
                    _ => &route.link_hop,
                };
                self.record_loss(hop, cause, &msg);
            }
            return None;
        }

        // Silent loss: the link accepts the message and may drop it in
        // transit; a dropped message is still here for the retry or
        // the attribution.
        if route.link.carry(&mut msg) {
            // The hop succeeded: mark the WAL record completed (a
            // volatile mark — only a checkpoint makes it durable,
            // which is exactly what makes duplicate replay possible
            // and the idempotent path necessary).
            if let (Some(l), Some(w)) = (lsn, up.wal.as_ref()) {
                w.complete(l);
            }
            if let Some(tel) = self.tel() {
                tel.forwarded.add(msg.weight());
                if let Some(trace) = msg.trace {
                    tel.hub.span(
                        trace,
                        HopKind::Forward,
                        &tel.site,
                        msg.recv_time,
                        msg.recv_time.since(now),
                    );
                }
            }
            return Some((route.target.clone(), msg));
        }
        if retryable {
            let next_attempt = up.queue.backoff_after(attempts, now);
            self.park(
                up,
                QueueEntry {
                    msg,
                    attempts,
                    next_attempt,
                    expire,
                    cause: LossCause::LinkLoss,
                    lsn,
                },
                now,
            );
        } else {
            self.complete_wal_durable(up, lsn);
            self.record_loss(&route.link_hop, LossCause::LinkLoss, &msg);
        }
        None
    }

    /// Parks an entry in the hop's queue, journaling it in the WAL
    /// first (when configured) and attributing any messages the
    /// overflow policy evicted to admit it.
    fn park(&self, up: &UpstreamSet, mut entry: QueueEntry, now: Epoch) {
        if entry.lsn.is_none() {
            if let Some(w) = &up.wal {
                entry.lsn = w.append(&entry.msg, entry.attempts);
            }
        }
        if let Some(tel) = self.tel() {
            let backoff = entry.next_attempt.since(now);
            tel.parked_frames.inc();
            tel.retry_backoff_ms.record(backoff.as_nanos() / 1_000_000);
            tel.flight.note(
                now,
                format!(
                    "park: cause={} attempts={} wal={} retry_in={:.3}s",
                    entry.cause.as_str(),
                    entry.attempts,
                    entry.lsn.is_some(),
                    backoff.as_secs_f64()
                ),
            );
            if let Some(trace) = entry.msg.trace {
                tel.hub.span(trace, HopKind::Park, &tel.site, now, backoff);
            }
        }
        self.enqueue(up, entry, now);
        if let Some(tel) = self.tel() {
            tel.queue_depth.set(up.queue.len() as u64);
        }
        self.note_health(now);
    }

    /// Puts an entry in the hop's queue, attributes what the overflow
    /// policy evicted to admit it, and books the pump that will find
    /// it due.
    fn enqueue(&self, up: &UpstreamSet, mut entry: QueueEntry, now: Epoch) {
        up.queue.stamp_deadline(&mut entry, now);
        let due = entry.first_event();
        for evicted in up.queue.push(entry, now) {
            self.attribute(up, evicted);
        }
        self.wake(due);
    }

    /// Records an abandoned queue entry as lost, attributed to the hop
    /// responsible for its final failure cause. The entry's WAL record
    /// (if any) is completed durably at the same instant, so an
    /// attributed-lost message can never be replayed and recounted.
    fn attribute(&self, up: &UpstreamSet, entry: QueueEntry) {
        self.complete_wal_durable(up, entry.lsn);
        if let Some(tel) = self.tel() {
            tel.flight.note(
                entry.msg.recv_time,
                format!(
                    "abandon: cause={} attempts={} weight={}",
                    entry.cause.as_str(),
                    entry.attempts,
                    entry.msg.weight()
                ),
            );
        }
        let route = &up.routes[up.active_idx()];
        let hop = match entry.cause {
            LossCause::LinkLoss => &route.link_hop,
            LossCause::DaemonDown => route.target.name(),
            LossCause::Crash => &self.name,
            _ => &up.queue_hop,
        };
        self.record_loss(hop, entry.cause, &entry.msg);
    }

    /// Attributes `msg` lost at `(hop, cause)`, claiming its delivery
    /// keys: whatever of it already has an outcome (the message is a
    /// WAL-replayed copy of one that was delivered, folded or lost
    /// after it left the crashed hop) is a duplicate, not a second
    /// loss, so only the rest is booked.
    fn record_loss(&self, hop: &str, cause: LossCause, msg: &StreamMessage) {
        let weight = msg.weight().saturating_sub(self.settled_weight(msg));
        if weight > 0 {
            self.ledger.record_loss_n(hop, cause, weight);
        }
    }

    /// Claims `msg`'s keys — its own for a plain message or a sketch,
    /// its members' for a frame (each weighs one) — and returns the
    /// weight that was already settled.
    fn settled_weight(&self, msg: &StreamMessage) -> u64 {
        if !msg.is_frame() {
            return self.ledger.claim_outcomes(msg.delivery_key().into_iter()) * msg.weight();
        }
        let Ok(records) = crate::batch::decode_frame(&msg.data) else {
            return 0;
        };
        let (job, rank) = msg.origin.unwrap_or((0, 0));
        self.ledger.claim_outcomes(
            records
                .iter()
                .filter_map(|r| Some((&msg.producer, job, rank, r.seq?))),
        )
    }

    fn complete_wal_durable(&self, up: &UpstreamSet, lsn: Option<u64>) {
        if let (Some(l), Some(w)) = (lsn, up.wal.as_ref()) {
            w.complete_durable(l);
        }
    }

    /// Brings this daemon up to virtual instant `now`: processes any
    /// scheduled crash/restart events, reports its health, then drains
    /// its retry queue.
    pub(crate) fn pump(&self, now: Epoch) {
        if self.has_crashes.load(Ordering::Relaxed) {
            self.process_crashes(now);
        }
        self.note_health(now);
        self.drain_queue(now);
        self.keep_health_watch(now);
    }

    /// Expires over-deadline entries and re-attempts every entry whose
    /// retry time has come. Successful re-sends continue walking the
    /// chain from the target.
    fn drain_queue(&self, now: Epoch) {
        let continuations = {
            let guard = self.upstream.read();
            let Some(up) = guard.as_ref() else { return };
            if up.queue.is_empty() {
                return;
            }
            for expired in up.queue.take_expired(now) {
                self.attribute(up, expired);
            }
            let tel = self.tel();
            let mut conts = Vec::new();
            while let Some(mut entry) = up.queue.pop_due(now) {
                if let Some(tel) = tel {
                    tel.retries.inc();
                    if let Some(trace) = entry.msg.trace {
                        // Latency of the retry hop: how long the entry
                        // sat parked before this drain re-sent it.
                        tel.hub.span(
                            trace,
                            HopKind::Retry,
                            &tel.site,
                            now,
                            now.since(entry.msg.recv_time),
                        );
                    }
                }
                // A buffered message cannot arrive before the retry
                // that re-sent it: bump its clock to the drain time.
                entry.msg.recv_time = entry.msg.recv_time.max(now);
                if let Some(c) =
                    self.try_send(up, entry.msg, entry.attempts, entry.expire, entry.lsn, now)
                {
                    conts.push(c);
                }
            }
            if let Some(tel) = tel {
                tel.queue_depth.set(up.queue.len() as u64);
            }
            conts
        };
        for (target, carried) in continuations {
            target.receive(carried);
        }
    }

    /// Processes scheduled crash windows that have come due: at the
    /// crash instant all volatile state dies; at the restart instant
    /// durable WAL records are replayed into the queue.
    fn process_crashes(&self, now: Epoch) {
        let mut crashes = self.crashes.lock();
        for cw in crashes.iter_mut() {
            if !cw.crashed && cw.at <= now {
                cw.crashed = true;
                self.crash_count.fetch_add(1, Ordering::Relaxed);
                self.crash_drop_volatile(cw.at);
                self.note_fault(
                    cw.at,
                    FaultKind::Crash,
                    format!(
                        "crash-stop at {:.3}s (restart {:.3}s)",
                        cw.at.as_secs_f64(),
                        cw.restart.as_secs_f64()
                    ),
                );
                self.note_health(cw.at);
            }
            if cw.crashed && !cw.replayed && cw.restart <= now {
                cw.replayed = true;
                self.replay_wal(cw.restart);
                self.note_fault(
                    cw.restart,
                    FaultKind::Restart,
                    format!("restarted; {} entries parked for retry", self.queued()),
                );
                self.note_health(cw.restart);
            }
        }
        if crashes.iter().all(|cw| cw.replayed) {
            self.has_crashes.store(false, Ordering::Relaxed);
        }
    }

    /// Crash-stop: destroys the volatile retry queue. Entries without
    /// a surviving (durable) WAL record are attributed `lost-crash`;
    /// covered entries live on in the log until the restart replays
    /// them.
    fn crash_drop_volatile(&self, at: Epoch) {
        let guard = self.upstream.read();
        let tel = self.tel();
        let Some(up) = guard.as_ref() else {
            // A terminal daemon has no queue to lose, but its flight
            // recorder still explains what it saw before dying.
            if let Some(tel) = tel {
                self.snapshot_crash_dump(tel, at, 0, 0);
            }
            return;
        };
        let entries = up.queue.drain_all();
        let surviving = up.wal.as_ref().map(|w| w.crash());
        let dropped = entries.len() as u64;
        let mut wal_covered = 0u64;
        for e in entries {
            let covered = matches!(
                (&surviving, e.lsn),
                (Some(set), Some(lsn)) if set.contains(&lsn)
            );
            if covered {
                wal_covered += 1;
            } else {
                self.record_loss(&self.name, LossCause::Crash, &e.msg);
            }
        }
        if let Some(tel) = tel {
            tel.queue_depth.set(0);
            self.snapshot_crash_dump(tel, at, dropped, wal_covered);
        }
    }

    /// Freezes the flight recorder into a [`CrashDump`] at the crash
    /// instant, after noting the crash itself so the dump's last line
    /// is the death.
    fn snapshot_crash_dump(&self, tel: &DaemonTelemetry, at: Epoch, dropped: u64, covered: u64) {
        tel.flight.note(
            at,
            format!("crash-stop: {dropped} volatile queue entries ({covered} WAL-covered)"),
        );
        self.crash_dumps.lock().push(CrashDump {
            daemon: self.name.clone(),
            at_s: at.as_secs_f64(),
            dropped_volatile: dropped,
            wal_covered: covered,
            events: tel
                .flight
                .snapshot()
                .iter()
                .map(FlightEvent::render)
                .collect(),
        });
    }

    /// Restart recovery: re-parks every durable, uncompleted WAL
    /// record. Replayed messages are flagged so the terminal can count
    /// genuine recoveries, and keep their LSN so a later loss (or a
    /// second crash) stays exactly accounted.
    fn replay_wal(&self, restart: Epoch) {
        let guard = self.upstream.read();
        let Some(up) = guard.as_ref() else { return };
        let Some(w) = &up.wal else { return };
        let tel = self.tel();
        for rec in w.replay() {
            let mut msg = rec.msg;
            if let Some(tel) = tel {
                tel.wal_replayed.inc();
                tel.flight.note(
                    restart,
                    format!("wal-replay: lsn={} attempts={}", rec.lsn, rec.attempts),
                );
                if let Some(trace) = msg.trace {
                    // The replayed message keeps its original trace
                    // id and gains a replay span covering the gap
                    // between its last sighting and the restart.
                    tel.hub.span(
                        trace,
                        HopKind::Replay,
                        &tel.site,
                        restart,
                        restart.since(msg.recv_time),
                    );
                }
            }
            msg.replayed = true;
            msg.recv_time = msg.recv_time.max(restart);
            let attempts = rec.attempts;
            let next_attempt = up.queue.backoff_after(attempts.max(1), restart);
            let entry = QueueEntry {
                msg,
                attempts,
                next_attempt,
                expire: None,
                cause: LossCause::Crash,
                lsn: Some(rec.lsn),
            };
            self.enqueue(up, entry, restart);
        }
        if let Some(tel) = tel {
            tel.queue_depth.set(up.queue.len() as u64);
        }
    }

    /// Abandons everything still parked, attributing each entry to the
    /// hop of its last failure. Returns how many were abandoned. Used
    /// when settling a campaign past its horizon.
    pub(crate) fn abandon_queue(&self, now: Epoch) -> usize {
        let n = {
            let guard = self.upstream.read();
            let Some(up) = guard.as_ref() else { return 0 };
            let entries = up.queue.drain_all();
            let n = entries.len();
            for e in entries {
                self.attribute(up, e);
            }
            n
        };
        self.keep_health_watch(now);
        n
    }
}

impl std::fmt::Debug for Ldmsd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ldmsd")
            .field("name", &self.name)
            .field("role", &self.role)
            .finish()
    }
}

/// Build options for an [`LdmsNetwork`] beyond the queue preset. The
/// default reproduces the paper's topology and semantics exactly.
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
    /// span log, flight recorders). `None` (the default) keeps the
    /// pipeline byte-identical to the uninstrumented build.
    pub telemetry: Option<Arc<Telemetry>>,
    /// Attach an overload controller with this policy to every
    /// forwarding hop (samplers and aggregators with an upstream).
    /// `None` (the default) keeps every admission a pass-through.
    pub overload: Option<OverloadConfig>,
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
    /// topology order (empty unless telemetry was attached).
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
    nodes: HashMap<String, Arc<Ldmsd>, FnvBuildHasher>,
    /// Deterministic pump/settle order: sorted samplers, then L1, the
    /// standby (if any), and L2.
    ordered: Vec<Arc<Ldmsd>>,
    /// When each daemon next has something to do, by index into
    /// `ordered`; every daemon holds a handle and books itself.
    wakes: Arc<WakeSchedule>,
    /// Daemon pumps [`LdmsNetwork::pump`] has made.
    daemon_pumps: AtomicU64,
    l1: Arc<Ldmsd>,
    standby: Option<Arc<Ldmsd>>,
    l2: Arc<Ldmsd>,
    ledger: Arc<DeliveryLedger>,
    telemetry: Option<Arc<Telemetry>>,
}

impl LdmsNetwork {
    /// Builds the network for the given compute-node names with the
    /// paper's best-effort hop semantics.
    pub fn build(node_names: &[String]) -> Self {
        Self::build_with(node_names, QueueConfig::default())
    }

    /// Builds the network with an explicit retry-queue configuration
    /// applied to every hop.
    pub(crate) fn build_with(node_names: &[String], queue: QueueConfig) -> Self {
        Self::build_full(
            node_names,
            &NetworkOpts {
                queue,
                ..NetworkOpts::default()
            },
        )
    }

    /// Builds the network with full recovery options: queue preset,
    /// optional standby L1 aggregator, and optional per-hop
    /// write-ahead logs. Each hop's jitter RNG is decorrelated by
    /// deriving its seed from the configured seed and the hop index.
    pub fn build_full(node_names: &[String], opts: &NetworkOpts) -> Self {
        let queue = &opts.queue;
        let ledger = Arc::new(DeliveryLedger::new());
        let l2 = Ldmsd::with_ledger("shirley-agg", DaemonRole::AggregatorL2, ledger.clone());
        let l1 = Ldmsd::with_ledger("voltrino-head", DaemonRole::AggregatorL1, ledger.clone());
        l1.connect_upstream_routes(
            vec![(TransportLink::site_network(), l2.clone())],
            queue
                .clone()
                .with_seed(queue.seed ^ crate::fault::mix64(u64::MAX)),
            opts.wal.clone(),
        );
        let standby = opts.standby_l1.then(|| {
            let d =
                Ldmsd::with_ledger("voltrino-standby", DaemonRole::AggregatorL1, ledger.clone());
            d.connect_upstream_routes(
                vec![(TransportLink::site_network(), l2.clone())],
                queue
                    .clone()
                    .with_seed(queue.seed ^ crate::fault::mix64(u64::MAX - 1)),
                opts.wal.clone(),
            );
            d
        });
        let mut sorted: Vec<String> = node_names.to_vec();
        sorted.sort();
        let mut nodes = HashMap::with_capacity_and_hasher(sorted.len(), FnvBuildHasher::default());
        let mut ordered = Vec::with_capacity(sorted.len() + 3);
        for (i, n) in sorted.iter().enumerate() {
            let d = Ldmsd::with_ledger(n, DaemonRole::Sampler, ledger.clone());
            let mut routes = vec![(TransportLink::ugni(), l1.clone())];
            if let Some(s) = &standby {
                routes.push((TransportLink::ugni(), s.clone()));
            }
            d.connect_upstream_routes(
                routes,
                queue
                    .clone()
                    .with_seed(queue.seed ^ crate::fault::mix64(i as u64)),
                opts.wal.clone(),
            );
            nodes.insert(n.clone(), d.clone());
            ordered.push(d);
        }
        ordered.push(l1.clone());
        if let Some(s) = &standby {
            ordered.push(s.clone());
        }
        ordered.push(l2.clone());
        let wakes = Arc::new(WakeSchedule::new());
        for (i, d) in ordered.iter().enumerate() {
            d.wakes
                .set((wakes.clone(), i))
                .expect("a daemon joins one network, once");
        }
        if let Some(tel) = &opts.telemetry {
            for d in &ordered {
                d.attach_telemetry(tel);
            }
        }
        if let Some(oc) = &opts.overload {
            // The same seed at every hop keeps the 1-in-N keep
            // decision consistent end-to-end (an event kept at the
            // sampler is kept at the aggregators too); the ordinal
            // keeps each hop's sketch sequence numbers disjoint.
            for (i, d) in ordered.iter().enumerate() {
                if d.upstream.read().is_some() {
                    d.attach_overload(oc.clone(), i as u64);
                }
            }
        }
        Self {
            nodes,
            ordered,
            wakes,
            daemon_pumps: AtomicU64::new(0),
            l1,
            standby,
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

    /// Resolves a fault-script component name: a compute-node name, an
    /// aggregator host name, or the aliases `"l1"` / `"l2"` /
    /// `"standby"`.
    fn resolve(&self, name: &str) -> Option<&Arc<Ldmsd>> {
        match name {
            "l1" => Some(&self.l1),
            "l2" => Some(&self.l2),
            "standby" => self.standby.as_ref(),
            n if n == self.l1.name() => Some(&self.l1),
            n if n == self.l2.name() => Some(&self.l2),
            n if Some(n) == self.standby.as_ref().map(|s| s.name()) => self.standby.as_ref(),
            n => self.nodes.get(n),
        }
    }

    /// Applies a chaos script to the network. Returns how many faults
    /// were applied; specs naming unknown components are skipped (and
    /// not counted), so a script can be shared across topologies.
    pub fn apply_faults(&self, script: &FaultScript) -> usize {
        let mut applied = 0;
        for spec in script.specs() {
            let ok = match spec {
                FaultSpec::DaemonOutage {
                    daemon,
                    from,
                    until,
                } => self
                    .resolve(daemon)
                    .map(|d| d.schedule_outage(*from, *until))
                    .is_some(),
                FaultSpec::LinkFlap {
                    daemon,
                    from,
                    until,
                } => self
                    .resolve(daemon)
                    .is_some_and(|d| d.schedule_link_flap(*from, *until)),
                FaultSpec::LinkLossProb { daemon, prob, seed } => self
                    .resolve(daemon)
                    .is_some_and(|d| d.set_link_loss_prob(*prob, *seed)),
                FaultSpec::LinkDropEvery { daemon, every } => self
                    .resolve(daemon)
                    .is_some_and(|d| d.set_link_drop_every(*every)),
                FaultSpec::Crash {
                    daemon,
                    at,
                    restart,
                } => self
                    .resolve(daemon)
                    .map(|d| d.schedule_crash(*at, *restart))
                    .is_some(),
                // Storage-tier faults target the DSOS cluster behind
                // the terminal store, not the transport network; the
                // pipeline layer routes them there.
                FaultSpec::CrashDsosd { .. } | FaultSpec::RestartDsosd { .. } => false,
            };
            if ok {
                applied += 1;
            }
        }
        applied
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
    fn note_publish(&self, msg: &StreamMessage) {
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
    fn inject(&self, msg: StreamMessage) {
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
    /// (absent hops — no controller attached — are skipped).
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

/// The sweep the wake schedule replaced, kept as the oracle the
/// schedule is tested against.
#[cfg(test)]
mod sweep_oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{BufferSink, MsgClass, MsgFormat};
    use iosim_time::Epoch;

    fn msg(producer: &str, data: &str) -> StreamMessage {
        StreamMessage::new(
            "darshanConnector",
            MsgFormat::Json,
            data.to_string(),
            producer,
            Epoch::from_secs(100),
        )
    }

    fn msg_at(producer: &str, at: Epoch) -> StreamMessage {
        StreamMessage::new(
            "darshanConnector",
            MsgFormat::Json,
            "{}".into(),
            producer,
            at,
        )
    }

    fn network() -> LdmsNetwork {
        LdmsNetwork::build(&["nid00040".into(), "nid00041".into()])
    }

    #[test]
    fn message_traverses_two_hops_to_l2() {
        let net = network();
        let sink = BufferSink::new();
        net.l2().subscribe("darshanConnector", sink.clone());
        net.publish(msg("nid00040", "{\"op\":\"write\"}"));
        let got = sink.take();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].hops, 2);
        assert!(got[0].recv_time > got[0].publish_time);
        assert!(net.ledger().balances());
        assert_eq!(net.ledger().delivered(), 1);
    }

    #[test]
    fn subscriber_at_l1_sees_messages_before_l2_delay() {
        let net = network();
        let at_l1 = BufferSink::new();
        let at_l2 = BufferSink::new();
        net.l1().subscribe("darshanConnector", at_l1.clone());
        net.l2().subscribe("darshanConnector", at_l2.clone());
        net.publish(msg("nid00041", "{}"));
        let m1 = &at_l1.snapshot()[0];
        let m2 = &at_l2.snapshot()[0];
        assert!(m1.recv_time < m2.recv_time);
        assert_eq!(m1.hops, 1);
    }

    #[test]
    fn unknown_producer_enters_at_l1() {
        let net = network();
        let sink = BufferSink::new();
        net.l2().subscribe("darshanConnector", sink.clone());
        net.publish(msg("external-host", "{}"));
        let got = sink.take();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].hops, 1); // only the L1→L2 hop
    }

    #[test]
    fn node_daemon_counts_published_messages() {
        let net = network();
        net.publish(msg("nid00040", "{}"));
        net.publish(msg("nid00040", "{}"));
        assert_eq!(net.nodes["nid00040"].stream_stats().published(), 2);
        assert_eq!(net.nodes["nid00041"].stream_stats().published(), 0);
        // L1 saw both; L2 saw both.
        assert_eq!(net.l1().stream_stats().published(), 2);
        assert_eq!(net.l2().stream_stats().published(), 2);
    }

    #[test]
    fn concurrent_publishers_all_arrive() {
        let net = Arc::new(LdmsNetwork::build(
            &(0..8).map(|i| format!("nid{i:05}")).collect::<Vec<_>>(),
        ));
        let sink = BufferSink::new();
        net.l2().subscribe("darshanConnector", sink.clone());
        std::thread::scope(|s| {
            for i in 0..8 {
                let net = net.clone();
                s.spawn(move || {
                    for j in 0..50 {
                        net.publish(msg(&format!("nid{i:05}"), &format!("{{\"n\":{j}}}")));
                    }
                });
            }
        });
        assert_eq!(sink.len(), 400);
        assert_eq!(net.ledger().published(), 400);
        assert_eq!(net.ledger().delivered(), 400);
        assert!(net.ledger().balances());
    }

    #[test]
    fn topology_cycle_is_dropped_not_looped() {
        let ledger = Arc::new(DeliveryLedger::new());
        let a = Ldmsd::with_ledger("a", DaemonRole::AggregatorL1, ledger.clone());
        let b = Ldmsd::with_ledger("b", DaemonRole::AggregatorL1, ledger.clone());
        a.connect_upstream(TransportLink::ugni(), b.clone());
        b.connect_upstream(TransportLink::ugni(), a.clone());
        ledger.record_published();
        a.receive(msg("a", "{}")); // returns instead of recursing forever
        assert_eq!(ledger.lost_with_cause(LossCause::CycleDropped), 1);
        assert!(ledger.balances());
    }

    #[test]
    fn deep_chain_forwards_iteratively() {
        let ledger = Arc::new(DeliveryLedger::new());
        let daemons: Vec<Arc<Ldmsd>> = (0..2000)
            .map(|i| Ldmsd::with_ledger(&format!("d{i}"), DaemonRole::AggregatorL1, ledger.clone()))
            .collect();
        for w in daemons.windows(2) {
            w[0].connect_upstream(TransportLink::ugni(), w[1].clone());
        }
        let sink = BufferSink::new();
        daemons
            .last()
            .unwrap()
            .subscribe("darshanConnector", sink.clone());
        ledger.record_published();
        daemons[0].receive(msg("d0", "{}"));
        let got = sink.take();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].hops, 1999);
        assert_eq!(ledger.delivered(), 1);
    }

    #[test]
    fn daemon_outage_parks_then_delivers_after_restart() {
        let net = LdmsNetwork::build_with(&["nid0".into()], QueueConfig::reliable());
        let down_from = Epoch::from_secs(100);
        let down_until = Epoch::from_secs(140);
        net.apply_faults(&FaultScript::new().daemon_outage("l2", down_from, down_until));
        let sink = BufferSink::new();
        net.l2().subscribe("darshanConnector", sink.clone());

        net.publish(msg_at("nid0", Epoch::from_secs(120)));
        assert_eq!(sink.len(), 0, "L2 is down; nothing delivered yet");
        assert_eq!(net.l1().queued(), 1, "parked at the L1 hop");
        assert!(!net.ledger().balances(), "in flight, not yet accounted");

        let abandoned = net.settle(Epoch::from_secs(200));
        assert_eq!(abandoned, 0);
        let got = sink.take();
        assert_eq!(got.len(), 1);
        assert!(
            got[0].recv_time >= down_until,
            "delivered only after restart"
        );
        assert_eq!(net.ledger().delivered(), 1);
        assert!(net.ledger().balances());
    }

    #[test]
    fn best_effort_outage_is_attributed_not_buffered() {
        let net = LdmsNetwork::build(&["nid0".into()]);
        net.apply_faults(&FaultScript::new().daemon_outage(
            "l2",
            Epoch::from_secs(100),
            Epoch::from_secs(140),
        ));
        let sink = BufferSink::new();
        net.l2().subscribe("darshanConnector", sink.clone());
        net.publish(msg_at("nid0", Epoch::from_secs(120)));
        assert_eq!(sink.len(), 0);
        assert_eq!(net.l1().queued(), 0, "best effort: nothing parked");
        assert_eq!(net.ledger().lost_with_cause(LossCause::DaemonDown), 1);
        assert_eq!(net.ledger().lost_at("shirley-agg"), 1);
        assert!(net.ledger().balances());
    }

    #[test]
    fn settle_abandons_past_horizon_and_balances() {
        let net = LdmsNetwork::build_with(&["nid0".into()], QueueConfig::reliable());
        // L2 never comes back within the horizon.
        net.apply_faults(&FaultScript::new().daemon_outage(
            "l2",
            Epoch::from_secs(100),
            Epoch::from_secs(10_000),
        ));
        net.l2().subscribe("darshanConnector", BufferSink::new());
        net.publish(msg_at("nid0", Epoch::from_secs(120)));
        let abandoned = net.settle(Epoch::from_secs(200));
        assert_eq!(abandoned, 1);
        assert_eq!(net.ledger().lost_with_cause(LossCause::DaemonDown), 1);
        assert!(net.ledger().balances());
    }

    // ---- crash-recovery and failover ------------------------------

    fn recovery_net(wal: Option<WalConfig>, standby: bool) -> LdmsNetwork {
        LdmsNetwork::build_full(
            &["nid0".into()],
            &NetworkOpts {
                queue: QueueConfig::reliable(),
                standby_l1: standby,
                wal,
                telemetry: None,
                overload: None,
            },
        )
    }

    #[test]
    fn crash_destroys_volatile_queue_without_wal() {
        let net = recovery_net(None, false);
        // L2 down so the message parks at L1; then L1 itself crashes.
        net.apply_faults(
            &FaultScript::new()
                .daemon_outage("l2", Epoch::from_secs(100), Epoch::from_secs(500))
                .crash("l1", Epoch::from_secs(150), Epoch::from_secs(160)),
        );
        net.l2().subscribe("darshanConnector", BufferSink::new());
        net.publish(msg_at("nid0", Epoch::from_secs(120)));
        assert_eq!(net.l1().queued(), 1);
        let abandoned = net.settle(Epoch::from_secs(1000));
        assert_eq!(abandoned, 0, "the crash already consumed the entry");
        assert_eq!(net.ledger().lost_with_cause(LossCause::Crash), 1);
        assert_eq!(net.ledger().lost_at("voltrino-head"), 1);
        assert!(net.ledger().balances());
        assert_eq!(net.recovery_report().crashes, 1);
    }

    #[test]
    fn wal_replay_recovers_parked_messages_across_crash() {
        let net = recovery_net(Some(WalConfig::durable()), false);
        net.apply_faults(
            &FaultScript::new()
                .daemon_outage("l2", Epoch::from_secs(100), Epoch::from_secs(500))
                .crash("l1", Epoch::from_secs(150), Epoch::from_secs(600)),
        );
        let sink = BufferSink::new();
        net.l2().subscribe("darshanConnector", sink.clone());
        net.publish(msg_at("nid0", Epoch::from_secs(120)).with_seq(1));
        let abandoned = net.settle(Epoch::from_secs(1000));
        assert_eq!(abandoned, 0);
        let got = sink.take();
        assert_eq!(got.len(), 1, "the WAL record was replayed");
        assert!(got[0].replayed);
        assert!(got[0].recv_time >= Epoch::from_secs(600));
        assert_eq!(net.ledger().delivered(), 1);
        assert_eq!(net.ledger().recovered(), 1);
        assert_eq!(net.ledger().lost_with_cause(LossCause::Crash), 0);
        assert!(net.ledger().balances());
        let r = net.recovery_report();
        assert_eq!((r.wal_appended, r.wal_replayed, r.recovered), (1, 1, 1));
    }

    #[test]
    fn duplicate_replay_after_uncheckpointed_completion_is_suppressed() {
        // Completion marks are volatile: deliver, crash before the
        // checkpoint, and the restart replays a duplicate.
        let wal = WalConfig::durable().with_checkpoint_every(1000);
        let net = recovery_net(Some(wal), false);
        net.apply_faults(
            &FaultScript::new()
                .daemon_outage("l2", Epoch::from_secs(100), Epoch::from_secs(110))
                .crash("l1", Epoch::from_secs(120), Epoch::from_secs(130)),
        );
        let sink = BufferSink::new();
        net.l2().subscribe("darshanConnector", sink.clone());
        net.publish(msg_at("nid0", Epoch::from_secs(105)).with_seq(1));
        net.settle(Epoch::from_secs(1000));
        assert_eq!(sink.len(), 1, "the duplicate never reached the store");
        assert_eq!(net.ledger().delivered(), 1);
        assert_eq!(net.ledger().duplicates(), 1);
        assert_eq!(
            net.ledger().recovered(),
            0,
            "a suppressed dup is no recovery"
        );
        assert!(net.ledger().balances());
    }

    #[test]
    fn a_replayed_copy_of_a_delivered_message_is_never_also_lost() {
        use crate::batch::{encode_frame, FrameRecord};
        use crate::queue::OverflowPolicy;

        // Deliver, crash before the checkpoint, and the restart replays
        // a copy — which this time cannot be delivered (and suppressed
        // at the terminal) but meets one of the hop's own ends.
        let l2_stays_down =
            |s: FaultScript| s.daemon_outage("l2", Epoch::from_secs(125), Epoch::from_secs(10_000));
        let reliable = QueueConfig::reliable;
        type Ending = (
            &'static str,
            QueueConfig,
            fn(FaultScript) -> FaultScript,
            bool,
        );
        let endings: [Ending; 5] = [
            (
                "abandoned at the settle horizon",
                reliable(),
                l2_stays_down,
                false,
            ),
            (
                "evicted by a newer entry",
                reliable().with_capacity(1),
                l2_stays_down,
                true,
            ),
            (
                "expired",
                reliable().with_policy(OverflowPolicy::BlockWithDeadline(SimDuration::from_secs(
                    20,
                ))),
                l2_stays_down,
                false,
            ),
            (
                "out of attempts at a refused send",
                reliable().with_max_attempts(2),
                l2_stays_down,
                false,
            ),
            (
                "out of attempts at a silent drop",
                reliable().with_max_attempts(2),
                |s| s.link_drop_every("l1", 2),
                false,
            ),
        ];
        for framed in [false, true] {
            for (ending, queue, fault, crowd) in endings.clone() {
                let net = LdmsNetwork::build_full(
                    &["nid0".into()],
                    &NetworkOpts {
                        queue,
                        wal: Some(WalConfig::durable().with_checkpoint_every(1000)),
                        ..NetworkOpts::default()
                    },
                );
                net.apply_faults(&fault(
                    FaultScript::new()
                        .daemon_outage("l2", Epoch::from_secs(100), Epoch::from_secs(110))
                        .crash("l1", Epoch::from_secs(120), Epoch::from_secs(130)),
                ));
                let sink = BufferSink::new();
                net.l2().subscribe("darshanConnector", sink.clone());
                let first = msg_at("nid0", Epoch::from_secs(105));
                let (first, weight) = if framed {
                    let records: Vec<FrameRecord> = (1..=3)
                        .map(|seq| FrameRecord {
                            seq: Some(seq),
                            payload: "{}".to_string(),
                        })
                        .collect();
                    let mut frame = first.with_batch(3);
                    frame.data = Arc::from(encode_frame(&records).as_str());
                    (frame, 3)
                } else {
                    (first.with_seq(1), 1)
                };
                net.publish(first);
                net.settle(Epoch::from_secs(115));
                assert_eq!(sink.len() as u64, weight, "delivered before the crash");
                let crowd = u64::from(crowd);
                if crowd > 0 {
                    // Parks behind the copy in a one-slot queue.
                    net.publish(msg_at("nid0", Epoch::from_secs(140)).with_seq(9));
                }
                net.settle(Epoch::from_secs(1000));
                let ledger = net.ledger();
                let case = format!("{ending}, framed={framed}: {}", ledger.summary());
                assert_eq!(sink.len() as u64, weight, "{case}");
                assert_eq!(ledger.delivered(), weight, "{case}");
                assert_eq!(ledger.duplicates(), weight, "{case}");
                assert_eq!(ledger.total_lost(), crowd, "{case}");
                assert_eq!(net.recovery_report().wal_replayed, 1, "{case}");
                assert!(ledger.balances(), "{case}");
            }
        }
    }

    #[test]
    fn standby_failover_elects_after_missed_heartbeats() {
        let net = recovery_net(Some(WalConfig::durable()), true);
        net.apply_faults(&FaultScript::new().crash(
            "l1",
            Epoch::from_secs(100),
            Epoch::from_secs(500),
        ));
        let sink = BufferSink::new();
        net.l2().subscribe("darshanConnector", sink.clone());
        // Published before detection: parks, then fails over at the
        // heartbeat-detection instant (100 + 3×1 s).
        net.publish(msg_at("nid0", Epoch::from_secs(101)).with_seq(1));
        // Published after detection: fails over at send time.
        net.publish(msg_at("nid0", Epoch::from_secs(200)).with_seq(2));
        net.settle(Epoch::from_secs(400));
        let got = sink.take();
        assert_eq!(got.len(), 2, "both rode the standby route");
        assert!(got.iter().all(|m| m.recv_time < Epoch::from_secs(400)));
        assert_eq!(net.ledger().delivered(), 2);
        assert!(net.ledger().balances());
        let nid = &net.nodes["nid0"];
        assert_eq!(nid.failovers(), 1);
        assert_eq!(
            nid.active_upstream().unwrap().name(),
            "voltrino-standby",
            "still held by hysteresis"
        );
        let r = net.recovery_report();
        assert!(r.max_failover_latency_s >= 3.0);
    }

    #[test]
    fn failback_returns_to_primary_after_hold() {
        let net = recovery_net(None, true);
        net.apply_faults(&FaultScript::new().crash(
            "l1",
            Epoch::from_secs(100),
            Epoch::from_secs(120),
        ));
        net.l2().subscribe("darshanConnector", BufferSink::new());
        let nid = &net.nodes["nid0"];
        net.publish(msg_at("nid0", Epoch::from_secs(110)).with_seq(1));
        net.settle(Epoch::from_secs(115));
        assert_eq!(nid.active_upstream().unwrap().name(), "voltrino-standby");
        // Primary back at 120; hold is 10 s — at 125 still standby.
        net.publish(msg_at("nid0", Epoch::from_secs(125)).with_seq(2));
        assert_eq!(nid.active_upstream().unwrap().name(), "voltrino-standby");
        // At 131 the primary has been up ≥ hold: fail back.
        net.publish(msg_at("nid0", Epoch::from_secs(131)).with_seq(3));
        assert_eq!(nid.active_upstream().unwrap().name(), "voltrino-head");
        assert_eq!(nid.failbacks(), 1);
        net.settle(Epoch::from_secs(400));
        assert!(net.ledger().balances());
    }

    // ---- pipeline self-telemetry ----------------------------------

    fn traced_net(wal: Option<WalConfig>) -> (LdmsNetwork, Arc<Telemetry>) {
        let hub = Telemetry::new(iosim_telemetry::TelemetryConfig::trace_all());
        let net = LdmsNetwork::build_full(
            &["nid0".into()],
            &NetworkOpts {
                queue: QueueConfig::reliable(),
                standby_l1: false,
                wal,
                telemetry: Some(hub.clone()),
                overload: None,
            },
        );
        (net, hub)
    }

    #[test]
    fn traced_message_accumulates_publish_forward_ingest_spans() {
        let (net, hub) = traced_net(None);
        net.l2().subscribe("darshanConnector", BufferSink::new());
        let trace = hub.sample(7, 0, 1).expect("trace-all samples everything");
        net.publish(
            msg_at("nid0", Epoch::from_secs(120))
                .with_seq(1)
                .with_origin(7, 0)
                .with_trace(Some(trace)),
        );
        let kinds: Vec<HopKind> = hub.spans().spans_of(trace).iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds.iter().filter(|&&k| k == HopKind::Publish).count(),
            1,
            "one publish span at the producer"
        );
        assert_eq!(
            kinds.iter().filter(|&&k| k == HopKind::Forward).count(),
            2,
            "node→L1 and L1→L2 forwards"
        );
        assert_eq!(kinds.iter().filter(|&&k| k == HopKind::Ingest).count(), 1);
        let sum = hub.latency_summary();
        assert_eq!((sum.traces, sum.end_to_end.count), (1, 1));
        assert!(sum.end_to_end.max > 0, "link delays are nonzero");
        assert!(sum.hop(HopKind::Forward).count == 2);
    }

    #[test]
    fn wal_replay_preserves_trace_id_and_adds_replay_span() {
        let (net, hub) = traced_net(Some(WalConfig::durable()));
        net.apply_faults(
            &FaultScript::new()
                .daemon_outage("l2", Epoch::from_secs(100), Epoch::from_secs(500))
                .crash("l1", Epoch::from_secs(150), Epoch::from_secs(600)),
        );
        let sink = BufferSink::new();
        net.l2().subscribe("darshanConnector", sink.clone());
        let trace = hub.sample(7, 0, 1).expect("trace-all samples everything");
        net.publish(
            msg_at("nid0", Epoch::from_secs(120))
                .with_seq(1)
                .with_origin(7, 0)
                .with_trace(Some(trace)),
        );
        net.settle(Epoch::from_secs(1000));
        let got = sink.take();
        assert_eq!(got.len(), 1);
        assert!(got[0].replayed);
        assert_eq!(
            got[0].trace,
            Some(trace),
            "replay re-injects the message with its trace context intact"
        );
        let spans = hub.spans().spans_of(trace);
        let replay: Vec<_> = spans.iter().filter(|s| s.kind == HopKind::Replay).collect();
        assert_eq!(replay.len(), 1, "one WAL-replay span");
        assert!(
            replay[0].at >= Epoch::from_secs(600),
            "replayed at the restart instant"
        );
        assert!(
            replay[0].latency >= SimDuration::from_secs(400),
            "time-in-limbo spans the crash window"
        );
        assert!(
            spans.iter().any(|s| s.kind == HopKind::Park),
            "the pre-crash park was traced too"
        );
        assert_eq!(hub.latency_summary().end_to_end.count, 1);
        // The crash also left a flight-recorder dump on the crashed L1.
        let dumps = net.l1().crash_dumps();
        assert_eq!(dumps.len(), 1);
        assert_eq!(dumps[0].wal_covered, 1, "the lost entry was WAL-covered");
    }

    #[test]
    fn default_network_has_no_recovery_machinery() {
        let net = network();
        assert!(net.standby.is_none());
        assert_eq!(net.l1().wal_capacity(), None);
        net.l2().subscribe("darshanConnector", BufferSink::new());
        net.publish(msg("nid00040", "{}"));
        assert_eq!(net.recovery_report(), RecoveryReport::default());
    }

    // ---- overload control -----------------------------------------

    fn overload_net(rate: f64) -> LdmsNetwork {
        LdmsNetwork::build_full(
            &["nid0".into()],
            &NetworkOpts {
                queue: QueueConfig::reliable().with_capacity(4096),
                overload: Some(
                    crate::overload::OverloadConfig::for_rate(rate)
                        .with_propagation(SimDuration::ZERO)
                        .with_window(SimDuration::from_millis(100)),
                ),
                ..NetworkOpts::default()
            },
        )
    }

    #[test]
    fn storm_degrades_into_summaries_and_ledger_balances() {
        let net = overload_net(50.0);
        let sink = BufferSink::new();
        net.l2().subscribe("darshanConnector", sink.clone());
        let base = Epoch::from_secs(100);
        const N: u64 = 2000;
        // 2000 bulk events in one virtual second: 40x the 50 msg/s
        // service rate — deep into the Sample state.
        for i in 0..N {
            let at = base + SimDuration::from_micros(i * 500);
            let m = StreamMessage::new(
                "darshanConnector",
                MsgFormat::Json,
                format!("{{\"op\":\"write\",\"len\":4096,\"dur\":0.005,\"i\":{i}}}"),
                "nid0",
                at,
            )
            .with_seq(i + 1)
            .with_origin(7, 0);
            net.publish(m);
        }
        net.settle(base + SimDuration::from_secs(600));
        let ledger = net.ledger();
        assert_eq!(ledger.published(), N);
        assert!(ledger.balances(), "must balance: {}", ledger.summary());
        assert!(ledger.summarized() > 0, "a 40x storm must fold events");
        assert!(
            ledger.accuracy() < 1.0,
            "accuracy below 1 when events were folded"
        );
        let got = sink.take();
        assert!(got.iter().any(|m| m.is_summary()), "sketches reach L2");
        let row_mass: u64 = got.iter().filter(|m| !m.is_summary()).count() as u64;
        let sketch_mass: u64 = got
            .iter()
            .filter(|m| m.is_summary())
            .map(|m| m.weight())
            .sum();
        assert_eq!(
            row_mass + sketch_mass + ledger.total_lost(),
            N,
            "rows + sketch mass + losses cover every published event"
        );
        let hops = net.overload_stats();
        assert!(!hops.is_empty());
        assert!(hops.iter().any(|(_, s)| s.folded_events > 0));
    }

    #[test]
    fn metadata_survives_a_storm_individually() {
        let net = overload_net(50.0);
        let sink = BufferSink::new();
        net.l2().subscribe("darshanConnector", sink.clone());
        let base = Epoch::from_secs(100);
        const N: u64 = 1500;
        for i in 0..N {
            let at = base + SimDuration::from_micros(i * 500);
            // Every 100th event is a metadata open/close record.
            let class = if i % 100 == 0 {
                MsgClass::Meta
            } else {
                MsgClass::Bulk
            };
            let m = StreamMessage::new(
                "darshanConnector",
                MsgFormat::Json,
                format!("{{\"op\":\"open\",\"len\":0,\"dur\":0.001,\"i\":{i}}}"),
                "nid0",
                at,
            )
            .with_seq(i + 1)
            .with_origin(7, 0)
            .with_class(class);
            net.publish(m);
        }
        net.settle(base + SimDuration::from_secs(600));
        assert!(net.ledger().balances());
        let got = sink.take();
        let delivered_meta: Vec<u64> = got
            .iter()
            .filter(|m| m.class == MsgClass::Meta)
            .filter_map(|m| m.seq)
            .collect();
        let expected: Vec<u64> = (0..N).filter(|i| i % 100 == 0).map(|i| i + 1).collect();
        assert_eq!(
            delivered_meta, expected,
            "every metadata event delivered individually, in order"
        );
    }

    #[test]
    fn calm_traffic_is_untouched_by_an_attached_controller() {
        // Two identical networks, one with a controller: under calm
        // load the delivered rows must be byte-identical.
        let run = |overload: bool| {
            let net = if overload {
                overload_net(1000.0)
            } else {
                LdmsNetwork::build_full(
                    &["nid0".into()],
                    &NetworkOpts {
                        queue: QueueConfig::reliable().with_capacity(4096),
                        ..NetworkOpts::default()
                    },
                )
            };
            let sink = BufferSink::new();
            net.l2().subscribe("darshanConnector", sink.clone());
            let base = Epoch::from_secs(100);
            for i in 0..50u64 {
                let at = base + SimDuration::from_millis(i * 100);
                let m = StreamMessage::new(
                    "darshanConnector",
                    MsgFormat::Json,
                    format!("{{\"len\":64,\"dur\":0.001,\"i\":{i}}}"),
                    "nid0",
                    at,
                )
                .with_seq(i + 1)
                .with_origin(7, 0);
                net.publish(m);
            }
            net.settle(base + SimDuration::from_secs(60));
            assert!(net.ledger().balances());
            sink.take()
        };
        let with = run(true);
        let without = run(false);
        assert_eq!(with, without, "calm load: controller is invisible");
    }
}
