//! LDMS daemons (`ldmsd`).
//!
//! Mirrors the paper's Section V.C deployment: sampler daemons on the
//! compute nodes, one first-level aggregator on the head node (UGNI
//! transport), and a second-level aggregator on the remote analysis
//! cluster (Shirley) where the store plugins subscribe. A daemon is
//! built complete by its network ([`crate::LdmsNetwork::build`]): its
//! upstream routes, lifecycle windows, telemetry handles, overload
//! controller and wake-schedule slot are fixed before the first
//! publish, so none of them sits behind a lock. Only stream
//! subscriptions are added later.
//!
//! Beyond the paper's always-up, fire-and-forget pipeline, each daemon
//! carries a [`Lifecycle`] (crash/restart windows in virtual time) and
//! each upstream connection a bounded [`crate::RetryQueue`]: a send
//! that fails detectably (link flapped down, target daemon crashed) or
//! silently (transport loss) may be parked and retried with exponential
//! backoff, depending on the hop's [`QueueConfig`]. Every message entering the
//! network through [`crate::LdmsNetwork::publish`] is accounted for
//! exactly once in the shared [`DeliveryLedger`] — delivered at the
//! terminal daemon, or lost with a `(hop, cause)` attribution. The
//! default [`QueueConfig::best_effort`] keeps the paper's semantics
//! untouched.
//!
//! The crash-recovery layer adds three opt-in mechanisms on top:
//!
//! * **Durable WALs** ([`crate::wal`]) — a hop configured with a
//!   [`crate::WalConfig`] journals every parked message; a crash-stop
//!   fault ([`crate::FaultSpec::Crash`]) destroys the volatile queue
//!   but the daemon replays durable records at restart (the `recovery`
//!   child module).
//! * **Ranked upstream routes with heartbeat election** (the `route`
//!   child module) — a daemon may hold several upstream routes; after
//!   [`crate::heartbeat`]'s missed beats the active route is declared
//!   dead and the best live standby is elected, with a hold-time
//!   hysteresis before failing back.
//! * **Idempotent terminal delivery** — sequenced messages are keyed
//!   `(producer, job, rank, seq)`; a WAL replay re-delivering an
//!   already-delivered key is suppressed and counted, never double
//!   counted.
//!
//! The `telemetry` child module holds a daemon's metric handles, flight
//! recorder and live-hub events. Forwarding walks the upstream chain
//! iteratively (not recursively); the network is a tree, so every walk
//! ends at the terminal daemon.

mod recovery;
mod route;
mod telemetry;

use self::recovery::CrashWindow;
use self::route::UpstreamSet;
use self::telemetry::DaemonTelemetry;
use crate::fault::{DaemonFaults, Lifecycle};
use crate::ledger::{DeliveryLedger, LossCause};
use crate::network::DaemonSpec;
use crate::overload::{OverloadController, OverloadStats};
use crate::queue::{QueueConfig, QueueEntry, WakeSchedule};
use crate::stream::{StreamHub, StreamMessage, StreamSink, StreamStats};
use crate::transport::TransportLink;
use iosim_telemetry::{CrashDump, HopKind, HubEventKind};
use iosim_time::Epoch;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::Arc;

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

/// What every daemon of one network shares, handed to each as the
/// network builds it.
pub(crate) struct Fabric<'a> {
    pub(crate) ledger: &'a Arc<DeliveryLedger>,
    pub(crate) wakes: &'a Arc<WakeSchedule>,
    pub(crate) telemetry: Option<&'a Arc<iosim_telemetry::Telemetry>>,
}

/// One LDMS daemon.
pub struct Ldmsd {
    name: String,
    hub: StreamHub,
    lifecycle: Lifecycle,
    ledger: Arc<DeliveryLedger>,
    /// `None` at the terminal daemon.
    upstream: Option<UpstreamSet>,
    crashes: Mutex<Vec<CrashWindow>>,
    has_crashes: AtomicBool,
    crash_count: AtomicU64,
    tel: Option<DaemonTelemetry>,
    crash_dumps: Mutex<Vec<CrashDump>>,
    /// Present at a forwarding hop when the network controls overload.
    overload: Option<OverloadController>,
    /// The network's wake schedule, and this daemon's position in its
    /// pump order.
    wakes: Arc<WakeSchedule>,
    index: usize,
}

impl Ldmsd {
    /// Builds the daemon `spec` describes at position `index` of its
    /// network's pump order, forwarding over `routes` (primary first;
    /// none at the terminal) through a hop whose retry queue has the
    /// `queue` configuration, with the `faults` its network's script
    /// gives it. A forwarding hop gets the spec's write-ahead log and
    /// overload controller (`index` is the controller's hop ordinal,
    /// which keeps sketch sequence numbers disjoint between hops);
    /// every daemon gets telemetry handles when the network has a hub.
    pub(crate) fn build(
        spec: &DaemonSpec,
        index: usize,
        routes: Vec<(TransportLink, Arc<Ldmsd>)>,
        queue: QueueConfig,
        faults: DaemonFaults,
        fabric: &Fabric,
    ) -> Arc<Self> {
        let DaemonFaults {
            down,
            crashes,
            link,
        } = faults;
        let name = spec.name.as_str();
        let upstream = UpstreamSet::new(name, routes, link, queue, spec.wal.clone());
        let overload = match (&spec.overload, &upstream) {
            (Some(config), Some(_)) => Some(
                OverloadController::new(config.clone(), index as u64)
                    .with_ledger(fabric.ledger.clone()),
            ),
            _ => None,
        };
        // Nothing happens to a daemon at a downtime window's edges, but
        // its health report changes there; a crash (always a downtime
        // window too) and its restart are work at their instants.
        if !down.always_up() {
            let crash_edges = crashes.iter().flat_map(|&(at, restart)| [at, restart]);
            fabric.wakes.add(
                std::iter::once(NEXT_PASS)
                    .chain(crash_edges)
                    .map(|t| (t, index)),
            );
        }
        Arc::new(Self {
            name: name.to_string(),
            hub: StreamHub::new(),
            lifecycle: down,
            ledger: fabric.ledger.clone(),
            upstream,
            has_crashes: AtomicBool::new(!crashes.is_empty()),
            crashes: Mutex::new(crashes.into_iter().map(CrashWindow::new).collect()),
            crash_count: AtomicU64::new(0),
            tel: fabric.telemetry.map(|hub| DaemonTelemetry::new(hub, name)),
            crash_dumps: Mutex::new(Vec::new()),
            overload,
            wakes: fabric.wakes.clone(),
            index,
        })
    }

    /// Asks the network to pump this daemon at the first pass at or
    /// after `at`.
    fn wake(&self, at: Epoch) {
        self.wakes.add([(at, self.index)]);
    }

    /// Counter snapshot of the hop's overload controller, if it has
    /// one.
    pub(crate) fn overload_stats(&self) -> Option<OverloadStats> {
        self.overload.as_ref().map(OverloadController::stats)
    }

    /// The daemon's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Subscribes a sink to a stream tag at this daemon.
    pub fn subscribe(&self, tag: &str, sink: Arc<dyn StreamSink>) {
        self.hub.subscribe(tag, sink);
    }

    /// Local stream statistics.
    pub fn stream_stats(&self) -> &StreamStats {
        self.hub.stats()
    }

    /// Messages currently parked in this daemon's retry queue.
    pub fn queued(&self) -> usize {
        self.upstream.as_ref().map_or(0, |u| u.queue.len())
    }

    /// Deepest this daemon's retry queue has ever been (entries; a
    /// batch frame counts as one entry).
    pub(crate) fn queue_high_water(&self) -> u64 {
        self.upstream.as_ref().map_or(0, |u| u.queue.high_water())
    }

    /// Earliest virtual instant at which *anything* scheduled happens
    /// at this daemon: a queue retry/deadline, an unprocessed crash,
    /// or a restart with WAL records awaiting replay.
    pub(crate) fn next_event(&self) -> Option<Epoch> {
        let queue = self.upstream.as_ref().and_then(|u| u.queue.next_event());
        match (queue, self.next_crash_event()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Receives a message: delivers to local subscribers, then walks
    /// the upstream chain iteratively. Failed hops are parked for
    /// retry or attributed to the ledger, per each hop's queue
    /// configuration.
    pub(crate) fn receive(&self, msg: StreamMessage) {
        // Overload admissions can split one arrival into several
        // onward messages (a thinned frame plus flushed summary
        // sketches). The primary continuation walks inline; the extras
        // queue here and each starts a fresh walk.
        let mut pending: VecDeque<(Arc<Ldmsd>, StreamMessage)> = VecDeque::new();
        self.walk(msg, &mut pending);
        while let Some((daemon, carried)) = pending.pop_front() {
            daemon.walk(carried, &mut pending);
        }
    }

    /// One full chain walk from this daemon, collecting side-channel
    /// continuations into `pending`.
    fn walk(&self, msg: StreamMessage, pending: &mut VecDeque<(Arc<Ldmsd>, StreamMessage)>) {
        let mut hop = self.process_hop(msg, pending);
        while let Some((daemon, carried)) = hop {
            hop = daemon.process_hop(carried, pending);
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
        pending: &mut VecDeque<(Arc<Ldmsd>, StreamMessage)>,
    ) -> Option<(Arc<Ldmsd>, StreamMessage)> {
        let now = msg.recv_time;
        self.note_health(now);
        if !self.lifecycle.is_up(now) {
            // The message arrived at a crashed daemon (it was in
            // flight when the crash hit, or was injected directly).
            self.record_loss(&self.name, LossCause::DaemonDown, &msg);
            return None;
        }
        let Some(up) = &self.upstream else {
            // Terminal daemon: this is where end-to-end delivery is
            // decided. Batch frames travel the pipeline whole and are
            // only opened here, at the end of their path.
            if msg.is_frame() {
                self.deliver_frame(&msg);
            } else {
                self.deliver_terminal(&msg);
            }
            return None;
        };
        // Intermediate dispatches are taps, not deliveries.
        self.hub.dispatch(&msg);
        let Some(ctl) = &self.overload else {
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

    /// Flushes the hop's open summary sketches (if it controls
    /// overload) and forwards them upstream. Returns how many sketches
    /// were flushed. Called when settling a campaign so folded mass
    /// re-enters the pipeline before final accounting.
    pub(crate) fn flush_overload(&self, now: Epoch) -> usize {
        let (Some(ctl), Some(up)) = (&self.overload, &self.upstream) else {
            return 0;
        };
        let summaries = ctl.flush_all(now);
        let n = summaries.len();
        let continuations: Vec<(Arc<Ldmsd>, StreamMessage)> = summaries
            .into_iter()
            .filter_map(|s| self.try_send(up, s, 0, None, None, now))
            .collect();
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
        let route = self.elect_route(up, now);

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
            if let Some(tel) = &self.tel {
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
            if let Some(tel) = &self.tel {
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
        if let Some(tel) = &self.tel {
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
        if let Some(tel) = &self.tel {
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
        if let Some(tel) = &self.tel {
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
        self.process_crashes(now);
        self.note_health(now);
        self.drain_queue(now);
        self.keep_health_watch(now);
    }

    /// Expires over-deadline entries and re-attempts every entry whose
    /// retry time has come. Successful re-sends continue walking the
    /// chain from the target.
    fn drain_queue(&self, now: Epoch) {
        let Some(up) = &self.upstream else { return };
        if up.queue.is_empty() {
            return;
        }
        for expired in up.queue.take_expired(now) {
            self.attribute(up, expired);
        }
        let tel = self.tel.as_ref();
        let mut continuations = Vec::new();
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
                continuations.push(c);
            }
        }
        if let Some(tel) = tel {
            tel.queue_depth.set(up.queue.len() as u64);
        }
        for (target, carried) in continuations {
            target.receive(carried);
        }
    }

    /// Abandons everything still parked, attributing each entry to the
    /// hop of its last failure. Returns how many were abandoned. Used
    /// when settling a campaign past its horizon.
    pub(crate) fn abandon_queue(&self, now: Epoch) -> usize {
        let Some(up) = &self.upstream else { return 0 };
        let entries = up.queue.drain_all();
        let n = entries.len();
        for e in entries {
            self.attribute(up, e);
        }
        self.keep_health_watch(now);
        n
    }
}

impl std::fmt::Debug for Ldmsd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ldmsd").field("name", &self.name).finish()
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
    use crate::{FaultScript, LdmsNetwork, RecoveryReport, Topology, WalConfig};
    use iosim_telemetry::Telemetry;
    use iosim_time::SimDuration;

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

    /// The paper's network over `nodes`, optionally with the standby
    /// L1, with `queue` and `wal` at every forwarding hop, built with
    /// `faults`.
    pub(super) fn paper_net(
        nodes: &[String],
        standby: bool,
        queue: QueueConfig,
        wal: Option<WalConfig>,
        faults: FaultScript,
    ) -> LdmsNetwork {
        let graph = Topology::paper(nodes, standby).with_hops(&queue, wal.as_ref(), None);
        LdmsNetwork::build(&Topology { faults, ..graph }, None).expect("the paper graph builds")
    }

    fn network() -> LdmsNetwork {
        let nodes = ["nid00040".into(), "nid00041".into()];
        paper_net(
            &nodes,
            false,
            QueueConfig::default(),
            None,
            FaultScript::new(),
        )
    }

    /// A one-node network with `queue` at every hop, built with
    /// `faults`.
    fn faulted(queue: QueueConfig, faults: FaultScript) -> LdmsNetwork {
        paper_net(&["nid0".into()], false, queue, None, faults)
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
        let net = Arc::new(paper_net(
            &(0..8).map(|i| format!("nid{i:05}")).collect::<Vec<_>>(),
            false,
            QueueConfig::default(),
            None,
            FaultScript::new(),
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
    fn daemon_outage_parks_then_delivers_after_restart() {
        let down_from = Epoch::from_secs(100);
        let down_until = Epoch::from_secs(140);
        let net = faulted(
            QueueConfig::reliable(),
            FaultScript::new().daemon_outage("l2", down_from, down_until),
        );
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
        let net = faulted(
            QueueConfig::best_effort(),
            FaultScript::new().daemon_outage("l2", Epoch::from_secs(100), Epoch::from_secs(140)),
        );
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
        // L2 never comes back within the horizon.
        let net = faulted(
            QueueConfig::reliable(),
            FaultScript::new().daemon_outage("l2", Epoch::from_secs(100), Epoch::from_secs(10_000)),
        );
        net.l2().subscribe("darshanConnector", BufferSink::new());
        net.publish(msg_at("nid0", Epoch::from_secs(120)));
        let abandoned = net.settle(Epoch::from_secs(200));
        assert_eq!(abandoned, 1);
        assert_eq!(net.ledger().lost_with_cause(LossCause::DaemonDown), 1);
        assert!(net.ledger().balances());
    }

    // ---- crash-recovery and failover ------------------------------

    fn recovery_net(wal: Option<WalConfig>, standby: bool, faults: FaultScript) -> LdmsNetwork {
        paper_net(
            &["nid0".into()],
            standby,
            QueueConfig::reliable(),
            wal,
            faults,
        )
    }

    #[test]
    fn crash_destroys_volatile_queue_without_wal() {
        // L2 down so the message parks at L1; then L1 itself crashes.
        let net = recovery_net(
            None,
            false,
            FaultScript::new()
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
        let net = recovery_net(
            Some(WalConfig::durable()),
            false,
            FaultScript::new()
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
        let net = recovery_net(
            Some(wal),
            false,
            FaultScript::new()
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
                let net = paper_net(
                    &["nid0".into()],
                    false,
                    queue,
                    Some(WalConfig::durable().with_checkpoint_every(1000)),
                    fault(
                        FaultScript::new()
                            .daemon_outage("l2", Epoch::from_secs(100), Epoch::from_secs(110))
                            .crash("l1", Epoch::from_secs(120), Epoch::from_secs(130)),
                    ),
                );
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
        let net = recovery_net(
            Some(WalConfig::durable()),
            true,
            FaultScript::new().crash("l1", Epoch::from_secs(100), Epoch::from_secs(500)),
        );
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
        let net = recovery_net(
            None,
            true,
            FaultScript::new().crash("l1", Epoch::from_secs(100), Epoch::from_secs(120)),
        );
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

    fn traced_net(wal: Option<WalConfig>, faults: FaultScript) -> (LdmsNetwork, Arc<Telemetry>) {
        let hub = Telemetry::new(iosim_telemetry::TelemetryConfig::trace_all());
        let graph = Topology::paper(&["nid0".into()], false).with_hops(
            &QueueConfig::reliable(),
            wal.as_ref(),
            None,
        );
        let net = LdmsNetwork::build(&Topology { faults, ..graph }, Some(&hub))
            .expect("the paper graph builds");
        (net, hub)
    }

    #[test]
    fn traced_message_accumulates_publish_forward_ingest_spans() {
        let (net, hub) = traced_net(None, FaultScript::new());
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
        let (net, hub) = traced_net(
            Some(WalConfig::durable()),
            FaultScript::new()
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
        let graph = Topology::paper(&["nid00040".into(), "nid00041".into()], false);
        assert!(graph
            .daemons
            .iter()
            .all(|d| d.routes.len() <= 1 && d.wal.is_none()));
        let net = network();
        assert!(net.daemons().iter().all(|d| d.wal_stats().is_none()));
        net.l2().subscribe("darshanConnector", BufferSink::new());
        net.publish(msg("nid00040", "{}"));
        assert_eq!(net.recovery_report(), RecoveryReport::default());
    }

    // ---- overload control -----------------------------------------

    fn overload_net(rate: f64) -> LdmsNetwork {
        let overload = crate::overload::OverloadConfig::for_rate(rate)
            .with_propagation(SimDuration::ZERO)
            .with_window(SimDuration::from_millis(100));
        let graph = Topology::paper(&["nid0".into()], false).with_hops(
            &QueueConfig::reliable().with_capacity(4096),
            None,
            Some(&overload),
        );
        LdmsNetwork::build(&graph, None).expect("the paper graph builds")
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
                faulted(
                    QueueConfig::reliable().with_capacity(4096),
                    FaultScript::new(),
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
