//! Upstream routes and heartbeat route election.
//!
//! A daemon's upstream is a ranked list of routes — a link and its
//! target daemon, index 0 the primary — sharing one bounded retry queue
//! and an optional write-ahead log. With standbys, the active route is
//! declared dead once it has been down for [`DETECT_AFTER`] (missed
//! heartbeats) and the best live alternative is elected; a recovered
//! better-ranked route wins back only after [`FAILBACK_HOLD`]. A single
//! route (the paper's topology) short-circuits to the primary.

use super::Ldmsd;
use crate::fault::LinkFaults;
use crate::heartbeat::{DETECT_AFTER, FAILBACK_HOLD};
use crate::queue::{QueueConfig, RetryQueue};
use crate::transport::TransportLink;
use crate::wal::{WalConfig, WriteAheadLog};
use iosim_telemetry::{FaultKind, HubEventKind};
use iosim_time::{Epoch, SimDuration};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// One candidate upstream route: a link and its target daemon.
pub(super) struct Route {
    pub(super) link: TransportLink,
    pub(super) target: Arc<Ldmsd>,
    /// Loss-attribution label for the link (`"<owner>/<link>"`).
    pub(super) link_hop: String,
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
pub(super) struct UpstreamSet {
    /// Routes in preference order; index 0 is the primary.
    pub(super) routes: Vec<Route>,
    pub(super) queue: RetryQueue,
    /// Loss-attribution label for the queue (`"<owner>/queue"`).
    pub(super) queue_hop: String,
    pub(super) wal: Option<WriteAheadLog>,
    /// Index of the currently elected route.
    active: AtomicUsize,
    failovers: AtomicU64,
    failbacks: AtomicU64,
    max_failover_latency_ns: AtomicU64,
}

impl UpstreamSet {
    /// The upstream of daemon `owner` over `routes` (primary first),
    /// with `link` scripted on the primary link; `None` for a terminal
    /// daemon, which has no routes.
    pub(super) fn new(
        owner: &str,
        routes: Vec<(TransportLink, Arc<Ldmsd>)>,
        link: LinkFaults,
        queue: QueueConfig,
        wal: Option<WalConfig>,
    ) -> Option<Self> {
        let mut routes = routes.into_iter();
        let (primary, target) = routes.next()?;
        let route = |link: TransportLink, target| Route {
            link_hop: format!("{owner}/{}", link.name),
            link,
            target,
        };
        Some(Self {
            routes: std::iter::once(route(primary.with_faults(link), target))
                .chain(routes.map(|(link, target)| route(link, target)))
                .collect(),
            queue: RetryQueue::new(queue),
            queue_hop: format!("{owner}/queue"),
            wal: wal.map(WriteAheadLog::new),
            active: AtomicUsize::new(0),
            failovers: AtomicU64::new(0),
            failbacks: AtomicU64::new(0),
            max_failover_latency_ns: AtomicU64::new(0),
        })
    }

    pub(super) fn active_idx(&self) -> usize {
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
    pub(super) fn recovery_instant(&self, route: &Route, component_up: Epoch, now: Epoch) -> Epoch {
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

impl Ldmsd {
    /// Elects the route a send at `now` takes. With a diagnosis hub
    /// listening, an election that failed over or back is published
    /// as a fault event.
    pub(super) fn elect_route<'a>(&self, up: &'a UpstreamSet, now: Epoch) -> &'a Route {
        let Some((_, diag)) = self.diag() else {
            return &up.routes[up.elect(now)];
        };
        let fo = up.failovers.load(Ordering::Relaxed);
        let fb = up.failbacks.load(Ordering::Relaxed);
        let idx = up.elect(now);
        if up.failovers.load(Ordering::Relaxed) > fo {
            diag.publish(
                &self.name,
                now,
                HubEventKind::Fault {
                    kind: FaultKind::Failover,
                    detail: format!("elected standby route {}", up.routes[idx].target.name()),
                },
            );
        }
        if up.failbacks.load(Ordering::Relaxed) > fb {
            diag.publish(
                &self.name,
                now,
                HubEventKind::Fault {
                    kind: FaultKind::Failback,
                    detail: format!("failed back to route {}", up.routes[idx].target.name()),
                },
            );
        }
        &up.routes[idx]
    }

    /// Route failovers performed (standby elected after missed
    /// heartbeats).
    pub(crate) fn failovers(&self) -> u64 {
        self.upstream
            .as_ref()
            .map_or(0, |u| u.failovers.load(Ordering::Relaxed))
    }

    /// Route failbacks performed (primary re-elected after the
    /// hysteresis hold).
    pub(crate) fn failbacks(&self) -> u64 {
        self.upstream
            .as_ref()
            .map_or(0, |u| u.failbacks.load(Ordering::Relaxed))
    }

    /// Longest observed failover delay (route-down to election) in
    /// virtual time.
    pub(crate) fn max_failover_latency(&self) -> SimDuration {
        SimDuration::from_nanos(
            self.upstream
                .as_ref()
                .map_or(0, |u| u.max_failover_latency_ns.load(Ordering::Relaxed)),
        )
    }

    /// Every upstream target in rank order (primary first, then
    /// standbys).
    pub fn upstream_targets(&self) -> Vec<Arc<Ldmsd>> {
        self.upstream.as_ref().map_or(Vec::new(), |u| {
            u.routes.iter().map(|r| r.target.clone()).collect()
        })
    }

    /// The currently *elected* upstream target (primary unless a
    /// failover switched routes), if any.
    #[cfg(test)]
    pub(crate) fn active_upstream(&self) -> Option<Arc<Ldmsd>> {
        self.upstream
            .as_ref()
            .map(|u| u.routes[u.active_idx()].target.clone())
    }

    /// Name of the primary upstream transport link, if any.
    pub fn upstream_link_name(&self) -> Option<String> {
        self.upstream
            .as_ref()
            .map(|u| u.routes[0].link.name.clone())
    }
}
