//! Transport links between LDMS daemons.
//!
//! The paper's deployment pushes stream data over Cray's UGNI transport
//! from compute nodes to the head-node aggregator, then over the site
//! network to the Shirley cluster. Links model per-message latency and
//! bandwidth, accumulate the delay into each message's `recv_time`
//! (the pipeline is asynchronous — the application does *not* wait for
//! delivery, matching the paper's push-based design), and support loss
//! injection to exercise the best-effort semantics.
//!
//! Two loss models coexist: the deterministic `drop_every` period the
//! seed shipped with, and a seeded probabilistic mode (`loss_prob`)
//! whose drops are reproducible per seed. Links also carry a
//! [`Lifecycle`] so a chaos script can flap them for a virtual-time
//! window; a flap is *detectable* by the sender (the connection is
//! down), unlike silent loss, so the daemon layer can park the message
//! for retry instead of offering it to a dead link. All of it is fixed
//! when the link is built ([`LinkFaults`]).

use crate::daemon::DaemonRole;
use crate::fault::{AtomicRng, Lifecycle, LinkFaults};
use crate::stream::StreamMessage;
use iosim_time::{Epoch, SimDuration};
use std::sync::atomic::{AtomicU64, Ordering};

/// A one-way transport link.
#[derive(Debug)]
pub struct TransportLink {
    /// Link name (e.g. "ugni", "site-net").
    pub name: String,
    /// Per-message latency (seconds).
    pub latency_s: f64,
    /// Link bandwidth (bytes/s).
    pub bandwidth: f64,
    /// Drop one message every `n` (0 = never); models best-effort loss.
    drop_every: u64,
    /// Per-message drop probability in `[0, 1]` (0 = never).
    loss_prob: f64,
    rng: AtomicRng,
    lifecycle: Lifecycle,
    sent: AtomicU64,
    dropped: AtomicU64,
}

impl TransportLink {
    /// Creates a link with the given performance characteristics.
    pub(crate) fn new(name: &str, latency_s: f64, bandwidth: f64) -> Self {
        Self {
            name: name.to_string(),
            latency_s,
            bandwidth,
            drop_every: 0,
            loss_prob: 0.0,
            rng: AtomicRng::new(0),
            lifecycle: Lifecycle::default(),
            sent: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// UGNI-like defaults for the compute→head hop.
    pub fn ugni() -> Self {
        Self::new("ugni", 3.0e-6, 8.0e9)
    }

    /// Site-network defaults for the head→remote-cluster hop.
    pub fn site_network() -> Self {
        Self::new("site-net", 250.0e-6, 1.0e9)
    }

    /// The link out of a daemon of `role`: UGNI off a compute node, the
    /// site network off an aggregator.
    pub fn out_of(role: DaemonRole) -> Self {
        match role {
            DaemonRole::Sampler => Self::ugni(),
            _ => Self::site_network(),
        }
    }

    /// The link with `faults` scripted on it. A flapped-down link
    /// refuses messages outright — the failure is visible to the
    /// sender, so the daemon layer can park the message for retry
    /// rather than losing it silently.
    pub(crate) fn with_faults(self, faults: LinkFaults) -> Self {
        let (loss_prob, seed) = faults.loss;
        Self {
            drop_every: faults.drop_every,
            loss_prob,
            rng: AtomicRng::new(seed),
            lifecycle: faults.flaps,
            ..self
        }
    }

    /// True when the link is flapped down at `t`.
    pub(crate) fn is_down(&self, t: Epoch) -> bool {
        !self.lifecycle.is_up(t)
    }

    /// Earliest instant `>= t` at which the link is up again.
    pub(crate) fn next_up(&self, t: Epoch) -> Epoch {
        self.lifecycle.next_up(t)
    }

    /// Start of the contiguous flap window containing `t` (`None`
    /// when the link is up). Heartbeat-based route election measures
    /// missed beats against this.
    pub(crate) fn down_since(&self, t: Epoch) -> Option<Epoch> {
        self.lifecycle.down_since(t)
    }

    /// Instant since which the link has been continuously up at `t`
    /// (`None` when down). Used by failback hysteresis.
    pub(crate) fn up_since(&self, t: Epoch) -> Option<Epoch> {
        self.lifecycle.up_since(t)
    }

    /// Transit time for a message of `bytes`.
    pub(crate) fn delay(&self, bytes: usize) -> SimDuration {
        SimDuration::from_secs_f64(self.latency_s + bytes as f64 / self.bandwidth)
    }

    /// Carries a message across the link: stamps delay and hop count.
    /// Returns `false`, leaving the message untouched, when it is
    /// dropped (silent loss — the sender cannot tell; flap windows are
    /// checked by the sender via [`TransportLink::is_down`] *before*
    /// offering the message).
    pub(crate) fn carry(&self, msg: &mut StreamMessage) -> bool {
        let n = self.sent.fetch_add(1, Ordering::Relaxed) + 1;
        if self.drop_every > 0 && n % self.drop_every == 0 {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        if self.loss_prob > 0.0 && self.rng.next_f64() < self.loss_prob {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        msg.recv_time = msg.recv_time + self.delay(msg.len());
        msg.hops += 1;
        true
    }
}

/// Counter reads for the unit tests.
#[cfg(test)]
impl TransportLink {
    /// Messages offered to the link.
    pub(crate) fn sent(&self) -> u64 {
        self.sent.load(Ordering::Relaxed)
    }

    /// Messages dropped by the link.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::MsgFormat;
    use iosim_time::Epoch;

    fn msg(data: &str) -> StreamMessage {
        StreamMessage::new(
            "t",
            MsgFormat::Json,
            data.to_string(),
            "nid1",
            Epoch::from_secs(10),
        )
    }

    #[test]
    fn carry_accumulates_delay_and_hops() {
        let l1 = TransportLink::ugni();
        let l2 = TransportLink::site_network();
        let mut m = msg("hello");
        assert!(l1.carry(&mut m) && l2.carry(&mut m));
        assert_eq!(m.hops, 2);
        let total_delay = m.recv_time.since(m.publish_time).as_secs_f64();
        assert!(total_delay >= 250.0e-6);
        assert!(total_delay < 1e-3);
    }

    fn lossy(loss: (f64, u64)) -> TransportLink {
        TransportLink::ugni().with_faults(LinkFaults {
            loss,
            ..LinkFaults::default()
        })
    }

    #[test]
    fn loss_injection_drops_every_nth() {
        let l = TransportLink::ugni().with_faults(LinkFaults {
            drop_every: 3,
            ..LinkFaults::default()
        });
        let mut delivered = 0;
        for _ in 0..9 {
            if l.carry(&mut msg("x")) {
                delivered += 1;
            }
        }
        assert_eq!(delivered, 6);
        assert_eq!(l.dropped(), 3);
        assert_eq!(l.sent(), 9);
    }

    #[test]
    fn probabilistic_loss_is_seeded_and_near_rate() {
        let run = |seed| {
            let l = lossy((0.25, seed));
            (0..2000).filter(|_| !l.carry(&mut msg("x"))).count()
        };
        let a = run(7);
        assert_eq!(a, run(7), "same seed reproduces the same drops");
        assert_ne!(a, run(8), "different seed, different drops");
        let rate = a as f64 / 2000.0;
        assert!((rate - 0.25).abs() < 0.05, "observed rate {rate}");
    }

    #[test]
    fn zero_probability_never_drops() {
        let l = lossy((0.0, 1));
        for _ in 0..100 {
            assert!(l.carry(&mut msg("x")));
        }
        assert_eq!(l.dropped(), 0);
    }

    #[test]
    fn flap_window_marks_link_down() {
        assert!(!TransportLink::site_network().is_down(Epoch::from_secs(5)));
        let mut flaps = Lifecycle::default();
        flaps.schedule_down(Epoch::from_secs(10), Epoch::from_secs(20));
        let l = TransportLink::site_network().with_faults(LinkFaults {
            flaps,
            ..LinkFaults::default()
        });
        assert!(!l.is_down(Epoch::from_secs(5)));
        assert!(l.is_down(Epoch::from_secs(15)));
        assert!(!l.is_down(Epoch::from_secs(20)));
        assert_eq!(l.next_up(Epoch::from_secs(15)), Epoch::from_secs(20));
    }

    #[test]
    fn bandwidth_term_scales_with_size() {
        let l = TransportLink::new("slow", 0.0, 1000.0);
        assert!((l.delay(500).as_secs_f64() - 0.5).abs() < 1e-9);
    }
}
