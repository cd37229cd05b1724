//! Fault injection: component lifecycles, a seeded RNG, and chaos
//! scripts.
//!
//! The paper's deployment is implicitly always-up: daemons never crash
//! and links never flap. Production-scale monitoring cannot assume
//! that, so this module models scheduled *downtime windows* in virtual
//! time ([`Lifecycle`]) for both daemons and transport links, plus a
//! declarative [`FaultScript`] a network is built with
//! ([`crate::NetworkOpts::faults`]) to run a whole overhead campaign
//! under injected faults. All randomness is drawn from the seeded,
//! reproducible [`SimRng`] so campaigns stay replayable.

use iosim_time::Epoch;
use std::sync::atomic::{AtomicU64, Ordering};

/// A small deterministic PRNG (splitmix64), used for probabilistic
/// loss and retry jitter. Sequences depend only on the seed.
#[derive(Debug, Clone)]
pub struct SimRng {
    state: u64,
}

impl SimRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.state)
    }

    /// Next draw in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// splitmix64 finalizer: avalanches one 64-bit state word.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Lock-free variant of [`SimRng`] for sampling from shared components
/// (a [`crate::TransportLink`] or a retry queue draws through `&self`).
#[derive(Debug)]
pub(crate) struct AtomicRng {
    state: AtomicU64,
}

impl AtomicRng {
    pub(crate) fn new(seed: u64) -> Self {
        Self {
            state: AtomicU64::new(seed),
        }
    }

    pub(crate) fn next_f64(&self) -> f64 {
        let s = self
            .state
            .fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed)
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        (mix64(s) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Up/Down schedule of one component (daemon or link) in virtual time.
///
/// A component is up unless the queried instant falls inside a
/// scheduled downtime window `[from, until)`. Windows may overlap or
/// chain; [`Lifecycle::next_up`] resolves through all of them. The
/// windows are fixed when the component is built.
#[derive(Debug, Default)]
pub struct Lifecycle {
    windows: Vec<(Epoch, Epoch)>,
}

impl Lifecycle {
    /// Schedules a downtime window `[from, until)`. Empty or inverted
    /// windows are ignored.
    pub(crate) fn schedule_down(&mut self, from: Epoch, until: Epoch) {
        if until > from {
            self.windows.push((from, until));
        }
    }

    /// True when the component is up at `t`.
    pub(crate) fn is_up(&self, t: Epoch) -> bool {
        !self
            .windows
            .iter()
            .any(|&(from, until)| from <= t && t < until)
    }

    /// Earliest instant `>= t` at which the component is up. Chained
    /// and overlapping windows are resolved transitively.
    pub(crate) fn next_up(&self, t: Epoch) -> Epoch {
        let mut t = t;
        loop {
            match self
                .windows
                .iter()
                .find(|&&(from, until)| from <= t && t < until)
            {
                Some(&(_, until)) => t = until,
                None => return t,
            }
        }
    }

    /// True when no downtime is scheduled at all (fast path).
    pub(crate) fn always_up(&self) -> bool {
        self.windows.is_empty()
    }

    /// Start of the contiguous downtime containing `t`, resolving
    /// overlapping and chained windows backwards. `None` when the
    /// component is up at `t`. This is what heartbeat-based liveness
    /// detection measures missed beats against.
    pub(crate) fn down_since(&self, t: Epoch) -> Option<Epoch> {
        let mut start = self
            .windows
            .iter()
            .find(|&&(from, until)| from <= t && t < until)?
            .0;
        loop {
            match self
                .windows
                .iter()
                .find(|&&(from, until)| from < start && until >= start)
            {
                Some(&(from, _)) => start = from,
                None => return Some(start),
            }
        }
    }

    /// Instant since which the component has been continuously up at
    /// `t` (the epoch origin when it never went down). `None` when the
    /// component is down at `t`. Failback hysteresis compares this
    /// against a hold time before trusting a recovered route again.
    pub(crate) fn up_since(&self, t: Epoch) -> Option<Epoch> {
        if !self.is_up(t) {
            return None;
        }
        Some(
            self.windows
                .iter()
                .filter(|&&(_, until)| until <= t)
                .map(|&(_, until)| until)
                .max()
                .unwrap_or(Epoch::from_nanos(0)),
        )
    }
}

/// One fault to inject. Components are addressed by daemon name; the
/// aliases `"l1"` / `"l2"` address the aggregators of a
/// [`crate::LdmsNetwork`] without knowing their host names. Link
/// faults apply to the *upstream* link owned by the named daemon
/// (e.g. the UGNI hop out of a compute node, or the site-network hop
/// out of the L1 aggregator).
#[derive(Debug, Clone)]
pub enum FaultSpec {
    /// Crash the daemon at `from` and restart it at `until`.
    DaemonOutage {
        /// Daemon name (or `"l1"` / `"l2"`).
        daemon: String,
        /// Crash instant.
        from: Epoch,
        /// Restart instant.
        until: Epoch,
    },
    /// Take the daemon's upstream link down for `[from, until)`.
    LinkFlap {
        /// Owning daemon name (or `"l1"` / `"l2"`).
        daemon: String,
        /// Flap start.
        from: Epoch,
        /// Flap end.
        until: Epoch,
    },
    /// Drop each message crossing the daemon's upstream link with
    /// probability `prob`, sampled from a seeded reproducible RNG.
    LinkLossProb {
        /// Owning daemon name (or `"l1"` / `"l2"`).
        daemon: String,
        /// Per-message drop probability in `[0, 1]`.
        prob: f64,
        /// RNG seed.
        seed: u64,
    },
    /// Drop every `n`-th message crossing the daemon's upstream link
    /// (the deterministic legacy loss model; 0 disables).
    LinkDropEvery {
        /// Owning daemon name (or `"l1"` / `"l2"`).
        daemon: String,
        /// Drop period (0 = never).
        every: u64,
    },
    /// Crash-stop the daemon at `at` and restart it at `restart`.
    /// Unlike [`FaultSpec::DaemonOutage`] — which only makes the
    /// daemon unreachable — a crash *drops all volatile state*: every
    /// message parked in the daemon's retry queue is lost unless a
    /// durable write-ahead log record covers it, in which case it is
    /// replayed on restart.
    Crash {
        /// Daemon name (or `"l1"` / `"l2"` / `"standby"`).
        daemon: String,
        /// Crash instant.
        at: Epoch,
        /// Restart instant (must be after `at`).
        restart: Epoch,
    },
    /// Crash-stop a DSOS storage daemon at `at`: its volatile replica
    /// state is destroyed and it answers no queries until a scripted
    /// [`FaultSpec::RestartDsosd`]. Handled by the DSOS cluster, not
    /// the LDMS transport network.
    CrashDsosd {
        /// Storage daemon name (`"dsosd-0"`) or bare index (`"0"`).
        daemon: String,
        /// Crash instant.
        at: Epoch,
    },
    /// Restart a crashed DSOS storage daemon at `at`; the cluster's
    /// anti-entropy pass rebuilds the returning replica from peers.
    RestartDsosd {
        /// Storage daemon name (`"dsosd-0"`) or bare index (`"0"`).
        daemon: String,
        /// Restart instant.
        at: Epoch,
    },
}

/// A declarative chaos schedule: an ordered list of faults a network is
/// built with.
#[derive(Debug, Clone, Default)]
pub struct FaultScript {
    specs: Vec<FaultSpec>,
}

impl FaultScript {
    /// Creates an empty script (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a daemon crash/restart window.
    pub fn daemon_outage(mut self, daemon: &str, from: Epoch, until: Epoch) -> Self {
        self.specs.push(FaultSpec::DaemonOutage {
            daemon: daemon.to_string(),
            from,
            until,
        });
        self
    }

    /// Adds a link flap window on the daemon's upstream link.
    pub fn link_flap(mut self, daemon: &str, from: Epoch, until: Epoch) -> Self {
        self.specs.push(FaultSpec::LinkFlap {
            daemon: daemon.to_string(),
            from,
            until,
        });
        self
    }

    /// Adds seeded probabilistic loss on the daemon's upstream link.
    pub fn link_loss_prob(mut self, daemon: &str, prob: f64, seed: u64) -> Self {
        self.specs.push(FaultSpec::LinkLossProb {
            daemon: daemon.to_string(),
            prob,
            seed,
        });
        self
    }

    /// Adds deterministic every-`n`-th loss on the daemon's upstream
    /// link.
    pub fn link_drop_every(mut self, daemon: &str, every: u64) -> Self {
        self.specs.push(FaultSpec::LinkDropEvery {
            daemon: daemon.to_string(),
            every,
        });
        self
    }

    /// Adds a crash-stop/restart pair: the daemon loses all volatile
    /// state at `at` and replays its write-ahead log at `restart`.
    pub fn crash(mut self, daemon: &str, at: Epoch, restart: Epoch) -> Self {
        self.specs.push(FaultSpec::Crash {
            daemon: daemon.to_string(),
            at,
            restart,
        });
        self
    }

    /// Adds a DSOS storage-daemon crash (volatile replica state is
    /// destroyed at `at`).
    pub fn crash_dsosd(mut self, daemon: &str, at: Epoch) -> Self {
        self.specs.push(FaultSpec::CrashDsosd {
            daemon: daemon.to_string(),
            at,
        });
        self
    }

    /// Adds a DSOS storage-daemon restart (anti-entropy rebuild at
    /// `at`).
    pub fn restart_dsosd(mut self, daemon: &str, at: Epoch) -> Self {
        self.specs.push(FaultSpec::RestartDsosd {
            daemon: daemon.to_string(),
            at,
        });
        self
    }

    /// The scripted faults, in order.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// Sorts the transport faults by the daemon they target: entry `i`
    /// holds what the script does to the daemon `resolve` maps to `i`,
    /// of `daemons`. Specs naming no daemon are skipped, so one script
    /// serves any topology; storage-tier specs are the DSOS cluster's.
    /// A repeated loss spec on one link overrides the earlier one.
    pub(crate) fn by_daemon(
        &self,
        daemons: usize,
        resolve: impl Fn(&str) -> Option<usize>,
    ) -> Vec<DaemonFaults> {
        let mut out: Vec<DaemonFaults> = (0..daemons).map(|_| DaemonFaults::default()).collect();
        for spec in &self.specs {
            let (FaultSpec::DaemonOutage { daemon, .. }
            | FaultSpec::LinkFlap { daemon, .. }
            | FaultSpec::LinkLossProb { daemon, .. }
            | FaultSpec::LinkDropEvery { daemon, .. }
            | FaultSpec::Crash { daemon, .. }
            | FaultSpec::CrashDsosd { daemon, .. }
            | FaultSpec::RestartDsosd { daemon, .. }) = spec;
            let Some(i) = resolve(daemon) else { continue };
            let target = &mut out[i];
            match *spec {
                FaultSpec::DaemonOutage { from, until, .. } => {
                    target.down.schedule_down(from, until)
                }
                FaultSpec::Crash { at, restart, .. } if restart > at => {
                    target.down.schedule_down(at, restart);
                    target.crashes.push((at, restart));
                }
                FaultSpec::LinkFlap { from, until, .. } => {
                    target.link.flaps.schedule_down(from, until);
                }
                FaultSpec::LinkLossProb { prob, seed, .. } => {
                    target.link.loss = (prob.clamp(0.0, 1.0), seed);
                }
                FaultSpec::LinkDropEvery { every, .. } => target.link.drop_every = every,
                FaultSpec::Crash { .. }
                | FaultSpec::CrashDsosd { .. }
                | FaultSpec::RestartDsosd { .. } => {}
            }
        }
        out
    }
}

/// What a [`FaultScript`] does to one daemon of a network: its downtime
/// and crash-stop windows, and the faults of its primary upstream link
/// (ignored when it has none).
#[derive(Debug, Default)]
pub(crate) struct DaemonFaults {
    /// Outage and crash windows, in script order.
    pub(crate) down: Lifecycle,
    /// Crash-stop windows `(at, restart)`, in script order.
    pub(crate) crashes: Vec<(Epoch, Epoch)>,
    /// The primary upstream link's faults.
    pub(crate) link: LinkFaults,
}

/// The faults of one transport link.
#[derive(Debug, Default)]
pub(crate) struct LinkFaults {
    /// Flap windows: the link refuses messages while down.
    pub(crate) flaps: Lifecycle,
    /// Drop every `n`-th message crossing the link (0 = never).
    pub(crate) drop_every: u64,
    /// Per-message drop probability in `[0, 1]`, and the seed its
    /// draws come from.
    pub(crate) loss: (f64, u64),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_uniform_ish() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        let draws: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        assert_eq!(draws, (0..8).map(|_| b.next_u64()).collect::<Vec<_>>());
        let mut c = SimRng::new(43);
        assert_ne!(draws[0], c.next_u64());
        let mean: f64 = (0..1000).map(|_| a.next_f64()).sum::<f64>() / 1000.0;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean} far from 0.5");
    }

    #[test]
    fn lifecycle_windows_and_next_up() {
        let mut lc = Lifecycle::default();
        assert!(lc.always_up());
        lc.schedule_down(Epoch::from_secs(10), Epoch::from_secs(20));
        lc.schedule_down(Epoch::from_secs(20), Epoch::from_secs(25));
        assert!(lc.is_up(Epoch::from_secs(9)));
        assert!(!lc.is_up(Epoch::from_secs(10)));
        assert!(!lc.is_up(Epoch::from_secs(22)));
        assert!(lc.is_up(Epoch::from_secs(25)));
        // Chained windows resolve transitively.
        assert_eq!(lc.next_up(Epoch::from_secs(15)), Epoch::from_secs(25));
        assert_eq!(lc.next_up(Epoch::from_secs(5)), Epoch::from_secs(5));
    }

    #[test]
    fn down_since_and_up_since_resolve_chained_windows() {
        let mut lc = Lifecycle::default();
        assert_eq!(lc.up_since(Epoch::from_secs(5)), Some(Epoch::from_nanos(0)));
        assert_eq!(lc.down_since(Epoch::from_secs(5)), None);
        lc.schedule_down(Epoch::from_secs(10), Epoch::from_secs(20));
        lc.schedule_down(Epoch::from_secs(15), Epoch::from_secs(30));
        assert_eq!(
            lc.down_since(Epoch::from_secs(25)),
            Some(Epoch::from_secs(10))
        );
        assert_eq!(lc.up_since(Epoch::from_secs(25)), None);
        assert_eq!(
            lc.up_since(Epoch::from_secs(31)),
            Some(Epoch::from_secs(30))
        );
        assert_eq!(lc.down_since(Epoch::from_secs(9)), None);
    }

    #[test]
    fn inverted_window_is_ignored() {
        let mut lc = Lifecycle::default();
        lc.schedule_down(Epoch::from_secs(20), Epoch::from_secs(10));
        assert!(lc.always_up());
    }

    #[test]
    fn script_collects_specs_in_order() {
        let s = FaultScript::new()
            .daemon_outage("l2", Epoch::from_secs(1), Epoch::from_secs(2))
            .link_loss_prob("nid00040", 0.25, 7);
        assert_eq!(s.specs().len(), 2);
        assert!(matches!(
            s.specs()[1],
            FaultSpec::LinkLossProb { prob, seed: 7, .. } if (prob - 0.25).abs() < 1e-12
        ));
    }
}
