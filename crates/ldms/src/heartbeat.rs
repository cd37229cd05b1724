//! Heartbeat-based liveness detection for upstream route election.
//!
//! The paper's topology (Fig. 1) has exactly one route from the
//! compute nodes to the remote store: samplers → head-node L1 → L2.
//! A dead head node severs it. The failover layer lets a daemon hold
//! a *ranked list* of upstream routes; a route is declared dead only
//! after [`HeartbeatConfig::miss_threshold`] heartbeat intervals of
//! continuous unreachability (so a blip does not trigger an election),
//! and a recovered higher-ranked route is trusted again only after it
//! has stayed up for [`HeartbeatConfig::hold`] (hysteresis, so a
//! flapping primary does not bounce traffic back and forth).
//!
//! The election itself lives in [`crate::daemon`]; this module is just
//! the tunable policy.

use iosim_time::SimDuration;

/// Liveness-detection and failover policy for one daemon's upstream
/// route set.
#[derive(Debug, Clone, Copy)]
pub struct HeartbeatConfig {
    /// Virtual interval between heartbeats.
    pub interval: SimDuration,
    /// Consecutive missed heartbeats before a route is declared dead
    /// and a standby is elected.
    pub miss_threshold: u32,
    /// Hysteresis hold: a recovered higher-ranked route must stay up
    /// continuously this long before traffic fails back to it.
    pub hold: SimDuration,
}

impl HeartbeatConfig {
    /// Virtual time from a route going down to its death being
    /// detectable (`interval × miss_threshold`).
    pub(crate) fn detect_after(&self) -> SimDuration {
        self.interval * u64::from(self.miss_threshold.max(1))
    }
}

/// Builders only the unit tests call; everything else sets the
/// `pub` fields.
#[cfg(test)]
impl HeartbeatConfig {
    /// Sets the heartbeat interval.
    pub(crate) fn with_interval(mut self, interval: SimDuration) -> Self {
        self.interval = interval;
        self
    }

    /// Sets the missed-beat threshold (clamped to at least 1).
    pub(crate) fn with_miss_threshold(mut self, n: u32) -> Self {
        self.miss_threshold = n.max(1);
        self
    }

    /// Sets the failback hold time.
    pub(crate) fn with_hold(mut self, hold: SimDuration) -> Self {
        self.hold = hold;
        self
    }
}

impl Default for HeartbeatConfig {
    /// 1 s beats, 3 misses to declare death, 10 s failback hold.
    fn default() -> Self {
        Self {
            interval: SimDuration::from_secs(1),
            miss_threshold: 3,
            hold: SimDuration::from_secs(10),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_time_is_interval_times_misses() {
        let hb = HeartbeatConfig::default();
        assert_eq!(hb.detect_after(), SimDuration::from_secs(3));
        let fast = hb
            .with_interval(SimDuration::from_millis(100))
            .with_miss_threshold(5);
        assert_eq!(fast.detect_after(), SimDuration::from_millis(500));
    }

    #[test]
    fn miss_threshold_never_drops_below_one() {
        let hb = HeartbeatConfig::default().with_miss_threshold(0);
        assert_eq!(hb.miss_threshold, 1);
    }
}
