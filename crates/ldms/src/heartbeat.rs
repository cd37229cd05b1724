//! Heartbeat-based liveness detection for upstream route election.
//!
//! The paper's topology (Fig. 1) has exactly one route from the
//! compute nodes to the remote store: samplers → head-node L1 → L2.
//! A dead head node severs it. The failover layer lets a daemon hold
//! a *ranked list* of upstream routes; a route is declared dead only
//! after [`MISS_THRESHOLD`] heartbeat intervals of continuous
//! unreachability (so a blip does not trigger an election), and a
//! recovered higher-ranked route is trusted again only after it has
//! stayed up for [`FAILBACK_HOLD`] (hysteresis, so a flapping primary
//! does not bounce traffic back and forth).
//!
//! The election itself lives in [`crate::daemon`]; this module is just
//! the policy, which every deployment shares.

use iosim_time::SimDuration;

/// Virtual interval between heartbeats.
pub(crate) const HEARTBEAT_INTERVAL: SimDuration = SimDuration::from_secs(1);

/// Consecutive missed heartbeats before a route is declared dead and a
/// standby is elected.
pub(crate) const MISS_THRESHOLD: u64 = 3;

/// Hysteresis hold: a recovered higher-ranked route must stay up
/// continuously this long before traffic fails back to it.
pub const FAILBACK_HOLD: SimDuration = SimDuration::from_secs(10);

/// Virtual time from a route going down to its death being detectable:
/// a hop with standbys parks traffic this long before failing over.
pub const DETECT_AFTER: SimDuration =
    SimDuration::from_nanos(HEARTBEAT_INTERVAL.as_nanos() * MISS_THRESHOLD);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_time_is_interval_times_misses() {
        assert_eq!(DETECT_AFTER, HEARTBEAT_INTERVAL * MISS_THRESHOLD);
        assert_eq!(DETECT_AFTER, SimDuration::from_secs(3));
    }
}
