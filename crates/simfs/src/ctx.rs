//! Per-rank I/O context: virtual clock + deterministic jitter source.

use iosim_time::{Clock, Epoch};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Everything a simulated rank carries into an I/O call.
///
/// Owning the clock and jitter RNG per rank (instead of sharing them)
/// keeps operation durations independent of thread scheduling: the
/// sequence of jitter draws for a rank depends only on `(seed, rank)`
/// and the order of that rank's own operations.
#[derive(Debug)]
pub struct IoCtx {
    /// This rank's virtual clock.
    pub clock: Clock,
    /// MPI rank number.
    pub rank: u32,
    /// Compute-node index the rank is placed on (the paper's
    /// `ProducerName` is derived from this, e.g. `nid00046`).
    pub node: u32,
    rng: SmallRng,
    /// Relative jitter half-width (e.g. 0.05 = ±5%).
    jitter: f64,
    /// When set, overrides the file system's registered client count
    /// for operations issued by this rank. The two-phase collective
    /// path sets this to the aggregator count while aggregators do the
    /// actual transfers — only they contend for the servers during that
    /// phase.
    pub concurrency_override: Option<u32>,
}

impl IoCtx {
    /// Creates a context for `rank` on `node`, anchored at `epoch_base`,
    /// with jitter draws seeded by `(seed, rank)`.
    pub fn new(seed: u64, rank: u32, node: u32, epoch_base: Epoch) -> Self {
        let rng = SmallRng::seed_from_u64(seed ^ (u64::from(rank) << 32) ^ 0x9e37_79b9_7f4a_7c15);
        Self {
            clock: Clock::new(epoch_base),
            rank,
            node,
            rng,
            jitter: 0.05,
            concurrency_override: None,
        }
    }

    /// Overrides the jitter half-width (0 disables jitter entirely,
    /// useful in tests that assert exact durations).
    pub fn with_jitter(mut self, jitter: f64) -> Self {
        self.jitter = jitter.max(0.0);
        self
    }

    /// Draws a multiplicative jitter factor in `[1-j, 1+j]`.
    pub(crate) fn jitter_factor(&mut self) -> f64 {
        if self.jitter == 0.0 {
            1.0
        } else {
            1.0 + self.rng.gen_range(-self.jitter..=self.jitter)
        }
    }

    /// Node name in the Cray `nidXXXXX` convention.
    pub fn producer_name(&self) -> String {
        format!("nid{:05}", self.node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_sequence_is_deterministic_per_rank() {
        let mut a = IoCtx::new(7, 3, 0, Epoch::from_secs(0));
        let mut b = IoCtx::new(7, 3, 0, Epoch::from_secs(0));
        for _ in 0..100 {
            assert_eq!(a.jitter_factor(), b.jitter_factor());
        }
    }

    #[test]
    fn different_ranks_diverge() {
        let mut a = IoCtx::new(7, 0, 0, Epoch::from_secs(0));
        let mut b = IoCtx::new(7, 1, 0, Epoch::from_secs(0));
        let same = (0..32)
            .filter(|_| a.jitter_factor() == b.jitter_factor())
            .count();
        assert!(same < 4, "rank streams should be effectively independent");
    }

    #[test]
    fn jitter_bounds_hold() {
        let mut c = IoCtx::new(1, 0, 0, Epoch::from_secs(0));
        for _ in 0..1000 {
            let f = c.jitter_factor();
            assert!((0.95..=1.05).contains(&f));
        }
    }

    #[test]
    fn zero_jitter_is_exactly_one() {
        let mut c = IoCtx::new(1, 0, 0, Epoch::from_secs(0)).with_jitter(0.0);
        assert_eq!(c.jitter_factor(), 1.0);
    }

    #[test]
    fn producer_name_format() {
        let c = IoCtx::new(1, 0, 46, Epoch::from_secs(0));
        assert_eq!(c.producer_name(), "nid00046");
    }
}
