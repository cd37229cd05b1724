//! Interconnect performance model (Cray Aries DragonFly analogue).

use iosim_time::SimDuration;

/// Latency/bandwidth model of the machine's interconnect, used to price
/// collectives and the two-phase I/O shuffle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interconnect {
    /// Per-hop message latency (seconds).
    pub latency_s: f64,
    /// Per-node injection bandwidth (bytes/s).
    pub node_bw: f64,
}

impl Default for Interconnect {
    /// Aries-like defaults: ~1.3 µs latency, ~10 GB/s injection.
    fn default() -> Self {
        Self {
            latency_s: 1.3e-6,
            node_bw: 10.0e9,
        }
    }
}

impl Interconnect {
    /// Latency of a dissemination-style collective over `ranks`
    /// participants: `latency × ⌈log2 ranks⌉`.
    pub(crate) fn collective_latency(&self, ranks: u32) -> SimDuration {
        let rounds = 32 - ranks.max(1).leading_zeros();
        SimDuration::from_secs_f64(self.latency_s * f64::from(rounds.max(1)))
    }

    /// Time for a collective that moves `bytes` through each
    /// participant's injection port, plus the dissemination latency.
    pub(crate) fn collective_transfer(&self, ranks: u32, bytes: u64) -> SimDuration {
        self.collective_latency(ranks) + SimDuration::from_secs_f64(bytes as f64 / self.node_bw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collective_latency_grows_logarithmically() {
        let ic = Interconnect::default();
        let l2 = ic.collective_latency(2);
        let l1024 = ic.collective_latency(1024);
        assert!(l1024.as_secs_f64() / l2.as_secs_f64() >= 4.9);
        assert!(l1024.as_secs_f64() / l2.as_secs_f64() <= 11.0);
    }

    #[test]
    fn transfer_includes_bandwidth_term() {
        let ic = Interconnect::default();
        let small = ic.collective_transfer(4, 0);
        let big = ic.collective_transfer(4, 10_000_000_000);
        assert!(big.as_secs_f64() - small.as_secs_f64() >= 0.99);
    }
}
