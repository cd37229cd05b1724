//! The simulated Voltrino platform (Section V.B).
//!
//! "The Voltrino Cray XC40 system … has 24 diskless nodes with Dual
//! Intel Xeon Haswell E5-2698 v3 … connected with a Cray Aries
//! DragonFly interconnect. The machine has two file systems: the
//! network file system (NFS) and the Lustre file system."
//!
//! The NFS parameters are tuned so the MPI-IO benchmark's aggregate
//! throughput lands near the paper's ≈125 MB/s, with a high per-op
//! client overhead (`actimeo=0`-style attribute revalidation) that is
//! what makes HMMER's millions of tiny stdio reads slow on NFS. The
//! Lustre parameters give ≈320 MB/s aggregate over 8 OSTs with the
//! seek-storm penalty beyond 32 concurrent clients.

use iosim_fs::lustre::{LustreModel, LustreParams};
use iosim_fs::model::MIB;
use iosim_fs::nfs::{NfsModel, NfsParams};
use iosim_fs::{CongestionWindow, SimFs, Weather, WeatherParams};
use iosim_mpi::Interconnect;

/// Which of Voltrino's two file systems a run targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FsChoice {
    /// The shared NFS file system.
    Nfs,
    /// The Lustre scratch file system.
    Lustre,
}

impl FsChoice {
    /// Display name, as in the paper's tables.
    pub(crate) fn name(self) -> &'static str {
        match self {
            FsChoice::Nfs => "NFS",
            FsChoice::Lustre => "Lustre",
        }
    }

    /// Both file systems, NFS first (Table II column order).
    pub(crate) fn both() -> [FsChoice; 2] {
        [FsChoice::Nfs, FsChoice::Lustre]
    }
}

/// Voltrino's tuned NFS parameters.
pub(crate) fn voltrino_nfs_params() -> NfsParams {
    NfsParams {
        rpc_latency_s: 1.2e-3,
        // actimeo=0-style revalidation: every client-cached operation
        // still pays a client-side check. This is the HMMER killer.
        cached_op_latency_s: 210e-6,
        server_read_bw: 140.0 * MIB,
        server_write_bw: 125.0 * MIB,
        client_bw: 1000.0 * MIB,
        write_cache_bytes: 64 * 1024 * 1024,
        overflow_penalty: 1.75,
        unaligned_penalty: 1.15,
        meta_latency_s: 2.0e-3,
        cache_bw: 6.0e9,
    }
}

/// Voltrino's tuned Lustre parameters.
pub(crate) fn voltrino_lustre_params() -> LustreParams {
    LustreParams {
        mds_latency_s: 0.35e-3,
        cached_op_latency_s: 6e-6,
        ost_bw: 40.0 * MIB,
        ost_count: 8,
        stripe_count: 4,
        stripe_size: 1024 * 1024,
        client_bw: 1200.0 * MIB,
        rpc_latency_s: 0.25e-3,
        lock_latency_s: 0.9e-3,
        false_sharing_penalty: 1.55,
        many_clients_penalty: 1.8,
        many_clients_threshold: 32,
        cache_bw: 8.0e9,
    }
}

/// The platform: file-system factory plus machine constants.
#[derive(Debug, Clone, Copy)]
pub struct Platform;

impl Platform {
    /// Natural alignment used by both file systems (NFS wsize / Lustre
    /// stripe size).
    pub(crate) const ALIGNMENT: u64 = 1024 * 1024;

    /// First compute-node id (Cray `nid00040`-style numbering, matching
    /// the `nid00046` of the paper's Figure 3).
    pub(crate) const FIRST_NODE: u32 = 40;

    /// Builds a file system with the given campaign weather (`None` =
    /// calm) and any congestion windows (for the job-2 anomaly
    /// injection).
    pub(crate) fn filesystem(
        fs: FsChoice,
        campaign_seed: Option<u64>,
        congestion: &[CongestionWindow],
    ) -> SimFs {
        let mut weather = match campaign_seed {
            Some(seed) => Weather::new(WeatherParams::from_campaign_seed(seed)),
            None => Weather::calm(),
        };
        for &w in congestion {
            weather = weather.with_congestion(w);
        }
        match fs {
            FsChoice::Nfs => SimFs::new(
                Box::new(NfsModel::new(voltrino_nfs_params())),
                weather,
                Self::ALIGNMENT,
            ),
            FsChoice::Lustre => SimFs::new(
                Box::new(LustreModel::new(voltrino_lustre_params())),
                weather,
                Self::ALIGNMENT,
            ),
        }
    }

    /// A calm-weather file system (unit load factor) for tests and
    /// calibration.
    #[cfg(test)]
    pub(crate) fn calm_filesystem(fs: FsChoice) -> SimFs {
        Self::filesystem(fs, None, &[])
    }

    /// The Aries interconnect.
    pub(crate) fn interconnect() -> Interconnect {
        Interconnect::default()
    }

    /// Node names for a job of `nodes` nodes.
    pub(crate) fn node_names(nodes: u32) -> Vec<String> {
        (0..nodes)
            .map(|i| format!("nid{:05}", Self::FIRST_NODE + i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosim_fs::IoCtx;
    use iosim_time::Epoch;

    #[test]
    fn node_names_match_cray_convention() {
        let names = Platform::node_names(3);
        assert_eq!(names, vec!["nid00040", "nid00041", "nid00042"]);
    }

    #[test]
    fn filesystems_have_expected_kinds() {
        assert_eq!(Platform::calm_filesystem(FsChoice::Nfs).kind_name(), "NFS");
        assert_eq!(
            Platform::calm_filesystem(FsChoice::Lustre).kind_name(),
            "Lustre"
        );
    }

    #[test]
    fn lustre_outpaces_nfs_for_bulk_io() {
        let mut ctx = IoCtx::new(1, 0, 0, Epoch::from_secs(0)).with_jitter(0.0);
        let mut times = Vec::new();
        for fs in FsChoice::both() {
            let sim = Platform::calm_filesystem(fs);
            sim.set_active_clients(352);
            let (mut h, _) = sim.open(&mut ctx, "/bulk", true, true, true).unwrap();
            let t = sim.write_at(&mut ctx, &mut h, 0, 16 * 1024 * 1024).unwrap();
            times.push(t.duration.as_secs_f64());
        }
        assert!(
            times[0] > times[1] * 1.2,
            "NFS {} vs Lustre {}",
            times[0],
            times[1]
        );
    }

    #[test]
    fn campaign_seeds_change_weather() {
        let a = Platform::filesystem(FsChoice::Nfs, Some(1), &[]);
        let b = Platform::filesystem(FsChoice::Nfs, Some(2), &[]);
        // Same op under different campaigns costs differently.
        let mut ctx_a = IoCtx::new(1, 0, 0, Epoch::from_secs(0)).with_jitter(0.0);
        let mut ctx_b = IoCtx::new(1, 0, 0, Epoch::from_secs(0)).with_jitter(0.0);
        let (mut ha, _) = a.open(&mut ctx_a, "/w", true, true, false).unwrap();
        let (mut hb, _) = b.open(&mut ctx_b, "/w", true, true, false).unwrap();
        let ta = a.write_at(&mut ctx_a, &mut ha, 0, 8 * 1024 * 1024).unwrap();
        let tb = b.write_at(&mut ctx_b, &mut hb, 0, 8 * 1024 * 1024).unwrap();
        assert_ne!(ta.duration, tb.duration);
    }
}
