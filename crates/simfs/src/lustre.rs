//! Lustre performance model.
//!
//! Models the paper's Lustre scratch file system: metadata is served by
//! an MDS, file data is striped over OSTs, and aggregate bandwidth
//! scales with the stripe width actually exercised. The property that
//! reproduces Table IIa's collective-vs-independent inversion is
//! *extent-lock contention*: when many clients write a shared file with
//! unaligned, interleaved extents, each OST serializes conflicting lock
//! grants, so independent MPI-IO (428.18 s in the paper) loses to
//! collective, stripe-aligned two-phase I/O (249.97 s).

use crate::model::{transfer_secs, CacheState, FsKind, MetaKind, OpCtx, PerfModel, XferKind, MIB};
use iosim_time::SimDuration;

/// Tunable parameters of the Lustre model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LustreParams {
    /// MDS request latency (seconds) for namespace operations.
    pub mds_latency_s: f64,
    /// Client-side cached operation latency (seconds).
    pub cached_op_latency_s: f64,
    /// Per-OST bandwidth (bytes/s).
    pub ost_bw: f64,
    /// Number of OSTs in the file system.
    pub ost_count: u32,
    /// Default stripe count for new files.
    pub stripe_count: u32,
    /// Stripe size (bytes); aligned accesses are multiples of this.
    pub stripe_size: u64,
    /// Per-client link bandwidth cap (bytes/s).
    pub client_bw: f64,
    /// Per-RPC latency for uncached data operations (seconds).
    pub rpc_latency_s: f64,
    /// Extra latency per conflicting extent-lock acquisition (seconds),
    /// paid by unaligned writes to a shared file.
    pub lock_latency_s: f64,
    /// Bandwidth penalty multiplier for unaligned shared-file writes.
    pub false_sharing_penalty: f64,
    /// Bandwidth penalty when many more clients than
    /// `many_clients_threshold` hammer a shared file concurrently (OST
    /// seek storms and LDLM traffic) — the reason independent MPI-IO
    /// loses to collective on Lustre in Table IIa.
    pub many_clients_penalty: f64,
    /// Client count beyond which [`Self::many_clients_penalty`]
    /// applies.
    pub many_clients_threshold: u32,
    /// Client cache bandwidth (bytes/s) for cached operations.
    pub cache_bw: f64,
}

impl Default for LustreParams {
    /// Defaults sized to a small Cray-attached Lustre (a handful of
    /// OSTs), matching the ≈450 MB/s aggregate implied by Table IIa.
    fn default() -> Self {
        Self {
            mds_latency_s: 0.35e-3,
            cached_op_latency_s: 6e-6,
            ost_bw: 160.0 * MIB,
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
}

/// The Lustre model.
#[derive(Debug, Clone)]
pub struct LustreModel {
    params: LustreParams,
}

impl LustreModel {
    /// Creates the model with the given parameters.
    pub fn new(params: LustreParams) -> Self {
        Self { params }
    }

    /// Effective per-client bandwidth: the client's share of the OSTs
    /// its file stripes over, capped by its link.
    fn shared_bw(&self, clients: u32) -> f64 {
        let p = &self.params;
        // Clients spread across all OSTs; a single file sees its
        // stripe_count's worth, the population shares ost_count's worth.
        let aggregate = p.ost_bw * p.ost_count.min(p.stripe_count * clients) as f64;
        (aggregate / clients.max(1) as f64).min(p.client_bw)
    }
}

impl Default for LustreModel {
    fn default() -> Self {
        Self::new(LustreParams::default())
    }
}

impl PerfModel for LustreModel {
    fn kind(&self) -> FsKind {
        FsKind::Lustre
    }

    fn meta_op(&self, kind: MetaKind, ctx: &OpCtx) -> SimDuration {
        let p = &self.params;
        let base = match kind {
            // open = MDS lookup + layout fetch
            MetaKind::Open => p.mds_latency_s * 2.0,
            MetaKind::Close => p.mds_latency_s,
            // flush commits dirty extents on each stripe's OST
            MetaKind::Flush => p.mds_latency_s + p.rpc_latency_s * p.stripe_count as f64,
            MetaKind::Stat => p.mds_latency_s,
        };
        SimDuration::from_secs_f64(base * ctx.load_factor * ctx.jitter)
    }

    fn transfer(&self, kind: XferKind, bytes: u64, ctx: &OpCtx) -> SimDuration {
        let p = &self.params;
        match ctx.cached {
            CacheState::PageCache => {
                // Valid extent lock: the client's pages are
                // authoritative; no server round trip.
                let secs = p.cached_op_latency_s + transfer_secs(bytes, p.cache_bw);
                return SimDuration::from_secs_f64(secs * ctx.load_factor * ctx.jitter);
            }
            CacheState::Readahead => {
                // Prefetched from the OSTs: cheap latency, OST bandwidth.
                let secs = p.cached_op_latency_s
                    + transfer_secs(bytes, self.shared_bw(ctx.active_clients));
                return SimDuration::from_secs_f64(secs * ctx.load_factor * ctx.jitter);
            }
            CacheState::Miss => {}
        }
        let mut latency = p.rpc_latency_s;
        let mut bw_secs = transfer_secs(bytes, self.shared_bw(ctx.active_clients));
        if kind == XferKind::Write && ctx.shared_file && !ctx.aligned {
            // Conflicting extent locks: extra lock round trips plus
            // serialized grants at the OSTs.
            let extents = (bytes / p.stripe_size).max(1) as f64;
            latency += p.lock_latency_s * extents.min(8.0);
            bw_secs *= p.false_sharing_penalty;
        }
        if ctx.shared_file && ctx.active_clients > p.many_clients_threshold {
            // Hundreds of clients interleaving extents on the same
            // OSTs: per-OST seek storms degrade streaming bandwidth.
            bw_secs *= p.many_clients_penalty;
        }
        SimDuration::from_secs_f64((latency + bw_secs) * ctx.load_factor * ctx.jitter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> OpCtx {
        OpCtx::neutral()
    }

    #[test]
    fn aggregate_bandwidth_scales_with_clients() {
        let m = LustreModel::default();
        // One client sees stripe_count OSTs; 8 clients saturate all
        // OSTs, so per-client time grows less than linearly.
        let solo = m.transfer(XferKind::Write, 64 * 1024 * 1024, &ctx());
        let mut crowded = ctx();
        crowded.active_clients = 8;
        let shared = m.transfer(XferKind::Write, 64 * 1024 * 1024, &crowded);
        let ratio = shared.as_secs_f64() / solo.as_secs_f64();
        assert!(ratio < 6.0, "Lustre should scale with OSTs, ratio {ratio}");
        assert!(
            ratio > 1.5,
            "but 8 clients on 8 OSTs still share, ratio {ratio}"
        );
    }

    #[test]
    fn lustre_beats_nfs_at_scale() {
        use crate::nfs::NfsModel;
        let lustre = LustreModel::default();
        let nfs = NfsModel::default();
        let mut many = ctx();
        many.active_clients = 352; // the paper's 22-node MPI-IO run
        let l = lustre.transfer(XferKind::Write, 16 * 1024 * 1024, &many);
        let n = nfs.transfer(XferKind::Write, 16 * 1024 * 1024, &many);
        assert!(
            n.as_secs_f64() / l.as_secs_f64() > 2.0,
            "NFS {n} should be much slower than Lustre {l} at 352 clients"
        );
    }

    #[test]
    fn unaligned_shared_writes_pay_lock_contention() {
        let m = LustreModel::default();
        let mut shared_unaligned = ctx();
        shared_unaligned.shared_file = true;
        shared_unaligned.aligned = false;
        let clean = m.transfer(XferKind::Write, 16 * 1024 * 1024, &ctx());
        let contended = m.transfer(XferKind::Write, 16 * 1024 * 1024, &shared_unaligned);
        assert!(contended.as_secs_f64() > clean.as_secs_f64() * 1.3);
    }

    #[test]
    fn reads_do_not_pay_write_lock_contention() {
        let m = LustreModel::default();
        let mut shared_unaligned = ctx();
        shared_unaligned.shared_file = true;
        shared_unaligned.aligned = false;
        let r1 = m.transfer(XferKind::Read, 16 * 1024 * 1024, &ctx());
        let r2 = m.transfer(XferKind::Read, 16 * 1024 * 1024, &shared_unaligned);
        assert_eq!(r1, r2);
    }

    #[test]
    fn many_clients_on_shared_file_pay_seek_storms() {
        let m = LustreModel::default();
        let mut few = ctx();
        few.shared_file = true;
        few.active_clients = 22; // collective aggregators: under threshold
        let mut many = few;
        many.active_clients = 352; // independent: every rank hits the OSTs
        let t_few = m.transfer(XferKind::Write, 16 * 1024 * 1024, &few);
        let t_many = m.transfer(XferKind::Write, 16 * 1024 * 1024, &many);
        // 16x the clients, but with the seek-storm penalty the slowdown
        // exceeds pure bandwidth sharing (both see all 8 OSTs).
        let pure_sharing = 352.0 / 22.0;
        let ratio = t_many.as_secs_f64() / t_few.as_secs_f64();
        assert!(ratio > pure_sharing * 1.4, "ratio {ratio}");
    }

    #[test]
    fn metadata_faster_than_nfs() {
        use crate::nfs::NfsModel;
        let l = LustreModel::default().meta_op(MetaKind::Open, &ctx());
        let n = NfsModel::default().meta_op(MetaKind::Open, &ctx());
        assert!(l < n);
    }
}
