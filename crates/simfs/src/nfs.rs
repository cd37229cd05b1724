//! NFS performance model.
//!
//! Models the paper's NFS file system (Voltrino's home/project space): a
//! single server behind RPC round trips whose bandwidth is shared among
//! all active clients. Two properties matter for reproducing Table IIa:
//!
//! * aggregate bandwidth is low and flat — adding clients does not add
//!   bandwidth, so the MPI-IO benchmark is an order of magnitude slower
//!   than on Lustre;
//! * very large single transfers (what two-phase collective aggregators
//!   emit) overflow the server's write-behind cache and pay a penalty,
//!   which is why *collective* MPI-IO is slower than independent on NFS
//!   (1376.67 s vs 880.46 s in the paper) while the reverse holds on
//!   Lustre.

use crate::model::{transfer_secs, CacheState, FsKind, MetaKind, OpCtx, PerfModel, XferKind, MIB};
use iosim_time::SimDuration;

/// Tunable parameters of the NFS model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NfsParams {
    /// RPC round-trip latency per uncached operation (seconds).
    pub rpc_latency_s: f64,
    /// Amortized client-cache operation latency (seconds) for cached
    /// sequential reads / buffered writes.
    pub cached_op_latency_s: f64,
    /// Server read bandwidth shared by all clients (bytes/s).
    pub server_read_bw: f64,
    /// Server write bandwidth shared by all clients (bytes/s).
    pub server_write_bw: f64,
    /// Per-client link bandwidth cap (bytes/s).
    pub client_bw: f64,
    /// Transfers larger than this overflow the server write-behind
    /// cache (bytes).
    pub write_cache_bytes: u64,
    /// Multiplier applied to the bandwidth term of cache-overflowing
    /// writes.
    pub overflow_penalty: f64,
    /// Multiplier applied to unaligned transfers (read-modify-write of
    /// partial pages).
    pub unaligned_penalty: f64,
    /// Metadata operation latency (seconds) — open/close/stat.
    pub meta_latency_s: f64,
    /// Client cache bandwidth (bytes/s): cached reads and buffered
    /// small writes move at memory speed, not server speed.
    pub cache_bw: f64,
}

impl Default for NfsParams {
    /// Defaults sized to a mid-range NFS appliance, matching the
    /// aggregate throughput implied by the paper's Table IIa runtimes
    /// (≈125 MB/s aggregate for the MPI-IO benchmark).
    fn default() -> Self {
        Self {
            rpc_latency_s: 1.2e-3,
            cached_op_latency_s: 18e-6,
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
}

/// The NFS model.
#[derive(Debug, Clone)]
pub struct NfsModel {
    params: NfsParams,
}

impl NfsModel {
    /// Creates the model with the given parameters.
    pub fn new(params: NfsParams) -> Self {
        Self { params }
    }

    fn shared_bw(&self, kind: XferKind, clients: u32) -> f64 {
        let server = match kind {
            XferKind::Read => self.params.server_read_bw,
            XferKind::Write => self.params.server_write_bw,
        };
        (server / clients.max(1) as f64).min(self.params.client_bw)
    }
}

impl Default for NfsModel {
    fn default() -> Self {
        Self::new(NfsParams::default())
    }
}

impl PerfModel for NfsModel {
    fn kind(&self) -> FsKind {
        FsKind::Nfs
    }

    fn caches_own_writes(&self) -> bool {
        false // actimeo=0: reads always revalidate at the server
    }

    fn meta_op(&self, kind: MetaKind, ctx: &OpCtx) -> SimDuration {
        let base = match kind {
            MetaKind::Open => self.params.meta_latency_s * 1.5, // lookup + access + open
            MetaKind::Close => self.params.meta_latency_s * 0.5,
            MetaKind::Flush => self.params.meta_latency_s * 2.0, // COMMIT round trip
            MetaKind::Stat => self.params.meta_latency_s,
        };
        SimDuration::from_secs_f64(base * ctx.load_factor * ctx.jitter)
    }

    fn transfer(&self, kind: XferKind, bytes: u64, ctx: &OpCtx) -> SimDuration {
        match ctx.cached {
            CacheState::PageCache => {
                // Buffered/own pages: no server involvement.
                let secs =
                    self.params.cached_op_latency_s + transfer_secs(bytes, self.params.cache_bw);
                SimDuration::from_secs_f64(secs * ctx.load_factor * ctx.jitter)
            }
            CacheState::Readahead => {
                // Prefetch hides the RPC, but the bytes still come from
                // the server at its shared bandwidth.
                let secs = self.params.cached_op_latency_s
                    + transfer_secs(bytes, self.shared_bw(kind, ctx.active_clients));
                SimDuration::from_secs_f64(secs * ctx.load_factor * ctx.jitter)
            }
            CacheState::Miss => {
                let latency = self.params.rpc_latency_s;
                let mut bw_secs = transfer_secs(bytes, self.shared_bw(kind, ctx.active_clients));
                if kind == XferKind::Write && bytes > self.params.write_cache_bytes {
                    bw_secs *= self.params.overflow_penalty;
                }
                if !ctx.aligned {
                    bw_secs *= self.params.unaligned_penalty;
                }
                SimDuration::from_secs_f64((latency + bw_secs) * ctx.load_factor * ctx.jitter)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> OpCtx {
        OpCtx::neutral()
    }

    #[test]
    fn bandwidth_is_shared_not_scaled() {
        let m = NfsModel::default();
        let solo = m.transfer(XferKind::Write, 16 * 1024 * 1024, &ctx());
        let mut crowded_ctx = ctx();
        crowded_ctx.active_clients = 32;
        let crowded = m.transfer(XferKind::Write, 16 * 1024 * 1024, &crowded_ctx);
        // 32 clients share the same server: each sees ~32x the time.
        let ratio = crowded.as_secs_f64() / solo.as_secs_f64();
        assert!(ratio > 20.0, "expected heavy sharing, got ratio {ratio}");
    }

    #[test]
    fn cache_overflow_penalizes_huge_writes() {
        let m = NfsModel::default();
        let small = m.transfer(XferKind::Write, 32 * 1024 * 1024, &ctx());
        let huge = m.transfer(XferKind::Write, 256 * 1024 * 1024, &ctx());
        // 8x the bytes but with overflow penalty: clearly more than 8x.
        let ratio = huge.as_secs_f64() / small.as_secs_f64();
        assert!(ratio > 8.5, "overflow penalty missing, ratio {ratio}");
    }

    #[test]
    fn cached_ops_skip_the_rpc() {
        let m = NfsModel::default();
        let mut ra = ctx();
        ra.cached = CacheState::Readahead;
        let mut pc = ctx();
        pc.cached = CacheState::PageCache;
        let miss = m.transfer(XferKind::Read, 64, &ctx());
        let readahead = m.transfer(XferKind::Read, 64, &ra);
        let page = m.transfer(XferKind::Read, 64, &pc);
        assert!(readahead.as_secs_f64() < miss.as_secs_f64() / 5.0);
        assert!(page <= readahead);
    }

    #[test]
    fn readahead_still_pays_server_bandwidth() {
        let m = NfsModel::default();
        let mut ra = ctx();
        ra.cached = CacheState::Readahead;
        let mut pc = ctx();
        pc.cached = CacheState::PageCache;
        let big = 16 * 1024 * 1024;
        let from_server = m.transfer(XferKind::Read, big, &ra);
        let from_memory = m.transfer(XferKind::Read, big, &pc);
        assert!(from_server.as_secs_f64() > from_memory.as_secs_f64() * 10.0);
    }

    #[test]
    fn weather_scales_everything() {
        let m = NfsModel::default();
        let mut stormy = ctx();
        stormy.load_factor = 2.0;
        let calm_d = m.transfer(XferKind::Read, 1024 * 1024, &ctx());
        let storm_d = m.transfer(XferKind::Read, 1024 * 1024, &stormy);
        assert!((storm_d.as_secs_f64() / calm_d.as_secs_f64() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn meta_ops_have_expected_ordering() {
        let m = NfsModel::default();
        let open = m.meta_op(MetaKind::Open, &ctx());
        let close = m.meta_op(MetaKind::Close, &ctx());
        let flush = m.meta_op(MetaKind::Flush, &ctx());
        assert!(close < open && open < flush);
    }

    #[test]
    fn unaligned_costs_more() {
        let m = NfsModel::default();
        let mut unaligned = ctx();
        unaligned.aligned = false;
        let a = m.transfer(XferKind::Write, 4 * 1024 * 1024, &ctx());
        let u = m.transfer(XferKind::Write, 4 * 1024 * 1024, &unaligned);
        assert!(u > a);
    }
}
