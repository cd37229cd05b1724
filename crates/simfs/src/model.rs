//! The performance-model interface shared by NFS and Lustre.

use iosim_time::SimDuration;

/// Which file system a model represents (surfaces in experiment labels).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FsKind {
    /// Network File System (single server).
    Nfs,
    /// Lustre (striped parallel file system).
    Lustre,
}

impl FsKind {
    /// Display name as used in the paper's tables.
    pub(crate) fn name(self) -> &'static str {
        match self {
            FsKind::Nfs => "NFS",
            FsKind::Lustre => "Lustre",
        }
    }
}

/// Metadata operation classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetaKind {
    /// `open`/`create` — namespace lookup plus handle establishment.
    Open,
    /// `close` — handle teardown (Lustre may flush dirty extents).
    Close,
    /// `flush`/`fsync` — force dirty data to the server/OSTs.
    Flush,
    /// `stat`-like lookup.
    Stat,
}

/// Data-transfer direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XferKind {
    /// Read from the file system.
    Read,
    /// Write to the file system.
    Write,
}

/// How an access relates to the client cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheState {
    /// Cold access: full RPC latency plus server bandwidth.
    Miss,
    /// Sequential access inside the readahead window (or a buffered
    /// small write): the *latency* is hidden by prefetch/write-behind,
    /// but the bytes still cross the wire at the server's shared
    /// bandwidth.
    Readahead,
    /// The client's own cached pages (Lustre under a valid extent
    /// lock): no server involvement, memory-speed transfer.
    PageCache,
}

/// Per-operation context handed to the model.
#[derive(Debug, Clone, Copy)]
pub struct OpCtx {
    /// Number of clients actively using this file system in the job
    /// (registered at mount time); bandwidth is shared among them.
    pub active_clients: u32,
    /// Weather factor at the operation's start time (multiplies the
    /// modelled duration).
    pub load_factor: f64,
    /// Per-operation multiplicative jitter from the rank's RNG.
    pub jitter: f64,
    /// Whether the access is aligned to the file system's natural
    /// boundary (stripe-aligned on Lustre, page/wsize-aligned on NFS).
    /// Collective two-phase I/O produces aligned accesses.
    pub aligned: bool,
    /// Whether the target file is concurrently shared by many ranks
    /// (single-shared-file workloads pay lock contention on Lustre).
    pub shared_file: bool,
    /// The access's relation to the client cache. Readahead/buffered
    /// accesses pay amortized latency instead of a full RPC — what lets
    /// HMMER issue millions of tiny operations in minutes — while page
    /// cache hits skip the server entirely.
    pub cached: CacheState,
}

impl OpCtx {
    /// A neutral context used by unit tests: one client, calm weather,
    /// no jitter, aligned access to an unshared file.
    #[cfg(test)]
    pub(crate) fn neutral() -> Self {
        Self {
            active_clients: 1,
            load_factor: 1.0,
            jitter: 1.0,
            aligned: true,
            shared_file: false,
            cached: CacheState::Miss,
        }
    }
}

/// A file-system performance model: pure functions from operation
/// descriptions to durations. Implementations must be deterministic —
/// all randomness comes in through `OpCtx::jitter`.
pub trait PerfModel: Send + Sync {
    /// Which file system this models.
    fn kind(&self) -> FsKind;

    /// Duration of a metadata operation.
    fn meta_op(&self, kind: MetaKind, ctx: &OpCtx) -> SimDuration;

    /// Duration of a data transfer of `bytes`.
    fn transfer(&self, kind: XferKind, bytes: u64, ctx: &OpCtx) -> SimDuration;

    /// Whether a client's reads of data it wrote through a still-open
    /// handle are served from its page cache. True for Lustre (valid
    /// extent lock ⇒ cached pages are authoritative); false for NFS
    /// mounted with `actimeo=0`, where every read revalidates at the
    /// server — the setting HPC centres use for coherence and the
    /// reason the paper's NFS runtimes pay for both phases.
    fn caches_own_writes(&self) -> bool {
        true
    }
}

/// Helper: seconds for `bytes` at `bw` bytes/second.
pub(crate) fn transfer_secs(bytes: u64, bw: f64) -> f64 {
    if bw <= 0.0 {
        return 0.0;
    }
    bytes as f64 / bw
}

/// One mebibyte, the unit most model parameters are expressed in.
pub const MIB: f64 = 1024.0 * 1024.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_match_paper() {
        assert_eq!(FsKind::Nfs.name(), "NFS");
        assert_eq!(FsKind::Lustre.name(), "Lustre");
    }

    #[test]
    fn transfer_secs_basics() {
        assert!((transfer_secs(1024, 1024.0) - 1.0).abs() < 1e-12);
        assert_eq!(transfer_secs(100, 0.0), 0.0);
    }
}
