//! Traffic accounting for a file-system instance.

use std::sync::atomic::{AtomicU64, Ordering};

/// Cumulative operation and byte counters, updated lock-free by all
/// rank threads.
#[derive(Debug, Default)]
pub(crate) struct FsStats {
    /// Number of open operations.
    pub opens: AtomicU64,
    /// Number of close operations.
    pub closes: AtomicU64,
    /// Number of read operations.
    pub reads: AtomicU64,
    /// Number of write operations.
    pub writes: AtomicU64,
    /// Number of flush operations.
    pub flushes: AtomicU64,
    /// Bytes read.
    pub bytes_read: AtomicU64,
    /// Bytes written.
    pub bytes_written: AtomicU64,
}

/// A plain-value snapshot of [`FsStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FsStatsSnapshot {
    /// Number of open operations.
    pub opens: u64,
    /// Number of close operations.
    pub closes: u64,
    /// Number of read operations.
    pub reads: u64,
    /// Number of write operations.
    pub writes: u64,
    /// Number of flush operations.
    pub flushes: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
}

impl FsStats {
    /// Takes a consistent-enough snapshot (counters are independent).
    pub(crate) fn snapshot(&self) -> FsStatsSnapshot {
        FsStatsSnapshot {
            opens: self.opens.load(Ordering::Relaxed),
            closes: self.closes.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counters() {
        let s = FsStats::default();
        s.reads.fetch_add(3, Ordering::Relaxed);
        s.bytes_read.fetch_add(4096, Ordering::Relaxed);
        let snap = s.snapshot();
        assert_eq!(snap.reads, 3);
        assert_eq!(snap.bytes_read, 4096);
        assert_eq!(
            snap.opens + snap.closes + snap.reads + snap.writes + snap.flushes,
            3
        );
    }
}
