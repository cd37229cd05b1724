//! In-memory virtual file store: namespace and metadata only.
//!
//! The simulation never materializes file *contents* — the workloads and
//! Darshan only care about offsets, lengths, and timing. The store
//! tracks per-file size (writes extend it, reads are bounded by it) so
//! read-back validation phases like HACC-IO's behave faithfully.

use crate::error::{FsError, FsResult};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Stable identifier of a file within one store instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct FileId(pub u64);

/// Metadata for one file.
#[derive(Debug, Default)]
pub(crate) struct FileMeta {
    /// Current size in bytes (highest written offset + length).
    pub size: AtomicU64,
    /// Number of times the file has been opened over its lifetime.
    pub open_count: AtomicU64,
}

/// The shared namespace: path → id → metadata.
#[derive(Debug, Default)]
pub(crate) struct FileStore {
    by_path: RwLock<HashMap<String, FileId>>,
    metas: RwLock<HashMap<FileId, Arc<FileMeta>>>,
    next_id: AtomicU64,
}

impl FileStore {
    /// Creates an empty store.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Looks up a file, creating it when `create` is set.
    pub(crate) fn open(&self, path: &str, create: bool) -> FsResult<(FileId, Arc<FileMeta>)> {
        if let Some(&fid) = self.by_path.read().get(path) {
            let meta = self.metas.read()[&fid].clone();
            meta.open_count.fetch_add(1, Ordering::Relaxed);
            return Ok((fid, meta));
        }
        if !create {
            return Err(FsError::NotFound(path.to_string()));
        }
        let mut by_path = self.by_path.write();
        // Re-check under the write lock: another rank may have created
        // the file between our read and write acquisitions.
        if let Some(&fid) = by_path.get(path) {
            let meta = self.metas.read()[&fid].clone();
            meta.open_count.fetch_add(1, Ordering::Relaxed);
            return Ok((fid, meta));
        }
        let fid = FileId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let meta = Arc::new(FileMeta::default());
        meta.open_count.fetch_add(1, Ordering::Relaxed);
        by_path.insert(path.to_string(), fid);
        self.metas.write().insert(fid, meta.clone());
        Ok((fid, meta))
    }

    /// Returns a file's current size, or an error if it does not exist.
    pub(crate) fn size_of(&self, path: &str) -> FsResult<u64> {
        let by_path = self.by_path.read();
        let fid = by_path
            .get(path)
            .ok_or_else(|| FsError::NotFound(path.to_string()))?;
        Ok(self.metas.read()[fid].size.load(Ordering::Relaxed))
    }

    /// Grows `meta` to cover a write of `len` bytes at `offset`.
    pub(crate) fn extend(meta: &FileMeta, offset: u64, len: u64) {
        let end = offset.saturating_add(len);
        meta.size.fetch_max(end, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_then_reopen() {
        let store = FileStore::new();
        let (fid1, _) = store.open("/a", true).unwrap();
        let (fid2, meta) = store.open("/a", false).unwrap();
        assert_eq!(fid1, fid2);
        assert_eq!(meta.open_count.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn open_missing_without_create_fails() {
        let store = FileStore::new();
        assert_eq!(
            store.open("/missing", false).unwrap_err(),
            FsError::NotFound("/missing".to_string())
        );
    }

    #[test]
    fn writes_extend_size_monotonically() {
        let store = FileStore::new();
        let (_, meta) = store.open("/f", true).unwrap();
        FileStore::extend(&meta, 0, 100);
        FileStore::extend(&meta, 50, 10); // inside existing extent
        assert_eq!(meta.size.load(Ordering::Relaxed), 100);
        FileStore::extend(&meta, 200, 1);
        assert_eq!(meta.size.load(Ordering::Relaxed), 201);
    }

    #[test]
    fn concurrent_create_yields_one_file() {
        let store = Arc::new(FileStore::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let s = store.clone();
            handles.push(std::thread::spawn(move || {
                s.open("/shared", true).unwrap().0
            }));
        }
        let ids: Vec<FileId> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(store.by_path.read().len(), 1);
    }
}
