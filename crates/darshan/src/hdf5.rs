//! The instrumented HDF5 modules (H5F file level, H5D dataset level).
//!
//! Darshan's HDF5 instrumentation contributes the `seg:` fields of
//! Table I that are meaningless for other modules (`ndims`, `npoints`,
//! `reg_hslab`, `irreg_hslab`, `pt_sel`, `data_set`) — the connector
//! publishes `-1`/`"N/A"` sentinels for non-HDF5 events and real values
//! for these. The model here is a minimal but faithful HDF5: files
//! contain named datasets with an n-dimensional dataspace; reads and
//! writes select all points, a regular hyperslab, an irregular
//! hyperslab union, or an explicit point selection; dataset bytes are
//! laid out contiguously in the underlying POSIX file.

use crate::hooks::Hdf5Info;
use crate::posix::{DarshanPosix, PosixHandle};
use crate::runtime::EventParams;
use crate::types::{record_id_of, ModuleId, OpKind};
use iosim_fs::{FsResult, IoCtx};
use iosim_mpi::PosixLayer;
use std::sync::Arc;

/// A dataspace selection for a dataset transfer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Selection {
    /// The whole dataspace.
    All,
    /// A regular hyperslab: `count` blocks of `block` elements with a
    /// uniform stride.
    RegularHyperslab {
        /// Number of blocks.
        count: u64,
        /// Elements per block.
        block: u64,
    },
    /// An irregular union of `pieces` hyperslabs totalling `points`
    /// elements.
    IrregularHyperslab {
        /// Number of disjoint pieces.
        pieces: u64,
        /// Total elements selected.
        points: u64,
    },
    /// An explicit point selection of `n` elements.
    Points(u64),
}

impl Selection {
    /// Number of elements this selection covers out of a dataspace of
    /// `total` points.
    pub(crate) fn npoints(&self, total: u64) -> u64 {
        match *self {
            Selection::All => total,
            Selection::RegularHyperslab { count, block } => (count * block).min(total),
            Selection::IrregularHyperslab { points, .. } => points.min(total),
            Selection::Points(n) => n.min(total),
        }
    }
}

/// An open HDF5 file.
pub struct H5File {
    ph: PosixHandle,
    path: Arc<str>,
    record_id: u64,
    cnt: u64,
    /// Next free byte for dataset allocation.
    alloc_cursor: u64,
}

/// An open dataset within an [`H5File`].
pub struct H5Dataset {
    /// Dataset name (`seg:data_set`).
    name: String,
    /// Record id of the dataset (hash of `file:dataset`, mirroring
    /// Darshan's per-dataset H5D records).
    record_id: u64,
    /// Dataspace dimensions.
    dims: Vec<u64>,
    /// Element size in bytes.
    elem_size: u64,
    /// Byte offset of the dataset within the file.
    base_offset: u64,
    /// Distinct selection shapes seen so far (`seg:pt_sel`).
    selections_seen: Vec<Selection>,
    cnt: u64,
}

impl H5Dataset {
    /// Total points in the dataspace.
    pub(crate) fn npoints_total(&self) -> u64 {
        self.dims.iter().product::<u64>()
    }

    /// Number of dimensions.
    pub(crate) fn ndims(&self) -> usize {
        self.dims.len()
    }
}

/// Per-rank instrumented HDF5 layer over the instrumented POSIX layer.
#[derive(Clone)]
pub struct DarshanHdf5 {
    posix: DarshanPosix,
}

impl DarshanHdf5 {
    /// Builds the HDF5 layer.
    pub fn new(posix: DarshanPosix) -> Self {
        Self { posix }
    }

    fn fire_h5f(&self, io: &mut IoCtx, f: &H5File, op: OpKind, start: iosim_time::TimePair) {
        let end = io.clock.time_pair();
        self.posix.runtime().io_event(
            &mut io.clock,
            EventParams {
                module: ModuleId::H5f,
                op,
                file: f.path.clone(),
                record_id: f.record_id,
                offset: None,
                len: None,
                start,
                end,
                cnt: f.cnt,
                hdf5: Some(Hdf5Info {
                    data_set: "N/A".to_string(),
                    ndims: -1,
                    npoints: -1,
                    reg_hslab: -1,
                    irreg_hslab: -1,
                    pt_sel: -1,
                }),
            },
        );
    }

    fn hdf5_info(d: &H5Dataset, sel: &Selection) -> Hdf5Info {
        let (reg, irreg) = match sel {
            Selection::RegularHyperslab { count, .. } => (*count as i64, 0),
            Selection::IrregularHyperslab { pieces, .. } => (0, *pieces as i64),
            _ => (0, 0),
        };
        Hdf5Info {
            data_set: d.name.clone(),
            ndims: d.ndims() as i64,
            npoints: d.npoints_total() as i64,
            reg_hslab: reg,
            irreg_hslab: irreg,
            pt_sel: d.selections_seen.len() as i64,
        }
    }

    /// `H5Fcreate`/`H5Fopen` analogue.
    pub fn open_file(&self, io: &mut IoCtx, path: &str, create: bool) -> FsResult<H5File> {
        let start = io.clock.time_pair();
        let ph = self
            .posix
            .open_instrumented(io, path, create, true, false)?;
        let mut f = H5File {
            // Dataset extents are allocated deterministically from the
            // sequence of create_dataset calls (all ranks make the same
            // calls in the same order), NOT from the momentary file
            // size, which races when many ranks create the same file.
            alloc_cursor: 0,
            ph,
            path: Arc::from(path),
            record_id: record_id_of(path),
            cnt: 1,
        };
        self.fire_h5f(io, &f, OpKind::Open, start);
        f.cnt = 1;
        Ok(f)
    }

    /// `H5Dcreate` analogue: allocates a contiguous dataset.
    pub fn create_dataset(
        &self,
        io: &mut IoCtx,
        f: &mut H5File,
        name: &str,
        dims: &[u64],
        elem_size: u64,
    ) -> FsResult<H5Dataset> {
        let start = io.clock.time_pair();
        let npoints: u64 = dims.iter().product();
        let base_offset = f.alloc_cursor;
        f.alloc_cursor += npoints * elem_size;
        let d = H5Dataset {
            name: name.to_string(),
            record_id: record_id_of(&format!("{}:{name}", f.path)),
            dims: dims.to_vec(),
            elem_size,
            base_offset,
            selections_seen: Vec::new(),
            cnt: 1,
        };
        let end = io.clock.time_pair();
        self.posix.runtime().io_event(
            &mut io.clock,
            EventParams {
                module: ModuleId::H5d,
                op: OpKind::Open,
                file: f.path.clone(),
                record_id: d.record_id,
                offset: None,
                len: None,
                start,
                end,
                cnt: d.cnt,
                hdf5: Some(Self::hdf5_info(&d, &Selection::All)),
            },
        );
        Ok(d)
    }

    fn dataset_xfer(
        &self,
        io: &mut IoCtx,
        f: &mut H5File,
        d: &mut H5Dataset,
        sel: Selection,
        is_write: bool,
    ) -> FsResult<u64> {
        let start = io.clock.time_pair();
        let points = sel.npoints(d.npoints_total());
        let bytes = points * d.elem_size;
        if is_write {
            self.posix
                .write_at(&mut *io, &mut f.ph, d.base_offset, bytes)?;
        } else {
            self.posix
                .read_at(&mut *io, &mut f.ph, d.base_offset, bytes)?;
        }
        if !d.selections_seen.contains(&sel) {
            d.selections_seen.push(sel.clone());
        }
        d.cnt += 1;
        f.cnt += 1;
        let end = io.clock.time_pair();
        self.posix.runtime().io_event(
            &mut io.clock,
            EventParams {
                module: ModuleId::H5d,
                op: if is_write {
                    OpKind::Write
                } else {
                    OpKind::Read
                },
                file: f.path.clone(),
                record_id: d.record_id,
                offset: Some(d.base_offset),
                len: Some(bytes),
                start,
                end,
                cnt: d.cnt,
                hdf5: Some(Self::hdf5_info(d, &sel)),
            },
        );
        Ok(bytes)
    }

    /// `H5Dwrite` analogue. Returns bytes written.
    pub fn write_dataset(
        &self,
        io: &mut IoCtx,
        f: &mut H5File,
        d: &mut H5Dataset,
        sel: Selection,
    ) -> FsResult<u64> {
        self.dataset_xfer(io, f, d, sel, true)
    }

    /// `H5Dread` analogue. Returns bytes read.
    pub fn read_dataset(
        &self,
        io: &mut IoCtx,
        f: &mut H5File,
        d: &mut H5Dataset,
        sel: Selection,
    ) -> FsResult<u64> {
        self.dataset_xfer(io, f, d, sel, false)
    }

    /// `H5Dclose` analogue.
    pub fn close_dataset(&self, io: &mut IoCtx, f: &H5File, d: &mut H5Dataset) {
        let start = io.clock.time_pair();
        d.cnt += 1;
        let end = io.clock.time_pair();
        self.posix.runtime().io_event(
            &mut io.clock,
            EventParams {
                module: ModuleId::H5d,
                op: OpKind::Close,
                file: f.path.clone(),
                record_id: d.record_id,
                offset: None,
                len: None,
                start,
                end,
                cnt: d.cnt,
                hdf5: Some(Self::hdf5_info(d, &Selection::All)),
            },
        );
        d.cnt = 0;
    }

    /// `H5Fflush` analogue (counted in Table I's `flushes` for H5F).
    pub fn flush_file(&self, io: &mut IoCtx, f: &mut H5File) -> FsResult<()> {
        let start = io.clock.time_pair();
        self.posix.flush(io, &mut f.ph)?;
        f.cnt += 1;
        self.fire_h5f(io, f, OpKind::Flush, start);
        Ok(())
    }

    /// `H5Fclose` analogue.
    pub fn close_file(&self, io: &mut IoCtx, mut f: H5File) -> FsResult<()> {
        let start = io.clock.time_pair();
        self.posix.close(io, &mut f.ph)?;
        f.cnt += 1;
        self.fire_h5f(io, &f, OpKind::Close, start);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::CollectingSink;
    use crate::runtime::{JobMeta, RankRuntime};
    use iosim_fs::nfs::NfsModel;
    use iosim_fs::{SimFs, Weather};
    use iosim_time::Epoch;

    fn setup() -> (DarshanHdf5, Arc<CollectingSink>, IoCtx) {
        let fs = SimFs::new(Box::<NfsModel>::default(), Weather::calm(), 1024 * 1024);
        let rt = RankRuntime::new(JobMeta::new(7, 100, "/apps/sw4", 1), 0);
        let sink = Arc::new(CollectingSink::new());
        rt.set_sink(Some(sink.clone()));
        let io = IoCtx::new(1, 0, 0, Epoch::from_secs(1_650_000_000)).with_jitter(0.0);
        (DarshanHdf5::new(DarshanPosix::new(fs, rt)), sink, io)
    }

    #[test]
    fn dataset_roundtrip_with_hdf5_fields() {
        let (h5, sink, mut io) = setup();
        let mut f = h5.open_file(&mut io, "/mesh.h5", true).unwrap();
        let mut d = h5
            .create_dataset(&mut io, &mut f, "velocity", &[64, 64, 8], 8)
            .unwrap();
        let wrote = h5
            .write_dataset(&mut io, &mut f, &mut d, Selection::All)
            .unwrap();
        assert_eq!(wrote, 64 * 64 * 8 * 8);
        h5.read_dataset(
            &mut io,
            &mut f,
            &mut d,
            Selection::RegularHyperslab {
                count: 4,
                block: 512,
            },
        )
        .unwrap();
        h5.flush_file(&mut io, &mut f).unwrap();
        h5.close_dataset(&mut io, &f, &mut d);
        h5.close_file(&mut io, f).unwrap();

        let evs = sink.take();
        let h5d_write = evs
            .iter()
            .find(|e| e.module == ModuleId::H5d && e.op == OpKind::Write)
            .unwrap();
        let info = h5d_write.hdf5.as_ref().unwrap();
        assert_eq!(info.data_set, "velocity");
        assert_eq!(info.ndims, 3);
        assert_eq!(info.npoints, 64 * 64 * 8);
        let h5d_read = evs
            .iter()
            .find(|e| e.module == ModuleId::H5d && e.op == OpKind::Read)
            .unwrap();
        let rinfo = h5d_read.hdf5.as_ref().unwrap();
        assert_eq!(rinfo.reg_hslab, 4);
        assert_eq!(rinfo.pt_sel, 2); // two distinct selections seen
                                     // H5F flush is counted in flushes.
        let h5f_flush = evs
            .iter()
            .find(|e| e.module == ModuleId::H5f && e.op == OpKind::Flush)
            .unwrap();
        assert_eq!(h5f_flush.flushes, 1);
        // POSIX events fired underneath (HDF5 sits on POSIX).
        assert!(evs.iter().any(|e| e.module == ModuleId::Posix));
    }

    #[test]
    fn selections_compute_npoints() {
        assert_eq!(Selection::All.npoints(100), 100);
        assert_eq!(
            Selection::RegularHyperslab {
                count: 3,
                block: 10
            }
            .npoints(100),
            30
        );
        assert_eq!(
            Selection::IrregularHyperslab {
                pieces: 5,
                points: 37
            }
            .npoints(100),
            37
        );
        assert_eq!(Selection::Points(7).npoints(100), 7);
        // Clamped by the dataspace.
        assert_eq!(Selection::Points(1000).npoints(100), 100);
    }

    #[test]
    fn multiple_datasets_allocate_disjoint_extents() {
        let (h5, sink, mut io) = setup();
        let mut f = h5.open_file(&mut io, "/multi.h5", true).unwrap();
        let mut a = h5.create_dataset(&mut io, &mut f, "a", &[128], 4).unwrap();
        let mut b = h5.create_dataset(&mut io, &mut f, "b", &[128], 4).unwrap();
        h5.write_dataset(&mut io, &mut f, &mut a, Selection::All)
            .unwrap();
        h5.write_dataset(&mut io, &mut f, &mut b, Selection::All)
            .unwrap();
        let evs = sink.take();
        let posix_writes: Vec<_> = evs
            .iter()
            .filter(|e| e.module == ModuleId::Posix && e.op == OpKind::Write)
            .collect();
        assert_eq!(posix_writes.len(), 2);
        assert_ne!(posix_writes[0].offset, posix_writes[1].offset);
    }
}
