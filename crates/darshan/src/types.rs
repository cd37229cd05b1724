//! Core identifiers shared by all Darshan modules.

use iosim_util::fnv1a64;

/// The instrumentation modules (Section IV.A lists Darshan's levels:
/// POSIX, STDIO, LUSTRE, … for non-MPI and MPIIO, HDF5, … for MPI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ModuleId {
    /// POSIX file operations.
    Posix,
    /// MPI-IO operations.
    Mpiio,
    /// Buffered stdio operations.
    Stdio,
    /// HDF5 file-level operations.
    H5f,
    /// HDF5 dataset-level operations.
    H5d,
    /// Lustre striping information (static per-file record).
    Lustre,
    /// Parallel netCDF (over MPI-IO).
    Pnetcdf,
}

impl ModuleId {
    /// Module name as published in the connector's `module` field.
    pub fn name(self) -> &'static str {
        match self {
            ModuleId::Posix => "POSIX",
            ModuleId::Mpiio => "MPIIO",
            ModuleId::Stdio => "STDIO",
            ModuleId::H5f => "H5F",
            ModuleId::H5d => "H5D",
            ModuleId::Lustre => "LUSTRE",
            ModuleId::Pnetcdf => "PNETCDF",
        }
    }

    /// Stable numeric id used in the binary log format.
    pub fn code(self) -> u8 {
        match self {
            ModuleId::Posix => 0,
            ModuleId::Mpiio => 1,
            ModuleId::Stdio => 2,
            ModuleId::H5f => 3,
            ModuleId::H5d => 4,
            ModuleId::Lustre => 5,
            ModuleId::Pnetcdf => 6,
        }
    }

    /// Inverse of [`ModuleId::code`].
    pub(crate) fn from_code(c: u8) -> Option<Self> {
        Some(match c {
            0 => ModuleId::Posix,
            1 => ModuleId::Mpiio,
            2 => ModuleId::Stdio,
            3 => ModuleId::H5f,
            4 => ModuleId::H5d,
            5 => ModuleId::Lustre,
            6 => ModuleId::Pnetcdf,
            _ => return None,
        })
    }

    /// All modules, in log order.
    #[cfg(test)]
    pub(crate) fn all() -> [ModuleId; 7] {
        [
            ModuleId::Posix,
            ModuleId::Mpiio,
            ModuleId::Stdio,
            ModuleId::H5f,
            ModuleId::H5d,
            ModuleId::Lustre,
            ModuleId::Pnetcdf,
        ]
    }
}

/// Operation kinds the connector publishes (`op` in Table I:
/// read, write, open, close — plus flush for the HDF5 modules).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// File/dataset open.
    Open,
    /// File/dataset close.
    Close,
    /// Read.
    Read,
    /// Write.
    Write,
    /// Flush (`fsync`/`H5Fflush`).
    Flush,
}

impl OpKind {
    /// Operation name as published in the connector's `op` field.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Open => "open",
            OpKind::Close => "close",
            OpKind::Read => "read",
            OpKind::Write => "write",
            OpKind::Flush => "flush",
        }
    }

    /// Stable numeric id for the log/DXT encoding.
    pub fn code(self) -> u8 {
        match self {
            OpKind::Open => 0,
            OpKind::Close => 1,
            OpKind::Read => 2,
            OpKind::Write => 3,
            OpKind::Flush => 4,
        }
    }

    /// Inverse of [`OpKind::code`].
    pub(crate) fn from_code(c: u8) -> Option<Self> {
        Some(match c {
            0 => OpKind::Open,
            1 => OpKind::Close,
            2 => OpKind::Read,
            3 => OpKind::Write,
            4 => OpKind::Flush,
            _ => return None,
        })
    }
}

/// Computes the Darshan record id of a file path: a stable hash every
/// rank derives independently, so records for the same file can be
/// merged without communication.
pub fn record_id_of(path: &str) -> u64 {
    fnv1a64(path.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn module_codes_round_trip() {
        for m in ModuleId::all() {
            assert_eq!(ModuleId::from_code(m.code()), Some(m));
        }
        assert_eq!(ModuleId::from_code(99), None);
    }

    #[test]
    fn op_codes_round_trip() {
        for op in [
            OpKind::Open,
            OpKind::Close,
            OpKind::Read,
            OpKind::Write,
            OpKind::Flush,
        ] {
            assert_eq!(OpKind::from_code(op.code()), Some(op));
        }
        assert_eq!(OpKind::from_code(77), None);
    }

    #[test]
    fn record_ids_are_stable_and_path_sensitive() {
        assert_eq!(record_id_of("/a/b"), record_id_of("/a/b"));
        assert_ne!(record_id_of("/a/b"), record_id_of("/a/c"));
    }

    #[test]
    fn module_names_match_paper() {
        assert_eq!(ModuleId::Posix.name(), "POSIX");
        assert_eq!(ModuleId::Mpiio.name(), "MPIIO");
        assert_eq!(ModuleId::H5f.name(), "H5F");
    }
}
