//! The durable protocol: the ordered file operations of a flush and of a
//! snapshot. The plans are pure values; the store runs them through its
//! one file-system seam, [`Fs`] ([`RealFs`] in production; the crash
//! explorer, `tests/accountsdb_crash.rs`, records them and reopens every
//! image a crash after each one may leave). DESIGN §12 tables the ops and
//! the crash model.

use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};

pub(crate) const MANIFEST_FILE: &str = "MANIFEST";
pub(crate) const STORAGE_DIR: &str = "storage";

/// One file-system operation of the durable protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsOp {
    /// Create the file, or truncate the one of that name, holding the bytes.
    Write(PathBuf, Vec<u8>),
    /// Make the file's contents durable.
    SyncFile(PathBuf),
    /// Make the directory's entries durable: the files created and
    /// renamed in it.
    SyncDir(PathBuf),
    /// Atomically replace the second path with the first.
    Rename(PathBuf, PathBuf),
}

/// Where the store's file operations run.
pub trait Fs: std::fmt::Debug + Send + Sync {
    /// Performs one operation.
    ///
    /// # Errors
    ///
    /// Whatever the file system reports.
    fn apply(&self, op: &FsOp) -> io::Result<()>;
}

/// The real file system.
#[derive(Debug)]
pub struct RealFs;

impl Fs for RealFs {
    fn apply(&self, op: &FsOp) -> io::Result<()> {
        match op {
            FsOp::Write(path, bytes) => std::fs::write(path, bytes),
            FsOp::SyncFile(path) => File::open(path)?.sync_data(),
            FsOp::SyncDir(path) => File::open(path)?.sync_all(),
            FsOp::Rename(from, to) => std::fs::rename(from, to),
        }
    }
}

/// A flush: storage file `id` holding `bytes`, durable before the index
/// points at it.
pub(crate) fn flush_plan(dir: &Path, id: u32, bytes: Vec<u8>) -> [FsOp; 2] {
    let path = storage_path(dir, id);
    [FsOp::Write(path.clone(), bytes), FsOp::SyncFile(path)]
}

/// A snapshot: `manifest` published atomically, after the storage files
/// it names and before `snapshot` returns.
pub(crate) fn snapshot_plan(dir: &Path, manifest: String) -> [FsOp; 5] {
    let tmp = dir.join("MANIFEST.tmp");
    [
        // The storage files' entries: the MANIFEST never names a lost file.
        FsOp::SyncDir(dir.join(STORAGE_DIR)),
        FsOp::Write(tmp.clone(), manifest.into_bytes()),
        // Its bytes: the rename never publishes an empty or torn MANIFEST.
        FsOp::SyncFile(tmp.clone()),
        FsOp::Rename(tmp, dir.join(MANIFEST_FILE)),
        // The rename: a snapshot that returned is never rolled back.
        FsOp::SyncDir(dir.to_path_buf()),
    ]
}

pub(crate) fn storage_path(dir: &Path, id: u32) -> PathBuf {
    dir.join(STORAGE_DIR).join(format!("{id:06}.acc"))
}
