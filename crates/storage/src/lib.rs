//! Disk storage substrate for the NH-Index.
//!
//! The paper implements the NH-Index inside PostgreSQL: "the second level
//! indices can be implemented simply as a relation with two attributes …
//! the first level index is simply a B+-tree built on this table" (§IV-C).
//! The distinguishing property the evaluation leans on is that the index is
//! **disk-based** — unlike C-Tree it is "not limited by the memory size"
//! (§VI-B.2). This crate supplies the minimal DBMS machinery that claim
//! requires:
//!
//! * [`page`]: 8 KiB pages with checksums.
//! * [`disk`]: a page-granular file manager.
//! * [`writer`]: the sequential page writer every page file is built with
//!   — written once, front to back, then only read.
//! * [`buffer`]: a read-only pinned-frame buffer pool with LRU eviction,
//!   so working sets larger than memory stream through a bounded pool (the
//!   paper runs Postgres with a 512 MB buffer pool; ours defaults to a
//!   configurable frame count).
//! * [`btree`]: a disk B+-tree with fixed 12-byte composite keys
//!   `(label, degree, nbConnection)` — exactly the paper's first level —
//!   supporting exact and range scans and sorted bulk loading.
//! * [`blob`]: a blob file for the second-level postings (node-id lists +
//!   neighbor-array bitmaps), appended once and then read.
//! * [`readpath`]: the asynchronous read path — an I/O worker pool and a
//!   prefetch staging area behind a [`readpath::ReadBackend`] seam — so
//!   larger-than-RAM query workloads overlap their cold reads instead of
//!   serializing on pool misses.
//! * [`wah`]: word-aligned-hybrid bitmap compression for the posting
//!   bit columns (the classic bitmap-index storage optimization).
//! * [`atomic`]: write-temp + fsync + rename whole-file persistence for
//!   manifests and reports — the commit primitive of every index
//!   mutation (page files are bulk-built once and never rewritten, so
//!   there is no write-ahead log).
//! * [`log`]: an append-only log of CRC-framed records, one fsynced
//!   append per commit, whose reader truncates a torn final record and
//!   refuses corruption before it.
//! * `faults` (behind the `failpoints` cargo feature): a fault-injection
//!   shim that fails the Nth I/O operation, driving the crash-torture
//!   harness. Compiled out of release builds.
//!
//! This crate itself provides no versioning. MVCC lives one layer up —
//! `tale-nhindex` builds immutable index *generations* out of these
//! primitives (one page-file set and one buffer pool per generation,
//! committed by an atomic manifest flip) so readers pin a generation and
//! never observe a writer.

pub mod atomic;
pub mod blob;
pub mod btree;
pub mod buffer;
pub mod disk;
#[cfg(feature = "failpoints")]
pub mod faults;
pub mod log;
pub mod page;
pub mod readpath;
pub mod wah;
pub mod writer;

pub use blob::{BlobRef, BlobStore, BlobWriter};
pub use btree::{BTree, CompositeKey, TreeCheck};
pub use buffer::{BufferPool, PageGuard, PoolStats};
pub use disk::DiskManager;
pub use page::{PageId, PAGE_SIZE};
pub use readpath::{DiskReadBackend, IoPool, PrefetchStats, Prefetcher, ReadBackend};

/// Fault-injection gate, called before every real I/O side effect on the
/// mutation path. With the `failpoints` feature off this is a no-op the
/// optimizer removes; with it on, [`faults::check`] decides.
#[cfg(feature = "failpoints")]
#[inline]
pub(crate) fn fault_check(op: &'static str) -> std::io::Result<()> {
    faults::check(op)
}

/// No-op fault gate (the `failpoints` feature is disabled).
#[cfg(not(feature = "failpoints"))]
#[inline(always)]
pub(crate) fn fault_check(_op: &'static str) -> std::io::Result<()> {
    Ok(())
}

/// Errors produced by the storage layer.
#[derive(Debug)]
pub enum StorageError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A page read back with a bad checksum (torn/corrupted write).
    Corrupt(PageId),
    /// A page id outside the allocated file range.
    PageOutOfRange(PageId),
    /// Buffer pool has no evictable frame (all pinned).
    PoolExhausted,
    /// A log record failed its check with a whole record after it: damage
    /// to committed data, not a torn append (see [`log`]).
    CorruptRecord {
        /// Byte offset of the damaged record's frame.
        offset: u64,
    },
    /// A blob reference pointed outside the store.
    BadBlobRef,
    /// B+-tree structural invariant violated (indicates a bug).
    TreeInvariant(&'static str),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "io error: {e}"),
            StorageError::Corrupt(p) => write!(f, "corrupt page {}", p.0),
            StorageError::PageOutOfRange(p) => write!(f, "page {} out of range", p.0),
            StorageError::PoolExhausted => write!(f, "buffer pool exhausted (all frames pinned)"),
            StorageError::CorruptRecord { offset } => {
                write!(f, "corrupt log record at byte {offset}")
            }
            StorageError::BadBlobRef => write!(f, "blob reference out of bounds"),
            StorageError::TreeInvariant(m) => write!(f, "btree invariant violated: {m}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// Result alias for storage operations.
pub type Result<T> = std::result::Result<T, StorageError>;
