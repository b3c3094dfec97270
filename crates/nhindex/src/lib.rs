//! The NH-Index (Neighborhood Index) — §IV of the paper.
//!
//! The indexing unit is the *neighborhood* of each database node:
//! `(label, degree, nbConnection, nbArray)` (§IV-A). The index is a hybrid
//! two-level disk structure (§IV-C, Fig. 2):
//!
//! 1. a B+-tree on `(label, degree, nbConnection)` answering the equality
//!    and range conditions IV.1, IV.2 and IV.4, whose leaf entries point to
//! 2. second-level postings: the list of database node ids sharing that key
//!    plus a bitmap index over their neighbor arrays, probed with the
//!    bit-sliced Algorithm 1 for condition IV.3.
//!
//! Because one indexing unit exists per database node, the index grows
//! linearly with the database (§IV-A), while the neighborhood information
//! gives it the pruning power plain node indexing lacks.
//!
//! Modules:
//! * [`scheme`] — neighbor arrays: deterministic bit array for small `Σv`,
//!   Bloom-filter hashing for large `Σv` (§IV-A).
//! * [`posting`] — the second-level blob layout (node refs + column-major
//!   bitmap).
//! * [`bitprobe`] — Algorithm 1 (the word-parallel bit-sliced counting
//!   probe) and the naive scan it is benchmarked against in §IV-D.
//! * [`filter`] — [`LabelPairFilter`]: per-key neighboring-label summaries
//!   that skip postings before blob prefetch (the l2Match-style pre-probe
//!   level).
//! * [`quality`] — the node-match quality `w` of Eq. IV.5.
//! * [`index`] — [`NhIndex`]: build, persist, reopen, probe and verify
//!   (read-only once built).
//! * [`reader`] — [`IndexReader`]: the probe seam the engine runs against.
//! * [`delta`] — [`DeltaOverlay`]: in-memory postings for unfolded inserts.
//! * [`mvcc`] — [`GenerationalNhIndex`]: immutable on-disk generations with
//!   snapshot (pin) reads, delta/tombstone mutations and background folds.
//! * [`stats`] — [`IndexStatistics`]: per-index statistics,
//!   collected exactly at build/fold time and persisted atomically.

pub mod bitprobe;
pub mod delta;
pub mod filter;
pub mod index;
pub mod mvcc;
pub mod posting;
pub mod quality;
pub mod reader;
pub mod scheme;
pub mod stats;

pub use bitprobe::{ColumnBitmap, ProbeKernel};
pub use delta::DeltaOverlay;
pub use filter::{LabelPairFilter, FILTER_FILE, FILTER_SCHEMA_VERSION};
pub use index::{
    IntegrityReport, NhIndex, NhIndexConfig, NodeCandidate, ProbeStats, QuerySignature,
    DEFAULT_IO_WORKERS, DEFAULT_PREFETCH_PAGES, LEGACY_WAL_FILE,
};
pub use mvcc::{
    FoldReport, GenerationInfo, GenerationalNhIndex, MvccRecovery, Snapshot, MVCC_FILE,
};
pub use posting::{NodeRef, Posting};
pub use quality::node_match_quality;
pub use reader::IndexReader;
pub use scheme::NeighborArrayScheme;
pub use stats::{
    IndexStatistics, LabelStats, SketchSummary, StatsBuilder, STATS_FILE, STATS_SCHEMA_VERSION,
};

/// Errors from index construction and probing.
#[derive(Debug)]
pub enum NhError {
    /// Underlying storage failure.
    Storage(tale_storage::StorageError),
    /// Graph-layer failure.
    Graph(tale_graph::GraphError),
    /// Index metadata missing or malformed.
    Meta(String),
    /// I/O failure outside the page files (metadata file).
    Io(std::io::Error),
}

impl std::fmt::Display for NhError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NhError::Storage(e) => write!(f, "storage: {e}"),
            NhError::Graph(e) => write!(f, "graph: {e}"),
            NhError::Meta(m) => write!(f, "index metadata: {m}"),
            NhError::Io(e) => write!(f, "io: {e}"),
        }
    }
}

impl std::error::Error for NhError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NhError::Storage(e) => Some(e),
            NhError::Graph(e) => Some(e),
            NhError::Io(e) => Some(e),
            NhError::Meta(_) => None,
        }
    }
}

impl From<tale_storage::StorageError> for NhError {
    fn from(e: tale_storage::StorageError) -> Self {
        NhError::Storage(e)
    }
}

impl From<tale_graph::GraphError> for NhError {
    fn from(e: tale_graph::GraphError) -> Self {
        NhError::Graph(e)
    }
}

impl From<std::io::Error> for NhError {
    fn from(e: std::io::Error) -> Self {
        NhError::Io(e)
    }
}

/// Result alias.
pub type Result<T> = std::result::Result<T, NhError>;
