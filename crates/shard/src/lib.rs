//! Sharded NH-Index: partitioned build, scatter/gather query execution,
//! and shard-level observability.
//!
//! The single-file NH-Index (`tale-nhindex`) bulk-loads one B+-tree over
//! the postings of every graph in the database — the final sort + merge
//! is serial even when `parallel_build` fans the per-graph extraction out.
//! This crate partitions the database across `N` fully independent
//! NH-Index files ("shards"), each covering a disjoint subset of the
//! graphs:
//!
//! * **build** — each shard extracts, sorts, and bulk-loads its own
//!   B+-tree with no cross-shard synchronization
//!   ([`ShardedNhIndex::build`]), parallelizing the merge step itself;
//! * **query** — the staged engine scatters the probe/anchor/grow
//!   pipeline across shards and gathers with a deterministic merge, so
//!   sharded output is bit-identical to the single-index answer at any
//!   shard count and any thread count ([`ShardedTaleDatabase::query`];
//!   the determinism argument lives in `tale::engine::exec`);
//! * **mutate** — [`ShardedTaleDatabase::insert_graph`],
//!   [`ShardedTaleDatabase::remove_graph`] and
//!   [`ShardedTaleDatabase::fold`] route to the owning shard's
//!   generational index (delta overlay, tombstones, manifest flip — the
//!   same mechanism as the single index) and retire only that shard's
//!   slice of the result cache;
//! * **observe** — per-shard probe/posting/row traffic, buffer-pool
//!   deltas, wall clocks, and the skew ratio surface through
//!   [`tale::BatchStats::shards`] (see [`tale::ShardStats`]).
//!
//! Graph placement is pluggable via [`ShardPolicy`]: hash-by-id
//! ([`HashPolicy`], the default), size-balanced ([`SizeBalancedPolicy`]),
//! or label-clustered ([`LabelClusteredPolicy`] — the one that lets the
//! cost-based planner prove whole shards prunable for a query). The shard
//! map is persisted in a `shards.json` manifest ([`ShardManifest`]) next
//! to the `shard-NNN/` index directories.

mod database;
mod index;
mod manifest;
mod policy;

pub use database::ShardedTaleDatabase;
pub use index::{commit_insert, load_root, open_shard, ShardBuildStats, ShardedNhIndex};
pub use manifest::{vocab_fingerprint, ShardManifest, MANIFEST_FILE, MANIFEST_SCHEMA_VERSION};
pub use policy::{
    policy_by_name, HashPolicy, LabelClusteredPolicy, ShardPolicy, SizeBalancedPolicy,
};

/// Errors surfaced by the sharding layer.
#[derive(Debug)]
pub enum ShardError {
    /// Failure in the query engine or database facade.
    Tale(tale::TaleError),
    /// Index-layer failure in one shard.
    Index(tale_nhindex::NhError),
    /// Index-layer failure attributed to a specific shard, so a
    /// partial-shard failure (one corrupt `shard-NNN/` among healthy
    /// siblings) is diagnosable.
    Shard {
        /// The shard whose index failed.
        shard: u32,
        /// The underlying index error.
        source: tale_nhindex::NhError,
    },
    /// Graph-layer failure.
    Graph(tale_graph::GraphError),
    /// Manifest missing, malformed, or inconsistent with the database.
    Manifest(String),
    /// Filesystem failure.
    Io(std::io::Error),
    /// A shard became unreachable on the networked path (`tale-server`):
    /// connection refused or reset, handshake failure, or a worker that
    /// died mid-batch. The frontend fails the whole batch with this —
    /// deterministically, never a partial merge — so callers can retry
    /// against a reconnected worker.
    Transport {
        /// The shard whose worker failed.
        shard: u32,
        /// The underlying transport failure.
        source: Box<dyn std::error::Error + Send + Sync>,
    },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Tale(e) => write!(f, "tale: {e}"),
            ShardError::Index(e) => write!(f, "index: {e}"),
            ShardError::Shard { shard, source } => write!(f, "shard {shard}: {source}"),
            ShardError::Graph(e) => write!(f, "graph: {e}"),
            ShardError::Manifest(m) => write!(f, "manifest: {m}"),
            ShardError::Io(e) => write!(f, "io: {e}"),
            ShardError::Transport { shard, source } => {
                write!(f, "shard {shard} transport: {source}")
            }
        }
    }
}

impl std::error::Error for ShardError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShardError::Tale(e) => Some(e),
            ShardError::Index(e) => Some(e),
            ShardError::Shard { source, .. } => Some(source),
            ShardError::Graph(e) => Some(e),
            ShardError::Manifest(_) => None,
            ShardError::Io(e) => Some(e),
            ShardError::Transport { source, .. } => Some(source.as_ref()),
        }
    }
}

impl From<tale::TaleError> for ShardError {
    fn from(e: tale::TaleError) -> Self {
        ShardError::Tale(e)
    }
}

impl From<tale_nhindex::NhError> for ShardError {
    fn from(e: tale_nhindex::NhError) -> Self {
        ShardError::Index(e)
    }
}

impl From<tale_graph::GraphError> for ShardError {
    fn from(e: tale_graph::GraphError) -> Self {
        ShardError::Graph(e)
    }
}

impl From<std::io::Error> for ShardError {
    fn from(e: std::io::Error) -> Self {
        ShardError::Io(e)
    }
}

/// Result alias.
pub type Result<T> = std::result::Result<T, ShardError>;
