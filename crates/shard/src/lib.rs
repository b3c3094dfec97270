//! Sharded NH-Index: the names the benchmark and the networked service
//! import, re-exported from [`tale`], plus the service's error type.
//!
//! The database is written once, in `tale`: [`ShardedTaleDatabase`] over
//! a `shards.json` manifest and `shard-NNN/` index directories, of which
//! [`tale::TaleDatabase`] is the one-shard view. It partitions the
//! database across `N` fully independent NH-Index files ("shards"), each
//! covering a disjoint subset of the graphs:
//!
//! * **build** — each shard extracts, sorts, and bulk-loads its own
//!   B+-tree with no cross-shard synchronization
//!   ([`ShardedNhIndex::build`]), parallelizing the merge step itself;
//! * **query** — the staged engine scatters the probe/anchor/grow
//!   pipeline across shards and gathers with a deterministic merge, so
//!   the answer is bit-identical at any shard count and any thread count
//!   ([`ShardedTaleDatabase::query`]; the determinism argument lives in
//!   `tale::engine::exec`);
//! * **mutate** — insert, remove and fold route to the owning shard's
//!   generational index (delta overlay, tombstones, manifest flip) and
//!   retire only that shard's slice of the result cache;
//! * **observe** — per-shard probe/posting/row traffic, buffer-pool
//!   deltas, wall clocks, and the skew ratio surface through
//!   [`tale::BatchStats::shards`] (see [`tale::ShardStats`]).
//!
//! Graph placement is one function: graph `id` lives on shard
//! FNV-1a(id) mod N. [`HashPolicy`] names it as the build functions'
//! unit argument.

pub use tale::{HashPolicy, ShardedNhIndex, ShardedTaleDatabase};

/// Errors surfaced by the sharded service.
#[derive(Debug)]
pub enum ShardError {
    /// Failure in the database: its index, graph store or manifest.
    Tale(tale::TaleError),
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
            ShardError::Transport { source, .. } => Some(source.as_ref()),
        }
    }
}

impl From<tale::TaleError> for ShardError {
    fn from(e: tale::TaleError) -> Self {
        ShardError::Tale(e)
    }
}
