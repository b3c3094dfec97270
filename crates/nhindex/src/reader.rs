//! The probe seam between the query engine and an index.
//!
//! The engine's plan/probe/exec stages only need a few things from an
//! index: build a query-node signature under the index's neighbor-array
//! scheme, answer a batch of probe signatures (each answer carrying the
//! [`ProbeStats`] of its own traffic, which the engine sums into its
//! per-query and per-shard records), and expose its buffer-pool counters.
//! [`IndexReader`] captures exactly that surface so the same engine code
//! runs against
//!
//! * a plain, immutable [`NhIndex`],
//! * an MVCC base generation (an `NhIndex` filtered by a snapshot's
//!   removed set), and
//! * the in-memory delta overlay holding not-yet-folded inserts,
//!
//! with the scatter/gather executor treating each reader as one "shard"
//! whose graphs are disjoint from every other reader's. Both database
//! layouts run on the last two: the single index pins one snapshot per
//! query, the sharded one a snapshot per shard.
//!
//! [`cache_generation`](IndexReader::cache_generation) is what makes the
//! result cache generation-keyed instead of invalidate-on-write: the
//! engine folds it into every cache key, so a mutation that changes what
//! a reader would answer simply moves that reader to a fresh key space
//! and old entries become unreachable — no wholesale clear, and entries
//! for untouched readers stay warm.

use crate::index::{NodeCandidate, ProbeStats, QuerySignature};
use crate::stats::IndexStatistics;
use crate::{NhIndex, Result};
use std::sync::Arc;
use tale_graph::{Graph, NodeId};
use tale_storage::PoolStats;

/// Read-only probe surface of one index "shard".
///
/// Implementations must answer [`probe_batch`](IndexReader::probe_batch)
/// as a pure function of `(signatures, rho)` over their frozen contents —
/// element-wise identical across calls and thread counts — because the
/// engine's bit-identity oracles (sharded vs. unsharded, pinned snapshot
/// vs. pre-mutation run) compare results structurally.
pub trait IndexReader: Sync {
    /// Builds the probe signature of one query node under this reader's
    /// neighbor-array scheme (see [`NhIndex::signature`]).
    fn signature(
        &self,
        g: &Graph,
        node: NodeId,
        label_of: &dyn Fn(NodeId) -> u32,
    ) -> QuerySignature;

    /// Answers a batch of probe signatures (see [`NhIndex::probe_batch`]).
    fn probe_batch(
        &self,
        sigs: &[QuerySignature],
        rho: f64,
        threads: usize,
    ) -> Result<Vec<(Vec<NodeCandidate>, ProbeStats)>>;

    /// The statistics describing this reader's contents, if it has any
    /// (see [`crate::stats`]); `explain` reads its row estimates from
    /// them. The default is `None`: the reader then adds nothing to the
    /// estimates. Implementations must uphold the conservatism invariant:
    /// statistics may overestimate what the reader can answer, never
    /// underestimate.
    fn statistics(&self) -> Option<Arc<IndexStatistics>> {
        None
    }

    /// Buffer-pool counters underneath this reader (zeros for purely
    /// in-memory readers).
    fn pool_stats(&self) -> PoolStats;

    /// The value the result cache folds into every key for this reader.
    /// Two calls may share a cache entry iff they observe the same
    /// `cache_generation`; any mutation that could *add or alter* answers
    /// must move it to a value never used before. Mutations that can only
    /// *delete* answers (graph removal under MVCC) may keep the value and
    /// rely on [`is_visible`](IndexReader::is_visible) instead — deletion
    /// is the one change a read-time filter can reproduce exactly.
    fn cache_generation(&self) -> u64;

    /// Read-time visibility of `graph`'s results. The engine filters
    /// every cached partial list through this before use, so a reader
    /// whose tombstone set grew since an entry was stored still serves
    /// exactly correct answers from it (removal only deletes matches —
    /// it can never add any). Readers without tombstones keep the
    /// default.
    fn is_visible(&self, graph: u32) -> bool {
        let _ = graph;
        true
    }
}

impl IndexReader for NhIndex {
    fn signature(
        &self,
        g: &Graph,
        node: NodeId,
        label_of: &dyn Fn(NodeId) -> u32,
    ) -> QuerySignature {
        NhIndex::signature(self, g, node, label_of)
    }

    fn probe_batch(
        &self,
        sigs: &[QuerySignature],
        rho: f64,
        threads: usize,
    ) -> Result<Vec<(Vec<NodeCandidate>, ProbeStats)>> {
        NhIndex::probe_batch(self, sigs, rho, threads)
    }

    fn statistics(&self) -> Option<Arc<IndexStatistics>> {
        NhIndex::statistics(self)
    }

    fn pool_stats(&self) -> PoolStats {
        NhIndex::pool_stats(self)
    }

    /// Constant: an `NhIndex` is never mutated after it is built, so its
    /// answers never change.
    fn cache_generation(&self) -> u64 {
        0
    }
}
