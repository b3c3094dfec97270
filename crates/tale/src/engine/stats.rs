//! Per-stage observability for the query engine.
//!
//! Every query (and every batch) reports what each pipeline stage did and
//! cost: probe counts against the disk index, postings scanned, the
//! buffer-pool hit rate underneath, and per-stage wall clocks. The CLI
//! surfaces these via `tale-cli query --stats`; the performance ledger
//! (`perf`) reads its per-layer metrics from them.
//!
//! Probe traffic has one source: the [`ProbeStats`] each probe answer
//! carries. The engine sums those per query and per shard from the
//! signatures it issued itself, so the counts are exact even while other
//! batches probe the same index. Buffer-pool traffic is a [`PoolStats`]
//! delta of the reader's pools over the run.
//!
//! [`ProbeStats`]: tale_nhindex::ProbeStats

use serde::Serialize;
use tale_storage::PoolStats;

/// Wall-clock seconds spent in each engine stage.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct StageTimes {
    /// Importance selection + signature construction (plan stage).
    pub plan_secs: f64,
    /// NH-Index probing (probe stage).
    pub probe_secs: f64,
    /// Anchor resolution + growth over candidate graphs (match stage).
    pub match_secs: f64,
    /// Similarity ranking and truncation (rank stage).
    pub rank_secs: f64,
    /// End-to-end, including cache lookups and result assembly.
    pub total_secs: f64,
}

/// What one query cost, stage by stage.
///
/// In a batch, stage wall clocks and the pool delta are those of the
/// *enclosing batch* (stages run batch-wide, so per-query slices are not
/// individually timeable); the probe counters are per query: each probe
/// signature the query needed is credited to it exactly as a standalone
/// run would, with [`QueryStats::probes_shared`] recording how many of
/// those answers were amortized across the batch instead of hitting the
/// disk index again.
#[derive(Debug, Clone, Default, Serialize)]
pub struct QueryStats {
    /// Important query nodes selected by the plan stage (§V-B).
    pub important_nodes: usize,
    /// Probe signatures this query needed answered.
    pub probes: u64,
    /// Of those, answered by a probe another signature already paid for
    /// (batch dedup), rather than a fresh disk probe.
    pub probes_shared: u64,
    /// B+-tree keys visited on this query's behalf.
    pub keys_scanned: u64,
    /// Postings fetched on this query's behalf.
    pub postings_fetched: u64,
    /// Postings the label-pair pre-filter skipped on this query's behalf
    /// before any blob prefetch (see `tale_nhindex::filter`).
    pub postings_filtered: u64,
    /// Bitmap rows examined by Algorithm 1 on this query's behalf.
    pub rows_examined: u64,
    /// Candidate node matches surviving conditions IV.1–IV.4.
    pub candidates: u64,
    /// Database graphs with at least one candidate (match-stage fan-out).
    pub candidate_graphs: usize,
    /// Matches returned (after ranking and `top_k`).
    pub matches: usize,
    /// True when the result came from the [`ResultCache`] — the engine
    /// never touched the disk index (all probe counters are zero).
    ///
    /// [`ResultCache`]: crate::engine::cache::ResultCache
    pub cache_hit: bool,
    /// Stage wall clocks (of the enclosing batch when batched).
    pub stages: StageTimes,
    /// Buffer-pool traffic (of the enclosing batch when batched): the
    /// fetch-taxonomy delta of the index's pools over the run. Other
    /// batches share those pools, so under concurrency it includes their
    /// fetches; the probe counters above are exact.
    pub pool: PoolStats,
}

/// What one index shard did for one batch: the scatter/gather executor
/// runs probe + match per shard on its own thread(s) and records each
/// shard's traffic, wall clock, and buffer-pool delta here. The unsharded
/// path reports exactly one entry (the whole index is shard 0).
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct ShardStats {
    /// Shard ordinal (index into the shard set).
    pub shard: usize,
    /// Unique queries that executed on this shard (missed its result
    /// cache) this batch.
    pub uniques_executed: usize,
    /// Disk probes issued against this shard (after signature dedup).
    pub probes: u64,
    /// B+-tree keys visited on this shard.
    pub keys_scanned: u64,
    /// Postings fetched from this shard.
    pub postings_fetched: u64,
    /// Postings the label-pair pre-filter skipped on this shard.
    pub postings_filtered: u64,
    /// Bitmap rows examined on this shard.
    pub rows_examined: u64,
    /// Candidate node matches this shard's probes returned.
    pub candidates: u64,
    /// `(query, graph)` match tasks grown against this shard's graphs.
    pub match_items: usize,
    /// Partial matches this shard contributed before global ranking.
    pub matches: usize,
    /// This shard's buffer-pool traffic.
    pub pool: PoolStats,
    /// Seconds this shard spent probing.
    pub probe_secs: f64,
    /// Seconds this shard spent in anchor + grow.
    pub match_secs: f64,
    /// This shard's end-to-end wall clock inside the scatter phase.
    pub wall_secs: f64,
}

impl ShardStats {
    /// Field-wise sum of two readers' rows (keeping `self.shard`) — how a
    /// sharded database folds each shard's base and delta readers into
    /// one per-shard row.
    pub fn merged(&self, other: &ShardStats) -> ShardStats {
        ShardStats {
            shard: self.shard,
            uniques_executed: self.uniques_executed + other.uniques_executed,
            probes: self.probes + other.probes,
            keys_scanned: self.keys_scanned + other.keys_scanned,
            postings_fetched: self.postings_fetched + other.postings_fetched,
            postings_filtered: self.postings_filtered + other.postings_filtered,
            rows_examined: self.rows_examined + other.rows_examined,
            candidates: self.candidates + other.candidates,
            match_items: self.match_items + other.match_items,
            matches: self.matches + other.matches,
            pool: self.pool.merged(other.pool),
            probe_secs: self.probe_secs + other.probe_secs,
            match_secs: self.match_secs + other.match_secs,
            wall_secs: self.wall_secs + other.wall_secs,
        }
    }
}

/// What one batch cost end to end, plus per-query breakdowns.
#[derive(Debug, Clone, Default, Serialize)]
pub struct BatchStats {
    /// Queries in the batch.
    pub queries: usize,
    /// Queries answered straight from the [`ResultCache`]
    /// (no index traffic at all).
    ///
    /// [`ResultCache`]: crate::engine::cache::ResultCache
    pub cache_hits: usize,
    /// Distinct queries actually executed after cache hits and
    /// exact-duplicate folding.
    pub unique_queries: usize,
    /// Probe signatures requested across all executed queries.
    pub probes_requested: u64,
    /// Probes that actually hit the disk index (after signature dedup);
    /// `probes_requested - probes_issued` is the batch's amortization.
    pub probes_issued: u64,
    /// Stage wall clocks for the whole batch.
    pub stages: StageTimes,
    /// Buffer-pool traffic for the whole batch.
    pub pool: PoolStats,
    /// Per-shard breakdowns of the scatter phase, in shard order (one
    /// entry when unsharded).
    pub shards: Vec<ShardStats>,
    /// Per-query breakdowns, in input order.
    pub per_query: Vec<QueryStats>,
}

impl BatchStats {
    /// Scatter-phase skew: the slowest shard's wall clock over the mean
    /// shard wall clock (`1.0` = perfectly balanced; `0.0` when no shard
    /// did timed work). Large values mean the partitioning policy left one
    /// shard holding most of the batch's work.
    pub fn shard_skew(&self) -> f64 {
        if self.shards.is_empty() {
            return 0.0;
        }
        let max = self.shards.iter().map(|s| s.wall_secs).fold(0.0, f64::max);
        let mean = self.shards.iter().map(|s| s.wall_secs).sum::<f64>() / self.shards.len() as f64;
        if mean <= 0.0 {
            0.0
        } else {
            max / mean
        }
    }
}
