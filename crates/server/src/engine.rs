//! [`ShardEngine`]: one shard's slice of a sharded TALE database,
//! wrapped for serving.
//!
//! A worker process owns exactly one shard of a database built by
//! `ShardedTaleDatabase::build` (or `tale-cli build`): the shared graph
//! store (`graphs.json` + `graphs.log`) and `shards.json` at the root,
//! and its own `shard-NNN/` generational NH-Index directory. It holds the
//! one database type opened on that shard alone
//! ([`ShardedTaleDatabase::open_shard`]), so queries, inserts, removals
//! and folds are the in-process database's own code, not a copy of it:
//! a query pins the shard's MVCC snapshot and runs the *complete* engine
//! pipeline over its base and delta readers, so each worker's partials
//! are ranked exactly as a local run would rank that shard's
//! contribution. The frontend's re-rank of concatenated partials is then
//! bit-identical to local execution (see `exec::rank_matches`).

use crate::wire::{
    ExplainRequest, FoldRequest, InsertRequest, QueryBatchRequest, RemoveRequest, WireExecStats,
    WireMatch, WireMatches,
};
use crate::{Result, ServerError};
use parking_lot::RwLock;
use std::path::Path;
use tale::{vocab_fingerprint, BatchStats, ShardedTaleDatabase};
use tale_graph::{Graph, GraphId};
use tale_nhindex::NhIndexConfig;
use tale_shard::ShardError;

/// Page-cache / I/O sizing for a worker's index.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Buffer-pool frames for this shard's page files.
    pub buffer_frames: usize,
    /// Async read-path worker threads (0 = no prefetching).
    pub io_workers: usize,
    /// Prefetch staging capacity in pages.
    pub prefetch_pages: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            buffer_frames: 4096,
            io_workers: tale_nhindex::DEFAULT_IO_WORKERS,
            prefetch_pages: tale_nhindex::DEFAULT_PREFETCH_PAGES,
        }
    }
}

/// One shard's database, behind an RwLock so concurrent connection
/// handlers can query in parallel while mutations serialize.
pub struct ShardEngine {
    shard: u32,
    db: RwLock<ShardedTaleDatabase>,
}

impl ShardEngine {
    /// Opens shard `shard` of the sharded database rooted at `root`
    /// (the directory holding the graph store and `shards.json`): the
    /// base graphs checked against the recorded vocabulary, then the
    /// graph log replayed (a torn final record, an insert a crash cut
    /// short, is truncated), then this shard's index alone.
    pub fn open(root: &Path, shard: u32, cfg: EngineConfig) -> Result<ShardEngine> {
        let config = NhIndexConfig {
            buffer_frames: cfg.buffer_frames,
            io_workers: cfg.io_workers,
            prefetch_pages: cfg.prefetch_pages,
            ..NhIndexConfig::default()
        };
        let db = ShardedTaleDatabase::open_shard(root, shard, &config).map_err(ShardError::from)?;
        Ok(ShardEngine {
            shard,
            db: RwLock::new(db),
        })
    }

    /// The shard this engine serves.
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// Shards in the layout this engine belongs to.
    pub fn shard_count(&self) -> u32 {
        self.db.read().index().shard_count() as u32
    }

    /// Graphs in the shared database (all shards).
    pub fn graphs(&self) -> u64 {
        self.db.read().db().len() as u64
    }

    /// FNV-64 fingerprint of the database's label vocabulary.
    pub fn vocab_fingerprint(&self) -> u64 {
        vocab_fingerprint(self.db.read().db())
    }

    /// The shard's generational state, for operators and tests: current
    /// on-disk generation, unfolded delta graphs, tombstones.
    pub fn generation_state(&self) -> (u64, u32, usize) {
        let snap = self.db.read().index().shards()[0].snapshot();
        (
            snap.base_generation(),
            snap.delta_graphs(),
            snap.removed_count(),
        )
    }

    /// Runs a wire batch through the full engine pipeline on this one
    /// shard and returns ranked, top-K-truncated partials.
    pub fn query_batch(
        &self,
        req: &QueryBatchRequest,
    ) -> Result<(Vec<WireMatches>, WireExecStats)> {
        let opts = req.options.to_options()?;
        let db = self.db.read();
        let queries: Vec<Graph> = req
            .queries
            .iter()
            .map(|w| w.to_query_graph(db.db()))
            .collect::<Result<_>>()?;
        let query_refs: Vec<&Graph> = queries.iter().collect();
        let (outputs, batch) = db
            .query_batch_with_stats(&query_refs, &opts)
            .map_err(ShardError::from)?;
        let stats = exec_stats_of(&batch);
        let results = outputs
            .into_iter()
            .map(|ms| WireMatches {
                matches: ms.iter().map(WireMatch::from_match).collect(),
            })
            .collect();
        Ok((results, stats))
    }

    /// Renders the plan this shard's engine would choose.
    pub fn explain(&self, req: &ExplainRequest) -> Result<String> {
        let opts = req.options.to_options()?;
        let db = self.db.read();
        let query = req.query.to_query_graph(db.db())?;
        Ok(db.explain(&query, &opts).render())
    }

    /// Inserts a graph into this shard's delta overlay through the
    /// database's commit sequence (one record appended to the root's graph
    /// log, then the shard's delta and manifest flip). Returns the new id.
    ///
    /// Only meaningful while this worker is the sole writer of the
    /// database root (the frontend enforces this by refusing to forward
    /// mutations in multi-shard deployments).
    pub fn insert(&self, req: &InsertRequest) -> Result<GraphId> {
        let mut db = self.db.write();
        let g = req.graph.to_inserted_graph(&mut db)?;
        Ok(db
            .insert_graph(req.name.clone(), g)
            .map_err(ShardError::from)?)
    }

    /// Tombstones a graph this shard owns. Returns the owning shard in
    /// `Err` position semantics: `Ok(None)` = removed here, `Ok(Some(s))`
    /// = refused, shard `s` owns it (the caller reports the owner).
    pub fn remove(&self, req: &RemoveRequest) -> Result<Option<u32>> {
        let mut db = self.db.write();
        let gid = GraphId(req.graph);
        match db.index().shard_of(gid) {
            None => Err(ServerError::BadRequest(format!(
                "graph {} is not in the shard map",
                req.graph
            ))),
            Some(s) if s != self.shard => Ok(Some(s)),
            Some(_) => {
                db.remove_graph(gid).map_err(ShardError::from)?;
                Ok(None)
            }
        }
    }

    /// Folds this shard's delta and tombstones into its next on-disk
    /// generation. Returns `(live_graphs, tombstones_whose_postings_were_
    /// dropped)`; the tombstones themselves persist (the dead graphs
    /// still hold ids in the shared database).
    pub fn fold(&self, _req: &FoldRequest) -> Result<(u64, u64)> {
        let mut db = self.db.write();
        let report = db.fold().map_err(ShardError::from)?.remove(0);
        let owned = db.index().manifest().graphs_of(self.shard).len();
        Ok((
            (owned - report.folded_removes) as u64,
            report.folded_removes as u64,
        ))
    }
}

/// Flattens the engine's batch statistics into the wire form.
fn exec_stats_of(batch: &BatchStats) -> WireExecStats {
    let mut s = WireExecStats {
        probes: batch.probes_issued,
        shards_pruned: batch.shards_pruned,
        wall_secs: batch.stages.total_secs,
        ..WireExecStats::default()
    };
    for q in &batch.per_query {
        s.keys_scanned += q.keys_scanned;
        s.postings_fetched += q.postings_fetched;
        s.postings_filtered += q.postings_filtered;
        s.rows_examined += q.rows_examined;
        s.candidates += q.candidates;
        s.matches += q.matches as u64;
        s.cache_hits += q.cache_hit as u64;
    }
    s
}
