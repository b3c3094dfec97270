//! [`ShardEngine`]: one shard's slice of a sharded TALE database,
//! wrapped for serving.
//!
//! A worker process owns exactly one shard of a database built by
//! `ShardedTaleDatabase::build` (or `tale-cli build --shards N`): the
//! shared graph store (`graphs.json` + `graphs.log`) and `shards.json` at
//! the root, and its own `shard-NNN/` generational NH-Index directory.
//! Queries pin one MVCC
//! snapshot and run the *complete* engine pipeline via `exec::run_batch`
//! over its base and delta readers — the N=1 case of the scatter/gather
//! the in-process sharded database uses — so each worker's partials are
//! ranked exactly as a local run would rank that shard's contribution.
//! The frontend's re-rank of concatenated partials is then bit-identical
//! to local execution (see `exec::rank_matches`).
//!
//! Mutations are the shard crate's, not a copy of them: an insert is
//! [`tale_shard::commit_insert`] (one record appended to the root's graph
//! log — the commit point — then the shard's delta and manifest flip), a
//! remove is a tombstone in the shard's manifest, and a fold is the
//! shard's generational fold — crash-safe at every I/O, with cache
//! invalidation by epoch.

use crate::wire::{
    ExplainRequest, FoldRequest, InsertRequest, QueryBatchRequest, RemoveRequest, WireExecStats,
    WireMatch, WireMatches,
};
use crate::{Result, ServerError};
use parking_lot::RwLock;
use std::path::Path;
use tale::engine::cache::{ResultCache, DEFAULT_CACHE_ENTRIES};
use tale::engine::exec;
use tale::store::GraphLog;
use tale::BatchStats;
use tale_graph::{Graph, GraphDb, GraphId};
use tale_nhindex::{GenerationalNhIndex, NhIndexConfig, Snapshot};
use tale_shard::{vocab_fingerprint, ShardManifest};

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

struct EngineState {
    db: GraphDb,
    log: GraphLog,
    index: GenerationalNhIndex,
    manifest: ShardManifest,
}

/// One shard's database + index + result caches, behind an RwLock so
/// concurrent connection handlers can query in parallel while mutations
/// serialize.
pub struct ShardEngine {
    shard: u32,
    state: RwLock<EngineState>,
    /// `[base, delta]` caches of the shard's snapshot readers.
    caches: [ResultCache; 2],
}

impl ShardEngine {
    /// Opens shard `shard` of the sharded database rooted at `root`
    /// (the directory holding the graph store and `shards.json`) through
    /// [`tale_shard::load_root`]: the base graphs checked against the
    /// recorded vocabulary, then the graph log replayed (a torn final
    /// record, an insert a crash cut short, is truncated).
    pub fn open(root: &Path, shard: u32, cfg: EngineConfig) -> Result<ShardEngine> {
        let (db, manifest, log, _) = tale_shard::load_root(root)?;
        if shard >= manifest.shard_count {
            return Err(ServerError::BadRequest(format!(
                "shard {shard} out of range: manifest has {} shards",
                manifest.shard_count
            )));
        }
        let config = NhIndexConfig {
            buffer_frames: cfg.buffer_frames,
            io_workers: cfg.io_workers,
            prefetch_pages: cfg.prefetch_pages,
            ..NhIndexConfig::default()
        };
        let (index, _swept) = tale_shard::open_shard(root, &manifest, &db, shard, &config, None)?;
        Ok(ShardEngine {
            shard,
            state: RwLock::new(EngineState {
                db,
                log,
                index,
                manifest,
            }),
            caches: [
                ResultCache::new(DEFAULT_CACHE_ENTRIES),
                ResultCache::new(DEFAULT_CACHE_ENTRIES),
            ],
        })
    }

    /// The shard this engine serves.
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// Shards in the layout this engine belongs to.
    pub fn shard_count(&self) -> u32 {
        self.state.read().manifest.shard_count
    }

    /// Graphs in the shared database (all shards).
    pub fn graphs(&self) -> u64 {
        self.state.read().db.len() as u64
    }

    /// FNV-64 fingerprint of the database's label vocabulary.
    pub fn vocab_fingerprint(&self) -> u64 {
        vocab_fingerprint(&self.state.read().db)
    }

    /// The shard's generational state, for operators and tests: current
    /// on-disk generation, unfolded delta graphs, tombstones.
    pub fn generation_state(&self) -> (u64, u32, usize) {
        let snap = self.state.read().index.snapshot();
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
        let st = self.state.read();
        let queries: Vec<Graph> = req
            .queries
            .iter()
            .map(|w| w.to_query_graph(&st.db))
            .collect::<Result<_>>()?;
        let query_refs: Vec<&Graph> = queries.iter().collect();
        let caches: Vec<&ResultCache> = self.caches.iter().collect();
        let (outputs, batch) = Snapshot::with_readers(&[st.index.snapshot()], |readers| {
            exec::run_batch(
                &st.db,
                readers,
                opts.use_cache.then_some(&caches[..]),
                &query_refs,
                &opts,
            )
        })
        .map_err(tale_shard::ShardError::from)?;
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
        let st = self.state.read();
        let query = req.query.to_query_graph(&st.db)?;
        Ok(Snapshot::with_readers(&[st.index.snapshot()], |readers| {
            tale::engine::plan::plan_report(&st.db, readers, &query, &opts).render()
        }))
    }

    /// Inserts a graph into this shard's delta overlay through the shard
    /// crate's commit sequence ([`tale_shard::commit_insert`]). Returns
    /// the new id.
    ///
    /// Only meaningful while this worker is the sole writer of the
    /// database root (the frontend enforces this by refusing to forward
    /// mutations in multi-shard deployments).
    pub fn insert(&self, req: &InsertRequest) -> Result<GraphId> {
        let mut st = self.state.write();
        let st = &mut *st;
        let g = req.graph.to_inserted_graph(&mut st.db)?;
        let (shard, index) = (self.shard, &st.index);
        Ok(tale_shard::commit_insert(
            &mut st.log,
            &mut st.db,
            &mut st.manifest,
            req.name.clone(),
            g,
            |_, _| Ok((shard, index)),
        )?)
    }

    /// Tombstones a graph this shard owns. Returns the owning shard in
    /// `Err` position semantics: `Ok(None)` = removed here, `Ok(Some(s))`
    /// = refused, shard `s` owns it (the caller reports the owner).
    pub fn remove(&self, req: &RemoveRequest) -> Result<Option<u32>> {
        let st = self.state.write();
        let gid = GraphId(req.graph);
        match st.manifest.shard_of(gid) {
            None => Err(ServerError::BadRequest(format!(
                "graph {} is not in the shard map",
                req.graph
            ))),
            Some(s) if s != self.shard => Ok(Some(s)),
            Some(_) => {
                st.index
                    .remove_graph(gid)
                    .map_err(|source| tale_shard::ShardError::Shard {
                        shard: self.shard,
                        source,
                    })?;
                Ok(None)
            }
        }
    }

    /// Folds this shard's delta and tombstones into its next on-disk
    /// generation. Returns `(live_graphs, tombstones_whose_postings_were_
    /// dropped)`; the tombstones themselves persist (the dead graphs
    /// still hold ids in the shared database).
    pub fn fold(&self, _req: &FoldRequest) -> Result<(u64, u64)> {
        let st = self.state.write();
        let report = st
            .index
            .fold(&st.db)
            .map_err(|source| tale_shard::ShardError::Shard {
                shard: self.shard,
                source,
            })?;
        let owned = st.manifest.graphs_of(self.shard).len();
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
