//! [`ShardedTaleDatabase`]: the sharded counterpart of
//! [`tale::TaleDatabase`].
//!
//! Owns the [`GraphDb`], a [`ShardedNhIndex`], and a `[base, delta]` pair
//! of [`ResultCache`]s *per shard*. Queries pin one MVCC snapshot of every
//! shard and scatter/gather through the same staged engine as the
//! unsharded database (`tale::engine::exec`), so results are bit-identical
//! to a single-index [`tale::TaleDatabase`] over the same graphs at any
//! shard count and thread count. Mutations are the generational ones of
//! the owning shard — its delta overlay, its tombstone set, its fold —
//! and invalidation is by cache epoch, scoped *and clear-free*: an insert
//! rolls only the owning shard's delta epoch, so that shard's base
//! partials and every other shard's cached work keep hitting.

use crate::index::{load_root, ShardBuildStats, ShardedNhIndex};
use crate::manifest::MANIFEST_FILE;
use crate::policy::{HashPolicy, ShardPolicy};
use crate::Result;
use std::path::Path;
use tale::engine::cache::{CacheStats, ResultCache, DEFAULT_CACHE_ENTRIES};
use tale::engine::exec;
use tale::engine::stats::{BatchStats, QueryStats, ShardStats};
use tale::store::{self, GraphLog};
use tale::{DbRecovery, QueryMatch, QueryOptions, ScratchDir, TaleParams};
use tale_graph::{Graph, GraphDb, GraphId};
use tale_nhindex::{FoldReport, NhIndexConfig, Snapshot};

fn config_of(params: &TaleParams) -> NhIndexConfig {
    NhIndexConfig {
        sbit: params.sbit,
        buffer_frames: params.buffer_frames,
        parallel_build: params.parallel_build,
        bloom_hashes: params.bloom_hashes,
        use_edge_labels: params.use_edge_labels,
        io_workers: params.io_workers,
        prefetch_pages: params.prefetch_pages,
    }
}

/// An indexed graph database partitioned across NH-Index shards, ready
/// for approximate subgraph queries.
pub struct ShardedTaleDatabase {
    db: GraphDb,
    /// The root's graph log: every insert commits through it.
    log: GraphLog,
    index: ShardedNhIndex,
    /// `[base, delta]` result caches per shard, flattened in reader order.
    caches: Vec<ResultCache>,
    // Keeps the scratch directory alive for in-temp builds.
    _scratch: Option<ScratchDir>,
}

impl ShardedTaleDatabase {
    fn assemble(
        db: GraphDb,
        log: GraphLog,
        index: ShardedNhIndex,
        scratch: Option<ScratchDir>,
    ) -> Self {
        ShardedTaleDatabase {
            caches: (0..2 * index.shard_count())
                .map(|_| ResultCache::new(DEFAULT_CACHE_ENTRIES))
                .collect(),
            db,
            log,
            index,
            _scratch: scratch,
        }
    }

    /// Builds a sharded NH-Index for `db` into `dir` and persists the
    /// graphs alongside it, so [`ShardedTaleDatabase::open`] can restore
    /// everything.
    pub fn build(
        db: GraphDb,
        dir: &Path,
        params: &TaleParams,
        nshards: usize,
        policy: &dyn ShardPolicy,
    ) -> Result<Self> {
        Ok(Self::build_with_stats(db, dir, params, nshards, policy)?.0)
    }

    /// Like [`ShardedTaleDatabase::build`], also reporting per-shard
    /// build timings ([`ShardBuildStats`]).
    ///
    /// Over an existing database the old `shards.json` goes first, then
    /// the new graph store (`graphs.json` and an empty log), then the
    /// shards, with the new `shards.json` last: a crash in between leaves
    /// a directory open refuses rather than one pairing old and new files.
    pub fn build_with_stats(
        db: GraphDb,
        dir: &Path,
        params: &TaleParams,
        nshards: usize,
        policy: &dyn ShardPolicy,
    ) -> Result<(Self, ShardBuildStats)> {
        std::fs::create_dir_all(dir)?;
        store::unpublish(dir, MANIFEST_FILE)?;
        let log = GraphLog::create(dir, &db)?;
        let (index, stats) =
            ShardedNhIndex::build_with_stats(dir, &db, &config_of(params), nshards, policy, 0)?;
        Ok((Self::assemble(db, log, index, None), stats))
    }

    /// Builds into a self-cleaning scratch directory with the default
    /// hash placement — convenient for experiments and tests.
    pub fn build_in_temp(db: GraphDb, params: &TaleParams, nshards: usize) -> Result<Self> {
        let scratch = ScratchDir::new("tale-shards")?;
        let mut built = Self::build(db, scratch.path(), params, nshards, &HashPolicy)?;
        built._scratch = Some(scratch);
        Ok(built)
    }

    /// Reopens a database previously built with
    /// [`ShardedTaleDatabase::build`]. `buffer_frames` is the page budget
    /// per shard. Fails if any shard's recorded vocabulary fingerprint
    /// disagrees with the reloaded graphs.
    pub fn open(dir: &Path, buffer_frames: usize) -> Result<Self> {
        Ok(Self::open_with_recovery(dir, buffer_frames)?.0)
    }

    /// Like [`ShardedTaleDatabase::open`], also reporting what a crash
    /// left behind and was repaired. The root's graph store loads first
    /// ([`load_root`]: the base, the vocabulary check, then the log
    /// replayed with a torn final record truncated), then every shard
    /// opens against it, re-deriving its delta and sweeping the
    /// generation directories of unfinished folds.
    pub fn open_with_recovery(dir: &Path, buffer_frames: usize) -> Result<(Self, DbRecovery)> {
        let (db, manifest, log, replayed) = load_root(dir)?;
        let (index, swept) = ShardedNhIndex::open_manifest(dir, buffer_frames, &db, manifest)?;
        let rec = DbRecovery {
            log_records: replayed.shards.len(),
            log_torn_bytes: replayed.torn_bytes,
            generations_swept: swept,
        };
        Ok((Self::assemble(db, log, index, None), rec))
    }

    /// Adds a graph and routes it to a shard with the build policy; it
    /// lands in that shard's in-memory delta overlay (no on-disk index
    /// structure is touched) and is immediately queryable. Returns the new
    /// graph's id. No cache is cleared: only the owning shard's delta
    /// epoch rolls, so its base partials and every other shard's entries
    /// keep hitting.
    ///
    /// The insert commits as one record in the graph log
    /// ([`crate::commit_insert`]): a crash at any point recovers to a
    /// state bit-identical to before or after the insert
    /// ([`ShardedTaleDatabase::open_with_recovery`]). An insert that fails
    /// before that record is durable leaves this handle unchanged; after
    /// any other error, drop this handle and reopen.
    pub fn insert_graph(&mut self, name: impl Into<String>, g: Graph) -> Result<GraphId> {
        self.index
            .insert_graph(&mut self.log, &mut self.db, name, g)
    }

    /// Logically removes a graph (a tombstone in its owning shard). No
    /// cache entry is evicted: removal only *deletes* matches, and the
    /// engine filters cached partials through each snapshot's tombstone
    /// set at read time.
    pub fn remove_graph(&mut self, id: GraphId) -> Result<()> {
        self.index.remove_graph(id)?;
        Ok(())
    }

    /// Folds every shard's delta and tombstones into a fresh on-disk
    /// generation (see [`ShardedNhIndex::fold`]), reclaiming the posting
    /// space of removed graphs. One report per shard.
    pub fn fold(&mut self) -> Result<Vec<FoldReport>> {
        self.index.fold(&self.db)
    }

    /// Interns a node label name into the database vocabulary (for
    /// authoring graphs to pass to
    /// [`ShardedTaleDatabase::insert_graph`]). Interning is append-only —
    /// it never renumbers existing labels — so cached results stay exact
    /// and nothing is cleared; a query using the new label is a new
    /// [`QueryRepr`](tale::engine::cache::QueryRepr) and misses naturally.
    pub fn intern_node_label(&mut self, name: &str) -> tale_graph::NodeLabel {
        self.db.intern_node_label(name)
    }

    /// The underlying graph database.
    pub fn db(&self) -> &GraphDb {
        &self.db
    }

    /// The sharded NH-Index (for introspection: shard map, sizes, probe
    /// counters).
    pub fn index(&self) -> &ShardedNhIndex {
        &self.index
    }

    /// On-disk index footprint in bytes, summed over shards.
    pub fn index_size_bytes(&self) -> u64 {
        self.index.size_bytes()
    }

    /// Pins one snapshot per shard, in shard order.
    fn snapshots(&self) -> Vec<Snapshot> {
        self.index.shards().iter().map(|s| s.snapshot()).collect()
    }

    fn run(
        &self,
        queries: &[&Graph],
        opts: &QueryOptions,
    ) -> Result<(Vec<Vec<QueryMatch>>, BatchStats)> {
        let caches: Vec<&ResultCache> = self.caches.iter().collect();
        let (outputs, mut batch) = Snapshot::with_readers(&self.snapshots(), |readers| {
            exec::run_batch(
                &self.db,
                readers,
                opts.use_cache.then_some(&caches[..]),
                queries,
                opts,
            )
        })?;
        // The engine reports per reader; a shard's row is the sum of its
        // base and delta readers'.
        batch.shards = batch
            .shards
            .chunks(2)
            .enumerate()
            .map(|(s, pair)| ShardStats {
                shard: s,
                ..pair[0].merged(&pair[1])
            })
            .collect();
        Ok((outputs, batch))
    }

    /// Describes — without executing — the plan the engine would choose
    /// for `query` under `opts`: probe order with row estimates, the
    /// readahead budget, and per-reader (each shard's base generation,
    /// then its delta) feasibility from their statistics. Render with [`tale::PlanReport::render`] or serialize
    /// to JSON.
    pub fn explain(&self, query: &Graph, opts: &QueryOptions) -> tale::PlanReport {
        Snapshot::with_readers(&self.snapshots(), |readers| {
            tale::engine::plan::plan_report(&self.db, readers, query, opts)
        })
    }

    /// Runs an approximate subgraph query, scattered over the shards.
    /// Results are bit-identical to [`tale::TaleDatabase::query`] on the
    /// same graphs.
    pub fn query(&self, query: &Graph, opts: &QueryOptions) -> Result<Vec<QueryMatch>> {
        Ok(self.query_with_stats(query, opts)?.0)
    }

    /// Like [`ShardedTaleDatabase::query`], also returning per-stage
    /// execution statistics.
    pub fn query_with_stats(
        &self,
        query: &Graph,
        opts: &QueryOptions,
    ) -> Result<(Vec<QueryMatch>, QueryStats)> {
        let (mut outputs, mut batch) = self.run(&[query], opts)?;
        Ok((outputs.remove(0), batch.per_query.remove(0)))
    }

    /// Runs a batch of queries, scattered over the shards. Output is
    /// aligned with `queries` and bit-identical to the unsharded batch.
    pub fn query_batch(
        &self,
        queries: &[&Graph],
        opts: &QueryOptions,
    ) -> Result<Vec<Vec<QueryMatch>>> {
        Ok(self.query_batch_with_stats(queries, opts)?.0)
    }

    /// Like [`ShardedTaleDatabase::query_batch`], also returning
    /// batch-level statistics — including one
    /// [`tale::ShardStats`] per shard in
    /// [`BatchStats::shards`] and the skew ratio via
    /// [`BatchStats::shard_skew`].
    pub fn query_batch_with_stats(
        &self,
        queries: &[&Graph],
        opts: &QueryOptions,
    ) -> Result<(Vec<Vec<QueryMatch>>, BatchStats)> {
        self.run(queries, opts)
    }

    /// Result-cache counters summed over all shards.
    pub fn result_cache_stats(&self) -> CacheStats {
        self.caches
            .iter()
            .map(ResultCache::stats)
            .fold(CacheStats::default(), CacheStats::merged)
    }

    /// Result-cache counters per shard (base + delta caches summed), in
    /// shard order.
    pub fn shard_cache_stats(&self) -> Vec<CacheStats> {
        self.caches
            .chunks(2)
            .map(|pair| pair[0].stats().merged(pair[1].stats()))
            .collect()
    }

    /// Drops every cached result on every shard.
    pub fn clear_result_cache(&self) {
        for c in &self.caches {
            c.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tale::TaleDatabase;

    fn small_db() -> (GraphDb, Vec<Graph>) {
        let mut db = GraphDb::new();
        let labels: Vec<_> = (0..4)
            .map(|i| db.intern_node_label(&format!("L{i}")))
            .collect();
        let mut graphs = Vec::new();
        for k in 0..6usize {
            let mut g = Graph::new_undirected();
            let n: Vec<_> = (0..4 + k % 3)
                .map(|j| g.add_node(labels[(j + k) % 4]))
                .collect();
            for w in n.windows(2) {
                g.add_edge(w[0], w[1]).unwrap();
            }
            g.add_edge(n[0], n[n.len() - 1]).unwrap();
            db.insert(format!("g{k}"), g.clone());
            graphs.push(g);
        }
        (db, graphs)
    }

    #[test]
    fn sharded_matches_unsharded() {
        let (db, graphs) = small_db();
        let params = TaleParams::default();
        let single = TaleDatabase::build_in_temp(db.clone(), &params).unwrap();
        let opts = QueryOptions {
            p_imp: 0.5,
            ..Default::default()
        };
        let want: Vec<_> = graphs
            .iter()
            .map(|g| single.query(g, &opts).unwrap())
            .collect();
        for nshards in [1, 2, 3] {
            let sharded = ShardedTaleDatabase::build_in_temp(db.clone(), &params, nshards).unwrap();
            for (g, expect) in graphs.iter().zip(&want) {
                let got = sharded.query(g, &opts).unwrap();
                assert_eq!(got.len(), expect.len(), "nshards={nshards}");
                for (a, b) in got.iter().zip(expect) {
                    assert_eq!(a.graph, b.graph, "nshards={nshards}");
                    assert_eq!(a.score.to_bits(), b.score.to_bits(), "nshards={nshards}");
                    assert_eq!(a.m.pairs, b.m.pairs, "nshards={nshards}");
                }
            }
        }
    }

    #[test]
    fn insert_retires_only_owning_shard_cache_keys() {
        let (db, graphs) = small_db();
        let mut sharded =
            ShardedTaleDatabase::build_in_temp(db, &TaleParams::default(), 3).unwrap();
        let opts = QueryOptions {
            p_imp: 0.5,
            ..Default::default()
        };
        // populate every shard's cache
        for g in &graphs {
            sharded.query(g, &opts).unwrap();
        }
        let before: Vec<usize> = sharded
            .shard_cache_stats()
            .iter()
            .map(|s| s.entries)
            .collect();
        assert!(before.iter().all(|&e| e > 0), "{before:?}");
        // 1-WL canonicals can collide between these small rings, letting a
        // later populate query overwrite graphs[0]'s slot (same key,
        // different exact repr). Re-query the probe target so its repr is
        // the resident one before measuring.
        sharded.query(&graphs[0], &opts).unwrap();
        let gid = sharded.insert_graph("late", graphs[0].clone()).unwrap();
        let owner = sharded.index().shard_of(gid).unwrap() as usize;
        // nothing is cleared — the owning shard's old entries are merely
        // unreachable under its advanced generation
        let after: Vec<usize> = sharded
            .shard_cache_stats()
            .iter()
            .map(|s| s.entries)
            .collect();
        assert_eq!(before, after, "insert must not clear any cache");
        // a repeat query re-probes *only* the owning shard; every other
        // shard answers from its still-reachable cached partials
        let counters: Vec<_> = sharded
            .index()
            .shards()
            .iter()
            .map(|s| s.counters())
            .collect();
        let res = sharded.query(&graphs[0], &opts).unwrap();
        for (s, shard) in sharded.index().shards().iter().enumerate() {
            let d = shard.counters().since(counters[s]);
            if s == owner {
                assert!(d.probes > 0, "owning shard must re-run under its new key");
            } else {
                assert_eq!(d.probes, 0, "non-owning shard {s} must hit its cache");
            }
        }
        // and the inserted graph is immediately queryable
        assert!(res.iter().any(|m| m.graph == gid));
    }

    #[test]
    fn an_interned_label_survives_reopen_with_its_id() {
        let (db, graphs) = small_db();
        let dir = tempfile::tempdir().unwrap();
        let opts = QueryOptions {
            p_imp: 0.5,
            ..Default::default()
        };
        let params = TaleParams::default();
        let mut sharded =
            ShardedTaleDatabase::build(db, dir.path(), &params, 2, &HashPolicy).unwrap();
        let fresh = sharded.intern_node_label("FRESH");
        let mut g = graphs[0].clone();
        let extra = g.add_node(fresh);
        g.add_edge(tale_graph::NodeId(0), extra).unwrap();
        let gid = sharded.insert_graph("with-fresh", g.clone()).unwrap();
        let owner = sharded.index().shard_of(gid);
        let want = sharded.query(&g, &opts).unwrap();
        drop(sharded);
        for _ in 0..2 {
            let (back, rec) = ShardedTaleDatabase::open_with_recovery(dir.path(), 256).unwrap();
            assert_eq!(rec.log_records, 1);
            assert_eq!(back.db().node_vocab().get("FRESH"), Some(fresh.0));
            assert_eq!(back.db().graph(gid).label(extra), fresh);
            assert_eq!(back.index().shard_of(gid), owner);
            let got = back.query(&g, &opts).unwrap();
            assert_eq!(got.len(), want.len());
            for (a, b) in got.iter().zip(&want) {
                assert_eq!((a.graph, a.score.to_bits()), (b.graph, b.score.to_bits()));
            }
        }
    }

    #[test]
    fn persist_reopen_and_fingerprint_guard() {
        let (db, graphs) = small_db();
        let dir = tempfile::tempdir().unwrap();
        let params = TaleParams::default();
        let opts = QueryOptions {
            p_imp: 0.5,
            ..Default::default()
        };
        let want = {
            let sharded =
                ShardedTaleDatabase::build(db, dir.path(), &params, 2, &HashPolicy).unwrap();
            sharded.query(&graphs[0], &opts).unwrap()
        };
        let sharded = ShardedTaleDatabase::open(dir.path(), 256).unwrap();
        let got = sharded.query(&graphs[0], &opts).unwrap();
        assert_eq!(got.len(), want.len());
        assert_eq!(got[0].graph, want[0].graph);
        drop(sharded);
        // swap graphs.json for one whose vocabulary drifted (an extra
        // interned label): open must refuse rather than serve wrong
        // bitmaps
        let base = dir.path().join(store::DB_FILE);
        let mut drifted = tale_graph::io::load_json(&base).unwrap();
        drifted.intern_node_label("ZZZ-drift");
        tale_graph::io::save_json(&drifted, &base).unwrap();
        assert!(ShardedTaleDatabase::open(dir.path(), 256).is_err());
    }
}
