//! The indexed graph database, written once: [`ShardedTaleDatabase`] over
//! `shards.json` + `shard-NNN/`, and [`TaleDatabase`], its view at one
//! shard — the paper's single NH-Index over the whole database (§IV-A).
//!
//! The database owns the [`GraphDb`], the root's graph log, a
//! [`ShardedNhIndex`], and a `[base, delta]` pair of [`ResultCache`]s per
//! open shard. Queries pin one MVCC snapshot of every open shard and
//! scatter/gather through the staged engine ([`crate::engine::exec`]), so
//! results are bit-identical at any shard count and thread count.
//! Mutations are the generational ones of the owning shard — its delta
//! overlay, its tombstone set, its fold — and invalidation is by cache
//! epoch, scoped *and clear-free*: an insert rolls only the owning shard's
//! delta epoch, so that shard's base partials and every other shard's
//! cached work keep hitting.
//!
//! Mutations take `&mut self`: the graph store is a plain [`GraphDb`] that
//! [`ShardedTaleDatabase::db`] lends out by reference. Readers of a pinned
//! snapshot never block on a writer inside the index
//! ([`tale_nhindex::mvcc`]), which is where concurrent mutate-during-query
//! lives; a caller that shares one database between a writer and readers
//! puts it behind a lock.

use crate::engine::cache::{CacheStats, ResultCache, DEFAULT_CACHE_ENTRIES};
use crate::engine::exec;
use crate::engine::stats::{BatchStats, QueryStats, ShardStats};
use crate::index::{load_root, ShardBuildStats, ShardedNhIndex};
use crate::manifest::MANIFEST_FILE;
use crate::params::{QueryOptions, TaleParams};
use crate::policy::HashPolicy;
use crate::result::QueryMatch;
use crate::scratch::ScratchDir;
use crate::store::{self, DbRecovery, GraphLog};
use crate::{Result, TaleError};
use std::path::Path;
use std::sync::Arc;
use tale_graph::{Graph, GraphDb, GraphId};
use tale_nhindex::{FoldReport, GenerationalNhIndex, NhIndexConfig, Snapshot, MVCC_FILE};

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
    /// The graph store, shared with callers of [`TaleDatabase::db`];
    /// mutations copy it on write.
    db: Arc<GraphDb>,
    /// The root's graph log: every insert commits through it.
    log: GraphLog,
    index: ShardedNhIndex,
    /// `[base, delta]` result caches per open shard, flattened in reader
    /// order.
    caches: Vec<ResultCache>,
    // Keeps the scratch directory alive for in-temp builds.
    _scratch: Option<ScratchDir>,
}

impl ShardedTaleDatabase {
    fn assemble(db: GraphDb, log: GraphLog, index: ShardedNhIndex) -> Self {
        ShardedTaleDatabase {
            caches: (0..2 * index.shards().len())
                .map(|_| ResultCache::new(DEFAULT_CACHE_ENTRIES))
                .collect(),
            db: Arc::new(db),
            log,
            index,
            _scratch: None,
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
        placement: &HashPolicy,
    ) -> Result<Self> {
        Ok(Self::build_with_stats(db, dir, params, nshards, placement)?.0)
    }

    /// Like [`ShardedTaleDatabase::build`], also reporting per-shard
    /// build timings ([`ShardBuildStats`]).
    ///
    /// Over an existing database the old `shards.json` goes first (and
    /// the top-level index of an older build's single-index layout), then
    /// the new graph store (`graphs.json` and an empty log), then the
    /// shards, with the new `shards.json` last: a crash in between leaves
    /// a directory open refuses rather than one pairing old and new files.
    pub fn build_with_stats(
        db: GraphDb,
        dir: &Path,
        params: &TaleParams,
        nshards: usize,
        placement: &HashPolicy,
    ) -> Result<(Self, ShardBuildStats)> {
        std::fs::create_dir_all(dir)?;
        store::unpublish(dir, MANIFEST_FILE)?;
        store::unpublish(dir, MVCC_FILE)?;
        let legacy_gens = dir.join("gens");
        if legacy_gens.is_dir() {
            std::fs::remove_dir_all(legacy_gens)?;
        }
        let log = GraphLog::create(dir, &db)?;
        let (index, stats) =
            ShardedNhIndex::build_with_stats(dir, &db, &config_of(params), nshards, placement, 0)?;
        Ok((Self::assemble(db, log, index), stats))
    }

    /// Builds into a self-cleaning scratch directory — convenient for experiments and tests. The index
    /// is still genuinely disk-based; it just lives in the OS temp dir for
    /// this handle's lifetime.
    pub fn build_in_temp(db: GraphDb, params: &TaleParams, nshards: usize) -> Result<Self> {
        let scratch = ScratchDir::new("tale-index")?;
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
    /// (the base, the vocabulary check, then the log replayed with a torn
    /// final record truncated), then every shard opens against it,
    /// re-deriving its delta and sweeping the generation directories of
    /// unfinished folds.
    ///
    /// A directory an older build wrote in its single-index layout
    /// (`mvcc.json` at the top, no `shards.json`) is refused as
    /// [`TaleError::Rebuild`] naming `mvcc.json`.
    pub fn open_with_recovery(dir: &Path, buffer_frames: usize) -> Result<(Self, DbRecovery)> {
        let config = NhIndexConfig {
            buffer_frames,
            ..NhIndexConfig::default()
        };
        Self::open_with(dir, &config, None)
    }

    /// Opens only shard `shard` of the database at `root` — a served
    /// worker's slice: the whole graph store, that one shard's index (its
    /// pool and read path sized by `config`; the build-time fields are
    /// the shard's own) and its caches. Queries answer for the shard's
    /// graphs alone, and inserts land in it.
    pub fn open_shard(root: &Path, shard: u32, config: &NhIndexConfig) -> Result<Self> {
        Ok(Self::open_with(root, config, Some(shard))?.0)
    }

    fn open_with(
        dir: &Path,
        config: &NhIndexConfig,
        only: Option<u32>,
    ) -> Result<(Self, DbRecovery)> {
        let (db, manifest, log, replayed) = load_root(dir)?;
        let (index, swept) = ShardedNhIndex::open_manifest(dir, config, &db, manifest, only)?;
        let rec = DbRecovery {
            log_records: replayed.shards.len(),
            log_torn_bytes: replayed.torn_bytes,
            generations_swept: swept,
        };
        Ok((Self::assemble(db, log, index), rec))
    }

    /// Adds a graph — the growing-database scenario the paper's
    /// introduction motivates — and routes it to shard FNV-1a(id) mod N;
    /// it lands in that shard's in-memory delta overlay (no
    /// on-disk index structure is touched) and is immediately queryable,
    /// until a [`ShardedTaleDatabase::fold`] moves it into the next
    /// on-disk generation. The graph must use this database's label
    /// vocabulary. Returns the new graph's id. No cache is cleared: only
    /// the owning shard's delta epoch rolls, so its base partials and
    /// every other shard's entries keep hitting.
    ///
    /// The insert commits as one record appended to the graph log
    /// ([`crate::store`]) — its only durable write besides the shard's
    /// `mvcc.json` flip, and the same cost whatever the database size. A
    /// crash at any point recovers to a state bit-identical to before or
    /// after the insert ([`ShardedTaleDatabase::open_with_recovery`]). An
    /// insert that fails before that record is durable leaves this handle
    /// unchanged; after any other error, drop this handle and reopen.
    pub fn insert_graph(&mut self, name: impl Into<String>, g: Graph) -> Result<GraphId> {
        self.index
            .insert_graph(&mut self.log, &mut self.db, name, g)
    }

    /// Logically removes a graph from query results (a tombstone in its
    /// owning shard; space is reclaimed by [`ShardedTaleDatabase::fold`]).
    /// The graph's id and data remain readable through
    /// [`ShardedTaleDatabase::db`], and snapshots pinned before keep
    /// seeing it. No cache entry is evicted: removal only *deletes*
    /// matches, and the engine filters cached partials through each
    /// snapshot's tombstone set at read time.
    pub fn remove_graph(&mut self, id: GraphId) -> Result<()> {
        self.db.try_graph(id)?;
        self.index.remove_graph(id)?;
        Ok(())
    }

    /// Folds every open shard's delta and tombstones into a fresh on-disk
    /// generation (see [`GenerationalNhIndex::fold`]), reclaiming the
    /// posting space of removed graphs. Snapshots pinned before keep their
    /// generation; its files are deleted when the last one finishes. One
    /// report per shard.
    pub fn fold(&mut self) -> Result<Vec<FoldReport>> {
        self.index.fold(&self.db)
    }

    /// Rebuilds the database without tombstoned graphs, with the same
    /// shard count, placed by hash whatever placement the manifest
    /// recorded. Graph ids are re-assigned (compaction renumbers);
    /// vocabulary and group map are preserved. The
    /// directory — the scratch one of an in-temp build — is rebuilt in
    /// place. Needs every shard open.
    pub fn compact(self, params: &TaleParams) -> Result<Self> {
        let ShardedTaleDatabase {
            db,
            index,
            _scratch,
            ..
        } = self;
        if index.shards().len() != index.shard_count() {
            return Err(TaleError::Manifest(
                "compaction needs every shard of the layout open".into(),
            ));
        }
        let mut fresh = GraphDb::new();
        for (_, name) in db.node_vocab().iter() {
            fresh.intern_node_label(name);
        }
        for (_, name) in db.edge_vocab().iter() {
            fresh.intern_edge_label(name);
        }
        if let Some(groups) = db.group_map() {
            fresh.set_group(groups.to_vec())?;
        }
        for (id, name, g) in db.iter() {
            if !index.is_removed(id) {
                fresh.insert(name.to_owned(), g.clone());
            }
        }
        let (dir, nshards) = (index.dir().to_owned(), index.shard_count());
        drop(index); // release page-file handles before truncating
        let mut built = Self::build(fresh, &dir, params, nshards, &HashPolicy)?;
        built._scratch = _scratch;
        Ok(built)
    }

    /// Interns a node label name into the database vocabulary (for
    /// authoring graphs to pass to [`ShardedTaleDatabase::insert_graph`]).
    ///
    /// Growing the vocabulary past `Sbit` after a deterministic-regime
    /// build keeps the index *correct* (bit positions wrap, which can only
    /// add filter false positives, never false negatives) but a rebuild
    /// regains the Bloom regime's precision. Interning is append-only — it
    /// never renumbers existing labels — so cached results stay exact and
    /// nothing is cleared; a query using the new label is a new
    /// [`QueryRepr`](crate::engine::cache::QueryRepr) and misses
    /// naturally.
    pub fn intern_node_label(&mut self, name: &str) -> tale_graph::NodeLabel {
        Arc::make_mut(&mut self.db).intern_node_label(name)
    }

    /// Interns an edge label name into the database vocabulary, as
    /// [`ShardedTaleDatabase::intern_node_label`] does node labels.
    pub fn intern_edge_label(&mut self, name: &str) -> tale_graph::labels::EdgeLabel {
        Arc::make_mut(&mut self.db).intern_edge_label(name)
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

    /// Pins one snapshot per open shard, in shard order.
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
            .zip(self.index.ids())
            .map(|(pair, s)| ShardStats {
                shard: s as usize,
                ..pair[0].merged(&pair[1])
            })
            .collect();
        Ok((outputs, batch))
    }

    /// Describes — without executing — the plan the engine runs for
    /// `query` under `opts`: one probe per important node, each with its
    /// posting-row estimate from the statistics of every reader (each
    /// shard's base generation, then its delta) that has them. Render with
    /// [`PlanReport::render`](crate::PlanReport::render) or serialize to
    /// JSON.
    pub fn explain(&self, query: &Graph, opts: &QueryOptions) -> crate::PlanReport {
        Snapshot::with_readers(&self.snapshots(), |readers| {
            crate::engine::plan::plan_report(&self.db, readers, self.index.ids().start, query, opts)
        })
    }

    /// Runs an approximate subgraph query (the full §V pipeline, staged
    /// through [`crate::engine`] and scattered over the shards).
    ///
    /// The query graph's labels must come from this database's vocabulary
    /// (intern them via [`GraphDb::intern_node_label`] before building, or
    /// construct queries from database graphs).
    pub fn query(&self, query: &Graph, opts: &QueryOptions) -> Result<Vec<QueryMatch>> {
        Ok(self.query_with_stats(query, opts)?.0)
    }

    /// Like [`ShardedTaleDatabase::query`], also returning per-stage
    /// execution statistics (probe traffic, buffer-pool hit rate, wall
    /// clock).
    pub fn query_with_stats(
        &self,
        query: &Graph,
        opts: &QueryOptions,
    ) -> Result<(Vec<QueryMatch>, QueryStats)> {
        let (mut outputs, mut batch) = self.run(&[query], opts)?;
        Ok((outputs.remove(0), batch.per_query.remove(0)))
    }

    /// Runs a batch of queries. The returned vector is aligned with
    /// `queries`, and each entry is bit-identical to what a standalone
    /// [`ShardedTaleDatabase::query`] call would return — the batch only
    /// amortizes: duplicate queries run once, duplicate probe signatures
    /// hit the disk index once, and the thread pool fans over all
    /// per-graph work without syncing at query boundaries.
    pub fn query_batch(
        &self,
        queries: &[&Graph],
        opts: &QueryOptions,
    ) -> Result<Vec<Vec<QueryMatch>>> {
        Ok(self.query_batch_with_stats(queries, opts)?.0)
    }

    /// Like [`ShardedTaleDatabase::query_batch`], also returning
    /// batch-level statistics — including one [`ShardStats`] per shard in
    /// [`BatchStats::shards`] and the skew ratio via
    /// [`BatchStats::shard_skew`].
    pub fn query_batch_with_stats(
        &self,
        queries: &[&Graph],
        opts: &QueryOptions,
    ) -> Result<(Vec<Vec<QueryMatch>>, BatchStats)> {
        self.run(queries, opts)
    }

    /// Result-cache counters summed over all shards. Each query consults
    /// two caches per shard — one per reader — so a single fully-cached
    /// query on one shard counts two hits.
    pub fn result_cache_stats(&self) -> CacheStats {
        self.caches
            .iter()
            .map(ResultCache::stats)
            .fold(CacheStats::default(), CacheStats::merged)
    }

    /// Counters of the base-generation caches alone (whose entries are
    /// the ones that survive inserts), summed over shards.
    pub fn base_cache_stats(&self) -> CacheStats {
        self.caches
            .iter()
            .step_by(2)
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
}

/// The database with one shard: the layout [`TaleDatabase::build`] writes
/// and the one most users want. A view of [`ShardedTaleDatabase`] — it
/// dereferences to it for querying, mutating and introspection — whose
/// [`TaleDatabase::index`] is its one shard's [`GenerationalNhIndex`] and
/// whose [`TaleDatabase::db`] is a shared handle on the graphs.
pub struct TaleDatabase(ShardedTaleDatabase);

impl TaleDatabase {
    /// Builds generation 0 of the NH-Index for `db` into `dir` and
    /// persists the graphs alongside it, so [`TaleDatabase::open`] can
    /// restore everything (see [`ShardedTaleDatabase::build_with_stats`]
    /// for the crash-safe order over an existing database).
    pub fn build(db: GraphDb, dir: &Path, params: &TaleParams) -> Result<Self> {
        ShardedTaleDatabase::build(db, dir, params, 1, &HashPolicy).map(TaleDatabase)
    }

    /// Builds into a self-cleaning scratch directory (see
    /// [`ShardedTaleDatabase::build_in_temp`]).
    pub fn build_in_temp(db: GraphDb, params: &TaleParams) -> Result<Self> {
        ShardedTaleDatabase::build_in_temp(db, params, 1).map(TaleDatabase)
    }

    /// Reopens a database previously built with [`TaleDatabase::build`],
    /// running crash recovery (discarding the report — use
    /// [`TaleDatabase::open_with_recovery`] to inspect it).
    pub fn open(dir: &Path, buffer_frames: usize) -> Result<Self> {
        Ok(Self::open_with_recovery(dir, buffer_frames)?.0)
    }

    /// Reopens a database, repairing what a crash left behind (see
    /// [`ShardedTaleDatabase::open_with_recovery`]). A layout of more
    /// than one shard is refused as [`TaleError::Manifest`].
    pub fn open_with_recovery(dir: &Path, buffer_frames: usize) -> Result<(Self, DbRecovery)> {
        let (db, rec) = ShardedTaleDatabase::open_with_recovery(dir, buffer_frames)?;
        match db.index().shard_count() {
            1 => Ok((TaleDatabase(db), rec)),
            n => Err(TaleError::Manifest(format!(
                "{} holds {n} shards; open it as a sharded database",
                dir.display()
            ))),
        }
    }

    /// The graph database, as a cheap `Arc` clone: it stays valid while
    /// this handle mutates (a mutation copies the store it replaces).
    pub fn db(&self) -> Arc<GraphDb> {
        Arc::clone(&self.0.db)
    }

    /// The generational NH-Index of the one shard (for introspection:
    /// sizes, probe stats, live generations and their reader pins).
    pub fn index(&self) -> &GenerationalNhIndex {
        &self.0.index().shards()[0]
    }

    /// Rebuilds the database without tombstoned graphs (see
    /// [`ShardedTaleDatabase::compact`]).
    pub fn compact(self, params: &TaleParams) -> Result<Self> {
        self.0.compact(params).map(TaleDatabase)
    }
}

impl std::ops::Deref for TaleDatabase {
    type Target = ShardedTaleDatabase;
    fn deref(&self) -> &ShardedTaleDatabase {
        &self.0
    }
}

impl std::ops::DerefMut for TaleDatabase {
    fn deref_mut(&mut self) -> &mut ShardedTaleDatabase {
        &mut self.0
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use tale_graph::generate::{gnm, mutate, MutationRates};
    use tale_graph::labels::NodeLabel;

    fn triangle_plus_tail(db: &mut GraphDb) -> Graph {
        let a = db.intern_node_label("A");
        let b = db.intern_node_label("B");
        let c = db.intern_node_label("C");
        let d = db.intern_node_label("D");
        let mut g = Graph::new_undirected();
        let n0 = g.add_node(a);
        let n1 = g.add_node(b);
        let n2 = g.add_node(c);
        let n3 = g.add_node(d);
        g.add_edge(n0, n1).unwrap();
        g.add_edge(n1, n2).unwrap();
        g.add_edge(n0, n2).unwrap();
        g.add_edge(n2, n3).unwrap();
        g
    }

    #[test]
    fn self_query_is_top_hit_with_full_match() {
        let mut db = GraphDb::new();
        let g = triangle_plus_tail(&mut db);
        db.insert("target", g.clone());
        // decoy: same labels, no edges
        let mut decoy = Graph::new_undirected();
        for n in g.nodes() {
            decoy.add_node(g.label(n));
        }
        db.insert("decoy", decoy);

        let tale = TaleDatabase::build_in_temp(db, &TaleParams::default()).unwrap();
        let opts = QueryOptions {
            p_imp: 0.5,
            ..Default::default()
        };
        let res = tale.query(&g, &opts).unwrap();
        assert!(!res.is_empty());
        assert_eq!(res[0].graph_name, "target");
        assert_eq!(res[0].matched_nodes, 4);
        assert_eq!(res[0].matched_edges, 4);
    }

    #[test]
    fn top_k_truncates() {
        let mut db = GraphDb::new();
        let base = triangle_plus_tail(&mut db);
        for i in 0..6 {
            db.insert(format!("g{i}"), base.clone());
        }
        let tale = TaleDatabase::build_in_temp(db, &TaleParams::default()).unwrap();
        let opts = QueryOptions::default().with_top_k(3);
        let res = tale.query(&base, &opts).unwrap();
        assert_eq!(res.len(), 3);
    }

    #[test]
    fn noisy_variant_still_found() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut db = GraphDb::new();
        for i in 0..8 {
            db.intern_node_label(&format!("L{i}"));
        }
        let original = gnm(&mut rng, 60, 120, 8);
        let (noisy, _) = mutate(&mut rng, &original, &MutationRates::mild(), 8);
        db.insert("noisy-home", noisy);
        // unrelated graphs
        for i in 0..4 {
            let other = gnm(&mut rng, 60, 120, 8);
            db.insert(format!("other{i}"), other);
        }
        let tale = TaleDatabase::build_in_temp(db, &TaleParams::default()).unwrap();
        let opts = QueryOptions {
            rho: 0.25,
            p_imp: 0.25,
            ..Default::default()
        };
        let res = tale.query(&original, &opts).unwrap();
        assert!(!res.is_empty());
        // The mutated sibling should match more of the query than random
        // graphs; check it lands on top.
        assert_eq!(res[0].graph_name, "noisy-home");
        assert!(
            res[0].matched_nodes > 30,
            "matched {}",
            res[0].matched_nodes
        );
    }

    #[test]
    fn random_importance_is_worse_or_equal() {
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let mut db = GraphDb::new();
        for i in 0..6 {
            db.intern_node_label(&format!("L{i}"));
        }
        let original = tale_graph::generate::preferential_attachment(&mut rng, 150, 2, 0.9, 6);
        let (noisy, _) = mutate(&mut rng, &original, &MutationRates::mild(), 6);
        db.insert("home", noisy);
        let tale = TaleDatabase::build_in_temp(db, &TaleParams::default()).unwrap();
        let degree_opts = QueryOptions {
            p_imp: 0.15,
            ..Default::default()
        };
        let random_opts = QueryOptions {
            p_imp: 0.15,
            importance: crate::ImportanceMeasure::Random(3),
            ..Default::default()
        };
        let by_degree = tale.query(&original, &degree_opts).unwrap();
        let by_random = tale.query(&original, &random_opts).unwrap();
        // §VI-D's direction: degree centrality should not lose to random
        // on *structure* (preserved edges). Node counts alone can tie or
        // flip by a few either way — any sticking anchor lets growth add
        // nodes; edges capture whether the right paralogs were chosen.
        let ed = by_degree.first().map(|r| r.matched_edges).unwrap_or(0);
        let er = by_random.first().map(|r| r.matched_edges).unwrap_or(0);
        assert!(ed >= er, "degree edges {ed} < random edges {er}");
        assert!(ed > 0);
    }

    #[test]
    fn persist_and_reopen() {
        let mut db = GraphDb::new();
        let g = triangle_plus_tail(&mut db);
        db.insert("target", g.clone());
        let dir = tempfile::tempdir().unwrap();
        {
            let tale = TaleDatabase::build(db, dir.path(), &TaleParams::default()).unwrap();
            let r = tale.query(&g, &QueryOptions::default()).unwrap();
            assert_eq!(r[0].matched_nodes, 4);
        }
        let tale = TaleDatabase::open(dir.path(), 256).unwrap();
        let r = tale.query(&g, &QueryOptions::default()).unwrap();
        assert_eq!(r[0].matched_nodes, 4);
        assert_eq!(tale.db().len(), 1);
        assert!(tale.index_size_bytes() > 0);
    }

    #[test]
    fn incremental_insert_is_queriable_and_persistent() {
        let mut db = GraphDb::new();
        let base = triangle_plus_tail(&mut db);
        db.insert("original", base.clone());
        let dir = tempfile::tempdir().unwrap();
        let mut tale = TaleDatabase::build(db, dir.path(), &TaleParams::default()).unwrap();
        // a second copy arrives later
        let gid = tale.insert_graph("late-arrival", base.clone()).unwrap();
        assert_eq!(tale.db().len(), 2);
        let opts = QueryOptions {
            p_imp: 0.5,
            ..Default::default()
        };
        let res = tale.query(&base, &opts).unwrap();
        let names: Vec<&str> = res.iter().map(|r| r.graph_name.as_str()).collect();
        assert!(names.contains(&"late-arrival"), "{names:?}");
        assert!(names.contains(&"original"));
        let late = res.iter().find(|r| r.graph == gid).unwrap();
        assert_eq!(late.matched_nodes, 4);
        drop(tale);
        // reopen: the inserted graph survived on disk
        let tale = TaleDatabase::open(dir.path(), 128).unwrap();
        assert_eq!(tale.db().len(), 2);
        let res = tale.query(&base, &opts).unwrap();
        assert!(res.iter().any(|r| r.graph_name == "late-arrival"));
    }

    #[test]
    fn removed_graph_disappears_from_results() {
        let mut db = GraphDb::new();
        let g = triangle_plus_tail(&mut db);
        db.insert("keep", g.clone());
        db.insert("drop", g.clone());
        let mut tale = TaleDatabase::build_in_temp(db, &TaleParams::default()).unwrap();
        let opts = QueryOptions {
            p_imp: 0.5,
            ..Default::default()
        };
        assert_eq!(tale.query(&g, &opts).unwrap().len(), 2);
        tale.remove_graph(GraphId(1)).unwrap();
        let res = tale.query(&g, &opts).unwrap();
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].graph_name, "keep");
    }

    #[test]
    fn compact_reclaims_tombstones() {
        let mut db = GraphDb::new();
        let g = triangle_plus_tail(&mut db);
        db.insert("keep", g.clone());
        db.insert("drop", g.clone());
        db.insert("keep2", g.clone());
        let dir = tempfile::tempdir().unwrap();
        let mut tale = TaleDatabase::build(db, dir.path(), &TaleParams::default()).unwrap();
        let full_size = tale.index_size_bytes();
        tale.remove_graph(GraphId(1)).unwrap();
        let tale = tale.compact(&TaleParams::default()).unwrap();
        assert_eq!(tale.db().len(), 2);
        assert!(tale.db().find_by_name("drop").is_none());
        assert!(tale.index_size_bytes() <= full_size);
        let opts = QueryOptions {
            p_imp: 0.5,
            ..Default::default()
        };
        let res = tale.query(&g, &opts).unwrap();
        let names: Vec<&str> = res.iter().map(|r| r.graph_name.as_str()).collect();
        assert_eq!(res.len(), 2, "{names:?}");
        assert!(names.contains(&"keep") && names.contains(&"keep2"));
        // the compacted on-disk form reopens cleanly
        drop(tale);
        let tale = TaleDatabase::open(dir.path(), 128).unwrap();
        assert_eq!(tale.db().len(), 2);
    }

    #[test]
    fn empty_query_returns_nothing() {
        let mut db = GraphDb::new();
        let g = triangle_plus_tail(&mut db);
        db.insert("t", g);
        let tale = TaleDatabase::build_in_temp(db, &TaleParams::default()).unwrap();
        let res = tale
            .query(&Graph::new_undirected(), &QueryOptions::default())
            .unwrap();
        assert!(res.is_empty());
    }

    #[test]
    fn greedy_anchor_mode_runs() {
        let mut db = GraphDb::new();
        let g = triangle_plus_tail(&mut db);
        db.insert("t", g.clone());
        let tale = TaleDatabase::build_in_temp(db, &TaleParams::default()).unwrap();
        let opts = QueryOptions {
            greedy_anchors: true,
            ..Default::default()
        };
        let res = tale.query(&g, &opts).unwrap();
        assert_eq!(res[0].matched_nodes, 4);
    }

    #[test]
    fn unknown_label_query_matches_nothing() {
        let mut db = GraphDb::new();
        let g = triangle_plus_tail(&mut db);
        db.insert("t", g);
        let tale = TaleDatabase::build_in_temp(db, &TaleParams::default()).unwrap();
        let mut q = Graph::new_undirected();
        let x = q.add_node(NodeLabel(99)); // label never interned
        let y = q.add_node(NodeLabel(99));
        q.add_edge(x, y).unwrap();
        let res = tale.query(&q, &QueryOptions::default()).unwrap();
        assert!(res.is_empty());
    }

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
        let (mut res, batch) = sharded
            .query_batch_with_stats(&[&graphs[0]], &opts)
            .unwrap();
        let res = res.remove(0);
        assert_eq!(batch.shards.len(), 3);
        for st in &batch.shards {
            if st.shard == owner {
                assert!(st.probes > 0, "owning shard must re-run under its new key");
            } else {
                assert_eq!(
                    st.probes, 0,
                    "non-owning shard {} must hit its cache",
                    st.shard
                );
                assert_eq!(st.pool.accesses(), 0, "shard {} read a page", st.shard);
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

    #[test]
    fn an_old_single_index_directory_is_refused_with_a_rebuild_hint() {
        // The single-index layout of an older build: the graph store and
        // one generational index at the top level, no shards.json.
        let (db, _) = small_db();
        let dir = tempfile::tempdir().unwrap();
        GraphLog::create(dir.path(), &db).unwrap();
        GenerationalNhIndex::build(dir.path(), &db, &config_of(&TaleParams::default())).unwrap();
        for opened in [
            ShardedTaleDatabase::open(dir.path(), 64).err(),
            TaleDatabase::open(dir.path(), 64).err(),
        ] {
            match opened {
                Some(e @ TaleError::Rebuild { .. }) => {
                    let msg = e.to_string();
                    assert!(msg.starts_with("mvcc.json:"), "{msg}");
                    assert!(msg.contains("single-index layout"), "{msg}");
                    assert!(msg.contains("tale-cli build"), "{msg}");
                }
                other => panic!(
                    "expected a rebuild refusal, got {:?}",
                    other.map(|e| e.to_string())
                ),
            }
        }
        // the advice works, and the rebuild leaves nothing of the old index
        let params = TaleParams::default();
        drop(ShardedTaleDatabase::build(db, dir.path(), &params, 1, &HashPolicy).unwrap());
        assert!(!dir.path().join("mvcc.json").exists());
        assert!(!dir.path().join("gens").exists());
        TaleDatabase::open(dir.path(), 64).unwrap();
    }

    #[test]
    fn a_single_index_open_refuses_more_shards() {
        let (db, _) = small_db();
        let dir = tempfile::tempdir().unwrap();
        ShardedTaleDatabase::build(db, dir.path(), &TaleParams::default(), 2, &HashPolicy).unwrap();
        assert!(matches!(
            TaleDatabase::open(dir.path(), 64),
            Err(TaleError::Manifest(_))
        ));
    }

    #[test]
    fn compact_keeps_the_layout_of_a_sharded_database() {
        let (db, graphs) = small_db();
        let params = TaleParams::default();
        let opts = QueryOptions {
            p_imp: 0.5,
            ..Default::default()
        };
        let dir = tempfile::tempdir().unwrap();
        let mut sharded =
            ShardedTaleDatabase::build(db, dir.path(), &params, 2, &HashPolicy).unwrap();
        let full_size = sharded.index_size_bytes();
        sharded.remove_graph(GraphId(2)).unwrap();
        let compacted = sharded.compact(&params).unwrap();
        assert_eq!(compacted.index().shard_count(), 2);
        let by_hash: Vec<u32> = (0..graphs.len() as u32 - 1)
            .map(|g| crate::policy::shard_for(GraphId(g), 2))
            .collect();
        assert_eq!(compacted.index().manifest().assignment, by_hash);
        assert!(compacted.index_size_bytes() <= full_size);
        assert_eq!(compacted.db().len(), graphs.len() - 1);

        // answers equal a fresh build over the remaining graphs
        let mut rest = GraphDb::new();
        for i in 0..4 {
            rest.intern_node_label(&format!("L{i}"));
        }
        for (k, g) in graphs.iter().enumerate().filter(|&(k, _)| k != 2) {
            rest.insert(format!("g{k}"), g.clone());
        }
        let fresh = ShardedTaleDatabase::build_in_temp(rest, &params, 1).unwrap();
        let same = |a: &ShardedTaleDatabase, b: &ShardedTaleDatabase| {
            for g in &graphs {
                let (x, y) = (a.query(g, &opts).unwrap(), b.query(g, &opts).unwrap());
                assert_eq!(x.len(), y.len());
                for (m, n) in x.iter().zip(&y) {
                    assert_eq!((m.graph, m.score.to_bits()), (n.graph, n.score.to_bits()));
                    assert_eq!(m.m.pairs, n.m.pairs);
                }
            }
        };
        same(&compacted, &fresh);
        drop(compacted);
        let reopened = ShardedTaleDatabase::open(dir.path(), 64).unwrap();
        assert_eq!(reopened.index().shard_count(), 2);
        same(&reopened, &fresh);
    }
}
