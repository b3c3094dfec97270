//! [`TaleDatabase`]: the indexed graph database — MVCC reads over
//! immutable index generations, served by the staged query engine in
//! [`crate::engine`].
//!
//! Readers never block on writers: every query pins one immutable
//! [`Snapshot`] (base generation + delta overlay + tombstones) and runs
//! to completion against it, bit-identical to the database as it stood at
//! pin time. Writers mutate through `&self` — they prepare off to the
//! side and publish by atomic pointer swap (see [`tale_nhindex::mvcc`]).

use crate::engine::cache::{CacheStats, ResultCache, DEFAULT_CACHE_ENTRIES};
use crate::engine::exec;
use crate::engine::stats::{BatchStats, QueryStats};
use crate::params::{QueryOptions, TaleParams};
use crate::result::QueryMatch;
use crate::scratch::ScratchDir;
use crate::store::{self, DbRecovery, GraphLog};
use crate::Result;
use parking_lot::{Mutex, RwLock};
use std::path::Path;
use std::sync::Arc;
use tale_nhindex::{FoldReport, GenerationalNhIndex, NhIndexConfig, Snapshot, MVCC_FILE};

use tale_graph::{Graph, GraphDb, GraphId};

/// An indexed graph database ready for approximate subgraph queries.
///
/// Owns the [`GraphDb`] (graphs + vocabularies + optional §IV-E group
/// map), the generational disk-resident NH-Index built over it, and two
/// LRU result caches (base-generation and delta-overlay partials) shared
/// by every query issued through this handle.
///
/// All mutation methods take `&self`: queries running concurrently with
/// [`TaleDatabase::insert_graph`], [`TaleDatabase::remove_graph`] or
/// [`TaleDatabase::fold`] keep the snapshot they pinned and are never
/// blocked or perturbed by the writer.
pub struct TaleDatabase {
    /// The graph store. Writers publish a fresh `Arc` *before* the index
    /// state; readers pin the index snapshot *first* — so a pinned
    /// snapshot's graphs always exist in the db the reader sees.
    db: RwLock<Arc<GraphDb>>,
    index: GenerationalNhIndex,
    /// Serializes mutations and holds the graph log they commit through
    /// (`None` for in-temp databases, which persist no graphs); never
    /// touched by queries.
    writer: Mutex<Option<GraphLog>>,
    /// Pre-rank partials derived from the base generation and from the
    /// delta overlay — one cache per reader of a pinned snapshot.
    caches: [ResultCache; 2],
    // Keeps the scratch directory alive for in-temp builds.
    _scratch: Option<ScratchDir>,
}

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

impl TaleDatabase {
    fn assemble(
        db: GraphDb,
        index: GenerationalNhIndex,
        log: Option<GraphLog>,
        scratch: Option<ScratchDir>,
    ) -> Self {
        TaleDatabase {
            db: RwLock::new(Arc::new(db)),
            index,
            writer: Mutex::new(log),
            caches: [
                ResultCache::new(DEFAULT_CACHE_ENTRIES),
                ResultCache::new(DEFAULT_CACHE_ENTRIES),
            ],
            _scratch: scratch,
        }
    }

    /// Builds generation 0 of the NH-Index for `db` into `dir` and
    /// persists the graphs alongside it, so [`TaleDatabase::open`] can
    /// restore everything.
    ///
    /// Over an existing database the order keeps a crash from pairing old
    /// and new files: the old `mvcc.json` goes first, then the new graph
    /// store (`graphs.json` and an empty log) is written, and the new
    /// index's manifest last. Until it is, open refuses the directory
    /// with [`TaleError::Rebuild`](crate::TaleError::Rebuild).
    pub fn build(db: GraphDb, dir: &Path, params: &TaleParams) -> Result<Self> {
        std::fs::create_dir_all(dir)?;
        store::unpublish(dir, MVCC_FILE)?;
        let log = GraphLog::create(dir, &db)?;
        let index = GenerationalNhIndex::build(dir, &db, &config_of(params))?;
        Ok(Self::assemble(db, index, Some(log), None))
    }

    /// Builds into a self-cleaning scratch directory — convenient for
    /// experiments and tests. The index is still genuinely disk-based; it
    /// just lives in the OS temp dir for this process's lifetime.
    pub fn build_in_temp(db: GraphDb, params: &TaleParams) -> Result<Self> {
        let scratch = ScratchDir::new("tale-index")?;
        let index = GenerationalNhIndex::build(scratch.path(), &db, &config_of(params))?;
        Ok(Self::assemble(db, index, None, Some(scratch)))
    }

    /// Reopens a database previously built with [`TaleDatabase::build`],
    /// running crash recovery (discarding the report — use
    /// [`TaleDatabase::open_with_recovery`] to inspect it).
    pub fn open(dir: &Path, buffer_frames: usize) -> Result<Self> {
        Ok(Self::open_with_recovery(dir, buffer_frames)?.0)
    }

    /// Reopens a database, repairing what a crash left behind: the graph
    /// store loads its base and replays its log ([`crate::store`]:
    /// truncating a torn final record), then the generational index opens
    /// against it — sweeping orphaned generation directories from
    /// unfinished folds and re-deriving the in-memory delta overlay from
    /// the store — so the pair can never be served out of sync.
    pub fn open_with_recovery(dir: &Path, buffer_frames: usize) -> Result<(Self, DbRecovery)> {
        store::require(dir, MVCC_FILE)?;
        let mut db = store::load_base(dir)?;
        let (log, replayed) = GraphLog::replay(dir, &mut db)?;
        let (index, mvcc) = GenerationalNhIndex::open(dir, &db, buffer_frames)?;
        let report = DbRecovery {
            log_records: replayed.shards.len(),
            log_torn_bytes: replayed.torn_bytes,
            generations_swept: vec![mvcc.swept.len()],
        };
        Ok((Self::assemble(db, index, Some(log), None), report))
    }

    /// Adds a graph to the database — the growing-database scenario the
    /// paper's introduction motivates. The graph lands in the in-memory
    /// delta overlay (no on-disk index structure is touched) and is
    /// immediately queryable; a later [`TaleDatabase::fold`] moves it
    /// into the next on-disk generation. The graph must use this
    /// database's label vocabulary. Returns the new graph's id.
    ///
    /// In-flight queries are unaffected: they keep the snapshot they
    /// pinned. Cached results derived from the base generation remain
    /// valid **and reachable** — inserting cannot change what the
    /// immutable base answers, so only the delta's cache epoch rolls.
    ///
    /// For on-disk databases ([`TaleDatabase::build`]), the insert
    /// commits by appending one record to the graph log
    /// ([`crate::store`]) — its only durable write besides the index's
    /// `mvcc.json` flip, and the same cost whatever the database size.
    /// A crash before the record is durable leaves the insert undone; at
    /// or after it, done (open re-derives the index's delta from the
    /// store). After an error, drop this handle and reopen.
    pub fn insert_graph(&self, name: impl Into<String>, g: Graph) -> Result<GraphId> {
        let mut log = self.writer.lock();
        let mut next = (**self.db.read()).clone();
        let gid = next.insert(name, g);
        // append (the commit point) → publish the db → index the graph
        if let Some(log) = log.as_mut() {
            log.append(&next, gid, None)?;
        }
        let next = Arc::new(next);
        *self.db.write() = Arc::clone(&next);
        self.index.insert_graph(&next, gid)?;
        Ok(gid)
    }

    /// Logically removes a graph from query results (a tombstone in the
    /// current MVCC state; space is reclaimed by [`TaleDatabase::fold`]).
    /// The graph's id and data remain readable through
    /// [`TaleDatabase::db`], and queries that already pinned a snapshot
    /// keep seeing it — that is the MVCC contract.
    ///
    /// No cache entry is evicted: removal can only *delete* matches, and
    /// the engine filters cached partial lists through the snapshot's
    /// tombstone set at read time, so every entry stays warm and exactly
    /// correct.
    pub fn remove_graph(&self, id: GraphId) -> Result<()> {
        let _w = self.writer.lock();
        self.db.read().try_graph(id)?;
        self.index.remove_graph(id)?;
        Ok(())
    }

    /// Folds the accumulated delta and tombstones into a new immutable
    /// on-disk generation (see [`GenerationalNhIndex::fold`]). Queries
    /// keep flowing throughout: the fold builds off to the side, commits
    /// with one atomic manifest flip, and the old generation's files are
    /// deleted only when the last query pinning them finishes.
    pub fn fold(&self) -> Result<FoldReport> {
        let _w = self.writer.lock();
        let db = self.db.read().clone();
        Ok(self.index.fold(&db)?)
    }

    /// Rebuilds the database without tombstoned graphs, reclaiming the
    /// dead posting space `remove_graph` leaves behind. Graph ids are
    /// re-assigned (compaction renumbers); vocabulary and group map are
    /// preserved. On-disk databases are rebuilt in place; in-temp
    /// databases get a fresh scratch directory.
    pub fn compact(self, params: &TaleParams) -> Result<TaleDatabase> {
        let TaleDatabase {
            db,
            index,
            _scratch,
            ..
        } = self;
        let db = db.into_inner();
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
        let in_temp = _scratch.is_some();
        let dir = index.dir().to_owned();
        drop(index); // release page-file handles before truncating
        if in_temp {
            TaleDatabase::build_in_temp(fresh, params)
        } else {
            TaleDatabase::build(fresh, &dir, params)
        }
    }

    /// Interns a node label name into the database vocabulary (for
    /// authoring graphs to pass to [`TaleDatabase::insert_graph`]).
    ///
    /// Growing the vocabulary past `Sbit` after a deterministic-regime
    /// build keeps the index *correct* (bit positions wrap, which can only
    /// add filter false positives, never false negatives) but a rebuild
    /// regains the Bloom regime's precision.
    ///
    /// Cached results stay valid: interning is append-only (existing
    /// labels and effective mappings are untouched), and cache entries
    /// verify the exact query representation on lookup anyway.
    pub fn intern_node_label(&self, name: &str) -> tale_graph::NodeLabel {
        let _w = self.writer.lock();
        let mut next = (**self.db.read()).clone();
        let label = next.intern_node_label(name);
        *self.db.write() = Arc::new(next);
        label
    }

    /// The underlying graph database (a cheap `Arc` clone of the current
    /// published state; concurrent inserts publish fresh `Arc`s and never
    /// mutate one you hold).
    pub fn db(&self) -> Arc<GraphDb> {
        self.db.read().clone()
    }

    /// The generational NH-Index (for introspection: sizes, probe stats,
    /// live generations and their reader pins).
    pub fn index(&self) -> &GenerationalNhIndex {
        &self.index
    }

    /// On-disk index footprint in bytes.
    pub fn index_size_bytes(&self) -> u64 {
        self.index.size_bytes()
    }

    fn run(
        &self,
        queries: &[&Graph],
        opts: &QueryOptions,
    ) -> Result<(Vec<Vec<QueryMatch>>, BatchStats)> {
        // Pin order matters: index snapshot first, then the db Arc.
        // Writers publish the db first, so the db we read always covers
        // every graph the snapshot can answer with.
        let snap = self.index.snapshot();
        let db = self.db.read().clone();
        let caches: Vec<&ResultCache> = self.caches.iter().collect();
        Snapshot::with_readers(&[snap], |readers| {
            exec::run_batch(
                &db,
                readers,
                opts.use_cache.then_some(&caches[..]),
                queries,
                opts,
            )
        })
    }

    /// Describes — without executing — the plan the engine would choose
    /// for `query` under `opts`: probe order with row estimates, the
    /// readahead budget, and per-reader feasibility.
    /// Render with [`PlanReport::render`](crate::PlanReport::render) or
    /// serialize to JSON.
    pub fn explain(&self, query: &Graph, opts: &QueryOptions) -> crate::PlanReport {
        let snap = self.index.snapshot();
        let db = self.db.read().clone();
        Snapshot::with_readers(&[snap], |readers| {
            crate::engine::plan::plan_report(&db, readers, query, opts)
        })
    }

    /// Runs an approximate subgraph query (the full §V pipeline, staged
    /// through [`crate::engine`]).
    ///
    /// The query graph's labels must come from this database's vocabulary
    /// (intern them via [`GraphDb::intern_node_label`] before building, or
    /// construct queries from database graphs).
    pub fn query(&self, query: &Graph, opts: &QueryOptions) -> Result<Vec<QueryMatch>> {
        Ok(self.query_with_stats(query, opts)?.0)
    }

    /// Like [`TaleDatabase::query`], also returning per-stage execution
    /// statistics (probe traffic, buffer-pool hit rate, wall clock).
    pub fn query_with_stats(
        &self,
        query: &Graph,
        opts: &QueryOptions,
    ) -> Result<(Vec<QueryMatch>, QueryStats)> {
        let (mut outputs, mut batch) = self.run(&[query], opts)?;
        Ok((outputs.remove(0), batch.per_query.remove(0)))
    }

    /// Runs a batch of queries through the staged engine. The returned
    /// vector is aligned with `queries`, and each entry is bit-identical
    /// to what a standalone [`TaleDatabase::query`] call would return —
    /// the batch only amortizes: duplicate queries run once, duplicate
    /// probe signatures hit the disk index once, and the thread pool fans
    /// over all per-graph work without syncing at query boundaries.
    pub fn query_batch(
        &self,
        queries: &[&Graph],
        opts: &QueryOptions,
    ) -> Result<Vec<Vec<QueryMatch>>> {
        Ok(self.query_batch_with_stats(queries, opts)?.0)
    }

    /// Like [`TaleDatabase::query_batch`], also returning batch-level
    /// statistics (per-query traffic, amortization counters, stage times).
    pub fn query_batch_with_stats(
        &self,
        queries: &[&Graph],
        opts: &QueryOptions,
    ) -> Result<(Vec<Vec<QueryMatch>>, BatchStats)> {
        self.run(queries, opts)
    }

    /// Combined counter snapshot of the base and delta result caches
    /// (hits, misses, insertions). Each query consults both caches — one
    /// per index reader — so a single fully-cached query counts two hits.
    pub fn result_cache_stats(&self) -> CacheStats {
        self.caches[0].stats().merged(self.caches[1].stats())
    }

    /// Counter snapshot of the base-generation cache alone (whose entries
    /// are the ones that survive inserts).
    pub fn base_cache_stats(&self) -> CacheStats {
        self.caches[0].stats()
    }

    /// Drops every cached result. No mutation path does this anymore —
    /// invalidation is generation-keyed — but explicit maintenance may
    /// still want a cold cache.
    pub fn clear_result_cache(&self) {
        for c in &self.caches {
            c.clear();
        }
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
        let tale = TaleDatabase::build(db, dir.path(), &TaleParams::default()).unwrap();
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
        let tale = TaleDatabase::build_in_temp(db, &TaleParams::default()).unwrap();
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
        let tale = TaleDatabase::build(db, dir.path(), &TaleParams::default()).unwrap();
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
}
