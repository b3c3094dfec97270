//! [`ShardedNhIndex`]: N independent generational NH-Indexes behind one
//! handle.
//!
//! Each shard is a complete, self-contained
//! [`GenerationalNhIndex`] directory (`mvcc.json` + `gens/gN/`) covering
//! a disjoint subset of the database's graphs — its *members*, the
//! shard's rows of `shards.json`. All shards share one neighbor-array
//! scheme — every shard's generation 0 derives it from the *full*
//! database vocabulary, and folds keep it — which is what makes per-shard
//! probe answers byte-equal to the matching slice of an unsharded probe
//! (see `tale::engine::exec` for the full determinism argument).
//!
//! Building fans one generation-0 build per shard across worker threads:
//! each shard extracts, sorts, and bulk-loads in isolation, so the
//! sort+merge step — serial in a single-file build even with
//! `parallel_build` on — is itself partitioned N ways.
//!
//! Mutations are the generational ones, per shard: an insert commits as
//! one record in the root's graph log and lands in the owning shard's
//! delta overlay ([`ShardedNhIndex::insert_graph`]), a removal is a
//! tombstone in the owning shard's manifest, and a fold builds that
//! shard's next generation, committed by that shard's `mvcc.json` flip.
//!
//! A served worker opens only its own shard
//! ([`ShardedTaleDatabase::open_shard`](crate::ShardedTaleDatabase::open_shard)):
//! the handle then holds that one index and answers for its graphs alone.

use crate::manifest::{vocab_fingerprint, ShardManifest, MANIFEST_FILE, MANIFEST_SCHEMA_VERSION};
use crate::policy::{policy_by_name, ShardPolicy};
use crate::store::{self, GraphLog, Replayed};
use crate::{Result, TaleError};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use tale_graph::{Graph, GraphDb, GraphId};
use tale_nhindex::{
    FoldReport, GenerationalNhIndex, IntegrityReport, MvccRecovery, NhIndexConfig, MVCC_FILE,
};
use tale_storage::IoPool;

/// Per-shard build timings and sizes, for observability. Produced by
/// [`ShardedNhIndex::build_with_stats`].
#[derive(Debug, Clone, serde::Serialize)]
pub struct ShardBuildStats {
    /// Wall-clock seconds each shard spent in its own
    /// extract/sort/bulk-load, indexed by shard.
    pub per_shard_secs: Vec<f64>,
    /// Wall clock of the whole sharded build (parallel region + manifest).
    pub total_secs: f64,
    /// Graphs assigned to each shard.
    pub graphs_per_shard: Vec<usize>,
    /// Total nodes assigned to each shard (the load the size-balanced
    /// policy equalizes).
    pub nodes_per_shard: Vec<u64>,
}

impl ShardBuildStats {
    /// Max shard build time over mean shard build time (1.0 = perfectly
    /// even; the build's critical path is the max).
    pub fn skew(&self) -> f64 {
        if self.per_shard_secs.is_empty() {
            return 0.0;
        }
        let max = self.per_shard_secs.iter().copied().fold(0.0, f64::max);
        let mean = self.per_shard_secs.iter().sum::<f64>() / self.per_shard_secs.len() as f64;
        if mean <= 0.0 {
            0.0
        } else {
            max / mean
        }
    }
}

/// Loads a database root's graph store and shard map, ready to open
/// shards against: refuses a root without `shards.json`, checks every
/// shard's recorded vocabulary fingerprint against the *base*
/// `graphs.json` (the vocabulary the shards were built against; labels
/// interned by later inserts travel in the log), then replays
/// `graphs.log`, appending each record's shard to the assignment.
///
/// A root holding `mvcc.json` but no `shards.json` is the single-index
/// layout of an older build, refused as [`TaleError::Rebuild`] naming it.
pub(crate) fn load_root(root: &Path) -> Result<(GraphDb, ShardManifest, GraphLog, Replayed)> {
    if !root.join(MANIFEST_FILE).is_file() && root.join(MVCC_FILE).is_file() {
        return Err(TaleError::Rebuild {
            file: MVCC_FILE.to_owned(),
            problem: "the old single-index layout (an index at the top level and no \
                      shards.json), which this build no longer opens"
                .to_owned(),
        });
    }
    store::require(root, MANIFEST_FILE)?;
    let mut manifest = ShardManifest::load(root)?;
    let mut db = store::load_base(root)?;
    check_vocabulary(&manifest, &db)?;
    let (log, replayed) = GraphLog::replay(root, &mut db)?;
    for (i, s) in replayed.shards.iter().enumerate() {
        match *s {
            Some(s) if s < manifest.shard_count => manifest.assignment.push(s),
            other => {
                return Err(TaleError::Manifest(format!(
                    "graph log record {i} names shard {other:?} of {}",
                    manifest.shard_count
                )))
            }
        }
    }
    Ok((db, manifest, log, replayed))
}

/// Refuses `db` unless every shard was built against its vocabulary:
/// vocabulary drift would silently corrupt probe bitmaps.
fn check_vocabulary(manifest: &ShardManifest, db: &GraphDb) -> Result<()> {
    let fp = vocab_fingerprint(db);
    match manifest.vocab_fingerprints.iter().position(|&f| f != fp) {
        None => Ok(()),
        Some(s) => Err(TaleError::Manifest(format!(
            "shard {s} was built against a different vocabulary \
             (fingerprint {:#018x}, database has {fp:#018x})",
            manifest.vocab_fingerprints[s]
        ))),
    }
}

/// Opens shard `s` of the layout rooted at `root` over its rows of
/// `manifest`. A directory this build cannot read — the pre-generational
/// layout (`nh.meta.json` at the shard's top level, no `mvcc.json`) or one
/// carrying a stray write-ahead log — is a typed manifest error, never a
/// misread; an index-layer failure is attributed to the shard.
fn open_shard(
    root: &Path,
    manifest: &ShardManifest,
    db: &GraphDb,
    s: u32,
    config: &NhIndexConfig,
    io: Option<Arc<IoPool>>,
) -> Result<(GenerationalNhIndex, MvccRecovery)> {
    let dir = ShardManifest::shard_dir(root, s);
    let problem = [tale_nhindex::LEGACY_WAL_FILE, "nh.meta.json"]
        .into_iter()
        .find(|f| dir.join(f).exists())
        .map(|f| format!("found a stray {f}"))
        .or_else(|| (!dir.join("mvcc.json").exists()).then(|| "no mvcc.json".to_owned()));
    if let Some(problem) = problem {
        return Err(TaleError::Manifest(format!(
            "shard {s} is not a generational index directory ({problem}); \
             rebuild with `tale-cli build --shards N`"
        )));
    }
    GenerationalNhIndex::open_members(&dir, db, &manifest.graphs_of(s), config, io)
        .map_err(|source| TaleError::Shard { shard: s, source })
}

/// A partitioned NH-Index: one independent generational index per shard
/// plus the [`ShardManifest`] mapping graphs to shards.
pub struct ShardedNhIndex {
    /// The open shards, in shard order: all of them, or the one a served
    /// worker owns.
    shards: Vec<GenerationalNhIndex>,
    /// The shard id of `shards[0]`.
    first: u32,
    manifest: ShardManifest,
    dir: PathBuf,
}

impl ShardedNhIndex {
    /// Builds a sharded index for `db` under `dir` (see
    /// [`ShardedNhIndex::build_with_stats`]).
    pub fn build(
        dir: &Path,
        db: &GraphDb,
        config: &NhIndexConfig,
        nshards: usize,
        policy: &dyn ShardPolicy,
        threads: usize,
    ) -> Result<Self> {
        Ok(Self::build_with_stats(dir, db, config, nshards, policy, threads)?.0)
    }

    /// Builds a sharded index and reports per-shard timings.
    ///
    /// `policy.assign` splits the graphs; each shard then builds its
    /// generation 0 in its own `shard-NNN/` directory (cleared first), fanned
    /// over `threads` workers (`0` = all cores). The manifest is written
    /// last, so a crash mid-build leaves no directory that
    /// [`ShardedNhIndex::open`] would accept.
    pub fn build_with_stats(
        dir: &Path,
        db: &GraphDb,
        config: &NhIndexConfig,
        nshards: usize,
        policy: &dyn ShardPolicy,
        threads: usize,
    ) -> Result<(Self, ShardBuildStats)> {
        if nshards == 0 {
            return Err(TaleError::Manifest("shard count must be >= 1".into()));
        }
        std::fs::create_dir_all(dir)?;
        let assignment = policy.assign(db, nshards);
        if assignment.len() != db.len() {
            return Err(TaleError::Manifest(format!(
                "policy {} assigned {} graphs, database has {}",
                policy.name(),
                assignment.len(),
                db.len()
            )));
        }
        if let Some(&bad) = assignment.iter().find(|&&s| s >= nshards as u32) {
            return Err(TaleError::Manifest(format!(
                "policy {} assigned shard {bad} with only {nshards} shards",
                policy.name()
            )));
        }
        let mut groups: Vec<Vec<GraphId>> = vec![Vec::new(); nshards];
        for (i, &s) in assignment.iter().enumerate() {
            groups[s as usize].push(GraphId(i as u32));
        }

        let t_total = Instant::now();
        // The parallel region: every shard sorts its own units and
        // bulk-loads its own B+-tree — no cross-shard merge exists. With
        // more than one shard the shard-level fan-out already occupies the
        // workers, so each shard extracts serially inside its thread.
        // Every shard binds to ONE shared read-path worker pool, so total
        // I/O concurrency stays `config.io_workers`, not
        // `shards × io_workers` — for every generation a fold opens too.
        let sub_config = NhIndexConfig {
            parallel_build: config.parallel_build && nshards == 1,
            ..config.clone()
        };
        let io = (config.io_workers > 0).then(|| IoPool::new(config.io_workers));
        let built: Vec<tale_nhindex::Result<(GenerationalNhIndex, f64)>> =
            tale_par::parallel_map(threads, nshards, |s| {
                let t = Instant::now();
                let shard_dir = ShardManifest::shard_dir(dir, s as u32);
                if shard_dir.exists() {
                    std::fs::remove_dir_all(&shard_dir)?;
                }
                let idx = GenerationalNhIndex::build_members(
                    &shard_dir,
                    db,
                    &groups[s],
                    &sub_config,
                    io.clone(),
                )?;
                Ok((idx, t.elapsed().as_secs_f64()))
            });
        let mut shards = Vec::with_capacity(nshards);
        let mut per_shard_secs = Vec::with_capacity(nshards);
        for (s, r) in built.into_iter().enumerate() {
            let (idx, secs) = r.map_err(|source| TaleError::Shard {
                shard: s as u32,
                source,
            })?;
            shards.push(idx);
            per_shard_secs.push(secs);
        }

        let manifest = ShardManifest {
            schema_version: MANIFEST_SCHEMA_VERSION,
            shard_count: nshards as u32,
            policy: policy.name().to_owned(),
            assignment,
            vocab_fingerprints: vec![vocab_fingerprint(db); nshards],
        };
        manifest.save(dir)?;

        let stats = ShardBuildStats {
            per_shard_secs,
            total_secs: t_total.elapsed().as_secs_f64(),
            graphs_per_shard: groups.iter().map(Vec::len).collect(),
            nodes_per_shard: groups
                .iter()
                .map(|g| g.iter().map(|&gid| db.graph(gid).node_count() as u64).sum())
                .collect(),
        };
        Ok((
            ShardedNhIndex {
                shards,
                first: 0,
                manifest,
                dir: dir.to_owned(),
            },
            stats,
        ))
    }

    /// Reopens a sharded index built by [`ShardedNhIndex::build`] over
    /// the rows of its `shards.json`, also returning how many orphaned
    /// generation directories each shard swept (in shard order).
    ///
    /// `db` must be the database the index was built against; each
    /// shard's recorded vocabulary fingerprint is checked against it
    /// (vocabulary drift would silently corrupt probe bitmaps, so it is an
    /// error here). A database directory with inserts in its graph log
    /// opens through [`ShardedTaleDatabase`](crate::ShardedTaleDatabase)
    /// instead.
    pub fn open(dir: &Path, buffer_frames: usize, db: &GraphDb) -> Result<(Self, Vec<usize>)> {
        let manifest = ShardManifest::load(dir)?;
        check_vocabulary(&manifest, db)?;
        let config = NhIndexConfig {
            buffer_frames,
            ..NhIndexConfig::default()
        };
        Self::open_manifest(dir, &config, db, manifest, None)
    }

    /// Opens the shards of `dir` over the assignment of `manifest`: every
    /// shard, or only shard `only`. `config` sizes each shard's pool and
    /// the one read-path worker pool they share. A shard that cannot be
    /// opened fails with [`TaleError::Shard`] naming it, so a
    /// partial-shard failure is distinguishable from a bad manifest;
    /// shards whose neighbor-array schemes disagree are refused (every
    /// probe signature of a run is laid out for one scheme).
    pub(crate) fn open_manifest(
        dir: &Path,
        config: &NhIndexConfig,
        db: &GraphDb,
        manifest: ShardManifest,
        only: Option<u32>,
    ) -> Result<(Self, Vec<usize>)> {
        if manifest.assignment.len() != db.len() {
            return Err(TaleError::Manifest(format!(
                "manifest maps {} graphs, database has {}",
                manifest.assignment.len(),
                db.len()
            )));
        }
        let ids = match only {
            None => 0..manifest.shard_count,
            Some(s) if s < manifest.shard_count => s..s + 1,
            Some(s) => {
                return Err(TaleError::Manifest(format!(
                    "shard {s} out of range: the layout has {} shards",
                    manifest.shard_count
                )))
            }
        };
        let io = (config.io_workers > 0).then(|| IoPool::new(config.io_workers));
        let first = ids.start;
        let mut shards: Vec<GenerationalNhIndex> = Vec::with_capacity(ids.len());
        let mut swept = Vec::with_capacity(ids.len());
        for s in ids {
            let (idx, rec) = open_shard(dir, &manifest, db, s, config, io.clone())?;
            if let Some(first) = shards.first() {
                if idx.scheme() != first.scheme() {
                    return Err(TaleError::Manifest(format!(
                        "shard {s} uses neighbor-array scheme {:?} but shard 0 uses {:?}; \
                         rebuild with `tale-cli build --shards N`",
                        idx.scheme(),
                        first.scheme()
                    )));
                }
            }
            shards.push(idx);
            swept.push(rec.swept.len());
        }
        Ok((
            ShardedNhIndex {
                shards,
                first,
                manifest,
                dir: dir.to_owned(),
            },
            swept,
        ))
    }

    /// Deep integrity check of every open shard's current generation:
    /// page checksums, B+-tree key ordering, and posting decodability.
    /// Returns one report per shard, in shard order; an I/O failure while
    /// sweeping a shard is attributed to it via [`TaleError::Shard`].
    pub fn verify(&self) -> Result<Vec<IntegrityReport>> {
        self.ids()
            .zip(&self.shards)
            .map(|(shard, sh)| {
                sh.verify()
                    .map_err(|source| TaleError::Shard { shard, source })
            })
            .collect()
    }

    /// The open shards, in shard order. The query engine pins one
    /// snapshot of each and scatters over their base and delta readers.
    pub fn shards(&self) -> &[GenerationalNhIndex] {
        &self.shards
    }

    /// The ids of the open shards, in the order of [`ShardedNhIndex::shards`].
    pub fn ids(&self) -> std::ops::Range<u32> {
        self.first..self.first + self.shards.len() as u32
    }

    /// The open shard `s`, or `None` if this handle did not open it.
    fn shard(&self, s: u32) -> Option<&GenerationalNhIndex> {
        self.shards.get(s.checked_sub(self.first)? as usize)
    }

    /// Number of shards in the layout.
    pub fn shard_count(&self) -> usize {
        self.manifest.shard_count as usize
    }

    /// The shard map.
    pub fn manifest(&self) -> &ShardManifest {
        &self.manifest
    }

    /// Root directory (the one holding `shards.json`).
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The shard owning `gid`, or `None` if the manifest has never seen
    /// that id.
    pub fn shard_of(&self, gid: GraphId) -> Option<u32> {
        self.manifest.shard_of(gid)
    }

    /// Inserts `g` into `db` and indexes it: `g` becomes graph `gid` of
    /// `db` and a member of the shard the build policy routes it to (of a
    /// handle holding one shard: that shard). Returns `gid`.
    ///
    /// Sequence: insert into a copy of `db` → append the graph's record,
    /// naming its shard, to `log` (the commit point) → publish the copy as
    /// `db` and add the row to the in-memory manifest → the shard's delta
    /// and `mvcc.json` flip. A failure before the commit point leaves `db`
    /// and the manifest as they were, so the next insert proceeds; after
    /// an error past it, drop the handle and reopen. `shards.json` is not
    /// rewritten: open rebuilds the assignment from its rows plus the
    /// records' shards.
    pub fn insert_graph(
        &mut self,
        log: &mut GraphLog,
        db: &mut Arc<GraphDb>,
        name: impl Into<String>,
        g: Graph,
    ) -> Result<GraphId> {
        let mut next = GraphDb::clone(db);
        let gid = next.insert(name, g);
        if gid.idx() != self.manifest.assignment.len() {
            return Err(TaleError::Manifest(format!(
                "insert of graph {} but manifest maps {} graphs (ids are dense)",
                gid.0,
                self.manifest.assignment.len()
            )));
        }
        let s = if self.shards.len() == self.shard_count() {
            let policy = policy_by_name(&self.manifest.policy).ok_or_else(|| {
                TaleError::Manifest(format!("unknown routing policy {:?}", self.manifest.policy))
            })?;
            let loads: Vec<u64> = self
                .shards
                .iter()
                .map(GenerationalNhIndex::node_count)
                .collect();
            policy.route(&next, gid, &loads)
        } else {
            self.first
        };
        log.append(&next, gid, s)?;
        *db = Arc::new(next);
        self.manifest.assignment.push(s);
        self.shards[(s - self.first) as usize]
            .insert_graph(db, gid)
            .map_err(|source| TaleError::Shard { shard: s, source })?;
        Ok(gid)
    }

    /// Logically removes a graph (a tombstone in its owning shard's
    /// manifest). Returns the owning shard.
    pub fn remove_graph(&self, gid: GraphId) -> Result<u32> {
        let s = self.shard_of(gid).ok_or_else(|| {
            TaleError::Manifest(format!("graph {} is not in the shard map", gid.0))
        })?;
        let shard = self.shard(s).ok_or_else(|| {
            TaleError::Manifest(format!("graph {} is in shard {s}, not open here", gid.0))
        })?;
        shard
            .remove_graph(gid)
            .map_err(|source| TaleError::Shard { shard: s, source })?;
        Ok(s)
    }

    /// Folds every open shard's delta and tombstones into its next
    /// on-disk generation, one shard at a time. Each shard commits on its
    /// own manifest flip, so a crash mid-way leaves some shards folded and
    /// the rest not — both answer identically.
    pub fn fold(&self, db: &GraphDb) -> Result<Vec<FoldReport>> {
        self.ids()
            .zip(&self.shards)
            .map(|(shard, sh)| {
                sh.fold(db)
                    .map_err(|source| TaleError::Shard { shard, source })
            })
            .collect()
    }

    /// Whether `gid` has been tombstoned (ids of no open shard read as
    /// removed).
    pub fn is_removed(&self, gid: GraphId) -> bool {
        self.shard_of(gid)
            .and_then(|s| self.shard(s))
            .map_or(true, |sh| sh.is_removed(gid))
    }

    /// Total on-disk footprint over all shards' current generations, in
    /// bytes.
    pub fn size_bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(GenerationalNhIndex::size_bytes)
            .sum()
    }

    /// Total indexed nodes over all shards (base + delta).
    pub fn node_count(&self) -> u64 {
        self.shards
            .iter()
            .map(GenerationalNhIndex::node_count)
            .sum()
    }

    /// Total composite keys over all shards (shards index disjoint graph
    /// sets but can share key values, so this can exceed the single-index
    /// key count).
    pub fn key_count(&self) -> u64 {
        self.shards.iter().map(GenerationalNhIndex::key_count).sum()
    }
}
