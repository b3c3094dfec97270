//! Immutable index generations with MVCC reads.
//!
//! A [`GenerationalNhIndex`] never mutates an on-disk index in place.
//! Instead:
//!
//! * The on-disk index is an immutable **generation** (`gens/g{N}/`, a
//!   complete [`NhIndex`] directory) that writers never touch after it is
//!   built.
//! * Inserts accumulate in an in-memory [`DeltaOverlay`]; removals
//!   accumulate in a tombstone set consulted when filtering probe
//!   answers. Both are recorded in the `mvcc.json` manifest (the delta's
//!   *contents* are re-derived from the graph database on open — the
//!   index's members at or above `base_len` are by construction the
//!   not-yet-folded ones).
//! * [`fold`](GenerationalNhIndex::fold) builds delta + base − removed
//!   into generation `N+1` on disk and commits it with one atomic
//!   manifest flip. The old generation's directory is deleted when the
//!   last reader pin drops ([`Generation`]'s `Drop`).
//!
//! An index covers a set of **members**: every graph of the database for
//! the single-index layout ([`GenerationalNhIndex::build`] /
//! [`GenerationalNhIndex::open`]), or one shard's rows of `shards.json`
//! for a shard of the sharded layout
//! ([`GenerationalNhIndex::build_members`] /
//! [`GenerationalNhIndex::open_members`]). Everything else — snapshots,
//! delta, tombstones, fold, the manifest flip as the *only* index commit
//! point — is the same code either way.
//!
//! ## Readers never block on writers
//!
//! All shared state lives in one immutable `MvccState` behind an
//! `RwLock<Arc<_>>` that is only ever held for the duration of a pointer
//! clone/swap. A reader entering a query takes a [`Snapshot`] (one Arc
//! clone) and runs to completion against it: the base generation it pins
//! cannot change (it is immutable and its directory outlives the pin),
//! the delta overlay it pins is itself immutable (each insert publishes a
//! *new* overlay), and the removed set is snapshotted the same way. A
//! writer prepares everything off to the side and publishes by swapping
//! the Arc — the paper-motivated serving property (queries keep flowing
//! while the corpus mutates) with bit-identical answers as the oracle:
//! a pinned snapshot answers exactly as the database stood at pin time.
//!
//! ## Crash safety
//!
//! The manifest is written with [`tale_storage::atomic::write_atomic`] —
//! the same gated commit point the crash-torture harness drives. A
//! mutation's only durable step here *is* the manifest write; the graphs
//! themselves are the caller's store, whose insert commits before this
//! index hears of it (so an insert's flip decides nothing: open derives
//! the delta from the store). A crash mid-fold leaves either the old
//! manifest (generation `N`, delta re-derived on open) or the new one
//! (generation `N+1`, empty delta) — never a hybrid. Orphaned generation directories from unfinished folds
//! are swept on open.
//!
//! ## Cache epochs
//!
//! Each snapshot carries two opaque **cache epochs** (allocated from one
//! monotonic counter): `base_epoch` keys cached answers derived from the
//! base generation and `delta_epoch` keys those derived from the delta.
//! An insert allocates a fresh delta epoch but *keeps* the base epoch —
//! base-derived cache entries survive, which is exactly the
//! "insert no longer clears the result cache" contract. A fold allocates
//! fresh epochs for both (the new base absorbs the delta). A removal
//! keeps *both*: removal can only delete answers, never add them, so the
//! readers expose the tombstone set through
//! [`IndexReader::is_visible`] and the engine filters cached entries at
//! read time instead — entries stay warm across removals and are still
//! exactly correct. Because epochs come from the snapshot a query
//! pinned, a slow reader that finishes after a concurrent insert or fold
//! stores its (now stale) answer under the *old* epoch, where no future
//! reader will look; a slow reader racing a removal may store an
//! unfiltered list, which the next reader's `is_visible` filter prunes —
//! the put-races an invalidate-then-recompute scheme would lose are
//! structurally gone.

use crate::delta::DeltaOverlay;
use crate::index::{NhIndexConfig, NodeCandidate, ProbeStats, QuerySignature};
use crate::reader::IndexReader;
use crate::{NeighborArrayScheme, NhError, NhIndex, Result};
use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use tale_graph::{GraphDb, GraphId};
use tale_storage::IoPool;

/// The manifest file of a generational index directory.
pub const MVCC_FILE: &str = "mvcc.json";
const GENS_DIR: &str = "gens";
const SCHEMA_VERSION: u32 = 1;

/// The durable MVCC manifest. Writing this file (atomically) is the one
/// and only commit point of every generational mutation.
#[derive(Debug, Serialize, Deserialize)]
struct MvccManifest {
    schema_version: u32,
    /// Number of the current on-disk generation (`gens/g{current}`).
    current: u64,
    /// Logical mutation counter: bumped by every insert/remove flip,
    /// unchanged by a fold (a fold changes representation, not contents).
    /// It is reported, never used to decide recovery.
    logical: u64,
    /// Members with an id below `base_len` are covered by the on-disk
    /// generation; members at or above it are the delta (re-derived on
    /// open). It is the database length at the last build or fold.
    base_len: u32,
    /// Tombstoned graph ids, filtered out of every probe answer until the
    /// next fold drops their postings entirely.
    removed: Vec<u32>,
}

/// One immutable on-disk generation. Holds the open [`NhIndex`] plus the
/// bookkeeping to delete the directory once the generation is both
/// retired (a newer generation committed) and unpinned (dropped by the
/// last snapshot holding it).
pub struct Generation {
    index: NhIndex,
    number: u64,
    dir: PathBuf,
    retired: AtomicBool,
}

impl Generation {
    /// The generation's sequence number (`g{number}`).
    pub fn number(&self) -> u64 {
        self.number
    }

    /// The open index of this generation.
    pub fn index(&self) -> &NhIndex {
        &self.index
    }
}

impl Drop for Generation {
    fn drop(&mut self) {
        // GC: a retired generation's files are garbage the moment the
        // last pin drops. Removal is best-effort — a leftover directory
        // is swept on the next open.
        if self.retired.load(Ordering::Acquire) {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }
}

/// The immutable shared state one snapshot pins: base generation, delta
/// overlay, tombstones, and the cache epochs derived from them.
struct MvccState {
    base: Arc<Generation>,
    delta: Arc<DeltaOverlay>,
    removed: Arc<HashSet<u32>>,
    /// The graph ids this index covers, ascending.
    members: Arc<Vec<u32>>,
    logical: u64,
    base_len: u32,
    base_epoch: u64,
    delta_epoch: u64,
}

/// The members not yet covered by the base generation.
fn delta_members(members: &[u32], base_len: u32) -> &[u32] {
    &members[members.partition_point(|&g| g < base_len)..]
}

/// A reader's pin on one `MvccState`. Cheap to clone (Arc). Queries
/// hold one for their whole run; the pinned generation and overlay are
/// immutable, so answers are bit-identical to the database as it stood
/// at pin time regardless of concurrent writers.
#[derive(Clone)]
pub struct Snapshot {
    state: Arc<MvccState>,
}

impl Snapshot {
    /// The pinned on-disk generation's index.
    pub fn base(&self) -> &NhIndex {
        &self.state.base.index
    }

    /// The pinned delta overlay.
    pub fn delta(&self) -> &DeltaOverlay {
        &self.state.delta
    }

    /// The pinned base generation number.
    pub fn base_generation(&self) -> u64 {
        self.state.base.number
    }

    /// The pinned logical mutation counter.
    pub fn logical(&self) -> u64 {
        self.state.logical
    }

    /// True when `graph` is tombstoned in this snapshot.
    pub fn is_removed(&self, graph: GraphId) -> bool {
        self.state.removed.contains(&graph.0)
    }

    /// Tombstoned graph count in this snapshot.
    pub fn removed_count(&self) -> usize {
        self.state.removed.len()
    }

    /// Graphs pending in the delta (inserted since the base was built).
    pub fn delta_graphs(&self) -> u32 {
        self.state.delta.graph_count()
    }

    /// Indexed nodes across base and delta (tombstoned rows included —
    /// they still occupy the index until the next fold).
    pub fn node_count(&self) -> u64 {
        self.state.base.index.node_count() + self.state.delta.node_count()
    }

    /// Distinct composite keys across base and delta (keys present in
    /// both are counted twice — the two sides are separate structures).
    pub fn key_count(&self) -> u64 {
        self.state.base.index.key_count() + self.state.delta.key_count()
    }

    /// The reader over the pinned base generation (filters tombstones).
    pub fn base_reader(&self) -> BaseReader<'_> {
        BaseReader { snap: self }
    }

    /// The reader over the pinned delta overlay (filters tombstones).
    pub fn delta_reader(&self) -> DeltaReader<'_> {
        DeltaReader { snap: self }
    }

    /// Filters tombstoned graphs out of a probe answer.
    fn drop_removed(&self, out: &mut [(Vec<NodeCandidate>, ProbeStats)]) {
        let removed = &self.state.removed;
        if !removed.is_empty() {
            for (cands, stats) in out {
                cands.retain(|c| !removed.contains(&c.node.graph));
                stats.rows_returned = cands.len() as u64;
            }
        }
    }

    /// Expands pinned snapshots into the reader list the query engine
    /// scatters over — `[base, delta]` per snapshot, in order — and hands
    /// it to `f`. One snapshot is the single-index database; one per
    /// shard is the sharded one. The readers' graph sets are disjoint by
    /// construction (members are disjoint across shards, and a member is
    /// in the base or the delta, never both).
    pub fn with_readers<R>(snaps: &[Snapshot], f: impl FnOnce(&[&dyn IndexReader]) -> R) -> R {
        let pairs: Vec<(BaseReader<'_>, DeltaReader<'_>)> = snaps
            .iter()
            .map(|s| (s.base_reader(), s.delta_reader()))
            .collect();
        let readers: Vec<&dyn IndexReader> = pairs
            .iter()
            .flat_map(|(b, d)| [b as &dyn IndexReader, d as &dyn IndexReader])
            .collect();
        f(&readers)
    }
}

/// [`IndexReader`] over a snapshot's base generation: probes the on-disk
/// index and filters tombstoned graphs out of the answer. Cache entries
/// key on the snapshot's base epoch, which survives inserts (the base's
/// answers cannot change) and rolls on removals and folds.
pub struct BaseReader<'a> {
    snap: &'a Snapshot,
}

impl IndexReader for BaseReader<'_> {
    fn signature(
        &self,
        g: &tale_graph::Graph,
        node: tale_graph::NodeId,
        label_of: &dyn Fn(tale_graph::NodeId) -> u32,
    ) -> QuerySignature {
        self.snap.state.base.index.signature(g, node, label_of)
    }

    fn probe_batch(
        &self,
        sigs: &[QuerySignature],
        rho: f64,
        threads: usize,
    ) -> Result<Vec<(Vec<NodeCandidate>, ProbeStats)>> {
        let mut out = self.snap.state.base.index.probe_batch(sigs, rho, threads)?;
        self.snap.drop_removed(&mut out);
        Ok(out)
    }

    /// The base generation's statistics. Removed graphs are filtered at
    /// read time, so these *overestimate* the snapshot's base answers —
    /// exactly the direction the conservatism invariant allows.
    fn statistics(&self) -> Option<std::sync::Arc<crate::stats::IndexStatistics>> {
        self.snap.state.base.index.statistics()
    }

    fn pool_stats(&self) -> tale_storage::PoolStats {
        self.snap.state.base.index.pool_stats()
    }

    fn cache_generation(&self) -> u64 {
        self.snap.state.base_epoch
    }

    fn is_visible(&self, graph: u32) -> bool {
        !self.snap.state.removed.contains(&graph)
    }
}

/// [`IndexReader`] over a snapshot's delta overlay: purely in-memory, so
/// its pool counters are zero — a cache hit or a delta-only probe causes
/// no disk traffic at all. Cache entries key on the snapshot's delta
/// epoch, which rolls on every mutation.
pub struct DeltaReader<'a> {
    snap: &'a Snapshot,
}

impl IndexReader for DeltaReader<'_> {
    fn signature(
        &self,
        g: &tale_graph::Graph,
        node: tale_graph::NodeId,
        label_of: &dyn Fn(tale_graph::NodeId) -> u32,
    ) -> QuerySignature {
        self.snap.state.delta.signature(g, node, label_of)
    }

    fn probe_batch(
        &self,
        sigs: &[QuerySignature],
        rho: f64,
        _threads: usize,
    ) -> Result<Vec<(Vec<NodeCandidate>, ProbeStats)>> {
        let mut out = self.snap.state.delta.probe_batch(sigs, rho)?;
        self.snap.drop_removed(&mut out);
        Ok(out)
    }

    /// The overlay's exact statistics (removed graphs filtered at read
    /// time, so again an overestimate of the snapshot's answers).
    fn statistics(&self) -> Option<std::sync::Arc<crate::stats::IndexStatistics>> {
        Some(self.snap.state.delta.statistics())
    }

    fn pool_stats(&self) -> tale_storage::PoolStats {
        tale_storage::PoolStats::default()
    }

    fn cache_generation(&self) -> u64 {
        self.snap.state.delta_epoch
    }

    fn is_visible(&self, graph: u32) -> bool {
        !self.snap.state.removed.contains(&graph)
    }
}

/// What [`GenerationalNhIndex::open`] found and did.
#[derive(Debug, Clone, Default, Serialize)]
pub struct MvccRecovery {
    /// Orphaned generation numbers swept from `gens/` (unfinished folds,
    /// or retired generations whose process died before GC).
    pub swept: Vec<u64>,
}

/// What one [`GenerationalNhIndex::fold`] did.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct FoldReport {
    /// The generation the fold committed.
    pub new_generation: u64,
    /// Delta graphs folded into the new generation.
    pub folded_inserts: u32,
    /// Tombstoned graphs excluded from the new generation. The tombstones
    /// themselves persist (the dead graphs still hold ids in the graph
    /// database), so repeated folds report the same count until a
    /// compaction retires them.
    pub folded_removes: usize,
}

/// One row of [`GenerationalNhIndex::generations`].
#[derive(Debug, Clone, Copy, Serialize)]
pub struct GenerationInfo {
    /// Generation number (`gens/g{number}`).
    pub number: u64,
    /// Live reader pins: snapshots whose base is this generation.
    pub pins: usize,
    /// True for the generation new snapshots will pin.
    pub current: bool,
}

/// The MVCC index: immutable on-disk generations + in-memory delta, with
/// snapshot reads and single-writer mutations through `&self`.
pub struct GenerationalNhIndex {
    dir: PathBuf,
    config: NhIndexConfig,
    /// The async read-path workers every generation of this index binds
    /// to (shared with sibling shards in the sharded layout), so a fold
    /// never spawns a pool of its own. `None` = prefetching disabled.
    io: Option<Arc<IoPool>>,
    state: RwLock<Arc<MvccState>>,
    /// Serializes mutations (insert/remove/fold). Readers never touch it.
    writer: Mutex<()>,
    /// Every state ever published, for pin accounting. Dead weaks are
    /// pruned opportunistically.
    states: Mutex<Vec<(u64, Weak<MvccState>)>>,
    /// Monotonic cache-epoch allocator shared by base and delta epochs.
    epoch_source: AtomicU64,
}

impl GenerationalNhIndex {
    fn gen_dir(dir: &Path, number: u64) -> PathBuf {
        dir.join(GENS_DIR).join(format!("g{number}"))
    }

    /// The one commit point of every mutation: an atomic rewrite of
    /// `mvcc.json`. Returns what was written.
    fn write_manifest(
        dir: &Path,
        current: u64,
        logical: u64,
        base_len: u32,
        removed: &HashSet<u32>,
    ) -> Result<MvccManifest> {
        let mut removed: Vec<u32> = removed.iter().copied().collect();
        removed.sort_unstable();
        let m = MvccManifest {
            schema_version: SCHEMA_VERSION,
            current,
            logical,
            base_len,
            removed,
        };
        let json = serde_json::to_string_pretty(&m)
            .map_err(|e| NhError::Meta(format!("serialize mvcc manifest: {e}")))?;
        tale_storage::atomic::write_atomic(&dir.join(MVCC_FILE), json.as_bytes())?;
        Ok(m)
    }

    fn read_manifest(dir: &Path) -> Result<MvccManifest> {
        let raw = std::fs::read_to_string(dir.join(MVCC_FILE))?;
        let m: MvccManifest = serde_json::from_str(&raw)
            .map_err(|e| NhError::Meta(format!("parse mvcc manifest: {e}")))?;
        if m.schema_version != SCHEMA_VERSION {
            return Err(NhError::Meta(format!(
                "mvcc manifest schema {} unsupported (expected {SCHEMA_VERSION})",
                m.schema_version
            )));
        }
        Ok(m)
    }

    /// The worker pool generations bind to: the caller's shared one, else
    /// a private pool of `config.io_workers` threads (none when 0).
    fn io_for(config: &NhIndexConfig, shared: Option<Arc<IoPool>>) -> Option<Arc<IoPool>> {
        shared.or_else(|| (config.io_workers > 0).then(|| IoPool::new(config.io_workers)))
    }

    /// Builds generation `number` over `graphs` and binds it to `io`.
    /// `scheme: None` derives the neighbor-array scheme from the current
    /// vocabulary (a from-scratch build); a fold passes the scheme it
    /// already has.
    fn build_generation(
        dir: &Path,
        number: u64,
        db: &GraphDb,
        config: &NhIndexConfig,
        io: Option<&Arc<IoPool>>,
        scheme: Option<NeighborArrayScheme>,
        graphs: &[GraphId],
    ) -> Result<NhIndex> {
        let scheme = scheme.unwrap_or_else(|| NhIndex::scheme_for(db, config));
        let gdir = Self::gen_dir(dir, number);
        NhIndex::build_with_scheme(&gdir, db, config, scheme, graphs, io.cloned())
    }

    /// Builds generation 0 over every graph of `db` into `dir` and commits
    /// the initial manifest.
    pub fn build(dir: &Path, db: &GraphDb, config: &NhIndexConfig) -> Result<Self> {
        let all: Vec<GraphId> = db.iter().map(|(id, _, _)| id).collect();
        Self::build_members(dir, db, &all, config, None)
    }

    /// Builds generation 0 over `members` (ascending ids of `db`) into
    /// `dir` and commits the initial manifest. Any `gens/` leftovers from
    /// a previous index in this directory are cleared first (fresh build
    /// = fresh history). `io` is a worker pool to share with other
    /// indexes; `None` gives this one its own (`config.io_workers`).
    pub fn build_members(
        dir: &Path,
        db: &GraphDb,
        members: &[GraphId],
        config: &NhIndexConfig,
        io: Option<Arc<IoPool>>,
    ) -> Result<Self> {
        let gens = dir.join(GENS_DIR);
        if gens.exists() {
            std::fs::remove_dir_all(&gens)?;
        }
        let io = Self::io_for(config, io);
        let index = Self::build_generation(dir, 0, db, config, io.as_ref(), None, members)?;
        let manifest = Self::write_manifest(dir, 0, 0, db.len() as u32, &HashSet::new())?;
        let delta = DeltaOverlay::build(db, index.scheme(), config.use_edge_labels, &[])?;
        Ok(Self::assemble(
            dir,
            config.clone(),
            io,
            index,
            delta,
            members.iter().map(|g| g.0).collect(),
            manifest,
        ))
    }

    fn assemble(
        dir: &Path,
        config: NhIndexConfig,
        io: Option<Arc<IoPool>>,
        index: NhIndex,
        delta: DeltaOverlay,
        members: Vec<u32>,
        manifest: MvccManifest,
    ) -> Self {
        let number = manifest.current;
        let state = Arc::new(MvccState {
            base: Arc::new(Generation {
                index,
                number,
                dir: Self::gen_dir(dir, number),
                retired: AtomicBool::new(false),
            }),
            delta: Arc::new(delta),
            removed: Arc::new(manifest.removed.into_iter().collect()),
            members: Arc::new(members),
            logical: manifest.logical,
            base_len: manifest.base_len,
            base_epoch: 0,
            delta_epoch: 1,
        });
        let states = vec![(number, Arc::downgrade(&state))];
        GenerationalNhIndex {
            dir: dir.to_owned(),
            config,
            io,
            state: RwLock::new(state),
            writer: Mutex::new(()),
            states: Mutex::new(states),
            epoch_source: AtomicU64::new(2),
        }
    }

    /// Reopens an index covering every graph of `db`, with
    /// `buffer_frames` pool frames per page file and a private default
    /// read path (see [`GenerationalNhIndex::open_members`]).
    pub fn open(dir: &Path, db: &GraphDb, buffer_frames: usize) -> Result<(Self, MvccRecovery)> {
        let all: Vec<GraphId> = db.iter().map(|(id, _, _)| id).collect();
        let config = NhIndexConfig {
            buffer_frames,
            ..NhIndexConfig::default()
        };
        Self::open_members(dir, db, &all, &config, None)
    }

    /// Reopens the index covering `members` (ascending ids of `db`):
    /// loads the manifest, opens the current generation, sweeps orphaned
    /// generation directories, and re-derives the delta overlay from `db`
    /// (the members at or above `base_len` are the unfolded ones).
    /// `config` supplies the pool and read-path sizing; its scheme fields
    /// are replaced by what the generation was built with. `io` is a
    /// worker pool to share with other indexes.
    ///
    /// `db` must be the graph database as its store reopened (base plus
    /// replayed log): every member it holds past `base_len` — committed
    /// inserts, including any whose manifest flip a crash cut off — is in
    /// the delta.
    pub fn open_members(
        dir: &Path,
        db: &GraphDb,
        members: &[GraphId],
        config: &NhIndexConfig,
        io: Option<Arc<IoPool>>,
    ) -> Result<(Self, MvccRecovery)> {
        let manifest = Self::read_manifest(dir)?;
        let gdir = Self::gen_dir(dir, manifest.current);
        let mut index = NhIndex::open_without_io(&gdir, config.buffer_frames)?;
        let io = Self::io_for(config, io);
        if let Some(io) = &io {
            index.attach_io(Arc::clone(io), config.prefetch_pages);
        }

        // Sweep every generation directory except the current one:
        // unfinished folds (crash before the manifest flip) and retired
        // generations whose GC never ran.
        let mut swept = Vec::new();
        if let Ok(entries) = std::fs::read_dir(dir.join(GENS_DIR)) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                let Some(num) = name.strip_prefix('g').and_then(|s| s.parse::<u64>().ok()) else {
                    continue;
                };
                if num != manifest.current {
                    std::fs::remove_dir_all(entry.path())?;
                    swept.push(num);
                }
            }
        }
        swept.sort_unstable();

        let n = db.len() as u32;
        if manifest.base_len > n {
            return Err(NhError::Meta(format!(
                "mvcc manifest covers {} graphs but the database holds {n}",
                manifest.base_len
            )));
        }
        let members: Vec<u32> = members.iter().map(|g| g.0).collect();
        let scheme = index.scheme();
        let delta = DeltaOverlay::build(
            db,
            scheme,
            index.edge_labels(),
            delta_members(&members, manifest.base_len),
        )?;
        let config = NhIndexConfig {
            sbit: scheme.sbit,
            bloom_hashes: scheme.hashes,
            use_edge_labels: index.edge_labels(),
            ..config.clone()
        };
        let idx = Self::assemble(dir, config, io, index, delta, members, manifest);
        Ok((idx, MvccRecovery { swept }))
    }

    /// Pins the current state. The returned snapshot answers queries
    /// bit-identically to the database as of this call, forever.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            state: self.state.read().clone(),
        }
    }

    fn publish(&self, state: MvccState) {
        let number = state.base.number;
        let state = Arc::new(state);
        let mut states = self.states.lock();
        states.retain(|(_, w)| w.strong_count() > 0);
        states.push((number, Arc::downgrade(&state)));
        *self.state.write() = state;
    }

    fn next_epoch(&self) -> u64 {
        self.epoch_source.fetch_add(1, Ordering::Relaxed)
    }

    /// Records the insertion of graph `gid` (already inserted into `db`
    /// by the caller) as a new member. Publishes a fresh delta overlay
    /// covering every unfolded member; the on-disk generation and the
    /// base cache epoch are untouched, so in-flight readers and
    /// base-derived cache entries are completely unaffected. The manifest
    /// write (bumping the logical counter) is the commit point.
    pub fn insert_graph(&self, db: &GraphDb, gid: GraphId) -> Result<()> {
        let _w = self.writer.lock();
        db.try_graph(gid)?;
        let state = self.state.read().clone();
        if gid.0 < state.base_len || state.members.last().is_some_and(|&m| m >= gid.0) {
            return Err(NhError::Meta(format!(
                "graph {} is already covered by this index (generation {})",
                gid.0, state.base.number
            )));
        }
        let mut members = (*state.members).clone();
        members.push(gid.0);
        let delta = DeltaOverlay::build(
            db,
            state.base.index.scheme(),
            state.base.index.edge_labels(),
            delta_members(&members, state.base_len),
        )?;
        Self::write_manifest(
            &self.dir,
            state.base.number,
            state.logical + 1,
            state.base_len,
            &state.removed,
        )?;
        self.publish(MvccState {
            base: Arc::clone(&state.base),
            delta: Arc::new(delta),
            removed: Arc::clone(&state.removed),
            members: Arc::new(members),
            logical: state.logical + 1,
            base_len: state.base_len,
            base_epoch: state.base_epoch,
            delta_epoch: self.next_epoch(),
        });
        Ok(())
    }

    /// Tombstones `graph`: it disappears from every *new* snapshot's
    /// answers immediately (pinned snapshots keep seeing it — that is the
    /// MVCC contract), and its postings are reclaimed by the next fold.
    /// Neither cache epoch rolls: removal only *deletes* answers, and the
    /// readers' [`IndexReader::is_visible`] filter reproduces that
    /// deletion on cached entries at read time, so they stay warm.
    /// Idempotent.
    pub fn remove_graph(&self, graph: GraphId) -> Result<()> {
        let _w = self.writer.lock();
        let state = self.state.read().clone();
        let mut removed: HashSet<u32> = (*state.removed).clone();
        removed.insert(graph.0);
        Self::write_manifest(
            &self.dir,
            state.base.number,
            state.logical + 1,
            state.base_len,
            &removed,
        )?;
        self.publish(MvccState {
            base: Arc::clone(&state.base),
            delta: Arc::clone(&state.delta),
            removed: Arc::new(removed),
            members: Arc::clone(&state.members),
            logical: state.logical + 1,
            base_len: state.base_len,
            base_epoch: state.base_epoch,
            delta_epoch: state.delta_epoch,
        });
        Ok(())
    }

    /// Folds the delta and the tombstones into a new on-disk generation:
    /// builds `gens/g{N+1}` from every live member, commits it with one
    /// atomic manifest flip, publishes the new state with an empty delta,
    /// and retires generation `N` — its directory is deleted when the
    /// last snapshot pinning it drops.
    ///
    /// The neighbor-array scheme is *kept*: only a from-scratch build
    /// re-derives it from the vocabulary. Vocabulary growth past `Sbit`
    /// leaves a deterministic-regime index correct (bit positions wrap,
    /// which can only add filter false positives), whereas a fold that
    /// flipped one shard to the Bloom regime would leave it probed with
    /// signatures laid out for its siblings' scheme.
    ///
    /// The tombstone set is *kept* too: the removed graphs still occupy
    /// their ids in the graph database, so forgetting them here would let
    /// the *next* fold — which derives its live set from the members
    /// again — resurrect their postings. Only a compaction (which
    /// rebuilds the database without the dead graphs) retires tombstones.
    ///
    /// Readers are never blocked: they keep resolving against whatever
    /// state they pinned. The logical counter is unchanged — a fold
    /// changes representation, not logical contents.
    pub fn fold(&self, db: &GraphDb) -> Result<FoldReport> {
        let _w = self.writer.lock();
        let state = self.state.read().clone();
        let n = db.len() as u32;
        let live: Vec<GraphId> = state
            .members
            .iter()
            .filter(|g| !state.removed.contains(g))
            .map(|&g| GraphId(g))
            .collect();
        let new_number = state.base.number + 1;
        let gdir = Self::gen_dir(&self.dir, new_number);
        if gdir.exists() {
            std::fs::remove_dir_all(&gdir)?;
        }
        let scheme = state.base.index.scheme();
        let index = match Self::build_generation(
            &self.dir,
            new_number,
            db,
            &self.config,
            self.io.as_ref(),
            Some(scheme),
            &live,
        ) {
            Ok(idx) => idx,
            Err(e) => {
                // Best-effort cleanup; open() sweeps leftovers anyway.
                let _ = std::fs::remove_dir_all(&gdir);
                return Err(e);
            }
        };
        let report = FoldReport {
            new_generation: new_number,
            folded_inserts: state.delta.graph_count(),
            folded_removes: state.removed.len(),
        };
        // Commit point: after this write, open() lands on the new
        // generation; before it, on the old one (with the delta
        // re-derived from the database). Never on a hybrid.
        Self::write_manifest(&self.dir, new_number, state.logical, n, &state.removed)?;
        let delta = DeltaOverlay::build(db, scheme, self.config.use_edge_labels, &[])?;
        state.base.retired.store(true, Ordering::Release);
        self.publish(MvccState {
            base: Arc::new(Generation {
                index,
                number: new_number,
                dir: gdir,
                retired: AtomicBool::new(false),
            }),
            delta: Arc::new(delta),
            removed: Arc::clone(&state.removed),
            members: Arc::clone(&state.members),
            logical: state.logical,
            base_len: n,
            base_epoch: self.next_epoch(),
            delta_epoch: self.next_epoch(),
        });
        Ok(report)
    }

    /// The logical mutation counter: committed inserts and removals of
    /// this index (an insert's count can lag its graph-log commit by the
    /// flip a crash cut off).
    pub fn logical_generation(&self) -> u64 {
        self.state.read().logical
    }

    /// The current on-disk generation number.
    pub fn current_generation(&self) -> u64 {
        self.state.read().base.number
    }

    /// True when `graph` is tombstoned in the current state.
    pub fn is_removed(&self, graph: GraphId) -> bool {
        self.state.read().removed.contains(&graph.0)
    }

    /// The index directory (holding `mvcc.json` and `gens/`).
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Live generations with their reader pin counts: the current one
    /// plus every retired generation still pinned by a snapshot. A pin is
    /// one live [`Snapshot`] whose base is that generation.
    pub fn generations(&self) -> Vec<GenerationInfo> {
        let current = self.state.read().clone();
        let current_number = current.base.number;
        let mut states = self.states.lock();
        states.retain(|(_, w)| w.strong_count() > 0);
        let mut pins: std::collections::BTreeMap<u64, usize> = std::collections::BTreeMap::new();
        for (num, weak) in states.iter() {
            let Some(arc) = weak.upgrade() else { continue };
            // Internal refs to subtract: our upgrade, plus (for the
            // current state) the RwLock's reference and our `current`
            // clone above.
            let internal = if Arc::ptr_eq(&arc, &current) { 3 } else { 1 };
            *pins.entry(*num).or_default() += Arc::strong_count(&arc).saturating_sub(internal);
        }
        pins.entry(current_number).or_default();
        pins.into_iter()
            .map(|(number, pins)| GenerationInfo {
                number,
                pins,
                current: number == current_number,
            })
            .collect()
    }

    /// Total on-disk footprint of the current generation in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.state.read().base.index.size_bytes()
    }

    /// Indexed nodes across the current base and delta.
    pub fn node_count(&self) -> u64 {
        self.snapshot().node_count()
    }

    /// Composite keys across the current base and delta.
    pub fn key_count(&self) -> u64 {
        self.snapshot().key_count()
    }

    /// The neighbor-array scheme (shared by every generation and delta).
    pub fn scheme(&self) -> crate::NeighborArrayScheme {
        self.state.read().base.index.scheme()
    }

    /// Builds a probe signature under the current scheme (identical for
    /// base and delta — they share it by construction).
    pub fn signature(
        &self,
        g: &tale_graph::Graph,
        node: tale_graph::NodeId,
        label_of: &dyn Fn(tale_graph::NodeId) -> u32,
    ) -> QuerySignature {
        self.state.read().base.index.signature(g, node, label_of)
    }

    /// Structural integrity check of the current on-disk generation.
    pub fn verify(&self) -> Result<crate::IntegrityReport> {
        self.state.read().base.index.verify()
    }

    /// Buffer-pool counters of the current generation.
    pub fn pool_stats(&self) -> tale_storage::PoolStats {
        self.state.read().base.index.pool_stats()
    }

    /// Readahead counters of the current generation.
    pub fn prefetch_stats(&self) -> tale_storage::PrefetchStats {
        self.state.read().base.index.prefetch_stats()
    }
}

/// The index as one reader over its *current* state: base rows, then
/// delta rows, tombstones filtered. For introspection (a one-off probe,
/// an integrity sweep) — it pins a fresh snapshot per call, so two calls
/// may straddle a mutation. The query engine instead pins one
/// [`Snapshot`] per run and scatters over its
/// [`base_reader`](Snapshot::base_reader) and
/// [`delta_reader`](Snapshot::delta_reader), each with its own statistics
/// and cache epoch; this combined view offers none.
impl IndexReader for GenerationalNhIndex {
    fn signature(
        &self,
        g: &tale_graph::Graph,
        node: tale_graph::NodeId,
        label_of: &dyn Fn(tale_graph::NodeId) -> u32,
    ) -> QuerySignature {
        GenerationalNhIndex::signature(self, g, node, label_of)
    }

    fn probe_batch(
        &self,
        sigs: &[QuerySignature],
        rho: f64,
        threads: usize,
    ) -> Result<Vec<(Vec<NodeCandidate>, ProbeStats)>> {
        let snap = self.snapshot();
        let mut out = snap.base_reader().probe_batch(sigs, rho, threads)?;
        let delta = snap.delta_reader().probe_batch(sigs, rho, threads)?;
        for ((cands, stats), (more, d)) in out.iter_mut().zip(delta) {
            cands.extend(more);
            *stats += d;
        }
        Ok(out)
    }

    fn pool_stats(&self) -> tale_storage::PoolStats {
        GenerationalNhIndex::pool_stats(self)
    }

    /// The delta epoch: it rolls on every insert and fold, the two
    /// mutations that can add or alter answers.
    fn cache_generation(&self) -> u64 {
        self.state.read().delta_epoch
    }

    fn is_visible(&self, graph: u32) -> bool {
        !self.is_removed(GraphId(graph))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::NhIndexConfig;
    use tale_graph::Graph;

    fn cfg() -> NhIndexConfig {
        NhIndexConfig {
            sbit: 32,
            buffer_frames: 64,
            parallel_build: false,
            ..NhIndexConfig::default()
        }
    }

    fn chain(db: &mut GraphDb, labels: &[&str]) -> GraphId {
        let ids: Vec<_> = labels.iter().map(|l| db.intern_node_label(l)).collect();
        let mut g = Graph::new_undirected();
        let nodes: Vec<_> = ids.iter().map(|&l| g.add_node(l)).collect();
        for w in nodes.windows(2) {
            g.add_edge(w[0], w[1]).unwrap();
        }
        let n = db.len();
        db.insert(format!("g{n}"), g)
    }

    #[test]
    fn build_insert_fold_reopen_roundtrip() {
        let dir = tempfile::tempdir().unwrap();
        let mut db = GraphDb::new();
        chain(&mut db, &["A", "B", "C"]);
        chain(&mut db, &["B", "C", "A"]);
        let idx = GenerationalNhIndex::build(dir.path(), &db, &cfg()).unwrap();
        assert_eq!(idx.current_generation(), 0);
        assert_eq!(idx.logical_generation(), 0);

        let gid = chain(&mut db, &["C", "A", "B"]);
        idx.insert_graph(&db, gid).unwrap();
        assert_eq!(idx.logical_generation(), 1);
        assert_eq!(idx.snapshot().delta_graphs(), 1);

        let report = idx.fold(&db).unwrap();
        assert_eq!(report.new_generation, 1);
        assert_eq!(report.folded_inserts, 1);
        assert_eq!(idx.snapshot().delta_graphs(), 0);
        assert_eq!(idx.logical_generation(), 1);
        drop(idx);

        let (idx, rec) = GenerationalNhIndex::open(dir.path(), &db, 64).unwrap();
        assert_eq!(idx.current_generation(), 1);
        assert_eq!(idx.logical_generation(), 1);
        assert!(
            rec.swept.is_empty(),
            "GC already removed g0: {:?}",
            rec.swept
        );
        assert_eq!(idx.snapshot().delta_graphs(), 0);
    }

    #[test]
    fn pinned_snapshot_survives_fold_and_gc_runs_after() {
        let dir = tempfile::tempdir().unwrap();
        let mut db = GraphDb::new();
        chain(&mut db, &["A", "B"]);
        let idx = GenerationalNhIndex::build(dir.path(), &db, &cfg()).unwrap();
        let pinned = idx.snapshot();
        let g0_dir = pinned.base().dir().to_owned();

        let gid = chain(&mut db, &["B", "A"]);
        idx.insert_graph(&db, gid).unwrap();
        idx.fold(&db).unwrap();

        // The pinned snapshot still reads generation 0 and its files are
        // still on disk.
        assert_eq!(pinned.base_generation(), 0);
        assert!(g0_dir.exists(), "pinned generation deleted too early");
        let gens = idx.generations();
        assert_eq!(gens.len(), 2);
        assert_eq!(gens[0].number, 0);
        assert_eq!(gens[0].pins, 1);
        assert!(!gens[0].current);
        assert!(gens[1].current);

        drop(pinned);
        assert!(!g0_dir.exists(), "last pin dropped but generation not GCed");
        let gens = idx.generations();
        assert_eq!(gens.len(), 1);
        assert_eq!(gens[0].number, 1);
    }

    #[test]
    fn insert_keeps_base_epoch_remove_keeps_both_fold_rolls_both() {
        let dir = tempfile::tempdir().unwrap();
        let mut db = GraphDb::new();
        chain(&mut db, &["A", "B"]);
        let idx = GenerationalNhIndex::build(dir.path(), &db, &cfg()).unwrap();
        let s0 = idx.snapshot();
        let (b0, d0) = (
            s0.base_reader().cache_generation(),
            s0.delta_reader().cache_generation(),
        );

        let gid = chain(&mut db, &["B", "A"]);
        idx.insert_graph(&db, gid).unwrap();
        let s1 = idx.snapshot();
        assert_eq!(
            s1.base_reader().cache_generation(),
            b0,
            "insert must keep the base epoch"
        );
        assert_ne!(s1.delta_reader().cache_generation(), d0);

        idx.remove_graph(GraphId(0)).unwrap();
        let s2 = idx.snapshot();
        assert_eq!(
            s2.base_reader().cache_generation(),
            b0,
            "remove filters at read time"
        );
        assert_eq!(
            s2.delta_reader().cache_generation(),
            s1.delta_reader().cache_generation()
        );
        assert!(
            !s2.base_reader().is_visible(0),
            "tombstone must surface via is_visible"
        );
        assert!(s2.base_reader().is_visible(1));
        assert!(
            s1.base_reader().is_visible(0),
            "pinned snapshot keeps the graph visible"
        );

        idx.fold(&db).unwrap();
        let s3 = idx.snapshot();
        assert_ne!(s3.base_reader().cache_generation(), b0);
        assert_ne!(
            s3.delta_reader().cache_generation(),
            s2.delta_reader().cache_generation()
        );
        assert!(s3.base_reader().is_visible(1));
        assert!(
            !s3.base_reader().is_visible(0),
            "tombstone must persist across folds — graph 0 still holds its id"
        );
    }

    #[test]
    fn second_fold_does_not_resurrect_removed_graphs() {
        let dir = tempfile::tempdir().unwrap();
        let mut db = GraphDb::new();
        let g0 = chain(&mut db, &["A", "B", "C"]);
        chain(&mut db, &["A", "B", "C"]);
        let idx = GenerationalNhIndex::build(dir.path(), &db, &cfg()).unwrap();

        let g = db.graph(g0);
        let label_of = |n: tale_graph::NodeId| db.effective_label(g0, n);
        let sig = idx.signature(g, g.nodes().next().unwrap(), &label_of);

        idx.remove_graph(g0).unwrap();
        idx.fold(&db).unwrap();
        // A second fold re-derives the live set from the database, where
        // graph 0 still holds its id — the persisted tombstone must keep
        // excluding it.
        let report = idx.fold(&db).unwrap();
        assert_eq!(report.folded_removes, 1);
        let snap = idx.snapshot();
        assert_eq!(snap.removed_count(), 1);
        let hits = snap
            .base_reader()
            .probe_batch(std::slice::from_ref(&sig), 0.0, 1)
            .unwrap();
        assert!(
            hits[0].0.iter().all(|c| c.node.graph != g0.0),
            "second fold resurrected a removed graph's postings"
        );
        drop(snap);

        // Reopen sees the persisted tombstone too.
        drop(idx);
        let (idx, _) = GenerationalNhIndex::open(dir.path(), &db, 64).unwrap();
        assert_eq!(idx.snapshot().removed_count(), 1);
        assert!(idx.is_removed(g0));
    }

    #[test]
    fn removed_graph_filtered_from_new_snapshots_not_pinned_ones() {
        let dir = tempfile::tempdir().unwrap();
        let mut db = GraphDb::new();
        let g0 = chain(&mut db, &["A", "B", "C"]);
        chain(&mut db, &["A", "B", "C"]);
        let idx = GenerationalNhIndex::build(dir.path(), &db, &cfg()).unwrap();
        let pinned = idx.snapshot();

        let g = db.graph(g0);
        let label_of = |n: tale_graph::NodeId| db.effective_label(g0, n);
        let sig = pinned
            .base()
            .signature(g, g.nodes().next().unwrap(), &label_of);

        idx.remove_graph(g0).unwrap();
        let fresh = idx.snapshot();

        let pre = pinned
            .base_reader()
            .probe_batch(std::slice::from_ref(&sig), 0.0, 1)
            .unwrap();
        assert!(
            pre[0].0.iter().any(|c| c.node.graph == g0.0),
            "pinned snapshot must keep seeing the removed graph"
        );
        let post = fresh
            .base_reader()
            .probe_batch(std::slice::from_ref(&sig), 0.0, 1)
            .unwrap();
        assert!(
            post[0].0.iter().all(|c| c.node.graph != g0.0),
            "fresh snapshot must filter the removed graph"
        );
    }

    #[test]
    fn crash_between_db_save_and_manifest_reopens_consistently() {
        // Simulate "insert saved graphs.json but the manifest write never
        // happened": on reopen with the *pre-insert* logical counter, the
        // delta is simply re-derived from whatever db the caller passes —
        // with the rolled-back db the new graph doesn't exist.
        let dir = tempfile::tempdir().unwrap();
        let mut db = GraphDb::new();
        chain(&mut db, &["A", "B"]);
        let idx = GenerationalNhIndex::build(dir.path(), &db, &cfg()).unwrap();
        drop(idx);

        // db grew but the manifest never saw the insert (logical still 0)
        let mut grown = db.clone();
        chain(&mut grown, &["B", "A"]);
        let (idx, _) = GenerationalNhIndex::open(dir.path(), &grown, 64).unwrap();
        // the unfolded tail [base_len, len) is derived as the delta
        assert_eq!(idx.snapshot().delta_graphs(), 1);
        drop(idx);

        // with the rolled-back db there is no delta
        let (idx, _) = GenerationalNhIndex::open(dir.path(), &db, 64).unwrap();
        assert_eq!(idx.snapshot().delta_graphs(), 0);
    }
}
