//! The NH-Index proper: build, persist, reopen, probe.
//!
//! Layout on disk (one directory per index):
//! * `nh.btree` — first-level B+-tree pages.
//! * `nh.blobs` — second-level posting pages.
//! * `nh.meta.json` — root pointer, scheme, counters.
//!
//! Build is bulk: extract one indexing unit per database node (optionally
//! in parallel across graphs via `tale-par`), sort by composite key, write
//! one posting blob per distinct key, then bulk-load the B+-tree. Both
//! page files are written once, front to back, and only read afterwards,
//! through buffer pools: a build ends by opening what it wrote. This
//! mirrors how the paper materializes the index as a relation + B+-tree in
//! PostgreSQL (§IV-C) and gives the near-linear build times of Table III /
//! Fig. 7.
//!
//! Probe implements §IV-B + §IV-D: compute `nbmiss` and `nbcmiss` from the
//! user's approximation ratio `ρ`, range-scan the B+-tree for conditions
//! IV.1/IV.2/IV.4, then run Algorithm 1 on each posting's bitmap for
//! condition IV.3.

use crate::bitprobe::probe_bitsliced;
use crate::filter::{self, LabelPairFilter, FILTER_FILE, FILTER_SCHEMA_VERSION};
use crate::posting::{NodeRef, Posting};
use crate::scheme::NeighborArrayScheme;
use crate::stats::{IndexStatistics, StatsBuilder, STATS_FILE, STATS_SCHEMA_VERSION};
use crate::{NhError, Result};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tale_graph::neighborhood::miss_budgets;
use tale_graph::{Graph, GraphDb, NodeId};
use tale_storage::{
    BTree, BlobRef, BlobStore, BlobWriter, BufferPool, CompositeKey, DiskManager, IoPool,
    PrefetchStats,
};

const BTREE_FILE: &str = "nh.btree";
const BLOB_FILE: &str = "nh.blobs";
const META_FILE: &str = "nh.meta.json";

/// The write-ahead log builds before the generational refactor kept
/// beside the page files. Nothing creates one any more: layouts that
/// could carry a stale one refuse to open it, and tests assert its
/// absence.
pub const LEGACY_WAL_FILE: &str = "nh.wal";

/// Build/open options.
#[derive(Debug, Clone)]
pub struct NhIndexConfig {
    /// Neighbor array width in bits (`Sbit`). The paper uses 96 for BIND
    /// and 32 for ASTRAL.
    pub sbit: u32,
    /// Buffer pool frames per page file (8 KiB each). 4096 frames = 32 MiB.
    pub buffer_frames: usize,
    /// Extract indexing units in parallel across graphs.
    pub parallel_build: bool,
    /// Bloom hash functions per neighbor label (§IV-A precision
    /// extension; 1 = the paper's default, ignored in the deterministic
    /// regime).
    pub bloom_hashes: u8,
    /// Fold incident edge labels into the neighborhood signature (the
    /// extended paper's labeled-edge adaptation). Forces the Bloom regime.
    pub use_edge_labels: bool,
    /// Async read-path worker threads shared by the index's page files
    /// (`0` disables prefetching entirely). Sharded indexes share one
    /// worker pool across every shard regardless of this count.
    pub io_workers: usize,
    /// Prefetch staging capacity in pages, per page file.
    pub prefetch_pages: usize,
}

/// Default async read-path worker threads (see
/// [`NhIndexConfig::io_workers`]).
pub const DEFAULT_IO_WORKERS: usize = 2;
/// Default prefetch staging capacity in pages (8 KiB each; see
/// [`NhIndexConfig::prefetch_pages`]).
pub const DEFAULT_PREFETCH_PAGES: usize = 1024;

impl Default for NhIndexConfig {
    fn default() -> Self {
        NhIndexConfig {
            sbit: 64,
            buffer_frames: 4096,
            parallel_build: true,
            bloom_hashes: 1,
            use_edge_labels: false,
            io_workers: DEFAULT_IO_WORKERS,
            prefetch_pages: DEFAULT_PREFETCH_PAGES,
        }
    }
}

fn default_hashes() -> u8 {
    1
}

#[derive(Debug, Serialize, Deserialize)]
struct MetaFile {
    sbit: u32,
    deterministic: bool,
    #[serde(default = "default_hashes")]
    hashes: u8,
    #[serde(default)]
    edge_labels: bool,
    root_page: u64,
    height: u32,
    blob_cursor: u64,
    node_count: u64,
    key_count: u64,
    vocab_size: u64,
    /// Label-pair filter sidecar version (`nh.lpf`, see [`crate::filter`]):
    /// 0 (or absent — indexes persisted before the filter existed) means no
    /// sidecar; [`FILTER_SCHEMA_VERSION`] means one was written alongside
    /// this meta. Open degrades to "no filter" on any mismatch.
    #[serde(default)]
    label_filter: u32,
}

/// Deep integrity report from [`NhIndex::verify`]: page checksums of both
/// files, B+-tree structure, and posting decodability.
#[derive(Debug, Clone, Default, Serialize)]
pub struct IntegrityReport {
    /// Pages checked in the B+-tree file.
    pub btree_pages: u64,
    /// Pages checked in the blob file.
    pub blob_pages: u64,
    /// B+-tree entries counted by the structural walk.
    pub keys: u64,
    /// Postings decoded.
    pub postings: u64,
    /// Posting rows (indexed nodes) seen across all postings.
    pub posting_rows: u64,
    /// Human-readable descriptions of every problem found.
    pub errors: Vec<String>,
}

impl IntegrityReport {
    /// True when no corruption or invariant violation was found.
    pub fn is_ok(&self) -> bool {
        self.errors.is_empty()
    }
}

/// A query node's probe signature, built against the index's array scheme.
#[derive(Debug, Clone)]
pub struct QuerySignature {
    /// Effective label of the query node.
    pub label: u32,
    /// Degree of the query node.
    pub degree: u32,
    /// Neighbor connection of the query node.
    pub nb_connection: u32,
    /// Neighbor array under the index's scheme.
    pub nb_array: Vec<u64>,
}

impl QuerySignature {
    /// The probe signature of `node` under `scheme` — shared by the disk
    /// index and the delta overlay, which must agree bit for bit.
    pub(crate) fn of(
        scheme: NeighborArrayScheme,
        edge_labels: bool,
        g: &Graph,
        node: NodeId,
        label_of: &dyn Fn(NodeId) -> u32,
    ) -> QuerySignature {
        let nb_array = if edge_labels {
            scheme.array_of_pairs(g.neighbor_edges(node).map(|(nb, eid)| {
                (
                    label_of(nb),
                    g.edge_label(eid).map(|l| l.0 + 1).unwrap_or(0),
                )
            }))
        } else {
            scheme.array_of(g.neighbors(node).map(label_of))
        };
        QuerySignature {
            label: label_of(node),
            degree: g.degree(node) as u32,
            nb_connection: g.neighbor_connection(node) as u32,
            nb_array,
        }
    }
}

/// One index hit: a database node satisfying conditions IV.1–IV.4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeCandidate {
    /// The matching database node.
    pub node: NodeRef,
    /// Missing query neighbors in this match (bit-array misses, floored by
    /// the degree shortfall).
    pub nb_miss: u32,
    /// The database node's degree.
    pub db_degree: u32,
    /// The database node's neighbor connection.
    pub db_nb_connection: u32,
}

/// What one probe did: the traffic record every level reports, from a
/// single signature up to a shard of a batch (sum with `+=`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeStats {
    /// B+-tree keys visited by the range scan.
    pub keys_scanned: u64,
    /// Keys surviving the neighbor-connection filter (postings fetched).
    pub postings_fetched: u64,
    /// Postings skipped by the label-pair pre-filter before any blob
    /// prefetch (their guaranteed miss bound already exceeded the bit
    /// budget — see [`crate::filter`]).
    pub postings_filtered: u64,
    /// Bitmap rows examined by Algorithm 1.
    pub rows_examined: u64,
    /// Candidates returned.
    pub rows_returned: u64,
}

impl std::ops::AddAssign for ProbeStats {
    fn add_assign(&mut self, other: ProbeStats) {
        self.keys_scanned += other.keys_scanned;
        self.postings_fetched += other.postings_fetched;
        self.postings_filtered += other.postings_filtered;
        self.rows_examined += other.rows_examined;
        self.rows_returned += other.rows_returned;
    }
}

/// One signature's probe under `ρ` (§IV-B), shared by the disk index and
/// the delta overlay: the bounds of the key scan and the per-posting step
/// that turns a posting into candidates. The two readers differ only in
/// how they walk their keys and reach a posting; everything that decides
/// an answer or a counter is here.
pub(crate) struct Probe<'a> {
    sig: &'a QuerySignature,
    /// Condition IV.2: the least database degree that can match.
    deg_min: u32,
    /// Condition IV.4: the least neighbor connection that can match.
    nbc_min: u32,
    /// Condition IV.3's miss budget in bit space: with k Bloom hashes a
    /// missing neighbor can clear up to k bits.
    bit_budget: u32,
    /// Bits one missing neighbor label can clear (1 when deterministic).
    hashes: u32,
}

/// The key scan's verdict on one posting.
pub(crate) enum Admit {
    /// Fails condition IV.4.
    Reject,
    /// The label-pair pre-filter proved that no row qualifies.
    Filtered,
    /// Run Algorithm 1 on it.
    Fetch,
}

impl<'a> Probe<'a> {
    pub(crate) fn new(scheme: NeighborArrayScheme, sig: &'a QuerySignature, rho: f64) -> Self {
        let (nbmiss, nbcmiss) = miss_budgets(sig.degree, rho);
        Probe {
            sig,
            deg_min: sig.degree - nbmiss,
            nbc_min: sig.nb_connection.saturating_sub(nbcmiss),
            bit_budget: scheme.bit_budget(nbmiss),
            hashes: if scheme.deterministic {
                1
            } else {
                scheme.hashes.max(1) as u32
            },
        }
    }

    /// The composite-key range of conditions IV.1/IV.2, both ends
    /// inclusive: the query's label, database degree at least `deg_min`.
    pub(crate) fn keys(&self) -> (CompositeKey, CompositeKey) {
        (
            CompositeKey::new(self.sig.label, self.deg_min, 0),
            CompositeKey::new(self.sig.label, u32::MAX, u32::MAX),
        )
    }

    /// The scan step for one key in range: condition IV.4, then the
    /// label-pair pre-filter (condition IV.3's cheap bound) over the
    /// posting's label-pair summary, which `summary` looks up only for
    /// keys that pass IV.4 (`None`: no summary recorded, never skip).
    /// Filtered postings never reach a prefetch list, let alone bitmap
    /// decode.
    pub(crate) fn admit(
        &self,
        key: CompositeKey,
        summary: impl FnOnce() -> Option<u64>,
        stats: &mut ProbeStats,
    ) -> Admit {
        stats.keys_scanned += 1;
        if key.nb_connection < self.nbc_min {
            return Admit::Reject;
        }
        if filter::can_skip(summary(), &self.sig.nb_array, self.bit_budget) {
            stats.postings_filtered += 1;
            return Admit::Filtered;
        }
        stats.postings_fetched += 1;
        Admit::Fetch
    }

    /// The posting step: Algorithm 1 over the posting's bitmap
    /// (condition IV.3), then one candidate per qualifying row, appended
    /// to `out`.
    pub(crate) fn collect(
        &self,
        key: CompositeKey,
        posting: &Posting,
        stats: &mut ProbeStats,
        out: &mut Vec<NodeCandidate>,
    ) {
        stats.rows_examined += posting.refs.len() as u64;
        let ph = probe_bitsliced(&posting.bitmap, &self.sig.nb_array, self.bit_budget);
        stats.rows_returned += ph.rows.len() as u64;
        // Bit misses over-count by up to k per missing label under
        // multi-hash Bloom (divide, rounding up) and can undercount when
        // several query neighbors share a bit; the degree shortfall is a
        // second lower bound on missing neighbors.
        let shortfall = self.sig.degree.saturating_sub(key.degree);
        for (row, &miss) in ph.rows.iter().zip(ph.misses.iter()) {
            out.push(NodeCandidate {
                node: posting.refs[*row as usize],
                nb_miss: miss.div_ceil(self.hashes).max(shortfall),
                db_degree: key.degree,
                db_nb_connection: key.nb_connection,
            });
        }
    }

    /// Verify mode for a [`Admit::Filtered`] posting (debug builds
    /// only): every skip must be provably safe — the real Algorithm-1
    /// probe over the posting finds nothing.
    pub(crate) fn debug_check_filtered(&self, posting: &Posting) {
        if !cfg!(debug_assertions) {
            return;
        }
        let ph = probe_bitsliced(&posting.bitmap, &self.sig.nb_array, self.bit_budget);
        assert!(
            ph.rows.is_empty(),
            "label-pair filter skipped a posting with {} qualifying rows \
             (bit_budget {}) — the guaranteed-miss bound is unsound",
            ph.rows.len(),
            self.bit_budget,
        );
    }
}

/// The disk-resident neighborhood index: built once, then read-only.
/// Mutations live one layer up ([`crate::mvcc`]) — inserts in a delta
/// overlay, removals in a tombstone set, both folded into a *new* index.
pub struct NhIndex {
    btree: BTree,
    bt_pool: Arc<BufferPool>,
    blobs: BlobStore,
    scheme: NeighborArrayScheme,
    dir: PathBuf,
    node_count: u64,
    key_count: u64,
    /// Neighbor arrays are over (label, edge label) pairs.
    edge_labels: bool,
    /// Async read-path workers feeding both page files' prefetchers
    /// (`None` when prefetching is disabled). Shards of a sharded index
    /// all hold clones of one shared pool.
    io: Option<Arc<IoPool>>,
    /// Index statistics (see [`crate::stats`]), collected exactly at
    /// build; `None` for indexes persisted before statistics existed.
    stats: Option<Arc<IndexStatistics>>,
    /// Label-pair pre-filter (see [`crate::filter`]): per-key summaries
    /// consulted by the probe's key scan to skip postings before blob
    /// prefetch. `None` for indexes persisted before the filter existed
    /// (or with an unreadable sidecar) — probing works, just without
    /// skips.
    filter: Option<LabelPairFilter>,
}

/// One extracted indexing unit (pre-grouping). Shared with the delta
/// overlay, which extracts units with the same code path and groups them
/// into in-memory postings instead of on-disk blobs.
pub(crate) struct Unit {
    pub(crate) key: CompositeKey,
    pub(crate) node: NodeRef,
    pub(crate) array: Vec<u64>,
}

impl NhIndex {
    /// Builds the index for `db` into `dir` (created if needed).
    pub fn build(dir: &Path, db: &GraphDb, config: &NhIndexConfig) -> Result<Self> {
        let all: Vec<tale_graph::GraphId> = db.iter().map(|(id, _, _)| id).collect();
        Self::build_subset(dir, db, config, &all)
    }

    /// Builds an index covering only the listed `graphs` of `db` — the
    /// shard-local build. Node references keep their *global* graph ids
    /// and the neighbor-array scheme is chosen from the full database
    /// vocabulary, so a probe against a subset index returns exactly the
    /// subsequence of the full index's answer whose graphs are in the
    /// subset. An empty subset yields a valid, empty index.
    pub fn build_subset(
        dir: &Path,
        db: &GraphDb,
        config: &NhIndexConfig,
        graphs: &[tale_graph::GraphId],
    ) -> Result<Self> {
        let io = (config.io_workers > 0).then(|| IoPool::new(config.io_workers));
        Self::build_with_scheme(dir, db, config, Self::scheme_for(db, config), graphs, io)
    }

    /// The neighbor-array scheme a from-scratch build of `db` uses under
    /// `config`.
    pub(crate) fn scheme_for(db: &GraphDb, config: &NhIndexConfig) -> NeighborArrayScheme {
        if config.use_edge_labels {
            // pair space is too large for the deterministic regime
            NeighborArrayScheme {
                sbit: config.sbit,
                deterministic: false,
                hashes: config.bloom_hashes.max(1),
            }
        } else {
            NeighborArrayScheme::choose_with_hashes(
                config.sbit,
                db.effective_vocab_size(),
                config.bloom_hashes,
            )
        }
    }

    /// [`NhIndex::build_subset`] under a caller-chosen `scheme` instead of
    /// one derived from the current vocabulary — how a fold keeps the
    /// scheme its index was first built with, so sibling shards (and the
    /// signatures probing them) never disagree on the bit layout — with
    /// prefetching on the worker pool `io` (`None`: no prefetching).
    ///
    /// Writes the blob file, then the B+-tree file (each fsynced), then the
    /// sidecars, and the meta file last and atomically, so a directory
    /// with a meta file is a complete index. Returns the directory as
    /// [`NhIndex::open_without_io`] opens it, bound to `io`.
    pub(crate) fn build_with_scheme(
        dir: &Path,
        db: &GraphDb,
        config: &NhIndexConfig,
        scheme: NeighborArrayScheme,
        graphs: &[tale_graph::GraphId],
        io: Option<Arc<IoPool>>,
    ) -> Result<Self> {
        let mut stats_builder = StatsBuilder::new();
        for &gid in graphs {
            let g = db.try_graph(gid)?;
            stats_builder.record_graph(g.node_count() as u64, g.edge_count() as u64);
        }
        std::fs::create_dir_all(dir)?;

        let mut units = if config.parallel_build && graphs.len() > 1 {
            Self::extract_parallel(db, scheme, config.use_edge_labels, graphs)
        } else {
            Self::extract_serial(db, scheme, config.use_edge_labels, graphs)
        };
        // Group by key; within a key keep (graph, node) order for
        // deterministic postings.
        units.sort_unstable_by(|a, b| a.key.cmp(&b.key).then(a.node.cmp(&b.node)));

        let blob_disk = DiskManager::create(&dir.join(BLOB_FILE))?;
        let mut blobs = BlobWriter::new(&blob_disk);

        let mut pairs: Vec<(CompositeKey, u64)> = Vec::new();
        let mut summaries: Vec<(CompositeKey, u64)> = Vec::new();
        let mut i = 0;
        while i < units.len() {
            let key = units[i].key;
            let mut j = i;
            while j < units.len() && units[j].key == key {
                j += 1;
            }
            let group = &units[i..j];
            let refs: Vec<NodeRef> = group.iter().map(|u| u.node).collect();
            let rows: Vec<Vec<u64>> = group.iter().map(|u| u.array.clone()).collect();
            summaries.push((key, filter::summary_of_rows(&rows)));
            let posting = Posting::from_rows(refs, scheme.sbit, &rows);
            let r = blobs.put(&posting.encode())?;
            stats_builder.record_key(key.label, key.degree, group.len() as u64);
            pairs.push((key, r.pack()));
            i = j;
        }
        let blob_cursor = blobs.finish()?;
        let (root, height) =
            BTree::bulk_load(&DiskManager::create(&dir.join(BTREE_FILE))?, &pairs)?;

        let json = serde_json::to_string_pretty(&stats_builder.finish())
            .map_err(|e| NhError::Meta(format!("serialize stats: {e}")))?;
        tale_storage::atomic::write_atomic(&dir.join(STATS_FILE), json.as_bytes())?;
        let filter = LabelPairFilter::from_entries(summaries);
        tale_storage::atomic::write_atomic(&dir.join(FILTER_FILE), &filter.encode())?;
        let meta = MetaFile {
            sbit: scheme.sbit,
            deterministic: scheme.deterministic,
            hashes: scheme.hashes,
            edge_labels: config.use_edge_labels,
            root_page: root.0,
            height,
            blob_cursor,
            node_count: units.len() as u64,
            key_count: pairs.len() as u64,
            vocab_size: db.effective_vocab_size() as u64,
            label_filter: FILTER_SCHEMA_VERSION,
        };
        let json = serde_json::to_string_pretty(&meta)
            .map_err(|e| NhError::Meta(format!("serialize: {e}")))?;
        tale_storage::atomic::write_atomic(&dir.join(META_FILE), json.as_bytes())?;

        let mut idx = Self::open_without_io(dir, config.buffer_frames)?;
        idx.preload()?;
        if let Some(io) = io {
            idx.attach_io(io, config.prefetch_pages);
        }
        Ok(idx)
    }

    /// Reads the last pages of both page files (the B+-tree's root and
    /// upper levels among them) into their pools, as many as each pool
    /// holds. A fold's new generation takes over from a warm one; pages
    /// just written are cheap to read back here, where left cold the
    /// first queries on the generation would fetch them one miss or
    /// readahead job at a time.
    fn preload(&self) -> Result<()> {
        for pool in [&self.bt_pool, self.blobs.pool()] {
            let pages = pool.disk().page_count();
            for id in pages.saturating_sub(pool.capacity() as u64)..pages {
                pool.fetch(tale_storage::PageId(id))?;
            }
        }
        Ok(())
    }

    fn extract_serial(
        db: &GraphDb,
        scheme: NeighborArrayScheme,
        edge_labels: bool,
        graphs: &[tale_graph::GraphId],
    ) -> Vec<Unit> {
        let mut units = Vec::new();
        for &gid in graphs {
            let g = db.graph(gid);
            Self::extract_graph(db, gid.0, g, scheme, edge_labels, &mut units);
        }
        units
    }

    fn extract_parallel(
        db: &GraphDb,
        scheme: NeighborArrayScheme,
        edge_labels: bool,
        graphs: &[tale_graph::GraphId],
    ) -> Vec<Unit> {
        let threads = tale_par::effective_threads(0).min(graphs.len());
        let per_graph = tale_par::parallel_map(threads, graphs.len(), |i| {
            let gid = graphs[i];
            let g = db.graph(gid);
            let mut local = Vec::new();
            Self::extract_graph(db, gid.0, g, scheme, edge_labels, &mut local);
            local
        });
        per_graph.into_iter().flatten().collect()
    }

    pub(crate) fn extract_graph(
        db: &GraphDb,
        gid: u32,
        g: &Graph,
        scheme: NeighborArrayScheme,
        edge_labels: bool,
        out: &mut Vec<Unit>,
    ) {
        // = `db.effective_label(GraphId(gid), n)`, on the graph in hand
        let label_of = |n: NodeId| db.effective_of_raw(g.label(n));
        for n in g.nodes() {
            let degree = g.degree(n) as u32;
            let nbc = g.neighbor_connection(n) as u32;
            let label = label_of(n);
            let array = if edge_labels {
                scheme.array_of_pairs(g.neighbor_edges(n).map(|(nb, eid)| {
                    (
                        label_of(nb),
                        g.edge_label(eid).map(|l| l.0 + 1).unwrap_or(0),
                    )
                }))
            } else {
                scheme.array_of(g.neighbors(n).map(label_of))
            };
            out.push(Unit {
                key: CompositeKey::new(label, degree, nbc),
                node: NodeRef {
                    graph: gid,
                    node: n.0,
                },
                array,
            });
        }
    }

    /// Reopens an index previously built in `dir`, with the default async
    /// read path ([`DEFAULT_IO_WORKERS`] private workers).
    pub fn open(dir: &Path, buffer_frames: usize) -> Result<Self> {
        let mut idx = Self::open_without_io(dir, buffer_frames)?;
        idx.attach_io(IoPool::new(DEFAULT_IO_WORKERS), DEFAULT_PREFETCH_PAGES);
        Ok(idx)
    }

    /// [`NhIndex::open`] with prefetching disabled — an owner that shares
    /// one worker pool across several indexes opens each this way and then
    /// binds it via [`NhIndex::attach_io`].
    pub fn open_without_io(dir: &Path, buffer_frames: usize) -> Result<Self> {
        let meta_raw = std::fs::read_to_string(dir.join(META_FILE))?;
        let meta: MetaFile =
            serde_json::from_str(&meta_raw).map_err(|e| NhError::Meta(format!("parse: {e}")))?;
        let bt_disk = Arc::new(DiskManager::open(&dir.join(BTREE_FILE))?);
        let bt_pool = Arc::new(BufferPool::new(bt_disk, buffer_frames));
        let blob_disk = Arc::new(DiskManager::open(&dir.join(BLOB_FILE))?);
        let blob_pool = Arc::new(BufferPool::new(blob_disk, buffer_frames));
        // Statistics are best-effort on open: absent (pre-stats index),
        // unparseable, or version-skewed files mean "no statistics", and
        // `explain` has no estimate for this index.
        let stats = std::fs::read_to_string(dir.join(STATS_FILE))
            .ok()
            .and_then(|raw| serde_json::from_str::<IndexStatistics>(&raw).ok())
            .filter(|s| s.schema_version == STATS_SCHEMA_VERSION)
            .map(Arc::new);
        // The label-pair filter is likewise best-effort: only attempted
        // when this meta generation says a sidecar was written, and any
        // read/parse failure degrades to "no filter" (no skips) rather
        // than refusing to open.
        let lp_filter = if meta.label_filter == FILTER_SCHEMA_VERSION {
            std::fs::read(dir.join(FILTER_FILE))
                .ok()
                .and_then(|raw| LabelPairFilter::decode(&raw).ok())
        } else {
            None
        };
        Ok(NhIndex {
            btree: BTree::open(
                Arc::clone(&bt_pool),
                tale_storage::PageId(meta.root_page),
                meta.height,
            ),
            bt_pool,
            blobs: BlobStore::open(blob_pool, meta.blob_cursor),
            scheme: NeighborArrayScheme {
                sbit: meta.sbit,
                deterministic: meta.deterministic,
                hashes: meta.hashes,
            },
            dir: dir.to_owned(),
            node_count: meta.node_count,
            key_count: meta.key_count,
            edge_labels: meta.edge_labels,
            io: None,
            stats,
            filter: lp_filter,
        })
    }

    /// The statistics persisted with this index (`None` for
    /// indexes built before statistics existed). Cheap — clones an `Arc`.
    pub fn statistics(&self) -> Option<Arc<IndexStatistics>> {
        self.stats.clone()
    }

    /// Deep integrity check: reads every page of both files through the
    /// checksum-verifying path, walks the B+-tree validating structure and
    /// key order, and decodes every posting. Collects problems instead of
    /// failing fast so one report describes all damage.
    pub fn verify(&self) -> Result<IntegrityReport> {
        let mut report = IntegrityReport::default();

        // every page of both files must pass its checksum
        let mut sweep = |name: &str, disk: &DiskManager, counted: &mut u64| -> Result<()> {
            let pages = disk.pages_on_disk()?;
            for id in 0..pages {
                match disk.read_page(tale_storage::PageId(id)) {
                    Ok(_) => *counted += 1,
                    Err(e) => report.errors.push(format!("{name} page {id}: {e}")),
                }
            }
            Ok(())
        };
        let mut bt_pages = 0;
        let mut blob_pages = 0;
        sweep(BTREE_FILE, self.bt_pool.disk(), &mut bt_pages)?;
        sweep(BLOB_FILE, self.blobs.disk(), &mut blob_pages)?;
        report.btree_pages = bt_pages;
        report.blob_pages = blob_pages;

        // B+-tree structure: heights, fences, leaf chain, entry count
        match self.btree.verify() {
            Ok(check) => {
                report.keys = check.entries;
                if check.entries != self.key_count {
                    report.errors.push(format!(
                        "btree holds {} entries but meta records {}",
                        check.entries, self.key_count
                    ));
                }
            }
            Err(e) => report.errors.push(format!("btree structure: {e}")),
        }

        // every posting must decode and its rows must stay in range
        let lo = CompositeKey::new(0, 0, 0);
        let hi = CompositeKey::new(u32::MAX, u32::MAX, u32::MAX);
        let mut refs: Vec<(CompositeKey, BlobRef)> = Vec::new();
        if let Err(e) = self.btree.range_with(lo, hi, |k, v| {
            refs.push((k, BlobRef::unpack(v)));
            true
        }) {
            report.errors.push(format!("btree scan: {e}"));
        }
        let mut rows = 0u64;
        for (key, r) in refs {
            let bytes = match self.blobs.get(r) {
                Ok(b) => b,
                Err(e) => {
                    report.errors.push(format!("posting blob for {key:?}: {e}"));
                    continue;
                }
            };
            match Posting::decode(&bytes) {
                Ok(p) => {
                    report.postings += 1;
                    rows += p.refs.len() as u64;
                }
                Err(e) => report.errors.push(format!("posting for {key:?}: {e}")),
            }
        }
        report.posting_rows = rows;
        if rows != self.node_count {
            report.errors.push(format!(
                "postings hold {} rows but meta records {} indexed nodes",
                rows, self.node_count
            ));
        }
        Ok(report)
    }

    /// The neighbor-array scheme (query signatures must use it).
    pub fn scheme(&self) -> NeighborArrayScheme {
        self.scheme
    }

    /// Whether neighbor arrays fold incident edge labels (the extended
    /// labeled-edge adaptation). Needed to reconstruct a matching
    /// [`NhIndexConfig`] when reopening a generation from its meta file.
    pub fn edge_labels(&self) -> bool {
        self.edge_labels
    }

    /// Directory holding the index files.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Indexed node count (one unit per database node, §IV-A).
    pub fn node_count(&self) -> u64 {
        self.node_count
    }

    /// Distinct `(label, degree, nbConnection)` keys.
    pub fn key_count(&self) -> u64 {
        self.key_count
    }

    /// Total on-disk footprint in bytes (both page files).
    pub fn size_bytes(&self) -> u64 {
        let bt = self.dir.join(BTREE_FILE);
        let bl = self.dir.join(BLOB_FILE);
        let fs = |p: &Path| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
        fs(&bt) + fs(&bl)
    }

    /// Builds the probe signature for a query node. `label_of` maps query
    /// node ids to *effective* labels (group labels under §IV-E) — use
    /// [`GraphDb::effective_of_raw`] against the database vocabulary.
    /// When the index was built with edge labels, the query's incident
    /// edge labels enter the signature the same way.
    pub fn signature(
        &self,
        g: &Graph,
        node: NodeId,
        label_of: &dyn Fn(NodeId) -> u32,
    ) -> QuerySignature {
        QuerySignature::of(self.scheme, self.edge_labels, g, node, label_of)
    }

    /// Probes the index for database nodes approximately matching `sig`
    /// under approximation ratio `rho` (conditions IV.1–IV.4).
    pub fn probe(&self, sig: &QuerySignature, rho: f64) -> Result<Vec<NodeCandidate>> {
        Ok(self.probe_with_stats(sig, rho)?.0)
    }

    /// Probe phase 1: the B+-tree range scan (conditions IV.1, IV.2,
    /// IV.4), returning the surviving `(key, posting ref)` pairs. Split
    /// out so batch probes can collect every signature's refs and queue
    /// posting readahead before phase 2 touches any blob page.
    fn scan_keys(
        &self,
        sig: &QuerySignature,
        rho: f64,
        stats: &mut ProbeStats,
    ) -> Result<Vec<(CompositeKey, BlobRef)>> {
        // The probe-width contract, enforced here as a typed error: a
        // signature built under a different index's scheme (sbit skew)
        // must fail loudly, not silently under-count misses in the
        // kernel below.
        self.scheme
            .check_query_width(&sig.nb_array)
            .map_err(NhError::Meta)?;
        let probe = Probe::new(self.scheme, sig, rho);
        let (lo, hi) = probe.keys();
        let mut hits: Vec<(CompositeKey, BlobRef)> = Vec::new();
        // Postings the pre-filter skipped, re-checked below in debug
        // builds (outside the scan — blob reads must not run under the
        // B+-tree page latch).
        #[cfg(debug_assertions)]
        let mut skipped: Vec<BlobRef> = Vec::new();
        self.btree.range_with(lo, hi, |k, v| {
            match probe.admit(k, || self.filter.as_ref()?.get(k), stats) {
                Admit::Fetch => hits.push((k, BlobRef::unpack(v))),
                Admit::Filtered => {
                    #[cfg(debug_assertions)]
                    skipped.push(BlobRef::unpack(v));
                }
                Admit::Reject => {}
            }
            true
        })?;
        #[cfg(debug_assertions)]
        for r in skipped {
            probe.debug_check_filtered(&Posting::decode(&self.blobs.get(r)?)?);
        }
        Ok(hits)
    }

    /// Whether the label-pair pre-filter is consulted: false only when the
    /// index has no current `nh.lpf` sidecar. Answers are bit-identical
    /// either way (the filter only skips postings that can prove no row
    /// qualifies).
    pub fn filter_enabled(&self) -> bool {
        self.filter.is_some()
    }

    /// Number of keys carrying a label-pair summary (0 when the index has
    /// no filter).
    pub fn filter_keys(&self) -> u64 {
        self.filter.as_ref().map_or(0, |f| f.len() as u64)
    }

    /// Probe phase 2: fetch each surviving posting and run the bitmap
    /// test (condition IV.3, Algorithm 1). Pure per-hit work over a
    /// read-only index, so results are independent of any readahead that
    /// happened between the phases.
    fn process_postings(
        &self,
        sig: &QuerySignature,
        rho: f64,
        hits: &[(CompositeKey, BlobRef)],
        stats: &mut ProbeStats,
    ) -> Result<Vec<NodeCandidate>> {
        let probe = Probe::new(self.scheme, sig, rho);
        let mut out = Vec::new();
        for &(key, blob_ref) in hits {
            let posting = Posting::decode(&self.blobs.get(blob_ref)?)?;
            probe.collect(key, &posting, stats, &mut out);
        }
        Ok(out)
    }

    /// [`NhIndex::probe`] plus pruning counters.
    pub fn probe_with_stats(
        &self,
        sig: &QuerySignature,
        rho: f64,
    ) -> Result<(Vec<NodeCandidate>, ProbeStats)> {
        let mut stats = ProbeStats::default();
        let hits = self.scan_keys(sig, rho, &mut stats)?;
        // Queue readahead for every posting this probe will read; pages
        // already resident are skipped by the pool, so a warm cache pays
        // only the (cheap) staging check.
        self.blobs
            .prefetch(&hits.iter().map(|&(_, r)| r).collect::<Vec<_>>());
        let out = self.process_postings(sig, rho, &hits, &mut stats)?;
        Ok((out, stats))
    }

    /// Probes a batch of signatures, fanning out across `threads` workers
    /// (`0` = one per core, `1` = serial). Results come back in signature
    /// order and are element-wise identical to serial [`NhIndex::probe_with_stats`]
    /// calls — probing is a pure function of `(signature, rho)` over a
    /// read-only index, so only the wall clock changes.
    ///
    /// The batch runs in two phases: every signature's B+-tree scan first
    /// (phase 1), then one readahead request covering the union of every
    /// posting page the batch needs, then the bitmap work (phase 2). On a
    /// cold pool the posting reads overlap with phase-2 compute instead
    /// of serializing miss-by-miss inside each probe.
    pub fn probe_batch(
        &self,
        sigs: &[QuerySignature],
        rho: f64,
        threads: usize,
    ) -> Result<Vec<(Vec<NodeCandidate>, ProbeStats)>> {
        // phase-1 output per signature: scanned (key, posting ref) hits
        // plus the stats accumulated so far
        type Scanned = (Vec<(CompositeKey, BlobRef)>, ProbeStats);
        let threads = tale_par::effective_threads(threads);
        let scanned: Result<Vec<Scanned>> = tale_par::parallel_map(threads, sigs.len(), |i| {
            let mut stats = ProbeStats::default();
            let hits = self.scan_keys(&sigs[i], rho, &mut stats)?;
            Ok((hits, stats))
        })
        .into_iter()
        .collect();
        let scanned = scanned?;

        let all_refs: Vec<BlobRef> = scanned
            .iter()
            .flat_map(|(hits, _)| hits.iter().map(|&(_, r)| r))
            .collect();
        self.blobs.prefetch(&all_refs);

        tale_par::parallel_map(threads, sigs.len(), |i| {
            let (hits, mut stats) = scanned[i].clone();
            let out = self.process_postings(&sigs[i], rho, &hits, &mut stats)?;
            Ok((out, stats))
        })
        .into_iter()
        .collect()
    }

    /// Combined hit/miss counters of the B+-tree and blob buffer pools.
    pub fn pool_stats(&self) -> tale_storage::PoolStats {
        self.bt_pool.pool_stats().merged(self.blobs.pool_stats())
    }

    /// Combined readahead counters of both page files' prefetchers
    /// (zeros when prefetching is disabled).
    pub fn prefetch_stats(&self) -> PrefetchStats {
        self.bt_pool
            .prefetch_stats()
            .merged(self.blobs.pool().prefetch_stats())
    }

    /// Rebinds both page files' prefetchers to `io`, replacing whatever
    /// worker pool the index was built or opened with. A sharded index
    /// calls this on every shard with one shared pool so total I/O
    /// concurrency is bounded by that pool's workers, not
    /// `shards × workers`.
    pub fn attach_io(&mut self, io: Arc<IoPool>, staging_pages: usize) {
        self.bt_pool
            .attach_prefetcher(Arc::clone(&io), staging_pages);
        self.blobs
            .pool()
            .attach_prefetcher(Arc::clone(&io), staging_pages);
        self.io = Some(io);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// db with two graphs:
    /// g0: triangle A-B-C plus pendant A-D(A)
    /// g1: star center A with leaves B, B, C
    fn sample_db() -> GraphDb {
        let mut db = GraphDb::new();
        let a = db.intern_node_label("A");
        let b = db.intern_node_label("B");
        let c = db.intern_node_label("C");

        let mut g0 = Graph::new_undirected();
        let n0 = g0.add_node(a);
        let n1 = g0.add_node(b);
        let n2 = g0.add_node(c);
        let n3 = g0.add_node(a);
        g0.add_edge(n0, n1).unwrap();
        g0.add_edge(n1, n2).unwrap();
        g0.add_edge(n0, n2).unwrap();
        g0.add_edge(n0, n3).unwrap();
        db.insert("g0", g0);

        let mut g1 = Graph::new_undirected();
        let m0 = g1.add_node(a);
        let m1 = g1.add_node(b);
        let m2 = g1.add_node(b);
        let m3 = g1.add_node(c);
        g1.add_edge(m0, m1).unwrap();
        g1.add_edge(m0, m2).unwrap();
        g1.add_edge(m0, m3).unwrap();
        db.insert("g1", g1);
        db
    }

    fn build_sample(config: &NhIndexConfig) -> (tempfile::TempDir, GraphDb, NhIndex) {
        let dir = tempfile::tempdir().unwrap();
        let db = sample_db();
        let idx = NhIndex::build(dir.path(), &db, config).unwrap();
        (dir, db, idx)
    }

    fn cfg() -> NhIndexConfig {
        NhIndexConfig {
            sbit: 32,
            buffer_frames: 64,
            parallel_build: false,
            bloom_hashes: 1,
            use_edge_labels: false,
            ..NhIndexConfig::default()
        }
    }

    #[test]
    fn build_counts() {
        let (_d, db, idx) = build_sample(&cfg());
        assert_eq!(idx.node_count(), db.total_nodes() as u64);
        assert!(idx.key_count() > 0 && idx.key_count() <= idx.node_count());
        assert!(idx.size_bytes() > 0);
    }

    #[test]
    fn exact_probe_finds_equal_neighborhood() {
        let (_d, db, idx) = build_sample(&cfg());
        // Query = the g1 star center: label A, degree 3, nbc 0,
        // neighbors {B, B, C}.
        let g1 = db.graph(tale_graph::GraphId(1));
        let sig = idx.signature(g1, NodeId(0), &|n| {
            db.effective_label(tale_graph::GraphId(1), n)
        });
        let hits = idx.probe(&sig, 0.0).unwrap();
        // g0's n0 has label A, degree 3, neighbors {B, C, A}: misses B? No:
        // query needs {B, C} present; n0's neighbors are {B, C, A} → 0
        // misses, degree 3 ≥ 3, nbc 1 ≥ 0. So both centers hit.
        let nodes: Vec<NodeRef> = hits.iter().map(|h| h.node).collect();
        assert!(nodes.contains(&NodeRef { graph: 1, node: 0 }));
        assert!(nodes.contains(&NodeRef { graph: 0, node: 0 }));
        // the exact self-hit has zero misses
        let self_hit = hits
            .iter()
            .find(|h| h.node == NodeRef { graph: 1, node: 0 })
            .unwrap();
        assert_eq!(self_hit.nb_miss, 0);
    }

    #[test]
    fn rho_zero_rejects_smaller_degree() {
        let (_d, db, idx) = build_sample(&cfg());
        // Query node of degree 3 must not match db nodes of degree < 3
        // when ρ = 0.
        let g1 = db.graph(tale_graph::GraphId(1));
        let sig = idx.signature(g1, NodeId(0), &|n| {
            db.effective_label(tale_graph::GraphId(1), n)
        });
        let hits = idx.probe(&sig, 0.0).unwrap();
        assert!(hits.iter().all(|h| h.db_degree >= 3));
    }

    #[test]
    fn rho_relaxes_matches() {
        let (_d, db, idx) = build_sample(&cfg());
        let g1 = db.graph(tale_graph::GraphId(1));
        let sig = idx.signature(g1, NodeId(0), &|n| {
            db.effective_label(tale_graph::GraphId(1), n)
        });
        let strict = idx.probe(&sig, 0.0).unwrap();
        let loose = idx.probe(&sig, 0.5).unwrap();
        assert!(loose.len() >= strict.len());
    }

    #[test]
    fn probe_stats_populated() {
        let (_d, db, idx) = build_sample(&cfg());
        let g1 = db.graph(tale_graph::GraphId(1));
        let sig = idx.signature(g1, NodeId(0), &|n| {
            db.effective_label(tale_graph::GraphId(1), n)
        });
        let (hits, stats) = idx.probe_with_stats(&sig, 0.25).unwrap();
        assert_eq!(stats.rows_returned as usize, hits.len());
        assert!(stats.keys_scanned >= stats.postings_fetched);
        assert!(stats.rows_examined >= stats.rows_returned);
    }

    #[test]
    fn reopen_probes_identically() {
        let (dir, db, idx) = build_sample(&cfg());
        let g1 = db.graph(tale_graph::GraphId(1));
        let sig = idx.signature(g1, NodeId(0), &|n| {
            db.effective_label(tale_graph::GraphId(1), n)
        });
        let before = idx.probe(&sig, 0.25).unwrap();
        drop(idx);
        let idx2 = NhIndex::open(dir.path(), 64).unwrap();
        let mut after = idx2.probe(&sig, 0.25).unwrap();
        let mut before = before;
        before.sort_by_key(|h| h.node);
        after.sort_by_key(|h| h.node);
        assert_eq!(before, after);
        assert_eq!(idx2.node_count(), db.total_nodes() as u64);
    }

    #[test]
    fn parallel_build_equals_serial() {
        let dir_a = tempfile::tempdir().unwrap();
        let dir_b = tempfile::tempdir().unwrap();
        let db = sample_db();
        let mut ca = cfg();
        ca.parallel_build = false;
        let mut cb = cfg();
        cb.parallel_build = true;
        let ia = NhIndex::build(dir_a.path(), &db, &ca).unwrap();
        let ib = NhIndex::build(dir_b.path(), &db, &cb).unwrap();
        assert_eq!(ia.node_count(), ib.node_count());
        assert_eq!(ia.key_count(), ib.key_count());
        let g1 = db.graph(tale_graph::GraphId(1));
        for n in g1.nodes() {
            let sig = ia.signature(g1, n, &|x| db.effective_label(tale_graph::GraphId(1), x));
            let mut a = ia.probe(&sig, 0.3).unwrap();
            let mut b = ib.probe(&sig, 0.3).unwrap();
            a.sort_by_key(|h| h.node);
            b.sort_by_key(|h| h.node);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn group_labels_enable_mismatches() {
        // Two nodes with different raw labels but the same group must
        // match each other (§IV-E).
        let mut db = GraphDb::new();
        let p1 = db.intern_node_label("prot1");
        let p2 = db.intern_node_label("prot2");
        let q = db.intern_node_label("other");
        let mut g = Graph::new_undirected();
        let n0 = g.add_node(p1);
        let n1 = g.add_node(q);
        g.add_edge(n0, n1).unwrap();
        db.insert("g", g);
        // prot1 and prot2 share an ortholog group
        db.set_group_by_names(&[
            ("prot1".into(), "orthA".into()),
            ("prot2".into(), "orthA".into()),
        ])
        .unwrap();
        let dir = tempfile::tempdir().unwrap();
        let idx = NhIndex::build(dir.path(), &db, &cfg()).unwrap();
        // Query graph uses prot2 — different raw label, same group.
        let mut qg = Graph::new_undirected();
        let m0 = qg.add_node(p2);
        let m1 = qg.add_node(q);
        qg.add_edge(m0, m1).unwrap();
        let sig = idx.signature(&qg, NodeId(0), &|n| db.effective_of_raw(qg.label(n)));
        let hits = idx.probe(&sig, 0.0).unwrap();
        assert!(hits.iter().any(|h| h.node == NodeRef { graph: 0, node: 0 }));
        let _ = p1;
    }

    #[test]
    fn multi_hash_bloom_index_probes_correctly() {
        // Force the Bloom regime (sbit below vocab) with 3 hashes; probes
        // must still find every true match (no false negatives).
        let dir = tempfile::tempdir().unwrap();
        let db = sample_db();
        let config = NhIndexConfig {
            sbit: 2, // vocabulary has 3 labels → Bloom
            buffer_frames: 64,
            parallel_build: false,
            bloom_hashes: 3,
            use_edge_labels: false,
            ..NhIndexConfig::default()
        };
        let idx = NhIndex::build(dir.path(), &db, &config).unwrap();
        assert!(!idx.scheme().deterministic);
        assert_eq!(idx.scheme().hashes, 3);
        for gid in [tale_graph::GraphId(0), tale_graph::GraphId(1)] {
            let g = db.graph(gid);
            for n in g.nodes() {
                let sig = idx.signature(g, n, &|x| db.effective_label(gid, x));
                let hits = idx.probe(&sig, 0.0).unwrap();
                assert!(
                    hits.iter().any(|h| h.node
                        == NodeRef {
                            graph: gid.0,
                            node: n.0
                        }),
                    "self-match lost under multi-hash bloom: {gid:?} {n:?}"
                );
            }
        }
        // persists and reopens with the hash count intact
        drop(idx);
        let idx = NhIndex::open(dir.path(), 64).unwrap();
        assert_eq!(idx.scheme().hashes, 3);
    }

    #[test]
    fn subset_build_is_the_full_index_filtered() {
        // Probing a one-graph subset index must return exactly the rows of
        // the full index whose graph is in the subset — same scheme, same
        // global ids, same miss counts.
        let db = sample_db();
        let full_dir = tempfile::tempdir().unwrap();
        let full = NhIndex::build(full_dir.path(), &db, &cfg()).unwrap();
        for keep in [tale_graph::GraphId(0), tale_graph::GraphId(1)] {
            let dir = tempfile::tempdir().unwrap();
            let sub = NhIndex::build_subset(dir.path(), &db, &cfg(), &[keep]).unwrap();
            assert_eq!(sub.scheme(), full.scheme());
            assert_eq!(sub.node_count(), db.graph(keep).node_count() as u64);
            for gid in [tale_graph::GraphId(0), tale_graph::GraphId(1)] {
                let g = db.graph(gid);
                for n in g.nodes() {
                    let sig = full.signature(g, n, &|x| db.effective_label(gid, x));
                    let mut want: Vec<NodeCandidate> = full
                        .probe(&sig, 0.4)
                        .unwrap()
                        .into_iter()
                        .filter(|h| h.node.graph == keep.0)
                        .collect();
                    let mut got = sub.probe(&sig, 0.4).unwrap();
                    want.sort_by_key(|h| h.node);
                    got.sort_by_key(|h| h.node);
                    assert_eq!(got, want, "subset {keep:?}, probe from {gid:?} {n:?}");
                }
            }
        }
    }

    #[test]
    fn empty_subset_builds_valid_empty_index() {
        let db = sample_db();
        let dir = tempfile::tempdir().unwrap();
        let idx = NhIndex::build_subset(dir.path(), &db, &cfg(), &[]).unwrap();
        assert_eq!(idx.node_count(), 0);
        assert_eq!(idx.key_count(), 0);
        let g = db.graph(tale_graph::GraphId(0));
        let sig = idx.signature(g, NodeId(0), &|n| {
            db.effective_label(tale_graph::GraphId(0), n)
        });
        assert!(idx.probe(&sig, 1.0).unwrap().is_empty());
        drop(idx);
        // an empty index persists and reopens
        let idx = NhIndex::open(dir.path(), 64).unwrap();
        assert!(idx.probe(&sig, 1.0).unwrap().is_empty());
    }

    #[test]
    fn subset_build_rejects_bad_ids() {
        let db = sample_db();
        let dir = tempfile::tempdir().unwrap();
        assert!(NhIndex::build_subset(dir.path(), &db, &cfg(), &[tale_graph::GraphId(7)]).is_err());
    }

    #[test]
    fn probe_label_absent_returns_empty() {
        let (_d, db, idx) = build_sample(&cfg());
        let _ = db;
        let sig = QuerySignature {
            label: 999,
            degree: 1,
            nb_connection: 0,
            nb_array: vec![0u64; idx.scheme().words()],
        };
        assert!(idx.probe(&sig, 0.5).unwrap().is_empty());
    }

    /// A query whose neighbor bit no posting covers: under ρ = 0 the
    /// label-pair filter must skip every range-scanned posting before the
    /// blob store is touched, and the answer must equal the unfiltered
    /// path's (empty here).
    fn skipping_signature(idx: &NhIndex, db: &GraphDb) -> QuerySignature {
        // label A (deterministic scheme, vocab {A,B,C}); neighbor label 3
        // is outside the vocabulary, so no summary has its bit.
        let a = 0;
        let _ = db;
        QuerySignature {
            label: a,
            degree: 3,
            nb_connection: 0,
            nb_array: idx.scheme().array_of([3u32]),
        }
    }

    /// A copy of the index in `dir` with its `nh.lpf` sidecar removed:
    /// the degrade path (see `missing_or_stale_sidecar_degrades_to_no_filter`)
    /// that opens it without a label-pair filter.
    fn unfiltered_copy(dir: &Path) -> (tempfile::TempDir, NhIndex) {
        let copy = tempfile::tempdir().unwrap();
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            assert!(path.is_file(), "{path:?}: an index directory is flat");
            if path.file_name().is_some_and(|f| f != FILTER_FILE) {
                std::fs::copy(&path, copy.path().join(path.file_name().unwrap())).unwrap();
            }
        }
        let idx = NhIndex::open(copy.path(), 64).unwrap();
        (copy, idx)
    }

    #[test]
    fn filter_skips_postings_before_fetch() {
        let (dir, db, idx) = build_sample(&cfg());
        assert!(idx.scheme().deterministic);
        assert!(idx.filter_enabled());
        assert!(idx.filter_keys() > 0);
        let sig = skipping_signature(&idx, &db);
        let (hits, stats) = idx.probe_with_stats(&sig, 0.0).unwrap();
        assert!(hits.is_empty());
        assert!(stats.postings_filtered > 0, "expected skips, got {stats:?}");
        assert_eq!(
            stats.postings_fetched, 0,
            "every surviving key should have been filtered: {stats:?}"
        );

        // identity against the unfiltered path, and the counter taxonomy
        // flips back to fetches
        let (_copy, off) = unfiltered_copy(dir.path());
        assert!(!off.filter_enabled());
        let (hits_off, stats_off) = off.probe_with_stats(&sig, 0.0).unwrap();
        assert_eq!(hits_off, hits);
        assert_eq!(stats_off.postings_filtered, 0);
        assert!(stats_off.postings_fetched > 0);
        assert!(stats.rows_examined <= stats_off.rows_examined);
    }

    #[test]
    fn filter_on_off_answers_identically() {
        let (dir, db, idx) = build_sample(&cfg());
        let (_copy, off) = unfiltered_copy(dir.path());
        for gid in [tale_graph::GraphId(0), tale_graph::GraphId(1)] {
            let g = db.graph(gid);
            for n in g.nodes() {
                let sig = idx.signature(g, n, &|x| db.effective_label(gid, x));
                for rho in [0.0, 0.25, 0.5, 1.0] {
                    let on = idx.probe(&sig, rho).unwrap();
                    let off = off.probe(&sig, rho).unwrap();
                    assert_eq!(on, off, "gid={gid:?} n={n:?} rho={rho}");
                }
            }
        }
    }

    #[test]
    fn filter_survives_reopen() {
        let (dir, db, idx) = build_sample(&cfg());
        drop(idx);
        let idx = NhIndex::open(dir.path(), 64).unwrap();
        assert!(idx.filter_keys() > 0, "sidecar should reload on open");
        let sig = skipping_signature(&idx, &db);
        let (_, stats) = idx.probe_with_stats(&sig, 0.0).unwrap();
        assert!(stats.postings_filtered > 0);
    }

    /// Meta files written before the generational refactor carry
    /// `tombstones` and `generation`; they must still parse (the fields
    /// are simply ignored).
    #[test]
    fn meta_with_dropped_fields_still_opens() {
        let (dir, db, idx) = build_sample(&cfg());
        let sig = skipping_signature(&idx, &db);
        let want = idx.probe(&sig, 0.5).unwrap();
        drop(idx);
        let meta_path = dir.path().join(META_FILE);
        let meta = std::fs::read_to_string(&meta_path).unwrap();
        let old = meta.replacen('{', "{\n  \"tombstones\": [1],\n  \"generation\": 7,", 1);
        assert_ne!(old, meta);
        std::fs::write(&meta_path, old).unwrap();
        let idx = NhIndex::open(dir.path(), 64).unwrap();
        assert_eq!(idx.probe(&sig, 0.5).unwrap(), want);
    }

    #[test]
    fn missing_or_stale_sidecar_degrades_to_no_filter() {
        let (dir, db, idx) = build_sample(&cfg());
        let sig = skipping_signature(&idx, &db);
        let want = idx.probe(&sig, 0.0).unwrap();
        drop(idx);

        // sidecar deleted: the index opens and answers identically, with
        // no skips
        std::fs::remove_file(dir.path().join(FILTER_FILE)).unwrap();
        let idx = NhIndex::open(dir.path(), 64).unwrap();
        assert_eq!(idx.filter_keys(), 0);
        assert!(!idx.filter_enabled());
        let (got, stats) = idx.probe_with_stats(&sig, 0.0).unwrap();
        assert_eq!(got, want);
        assert_eq!(stats.postings_filtered, 0);
        drop(idx);

        // meta recording no filter (the absent-field default is also 0):
        // a sidecar present on disk is ignored
        let meta_path = dir.path().join(META_FILE);
        let meta = std::fs::read_to_string(&meta_path).unwrap();
        assert!(meta.contains("\"label_filter\": 1"));
        std::fs::write(
            &meta_path,
            meta.replace("\"label_filter\": 1", "\"label_filter\": 0"),
        )
        .unwrap();
        let idx = NhIndex::open(dir.path(), 64).unwrap();
        assert_eq!(idx.filter_keys(), 0);
        assert_eq!(idx.probe(&sig, 0.0).unwrap(), want);
    }

    /// The probe-width contract at the `IndexReader` boundary: a signature
    /// built under a different generation's scheme (sbit skew after
    /// vocabulary growth) must surface a typed error, not silently
    /// under-count misses.
    #[test]
    fn probe_rejects_width_skew_via_reader() {
        use crate::reader::IndexReader;
        let (_d, db, idx) = build_sample(&cfg());
        let g1 = db.graph(tale_graph::GraphId(1));
        let good = idx.signature(g1, NodeId(0), &|n| {
            db.effective_label(tale_graph::GraphId(1), n)
        });
        let reader: &dyn IndexReader = &idx;

        // one word too many (signature from a wider-vocabulary scheme)
        let mut wide = good.clone();
        wide.nb_array.push(0);
        let err = reader.probe_batch(&[wide], 0.5, 1).unwrap_err();
        assert!(matches!(err, NhError::Meta(_)), "{err}");
        assert!(err.to_string().contains("words"), "{err}");

        // right word count, but bits at/above sbit 32
        let mut stray = good.clone();
        stray.nb_array[0] |= 1u64 << 40;
        let err = reader.probe_batch(&[stray], 0.5, 1).unwrap_err();
        assert!(matches!(err, NhError::Meta(_)), "{err}");
        assert!(err.to_string().contains("stray"), "{err}");

        // the good signature still works after the rejections
        assert!(reader.probe_batch(&[good], 0.5, 1).is_ok());
    }
}
