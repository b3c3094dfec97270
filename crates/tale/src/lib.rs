//! TALE — a Tool for Approximate Large graph matching Efficiently
//! (Tian & Patel, ICDE 2008).
//!
//! This crate is the public face of the reproduction: build a
//! [`TaleDatabase`] over a [`tale_graph::GraphDb`] (constructing the
//! disk-resident NH-Index), then run approximate subgraph queries with
//! [`ShardedTaleDatabase::query`]. A `TaleDatabase` is the one-shard view
//! of the one database implementation, [`ShardedTaleDatabase`], which
//! partitions the index across `N` shards (`shards.json` + `shard-NNN/`)
//! and answers bit-identically at every `N`. The pipeline is exactly the
//! paper's (Fig. 4):
//!
//! 1. select the query's important nodes (top `Pimp` fraction by the
//!    configured importance measure, degree centrality by default);
//! 2. probe the NH-Index for each important node (conditions IV.1–IV.4,
//!    Algorithm 1), score hits with Eq. IV.5;
//! 3. per candidate database graph, resolve hits into one-to-one anchors
//!    by maximum-weight bipartite matching;
//! 4. grow each anchored match with Algorithms 2–4;
//! 5. rank matches under a pluggable similarity model and return the
//!    top-K.
//!
//! ```no_run
//! use tale::{TaleDatabase, TaleParams, QueryOptions};
//! use tale_graph::{GraphDb, Graph};
//!
//! let mut db = GraphDb::new();
//! let a = db.intern_node_label("A");
//! let b = db.intern_node_label("B");
//! let mut g = Graph::new_undirected();
//! let n0 = g.add_node(a);
//! let n1 = g.add_node(b);
//! g.add_edge(n0, n1).unwrap();
//! db.insert("toy", g.clone());
//!
//! let tale = TaleDatabase::build_in_temp(db, &TaleParams::default()).unwrap();
//! let results = tale.query(&g, &QueryOptions::default()).unwrap();
//! assert_eq!(results[0].matched_nodes, 2);
//! ```

mod database;
pub mod engine;
mod index;
mod manifest;
mod params;
mod policy;
mod result;
mod scratch;
pub mod store;

pub use database::{ShardedTaleDatabase, TaleDatabase};
pub use engine::cache::{options_fingerprint, CacheStats, DEFAULT_CACHE_ENTRIES, PLAN_VERSION};
pub use engine::plan::{canonical_signature, PlanNode, PlanReport, ProbeReport, ShardPlan};
pub use engine::stats::{BatchStats, PoolDelta, QueryStats, ShardStats, StageTimes};
pub use index::{ShardBuildStats, ShardedNhIndex};
pub use manifest::{vocab_fingerprint, ShardManifest};
pub use params::{PlanMode, QueryOptions, TaleParams};
pub use policy::{
    policy_by_name, HashPolicy, LabelClusteredPolicy, ShardPolicy, SizeBalancedPolicy,
};
pub use result::QueryMatch;
pub use scratch::ScratchDir;
pub use store::DbRecovery;
pub use tale_graph::centrality::ImportanceMeasure;
pub use tale_matching::similarity::{CTreeStyle, MatchedNodesEdges, QualitySum, SimilarityModel};

/// Errors surfaced by the TALE API.
#[derive(Debug)]
pub enum TaleError {
    /// Index-layer failure.
    Index(tale_nhindex::NhError),
    /// Index-layer failure attributed to one shard, so a partial-shard
    /// failure (one corrupt `shard-NNN/` among healthy siblings) is
    /// diagnosable.
    Shard {
        /// The shard whose index failed.
        shard: u32,
        /// The underlying index error.
        source: tale_nhindex::NhError,
    },
    /// `shards.json` missing a piece, malformed, or inconsistent with the
    /// database — or a request it cannot serve (a shard it does not have,
    /// a layout of the wrong shard count).
    Manifest(String),
    /// Graph-layer failure.
    Graph(tale_graph::GraphError),
    /// Filesystem failure.
    Io(std::io::Error),
    /// The directory cannot be opened as it stands — a build or
    /// compaction stopped before its index manifest was written, or an
    /// older build left a file this one cannot act on. Names the file;
    /// rebuilding the directory fixes it.
    Rebuild {
        /// The missing or unexpected file.
        file: String,
        /// What is wrong with it.
        problem: String,
    },
    /// The graph log (`graphs.log`) holds a damaged record with a whole
    /// record after it: committed data is corrupt, so open refuses rather
    /// than drop the inserts behind it.
    CorruptLog {
        /// Byte offset of the damaged record.
        offset: u64,
    },
}

impl std::fmt::Display for TaleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaleError::Index(e) => write!(f, "index: {e}"),
            TaleError::Shard { shard, source } => write!(f, "shard {shard}: {source}"),
            TaleError::Manifest(m) => write!(f, "manifest: {m}"),
            TaleError::Graph(e) => write!(f, "graph: {e}"),
            TaleError::Io(e) => write!(f, "io: {e}"),
            TaleError::Rebuild { file, problem } => write!(
                f,
                "{file}: {problem}; rebuild the directory with `tale-cli build`"
            ),
            TaleError::CorruptLog { offset } => write!(
                f,
                "graphs.log: corrupt record at byte {offset} with committed records after it"
            ),
        }
    }
}

impl std::error::Error for TaleError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TaleError::Index(e) | TaleError::Shard { source: e, .. } => Some(e),
            TaleError::Graph(e) => Some(e),
            TaleError::Io(e) => Some(e),
            TaleError::Manifest(_) | TaleError::Rebuild { .. } | TaleError::CorruptLog { .. } => {
                None
            }
        }
    }
}

impl From<tale_nhindex::NhError> for TaleError {
    fn from(e: tale_nhindex::NhError) -> Self {
        TaleError::Index(e)
    }
}

impl From<tale_graph::GraphError> for TaleError {
    fn from(e: tale_graph::GraphError) -> Self {
        TaleError::Graph(e)
    }
}

impl From<std::io::Error> for TaleError {
    fn from(e: std::io::Error) -> Self {
        TaleError::Io(e)
    }
}

/// Result alias.
pub type Result<T> = std::result::Result<T, TaleError>;
