//! Build- and query-time parameters.
//!
//! TALE has three user-facing knobs (§VI-A): the neighbor array width
//! `Sbit` (index-build time), the approximation ratio `ρ` and the
//! important-node fraction `Pimp` (query time). The paper's settings:
//! `Sbit = 96, ρ = 25%, Pimp = 15%` for BIND; `Sbit = 32, ρ = 25%,
//! Pimp = 25%` for ASTRAL.

use std::sync::Arc;
use tale_graph::centrality::ImportanceMeasure;
use tale_matching::similarity::{QualitySum, SimilarityModel};

/// Index-build parameters.
#[derive(Debug, Clone)]
pub struct TaleParams {
    /// Neighbor array width in bits (`Sbit`).
    pub sbit: u32,
    /// Buffer pool frames per index page file (8 KiB each).
    pub buffer_frames: usize,
    /// Parallelize indexing-unit extraction across graphs.
    pub parallel_build: bool,
    /// Bloom hash functions per neighbor label (§IV-A precision
    /// extension; 1 = the paper's setting).
    pub bloom_hashes: u8,
    /// Fold incident edge labels into neighborhood signatures (the
    /// extended paper's labeled-edge adaptation). Pair with
    /// `QueryOptions::match_edge_labels` for end-to-end edge-label
    /// semantics.
    pub use_edge_labels: bool,
    /// Async read-path worker threads per index (`0` disables
    /// prefetching). Sharded databases share one worker pool across all
    /// shards, so this bounds total I/O concurrency, not per-shard.
    pub io_workers: usize,
    /// Prefetch staging capacity in pages (8 KiB each), per page file.
    pub prefetch_pages: usize,
}

impl Default for TaleParams {
    fn default() -> Self {
        TaleParams {
            sbit: 64,
            buffer_frames: 4096,
            parallel_build: true,
            bloom_hashes: 1,
            use_edge_labels: false,
            io_workers: tale_nhindex::DEFAULT_IO_WORKERS,
            prefetch_pages: tale_nhindex::DEFAULT_PREFETCH_PAGES,
        }
    }
}

impl TaleParams {
    /// The paper's BIND configuration (`Sbit = 96`).
    pub fn bind() -> Self {
        TaleParams {
            sbit: 96,
            ..Default::default()
        }
    }

    /// The paper's ASTRAL configuration (`Sbit = 32`).
    pub fn astral() -> Self {
        TaleParams {
            sbit: 32,
            ..Default::default()
        }
    }
}

/// Query-time parameters.
#[derive(Clone)]
pub struct QueryOptions {
    /// Approximation ratio ρ: fraction of a query node's neighbors allowed
    /// to have no counterpart (§IV-B). The paper uses 25%.
    pub rho: f64,
    /// Fraction of query nodes treated as important (§V-B). The paper uses
    /// 15% (BIND) / 25% (ASTRAL).
    pub p_imp: f64,
    /// Node-importance measure (degree centrality in the paper; Random
    /// gives the §VI-D TALE-Random ablation).
    pub importance: ImportanceMeasure,
    /// Extension radius in hops (the paper fixes 2).
    pub hops: u8,
    /// Use greedy anchor assignment instead of Hungarian (ablation).
    pub greedy_anchors: bool,
    /// Require matched edges to carry equal labels during growth (the
    /// extended paper's labeled-edge matching; unlabeled edges match only
    /// unlabeled edges).
    pub match_edge_labels: bool,
    /// Keep only the best K matches (`None` = all, as in the Fig. 6
    /// experiment, which does "not restrict the number of results").
    pub top_k: Option<usize>,
    /// Worker threads for the query pipeline: `0` = one per available
    /// core, `1` = fully serial, `n` = exactly `n`. Results are identical
    /// at every setting — per-graph work is pure and merged in a
    /// deterministic order — so this is purely a latency knob.
    pub threads: usize,
    /// Consult (and populate) the database's result cache. Caching never
    /// changes results — hits are verified against the exact query — so
    /// this is a knob for benchmarking cold paths, not correctness.
    pub use_cache: bool,
    /// Similarity model ranking the results (§III: user-customizable).
    pub similarity: Arc<dyn SimilarityModel>,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions {
            rho: 0.25,
            p_imp: 0.15,
            importance: ImportanceMeasure::Degree,
            hops: 2,
            greedy_anchors: false,
            match_edge_labels: false,
            top_k: None,
            threads: 0,
            use_cache: true,
            similarity: Arc::new(QualitySum),
        }
    }
}

impl std::fmt::Debug for QueryOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryOptions")
            .field("rho", &self.rho)
            .field("p_imp", &self.p_imp)
            .field("importance", &self.importance)
            .field("hops", &self.hops)
            .field("greedy_anchors", &self.greedy_anchors)
            .field("top_k", &self.top_k)
            .field("threads", &self.threads)
            .field("use_cache", &self.use_cache)
            .field("similarity", &self.similarity.name())
            .finish()
    }
}

impl QueryOptions {
    /// The paper's BIND query settings (ρ = 25%, Pimp = 15%).
    pub fn bind() -> Self {
        QueryOptions::default()
    }

    /// The paper's ASTRAL query settings (ρ = 25%, Pimp = 25%).
    pub fn astral() -> Self {
        QueryOptions {
            p_imp: 0.25,
            ..Default::default()
        }
    }

    /// Builder-style: set `top_k`.
    pub fn with_top_k(mut self, k: usize) -> Self {
        self.top_k = Some(k);
        self
    }

    /// Builder-style: set the similarity model.
    pub fn with_similarity(mut self, s: Arc<dyn SimilarityModel>) -> Self {
        self.similarity = s;
        self
    }

    /// Builder-style: set the importance measure.
    pub fn with_importance(mut self, m: ImportanceMeasure) -> Self {
        self.importance = m;
        self
    }

    /// Builder-style: set the worker-thread count (`0` = auto, `1` =
    /// serial).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Builder-style: enable or disable the result cache.
    pub fn with_cache(mut self, use_cache: bool) -> Self {
        self.use_cache = use_cache;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_presets() {
        assert_eq!(TaleParams::bind().sbit, 96);
        assert_eq!(TaleParams::astral().sbit, 32);
        assert_eq!(QueryOptions::bind().p_imp, 0.15);
        assert_eq!(QueryOptions::astral().p_imp, 0.25);
        assert_eq!(QueryOptions::bind().rho, 0.25);
    }

    #[test]
    fn builders() {
        let o = QueryOptions::default()
            .with_top_k(20)
            .with_importance(ImportanceMeasure::Closeness);
        assert_eq!(o.top_k, Some(20));
        assert_eq!(o.importance, ImportanceMeasure::Closeness);
    }

    #[test]
    fn debug_impl_includes_model_name() {
        let s = format!("{:?}", QueryOptions::default());
        assert!(s.contains("quality-sum"));
    }
}
