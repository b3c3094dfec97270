//! Pluggable graph-similarity models (§III).
//!
//! "There is no 'universal' model that fits all applications … we let the
//! users customize the similarity method that best models their
//! application." TALE only needs a total order over matches to return the
//! top-K, so the trait is a single scoring function over a completed
//! match. Three built-ins cover the paper's uses:
//!
//! * [`MatchedNodesEdges`] — raw conserved-component size (the §VI-D
//!   ablation reports matched nodes/edges directly).
//! * [`QualitySum`] — sum of per-node qualities (Eq. IV.5), TALE's
//!   internal signal.
//! * [`CTreeStyle`] — the normalized node+edge similarity used when
//!   comparing against C-Tree (§VI-B.2: "we employ the similarity model
//!   used by C-Tree to rank the matching results").

use crate::grow::GraphMatch;
use tale_graph::Graph;

/// Everything a similarity model may inspect.
pub struct MatchContext<'a> {
    /// The query graph.
    pub query: &'a Graph,
    /// The matched database graph.
    pub target: &'a Graph,
    /// The grown match.
    pub m: &'a GraphMatch,
}

impl MatchContext<'_> {
    /// Matched node count.
    pub fn matched_nodes(&self) -> usize {
        self.m.matched_nodes()
    }

    /// Matched (preserved) edge count.
    pub fn matched_edges(&self) -> usize {
        self.m.matched_edges(self.query, self.target)
    }
}

/// Scores a completed graph match; higher = more similar.
pub trait SimilarityModel: Send + Sync {
    /// Human-readable model name (for experiment output).
    fn name(&self) -> &'static str;
    /// The score.
    fn score(&self, ctx: &MatchContext<'_>) -> f64;
}

/// `score = matched nodes + matched edges` — the conserved-component size.
#[derive(Debug, Clone, Copy, Default)]
pub struct MatchedNodesEdges;

impl SimilarityModel for MatchedNodesEdges {
    fn name(&self) -> &'static str {
        "matched-nodes+edges"
    }
    fn score(&self, ctx: &MatchContext<'_>) -> f64 {
        (ctx.matched_nodes() + ctx.matched_edges()) as f64
    }
}

/// Sum of node-match qualities (Eq. IV.5 values accumulated by GrowMatch).
#[derive(Debug, Clone, Copy, Default)]
pub struct QualitySum;

impl SimilarityModel for QualitySum {
    fn name(&self) -> &'static str {
        "quality-sum"
    }
    fn score(&self, ctx: &MatchContext<'_>) -> f64 {
        ctx.m.quality_sum()
    }
}

/// C-Tree-style normalized similarity:
/// `2·(matched nodes + matched edges) / (|Vq|+|Eq| + |Vt|+|Et|)`.
/// 1.0 for identical graphs fully matched; symmetric in the two sizes so
/// matching a small query inside a huge graph is penalized, as C-Tree's
/// NN-search ranking does.
#[derive(Debug, Clone, Copy, Default)]
pub struct CTreeStyle;

impl SimilarityModel for CTreeStyle {
    fn name(&self) -> &'static str {
        "ctree-style"
    }
    fn score(&self, ctx: &MatchContext<'_>) -> f64 {
        let q = ctx.query.node_count() + ctx.query.edge_count();
        let t = ctx.target.node_count() + ctx.target.edge_count();
        if q + t == 0 {
            return 0.0;
        }
        2.0 * (ctx.matched_nodes() + ctx.matched_edges()) as f64 / (q + t) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grow::{GraphMatch, MatchPair};
    use tale_graph::labels::NodeLabel;
    use tale_graph::NodeId;

    fn path(n: usize) -> Graph {
        let mut g = Graph::new_undirected();
        let ids: Vec<_> = (0..n).map(|i| g.add_node(NodeLabel(i as u32))).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1]).unwrap();
        }
        g
    }

    fn identity_match(n: usize) -> GraphMatch {
        GraphMatch {
            pairs: (0..n)
                .map(|i| MatchPair {
                    query: NodeId(i as u32),
                    target: NodeId(i as u32),
                    quality: 2.0,
                })
                .collect(),
        }
    }

    #[test]
    fn full_identity_scores() {
        let q = path(4);
        let t = path(4);
        let m = identity_match(4);
        let ctx = MatchContext {
            query: &q,
            target: &t,
            m: &m,
        };
        assert_eq!(ctx.matched_nodes(), 4);
        assert_eq!(ctx.matched_edges(), 3);
        assert_eq!(MatchedNodesEdges.score(&ctx), 7.0);
        assert_eq!(QualitySum.score(&ctx), 8.0);
        assert!((CTreeStyle.score(&ctx) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn partial_match_scores_lower() {
        let q = path(4);
        let t = path(4);
        let m = identity_match(2);
        let ctx = MatchContext {
            query: &q,
            target: &t,
            m: &m,
        };
        assert_eq!(ctx.matched_edges(), 1);
        assert!(CTreeStyle.score(&ctx) < 1.0);
        assert_eq!(MatchedNodesEdges.score(&ctx), 3.0);
    }

    #[test]
    fn size_asymmetry_penalized_by_ctree_style() {
        let q = path(3);
        let small = path(3);
        let big = path(30);
        let m = identity_match(3);
        let c_small = CTreeStyle.score(&MatchContext {
            query: &q,
            target: &small,
            m: &m,
        });
        let c_big = CTreeStyle.score(&MatchContext {
            query: &q,
            target: &big,
            m: &m,
        });
        assert!(c_small > c_big);
    }

    #[test]
    fn empty_graphs_zero() {
        let q = Graph::new_undirected();
        let t = Graph::new_undirected();
        let m = GraphMatch::default();
        let ctx = MatchContext {
            query: &q,
            target: &t,
            m: &m,
        };
        assert_eq!(CTreeStyle.score(&ctx), 0.0);
        assert_eq!(MatchedNodesEdges.score(&ctx), 0.0);
    }

    #[test]
    fn model_names() {
        assert_eq!(MatchedNodesEdges.name(), "matched-nodes+edges");
        assert_eq!(QualitySum.name(), "quality-sum");
        assert_eq!(CTreeStyle.name(), "ctree-style");
    }
}
