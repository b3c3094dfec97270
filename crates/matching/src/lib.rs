//! The TALE matching algorithm (§V) and its supporting machinery.
//!
//! Matching is two-phased (Fig. 4):
//!
//! 1. **Match the important nodes** (§V-B): the query's top-`Pimp` nodes by
//!    importance are probed against the NH-Index; per candidate database
//!    graph, the many-to-many probe results are resolved into one-to-one
//!    *anchor* matches by maximum-weight bipartite matching over the node
//!    match qualities (the paper used LEDA; [`bipartite`] is our
//!    from-scratch Kuhn–Munkres plus a greedy alternative).
//! 2. **Extend the match** (§V-C, Algorithms 2–4): [`grow`] pops the best
//!    anchor off a priority queue, commits it, and examines nodes up to two
//!    hops from both endpoints for new satisfiable matches, until the queue
//!    drains.
//!
//! [`similarity`] supplies the pluggable graph-similarity models the paper
//! deliberately leaves to the application (§III).

pub mod bipartite;
pub mod grow;
pub mod similarity;

pub use bipartite::{greedy_matching, max_weight_matching};
pub use grow::{grow_match, grow_match_with, Anchor, GraphMatch, GrowConfig, MatchPair};
pub use similarity::{CTreeStyle, MatchContext, MatchedNodesEdges, QualitySum, SimilarityModel};
