//! The grow stage: the per-candidate-graph match driver (§V, step 2).
//!
//! One call = one candidate database graph: resolve the probe hits into
//! one-to-one anchors, grow the match (Algorithms 2–4), then iteratively
//! re-anchor the still-unmatched residue until a fixpoint, and score the
//! result under the query's similarity model. Pure with respect to its
//! inputs, which is what lets [`exec`](crate::engine::exec) fan calls out
//! across threads with bit-identical results.

use crate::engine::anchor::resolve_anchors;
use crate::params::QueryOptions;
use crate::result::QueryMatch;
use tale_graph::{Graph, GraphDb, GraphId, NodeId};
use tale_matching::grow::{grow_match_with, Anchor, CandidateScorer, GrowConfig, GrowInput};
use tale_matching::similarity::MatchContext;

/// Matches one query against one candidate graph. `hits` is the graph's
/// probe bucket: `(important-node index, db node id, Eq. IV.5 quality)`.
/// Returns `None` when no anchor sticks or growth matches nothing.
pub(crate) fn match_one_graph(
    db: &GraphDb,
    query: &Graph,
    important: &[NodeId],
    gid: u32,
    hits: &[(usize, u32, f64)],
    opts: &QueryOptions,
) -> Option<QueryMatch> {
    let graph_id = GraphId(gid);
    let target = db.graph(graph_id);
    let anchors = resolve_anchors(query, target, important, hits, &[], opts);
    if anchors.is_empty() {
        return None;
    }
    let q_label = |n: NodeId| db.effective_of_raw(query.label(n));
    let t_label = |n: NodeId| db.effective_label(graph_id, n);
    let input = GrowInput {
        query,
        target,
        q_label: &q_label,
        t_label: &t_label,
    };
    let grow_cfg = GrowConfig {
        rho: opts.rho,
        hops: opts.hops,
        match_edge_labels: opts.match_edge_labels,
    };
    // One scorer for every growth and residual scan of this pair: node
    // statistics are computed once per call, not once per round.
    let mut scorer = CandidateScorer::new(&input);
    let mut m = grow_match_with(&input, &grow_cfg, &anchors, &mut scorer);
    if m.pairs.is_empty() {
        return None;
    }
    // Residual re-anchoring: §V-C growth only reaches nodes whose
    // connecting edges survived in *both* graphs, so noisy regions
    // stall unmatched even when their nodes have clean one-to-one
    // counterparts. Re-anchor the residue directly — evaluate the
    // index conditions exactly against still-unmatched db nodes,
    // resolve one-to-one with the committed pairs as conservation
    // evidence — and grow again until a fixpoint. Candidates come from
    // the db's per-graph label buckets, built once per graph.
    let buckets = db.label_buckets(graph_id);
    loop {
        let mut t_taken = vec![false; target.node_count()];
        let mut q_taken = vec![false; query.node_count()];
        for p in &m.pairs {
            q_taken[p.query.idx()] = true;
            t_taken[p.target.idx()] = true;
        }
        let residual: Vec<NodeId> = query.nodes().filter(|n| !q_taken[n.idx()]).collect();
        if residual.is_empty() {
            break;
        }
        let mut rhits: Vec<(usize, u32, f64)> = Vec::new();
        for (qi, &q) in residual.iter().enumerate() {
            for &t in buckets.nodes(q_label(q)) {
                if t_taken[t.idx()] {
                    continue;
                }
                if let Some(w) = scorer.quality(&input, &grow_cfg, q, t) {
                    rhits.push((qi, t.0, w));
                }
            }
        }
        if rhits.is_empty() {
            break;
        }
        let fixed: Vec<(NodeId, NodeId)> = m.pairs.iter().map(|p| (p.query, p.target)).collect();
        let extra = resolve_anchors(query, target, &residual, &rhits, &fixed, opts);
        if extra.is_empty() {
            break;
        }
        let mut seeds: Vec<Anchor> = m
            .pairs
            .iter()
            .map(|p| Anchor {
                query: p.query,
                target: p.target,
                quality: p.quality,
            })
            .collect();
        seeds.extend(extra);
        let grown = grow_match_with(&input, &grow_cfg, &seeds, &mut scorer);
        if grown.matched_nodes() <= m.matched_nodes() {
            break;
        }
        m = grown;
    }
    let ctx = MatchContext {
        query,
        target,
        m: &m,
    };
    let score = opts.similarity.score(&ctx);
    let matched_nodes = m.matched_nodes();
    let matched_edges = m.matched_edges(query, target);
    Some(QueryMatch {
        graph: graph_id,
        graph_name: db.name(graph_id).to_owned(),
        m,
        score,
        matched_nodes,
        matched_edges,
    })
}
