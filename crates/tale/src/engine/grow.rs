//! The grow stage: the per-candidate-graph match driver (§V, step 2).
//!
//! One call = one candidate database graph: resolve the probe hits into
//! one-to-one anchors, grow the match (Algorithms 2–4), then iteratively
//! re-anchor the still-unmatched residue until a fixpoint, and score the
//! result under the query's similarity model. A residual round whose
//! match only grew reuses the previous round's candidate pairs instead of
//! rescanning them (`ResidualHits::next`). Pure with respect to its
//! inputs, which is what lets [`exec`](crate::engine::exec) fan calls out
//! across threads with bit-identical results.

use crate::engine::anchor::resolve_anchors;
use crate::params::QueryOptions;
use crate::result::QueryMatch;
use tale_graph::{Graph, GraphDb, GraphId, LabelBuckets, NodeId, SignatureTable};
use tale_matching::grow::{
    grow_match_with, Anchor, CandidateScorer, GraphMatch, GrowConfig, GrowInput,
};
use tale_matching::similarity::MatchContext;

/// Matches one query against one candidate graph. `hits` is the graph's
/// probe bucket: `(important-node index, db node id, Eq. IV.5 quality)`;
/// `q_sigs` is the query's [`SignatureTable`] under the db's effective
/// labels, built once per query by the caller.
/// Returns `None` when no anchor sticks or growth matches nothing.
pub(crate) fn match_one_graph(
    db: &GraphDb,
    query: &Graph,
    q_sigs: &SignatureTable,
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
    // = `db.effective_label(graph_id, n)`, without looking the graph up
    // again on every call of the growth loops
    let t_label = |n: NodeId| db.effective_of_raw(target.label(n));
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
    // One scorer for every growth and residual scan of this pair, over the
    // query's and the db graph's prebuilt signature tables.
    let mut scorer = CandidateScorer::with_signatures(&input, q_sigs, db.signatures(graph_id));
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
    let mut prev: Option<ResidualHits> = None;
    loop {
        let round = ResidualHits::next(prev, &m, &input, &grow_cfg, buckets, &mut scorer);
        if round.hits.is_empty() {
            break;
        }
        let (residual, rhits) = round.anchor_input();
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
        prev = Some(round);
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

/// One residual round's candidates: every (unmatched query node, untaken
/// target node) pair that passes IV.1–IV.4, with its Eq. IV.5 quality, in
/// scan order — query nodes ascending, each against its label bucket
/// ascending. That order numbers the Hungarian instance's right-hand nodes
/// (by first appearance), so it decides tie-breaks and is part of the
/// answer.
#[derive(Debug, Clone, PartialEq)]
struct ResidualHits {
    q_taken: Vec<bool>,
    t_taken: Vec<bool>,
    hits: Vec<(NodeId, NodeId, f64)>,
}

impl ResidualHits {
    /// The round after `prev` (the first when `None`) for committed match
    /// `m`. A pair's quality does not depend on the match, so when the
    /// committed query and target sets only grew since `prev`, this round's
    /// hits are `prev`'s minus the pairs that touch a now-taken node, in the
    /// same order. Otherwise — a re-grow may `replace` a seed and free a
    /// node — the buckets are scanned afresh.
    fn next(
        prev: Option<ResidualHits>,
        m: &GraphMatch,
        input: &GrowInput<'_>,
        cfg: &GrowConfig,
        buckets: &LabelBuckets,
        scorer: &mut CandidateScorer<'_>,
    ) -> ResidualHits {
        let mut q_taken = vec![false; input.query.node_count()];
        let mut t_taken = vec![false; input.target.node_count()];
        for p in &m.pairs {
            q_taken[p.query.idx()] = true;
            t_taken[p.target.idx()] = true;
        }
        let hits = match prev {
            Some(prev)
                if only_grew(&prev.q_taken, &q_taken) && only_grew(&prev.t_taken, &t_taken) =>
            {
                let mut hits = prev.hits;
                hits.retain(|&(q, t, _)| !q_taken[q.idx()] && !t_taken[t.idx()]);
                hits
            }
            _ => {
                let mut hits = Vec::new();
                for q in input.query.nodes().filter(|q| !q_taken[q.idx()]) {
                    for &t in buckets.nodes((input.q_label)(q)) {
                        if t_taken[t.idx()] {
                            continue;
                        }
                        if let Some(w) = scorer.quality(input, cfg, q, t) {
                            hits.push((q, t, w));
                        }
                    }
                }
                hits
            }
        };
        ResidualHits {
            q_taken,
            t_taken,
            hits,
        }
    }

    /// The anchor stage's view: the unmatched query nodes, ascending, and
    /// the hits keyed by position in that list.
    fn anchor_input(&self) -> (Vec<NodeId>, Vec<(usize, u32, f64)>) {
        let residual: Vec<NodeId> = (0..self.q_taken.len() as u32)
            .map(NodeId)
            .filter(|q| !self.q_taken[q.idx()])
            .collect();
        let mut pos = vec![usize::MAX; self.q_taken.len()];
        for (i, q) in residual.iter().enumerate() {
            pos[q.idx()] = i;
        }
        let rhits = self
            .hits
            .iter()
            .map(|&(q, t, w)| (pos[q.idx()], t.0, w))
            .collect();
        (residual, rhits)
    }
}

/// True when every node taken `before` is still taken `after`.
fn only_grew(before: &[bool], after: &[bool]) -> bool {
    before.iter().zip(after).all(|(&b, &a)| a || !b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use tale_graph::generate::{gnm, mutate, MutationRates};
    use tale_matching::grow::MatchPair;

    /// Round reuse hands the anchor stage exactly what a full rescan
    /// would, in the same order: over a match that only grows (prefixes
    /// of a grown match, each round reusing the last), and after a re-grow
    /// that replaced a seed's target, where the freed node forces a
    /// rescan.
    #[test]
    fn reused_residual_hits_equal_a_rescan() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let mut stale_differs = false;
        for trial in 0..30 {
            let labels = rng.gen_range(2..6);
            let n = rng.gen_range(10..50);
            let m = n + rng.gen_range(0..2 * n);
            let q = gnm(&mut rng, n, m, labels);
            let (t, _) = mutate(&mut rng, &q, &MutationRates::mild(), labels);
            let mut db = GraphDb::new();
            let gid = db.insert("t", t);
            let t = db.graph(gid);
            let q_label = |v: NodeId| db.effective_of_raw(q.label(v));
            let t_label = |v: NodeId| db.effective_label(gid, v);
            let input = GrowInput {
                query: &q,
                target: t,
                q_label: &q_label,
                t_label: &t_label,
            };
            let cfg = GrowConfig {
                rho: [0.0, 0.25, 0.5][trial % 3],
                hops: 2,
                match_edge_labels: false,
            };
            let buckets = db.label_buckets(gid);
            let mut scorer = CandidateScorer::new(&input);
            let anchors: Vec<Anchor> = (0..3)
                .map(|_| Anchor {
                    query: NodeId(rng.gen_range(0..q.node_count() as u32)),
                    target: NodeId(rng.gen_range(0..t.node_count() as u32)),
                    quality: 2.0,
                })
                .collect();
            let grown = grow_match_with(&input, &cfg, &anchors, &mut scorer);
            let mut next = |prev: Option<ResidualHits>, pairs: &[MatchPair]| {
                let m = GraphMatch {
                    pairs: pairs.to_vec(),
                };
                ResidualHits::next(prev, &m, &input, &cfg, buckets, &mut scorer)
            };

            // the match only grows: every round after the first reuses
            let mut prev = next(None, &[]);
            for k in 1..=grown.pairs.len() {
                let reused = next(Some(prev.clone()), &grown.pairs[..k]);
                assert!(only_grew(&prev.q_taken, &reused.q_taken));
                assert!(only_grew(&prev.t_taken, &reused.t_taken));
                let rescanned = next(None, &grown.pairs[..k]);
                assert_eq!(reused, rescanned, "trial {trial} prefix {k}");
                prev = reused;
            }

            // a re-grow replaced a seed: its old target is free again
            let Some(first) = grown.pairs.first().copied() else {
                continue;
            };
            let Some(&other) = buckets
                .nodes(t_label(first.target))
                .iter()
                .find(|&&x| !prev.t_taken[x.idx()])
            else {
                continue;
            };
            let mut replaced = grown.pairs.clone();
            replaced[0].target = other;
            let after = next(Some(prev.clone()), &replaced);
            assert!(!only_grew(&prev.t_taken, &after.t_taken));
            assert_eq!(after, next(None, &replaced), "trial {trial} replaced");
            // filtering the stale hits instead would miss the freed node
            let mut stale = prev.hits.clone();
            stale.retain(|&(q, t, _)| !after.q_taken[q.idx()] && !after.t_taken[t.idx()]);
            stale_differs |= stale != after.hits;
        }
        assert!(stale_differs, "no trial freed a node with residual hits");
    }
}
