//! The grow stage: the per-candidate-graph match driver (§V, step 2).
//!
//! One call = one candidate database graph: resolve the probe hits into
//! one-to-one anchors, grow the match (Algorithms 2–4), then iteratively
//! re-anchor the still-unmatched residue until a fixpoint, and score the
//! result under the query's similarity model. One [`CandidateScorer`]
//! serves the whole call: its candidate relation — every (query node,
//! same-label target node) pair that passes IV.1–IV.4, scored once —
//! drives every growth, and each residual round's candidates are that
//! relation filtered by the nodes still free (`ResidualHits::new`). Pure
//! with respect to its inputs, which is what lets
//! [`exec`](crate::engine::exec) fan calls out across threads with
//! bit-identical results.

use crate::engine::anchor::resolve_anchors;
use crate::params::QueryOptions;
use crate::result::QueryMatch;
use tale_graph::{Graph, GraphDb, GraphId, NodeId, SignatureTable};
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
    // query's and the db graph's prebuilt signature tables and the db's
    // per-graph label buckets.
    let mut scorer = CandidateScorer::with_tables(
        &input,
        q_sigs,
        db.signatures(graph_id),
        db.label_buckets(graph_id),
    );
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
    // the scorer's candidate relation.
    loop {
        let round = ResidualHits::new(&m, &input, &grow_cfg, &mut scorer);
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
/// target node) pair of the candidate relation, with its Eq. IV.5 quality,
/// in scan order — query nodes ascending, each against its relation row
/// (its label bucket's order, ascending). That order numbers the Hungarian
/// instance's right-hand nodes (by first appearance), so it decides
/// tie-breaks and is part of the answer.
struct ResidualHits {
    q_taken: Vec<bool>,
    hits: Vec<(NodeId, NodeId, f64)>,
}

impl ResidualHits {
    /// The round for committed match `m`.
    fn new(
        m: &GraphMatch,
        input: &GrowInput<'_>,
        cfg: &GrowConfig,
        scorer: &mut CandidateScorer<'_>,
    ) -> ResidualHits {
        let mut q_taken = vec![false; input.query.node_count()];
        let mut t_taken = vec![false; input.target.node_count()];
        for p in &m.pairs {
            q_taken[p.query.idx()] = true;
            t_taken[p.target.idx()] = true;
        }
        let mut hits = Vec::new();
        for q in input.query.nodes().filter(|q| !q_taken[q.idx()]) {
            let row = scorer.candidates(input, cfg, q);
            hits.extend(
                row.iter()
                    .filter(|&&(t, _)| !t_taken[t.idx()])
                    .map(|&(t, w)| (q, t, w)),
            );
        }
        ResidualHits { q_taken, hits }
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

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use tale_graph::generate::{gnm, mutate, MutationRates};
    use tale_graph::neighborhood::node_match_quality;
    use tale_matching::grow::MatchPair;

    /// IV.1–IV.4 and Eq. IV.5 of `nq → nt` straight from the definitions
    /// (neighbor labels only, as with `match_edge_labels` off) — no
    /// signature, bucket or candidate relation.
    fn naive_quality(input: &GrowInput<'_>, rho: f64, nq: NodeId, nt: NodeId) -> Option<f64> {
        use std::collections::BTreeSet;
        let labels = |g: &Graph, label_of: &dyn Fn(NodeId) -> u32, n: NodeId| {
            g.neighbors(n).map(label_of).collect::<BTreeSet<u32>>()
        };
        let t_labels = labels(input.target, input.t_label, nt);
        let misses = labels(input.query, input.q_label, nq)
            .difference(&t_labels)
            .count() as u32;
        let (q_deg, t_deg) = (
            input.query.degree(nq) as u32,
            input.target.degree(nt) as u32,
        );
        let (q_nbc, t_nbc) = (
            input.query.neighbor_connection(nq) as u32,
            input.target.neighbor_connection(nt) as u32,
        );
        let nbmiss = ((rho * q_deg as f64).floor() as u32).min(q_deg);
        let nbcmiss = nbmiss * nbmiss.saturating_sub(1) / 2 + (q_deg - nbmiss) * nbmiss;
        let ok = (input.q_label)(nq) == (input.t_label)(nt) // IV.1
            && t_deg + nbmiss >= q_deg // IV.2
            && misses <= nbmiss // IV.3
            && t_nbc + nbcmiss >= q_nbc; // IV.4
        ok.then(|| {
            node_match_quality(
                q_deg,
                q_nbc,
                misses.max(q_deg.saturating_sub(t_deg)),
                q_nbc.saturating_sub(t_nbc),
            )
        })
    }

    /// Each residual round hands the anchor stage exactly the pairs a
    /// naive scan finds — unmatched query nodes ascending, each against
    /// every target node ascending, untaken targets only, kept when
    /// [`naive_quality`] accepts — in the same order: for every prefix of a
    /// grown match, and after a re-grow that replaced a seed's target and
    /// so freed it again.
    #[test]
    fn residual_hits_equal_a_naive_scan() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let mut freed_hit = false;
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
            let q_sigs = SignatureTable::build(&q, q_label);
            let mut scorer =
                CandidateScorer::with_tables(&input, &q_sigs, db.signatures(gid), buckets);
            let anchors: Vec<Anchor> = (0..3)
                .map(|_| Anchor {
                    query: NodeId(rng.gen_range(0..q.node_count() as u32)),
                    target: NodeId(rng.gen_range(0..t.node_count() as u32)),
                    quality: 2.0,
                })
                .collect();
            let grown = grow_match_with(&input, &cfg, &anchors, &mut scorer);
            let mut round = |pairs: &[MatchPair]| {
                let m = GraphMatch {
                    pairs: pairs.to_vec(),
                };
                ResidualHits::new(&m, &input, &cfg, &mut scorer)
            };
            let naive = |pairs: &[MatchPair]| {
                let mut hits = Vec::new();
                for v in q.nodes().filter(|&v| pairs.iter().all(|p| p.query != v)) {
                    for x in t.nodes().filter(|&x| pairs.iter().all(|p| p.target != x)) {
                        if let Some(w) = naive_quality(&input, cfg.rho, v, x) {
                            hits.push((v, x, w));
                        }
                    }
                }
                hits
            };

            for k in 0..=grown.pairs.len() {
                let prefix = &grown.pairs[..k];
                let got = round(prefix);
                assert_eq!(got.hits, naive(prefix), "trial {trial} prefix {k}");
                for v in q.nodes() {
                    let taken = prefix.iter().any(|p| p.query == v);
                    assert_eq!(got.q_taken[v.idx()], taken, "trial {trial} prefix {k}");
                }
            }

            // a re-grow replaced a seed: its old target is free again
            let Some(first) = grown.pairs.first().copied() else {
                continue;
            };
            let Some(&other) = buckets
                .nodes(t_label(first.target))
                .iter()
                .find(|&&x| grown.pairs.iter().all(|p| p.target != x))
            else {
                continue;
            };
            let mut replaced = grown.pairs.clone();
            replaced[0].target = other;
            let after = round(&replaced);
            assert_eq!(after.hits, naive(&replaced), "trial {trial} replaced");
            freed_hit |= after.hits.iter().any(|&(_, x, _)| x == first.target);
        }
        assert!(freed_hit, "no trial freed a node with residual hits");
    }
}
