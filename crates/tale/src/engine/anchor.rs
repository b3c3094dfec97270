//! The anchor stage: resolve many-to-many index hits into one-to-one
//! anchors (§V, step 1c).

use crate::params::QueryOptions;
use tale_graph::{Graph, NodeId};
use tale_matching::bipartite::{greedy_matching, max_weight_matching, WeightedEdge};
use tale_matching::grow::Anchor;

/// Resolves many-to-many index hits into one-to-one anchors via
/// maximum-weight bipartite matching (Hungarian, or greedy when the
/// instance is large / the ablation asks for it). `hits` pairs indexes
/// into `important` with db node ids and Eq. IV.5 qualities; `fixed`
/// carries already-committed pairs whose conservation evidence steers the
/// refinement during residual re-anchoring.
pub(crate) fn resolve_anchors(
    query: &Graph,
    target: &Graph,
    important: &[NodeId],
    hits: &[(usize, u32, f64)],
    fixed: &[(NodeId, NodeId)],
    opts: &QueryOptions,
) -> Vec<Anchor> {
    // Dense right-side ids for the db nodes that appear, numbered by first
    // appearance.
    let mut right_of: Vec<u32> = vec![u32::MAX; target.node_count()];
    let mut right_nodes: Vec<u32> = Vec::new();
    let mut edges: Vec<WeightedEdge> = Vec::with_capacity(hits.len());
    for &(qi, dbn, w) in hits {
        let slot = &mut right_of[dbn as usize];
        if *slot == u32::MAX {
            *slot = right_nodes.len() as u32;
            right_nodes.push(dbn);
        }
        edges.push((qi, *slot as usize, w));
    }
    let n_left = important.len();
    let n_right = right_nodes.len();
    // Hungarian is O(max(nl,nr)^3); past a few thousand candidates the
    // greedy 1/2-approximation is the practical choice.
    const HUNGARIAN_LIMIT: usize = 2000;
    let mut assignment = if opts.greedy_anchors || n_left.max(n_right) > HUNGARIAN_LIMIT {
        greedy_matching(n_left, n_right, &edges)
    } else {
        max_weight_matching(n_left, n_right, &edges)
    };
    let best_w = BestWeights::new(n_left, &edges);
    refine_assignment(
        query,
        target,
        important,
        &right_nodes,
        &best_w,
        fixed,
        &mut assignment,
    );
    assignment
        .into_iter()
        .enumerate()
        .filter_map(|(qi, r)| {
            r.map(|r| Anchor {
                query: important[qi],
                target: NodeId(right_nodes[r]),
                quality: best_w.get(qi, r).unwrap_or(0.0),
            })
        })
        .collect()
}

/// Each left node's best hit quality per right node: for every `(l, r)`
/// with at least one hit, the largest of its qualities floored at 0.0.
/// Stored as one right-ascending `(right, quality)` row per left node;
/// a row's right nodes are that node's refinement candidates.
struct BestWeights {
    /// Row `l` is `entries[start[l]..start[l + 1]]`.
    start: Vec<usize>,
    entries: Vec<(usize, f64)>,
}

impl BestWeights {
    fn new(n_left: usize, edges: &[WeightedEdge]) -> Self {
        let mut sorted = edges.to_vec();
        sorted.sort_unstable_by_key(|&(l, r, _)| (l, r));
        let mut start = vec![0; n_left + 1];
        let mut entries: Vec<(usize, f64)> = Vec::with_capacity(sorted.len());
        let mut last = None;
        for &(l, r, w) in &sorted {
            if last != Some((l, r)) {
                last = Some((l, r));
                start[l + 1] = entries.len() + 1;
                entries.push((r, 0.0));
            }
            let best = &mut entries.last_mut().expect("pushed above").1;
            if w > *best {
                *best = w;
            }
        }
        // rows of left nodes without hits are empty
        for l in 0..n_left {
            start[l + 1] = start[l + 1].max(start[l]);
        }
        BestWeights { start, entries }
    }

    /// Left node `l`'s `(right, quality)` row, ascending by right.
    fn row(&self, l: usize) -> &[(usize, f64)] {
        &self.entries[self.start[l]..self.start[l + 1]]
    }

    /// Best quality of `(l, r)`; `None` without a hit.
    fn get(&self, l: usize, r: usize) -> Option<f64> {
        let row = self.row(l);
        row.binary_search_by_key(&r, |&(r, _)| r)
            .ok()
            .map(|i| row[i].1)
    }

    /// [`get`](Self::get) for a pair known to have a hit.
    fn at(&self, l: usize, r: usize) -> f64 {
        self.get(l, r).expect("candidate pair has a hit")
    }
}

/// Conservation-aware refinement of the anchor assignment.
///
/// Eq. IV.5 quality ties are common — any db node whose neighborhood
/// dominates the query node's scores the same perfect 2.0 as the true
/// counterpart — and the bipartite matching picks arbitrarily among tied
/// optima. Ties must be settled *globally*: once growth commits a wrong
/// anchor (or two anchors swap each other's counterparts) the one-to-one
/// invariant blocks any later repair. So, keeping the total weight optimal,
/// greedily apply single reassignments (to an unused candidate of no lower
/// quality) and pairwise target swaps (of no lower summed quality) while
/// they strictly increase the number of query edges conserved between
/// anchored pairs (and into `fixed` pairs).
///
/// A move is judged on that *global* count. A single move changes only
/// the moved node's edges, so its local count is the global change. A pair
/// move's two local counts each include the query edges between the two
/// moved nodes, so those are subtracted from both the before and the after
/// sum; judged on the plain local sums, a move could trade one conserved
/// edge elsewhere for a double-counted edge between the pair, and two such
/// moves could undo each other forever. Each accepted move thus raises an
/// integer bounded by the query's edge count, so the loop terminates;
/// fixed iteration order keeps it deterministic.
fn refine_assignment(
    query: &Graph,
    target: &Graph,
    important: &[NodeId],
    right_nodes: &[u32],
    w: &BestWeights,
    fixed: &[(NodeId, NodeId)],
    assignment: &mut [Option<usize>],
) {
    let nl = assignment.len();
    // Query adjacency restricted to anchored (important) nodes, with edge
    // direction preserved: adj[li] = (lj, li-is-source). Query edges into
    // `fixed` pairs (an already-committed match being extended by residual
    // re-anchoring) conserve against those pairs' pinned images instead.
    let mut left_of: Vec<Option<usize>> = vec![None; query.node_count()];
    for (li, q) in important.iter().enumerate() {
        left_of[q.idx()] = Some(li);
    }
    let mut fixed_of: Vec<Option<NodeId>> = vec![None; query.node_count()];
    for &(q, t) in fixed {
        fixed_of[q.idx()] = Some(t);
    }
    let mut adj: Vec<Vec<(usize, bool)>> = vec![Vec::new(); nl];
    let mut fixed_adj: Vec<Vec<(NodeId, bool)>> = vec![Vec::new(); nl];
    for (u, v, _) in query.edges() {
        match (left_of[u.idx()], left_of[v.idx()]) {
            (Some(lu), Some(lv)) => {
                adj[lu].push((lv, true));
                adj[lv].push((lu, false));
            }
            (Some(lu), None) => {
                if let Some(tv) = fixed_of[v.idx()] {
                    fixed_adj[lu].push((tv, true));
                }
            }
            (None, Some(lv)) => {
                if let Some(tu) = fixed_of[u.idx()] {
                    fixed_adj[lv].push((tu, false));
                }
            }
            (None, None) => {}
        }
    }
    let mut owner: Vec<Option<usize>> = vec![None; right_nodes.len()];
    for (li, a) in assignment.iter().enumerate() {
        if let Some(r) = *a {
            owner[r] = Some(li);
        }
    }
    // Query edges from `li` (mapped to right node `r`) conserved in the
    // target under the current assignment of the other endpoints.
    let conserved = |assignment: &[Option<usize>], li: usize, r: usize| -> usize {
        let tn = NodeId(right_nodes[r]);
        adj[li]
            .iter()
            .filter(|&&(lj, out)| {
                assignment[lj].is_some_and(|rj| {
                    let tj = NodeId(right_nodes[rj]);
                    if out {
                        target.has_edge(tn, tj)
                    } else {
                        target.has_edge(tj, tn)
                    }
                })
            })
            .count()
            + fixed_adj[li]
                .iter()
                .filter(|&&(tj, out)| {
                    if out {
                        target.has_edge(tn, tj)
                    } else {
                        target.has_edge(tj, tn)
                    }
                })
                .count()
    };
    // Query edges between `li` (mapped to `ri`) and `lj` (mapped to `rj`)
    // conserved in the target: the share of `conserved(li, ri)` that
    // `conserved(lj, rj)` counts as well.
    let mutual = |li: usize, ri: usize, lj: usize, rj: usize| -> usize {
        let (ti, tj) = (NodeId(right_nodes[ri]), NodeId(right_nodes[rj]));
        adj[li]
            .iter()
            .filter(|&&(l, out)| {
                l == lj
                    && if out {
                        target.has_edge(ti, tj)
                    } else {
                        target.has_edge(tj, ti)
                    }
            })
            .count()
    };
    const EPS: f64 = 1e-9;
    loop {
        let mut improved = false;
        // Single moves to an unused candidate of no lower quality.
        for li in 0..nl {
            let Some(cur) = assignment[li] else { continue };
            let cur_w = w.get(li, cur).unwrap_or(0.0);
            let cur_c = conserved(assignment, li, cur);
            let mut best: Option<(usize, usize)> = None; // (conserved, right)
            for &(r, wr) in w.row(li) {
                if r == cur || owner[r].is_some() {
                    continue;
                }
                if wr < cur_w - EPS {
                    continue;
                }
                let c = conserved(assignment, li, r);
                if c > cur_c && !best.is_some_and(|(bc, _)| c <= bc) {
                    best = Some((c, r));
                }
            }
            if let Some((_, r)) = best {
                owner[cur] = None;
                owner[r] = Some(li);
                assignment[li] = Some(r);
                improved = true;
            }
        }
        // Length-2 chains of no lower summed quality: `li` takes one of its
        // candidates `rj` from its owner `lj`, while `lj` falls back to
        // `li`'s old target (a plain swap) or to an unused candidate of its
        // own (an augmenting rotation — needed when a tangle's repair
        // passes through a conserved-neutral intermediate no single move
        // would take). Only (li, lj) pairs sharing a candidate are visited,
        // keeping the pass near-linear in the candidate-list total.
        for li in 0..nl {
            for &(rj, wij) in w.row(li) {
                let Some(ri) = assignment[li] else { break };
                let Some(lj) = owner[rj] else { continue };
                if lj == li {
                    continue;
                }
                let old_sum = w.at(li, ri) + w.at(lj, rj);
                let mut before = None;
                let others = w.row(lj).iter().map(|&(r, _)| r).filter(|&r| r != ri);
                for fb in std::iter::once(ri).chain(others) {
                    if fb != ri && (fb == rj || owner[fb].is_some()) {
                        continue;
                    }
                    let Some(wjf) = w.get(lj, fb) else {
                        continue;
                    };
                    if wij + wjf < old_sum - EPS {
                        continue;
                    }
                    let before = *before.get_or_insert_with(|| {
                        conserved(assignment, li, ri) + conserved(assignment, lj, rj)
                            - mutual(li, ri, lj, rj)
                    });
                    assignment[li] = Some(rj);
                    assignment[lj] = Some(fb);
                    let after = conserved(assignment, li, rj) + conserved(assignment, lj, fb)
                        - mutual(li, rj, lj, fb);
                    if after > before {
                        owner[ri] = None;
                        owner[rj] = Some(li);
                        owner[fb] = Some(lj);
                        improved = true;
                        break;
                    }
                    assignment[li] = Some(ri);
                    assignment[lj] = Some(rj);
                }
            }
        }
        if !improved {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;
    use tale_graph::generate::gnm;

    /// [`resolve_anchors`] over hash maps: best weights keyed by
    /// `(left, right)`, node maps keyed by raw id, candidates collected
    /// from the weight map's keys and sorted.
    fn reference_anchors(
        query: &Graph,
        target: &Graph,
        important: &[NodeId],
        hits: &[(usize, u32, f64)],
        fixed: &[(NodeId, NodeId)],
        opts: &QueryOptions,
    ) -> Vec<Anchor> {
        let mut right_of: HashMap<u32, usize> = HashMap::new();
        let mut right_nodes: Vec<u32> = Vec::new();
        let mut edges: Vec<WeightedEdge> = Vec::new();
        for &(qi, dbn, w) in hits {
            let r = *right_of.entry(dbn).or_insert_with(|| {
                right_nodes.push(dbn);
                right_nodes.len() - 1
            });
            edges.push((qi, r, w));
        }
        let (nl, nr) = (important.len(), right_nodes.len());
        let mut assignment = if opts.greedy_anchors || nl.max(nr) > 2000 {
            greedy_matching(nl, nr, &edges)
        } else {
            max_weight_matching(nl, nr, &edges)
        };
        let mut w: HashMap<(usize, usize), f64> = HashMap::new();
        for &(l, r, q) in &edges {
            let e = w.entry((l, r)).or_insert(0.0);
            if q > *e {
                *e = q;
            }
        }
        let left_of: HashMap<u32, usize> = important
            .iter()
            .enumerate()
            .map(|(li, q)| (q.0, li))
            .collect();
        let fixed_of: HashMap<u32, NodeId> = fixed.iter().map(|&(q, t)| (q.0, t)).collect();
        let mut adj: Vec<Vec<(usize, bool)>> = vec![Vec::new(); nl];
        let mut fixed_adj: Vec<Vec<(NodeId, bool)>> = vec![Vec::new(); nl];
        for (u, v, _) in query.edges() {
            match (left_of.get(&u.0), left_of.get(&v.0)) {
                (Some(&lu), Some(&lv)) => {
                    adj[lu].push((lv, true));
                    adj[lv].push((lu, false));
                }
                (Some(&lu), None) => {
                    if let Some(&tv) = fixed_of.get(&v.0) {
                        fixed_adj[lu].push((tv, true));
                    }
                }
                (None, Some(&lv)) => {
                    if let Some(&tu) = fixed_of.get(&u.0) {
                        fixed_adj[lv].push((tu, false));
                    }
                }
                (None, None) => {}
            }
        }
        let mut cands: Vec<Vec<usize>> = vec![Vec::new(); nl];
        for &(li, r) in w.keys() {
            cands[li].push(r);
        }
        for c in cands.iter_mut() {
            c.sort_unstable();
        }
        let mut owner: Vec<Option<usize>> = vec![None; nr];
        for (li, a) in assignment.iter().enumerate() {
            if let Some(r) = *a {
                owner[r] = Some(li);
            }
        }
        let edge = |a: NodeId, b: NodeId, out: bool| {
            if out {
                target.has_edge(a, b)
            } else {
                target.has_edge(b, a)
            }
        };
        let tn = |r: usize| NodeId(right_nodes[r]);
        let conserved = |asg: &[Option<usize>], li: usize, r: usize| -> usize {
            adj[li]
                .iter()
                .filter(|&&(lj, out)| asg[lj].is_some_and(|rj| edge(tn(r), tn(rj), out)))
                .count()
                + fixed_adj[li]
                    .iter()
                    .filter(|&&(tj, out)| edge(tn(r), tj, out))
                    .count()
        };
        let mutual = |li: usize, ri: usize, lj: usize, rj: usize| -> usize {
            adj[li]
                .iter()
                .filter(|&&(l, out)| l == lj && edge(tn(ri), tn(rj), out))
                .count()
        };
        const EPS: f64 = 1e-9;
        loop {
            let mut improved = false;
            for li in 0..nl {
                let Some(cur) = assignment[li] else { continue };
                let cur_w = w.get(&(li, cur)).copied().unwrap_or(0.0);
                let cur_c = conserved(&assignment, li, cur);
                let mut best: Option<(usize, usize)> = None;
                for &r in &cands[li] {
                    if r == cur || owner[r].is_some() || w[&(li, r)] < cur_w - EPS {
                        continue;
                    }
                    let c = conserved(&assignment, li, r);
                    if c > cur_c && !best.is_some_and(|(bc, _)| c <= bc) {
                        best = Some((c, r));
                    }
                }
                if let Some((_, r)) = best {
                    owner[cur] = None;
                    owner[r] = Some(li);
                    assignment[li] = Some(r);
                    improved = true;
                }
            }
            for li in 0..nl {
                for ci in 0..cands[li].len() {
                    let Some(ri) = assignment[li] else { break };
                    let rj = cands[li][ci];
                    let Some(lj) = owner[rj] else { continue };
                    if lj == li {
                        continue;
                    }
                    let wij = w[&(li, rj)];
                    let old_sum = w[&(li, ri)] + w[&(lj, rj)];
                    let mut before = None;
                    for &fb in std::iter::once(&ri).chain(cands[lj].iter().filter(|&&r| r != ri)) {
                        if fb != ri && (fb == rj || owner[fb].is_some()) {
                            continue;
                        }
                        let Some(&wjf) = w.get(&(lj, fb)) else {
                            continue;
                        };
                        if wij + wjf < old_sum - EPS {
                            continue;
                        }
                        let before = *before.get_or_insert_with(|| {
                            conserved(&assignment, li, ri) + conserved(&assignment, lj, rj)
                                - mutual(li, ri, lj, rj)
                        });
                        assignment[li] = Some(rj);
                        assignment[lj] = Some(fb);
                        let after = conserved(&assignment, li, rj) + conserved(&assignment, lj, fb)
                            - mutual(li, rj, lj, fb);
                        if after > before {
                            owner[ri] = None;
                            owner[rj] = Some(li);
                            owner[fb] = Some(lj);
                            improved = true;
                            break;
                        }
                        assignment[li] = Some(ri);
                        assignment[lj] = Some(rj);
                    }
                }
            }
            if !improved {
                break;
            }
        }
        assignment
            .into_iter()
            .enumerate()
            .filter_map(|(qi, r)| {
                r.map(|r| Anchor {
                    query: important[qi],
                    target: tn(r),
                    quality: w.get(&(qi, r)).copied().unwrap_or(0.0),
                })
            })
            .collect()
    }

    /// The dense weight rows and node maps resolve exactly like the hash
    /// map reference: on random hit sets with repeated (query node, db
    /// node) hits of different qualities (the best one counts, wherever
    /// it comes), zero-quality hits, many tied qualities (so refinement
    /// moves happen) and committed `fixed` pairs, under both matchers.
    #[test]
    fn dense_refinement_equals_hash_map_reference() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(17);
        let mut repeats_with_new_best = 0;
        for trial in 0..200 {
            let labels = rng.gen_range(1..4);
            let nq = rng.gen_range(2..30);
            let mq = nq + rng.gen_range(0..2 * nq);
            let query = gnm(&mut rng, nq, mq, labels);
            let nt = rng.gen_range(2..40);
            let mt = nt + rng.gen_range(0..2 * nt);
            let target = gnm(&mut rng, nt, mt, labels);
            let (mut important, mut fixed) = (Vec::new(), Vec::new());
            for q in query.nodes() {
                match rng.gen_range(0..4) {
                    0 => fixed.push((q, NodeId(rng.gen_range(0..nt as u32)))),
                    1 => {}
                    _ => important.push(q),
                }
            }
            let quality = |rng: &mut rand_chacha::ChaCha8Rng| rng.gen_range(0..5) as f64 / 2.0;
            let mut hits: Vec<(usize, u32, f64)> = Vec::new();
            for qi in 0..important.len() {
                for _ in 0..rng.gen_range(0..5) {
                    hits.push((qi, rng.gen_range(0..nt as u32), quality(&mut rng)));
                }
            }
            for _ in 0..rng.gen_range(0..hits.len() + 1) {
                let (qi, t, w) = hits[rng.gen_range(0..hits.len())];
                let again = quality(&mut rng);
                repeats_with_new_best += usize::from(again > w);
                hits.insert(rng.gen_range(0..hits.len() + 1), (qi, t, again));
            }
            if let Some(h) = hits.first_mut() {
                h.2 = 0.0;
            }
            let opts = QueryOptions {
                greedy_anchors: trial % 4 == 3,
                ..QueryOptions::default()
            };
            let got = resolve_anchors(&query, &target, &important, &hits, &fixed, &opts);
            let want = reference_anchors(&query, &target, &important, &hits, &fixed, &opts);
            assert_eq!(got, want, "trial {trial}");
        }
        assert!(repeats_with_new_best > 50, "{repeats_with_new_best}");
    }
}
