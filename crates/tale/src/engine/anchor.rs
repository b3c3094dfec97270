//! The anchor stage: resolve many-to-many index hits into one-to-one
//! anchors (§V, step 1c).

use crate::params::QueryOptions;
use std::collections::HashMap;
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
    // Dense right-side ids for the db nodes that appear.
    let mut right_of: HashMap<u32, usize> = HashMap::new();
    let mut right_nodes: Vec<u32> = Vec::new();
    let mut edges: Vec<WeightedEdge> = Vec::with_capacity(hits.len());
    for &(qi, dbn, w) in hits {
        let r = *right_of.entry(dbn).or_insert_with(|| {
            right_nodes.push(dbn);
            right_nodes.len() - 1
        });
        edges.push((qi, r, w));
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
    let mut best_w: HashMap<(usize, usize), f64> = HashMap::new();
    for &(l, r, w) in &edges {
        let e = best_w.entry((l, r)).or_insert(0.0);
        if w > *e {
            *e = w;
        }
    }
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
                quality: best_w.get(&(qi, r)).copied().unwrap_or(0.0),
            })
        })
        .collect()
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
    w: &HashMap<(usize, usize), f64>,
    fixed: &[(NodeId, NodeId)],
    assignment: &mut [Option<usize>],
) {
    let nl = assignment.len();
    // Query adjacency restricted to anchored (important) nodes, with edge
    // direction preserved: adj[li] = (lj, li-is-source). Query edges into
    // `fixed` pairs (an already-committed match being extended by residual
    // re-anchoring) conserve against those pairs' pinned images instead.
    let mut left_of: HashMap<u32, usize> = HashMap::new();
    for (li, q) in important.iter().enumerate() {
        left_of.insert(q.0, li);
    }
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
            let cur_w = w.get(&(li, cur)).copied().unwrap_or(0.0);
            let cur_c = conserved(assignment, li, cur);
            let mut best: Option<(usize, usize)> = None; // (conserved, right)
            for &r in &cands[li] {
                if r == cur || owner[r].is_some() {
                    continue;
                }
                if w[&(li, r)] < cur_w - EPS {
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
