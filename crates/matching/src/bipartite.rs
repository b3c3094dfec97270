//! Maximum-weight bipartite matching.
//!
//! §V-B: "we use a maximum weighted bipartite graph matching algorithm
//! (using node match scores as weights) from the LEDA-R 3.2 library" to
//! turn many-to-many index hits into one-to-one anchor matches. LEDA is
//! proprietary, so [`max_weight_matching`] is a from-scratch Kuhn–Munkres
//! (Hungarian) implementation: O(n³) over the padded square matrix of each
//! connected component of the candidate graph, maximizing total weight,
//! leaving vertices unmatched rather than pairing them through absent
//! (weight-less) edges.
//!
//! [`greedy_matching`] is the obvious cheaper alternative (sort edges by
//! weight, take greedily); the `anchor_assignment` ablation bench compares
//! the two.

/// An edge in the bipartite candidate graph: `(left, right, weight)`.
/// Weights must be non-negative.
pub type WeightedEdge = (usize, usize, f64);

/// Maximum-weight bipartite matching via Kuhn–Munkres.
///
/// Returns, for each left vertex, the matched right vertex (or `None`).
/// Only pairs connected by an input edge are ever matched; total weight is
/// maximal over all matchings.
///
/// The candidate graph is solved one connected component at a time, and
/// each component only over the vertices that carry an edge: the optimum
/// of a disjoint union is the union of per-component optima, and the
/// Kuhn–Munkres core is O(n³) in its padded square size. Edge-less
/// vertices — e.g. query nodes without a single index hit — therefore cost
/// nothing, however many of them `n_left` / `n_right` count. Which of
/// several equal-weight optima comes back depends only on the edges.
///
/// ```
/// use tale_matching::bipartite::max_weight_matching;
/// // two query nodes, two candidates; the crossed assignment wins 2.5 > 2.0
/// let edges = [(0, 0, 2.0), (0, 1, 1.0), (1, 0, 1.5)];
/// assert_eq!(max_weight_matching(2, 2, &edges), vec![Some(1), Some(0)]);
/// ```
pub fn max_weight_matching(
    n_left: usize,
    n_right: usize,
    edges: &[WeightedEdge],
) -> Vec<Option<usize>> {
    let mut result = vec![None; n_left];
    if edges.is_empty() {
        return result;
    }
    // Union-find over left ids `0..n_left` and right ids `n_left..`.
    let mut uf: Vec<usize> = (0..n_left + n_right).collect();
    fn find(uf: &mut [usize], x: usize) -> usize {
        let mut root = x;
        while uf[root] != root {
            root = uf[root];
        }
        let mut cur = x;
        while uf[cur] != root {
            let next = uf[cur];
            uf[cur] = root;
            cur = next;
        }
        root
    }
    for &(l, r, _) in edges {
        let (a, b) = (find(&mut uf, l), find(&mut uf, n_left + r));
        uf[a] = b;
    }
    // Edges grouped by component (stable within a component).
    let mut by_comp: Vec<(usize, usize)> = edges
        .iter()
        .enumerate()
        .map(|(i, &(l, _, _))| (find(&mut uf, l), i))
        .collect();
    by_comp.sort_unstable();
    let mut lefts: Vec<usize> = Vec::new();
    let mut rights: Vec<usize> = Vec::new();
    let mut local: Vec<WeightedEdge> = Vec::new();
    let mut start = 0;
    while start < by_comp.len() {
        let root = by_comp[start].0;
        let end = start + by_comp[start..].iter().take_while(|c| c.0 == root).count();
        let comp = &by_comp[start..end];
        start = end;
        // local dense ids, in ascending global order for determinism
        lefts.clear();
        rights.clear();
        lefts.extend(comp.iter().map(|&(_, i)| edges[i].0));
        rights.extend(comp.iter().map(|&(_, i)| edges[i].1));
        lefts.sort_unstable();
        lefts.dedup();
        rights.sort_unstable();
        rights.dedup();
        local.clear();
        local.extend(comp.iter().map(|&(_, i)| {
            let (l, r, w) = edges[i];
            (
                lefts.binary_search(&l).unwrap(),
                rights.binary_search(&r).unwrap(),
                w,
            )
        }));
        for (li, m) in hungarian_dense(lefts.len(), rights.len(), &local)
            .into_iter()
            .enumerate()
        {
            if let Some(ri) = m {
                result[lefts[li]] = Some(rights[ri]);
            }
        }
    }
    result
}

/// The Kuhn–Munkres core on one (dense-ish) instance.
fn hungarian_dense(n_left: usize, n_right: usize, edges: &[WeightedEdge]) -> Vec<Option<usize>> {
    // Pad to a square matrix. Which cells carry *real* edges is tracked
    // separately from the weights: a legitimate weight-0.0 edge must stay
    // distinguishable from padding (the query pipeline produces exact
    // zeros when the surplus tie-break clamps at 0), so presence — not a
    // weight sentinel — decides what the extraction below may return.
    let n = n_left.max(n_right);
    let mut w = vec![vec![0.0f64; n + 1]; n + 1]; // 1-based
    let mut present = vec![vec![false; n + 1]; n + 1];
    for &(l, r, weight) in edges {
        debug_assert!(l < n_left && r < n_right, "edge endpoint out of range");
        debug_assert!(weight >= 0.0, "weights must be non-negative");
        // keep the best parallel edge
        if weight > w[l + 1][r + 1] || !present[l + 1][r + 1] {
            w[l + 1][r + 1] = w[l + 1][r + 1].max(weight);
            present[l + 1][r + 1] = true;
        }
    }

    // Hungarian algorithm (potentials + augmenting paths), maximization
    // form: run minimization on negated weights. Absent cells cost a hair
    // *above* zero so the assignment prefers routing through real edges —
    // including real zero-weight ones — whenever total weight ties. The
    // penalty is far below any meaningful weight difference (≤ n·1e-9
    // total), so maximality of the matched weight is unaffected.
    const ABSENT_COST: f64 = 1e-9;
    let inf = f64::INFINITY;
    let mut u = vec![0.0f64; n + 1];
    let mut v = vec![0.0f64; n + 1];
    let mut p = vec![0usize; n + 1]; // p[j] = row matched to column j
    let mut way = vec![0usize; n + 1];
    let cost = |i: usize, j: usize| if present[i][j] { -w[i][j] } else { ABSENT_COST };
    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0usize;
        let mut minv = vec![inf; n + 1];
        let mut used = vec![false; n + 1];
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = inf;
            let mut j1 = 0usize;
            for j in 1..=n {
                if used[j] {
                    continue;
                }
                let cur = cost(i0, j) - u[i0] - v[j];
                if cur < minv[j] {
                    minv[j] = cur;
                    way[j] = j0;
                }
                if minv[j] < delta {
                    delta = minv[j];
                    j1 = j;
                }
            }
            for j in 0..=n {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }

    let mut result = vec![None; n_left];
    for j in 1..=n {
        let i = p[j];
        if i >= 1 && i <= n_left && j <= n_right && present[i][j] {
            result[i - 1] = Some(j - 1);
        }
    }
    result
}

/// Greedy matching: repeatedly take the heaviest remaining edge whose
/// endpoints are both free. 1/2-approximate, O(E log E). Ties are broken
/// by `(left, right)` ids for determinism.
pub fn greedy_matching(
    n_left: usize,
    n_right: usize,
    edges: &[WeightedEdge],
) -> Vec<Option<usize>> {
    let mut sorted: Vec<&WeightedEdge> = edges.iter().collect();
    sorted.sort_by(|a, b| {
        b.2.partial_cmp(&a.2)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
            .then(a.1.cmp(&b.1))
    });
    let mut result = vec![None; n_left];
    let mut right_used = vec![false; n_right];
    for &&(l, r, _) in &sorted {
        // Every input edge is a real candidate pair — zero-weight edges
        // included (the presence-vs-weight distinction matters here just
        // as in `max_weight_matching`).
        if result[l].is_none() && !right_used[r] {
            result[l] = Some(r);
            right_used[r] = true;
        }
    }
    result
}

/// Total weight of a matching against the defining edge set (max parallel
/// edge weight counts).
pub fn matching_weight(edges: &[WeightedEdge], matching: &[Option<usize>]) -> f64 {
    let mut best = std::collections::HashMap::new();
    for &(l, r, w) in edges {
        let e = best.entry((l, r)).or_insert(0.0f64);
        if w > *e {
            *e = w;
        }
    }
    matching
        .iter()
        .enumerate()
        .filter_map(|(l, r)| r.map(|r| best.get(&(l, r)).copied().unwrap_or(0.0)))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_valid(matching: &[Option<usize>], n_right: usize) {
        let mut used = vec![false; n_right];
        for r in matching.iter().flatten() {
            assert!(!used[*r], "right vertex matched twice");
            used[*r] = true;
        }
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(max_weight_matching(0, 5, &[]), Vec::<Option<usize>>::new());
        assert_eq!(max_weight_matching(3, 0, &[]), vec![None, None, None]);
        assert_eq!(max_weight_matching(2, 2, &[]), vec![None, None]);
    }

    #[test]
    fn single_edge() {
        let m = max_weight_matching(2, 2, &[(0, 1, 1.5)]);
        assert_eq!(m, vec![Some(1), None]);
    }

    #[test]
    fn prefers_heavier_total() {
        // l0-r0: 2, l0-r1: 1, l1-r0: 1.5 → best total = l0-r1 + l1-r0 = 2.5
        let edges = [(0, 0, 2.0), (0, 1, 1.0), (1, 0, 1.5)];
        let m = max_weight_matching(2, 2, &edges);
        assert_eq!(m, vec![Some(1), Some(0)]);
        assert!((matching_weight(&edges, &m) - 2.5).abs() < 1e-9);
    }

    #[test]
    fn greedy_here_is_suboptimal() {
        let edges = [(0, 0, 2.0), (0, 1, 1.0), (1, 0, 1.5)];
        let g = greedy_matching(2, 2, &edges);
        assert_eq!(g, vec![Some(0), None]); // takes the 2.0 edge, blocks l1
        assert!(matching_weight(&edges, &g) < 2.5);
    }

    #[test]
    fn rectangular_shapes() {
        // more rights than lefts
        let edges = [(0, 3, 1.0), (1, 1, 2.0)];
        let m = max_weight_matching(2, 5, &edges);
        assert_eq!(m, vec![Some(3), Some(1)]);
        // more lefts than rights
        let edges = [(0, 0, 1.0), (1, 0, 2.0), (2, 0, 3.0)];
        let m = max_weight_matching(3, 1, &edges);
        assert_eq!(m, vec![None, None, Some(0)]);
        assert_valid(&m, 1);
    }

    #[test]
    fn absent_edges_never_matched() {
        // square case where padding could sneak in a phantom pair
        let edges = [(0, 0, 5.0)];
        let m = max_weight_matching(3, 3, &edges);
        assert_eq!(m, vec![Some(0), None, None]);
    }

    #[test]
    fn parallel_edges_keep_best() {
        let edges = [(0, 0, 1.0), (0, 0, 3.0), (0, 0, 2.0)];
        let m = max_weight_matching(1, 1, &edges);
        assert_eq!(m, vec![Some(0)]);
        assert!((matching_weight(&edges, &m) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn zero_weight_edges_are_matchable() {
        // Regression: a weight-0.0 sentinel for absent cells made real
        // zero-weight edges indistinguishable from padding, so they could
        // never be matched. Presence tracking must let them through.
        let m = max_weight_matching(1, 1, &[(0, 0, 0.0)]);
        assert_eq!(m, vec![Some(0)]);
        // padded square: the real zero-weight edge still wins over phantoms
        let m = max_weight_matching(3, 3, &[(1, 2, 0.0)]);
        assert_eq!(m, vec![None, Some(2), None]);
        // mixed: the positive edge takes its pair, the zero edge still lands
        let m = max_weight_matching(2, 2, &[(0, 0, 2.0), (1, 1, 0.0)]);
        assert_eq!(m, vec![Some(0), Some(1)]);
        // greedy must accept zero-weight edges too
        let g = greedy_matching(2, 2, &[(0, 0, 2.0), (1, 1, 0.0)]);
        assert_eq!(g, vec![Some(0), Some(1)]);
    }

    #[test]
    fn zero_weight_parallel_edges() {
        // Parallel edges where one copy is exactly 0.0: the best copy is
        // kept and the pair stays matchable either way.
        let edges = [(0, 0, 0.0), (0, 0, 1.5), (0, 0, 0.0)];
        let m = max_weight_matching(1, 1, &edges);
        assert_eq!(m, vec![Some(0)]);
        assert!((matching_weight(&edges, &m) - 1.5).abs() < 1e-9);
        // all copies zero: still a real edge, still matched
        let edges = [(0, 0, 0.0), (0, 0, 0.0)];
        let m = max_weight_matching(1, 1, &edges);
        assert_eq!(m, vec![Some(0)]);
        assert_eq!(greedy_matching(1, 1, &edges), vec![Some(0)]);
    }

    #[test]
    fn zero_weight_does_not_displace_positive_total() {
        // The absent-cell penalty must stay far below real weight
        // differences: taking two zero-weight edges (cardinality 2) must
        // not beat one positive edge (cardinality 1) on total weight.
        let edges = [(0, 0, 0.5), (0, 1, 0.0), (1, 0, 0.0)];
        let m = max_weight_matching(2, 2, &edges);
        let total = matching_weight(&edges, &m);
        assert!((total - 0.5).abs() < 1e-6, "total {total}");
    }

    /// Brute-force optimal matching weight for small instances.
    fn brute_force(n_left: usize, n_right: usize, edges: &[WeightedEdge]) -> f64 {
        fn rec(l: usize, n_left: usize, used: &mut Vec<bool>, adj: &Vec<Vec<(usize, f64)>>) -> f64 {
            if l == n_left {
                return 0.0;
            }
            // skip l
            let mut best = rec(l + 1, n_left, used, adj);
            for &(r, w) in &adj[l] {
                if !used[r] {
                    used[r] = true;
                    best = best.max(w + rec(l + 1, n_left, used, adj));
                    used[r] = false;
                }
            }
            best
        }
        let mut adj = vec![Vec::new(); n_left];
        let mut best_pair = std::collections::HashMap::new();
        for &(l, r, w) in edges {
            let e = best_pair.entry((l, r)).or_insert(0.0f64);
            if w > *e {
                *e = w;
            }
        }
        for (&(l, r), &w) in &best_pair {
            adj[l].push((r, w));
        }
        let mut used = vec![false; n_right];
        rec(0, n_left, &mut used, &adj)
    }

    #[test]
    fn matches_brute_force_on_random_instances() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        for trial in 0..60 {
            let nl = rng.gen_range(1..6);
            let nr = rng.gen_range(1..6);
            let ne = rng.gen_range(0..nl * nr + 1);
            let edges: Vec<WeightedEdge> = (0..ne)
                .map(|_| {
                    (
                        rng.gen_range(0..nl),
                        rng.gen_range(0..nr),
                        (rng.gen_range(1..100) as f64) / 10.0,
                    )
                })
                .collect();
            let m = max_weight_matching(nl, nr, &edges);
            assert_valid(&m, nr);
            let got = matching_weight(&edges, &m);
            let want = brute_force(nl, nr, &edges);
            assert!(
                (got - want).abs() < 1e-6,
                "trial {trial}: got {got}, optimal {want}, edges {edges:?}"
            );
        }
    }

    /// Isolated rows and columns — query nodes without a hit, db nodes
    /// nobody hit — are invisible to the solve: appended or interleaved
    /// anywhere, they leave the real rows' assignment as it was, and that
    /// assignment stays optimal.
    #[test]
    fn isolated_vertices_do_not_change_the_assignment() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        // `n` real ids spread over `n + extra` slots, order preserved.
        fn spread(rng: &mut rand_chacha::ChaCha8Rng, n: usize, extra: usize) -> Vec<usize> {
            let mut real = vec![true; n];
            real.extend(std::iter::repeat(false).take(extra));
            for i in (1..real.len()).rev() {
                real.swap(i, rng.gen_range(0..=i));
            }
            real.iter()
                .enumerate()
                .filter_map(|(slot, &r)| r.then_some(slot))
                .collect()
        }
        for trial in 0..80 {
            let nl = rng.gen_range(1..7);
            let nr = rng.gen_range(1..7);
            let ne = rng.gen_range(1..nl * nr + 1);
            let edges: Vec<WeightedEdge> = (0..ne)
                .map(|_| {
                    (
                        rng.gen_range(0..nl),
                        rng.gen_range(0..nr),
                        // coarse weights: plenty of ties
                        rng.gen_range(0..4) as f64 / 2.0,
                    )
                })
                .collect();
            let base = max_weight_matching(nl, nr, &edges);
            let (xl, xr) = (rng.gen_range(0..120), rng.gen_range(0..120));
            let appended = rng.gen_bool(0.5);
            let (lmap, rmap) = if appended {
                ((0..nl).collect(), (0..nr).collect())
            } else {
                (spread(&mut rng, nl, xl), spread(&mut rng, nr, xr))
            };
            let padded: Vec<WeightedEdge> = edges
                .iter()
                .map(|&(l, r, w)| (lmap[l], rmap[r], w))
                .collect();
            let m = max_weight_matching(nl + xl, nr + xr, &padded);
            assert_valid(&m, nr + xr);
            for (l, &slot) in lmap.iter().enumerate() {
                assert_eq!(
                    m[slot],
                    base[l].map(|r| rmap[r]),
                    "trial {trial} (appended {appended}): row {l} moved, edges {edges:?}"
                );
            }
            assert!((0..nl + xl)
                .filter(|slot| !lmap.contains(slot))
                .all(|slot| m[slot].is_none()));
            let got = matching_weight(&padded, &m);
            let want = brute_force(nl, nr, &edges);
            assert!(
                (got - want).abs() < 1e-6,
                "trial {trial}: got {got}, optimal {want}"
            );
        }
    }

    #[test]
    fn greedy_is_half_approximate_on_random() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(6);
        for _ in 0..30 {
            let nl = rng.gen_range(1..8);
            let nr = rng.gen_range(1..8);
            let ne = rng.gen_range(0..nl * nr + 1);
            let edges: Vec<WeightedEdge> = (0..ne)
                .map(|_| {
                    (
                        rng.gen_range(0..nl),
                        rng.gen_range(0..nr),
                        (rng.gen_range(1..100) as f64) / 10.0,
                    )
                })
                .collect();
            let g = greedy_matching(nl, nr, &edges);
            assert_valid(&g, nr);
            let opt = matching_weight(&edges, &max_weight_matching(nl, nr, &edges));
            let got = matching_weight(&edges, &g);
            assert!(got * 2.0 + 1e-9 >= opt, "greedy below 1/2: {got} vs {opt}");
        }
    }
}
