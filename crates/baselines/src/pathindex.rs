//! A GraphGrep-style path index for exact subgraph containment
//! (Shasha, Wang & Giugno, PODS 2002 — cited in §II).
//!
//! The classical filter-and-verify pipeline the paper's related work
//! contrasts TALE with: index all label-paths up to a length bound; a
//! query's paths prune the database (any graph missing a query path, or
//! holding fewer occurrences, cannot contain the query); survivors are
//! verified with Ullmann. Exact containment only — no approximation —
//! which is precisely the limitation motivating TALE (§I).

use crate::ullmann::find_embedding;
use std::collections::HashMap;
use tale_graph::{Graph, NodeId};

/// A canonical label-path feature: the lexicographically smaller of the
/// label sequence and its reverse (paths are undirected features).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PathFeature(Vec<u32>);

impl PathFeature {
    fn canonical(mut seq: Vec<u32>) -> PathFeature {
        let mut rev = seq.clone();
        rev.reverse();
        if rev < seq {
            seq = rev;
        }
        PathFeature(seq)
    }
}

/// Per-graph feature table: feature → occurrence count.
type FeatureCounts = HashMap<PathFeature, u32>;

/// Enumerates label-paths of `g` with up to `max_edges` edges (simple
/// paths, each counted once per direction-canonical occurrence).
fn path_features(g: &Graph, max_edges: usize) -> FeatureCounts {
    let mut counts: FeatureCounts = HashMap::new();
    // DFS from every node, tracking the visited set along the path
    fn dfs(
        g: &Graph,
        node: NodeId,
        labels: &mut Vec<u32>,
        on_path: &mut Vec<bool>,
        max_edges: usize,
        counts: &mut FeatureCounts,
    ) {
        if labels.len() > 1 {
            // record the path (canonical form counts each undirected
            // occurrence twice — once per direction — so halve implicitly
            // by only recording when the forward form is canonical, or
            // the path is a palindrome)
            let mut rev = labels.clone();
            rev.reverse();
            if *labels <= rev {
                *counts
                    .entry(PathFeature::canonical(labels.clone()))
                    .or_insert(0) += 1;
            }
        }
        if labels.len() > max_edges {
            return;
        }
        for nb in g.neighbors(node) {
            if !on_path[nb.idx()] {
                on_path[nb.idx()] = true;
                labels.push(g.label(nb).0);
                dfs(g, nb, labels, on_path, max_edges, counts);
                labels.pop();
                on_path[nb.idx()] = false;
            }
        }
    }
    let mut on_path = vec![false; g.node_count()];
    for n in g.nodes() {
        // single-node features
        *counts.entry(PathFeature(vec![g.label(n).0])).or_insert(0) += 1;
        on_path[n.idx()] = true;
        let mut labels = vec![g.label(n).0];
        dfs(g, n, &mut labels, &mut on_path, max_edges, &mut counts);
        on_path[n.idx()] = false;
    }
    counts
}

/// The path index over a set of graphs.
pub struct PathIndex {
    graphs: Vec<Graph>,
    tables: Vec<FeatureCounts>,
    max_edges: usize,
}

impl PathIndex {
    /// Indexes `graphs` with paths of up to `max_edges` edges (GraphGrep's
    /// `lp` parameter; 3 is a reasonable default).
    pub fn build(graphs: Vec<Graph>, max_edges: usize) -> PathIndex {
        let tables = graphs.iter().map(|g| path_features(g, max_edges)).collect();
        PathIndex {
            graphs,
            tables,
            max_edges,
        }
    }

    /// Number of indexed graphs.
    pub fn len(&self) -> usize {
        self.graphs.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.graphs.is_empty()
    }

    /// Filter step: graphs whose feature tables dominate the query's.
    /// Guaranteed superset of the true containment answer set.
    pub fn candidates(&self, query: &Graph) -> Vec<usize> {
        let q = path_features(query, self.max_edges);
        self.tables
            .iter()
            .enumerate()
            .filter(|(_, t)| q.iter().all(|(f, &c)| t.get(f).copied().unwrap_or(0) >= c))
            .map(|(i, _)| i)
            .collect()
    }

    /// Filter + verify: graphs that exactly contain `query` (subgraph
    /// isomorphism, matched by raw labels).
    pub fn exact_matches(&self, query: &Graph) -> Vec<usize> {
        self.candidates(query)
            .into_iter()
            .filter(|&i| {
                let target = &self.graphs[i];
                let ql = |n: NodeId| query.label(n).0;
                let tl = |n: NodeId| target.label(n).0;
                find_embedding(query, target, &ql, &tl).is_some()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use tale_graph::generate::gnm;
    use tale_graph::labels::NodeLabel;

    fn path_graph(labels: &[u32]) -> Graph {
        let mut g = Graph::new_undirected();
        let ids: Vec<_> = labels.iter().map(|&l| g.add_node(NodeLabel(l))).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1]).unwrap();
        }
        g
    }

    #[test]
    fn features_of_a_path() {
        let g = path_graph(&[0, 1, 2]);
        let f = path_features(&g, 3);
        // single nodes: [0],[1],[2]; edges: [0,1],[1,2]; path [0,1,2]
        assert_eq!(f.get(&PathFeature(vec![0])), Some(&1));
        assert_eq!(f.get(&PathFeature(vec![0, 1])), Some(&1));
        assert_eq!(f.get(&PathFeature(vec![0, 1, 2])), Some(&1));
        // reversed form canonicalizes onto the same feature
        assert_eq!(f.get(&PathFeature(vec![2, 1, 0])), None);
    }

    #[test]
    fn filter_is_sound_no_false_negatives() {
        // graphs that contain the query must always pass the filter
        let mut rng = ChaCha8Rng::seed_from_u64(81);
        for _ in 0..10 {
            let host = gnm(&mut rng, 30, 55, 4);
            // query = induced subgraph of host → certainly contained
            let nodes: Vec<NodeId> = host.nodes().take(8).collect();
            let (query, _) = host.induced_subgraph(&nodes);
            if query.edge_count() == 0 {
                continue;
            }
            let idx = PathIndex::build(vec![host], 3);
            assert_eq!(
                idx.candidates(&query),
                vec![0],
                "filter dropped a true host"
            );
        }
    }

    #[test]
    fn filter_prunes_label_mismatches() {
        let host = path_graph(&[0, 1, 2]);
        let other = path_graph(&[3, 4, 5]);
        let idx = PathIndex::build(vec![host, other], 3);
        let q = path_graph(&[0, 1]);
        assert_eq!(idx.candidates(&q), vec![0]);
    }

    #[test]
    fn exact_matches_verify() {
        // The filter alone can admit false positives; verification must
        // remove them. A triangle query vs a path host with the same
        // feature-ish content.
        let mut tri = Graph::new_undirected();
        let a = tri.add_node(NodeLabel(0));
        let b = tri.add_node(NodeLabel(0));
        let c = tri.add_node(NodeLabel(0));
        tri.add_edge(a, b).unwrap();
        tri.add_edge(b, c).unwrap();
        tri.add_edge(a, c).unwrap();
        let host_with = {
            let mut g = tri.clone();
            let d = g.add_node(NodeLabel(1));
            g.add_edge(a, d).unwrap();
            g
        };
        let host_without = path_graph(&[0, 0, 0, 0, 0, 0]); // paths only
        let idx = PathIndex::build(vec![host_with, host_without], 3);
        assert_eq!(idx.exact_matches(&tri), vec![0]);
    }

    #[test]
    fn pruning_power_on_random_db() {
        let mut rng = ChaCha8Rng::seed_from_u64(82);
        let mut graphs: Vec<Graph> = (0..30).map(|_| gnm(&mut rng, 25, 45, 6)).collect();
        // plant the query in graph 7
        let query = gnm(&mut rng, 6, 9, 6);
        {
            let host = &mut graphs[7];
            let base = host.node_count() as u32;
            for n in query.nodes() {
                host.add_node(query.label(n));
            }
            for (u, v, _) in query.edges() {
                host.add_edge(NodeId(base + u.0), NodeId(base + v.0))
                    .unwrap();
            }
        }
        let idx = PathIndex::build(graphs, 3);
        let cands = idx.candidates(&query);
        assert!(cands.contains(&7), "planted host pruned");
        assert!(
            cands.len() < 15,
            "filter should prune at least half the db: {cands:?}"
        );
        let exact = idx.exact_matches(&query);
        assert!(exact.contains(&7));
        assert!(exact.len() <= cands.len());
    }

    #[test]
    fn empty_and_degenerate() {
        let idx = PathIndex::build(Vec::new(), 3);
        assert!(idx.is_empty());
        let q = path_graph(&[0]);
        assert!(idx.candidates(&q).is_empty());
        // empty query matches everything (vacuous containment)
        let idx = PathIndex::build(vec![path_graph(&[0, 1])], 3);
        let empty = Graph::new_undirected();
        assert_eq!(idx.candidates(&empty), vec![0]);
        assert_eq!(idx.exact_matches(&empty), vec![0]);
    }
}
