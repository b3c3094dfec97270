//! Neighborhood statistics — the NH-Index indexing unit's raw material.
//!
//! §IV-A: "A neighborhood is defined as the induced subgraph of a node and
//! its neighbors." Three properties characterize it: the node's degree, the
//! *neighbor connection* (edge count among the neighbors), and the labels of
//! the neighbors. [`NeighborhoodStats`] computes all three in one pass so
//! index construction touches each adjacency list once. [`SignatureTable`]
//! keeps the part the matcher's exact checks read per candidate pair, once
//! per graph.

use crate::db::GraphDb;
use crate::graph::{Graph, NodeId};
use crate::GraphId;

/// The three neighborhood properties of one node (§IV-A), with labels
/// already mapped through the database's effective (group) labeling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NeighborhoodStats {
    /// Degree of the node.
    pub degree: u32,
    /// Edges among the neighbors.
    pub neighbor_connection: u32,
    /// Effective labels of the neighbors, sorted ascending, deduplicated.
    pub neighbor_labels: Vec<u32>,
    /// Effective label of the node itself.
    pub label: u32,
}

impl NeighborhoodStats {
    /// Computes stats for `node` of `graph` inside `db` (group-aware).
    pub fn compute(db: &GraphDb, graph: GraphId, node: NodeId) -> Self {
        let g = db.graph(graph);
        Self::compute_with(g, node, |n| db.effective_label(graph, n))
    }

    /// Computes stats for a standalone graph with a custom label function —
    /// used for query graphs, which live outside the database but must see
    /// the same effective-label space.
    pub fn compute_with(g: &Graph, node: NodeId, label_of: impl Fn(NodeId) -> u32) -> Self {
        let degree = g.degree(node) as u32;
        let neighbor_connection = g.neighbor_connection(node) as u32;
        let mut neighbor_labels: Vec<u32> = g.neighbors(node).map(&label_of).collect();
        neighbor_labels.sort_unstable();
        neighbor_labels.dedup();
        NeighborhoodStats {
            degree,
            neighbor_connection,
            neighbor_labels,
            label: label_of(node),
        }
    }
}

/// The per-node part of a neighborhood that exact condition checks read
/// for every candidate pair: the neighbor connection and a one-word fold of
/// the neighbor label set — §IV-C's neighbor array with `64` slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeSignature {
    /// Edges among the neighbors ([`Graph::neighbor_connection`]).
    pub nb_connection: u32,
    /// Bit `label % 64` set for each neighbor's effective label.
    pub label_mask: u64,
}

/// Every node's [`NodeSignature`], indexed by node id.
#[derive(Debug, Clone)]
pub struct SignatureTable {
    sigs: Vec<NodeSignature>,
}

impl SignatureTable {
    /// Computes the signature of each of `g`'s nodes under `label_of`.
    pub fn build(g: &Graph, label_of: impl Fn(NodeId) -> u32) -> Self {
        SignatureTable {
            sigs: g
                .nodes()
                .map(|n| NodeSignature {
                    nb_connection: g.neighbor_connection(n) as u32,
                    label_mask: g.neighbors(n).fold(0, |m, nb| m | 1 << (label_of(nb) % 64)),
                })
                .collect(),
        }
    }

    /// The signature of `n`.
    #[inline]
    pub fn get(&self, n: NodeId) -> NodeSignature {
        self.sigs[n.idx()]
    }
}

/// Node-match quality `w` — Eq. IV.5 of the paper.
///
/// ```text
/// fnb  = nbmiss  / Nq.degree
/// fnbc = nbcmiss / Nq.nbConnection
/// w = 2 − fnbc                      if nbmiss = 0
/// w = 2 − (fnb + fnbc / nbmiss)     otherwise
/// ```
///
/// `fnbc` is amortized by `nbmiss` because missing neighbors inevitably
/// drag missing neighbor connections with them (the paper's correlation
/// argument). `w ∈ [0, 2]`; higher is better. Degenerate query stats
/// (degree or neighbor connection of 0) contribute zero missing fraction,
/// matching the limit of the paper's formulas.
pub fn node_match_quality(q_degree: u32, q_nb_connection: u32, nb_miss: u32, nbc_miss: u32) -> f64 {
    let fnb = if q_degree == 0 {
        0.0
    } else {
        nb_miss as f64 / q_degree as f64
    };
    let fnbc = if q_nb_connection == 0 {
        0.0
    } else {
        nbc_miss as f64 / q_nb_connection as f64
    };
    if nb_miss == 0 {
        2.0 - fnbc
    } else {
        2.0 - (fnb + fnbc / nb_miss as f64)
    }
}

/// The miss budgets `(nbmiss, nbcmiss)` of a query node of `degree`
/// under approximation ratio `ρ` (§IV-B): conditions IV.2/IV.3 allow
/// `nbmiss = ⌊ρ·degree⌋` missing neighbors (at most `degree`), and IV.4
/// the worst-case neighbor connections they take with them,
/// `nbcmiss = nbmiss(nbmiss−1)/2 + (degree−nbmiss)·nbmiss`. The NH-Index
/// probe and the matcher's exact check both read their budgets here, so
/// the filter and the check it stands in for cannot drift apart.
pub fn miss_budgets(degree: u32, rho: f64) -> (u32, u32) {
    let nbmiss = ((rho.max(0.0) * degree as f64).floor() as u32).min(degree);
    let nbcmiss = nbmiss * nbmiss.saturating_sub(1) / 2 + (degree - nbmiss) * nbmiss;
    (nbmiss, nbcmiss)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    #[test]
    fn miss_budget_formula() {
        // degree 8, ρ = 25% → nbmiss 2; nbcmiss = 1 + 6*2 = 13
        assert_eq!(miss_budgets(8, 0.25), (2, 13));
        // ρ = 0 → no misses
        assert_eq!(miss_budgets(8, 0.0), (0, 0));
        // degenerate degree 0
        assert_eq!(miss_budgets(0, 0.5), (0, 0));
        // ρ ≥ 1 caps at degree
        assert_eq!(miss_budgets(4, 2.0).0, 4);
    }

    fn star_with_ring() -> (GraphDb, GraphId) {
        // center (label C) with 4 leaves (labels L0..L3); leaves form a path.
        let mut db = GraphDb::new();
        let c = db.intern_node_label("C");
        let ls: Vec<_> = (0..4)
            .map(|i| db.intern_node_label(&format!("L{i}")))
            .collect();
        let mut g = Graph::new_undirected();
        let center = g.add_node(c);
        let leaves: Vec<_> = ls.iter().map(|&l| g.add_node(l)).collect();
        for &l in &leaves {
            g.add_edge(center, l).unwrap();
        }
        for w in leaves.windows(2) {
            g.add_edge(w[0], w[1]).unwrap();
        }
        let id = db.insert("g", g);
        (db, id)
    }

    #[test]
    fn stats_of_center() {
        let (db, id) = star_with_ring();
        let s = NeighborhoodStats::compute(&db, id, NodeId(0));
        assert_eq!(s.degree, 4);
        assert_eq!(s.neighbor_connection, 3); // path among 4 leaves
        assert_eq!(s.neighbor_labels, vec![1, 2, 3, 4]);
        assert_eq!(s.label, 0);
    }

    #[test]
    fn stats_of_leaf() {
        let (db, id) = star_with_ring();
        // leaf 1 (NodeId(2)) connects to center, leaf0, leaf2.
        let s = NeighborhoodStats::compute(&db, id, NodeId(2));
        assert_eq!(s.degree, 3);
        // among {center, leaf0, leaf2}: center-leaf0 and center-leaf2 = 2
        assert_eq!(s.neighbor_connection, 2);
    }

    #[test]
    fn duplicate_neighbor_labels_dedup() {
        let mut db = GraphDb::new();
        let a = db.intern_node_label("A");
        let b = db.intern_node_label("B");
        let mut g = Graph::new_undirected();
        let center = g.add_node(a);
        for _ in 0..3 {
            let n = g.add_node(b);
            g.add_edge(center, n).unwrap();
        }
        let id = db.insert("g", g);
        let s = NeighborhoodStats::compute(&db, id, NodeId(0));
        assert_eq!(s.degree, 3);
        assert_eq!(s.neighbor_labels, vec![1]); // three B neighbors, one label
    }

    #[test]
    fn group_labels_flow_through() {
        let (mut db, id) = star_with_ring();
        // collapse all leaf labels into one group, center in another
        db.set_group(vec![0, 1, 1, 1, 1]).unwrap();
        let s = NeighborhoodStats::compute(&db, id, NodeId(0));
        assert_eq!(s.neighbor_labels, vec![1]);
        assert_eq!(s.label, 0);
    }
}
