//! The labeled graph structure (§III of the paper).
//!
//! A graph `G = (V, E)` with node labels `φ: V → Σv` and optional edge
//! labels `ψ: E → Σe`. Nodes carry unique, ordered ids ([`NodeId`] is the
//! dense insertion index). Both undirected (the paper's presentation
//! default) and directed graphs are supported; the NH-Index and matcher
//! treat directed graphs per the extended-paper adaptation (out-neighbors
//! define the neighborhood).

use crate::labels::{EdgeLabel, NodeLabel};
use crate::{GraphError, Result};
use serde::{Deserialize, Serialize};

/// Dense node identifier, unique and ordered within one [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index form, for slice access.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Dense edge identifier (insertion order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct EdgeId(pub u32);

/// Whether edges are interpreted as directed or undirected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Direction {
    /// `(u, v)` connects both ways; degree counts each incident edge once.
    Undirected,
    /// `(u, v)` goes from `u` to `v`; neighborhoods use out-edges.
    Directed,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct EdgeRecord {
    u: NodeId,
    v: NodeId,
    label: Option<EdgeLabel>,
}

/// An adjacency-list labeled graph.
///
/// ```
/// use tale_graph::{Graph, NodeLabel};
///
/// let mut g = Graph::new_undirected();
/// let a = g.add_node(NodeLabel(0));
/// let b = g.add_node(NodeLabel(1));
/// g.add_edge(a, b).unwrap();
/// assert_eq!(g.degree(a), 1);
/// assert!(g.has_edge(b, a)); // undirected
/// assert!(g.add_edge(a, b).is_err()); // simple graph: no parallel edges
/// ```
///
/// Invariants:
/// * simple: no self loops, no parallel edges (checked on insert);
/// * `NodeId`s are dense `0..node_count()`;
/// * adjacency lists are kept sorted by neighbor id, enabling O(log d)
///   `has_edge` and deterministic iteration order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Graph {
    direction: Direction,
    labels: Vec<NodeLabel>,
    /// Outgoing adjacency: `(neighbor, edge)` sorted by neighbor id.
    adj: Vec<Vec<(NodeId, EdgeId)>>,
    /// Incoming adjacency; only maintained for directed graphs.
    radj: Vec<Vec<(NodeId, EdgeId)>>,
    edges: Vec<EdgeRecord>,
}

/// Reusable visited marks for [`Graph::rings_into`]. A node counts as
/// visited when its mark equals the current epoch, so each call starts
/// clean by bumping the epoch instead of zeroing a `node_count` vector.
/// One scratch may serve graphs of any size.
#[derive(Debug, Clone, Default)]
pub struct RingScratch {
    marks: Vec<u32>,
    epoch: u32,
}

impl RingScratch {
    /// Starts a fresh visit over a graph of `nodes` nodes.
    fn next_epoch(&mut self, nodes: usize) -> u32 {
        if self.marks.len() < nodes {
            self.marks.resize(nodes, 0);
        }
        if self.epoch == u32::MAX {
            self.marks.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }
}

impl Graph {
    /// Creates an empty undirected graph.
    pub fn new_undirected() -> Self {
        Self::new(Direction::Undirected)
    }

    /// Creates an empty directed graph.
    pub fn new_directed() -> Self {
        Self::new(Direction::Directed)
    }

    /// Creates an empty graph with the given edge direction semantics.
    pub fn new(direction: Direction) -> Self {
        Graph {
            direction,
            labels: Vec::new(),
            adj: Vec::new(),
            radj: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Edge direction semantics of this graph.
    #[inline]
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// True for directed graphs.
    #[inline]
    pub fn is_directed(&self) -> bool {
        self.direction == Direction::Directed
    }

    /// Adds a node with the given label, returning its id.
    pub fn add_node(&mut self, label: NodeLabel) -> NodeId {
        let id = NodeId(self.labels.len() as u32);
        self.labels.push(label);
        self.adj.push(Vec::new());
        if self.is_directed() {
            self.radj.push(Vec::new());
        }
        id
    }

    /// Adds an unlabeled edge. See [`Graph::add_edge_labeled`].
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<EdgeId> {
        self.add_edge_opt(u, v, None)
    }

    /// Adds an edge carrying label `l`.
    pub fn add_edge_labeled(&mut self, u: NodeId, v: NodeId, l: EdgeLabel) -> Result<EdgeId> {
        self.add_edge_opt(u, v, Some(l))
    }

    fn add_edge_opt(&mut self, u: NodeId, v: NodeId, label: Option<EdgeLabel>) -> Result<EdgeId> {
        let n = self.labels.len() as u32;
        if u.0 >= n {
            return Err(GraphError::NodeOutOfBounds(u));
        }
        if v.0 >= n {
            return Err(GraphError::NodeOutOfBounds(v));
        }
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        if self.has_edge(u, v) {
            return Err(GraphError::DuplicateEdge(u, v));
        }
        let eid = EdgeId(self.edges.len() as u32);
        self.edges.push(EdgeRecord { u, v, label });
        match self.direction {
            Direction::Undirected => {
                Self::insert_sorted(&mut self.adj[u.idx()], v, eid);
                Self::insert_sorted(&mut self.adj[v.idx()], u, eid);
            }
            Direction::Directed => {
                Self::insert_sorted(&mut self.adj[u.idx()], v, eid);
                Self::insert_sorted(&mut self.radj[v.idx()], u, eid);
            }
        }
        Ok(eid)
    }

    fn insert_sorted(list: &mut Vec<(NodeId, EdgeId)>, nb: NodeId, eid: EdgeId) {
        let pos = list.partition_point(|(n, _)| *n < nb);
        list.insert(pos, (nb, eid));
    }

    /// Number of nodes `|V|`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of edges `|E|`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Label of node `n`. Panics if out of bounds.
    #[inline]
    pub fn label(&self, n: NodeId) -> NodeLabel {
        self.labels[n.idx()]
    }

    /// Degree of `n`: incident edges for undirected graphs, out-degree for
    /// directed graphs (the extended paper's neighborhood convention).
    #[inline]
    pub fn degree(&self, n: NodeId) -> usize {
        self.adj[n.idx()].len()
    }

    /// In-degree; equals [`Graph::degree`] for undirected graphs.
    #[inline]
    pub fn in_degree(&self, n: NodeId) -> usize {
        match self.direction {
            Direction::Undirected => self.adj[n.idx()].len(),
            Direction::Directed => self.radj[n.idx()].len(),
        }
    }

    /// Iterates node ids `0..|V|`.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.labels.len() as u32).map(NodeId)
    }

    /// Neighbors of `n` (out-neighbors when directed), ascending by id.
    #[inline]
    pub fn neighbors(&self, n: NodeId) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        self.adj[n.idx()].iter().map(|&(nb, _)| nb)
    }

    /// `(neighbor, edge-id)` pairs for `n`, ascending by neighbor id.
    #[inline]
    pub fn neighbor_edges(
        &self,
        n: NodeId,
    ) -> impl ExactSizeIterator<Item = (NodeId, EdgeId)> + '_ {
        self.adj[n.idx()].iter().copied()
    }

    /// In-neighbors of `n`; same as `neighbors` for undirected graphs.
    pub fn in_neighbors(&self, n: NodeId) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        let list = match self.direction {
            Direction::Undirected => &self.adj[n.idx()],
            Direction::Directed => &self.radj[n.idx()],
        };
        list.iter().map(|&(nb, _)| nb)
    }

    /// True when an edge `u→v` (or `u—v`) exists. O(log degree).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.adj[u.idx()]
            .binary_search_by_key(&v, |&(n, _)| n)
            .is_ok()
    }

    /// Edge id of `u→v` if present.
    pub fn edge_between(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        self.adj[u.idx()]
            .binary_search_by_key(&v, |&(n, _)| n)
            .ok()
            .map(|i| self.adj[u.idx()][i].1)
    }

    /// Label of edge `e`, if it carries one.
    pub fn edge_label(&self, e: EdgeId) -> Option<EdgeLabel> {
        self.edges[e.0 as usize].label
    }

    /// Endpoints `(u, v)` of edge `e` in insertion orientation.
    pub fn edge_endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        let r = &self.edges[e.0 as usize];
        (r.u, r.v)
    }

    /// Iterates all edges as `(u, v, label)` in insertion order.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = (NodeId, NodeId, Option<EdgeLabel>)> + '_ {
        self.edges.iter().map(|r| (r.u, r.v, r.label))
    }

    /// Collects the set of nodes exactly two hops from `n` (excluding `n`
    /// and its immediate neighbors). Used by `ExamineNodesNearBy`
    /// (Algorithm 3) to extend matches past the 1-hop frontier.
    pub fn two_hop_neighbors(&self, n: NodeId) -> Vec<NodeId> {
        self.neighbors_within(n, 2)
    }

    /// Collects the nodes at distance `2..=k` from `n` (excluding `n` and
    /// its immediate neighbors), sorted by id. `k = 2` is the paper's
    /// default extension radius; larger values implement the "more than
    /// two-hops away" generalization Algorithm 3's discussion mentions,
    /// at increased matching cost. Distance is over the *underlying
    /// undirected* graph: for matching, "nearby" means reachable in
    /// either direction — a pathway's upstream neighbors are as near as
    /// its downstream ones — while edge-preservation checks stay
    /// direction-aware. The second ring of [`Graph::rings_into`].
    pub fn neighbors_within(&self, n: NodeId, k: u8) -> Vec<NodeId> {
        let mut out = Vec::new();
        let split = self.rings_into(n, k, &mut RingScratch::default(), &mut out);
        out.split_off(split)
    }

    /// Neighbors in the underlying undirected graph: out ∪ in, sorted,
    /// deduplicated. Equals [`Graph::neighbors`] for undirected graphs.
    /// The first ring of [`Graph::rings_into`].
    pub fn undirected_neighbors(&self, n: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.rings_into(n, 1, &mut RingScratch::default(), &mut out);
        out
    }

    /// Appends `n`'s rings over the underlying undirected graph to `out`:
    /// first its 1-hop ring (out ∪ in neighbors, ascending), then the
    /// nodes at distance `2..=k` (ascending; empty for `k < 2`). Returns
    /// the index in `out` where the second ring starts. Visited marks live
    /// in `scratch`, so a caller that keeps one scratch allocates nothing
    /// per call beyond `out`'s growth.
    pub fn rings_into(
        &self,
        n: NodeId,
        k: u8,
        scratch: &mut RingScratch,
        out: &mut Vec<NodeId>,
    ) -> usize {
        let first = out.len();
        match self.direction {
            Direction::Undirected => out.extend(self.neighbors(n)),
            Direction::Directed => {
                // merge the two sorted lists, dropping mutual-edge repeats
                let (fwd, back) = (&self.adj[n.idx()], &self.radj[n.idx()]);
                let (mut i, mut j) = (0, 0);
                while i < fwd.len() || j < back.len() {
                    let next = match (fwd.get(i), back.get(j)) {
                        (Some(&(a, _)), Some(&(b, _))) => a.min(b),
                        (Some(&(a, _)), None) => a,
                        (None, Some(&(b, _))) => b,
                        (None, None) => unreachable!(),
                    };
                    i += usize::from(fwd.get(i).is_some_and(|&(a, _)| a == next));
                    j += usize::from(back.get(j).is_some_and(|&(b, _)| b == next));
                    out.push(next);
                }
            }
        }
        let split = out.len();
        if k < 2 {
            return split;
        }
        let epoch = scratch.next_epoch(self.node_count());
        let marks = &mut scratch.marks;
        marks[n.idx()] = epoch;
        for &v in &out[first..split] {
            marks[v.idx()] = epoch;
        }
        // Breadth-first, one hop at a time: `out[lo..hi]` is the previous
        // hop's ring, and the next one is appended behind it.
        let (mut lo, mut hi) = (first, split);
        for _hop in 2..=k {
            for i in lo..hi {
                let u = out[i];
                let back = match self.direction {
                    Direction::Undirected => &[][..],
                    Direction::Directed => &self.radj[u.idx()][..],
                };
                for &(v, _) in self.adj[u.idx()].iter().chain(back) {
                    if marks[v.idx()] != epoch {
                        marks[v.idx()] = epoch;
                        out.push(v);
                    }
                }
            }
            (lo, hi) = (hi, out.len());
            if lo == hi {
                break;
            }
        }
        out[split..].sort_unstable();
        split
    }

    /// Number of edges among the neighbors of `n` — the paper's *neighbor
    /// connection* (§IV-A; the black node in Fig. 1 has value 5). For
    /// directed graphs the neighborhood is the out-neighbor set and every
    /// directed edge within it counts once (the extended paper's
    /// adaptation).
    pub fn neighbor_connection(&self, n: NodeId) -> usize {
        let nbs = &self.adj[n.idx()];
        if nbs.len() < 2 {
            return 0;
        }
        let mut count = 0;
        for &(a, _) in nbs {
            for b in self.neighbors(a) {
                // Undirected adjacency lists mention each edge twice, so
                // count only the (a < b) orientation; directed edges appear
                // once and are counted as seen.
                if (self.is_directed() || b > a)
                    && nbs.binary_search_by_key(&b, |&(x, _)| x).is_ok()
                {
                    count += 1;
                }
            }
        }
        count
    }

    /// Induced subgraph on `nodes`; returns the new graph and the mapping
    /// from old to new ids (positions in `nodes`). Preserves labels.
    pub fn induced_subgraph(&self, nodes: &[NodeId]) -> (Graph, Vec<NodeId>) {
        let mut g = Graph::new(self.direction);
        let mut map = vec![NodeId(u32::MAX); self.node_count()];
        for &n in nodes {
            map[n.idx()] = g.add_node(self.label(n));
        }
        for &n in nodes {
            for (nb, eid) in self.neighbor_edges(n) {
                if map[nb.idx()].0 == u32::MAX {
                    continue;
                }
                // Undirected edges appear in both adjacency lists; only add
                // from the smaller endpoint to avoid duplicates.
                if !self.is_directed() && nb < n {
                    continue;
                }
                let l = self.edge_label(eid);
                let (nu, nv) = (map[n.idx()], map[nb.idx()]);
                let res = match l {
                    Some(l) => g.add_edge_labeled(nu, nv, l),
                    None => g.add_edge(nu, nv),
                };
                res.expect("induced subgraph preserves simplicity");
            }
        }
        let new_ids = nodes.iter().map(|&n| map[n.idx()]).collect();
        (g, new_ids)
    }

    /// Breadth-first distances from `src` (`u32::MAX` = unreachable).
    pub fn bfs_distances(&self, src: NodeId) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.node_count()];
        let mut queue = std::collections::VecDeque::new();
        dist[src.idx()] = 0;
        queue.push_back(src);
        while let Some(u) = queue.pop_front() {
            let du = dist[u.idx()];
            for v in self.neighbors(u) {
                if dist[v.idx()] == u32::MAX {
                    dist[v.idx()] = du + 1;
                    queue.push_back(v);
                }
            }
        }
        dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> Graph {
        let mut g = Graph::new_undirected();
        let ids: Vec<_> = (0..n).map(|_| g.add_node(NodeLabel(0))).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1]).unwrap();
        }
        g
    }

    #[test]
    fn add_and_query_nodes_edges() {
        let mut g = Graph::new_undirected();
        let a = g.add_node(NodeLabel(1));
        let b = g.add_node(NodeLabel(2));
        let c = g.add_node(NodeLabel(1));
        g.add_edge(a, b).unwrap();
        g.add_edge(b, c).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.degree(b), 2);
        assert_eq!(g.degree(a), 1);
        assert!(g.has_edge(a, b));
        assert!(g.has_edge(b, a));
        assert!(!g.has_edge(a, c));
        assert_eq!(g.label(c), NodeLabel(1));
    }

    #[test]
    fn rejects_self_loop_and_duplicate() {
        let mut g = Graph::new_undirected();
        let a = g.add_node(NodeLabel(0));
        let b = g.add_node(NodeLabel(0));
        assert!(matches!(g.add_edge(a, a), Err(GraphError::SelfLoop(_))));
        g.add_edge(a, b).unwrap();
        assert!(matches!(
            g.add_edge(b, a),
            Err(GraphError::DuplicateEdge(_, _))
        ));
    }

    #[test]
    fn rejects_out_of_bounds() {
        let mut g = Graph::new_undirected();
        let a = g.add_node(NodeLabel(0));
        assert!(matches!(
            g.add_edge(a, NodeId(5)),
            Err(GraphError::NodeOutOfBounds(_))
        ));
    }

    #[test]
    fn directed_edges_one_way() {
        let mut g = Graph::new_directed();
        let a = g.add_node(NodeLabel(0));
        let b = g.add_node(NodeLabel(0));
        g.add_edge(a, b).unwrap();
        assert!(g.has_edge(a, b));
        assert!(!g.has_edge(b, a));
        assert_eq!(g.degree(a), 1);
        assert_eq!(g.degree(b), 0);
        assert_eq!(g.in_degree(b), 1);
        assert_eq!(g.in_neighbors(b).collect::<Vec<_>>(), vec![a]);
    }

    #[test]
    fn neighbor_connection_matches_fig1_style() {
        // Star center with 4 leaves and 5 edges among leaves is impossible
        // on 4 leaves (max 6); build center with 4 leaves, 5 leaf-leaf edges
        // minus one: use 4 leaves fully connected minus one edge = 5 edges.
        let mut g = Graph::new_undirected();
        let c = g.add_node(NodeLabel(0));
        let ls: Vec<_> = (0..4).map(|_| g.add_node(NodeLabel(1))).collect();
        for &l in &ls {
            g.add_edge(c, l).unwrap();
        }
        let mut cnt = 0;
        'outer: for i in 0..4 {
            for j in (i + 1)..4 {
                if cnt == 5 {
                    break 'outer;
                }
                g.add_edge(ls[i], ls[j]).unwrap();
                cnt += 1;
            }
        }
        assert_eq!(g.neighbor_connection(c), 5);
        assert_eq!(g.degree(c), 4);
    }

    #[test]
    fn neighbor_connection_of_leaf_is_zero() {
        let g = path(3);
        assert_eq!(g.neighbor_connection(NodeId(0)), 0);
        // middle of a path: two neighbors, not adjacent
        assert_eq!(g.neighbor_connection(NodeId(1)), 0);
    }

    #[test]
    fn neighbor_connection_triangle() {
        let mut g = Graph::new_undirected();
        let a = g.add_node(NodeLabel(0));
        let b = g.add_node(NodeLabel(0));
        let c = g.add_node(NodeLabel(0));
        g.add_edge(a, b).unwrap();
        g.add_edge(b, c).unwrap();
        g.add_edge(a, c).unwrap();
        for n in [a, b, c] {
            assert_eq!(g.neighbor_connection(n), 1);
        }
    }

    #[test]
    fn two_hop_excludes_self_and_onehop() {
        let g = path(5);
        let th = g.two_hop_neighbors(NodeId(2));
        assert_eq!(th, vec![NodeId(0), NodeId(4)]);
        let th0 = g.two_hop_neighbors(NodeId(0));
        assert_eq!(th0, vec![NodeId(2)]);
    }

    #[test]
    fn undirected_neighbors_merge_directions() {
        let mut g = Graph::new_directed();
        let a = g.add_node(NodeLabel(0));
        let b = g.add_node(NodeLabel(0));
        let c = g.add_node(NodeLabel(0));
        g.add_edge(a, b).unwrap(); // out of a
        g.add_edge(c, a).unwrap(); // into a
        assert_eq!(g.undirected_neighbors(a), vec![b, c]);
        // mutual edge pair deduplicates
        let mut m = Graph::new_directed();
        let x = m.add_node(NodeLabel(0));
        let y = m.add_node(NodeLabel(0));
        m.add_edge(x, y).unwrap();
        m.add_edge(y, x).unwrap();
        assert_eq!(m.undirected_neighbors(x), vec![y]);
    }

    #[test]
    fn neighbors_within_traverses_against_direction() {
        // chain a→b→c: from c, node a is 2 hops away undirectedly
        let mut g = Graph::new_directed();
        let a = g.add_node(NodeLabel(0));
        let b = g.add_node(NodeLabel(0));
        let c = g.add_node(NodeLabel(0));
        g.add_edge(a, b).unwrap();
        g.add_edge(b, c).unwrap();
        assert_eq!(g.neighbors_within(c, 2), vec![a]);
    }

    #[test]
    fn neighbors_within_radius() {
        let g = path(6);
        assert_eq!(g.neighbors_within(NodeId(0), 2), vec![NodeId(2)]);
        assert_eq!(g.neighbors_within(NodeId(0), 3), vec![NodeId(2), NodeId(3)]);
        assert_eq!(
            g.neighbors_within(NodeId(0), 5),
            vec![NodeId(2), NodeId(3), NodeId(4), NodeId(5)]
        );
        // k = 1 yields nothing beyond the 1-hop ring
        assert!(g.neighbors_within(NodeId(0), 1).is_empty());
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges() {
        let mut g = Graph::new_undirected();
        let a = g.add_node(NodeLabel(1));
        let b = g.add_node(NodeLabel(2));
        let c = g.add_node(NodeLabel(3));
        let d = g.add_node(NodeLabel(4));
        g.add_edge(a, b).unwrap();
        g.add_edge(b, c).unwrap();
        g.add_edge(c, d).unwrap();
        g.add_edge(a, d).unwrap();
        let (sub, ids) = g.induced_subgraph(&[a, b, c]);
        assert_eq!(sub.node_count(), 3);
        assert_eq!(sub.edge_count(), 2); // a-b, b-c survive; c-d, a-d cut
        assert_eq!(sub.label(ids[0]), NodeLabel(1));
        assert_eq!(sub.label(ids[2]), NodeLabel(3));
        assert!(sub.has_edge(ids[0], ids[1]));
        assert!(!sub.has_edge(ids[0], ids[2]));
    }

    #[test]
    fn bfs_distances_on_path() {
        let g = path(4);
        let d = g.bfs_distances(NodeId(0));
        assert_eq!(d, vec![0, 1, 2, 3]);
    }

    #[test]
    fn bfs_unreachable_is_max() {
        let mut g = Graph::new_undirected();
        g.add_node(NodeLabel(0));
        g.add_node(NodeLabel(0));
        let d = g.bfs_distances(NodeId(0));
        assert_eq!(d[1], u32::MAX);
    }

    #[test]
    fn edge_labels_roundtrip() {
        let mut g = Graph::new_undirected();
        let a = g.add_node(NodeLabel(0));
        let b = g.add_node(NodeLabel(0));
        let e = g.add_edge_labeled(a, b, EdgeLabel(7)).unwrap();
        assert_eq!(g.edge_label(e), Some(EdgeLabel(7)));
        assert_eq!(g.edge_endpoints(e), (a, b));
        assert_eq!(g.edge_between(a, b), Some(e));
        assert_eq!(g.edge_between(b, a), Some(e));
    }

    #[test]
    fn neighbors_sorted() {
        let mut g = Graph::new_undirected();
        let n: Vec<_> = (0..5).map(|_| g.add_node(NodeLabel(0))).collect();
        g.add_edge(n[0], n[3]).unwrap();
        g.add_edge(n[0], n[1]).unwrap();
        g.add_edge(n[0], n[4]).unwrap();
        g.add_edge(n[0], n[2]).unwrap();
        let nbs: Vec<_> = g.neighbors(n[0]).collect();
        assert_eq!(nbs, vec![n[1], n[2], n[3], n[4]]);
    }
}
