//! The graph database: a collection of labeled graphs sharing vocabularies.
//!
//! TALE queries run against "a database of large graphs" (§I). A [`GraphDb`]
//! owns the node/edge label vocabularies (so labels are comparable across
//! graphs — essential for the NH-Index, whose B+-tree keys start with the
//! label) and assigns stable [`GraphId`]s.
//!
//! §IV-E's node-mismatch model replaces node labels with *group* labels
//! (e.g. orthologous groups). [`GraphDb`] supports this directly via
//! [`GraphDb::set_group`] / [`GraphDb::effective_label`]: when a group map
//! is installed, every consumer that should see group semantics asks for
//! the effective label.

use crate::graph::{Graph, NodeId};
use crate::labels::{LabelInterner, NodeLabel};
use crate::neighborhood::SignatureTable;
use crate::{GraphError, Result};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Identifier of a graph within a [`GraphDb`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct GraphId(pub u32);

impl GraphId {
    /// Index form, for slice access.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// A named collection of graphs with shared label vocabularies.
///
/// Graphs, names, vocabularies and each graph's derived tables sit behind
/// `Arc`s, so a clone — the next version a writer prepares — costs one
/// pointer copy per graph and keeps every table already built. Graphs
/// never change once inserted; a vocabulary is copied only when a clone
/// interns a new label.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct GraphDb {
    graphs: Vec<Arc<Graph>>,
    names: Vec<Arc<str>>,
    node_labels: Arc<LabelInterner>,
    edge_labels: Arc<LabelInterner>,
    /// Optional node-label → group-label map (§IV-E). Group labels live in
    /// their own dense space starting at 0.
    group_of_label: Option<Vec<u32>>,
    group_count: u32,
    /// Per-graph derived tables, each built on first use. Never
    /// serialized, sized on first use (so a deserialized or fresh db starts
    /// empty), and reset whenever effective labels change. Interning a
    /// label or inserting a graph changes no existing graph's effective
    /// labels, so versions share these slots.
    #[serde(skip)]
    derived: OnceLock<Vec<Arc<Derived>>>,
}

/// One graph's derived tables: pure functions of the graph and the
/// effective labeling.
#[derive(Debug, Clone, Default)]
struct Derived {
    buckets: OnceLock<LabelBuckets>,
    signatures: OnceLock<SignatureTable>,
}

/// One graph's nodes grouped by effective label — the label-pruned
/// candidate lists of a (query node, graph) pair, independent of the query.
#[derive(Debug, Clone)]
pub struct LabelBuckets {
    /// Distinct effective labels, ascending.
    labels: Vec<u32>,
    /// `nodes[starts[i]..starts[i + 1]]` carry `labels[i]`.
    starts: Vec<usize>,
    /// Nodes grouped by label, ascending node id within a group.
    nodes: Vec<NodeId>,
}

impl LabelBuckets {
    /// Groups `g`'s nodes by `label_of`.
    pub fn build(g: &Graph, label_of: impl Fn(NodeId) -> u32) -> Self {
        let mut keyed: Vec<(u32, NodeId)> = g.nodes().map(|n| (label_of(n), n)).collect();
        keyed.sort_unstable();
        let mut b = LabelBuckets {
            labels: Vec::new(),
            starts: Vec::new(),
            nodes: Vec::with_capacity(keyed.len()),
        };
        for (i, &(label, n)) in keyed.iter().enumerate() {
            if b.labels.last() != Some(&label) {
                b.labels.push(label);
                b.starts.push(i);
            }
            b.nodes.push(n);
        }
        b.starts.push(keyed.len());
        b
    }

    /// The nodes whose effective label is `label`, ascending.
    pub fn nodes(&self, label: u32) -> &[NodeId] {
        match self.labels.binary_search(&label) {
            Ok(i) => &self.nodes[self.starts[i]..self.starts[i + 1]],
            Err(_) => &[],
        }
    }
}

impl GraphDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a node label string, usable across all graphs in the db.
    pub fn intern_node_label(&mut self, name: &str) -> NodeLabel {
        NodeLabel(intern_shared(&mut self.node_labels, name))
    }

    /// Interns an edge label string.
    pub fn intern_edge_label(&mut self, name: &str) -> crate::labels::EdgeLabel {
        crate::labels::EdgeLabel(intern_shared(&mut self.edge_labels, name))
    }

    /// Node-label vocabulary (`Σv`).
    pub fn node_vocab(&self) -> &LabelInterner {
        &self.node_labels
    }

    /// Edge-label vocabulary (`Σe`).
    pub fn edge_vocab(&self) -> &LabelInterner {
        &self.edge_labels
    }

    /// Inserts a graph under `name`, returning its id.
    pub fn insert(&mut self, name: impl Into<String>, g: Graph) -> GraphId {
        self.insert_shared(name.into().into(), Arc::new(g))
    }

    pub(crate) fn insert_shared(&mut self, name: Arc<str>, g: Arc<Graph>) -> GraphId {
        let id = GraphId(self.graphs.len() as u32);
        self.graphs.push(g);
        self.names.push(name);
        if let Some(derived) = self.derived.get_mut() {
            derived.push(Arc::default());
        }
        id
    }

    /// The shared handle of a graph (cheap to clone; the graph itself is
    /// never copied). Panics if out of range.
    pub(crate) fn shared(&self, id: GraphId) -> (&Arc<str>, &Arc<Graph>) {
        (&self.names[id.idx()], &self.graphs[id.idx()])
    }

    /// Number of graphs.
    pub fn len(&self) -> usize {
        self.graphs.len()
    }

    /// True when the database holds no graphs.
    pub fn is_empty(&self) -> bool {
        self.graphs.is_empty()
    }

    /// Borrow a graph. Panics if out of range (ids come from this db).
    #[inline]
    pub fn graph(&self, id: GraphId) -> &Graph {
        &self.graphs[id.idx()]
    }

    /// Fallible graph lookup.
    pub fn try_graph(&self, id: GraphId) -> Result<&Graph> {
        self.graphs
            .get(id.idx())
            .map(|g| &**g)
            .ok_or(GraphError::GraphOutOfBounds(id))
    }

    /// The name the graph was inserted under.
    pub fn name(&self, id: GraphId) -> &str {
        &self.names[id.idx()]
    }

    /// Looks a graph up by name (linear scan; db-level metadata operation).
    pub fn find_by_name(&self, name: &str) -> Option<GraphId> {
        self.names
            .iter()
            .position(|n| &**n == name)
            .map(|i| GraphId(i as u32))
    }

    /// Iterates `(id, name, graph)`.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (GraphId, &str, &Graph)> {
        self.graphs
            .iter()
            .zip(self.names.iter())
            .enumerate()
            .map(|(i, (g, n))| (GraphId(i as u32), &**n, &**g))
    }

    /// Total node count across all graphs — the NH-Index has exactly this
    /// many indexing units (§IV-A's linear-size claim).
    pub fn total_nodes(&self) -> usize {
        self.graphs.iter().map(|g| g.node_count()).sum()
    }

    /// Total edge count across all graphs.
    pub fn total_edges(&self) -> usize {
        self.graphs.iter().map(|g| g.edge_count()).sum()
    }

    /// Installs the §IV-E group-label map: `groups[label] = group id`.
    ///
    /// `groups` must cover every interned node label. Group ids need not be
    /// dense; `group_count` is derived as `max + 1`.
    pub fn set_group(&mut self, groups: Vec<u32>) -> Result<()> {
        if groups.len() < self.node_labels.len() {
            return Err(GraphError::Parse {
                line: 0,
                msg: format!(
                    "group map covers {} labels but vocabulary has {}",
                    groups.len(),
                    self.node_labels.len()
                ),
            });
        }
        self.group_count = groups.iter().copied().max().map_or(0, |m| m + 1);
        self.group_of_label = Some(groups);
        self.derived = OnceLock::new();
        Ok(())
    }

    /// Convenience for building group maps by name: pairs of
    /// `(label name, group name)`; group names are interned densely.
    pub fn set_group_by_names(&mut self, pairs: &[(String, String)]) -> Result<()> {
        let mut group_ids: HashMap<&str, u32> = HashMap::new();
        let mut groups = vec![0u32; self.node_labels.len()];
        let mut next = 0u32;
        let mut assigned = vec![false; self.node_labels.len()];
        for (label, group) in pairs {
            let lid = self
                .node_labels
                .get(label)
                .ok_or_else(|| GraphError::Parse {
                    line: 0,
                    msg: format!("unknown label {label:?} in group map"),
                })?;
            let gid = *group_ids.entry(group.as_str()).or_insert_with(|| {
                let g = next;
                next += 1;
                g
            });
            groups[lid as usize] = gid;
            assigned[lid as usize] = true;
        }
        // Unassigned labels each get their own singleton group, preserving
        // exact-label semantics for them.
        for (i, done) in assigned.iter().enumerate() {
            if !done {
                groups[i] = next;
                next += 1;
            }
        }
        self.group_count = next;
        self.group_of_label = Some(groups);
        self.derived = OnceLock::new();
        Ok(())
    }

    /// True when a group map is installed.
    pub fn has_groups(&self) -> bool {
        self.group_of_label.is_some()
    }

    /// The raw label → group map, if installed (indexed by label id).
    pub fn group_map(&self) -> Option<&[u32]> {
        self.group_of_label.as_deref()
    }

    /// Number of distinct effective labels: group count if groups are
    /// installed, else `|Σv|`.
    pub fn effective_vocab_size(&self) -> usize {
        match &self.group_of_label {
            Some(_) => self.group_count as usize,
            None => self.node_labels.len(),
        }
    }

    /// The label the index/matcher should see for `node` of `graph`:
    /// the group label when groups are installed, the raw label otherwise.
    #[inline]
    pub fn effective_label(&self, graph: GraphId, node: NodeId) -> u32 {
        let raw = self.graphs[graph.idx()].label(node).0;
        match &self.group_of_label {
            Some(map) => map[raw as usize],
            None => raw,
        }
    }

    /// `graph`'s nodes grouped by [`effective_label`](Self::effective_label),
    /// built on the first call for that graph and shared by every later
    /// one (including concurrent ones).
    pub fn label_buckets(&self, graph: GraphId) -> &LabelBuckets {
        self.derived(graph).buckets.get_or_init(|| {
            LabelBuckets::build(self.graph(graph), |n| self.effective_label(graph, n))
        })
    }

    /// `graph`'s [`SignatureTable`] under
    /// [`effective_label`](Self::effective_label), built and shared like
    /// [`label_buckets`](Self::label_buckets).
    pub fn signatures(&self, graph: GraphId) -> &SignatureTable {
        self.derived(graph).signatures.get_or_init(|| {
            SignatureTable::build(self.graph(graph), |n| self.effective_label(graph, n))
        })
    }

    fn derived(&self, graph: GraphId) -> &Derived {
        &self
            .derived
            .get_or_init(|| (0..self.graphs.len()).map(|_| Arc::default()).collect())[graph.idx()]
    }

    /// Maps a raw label to its effective (group) label. Raw labels outside
    /// the vocabulary (e.g. a query authored against a different interner)
    /// map to a reserved no-match label past the group space.
    #[inline]
    pub fn effective_of_raw(&self, raw: NodeLabel) -> u32 {
        match &self.group_of_label {
            Some(map) => map
                .get(raw.0 as usize)
                .copied()
                .unwrap_or(self.group_count.saturating_add(raw.0)),
            None => raw.0,
        }
    }
}

/// Interns into a vocabulary that other versions may share, copying it
/// only when it is shared and the label is new.
fn intern_shared(vocab: &mut Arc<LabelInterner>, name: &str) -> u32 {
    if let Some(own) = Arc::get_mut(vocab) {
        return own.intern(name);
    }
    match vocab.get(name) {
        Some(id) => id,
        None => Arc::make_mut(vocab).intern(name),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_db() -> (GraphDb, GraphId) {
        let mut db = GraphDb::new();
        let a = db.intern_node_label("A");
        let b = db.intern_node_label("B");
        let mut g = Graph::new_undirected();
        let n0 = g.add_node(a);
        let n1 = g.add_node(b);
        g.add_edge(n0, n1).unwrap();
        let id = db.insert("g0", g);
        (db, id)
    }

    #[test]
    fn insert_and_lookup() {
        let (db, id) = tiny_db();
        assert_eq!(db.len(), 1);
        assert_eq!(db.name(id), "g0");
        assert_eq!(db.graph(id).node_count(), 2);
        assert_eq!(db.find_by_name("g0"), Some(id));
        assert_eq!(db.find_by_name("nope"), None);
        assert_eq!(db.total_nodes(), 2);
        assert_eq!(db.total_edges(), 1);
    }

    #[test]
    fn try_graph_out_of_bounds() {
        let (db, _) = tiny_db();
        assert!(db.try_graph(GraphId(9)).is_err());
    }

    #[test]
    fn effective_label_without_groups_is_raw() {
        let (db, id) = tiny_db();
        assert_eq!(db.effective_label(id, NodeId(0)), 0);
        assert_eq!(db.effective_label(id, NodeId(1)), 1);
        assert_eq!(db.effective_vocab_size(), 2);
        assert!(!db.has_groups());
    }

    #[test]
    fn group_map_collapses_labels() {
        let (mut db, id) = tiny_db();
        db.set_group(vec![5, 5]).unwrap();
        assert!(db.has_groups());
        assert_eq!(db.effective_label(id, NodeId(0)), 5);
        assert_eq!(db.effective_label(id, NodeId(1)), 5);
        assert_eq!(db.effective_vocab_size(), 6);
    }

    #[test]
    fn group_map_must_cover_vocab() {
        let (mut db, _) = tiny_db();
        assert!(db.set_group(vec![0]).is_err());
    }

    #[test]
    fn group_by_names_assigns_singletons() {
        let mut db = GraphDb::new();
        db.intern_node_label("p1");
        db.intern_node_label("p2");
        db.intern_node_label("lonely");
        db.set_group_by_names(&[("p1".into(), "orth1".into()), ("p2".into(), "orth1".into())])
            .unwrap();
        assert_eq!(
            db.effective_of_raw(NodeLabel(0)),
            db.effective_of_raw(NodeLabel(1))
        );
        assert_ne!(
            db.effective_of_raw(NodeLabel(0)),
            db.effective_of_raw(NodeLabel(2))
        );
    }

    #[test]
    fn group_by_names_unknown_label_errors() {
        let mut db = GraphDb::new();
        db.intern_node_label("x");
        let err = db.set_group_by_names(&[("missing".into(), "g".into())]);
        assert!(err.is_err());
    }

    /// `label_buckets` must equal grouping every node by its effective
    /// label, node ids ascending within a label, and `signatures` must
    /// equal each node's neighbor connection and folded neighbor labels
    /// counted pair by pair.
    fn assert_buckets_naive(db: &GraphDb) {
        for (id, _, g) in db.iter() {
            let sigs = db.signatures(id);
            for n in g.nodes() {
                let nbs: Vec<NodeId> = g.neighbors(n).collect();
                let mut nbc = 0;
                let mut mask = 0u64;
                for &a in &nbs {
                    mask |= 1 << (db.effective_label(id, a) % 64);
                    nbc += nbs.iter().filter(|&&b| g.has_edge(a, b)).count();
                }
                if !g.is_directed() {
                    nbc /= 2;
                }
                let sig = sigs.get(n);
                assert_eq!(sig.nb_connection as usize, nbc, "graph {id:?} node {n:?}");
                assert_eq!(sig.label_mask, mask, "graph {id:?} node {n:?}");
            }
            let mut naive: HashMap<u32, Vec<NodeId>> = HashMap::new();
            for n in g.nodes() {
                naive.entry(db.effective_label(id, n)).or_default().push(n);
            }
            let b = db.label_buckets(id);
            for (label, nodes) in &naive {
                assert_eq!(
                    b.nodes(*label),
                    nodes.as_slice(),
                    "graph {id:?} label {label}"
                );
            }
            let total: usize = naive.keys().map(|&l| b.nodes(l).len()).sum();
            assert_eq!(total, g.node_count());
            assert!(b.nodes(u32::MAX).is_empty());
        }
    }

    #[test]
    fn label_buckets_equal_naive_grouping() {
        use crate::generate::gnm;
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        let mut db = GraphDb::new();
        for l in 0..6 {
            db.intern_node_label(&format!("L{l}"));
        }
        for i in 0..4 {
            db.insert(format!("g{i}"), gnm(&mut rng, 30 + 10 * i, 60, 6));
        }
        assert_buckets_naive(&db);
        // an insert after the tables exist gets its own slot
        db.insert("late", gnm(&mut rng, 25, 40, 6));
        assert_buckets_naive(&db);
        // directed: the neighborhood is the out-neighbor set
        let mut d = Graph::new_directed();
        for i in 0..20 {
            d.add_node(NodeLabel(i % 6));
        }
        for _ in 0..60 {
            let (u, v) = (rng.gen_range(0..20), rng.gen_range(0..20));
            let _ = d.add_edge(NodeId(u), NodeId(v)); // self loops, repeats
        }
        db.insert("directed", d);
        assert_buckets_naive(&db);
        // a group map changes effective labels: every graph is regrouped
        db.set_group(vec![0, 0, 1, 1, 2, 2]).unwrap();
        assert_buckets_naive(&db);
        db.set_group_by_names(&[("L0".into(), "x".into()), ("L5".into(), "x".into())])
            .unwrap();
        assert_buckets_naive(&db);
        db.insert("after-groups", gnm(&mut rng, 20, 30, 6));
        assert_buckets_naive(&db);
        // a clone carries equal tables
        assert_buckets_naive(&db.clone());
    }

    #[test]
    fn label_buckets_are_not_serialized() {
        use crate::io::{load_json, save_json};
        let dir = tempfile::tempdir().unwrap();
        let (path, path2) = (
            dir.path().join("graphs.json"),
            dir.path().join("again.json"),
        );
        let (db, id) = tiny_db();
        save_json(&db, &path).unwrap();
        let before = std::fs::read(&path).unwrap();
        assert_eq!(db.label_buckets(id).nodes(0), &[NodeId(0)]);
        assert_eq!(db.signatures(id).get(NodeId(0)).label_mask, 1 << 1);
        save_json(&db, &path).unwrap();
        assert_eq!(
            before,
            std::fs::read(&path).unwrap(),
            "derived tables reached the json"
        );
        let back = load_json(&path).unwrap();
        assert_buckets_naive(&back);
        save_json(&back, &path2).unwrap();
        assert_eq!(
            before,
            std::fs::read(&path2).unwrap(),
            "round trip not byte-identical"
        );
    }

    #[test]
    fn versions_share_graphs_and_built_tables() {
        let (mut db, id) = tiny_db();
        let built = db.signatures(id) as *const SignatureTable;
        let mut next = db.clone();
        let late = next.insert("late", Graph::new_undirected());
        next.intern_node_label("C");
        assert!(std::ptr::eq(db.graph(id), next.graph(id)), "graph copied");
        assert!(std::ptr::eq(next.signatures(id), built), "table rebuilt");
        assert!(next.label_buckets(late).nodes(0).is_empty());
        assert_eq!(db.node_vocab().len(), 2, "intern reached the older version");
        // effective labels change only in the version that changes them
        next.set_group(vec![0, 0, 0]).unwrap();
        assert!(!std::ptr::eq(next.signatures(id), built));
        assert!(std::ptr::eq(db.signatures(id), built));
        db.insert("other", Graph::new_undirected());
        assert!(std::ptr::eq(db.signatures(id), built));
    }

    #[test]
    fn iter_order_is_insertion() {
        let (mut db, _) = tiny_db();
        db.insert("g1", Graph::new_undirected());
        let names: Vec<_> = db.iter().map(|(_, n, _)| n.to_owned()).collect();
        assert_eq!(names, vec!["g0", "g1"]);
    }
}
