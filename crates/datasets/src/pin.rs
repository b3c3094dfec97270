//! BIND-like protein interaction networks (§VI-A, Table I).
//!
//! Real PINs are power-law graphs: a few hub proteins with many
//! interactions, a long tail of peripheral ones — the exact structure
//! TALE's importance-first matching exploits. Cross-species comparison
//! works through *ortholog groups* (§IV-E): proteins of different species
//! in the same group are allowed to match.
//!
//! Generation model: a **common ancestor network** is grown by
//! preferential attachment; each ancestor protein defines one ortholog
//! group. A species' PIN is a noisy subsample: a subset of ancestor
//! proteins (species-specific label names, group = ancestor id), the
//! induced interactions thinned by edge loss, plus spurious edges — the
//! paper's "noisy and incomplete" data (§I). *Pathways* are planted as
//! random-walk modules in the ancestor, with boosted edge retention so
//! they stay conserved across species, standing in for KEGG.

use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::{HashMap, HashSet};
use tale_graph::generate::preferential_attachment;
use tale_graph::graph::{Graph, NodeId};
use tale_graph::{GraphDb, GraphId};

/// Target size of one species' PIN.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PinSpec {
    /// Species name tag used in protein label names.
    pub name: &'static str,
    /// Node count (Table I).
    pub nodes: usize,
    /// Edge count (Table I).
    pub edges: usize,
}

/// The paper's Table I species.
pub const HUMAN: PinSpec = PinSpec {
    name: "human",
    nodes: 8470,
    edges: 11260,
};
/// Mouse PIN spec (Table I).
pub const MOUSE: PinSpec = PinSpec {
    name: "mouse",
    nodes: 2991,
    edges: 3347,
};
/// Rat PIN spec (Table I).
pub const RAT: PinSpec = PinSpec {
    name: "rat",
    nodes: 830,
    edges: 942,
};

/// A planted conserved module (the KEGG-pathway stand-in).
#[derive(Debug, Clone)]
pub struct Pathway {
    /// Pathway name.
    pub name: String,
    /// Ancestor proteins forming the module (ancestor node ids).
    pub groups: Vec<u32>,
    /// Member nodes per species graph: `members[species][i]` are the
    /// node ids of this pathway present in that species.
    pub members: HashMap<String, Vec<NodeId>>,
}

/// A family of species PINs over one ancestor network.
pub struct SpeciesPins {
    /// The database: one graph per species, ortholog-group map installed.
    pub db: GraphDb,
    /// Graph id per species name.
    pub species: HashMap<String, GraphId>,
    /// The planted pathways.
    pub pathways: Vec<Pathway>,
    /// Ortholog group of every node, per species graph.
    pub group_of_node: HashMap<String, Vec<u32>>,
}

impl SpeciesPins {
    /// Generates PINs for `specs` (largest first recommended) sharing one
    /// ancestor, with `n_pathways` planted modules of `pathway_size`
    /// groups each.
    pub fn generate(
        seed: u64,
        specs: &[PinSpec],
        n_pathways: usize,
        pathway_size: usize,
    ) -> SpeciesPins {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // The ancestor is larger than any species: real BIND networks for
        // different species cover substantially different protein sets, so
        // only part of a query PIN has counterparts in the target — which
        // is why the paper's matches are small fractions of the graphs.
        let ancestor_nodes = specs.iter().map(|s| s.nodes).max().unwrap_or(100) * 8 / 5;
        let ancestor_edges = specs.iter().map(|s| s.edges).max().unwrap_or(150) * 8 / 5;
        // Ancestor labels are irrelevant (groups are node ids); grow with
        // one label then relabel by node id below.
        let m = ((ancestor_edges as f64 / ancestor_nodes as f64).ceil() as usize).max(1) + 1;
        let factor = ancestor_edges as f64 / (ancestor_nodes as f64 * m as f64);
        let ancestor = preferential_attachment(&mut rng, ancestor_nodes, m, factor.min(1.0), 1);

        // Ortholog groups contain paralogs: ~PARALOG_FACTOR ancestor
        // proteins share each group. This ambiguity is what makes anchor
        // selection matter (§VI-D): a low-degree query node cannot tell
        // paralogous candidates apart, a hub's neighborhood can.
        let n_groups = (ancestor_nodes / PARALOG_FACTOR).max(1);
        let mut shuffled: Vec<u32> = (0..ancestor_nodes as u32).collect();
        shuffled.shuffle(&mut rng);
        let mut group_of_ancestor = vec![0u32; ancestor_nodes];
        for (rank, anc) in shuffled.into_iter().enumerate() {
            group_of_ancestor[anc as usize] = (rank % n_groups) as u32;
        }

        // plant pathways as random walks on the ancestor
        let mut pathways: Vec<Pathway> = Vec::with_capacity(n_pathways);
        let mut in_pathway: HashSet<u32> = HashSet::new();
        for p in 0..n_pathways {
            let mut walk: Vec<u32> = Vec::with_capacity(pathway_size);
            let mut cur = NodeId(rng.gen_range(0..ancestor.node_count() as u32));
            let mut seen = HashSet::new();
            for _ in 0..pathway_size * 4 {
                if walk.len() >= pathway_size {
                    break;
                }
                if seen.insert(cur) {
                    walk.push(cur.0);
                }
                let nbs: Vec<NodeId> = ancestor.neighbors(cur).collect();
                if nbs.is_empty() {
                    cur = NodeId(rng.gen_range(0..ancestor.node_count() as u32));
                } else {
                    cur = nbs[rng.gen_range(0..nbs.len())];
                }
            }
            in_pathway.extend(walk.iter().copied());
            pathways.push(Pathway {
                name: format!("pathway{p:03}"),
                groups: walk,
                members: HashMap::new(),
            });
        }

        // materialize each species
        let mut db = GraphDb::new();
        let mut species = HashMap::new();
        let mut group_of_node = HashMap::new();
        let mut group_pairs: Vec<(String, String)> = Vec::new();
        for spec in specs {
            let (g, kept, labels) = sample_species(
                &mut rng,
                &ancestor,
                spec,
                &in_pathway,
                &group_of_ancestor,
                &mut db,
            );
            for (label_name, group) in labels {
                group_pairs.push((label_name, format!("og{group}")));
            }
            let gid = db.insert(spec.name, g);
            species.insert(spec.name.to_owned(), gid);
            // record pathway membership (by ancestor protein, not group —
            // paralogs outside the module are not members)
            let mut node_of_ancestor: HashMap<u32, NodeId> = HashMap::new();
            for (node, ancestor_id, _) in kept.iter() {
                node_of_ancestor.insert(*ancestor_id, *node);
            }
            for pw in pathways.iter_mut() {
                let members: Vec<NodeId> = pw
                    .groups
                    .iter()
                    .filter_map(|a| node_of_ancestor.get(a).copied())
                    .collect();
                pw.members.insert(spec.name.to_owned(), members);
            }
            group_of_node.insert(spec.name.to_owned(), {
                let graph = db.graph(gid);
                let mut v = vec![0u32; graph.node_count()];
                for (node, _, group) in kept {
                    v[node.idx()] = group;
                }
                v
            });
        }
        db.set_group_by_names(&group_pairs)
            .expect("all species labels interned");
        SpeciesPins {
            db,
            species,
            pathways,
            group_of_node,
        }
    }
}

/// Expected paralogs per ortholog group in the ancestor.
const PARALOG_FACTOR: usize = 6;

/// Per-node assignment produced by [`sample_species`]: which species node
/// came from which ancestor protein, and its ortholog group.
type KeptNodes = Vec<(NodeId, u32, u32)>;
/// `(label name, group id)` vocabulary additions for the group map.
type LabelGroups = Vec<(String, u32)>;

/// Samples one species from the ancestor. Returns the graph, the
/// `(node, ancestor id, group)` assignment, and the `(label name, group)`
/// vocabulary additions.
fn sample_species(
    rng: &mut ChaCha8Rng,
    ancestor: &Graph,
    spec: &PinSpec,
    in_pathway: &HashSet<u32>,
    group_of_ancestor: &[u32],
    db: &mut GraphDb,
) -> (Graph, KeptNodes, LabelGroups) {
    let n_anc = ancestor.node_count();
    let keep_n = spec.nodes.min(n_anc);
    // Coverage of a real PIN is *patchy but locally dense*: studies map
    // whole complexes, so kept proteins cluster. Sampling: (1) pathway
    // nodes survive with probability 0.6 (conserved modules are studied
    // more, but coverage stays incomplete); (2) BFS patches around random
    // seeds fill most of the budget, keeping induced interactions dense;
    // (3) uniform leftovers model scattered single-protein studies.
    let mut taken = vec![false; n_anc];
    let mut selected: Vec<u32> = Vec::with_capacity(keep_n);
    let mut pathway_nodes: Vec<u32> = in_pathway.iter().copied().collect();
    pathway_nodes.sort_unstable();
    pathway_nodes.shuffle(rng);
    // Scattered pathway-node survivals take at most ~30% of the budget so
    // small networks still consist mostly of coherent patches.
    let pathway_cap = (keep_n * 3 / 10).max(1);
    for id in pathway_nodes {
        if selected.len() >= pathway_cap {
            break;
        }
        if rng.gen_bool(0.6) && !taken[id as usize] {
            taken[id as usize] = true;
            selected.push(id);
        }
    }
    let patch_budget = keep_n * 9 / 10;
    let mut guard = 0;
    while selected.len() < patch_budget && guard < keep_n * 4 {
        guard += 1;
        let start = rng.gen_range(0..n_anc as u32);
        if taken[start as usize] {
            continue;
        }
        let patch_size = rng.gen_range(20..=120).min(keep_n - selected.len());
        let mut queue = std::collections::VecDeque::from([NodeId(start)]);
        let mut grabbed = 0;
        while let Some(u) = queue.pop_front() {
            if grabbed >= patch_size {
                break;
            }
            if taken[u.idx()] {
                continue;
            }
            taken[u.idx()] = true;
            selected.push(u.0);
            grabbed += 1;
            for v in ancestor.neighbors(u) {
                if !taken[v.idx()] {
                    queue.push_back(v);
                }
            }
        }
    }
    while selected.len() < keep_n {
        let id = rng.gen_range(0..n_anc as u32);
        if !taken[id as usize] {
            taken[id as usize] = true;
            selected.push(id);
        }
    }
    let kept_ancestors = selected;
    let kept_set: HashMap<u32, usize> = kept_ancestors
        .iter()
        .enumerate()
        .map(|(i, &g)| (g, i))
        .collect();

    let mut g = Graph::new_undirected();
    let mut kept = Vec::with_capacity(keep_n);
    let mut labels = Vec::with_capacity(keep_n);
    for (i, &ancestor_id) in kept_ancestors.iter().enumerate() {
        let group = group_of_ancestor[ancestor_id as usize];
        let label_name = format!("{}:p{ancestor_id}", spec.name);
        let label = db.intern_node_label(&label_name);
        let node = g.add_node(label);
        debug_assert_eq!(node.idx(), i);
        kept.push((node, ancestor_id, group));
        labels.push((label_name, group));
    }
    // project ancestor edges with retention probability targeting the edge
    // budget; pathway-internal edges retained preferentially.
    let mut candidate_edges: Vec<(usize, usize, bool)> = Vec::new();
    for (u, v, _) in ancestor.edges() {
        if let (Some(&iu), Some(&iv)) = (kept_set.get(&u.0), kept_set.get(&v.0)) {
            let conserved = in_pathway.contains(&u.0) && in_pathway.contains(&v.0);
            candidate_edges.push((iu, iv, conserved));
        }
    }
    let target = spec.edges;
    // Conserved (pathway-internal) edges get a retention boost but are not
    // guaranteed; detection noise hits them too.
    candidate_edges.shuffle(rng);
    let mut scored: Vec<(bool, (usize, usize))> = candidate_edges
        .iter()
        .map(|&(iu, iv, c)| (c && rng.gen_bool(0.75), (iu, iv)))
        .collect();
    scored.sort_by_key(|&(p, _)| !p);
    // ~90% of the edge budget comes from true ancestor interactions; the
    // rest are spurious (the paper's false-positive rate, §I/§VI-A)
    let projected = (target * 9) / 10;
    for &(_, (iu, iv)) in scored.iter().take(projected) {
        let (u, v) = (NodeId(iu as u32), NodeId(iv as u32));
        if !g.has_edge(u, v) {
            g.add_edge(u, v).expect("simple by construction");
        }
    }
    // top up with spurious edges (false positives) to reach the budget
    let mut guard = 0;
    while g.edge_count() < target && guard < target * 30 {
        guard += 1;
        let u = NodeId(rng.gen_range(0..g.node_count() as u32));
        let v = NodeId(rng.gen_range(0..g.node_count() as u32));
        if u != v && !g.has_edge(u, v) {
            g.add_edge(u, v).expect("checked");
        }
    }
    (g, kept, labels)
}

/// The Table III / Fig. 6 scalability corpus: `n` PINs with sizes spread
/// from tens to thousands of nodes (largest = Table I human scale),
/// packaged as nested datasets D1 ⊂ D2 ⊂ D3 ⊂ D4 per the paper's
/// footnote 3.
pub struct PinCorpus {
    /// All graphs, one label vocabulary (groups = ortholog ids).
    pub db: GraphDb,
    /// Graph ids of each nested dataset: `datasets[0]` = D1 … `[3]` = D4.
    pub datasets: Vec<Vec<GraphId>>,
}

impl PinCorpus {
    /// Generates the 40-PIN corpus. `scale` in (0, 1] shrinks every graph
    /// proportionally (for quick runs); 1.0 = the paper's sizes.
    pub fn generate(seed: u64, n_graphs: usize, scale: f64) -> PinCorpus {
        assert!(n_graphs >= 4, "need at least one graph per dataset");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut db = GraphDb::new();
        // size ladder: smallest 45/105 nodes/edges to largest 8470/11260,
        // geometric interpolation, matching the paper's reported spread.
        let mut sizes: Vec<(usize, usize)> = (0..n_graphs)
            .map(|i| {
                let t = i as f64 / (n_graphs - 1).max(1) as f64;
                let nodes = 45.0 * (8470.0f64 / 45.0).powf(t);
                let edges = 105.0 * (11260.0f64 / 105.0).powf(t);
                (
                    ((nodes * scale).round() as usize).max(10),
                    ((edges * scale).round() as usize).max(12),
                )
            })
            .collect();
        sizes.shuffle(&mut rng);

        // All PINs descend from one ancestor network (as BIND's species
        // PINs overlap through orthologs), so a D1 query finds partial
        // matches across the corpus — giving Fig. 6 its result-cardinality
        // effects rather than each graph matching only itself.
        let anc_nodes = ((8470.0 * scale).round() as usize).max(60);
        let anc_edges = ((11260.0 * scale).round() as usize).max(90);
        let m = (anc_edges as f64 / anc_nodes as f64).ceil() as usize + 1;
        let factor = anc_edges as f64 / (anc_nodes as f64 * m as f64);
        let ancestor = preferential_attachment(&mut rng, anc_nodes, m, factor.min(1.0), 1);

        let mut ids: Vec<GraphId> = Vec::with_capacity(n_graphs);
        for (i, (nodes, edges)) in sizes.iter().enumerate() {
            let name = format!("pin{i:02}");
            let g = sample_patch_network(&mut rng, &ancestor, *nodes, *edges, &name, &mut db);
            ids.push(db.insert(name, g));
        }

        // split into 4 balanced groups of n/4, then nest them (footnote 3)
        let mut order: Vec<GraphId> = ids.clone();
        order.sort_by_key(|&g| std::cmp::Reverse(db.graph(g).node_count()));
        let mut groups: Vec<Vec<GraphId>> = vec![Vec::new(); 4];
        // snake distribution balances total node counts
        for (i, gid) in order.into_iter().enumerate() {
            let slot = match (i / 4) % 2 {
                0 => i % 4,
                _ => 3 - (i % 4),
            };
            groups[slot].push(gid);
        }
        let mut datasets: Vec<Vec<GraphId>> = Vec::with_capacity(4);
        let mut acc: Vec<GraphId> = Vec::new();
        for g in groups {
            acc.extend(g);
            datasets.push(acc.clone());
        }
        PinCorpus { db, datasets }
    }

    /// The query workload of Fig. 6: the graphs of D1, smallest first.
    /// The paper's ten queries span 63..3059 nodes — the giant human-scale
    /// PIN sits in the database but is never queried — so `max_nodes`
    /// (e.g. `3100 × scale`) drops D1 members above that size.
    pub fn queries(&self, max_nodes: Option<usize>) -> Vec<GraphId> {
        let mut q: Vec<GraphId> = self.datasets[0]
            .iter()
            .copied()
            .filter(|&g| !max_nodes.is_some_and(|m| self.db.graph(g).node_count() > m))
            .collect();
        q.sort_by_key(|&g| self.db.graph(g).node_count());
        q
    }
}

/// Fraction of a corpus PIN's proteins that keep their shared ortholog
/// label; the rest are species-specific. Real cross-species PINs overlap
/// only through conserved orthologs, so queries produce *partial* matches
/// of varying cardinality (the Fig. 6 discussion) rather than containing
/// every other graph outright.
const SHARED_ORTHOLOG_FRACTION: f64 = 0.5;

/// Samples one corpus PIN from the ancestor: BFS patches of kept nodes,
/// induced ancestor interactions up to ~90% of the edge budget, spurious
/// top-up for the rest. A [`SHARED_ORTHOLOG_FRACTION`] of nodes keep the
/// shared `og<ancestor-id>` label; the rest get `<name>:p<id>` labels
/// private to this graph.
fn sample_patch_network(
    rng: &mut ChaCha8Rng,
    ancestor: &Graph,
    nodes: usize,
    edges: usize,
    name: &str,
    db: &mut GraphDb,
) -> Graph {
    let n_anc = ancestor.node_count();
    let keep_n = nodes.min(n_anc);
    let mut taken = vec![false; n_anc];
    let mut selected: Vec<u32> = Vec::with_capacity(keep_n);
    let mut guard = 0;
    while selected.len() < keep_n * 9 / 10 && guard < keep_n * 4 {
        guard += 1;
        let start = rng.gen_range(0..n_anc as u32);
        if taken[start as usize] {
            continue;
        }
        let patch = rng.gen_range(15..=100).min(keep_n - selected.len());
        let mut queue = std::collections::VecDeque::from([NodeId(start)]);
        let mut grabbed = 0;
        while let Some(u) = queue.pop_front() {
            if grabbed >= patch {
                break;
            }
            if taken[u.idx()] {
                continue;
            }
            taken[u.idx()] = true;
            selected.push(u.0);
            grabbed += 1;
            for v in ancestor.neighbors(u) {
                if !taken[v.idx()] {
                    queue.push_back(v);
                }
            }
        }
    }
    while selected.len() < keep_n {
        let id = rng.gen_range(0..n_anc as u32);
        if !taken[id as usize] {
            taken[id as usize] = true;
            selected.push(id);
        }
    }

    let mut g = Graph::new_undirected();
    let mut index_of: HashMap<u32, NodeId> = HashMap::with_capacity(keep_n);
    for &anc in &selected {
        let label_name = if rng.gen_bool(SHARED_ORTHOLOG_FRACTION) {
            format!("og{anc}")
        } else {
            format!("{name}:p{anc}")
        };
        let label = db.intern_node_label(&label_name);
        index_of.insert(anc, g.add_node(label));
    }
    let mut candidates: Vec<(NodeId, NodeId)> = Vec::new();
    for (u, v, _) in ancestor.edges() {
        if let (Some(&nu), Some(&nv)) = (index_of.get(&u.0), index_of.get(&v.0)) {
            candidates.push((nu, nv));
        }
    }
    candidates.shuffle(rng);
    for &(u, v) in candidates.iter().take(edges * 9 / 10) {
        if !g.has_edge(u, v) {
            g.add_edge(u, v).expect("simple");
        }
    }
    let mut guard = 0;
    while g.edge_count() < edges && guard < edges * 30 && g.node_count() >= 2 {
        guard += 1;
        let u = NodeId(rng.gen_range(0..g.node_count() as u32));
        let v = NodeId(rng.gen_range(0..g.node_count() as u32));
        if u != v && !g.has_edge(u, v) {
            g.add_edge(u, v).expect("checked");
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mammal_pins_match_table1_sizes() {
        let pins = SpeciesPins::generate(1, &[RAT, MOUSE], 10, 8);
        let rat = pins.db.graph(pins.species["rat"]);
        assert_eq!(rat.node_count(), RAT.nodes);
        // edge budget approached within a few percent
        assert!(
            (rat.edge_count() as f64 - RAT.edges as f64).abs() / RAT.edges as f64 <= 0.05,
            "rat edges {}",
            rat.edge_count()
        );
    }

    #[test]
    fn groups_connect_species() {
        let pins = SpeciesPins::generate(2, &[MOUSE, RAT], 10, 8);
        assert!(pins.db.has_groups());
        // every rat node shares its group with the co-numbered mouse node
        // when both kept the same ancestor protein
        let rat_groups = &pins.group_of_node["rat"];
        let mouse_groups = &pins.group_of_node["mouse"];
        let rat_gid = pins.species["rat"];
        let mouse_gid = pins.species["mouse"];
        let mut shared = 0;
        for (ri, rg) in rat_groups.iter().enumerate() {
            if let Some(mi) = mouse_groups.iter().position(|mg| mg == rg) {
                shared += 1;
                assert_eq!(
                    pins.db.effective_label(rat_gid, NodeId(ri as u32)),
                    pins.db.effective_label(mouse_gid, NodeId(mi as u32)),
                    "group labels disagree"
                );
            }
        }
        assert!(shared > RAT.nodes / 2, "too few shared orthologs: {shared}");
    }

    #[test]
    fn pathways_have_members_in_all_species() {
        let pins = SpeciesPins::generate(3, &[MOUSE, RAT], 20, 10);
        let with_both = pins
            .pathways
            .iter()
            .filter(|p| p.members["mouse"].len() >= 3 && p.members["rat"].len() >= 3)
            .count();
        assert!(with_both >= 15, "only {with_both} pathways present in both");
    }

    #[test]
    fn pin_degree_distribution_is_skewed() {
        let pins = SpeciesPins::generate(4, &[MOUSE], 10, 8);
        let g = pins.db.graph(pins.species["mouse"]);
        let mut degs: Vec<usize> = g.nodes().map(|n| g.degree(n)).collect();
        degs.sort_unstable_by(|a, b| b.cmp(a));
        assert!(degs[0] >= 10, "expected hubs, max degree {}", degs[0]);
        let median = degs[degs.len() / 2];
        assert!(degs[0] >= 5 * median.max(1));
    }

    #[test]
    fn corpus_nested_and_balanced() {
        let c = PinCorpus::generate(5, 16, 0.05);
        assert_eq!(c.datasets.len(), 4);
        for w in c.datasets.windows(2) {
            assert!(w[0].len() < w[1].len());
            assert!(w[0].iter().all(|g| w[1].contains(g)), "not nested");
        }
        assert_eq!(c.datasets[3].len(), 16);
        // queries ascend in size
        let q = c.queries(None);
        let sizes: Vec<usize> = q.iter().map(|&g| c.db.graph(g).node_count()).collect();
        assert!(sizes.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn corpus_scale_shrinks() {
        let small = PinCorpus::generate(6, 8, 0.02);
        let max_nodes = small
            .db
            .iter()
            .map(|(_, _, g)| g.node_count())
            .max()
            .unwrap();
        assert!(max_nodes < 400, "scale ignored: {max_nodes}");
    }
}
