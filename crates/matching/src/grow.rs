//! Growing graph matches from anchors — §V-C, Algorithms 2, 3 and 4.
//!
//! [`grow_match`] is Algorithm 2 (`GrowMatch`): anchors go into a priority
//! queue ordered by node-match quality; the best is popped, committed, and
//! `ExamineNodesNearBy` (Algorithm 3) tries to match nodes near the popped
//! pair — query nodes one or two hops out against database nodes one or
//! two hops out, in the paper's three pairings (1q×1db, 1q×2db, 2q×1db).
//! `MatchNodes` (Algorithm 4) picks, for each query node, the best
//! *satisfiable* database node, replacing queued candidates when a better
//! match appears.
//!
//! "Satisfiable" follows the index conditions (IV.1–IV.4) evaluated
//! exactly on the two graphs: same effective label, degree and
//! neighbor-connection within the `ρ` budgets, and neighbor-label misses
//! within `nbmiss`. Match quality is Eq. IV.5. A pair's quality does not
//! depend on the match, so [`CandidateScorer`] evaluates every (query node,
//! same-label target node) pair once, into a candidate relation: one row of
//! accepted `(target, quality)` pairs per query node, ascending by target.
//! Each test is a lookup in per-graph [`SignatureTable`]s; IV.3 is filtered
//! with a 64-bit neighbor-label mask popcount before it is verified
//! exactly. `MatchNodes` walks a query node's row against the free
//! frontier targets, marked with an epoch stamp; the residual re-anchoring
//! of `tale`'s engine filters the same rows. The scorer also memoizes each
//! node's 1-hop and `2..=hops` rings, so the frontiers of every pop of the
//! first growth and of each re-growth come from one breadth-first search
//! per node.

use serde::Serialize;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use tale_graph::neighborhood::{miss_budgets, node_match_quality};
use tale_graph::{Graph, LabelBuckets, NodeId, NodeSignature, RingScratch, SignatureTable};

/// An anchor match produced by step 1 (index probe + bipartite matching).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Anchor {
    /// Query node.
    pub query: NodeId,
    /// Matched database node.
    pub target: NodeId,
    /// Node-match quality (Eq. IV.5).
    pub quality: f64,
}

/// One committed node match in the final graph match.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct MatchPair {
    /// Query node.
    pub query: NodeId,
    /// Database node.
    pub target: NodeId,
    /// Node-match quality at commit time.
    pub quality: f64,
}

/// A grown approximate subgraph match.
#[derive(Debug, Clone, Default, Serialize)]
pub struct GraphMatch {
    /// Committed one-to-one node matches, in commit (quality) order.
    pub pairs: Vec<MatchPair>,
}

impl GraphMatch {
    /// Number of matched nodes.
    pub fn matched_nodes(&self) -> usize {
        self.pairs.len()
    }

    /// Number of query edges preserved by the mapping: `(u,v) ∈ Eq` with
    /// both endpoints matched and `(λu, λv) ∈ Edb`.
    pub fn matched_edges(&self, query: &Graph, target: &Graph) -> usize {
        let mut map = vec![None; query.node_count()];
        for p in &self.pairs {
            map[p.query.idx()] = Some(p.target);
        }
        query
            .edges()
            .filter(|&(u, v, _)| {
                matches!((map[u.idx()], map[v.idx()]), (Some(mu), Some(mv)) if target.has_edge(mu, mv))
            })
            .count()
    }

    /// The target node matched to a query node, if any.
    pub fn target_of(&self, q: NodeId) -> Option<NodeId> {
        self.pairs.iter().find(|p| p.query == q).map(|p| p.target)
    }

    /// Sum of node qualities (a cheap default ranking signal).
    pub fn quality_sum(&self) -> f64 {
        self.pairs.iter().map(|p| p.quality).sum()
    }
}

/// Configuration for the growth phase.
#[derive(Debug, Clone, Copy)]
pub struct GrowConfig {
    /// Approximation ratio ρ (fraction of query neighbors allowed missing).
    pub rho: f64,
    /// Examine nodes up to this many hops away. The paper fixes 2 and
    /// notes the algorithm generalizes to more hops "to allow more
    /// approximation (at the expense of an increased computational
    /// cost)"; 1 is the cheaper ablation, 3+ the generalized variant.
    pub hops: u8,
    /// Compare (neighbor label, edge label) pairs instead of bare
    /// neighbor labels in condition IV.3's exact evaluation — the
    /// extended paper's labeled-edge matching.
    pub match_edge_labels: bool,
}

impl Default for GrowConfig {
    fn default() -> Self {
        GrowConfig {
            rho: 0.25,
            hops: 2,
            match_edge_labels: false,
        }
    }
}

/// Everything the growth phase needs to know about the two graphs.
/// Label closures return *effective* labels so the §IV-E group model works.
pub struct GrowInput<'a> {
    /// The query graph.
    pub query: &'a Graph,
    /// The database graph being matched.
    pub target: &'a Graph,
    /// Effective label of a query node.
    pub q_label: &'a dyn Fn(NodeId) -> u32,
    /// Effective label of a target node.
    pub t_label: &'a dyn Fn(NodeId) -> u32,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct QueueEntry {
    quality: f64,
    generation: u64,
    query: NodeId,
    target: NodeId,
}

impl Eq for QueueEntry {}

impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // max-heap by quality; deterministic tie-breaks (older generation,
        // then smaller ids first).
        self.quality
            .partial_cmp(&other.quality)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.generation.cmp(&self.generation))
            .then_with(|| other.query.cmp(&self.query))
            .then_with(|| other.target.cmp(&self.target))
    }
}

impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Both graphs' sorted, deduplicated neighbor (label[, edge label]) lists —
/// the sets condition IV.3 compares exactly — each built the first time a
/// pair involving its node survives every cheaper test.
struct LabelLists {
    with_edges: bool,
    query: Vec<Option<Box<[u64]>>>,
    target: Vec<Option<Box<[u64]>>>,
}

impl LabelLists {
    fn new(input: &GrowInput<'_>, with_edges: bool) -> Self {
        LabelLists {
            with_edges,
            query: vec![None; input.query.node_count()],
            target: vec![None; input.target.node_count()],
        }
    }

    /// IV.3's exact miss count of `nq → nt`: `nq`'s list entries absent
    /// from `nt`'s.
    fn misses(&mut self, input: &GrowInput<'_>, nq: NodeId, nt: NodeId) -> u32 {
        let with_edges = self.with_edges;
        let q = self.query[nq.idx()]
            .get_or_insert_with(|| label_list(input.query, input.q_label, nq, with_edges));
        let t = self.target[nt.idx()]
            .get_or_insert_with(|| label_list(input.target, input.t_label, nt, with_edges));
        sorted_misses(q, t)
    }
}

/// `n`'s sorted, deduplicated neighbor labels, each paired with its edge's
/// label (`0` for none) when `with_edges`.
fn label_list(
    g: &Graph,
    label_of: &dyn Fn(NodeId) -> u32,
    n: NodeId,
    with_edges: bool,
) -> Box<[u64]> {
    let mut v: Vec<u64> = if with_edges {
        g.neighbor_edges(n)
            .map(|(nb, eid)| {
                ((label_of(nb) as u64) << 32)
                    | g.edge_label(eid).map(|l| l.0 as u64 + 1).unwrap_or(0)
            })
            .collect()
    } else {
        g.neighbors(n).map(|nb| label_of(nb) as u64).collect()
    };
    v.sort_unstable();
    v.dedup();
    v.into_boxed_slice()
}

/// Count of sorted-deduped `q` entries absent from sorted-deduped `t`.
fn sorted_misses(q: &[u64], t: &[u64]) -> u32 {
    let mut misses = 0;
    let mut ti = 0;
    for &l in q {
        while ti < t.len() && t[ti] < l {
            ti += 1;
        }
        if ti >= t.len() || t[ti] != l {
            misses += 1;
        }
    }
    misses
}

/// One graph's rings ([`Graph::rings_into`]) at one radius, each computed
/// the first time its node is asked for and kept in one arena.
#[derive(Default)]
struct RingMemo {
    hops: u8,
    /// Per node, `(start, split, end)` in `arena`: the 1-hop ring is
    /// `arena[start..split]`, the `2..=hops` ring `arena[split..end]`.
    /// Empty until the first ask; `None` for a node not asked yet.
    spans: Vec<Option<(u32, u32, u32)>>,
    arena: Vec<NodeId>,
    scratch: RingScratch,
}

impl RingMemo {
    /// `n`'s 1-hop and `2..=hops` rings in `g`, both ascending.
    fn rings(&mut self, g: &Graph, n: NodeId, hops: u8) -> (&[NodeId], &[NodeId]) {
        if self.spans.is_empty() || self.hops != hops {
            self.hops = hops;
            self.spans.clear();
            self.spans.resize(g.node_count(), None);
            self.arena.clear();
        }
        let (start, split, end) = match self.spans[n.idx()] {
            Some(span) => span,
            None => {
                let start = self.arena.len();
                let split = g.rings_into(n, hops, &mut self.scratch, &mut self.arena);
                let offset = |i: usize| u32::try_from(i).expect("ring arena under 2^32 nodes");
                let span = (offset(start), offset(split), offset(self.arena.len()));
                self.spans[n.idx()] = Some(span);
                span
            }
        };
        let arena = &self.arena;
        (
            &arena[start as usize..split as usize],
            &arena[split as usize..end as usize],
        )
    }
}

/// Evaluates whether mapping `nq → nt` is satisfiable under the `ρ` budget
/// and, if so, its quality — the exact-graph analogue of the index probe
/// conditions IV.1–IV.4 plus Eq. IV.5. Builds both graphs' tables and the
/// whole candidate relation for one pair; score many pairs through one
/// [`CandidateScorer`].
pub fn candidate_quality(
    input: &GrowInput<'_>,
    config: &GrowConfig,
    nq: NodeId,
    nt: NodeId,
) -> Option<f64> {
    CandidateScorer::new(input).quality(input, config, nq, nt)
}

/// One query node's side of conditions IV.2–IV.4, hoisted out of the loop
/// over its label bucket.
struct QueryNode {
    id: NodeId,
    degree: u32,
    /// IV.2/IV.3's budget of missing neighbors, `⌊ρ · degree⌋`.
    nbmiss: u32,
    /// IV.4's budget of missing neighbor connections under `nbmiss`.
    nbcmiss: u32,
    sig: NodeSignature,
}

impl QueryNode {
    fn new(input: &GrowInput<'_>, rho: f64, sigs: &SignatureTable, id: NodeId) -> Self {
        let degree = input.query.degree(id) as u32;
        let (nbmiss, nbcmiss) = miss_budgets(degree, rho);
        QueryNode {
            id,
            degree,
            nbmiss,
            nbcmiss,
            sig: sigs.get(id),
        }
    }
}

/// Satisfiability + Eq. IV.5 quality of mapping `q → nt`, for a pair
/// already known to pass IV.1: IV.2 on degrees, IV.4 on neighbor
/// connections, then IV.3 first as a popcount over the folded
/// neighbor-label masks and only for survivors exactly.
fn same_label_quality(
    input: &GrowInput<'_>,
    q: &QueryNode,
    nt: NodeId,
    ts: NodeSignature,
    lists: &mut LabelLists,
) -> Option<f64> {
    let t_deg = input.target.degree(nt) as u32;
    if t_deg + q.nbmiss < q.degree {
        return None; // IV.2
    }
    if ts.nb_connection + q.nbcmiss < q.sig.nb_connection {
        return None; // IV.4
    }
    // IV.3 filter: a mask bit the target lacks names a neighbor label no
    // target neighbor carries, so at least one query neighbor label (or
    // label, edge label pair) is missing per such bit — the popcount never
    // exceeds the exact miss count below.
    if (q.sig.label_mask & !ts.label_mask).count_ones() > q.nbmiss {
        return None;
    }
    // IV.3 verified exactly on neighbor (label[, edge label]) sets.
    let label_misses = lists.misses(input, q.id, nt);
    if label_misses > q.nbmiss {
        return None;
    }
    Some(node_match_quality(
        q.degree,
        q.sig.nb_connection,
        label_misses.max(q.degree.saturating_sub(t_deg)),
        q.sig.nb_connection.saturating_sub(ts.nb_connection),
    ))
}

/// The candidate relation of one `(query, target)` pair: per query node, a
/// row of every target node that passes IV.1–IV.4 with it, with the pair's
/// Eq. IV.5 quality, ascending by target id (its label bucket's order).
/// A pair's quality does not depend on the match, so one relation serves
/// every growth and residual scan of the pair.
#[derive(Default)]
struct Relation {
    /// The `(ρ bits, match_edge_labels)` the rows hold; `None` until built.
    key: Option<(u64, bool)>,
    /// Query node `q`'s row is `pairs[starts[q]..starts[q + 1]]`.
    starts: Vec<usize>,
    pairs: Vec<(NodeId, f64)>,
}

impl Relation {
    fn row(&self, q: NodeId) -> &[(NodeId, f64)] {
        &self.pairs[self.starts[q.idx()]..self.starts[q.idx() + 1]]
    }
}

/// Target nodes marked free for one [`match_nodes`] call. A node is marked
/// while its stamp equals the current epoch, so starting a call unmarks
/// every node at once.
struct Marks {
    stamps: Vec<u32>,
    epoch: u32,
}

impl Marks {
    fn new(n: usize) -> Self {
        Marks {
            stamps: vec![0; n],
            epoch: 0,
        }
    }

    /// Unmarks every node.
    fn reset(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamps.fill(0);
            self.epoch = 1;
        }
    }

    fn mark(&mut self, n: NodeId) {
        self.stamps[n.idx()] = self.epoch;
    }

    fn unmark(&mut self, n: NodeId) {
        self.stamps[n.idx()] = 0;
    }

    fn is_marked(&self, n: NodeId) -> bool {
        self.stamps[n.idx()] == self.epoch
    }
}

/// The candidate relation of one `(query, target)` pair and the growth
/// state that is reused across its growths.
///
/// The relation is built on first use for the scorer's ρ and
/// `match_edge_labels` (and rebuilt if either changes): per query node,
/// one pass over the target's label bucket for its effective label with
/// the node's degree, budgets and signature hoisted — IV.2 on degrees, IV.4
/// on neighbor connections, IV.3 first as a popcount over the folded
/// neighbor-label masks and only for survivors exactly, on sorted
/// neighbor-label lists built once per node. [`grow_match_with`]'s
/// `MatchNodes` walks these rows against the free frontier, the residual
/// re-anchoring filters them, and [`quality`](Self::quality) looks pairs up
/// in them. The signature tables and label buckets are borrowed when the
/// caller keeps them (a database graph's, a query's for a whole batch) and
/// built by [`CandidateScorer::new`] otherwise. The growth frontiers come
/// from per-node rings memoized here as well (recomputed if `hops`
/// changes). Everything cached assumes the same graphs and label closures
/// on every call and depends on nothing else, so sharing a scorer never
/// changes a result.
pub struct CandidateScorer<'a> {
    q_sigs: Cow<'a, SignatureTable>,
    t_sigs: Cow<'a, SignatureTable>,
    buckets: Cow<'a, LabelBuckets>,
    relation: Relation,
    /// `MatchNodes`' free frontier targets.
    free: Marks,
    q_rings: RingMemo,
    t_rings: RingMemo,
}

impl<'a> CandidateScorer<'a> {
    /// A scorer for `input`'s two graphs, building their signature tables
    /// and the target's label buckets.
    pub fn new(input: &GrowInput<'_>) -> Self {
        Self::from_tables(
            input,
            Cow::Owned(SignatureTable::build(input.query, input.q_label)),
            Cow::Owned(SignatureTable::build(input.target, input.t_label)),
            Cow::Owned(LabelBuckets::build(input.target, input.t_label)),
        )
    }

    /// A scorer over prebuilt tables: `q_sigs` / `t_sigs` must be
    /// [`SignatureTable::build`] of `input`'s query / target under its
    /// `q_label` / `t_label`, and `buckets` [`LabelBuckets::build`] of the
    /// target under `t_label`.
    pub fn with_tables(
        input: &GrowInput<'_>,
        q_sigs: &'a SignatureTable,
        t_sigs: &'a SignatureTable,
        buckets: &'a LabelBuckets,
    ) -> Self {
        Self::from_tables(
            input,
            Cow::Borrowed(q_sigs),
            Cow::Borrowed(t_sigs),
            Cow::Borrowed(buckets),
        )
    }

    fn from_tables(
        input: &GrowInput<'_>,
        q_sigs: Cow<'a, SignatureTable>,
        t_sigs: Cow<'a, SignatureTable>,
        buckets: Cow<'a, LabelBuckets>,
    ) -> Self {
        CandidateScorer {
            q_sigs,
            t_sigs,
            buckets,
            relation: Relation::default(),
            free: Marks::new(input.target.node_count()),
            q_rings: RingMemo::default(),
            t_rings: RingMemo::default(),
        }
    }

    /// `nq`'s row of the candidate relation: every target node that passes
    /// IV.1–IV.4 with `nq` under `config`, with the pair's Eq. IV.5
    /// quality, ascending by id.
    pub fn candidates(
        &mut self,
        input: &GrowInput<'_>,
        config: &GrowConfig,
        nq: NodeId,
    ) -> &[(NodeId, f64)] {
        self.prepare(input, config);
        self.relation.row(nq)
    }

    /// Satisfiability + Eq. IV.5 quality of mapping `nq → nt`.
    pub fn quality(
        &mut self,
        input: &GrowInput<'_>,
        config: &GrowConfig,
        nq: NodeId,
        nt: NodeId,
    ) -> Option<f64> {
        let row = self.candidates(input, config, nq);
        let i = row.binary_search_by_key(&nt, |&(t, _)| t).ok()?;
        Some(row[i].1)
    }

    /// Builds the candidate relation for `config`'s ρ and IV.3 mode unless
    /// it already holds them.
    fn prepare(&mut self, input: &GrowInput<'_>, config: &GrowConfig) {
        let key = (config.rho.to_bits(), config.match_edge_labels);
        if self.relation.key == Some(key) {
            return;
        }
        let mut lists = LabelLists::new(input, config.match_edge_labels);
        let rel = &mut self.relation;
        rel.starts.clear();
        rel.pairs.clear();
        rel.starts.push(0);
        for nq in input.query.nodes() {
            let q = QueryNode::new(input, config.rho, &self.q_sigs, nq);
            // IV.1: the bucket holds exactly the same-label targets
            for &nt in self.buckets.nodes((input.q_label)(nq)) {
                if let Some(w) = same_label_quality(input, &q, nt, self.t_sigs.get(nt), &mut lists)
                {
                    rel.pairs.push((nt, w));
                }
            }
            rel.starts.push(rel.pairs.len());
        }
        rel.key = Some(key);
    }
}

struct GrowState {
    /// query → committed target
    q_matched: Vec<Option<NodeId>>,
    /// target → committed query
    t_matched: Vec<Option<NodeId>>,
    /// query → queued candidate (target, quality, conservation bonus,
    /// generation)
    q_queued: Vec<Option<(NodeId, f64, f64, u64)>>,
    /// target nodes referenced by the queue
    t_queued: Vec<bool>,
    heap: BinaryHeap<QueueEntry>,
    generation: u64,
}

impl GrowState {
    fn new(nq: usize, nt: usize) -> Self {
        GrowState {
            q_matched: vec![None; nq],
            t_matched: vec![None; nt],
            q_queued: vec![None; nq],
            t_queued: vec![false; nt],
            heap: BinaryHeap::new(),
            generation: 0,
        }
    }

    fn push(&mut self, q: NodeId, t: NodeId, quality: f64, bonus: f64) {
        self.generation += 1;
        self.q_queued[q.idx()] = Some((t, quality, bonus, self.generation));
        self.t_queued[t.idx()] = true;
        self.heap.push(QueueEntry {
            quality,
            generation: self.generation,
            query: q,
            target: t,
        });
    }

    /// Replaces q's queued candidate with a better one (Algorithm 4,
    /// lines 9–13). The stale heap entry is invalidated lazily via the
    /// generation stamp.
    fn replace(&mut self, q: NodeId, t: NodeId, quality: f64, bonus: f64) {
        if let Some((old_t, _, _, _)) = self.q_queued[q.idx()] {
            self.t_queued[old_t.idx()] = false;
        }
        self.push(q, t, quality, bonus);
    }
}

/// Algorithm 2 (`GrowMatch`): grows a full graph match from the anchors.
///
/// Anchors must reference valid nodes; conflicting anchors (duplicate query
/// or target nodes) are resolved in favor of higher quality.
pub fn grow_match(input: &GrowInput<'_>, config: &GrowConfig, anchors: &[Anchor]) -> GraphMatch {
    grow_match_with(input, config, anchors, &mut CandidateScorer::new(input))
}

/// [`grow_match`] scoring through `scorer`, so that repeated growths of
/// one `(query, target)` pair — and candidate scans between them — share
/// its signature tables and label lists. The result equals
/// [`grow_match`]'s.
pub fn grow_match_with(
    input: &GrowInput<'_>,
    config: &GrowConfig,
    anchors: &[Anchor],
    scorer: &mut CandidateScorer<'_>,
) -> GraphMatch {
    scorer.prepare(input, config);
    let mut st = GrowState::new(input.query.node_count(), input.target.node_count());

    // Line 1: seed the priority queue (dedup anchors best-first).
    let mut seeds: Vec<&Anchor> = anchors.iter().collect();
    seeds.sort_by(|a, b| {
        b.quality
            .partial_cmp(&a.quality)
            .unwrap_or(Ordering::Equal)
            .then(a.query.cmp(&b.query))
            .then(a.target.cmp(&b.target))
    });
    for a in seeds {
        if st.q_queued[a.query.idx()].is_none() && !st.t_queued[a.target.idx()] {
            st.push(a.query, a.target, a.quality, 0.0);
        }
    }

    let mut result = GraphMatch::default();
    let mut frontier = Frontier::default();
    // Lines 2–6: drain the queue.
    while let Some(entry) = st.heap.pop() {
        // lazy invalidation of replaced entries
        match st.q_queued[entry.query.idx()] {
            Some((t, _, _, gen)) if t == entry.target && gen == entry.generation => {}
            _ => continue,
        }
        st.q_queued[entry.query.idx()] = None;
        if st.q_matched[entry.query.idx()].is_some() || st.t_matched[entry.target.idx()].is_some() {
            continue;
        }
        st.q_matched[entry.query.idx()] = Some(entry.target);
        st.t_matched[entry.target.idx()] = Some(entry.query);
        result.pairs.push(MatchPair {
            query: entry.query,
            target: entry.target,
            quality: entry.quality,
        });
        examine_nodes_nearby(
            input,
            config,
            entry.query,
            entry.target,
            &mut st,
            &mut frontier,
            scorer,
        );
    }
    result
}

/// One growth's frontier buffers, refilled on every pop.
#[derive(Default)]
struct Frontier {
    nb1q: Vec<NodeId>,
    nb2q: Vec<NodeId>,
    nb1t: Vec<NodeId>,
    nb2t: Vec<NodeId>,
}

/// Algorithm 3 (`ExamineNodesNearBy`).
fn examine_nodes_nearby(
    input: &GrowInput<'_>,
    config: &GrowConfig,
    nq: NodeId,
    nt: NodeId,
    st: &mut GrowState,
    fr: &mut Frontier,
    scorer: &mut CandidateScorer<'_>,
) {
    let CandidateScorer {
        relation,
        free,
        q_rings,
        t_rings,
        ..
    } = scorer;
    // NB1q/NB2q: query nodes 1 / 2 hops out without committed matches.
    // The frontier is over the underlying undirected graph (upstream and
    // downstream are both "nearby"); direction re-enters through the
    // candidate conditions and edge-preservation scoring. Past 1 hop it is
    // exactly the 2-hop ring at the paper's default radius, extended to
    // `2..=hops` for the generalized variant. A query node with an empty
    // candidate row can match nothing, so it is left out.
    let (ring1, ring2) = q_rings.rings(input.query, nq, config.hops);
    let q_open = |n: &&NodeId| st.q_matched[n.idx()].is_none() && !relation.row(**n).is_empty();
    fr.nb1q.clear();
    fr.nb1q.extend(ring1.iter().filter(q_open));
    fr.nb2q.clear();
    fr.nb2q.extend(ring2.iter().filter(q_open));
    if fr.nb1q.is_empty() && fr.nb2q.is_empty() {
        return;
    }
    // NB1db/NB2db: target nodes without committed *or queued* matches.
    let (ring1, ring2) = t_rings.rings(input.target, nt, config.hops);
    let t_free = |n: &&NodeId| st.t_matched[n.idx()].is_none() && !st.t_queued[n.idx()];
    fr.nb1t.clear();
    fr.nb1t.extend(ring1.iter().filter(t_free));
    fr.nb2t.clear();
    fr.nb2t.extend(ring2.iter().filter(t_free));
    let Frontier {
        nb1q,
        nb2q,
        nb1t,
        nb2t,
    } = fr;
    // The paper's three pairings (lines 5–7): 1×1, 1×2, 2×1. With
    // `hops < 2` both 2-hop frontiers are empty and only 1×1 remains.
    match_nodes(input, nb1q, nb1t, st, relation, free);
    match_nodes(input, nb1q, nb2t, st, relation, free);
    match_nodes(input, nb2q, nb1t, st, relation, free);
}

/// Conserved-edge bonus: among `q`'s already-committed neighbors, the
/// fraction whose images are adjacent to `t`. Breaks paralog ties in favor
/// of the candidate that preserves the edges the match already committed
/// to — the structural signal Eq. IV.5's purely local stats cannot see.
fn conservation_bonus(input: &GrowInput<'_>, st: &GrowState, q: NodeId, t: NodeId) -> f64 {
    let mut committed = 0u32;
    let mut conserved = 0u32;
    for qn in input.query.neighbors(q) {
        if let Some(tm) = st.q_matched[qn.idx()] {
            committed += 1;
            if input.target.has_edge(t, tm) {
                conserved += 1;
            }
        }
    }
    // directed graphs: incoming edges are conserved structure too
    if input.query.is_directed() {
        for qn in input.query.in_neighbors(q) {
            if let Some(tm) = st.q_matched[qn.idx()] {
                committed += 1;
                if input.target.has_edge(tm, t) {
                    conserved += 1;
                }
            }
        }
    }
    if committed == 0 {
        0.0
    } else {
        conserved as f64 / committed as f64
    }
}

/// Algorithm 4 (`MatchNodes`): each free query node of `sq` takes its best
/// candidate among `st_nodes`' free targets — its relation row, skipping
/// targets not marked in `free`.
fn match_nodes(
    input: &GrowInput<'_>,
    sq: &[NodeId],
    st_nodes: &[NodeId],
    st: &mut GrowState,
    relation: &Relation,
    free: &mut Marks,
) {
    free.reset();
    for &t in st_nodes {
        if st.t_matched[t.idx()].is_none() && !st.t_queued[t.idx()] {
            free.mark(t);
        }
    }
    for &q in sq {
        if st.q_matched[q.idx()].is_some() {
            continue;
        }
        // Best mapping of q among the free target nodes: Eq. IV.5 quality
        // first, conserved-edge fraction as the tie-breaker (distinguishes
        // paralogs with identical local statistics), node id last for
        // determinism. The order is total, so the row's order is not part
        // of the answer.
        let mut best: Option<(NodeId, f64, f64)> = None;
        for &(t, w) in relation.row(q) {
            if !free.is_marked(t) {
                continue;
            }
            let bonus = conservation_bonus(input, st, q, t);
            let better = match best {
                None => true,
                Some((bt, bw, bb)) => {
                    w > bw || (w == bw && (bonus > bb || (bonus == bb && t < bt)))
                }
            };
            if better {
                best = Some((t, w, bonus));
            }
        }
        let Some((t, w, bonus)) = best else { continue };
        match st.q_queued[q.idx()] {
            None => {
                st.push(q, t, w, bonus);
                free.unmark(t);
            }
            // Algorithm 4's "is a better node match": quality first, then
            // conserved-edge fraction — so a queued anchor whose quality
            // ties with the true counterpart (superset imposters score a
            // perfect 2.0 too) yields once the growth frontier shows the
            // true node conserves committed edges. The incumbent's bonus
            // must be re-evaluated against the *current* commits: its
            // stored value dates from when it was queued (anchors store
            // 0.0), and since queued targets are never marked free, a
            // stale bonus would let any challenger that conserves one
            // committed edge evict an incumbent that by now conserves just
            // as many.
            Some((old_t, old_w, _, _)) => {
                let old_b = conservation_bonus(input, st, q, old_t);
                if w > old_w || (w == old_w && bonus > old_b) {
                    st.replace(q, t, w, bonus);
                    free.unmark(t);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tale_graph::labels::NodeLabel;

    fn raw_label(g: &Graph) -> impl Fn(NodeId) -> u32 + '_ {
        move |n| g.label(n).0
    }

    /// Path graph with the given label sequence.
    fn path(labels: &[u32]) -> Graph {
        let mut g = Graph::new_undirected();
        let ids: Vec<_> = labels.iter().map(|&l| g.add_node(NodeLabel(l))).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1]).unwrap();
        }
        g
    }

    #[test]
    fn identical_graphs_fully_match() {
        let q = path(&[0, 1, 2, 3, 4]);
        let t = path(&[0, 1, 2, 3, 4]);
        let ql = raw_label(&q);
        let tl = raw_label(&t);
        let input = GrowInput {
            query: &q,
            target: &t,
            q_label: &ql,
            t_label: &tl,
        };
        let cfg = GrowConfig {
            rho: 0.0,
            hops: 2,
            match_edge_labels: false,
        };
        let anchors = [Anchor {
            query: NodeId(2),
            target: NodeId(2),
            quality: 2.0,
        }];
        let m = grow_match(&input, &cfg, &anchors);
        assert_eq!(m.matched_nodes(), 5);
        assert_eq!(m.matched_edges(&q, &t), 4);
        for p in &m.pairs {
            assert_eq!(p.query, p.target); // unique labels force identity
        }
    }

    #[test]
    fn injective_mapping_invariant() {
        let q = path(&[0, 0, 0, 0, 0, 0]);
        let t = path(&[0, 0, 0, 0, 0, 0, 0, 0]);
        let ql = raw_label(&q);
        let tl = raw_label(&t);
        let input = GrowInput {
            query: &q,
            target: &t,
            q_label: &ql,
            t_label: &tl,
        };
        let cfg = GrowConfig {
            rho: 0.5,
            hops: 2,
            match_edge_labels: false,
        };
        let anchors = [Anchor {
            query: NodeId(0),
            target: NodeId(3),
            quality: 2.0,
        }];
        let m = grow_match(&input, &cfg, &anchors);
        let mut qs: Vec<_> = m.pairs.iter().map(|p| p.query).collect();
        let mut ts: Vec<_> = m.pairs.iter().map(|p| p.target).collect();
        qs.sort();
        qs.dedup();
        ts.sort();
        ts.dedup();
        assert_eq!(qs.len(), m.pairs.len(), "query side not injective");
        assert_eq!(ts.len(), m.pairs.len(), "target side not injective");
    }

    #[test]
    fn grows_across_missing_node_via_two_hops() {
        // Query: path A-B-C. Target: A-X-B-C with an extra inserted node X
        // (different label) breaking adjacency. 2-hop extension should
        // still reach B from A.
        let q = path(&[0, 1, 2]);
        let mut t = Graph::new_undirected();
        let a = t.add_node(NodeLabel(0));
        let x = t.add_node(NodeLabel(9));
        let b = t.add_node(NodeLabel(1));
        let c = t.add_node(NodeLabel(2));
        t.add_edge(a, x).unwrap();
        t.add_edge(x, b).unwrap();
        t.add_edge(b, c).unwrap();
        let ql = raw_label(&q);
        let tl = raw_label(&t);
        let input = GrowInput {
            query: &q,
            target: &t,
            q_label: &ql,
            t_label: &tl,
        };
        let cfg = GrowConfig {
            rho: 1.0,
            hops: 2,
            match_edge_labels: false,
        };
        let anchors = [Anchor {
            query: NodeId(0),
            target: a,
            quality: 1.0,
        }];
        let m = grow_match(&input, &cfg, &anchors);
        assert_eq!(m.matched_nodes(), 3);
        assert_eq!(m.target_of(NodeId(1)), Some(b));
        assert_eq!(m.target_of(NodeId(2)), Some(c));

        // with hops = 1 the inserted node blocks the extension
        let cfg1 = GrowConfig {
            rho: 1.0,
            hops: 1,
            match_edge_labels: false,
        };
        let m1 = grow_match(&input, &cfg1, &anchors);
        assert_eq!(m1.matched_nodes(), 1);
    }

    #[test]
    fn three_hop_extension_bridges_two_insertions() {
        // Query: A-B. Target: A-X-Y-B — two inserted nodes in a row; only
        // the generalized 3-hop radius reaches B from A.
        let q = path(&[0, 1]);
        let mut t = Graph::new_undirected();
        let a = t.add_node(NodeLabel(0));
        let x = t.add_node(NodeLabel(8));
        let y = t.add_node(NodeLabel(9));
        let b = t.add_node(NodeLabel(1));
        t.add_edge(a, x).unwrap();
        t.add_edge(x, y).unwrap();
        t.add_edge(y, b).unwrap();
        let ql = raw_label(&q);
        let tl = raw_label(&t);
        let input = GrowInput {
            query: &q,
            target: &t,
            q_label: &ql,
            t_label: &tl,
        };
        let anchors = [Anchor {
            query: NodeId(0),
            target: a,
            quality: 1.0,
        }];
        let two = grow_match(
            &input,
            &GrowConfig {
                rho: 1.0,
                hops: 2,
                match_edge_labels: false,
            },
            &anchors,
        );
        assert_eq!(two.matched_nodes(), 1, "2-hop radius cannot bridge");
        let three = grow_match(
            &input,
            &GrowConfig {
                rho: 1.0,
                hops: 3,
                match_edge_labels: false,
            },
            &anchors,
        );
        assert_eq!(three.matched_nodes(), 2);
        assert_eq!(three.target_of(NodeId(1)), Some(b));
    }

    #[test]
    fn anchor_conflicts_resolved_by_quality() {
        let q = path(&[0, 1]);
        let t = path(&[0, 1]);
        let ql = raw_label(&q);
        let tl = raw_label(&t);
        let input = GrowInput {
            query: &q,
            target: &t,
            q_label: &ql,
            t_label: &tl,
        };
        let cfg = GrowConfig::default();
        // two anchors for the same query node; higher quality wins
        let anchors = [
            Anchor {
                query: NodeId(0),
                target: NodeId(0),
                quality: 1.0,
            },
            Anchor {
                query: NodeId(0),
                target: NodeId(0),
                quality: 1.8,
            },
        ];
        let m = grow_match(&input, &cfg, &anchors);
        assert_eq!(m.pairs[0].quality, 1.8);
        assert_eq!(m.matched_nodes(), 2);
    }

    #[test]
    fn label_mismatch_blocks_extension() {
        let q = path(&[0, 1]);
        let t = path(&[0, 5]);
        let ql = raw_label(&q);
        let tl = raw_label(&t);
        let input = GrowInput {
            query: &q,
            target: &t,
            q_label: &ql,
            t_label: &tl,
        };
        let cfg = GrowConfig {
            rho: 1.0,
            hops: 2,
            match_edge_labels: false,
        };
        let anchors = [Anchor {
            query: NodeId(0),
            target: NodeId(0),
            quality: 2.0,
        }];
        let m = grow_match(&input, &cfg, &anchors);
        assert_eq!(m.matched_nodes(), 1);
    }

    #[test]
    fn empty_anchors_empty_match() {
        let q = path(&[0, 1]);
        let t = path(&[0, 1]);
        let ql = raw_label(&q);
        let tl = raw_label(&t);
        let input = GrowInput {
            query: &q,
            target: &t,
            q_label: &ql,
            t_label: &tl,
        };
        let m = grow_match(&input, &GrowConfig::default(), &[]);
        assert_eq!(m.matched_nodes(), 0);
        assert_eq!(m.quality_sum(), 0.0);
    }

    #[test]
    fn candidate_quality_respects_rho() {
        // query node with degree 4, target with degree 3: needs rho ≥ 0.25
        let mut q = Graph::new_undirected();
        let qc = q.add_node(NodeLabel(0));
        for _ in 0..4 {
            let l = q.add_node(NodeLabel(1));
            q.add_edge(qc, l).unwrap();
        }
        let mut t = Graph::new_undirected();
        let tc = t.add_node(NodeLabel(0));
        for _ in 0..3 {
            let l = t.add_node(NodeLabel(1));
            t.add_edge(tc, l).unwrap();
        }
        let ql = raw_label(&q);
        let tl = raw_label(&t);
        let input = GrowInput {
            query: &q,
            target: &t,
            q_label: &ql,
            t_label: &tl,
        };
        let strict = GrowConfig {
            rho: 0.0,
            hops: 2,
            match_edge_labels: false,
        };
        assert!(candidate_quality(&input, &strict, qc, tc).is_none());
        let loose = GrowConfig {
            rho: 0.25,
            hops: 2,
            match_edge_labels: false,
        };
        let w = candidate_quality(&input, &loose, qc, tc).unwrap();
        assert!(w > 0.0 && w < 2.0);
    }

    /// IV.1–IV.4 and Eq. IV.5 straight from the definitions — no tables,
    /// no mask, no memo — plus the exact IV.3 miss count.
    fn naive_quality(
        input: &GrowInput<'_>,
        cfg: &GrowConfig,
        nq: NodeId,
        nt: NodeId,
    ) -> (Option<f64>, u32) {
        use std::collections::BTreeSet;
        let keys = |g: &Graph, label_of: &dyn Fn(NodeId) -> u32, n: NodeId| {
            g.neighbor_edges(n)
                .map(|(nb, e)| {
                    let el = g.edge_label(e).filter(|_| cfg.match_edge_labels);
                    (label_of(nb), el.map(|l| l.0))
                })
                .collect::<BTreeSet<_>>()
        };
        let tk = keys(input.target, input.t_label, nt);
        let misses = keys(input.query, input.q_label, nq)
            .iter()
            .filter(|k| !tk.contains(k))
            .count() as u32;
        let (q_deg, t_deg) = (
            input.query.degree(nq) as u32,
            input.target.degree(nt) as u32,
        );
        let (q_nbc, t_nbc) = (
            input.query.neighbor_connection(nq) as u32,
            input.target.neighbor_connection(nt) as u32,
        );
        let nbmiss = ((cfg.rho * q_deg as f64).floor() as u32).min(q_deg);
        let nbcmiss = nbmiss * nbmiss.saturating_sub(1) / 2 + (q_deg - nbmiss) * nbmiss;
        let ok = (input.q_label)(nq) == (input.t_label)(nt) // IV.1
            && t_deg + nbmiss >= q_deg // IV.2
            && misses <= nbmiss // IV.3
            && t_nbc + nbcmiss >= q_nbc; // IV.4
        let w = ok.then(|| {
            node_match_quality(
                q_deg,
                q_nbc,
                misses.max(q_deg.saturating_sub(t_deg)),
                q_nbc.saturating_sub(t_nbc),
            )
        });
        (w, misses)
    }

    /// A random query over `labels` node labels (a few nodes carry a label
    /// no target node has) and a noisy copy of it as the target: labels
    /// flipped, edges dropped and added, plus extra target nodes. Edges
    /// carry one of three edge labels or none.
    fn random_pair(rng: &mut impl rand::Rng, labels: u32) -> (Graph, Graph) {
        use tale_graph::labels::EdgeLabel;
        let n = rng.gen_range(8..40);
        let mut q = Graph::new_undirected();
        let mut t = Graph::new_undirected();
        for _ in 0..n {
            let l = rng.gen_range(0..labels);
            let ql = if rng.gen_bool(0.05) { labels + l } else { l };
            q.add_node(NodeLabel(ql));
            let tl = if rng.gen_bool(0.1) {
                rng.gen_range(0..labels)
            } else {
                l
            };
            t.add_node(NodeLabel(tl));
        }
        for _ in 0..rng.gen_range(0..n / 2) {
            t.add_node(NodeLabel(rng.gen_range(0..labels)));
        }
        let edge_label = |draw: u32| draw.checked_sub(1).map(EdgeLabel);
        let add = |g: &mut Graph, u: u32, v: u32, l: Option<EdgeLabel>| {
            // self loops and repeats are rejected; skip them
            let _ = match l {
                Some(l) => g.add_edge_labeled(NodeId(u), NodeId(v), l),
                None => g.add_edge(NodeId(u), NodeId(v)),
            };
        };
        for _ in 0..n + rng.gen_range(0..2 * n) {
            let (u, v) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
            let l = edge_label(rng.gen_range(0..4));
            if rng.gen_bool(0.9) {
                add(&mut q, u, v, l);
            }
            if rng.gen_bool(0.9) {
                let l = if rng.gen_bool(0.9) {
                    l
                } else {
                    edge_label(rng.gen_range(0..4))
                };
                add(&mut t, u, v, l);
            }
        }
        for _ in 0..rng.gen_range(0..n) {
            let tn = t.node_count() as u32;
            let (u, v) = (rng.gen_range(0..tn), rng.gen_range(0..tn));
            let l = edge_label(rng.gen_range(0..4));
            add(&mut t, u, v, l);
        }
        (q, t)
    }

    /// One scorer shared by a sequence of growths and candidate scans (as
    /// the residual re-anchoring loop uses it) answers exactly like a fresh
    /// scorer per call, and every scorer answers exactly like the naive
    /// definitions — across ρ, both IV.3 modes, alphabets wider than the
    /// 64-bit mask (folded bits collide) and query labels outside the
    /// target's vocabulary. The mask popcount never exceeds the exact miss
    /// count, so it never rejects a pair the exact check accepts.
    #[test]
    fn shared_scorer_equals_fresh_scorers() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        for trial in 0..60 {
            let labels = if trial % 2 == 0 {
                rng.gen_range(2..6)
            } else {
                rng.gen_range(65..130)
            };
            let (q, t) = random_pair(&mut rng, labels);
            let ql = raw_label(&q);
            let tl = raw_label(&t);
            let input = GrowInput {
                query: &q,
                target: &t,
                q_label: &ql,
                t_label: &tl,
            };
            let cfg = GrowConfig {
                rho: [0.0, 0.25, 0.5][trial % 3],
                hops: 1 + (trial % 3) as u8,
                match_edge_labels: trial % 4 >= 2,
            };
            let mut shared = CandidateScorer::new(&input);
            for round in 0..4 {
                let k = rng.gen_range(1..4);
                let anchors: Vec<Anchor> = (0..k)
                    .map(|_| Anchor {
                        query: NodeId(rng.gen_range(0..q.node_count() as u32)),
                        target: NodeId(rng.gen_range(0..t.node_count() as u32)),
                        quality: rng.gen_range(0..5) as f64 / 2.0,
                    })
                    .collect();
                let fresh = grow_match(&input, &cfg, &anchors);
                let reused = grow_match_with(&input, &cfg, &anchors, &mut shared);
                assert_eq!(fresh.pairs, reused.pairs, "trial {trial} round {round}");
                // a candidate scan between growths, as re-anchoring does
                for _ in 0..10 {
                    let nq = NodeId(rng.gen_range(0..q.node_count() as u32));
                    let nt = NodeId(rng.gen_range(0..t.node_count() as u32));
                    assert_eq!(
                        shared.quality(&input, &cfg, nq, nt),
                        candidate_quality(&input, &cfg, nq, nt)
                    );
                }
            }
            let (q_sigs, t_sigs) = (
                SignatureTable::build(&q, &ql),
                SignatureTable::build(&t, &tl),
            );
            let buckets = LabelBuckets::build(&t, &tl);
            let mut borrowed = CandidateScorer::with_tables(&input, &q_sigs, &t_sigs, &buckets);
            for nq in q.nodes() {
                for nt in t.nodes() {
                    let (naive, misses) = naive_quality(&input, &cfg, nq, nt);
                    let ctx = format!("trial {trial} pair {nq:?}->{nt:?}");
                    assert_eq!(shared.quality(&input, &cfg, nq, nt), naive, "{ctx}");
                    assert_eq!(borrowed.quality(&input, &cfg, nq, nt), naive, "{ctx}");
                    let masked = q_sigs.get(nq).label_mask & !t_sigs.get(nt).label_mask;
                    assert!(masked.count_ones() <= misses, "{ctx}");
                }
            }
        }
    }

    /// Every row of the candidate relation is the naive definition over
    /// its query node's label bucket, kept pairs only, in bucket order —
    /// across ρ, both IV.3 modes, alphabets wider than the 64-bit mask and
    /// query labels the target lacks (an empty bucket, so an empty row).
    /// One scorer cycles through the settings, so each change of ρ or of
    /// the IV.3 mode rebuilds the relation.
    #[test]
    fn relation_rows_equal_naive_bucket_scans() {
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let (mut empty_rows, mut wide) = (0, 0);
        for trial in 0..40 {
            let labels = if trial % 2 == 0 {
                rng.gen_range(2..6)
            } else {
                rng.gen_range(65..130)
            };
            let (q, t) = random_pair(&mut rng, labels);
            let ql = raw_label(&q);
            let tl = raw_label(&t);
            let input = GrowInput {
                query: &q,
                target: &t,
                q_label: &ql,
                t_label: &tl,
            };
            let buckets = LabelBuckets::build(&t, &tl);
            let mut settings: Vec<(f64, bool)> = [0.0, 0.25, 0.5]
                .into_iter()
                .flat_map(|rho| [(rho, false), (rho, true)])
                .collect();
            settings.shuffle(&mut rng);
            let mut scorer = CandidateScorer::new(&input);
            for (rho, match_edge_labels) in settings {
                let cfg = GrowConfig {
                    rho,
                    hops: 2,
                    match_edge_labels,
                };
                for nq in q.nodes() {
                    let bucket = buckets.nodes(ql(nq));
                    let want: Vec<(NodeId, f64)> = bucket
                        .iter()
                        .filter_map(|&nt| naive_quality(&input, &cfg, nq, nt).0.map(|w| (nt, w)))
                        .collect();
                    let ctx = format!("trial {trial} rho {rho} edges {match_edge_labels} {nq:?}");
                    assert_eq!(scorer.candidates(&input, &cfg, nq), &want[..], "{ctx}");
                    empty_rows += usize::from(bucket.is_empty());
                    wide += usize::from(labels > 64 && !want.is_empty());
                }
            }
        }
        assert!(empty_rows > 0, "no query label was absent from its target");
        assert!(wide > 0, "no row over a wide alphabet kept a pair");
    }

    /// Rings by definition: breadth-first distances over the underlying
    /// undirected graph, the 1-hop ring at distance 1 and the second ring
    /// at `2..=k`, each ascending.
    fn naive_rings(g: &Graph, n: NodeId, k: u8) -> (Vec<NodeId>, Vec<NodeId>) {
        let mut dist = vec![u32::MAX; g.node_count()];
        let mut queue = std::collections::VecDeque::from([n]);
        dist[n.idx()] = 0;
        while let Some(u) = queue.pop_front() {
            for v in g.neighbors(u).chain(g.in_neighbors(u)) {
                if dist[v.idx()] == u32::MAX {
                    dist[v.idx()] = dist[u.idx()] + 1;
                    queue.push_back(v);
                }
            }
        }
        let at = |lo: u32, hi: u32| -> Vec<NodeId> {
            g.nodes()
                .filter(|v| (lo..=hi).contains(&dist[v.idx()]))
                .collect()
        };
        (at(1, 1), at(2, k as u32))
    }

    /// The memoized rings equal the definition on random directed and
    /// undirected graphs at every radius, on first asks and on memo hits
    /// in any order, and across a radius change; so do the
    /// `Graph::undirected_neighbors` / `neighbors_within` wrappers.
    #[test]
    fn memoized_rings_equal_naive_bfs() {
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        for trial in 0..40 {
            let directed = trial % 2 == 1;
            let n = rng.gen_range(1..40u32);
            let mut g = Graph::new(if directed {
                tale_graph::Direction::Directed
            } else {
                tale_graph::Direction::Undirected
            });
            for _ in 0..n {
                g.add_node(NodeLabel(0));
            }
            for _ in 0..rng.gen_range(0..3 * n) {
                // self loops and repeats are rejected; skip them
                let _ = g.add_edge(NodeId(rng.gen_range(0..n)), NodeId(rng.gen_range(0..n)));
            }
            let mut memo = RingMemo::default();
            for hops in [1, 2, 3, 4, 2] {
                let mut asks: Vec<NodeId> = g.nodes().chain(g.nodes()).collect();
                asks.extend((0..n).map(|_| NodeId(rng.gen_range(0..n))));
                asks.shuffle(&mut rng);
                for v in asks {
                    let (one, two) = naive_rings(&g, v, hops);
                    let ctx = format!("trial {trial} hops {hops} node {v:?}");
                    let (m1, m2) = memo.rings(&g, v, hops);
                    assert_eq!((m1, m2), (&one[..], &two[..]), "{ctx}");
                    assert_eq!(g.undirected_neighbors(v), one, "{ctx}");
                    assert_eq!(g.neighbors_within(v, hops), two, "{ctx}");
                }
            }
        }
    }

    #[test]
    fn better_candidate_replaces_queued() {
        // Query center 0 adjacent to node 1 (label 1, degree 2 in query).
        // Target has two label-1 nodes: one low degree, one exact; exact
        // appears through a later pairing and must replace the first.
        // Construct: query path 0(l0)-1(l1)-2(l2).
        let q = path(&[0, 1, 2]);
        // target: 0(l0) - 1(l1 leaf, degree 1) and 0 - 3(l9) - 2(l1) - 4(l2)
        let mut t = Graph::new_undirected();
        let t0 = t.add_node(NodeLabel(0));
        let t1 = t.add_node(NodeLabel(1)); // weak candidate (leaf)
        let t3 = t.add_node(NodeLabel(9));
        let t2 = t.add_node(NodeLabel(1)); // strong candidate
        let t4 = t.add_node(NodeLabel(2));
        let t5 = t.add_node(NodeLabel(0)); // gives t2 a label-0 neighbor
        t.add_edge(t0, t1).unwrap();
        t.add_edge(t0, t3).unwrap();
        t.add_edge(t3, t2).unwrap();
        t.add_edge(t2, t4).unwrap();
        t.add_edge(t2, t5).unwrap();
        let ql = raw_label(&q);
        let tl = raw_label(&t);
        let input = GrowInput {
            query: &q,
            target: &t,
            q_label: &ql,
            t_label: &tl,
        };
        let cfg = GrowConfig {
            rho: 1.0,
            hops: 2,
            match_edge_labels: false,
        };
        let anchors = [Anchor {
            query: NodeId(0),
            target: t0,
            quality: 2.0,
        }];
        let m = grow_match(&input, &cfg, &anchors);
        // q1 should end up on the strong candidate t2 (degree 2 with an
        // l2 neighbor), enabling q2 → t4.
        assert_eq!(m.target_of(NodeId(1)), Some(t2));
        assert_eq!(m.target_of(NodeId(2)), Some(t4));
    }
}
