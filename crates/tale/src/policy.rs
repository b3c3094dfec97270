//! Graph-to-shard placement policies.
//!
//! A policy answers two questions: where does every existing graph go at
//! build time ([`ShardPolicy::assign`]), and where does a graph that
//! arrives *after* the build go ([`ShardPolicy::route`])? The answers are
//! recorded in the [`ShardManifest`](crate::ShardManifest), which is the
//! ground truth thereafter — queries and removals never re-derive
//! placement from the policy.

use tale_graph::{GraphDb, GraphId};

/// A graph-to-shard placement strategy.
///
/// Policies only *choose* placement; the chosen assignment is persisted in
/// the manifest, so changing or even losing the policy never strands a
/// graph. Implementations must be deterministic: the same database and
/// shard count must always produce the same assignment, or rebuilt
/// replicas would disagree with their manifests.
pub trait ShardPolicy: Send + Sync {
    /// Stable identifier persisted in the manifest (used to resolve the
    /// routing policy when the index is reopened).
    fn name(&self) -> &'static str;

    /// Assigns every graph in `db` to a shard in `0..nshards`. The
    /// returned vector is indexed by [`GraphId::idx`] and must have
    /// exactly `db.len()` entries.
    fn assign(&self, db: &GraphDb, nshards: usize) -> Vec<u32>;

    /// Routes one newly inserted graph given the current per-shard node
    /// loads (`loads.len()` is the shard count).
    fn route(&self, db: &GraphDb, gid: GraphId, loads: &[u64]) -> u32;
}

/// 64-bit FNV-1a over a graph id — stable across platforms and runs.
fn fnv1a_u32(v: u32) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in v.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hash-by-id placement (the default): shard = FNV-1a(id) mod N.
///
/// Stateless and oblivious to graph sizes, so a late insert lands on the
/// same shard a full rebuild would put it on.
#[derive(Debug, Default, Clone, Copy)]
pub struct HashPolicy;

impl ShardPolicy for HashPolicy {
    fn name(&self) -> &'static str {
        "hash"
    }

    fn assign(&self, db: &GraphDb, nshards: usize) -> Vec<u32> {
        (0..db.len() as u32)
            .map(|g| (fnv1a_u32(g) % nshards as u64) as u32)
            .collect()
    }

    fn route(&self, _db: &GraphDb, gid: GraphId, loads: &[u64]) -> u32 {
        (fnv1a_u32(gid.0) % loads.len() as u64) as u32
    }
}

/// Size-balanced placement: longest-processing-time greedy over node
/// counts.
///
/// Graphs are placed largest-first onto the currently lightest shard
/// (ties broken toward the lowest shard id, then the lowest graph id, so
/// the assignment is deterministic). Late inserts go to the lightest
/// shard at insert time. Balances skewed corpora — a handful of huge
/// graphs hashed onto one shard would otherwise dominate the critical
/// path of both build and query.
#[derive(Debug, Default, Clone, Copy)]
pub struct SizeBalancedPolicy;

/// Lightest shard, lowest id on ties.
fn argmin(loads: &[u64]) -> u32 {
    let mut best = 0usize;
    for (s, &l) in loads.iter().enumerate().skip(1) {
        if l < loads[best] {
            best = s;
        }
    }
    best as u32
}

impl ShardPolicy for SizeBalancedPolicy {
    fn name(&self) -> &'static str {
        "size-balanced"
    }

    fn assign(&self, db: &GraphDb, nshards: usize) -> Vec<u32> {
        let mut order: Vec<(GraphId, usize)> =
            db.iter().map(|(id, _, g)| (id, g.node_count())).collect();
        order.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut loads = vec![0u64; nshards];
        let mut assignment = vec![0u32; db.len()];
        for (gid, nodes) in order {
            let s = argmin(&loads);
            assignment[gid.idx()] = s;
            loads[s as usize] += nodes as u64;
        }
        assignment
    }

    fn route(&self, _db: &GraphDb, _gid: GraphId, loads: &[u64]) -> u32 {
        argmin(loads)
    }
}

/// Label-clustered placement: graphs sharing a dominant effective label
/// land on the same shard.
///
/// A graph's *dominant label* is its most frequent effective node label
/// (ties toward the smallest label id; empty graphs use label 0); the
/// shard is `FNV-1a(dominant) mod N`. Deterministic and insert-stable —
/// routing depends only on the graph's own labels, never on current
/// loads — so a late insert lands where a full rebuild would put it.
///
/// Clustering makes per-shard label vocabularies *narrow*: a query whose
/// labels are absent from a shard finds no candidate there, and that
/// shard's work is its empty range scans. Under hash placement every
/// shard holds a slice of everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct LabelClusteredPolicy;

/// Most frequent effective label of `gid`'s graph (smallest id on ties).
fn dominant_label(db: &GraphDb, gid: GraphId) -> u32 {
    let g = db.graph(gid);
    let mut counts: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
    for n in g.nodes() {
        *counts.entry(db.effective_of_raw(g.label(n))).or_insert(0) += 1;
    }
    counts
        .into_iter()
        .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
        .map(|(l, _)| l)
        .unwrap_or(0)
}

impl ShardPolicy for LabelClusteredPolicy {
    fn name(&self) -> &'static str {
        "label-clustered"
    }

    fn assign(&self, db: &GraphDb, nshards: usize) -> Vec<u32> {
        db.iter()
            .map(|(gid, _, _)| (fnv1a_u32(dominant_label(db, gid)) % nshards as u64) as u32)
            .collect()
    }

    fn route(&self, db: &GraphDb, gid: GraphId, loads: &[u64]) -> u32 {
        (fnv1a_u32(dominant_label(db, gid)) % loads.len() as u64) as u32
    }
}

/// Resolves a policy from its manifest name ([`ShardPolicy::name`]).
pub fn policy_by_name(name: &str) -> Option<Box<dyn ShardPolicy>> {
    match name {
        "hash" => Some(Box::new(HashPolicy)),
        "size-balanced" => Some(Box::new(SizeBalancedPolicy)),
        "label-clustered" => Some(Box::new(LabelClusteredPolicy)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tale_graph::Graph;

    fn db_with_sizes(sizes: &[usize]) -> GraphDb {
        let mut db = GraphDb::new();
        let l = db.intern_node_label("A");
        for (i, &n) in sizes.iter().enumerate() {
            let mut g = Graph::new_undirected();
            for _ in 0..n {
                g.add_node(l);
            }
            db.insert(format!("g{i}"), g);
        }
        db
    }

    #[test]
    fn hash_assignment_is_stable_and_in_range() {
        let db = db_with_sizes(&[3; 20]);
        let a1 = HashPolicy.assign(&db, 4);
        let a2 = HashPolicy.assign(&db, 4);
        assert_eq!(a1, a2);
        assert_eq!(a1.len(), 20);
        assert!(a1.iter().all(|&s| s < 4));
        // route agrees with assign for the same id
        for gid in 0..20u32 {
            assert_eq!(
                HashPolicy.route(&db, GraphId(gid), &[0; 4]),
                a1[gid as usize]
            );
        }
    }

    #[test]
    fn size_balanced_beats_hash_on_skewed_sizes() {
        // one whale + shrimps: LPT isolates the whale
        let mut sizes = vec![1000usize];
        sizes.extend(std::iter::repeat(10).take(15));
        let db = db_with_sizes(&sizes);
        let assignment = SizeBalancedPolicy.assign(&db, 4);
        let mut loads = [0u64; 4];
        for (i, &s) in assignment.iter().enumerate() {
            loads[s as usize] += sizes[i] as u64;
        }
        let max = *loads.iter().max().unwrap();
        let min = *loads.iter().min().unwrap();
        // whale alone on its shard; the rest split the shrimps
        assert_eq!(max, 1000);
        assert!(min >= 50, "loads {loads:?}");
    }

    #[test]
    fn size_balanced_route_picks_lightest() {
        let db = db_with_sizes(&[1]);
        assert_eq!(SizeBalancedPolicy.route(&db, GraphId(0), &[5, 2, 9]), 1);
        // ties go to the lowest shard
        assert_eq!(SizeBalancedPolicy.route(&db, GraphId(0), &[4, 4, 4]), 0);
    }

    #[test]
    fn label_clustered_groups_by_dominant_label_and_routes_consistently() {
        let mut db = GraphDb::new();
        let a = db.intern_node_label("A");
        let b = db.intern_node_label("B");
        // two graphs dominated by A (one with a minority of B), one by B
        for (name, labels) in [
            ("a0", vec![a, a, a]),
            ("a1", vec![a, a, b]),
            ("b0", vec![b, b]),
        ] {
            let mut g = Graph::new_undirected();
            for l in labels {
                g.add_node(l);
            }
            db.insert(name, g);
        }
        let assignment = LabelClusteredPolicy.assign(&db, 4);
        assert_eq!(assignment.len(), 3);
        assert_eq!(assignment[0], assignment[1], "same dominant label");
        // route agrees with assign for every graph, regardless of loads
        for gid in 0..3u32 {
            assert_eq!(
                LabelClusteredPolicy.route(&db, GraphId(gid), &[9, 0, 0, 0]),
                assignment[gid as usize]
            );
        }
        // ties break toward the smallest label id: a 1-A 1-B graph is
        // dominated by A
        let mut g = Graph::new_undirected();
        g.add_node(a);
        g.add_node(b);
        let gid = db.insert("tie", g);
        let all = LabelClusteredPolicy.assign(&db, 4);
        assert_eq!(all[gid.idx()], assignment[0]);
    }

    #[test]
    fn policy_lookup_by_name() {
        assert_eq!(policy_by_name("hash").unwrap().name(), "hash");
        assert_eq!(
            policy_by_name("size-balanced").unwrap().name(),
            "size-balanced"
        );
        assert_eq!(
            policy_by_name("label-clustered").unwrap().name(),
            "label-clustered"
        );
        assert!(policy_by_name("nope").is_none());
    }
}
