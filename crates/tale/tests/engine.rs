//! Behavior contracts of the staged query engine: canonical-signature
//! invariance, result-cache correctness (bit-identical hits, zero index
//! traffic, generation-keyed survival across mutations), and
//! batch/sequential equivalence at every thread count.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use tale::{canonical_signature, BatchStats, QueryMatch, QueryOptions, TaleDatabase, TaleParams};
use tale_graph::generate::{gnm, mutate, MutationRates};
use tale_graph::wl::permute;
use tale_graph::{Graph, GraphDb, GraphId, NodeId};

const LABELS: u32 = 6;

/// Index probes one query issued, over every shard and reader.
fn probes(batch: &BatchStats) -> u64 {
    batch.shards.iter().map(|s| s.probes).sum()
}

/// Runs one query, returning its results and the batch's statistics.
fn query_one(tale: &TaleDatabase, q: &Graph, opts: &QueryOptions) -> (Vec<QueryMatch>, BatchStats) {
    let (mut results, batch) = tale.query_batch_with_stats(&[q], opts).unwrap();
    (results.remove(0), batch)
}

fn corpus(seed: u64, n_graphs: usize) -> (GraphDb, Vec<Graph>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut db = GraphDb::new();
    for i in 0..LABELS {
        db.intern_node_label(&format!("L{i}"));
    }
    let mut originals = Vec::new();
    for i in 0..n_graphs {
        let g = gnm(&mut rng, 40, 80, LABELS);
        let (noisy, _) = mutate(&mut rng, &g, &MutationRates::mild(), LABELS);
        db.insert(format!("g{i}"), noisy);
        originals.push(g);
    }
    (db, originals)
}

fn same_results(a: &[QueryMatch], b: &[QueryMatch]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.graph == y.graph
                && x.score == y.score
                && x.matched_nodes == y.matched_nodes
                && x.matched_edges == y.matched_edges
                && x.m.pairs == y.m.pairs
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The canonical signature is a function of the labeled structure,
    /// not the node numbering: any relabeling maps to the same value.
    #[test]
    fn canonical_signature_is_relabeling_invariant(
        seed in 0u64..1000,
        n in 2usize..40,
        perm_seed in 0u64..1000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let m = n + n / 2;
        let g = gnm(&mut rng, n, m, 5);
        let label_of = |x: NodeId| g.label(x).0;
        let h = canonical_signature(&g, &label_of);

        let mut prng = ChaCha8Rng::seed_from_u64(perm_seed);
        let mut perm: Vec<u32> = (0..n as u32).collect();
        use rand::seq::SliceRandom;
        perm.shuffle(&mut prng);
        let p = permute(&g, &perm);
        let p_label = |x: NodeId| p.label(x).0;
        prop_assert_eq!(
            canonical_signature(&p, &p_label),
            h,
            "canonical signature changed under relabeling"
        );
    }
}

#[test]
fn canonical_signature_separates_structures_and_labels() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let g = gnm(&mut rng, 30, 60, 5);
    let (m, _) = mutate(&mut rng, &g, &MutationRates::mild(), 5);
    let lg = |x: NodeId| g.label(x).0;
    let lm = |x: NodeId| m.label(x).0;
    assert_ne!(canonical_signature(&g, &lg), canonical_signature(&m, &lm));
}

/// A warm cache hit returns bit-identical results and never touches the
/// disk index — checked through the engine's per-shard probe counts and
/// the buffer pool's own fetch count.
#[test]
fn cache_hit_is_bit_identical_and_probes_nothing() {
    let (db, originals) = corpus(21, 5);
    let tale = TaleDatabase::build_in_temp(db, &TaleParams::default()).unwrap();
    let opts = QueryOptions {
        rho: 0.25,
        p_imp: 0.25,
        ..Default::default()
    };
    let q = &originals[0];

    let cold = tale.query(q, &opts).unwrap();
    assert!(!cold.is_empty(), "workload produced no matches");

    let (warm, batch) = query_one(&tale, q, &opts);
    assert!(
        batch.per_query[0].cache_hit,
        "second identical query must hit the cache"
    );
    assert_eq!(probes(&batch), 0, "a cache hit must not probe the index");
    assert!(batch.shards.iter().all(|s| s.postings_fetched == 0));
    assert_eq!(batch.pool.accesses(), 0, "a cache hit must not read a page");
    assert!(same_results(&cold, &warm));

    let cs = tale.result_cache_stats();
    assert!(cs.hits >= 1 && cs.insertions >= 1);

    // A relabeled copy of the same pattern shares the canonical key but
    // is a different exact query: the stored representation check must
    // reject it and recompute rather than serve the other graph's entry.
    let mut prng = ChaCha8Rng::seed_from_u64(3);
    let mut perm: Vec<u32> = (0..q.node_count() as u32).collect();
    use rand::seq::SliceRandom;
    perm.shuffle(&mut prng);
    assert!(perm.iter().enumerate().any(|(i, &p)| i as u32 != p));
    let pq = permute(q, &perm);
    let (_, batch) = query_one(&tale, &pq, &opts);
    assert!(
        !batch.per_query[0].cache_hit,
        "a relabeled variant must not hit"
    );
    assert!(probes(&batch) > 0, "a miss must consult the index");
}

/// `use_cache: false` bypasses the cache in both directions: no lookups
/// served, nothing stored.
#[test]
fn cache_can_be_bypassed() {
    let (db, originals) = corpus(22, 3);
    let tale = TaleDatabase::build_in_temp(db, &TaleParams::default()).unwrap();
    let opts = QueryOptions::default().with_cache(false);
    let q = &originals[0];
    let a = tale.query(q, &opts).unwrap();
    let (b, batch) = query_one(&tale, q, &opts);
    assert!(!batch.per_query[0].cache_hit);
    assert!(probes(&batch) > 0 || a.is_empty());
    assert!(same_results(&a, &b));
    assert_eq!(tale.result_cache_stats().insertions, 0);
}

/// `query_batch` must equal N standalone `query` calls bit for bit, at
/// every thread count, with and without repeated queries in the batch.
#[test]
fn query_batch_matches_sequential_queries_at_every_thread_count() {
    let (db, originals) = corpus(23, 6);
    let tale = TaleDatabase::build_in_temp(db, &TaleParams::default()).unwrap();
    // repeats exercise the whole-query dedup path
    let batch: Vec<&Graph> = originals.iter().chain(originals.iter().take(2)).collect();
    let base = QueryOptions {
        rho: 0.25,
        p_imp: 0.25,
        ..Default::default()
    }
    .with_cache(false);

    let reference: Vec<Vec<QueryMatch>> = batch
        .iter()
        .map(|q| tale.query(q, &base.clone().with_threads(1)).unwrap())
        .collect();

    for threads in [0usize, 1, 2, 4] {
        let opts = base.clone().with_threads(threads);
        let got = tale.query_batch(&batch, &opts).unwrap();
        assert_eq!(got.len(), reference.len());
        for (i, (g, r)) in got.iter().zip(&reference).enumerate() {
            assert!(
                same_results(g, r),
                "batch result diverged for query {i} at threads={threads}"
            );
        }
    }
}

/// Batch statistics expose the amortization: repeated queries collapse
/// to unique ones and shared signatures are probed once.
#[test]
fn batch_stats_expose_amortization() {
    let (db, originals) = corpus(24, 4);
    let tale = TaleDatabase::build_in_temp(db, &TaleParams::default()).unwrap();
    let batch: Vec<&Graph> = originals.iter().chain(originals.iter()).collect();
    let opts = QueryOptions {
        p_imp: 0.25,
        ..Default::default()
    }
    .with_cache(false);
    let (results, stats) = tale.query_batch_with_stats(&batch, &opts).unwrap();
    assert_eq!(results.len(), batch.len());
    assert_eq!(stats.queries, batch.len());
    assert_eq!(stats.unique_queries, originals.len());
    assert!(stats.probes_issued <= stats.probes_requested);
    assert_eq!(stats.per_query.len(), batch.len());
    // duplicate queries report the same probe traffic as their twin
    for (a, b) in stats.per_query[..originals.len()]
        .iter()
        .zip(&stats.per_query[originals.len()..])
    {
        assert_eq!(a.probes, b.probes);
        assert_eq!(a.candidates, b.candidates);
    }
}

/// Removal evicts nothing: every cached entry stays resident and keeps
/// hitting with zero index traffic, because the engine filters cached
/// lists through the snapshot's tombstone set at read time — removal can
/// only delete matches, so the filtered entry is still exactly correct.
#[test]
fn remove_graph_keeps_cache_entries_and_filters_tombstones() {
    // two label families that can never match each other's queries
    // (condition IV.1 filters on exact effective labels)
    let mut db = GraphDb::new();
    let a_labels: Vec<_> = (0..3)
        .map(|i| db.intern_node_label(&format!("A{i}")))
        .collect();
    let b_labels: Vec<_> = (0..3)
        .map(|i| db.intern_node_label(&format!("B{i}")))
        .collect();
    let ring = |labels: &[tale_graph::NodeLabel]| {
        let mut g = Graph::new_undirected();
        let n: Vec<_> = (0..8)
            .map(|i| g.add_node(labels[i % labels.len()]))
            .collect();
        for i in 0..8 {
            g.add_edge(n[i], n[(i + 1) % 8]).unwrap();
        }
        g.add_edge(n[0], n[4]).unwrap();
        g
    };
    let qa = ring(&a_labels);
    let qb = ring(&b_labels);
    db.insert("a0", qa.clone());
    db.insert("a1", qa.clone());
    db.insert("b0", qb.clone());
    let mut tale = TaleDatabase::build_in_temp(db, &TaleParams::default()).unwrap();
    let opts = QueryOptions {
        p_imp: 0.5,
        ..Default::default()
    };

    let cold_a = tale.query(&qa, &opts).unwrap();
    assert!(cold_a.iter().any(|r| r.graph == GraphId(0)));
    let cold_b = tale.query(&qb, &opts).unwrap();
    assert!(!cold_b.is_empty() && cold_b.iter().all(|r| r.graph == GraphId(2)));
    // each query stores one partial list per reader (base + delta)
    assert_eq!(tale.result_cache_stats().entries, 4);

    tale.remove_graph(GraphId(0)).unwrap();
    assert_eq!(
        tale.result_cache_stats().entries,
        4,
        "removal must not evict any cache entry"
    );

    // the disjoint entry still hits, with zero index traffic
    let (warm_b, sb) = query_one(&tale, &qb, &opts);
    assert!(
        sb.per_query[0].cache_hit,
        "disjoint entry must survive the removal"
    );
    assert_eq!(probes(&sb), 0);
    assert_eq!(sb.pool.accesses(), 0);
    assert!(same_results(&cold_b, &warm_b));

    // the intersecting entry ALSO still hits — the removed graph is
    // filtered out of the cached list at lookup time, never served
    let (after_a, sa) = query_one(&tale, &qa, &opts);
    assert!(
        sa.per_query[0].cache_hit,
        "the entry containing the removed graph serves filtered, not evicted"
    );
    assert_eq!(probes(&sa), 0);
    assert_eq!(sa.pool.accesses(), 0);
    assert!(after_a.iter().all(|r| r.graph != GraphId(0)));
    assert!(after_a.iter().any(|r| r.graph == GraphId(1)));
    // and the filtered hit equals the cold result minus the tombstone
    let expect: Vec<QueryMatch> = cold_a
        .iter()
        .filter(|r| r.graph != GraphId(0))
        .cloned()
        .collect();
    assert!(same_results(&expect, &after_a));
}

/// The headline bugfix: mutations no longer clear the cache. Insert rolls
/// only the delta reader's generation, so the base-generation entry keeps
/// serving a repeat query with **zero on-disk probes** — only the
/// in-memory delta overlay (which owns the new graph) re-runs. Removal
/// rolls nothing; the tombstone is filtered at read time.
#[test]
fn cache_entries_survive_insert_and_remove() {
    let (db, originals) = corpus(25, 4);
    let extra = originals[1].clone();
    let mut tale = TaleDatabase::build_in_temp(db, &TaleParams::default()).unwrap();
    let opts = QueryOptions {
        p_imp: 0.25,
        ..Default::default()
    };
    let q = &originals[0];

    let before_insert = tale.query(q, &opts).unwrap();
    let resident = tale.result_cache_stats().entries;
    assert!(resident > 0);
    tale.insert_graph("late", extra).unwrap();
    assert_eq!(
        tale.result_cache_stats().entries,
        resident,
        "insert_graph must not clear the cache"
    );

    // Repeat query after the insert: the base entry answers from cache —
    // the on-disk index sees zero probes, so its pools zero fetches —
    // while the in-memory delta overlay runs under its fresh generation
    // to cover the new graph.
    let base_hits_before = tale.base_cache_stats().hits;
    let (after_insert, s) = query_one(&tale, q, &opts);
    assert!(
        !s.per_query[0].cache_hit,
        "the delta generation rolled, so this is not a full hit"
    );
    assert!(probes(&s) > 0, "the delta overlay must re-run");
    assert_eq!(
        s.pool.accesses(),
        0,
        "base entry must survive the insert: zero on-disk probes"
    );
    assert!(
        tale.base_cache_stats().hits > base_hits_before,
        "repeat query must be served by the base cache"
    );
    // the new graph may add a match; matches against pre-existing graphs
    // are bit-stable because the cached base partial was reused
    let by_graph: HashMap<GraphId, usize> = after_insert
        .iter()
        .map(|r| (r.graph, r.matched_nodes))
        .collect();
    for r in &before_insert {
        assert_eq!(by_graph.get(&r.graph), Some(&r.matched_nodes));
    }

    let resident = tale.result_cache_stats().entries;
    tale.remove_graph(GraphId(0)).unwrap();
    assert_eq!(
        tale.result_cache_stats().entries,
        resident,
        "remove_graph must not evict anything"
    );
    let (after_remove, s) = query_one(&tale, q, &opts);
    assert!(
        s.per_query[0].cache_hit,
        "removal keeps both generations, so the repeat query fully hits"
    );
    assert_eq!(probes(&s), 0);
    assert_eq!(s.pool.accesses(), 0);
    assert!(
        after_remove.iter().all(|r| r.graph != GraphId(0)),
        "tombstoned graph must be filtered out of the cached result"
    );
}

/// Options that affect results occupy distinct cache entries; `threads`
/// does not (results are thread-invariant).
#[test]
fn cache_key_covers_options_but_not_threads() {
    let (db, originals) = corpus(26, 3);
    let tale = TaleDatabase::build_in_temp(db, &TaleParams::default()).unwrap();
    let q = &originals[0];
    let opts = QueryOptions {
        p_imp: 0.25,
        ..Default::default()
    };
    let _ = tale.query(q, &opts).unwrap();
    // same query at a different thread count: same entry, hits
    let (_, s) = tale
        .query_with_stats(q, &opts.clone().with_threads(2))
        .unwrap();
    assert!(s.cache_hit, "thread count must not split cache entries");
    // different rho: different entry, misses
    let (_, s) = tale
        .query_with_stats(
            q,
            &QueryOptions {
                rho: 0.5,
                p_imp: 0.25,
                ..Default::default()
            },
        )
        .unwrap();
    assert!(!s.cache_hit, "result-affecting options must split entries");
}
