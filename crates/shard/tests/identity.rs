//! The load-bearing contract of the sharding layer: sharded query output
//! is **bit-identical** to the single-index answer at every shard count
//! and every thread count — including after interleaved insert/remove/fold
//! mutations and a reopen, and regardless of placement policy.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tale::{QueryMatch, QueryOptions, TaleDatabase, TaleParams};
use tale_graph::generate::{gnm, mutate, MutationRates};
use tale_graph::{Graph, GraphDb};
use tale_shard::{HashPolicy, ShardError, ShardPolicy, ShardedTaleDatabase, SizeBalancedPolicy};

const LABELS: u32 = 6;
const SHARD_COUNTS: &[usize] = &[1, 2, 4, 7];
const THREAD_COUNTS: &[usize] = &[0, 1, 4];

fn corpus(seed: u64, n_graphs: usize) -> (GraphDb, Vec<Graph>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut db = GraphDb::new();
    for i in 0..LABELS {
        db.intern_node_label(&format!("L{i}"));
    }
    let mut originals = Vec::new();
    for i in 0..n_graphs {
        let g = gnm(&mut rng, 30, 60, LABELS);
        let (noisy, _) = mutate(&mut rng, &g, &MutationRates::mild(), LABELS);
        db.insert(format!("g{i}"), noisy);
        originals.push(g);
    }
    (db, originals)
}

fn assert_bit_identical(a: &[Vec<QueryMatch>], b: &[Vec<QueryMatch>], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: batch size");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.len(), y.len(), "{ctx}: result count for query {i}");
        for (m, n) in x.iter().zip(y) {
            assert_eq!(m.graph, n.graph, "{ctx}: graph order for query {i}");
            assert_eq!(m.graph_name, n.graph_name, "{ctx}: query {i}");
            assert_eq!(
                m.score.to_bits(),
                n.score.to_bits(),
                "{ctx}: score bits for query {i} graph {:?}",
                m.graph
            );
            assert_eq!(m.matched_nodes, n.matched_nodes, "{ctx}: query {i}");
            assert_eq!(m.matched_edges, n.matched_edges, "{ctx}: query {i}");
            assert_eq!(m.m.pairs, n.m.pairs, "{ctx}: pair list for query {i}");
        }
    }
}

/// The full grid: shard counts {1, 2, 4, 7} × thread counts {0, 1, 4} ×
/// placement policies, against the unsharded reference.
#[test]
fn sharded_equals_unsharded_across_shard_and_thread_grid() {
    let (db, originals) = corpus(41, 8);
    let params = TaleParams::default();
    let queries: Vec<&Graph> = originals.iter().collect();
    let base = QueryOptions {
        rho: 0.25,
        p_imp: 0.25,
        ..Default::default()
    }
    .with_cache(false);

    let single = TaleDatabase::build_in_temp(db.clone(), &params).unwrap();
    let reference = single
        .query_batch(&queries, &base.clone().with_threads(1))
        .unwrap();

    let policies: [&dyn ShardPolicy; 2] = [&HashPolicy, &SizeBalancedPolicy];
    for policy in policies {
        for &nshards in SHARD_COUNTS {
            let dir = tempfile::tempdir().unwrap();
            let sharded =
                ShardedTaleDatabase::build(db.clone(), dir.path(), &params, nshards, policy)
                    .unwrap();
            for &threads in THREAD_COUNTS {
                let got = sharded
                    .query_batch(&queries, &base.clone().with_threads(threads))
                    .unwrap();
                assert_bit_identical(
                    &reference,
                    &got,
                    &format!(
                        "policy={} shards={nshards} threads={threads}",
                        policy.name()
                    ),
                );
            }
        }
    }
}

/// Identity must survive mutation: after the same interleaved
/// insert/remove/fold sequence on both databases, every (shard count,
/// thread count) combination still returns the unsharded answer bit for
/// bit — from the live handle and from a reopened one.
#[test]
fn sharded_equals_unsharded_after_interleaved_insert_remove_fold() {
    let (db, originals) = corpus(42, 6);
    let params = TaleParams::default();
    let queries: Vec<&Graph> = originals.iter().collect();
    let opts = QueryOptions {
        rho: 0.25,
        p_imp: 0.25,
        ..Default::default()
    };
    // extra graphs to insert mid-stream
    let mut rng = ChaCha8Rng::seed_from_u64(43);
    let extras: Vec<Graph> = (0..3).map(|_| gnm(&mut rng, 30, 60, LABELS)).collect();

    for &nshards in SHARD_COUNTS {
        let single = TaleDatabase::build_in_temp(db.clone(), &params).unwrap();
        let dir = tempfile::tempdir().unwrap();
        let mut sharded =
            ShardedTaleDatabase::build(db.clone(), dir.path(), &params, nshards, &HashPolicy)
                .unwrap();

        // warm both caches, then interleave: insert, remove, insert,
        // query, remove, insert — caches must stay exactly coherent
        let _ = single.query_batch(&queries, &opts).unwrap();
        let _ = sharded.query_batch(&queries, &opts).unwrap();

        let g0 = single.insert_graph("x0", extras[0].clone()).unwrap();
        let s0 = sharded.insert_graph("x0", extras[0].clone()).unwrap();
        assert_eq!(g0, s0, "insertion ids must agree");

        single.remove_graph(g0).unwrap();
        sharded.remove_graph(s0).unwrap();

        let g1 = single.insert_graph("x1", extras[1].clone()).unwrap();
        let s1 = sharded.insert_graph("x1", extras[1].clone()).unwrap();
        assert_eq!(g1, s1);

        let mid_single = single.query_batch(&queries, &opts).unwrap();
        let mid_sharded = sharded.query_batch(&queries, &opts).unwrap();
        assert_bit_identical(
            &mid_single,
            &mid_sharded,
            &format!("shards={nshards} mid-stream"),
        );

        single.remove_graph(tale_graph::GraphId(1)).unwrap();
        sharded.remove_graph(tale_graph::GraphId(1)).unwrap();
        let g2 = single.insert_graph("x2", extras[2].clone()).unwrap();
        let s2 = sharded.insert_graph("x2", extras[2].clone()).unwrap();
        assert_eq!(g2, s2);

        let check = |sharded: &ShardedTaleDatabase, when: &str| {
            for &threads in THREAD_COUNTS {
                let o = opts.clone().with_threads(threads);
                let want = single.query_batch(&queries, &o).unwrap();
                let got = sharded.query_batch(&queries, &o).unwrap();
                assert_bit_identical(
                    &want,
                    &got,
                    &format!("shards={nshards} threads={threads} {when}"),
                );
            }
        };
        check(&sharded, "after mutations");

        // fold both: delta and tombstones move into fresh generations,
        // answers (and warm caches) must not notice
        single.fold().unwrap();
        let reports = sharded.fold().unwrap();
        assert_eq!(reports.len(), nshards);
        assert_eq!(reports.iter().map(|r| r.folded_inserts).sum::<u32>(), 3);
        check(&sharded, "after fold");

        // one more insert on top of the folded generations, then reopen:
        // the delta is re-derived from the shard map
        let g3 = single.insert_graph("x3", extras[0].clone()).unwrap();
        let s3 = sharded.insert_graph("x3", extras[0].clone()).unwrap();
        assert_eq!(g3, s3);
        drop(sharded);
        let reopened = ShardedTaleDatabase::open(dir.path(), params.buffer_frames).unwrap();
        check(&reopened, "after reopen");
    }
}

/// A fold keeps the scheme its index was built with. Growing the
/// vocabulary past `Sbit` and folding only one shard must not leave that
/// shard in the Bloom regime beside deterministic siblings — every probe
/// signature of a run is laid out for one scheme — and a directory whose
/// shards do disagree is refused, not served.
#[test]
fn folding_one_shard_after_vocabulary_growth_keeps_one_scheme() {
    let (db, originals) = corpus(44, 6);
    let params = TaleParams {
        sbit: 8, // 6 labels fit: deterministic regime
        ..TaleParams::default()
    };
    let queries: Vec<&Graph> = originals.iter().collect();
    let opts = QueryOptions {
        rho: 0.25,
        p_imp: 0.25,
        ..Default::default()
    };
    let single = TaleDatabase::build_in_temp(db.clone(), &params).unwrap();
    let dir = tempfile::tempdir().unwrap();
    let mut sharded =
        ShardedTaleDatabase::build(db.clone(), dir.path(), &params, 3, &HashPolicy).unwrap();
    let scheme = sharded.index().shards()[0].scheme();
    assert!(scheme.deterministic);

    // four more labels: the vocabulary (10) no longer fits 8 bits
    let mut late = originals[0].clone();
    for i in 0..4 {
        let name = format!("late{i}");
        let (a, b) = (
            single.intern_node_label(&name),
            sharded.intern_node_label(&name),
        );
        assert_eq!(a, b);
        let n = late.add_node(a);
        late.add_edge(n, tale_graph::NodeId(i)).unwrap();
    }
    let gid = single.insert_graph("late", late.clone()).unwrap();
    assert_eq!(sharded.insert_graph("late", late.clone()).unwrap(), gid);

    // fold the owning shard only
    let owner = sharded.index().shard_of(gid).unwrap() as usize;
    sharded.index().shards()[owner].fold(sharded.db()).unwrap();
    assert_eq!(sharded.index().shards()[owner].scheme(), scheme);
    drop(sharded);

    let reopened = ShardedTaleDatabase::open(dir.path(), params.buffer_frames).unwrap();
    let mut all = queries.clone();
    all.push(&late);
    let want = single.query_batch(&all, &opts).unwrap();
    let got = reopened.query_batch(&all, &opts).unwrap();
    assert_bit_identical(&want, &got, "one shard folded after vocabulary growth");
    drop(reopened);

    // hand-skew: rebuild shard 1 alone under another width
    let members = tale_shard::ShardManifest::load(dir.path())
        .unwrap()
        .graphs_of(1);
    let reloaded = tale_graph::io::load_json(&dir.path().join("graphs.json")).unwrap();
    let skewed = tale_nhindex::NhIndexConfig {
        sbit: 16,
        ..tale_nhindex::NhIndexConfig::default()
    };
    drop(
        tale_nhindex::GenerationalNhIndex::build_members(
            &dir.path().join("shard-001"),
            &reloaded,
            &members,
            &skewed,
            None,
        )
        .unwrap(),
    );
    match ShardedTaleDatabase::open(dir.path(), params.buffer_frames) {
        Err(ShardError::Manifest(m)) => assert!(m.contains("shard 1"), "{m}"),
        Err(other) => panic!("expected a manifest error naming shard 1, got: {other}"),
        Ok(_) => panic!("open served shards with different schemes"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Randomized spot checks over seeds and grid points (cheap cases
    /// only; the exhaustive grid above covers the fixed corners).
    #[test]
    fn sharded_identity_holds_for_random_corpora(
        seed in 100u64..200,
        nshards in 1usize..6,
        threads in 0usize..3,
    ) {
        let (db, originals) = corpus(seed, 4);
        let params = TaleParams::default();
        let queries: Vec<&Graph> = originals.iter().collect();
        let opts = QueryOptions {
            rho: 0.25,
            p_imp: 0.25,
            ..Default::default()
        }
        .with_cache(false)
        .with_threads(threads);

        let single = TaleDatabase::build_in_temp(db.clone(), &params).unwrap();
        let want = single.query_batch(&queries, &opts).unwrap();
        let sharded = ShardedTaleDatabase::build_in_temp(db, &params, nshards).unwrap();
        let got = sharded.query_batch(&queries, &opts).unwrap();
        assert_bit_identical(&want, &got, &format!("seed={seed} shards={nshards} threads={threads}"));
    }
}
