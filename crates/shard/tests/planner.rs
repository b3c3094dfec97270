//! Planner identity: `PlanMode::Cost` may change how the index is read —
//! probe order, readahead budgets, which shards execute at all — but
//! never what comes back. Every test here runs the same workload through
//! the fixed pipeline and the cost-based planner and demands bit-for-bit
//! equal answers (score bits included):
//!
//! * a full grid over shard count {1, 2, 4} × thread count {0, 1, 4} ×
//!   result cache {on, off}, warm and cold;
//! * after inserts, removals, and a fold (statistics go stale in exactly
//!   the ways the conservatism argument in `tale::engine::plan` permits);
//! * under proptest over random corpora and shard counts;
//! * on the skewed label-clustered placement where the infeasibility
//!   prune fires on most (query, shard) cells — the cell where an
//!   unsound feasibility proof would first drop a match.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tale::{PlanMode, QueryMatch, QueryOptions, TaleDatabase, TaleParams};
use tale_graph::generate::{gnm, mutate, MutationRates};
use tale_graph::labels::NodeLabel;
use tale_graph::{Graph, GraphDb, NodeId};
use tale_shard::{HashPolicy, LabelClusteredPolicy, ShardedTaleDatabase};

const LABELS: u32 = 6;

fn corpus(seed: u64, n_graphs: usize) -> (GraphDb, Vec<Graph>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut db = GraphDb::new();
    for i in 0..LABELS {
        db.intern_node_label(&format!("L{i}"));
    }
    let mut originals = Vec::new();
    for i in 0..n_graphs {
        let g = gnm(&mut rng, 24, 48, LABELS);
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

/// Top-K on, as every served workload runs; Pimp raised so most queries
/// probe more than one node (so reordering is reachable).
fn base_opts() -> QueryOptions {
    QueryOptions {
        rho: 0.25,
        p_imp: 0.25,
        ..Default::default()
    }
    .with_top_k(5)
}

/// Runs `queries` in both plan modes against `run` and demands
/// bit-identical answers. `run` receives the fully-assembled options.
fn assert_modes_agree(
    run: &dyn Fn(&QueryOptions) -> Vec<Vec<QueryMatch>>,
    opts: &QueryOptions,
    ctx: &str,
) {
    let fixed = run(&opts.clone().with_plan(PlanMode::Fixed));
    let cost = run(&opts.clone().with_plan(PlanMode::Cost));
    assert_bit_identical(&fixed, &cost, ctx);
}

/// The full identity grid: shards × threads × cache, fixed vs planned,
/// plus a warm second pass when the cache is on (cache entries written by
/// one mode must satisfy the other — the options fingerprint folds the
/// plan mode, so warm hits stay mode-consistent).
#[test]
fn planned_execution_is_bit_identical_across_the_grid() {
    let (db, originals) = corpus(71, 8);
    let params = TaleParams::default();
    let queries: Vec<&Graph> = originals.iter().collect();

    for &nshards in &[1usize, 2, 4] {
        let dir = tempfile::tempdir().unwrap();
        ShardedTaleDatabase::build(db.clone(), dir.path(), &params, nshards, &HashPolicy).unwrap();
        let sharded = ShardedTaleDatabase::open(dir.path(), 4096).unwrap();
        for &threads in &[0usize, 1, 4] {
            for &cache in &[true, false] {
                let opts = base_opts().with_threads(threads).with_cache(cache);
                let ctx = format!("shards={nshards} threads={threads} cache={cache}");
                assert_modes_agree(&|o| sharded.query_batch(&queries, o).unwrap(), &opts, &ctx);
                if cache {
                    // warm pass: both modes again, now against a cache
                    // populated by both modes' first passes
                    assert_modes_agree(
                        &|o| sharded.query_batch(&queries, o).unwrap(),
                        &opts,
                        &format!("{ctx} warm"),
                    );
                }
            }
        }
    }
}

/// Identity must survive the statistics going stale: merged-in inserts,
/// tombstoned removals (stats unchanged — overestimates), and a fold
/// (stats rebuilt exact). Unsharded layout: insert → remove → fold.
#[test]
fn planned_identity_after_insert_remove_and_fold_unsharded() {
    let (db, originals) = corpus(72, 6);
    let (extra_db, extras) = corpus(172, 3);
    let queries: Vec<&Graph> = originals.iter().collect();
    let dir = tempfile::tempdir().unwrap();
    TaleDatabase::build(db, dir.path(), &TaleParams::default()).unwrap();
    let tale = TaleDatabase::open(dir.path(), 4096).unwrap();
    // remap the extra graphs into the live vocabulary by name
    let mut inserted = Vec::new();
    for (i, g) in extras.iter().enumerate() {
        let mut remapped = Graph::new(g.direction());
        for n in g.nodes() {
            let name = extra_db.node_vocab().name(g.label(n).0).unwrap().to_owned();
            let l = tale.intern_node_label(&name);
            remapped.add_node(l);
        }
        for (u, v, _) in g.edges() {
            remapped.add_edge(u, v).unwrap();
        }
        inserted.push(tale.insert_graph(format!("x{i}"), remapped).unwrap());
    }
    let run = |o: &QueryOptions| tale.query_batch(&queries, o).unwrap();
    let opts = base_opts().with_cache(false);
    assert_modes_agree(&run, &opts, "unsharded after insert");
    tale.remove_graph(inserted[0]).unwrap();
    assert_modes_agree(&run, &opts, "unsharded after remove");
    tale.fold().unwrap();
    assert_modes_agree(&run, &opts, "unsharded after fold");
}

/// Sharded layout: routed inserts update the owning shard's statistics;
/// removals leave them overestimating. Identity must hold either way.
#[test]
fn planned_identity_after_insert_and_remove_sharded() {
    let (db, originals) = corpus(73, 6);
    let queries: Vec<&Graph> = originals.iter().collect();
    let dir = tempfile::tempdir().unwrap();
    ShardedTaleDatabase::build(db, dir.path(), &TaleParams::default(), 3, &HashPolicy).unwrap();
    let mut sharded = ShardedTaleDatabase::open(dir.path(), 4096).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(173);
    let mut g = Graph::new_undirected();
    for _ in 0..10 {
        g.add_node(NodeLabel(rng.gen_range(0..LABELS)));
    }
    for j in 1..10u32 {
        g.add_edge(NodeId(j - 1), NodeId(j)).unwrap();
    }
    let gid = sharded.insert_graph("late", g).unwrap();
    {
        let run = |o: &QueryOptions| sharded.query_batch(&queries, o).unwrap();
        let opts = base_opts().with_cache(false);
        assert_modes_agree(&run, &opts, "sharded after insert");
    }
    sharded.remove_graph(gid).unwrap();
    let run = |o: &QueryOptions| sharded.query_batch(&queries, o).unwrap();
    let opts = base_opts().with_cache(false);
    assert_modes_agree(&run, &opts, "sharded after remove");
}

/// The placement where pruning actually fires: label domains with
/// private vocabularies, clustered placement, top-K and unbounded
/// workloads. The cost pass must (a) agree bit-for-bit with the fixed
/// pass AND with the unsharded single index, and (b) prune exactly the
/// (query, reader) cells its plan proves infeasible — at least one, or
/// this test guards nothing.
#[test]
fn shard_pruning_is_safe_on_skewed_clustered_placement() {
    const DOMAINS: usize = 5;
    const PER_DOMAIN: usize = 4;
    let mut rng = ChaCha8Rng::seed_from_u64(74);
    let mut db = GraphDb::new();
    for d in 0..DOMAINS {
        for j in 0..3 {
            db.intern_node_label(&format!("d{d}-l{j}"));
        }
    }
    let mut domain_graph = |base: u32, n: usize| {
        let mut g = Graph::new_undirected();
        for _ in 0..n {
            g.add_node(NodeLabel(base + rng.gen_range(0..3)));
        }
        for j in 1..n as u32 {
            g.add_edge(NodeId(j - 1), NodeId(j)).unwrap();
        }
        g.add_edge(NodeId(0), NodeId(n as u32 - 1)).unwrap();
        g
    };
    let mut queries = Vec::new();
    for d in 0..DOMAINS {
        let base = (d * 3) as u32;
        for i in 0..PER_DOMAIN {
            db.insert(format!("d{d}g{i}"), domain_graph(base, 8 + (i % 3) * 2));
        }
        queries.push(domain_graph(base, 6));
    }
    let query_refs: Vec<&Graph> = queries.iter().collect();

    let single_dir = tempfile::tempdir().unwrap();
    let single =
        TaleDatabase::build(db.clone(), single_dir.path(), &TaleParams::default()).unwrap();
    let shard_dir = tempfile::tempdir().unwrap();
    ShardedTaleDatabase::build(
        db,
        shard_dir.path(),
        &TaleParams::default(),
        4,
        &LabelClusteredPolicy,
    )
    .unwrap();
    let sharded = ShardedTaleDatabase::open(shard_dir.path(), 4096).unwrap();

    for k in [Some(1usize), Some(3), Some(8), None] {
        let opts = QueryOptions {
            top_k: k,
            ..base_opts().with_cache(false)
        };
        let reference = single
            .query_batch(&query_refs, &opts.clone().with_plan(PlanMode::Fixed))
            .unwrap();
        let (fixed, fixed_stats) = sharded
            .query_batch_with_stats(&query_refs, &opts.clone().with_plan(PlanMode::Fixed))
            .unwrap();
        let cost_opts = opts.clone().with_plan(PlanMode::Cost);
        let (cost, stats) = sharded
            .query_batch_with_stats(&query_refs, &cost_opts)
            .unwrap();
        assert_bit_identical(
            &reference,
            &fixed,
            &format!("k={k:?} single vs sharded fixed"),
        );
        assert_bit_identical(
            &reference,
            &cost,
            &format!("k={k:?} single vs sharded planned"),
        );
        // Each cell the plan proves infeasible is skipped exactly once
        // (the cache is off), and no other cell is.
        let infeasible: u64 = query_refs
            .iter()
            .flat_map(|q| sharded.explain(q, &cost_opts).shards)
            .filter(|sp| sp.has_stats && sp.feasible_probes == 0)
            .count() as u64;
        assert_eq!(
            stats.shards_pruned, infeasible,
            "k={k:?}: pruned cells vs cells the plan proves infeasible"
        );
        assert!(
            stats.shards_pruned > 0,
            "k={k:?}: clustered placement never pruned — the safety claim went untested"
        );
        assert_eq!(
            fixed_stats.shards_pruned, 0,
            "k={k:?}: the fixed pass pruned"
        );
        assert_eq!(
            fixed_stats.probes_reordered, 0,
            "k={k:?}: the fixed pass reordered"
        );
        assert!(
            stats.probes_reordered > 0,
            "k={k:?}: no probe was reordered"
        );
        assert!(
            stats.probes_issued < fixed_stats.probes_issued,
            "k={k:?}: planning must issue fewer probes ({} vs {} fixed)",
            stats.probes_issued,
            fixed_stats.probes_issued
        );
        let fetched =
            |s: &tale::BatchStats| -> u64 { s.shards.iter().map(|sh| sh.postings_fetched).sum() };
        assert!(
            fetched(&stats) <= fetched(&fixed_stats),
            "k={k:?}: postings fetched"
        );
    }
}

mod prop {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 6 })]

        /// Random corpora, shard counts, thread counts, and K: the two
        /// plan modes must agree bit-for-bit on every draw.
        #[test]
        fn planned_matches_fixed_on_random_corpora(
            seed in 0u64..1000,
            nshards in 1usize..5,
            n_graphs in 4usize..9,
            threads in 0usize..3,
            k in 1usize..7,
        ) {
            let (db, originals) = corpus(seed, n_graphs);
            let queries: Vec<&Graph> = originals.iter().collect();
            let dir = tempfile::tempdir().unwrap();
            ShardedTaleDatabase::build(
                db,
                dir.path(),
                &TaleParams::default(),
                nshards,
                &HashPolicy,
            )
            .unwrap();
            let sharded = ShardedTaleDatabase::open(dir.path(), 4096).unwrap();
            let opts = base_opts()
                .with_cache(false)
                .with_threads(threads)
                .with_top_k(k);
            let fixed = sharded
                .query_batch(&queries, &opts.clone().with_plan(PlanMode::Fixed))
                .unwrap();
            let cost = sharded
                .query_batch(&queries, &opts.clone().with_plan(PlanMode::Cost))
                .unwrap();
            assert_bit_identical(
                &fixed,
                &cost,
                &format!("seed={seed} shards={nshards} graphs={n_graphs} threads={threads} k={k}"),
            );
        }
    }
}
