//! Cold-cache identity: buffer-pool size is a performance knob, never a
//! correctness knob. Every combination of pool size {1 frame, ~1% of the
//! index, unbounded} × thread count {0, 4} × layout {single index,
//! 4 shards} must answer the same query workload bit-identically to an
//! unbounded-pool serial reference — including `query` (the singular
//! path) and under repeated hammering of a 1-frame pool, where a single
//! leaked pin or cross-page flush contamination would surface
//! immediately.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tale::{QueryMatch, QueryOptions, TaleDatabase, TaleParams};
use tale_graph::generate::{gnm, mutate, MutationRates};
use tale_graph::{Graph, GraphDb};
use tale_shard::{HashPolicy, ShardedTaleDatabase};
use tale_storage::PAGE_SIZE;

const LABELS: u32 = 6;
const THREAD_COUNTS: &[usize] = &[0, 4];

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

fn base_opts() -> QueryOptions {
    QueryOptions {
        rho: 0.25,
        p_imp: 0.25,
        ..Default::default()
    }
    .with_cache(false)
}

/// The pool sizes the grid sweeps for an index of `pages` total pages:
/// the degenerate 1-frame pool, ~1% of the index, and the whole index.
fn pool_sizes(pages: usize) -> [usize; 3] {
    [1, (pages / 100).max(2), pages.max(8)]
}

/// The full grid: pool sizes × thread counts × single/sharded, each cell
/// a *cold* open of the on-disk index, against an unbounded serial
/// reference. Also exercises the singular `query` path per pool size.
#[test]
fn cold_identity_across_pool_sizes_threads_and_layouts() {
    let (db, originals) = corpus(61, 16);
    let params = TaleParams::default();
    let queries: Vec<&Graph> = originals.iter().collect();

    let single_dir = tempfile::tempdir().unwrap();
    let built = TaleDatabase::build(db.clone(), single_dir.path(), &params).unwrap();
    let pages = (built.index_size_bytes() as usize)
        .div_ceil(PAGE_SIZE)
        .max(1);
    drop(built);
    let shard_dir = tempfile::tempdir().unwrap();
    ShardedTaleDatabase::build(db.clone(), shard_dir.path(), &params, 4, &HashPolicy).unwrap();

    let reference = {
        let r = TaleDatabase::open(single_dir.path(), pages.max(8)).unwrap();
        r.query_batch(&queries, &base_opts().with_threads(1))
            .unwrap()
    };

    let mut readahead_issued = 0;
    for &frames in &pool_sizes(pages) {
        for &threads in THREAD_COUNTS {
            let opts = base_opts().with_threads(threads);

            let cold = TaleDatabase::open(single_dir.path(), frames).unwrap();
            let got = cold.query_batch(&queries, &opts).unwrap();
            assert_bit_identical(
                &reference,
                &got,
                &format!("single frames={frames} threads={threads}"),
            );
            let pool = cold.index().pool_stats();
            assert!(
                pool.misses + pool.prefetched > 0,
                "frames={frames} threads={threads}: a cold pass read nothing from disk"
            );
            if frames < pages {
                readahead_issued += cold.index().prefetch_stats().issued;
            }
            // the singular path takes the same cold pool
            let one = cold.query(queries[0], &opts).unwrap();
            assert_bit_identical(
                &reference[..1],
                &[one],
                &format!("single query() frames={frames} threads={threads}"),
            );

            let cold = ShardedTaleDatabase::open(shard_dir.path(), frames).unwrap();
            let got = cold.query_batch(&queries, &opts).unwrap();
            assert_bit_identical(
                &reference,
                &got,
                &format!("sharded frames={frames} threads={threads}"),
            );
        }
    }
    // the batched probe path issues readahead on a constrained pool
    assert!(readahead_issued > 0, "no constrained pool issued readahead");
}

/// Hammers a 1-frame pool: every fetch evicts, every descent re-reads,
/// and 4 query threads fight over the single frame for several rounds.
/// Answers must stay bit-identical every round, the pool must report
/// real disk traffic, and the access taxonomy must stay a partition
/// (hits + coalesced + misses + prefetched == fetches). A leaked pin
/// would wedge round two; stale flush bytes would corrupt a later read.
#[test]
fn one_frame_pool_stress_keeps_identity_and_ledger() {
    let (db, originals) = corpus(62, 6);
    let params = TaleParams::default();
    let queries: Vec<&Graph> = originals.iter().collect();

    let dir = tempfile::tempdir().unwrap();
    let built = TaleDatabase::build(db.clone(), dir.path(), &params).unwrap();
    let pages = (built.index_size_bytes() as usize)
        .div_ceil(PAGE_SIZE)
        .max(8);
    drop(built);

    let reference = {
        let r = TaleDatabase::open(dir.path(), pages).unwrap();
        r.query_batch(&queries, &base_opts().with_threads(1))
            .unwrap()
    };

    let cold = TaleDatabase::open(dir.path(), 1).unwrap();
    for round in 0..4 {
        for &threads in THREAD_COUNTS {
            let got = cold
                .query_batch(&queries, &base_opts().with_threads(threads))
                .unwrap();
            assert_bit_identical(
                &reference,
                &got,
                &format!("round {round} threads {threads}"),
            );
        }
    }
    let stats = cold.index().pool_stats();
    assert!(stats.misses > 0, "a 1-frame pool cannot avoid disk reads");
    assert_eq!(
        stats.accesses(),
        stats.hits + stats.coalesced + stats.misses + stats.prefetched,
        "access taxonomy must partition every fetch"
    );
}
