//! Cold-cache identity: buffer-pool size is a performance knob, never a
//! correctness knob. Every combination of pool size {1 frame, ~1% of the
//! index, unbounded} × thread count {0, 4} × shard count {1, 4} must
//! answer the same query workload bit-identically to the oracle (the
//! engine run serially over one warm generational index) — including
//! `query` (the singular path) and under repeated hammering of a 1-frame
//! pool, where a single leaked pin or a frame bound to the wrong page
//! would surface immediately.

mod common;

use common::{assert_bit_identical, corpus, Oracle};
use tale::{HashPolicy, QueryOptions, ShardedTaleDatabase, TaleDatabase, TaleParams};
use tale_graph::Graph;
use tale_storage::PAGE_SIZE;

const THREAD_COUNTS: &[usize] = &[0, 4];

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

/// The full grid: pool sizes × thread counts × one/four shards, each cell
/// a *cold* open of the on-disk index, against the oracle. Also exercises the singular `query` path per pool size.
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

    let reference = Oracle::build(db, &params).answers(&queries, &base_opts());

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
/// would wedge round two; a frame bound to the wrong page would corrupt a
/// later read.
#[test]
fn one_frame_pool_stress_keeps_identity_and_ledger() {
    let (db, originals) = corpus(62, 6);
    let params = TaleParams::default();
    let queries: Vec<&Graph> = originals.iter().collect();

    let dir = tempfile::tempdir().unwrap();
    drop(TaleDatabase::build(db.clone(), dir.path(), &params).unwrap());
    let reference = Oracle::build(db, &params).answers(&queries, &base_opts());

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
