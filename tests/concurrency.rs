//! Concurrency smoke tests: many threads sharing one `TaleDatabase` (with a
//! deliberately tiny buffer pool, so the page-pinning paths are exercised
//! under contention) must each see answers identical to a serial baseline,
//! and the `threads` knob must never change what a query returns.

use std::sync::Arc;
use tale::{BatchStats, QueryMatch, QueryOptions, TaleDatabase, TaleParams};
use tale_graph::{generate::gnm, Graph, GraphDb, GraphId};

fn corpus(seed: u64) -> (GraphDb, Vec<Graph>) {
    let mut rng = <rand_chacha::ChaCha8Rng as rand::SeedableRng>::seed_from_u64(seed);
    let mut db = GraphDb::new();
    for i in 0..8 {
        db.intern_node_label(&format!("L{i}"));
    }
    for i in 0..10 {
        let g = gnm(&mut rng, 60, 120, 8);
        db.insert(format!("g{i}"), g);
    }
    let queries: Vec<Graph> = (0..4).map(|i| db.graph(GraphId(i)).clone()).collect();
    (db, queries)
}

/// Results must agree pair-for-pair, not just in aggregate: the parallel
/// pipeline claims bit-identical output.
fn assert_identical(a: &[QueryMatch], b: &[QueryMatch]) {
    assert_eq!(a.len(), b.len(), "result count");
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.graph, y.graph);
        assert_eq!(x.graph_name, y.graph_name);
        assert_eq!(x.matched_nodes, y.matched_nodes);
        assert_eq!(x.matched_edges, y.matched_edges);
        assert_eq!(x.score, y.score, "score must be bit-identical");
        assert_eq!(x.m.pairs, y.m.pairs, "match pairs must be identical");
    }
}

/// A batch's probe traffic: per shard `[probes, keys, postings fetched,
/// postings filtered, rows, candidates]`, then per query the same plus
/// shared probes and candidate graphs. It is a function of the query and
/// the index alone, so batches running side by side must each report
/// exactly what they would alone.
type Traffic = (Vec<[u64; 6]>, Vec<[u64; 8]>);

fn traffic(batch: &BatchStats) -> Traffic {
    let shards = batch
        .shards
        .iter()
        .map(|s| {
            [
                s.probes,
                s.keys_scanned,
                s.postings_fetched,
                s.postings_filtered,
                s.rows_examined,
                s.candidates,
            ]
        })
        .collect();
    let queries = batch
        .per_query
        .iter()
        .map(|q| {
            [
                q.probes,
                q.keys_scanned,
                q.postings_fetched,
                q.postings_filtered,
                q.rows_examined,
                q.candidates,
                q.probes_shared,
                q.candidate_graphs as u64,
            ]
        })
        .collect();
    (shards, queries)
}

#[test]
fn shared_database_concurrent_queries_match_serial() {
    let (db, queries) = corpus(77);
    let tale = Arc::new(
        TaleDatabase::build_in_temp(
            db,
            &TaleParams {
                buffer_frames: 8,
                ..TaleParams::default()
            },
        )
        .expect("build"),
    );
    // Cache off: every run probes, so every run's traffic is comparable.
    let opts = QueryOptions::default().with_cache(false);
    let serial: Vec<(Vec<QueryMatch>, Traffic)> = queries
        .iter()
        .map(|q| {
            let (mut res, batch) = tale
                .query_batch_with_stats(&[q], &opts)
                .expect("serial query");
            (res.remove(0), traffic(&batch))
        })
        .collect();

    std::thread::scope(|s| {
        for t in 0..8usize {
            let tale = Arc::clone(&tale);
            let queries = &queries;
            let serial = &serial;
            let opts = &opts;
            s.spawn(move || {
                for round in 0..3usize {
                    let i = (t + round) % queries.len();
                    let (res, batch) = tale
                        .query_batch_with_stats(&[&queries[i]], opts)
                        .expect("concurrent query");
                    assert_identical(&serial[i].0, &res[0]);
                    assert_eq!(
                        serial[i].1,
                        traffic(&batch),
                        "query {i}: traffic differs from the serial run"
                    );
                }
            });
        }
    });
}

#[test]
fn thread_count_does_not_change_results() {
    let (db, queries) = corpus(78);
    let tale = TaleDatabase::build_in_temp(
        db,
        &TaleParams {
            buffer_frames: 16,
            ..TaleParams::default()
        },
    )
    .expect("build");
    for q in &queries {
        let baseline = tale
            .query(q, &QueryOptions::default().with_threads(1))
            .expect("serial");
        for threads in [0usize, 2, 4] {
            let res = tale
                .query(q, &QueryOptions::default().with_threads(threads))
                .expect("parallel");
            assert_identical(&baseline, &res);
        }
    }
}
