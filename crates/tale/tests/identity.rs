//! The load-bearing contract of the database: query output is
//! **bit-identical** to the oracle — the engine run serially over one
//! generational index of the whole database (`common::Oracle`) — at every
//! shard count and every thread count, with the result cache cold or
//! warm, including after interleaved insert/remove/fold mutations and a
//! reopen, and under a manifest recording a retired placement. `explain`'s
//! row estimates are held to the rows the probes really examine.

mod common;

use common::{assert_bit_identical, corpus, Oracle, LABELS};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::path::Path;
use tale::{HashPolicy, PlanReport, QueryOptions, ShardedTaleDatabase, TaleError, TaleParams};
use tale_graph::generate::gnm;
use tale_graph::{Graph, GraphDb, NodeId, NodeLabel};
use tale_nhindex::{Snapshot, STATS_FILE};

const SHARD_COUNTS: &[usize] = &[1, 2, 4, 7];
const THREAD_COUNTS: &[usize] = &[0, 1, 4];

/// The full grid: shard counts {1, 2, 4, 7} × thread counts {0, 1, 4},
/// against the oracle, plus a cold and a warm pass with the result cache
/// on.
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

    let reference = Oracle::build(db.clone(), &params).answers(&queries, &base);

    for &nshards in SHARD_COUNTS {
        let dir = tempfile::tempdir().unwrap();
        let sharded =
            ShardedTaleDatabase::build(db.clone(), dir.path(), &params, nshards, &HashPolicy)
                .unwrap();
        for &threads in THREAD_COUNTS {
            let got = sharded
                .query_batch(&queries, &base.clone().with_threads(threads))
                .unwrap();
            assert_bit_identical(
                &reference,
                &got,
                &format!("shards={nshards} threads={threads}"),
            );
        }
        // cache on: the cold pass fills every shard's cache, the warm
        // pass must answer every query from it
        let cached = base.clone().with_cache(true);
        for pass in ["cold", "warm"] {
            let (got, stats) = sharded.query_batch_with_stats(&queries, &cached).unwrap();
            let ctx = format!("shards={nshards} cache {pass}");
            assert_bit_identical(&reference, &got, &ctx);
            if pass == "warm" {
                assert_eq!(stats.cache_hits, queries.len(), "{ctx}: hits");
            }
        }
    }
}

/// FNV-1a(id) mod `nshards`: the placement the build, insert routing and
/// compaction use, written out here independently of the library.
fn hash_shard(gid: u32, nshards: u32) -> u32 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in gid.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % nshards as u64) as u32
}

/// A `shards.json` that names a placement this build no longer has
/// (`size-balanced`) still opens with its recorded assignment and answers
/// like the oracle; an insert lands on its hash shard, and compaction
/// rewrites the manifest as a hash placement.
#[test]
fn a_manifest_naming_a_retired_placement_opens_and_places_by_hash() {
    let (db, originals) = corpus(45, 6);
    let params = TaleParams::default();
    let queries: Vec<&Graph> = originals.iter().collect();
    let opts = QueryOptions {
        rho: 0.25,
        p_imp: 0.25,
        ..Default::default()
    }
    .with_cache(false);
    let mut oracle = Oracle::build(db.clone(), &params);
    let dir = tempfile::tempdir().unwrap();
    let nshards = 3u32;
    drop(
        ShardedTaleDatabase::build(
            db.clone(),
            dir.path(),
            &params,
            nshards as usize,
            &HashPolicy,
        )
        .unwrap(),
    );
    let path = dir.path().join("shards.json");
    let json = std::fs::read_to_string(&path).unwrap();
    assert!(json.contains("\"policy\": \"hash\""), "{json}");
    std::fs::write(
        &path,
        json.replace("\"policy\": \"hash\"", "\"policy\": \"size-balanced\""),
    )
    .unwrap();

    let mut opened = ShardedTaleDatabase::open(dir.path(), params.buffer_frames).unwrap();
    assert_eq!(opened.index().manifest().policy, "size-balanced");
    let want = oracle.answers(&queries, &opts);
    let got = opened.query_batch(&queries, &opts).unwrap();
    assert_bit_identical(&want, &got, "size-balanced manifest");

    let mut rng = ChaCha8Rng::seed_from_u64(46);
    let extra = gnm(&mut rng, 30, 60, LABELS);
    let gid = opened.insert_graph("extra", extra.clone()).unwrap();
    oracle.insert("extra", extra);
    assert_eq!(
        opened.index().shard_of(gid),
        Some(hash_shard(gid.0, nshards))
    );
    let want = oracle.answers(&queries, &opts);
    let got = opened.query_batch(&queries, &opts).unwrap();
    assert_bit_identical(&want, &got, "after an insert");

    let compacted = opened.compact(&params).unwrap();
    let json = std::fs::read_to_string(&path).unwrap();
    assert!(json.contains("\"policy\": \"hash\""), "{json}");
    let by_hash: Vec<u32> = (0..compacted.db().len() as u32)
        .map(|g| hash_shard(g, nshards))
        .collect();
    assert_eq!(compacted.index().manifest().assignment, by_hash);
    let got = compacted.query_batch(&queries, &opts).unwrap();
    assert_bit_identical(&want, &got, "after compaction");
}

/// Identity must survive mutation: after the same interleaved
/// insert/remove/fold sequence on both databases, every (shard count,
/// thread count) combination still returns the oracle's answer bit for
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
        let mut oracle = Oracle::build(db.clone(), &params);
        let dir = tempfile::tempdir().unwrap();
        let mut sharded =
            ShardedTaleDatabase::build(db.clone(), dir.path(), &params, nshards, &HashPolicy)
                .unwrap();

        // warm the caches, then interleave: insert, remove, insert,
        // query, remove, insert — caches must stay exactly coherent
        let _ = sharded.query_batch(&queries, &opts).unwrap();

        let g0 = oracle.insert("x0", extras[0].clone());
        let s0 = sharded.insert_graph("x0", extras[0].clone()).unwrap();
        assert_eq!(g0, s0, "insertion ids must agree");

        oracle.remove(g0);
        sharded.remove_graph(s0).unwrap();

        let g1 = oracle.insert("x1", extras[1].clone());
        let s1 = sharded.insert_graph("x1", extras[1].clone()).unwrap();
        assert_eq!(g1, s1);

        let mid_oracle = oracle.answers(&queries, &opts);
        let mid_sharded = sharded.query_batch(&queries, &opts).unwrap();
        assert_bit_identical(
            &mid_oracle,
            &mid_sharded,
            &format!("shards={nshards} mid-stream"),
        );

        oracle.remove(tale_graph::GraphId(1));
        sharded.remove_graph(tale_graph::GraphId(1)).unwrap();
        let g2 = oracle.insert("x2", extras[2].clone());
        let s2 = sharded.insert_graph("x2", extras[2].clone()).unwrap();
        assert_eq!(g2, s2);

        let check = |oracle: &Oracle, sharded: &ShardedTaleDatabase, when: &str| {
            let want = oracle.answers(&queries, &opts);
            for &threads in THREAD_COUNTS {
                let o = opts.clone().with_threads(threads);
                let got = sharded.query_batch(&queries, &o).unwrap();
                assert_bit_identical(
                    &want,
                    &got,
                    &format!("shards={nshards} threads={threads} {when}"),
                );
            }
        };
        check(&oracle, &sharded, "after mutations");

        // fold: delta and tombstones move into fresh generations, answers
        // (and warm caches) must not notice
        let reports = sharded.fold().unwrap();
        assert_eq!(reports.len(), nshards);
        assert_eq!(reports.iter().map(|r| r.folded_inserts).sum::<u32>(), 3);
        check(&oracle, &sharded, "after fold");

        // one more insert on top of the folded generations, then reopen:
        // the delta is re-derived from the shard map
        let g3 = oracle.insert("x3", extras[0].clone());
        let s3 = sharded.insert_graph("x3", extras[0].clone()).unwrap();
        assert_eq!(g3, s3);
        drop(sharded);
        let reopened = ShardedTaleDatabase::open(dir.path(), params.buffer_frames).unwrap();
        check(&oracle, &reopened, "after reopen");
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
    let mut oracle = Oracle::build(db.clone(), &params);
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
            oracle.intern_node_label(&name),
            sharded.intern_node_label(&name),
        );
        assert_eq!(a, b);
        let n = late.add_node(a);
        late.add_edge(n, tale_graph::NodeId(i)).unwrap();
    }
    let gid = oracle.insert("late", late.clone());
    assert_eq!(sharded.insert_graph("late", late.clone()).unwrap(), gid);

    // fold the owning shard only
    let owner = sharded.index().shard_of(gid).unwrap() as usize;
    sharded.index().shards()[owner].fold(sharded.db()).unwrap();
    assert_eq!(sharded.index().shards()[owner].scheme(), scheme);
    drop(sharded);

    let reopened = ShardedTaleDatabase::open(dir.path(), params.buffer_frames).unwrap();
    let mut all = queries.clone();
    all.push(&late);
    let want = oracle.answers(&all, &opts);
    let got = reopened.query_batch(&all, &opts).unwrap();
    assert_bit_identical(&want, &got, "one shard folded after vocabulary growth");
    drop(reopened);

    // hand-skew: rebuild shard 1 alone under another width
    let members = tale::ShardManifest::load(dir.path()).unwrap().graphs_of(1);
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
        Err(TaleError::Manifest(m)) => assert!(m.contains("shard 1"), "{m}"),
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

        let want = Oracle::build(db.clone(), &params).answers(&queries, &opts);
        let sharded = ShardedTaleDatabase::build_in_temp(db, &params, nshards).unwrap();
        let got = sharded.query_batch(&queries, &opts).unwrap();
        assert_bit_identical(&want, &got, &format!("seed={seed} shards={nshards} threads={threads}"));
    }
}

/// A small corpus of rings through the database type at one, two and
/// three shards, against the oracle.
#[test]
fn sharded_matches_unsharded() {
    let mut db = GraphDb::new();
    let labels: Vec<_> = (0..4)
        .map(|i| db.intern_node_label(&format!("L{i}")))
        .collect();
    let mut graphs = Vec::new();
    for k in 0..6usize {
        let mut g = Graph::new_undirected();
        let n: Vec<_> = (0..4 + k % 3)
            .map(|j| g.add_node(labels[(j + k) % 4]))
            .collect();
        for w in n.windows(2) {
            g.add_edge(w[0], w[1]).unwrap();
        }
        g.add_edge(n[0], n[n.len() - 1]).unwrap();
        db.insert(format!("g{k}"), g.clone());
        graphs.push(g);
    }
    let params = TaleParams::default();
    let opts = QueryOptions {
        p_imp: 0.5,
        ..Default::default()
    };
    let queries: Vec<&Graph> = graphs.iter().collect();
    let want = Oracle::build(db.clone(), &params).answers(&queries, &opts);
    for nshards in [1, 2, 3] {
        let sharded = ShardedTaleDatabase::build_in_temp(db.clone(), &params, nshards).unwrap();
        let got: Vec<_> = graphs
            .iter()
            .map(|g| sharded.query(g, &opts).unwrap())
            .collect();
        assert_bit_identical(&want, &got, &format!("nshards={nshards}"));
    }
}

/// Label domains with private vocabularies: `DOMAINS` domains of three
/// labels each, `PER_DOMAIN` rings per domain in the database, and one
/// query ring per domain. On a shard that holds none of a domain's
/// graphs, that domain's query finds no candidate.
fn domain_corpus() -> (GraphDb, Vec<Graph>) {
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
    (db, queries)
}

/// Rows each of `report`'s probes examines, summed over every reader of
/// `sharded` (each shard's base generation, then its delta).
fn probe_rows(
    sharded: &ShardedTaleDatabase,
    query: &Graph,
    report: &PlanReport,
    opts: &QueryOptions,
) -> Vec<u64> {
    let snaps: Vec<Snapshot> = sharded
        .index()
        .shards()
        .iter()
        .map(|s| s.snapshot())
        .collect();
    Snapshot::with_readers(&snaps, |readers| {
        let label_of = |n: NodeId| sharded.db().effective_of_raw(query.label(n));
        report
            .probes
            .iter()
            .map(|p| {
                let sig = readers[0].signature(query, NodeId(p.node), &label_of);
                readers
                    .iter()
                    .map(|r| {
                        let probed = r.probe_batch(std::slice::from_ref(&sig), opts.rho, 1);
                        probed.unwrap()[0].1.rows_examined
                    })
                    .sum()
            })
            .collect()
    })
}

/// Every file named `name` under `dir`, recursively.
fn files_named(dir: &Path, name: &str) -> Vec<std::path::PathBuf> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            out.extend(files_named(&path, name));
        } else if path.file_name().is_some_and(|f| f == name) {
            out.push(path);
        }
    }
    out
}

/// What `explain` promises on a 5-shard build: every probe's `est_rows`
/// is known and bounds the rows that probe examines (statistics only
/// overestimate), and a shard whose `nh.stats.json` is gone still
/// explains, adds nothing to the estimates, and answers the same. A
/// domain's four graphs cover at most four of the five shards, so every
/// query runs on some shard where all its probes answer empty.
#[test]
fn explain_estimates_bound_examined_rows_and_survive_a_missing_statistics_file() {
    let (db, queries) = domain_corpus();
    let query_refs: Vec<&Graph> = queries.iter().collect();
    let params = TaleParams::default();
    let opts = QueryOptions {
        rho: 0.25,
        p_imp: 0.25,
        ..Default::default()
    }
    .with_cache(false);
    let want = Oracle::build(db.clone(), &params).answers(&query_refs, &opts);
    let dir = tempfile::tempdir().unwrap();
    let sharded = ShardedTaleDatabase::build(db, dir.path(), &params, 5, &HashPolicy).unwrap();
    let (got, stats) = sharded.query_batch_with_stats(&query_refs, &opts).unwrap();
    assert_bit_identical(&want, &got, "5-shard build");

    let mut examined = 0u64;
    let mut empty_cells = 0usize;
    let before: Vec<PlanReport> = queries.iter().map(|q| sharded.explain(q, &opts)).collect();
    for (qi, (q, report)) in queries.iter().zip(&before).enumerate() {
        let rows = probe_rows(&sharded, q, report, &opts);
        for (p, &r) in report.probes.iter().zip(&rows) {
            let est = p
                .est_rows
                .expect("every reader of a fresh build has statistics");
            assert!(
                est >= r,
                "query {qi} node {}: est_rows {est} < {r} rows examined",
                p.node
            );
        }
        let bases = report.tree.children[0].children.iter().step_by(2);
        empty_cells += bases.filter(|b| b.est_rows == 0).count();
        // the per-probe rows are exactly the rows the query run examined
        assert_eq!(
            rows.iter().sum::<u64>(),
            stats.per_query[qi].rows_examined,
            "query {qi}"
        );
        examined += rows.iter().sum::<u64>();
    }
    assert!(
        examined > 0,
        "no probe examined a row — the bound went untested"
    );
    assert!(
        empty_cells > 0,
        "every query found its labels on every shard"
    );
    drop(sharded);

    // Shard 1's base generation loses its statistics. Readers run shard
    // by shard, base then delta, so that is reader 2.
    let stats_files = files_named(&dir.path().join("shard-001"), STATS_FILE);
    assert_eq!(stats_files.len(), 1, "{stats_files:?}");
    std::fs::remove_file(&stats_files[0]).unwrap();
    let reopened = ShardedTaleDatabase::open(dir.path(), params.buffer_frames).unwrap();
    let mut dropped_rows = 0u64;
    for (qi, (q, was)) in queries.iter().zip(&before).enumerate() {
        let now = reopened.explain(q, &opts);
        let readers = &now.tree.children[0].children;
        assert_eq!(
            readers.len(),
            10,
            "query {qi}: five shards, base and delta each"
        );
        for (r, node) in readers.iter().enumerate() {
            assert_eq!(
                node.detail.contains("no-stats"),
                r == 2,
                "query {qi} reader {r}"
            );
        }
        assert_eq!(readers[2].est_rows, 0, "query {qi}");
        let dropped = &was.tree.children[0].children[2].children;
        dropped_rows += was.tree.children[0].children[2].est_rows;
        for ((p, old), gone) in now.probes.iter().zip(&was.probes).zip(dropped) {
            assert_eq!(
                p.est_rows,
                old.est_rows.map(|e| e - gone.est_rows),
                "query {qi} node {}: the shard without statistics still adds to the estimate",
                p.node
            );
        }
    }
    assert!(
        dropped_rows > 0,
        "shard 1 never estimated a row — the removal went untested"
    );
    let after = reopened.query_batch(&query_refs, &opts).unwrap();
    assert_bit_identical(&want, &after, "after removing shard 1's statistics");
}
