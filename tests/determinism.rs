//! Determinism guarantees: identical inputs produce identical outputs,
//! across repeated runs in one process and across parallel/serial builds.
//! (A HashMap-iteration-order bug produced flaky experiment numbers once;
//! these tests pin the property.)

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tale::{QueryOptions, TaleDatabase, TaleParams};
use tale_graph::generate::gnm;
use tale_graph::GraphDb;

fn build_db(seed: u64) -> (GraphDb, tale_graph::Graph) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut db = GraphDb::new();
    for i in 0..6 {
        db.intern_node_label(&format!("L{i}"));
    }
    for i in 0..8 {
        db.insert(format!("g{i}"), gnm(&mut rng, 40, 80, 6));
    }
    let query = gnm(&mut rng, 25, 50, 6);
    (db, query)
}

fn result_fingerprint(res: &[tale::QueryMatch]) -> Vec<(String, usize, usize, u64)> {
    res.iter()
        .map(|r| {
            (
                r.graph_name.clone(),
                r.matched_nodes,
                r.matched_edges,
                r.score.to_bits(),
            )
        })
        .collect()
}

#[test]
fn repeated_queries_identical() {
    let (db, query) = build_db(101);
    let tale = TaleDatabase::build_in_temp(db, &TaleParams::default()).unwrap();
    let opts = QueryOptions::default();
    let a = result_fingerprint(&tale.query(&query, &opts).unwrap());
    let b = result_fingerprint(&tale.query(&query, &opts).unwrap());
    assert_eq!(a, b);
    // node-level mappings identical too
    let ra = tale.query(&query, &opts).unwrap();
    let rb = tale.query(&query, &opts).unwrap();
    for (x, y) in ra.iter().zip(rb.iter()) {
        assert_eq!(x.m.pairs.len(), y.m.pairs.len());
        for (p, q) in x.m.pairs.iter().zip(y.m.pairs.iter()) {
            assert_eq!((p.query, p.target), (q.query, q.target));
        }
    }
}

#[test]
fn rebuilt_database_gives_identical_answers() {
    let (db, query) = build_db(102);
    let t1 = TaleDatabase::build_in_temp(db.clone(), &TaleParams::default()).unwrap();
    let t2 = TaleDatabase::build_in_temp(db, &TaleParams::default()).unwrap();
    let opts = QueryOptions::default();
    assert_eq!(
        result_fingerprint(&t1.query(&query, &opts).unwrap()),
        result_fingerprint(&t2.query(&query, &opts).unwrap())
    );
}

#[test]
fn serial_and_parallel_builds_agree() {
    let (db, query) = build_db(103);
    let serial = TaleDatabase::build_in_temp(
        db.clone(),
        &TaleParams {
            parallel_build: false,
            ..TaleParams::default()
        },
    )
    .unwrap();
    let parallel = TaleDatabase::build_in_temp(
        db,
        &TaleParams {
            parallel_build: true,
            ..TaleParams::default()
        },
    )
    .unwrap();
    assert_eq!(serial.index().node_count(), parallel.index().node_count());
    assert_eq!(serial.index().key_count(), parallel.index().key_count());
    let opts = QueryOptions::default();
    assert_eq!(
        result_fingerprint(&serial.query(&query, &opts).unwrap()),
        result_fingerprint(&parallel.query(&query, &opts).unwrap())
    );
}

#[test]
fn generators_are_seed_deterministic() {
    // two dataset generations from the same seed are structurally equal
    let a = tale_datasets::pin::SpeciesPins::generate(
        55,
        &[tale_datasets::pin::RAT, tale_datasets::pin::MOUSE],
        10,
        8,
    );
    let b = tale_datasets::pin::SpeciesPins::generate(
        55,
        &[tale_datasets::pin::RAT, tale_datasets::pin::MOUSE],
        10,
        8,
    );
    assert_eq!(a.db.len(), b.db.len());
    for (ga, gb) in a.db.iter().zip(b.db.iter()) {
        assert_eq!(ga.2.node_count(), gb.2.node_count());
        assert_eq!(ga.2.edge_count(), gb.2.edge_count());
        let ea: Vec<_> = ga.2.edges().collect();
        let eb: Vec<_> = gb.2.edges().collect();
        assert_eq!(ea, eb);
    }
    for (pa, pb) in a.pathways.iter().zip(b.pathways.iter()) {
        assert_eq!(pa.groups, pb.groups);
        assert_eq!(pa.members, pb.members);
    }
}

/// A copy of `g` whose edges carry one of three edge labels.
fn with_edge_labels(g: &tale_graph::Graph) -> tale_graph::Graph {
    use tale_graph::labels::EdgeLabel;
    let mut out = tale_graph::Graph::new(g.direction());
    for n in g.nodes() {
        out.add_node(g.label(n));
    }
    for (i, (u, v, _)) in g.edges().enumerate() {
        out.add_edge_labeled(u, v, EdgeLabel(i as u32 % 3))
            .expect("copying simple edges stays simple");
    }
    out
}

/// The engine's answers pinned to a constant: a hash of every answer's
/// graph, counts, score bits and node pairs over a seeded corpus, across
/// the paper's presets, extension radii 1–3, ρ ∈ {0, 0.25, 0.5} and
/// labeled-edge matching. The identity grids compare configurations of
/// one matcher against each other; this catches a change to the matcher
/// itself. An intended change of answers must state the new constant.
#[test]
fn engine_answers_match_the_pinned_hash() {
    use tale_graph::generate::{mutate, MutationRates};
    const PINNED: u64 = 0xe017_3a7c_ffc8_1ccd;

    let mut rng = ChaCha8Rng::seed_from_u64(2008);
    let mut db = GraphDb::new();
    for i in 0..6 {
        db.intern_node_label(&format!("L{i}"));
    }
    for i in 0..3 {
        db.intern_edge_label(&format!("E{i}"));
    }
    let mut queries = Vec::new();
    for i in 0..10 {
        let g = with_edge_labels(&gnm(&mut rng, 30, 60, 6));
        if i % 3 == 0 {
            queries.push(mutate(&mut rng, &g, &MutationRates::mild(), 6).0);
        }
        db.insert(format!("g{i}"), g);
    }
    queries.push(gnm(&mut rng, 15, 30, 6));
    let tale = TaleDatabase::build_in_temp(db, &TaleParams::default()).unwrap();

    let settings: Vec<(&str, QueryOptions)> = vec![
        ("default", QueryOptions::default()),
        ("bind", QueryOptions::bind()),
        ("astral", QueryOptions::astral()),
        (
            "hops=1",
            QueryOptions {
                hops: 1,
                ..QueryOptions::default()
            },
        ),
        (
            "hops=3",
            QueryOptions {
                hops: 3,
                ..QueryOptions::default()
            },
        ),
        (
            "rho=0",
            QueryOptions {
                rho: 0.0,
                ..QueryOptions::default()
            },
        ),
        (
            "rho=0.5",
            QueryOptions {
                rho: 0.5,
                ..QueryOptions::default()
            },
        ),
        (
            "edge labels",
            QueryOptions {
                match_edge_labels: true,
                ..QueryOptions::default()
            },
        ),
    ];
    // FNV-1a over the answers' fields, in answer order
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |x: u64| {
        for b in x.to_le_bytes() {
            hash = (hash ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    };
    let mut answers = 0;
    for (name, opts) in &settings {
        let opts = opts.clone().with_cache(false);
        for (i, q) in queries.iter().enumerate() {
            let res = tale.query(q, &opts).unwrap();
            assert!(!res.is_empty(), "{name}: query {i} matched nothing");
            answers += res.len();
            for r in &res {
                feed(r.graph.0 as u64);
                feed(r.matched_nodes as u64);
                feed(r.matched_edges as u64);
                feed(r.score.to_bits());
                for p in &r.m.pairs {
                    feed(((p.query.0 as u64) << 32) | p.target.0 as u64);
                }
            }
        }
    }
    assert!(
        answers > settings.len() * queries.len(),
        "too few answers to pin"
    );
    assert_eq!(hash, PINNED, "answers changed ({answers} answers hashed)");
}
