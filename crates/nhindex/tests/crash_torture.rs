//! Crash-torture harness for the generational index: every gated I/O
//! operation of a mutation is failed in turn, the process death is
//! simulated by dropping the handle with the fault still tripped, and the
//! reopened index must be *bit-identical in query output* to either the
//! pre-mutation state (the `mvcc.json` flip never landed) or the
//! post-mutation state (it did) — never anything in between. No mutation
//! touches an existing page file, so there is nothing to roll back: the
//! manifest flip is the only commit point.
//!
//! The fault shim is thread-local, so these tests are safe under the
//! default parallel test runner.

use std::path::Path;
use tale_graph::{Graph, GraphDb, GraphId, NodeId};
use tale_nhindex::{GenerationalNhIndex, IndexReader, NhIndex, NhIndexConfig, NodeCandidate};
use tale_storage::faults;

/// Tiny pool, so recovery and the integrity checks read through constant
/// eviction.
fn cfg() -> NhIndexConfig {
    NhIndexConfig {
        sbit: 32,
        buffer_frames: 8,
        parallel_build: false,
        bloom_hashes: 1,
        use_edge_labels: false,
        ..NhIndexConfig::default()
    }
}

/// Five graphs over labels {A, B, C}.
fn sample_db() -> GraphDb {
    let mut db = GraphDb::new();
    let a = db.intern_node_label("A");
    let b = db.intern_node_label("B");
    let c = db.intern_node_label("C");

    // g0: triangle with a pendant
    let mut g0 = Graph::new_undirected();
    let n0 = g0.add_node(a);
    let n1 = g0.add_node(b);
    let n2 = g0.add_node(c);
    let n3 = g0.add_node(a);
    g0.add_edge(n0, n1).unwrap();
    g0.add_edge(n1, n2).unwrap();
    g0.add_edge(n0, n2).unwrap();
    g0.add_edge(n0, n3).unwrap();
    db.insert("g0", g0);

    // g1: star
    let mut g1 = Graph::new_undirected();
    let m0 = g1.add_node(a);
    let m1 = g1.add_node(b);
    let m2 = g1.add_node(b);
    let m3 = g1.add_node(c);
    g1.add_edge(m0, m1).unwrap();
    g1.add_edge(m0, m2).unwrap();
    g1.add_edge(m0, m3).unwrap();
    db.insert("g1", g1);

    // g2: 6-chain alternating labels
    let mut g2 = Graph::new_undirected();
    let nodes: Vec<NodeId> = [a, b, c, a, b, c].iter().map(|&l| g2.add_node(l)).collect();
    for w in nodes.windows(2) {
        g2.add_edge(w[0], w[1]).unwrap();
    }
    db.insert("g2", g2);

    let mut g3 = Graph::new_undirected();
    let x = g3.add_node(a);
    let y = g3.add_node(b);
    let z = g3.add_node(a);
    g3.add_edge(x, y).unwrap();
    g3.add_edge(y, z).unwrap();
    db.insert("g3", g3);

    let mut g4 = Graph::new_undirected();
    let u = g4.add_node(c);
    let v = g4.add_node(c);
    g4.add_edge(u, v).unwrap();
    db.insert("g4", g4);

    db
}

#[test]
fn bit_flip_is_refused_not_served() {
    let db = sample_db();
    let dir = tempfile::tempdir().unwrap();
    let idx = NhIndex::build(dir.path(), &db, &cfg()).unwrap();
    let clean = idx.verify().unwrap();
    assert!(
        clean.is_ok(),
        "clean index fails verify: {:?}",
        clean.errors
    );
    assert!(clean.btree_pages > 0 && clean.postings > 0);
    drop(idx);

    // flip one payload byte in the middle of the B+-tree file
    let bt = dir.path().join("nh.btree");
    let mut bytes = std::fs::read(&bt).unwrap();
    let victim = bytes.len() / 2;
    bytes[victim] ^= 0x40;
    std::fs::write(&bt, &bytes).unwrap();

    let idx = NhIndex::open(dir.path(), cfg().buffer_frames).unwrap();
    let report = idx.verify().unwrap();
    assert!(!report.is_ok(), "bit flip not detected");
    assert!(
        report.errors.iter().any(|e| e.contains("nh.btree")),
        "corruption not attributed to the damaged file: {:?}",
        report.errors
    );
}

/// A generational index directory holds `mvcc.json` plus `gens/g{N}/`
/// subtrees.
fn copy_tree(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        if entry.file_type().unwrap().is_dir() {
            copy_tree(&entry.path(), &dst.join(entry.file_name()));
        } else {
            std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
        }
    }
}

/// Full probe matrix through a snapshot (base + delta concatenated,
/// sorted) — the query output whose bit-identity the kills assert.
fn probe_matrix(idx: &GenerationalNhIndex, db: &GraphDb) -> Vec<Vec<NodeCandidate>> {
    let snap = idx.snapshot();
    let mut out = Vec::new();
    for (gid, _, g) in db.iter() {
        let label_of = |n: NodeId| db.effective_label(gid, n);
        let sigs: Vec<_> = g
            .nodes()
            .map(|n| snap.base().signature(g, n, &label_of))
            .collect();
        let base = snap.base_reader().probe_batch(&sigs, 0.3, 1).unwrap();
        let delta = snap.delta_reader().probe_batch(&sigs, 0.3, 1).unwrap();
        for ((mut hits, _), (d, _)) in base.into_iter().zip(delta) {
            hits.extend(d);
            hits.sort_by_key(|c| c.node);
            out.push(hits);
        }
    }
    out
}

/// `gens/` must hold exactly the current generation's directory, and no
/// mutation may ever leave a write-ahead log behind.
fn assert_gens_swept(dir: &Path, current: u64) {
    let names: Vec<String> = std::fs::read_dir(dir.join("gens"))
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(
        names,
        vec![format!("g{current}")],
        "orphaned generation directories not swept"
    );
    for d in [dir.to_owned(), dir.join("gens").join(format!("g{current}"))] {
        assert!(
            !d.join(tale_nhindex::LEGACY_WAL_FILE).exists(),
            "a WAL appeared in {d:?}"
        );
    }
}

fn ids(members: &[u32]) -> Vec<GraphId> {
    members.iter().map(|&g| GraphId(g)).collect()
}

fn open(dir: &Path, db: &GraphDb, members: &[u32]) -> GenerationalNhIndex {
    GenerationalNhIndex::open_members(dir, db, &ids(members), &cfg(), None)
        .unwrap()
        .0
}

/// Mid-fold kill: every gated I/O of a generational fold is failed in
/// turn, the handle is dropped with the fault tripped, and the reopened
/// index must land on exactly generation G (fold never committed) or G+1
/// (manifest flip landed) — with orphaned generation directories swept
/// and query output bit-identical either way, because a fold changes
/// representation, never contents. `members` are the graphs of
/// `sample_db` the index covers: all five for the single-index layout, a
/// subset for one shard of the sharded layout (the others belong to
/// sibling shards and must stay invisible throughout).
fn mid_fold_kill(members: &[u32]) {
    let scratch = tempfile::tempdir().unwrap();
    let pre = scratch.path().join("pre");

    // Pre state: generation 0 over the members, one unfolded insert in
    // the delta, one tombstone — a fold with real work to do.
    let mut db = sample_db();
    let idx = GenerationalNhIndex::build_members(&pre, &db, &ids(members), &cfg(), None).unwrap();
    let extra = {
        let a = db.intern_node_label("A");
        let c = db.intern_node_label("C");
        let mut g = Graph::new_undirected();
        let x = g.add_node(a);
        let y = g.add_node(c);
        let z = g.add_node(a);
        g.add_edge(x, y).unwrap();
        g.add_edge(y, z).unwrap();
        db.insert("extra", g)
    };
    idx.insert_graph(&db, extra).unwrap();
    idx.remove_graph(GraphId(members[1])).unwrap();
    let mut members = members.to_vec();
    members.push(extra.0);
    let pre_gen = idx.current_generation();
    let pre_logical = idx.logical_generation();
    let pre_matrix = probe_matrix(&idx, &db);
    drop(idx);

    // The pre state answers exactly like a plain index over the live
    // members — nothing of a sibling shard's graphs leaks in.
    let live: Vec<GraphId> = ids(&members)
        .into_iter()
        .filter(|g| g.0 != members[1])
        .collect();
    let oracle_dir = scratch.path().join("oracle");
    let oracle = NhIndex::build_subset(&oracle_dir, &db, &cfg(), &live).unwrap();
    for (row, hits) in pre_matrix.iter().enumerate() {
        assert!(
            hits.iter().all(|c| live.contains(&GraphId(c.node.graph))),
            "row {row} answers with a non-member or removed graph"
        );
    }
    let (gid, _, g) = db.iter().next().unwrap();
    let sig = oracle.signature(g, NodeId(0), &|n| db.effective_label(gid, n));
    let mut want = oracle.probe(&sig, 0.3).unwrap();
    want.sort_by_key(|c| c.node);
    assert_eq!(pre_matrix[0], want);

    // Reference post state: a clean fold on a copy. Its matrix must
    // equal the pre matrix — the fold-is-representation-only oracle.
    let post_dir = scratch.path().join("post");
    copy_tree(&pre, &post_dir);
    let idx = open(&post_dir, &db, &members);
    let report = idx.fold(&db).unwrap();
    assert_eq!(report.new_generation, pre_gen + 1);
    assert_eq!(report.folded_inserts, 1);
    assert_eq!(report.folded_removes, 1);
    assert_eq!(probe_matrix(&idx, &db), pre_matrix, "fold changed answers");
    drop(idx);

    // Measure the fold's gated I/O footprint.
    let count_dir = scratch.path().join("count");
    copy_tree(&pre, &count_dir);
    let idx = open(&count_dir, &db, &members);
    faults::arm_counting();
    idx.fold(&db).unwrap();
    let n = faults::disarm();
    drop(idx);
    assert!(n >= 3, "suspiciously few fold fault points: {n}");

    for i in 0..n {
        let work = scratch.path().join(format!("fault-{i}"));
        copy_tree(&pre, &work);
        let idx = open(&work, &db, &members);
        faults::arm(i);
        let res = idx.fold(&db);
        drop(idx); // the process is "dead"; no GC runs
        faults::disarm();
        assert!(res.is_err(), "fault {i} of {n} did not surface");

        let (idx, rec) =
            GenerationalNhIndex::open_members(&work, &db, &ids(&members), &cfg(), None).unwrap();
        let landed = idx.current_generation();
        assert!(
            landed == pre_gen || landed == pre_gen + 1,
            "fault {i} of {n}: landed on generation {landed}, expected {pre_gen} or {}",
            pre_gen + 1
        );
        assert_eq!(
            idx.logical_generation(),
            pre_logical,
            "fault {i}: a fold must never move the logical counter"
        );
        assert_gens_swept(&work, landed);
        let snap = idx.snapshot();
        if landed == pre_gen {
            // Fold never committed: the unfinished g{N+1} was swept
            // (if it ever hit disk) and the delta is re-derived.
            assert!(rec.swept.iter().all(|&g| g == pre_gen + 1));
            assert_eq!(snap.delta_graphs(), 1, "fault {i}: delta not re-derived");
        } else {
            assert_eq!(snap.delta_graphs(), 0, "fault {i}: delta survived a commit");
        }
        // The tombstone persists across the fold either way.
        assert_eq!(snap.removed_count(), 1, "fault {i}: tombstone lost");
        drop(snap);
        assert_eq!(
            probe_matrix(&idx, &db),
            pre_matrix,
            "fault {i} of {n}: recovered state is not bit-identical"
        );
        let integrity = idx.verify().unwrap();
        assert!(
            integrity.is_ok(),
            "fault {i} of {n}: integrity errors after recovery: {:?}",
            integrity.errors
        );
        drop(idx);
        std::fs::remove_dir_all(&work).unwrap();
    }
}

#[test]
fn torture_mid_fold_kill_lands_on_g_or_g_plus_one() {
    mid_fold_kill(&[0, 1, 2, 3, 4]);
    // one shard's slice: graphs 1 and 4 live in a sibling shard
    mid_fold_kill(&[0, 2, 3]);
}
