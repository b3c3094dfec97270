//! The graph log of an on-disk database (`graphs.log` beside the
//! `graphs.json` base): what reopening makes of torn, damaged, missing or
//! foreign files, and that replay restores exactly what was committed.

use std::path::Path;
use tale::{QueryOptions, TaleDatabase, TaleError, TaleParams};
use tale_graph::{Graph, GraphDb, GraphId, NodeId};

type Row = (GraphId, u64, usize);

fn answers(db: &TaleDatabase, queries: &[Graph]) -> Vec<Vec<Row>> {
    let opts = QueryOptions {
        p_imp: 0.5,
        ..QueryOptions::default()
    };
    queries
        .iter()
        .map(|q| {
            db.query(q, &opts)
                .unwrap()
                .into_iter()
                .map(|m| (m.graph, m.score.to_bits(), m.matched_nodes))
                .collect()
        })
        .collect()
}

/// A ring of `n` nodes over `labels`, with one chord.
fn ring(labels: &[tale_graph::NodeLabel], n: usize, shift: usize) -> Graph {
    let mut g = Graph::new_undirected();
    let nodes: Vec<NodeId> = (0..n)
        .map(|j| g.add_node(labels[(j + shift) % labels.len()]))
        .collect();
    for w in nodes.windows(2) {
        g.add_edge(w[0], w[1]).unwrap();
    }
    g.add_edge(nodes[0], nodes[n - 1]).unwrap();
    g.add_edge(nodes[0], nodes[n / 2]).unwrap();
    g
}

/// A database of five rings built into `dir`, plus the queries.
fn build(dir: &Path) -> (TaleDatabase, Vec<Graph>) {
    let mut db = GraphDb::new();
    let labels: Vec<_> = (0..4)
        .map(|i| db.intern_node_label(&format!("L{i}")))
        .collect();
    let mut queries = Vec::new();
    for k in 0..5 {
        let g = ring(&labels, 5 + k, k);
        db.insert(format!("g{k}"), g.clone());
        queries.push(g);
    }
    let tale = TaleDatabase::build(db, dir, &TaleParams::default()).unwrap();
    (tale, queries)
}

fn open(dir: &Path) -> TaleDatabase {
    TaleDatabase::open(dir, 64).unwrap()
}

fn log_len(dir: &Path) -> usize {
    std::fs::metadata(dir.join("graphs.log")).map_or(0, |m| m.len() as usize)
}

#[test]
fn every_cut_inside_the_last_record_reopens_to_the_pre_insert_answers() {
    let dir = tempfile::tempdir().unwrap();
    let (mut tale, mut queries) = build(dir.path());
    let labels: Vec<_> = (0..4).map(tale_graph::NodeLabel).collect();
    tale.insert_graph("first", ring(&labels, 6, 1)).unwrap();
    let last = ring(&labels, 4, 2);
    queries.push(last.clone());
    let pre = answers(&tale, &queries);
    let start = log_len(dir.path());
    tale.insert_graph("second", last).unwrap();
    let post = answers(&tale, &queries);
    assert_ne!(pre, post);
    drop(tale);
    let full = std::fs::read(dir.path().join("graphs.log")).unwrap();

    let scratch = tempfile::tempdir().unwrap();
    for cut in start..full.len() {
        let work = scratch.path().join(format!("cut-{cut}"));
        copy_dir(dir.path(), &work);
        std::fs::write(work.join("graphs.log"), &full[..cut]).unwrap();
        let (db, rec) = TaleDatabase::open_with_recovery(&work, 64).unwrap();
        assert_eq!(answers(&db, &queries), pre, "cut at {cut}");
        assert_eq!(db.db().len(), 6, "cut at {cut}");
        assert_eq!(rec.log_records, 1);
        assert_eq!(rec.log_torn_bytes as usize, cut - start);
        assert_eq!(log_len(&work), start, "torn tail not truncated");
        drop(db);
        std::fs::remove_dir_all(&work).unwrap();
    }
    // the whole log reopens to the post-insert answers
    assert_eq!(answers(&open(dir.path()), &queries), post);
}

#[test]
fn a_flipped_byte_before_the_last_record_is_a_typed_corruption() {
    let dir = tempfile::tempdir().unwrap();
    let (mut tale, _) = build(dir.path());
    let labels: Vec<_> = (0..4).map(tale_graph::NodeLabel).collect();
    tale.insert_graph("first", ring(&labels, 6, 1)).unwrap();
    let first = log_len(dir.path());
    tale.insert_graph("second", ring(&labels, 7, 2)).unwrap();
    drop(tale);
    let path = dir.path().join("graphs.log");
    let full = std::fs::read(&path).unwrap();
    // a length byte, a checksum byte and a payload byte of record one
    for victim in [2, 5, first / 2] {
        let mut bytes = full.clone();
        bytes[victim] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        match TaleDatabase::open(dir.path(), 64) {
            Err(TaleError::CorruptLog { offset }) => assert_eq!(offset, 0, "flip at {victim}"),
            Err(e) => panic!("flip at {victim}: expected CorruptLog, got {e}"),
            Ok(_) => panic!("flip at {victim}: a corrupt log was served"),
        }
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "refusal truncated");
    }
}

#[test]
fn a_directory_without_a_log_opens_unchanged() {
    let dir = tempfile::tempdir().unwrap();
    let (tale, queries) = build(dir.path());
    let want = answers(&tale, &queries);
    drop(tale);
    // what a directory written before the log existed looks like
    assert!(!dir.path().join("graphs.log").exists());
    let (mut db, rec) = TaleDatabase::open_with_recovery(dir.path(), 64).unwrap();
    assert_eq!(answers(&db, &queries), want);
    assert_eq!((rec.log_records, rec.log_torn_bytes), (0, 0));
    assert!(
        !dir.path().join("graphs.log").exists(),
        "open created a log"
    );
    // and the first insert creates it
    db.insert_graph("late", queries[0].clone()).unwrap();
    drop(db);
    assert_eq!(open(dir.path()).db().len(), 6);
}

#[test]
fn leftover_journal_files_are_refused_by_name() {
    let dir = tempfile::tempdir().unwrap();
    drop(build(dir.path()));
    for f in ["pending.json", "graphs.json.pre"] {
        std::fs::write(dir.path().join(f), b"{\"pre_generation\": 0}").unwrap();
        match TaleDatabase::open(dir.path(), 64) {
            Err(TaleError::Rebuild { file, .. }) => assert_eq!(file, f),
            Err(e) => panic!("{f}: expected a rebuild refusal, got {e}"),
            Ok(_) => panic!("{f}: opened past a journal leftover"),
        }
        std::fs::remove_file(dir.path().join(f)).unwrap();
    }
    open(dir.path());
}

#[test]
fn reopening_never_replays_a_record_twice() {
    let dir = tempfile::tempdir().unwrap();
    let (mut tale, queries) = build(dir.path());
    tale.insert_graph("late", queries[1].clone()).unwrap();
    let want = answers(&tale, &queries);
    drop(tale);
    let log = std::fs::read(dir.path().join("graphs.log")).unwrap();
    for _ in 0..2 {
        let (mut db, rec) = TaleDatabase::open_with_recovery(dir.path(), 64).unwrap();
        assert_eq!(rec.log_records, 1);
        assert_eq!(db.db().len(), 6);
        assert_eq!(answers(&db, &queries), want);
        // a fold moves the graph into the index, never into the store twice
        db.fold().unwrap();
    }
    assert_eq!(std::fs::read(dir.path().join("graphs.log")).unwrap(), log);
    assert_eq!(open(dir.path()).db().len(), 6);
}

#[test]
fn an_interned_label_survives_reopen_with_its_id() {
    let dir = tempfile::tempdir().unwrap();
    let (mut tale, _) = build(dir.path());
    let fresh = tale.intern_node_label("FRESH");
    let isolated = tale.intern_node_label("ON-AN-ISOLATED-NODE");
    let mut g = ring(&[tale_graph::NodeLabel(0), fresh], 4, 0);
    g.add_node(isolated);
    let gid = tale.insert_graph("with-fresh", g.clone()).unwrap();
    // a later record carries only the labels interned since this one
    let later = tale.intern_node_label("LATER");
    let h = ring(&[fresh, later], 5, 1);
    let hid = tale.insert_graph("with-later", h.clone()).unwrap();
    let queries = [g, h];
    let want = answers(&tale, &queries);
    drop(tale);
    let db = open(dir.path());
    let vocab = db.db();
    for (name, label) in [
        ("FRESH", fresh),
        ("ON-AN-ISOLATED-NODE", isolated),
        ("LATER", later),
    ] {
        assert_eq!(vocab.node_vocab().get(name), Some(label.0), "{name}");
    }
    assert_eq!(vocab.graph(gid).label(NodeId(1)), fresh);
    assert_eq!(vocab.graph(hid).label(NodeId(0)), later);
    assert_eq!(answers(&db, &queries), want);
}

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let to = dst.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &to);
        } else {
            std::fs::copy(entry.path(), &to).unwrap();
        }
    }
}
