//! Failure injection: corrupted or missing index files must surface as
//! errors, never as panics or silent wrong answers. (A fresh one-shard
//! build keeps its index files under `shard-000/gens/g0/`.)

use tale::{QueryOptions, TaleDatabase, TaleParams};
use tale_graph::{Graph, GraphDb};
use tale_nhindex::NhIndex;

fn sample_db() -> (GraphDb, Graph) {
    let mut db = GraphDb::new();
    let a = db.intern_node_label("A");
    let b = db.intern_node_label("B");
    let mut g = Graph::new_undirected();
    let n0 = g.add_node(a);
    let n1 = g.add_node(b);
    let n2 = g.add_node(a);
    g.add_edge(n0, n1).unwrap();
    g.add_edge(n1, n2).unwrap();
    db.insert("g", g.clone());
    (db, g)
}

#[test]
fn open_missing_directory_errors() {
    let err = TaleDatabase::open(std::path::Path::new("/nonexistent/tale-index"), 64);
    assert!(err.is_err());
}

#[test]
fn open_with_missing_meta_errors() {
    let dir = tempfile::tempdir().unwrap();
    let (db, _) = sample_db();
    TaleDatabase::build(db, dir.path(), &TaleParams::default()).unwrap();
    std::fs::remove_file(dir.path().join("shard-000/gens/g0/nh.meta.json")).unwrap();
    assert!(TaleDatabase::open(dir.path(), 64).is_err());
}

#[test]
fn open_with_garbage_meta_errors() {
    let dir = tempfile::tempdir().unwrap();
    let (db, _) = sample_db();
    TaleDatabase::build(db, dir.path(), &TaleParams::default()).unwrap();
    std::fs::write(
        dir.path().join("shard-000/gens/g0/nh.meta.json"),
        b"{not json",
    )
    .unwrap();
    let err = TaleDatabase::open(dir.path(), 64);
    assert!(err.is_err());
    let msg = format!("{}", err.err().unwrap());
    assert!(msg.contains("metadata"), "unexpected error: {msg}");
}

#[test]
fn corrupted_btree_page_detected_on_probe() {
    let dir = tempfile::tempdir().unwrap();
    let (db, query) = sample_db();
    TaleDatabase::build(db, dir.path(), &TaleParams::default()).unwrap();
    // Flip bytes in the middle of the B+-tree file payload.
    let path = dir.path().join("shard-000/gens/g0/nh.btree");
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    let end = (mid + 64).min(bytes.len());
    for b in &mut bytes[mid..end] {
        *b ^= 0xFF;
    }
    std::fs::write(&path, &bytes).unwrap();

    let tale = TaleDatabase::open(dir.path(), 64).unwrap();
    // The checksum layer must turn the corruption into an error (or, if
    // the flipped page is never touched by this query, succeed cleanly) —
    // never a panic or garbage output.
    match tale.query(&query, &QueryOptions::default()) {
        Ok(res) => {
            for r in &res {
                assert!(r.matched_nodes <= query.node_count());
            }
        }
        Err(e) => {
            let msg = e.to_string();
            assert!(
                msg.contains("corrupt") || msg.contains("invariant") || msg.contains("posting"),
                "unexpected error kind: {msg}"
            );
        }
    }
}

#[test]
fn corrupted_blob_file_detected() {
    let dir = tempfile::tempdir().unwrap();
    let (db, query) = sample_db();
    TaleDatabase::build(db, dir.path(), &TaleParams::default()).unwrap();
    let path = dir.path().join("shard-000/gens/g0/nh.blobs");
    let mut bytes = std::fs::read(&path).unwrap();
    for b in bytes.iter_mut().take(256) {
        *b ^= 0xAA;
    }
    std::fs::write(&path, &bytes).unwrap();
    let tale = TaleDatabase::open(dir.path(), 64).unwrap();
    let r = tale.query(&query, &QueryOptions::default());
    assert!(r.is_err(), "corrupted postings must not produce results");
}

#[test]
fn nhindex_open_requires_all_files() {
    let dir = tempfile::tempdir().unwrap();
    let (db, _) = sample_db();
    TaleDatabase::build(db, dir.path(), &TaleParams::default()).unwrap();
    std::fs::remove_file(dir.path().join("shard-000/gens/g0/nh.blobs")).unwrap();
    assert!(NhIndex::open(&dir.path().join("shard-000/gens/g0"), 64).is_err());
}

#[test]
fn truncated_graphs_json_errors() {
    let dir = tempfile::tempdir().unwrap();
    let (db, _) = sample_db();
    TaleDatabase::build(db, dir.path(), &TaleParams::default()).unwrap();
    let path = dir.path().join("graphs.json");
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    assert!(TaleDatabase::open(dir.path(), 64).is_err());
}
