//! Single-database crash torture: every gated I/O operation of an insert
//! and of an in-place compaction is failed in turn, process death is
//! simulated by dropping the handle with the fault still tripped, and the
//! reopened directory must answer bit-identically to the pre- or the
//! post-mutation state — or, for a compaction caught between removing the
//! old index manifest and writing the new one, be refused with a typed
//! rebuild error. It must never serve a new index over an old store.
//!
//! The fault shim is thread-local, so these tests are safe under the
//! default parallel test runner.

use std::path::Path;
use tale::{QueryOptions, TaleDatabase, TaleError, TaleParams};
use tale_datasets::{KeggDataset, KeggSpec};
use tale_graph::{Graph, GraphId, NodeId};
use tale_storage::faults;

fn params() -> TaleParams {
    TaleParams {
        buffer_frames: 8,
        parallel_build: false,
        ..TaleParams::default()
    }
}

type Row = (GraphId, u64, Vec<(NodeId, NodeId, u64)>);

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
                .map(|m| {
                    let pairs =
                        m.m.pairs
                            .iter()
                            .map(|p| (p.query, p.target, p.quality.to_bits()))
                            .collect();
                    (m.graph, m.score.to_bits(), pairs)
                })
                .collect()
        })
        .collect()
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

fn open(dir: &Path) -> TaleDatabase {
    TaleDatabase::open(dir, params().buffer_frames).unwrap()
}

/// A 4-family KEGG corpus (directed pathways, edge labels) with one
/// unfolded insert, built into `dir`; returns the queries (one graph per
/// family plus the insert) and a graph kept aside for inserting.
fn kegg_pre(dir: &Path) -> (Vec<Graph>, Graph) {
    let data = KeggDataset::generate(
        7,
        &KeggSpec {
            families: 4,
            variants_per_family: 4,
            mean_compounds: 12,
            ..KeggSpec::default()
        },
    );
    let db = data.db;
    let spare = db.graph(GraphId(db.len() as u32 - 1)).clone();
    let early = db.graph(GraphId(1)).clone();
    let tale = TaleDatabase::build(db, dir, &params()).unwrap();
    tale.insert_graph("early", early.clone()).unwrap();
    let db = tale.db();
    let mut queries: Vec<Graph> = (0..4).map(|f| db.graph(GraphId(f * 4)).clone()).collect();
    queries.push(early);
    (queries, spare)
}

/// Fails each of the `mutate`'s gated I/O operations in turn on a copy of
/// `pre`, checking every reopen. Returns (fault points, refusals).
fn sweep(
    pre: &Path,
    scratch: &Path,
    queries: &[Graph],
    may_refuse: bool,
    mutate: impl Fn(TaleDatabase) -> tale::Result<()>,
) -> (u64, u64) {
    let pre_answers = answers(&open(pre), queries);
    let post_dir = scratch.join("post");
    copy_dir(pre, &post_dir);
    mutate(open(&post_dir)).unwrap();
    let post_answers = answers(&open(&post_dir), queries);
    assert_ne!(pre_answers, post_answers, "the mutation changed no answer");

    let count_dir = scratch.join("count");
    copy_dir(pre, &count_dir);
    let counted = open(&count_dir);
    faults::arm_counting();
    mutate(counted).unwrap();
    let n = faults::disarm();
    assert!(n > 0, "the mutation made no gated I/O");

    let mut refused = 0;
    for i in 0..n {
        let work = scratch.join(format!("fault-{i}"));
        copy_dir(pre, &work);
        let db = open(&work);
        faults::arm(i);
        let res = mutate(db); // consumed: the process is "dead"
        faults::disarm();
        assert!(res.is_err(), "fault {i} of {n} did not surface");
        match TaleDatabase::open(&work, params().buffer_frames) {
            Ok(recovered) => {
                let got = answers(&recovered, queries);
                assert!(
                    got == pre_answers || got == post_answers,
                    "fault {i} of {n}: answers match neither side"
                );
                assert!(recovered.index().verify().unwrap().is_ok(), "fault {i}");
            }
            Err(TaleError::Rebuild { file, .. }) if may_refuse => {
                assert_eq!(file, "mvcc.json", "fault {i} of {n}");
                refused += 1;
            }
            Err(e) => panic!("fault {i} of {n}: reopen failed untyped: {e}"),
        }
        std::fs::remove_dir_all(&work).unwrap();
    }
    (n, refused)
}

#[test]
fn torture_insert_commits_at_the_log_append() {
    let scratch = tempfile::tempdir().unwrap();
    let pre = scratch.path().join("pre");
    let (queries, spare) = kegg_pre(&pre);
    let read = |dir: &Path, f: &str| std::fs::read(dir.join(f)).unwrap();
    let (graphs, log) = (read(&pre, "graphs.json"), read(&pre, "graphs.log"));
    let (n, refused) = sweep(&pre, scratch.path(), &queries, false, |d| {
        d.insert_graph("late", spare.clone()).map(drop)
    });
    // The insert's gated I/O, in order:
    //   1. log.append     — write the framed record to graphs.log
    //   2. log.sync       — fsync it: the commit point
    //   3. atomic.write   — the index's new mvcc.json, fsynced
    //   4. atomic.rename  — renamed over the old one
    assert_eq!((n, refused), (4, 0));
    // O(graph): graphs.json is untouched and the log grew by one record
    let post = scratch.path().join("post");
    assert_eq!(read(&post, "graphs.json"), graphs);
    let grown = read(&post, "graphs.log");
    assert_eq!(&grown[..log.len()], &log[..]);
    let db = open(&post).db();
    let (late, vocab) = (
        GraphId(db.len() as u32 - 1),
        (db.node_vocab().len(), db.edge_vocab().len()),
    );
    let record = tale_graph::io::GraphRecord::of(&db, late, vocab, None);
    assert_eq!(
        &grown[log.len()..],
        tale_storage::log::frame(&record.encode())
    );
}

/// An in-place compaction never serves its new index over the old store
/// (or the reverse): a crash before its new `mvcc.json` is refused with a
/// typed rebuild error naming it, and the clean run reopens compacted.
#[test]
fn torture_compact_is_refused_until_its_manifest_lands() {
    let scratch = tempfile::tempdir().unwrap();
    let pre = scratch.path().join("pre");
    let (queries, _) = kegg_pre(&pre);
    {
        let tale = open(&pre);
        tale.remove_graph(GraphId(2)).unwrap();
        tale.remove_graph(GraphId(9)).unwrap();
    }
    let (n, refused) = sweep(&pre, scratch.path(), &queries, true, |d| {
        d.compact(&params()).map(drop)
    });
    // every fault lands between the old manifest's removal and the new
    // one's rename
    assert_eq!(refused, n, "a crashed compaction was served");
    let post = open(&scratch.path().join("post"));
    assert_eq!(post.db().len(), 16 + 1 - 2);
    assert!(!scratch.path().join("post/graphs.log").exists());
}
