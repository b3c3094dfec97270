//! Crash torture: every gated I/O operation of an insert (the graph-log
//! append and its fsync, then the owning shard's `mvcc.json` flip), a
//! remove (one manifest flip), a fold (a generation build per shard, then
//! its flip) and an in-place compaction is failed in turn, process death
//! is simulated by dropping the handle with the fault still tripped, and
//! the reopened database must answer queries bit-identically to either
//! the pre-mutation or the post-mutation state — with orphaned generations
//! swept, every shard passing `verify`, and no journal or write-ahead log
//! anywhere. A compaction caught between removing the old `shards.json`
//! and writing the new one is instead refused with a typed rebuild error:
//! it must never serve a new index over an old store.
//!
//! The sweeps run one database type at one shard (a KEGG corpus) and at
//! two (a small ring corpus). The fault shim is thread-local, so these
//! tests are safe under the default parallel test runner.

use std::path::Path;
use tale::{HashPolicy, QueryOptions, ShardedTaleDatabase, TaleError, TaleParams};
use tale_datasets::{KeggDataset, KeggSpec};
use tale_graph::{Graph, GraphDb, GraphId, NodeId};
use tale_storage::faults;

/// Tiny per-shard pool, so recovery and the integrity checks read every
/// generation through constant eviction.
fn params() -> TaleParams {
    TaleParams {
        buffer_frames: 8,
        parallel_build: false,
        ..TaleParams::default()
    }
}

fn opts() -> QueryOptions {
    QueryOptions {
        p_imp: 0.5,
        ..QueryOptions::default()
    }
}

fn open(dir: &Path) -> ShardedTaleDatabase {
    ShardedTaleDatabase::open(dir, params().buffer_frames).unwrap()
}

/// Six member graphs (cycles with a chord over four labels) plus one kept
/// aside as insertion fodder.
fn small_db() -> (GraphDb, Vec<Graph>, Graph) {
    let mut db = GraphDb::new();
    let labels: Vec<_> = (0..4)
        .map(|i| db.intern_node_label(&format!("L{i}")))
        .collect();
    let mut graphs = Vec::new();
    let build = |k: usize, labels: &[tale_graph::NodeLabel]| {
        let mut g = Graph::new_undirected();
        let n: Vec<NodeId> = (0..4 + k % 3)
            .map(|j| g.add_node(labels[(j + k) % 4]))
            .collect();
        for w in n.windows(2) {
            g.add_edge(w[0], w[1]).unwrap();
        }
        g.add_edge(n[0], n[n.len() - 1]).unwrap();
        g
    };
    for k in 0..6usize {
        let g = build(k, &labels);
        db.insert(format!("g{k}"), g.clone());
        graphs.push(g);
    }
    let fodder = build(6, &labels);
    (db, graphs, fodder)
}

/// One ranked match, compressed to raw bits for exact comparison.
type Row = (GraphId, u64, Vec<(NodeId, NodeId, u64)>);

/// Compressed query answers over all probe graphs — the "query output"
/// whose bit-identity the torture asserts.
fn answers(db: &ShardedTaleDatabase, queries: &[Graph]) -> Vec<Vec<Row>> {
    queries
        .iter()
        .map(|q| {
            db.query(q, &opts())
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

/// Recursive copy: a database directory nests one index dir per shard.
fn copy_tree(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let to = dst.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_tree(&entry.path(), &to);
        } else {
            std::fs::copy(entry.path(), &to).unwrap();
        }
    }
}

/// Every file under `dir`, as paths relative to it.
fn files_under(dir: &Path) -> Vec<String> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name().to_string_lossy().into_owned();
        if entry.file_type().unwrap().is_dir() {
            out.extend(
                files_under(&entry.path())
                    .into_iter()
                    .map(|f| format!("{name}/{f}")),
            );
        } else {
            out.push(name);
        }
    }
    out.sort();
    out
}

/// What a mutation may move besides the answers. First the components
/// whose commit points decide whether it happened: graph count (the graph
/// log), graph 0's tombstone and each shard's current generation (its
/// `mvcc.json`). Then each shard's logical counter, which an insert's
/// `mvcc.json` flip still bumps after the log commit, so after a crash
/// between the two it may lag a committed insert — but it too must land
/// on the pre or the post value.
fn state(db: &ShardedTaleDatabase) -> (Vec<u64>, Vec<u64>) {
    let mut deciding = vec![
        db.db().len() as u64,
        u64::from(db.index().is_removed(GraphId(0))),
    ];
    let mut logical = Vec::new();
    for sh in db.index().shards() {
        deciding.push(sh.current_generation());
        logical.push(sh.logical_generation());
    }
    (deciding, logical)
}

/// What a sweep saw.
struct Swept {
    /// Gated I/O operations the mutation makes, each failed in turn.
    faults: u64,
    /// Faults after which open refused the directory.
    refused: u64,
    /// Whether the clean mutation changed any answer.
    answers_moved: bool,
}

/// Runs `mutate` against a copy of `pre` failing the `i`-th gated I/O
/// operation for every `i`, and asserts the recovered database is
/// query-identical to the pre state (not committed) or the post state
/// (committed) — or, with `may_refuse`, that open refuses it as a
/// build that did not finish.
fn sweep(
    pre: &Path,
    scratch: &Path,
    queries: &[Graph],
    may_refuse: bool,
    mutate: impl Fn(ShardedTaleDatabase) -> tale::Result<()>,
) -> Swept {
    let reference = open(pre);
    let (pre_answers, pre_state) = (answers(&reference, queries), state(&reference));
    drop(reference);

    // Reference post state: the clean mutation on a copy.
    let post_dir = scratch.join("post");
    copy_tree(pre, &post_dir);
    mutate(open(&post_dir)).unwrap();
    let post = open(&post_dir);
    let (post_answers, post_state) = (answers(&post, queries), state(&post));
    drop(post);
    assert_ne!(pre_state, post_state, "the mutation changed nothing");

    // Measuring run: how many gated I/O operations does it make?
    let count_dir = scratch.join("count");
    copy_tree(pre, &count_dir);
    let counted = open(&count_dir);
    faults::arm_counting();
    mutate(counted).unwrap();
    let n = faults::disarm();
    assert!(n > 0, "the mutation made no gated I/O");

    let mut refused = 0;
    for i in 0..n {
        let work = scratch.join(format!("fault-{i}"));
        copy_tree(pre, &work);
        let db = open(&work);
        faults::arm(i);
        let res = mutate(db); // consumed: the process is "dead"
        faults::disarm();
        assert!(res.is_err(), "fault {i} of {n} did not surface");

        let recovered = match ShardedTaleDatabase::open_with_recovery(&work, params().buffer_frames)
        {
            Ok((recovered, _)) => recovered,
            Err(TaleError::Rebuild { file, .. }) if may_refuse => {
                assert_eq!(file, "shards.json", "fault {i} of {n}");
                refused += 1;
                std::fs::remove_dir_all(&work).unwrap();
                continue;
            }
            Err(e) => panic!("fault {i} of {n}: reopen failed untyped: {e}"),
        };
        let (got, (landed, logical)) = (answers(&recovered, queries), state(&recovered));
        // Each component landed before or after, never elsewhere; a
        // multi-shard fold commits shard by shard, so components may mix
        // — but then both sides answer identically.
        for (k, v) in landed.iter().enumerate() {
            assert!(
                *v == pre_state.0[k] || *v == post_state.0[k],
                "fault {i} of {n}: state component {k} is {v}"
            );
        }
        for (k, v) in logical.iter().enumerate() {
            assert!(
                *v == pre_state.1[k] || *v == post_state.1[k],
                "fault {i} of {n}: shard {k}'s logical counter is {v}"
            );
        }
        assert!(
            got == pre_answers || got == post_answers,
            "fault {i} of {n}: answers match neither side"
        );
        if pre_answers == post_answers {
            assert_eq!(got, pre_answers, "fault {i} of {n}: answers moved");
        } else if landed == post_state.0 {
            assert_eq!(got, post_answers, "fault {i} of {n}: committed state");
        } else {
            assert_eq!(landed, pre_state.0, "fault {i} of {n}: hybrid state");
            assert_eq!(logical, pre_state.1, "fault {i} of {n}: hybrid counters");
            assert_eq!(got, pre_answers, "fault {i} of {n}: rolled-back state");
        }
        for (s, report) in recovered.index().verify().unwrap().iter().enumerate() {
            assert!(
                report.is_ok(),
                "fault {i} of {n}: shard {s} integrity errors after recovery: {:?}",
                report.errors
            );
        }
        let gens: Vec<u64> = recovered
            .index()
            .shards()
            .iter()
            .map(|sh| sh.current_generation())
            .collect();
        drop(recovered);
        // One recovery story: nothing of a journal, of an unfinished
        // fold, or of a write-ahead log is left behind.
        let left = files_under(&work);
        assert!(
            !left.iter().any(|f| f == "pending.json"
                || f == "graphs.json.pre"
                || f.ends_with(tale_nhindex::LEGACY_WAL_FILE)),
            "fault {i} of {n}: leftovers {left:?}"
        );
        for (s, g) in gens.iter().enumerate() {
            let dirs: Vec<&String> = left
                .iter()
                .filter(|f| f.starts_with(&format!("shard-{s:03}/gens/")))
                .collect();
            assert!(
                dirs.iter()
                    .all(|f| f.starts_with(&format!("shard-{s:03}/gens/g{g}/"))),
                "fault {i} of {n}: shard {s} kept an orphaned generation: {dirs:?}"
            );
        }
        std::fs::remove_dir_all(&work).unwrap();
    }
    Swept {
        faults: n,
        refused,
        answers_moved: pre_answers != post_answers,
    }
}

/// The one-shard pre state: a 4-family KEGG corpus (directed pathways,
/// edge labels) with one unfolded insert, built into `dir`; returns the
/// queries (one graph per family plus the insert) and a graph kept aside
/// for inserting.
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
    let mut tale = ShardedTaleDatabase::build(db, dir, &params(), 1, &HashPolicy).unwrap();
    tale.insert_graph("early", early.clone()).unwrap();
    let db = tale.db();
    let mut queries: Vec<Graph> = (0..4).map(|f| db.graph(GraphId(f * 4)).clone()).collect();
    queries.push(early);
    (queries, spare)
}

/// The two-shard pre state: two shards built over the six member graphs,
/// plus (for remove and fold) one unfolded insert.
fn build_pre(dir: &Path, with_insert: bool) -> (Vec<Graph>, Graph) {
    let (db, graphs, fodder) = small_db();
    let mut sharded = ShardedTaleDatabase::build(db, dir, &params(), 2, &HashPolicy).unwrap();
    if with_insert {
        sharded.insert_graph("early", fodder.clone()).unwrap();
    }
    let mut queries = graphs;
    queries.push(fodder.clone());
    (queries, fodder)
}

#[test]
fn torture_insert_commits_at_the_log_append() {
    let scratch = tempfile::tempdir().unwrap();
    let pre = scratch.path().join("pre");
    let (queries, spare) = kegg_pre(&pre);
    let read = |dir: &Path, f: &str| std::fs::read(dir.join(f)).unwrap();
    let (graphs, log) = (read(&pre, "graphs.json"), read(&pre, "graphs.log"));
    let swept = sweep(&pre, scratch.path(), &queries, false, |mut d| {
        d.insert_graph("late", spare.clone()).map(drop)
    });
    assert!(swept.answers_moved, "the mutation changed no answer");
    // The insert's gated I/O, in order:
    //   1. log.append     — write the framed record to graphs.log
    //   2. log.sync       — fsync it: the commit point
    //   3. atomic.write   — the shard's new mvcc.json, fsynced
    //   4. atomic.rename  — renamed over the old one
    assert_eq!((swept.faults, swept.refused), (4, 0));
    // O(graph): graphs.json is untouched and the log grew by one record
    let post = scratch.path().join("post");
    assert_eq!(read(&post, "graphs.json"), graphs);
    let grown = read(&post, "graphs.log");
    assert_eq!(&grown[..log.len()], &log[..]);
    let reopened = open(&post);
    let db = reopened.db();
    let (late, vocab) = (
        GraphId(db.len() as u32 - 1),
        (db.node_vocab().len(), db.edge_vocab().len()),
    );
    let record = tale_graph::io::GraphRecord::of(db, late, vocab, Some(0));
    assert_eq!(
        &grown[log.len()..],
        tale_storage::log::frame(&record.encode())
    );
}

/// An in-place compaction never serves its new index over the old store
/// (or the reverse): a crash before its new `shards.json` is refused with
/// a typed rebuild error naming it, and the clean run reopens compacted.
#[test]
fn torture_compact_is_refused_until_its_manifest_lands() {
    let scratch = tempfile::tempdir().unwrap();
    let pre = scratch.path().join("pre");
    let (queries, _) = kegg_pre(&pre);
    {
        let mut tale = open(&pre);
        tale.remove_graph(GraphId(2)).unwrap();
        tale.remove_graph(GraphId(9)).unwrap();
    }
    let swept = sweep(&pre, scratch.path(), &queries, true, |d| {
        d.compact(&params()).map(drop)
    });
    assert!(swept.answers_moved, "the mutation changed no answer");
    // every fault lands between the old manifest's removal and the new
    // one's rename
    assert_eq!(
        swept.refused, swept.faults,
        "a crashed compaction was served"
    );
    let post = open(&scratch.path().join("post"));
    assert_eq!(post.db().len(), 16 + 1 - 2);
    assert!(!scratch.path().join("post/graphs.log").exists());
}

#[test]
fn torture_sharded_insert_graph() {
    let scratch = tempfile::tempdir().unwrap();
    let pre = scratch.path().join("pre");
    let (queries, fodder) = build_pre(&pre, false);
    let before = |f: &str| std::fs::read(pre.join(f)).unwrap();
    let (graphs, shards) = (before("graphs.json"), before("shards.json"));
    let swept = sweep(&pre, scratch.path(), &queries, false, |mut s| {
        s.insert_graph("late", fodder.clone()).map(drop)
    });
    // The insert's gated I/O, in order:
    //   1. log.append     — open graphs.log and write the framed record
    //   2. log.sync       — fsync it: the commit point
    //   3. atomic.write   — the owning shard's new mvcc.json, fsynced
    //   4. atomic.rename  — renamed over the old one
    assert_eq!(swept.faults, 4, "the insert's gated I/O changed");
    // and it wrote neither graphs.json nor shards.json
    let post = scratch.path().join("post");
    assert_eq!(std::fs::read(post.join("graphs.json")).unwrap(), graphs);
    assert_eq!(std::fs::read(post.join("shards.json")).unwrap(), shards);
}

/// A failed insert leaves the open handle as it was: the next insert
/// succeeds and takes the id a reopen of the pre state would give it.
#[test]
fn failed_insert_does_not_block_the_next() {
    let dir = tempfile::tempdir().unwrap();
    let (queries, fodder) = build_pre(dir.path(), false);
    let mut sharded = open(dir.path());
    let before = sharded.db().len();
    faults::arm(0); // log.append: the insert fails before its commit point
    let failed = sharded.insert_graph("lost", queries[0].clone());
    faults::disarm();
    assert!(failed.is_err(), "the armed fault did not surface");
    assert_eq!(sharded.db().len(), before, "a failed insert grew the db");

    let gid = sharded.insert_graph("late", fodder).unwrap();
    assert_eq!(gid, GraphId(before as u32), "the next insert's id");
    let got = answers(&sharded, &queries);
    drop(sharded);
    let reopened = open(dir.path());
    assert_eq!(reopened.db().len(), before + 1);
    assert_eq!(reopened.db().name(gid), "late");
    assert_eq!(answers(&reopened, &queries), got);
}

#[test]
fn torture_sharded_remove_graph() {
    // Removal is one manifest flip in the owning shard: no journal, no
    // graphs.json or shards.json change.
    let scratch = tempfile::tempdir().unwrap();
    let pre = scratch.path().join("pre");
    let (queries, _) = build_pre(&pre, true);
    sweep(&pre, scratch.path(), &queries, false, |mut s| {
        s.remove_graph(GraphId(0))
    });
}

#[test]
fn torture_sharded_fold() {
    // A fold with real work in it: an unfolded insert and a tombstone.
    let scratch = tempfile::tempdir().unwrap();
    let pre = scratch.path().join("pre");
    let (queries, _) = build_pre(&pre, true);
    let mut sharded = open(&pre);
    sharded.remove_graph(GraphId(1)).unwrap();
    drop(sharded);
    let swept = sweep(&pre, scratch.path(), &queries, false, |mut s| {
        s.fold().map(drop)
    });
    assert!(
        swept.faults >= 6,
        "suspiciously few fold fault points: {}",
        swept.faults
    );
}

/// No build, insert, remove or fold ever creates a write-ahead log or a
/// journal: the directory holds the two manifests' worth of JSON, the
/// graph store (base and log) and each generation's five files — nothing
/// else.
#[test]
fn no_mutation_leaves_a_wal_or_a_journal() {
    let dir = tempfile::tempdir().unwrap();
    let (_, fodder) = build_pre(dir.path(), false);
    let mut sharded = open(dir.path());
    let check = |step: &str| {
        let files = files_under(dir.path());
        for f in &files {
            let name = f.rsplit('/').next().unwrap();
            assert!(
                [
                    "graphs.json",
                    "graphs.log",
                    "shards.json",
                    "mvcc.json",
                    "nh.btree",
                    "nh.blobs",
                    "nh.meta.json",
                    "nh.stats.json",
                    "nh.lpf"
                ]
                .contains(&name),
                "after {step}: unexpected file {f}"
            );
            assert!(
                !["pending.json", "graphs.json.pre"].contains(&name),
                "after {step}: a journal file {f}"
            );
        }
    };
    check("build");
    let vocab = (
        sharded.db().node_vocab().len(),
        sharded.db().edge_vocab().len(),
    );
    let gid = sharded.insert_graph("late", fodder).unwrap();
    check("insert");
    // the insert's one durable write to the graph store: exactly its record
    let owner = sharded.index().shard_of(gid);
    let record = tale_graph::io::GraphRecord::of(sharded.db(), gid, vocab, owner);
    assert_eq!(
        std::fs::read(dir.path().join("graphs.log")).unwrap(),
        tale_storage::log::frame(&record.encode())
    );
    sharded.remove_graph(gid).unwrap();
    check("remove");
    sharded.fold().unwrap();
    check("fold");
}

#[test]
fn partial_shard_failure_names_the_shard() {
    let (db, _, _) = small_db();
    let dir = tempfile::tempdir().unwrap();
    let sharded = ShardedTaleDatabase::build(db, dir.path(), &params(), 3, &HashPolicy).unwrap();
    drop(sharded);
    // destroy one shard's meta file; its siblings stay healthy
    std::fs::remove_file(dir.path().join("shard-001/gens/g0/nh.meta.json")).unwrap();
    let err = match ShardedTaleDatabase::open(dir.path(), params().buffer_frames) {
        Ok(_) => panic!("open served a database with a destroyed shard"),
        Err(e) => e,
    };
    match err {
        TaleError::Shard { shard, .. } => assert_eq!(shard, 1),
        other => panic!("expected a shard-attributed error, got: {other}"),
    }
}

#[test]
fn sharded_verify_attributes_bit_flips() {
    let (db, _, _) = small_db();
    let dir = tempfile::tempdir().unwrap();
    let sharded = ShardedTaleDatabase::build(db, dir.path(), &params(), 2, &HashPolicy).unwrap();
    let clean = sharded.index().verify().unwrap();
    assert!(clean.iter().all(|r| r.is_ok()));
    drop(sharded);

    // flip one payload byte in the middle of shard 0's B+-tree file
    let bt = dir.path().join("shard-000/gens/g0/nh.btree");
    let mut bytes = std::fs::read(&bt).unwrap();
    let victim = bytes.len() / 2;
    bytes[victim] ^= 0x40;
    std::fs::write(&bt, &bytes).unwrap();

    let sharded = open(dir.path());
    let reports = sharded.index().verify().unwrap();
    assert!(!reports[0].is_ok(), "bit flip in shard 0 not detected");
    assert!(reports[1].is_ok(), "healthy shard 1 flagged");
}

/// A pre-generational layout, or anything that looks like one, is
/// refused with a typed manifest error that says how to fix it — never
/// misread, never a panic.
#[test]
fn pre_generational_layouts_are_refused_with_a_rebuild_hint() {
    let expect_refusal =
        |dir: &Path, what: &str| match ShardedTaleDatabase::open(dir, params().buffer_frames) {
            Err(TaleError::Manifest(m)) => {
                assert!(
                    m.contains("rebuild with `tale-cli build --shards N`"),
                    "{what}: {m}"
                )
            }
            Err(other) => panic!("{what}: expected a manifest error, got: {other}"),
            Ok(_) => panic!("{what}: open served a directory it cannot read"),
        };
    let build = || {
        let (db, _, _) = small_db();
        let dir = tempfile::tempdir().unwrap();
        drop(ShardedTaleDatabase::build(db, dir.path(), &params(), 2, &HashPolicy).unwrap());
        dir
    };

    // shards.json written by the in-place/WAL build
    let dir = build();
    let path = dir.path().join("shards.json");
    let manifest = std::fs::read_to_string(&path).unwrap();
    assert!(manifest.contains("\"schema_version\": 2"));
    std::fs::write(
        &path,
        manifest.replace("\"schema_version\": 2", "\"schema_version\": 1"),
    )
    .unwrap();
    expect_refusal(dir.path(), "schema version 1");

    // a shard directory holding a bare NH-Index (no mvcc.json)
    let dir = build();
    let shard = dir.path().join("shard-001");
    for f in ["nh.btree", "nh.blobs", "nh.meta.json"] {
        std::fs::rename(shard.join("gens/g0").join(f), shard.join(f)).unwrap();
    }
    std::fs::remove_file(shard.join("mvcc.json")).unwrap();
    expect_refusal(dir.path(), "top-level nh.meta.json");

    // a stray write-ahead log next to a healthy generational shard
    let dir = build();
    std::fs::write(
        dir.path()
            .join("shard-000")
            .join(tale_nhindex::LEGACY_WAL_FILE),
        b"",
    )
    .unwrap();
    expect_refusal(dir.path(), "stray write-ahead log");

    // and the advice works: a rebuild over the refused directory opens
    let (db, _, _) = small_db();
    drop(ShardedTaleDatabase::build(db, dir.path(), &params(), 2, &HashPolicy).unwrap());
    ShardedTaleDatabase::open(dir.path(), params().buffer_frames).unwrap();
}
