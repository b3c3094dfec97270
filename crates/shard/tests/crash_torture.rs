//! Sharded crash-torture harness: every gated I/O operation of a sharded
//! insert (the graph-log append and its fsync, then the owning shard's
//! `mvcc.json` flip), remove (one manifest flip) and fold (a generation
//! build per shard, then its flip) is failed in turn, process death is
//! simulated by dropping the handle with the fault still tripped, and the
//! reopened database must answer queries bit-identically to either the
//! pre-mutation or the post-mutation state — with orphaned generations
//! swept, every shard passing `verify`, and no journal or write-ahead log
//! anywhere.
//!
//! The fault shim is thread-local, so these tests are safe under the
//! default parallel test runner.

use std::path::Path;
use tale::{QueryOptions, TaleParams};
use tale_graph::{Graph, GraphDb, GraphId, NodeId};
use tale_shard::{HashPolicy, ShardError, ShardedTaleDatabase};
use tale_storage::faults;

/// Tiny per-shard pool so generation builds overflow it and exercise
/// eviction write-backs.
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
fn answers(sharded: &ShardedTaleDatabase, queries: &[Graph]) -> Vec<Vec<Row>> {
    queries
        .iter()
        .map(|q| {
            sharded
                .query(q, &opts())
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

/// Recursive copy: a sharded directory nests one index dir per shard.
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
fn state(sharded: &ShardedTaleDatabase) -> (Vec<u64>, Vec<u64>) {
    let mut deciding = vec![
        sharded.db().len() as u64,
        u64::from(sharded.index().is_removed(GraphId(0))),
    ];
    let mut logical = Vec::new();
    for sh in sharded.index().shards() {
        deciding.push(sh.current_generation());
        logical.push(sh.logical_generation());
    }
    (deciding, logical)
}

/// Runs `mutate` against a copy of `pre` failing the `i`-th gated I/O
/// operation for every `i`, and asserts the recovered database is
/// query-identical to the pre state (not committed) or the post state
/// (committed). Returns the number of fault points swept.
fn sweep(
    pre: &Path,
    scratch: &Path,
    queries: &[Graph],
    mutate: impl Fn(&mut ShardedTaleDatabase) -> tale_shard::Result<()>,
) -> u64 {
    let frames = params().buffer_frames;
    let reference = ShardedTaleDatabase::open(pre, frames).unwrap();
    let (pre_answers, pre_state) = (answers(&reference, queries), state(&reference));
    drop(reference);

    // Reference post state: the clean mutation on a copy.
    let post_dir = scratch.join("post");
    copy_tree(pre, &post_dir);
    let mut post = ShardedTaleDatabase::open(&post_dir, frames).unwrap();
    mutate(&mut post).unwrap();
    let (post_answers, post_state) = (answers(&post, queries), state(&post));
    drop(post);
    assert_ne!(pre_state, post_state, "the mutation changed nothing");

    // Measuring run: how many gated I/O operations does it make?
    let count_dir = scratch.join("count");
    copy_tree(pre, &count_dir);
    let mut counted = ShardedTaleDatabase::open(&count_dir, frames).unwrap();
    faults::arm_counting();
    mutate(&mut counted).unwrap();
    let n = faults::disarm();
    drop(counted);
    assert!(n > 0, "the mutation made no gated I/O");

    for i in 0..n {
        let work = scratch.join(format!("fault-{i}"));
        copy_tree(pre, &work);
        let mut sharded = ShardedTaleDatabase::open(&work, frames).unwrap();
        faults::arm(i);
        let res = mutate(&mut sharded);
        drop(sharded); // the process is "dead"
        faults::disarm();
        assert!(res.is_err(), "fault {i} of {n} did not surface");

        let (recovered, _) = ShardedTaleDatabase::open_with_recovery(&work, frames).unwrap();
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
    n
}

/// The pre state every sweep starts from: two shards built over the six
/// member graphs, plus (for remove and fold) one unfolded insert.
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
fn torture_sharded_insert_graph() {
    let scratch = tempfile::tempdir().unwrap();
    let pre = scratch.path().join("pre");
    let (queries, fodder) = build_pre(&pre, false);
    let before = |f: &str| std::fs::read(pre.join(f)).unwrap();
    let (graphs, shards) = (before("graphs.json"), before("shards.json"));
    let n = sweep(&pre, scratch.path(), &queries, |s| {
        s.insert_graph("late", fodder.clone()).map(drop)
    });
    // The insert's gated I/O, in order:
    //   1. log.append     — open graphs.log and write the framed record
    //   2. log.sync       — fsync it: the commit point
    //   3. atomic.write   — the owning shard's new mvcc.json, fsynced
    //   4. atomic.rename  — renamed over the old one
    assert_eq!(n, 4, "the insert's gated I/O changed");
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
    let mut sharded = ShardedTaleDatabase::open(dir.path(), params().buffer_frames).unwrap();
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
    let reopened = ShardedTaleDatabase::open(dir.path(), params().buffer_frames).unwrap();
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
    sweep(&pre, scratch.path(), &queries, |s| {
        s.remove_graph(GraphId(0))
    });
}

#[test]
fn torture_sharded_fold() {
    // A fold with real work in it: an unfolded insert and a tombstone.
    let scratch = tempfile::tempdir().unwrap();
    let pre = scratch.path().join("pre");
    let (queries, _) = build_pre(&pre, true);
    let mut sharded = ShardedTaleDatabase::open(&pre, params().buffer_frames).unwrap();
    sharded.remove_graph(GraphId(1)).unwrap();
    drop(sharded);
    let n = sweep(&pre, scratch.path(), &queries, |s| s.fold().map(drop));
    assert!(n >= 6, "suspiciously few fold fault points: {n}");
}

/// No build, insert, remove or fold ever creates a write-ahead log or a
/// journal: the directory holds the two manifests' worth of JSON, the
/// graph store (base and log) and each generation's five files — nothing
/// else.
#[test]
fn no_mutation_leaves_a_wal_or_a_journal() {
    let dir = tempfile::tempdir().unwrap();
    let (_, fodder) = build_pre(dir.path(), false);
    let mut sharded = ShardedTaleDatabase::open(dir.path(), params().buffer_frames).unwrap();
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
        ShardError::Shard { shard, .. } => assert_eq!(shard, 1),
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

    let sharded = ShardedTaleDatabase::open(dir.path(), params().buffer_frames).unwrap();
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
            Err(ShardError::Manifest(m)) => {
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
