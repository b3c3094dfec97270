//! E-CRASH — fault-injection torture sweep over every durable mutation.
//!
//! For each mutation kind the harness first runs the mutation cleanly
//! while *counting* its gated I/O operations, then re-runs it once per
//! fault point with exactly that operation failing. Process death is
//! simulated by dropping the handle with the fault still tripped (so even
//! the buffer pool's best-effort `Drop` flush fails), the directory is
//! reopened through the recovery path, and the query output is compared
//! bit-for-bit against both the pre-mutation and the post-mutation
//! reference states. A recovery that matches neither — a
//! corrupted-but-served state — fails the row.
//!
//! Sweeps cover insert, remove and fold on the database at one shard (the
//! "single" rows) and at two (the "sharded" rows): an insert appends one
//! record to the graph log, its commit point, then flips the owning
//! shard's `mvcc.json`; a fold builds a whole generation per shard first.
//! The one-shard database's in-place compaction may instead leave a
//! directory open refuses with a typed "rebuild" error (its old
//! `shards.json` goes first, its new one last). Only built with
//! `--features failpoints`.

use std::path::Path;
use tale::{HashPolicy, QueryOptions, ShardedTaleDatabase, TaleError, TaleParams};
use tale_graph::{Graph, GraphDb, GraphId, NodeId};
use tale_storage::faults;

/// One mutation kind's sweep outcome.
#[derive(Debug, Clone, serde::Serialize)]
pub struct CrashRow {
    /// Mutation swept.
    pub mutation: String,
    /// Gated I/O operations the clean mutation performs — one simulated
    /// crash per point.
    pub fault_points: u64,
    /// Recoveries that rolled back to the pre-mutation state.
    pub rolled_back: u64,
    /// Recoveries that completed to the post-mutation state.
    pub committed: u64,
    /// Reopens refused with a typed "rebuild" error: a compaction that
    /// stopped between removing the old manifest and writing the new one.
    pub refused: u64,
    /// Every recovery was bit-identical to pre or post and passed the
    /// deep integrity check, or (compaction only) was refused as above.
    pub identical: bool,
}

/// Tiny pool so generation builds overflow it and exercise eviction
/// write-backs.
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
fn corpus() -> (GraphDb, Vec<Graph>, Graph) {
    let mut db = GraphDb::new();
    let labels: Vec<_> = (0..4)
        .map(|i| db.intern_node_label(&format!("L{i}")))
        .collect();
    let build = |k: usize| {
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
    let mut graphs = Vec::new();
    for k in 0..6usize {
        let g = build(k);
        db.insert(format!("g{k}"), g.clone());
        graphs.push(g);
    }
    (db, graphs, build(6))
}

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

/// Compressed query answers over all probe graphs — the "query output"
/// whose bit-identity the sweep checks.
type Answers = Vec<Vec<(GraphId, u64, usize)>>;

/// What reopening a crashed directory gave.
enum Reopened {
    Served(ShardedTaleDatabase),
    /// Refused with the typed "rebuild" error.
    Refused,
    Failed,
}

/// Opens `dir` through the crash-recovery path.
fn reopen(dir: &Path) -> Reopened {
    match ShardedTaleDatabase::open(dir, params().buffer_frames) {
        Ok(d) => Reopened::Served(d),
        Err(TaleError::Rebuild { .. }) => Reopened::Refused,
        Err(_) => Reopened::Failed,
    }
}

fn recover(dir: &Path) -> ShardedTaleDatabase {
    ShardedTaleDatabase::open(dir, params().buffer_frames).unwrap()
}

/// Deep integrity check of every index file.
fn clean(db: &ShardedTaleDatabase) -> bool {
    db.index()
        .verify()
        .is_ok_and(|rs| rs.iter().all(|r| r.is_ok()))
}

fn answers(db: &ShardedTaleDatabase, queries: &[Graph]) -> Answers {
    queries
        .iter()
        .map(|q| {
            db.query(q, &opts())
                .unwrap()
                .into_iter()
                .map(|m| (m.graph, m.score.to_bits(), m.matched_nodes))
                .collect()
        })
        .collect()
}

/// Sweeps one mutation over all its fault points. `mutate` consumes the
/// open database (dropping it is the process exit) and returns whether
/// the mutation succeeded; the post state is what reopens after a clean
/// run. A typed "rebuild" refusal passes only when `may_refuse`.
fn sweep(
    pre: &Path,
    scratch: &Path,
    queries: &[Graph],
    name: &str,
    may_refuse: bool,
    mutate: impl Fn(ShardedTaleDatabase) -> bool,
) -> CrashRow {
    let pre_db = recover(pre);
    let pre_answers = answers(&pre_db, queries);
    drop(pre_db);

    let post_dir = scratch.join("post");
    copy_tree(pre, &post_dir);
    assert!(
        mutate(recover(&post_dir)),
        "{name}: the clean mutation failed"
    );
    let post_answers = answers(&recover(&post_dir), queries);
    std::fs::remove_dir_all(&post_dir).unwrap();

    let count_dir = scratch.join("count");
    copy_tree(pre, &count_dir);
    let counted = recover(&count_dir);
    faults::arm_counting();
    assert!(mutate(counted), "{name}: the counted mutation failed");
    let n = faults::disarm();
    std::fs::remove_dir_all(&count_dir).unwrap();

    let mut row = CrashRow {
        mutation: name.to_owned(),
        fault_points: n,
        rolled_back: 0,
        committed: 0,
        refused: 0,
        identical: true,
    };
    for i in 0..n {
        let work = scratch.join(format!("fault-{i}"));
        copy_tree(pre, &work);
        let db = recover(&work);
        faults::arm(i);
        let crashed = !mutate(db);
        faults::disarm();
        let recovered = match reopen(&work) {
            Reopened::Served(d) => d,
            Reopened::Refused => {
                row.refused += 1;
                row.identical &= may_refuse && crashed;
                std::fs::remove_dir_all(&work).unwrap();
                continue;
            }
            Reopened::Failed => {
                row.identical = false;
                continue;
            }
        };
        let got = answers(&recovered, queries);
        let clean = clean(&recovered);
        // A fold leaves the answers alone, so both sides match: count it
        // with the rollbacks unless the mutation went through.
        if got == pre_answers && clean && crashed {
            row.rolled_back += 1;
        } else if got == post_answers && clean {
            row.committed += 1;
        } else {
            row.identical = false;
        }
        drop(recovered);
        std::fs::remove_dir_all(&work).unwrap();
    }
    row
}

/// Runs the full crash-safety sweep: insert, remove and fold on the
/// database at one shard ("single") and at two ("sharded"), and the
/// one-shard database's in-place compaction. Returns one row per
/// mutation; `identical` must be true on every row.
pub fn run_crash() -> Vec<CrashRow> {
    let (db, graphs, fodder) = corpus();
    let mut queries = graphs;
    queries.push(fodder.clone());
    let mut rows = Vec::new();

    // Each pre state already holds one unfolded insert and one tombstone,
    // so the fold row has real work to do.
    for (nshards, layout) in [(1, "single"), (2, "sharded")] {
        let scratch = tempfile::tempdir().unwrap();
        let pre = scratch.path().join("pre");
        let mut built =
            ShardedTaleDatabase::build(db.clone(), &pre, &params(), nshards, &HashPolicy).unwrap();
        built.insert_graph("early", fodder.clone()).unwrap();
        built.remove_graph(GraphId(1)).unwrap();
        drop(built);
        let dir = scratch.path();
        rows.push(sweep(
            &pre,
            dir,
            &queries,
            &format!("{layout} insert_graph"),
            false,
            |mut d| d.insert_graph("late", fodder.clone()).is_ok(),
        ));
        rows.push(sweep(
            &pre,
            dir,
            &queries,
            &format!("{layout} remove_graph"),
            false,
            |mut d| d.remove_graph(GraphId(0)).is_ok(),
        ));
        rows.push(sweep(
            &pre,
            dir,
            &queries,
            &format!("{layout} fold"),
            false,
            |mut d| d.fold().is_ok(),
        ));
        if nshards == 1 {
            rows.push(sweep(&pre, dir, &queries, "single compact", true, |d| {
                d.compact(&params()).is_ok()
            }));
        }
    }
    rows
}
