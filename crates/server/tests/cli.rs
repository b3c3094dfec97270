//! End-to-end tests of the `tale-cli` binary (build → stats → query).

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_tale-cli");

const DB_TXT: &str = "\
graph complexA
v kinase
v ligase
v channel
e 0 1
e 1 2
e 0 2

graph loner
v kinase
v channel
e 0 1
";

const QUERY_TXT: &str = "\
graph q
v kinase
v ligase
v channel
e 0 1
e 1 2
";

fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(BIN)
        .args(args)
        .output()
        .expect("spawn tale-cli");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn build_stats_query_roundtrip() {
    let dir = tempfile::tempdir().unwrap();
    let db_path = dir.path().join("db.txt");
    let q_path = dir.path().join("q.txt");
    let idx = dir.path().join("index");
    std::fs::write(&db_path, DB_TXT).unwrap();
    std::fs::write(&q_path, QUERY_TXT).unwrap();

    let (ok, stdout, stderr) = run(&[
        "build",
        db_path.to_str().unwrap(),
        idx.to_str().unwrap(),
        "--sbit",
        "32",
    ]);
    assert!(ok, "build failed: {stderr}");
    assert!(stdout.contains("indexed 2 graphs"), "{stdout}");

    let (ok, stdout, _) = run(&["stats", idx.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("graphs           : 2"), "{stdout}");
    assert!(stdout.contains("Sbit=32"), "{stdout}");

    let (ok, stdout, stderr) = run(&[
        "query",
        idx.to_str().unwrap(),
        q_path.to_str().unwrap(),
        "--rho",
        "0.5",
        "--pimp",
        "1.0",
        "--similarity",
        "ctree",
    ]);
    assert!(ok, "query failed: {stderr}");
    assert!(stdout.contains("complexA"), "{stdout}");
    // full self-match of the triangle
    assert!(stdout.contains("nodes    3"), "{stdout}");
}

#[test]
fn add_extends_an_existing_index() {
    let dir = tempfile::tempdir().unwrap();
    let db_path = dir.path().join("db.txt");
    let more_path = dir.path().join("more.txt");
    let q_path = dir.path().join("q.txt");
    let idx = dir.path().join("index");
    std::fs::write(&db_path, DB_TXT).unwrap();
    std::fs::write(
        &more_path,
        "graph complexB\nv kinase\nv ligase\nv channel\ne 0 1\ne 1 2\ne 0 2\n",
    )
    .unwrap();
    std::fs::write(&q_path, QUERY_TXT).unwrap();
    let (ok, _, _) = run(&["build", db_path.to_str().unwrap(), idx.to_str().unwrap()]);
    assert!(ok);
    let (ok, stdout, stderr) = run(&["add", idx.to_str().unwrap(), more_path.to_str().unwrap()]);
    assert!(ok, "add failed: {stderr}");
    assert!(stdout.contains("added 1 graphs"), "{stdout}");
    let (ok, stdout, _) = run(&[
        "query",
        idx.to_str().unwrap(),
        q_path.to_str().unwrap(),
        "--rho",
        "0.0",
        "--pimp",
        "1.0",
    ]);
    assert!(ok);
    assert!(stdout.contains("complexB"), "{stdout}");
}

#[test]
fn query_with_unknown_labels_matches_nothing() {
    let dir = tempfile::tempdir().unwrap();
    let db_path = dir.path().join("db.txt");
    let q_path = dir.path().join("q.txt");
    let idx = dir.path().join("index");
    std::fs::write(&db_path, DB_TXT).unwrap();
    std::fs::write(&q_path, "graph q\nv martian\nv venusian\ne 0 1\n").unwrap();
    let (ok, _, _) = run(&["build", db_path.to_str().unwrap(), idx.to_str().unwrap()]);
    assert!(ok);
    let (ok, stdout, _) = run(&["query", idx.to_str().unwrap(), q_path.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("0 matches"), "{stdout}");
}

#[test]
fn explain_reports_probe_stats() {
    let dir = tempfile::tempdir().unwrap();
    let db_path = dir.path().join("db.txt");
    let q_path = dir.path().join("q.txt");
    let idx = dir.path().join("index");
    std::fs::write(&db_path, DB_TXT).unwrap();
    std::fs::write(&q_path, QUERY_TXT).unwrap();
    let (ok, _, _) = run(&["build", db_path.to_str().unwrap(), idx.to_str().unwrap()]);
    assert!(ok);
    let (ok, stdout, stderr) = run(&[
        "explain",
        idx.to_str().unwrap(),
        q_path.to_str().unwrap(),
        "--pimp",
        "1.0",
    ]);
    assert!(ok, "explain failed: {stderr}");
    assert!(stdout.contains("plan canonical="), "{stdout}");
    assert!(stdout.contains("probe [node="), "{stdout}");
    assert!(stdout.contains("est_rows="), "{stdout}");
}

#[test]
fn json_output_and_verify() {
    let dir = tempfile::tempdir().unwrap();
    let db_path = dir.path().join("db.txt");
    let q_path = dir.path().join("q.txt");
    let idx = dir.path().join("index");
    std::fs::write(&db_path, DB_TXT).unwrap();
    std::fs::write(&q_path, QUERY_TXT).unwrap();
    let (ok, _, _) = run(&["build", db_path.to_str().unwrap(), idx.to_str().unwrap()]);
    assert!(ok);
    let (ok, stdout, stderr) = run(&[
        "query",
        idx.to_str().unwrap(),
        q_path.to_str().unwrap(),
        "--pimp",
        "1.0",
        "--format",
        "json",
    ]);
    assert!(ok, "json query failed: {stderr}");
    // valid JSON array with the expected fields
    assert!(stdout.trim_start().starts_with('['), "{stdout}");
    assert!(stdout.contains("\"graph_name\""), "{stdout}");
    assert!(stdout.contains("\"matched_nodes\""), "{stdout}");
    assert!(stdout.contains("complexA"), "{stdout}");

    let (ok, stdout, stderr) = run(&["verify", idx.to_str().unwrap()]);
    assert!(ok, "verify failed: {stderr}");
    assert!(stdout.contains("shard 0: ok"), "{stdout}");
    assert!(stdout.contains("ok:"), "{stdout}");

    // verify must fail loudly on corruption (a fresh build keeps its one
    // shard's index under shard-000/gens/g0)
    let blob = idx.join("shard-000/gens/g0/nh.blobs");
    let mut bytes = std::fs::read(&blob).unwrap();
    for b in bytes.iter_mut().take(64) {
        *b ^= 0xFF;
    }
    std::fs::write(&blob, &bytes).unwrap();
    let (ok, stdout, stderr) = run(&["verify", idx.to_str().unwrap()]);
    assert!(!ok, "verify accepted a corrupted index");
    assert!(stdout.contains("CORRUPT"), "{stdout}");
    assert!(stderr.contains("corrupt"), "{stderr}");
}

#[test]
fn generations_inspects_and_fold_flips_to_a_new_generation() {
    let dir = tempfile::tempdir().unwrap();
    let db_path = dir.path().join("db.txt");
    let more_path = dir.path().join("more.txt");
    let q_path = dir.path().join("q.txt");
    let idx = dir.path().join("index");
    std::fs::write(&db_path, DB_TXT).unwrap();
    std::fs::write(
        &more_path,
        "graph complexB\nv kinase\nv ligase\nv channel\ne 0 1\ne 1 2\ne 0 2\n",
    )
    .unwrap();
    std::fs::write(&q_path, QUERY_TXT).unwrap();
    let (ok, _, _) = run(&["build", db_path.to_str().unwrap(), idx.to_str().unwrap()]);
    assert!(ok);

    let (ok, stdout, stderr) = run(&["generations", idx.to_str().unwrap()]);
    assert!(ok, "generations failed: {stderr}");
    assert!(stdout.contains("current generation: g0"), "{stdout}");
    assert!(stdout.contains("0 unfolded insert(s)"), "{stdout}");

    // an insert lands in the delta overlay, not a new generation
    let (ok, _, stderr) = run(&["add", idx.to_str().unwrap(), more_path.to_str().unwrap()]);
    assert!(ok, "add failed: {stderr}");
    let (ok, stdout, _) = run(&["generations", idx.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("current generation: g0"), "{stdout}");
    assert!(stdout.contains("1 unfolded insert(s)"), "{stdout}");
    assert!(stdout.contains("run `tale-cli fold`"), "{stdout}");

    // fold builds g1 and flips to it
    let (ok, stdout, stderr) = run(&["fold", idx.to_str().unwrap()]);
    assert!(ok, "fold failed: {stderr}");
    assert!(stdout.contains("folded 1 insert(s)"), "{stdout}");
    assert!(stdout.contains("into g1"), "{stdout}");
    let (ok, stdout, _) = run(&["generations", idx.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("current generation: g1"), "{stdout}");
    assert!(stdout.contains("0 unfolded insert(s)"), "{stdout}");

    // the folded index still answers, including the folded insert
    let (ok, stdout, _) = run(&[
        "query",
        idx.to_str().unwrap(),
        q_path.to_str().unwrap(),
        "--rho",
        "0.0",
        "--pimp",
        "1.0",
    ]);
    assert!(ok);
    assert!(stdout.contains("complexB"), "{stdout}");

    // a sharded layout is the same mechanism, once per shard: the add
    // lands in the owning shard's delta, fold flips every shard
    let sharded = dir.path().join("sharded");
    let (ok, _, _) = run(&[
        "build",
        db_path.to_str().unwrap(),
        sharded.to_str().unwrap(),
        "--shards",
        "2",
    ]);
    assert!(ok);
    let (ok, _, stderr) = run(&[
        "add",
        sharded.to_str().unwrap(),
        more_path.to_str().unwrap(),
    ]);
    assert!(ok, "sharded add failed: {stderr}");
    let (ok, stdout, stderr) = run(&["generations", sharded.to_str().unwrap()]);
    assert!(ok, "sharded generations failed: {stderr}");
    assert!(
        stdout.contains("shard 0:") && stdout.contains("shard 1:"),
        "{stdout}"
    );
    assert_eq!(
        stdout.matches("current generation: g0").count(),
        2,
        "{stdout}"
    );
    assert_eq!(
        stdout.matches("1 unfolded insert(s)").count(),
        1,
        "{stdout}"
    );
    assert_eq!(
        stdout.matches("0 unfolded insert(s)").count(),
        1,
        "{stdout}"
    );
    let (ok, stdout, stderr) = run(&["fold", sharded.to_str().unwrap()]);
    assert!(ok, "sharded fold failed: {stderr}");
    assert_eq!(stdout.matches("into g1").count(), 2, "{stdout}");
    assert_eq!(stdout.matches("folded 1 insert(s)").count(), 1, "{stdout}");
    let (ok, stdout, _) = run(&["generations", sharded.to_str().unwrap()]);
    assert!(ok);
    assert_eq!(
        stdout.matches("current generation: g1").count(),
        2,
        "{stdout}"
    );
    assert!(!stdout.contains("1 unfolded insert(s)"), "{stdout}");
    let (ok, stdout, _) = run(&[
        "query",
        sharded.to_str().unwrap(),
        q_path.to_str().unwrap(),
        "--rho",
        "0.0",
        "--pimp",
        "1.0",
    ]);
    assert!(ok);
    assert!(stdout.contains("complexB"), "{stdout}");
}

#[test]
fn recover_runs_on_single_and_sharded_layouts() {
    let dir = tempfile::tempdir().unwrap();
    let db_path = dir.path().join("db.txt");
    let single = dir.path().join("single");
    let sharded = dir.path().join("sharded");
    std::fs::write(&db_path, DB_TXT).unwrap();
    let (ok, _, _) = run(&["build", db_path.to_str().unwrap(), single.to_str().unwrap()]);
    assert!(ok);
    let (ok, _, _) = run(&[
        "build",
        db_path.to_str().unwrap(),
        sharded.to_str().unwrap(),
        "--shards",
        "2",
    ]);
    assert!(ok);

    // one story at every shard count: the graph log, then swept
    // generations
    let (ok, stdout, stderr) = run(&["recover", single.to_str().unwrap()]);
    assert!(ok, "recover failed: {stderr}");
    assert!(
        stdout.contains("graph log: 0 insert(s) replayed, 0 torn-tail byte(s) truncated"),
        "{stdout}"
    );
    assert!(
        stdout.contains("shard 0: 0 orphaned generation(s) swept"),
        "{stdout}"
    );
    assert!(stdout.contains("safe to serve"), "{stdout}");

    let (ok, stdout, stderr) = run(&["recover", sharded.to_str().unwrap()]);
    assert!(ok, "sharded recover failed: {stderr}");
    assert!(
        stdout.contains("graph log: 0 insert(s) replayed, 0 torn-tail byte(s) truncated"),
        "{stdout}"
    );
    assert!(
        stdout.contains("shard 0: 0 orphaned generation(s) swept"),
        "{stdout}"
    );
    assert!(
        stdout.contains("shard 1: 0 orphaned generation(s) swept"),
        "{stdout}"
    );
    assert!(stdout.contains("safe to serve"), "{stdout}");

    // an unfinished fold's directory is what recover sweeps
    std::fs::create_dir_all(sharded.join("shard-001/gens/g1")).unwrap();
    let (ok, stdout, stderr) = run(&["recover", sharded.to_str().unwrap()]);
    assert!(ok, "sharded recover failed: {stderr}");
    assert!(
        stdout.contains("shard 1: 1 orphaned generation(s) swept"),
        "{stdout}"
    );
    assert!(!sharded.join("shard-001/gens/g1").exists());
}

/// A directory an older build wrote with its one index at the top level
/// (`mvcc.json`, no `shards.json`) is refused with the rebuild hint, not
/// reported as an unfinished build.
#[test]
fn an_old_single_index_directory_is_refused_with_a_rebuild_hint() {
    let dir = tempfile::tempdir().unwrap();
    let db_path = dir.path().join("db.txt");
    let q_path = dir.path().join("q.txt");
    let old = dir.path().join("old");
    std::fs::write(&db_path, DB_TXT).unwrap();
    std::fs::write(&q_path, QUERY_TXT).unwrap();
    let db = tale_graph::io::read_text(DB_TXT.as_bytes()).unwrap();
    std::fs::create_dir_all(&old).unwrap();
    tale::store::GraphLog::create(&old, &db).unwrap();
    let config = tale_nhindex::NhIndexConfig::default();
    drop(tale_nhindex::GenerationalNhIndex::build(&old, &db, &config).unwrap());

    let (ok, stdout, stderr) = run(&["query", old.to_str().unwrap(), q_path.to_str().unwrap()]);
    assert!(!ok, "query served an old single-index directory: {stdout}");
    assert!(stderr.contains("mvcc.json"), "{stderr}");
    assert!(stderr.contains("single-index layout"), "{stderr}");
    assert!(
        stderr.contains("rebuild the directory with `tale-cli build`"),
        "{stderr}"
    );
    assert!(!stderr.contains("did not finish"), "{stderr}");
}

#[test]
fn bad_usage_reports_errors() {
    let (ok, _, stderr) = run(&["build"]);
    assert!(!ok);
    assert!(stderr.contains("build needs"), "{stderr}");

    let (ok, _, stderr) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"), "{stderr}");

    let (ok, _, stderr) = run(&["stats", "/nonexistent/idx"]);
    assert!(!ok);
    assert!(!stderr.is_empty());

    let (ok, _, _) = run(&["help"]);
    assert!(ok);
}

#[test]
fn sharded_build_roundtrip_matches_single_index() {
    let dir = tempfile::tempdir().unwrap();
    let db_path = dir.path().join("db.txt");
    let q_path = dir.path().join("q.txt");
    let single = dir.path().join("single");
    let sharded = dir.path().join("sharded");
    std::fs::write(&db_path, DB_TXT).unwrap();
    std::fs::write(&q_path, QUERY_TXT).unwrap();

    let (ok, _, stderr) = run(&["build", db_path.to_str().unwrap(), single.to_str().unwrap()]);
    assert!(ok, "single build failed: {stderr}");
    let (ok, stdout, stderr) = run(&[
        "build",
        db_path.to_str().unwrap(),
        sharded.to_str().unwrap(),
        "--shards",
        "2",
    ]);
    assert!(ok, "sharded build failed: {stderr}");
    assert!(stdout.contains("across 2 shards"), "{stdout}");
    assert!(sharded.join("shards.json").is_file());

    // stats knows about the shard layout
    let (ok, stdout, _) = run(&["stats", sharded.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("shards           : 2"), "{stdout}");
    assert!(stdout.contains("shard   0:"), "{stdout}");

    // identical query answers, bit for bit, through the JSON output
    let query = |idx: &std::path::Path| {
        let (ok, stdout, stderr) = run(&[
            "query",
            idx.to_str().unwrap(),
            q_path.to_str().unwrap(),
            "--rho",
            "0.5",
            "--pimp",
            "1.0",
            "--format",
            "json",
        ]);
        assert!(ok, "query failed: {stderr}");
        stdout
    };
    assert_eq!(query(&single), query(&sharded));

    // verify sweeps every shard
    let (ok, stdout, stderr) = run(&["verify", sharded.to_str().unwrap()]);
    assert!(ok, "verify failed: {stderr}");
    assert!(stdout.contains("shard 0: ok"), "{stdout}");
    assert!(stdout.contains("shard 1: ok"), "{stdout}");

    // explain scatters over the 2 shards and renders one plan subtree per
    // reader: each shard's base generation, then its delta overlay
    let (ok, stdout, stderr) = run(&[
        "explain",
        sharded.to_str().unwrap(),
        q_path.to_str().unwrap(),
        "--pimp",
        "1.0",
    ]);
    assert!(ok, "explain failed: {stderr}");
    assert!(stdout.contains("scatter [shards=2"), "{stdout}");
    assert!(stdout.contains("shard [shard=0 base"), "{stdout}");
    assert!(stdout.contains("shard [shard=1 delta"), "{stdout}");

    // add routes to the graph's hash-placed shard and stays queryable
    let more_path = dir.path().join("more.txt");
    std::fs::write(
        &more_path,
        "graph complexB\nv kinase\nv ligase\nv channel\ne 0 1\ne 1 2\ne 0 2\n",
    )
    .unwrap();
    let (ok, stdout, stderr) = run(&[
        "add",
        sharded.to_str().unwrap(),
        more_path.to_str().unwrap(),
    ]);
    assert!(ok, "add failed: {stderr}");
    assert!(stdout.contains("added 1 graphs"), "{stdout}");
    let (ok, stdout, _) = run(&[
        "query",
        sharded.to_str().unwrap(),
        q_path.to_str().unwrap(),
        "--rho",
        "0.0",
        "--pimp",
        "1.0",
    ]);
    assert!(ok);
    assert!(stdout.contains("complexB"), "{stdout}");
}

#[test]
fn sharded_query_stats_report_per_shard_traffic() {
    let dir = tempfile::tempdir().unwrap();
    let db_path = dir.path().join("db.txt");
    let q_path = dir.path().join("q.txt");
    let idx = dir.path().join("index");
    std::fs::write(&db_path, DB_TXT).unwrap();
    std::fs::write(&q_path, QUERY_TXT).unwrap();
    let (ok, _, stderr) = run(&[
        "build",
        db_path.to_str().unwrap(),
        idx.to_str().unwrap(),
        "--shards",
        "2",
    ]);
    assert!(ok, "{stderr}");
    let (ok, stdout, stderr) = run(&[
        "query",
        idx.to_str().unwrap(),
        q_path.to_str().unwrap(),
        "--pimp",
        "1.0",
        "--stats",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("per-shard (skew"), "{stdout}");
    // one line per shard in the table
    assert!(stdout.contains("engine stats:"), "{stdout}");

    let (ok, stdout, stderr) = run(&[
        "query",
        idx.to_str().unwrap(),
        q_path.to_str().unwrap(),
        "--pimp",
        "1.0",
        "--stats",
        "--format",
        "json",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("\"shards\""), "{stdout}");
    assert!(stdout.contains("\"shard_skew\""), "{stdout}");
}

#[test]
fn sharded_flag_validation() {
    let dir = tempfile::tempdir().unwrap();
    let db_path = dir.path().join("db.txt");
    std::fs::write(&db_path, DB_TXT).unwrap();
    let idx = dir.path().join("index");
    let (ok, _, stderr) = run(&[
        "build",
        db_path.to_str().unwrap(),
        idx.to_str().unwrap(),
        "--shards",
        "0",
    ]);
    assert!(!ok);
    assert!(stderr.contains("--shards must be >= 1"), "{stderr}");

    let (ok, _, stderr) = run(&[
        "build",
        db_path.to_str().unwrap(),
        idx.to_str().unwrap(),
        "--shards",
        "2",
        "--policy",
        "hash",
    ]);
    assert!(!ok);
    assert!(stderr.contains("unknown flag --policy"), "{stderr}");
}

/// `tale-cli explain ... --json | head`: once the reader of stdout has
/// gone, the CLI stops quietly instead of panicking on the closed pipe.
/// The output (a 400-probe plan over four readers) is far larger than a
/// pipe buffer, so the write is still under way when the pipe closes.
#[test]
fn a_closed_stdout_ends_the_output_quietly() {
    use std::io::Read;
    use std::process::Stdio;
    let dir = tempfile::tempdir().unwrap();
    let db_path = dir.path().join("db.txt");
    let q_path = dir.path().join("q.txt");
    let idx = dir.path().join("index");
    std::fs::write(&db_path, DB_TXT).unwrap();
    let labels = ["kinase", "ligase", "channel"];
    let mut query = String::from("graph path\n");
    for i in 0..400 {
        query.push_str(&format!("v {}\n", labels[i % 3]));
    }
    for i in 1..400 {
        query.push_str(&format!("e {} {i}\n", i - 1));
    }
    std::fs::write(&q_path, query).unwrap();
    let (ok, _, stderr) = run(&[
        "build",
        db_path.to_str().unwrap(),
        idx.to_str().unwrap(),
        "--shards",
        "2",
    ]);
    assert!(ok, "{stderr}");

    let mut child = Command::new(BIN)
        .args([
            "explain",
            idx.to_str().unwrap(),
            q_path.to_str().unwrap(),
            "--pimp",
            "1.0",
            "--json",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn tale-cli");
    let mut stdout = child.stdout.take().unwrap();
    let mut head = [0u8; 16];
    stdout.read_exact(&mut head).unwrap();
    assert_eq!(head[0], b'{');
    drop(stdout);
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
}

#[test]
fn flag_validation() {
    let dir = tempfile::tempdir().unwrap();
    let db_path = dir.path().join("db.txt");
    std::fs::write(&db_path, DB_TXT).unwrap();
    let idx = dir.path().join("index");
    let (ok, _, stderr) = run(&[
        "build",
        db_path.to_str().unwrap(),
        idx.to_str().unwrap(),
        "--sbit",
        "not-a-number",
    ]);
    assert!(!ok);
    assert!(stderr.contains("bad value"), "{stderr}");

    let (ok, _, stderr) = run(&[
        "build",
        db_path.to_str().unwrap(),
        idx.to_str().unwrap(),
        "--wat",
        "1",
    ]);
    assert!(!ok);
    assert!(stderr.contains("unknown flag"), "{stderr}");
}
