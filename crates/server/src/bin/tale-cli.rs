//! `tale-cli` — build, inspect and query NH-indexed graph databases from
//! the command line.
//!
//! ```text
//! tale-cli build <graphs.(txt|json)> <index-dir> [--sbit N] [--frames N]
//!          [--shards N]
//! tale-cli add   <index-dir> <graphs.(txt|json)>
//! tale-cli stats <index-dir> [--json]
//! tale-cli explain <index-dir> <query.(txt|json)> [--json]
//! tale-cli query <index-dir> <query.(txt|json)> [--rho F] [--pimp F]
//!          [--top-k N] [--importance degree|closeness|betweenness|eigenvector|random]
//!          [--hops N] [--similarity quality|nodes-edges|ctree] [--threads N]
//!          [--explain] [--format text|json] [--stats]
//!          [--no-cache] [--pool-pages N]
//! tale-cli verify <index-dir>
//! tale-cli recover <index-dir>
//! tale-cli server-stats <host:port> [--json]
//! tale-cli health <host:port> [--json]
//! ```
//!
//! Every command that opens an existing index accepts `--pool-pages N`
//! (buffer-pool frames per index page file) — shrink it to run queries
//! against an index much larger than memory; answers are identical at
//! every setting.
//!
//! Graph files use the line-oriented text format of `tale_graph::io`
//! (`graph <name>` / `v <label>` / `e <u> <v> [label]`) or the JSON dump.
//! Queries take the *first* graph in the file; its label names are mapped
//! into the database vocabulary (unknown labels simply never match).
//!
//! Every directory has one layout: `shards.json` + `shard-NNN/` index
//! directories beside the graph store (see `tale::ShardedTaleDatabase`).
//! `build` writes one shard unless `--shards N` asks for more, and every
//! other command reads the shard count from `shards.json`. Query results
//! are bit-identical at every shard count.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use tale::{
    CTreeStyle, HashPolicy, ImportanceMeasure, MatchedNodesEdges, QualitySum, QueryOptions,
    ShardStats, ShardedTaleDatabase, TaleParams,
};
use tale_graph::labels::NodeLabel;
use tale_graph::{Graph, GraphDb};
use tale_nhindex::{GenerationalNhIndex, IndexReader, IndexStatistics};
use tale_server::wire;

/// `print!` for command output (see [`write_stdout`]).
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// `println!` for command output (see [`write_stdout`]).
macro_rules! outln {
    () => {
        write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Writes command output to stdout. A closed stdout — the reader of
/// `tale-cli ... | head` has gone — ends the process quietly with success,
/// where `print!` would panic; any other write error ends it with a
/// one-line message.
fn write_stdout(args: std::fmt::Arguments) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            eprintln!("tale-cli: writing to stdout: {e}");
            std::process::exit(1);
        }
        std::process::exit(0);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("build") => cmd_build(&args[1..]),
        Some("add") => cmd_add(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("explain") => cmd_explain(&args[1..]),
        Some("verify") => cmd_verify(&args[1..]),
        Some("recover") => cmd_recover(&args[1..]),
        Some("generations") => cmd_generations(&args[1..]),
        Some("fold") => cmd_fold(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("server-stats") => cmd_server_stats(&args[1..]),
        Some("health") => cmd_health(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            eprint!("{}", USAGE);
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("tale-cli: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage:
  tale-cli build <graphs.(txt|json)> <index-dir> [--sbit N] [--frames N]
           [--shards N]
  tale-cli add   <index-dir> <graphs.(txt|json)> [--pool-pages N]
  tale-cli stats <index-dir> [--json] [--pool-pages N]
  tale-cli explain <index-dir> <query.(txt|json)> [--rho F] [--pimp F]
           [--top-k N] [--similarity MODEL] [--json]
           [--pool-pages N]
  tale-cli verify <index-dir> [--pool-pages N]
  tale-cli recover <index-dir> [--pool-pages N]
  tale-cli generations <index-dir> [--pool-pages N]
  tale-cli fold <index-dir> [--pool-pages N]
  tale-cli query <index-dir> <query.(txt|json)> [--rho F] [--pimp F]
           [--top-k N] [--importance MEASURE] [--hops N] [--similarity MODEL]
           [--threads N] [--explain] [--format text|json]
           [--stats] [--no-cache] [--pool-pages N]
  tale-cli server-stats <host:port> [--json]
  tale-cli health <host:port> [--json]

measures: degree (default) | closeness | betweenness | eigenvector | random
models:   quality (default) | nodes-edges | ctree
threads:  0 = one per core (default); 1 = serial; N = worker cap
shards:   partition the index across N independent NH-Index shards
          (default 1), graph id placed by hash; queries scatter/gather
          and return bit-identical results at every N
explain:  (query) also print the plan tree — one probe per important
          node on every shard — with posting-row estimates from the
          index statistics; the explain subcommand prints the plan
          without executing
stats:    print per-stage engine statistics (probe traffic, pool fetch
          taxonomy, per-shard traffic and skew, stage wall clock); with
          --format json, wraps the output as
          {\"matches\": [...], \"stats\": {...}, \"shards\": [...]}
          (the stats subcommand prints index statistics instead:
          vocabulary skew, posting-size percentiles; --json dumps the
          full per-unit statistics)
no-cache: bypass the query-result cache for this run
pool-pages: buffer-pool frames per index page file (8 KiB each); small
          values exercise the larger-than-RAM read path. Results are
          identical at every setting — only latency changes.
generations: show each shard's on-disk generations, pinned readers,
          unfolded delta size and tombstone count
fold:     build the in-memory delta + tombstones into a fresh on-disk
          generation and atomically flip to it (readers never block);
          every shard folds in turn
server-stats: fetch a running tale-server's counters (worker or
          frontend) over the wire and pretty-print them; --json dumps
          the raw snapshot
health:   fetch a running tale-server's health view — liveness, load,
          and (on a frontend with replica groups) every replica's
          circuit-breaker state; --json dumps the raw response
";

/// Opens a database directory with `buffer_frames` pool frames per
/// shard page file.
fn open(dir: &str, buffer_frames: usize) -> Result<ShardedTaleDatabase, String> {
    ShardedTaleDatabase::open(Path::new(dir), buffer_frames).map_err(|e| e.to_string())
}

/// The shards' generational indexes with their display names.
fn shards(t: &ShardedTaleDatabase) -> impl Iterator<Item = (String, &GenerationalNhIndex)> {
    let index = t.index();
    index
        .ids()
        .zip(index.shards())
        .map(|(s, idx)| (format!("shard {s}"), idx))
}

/// Live per-unit index statistics: each shard's pinned base generation,
/// plus its delta overlay when that holds anything. `None` marks a unit
/// whose index predates the statistics file (`explain` then has no
/// estimate for it).
fn statistics_units(t: &ShardedTaleDatabase) -> Vec<(String, Option<Arc<IndexStatistics>>)> {
    let mut units = Vec::new();
    for (name, index) in shards(t) {
        let snap = index.snapshot();
        units.push((
            format!("{name} g{}", snap.base_generation()),
            snap.base_reader().statistics(),
        ));
        if snap.delta_graphs() > 0 {
            units.push((format!("{name} delta"), snap.delta_reader().statistics()));
        }
    }
    units
}

/// Positional arguments and `--flag value` pairs.
type ParsedArgs<'a> = (Vec<&'a str>, Vec<(&'a str, &'a str)>);

/// Flags that take no value; they parse as `(name, "")`.
const BOOL_FLAGS: &[&str] = &["stats", "no-cache", "json", "explain"];

/// Pulls `--flag value` pairs (and bare boolean flags) out of an argument
/// list; returns (positional, flags).
fn split_args(args: &[String]) -> Result<ParsedArgs<'_>, String> {
    let mut pos = Vec::new();
    let mut flags = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if let Some(name) = a.strip_prefix("--") {
            if BOOL_FLAGS.contains(&name) {
                flags.push((name, ""));
                i += 1;
                continue;
            }
            let v = args
                .get(i + 1)
                .ok_or_else(|| format!("flag --{name} needs a value"))?;
            flags.push((name, v.as_str()));
            i += 2;
        } else {
            pos.push(a);
            i += 1;
        }
    }
    Ok((pos, flags))
}

fn parse<T: std::str::FromStr>(name: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("bad value {v:?} for --{name}"))
}

/// Parses flags for a command whose only option is `--pool-pages N`
/// (buffer-pool frames per index page file), rejecting anything else.
fn pool_pages_only(flags: &[(&str, &str)], default: usize) -> Result<usize, String> {
    let mut pages = default;
    for (name, v) in flags {
        match *name {
            "pool-pages" => pages = parse(name, v)?,
            other => return Err(format!("unknown flag --{other}")),
        }
    }
    if pages == 0 {
        return Err("--pool-pages must be >= 1".into());
    }
    Ok(pages)
}

fn load_db(path: &Path) -> Result<GraphDb, String> {
    let is_json = path.extension().is_some_and(|e| e == "json");
    let result = if is_json {
        tale_graph::io::load_json(path)
    } else {
        std::fs::File::open(path)
            .map_err(tale_graph::GraphError::from)
            .and_then(tale_graph::io::read_text)
    };
    result.map_err(|e| format!("loading {}: {e}", path.display()))
}

fn cmd_build(args: &[String]) -> Result<(), String> {
    let (pos, flags) = split_args(args)?;
    let [input, dir] = pos.as_slice() else {
        return Err(format!("build needs <graphs> <index-dir>\n{USAGE}"));
    };
    let mut params = TaleParams::default();
    let mut nshards = 1;
    for (name, v) in flags {
        match name {
            "sbit" => params.sbit = parse(name, v)?,
            "frames" => params.buffer_frames = parse(name, v)?,
            "shards" => {
                let n: usize = parse(name, v)?;
                if n == 0 {
                    return Err("--shards must be >= 1".into());
                }
                nshards = n;
            }
            other => return Err(format!("unknown flag --{other}")),
        }
    }
    let db = load_db(Path::new(input))?;
    let (graphs, nodes, edges) = (db.len(), db.total_nodes(), db.total_edges());
    let start = std::time::Instant::now();
    let (tale, build) =
        ShardedTaleDatabase::build_with_stats(db, Path::new(dir), &params, nshards, &HashPolicy)
            .map_err(|e| e.to_string())?;
    outln!(
        "indexed {graphs} graphs ({nodes} nodes, {edges} edges) in {:.2}s \
         across {nshards} shard{} (hash placement, build skew {:.2})",
        start.elapsed().as_secs_f64(),
        if nshards == 1 { "" } else { "s" },
        build.skew()
    );
    for (s, (&g, &n)) in build
        .graphs_per_shard
        .iter()
        .zip(&build.nodes_per_shard)
        .enumerate()
    {
        outln!(
            "  shard {s:>3}: {g} graphs, {n} nodes, built in {:.3}s",
            build.per_shard_secs[s]
        );
    }
    outln!(
        "index: {} keys, {} bytes at {dir}",
        tale.index().key_count(),
        tale.index_size_bytes()
    );
    Ok(())
}

fn cmd_add(args: &[String]) -> Result<(), String> {
    let (pos, flags) = split_args(args)?;
    let [dir, input] = pos.as_slice() else {
        return Err(format!("add needs <index-dir> <graphs>\n{USAGE}"));
    };
    let pool_pages = pool_pages_only(&flags, 4096)?;
    let mut tale = open(dir, pool_pages)?;
    let incoming = load_db(Path::new(input))?;
    let mut added = 0;
    for (gid, name, src) in incoming.iter() {
        let _ = gid;
        // remap labels by name, interning new ones into the live vocabulary
        let mut g = Graph::new(src.direction());
        for n in src.nodes() {
            let label_name = incoming
                .node_vocab()
                .name(src.label(n).0)
                .unwrap_or("?")
                .to_owned();
            let l = tale.intern_node_label(&label_name);
            g.add_node(l);
        }
        for (u, v, _) in src.edges() {
            g.add_edge(u, v).map_err(|e| e.to_string())?;
        }
        tale.insert_graph(name.to_owned(), g)
            .map_err(|e| e.to_string())?;
        added += 1;
    }
    outln!(
        "added {added} graphs; index now covers {} graphs / {} nodes",
        tale.db().len(),
        tale.index().node_count()
    );
    Ok(())
}

/// Fraction of a unit's indexed nodes carrying its most frequent label —
/// 1/|labels| for a uniform vocabulary, → 1.0 for a clustered shard.
fn vocab_skew(st: &IndexStatistics) -> f64 {
    let top = st.labels.iter().map(|l| l.nodes).max().unwrap_or(0);
    if st.node_count == 0 {
        0.0
    } else {
        top as f64 / st.node_count as f64
    }
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let (pos, flags) = split_args(args)?;
    let [dir] = pos.as_slice() else {
        return Err(format!("stats needs <index-dir>\n{USAGE}"));
    };
    let mut pool_pages = 1024usize;
    let mut json = false;
    for (name, v) in flags {
        match name {
            "pool-pages" => pool_pages = parse(name, v)?,
            "json" => json = true,
            other => return Err(format!("unknown flag --{other}")),
        }
    }
    let tale = open(dir, pool_pages)?;
    let units = statistics_units(&tale);
    let manifest = tale.index().manifest();
    if json {
        #[derive(serde::Serialize)]
        struct UnitDump {
            name: String,
            stats: Option<IndexStatistics>,
        }
        #[derive(serde::Serialize)]
        struct StatsDump {
            graphs: usize,
            nodes: usize,
            edges: usize,
            node_labels: usize,
            index_keys: u64,
            index_bytes: u64,
            shard_count: u32,
            policy: String,
            units: Vec<UnitDump>,
        }
        let dump = StatsDump {
            graphs: tale.db().len(),
            nodes: tale.db().total_nodes(),
            edges: tale.db().total_edges(),
            node_labels: tale.db().node_vocab().len(),
            index_keys: tale.index().key_count(),
            index_bytes: tale.index_size_bytes(),
            shard_count: manifest.shard_count,
            policy: manifest.policy.clone(),
            units: units
                .iter()
                .map(|(name, st)| UnitDump {
                    name: name.clone(),
                    stats: st.as_deref().cloned(),
                })
                .collect(),
        };
        outln!(
            "{}",
            serde_json::to_string_pretty(&dump).map_err(|e| e.to_string())?
        );
        return Ok(());
    }
    outln!("graphs           : {}", tale.db().len());
    outln!("total nodes      : {}", tale.db().total_nodes());
    outln!("total edges      : {}", tale.db().total_edges());
    outln!("node labels |Σv| : {}", tale.db().node_vocab().len());
    outln!(
        "group labels     : {}",
        if tale.db().has_groups() { "yes" } else { "no" }
    );
    outln!("index keys       : {}", tale.index().key_count());
    outln!("index bytes      : {}", tale.index_size_bytes());
    outln!(
        "shards           : {} ({} placement)",
        manifest.shard_count,
        manifest.policy
    );
    for (s, idx) in tale.index().ids().zip(tale.index().shards()) {
        outln!(
            "  shard {s:>3}: {} graphs, {} indexed nodes, {} keys, {} bytes",
            manifest.graphs_of(s).len(),
            idx.node_count(),
            idx.key_count(),
            idx.size_bytes()
        );
    }
    // every shard shares one scheme (derived from the full vocabulary at
    // build time, kept by folds)
    let s = tale.index().shards()[0].scheme();
    outln!(
        "neighbor arrays  : Sbit={} ({})",
        s.sbit,
        if s.deterministic {
            "deterministic"
        } else {
            "Bloom"
        }
    );
    // Per-unit index statistics (nh.stats.json): vocabulary skew and
    // posting-row percentiles. A `-` row means that unit predates the
    // statistics file; `explain` has no estimate for it.
    outln!("index statistics:");
    outln!("  unit           graphs   nodes  labels  skew   post p50/p90/p99  maxdeg");
    for (name, st) in &units {
        match st.as_deref() {
            Some(st) => outln!(
                "  {:<13} {:>7} {:>7}  {:>6}  {:>4.2}  {:>6}/{:>3}/{:>3}  {:>6}",
                name,
                st.graph_count,
                st.node_count,
                st.labels.len(),
                vocab_skew(st),
                st.posting_rows.p50,
                st.posting_rows.p90,
                st.posting_rows.p99,
                st.max_degree
            ),
            None => outln!("  {name:<13}       -       -       -     -        -/  -/  -       -"),
        }
    }
    for (id, name, g) in tale.db().iter() {
        let _ = id;
        let st = tale_graph::stats::stats(g);
        outln!(
            "  {name}: {} nodes, {} edges, max degree {}, clustering {:.3}",
            st.nodes,
            st.edges,
            st.max_degree,
            st.clustering
        );
    }
    Ok(())
}

/// Parses a `--similarity` value.
fn parse_similarity(v: &str) -> Result<Arc<dyn tale::SimilarityModel>, String> {
    match v {
        "quality" => Ok(Arc::new(QualitySum)),
        "nodes-edges" => Ok(Arc::new(MatchedNodesEdges)),
        "ctree" => Ok(Arc::new(CTreeStyle)),
        other => Err(format!("unknown similarity {other:?}")),
    }
}

/// Prints the plan tree the engine would execute for one query — one
/// probe per important node on every shard, with posting-row estimates
/// from the index statistics — without running it.
fn cmd_explain(args: &[String]) -> Result<(), String> {
    let (pos, flags) = split_args(args)?;
    let [dir, query_path] = pos.as_slice() else {
        return Err(format!("explain needs <index-dir> <query>\n{USAGE}"));
    };
    let mut opts = QueryOptions::default();
    let mut json = false;
    let mut pool_pages = 4096usize;
    for (name, v) in flags {
        match name {
            "rho" => opts.rho = parse(name, v)?,
            "pimp" => opts.p_imp = parse(name, v)?,
            "top-k" => opts.top_k = Some(parse(name, v)?),
            "json" => json = true,
            "pool-pages" => pool_pages = parse(name, v)?,
            "similarity" => opts.similarity = parse_similarity(v)?,
            other => return Err(format!("unknown flag --{other}")),
        }
    }
    let tale = open(dir, pool_pages)?;
    let qdb = load_db(&PathBuf::from(query_path))?;
    if qdb.is_empty() {
        return Err("query file holds no graphs".into());
    }
    let query = remap_query(&qdb, tale.db());
    let report = tale.explain(&query, &opts);
    if json {
        outln!(
            "{}",
            serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
        );
    } else {
        out!("{}", report.render());
    }
    Ok(())
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    let (pos, flags) = split_args(args)?;
    let [dir, query_path] = pos.as_slice() else {
        return Err(format!("query needs <index-dir> <query>\n{USAGE}"));
    };
    let mut opts = QueryOptions::default();
    let mut json = false;
    let mut want_stats = false;
    let mut want_explain = false;
    let mut pool_pages = 4096usize;
    for (name, v) in flags {
        match name {
            "stats" => want_stats = true,
            "explain" => want_explain = true,
            "pool-pages" => pool_pages = parse(name, v)?,
            "no-cache" => opts.use_cache = false,
            "format" => {
                json = match v {
                    "json" => true,
                    "text" => false,
                    other => return Err(format!("unknown format {other:?}")),
                }
            }
            "rho" => opts.rho = parse(name, v)?,
            "pimp" => opts.p_imp = parse(name, v)?,
            "top-k" => opts.top_k = Some(parse(name, v)?),
            "hops" => opts.hops = parse(name, v)?,
            "threads" => opts.threads = parse(name, v)?,
            "importance" => {
                opts.importance = match v {
                    "degree" => ImportanceMeasure::Degree,
                    "closeness" => ImportanceMeasure::Closeness,
                    "betweenness" => ImportanceMeasure::Betweenness,
                    "eigenvector" => ImportanceMeasure::Eigenvector,
                    "random" => ImportanceMeasure::Random(0),
                    other => return Err(format!("unknown importance {other:?}")),
                }
            }
            "similarity" => opts.similarity = parse_similarity(v)?,
            other => return Err(format!("unknown flag --{other}")),
        }
    }

    let tale = open(dir, pool_pages)?;
    let qdb = load_db(&PathBuf::from(query_path))?;
    if qdb.is_empty() {
        return Err("query file holds no graphs".into());
    }
    let query = remap_query(&qdb, tale.db());
    let plan_report = want_explain.then(|| tale.explain(&query, &opts));

    let start = std::time::Instant::now();
    let (mut outputs, mut batch) = tale
        .query_batch_with_stats(&[&query], &opts)
        .map_err(|e| e.to_string())?;
    let skew = batch.shard_skew();
    let (results, stats, shard_stats) =
        (outputs.remove(0), batch.per_query.remove(0), batch.shards);
    let secs = start.elapsed().as_secs_f64();
    if json {
        #[derive(serde::Serialize)]
        struct WithStats {
            plan: Option<tale::PlanReport>,
            matches: Vec<tale::QueryMatch>,
            stats: Option<tale::QueryStats>,
            shards: Vec<ShardStats>,
            shard_skew: f64,
        }
        let out = if want_stats || want_explain {
            serde_json::to_string_pretty(&WithStats {
                plan: plan_report,
                matches: results,
                stats: want_stats.then_some(stats),
                shards: if want_stats { shard_stats } else { Vec::new() },
                shard_skew: skew,
            })
        } else {
            serde_json::to_string_pretty(&results)
        }
        .map_err(|e| e.to_string())?;
        outln!("{out}");
        return Ok(());
    }
    if let Some(report) = &plan_report {
        out!("{}", report.render());
        outln!();
    }
    outln!(
        "query: {} nodes, {} edges → {} matches in {:.3}s (ρ={}, Pimp={})",
        query.node_count(),
        query.edge_count(),
        results.len(),
        secs,
        opts.rho,
        opts.p_imp
    );
    for (rank, m) in results.iter().enumerate() {
        outln!(
            "#{:<3} {:24} score {:>8.3}  nodes {:>4}  edges {:>4}",
            rank + 1,
            m.graph_name,
            m.score,
            m.matched_nodes,
            m.matched_edges
        );
    }
    if want_stats {
        outln!();
        print_query_stats(&stats);
        if shard_stats.len() > 1 {
            outln!("per-shard (skew {skew:.2}):");
            outln!("  shard  probes  keys  postings  rows  cands  matches  wall(s)");
            for s in &shard_stats {
                outln!(
                    "  {:>5}  {:>6}  {:>4}  {:>8}  {:>4}  {:>5}  {:>7}  {:.4}",
                    s.shard,
                    s.probes,
                    s.keys_scanned,
                    s.postings_fetched,
                    s.rows_examined,
                    s.candidates,
                    s.matches,
                    s.wall_secs
                );
            }
        }
    }
    Ok(())
}

fn print_query_stats(s: &tale::QueryStats) {
    outln!("engine stats:");
    if s.cache_hit {
        outln!("  result cache     : HIT (index untouched)");
    } else {
        outln!("  result cache     : miss");
        outln!("  important nodes  : {}", s.important_nodes);
        outln!(
            "  index probes     : {} ({} shared)",
            s.probes,
            s.probes_shared
        );
        outln!("  keys scanned     : {}", s.keys_scanned);
        outln!("  postings fetched : {}", s.postings_fetched);
        outln!("  postings filtered: {}", s.postings_filtered);
        outln!("  rows examined    : {}", s.rows_examined);
        outln!(
            "  candidates       : {} nodes across {} graphs",
            s.candidates,
            s.candidate_graphs
        );
    }
    outln!(
        "  pool hit rate    : {:.1}% ({} hits / {} coalesced / {} misses / {} prefetched)",
        100.0 * s.pool.hit_rate(),
        s.pool.hits,
        s.pool.coalesced,
        s.pool.misses,
        s.pool.prefetched
    );
    outln!(
        "  stages (s)       : plan {:.4} | probe {:.4} | match {:.4} | rank {:.4} | total {:.4}",
        s.stages.plan_secs,
        s.stages.probe_secs,
        s.stages.match_secs,
        s.stages.rank_secs,
        s.stages.total_secs
    );
}

/// Deep integrity check: reads every page of every index file (checksums
/// verify on each read), walks the B+-tree checking key ordering and
/// structure, and decodes every posting — per shard. Any corruption
/// exits nonzero with a per-shard report.
fn cmd_verify(args: &[String]) -> Result<(), String> {
    let (pos, flags) = split_args(args)?;
    let [dir] = pos.as_slice() else {
        return Err(format!("verify needs <index-dir>\n{USAGE}"));
    };
    let pool_pages = pool_pages_only(&flags, 256)?;
    let tale = open(dir, pool_pages)?;
    // consistency: index node count equals database node count minus
    // tombstoned graphs' nodes (we can't see tombstones here, so ≤)
    let db_nodes = tale.db().total_nodes() as u64;
    let idx_nodes = tale.index().node_count();
    if idx_nodes > db_nodes {
        return Err(format!(
            "index claims {idx_nodes} nodes but the database holds {db_nodes}"
        ));
    }
    let reports = tale.index().verify().map_err(|e| e.to_string())?;
    let reports: Vec<_> = shards(&tale).map(|(who, _)| who).zip(reports).collect();
    let mut corrupt = 0usize;
    for (who, r) in &reports {
        let status = if r.is_ok() { "ok" } else { "CORRUPT" };
        outln!(
            "{who}: {status} — {} btree pages, {} blob pages, {} keys, \
             {} postings, {} rows",
            r.btree_pages,
            r.blob_pages,
            r.keys,
            r.postings,
            r.posting_rows
        );
        for e in &r.errors {
            outln!("  error: {e}");
        }
        if !r.is_ok() {
            corrupt += 1;
        }
    }
    if corrupt > 0 {
        return Err(format!(
            "{corrupt} of {} index(es) corrupt; do not serve this directory",
            reports.len()
        ));
    }
    // probe sweep on top of the physical walk: one representative
    // signature per graph, against every shard (each answers from its
    // base generation plus its delta overlay)
    let indexes = tale.index().shards();
    let mut probed = 0u64;
    for (gid, _, g) in tale.db().iter() {
        if let Some(n) = g.nodes().next() {
            let sig = indexes[0].signature(g, n, &|x| tale.db().effective_label(gid, x));
            for index in indexes {
                IndexReader::probe_batch(index, std::slice::from_ref(&sig), 1.0, 1)
                    .map_err(|e| format!("probe failed for graph {}: {e}", gid.0))?;
            }
            probed += 1;
        }
    }
    outln!(
        "ok: {} graphs, {} indexed nodes, {} distinct keys, {} bytes; \
         {probed} probe paths verified",
        tale.db().len(),
        idx_nodes,
        tale.index().key_count(),
        tale.index_size_bytes()
    );
    Ok(())
}

/// Explicit crash recovery: opens the directory, repairing what a crash
/// left behind, and reports what was done: the graph log's inserts were
/// replayed (an insert a crash cut short is a torn final record,
/// truncated), and the generation directories of unfinished folds were
/// swept.
/// Opening with any other subcommand performs the same repairs silently;
/// this one shows them.
fn cmd_recover(args: &[String]) -> Result<(), String> {
    let (pos, flags) = split_args(args)?;
    let [dir] = pos.as_slice() else {
        return Err(format!("recover needs <index-dir>\n{USAGE}"));
    };
    let pool_pages = pool_pages_only(&flags, 256)?;
    let (_, rec) = ShardedTaleDatabase::open_with_recovery(Path::new(dir), pool_pages)
        .map_err(|e| e.to_string())?;
    outln!(
        "graph log: {} insert(s) replayed, {} torn-tail byte(s) truncated",
        rec.log_records,
        rec.log_torn_bytes
    );
    for (s, n) in rec.generations_swept.iter().enumerate() {
        outln!("shard {s}: {n} orphaned generation(s) swept");
    }
    outln!("recovered; the directory is safe to serve");
    Ok(())
}

/// Shows each generational index's MVCC state: on-disk generations with
/// their reader pin counts, the logical mutation counter, the unfolded
/// delta size and the tombstone set.
fn cmd_generations(args: &[String]) -> Result<(), String> {
    let (pos, flags) = split_args(args)?;
    let [dir] = pos.as_slice() else {
        return Err(format!("generations needs <index-dir>\n{USAGE}"));
    };
    let pool_pages = pool_pages_only(&flags, 256)?;
    let tale = open(dir, pool_pages)?;
    let mut pending = false;
    for (name, index) in shards(&tale) {
        let snap = index.snapshot();
        outln!("{name}:");
        outln!("  logical mutations : {}", index.logical_generation());
        outln!("  current generation: g{}", index.current_generation());
        outln!(
            "  delta overlay     : {} unfolded insert(s)",
            snap.delta_graphs()
        );
        outln!(
            "  tombstones        : {} removed graph(s)",
            snap.removed_count()
        );
        outln!("  on-disk generations:");
        for g in index.generations() {
            outln!(
                "    g{:<4} pins {:>3}{}",
                g.number,
                g.pins,
                if g.current { "  (current)" } else { "" }
            );
        }
        pending |= snap.delta_graphs() > 0 || snap.removed_count() > 0;
    }
    if pending {
        outln!("run `tale-cli fold` to build these into a fresh generation");
    }
    Ok(())
}

/// Folds the in-memory delta and tombstone set into a new on-disk
/// generation and atomically flips to it — every shard in turn.
/// Concurrent readers keep their pinned generation; the
/// old one is deleted when its last pin drops.
fn cmd_fold(args: &[String]) -> Result<(), String> {
    let (pos, flags) = split_args(args)?;
    let [dir] = pos.as_slice() else {
        return Err(format!("fold needs <index-dir>\n{USAGE}"));
    };
    let pool_pages = pool_pages_only(&flags, 256)?;
    let mut tale = open(dir, pool_pages)?;
    let start = std::time::Instant::now();
    let reports = tale.fold().map_err(|e| e.to_string())?;
    for (s, report) in tale.index().ids().zip(reports) {
        outln!(
            "shard {s}: folded {} insert(s) and {} removal(s) into g{}",
            report.folded_inserts,
            report.folded_removes,
            report.new_generation
        );
    }
    outln!("done in {:.2}s", start.elapsed().as_secs_f64());
    Ok(())
}

fn cmd_server_stats(args: &[String]) -> Result<(), String> {
    let (pos, flags) = split_args(args)?;
    let [addr] = pos.as_slice() else {
        return Err(format!("server-stats needs <host:port>\n{USAGE}"));
    };
    let mut json = false;
    for (name, _) in &flags {
        match *name {
            "json" => json = true,
            other => return Err(format!("unknown flag --{other}\n{USAGE}")),
        }
    }
    let addr: std::net::SocketAddr = addr
        .parse()
        .map_err(|_| format!("bad server address {addr:?}"))?;
    let mut stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .ok();
    wire::write_request(
        &mut stream,
        &wire::Request::Stats(wire::StatsRequest { reserved: false }),
    )
    .map_err(|e| format!("sending stats request: {e}"))?;
    let s = match wire::read_response(&mut stream) {
        Ok(Some((wire::Response::Stats(s), _))) => s.server,
        Ok(Some((wire::Response::Error(e), _))) => {
            return Err(format!("server error [{}]: {}", e.code, e.message))
        }
        Ok(other) => return Err(format!("unexpected answer: {other:?}")),
        Err(e) => return Err(format!("reading stats response: {e}")),
    };
    if json {
        outln!(
            "{}",
            serde_json::to_string_pretty(&s).map_err(|e| e.to_string())?
        );
        return Ok(());
    }
    outln!("server {addr} (up {:.1}s)", s.uptime_secs);
    outln!("connections:");
    outln!("  accepted             {:>12}", s.conns_accepted);
    outln!("  active               {:>12}", s.conns_active);
    outln!("  shed (budget full)   {:>12}", s.conns_shed);
    outln!("admission:");
    outln!("  requests shed        {:>12}", s.requests_shed);
    outln!(
        "  deadline exceeded    {:>12}",
        s.requests_deadline_exceeded
    );
    outln!("  in flight now        {:>12}", s.requests_inflight);
    outln!("  queued now           {:>12}", s.requests_queued);
    outln!("  in-flight high-water {:>12}", s.inflight_hwm);
    outln!("  queue-depth high-water {:>10}", s.queue_depth_hwm);
    outln!("fault handling:");
    outln!("  retries              {:>12}", s.retries);
    outln!("  hedges fired         {:>12}", s.hedges_fired);
    outln!("  hedges won           {:>12}", s.hedges_won);
    outln!("  failovers            {:>12}", s.failovers);
    outln!("  replica failures     {:>12}", s.replica_failures);
    outln!("  breaker opened       {:>12}", s.breaker_opened);
    outln!("  responses degraded   {:>12}", s.responses_degraded);
    outln!("traffic:");
    outln!("  bytes in             {:>12}", s.bytes_in);
    outln!("  bytes out            {:>12}", s.bytes_out);
    outln!("requests by endpoint:");
    for (name, n) in [
        ("hello", s.requests_hello),
        ("query", s.requests_query),
        ("insert", s.requests_insert),
        ("remove", s.requests_remove),
        ("fold", s.requests_fold),
        ("stats", s.requests_stats),
        ("health", s.requests_health),
        ("explain", s.requests_explain),
    ] {
        outln!("  {name:<8} {:>12}", n);
    }
    Ok(())
}

fn cmd_health(args: &[String]) -> Result<(), String> {
    let (pos, flags) = split_args(args)?;
    let [addr] = pos.as_slice() else {
        return Err(format!("health needs <host:port>\n{USAGE}"));
    };
    let mut json = false;
    for (name, _) in &flags {
        match *name {
            "json" => json = true,
            other => return Err(format!("unknown flag --{other}\n{USAGE}")),
        }
    }
    let addr: std::net::SocketAddr = addr
        .parse()
        .map_err(|_| format!("bad server address {addr:?}"))?;
    let mut stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .ok();
    wire::write_request(
        &mut stream,
        &wire::Request::Health(wire::HealthRequest { reserved: false }),
    )
    .map_err(|e| format!("sending health request: {e}"))?;
    let h = match wire::read_response(&mut stream) {
        Ok(Some((wire::Response::Health(h), _))) => h,
        Ok(Some((wire::Response::Error(e), _))) => {
            return Err(format!("server error [{}]: {}", e.code, e.message))
        }
        Ok(other) => return Err(format!("unexpected answer: {other:?}")),
        Err(e) => return Err(format!("reading health response: {e}")),
    };
    if json {
        outln!(
            "{}",
            serde_json::to_string_pretty(&h).map_err(|e| e.to_string())?
        );
        return Ok(());
    }
    outln!(
        "server {addr}: {} (up {:.1}s, {} in flight, {} queued)",
        if h.ok { "ok" } else { "not ok" },
        h.uptime_secs,
        h.inflight,
        h.queued
    );
    if h.replicas.is_empty() {
        outln!("replicas: none (no replica groups behind this server)");
        return Ok(());
    }
    outln!(
        "{:>5} {:>7}  {:<10} {:>10} {:>10} {:>13}  address",
        "shard",
        "replica",
        "breaker",
        "successes",
        "failures",
        "consec.fails"
    );
    for r in &h.replicas {
        outln!(
            "{:>5} {:>7}  {:<10} {:>10} {:>10} {:>13}  {}",
            r.shard,
            r.replica,
            r.state,
            r.successes,
            r.failures,
            r.consecutive_failures,
            r.address
        );
    }
    Ok(())
}

/// Rebuilds the query graph with the *database's* label ids (matched by
/// name). Labels the database has never seen get fresh ids past its
/// vocabulary, so they can never match — the right semantics for a filter.
fn remap_query(qdb: &GraphDb, target: &GraphDb) -> Graph {
    let src = qdb.graph(tale_graph::GraphId(0));
    let mut out = Graph::new(src.direction());
    let mut next_unknown = target.node_vocab().len() as u32;
    for n in src.nodes() {
        let name = qdb.node_vocab().name(src.label(n).0).unwrap_or("?");
        let id = target.node_vocab().get(name).unwrap_or_else(|| {
            let id = next_unknown;
            next_unknown += 1;
            id
        });
        out.add_node(NodeLabel(id));
    }
    for (u, v, _) in src.edges() {
        out.add_edge(u, v).expect("copying a simple graph");
    }
    out
}
