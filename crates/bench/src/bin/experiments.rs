//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! experiments [alg1|probe|table1|table2|table3|fig5|fig6|fig789|ablation|speedup|shard|serve|chaos|plan|cold|mvcc|all] [--threads N]
//! ```
//!
//! Scaling: set `TALE_SCALE` (0.001..1.0, default 0.12) to size the
//! synthetic datasets; 1.0 reproduces the paper's full dataset sizes
//! (hours of compute). `TALE_SEED` changes the generator seed.
//! Output is GitHub-flavored markdown, ready for EXPERIMENTS.md.

use tale_bench::experiments::ablation::{paper_measures, run_ablation};
use tale_bench::experiments::alg1::run_alg1;
use tale_bench::experiments::chaos::run_chaos;
use tale_bench::experiments::cold::run_cold;
use tale_bench::experiments::fig5::run_fig5;
use tale_bench::experiments::fig789::{default_sizes, run_fig789};
use tale_bench::experiments::kegg::run_kegg;
use tale_bench::experiments::mvcc::run_mvcc;
use tale_bench::experiments::pimp::{default_fractions, run_pimp};
use tale_bench::experiments::plan::run_plan;
use tale_bench::experiments::probe::run_probe;
use tale_bench::experiments::saga::run_saga;
use tale_bench::experiments::serve::run_serve;
use tale_bench::experiments::shard::run_shard;
use tale_bench::experiments::speedup::{run_batch_speedup, run_speedup};
use tale_bench::experiments::table1::run_table1;
use tale_bench::experiments::table2::run_table2;
use tale_bench::experiments::table3::run_table3_fig6;
use tale_bench::Scale;

fn seed() -> u64 {
    std::env::var("TALE_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20080407) // ICDE 2008
}

fn main() {
    let cmd = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    let scale = Scale::from_env(0.12);
    eprintln!(
        "# running '{cmd}' at TALE_SCALE={} (seed {})",
        scale.0,
        seed()
    );
    match cmd.as_str() {
        "alg1" => alg1(),
        "table1" => table1(scale),
        "table2" => table2(scale),
        "table3" | "fig6" => table3_fig6(scale),
        "fig5" => fig5(scale),
        "fig789" | "fig7" | "fig8" | "fig9" => fig789(scale),
        "ablation" => ablation(scale),
        "saga" => saga(scale),
        "kegg" => kegg(scale),
        "pimp" => pimp(scale),
        "speedup" => {
            speedup(scale);
            shard(scale);
            probe(scale);
        }
        "probe" => probe(scale),
        "shard" => shard(scale),
        "serve" => serve_exp(scale),
        "chaos" => chaos_exp(scale),
        "plan" => plan(scale),
        "cold" => cold(scale),
        "mvcc" => mvcc(scale),
        "crash" => crash(),
        "all" => {
            alg1();
            probe(scale);
            table1(scale);
            table2(scale);
            table3_fig6(scale);
            fig5(scale);
            fig789(scale);
            ablation(scale);
            saga(scale);
            kegg(scale);
            pimp(scale);
            speedup(scale);
            shard(scale);
            serve_exp(scale);
            chaos_exp(scale);
            plan(scale);
            cold(scale);
            mvcc(scale);
        }
        other => {
            eprintln!("unknown experiment {other:?}");
            eprintln!("usage: experiments [alg1|probe|table1|table2|table3|fig5|fig6|fig789|ablation|saga|kegg|pimp|speedup|shard|serve|chaos|plan|cold|mvcc|crash|all] [--threads N]");
            std::process::exit(2);
        }
    }
}

/// `--threads N` from argv (default 4): the parallel side of the
/// serial-vs-parallel comparison.
fn threads_arg() -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

/// `--json PATH` from argv: where to write the machine-readable speedup
/// report (`None` = don't).
fn json_arg() -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn speedup(scale: Scale) {
    let threads = threads_arg();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("\n## E-SPEED — serial vs parallel query path\n");
    println!("same workload shapes as Table 2/3 and Fig. 5; serial = 1 thread,");
    println!(
        "parallel = {threads} threads (`--threads N` to change); results checked bit-identical."
    );
    println!("wall-clock speedup is capped by available cores ({cores} here);");
    println!("expect >=1.5x at 4 threads on a 4-core machine, ~1x on 1 core\n");
    println!(
        "| workload | graphs | queries | cores | serial (s) | parallel (s) | speedup | identical |"
    );
    println!("|---|---|---|---|---|---|---|---|");
    let parallel_rows = run_speedup(seed(), scale, threads, 4);
    for r in &parallel_rows {
        println!(
            "| {} | {} | {} | {} | {:.3} | {:.3} | {:.2}x | {} |",
            r.workload,
            r.graphs,
            r.queries,
            r.cores,
            r.serial_secs,
            r.parallel_secs,
            r.speedup(),
            if r.identical { "yes" } else { "NO" }
        );
    }

    println!("\n## E-BATCH — query_batch vs sequential queries\n");
    println!("Table 2-style workload of repeated query patterns; both passes run");
    println!("at {threads} threads with the result cache off, so the ratio isolates");
    println!("the batch engine's probe sharing and barrier-free fan-out. The warm");
    println!("row re-runs with the cache on: every query hits, zero disk probes.\n");
    let b = run_batch_speedup(seed(), scale, threads, 20);
    println!("| pass | queries | unique | disk probes | wall (s) | identical |");
    println!("|---|---|---|---|---|---|");
    println!(
        "| sequential | {} | {} | {} | {:.3} | — |",
        b.queries, b.queries, b.sequential_probes, b.sequential_secs
    );
    println!(
        "| batch | {} | {} | {} | {:.3} | {} |",
        b.queries,
        b.unique_queries,
        b.batch_probes_issued,
        b.batch_secs,
        if b.identical { "yes" } else { "NO" }
    );
    println!(
        "| warm cache | {} | 0 | {} | {:.3} | {} |",
        b.queries,
        b.warm_probes,
        b.warm_secs,
        if b.identical { "yes" } else { "NO" }
    );
    println!(
        "\nbatch speedup: {:.2}x; cache hits on warm pass: {}/{}",
        b.speedup, b.warm_cache_hits, b.queries
    );

    if let Some(path) = json_arg() {
        #[derive(serde::Serialize)]
        struct SpeedupReport {
            schema_version: u32,
            seed: u64,
            scale: f64,
            threads: usize,
            cores: usize,
            parallel: Vec<tale_bench::experiments::speedup::SpeedupRow>,
            batch: tale_bench::experiments::speedup::BatchSpeedupRow,
        }
        let report = SpeedupReport {
            schema_version: 2,
            seed: seed(),
            scale: scale.0,
            threads,
            cores,
            parallel: parallel_rows,
            batch: b,
        };
        write_json(&path, &report, "speedup report");
    }
}

/// Serializes `report` to `path` atomically (temp file + fsync + rename,
/// so an interrupted run never leaves a torn report), exiting non-zero on
/// failure (both report writers share the BENCH JSON contract checked by
/// CI).
fn write_json<T: serde::Serialize>(path: &str, report: &T, what: &str) {
    match serde_json::to_string_pretty(report) {
        Ok(s) => {
            let bytes = s + "\n";
            if let Err(e) =
                tale_storage::atomic::write_atomic(std::path::Path::new(path), bytes.as_bytes())
            {
                eprintln!("writing {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("# wrote {path}");
        }
        Err(e) => {
            eprintln!("serializing {what}: {e}");
            std::process::exit(1);
        }
    }
}

/// `--shard-json PATH` from argv: where to write `BENCH_shard.json`
/// (`None` = don't).
fn shard_json_arg() -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--shard-json")
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn shard(scale: Scale) {
    let threads = threads_arg();
    println!("\n## E-SHARD — partitioned index build + scatter/gather queries\n");
    println!("Table 2-style PIN corpus, hash placement; each shard bulk-loads its");
    println!("own B+-tree concurrently, then the scatter/gather executor answers");
    println!("the same query workload. Results are checked bit-identical to the");
    println!("single-index path at every shard count. Build speedup is capped by");
    println!("available cores; expect >=1.5x at 4 shards on a 4-core machine,");
    println!("~1x on 1 core.\n");
    let r = run_shard(seed(), scale, threads, &[1, 2, 4]);
    println!(
        "db: {} graphs; {} queries; {} cores; single-index build {:.3}s\n",
        r.graphs, r.queries, r.cores, r.single_build_secs
    );
    println!(
        "| shards | build (s) | slowest shard (s) | build skew | build speedup | query (s) | query skew | identical |"
    );
    println!("|---|---|---|---|---|---|---|---|");
    for row in &r.rows {
        println!(
            "| {} | {:.3} | {:.3} | {:.2} | {:.2}x | {:.3} | {:.2} | {} |",
            row.shards,
            row.build_secs,
            row.max_shard_build_secs,
            row.build_skew,
            row.build_speedup,
            row.query_secs,
            row.query_shard_skew,
            if row.identical { "yes" } else { "NO" }
        );
    }
    if let Some(path) = shard_json_arg() {
        write_json(&path, &r, "shard report");
    }
}

/// `--serve-json PATH` from argv: where to write `BENCH_serve.json`
/// (`None` = don't).
fn serve_json_arg() -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--serve-json")
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// `--qps F` / `--requests N` from argv: the offered load for E-SERVE.
fn load_args() -> (f64, usize) {
    let args: Vec<String> = std::env::args().collect();
    let qps = args
        .iter()
        .position(|a| a == "--qps")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(25.0);
    let requests = args
        .iter()
        .position(|a| a == "--requests")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(100);
    (qps, requests)
}

fn serve_exp(scale: Scale) {
    let (qps, requests) = load_args();
    println!("\n## E-SERVE — the networked service under open-loop Poisson load\n");
    println!("real loopback deployment: one tale-server worker per shard plus a");
    println!("scatter/gather frontend, all over the versioned TCP wire protocol.");
    println!("Arrivals are open-loop Poisson (`--qps F`, `--requests N`), so");
    println!("queueing shows up in the latency tail instead of throttling the");
    println!("generator. Served answers are checked bit-identical to the");
    println!("in-process sharded database; sheds are explicit `overloaded`");
    println!("refusals, never silent drops.\n");
    let r = run_serve(seed(), scale, 2, qps, requests);
    println!(
        "db: {} graphs on {} shards; {} distinct queries; {} cores\n",
        r.graphs, r.shards, r.queries, r.cores
    );
    println!("| offered qps | achieved qps | ok | shed | failed | p50 (ms) | p99 (ms) | max (ms) | identical |");
    println!("|---|---|---|---|---|---|---|---|---|");
    println!(
        "| {:.1} | {:.1} | {} | {} | {} | {:.2} | {:.2} | {:.2} | {} |",
        r.target_qps,
        r.achieved_qps,
        r.ok,
        r.shed,
        r.failed,
        r.p50_ms,
        r.p99_ms,
        r.max_ms,
        if r.identical { "yes" } else { "NO" }
    );
    println!(
        "\nfrontend: {} conns accepted, {} requests shed, queue HWM {}, {} B in / {} B out",
        r.frontend.conns_accepted,
        r.frontend.requests_shed,
        r.frontend.queue_depth_hwm,
        r.frontend.bytes_in,
        r.frontend.bytes_out
    );
    for (i, w) in r.workers.iter().enumerate() {
        println!(
            "worker {i}: {} queries, inflight HWM {}, {} B in / {} B out",
            w.requests_query, w.inflight_hwm, w.bytes_in, w.bytes_out
        );
    }
    if let Some(path) = serve_json_arg() {
        write_json(&path, &r, "serve report");
    }
}

/// `--chaos-json PATH` from argv: where to write `BENCH_chaos.json`
/// (`None` = don't).
fn chaos_json_arg() -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--chaos-json")
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// `--fault-rate F` / `--requests N` from argv: the injected weather
/// and the load for E-CHAOS.
fn chaos_args() -> (f64, usize) {
    let args: Vec<String> = std::env::args().collect();
    let rate = args
        .iter()
        .position(|a| a == "--fault-rate")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.05);
    let requests = args
        .iter()
        .position(|a| a == "--requests")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(400);
    (rate, requests)
}

fn chaos_exp(scale: Scale) {
    let (rate, requests) = chaos_args();
    println!("\n## E-CHAOS — availability under injected network faults\n");
    println!("same loopback deployment as E-SERVE but with two replica workers per");
    println!(
        "shard, every replica behind a TCP chaos proxy that faults {:.0}% of",
        rate * 100.0
    );
    println!("connections (refuse / black-hole / delay / kill mid-frame / truncate /");
    println!("corrupt; `--fault-rate F`, `--requests N`). Transports pool nothing, so");
    println!("the rate is per call. The replica sets must mask every fault by retry,");
    println!("failover, or hedging: surviving answers are checked bit-identical to");
    println!("the in-process database, failures must be typed errors, and a wrong");
    println!("answer counts as worse than an error.\n");
    let r = run_chaos(seed(), scale, 2, 2, rate, requests);
    println!(
        "db: {} graphs on {} shards x {} replicas; {} distinct queries\n",
        r.graphs, r.shards, r.replicas_per_shard, r.queries
    );
    println!("| fault rate | requests | ok | typed errors | unclassified | wrong | availability | p50 (ms) | p99 (ms) | max (ms) | identical |");
    println!("|---|---|---|---|---|---|---|---|---|---|---|");
    let typed: usize = r.errors.iter().map(|e| e.count).sum();
    println!(
        "| {:.1}% | {} | {} | {} | {} | {} | {:.2}% | {:.2} | {:.2} | {:.2} | {} |",
        r.fault_rate * 100.0,
        r.requests,
        r.ok,
        typed,
        r.unclassified,
        r.wrong_answers,
        r.availability * 100.0,
        r.p50_ms,
        r.p99_ms,
        r.max_ms,
        if r.identical { "yes" } else { "NO" }
    );
    println!(
        "\nweather: {} faults injected over {} proxied connections",
        r.faults_injected, r.proxy_connections
    );
    println!(
        "masking: {} retries, {} hedges fired ({} won), {} failovers, {} replica failures, {} breaker opens",
        r.frontend.retries,
        r.frontend.hedges_fired,
        r.frontend.hedges_won,
        r.frontend.failovers,
        r.frontend.replica_failures,
        r.frontend.breaker_opened
    );
    for e in &r.errors {
        println!("typed `{}`: {}", e.code, e.count);
    }
    if let Some(path) = chaos_json_arg() {
        write_json(&path, &r, "chaos report");
    }
}

/// `--plan-json PATH` from argv: where to write `BENCH_plan.json`
/// (`None` = don't).
fn plan_json_arg() -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--plan-json")
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn plan(scale: Scale) {
    let threads = threads_arg();
    println!("\n## E-PLAN — cost-based planning vs the fixed pipeline\n");
    println!("skewed corpus of label domains with private vocabularies, 4 shards");
    println!("under label-clustered placement; the same top-K workload runs twice");
    println!("with the result cache off — fixed pipeline vs cost-based plans");
    println!("(selectivity-ordered probes, readahead budgets, provably-safe shard");
    println!("pruning). Answers are checked bit-identical; only traffic may change.\n");
    let r = run_plan(seed(), scale, threads, 4);
    println!(
        "db: {} graphs in {} domains; {} queries; top-{}; {} shards; {} threads; {} cores\n",
        r.graphs, r.domains, r.queries, r.top_k, r.shards, r.threads, r.cores
    );
    println!(
        "| pass | probes | keys | postings | rows | shards pruned | reordered | wall (s) | identical |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    for row in [&r.fixed, &r.cost] {
        println!(
            "| {} | {} | {} | {} | {} | {} | {} | {:.3} | {} |",
            row.mode,
            row.probes_issued,
            row.keys_scanned,
            row.postings_fetched,
            row.rows_examined,
            row.shards_pruned,
            row.probes_reordered,
            row.wall_secs,
            if r.identical { "yes" } else { "NO" }
        );
    }
    println!(
        "\nprobe traffic: {} → {} ({:.1}% saved); {} (query, shard) executions pruned",
        r.fixed.probes_issued,
        r.cost.probes_issued,
        if r.fixed.probes_issued == 0 {
            0.0
        } else {
            100.0 * (r.fixed.probes_issued - r.cost.probes_issued) as f64
                / r.fixed.probes_issued as f64
        },
        r.cost.shards_pruned
    );
    if let Some(path) = plan_json_arg() {
        write_json(&path, &r, "plan report");
    }
}

/// `--cold-json PATH` from argv: where to write `BENCH_cold.json`
/// (`None` = don't).
fn cold_json_arg() -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--cold-json")
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// `--read-latency-us N` from argv (default 8000 — a classic HDD seek):
/// the simulated per-read device latency the E-COLD sweep applies to
/// every measured cell.
fn read_latency_arg() -> u64 {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--read-latency-us")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(8000)
}

fn cold(scale: Scale) {
    let latency_us = read_latency_arg();
    println!("\n## E-COLD — larger-than-RAM read path under shrinking buffer pools\n");
    println!("wide PIN corpus (256 small graphs); each cell reopens the on-disk");
    println!("index cold (empty pools, result cache off) and runs the whole query");
    println!("workload as one batch. Reads carry a simulated {latency_us}µs device");
    println!("latency (`--read-latency-us N`, default a classic HDD seek) so");
    println!("tempfile-backed page-cache hits don't hide the I/O cost being");
    println!("measured. Answers are checked bit-identical to an unbounded-pool");
    println!("serial reference at every pool size — the threaded speedup comes");
    println!("from overlapping I/O waits, so it holds on 1 core.\n");
    let r = run_cold(seed(), scale, latency_us);
    println!(
        "db: {} graphs; {} queries; index {:.2} MB = {} pages; {} cores\n",
        r.graphs,
        r.queries,
        r.index_bytes as f64 / 1e6,
        r.index_pages,
        r.cores
    );
    println!(
        "| pool | frames | threads | layout | cold batch (s) | hits | coalesced | misses | prefetched | issued | used | identical |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|---|---|");
    for c in &r.rows {
        println!(
            "| {:.0}% | {} | {} | {} | {:.3} | {} | {} | {} | {} | {} | {} | {} |",
            c.pool_frac * 100.0,
            c.pool_pages,
            c.threads,
            if c.sharded { "4 shards" } else { "single" },
            c.query_secs,
            c.pool_hits,
            c.pool_coalesced,
            c.pool_misses,
            c.pool_prefetched,
            c.prefetch_issued,
            c.prefetch_used,
            if c.identical { "yes" } else { "NO" }
        );
    }
    println!(
        "\ncold 4-thread speedup at the 10% pool: {:.2}x (wall-clock ratio of the",
        r.speedup_4t_at_10pct
    );
    println!("1-thread and 4-thread cells; >1 means reads genuinely overlapped)");
    if let Some(path) = cold_json_arg() {
        write_json(&path, &r, "cold report");
    }
}

/// `--mvcc-json PATH` from argv: where to write `BENCH_mvcc.json`
/// (`None` = don't).
fn mvcc_json_arg() -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--mvcc-json")
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn mvcc(scale: Scale) {
    let threads = threads_arg();
    println!("\n## E-MVCC — query latency during a background fold\n");
    println!("Table 2-style PIN corpus with a delta overlay of unfolded inserts;");
    println!("one pass measures per-query latency on a quiet system, the next");
    println!("measures it while the index folds the delta into a new on-disk");
    println!("generation in the background. `fold wall` is the stall an");
    println!("exclusive-lock design would impose on every query in its window;");
    println!("with MVCC generations the worst query should pay a small fraction");
    println!("of it. Answers are checked bit-identical throughout (a fold");
    println!("changes representation, never contents).\n");
    let r = run_mvcc(seed(), scale, threads);
    println!(
        "db: {} graphs + {} delta; {} queries/pass; {} threads; {} cores\n",
        r.graphs, r.delta_graphs, r.queries, r.threads, r.cores
    );
    println!("| phase | queries | p50 (ms) | p99 (ms) | max (ms) | identical |");
    println!("|---|---|---|---|---|---|");
    println!(
        "| quiet system | {} | {:.3} | {:.3} | - | yes |",
        r.queries, r.baseline_p50_ms, r.baseline_p99_ms
    );
    println!(
        "| during fold | {} | {:.3} | {:.3} | {:.3} | {} |",
        r.queries_during_fold,
        r.during_p50_ms,
        r.during_p99_ms,
        r.during_max_ms,
        if r.identical { "yes" } else { "NO" }
    );
    println!(
        "\nfold wall: {:.3}s; the worst during-fold query paid {:.1}% of the",
        r.fold_secs,
        r.worst_query_vs_stall * 100.0
    );
    println!("stall an exclusive-lock fold would have imposed on it");
    if let Some(path) = mvcc_json_arg() {
        write_json(&path, &r, "mvcc report");
    }
}

/// E-CRASH: fails every gated I/O operation of every durable mutation in
/// turn and checks recovery lands bit-identically on the pre- or post-op
/// state. Needs the fault-injection shim (`--features failpoints`).
#[cfg(feature = "failpoints")]
fn crash() {
    println!("\n## E-CRASH — crash-safety torture sweep\n");
    println!("every gated I/O operation of every durable mutation is failed in");
    println!("turn; the reopened index must answer queries bit-identically to the");
    println!("pre-mutation or post-mutation state — never anything in between;");
    println!("an in-place compaction may instead be refused with a typed rebuild error\n");
    println!("| mutation | fault points | rolled back | committed | refused | bit-identical |");
    println!("|---|---|---|---|---|---|");
    let rows = tale_bench::experiments::crash::run_crash();
    let mut failed = false;
    for r in &rows {
        println!(
            "| {} | {} | {} | {} | {} | {} |",
            r.mutation,
            r.fault_points,
            r.rolled_back,
            r.committed,
            r.refused,
            if r.identical { "yes" } else { "NO" }
        );
        failed |= !r.identical;
    }
    if failed {
        eprintln!("\ncrash sweep found a corrupted-but-served state");
        std::process::exit(1);
    }
}

#[cfg(not(feature = "failpoints"))]
fn crash() {
    eprintln!("the crash harness drives the storage fault-injection shim;");
    eprintln!(
        "rebuild with: cargo run -p tale-bench --features failpoints --bin experiments -- crash"
    );
    std::process::exit(2);
}

/// `--probe-json PATH` from argv: where to write `BENCH_probe.json`
/// (`None` = don't).
fn probe_json_arg() -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--probe-json")
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn probe(scale: Scale) {
    println!("\n## E-PROBE — SIMD probe kernel + label-pair pre-filter\n");
    println!("kernel grid: Algorithm 1 on random bitmaps, every available kernel");
    println!("vs the naive per-row scan, every timed query first checked identical");
    println!("across all of them. Filter: every node of a skewed domain corpus");
    println!("probes itself back at each rho, once with the label-pair pre-filter");
    println!("on (the default) and once off; skips happen before any blob fetch");
    println!("and may change traffic, never answers.\n");
    let r = run_probe(seed(), scale);
    println!(
        "kernels: {} (active: {}); all identical to oracle: {}\n",
        r.kernels.join(", "),
        r.active_kernel,
        if r.kernels_identical { "yes" } else { "NO" }
    );
    println!("| bitmap rows | kernel | probe (ns) | naive (ns) | speedup |");
    println!("|---|---|---|---|---|");
    for k in &r.kernel_rows {
        println!(
            "| {} | {} | {:.0} | {:.0} | {:.1}x |",
            k.rows, k.kernel, k.ns, k.naive_ns, k.speedup_vs_naive
        );
    }
    match r.simd_vs_scalar {
        Some(s) => println!(
            "\nat 32768 rows: SIMD beats scalar {s:.2}x, bit-sliced beats naive {:.1}x",
            r.bitsliced_vs_naive
        ),
        None => println!(
            "\nno SIMD kernel on this host; bit-sliced beats naive {:.1}x",
            r.bitsliced_vs_naive
        ),
    }
    println!(
        "\nfilter corpus: {} graphs in {} domains; {} signatures x rho {:?}\n",
        r.graphs, r.domains, r.queries, r.rhos
    );
    println!(
        "| pass | keys | postings fetched | postings filtered | rows | wall (s) | identical |"
    );
    println!("|---|---|---|---|---|---|---|");
    for row in [&r.filter_on, &r.filter_off] {
        println!(
            "| filter {} | {} | {} | {} | {} | {:.3} | {} |",
            if row.filter { "on " } else { "off" },
            row.keys_scanned,
            row.postings_fetched,
            row.postings_filtered,
            row.rows_examined,
            row.wall_secs,
            if r.identical { "yes" } else { "NO" }
        );
    }
    println!(
        "\nskip fraction: {:.1}% of surviving-key postings never fetched",
        r.skip_fraction * 100.0
    );
    if let Some(path) = probe_json_arg() {
        write_json(&path, &r, "probe report");
    }
}

fn alg1() {
    println!("\n## E-ALG1 — Algorithm 1 vs naive bitmap probe (§IV-D)\n");
    println!("paper: speedup 2x (16 rows) rising past 12x (32768 rows)\n");
    println!("| bitmap rows | bit-sliced (ns) | naive (ns) | speedup |");
    println!("|---|---|---|---|");
    for r in run_alg1(seed(), 50) {
        println!(
            "| {} | {:.0} | {:.0} | {:.1}x |",
            r.rows, r.bitsliced_ns, r.naive_ns, r.speedup
        );
    }
}

fn table1(scale: Scale) {
    println!("\n## E-T1 — Table I: PIN sizes\n");
    let (rows, _) = run_table1(seed(), scale);
    println!("| species | paper nodes | paper edges | generated nodes | generated edges |");
    println!("|---|---|---|---|---|");
    for r in rows {
        println!(
            "| {} | {} | {} | {} | {} |",
            r.species, r.paper_nodes, r.paper_edges, r.nodes, r.edges
        );
    }
    if scale.0 < 1.0 {
        println!(
            "\n(scaled by {}; run with TALE_SCALE=1.0 for paper sizes)",
            scale.0
        );
    }
}

fn table2(scale: Scale) {
    println!("\n## E-T2 — Table II: effectiveness for comparing PINs\n");
    println!("paper: TALE 6 hits/3.2% in 0.3s vs Graemlin 0 hits in 910s (rat);");
    println!("TALE 42 hits/13.6% in 0.8s vs Graemlin 18 hits/5.0% in 16305.5s (mouse)\n");
    let (_, pins) = run_table1(seed(), scale);
    let (rows, index_secs) = run_table2(&pins, scale);
    println!("index build on species db: {index_secs:.2}s (paper: ~1s for human PIN)\n");
    println!("| pair | method | KEGGs hit | evaluated | coverage | time (s) |");
    println!("|---|---|---|---|---|---|");
    for r in rows {
        println!(
            "| {} | {} | {} | {} | {:.1}% | {:.3} |",
            r.pair,
            r.method,
            r.kegg_hits,
            r.evaluated,
            r.coverage * 100.0,
            r.seconds
        );
    }
}

fn table3_fig6(scale: Scale) {
    let r = run_table3_fig6(seed(), scale);
    println!("\n## E-T3 — Table III: BIND sub-datasets D1–D4\n");
    println!("paper: 1.4/2.9/4.5/5.7 MB indexes built in 13.2/31.1/50.4/62.7s (near-linear)\n");
    println!("| dataset | graphs | avg nodes | avg edges | index size | build time (s) |");
    println!("|---|---|---|---|---|---|");
    for t in &r.table3 {
        println!(
            "| {} | {} | {:.1} | {:.1} | {:.2} MB | {:.2} |",
            t.dataset,
            t.graphs,
            t.avg_nodes,
            t.avg_edges,
            t.index_bytes as f64 / 1e6,
            t.build_secs
        );
    }
    println!("\n## E-F6 — Figure 6: query time on D1–D4\n");
    println!("paper: all queries ≤ ~0.7s, near-linear growth with db size\n");
    println!("| query | nodes | edges | D1 (s) | D2 (s) | D3 (s) | D4 (s) | results on D4 |");
    println!("|---|---|---|---|---|---|---|---|");
    for q in 1..=10 {
        let cells: Vec<_> = r.fig6.iter().filter(|c| c.query == q).collect();
        if cells.is_empty() {
            continue;
        }
        let by_ds = |d: usize| {
            cells
                .iter()
                .find(|c| c.dataset == d)
                .map(|c| format!("{:.3}", c.seconds))
                .unwrap_or_else(|| "-".into())
        };
        let last = cells.iter().find(|c| c.dataset == 3);
        println!(
            "| Q{} | {} | {} | {} | {} | {} | {} | {} |",
            q,
            cells[0].query_nodes,
            cells[0].query_edges,
            by_ds(0),
            by_ds(1),
            by_ds(2),
            by_ds(3),
            last.map(|c| c.results).unwrap_or(0)
        );
    }
}

fn fig5(scale: Scale) {
    println!("\n## E-F5 — Figure 5: precision/recall, TALE vs C-Tree (ASTRAL)\n");
    println!("paper: both precise until recall ≈0.6, plateau ≈0.8; TALE ~2x faster");
    println!("(34.8s vs 61.9s avg per 20 queries)\n");
    let r = run_fig5(seed(), scale, 20);
    println!(
        "db: {} graphs; {} queries; avg query time TALE {:.3}s vs C-Tree {:.3}s\n",
        r.graphs, r.queries, r.tale_secs, r.ctree_secs
    );
    println!("| k | TALE precision | TALE recall | C-Tree precision | C-Tree recall |");
    println!("|---|---|---|---|---|");
    for (t, c) in r.tale_curve.iter().zip(r.ctree_curve.iter()) {
        println!(
            "| {} | {:.3} | {:.3} | {:.3} | {:.3} |",
            t.k, t.precision, t.recall, c.precision, c.recall
        );
    }
}

fn fig789(scale: Scale) {
    println!("\n## E-F7/F8/F9 — Figures 7–9: ASTRAL scalability\n");
    println!("paper: build time and index size grow steadily/linearly; query time scales nicely\n");
    let sizes = default_sizes(scale);
    let rows = run_fig789(seed(), &sizes, 20);
    println!("| graphs | build time (s) [Fig7] | index size (MB) [Fig8] | avg query (s) [Fig9] |");
    println!("|---|---|---|---|");
    for r in rows {
        println!(
            "| {} | {:.2} | {:.2} | {:.3} |",
            r.graphs,
            r.build_secs,
            r.index_bytes as f64 / 1e6,
            r.query_secs
        );
    }
}

fn saga(scale: Scale) {
    println!("\n## E-SAGA — §II: SAGA vs TALE across query sizes\n");
    println!("paper: \"SAGA is very efficient for small graph queries, [but]");
    println!("computationally expensive when applied to large graphs\"\n");
    let rows = run_saga(seed(), scale, &[15, 40, 100, 250, 600]);
    println!("| query nodes | query fragments | SAGA (s) | TALE (s) |");
    println!("|---|---|---|---|");
    for r in rows {
        println!(
            "| {} | {} | {:.3} | {:.3} |",
            r.query_nodes, r.query_fragments, r.saga_secs, r.tale_secs
        );
    }
}

fn kegg(scale: Scale) {
    println!("\n## E-KEGG — §VI-A: the third dataset (KEGG pathways)\n");
    println!("paper: \"results … similar to the other two datasets\" (omitted there)\n");
    let r = run_kegg(seed(), scale, 20);
    println!(
        "db: {} directed pathway graphs; index {:.2} MB built in {:.2}s; avg query {:.3}s\n",
        r.graphs,
        r.index_bytes as f64 / 1e6,
        r.build_secs,
        r.query_secs
    );
    println!("| k | precision | recall |");
    println!("|---|---|---|");
    for p in &r.curve {
        println!("| {} | {:.3} | {:.3} |", p.k, p.precision, p.recall);
    }
}

fn pimp(scale: Scale) {
    println!("\n## E-PIMP — Pimp sensitivity (extended-paper parameter study)\n");
    println!("paper: Pimp fixed at 15% for BIND; choice deferred to extended version\n");
    let (_, pins) = run_table1(seed(), scale);
    let rows = run_pimp(&pins, scale, &default_fractions());
    println!("| Pimp | matched nodes | matched edges | time (s) |");
    println!("|---|---|---|---|");
    for r in rows {
        println!(
            "| {:.0}% | {} | {} | {:.3} |",
            r.p_imp * 100.0,
            r.matched_nodes,
            r.matched_edges,
            r.seconds
        );
    }
}

fn ablation(scale: Scale) {
    println!("\n## E-ABL — §VI-D: TALE vs TALE-Random (mouse vs human)\n");
    println!("paper: 106/61/42/13.6% (degree) vs 85/24/8/5.8% (random)\n");
    let (_, pins) = run_table1(seed(), scale);
    let rows = run_ablation(&pins, scale, &paper_measures());
    println!("| importance | matched nodes | matched edges | KEGGs hit | coverage | time (s) |");
    println!("|---|---|---|---|---|---|");
    for r in rows {
        println!(
            "| {} | {} | {} | {} | {:.1}% | {:.3} |",
            r.measure,
            r.matched_nodes,
            r.matched_edges,
            r.kegg_hits,
            r.coverage * 100.0,
            r.seconds
        );
    }
}
