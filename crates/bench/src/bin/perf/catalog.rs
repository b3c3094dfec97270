//! The names the benchmark reports, in one place: workloads, end-to-end
//! metrics with their regression bounds, and per-layer metrics with the
//! end-to-end metric and workload each is expected to move. A test holds
//! `BENCHMARK.json` at the repository root to this list.

use serde::{Number, Value};

pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadInfo] = &[
    WorkloadInfo {
        name: "astral_topk",
        why: "Fig. 5 top-20 retrieval over 160 twenty-label contact maps: every graph is a candidate of every query, so per-graph anchor, grow and re-anchor fan-out on all cores is the cost",
    },
    WorkloadInfo {
        name: "pin_align",
        why: "Table 2/3 alignment of 210 noisy 60-180-node sub-networks into 24 PINs of up to 8470 nodes, one thread, buffer pool a tenth of the index: the one workload bigger than the program's cache",
    },
    WorkloadInfo {
        name: "kegg_mutate_mix",
        why: "pathway queries beside insert, remove and fold with the result cache on: the only user of journal, delta overlay, fold and generation-keyed cache, a third of its time in mutations",
    },
    WorkloadInfo {
        name: "served_lookup",
        why: "30-node look-ups through frontend and two shard workers over loopback TCP, a new connection per request: wire, handler threads and scatter/gather outweigh the engine",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    pub what: &'static str,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "query_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.15,
        what: "median over the queries of a pass of each query's latency, itself a median over the passes",
    },
    EndToEnd {
        name: "query_p90_ms",
        unit: "ms",
        better: "lower",
        bound: 0.15,
        what: "90th percentile (nearest rank) of the same per-query latencies",
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.15,
        what: "median over passes of ops in the pass / summed op time, mutations and fold included",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.15,
        what: "median of three fresh set-ups, each build (+ reopen, or shard build and server start) + every operation once",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.08,
        what: "VmHWM of the benchmark process at the end of the run",
    },
    EndToEnd {
        name: "index_bytes_per_node",
        unit: "B",
        better: "lower",
        bound: 0.005,
        what: "on-disk index size / indexed nodes",
    },
    EndToEnd {
        name: "match_quality",
        unit: "ratio",
        better: "higher",
        bound: 0.01,
        what: "family precision@10 without the self match (astral, kegg), share of query nodes the top result maps to their origin (pin), share of served answers bit-identical to in-process (served)",
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// End-to-end metric it should move, and on which workload.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

const MATCHING: &str = "query_p50_ms, ops_per_s on astral_topk, pin_align";
const STAGES: &str = "query_p50_ms on the in-process workloads";
const FIXED: &str = "query_p50_ms on served_lookup (fixed per-query cost)";
const PROBE: &str = "query_p50_ms on served_lookup, pin_align (at most 2 % today)";
const POOL: &str = "query_p90_ms on pin_align (hit rate about 1 elsewhere)";
const SETUP: &str = "setup_s, index_bytes_per_node on all";
const MUTATE: &str = "ops_per_s on kegg_mutate_mix";
const SERVER: &str = "query_p50_ms, ops_per_s on served_lookup";

pub const PER_LAYER: &[PerLayer] = &[
    layer("matching.grow_ms", "ms", "lower", MATCHING),
    layer("matching.grow_us_per_pair", "us", "lower", MATCHING),
    layer("matching.anchor_ms", "ms", "lower", MATCHING),
    layer("matching.anchor_graphs", "count", "lower", MATCHING),
    layer("matching.kept_frac", "ratio", "higher", MATCHING),
    layer("tale.stage_plan_ms", "ms", "lower", STAGES),
    layer("tale.stage_probe_ms", "ms", "lower", STAGES),
    layer("tale.stage_match_ms", "ms", "lower", STAGES),
    layer("tale.stage_rank_ms", "ms", "lower", STAGES),
    layer("tale.residual_frac", "ratio", "lower", STAGES),
    layer(
        "par.speedup_nproc",
        "ratio",
        "higher",
        "ops_per_s on astral_topk",
    ),
    layer("graph.select_important_us", "us", "lower", FIXED),
    layer("tale.plan_us", "us", "lower", FIXED),
    layer("tale.plan_est_rows_ratio", "ratio", "lower", FIXED),
    layer("nhindex.signature_us", "us", "lower", PROBE),
    layer("nhindex.probe_ms", "ms", "lower", PROBE),
    layer("nhindex.probes", "count", "lower", PROBE),
    layer("nhindex.keys_scanned", "count", "lower", PROBE),
    layer("nhindex.postings_fetched", "count", "lower", PROBE),
    layer("nhindex.postings_filtered_frac", "ratio", "higher", PROBE),
    layer("nhindex.rows_examined", "count", "lower", PROBE),
    layer("nhindex.candidates_per_row", "ratio", "higher", PROBE),
    layer("nhindex.bitprobe_ns_per_row", "ns", "lower", PROBE),
    layer("storage.pool_hit_rate", "ratio", "higher", POOL),
    layer("storage.pool_misses", "count", "lower", POOL),
    layer("storage.pool_prefetched", "count", "higher", POOL),
    layer("storage.prefetch_used_frac", "ratio", "higher", POOL),
    layer(
        "storage.pool_frames_over_index_pages",
        "ratio",
        "lower",
        POOL,
    ),
    layer("nhindex.build_ms", "ms", "lower", SETUP),
    layer("nhindex.open_ms", "ms", "lower", SETUP),
    layer("tale.insert_ms", "ms", "lower", MUTATE),
    layer("tale.remove_ms", "ms", "lower", MUTATE),
    layer("nhindex.fold_ms", "ms", "lower", MUTATE),
    layer("tale.cache_hit_rate", "ratio", "higher", MUTATE),
    layer("nhindex.delta_graphs_at_query", "count", "lower", MUTATE),
    layer("shard.inproc_p50_ms", "ms", "lower", SERVER),
    layer("shard.skew", "ratio", "lower", SERVER),
    layer("server.overhead_ms", "ms", "lower", SERVER),
    layer("server.local_transport_p50_ms", "ms", "lower", SERVER),
    layer("server.connect_us", "us", "lower", SERVER),
    layer("server.wire_encode_req_us", "us", "lower", SERVER),
    layer("server.wire_decode_resp_us", "us", "lower", SERVER),
    layer("server.req_bytes", "B", "lower", SERVER),
    layer("server.resp_bytes", "B", "lower", SERVER),
    layer("server.shed", "count", "lower", SERVER),
    layer("server.retries", "count", "lower", SERVER),
    layer(
        "trace.overhead_frac",
        "ratio",
        "lower",
        "none: cost of the traced run itself",
    ),
];

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}

/// How the driver runs the benchmark: from the root of a checkout, this
/// package built from its own manifest.
const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "crates/bench/src/bin/perf/Cargo.toml",
    "--",
];
const PATHS: &[&str] = &["crates/bench/src/bin/perf"];
/// Seconds one run measures.
pub const RUN_SECONDS: u32 = 20;

/// A JSON object from `(key, value)` pairs, in that order.
pub fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> Value {
    let text = |s: &str| Value::String(s.into());
    let texts = |items: &[&str]| Value::Array(items.iter().map(|s| text(s)).collect());
    object(vec![
        ("command", texts(COMMAND)),
        ("paths", texts(PATHS)),
        (
            "run_seconds",
            Value::Number(Number::Int(i64::from(RUN_SECONDS))),
        ),
        (
            "workloads",
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|w| object(vec![("name", text(w.name)), ("why", text(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(
                END_TO_END
                    .iter()
                    .map(|m| {
                        object(vec![
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better)),
                            ("bound", Value::Number(Number::Float(m.bound))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Array(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        object(vec![
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what the driver reads; this list is what the
    /// binary prints. `perf benchmark-json` writes the one from the other.
    #[test]
    fn benchmark_json_matches_catalog() {
        let text = include_str!("../../../../../BENCHMARK.json");
        let doc: Value = serde_json::from_str(text).expect("BENCHMARK.json parses");
        assert_eq!(
            doc,
            benchmark_json(),
            "regenerate with `perf benchmark-json`"
        );
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut all: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        all.extend(END_TO_END.iter().map(|m| m.name));
        all.extend(PER_LAYER.iter().map(|m| m.name));
        let mut seen = std::collections::HashSet::new();
        for n in &all {
            assert!(seen.insert(*n), "{n} used twice");
            assert!(n.len() <= 64 && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        assert_eq!(unit_of("query_p50_ms"), Some("ms"));
        assert_eq!(unit_of("server.resp_bytes"), Some("B"));
        assert_eq!(unit_of("nope"), None);
    }
}
