//! Per-layer measurement for the traced run: the program's own
//! `QueryStats`, and a replay of the layers from outside through their
//! public functions — importance selection, signatures, index probe,
//! Hungarian anchoring, `grow_match`, ranking — each inside a span.
//!
//! The replay is the engine's pipeline without what is private to the
//! engine (`tale::engine::grow::match_one_graph`'s conservation-aware
//! anchor refinement and residual re-anchoring rounds, signature dedup,
//! cache keys, merging, result clones); `tale.residual_frac` is the share
//! of the serial end-to-end time those leave unexplained. Nothing of the
//! engine is re-implemented here, so every span times the program's code.

use crate::run::beat;
use crate::stats::{self, ratio};
use crate::trace::Tracer;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::time::Instant;
use tale::engine::exec;
use tale::{QueryMatch, QueryOptions, QueryStats, TaleParams};
use tale_graph::centrality::select_important_covering;
use tale_graph::{Graph, GraphDb, GraphId, NodeId};
use tale_matching::bipartite::{greedy_matching, max_weight_matching, WeightedEdge};
use tale_matching::grow::{grow_match, Anchor, GrowConfig, GrowInput};
use tale_matching::similarity::MatchContext;
use tale_nhindex::bitprobe::{active_kernel, probe_bitsliced};
use tale_nhindex::{node_match_quality, ColumnBitmap, IndexReader, NhIndexConfig, QuerySignature};

/// Per-layer metric values by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// The index configuration `TaleDatabase::build` derives from `params`.
pub fn index_config(params: &TaleParams) -> NhIndexConfig {
    NhIndexConfig {
        sbit: params.sbit,
        buffer_frames: params.buffer_frames,
        parallel_build: params.parallel_build,
        bloom_hashes: params.bloom_hashes,
        use_edge_labels: params.use_edge_labels,
        io_workers: params.io_workers,
        prefetch_pages: params.prefetch_pages,
    }
}

/// `nhindex.build_ms` and `nhindex.open_ms`: medians over five fresh
/// directories under `work`, each built and then opened once.
pub fn build_open_metrics<E: std::fmt::Display>(
    out: &mut Layers,
    tr: &mut Tracer,
    work: &Path,
    build: impl Fn(&Path) -> Result<(), E>,
    open: impl Fn(&Path) -> Result<(), E>,
) -> Result<(), String> {
    let (mut build_ms, mut open_ms) = (Vec::new(), Vec::new());
    for i in 0..5 {
        beat();
        let dir = work.join(format!("layer-build-{i}"));
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let t = Instant::now();
        tr.span("nhindex.build", |_| build(&dir))
            .map_err(|e| e.to_string())?;
        build_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        tr.span("nhindex.open", |_| open(&dir))
            .map_err(|e| e.to_string())?;
        open_ms.push(t.elapsed().as_secs_f64() * 1e3);
        std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    }
    out.insert("nhindex.build_ms", stats::median(&build_ms));
    out.insert("nhindex.open_ms", stats::median(&open_ms));
    Ok(())
}

/// Per-op means of the program's own statistics over the traced queries.
pub fn query_stats_metrics(out: &mut Layers, stats: &[QueryStats]) {
    let n = stats.len().max(1) as f64;
    let sum = |f: fn(&QueryStats) -> f64| stats.iter().map(f).sum::<f64>();
    out.insert("tale.stage_plan_ms", sum(|s| s.stages.plan_secs) * 1e3 / n);
    out.insert(
        "tale.stage_probe_ms",
        sum(|s| s.stages.probe_secs) * 1e3 / n,
    );
    out.insert(
        "tale.stage_match_ms",
        sum(|s| s.stages.match_secs) * 1e3 / n,
    );
    out.insert("tale.stage_rank_ms", sum(|s| s.stages.rank_secs) * 1e3 / n);
    out.insert("nhindex.probes", sum(|s| s.probes as f64) / n);
    out.insert("nhindex.keys_scanned", sum(|s| s.keys_scanned as f64) / n);
    out.insert(
        "nhindex.postings_fetched",
        sum(|s| s.postings_fetched as f64) / n,
    );
    let filtered = sum(|s| s.postings_filtered as f64);
    out.insert(
        "nhindex.postings_filtered_frac",
        ratio(filtered, filtered + sum(|s| s.postings_fetched as f64)),
    );
    let rows = sum(|s| s.rows_examined as f64);
    out.insert("nhindex.rows_examined", rows / n);
    out.insert(
        "nhindex.candidates_per_row",
        ratio(sum(|s| s.candidates as f64), rows),
    );
    let (hits, coalesced, misses, prefetched) = (
        sum(|s| s.pool.hits as f64),
        sum(|s| s.pool.coalesced as f64),
        sum(|s| s.pool.misses as f64),
        sum(|s| s.pool.prefetched as f64),
    );
    out.insert(
        "storage.pool_hit_rate",
        ratio(hits + coalesced, hits + coalesced + misses + prefetched),
    );
    out.insert("storage.pool_misses", misses / n);
    out.insert("storage.pool_prefetched", prefetched / n);
}

/// Counts the replay gathers beside its spans.
#[derive(Default)]
pub struct ReplayCounts {
    /// Candidate graphs that went through anchoring.
    pub anchor_graphs: u64,
    /// Graphs that kept an anchor and were grown.
    pub grown_graphs: u64,
    /// Node pairs committed by `grow_match`, over all grown graphs.
    pub grown_pairs: u64,
}

/// Replays one query's layers against `readers` (disjoint graph sets under
/// one scheme, as the engine requires), serially.
pub fn replay_query(
    tr: &mut Tracer,
    db: &GraphDb,
    readers: &[&dyn IndexReader],
    query: &Graph,
    opts: &QueryOptions,
    counts: &mut ReplayCounts,
) {
    let q_label = |n: NodeId| db.effective_of_raw(query.label(n));
    let important = tr.span("graph.select_important", |_| {
        select_important_covering(query, opts.importance, opts.p_imp)
    });
    let sigs: Vec<QuerySignature> = tr.span("nhindex.signature", |_| {
        important
            .iter()
            .map(|&n| readers[0].signature(query, n, &q_label))
            .collect()
    });

    // (important-node index, db node, Eq. IV.5 quality) per candidate graph
    let mut per_graph: BTreeMap<u32, Vec<(usize, u32, f64)>> = BTreeMap::new();
    for reader in readers {
        let probed = tr.span("nhindex.probe", |_| reader.probe_batch(&sigs, opts.rho, 1));
        let Ok(probed) = probed else { continue };
        tr.span("matching.anchor", |_| {
            for (ni, ((cands, _), sig)) in probed.iter().zip(&sigs).enumerate() {
                for c in cands {
                    let nbc_miss = sig.nb_connection.saturating_sub(c.db_nb_connection);
                    let w = node_match_quality(sig.degree, sig.nb_connection, c.nb_miss, nbc_miss);
                    per_graph
                        .entry(c.node.graph)
                        .or_default()
                        .push((ni, c.node.node, w));
                }
            }
        });
    }

    let grow_cfg = GrowConfig {
        rho: opts.rho,
        hops: opts.hops,
        match_edge_labels: opts.match_edge_labels,
    };
    let mut grown = Vec::new();
    for (&gid, hits) in &per_graph {
        let graph_id = GraphId(gid);
        let target = db.graph(graph_id);
        counts.anchor_graphs += 1;
        let anchors = tr.span("matching.anchor", |_| anchors_of(&important, hits));
        if anchors.is_empty() {
            continue;
        }
        let t_label = |n: NodeId| db.effective_label(graph_id, n);
        let input = GrowInput {
            query,
            target,
            q_label: &q_label,
            t_label: &t_label,
        };
        let m = tr.span("matching.grow", |_| grow_match(&input, &grow_cfg, &anchors));
        counts.grown_graphs += 1;
        counts.grown_pairs += m.pairs.len() as u64;
        if !m.pairs.is_empty() {
            grown.push((graph_id, m));
        }
    }

    std::hint::black_box(tr.span("tale.rank", |_| {
        let all = grown
            .into_iter()
            .map(|(graph, m)| {
                let target = db.graph(graph);
                let ctx = MatchContext {
                    query,
                    target,
                    m: &m,
                };
                let score = opts.similarity.score(&ctx);
                let matched_nodes = m.matched_nodes();
                let matched_edges = m.matched_edges(query, target);
                QueryMatch {
                    graph,
                    graph_name: db.name(graph).to_owned(),
                    m,
                    score,
                    matched_nodes,
                    matched_edges,
                }
            })
            .collect();
        exec::rank_matches(all, opts.top_k)
    }));
}

/// One-to-one anchors from a graph's hit bucket: maximum-weight bipartite
/// matching (greedy past the engine's own size limit).
fn anchors_of(important: &[NodeId], hits: &[(usize, u32, f64)]) -> Vec<Anchor> {
    let mut right_of: HashMap<u32, usize> = HashMap::new();
    let mut right_nodes: Vec<u32> = Vec::new();
    let mut edges: Vec<WeightedEdge> = Vec::with_capacity(hits.len());
    let mut best: HashMap<(usize, usize), f64> = HashMap::new();
    for &(qi, node, w) in hits {
        let r = *right_of.entry(node).or_insert_with(|| {
            right_nodes.push(node);
            right_nodes.len() - 1
        });
        edges.push((qi, r, w));
        let e = best.entry((qi, r)).or_insert(0.0);
        *e = e.max(w);
    }
    let (nl, nr) = (important.len(), right_nodes.len());
    let assignment = if nl.max(nr) > 2000 {
        greedy_matching(nl, nr, &edges)
    } else {
        max_weight_matching(nl, nr, &edges)
    };
    assignment
        .into_iter()
        .enumerate()
        .filter_map(|(qi, r)| {
            r.map(|r| Anchor {
                query: important[qi],
                target: NodeId(right_nodes[r]),
                quality: best.get(&(qi, r)).copied().unwrap_or(0.0),
            })
        })
        .collect()
}

/// Turns the replay's spans into per-op layer metrics. `serial_ms` is the
/// summed one-thread end-to-end time of the `ops` replayed queries and
/// `results` the number of matches the program returned for them.
pub fn replay_metrics(
    out: &mut Layers,
    tr: &Tracer,
    counts: &ReplayCounts,
    ops: usize,
    serial_ms: f64,
    results: u64,
) {
    let selfs = tr.self_ms_by_name();
    let ms = |name: &str| selfs.get(name).copied().unwrap_or(0.0);
    let n = ops.max(1) as f64;
    out.insert(
        "graph.select_important_us",
        ms("graph.select_important") * 1e3 / n,
    );
    out.insert("nhindex.signature_us", ms("nhindex.signature") * 1e3 / n);
    out.insert("nhindex.probe_ms", ms("nhindex.probe") / n);
    out.insert("matching.anchor_ms", ms("matching.anchor") / n);
    out.insert("matching.anchor_graphs", counts.anchor_graphs as f64 / n);
    out.insert("matching.grow_ms", ms("matching.grow") / n);
    out.insert(
        "matching.grow_us_per_pair",
        ratio(ms("matching.grow") * 1e3, counts.grown_pairs as f64),
    );
    out.insert(
        "matching.kept_frac",
        ratio(results as f64, counts.grown_graphs as f64),
    );
    out.insert("tale.plan_us", ms("tale.explain") * 1e3 / n);
    let replayed = ms("graph.select_important")
        + ms("nhindex.signature")
        + ms("nhindex.probe")
        + ms("matching.anchor")
        + ms("matching.grow")
        + ms("tale.rank");
    out.insert("tale.residual_frac", ratio(serial_ms - replayed, serial_ms));
}

/// Nanoseconds per row of the bit-sliced probe kernel in use
/// ([`active_kernel`]) over a 4096-row bitmap of width `sbit`, a quarter
/// of the bits set, the budget a quarter of the query's bits. `seconds` is
/// the run's budget; the repetitions scale with it (2000 at full length).
pub fn bitprobe_ns_per_row(sbit: u32, seconds: f64) -> f64 {
    const ROWS: usize = 4096;
    let mut rng = ChaCha8Rng::seed_from_u64(u64::from(sbit));
    let mut bitmap = ColumnBitmap::new(ROWS, sbit);
    for row in 0..ROWS {
        for col in 0..sbit {
            if rng.gen_bool(0.25) {
                bitmap.set(row, col);
            }
        }
    }
    let words = (sbit as usize).div_ceil(64);
    let mut query = vec![0u64; words];
    let mut set = 0;
    for col in 0..sbit {
        if rng.gen_bool(0.25) {
            query[(col / 64) as usize] |= 1 << (col % 64);
            set += 1;
        }
    }
    let reps = ((seconds * 200.0) as usize).clamp(20, 2000);
    let _ = active_kernel();
    let t = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(probe_bitsliced(
            std::hint::black_box(&bitmap),
            std::hint::black_box(&query),
            set / 4,
        ));
    }
    t.elapsed().as_nanos() as f64 / (reps * ROWS) as f64
}
