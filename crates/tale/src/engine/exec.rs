//! The exec stage: consumes each query's [`QueryPlan`] and orchestrates
//! cache → probe → anchor/grow → rank for a whole batch, visiting the
//! index shards in order, fanning each shard's work over the worker
//! threads, and gathering with a deterministic index-ordered merge.
//!
//! Batch semantics are exact: the output of [`run_batch`] is bit-identical
//! to running each query alone through the same pipeline, at every thread
//! count **and at every shard count**. The batch only *amortizes* —
//! duplicate queries are executed once, duplicate probe signatures are
//! probed once per shard, and the thread pool fans over the union of all
//! per-graph work items instead of syncing at each query boundary.
//!
//! ## Why sharding cannot change results
//!
//! Every database graph belongs to exactly one shard, all shards share one
//! neighbor-array scheme (chosen from the full database vocabulary at
//! build time), and a probe answer is a pure function of `(signature, ρ)`
//! over the rows present in the index. A shard's probe answer is therefore
//! exactly the subsequence of the unsharded answer whose graphs live in
//! that shard, so each `(query, graph)` match task receives a byte-equal
//! candidate bucket regardless of shard count. The final rank comparator —
//! score descending, graph id ascending — is a total order over matches
//! (graph ids are unique per query), so merging the shards' disjoint
//! partial lists in *any* order sorts to the same ranked output.

use crate::engine::cache::{self, CacheKey, QueryRepr, ResultCache};
use crate::engine::grow;
use crate::engine::plan::{plan_query, QueryPlan};
use crate::engine::probe::{self, PerQueryProbe};
use crate::engine::stats::{BatchStats, QueryStats, ShardStats, StageTimes};
use crate::params::QueryOptions;
use crate::result::QueryMatch;
use crate::Result;
use std::time::Instant;
use tale_graph::{Graph, GraphDb, SignatureTable};
use tale_nhindex::IndexReader;
use tale_storage::PoolStats;

/// One shard's contribution to the batch.
struct ShardOutcome {
    /// The unique slots this shard actually executed (its cache misses),
    /// in ascending order.
    sel: Vec<usize>,
    /// Pre-rank partial match lists, aligned with `sel`.
    partials: Vec<Vec<QueryMatch>>,
    /// Per-executed-unique traffic, aligned with `sel`.
    traffic: Vec<PerQueryProbe>,
    probes_requested: u64,
    stats: ShardStats,
}

/// Probes + grows one shard's selected uniques, fanning the probes and
/// the per-graph match tasks over `opts.threads` workers.
#[allow(clippy::too_many_arguments)]
fn exec_shard(
    db: &GraphDb,
    index: &dyn IndexReader,
    s: usize,
    sel: Vec<usize>,
    uniques: &[usize],
    plans: &[QueryPlan],
    queries: &[&Graph],
    opts: &QueryOptions,
) -> Result<ShardOutcome> {
    let threads = tale_par::effective_threads(opts.threads);
    let t_shard = Instant::now();
    let pool_before = index.pool_stats();
    let shard_plans: Vec<&QueryPlan> = sel.iter().map(|&u| &plans[uniques[u]]).collect();
    let t = Instant::now();
    let probed = probe::run_probe(index, &shard_plans, opts.rho, threads)?;
    let probe_secs = t.elapsed().as_secs_f64();

    // Match: anchor + grow per (query, candidate graph), flattened
    // across this shard's queries. `parallel_map` returns in item
    // order and items are (unique, sorted gid), so the per-query
    // gather below is byte-identical to a serial per-query loop.
    let t = Instant::now();
    // Each query's signature table, shared by all of its match tasks —
    // built only for queries with a candidate graph on this shard.
    let q_sigs: Vec<Option<SignatureTable>> = sel
        .iter()
        .zip(&probed.buckets)
        .map(|(&u, b)| {
            let q = queries[uniques[u]];
            (!b.is_empty()).then(|| SignatureTable::build(q, |n| db.effective_of_raw(q.label(n))))
        })
        .collect();
    let mut items: Vec<(usize, u32)> = Vec::new();
    for (lu, b) in probed.buckets.iter().enumerate() {
        let mut gids: Vec<u32> = b.keys().copied().collect();
        gids.sort_unstable();
        items.extend(gids.into_iter().map(|g| (lu, g)));
    }
    let matched: Vec<Option<QueryMatch>> = tale_par::parallel_map(threads, items.len(), |i| {
        let (lu, gid) = items[i];
        let qi = uniques[sel[lu]];
        grow::match_one_graph(
            db,
            queries[qi],
            q_sigs[lu]
                .as_ref()
                .expect("a query with match items has candidate graphs"),
            &plans[qi].important,
            gid,
            &probed.buckets[lu][&gid],
            opts,
        )
    });
    let match_secs = t.elapsed().as_secs_f64();
    let match_items = items.len();
    let mut out: Vec<Vec<QueryMatch>> = vec![Vec::new(); sel.len()];
    for ((lu, _), m) in items.into_iter().zip(matched) {
        if let Some(m) = m {
            out[lu].push(m);
        }
    }
    // This shard's traffic is what its own issued probes reported, so it
    // stays exact while other batches probe the same index.
    let issued = probed.issued;
    let matches = out.iter().map(Vec::len).sum();
    Ok(ShardOutcome {
        stats: ShardStats {
            shard: s,
            uniques_executed: sel.len(),
            probes: probed.probes_issued,
            keys_scanned: issued.keys_scanned,
            postings_fetched: issued.postings_fetched,
            postings_filtered: issued.postings_filtered,
            rows_examined: issued.rows_examined,
            candidates: probed
                .per_query
                .iter()
                .map(|p| p.traffic.rows_returned)
                .sum(),
            match_items,
            matches,
            pool: index.pool_stats().since(pool_before),
            probe_secs,
            match_secs,
            wall_secs: t_shard.elapsed().as_secs_f64(),
        },
        sel,
        partials: out,
        traffic: probed.per_query,
        probes_requested: probed.probes_requested,
    })
}

/// The engine's deterministic gather: sorts a merged multiset of
/// per-shard partial matches into rank order — score descending, graph id
/// ascending — and truncates to `top_k`.
///
/// The comparator is a total order over any one query's matches (every
/// database graph belongs to exactly one shard, so graph ids are unique
/// across the merged partials), which is why the shards' disjoint lists
/// can be concatenated in *any* order and still sort to the same ranked
/// output. Truncation composes: a shard's own top-K (under this same
/// order) always contains that shard's contribution to the global top-K,
/// so merging per-shard **ranked, truncated** lists and re-ranking here is
/// bit-identical to ranking the untruncated union. [`run_batch`] uses
/// this for its in-process gather; the networked frontend
/// (`tale-server`) uses it to merge partial result lists fetched from
/// remote shard workers.
pub fn rank_matches(mut all: Vec<QueryMatch>, top_k: Option<usize>) -> Vec<QueryMatch> {
    all.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.graph.cmp(&b.graph))
    });
    if let Some(k) = top_k {
        all.truncate(k);
    }
    all
}

/// Runs a batch of queries through the staged pipeline over one or more
/// index readers. `shards` must be non-empty and every reader must cover a
/// set of graphs disjoint from every other reader's, under one shared
/// neighbor-array scheme — true both for the sharded path (one [`NhIndex`]
/// per shard) and for the MVCC path (base generation + delta overlay as
/// two readers). Pass `caches: None` to bypass the result cache entirely;
/// otherwise provide exactly one cache per reader. Cache keys fold in each
/// reader's [`cache_generation`](IndexReader::cache_generation), so a
/// mutated reader's old entries are unreachable while untouched readers'
/// entries keep hitting.
///
/// [`NhIndex`]: tale_nhindex::NhIndex
pub fn run_batch(
    db: &GraphDb,
    shards: &[&dyn IndexReader],
    caches: Option<&[&ResultCache]>,
    queries: &[&Graph],
    opts: &QueryOptions,
) -> Result<(Vec<Vec<QueryMatch>>, BatchStats)> {
    let t_total = Instant::now();
    let nshards = shards.len();
    assert!(nshards > 0, "run_batch needs at least one index shard");
    if let Some(c) = caches {
        assert_eq!(c.len(), nshards, "one result cache per shard");
    }
    let threads = tale_par::effective_threads(opts.threads);

    // Plan: importance + signatures + canonical signature.
    let t = Instant::now();
    let plans: Vec<QueryPlan> = tale_par::parallel_map(threads, queries.len(), |i| {
        plan_query(db, shards[0], queries[i], opts)
    });
    let reprs: Vec<QueryRepr> = queries.iter().map(|q| cache::query_repr(db, q)).collect();
    let plan_secs = t.elapsed().as_secs_f64();

    // Exact-duplicate folding: `uniques` holds the input index of each
    // distinct query; `alias[i]` maps every input to its unique slot.
    // Cache generations are sampled once per reader for the whole batch,
    // so every lookup and store in this run agrees on the key space.
    let opt_fp = cache::options_fingerprint(opts);
    let generations: Vec<u64> = shards.iter().map(|s| s.cache_generation()).collect();
    let key_for = |qi: usize, s: usize| CacheKey {
        canonical: plans[qi].canonical,
        options: opt_fp,
        generation: generations[s],
    };
    let mut alias: Vec<usize> = Vec::with_capacity(queries.len());
    let mut uniques: Vec<usize> = Vec::new();
    let mut first_of: std::collections::HashMap<&QueryRepr, usize> =
        std::collections::HashMap::new();
    for repr in &reprs {
        let u = *first_of.entry(repr).or_insert_with(|| {
            uniques.push(alias.len());
            uniques.len() - 1
        });
        alias.push(u);
    }

    // Per-(unique, shard) cache lookups. `partials[u][s]` is that shard's
    // pre-rank partial list when cached; a query is a full cache hit only
    // when every shard hits.
    let mut partials: Vec<Vec<Option<Vec<QueryMatch>>>> = uniques
        .iter()
        .map(|_| (0..nshards).map(|_| None).collect())
        .collect();
    if let Some(caches) = caches {
        for (u, &qi) in uniques.iter().enumerate() {
            for (s, c) in caches.iter().enumerate() {
                partials[u][s] = c.get(&key_for(qi, s), &reprs[qi]).map(|mut list| {
                    // Tombstones that grew since this entry was stored can
                    // only *delete* matches; reproduce the deletion here so
                    // the entry stays exactly correct without eviction.
                    list.retain(|m| shards[s].is_visible(m.graph.0));
                    list
                });
            }
        }
    }
    let fully_cached: Vec<bool> = partials
        .iter()
        .map(|p| p.iter().all(Option::is_some))
        .collect();

    // Scatter: each shard in turn probes + grows the uniques that missed
    // its cache, on the full thread budget. Per-shard probe traffic is
    // exact: it is summed from the answers to the shard's own probes.
    let mut shard_outcomes: Vec<ShardOutcome> = Vec::with_capacity(nshards);
    for (s, reader) in shards.iter().enumerate() {
        let sel: Vec<usize> = (0..uniques.len())
            .filter(|&u| partials[u][s].is_none())
            .collect();
        shard_outcomes.push(exec_shard(
            db, *reader, s, sel, &uniques, &plans, queries, opts,
        )?);
    }

    // Gather + rank: store fresh partials, merge each unique's disjoint
    // shard lists, sort by (score desc, graph id asc) — a total order, so
    // merge order is irrelevant — and truncate to top_k.
    let t = Instant::now();
    let mut unique_traffic = vec![PerQueryProbe::default(); uniques.len()];
    for (s, out) in shard_outcomes.iter_mut().enumerate() {
        let sel = std::mem::take(&mut out.sel);
        for (lu, &u) in sel.iter().enumerate() {
            let list = std::mem::take(&mut out.partials[lu]);
            if let Some(caches) = caches {
                caches[s].put(
                    key_for(uniques[u], s),
                    reprs[uniques[u]].clone(),
                    list.clone(),
                );
            }
            unique_traffic[u] += out.traffic[lu];
            partials[u][s] = Some(list);
        }
        out.sel = sel;
    }
    let mut unique_results: Vec<Vec<QueryMatch>> = Vec::with_capacity(uniques.len());
    for per_shard in partials {
        let mut all: Vec<QueryMatch> = Vec::new();
        for p in per_shard {
            all.extend(p.expect("every shard answered or was cached"));
        }
        unique_results.push(rank_matches(all, opts.top_k));
    }
    let rank_secs = t.elapsed().as_secs_f64();

    // Assemble outputs in input order; the last user of each unique slot
    // takes the vector, earlier aliases clone.
    let mut users_left: Vec<usize> = vec![0; uniques.len()];
    for &u in &alias {
        users_left[u] += 1;
    }
    let shard_stats: Vec<ShardStats> = shard_outcomes.iter().map(|o| o.stats).collect();
    let stages = StageTimes {
        plan_secs,
        // probe/match run shard after shard: report the summed per-shard
        // clocks.
        probe_secs: shard_stats.iter().map(|s| s.probe_secs).sum(),
        match_secs: shard_stats.iter().map(|s| s.match_secs).sum(),
        rank_secs,
        total_secs: t_total.elapsed().as_secs_f64(),
    };
    let pool = shard_stats
        .iter()
        .fold(PoolStats::default(), |acc, s| acc.merged(s.pool));
    let mut per_query: Vec<QueryStats> = Vec::with_capacity(queries.len());
    let mut outputs: Vec<Vec<QueryMatch>> = Vec::with_capacity(queries.len());
    let mut cache_hits = 0usize;
    for (i, &u) in alias.iter().enumerate() {
        users_left[u] -= 1;
        let results = if users_left[u] == 0 {
            std::mem::take(&mut unique_results[u])
        } else {
            unique_results[u].clone()
        };
        let hit = fully_cached[u];
        if hit {
            cache_hits += 1;
        }
        let tr = &unique_traffic[u];
        per_query.push(QueryStats {
            important_nodes: plans[i].important.len(),
            probes: tr.probes,
            probes_shared: tr.probes_shared,
            keys_scanned: tr.traffic.keys_scanned,
            postings_fetched: tr.traffic.postings_fetched,
            postings_filtered: tr.traffic.postings_filtered,
            rows_examined: tr.traffic.rows_examined,
            candidates: tr.traffic.rows_returned,
            candidate_graphs: tr.candidate_graphs,
            matches: results.len(),
            cache_hit: hit,
            stages,
            pool,
        });
        outputs.push(results);
    }

    let batch = BatchStats {
        queries: queries.len(),
        cache_hits,
        unique_queries: fully_cached.iter().filter(|&&h| !h).count(),
        probes_requested: shard_outcomes.iter().map(|o| o.probes_requested).sum(),
        probes_issued: shard_stats.iter().map(|s| s.probes).sum(),
        stages,
        pool,
        shards: shard_stats,
        per_query,
    };
    Ok((outputs, batch))
}
