//! The plan stage: importance selection, signatures, and — in cost mode —
//! an explicit plan tree derived from per-index statistics.
//!
//! A [`QueryPlan`] carries everything later stages need that depends only
//! on the query, the options, and the readers' statistics: the important
//! nodes (§V-B), their NH-Index probe signatures, a *canonical signature*
//! (a relabeling-invariant hash keying the
//! [`ResultCache`](crate::engine::cache::ResultCache)), and the planner's
//! decisions:
//!
//! * [`probe_order`](QueryPlan::probe_order) — probes sorted by estimated
//!   selectivity (fewest estimated posting rows first), so the cheapest
//!   evidence lands first in the readahead queue. Buckets are still
//!   filled per important-node position, so reordering cannot change any
//!   result.
//! * [`prefetch_hint`](QueryPlan::prefetch_hint) — an estimated posting
//!   count that sizes the IoPool readahead budget for this query's
//!   probes.
//! * [`shard_plans`](QueryPlan::shard_plans) — per-reader feasibility
//!   and row estimates; a reader no probe can match is pruned (see
//!   `engine::exec` for the safety argument).
//!
//! In [`PlanMode::Fixed`] all of that collapses to the identity: original
//! probe order, no hints, no shard plans — the baseline pipeline.

use crate::params::{PlanMode, QueryOptions};
use serde::Serialize;
use std::sync::Arc;
use tale_graph::centrality::select_important_covering;
use tale_graph::{Graph, GraphDb, NodeId};
use tale_nhindex::{IndexReader, IndexStatistics, NhIndex, QuerySignature};

/// One reader's ("shard's") entry in a cost-mode plan.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ShardPlan {
    /// Reader index in the executor's shard order.
    pub shard: usize,
    /// Whether the reader exposed statistics; without them the planner
    /// treats it as opaque (everything feasible, nothing prunable).
    pub has_stats: bool,
    /// Probe signatures the statistics say *can* return candidates here
    /// (label present with sufficient max degree). Zero with `has_stats`
    /// proves every probe answers empty on this shard.
    pub feasible_probes: usize,
    /// Estimated posting rows all probes together would visit.
    pub est_rows: u64,
}

/// Everything the engine derives from one query before touching the index.
#[derive(Debug)]
pub struct QueryPlan {
    /// Important query nodes, in selection order (§V-B).
    pub important: Vec<NodeId>,
    /// One probe signature per important node, aligned with `important`.
    pub signatures: Vec<QuerySignature>,
    /// Canonical query signature over effective labels — invariant under
    /// node-id relabeling of the query graph.
    pub canonical: u64,
    /// Probe execution order: a permutation of `0..signatures.len()`.
    /// Identity in fixed mode; ascending estimated rows (ties by original
    /// position) in cost mode.
    pub probe_order: Vec<usize>,
    /// Estimated posting rows per signature (summed over readers with
    /// statistics), aligned with `signatures`. Empty when no reader has
    /// statistics or in fixed mode.
    pub est_rows: Vec<u64>,
    /// Estimated postings this query's probes would fetch — the readahead
    /// budget. `None` when any reader lacks statistics (unbounded).
    pub prefetch_hint: Option<u64>,
    /// Per-reader cost entries; empty in fixed mode.
    pub shard_plans: Vec<ShardPlan>,
}

impl QueryPlan {
    /// True when cost planning moved any probe off its original position.
    pub fn is_reordered(&self) -> bool {
        self.probe_order.iter().enumerate().any(|(i, &o)| i != o)
    }

    /// Total estimated posting rows across all probes (0 without stats).
    pub fn total_est_rows(&self) -> u64 {
        self.est_rows.iter().sum()
    }
}

/// Runs the plan stage for one query against the executor's full reader
/// set (`readers[0]` supplies the signature scheme — all readers share
/// it).
pub(crate) fn plan_query(
    db: &GraphDb,
    readers: &[&dyn IndexReader],
    query: &Graph,
    opts: &QueryOptions,
) -> QueryPlan {
    let important = select_important_covering(query, opts.importance, opts.p_imp);
    let q_label = |n: NodeId| db.effective_of_raw(query.label(n));
    let signatures: Vec<QuerySignature> = important
        .iter()
        .map(|&n| readers[0].signature(query, n, &q_label))
        .collect();
    let mut plan = QueryPlan {
        canonical: canonical_signature(query, &q_label),
        probe_order: (0..signatures.len()).collect(),
        est_rows: Vec::new(),
        prefetch_hint: None,
        shard_plans: Vec::new(),
        important,
        signatures,
    };
    if opts.plan == PlanMode::Cost {
        cost_annotate(&mut plan, readers, opts);
    }
    plan
}

/// Fills the cost-mode fields of `plan` from the readers' statistics.
fn cost_annotate(plan: &mut QueryPlan, readers: &[&dyn IndexReader], opts: &QueryOptions) {
    let stats: Vec<Option<Arc<IndexStatistics>>> = readers.iter().map(|r| r.statistics()).collect();
    let any_stats = stats.iter().any(|s| s.is_some());
    let all_stats = stats.iter().all(|s| s.is_some());

    // Per-probe lower degree bound of the range scan (condition IV.2).
    let deg_mins: Vec<u32> = plan
        .signatures
        .iter()
        .map(|sig| sig.degree - NhIndex::miss_budgets(sig.degree, opts.rho).0)
        .collect();

    if any_stats {
        // Row estimates summed over stats-bearing readers; opaque readers
        // contribute nothing to the ordering (they cost the same for
        // every order).
        plan.est_rows = plan
            .signatures
            .iter()
            .zip(&deg_mins)
            .map(|(sig, &dm)| {
                stats
                    .iter()
                    .flatten()
                    .map(|s| s.estimate_rows(sig.label, dm))
                    .sum()
            })
            .collect();
        let mut order: Vec<usize> = (0..plan.signatures.len()).collect();
        order.sort_by_key(|&i| (plan.est_rows[i], i));
        plan.probe_order = order;
    }
    if all_stats {
        plan.prefetch_hint = Some(
            plan.signatures
                .iter()
                .zip(&deg_mins)
                .map(|(sig, &dm)| {
                    stats
                        .iter()
                        .flatten()
                        .map(|s| s.estimate_postings(sig.label, dm))
                        .sum::<u64>()
                })
                .sum(),
        );
    }

    plan.shard_plans = stats
        .iter()
        .enumerate()
        .map(|(shard, s)| match s {
            None => ShardPlan {
                shard,
                has_stats: false,
                feasible_probes: plan.signatures.len(),
                est_rows: 0,
            },
            Some(s) => {
                let feasible_probes = plan
                    .signatures
                    .iter()
                    .zip(&deg_mins)
                    .filter(|(sig, &dm)| s.matchable(sig.label, dm))
                    .count();
                let est_rows = plan
                    .signatures
                    .iter()
                    .zip(&deg_mins)
                    .map(|(sig, &dm)| s.estimate_rows(sig.label, dm))
                    .sum();
                ShardPlan {
                    shard,
                    has_stats: true,
                    feasible_probes,
                    est_rows,
                }
            }
        })
        .collect();
}

/// FNV-1a over a u64 stream — stable across runs and platforms.
fn fnv(acc: u64, v: u64) -> u64 {
    let mut h = acc;
    for b in v.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

const SEED: u64 = 0xcbf29ce484222325;
const WL_ROUNDS: usize = 3;

/// Canonical query signature: a 1-WL color-refinement hash over the
/// query's *effective* labels (group labels under §IV-E) and edge labels,
/// folded into the sorted final color multiset plus node/edge counts and
/// direction.
///
/// Invariant under any relabeling of the query's node ids (the refinement
/// reads colors by node, and the final fold sorts the multiset), which is
/// the property the result cache needs: the same pattern submitted with
/// its nodes in a different order maps to the same cache key. Like any
/// 1-WL hash, distinct graphs may collide — which is why cache entries
/// also store the exact query for verification and a collision can only
/// cost a recomputation, never a wrong answer.
pub fn canonical_signature(query: &Graph, label_of: &dyn Fn(NodeId) -> u32) -> u64 {
    let mut colors: Vec<u64> = query
        .nodes()
        .map(|n| fnv(SEED, label_of(n) as u64))
        .collect();
    let mut next = colors.clone();
    for _ in 0..WL_ROUNDS {
        for n in query.nodes() {
            // Fold each incident edge's label into the neighbor's color so
            // edge relabelings change the signature too.
            let mut outs: Vec<u64> = query
                .neighbor_edges(n)
                .map(|(v, eid)| {
                    let el = query.edge_label(eid).map(|l| l.0 as u64 + 1).unwrap_or(0);
                    fnv(colors[v.idx()], el)
                })
                .collect();
            outs.sort_unstable();
            let mut h = fnv(SEED, colors[n.idx()]);
            for c in outs {
                h = fnv(h, c);
            }
            if query.is_directed() {
                let mut ins: Vec<u64> = query.in_neighbors(n).map(|v| colors[v.idx()]).collect();
                ins.sort_unstable();
                h = fnv(h, 0xD1F); // domain separation between out and in
                for c in ins {
                    h = fnv(h, c);
                }
            }
            next[n.idx()] = h;
        }
        std::mem::swap(&mut colors, &mut next);
    }
    colors.sort_unstable();
    let mut h = fnv(SEED, query.node_count() as u64);
    h = fnv(h, query.edge_count() as u64);
    h = fnv(h, query.is_directed() as u64);
    for c in colors {
        h = fnv(h, c);
    }
    h
}

/// One node of the rendered plan tree (`explain` output).
#[derive(Debug, Clone, Serialize)]
pub struct PlanNode {
    /// Operator name (`rank`, `scatter`, `shard`, `probe`, …).
    pub op: String,
    /// Human-readable cost/shape annotation.
    pub detail: String,
    /// Estimated posting rows under this node (0 when unknown).
    pub est_rows: u64,
    /// Child operators.
    pub children: Vec<PlanNode>,
}

/// One probe's entry in a [`PlanReport`], in execution order.
#[derive(Debug, Clone, Serialize)]
pub struct ProbeReport {
    /// Position in the execution order (0 = probed first).
    pub order: usize,
    /// Original important-node position this probe fills.
    pub position: usize,
    /// Query node id.
    pub node: u32,
    /// Effective label of the probe signature.
    pub label: u32,
    /// Degree of the probe signature.
    pub degree: u32,
    /// Estimated posting rows, when statistics were available.
    pub est_rows: Option<u64>,
}

/// A serializable, renderable description of the plan the engine chose
/// for one query — the payload of `tale-cli explain` / `query --explain`.
#[derive(Debug, Clone, Serialize)]
pub struct PlanReport {
    /// Plan mode name (`fixed` / `cost`).
    pub mode: String,
    /// Canonical (relabeling-invariant) query signature, hex.
    pub canonical: String,
    /// Important query nodes selected (§V-B).
    pub important_nodes: usize,
    /// Whether cost planning moved any probe off its original position.
    pub reordered: bool,
    /// Readahead budget in postings, when statistics allowed one.
    pub prefetch_hint: Option<u64>,
    /// Probes in execution order.
    pub probes: Vec<ProbeReport>,
    /// Per-shard cost entries (empty in fixed mode).
    pub shards: Vec<ShardPlan>,
    /// The operator tree with cost annotations.
    pub tree: PlanNode,
}

impl PlanReport {
    /// Pretty-prints the operator tree with cost annotations.
    pub fn render(&self) -> String {
        let mut out = format!(
            "plan mode={} canonical={} important={} reordered={}{}\n",
            self.mode,
            self.canonical,
            self.important_nodes,
            self.reordered,
            match self.prefetch_hint {
                Some(h) => format!(" prefetch_budget={h}"),
                None => String::new(),
            }
        );
        fn walk(node: &PlanNode, prefix: &str, last: bool, out: &mut String) {
            let branch = if last { "└─ " } else { "├─ " };
            out.push_str(&format!(
                "{prefix}{branch}{} [{}] est_rows={}\n",
                node.op, node.detail, node.est_rows
            ));
            let child_prefix = format!("{prefix}{}", if last { "   " } else { "│  " });
            for (i, c) in node.children.iter().enumerate() {
                walk(c, &child_prefix, i + 1 == node.children.len(), out);
            }
        }
        walk(&self.tree, "", true, &mut out);
        out
    }
}

/// Builds the explain report for one query against `readers` — the
/// same `plan_query` the executor runs, rendered instead of executed.
/// Public so sharded front ends (`tale-shard`) can explain against their
/// own reader sets; library users should prefer
/// [`TaleDatabase::explain`](crate::TaleDatabase::explain).
pub fn plan_report(
    db: &GraphDb,
    readers: &[&dyn IndexReader],
    query: &Graph,
    opts: &QueryOptions,
) -> PlanReport {
    let plan = plan_query(db, readers, query, opts);
    let probes: Vec<ProbeReport> = plan
        .probe_order
        .iter()
        .enumerate()
        .map(|(order, &position)| {
            let sig = &plan.signatures[position];
            ProbeReport {
                order,
                position,
                node: plan.important[position].0,
                label: sig.label,
                degree: sig.degree,
                est_rows: plan.est_rows.get(position).copied(),
            }
        })
        .collect();

    let probe_children = || -> Vec<PlanNode> {
        probes
            .iter()
            .map(|p| PlanNode {
                op: "probe".into(),
                detail: format!("node={} label={} degree={}", p.node, p.label, p.degree),
                est_rows: p.est_rows.unwrap_or(0),
                children: Vec::new(),
            })
            .collect()
    };

    let shard_nodes: Vec<PlanNode> = if plan.shard_plans.is_empty() {
        (0..readers.len())
            .map(|s| PlanNode {
                op: "shard".into(),
                detail: format!("shard={s} fixed"),
                est_rows: 0,
                children: probe_children(),
            })
            .collect()
    } else {
        plan.shard_plans
            .iter()
            .map(|sp| PlanNode {
                op: "shard".into(),
                detail: format!(
                    "shard={} {}feasible={}/{}",
                    sp.shard,
                    if sp.has_stats { "" } else { "no-stats " },
                    sp.feasible_probes,
                    plan.signatures.len(),
                ),
                est_rows: sp.est_rows,
                children: if sp.has_stats && sp.feasible_probes == 0 {
                    vec![PlanNode {
                        op: "pruned".into(),
                        detail: "no feasible probe — provably empty".into(),
                        est_rows: 0,
                        children: Vec::new(),
                    }]
                } else {
                    probe_children()
                },
            })
            .collect()
    };

    let total_est = plan.total_est_rows();
    let tree = PlanNode {
        op: "rank".into(),
        detail: match opts.top_k {
            Some(k) => format!("top_k={k} similarity={}", opts.similarity.name()),
            None => format!("all similarity={}", opts.similarity.name()),
        },
        est_rows: total_est,
        children: vec![PlanNode {
            op: "scatter".into(),
            detail: format!("shards={} threads={}", readers.len(), opts.threads),
            est_rows: total_est,
            children: shard_nodes,
        }],
    };

    PlanReport {
        mode: opts.plan.name().to_string(),
        canonical: format!("{:016x}", plan.canonical),
        important_nodes: plan.important.len(),
        reordered: plan.is_reordered(),
        prefetch_hint: plan.prefetch_hint,
        probes,
        shards: plan.shard_plans.clone(),
        tree,
    }
}
