//! The plan stage: importance selection and signatures.
//!
//! A [`QueryPlan`] carries everything later stages need that depends only
//! on the query and the options: the important nodes (§V-B), their
//! NH-Index probe signatures, and a *canonical signature* (a
//! relabeling-invariant hash keying the
//! [`ResultCache`](crate::engine::cache::ResultCache)). Every important
//! node is probed once, in selection order, on every shard.
//!
//! [`plan_report`] renders the same plan for `explain`, annotated with
//! posting-row estimates from the readers' statistics
//! ([`tale_nhindex::IndexStatistics`]). The estimates only describe the
//! plan; nothing the engine executes reads them.

use crate::params::QueryOptions;
use serde::Serialize;
use tale_graph::centrality::select_important_covering;
use tale_graph::neighborhood::miss_budgets;
use tale_graph::{Graph, GraphDb, NodeId};
use tale_nhindex::{IndexReader, QuerySignature};

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
}

/// Runs the plan stage for one query. `scheme` supplies the signature
/// scheme, which every reader of a database shares.
pub(crate) fn plan_query(
    db: &GraphDb,
    scheme: &dyn IndexReader,
    query: &Graph,
    opts: &QueryOptions,
) -> QueryPlan {
    let important = select_important_covering(query, opts.importance, opts.p_imp);
    let q_label = |n: NodeId| db.effective_of_raw(query.label(n));
    let signatures: Vec<QuerySignature> = important
        .iter()
        .map(|&n| scheme.signature(query, n, &q_label))
        .collect();
    QueryPlan {
        canonical: canonical_signature(query, &q_label),
        important,
        signatures,
    }
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
    /// Operator name (`rank`, `scatter`, `shard`, `probe`).
    pub op: String,
    /// Human-readable shape annotation.
    pub detail: String,
    /// Estimated posting rows under this node (0 when unknown).
    pub est_rows: u64,
    /// Child operators.
    pub children: Vec<PlanNode>,
}

/// One probe's entry in a [`PlanReport`], in important-node order.
#[derive(Debug, Clone, Serialize)]
pub struct ProbeReport {
    /// Query node id.
    pub node: u32,
    /// Effective label of the probe signature.
    pub label: u32,
    /// Degree of the probe signature.
    pub degree: u32,
    /// Estimated posting rows, summed over the readers with statistics;
    /// `None` when no reader has them.
    pub est_rows: Option<u64>,
}

/// A serializable, renderable description of the plan the engine runs
/// for one query — the payload of `tale-cli explain` / `query --explain`.
#[derive(Debug, Clone, Serialize)]
pub struct PlanReport {
    /// Canonical (relabeling-invariant) query signature, hex.
    pub canonical: String,
    /// Important query nodes selected (§V-B).
    pub important_nodes: usize,
    /// One probe per important node, in selection order.
    pub probes: Vec<ProbeReport>,
    /// The operator tree with row estimates.
    pub tree: PlanNode,
}

impl PlanReport {
    /// Pretty-prints the operator tree with row estimates.
    pub fn render(&self) -> String {
        let mut out = format!(
            "plan canonical={} important={}\n",
            self.canonical, self.important_nodes
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

/// Builds the explain report for one query against `readers` — each open
/// shard's base reader then its delta reader, from shard `first_shard`
/// on — the same `plan_query` the executor runs, rendered instead of
/// executed.
/// Each reader with statistics estimates every probe's posting rows as
/// `estimate_rows(label, deg_min)`, where `deg_min` is the probe's
/// IV.2 lower degree bound; statistics only overestimate, so a reader's
/// estimate bounds the rows its probe examines. Library users should
/// prefer [`ShardedTaleDatabase::explain`](crate::ShardedTaleDatabase::explain),
/// its one caller.
pub fn plan_report(
    db: &GraphDb,
    readers: &[&dyn IndexReader],
    first_shard: u32,
    query: &Graph,
    opts: &QueryOptions,
) -> PlanReport {
    let plan = plan_query(db, readers[0], query, opts);
    // Per reader: each probe's estimated rows, `None` without statistics.
    let per_reader: Vec<Option<Vec<u64>>> = readers
        .iter()
        .map(|r| {
            let stats = r.statistics()?;
            Some(
                plan.signatures
                    .iter()
                    .map(|sig| {
                        let deg_min = sig.degree - miss_budgets(sig.degree, opts.rho).0;
                        stats.estimate_rows(sig.label, deg_min)
                    })
                    .collect(),
            )
        })
        .collect();
    let any_stats = per_reader.iter().any(Option::is_some);
    let probes: Vec<ProbeReport> = plan
        .important
        .iter()
        .zip(&plan.signatures)
        .enumerate()
        .map(|(i, (node, sig))| ProbeReport {
            node: node.0,
            label: sig.label,
            degree: sig.degree,
            est_rows: any_stats.then(|| per_reader.iter().flatten().map(|e| e[i]).sum()),
        })
        .collect();

    let shard_nodes: Vec<PlanNode> = per_reader
        .iter()
        .enumerate()
        .map(|(r, est)| PlanNode {
            op: "shard".into(),
            detail: format!(
                "shard={} {}{}",
                first_shard + r as u32 / 2,
                if r % 2 == 0 { "base" } else { "delta" },
                if est.is_some() { "" } else { " no-stats" }
            ),
            est_rows: est.as_ref().map_or(0, |e| e.iter().sum()),
            children: probes
                .iter()
                .enumerate()
                .map(|(i, p)| PlanNode {
                    op: "probe".into(),
                    detail: format!("node={} label={} degree={}", p.node, p.label, p.degree),
                    est_rows: est.as_ref().map_or(0, |e| e[i]),
                    children: Vec::new(),
                })
                .collect(),
        })
        .collect();

    let total_est: u64 = probes.iter().filter_map(|p| p.est_rows).sum();
    let tree = PlanNode {
        op: "rank".into(),
        detail: match opts.top_k {
            Some(k) => format!("top_k={k} similarity={}", opts.similarity.name()),
            None => format!("all similarity={}", opts.similarity.name()),
        },
        est_rows: total_est,
        children: vec![PlanNode {
            op: "scatter".into(),
            detail: format!("shards={} threads={}", readers.len() / 2, opts.threads),
            est_rows: total_est,
            children: shard_nodes,
        }],
    };

    PlanReport {
        canonical: format!("{:016x}", plan.canonical),
        important_nodes: plan.important.len(),
        probes,
        tree,
    }
}
