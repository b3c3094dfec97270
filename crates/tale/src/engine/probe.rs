//! The probe stage: answer every plan's signatures against the NH-Index,
//! probing each *distinct* signature once per batch.
//!
//! A probe is a pure function of `(signature, ρ)` over the read-only
//! index, and Eq. IV.5 scoring depends only on the signature's degree and
//! neighbor connection — both part of the dedup key — so sharing one
//! probe's answer across every query that requested the same signature is
//! exact, not approximate. This is the batch API's amortization: queries
//! drawn from a common motif vocabulary (the repeated-pattern workloads
//! the paper's BIND scenario implies) re-request the same signatures
//! constantly.

use crate::engine::plan::QueryPlan;
use crate::Result;
use std::collections::HashMap;
use tale_nhindex::{node_match_quality, IndexReader, NodeCandidate, ProbeStats, QuerySignature};

/// Dedup key: the full signature content. Two query nodes with equal keys
/// receive byte-identical probe answers and scores.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct SigKey {
    label: u32,
    degree: u32,
    nb_connection: u32,
    nb_array: Vec<u64>,
}

impl SigKey {
    fn of(sig: &QuerySignature) -> SigKey {
        SigKey {
            label: sig.label,
            degree: sig.degree,
            nb_connection: sig.nb_connection,
            nb_array: sig.nb_array.clone(),
        }
    }
}

/// Per candidate graph: `(important-node index, db node, quality)`.
pub(crate) type Buckets = HashMap<u32, Vec<(usize, u32, f64)>>;

/// The index traffic that answered one query (shared probes are credited
/// to every requester, as a standalone run would report). Sums with `+=`
/// across the shards a query ran on.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PerQueryProbe {
    /// Signatures this query asked for.
    pub probes: u64,
    /// Of those, answered by a probe first paid for elsewhere in the batch.
    pub probes_shared: u64,
    /// What those probes did; `rows_returned` counts the query's candidate
    /// node matches.
    pub traffic: ProbeStats,
    /// Database graphs with at least one candidate.
    pub candidate_graphs: usize,
}

impl std::ops::AddAssign for PerQueryProbe {
    fn add_assign(&mut self, other: PerQueryProbe) {
        self.probes += other.probes;
        self.probes_shared += other.probes_shared;
        self.traffic += other.traffic;
        self.candidate_graphs += other.candidate_graphs;
    }
}

/// The whole batch's probe outcome.
pub(crate) struct ProbeOutcome {
    /// Candidate buckets, aligned with the `plans` argument of
    /// [`run_probe`].
    pub buckets: Vec<Buckets>,
    /// Per-query traffic, aligned with `buckets`.
    pub per_query: Vec<PerQueryProbe>,
    /// Signatures requested across the batch.
    pub probes_requested: u64,
    /// Distinct signatures probed: one index probe each.
    pub probes_issued: u64,
    /// What the issued probes did, summed.
    pub issued: ProbeStats,
}

/// Probes the index for every plan, deduplicating identical signatures
/// across (and within) queries. Buckets are filled in important-node
/// order, making each graph's bucket byte-identical to a per-query serial
/// probe loop.
pub(crate) fn run_probe(
    index: &dyn IndexReader,
    plans: &[&QueryPlan],
    rho: f64,
    threads: usize,
) -> Result<ProbeOutcome> {
    // Intern distinct signatures in first-seen order; remember which
    // query first requested each one so sharing can be attributed.
    let mut key_of: HashMap<SigKey, usize> = HashMap::new();
    let mut unique_sigs: Vec<QuerySignature> = Vec::new();
    let mut first_requester: Vec<usize> = Vec::new();
    let refs: Vec<Vec<usize>> = plans
        .iter()
        .enumerate()
        .map(|(qi, plan)| {
            plan.signatures
                .iter()
                .map(|sig| {
                    *key_of.entry(SigKey::of(sig)).or_insert_with(|| {
                        unique_sigs.push(sig.clone());
                        first_requester.push(qi);
                        unique_sigs.len() - 1
                    })
                })
                .collect()
        })
        .collect();

    // One disk probe per distinct signature, fanned across threads, then
    // scored once with Eq. IV.5 (the score depends only on the signature
    // and the candidate row, so every requester shares it).
    // per unique signature: scored (graph, node, quality) hits + traffic
    type ScoredProbe = (Vec<(u32, u32, f64)>, ProbeStats);
    let probed = index.probe_batch(&unique_sigs, rho, threads)?;
    let scored: Vec<ScoredProbe> = probed
        .into_iter()
        .zip(unique_sigs.iter())
        .map(|((candidates, stats), sig)| {
            debug_assert_eq!(stats.rows_returned, candidates.len() as u64);
            let mut out = Vec::with_capacity(candidates.len());
            for NodeCandidate {
                node,
                nb_miss,
                db_degree: _,
                db_nb_connection,
            } in candidates
            {
                let nbc_miss = sig.nb_connection.saturating_sub(db_nb_connection);
                let w = node_match_quality(sig.degree, sig.nb_connection, nb_miss, nbc_miss);
                // Eq. IV.5 cannot separate the true counterpart from a
                // node whose neighborhood strictly dominates the query's
                // (both score a perfect 2.0). Leave such ties to the
                // growth phase: its conservation bonus replaces a queued
                // anchor with an equal-quality candidate that conserves
                // more committed edges, which only works while anchor
                // qualities live on the same Eq. IV.5 scale growth uses.
                out.push((node.graph, node.node, w));
            }
            (out, stats)
        })
        .collect();

    let (buckets, per_query) = refs
        .iter()
        .enumerate()
        .map(|(qi, sig_refs)| {
            let mut buckets = Buckets::new();
            let mut p = PerQueryProbe {
                probes: sig_refs.len() as u64,
                ..PerQueryProbe::default()
            };
            for (ni, &si) in sig_refs.iter().enumerate() {
                let (hits, stats) = &scored[si];
                if first_requester[si] != qi || sig_refs[..ni].contains(&si) {
                    p.probes_shared += 1;
                }
                p.traffic += *stats;
                for &(graph, node, w) in hits {
                    buckets.entry(graph).or_default().push((ni, node, w));
                }
            }
            p.candidate_graphs = buckets.len();
            (buckets, p)
        })
        .unzip();

    let mut issued = ProbeStats::default();
    for (_, stats) in &scored {
        issued += *stats;
    }
    Ok(ProbeOutcome {
        buckets,
        per_query,
        probes_requested: refs.iter().map(|r| r.len() as u64).sum(),
        probes_issued: unique_sigs.len() as u64,
        issued,
    })
}
