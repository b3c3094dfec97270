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
use tale_nhindex::{node_match_quality, IndexReader, NodeCandidate, QuerySignature};

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

/// One query's probe outcome: candidate buckets plus the index traffic
/// that answered it (shared probes are credited to every requester, as a
/// standalone run would report).
pub(crate) struct PerQueryProbe {
    /// Per candidate graph: `(important-node index, db node, quality)`.
    pub per_graph: HashMap<u32, Vec<(usize, u32, f64)>>,
    /// Signatures this query asked for.
    pub probes: u64,
    /// Of those, answered by a probe first paid for elsewhere in the batch.
    pub probes_shared: u64,
    pub keys_scanned: u64,
    pub postings_fetched: u64,
    pub postings_filtered: u64,
    pub rows_examined: u64,
    /// Candidate node matches across all of this query's signatures.
    pub candidates: u64,
}

/// The whole batch's probe outcome.
pub(crate) struct ProbeOutcome {
    /// Aligned with the `plans` argument of [`run_probe`].
    pub per_query: Vec<PerQueryProbe>,
    /// Signatures requested across the batch.
    pub probes_requested: u64,
    /// Distinct signatures that actually hit the disk index.
    pub probes_issued: u64,
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
    type ScoredProbe = (Vec<(u32, u32, f64)>, tale_nhindex::ProbeStats);
    let probed = index.probe_batch(&unique_sigs, rho, threads)?;
    let scored: Vec<ScoredProbe> = probed
        .into_iter()
        .zip(unique_sigs.iter())
        .map(|((candidates, stats), sig)| {
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

    let per_query = refs
        .iter()
        .enumerate()
        .map(|(qi, sig_refs)| {
            let mut p = PerQueryProbe {
                per_graph: HashMap::new(),
                probes: sig_refs.len() as u64,
                probes_shared: 0,
                keys_scanned: 0,
                postings_fetched: 0,
                postings_filtered: 0,
                rows_examined: 0,
                candidates: 0,
            };
            for (ni, &si) in sig_refs.iter().enumerate() {
                let (hits, stats) = &scored[si];
                if first_requester[si] != qi || sig_refs[..ni].contains(&si) {
                    p.probes_shared += 1;
                }
                p.keys_scanned += stats.keys_scanned;
                p.postings_fetched += stats.postings_fetched;
                p.postings_filtered += stats.postings_filtered;
                p.rows_examined += stats.rows_examined;
                p.candidates += hits.len() as u64;
                for &(graph, node, w) in hits {
                    p.per_graph.entry(graph).or_default().push((ni, node, w));
                }
            }
            p
        })
        .collect();

    Ok(ProbeOutcome {
        per_query,
        probes_requested: refs.iter().map(|r| r.len() as u64).sum(),
        probes_issued: unique_sigs.len() as u64,
    })
}
