//! E-SAGA — §II's claim about the authors' earlier tool: "While SAGA is
//! very efficient for small graph queries, it is computationally expensive
//! when applied to large graphs. In contrast, TALE focuses on approximate
//! matching for large graph queries." (The full comparison lives in the
//! extended version of the paper.)
//!
//! Reproduction: sweep query size against a fixed contact-graph database;
//! measure per-query time for the SAGA-like fragment matcher vs TALE. The
//! expected crossover: SAGA wins or ties on tiny queries, then its
//! fragment enumeration/assembly cost grows superlinearly with query size
//! while TALE's stays governed by the (fixed-fraction) important-node
//! probes.

use crate::{timed, Scale};
use tale::{QueryOptions, TaleDatabase, TaleParams};
use tale_baselines::saga::FragmentIndex;
use tale_datasets::contact::{ContactDataset, ContactSpec};
use tale_graph::{Graph, NodeId};

/// One query-size point.
#[derive(Debug, Clone)]
pub struct SagaRow {
    /// Query node count.
    pub query_nodes: usize,
    /// Query fragments enumerated (SAGA's workload driver).
    pub query_fragments: usize,
    /// SAGA per-query seconds.
    pub saga_secs: f64,
    /// TALE per-query seconds.
    pub tale_secs: f64,
}

/// Extracts a connected `size`-node query from `g` by BFS from node 0.
fn bfs_subquery(g: &Graph, size: usize) -> Graph {
    let mut picked = Vec::new();
    let mut seen = vec![false; g.node_count()];
    let mut queue = std::collections::VecDeque::from([NodeId(0)]);
    seen[0] = true;
    while let Some(u) = queue.pop_front() {
        picked.push(u);
        if picked.len() >= size {
            break;
        }
        for v in g.neighbors(u) {
            if !seen[v.idx()] {
                seen[v.idx()] = true;
                queue.push_back(v);
            }
        }
    }
    g.induced_subgraph(&picked).0
}

/// Runs the sweep. `sizes` are query node counts.
pub fn run_saga(seed: u64, scale: Scale, sizes: &[usize]) -> Vec<SagaRow> {
    let spec = ContactSpec {
        families: ((60.0 * scale.0 / 0.12).round() as usize).max(4),
        domains_per_family: 10,
        mean_nodes: 186.6,
        mean_edges: 734.2,
    };
    let ds = ContactDataset::generate(seed, &spec);
    let graphs: Vec<Graph> = ds.db.iter().map(|(_, _, g)| g.clone()).collect();

    let saga = FragmentIndex::build(graphs);
    let tale_db = TaleDatabase::build_in_temp(ds.db.clone(), &TaleParams::astral()).expect("build");
    // the largest database graph supplies the sub-queries
    let big = ds
        .db
        .iter()
        .max_by_key(|(_, _, g)| g.node_count())
        .map(|(id, _, _)| id)
        .expect("non-empty db");
    let host = ds.db.graph(big);

    let mut done = std::collections::HashSet::new();
    sizes
        .iter()
        .filter(|&&size| done.insert(size.min(host.node_count())))
        .map(|&size| {
            let q = bfs_subquery(host, size.min(host.node_count()));
            let label_of = |n: NodeId| q.label(n).0;
            let query_fragments = tale_baselines::saga::fragment_count_of(&q, &label_of);
            let (_, saga_secs) = timed(|| saga.query(&q, 20));
            let opts = QueryOptions::astral().with_top_k(20);
            let (_, tale_secs) = timed(|| tale_db.query(&q, &opts).expect("query"));
            SagaRow {
                query_nodes: q.node_count(),
                query_fragments,
                saga_secs,
                tale_secs,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saga_cost_grows_faster_with_query_size() {
        let rows = run_saga(7, Scale(0.01), &[15, 60, 120]);
        assert_eq!(rows.len(), 3);
        // fragment workload grows superlinearly
        assert!(rows[2].query_fragments > 8 * rows[0].query_fragments);
        // SAGA's cost ratio from smallest to largest query outpaces TALE's
        let saga_ratio = rows[2].saga_secs / rows[0].saga_secs.max(1e-6);
        let tale_ratio = rows[2].tale_secs / rows[0].tale_secs.max(1e-6);
        assert!(
            saga_ratio > tale_ratio,
            "saga {saga_ratio:.1}x vs tale {tale_ratio:.1}x"
        );
    }
}
