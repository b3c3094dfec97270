//! E-ABL — §VI-D: TALE vs TALE-Random (importance-measure ablation).
//!
//! Paper: on the mouse-vs-human test, degree-centrality TALE scores
//! 106 matched nodes / 61 matched edges / 42 KEGGs hit / 13.6% coverage
//! against 85 / 24 / 8 / 5.8% for random "important" node selection.
//! The shape to reproduce: degree centrality beats random selection on
//! every measure.

use crate::{timed, Scale};
use tale::{ImportanceMeasure, QueryOptions, TaleDatabase, TaleParams};
use tale_datasets::metrics::kegg_metrics;
use tale_datasets::pin::SpeciesPins;
use tale_graph::NodeId;

/// One importance-measure row.
#[derive(Debug, Clone)]
pub struct AblationReport {
    /// Measure name.
    pub measure: String,
    /// Matched node count (best human match).
    pub matched_nodes: usize,
    /// Matched edge count.
    pub matched_edges: usize,
    /// KEGGs hit.
    pub kegg_hits: usize,
    /// Average pathway coverage.
    pub coverage: f64,
    /// Query seconds.
    pub seconds: f64,
}

/// Runs the mouse-vs-human ablation over the given importance measures.
pub fn run_ablation(
    pins: &SpeciesPins,
    scale: Scale,
    measures: &[(&str, ImportanceMeasure)],
) -> Vec<AblationReport> {
    let _ = scale;
    // Same setup as Table II: the index holds the human PIN only.
    let human_only = crate::experiments::table2::single_species_db(&pins.db, pins.species["human"]);
    let tale_db =
        TaleDatabase::build_in_temp(human_only, &TaleParams::bind()).expect("index build");
    let human_gid = tale_graph::GraphId(0);
    let mouse = pins.db.graph(pins.species["mouse"]);

    measures
        .iter()
        .map(|(name, m)| {
            let opts = QueryOptions::bind().with_importance(*m);
            let (res, seconds) = timed(|| tale_db.query(mouse, &opts).expect("query"));
            let hit = res.iter().find(|r| r.graph == human_gid);
            let pairs: Vec<(NodeId, NodeId)> = hit
                .map(|r| r.m.pairs.iter().map(|p| (p.query, p.target)).collect())
                .unwrap_or_default();
            let k = kegg_metrics(&pins.pathways, "mouse", "human", &pairs);
            AblationReport {
                measure: name.to_string(),
                matched_nodes: hit.map(|r| r.matched_nodes).unwrap_or(0),
                matched_edges: hit.map(|r| r.matched_edges).unwrap_or(0),
                kegg_hits: k.hits,
                coverage: k.avg_coverage,
                seconds,
            }
        })
        .collect()
}

/// The paper's §VI-D pair: degree vs random.
pub fn paper_measures() -> Vec<(&'static str, ImportanceMeasure)> {
    vec![
        ("degree (TALE)", ImportanceMeasure::Degree),
        ("random (TALE-Random)", ImportanceMeasure::Random(7)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::table1::run_table1;

    #[test]
    fn degree_beats_random() {
        let (_, pins) = run_table1(44, Scale(0.12));
        let rows = run_ablation(&pins, Scale(0.12), &paper_measures());
        assert_eq!(rows.len(), 2);
        let degree = &rows[0];
        let random = &rows[1];
        // §VI-D shape: degree centrality beats random on edge conservation
        // and pathway recovery (node counts can tie — any anchor that
        // sticks lets growth cover the graph; what random loses is *which*
        // paralog it anchors to, i.e. structure, not volume).
        assert!(
            degree.matched_edges >= random.matched_edges,
            "edges: degree {} vs random {}",
            degree.matched_edges,
            random.matched_edges
        );
        assert!(
            degree.kegg_hits >= random.kegg_hits,
            "hits: degree {} vs random {}",
            degree.kegg_hits,
            random.kegg_hits
        );
        assert!(
            degree.coverage >= random.coverage,
            "coverage: degree {:.3} vs random {:.3}",
            degree.coverage,
            random.coverage
        );
        assert!(degree.matched_nodes > 0 && degree.kegg_hits > 0);
    }
}
