//! E-F7/F8/F9 — Figures 7, 8, 9: ASTRAL scalability.
//!
//! Paper setup: datasets from 200 graphs up to the full 75 626; 20
//! queries, top-20 results each. Reported shapes: index construction
//! time (Fig. 7) and index size (Fig. 8) grow steadily/linearly with the
//! database; average query time (Fig. 9) "scales nicely" (sub-linear,
//! gentle growth).

use crate::{timed, Scale};
use tale::{QueryOptions, TaleDatabase, TaleParams};
use tale_datasets::contact::{ContactDataset, ContactSpec};
use tale_graph::GraphDb;

/// One database-size point across the three figures.
#[derive(Debug, Clone)]
pub struct Fig789Row {
    /// Graphs in the database.
    pub graphs: usize,
    /// Fig. 7: index construction seconds.
    pub build_secs: f64,
    /// Fig. 8: index size in bytes.
    pub index_bytes: u64,
    /// Fig. 9: mean query seconds (top-20).
    pub query_secs: f64,
}

/// Runs the sweep. `sizes` are database graph counts (the paper's run is
/// 200..75 626; scaled runs use proportional points). Queries are drawn
/// from the smallest dataset, as in the paper.
pub fn run_fig789(seed: u64, sizes: &[usize], n_queries: usize) -> Vec<Fig789Row> {
    let max = *sizes.iter().max().expect("non-empty sizes");
    let spec = ContactSpec {
        families: max.div_ceil(10),
        domains_per_family: 10,
        ..ContactSpec::default()
    };
    let ds = ContactDataset::generate(seed, &spec);
    let queries = ds.pick_queries(seed ^ 0x77, n_queries);
    // restrict queries to graphs inside the smallest prefix
    let smallest = *sizes.iter().min().expect("non-empty");
    let queries: Vec<_> = queries
        .into_iter()
        .map(|q| tale_graph::GraphId(q.0 % smallest as u32))
        .collect();

    let mut rows = Vec::new();
    for &n in sizes {
        let sub = prefix_db(&ds.db, n);
        let (tale_db, build_secs) =
            timed(|| TaleDatabase::build_in_temp(sub, &TaleParams::astral()).expect("build"));
        let opts = QueryOptions::astral().with_top_k(20);
        let mut total = 0.0;
        for &q in &queries {
            let qg = ds.db.graph(q);
            let (_, secs) = timed(|| tale_db.query(qg, &opts).expect("query"));
            total += secs;
        }
        rows.push(Fig789Row {
            graphs: n,
            build_secs,
            index_bytes: tale_db.index_size_bytes(),
            query_secs: total / queries.len().max(1) as f64,
        });
    }
    rows
}

/// Default size ladder for a given scale: the paper's 200..75 626 sweep
/// compressed proportionally (5 points).
pub fn default_sizes(scale: Scale) -> Vec<usize> {
    let full = [200usize, 9_600, 28_800, 52_800, 75_626];
    full.iter()
        .map(|&s| ((s as f64 * scale.0).round() as usize).clamp(20, 75_626))
        .collect()
}

fn prefix_db(db: &GraphDb, n: usize) -> GraphDb {
    let mut out = GraphDb::new();
    for (_, name) in db.node_vocab().iter() {
        out.intern_node_label(name);
    }
    for (id, name, g) in db.iter().take(n) {
        let _ = id;
        out.insert(name.to_owned(), g.clone());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn growth_shapes() {
        let rows = run_fig789(6, &[20, 80, 160], 2);
        assert_eq!(rows.len(), 3);
        // Fig. 8: index size grows with the database, roughly linearly
        assert!(rows[2].index_bytes > rows[0].index_bytes * 3);
        assert!(rows[2].index_bytes < rows[0].index_bytes * 30);
        // Fig. 7: build time grows
        assert!(rows[2].build_secs > rows[0].build_secs);
        // Fig. 9: query time stays bounded (these are debug-build tests;
        // release runs are ~10x faster)
        assert!(rows.iter().all(|r| r.query_secs < 15.0));
    }
}
