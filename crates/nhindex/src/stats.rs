//! Per-index statistics: collected at build/fold time, persisted next to
//! the generation's page files, read by `tale-cli stats` and by the
//! engine's `explain`.
//!
//! The statistics answer two questions without touching the B+-tree or
//! the postings:
//!
//! 1. **Feasibility** — can a probe signature `(label, degree)` under `ρ`
//!    possibly return a candidate from this index? The probe's range scan
//!    (conditions IV.1/IV.2) only visits keys with `key.label == label`
//!    and `key.degree ≥ degree − ⌊ρ·degree⌋`, so "no indexed unit of that
//!    label reaches `deg_min`" is an *exact* emptiness proof — the scan
//!    would visit no posting at all.
//! 2. **Selectivity** — roughly how many posting rows would the scan
//!    visit? A per-label log₂ degree histogram gives an overestimate,
//!    which `explain` reports per probe.
//!
//! ## Conservatism invariant
//!
//! Statistics may only **overestimate** what the index can answer, never
//! underestimate:
//!
//! * A full build or fold collects them exactly, and a generation's
//!   pages never change afterwards; inserts get their own exact
//!   statistics from the delta overlay they land in.
//! * Removing a graph leaves statistics untouched — tombstoned rows still
//!   occupy the index, so feasibility stays an upper bound.
//!
//! An index persisted before this file existed simply has no statistics
//! ([`NhIndex::statistics`](crate::NhIndex::statistics) returns `None`)
//! and adds nothing to `explain`'s estimates.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// File name of the persisted statistics, next to `nh.meta.json`.
pub const STATS_FILE: &str = "nh.stats.json";

/// Bump when the statistics layout changes incompatibly; readers ignore
/// files with an unexpected version (treated as "no statistics").
pub const STATS_SCHEMA_VERSION: u32 = 1;

/// Log₂ bucket of a value: 0 → 0, and bucket `i ≥ 1` covers
/// `[2^(i-1), 2^i − 1]`.
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive upper edge of bucket `i`.
fn bucket_hi(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// Per-effective-label statistics over one index's units.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LabelStats {
    /// The effective label (group label under §IV-E).
    pub label: u32,
    /// Indexed units (database nodes) carrying this label.
    pub nodes: u64,
    /// Distinct composite keys under this label.
    pub keys: u64,
    /// Largest unit degree seen for this label — the feasibility bound.
    pub max_degree: u32,
    /// Log₂ degree histogram: `degree_buckets[i]` counts units whose
    /// degree falls in bucket `i` (see `bucket_hi`).
    pub degree_buckets: Vec<u64>,
}

/// Five-number-style summary of a value distribution (nearest-rank
/// percentiles), exact for the generation or overlay it describes.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct SketchSummary {
    /// Values summarized.
    pub count: u64,
    /// Smallest value.
    pub min: u64,
    /// Largest value.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (nearest rank).
    pub p50: u64,
    /// 90th percentile (nearest rank).
    pub p90: u64,
    /// 99th percentile (nearest rank).
    pub p99: u64,
}

impl SketchSummary {
    /// Summary of a weighted value multiset (`(value, weight)` pairs).
    pub fn from_weighted(mut pairs: Vec<(u64, u64)>) -> SketchSummary {
        pairs.retain(|&(_, w)| w > 0);
        if pairs.is_empty() {
            return SketchSummary::default();
        }
        pairs.sort_unstable();
        let total: u64 = pairs.iter().map(|&(_, w)| w).sum();
        let sum: u128 = pairs.iter().map(|&(v, w)| v as u128 * w as u128).sum();
        let pct = |q: f64| -> u64 {
            // nearest-rank (ceil convention) over the expanded multiset
            let rank = ((total as f64) * q).ceil().max(1.0) as u64;
            let mut cum = 0u64;
            for &(v, w) in &pairs {
                cum += w;
                if cum >= rank {
                    return v;
                }
            }
            pairs.last().map(|&(v, _)| v).unwrap_or(0)
        };
        SketchSummary {
            count: total,
            min: pairs.first().map(|&(v, _)| v).unwrap_or(0),
            max: pairs.last().map(|&(v, _)| v).unwrap_or(0),
            mean: sum as f64 / total as f64,
            p50: pct(0.5),
            p90: pct(0.9),
            p99: pct(0.99),
        }
    }
}

/// The persisted per-index statistics (`nh.stats.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IndexStatistics {
    /// [`STATS_SCHEMA_VERSION`] at write time.
    pub schema_version: u32,
    /// Graphs covered by this index.
    pub graph_count: u64,
    /// Indexed units.
    pub node_count: u64,
    /// Distinct composite keys.
    pub key_count: u64,
    /// Largest unit degree across all labels.
    pub max_degree: u32,
    /// Smallest `node_count + edge_count` over covered graphs — a lower
    /// bound on any *remaining* graph's size (removals can only raise the
    /// true minimum). `None` for an empty index.
    pub min_graph_size: Option<u64>,
    /// Per-label statistics, sorted by label.
    pub labels: Vec<LabelStats>,
    /// Posting-list sizes (rows per composite key).
    pub posting_rows: SketchSummary,
    /// Unit degrees.
    pub degrees: SketchSummary,
}

impl IndexStatistics {
    /// The stats for one effective label, if any unit carries it.
    pub fn label(&self, label: u32) -> Option<&LabelStats> {
        self.labels
            .binary_search_by_key(&label, |l| l.label)
            .ok()
            .map(|i| &self.labels[i])
    }

    /// Exact-conservative feasibility of a probe range scan: `true` iff
    /// some indexed unit has this label with degree ≥ `deg_min`
    /// (conditions IV.1/IV.2 lower bound). `false` **proves** the probe
    /// returns no candidate from this index.
    pub fn matchable(&self, label: u32, deg_min: u32) -> bool {
        self.label(label)
            .map(|l| l.max_degree >= deg_min)
            .unwrap_or(false)
    }

    /// Overestimate of posting rows a probe's range scan would visit:
    /// the histogram mass of every degree bucket whose range reaches
    /// `deg_min`. `explain` reports it; no query decision reads it.
    pub fn estimate_rows(&self, label: u32, deg_min: u32) -> u64 {
        let Some(l) = self.label(label) else { return 0 };
        l.degree_buckets
            .iter()
            .enumerate()
            .filter(|&(i, _)| bucket_hi(i) >= deg_min as u64)
            .map(|(_, &c)| c)
            .sum()
    }
}

#[derive(Default)]
struct LabelAgg {
    nodes: u64,
    keys: u64,
    max_degree: u32,
    degree_buckets: Vec<u64>,
}

/// Accumulates exact statistics during a bulk build (or fold — a fold is
/// a bulk build of the surviving graphs).
#[derive(Default)]
pub struct StatsBuilder {
    labels: BTreeMap<u32, LabelAgg>,
    posting_rows: Vec<u64>,
    degrees: Vec<(u64, u64)>,
    min_graph_size: Option<u64>,
    graph_count: u64,
    node_count: u64,
}

impl StatsBuilder {
    /// A fresh, empty builder.
    pub fn new() -> StatsBuilder {
        StatsBuilder::default()
    }

    /// Records one covered graph's size (`nodes + edges`).
    pub fn record_graph(&mut self, nodes: u64, edges: u64) {
        self.graph_count += 1;
        let size = nodes + edges;
        self.min_graph_size = Some(match self.min_graph_size {
            Some(m) => m.min(size),
            None => size,
        });
    }

    /// Records one distinct composite key holding `rows` units.
    pub fn record_key(&mut self, label: u32, degree: u32, rows: u64) {
        self.node_count += rows;
        self.posting_rows.push(rows);
        self.degrees.push((degree as u64, rows));
        let agg = self.labels.entry(label).or_default();
        agg.nodes += rows;
        agg.keys += 1;
        agg.max_degree = agg.max_degree.max(degree);
        let b = bucket_of(degree as u64);
        if agg.degree_buckets.len() <= b {
            agg.degree_buckets.resize(b + 1, 0);
        }
        agg.degree_buckets[b] += rows;
    }

    /// Finalizes into the persistable statistics.
    pub fn finish(self) -> IndexStatistics {
        let labels: Vec<LabelStats> = self
            .labels
            .into_iter()
            .map(|(label, a)| LabelStats {
                label,
                nodes: a.nodes,
                keys: a.keys,
                max_degree: a.max_degree,
                degree_buckets: a.degree_buckets,
            })
            .collect();
        IndexStatistics {
            schema_version: STATS_SCHEMA_VERSION,
            graph_count: self.graph_count,
            node_count: self.node_count,
            key_count: self.posting_rows.len() as u64,
            max_degree: labels.iter().map(|l| l.max_degree).max().unwrap_or(0),
            min_graph_size: self.min_graph_size,
            labels,
            posting_rows: SketchSummary::from_weighted(
                self.posting_rows.iter().map(|&r| (r, 1)).collect(),
            ),
            degrees: SketchSummary::from_weighted(self.degrees),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> IndexStatistics {
        let mut b = StatsBuilder::new();
        b.record_graph(4, 4);
        b.record_graph(3, 3);
        b.record_key(0, 3, 2); // label 0, degree 3, two units
        b.record_key(0, 1, 1);
        b.record_key(1, 2, 3);
        b.finish()
    }

    #[test]
    fn builder_counts() {
        let s = sample();
        assert_eq!(s.graph_count, 2);
        assert_eq!(s.node_count, 6);
        assert_eq!(s.key_count, 3);
        assert_eq!(s.max_degree, 3);
        assert_eq!(s.min_graph_size, Some(6));
        assert_eq!(s.labels.len(), 2);
    }

    #[test]
    fn feasibility_is_exact_on_max_degree() {
        let s = sample();
        assert!(s.matchable(0, 3));
        assert!(!s.matchable(0, 4));
        assert!(s.matchable(1, 0));
        assert!(!s.matchable(7, 0));
    }

    #[test]
    fn estimates_overestimate_and_order() {
        let s = sample();
        // deg_min 0 counts everything under the label
        assert_eq!(s.estimate_rows(0, 0), 3);
        // deg_min 3 excludes at least the degree-1 bucket
        let est3 = s.estimate_rows(0, 3);
        assert!((2..=3).contains(&est3));
        assert_eq!(s.estimate_rows(7, 0), 0);
    }

    #[test]
    fn sketch_percentiles() {
        let s = SketchSummary::from_weighted(vec![(1, 9), (100, 1)]);
        assert_eq!(s.count, 10);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 100);
        assert_eq!(s.p50, 1);
        assert_eq!(s.p99, 100);
        assert!((s.mean - 10.9).abs() < 1e-9);
        assert_eq!(SketchSummary::from_weighted(vec![]).count, 0);
    }

    #[test]
    fn roundtrips_through_json() {
        let s = sample();
        let json = serde_json::to_string(&s).unwrap();
        let back: IndexStatistics = serde_json::from_str(&json).unwrap();
        assert_eq!(back.node_count, s.node_count);
        assert_eq!(back.labels.len(), s.labels.len());
        assert_eq!(back.posting_rows.p50, s.posting_rows.p50);
    }
}
