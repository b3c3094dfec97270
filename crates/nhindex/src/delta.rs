//! The in-memory delta overlay: not-yet-folded inserts, probe-compatible
//! with the on-disk index.
//!
//! Under MVCC (see [`crate::mvcc`]) the on-disk generation is immutable;
//! graphs inserted since it was built live here instead. The overlay is
//! extracted with the *same* code path as the disk index
//! (`NhIndex::extract_graph` under the base generation's scheme) and
//! grouped into the same [`Posting`] structure, but the postings stay in
//! a sorted in-memory vector instead of B+-tree-addressed blobs. Probing
//! runs the disk probe's own bounds and per-posting step (`index::Probe`)
//! over that vector — a range scan over composite keys (conditions
//! IV.1/IV.2/IV.4), then Algorithm 1 on each posting's bitmap (IV.3) — so
//! the engine can treat the overlay as one more index shard: because
//! freshly inserted graph ids are disjoint from the base generation's,
//! concatenating base and delta answers is bit-identical to probing one
//! index holding both (the same disjointness argument the sharded
//! executor relies on).
//!
//! An overlay is immutable once built; each insert publishes a fresh one
//! covering every unfolded member. Removals are *not* the overlay's
//! business — the MVCC snapshot filters removed graphs out of both base
//! and delta answers, which keeps one overlay shareable across remove
//! operations.

use crate::filter;
use crate::index::{Admit, NodeCandidate, Probe, ProbeStats, QuerySignature};
use crate::posting::Posting;
use crate::scheme::NeighborArrayScheme;
use crate::stats::{IndexStatistics, StatsBuilder};
use crate::NhError;
use crate::{NhIndex, Result};
use std::sync::Arc;
use tale_graph::{Graph, GraphDb, GraphId, NodeId};
use tale_storage::CompositeKey;

/// Immutable in-memory postings over the graphs inserted since the
/// current base generation was built.
pub struct DeltaOverlay {
    scheme: NeighborArrayScheme,
    edge_labels: bool,
    /// Graphs held by the overlay.
    graph_count: u32,
    /// `(key, posting, label-pair summary)` sorted by key — the leaf
    /// level of the disk index, without the tree above it (binary search
    /// replaces the descent). The summary is the same fold the disk
    /// index persists in its sidecar (see [`crate::filter`]), computed
    /// inline since the overlay is rebuilt from scratch on publish.
    postings: Vec<(CompositeKey, Posting, u64)>,
    node_count: u64,
    /// Statistics over the overlay's postings — exact, because
    /// every overlay is rebuilt from scratch on publish.
    stats: Arc<IndexStatistics>,
}

impl DeltaOverlay {
    /// Builds the overlay for the listed `graphs` of `db` (the index's
    /// members not yet covered by its base generation), using the base
    /// generation's `scheme` so signatures probe both sides unchanged. An
    /// empty list yields a valid empty overlay.
    pub fn build(
        db: &GraphDb,
        scheme: NeighborArrayScheme,
        edge_labels: bool,
        graphs: &[u32],
    ) -> Result<Self> {
        let mut stats_builder = StatsBuilder::new();
        let mut units = Vec::new();
        for &gid in graphs {
            let g = db.try_graph(GraphId(gid))?;
            stats_builder.record_graph(g.node_count() as u64, g.edge_count() as u64);
            NhIndex::extract_graph(db, gid, g, scheme, edge_labels, &mut units);
        }
        units.sort_unstable_by(|a, b| a.key.cmp(&b.key).then(a.node.cmp(&b.node)));

        let node_count = units.len() as u64;
        let mut postings = Vec::new();
        let mut i = 0;
        while i < units.len() {
            let key = units[i].key;
            let mut j = i;
            while j < units.len() && units[j].key == key {
                j += 1;
            }
            let group = &units[i..j];
            let refs = group.iter().map(|u| u.node).collect();
            let rows: Vec<Vec<u64>> = group.iter().map(|u| u.array.clone()).collect();
            stats_builder.record_key(key.label, key.degree, group.len() as u64);
            let summary = filter::summary_of_rows(&rows);
            postings.push((key, Posting::from_rows(refs, scheme.sbit, &rows), summary));
            i = j;
        }
        Ok(DeltaOverlay {
            scheme,
            edge_labels,
            graph_count: graphs.len() as u32,
            postings,
            node_count,
            stats: Arc::new(stats_builder.finish()),
        })
    }

    /// Exact statistics over the overlay's contents.
    pub fn statistics(&self) -> Arc<IndexStatistics> {
        Arc::clone(&self.stats)
    }

    /// Graphs held by the overlay.
    pub fn graph_count(&self) -> u32 {
        self.graph_count
    }

    /// Indexed nodes held by the overlay.
    pub fn node_count(&self) -> u64 {
        self.node_count
    }

    /// Distinct composite keys held by the overlay.
    pub fn key_count(&self) -> u64 {
        self.postings.len() as u64
    }

    /// The neighbor-array scheme (the base generation's).
    pub fn scheme(&self) -> NeighborArrayScheme {
        self.scheme
    }

    /// Builds a probe signature — identical to the base generation's
    /// [`NhIndex::signature`] because the scheme is shared.
    pub fn signature(
        &self,
        g: &Graph,
        node: NodeId,
        label_of: &dyn Fn(NodeId) -> u32,
    ) -> QuerySignature {
        QuerySignature::of(self.scheme, self.edge_labels, g, node, label_of)
    }

    /// Probes the overlay for `sig` under `rho` with the disk probe's
    /// bounds and per-posting step (conditions IV.1–IV.4, Algorithm 1).
    /// The counters use the same taxonomy; `postings_fetched` counts
    /// postings *visited* even though no disk is involved.
    pub fn probe_with_stats(
        &self,
        sig: &QuerySignature,
        rho: f64,
    ) -> (Vec<NodeCandidate>, ProbeStats) {
        let probe = Probe::new(self.scheme, sig, rho);
        let (lo, hi) = probe.keys();
        let mut stats = ProbeStats::default();
        let mut out = Vec::new();
        let start = self.postings.partition_point(|(key, _, _)| *key < lo);
        for (key, posting, summary) in &self.postings[start..] {
            if *key > hi {
                break;
            }
            match probe.admit(*key, || Some(*summary), &mut stats) {
                Admit::Fetch => probe.collect(*key, posting, &mut stats, &mut out),
                Admit::Filtered => probe.debug_check_filtered(posting),
                Admit::Reject => {}
            }
        }
        (out, stats)
    }

    /// Batch probe, answer order = signature order. The overlay is small
    /// and purely in-memory, so the batch runs serially regardless of
    /// `threads` — results are element-wise identical either way.
    ///
    /// Signatures violating the scheme's width contract (base/delta sbit
    /// skew) surface as a typed error here, matching the disk index's
    /// probe boundary; the infallible
    /// [`DeltaOverlay::probe_with_stats`] would panic in the kernel
    /// instead.
    pub fn probe_batch(
        &self,
        sigs: &[QuerySignature],
        rho: f64,
    ) -> Result<Vec<(Vec<NodeCandidate>, ProbeStats)>> {
        for sig in sigs {
            self.scheme
                .check_query_width(&sig.nb_array)
                .map_err(NhError::Meta)?;
        }
        Ok(sigs.iter().map(|s| self.probe_with_stats(s, rho)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::NhIndexConfig;

    /// Three small labeled graphs over a shared vocabulary.
    fn sample_db() -> GraphDb {
        let mut db = GraphDb::new();
        let a = db.intern_node_label("A");
        let b = db.intern_node_label("B");
        let c = db.intern_node_label("C");
        for i in 0..3u32 {
            let mut g = Graph::new_undirected();
            let n0 = g.add_node(a);
            let n1 = g.add_node(b);
            let n2 = g.add_node(c);
            let n3 = g.add_node(if i % 2 == 0 { a } else { b });
            g.add_edge(n0, n1).unwrap();
            g.add_edge(n1, n2).unwrap();
            g.add_edge(n0, n2).unwrap();
            g.add_edge(n2, n3).unwrap();
            db.insert(format!("g{i}"), g);
        }
        db
    }

    /// The oracle: probing the overlay over a graph list must return
    /// exactly the full index's answer filtered to those graphs —
    /// identical candidates in identical order.
    #[test]
    fn overlay_probe_equals_full_index_filtered() {
        let db = sample_db();
        let dir = tempfile::tempdir().unwrap();
        let config = NhIndexConfig {
            sbit: 32,
            buffer_frames: 64,
            parallel_build: false,
            ..NhIndexConfig::default()
        };
        let full = NhIndex::build(dir.path(), &db, &config).unwrap();
        // a non-contiguous member list, as one shard's delta would be
        let overlay = DeltaOverlay::build(&db, full.scheme(), false, &[0, 2]).unwrap();

        for (gid, _, g) in db.iter() {
            for n in g.nodes() {
                let label_of = |x: NodeId| db.effective_label(gid, x);
                let sig = full.signature(g, n, &label_of);
                for rho in [0.0, 0.25, 0.5] {
                    let want: Vec<NodeCandidate> = full
                        .probe(&sig, rho)
                        .unwrap()
                        .into_iter()
                        .filter(|c| c.node.graph != 1)
                        .collect();
                    let (got, _) = overlay.probe_with_stats(&sig, rho);
                    assert_eq!(got, want, "gid={gid:?} node={n:?} rho={rho}");
                }
            }
        }
    }

    /// The overlay applies the same label-pair pre-filter as the disk
    /// probe: a query bit no delta posting covers skips the posting
    /// (counted, not fetched), with the identical (empty) answer.
    #[test]
    fn overlay_filter_skips_uncoverable_postings() {
        let db = sample_db();
        let dir = tempfile::tempdir().unwrap();
        let config = NhIndexConfig {
            sbit: 32,
            buffer_frames: 64,
            parallel_build: false,
            ..NhIndexConfig::default()
        };
        let full = NhIndex::build(dir.path(), &db, &config).unwrap();
        let overlay = DeltaOverlay::build(&db, full.scheme(), false, &[0, 1, 2]).unwrap();
        // vocab is {A,B,C} = {0,1,2}; neighbor label 3 is in no posting
        let sig = QuerySignature {
            label: 0,
            degree: 1,
            nb_connection: 0,
            nb_array: full.scheme().array_of([3u32]),
        };
        let (hits, stats) = overlay.probe_with_stats(&sig, 0.0);
        assert!(hits.is_empty());
        assert!(stats.postings_filtered > 0, "{stats:?}");
        assert_eq!(stats.postings_fetched, 0, "{stats:?}");
    }

    /// The width contract at the overlay's `probe_batch` boundary —
    /// mirrors `NhIndex`: sbit skew is a typed error, not a silent
    /// under-count.
    #[test]
    fn overlay_probe_batch_rejects_width_skew() {
        let db = sample_db();
        let dir = tempfile::tempdir().unwrap();
        let config = NhIndexConfig {
            sbit: 32,
            buffer_frames: 64,
            parallel_build: false,
            ..NhIndexConfig::default()
        };
        let full = NhIndex::build(dir.path(), &db, &config).unwrap();
        let overlay = DeltaOverlay::build(&db, full.scheme(), false, &[1, 2]).unwrap();
        let g = db.graph(GraphId(0));
        let label_of = |x: NodeId| db.effective_label(GraphId(0), x);
        let good = overlay.signature(g, g.nodes().next().unwrap(), &label_of);

        let mut wide = good.clone();
        wide.nb_array.push(0);
        assert!(overlay.probe_batch(&[wide], 0.5).is_err());

        let mut stray = good.clone();
        stray.nb_array[0] |= 1u64 << 40; // sbit 32: bit 40 is out of range
        assert!(overlay.probe_batch(&[stray], 0.5).is_err());

        assert!(overlay.probe_batch(&[good], 0.5).is_ok());
    }

    #[test]
    fn empty_overlay_answers_nothing() {
        let db = sample_db();
        let dir = tempfile::tempdir().unwrap();
        let config = NhIndexConfig {
            sbit: 32,
            buffer_frames: 64,
            parallel_build: false,
            ..NhIndexConfig::default()
        };
        let full = NhIndex::build(dir.path(), &db, &config).unwrap();
        let overlay = DeltaOverlay::build(&db, full.scheme(), false, &[]).unwrap();
        assert_eq!(overlay.graph_count(), 0);
        assert_eq!(overlay.node_count(), 0);
        let g = db.graph(GraphId(0));
        let label_of = |x: NodeId| db.effective_label(GraphId(0), x);
        let sig = full.signature(g, g.nodes().next().unwrap(), &label_of);
        let (got, stats) = overlay.probe_with_stats(&sig, 0.5);
        assert!(got.is_empty());
        assert_eq!(stats.keys_scanned, 0);
    }
}
