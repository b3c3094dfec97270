//! Shared pieces of the identity suites: a noisy corpus, the
//! bit-identity assertion, and the oracle every configuration of the
//! database is held to.
#![allow(dead_code)] // each suite uses its own subset

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tale::engine::exec;
use tale::{QueryMatch, QueryOptions, TaleParams};
use tale_graph::generate::{gnm, mutate, MutationRates};
use tale_graph::{Graph, GraphDb, GraphId, NodeLabel};
use tale_nhindex::{GenerationalNhIndex, NhIndexConfig, Snapshot};

pub const LABELS: u32 = 6;

/// `n_graphs` noisy copies of random 30-node graphs over [`LABELS`]
/// labels, with the clean originals to query by.
pub fn corpus(seed: u64, n_graphs: usize) -> (GraphDb, Vec<Graph>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut db = GraphDb::new();
    for i in 0..LABELS {
        db.intern_node_label(&format!("L{i}"));
    }
    let mut originals = Vec::new();
    for i in 0..n_graphs {
        let g = gnm(&mut rng, 30, 60, LABELS);
        let (noisy, _) = mutate(&mut rng, &g, &MutationRates::mild(), LABELS);
        db.insert(format!("g{i}"), noisy);
        originals.push(g);
    }
    (db, originals)
}

pub fn assert_bit_identical(a: &[Vec<QueryMatch>], b: &[Vec<QueryMatch>], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: batch size");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.len(), y.len(), "{ctx}: result count for query {i}");
        for (m, n) in x.iter().zip(y) {
            assert_eq!(m.graph, n.graph, "{ctx}: graph order for query {i}");
            assert_eq!(m.graph_name, n.graph_name, "{ctx}: query {i}");
            assert_eq!(
                m.score.to_bits(),
                n.score.to_bits(),
                "{ctx}: score bits for query {i} graph {:?}",
                m.graph
            );
            assert_eq!(m.matched_nodes, n.matched_nodes, "{ctx}: query {i}");
            assert_eq!(m.matched_edges, n.matched_edges, "{ctx}: query {i}");
            assert_eq!(m.m.pairs, n.m.pairs, "{ctx}: pair list for query {i}");
        }
    }
}

/// The reference answer, independent of the database type under test:
/// one [`GenerationalNhIndex`] over the whole database, queried serially
/// and uncached by the staged engine itself. Mutations mirror the
/// database's — an insert lands in the index's delta, a removal is a
/// tombstone — so the oracle follows a mutated database without a
/// rebuild (which would re-derive the neighbor-array scheme).
pub struct Oracle {
    db: GraphDb,
    index: GenerationalNhIndex,
    _dir: tempfile::TempDir,
}

impl Oracle {
    pub fn build(db: GraphDb, params: &TaleParams) -> Oracle {
        let dir = tempfile::tempdir().unwrap();
        let config = NhIndexConfig {
            sbit: params.sbit,
            bloom_hashes: params.bloom_hashes,
            use_edge_labels: params.use_edge_labels,
            ..NhIndexConfig::default()
        };
        let index = GenerationalNhIndex::build(dir.path(), &db, &config).unwrap();
        Oracle {
            db,
            index,
            _dir: dir,
        }
    }

    pub fn intern_node_label(&mut self, name: &str) -> NodeLabel {
        self.db.intern_node_label(name)
    }

    pub fn insert(&mut self, name: &str, g: Graph) -> GraphId {
        let gid = self.db.insert(name, g);
        self.index.insert_graph(&self.db, gid).unwrap();
        gid
    }

    pub fn remove(&self, gid: GraphId) {
        self.index.remove_graph(gid).unwrap();
    }

    /// `queries` under `opts`, run on one thread without the cache.
    pub fn answers(&self, queries: &[&Graph], opts: &QueryOptions) -> Vec<Vec<QueryMatch>> {
        let opts = opts.clone().with_threads(1);
        Snapshot::with_readers(&[self.index.snapshot()], |readers| {
            exec::run_batch(&self.db, readers, None, queries, &opts)
        })
        .unwrap()
        .0
    }
}
