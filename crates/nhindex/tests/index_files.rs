//! The index page files are a stable on-disk format: for a given corpus and
//! configuration, `nh.btree` and `nh.blobs` must come out byte for byte
//! the same, whatever write path produced them. Each case pins an FNV-1a
//! hash of both files.

use std::path::Path;
use tale_graph::{Graph, GraphDb, GraphId};
use tale_nhindex::{NhIndex, NhIndexConfig};

const PAGE: u64 = tale_storage::PAGE_SIZE as u64;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// `(hash of nh.btree, hash of nh.blobs, pages of nh.btree, pages of nh.blobs)`.
fn files(dir: &Path) -> (u64, u64, u64, u64) {
    let bt = std::fs::read(dir.join("nh.btree")).unwrap();
    let bl = std::fs::read(dir.join("nh.blobs")).unwrap();
    (
        fnv1a(&bt),
        fnv1a(&bl),
        bt.len() as u64 / PAGE,
        bl.len() as u64 / PAGE,
    )
}

/// A small pool, so a build that goes through it must evict.
fn config() -> NhIndexConfig {
    NhIndexConfig {
        sbit: 64,
        buffer_frames: 4,
        io_workers: 0,
        ..NhIndexConfig::default()
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seeded random graphs over 30 labels: enough distinct
/// `(label, degree, nbConnection)` keys for a two-level B+-tree.
fn random_corpus(seed: u64) -> GraphDb {
    let mut rng = seed;
    let mut db = GraphDb::new();
    let labels: Vec<_> = (0..30)
        .map(|i| db.intern_node_label(&format!("L{i}")))
        .collect();
    for gi in 0..60 {
        let mut g = Graph::new_undirected();
        let nodes: Vec<_> = (0..40)
            .map(|_| g.add_node(labels[(splitmix(&mut rng) % 30) as usize]))
            .collect();
        for _ in 0..90 {
            let a = nodes[(splitmix(&mut rng) % 40) as usize];
            let b = nodes[(splitmix(&mut rng) % 40) as usize];
            if a != b && !g.has_edge(a, b) {
                g.add_edge(a, b).unwrap();
            }
        }
        db.insert(format!("g{gi}"), g);
    }
    db
}

/// 1 500 copies of one labelled edge: the two keys' postings each span
/// several blob pages.
fn repeated_edge_corpus() -> GraphDb {
    let mut db = GraphDb::new();
    let a = db.intern_node_label("A");
    let b = db.intern_node_label("B");
    for gi in 0..1500 {
        let mut g = Graph::new_undirected();
        let x = g.add_node(a);
        let y = g.add_node(b);
        g.add_edge(x, y).unwrap();
        db.insert(format!("e{gi}"), g);
    }
    db
}

#[test]
fn multi_level_btree_files_are_pinned() {
    let dir = tempfile::tempdir().unwrap();
    let db = random_corpus(7);
    let idx = NhIndex::build(dir.path(), &db, &config()).unwrap();
    assert!(
        idx.key_count() > 408,
        "{} keys fit one leaf",
        idx.key_count()
    );
    let (bt, bl, bt_pages, bl_pages) = files(dir.path());
    assert!(bt_pages >= 3, "a two-level tree has a root and two leaves");
    assert!(bl_pages > 4, "the postings outgrow the pool");
    assert_eq!(
        (bt, bl),
        (0x3326_5efd_2b53_efb0, 0xa98c_0e01_4e6f_74e7),
        "{bt:#018x} {bl:#018x}"
    );
}

#[test]
fn page_spanning_posting_files_are_pinned() {
    let dir = tempfile::tempdir().unwrap();
    let db = repeated_edge_corpus();
    let idx = NhIndex::build(dir.path(), &db, &config()).unwrap();
    assert_eq!(idx.key_count(), 2);
    let (bt, bl, bt_pages, bl_pages) = files(dir.path());
    assert_eq!(bt_pages, 1);
    assert!(bl_pages >= 3, "two postings of 1 500 rows span pages");
    assert_eq!(
        (bt, bl),
        (0x4d65_33de_9c52_ad76, 0x6969_e1cd_fca0_ee78),
        "{bt:#018x} {bl:#018x}"
    );
}

#[test]
fn empty_subset_files_are_pinned() {
    let dir = tempfile::tempdir().unwrap();
    let db = repeated_edge_corpus();
    let none: [GraphId; 0] = [];
    NhIndex::build_subset(dir.path(), &db, &config(), &none).unwrap();
    let (bt, bl, bt_pages, bl_pages) = files(dir.path());
    assert_eq!((bt_pages, bl_pages), (1, 0), "one empty leaf, no postings");
    assert_eq!(
        (bt, bl),
        (0x0822_92e4_35c0_8050, 0xcbf2_9ce4_8422_2325),
        "{bt:#018x} {bl:#018x}"
    );
}
