//! Property-based tests (proptest) over the workspace's core invariants.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use tale_graph::graph::{Graph, NodeId};
use tale_graph::labels::NodeLabel;
use tale_matching::bipartite::{matching_weight, max_weight_matching};
use tale_nhindex::bitprobe::{probe_bitsliced, probe_naive, ColumnBitmap};
use tale_nhindex::posting::{NodeRef, Posting};
use tale_nhindex::scheme::NeighborArrayScheme;
use tale_storage::{BTree, BufferPool, CompositeKey, DiskManager};

// ---------------------------------------------------------------- helpers

fn bitmap_strategy() -> impl Strategy<Value = (Vec<Vec<u64>>, Vec<u64>, u32, u32)> {
    // (rows, query, sbit, nbmiss)
    (
        1usize..120,
        prop::sample::select(vec![8u32, 32, 96]),
        0u32..6,
    )
        .prop_flat_map(|(n, sbit, nbmiss)| {
            let words = (sbit as usize).div_ceil(64);
            let mask = if sbit % 64 == 0 {
                u64::MAX
            } else {
                (1u64 << (sbit % 64)) - 1
            };
            let row = prop::collection::vec(any::<u64>(), words).prop_map(move |mut v| {
                let last = v.len() - 1;
                v[last] &= mask;
                v
            });
            (
                prop::collection::vec(row.clone(), n),
                row,
                Just(sbit),
                Just(nbmiss),
            )
        })
}

fn graph_strategy(max_nodes: usize, labels: u32) -> impl Strategy<Value = Graph> {
    (2usize..max_nodes).prop_flat_map(move |n| {
        let labels_vec = prop::collection::vec(0..labels, n);
        let edges = prop::collection::vec((0..n, 0..n), 0..n * 2);
        (labels_vec, edges).prop_map(|(ls, es)| {
            let mut g = Graph::new_undirected();
            for l in ls {
                g.add_node(NodeLabel(l));
            }
            for (u, v) in es {
                if u != v {
                    let _ = g.add_edge(NodeId(u as u32), NodeId(v as u32));
                }
            }
            g
        })
    })
}

// -------------------------------------------------------------- bit probe

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Algorithm 1 must agree exactly with the naive per-row scan
    /// (rows and miss counts) for arbitrary bitmaps and thresholds.
    #[test]
    fn bitsliced_probe_equals_naive((rows, query, sbit, nbmiss) in bitmap_strategy()) {
        let mut bm = ColumnBitmap::new(rows.len(), sbit);
        for (i, row) in rows.iter().enumerate() {
            for j in 0..sbit {
                if row[(j / 64) as usize] >> (j % 64) & 1 == 1 {
                    bm.set(i, j);
                }
            }
        }
        let a = probe_bitsliced(&bm, &query, nbmiss);
        let b = probe_naive(&bm, &query, nbmiss);
        prop_assert_eq!(a.rows, b.rows);
        prop_assert_eq!(a.misses, b.misses);
    }

    /// Monotonicity: raising nbmiss can only add result rows.
    #[test]
    fn probe_monotone_in_threshold((rows, query, sbit, nbmiss) in bitmap_strategy()) {
        let mut bm = ColumnBitmap::new(rows.len(), sbit);
        for (i, row) in rows.iter().enumerate() {
            for j in 0..sbit {
                if row[(j / 64) as usize] >> (j % 64) & 1 == 1 {
                    bm.set(i, j);
                }
            }
        }
        let tight = probe_bitsliced(&bm, &query, nbmiss);
        let loose = probe_bitsliced(&bm, &query, nbmiss + 1);
        let tight_set: std::collections::HashSet<u32> = tight.rows.into_iter().collect();
        let loose_set: std::collections::HashSet<u32> = loose.rows.into_iter().collect();
        prop_assert!(tight_set.is_subset(&loose_set));
    }
}

// -------------------------------------------------------- neighbor arrays

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Bloom arrays never produce false negatives: if the db label set is
    /// a superset of the query's, the miss count is zero.
    #[test]
    fn neighbor_array_superset_no_false_negative(
        q_labels in prop::collection::vec(0u32..5000, 0..20),
        extra in prop::collection::vec(0u32..5000, 0..20),
        sbit in prop::sample::select(vec![16u32, 32, 96]),
    ) {
        let scheme = NeighborArrayScheme { sbit, deterministic: false, hashes: 1 };
        let mut db_labels = q_labels.clone();
        db_labels.extend(extra);
        let q = scheme.array_of(q_labels);
        let db = scheme.array_of(db_labels);
        prop_assert_eq!(NeighborArrayScheme::count_misses(&q, &db), 0);
    }

    /// Misses are bounded by the number of distinct query labels.
    #[test]
    fn miss_count_bounded(
        q_labels in prop::collection::vec(0u32..50, 0..30),
        db_labels in prop::collection::vec(0u32..50, 0..30),
    ) {
        let scheme = NeighborArrayScheme { sbit: 32, deterministic: false, hashes: 1 };
        let q = scheme.array_of(q_labels.iter().copied());
        let db = scheme.array_of(db_labels);
        let mut distinct = q_labels;
        distinct.sort_unstable();
        distinct.dedup();
        prop_assert!(NeighborArrayScheme::count_misses(&q, &db) as usize <= distinct.len());
    }
}

// ----------------------------------------------------------------- B+-tree

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A bulk-loaded disk B+-tree answers point lookups and range scans
    /// exactly like the BTreeMap model it was loaded from.
    #[test]
    fn btree_matches_model(
        ops in prop::collection::vec(((0u32..6, 0u32..40, 0u32..6), any::<u64>()), 1..300),
        lo in (0u32..6, 0u32..40, 0u32..6),
        hi in (0u32..6, 0u32..40, 0u32..6),
    ) {
        let dir = tempfile::tempdir().unwrap();
        let dm = DiskManager::create(&dir.path().join("t.db")).unwrap();
        let model: BTreeMap<CompositeKey, u64> = ops
            .into_iter()
            .map(|((a, b, c), v)| (CompositeKey::new(a, b, c), v))
            .collect();
        let pairs: Vec<(CompositeKey, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        let (root, height) = BTree::bulk_load(&dm, &pairs).unwrap();
        let pool = Arc::new(BufferPool::new(Arc::new(dm), 16)); // tiny pool: force eviction
        let tree = BTree::open(pool, root, height);
        // point lookups
        for (k, v) in &model {
            prop_assert_eq!(tree.get(*k).unwrap(), Some(*v));
        }
        prop_assert_eq!(tree.len().unwrap(), model.len());
        // range scan
        let lo = CompositeKey::new(lo.0, lo.1, lo.2);
        let hi = CompositeKey::new(hi.0, hi.1, hi.2);
        let got = tree.range(lo, hi).unwrap();
        if lo <= hi {
            let want: Vec<(CompositeKey, u64)> =
                model.range(lo..=hi).map(|(k, v)| (*k, *v)).collect();
            prop_assert_eq!(got, want);
        } else {
            prop_assert!(got.is_empty());
        }
    }
}

// ---------------------------------------------------------------- posting

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Posting blobs round-trip bit-exactly through both layouts
    /// (row-major small, column-major large).
    #[test]
    fn posting_roundtrip(
        n in 0usize..80,
        sbit in prop::sample::select(vec![16u32, 32, 64]),
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let words = (sbit as usize).div_ceil(64);
        let mask = if sbit % 64 == 0 { u64::MAX } else { (1u64 << (sbit % 64)) - 1 };
        let refs: Vec<NodeRef> = (0..n)
            .map(|i| NodeRef { graph: rng.gen(), node: i as u32 })
            .collect();
        let rows: Vec<Vec<u64>> = (0..n)
            .map(|_| {
                (0..words)
                    .map(|w| {
                        let v: u64 = rng.gen();
                        if w == words - 1 { v & mask } else { v }
                    })
                    .collect()
            })
            .collect();
        let p = Posting::from_rows(refs, sbit, &rows);
        let bytes = p.encode();
        // encode may pick the WAH layout when smaller; never larger
        prop_assert!(bytes.len() <= Posting::encoded_len(n, sbit));
        let back = Posting::decode(&bytes).unwrap();
        prop_assert_eq!(back, p);
    }
}

// ----------------------------------------------------- bipartite matching

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Hungarian result is a valid matching and optimal vs brute force.
    #[test]
    fn hungarian_is_optimal(
        nl in 1usize..5,
        nr in 1usize..5,
        raw_edges in prop::collection::vec((0usize..5, 0usize..5, 1u32..100), 0..12),
    ) {
        let edges: Vec<(usize, usize, f64)> = raw_edges
            .into_iter()
            .filter(|(l, r, _)| *l < nl && *r < nr)
            .map(|(l, r, w)| (l, r, w as f64))
            .collect();
        let m = max_weight_matching(nl, nr, &edges);
        // validity
        let mut used = vec![false; nr];
        for r in m.iter().flatten() {
            prop_assert!(!used[*r]);
            used[*r] = true;
        }
        // optimality vs exhaustive search
        fn brute(l: usize, nl: usize, used: &mut Vec<bool>, adj: &Vec<Vec<(usize, f64)>>) -> f64 {
            if l == nl {
                return 0.0;
            }
            let mut best = brute(l + 1, nl, used, adj);
            for &(r, w) in &adj[l] {
                if !used[r] {
                    used[r] = true;
                    best = best.max(w + brute(l + 1, nl, used, adj));
                    used[r] = false;
                }
            }
            best
        }
        let mut best_pair = std::collections::HashMap::new();
        for &(l, r, w) in &edges {
            let e: &mut f64 = best_pair.entry((l, r)).or_insert(0.0);
            if w > *e {
                *e = w;
            }
        }
        let mut adj = vec![Vec::new(); nl];
        for (&(l, r), &w) in &best_pair {
            adj[l].push((r, w));
        }
        let mut used = vec![false; nr];
        let opt = brute(0, nl, &mut used, &adj);
        prop_assert!((matching_weight(&edges, &m) - opt).abs() < 1e-6);
    }
}

// ------------------------------------------------------------ grow match

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// GrowMatch on arbitrary graph pairs yields injective, label-
    /// consistent mappings whose queue discipline never panics.
    #[test]
    fn grow_match_invariants(
        q in graph_strategy(20, 4),
        t in graph_strategy(30, 4),
        rho in prop::sample::select(vec![0.0f64, 0.25, 0.5, 1.0]),
    ) {
        use tale_matching::grow::{grow_match, Anchor, GrowConfig, GrowInput};
        let ql = |n: NodeId| q.label(n).0;
        let tl = |n: NodeId| t.label(n).0;
        let input = GrowInput { query: &q, target: &t, q_label: &ql, t_label: &tl };
        let cfg = GrowConfig { rho, hops: 2, match_edge_labels: false };
        // anchor every label-compatible (0, t) pair candidate plus one
        // arbitrary interior pair to stress conflict handling
        let mut anchors = Vec::new();
        for tn in t.nodes() {
            if tl(tn) == ql(NodeId(0)) {
                anchors.push(Anchor { query: NodeId(0), target: tn, quality: 1.0 });
            }
        }
        let m = grow_match(&input, &cfg, &anchors);
        let mut qs = std::collections::HashSet::new();
        let mut ts = std::collections::HashSet::new();
        for p in &m.pairs {
            prop_assert!(qs.insert(p.query));
            prop_assert!(ts.insert(p.target));
            prop_assert_eq!(ql(p.query), tl(p.target));
        }
        prop_assert!(m.matched_edges(&q, &t) <= q.edge_count());
    }
}

// ----------------------------------------------------------- centralities

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Centrality invariants on arbitrary graphs: non-negative scores,
    /// right vector lengths, degree score equals the actual degree.
    #[test]
    fn centrality_invariants(g in graph_strategy(25, 3)) {
        use tale_graph::centrality::{betweenness, closeness, degree, eigenvector};
        let n = g.node_count();
        let d = degree(&g);
        prop_assert_eq!(d.len(), n);
        for node in g.nodes() {
            prop_assert_eq!(d[node.idx()], g.degree(node) as f64);
        }
        for s in [closeness(&g), betweenness(&g), eigenvector(&g, 50, 1e-9)] {
            prop_assert_eq!(s.len(), n);
            prop_assert!(s.iter().all(|v| *v >= -1e-12 && v.is_finite()));
        }
    }

    /// Quality formula stays within [0, 2] for any consistent inputs.
    #[test]
    fn quality_bounds(
        deg in 0u32..50,
        nbc in 0u32..100,
        miss_frac in 0.0f64..=1.0,
        cmiss_frac in 0.0f64..=1.0,
    ) {
        let miss = (deg as f64 * miss_frac) as u32;
        let cmiss = (nbc as f64 * cmiss_frac) as u32;
        let w = tale_graph::neighborhood::node_match_quality(deg, nbc, miss, cmiss);
        prop_assert!((0.0..=2.0).contains(&w), "w = {}", w);
    }
}

// ------------------------------------------------------------ robustness

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The text-format parser must reject or accept arbitrary input
    /// without panicking, and anything it accepts must round-trip.
    #[test]
    fn text_parser_never_panics(input in "\\PC{0,300}") {
        if let Ok(db) = tale_graph::io::read_text(input.as_bytes()) {
            let mut buf = Vec::new();
            tale_graph::io::write_text(&db, &mut buf).unwrap();
            let again = tale_graph::io::read_text(&buf[..]).unwrap();
            prop_assert_eq!(again.len(), db.len());
        }
    }

    /// Posting decode on arbitrary bytes errors gracefully, never panics.
    #[test]
    fn posting_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..600)) {
        let _ = Posting::decode(&bytes);
    }

    /// Structured-looking text inputs parse without panicking.
    #[test]
    fn text_parser_structured_fuzz(
        lines in prop::collection::vec(
            prop_oneof![
                Just("graph g".to_string()),
                Just("v A".to_string()),
                Just("v".to_string()),
                (0u32..10, 0u32..10).prop_map(|(a, b)| format!("e {a} {b}")),
                Just("e x y".to_string()),
                Just("# comment".to_string()),
                Just("".to_string()),
            ],
            0..40,
        )
    ) {
        let input = lines.join("\n");
        let _ = tale_graph::io::read_text(input.as_bytes());
    }
}

// ------------------------------------------------------- wah compression

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// WAH compression round-trips arbitrary bit vectors exactly.
    #[test]
    fn wah_roundtrip(
        nbits in 0usize..2000,
        seed in any::<u64>(),
        density in 0.0f64..=1.0,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let words = nbits.div_ceil(64).max(1);
        let mut bits = vec![0u64; words];
        for i in 0..nbits {
            if rng.gen_bool(density) {
                bits[i / 64] |= 1 << (i % 64);
            }
        }
        let wah = tale_storage::wah::compress(&bits, nbits);
        let back = tale_storage::wah::decompress(&wah, nbits);
        for i in 0..nbits {
            prop_assert_eq!(
                bits[i / 64] >> (i % 64) & 1,
                back[i / 64] >> (i % 64) & 1,
                "bit {} differs", i
            );
        }
        // never larger than one word per 63-bit group
        prop_assert!(wah.len() <= nbits.div_ceil(63).max(1));
    }
}

// ------------------------------------------------------ WL fingerprints

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The WL hash is invariant under node relabeling.
    #[test]
    fn wl_hash_permutation_invariant(
        g in graph_strategy(24, 3),
        seed in any::<u64>(),
    ) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let h = tale_graph::wl::wl_hash(&g, 3);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut perm: Vec<u32> = (0..g.node_count() as u32).collect();
        perm.shuffle(&mut rng);
        let p = tale_graph::wl::permute(&g, &perm);
        prop_assert_eq!(tale_graph::wl::wl_hash(&p, 3), h);
        // structure is preserved by permute itself
        prop_assert_eq!(p.node_count(), g.node_count());
        prop_assert_eq!(p.edge_count(), g.edge_count());
    }

    /// Centrality selection always returns a prefix of the full ranking.
    #[test]
    fn select_important_is_rank_prefix(
        g in graph_strategy(20, 3),
        p_imp in 0.0f64..=1.0,
    ) {
        use tale_graph::centrality::{rank, select_important, ImportanceMeasure};
        let full = rank(&g, ImportanceMeasure::Degree);
        let sel = select_important(&g, ImportanceMeasure::Degree, p_imp);
        prop_assert!(sel.len() <= full.len());
        prop_assert_eq!(&sel[..], &full[..sel.len()]);
        if g.node_count() > 0 {
            prop_assert!(!sel.is_empty());
        }
    }
}
