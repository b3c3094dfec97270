//! NH-Index internals explorer: shows the hybrid index structure,
//! persistence layout and probe-time pruning statistics (§IV of the
//! paper) on a small synthetic database.
//!
//! ```text
//! cargo run --release --example index_explorer
//! ```

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tale::{TaleDatabase, TaleParams};
use tale_graph::generate::preferential_attachment;
use tale_graph::{GraphDb, NodeId};
use tale_nhindex::IndexReader;

fn main() {
    // Build a small database of power-law graphs over a 12-label alphabet.
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let mut db = GraphDb::new();
    for i in 0..12 {
        db.intern_node_label(&format!("L{i:02}"));
    }
    for i in 0..8 {
        let g = preferential_attachment(&mut rng, 300, 2, 0.9, 12);
        db.insert(format!("g{i}"), g);
    }

    // Persist to an explicit directory so the on-disk layout is visible.
    let dir = std::env::temp_dir().join(format!("tale-explorer-{}", std::process::id()));
    let params = TaleParams {
        sbit: 32,
        ..TaleParams::default()
    };
    let tale = TaleDatabase::build(db, &dir, &params).expect("build");

    // The database directory holds the graph store, the MVCC manifest and
    // one immutable generation directory per on-disk index version.
    println!("== index layout ({}) ==", dir.display());
    let mut listing = Vec::new();
    let mut walk = vec![dir.clone()];
    while let Some(d) = walk.pop() {
        for entry in std::fs::read_dir(&d).expect("read dir") {
            let e = entry.expect("entry");
            if e.file_type().expect("file type").is_dir() {
                walk.push(e.path());
            } else {
                let rel = e.path().strip_prefix(&dir).expect("child").to_owned();
                let len = e.metadata().map(|m| m.len()).unwrap_or(0);
                listing.push((rel, len));
            }
        }
    }
    listing.sort();
    for (rel, len) in listing {
        println!("  {:24} {:>10} bytes", rel.display(), len);
    }
    let idx = tale.index();
    println!("\n== index statistics ==");
    println!("  indexing units (db nodes) : {}", idx.node_count());
    println!("  distinct (label,deg,nbc)  : {}", idx.key_count());
    println!(
        "  scheme                    : Sbit={} {}",
        idx.scheme().sbit,
        if idx.scheme().deterministic {
            "deterministic bit array"
        } else {
            "Bloom-hashed bit array"
        }
    );

    // Probe a few nodes of graph 0 at different approximation levels and
    // show how the conditions prune.
    let db = tale.db(); // Arc clone of the current published GraphDb
    let g0 = db.graph(tale_graph::GraphId(0));
    let label_of = |n: NodeId| db.effective_label(tale_graph::GraphId(0), n);
    // pick the highest-degree node (an "important" node) and a leaf
    let hub = g0
        .nodes()
        .max_by_key(|&n| g0.degree(n))
        .expect("non-empty graph");
    let leaf = g0
        .nodes()
        .filter(|&n| g0.degree(n) >= 1)
        .min_by_key(|&n| g0.degree(n))
        .expect("graph has edges");

    println!(
        "\n== probe pruning (hub: degree {}, leaf: degree {}) ==",
        g0.degree(hub),
        g0.degree(leaf)
    );
    println!("  node  rho  keys-scanned  postings  rows-examined  candidates");
    // Queries pin an MVCC snapshot and probe its base generation plus the
    // in-memory delta overlay (empty here — nothing inserted since build).
    let snap = idx.snapshot();
    for (name, node) in [("hub ", hub), ("leaf", leaf)] {
        for rho in [0.0, 0.25, 0.5] {
            let sig = idx.signature(g0, node, &label_of);
            let sigs = std::slice::from_ref(&sig);
            let mut base = snap.base_reader().probe_batch(sigs, rho, 1).expect("probe");
            let delta = snap
                .delta_reader()
                .probe_batch(sigs, rho, 1)
                .expect("probe");
            let (ref mut hits, ref mut stats) = base[0];
            let (dh, ds) = &delta[0];
            hits.extend(dh.iter().copied());
            *stats += *ds;
            println!(
                "  {}  {:.2}  {:12}  {:8}  {:13}  {:10}",
                name,
                rho,
                stats.keys_scanned,
                stats.postings_fetched,
                stats.rows_examined,
                hits.len()
            );
        }
    }
    println!("\nNote how the hub's rich neighborhood keeps its candidate list");
    println!("short even at rho=0.5 — the pruning power that makes important-");
    println!("node-first matching work (§IV-A, §V-A).");

    // Reopen from disk to demonstrate persistence.
    drop(tale);
    let reopened = TaleDatabase::open(&dir, 1024).expect("reopen");
    println!(
        "\nreopened from disk: {} graphs, {} indexed nodes — OK",
        reopened.db().len(),
        reopened.index().node_count()
    );
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}
