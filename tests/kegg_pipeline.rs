//! End-to-end directed-graph pipeline over the KEGG-like dataset: index
//! build, self-retrieval, family retrieval, and tombstone removal on
//! directed pathway graphs.

use tale::{QueryOptions, TaleDatabase, TaleParams};
use tale_datasets::kegg::{KeggDataset, KeggSpec};
use tale_graph::GraphId;

fn spec() -> KeggSpec {
    KeggSpec {
        families: 15,
        variants_per_family: 6,
        mean_compounds: 25,
        compound_alphabet: 200,
        reaction_alphabet: 30,
    }
}

#[test]
fn directed_pathways_self_retrieve() {
    let ds = KeggDataset::generate(21, &spec());
    let tale = TaleDatabase::build_in_temp(ds.db.clone(), &TaleParams::bind()).unwrap();
    for &q in &ds.pick_queries(1, 5) {
        let qg = ds.db.graph(q);
        let res = tale.query(qg, &QueryOptions::bind().with_top_k(3)).unwrap();
        assert!(!res.is_empty(), "no result for {q:?}");
        assert_eq!(res[0].graph, q, "self should rank first");
        // mutation can leave disconnected fragments with no important
        // node, which the anchor-and-grow heuristic won't reach — most of
        // the graph must still match
        assert!(
            res[0].matched_nodes * 10 >= qg.node_count() * 7,
            "only {}/{} nodes self-matched",
            res[0].matched_nodes,
            qg.node_count()
        );
        assert!(
            res[0].matched_edges * 10 >= qg.edge_count() * 6,
            "only {}/{} edges self-matched",
            res[0].matched_edges,
            qg.edge_count()
        );
    }
}

#[test]
fn family_members_outrank_strangers() {
    let ds = KeggDataset::generate(22, &spec());
    let tale = TaleDatabase::build_in_temp(ds.db.clone(), &TaleParams::bind()).unwrap();
    let mut good = 0;
    let queries = ds.pick_queries(2, 6);
    for &q in &queries {
        let qg = ds.db.graph(q);
        let fam = ds.family(q);
        let res = tale.query(qg, &QueryOptions::bind().with_top_k(4)).unwrap();
        // among the top non-self hits, family members should dominate
        let relevant = res
            .iter()
            .filter(|r| r.graph != q)
            .take(3)
            .filter(|r| ds.family(r.graph) == fam)
            .count();
        if relevant >= 2 {
            good += 1;
        }
    }
    assert!(
        good >= queries.len() - 1,
        "family retrieval weak: {good}/{} queries",
        queries.len()
    );
}

#[test]
fn removal_works_on_directed_graphs() {
    let ds = KeggDataset::generate(23, &spec());
    let mut tale = TaleDatabase::build_in_temp(ds.db.clone(), &TaleParams::bind()).unwrap();
    let q = ds.pick_queries(3, 1)[0];
    let qg = ds.db.graph(q).clone();
    let before = tale.query(&qg, &QueryOptions::bind()).unwrap();
    assert!(before.iter().any(|r| r.graph == q));
    tale.remove_graph(q).unwrap();
    let after = tale.query(&qg, &QueryOptions::bind()).unwrap();
    assert!(
        after.iter().all(|r| r.graph != q),
        "tombstoned graph returned"
    );
    // siblings in the family still retrievable
    let fam = ds.family(q);
    assert!(
        after.iter().any(|r| ds.family(r.graph) == fam),
        "family siblings lost"
    );
}

#[test]
fn incremental_insert_on_directed_graphs() {
    let ds = KeggDataset::generate(24, &spec());
    // build over all but the last graph, then add it incrementally
    let mut partial = tale_graph::GraphDb::new();
    for (_, name) in ds.db.node_vocab().iter() {
        partial.intern_node_label(name);
    }
    let n = ds.db.len();
    for (id, name, g) in ds.db.iter().take(n - 1) {
        let _ = id;
        partial.insert(name.to_owned(), g.clone());
    }
    let mut tale = TaleDatabase::build_in_temp(partial, &TaleParams::bind()).unwrap();
    let last = GraphId(n as u32 - 1);
    let last_graph = ds.db.graph(last).clone();
    let gid = tale
        .insert_graph(ds.db.name(last).to_owned(), last_graph.clone())
        .unwrap();
    let res = tale
        .query(&last_graph, &QueryOptions::bind().with_top_k(2))
        .unwrap();
    assert_eq!(
        res[0].graph, gid,
        "inserted pathway should self-match first"
    );
    assert!(
        res[0].matched_nodes * 10 >= last_graph.node_count() * 7,
        "only {}/{} nodes matched after incremental insert",
        res[0].matched_nodes,
        last_graph.node_count()
    );
}
