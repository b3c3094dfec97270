//! Termination of the anchor refinement (`refine_assignment`).
//!
//! A pair move used to be judged on the two moved nodes' own conserved
//! edge counts, which both include the query edges between the pair; a
//! move could then trade a conserved edge elsewhere for that double count,
//! and a later move undo it, forever. This instance — two ASTRAL-like
//! contact maps queried with a third — cycled that way.

use std::sync::{mpsc, Arc};
use std::time::Duration;
use tale::{CTreeStyle, QueryOptions, TaleDatabase, TaleParams};
use tale_datasets::contact::{ContactDataset, ContactSpec, AMINO_ACIDS};
use tale_graph::{GraphDb, GraphId};

#[test]
fn refinement_terminates_on_a_cycling_instance() {
    let data = ContactDataset::generate(
        20080407,
        &ContactSpec {
            families: 30,
            ..ContactSpec::default()
        },
    );
    let mut db = GraphDb::new();
    for a in 0..AMINO_ACIDS {
        db.intern_node_label(&format!("aa{a:02}"));
    }
    for gid in [57, 85] {
        let id = GraphId(gid);
        db.insert(data.db.name(id), data.db.graph(id).clone());
    }
    let query = data.db.graph(GraphId(209)).clone();
    let opts = QueryOptions::astral()
        .with_top_k(20)
        .with_similarity(Arc::new(CTreeStyle))
        .with_cache(false)
        .with_threads(1);

    // Run on a worker so that a regression fails the test instead of
    // hanging the suite.
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let tale = TaleDatabase::build_in_temp(db, &TaleParams::astral()).unwrap();
        tx.send(tale.query(&query, &opts).unwrap()).unwrap();
    });
    let matches = rx
        .recv_timeout(Duration::from_secs(120))
        .expect("query did not return: anchor refinement is cycling");
    assert_eq!(matches.len(), 2);
}
