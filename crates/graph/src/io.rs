//! Graph database persistence.
//!
//! Three formats:
//! * **JSON** via serde — lossless round trip of a whole [`GraphDb`]
//!   including vocabularies and group maps.
//! * A [`GraphRecord`] per inserted graph — what a database's append-only
//!   graph log holds after its JSON base.
//! * A **line-oriented text format** for human-editable fixtures, one block
//!   per graph:
//!
//!   ```text
//!   graph <name> [directed]
//!   v <label-name> ...            # one line per node, id = position
//!   e <u> <v> [edge-label]        # one line per edge
//!   ```

use crate::db::{GraphDb, GraphId};
use crate::graph::{Direction, Graph, NodeId};
use crate::{GraphError, Result};
use serde::{Deserialize, Serialize};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;
use std::sync::Arc;

/// Serializes a [`GraphDb`] as JSON to `w`.
pub fn write_json<W: Write>(db: &GraphDb, w: W) -> Result<()> {
    let mut w = BufWriter::new(w);
    serde_json::to_writer(&mut w, db)?;
    w.flush()?;
    Ok(())
}

/// Deserializes a [`GraphDb`] from JSON.
pub fn read_json<R: Read>(r: R) -> Result<GraphDb> {
    Ok(serde_json::from_reader(BufReader::new(r))?)
}

/// Saves a db as JSON at `path`, atomically: the bytes are staged in a
/// temp sibling, fsynced, and renamed into place, so a crash mid-save
/// leaves the previous file intact rather than a truncated one.
pub fn save_json(db: &GraphDb, path: &Path) -> Result<()> {
    let mut buf = Vec::new();
    write_json(db, &mut buf)?;
    tale_storage::atomic::write_atomic(path, &buf)?;
    Ok(())
}

/// Loads a JSON db from `path`.
pub fn load_json(path: &Path) -> Result<GraphDb> {
    read_json(std::fs::File::open(path)?)
}

/// One inserted graph as the graph log stores it: enough to replay the
/// insert onto the database as it stood before — the graph, its name, the
/// labels interned since the previous record, and (sharded layout) the
/// shard that owns it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GraphRecord {
    /// Name the graph was inserted under.
    pub name: Arc<str>,
    /// The graph itself.
    pub graph: Arc<Graph>,
    /// Node labels interned since the previous record, in id order.
    pub node_labels: Vec<String>,
    /// Edge labels interned since the previous record, in id order.
    pub edge_labels: Vec<String>,
    /// The owning shard, in the sharded layout.
    #[serde(default)]
    pub shard: Option<u32>,
}

impl GraphRecord {
    /// The record of graph `gid` of `db`, carrying every label past the
    /// first `vocab.0` node and `vocab.1` edge labels. The graph is shared,
    /// not copied.
    pub fn of(db: &GraphDb, gid: GraphId, vocab: (usize, usize), shard: Option<u32>) -> Self {
        let (name, graph) = db.shared(gid);
        let since = |v: &crate::LabelInterner, from: usize| {
            v.iter()
                .skip(from)
                .map(|(_, n)| n.to_owned())
                .collect::<Vec<_>>()
        };
        GraphRecord {
            name: Arc::clone(name),
            graph: Arc::clone(graph),
            node_labels: since(db.node_vocab(), vocab.0),
            edge_labels: since(db.edge_vocab(), vocab.1),
            shard,
        }
    }

    /// The record's bytes (JSON).
    pub fn encode(&self) -> Vec<u8> {
        serde_json::to_string(self)
            .expect("records serialize")
            .into_bytes()
    }

    /// Parses bytes written by [`GraphRecord::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let text = std::str::from_utf8(bytes).map_err(|e| GraphError::Parse {
            line: 0,
            msg: format!("graph record is not UTF-8: {e}"),
        })?;
        Ok(serde_json::from_str(text)?)
    }

    /// Replays the insert onto `db`: interns the record's labels, each of
    /// which must be new there (so it gets back the id it had), then
    /// inserts the graph. Returns its id.
    pub fn apply(self, db: &mut GraphDb) -> Result<GraphId> {
        let stale = |kind: &str, name: &str| GraphError::Parse {
            line: 0,
            msg: format!(
                "graph record {:?} re-interns {kind} label {name:?}",
                self.name
            ),
        };
        for name in &self.node_labels {
            let fresh = db.node_vocab().len() as u32;
            if db.intern_node_label(name).0 != fresh {
                return Err(stale("node", name));
            }
        }
        for name in &self.edge_labels {
            let fresh = db.edge_vocab().len() as u32;
            if db.intern_edge_label(name).0 != fresh {
                return Err(stale("edge", name));
            }
        }
        Ok(db.insert_shared(self.name, self.graph))
    }
}

/// Writes the text format described in the module docs.
pub fn write_text<W: Write>(db: &GraphDb, w: W) -> Result<()> {
    let mut w = BufWriter::new(w);
    for (id, name, g) in db.iter() {
        let _ = id;
        if g.is_directed() {
            writeln!(w, "graph {name} directed")?;
        } else {
            writeln!(w, "graph {name}")?;
        }
        for n in g.nodes() {
            let lbl = db.node_vocab().name(g.label(n).0).unwrap_or("?");
            writeln!(w, "v {lbl}")?;
        }
        for (u, v, l) in g.edges() {
            match l.and_then(|l| db.edge_vocab().name(l.0)) {
                Some(el) => writeln!(w, "e {} {} {}", u.0, v.0, el)?,
                None => writeln!(w, "e {} {}", u.0, v.0)?,
            }
        }
    }
    w.flush()?;
    Ok(())
}

/// Parses the text format into a fresh [`GraphDb`].
pub fn read_text<R: Read>(r: R) -> Result<GraphDb> {
    let mut db = GraphDb::new();
    let mut current: Option<(String, Graph)> = None;
    for (lineno, line) in BufReader::new(r).lines().enumerate() {
        let lineno = lineno + 1;
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let tag = parts.next().unwrap();
        match tag {
            "graph" => {
                if let Some((name, g)) = current.take() {
                    db.insert(name, g);
                }
                let name = parts
                    .next()
                    .ok_or_else(|| GraphError::Parse {
                        line: lineno,
                        msg: "graph line needs a name".into(),
                    })?
                    .to_owned();
                let dir = match parts.next() {
                    Some("directed") => Direction::Directed,
                    Some(other) => {
                        return Err(GraphError::Parse {
                            line: lineno,
                            msg: format!("unknown graph modifier {other:?}"),
                        })
                    }
                    None => Direction::Undirected,
                };
                current = Some((name, Graph::new(dir)));
            }
            "v" => {
                let (_, g) = current.as_mut().ok_or_else(|| GraphError::Parse {
                    line: lineno,
                    msg: "node before any graph header".into(),
                })?;
                let lbl = parts.next().ok_or_else(|| GraphError::Parse {
                    line: lineno,
                    msg: "v line needs a label".into(),
                })?;
                let lbl = db.intern_node_label(lbl);
                g.add_node(lbl);
            }
            "e" => {
                let (_, g) = current.as_mut().ok_or_else(|| GraphError::Parse {
                    line: lineno,
                    msg: "edge before any graph header".into(),
                })?;
                let parse_id = |s: Option<&str>| -> Result<NodeId> {
                    let s = s.ok_or_else(|| GraphError::Parse {
                        line: lineno,
                        msg: "e line needs two node ids".into(),
                    })?;
                    let v: u32 = s.parse().map_err(|_| GraphError::Parse {
                        line: lineno,
                        msg: format!("bad node id {s:?}"),
                    })?;
                    Ok(NodeId(v))
                };
                let u = parse_id(parts.next())?;
                let v = parse_id(parts.next())?;
                match parts.next() {
                    Some(el) => {
                        let el = db.intern_edge_label(el);
                        g.add_edge_labeled(u, v, el)
                    }
                    None => g.add_edge(u, v),
                }
                .map_err(|e| GraphError::Parse {
                    line: lineno,
                    msg: e.to_string(),
                })?;
            }
            other => {
                return Err(GraphError::Parse {
                    line: lineno,
                    msg: format!("unknown line tag {other:?}"),
                })
            }
        }
    }
    if let Some((name, g)) = current.take() {
        db.insert(name, g);
    }
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::NodeLabel;

    fn sample_db() -> GraphDb {
        let mut db = GraphDb::new();
        let a = db.intern_node_label("ALA");
        let b = db.intern_node_label("GLY");
        let strong = db.intern_edge_label("strong");
        let mut g = Graph::new_undirected();
        let n0 = g.add_node(a);
        let n1 = g.add_node(b);
        let n2 = g.add_node(a);
        g.add_edge_labeled(n0, n1, strong).unwrap();
        g.add_edge(n1, n2).unwrap();
        db.insert("g0", g);
        let mut d = Graph::new_directed();
        let x = d.add_node(b);
        let y = d.add_node(a);
        d.add_edge(x, y).unwrap();
        db.insert("g1", d);
        db
    }

    #[test]
    fn json_roundtrip() {
        let db = sample_db();
        let mut buf = Vec::new();
        write_json(&db, &mut buf).unwrap();
        let back = read_json(&buf[..]).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.name(crate::GraphId(0)), "g0");
        let g = back.graph(crate::GraphId(0));
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.label(NodeId(0)), NodeLabel(0));
        assert!(back.graph(crate::GraphId(1)).is_directed());
    }

    #[test]
    fn text_roundtrip() {
        let db = sample_db();
        let mut buf = Vec::new();
        write_text(&db, &mut buf).unwrap();
        let back = read_text(&buf[..]).unwrap();
        assert_eq!(back.len(), 2);
        let g0 = back.graph(crate::GraphId(0));
        assert_eq!(g0.node_count(), 3);
        assert_eq!(g0.edge_count(), 2);
        assert_eq!(back.node_vocab().name(g0.label(NodeId(0)).0), Some("ALA"));
        let e = g0.edge_between(NodeId(0), NodeId(1)).unwrap();
        let el = g0.edge_label(e).unwrap();
        assert_eq!(back.edge_vocab().name(el.0), Some("strong"));
        assert!(back.graph(crate::GraphId(1)).is_directed());
    }

    #[test]
    fn text_parse_errors_carry_line_numbers() {
        let bad = "graph g\nv A\ne 0 5\n";
        let err = read_text(bad.as_bytes()).unwrap_err();
        match err {
            GraphError::Parse { line, .. } => assert_eq!(line, 3),
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn text_rejects_orphan_lines() {
        assert!(read_text("v A\n".as_bytes()).is_err());
        assert!(read_text("e 0 1\n".as_bytes()).is_err());
        assert!(read_text("wat\n".as_bytes()).is_err());
    }

    #[test]
    fn text_skips_comments_and_blanks() {
        let src = "# fixture\n\ngraph g\nv A\nv B\n\ne 0 1\n";
        let db = read_text(src.as_bytes()).unwrap();
        assert_eq!(db.graph(crate::GraphId(0)).edge_count(), 1);
    }

    #[test]
    fn record_replays_an_insert_with_its_new_labels() {
        let mut db = sample_db();
        let base = db.clone();
        let vocab = (db.node_vocab().len(), db.edge_vocab().len());
        let fresh = db.intern_node_label("SER");
        let weak = db.intern_edge_label("weak");
        let mut g = Graph::new_undirected();
        let a = g.add_node(fresh);
        let b = g.add_node(NodeLabel(0));
        g.add_edge_labeled(a, b, weak).unwrap();
        let gid = db.insert("g2", g);

        let rec = GraphRecord::of(&db, gid, vocab, Some(3));
        assert_eq!(rec.node_labels, vec!["SER".to_owned()]);
        assert_eq!(rec.edge_labels, vec!["weak".to_owned()]);
        let back = GraphRecord::decode(&rec.encode()).unwrap();
        assert_eq!(back.shard, Some(3));
        let mut replayed = base.clone();
        assert_eq!(back.clone().apply(&mut replayed).unwrap(), gid);
        let (mut x, mut y) = (Vec::new(), Vec::new());
        write_json(&db, &mut x).unwrap();
        write_json(&replayed, &mut y).unwrap();
        assert_eq!(x, y, "replay differs from the live insert");

        // a label the database already holds would get another id: refused
        let mut clash = base;
        clash.intern_node_label("SER");
        assert!(back.apply(&mut clash).is_err());
        assert!(GraphRecord::decode(b"{\"name\":1}").is_err());
    }

    #[test]
    fn file_roundtrip() {
        let db = sample_db();
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("db.json");
        save_json(&db, &path).unwrap();
        let back = load_json(&path).unwrap();
        assert_eq!(back.len(), db.len());
    }
}
