//! Labeled graph model and graph database for the TALE reproduction.
//!
//! TALE (Tian & Patel, ICDE 2008) operates on databases of large labeled
//! graphs — protein interaction networks, protein-domain contact graphs and
//! the like. This crate provides the substrate the rest of the workspace is
//! built on:
//!
//! * [`Graph`]: an adjacency-list labeled graph with stable, ordered node
//!   ids, O(1) degree lookup, optional direction and optional edge labels
//!   (§III of the paper).
//! * [`GraphDb`]: a collection of graphs with interned label vocabularies
//!   (`Σv`, `Σe`) and stable [`GraphId`]s, plus serde persistence and a
//!   simple line-oriented text format.
//! * [`centrality`]: node-importance measures — degree centrality (the
//!   paper's default), plus the closeness, betweenness and eigenvector
//!   extensions §V-A mentions.
//! * [`neighborhood`]: the induced-neighborhood statistics (degree, neighbor
//!   connection, neighbor label set) that the NH-Index is built from (§IV-A).
//!
//! The crate is deliberately free of any indexing or matching logic; those
//! live in `tale-nhindex` and `tale-matching`.

pub mod centrality;
pub mod db;
pub mod generate;
pub mod graph;
pub mod io;
pub mod labels;
pub mod neighborhood;
pub mod stats;
pub mod wl;

pub use db::{GraphDb, GraphId, LabelBuckets};
pub use graph::{Direction, EdgeId, Graph, NodeId, RingScratch};
pub use labels::{EdgeLabel, LabelInterner, NodeLabel};
pub use neighborhood::{NeighborhoodStats, NodeSignature, SignatureTable};

/// Convenience result alias used across the workspace.
pub type Result<T> = std::result::Result<T, GraphError>;

/// Errors produced by graph construction and I/O.
#[derive(Debug)]
pub enum GraphError {
    /// A node id referenced an absent node.
    NodeOutOfBounds(NodeId),
    /// A graph id referenced an absent graph.
    GraphOutOfBounds(GraphId),
    /// Self loops are rejected: the paper's neighborhood model (degree,
    /// neighbor connection) is defined over simple graphs.
    SelfLoop(NodeId),
    /// The same undirected edge was inserted twice.
    DuplicateEdge(NodeId, NodeId),
    /// Text-format parse failure with 1-based line number.
    Parse { line: usize, msg: String },
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// JSON (de)serialization failure.
    Json(serde_json::Error),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::NodeOutOfBounds(n) => write!(f, "node id {} out of bounds", n.0),
            GraphError::GraphOutOfBounds(g) => write!(f, "graph id {} out of bounds", g.0),
            GraphError::SelfLoop(n) => write!(f, "self loop on node {}", n.0),
            GraphError::DuplicateEdge(u, v) => {
                write!(f, "duplicate edge between nodes {} and {}", u.0, v.0)
            }
            GraphError::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
            GraphError::Io(e) => write!(f, "io error: {e}"),
            GraphError::Json(e) => write!(f, "json error: {e}"),
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            GraphError::Json(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e)
    }
}

impl From<serde_json::Error> for GraphError {
    fn from(e: serde_json::Error) -> Self {
        GraphError::Json(e)
    }
}
