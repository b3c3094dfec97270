//! The wire protocol: versioned, length-prefixed framing over a byte
//! stream, with JSON message payloads.
//!
//! ## Framing
//!
//! Every frame is
//!
//! ```text
//! [magic u32 BE = "TALE"] [version u16 BE] [kind u16 BE] [len u32 BE]
//! [crc32 u32 BE] [payload: len bytes]
//! ```
//!
//! The magic + version header is checked on **every** frame, so a peer
//! speaking a different protocol revision (or not speaking TALE at all)
//! is refused with a clean [`WireError`] instead of a hang, a panic, or a
//! misparse. `len` is capped at [`MAX_FRAME_LEN`]; a header announcing
//! more is rejected before any allocation. A stream that ends mid-frame
//! surfaces as [`WireError::Truncated`]. The `crc32` covers the payload:
//! a flipped bit anywhere in transit — even one that would still parse as
//! valid JSON with a *different* score — is refused as
//! [`WireError::Corrupt`] instead of being served as a wrong answer. The
//! chaos harness (`crate::chaos`) depends on this: its corrupt-one-byte
//! fault must always classify as a typed error, never a silent
//! divergence.
//!
//! `kind` says how to parse the payload: [`KIND_REQUEST`] frames carry a
//! [`Request`], [`KIND_RESPONSE`] frames a [`Response`] (both externally
//! tagged JSON enums). Unknown kinds are refused.
//!
//! ## Bit-exactness
//!
//! Scores and match qualities cross the wire as IEEE-754 **bit patterns**
//! (`f64::to_bits`), never as decimal text, so a remote scatter/gather
//! merges exactly the same `f64` values an in-process run would have —
//! the bit-identity oracle (`ShardedTaleDatabase` vs frontend + workers)
//! depends on it.
//!
//! ## Graphs by label name
//!
//! Graphs cross the wire with **label names**, not vocabulary ids
//! ([`WireGraph`]): every endpoint maps names into its own database
//! vocabulary on receipt, with unknown names mapped to fresh
//! never-matching sentinel ids (the same semantics `tale-cli` uses for
//! query files). This keeps the protocol independent of any particular
//! host's interning order.

use crate::{Result, ServerError};
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};
use tale_graph::labels::{EdgeLabel, NodeLabel};
use tale_graph::{Graph, GraphDb};

/// `"TALE"` in big-endian ASCII — the first four bytes of every frame.
pub const MAGIC: u32 = 0x5441_4C45;

/// Protocol revision. Bumped on any incompatible change to the framing
/// or the message schema; peers with a different version refuse each
/// other at the first frame. v2 added the payload CRC to the frame
/// header (and the replica/degraded message fields); v3 dropped the plan
/// mode from the query options and the pruned-shard counter from the
/// execution stats.
pub const PROTOCOL_VERSION: u16 = 3;

/// Hard cap on a frame's payload length (64 MiB). A header announcing
/// more is treated as garbage, not an allocation request.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// Frame kind: payload parses as a [`Request`].
pub const KIND_REQUEST: u16 = 1;
/// Frame kind: payload parses as a [`Response`].
pub const KIND_RESPONSE: u16 = 2;

/// Fixed frame header size in bytes. The CRC sits in the last four so
/// the magic/version/kind/len offsets are unchanged from v1 — a v1 peer
/// still gets a clean `VersionSkew`, not garbage.
pub const HEADER_LEN: usize = 16;

/// Framing-layer failures. Every variant is a clean, typed refusal —
/// malformed input never hangs or panics the reader.
#[derive(Debug)]
pub enum WireError {
    /// Underlying stream failure.
    Io(std::io::Error),
    /// First four bytes were not the TALE magic.
    BadMagic(u32),
    /// The peer speaks a different protocol revision.
    VersionSkew {
        /// Version the peer announced.
        got: u16,
        /// Version this endpoint speaks ([`PROTOCOL_VERSION`]).
        want: u16,
    },
    /// Unknown frame kind.
    BadKind(u16),
    /// Announced payload length exceeds [`MAX_FRAME_LEN`].
    Oversize(u32),
    /// The stream ended mid-frame.
    Truncated,
    /// The payload failed its header checksum: bytes were damaged in
    /// transit. Refused before any parse attempt.
    Corrupt {
        /// CRC the header announced.
        expected: u32,
        /// CRC of the bytes actually received.
        got: u32,
    },
    /// Payload was not valid JSON for the announced kind.
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "io: {e}"),
            WireError::BadMagic(got) => write!(f, "bad magic {got:#010x} (not a TALE peer)"),
            WireError::VersionSkew { got, want } => {
                write!(
                    f,
                    "protocol version skew: peer speaks v{got}, this end v{want}"
                )
            }
            WireError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::Oversize(len) => {
                write!(f, "frame length {len} exceeds cap {MAX_FRAME_LEN}")
            }
            WireError::Truncated => write!(f, "stream ended mid-frame"),
            WireError::Corrupt { expected, got } => {
                write!(
                    f,
                    "payload checksum mismatch: header says {expected:#010x}, bytes hash to {got:#010x}"
                )
            }
            WireError::Malformed(m) => write!(f, "malformed payload: {m}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Writes one frame; returns the total bytes written (header + payload).
pub fn write_frame(
    w: &mut impl Write,
    kind: u16,
    payload: &[u8],
) -> std::result::Result<usize, WireError> {
    if payload.len() as u64 > MAX_FRAME_LEN as u64 {
        return Err(WireError::Oversize(payload.len() as u32));
    }
    let mut header = [0u8; HEADER_LEN];
    header[0..4].copy_from_slice(&MAGIC.to_be_bytes());
    header[4..6].copy_from_slice(&PROTOCOL_VERSION.to_be_bytes());
    header[6..8].copy_from_slice(&kind.to_be_bytes());
    header[8..12].copy_from_slice(&(payload.len() as u32).to_be_bytes());
    header[12..16].copy_from_slice(&tale_storage::page::crc32(payload).to_be_bytes());
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(HEADER_LEN + payload.len())
}

/// Reads one frame. Returns `Ok(None)` on a clean EOF *before any header
/// byte* (the peer closed between frames); EOF anywhere inside a frame is
/// [`WireError::Truncated`]. On success returns `(kind, payload,
/// bytes_read)`.
pub fn read_frame(
    r: &mut impl Read,
) -> std::result::Result<Option<(u16, Vec<u8>, usize)>, WireError> {
    let mut header = [0u8; HEADER_LEN];
    let mut filled = 0usize;
    while filled < HEADER_LEN {
        let n = r.read(&mut header[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None); // clean close between frames
            }
            return Err(WireError::Truncated);
        }
        filled += n;
    }
    let magic = u32::from_be_bytes(header[0..4].try_into().expect("4 bytes"));
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = u16::from_be_bytes(header[4..6].try_into().expect("2 bytes"));
    if version != PROTOCOL_VERSION {
        return Err(WireError::VersionSkew {
            got: version,
            want: PROTOCOL_VERSION,
        });
    }
    let kind = u16::from_be_bytes(header[6..8].try_into().expect("2 bytes"));
    if kind != KIND_REQUEST && kind != KIND_RESPONSE {
        return Err(WireError::BadKind(kind));
    }
    let len = u32::from_be_bytes(header[8..12].try_into().expect("4 bytes"));
    if len > MAX_FRAME_LEN {
        return Err(WireError::Oversize(len));
    }
    let crc = u32::from_be_bytes(header[12..16].try_into().expect("4 bytes"));
    let mut payload = vec![0u8; len as usize];
    let mut got = 0usize;
    while got < payload.len() {
        let n = r.read(&mut payload[got..])?;
        if n == 0 {
            return Err(WireError::Truncated);
        }
        got += n;
    }
    let actual = tale_storage::page::crc32(&payload);
    if actual != crc {
        return Err(WireError::Corrupt {
            expected: crc,
            got: actual,
        });
    }
    Ok(Some((kind, payload, HEADER_LEN + len as usize)))
}

/// Serializes and writes a [`Request`] frame; returns bytes written.
pub fn write_request(w: &mut impl Write, req: &Request) -> std::result::Result<usize, WireError> {
    let json = serde_json::to_string(req).map_err(|e| WireError::Malformed(e.to_string()))?;
    write_frame(w, KIND_REQUEST, json.as_bytes())
}

/// Serializes and writes a [`Response`] frame; returns bytes written.
pub fn write_response(
    w: &mut impl Write,
    resp: &Response,
) -> std::result::Result<usize, WireError> {
    let json = serde_json::to_string(resp).map_err(|e| WireError::Malformed(e.to_string()))?;
    write_frame(w, KIND_RESPONSE, json.as_bytes())
}

fn parse_payload<T: Deserialize>(payload: &[u8]) -> std::result::Result<T, WireError> {
    let text =
        std::str::from_utf8(payload).map_err(|_| WireError::Malformed("not UTF-8".into()))?;
    serde_json::from_str(text).map_err(|e| WireError::Malformed(e.to_string()))
}

/// Reads one frame and parses it as a [`Request`]. `Ok(None)` = clean
/// close. A [`Response`] frame here is a protocol violation.
pub fn read_request(r: &mut impl Read) -> std::result::Result<Option<(Request, usize)>, WireError> {
    match read_frame(r)? {
        None => Ok(None),
        Some((KIND_REQUEST, payload, n)) => Ok(Some((parse_payload(&payload)?, n))),
        Some((kind, _, _)) => Err(WireError::BadKind(kind)),
    }
}

/// Reads one frame and parses it as a [`Response`]. `Ok(None)` = clean
/// close. A [`Request`] frame here is a protocol violation.
pub fn read_response(
    r: &mut impl Read,
) -> std::result::Result<Option<(Response, usize)>, WireError> {
    match read_frame(r)? {
        None => Ok(None),
        Some((KIND_RESPONSE, payload, n)) => Ok(Some((parse_payload(&payload)?, n))),
        Some((kind, _, _)) => Err(WireError::BadKind(kind)),
    }
}

// ---------------------------------------------------------------------------
// Graphs and options over the wire.
// ---------------------------------------------------------------------------

/// A graph encoded with label *names* instead of vocabulary ids, so it
/// can cross between hosts that interned labels in different orders.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WireGraph {
    /// Whether the graph is directed.
    pub directed: bool,
    /// One label name per node; node id = position.
    pub node_labels: Vec<String>,
    /// Edges as `(u, v)` node-index pairs.
    pub edges: Vec<(u32, u32)>,
    /// Edge label names aligned with `edges` (`None` = unlabeled).
    pub edge_labels: Vec<Option<String>>,
}

impl WireGraph {
    /// Encodes `g`, resolving its label ids through `db`'s vocabularies.
    pub fn from_graph(db: &GraphDb, g: &Graph) -> WireGraph {
        let node_labels = g
            .nodes()
            .map(|n| db.node_vocab().name(g.label(n).0).unwrap_or("?").to_owned())
            .collect();
        let mut edges = Vec::with_capacity(g.edge_count());
        let mut edge_labels = Vec::with_capacity(g.edge_count());
        for (u, v, l) in g.edges() {
            edges.push((u.0, v.0));
            edge_labels.push(l.and_then(|l| db.edge_vocab().name(l.0)).map(str::to_owned));
        }
        WireGraph {
            directed: g.is_directed(),
            node_labels,
            edges,
            edge_labels,
        }
    }

    /// Decodes into `db`'s vocabulary for **querying**: unknown label
    /// names get fresh sentinel ids past the end of the vocabulary, one
    /// per occurrence, so they can never match anything — exactly the
    /// semantics `tale-cli` gives query files with unseen labels.
    pub fn to_query_graph(&self, db: &GraphDb) -> Result<Graph> {
        let mut g = Graph::new(if self.directed {
            tale_graph::graph::Direction::Directed
        } else {
            tale_graph::graph::Direction::Undirected
        });
        let mut next_unknown = db.node_vocab().len() as u32;
        for name in &self.node_labels {
            let id = db.node_vocab().get(name).unwrap_or_else(|| {
                let id = next_unknown;
                next_unknown += 1;
                id
            });
            g.add_node(NodeLabel(id));
        }
        let mut next_unknown_edge = db.edge_vocab().len() as u32;
        self.add_edges(&mut g, |name| {
            db.edge_vocab().get(name).unwrap_or_else(|| {
                let id = next_unknown_edge;
                next_unknown_edge += 1;
                id
            })
        })?;
        Ok(g)
    }

    /// Decodes for **insertion**, interning every label name into `db`'s
    /// vocabularies (append-only, like [`GraphDb::intern_node_label`]).
    pub fn to_inserted_graph(&self, db: &mut tale::ShardedTaleDatabase) -> Result<Graph> {
        let mut g = Graph::new(if self.directed {
            tale_graph::graph::Direction::Directed
        } else {
            tale_graph::graph::Direction::Undirected
        });
        for name in &self.node_labels {
            let l = db.intern_node_label(name);
            g.add_node(l);
        }
        // Intern first (needs &mut db), then wire the edges up.
        let labels: Vec<Option<EdgeLabel>> = self
            .edge_labels
            .iter()
            .map(|l| l.as_ref().map(|name| db.intern_edge_label(name)))
            .collect();
        for (i, &(u, v)) in self.edges.iter().enumerate() {
            let (u, v) = self.check_edge(&g, u, v)?;
            match labels.get(i).copied().flatten() {
                Some(l) => g.add_edge_labeled(u, v, l),
                None => g.add_edge(u, v),
            }
            .map_err(|e| ServerError::BadRequest(format!("edge {i}: {e}")))?;
        }
        Ok(g)
    }

    fn check_edge(
        &self,
        g: &Graph,
        u: u32,
        v: u32,
    ) -> Result<(tale_graph::NodeId, tale_graph::NodeId)> {
        let n = g.node_count() as u32;
        if u >= n || v >= n {
            return Err(ServerError::BadRequest(format!(
                "edge ({u}, {v}) out of range for {n} nodes"
            )));
        }
        Ok((tale_graph::NodeId(u), tale_graph::NodeId(v)))
    }

    fn add_edges(&self, g: &mut Graph, mut edge_label: impl FnMut(&str) -> u32) -> Result<()> {
        if self.edge_labels.len() != self.edges.len() && !self.edge_labels.is_empty() {
            return Err(ServerError::BadRequest(format!(
                "{} edges but {} edge labels",
                self.edges.len(),
                self.edge_labels.len()
            )));
        }
        for (i, &(u, v)) in self.edges.iter().enumerate() {
            let (u, v) = self.check_edge(g, u, v)?;
            match self.edge_labels.get(i).and_then(Option::as_ref) {
                Some(name) => g.add_edge_labeled(u, v, EdgeLabel(edge_label(name))),
                None => g.add_edge(u, v),
            }
            .map_err(|e| ServerError::BadRequest(format!("edge {i}: {e}")))?;
        }
        Ok(())
    }
}

/// [`tale::QueryOptions`] flattened into wire-safe fields. Floats stay
/// `f64` (the JSON layer prints shortest-round-trip decimals, which
/// re-parse to the same bits for finite values); enums and the
/// similarity model travel as their stable names.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WireOptions {
    /// Approximation ratio ρ.
    pub rho: f64,
    /// Important-node fraction.
    pub p_imp: f64,
    /// Importance measure: `degree|closeness|betweenness|eigenvector`
    /// or `random:SEED`.
    pub importance: String,
    /// Extension radius in hops.
    pub hops: u8,
    /// Greedy anchor assignment instead of Hungarian.
    pub greedy_anchors: bool,
    /// Require matched edges to carry equal labels.
    pub match_edge_labels: bool,
    /// Keep only the best K matches.
    pub top_k: Option<u64>,
    /// Worker threads (`0` = one per core). The receiving host clamps it
    /// to its own core count, so a request cannot make a worker start
    /// more threads than it has cores.
    pub threads: u64,
    /// Consult the per-shard result caches.
    pub use_cache: bool,
    /// Similarity model name: `quality|nodes-edges|ctree`.
    pub similarity: String,
}

impl WireOptions {
    /// Encodes in-process options.
    pub fn from_options(opts: &tale::QueryOptions) -> WireOptions {
        use tale::ImportanceMeasure as M;
        WireOptions {
            rho: opts.rho,
            p_imp: opts.p_imp,
            importance: match opts.importance {
                M::Degree => "degree".into(),
                M::Closeness => "closeness".into(),
                M::Betweenness => "betweenness".into(),
                M::Eigenvector => "eigenvector".into(),
                M::Random(seed) => format!("random:{seed}"),
            },
            hops: opts.hops,
            greedy_anchors: opts.greedy_anchors,
            match_edge_labels: opts.match_edge_labels,
            top_k: opts.top_k.map(|k| k as u64),
            threads: opts.threads as u64,
            use_cache: opts.use_cache,
            similarity: opts.similarity.name().to_owned(),
        }
    }

    /// Decodes into runnable options; unknown names are a
    /// [`ServerError::BadRequest`].
    pub fn to_options(&self) -> Result<tale::QueryOptions> {
        use std::sync::Arc;
        use tale::ImportanceMeasure as M;
        let importance = match self.importance.as_str() {
            "degree" => M::Degree,
            "closeness" => M::Closeness,
            "betweenness" => M::Betweenness,
            "eigenvector" => M::Eigenvector,
            other => match other.strip_prefix("random:").and_then(|s| s.parse().ok()) {
                Some(seed) => M::Random(seed),
                None => {
                    return Err(ServerError::BadRequest(format!(
                        "unknown importance measure {other:?}"
                    )))
                }
            },
        };
        let similarity: Arc<dyn tale::SimilarityModel> = match self.similarity.as_str() {
            "quality-sum" | "quality" => Arc::new(tale::QualitySum),
            "matched-nodes+edges" | "nodes-edges" => Arc::new(tale::MatchedNodesEdges),
            "ctree-style" | "ctree" => Arc::new(tale::CTreeStyle),
            other => {
                return Err(ServerError::BadRequest(format!(
                    "unknown similarity model {other:?}"
                )))
            }
        };
        Ok(tale::QueryOptions {
            rho: self.rho,
            p_imp: self.p_imp,
            importance,
            hops: self.hops,
            greedy_anchors: self.greedy_anchors,
            match_edge_labels: self.match_edge_labels,
            top_k: self.top_k.map(|k| k as usize),
            threads: self.threads.min(tale_par::effective_threads(0) as u64) as usize,
            use_cache: self.use_cache,
            similarity,
        })
    }
}

// ---------------------------------------------------------------------------
// Results over the wire.
// ---------------------------------------------------------------------------

/// One committed node match, qualities as IEEE-754 bits.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WirePair {
    /// Query node index.
    pub q: u32,
    /// Database node index.
    pub t: u32,
    /// `f64::to_bits` of the node-match quality.
    pub quality_bits: u64,
}

/// One ranked match, score as IEEE-754 bits so the frontend merge sees
/// exactly the f64 the worker ranked with.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WireMatch {
    /// Matched database graph id.
    pub graph: u32,
    /// Name of the matched graph.
    pub graph_name: String,
    /// `f64::to_bits` of the similarity score.
    pub score_bits: u64,
    /// Matched node count.
    pub matched_nodes: u64,
    /// Preserved query-edge count.
    pub matched_edges: u64,
    /// The node mapping.
    pub pairs: Vec<WirePair>,
}

impl WireMatch {
    /// Encodes an engine match.
    pub fn from_match(m: &tale::QueryMatch) -> WireMatch {
        WireMatch {
            graph: m.graph.0,
            graph_name: m.graph_name.clone(),
            score_bits: m.score.to_bits(),
            matched_nodes: m.matched_nodes as u64,
            matched_edges: m.matched_edges as u64,
            pairs: m
                .m
                .pairs
                .iter()
                .map(|p| WirePair {
                    q: p.query.0,
                    t: p.target.0,
                    quality_bits: p.quality.to_bits(),
                })
                .collect(),
        }
    }

    /// Decodes back into the engine's result type, bit-exactly.
    pub fn to_match(&self) -> tale::QueryMatch {
        tale::QueryMatch {
            graph: tale_graph::GraphId(self.graph),
            graph_name: self.graph_name.clone(),
            score: f64::from_bits(self.score_bits),
            matched_nodes: self.matched_nodes as usize,
            matched_edges: self.matched_edges as usize,
            m: tale_matching::grow::GraphMatch {
                pairs: self
                    .pairs
                    .iter()
                    .map(|p| tale_matching::grow::MatchPair {
                        query: tale_graph::NodeId(p.q),
                        target: tale_graph::NodeId(p.t),
                        quality: f64::from_bits(p.quality_bits),
                    })
                    .collect(),
            },
        }
    }
}

/// One query's ranked matches.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WireMatches {
    /// Ranked matches, best first.
    pub matches: Vec<WireMatch>,
}

/// Per-request execution counters a worker reports back with its
/// partials (summed into the frontend's per-shard attribution).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct WireExecStats {
    /// Disk probes issued.
    pub probes: u64,
    /// B+-tree keys scanned.
    pub keys_scanned: u64,
    /// Posting lists fetched.
    pub postings_fetched: u64,
    /// Postings skipped by the label-pair pre-filter. `serde(default)`
    /// keeps the frame decodable against workers serialized before the
    /// counter existed.
    #[serde(default)]
    pub postings_filtered: u64,
    /// Posting rows examined.
    pub rows_examined: u64,
    /// Candidate (query node, db node) pairs scored.
    pub candidates: u64,
    /// Matches returned (pre-merge).
    pub matches: u64,
    /// Queries answered wholly from this worker's result cache.
    pub cache_hits: u64,
    /// Wall clock of the worker-side batch, seconds.
    pub wall_secs: f64,
}

// ---------------------------------------------------------------------------
// Requests.
// ---------------------------------------------------------------------------

/// Connection handshake. Sent first on every new connection; the reply
/// describes the serving shard so a frontend can refuse a mismatched
/// worker before issuing work.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HelloRequest {
    /// Client's protocol version (also in every frame header; carried in
    /// the body too so the mismatch error can be a proper response).
    pub protocol: u16,
}

/// The batch query API over the wire.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QueryBatchRequest {
    /// Queries, label names resolved at the receiving end.
    pub queries: Vec<WireGraph>,
    /// Execution options.
    pub options: WireOptions,
    /// Milliseconds the client is still willing to wait, from the moment
    /// the request is decoded. Propagated (minus elapsed time) from
    /// frontend to workers; a request whose budget is exhausted before
    /// execution starts is refused with `deadline_exceeded`.
    pub deadline_ms: Option<u64>,
    /// Opt-in graceful degradation: when `true`, a frontend whose
    /// replicas for some shard are all unreachable answers from the
    /// shards it *can* reach and lists the missing shards in
    /// [`QueryBatchResponse::degraded`] — explicitly, never silently.
    /// The default (`false`) keeps the fail-closed contract: any
    /// unreachable shard fails the whole batch with a typed error.
    #[serde(default)]
    pub allow_partial: bool,
}

/// Insert a graph into the serving shard.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InsertRequest {
    /// Name for the new graph.
    pub name: String,
    /// The graph, labels by name (interned on receipt).
    pub graph: WireGraph,
}

/// Tombstone a graph.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RemoveRequest {
    /// Graph id to remove.
    pub graph: u32,
}

/// Fold the serving shard: build its delta and its live (not
/// tombstoned) graphs into the next on-disk generation, dropping dead
/// postings.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FoldRequest {
    /// Reserved; must be `true` (guards against empty-bodied callers).
    pub confirm: bool,
}

/// Fetch server + engine counters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StatsRequest {
    /// Reset nothing; reserved for a future `reset: bool`.
    pub reserved: bool,
}

/// Liveness probe.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HealthRequest {
    /// Reserved.
    pub reserved: bool,
}

/// Render the plan the engine would choose for one query.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExplainRequest {
    /// The query.
    pub query: WireGraph,
    /// Options the plan should assume.
    pub options: WireOptions,
}

/// Every request the protocol carries (externally tagged JSON).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Request {
    /// Handshake.
    Hello(HelloRequest),
    /// Batch query.
    QueryBatch(QueryBatchRequest),
    /// Graph insert.
    Insert(InsertRequest),
    /// Graph removal.
    Remove(RemoveRequest),
    /// Shard compaction.
    Fold(FoldRequest),
    /// Counter snapshot.
    Stats(StatsRequest),
    /// Liveness.
    Health(HealthRequest),
    /// Plan rendering.
    Explain(ExplainRequest),
}

impl Request {
    /// Short endpoint name for per-endpoint request counters.
    pub fn endpoint(&self) -> &'static str {
        match self {
            Request::Hello(_) => "hello",
            Request::QueryBatch(_) => "query",
            Request::Insert(_) => "insert",
            Request::Remove(_) => "remove",
            Request::Fold(_) => "fold",
            Request::Stats(_) => "stats",
            Request::Health(_) => "health",
            Request::Explain(_) => "explain",
        }
    }
}

// ---------------------------------------------------------------------------
// Responses.
// ---------------------------------------------------------------------------

/// Handshake reply.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HelloResponse {
    /// Server protocol version.
    pub protocol: u16,
    /// Shard this endpoint serves (`u32::MAX` for a frontend).
    pub shard: u32,
    /// Total shards in the layout this endpoint belongs to.
    pub shard_count: u32,
    /// Graphs in the server's database.
    pub graphs: u64,
    /// FNV-64 fingerprint of the server's label vocabulary — two
    /// endpoints serving the same corpus must agree.
    pub vocab_fingerprint: u64,
}

/// Batch query reply: per-query ranked partials plus execution counters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QueryBatchResponse {
    /// One entry per request query, aligned by position.
    pub results: Vec<WireMatches>,
    /// Worker/frontend execution counters for this request.
    pub stats: WireExecStats,
    /// Shards whose results are **missing** from this answer because
    /// every replica was unreachable and the request opted into
    /// [`QueryBatchRequest::allow_partial`]. Empty on any complete
    /// answer; a non-empty list is the explicit "this is partial"
    /// marker — a client that did not opt in never sees one.
    #[serde(default)]
    pub degraded: Vec<u32>,
}

/// Mutation reply.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MutateResponse {
    /// Whether the mutation was applied here.
    pub applied: bool,
    /// For a refused `Remove`: the shard that actually owns the graph.
    pub owner: Option<u32>,
    /// For `Insert`: the id assigned to the new graph.
    pub graph: Option<u32>,
    /// For `Fold`: live graphs built into the new generation.
    pub folded_graphs: Option<u64>,
    /// For `Fold`: tombstones whose postings the fold dropped.
    pub dropped_tombstones: Option<u64>,
}

/// Counter snapshot reply (see [`crate::counters::ServerStatsSnapshot`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StatsResponse {
    /// The server's counters.
    pub server: crate::counters::ServerStatsSnapshot,
}

/// One replica's health as seen by a frontend's circuit breakers
/// (embedded in [`HealthResponse::replicas`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReplicaHealthInfo {
    /// Shard this replica serves.
    pub shard: u32,
    /// Replica ordinal within its shard's group (0 = primary).
    pub replica: u32,
    /// Transport description (address for a remote, `local:N` in-proc).
    pub address: String,
    /// Breaker state: `closed`, `open`, or `half-open`.
    pub state: String,
    /// Consecutive failures feeding the breaker.
    pub consecutive_failures: u64,
    /// Requests this replica has served successfully.
    pub successes: u64,
    /// Requests this replica has failed at the transport layer.
    pub failures: u64,
}

/// Liveness reply.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HealthResponse {
    /// Always `true` from a serving process.
    pub ok: bool,
    /// Seconds since the server started.
    pub uptime_secs: f64,
    /// Requests currently executing.
    pub inflight: u64,
    /// Requests currently queued at the admission gate.
    pub queued: u64,
    /// Per-replica breaker states, present when the answering endpoint
    /// is a frontend with replica groups (empty from a plain worker).
    #[serde(default)]
    pub replicas: Vec<ReplicaHealthInfo>,
}

/// Plan-rendering reply.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExplainResponse {
    /// `PlanReport::render` text.
    pub rendered: String,
}

/// Machine-readable error codes (the `code` field of [`ErrorResponse`]).
pub mod codes {
    /// Admission control shed the request; retry later.
    pub const OVERLOADED: &str = "overloaded";
    /// The request's deadline expired before execution.
    pub const DEADLINE_EXCEEDED: &str = "deadline_exceeded";
    /// The request was malformed or semantically invalid.
    pub const BAD_REQUEST: &str = "bad_request";
    /// This endpoint cannot serve the request (e.g. a mutation sent to a
    /// multi-shard frontend, or a remove for a graph another shard owns).
    pub const UNSUPPORTED: &str = "unsupported";
    /// Execution failed server-side.
    pub const INTERNAL: &str = "internal";
}

/// Typed failure reply. Load shedding is **always** one of these with
/// [`codes::OVERLOADED`] — never a silent drop or a closed socket.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ErrorResponse {
    /// One of [`codes`].
    pub code: String,
    /// Human-readable detail.
    pub message: String,
}

/// Every response the protocol carries (externally tagged JSON).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Response {
    /// Handshake reply.
    Hello(HelloResponse),
    /// Batch query reply.
    QueryBatch(QueryBatchResponse),
    /// Mutation reply.
    Mutate(MutateResponse),
    /// Counter snapshot.
    Stats(StatsResponse),
    /// Liveness reply.
    Health(HealthResponse),
    /// Plan rendering.
    Explain(ExplainResponse),
    /// Typed failure.
    Error(ErrorResponse),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        let n = write_frame(&mut buf, KIND_REQUEST, b"{}").unwrap();
        assert_eq!(n, buf.len());
        let (kind, payload, m) = read_frame(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!((kind, payload.as_slice(), m), (KIND_REQUEST, &b"{}"[..], n));
        // clean EOF between frames
        assert!(read_frame(&mut [].as_slice()).unwrap().is_none());
    }

    #[test]
    fn header_refusals() {
        // wrong magic
        let mut bad = Vec::new();
        write_frame(&mut bad, KIND_REQUEST, b"x").unwrap();
        bad[0] = 0x00;
        assert!(matches!(
            read_frame(&mut bad.as_slice()),
            Err(WireError::BadMagic(_))
        ));
        // version skew
        let mut skew = Vec::new();
        write_frame(&mut skew, KIND_REQUEST, b"x").unwrap();
        skew[5] = PROTOCOL_VERSION as u8 + 1;
        assert!(matches!(
            read_frame(&mut skew.as_slice()),
            Err(WireError::VersionSkew { .. })
        ));
        // oversize
        let mut big = Vec::new();
        write_frame(&mut big, KIND_REQUEST, b"x").unwrap();
        big[8..12].copy_from_slice(&(MAX_FRAME_LEN + 1).to_be_bytes());
        assert!(matches!(
            read_frame(&mut big.as_slice()),
            Err(WireError::Oversize(_))
        ));
        // truncation inside the payload
        let mut cut = Vec::new();
        write_frame(&mut cut, KIND_REQUEST, b"hello").unwrap();
        cut.truncate(cut.len() - 2);
        assert!(matches!(
            read_frame(&mut cut.as_slice()),
            Err(WireError::Truncated)
        ));
    }

    #[test]
    fn corrupt_payload_is_refused() {
        // Every single-byte flip — payload or the CRC field itself —
        // must be a typed Corrupt refusal, never a parse of damaged
        // bytes. `{"k":3}` would still be valid JSON with the 3 flipped
        // to a 7; the checksum is what catches that class.
        let mut good = Vec::new();
        write_frame(&mut good, KIND_REQUEST, br#"{"k":3}"#).unwrap();
        for i in 12..good.len() {
            for bit in [0x01u8, 0x80] {
                let mut bad = good.clone();
                bad[i] ^= bit;
                assert!(
                    matches!(
                        read_frame(&mut bad.as_slice()),
                        Err(WireError::Corrupt { .. })
                    ),
                    "flip at byte {i} was not refused"
                );
            }
        }
        // the pristine frame still reads
        let (_, payload, _) = read_frame(&mut good.as_slice()).unwrap().unwrap();
        assert_eq!(payload, br#"{"k":3}"#);
    }

    #[test]
    fn score_bits_roundtrip() {
        for v in [0.0f64, -0.0, 1.5, f64::MIN_POSITIVE, 1.0 / 3.0, 1e300] {
            let m = WireMatch {
                graph: 7,
                graph_name: "g".into(),
                score_bits: v.to_bits(),
                matched_nodes: 1,
                matched_edges: 0,
                pairs: vec![],
            };
            let json = serde_json::to_string(&m).unwrap();
            let back: WireMatch = serde_json::from_str(&json).unwrap();
            assert_eq!(back.to_match().score.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn options_roundtrip() {
        let opts = tale::QueryOptions::default().with_top_k(5).with_threads(3);
        let wire = WireOptions::from_options(&opts);
        let json = serde_json::to_string(&wire).unwrap();
        let back: WireOptions = serde_json::from_str(&json).unwrap();
        let decoded = back.to_options().unwrap();
        assert_eq!(decoded.rho.to_bits(), opts.rho.to_bits());
        assert_eq!(decoded.p_imp.to_bits(), opts.p_imp.to_bits());
        assert_eq!(decoded.top_k, Some(5));
        assert_eq!(decoded.threads, 3.min(tale_par::effective_threads(0)));
        assert_eq!(decoded.similarity.name(), opts.similarity.name());
        // the engine's cache/options fingerprint must agree across hosts
        assert_eq!(
            tale::options_fingerprint(&decoded),
            tale::options_fingerprint(&opts)
        );
    }

    #[test]
    fn remote_thread_count_is_clamped_to_local_cores() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut wire = WireOptions::from_options(&tale::QueryOptions::default());
        wire.threads = u64::MAX;
        let json = serde_json::to_string(&wire).unwrap();
        let back: WireOptions = serde_json::from_str(&json).unwrap();
        assert_eq!(back.threads, u64::MAX);
        assert!(back.to_options().unwrap().threads <= cores);
        // 0 still means one per core
        wire.threads = 0;
        assert_eq!(wire.to_options().unwrap().threads, 0);
    }
}
