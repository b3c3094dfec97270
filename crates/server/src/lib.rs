//! `tale-server`: the networked query service over the NH-Index shard
//! seam.
//!
//! The sharded database (`tale-shard`) already splits a corpus into
//! independent per-shard index directories and merges per-shard partials
//! deterministically — bit-identical to a single index at any shard or
//! thread count. This crate moves that scatter/gather boundary behind a
//! network protocol so shards can live on different hosts:
//!
//! * [`wire`] — versioned, length-prefixed request/response framing over
//!   `std::net::TcpStream`, JSON payloads, magic + version handshake that
//!   refuses protocol skew. Scores cross as IEEE-754 bit patterns so the
//!   remote merge is bit-exact.
//! * [`engine`] — [`ShardEngine`]: one shard's database + NH-Index +
//!   result cache behind an RwLock, serving batch queries, mutations
//!   (insert/remove/fold), stats and explain.
//! * [`worker`] — `tale-server shard`: a TCP loop serving one
//!   [`ShardEngine`], one handler thread per connection with a bounded
//!   connection budget.
//! * [`transport`] — the [`ShardTransport`] seam: [`LocalTransport`]
//!   (in-process, the N=1/loopback case) and [`RemoteTransport`]
//!   (pooled persistent connections, handshake verification,
//!   deadline-capped reconnect with decorrelated-jitter backoff).
//! * [`replica`] — [`ReplicaSet`]: N transports serving one shard
//!   behind a single [`ShardTransport`], with per-replica circuit
//!   breakers fed by request outcomes and a background prober, bounded
//!   retries + failover for idempotent requests, and p95-triggered
//!   hedging. Mutations go to the primary exactly once.
//! * [`chaos`] — fault injection: a deterministic [`FaultyTransport`]
//!   and a TCP [`ChaosProxy`] (refuse/black-hole/delay/kill-mid-frame/
//!   truncate/corrupt) driving the chaos test sweep.
//! * [`frontend`] — `tale-server frontend`: fans a client batch out to
//!   one transport per shard, re-ranks the per-shard partials through
//!   the engine's own comparator (`exec::rank_matches`), and applies
//!   admission control ([`admission`]): a bounded in-flight gate with a
//!   bounded wait queue that sheds overload with an explicit
//!   `Overloaded` response — never a silent drop — and propagates
//!   per-request deadlines to workers.
//! * [`counters`] — server observability: accepted/active/shed
//!   connections, queue-depth high-water marks, per-endpoint request
//!   counts, bytes in/out; surfaced on the `stats` endpoint and by
//!   `tale-cli server-stats`.
//!
//! Why the remote path stays bit-identical: each worker runs the full
//! engine pipeline on its one shard via `exec::run_batch` (the N=1 case)
//! and returns its *ranked, top-K-truncated* partials. The gather
//! comparator — score descending, graph id ascending — is a total order
//! over disjoint per-shard graph sets, so concatenating per-shard ranked
//! lists and re-ranking yields exactly the sequence a single in-process
//! run produces, and a shard's own top-K always contains that shard's
//! contribution to the global top-K. The integration tests assert this
//! across shard counts and thread counts.

pub mod admission;
pub mod backoff;
pub mod chaos;
pub mod counters;
pub mod engine;
pub mod frontend;
pub mod replica;
pub mod transport;
pub mod wire;
pub mod worker;

pub use admission::{AdmissionGate, AdmissionOutcome, GateConfig};
pub use chaos::{ChaosProxy, Fault, FaultyTransport};
pub use counters::{ServerCounters, ServerStatsSnapshot};
pub use engine::ShardEngine;
pub use frontend::{Frontend, FrontendConfig};
pub use replica::{ReplicaConfig, ReplicaSet};
pub use transport::{LocalTransport, RemoteConfig, RemoteTransport, ShardTransport};
pub use wire::{Request, Response, WireError, WireGraph, WireOptions, PROTOCOL_VERSION};
pub use worker::{serve_shard, ServerHandle, WorkerConfig};

/// Errors surfaced by the serving layer.
#[derive(Debug)]
pub enum ServerError {
    /// Framing/transport failure.
    Wire(wire::WireError),
    /// Socket-level failure outside the framing layer.
    Io(std::io::Error),
    /// The peer returned a typed error response.
    Remote {
        /// Machine-readable code ([`wire::codes`]).
        code: String,
        /// Human-readable detail.
        message: String,
    },
    /// Request was malformed or semantically invalid.
    BadRequest(String),
    /// Admission control shed the request.
    Overloaded(String),
    /// The request's deadline expired before it could execute.
    DeadlineExceeded,
    /// Sharding/engine failure underneath the server.
    Shard(tale_shard::ShardError),
    /// The peer's handshake didn't match expectations (wrong shard,
    /// vocabulary fingerprint mismatch, …).
    Handshake(String),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Wire(e) => write!(f, "wire: {e}"),
            ServerError::Io(e) => write!(f, "io: {e}"),
            ServerError::Remote { code, message } => write!(f, "remote error [{code}]: {message}"),
            ServerError::BadRequest(m) => write!(f, "bad request: {m}"),
            ServerError::Overloaded(m) => write!(f, "overloaded: {m}"),
            ServerError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ServerError::Shard(e) => write!(f, "shard: {e}"),
            ServerError::Handshake(m) => write!(f, "handshake: {m}"),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Wire(e) => Some(e),
            ServerError::Io(e) => Some(e),
            ServerError::Shard(e) => Some(e),
            _ => None,
        }
    }
}

impl From<wire::WireError> for ServerError {
    fn from(e: wire::WireError) -> Self {
        ServerError::Wire(e)
    }
}

impl From<std::io::Error> for ServerError {
    fn from(e: std::io::Error) -> Self {
        ServerError::Io(e)
    }
}

impl From<tale_shard::ShardError> for ServerError {
    fn from(e: tale_shard::ShardError) -> Self {
        ServerError::Shard(e)
    }
}

impl ServerError {
    /// Maps the failure onto a wire error response.
    pub fn to_error_response(&self) -> wire::ErrorResponse {
        let (code, message) = match self {
            ServerError::Overloaded(m) => (wire::codes::OVERLOADED, m.clone()),
            ServerError::DeadlineExceeded => (wire::codes::DEADLINE_EXCEEDED, self.to_string()),
            ServerError::BadRequest(m) => (wire::codes::BAD_REQUEST, m.clone()),
            ServerError::Remote { code, message } => {
                return wire::ErrorResponse {
                    code: code.clone(),
                    message: message.clone(),
                }
            }
            other => (wire::codes::INTERNAL, other.to_string()),
        };
        wire::ErrorResponse {
            code: code.to_owned(),
            message,
        }
    }

    /// Reconstructs a typed failure from a peer's error response, so
    /// `Overloaded`/`DeadlineExceeded` survive a network hop intact.
    pub fn from_error_response(resp: &wire::ErrorResponse) -> ServerError {
        match resp.code.as_str() {
            wire::codes::OVERLOADED => ServerError::Overloaded(resp.message.clone()),
            wire::codes::DEADLINE_EXCEEDED => ServerError::DeadlineExceeded,
            wire::codes::BAD_REQUEST => ServerError::BadRequest(resp.message.clone()),
            _ => ServerError::Remote {
                code: resp.code.clone(),
                message: resp.message.clone(),
            },
        }
    }
}

/// Result alias.
pub type Result<T> = std::result::Result<T, ServerError>;
