//! Protocol-layer contract tests: framing survives arbitrary payloads,
//! and every malformed input — wrong magic, version skew, truncation,
//! garbage — is refused with a clean typed error (over a live socket:
//! an explicit error response, then a close), never a hang or a panic.

use proptest::prelude::*;
use std::io::Write;
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;
use tale::TaleParams;
use tale_graph::GraphDb;
use tale_server::engine::{EngineConfig, ShardEngine};
use tale_server::wire::{
    self, read_frame, write_frame, HelloRequest, QueryBatchRequest, Request, Response, WireError,
    WireGraph, WireOptions, KIND_REQUEST, MAX_FRAME_LEN, PROTOCOL_VERSION,
};
use tale_server::worker::{serve_shard, ServerHandle, WorkerConfig};
use tale_shard::{HashPolicy, ShardedTaleDatabase};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Frames round-trip any payload byte-for-byte.
    #[test]
    fn frame_roundtrips_arbitrary_payloads(payload in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let mut buf = Vec::new();
        let wrote = write_frame(&mut buf, KIND_REQUEST, &payload).unwrap();
        prop_assert_eq!(wrote, buf.len());
        let (kind, got, read) = read_frame(&mut buf.as_slice()).unwrap().unwrap();
        prop_assert_eq!(kind, KIND_REQUEST);
        prop_assert_eq!(got, payload);
        prop_assert_eq!(read, wrote);
    }

    /// A frame cut anywhere — inside the header or the payload — reads
    /// back as a clean `Truncated`, never a hang or a bogus success.
    #[test]
    fn any_truncation_is_a_clean_error(len in 1usize..600, cut in 0usize..612) {
        let payload = vec![0xA5u8; len];
        let mut buf = Vec::new();
        write_frame(&mut buf, KIND_REQUEST, &payload).unwrap();
        let cut = cut.min(buf.len().saturating_sub(1));
        buf.truncate(cut);
        match read_frame(&mut buf.as_slice()) {
            Ok(None) => prop_assert_eq!(cut, 0, "clean EOF is only legal before any byte"),
            Err(WireError::Truncated) => prop_assert!(cut > 0),
            other => prop_assert!(false, "unexpected outcome {:?}", other.map(|_| "frame")),
        }
    }
}

/// Empty and multi-MiB payloads round-trip (the explicit size corners
/// the proptest distribution rarely reaches).
#[test]
fn frame_roundtrips_zero_and_multi_mib_payloads() {
    for size in [0usize, 1, 1024 * 1024 + 1, 3 * 1024 * 1024] {
        let payload: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
        let mut buf = Vec::new();
        write_frame(&mut buf, KIND_REQUEST, &payload).unwrap();
        let (_, got, _) = read_frame(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!(got.len(), size);
        assert_eq!(got, payload, "size {size}");
    }
    // The cap is enforced on write too.
    let too_big = vec![0u8; MAX_FRAME_LEN as usize + 1];
    assert!(matches!(
        write_frame(&mut Vec::new(), KIND_REQUEST, &too_big),
        Err(WireError::Oversize(_))
    ));
}

// ---------------------------------------------------------------------------
// Live-socket refusals against a real worker.
// ---------------------------------------------------------------------------

fn tiny_worker(dir: &Path) -> ServerHandle {
    let mut db = GraphDb::new();
    let a = db.intern_node_label("A");
    let b = db.intern_node_label("B");
    let mut g = tale_graph::Graph::new(tale_graph::Direction::Undirected);
    let n0 = g.add_node(a);
    let n1 = g.add_node(b);
    g.add_edge(n0, n1).unwrap();
    db.insert("g0", g);
    drop(ShardedTaleDatabase::build(db, dir, &TaleParams::default(), 1, &HashPolicy).unwrap());
    let engine = ShardEngine::open(dir, 0, EngineConfig::default()).unwrap();
    serve_shard(
        Arc::new(engine),
        "127.0.0.1:0".parse().unwrap(),
        WorkerConfig::default(),
    )
    .unwrap()
}

fn expect_error_code(stream: &mut TcpStream, want: &str, ctx: &str) {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    match wire::read_response(stream) {
        Ok(Some((Response::Error(e), _))) => {
            assert_eq!(
                e.code, want,
                "{ctx}: unexpected code, message {:?}",
                e.message
            )
        }
        other => panic!("{ctx}: expected an error response, got {other:?}"),
    }
}

/// A version-skewed hello is refused with an explicit error response —
/// the server does not hang, parse the frame, or silently close.
#[test]
fn version_skew_is_refused_with_an_explicit_error() {
    let dir = tempfile::tempdir().unwrap();
    let handle = tiny_worker(dir.path());
    let mut stream = TcpStream::connect(handle.addr()).unwrap();

    // A well-formed hello frame, with the version field bumped.
    let mut buf = Vec::new();
    let req = Request::Hello(HelloRequest {
        protocol: PROTOCOL_VERSION + 1,
    });
    wire::write_request(&mut buf, &req).unwrap();
    buf[5] = (PROTOCOL_VERSION + 1) as u8;
    stream.write_all(&buf).unwrap();
    stream.flush().unwrap();
    expect_error_code(&mut stream, wire::codes::BAD_REQUEST, "frame version skew");

    // A fresh connection with correct framing but a skewed body is also
    // refused (belt and braces: the body check yields a typed response).
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    wire::write_request(&mut stream, &req).unwrap();
    expect_error_code(&mut stream, wire::codes::INTERNAL, "handshake body skew");
}

/// A peer still on protocol v2 — whose query options carried a plan
/// mode — is refused at the frame header with the typed version-skew
/// error, before its payload is parsed: a v2 hello and a v2 query batch
/// never reach the decoder, and a live worker answers with an explicit
/// error naming both versions.
#[test]
fn v2_peer_is_refused_with_a_typed_version_skew() {
    let as_v2 = |body: &str| {
        let mut buf = Vec::new();
        write_frame(&mut buf, KIND_REQUEST, body.as_bytes()).unwrap();
        buf[4..6].copy_from_slice(&2u16.to_be_bytes());
        buf
    };
    let hello =
        as_v2(&serde_json::to_string(&Request::Hello(HelloRequest { protocol: 2 })).unwrap());
    let v3_batch = serde_json::to_string(&Request::QueryBatch(QueryBatchRequest {
        queries: Vec::new(),
        options: WireOptions::from_options(&tale::QueryOptions::default()),
        deadline_ms: None,
        allow_partial: false,
    }))
    .unwrap();
    let v2_batch = v3_batch.replacen(r#""options":{"#, r#""options":{"plan":"cost","#, 1);
    assert_ne!(v2_batch, v3_batch, "the v2 body carries a plan mode");
    let batch = as_v2(&v2_batch);
    for (what, frame) in [("hello", &hello), ("query batch", &batch)] {
        match wire::read_request(&mut frame.as_slice()) {
            Err(WireError::VersionSkew { got: 2, want }) => assert_eq!(want, PROTOCOL_VERSION),
            other => panic!("v2 {what}: expected a version skew, got {other:?}"),
        }
    }

    let dir = tempfile::tempdir().unwrap();
    let handle = tiny_worker(dir.path());
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.write_all(&hello).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    match wire::read_response(&mut stream) {
        Ok(Some((Response::Error(e), _))) => {
            assert_eq!(e.code, wire::codes::BAD_REQUEST, "{}", e.message);
            let named = format!("peer speaks v2, this end v{PROTOCOL_VERSION}");
            assert!(e.message.contains(&named), "{}", e.message);
        }
        other => panic!("v2 hello over TCP: expected an error response, got {other:?}"),
    }
}

/// Garbage bytes get an explicit error response and a close.
#[test]
fn garbage_frames_are_refused_cleanly() {
    let dir = tempfile::tempdir().unwrap();
    let handle = tiny_worker(dir.path());

    // Not even a TALE magic.
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    expect_error_code(&mut stream, wire::codes::BAD_REQUEST, "bad magic");

    // Valid header, payload that is not JSON.
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let mut buf = Vec::new();
    write_frame(&mut buf, KIND_REQUEST, b"\xff\xfe not json").unwrap();
    stream.write_all(&buf).unwrap();
    expect_error_code(&mut stream, wire::codes::BAD_REQUEST, "non-JSON payload");

    // Oversize length announcement: refused before any allocation.
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let mut header = Vec::new();
    write_frame(&mut header, KIND_REQUEST, b"x").unwrap();
    header[8..12].copy_from_slice(&(MAX_FRAME_LEN + 7).to_be_bytes());
    stream.write_all(&header[..wire::HEADER_LEN]).unwrap();
    expect_error_code(&mut stream, wire::codes::BAD_REQUEST, "oversize header");

    // The server is still healthy after all that abuse.
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    wire::write_request(
        &mut stream,
        &Request::Hello(HelloRequest {
            protocol: PROTOCOL_VERSION,
        }),
    )
    .unwrap();
    match wire::read_response(&mut stream).unwrap() {
        Some((Response::Hello(h), _)) => assert_eq!(h.shard, 0),
        other => panic!("expected hello, got {other:?}"),
    }
}

/// A request whose deadline budget is already exhausted is refused with
/// `deadline_exceeded` — it never reaches the engine.
#[test]
fn exhausted_deadline_is_refused() {
    let dir = tempfile::tempdir().unwrap();
    let handle = tiny_worker(dir.path());
    let mut stream = TcpStream::connect(handle.addr()).unwrap();

    let query = WireGraph {
        directed: false,
        node_labels: vec!["A".into(), "B".into()],
        edges: vec![(0, 1)],
        edge_labels: vec![None],
    };
    let req = Request::QueryBatch(QueryBatchRequest {
        queries: vec![query],
        options: WireOptions::from_options(&tale::QueryOptions::default()),
        deadline_ms: Some(0),
        allow_partial: false,
    });
    wire::write_request(&mut stream, &req).unwrap();
    expect_error_code(
        &mut stream,
        wire::codes::DEADLINE_EXCEEDED,
        "zero deadline budget",
    );
}
