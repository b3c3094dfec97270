//! End-to-end contract of the serving layer, over real loopback TCP:
//!
//! * **Bit identity** — a batch run through frontend + shard workers
//!   (each a separate TCP server) returns exactly the ranked answers the
//!   in-process [`ShardedTaleDatabase`] produces, across shard counts
//!   and thread counts — including through a second TCP hop
//!   (raw client socket → frontend server → workers).
//! * **Worker death** — killing a worker mid-deployment fails the whole
//!   batch with the typed `ShardError::Transport { shard, .. }` (never a
//!   partial merge), and the frontend recovers on its own — reconnect
//!   with backoff — once the worker is back on the same address.
//! * **Saturation** — past the admission gate's limits, requests are
//!   shed with an explicit `Overloaded`, visible in the shed counter.
//! * **Served mutations** — insert, remove and fold through a worker land
//!   in the same generational state, and answer identically, as the same
//!   script applied in process; a restarted worker picks it all up.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tale::{QueryMatch, QueryOptions, TaleParams};
use tale_graph::generate::{gnm, mutate, MutationRates};
use tale_graph::{Graph, GraphDb};
use tale_server::engine::{EngineConfig, ShardEngine};
use tale_server::transport::{RemoteConfig, RemoteTransport, ShardTransport};
use tale_server::wire::{
    self, FoldRequest, HelloResponse, InsertRequest, QueryBatchRequest, QueryBatchResponse,
    RemoveRequest, Request, Response, StatsRequest, WireExecStats, WireGraph, WireMatch,
    WireOptions, PROTOCOL_VERSION,
};
use tale_server::worker::{serve, serve_shard, ServerHandle, WorkerConfig};
use tale_server::{Frontend, FrontendConfig, GateConfig, ServerError};
use tale_shard::{HashPolicy, ShardError, ShardedTaleDatabase};

const LABELS: u32 = 6;

fn corpus(seed: u64, n_graphs: usize) -> (GraphDb, Vec<Graph>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut db = GraphDb::new();
    for i in 0..LABELS {
        db.intern_node_label(&format!("L{i}"));
    }
    let mut originals = Vec::new();
    for i in 0..n_graphs {
        let g = gnm(&mut rng, 30, 60, LABELS);
        let (noisy, _) = mutate(&mut rng, &g, &MutationRates::mild(), LABELS);
        db.insert(format!("g{i}"), noisy);
        originals.push(g);
    }
    (db, originals)
}

fn assert_bit_identical(a: &[Vec<QueryMatch>], b: &[Vec<QueryMatch>], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: batch size");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.len(), y.len(), "{ctx}: result count for query {i}");
        for (m, n) in x.iter().zip(y) {
            assert_eq!(m.graph, n.graph, "{ctx}: graph order for query {i}");
            assert_eq!(m.graph_name, n.graph_name, "{ctx}: query {i}");
            assert_eq!(
                m.score.to_bits(),
                n.score.to_bits(),
                "{ctx}: score bits for query {i} graph {:?}",
                m.graph
            );
            assert_eq!(m.matched_nodes, n.matched_nodes, "{ctx}: query {i}");
            assert_eq!(m.matched_edges, n.matched_edges, "{ctx}: query {i}");
            assert_eq!(m.m.pairs, n.m.pairs, "{ctx}: pair list for query {i}");
        }
    }
}

/// One TCP server per shard of the database at `dir`, on ephemeral ports.
fn start_workers(dir: &Path, nshards: usize) -> Vec<ServerHandle> {
    (0..nshards)
        .map(|s| {
            let engine = ShardEngine::open(dir, s as u32, EngineConfig::default()).unwrap();
            serve_shard(
                Arc::new(engine),
                "127.0.0.1:0".parse().unwrap(),
                WorkerConfig::default(),
            )
            .unwrap()
        })
        .collect()
}

fn frontend_over(handles: &[ServerHandle]) -> Frontend {
    let transports: Vec<Arc<dyn ShardTransport>> = handles
        .iter()
        .enumerate()
        .map(|(i, h)| {
            RemoteTransport::new(h.addr(), i as u32, RemoteConfig::default())
                as Arc<dyn ShardTransport>
        })
        .collect();
    Frontend::new(transports, FrontendConfig::default()).unwrap()
}

fn wire_batch(db: &GraphDb, queries: &[Graph], opts: &QueryOptions) -> QueryBatchRequest {
    QueryBatchRequest {
        queries: queries
            .iter()
            .map(|g| WireGraph::from_graph(db, g))
            .collect(),
        options: WireOptions::from_options(opts),
        deadline_ms: None,
        allow_partial: false,
    }
}

fn decode(resp: &QueryBatchResponse) -> Vec<Vec<QueryMatch>> {
    resp.results
        .iter()
        .map(|wm| wm.matches.iter().map(WireMatch::to_match).collect())
        .collect()
}

/// The tentpole oracle: frontend + workers over loopback TCP vs the
/// in-process sharded database, across shards × threads.
/// Also drives one batch per shard count through a *served* frontend via
/// a raw client socket, covering the full two-hop path.
#[test]
fn remote_execution_is_bit_identical_to_in_process() {
    let (db, originals) = corpus(91, 6);
    let params = TaleParams::default();
    let queries: Vec<&Graph> = originals.iter().collect();

    for &nshards in &[1usize, 2, 4] {
        let dir = tempfile::tempdir().unwrap();
        let sharded =
            ShardedTaleDatabase::build(db.clone(), dir.path(), &params, nshards, &HashPolicy)
                .unwrap();
        let handles = start_workers(dir.path(), nshards);
        let frontend = Arc::new(frontend_over(&handles));

        for &threads in &[0usize, 4] {
            let ctx = format!("shards={nshards} threads={threads}");
            let opts = QueryOptions {
                rho: 0.25,
                p_imp: 0.25,
                threads,
                ..QueryOptions::default()
            }
            .with_cache(false);
            let expected = sharded.query_batch(&queries, &opts).unwrap();
            let req = wire_batch(&db, &originals, &opts);
            let resp = frontend.query_batch(&req, Instant::now()).unwrap();
            assert_bit_identical(&expected, &decode(&resp), &ctx);
        }

        // Full client path: raw socket -> served frontend -> workers.
        let served = serve(
            Arc::clone(&frontend) as Arc<dyn tale_server::worker::Service>,
            "127.0.0.1:0".parse().unwrap(),
            WorkerConfig::default(),
        )
        .unwrap();
        let opts = QueryOptions {
            rho: 0.25,
            p_imp: 0.25,
            ..QueryOptions::default()
        }
        .with_cache(false);
        let expected = sharded.query_batch(&queries, &opts).unwrap();
        let mut client = std::net::TcpStream::connect(served.addr()).unwrap();
        wire::write_request(
            &mut client,
            &Request::QueryBatch(wire_batch(&db, &originals, &opts)),
        )
        .unwrap();
        match wire::read_response(&mut client).unwrap() {
            Some((Response::QueryBatch(resp), _)) => assert_bit_identical(
                &expected,
                &decode(&resp),
                &format!("shards={nshards} via client socket"),
            ),
            other => panic!("expected a batch response, got {other:?}"),
        }

        // Each server's counters over the wire: the stats endpoint
        // answers and counts this fetch, the queries and the bytes.
        let servers = handles.iter().map(|h| ("worker", h.addr()));
        for (i, (role, addr)) in servers.chain([("frontend", served.addr())]).enumerate() {
            let mut stream = std::net::TcpStream::connect(addr).unwrap();
            let req = Request::Stats(StatsRequest { reserved: false });
            wire::write_request(&mut stream, &req).unwrap();
            let s = match wire::read_response(&mut stream).unwrap() {
                Some((Response::Stats(s), _)) => s.server,
                other => panic!("expected stats, got {other:?}"),
            };
            let ctx = format!("shards={nshards} {role} {i}");
            assert!(s.requests_query >= 1, "{ctx} served no queries");
            assert_eq!(s.requests_stats, 1, "{ctx}: stats endpoint");
            assert!(s.bytes_in > 0 && s.bytes_out > 0, "{ctx}: byte counters");
        }
    }
}

/// Restarts a worker for `shard` on the exact address it died on,
/// retrying the bind while the kernel clears the dead incarnation's
/// lingering sockets.
fn restart_worker(dir: &Path, shard: u32, addr: SocketAddr) -> ServerHandle {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let engine = ShardEngine::open(dir, shard, EngineConfig::default()).unwrap();
        match serve_shard(Arc::new(engine), addr, WorkerConfig::default()) {
            Ok(h) => return h,
            Err(e) if Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => panic!("could not rebind {addr}: {e}"),
        }
    }
}

/// Worker death fails the whole batch with the typed transport error —
/// naming the dead shard, never a partial merge — and the frontend's
/// reconnect-with-backoff recovers once the worker is back.
#[test]
fn worker_death_is_typed_and_reconnect_recovers() {
    let (db, originals) = corpus(7, 4);
    let params = TaleParams::default();
    let queries: Vec<&Graph> = originals.iter().collect();
    let dir = tempfile::tempdir().unwrap();
    let sharded =
        ShardedTaleDatabase::build(db.clone(), dir.path(), &params, 2, &HashPolicy).unwrap();
    let mut handles = start_workers(dir.path(), 2);
    let frontend = frontend_over(&handles);

    let opts = QueryOptions {
        rho: 0.25,
        p_imp: 0.25,
        ..QueryOptions::default()
    }
    .with_cache(false);
    let expected = sharded.query_batch(&queries, &opts).unwrap();
    let req = wire_batch(&db, &originals, &opts);

    // Healthy round first.
    let resp = frontend.query_batch(&req, Instant::now()).unwrap();
    assert_bit_identical(&expected, &decode(&resp), "before worker death");

    // Kill shard 1's worker: listener down, live connections severed.
    let dead_addr = handles[1].addr();
    handles[1].shutdown();
    match frontend.query_batch(&req, Instant::now()) {
        Err(ServerError::Shard(ShardError::Transport { shard, .. })) => {
            assert_eq!(shard, 1, "the error names the dead shard")
        }
        other => panic!("expected a shard-1 transport error, got {other:?}"),
    }

    // Revive the worker on the same address; the very next batch must
    // succeed through the transport's own redial, bit-identically.
    handles[1] = restart_worker(dir.path(), 1, dead_addr);
    let resp = frontend.query_batch(&req, Instant::now()).unwrap();
    assert_bit_identical(&expected, &decode(&resp), "after worker revival");
}

/// A transport that answers hello correctly and then takes `delay` per
/// batch — long enough for concurrent arrivals to pile up at the gate.
struct SlowTransport {
    delay: Duration,
}

impl ShardTransport for SlowTransport {
    fn shard(&self) -> u32 {
        0
    }
    fn call(&self, req: &Request, _deadline: Option<Instant>) -> tale_server::Result<Response> {
        match req {
            Request::Hello(_) => Ok(Response::Hello(HelloResponse {
                protocol: PROTOCOL_VERSION,
                shard: 0,
                shard_count: 1,
                graphs: 0,
                vocab_fingerprint: 42,
            })),
            _ => {
                std::thread::sleep(self.delay);
                Ok(Response::QueryBatch(QueryBatchResponse {
                    results: Vec::new(),
                    stats: WireExecStats::default(),
                    degraded: Vec::new(),
                }))
            }
        }
    }
    fn describe(&self) -> String {
        "slow stub".into()
    }
}

/// Saturating the admission gate sheds with an explicit `Overloaded` —
/// every refused request gets the typed answer and is counted; nothing
/// is silently dropped.
#[test]
fn saturation_sheds_with_explicit_overloaded() {
    let frontend = Arc::new(
        Frontend::new(
            vec![Arc::new(SlowTransport {
                delay: Duration::from_millis(150),
            }) as Arc<dyn ShardTransport>],
            FrontendConfig {
                gate: GateConfig {
                    max_inflight: 1,
                    max_queue: 0,
                },
                ..FrontendConfig::default()
            },
        )
        .unwrap(),
    );
    let req = QueryBatchRequest {
        queries: Vec::new(),
        options: WireOptions::from_options(&QueryOptions::default()),
        deadline_ms: None,
        allow_partial: false,
    };

    const CLIENTS: usize = 8;
    let outcomes: Vec<_> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let frontend = Arc::clone(&frontend);
                let req = req.clone();
                s.spawn(move || frontend.query_batch(&req, Instant::now()))
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });

    let ok = outcomes.iter().filter(|r| r.is_ok()).count();
    let shed = outcomes
        .iter()
        .filter(|r| matches!(r, Err(ServerError::Overloaded(_))))
        .count();
    assert_eq!(
        ok + shed,
        CLIENTS,
        "every request is either served or explicitly shed: {outcomes:?}"
    );
    assert!(ok >= 1, "at least the first arrival is served");
    assert!(shed >= 1, "past the gate, arrivals shed explicitly");
    let snap = frontend.counters().snapshot();
    assert_eq!(snap.requests_shed, shed as u64, "every shed is counted");
}

/// One request over its own connection to `addr`.
fn call(addr: SocketAddr, req: &Request) -> Response {
    let mut client = std::net::TcpStream::connect(addr).unwrap();
    wire::write_request(&mut client, req).unwrap();
    wire::read_response(&mut client).unwrap().unwrap().0
}

/// Insert, remove and fold through a single-shard worker, a query after
/// each step and after a worker restart: every answer is bit-identical
/// to an in-process `ShardedTaleDatabase` applying the same script, and
/// the generational state (current gN, delta graphs, tombstones) is the
/// same on both sides at every step.
#[test]
fn served_mutations_match_the_in_process_script() {
    let (db, originals) = corpus(23, 5);
    let params = TaleParams::default();
    let mut rng = ChaCha8Rng::seed_from_u64(24);
    let extra = gnm(&mut rng, 30, 60, LABELS);
    let mut probes = originals.clone();
    probes.push(extra.clone());
    let opts = QueryOptions {
        rho: 0.25,
        p_imp: 0.25,
        ..QueryOptions::default()
    };

    // the same build twice: one directory served, one driven in process
    let served_dir = tempfile::tempdir().unwrap();
    let local_dir = tempfile::tempdir().unwrap();
    drop(
        ShardedTaleDatabase::build(db.clone(), served_dir.path(), &params, 1, &HashPolicy).unwrap(),
    );
    let mut local =
        ShardedTaleDatabase::build(db.clone(), local_dir.path(), &params, 1, &HashPolicy).unwrap();

    let serve_engine = |addr: SocketAddr| {
        let engine =
            Arc::new(ShardEngine::open(served_dir.path(), 0, EngineConfig::default()).unwrap());
        let handle = serve_shard(Arc::clone(&engine), addr, WorkerConfig::default()).unwrap();
        (engine, handle)
    };
    let (mut engine, mut worker) = serve_engine("127.0.0.1:0".parse().unwrap());

    let check =
        |step: &str, engine: &ShardEngine, addr: SocketAddr, local: &ShardedTaleDatabase| {
            let refs: Vec<&Graph> = probes.iter().collect();
            let expected = local.query_batch(&refs, &opts).unwrap();
            let req = Request::QueryBatch(wire_batch(local.db(), &probes, &opts));
            match call(addr, &req) {
                Response::QueryBatch(resp) => assert_bit_identical(&expected, &decode(&resp), step),
                other => panic!("{step}: expected a batch response, got {other:?}"),
            }
            let snap = local.index().shards()[0].snapshot();
            assert_eq!(
                engine.generation_state(),
                (
                    snap.base_generation(),
                    snap.delta_graphs(),
                    snap.removed_count()
                ),
                "{step}: generational state diverged"
            );
        };
    let applied = |step: &str, resp: Response| match resp {
        Response::Mutate(m) => {
            assert!(m.applied, "{step}: {m:?}");
            m
        }
        other => panic!("{step}: expected a mutate response, got {other:?}"),
    };
    check("fresh", &engine, worker.addr(), &local);

    // insert: lands in the delta overlay on both sides
    let gid = local.insert_graph("late", extra.clone()).unwrap();
    let m = applied(
        "insert",
        call(
            worker.addr(),
            &Request::Insert(InsertRequest {
                name: "late".into(),
                graph: WireGraph::from_graph(local.db(), &extra),
            }),
        ),
    );
    assert_eq!(m.graph, Some(gid.0));
    assert_eq!(engine.generation_state(), (0, 1, 0));
    check("after insert", &engine, worker.addr(), &local);

    // remove: a tombstone, cached partials filtered at read time
    local.remove_graph(tale_graph::GraphId(1)).unwrap();
    applied(
        "remove",
        call(worker.addr(), &Request::Remove(RemoveRequest { graph: 1 })),
    );
    assert_eq!(engine.generation_state(), (0, 1, 1));
    check("after remove", &engine, worker.addr(), &local);

    // fold: g1, empty delta, tombstone kept
    local.fold().unwrap();
    let m = applied(
        "fold",
        call(worker.addr(), &Request::Fold(FoldRequest { confirm: true })),
    );
    assert_eq!((m.folded_graphs, m.dropped_tombstones), (Some(5), Some(1)));
    assert_eq!(engine.generation_state(), (1, 0, 1));
    check("after fold", &engine, worker.addr(), &local);

    // restart the worker: everything above was durable
    worker.shutdown();
    drop((worker, engine));
    (engine, worker) = serve_engine("127.0.0.1:0".parse().unwrap());
    check("after restart", &engine, worker.addr(), &local);
}
