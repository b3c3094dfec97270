//! `served_lookup`: the deployment on loopback — a sharded build, one
//! `serve_shard` worker per shard, a `Frontend` over `RemoteTransport`
//! behind its own TCP serve loop, every config at its default. One client,
//! closed loop, a new TCP connection per request (what `tale-cli` does).

use crate::inproc::{hash_graph, QuerySpec, PAGE_BYTES};
use crate::layers::{self, Layers};
use crate::run::{beat, hash_matches, Fnv, Instance, Pass, Sizes, Workload};
use crate::stats::{self, ratio};
use crate::trace::Tracer;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use tale::{QueryMatch, QueryOptions, QueryStats, TaleParams};
use tale_graph::{Graph, GraphDb};
use tale_nhindex::IndexReader;
use tale_server::engine::EngineConfig;
use tale_server::wire::{self, QueryBatchRequest, StatsRequest, WireMatch};
use tale_server::worker::{serve, ServerContext, Service};
use tale_server::{
    AdmissionGate, Frontend, FrontendConfig, LocalTransport, RemoteConfig, RemoteTransport,
    Request, Response, ServerCounters, ServerHandle, ShardEngine, ShardTransport, WireGraph,
    WireOptions, WorkerConfig,
};
use tale_shard::{HashPolicy, ShardedNhIndex, ShardedTaleDatabase};

pub struct Served {
    pub db: GraphDb,
    pub params: TaleParams,
    pub opts: QueryOptions,
    pub queries: Vec<QuerySpec>,
    /// The order a pass sends the queries in.
    pub order: Vec<usize>,
    pub shards: usize,
}

impl Served {
    fn request(&self, q: &Graph) -> Request {
        Request::QueryBatch(QueryBatchRequest {
            queries: vec![WireGraph::from_graph(&self.db, q)],
            options: WireOptions::from_options(&self.opts),
            deadline_ms: None,
            allow_partial: false,
        })
    }
}

fn loopback() -> SocketAddr {
    SocketAddr::from(([127, 0, 0, 1], 0))
}

/// One client request over its own connection; the decoded response and
/// the frame sizes.
fn round_trip(addr: SocketAddr, req: &Request) -> Result<(Response, usize, usize), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let sent = wire::write_request(&mut stream, req).map_err(|e| e.to_string())?;
    match wire::read_response(&mut stream).map_err(|e| e.to_string())? {
        Some((resp, received)) => Ok((resp, sent, received)),
        None => Err("connection closed before the response".into()),
    }
}

fn matches_of(resp: &Response) -> Option<Vec<QueryMatch>> {
    match resp {
        Response::QueryBatch(b) if b.results.len() == 1 && b.degraded.is_empty() => Some(
            b.results[0]
                .matches
                .iter()
                .map(WireMatch::to_match)
                .collect(),
        ),
        _ => None,
    }
}

fn identical(a: &[QueryMatch], b: &[QueryMatch]) -> bool {
    let (mut ha, mut hb) = (Fnv::new(), Fnv::new());
    hash_matches(&mut ha, a);
    hash_matches(&mut hb, b);
    ha.finish() == hb.finish() && a.iter().zip(b).all(|(x, y)| x.graph == y.graph)
}

impl Workload for Served {
    fn input_checksum(&self) -> u64 {
        let mut h = Fnv::new();
        for (_, name, g) in self.db.iter() {
            h.bytes(name.as_bytes());
            hash_graph(&mut h, g);
        }
        for q in &self.queries {
            h.u64(u64::from(q.source.0));
            hash_graph(&mut h, &q.graph);
        }
        for &i in &self.order {
            h.u64(i as u64);
        }
        h.finish()
    }

    fn setup(&self, dir: &Path) -> Result<(Box<dyn Instance + '_>, f64), String> {
        let graphs = self.db.clone(); // input copy, not timed
        let requests: Vec<Request> = self
            .queries
            .iter()
            .map(|q| self.request(&q.graph))
            .collect();
        let t = Instant::now();
        let sharded =
            ShardedTaleDatabase::build(graphs, dir, &self.params, self.shards, &HashPolicy)
                .map_err(|e| e.to_string())?;
        let mut engines = Vec::new();
        let mut workers = Vec::new();
        let mut transports: Vec<Arc<dyn ShardTransport>> = Vec::new();
        for s in 0..self.shards as u32 {
            let engine = Arc::new(
                ShardEngine::open(dir, s, EngineConfig::default()).map_err(|e| e.to_string())?,
            );
            let handle =
                tale_server::serve_shard(Arc::clone(&engine), loopback(), WorkerConfig::default())
                    .map_err(|e| e.to_string())?;
            transports.push(RemoteTransport::new(
                handle.addr(),
                s,
                RemoteConfig::default(),
            ));
            engines.push(engine);
            workers.push(handle);
        }
        let frontend =
            Frontend::new(transports, FrontendConfig::default()).map_err(|e| e.to_string())?;
        let front = serve(Arc::new(frontend), loopback(), WorkerConfig::default())
            .map_err(|e| e.to_string())?;
        let mut inst = ServedInstance {
            spec: self,
            sharded,
            engines,
            _workers: workers,
            front,
            requests,
            reference: Vec::new(),
            dir: dir.to_owned(),
        };
        // Warm-up: every query once through the served path.
        let warm = inst.served_pass(&(0..self.queries.len()).collect::<Vec<_>>(), None);
        let secs = t.elapsed().as_secs_f64();
        if warm.failed > 0 {
            return Err(format!("{} warm-up requests failed", warm.failed));
        }
        // The in-process answers the served ones are held to (not timed).
        for q in &self.queries {
            let r = inst
                .sharded
                .query(&q.graph, &self.opts)
                .map_err(|e| e.to_string())?;
            inst.reference.push(r);
        }
        Ok((Box::new(inst), secs))
    }
}

pub struct ServedInstance<'a> {
    spec: &'a Served,
    /// The same index directories opened in-process: the reference the
    /// served answers are compared with.
    sharded: ShardedTaleDatabase,
    engines: Vec<Arc<ShardEngine>>,
    _workers: Vec<ServerHandle>,
    front: ServerHandle,
    requests: Vec<Request>,
    reference: Vec<Vec<QueryMatch>>,
    dir: PathBuf,
}

struct ServedOut {
    op_ms: Vec<f64>,
    failed: usize,
    identical: usize,
    checksum: u64,
    req_bytes: usize,
    resp_bytes: usize,
}

impl ServedInstance<'_> {
    /// Every query once through the frontend, in `order`. Answers are
    /// compared with the in-process reference when there is one (after
    /// set-up).
    fn served_pass(&mut self, order: &[usize], mut tr: Option<&mut Tracer>) -> ServedOut {
        let addr = self.front.addr();
        let mut out = ServedOut {
            op_ms: Vec::with_capacity(self.requests.len()),
            failed: 0,
            identical: 0,
            checksum: 0,
            req_bytes: 0,
            resp_bytes: 0,
        };
        let mut sum = Fnv::new();
        for &i in order {
            let req = &self.requests[i];
            beat();
            let t = Instant::now();
            let r = match tr.as_mut() {
                None => round_trip(addr, req),
                Some(tr) => {
                    tr.next_op();
                    tr.span("server.request", |_| round_trip(addr, req))
                }
            };
            out.op_ms.push(t.elapsed().as_secs_f64() * 1e3);
            match r
                .ok()
                .and_then(|(resp, s, r)| Some((matches_of(&resp)?, s, r)))
            {
                Some((got, sent, received)) => {
                    out.req_bytes += sent;
                    out.resp_bytes += received;
                    hash_matches(&mut sum, &got);
                    match self.reference.get(i) {
                        Some(want) if !identical(want, &got) => out.failed += 1,
                        Some(_) => out.identical += 1,
                        None => {}
                    }
                }
                None => out.failed += 1,
            }
        }
        out.checksum = sum.finish();
        out
    }

    fn frontend_stats(&self) -> Result<tale_server::ServerStatsSnapshot, String> {
        let req = Request::Stats(StatsRequest { reserved: false });
        match round_trip(self.front.addr(), &req)?.0 {
            Response::Stats(s) => Ok(s.server),
            other => Err(format!("expected stats, got {other:?}")),
        }
    }
}

impl Instance for ServedInstance<'_> {
    fn pass(&mut self) -> Pass {
        let spec = self.spec;
        let out = self.served_pass(&spec.order, None);
        Pass {
            ops: out.op_ms.len(),
            failed: out.failed,
            busy_s: out.op_ms.iter().sum::<f64>() / 1e3,
            checksum: out.checksum,
            quality: out.identical as f64 / out.op_ms.len().max(1) as f64,
            query_ms: out.op_ms,
        }
    }

    fn sizes(&self) -> Sizes {
        Sizes {
            graphs: self.spec.db.len(),
            nodes: self.sharded.index().node_count(),
            index_bytes: self.sharded.index_size_bytes(),
            pool_frames: EngineConfig::default().buffer_frames,
            ops_per_pass: self.requests.len(),
        }
    }

    fn trace(&mut self, seconds: f64, tr: &mut Tracer) -> Result<Layers, String> {
        let spec = self.spec;
        let mut out = Layers::new();
        let n = self.requests.len() as f64;

        // Served path, untraced then traced.
        let base = self.served_pass(&spec.order, None);
        let traced = self.served_pass(&spec.order, Some(tr));
        if base.failed + traced.failed > 0 {
            return Err(format!(
                "{} traced requests failed",
                base.failed + traced.failed
            ));
        }
        let base_wall: f64 = base.op_ms.iter().sum();
        out.insert(
            "trace.overhead_frac",
            traced.op_ms.iter().sum::<f64>() / base_wall.max(f64::MIN_POSITIVE) - 1.0,
        );
        out.insert("server.req_bytes", traced.req_bytes as f64 / n);
        out.insert("server.resp_bytes", traced.resp_bytes as f64 / n);
        let served_p50 = stats::median(&base.op_ms);

        // The same queries in-process over the same shard directories, at
        // the served options and on one thread.
        let serial_opts = spec.opts.clone().with_threads(1);
        let mut qstats: Vec<QueryStats> = Vec::new();
        let mut inproc_ms = Vec::new();
        let mut skew = 0.0;
        let mut serial_ms = 0.0;
        let mut results = 0u64;
        for q in &spec.queries {
            beat();
            tr.next_op();
            let t = Instant::now();
            let (answers, mut batch) = tr
                .span("shard.query", |_| {
                    self.sharded.query_batch_with_stats(&[&q.graph], &spec.opts)
                })
                .map_err(|e| e.to_string())?;
            inproc_ms.push(t.elapsed().as_secs_f64() * 1e3);
            results += answers.iter().map(|a| a.len() as u64).sum::<u64>();
            skew += batch.shard_skew();
            qstats.push(batch.per_query.remove(0));
            let t = Instant::now();
            self.sharded
                .query(&q.graph, &serial_opts)
                .map_err(|e| e.to_string())?;
            serial_ms += t.elapsed().as_secs_f64() * 1e3;
        }
        let inproc_p50 = stats::median(&inproc_ms);
        out.insert("shard.inproc_p50_ms", inproc_p50);
        out.insert("shard.skew", skew / n);
        out.insert("server.overhead_ms", served_p50 - inproc_p50);
        layers::query_stats_metrics(&mut out, &qstats);
        let index_pages = (self.sharded.index_size_bytes() / PAGE_BYTES).max(1);
        out.insert(
            "storage.pool_frames_over_index_pages",
            (EngineConfig::default().buffer_frames * spec.shards) as f64 / index_pages as f64,
        );

        // Layers replayed from outside over the shard readers.
        let readers: Vec<&dyn IndexReader> = self
            .sharded
            .index()
            .shards()
            .iter()
            .map(|s| s as &dyn IndexReader)
            .collect();
        let mut counts = layers::ReplayCounts::default();
        let mut est_rows = 0u64;
        for q in &spec.queries {
            beat();
            tr.next_op();
            tr.span("tale.explain", |_| {
                let plan = self.sharded.explain(&q.graph, &spec.opts);
                est_rows += plan.probes.iter().filter_map(|p| p.est_rows).sum::<u64>();
            });
            layers::replay_query(
                tr,
                self.sharded.db(),
                &readers,
                &q.graph,
                &serial_opts,
                &mut counts,
            );
        }
        layers::replay_metrics(
            &mut out,
            tr,
            &counts,
            spec.queries.len(),
            serial_ms,
            results,
        );
        let rows: u64 = qstats.iter().map(|s| s.rows_examined).sum();
        out.insert(
            "tale.plan_est_rows_ratio",
            ratio(est_rows as f64, rows as f64),
        );

        // Frontend over in-process transports to the same engines: the
        // served path without sockets, frames or handler threads.
        let transports: Vec<Arc<dyn ShardTransport>> = self
            .engines
            .iter()
            .map(|engine| {
                Arc::new(LocalTransport::new(ServerContext {
                    engine: Arc::clone(engine),
                    gate: AdmissionGate::new(WorkerConfig::default().gate),
                    counters: Arc::new(ServerCounters::new()),
                })) as Arc<dyn ShardTransport>
            })
            .collect();
        let local =
            Frontend::new(transports, FrontendConfig::default()).map_err(|e| e.to_string())?;
        let mut local_ms = Vec::new();
        for req in &self.requests {
            beat();
            tr.next_op();
            let t = Instant::now();
            let resp = tr.span("server.local_transport", |_| {
                local.handle(req, Instant::now())
            });
            local_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if matches_of(&resp).is_none() {
                return Err("local transport did not answer a query".into());
            }
        }
        out.insert("server.local_transport_p50_ms", stats::median(&local_ms));

        // Bare connect, and the wire codec against in-memory buffers.
        let addr = self.front.addr();
        for req in &self.requests {
            tr.next_op();
            tr.span("server.connect", |_| TcpStream::connect(addr).map(drop))
                .map_err(|e| e.to_string())?;
            let mut frame = Vec::new();
            tr.span("server.wire_encode_req", |_| {
                wire::write_request(&mut frame, req)
            })
            .map_err(|e| e.to_string())?;
            let resp = local.handle(req, Instant::now());
            let mut frame = Vec::new();
            wire::write_response(&mut frame, &resp).map_err(|e| e.to_string())?;
            tr.span("server.wire_decode_resp", |_| {
                wire::read_response(&mut frame.as_slice())
            })
            .map_err(|e| e.to_string())?;
        }
        let total = tr.total_ms_by_name();
        let us = |name: &str| total.get(name).copied().unwrap_or(0.0) * 1e3 / n;
        out.insert("server.connect_us", us("server.connect"));
        out.insert("server.wire_encode_req_us", us("server.wire_encode_req"));
        out.insert("server.wire_decode_resp_us", us("server.wire_decode_resp"));

        let stats = self.frontend_stats()?;
        out.insert(
            "server.shed",
            (stats.requests_shed + stats.conns_shed) as f64,
        );
        out.insert("server.retries", stats.retries as f64);

        // Sharded index build and open.
        let cfg = layers::index_config(&spec.params);
        let frames = EngineConfig::default().buffer_frames;
        layers::build_open_metrics(
            &mut out,
            tr,
            &self.dir,
            |dir| ShardedNhIndex::build(dir, &spec.db, &cfg, spec.shards, &HashPolicy, 0).map(drop),
            |dir| ShardedNhIndex::open(dir, frames, &spec.db).map(drop),
        )?;
        out.insert(
            "nhindex.bitprobe_ns_per_row",
            layers::bitprobe_ns_per_row(spec.params.sbit, seconds),
        );
        Ok(out)
    }
}
