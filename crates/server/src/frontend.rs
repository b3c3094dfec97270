//! The scatter/gather frontend: one [`ShardTransport`] per shard,
//! admission control in front, deterministic merge behind.
//!
//! A client batch is admitted through the frontend's [`AdmissionGate`]
//! (bounded in-flight, bounded queue, explicit `Overloaded` shedding),
//! then scattered: the *same* wire batch goes to every shard worker with
//! the remaining deadline budget attached, each worker runs the complete
//! engine pipeline on its shard (the N=1 case of `exec::run_batch`) and
//! returns ranked, top-K-truncated partials. The gather concatenates
//! per-shard partials and re-ranks them with the engine's own comparator
//! (`exec::rank_matches`) — a total order over disjoint per-shard graph
//! sets, so the merged output is bit-identical to in-process sharded
//! execution.
//!
//! Failure is deterministic: if **any** shard's transport fails, the
//! whole batch fails with `ShardError::Transport{shard, source}` — the
//! frontend never returns a partial merge. (A typed `Overloaded` or
//! `deadline_exceeded` from a worker likewise fails the batch with that
//! same typed error, so the client can distinguish shed from broken.)
//!
//! The one exception is **opt-in**: a request with `allow_partial:
//! true` tolerates shards whose transports are exhausted (every replica
//! down) by answering from the shards that responded and naming the
//! missing ones in the response's `degraded` list — an explicit partial
//! answer, never a silent one. Worker-typed refusals (`overloaded`,
//! `deadline_exceeded`) still fail the batch even under `allow_partial`:
//! those workers are alive and shedding, and masking a shed as a
//! partial answer would hide backpressure from the client.
//!
//! Mutations (`insert`/`remove`/`fold`) are forwarded only in
//! single-shard deployments, where the one worker is the sole writer of
//! the database root. In multi-shard deployments they are refused with
//! `unsupported` — distributed mutation needs a coordination protocol
//! this crate does not yet speak (see DESIGN.md §15).

use crate::admission::{
    deadline_from_ms, remaining_ms, AdmissionGate, AdmissionOutcome, GateConfig,
};
use crate::counters::ServerCounters;
use crate::transport::ShardTransport;
use crate::wire::{
    self, HealthResponse, HelloResponse, QueryBatchRequest, QueryBatchResponse, Request, Response,
    StatsResponse, WireExecStats, WireMatch, WireMatches,
};
use crate::worker::Service;
use crate::{Result, ServerError};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;
use tale::engine::exec;
use tale::QueryMatch;
use tale_shard::ShardError;

/// Frontend sizing.
#[derive(Debug, Clone, Copy, Default)]
pub struct FrontendConfig {
    /// Admission gate limits for client batches.
    pub gate: GateConfig,
    /// Threads used to scatter one batch across shards (0 = one per
    /// shard, capped at the core count).
    pub scatter_threads: usize,
}

/// The scatter/gather frontend. Implements [`Service`], so it can sit
/// behind the same TCP serve loop as a shard worker
/// ([`crate::worker::serve`]) or be driven in-process.
pub struct Frontend {
    transports: Vec<Arc<dyn ShardTransport>>,
    gate: Arc<AdmissionGate>,
    counters: Arc<ServerCounters>,
    cfg: FrontendConfig,
    graphs: u64,
    vocab_fingerprint: u64,
}

impl Frontend {
    /// Builds a frontend over `transports` (index = shard ordinal) and
    /// verifies each one with a handshake round-trip: protocol version,
    /// shard identity (transport `i` must serve shard `i`), a shard
    /// count matching the transport list, and one shared vocabulary
    /// fingerprint across all workers. Fails fast on any mismatch.
    pub fn new(transports: Vec<Arc<dyn ShardTransport>>, cfg: FrontendConfig) -> Result<Frontend> {
        Frontend::with_counters(transports, cfg, Arc::new(ServerCounters::new()))
    }

    /// [`Frontend::new`] with caller-provided counters, so the
    /// fault-handling counters the transports bump (retries, hedges,
    /// failovers, breaker transitions) land in the same snapshot the
    /// frontend's `stats` endpoint serves.
    pub fn with_counters(
        transports: Vec<Arc<dyn ShardTransport>>,
        cfg: FrontendConfig,
        counters: Arc<ServerCounters>,
    ) -> Result<Frontend> {
        if transports.is_empty() {
            return Err(ServerError::BadRequest(
                "frontend needs at least one shard".into(),
            ));
        }
        for t in &transports {
            t.attach_counters(&counters);
        }
        let hello = Request::Hello(wire::HelloRequest {
            protocol: wire::PROTOCOL_VERSION,
        });
        let mut graphs = 0u64;
        let mut fingerprint: Option<u64> = None;
        for (i, t) in transports.iter().enumerate() {
            let h = match t.call(&hello, None)? {
                Response::Hello(h) => h,
                Response::Error(e) => return Err(ServerError::from_error_response(&e)),
                _ => {
                    return Err(ServerError::Handshake(format!(
                        "{}: non-hello answer to hello",
                        t.describe()
                    )))
                }
            };
            if t.shard() != i as u32 || h.shard != i as u32 {
                return Err(ServerError::Handshake(format!(
                    "{} answers as shard {}, expected shard {i}",
                    t.describe(),
                    h.shard
                )));
            }
            if h.shard_count as usize != transports.len() {
                return Err(ServerError::Handshake(format!(
                    "{} belongs to a {}-shard layout, frontend has {} transports",
                    t.describe(),
                    h.shard_count,
                    transports.len()
                )));
            }
            match fingerprint {
                None => fingerprint = Some(h.vocab_fingerprint),
                Some(fp) if fp != h.vocab_fingerprint => {
                    return Err(ServerError::Handshake(format!(
                        "{} vocabulary fingerprint {:#018x} differs from shard 0's {:#018x}",
                        t.describe(),
                        h.vocab_fingerprint,
                        fp
                    )));
                }
                Some(_) => {}
            }
            // Workers report the shared database's graph count; all agree.
            graphs = h.graphs;
        }
        // Pin the agreed fingerprint everywhere, so a replica that was
        // unreachable at startup is still verified when it comes back.
        if let Some(fp) = fingerprint {
            for t in &transports {
                t.pin_fingerprint(fp);
            }
        }
        Ok(Frontend {
            transports,
            gate: AdmissionGate::new(cfg.gate),
            counters,
            cfg,
            graphs,
            vocab_fingerprint: fingerprint.unwrap_or(0),
        })
    }

    /// Number of shards behind this frontend.
    pub fn shard_count(&self) -> usize {
        self.transports.len()
    }

    /// This frontend's counters.
    pub fn counters(&self) -> &Arc<ServerCounters> {
        &self.counters
    }

    /// Runs one client batch through admission control and the
    /// scatter/gather, with the deadline budget counting from
    /// `received`. This is the typed core of the `query` endpoint: a
    /// shard failure comes back as
    /// `ServerError::Shard(ShardError::Transport { shard, .. })`, a shed
    /// as `ServerError::Overloaded`, an expired budget as
    /// `ServerError::DeadlineExceeded`.
    pub fn query_batch(
        &self,
        req: &QueryBatchRequest,
        received: Instant,
    ) -> Result<QueryBatchResponse> {
        let deadline = deadline_from_ms(received, req.deadline_ms);
        if let Some(d) = deadline {
            if Instant::now() >= d {
                self.counters
                    .requests_deadline_exceeded
                    .fetch_add(1, Ordering::Relaxed);
                return Err(ServerError::DeadlineExceeded);
            }
        }
        let _permit = match self.gate.admit(deadline, &self.counters) {
            AdmissionOutcome::Admitted(p) => p,
            AdmissionOutcome::Overloaded(m) => return Err(ServerError::Overloaded(m)),
            AdmissionOutcome::DeadlineExceeded => return Err(ServerError::DeadlineExceeded),
        };
        self.scatter_gather(req, received)
    }

    /// Scatters `req` to every shard and merges the partials. Fails the
    /// whole batch on any shard failure — never a partial merge — with
    /// the `allow_partial` exception documented at module level:
    /// transport-exhausted shards may be dropped *explicitly*, named in
    /// the response's `degraded` list.
    fn scatter_gather(
        &self,
        req: &QueryBatchRequest,
        received: Instant,
    ) -> Result<QueryBatchResponse> {
        let t0 = Instant::now();
        let deadline = deadline_from_ms(received, req.deadline_ms);
        let nshards = self.transports.len();
        let threads = if self.cfg.scatter_threads == 0 {
            nshards.min(tale_par::effective_threads(0))
        } else {
            self.cfg.scatter_threads
        };
        // One forwarded request per shard, deadline budget recomputed at
        // scatter time so workers see the time actually remaining. A
        // worker serves exactly its shard, so `allow_partial` is a
        // frontend-only concern and is not forwarded.
        let forwarded = Request::QueryBatch(QueryBatchRequest {
            queries: req.queries.clone(),
            options: req.options.clone(),
            deadline_ms: remaining_ms(deadline),
            allow_partial: false,
        });
        let answers: Vec<Result<Response>> = tale_par::parallel_map(threads, nshards, |i| {
            self.transports[i].call(&forwarded, deadline)
        });

        // Deterministic failure: scan in shard order, surface the first
        // failure; worker-typed errors keep their type across the hop.
        // Under `allow_partial`, a transport-exhausted shard (`Err` —
        // every replica down) degrades instead; a *worker-typed* error
        // is an answer from a live worker and still fails the batch.
        let mut partials: Vec<QueryBatchResponse> = Vec::with_capacity(nshards);
        let mut degraded: Vec<u32> = Vec::new();
        let mut first_transport_err: Option<ServerError> = None;
        for (i, ans) in answers.into_iter().enumerate() {
            match ans {
                Ok(Response::QueryBatch(p)) => partials.push(p),
                Ok(Response::Error(e)) => {
                    let typed = ServerError::from_error_response(&e);
                    return Err(match typed {
                        ServerError::Overloaded(_) | ServerError::DeadlineExceeded => typed,
                        other => transport_error(i as u32, other),
                    });
                }
                Ok(_) => {
                    return Err(transport_error(
                        i as u32,
                        ServerError::Handshake(format!(
                            "{}: non-batch answer to a batch",
                            self.transports[i].describe()
                        )),
                    ))
                }
                Err(e) => {
                    if req.allow_partial {
                        degraded.push(i as u32);
                        if first_transport_err.is_none() {
                            first_transport_err = Some(transport_error(i as u32, e));
                        }
                    } else {
                        return Err(transport_error(i as u32, e));
                    }
                }
            }
        }
        if partials.is_empty() {
            // Every shard exhausted: there is nothing to answer from,
            // partial or otherwise. Fail, even under allow_partial.
            return Err(first_transport_err.unwrap_or_else(|| {
                transport_error(0, ServerError::BadRequest("no shards".into()))
            }));
        }
        if !degraded.is_empty() {
            self.counters
                .responses_degraded
                .fetch_add(1, Ordering::Relaxed);
        }

        // Gather: per query, concatenate per-shard partials and re-rank
        // with the engine's comparator. Shards hold disjoint graph sets,
        // so this reproduces the in-process merge bit-for-bit (over the
        // shards that answered).
        let top_k = req.options.top_k.map(|k| k as usize);
        let nqueries = req.queries.len();
        let mut results = Vec::with_capacity(nqueries);
        for q in 0..nqueries {
            let mut all: Vec<QueryMatch> = Vec::new();
            for p in &partials {
                let shard_result = p.results.get(q).ok_or_else(|| {
                    transport_error(
                        0,
                        ServerError::Handshake(format!(
                            "a worker answered {} result lists for {nqueries} queries",
                            p.results.len()
                        )),
                    )
                })?;
                all.extend(shard_result.matches.iter().map(WireMatch::to_match));
            }
            let ranked = exec::rank_matches(all, top_k);
            results.push(WireMatches {
                matches: ranked.iter().map(WireMatch::from_match).collect(),
            });
        }

        let mut stats = WireExecStats::default();
        for p in &partials {
            stats.probes += p.stats.probes;
            stats.keys_scanned += p.stats.keys_scanned;
            stats.postings_fetched += p.stats.postings_fetched;
            stats.postings_filtered += p.stats.postings_filtered;
            stats.rows_examined += p.stats.rows_examined;
            stats.candidates += p.stats.candidates;
            stats.matches += p.stats.matches;
            stats.cache_hits += p.stats.cache_hits;
        }
        stats.wall_secs = t0.elapsed().as_secs_f64();
        Ok(QueryBatchResponse {
            results,
            stats,
            degraded,
        })
    }

    /// Forwards a mutation in a single-shard deployment; refuses it with
    /// `unsupported` behind multiple shards.
    fn forward_mutation(&self, req: &Request) -> Response {
        if self.transports.len() != 1 {
            return Response::Error(wire::ErrorResponse {
                code: wire::codes::UNSUPPORTED.to_owned(),
                message: format!(
                    "mutations through the frontend need a single-shard deployment \
                     (this one has {} shards); mutate via the owning worker or rebuild",
                    self.transports.len()
                ),
            });
        }
        match self.transports[0].call(req, None) {
            Ok(resp) => resp,
            Err(e) => Response::Error(transport_error(0, e).to_error_response()),
        }
    }
}

/// Wraps a per-shard failure in the shard seam's typed transport error.
fn transport_error(shard: u32, source: ServerError) -> ServerError {
    ServerError::Shard(ShardError::Transport {
        shard,
        source: Box::new(source),
    })
}

impl Service for Frontend {
    fn handle(&self, req: &Request, received: Instant) -> Response {
        self.counters.count_endpoint(req.endpoint());
        match req {
            Request::Hello(h) => {
                if h.protocol != wire::PROTOCOL_VERSION {
                    return Response::Error(
                        ServerError::Handshake(format!(
                            "protocol skew: client v{}, server v{}",
                            h.protocol,
                            wire::PROTOCOL_VERSION
                        ))
                        .to_error_response(),
                    );
                }
                Response::Hello(HelloResponse {
                    protocol: wire::PROTOCOL_VERSION,
                    shard: u32::MAX,
                    shard_count: self.transports.len() as u32,
                    graphs: self.graphs,
                    vocab_fingerprint: self.vocab_fingerprint,
                })
            }
            Request::QueryBatch(q) => match self.query_batch(q, received) {
                Ok(resp) => Response::QueryBatch(resp),
                Err(e) => Response::Error(e.to_error_response()),
            },
            Request::Insert(_) | Request::Remove(_) | Request::Fold(_) => {
                self.forward_mutation(req)
            }
            Request::Stats(_) => Response::Stats(StatsResponse {
                server: self.counters.snapshot(),
            }),
            Request::Health(_) => {
                // Aggregate per-replica breaker states from every
                // transport that fronts a replica group.
                let mut replicas = Vec::new();
                for t in &self.transports {
                    if let Some(mut infos) = t.replica_health() {
                        replicas.append(&mut infos);
                    }
                }
                Response::Health(HealthResponse {
                    ok: true,
                    uptime_secs: self.counters.uptime_secs(),
                    inflight: self.counters.requests_inflight.load(Ordering::Relaxed),
                    queued: self.gate.queued() as u64,
                    replicas,
                })
            }
            Request::Explain(_) => {
                // Per-shard plans, labeled, in shard order.
                let mut rendered = String::new();
                for (i, t) in self.transports.iter().enumerate() {
                    rendered.push_str(&format!("== shard {i} ==\n"));
                    match t.call(req, None) {
                        Ok(Response::Explain(e)) => rendered.push_str(&e.rendered),
                        Ok(Response::Error(e)) => {
                            return Response::Error(e);
                        }
                        Ok(_) => {
                            return Response::Error(
                                transport_error(
                                    i as u32,
                                    ServerError::Handshake("non-explain answer".into()),
                                )
                                .to_error_response(),
                            )
                        }
                        Err(e) => {
                            return Response::Error(
                                transport_error(i as u32, e).to_error_response(),
                            )
                        }
                    }
                    if !rendered.ends_with('\n') {
                        rendered.push('\n');
                    }
                }
                Response::Explain(wire::ExplainResponse { rendered })
            }
        }
    }

    fn counters(&self) -> &Arc<ServerCounters> {
        &self.counters
    }
}
