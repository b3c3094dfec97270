//! Replica groups: failover, bounded retries, hedging, and per-replica
//! circuit breaking over the [`ShardTransport`] seam.
//!
//! A [`ReplicaSet`] fronts N transports that all serve the **same**
//! shard (verified at handshake: every reachable replica must report
//! the same shard identity and vocabulary fingerprint, and the first
//! agreed fingerprint is pinned on all of them). To the frontend it is
//! just another [`ShardTransport`]; everything below is masking policy:
//!
//! * **Circuit breaking.** Each replica carries a closed → open →
//!   half-open breaker fed by per-request outcomes: a transport-level
//!   failure (`Io`/`Wire`/`Handshake`) counts against it, a served
//!   response — including a typed error like `overloaded` — counts for
//!   it, because an overloaded replica is alive. After
//!   `failure_threshold` consecutive failures the breaker opens and the
//!   replica is skipped; after `open_cooldown` it becomes half-open and
//!   one trial request decides. A background prober health-checks
//!   non-closed replicas so recovery is noticed even on an idle system.
//! * **Failover + retry.** Idempotent requests (queries, stats,
//!   explain — see `transport::idempotent`) get up to
//!   `retries` extra attempts across the available replicas, with
//!   decorrelated-jitter backoff between attempts, all bounded by the
//!   request deadline. Mutations go to the primary (replica 0) exactly
//!   once — a lost acknowledgement must not become a double apply.
//! * **Hedging.** When a first response is slower than the hedge
//!   trigger (the observed success p95, or a fixed `hedge_after`), a
//!   second probe fires at the next available replica and the first
//!   answer wins. The loser is discarded when it lands — its outcome
//!   still feeds its replica's breaker, but never the client response.
//!
//! Every masked fault shows up in [`ServerCounters`]
//! (`retries`/`hedges_fired`/`hedges_won`/`failovers`/
//! `replica_failures`/`breaker_opened`), so "it worked" and "it worked
//! because failover saved it" are distinguishable in `tale-cli
//! server-stats`.

use crate::backoff::{sleep_capped, Jitter};
use crate::counters::ServerCounters;
use crate::transport::{idempotent, ShardTransport};
use crate::wire::{self, ReplicaHealthInfo, Request, Response};
use crate::{Result, ServerError};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Replica-group policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct ReplicaConfig {
    /// Consecutive transport failures that open a replica's breaker.
    pub failure_threshold: u32,
    /// How long an open breaker rests before allowing a half-open trial.
    pub open_cooldown: Duration,
    /// Background health-probe period for non-closed replicas
    /// (`Duration::ZERO` disables the prober — deterministic tests).
    pub probe_interval: Duration,
    /// Extra attempts (beyond the first) for idempotent requests.
    pub retries: u32,
    /// Base decorrelated-jitter backoff between attempts.
    pub backoff: Duration,
    /// Ceiling on any single backoff sleep.
    pub backoff_cap: Duration,
    /// Fixed hedge trigger; `None` derives it from the observed success
    /// p95 once `hedge_min_samples` latencies have been seen.
    pub hedge_after: Option<Duration>,
    /// Success samples required before p95-driven hedging arms.
    pub hedge_min_samples: usize,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        ReplicaConfig {
            failure_threshold: 3,
            open_cooldown: Duration::from_millis(500),
            probe_interval: Duration::from_millis(250),
            retries: 3,
            backoff: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(200),
            hedge_after: None,
            hedge_min_samples: 20,
        }
    }
}

/// Breaker position; `opened_at` on the state struct remembers when an
/// open breaker started its cooldown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerCore {
    Closed,
    Open,
    HalfOpen,
}

struct Breaker {
    core: BreakerCore,
    /// Instant the breaker last opened.
    opened_at: Option<Instant>,
    consecutive_failures: u32,
}

/// One replica: its transport plus breaker state and outcome counts.
struct Replica {
    transport: Arc<dyn ShardTransport>,
    breaker: Mutex<Breaker>,
    successes: AtomicU64,
    failures: AtomicU64,
}

impl Replica {
    fn new(transport: Arc<dyn ShardTransport>) -> Arc<Replica> {
        Arc::new(Replica {
            transport,
            breaker: Mutex::new(Breaker {
                core: BreakerCore::Closed,
                opened_at: None,
                consecutive_failures: 0,
            }),
            successes: AtomicU64::new(0),
            failures: AtomicU64::new(0),
        })
    }

    /// Whether this replica may serve a request right now. An open
    /// breaker whose cooldown has elapsed transitions to half-open here
    /// (and answers `true`: the caller's request is the trial).
    fn available(&self, cooldown: Duration) -> bool {
        let mut b = self.breaker.lock();
        match b.core {
            BreakerCore::Closed | BreakerCore::HalfOpen => true,
            BreakerCore::Open => {
                let rested = b.opened_at.map(|t| t.elapsed() >= cooldown).unwrap_or(true);
                if rested {
                    b.core = BreakerCore::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    fn state_name(&self) -> &'static str {
        match self.breaker.lock().core {
            BreakerCore::Closed => "closed",
            BreakerCore::Open => "open",
            BreakerCore::HalfOpen => "half-open",
        }
    }

    /// Served a response (typed errors included): close the breaker.
    fn on_success(&self) {
        self.successes.fetch_add(1, Ordering::Relaxed);
        let mut b = self.breaker.lock();
        b.core = BreakerCore::Closed;
        b.consecutive_failures = 0;
    }

    /// Transport-level failure: count it, open the breaker at the
    /// threshold (a half-open trial failure re-opens immediately).
    fn on_failure(&self, threshold: u32, counters: Option<&Arc<ServerCounters>>) {
        self.failures.fetch_add(1, Ordering::Relaxed);
        if let Some(c) = counters {
            c.replica_failures.fetch_add(1, Ordering::Relaxed);
        }
        let mut b = self.breaker.lock();
        b.consecutive_failures = b.consecutive_failures.saturating_add(1);
        let trip = matches!(b.core, BreakerCore::HalfOpen)
            || (b.consecutive_failures >= threshold.max(1) && b.core != BreakerCore::Open);
        if trip {
            b.core = BreakerCore::Open;
            b.opened_at = Some(Instant::now());
            if let Some(c) = counters {
                c.breaker_opened.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// N transports serving one shard, masked behind a single
/// [`ShardTransport`].
pub struct ReplicaSet {
    shard: u32,
    replicas: Vec<Arc<Replica>>,
    cfg: ReplicaConfig,
    counters: Mutex<Option<Arc<ServerCounters>>>,
    /// Recent success latencies (ring of 128) feeding the p95 hedge
    /// trigger.
    latencies: Arc<Mutex<VecDeque<Duration>>>,
    jitter: Mutex<Jitter>,
    stop: Arc<AtomicBool>,
    prober: Mutex<Option<std::thread::JoinHandle<()>>>,
}

const LATENCY_RING: usize = 128;

impl ReplicaSet {
    /// Builds a replica set for `shard`. Panics on an empty transport
    /// list (a shard with zero replicas cannot be served at all).
    /// Spawns the background prober unless `probe_interval` is zero.
    pub fn new(
        shard: u32,
        transports: Vec<Arc<dyn ShardTransport>>,
        cfg: ReplicaConfig,
    ) -> Arc<ReplicaSet> {
        assert!(!transports.is_empty(), "a shard needs at least one replica");
        let set = Arc::new(ReplicaSet {
            shard,
            replicas: transports.into_iter().map(Replica::new).collect(),
            cfg,
            counters: Mutex::new(None),
            latencies: Arc::new(Mutex::new(VecDeque::with_capacity(LATENCY_RING))),
            jitter: Mutex::new(Jitter::new()),
            stop: Arc::new(AtomicBool::new(false)),
            prober: Mutex::new(None),
        });
        if cfg.probe_interval > Duration::ZERO && set.replicas.len() > 1 {
            let handle = spawn_prober(&set);
            *set.prober.lock() = Some(handle);
        }
        set
    }

    fn counters_ref(&self) -> Option<Arc<ServerCounters>> {
        self.counters.lock().clone()
    }

    fn bump(&self, pick: impl Fn(&ServerCounters) -> &AtomicU64) {
        if let Some(c) = self.counters_ref() {
            pick(&c).fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Replica indices in preference order: available ones first
    /// (primary before secondaries), then — only if *none* is
    /// available — every replica as a last resort, so a fleet whose
    /// breakers all opened still probes for recovery instead of
    /// refusing without trying.
    fn pick_order(&self) -> Vec<usize> {
        let avail: Vec<usize> = (0..self.replicas.len())
            .filter(|&i| self.replicas[i].available(self.cfg.open_cooldown))
            .collect();
        if avail.is_empty() {
            (0..self.replicas.len()).collect()
        } else {
            avail
        }
    }

    /// The hedge trigger: fixed if configured, else the p95 of recent
    /// success latencies once enough samples exist, else disarmed.
    fn hedge_trigger(&self) -> Option<Duration> {
        if let Some(d) = self.cfg.hedge_after {
            return Some(d);
        }
        let ring = self.latencies.lock();
        if ring.len() < self.cfg.hedge_min_samples.max(2) {
            return None;
        }
        let mut v: Vec<Duration> = ring.iter().copied().collect();
        v.sort_unstable();
        let idx = (v.len() * 95).div_ceil(100).saturating_sub(1);
        Some(v[idx.min(v.len() - 1)])
    }

    /// Broadcast handshake: every reachable replica must agree on shard
    /// identity and vocabulary fingerprint; the agreed fingerprint is
    /// pinned on all replicas (so one that was down at startup is still
    /// verified when it comes back). Unreachable replicas feed their
    /// breakers but don't fail the handshake unless *all* are down.
    fn handshake_all(&self, req: &Request, deadline: Option<Instant>) -> Result<Response> {
        let counters = self.counters_ref();
        let mut hellos: Vec<(usize, wire::HelloResponse)> = Vec::new();
        let mut first_err: Option<ServerError> = None;
        for (i, r) in self.replicas.iter().enumerate() {
            match r.transport.call(req, deadline) {
                Ok(Response::Hello(h)) => {
                    r.on_success();
                    hellos.push((i, h));
                }
                Ok(Response::Error(e)) => {
                    // The peer answered — alive but refusing (e.g.
                    // protocol skew). That's a handshake verdict, not a
                    // transport flake.
                    r.on_success();
                    return Err(ServerError::from_error_response(&e));
                }
                Ok(_) => {
                    return Err(ServerError::Handshake(format!(
                        "{}: non-hello answer to hello",
                        r.transport.describe()
                    )))
                }
                Err(e) => {
                    r.on_failure(self.cfg.failure_threshold, counters.as_ref());
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        let (i0, h0) = match hellos.first() {
            Some((i, h)) => (*i, h.clone()),
            None => {
                return Err(first_err.unwrap_or_else(|| {
                    ServerError::Handshake(format!("shard {}: no replica reachable", self.shard))
                }))
            }
        };
        for (i, h) in &hellos[1..] {
            if h.shard != h0.shard
                || h.shard_count != h0.shard_count
                || h.vocab_fingerprint != h0.vocab_fingerprint
            {
                return Err(ServerError::Handshake(format!(
                    "shard {} replica disagreement: {} reports (shard {}, {} shards, vocab {:#018x}) \
                     but {} reports (shard {}, {} shards, vocab {:#018x})",
                    self.shard,
                    self.replicas[i0].transport.describe(),
                    h0.shard,
                    h0.shard_count,
                    h0.vocab_fingerprint,
                    self.replicas[*i].transport.describe(),
                    h.shard,
                    h.shard_count,
                    h.vocab_fingerprint
                )));
            }
        }
        for r in &self.replicas {
            r.transport.pin_fingerprint(h0.vocab_fingerprint);
        }
        Ok(Response::Hello(h0))
    }

    /// One attempt: primary replica of `order`, hedged with the next
    /// one if the trigger fires first. Returns the winning replica's
    /// index and result.
    fn race(
        &self,
        order: &[usize],
        req: &Request,
        deadline: Option<Instant>,
    ) -> (usize, Result<Response>) {
        let trigger = self.hedge_trigger();
        if order.len() < 2 || trigger.is_none() {
            let idx = order[0];
            return (idx, self.call_recorded(idx, req, deadline));
        }
        let trigger = trigger.expect("checked above");
        let (tx, rx) = mpsc::channel();
        self.spawn_call(order[0], req, deadline, tx.clone());
        match recv_capped(&rx, Some(trigger), deadline) {
            Some((idx, result)) => (idx, result),
            None => {
                // First response is slow: fire the hedge, first answer
                // wins, and if the faster one failed, wait for the
                // slower one too — an error must not outrace a success.
                self.bump(|c| &c.hedges_fired);
                self.spawn_call(order[1], req, deadline, tx);
                let mut last: Option<(usize, Result<Response>)> = None;
                for _ in 0..2 {
                    match recv_capped(&rx, None, deadline) {
                        Some((idx, Ok(resp))) => {
                            if idx == order[1] {
                                self.bump(|c| &c.hedges_won);
                            }
                            return (idx, Ok(resp));
                        }
                        Some((idx, Err(e))) => last = Some((idx, Err(e))),
                        None => break, // deadline spent waiting
                    }
                }
                last.unwrap_or((
                    order[0],
                    Err(ServerError::Io(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "deadline spent waiting for replica responses",
                    ))),
                ))
            }
        }
    }

    /// Calls replica `idx` inline, recording the outcome against its
    /// breaker and the latency ring.
    fn call_recorded(
        &self,
        idx: usize,
        req: &Request,
        deadline: Option<Instant>,
    ) -> Result<Response> {
        call_and_record(
            &self.replicas[idx],
            req,
            deadline,
            self.cfg.failure_threshold,
            self.counters_ref(),
            &self.latencies,
        )
    }

    /// Calls replica `idx` on a detached thread, reporting through
    /// `tx`. A losing hedge keeps running here until its transport
    /// finishes — its outcome still feeds the breaker, its response is
    /// discarded by the closed channel.
    fn spawn_call(
        &self,
        idx: usize,
        req: &Request,
        deadline: Option<Instant>,
        tx: mpsc::Sender<(usize, Result<Response>)>,
    ) {
        let replica = Arc::clone(&self.replicas[idx]);
        let req = req.clone();
        let threshold = self.cfg.failure_threshold;
        let counters = self.counters_ref();
        let latencies = Arc::clone(&self.latencies);
        std::thread::spawn(move || {
            let result = call_and_record(&replica, &req, deadline, threshold, counters, &latencies);
            let _ = tx.send((idx, result));
        });
    }
}

/// The per-call outcome recording shared by inline and hedged paths.
fn call_and_record(
    replica: &Arc<Replica>,
    req: &Request,
    deadline: Option<Instant>,
    threshold: u32,
    counters: Option<Arc<ServerCounters>>,
    latencies: &Arc<Mutex<VecDeque<Duration>>>,
) -> Result<Response> {
    let t0 = Instant::now();
    let result = replica.transport.call(req, deadline);
    match &result {
        Ok(_) => {
            replica.on_success();
            let mut ring = latencies.lock();
            if ring.len() == LATENCY_RING {
                ring.pop_front();
            }
            ring.push_back(t0.elapsed());
        }
        // Typed refusals that crossed the wire are answers from a live
        // replica: the breaker must not open for them.
        Err(
            ServerError::Overloaded(_)
            | ServerError::DeadlineExceeded
            | ServerError::BadRequest(_)
            | ServerError::Remote { .. },
        ) => replica.on_success(),
        Err(_) => replica.on_failure(threshold, counters.as_ref()),
    }
    result
}

/// Receives one result, bounded by an optional trigger timeout and the
/// request deadline. `None` = the bound expired with nothing received.
fn recv_capped(
    rx: &mpsc::Receiver<(usize, Result<Response>)>,
    trigger: Option<Duration>,
    deadline: Option<Instant>,
) -> Option<(usize, Result<Response>)> {
    let now = Instant::now();
    let budget = deadline.map(|d| d.saturating_duration_since(now));
    let wait = match (trigger, budget) {
        (Some(t), Some(b)) => t.min(b),
        (Some(t), None) => t,
        (None, Some(b)) => b,
        // No trigger and no deadline: wait for the call's own io
        // timeout to surface an answer.
        (None, None) => return rx.recv().ok(),
    };
    // A small grace on the deadline path: the underlying socket timeout
    // fires at the same instant, so give its error a moment to arrive
    // instead of racing it.
    let wait = wait + Duration::from_millis(50);
    rx.recv_timeout(wait).ok()
}

fn spawn_prober(set: &Arc<ReplicaSet>) -> std::thread::JoinHandle<()> {
    let replicas: Vec<Arc<Replica>> = set.replicas.iter().map(Arc::clone).collect();
    let stop = Arc::clone(&set.stop);
    let cfg = set.cfg;
    let counters_slot = Arc::new(Mutex::new(None::<Arc<ServerCounters>>));
    // The prober reads the counter slot lazily so counters attached
    // after spawn still get breaker transitions.
    let set_weak = Arc::downgrade(set);
    std::thread::spawn(move || {
        let probe = Request::Health(wire::HealthRequest { reserved: false });
        while !stop.load(Ordering::SeqCst) {
            // Interruptible sleep: react to shutdown within ~25ms.
            let mut slept = Duration::ZERO;
            while slept < cfg.probe_interval && !stop.load(Ordering::SeqCst) {
                let step = Duration::from_millis(25).min(cfg.probe_interval - slept);
                std::thread::sleep(step);
                slept += step;
            }
            if stop.load(Ordering::SeqCst) {
                break;
            }
            {
                let mut slot = counters_slot.lock();
                if slot.is_none() {
                    if let Some(set) = set_weak.upgrade() {
                        *slot = set.counters.lock().clone();
                    }
                }
            }
            let counters = counters_slot.lock().clone();
            for r in &replicas {
                if r.state_name() == "closed" {
                    continue;
                }
                let deadline =
                    Some(Instant::now() + cfg.probe_interval.max(Duration::from_millis(100)));
                match r.transport.call(&probe, deadline) {
                    Ok(_) => r.on_success(),
                    Err(
                        ServerError::Overloaded(_)
                        | ServerError::DeadlineExceeded
                        | ServerError::BadRequest(_)
                        | ServerError::Remote { .. },
                    ) => r.on_success(),
                    Err(_) => r.on_failure(cfg.failure_threshold, counters.as_ref()),
                }
            }
        }
    })
}

impl Drop for ReplicaSet {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.prober.lock().take() {
            let _ = h.join();
        }
    }
}

impl ShardTransport for ReplicaSet {
    fn shard(&self) -> u32 {
        self.shard
    }

    fn call(&self, req: &Request, deadline: Option<Instant>) -> Result<Response> {
        if matches!(req, Request::Hello(_)) {
            return self.handshake_all(req, deadline);
        }
        if !idempotent(req) {
            // Mutations: primary only, exactly once. Failing over a
            // mutation whose ack was lost could apply it twice.
            return self.call_recorded(0, req, deadline);
        }
        let max_attempts = self.cfg.retries.saturating_add(1).max(1);
        let mut delay = self.cfg.backoff;
        let mut saw_failure = false;
        let mut skipped_primary = false;
        let mut last_err: Option<ServerError> = None;
        for attempt in 0..max_attempts {
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    break;
                }
            }
            if attempt > 0 {
                self.bump(|c| &c.retries);
                delay =
                    self.jitter
                        .lock()
                        .decorrelated(self.cfg.backoff, delay, self.cfg.backoff_cap);
                if !sleep_capped(delay, deadline) {
                    break;
                }
            }
            let order = self.pick_order();
            // Rotate the start replica with the attempt so a retry
            // lands somewhere else first when there is somewhere else.
            let start = attempt as usize % order.len();
            let order: Vec<usize> = order[start..]
                .iter()
                .chain(order[..start].iter())
                .copied()
                .collect();
            if order[0] != 0 {
                skipped_primary = true;
            }
            let (_, result) = self.race(&order, req, deadline);
            match result {
                Ok(resp) => {
                    if saw_failure || skipped_primary {
                        self.bump(|c| &c.failovers);
                    }
                    return Ok(resp);
                }
                Err(
                    e @ (ServerError::Overloaded(_)
                    | ServerError::DeadlineExceeded
                    | ServerError::BadRequest(_)
                    | ServerError::Remote { .. }),
                ) => {
                    // A typed answer from a live replica: retrying
                    // another replica of the same shard would give the
                    // same verdict (same data) or mask a shed the
                    // client must see. Surface it.
                    return Err(e);
                }
                Err(e) => {
                    saw_failure = true;
                    last_err = Some(e);
                }
            }
        }
        Err(last_err.unwrap_or_else(|| {
            ServerError::Io(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "request deadline spent before any replica attempt",
            ))
        }))
    }

    fn describe(&self) -> String {
        let names: Vec<String> = self
            .replicas
            .iter()
            .map(|r| r.transport.describe())
            .collect();
        format!("shard {} replica group [{}]", self.shard, names.join(", "))
    }

    fn pin_fingerprint(&self, fp: u64) {
        for r in &self.replicas {
            r.transport.pin_fingerprint(fp);
        }
    }

    fn replica_health(&self) -> Option<Vec<ReplicaHealthInfo>> {
        Some(
            self.replicas
                .iter()
                .enumerate()
                .map(|(i, r)| ReplicaHealthInfo {
                    shard: self.shard,
                    replica: i as u32,
                    address: r.transport.describe(),
                    state: r.state_name().to_owned(),
                    consecutive_failures: u64::from(r.breaker.lock().consecutive_failures),
                    successes: r.successes.load(Ordering::Relaxed),
                    failures: r.failures.load(Ordering::Relaxed),
                })
                .collect(),
        )
    }

    fn attach_counters(&self, counters: &Arc<ServerCounters>) {
        *self.counters.lock() = Some(Arc::clone(counters));
        for r in &self.replicas {
            r.transport.attach_counters(counters);
        }
    }
}
