//! Server observability counters.
//!
//! One [`ServerCounters`] instance lives for the life of a serving
//! process (worker or frontend); connection handlers bump it with
//! relaxed atomics. The `stats` endpoint returns a
//! [`ServerStatsSnapshot`], which is what `tale-cli server-stats`
//! pretty-prints.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Live, lock-free server counters.
#[derive(Debug)]
pub struct ServerCounters {
    started: Instant,
    /// Connections accepted over the process lifetime.
    pub conns_accepted: AtomicU64,
    /// Connections currently open.
    pub conns_active: AtomicU64,
    /// Connections refused because the connection budget was full.
    pub conns_shed: AtomicU64,
    /// Requests shed by the admission gate (`Overloaded` responses).
    pub requests_shed: AtomicU64,
    /// Requests refused because their deadline expired pre-execution.
    pub requests_deadline_exceeded: AtomicU64,
    /// Requests currently executing (admitted, not yet replied).
    pub requests_inflight: AtomicU64,
    /// Frames a connection handler is currently decoding/serving/writing
    /// — the gauge graceful drain waits on (`ServerHandle::drain`).
    pub requests_serving: AtomicU64,
    /// Requests currently waiting at the admission gate.
    pub requests_queued: AtomicU64,
    /// Highest simultaneous in-flight count observed.
    pub inflight_hwm: AtomicU64,
    /// Highest admission-queue depth observed.
    pub queue_depth_hwm: AtomicU64,
    /// Bytes read off sockets (frames in).
    pub bytes_in: AtomicU64,
    /// Bytes written to sockets (frames out).
    pub bytes_out: AtomicU64,
    /// Per-endpoint request counts.
    pub hello: AtomicU64,
    /// `query` endpoint requests.
    pub query: AtomicU64,
    /// `insert` endpoint requests.
    pub insert: AtomicU64,
    /// `remove` endpoint requests.
    pub remove: AtomicU64,
    /// `fold` endpoint requests.
    pub fold: AtomicU64,
    /// `stats` endpoint requests.
    pub stats: AtomicU64,
    /// `health` endpoint requests.
    pub health: AtomicU64,
    /// `explain` endpoint requests.
    pub explain: AtomicU64,
    /// Idempotent requests resent after a transient transport failure
    /// (same replica or the next one — every extra attempt counts).
    pub retries: AtomicU64,
    /// Hedged probes fired at a second replica because the first
    /// response was slower than the hedge trigger.
    pub hedges_fired: AtomicU64,
    /// Hedged probes whose answer arrived before the original's.
    pub hedges_won: AtomicU64,
    /// Requests answered by a different replica after the first-choice
    /// replica failed at the transport layer.
    pub failovers: AtomicU64,
    /// Transport-layer failures observed against individual replicas
    /// (each feeds that replica's circuit breaker).
    pub replica_failures: AtomicU64,
    /// Circuit-breaker transitions into the open state.
    pub breaker_opened: AtomicU64,
    /// `allow_partial` responses served with a non-empty `degraded`
    /// shard list — explicit partial answers, never silent ones.
    pub responses_degraded: AtomicU64,
}

impl Default for ServerCounters {
    fn default() -> Self {
        Self::new()
    }
}

/// Bumps `hwm` to at least `observed` (relaxed CAS loop).
fn raise_hwm(hwm: &AtomicU64, observed: u64) {
    let mut cur = hwm.load(Ordering::Relaxed);
    while observed > cur {
        match hwm.compare_exchange_weak(cur, observed, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(now) => cur = now,
        }
    }
}

impl ServerCounters {
    /// Fresh counters; the uptime clock starts now.
    pub fn new() -> Self {
        ServerCounters {
            started: Instant::now(),
            conns_accepted: AtomicU64::new(0),
            conns_active: AtomicU64::new(0),
            conns_shed: AtomicU64::new(0),
            requests_shed: AtomicU64::new(0),
            requests_deadline_exceeded: AtomicU64::new(0),
            requests_inflight: AtomicU64::new(0),
            requests_serving: AtomicU64::new(0),
            requests_queued: AtomicU64::new(0),
            inflight_hwm: AtomicU64::new(0),
            queue_depth_hwm: AtomicU64::new(0),
            bytes_in: AtomicU64::new(0),
            bytes_out: AtomicU64::new(0),
            hello: AtomicU64::new(0),
            query: AtomicU64::new(0),
            insert: AtomicU64::new(0),
            remove: AtomicU64::new(0),
            fold: AtomicU64::new(0),
            stats: AtomicU64::new(0),
            health: AtomicU64::new(0),
            explain: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            hedges_fired: AtomicU64::new(0),
            hedges_won: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            replica_failures: AtomicU64::new(0),
            breaker_opened: AtomicU64::new(0),
            responses_degraded: AtomicU64::new(0),
        }
    }

    /// Seconds since the counters were created.
    pub fn uptime_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Records one request hitting `endpoint` (a [`crate::wire::Request::endpoint`] name).
    pub fn count_endpoint(&self, endpoint: &str) {
        let slot = match endpoint {
            "hello" => &self.hello,
            "query" => &self.query,
            "insert" => &self.insert,
            "remove" => &self.remove,
            "fold" => &self.fold,
            "stats" => &self.stats,
            "health" => &self.health,
            "explain" => &self.explain,
            _ => return,
        };
        slot.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks a request admitted into execution, maintaining the
    /// in-flight high-water mark.
    pub fn enter_inflight(&self) {
        let now = self.requests_inflight.fetch_add(1, Ordering::Relaxed) + 1;
        raise_hwm(&self.inflight_hwm, now);
    }

    /// Marks an admitted request finished.
    pub fn exit_inflight(&self) {
        self.requests_inflight.fetch_sub(1, Ordering::Relaxed);
    }

    /// Marks a request queued at the admission gate, maintaining the
    /// queue-depth high-water mark.
    pub fn enter_queue(&self) {
        let now = self.requests_queued.fetch_add(1, Ordering::Relaxed) + 1;
        raise_hwm(&self.queue_depth_hwm, now);
    }

    /// Marks a queued request dequeued (admitted or shed).
    pub fn exit_queue(&self) {
        self.requests_queued.fetch_sub(1, Ordering::Relaxed);
    }

    /// Point-in-time copy of every counter.
    pub fn snapshot(&self) -> ServerStatsSnapshot {
        let ld = |a: &AtomicU64| a.load(Ordering::Relaxed);
        ServerStatsSnapshot {
            uptime_secs: self.uptime_secs(),
            conns_accepted: ld(&self.conns_accepted),
            conns_active: ld(&self.conns_active),
            conns_shed: ld(&self.conns_shed),
            requests_shed: ld(&self.requests_shed),
            requests_deadline_exceeded: ld(&self.requests_deadline_exceeded),
            requests_inflight: ld(&self.requests_inflight),
            requests_serving: ld(&self.requests_serving),
            requests_queued: ld(&self.requests_queued),
            inflight_hwm: ld(&self.inflight_hwm),
            queue_depth_hwm: ld(&self.queue_depth_hwm),
            bytes_in: ld(&self.bytes_in),
            bytes_out: ld(&self.bytes_out),
            requests_hello: ld(&self.hello),
            requests_query: ld(&self.query),
            requests_insert: ld(&self.insert),
            requests_remove: ld(&self.remove),
            requests_fold: ld(&self.fold),
            requests_stats: ld(&self.stats),
            requests_health: ld(&self.health),
            requests_explain: ld(&self.explain),
            retries: ld(&self.retries),
            hedges_fired: ld(&self.hedges_fired),
            hedges_won: ld(&self.hedges_won),
            failovers: ld(&self.failovers),
            replica_failures: ld(&self.replica_failures),
            breaker_opened: ld(&self.breaker_opened),
            responses_degraded: ld(&self.responses_degraded),
        }
    }
}

/// Serializable point-in-time view of [`ServerCounters`] — the payload
/// of the `stats` endpoint.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ServerStatsSnapshot {
    /// Seconds the server has been up.
    pub uptime_secs: f64,
    /// Connections accepted over the process lifetime.
    pub conns_accepted: u64,
    /// Connections currently open.
    pub conns_active: u64,
    /// Connections refused at the connection budget.
    pub conns_shed: u64,
    /// Requests shed by admission control.
    pub requests_shed: u64,
    /// Requests refused for an expired deadline.
    pub requests_deadline_exceeded: u64,
    /// Requests executing right now.
    pub requests_inflight: u64,
    /// Frames being decoded/served/written by connection handlers right
    /// now (the gauge graceful drain waits on).
    #[serde(default)]
    pub requests_serving: u64,
    /// Requests waiting at the admission gate right now.
    pub requests_queued: u64,
    /// In-flight high-water mark.
    pub inflight_hwm: u64,
    /// Admission-queue depth high-water mark.
    pub queue_depth_hwm: u64,
    /// Socket bytes read.
    pub bytes_in: u64,
    /// Socket bytes written.
    pub bytes_out: u64,
    /// `hello` requests served.
    pub requests_hello: u64,
    /// `query` requests served.
    pub requests_query: u64,
    /// `insert` requests served.
    pub requests_insert: u64,
    /// `remove` requests served.
    pub requests_remove: u64,
    /// `fold` requests served.
    pub requests_fold: u64,
    /// `stats` requests served.
    pub requests_stats: u64,
    /// `health` requests served.
    pub requests_health: u64,
    /// `explain` requests served.
    pub requests_explain: u64,
    /// Idempotent request resends after transient transport failures.
    #[serde(default)]
    pub retries: u64,
    /// Hedged second-replica probes fired.
    #[serde(default)]
    pub hedges_fired: u64,
    /// Hedged probes that answered first.
    #[serde(default)]
    pub hedges_won: u64,
    /// Requests answered via failover to another replica.
    #[serde(default)]
    pub failovers: u64,
    /// Per-replica transport failures observed.
    #[serde(default)]
    pub replica_failures: u64,
    /// Circuit-breaker open transitions.
    #[serde(default)]
    pub breaker_opened: u64,
    /// Explicit degraded (partial) responses served.
    #[serde(default)]
    pub responses_degraded: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hwm_tracks_peak() {
        let c = ServerCounters::new();
        c.enter_inflight();
        c.enter_inflight();
        c.exit_inflight();
        c.enter_inflight();
        let s = c.snapshot();
        assert_eq!(s.requests_inflight, 2);
        assert_eq!(s.inflight_hwm, 2);
    }

    #[test]
    fn snapshot_roundtrips_as_json() {
        let c = ServerCounters::new();
        c.count_endpoint("query");
        c.count_endpoint("query");
        c.count_endpoint("health");
        let snap = c.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: ServerStatsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.requests_query, 2);
        assert_eq!(back.requests_health, 1);
    }
}
