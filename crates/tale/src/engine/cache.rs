//! The query-result cache.
//!
//! Repeated-pattern workloads (the same motif queried against a growing
//! database, dashboards re-issuing canned queries) pay the full §V
//! pipeline for every repeat. The [`ResultCache`] short-circuits them:
//! results are stored under `(canonical query signature, options
//! fingerprint)` and a **hit returns without touching the disk index at
//! all** — verifiable through the batch's per-shard probe counts
//! ([`ShardStats::probes`](crate::ShardStats::probes)) and its buffer-pool
//! fetch count.
//!
//! ## Key scheme
//!
//! * The *canonical signature* ([`super::plan::canonical_signature`]) is a 1-WL
//!   hash over effective labels, invariant under query-node relabeling, so
//!   renumbered copies of one pattern land on the same key.
//! * The *options fingerprint* ([`options_fingerprint`]) folds every
//!   result-affecting [`QueryOptions`] field. `threads` is excluded on
//!   purpose: results are bit-identical at every thread count, so a
//!   serial and a parallel run of the same query share one entry.
//! * Each entry additionally stores the **exact** query representation
//!   (direction, effective labels, labeled edge list). A lookup must match
//!   it byte for byte; a 1-WL collision — or a relabeled variant whose
//!   node mapping would not transfer — therefore misses and recomputes.
//!   Collisions cost time, never correctness.
//!
//! ## Stored value: pre-rank partial results
//!
//! Entries store the **pre-rank** match list of one index shard (the whole
//! database is one shard in the unsharded case): every [`QueryMatch`] the
//! match stage produced for graphs owned by that shard, before the global
//! sort and `top_k` truncation. A hit therefore re-runs only the rank
//! stage — a deterministic in-memory sort — so hits are still bit-identical
//! and still touch zero disk probes. Caching pre-rank partials is what
//! makes *scoped* invalidation sound under sharding: a mutation of shard
//! `s` can only change shard `s`'s partial lists, never another shard's.
//!
//! ## Invalidation: generation-keyed, not clear-on-write
//!
//! Nothing ever clears the cache; it has no `clear`. Each key carries the
//! answering reader's [`cache_generation`] at lookup time; a mutation
//! that could change a reader's answers moves that reader to a fresh
//! generation, so its old entries simply become unreachable and age out
//! through LRU. Crucially, an insert into the MVCC delta does **not**
//! advance the base generation's epoch — every base-derived entry keeps
//! its key and stays warm, which is the fix for the old
//! "insert wholesale-clears the cache" bug (proven by the probe-counter
//! test: a repeat query after an insert still answers with zero disk
//! probes). A removal keeps every epoch: it can only *delete* matches, so
//! the engine filters cached lists through the reader's
//! [`is_visible`](tale_nhindex::IndexReader::is_visible) at read time and
//! every entry stays resident and exactly correct.
//!
//! [`cache_generation`]: tale_nhindex::IndexReader::cache_generation
//!
//! Eviction is LRU over a fixed entry budget; the implementation is a
//! plain map + monotonic ticks (no external LRU crate in the vendored
//! dependency set).

use crate::params::QueryOptions;
use crate::result::QueryMatch;
use std::collections::HashMap;
use std::sync::Mutex;
use tale_graph::centrality::ImportanceMeasure;
use tale_graph::{Graph, GraphDb, NodeId};

/// Default entry budget of each of a database's result caches (two per
/// shard: base and delta).
pub const DEFAULT_CACHE_ENTRIES: usize = 128;

/// Exact query representation stored alongside each entry for
/// verification on lookup: direction, per-node effective labels, and the
/// labeled edge list, all in node-id order.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QueryRepr {
    directed: bool,
    labels: Vec<u32>,
    /// `(u, v, edge label + 1)` per edge; unlabeled edges store 0.
    edges: Vec<(u32, u32, u32)>,
}

/// Builds the exact representation of `query` under `db`'s vocabulary.
pub fn query_repr(db: &GraphDb, query: &Graph) -> QueryRepr {
    QueryRepr {
        directed: query.is_directed(),
        labels: query
            .nodes()
            .map(|n: NodeId| db.effective_of_raw(query.label(n)))
            .collect(),
        edges: query
            .edges()
            .map(|(u, v, l)| (u.0, v.0, l.map(|l| l.0 + 1).unwrap_or(0)))
            .collect(),
    }
}

/// Cache key: canonical query signature × options fingerprint × the
/// reader's cache generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// The relabeling-invariant 1-WL query signature.
    pub canonical: u64,
    /// The [`options_fingerprint`] of the query's options.
    pub options: u64,
    /// The answering reader's
    /// [`cache_generation`](tale_nhindex::IndexReader::cache_generation)
    /// at lookup time. A mutation that could change the reader's answers
    /// moves it to a fresh generation, so stale entries become
    /// unreachable without any explicit invalidation — and entries for
    /// readers the mutation did not touch keep their keys and stay warm.
    pub generation: u64,
}

fn fnv(acc: u64, v: u64) -> u64 {
    let mut h = acc;
    for b in v.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Fingerprint of every result-affecting field of [`QueryOptions`].
///
/// `threads` and `use_cache` are excluded: neither changes results.
/// Similarity models are identified by [`SimilarityModel::name`] — custom
/// models must use distinct names (or distinct parameters must appear in
/// the name) to occupy distinct cache entries.
///
/// [`SimilarityModel::name`]: tale_matching::similarity::SimilarityModel::name
pub fn options_fingerprint(opts: &QueryOptions) -> u64 {
    let mut h = fnv(0xcbf29ce484222325, opts.rho.to_bits());
    h = fnv(h, opts.p_imp.to_bits());
    let (tag, seed) = match opts.importance {
        ImportanceMeasure::Degree => (0u64, 0u64),
        ImportanceMeasure::Closeness => (1, 0),
        ImportanceMeasure::Betweenness => (2, 0),
        ImportanceMeasure::Eigenvector => (3, 0),
        ImportanceMeasure::Random(s) => (4, s),
    };
    h = fnv(h, tag);
    h = fnv(h, seed);
    h = fnv(h, opts.hops as u64);
    h = fnv(h, opts.greedy_anchors as u64);
    h = fnv(h, opts.match_edge_labels as u64);
    h = fnv(
        h,
        match opts.top_k {
            Some(k) => k as u64 + 1,
            None => 0,
        },
    );
    for b in opts.similarity.name().bytes() {
        h = fnv(h, b as u64);
    }
    h
}

struct Entry {
    repr: QueryRepr,
    results: Vec<QueryMatch>,
    last_used: u64,
}

struct Inner {
    map: HashMap<CacheKey, Entry>,
    tick: u64,
    hits: u64,
    misses: u64,
    insertions: u64,
}

/// Observable cache counters (see [`ResultCache::stats`]).
#[derive(Debug, Clone, Copy, Default, serde::Serialize)]
pub struct CacheStats {
    /// Entries currently resident.
    pub entries: usize,
    /// Entry budget.
    pub capacity: usize,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the engine.
    pub misses: u64,
    /// Results stored (including LRU replacements).
    pub insertions: u64,
}

impl CacheStats {
    /// Field-wise sum: the counters of two caches taken together.
    pub fn merged(self, other: CacheStats) -> CacheStats {
        CacheStats {
            entries: self.entries + other.entries,
            capacity: self.capacity + other.capacity,
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            insertions: self.insertions + other.insertions,
        }
    }
}

/// LRU result cache keyed by `(canonical signature, options fingerprint)`
/// with exact-query verification, holding one shard's pre-rank partial
/// match lists. Interior-mutable and thread-safe so concurrent queries
/// through one `&ShardedTaleDatabase` share it.
pub struct ResultCache {
    inner: Mutex<Inner>,
    capacity: usize,
}

impl ResultCache {
    /// Creates a cache holding at most `capacity` entries (0 disables
    /// storage entirely — every lookup misses).
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
                hits: 0,
                misses: 0,
                insertions: 0,
            }),
            capacity,
        }
    }

    /// Looks up `key`, verifying the stored query equals `repr` exactly.
    /// A hit clones the stored partial list (cheap next to the pipeline)
    /// and refreshes the entry's LRU position.
    pub fn get(&self, key: &CacheKey, repr: &QueryRepr) -> Option<Vec<QueryMatch>> {
        let mut inner = self.inner.lock().expect("result cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(key) {
            Some(e) if e.repr == *repr => {
                e.last_used = tick;
                let out = e.results.clone();
                inner.hits += 1;
                Some(out)
            }
            _ => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Stores one shard's pre-rank partial list under `key`, evicting the
    /// least-recently-used entry when over budget.
    pub fn put(&self, key: CacheKey, repr: QueryRepr, results: Vec<QueryMatch>) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock().expect("result cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        inner.insertions += 1;
        if inner.map.len() >= self.capacity && !inner.map.contains_key(&key) {
            // O(n) eviction scan: capacity is small (hundreds) and puts
            // are rare next to the pipeline work they cap.
            if let Some(&victim) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k)
            {
                inner.map.remove(&victim);
            }
        }
        inner.map.insert(
            key,
            Entry {
                repr,
                results,
                last_used: tick,
            },
        );
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("result cache poisoned");
        CacheStats {
            entries: inner.map.len(),
            capacity: self.capacity,
            hits: inner.hits,
            misses: inner.misses,
            insertions: inner.insertions,
        }
    }

    /// Entry budget.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}
