//! The staged query engine.
//!
//! [`ShardedTaleDatabase::query`](crate::ShardedTaleDatabase::query) used
//! to be one monolithic function; it is now an explicit pipeline of
//! stages, each in its own module, orchestrated by [`exec`]:
//!
//! 1. [`plan`] — per query: importance selection (§V-B), the NH-Index
//!    probe signature of every important node, and a canonical
//!    (relabeling-invariant) query signature used as the cache key. The
//!    pipeline is fixed: every important node is probed once, in
//!    selection order, on every shard. `tale-cli explain` renders the
//!    plan with posting-row estimates from per-index statistics.
//! 2. [`cache`] — the [`ResultCache`](cache::ResultCache) lookup, keyed by
//!    `(canonical signature, options fingerprint)` and verified against the
//!    exact query so hash collisions can never serve wrong results.
//! 3. [`probe`] — the NH-Index probe stage (conditions IV.1–IV.4,
//!    Eq. IV.5 scoring). Identical probe signatures across the batch hit
//!    the disk index once and share the answer.
//! 4. [`anchor`] — one-to-one anchor resolution per candidate graph
//!    (maximum-weight bipartite matching + conservation-aware refinement).
//! 5. [`grow`] — the per-graph match driver: grow from anchors
//!    (Algorithms 2–4) and iteratively re-anchor the residue to a fixpoint.
//! 6. [`exec`] — scatter/gather over index *shards* and worker threads
//!    with a deterministic index-ordered merge, then per-query ranking.
//!    The unsharded database is simply the one-shard case. Batch output is
//!    bit-identical to running each query alone at any thread count and
//!    any shard count (see the determinism argument in [`exec`]).
//!
//! [`stats`] threads per-stage observability (probe counters, buffer-pool
//! hit rates from `tale-storage`, per-shard [`stats::ShardStats`], wall
//! clocks) through every layer.

pub mod anchor;
pub mod cache;
pub mod exec;
pub mod grow;
pub mod plan;
pub mod probe;
pub mod stats;
