//! Graph-to-shard placement: graph `id` goes to shard FNV-1a(id) mod N.
//!
//! Build, insert routing and compaction all place by [`shard_for`]. The
//! placement is recorded in the [`ShardManifest`](crate::ShardManifest),
//! which is the ground truth thereafter — queries and removals never
//! re-derive it. A manifest written by an older build may name another
//! placement (`size-balanced`, `label-clustered`); it still opens with its
//! recorded assignment and answers identically, and every graph placed
//! after that (an insert, a compaction) goes by hash.

use tale_graph::GraphId;

/// The placement name every build records in `shards.json`.
pub(crate) const PLACEMENT: &str = "hash";

/// Hash-by-id placement, the only one: the unit argument of
/// [`ShardedTaleDatabase::build`](crate::ShardedTaleDatabase::build) and
/// [`ShardedNhIndex::build`](crate::ShardedNhIndex::build). It carries no
/// choice; it stays only because the performance ledger's served workload
/// passes it, and goes at the next change to the ledger.
#[derive(Debug, Default, Clone, Copy)]
pub struct HashPolicy;

/// The shard of graph `gid` in an `nshards`-shard layout: 64-bit FNV-1a
/// over the id's little-endian bytes, mod `nshards`. Stable across
/// platforms and runs and oblivious to graph sizes, so a late insert lands
/// on the shard a full rebuild would put it on.
pub(crate) fn shard_for(gid: GraphId, nshards: u32) -> u32 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in gid.0.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % nshards as u64) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_assignment_is_stable_and_in_range() {
        let a1: Vec<u32> = (0..20).map(|g| shard_for(GraphId(g), 4)).collect();
        let a2: Vec<u32> = (0..20).map(|g| shard_for(GraphId(g), 4)).collect();
        assert_eq!(a1, a2);
        assert!(a1.iter().all(|&s| s < 4));
        // every shard receives some of twenty graphs
        assert!((0..4).all(|s| a1.contains(&s)), "{a1:?}");
        // one shard holds everything
        assert!((0..20).all(|g| shard_for(GraphId(g), 1) == 0));
    }
}
