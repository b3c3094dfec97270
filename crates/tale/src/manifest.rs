//! The `shards.json` manifest: the persisted shard map.
//!
//! A sharded index directory looks like
//!
//! ```text
//! index-dir/
//!   shards.json      <- this manifest
//!   graphs.json      <- the graph database's base (same as unsharded)
//!   graphs.log       <- one record per insert since, naming its shard
//!   shard-000/       <- a complete generational NH-Index:
//!     mvcc.json      <-   its manifest (the shard's one commit point)
//!     gens/g0/       <-   its current immutable generation
//!   shard-001/
//!   ...
//! ```
//!
//! The manifest is the ground truth for placement as of the build:
//! `assignment[gid]` names the one shard whose index carries that graph's
//! postings, and graphs inserted since take their shard from their
//! graph-log record. It also records a per-shard fingerprint of the
//! vocabulary each shard was built against; open
//! ([`ShardedTaleDatabase::open`](crate::ShardedTaleDatabase::open))
//! refuses to serve queries when a fingerprint disagrees with the
//! reloaded base `graphs.json`, which catches a `graphs.json` swapped or
//! edited behind the index's back — vocabulary drift would silently
//! corrupt probe bitmaps.

use crate::{Result, TaleError};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use tale_graph::{GraphDb, GraphId};

/// Manifest file name inside a sharded index directory.
pub const MANIFEST_FILE: &str = "shards.json";

/// Current manifest schema version (bumped on incompatible change).
/// Version 1 described shards that were plain NH-Index directories
/// mutated in place under a write-ahead log; version 2 shards are
/// generational (`mvcc.json` + `gens/`).
pub const MANIFEST_SCHEMA_VERSION: u32 = 2;

/// The persisted shard map (see the module docs for the directory layout).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardManifest {
    /// Manifest format version (`MANIFEST_SCHEMA_VERSION`).
    pub schema_version: u32,
    /// Number of shards (`shard-000` .. `shard-{N-1}`).
    pub shard_count: u32,
    /// Name of the placement that produced `assignment`: `"hash"` for
    /// every build of this version. An older build's `size-balanced` or
    /// `label-clustered` still opens with its recorded assignment; inserts
    /// and compaction place by hash (FNV-1a of the graph id, mod the
    /// shard count) either way.
    pub policy: String,
    /// `assignment[gid]` = owning shard, indexed by [`GraphId::idx`]. On
    /// disk it covers the graphs of the build; an open database appends
    /// the shards of the graph log's records in memory.
    pub assignment: Vec<u32>,
    /// Per-shard fingerprint of the vocabulary (node + edge + group map)
    /// the shard's index was built against: the base `graphs.json`'s.
    pub vocab_fingerprints: Vec<u64>,
}

impl ShardManifest {
    /// The shard owning `gid`, or `None` for an id the manifest has never
    /// seen.
    pub fn shard_of(&self, gid: GraphId) -> Option<u32> {
        self.assignment.get(gid.idx()).copied()
    }

    /// All graph ids assigned to `shard`, in ascending id order.
    pub fn graphs_of(&self, shard: u32) -> Vec<GraphId> {
        self.assignment
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s == shard)
            .map(|(i, _)| GraphId(i as u32))
            .collect()
    }

    /// Directory of one shard's NH-Index under the sharded root.
    pub fn shard_dir(root: &Path, shard: u32) -> PathBuf {
        root.join(format!("shard-{shard:03}"))
    }

    /// Writes the manifest to `root/shards.json` atomically (temp file +
    /// fsync + rename), so a crash mid-save leaves either the old or the
    /// new manifest — never a torn one.
    pub fn save(&self, root: &Path) -> Result<()> {
        let json = serde_json::to_string_pretty(self)
            .map_err(|e| TaleError::Manifest(format!("serialize: {e}")))?;
        tale_storage::atomic::write_atomic(&root.join(MANIFEST_FILE), json.as_bytes())?;
        Ok(())
    }

    /// Reads the manifest from `root/shards.json` and checks internal
    /// consistency (schema version, assignment range, fingerprint count).
    pub fn load(root: &Path) -> Result<ShardManifest> {
        let raw = std::fs::read_to_string(root.join(MANIFEST_FILE))?;
        let m: ShardManifest =
            serde_json::from_str(&raw).map_err(|e| TaleError::Manifest(format!("parse: {e}")))?;
        if m.schema_version != MANIFEST_SCHEMA_VERSION {
            return Err(TaleError::Manifest(format!(
                "schema version {} (this build reads {}); \
                 rebuild with `tale-cli build --shards N`",
                m.schema_version, MANIFEST_SCHEMA_VERSION
            )));
        }
        if m.shard_count == 0 {
            return Err(TaleError::Manifest("shard_count is zero".into()));
        }
        if m.vocab_fingerprints.len() != m.shard_count as usize {
            return Err(TaleError::Manifest(format!(
                "{} fingerprints for {} shards",
                m.vocab_fingerprints.len(),
                m.shard_count
            )));
        }
        if let Some(&bad) = m.assignment.iter().find(|&&s| s >= m.shard_count) {
            return Err(TaleError::Manifest(format!(
                "assignment names shard {bad} but shard_count is {}",
                m.shard_count
            )));
        }
        Ok(m)
    }
}

/// Fingerprint of everything the index's key space depends on besides the
/// graphs themselves: node vocabulary, edge vocabulary, and the §IV-E
/// group map (which rewrites effective labels). FNV-1a over a
/// length-prefixed serialization, stable across platforms.
pub fn vocab_fingerprint(db: &GraphDb) -> u64 {
    fn eat(h: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *h ^= b as u64;
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (id, name) in db.node_vocab().iter() {
        eat(&mut h, &id.to_le_bytes());
        eat(&mut h, &(name.len() as u64).to_le_bytes());
        eat(&mut h, name.as_bytes());
    }
    eat(&mut h, &[0xff]); // domain separator: node vocab | edge vocab
    for (id, name) in db.edge_vocab().iter() {
        eat(&mut h, &id.to_le_bytes());
        eat(&mut h, &(name.len() as u64).to_le_bytes());
        eat(&mut h, name.as_bytes());
    }
    eat(&mut h, &[0xfe]); // edge vocab | group map
    if let Some(groups) = db.group_map() {
        for &g in groups {
            eat(&mut h, &g.to_le_bytes());
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_lookup() {
        let dir = tempfile::tempdir().unwrap();
        let m = ShardManifest {
            schema_version: MANIFEST_SCHEMA_VERSION,
            shard_count: 3,
            policy: "hash".into(),
            assignment: vec![2, 0, 1, 2, 0],
            vocab_fingerprints: vec![7, 7, 7],
        };
        m.save(dir.path()).unwrap();
        let back = ShardManifest::load(dir.path()).unwrap();
        assert_eq!(back.shard_count, 3);
        assert_eq!(back.assignment, m.assignment);
        assert_eq!(back.shard_of(GraphId(0)), Some(2));
        assert_eq!(back.shard_of(GraphId(9)), None);
        assert_eq!(back.graphs_of(2), vec![GraphId(0), GraphId(3)]);
        assert_eq!(
            ShardManifest::shard_dir(dir.path(), 2),
            dir.path().join("shard-002")
        );
    }

    #[test]
    fn load_rejects_inconsistencies() {
        let dir = tempfile::tempdir().unwrap();
        assert!(ShardManifest::load(dir.path()).is_err()); // missing

        let mut m = ShardManifest {
            schema_version: MANIFEST_SCHEMA_VERSION + 1,
            shard_count: 2,
            policy: "hash".into(),
            assignment: vec![0, 1],
            vocab_fingerprints: vec![1, 2],
        };
        m.save(dir.path()).unwrap();
        assert!(ShardManifest::load(dir.path()).is_err()); // bad version

        m.schema_version = MANIFEST_SCHEMA_VERSION;
        m.assignment = vec![0, 5];
        m.save(dir.path()).unwrap();
        assert!(ShardManifest::load(dir.path()).is_err()); // shard out of range

        m.assignment = vec![0, 1];
        m.vocab_fingerprints = vec![1];
        m.save(dir.path()).unwrap();
        assert!(ShardManifest::load(dir.path()).is_err()); // fingerprint count

        m.vocab_fingerprints = vec![1, 2];
        m.save(dir.path()).unwrap();
        assert!(ShardManifest::load(dir.path()).is_ok());
    }

    #[test]
    fn fingerprint_tracks_vocab_and_groups() {
        let mut db = GraphDb::new();
        db.intern_node_label("A");
        let f1 = vocab_fingerprint(&db);
        db.intern_node_label("B");
        let f2 = vocab_fingerprint(&db);
        assert_ne!(f1, f2);
        let f2_again = vocab_fingerprint(&db);
        assert_eq!(f2, f2_again);
        db.set_group(vec![0, 0]).unwrap();
        assert_ne!(vocab_fingerprint(&db), f2);
    }
}
