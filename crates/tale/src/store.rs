//! The persisted graph store of a database directory: a base file plus an
//! append-only graph log.
//!
//! * `graphs.json` is the **base**: the whole [`GraphDb`] as a build or a
//!   compaction left it. Nothing else writes it.
//! * `graphs.log` holds one [`GraphRecord`] per insert since, each framed
//!   and checksummed by [`tale_storage::log`]. An insert writes only its
//!   own record, so it costs O(inserted graph), not O(database).
//!
//! Appending the record (written and fsynced) is an insert's **one commit
//! point**. Everything after it — publishing the new database version,
//! the owning shard's delta and its `mvcc.json` flip —
//! is re-derived from the store on open, because an index's unfolded
//! members are by construction the graphs the store holds past its last
//! build or fold. A crash before the append leaves the insert undone; at
//! or after it, done. There is no journal and no rollback.
//!
//! Opening loads the base, then replays the log: a torn final record (a
//! crash cut its append short) is truncated away, and a damaged record
//! with a whole record after it is refused as
//! [`TaleError::CorruptLog`]. A directory without `graphs.log` opens as
//! zero records, which is how directories written before the log existed
//! read. Files of the retired mutation journal (`pending.json`,
//! `graphs.json.pre`) are refused by name: they mean an older build's
//! insert may be half-done, and this build no longer knows how to finish
//! it.
//!
//! Rebuilding a directory in place (a build over an old one, or
//! [`ShardedTaleDatabase::compact`](crate::ShardedTaleDatabase::compact))
//! first removes the index manifest ([`unpublish`]), then writes the new base and an
//! empty log, then the new index with its manifest last. A crash in
//! between leaves a directory without a manifest, which open refuses as
//! [`TaleError::Rebuild`] — never a new index served over an old store.

use crate::{Result, TaleError};
use serde::Serialize;
use std::path::Path;
use tale_graph::io::GraphRecord;
use tale_graph::{GraphDb, GraphId};
use tale_storage::log::RecordLog;
use tale_storage::StorageError;

/// The base file of the graph store.
pub const DB_FILE: &str = "graphs.json";
/// The append-only graph log.
pub const LOG_FILE: &str = "graphs.log";
/// Files the retired mutation journal left in a directory mid-insert.
const JOURNAL_FILES: [&str; 2] = ["pending.json", "graphs.json.pre"];

/// What opening a database directory found and repaired
/// ([`crate::ShardedTaleDatabase::open_with_recovery`]).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct DbRecovery {
    /// Inserts replayed from `graphs.log` on top of `graphs.json`.
    pub log_records: usize,
    /// Bytes of a torn final log record (an insert a crash cut short
    /// before it committed) that were truncated away.
    pub log_torn_bytes: u64,
    /// Orphaned generation directories swept from `gens/` — unfinished
    /// folds, or retired generations whose GC never ran — one entry per
    /// open shard, in shard order.
    pub generations_swept: Vec<usize>,
}

/// The inserts a log replay applied, in order.
#[derive(Debug, Default)]
pub struct Replayed {
    /// Each record's owning shard (`None` only in logs of an older
    /// build's single-index layout, which open refuses).
    pub shards: Vec<Option<u32>>,
    /// Bytes of a torn final record that were truncated away.
    pub torn_bytes: u64,
}

/// The writer's handle on a directory's graph log. One exists per open
/// database and every insert goes through it under the database's writer
/// lock: one writer, one commit point.
#[derive(Debug)]
pub struct GraphLog {
    log: RecordLog,
    /// Node and edge vocabulary sizes the store already holds: labels
    /// past them ride along in the next record.
    vocab: (usize, usize),
}

fn vocab_of(db: &GraphDb) -> (usize, usize) {
    (db.node_vocab().len(), db.edge_vocab().len())
}

fn log_error(e: StorageError) -> TaleError {
    match e {
        StorageError::CorruptRecord { offset } => TaleError::CorruptLog { offset },
        StorageError::Io(e) => TaleError::Io(e),
        other => TaleError::Io(std::io::Error::other(other.to_string())),
    }
}

/// Refuses `dir` unless its index manifest `manifest` exists: a build or
/// compaction that stopped before writing it left an index that does not
/// match the store.
pub fn require(dir: &Path, manifest: &str) -> Result<()> {
    if dir.join(manifest).is_file() {
        return Ok(());
    }
    Err(TaleError::Rebuild {
        file: manifest.to_owned(),
        problem: if dir.is_dir() {
            "missing: a build or compaction of this directory did not finish"
        } else {
            "missing: no database directory here"
        }
        .to_owned(),
    })
}

/// Removes `dir`'s index manifest `manifest` (durably) before the
/// directory is rebuilt in place, so that until the new manifest is
/// written open refuses the directory instead of pairing old and new
/// files.
pub fn unpublish(dir: &Path, manifest: &str) -> Result<()> {
    match std::fs::remove_file(dir.join(manifest)) {
        Ok(()) => Ok(tale_storage::atomic::sync_dir(dir)?),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e.into()),
    }
}

/// Loads the base `graphs.json` of `dir`, refusing a directory the
/// retired mutation journal left mid-insert.
pub fn load_base(dir: &Path) -> Result<GraphDb> {
    if let Some(f) = JOURNAL_FILES.iter().find(|f| dir.join(f).exists()) {
        return Err(TaleError::Rebuild {
            file: (*f).to_owned(),
            problem: "left mid-insert by the mutation journal of an older build, which \
                      this build cannot finish (or recover with that build)"
                .to_owned(),
        });
    }
    Ok(tale_graph::io::load_json(&dir.join(DB_FILE))?)
}

impl GraphLog {
    /// Writes `db` as the new base of `dir` and removes the old log, so
    /// the store holds exactly `db`. Callers rebuilding in place
    /// [`unpublish`] the index manifest first.
    pub fn create(dir: &Path, db: &GraphDb) -> Result<GraphLog> {
        tale_graph::io::save_json(db, &dir.join(DB_FILE))?;
        let path = dir.join(LOG_FILE);
        match std::fs::remove_file(&path) {
            Ok(()) => tale_storage::atomic::sync_dir(dir)?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        Ok(GraphLog {
            log: RecordLog::empty(&path),
            vocab: vocab_of(db),
        })
    }

    /// Replays `dir`'s log onto `db` (its base, from [`load_base`]):
    /// every committed insert is applied in order, a torn tail is
    /// truncated, and corruption is [`TaleError::CorruptLog`]. Returns the
    /// handle that appends after the last record.
    pub fn replay(dir: &Path, db: &mut GraphDb) -> Result<(GraphLog, Replayed)> {
        let (log, raw) = RecordLog::open(&dir.join(LOG_FILE)).map_err(log_error)?;
        let mut replayed = Replayed {
            shards: Vec::with_capacity(raw.records.len()),
            torn_bytes: raw.torn_bytes,
        };
        for bytes in &raw.records {
            let record = GraphRecord::decode(bytes)?;
            replayed.shards.push(record.shard);
            record.apply(db)?;
        }
        let log = GraphLog {
            log,
            vocab: vocab_of(db),
        };
        Ok((log, replayed))
    }

    /// Commits the insert of graph `gid` (already the last graph of `db`)
    /// by appending its record, with the labels `db` interned since the
    /// previous one and its owning `shard`. When this returns `Ok` the
    /// insert is durable.
    pub fn append(&mut self, db: &GraphDb, gid: GraphId, shard: u32) -> Result<()> {
        let record = GraphRecord::of(db, gid, self.vocab, Some(shard));
        self.log.append(&record.encode())?;
        self.vocab = vocab_of(db);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tale_graph::Graph;

    fn db() -> GraphDb {
        let mut db = GraphDb::new();
        let a = db.intern_node_label("A");
        let mut g = Graph::new_undirected();
        let x = g.add_node(a);
        let y = g.add_node(a);
        g.add_edge(x, y).unwrap();
        db.insert("g0", g);
        db
    }

    #[test]
    fn create_replay_append_round_trip() {
        let d = tempfile::tempdir().unwrap();
        let mut live = db();
        let mut log = GraphLog::create(d.path(), &live).unwrap();
        let b = live.intern_node_label("B");
        let mut g = Graph::new_undirected();
        g.add_node(b);
        let gid = live.insert("g1", g);
        log.append(&live, gid, 0).unwrap();

        let mut back = load_base(d.path()).unwrap();
        assert_eq!(back.len(), 1);
        let (_, replayed) = GraphLog::replay(d.path(), &mut back).unwrap();
        assert_eq!(replayed.shards, vec![Some(0)]);
        assert_eq!(back.len(), 2);
        assert_eq!(back.node_vocab().get("B"), Some(b.0));
        // a rebuild starts the log over
        GraphLog::create(d.path(), &db()).unwrap();
        assert!(!d.path().join(LOG_FILE).exists());
    }

    #[test]
    fn journal_leftovers_and_missing_manifests_are_refused_by_name() {
        let d = tempfile::tempdir().unwrap();
        GraphLog::create(d.path(), &db()).unwrap();
        for f in JOURNAL_FILES {
            std::fs::write(d.path().join(f), b"{}").unwrap();
            match load_base(d.path()) {
                Err(e @ TaleError::Rebuild { .. }) => assert!(e.to_string().contains(f), "{e}"),
                other => panic!("{f}: expected a rebuild refusal, got {other:?}"),
            }
            std::fs::remove_file(d.path().join(f)).unwrap();
        }
        load_base(d.path()).unwrap();
        assert!(matches!(
            require(d.path(), "mvcc.json"),
            Err(TaleError::Rebuild { .. })
        ));
        std::fs::write(d.path().join("mvcc.json"), b"{}").unwrap();
        require(d.path(), "mvcc.json").unwrap();
        unpublish(d.path(), "mvcc.json").unwrap();
        unpublish(d.path(), "mvcc.json").unwrap();
        assert!(require(d.path(), "mvcc.json").is_err());
    }
}
