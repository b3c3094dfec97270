//! Multi-file mutation journal.
//!
//! A persistent database keeps durable artifacts that must stay
//! consistent: the graph store (`graphs.json`), the NH-Index, and — in the
//! sharded layout — the shard map (`shards.json`). Each is individually
//! crash-safe (an atomic rename), but a crash *between* their commit
//! points could otherwise leave an index that references a graph the
//! store lacks, or vice versa — a corrupted-but-served state no
//! single-file mechanism can see.
//!
//! The journal closes that window. Before a graph insert touches anything
//! durable it *stages*: the current `graphs.json` is copied to a fsynced
//! backup and a `pending.json` marker recording the owning index's
//! pre-mutation logical counter is atomically written. Then the new
//! `graphs.json` is saved (and, when sharded, the new `shards.json`), the
//! index mutation commits — the atomic `mvcc.json` write bumping the
//! logical counter, the one index commit point in the codebase — and the
//! journal is cleared. Recovery on open keys off that counter, the *last*
//! commit point in the sequence, with one rule for both layouts:
//!
//! * counter unchanged → the index mutation never committed (and never
//!   touched an existing index file); restore `graphs.json` from the
//!   backup. Everything is bit-identical to the pre-insert state.
//! * counter advanced → the index committed; the already-saved
//!   `graphs.json` is exactly the post-insert state. Discard the backup.
//!
//! Graph removals and folds change only the index manifest and never
//! touch `graphs.json`, so they need no journal. Clearing is crash-safe
//! too: the marker is deleted before the backup, and a stale backup
//! without a marker is swept harmlessly on the next open.

use crate::Result;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Marker file recording an in-flight multi-file mutation.
pub const JOURNAL_FILE: &str = "pending.json";
/// Pre-mutation copy of `graphs.json` while a mutation is in flight.
pub const DB_BACKUP_FILE: &str = "graphs.json.pre";

/// Contents of the `pending.json` marker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PendingMutation {
    /// The owning index's *logical* mutation counter observed *before*
    /// the mutation began. Recovery compares it to the persisted counter
    /// to decide whether the mutation committed.
    pub pre_generation: u64,
    /// For sharded databases: the shard the mutation routed to (whose
    /// counter `pre_generation` refers to). `None` for the single-index
    /// database.
    #[serde(default)]
    pub shard: Option<u32>,
}

/// What opening a database directory found and repaired — the one
/// recovery story of both layouts ([`crate::TaleDatabase::open_with_recovery`]
/// and its sharded counterpart).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct DbRecovery {
    /// A `pending.json` marker was present (a multi-file mutation was in
    /// flight at crash time).
    pub journal_present: bool,
    /// `graphs.json` was restored from its pre-mutation backup.
    pub db_rolled_back: bool,
    /// Orphaned generation directories swept from `gens/` — unfinished
    /// folds, or retired generations whose GC never ran — per index: one
    /// entry for the single index, one per shard when sharded.
    pub generations_swept: Vec<usize>,
}

/// Handle to the journal files of one database directory.
pub struct MutationJournal {
    dir: PathBuf,
}

impl MutationJournal {
    /// Journal for the database persisted in `dir`.
    pub fn new(dir: &Path) -> Self {
        MutationJournal {
            dir: dir.to_owned(),
        }
    }

    fn marker(&self) -> PathBuf {
        self.dir.join(JOURNAL_FILE)
    }

    fn backup(&self) -> PathBuf {
        self.dir.join(DB_BACKUP_FILE)
    }

    /// Stages a mutation: backs up `db_file` (fsynced) and atomically
    /// writes the marker. After this returns, a crash at any later point
    /// is recoverable by [`MutationJournal::recover`].
    pub fn stage(&self, db_file: &Path, marker: PendingMutation) -> Result<()> {
        std::fs::copy(db_file, self.backup())?;
        let f = std::fs::File::open(self.backup())?;
        f.sync_all()?;
        drop(f);
        let json = serde_json::to_string_pretty(&marker).expect("marker serializes");
        tale_storage::atomic::write_atomic(&self.marker(), json.as_bytes())?;
        Ok(())
    }

    /// Reads the marker, if present.
    fn load(&self) -> Result<Option<PendingMutation>> {
        let marker = self.marker();
        if !marker.exists() {
            return Ok(None);
        }
        let raw = std::fs::read_to_string(&marker)?;
        let pending: PendingMutation = serde_json::from_str(&raw)
            .map_err(|e| crate::TaleError::Io(std::io::Error::other(format!("journal: {e}"))))?;
        Ok(Some(pending))
    }

    /// Restores `db_file` from the staged backup (atomic rename). Returns
    /// whether a backup existed to restore.
    fn roll_back_db(&self, db_file: &Path) -> Result<bool> {
        if !self.backup().exists() {
            return Ok(false);
        }
        std::fs::rename(self.backup(), db_file)?;
        tale_storage::atomic::sync_dir(&self.dir)?;
        Ok(true)
    }

    /// Removes the marker, then the backup. Deleting the marker first
    /// makes the clear atomic from recovery's point of view: once the
    /// marker is gone the mutation is fully committed, and an orphaned
    /// backup is just swept.
    pub fn clear(&self) -> Result<()> {
        remove_if_present(&self.marker())?;
        tale_storage::atomic::sync_dir(&self.dir)?;
        remove_if_present(&self.backup())?;
        Ok(())
    }

    /// Repairs the directory after a crash. `post_generation` reads the
    /// persisted logical counter of the index the pending mutation
    /// belongs to (it names the shard, if any); it is only called when a
    /// marker is present. Returns whether a journal was present and
    /// whether `graphs.json` was rolled back.
    pub fn recover(
        &self,
        post_generation: impl FnOnce(&PendingMutation) -> Result<u64>,
    ) -> Result<(bool, bool)> {
        let Some(pending) = self.load()? else {
            // No mutation in flight; sweep a stale backup if the previous
            // clear() died between its two deletes.
            remove_if_present(&self.backup())?;
            return Ok((false, false));
        };
        let mut db_rolled_back = false;
        if post_generation(&pending)? == pending.pre_generation {
            // Index mutation never committed: put the pre-mutation
            // graphs.json back (rename is atomic; the backup was fsynced
            // at stage time).
            db_rolled_back = self.roll_back_db(&self.dir.join(crate::database::DB_FILE))?;
        }
        self.clear()?;
        Ok((true, db_rolled_back))
    }
}

fn remove_if_present(path: &Path) -> std::io::Result<()> {
    match std::fs::remove_file(path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_recover_rolls_db_back_when_generation_unchanged() {
        let d = tempfile::tempdir().unwrap();
        let db_file = d.path().join(crate::database::DB_FILE);
        std::fs::write(&db_file, b"old").unwrap();
        let j = MutationJournal::new(d.path());
        j.stage(
            &db_file,
            PendingMutation {
                pre_generation: 7,
                shard: None,
            },
        )
        .unwrap();
        std::fs::write(&db_file, b"new").unwrap(); // the mutation's save
                                                   // crash; index recovery left generation at 7 → roll back
        let (present, rolled) = j.recover(|_| Ok(7)).unwrap();
        assert!(present && rolled);
        assert_eq!(std::fs::read(&db_file).unwrap(), b"old");
        assert!(!d.path().join(JOURNAL_FILE).exists());
        assert!(!d.path().join(DB_BACKUP_FILE).exists());
    }

    #[test]
    fn stage_recover_keeps_db_when_generation_advanced() {
        let d = tempfile::tempdir().unwrap();
        let db_file = d.path().join(crate::database::DB_FILE);
        std::fs::write(&db_file, b"old").unwrap();
        let j = MutationJournal::new(d.path());
        j.stage(
            &db_file,
            PendingMutation {
                pre_generation: 7,
                shard: None,
            },
        )
        .unwrap();
        std::fs::write(&db_file, b"new").unwrap();
        // index committed (generation 8) → keep the new file
        let (present, rolled) = j.recover(|_| Ok(8)).unwrap();
        assert!(present && !rolled);
        assert_eq!(std::fs::read(&db_file).unwrap(), b"new");
        assert!(!d.path().join(DB_BACKUP_FILE).exists());
    }

    #[test]
    fn orphan_backup_is_swept() {
        let d = tempfile::tempdir().unwrap();
        std::fs::write(d.path().join(DB_BACKUP_FILE), b"stale").unwrap();
        let j = MutationJournal::new(d.path());
        let (present, rolled) = j.recover(|_| Ok(0)).unwrap();
        assert!(!present && !rolled);
        assert!(!d.path().join(DB_BACKUP_FILE).exists());
    }

    #[test]
    fn clear_is_idempotent() {
        let d = tempfile::tempdir().unwrap();
        let j = MutationJournal::new(d.path());
        j.clear().unwrap();
        j.clear().unwrap();
    }
}
