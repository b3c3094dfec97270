//! Append-only record log.
//!
//! A log file is a sequence of framed records, each
//! `[len u32 LE][crc32 u32 LE][payload]` with the CRC-32 of the payload
//! ([`crate::page::crc32`]). Appending a record and fsyncing it is one
//! commit point: a reader sees either every byte of it or a shorter file.
//!
//! Reading tells the two ways a record can fail its check apart:
//!
//! * an incomplete or unverifiable **final** record is a *torn tail* — a
//!   crash cut its append short, so it never committed. [`RecordLog::open`]
//!   truncates it away (and fsyncs) and reports how many bytes went;
//! * a record that fails its check with a whole record **after** it is
//!   corruption of committed data, and is refused as
//!   [`StorageError::CorruptRecord`] rather than silently cut off with
//!   everything behind it.
//!
//! A missing file reads as zero records; the first append creates it and
//! fsyncs the directory so the new name is durable too.

use crate::page::crc32;
use crate::{Result, StorageError};
use std::fs::OpenOptions;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Bytes of framing before each payload (`len` + `crc32`).
pub const FRAME_HEADER: usize = 8;

/// `payload` framed as it is stored: `[len][crc32][payload]`.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// What [`RecordLog::open`] read back.
#[derive(Debug, Default)]
pub struct Replay {
    /// Payloads of every whole record, in append order.
    pub records: Vec<Vec<u8>>,
    /// Bytes of a torn final record that were truncated away (0 when the
    /// file ended on a record boundary).
    pub torn_bytes: u64,
}

/// Writer handle on one log file, positioned after its last whole record.
#[derive(Debug)]
pub struct RecordLog {
    path: PathBuf,
    /// Length of the committed prefix: where the next record goes.
    end: u64,
}

impl RecordLog {
    /// A handle on a log known to be empty (or absent), such as right
    /// after the file was removed.
    pub fn empty(path: &Path) -> Self {
        RecordLog {
            path: path.to_owned(),
            end: 0,
        }
    }

    /// Reads every record of the log at `path` (none if the file does not
    /// exist), truncating a torn tail. Corruption before the last record
    /// is [`StorageError::CorruptRecord`].
    pub fn open(path: &Path) -> Result<(Self, Replay)> {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok((Self::empty(path), Replay::default()))
            }
            Err(e) => return Err(e.into()),
        };
        let mut replay = Replay::default();
        let mut at = 0usize;
        while at < bytes.len() {
            let Some(payload) = record_at(&bytes[at..]) else {
                // A damaged length can make a committed record look torn:
                // any whole record further on gives it away.
                if (at + 1..bytes.len()).any(|p| record_at(&bytes[p..]).is_some()) {
                    return Err(StorageError::CorruptRecord { offset: at as u64 });
                }
                break;
            };
            replay.records.push(payload.to_vec());
            at += FRAME_HEADER + payload.len();
        }
        replay.torn_bytes = (bytes.len() - at) as u64;
        if replay.torn_bytes > 0 {
            let f = OpenOptions::new().write(true).open(path)?;
            f.set_len(at as u64)?;
            f.sync_all()?;
        }
        let log = RecordLog {
            path: path.to_owned(),
            end: at as u64,
        };
        Ok((log, replay))
    }

    /// Appends one record and fsyncs it; when this returns `Ok` the record
    /// is durable. The first record also fsyncs the directory, so a file it
    /// creates is durable by name too. A previous
    /// append that failed part-way is overwritten, never followed.
    pub fn append(&mut self, payload: &[u8]) -> std::io::Result<()> {
        if payload.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "log records are never empty",
            ));
        }
        let framed = frame(payload);
        crate::fault_check("log.append")?;
        let first = self.end == 0;
        let mut f = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(false)
            .open(&self.path)?;
        if f.metadata()?.len() != self.end {
            f.set_len(self.end)?;
        }
        f.seek(SeekFrom::Start(self.end))?;
        f.write_all(&framed)?;
        crate::fault_check("log.sync")?;
        f.sync_data()?;
        if first {
            sync_parent(&self.path)?;
        }
        self.end += framed.len() as u64;
        Ok(())
    }
}

fn sync_parent(path: &Path) -> std::io::Result<()> {
    match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => crate::atomic::sync_dir(p),
        _ => crate::atomic::sync_dir(Path::new(".")),
    }
}

/// The payload of the whole, checked record at the start of `rest`, if
/// there is one. Payloads are never empty, so a zero-filled stretch (what
/// some filesystems leave of an unfinished write) is never a record.
fn record_at(rest: &[u8]) -> Option<&[u8]> {
    let len = u32::from_le_bytes(rest.get(0..4)?.try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(rest.get(4..8)?.try_into().unwrap());
    let payload = rest.get(FRAME_HEADER..FRAME_HEADER.checked_add(len)?)?;
    (len > 0 && crc32(payload) == crc).then_some(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payloads() -> Vec<Vec<u8>> {
        vec![
            b"first".to_vec(),
            vec![0u8],
            vec![7u8; 300],
            b"last".to_vec(),
        ]
    }

    fn written(dir: &Path) -> PathBuf {
        let path = dir.join("x.log");
        let mut log = RecordLog::empty(&path);
        for p in payloads() {
            log.append(&p).unwrap();
        }
        path
    }

    #[test]
    fn records_round_trip_and_a_missing_file_is_empty() {
        let d = tempfile::tempdir().unwrap();
        let (log, replay) = RecordLog::open(&d.path().join("absent.log")).unwrap();
        assert!(log.end == 0 && replay.records.is_empty() && replay.torn_bytes == 0);
        assert!(
            !d.path().join("absent.log").exists(),
            "open created the file"
        );

        let path = written(d.path());
        let (log, replay) = RecordLog::open(&path).unwrap();
        assert_eq!(replay.records, payloads());
        assert_eq!(replay.torn_bytes, 0);
        assert_eq!(log.end, std::fs::metadata(&path).unwrap().len());
        let framed: usize = payloads().iter().map(|p| frame(p).len()).sum();
        assert_eq!(log.end as usize, framed);
    }

    #[test]
    fn every_cut_inside_the_last_record_is_a_torn_tail() {
        let d = tempfile::tempdir().unwrap();
        let path = written(d.path());
        let full = std::fs::read(&path).unwrap();
        let last = frame(payloads().last().unwrap()).len();
        let start = full.len() - last;
        for cut in start..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let (mut log, replay) = RecordLog::open(&path).unwrap();
            assert_eq!(replay.records, payloads()[..3], "cut at {cut}");
            assert_eq!(replay.torn_bytes, (cut - start) as u64, "cut at {cut}");
            assert_eq!(std::fs::metadata(&path).unwrap().len(), start as u64);
            // the next append lands on the record boundary
            log.append(b"again").unwrap();
            let (_, replay) = RecordLog::open(&path).unwrap();
            assert_eq!(replay.records.last().unwrap(), b"again");
            assert_eq!(replay.records.len(), 4);
        }
    }

    #[test]
    fn a_flipped_byte_before_the_last_record_is_corrupt() {
        let d = tempfile::tempdir().unwrap();
        let path = written(d.path());
        let full = std::fs::read(&path).unwrap();
        let second = frame(&payloads()[0]).len();
        // a payload, a checksum and a high length byte of the second record
        for victim in [second + FRAME_HEADER, second + 5, second + 3] {
            let mut bytes = full.clone();
            bytes[victim] ^= 0x20;
            std::fs::write(&path, &bytes).unwrap();
            match RecordLog::open(&path) {
                Err(StorageError::CorruptRecord { offset }) => {
                    assert!(offset as usize <= victim, "offset {offset} past {victim}")
                }
                other => panic!("flip at {victim}: expected CorruptRecord, got {other:?}"),
            }
            // refused, not truncated
            assert_eq!(std::fs::read(&path).unwrap(), bytes);
        }
    }

    #[test]
    fn a_zero_filled_tail_is_torn_and_empty_payloads_are_refused() {
        let d = tempfile::tempdir().unwrap();
        let path = written(d.path());
        let committed = std::fs::metadata(&path).unwrap().len();
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0u8; 40]).unwrap();
        drop(f);
        let (mut log, replay) = RecordLog::open(&path).unwrap();
        assert_eq!(replay.records, payloads());
        assert_eq!(replay.torn_bytes, 40);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), committed);
        assert!(log.append(b"").is_err());
        assert_eq!(std::fs::metadata(&path).unwrap().len(), committed);
    }

    #[test]
    fn a_failed_append_is_overwritten_not_followed() {
        let d = tempfile::tempdir().unwrap();
        let path = written(d.path());
        let (mut log, _) = RecordLog::open(&path).unwrap();
        // garbage a failed write left past the committed end
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0xAB; 11]).unwrap();
        drop(f);
        log.append(b"next").unwrap();
        let (_, replay) = RecordLog::open(&path).unwrap();
        assert_eq!(replay.records.len(), 5);
        assert_eq!(replay.records[4], b"next");
        assert_eq!(replay.torn_bytes, 0);
    }
}
