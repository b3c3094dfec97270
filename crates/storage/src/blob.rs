//! Append-only blob store for the NH-Index second level.
//!
//! Each distinct B+-tree key points at one *posting blob* holding the
//! node-id list and the neighbor-array bitmap (§IV-C: "a relation with two
//! attributes: one that stores the list of database nodes, and the other
//! that stores a bitmap"). Blobs are variable length, written once during
//! index construction, and read in full at probe time.
//!
//! The store owns a dedicated page file (separate from the B+-tree file) so
//! the blob address space is contiguous: a [`BlobRef`] is simply a byte
//! offset + length over the concatenated page payloads. [`BlobWriter`]
//! writes the file once, front to back; its final cursor (the bytes
//! stored) is persisted by the owner and passed to [`BlobStore::open`],
//! which reads the file through a buffer pool.

use crate::buffer::BufferPool;
use crate::disk::DiskManager;
use crate::page::{Page, PageId, PAGE_SIZE};
use crate::writer::PageWriter;
use crate::{Result, StorageError};
use std::sync::Arc;

/// Usable payload bytes per page.
const PAYLOAD: usize = PAGE_SIZE - crate::page::HEADER_LEN;

/// Reference to a stored blob: logical byte offset and length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlobRef {
    /// Byte offset into the blob address space.
    pub offset: u64,
    /// Blob length in bytes.
    pub len: u32,
}

impl BlobRef {
    /// Packs the reference into a `u64` B+-tree value: 40-bit offset,
    /// 24-bit length. Offsets address up to 1 TiB of postings; lengths up
    /// to 16 MiB per key (a posting for 16 M identical-signature nodes —
    /// far beyond the paper's scales).
    pub fn pack(self) -> u64 {
        debug_assert!(self.offset < (1 << 40), "blob offset exceeds 40 bits");
        debug_assert!(self.len < (1 << 24), "blob len exceeds 24 bits");
        (self.offset << 24) | self.len as u64
    }

    /// Reverses [`BlobRef::pack`].
    pub fn unpack(v: u64) -> Self {
        BlobRef {
            offset: v >> 24,
            len: (v & 0xFF_FFFF) as u32,
        }
    }
}

/// Appends blobs to a fresh blob file, filling one in-memory page at a
/// time: a page is written when it is full, and [`BlobWriter::finish`]
/// writes the zero-padded last page and fsyncs.
pub struct BlobWriter<'a> {
    pages: PageWriter<'a>,
    page: Page,
    /// Payload bytes of `page` already filled.
    fill: usize,
    cursor: u64,
}

impl<'a> BlobWriter<'a> {
    /// A writer over the freshly created `disk`.
    pub fn new(disk: &'a DiskManager) -> Self {
        BlobWriter {
            pages: PageWriter::new(disk),
            page: Page::zeroed(),
            fill: 0,
            cursor: 0,
        }
    }

    /// Appends `data`, returning its reference.
    pub fn put(&mut self, data: &[u8]) -> Result<BlobRef> {
        let offset = self.cursor;
        let mut rest = data;
        while !rest.is_empty() {
            let take = rest.len().min(PAYLOAD - self.fill);
            self.page.payload_mut()[self.fill..self.fill + take].copy_from_slice(&rest[..take]);
            self.fill += take;
            rest = &rest[take..];
            if self.fill == PAYLOAD {
                self.pages.append(&mut self.page)?;
                self.page.payload_mut().fill(0);
                self.fill = 0;
            }
        }
        self.cursor += data.len() as u64;
        Ok(BlobRef {
            offset,
            len: data.len() as u32,
        })
    }

    /// Writes the partly filled last page, fsyncs the file and returns the
    /// cursor (the bytes stored) to persist for [`BlobStore::open`].
    pub fn finish(mut self) -> Result<u64> {
        if self.fill > 0 {
            self.pages.append(&mut self.page)?;
        }
        self.pages.finish()?;
        Ok(self.cursor)
    }
}

/// A written blob file, read concurrently through a buffer pool.
pub struct BlobStore {
    pool: Arc<BufferPool>,
    cursor: u64,
}

impl BlobStore {
    /// Opens a store; `cursor` must be what [`BlobWriter::finish`]
    /// returned for the file.
    pub fn open(pool: Arc<BufferPool>, cursor: u64) -> Self {
        BlobStore { pool, cursor }
    }

    /// Bytes stored (the end of the blob address space).
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Hit/miss counters of the underlying buffer pool.
    pub fn pool_stats(&self) -> crate::buffer::PoolStats {
        self.pool.pool_stats()
    }

    /// The disk manager under the store's buffer pool (integrity sweeps
    /// read every page through this).
    pub fn disk(&self) -> &Arc<crate::disk::DiskManager> {
        self.pool.disk()
    }

    /// The buffer pool itself (the owner attaches prefetchers and reads
    /// readahead counters through this).
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// The pages a blob's bytes live on — computable from the reference
    /// alone, which is what lets probe batches queue posting readahead
    /// before touching any page.
    pub fn pages_of(r: BlobRef) -> impl Iterator<Item = PageId> {
        let first = r.offset / PAYLOAD as u64;
        let last = if r.len == 0 {
            first
        } else {
            (r.offset + r.len as u64 - 1) / PAYLOAD as u64
        };
        (first..=last).map(PageId)
    }

    /// Queues async readahead for every page the given blobs touch (a
    /// no-op without an attached prefetcher; duplicates are deduplicated
    /// here so overlapping refs don't spam the staging area).
    pub fn prefetch(&self, refs: &[BlobRef]) {
        let mut pages: Vec<PageId> = refs.iter().flat_map(|&r| Self::pages_of(r)).collect();
        pages.sort_unstable();
        pages.dedup();
        self.pool.prefetch(&pages);
    }

    /// Reads a blob back in full.
    pub fn get(&self, r: BlobRef) -> Result<Vec<u8>> {
        let end = r.offset + r.len as u64;
        if end > self.cursor() {
            return Err(StorageError::BadBlobRef);
        }
        let mut out = Vec::with_capacity(r.len as usize);
        let mut pos = r.offset;
        while pos < end {
            let page_idx = pos / PAYLOAD as u64;
            let in_page = (pos % PAYLOAD as u64) as usize;
            let take = ((end - pos) as usize).min(PAYLOAD - in_page);
            let guard = self.pool.fetch(PageId(page_idx))?;
            out.extend_from_slice(&guard.page().payload()[in_page..in_page + take]);
            pos += take as u64;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Writes `blobs` to a fresh blob file and opens it behind a
    /// `frames`-frame pool.
    fn written(frames: usize, blobs: &[&[u8]]) -> (tempfile::TempDir, BlobStore, Vec<BlobRef>) {
        let d = tempfile::tempdir().unwrap();
        let disk = DiskManager::create(&d.path().join("blobs.db")).unwrap();
        let mut w = BlobWriter::new(&disk);
        let refs = blobs.iter().map(|b| w.put(b).unwrap()).collect();
        let cursor = w.finish().unwrap();
        let pool = Arc::new(BufferPool::new(Arc::new(disk), frames));
        (d, BlobStore::open(pool, cursor), refs)
    }

    #[test]
    fn small_blob_roundtrip() {
        let (_d, s, r) = written(4, &[b"hello postings"]);
        assert_eq!(s.get(r[0]).unwrap(), b"hello postings");
    }

    #[test]
    fn empty_blob() {
        let (_d, s, r) = written(4, &[b""]);
        assert_eq!(r[0].len, 0);
        assert_eq!(s.get(r[0]).unwrap(), Vec::<u8>::new());
        assert_eq!(s.disk().page_count(), 0, "no bytes, no pages");
    }

    #[test]
    fn page_spanning_blob() {
        let big: Vec<u8> = (0..PAYLOAD * 3 + 1234).map(|i| (i % 251) as u8).collect();
        let (_d, s, r) = written(4, &[b"prefix", &big, b"suffix"]);
        assert_eq!(s.get(r[1]).unwrap(), big);
        assert_eq!(s.get(r[0]).unwrap(), b"prefix");
        assert_eq!(s.get(r[2]).unwrap(), b"suffix");
        // the last page is zero-padded, not left out
        assert_eq!(s.disk().page_count(), s.cursor().div_ceil(PAYLOAD as u64));
    }

    #[test]
    fn many_blobs_tiny_pool() {
        let data: Vec<Vec<u8>> = (0..200usize)
            .map(|i| {
                (0..(i * 37) % 500 + 1)
                    .map(|j| ((i + j) % 251) as u8)
                    .collect()
            })
            .collect();
        let slices: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        let (_d, s, refs) = written(2, &slices);
        for (r, data) in refs.iter().zip(&data) {
            assert_eq!(&s.get(*r).unwrap(), data);
        }
    }

    #[test]
    fn bad_ref_rejected() {
        let (_d, s, _) = written(4, &[b"x"]);
        let bogus = BlobRef {
            offset: 100,
            len: 50,
        };
        assert!(matches!(s.get(bogus), Err(StorageError::BadBlobRef)));
    }

    #[test]
    fn pack_unpack_roundtrip() {
        for r in [
            BlobRef { offset: 0, len: 0 },
            BlobRef { offset: 1, len: 1 },
            BlobRef {
                offset: (1 << 40) - 1,
                len: (1 << 24) - 1,
            },
            BlobRef {
                offset: 123_456_789,
                len: 54_321,
            },
        ] {
            assert_eq!(BlobRef::unpack(r.pack()), r);
        }
    }

    #[test]
    fn reopen_with_cursor() {
        let d = tempfile::tempdir().unwrap();
        let path = d.path().join("blobs.db");
        let (r, cursor) = {
            let disk = DiskManager::create(&path).unwrap();
            let mut w = BlobWriter::new(&disk);
            let r = w.put(b"persisted").unwrap();
            (r, w.finish().unwrap())
        };
        let dm = Arc::new(DiskManager::open(&path).unwrap());
        let pool = Arc::new(BufferPool::new(dm, 4));
        let s = BlobStore::open(pool, cursor);
        assert_eq!(s.get(r).unwrap(), b"persisted");
        // the cursor bounds reads
        let past = BlobRef {
            offset: r.offset,
            len: r.len + 1,
        };
        assert!(matches!(s.get(past), Err(StorageError::BadBlobRef)));
    }
}
