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
//! offset + length over the concatenated page payloads. The only mutable
//! state is the append cursor, which the owner persists in its metadata and
//! passes back to [`BlobStore::open`].

use crate::buffer::BufferPool;
use crate::page::{PageId, PAGE_SIZE};
use crate::{Result, StorageError};
use parking_lot::Mutex;
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

/// The blob store. Appends are serialized by the cursor mutex; reads are
/// concurrent through the buffer pool.
pub struct BlobStore {
    pool: Arc<BufferPool>,
    cursor: Mutex<u64>,
}

impl BlobStore {
    /// Creates an empty store over a fresh page file.
    pub fn create(pool: Arc<BufferPool>) -> Self {
        BlobStore {
            pool,
            cursor: Mutex::new(0),
        }
    }

    /// Reopens a store; `cursor` must be the value returned by
    /// [`BlobStore::cursor`] when the file was last written.
    pub fn open(pool: Arc<BufferPool>, cursor: u64) -> Self {
        BlobStore {
            pool,
            cursor: Mutex::new(cursor),
        }
    }

    /// Current append cursor (persist to reopen).
    pub fn cursor(&self) -> u64 {
        *self.cursor.lock()
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

    /// Total bytes stored.
    pub fn size_bytes(&self) -> u64 {
        self.cursor()
    }

    /// Appends `data`, returning its reference.
    pub fn put(&self, data: &[u8]) -> Result<BlobRef> {
        let mut cursor = self.cursor.lock();
        let offset = *cursor;
        let mut remaining = data;
        let mut pos = offset;
        while !remaining.is_empty() {
            let page_idx = pos / PAYLOAD as u64;
            let in_page = (pos % PAYLOAD as u64) as usize;
            // Allocate pages lazily as the cursor crosses boundaries.
            while self.pool.disk().page_count() <= page_idx {
                let (_, guard) = self.pool.new_page()?;
                drop(guard);
            }
            let take = remaining.len().min(PAYLOAD - in_page);
            let mut guard = self.pool.fetch_mut(PageId(page_idx))?;
            guard.page_mut().payload_mut()[in_page..in_page + take]
                .copy_from_slice(&remaining[..take]);
            drop(guard);
            remaining = &remaining[take..];
            pos += take as u64;
        }
        *cursor = pos;
        Ok(BlobRef {
            offset,
            len: data.len() as u32,
        })
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

    /// Flushes dirty pages to disk.
    pub fn flush(&self) -> Result<()> {
        self.pool.flush_all()
    }

    /// Flushes and fsyncs the backing file.
    pub fn sync(&self) -> Result<()> {
        self.pool.flush_all()?;
        self.pool.disk().sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskManager;

    fn store(frames: usize) -> (tempfile::TempDir, BlobStore) {
        let d = tempfile::tempdir().unwrap();
        let dm = Arc::new(DiskManager::create(&d.path().join("blobs.db")).unwrap());
        let pool = Arc::new(BufferPool::new(dm, frames));
        (d, BlobStore::create(pool))
    }

    #[test]
    fn small_blob_roundtrip() {
        let (_d, s) = store(4);
        let r = s.put(b"hello postings").unwrap();
        assert_eq!(s.get(r).unwrap(), b"hello postings");
    }

    #[test]
    fn empty_blob() {
        let (_d, s) = store(4);
        let r = s.put(b"").unwrap();
        assert_eq!(r.len, 0);
        assert_eq!(s.get(r).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn page_spanning_blob() {
        let (_d, s) = store(4);
        let big: Vec<u8> = (0..PAYLOAD * 3 + 1234).map(|i| (i % 251) as u8).collect();
        let r0 = s.put(b"prefix").unwrap();
        let r1 = s.put(&big).unwrap();
        let r2 = s.put(b"suffix").unwrap();
        assert_eq!(s.get(r1).unwrap(), big);
        assert_eq!(s.get(r0).unwrap(), b"prefix");
        assert_eq!(s.get(r2).unwrap(), b"suffix");
    }

    #[test]
    fn many_blobs_tiny_pool() {
        let (_d, s) = store(2);
        let refs: Vec<(BlobRef, Vec<u8>)> = (0..200usize)
            .map(|i| {
                let data: Vec<u8> = (0..(i * 37) % 500 + 1)
                    .map(|j| ((i + j) % 251) as u8)
                    .collect();
                (s.put(&data).unwrap(), data)
            })
            .collect();
        for (r, data) in &refs {
            assert_eq!(&s.get(*r).unwrap(), data);
        }
    }

    #[test]
    fn bad_ref_rejected() {
        let (_d, s) = store(4);
        s.put(b"x").unwrap();
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
        let (r, cursor);
        {
            let dm = Arc::new(DiskManager::create(&path).unwrap());
            let pool = Arc::new(BufferPool::new(dm, 4));
            let s = BlobStore::create(pool);
            r = s.put(b"persisted").unwrap();
            cursor = s.cursor();
            s.flush().unwrap();
        }
        let dm = Arc::new(DiskManager::open(&path).unwrap());
        let pool = Arc::new(BufferPool::new(dm, 4));
        let s = BlobStore::open(pool, cursor);
        assert_eq!(s.get(r).unwrap(), b"persisted");
        // appends continue after the persisted data
        let r2 = s.put(b"more").unwrap();
        assert_eq!(s.get(r2).unwrap(), b"more");
        assert_eq!(s.get(r).unwrap(), b"persisted");
    }
}
