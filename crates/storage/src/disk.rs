//! Page-granular file manager.
//!
//! Owns one storage file and hands out fresh [`PageId`]s. Reads verify the
//! page checksum; writes seal it. Thread-safe: the file handle is guarded
//! by a mutex (positional I/O via `read_exact_at`/`write_all_at` on Unix
//! would avoid it, but a mutex keeps this portable and the buffer pool
//! already batches accesses).

use crate::page::{Page, PageId, PAGE_SIZE};
use crate::{Result, StorageError};
use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Debug-build guard for the pool's no-I/O-under-lock invariant: every
/// page read must happen with the calling thread holding *no* buffer-pool
/// mutex. Compiled to nothing in release builds.
#[inline]
fn assert_unlocked(op: &str) {
    #[cfg(debug_assertions)]
    debug_assert!(
        !crate::buffer::lockcheck::held(),
        "disk {op} while the buffer-pool mutex is held"
    );
    let _ = op;
}

/// Manages page allocation and I/O for one file.
pub struct DiskManager {
    file: Mutex<File>,
    path: PathBuf,
    next_page: AtomicU64,
    /// Pages written + read, for the index-size/IO accounting the paper's
    /// Table III and Fig. 8 report.
    reads: AtomicU64,
    writes: AtomicU64,
}

impl DiskManager {
    /// Creates (truncating) a new storage file.
    pub fn create(path: &Path) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(DiskManager {
            file: Mutex::new(file),
            path: path.to_owned(),
            next_page: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
        })
    }

    /// Opens an existing storage file; page count is derived from its size.
    pub fn open(path: &Path) -> Result<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        Ok(DiskManager {
            file: Mutex::new(file),
            path: path.to_owned(),
            next_page: AtomicU64::new(len / PAGE_SIZE as u64),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
        })
    }

    /// Current file length in whole pages (what has actually been
    /// persisted, as opposed to [`DiskManager::page_count`], which counts
    /// allocations).
    pub fn pages_on_disk(&self) -> Result<u64> {
        Ok(self.file.lock().metadata()?.len() / PAGE_SIZE as u64)
    }

    /// File path backing this manager.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Allocates a fresh page id (contents undefined until first write).
    pub fn allocate(&self) -> PageId {
        PageId(self.next_page.fetch_add(1, Ordering::Relaxed))
    }

    /// Number of pages allocated so far.
    pub fn page_count(&self) -> u64 {
        self.next_page.load(Ordering::Relaxed)
    }

    /// Total bytes the file will occupy (page count × page size).
    pub fn size_bytes(&self) -> u64 {
        self.page_count() * PAGE_SIZE as u64
    }

    /// `(reads, writes)` page-I/O counters since creation.
    pub fn io_counts(&self) -> (u64, u64) {
        (
            self.reads.load(Ordering::Relaxed),
            self.writes.load(Ordering::Relaxed),
        )
    }

    /// Reads and verifies a page.
    pub fn read_page(&self, id: PageId) -> Result<Page> {
        assert_unlocked("read_page");
        if id.0 >= self.page_count() {
            return Err(StorageError::PageOutOfRange(id));
        }
        let mut buf = vec![0u8; PAGE_SIZE].into_boxed_slice();
        {
            let mut f = self.file.lock();
            f.seek(SeekFrom::Start(id.offset()))?;
            f.read_exact(&mut buf)?;
        }
        let page = Page::from_raw(buf.try_into().expect("buffer is PAGE_SIZE bytes"));
        self.reads.fetch_add(1, Ordering::Relaxed);
        if !page.verify_for(id) {
            return Err(StorageError::Corrupt(id));
        }
        Ok(page)
    }

    /// Seals and writes a page.
    pub fn write_page(&self, id: PageId, page: &mut Page) -> Result<()> {
        if id.0 >= self.page_count() {
            return Err(StorageError::PageOutOfRange(id));
        }
        crate::fault_check("disk.write_page")?;
        page.seal_for(id);
        {
            let mut f = self.file.lock();
            f.seek(SeekFrom::Start(id.offset()))?;
            f.write_all(page.raw())?;
        }
        self.writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Flushes OS buffers to durable storage.
    pub fn sync(&self) -> Result<()> {
        crate::fault_check("disk.sync")?;
        self.file.lock().sync_all()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp() -> (tempfile::TempDir, PathBuf) {
        let d = tempfile::tempdir().unwrap();
        let p = d.path().join("store.db");
        (d, p)
    }

    #[test]
    fn allocate_write_read_roundtrip() {
        let (_d, p) = tmp();
        let dm = DiskManager::create(&p).unwrap();
        let id = dm.allocate();
        let mut page = Page::zeroed();
        page.payload_mut()[..4].copy_from_slice(b"TALE");
        dm.write_page(id, &mut page).unwrap();
        let back = dm.read_page(id).unwrap();
        assert_eq!(&back.payload()[..4], b"TALE");
    }

    #[test]
    fn out_of_range_rejected() {
        let (_d, p) = tmp();
        let dm = DiskManager::create(&p).unwrap();
        assert!(matches!(
            dm.read_page(PageId(0)),
            Err(StorageError::PageOutOfRange(_))
        ));
        let mut pg = Page::zeroed();
        assert!(dm.write_page(PageId(3), &mut pg).is_err());
    }

    #[test]
    fn corruption_surfaces_as_error() {
        let (_d, p) = tmp();
        let dm = DiskManager::create(&p).unwrap();
        let id = dm.allocate();
        let mut page = Page::zeroed();
        page.payload_mut()[0] = 42;
        dm.write_page(id, &mut page).unwrap();
        drop(dm);
        // flip a byte on disk
        let mut bytes = std::fs::read(&p).unwrap();
        bytes[crate::page::HEADER_LEN + 10] ^= 0xFF;
        std::fs::write(&p, &bytes).unwrap();
        let dm = DiskManager::open(&p).unwrap();
        assert!(matches!(dm.read_page(id), Err(StorageError::Corrupt(_))));
    }

    #[test]
    fn reopen_preserves_page_count() {
        let (_d, p) = tmp();
        {
            let dm = DiskManager::create(&p).unwrap();
            for _ in 0..5 {
                let id = dm.allocate();
                dm.write_page(id, &mut Page::zeroed()).unwrap();
            }
            dm.sync().unwrap();
        }
        let dm = DiskManager::open(&p).unwrap();
        assert_eq!(dm.page_count(), 5);
        assert_eq!(dm.size_bytes(), 5 * PAGE_SIZE as u64);
        // new allocations continue past existing pages
        assert_eq!(dm.allocate(), PageId(5));
    }

    #[test]
    fn io_counters_track() {
        let (_d, p) = tmp();
        let dm = DiskManager::create(&p).unwrap();
        let id = dm.allocate();
        dm.write_page(id, &mut Page::zeroed()).unwrap();
        dm.read_page(id).unwrap();
        dm.read_page(id).unwrap();
        assert_eq!(dm.io_counts(), (2, 1));
    }
}
