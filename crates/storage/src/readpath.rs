//! Asynchronous read path: a portable I/O worker pool and a prefetch
//! staging area, behind a [`ReadBackend`] seam.
//!
//! The paper's setting is explicitly larger-than-RAM (a 512 MB Postgres
//! buffer pool over multi-GB protein networks), where probe latency is
//! dominated by cold page reads. The buffer pool's synchronous miss path
//! can only overlap reads across *threads*; this module lets the query
//! engine overlap them across *pages*: the probe stage knows every
//! B+-tree descent and posting-blob page a batch will touch before any
//! worker blocks on them, and hands the list to [`Prefetcher::request`].
//! Worker threads read the pages into a bounded staging area; when the
//! pool later misses on a staged page it takes the image instead of
//! issuing its own read ([`Prefetcher::take`]).
//!
//! [`ReadBackend`] is the portability seam: the default
//! [`DiskReadBackend`] is a blocking positional read through
//! [`DiskManager`], and an io_uring (or any completion-based) backend can
//! slot in later without touching the pool or the staging protocol.
//! Tests substitute latency-injecting backends to prove the pool never
//! holds its mutex across a read.
//!
//! The staging area holds disk images, and a page file is never written
//! after it is opened for reading, so a staged image cannot go stale.

use crate::disk::DiskManager;
use crate::page::{Page, PageId};
use crate::Result;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// How a page image is fetched from storage. Implementations must be
/// callable from any thread; the buffer pool calls this *outside* its
/// internal mutex (enforced by a debug assertion in [`DiskManager`]).
pub trait ReadBackend: Send + Sync {
    /// Reads and verifies one page.
    fn read_page(&self, id: PageId) -> Result<Page>;
}

/// The default backend: a blocking checksum-verified read through the
/// pool's [`DiskManager`].
pub struct DiskReadBackend {
    disk: Arc<DiskManager>,
}

impl DiskReadBackend {
    /// Wraps `disk` as a [`ReadBackend`].
    pub fn new(disk: Arc<DiskManager>) -> Self {
        DiskReadBackend { disk }
    }
}

impl ReadBackend for DiskReadBackend {
    fn read_page(&self, id: PageId) -> Result<Page> {
        self.disk.read_page(id)
    }
}

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A small pool of OS threads that execute read jobs. One `IoPool` is
/// meant to be shared by every buffer pool of an index (and by every
/// shard of a sharded index), so the total number of in-flight reads is
/// bounded machine-wide regardless of shard count.
pub struct IoPool {
    tx: Mutex<Option<Sender<Job>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl IoPool {
    /// Spawns `workers` I/O threads (at least one).
    pub fn new(workers: usize) -> Arc<Self> {
        let workers = workers.max(1);
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let handles = (0..workers)
            .map(|i| {
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("tale-io-{i}"))
                    .spawn(move || loop {
                        // Hold the receiver lock only to dequeue; the job
                        // itself (a disk read) runs unlocked.
                        let job = {
                            let rx = rx.lock();
                            rx.recv()
                        };
                        match job {
                            Ok(job) => job(),
                            Err(_) => break, // all senders dropped
                        }
                    })
                    .expect("spawn io worker")
            })
            .collect();
        Arc::new(IoPool {
            tx: Mutex::new(Some(tx)),
            workers: Mutex::new(handles),
        })
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.lock().len()
    }

    /// Queues a job. Jobs submitted after shutdown are silently dropped
    /// (prefetches are hints; correctness never depends on them).
    pub fn submit(&self, job: Job) {
        if let Some(tx) = &*self.tx.lock() {
            let _ = tx.send(job);
        }
    }
}

impl Drop for IoPool {
    fn drop(&mut self) {
        // Closing the channel wakes every worker out of `recv`.
        self.tx.lock().take();
        for h in self.workers.lock().drain(..) {
            let _ = h.join();
        }
    }
}

/// Cumulative [`Prefetcher`] counters (a cheap copyable snapshot).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchStats {
    /// Read jobs handed to the I/O pool.
    pub issued: u64,
    /// Staged pages later consumed by a pool miss ([`Prefetcher::take`]).
    pub used: u64,
    /// Requests skipped: already staged, already resident, or the staging
    /// area was full.
    pub skipped: u64,
    /// Async reads that failed (the demand path will retry and surface
    /// the error if it is real).
    pub errors: u64,
}

impl PrefetchStats {
    /// Element-wise sum — aggregates counters across several page files
    /// (e.g. a B+-tree pool and its sibling blob pool).
    pub fn merged(self, other: PrefetchStats) -> PrefetchStats {
        PrefetchStats {
            issued: self.issued + other.issued,
            used: self.used + other.used,
            skipped: self.skipped + other.skipped,
            errors: self.errors + other.errors,
        }
    }
}

enum Staged {
    /// A worker is reading this page.
    Pending,
    /// The page image is ready to be taken.
    Ready(Page),
}

/// Bounded staging area between the I/O pool and a buffer pool.
///
/// `request` is fire-and-forget; `take` moves a ready image out. Entries
/// are keyed by [`PageId`] within one storage file — each buffer pool
/// owns its own `Prefetcher` (they share the `IoPool`).
pub struct Prefetcher {
    io: Arc<IoPool>,
    backend: Arc<dyn ReadBackend>,
    staged: Arc<Mutex<HashMap<PageId, Staged>>>,
    capacity: usize,
    // Shared with worker jobs, which may outlive a particular borrow.
    counters: Arc<Counters>,
}

#[derive(Default)]
struct Counters {
    issued: AtomicU64,
    used: AtomicU64,
    skipped: AtomicU64,
    errors: AtomicU64,
}

impl Prefetcher {
    /// Creates a staging area of at most `capacity` pages over `io`.
    pub fn new(io: Arc<IoPool>, backend: Arc<dyn ReadBackend>, capacity: usize) -> Self {
        Prefetcher {
            io,
            backend,
            staged: Arc::new(Mutex::new(HashMap::new())),
            capacity: capacity.max(1),
            counters: Arc::new(Counters::default()),
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PrefetchStats {
        PrefetchStats {
            issued: self.counters.issued.load(Ordering::Relaxed),
            used: self.counters.used.load(Ordering::Relaxed),
            skipped: self.counters.skipped.load(Ordering::Relaxed),
            errors: self.counters.errors.load(Ordering::Relaxed),
        }
    }

    /// Queues async reads for `ids`. Duplicates, already-staged pages and
    /// overflow beyond the staging capacity are skipped — prefetching is
    /// best-effort and never required for correctness.
    pub fn request(&self, ids: &[PageId]) {
        for &id in ids {
            {
                let mut staged = self.staged.lock();
                if staged.contains_key(&id) || staged.len() >= self.capacity {
                    self.counters.skipped.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                staged.insert(id, Staged::Pending);
            }
            self.counters.issued.fetch_add(1, Ordering::Relaxed);
            let backend = Arc::clone(&self.backend);
            let staged = Arc::clone(&self.staged);
            let counters = Arc::clone(&self.counters);
            self.io.submit(Box::new(move || {
                // Only this job removes a `Pending` entry: publish the
                // image, or withdraw the entry on error so the demand path
                // retries.
                let res = backend.read_page(id);
                let mut staged = staged.lock();
                match res {
                    Ok(page) => {
                        staged.insert(id, Staged::Ready(page));
                    }
                    Err(_) => {
                        staged.remove(&id);
                        counters.errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }));
        }
    }

    /// Removes and returns the staged image of `id` if its read has
    /// completed. A `Pending` entry is left alone — the caller reads
    /// synchronously, and the worker's late image stays staged until a
    /// later miss of the same page takes it.
    pub fn take(&self, id: PageId) -> Option<Page> {
        let mut staged = self.staged.lock();
        match staged.get(&id) {
            Some(Staged::Ready(_)) => {
                let Some(Staged::Ready(page)) = staged.remove(&id) else {
                    unreachable!("checked Ready under the same lock");
                };
                self.counters.used.fetch_add(1, Ordering::Relaxed);
                Some(page)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::PageWriter;
    use std::time::Duration;

    fn setup(pages: u64) -> (tempfile::TempDir, Arc<DiskManager>) {
        let d = tempfile::tempdir().unwrap();
        let dm = Arc::new(DiskManager::create(&d.path().join("p.db")).unwrap());
        let mut writer = PageWriter::new(&dm);
        let mut page = Page::zeroed();
        for i in 0..pages {
            page.payload_mut()[0] = i as u8;
            writer.append(&mut page).unwrap();
        }
        writer.finish().unwrap();
        (d, dm)
    }

    #[test]
    fn prefetch_then_take() {
        let (_d, dm) = setup(8);
        let io = IoPool::new(2);
        let pf = Prefetcher::new(io, Arc::new(DiskReadBackend::new(dm)), 16);
        let ids: Vec<PageId> = (0..8).map(PageId).collect();
        pf.request(&ids);
        // poll until all reads land
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let mut got = 0;
        while got < 8 && std::time::Instant::now() < deadline {
            got += ids.iter().filter(|&&id| pf.take(id).is_some()).count();
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(got, 8, "all prefetched pages become takeable");
        let s = pf.stats();
        assert_eq!(s.issued, 8);
        assert_eq!(s.used, 8);
    }

    #[test]
    fn capacity_bounds_staging() {
        let (_d, dm) = setup(8);
        let io = IoPool::new(1);
        let pf = Prefetcher::new(io, Arc::new(DiskReadBackend::new(dm)), 2);
        pf.request(&(0..8).map(PageId).collect::<Vec<_>>());
        let s = pf.stats();
        assert!(s.issued <= 2 + s.used, "staging capacity respected");
        assert!(s.skipped >= 6);
    }

    #[test]
    fn shutdown_joins_workers() {
        let (_d, dm) = setup(4);
        let io = IoPool::new(3);
        let pf = Prefetcher::new(Arc::clone(&io), Arc::new(DiskReadBackend::new(dm)), 8);
        pf.request(&[PageId(0), PageId(1)]);
        drop(pf);
        drop(io); // must not hang
    }
}
