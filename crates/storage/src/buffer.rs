//! Buffer pool: a bounded set of in-memory page frames over a
//! [`DiskManager`], with pin counts, LRU eviction, and a per-frame load
//! state machine that keeps every disk access outside the pool mutex.
//!
//! This is what makes the NH-Index genuinely disk-based (§IV-C, §VI-B.2):
//! index structures larger than the pool stream through a fixed memory
//! budget instead of requiring residency, which is the property the paper
//! contrasts with the memory-only C-Tree. The paper's experiments give
//! PostgreSQL a 512 MB buffer pool; [`BufferPool::new`] takes the frame
//! count so benchmarks can sweep it.
//!
//! # No I/O under the pool mutex
//!
//! Each frame is `Empty`, `Loading`, or `Resident` (`FrameState`). A
//! miss claims a victim under the mutex, binds it to the wanted page in
//! the `Loading` state, *releases the mutex*, performs the read, then
//! re-locks briefly to publish `Resident`. Concurrent fetches of the
//! in-flight page park on that frame's condition variable instead of
//! redoing the read; fetches of other pages proceed untouched — one slow
//! cold read never serializes the pool. [`DiskManager`] enforces the
//! invariant with a debug assertion on every read.
//!
//! The pool only reads. Page files are written once, front to back, by
//! [`crate::writer::PageWriter`] before any pool opens them, so a frame
//! never holds bytes that differ from its page on disk: eviction just
//! drops the frame, and there is nothing to flush.
//!
//! Loading frames always carry the loader's pin, so the victim search
//! (which only considers unpinned frames) can never evict a frame whose
//! read is in flight.
//!
//! # Locking protocol
//!
//! The pool's internal mutex is always acquired before a frame's RwLock;
//! guard drops touch atomics plus the (separate) pin-ledger mutex. Pinned
//! frames are never evicted. When every frame is pinned the outcome
//! depends on *who* holds the pins, tracked in a per-thread pin ledger:
//!
//! * all pins belong to the calling thread → [`StorageError::PoolExhausted`]
//!   immediately (waiting would deadlock on our own guards);
//! * some pins belong to other threads → the caller parks on a condition
//!   variable until a guard drops, so concurrent readers sharing a small
//!   pool see latency, not error storms. A generous deadline keeps a
//!   genuinely wedged pool from hanging forever.
//!
//! Eviction picks the least recently used unpinned frame.
//!
//! # Prefetch
//!
//! [`BufferPool::attach_prefetcher`] wires in an async staging area (see
//! [`crate::readpath`]); [`BufferPool::prefetch`] then queues readahead
//! for non-resident pages, and a later miss takes the staged image
//! instead of reading synchronously.

use crate::disk::DiskManager;
use crate::page::{Page, PageId};
use crate::readpath::{DiskReadBackend, IoPool, PrefetchStats, Prefetcher, ReadBackend};
use crate::{Result, StorageError};
use parking_lot::lock_api::ArcRwLockReadGuard;
use parking_lot::{Condvar, Mutex, RawRwLock, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// How long a fetch will wait for *other* threads to unpin before giving
/// up. Purely a wedge-breaker; normal guard lifetimes are microseconds.
const PIN_WAIT_DEADLINE: Duration = Duration::from_secs(2);
/// One parking interval; bounds the cost of a missed notification.
const PIN_WAIT_SLICE: Duration = Duration::from_millis(10);
/// Re-check interval while parked on an in-flight page load. Loads may
/// legitimately be slow (cold storage, fault injection), so there is no
/// deadline — the slice only bounds the cost of a missed notification.
const LOAD_WAIT_SLICE: Duration = Duration::from_millis(50);

/// Debug-only tracking of whether the current thread holds a pool mutex,
/// consulted by [`DiskManager`]'s I/O entry points to assert the
/// no-I/O-under-lock invariant. Compiled out of release builds.
#[cfg(debug_assertions)]
pub(crate) mod lockcheck {
    use std::cell::Cell;
    thread_local! {
        static DEPTH: Cell<u32> = const { Cell::new(0) };
    }
    pub(crate) fn enter() {
        DEPTH.with(|d| d.set(d.get() + 1));
    }
    pub(crate) fn exit() {
        DEPTH.with(|d| d.set(d.get() - 1));
    }
    /// True while the current thread holds any [`super::BufferPool`]
    /// inner mutex.
    pub(crate) fn held() -> bool {
        DEPTH.with(|d| d.get() > 0)
    }
}

/// Cumulative page-access counters of a pool. Every fetch is counted in
/// exactly one bucket, so [`PoolStats::accesses`] equals the number of
/// fetches and the buckets form a trustworthy taxonomy:
///
/// * `hits` — the page was resident when the fetch arrived;
/// * `coalesced` — the page was mid-load by another fetch; this one
///   parked on the frame and shared the single read;
/// * `misses` — this fetch performed the synchronous disk read itself;
/// * `prefetched` — the image came from the async readahead staging
///   area, so no synchronous read was needed.
///
/// `misses` is therefore the exact count of demand reads the pool issued
/// (matching the [`DiskManager`] read counter up to prefetch traffic),
/// fixing the old accounting where a fetch that lost an install race was
/// double-counted and a retried fetch counted a spurious hit. Snapshots
/// are cheap; consumers diff two snapshots to attribute I/O to a span of
/// work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct PoolStats {
    /// Page fetches served from a resident frame.
    pub hits: u64,
    /// Page fetches that parked on another fetch's in-flight load.
    pub coalesced: u64,
    /// Page fetches that read from disk synchronously.
    pub misses: u64,
    /// Page fetches served from the prefetch staging area.
    pub prefetched: u64,
}

impl PoolStats {
    /// Fetches counted in this snapshot.
    pub fn accesses(&self) -> u64 {
        self.hits + self.coalesced + self.misses + self.prefetched
    }

    /// Fraction of fetches that found the page already in (or entering)
    /// the pool, in `[0, 1]`; zero accesses count as rate 0. `misses +
    /// prefetched` is the complementary count of pages brought in from
    /// disk.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            (self.hits + self.coalesced) as f64 / self.accesses() as f64
        }
    }

    /// Component-wise sum (e.g. B+-tree pool + blob pool).
    pub fn merged(self, other: PoolStats) -> PoolStats {
        PoolStats {
            hits: self.hits + other.hits,
            coalesced: self.coalesced + other.coalesced,
            misses: self.misses + other.misses,
            prefetched: self.prefetched + other.prefetched,
        }
    }

    /// Counter deltas since an `earlier` snapshot of the same pool(s).
    pub fn since(self, earlier: PoolStats) -> PoolStats {
        PoolStats {
            hits: self.hits.saturating_sub(earlier.hits),
            coalesced: self.coalesced.saturating_sub(earlier.coalesced),
            misses: self.misses.saturating_sub(earlier.misses),
            prefetched: self.prefetched.saturating_sub(earlier.prefetched),
        }
    }
}

struct FrameCell {
    /// The frame's page image, allocated by the read that first fills the
    /// frame: a pool sized for a working set it never reaches holds no
    /// memory for the frames it never uses.
    page: Arc<RwLock<Option<Page>>>,
    pins: AtomicU32,
}

/// Per-thread outstanding-pin counts plus the "a pin was released"
/// condition variable. Lives in an `Arc` so page guards can update it on
/// drop without holding the pool borrow.
struct PinLedger {
    counts: Mutex<HashMap<ThreadId, u32>>,
    freed: Condvar,
}

impl PinLedger {
    fn new() -> Self {
        PinLedger {
            counts: Mutex::new(HashMap::new()),
            freed: Condvar::new(),
        }
    }

    /// Records one more pin held by the current thread.
    fn acquire(&self) -> ThreadId {
        let me = std::thread::current().id();
        *self.counts.lock().entry(me).or_insert(0) += 1;
        me
    }

    /// Releases one pin held by `owner` and wakes any waiters.
    fn release(&self, owner: ThreadId) {
        let mut counts = self.counts.lock();
        if let Some(n) = counts.get_mut(&owner) {
            *n -= 1;
            if *n == 0 {
                counts.remove(&owner);
            }
        }
        drop(counts);
        self.freed.notify_all();
    }

    /// `(pins held by the current thread, pins held in total)`.
    fn split_counts(&self) -> (u32, u32) {
        let counts = self.counts.lock();
        let me = std::thread::current().id();
        let mine = counts.get(&me).copied().unwrap_or(0);
        let total = counts.values().sum();
        (mine, total)
    }

    /// Parks until some guard drops (or the slice elapses).
    fn wait_for_release(&self) {
        let mut counts = self.counts.lock();
        if counts.values().sum::<u32>() == 0 {
            return; // released between the caller's check and our lock
        }
        let _ = self.freed.wait_for(&mut counts, PIN_WAIT_SLICE);
    }
}

/// Load state of one frame. `Loading` frames are always pinned by their
/// loader, so the victim search can never reclaim them mid-read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FrameState {
    /// Not bound to any page.
    Empty,
    /// Bound to a page whose read is in flight; fetches
    /// park on the frame's condition variable.
    Loading,
    /// Bound with valid contents.
    Resident,
}

struct FrameMeta {
    page_id: Option<PageId>,
    state: FrameState,
    last_used: u64,
}

struct PoolInner {
    map: HashMap<PageId, usize>,
    meta: Vec<FrameMeta>,
    tick: u64,
    hits: u64,
    coalesced: u64,
    misses: u64,
    prefetched: u64,
}

/// RAII wrapper over the pool mutex guard that maintains the debug-only
/// thread-local lock depth for the no-I/O-under-lock assertion.
struct InnerGuard<'a> {
    g: parking_lot::MutexGuard<'a, PoolInner>,
}

impl std::ops::Deref for InnerGuard<'_> {
    type Target = PoolInner;
    fn deref(&self) -> &PoolInner {
        &self.g
    }
}

impl std::ops::DerefMut for InnerGuard<'_> {
    fn deref_mut(&mut self) -> &mut PoolInner {
        &mut self.g
    }
}

impl Drop for InnerGuard<'_> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        lockcheck::exit();
    }
}

/// Shared read access to a pinned page. Unpins on drop.
pub struct PageGuard {
    cell: Arc<FrameCell>,
    guard: Option<ArcRwLockReadGuard<RawRwLock, Option<Page>>>,
    ledger: Arc<PinLedger>,
    owner: ThreadId,
}

impl PageGuard {
    /// The page contents.
    #[inline]
    pub fn page(&self) -> &Page {
        let frame = self.guard.as_ref().expect("guard present until drop");
        frame
            .as_ref()
            .expect("a pinned resident frame holds a page")
    }
}

impl Drop for PageGuard {
    fn drop(&mut self) {
        self.guard.take();
        self.cell.pins.fetch_sub(1, Ordering::Release);
        self.ledger.release(self.owner);
    }
}

/// The buffer pool.
pub struct BufferPool {
    disk: Arc<DiskManager>,
    frames: Vec<Arc<FrameCell>>,
    /// One condition variable per frame (paired with the inner mutex):
    /// fetches of an in-flight page park here until the loader publishes.
    frame_cvs: Vec<Condvar>,
    inner: Mutex<PoolInner>,
    ledger: Arc<PinLedger>,
    /// Where demand reads come from. Swappable so tests can inject
    /// latency/faults; the default reads through `disk`.
    backend: RwLock<Arc<dyn ReadBackend>>,
    /// Async readahead staging, when attached.
    prefetcher: RwLock<Option<Arc<Prefetcher>>>,
}

impl BufferPool {
    /// Creates a pool with `frame_count` page frames over `disk`.
    pub fn new(disk: Arc<DiskManager>, frame_count: usize) -> Self {
        let frame_count = frame_count.max(1);
        let frames = (0..frame_count)
            .map(|_| {
                Arc::new(FrameCell {
                    page: Arc::new(RwLock::new(None)),
                    pins: AtomicU32::new(0),
                })
            })
            .collect();
        let frame_cvs = (0..frame_count).map(|_| Condvar::new()).collect();
        let meta = (0..frame_count)
            .map(|_| FrameMeta {
                page_id: None,
                state: FrameState::Empty,
                last_used: 0,
            })
            .collect();
        let backend: Arc<dyn ReadBackend> = Arc::new(DiskReadBackend::new(Arc::clone(&disk)));
        BufferPool {
            disk,
            frames,
            frame_cvs,
            inner: Mutex::new(PoolInner {
                map: HashMap::new(),
                meta,
                tick: 0,
                hits: 0,
                coalesced: 0,
                misses: 0,
                prefetched: 0,
            }),
            ledger: Arc::new(PinLedger::new()),
            backend: RwLock::new(backend),
            prefetcher: RwLock::new(None),
        }
    }

    /// The disk manager underneath.
    pub fn disk(&self) -> &Arc<DiskManager> {
        &self.disk
    }

    /// Number of frames.
    pub fn capacity(&self) -> usize {
        self.frames.len()
    }

    /// Number of frames currently pinned by outstanding guards. Test
    /// observability: after every guard has dropped this must be zero —
    /// a leaked pin would wedge victim search forever on a small pool.
    pub fn pinned_frames(&self) -> usize {
        self.frames
            .iter()
            .filter(|f| f.pins.load(Ordering::Acquire) > 0)
            .count()
    }

    /// Replaces the demand-read backend (tests inject latency or faults
    /// here). Call before [`BufferPool::attach_prefetcher`] — the
    /// prefetcher captures the backend current at attach time.
    pub fn set_read_backend(&self, backend: Arc<dyn ReadBackend>) {
        *self.backend.write() = backend;
    }

    /// Wires an async readahead staging area of `capacity` pages over the
    /// shared I/O worker pool. Replaces any previous prefetcher.
    pub fn attach_prefetcher(&self, io: Arc<IoPool>, capacity: usize) {
        let backend = Arc::clone(&*self.backend.read());
        *self.prefetcher.write() = Some(Arc::new(Prefetcher::new(io, backend, capacity)));
    }

    /// Queues async readahead for the non-resident pages of `ids`. A
    /// no-op without an attached prefetcher; always a hint, never
    /// required for correctness.
    pub fn prefetch(&self, ids: &[PageId]) {
        let pf = match &*self.prefetcher.read() {
            Some(pf) => Arc::clone(pf),
            None => return,
        };
        let wanted: Vec<PageId> = {
            let inner = self.lock_inner();
            ids.iter()
                .copied()
                .filter(|id| !inner.map.contains_key(id))
                .collect()
        };
        if !wanted.is_empty() {
            pf.request(&wanted);
        }
    }

    /// Readahead counters (zeros without an attached prefetcher).
    pub fn prefetch_stats(&self) -> PrefetchStats {
        self.prefetcher
            .read()
            .as_ref()
            .map(|p| p.stats())
            .unwrap_or_default()
    }

    /// Full counter snapshot.
    pub fn pool_stats(&self) -> PoolStats {
        let inner = self.lock_inner();
        PoolStats {
            hits: inner.hits,
            coalesced: inner.coalesced,
            misses: inner.misses,
            prefetched: inner.prefetched,
        }
    }

    /// Fetches a page for reading.
    pub fn fetch(&self, id: PageId) -> Result<PageGuard> {
        let (cell, owner) = self.pin_frame(id)?;
        let guard = RwLock::read_arc(&cell.page);
        Ok(PageGuard {
            cell,
            guard: Some(guard),
            ledger: Arc::clone(&self.ledger),
            owner,
        })
    }

    /// Locks the pool mutex, maintaining the debug lock-depth used by the
    /// no-I/O-under-lock assertion.
    fn lock_inner(&self) -> InnerGuard<'_> {
        let g = self.inner.lock();
        #[cfg(debug_assertions)]
        lockcheck::enter();
        InnerGuard { g }
    }

    fn read_backend(&self) -> Arc<dyn ReadBackend> {
        Arc::clone(&*self.backend.read())
    }

    fn take_staged(&self, id: PageId) -> Option<Page> {
        self.prefetcher.read().as_ref()?.take(id)
    }

    fn pin_frame(&self, id: PageId) -> Result<(Arc<FrameCell>, ThreadId)> {
        let deadline = Instant::now() + PIN_WAIT_DEADLINE;
        // True once this fetch has parked on an in-flight load of `id`;
        // decides hit vs. coalesced when the page turns out resident.
        let mut waited_inflight = false;
        let mut inner = self.lock_inner();
        loop {
            inner.tick += 1;
            let tick = inner.tick;
            // Re-checked on every retry: while we waited, another thread
            // may have loaded (or begun loading) this very page.
            if let Some(&f) = inner.map.get(&id) {
                match inner.meta[f].state {
                    FrameState::Resident => {
                        if waited_inflight {
                            inner.coalesced += 1;
                        } else {
                            inner.hits += 1;
                        }
                        inner.meta[f].last_used = tick;
                        self.frames[f].pins.fetch_add(1, Ordering::Acquire);
                        let owner = self.ledger.acquire();
                        return Ok((Arc::clone(&self.frames[f]), owner));
                    }
                    FrameState::Loading => {
                        // Another fetch is reading this page; park on the
                        // frame until it publishes (or fails and unbinds).
                        waited_inflight = true;
                        let _ = self.frame_cvs[f].wait_for(&mut inner.g, LOAD_WAIT_SLICE);
                        continue;
                    }
                    FrameState::Empty => {
                        unreachable!("mapped frame cannot be Empty");
                    }
                }
            }
            // Miss: claim a victim, bind it Loading, and read unlocked.
            let Some(frame) = self.lru_unpinned(&inner) else {
                inner = self.wait_for_unpin(inner, deadline)?;
                continue;
            };
            if let Some(old) = inner.meta[frame].page_id.take() {
                inner.map.remove(&old);
            }
            inner.meta[frame].page_id = Some(id);
            inner.meta[frame].state = FrameState::Loading;
            inner.meta[frame].last_used = tick;
            inner.map.insert(id, frame);
            // The loader pin keeps the Loading frame off the victim list.
            self.frames[frame].pins.fetch_add(1, Ordering::Acquire);
            let owner = self.ledger.acquire();
            drop(inner);
            // --- the read: no pool mutex held ---
            let staged = self.take_staged(id);
            let from_prefetch = staged.is_some();
            let loaded = match staged {
                Some(page) => Ok(page),
                None => self.read_backend().read_page(id),
            };
            match loaded {
                Ok(page) => {
                    *self.frames[frame].page.write() = Some(page);
                    let mut inner = self.lock_inner();
                    inner.meta[frame].state = FrameState::Resident;
                    if from_prefetch {
                        inner.prefetched += 1;
                    } else {
                        inner.misses += 1;
                    }
                    self.frame_cvs[frame].notify_all();
                    drop(inner);
                    return Ok((Arc::clone(&self.frames[frame]), owner));
                }
                Err(e) => {
                    // Unbind so parked waiters retry (and surface the
                    // same error if it is persistent).
                    let mut inner = self.lock_inner();
                    inner.meta[frame].page_id = None;
                    inner.meta[frame].state = FrameState::Empty;
                    inner.map.remove(&id);
                    self.frame_cvs[frame].notify_all();
                    drop(inner);
                    self.frames[frame].pins.fetch_sub(1, Ordering::Release);
                    self.ledger.release(owner);
                    return Err(e);
                }
            }
        }
    }

    /// Handles an all-frames-pinned victim search. If every outstanding pin
    /// belongs to the calling thread (or the deadline has passed), this is
    /// [`StorageError::PoolExhausted`] — waiting on our own guards would
    /// deadlock.
    /// Otherwise the pool lock is released and the caller parks until some
    /// guard drops, then retries with the lock re-acquired.
    fn wait_for_unpin<'a>(
        &'a self,
        inner: InnerGuard<'a>,
        deadline: Instant,
    ) -> Result<InnerGuard<'a>> {
        let (mine, total) = self.ledger.split_counts();
        if (mine > 0 && mine == total) || Instant::now() >= deadline {
            return Err(StorageError::PoolExhausted);
        }
        drop(inner);
        self.ledger.wait_for_release();
        Ok(self.lock_inner())
    }

    /// The least recently used unpinned frame (the first such frame on a
    /// tie), or `None` when every frame is pinned. An unpinned frame is
    /// never `Loading` (a loading frame carries its loader's pin), so it is
    /// free to rebind.
    ///
    /// Pin counts live behind each frame's `Arc`, so a frame's pins are
    /// read only when its `last_used` would beat the best so far, and a
    /// never-used frame (`last_used` 0) ends the search: a miss on a pool
    /// that is not yet full costs a walk over the metadata array, not a
    /// pointer chase per frame.
    fn lru_unpinned(&self, inner: &PoolInner) -> Option<usize> {
        let mut victim: Option<usize> = None;
        for (i, m) in inner.meta.iter().enumerate() {
            if victim.is_some_and(|v| inner.meta[v].last_used <= m.last_used) {
                continue;
            }
            if self.frames[i].pins.load(Ordering::Acquire) == 0 {
                victim = Some(i);
                if m.last_used == 0 {
                    break;
                }
            }
        }
        victim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::PageWriter;

    /// Writes one page per marker (its first payload byte) to the end of
    /// `disk` and returns the pages' ids.
    fn write_markers(disk: &DiskManager, markers: impl IntoIterator<Item = u8>) -> Vec<PageId> {
        let mut writer = PageWriter::new(disk);
        let mut page = Page::zeroed();
        let ids = markers
            .into_iter()
            .map(|m| {
                page.payload_mut()[0] = m;
                writer.append(&mut page).unwrap()
            })
            .collect();
        writer.finish().unwrap();
        ids
    }

    /// A `frames`-frame pool over a fresh file holding one page per marker.
    fn marked_pool(
        frames: usize,
        markers: impl IntoIterator<Item = u8>,
    ) -> (tempfile::TempDir, BufferPool, Vec<PageId>) {
        let d = tempfile::tempdir().unwrap();
        let dm = Arc::new(DiskManager::create(&d.path().join("p.db")).unwrap());
        let ids = write_markers(&dm, markers);
        (d, BufferPool::new(dm, frames), ids)
    }

    #[test]
    fn written_page_then_fetch() {
        let (_d, pool, ids) = marked_pool(4, [7]);
        let g = pool.fetch(ids[0]).unwrap();
        assert_eq!(g.page().payload()[0], 7);
    }

    #[test]
    fn eviction_roundtrips_through_disk() {
        let (_d, pool, ids) = marked_pool(2, 0..10);
        // two frames over ten pages: every refetch past the second evicts
        for (i, id) in ids.iter().enumerate() {
            let g = pool.fetch(*id).unwrap();
            assert_eq!(g.page().payload()[0], i as u8, "page {i}");
        }
    }

    #[test]
    fn eviction_takes_the_least_recently_used_frame() {
        let (_d, pool, ids) = marked_pool(2, [1, 2, 3]);
        let (a, b, c) = (ids[0], ids[1], ids[2]);
        pool.fetch(a).unwrap();
        pool.fetch(b).unwrap();
        pool.fetch(a).unwrap(); // b is now the older frame
        pool.fetch(c).unwrap(); // evicts b
        let before = pool.pool_stats();
        pool.fetch(a).unwrap();
        assert_eq!(pool.pool_stats().since(before).hits, 1, "a stayed");
        pool.fetch(b).unwrap();
        assert_eq!(pool.pool_stats().since(before).misses, 1, "b was evicted");
    }

    #[test]
    fn pool_exhausted_when_all_pinned() {
        let (_d, pool, ids) = marked_pool(2, [1, 2, 3]);
        let (a, b, c) = (ids[0], ids[1], ids[2]);
        let _ga = pool.fetch(a).unwrap();
        let _gb = pool.fetch(b).unwrap();
        match pool.fetch(c) {
            Err(StorageError::PoolExhausted) => {}
            other => panic!("expected PoolExhausted, got {:?}", other.is_ok()),
        }
    }

    #[test]
    fn unpin_allows_reuse() {
        let (_d, pool, ids) = marked_pool(1, [1, 2]);
        let (a, b) = (ids[0], ids[1]);
        {
            let _g = pool.fetch(a).unwrap();
        } // dropped => unpinned
        let g = pool.fetch(b).unwrap();
        assert_eq!(g.page().payload()[0], 2);
        drop(g);
        let g = pool.fetch(a).unwrap();
        assert_eq!(g.page().payload()[0], 1);
    }

    #[test]
    fn written_pages_survive_reopen() {
        let d = tempfile::tempdir().unwrap();
        let path = d.path().join("p.db");
        let id = write_markers(&DiskManager::create(&path).unwrap(), [99])[0];
        let dm = Arc::new(DiskManager::open(&path).unwrap());
        let pool = BufferPool::new(dm, 4);
        let g = pool.fetch(id).unwrap();
        assert_eq!(g.page().payload()[0], 99);
    }

    #[test]
    fn hit_miss_stats() {
        let (_d, pool, ids) = marked_pool(4, [1]);
        let a = ids[0];
        pool.fetch(a).unwrap(); // the one miss
        let h0 = pool.pool_stats().hits;
        pool.fetch(a).unwrap();
        pool.fetch(a).unwrap();
        let h1 = pool.pool_stats().hits;
        assert_eq!(h1 - h0, 2);
    }

    #[test]
    fn misses_count_actual_disk_reads() {
        // `misses` must equal the DiskManager's verified-read counter:
        // every demand read counted exactly once, no double count on
        // races, no phantom hit on retries.
        let (_d, pool, ids) = marked_pool(2, 0..12);
        let (reads0, _) = pool.disk().io_counts();
        let base = pool.pool_stats();
        for _ in 0..3 {
            for id in &ids {
                pool.fetch(*id).unwrap();
            }
        }
        let s = pool.pool_stats().since(base);
        let (reads1, _) = pool.disk().io_counts();
        assert_eq!(s.accesses(), 36, "every fetch counted exactly once");
        assert_eq!(
            s.misses,
            reads1 - reads0,
            "misses == synchronous disk reads"
        );
        assert_eq!(s.prefetched, 0);
    }

    #[test]
    fn many_pages_tiny_pool_stress() {
        let (_d, pool, ids) = marked_pool(3, (0..100).map(|i| (i % 251) as u8));
        for round in 0..3 {
            for (i, id) in ids.iter().enumerate() {
                let g = pool.fetch(*id).unwrap();
                assert_eq!(
                    g.page().payload()[0],
                    (i % 251) as u8,
                    "round {round} page {i}"
                );
            }
        }
        let PoolStats { hits, misses, .. } = pool.pool_stats();
        assert!(misses > 0 && hits + misses >= 300);
    }

    #[test]
    fn fetch_storm_tiny_pool_no_exhaustion() {
        // 8 threads hammer a 2-frame pool, each holding one guard at a
        // time. All-frames-pinned moments are common, but the pins always
        // belong to other threads, so every fetch must wait and succeed —
        // never PoolExhausted.
        let (_d, pool, ids) = marked_pool(2, 0..16);
        let pool = Arc::new(pool);
        let mut handles = Vec::new();
        for t in 0..8 {
            let pool = Arc::clone(&pool);
            let ids = ids.clone();
            handles.push(std::thread::spawn(move || {
                for round in 0..200 {
                    let i = (t * 5 + round * 11) % ids.len();
                    let g = pool
                        .fetch(ids[i])
                        .expect("waiters must outlast other threads' pins");
                    assert_eq!(g.page().payload()[0], i as u8);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn fetch_taxonomy_accounts_for_every_access() {
        // Frame-state-machine ledger test: under a concurrent storm over
        // a tiny pool, every fetch lands in exactly one stats bucket and
        // all pins drain afterwards.
        const THREADS: usize = 6;
        const ROUNDS: usize = 300;
        let (_d, pool, ids) = marked_pool(3, 0..24);
        let pool = Arc::new(pool);
        let base = pool.pool_stats();
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let pool = Arc::clone(&pool);
            let ids = ids.clone();
            handles.push(std::thread::spawn(move || {
                for round in 0..ROUNDS {
                    let i = (t * 7 + round * 13) % ids.len();
                    let g = pool.fetch(ids[i]).expect("storm fetch");
                    assert_eq!(g.page().payload()[0], i as u8);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = pool.pool_stats().since(base);
        assert_eq!(
            s.accesses(),
            (THREADS * ROUNDS) as u64,
            "each fetch counted exactly once across {s:?}"
        );
        // all pins drained: the tiny pool can still turn over every frame
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(pool.fetch(*id).unwrap().page().payload()[0], i as u8);
        }
    }

    #[test]
    fn waiter_succeeds_when_other_thread_unpins() {
        let (_d, pool, ids) = marked_pool(1, [1, 2]);
        let pool = Arc::new(pool);
        let (a, b) = (ids[0], ids[1]);
        let ga = pool.fetch(a).unwrap(); // pin the only frame
        let child = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || pool.fetch(b).map(|g| g.page().payload()[0]))
        };
        // Let the child reach the all-pinned path and park.
        std::thread::sleep(Duration::from_millis(50));
        drop(ga); // unpin: the parked fetch must wake and complete
        assert_eq!(child.join().unwrap().unwrap(), 2);
    }

    #[test]
    fn two_pools_interleaved_pins_from_shared_thread_set() {
        // The sharded-index access pattern: every shard owns its own
        // DiskManager + BufferPool, and one set of worker threads pins
        // pages from several pools at once — often holding a guard on
        // pool A while fetching from pool B, in either order. Pin
        // ledgers and waiter wakeups are strictly per-pool, so
        // cross-pool holds must not leak pins and each pool's stats must
        // only count its own traffic. Each pool gets one frame per
        // worker (the sizing invariant the sharded database's per-shard
        // `buffer_frames` budget upholds): a thread never holds more
        // than one pin per pool, so mixed A→B / B→A hold orders cannot
        // exhaust a pool and deadlock — with fewer frames than workers
        // that ABBA pattern genuinely can, in any pool design.
        const WORKERS: usize = 6;
        let d = tempfile::tempdir().unwrap();
        let dm_a = Arc::new(DiskManager::create(&d.path().join("a.db")).unwrap());
        let dm_b = Arc::new(DiskManager::create(&d.path().join("b.db")).unwrap());
        let ids_a = write_markers(&dm_a, 0..12);
        let ids_b = write_markers(&dm_b, 100..112);
        let pool_a = Arc::new(BufferPool::new(dm_a, WORKERS));
        let pool_b = Arc::new(BufferPool::new(dm_b, WORKERS));
        let base_a = pool_a.pool_stats();
        let base_b = pool_b.pool_stats();

        let mut handles = Vec::new();
        for t in 0..WORKERS {
            let (pool_a, pool_b) = (Arc::clone(&pool_a), Arc::clone(&pool_b));
            let (ids_a, ids_b) = (ids_a.clone(), ids_b.clone());
            handles.push(std::thread::spawn(move || {
                for round in 0..150 {
                    let i = (t * 5 + round * 7) % ids_a.len();
                    let j = (t * 3 + round * 11) % ids_b.len();
                    // hold a pin in A across the whole B fetch (and vice
                    // versa on odd rounds) — the cross-pool hold pattern
                    if round % 2 == 0 {
                        let ga = pool_a.fetch(ids_a[i]).expect("pool A fetch");
                        let gb = pool_b.fetch(ids_b[j]).expect("pool B fetch under A pin");
                        assert_eq!(ga.page().payload()[0], i as u8);
                        assert_eq!(gb.page().payload()[0], 100 + j as u8);
                    } else {
                        let gb = pool_b.fetch(ids_b[j]).expect("pool B fetch");
                        let ga = pool_a.fetch(ids_a[i]).expect("pool A fetch under B pin");
                        assert_eq!(gb.page().payload()[0], 100 + j as u8);
                        assert_eq!(ga.page().payload()[0], i as u8);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // all pins released: both pools can still turn over every frame
        for (i, id) in ids_a.iter().enumerate() {
            assert_eq!(pool_a.fetch(*id).unwrap().page().payload()[0], i as u8);
        }
        for (j, id) in ids_b.iter().enumerate() {
            assert_eq!(
                pool_b.fetch(*id).unwrap().page().payload()[0],
                100 + j as u8
            );
        }
        // stats stayed per-pool: each saw exactly its own WORKERS*150
        // + 12 fetches
        let sa = pool_a.pool_stats().since(base_a);
        let sb = pool_b.pool_stats().since(base_b);
        assert_eq!(sa.accesses(), WORKERS as u64 * 150 + 12, "pool A accesses");
        assert_eq!(sb.accesses(), WORKERS as u64 * 150 + 12, "pool B accesses");
    }

    #[test]
    fn concurrent_readers() {
        let (_d, pool, ids) = marked_pool(8, 0..32);
        let pool = Arc::new(pool);
        let mut handles = Vec::new();
        for t in 0..4 {
            let pool = Arc::clone(&pool);
            let ids = ids.clone();
            handles.push(std::thread::spawn(move || {
                for round in 0..50 {
                    let i = (t * 7 + round * 3) % ids.len();
                    let g = pool.fetch(ids[i]).unwrap();
                    assert_eq!(g.page().payload()[0], i as u8);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    /// A backend that sleeps on designated pages — simulates one slow
    /// cold read so tests can prove it doesn't serialize the pool.
    struct SlowPageBackend {
        disk: Arc<DiskManager>,
        slow: PageId,
        delay: Duration,
    }

    impl ReadBackend for SlowPageBackend {
        fn read_page(&self, id: PageId) -> Result<Page> {
            if id == self.slow {
                std::thread::sleep(self.delay);
            }
            self.disk.read_page(id)
        }
    }

    #[test]
    fn slow_cold_read_does_not_block_resident_fetches() {
        // Acceptance check for the tentpole: with the read happening
        // outside the pool mutex, a 300 ms cold read of one page must not
        // delay fetches of already-resident pages.
        let d = tempfile::tempdir().unwrap();
        let path = d.path().join("p.db");
        let ids = write_markers(&DiskManager::create(&path).unwrap(), 0..8);
        let slow = ids[0];
        let delay = Duration::from_millis(300);
        // Fresh pool: everything cold. Warm ids[1..], leave ids[0] cold.
        let pool = Arc::new(BufferPool::new(
            Arc::new(DiskManager::open(&path).unwrap()),
            8,
        ));
        let dm = Arc::clone(pool.disk());
        pool.set_read_backend(Arc::new(SlowPageBackend {
            disk: dm,
            slow,
            delay,
        }));
        for id in &ids[1..] {
            pool.fetch(*id).unwrap(); // resident
        }
        let loader = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || pool.fetch(slow).map(|g| g.page().payload()[0]))
        };
        std::thread::sleep(Duration::from_millis(30)); // loader is mid-read
        let t0 = Instant::now();
        for round in 0..20 {
            let id = ids[1 + round % 7];
            pool.fetch(id).unwrap();
        }
        let resident_elapsed = t0.elapsed();
        assert!(
            resident_elapsed < Duration::from_millis(150),
            "resident fetches stalled behind a cold read: {resident_elapsed:?}"
        );
        assert_eq!(loader.join().unwrap().unwrap(), 0);
    }

    #[test]
    fn concurrent_cold_fetches_coalesce_on_one_read() {
        // N threads demand the same cold page while its read is slow:
        // exactly one performs the read (miss), the rest park on the
        // frame and are counted as coalesced.
        const WAITERS: usize = 4;
        let d = tempfile::tempdir().unwrap();
        let path = d.path().join("p.db");
        let target = write_markers(&DiskManager::create(&path).unwrap(), [42])[0];
        let dm = Arc::new(DiskManager::open(&path).unwrap());
        let pool = Arc::new(BufferPool::new(Arc::clone(&dm), 4));
        pool.set_read_backend(Arc::new(SlowPageBackend {
            disk: dm,
            slow: target,
            delay: Duration::from_millis(200),
        }));
        let base = pool.pool_stats();
        let barrier = Arc::new(std::sync::Barrier::new(WAITERS + 1));
        let mut handles = Vec::new();
        for _ in 0..WAITERS {
            let pool = Arc::clone(&pool);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                // arrive while the leader's 200 ms read is in flight
                std::thread::sleep(Duration::from_millis(40));
                pool.fetch(target).map(|g| g.page().payload()[0])
            }));
        }
        let leader = {
            let pool = Arc::clone(&pool);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                pool.fetch(target).map(|g| g.page().payload()[0])
            })
        };
        assert_eq!(leader.join().unwrap().unwrap(), 42);
        for h in handles {
            assert_eq!(h.join().unwrap().unwrap(), 42);
        }
        let s = pool.pool_stats().since(base);
        assert_eq!(s.misses, 1, "exactly one disk read for the shared page");
        assert_eq!(
            s.misses + s.coalesced + s.hits,
            (WAITERS + 1) as u64,
            "every fetch counted once: {s:?}"
        );
        assert!(s.coalesced >= 1, "waiters parked on the in-flight frame");
    }

    #[test]
    fn prefetched_pages_are_served_from_staging() {
        let d = tempfile::tempdir().unwrap();
        let path = d.path().join("p.db");
        let ids = write_markers(&DiskManager::create(&path).unwrap(), 0..16);
        let dm = Arc::new(DiskManager::open(&path).unwrap());
        let pool = BufferPool::new(dm, 8);
        let io = IoPool::new(2);
        pool.attach_prefetcher(io, 32);
        pool.prefetch(&ids);
        // give the workers time to land the reads in staging; the fetch
        // loop below is correct either way (a pending entry just means a
        // demand read), we only need *some* staged pages for the assert
        let deadline = Instant::now() + Duration::from_secs(5);
        while pool.disk().io_counts().0 < ids.len() as u64 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        for (i, id) in ids.iter().enumerate() {
            let g = pool.fetch(*id).unwrap();
            assert_eq!(g.page().payload()[0], i as u8);
        }
        let s = pool.pool_stats();
        let pf = pool.prefetch_stats();
        assert!(
            s.prefetched > 0,
            "staged pages must satisfy misses: {s:?} / {pf:?}"
        );
        assert_eq!(s.prefetched + s.misses, 16, "every cold fetch accounted");
        assert_eq!(pf.used, s.prefetched);
    }

    /// A read backend that tallies every page it serves, so tests can
    /// audit the stats taxonomy against actual disk traffic.
    struct CountingBackend {
        inner: Arc<dyn ReadBackend>,
        reads: Arc<std::sync::atomic::AtomicU64>,
    }

    impl ReadBackend for CountingBackend {
        fn read_page(&self, id: PageId) -> crate::Result<Page> {
            self.reads.fetch_add(1, Ordering::Relaxed);
            self.inner.read_page(id)
        }
    }

    /// The accounting ledger under stress: every `misses` tick is exactly
    /// one demand disk read, every `issued` tick exactly one async read,
    /// and nothing else ever touches the disk. Run without a prefetcher
    /// the audit is an equality on `misses` alone; with one attached (and
    /// readahead requests mixed into the fetches) it is `misses + issued`. Either
    /// way every pin must be returned — a leaked pin on a 3-frame pool
    /// would wedge the victim search.
    #[test]
    fn stress_accounting_matches_actual_disk_reads() {
        let (_d, pool, ids) = marked_pool(3, 0..24);
        let reads = Arc::new(std::sync::atomic::AtomicU64::new(0));
        pool.set_read_backend(Arc::new(CountingBackend {
            inner: Arc::new(DiskReadBackend::new(Arc::clone(pool.disk()))),
            reads: Arc::clone(&reads),
        }));
        let pool = Arc::new(pool);

        // Phase 1 — no prefetcher: demand misses are the only reads.
        let base = pool.pool_stats();
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let pool = Arc::clone(&pool);
            let ids = ids.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..300u64 {
                    let k = ((t * 131 + i * 7) % ids.len() as u64) as usize;
                    let g = pool.fetch(ids[k]).unwrap();
                    assert_eq!(g.page().payload()[0], k as u8);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let d = pool.pool_stats().since(base);
        assert_eq!(pool.pinned_frames(), 0, "phase 1 leaked a pin");
        assert_eq!(
            d.hits + d.coalesced + d.misses,
            4 * 300,
            "every fetch counted"
        );
        assert_eq!(d.prefetched, 0, "no prefetcher attached yet");
        assert_eq!(
            d.misses,
            reads.load(Ordering::Relaxed),
            "misses == demand reads"
        );

        // Phase 2 — prefetcher attached (capturing the counting backend),
        // readahead requests between the fetches.
        let io = IoPool::new(2);
        pool.attach_prefetcher(io, 8);
        let base = pool.pool_stats();
        let reads_base = reads.load(Ordering::Relaxed);
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let pool = Arc::clone(&pool);
            let ids = ids.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..200u64 {
                    let k = ((t * 37 + i * 11) % ids.len() as u64) as usize;
                    match (t + i) % 5 {
                        1 => pool.prefetch(&[ids[k], ids[(k + 5) % 24], ids[(k + 11) % 24]]),
                        _ => {
                            let g = pool.fetch(ids[k]).unwrap();
                            assert_eq!(g.page().payload()[0], k as u8);
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Issued prefetch jobs may still be in flight on the I/O workers;
        // wait for the ledger to balance before asserting equality.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let d = pool.pool_stats().since(base);
            let pf = pool.prefetch_stats();
            let audited = reads.load(Ordering::Relaxed) - reads_base;
            if d.misses + pf.issued == audited {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "disk reads never reconciled: misses {} + issued {} != reads {audited}",
                d.misses,
                pf.issued
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(pool.pinned_frames(), 0, "phase 2 leaked a pin");
        let d = pool.pool_stats().since(base);
        assert!(d.misses > 0, "a 3-frame pool over 24 pages must miss");
    }
}
