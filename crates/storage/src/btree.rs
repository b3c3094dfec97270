//! Disk-resident B+-tree over composite `(label, degree, nbConnection)`
//! keys — the first level of the paper's hybrid NH-Index (§IV-C, Fig. 2).
//!
//! The tree supports the exact access paths the index probe needs:
//! equality on the label plus range scans on degree and neighbor
//! connection (conditions IV.1, IV.2 and IV.4), via [`BTree::get`] and
//! [`BTree::range`]. Values are opaque `u64`s; the NH-Index stores
//! [`crate::BlobRef`]s to second-level postings there.
//!
//! Keys are unique, which matches the index's one-posting-per-distinct-key
//! layout. A tree is written once by [`BTree::bulk_load`] (leaves packed
//! at 100% fill, through a [`PageWriter`]) and read through a buffer pool
//! afterwards: growing databases build new index generations instead of
//! updating a tree in place.

use crate::buffer::BufferPool;
use crate::disk::DiskManager;
use crate::page::{Page, PageId, PAGE_SIZE};
use crate::writer::PageWriter;
use crate::{Result, StorageError};
use std::sync::Arc;

/// In-payload header bytes: type(1) pad(1) count(2) pad(4) next(8).
const HDR: usize = 16;
/// Payload bytes available per page.
const PAYLOAD: usize = PAGE_SIZE - crate::page::HEADER_LEN;
/// Bytes per leaf entry: 12-byte key + 8-byte value.
const LEAF_ENTRY: usize = 20;
/// Bytes per internal entry: 12-byte key + 8-byte child pointer.
const INT_ENTRY: usize = 20;
/// Internal nodes also store one leftmost child pointer after the header.
const INT_HDR: usize = HDR + 8;

/// Max entries per leaf page.
pub const LEAF_CAP: usize = (PAYLOAD - HDR) / LEAF_ENTRY;
/// Max separator keys per internal page.
pub const INT_CAP: usize = (PAYLOAD - INT_HDR) / INT_ENTRY;

const NO_NEXT: u64 = u64::MAX;

/// The NH-Index first-level key: `(label, degree, neighbor connection)`,
/// compared lexicographically — so all entries for one label are
/// contiguous, ordered by degree then neighbor connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CompositeKey {
    /// Effective node label (group label under §IV-E).
    pub label: u32,
    /// Node degree.
    pub degree: u32,
    /// Neighbor connection (edges among neighbors).
    pub nb_connection: u32,
}

impl CompositeKey {
    /// Builds a key.
    pub fn new(label: u32, degree: u32, nb_connection: u32) -> Self {
        CompositeKey {
            label,
            degree,
            nb_connection,
        }
    }

    /// Smallest possible key.
    pub const MIN: CompositeKey = CompositeKey {
        label: 0,
        degree: 0,
        nb_connection: 0,
    };

    /// Largest possible key.
    pub const MAX: CompositeKey = CompositeKey {
        label: u32::MAX,
        degree: u32::MAX,
        nb_connection: u32::MAX,
    };

    fn write(self, buf: &mut [u8]) {
        buf[0..4].copy_from_slice(&self.label.to_le_bytes());
        buf[4..8].copy_from_slice(&self.degree.to_le_bytes());
        buf[8..12].copy_from_slice(&self.nb_connection.to_le_bytes());
    }

    fn read(buf: &[u8]) -> Self {
        CompositeKey {
            label: u32::from_le_bytes(buf[0..4].try_into().unwrap()),
            degree: u32::from_le_bytes(buf[4..8].try_into().unwrap()),
            nb_connection: u32::from_le_bytes(buf[8..12].try_into().unwrap()),
        }
    }
}

enum Node {
    Leaf {
        entries: Vec<(CompositeKey, u64)>,
        next: Option<PageId>,
    },
    Internal {
        leftmost: PageId,
        entries: Vec<(CompositeKey, PageId)>,
    },
}

impl Node {
    fn decode(payload: &[u8]) -> Result<Node> {
        let count = u16::from_le_bytes(payload[2..4].try_into().unwrap()) as usize;
        match payload[0] {
            0 => {
                if count > LEAF_CAP {
                    return Err(StorageError::TreeInvariant("leaf count over capacity"));
                }
                let next_raw = u64::from_le_bytes(payload[8..16].try_into().unwrap());
                let next = (next_raw != NO_NEXT).then_some(PageId(next_raw));
                let mut entries = Vec::with_capacity(count);
                for i in 0..count {
                    let off = HDR + i * LEAF_ENTRY;
                    let key = CompositeKey::read(&payload[off..off + 12]);
                    let val = u64::from_le_bytes(payload[off + 12..off + 20].try_into().unwrap());
                    entries.push((key, val));
                }
                Ok(Node::Leaf { entries, next })
            }
            1 => {
                if count > INT_CAP {
                    return Err(StorageError::TreeInvariant("internal count over capacity"));
                }
                let leftmost = PageId(u64::from_le_bytes(
                    payload[HDR..HDR + 8].try_into().unwrap(),
                ));
                let mut entries = Vec::with_capacity(count);
                for i in 0..count {
                    let off = INT_HDR + i * INT_ENTRY;
                    let key = CompositeKey::read(&payload[off..off + 12]);
                    let child = PageId(u64::from_le_bytes(
                        payload[off + 12..off + 20].try_into().unwrap(),
                    ));
                    entries.push((key, child));
                }
                Ok(Node::Internal { leftmost, entries })
            }
            _ => Err(StorageError::TreeInvariant("unknown node type byte")),
        }
    }

    /// Writes the node over the whole payload (bytes past its entries
    /// are zero).
    fn encode(&self, payload: &mut [u8]) {
        payload.fill(0);
        match self {
            Node::Leaf { entries, next } => {
                payload[0] = 0;
                payload[2..4].copy_from_slice(&(entries.len() as u16).to_le_bytes());
                let next_raw = next.map_or(NO_NEXT, |p| p.0);
                payload[8..16].copy_from_slice(&next_raw.to_le_bytes());
                for (i, (k, v)) in entries.iter().enumerate() {
                    let off = HDR + i * LEAF_ENTRY;
                    k.write(&mut payload[off..off + 12]);
                    payload[off + 12..off + 20].copy_from_slice(&v.to_le_bytes());
                }
            }
            Node::Internal { leftmost, entries } => {
                payload[0] = 1;
                payload[2..4].copy_from_slice(&(entries.len() as u16).to_le_bytes());
                payload[HDR..HDR + 8].copy_from_slice(&leftmost.0.to_le_bytes());
                for (i, (k, c)) in entries.iter().enumerate() {
                    let off = INT_HDR + i * INT_ENTRY;
                    k.write(&mut payload[off..off + 12]);
                    payload[off + 12..off + 20].copy_from_slice(&c.0.to_le_bytes());
                }
            }
        }
    }
}

/// A disk B+-tree.
///
/// ```
/// use std::sync::Arc;
/// use tale_storage::{BTree, BufferPool, CompositeKey, DiskManager};
///
/// let dir = std::env::temp_dir().join(format!("bt-doc-{}", std::process::id()));
/// std::fs::create_dir_all(&dir).unwrap();
/// let dm = DiskManager::create(&dir.join("t.db")).unwrap();
/// // write the tree once, then read it through a buffer pool
/// let (root, height) = BTree::bulk_load(&dm, &[(CompositeKey::new(1, 4, 2), 99)]).unwrap();
/// let tree = BTree::open(Arc::new(BufferPool::new(Arc::new(dm), 64)), root, height);
/// assert_eq!(tree.get(CompositeKey::new(1, 4, 2)).unwrap(), Some(99));
/// // range scan: every entry for label 1 with degree >= 4
/// let hits = tree
///     .range(CompositeKey::new(1, 4, 0), CompositeKey::new(1, u32::MAX, u32::MAX))
///     .unwrap();
/// assert_eq!(hits.len(), 1);
/// # std::fs::remove_dir_all(&dir).ok();
/// ```
pub struct BTree {
    pool: Arc<BufferPool>,
    root: PageId,
    height: u32,
}

impl BTree {
    /// Opens the tree [`BTree::bulk_load`] wrote with this `root` and
    /// `height`.
    pub fn open(pool: Arc<BufferPool>, root: PageId, height: u32) -> Self {
        BTree { pool, root, height }
    }

    /// Root page id — persist this (with [`BTree::height`]) to reopen.
    pub fn root(&self) -> PageId {
        self.root
    }

    /// Tree height (1 = root is a leaf).
    pub fn height(&self) -> u32 {
        self.height
    }

    fn read_node(&self, id: PageId) -> Result<Node> {
        let guard = self.pool.fetch(id)?;
        Node::decode(guard.page().payload())
    }

    /// Exact lookup.
    pub fn get(&self, key: CompositeKey) -> Result<Option<u64>> {
        let mut id = self.root;
        loop {
            match self.read_node(id)? {
                Node::Internal { leftmost, entries } => {
                    id = Self::child_for(&entries, leftmost, key);
                }
                Node::Leaf { entries, .. } => {
                    return Ok(entries
                        .binary_search_by_key(&key, |&(k, _)| k)
                        .ok()
                        .map(|i| entries[i].1));
                }
            }
        }
    }

    fn child_for(
        entries: &[(CompositeKey, PageId)],
        leftmost: PageId,
        key: CompositeKey,
    ) -> PageId {
        // descend into the last child whose separator <= key
        let idx = entries.partition_point(|&(k, _)| k <= key);
        if idx == 0 {
            leftmost
        } else {
            entries[idx - 1].1
        }
    }

    /// Collects all `(key, value)` pairs with `lo <= key <= hi`, in key
    /// order. Uses leaf sibling pointers, so the scan is sequential.
    pub fn range(&self, lo: CompositeKey, hi: CompositeKey) -> Result<Vec<(CompositeKey, u64)>> {
        let mut out = Vec::new();
        self.range_with(lo, hi, |k, v| {
            out.push((k, v));
            true
        })?;
        Ok(out)
    }

    /// Streaming range scan; `f` returns `false` to stop early.
    pub fn range_with(
        &self,
        lo: CompositeKey,
        hi: CompositeKey,
        mut f: impl FnMut(CompositeKey, u64) -> bool,
    ) -> Result<()> {
        if lo > hi {
            return Ok(());
        }
        // descend to the leaf that may contain lo
        let mut id = self.root;
        loop {
            match self.read_node(id)? {
                Node::Internal { leftmost, entries } => {
                    id = Self::child_for(&entries, leftmost, lo);
                }
                Node::Leaf { entries, next } => {
                    // One-ahead readahead down the leaf chain: queue the
                    // sibling while this leaf's entries are processed (a
                    // no-op without an attached prefetcher).
                    if let Some(nid) = next {
                        self.pool.prefetch(&[nid]);
                    }
                    let start = entries.partition_point(|&(k, _)| k < lo);
                    for &(k, v) in &entries[start..] {
                        if k > hi {
                            return Ok(());
                        }
                        if !f(k, v) {
                            return Ok(());
                        }
                    }
                    let mut cursor = next;
                    while let Some(nid) = cursor {
                        match self.read_node(nid)? {
                            Node::Leaf { entries, next } => {
                                if let Some(nid) = next {
                                    self.pool.prefetch(&[nid]);
                                }
                                for &(k, v) in &entries {
                                    if k > hi {
                                        return Ok(());
                                    }
                                    if !f(k, v) {
                                        return Ok(());
                                    }
                                }
                                cursor = next;
                            }
                            Node::Internal { .. } => {
                                return Err(StorageError::TreeInvariant(
                                    "leaf next pointer reached an internal node",
                                ))
                            }
                        }
                    }
                    return Ok(());
                }
            }
        }
    }

    /// Total entries (walks the leaf chain).
    pub fn len(&self) -> Result<usize> {
        let mut n = 0;
        self.range_with(CompositeKey::MIN, CompositeKey::MAX, |_, _| {
            n += 1;
            true
        })?;
        Ok(n)
    }

    /// True when the tree holds no entries.
    pub fn is_empty(&self) -> Result<bool> {
        let mut any = false;
        self.range_with(CompositeKey::MIN, CompositeKey::MAX, |_, _| {
            any = true;
            false
        })?;
        Ok(!any)
    }

    /// Writes a tree for `pairs`, which must be sorted by key with no
    /// duplicates, to the freshly created `disk` and fsyncs it. Leaves are
    /// packed full (read-optimized) and written first, each pointing at
    /// the next id; then each internal level, bottom-up. No pairs give one
    /// empty leaf. Returns `(root, height)` for [`BTree::open`]. The only
    /// way entries enter a tree: index generations are built once and
    /// never updated in place.
    pub fn bulk_load(disk: &DiskManager, pairs: &[(CompositeKey, u64)]) -> Result<(PageId, u32)> {
        debug_assert!(
            pairs.windows(2).all(|w| w[0].0 < w[1].0),
            "sorted unique input"
        );
        let mut writer = PageWriter::new(disk);
        let mut page = Page::zeroed();
        // level 0: leaves (an empty input still gets its one leaf)
        let leaves: Vec<&[(CompositeKey, u64)]> = if pairs.is_empty() {
            vec![&[]]
        } else {
            pairs.chunks(LEAF_CAP).collect()
        };
        let last = PageId(writer.next_id().0 + leaves.len() as u64 - 1);
        let mut level: Vec<(CompositeKey, PageId)> = Vec::with_capacity(leaves.len());
        for chunk in leaves {
            let id = writer.next_id();
            Node::Leaf {
                entries: chunk.to_vec(),
                next: (id != last).then_some(PageId(id.0 + 1)),
            }
            .encode(page.payload_mut());
            writer.append(&mut page)?;
            level.push((chunk.first().map_or(CompositeKey::MIN, |e| e.0), id));
        }
        // upper levels
        let mut height = 1;
        while level.len() > 1 {
            height += 1;
            let mut next_level = Vec::new();
            for group in level.chunks(INT_CAP + 1) {
                Node::Internal {
                    leftmost: group[0].1,
                    entries: group[1..].to_vec(),
                }
                .encode(page.payload_mut());
                next_level.push((group[0].0, writer.append(&mut page)?));
            }
            level = next_level;
        }
        writer.finish()?;
        Ok((level[0].1, height))
    }

    /// Walks the whole tree checking structural invariants: node types
    /// match their level, per-node capacity and strict key ordering hold,
    /// child subtrees respect their separator bounds, every leaf sits at
    /// `height`, and the leaf chain enumerates exactly the tree's entries
    /// in strictly ascending order. Reads go through the pool, so page
    /// checksums are verified along the way. Returns a summary; any
    /// violation surfaces as an error.
    pub fn verify(&self) -> Result<TreeCheck> {
        let mut check = TreeCheck {
            pages: 0,
            entries: 0,
            height: self.height,
        };
        let mut leftmost_leaf = None;
        self.verify_node(self.root, 1, None, None, &mut check, &mut leftmost_leaf)?;
        // leaf-chain pass: strictly ascending keys, entry count consistent
        // with the recursive walk
        let mut chain_entries: u64 = 0;
        let mut prev: Option<CompositeKey> = None;
        let mut at = leftmost_leaf;
        while let Some(id) = at {
            match self.read_node(id)? {
                Node::Leaf { entries, next } => {
                    for (k, _) in &entries {
                        if let Some(p) = prev {
                            if *k <= p {
                                return Err(StorageError::TreeInvariant(
                                    "leaf chain keys not strictly ascending",
                                ));
                            }
                        }
                        prev = Some(*k);
                    }
                    chain_entries += entries.len() as u64;
                    at = next;
                }
                Node::Internal { .. } => {
                    return Err(StorageError::TreeInvariant(
                        "leaf next pointer reached an internal node",
                    ));
                }
            }
        }
        if chain_entries != check.entries {
            return Err(StorageError::TreeInvariant(
                "leaf chain disagrees with tree walk on entry count",
            ));
        }
        Ok(check)
    }

    fn verify_node(
        &self,
        id: PageId,
        depth: u32,
        lo: Option<CompositeKey>,
        hi: Option<CompositeKey>,
        check: &mut TreeCheck,
        leftmost_leaf: &mut Option<PageId>,
    ) -> Result<()> {
        if depth > self.height {
            return Err(StorageError::TreeInvariant("node below leaf level"));
        }
        check.pages += 1;
        let in_bounds = |k: CompositeKey| !lo.is_some_and(|l| k < l) && !hi.is_some_and(|h| k >= h);
        match self.read_node(id)? {
            Node::Leaf { entries, .. } => {
                if depth != self.height {
                    return Err(StorageError::TreeInvariant("leaf above leaf level"));
                }
                if leftmost_leaf.is_none() {
                    *leftmost_leaf = Some(id);
                }
                for w in entries.windows(2) {
                    if w[0].0 >= w[1].0 {
                        return Err(StorageError::TreeInvariant("leaf keys not ascending"));
                    }
                }
                if entries.iter().any(|(k, _)| !in_bounds(*k)) {
                    return Err(StorageError::TreeInvariant(
                        "leaf key outside parent bounds",
                    ));
                }
                check.entries += entries.len() as u64;
            }
            Node::Internal { leftmost, entries } => {
                if depth == self.height {
                    return Err(StorageError::TreeInvariant("internal node at leaf level"));
                }
                if entries.is_empty() {
                    return Err(StorageError::TreeInvariant(
                        "internal node with no separator",
                    ));
                }
                for w in entries.windows(2) {
                    if w[0].0 >= w[1].0 {
                        return Err(StorageError::TreeInvariant("separators not ascending"));
                    }
                }
                if entries.iter().any(|(k, _)| !in_bounds(*k)) {
                    return Err(StorageError::TreeInvariant(
                        "separator outside parent bounds",
                    ));
                }
                self.verify_node(
                    leftmost,
                    depth + 1,
                    lo,
                    Some(entries[0].0),
                    check,
                    leftmost_leaf,
                )?;
                for (i, (k, child)) in entries.iter().enumerate() {
                    let child_hi = entries.get(i + 1).map(|(nk, _)| *nk).or(hi);
                    self.verify_node(*child, depth + 1, Some(*k), child_hi, check, leftmost_leaf)?;
                }
            }
        }
        Ok(())
    }
}

/// Summary returned by [`BTree::verify`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeCheck {
    /// Pages visited in the recursive walk (the whole tree).
    pub pages: u64,
    /// Entries counted in the recursive walk (== leaf-chain count).
    pub entries: u64,
    /// Tree height as recorded by the handle.
    pub height: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bulk-loads `pairs` into a fresh file and opens the tree behind a
    /// `frames`-frame pool.
    fn load(frames: usize, pairs: &[(CompositeKey, u64)]) -> (tempfile::TempDir, BTree) {
        let d = tempfile::tempdir().unwrap();
        let dm = DiskManager::create(&d.path().join("bt.db")).unwrap();
        let (root, height) = BTree::bulk_load(&dm, pairs).unwrap();
        let pool = Arc::new(BufferPool::new(Arc::new(dm), frames));
        (d, BTree::open(pool, root, height))
    }

    fn key(i: u32) -> CompositeKey {
        CompositeKey::new(i / 100, (i / 10) % 10, i % 10)
    }

    fn pairs(n: u32) -> Vec<(CompositeKey, u64)> {
        (0..n).map(|i| (key(i), i as u64)).collect()
    }

    #[test]
    fn verify_accepts_built_trees_and_counts_entries() {
        let sorted = pairs(5000);
        let (_d, t) = load(64, &sorted);
        let c = t.verify().unwrap();
        assert_eq!(c.entries as usize, sorted.len());
        assert!(c.pages > 1);
        assert_eq!(c.height, t.height());
    }

    #[test]
    fn verify_rejects_wrong_height() {
        let sorted: Vec<(CompositeKey, u64)> = (0..5000u32)
            .map(|i| (CompositeKey::new(i, 0, 0), i as u64))
            .collect();
        let (_d, t) = load(64, &sorted);
        assert!(t.height() > 1);
        // a handle opened with a bogus height must not silently verify
        let t_bad = BTree::open(Arc::clone(&t.pool), t.root(), t.height() - 1);
        assert!(t_bad.verify().is_err());
    }

    #[test]
    fn empty_tree_behaves() {
        let (_d, t) = load(16, &[]);
        assert!(t.is_empty().unwrap());
        assert_eq!(t.get(key(5)).unwrap(), None);
        assert!(t
            .range(CompositeKey::MIN, CompositeKey::MAX)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn range_scan_bounds() {
        let mut entries = Vec::new();
        for label in 0..5u32 {
            for deg in 0..20u32 {
                entries.push((
                    CompositeKey::new(label, deg, deg / 2),
                    (label * 100 + deg) as u64,
                ));
            }
        }
        let (_d, t) = load(32, &entries);
        // all entries for label 2 with degree >= 15
        let lo = CompositeKey::new(2, 15, 0);
        let hi = CompositeKey::new(2, u32::MAX, u32::MAX);
        let got = t.range(lo, hi).unwrap();
        assert_eq!(got.len(), 5);
        assert!(got.iter().all(|(k, _)| k.label == 2 && k.degree >= 15));
        // inverted bounds: empty
        assert!(t.range(hi, lo).unwrap().is_empty());
    }

    #[test]
    fn range_with_early_stop() {
        let (_d, t) = load(32, &pairs(1000));
        let mut seen = 0;
        t.range_with(CompositeKey::MIN, CompositeKey::MAX, |_, _| {
            seen += 1;
            seen < 10
        })
        .unwrap();
        assert_eq!(seen, 10);
    }

    #[test]
    fn bulk_load_get_and_range() {
        let (_d, t) = load(64, &pairs(3000));
        assert!(t.height() > 1, "3000 entries span several leaves");
        assert_eq!(t.len().unwrap(), 3000);
        for i in (0..3000u32).step_by(61) {
            assert_eq!(t.get(key(i)).unwrap(), Some(i as u64));
        }
        assert_eq!(t.get(key(3000)).unwrap(), None);
        let got = t.range(key(500), key(520)).unwrap();
        assert_eq!(got.len(), 21);
        let all = t.range(CompositeKey::MIN, CompositeKey::MAX).unwrap();
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn bulk_load_empty_and_single() {
        let (_d, t) = load(8, &[]);
        assert!(t.is_empty().unwrap());
        assert_eq!((t.root(), t.height()), (PageId(0), 1), "one empty leaf");
        let (_d, t) = load(8, &[(key(3), 9)]);
        assert_eq!(t.get(key(3)).unwrap(), Some(9));
        assert_eq!(t.height(), 1);
    }

    #[test]
    fn reopen_via_root_pointer() {
        let d = tempfile::tempdir().unwrap();
        let path = d.path().join("bt.db");
        let (root, height) =
            BTree::bulk_load(&DiskManager::create(&path).unwrap(), &pairs(2000)).unwrap();
        let dm = Arc::new(DiskManager::open(&path).unwrap());
        let pool = Arc::new(BufferPool::new(dm, 32));
        let t = BTree::open(pool, root, height);
        assert_eq!(t.get(key(1234)).unwrap(), Some(1234));
        assert_eq!(t.len().unwrap(), 2000);
    }

    #[test]
    fn works_with_tiny_buffer_pool() {
        // 4 frames force constant eviction while descending and scanning.
        let (_d, t) = load(4, &pairs(2000));
        for i in (0..2000u32).step_by(97) {
            assert_eq!(t.get(key(i)).unwrap(), Some(i as u64));
        }
    }
}
