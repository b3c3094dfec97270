//! Sequential page writer: how every page file is built.
//!
//! Index page files are written once, front to back, and then only read:
//! a B+-tree is bulk-loaded and a blob file appended in one pass, and a
//! changed index is a new generation in new files. [`PageWriter`] appends
//! each page to a [`DiskManager`] file with one `allocate` + `write_page`,
//! and [`PageWriter::finish`] fsyncs the file. Every page write and the
//! sync pass the `disk.write_page` / `disk.sync` fault gates, so crash
//! sweeps see each of them. Readers open the finished file through a
//! [`crate::BufferPool`].

use crate::disk::DiskManager;
use crate::page::{Page, PageId};
use crate::Result;

/// Appends pages to one file, in id order.
pub struct PageWriter<'a> {
    disk: &'a DiskManager,
}

impl<'a> PageWriter<'a> {
    /// A writer appending to `disk` (on a freshly created file the first
    /// page lands at id 0).
    pub fn new(disk: &'a DiskManager) -> Self {
        PageWriter { disk }
    }

    /// The id the next [`PageWriter::append`] writes.
    pub fn next_id(&self) -> PageId {
        PageId(self.disk.page_count())
    }

    /// Seals `page` for the next id, writes it and returns that id.
    pub fn append(&mut self, page: &mut Page) -> Result<PageId> {
        let id = self.disk.allocate();
        self.disk.write_page(id, page)?;
        Ok(id)
    }

    /// Fsyncs the file: every appended page is durable once this returns.
    pub fn finish(self) -> Result<()> {
        self.disk.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn appends_in_id_order_and_reads_back() {
        let d = tempfile::tempdir().unwrap();
        let path = d.path().join("w.db");
        let dm = DiskManager::create(&path).unwrap();
        let mut w = PageWriter::new(&dm);
        let mut page = Page::zeroed();
        for i in 0..5u8 {
            assert_eq!(w.next_id(), PageId(i as u64));
            page.payload_mut()[0] = i;
            assert_eq!(w.append(&mut page).unwrap(), PageId(i as u64));
        }
        w.finish().unwrap();
        assert_eq!(dm.io_counts(), (0, 5), "each page written once");
        drop(dm);
        let dm = DiskManager::open(&path).unwrap();
        assert_eq!(dm.page_count(), 5);
        for i in 0..5u8 {
            assert_eq!(dm.read_page(PageId(i as u64)).unwrap().payload()[0], i);
        }
    }
}
