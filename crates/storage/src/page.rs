//! Fixed-size pages with integrity checksums.
//!
//! Every on-disk structure in this crate is built from [`PAGE_SIZE`] pages.
//! The first [`HEADER_LEN`] bytes of each page hold a checksum over the
//! page's id and payload so torn or corrupted writes are detected on read
//! (the disk manager verifies on every read, [`Page::verify_for`]).
//! Keying the checksum by page id additionally catches *misdirected*
//! writes — a perfectly intact page persisted at the wrong offset fails
//! verification too. The payload area is free-form; higher layers
//! (B+-tree nodes, blob segments) impose their own layout on it.

/// Page size in bytes. 8 KiB matches PostgreSQL's default page size — the
/// DBMS the paper hosted the NH-Index in.
pub const PAGE_SIZE: usize = 8192;

/// Bytes reserved at the start of every page for the checksum.
pub const HEADER_LEN: usize = 8;

/// Usable payload bytes per page.
pub const PAYLOAD_LEN: usize = PAGE_SIZE - HEADER_LEN;

/// Identifier of a page within one storage file (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u64);

impl PageId {
    /// Byte offset of this page in the file.
    #[inline]
    pub fn offset(self) -> u64 {
        self.0 * PAGE_SIZE as u64
    }
}

/// An in-memory page image.
pub struct Page {
    buf: Box<[u8; PAGE_SIZE]>,
}

impl Page {
    /// A zeroed page. The checksum is stamped by [`Page::seal_for`] when
    /// the page is written to its disk slot.
    pub fn zeroed() -> Self {
        Page {
            buf: vec![0u8; PAGE_SIZE].into_boxed_slice().try_into().unwrap(),
        }
    }

    /// Payload bytes (read).
    #[inline]
    pub fn payload(&self) -> &[u8] {
        &self.buf[HEADER_LEN..]
    }

    /// Payload bytes (write). Call [`Page::seal_for`] before flushing to disk.
    #[inline]
    pub fn payload_mut(&mut self) -> &mut [u8] {
        &mut self.buf[HEADER_LEN..]
    }

    /// Full raw page image.
    #[inline]
    pub fn raw(&self) -> &[u8; PAGE_SIZE] {
        &self.buf
    }

    /// Builds a page from a raw disk image without verifying.
    pub fn from_raw(raw: Box<[u8; PAGE_SIZE]>) -> Self {
        Page { buf: raw }
    }

    /// Recomputes and stores the checksum for this page living at slot
    /// `id`. Must be called immediately before the page image goes to
    /// disk.
    pub fn seal_for(&mut self, id: PageId) {
        let sum = checksum(id.0, &self.buf[HEADER_LEN..]);
        self.buf[..HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
    }

    /// True when the stored checksum matches the payload *and* slot `id` —
    /// a valid page read from the wrong offset fails too.
    pub fn verify_for(&self, id: PageId) -> bool {
        let stored = u64::from_le_bytes(self.buf[..HEADER_LEN].try_into().unwrap());
        stored == checksum(id.0, &self.buf[HEADER_LEN..])
    }
}

/// FNV-1a 64-bit over the page id followed by the payload. Fast, good
/// enough for torn-write detection (we are not defending against
/// adversarial corruption; wire frames use [`crc32`]).
pub fn checksum(page_id: u64, data: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x100000001b3;
    let mut h = OFFSET;
    h ^= page_id;
    h = h.wrapping_mul(PRIME);
    // process 8 bytes at a time for speed; FNV quality is unaffected for
    // our integrity-check purpose.
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        h ^= u64::from_le_bytes(c.try_into().unwrap());
        h = h.wrapping_mul(PRIME);
    }
    for &b in chunks.remainder() {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// CRC-32 (IEEE 802.3 polynomial, reflected), table-driven — the frame
/// checksum of the `tale-server` wire protocol.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in data {
        c = (c >> 8) ^ CRC_TABLE[((c ^ b as u32) & 0xFF) as usize];
    }
    !c
}

const CRC_TABLE: [u32; 256] = make_crc_table();

const fn make_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sealed_zeroed_page_verifies() {
        let mut p = Page::zeroed();
        p.seal_for(PageId(0));
        assert!(p.verify_for(PageId(0)));
    }

    #[test]
    fn seal_then_verify() {
        let mut p = Page::zeroed();
        p.payload_mut()[0] = 0xAB;
        p.payload_mut()[PAYLOAD_LEN - 1] = 0xCD;
        assert!(!p.verify_for(PageId(7))); // dirty, not yet sealed
        p.seal_for(PageId(7));
        assert!(p.verify_for(PageId(7)));
    }

    #[test]
    fn corruption_detected() {
        let mut p = Page::zeroed();
        p.payload_mut()[100] = 1;
        p.seal_for(PageId(0));
        let mut raw = *p.raw();
        raw[HEADER_LEN + 100] = 2; // flip payload byte after sealing
        let p2 = Page::from_raw(Box::new(raw));
        assert!(!p2.verify_for(PageId(0)));
    }

    #[test]
    fn misdirected_write_detected() {
        // a perfectly intact page fails verification at any other slot
        let mut p = Page::zeroed();
        p.payload_mut()[0] = 5;
        p.seal_for(PageId(3));
        assert!(p.verify_for(PageId(3)));
        assert!(!p.verify_for(PageId(4)));
    }

    #[test]
    fn checksum_differs_on_single_bit() {
        let a = vec![0u8; 64];
        let mut b = a.clone();
        b[63] = 1;
        assert_ne!(checksum(0, &a), checksum(0, &b));
        assert_ne!(checksum(0, &a), checksum(1, &a));
    }

    #[test]
    fn crc32_known_vector() {
        // the standard CRC-32 check value
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn page_id_offset() {
        assert_eq!(PageId(0).offset(), 0);
        assert_eq!(PageId(3).offset(), 3 * 8192);
    }
}
