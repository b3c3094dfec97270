//! Word-aligned hybrid (WAH) bitmap compression.
//!
//! The NH-Index's second level is a bitmap index (§IV-C); production
//! bitmap indexes compress their bit columns with run-length schemes, of
//! which WAH (Wu, Otoo & Shoshani) is the classic word-aligned variant.
//! This is the 64-bit flavor: logical bits are grouped into 63-bit
//! chunks; each output word is either
//!
//! * a **literal** (MSB = 0): the next 63 bits verbatim, or
//! * a **fill** (MSB = 1): bit 62 is the fill bit, bits 0..62 count how
//!   many consecutive 63-bit groups are all-zero / all-one.
//!
//! Sparse neighbor-array columns (most labels appear in few
//! neighborhoods) compress to a handful of words. The posting layer uses
//! WAH per column when it wins over the raw layout.

/// Payload bits per WAH word.
pub const GROUP: usize = 63;
const FILL_FLAG: u64 = 1 << 63;
const FILL_BIT: u64 = 1 << 62;
const COUNT_MASK: u64 = (1 << 62) - 1;
const LITERAL_MASK: u64 = !FILL_FLAG;

/// Reads logical bit `i` from a plain bit vector stored as u64 words.
#[inline]
fn get_bit(words: &[u64], i: usize) -> bool {
    words[i / 64] >> (i % 64) & 1 == 1
}

/// Compresses `nbits` logical bits (LSB-first in `words`) into WAH form.
///
/// ```
/// use tale_storage::wah::{compress, decompress};
/// let sparse = vec![0u64; 100]; // 6400 zero bits
/// let wah = compress(&sparse, 6400);
/// assert_eq!(wah.len(), 1); // a single zero-fill word
/// assert_eq!(decompress(&wah, 6400), sparse);
/// ```
pub fn compress(words: &[u64], nbits: usize) -> Vec<u64> {
    let mut out: Vec<u64> = Vec::new();
    let groups = nbits.div_ceil(GROUP);
    for g in 0..groups {
        // gather the next 63 bits into a literal payload
        let mut lit = 0u64;
        let base = g * GROUP;
        let end = (base + GROUP).min(nbits);
        for (j, i) in (base..end).enumerate() {
            if get_bit(words, i) {
                lit |= 1 << j;
            }
        }
        let is_zero = lit == 0;
        // a trailing partial group is all-one only w.r.t. its real bits
        let full = end - base == GROUP;
        let is_one = full && lit == LITERAL_MASK;
        if is_zero || is_one {
            let fill_bit = if is_one { FILL_BIT } else { 0 };
            // extend the previous fill of the same polarity
            if let Some(last) = out.last_mut() {
                if *last & FILL_FLAG != 0
                    && (*last & FILL_BIT) == fill_bit
                    && (*last & COUNT_MASK) < COUNT_MASK
                {
                    *last += 1;
                    continue;
                }
            }
            out.push(FILL_FLAG | fill_bit | 1);
        } else {
            out.push(lit);
        }
    }
    out
}

/// Decompresses WAH words back into a plain bit vector of `nbits` bits.
pub fn decompress(wah: &[u64], nbits: usize) -> Vec<u64> {
    let mut out = vec![0u64; nbits.div_ceil(64)];
    let mut pos = 0usize; // logical bit cursor
    for &w in wah {
        if w & FILL_FLAG != 0 {
            let count = (w & COUNT_MASK) as usize;
            let ones = w & FILL_BIT != 0;
            if ones {
                for i in pos..(pos + count * GROUP).min(nbits) {
                    out[i / 64] |= 1 << (i % 64);
                }
            }
            pos += count * GROUP;
        } else {
            let lit = w & LITERAL_MASK;
            for j in 0..GROUP {
                if lit >> j & 1 == 1 {
                    let i = pos + j;
                    if i < nbits {
                        out[i / 64] |= 1 << (i % 64);
                    }
                }
            }
            pos += GROUP;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn roundtrip(bits: &[u64], nbits: usize) {
        let wah = compress(bits, nbits);
        let back = decompress(&wah, nbits);
        // compare only the meaningful bits
        for i in 0..nbits {
            assert_eq!(
                get_bit(bits, i),
                get_bit(&back, i),
                "bit {i} of {nbits} differs"
            );
        }
    }

    #[test]
    fn empty_and_tiny() {
        roundtrip(&[], 0);
        roundtrip(&[0b1], 1);
        roundtrip(&[0b101], 3);
    }

    #[test]
    fn all_zero_compresses_to_one_fill() {
        let bits = vec![0u64; 64]; // 4096 bits
        let wah = compress(&bits, 4096);
        assert_eq!(wah.len(), 1, "{wah:?}");
        assert!(wah[0] & FILL_FLAG != 0);
        roundtrip(&bits, 4096);
    }

    #[test]
    fn all_one_compresses_to_fill_plus_tail() {
        let bits = vec![u64::MAX; 64];
        let nbits = 4096;
        let wah = compress(&bits, nbits);
        // 4096 = 65 full groups of 63 + 1 trailing bit → 1 one-fill + 1 literal
        assert!(wah.len() <= 2, "{}", wah.len());
        roundtrip(&bits, nbits);
    }

    #[test]
    fn sparse_bitmap_small() {
        let mut bits = vec![0u64; 1024]; // 65536 bits
        for i in [5usize, 9000, 30000, 65000] {
            bits[i / 64] |= 1 << (i % 64);
        }
        let wah = compress(&bits, 65536);
        assert!(wah.len() <= 9, "sparse should compress well: {}", wah.len());
        roundtrip(&bits, 65536);
    }

    #[test]
    fn random_roundtrips() {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        for _ in 0..40 {
            let nbits: usize = rng.gen_range(1..3000);
            let words = nbits.div_ceil(64);
            let density = rng.gen_range(0.0..1.0f64);
            let mut bits = vec![0u64; words];
            for i in 0..nbits {
                if rng.gen_bool(density) {
                    bits[i / 64] |= 1 << (i % 64);
                }
            }
            roundtrip(&bits, nbits);
        }
    }

    #[test]
    fn partial_trailing_group_never_one_fill() {
        // 70 bits, all set: one full group (one-fill) + 7-bit literal tail
        let bits = vec![u64::MAX, u64::MAX];
        let wah = compress(&bits, 70);
        roundtrip(&bits, 70);
        // tail must be a literal so decompression can't overrun
        assert!(wah.last().unwrap() & FILL_FLAG == 0);
    }

    #[test]
    fn dense_random_does_not_explode() {
        let mut rng = ChaCha8Rng::seed_from_u64(18);
        let nbits: usize = 63 * 100;
        let mut bits = vec![0u64; nbits.div_ceil(64)];
        for i in 0..nbits {
            if rng.gen_bool(0.5) {
                bits[i / 64] |= 1 << (i % 64);
            }
        }
        let wah = compress(&bits, nbits);
        assert!(wah.len() <= 100, "incompressible data ≤ 1 word per group");
    }
}
