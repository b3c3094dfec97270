//! Algorithm 1: the bit-sliced bitmap probe (§IV-D).
//!
//! Given a query neighbor array and a bitmap of `n` database neighbor
//! arrays, find every database row whose miss count
//! `Σ_j Miss(db[j], q[j])` is at most `nbmiss` (condition IV.3).
//!
//! **Step 1** counts misses for all rows simultaneously: for each query bit
//! position `j` that is set, the negated bit-column `NOT B_j` is added into
//! `countSize+1` bit-sliced counters (`Count[0..countSize]` hold the binary
//! digits of every row's counter; `Count[countSize]` is a sticky overflow
//! bit). This is the textbook bit-sliced arithmetic the paper spells out in
//! lines 1–17.
//!
//! **Step 2** compares every counter against `nbmiss` by scanning the bits
//! of `nbmiss` from most to least significant, maintaining `Result_lt` /
//! `Result_eq` vectors (lines 18–30).
//!
//! The paper's complexity: `O(Sbit × log(ρ·d))` bitwise vector operations.
//! [`probe_naive`] is the baseline §IV-D simulates against (a per-row,
//! per-bit scan), reported there as 2×–12× slower; `experiments alg1`
//! regenerates that comparison.
//!
//! Both steps are plain bitwise arithmetic over `ceil(n/64)`-word
//! columns, one 64-row word at a time, in portable safe Rust.
//!
//! ## Width contract
//!
//! Every probe takes the query as `ceil(sbit/64)` words with no bits set
//! at or above `sbit`. The contract is asserted **unconditionally** (not
//! `debug_assert!`): a wider query word would silently drop the extra
//! words (under-counting misses — the base/delta sbit-skew hazard after
//! vocabulary growth), and stray high bits would probe columns that do
//! not exist. Release builds must fail loudly, for the same reason
//! [`ColumnBitmap::from_words`] checks unconditionally. Callers that can
//! see width skew (the index probe boundary) validate first and surface a
//! typed error instead of this panic.

/// A column-major bit matrix: `sbit` columns over `n` rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnBitmap {
    n: usize,
    sbit: u32,
    /// words per column
    wpc: usize,
    /// column `j` occupies `words[j*wpc .. (j+1)*wpc]`
    words: Vec<u64>,
}

impl ColumnBitmap {
    /// An all-zero bitmap for `n` rows × `sbit` columns.
    pub fn new(n: usize, sbit: u32) -> Self {
        let wpc = n.div_ceil(64);
        ColumnBitmap {
            n,
            sbit,
            wpc,
            words: vec![0; sbit as usize * wpc],
        }
    }

    /// Rebuilds from raw words (column-major, `sbit × ceil(n/64)`).
    ///
    /// # Panics
    ///
    /// Panics when `words.len() != sbit * ceil(n/64)`. The check is
    /// unconditional: a wrong-length word vector would otherwise slice out
    /// of bounds (or silently mis-read columns) only later, deep inside
    /// [`probe_bitsliced`], in release builds where a `debug_assert!`
    /// compiles away.
    pub fn from_words(n: usize, sbit: u32, words: Vec<u64>) -> Self {
        let wpc = n.div_ceil(64);
        assert_eq!(
            words.len(),
            sbit as usize * wpc,
            "ColumnBitmap::from_words: {} words for {} columns × {} words/column",
            words.len(),
            sbit,
            wpc,
        );
        ColumnBitmap {
            n,
            sbit,
            wpc,
            words,
        }
    }

    /// Number of rows (database nodes).
    #[inline]
    pub fn rows(&self) -> usize {
        self.n
    }

    /// Array width in bits.
    #[inline]
    pub fn sbit(&self) -> u32 {
        self.sbit
    }

    /// Raw column-major words.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Column `j` as a word slice.
    #[inline]
    pub fn column(&self, j: u32) -> &[u64] {
        let j = j as usize;
        &self.words[j * self.wpc..(j + 1) * self.wpc]
    }

    /// Sets bit `(row, col)`.
    pub fn set(&mut self, row: usize, col: u32) {
        let w = col as usize * self.wpc + row / 64;
        self.words[w] |= 1u64 << (row % 64);
    }

    /// Reads bit `(row, col)`.
    pub fn get(&self, row: usize, col: u32) -> bool {
        let w = col as usize * self.wpc + row / 64;
        self.words[w] >> (row % 64) & 1 == 1
    }

    /// Extracts row `r` as a neighbor array (`ceil(sbit/64)` words).
    pub fn row(&self, r: usize) -> Vec<u64> {
        let mut out = vec![0u64; (self.sbit as usize).div_ceil(64)];
        for j in 0..self.sbit {
            if self.get(r, j) {
                out[(j / 64) as usize] |= 1u64 << (j % 64);
            }
        }
        out
    }

    /// Folds every column's occupancy into one 64-bit summary: bit
    /// `j % 64` is set iff column `j` has any set row. Because the layout
    /// maps array bit `j` to bit `j % 64` of word `j / 64`, this is just
    /// the OR of all row words — the label-pair pre-filter
    /// ([`crate::filter`]) builds its per-key summaries from this.
    pub fn fold_columns(&self) -> u64 {
        let mut folded = 0u64;
        for j in 0..self.sbit {
            if self.column(j).iter().any(|&w| w != 0) {
                folded |= 1u64 << (j % 64);
            }
        }
        folded
    }
}

/// Result of a probe: the qualifying rows and their exact miss counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeHits {
    /// Row indices with `misses ≤ nbmiss`, ascending.
    pub rows: Vec<u32>,
    /// `misses[i]` is the miss count of `rows[i]`.
    pub misses: Vec<u32>,
}

impl ProbeHits {
    fn empty() -> Self {
        ProbeHits {
            rows: Vec::new(),
            misses: Vec::new(),
        }
    }
}

/// The Algorithm-1 kernel, named in benchmark output. There is one:
/// the portable scalar kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeKernel {
    /// Portable word-parallel Rust.
    Scalar,
}

impl ProbeKernel {
    /// Kernel name as reported in benchmark output.
    pub fn name(self) -> &'static str {
        match self {
            ProbeKernel::Scalar => "scalar",
        }
    }
}

/// The kernel [`probe_bitsliced`] runs: always [`ProbeKernel::Scalar`].
/// Kept only because the performance ledger records its name.
pub fn active_kernel() -> ProbeKernel {
    ProbeKernel::Scalar
}

/// `countSize` (line 3): `⌊log2(nbmiss)⌋ + 1` counter digits; `nbmiss = 0`
/// still needs one digit to detect any miss.
fn count_size_for(nbmiss: u32) -> usize {
    if nbmiss == 0 {
        1
    } else {
        (32 - nbmiss.leading_zeros()) as usize
    }
}

/// The unconditional probe width contract (see the module docs): `query`
/// must span exactly `ceil(sbit/64)` words with no bits at or above
/// `sbit`.
fn assert_query_width(who: &str, sbit: u32, query: &[u64]) {
    let words = (sbit as usize).div_ceil(64);
    assert_eq!(
        query.len(),
        words,
        "{who}: query has {} words but sbit {sbit} needs {words} — \
         signature built under a different array width?",
        query.len(),
    );
    if sbit % 64 != 0 {
        let stray = query[words - 1] & !((1u64 << (sbit % 64)) - 1);
        assert_eq!(
            stray, 0,
            "{who}: query sets bits at or above sbit {sbit} (stray mask {stray:#x}) — \
             those columns do not exist and their misses would be dropped",
        );
    }
}

/// Walks `Result_lt | Result_eq`, masking rows past `n`, and reconstructs
/// each qualifying row's exact miss count from the counter slices
/// (`count[k][w]` is digit-slice `k`, word `w`).
fn collect_hits(
    n: usize,
    wpc: usize,
    result_lt: &[u64],
    result_eq: &[u64],
    count: &[Vec<u64>],
) -> ProbeHits {
    let mut rows = Vec::new();
    let mut misses = Vec::new();
    for w in 0..wpc {
        let mut word = result_lt[w] | result_eq[w];
        // mask rows beyond n in the last word
        if w == wpc - 1 && n % 64 != 0 {
            word &= (1u64 << (n % 64)) - 1;
        }
        while word != 0 {
            let bit = word.trailing_zeros() as usize;
            let row = w * 64 + bit;
            word &= word - 1;
            let mut m = 0u32;
            for (k, slice) in count.iter().enumerate() {
                if slice[w] >> bit & 1 == 1 {
                    m |= 1 << k;
                }
            }
            rows.push(row as u32);
            misses.push(m);
        }
    }
    ProbeHits { rows, misses }
}

/// Algorithm 1. Returns the rows of `bitmap` whose neighbor arrays miss at
/// most `nbmiss` of the set bits in `query` (given as `ceil(sbit/64)`
/// words), along with each row's exact miss count (needed by the quality
/// function, Eq. IV.5).
///
/// # Panics
///
/// Panics when `query` violates the width contract (see the module docs).
pub fn probe_bitsliced(bitmap: &ColumnBitmap, query: &[u64], nbmiss: u32) -> ProbeHits {
    assert_query_width("probe_bitsliced", bitmap.sbit(), query);
    if bitmap.rows() == 0 {
        return ProbeHits::empty();
    }
    let n = bitmap.rows();
    let wpc = bitmap.wpc;
    let count_size = count_size_for(nbmiss);
    // Count[0..=count_size]: bit-sliced counters (line 4–6).
    let mut count: Vec<Vec<u64>> = vec![vec![0u64; wpc]; count_size + 1];
    let mut carries = vec![0u64; wpc];
    let mut temp = vec![0u64; wpc];

    // Step 1 (lines 7–17): for each set query bit, add NOT B_j.
    let sbit = bitmap.sbit();
    for j in 0..sbit {
        if query[(j / 64) as usize] >> (j % 64) & 1 == 0 {
            continue;
        }
        let col = bitmap.column(j);
        for w in 0..wpc {
            carries[w] = !col[w];
        }
        for slice in count.iter_mut().take(count_size) {
            for w in 0..wpc {
                temp[w] = slice[w] & carries[w];
                slice[w] ^= carries[w];
                carries[w] = temp[w];
            }
        }
        for w in 0..wpc {
            count[count_size][w] |= carries[w];
        }
    }

    // Step 2 (lines 18–30): keep rows with counter ≤ nbmiss.
    let mut result_lt = vec![0u64; wpc];
    let mut result_eq = vec![u64::MAX; wpc];
    for k in (0..=count_size).rev() {
        if (nbmiss as u64) >> k & 1 == 1 {
            for w in 0..wpc {
                result_lt[w] |= result_eq[w] & !count[k][w];
                result_eq[w] &= count[k][w];
            }
        } else {
            for w in 0..wpc {
                result_eq[w] &= !count[k][w];
            }
        }
    }

    collect_hits(n, wpc, &result_lt, &result_eq, &count)
}

/// The naive probe §IV-D compares against: visit every row, walk the query
/// bits one by one, count misses, keep the row if within threshold. Per-bit
/// (not word-parallel) on purpose — it models scanning each stored neighbor
/// array and evaluating condition IV.3 directly.
///
/// # Panics
///
/// Panics when `query` violates the width contract (see the module docs).
pub fn probe_naive(bitmap: &ColumnBitmap, query: &[u64], nbmiss: u32) -> ProbeHits {
    assert_query_width("probe_naive", bitmap.sbit(), query);
    let mut rows = Vec::new();
    let mut misses = Vec::new();
    let sbit = bitmap.sbit();
    'rows: for r in 0..bitmap.rows() {
        let mut m = 0u32;
        for j in 0..sbit {
            let qbit = query[(j / 64) as usize] >> (j % 64) & 1 == 1;
            if qbit && !bitmap.get(r, j) {
                m += 1;
                if m > nbmiss {
                    continue 'rows;
                }
            }
        }
        rows.push(r as u32);
        misses.push(m);
    }
    ProbeHits { rows, misses }
}

/// Word-parallel row scan: an intermediate design point (popcount per row)
/// used as an extra ablation in the benches. Requires row-major access, so
/// it pays the row-extraction cost when data is stored column-major.
///
/// # Panics
///
/// Panics when any row's word length differs from the query's. The check
/// is unconditional for the same reason as [`ColumnBitmap::from_words`]:
/// `zip` would silently truncate the longer side and under-count misses —
/// exactly the release-mode failure class the width contract exists to
/// catch.
pub fn probe_rowscan(rows_major: &[Vec<u64>], query: &[u64], nbmiss: u32) -> ProbeHits {
    let mut rows = Vec::new();
    let mut misses = Vec::new();
    for (r, row) in rows_major.iter().enumerate() {
        assert_eq!(
            row.len(),
            query.len(),
            "probe_rowscan: row {r} has {} words but the query has {} — \
             zipping would silently truncate and under-count misses",
            row.len(),
            query.len(),
        );
        let m: u32 = query
            .iter()
            .zip(row.iter())
            .map(|(q, d)| (q & !d).count_ones())
            .sum();
        if m <= nbmiss {
            rows.push(r as u32);
            misses.push(m);
        }
    }
    ProbeHits { rows, misses }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn bitmap_from_rows(rows: &[Vec<u64>], sbit: u32) -> ColumnBitmap {
        let mut bm = ColumnBitmap::new(rows.len(), sbit);
        for (i, row) in rows.iter().enumerate() {
            for j in 0..sbit {
                if row[(j / 64) as usize] >> (j % 64) & 1 == 1 {
                    bm.set(i, j);
                }
            }
        }
        bm
    }

    #[test]
    fn paper_figure3_example() {
        // Fig. 3: query array 11011 (bits 0,1,3,4 set), nbmiss = 1,
        // 4 db rows; expected result 1001 → rows {0, 3}.
        let sbit = 5;
        let rows = vec![
            vec![0b11010u64], // n0: misses bit 0 → 1 miss
            vec![0b01110u64], // n1: misses bits 0? bit0=0 miss, bit4=0 miss → 2
            vec![0b00011u64], // n2: bits 3,4 missing → wait recompute below
            vec![0b11111u64], // n3: 0 misses
        ];
        // Recompute by hand: query bits {0,1,3,4}.
        // n0 = 11010: has bits {1,3,4}; missing {0} → 1 ✓
        // n1 = 01110: has {1,2,3}; missing {0,4} → 2 ✗
        // n2 = 00011: has {0,1}; missing {3,4} → 2 ✗
        // n3 = 11111: all → 0 ✓
        let bm = bitmap_from_rows(&rows, sbit);
        let q = vec![0b11011u64];
        let hits = probe_bitsliced(&bm, &q, 1);
        assert_eq!(hits.rows, vec![0, 3]);
        assert_eq!(hits.misses, vec![1, 0]);
    }

    #[test]
    fn zero_nbmiss_requires_superset() {
        let rows = vec![vec![0b111u64], vec![0b101u64]];
        let bm = bitmap_from_rows(&rows, 3);
        let q = vec![0b101u64];
        let hits = probe_bitsliced(&bm, &q, 0);
        assert_eq!(hits.rows, vec![0, 1]);
        let q2 = vec![0b111u64];
        let hits2 = probe_bitsliced(&bm, &q2, 0);
        assert_eq!(hits2.rows, vec![0]);
    }

    #[test]
    fn empty_bitmap() {
        let bm = ColumnBitmap::new(0, 32);
        let hits = probe_bitsliced(&bm, &[0xFFFF_FFFF], 5);
        assert!(hits.rows.is_empty());
    }

    #[test]
    fn empty_query_matches_everything() {
        let rows = vec![vec![0u64]; 10];
        let bm = bitmap_from_rows(&rows, 32);
        let hits = probe_bitsliced(&bm, &[0u64], 0);
        assert_eq!(hits.rows.len(), 10);
        assert!(hits.misses.iter().all(|&m| m == 0));
    }

    #[test]
    fn rows_beyond_word_boundary() {
        // 100 rows: only every 7th row has the query bit set.
        let sbit = 8;
        let rows: Vec<Vec<u64>> = (0..100)
            .map(|i| vec![if i % 7 == 0 { 0b1u64 } else { 0 }])
            .collect();
        let bm = bitmap_from_rows(&rows, sbit);
        let hits = probe_bitsliced(&bm, &[0b1u64], 0);
        let expect: Vec<u32> = (0..100).filter(|i| i % 7 == 0).collect();
        assert_eq!(hits.rows, expect);
    }

    /// One random corpus drives every probe implementation; the naive
    /// per-row scan is the oracle.
    ///
    /// Coverage (the regression spread that caught the old gaps):
    /// * `sbit` at, below, and beyond one word — 16..256 including the
    ///   exact word boundaries 64/128/192/256;
    /// * `nbmiss` up to the full `sbit` (the old corpus stopped at 9, so
    ///   high counter digits and the overflow slice went unexercised);
    /// * all-ones and all-zeros columns (carry chains that saturate or
    ///   never fire).
    #[test]
    fn agrees_with_naive_random() {
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let widths = [16u32, 32, 64, 96, 128, 192, 256];
        for trial in 0..140 {
            let n = rng.gen_range(1..300);
            let sbit = widths[trial % widths.len()];
            let words = (sbit as usize).div_ceil(64);
            let mask: u64 = if sbit % 64 == 0 {
                u64::MAX
            } else {
                (1u64 << (sbit % 64)) - 1
            };
            let gen_row = |rng: &mut ChaCha8Rng| -> Vec<u64> {
                (0..words)
                    .map(|w| {
                        let v: u64 = rng.gen();
                        if w == words - 1 {
                            v & mask
                        } else {
                            v
                        }
                    })
                    .collect()
            };
            let mut rows: Vec<Vec<u64>> = (0..n).map(|_| gen_row(&mut rng)).collect();
            // Degenerate columns: force column 0 all-ones and (when wide
            // enough) column sbit-1 all-zeros across every row.
            for row in &mut rows {
                row[0] |= 1;
                if sbit > 1 {
                    row[(sbit as usize - 1) / 64] &= !(1u64 << ((sbit - 1) % 64));
                }
            }
            let bm = bitmap_from_rows(&rows, sbit);
            let mut q = gen_row(&mut rng);
            // All-zeros and all-ones queries every few trials; otherwise
            // make sure the degenerate columns participate.
            match trial % 5 {
                0 => q.iter_mut().for_each(|w| *w = 0),
                1 => {
                    for (w, word) in q.iter_mut().enumerate() {
                        *word = if w == words - 1 { mask } else { u64::MAX };
                    }
                }
                _ => q[0] |= 1,
            }
            // nbmiss spans the whole budget range, not just tiny values.
            let nbmiss = rng.gen_range(0..=sbit);
            let oracle = probe_naive(&bm, &q, nbmiss);
            let got = probe_bitsliced(&bm, &q, nbmiss);
            assert_eq!(
                got.rows, oracle.rows,
                "trial {trial} n={n} sbit={sbit} nbmiss={nbmiss}"
            );
            assert_eq!(got.misses, oracle.misses, "trial {trial}");
            let c = probe_rowscan(&rows, &q, nbmiss);
            assert_eq!(c.rows, oracle.rows, "rowscan trial {trial}");
            assert_eq!(c.misses, oracle.misses, "rowscan trial {trial}");
        }
    }

    #[test]
    fn overflow_rows_excluded() {
        // Query with 40 set bits, db rows all zero → 40 misses, far past
        // any small nbmiss; the sticky overflow bit must exclude them.
        let rows = vec![vec![0u64]; 70];
        let bm = bitmap_from_rows(&rows, 40);
        let q = vec![(1u64 << 40) - 1];
        for nbmiss in [0u32, 1, 3, 7] {
            let hits = probe_bitsliced(&bm, &q, nbmiss);
            assert!(hits.rows.is_empty(), "nbmiss={nbmiss}");
        }
        let hits = probe_bitsliced(&bm, &q, 40);
        assert_eq!(hits.rows.len(), 70);
        assert!(hits.misses.iter().all(|&m| m == 40));
    }

    #[test]
    fn row_extraction_roundtrip() {
        let rows = vec![vec![0xDEADBEEFu64, 0x1234], vec![0x0, 0xFFFF]];
        let bm = bitmap_from_rows(&rows, 96);
        assert_eq!(bm.row(0), vec![0xDEADBEEF, 0x1234]);
        assert_eq!(bm.row(1), vec![0x0, 0xFFFF]);
    }

    #[test]
    fn from_words_roundtrip() {
        // 70 rows → 2 words per column; 3 columns.
        let mut bm = ColumnBitmap::new(70, 3);
        bm.set(0, 0);
        bm.set(69, 2);
        let rebuilt = ColumnBitmap::from_words(70, 3, bm.words().to_vec());
        assert_eq!(rebuilt, bm);
        assert!(rebuilt.get(0, 0) && rebuilt.get(69, 2));
    }

    #[test]
    #[should_panic(expected = "ColumnBitmap::from_words")]
    fn from_words_rejects_wrong_length() {
        // Regression: this was a debug_assert!, so release builds accepted
        // a short word vector and failed later (out-of-bounds column
        // slicing) or not at all. The length check must be unconditional.
        ColumnBitmap::from_words(70, 3, vec![0u64; 5]); // needs 6
    }

    #[test]
    fn fold_columns_records_nonempty_columns() {
        let mut bm = ColumnBitmap::new(3, 130);
        bm.set(0, 0); // slot 0
        bm.set(2, 65); // slot 1
        bm.set(1, 129); // slot 1 (129 % 64)
        assert_eq!(bm.fold_columns(), 0b11);
        assert_eq!(ColumnBitmap::new(5, 32).fold_columns(), 0);
    }

    // --- width-contract regressions -------------------------------------

    #[test]
    #[should_panic(expected = "probe_rowscan: row 1 has 1 words but the query has 2")]
    fn rowscan_rejects_width_mismatch() {
        // Regression: zip silently truncated the longer side, so a short
        // row (or short query) under-counted misses and admitted rows that
        // should have been rejected. Now an unconditional panic.
        let rows = vec![vec![0u64, 0u64], vec![0u64]];
        probe_rowscan(&rows, &[u64::MAX, u64::MAX], 0);
    }

    #[test]
    #[should_panic(expected = "probe_rowscan")]
    fn rowscan_rejects_short_query() {
        probe_rowscan(&[vec![0u64, 0u64]], &[u64::MAX], 0);
    }

    #[test]
    #[should_panic(expected = "query has 2 words but sbit 32 needs 1")]
    fn bitsliced_rejects_wide_query() {
        // Regression: a query built under a wider scheme (base/delta sbit
        // skew) used to have its extra words silently ignored.
        let bm = ColumnBitmap::new(4, 32);
        probe_bitsliced(&bm, &[u64::MAX, u64::MAX], 1);
    }

    #[test]
    #[should_panic(expected = "sets bits at or above sbit")]
    fn bitsliced_rejects_stray_high_bits() {
        let bm = ColumnBitmap::new(4, 40);
        // bit 63 is past sbit 40 — its miss would silently vanish
        probe_bitsliced(&bm, &[1u64 << 63], 1);
    }

    #[test]
    #[should_panic(expected = "probe_naive")]
    fn naive_rejects_short_query() {
        let bm = ColumnBitmap::new(4, 96);
        probe_naive(&bm, &[0u64], 1);
    }
}
