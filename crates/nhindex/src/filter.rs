//! The label-pair pre-filter: a per-key neighboring-label summary that
//! discards postings *before* any blob prefetch or bitmap decode.
//!
//! l2Match (see PAPERS.md) observes that most candidate vertices die on a
//! cheap label-adjacency check long before the expensive matching step.
//! The same structure fits TALE's probe: condition IV.3 asks whether a
//! database node's neighbor array misses at most `bit_budget` of the
//! query's set bits, and every row of a posting shares one composite key
//! — so a single 64-bit OR over *all* of the posting's neighbor arrays
//! bounds what any row can possibly cover.
//!
//! ## Summary layout
//!
//! For a posting whose neighbor arrays are `ceil(sbit/64)` words wide,
//! the summary folds array bit `j` into summary slot `j % 64` (the
//! layout maps bit `j` to bit `j % 64` of word `j / 64`, so the fold is
//! just the OR of every word of every row). Slot `b` clear means **no**
//! row of the posting sets **any** array column congruent to `b` mod 64.
//!
//! ## Safety argument (why a skip can never lose a hit)
//!
//! For a query word `w`, every set bit `b` of `query[w] & !summary` is a
//! query column (`w*64 + b`) whose summary slot is clear — so *every* row
//! of the posting misses that column. Distinct query bits are distinct
//! columns even when they share a slot, so
//!
//! ```text
//! guaranteed = Σ_w popcount(query[w] & !summary)
//! ```
//!
//! is a lower bound on every row's Algorithm-1 miss count. When
//! `guaranteed > bit_budget`, condition IV.3 fails for every row and the
//! posting is skipped without touching the blob store. Folding can only
//! create false "present" slots (a slot set by *some* column hides the
//! emptiness of another column congruent to it), which makes the bound
//! *smaller* — the filter then merely fails to skip. It can never make
//! the bound larger, so no skip is ever wrong. For `sbit ≤ 64` the fold
//! is the exact column-occupancy bitmap. Both readers apply the filter
//! through one probe step (`index::Probe::admit`), and debug builds
//! re-check every skipped posting against the real Algorithm-1 probe.
//!
//! Under mutation the same direction holds: a generation's postings
//! never change, inserts land in the delta overlay (which folds its own
//! exact summaries inline), and removes leave summaries alone —
//! tombstoned rows only shrink true occupancy, so the summary is a
//! superset: fewer skips, never a wrong one. A key with no entry is never
//! skipped.
//!
//! ## Persistence
//!
//! Summaries live in a binary sidecar (`nh.lpf`) beside `nh.meta.json`,
//! written atomically *before* the meta rename (the commit point), like
//! `nh.stats.json`. The meta file records `label_filter:
//! FILTER_SCHEMA_VERSION` when a sidecar was written; absent field (old
//! indexes) or an unreadable/mismatched sidecar degrades to "no filter"
//! — the index still opens and probes, just without skips.

use crate::{NhError, Result};
use tale_storage::CompositeKey;

/// Sidecar file name, beside `nh.meta.json`.
pub const FILTER_FILE: &str = "nh.lpf";
/// Version stamped into both the sidecar header and the meta file.
pub const FILTER_SCHEMA_VERSION: u32 = 1;
/// Sidecar magic: `"TLPF"`.
const MAGIC: u32 = 0x5450_4C46;

/// Per-key neighboring-label summaries, sorted by composite key.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LabelPairFilter {
    /// `(key, folded column occupancy)`, sorted by key (unique).
    entries: Vec<(CompositeKey, u64)>,
}

/// Folds a posting's neighbor arrays into its 64-bit summary: the OR of
/// every word of every row (array bit `j` lands in slot `j % 64`).
pub fn summary_of_rows(rows: &[Vec<u64>]) -> u64 {
    rows.iter()
        .flat_map(|row| row.iter())
        .fold(0u64, |acc, &w| acc | w)
}

/// The lower bound on every row's miss count: query bits whose summary
/// slot is clear are missed by every row (see the module docs). Distinct
/// words are counted separately on purpose — two query columns sharing a
/// clear slot are two guaranteed misses.
pub fn guaranteed_misses(query: &[u64], summary: u64) -> u32 {
    query.iter().map(|&q| (q & !summary).count_ones()).sum()
}

/// True when a posting with `summary` cannot contain any row within
/// `bit_budget` misses of `query` — i.e. the probe may skip it. A posting
/// without a summary (`None`) never skips.
pub fn can_skip(summary: Option<u64>, query: &[u64], bit_budget: u32) -> bool {
    summary.is_some_and(|s| guaranteed_misses(query, s) > bit_budget)
}

impl LabelPairFilter {
    /// Builds from `(key, summary)` pairs in any order; last write per
    /// key wins.
    pub fn from_entries(mut entries: Vec<(CompositeKey, u64)>) -> Self {
        entries.sort_by_key(|&(k, _)| k);
        entries.dedup_by(|later, earlier| {
            if later.0 == earlier.0 {
                earlier.1 = later.1;
                true
            } else {
                false
            }
        });
        LabelPairFilter { entries }
    }

    /// Number of keys with a summary.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no key has a summary.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The summary for `key`, if recorded. `None` means "cannot skip".
    pub fn get(&self, key: CompositeKey) -> Option<u64> {
        self.entries
            .binary_search_by_key(&key, |&(k, _)| k)
            .ok()
            .map(|i| self.entries[i].1)
    }

    /// Serializes to the sidecar format: little-endian
    /// `magic, version, count` then `(label, degree, nb_connection,
    /// summary)` per entry. (`CompositeKey` carries no serde impls, so
    /// the fields are written manually.)
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 + self.entries.len() * 20);
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&FILTER_SCHEMA_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        for &(k, summary) in &self.entries {
            out.extend_from_slice(&k.label.to_le_bytes());
            out.extend_from_slice(&k.degree.to_le_bytes());
            out.extend_from_slice(&k.nb_connection.to_le_bytes());
            out.extend_from_slice(&summary.to_le_bytes());
        }
        out
    }

    /// Parses the sidecar format. Errors describe what's wrong; callers
    /// on the open path treat any error as "no filter".
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let take4 = |at: usize| -> Result<u32> {
            bytes
                .get(at..at + 4)
                .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
                .ok_or_else(|| NhError::Meta(format!("label filter truncated at byte {at}")))
        };
        let magic = take4(0)?;
        if magic != MAGIC {
            return Err(NhError::Meta(format!("label filter bad magic {magic:#x}")));
        }
        let version = take4(4)?;
        if version != FILTER_SCHEMA_VERSION {
            return Err(NhError::Meta(format!(
                "label filter version {version} (want {FILTER_SCHEMA_VERSION})"
            )));
        }
        let count = take4(8)? as usize;
        let want = 12 + count * 20;
        if bytes.len() != want {
            return Err(NhError::Meta(format!(
                "label filter holds {} bytes but {count} entries need {want}",
                bytes.len()
            )));
        }
        let mut entries = Vec::with_capacity(count);
        for i in 0..count {
            let at = 12 + i * 20;
            let key = CompositeKey::new(take4(at)?, take4(at + 4)?, take4(at + 8)?);
            let summary = u64::from_le_bytes(bytes[at + 12..at + 20].try_into().unwrap());
            entries.push((key, summary));
        }
        // entries were written sorted; re-sorting tolerates a hand-edited
        // file and keeps the binary-search invariant
        Ok(Self::from_entries(entries))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitprobe::{probe_bitsliced, ColumnBitmap};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn key(label: u32, degree: u32, nbc: u32) -> CompositeKey {
        CompositeKey::new(label, degree, nbc)
    }

    #[test]
    fn summary_folds_all_rows() {
        let rows = vec![vec![0b0001u64, 0b0100], vec![0b1000u64, 0b0000]];
        // slots: bits 0,3 (word 0) and bit 2 (word 1) → 0b1101
        assert_eq!(summary_of_rows(&rows), 0b1101);
        assert_eq!(summary_of_rows(&[]), 0);
    }

    #[test]
    fn guaranteed_misses_counts_per_word() {
        // summary has only slot 0; query sets slot 0 in word 0 (covered)
        // and slot 1 in BOTH words — two distinct columns, two misses.
        let summary = 0b01u64;
        let query = vec![0b11u64, 0b10u64];
        assert_eq!(guaranteed_misses(&query, summary), 2);
        assert_eq!(guaranteed_misses(&query, u64::MAX), 0);
        assert_eq!(guaranteed_misses(&[0, 0], 0), 0);
    }

    #[test]
    fn lookup() {
        let f = LabelPairFilter::default();
        assert!(f.get(key(1, 2, 3)).is_none());
        assert!(!can_skip(f.get(key(1, 2, 3)), &[u64::MAX], 0)); // no entry → never skip
        let f = LabelPairFilter::from_entries(vec![(key(1, 2, 3), 0b10), (key(0, 9, 9), 0b01)]);
        assert_eq!(f.get(key(1, 2, 3)), Some(0b10));
        assert_eq!(f.get(key(0, 9, 9)), Some(0b01));
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn roundtrip_through_sidecar_bytes() {
        let f = LabelPairFilter::from_entries(vec![
            (key(5, 1, 0), u64::MAX),
            (key(0, 3, 7), 0xDEAD_BEEF),
            (key(5, 0, 2), 0),
        ]);
        let back = LabelPairFilter::decode(&f.encode()).unwrap();
        assert_eq!(back, f);
        assert_eq!(back.get(key(0, 3, 7)), Some(0xDEAD_BEEF));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(LabelPairFilter::decode(&[]).is_err());
        assert!(LabelPairFilter::decode(&[0u8; 12]).is_err()); // bad magic
        let mut good = LabelPairFilter::default().encode();
        good[4] = 99; // version
        assert!(LabelPairFilter::decode(&good).is_err());
        let mut truncated = LabelPairFilter::from_entries(vec![(key(1, 1, 1), 1)]).encode();
        truncated.pop();
        assert!(LabelPairFilter::decode(&truncated).is_err());
    }

    /// The load-bearing property: whenever `can_skip` says skip, the real
    /// probe finds nothing in the posting — across widths spanning one
    /// word and several, random rows, random queries, random budgets.
    #[test]
    fn skip_is_never_wrong() {
        let mut rng = ChaCha8Rng::seed_from_u64(4242);
        let mut skips = 0u32;
        for trial in 0..400 {
            let sbit = [24u32, 64, 96, 160][trial % 4];
            let words = (sbit as usize).div_ceil(64);
            let mask = if sbit % 64 == 0 {
                u64::MAX
            } else {
                (1u64 << (sbit % 64)) - 1
            };
            let n = rng.gen_range(1..24);
            // sparse rows make clear summary slots (and thus skips) common
            let rows: Vec<Vec<u64>> = (0..n)
                .map(|_| {
                    (0..words)
                        .map(|w| {
                            let v: u64 = rng.gen::<u64>() & rng.gen::<u64>() & rng.gen::<u64>();
                            if w == words - 1 {
                                v & mask
                            } else {
                                v
                            }
                        })
                        .collect()
                })
                .collect();
            let summary = summary_of_rows(&rows);
            let query: Vec<u64> = (0..words)
                .map(|w| {
                    let v: u64 = rng.gen::<u64>() & rng.gen::<u64>();
                    if w == words - 1 {
                        v & mask
                    } else {
                        v
                    }
                })
                .collect();
            let budget = rng.gen_range(0..6);
            let f = LabelPairFilter::from_entries(vec![(key(0, 0, 0), summary)]);
            if can_skip(f.get(key(0, 0, 0)), &query, budget) {
                skips += 1;
                let mut bm = ColumnBitmap::new(n, sbit);
                for (r, row) in rows.iter().enumerate() {
                    for j in 0..sbit {
                        if row[(j / 64) as usize] >> (j % 64) & 1 == 1 {
                            bm.set(r, j);
                        }
                    }
                }
                let hits = probe_bitsliced(&bm, &query, budget);
                assert!(
                    hits.rows.is_empty(),
                    "trial {trial}: filter skipped a posting with {} real hits \
                     (sbit={sbit} budget={budget})",
                    hits.rows.len()
                );
            }
        }
        assert!(skips > 20, "corpus produced only {skips} skips — too weak");
    }

    /// For sbit ≤ 64 the fold is exact column occupancy, so the bound
    /// equals the best possible: a query entirely inside the occupied
    /// columns is never skipped at budget 0.
    #[test]
    fn exact_for_single_word() {
        let rows = vec![vec![0b1010u64], vec![0b0110u64]];
        let summary = summary_of_rows(&rows); // 0b1110
        assert_eq!(guaranteed_misses(&[0b0110], summary), 0);
        assert_eq!(guaranteed_misses(&[0b0001], summary), 1);
    }
}
