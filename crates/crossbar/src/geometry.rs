//! Geometric helpers: column ranges, their word spans in a packed row,
//! and rectangular regions.

use std::ops::Range;

/// A half-open range of column indices within a crossbar row.
pub type ColRange = Range<usize>;

const WORD_BITS: usize = 64;

/// A non-empty column span of a row packed one bit per column into
/// `u64` words (column `c` is bit `c % 64` of word `c / 64`): the
/// words `first..=last`, with the masks selecting the span's bits in
/// its edge words (`head` in `first`, `tail` in `last`; both apply
/// when the two coincide).
///
/// Every masked word operation on packed rows goes through this type:
/// the crossbar's packed kernels, the static verifier's bit planes and
/// the compiler's liveness sets. Methods taking a `row` expect that
/// row's whole word slice (word 0 holds columns `0..64`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WordSpan {
    first: usize,
    last: usize,
    head: u64,
    tail: u64,
}

impl WordSpan {
    /// The span of `cols`; `None` when it is empty.
    #[inline]
    pub fn new(cols: &ColRange) -> Option<Self> {
        (cols.start < cols.end).then(|| WordSpan {
            first: cols.start / WORD_BITS,
            last: (cols.end - 1) / WORD_BITS,
            head: u64::MAX << (cols.start % WORD_BITS),
            tail: u64::MAX >> (WORD_BITS - 1 - (cols.end - 1) % WORD_BITS),
        })
    }

    /// Index of the span's first word in its row.
    #[inline]
    pub fn first(&self) -> usize {
        self.first
    }

    /// The span's word indices in its row.
    #[inline]
    pub fn words(&self) -> Range<usize> {
        self.first..self.last + 1
    }

    /// The span's bits in its `k`-th word, counted from `first`.
    #[inline(always)]
    pub fn mask(&self, k: usize) -> u64 {
        let mut m = u64::MAX;
        if k == 0 {
            m &= self.head;
        }
        if k == self.last - self.first {
            m &= self.tail;
        }
        m
    }

    /// Rewrites the span's words of `row` with `f`, which treats every
    /// word as full width, then restores the edge-word bits outside the
    /// span: the head-word/full-words/tail-word loop of every masked
    /// store.
    #[inline(always)]
    pub fn rewrite(&self, row: &mut [u64], f: impl FnOnce(&mut [u64])) {
        let words = &mut row[self.words()];
        let last = words.len() - 1;
        let (head, tail) = (words[0], words[last]);
        f(words);
        let keep = |new: u64, old: u64, mask: u64| (new & mask) | (old & !mask);
        words[0] = keep(words[0], head, self.mask(0));
        words[last] = keep(words[last], tail, self.mask(last));
    }

    /// Sets (`value`) or clears every bit of the span in `row`.
    #[inline]
    pub fn fill(&self, row: &mut [u64], value: bool) {
        let word = if value { u64::MAX } else { 0 };
        self.rewrite(row, |words| words.fill(word));
    }

    /// The first column of the span where `hit(k, word)` has a set bit,
    /// `word` being the span's `k`-th word of `row` (bits outside the
    /// span are masked off the result).
    #[inline(always)]
    pub fn find(&self, row: &[u64], mut hit: impl FnMut(usize, u64) -> u64) -> Option<usize> {
        row[self.words()].iter().enumerate().find_map(|(k, &w)| {
            let hits = hit(k, w) & self.mask(k);
            (hits != 0).then(|| (self.first + k) * WORD_BITS + hits.trailing_zeros() as usize)
        })
    }

    /// The first column of the span whose bit in `row` is clear.
    #[inline]
    pub fn first_clear(&self, row: &[u64]) -> Option<usize> {
        self.find(row, |_, w| !w)
    }

    /// Whether any bit of the span is set in `row`.
    #[inline]
    pub fn any(&self, row: &[u64]) -> bool {
        self.find(row, |_, w| w).is_some()
    }
}

/// A plane of `width`-word rows split around one row: that row
/// mutable (returned by [`Beside::split`]), every other row shared —
/// how a row kernel writes its output while reading its inputs.
pub(crate) struct Beside<'a> {
    before: &'a [u64],
    after: &'a [u64],
    out: usize,
    width: usize,
}

impl<'a> Beside<'a> {
    /// Row `out` of `plane`, and the other rows beside it.
    pub(crate) fn split(plane: &'a mut [u64], width: usize, out: usize) -> (&'a mut [u64], Self) {
        let (before, rest) = plane.split_at_mut(out * width);
        let (row, after) = rest.split_at_mut(width);
        let before = &*before;
        let after = &*after;
        (
            row,
            Beside {
                before,
                after,
                out,
                width,
            },
        )
    }

    /// Row `r` (not the split row).
    #[inline]
    pub(crate) fn row(&self, r: usize) -> &'a [u64] {
        let w = self.width;
        if r < self.out {
            &self.before[r * w..][..w]
        } else {
            &self.after[(r - self.out - 1) * w..][..w]
        }
    }
}

/// A rectangular region of a crossbar (rows × columns), used for
/// region-wide initialization/reset and wear-leveling swaps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    /// Rows covered (half-open).
    pub rows: Range<usize>,
    /// Columns covered (half-open).
    pub cols: Range<usize>,
}

impl Region {
    /// Creates a region from row and column ranges.
    pub fn new(rows: Range<usize>, cols: Range<usize>) -> Self {
        Region { rows, cols }
    }

    /// Number of cells in the region.
    pub fn cells(&self) -> usize {
        self.rows.len() * self.cols.len()
    }

    /// Whether the region contains the given cell.
    pub fn contains(&self, row: usize, col: usize) -> bool {
        self.rows.contains(&row) && self.cols.contains(&col)
    }

    /// Whether this region shares at least one cell with `other`.
    pub fn intersects(&self, other: &Region) -> bool {
        self.cells() > 0
            && other.cells() > 0
            && self.rows.start < other.rows.end
            && other.rows.start < self.rows.end
            && self.cols.start < other.cols.end
            && other.cols.start < self.cols.end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_cells_and_contains() {
        let r = Region::new(2..5, 0..4);
        assert_eq!(r.cells(), 12);
        assert!(r.contains(2, 0));
        assert!(r.contains(4, 3));
        assert!(!r.contains(5, 0));
        assert!(!r.contains(2, 4));
    }

    #[test]
    fn word_span_ops_match_a_per_bit_model() {
        let bit = |row: &[u64], c: usize| (row[c / 64] >> (c % 64)) & 1 == 1;
        let edges = [0usize, 1, 5, 62, 63, 64, 65, 127, 128, 129, 190, 191, 192];
        let row: Vec<u64> = (0..3u64)
            .map(|i| 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i + 1))
            .collect();
        for &start in &edges {
            for &end in edges.iter().filter(|&&e| e > start) {
                let span = WordSpan::new(&(start..end)).unwrap();
                let want_set = (start..end).find(|&c| bit(&row, c));
                let want_clear = (start..end).find(|&c| !bit(&row, c));
                assert_eq!(span.find(&row, |_, w| w), want_set, "{start}..{end}");
                assert_eq!(span.first_clear(&row), want_clear, "{start}..{end}");
                assert_eq!(span.any(&row), want_set.is_some());
                for value in [false, true] {
                    let mut filled = row.clone();
                    span.fill(&mut filled, value);
                    for c in 0..192 {
                        let inside = (start..end).contains(&c);
                        let want = if inside { value } else { bit(&row, c) };
                        assert_eq!(bit(&filled, c), want, "{start}..{end} fill {value} at {c}");
                    }
                }
            }
        }
        assert_eq!(WordSpan::new(&(64..64)), None);
        let short = WordSpan::new(&(3..9)).unwrap();
        assert_eq!(short.first_clear(&[u64::MAX]), None);
        assert!(!short.any(&[0]));
    }

    #[test]
    fn empty_region() {
        let r = Region::new(3..3, 0..10);
        assert_eq!(r.cells(), 0);
        assert!(!r.contains(3, 0));
    }

    #[test]
    fn intersection_is_symmetric_and_exact() {
        let a = Region::new(0..2, 0..4);
        assert!(a.intersects(&Region::new(1..3, 3..5)));
        assert!(Region::new(1..3, 3..5).intersects(&a));
        // Touching edges do not overlap (half-open ranges).
        assert!(!a.intersects(&Region::new(2..4, 0..4)));
        assert!(!a.intersects(&Region::new(0..2, 4..8)));
        // Empty regions overlap nothing, not even themselves.
        let empty = Region::new(1..1, 0..4);
        assert!(!empty.intersects(&a));
        assert!(!empty.intersects(&empty));
    }
}
