//! Bit-packed crossbar backend: one `u64` bit-plane word per 64 cells.
//!
//! Cell values live in a dense `value` plane; stuck-at faults in two
//! sparse planes (`sa0`/`sa1`, allocated only once a fault is
//! injected); wear in a lazily materialized [`WearPlane`] keyed by
//! per-op column-range increments. A MAGIC NOR across k columns is
//! `O(k/64)` word ops plus one wear push, instead of `O(k)` per-cell
//! scalar updates — with read/write/drive semantics, error ordering
//! and wear counts bit-identical to the scalar [`crate::Cell`] loops.

use crate::cell::{Cell, Fault};
use crate::geometry::ColRange;
use crate::wear::WearPlane;

const WORD_BITS: usize = 64;

/// Iterates the words a column range touches as `(word, mask, lo)`:
/// `mask` selects the range's bits within the word, `lo` is the first
/// selected bit position.
fn word_spans(cols: ColRange) -> impl Iterator<Item = (usize, u64, usize)> {
    let (start, end) = (cols.start, cols.end);
    let first = start / WORD_BITS;
    let count = if start >= end {
        0
    } else {
        (end - 1) / WORD_BITS + 1 - first
    };
    (0..count).map(move |k| {
        let w = first + k;
        let lo = start.max(w * WORD_BITS) - w * WORD_BITS;
        let hi = end.min(w * WORD_BITS + WORD_BITS) - w * WORD_BITS;
        let mask = if hi - lo == WORD_BITS {
            u64::MAX
        } else {
            ((1u64 << (hi - lo)) - 1) << lo
        };
        (w, mask, lo)
    })
}

/// The packed backend's planes for a rows × cols array.
#[derive(Debug, Clone)]
pub(crate) struct PackedPlanes {
    /// Words per row.
    wpr: usize,
    /// Raw stored bits (the underlying value, unaffected by faults —
    /// exactly like [`Cell`]'s private `value`).
    value: Vec<u64>,
    /// Stuck-at-0 mask; empty until a fault is injected.
    sa0: Vec<u64>,
    /// Stuck-at-1 mask; empty until a fault is injected.
    sa1: Vec<u64>,
    /// Lazily materialized per-cell write counters.
    pub(crate) wear: WearPlane,
}

impl PackedPlanes {
    pub(crate) fn new(rows: usize, cols: usize) -> Self {
        let wpr = cols.div_ceil(WORD_BITS);
        PackedPlanes {
            wpr,
            value: vec![0; rows * wpr],
            sa0: Vec::new(),
            sa1: Vec::new(),
            wear: WearPlane::new(rows, cols),
        }
    }

    #[inline]
    fn idx(&self, row: usize, word: usize) -> usize {
        row * self.wpr + word
    }

    /// Sense-amplifier view of one word: stuck-at-1 forces 1, stuck-at-0
    /// forces 0 (mirrors [`Cell::read`]).
    #[inline]
    fn read_word(&self, row: usize, word: usize) -> u64 {
        let i = self.idx(row, word);
        let v = self.value[i];
        if self.sa0.is_empty() {
            v
        } else {
            (v | self.sa1[i]) & !self.sa0[i]
        }
    }

    /// Bits of `(row, word)` that host any stuck-at fault (writes and
    /// MAGIC drives leave them untouched, like [`Cell::write`]).
    #[inline]
    fn fault_word(&self, row: usize, word: usize) -> u64 {
        if self.sa0.is_empty() {
            0
        } else {
            let i = self.idx(row, word);
            self.sa0[i] | self.sa1[i]
        }
    }

    pub(crate) fn read_bit(&self, row: usize, col: usize) -> bool {
        (self.read_word(row, col / WORD_BITS) >> (col % WORD_BITS)) & 1 == 1
    }

    pub(crate) fn fault_at(&self, row: usize, col: usize) -> Option<Fault> {
        if self.sa0.is_empty() {
            return None;
        }
        let (i, bit) = (self.idx(row, col / WORD_BITS), col % WORD_BITS);
        if (self.sa0[i] >> bit) & 1 == 1 {
            Some(Fault::StuckAt0)
        } else if (self.sa1[i] >> bit) & 1 == 1 {
            Some(Fault::StuckAt1)
        } else {
            None
        }
    }

    pub(crate) fn set_fault(&mut self, row: usize, col: usize, fault: Option<Fault>) {
        if self.sa0.is_empty() {
            if fault.is_none() {
                return;
            }
            self.sa0 = vec![0; self.value.len()];
            self.sa1 = vec![0; self.value.len()];
        }
        let (i, bit) = (self.idx(row, col / WORD_BITS), col % WORD_BITS);
        self.sa0[i] &= !(1 << bit);
        self.sa1[i] &= !(1 << bit);
        match fault {
            Some(Fault::StuckAt0) => self.sa0[i] |= 1 << bit,
            Some(Fault::StuckAt1) => self.sa1[i] |= 1 << bit,
            None => {}
        }
    }

    /// Synthesizes the [`Cell`] view of one coordinate (raw value,
    /// exact wear, fault) — identical to what the scalar backend
    /// stores.
    pub(crate) fn cell(&self, row: usize, col: usize) -> Cell {
        let raw = (self.value[self.idx(row, col / WORD_BITS)] >> (col % WORD_BITS)) & 1 == 1;
        Cell::from_parts(raw, self.wear.writes_at(row, col), self.fault_at(row, col))
    }

    pub(crate) fn read_into(&self, row: usize, cols: ColRange, out: &mut Vec<bool>) {
        out.clear();
        out.reserve(cols.len());
        for (w, mask, lo) in word_spans(cols) {
            let bits = self.read_word(row, w);
            let hi = WORD_BITS - mask.leading_zeros() as usize;
            for b in lo..hi {
                out.push((bits >> b) & 1 == 1);
            }
        }
    }

    /// Reads `cols` as little-endian words aligned to `cols.start`
    /// (bit 0 of `out[0]` = column `cols.start`), fault-adjusted.
    pub(crate) fn read_words_into(&self, row: usize, cols: ColRange, out: &mut Vec<u64>) {
        let len = cols.len();
        out.clear();
        out.resize(len.div_ceil(WORD_BITS), 0);
        let base = cols.start / WORD_BITS;
        let shift = cols.start % WORD_BITS;
        for (k, slot) in out.iter_mut().enumerate() {
            let lo = self.read_word_or_zero(row, base + k) >> shift;
            let hi = if shift == 0 {
                0
            } else {
                self.read_word_or_zero(row, base + k + 1) << (WORD_BITS - shift)
            };
            *slot = lo | hi;
        }
        mask_tail(out, len);
    }

    #[inline]
    fn read_word_or_zero(&self, row: usize, word: usize) -> u64 {
        if word < self.wpr {
            self.read_word(row, word)
        } else {
            0
        }
    }

    /// Writes `len` bits from little-endian `words` into `row` at
    /// `col_offset`: one wear increment per cell, fault cells keep
    /// their value (but still wear) — exactly [`Cell::write`] applied
    /// across the range.
    pub(crate) fn write_words(&mut self, row: usize, col_offset: usize, words: &[u64], len: usize) {
        self.store_words(row, col_offset, words, len);
        self.wear.add(row, col_offset..col_offset + len, 1);
    }

    /// The value half of [`PackedPlanes::write_words`]: stores the bits
    /// word by word without recording wear. Fault cells keep their
    /// value, as under a real write.
    pub(crate) fn store_words(&mut self, row: usize, col_offset: usize, words: &[u64], len: usize) {
        for (w, mask, lo) in word_spans(col_offset..col_offset + len) {
            let src_bit = w * WORD_BITS + lo - col_offset;
            let (si, sh) = (src_bit / WORD_BITS, src_bit % WORD_BITS);
            let bits = (words.get(si).copied().unwrap_or(0) >> sh)
                | if sh == 0 {
                    0
                } else {
                    words.get(si + 1).copied().unwrap_or(0) << (WORD_BITS - sh)
                };
            let m = mask & !self.fault_word(row, w);
            let i = self.idx(row, w);
            self.value[i] = (self.value[i] & !m) | ((bits << lo) & m);
        }
    }

    /// Sets one cell's raw value without wear — the value half of a
    /// write. A fault cell keeps its value, as under a real write.
    pub(crate) fn store_bit(&mut self, row: usize, col: usize, value: bool) {
        if self.fault_at(row, col).is_some() {
            return;
        }
        let i = self.idx(row, col / WORD_BITS);
        let bit = 1u64 << (col % WORD_BITS);
        if value {
            self.value[i] |= bit;
        } else {
            self.value[i] &= !bit;
        }
    }

    pub(crate) fn write_bits(&mut self, row: usize, col_offset: usize, bits: &[bool]) {
        let mut words = [0u64; 4];
        if bits.len() <= words.len() * WORD_BITS {
            for (j, &b) in bits.iter().enumerate() {
                if b {
                    words[j / WORD_BITS] |= 1 << (j % WORD_BITS);
                }
            }
            self.write_words(row, col_offset, &words, bits.len());
        } else {
            let mut words = vec![0u64; bits.len().div_ceil(WORD_BITS)];
            for (j, &b) in bits.iter().enumerate() {
                if b {
                    words[j / WORD_BITS] |= 1 << (j % WORD_BITS);
                }
            }
            self.write_words(row, col_offset, &words, bits.len());
        }
    }

    /// Parallel set/reset wave over the span of each row in `rows`.
    pub(crate) fn fill(&mut self, rows: std::ops::Range<usize>, cols: ColRange, value: bool) {
        let fill = if value { u64::MAX } else { 0 };
        for row in rows {
            for (w, mask, _) in word_spans(cols.clone()) {
                let m = mask & !self.fault_word(row, w);
                let i = self.idx(row, w);
                self.value[i] = (self.value[i] & !m) | (fill & m);
            }
            self.wear.add(row, cols.clone(), 1);
        }
    }

    /// First column in `cols` whose fault-adjusted read of `row` is 0
    /// — the strict-init scan for MAGIC outputs.
    fn first_zero(&self, row: usize, cols: &ColRange) -> Option<usize> {
        for (w, mask, _) in word_spans(cols.clone()) {
            let fail = mask & !self.read_word(row, w);
            if fail != 0 {
                return Some(w * WORD_BITS + fail.trailing_zeros() as usize);
            }
        }
        None
    }

    /// MAGIC NOR across rows. On a strict-init failure the columns
    /// *before* the failing one are driven and worn (the scalar loop
    /// processes columns left to right), and `Err(col)` is returned.
    pub(crate) fn nor_rows(
        &mut self,
        inputs: &[usize],
        out: usize,
        cols: ColRange,
        strict: bool,
    ) -> Result<(), usize> {
        let fail_col = if strict {
            self.first_zero(out, &cols)
        } else {
            None
        };
        let drive = cols.start..fail_col.unwrap_or(cols.end);
        if drive.start < drive.end {
            for (w, mask, _) in word_spans(drive.clone()) {
                let mut any = 0u64;
                for &r in inputs {
                    any |= self.read_word(r, w);
                }
                // magic_drive(!any): non-fault cells are pulled down
                // where the gate result is 0 (any input read 1).
                let pulldown = any & mask & !self.fault_word(out, w);
                let i = self.idx(out, w);
                self.value[i] &= !pulldown;
            }
            self.wear.add(out, drive, 1);
        }
        match fail_col {
            Some(col) => Err(col),
            None => Ok(()),
        }
    }

    /// MAGIC NOR along rows (column-oriented): one output bit per row,
    /// rows processed in order like the scalar loop. `Err(row)` on a
    /// strict-init failure; preceding rows stay driven.
    pub(crate) fn nor_cols(
        &mut self,
        in_cols: &[usize],
        out_col: usize,
        rows: std::ops::Range<usize>,
        strict: bool,
    ) -> Result<(), usize> {
        for row in rows {
            let any = in_cols.iter().any(|&c| self.read_bit(row, c));
            if strict && !self.read_bit(row, out_col) {
                return Err(row);
            }
            self.drive_bit(row, out_col, !any);
        }
        Ok(())
    }

    /// Partitioned MAGIC NOR; iteration order (row-major, then
    /// partition base) matches the scalar loop. `Err((row, col))` on a
    /// strict-init failure.
    pub(crate) fn nor_cols_partitioned(
        &mut self,
        rows: std::ops::Range<usize>,
        cols: ColRange,
        part_width: usize,
        in_offsets: &[usize],
        out_offset: usize,
        strict: bool,
    ) -> Result<(), (usize, usize)> {
        for row in rows {
            for base in (cols.start..cols.end).step_by(part_width) {
                let any = in_offsets.iter().any(|&off| self.read_bit(row, base + off));
                if strict && !self.read_bit(row, base + out_offset) {
                    return Err((row, base + out_offset));
                }
                self.drive_bit(row, base + out_offset, !any);
            }
        }
        Ok(())
    }

    /// [`Cell::magic_drive`] on a single coordinate.
    fn drive_bit(&mut self, row: usize, col: usize, gate_result: bool) {
        let (w, bit) = (col / WORD_BITS, col % WORD_BITS);
        if !gate_result && self.fault_word(row, w) & (1 << bit) == 0 {
            let i = self.idx(row, w);
            self.value[i] &= !(1 << bit);
        }
        self.wear.add(row, col..col + 1, 1);
    }

    /// `true` when no cell of `row` in `cols` has a stuck-at fault.
    pub(crate) fn region_fault_free(&self, row: usize, cols: ColRange) -> bool {
        if self.sa0.is_empty() {
            return true;
        }
        word_spans(cols).all(|(w, mask, _)| self.fault_word(row, w) & mask == 0)
    }
}

/// Clears bits at positions `>= len` in a little-endian word buffer.
pub(crate) fn mask_tail(words: &mut [u64], len: usize) {
    let tail = len % WORD_BITS;
    if tail != 0 {
        if let Some(last) = words.last_mut() {
            *last &= (1u64 << tail) - 1;
        }
    }
}

/// Shifts a `len`-bit LSB-aligned word vector by `offset` bit
/// positions (positive = towards higher indices), filling vacated
/// positions with `fill` — the word-parallel core of the periphery
/// shift ([`crate::Crossbar::shift_row_to`]).
pub(crate) fn shift_words(words: &[u64], len: usize, offset: isize, fill: bool) -> Vec<u64> {
    let n = len.div_ceil(WORD_BITS);
    let mut out = vec![0u64; n];
    let k = offset.unsigned_abs();
    let (fill_lo, fill_hi);
    if k >= len {
        (fill_lo, fill_hi) = (0, len);
    } else if offset >= 0 {
        let (ws, bs) = (k / WORD_BITS, k % WORD_BITS);
        for i in (ws..n).rev() {
            let lo = words.get(i - ws).copied().unwrap_or(0) << bs;
            let hi = if bs > 0 && i > ws {
                words.get(i - ws - 1).copied().unwrap_or(0) >> (WORD_BITS - bs)
            } else {
                0
            };
            out[i] = lo | hi;
        }
        (fill_lo, fill_hi) = (0, k);
    } else {
        let (ws, bs) = (k / WORD_BITS, k % WORD_BITS);
        for (i, slot) in out.iter_mut().enumerate() {
            let lo = words.get(i + ws).copied().unwrap_or(0) >> bs;
            let hi = if bs > 0 {
                words.get(i + ws + 1).copied().unwrap_or(0) << (WORD_BITS - bs)
            } else {
                0
            };
            *slot = lo | hi;
        }
        (fill_lo, fill_hi) = (len - k, len);
    }
    if fill {
        for (w, mask, _) in word_spans(fill_lo..fill_hi) {
            out[w] |= mask;
        }
    }
    mask_tail(&mut out, len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_spans_cover_range_exactly() {
        let spans: Vec<_> = word_spans(60..70).collect();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0], (0, 0xF000_0000_0000_0000, 60));
        assert_eq!(spans[1], (1, 0x3F, 0));
        assert_eq!(word_spans(8..8).count(), 0);
        assert_eq!(word_spans(0..64).next().unwrap().1, u64::MAX);
    }

    #[test]
    fn unaligned_word_read_write_roundtrip() {
        let mut p = PackedPlanes::new(1, 200);
        let words = [0xDEAD_BEEF_0123_4567u64, 0x0FED_CBA9_8765_4321];
        p.write_words(0, 37, &words, 100);
        let mut back = Vec::new();
        p.read_words_into(0, 37..137, &mut back);
        let mut expect = words.to_vec();
        mask_tail(&mut expect, 100);
        assert_eq!(back, expect);
        // Neighbouring cells untouched.
        assert!(!p.read_bit(0, 36));
        assert!(!p.read_bit(0, 137));
    }

    #[test]
    fn faults_pin_reads_and_block_writes() {
        let mut p = PackedPlanes::new(1, 70);
        p.set_fault(0, 65, Some(Fault::StuckAt1));
        p.set_fault(0, 2, Some(Fault::StuckAt0));
        assert!(p.read_bit(0, 65));
        assert!(!p.read_bit(0, 2));
        p.write_bits(0, 0, &[true; 70]);
        assert!(!p.read_bit(0, 2), "stuck-at-0 still reads 0");
        // Clearing the fault reveals the preserved underlying value.
        p.set_fault(0, 2, None);
        assert!(!p.read_bit(0, 2), "write was blocked while faulty");
        p.set_fault(0, 65, None);
        assert!(!p.read_bit(0, 65), "underlying value never changed while faulty");
    }

    #[test]
    fn fault_free_region_check() {
        let mut p = PackedPlanes::new(2, 130);
        assert!(p.region_fault_free(0, 0..130));
        p.set_fault(1, 100, Some(Fault::StuckAt0));
        assert!(p.region_fault_free(0, 0..130));
        assert!(p.region_fault_free(1, 0..100));
        assert!(!p.region_fault_free(1, 64..130));
    }
}
