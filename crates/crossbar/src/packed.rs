//! Bit-packed crossbar backend: one `u64` bit-plane word per 64 cells.
//!
//! Cell values live in a dense `value` plane; stuck-at faults in two
//! sparse planes (`sa0`/`sa1`, allocated only once a fault is
//! injected); wear in a lazily materialized [`WearPlane`] keyed by
//! per-op column-range increments. A MAGIC NOR across k columns is
//! `O(k/64)` word ops plus one wear push, instead of `O(k)` per-cell
//! scalar updates — with read/write/drive semantics, error ordering
//! and wear counts bit-identical to the scalar [`crate::Cell`] loops.
//!
//! Every row kernel is one word-slice loop over a [`WordSpan`], generic
//! over a [`FaultView`] chosen once per op: a fault-free array runs
//! the same source as a faulted one, with every fault term folded
//! away.

use crate::cell::{Cell, Fault};
use crate::geometry::{ColRange, WordSpan};
use crate::wear::WearPlane;

const WORD_BITS: usize = 64;

/// How a kernel sees stuck-at faults. Indices are plane word indices
/// (`row * wpr + word`).
trait FaultView: Copy {
    /// Bits of word `i` pinned by a fault: writes and MAGIC drives
    /// leave them untouched, like [`Cell::write`].
    fn pinned(self, i: usize) -> u64;

    /// Sense-amplifier view of word `i` holding raw bits `v`:
    /// stuck-at-1 forces 1, stuck-at-0 forces 0, like [`Cell::read`].
    fn sense(self, i: usize, v: u64) -> u64;
}

/// The view of an array with no fault planes.
#[derive(Clone, Copy)]
struct NoFaults;

impl FaultView for NoFaults {
    #[inline(always)]
    fn pinned(self, _: usize) -> u64 {
        0
    }

    #[inline(always)]
    fn sense(self, _: usize, v: u64) -> u64 {
        v
    }
}

/// The view of an array with materialized `sa0`/`sa1` planes.
#[derive(Clone, Copy)]
struct Stuck<'a> {
    sa0: &'a [u64],
    sa1: &'a [u64],
}

impl FaultView for Stuck<'_> {
    #[inline(always)]
    fn pinned(self, i: usize) -> u64 {
        self.sa0[i] | self.sa1[i]
    }

    #[inline(always)]
    fn sense(self, i: usize, v: u64) -> u64 {
        (v | self.sa1[i]) & !self.sa0[i]
    }
}

/// Evaluates `$body` with `$f` bound to the planes' [`FaultView`],
/// chosen once: [`NoFaults`] until a fault is injected, [`Stuck`]
/// after. Both arms expand the same source.
macro_rules! with_faults {
    ($planes:expr, $f:ident => $body:expr) => {
        if $planes.sa0.is_empty() {
            let $f = NoFaults;
            $body
        } else {
            let $f = Stuck {
                sa0: &$planes.sa0[..],
                sa1: &$planes.sa1[..],
            };
            $body
        }
    };
}

/// Bits `shift..shift + 64` of the 128-bit word `hi:lo`
/// (`shift` in `0..=64`).
#[inline(always)]
fn funnel(hi: u64, lo: u64, shift: usize) -> u64 {
    match shift {
        0 => lo,
        WORD_BITS => hi,
        _ => (lo >> shift) | (hi << (WORD_BITS - shift)),
    }
}

/// Row `out` mutably and row `src` shared, from one plane of
/// `wpr`-word rows (`out != src`).
fn row_pair(value: &mut [u64], wpr: usize, out: usize, src: usize) -> (&mut [u64], &[u64]) {
    if src < out {
        let (lo, hi) = value.split_at_mut(out * wpr);
        (&mut hi[..wpr], &lo[src * wpr..][..wpr])
    } else {
        let (lo, hi) = value.split_at_mut(src * wpr);
        (&mut lo[out * wpr..][..wpr], &hi[..wpr])
    }
}

/// Packs up to 64 bits, LSB first, into one word.
fn pack_word(bits: &[bool]) -> u64 {
    bits.iter().rev().fold(0, |acc, &b| (acc << 1) | b as u64)
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
    /// Word buffer reused by bit writes and periphery shifts.
    scratch: Vec<u64>,
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
            scratch: Vec::new(),
        }
    }

    /// Sense-amplifier view of one word.
    fn read_word(&self, row: usize, word: usize) -> u64 {
        let i = row * self.wpr + word;
        with_faults!(self, f => f.sense(i, self.value[i]))
    }

    pub(crate) fn read_bit(&self, row: usize, col: usize) -> bool {
        (self.read_word(row, col / WORD_BITS) >> (col % WORD_BITS)) & 1 == 1
    }

    pub(crate) fn fault_at(&self, row: usize, col: usize) -> Option<Fault> {
        if self.sa0.is_empty() {
            return None;
        }
        let (i, bit) = (row * self.wpr + col / WORD_BITS, col % WORD_BITS);
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
        let (i, bit) = (row * self.wpr + col / WORD_BITS, col % WORD_BITS);
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
        let raw = (self.value[row * self.wpr + col / WORD_BITS] >> (col % WORD_BITS)) & 1 == 1;
        Cell::from_parts(raw, self.wear.writes_at(row, col), self.fault_at(row, col))
    }

    /// Calls `emit` with the sensed words of `row` over `cols`, aligned
    /// to `cols.start` (bit 0 of the first word = column `cols.start`).
    /// Bits of the last word past the span are unspecified.
    fn sensed_words(&self, row: usize, cols: &ColRange, mut emit: impl FnMut(u64)) {
        let n = cols.len().div_ceil(WORD_BITS);
        if n == 0 {
            return;
        }
        let (first, shift) = (cols.start / WORD_BITS, cols.start % WORD_BITS);
        let base = row * self.wpr + first;
        let words = &self.value[base..(row + 1) * self.wpr];
        with_faults!(self, f => {
            let mut lo = f.sense(base, words[0]);
            for k in 1..=n {
                let hi = words.get(k).map_or(0, |&v| f.sense(base + k, v));
                emit(funnel(hi, lo, shift));
                lo = hi;
            }
        })
    }

    pub(crate) fn read_into(&self, row: usize, cols: ColRange, out: &mut Vec<bool>) {
        let len = cols.len();
        out.clear();
        out.reserve(len);
        self.sensed_words(row, &cols, |w| {
            let take = (len - out.len()).min(WORD_BITS);
            out.extend((0..take).map(|b| (w >> b) & 1 == 1));
        });
    }

    /// Reads `cols` as little-endian words aligned to `cols.start`
    /// (bit 0 of `out[0]` = column `cols.start`), fault-adjusted.
    pub(crate) fn read_words_into(&self, row: usize, cols: ColRange, out: &mut Vec<u64>) {
        out.clear();
        self.sensed_words(row, &cols, |w| out.push(w));
        mask_tail(out, cols.len());
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
    /// without recording wear. Missing words of `words` read as 0.
    /// Fault cells keep their value, as under a real write.
    pub(crate) fn store_words(&mut self, row: usize, col_offset: usize, words: &[u64], len: usize) {
        let Some(span) = WordSpan::new(&(col_offset..col_offset + len)) else {
            return;
        };
        let (base, lo) = (row * self.wpr, col_offset % WORD_BITS);
        with_faults!(self, f => span.rewrite(&mut self.value[base..base + self.wpr], |ws| {
            let mut prev = 0;
            for (k, w) in ws.iter_mut().enumerate() {
                let cur = words.get(k).copied().unwrap_or(0);
                let bits = funnel(cur, prev, WORD_BITS - lo);
                prev = cur;
                let keep = f.pinned(base + span.first() + k);
                *w = (*w & keep) | (bits & !keep);
            }
        }))
    }

    /// Sets one cell's raw value without wear — the value half of a
    /// write. A fault cell keeps its value, as under a real write.
    pub(crate) fn store_bit(&mut self, row: usize, col: usize, value: bool) {
        self.store_words(row, col, &[value as u64], 1);
    }

    pub(crate) fn write_bits(&mut self, row: usize, col_offset: usize, bits: &[bool]) {
        let mut words = std::mem::take(&mut self.scratch);
        words.clear();
        words.extend(bits.chunks(WORD_BITS).map(pack_word));
        self.write_words(row, col_offset, &words, bits.len());
        self.scratch = words;
    }

    /// Parallel set/reset wave over the span of each row in `rows`.
    pub(crate) fn fill(&mut self, rows: std::ops::Range<usize>, cols: ColRange, value: bool) {
        let Some(span) = WordSpan::new(&cols) else {
            return;
        };
        let (wpr, word) = (self.wpr, if value { u64::MAX } else { 0 });
        with_faults!(self, f => for row in rows {
            let base = row * wpr;
            span.rewrite(&mut self.value[base..base + wpr], |ws| {
                for (k, w) in ws.iter_mut().enumerate() {
                    let keep = f.pinned(base + span.first() + k);
                    *w = (*w & keep) | (word & !keep);
                }
            });
            self.wear.add(row, cols.clone(), 1);
        })
    }

    /// First column of `span` whose sensed read of `row` is 0 — the
    /// strict-init scan for MAGIC outputs.
    fn first_zero(&self, row: usize, span: WordSpan) -> Option<usize> {
        let base = row * self.wpr;
        let words = &self.value[base..base + self.wpr];
        let first = base + span.first();
        with_faults!(self, f => span.find(words, |k, v| !f.sense(first + k, v)))
    }

    /// MAGIC NOR across rows (`out` not among `inputs`). On a
    /// strict-init failure the columns *before* the failing one are
    /// driven and worn (the scalar loop processes columns left to
    /// right), and `Err(col)` is returned.
    pub(crate) fn nor_rows(
        &mut self,
        inputs: &[usize],
        out: usize,
        cols: ColRange,
        strict: bool,
    ) -> Result<(), usize> {
        let Some(span) = WordSpan::new(&cols) else {
            return Ok(());
        };
        let fail_col = if strict {
            self.first_zero(out, span)
        } else {
            None
        };
        let drive = cols.start..fail_col.unwrap_or(cols.end);
        if let Some(span) = WordSpan::new(&drive) {
            let wpr = self.wpr;
            let (ob, words) = (out * wpr + span.first(), span.words());
            // magic_drive(!any) is an AND of one pull-down per input:
            // non-fault output cells fall to 0 where the input reads 1.
            with_faults!(self, f => for &r in inputs {
                let (out_row, in_row) = row_pair(&mut self.value, wpr, out, r);
                let (ib, ins) = (r * wpr + span.first(), &in_row[words.clone()]);
                span.rewrite(out_row, |ws| {
                    for (k, (o, &v)) in ws.iter_mut().zip(ins).enumerate() {
                        *o &= !(f.sense(ib + k, v) & !f.pinned(ob + k));
                    }
                });
            });
            self.wear.add(out, drive, 1);
        }
        match fail_col {
            Some(col) => Err(col),
            None => Ok(()),
        }
    }

    /// Periphery shift: senses `src[cols]`, shifts it by `offset`
    /// columns with `fill` in the vacated positions, and writes the
    /// span into `dst` (which may equal `src`), then adds one wear
    /// pulse over the span. Pinned destination bits keep their value,
    /// as under [`PackedPlanes::write_words`].
    ///
    /// The sensed source words are staged in the scratch buffer with
    /// `fill` outside the span and `ws + 1` fill words on either side
    /// (`ws` being the whole-word part of the distance), so destination
    /// word `r` of the span is one funnel of staged words `r + c` and
    /// `r + c + 1` for a fixed `c`: a single loop over the span, with
    /// no edge or range cases inside it.
    pub(crate) fn shift(
        &mut self,
        src: usize,
        dst: usize,
        cols: ColRange,
        offset: isize,
        fill: bool,
    ) {
        let Some(span) = WordSpan::new(&cols) else {
            return;
        };
        let (wpr, fill_word) = (self.wpr, if fill { u64::MAX } else { 0 });
        let words = span.words();
        let n = words.len();
        // Past the span's last word every source column is outside it.
        let k = offset.unsigned_abs().min(n * WORD_BITS);
        let (ws, bs) = (k / WORD_BITS, k % WORD_BITS);
        // Staged word `ws + 1 + i` is span word `i`; destination word
        // `r` takes bits `sh..sh + 64` of staged words `r + c + 1 : r + c`.
        let (c, sh) = if offset >= 0 {
            (0, WORD_BITS - bs)
        } else {
            (2 * ws + 1, bs)
        };
        let mut staged = std::mem::take(&mut self.scratch);
        staged.clear();
        staged.resize(ws + 1, fill_word);
        let sb = src * wpr + span.first();
        with_faults!(self, f => {
            staged.extend(
                self.value[sb..sb + n]
                    .iter()
                    .enumerate()
                    .map(|(k, &v)| f.sense(sb + k, v)),
            );
            for k in [0, n - 1] {
                let (w, m) = (&mut staged[ws + 1 + k], span.mask(k));
                *w = (*w & m) | (fill_word & !m);
            }
            staged.resize(n + 2 * (ws + 1), fill_word);
            let db = dst * wpr + span.first();
            let pairs = staged[c..].iter().zip(&staged[c + 1..]);
            span.rewrite(&mut self.value[dst * wpr..(dst + 1) * wpr], |out| {
                for (r, (w, (&lo, &hi))) in out.iter_mut().zip(pairs).enumerate() {
                    let keep = f.pinned(db + r);
                    *w = (*w & keep) | (funnel(hi, lo, sh) & !keep);
                }
            });
        });
        self.scratch = staged;
        self.wear.add(dst, cols, 1);
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
        if !gate_result {
            let (i, bit) = (row * self.wpr + col / WORD_BITS, 1u64 << (col % WORD_BITS));
            let pinned = with_faults!(self, f => f.pinned(i));
            self.value[i] &= !(bit & !pinned);
        }
        self.wear.add(row, col..col + 1, 1);
    }

    /// `true` when no cell of `row` in `cols` has a stuck-at fault.
    pub(crate) fn region_fault_free(&self, row: usize, cols: ColRange) -> bool {
        let Some(span) = WordSpan::new(&cols) else {
            return true;
        };
        let base = row * self.wpr + span.first();
        with_faults!(self, f => {
            (0..span.words().len()).all(|k| f.pinned(base + k) & span.mask(k) == 0)
        })
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

/// Shifts, in place, a `len`-bit LSB-aligned word vector (exactly
/// `len.div_ceil(64)` words, bits past `len` clear) by `offset` bit
/// positions (positive = towards higher indices), filling vacated
/// positions with `fill` — the scalar backend's periphery shift
/// ([`crate::Crossbar::shift_row_to`]) runs its words through it.
pub(crate) fn shift_words(words: &mut [u64], len: usize, offset: isize, fill: bool) {
    let k = offset.unsigned_abs();
    let (ws, bs) = (k / WORD_BITS, k % WORD_BITS);
    let n = words.len();
    let vacated = if k >= len {
        words.fill(0);
        0..len
    } else if offset >= 0 {
        // Descending, so every source word is read before it is
        // overwritten.
        for i in (ws + 1..n).rev() {
            words[i] = funnel(words[i - ws], words[i - ws - 1], WORD_BITS - bs);
        }
        words[ws] = funnel(words[0], 0, WORD_BITS - bs);
        words[..ws].fill(0);
        0..k
    } else {
        for i in 0..n - ws - 1 {
            words[i] = funnel(words[i + ws + 1], words[i + ws], bs);
        }
        words[n - ws - 1] = funnel(0, words[n - 1], bs);
        words[n - ws..].fill(0);
        len - k..len
    };
    if fill {
        if let Some(span) = WordSpan::new(&vacated) {
            span.rewrite(words, |span_words| span_words.fill(u64::MAX));
        }
    }
    mask_tail(words, len);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_span_masks_cover_range_exactly() {
        let span = WordSpan::new(&(60..70)).unwrap();
        assert_eq!(span.words(), 0..2);
        assert_eq!(span.mask(0), 0xF000_0000_0000_0000);
        assert_eq!(span.mask(1), 0x3F);
        assert_eq!(WordSpan::new(&(8..8)), None);
        assert_eq!(WordSpan::new(&(0..64)).unwrap().mask(0), u64::MAX);
        let single = WordSpan::new(&(65..67)).unwrap();
        assert_eq!((single.words(), single.mask(0)), (1..2, 0b110));
    }

    #[test]
    fn shift_words_in_place_matches_bitwise_shift() {
        let len = 150;
        let bits: Vec<bool> = (0..len).map(|i| (i * 7 + i / 5) % 3 == 0).collect();
        let words: Vec<u64> = bits.chunks(WORD_BITS).map(pack_word).collect();
        for offset in [
            -151isize, -150, -70, -64, -3, 0, 1, 63, 64, 65, 149, 150, 400,
        ] {
            for fill in [false, true] {
                let mut got = words.clone();
                shift_words(&mut got, len, offset, fill);
                let expect: Vec<bool> = (0..len as isize)
                    .map(|i| {
                        let from = i - offset;
                        if (0..len as isize).contains(&from) {
                            bits[from as usize]
                        } else {
                            fill
                        }
                    })
                    .collect();
                let expect: Vec<u64> = expect.chunks(WORD_BITS).map(pack_word).collect();
                assert_eq!(got, expect, "offset {offset} fill {fill}");
            }
        }
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
        assert!(
            !p.read_bit(0, 65),
            "underlying value never changed while faulty"
        );
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
