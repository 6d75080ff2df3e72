//! Lane-transposed (bit-sliced) crossbar backend: 64 multiplies per
//! MAGIC program.
//!
//! Where the packed backend stores 64 *columns* of one instance per
//! `u64` word, the sliced backend transposes the axes: one word per
//! **cell**, and bit `l` of that word is the cell's value in batch
//! *lane* `l` — an independent problem instance. Every MAGIC NOR,
//! init/reset wave or periphery shift then executes all lanes of a
//! column in one bitwise word op, so a single compiled program carries
//! up to [`MAX_LANES`] multiplications in the same `O(cells)` work.
//!
//! Accounting is defined **per lane** so a batch is observationally
//! indistinguishable from 64 solo arrays running in lockstep:
//!
//! * data-oblivious operations (the whole Kogge-Stone/precompute
//!   program surface) wear every lane identically and land in a shared
//!   `uniform` [`WearPlane`];
//! * data-*dependent* writes (the MultPIM shift-add, which only fires
//!   for lanes whose multiplier bit is set) go through
//!   [`SlicedPlanes::write_lanes_masked`], which records one
//!   `(range, lane-mask)` wear entry instead of per-cell counters;
//! * stuck-at faults are per-lane bit masks (`sa0`/`sa1`), lazily
//!   allocated like the packed backend's.
//!
//! Single-instance entry points (plain `write_row`, `read_cell`, …)
//! broadcast to all lanes on write and observe **lane 0** on read, so
//! generic code keeps working and a 1-lane sliced array behaves like a
//! scalar one.
//!
//! The value plane is recycled through a small thread-local arena
//! ([`arena`]) so per-batch construction does not pay a large
//! allocation per stage.

use crate::cell::{Cell, Fault};
use crate::geometry::ColRange;
use crate::wear::{WearPlane, WearStats};

/// Maximum batch lanes a sliced array carries: the word width.
pub(crate) const MAX_LANES: usize = 64;

/// Thread-local recycler for value/fault planes: `multiply_batch`
/// builds three stage arrays per call, and without recycling each
/// would pay a fresh multi-hundred-KiB allocation.
mod arena {
    use std::cell::RefCell;

    /// Retained buffers per thread — enough for the three stage
    /// arrays of a batch multiplier plus headroom.
    const POOL_CAP: usize = 8;

    thread_local! {
        static POOL: RefCell<Vec<Vec<u64>>> = const { RefCell::new(Vec::new()) };
    }

    pub(super) fn take(len: usize) -> Vec<u64> {
        POOL.with(|p| {
            if let Some(mut v) = p.borrow_mut().pop() {
                v.clear();
                v.resize(len, 0);
                return v;
            }
            vec![0; len]
        })
    }

    pub(super) fn give(v: Vec<u64>) {
        if v.capacity() == 0 {
            return;
        }
        POOL.with(|p| {
            let mut pool = p.borrow_mut();
            if pool.len() < POOL_CAP {
                pool.push(v);
            }
        });
    }
}

/// One lane-masked wear increment: +1 write pulse on columns
/// `[start, end)` of a row, for every lane whose bit is set in `mask`.
#[derive(Debug, Clone, Copy)]
struct MaskedWear {
    start: u32,
    end: u32,
    mask: u64,
}

/// The sliced backend's planes for a rows × cols × lanes array.
#[derive(Debug)]
pub(crate) struct SlicedPlanes {
    rows: usize,
    cols: usize,
    lanes: usize,
    /// One word per cell (row-major); bit `l` = lane `l`'s raw value.
    value: Vec<u64>,
    /// Per-lane stuck-at-0 masks; empty until a fault is injected.
    sa0: Vec<u64>,
    /// Per-lane stuck-at-1 masks; empty until a fault is injected.
    sa1: Vec<u64>,
    /// Wear of operations that pulse every lane identically.
    uniform: WearPlane,
    /// Lane-masked wear entries, per row, applied after `uniform`.
    masked: Vec<Vec<MaskedWear>>,
}

impl Clone for SlicedPlanes {
    fn clone(&self) -> Self {
        SlicedPlanes {
            rows: self.rows,
            cols: self.cols,
            lanes: self.lanes,
            value: self.value.clone(),
            sa0: self.sa0.clone(),
            sa1: self.sa1.clone(),
            uniform: self.uniform.clone(),
            masked: self.masked.clone(),
        }
    }
}

impl Drop for SlicedPlanes {
    fn drop(&mut self) {
        arena::give(std::mem::take(&mut self.value));
    }
}

impl SlicedPlanes {
    pub(crate) fn new(rows: usize, cols: usize, lanes: usize) -> Self {
        assert!(
            (1..=MAX_LANES).contains(&lanes),
            "sliced backend carries 1..={MAX_LANES} lanes, got {lanes}"
        );
        SlicedPlanes {
            rows,
            cols,
            lanes,
            value: arena::take(rows * cols),
            sa0: Vec::new(),
            sa1: Vec::new(),
            uniform: WearPlane::new(rows, cols),
            masked: vec![Vec::new(); rows],
        }
    }

    /// Number of active lanes (1..=64).
    pub(crate) fn lanes(&self) -> usize {
        self.lanes
    }

    /// Bit mask selecting the active lanes.
    pub(crate) fn active_mask(&self) -> u64 {
        if self.lanes == MAX_LANES {
            u64::MAX
        } else {
            (1u64 << self.lanes) - 1
        }
    }

    #[inline]
    fn idx(&self, row: usize, col: usize) -> usize {
        row * self.cols + col
    }

    /// Sense-amplifier view of one cell word, fault-adjusted per lane.
    #[inline]
    pub(crate) fn read_word(&self, row: usize, col: usize) -> u64 {
        let i = self.idx(row, col);
        let v = self.value[i];
        if self.sa0.is_empty() {
            v
        } else {
            (v | self.sa1[i]) & !self.sa0[i]
        }
    }

    /// Lanes of a cell that host any stuck-at fault.
    #[inline]
    fn fault_word(&self, row: usize, col: usize) -> u64 {
        if self.sa0.is_empty() {
            0
        } else {
            let i = self.idx(row, col);
            self.sa0[i] | self.sa1[i]
        }
    }

    // ---- single-instance (lane 0) views ----

    pub(crate) fn read_bit(&self, row: usize, col: usize) -> bool {
        self.read_word(row, col) & 1 == 1
    }

    pub(crate) fn cell(&self, row: usize, col: usize) -> Cell {
        self.lane_cell(0, row, col)
    }

    pub(crate) fn read_into(&self, row: usize, cols: ColRange, out: &mut Vec<bool>) {
        out.clear();
        out.reserve(cols.len());
        for col in cols {
            out.push(self.read_word(row, col) & 1 == 1);
        }
    }

    pub(crate) fn read_words_into(&self, row: usize, cols: ColRange, out: &mut Vec<u64>) {
        let len = cols.len();
        out.clear();
        out.resize(len.div_ceil(64), 0);
        for (j, col) in cols.enumerate() {
            if self.read_word(row, col) & 1 == 1 {
                out[j / 64] |= 1 << (j % 64);
            }
        }
    }

    // ---- lane-aware I/O ----

    pub(crate) fn lane_fault_at(&self, lane: usize, row: usize, col: usize) -> Option<Fault> {
        if self.sa0.is_empty() {
            return None;
        }
        let (i, bit) = (self.idx(row, col), 1u64 << lane);
        if self.sa0[i] & bit != 0 {
            Some(Fault::StuckAt0)
        } else if self.sa1[i] & bit != 0 {
            Some(Fault::StuckAt1)
        } else {
            None
        }
    }

    /// The [`Cell`] view of one lane of one cell: raw value, exact
    /// per-lane wear, per-lane fault.
    pub(crate) fn lane_cell(&self, lane: usize, row: usize, col: usize) -> Cell {
        let raw = (self.value[self.idx(row, col)] >> lane) & 1 == 1;
        Cell::from_parts(raw, self.lane_writes_at(lane, row, col), self.lane_fault_at(lane, row, col))
    }

    /// Reads one lane's bits of `row` over `cols`.
    pub(crate) fn read_lane_into(&self, lane: usize, row: usize, cols: ColRange, out: &mut Vec<bool>) {
        out.clear();
        out.reserve(cols.len());
        for col in cols {
            out.push((self.read_word(row, col) >> lane) & 1 == 1);
        }
    }

    /// Reads the per-column lane words of `row` over `cols`,
    /// fault-adjusted — the bulk sense path of the batch shift-add.
    pub(crate) fn read_lane_words(&self, row: usize, cols: ColRange, out: &mut Vec<u64>) {
        out.clear();
        out.reserve(cols.len());
        let base = self.idx(row, 0);
        let slice = &self.value[base + cols.start..base + cols.end];
        if self.sa0.is_empty() {
            out.extend_from_slice(slice);
        } else {
            let sa0 = &self.sa0[base + cols.start..base + cols.end];
            let sa1 = &self.sa1[base + cols.start..base + cols.end];
            for j in 0..slice.len() {
                out.push((slice[j] | sa1[j]) & !sa0[j]);
            }
        }
    }

    /// Writes one lane word per column, all lanes at once, with one
    /// uniform wear pulse per cell — the transposed counterpart of
    /// `write_row_words`. Fault lanes keep their value but still wear.
    pub(crate) fn write_lanes(&mut self, row: usize, col_offset: usize, lane_words: &[u64]) {
        if self.sa0.is_empty() {
            let base = self.idx(row, col_offset);
            self.value[base..base + lane_words.len()].copy_from_slice(lane_words);
        } else {
            for (j, &w) in lane_words.iter().enumerate() {
                let col = col_offset + j;
                let keep = self.fault_word(row, col);
                let i = self.idx(row, col);
                self.value[i] = (self.value[i] & keep) | (w & !keep);
            }
        }
        self.uniform
            .add(row, col_offset..col_offset + lane_words.len(), 1);
    }

    /// Writes one lane word per column for the lanes selected by
    /// `mask` only; unselected lanes keep both value and wear. Fault
    /// lanes inside the mask keep their value but still wear. Records
    /// one lane-masked wear entry for the span.
    pub(crate) fn write_lanes_masked(
        &mut self,
        row: usize,
        col_offset: usize,
        lane_words: &[u64],
        mask: u64,
    ) {
        if mask == 0 || lane_words.is_empty() {
            return;
        }
        if self.sa0.is_empty() {
            for (j, &w) in lane_words.iter().enumerate() {
                let i = self.idx(row, col_offset + j);
                self.value[i] = (self.value[i] & !mask) | (w & mask);
            }
        } else {
            for (j, &w) in lane_words.iter().enumerate() {
                let col = col_offset + j;
                let m = mask & !self.fault_word(row, col);
                let i = self.idx(row, col);
                self.value[i] = (self.value[i] & !m) | (w & m);
            }
        }
        self.masked[row].push(MaskedWear {
            start: col_offset as u32,
            end: (col_offset + lane_words.len()) as u32,
            mask,
        });
    }

    // ---- split bookkeeping (batch fast-path shortcuts) ----
    //
    // A batch fast path that computes final cell values in the
    // controller still has to account wear pulse for pulse. These
    // entry points split a write into its two effects: wear without
    // value change, and value change without wear. Composing them in
    // the same spans/masks as the writes they replace leaves every
    // per-lane observable (value, write count, endurance) identical.

    /// Adds `pulses` write pulses of wear to every lane of every cell
    /// in the span, leaving values untouched.
    pub(crate) fn wear_uniform(&mut self, row: usize, cols: ColRange, pulses: u64) {
        self.uniform.add(row, cols, pulses);
    }

    /// Adds `pulses[j]` write pulses of wear to every lane of cell
    /// `col_offset + j`, leaving values untouched.
    pub(crate) fn wear_uniform_dense(&mut self, row: usize, col_offset: usize, pulses: &[u64]) {
        self.uniform.add_dense(row, col_offset, pulses);
    }

    /// Records one masked wear pulse over the span — the wear half of
    /// [`SlicedPlanes::write_lanes_masked`] — without touching values.
    pub(crate) fn wear_masked(&mut self, row: usize, cols: ColRange, mask: u64) {
        if mask == 0 || cols.start >= cols.end {
            return;
        }
        self.masked[row].push(MaskedWear {
            start: cols.start as u32,
            end: cols.end as u32,
            mask,
        });
    }

    /// Stores one lane word per column for the lanes in `mask` — the
    /// value half of [`SlicedPlanes::write_lanes_masked`] — without
    /// recording any wear. Fault lanes keep their value.
    pub(crate) fn store_lane_words(
        &mut self,
        row: usize,
        col_offset: usize,
        words: &[u64],
        mask: u64,
    ) {
        if mask == 0 {
            return;
        }
        if self.sa0.is_empty() {
            let base = self.idx(row, col_offset);
            for (v, &w) in self.value[base..base + words.len()].iter_mut().zip(words) {
                *v = (*v & !mask) | (w & mask);
            }
        } else {
            for (j, &w) in words.iter().enumerate() {
                let col = col_offset + j;
                let m = mask & !self.fault_word(row, col);
                let i = self.idx(row, col);
                self.value[i] = (self.value[i] & !m) | (w & m);
            }
        }
    }

    // ---- broadcast writes (single-instance entry points) ----

    pub(crate) fn write_bits(&mut self, row: usize, col_offset: usize, bits: &[bool]) {
        for (j, &b) in bits.iter().enumerate() {
            let col = col_offset + j;
            let word = if b { u64::MAX } else { 0 };
            let keep = self.fault_word(row, col);
            let i = self.idx(row, col);
            self.value[i] = (self.value[i] & keep) | (word & !keep);
        }
        self.uniform.add(row, col_offset..col_offset + bits.len(), 1);
    }

    pub(crate) fn write_words(&mut self, row: usize, col_offset: usize, words: &[u64], len: usize) {
        self.store_words(row, col_offset, words, len);
        self.uniform.add(row, col_offset..col_offset + len, 1);
    }

    /// The value half of [`SlicedPlanes::write_words`]: broadcasts the
    /// bits to every lane without recording wear.
    pub(crate) fn store_words(&mut self, row: usize, col_offset: usize, words: &[u64], len: usize) {
        for j in 0..len {
            let bit = (words.get(j / 64).copied().unwrap_or(0) >> (j % 64)) & 1 == 1;
            let col = col_offset + j;
            let word = if bit { u64::MAX } else { 0 };
            let keep = self.fault_word(row, col);
            let i = self.idx(row, col);
            self.value[i] = (self.value[i] & keep) | (word & !keep);
        }
    }

    /// Parallel set/reset wave: every lane of every cell in the region
    /// is pulsed to `value`.
    pub(crate) fn fill(&mut self, rows: std::ops::Range<usize>, cols: ColRange, value: bool) {
        let word = if value { u64::MAX } else { 0 };
        for row in rows {
            let base = self.idx(row, 0);
            if self.sa0.is_empty() {
                let slice = &mut self.value[base + cols.start..base + cols.end];
                let mut chunks = slice.chunks_exact_mut(4);
                for c in &mut chunks {
                    c[0] = word;
                    c[1] = word;
                    c[2] = word;
                    c[3] = word;
                }
                for c in chunks.into_remainder() {
                    *c = word;
                }
            } else {
                for col in cols.clone() {
                    let keep = self.fault_word(row, col);
                    let i = base + col;
                    self.value[i] = (self.value[i] & keep) | (word & !keep);
                }
            }
            self.uniform.add(row, cols.clone(), 1);
        }
    }

    // ---- MAGIC ----

    /// First column in `cols` where any *active* lane of `row` reads 0
    /// — the strict-init scan for MAGIC outputs.
    fn first_uninit(&self, row: usize, cols: &ColRange) -> Option<usize> {
        let active = self.active_mask();
        if self.sa0.is_empty() {
            // Fault-free fast path: scan the raw plane slice directly.
            let base = self.idx(row, 0);
            let slice = &self.value[base + cols.start..base + cols.end];
            return slice
                .iter()
                .position(|&v| v & active != active)
                .map(|j| cols.start + j);
        }
        cols.clone()
            .find(|&col| self.read_word(row, col) & active != active)
    }

    /// MAGIC NOR across rows, all lanes of each column in one word op.
    /// Strict-init failures follow the scalar loop's column order: the
    /// first column where **any active lane's** output cell is not
    /// initialized fails the op after the preceding columns have been
    /// driven and worn; `Err(col)` is returned.
    pub(crate) fn nor_rows(
        &mut self,
        inputs: &[usize],
        out: usize,
        cols: ColRange,
        strict: bool,
    ) -> Result<(), usize> {
        let fail_col = if strict { self.first_uninit(out, &cols) } else { None };
        let drive = cols.start..fail_col.unwrap_or(cols.end);
        if drive.start < drive.end {
            if self.sa0.is_empty() && (inputs.len() == 1 || inputs.len() == 2) {
                // Fault-free fast path: disjoint row slices, u64×4
                // chunked pull-down.
                let cols_n = self.cols;
                let in_a = inputs[0];
                let in_b = *inputs.last().expect("non-empty");
                let span = drive.len();
                let (before, rest) = self.value.split_at_mut(out * cols_n);
                let (out_row, after) = rest.split_at_mut(cols_n);
                let pick = |r: usize| -> &[u64] {
                    if r < out {
                        &before[r * cols_n + drive.start..r * cols_n + drive.end]
                    } else {
                        let b = (r - out - 1) * cols_n;
                        &after[b + drive.start..b + drive.end]
                    }
                };
                let (a, b) = (pick(in_a), pick(in_b));
                let o = &mut out_row[drive.clone()];
                let mut i = 0;
                while i + 4 <= span {
                    o[i] &= !(a[i] | b[i]);
                    o[i + 1] &= !(a[i + 1] | b[i + 1]);
                    o[i + 2] &= !(a[i + 2] | b[i + 2]);
                    o[i + 3] &= !(a[i + 3] | b[i + 3]);
                    i += 4;
                }
                while i < span {
                    o[i] &= !(a[i] | b[i]);
                    i += 1;
                }
            } else {
                for col in drive.clone() {
                    let mut any = 0u64;
                    for &r in inputs {
                        any |= self.read_word(r, col);
                    }
                    let pulldown = any & !self.fault_word(out, col);
                    let i = self.idx(out, col);
                    self.value[i] &= !pulldown;
                }
            }
            self.uniform.add(out, drive, 1);
        }
        match fail_col {
            Some(col) => Err(col),
            None => Ok(()),
        }
    }

    /// MAGIC NOR along rows (column-oriented): all lanes of a row's
    /// output cell in one word op, rows in scalar-loop order.
    /// `Err(row)` when any active lane's output cell is uninitialized.
    pub(crate) fn nor_cols(
        &mut self,
        in_cols: &[usize],
        out_col: usize,
        rows: std::ops::Range<usize>,
        strict: bool,
    ) -> Result<(), usize> {
        let active = self.active_mask();
        for row in rows {
            let mut any = 0u64;
            for &c in in_cols {
                any |= self.read_word(row, c);
            }
            if strict && self.read_word(row, out_col) & active != active {
                return Err(row);
            }
            self.drive_word(row, out_col, any);
        }
        Ok(())
    }

    /// Partitioned MAGIC NOR; iteration order matches the scalar loop.
    /// `Err((row, col))` on a strict-init failure of any active lane.
    pub(crate) fn nor_cols_partitioned(
        &mut self,
        rows: std::ops::Range<usize>,
        cols: ColRange,
        part_width: usize,
        in_offsets: &[usize],
        out_offset: usize,
        strict: bool,
    ) -> Result<(), (usize, usize)> {
        let active = self.active_mask();
        for row in rows {
            for base in (cols.start..cols.end).step_by(part_width) {
                let mut any = 0u64;
                for &off in in_offsets {
                    any |= self.read_word(row, base + off);
                }
                if strict && self.read_word(row, base + out_offset) & active != active {
                    return Err((row, base + out_offset));
                }
                self.drive_word(row, base + out_offset, any);
            }
        }
        Ok(())
    }

    /// MAGIC pull-down of all lanes of one cell: lanes whose gate
    /// result is 0 (`any` bit set) move towards 0; fault lanes keep
    /// their value; every lane wears.
    fn drive_word(&mut self, row: usize, col: usize, any: u64) {
        let pulldown = any & !self.fault_word(row, col);
        let i = self.idx(row, col);
        self.value[i] &= !pulldown;
        self.uniform.add(row, col..col + 1, 1);
    }

    /// Periphery shift: every lane's bits move `offset` columns inside
    /// the window (fill broadcast to all lanes), written back through
    /// the per-lane fault masks with one wear pulse per cell.
    pub(crate) fn shift(
        &mut self,
        src: usize,
        dst: usize,
        cols: ColRange,
        offset: isize,
        fill: bool,
    ) {
        let len = cols.len();
        let fill_word = if fill { u64::MAX } else { 0 };
        let mut buf = vec![0u64; len];
        let k = offset.unsigned_abs();
        for (j, slot) in buf.iter_mut().enumerate() {
            let src_j = if offset >= 0 {
                if j < k { None } else { Some(j - k) }
            } else {
                if j + k < len { Some(j + k) } else { None }
            };
            *slot = match src_j {
                Some(s) => self.read_word(src, cols.start + s),
                None => fill_word,
            };
        }
        for (j, &w) in buf.iter().enumerate() {
            let col = cols.start + j;
            let keep = self.fault_word(dst, col);
            let i = self.idx(dst, col);
            self.value[i] = (self.value[i] & keep) | (w & !keep);
        }
        self.uniform.add(dst, cols, 1);
    }

    // ---- faults ----

    fn ensure_fault_planes(&mut self) {
        if self.sa0.is_empty() {
            self.sa0 = vec![0; self.value.len()];
            self.sa1 = vec![0; self.value.len()];
        }
    }

    /// Injects (or clears) a stuck-at fault on **every active lane** of
    /// a cell — the single-instance entry point.
    pub(crate) fn set_fault(&mut self, row: usize, col: usize, fault: Option<Fault>) {
        if self.sa0.is_empty() && fault.is_none() {
            return;
        }
        self.ensure_fault_planes();
        let (i, m) = (self.idx(row, col), self.active_mask());
        self.sa0[i] &= !m;
        self.sa1[i] &= !m;
        match fault {
            Some(Fault::StuckAt0) => self.sa0[i] |= m,
            Some(Fault::StuckAt1) => self.sa1[i] |= m,
            None => {}
        }
    }

    /// Injects (or clears) a stuck-at fault on one lane of a cell.
    pub(crate) fn set_fault_lane(&mut self, lane: usize, row: usize, col: usize, fault: Option<Fault>) {
        if self.sa0.is_empty() && fault.is_none() {
            return;
        }
        self.ensure_fault_planes();
        let (i, bit) = (self.idx(row, col), 1u64 << lane);
        self.sa0[i] &= !bit;
        self.sa1[i] &= !bit;
        match fault {
            Some(Fault::StuckAt0) => self.sa0[i] |= bit,
            Some(Fault::StuckAt1) => self.sa1[i] |= bit,
            None => {}
        }
    }

    /// `true` when no active lane of `row` in `cols` has a fault.
    pub(crate) fn region_fault_free(&self, row: usize, cols: ColRange) -> bool {
        if self.sa0.is_empty() {
            return true;
        }
        let active = self.active_mask();
        cols.into_iter()
            .all(|c| self.fault_word(row, c) & active == 0)
    }

    // ---- wear ----

    /// Exact write count of one lane of one cell: uniform pulses plus
    /// every masked entry covering the column with the lane selected.
    pub(crate) fn lane_writes_at(&self, lane: usize, row: usize, col: usize) -> u64 {
        let bit = 1u64 << lane;
        let col32 = col as u32;
        self.uniform.writes_at(row, col)
            + self.masked[row]
                .iter()
                .filter(|e| e.start <= col32 && col32 < e.end && e.mask & bit != 0)
                .count() as u64
    }

    /// `(max, total, touched)` per-cell write statistics of **all**
    /// lanes in one sweep — `out` must hold `MAX_LANES` slots (only
    /// the active ones are meaningful). Wear that every lane shares —
    /// rows with only uniform wear, and the spans of other rows no
    /// masked entry covers — is folded once and added to every lane at
    /// the end. Masked entries go through an event sweep over entry
    /// boundaries, so each such row costs O(entries · (log entries +
    /// lanes)) instead of O(lanes · cols): per-lane wear is constant
    /// between boundaries, letting whole segments fold into the
    /// statistics at once.
    pub(crate) fn lane_wear_stats_all(&self) -> Vec<WearStats> {
        let mut out = vec![WearStats::default(); MAX_LANES];
        let mut shared = WearStats::default();
        let mut events: Vec<(u32, u64, i32)> = Vec::new();
        let mut uni_segs: Vec<(usize, u64)> = Vec::new();
        for row in 0..self.rows {
            let entries = &self.masked[row];
            if entries.is_empty() {
                shared.merge(self.uniform.row_stats(row));
                continue;
            }
            uni_segs.clear();
            let mut c = 0usize;
            self.uniform.for_each_segment(row, |w, n| {
                uni_segs.push((c, w));
                c += n;
            });
            events.clear();
            events.reserve(entries.len() * 2);
            for e in entries {
                events.push((e.start, e.mask, 1));
                events.push((e.end, e.mask, -1));
            }
            events.sort_unstable_by_key(|&(col, _, _)| col);

            let mut count = [0i32; MAX_LANES];
            let mut covered = 0i32; // active entries; 0 ⇒ all counts are 0
            let (mut ei, mut ui) = (0usize, 0usize);
            let mut col = 0usize;
            while col < self.cols {
                while ei < events.len() && events[ei].0 as usize == col {
                    let (_, mask, delta) = events[ei];
                    let mut m = mask;
                    while m != 0 {
                        count[m.trailing_zeros() as usize] += delta;
                        m &= m - 1;
                    }
                    covered += delta;
                    ei += 1;
                }
                while ui + 1 < uni_segs.len() && uni_segs[ui + 1].0 <= col {
                    ui += 1;
                }
                let u = uni_segs[ui].1;
                let next_event = events
                    .get(ei)
                    .map_or(self.cols, |&(c, _, _)| c as usize);
                let next_uni = uni_segs
                    .get(ui + 1)
                    .map_or(self.cols, |&(c, _)| c);
                let next = next_event.min(next_uni).min(self.cols);
                let len = next - col;
                if covered == 0 {
                    // Purely uniform span — every lane moves in lockstep.
                    shared.add_run(u, len);
                } else {
                    for (lane, s) in out.iter_mut().enumerate() {
                        s.add_run(u + count[lane] as u64, len);
                    }
                }
                col = next;
            }
        }
        for s in &mut out {
            s.merge(shared);
        }
        out
    }

    /// `(max, total, touched)` of one lane; lane 0 is what the generic
    /// [`crate::EnduranceReport::from_array`] observes on a sliced
    /// array.
    pub(crate) fn lane_wear_stats(&self, lane: usize) -> WearStats {
        self.lane_wear_stats_all()[lane]
    }

    pub(crate) fn reset_wear(&mut self) {
        self.uniform.reset();
        for m in &mut self.masked {
            m.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_are_independent_on_write_and_read() {
        let mut p = SlicedPlanes::new(2, 8, 64);
        p.write_lanes(0, 2, &[0b01, 0b10, u64::MAX]);
        assert!(p.read_lane_into_collect(0, 0, 2..5) == vec![true, false, true]);
        assert!(p.read_lane_into_collect(1, 0, 2..5) == vec![false, true, true]);
        assert!(p.read_lane_into_collect(63, 0, 2..5) == vec![false, false, true]);
        // Lane-0 view matches the generic read path.
        assert!(p.read_bit(0, 2));
        assert!(!p.read_bit(0, 3));
    }

    impl SlicedPlanes {
        fn read_lane_into_collect(&self, lane: usize, row: usize, cols: ColRange) -> Vec<bool> {
            let mut v = Vec::new();
            self.read_lane_into(lane, row, cols, &mut v);
            v
        }
    }

    #[test]
    fn broadcast_write_reaches_every_lane() {
        let mut p = SlicedPlanes::new(1, 4, 64);
        p.write_bits(0, 0, &[true, false, true, true]);
        for lane in [0, 1, 31, 63] {
            assert_eq!(
                p.read_lane_into_collect(lane, 0, 0..4),
                vec![true, false, true, true],
                "lane {lane}"
            );
        }
    }

    #[test]
    fn masked_write_leaves_unselected_lanes_untouched() {
        let mut p = SlicedPlanes::new(1, 4, 64);
        p.write_lanes(0, 0, &[u64::MAX; 4]);
        // Flip lanes 1 and 3 to zero on columns 1..3.
        p.write_lanes_masked(0, 1, &[0, 0], 0b1010);
        assert_eq!(p.read_lane_into_collect(0, 0, 0..4), vec![true; 4]);
        assert_eq!(
            p.read_lane_into_collect(1, 0, 0..4),
            vec![true, false, false, true]
        );
        assert_eq!(
            p.read_lane_into_collect(3, 0, 0..4),
            vec![true, false, false, true]
        );
        // Wear: masked lanes +1 on the span, others untouched by it.
        assert_eq!(p.lane_writes_at(1, 0, 1), 2);
        assert_eq!(p.lane_writes_at(0, 0, 1), 1);
        assert_eq!(p.lane_writes_at(1, 0, 0), 1);
    }

    #[test]
    fn nor_rows_is_lanewise() {
        let mut p = SlicedPlanes::new(3, 2, 64);
        // lane 0: inputs (1, 0) → NOR 0; lane 1: inputs (0, 0) → NOR 1.
        p.write_lanes(0, 0, &[0b01, 0b00]);
        p.write_lanes(1, 0, &[0b00, 0b00]);
        p.fill(2..3, 0..2, true);
        p.nor_rows(&[0, 1], 2, 0..2, true).unwrap();
        assert_eq!(p.read_lane_into_collect(0, 2, 0..2), vec![false, true]);
        assert_eq!(p.read_lane_into_collect(1, 2, 0..2), vec![true, true]);
    }

    #[test]
    fn strict_failure_prefix_and_active_mask() {
        let mut p = SlicedPlanes::new(2, 8, 2);
        // Initialize only columns 0..5 of the output row.
        p.fill(1..2, 0..5, true);
        let err = p.nor_rows(&[0], 1, 0..8, true).unwrap_err();
        assert_eq!(err, 5);
        // Prefix driven and worn (fill + drive), failing column only filled... not at all.
        assert_eq!(p.lane_writes_at(0, 1, 4), 2);
        assert_eq!(p.lane_writes_at(1, 1, 4), 2);
        assert_eq!(p.lane_writes_at(0, 1, 5), 0);
        // Inactive lanes don't trip the strict check: lane 2+ are zero
        // everywhere, yet columns 0..5 pass because only lanes 0..2 count.
    }

    #[test]
    fn per_lane_faults_pin_reads_and_block_writes() {
        let mut p = SlicedPlanes::new(1, 4, 64);
        p.set_fault_lane(3, 0, 1, Some(Fault::StuckAt1));
        p.set_fault_lane(5, 0, 1, Some(Fault::StuckAt0));
        p.write_bits(0, 0, &[false, false, false, false]);
        assert!(!p.read_bit(0, 1), "lane 0 unaffected");
        assert!((p.read_word(0, 1) >> 3) & 1 == 1, "lane 3 pinned to 1");
        p.write_lanes(0, 1, &[u64::MAX]);
        assert!((p.read_word(0, 1) >> 5) & 1 == 0, "lane 5 pinned to 0");
        // Clearing reveals the preserved underlying value.
        p.set_fault_lane(3, 0, 1, None);
        assert!((p.value[1] >> 3) & 1 == 0, "write was blocked while faulty");
    }

    #[test]
    fn lane_wear_stats_combine_uniform_and_masked() {
        let mut p = SlicedPlanes::new(1, 4, 64);
        p.write_bits(0, 0, &[true; 4]); // uniform +1 everywhere
        p.write_lanes_masked(0, 0, &[0, 0], 0b1); // lane 0, cols 0..2
        p.write_lanes_masked(0, 1, &[0], 0b1); // lane 0, col 1
        let all = p.lane_wear_stats_all();
        let stats = |max, total, touched| WearStats {
            max,
            total,
            touched,
        };
        // Lane 0 per column: uniform 1 everywhere, +1 on cols 0..2,
        // +1 more on col 1 ⇒ [2, 3, 1, 1].
        assert_eq!(all[0], stats(3, 2 + 3 + 1 + 1, 4));
        assert_eq!(all[1], stats(1, 4, 4));
        assert_eq!(p.lane_writes_at(0, 0, 1), 3);
        assert_eq!(p.lane_writes_at(1, 0, 1), 1);
    }

    #[test]
    fn shift_moves_all_lanes() {
        let mut p = SlicedPlanes::new(2, 4, 64);
        p.write_lanes(0, 0, &[0b01, 0b10, 0b11, 0b00]);
        p.shift(0, 1, 0..4, 1, true);
        // Destination: [fill, src0, src1, src2], fill broadcast 1s.
        assert_eq!(p.read_word(1, 0), u64::MAX);
        assert_eq!(p.read_word(1, 1), 0b01);
        assert_eq!(p.read_word(1, 2), 0b10);
        assert_eq!(p.read_word(1, 3), 0b11);
        // Source untouched.
        assert_eq!(p.read_word(0, 0), 0b01);
    }

    #[test]
    fn arena_recycles_planes() {
        let p = SlicedPlanes::new(4, 16, 8);
        let cap = p.value.capacity();
        drop(p);
        let q = SlicedPlanes::new(4, 16, 8);
        assert_eq!(q.value.capacity(), cap, "value plane came from the arena");
        assert!(q.value.iter().all(|&w| w == 0), "recycled plane is zeroed");
    }
}
