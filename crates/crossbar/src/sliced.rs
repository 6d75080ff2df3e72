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
//!   `(range, lane-mask, pulses)` wear entry instead of per-cell
//!   counters, or, for the closed-form shift-add, through
//!   [`SlicedPlanes::add_record`]: one window record per region of
//!   the row, folded per lane in closed form;
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
use crate::geometry::{Beside, ColRange};
use crate::plan::RowKernels;
use crate::wear::{overlaps, LaneLimbs, WearPlane, WearStats, WindowRecord};

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

/// One lane-masked wear increment: `pulses` write pulses on columns
/// `[start, end)` of a row, for every lane whose bit is set in `mask`.
#[derive(Debug, Clone, Copy)]
struct MaskedWear {
    start: u32,
    end: u32,
    mask: u64,
    pulses: u64,
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
    /// Foldable window records, per row, hulls pairwise disjoint,
    /// applied after `uniform`.
    records: Vec<Vec<WindowRecord>>,
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
            records: self.records.clone(),
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
            records: vec![Vec::new(); rows],
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

    /// Whether no fault was ever injected (the fault planes are
    /// unallocated) — what a [`crate::plan::Plan`] requires.
    pub(crate) fn fault_free(&self) -> bool {
        self.sa0.is_empty()
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
        Cell::from_parts(
            raw,
            self.lane_writes_at(lane, row, col),
            self.lane_fault_at(lane, row, col),
        )
    }

    /// Reads one lane's bits of `row` over `cols`.
    pub(crate) fn read_lane_into(
        &self,
        lane: usize,
        row: usize,
        cols: ColRange,
        out: &mut Vec<bool>,
    ) {
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
            pulses: 1,
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

    /// Lays `record`'s pulses on `row` — the wear half of the masked
    /// writes its windows stand for — without touching values. The row
    /// keeps its records' hulls pairwise disjoint: one that meets the
    /// new record's hull first turns every record of the row into
    /// masked entries, and so does a record that is not foldable.
    pub(crate) fn add_record(&mut self, row: usize, record: WindowRecord) {
        let hull = record.hull();
        if self.records[row].iter().any(|r| overlaps(&r.hull(), &hull)) {
            for old in std::mem::take(&mut self.records[row]) {
                self.masked[row].extend(masked_entries(&old));
            }
        }
        if record.foldable() {
            self.records[row].push(record);
        } else {
            self.masked[row].extend(masked_entries(&record));
        }
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
        self.uniform
            .add(row, col_offset..col_offset + bits.len(), 1);
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
        self.fill_values(rows.clone(), cols.clone(), value);
        for row in rows {
            self.uniform.add(row, cols.clone(), 1);
        }
    }

    // ---- MAGIC ----

    /// MAGIC NOR across rows, all lanes of each column in one word op.
    /// Strict-init failures follow the scalar loop's column order: the
    /// first column where **any active lane's** output cell is not
    /// initialized fails the op after the preceding columns have been
    /// driven and worn; `Err(col)` is returned.
    ///
    /// A fault-free NOR of one or two rows runs [`pull_down`], which
    /// checks and drives the output in one pass; other NORs check the
    /// whole span first and then drive cell by cell through the fault
    /// masks.
    pub(crate) fn nor_rows(
        &mut self,
        inputs: &[usize],
        out: usize,
        cols: ColRange,
        strict: bool,
    ) -> Result<(), usize> {
        let active = self.active_mask();
        let fail_col = if self.sa0.is_empty() && (inputs.len() == 1 || inputs.len() == 2) {
            let (in_a, in_b) = (inputs[0], inputs[inputs.len() - 1]);
            let (out_row, rows) = Beside::split(&mut self.value, self.cols, out);
            let (a, b) = (&rows.row(in_a)[cols.clone()], &rows.row(in_b)[cols.clone()]);
            let init = if strict { active } else { 0 };
            pull_down(&mut out_row[cols.clone()], a, b, init).map(|j| cols.start + j)
        } else {
            let fail_col = if strict {
                cols.clone()
                    .find(|&col| self.read_word(out, col) & active != active)
            } else {
                None
            };
            for col in cols.start..fail_col.unwrap_or(cols.end) {
                let mut any = 0u64;
                for &r in inputs {
                    any |= self.read_word(r, col);
                }
                let pulldown = any & !self.fault_word(out, col);
                let i = self.idx(out, col);
                self.value[i] &= !pulldown;
            }
            fail_col
        };
        let drive = cols.start..fail_col.unwrap_or(cols.end);
        if drive.start < drive.end {
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
        self.shift_values(src, dst, cols.clone(), offset, fill);
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
    pub(crate) fn set_fault_lane(
        &mut self,
        lane: usize,
        row: usize,
        col: usize,
        fault: Option<Fault>,
    ) {
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
    /// the pulses of every masked entry covering the column with the
    /// lane selected and of every record window doing so.
    pub(crate) fn lane_writes_at(&self, lane: usize, row: usize, col: usize) -> u64 {
        let bit = 1u64 << lane;
        let col32 = col as u32;
        let records: u64 = self.records[row]
            .iter()
            .map(|r| r.lane_writes_at(lane, col))
            .sum();
        self.uniform.writes_at(row, col)
            + records
            + self.masked[row]
                .iter()
                .filter(|e| e.start <= col32 && col32 < e.end && e.mask & bit != 0)
                .map(|e| e.pulses)
                .sum::<u64>()
    }

    /// `(max, total, touched)` per-cell write statistics of **all**
    /// lanes in one sweep, as `MAX_LANES` slots (only the active ones
    /// are meaningful). Rows with only uniform wear are folded once and
    /// added to every lane at the end. On a row with masked entries or
    /// records the uniform wear still counts once for all lanes (its
    /// total, its touched cells and its max), as segments of constant
    /// wear the per-lane wear is laid on:
    ///
    /// * each record folds per lane in closed form
    ///   ([`WindowRecord::fold`]), `O(segments it meets)` per
    ///   lane however many windows it stands for. That needs no masked
    ///   entry inside its hull (records' hulls are disjoint already);
    ///   otherwise the row's records expand into masked entries first
    ///   and fold with them, exactly;
    /// * the masked entries fold in one sweep over their ends
    ///   ([`LaneSweep::fold_entries`]).
    pub(crate) fn lane_wear_stats_all(&self) -> Vec<WearStats> {
        let lanes = self.lanes;
        let mut shared = WearStats::default();
        let mut sweep = LaneSweep::new(self.active_mask());
        let mut segs: Vec<(usize, usize, u64)> = Vec::new();
        let mut expanded: Vec<MaskedWear> = Vec::new();
        let mut bits = LaneLimbs::default();
        for row in 0..self.rows {
            let (masked, records) = (&self.masked[row], &self.records[row]);
            if masked.is_empty() && records.is_empty() {
                shared.merge(self.uniform.row_stats(row));
                continue;
            }
            segs.clear();
            self.uniform.background_segments(row, |s, e, u| {
                shared.add_run(u, e - s);
                segs.push((s, e, u));
            });
            let start = masked.iter().map(|e| e.start as usize).min().unwrap_or(0);
            let end = masked.iter().map(|e| e.end as usize).max().unwrap_or(0);
            let closed = records.iter().all(|r| !overlaps(&r.hull(), &(start..end)));
            let entries = if closed {
                masked
            } else {
                expanded.clear();
                expanded.extend_from_slice(masked);
                expanded.extend(records.iter().flat_map(masked_entries));
                &expanded
            };
            sweep.fold_entries(entries, &segs, lanes);
            if closed {
                for record in records {
                    record.fold(&mut bits, lanes, &segs, &mut sweep.stats);
                }
            }
        }
        let mut out = sweep.stats.to_vec();
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
        for r in &mut self.records {
            r.clear();
        }
    }
}

impl RowKernels for SlicedPlanes {
    /// Fault lanes keep their value.
    fn fill_values(&mut self, rows: std::ops::Range<usize>, cols: ColRange, value: bool) {
        let word = if value { u64::MAX } else { 0 };
        for row in rows {
            let base = self.idx(row, 0);
            if self.sa0.is_empty() {
                self.value[base + cols.start..base + cols.end].fill(word);
            } else {
                for col in cols.clone() {
                    let keep = self.fault_word(row, col);
                    let i = base + col;
                    self.value[i] = (self.value[i] & keep) | (word & !keep);
                }
            }
        }
    }

    fn store_nor(&mut self, out: usize, a: usize, b: usize, cols: ColRange) {
        debug_assert!(self.sa0.is_empty(), "plans run on fault-free arrays");
        let (out_row, rows) = Beside::split(&mut self.value, self.cols, out);
        let (a, b) = (&rows.row(a)[cols.clone()], &rows.row(b)[cols.clone()]);
        for ((o, &x), &y) in out_row[cols].iter_mut().zip(a).zip(b) {
            *o = !(x | y);
        }
    }

    /// Without faults the cell words move as one `copy_within` (which
    /// handles `src == dst`) plus a fill of the vacated columns.
    fn shift_values(&mut self, src: usize, dst: usize, cols: ColRange, offset: isize, fill: bool) {
        let len = cols.len();
        let fill_word = if fill { u64::MAX } else { 0 };
        let k = offset.unsigned_abs();
        if self.sa0.is_empty() {
            let (s, d) = (self.idx(src, cols.start), self.idx(dst, cols.start));
            let k = k.min(len);
            let vacated = if offset >= 0 {
                self.value.copy_within(s..s + len - k, d + k);
                d..d + k
            } else {
                self.value.copy_within(s + k..s + len, d);
                d + len - k..d + len
            };
            self.value[vacated].fill(fill_word);
            return;
        }
        let mut buf = vec![0u64; len];
        for (j, slot) in buf.iter_mut().enumerate() {
            let src_j = if offset >= 0 {
                if j < k {
                    None
                } else {
                    Some(j - k)
                }
            } else {
                if j + k < len {
                    Some(j + k)
                } else {
                    None
                }
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
    }

    fn add_wear(&mut self, row: usize, cols: ColRange, pulses: u64) {
        self.uniform.add(row, cols, pulses);
    }
}

/// `record`'s windows as masked entries, one per offset some lane
/// takes.
fn masked_entries(record: &WindowRecord) -> impl Iterator<Item = MaskedWear> + '_ {
    record.entries().map(|(cols, mask)| MaskedWear {
        start: cols.start as u32,
        end: cols.end as u32,
        mask,
        pulses: record.pulses(),
    })
}

/// One end of a lane-masked wear entry, as the per-lane sweep visits it.
#[derive(Debug, Clone, Copy)]
struct LaneEvent {
    col: u32,
    start: bool,
    mask: u64,
    pulses: u64,
    /// Columns the entry spans.
    len: u64,
}

/// Per-lane state of [`SlicedPlanes::lane_wear_stats_all`]'s sweep.
struct LaneSweep {
    /// The array's active lanes.
    active: u64,
    /// Masked pulses on the current column of the current row.
    count: [u64; MAX_LANES],
    /// Where the lane's coverage of the current zero segment began.
    from: [usize; MAX_LANES],
    /// The lane's masked wear folded so far: every entry's pulses in
    /// `total`, the peaks of uniform plus masked wear in `max`, and
    /// coverage of zero-uniform segments in `touched`.
    stats: [WearStats; MAX_LANES],
    /// Entry starts and ends, each by column, and both merged.
    starts: Vec<LaneEvent>,
    ends: Vec<LaneEvent>,
    events: Vec<LaneEvent>,
}

impl LaneSweep {
    fn new(active: u64) -> Self {
        LaneSweep {
            active,
            count: [0; MAX_LANES],
            from: [0; MAX_LANES],
            stats: [WearStats::default(); MAX_LANES],
            starts: Vec::new(),
            ends: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Folds one row's masked entries into the lanes' stats over the
    /// row's uniform segments `segs`. Each entry adds to its lanes:
    ///
    /// * `total`: `pulses × len` per selected lane, added at the
    ///   entry's start (it is additive, so no run is ever closed);
    /// * `max`: a lane's wear changes only where one of its entries
    ///   starts or ends or the uniform wear changes, and only a start
    ///   or a uniform boundary can raise it, so those are the only
    ///   columns where it is read (at equal columns ends go first);
    /// * `touched`: the lane's own coverage, counted only inside
    ///   segments whose uniform wear is zero.
    ///
    /// That costs O(entry lanes + uniform segments · lanes) per row
    /// instead of O(lanes · cols), with no run closed per lane-event.
    fn fold_entries(&mut self, entries: &[MaskedWear], segs: &[(usize, usize, u64)], lanes: usize) {
        if entries.is_empty() {
            return;
        }
        // Starts and ends each sorted by column (stable sorts run in
        // linear time on the nearly ordered entries the stages push),
        // then merged with ends first at one column.
        self.starts.clear();
        self.ends.clear();
        for e in entries.iter().filter(|e| e.mask & self.active != 0) {
            let (mask, len) = (e.mask & self.active, u64::from(e.end - e.start));
            let event = |col, start| LaneEvent {
                col,
                start,
                mask,
                pulses: e.pulses,
                len,
            };
            self.starts.push(event(e.start, true));
            self.ends.push(event(e.end, false));
        }
        self.starts.sort_by_key(|e| e.col);
        self.ends.sort_by_key(|e| e.col);
        let mut events = std::mem::take(&mut self.events);
        events.clear();
        let (mut s, mut t) = (self.starts.iter().peekable(), self.ends.iter().peekable());
        while let Some(&next) = match (s.peek(), t.peek()) {
            (Some(x), Some(y)) if x.col < y.col => s.next(),
            (_, Some(_)) => t.next(),
            _ => s.next(),
        } {
            events.push(next);
        }

        self.count = [0; MAX_LANES];
        let mut next = events.iter().peekable();
        for &(seg_start, seg_end, u) in segs {
            self.from[..lanes].fill(seg_start);
            // Events on the segment's first column settle before every
            // lane reads its level there.
            while let Some(e) = next.next_if(|e| e.col as usize == seg_start) {
                self.apply(e, u);
            }
            for l in 0..lanes {
                self.stats[l].max = self.stats[l].max.max(u + self.count[l]);
            }
            while let Some(e) = next.next_if(|e| (e.col as usize) < seg_end) {
                self.apply(e, u);
            }
            if u == 0 {
                for l in (0..lanes).filter(|&l| self.count[l] > 0) {
                    self.stats[l].touched += seg_end - self.from[l];
                }
            }
        }
        self.events = events;
    }

    /// Applies one event inside a segment of uniform wear `u`: a start
    /// is the only place a lane's level can rise, an end in a zero
    /// segment the only place its coverage can stop.
    #[inline]
    fn apply(&mut self, e: &LaneEvent, u: u64) {
        let (col, p) = (e.col as usize, e.pulses);
        match (e.start, u == 0) {
            (true, zero) => for_lanes(e.mask, |l| {
                if zero && self.count[l] == 0 {
                    self.from[l] = col;
                }
                self.count[l] += p;
                let s = &mut self.stats[l];
                s.total += p * e.len;
                s.max = s.max.max(u + self.count[l]);
            }),
            (false, true) => for_lanes(e.mask, |l| {
                self.count[l] -= p;
                if self.count[l] == 0 {
                    self.stats[l].touched += col - self.from[l];
                }
            }),
            (false, false) => for_lanes(e.mask, |l| self.count[l] -= p),
        }
    }
}

/// Calls `f` with each lane whose bit is set in `mask`, lowest first.
#[inline]
fn for_lanes(mut mask: u64, mut f: impl FnMut(usize)) {
    while mask != 0 {
        f(mask.trailing_zeros() as usize);
        mask &= mask - 1;
    }
}

/// Fault-free MAGIC pull-down `o &= !(a | b)` fused with the
/// strict-init check: the first word of `o` missing a bit of `init`
/// (`0` checks nothing) fails, the words before it are driven and it
/// and the words after it are not. Returns the failing word's index.
/// Whole chunks are checked and driven as fixed-size array loops the
/// compiler vectorizes; the failing chunk and the tail go word by word.
fn pull_down(o: &mut [u64], a: &[u64], b: &[u64], init: u64) -> Option<usize> {
    const CHUNK: usize = 16;
    let mut done = 0;
    let chunks = o
        .chunks_exact_mut(CHUNK)
        .zip(a.chunks_exact(CHUNK))
        .zip(b.chunks_exact(CHUNK));
    for ((oc, ac), bc) in chunks {
        let oc: &mut [u64; CHUNK] = oc.try_into().expect("exact chunk");
        let ac: &[u64; CHUNK] = ac.try_into().expect("exact chunk");
        let bc: &[u64; CHUNK] = bc.try_into().expect("exact chunk");
        if oc.iter().fold(init, |ready, &v| ready & v) != init {
            break;
        }
        for ((v, &x), &y) in oc.iter_mut().zip(ac).zip(bc) {
            *v &= !(x | y);
        }
        done += CHUNK;
    }
    for i in done..o.len() {
        if o[i] & init != init {
            return Some(i);
        }
        o[i] &= !(a[i] | b[i]);
    }
    None
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
