//! The crossbar array: state, MAGIC operations and periphery.
//!
//! Methods on [`Crossbar`] mutate state and update per-cell wear; clock
//! cycles are charged by the [`crate::Executor`] that drives them.
//!
//! Two interchangeable backends store the state (see [`BackendKind`]):
//! the original per-cell [`Cell`] vector, and a bit-packed plane of
//! `u64` words per row that executes row-parallel MAGIC as `O(words)`
//! bitwise ops. Both are observationally identical — values, faults,
//! wear counts and error ordering — which the `cim-check` differential
//! suite asserts case by case.

use crate::cell::{Cell, Fault};
use crate::error::{Axis, CrossbarError};
use crate::geometry::{ColRange, Region};
use crate::packed::PackedPlanes;
use crate::sliced::{SlicedPlanes, MAX_LANES};
use crate::wear::WearStats;
use crate::PRACTICAL_LINE_LIMIT;
use std::sync::OnceLock;

/// Which state backend a [`Crossbar`] uses.
///
/// The default is [`BackendKind::Packed`]; set the environment
/// variable `CIM_XBAR_BACKEND=scalar` to flip new arrays back to the
/// per-cell backend (read once per process), or construct explicitly
/// via [`Crossbar::with_backend`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// One [`Cell`] struct per bit — simple, the differential gold.
    Scalar,
    /// `u64` bit-plane words per row, sparse fault masks, lazy wear.
    Packed,
    /// Lane-transposed batch backend: one `u64` word per cell, each
    /// bit an independent problem instance (see
    /// [`Crossbar::new_sliced`]). Via [`Crossbar::with_backend`] it
    /// carries the full 64 lanes.
    Sliced,
}

impl BackendKind {
    /// The process-wide default backend: `Packed`, unless the
    /// `CIM_XBAR_BACKEND` environment variable says `scalar`.
    pub fn default_kind() -> BackendKind {
        static DEFAULT: OnceLock<BackendKind> = OnceLock::new();
        *DEFAULT.get_or_init(|| match std::env::var("CIM_XBAR_BACKEND").as_deref() {
            Ok("scalar") => BackendKind::Scalar,
            _ => BackendKind::Packed,
        })
    }
}

#[derive(Debug, Clone)]
enum Backing {
    Scalar(Vec<Cell>),
    Packed(PackedPlanes),
    Sliced(SlicedPlanes),
}

/// A rows × columns grid of memristors with MAGIC compute support.
///
/// See the [crate-level documentation](crate) for the execution model
/// and a usage example.
#[derive(Debug, Clone)]
pub struct Crossbar {
    rows: usize,
    cols: usize,
    state: Backing,
}

impl Crossbar {
    /// Creates a crossbar of `rows × cols` cells, all logic 0, on the
    /// process default backend ([`BackendKind::default_kind`]).
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::EmptyDimension`] if either dimension is
    /// zero.
    pub fn new(rows: usize, cols: usize) -> Result<Self, CrossbarError> {
        Self::with_backend(rows, cols, BackendKind::default_kind())
    }

    /// Creates a crossbar on the scalar per-cell backend.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::EmptyDimension`] if either dimension is
    /// zero.
    pub fn new_scalar(rows: usize, cols: usize) -> Result<Self, CrossbarError> {
        Self::with_backend(rows, cols, BackendKind::Scalar)
    }

    /// Creates a crossbar on an explicit backend.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::EmptyDimension`] if either dimension is
    /// zero.
    pub fn with_backend(
        rows: usize,
        cols: usize,
        kind: BackendKind,
    ) -> Result<Self, CrossbarError> {
        if rows == 0 || cols == 0 {
            return Err(CrossbarError::EmptyDimension);
        }
        let state = match kind {
            BackendKind::Scalar => Backing::Scalar(vec![Cell::default(); rows * cols]),
            BackendKind::Packed => Backing::Packed(PackedPlanes::new(rows, cols)),
            BackendKind::Sliced => Backing::Sliced(SlicedPlanes::new(rows, cols, MAX_LANES)),
        };
        Ok(Crossbar { rows, cols, state })
    }

    /// Creates a lane-transposed batch crossbar: every cell holds one
    /// bit per *lane*, and each of the `lanes` (1..=64) lanes is an
    /// independent problem instance driven by the same program. See
    /// the `sliced` module docs for the accounting model.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::EmptyDimension`] on a zero dimension
    /// and [`CrossbarError::LaneOutOfRange`] when `lanes` is 0 or
    /// above 64.
    pub fn new_sliced(rows: usize, cols: usize, lanes: usize) -> Result<Self, CrossbarError> {
        if rows == 0 || cols == 0 {
            return Err(CrossbarError::EmptyDimension);
        }
        if lanes == 0 || lanes > MAX_LANES {
            return Err(CrossbarError::LaneOutOfRange {
                lane: lanes,
                lanes: MAX_LANES,
            });
        }
        Ok(Crossbar {
            rows,
            cols,
            state: Backing::Sliced(SlicedPlanes::new(rows, cols, lanes)),
        })
    }

    /// Batch lanes this array carries: 1 on the scalar/packed
    /// backends, the constructed lane count on the sliced backend.
    pub fn lanes(&self) -> usize {
        match &self.state {
            Backing::Sliced(p) => p.lanes(),
            _ => 1,
        }
    }

    fn check_lane(&self, lane: usize) -> Result<(), CrossbarError> {
        let lanes = self.lanes();
        if lane >= lanes {
            Err(CrossbarError::LaneOutOfRange { lane, lanes })
        } else {
            Ok(())
        }
    }

    /// The backend this array runs on.
    pub fn backend_kind(&self) -> BackendKind {
        match &self.state {
            Backing::Scalar(_) => BackendKind::Scalar,
            Backing::Packed(_) => BackendKind::Packed,
            Backing::Sliced(_) => BackendKind::Sliced,
        }
    }

    /// Number of word lines (rows).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of bit lines (columns).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of memristors — the paper's "area" metric.
    pub fn cell_count(&self) -> usize {
        self.rows * self.cols
    }

    fn idx(&self, row: usize, col: usize) -> usize {
        row * self.cols + col
    }

    fn check_row(&self, row: usize) -> Result<(), CrossbarError> {
        if row >= self.rows {
            Err(CrossbarError::RowOutOfRange {
                row,
                rows: self.rows,
            })
        } else {
            Ok(())
        }
    }

    fn check_cols(&self, cols: &ColRange) -> Result<(), CrossbarError> {
        if cols.end > self.cols {
            Err(CrossbarError::ColOutOfRange {
                col: cols.end.saturating_sub(1),
                cols: self.cols,
            })
        } else {
            Ok(())
        }
    }

    /// Reads a single cell.
    ///
    /// # Errors
    ///
    /// Returns an error if the coordinates are out of range.
    pub fn read_cell(&self, row: usize, col: usize) -> Result<bool, CrossbarError> {
        self.check_row(row)?;
        self.check_cols(&(col..col + 1))?;
        Ok(match &self.state {
            Backing::Scalar(cells) => cells[self.idx(row, col)].read(),
            Backing::Packed(p) => p.read_bit(row, col),
            Backing::Sliced(p) => p.read_bit(row, col),
        })
    }

    /// Reads the bits of `row` over the column span (sense amplifiers).
    ///
    /// Allocates a fresh buffer per call; hot paths should prefer
    /// [`Crossbar::read_row_into`], which reuses one.
    ///
    /// # Errors
    ///
    /// Returns an error if the coordinates are out of range.
    pub fn read_row_bits(&self, row: usize, cols: ColRange) -> Result<Vec<bool>, CrossbarError> {
        let mut out = Vec::new();
        self.read_row_into(row, cols, &mut out)?;
        Ok(out)
    }

    /// Reads the bits of `row` over the column span into `out`
    /// (cleared first) — the allocation-free variant of
    /// [`Crossbar::read_row_bits`].
    ///
    /// # Errors
    ///
    /// Returns an error if the coordinates are out of range.
    pub fn read_row_into(
        &self,
        row: usize,
        cols: ColRange,
        out: &mut Vec<bool>,
    ) -> Result<(), CrossbarError> {
        self.check_row(row)?;
        self.check_cols(&cols)?;
        match &self.state {
            Backing::Scalar(cells) => {
                out.clear();
                out.extend(cols.map(|c| cells[row * self.cols + c].read()));
            }
            Backing::Packed(p) => p.read_into(row, cols, out),
            Backing::Sliced(p) => p.read_into(row, cols, out),
        }
        Ok(())
    }

    /// Reads the bits of `row` over the column span as little-endian
    /// `u64` words aligned to `cols.start` — the word-parallel sense
    /// path used by bulk arithmetic such as the in-row multiplier.
    ///
    /// # Errors
    ///
    /// Returns an error if the coordinates are out of range.
    pub fn read_row_words(
        &self,
        row: usize,
        cols: ColRange,
        out: &mut Vec<u64>,
    ) -> Result<(), CrossbarError> {
        self.check_row(row)?;
        self.check_cols(&cols)?;
        match &self.state {
            Backing::Scalar(cells) => {
                let len = cols.len();
                out.clear();
                out.resize(len.div_ceil(64), 0);
                for (j, c) in cols.enumerate() {
                    if cells[row * self.cols + c].read() {
                        out[j / 64] |= 1 << (j % 64);
                    }
                }
            }
            Backing::Packed(p) => p.read_words_into(row, cols, out),
            Backing::Sliced(p) => p.read_words_into(row, cols, out),
        }
        Ok(())
    }

    /// Writes `bits` into `row` starting at column `col_offset`.
    ///
    /// # Errors
    ///
    /// Returns an error if the span exceeds the array.
    pub fn write_row(
        &mut self,
        row: usize,
        col_offset: usize,
        bits: &[bool],
    ) -> Result<(), CrossbarError> {
        self.check_row(row)?;
        self.check_cols(&(col_offset..col_offset + bits.len()))?;
        match &mut self.state {
            Backing::Scalar(cells) => {
                for (i, &b) in bits.iter().enumerate() {
                    cells[row * self.cols + col_offset + i].write(b);
                }
            }
            Backing::Packed(p) => p.write_bits(row, col_offset, bits),
            Backing::Sliced(p) => p.write_bits(row, col_offset, bits),
        }
        Ok(())
    }

    /// Writes `len` bits from little-endian `words` into `row` at
    /// `col_offset` — the word-parallel counterpart of
    /// [`Crossbar::write_row`], with identical per-cell wear.
    ///
    /// # Errors
    ///
    /// Returns an error if the span exceeds the array.
    pub fn write_row_words(
        &mut self,
        row: usize,
        col_offset: usize,
        words: &[u64],
        len: usize,
    ) -> Result<(), CrossbarError> {
        self.check_row(row)?;
        self.check_cols(&(col_offset..col_offset + len))?;
        match &mut self.state {
            Backing::Scalar(cells) => {
                for j in 0..len {
                    let bit = (words.get(j / 64).copied().unwrap_or(0) >> (j % 64)) & 1 == 1;
                    cells[row * self.cols + col_offset + j].write(bit);
                }
            }
            Backing::Packed(p) => p.write_words(row, col_offset, words, len),
            Backing::Sliced(p) => p.write_words(row, col_offset, words, len),
        }
        Ok(())
    }

    /// Stores `len` bits from little-endian `words` into `row` at
    /// `col_offset` without recording any wear — the value half of
    /// [`Crossbar::write_row_words`] (see [`Crossbar::wear_region`]).
    /// Fault cells keep their value. On the sliced backend every lane
    /// takes the bits.
    ///
    /// # Errors
    ///
    /// Returns an error if the span exceeds the array.
    pub fn store_row_words(
        &mut self,
        row: usize,
        col_offset: usize,
        words: &[u64],
        len: usize,
    ) -> Result<(), CrossbarError> {
        self.check_row(row)?;
        self.check_cols(&(col_offset..col_offset + len))?;
        match &mut self.state {
            Backing::Scalar(cells) => {
                for j in 0..len {
                    let bit = (words.get(j / 64).copied().unwrap_or(0) >> (j % 64)) & 1 == 1;
                    cells[row * self.cols + col_offset + j].store(bit);
                }
            }
            Backing::Packed(p) => p.store_words(row, col_offset, words, len),
            Backing::Sliced(p) => p.store_words(row, col_offset, words, len),
        }
        Ok(())
    }

    /// Writes one *lane word* per column into `row` starting at
    /// `col_offset` — the lane-transposed counterpart of
    /// [`Crossbar::write_row`]: bit `l` of `lane_words[j]` is the bit
    /// written into lane `l` of column `col_offset + j`. Every cell in
    /// the span wears exactly once, on every lane, same as a broadcast
    /// row write. On the scalar/packed backends this degrades to
    /// writing the lane-0 bits.
    ///
    /// # Errors
    ///
    /// Returns an error if the span exceeds the array.
    pub fn write_row_lanes(
        &mut self,
        row: usize,
        col_offset: usize,
        lane_words: &[u64],
    ) -> Result<(), CrossbarError> {
        self.check_row(row)?;
        self.check_cols(&(col_offset..col_offset + lane_words.len()))?;
        if let Backing::Sliced(p) = &mut self.state {
            p.write_lanes(row, col_offset, lane_words);
            return Ok(());
        }
        let bits: Vec<bool> = lane_words.iter().map(|&w| w & 1 == 1).collect();
        self.write_row(row, col_offset, &bits)
    }

    /// Lane-masked variant of [`Crossbar::write_row_lanes`]: only the
    /// lanes selected by `mask` take the new values and wear; the other
    /// lanes keep both value and wear untouched — the primitive behind
    /// data-dependent batch steps (a shift-add iteration only pulses
    /// the lanes whose multiplier bit is set). On the scalar/packed
    /// backends lane 0 is written iff bit 0 of `mask` is set.
    ///
    /// # Errors
    ///
    /// Returns an error if the span exceeds the array.
    pub fn write_row_lanes_masked(
        &mut self,
        row: usize,
        col_offset: usize,
        lane_words: &[u64],
        mask: u64,
    ) -> Result<(), CrossbarError> {
        self.check_row(row)?;
        self.check_cols(&(col_offset..col_offset + lane_words.len()))?;
        if let Backing::Sliced(p) = &mut self.state {
            p.write_lanes_masked(row, col_offset, lane_words, mask);
            return Ok(());
        }
        if mask & 1 == 1 {
            let bits: Vec<bool> = lane_words.iter().map(|&w| w & 1 == 1).collect();
            self.write_row(row, col_offset, &bits)
        } else {
            Ok(())
        }
    }

    /// Adds `pulses` write pulses of wear to every cell (every lane)
    /// of `region` without changing values — the wear half of a write.
    ///
    /// Fast paths that compute final cell values in the controller
    /// use this (plus [`Crossbar::store_row_words`] or
    /// [`Crossbar::store_row_lane_words`]) to account a sequence of
    /// writes pulse for pulse while issuing the value changes only
    /// once; composing the two halves in the same spans as the writes
    /// they replace keeps every per-cell observable identical to
    /// executing the writes one by one.
    ///
    /// # Errors
    ///
    /// Returns an error if the region exceeds the array.
    pub fn wear_region(&mut self, region: &Region, pulses: u64) -> Result<(), CrossbarError> {
        if region.rows.end > self.rows {
            return Err(CrossbarError::RowOutOfRange {
                row: region.rows.end - 1,
                rows: self.rows,
            });
        }
        self.check_cols(&region.cols)?;
        match &mut self.state {
            Backing::Scalar(cells) => {
                for row in region.rows.clone() {
                    for col in region.cols.clone() {
                        cells[row * self.cols + col].add_wear(pulses);
                    }
                }
            }
            Backing::Packed(p) => {
                for row in region.rows.clone() {
                    p.wear.add(row, region.cols.clone(), pulses);
                }
            }
            Backing::Sliced(p) => {
                for row in region.rows.clone() {
                    p.wear_uniform(row, region.cols.clone(), pulses);
                }
            }
        }
        Ok(())
    }

    /// Adds `pulses[j]` write pulses of wear to cell `col_offset + j`
    /// of `row` (every lane) without changing values — the wear half of
    /// a sequence of writes whose per-cell pulse counts the controller
    /// already knows. The packed backend adds them as one dense block
    /// of its lazy wear plane instead of one range entry per write.
    ///
    /// # Errors
    ///
    /// Returns an error if the span exceeds the array.
    pub fn wear_row_dense(
        &mut self,
        row: usize,
        col_offset: usize,
        pulses: &[u64],
    ) -> Result<(), CrossbarError> {
        self.check_row(row)?;
        self.check_cols(&(col_offset..col_offset + pulses.len()))?;
        match &mut self.state {
            Backing::Scalar(cells) => {
                let start = row * self.cols + col_offset;
                for (cell, &p) in cells[start..start + pulses.len()].iter_mut().zip(pulses) {
                    cell.add_wear(p);
                }
            }
            Backing::Packed(p) => p.wear.add_dense(row, col_offset, pulses),
            Backing::Sliced(p) => p.wear_uniform_dense(row, col_offset, pulses),
        }
        Ok(())
    }

    /// Records one write pulse of wear over the span for the lanes in
    /// `mask` — the wear half of [`Crossbar::write_row_lanes_masked`]
    /// — without touching values. On the scalar/packed backends the
    /// cells wear iff bit 0 of `mask` is set.
    ///
    /// # Errors
    ///
    /// Returns an error if the span exceeds the array.
    pub fn wear_row_lanes_masked(
        &mut self,
        row: usize,
        cols: ColRange,
        mask: u64,
    ) -> Result<(), CrossbarError> {
        self.check_row(row)?;
        self.check_cols(&cols)?;
        match &mut self.state {
            Backing::Sliced(p) => p.wear_masked(row, cols, mask),
            Backing::Packed(p) => {
                if mask & 1 == 1 {
                    p.wear.add(row, cols, 1);
                }
            }
            Backing::Scalar(cells) => {
                if mask & 1 == 1 {
                    for col in cols {
                        cells[row * self.cols + col].add_wear(1);
                    }
                }
            }
        }
        Ok(())
    }

    /// Stores one lane word per column for the lanes in `mask` — the
    /// value half of [`Crossbar::write_row_lanes_masked`] — without
    /// recording any wear. Fault lanes keep their value. On the
    /// scalar/packed backends the lane-0 bits are stored iff bit 0 of
    /// `mask` is set.
    ///
    /// # Errors
    ///
    /// Returns an error if the span exceeds the array.
    pub fn store_row_lane_words(
        &mut self,
        row: usize,
        col_offset: usize,
        words: &[u64],
        mask: u64,
    ) -> Result<(), CrossbarError> {
        self.check_row(row)?;
        self.check_cols(&(col_offset..col_offset + words.len()))?;
        match &mut self.state {
            Backing::Sliced(p) => p.store_lane_words(row, col_offset, words, mask),
            Backing::Packed(p) => {
                if mask & 1 == 1 {
                    for (j, &w) in words.iter().enumerate() {
                        p.store_bit(row, col_offset + j, w & 1 == 1);
                    }
                }
            }
            Backing::Scalar(cells) => {
                if mask & 1 == 1 {
                    for (j, &w) in words.iter().enumerate() {
                        cells[row * self.cols + col_offset + j].store(w & 1 == 1);
                    }
                }
            }
        }
        Ok(())
    }

    /// Reads the span of `row` as one fault-adjusted *lane word* per
    /// column — the bulk sense path of batch arithmetic. On the
    /// scalar/packed backends each word is 0 or 1 (the lane-0 bit).
    ///
    /// # Errors
    ///
    /// Returns an error if the coordinates are out of range.
    pub fn read_row_lane_words(
        &self,
        row: usize,
        cols: ColRange,
        out: &mut Vec<u64>,
    ) -> Result<(), CrossbarError> {
        self.check_row(row)?;
        self.check_cols(&cols)?;
        match &self.state {
            Backing::Sliced(p) => {
                p.read_lane_words(row, cols, out);
                Ok(())
            }
            _ => {
                out.clear();
                out.reserve(cols.len());
                for col in cols {
                    out.push(self.read_cell(row, col)? as u64);
                }
                Ok(())
            }
        }
    }

    /// Reads all lanes of one cell as a fault-adjusted lane word (bit
    /// `l` = lane `l`); 0 or 1 on the scalar/packed backends.
    ///
    /// # Errors
    ///
    /// Returns an error if the coordinates are out of range.
    pub fn read_cell_lanes(&self, row: usize, col: usize) -> Result<u64, CrossbarError> {
        self.check_row(row)?;
        self.check_cols(&(col..col + 1))?;
        Ok(match &self.state {
            Backing::Sliced(p) => p.read_word(row, col),
            _ => self.read_cell(row, col)? as u64,
        })
    }

    /// Reads one lane's bits of `row` over the column span — the
    /// per-lane readout path. Lane 0 is valid on every backend.
    ///
    /// # Errors
    ///
    /// Returns an error if the coordinates or lane are out of range.
    pub fn read_row_lane_bits(
        &self,
        lane: usize,
        row: usize,
        cols: ColRange,
    ) -> Result<Vec<bool>, CrossbarError> {
        self.check_lane(lane)?;
        self.check_row(row)?;
        self.check_cols(&cols)?;
        match &self.state {
            Backing::Sliced(p) => {
                let mut out = Vec::new();
                p.read_lane_into(lane, row, cols, &mut out);
                Ok(out)
            }
            _ => self.read_row_bits(row, cols),
        }
    }

    /// Drives every cell of `region` to logic 1 (MAGIC output
    /// initialization) — one parallel set pulse.
    ///
    /// # Errors
    ///
    /// Returns an error if the region exceeds the array.
    pub fn init_region(&mut self, region: &Region) -> Result<(), CrossbarError> {
        self.fill_region(region, true)
    }

    /// Drives every cell of `region` to logic 0 (array reset).
    ///
    /// # Errors
    ///
    /// Returns an error if the region exceeds the array.
    pub fn reset_region(&mut self, region: &Region) -> Result<(), CrossbarError> {
        self.fill_region(region, false)
    }

    fn fill_region(&mut self, region: &Region, value: bool) -> Result<(), CrossbarError> {
        if region.rows.end > self.rows {
            return Err(CrossbarError::RowOutOfRange {
                row: region.rows.end - 1,
                rows: self.rows,
            });
        }
        self.check_cols(&region.cols)?;
        match &mut self.state {
            Backing::Scalar(cells) => {
                for row in region.rows.clone() {
                    for col in region.cols.clone() {
                        cells[row * self.cols + col].write(value);
                    }
                }
            }
            Backing::Packed(p) => p.fill(region.rows.clone(), region.cols.clone(), value),
            Backing::Sliced(p) => p.fill(region.rows.clone(), region.cols.clone(), value),
        }
        Ok(())
    }

    /// MAGIC NOR across rows: for every column in `cols`, drives
    /// `out = NOR(inputs…)` — all bit lines in parallel (SIMD).
    ///
    /// The output cells must have been initialized to logic 1; with
    /// `strict` the operation fails if any was not, otherwise the
    /// physical behaviour (output can only be pulled down) is applied
    /// silently.
    ///
    /// # Errors
    ///
    /// Returns an error on bad coordinates, if `out` is also an input,
    /// or (strict mode) on an uninitialized output cell.
    pub fn nor_rows(
        &mut self,
        inputs: &[usize],
        out: usize,
        cols: ColRange,
        strict: bool,
    ) -> Result<(), CrossbarError> {
        for &r in inputs {
            self.check_row(r)?;
            if r == out {
                return Err(CrossbarError::MagicInOutOverlap {
                    axis: Axis::Row,
                    index: r,
                });
            }
        }
        self.check_row(out)?;
        self.check_cols(&cols)?;
        match &mut self.state {
            Backing::Scalar(cells) => {
                for col in cols {
                    let any = inputs.iter().any(|&r| cells[r * self.cols + col].read());
                    let out_idx = out * self.cols + col;
                    if strict && !cells[out_idx].read() {
                        return Err(CrossbarError::OutputNotInitialized { row: out, col });
                    }
                    cells[out_idx].magic_drive(!any);
                }
                Ok(())
            }
            Backing::Packed(p) => p
                .nor_rows(inputs, out, cols, strict)
                .map_err(|col| CrossbarError::OutputNotInitialized { row: out, col }),
            Backing::Sliced(p) => p
                .nor_rows(inputs, out, cols, strict)
                .map_err(|col| CrossbarError::OutputNotInitialized { row: out, col }),
        }
    }

    /// MAGIC NOR along rows (column-oriented): for every row in
    /// `rows`, drives `row[out_col] = NOR(row[in_cols]…)` — all word
    /// lines in parallel.
    ///
    /// This is the orientation used by single-row multipliers such as
    /// MultPIM, where each row hosts an independent multiplication.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Crossbar::nor_rows`].
    pub fn nor_cols(
        &mut self,
        in_cols: &[usize],
        out_col: usize,
        rows: std::ops::Range<usize>,
        strict: bool,
    ) -> Result<(), CrossbarError> {
        for &c in in_cols {
            self.check_cols(&(c..c + 1))?;
            if c == out_col {
                return Err(CrossbarError::MagicInOutOverlap {
                    axis: Axis::Col,
                    index: c,
                });
            }
        }
        self.check_cols(&(out_col..out_col + 1))?;
        if rows.end > self.rows {
            return Err(CrossbarError::RowOutOfRange {
                row: rows.end - 1,
                rows: self.rows,
            });
        }
        match &mut self.state {
            Backing::Scalar(cells) => {
                for row in rows {
                    let any = in_cols.iter().any(|&c| cells[row * self.cols + c].read());
                    let out_idx = row * self.cols + out_col;
                    if strict && !cells[out_idx].read() {
                        return Err(CrossbarError::OutputNotInitialized { row, col: out_col });
                    }
                    cells[out_idx].magic_drive(!any);
                }
                Ok(())
            }
            Backing::Packed(p) => p
                .nor_cols(in_cols, out_col, rows, strict)
                .map_err(|row| CrossbarError::OutputNotInitialized { row, col: out_col }),
            Backing::Sliced(p) => p
                .nor_cols(in_cols, out_col, rows, strict)
                .map_err(|row| CrossbarError::OutputNotInitialized { row, col: out_col }),
        }
    }

    /// Partitioned MAGIC NOR along rows: the column span `cols` is
    /// divided into partitions of `part_width` columns; within *every*
    /// partition (and for every row in `rows`) simultaneously,
    /// `row[base + out_offset] = NOR(row[base + in_offsets…])` — the
    /// partition-parallel execution MultPIM \[9\] uses to get its
    /// `log n` factor. One clock cycle.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::BadPartition`] if the span is not a
    /// multiple of `part_width` or an offset falls outside a
    /// partition, plus the usual geometry/aliasing/init errors.
    #[allow(clippy::too_many_arguments)]
    pub fn nor_cols_partitioned(
        &mut self,
        rows: std::ops::Range<usize>,
        cols: ColRange,
        part_width: usize,
        in_offsets: &[usize],
        out_offset: usize,
        strict: bool,
    ) -> Result<(), CrossbarError> {
        if part_width == 0 || !cols.len().is_multiple_of(part_width) {
            return Err(CrossbarError::BadPartition {
                detail: format!(
                    "span of {} columns is not a multiple of partition width {part_width}",
                    cols.len()
                ),
            });
        }
        for &off in in_offsets.iter().chain(std::iter::once(&out_offset)) {
            if off >= part_width {
                return Err(CrossbarError::BadPartition {
                    detail: format!("offset {off} outside partition width {part_width}"),
                });
            }
        }
        if in_offsets.contains(&out_offset) {
            return Err(CrossbarError::MagicInOutOverlap {
                axis: Axis::Col,
                index: out_offset,
            });
        }
        self.check_cols(&cols)?;
        if rows.end > self.rows {
            return Err(CrossbarError::RowOutOfRange {
                row: rows.end - 1,
                rows: self.rows,
            });
        }
        match &mut self.state {
            Backing::Scalar(cells) => {
                for row in rows {
                    for base in (cols.start..cols.end).step_by(part_width) {
                        let any = in_offsets
                            .iter()
                            .any(|&off| cells[row * self.cols + base + off].read());
                        let out_idx = row * self.cols + base + out_offset;
                        if strict && !cells[out_idx].read() {
                            return Err(CrossbarError::OutputNotInitialized {
                                row,
                                col: base + out_offset,
                            });
                        }
                        cells[out_idx].magic_drive(!any);
                    }
                }
                Ok(())
            }
            Backing::Packed(p) => p
                .nor_cols_partitioned(rows, cols, part_width, in_offsets, out_offset, strict)
                .map_err(|(row, col)| CrossbarError::OutputNotInitialized { row, col }),
            Backing::Sliced(p) => p
                .nor_cols_partitioned(rows, cols, part_width, in_offsets, out_offset, strict)
                .map_err(|(row, col)| CrossbarError::OutputNotInitialized { row, col }),
        }
    }

    /// Periphery shift: reads `src[cols]`, shifts by `offset` columns
    /// (positive = towards higher column indices / more significant)
    /// filling vacated positions with `fill`, and writes the span into
    /// `dst` (which may equal `src`).
    ///
    /// MAGIC cannot move data across bit lines (paper Sec. IV-B), so
    /// this is done by the periphery: one read cycle plus one write
    /// cycle, charged as 2 cc by the executor. A `fill` of `true`
    /// injects a carry-in bit (used by the subtractor).
    ///
    /// # Errors
    ///
    /// Returns an error if the span exceeds the array.
    pub fn shift_row_to(
        &mut self,
        src: usize,
        dst: usize,
        cols: ColRange,
        offset: isize,
        fill: bool,
    ) -> Result<(), CrossbarError> {
        self.check_row(src)?;
        self.check_row(dst)?;
        self.check_cols(&cols)?;
        match &mut self.state {
            Backing::Sliced(p) => p.shift(src, dst, cols, offset, fill),
            Backing::Packed(p) => p.shift(src, dst, cols, offset, fill),
            Backing::Scalar(_) => {
                let w = cols.len();
                let mut words = Vec::new();
                self.read_row_words(src, cols.clone(), &mut words)?;
                crate::packed::shift_words(&mut words, w, offset, fill);
                self.write_row_words(dst, cols.start, &words, w)?;
            }
        }
        Ok(())
    }

    /// In-place periphery shift with zero fill; see
    /// [`Crossbar::shift_row_to`].
    ///
    /// # Errors
    ///
    /// Returns an error if the span exceeds the array.
    pub fn shift_row(
        &mut self,
        row: usize,
        cols: ColRange,
        offset: isize,
    ) -> Result<(), CrossbarError> {
        self.shift_row_to(row, row, cols, offset, false)
    }

    /// Injects a stuck-at fault at a cell (or clears it with `None`).
    ///
    /// # Errors
    ///
    /// Returns an error if the coordinates are out of range.
    pub fn inject_fault(
        &mut self,
        row: usize,
        col: usize,
        fault: Option<Fault>,
    ) -> Result<(), CrossbarError> {
        self.check_row(row)?;
        self.check_cols(&(col..col + 1))?;
        match &mut self.state {
            Backing::Scalar(cells) => cells[row * self.cols + col].set_fault(fault),
            Backing::Packed(p) => p.set_fault(row, col, fault),
            Backing::Sliced(p) => p.set_fault(row, col, fault),
        }
        Ok(())
    }

    /// Injects (or clears) a stuck-at fault on a single lane of a
    /// cell. On the scalar/packed backends only lane 0 exists and
    /// this is [`Crossbar::inject_fault`].
    ///
    /// # Errors
    ///
    /// Returns an error if the coordinates or lane are out of range.
    pub fn inject_fault_lane(
        &mut self,
        lane: usize,
        row: usize,
        col: usize,
        fault: Option<Fault>,
    ) -> Result<(), CrossbarError> {
        self.check_lane(lane)?;
        self.check_row(row)?;
        self.check_cols(&(col..col + 1))?;
        if let Backing::Sliced(p) = &mut self.state {
            p.set_fault_lane(lane, row, col, fault);
            return Ok(());
        }
        self.inject_fault(row, col, fault)
    }

    /// The [`Cell`] view of one lane of one cell: raw value, exact
    /// per-lane wear, per-lane fault. Lane 0 equals [`Crossbar::cell`].
    ///
    /// # Errors
    ///
    /// Returns an error if the coordinates or lane are out of range.
    pub fn lane_cell(&self, lane: usize, row: usize, col: usize) -> Result<Cell, CrossbarError> {
        self.check_lane(lane)?;
        self.check_row(row)?;
        self.check_cols(&(col..col + 1))?;
        Ok(match &self.state {
            Backing::Sliced(p) => p.lane_cell(lane, row, col),
            _ => self.cell_unchecked(row, col),
        })
    }

    /// `(max, total, touched)` per-cell write statistics of one lane.
    pub(crate) fn lane_wear_stats(&self, lane: usize) -> WearStats {
        match &self.state {
            Backing::Sliced(p) => p.lane_wear_stats(lane),
            _ => self.wear_stats(),
        }
    }

    /// Per-lane `(max, total, touched)` wear statistics for all 64
    /// lane slots in one sweep (only the active lanes are meaningful);
    /// on the scalar/packed backends a single-entry vector.
    pub(crate) fn lane_wear_stats_all(&self) -> Vec<WearStats> {
        match &self.state {
            Backing::Sliced(p) => p.lane_wear_stats_all(),
            _ => vec![self.wear_stats()],
        }
    }

    /// Whether no cell of `row` across `cols` carries a stuck-at
    /// fault — gate for word-parallel fast paths that mirror array
    /// state in software (faults feed back through reads, so those
    /// paths fall back to per-cell execution).
    ///
    /// # Errors
    ///
    /// Returns an error if the coordinates are out of range.
    pub fn row_region_fault_free(
        &self,
        row: usize,
        cols: ColRange,
    ) -> Result<bool, CrossbarError> {
        self.check_row(row)?;
        self.check_cols(&cols)?;
        Ok(match &self.state {
            Backing::Scalar(cells) => cols
                .clone()
                .all(|c| cells[row * self.cols + c].fault().is_none()),
            Backing::Packed(p) => p.region_fault_free(row, cols),
            Backing::Sliced(p) => p.region_fault_free(row, cols),
        })
    }

    fn cell_unchecked(&self, row: usize, col: usize) -> Cell {
        match &self.state {
            Backing::Scalar(cells) => cells[row * self.cols + col],
            Backing::Packed(p) => p.cell(row, col),
            Backing::Sliced(p) => p.cell(row, col),
        }
    }

    /// The cell view at a coordinate (wear inspection, tests). On the
    /// packed backend the [`Cell`] is synthesized from the bit planes;
    /// it is a snapshot, not a live reference.
    ///
    /// # Errors
    ///
    /// Returns an error if the coordinates are out of range.
    pub fn cell(&self, row: usize, col: usize) -> Result<Cell, CrossbarError> {
        self.check_row(row)?;
        self.check_cols(&(col..col + 1))?;
        Ok(self.cell_unchecked(row, col))
    }

    /// Iterates over all cells (row-major) as snapshots.
    pub fn cells(&self) -> impl Iterator<Item = Cell> + '_ {
        (0..self.rows)
            .flat_map(move |r| (0..self.cols).map(move |c| self.cell_unchecked(r, c)))
    }

    /// `(max, total, touched)` per-cell write statistics, computed
    /// without materializing the packed backend's lazy wear plane into
    /// per-cell counters — the fast path behind
    /// [`crate::EnduranceReport::from_array`].
    pub(crate) fn wear_stats(&self) -> WearStats {
        let mut stats = WearStats::default();
        match &self.state {
            Backing::Scalar(cells) => {
                for cell in cells {
                    stats.add_run(cell.writes(), 1);
                }
            }
            Backing::Packed(p) => {
                for row in 0..self.rows {
                    stats.merge(p.wear.row_stats(row));
                }
            }
            Backing::Sliced(p) => return p.lane_wear_stats(0),
        }
        stats
    }

    /// `(max, mean)` per-cell write counts — the one-call wear summary
    /// schedulers and reports consume instead of walking raw cells.
    /// The mean is over touched cells (0.0 for an unworn array).
    pub fn wear_summary(&self) -> (u64, f64) {
        crate::endurance::EnduranceReport::from_array(self).max_and_mean()
    }

    /// Per-row `(max, total)` per-cell write counts, in row order —
    /// the surface wear-heatmap reports rank rows by. On the packed
    /// backend this walks the lazy wear plane's constant segments; on
    /// the sliced backend the per-cell snapshot aggregates all lanes.
    pub fn row_wear_totals(&self) -> Vec<(u64, u64)> {
        match &self.state {
            Backing::Scalar(cells) => (0..self.rows)
                .map(|r| {
                    let (mut max, mut total) = (0u64, 0u64);
                    for cell in &cells[r * self.cols..(r + 1) * self.cols] {
                        let w = cell.writes();
                        max = max.max(w);
                        total += w;
                    }
                    (max, total)
                })
                .collect(),
            Backing::Packed(p) => (0..self.rows)
                .map(|r| {
                    let stats = p.wear.row_stats(r);
                    (stats.max, stats.total)
                })
                .collect(),
            Backing::Sliced(_) => (0..self.rows)
                .map(|r| {
                    let (mut max, mut total) = (0u64, 0u64);
                    for c in 0..self.cols {
                        let w = self.cell_unchecked(r, c).writes();
                        max = max.max(w);
                        total += w;
                    }
                    (max, total)
                })
                .collect(),
        }
    }

    /// Clears all wear counters (keeps values and faults).
    pub fn reset_wear(&mut self) {
        match &mut self.state {
            Backing::Scalar(cells) => {
                for c in cells {
                    c.reset_wear();
                }
            }
            Backing::Packed(p) => p.wear.reset(),
            Backing::Sliced(p) => p.reset_wear(),
        }
    }

    /// Checks the array against practical line-length limits
    /// ([`PRACTICAL_LINE_LIMIT`]); returns the offending dimension.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::ColOutOfRange`] (columns) or
    /// [`CrossbarError::RowOutOfRange`] (rows) when a line exceeds the
    /// practical limit, as used in the paper's critique of very long
    /// single-row multipliers.
    pub fn check_practical_dimensions(&self) -> Result<(), CrossbarError> {
        if self.cols > PRACTICAL_LINE_LIMIT {
            return Err(CrossbarError::ColOutOfRange {
                col: self.cols,
                cols: PRACTICAL_LINE_LIMIT,
            });
        }
        if self.rows > PRACTICAL_LINE_LIMIT {
            return Err(CrossbarError::RowOutOfRange {
                row: self.rows,
                rows: PRACTICAL_LINE_LIMIT,
            });
        }
        Ok(())
    }

    /// Renders a region as an ASCII grid (`1`/`0`, `X`/`x` for stuck
    /// cells) — used by the figure-reproduction binaries.
    pub fn render_region(&self, region: &Region) -> String {
        let mut out = String::new();
        for row in region.rows.clone() {
            for col in region.cols.clone() {
                let cell = self.cell_unchecked(row, col);
                let ch = match (cell.fault(), cell.read()) {
                    (Some(_), true) => 'X',
                    (Some(_), false) => 'x',
                    (None, true) => '1',
                    (None, false) => '0',
                };
                out.push(ch);
            }
            out.push('\n');
        }
        out
    }
}

/// Semantic equality: same geometry and, per cell, the same underlying
/// value, wear count and fault — regardless of which backend stores
/// them. A packed array equals its scalar twin after any op sequence.
impl PartialEq for Crossbar {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.cells().eq(other.cells())
    }
}

impl Eq for Crossbar {}

#[cfg(test)]
mod tests {
    use super::*;

    fn bar(rows: usize, cols: usize) -> Crossbar {
        Crossbar::new(rows, cols).expect("valid dims")
    }

    #[test]
    fn new_rejects_empty() {
        assert_eq!(
            Crossbar::new(0, 4).unwrap_err(),
            CrossbarError::EmptyDimension
        );
        assert_eq!(
            Crossbar::new(4, 0).unwrap_err(),
            CrossbarError::EmptyDimension
        );
        assert_eq!(
            Crossbar::new_scalar(0, 4).unwrap_err(),
            CrossbarError::EmptyDimension
        );
    }

    #[test]
    fn row_wear_totals_match_cell_walk_on_all_backends() {
        type MakeCrossbar = fn(usize, usize) -> Result<Crossbar, CrossbarError>;
        let makes: [MakeCrossbar; 3] = [
            Crossbar::new,
            Crossbar::new_scalar,
            |r, c| Crossbar::new_sliced(r, c, 1),
        ];
        for make in makes {
            let mut x = make(3, 4).unwrap();
            x.write_row(0, 0, &[true, true, false, true]).unwrap();
            x.write_row(0, 1, &[false, true]).unwrap();
            x.write_row(2, 3, &[true]).unwrap();
            let per_row = x.row_wear_totals();
            assert_eq!(per_row.len(), 3);
            for (r, &(max, total)) in per_row.iter().enumerate() {
                let writes: Vec<u64> =
                    (0..4).map(|c| x.cell(r, c).unwrap().writes()).collect();
                assert_eq!(max, writes.iter().copied().max().unwrap(), "row {r}");
                assert_eq!(total, writes.iter().sum::<u64>(), "row {r}");
            }
            let total_all = x.wear_stats().total;
            assert_eq!(per_row.iter().map(|&(_, t)| t).sum::<u64>(), total_all);
        }
    }

    #[test]
    fn write_read_roundtrip() {
        let mut x = bar(4, 8);
        x.write_row(2, 1, &[true, false, true]).unwrap();
        assert_eq!(
            x.read_row_bits(2, 0..5).unwrap(),
            vec![false, true, false, true, false]
        );
    }

    #[test]
    fn write_out_of_range_errors() {
        let mut x = bar(2, 4);
        assert!(x.write_row(5, 0, &[true]).is_err());
        assert!(x.write_row(0, 3, &[true, true]).is_err());
    }

    #[test]
    fn nor_rows_truth_table() {
        let mut x = bar(3, 4);
        x.write_row(0, 0, &[false, false, true, true]).unwrap();
        x.write_row(1, 0, &[false, true, false, true]).unwrap();
        x.init_region(&Region::new(2..3, 0..4)).unwrap();
        x.nor_rows(&[0, 1], 2, 0..4, true).unwrap();
        assert_eq!(
            x.read_row_bits(2, 0..4).unwrap(),
            vec![true, false, false, false]
        );
    }

    #[test]
    fn nor_rows_strict_catches_missing_init() {
        let mut x = bar(3, 2);
        x.write_row(0, 0, &[false, false]).unwrap();
        // Output row left at 0 — strict mode must flag it.
        let err = x.nor_rows(&[0], 2, 0..2, true).unwrap_err();
        assert!(matches!(err, CrossbarError::OutputNotInitialized { .. }));
        // Non-strict: physically the cell just stays 0.
        x.nor_rows(&[0], 2, 0..2, false).unwrap();
        assert_eq!(x.read_row_bits(2, 0..2).unwrap(), vec![false, false]);
    }

    #[test]
    fn nor_rows_rejects_aliased_output() {
        let mut x = bar(3, 2);
        let err = x.nor_rows(&[0, 1], 1, 0..2, false).unwrap_err();
        assert!(matches!(
            err,
            CrossbarError::MagicInOutOverlap {
                axis: Axis::Row,
                index: 1
            }
        ));
    }

    #[test]
    fn not_via_single_input_nor() {
        let mut x = bar(2, 3);
        x.write_row(0, 0, &[true, false, true]).unwrap();
        x.init_region(&Region::new(1..2, 0..3)).unwrap();
        x.nor_rows(&[0], 1, 0..3, true).unwrap();
        assert_eq!(
            x.read_row_bits(1, 0..3).unwrap(),
            vec![false, true, false]
        );
    }

    #[test]
    fn nor_cols_runs_on_all_rows_simultaneously() {
        let mut x = bar(2, 4);
        // row 0: a=1, b=0 → NOR = 0 ; row 1: a=0, b=0 → NOR = 1
        x.write_row(0, 0, &[true, false, false, false]).unwrap();
        x.write_row(1, 0, &[false, false, false, false]).unwrap();
        x.init_region(&Region::new(0..2, 2..3)).unwrap();
        x.nor_cols(&[0, 1], 2, 0..2, true).unwrap();
        assert!(!x.read_cell(0, 2).unwrap());
        assert!(x.read_cell(1, 2).unwrap());
    }

    #[test]
    fn shift_row_moves_bits_and_fills_zero() {
        let mut x = bar(1, 6);
        x.write_row(0, 0, &[true, true, false, false, false, true])
            .unwrap();
        x.shift_row(0, 0..6, 2).unwrap();
        assert_eq!(
            x.read_row_bits(0, 0..6).unwrap(),
            vec![false, false, true, true, false, false]
        );
        x.shift_row(0, 0..6, -2).unwrap();
        assert_eq!(
            x.read_row_bits(0, 0..6).unwrap(),
            vec![true, true, false, false, false, false]
        );
    }

    #[test]
    fn shift_respects_column_window() {
        let mut x = bar(1, 6);
        x.write_row(0, 0, &[true, true, true, true, true, true])
            .unwrap();
        x.shift_row(0, 2..5, 1).unwrap();
        // Columns outside 2..5 untouched; within, shifted with 0 fill.
        assert_eq!(
            x.read_row_bits(0, 0..6).unwrap(),
            vec![true, true, false, true, true, true]
        );
    }

    #[test]
    fn partitioned_nor_computes_every_partition_at_once() {
        // 2 rows × 8 cols, partitions of 4: out[3] = NOR(in[0], in[1]).
        let mut x = bar(2, 8);
        // row 0 partitions: (1,0,·,init) and (0,0,·,init)
        x.write_row(0, 0, &[true, false, false, true, false, false, false, true])
            .unwrap();
        x.write_row(1, 0, &[false, true, false, true, true, true, false, true])
            .unwrap();
        // Outputs (offset 2) must be pre-initialized.
        // Partition bases: 0 and 4 → output cols 2 and 6.
        for row in 0..2 {
            for col in [2usize, 6] {
                x.init_region(&Region::new(row..row + 1, col..col + 1))
                    .unwrap();
            }
        }
        x.nor_cols_partitioned(0..2, 0..8, 4, &[0, 1], 2, true).unwrap();
        // row 0: partition 0 inputs (1,0) → 0 ; partition 1 inputs (0,0) → 1
        assert!(!x.read_cell(0, 2).unwrap());
        assert!(x.read_cell(0, 6).unwrap());
        // row 1: (0,1) → 0 ; (1,1) → 0
        assert!(!x.read_cell(1, 2).unwrap());
        assert!(!x.read_cell(1, 6).unwrap());
    }

    #[test]
    fn partitioned_nor_validates_geometry() {
        let mut x = bar(1, 8);
        assert!(matches!(
            x.nor_cols_partitioned(0..1, 0..8, 3, &[0], 1, false),
            Err(CrossbarError::BadPartition { .. })
        ));
        assert!(matches!(
            x.nor_cols_partitioned(0..1, 0..8, 4, &[5], 1, false),
            Err(CrossbarError::BadPartition { .. })
        ));
        assert!(matches!(
            x.nor_cols_partitioned(0..1, 0..8, 4, &[1], 1, false),
            Err(CrossbarError::MagicInOutOverlap {
                axis: Axis::Col,
                index: 1
            })
        ));
    }

    #[test]
    fn shift_to_other_row_preserves_source_and_fills_carry() {
        let mut x = bar(2, 4);
        x.write_row(0, 0, &[true, false, true, false]).unwrap();
        x.shift_row_to(0, 1, 0..4, 1, true).unwrap();
        // Source untouched.
        assert_eq!(
            x.read_row_bits(0, 0..4).unwrap(),
            vec![true, false, true, false]
        );
        // Destination: shifted by +1, carry-in 1 at position 0.
        assert_eq!(
            x.read_row_bits(1, 0..4).unwrap(),
            vec![true, true, false, true]
        );
    }

    #[test]
    fn faults_affect_magic_results() {
        let mut x = bar(3, 1);
        x.inject_fault(0, 0, Some(Fault::StuckAt1)).unwrap();
        // inputs read 1 even after writing 0
        x.write_row(0, 0, &[false]).unwrap();
        x.init_region(&Region::new(2..3, 0..1)).unwrap();
        x.nor_rows(&[0, 1], 2, 0..1, true).unwrap();
        assert!(!x.read_cell(2, 0).unwrap(), "stuck-1 input forces NOR to 0");
    }

    #[test]
    fn wear_counting() {
        let mut x = bar(2, 2);
        x.write_row(0, 0, &[true, true]).unwrap();
        x.init_region(&Region::new(1..2, 0..2)).unwrap();
        x.nor_rows(&[0], 1, 0..2, true).unwrap();
        assert_eq!(x.cell(0, 0).unwrap().writes(), 1); // written once
        assert_eq!(x.cell(1, 0).unwrap().writes(), 2); // init + magic drive
        x.reset_wear();
        assert_eq!(x.cell(1, 0).unwrap().writes(), 0);
    }

    #[test]
    fn practical_dimension_check() {
        let x = bar(4, 8);
        assert!(x.check_practical_dimensions().is_ok());
        let long = bar(1, crate::PRACTICAL_LINE_LIMIT + 1);
        assert!(long.check_practical_dimensions().is_err());
    }

    #[test]
    fn render_region_shows_bits() {
        let mut x = bar(2, 3);
        x.write_row(0, 0, &[true, false, true]).unwrap();
        let s = x.render_region(&Region::new(0..2, 0..3));
        assert_eq!(s, "101\n000\n");
    }

    // ---- backend equivalence ----

    /// Drives the same op soup on both backends, returning the pair.
    fn twin_run(rows: usize, cols: usize, f: impl Fn(&mut Crossbar)) -> (Crossbar, Crossbar) {
        let mut packed = Crossbar::with_backend(rows, cols, BackendKind::Packed).unwrap();
        let mut scalar = Crossbar::with_backend(rows, cols, BackendKind::Scalar).unwrap();
        f(&mut packed);
        f(&mut scalar);
        (packed, scalar)
    }

    #[test]
    fn backends_agree_on_mixed_ops() {
        let (packed, scalar) = twin_run(4, 130, |x| {
            let pattern: Vec<bool> = (0..130).map(|i| i % 3 == 0).collect();
            x.write_row(0, 0, &pattern).unwrap();
            x.write_row(1, 5, &pattern[..100]).unwrap();
            x.init_region(&Region::new(2..4, 0..130)).unwrap();
            x.nor_rows(&[0, 1], 2, 3..120, true).unwrap();
            x.shift_row(2, 0..130, 7).unwrap();
            x.shift_row_to(2, 3, 10..80, -3, true).unwrap();
            x.nor_cols(&[0, 64, 129], 65, 0..4, false).unwrap();
            x.reset_region(&Region::new(0..1, 60..70)).unwrap();
        });
        assert_eq!(packed.backend_kind(), BackendKind::Packed);
        assert_eq!(scalar.backend_kind(), BackendKind::Scalar);
        assert_eq!(packed, scalar, "cross-backend semantic equality");
        for r in 0..4 {
            assert_eq!(
                packed.read_row_bits(r, 0..130).unwrap(),
                scalar.read_row_bits(r, 0..130).unwrap()
            );
            for c in 0..130 {
                assert_eq!(
                    packed.cell(r, c).unwrap().writes(),
                    scalar.cell(r, c).unwrap().writes(),
                    "wear at ({r},{c})"
                );
            }
        }
        assert_eq!(packed.wear_summary(), scalar.wear_summary());
    }

    #[test]
    fn backends_agree_on_strict_failure_prefix() {
        // Output row initialized only on [0, 70): strict NOR over
        // 0..100 fails at column 70, after driving (and wearing)
        // exactly the first 70 columns — on both backends.
        let (packed, scalar) = twin_run(3, 128, |x| {
            x.write_row(0, 0, &[true; 128]).unwrap();
            x.init_region(&Region::new(2..3, 0..70)).unwrap();
            let err = x.nor_rows(&[0, 1], 2, 0..100, true).unwrap_err();
            assert_eq!(
                err,
                CrossbarError::OutputNotInitialized { row: 2, col: 70 }
            );
        });
        assert_eq!(packed, scalar);
        assert_eq!(packed.cell(2, 69).unwrap().writes(), 2, "driven before the failure");
        assert_eq!(packed.cell(2, 70).unwrap().writes(), 0, "failing column untouched");
    }

    #[test]
    fn backends_agree_under_faults() {
        let (packed, scalar) = twin_run(3, 80, |x| {
            x.inject_fault(0, 66, Some(Fault::StuckAt1)).unwrap();
            x.inject_fault(2, 3, Some(Fault::StuckAt0)).unwrap();
            x.write_row(0, 0, &[false; 80]).unwrap();
            x.init_region(&Region::new(2..3, 0..80)).unwrap();
            x.nor_rows(&[0], 2, 0..80, false).unwrap();
            x.inject_fault(0, 66, None).unwrap();
        });
        assert_eq!(packed, scalar);
        // Stuck-at-1 input pulls NOR to 0 at column 66 only.
        assert!(packed.read_cell(2, 65).unwrap());
        assert!(!packed.read_cell(2, 66).unwrap());
        // The stuck-at-0 output stays 0 but wears.
        assert!(!packed.read_cell(2, 3).unwrap());
        assert_eq!(packed.cell(2, 3).unwrap().writes(), 2);
    }

    #[test]
    fn read_row_into_reuses_buffer() {
        let mut x = bar(2, 70);
        x.write_row(0, 64, &[true, false, true]).unwrap();
        let mut buf = vec![true; 5];
        x.read_row_into(0, 63..68, &mut buf).unwrap();
        assert_eq!(buf, vec![false, true, false, true, false]);
        assert!(x.read_row_into(0, 60..80, &mut buf).is_err());
    }

    #[test]
    fn word_level_read_write_both_backends() {
        for kind in [BackendKind::Scalar, BackendKind::Packed] {
            let mut x = Crossbar::with_backend(2, 150, kind).unwrap();
            let words = [0xAAAA_5555_F0F0_0F0Fu64, 0x1234_5678_9ABC_DEF0];
            x.write_row_words(1, 17, &words, 101).unwrap();
            let mut back = Vec::new();
            x.read_row_words(1, 17..118, &mut back).unwrap();
            let mut expect = words.to_vec();
            crate::packed::mask_tail(&mut expect, 101);
            assert_eq!(back, expect, "{kind:?}");
            // Bit view agrees with word view.
            let bits = x.read_row_bits(1, 17..118).unwrap();
            for (j, &b) in bits.iter().enumerate() {
                assert_eq!(b, (expect[j / 64] >> (j % 64)) & 1 == 1);
            }
            // Every written cell wore exactly once.
            assert_eq!(x.cell(1, 17).unwrap().writes(), 1);
            assert_eq!(x.cell(1, 117).unwrap().writes(), 1);
            assert_eq!(x.cell(1, 16).unwrap().writes(), 0);
        }
    }

    /// The value half (`store_row_words`) plus the wear half
    /// (`wear_region`) over the same span leave exactly what one
    /// `write_row_words` leaves, fault cells included.
    #[test]
    fn word_store_plus_wear_equals_word_write_on_all_backends() {
        let words = [0xAAAA_5555_F0F0_0F0Fu64, 0x1234_5678_9ABC_DEF0];
        for kind in [BackendKind::Scalar, BackendKind::Packed, BackendKind::Sliced] {
            let mut split = Crossbar::with_backend(2, 150, kind).unwrap();
            split.inject_fault(1, 20, Some(Fault::StuckAt0)).unwrap();
            let mut whole = split.clone();
            split.store_row_words(1, 17, &words, 101).unwrap();
            assert_eq!(split.cell(1, 17).unwrap().writes(), 0, "{kind:?}");
            split.wear_region(&Region::new(1..2, 17..118), 1).unwrap();
            whole.write_row_words(1, 17, &words, 101).unwrap();
            assert_eq!(split, whole, "{kind:?}");
            assert!(!split.read_cell(1, 20).unwrap(), "{kind:?}: fault kept");
            assert!(split.store_row_words(1, 100, &words, 51).is_err());
        }
    }

    /// A dense wear add leaves each cell the pulses one `wear_region`
    /// per cell would, after and before range writes, and the
    /// endurance stats agree on every backend.
    #[test]
    fn dense_wear_equals_per_cell_wear_on_all_backends() {
        let pulses: Vec<u64> = (0..130).map(|j| (j * 7 % 5) as u64).collect();
        for kind in [
            BackendKind::Scalar,
            BackendKind::Packed,
            BackendKind::Sliced,
        ] {
            let mut dense = Crossbar::with_backend(2, 200, kind).unwrap();
            dense.write_row(1, 0, &[true; 40]).unwrap();
            let mut cellwise = dense.clone();
            dense.wear_row_dense(1, 30, &pulses).unwrap();
            dense.write_row(1, 150, &[false; 50]).unwrap();
            for (j, &p) in pulses.iter().enumerate() {
                let region = Region::new(1..2, 30 + j..31 + j);
                cellwise.wear_region(&region, p).unwrap();
            }
            cellwise.write_row(1, 150, &[false; 50]).unwrap();
            for c in 0..200 {
                assert_eq!(
                    dense.cell(1, c).unwrap(),
                    cellwise.cell(1, c).unwrap(),
                    "{kind:?} {c}"
                );
            }
            assert_eq!(dense.wear_stats(), cellwise.wear_stats(), "{kind:?}");
            assert_eq!(
                dense.row_wear_totals(),
                cellwise.row_wear_totals(),
                "{kind:?}"
            );
            assert!(dense.wear_row_dense(1, 100, &pulses).is_err());
        }
    }

    #[test]
    fn default_backend_is_packed_and_scalar_opt_in_works() {
        // The env override is read once per process, so only assert
        // the constructors' explicit behaviour here.
        assert_eq!(
            Crossbar::new_scalar(1, 1).unwrap().backend_kind(),
            BackendKind::Scalar
        );
        assert_eq!(
            Crossbar::with_backend(1, 1, BackendKind::Packed)
                .unwrap()
                .backend_kind(),
            BackendKind::Packed
        );
    }
}
