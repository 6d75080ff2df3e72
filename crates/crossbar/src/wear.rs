//! Lazily materialized per-cell wear plane for the packed backend.
//!
//! The scalar backend pays one counter increment per cell per write
//! pulse. The packed backend instead records *column-range increments*
//! — one `(start, end, delta)` entry per operation and row — and only
//! materializes per-cell counters when an entry buffer grows past a
//! threshold (or when a per-cell query forces a read through the
//! pending entries). A MAGIC NOR over 3,000 columns therefore costs
//! one range push instead of 3,000 increments, while every per-cell
//! count stays exactly equal to the scalar backend's.
//!
//! Materialized counters live in one dense *block* per row, covering
//! only the columns that have been folded in.
//!
//! Wear that depends on a row's values — the row multiplier's
//! shift-add, whose iterations write only where a multiplier bit is
//! set — is kept beside the entries as *window records*
//! ([`WindowRecord`]): one record per region stands for one window
//! per multiplier offset, and the stats fold reads it in closed form
//! from each lane's popcount and prefix counts
//! ([`WindowRecord::fold`]) instead of walking its windows.

use std::ops::Range;
use std::sync::Arc;

/// Pending entries per row before they are folded into the dense
/// block. Bounds both the memory of the pending buffer and the cost of
/// a per-cell query (`O(threshold)`).
const COMPACT_THRESHOLD: usize = 192;

/// `(max, total, touched)` per-cell write statistics of a set of
/// cells — what [`crate::EnduranceReport`] reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct WearStats {
    /// Most writes any one cell took.
    pub(crate) max: u64,
    /// Writes summed over the cells.
    pub(crate) total: u64,
    /// Cells that took at least one write.
    pub(crate) touched: usize,
}

impl WearStats {
    /// Adds `n` cells that took `writes` writes each.
    pub(crate) fn add_run(&mut self, writes: u64, n: usize) {
        if writes > 0 && n > 0 {
            self.max = self.max.max(writes);
            self.total += writes * n as u64;
            self.touched += n;
        }
    }

    /// Adds one cell per counter.
    fn add_cells(&mut self, cells: &[u64]) {
        for &w in cells {
            self.max = self.max.max(w);
            self.total += w;
            self.touched += usize::from(w > 0);
        }
    }

    /// Adds the cells another fold counted.
    pub(crate) fn merge(&mut self, other: WearStats) {
        self.max = self.max.max(other.max);
        self.total += other.total;
        self.touched += other.touched;
    }
}

/// Whether two column spans share a column.
pub(crate) fn overlaps(a: &Range<usize>, b: &Range<usize>) -> bool {
    a.start < b.end && b.start < a.end
}

/// The shape of a window record: offset `i` of a row's multiplier
/// pulses the window `[col + i·stride, col + i·stride + len)`,
/// `pulses` times per cell, in every lane whose bit `i` is set — see
/// [`crate::Crossbar::wear_row_windows`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WearWindow {
    /// First column of offset 0's window.
    pub col: usize,
    /// Columns in each window.
    pub len: usize,
    /// Columns each offset moves its window: 0 (every offset pulses
    /// the same span) or 1 (the window slides one column per offset).
    pub stride: usize,
    /// Pulses each window lays on each of its cells.
    pub pulses: u64,
}

impl WearWindow {
    /// Columns the windows of `offsets ≥ 1` offsets cover together.
    pub(crate) fn hull(&self, offsets: usize) -> Range<usize> {
        self.col..self.col + (offsets - 1) * self.stride + self.len
    }
}

/// Value-dependent wear of one row: a [`WearWindow`] over one lane
/// word per offset (bit `l` of `words[i]` set = lane `l` takes offset
/// `i`'s window; the scalar and packed backends read bit 0). The
/// records of one shift-add share their words.
#[derive(Debug, Clone)]
pub(crate) struct WindowRecord {
    window: WearWindow,
    words: Arc<[u64]>,
}

impl WindowRecord {
    /// A record of `window` over `words` (at least one word, a
    /// non-empty window, stride 0 or 1).
    pub(crate) fn new(window: WearWindow, words: Arc<[u64]>) -> Self {
        debug_assert!(!words.is_empty() && window.len > 0 && window.stride <= 1);
        WindowRecord { window, words }
    }

    pub(crate) fn pulses(&self) -> u64 {
        self.window.pulses
    }

    /// Columns the record's windows cover together.
    pub(crate) fn hull(&self) -> Range<usize> {
        self.window.hull(self.words.len())
    }

    /// Whether every offset's window reaches the last offset's start,
    /// `(m − 1)·stride < len` for `m` offsets: then each lane's count
    /// rises, plateaus and falls across the hull, which is what
    /// [`WindowRecord::fold`] relies on. A record that is not
    /// foldable is stored as plain entries.
    pub(crate) fn foldable(&self) -> bool {
        (self.words.len() - 1) * self.window.stride < self.window.len
    }

    /// Pulses lane `lane` takes on column `col`: one window per offset
    /// `i` with `i·stride ≤ col − start < i·stride + len` and the
    /// lane's bit set.
    pub(crate) fn lane_writes_at(&self, lane: usize, col: usize) -> u64 {
        let WearWindow { len, stride, .. } = self.window;
        if !self.hull().contains(&col) {
            return 0;
        }
        let t = col - self.window.col;
        let offsets = match stride {
            0 => &self.words[..],
            _ => &self.words[(t + 1).saturating_sub(len)..=t.min(self.words.len() - 1)],
        };
        let lit = offsets.iter().filter(|&&w| w >> lane & 1 == 1).count();
        lit as u64 * self.window.pulses
    }

    /// The record as plain entries: each offset's window with its lane
    /// word, offsets no lane takes skipped.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (Range<usize>, u64)> + '_ {
        let WearWindow {
            col, len, stride, ..
        } = self.window;
        self.words
            .iter()
            .enumerate()
            .filter(|&(_, &w)| w != 0)
            .map(move |(i, &w)| (col + i * stride..col + i * stride + len, w))
    }

    /// Folds the pulses of each of the first `lanes` lanes into
    /// `stats[lane]` in closed form. `segs` is the row's background
    /// wear as `(start, end, writes)` segments of constant wear
    /// covering the row in column order, their own stats already
    /// folded; `bits` supplies each lane's bits of the words. With `k`
    /// offsets set, `P(t)` the number set at or below `t`, and `f` and
    /// `g` the first and last, a lane's count at column `x` rises as
    /// `P(x − col)` up to `col + (m − 1)·stride`, stays `k` through
    /// `col + len − 1` and falls as `k − P(x − col − len)` after that.
    /// So per lane:
    ///
    /// * `total` adds `k · len · pulses`;
    /// * `max` is, per segment of background wear `u` meeting the
    ///   hull, `u` plus the peak count on that part: `P` at its right
    ///   end while it rises, `k − P` at its left end while it falls,
    ///   `k` where it meets the plateau;
    /// * `touched` adds, in zero-background segments only, their
    ///   overlap with `[col + f·stride, col + g·stride + len)`, where
    ///   the count is positive.
    ///
    /// A stride-0 record is all plateau, so its lanes take the
    /// segments' highest `u` and zero cells, found once.
    pub(crate) fn fold(
        &self,
        bits: &mut LaneLimbs,
        lanes: usize,
        segs: &[(usize, usize, u64)],
        stats: &mut [WearStats],
    ) {
        let WearWindow {
            col,
            len,
            stride,
            pulses,
        } = self.window;
        let m = self.words.len();
        let hull = self.hull();
        let from = segs.partition_point(|s| s.1 <= hull.start);
        let to = segs.partition_point(|s| s.0 < hull.end);
        let segs = &segs[from..to];
        let clip = |s: usize, e: usize, span: &Range<usize>| {
            e.min(span.end).saturating_sub(s.max(span.start))
        };
        let top = segs.iter().map(|s| s.2).max().unwrap_or(0);
        let zeros: usize = segs
            .iter()
            .filter(|s| s.2 == 0)
            .map(|&(s, e, _)| clip(s, e, &hull))
            .sum();
        bits.load(self, lanes);
        for (lane, stats) in stats.iter_mut().enumerate().take(lanes) {
            let LaneBits { limbs, k, f, g } = bits.lane(lane);
            if k == 0 {
                continue;
            }
            stats.total += k * len as u64 * pulses;
            if stride == 0 {
                stats.max = stats.max.max(top + k * pulses);
                stats.touched += zeros;
                continue;
            }
            let lit = col + f..col + g + len;
            for &(s, e, u) in segs {
                // The segment's part of the hull, relative to `col`.
                let (a, b) = (s.max(hull.start) - col, e.min(hull.end) - col);
                let peak = if b < m {
                    ones_through(limbs, b - 1)
                } else if a >= len {
                    k - ones_through(limbs, a - len)
                } else {
                    k
                };
                stats.max = stats.max.max(u + peak * pulses);
                if u == 0 {
                    stats.touched += clip(s, e, &lit);
                }
            }
        }
    }
}

/// Set bits of `limbs` at positions `0..=t`.
fn ones_through(limbs: &[u64], t: usize) -> u64 {
    let (full, rem) = ((t + 1) / 64, (t + 1) % 64);
    let whole: u64 = limbs[..full]
        .iter()
        .map(|w| u64::from(w.count_ones()))
        .sum();
    match rem {
        0 => whole,
        _ => whole + u64::from((limbs[full] & ((1 << rem) - 1)).count_ones()),
    }
}

/// One lane's bits of a record's words: its limbs (bit `i` = offset
/// `i`), their popcount `k`, and the first and last set offsets `f`
/// and `g` (meaningless when `k = 0`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct LaneBits<'a> {
    limbs: &'a [u64],
    k: u64,
    f: usize,
    g: usize,
}

/// The per-lane bits of the last record's words the fold transposed:
/// the records of one shift-add share their words, so each row
/// transposes them, and counts each lane's offsets, once.
#[derive(Default)]
pub(crate) struct LaneLimbs {
    words: Option<Arc<[u64]>>,
    limbs: Vec<u64>,
    stride: usize,
    /// `(k, f, g)` per lane.
    counts: Vec<(u64, usize, usize)>,
}

impl LaneLimbs {
    /// Takes the first `lanes` lanes' bits of `record`'s words, unless
    /// they are the words already held: bit 0 of each word alone on
    /// one lane, a 64×64 transpose per 64 offsets otherwise.
    fn load(&mut self, record: &WindowRecord, lanes: usize) {
        let words = &record.words;
        if self.words.as_ref().is_some_and(|w| Arc::ptr_eq(w, words)) {
            return;
        }
        if lanes == 1 {
            self.limbs.clear();
            let limb = |chunk: &[u64]| chunk.iter().rev().fold(0, |acc, &w| acc << 1 | (w & 1));
            self.limbs.extend(words.chunks(64).map(limb));
            self.stride = self.limbs.len();
        } else {
            self.stride = crate::lanes::lane_limbs_flat(words, &mut self.limbs);
        }
        let lane_counts = self.limbs.chunks(self.stride).take(lanes).map(|limbs| {
            let k: u64 = limbs.iter().map(|w| u64::from(w.count_ones())).sum();
            let first = limbs.iter().position(|&w| w != 0).unwrap_or(0);
            let last = limbs.iter().rposition(|&w| w != 0).unwrap_or(0);
            let f = first * 64 + limbs[first].trailing_zeros() as usize;
            let g = (last * 64 + 63).saturating_sub(limbs[last].leading_zeros() as usize);
            (k, f, g)
        });
        self.counts.clear();
        self.counts.extend(lane_counts);
        self.words = Some(Arc::clone(words));
    }

    fn lane(&self, lane: usize) -> LaneBits<'_> {
        let (k, f, g) = self.counts[lane];
        LaneBits {
            limbs: &self.limbs[lane * self.stride..][..self.stride],
            k,
            f,
            g,
        }
    }
}

/// One row's wear state: a dense block of folded counters plus pending
/// range increments not yet folded in, and the window records laid on
/// top of both.
#[derive(Debug, Clone, Default)]
struct RowWear {
    /// First column of `block`.
    col0: usize,
    /// Dense per-cell counters over `[col0, col0 + block.len())`;
    /// cells outside it have nothing folded in. Empty until the first
    /// compaction.
    block: Vec<u64>,
    /// Range increments `(start, end, delta)` applied after `block`.
    pending: Vec<(u32, u32, u64)>,
    /// Foldable window records (lane 0), hulls pairwise disjoint.
    records: Vec<WindowRecord>,
}

impl RowWear {
    fn block_cols(&self) -> Range<usize> {
        self.col0..self.col0 + self.block.len()
    }

    /// Grows `block` with zero counters until it covers `cols`.
    fn cover(&mut self, cols: Range<usize>) {
        if self.block.is_empty() {
            self.col0 = cols.start;
            self.block.resize(cols.len(), 0);
            return;
        }
        let end = cols.end.max(self.block_cols().end);
        self.block.resize(end - self.col0, 0);
        if cols.start < self.col0 {
            let grow = self.col0 - cols.start;
            self.block.splice(0..0, std::iter::repeat_n(0, grow));
            self.col0 = cols.start;
        }
    }

    /// Folds the pending entries into `block`, grown to their hull:
    /// entry by entry when they cover fewer cells than the block holds,
    /// else through a difference array (`O(block + pending)`).
    fn fold_pending(&mut self) {
        let Some(start) = self.pending.iter().map(|e| e.0 as usize).min() else {
            return;
        };
        let end = self
            .pending
            .iter()
            .map(|e| e.1 as usize)
            .max()
            .unwrap_or(start);
        self.cover(start..end);
        let col0 = self.col0;
        let cells: usize = self.pending.iter().map(|e| (e.1 - e.0) as usize).sum();
        if cells <= self.block.len() {
            for &(s, e, d) in &self.pending {
                for w in &mut self.block[s as usize - col0..e as usize - col0] {
                    *w += d;
                }
            }
        } else {
            let mut diff = vec![0i64; self.block.len() + 1];
            for &(s, e, d) in &self.pending {
                diff[s as usize - col0] += d as i64;
                diff[e as usize - col0] -= d as i64;
            }
            let mut running = 0i64;
            for (w, d) in self.block.iter_mut().zip(&diff) {
                running += d;
                *w += running as u64;
            }
        }
        self.pending.clear();
    }

    /// Whether the pending entries are in column order, pairwise
    /// disjoint and outside the block — then every cell's count is
    /// either its block counter or one entry's delta.
    fn pending_disjoint(&self) -> bool {
        let block = self.block_cols();
        let mut prev_end = 0;
        self.pending.iter().all(|&(s, e, _)| {
            let (s, e) = (s as usize, e as usize);
            let ok = s >= prev_end && (block.is_empty() || e <= block.start || s >= block.end);
            prev_end = e;
            ok
        })
    }
}

/// Per-row wear counters stored as lazy range increments.
#[derive(Debug, Clone)]
pub(crate) struct WearPlane {
    cols: usize,
    rows: Vec<RowWear>,
}

impl WearPlane {
    pub(crate) fn new(rows: usize, cols: usize) -> Self {
        WearPlane {
            cols,
            rows: vec![RowWear::default(); rows],
        }
    }

    /// Records `delta` write pulses for every cell of `row` in `cols`.
    pub(crate) fn add(&mut self, row: usize, cols: Range<usize>, delta: u64) {
        if cols.start >= cols.end || delta == 0 {
            return;
        }
        let rw = &mut self.rows[row];
        let entry = (cols.start as u32, cols.end as u32, delta);
        // Coalesce immediate repeats over the same span (common for
        // staging cells rewritten op after op).
        if let Some(last) = rw.pending.last_mut() {
            if last.0 == entry.0 && last.1 == entry.1 {
                last.2 += delta;
                return;
            }
        }
        rw.pending.push(entry);
        if rw.pending.len() > COMPACT_THRESHOLD {
            rw.fold_pending();
        }
    }

    /// Lays `record`'s lane-0 pulses on `row`. The row keeps its
    /// records' hulls pairwise disjoint: one that meets the new
    /// record's hull first turns every record of the row into range
    /// entries, and so does a record that is not foldable.
    pub(crate) fn add_record(&mut self, row: usize, record: WindowRecord) {
        let hull = record.hull();
        let rw = &mut self.rows[row];
        if rw.records.iter().any(|r| overlaps(&r.hull(), &hull)) {
            for old in std::mem::take(&mut rw.records) {
                self.add_entries(row, &old);
            }
        }
        if record.foldable() {
            self.rows[row].records.push(record);
        } else {
            self.add_entries(row, &record);
        }
    }

    /// `record`'s lane-0 windows as range entries.
    fn add_entries(&mut self, row: usize, record: &WindowRecord) {
        for (cols, mask) in record.entries() {
            if mask & 1 == 1 {
                self.add(row, cols, record.pulses());
            }
        }
    }

    /// Exact write count of one cell — reads through the pending
    /// entries and the records without materializing anything
    /// (`O(threshold)` plus the offsets of the records covering it).
    pub(crate) fn writes_at(&self, row: usize, col: usize) -> u64 {
        let rw = &self.rows[row];
        let folded = col
            .checked_sub(rw.col0)
            .and_then(|j| rw.block.get(j))
            .copied()
            .unwrap_or(0);
        let records: u64 = rw.records.iter().map(|r| r.lane_writes_at(0, col)).sum();
        let col = col as u32;
        folded
            + records
            + rw.pending
                .iter()
                .filter(|&&(s, e, _)| s <= col && col < e)
                .map(|&(_, _, d)| d)
                .sum::<u64>()
    }

    /// `(max, total, touched)` over all columns of `row`. A row with
    /// records folds its block and entries as segments and lays each
    /// record on them in closed form ([`WindowRecord::fold`]).
    /// Otherwise the block is one pass over its counters and pending
    /// entries that are in order, disjoint and outside the block count
    /// as whole runs, so the rows the stages leave behind fold without
    /// a per-cell callback, a sort or an allocation; other rows take
    /// the exact segment sweep.
    pub(crate) fn row_stats(&self, row: usize) -> WearStats {
        let rw = &self.rows[row];
        let mut stats = WearStats::default();
        if !rw.records.is_empty() {
            let mut segs = Vec::new();
            self.background_segments(row, |s, e, w| {
                stats.add_run(w, e - s);
                segs.push((s, e, w));
            });
            let mut bits = LaneLimbs::default();
            for record in &rw.records {
                record.fold(&mut bits, 1, &segs, std::slice::from_mut(&mut stats));
            }
        } else if rw.pending_disjoint() {
            stats.add_cells(&rw.block);
            for &(s, e, d) in &rw.pending {
                stats.add_run(d, (e - s) as usize);
            }
        } else {
            self.for_each_segment(row, |w, n| stats.add_run(w, n));
        }
        stats
    }

    /// Visits `(start, end, writes)` segments of constant wear from the
    /// block and the pending entries alone — the background records
    /// are laid on — covering all columns of `row` in order.
    pub(crate) fn background_segments<F: FnMut(usize, usize, u64)>(&self, row: usize, mut f: F) {
        let mut at = 0;
        self.sweep(row, false, |w, n| {
            f(at, at + n, w);
            at += n;
        });
    }

    /// Visits disjoint segments of constant wear covering all columns
    /// of `row`, in column order, as `(writes, cell_count)` pairs,
    /// records included.
    pub(crate) fn for_each_segment<F: FnMut(u64, usize)>(&self, row: usize, f: F) {
        self.sweep(row, true, f);
    }

    /// The segment walk: a sweep over the sorted boundaries of the
    /// pending entries (and, with `records`, of the records' windows)
    /// that walks the block cell by cell (`O(entries log entries +
    /// block)`). Never forces a compaction, so `&self` suffices on hot
    /// paths.
    fn sweep<F: FnMut(u64, usize)>(&self, row: usize, records: bool, mut f: F) {
        let rw = &self.rows[row];
        let mut events: Vec<(usize, i64)> = Vec::with_capacity(rw.pending.len() * 2);
        for &(s, e, d) in &rw.pending {
            events.push((s as usize, d as i64));
            events.push((e as usize, -(d as i64)));
        }
        if records {
            for r in &rw.records {
                let d = r.pulses() as i64;
                for (cols, _) in r.entries().filter(|&(_, mask)| mask & 1 == 1) {
                    events.push((cols.start, d));
                    events.push((cols.end, -d));
                }
            }
        }
        events.sort_unstable();
        let block = rw.block_cols();
        // Adjacent equal levels merge into one segment.
        let mut run = (0u64, 0usize);
        let mut emit = |w: u64, n: usize| {
            if w == run.0 {
                run.1 += n;
            } else {
                if run.1 > 0 {
                    f(run.0, run.1);
                }
                run = (w, n);
            }
        };
        let (mut pos, mut level, mut next) = (0usize, 0i64, 0usize);
        while pos < self.cols {
            while next < events.len() && events[next].0 == pos {
                level += events[next].1;
                next += 1;
            }
            let event = events.get(next).map_or(self.cols, |e| e.0);
            if block.contains(&pos) {
                let end = event.min(block.end);
                for &w in &rw.block[pos - block.start..end - block.start] {
                    emit(w + level as u64, 1);
                }
                pos = end;
            } else {
                let edge = if pos < block.start {
                    block.start
                } else {
                    self.cols
                };
                let end = event.min(edge);
                emit(level as u64, end - pos);
                pos = end;
            }
        }
        if run.1 > 0 {
            f(run.0, run.1);
        }
    }

    /// Clears all counters (block, pending entries and records).
    pub(crate) fn reset(&mut self) {
        for rw in &mut self.rows {
            rw.block.clear();
            rw.pending.clear();
            rw.records.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn materialize(plane: &WearPlane, row: usize) -> Vec<u64> {
        let mut out = Vec::new();
        plane.for_each_segment(row, |w, n| out.extend(std::iter::repeat_n(w, n)));
        out
    }

    /// A record of `(col, len, stride, pulses)` over `words`.
    fn record(col: usize, len: usize, stride: usize, pulses: u64, words: &[u64]) -> WindowRecord {
        let window = WearWindow {
            col,
            len,
            stride,
            pulses,
        };
        WindowRecord::new(window, words.into())
    }

    #[test]
    fn range_increments_accumulate() {
        let mut p = WearPlane::new(2, 8);
        p.add(0, 0..4, 1);
        p.add(0, 2..6, 2);
        p.add(1, 7..8, 5);
        assert_eq!(materialize(&p, 0), vec![1, 1, 3, 3, 2, 2, 0, 0]);
        assert_eq!(materialize(&p, 1), vec![0, 0, 0, 0, 0, 0, 0, 5]);
        assert_eq!(p.writes_at(0, 3), 3);
        assert_eq!(p.writes_at(0, 6), 0);
    }

    #[test]
    fn coalesces_repeated_spans() {
        let mut p = WearPlane::new(1, 4);
        for _ in 0..10 {
            p.add(0, 1..3, 1);
        }
        assert_eq!(p.rows[0].pending.len(), 1, "identical spans coalesce");
        assert_eq!(p.writes_at(0, 1), 10);
    }

    #[test]
    fn compaction_preserves_counts() {
        let mut p = WearPlane::new(1, 16);
        let mut expect = vec![0u64; 16];
        // Alternate spans so coalescing never fires and compaction does.
        for i in 0..3 * COMPACT_THRESHOLD {
            let s = i % 13;
            let e = s + 1 + (i % 3);
            let e = e.min(16);
            p.add(0, s..e, 1);
            for w in &mut expect[s..e] {
                *w += 1;
            }
        }
        assert!(!p.rows[0].block.is_empty(), "compaction must have fired");
        assert_eq!(materialize(&p, 0), expect);
        for (c, &w) in expect.iter().enumerate() {
            assert_eq!(p.writes_at(0, c), w, "cell {c}");
        }
    }

    #[test]
    fn segments_cover_all_columns() {
        let mut p = WearPlane::new(1, 10);
        p.add(0, 3..5, 2);
        let mut cells = 0;
        p.for_each_segment(0, |_, n| cells += n);
        assert_eq!(cells, 10);
    }

    #[test]
    fn reset_clears_both_planes() {
        let mut p = WearPlane::new(1, 8);
        for i in 0..COMPACT_THRESHOLD + 10 {
            p.add(0, i % 7..i % 7 + 1, 1);
        }
        p.add_record(0, record(2, 2, 1, 4, &[1, 0, 1]));
        p.reset();
        assert_eq!(materialize(&p, 0), vec![0; 8]);
        assert_eq!(p.writes_at(0, 0), 0);
        assert_eq!(p.row_stats(0), WearStats::default());
    }

    #[test]
    fn zero_width_and_zero_delta_are_no_ops() {
        let mut p = WearPlane::new(1, 4);
        p.add(0, 2..2, 1);
        p.add(0, 0..4, 0);
        assert!(p.rows[0].pending.is_empty());
        assert!(p.rows[0].block.is_empty());
    }

    /// A record leaves the pending entries as they are and is read
    /// through: per cell by `writes_at` and the segment walk, and in
    /// closed form by `row_stats`, on a background of entries.
    #[test]
    fn records_stay_beside_pending_entries() {
        let mut p = WearPlane::new(1, 16);
        p.add(0, 0..2, 1);
        p.add(0, 4..12, 1);
        p.add(0, 13..15, 3);
        // Offsets 0, 2 and 3 pulse [4 + i, 4 + i + 4) twice per cell.
        p.add_record(0, record(4, 4, 1, 2, &[1, 0, 1, 1]));
        assert_eq!(p.rows[0].pending, vec![(0, 2, 1), (4, 12, 1), (13, 15, 3)]);
        assert!(p.rows[0].block.is_empty());
        assert_eq!(p.rows[0].records.len(), 1);
        let expect = vec![1, 1, 0, 0, 3, 3, 5, 7, 5, 5, 3, 1, 0, 3, 3, 0];
        assert_eq!(materialize(&p, 0), expect);
        for (c, &w) in expect.iter().enumerate() {
            assert_eq!(p.writes_at(0, c), w, "col {c}");
        }
        assert_eq!(
            p.row_stats(0),
            WearStats {
                max: 7,
                total: 40,
                touched: 12
            }
        );
    }

    /// A record whose hull meets a stored record's turns the stored
    /// ones into range entries; one that does not stays a record, and
    /// a record that is not foldable goes down as range entries.
    #[test]
    fn overlapping_records_expand_into_pending_entries() {
        let mut p = WearPlane::new(1, 20);
        p.add_record(0, record(0, 3, 1, 1, &[1, 1]));
        p.add_record(0, record(4, 2, 0, 1, &[1, 0, 1]));
        assert_eq!(p.rows[0].records.len(), 2);
        assert!(p.rows[0].pending.is_empty());
        p.add_record(0, record(3, 2, 1, 1, &[1]));
        assert_eq!(p.rows[0].records.len(), 1, "the two stored ones expanded");
        assert_eq!(p.rows[0].pending, vec![(0, 3, 1), (1, 4, 1), (4, 6, 2)]);
        // Three offsets one column wide: the windows do not overlap.
        p.add_record(0, record(10, 1, 1, 2, &[1, 0, 1]));
        assert_eq!(p.rows[0].records.len(), 1);
        assert_eq!(p.rows[0].pending.len(), 5);
        let mut expect = vec![1, 2, 2, 2, 3, 2];
        expect.extend([0, 0, 0, 0, 2, 0, 2, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(materialize(&p, 0), expect);
        let mut stats = WearStats::default();
        expect.iter().for_each(|&w| stats.add_run(w, 1));
        assert_eq!(p.row_stats(0), stats);
    }

    /// The per-cell model the plane must agree with.
    struct Naive(Vec<Vec<u64>>);

    impl Naive {
        fn stats(&self, row: usize) -> WearStats {
            let mut s = WearStats::default();
            for &w in &self.0[row] {
                s.add_run(w, 1);
            }
            s
        }
    }

    /// Random range adds (repeated spans, wide and narrow, enough to
    /// compact) mixed with dense adds at the same and at new offsets,
    /// and resets, against a per-cell counter model: every cell's
    /// count, the segment walk and the stats fold must agree after
    /// each step.
    #[test]
    fn matches_a_per_cell_model() {
        let mut rng = StdRng::seed_from_u64(16);
        for cols in [1usize, 7, 64, 130, 515] {
            let rows = 3;
            let mut plane = WearPlane::new(rows, cols);
            let mut model = Naive(vec![vec![0; cols]; rows]);
            let mut last_shape = vec![(0usize, 1usize, 1usize); rows];
            for step in 0..1200 {
                let row = rng.gen_range(0..rows);
                let roll = rng.gen_range(0..100u32);
                if roll < 70 {
                    let s = rng.gen_range(0..cols);
                    let e = rng.gen_range(s + 1..=cols);
                    let (s, e) = if roll < 20 { (0, cols.min(3)) } else { (s, e) };
                    let d = rng.gen_range(0..4u64);
                    plane.add(row, s..e, d);
                    for w in &mut model.0[row][s..e] {
                        *w += d;
                    }
                } else if roll < 98 {
                    // A record over random bits (sometimes none set),
                    // again over the last one's hull (which expands it)
                    // or at a new one; some not foldable.
                    let (col, len, offsets) = if roll < 80 {
                        last_shape[row]
                    } else {
                        let col = rng.gen_range(0..cols);
                        let len = rng.gen_range(1..=cols - col);
                        (col, len, rng.gen_range(1..=cols - col - len + 1))
                    };
                    last_shape[row] = (col, len, offsets);
                    let stride = rng.gen_range(0..2usize);
                    let pulses = rng.gen_range(1..3u64);
                    let words: Vec<u64> = (0..offsets).map(|_| rng.gen_range(0..2u64)).collect();
                    plane.add_record(row, record(col, len, stride, pulses, &words));
                    for (i, _) in words.iter().enumerate().filter(|&(_, &w)| w == 1) {
                        let at = col + i * stride;
                        for w in &mut model.0[row][at..at + len] {
                            *w += pulses;
                        }
                    }
                } else {
                    plane.reset();
                    model.0.iter_mut().for_each(|r| r.fill(0));
                }
                for r in 0..rows {
                    let what = format!("cols {cols}, step {step}, row {r}");
                    assert_eq!(materialize(&plane, r), model.0[r], "{what}");
                    assert_eq!(plane.row_stats(r), model.stats(r), "{what}");
                    let c = rng.gen_range(0..cols);
                    assert_eq!(plane.writes_at(r, c), model.0[r][c], "{what}, col {c}");
                }
            }
        }
    }

    /// Both stats paths — the direct fold and the sweep — agree with
    /// the model on rows built to take each of them.
    #[test]
    fn stats_fold_takes_both_paths() {
        let mut p = WearPlane::new(3, 40);
        for row in 0..2 {
            (p.rows[row].col0, p.rows[row].block) = (10, vec![0, 2, 1]);
        }
        // In order, disjoint, outside the block: the direct fold.
        p.add(0, 0..4, 2);
        p.add(0, 20..30, 5);
        assert!(p.rows[0].pending_disjoint());
        // Overlapping the block: the sweep.
        p.add(1, 11..20, 1);
        assert!(!p.rows[1].pending_disjoint());
        // Out of order: the sweep.
        p.add(2, 20..30, 1);
        p.add(2, 0..4, 1);
        assert!(!p.rows[2].pending_disjoint());
        for row in 0..3 {
            let mut expect = WearStats::default();
            for w in materialize(&p, row) {
                expect.add_run(w, 1);
            }
            assert_eq!(p.row_stats(row), expect, "row {row}");
        }
        assert_eq!(
            p.row_stats(0),
            WearStats {
                max: 5,
                total: 8 + 3 + 50,
                touched: 4 + 2 + 10
            }
        );
    }
}
