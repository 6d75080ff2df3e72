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
//! only the columns that have been folded in. A controller that
//! already knows a whole span's per-cell pulse counts (the closed-form
//! row multiplier) adds them to the block in one dense add
//! ([`WearPlane::add_dense`]) instead of one range entry per write;
//! only the pending entries that reach into that span fold with it.

use std::ops::Range;

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

/// One row's wear state: a dense block of folded counters plus pending
/// range increments not yet folded in.
#[derive(Debug, Clone, Default)]
struct RowWear {
    /// First column of `block`.
    col0: usize,
    /// Dense per-cell counters over `[col0, col0 + block.len())`;
    /// cells outside it have nothing folded in. Empty until the first
    /// compaction or dense add.
    block: Vec<u64>,
    /// Range increments `(start, end, delta)` applied after `block`.
    pending: Vec<(u32, u32, u64)>,
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

    /// Records `pulses[j]` write pulses for cell `col0 + j` of `row`:
    /// one dense add into the row's block, grown to cover the span.
    /// Pending entries that reach into the block fold in with it (and
    /// may grow it further); the others stay pending, so the block
    /// spans only the dense writes and what overlaps them, and a row
    /// whose other entries are in order and disjoint keeps
    /// [`WearPlane::row_stats`]'s direct fold.
    pub(crate) fn add_dense(&mut self, row: usize, col0: usize, pulses: &[u64]) {
        if pulses.is_empty() {
            return;
        }
        let rw = &mut self.rows[row];
        rw.cover(col0..col0 + pulses.len());
        loop {
            let block = rw.block_cols();
            let inside = |&(s, e, _): &(u32, u32, u64)| {
                (s as usize) < block.end && (e as usize) > block.start
            };
            if !rw.pending.iter().any(inside) {
                break;
            }
            let (fold, keep) = std::mem::take(&mut rw.pending)
                .into_iter()
                .partition(inside);
            rw.pending = fold;
            rw.fold_pending();
            rw.pending = keep;
        }
        let at = col0 - rw.col0;
        for (w, &p) in rw.block[at..at + pulses.len()].iter_mut().zip(pulses) {
            *w += p;
        }
    }

    /// Exact write count of one cell — reads through the pending
    /// entries without materializing anything (`O(threshold)`).
    pub(crate) fn writes_at(&self, row: usize, col: usize) -> u64 {
        let rw = &self.rows[row];
        let folded = col
            .checked_sub(rw.col0)
            .and_then(|j| rw.block.get(j))
            .copied()
            .unwrap_or(0);
        let col = col as u32;
        folded
            + rw.pending
                .iter()
                .filter(|&&(s, e, _)| s <= col && col < e)
                .map(|&(_, _, d)| d)
                .sum::<u64>()
    }

    /// `(max, total, touched)` over all columns of `row`. The block is
    /// one pass over its counters and pending entries that are in
    /// order, disjoint and outside the block count as whole runs, so
    /// the rows the stages leave behind fold without a per-cell
    /// callback, a sort or an allocation; other rows take the exact
    /// segment sweep.
    pub(crate) fn row_stats(&self, row: usize) -> WearStats {
        let rw = &self.rows[row];
        let mut stats = WearStats::default();
        if rw.pending_disjoint() {
            stats.add_cells(&rw.block);
            for &(s, e, d) in &rw.pending {
                stats.add_run(d, (e - s) as usize);
            }
        } else {
            self.for_each_segment(row, |w, n| stats.add_run(w, n));
        }
        stats
    }

    /// Visits disjoint segments of constant wear covering all columns
    /// of `row`, in column order, as `(writes, cell_count)` pairs: a
    /// sweep over the sorted pending boundaries that walks the block
    /// cell by cell (`O(pending log pending + block)`). Never forces a
    /// compaction, so `&self` suffices on hot paths.
    pub(crate) fn for_each_segment<F: FnMut(u64, usize)>(&self, row: usize, mut f: F) {
        let rw = &self.rows[row];
        let mut events: Vec<(usize, i64)> = Vec::with_capacity(rw.pending.len() * 2);
        for &(s, e, d) in &rw.pending {
            events.push((s as usize, d as i64));
            events.push((e as usize, -(d as i64)));
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

    /// Clears all counters (block and pending entries).
    pub(crate) fn reset(&mut self) {
        for rw in &mut self.rows {
            rw.block.clear();
            rw.pending.clear();
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
        p.add_dense(0, 2, &[4, 5]);
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
        p.add_dense(0, 1, &[]);
        assert!(p.rows[0].pending.is_empty());
        assert!(p.rows[0].block.is_empty());
    }

    #[test]
    fn dense_add_folds_pending_into_one_block() {
        let mut p = WearPlane::new(1, 12);
        p.add(0, 0..2, 1);
        p.add(0, 9..11, 3);
        p.add_dense(0, 4, &[1, 0, 2]);
        // Neither entry reaches into the dense span: the block holds
        // the span alone and both stay pending, in order and disjoint.
        assert_eq!(p.rows[0].pending, vec![(0, 2, 1), (9, 11, 3)]);
        assert_eq!(p.rows[0].block_cols(), 4..7);
        assert!(p.rows[0].pending_disjoint());
        assert_eq!(materialize(&p, 0), vec![1, 1, 0, 0, 1, 0, 2, 0, 0, 3, 3, 0]);
    }

    /// An entry overlapping the dense span folds in and grows the
    /// block; one the grown block then reaches folds in too; a
    /// disjoint one stays pending.
    #[test]
    fn dense_add_folds_only_what_reaches_the_block() {
        let mut p = WearPlane::new(1, 16);
        p.add(0, 0..2, 1);
        p.add(0, 6..9, 2);
        p.add(0, 8..11, 1);
        p.add(0, 13..15, 4);
        p.add_dense(0, 4, &[1, 1, 1]);
        assert_eq!(p.rows[0].pending, vec![(0, 2, 1), (13, 15, 4)]);
        assert_eq!(p.rows[0].block_cols(), 4..11);
        assert!(p.rows[0].pending_disjoint());
        let expect = vec![1, 1, 0, 0, 1, 1, 3, 2, 3, 1, 1, 0, 0, 4, 4, 0];
        assert_eq!(materialize(&p, 0), expect);
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
            let mut last_dense = vec![(0usize, 1usize); rows];
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
                    let (col0, len) = if roll < 80 {
                        last_dense[row]
                    } else {
                        let col0 = rng.gen_range(0..cols);
                        (col0, rng.gen_range(1..=cols - col0))
                    };
                    let len = len.min(cols - col0);
                    last_dense[row] = (col0, len);
                    let pulses: Vec<u64> = (0..len).map(|_| rng.gen_range(0..3u64)).collect();
                    plane.add_dense(row, col0, &pulses);
                    for (w, p) in model.0[row][col0..].iter_mut().zip(&pulses) {
                        *w += p;
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
        // In order, disjoint, outside the block: the direct fold.
        p.add_dense(0, 10, &[0, 2, 1]);
        p.add(0, 0..4, 2);
        p.add(0, 20..30, 5);
        assert!(p.rows[0].pending_disjoint());
        // Overlapping the block: the sweep.
        p.add_dense(1, 10, &[0, 2, 1]);
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
