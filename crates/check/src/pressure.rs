//! Per-cell write-pressure accounting for verified programs.
//!
//! ReRAM cells endure a finite number of SET/RESET transitions, so a
//! program that hammers one cell ages the array far faster than its
//! total op count suggests. The verifier accumulates exactly one unit
//! of pressure per physical cell drive — the same accounting the
//! simulator's endurance counters use — which makes the static report
//! directly comparable to measured wear.

use cim_crossbar::CELL_ENDURANCE_WRITES;

/// A cell flagged by the hotspot report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hotspot {
    /// Word line of the cell.
    pub row: usize,
    /// Bit line of the cell.
    pub col: usize,
    /// Writes the program applies to it.
    pub writes: u64,
}

/// A maximal run of cells in one row that the program writes equally
/// often (at least once).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    row: usize,
    start: usize,
    end: usize,
    writes: u64,
}

/// Per-cell write counts accumulated by a single program.
///
/// While a program is being recorded, every drive of a row span is
/// kept as one `(row, start, end)` entry, so recording costs O(1)
/// whatever the span's width or the array's size.
/// `WritePressure::finish` sorts the spans' boundaries and sweeps
/// them into runs of equal count: the finished map is the sorted list
/// of maximal runs of cells written equally often, untouched cells
/// omitted, so two programs that drive every cell equally often give
/// equal maps. Only finished maps leave the crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WritePressure {
    rows: usize,
    cols: usize,
    spans: Vec<(usize, usize, usize)>,
    runs: Vec<Run>,
}

impl WritePressure {
    /// An empty map, ready to record.
    pub(crate) fn new(rows: usize, cols: usize) -> Self {
        WritePressure {
            rows,
            cols,
            spans: Vec::new(),
            runs: Vec::new(),
        }
    }

    /// Records one drive of every cell of `row` over `cols`, which must
    /// lie inside the array (an empty span records nothing).
    pub(crate) fn record_span(&mut self, row: usize, cols: &std::ops::Range<usize>) {
        if cols.start < cols.end {
            self.spans.push((row, cols.start, cols.end));
        }
    }

    /// Turns the recorded spans into runs of equal count.
    ///
    /// Each boundary is keyed `row · (cols + 1) + col`, so the keys of
    /// a row sort before the next row's and a span's end (at most
    /// `cols`) never meets the next row's first start; between two
    /// consecutive keys the count is constant.
    pub(crate) fn finish(&mut self) {
        let key = |row: usize, col: usize| row * (self.cols + 1) + col;
        let mut starts: Vec<usize> = self.spans.iter().map(|&(r, s, _)| key(r, s)).collect();
        let mut ends: Vec<usize> = self.spans.iter().map(|&(r, _, e)| key(r, e)).collect();
        starts.sort_unstable();
        ends.sort_unstable();
        let (mut i, mut count, mut pos) = (0, 0u64, 0);
        for &end in &ends {
            // Every start at or before `end` opens before it closes.
            while i < starts.len() && starts[i] <= end {
                self.push_run(pos, starts[i], count);
                (pos, count) = (starts[i], count + 1);
                i += 1;
            }
            self.push_run(pos, end, count);
            (pos, count) = (end, count - 1);
        }
        self.spans = Vec::new();
    }

    /// Appends the cells between keys `from..to` (one row) written
    /// `writes` times, extending the last run when it continues it.
    fn push_run(&mut self, from: usize, to: usize, writes: u64) {
        if writes == 0 || from == to {
            return;
        }
        let row = from / (self.cols + 1);
        let (start, end) = (from - row * (self.cols + 1), to - row * (self.cols + 1));
        match self.runs.last_mut() {
            Some(last) if last.row == row && last.end == start && last.writes == writes => {
                last.end = end;
            }
            _ => self.runs.push(Run {
                row,
                start,
                end,
                writes,
            }),
        }
    }

    /// Writes the program applies to the given cell.
    ///
    /// # Panics
    ///
    /// Panics if the cell is outside the array.
    pub fn writes_at(&self, row: usize, col: usize) -> u64 {
        assert!(
            row < self.rows && col < self.cols,
            "cell ({row}, {col}) outside the {}×{} array",
            self.rows,
            self.cols
        );
        let i = self.runs.partition_point(|r| (r.row, r.end) <= (row, col));
        match self.runs.get(i) {
            Some(r) if r.row == row && r.start <= col => r.writes,
            _ => 0,
        }
    }

    /// Highest per-cell write count in the program.
    pub fn max_writes(&self) -> u64 {
        self.runs.iter().map(|r| r.writes).max().unwrap_or(0)
    }

    /// Total cell drives across the whole array.
    pub fn total_writes(&self) -> u64 {
        self.runs
            .iter()
            .map(|r| r.writes * (r.end - r.start) as u64)
            .sum()
    }

    /// Number of cells the program writes at least once.
    pub fn touched_cells(&self) -> usize {
        self.runs.iter().map(|r| r.end - r.start).sum()
    }

    /// Mean writes over *touched* cells (0.0 if nothing is written) —
    /// the denominator excludes untouched cells so the figure reflects
    /// the working set, not the array size.
    pub fn mean_writes(&self) -> f64 {
        let touched = self.touched_cells();
        if touched == 0 {
            0.0
        } else {
            self.total_writes() as f64 / touched as f64
        }
    }

    /// Every cell whose write count is at least `threshold`, sorted
    /// hottest-first (ties broken by row, then column, so the order is
    /// deterministic).
    pub fn hotspots(&self, threshold: u64) -> Vec<Hotspot> {
        self.ranked(threshold).collect()
    }

    /// The `k` hottest cells (fewer if the program touches fewer).
    pub fn hottest(&self, k: usize) -> Vec<Hotspot> {
        self.ranked(1).take(k).collect()
    }

    /// The cells of every run written at least `threshold` times, in
    /// [`WritePressure::hotspots`] order: runs are disjoint, so ranking
    /// them hottest-first by row and start, then listing each run's
    /// columns in turn, ranks the cells.
    fn ranked(&self, threshold: u64) -> impl Iterator<Item = Hotspot> + '_ {
        let mut runs: Vec<&Run> = self.runs.iter().filter(|r| r.writes >= threshold).collect();
        runs.sort_by_key(|r| (std::cmp::Reverse(r.writes), r.row, r.start));
        runs.into_iter().flat_map(|r| {
            (r.start..r.end).map(|col| Hotspot {
                row: r.row,
                col,
                writes: r.writes,
            })
        })
    }

    /// How many times the program could run before its hottest cell
    /// reaches the nominal cell endurance ([`CELL_ENDURANCE_WRITES`]).
    /// `None` if the program writes nothing (unlimited).
    pub fn endurance_lifetime_runs(&self) -> Option<u64> {
        CELL_ENDURANCE_WRITES.checked_div(self.max_writes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_crossbar::MicroOp;

    #[test]
    fn records_and_ranks_hotspots() {
        let mut p = WritePressure::new(2, 3);
        for _ in 0..5 {
            p.record_span(1, &(2..3));
        }
        p.record_span(0, &(0..1));
        p.record_span(0, &(0..1));
        p.record_span(1, &(0..1));
        p.finish();
        assert_eq!(p.writes_at(1, 2), 5);
        assert_eq!(p.max_writes(), 5);
        assert_eq!(p.total_writes(), 8);
        assert_eq!(p.touched_cells(), 3);
        assert!((p.mean_writes() - 8.0 / 3.0).abs() < 1e-12);
        assert_eq!(
            p.hotspots(2),
            vec![
                Hotspot { row: 1, col: 2, writes: 5 },
                Hotspot { row: 0, col: 0, writes: 2 },
            ]
        );
        assert_eq!(p.hottest(1).len(), 1);
        assert_eq!(p.hottest(10).len(), 3);
    }

    #[test]
    fn lifetime_divides_endurance_by_peak() {
        let mut p = WritePressure::new(1, 1);
        assert_eq!(p.endurance_lifetime_runs(), None);
        for _ in 0..4 {
            p.record_span(0, &(0..1));
        }
        p.finish();
        assert_eq!(p.endurance_lifetime_runs(), Some(CELL_ENDURANCE_WRITES / 4));
    }

    #[test]
    fn split_drives_give_the_same_map_as_whole_ones() {
        let drive = |spans: &[(usize, std::ops::Range<usize>)]| {
            let mut p = WritePressure::new(2, 70);
            for (row, cols) in spans {
                p.record_span(*row, cols);
            }
            p.finish();
            p
        };
        let whole = drive(&[(0, 0..4)]);
        let split = drive(&[(0, 0..2), (0, 2..4)]);
        assert_eq!(whole, split);
        assert_eq!(whole, drive(&[(0, 2..4), (0, 0..2)]));
        assert_eq!(whole.hotspots(1), split.hotspots(1));
        assert_eq!(whole.hottest(3), split.hottest(3));
        assert_eq!(whole.total_writes(), split.total_writes());
        assert_eq!(whole.touched_cells(), split.touched_cells());
        // Overlaps and word-boundary splits coalesce the same way.
        assert_eq!(
            drive(&[(1, 0..70), (1, 60..66), (0, 5..6)]),
            drive(&[(0, 5..6), (1, 0..64), (1, 60..64), (1, 64..66), (1, 64..70)])
        );
        // One run when counts meet; two across an untouched gap or a
        // row end, even with equal counts.
        assert_eq!(split.runs.len(), 1);
        assert_eq!(drive(&[(0, 0..2), (0, 3..5)]).runs.len(), 2);
        assert_eq!(drive(&[(0, 68..70), (1, 0..2)]).runs.len(), 2);
        // The same holds for the maps `verify` reports.
        let verified = |program: &[MicroOp]| {
            crate::verify(program, &crate::VerifyConfig::new(2, 70))
                .expect("legal")
                .pressure
        };
        assert_eq!(
            verified(&[MicroOp::init_rows(&[0], 0..4)]),
            verified(&[
                MicroOp::init_rows(&[0], 0..2),
                MicroOp::init_rows(&[0], 2..4)
            ])
        );
    }

    #[test]
    fn empty_pressure_is_quiet() {
        let p = WritePressure::new(4, 4);
        assert_eq!(p.max_writes(), 0);
        assert_eq!(p.mean_writes(), 0.0);
        assert!(p.hotspots(0).is_empty());
    }
}
