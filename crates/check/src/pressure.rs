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

/// Per-cell write counts accumulated by a single program.
///
/// While a program is being recorded, each row of `writes` holds the
/// row's counts in difference form (a drive of columns `a..b` adds 1 at
/// `a` and subtracts 1 at `b`), so recording a span costs two updates
/// whatever its width; [`WritePressure::finish`] turns every row into
/// counts with one prefix sum. Only finished maps leave the crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WritePressure {
    rows: usize,
    cols: usize,
    writes: Vec<u64>,
}

impl WritePressure {
    /// An empty map, ready to record.
    pub(crate) fn new(rows: usize, cols: usize) -> Self {
        WritePressure {
            rows,
            cols,
            writes: vec![0; rows * cols],
        }
    }

    /// Records one drive of every cell of `row` over `cols`, which must
    /// lie inside the array (an empty span records nothing). Entries
    /// wrap: a −1 may land before the +1 that cancels it in the prefix
    /// sum. The −1 of a span that reaches the last column falls off the
    /// row and is skipped.
    pub(crate) fn record_span(&mut self, row: usize, cols: &std::ops::Range<usize>) {
        if cols.start >= cols.end {
            return;
        }
        let base = row * self.cols;
        let start = &mut self.writes[base + cols.start];
        *start = start.wrapping_add(1);
        if cols.end < self.cols {
            let end = &mut self.writes[base + cols.end];
            *end = end.wrapping_sub(1);
        }
    }

    /// Turns the recorded differences into per-cell counts.
    pub(crate) fn finish(&mut self) {
        for row in self.writes.chunks_mut(self.cols.max(1)) {
            let mut count = 0u64;
            for w in row {
                count = count.wrapping_add(*w);
                *w = count;
            }
        }
    }

    /// Writes the program applies to the given cell.
    pub fn writes_at(&self, row: usize, col: usize) -> u64 {
        self.writes[row * self.cols + col]
    }

    /// Highest per-cell write count in the program.
    pub fn max_writes(&self) -> u64 {
        self.writes.iter().copied().max().unwrap_or(0)
    }

    /// Total cell drives across the whole array.
    pub fn total_writes(&self) -> u64 {
        self.writes.iter().sum()
    }

    /// Number of cells the program writes at least once.
    pub fn touched_cells(&self) -> usize {
        self.writes.iter().filter(|&&w| w > 0).count()
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
        let mut spots: Vec<Hotspot> = self
            .writes
            .iter()
            .enumerate()
            .filter(|&(_, &w)| w >= threshold && w > 0)
            .map(|(i, &w)| Hotspot {
                row: i / self.cols,
                col: i % self.cols,
                writes: w,
            })
            .collect();
        spots.sort_by(|a, b| {
            b.writes
                .cmp(&a.writes)
                .then(a.row.cmp(&b.row))
                .then(a.col.cmp(&b.col))
        });
        spots
    }

    /// The `k` hottest cells (fewer if the program touches fewer).
    pub fn hottest(&self, k: usize) -> Vec<Hotspot> {
        let mut spots = self.hotspots(1);
        spots.truncate(k);
        spots
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
    fn empty_pressure_is_quiet() {
        let p = WritePressure::new(4, 4);
        assert_eq!(p.max_writes(), 0);
        assert_eq!(p.mean_writes(), 0.0);
        assert!(p.hotspots(0).is_empty());
    }
}
