//! Endurance analysis: per-cell write statistics and lifetime estimates.
//!
//! ReRAM cells endure between 10^10 and 10^11 write cycles (paper
//! Sec. II-A, citing \[10\]–\[12\]); a CIM design must both minimize writes
//! and spread them evenly (wear-leveling, paper Sec. IV-B).

use crate::array::Crossbar;
use crate::wear::WearStats;

/// Conservative per-cell write endurance of a ReRAM cell (10^10).
pub const CELL_ENDURANCE_WRITES: u64 = 10_000_000_000;

/// Aggregate endurance report over a crossbar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnduranceReport {
    /// Most writes any single cell received — the paper's
    /// "Max. Writes" metric (Table I).
    pub max_writes: u64,
    /// Total writes over all cells.
    pub total_writes: u64,
    /// Number of cells that received at least one write.
    pub cells_touched: usize,
    /// Number of cells in the array.
    pub cells_total: usize,
}

impl EnduranceReport {
    /// Computes the report for an array.
    ///
    /// Reads through the backend's wear representation directly — on
    /// the packed backend this folds the lazy wear plane's blocks and
    /// pending ranges instead of materializing one [`crate::Cell`] per
    /// bit, so per-multiply endurance reporting stays off the hot path.
    pub fn from_array(array: &Crossbar) -> Self {
        Self::from_stats(array.wear_stats(), array)
    }

    /// Computes the report for one batch lane of a sliced array — the
    /// wear that lane's instance would have accumulated on a solo
    /// array running the same program. On the scalar/packed backends
    /// lane 0 is the whole array.
    pub fn from_lane(array: &Crossbar, lane: usize) -> Self {
        Self::from_stats(array.lane_wear_stats(lane), array)
    }

    /// Per-lane reports for every active lane of the array, computed
    /// in one sweep over the wear representation (cheaper than calling
    /// [`EnduranceReport::from_lane`] per lane).
    pub fn per_lane(array: &Crossbar) -> Vec<Self> {
        let lanes = array.lanes();
        array
            .lane_wear_stats_all()
            .into_iter()
            .take(lanes)
            .map(|stats| Self::from_stats(stats, array))
            .collect()
    }

    fn from_stats(stats: WearStats, array: &Crossbar) -> Self {
        EnduranceReport {
            max_writes: stats.max,
            total_writes: stats.total,
            cells_touched: stats.touched,
            cells_total: array.cell_count(),
        }
    }

    /// `(max, mean)` per-cell write counts in one call — the summary
    /// the wear-leveling scheduler and `FarmReport` consume, so they
    /// never have to walk raw cells themselves.
    pub fn max_and_mean(&self) -> (u64, f64) {
        (self.max_writes, self.mean_writes())
    }

    /// Worst per-cell writes across several reports (e.g. the three
    /// stage arrays of a multiplier) — replaces the hand-rolled
    /// max-loops previously duplicated in `karatsuba-cim`.
    pub fn max_over<'a, I>(reports: I) -> u64
    where
        I: IntoIterator<Item = &'a EnduranceReport>,
    {
        reports.into_iter().map(|r| r.max_writes).max().unwrap_or(0)
    }

    /// Mean writes per touched cell.
    pub fn mean_writes(&self) -> f64 {
        if self.cells_touched == 0 {
            0.0
        } else {
            self.total_writes as f64 / self.cells_touched as f64
        }
    }

    /// Wear-balance factor: mean/max writes in (0, 1]; 1 = perfectly
    /// even wear. Returns 1.0 for an untouched array.
    pub fn balance(&self) -> f64 {
        if self.max_writes == 0 {
            1.0
        } else {
            self.mean_writes() / self.max_writes as f64
        }
    }

    /// Fraction of the array's cells that participated at all —
    /// the array-utilization metric behind the paper's Sec. III-C1
    /// argument against oversized shared adders.
    pub fn utilization(&self) -> f64 {
        if self.cells_total == 0 {
            0.0
        } else {
            self.cells_touched as f64 / self.cells_total as f64
        }
    }

    /// How many operations of this write profile the array survives
    /// before the most-stressed cell reaches [`CELL_ENDURANCE_WRITES`].
    pub fn lifetime_operations(&self) -> u64 {
        CELL_ENDURANCE_WRITES
            .checked_div(self.max_writes)
            .unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BackendKind, Region, WearWindow};

    fn window(col: usize, len: usize, stride: usize, pulses: u64) -> WearWindow {
        WearWindow {
            col,
            len,
            stride,
            pulses,
        }
    }

    #[test]
    fn report_on_fresh_array() {
        let x = Crossbar::new(4, 4).unwrap();
        let r = EnduranceReport::from_array(&x);
        assert_eq!(r.max_writes, 0);
        assert_eq!(r.total_writes, 0);
        assert_eq!(r.cells_touched, 0);
        assert_eq!(r.cells_total, 16);
        assert_eq!(r.balance(), 1.0);
        assert_eq!(r.lifetime_operations(), u64::MAX);
    }

    #[test]
    fn report_counts_uneven_wear() {
        let mut x = Crossbar::new(2, 2).unwrap();
        x.write_row(0, 0, &[true, true]).unwrap();
        x.write_row(0, 0, &[false, false]).unwrap();
        x.init_region(&Region::new(0..1, 0..1)).unwrap(); // cell (0,0): 3 writes
        let r = EnduranceReport::from_array(&x);
        assert_eq!(r.max_writes, 3);
        assert_eq!(r.total_writes, 5);
        assert_eq!(r.cells_touched, 2);
        assert!((r.mean_writes() - 2.5).abs() < 1e-9);
        assert!((r.balance() - 2.5 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn utilization_fraction() {
        let mut x = Crossbar::new(2, 2).unwrap();
        x.write_row(0, 0, &[true, true]).unwrap();
        let r = EnduranceReport::from_array(&x);
        assert!((r.utilization() - 0.5).abs() < 1e-12);
        let fresh = EnduranceReport::from_array(&Crossbar::new(1, 1).unwrap());
        assert_eq!(fresh.utilization(), 0.0);
    }

    #[test]
    fn wear_summary_matches_report() {
        let mut x = Crossbar::new(2, 2).unwrap();
        x.write_row(0, 0, &[true, true]).unwrap();
        x.write_row(0, 0, &[false, false]).unwrap();
        x.init_region(&Region::new(0..1, 0..1)).unwrap();
        let r = EnduranceReport::from_array(&x);
        assert_eq!(x.wear_summary(), r.max_and_mean());
        assert_eq!(x.wear_summary(), (3, 2.5));
        assert_eq!(Crossbar::new(3, 3).unwrap().wear_summary(), (0, 0.0));
    }

    #[test]
    fn max_over_reports() {
        let reports: Vec<EnduranceReport> = [2u64, 7, 5]
            .iter()
            .map(|&m| EnduranceReport {
                max_writes: m,
                total_writes: m,
                cells_touched: 1,
                cells_total: 1,
            })
            .collect();
        assert_eq!(EnduranceReport::max_over(&reports), 7);
        assert_eq!(EnduranceReport::max_over(&[]), 0);
    }

    /// Sliced rows with only uniform wear are folded once for every
    /// lane, rows with masked entries or records lane by lane. Either
    /// way each
    /// lane's report must equal its own [`EnduranceReport::from_lane`]
    /// and a walk over that lane's cells.
    #[test]
    fn per_lane_matches_from_lane_on_mixed_rows() {
        let lanes = 5;
        let mut x = Crossbar::new_sliced(4, 70, lanes).unwrap();
        x.write_row(0, 0, &[true; 70]).unwrap();
        x.init_region(&Region::new(1..3, 3..40)).unwrap();
        x.write_row_lanes_masked(1, 10, &[0; 20], 0b10110).unwrap();
        x.wear_row_windows(2, [0b1].into(), &[window(30, 40, 0, 1)])
            .unwrap();
        x.wear_region(&Region::new(3..4, 60..70), 4).unwrap();
        x.wear_row_windows(3, [0b11, 0, 0b101].into(), &[window(0, 3, 1, 2)])
            .unwrap();
        let per_lane = EnduranceReport::per_lane(&x);
        assert_eq!(per_lane.len(), lanes);
        for (lane, report) in per_lane.iter().enumerate() {
            let mut walk = WearStats::default();
            for r in 0..4 {
                for c in 0..70 {
                    walk.add_run(x.lane_cell(lane, r, c).unwrap().writes(), 1);
                }
            }
            assert_eq!(*report, EnduranceReport::from_lane(&x, lane), "lane {lane}");
            assert_eq!(
                *report,
                EnduranceReport::from_stats(walk, &x),
                "lane {lane}"
            );
        }
        assert_ne!(
            per_lane[0], per_lane[1],
            "masked rows wear lanes differently"
        );
        assert_eq!(EnduranceReport::from_array(&x), per_lane[0]);
    }

    /// A per-lane, per-cell counter model of one array, checked
    /// against the array's per-cell reads (`lane_writes_at` on the
    /// sliced backend, `writes_at` as lane 0 on the others) and its
    /// reports (`per_lane`, `from_lane`, `from_array`).
    struct Model {
        cols: usize,
        counts: Vec<Vec<u64>>,
    }

    impl Model {
        fn new(lanes: usize, rows: usize, cols: usize) -> Self {
            Model {
                cols,
                counts: vec![vec![0; rows * cols]; lanes],
            }
        }

        /// `pulses` more on `cols` of `row` in the lanes of `mask`.
        fn add(&mut self, row: usize, cols: std::ops::Range<usize>, mask: u64, pulses: u64) {
            let lanes = self.counts.iter_mut().enumerate();
            for (_, counts) in lanes.filter(|(l, _)| mask >> l & 1 == 1) {
                for c in &mut counts[row * self.cols..][cols.clone()] {
                    *c += pulses;
                }
            }
        }

        /// What `wear_row_windows(row, words, windows)` lays down.
        fn windows(&mut self, row: usize, words: &[u64], windows: &[WearWindow]) {
            for (i, &mask) in words.iter().enumerate() {
                for w in windows {
                    let at = w.col + i * w.stride;
                    self.add(row, at..at + w.len, mask, w.pulses);
                }
            }
        }

        fn check(&self, arrays: &[Crossbar], what: &str) {
            for x in arrays {
                let lanes = if x.backend_kind() == BackendKind::Sliced {
                    self.counts.len()
                } else {
                    1
                };
                let per_lane = EnduranceReport::per_lane(x);
                assert_eq!(per_lane.len(), lanes);
                for (lane, counts) in self.counts.iter().take(lanes).enumerate() {
                    let what = format!("{what}, {:?}, lane {lane}", x.backend_kind());
                    let mut walk = WearStats::default();
                    for (i, &c) in counts.iter().enumerate() {
                        let cell = x.lane_cell(lane, i / self.cols, i % self.cols).unwrap();
                        assert_eq!(cell.writes(), c, "{what}, cell {i}");
                        walk.add_run(c, 1);
                    }
                    let expected = EnduranceReport::from_stats(walk, x);
                    assert_eq!(per_lane[lane], expected, "{what}");
                    assert_eq!(EnduranceReport::from_lane(x, lane), expected, "{what}");
                }
                assert_eq!(EnduranceReport::from_array(x), per_lane[0], "{what}");
            }
        }
    }

    /// Lane-masked entries and window records carry pulse counts.
    /// Random masked entries, records and uniform adds on a sliced
    /// array (and, as lane 0, on a packed and a scalar twin) must leave
    /// every lane of every cell with the count a per-lane, per-cell
    /// counter model holds, and every lane's report must be that
    /// model's fold. The steps cover the fold's edges: dense uniform
    /// adds (uniform wear that varies cell by cell under masked entries
    /// and records, zero cells among them, enough to compact into a
    /// block), narrow uniform spans that leave zero gaps inside masked
    /// spans, entries that start or end exactly on a uniform boundary,
    /// entries that abut the previous entry at one column in the same
    /// lane, masks with bits above the active lanes, and records of
    /// stride 0 and 1 with lanes that take no offset, laid on uniform
    /// waves (some starting where a record's count turns), beside
    /// masked entries, inside their hull (the expanded fold) and over
    /// an earlier record (which expands it). Wear is reset now and
    /// then, so each record's peak is often the array's max. Before the
    /// random steps, each lane count sweeps the turns of a few record
    /// shapes under short uniform waves on fresh rows
    /// (`record_turns_match_the_model`).
    #[test]
    fn pulse_count_masked_entries_match_a_per_cell_model() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let (rows, cols) = (3, 150);
        for lanes in [1usize, 37, 64] {
            record_turns_match_the_model(lanes, &mut next);
            let mut arrays = [
                Crossbar::new_sliced(rows, cols, lanes).unwrap(),
                Crossbar::with_backend(rows, cols, BackendKind::Packed).unwrap(),
                Crossbar::with_backend(rows, cols, BackendKind::Scalar).unwrap(),
            ];
            let mut model = Model::new(lanes, rows, cols);
            // Per row: the columns where a uniform add began or ended
            // or a record's count turns, the span and mask of the last
            // masked entry, and the last record's shape.
            let mut edges: Vec<Vec<usize>> = vec![vec![0]; rows];
            let mut last: Vec<Option<(usize, usize, u64)>> = vec![None; rows];
            let mut last_record: Vec<Option<(usize, usize, usize)>> = vec![None; rows];
            for step in 0..240 {
                let row = next(rows as u64) as usize;
                let mut start = next(cols as u64) as usize;
                let mut end = start + next((cols - start) as u64 + 1) as usize;
                let pulses = next(5);
                let mut mask = match next(5) {
                    0 => u64::MAX,
                    1 => 1 << next(lanes as u64),
                    2 => next(u64::MAX) & next(u64::MAX),
                    3 => !(u64::MAX >> (64 - lanes)) | 1 << next(lanes as u64),
                    _ => next(u64::MAX) | next(u64::MAX),
                };
                match step % 8 {
                    0 => {
                        // A narrow uniform span: zero gaps stay around it.
                        // Half of them start on an edge, a record's
                        // plateau edges among them.
                        if next(2) == 0 {
                            start =
                                edges[row][next(edges[row].len() as u64) as usize].min(cols - 1);
                        }
                        end = (start + 1 + next(12) as usize).min(cols);
                        for x in &mut arrays {
                            x.wear_region(&Region::new(row..row + 1, start..end), pulses)
                                .unwrap();
                        }
                        model.add(row, start..end, u64::MAX, pulses);
                        edges[row].extend([start, end]);
                    }
                    1 => {
                        // Dense uniform pulses, zeros among them. Every
                        // 120 steps, eight passes over 40 columns push
                        // enough entries to compact the row into a block.
                        let passes = if step % 120 == 1 { 8 } else { 1 };
                        end = (start + 1 + next(64) as usize).min(cols);
                        if passes > 1 {
                            (start, end) = (start.min(cols - 40), start.min(cols - 40) + 40);
                        }
                        for c in (0..passes).flat_map(|_| start..end) {
                            let p = if passes > 1 {
                                1 + next(3)
                            } else {
                                next(4) * next(2)
                            };
                            for x in &mut arrays {
                                x.wear_region(&Region::new(row..row + 1, c..c + 1), p)
                                    .unwrap();
                            }
                            model.add(row, c..c + 1, u64::MAX, p);
                        }
                        edges[row].extend([start, end]);
                    }
                    k @ 2..=4 => {
                        let e = &edges[row];
                        match (k, last[row]) {
                            // Starts or ends on a uniform boundary.
                            (2, _) => start = e[next(e.len() as u64) as usize],
                            (3, _) => end = e[next(e.len() as u64) as usize].max(start),
                            // Abuts the last entry in one of its lanes.
                            (4, Some((s, t, m))) if m != 0 => {
                                mask = 1 << m.trailing_zeros();
                                if t < cols && next(2) == 0 {
                                    start = t;
                                    end = end.max(t + 1);
                                } else {
                                    (start, end) = (start.min(s.saturating_sub(1)), s);
                                }
                            }
                            _ => {}
                        }
                        if start >= end {
                            end = (start + 1).min(cols);
                            start = end - 1;
                        }
                        // A masked entry of `pulses` pulses.
                        let zeros = vec![0; end - start];
                        for _ in 0..pulses {
                            for x in &mut arrays {
                                x.write_row_lanes_masked(row, start, &zeros, mask).unwrap();
                            }
                        }
                        model.add(row, start..end, mask, pulses);
                        if pulses > 0 {
                            last[row] = Some((start, end, mask));
                        }
                    }
                    k => {
                        // A record: a fresh shape, or the last one's
                        // (which expands that record) with a new stride.
                        let (col, len, offsets) = match (k, last_record[row]) {
                            (7, Some(shape)) => shape,
                            _ => {
                                let len = 1 + next(40.min(cols - start) as u64) as usize;
                                let room = cols - start - len + 1;
                                (start, len, 1 + next(room.min(70) as u64) as usize)
                            }
                        };
                        let stride = next(2) as usize;
                        let words: Vec<u64> = (0..offsets)
                            .map(|_| match next(4) {
                                0 => 0,
                                1 => mask,
                                _ => next(u64::MAX) & next(u64::MAX) & mask,
                            })
                            .collect();
                        let shape = [window(col, len, stride, pulses)];
                        for x in &mut arrays {
                            x.wear_row_windows(row, words[..].into(), &shape).unwrap();
                        }
                        let active = u64::MAX >> (64 - lanes);
                        if words.iter().any(|&w| w & active != 0) {
                            model.windows(row, &words, &shape);
                        }
                        last_record[row] = Some((col, len, offsets));
                        let top = col + (offsets - 1) * stride;
                        edges[row].extend([col, top, col + len, top + len]);
                    }
                }
                if step % 10 == 9 {
                    model.check(&arrays, &format!("{lanes} lanes, step {step}"));
                }
                // Fresh wear now and then keeps each record's peak
                // close to the array's max, where a slip in it shows.
                if step % 30 == 29 {
                    arrays.iter_mut().for_each(Crossbar::reset_wear);
                    model.counts.iter_mut().for_each(|c| c.fill(0));
                    model.check(&arrays, &format!("{lanes} lanes, reset at step {step}"));
                }
            }
        }
    }

    /// One record per shape on a fresh row, beside a short uniform wave
    /// that starts or ends on a column where the record's count turns
    /// (its first column, the top of its rise, the end of its plateau,
    /// its last column) or one column either side: each turn of the
    /// closed form's peak and coverage must match the model, in lanes
    /// that take offset 0 and lanes that do not.
    fn record_turns_match_the_model(lanes: usize, next: &mut impl FnMut(u64) -> u64) {
        let cols = 40;
        // (col, len, offsets, stride): rising then falling, a plateau
        // of one column, a flat stride-0 record, a single window.
        let shapes: [(usize, usize, usize, usize); 4] =
            [(5, 9, 6, 1), (5, 9, 9, 1), (7, 12, 5, 0), (3, 4, 1, 1)];
        for (col, len, offsets, stride) in shapes {
            let top = col + (offsets - 1) * stride;
            let turns = [col, top, col + len, top + len];
            for edge in turns.into_iter().flat_map(|e| [e - 1, e, e + 1]) {
                for wave in [edge.saturating_sub(3)..edge, edge..edge + 3] {
                    let mut arrays = [
                        Crossbar::new_sliced(1, cols, lanes).unwrap(),
                        Crossbar::with_backend(1, cols, BackendKind::Packed).unwrap(),
                        Crossbar::with_backend(1, cols, BackendKind::Scalar).unwrap(),
                    ];
                    let mut model = Model::new(lanes, 1, cols);
                    let words: Vec<u64> = (0..offsets).map(|_| next(u64::MAX)).collect();
                    let shape = [window(col, len, stride, 1 + next(2))];
                    let pulses = 1 + next(3);
                    for x in &mut arrays {
                        x.wear_region(&Region::new(0..1, wave.clone()), pulses)
                            .unwrap();
                        x.wear_row_windows(0, words[..].into(), &shape).unwrap();
                    }
                    model.add(0, wave.clone(), u64::MAX, pulses);
                    model.windows(0, &words, &shape);
                    let what = format!("{lanes} lanes, {:?}, wave {wave:?}", shape[0]);
                    model.check(&arrays, &what);
                }
            }
        }
    }

    #[test]
    fn lifetime_scales_inversely_with_max_writes() {
        let mut x = Crossbar::new(1, 1).unwrap();
        for _ in 0..100 {
            x.write_row(0, 0, &[true]).unwrap();
        }
        let r = EnduranceReport::from_array(&x);
        assert_eq!(r.lifetime_operations(), CELL_ENDURANCE_WRITES / 100);
    }
}
