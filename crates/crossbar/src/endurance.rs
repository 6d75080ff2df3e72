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
    use crate::Region;

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
    /// lane, rows with masked entries lane by lane. Either way each
    /// lane's report must equal its own [`EnduranceReport::from_lane`]
    /// and a walk over that lane's cells.
    #[test]
    fn per_lane_matches_from_lane_on_mixed_rows() {
        let lanes = 5;
        let mut x = Crossbar::new_sliced(4, 70, lanes).unwrap();
        x.write_row(0, 0, &[true; 70]).unwrap();
        x.init_region(&Region::new(1..3, 3..40)).unwrap();
        x.write_row_lanes_masked(1, 10, &[0; 20], 0b10110).unwrap();
        x.wear_row_lanes_masked(2, 30..70, 0b1, 1).unwrap();
        x.wear_region(&Region::new(3..4, 60..70), 4).unwrap();
        x.wear_row_dense(3, 0, &[1, 0, 2]).unwrap();
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

    /// Lane-masked entries carry a pulse count. Random `(range, mask,
    /// pulses)` entries mixed with uniform adds must leave every lane
    /// of every cell with the count a per-lane, per-cell counter model
    /// holds, and every lane's report must be that model's fold. The
    /// steps also cover the fold's edges: dense uniform adds (uniform
    /// wear that varies cell by cell under masked entries, zero cells
    /// among them), narrow uniform spans that leave zero gaps inside
    /// masked spans, entries that start or end exactly on a uniform
    /// boundary, entries that abut the previous entry at one column in
    /// the same lane, and masks with bits above the active lanes.
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
            let mut x = Crossbar::new_sliced(rows, cols, lanes).unwrap();
            let mut model = vec![vec![0u64; rows * cols]; lanes];
            // Per row: the columns where a uniform add began or ended,
            // and the span and mask of the last masked entry.
            let mut edges: Vec<Vec<usize>> = vec![vec![0]; rows];
            let mut last: Vec<Option<(usize, usize, u64)>> = vec![None; rows];
            for step in 0..180 {
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
                let add = |model: &mut [Vec<u64>], mask: u64, col: usize, p: u64| {
                    let lanes = model
                        .iter_mut()
                        .enumerate()
                        .filter(|(l, _)| mask >> l & 1 == 1);
                    for (_, counts) in lanes {
                        counts[row * cols + col] += p;
                    }
                };
                match step % 6 {
                    0 => {
                        // A narrow uniform span: zero gaps stay around it.
                        end = (start + 1 + next(12) as usize).min(cols);
                        x.wear_region(&Region::new(row..row + 1, start..end), pulses)
                            .unwrap();
                        (start..end).for_each(|c| add(&mut model, u64::MAX, c, pulses));
                        edges[row].extend([start, end]);
                    }
                    1 => {
                        // Dense uniform pulses, zeros among them.
                        end = (start + 1 + next(24) as usize).min(cols);
                        let dense: Vec<u64> = (start..end).map(|_| next(4) * next(2)).collect();
                        x.wear_row_dense(row, start, &dense).unwrap();
                        for (c, &p) in (start..end).zip(&dense) {
                            add(&mut model, u64::MAX, c, p);
                        }
                        edges[row].extend([start, end]);
                    }
                    k => {
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
                        x.wear_row_lanes_masked(row, start..end, mask, pulses)
                            .unwrap();
                        (start..end).for_each(|c| add(&mut model, mask, c, pulses));
                        if pulses > 0 {
                            last[row] = Some((start, end, mask));
                        }
                    }
                }
                if step % 20 != 19 {
                    continue;
                }
                let per_lane = EnduranceReport::per_lane(&x);
                for (lane, counts) in model.iter().enumerate() {
                    let mut walk = WearStats::default();
                    for (i, &c) in counts.iter().enumerate() {
                        assert_eq!(
                            x.lane_cell(lane, i / cols, i % cols).unwrap().writes(),
                            c,
                            "{lanes} lanes, step {step}, lane {lane}, cell {i}"
                        );
                        walk.add_run(c, 1);
                    }
                    let expected = EnduranceReport::from_stats(walk, &x);
                    assert_eq!(
                        per_lane[lane], expected,
                        "{lanes} lanes, step {step}, lane {lane}"
                    );
                    assert_eq!(EnduranceReport::from_lane(&x, lane), expected);
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
