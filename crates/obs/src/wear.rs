//! Crossbar wear heatmaps and endurance percentiles.
//!
//! The crossbar arrays already count per-cell SET/RESET writes (the
//! paper's endurance concern); this module condenses those counters
//! into operator-sized artifacts: the top-K hottest **rows** of an
//! array (row granularity is what wear-leveling row rotation acts on)
//! and nearest-rank percentiles over any wear population (per-tile
//! maxima across a farm, per-row totals within a tile).

use cim_crossbar::{Crossbar, CELL_ENDURANCE_WRITES};
use cim_trace::json::JsonWriter;

/// Wear of one crossbar row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowWear {
    /// Row index.
    pub row: usize,
    /// Hottest cell's write count in the row.
    pub max_writes: u64,
    /// Sum of write counts across the row.
    pub total_writes: u64,
}

/// Top-K hottest rows of one crossbar, hottest first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WearHeatmap {
    /// Array height in rows.
    pub rows: usize,
    /// Array width in columns.
    pub cols: usize,
    /// The K hottest rows, ordered by total writes descending (row
    /// index ascending on ties, so the ordering is total).
    pub top_rows: Vec<RowWear>,
    /// Hottest cell's write count in the whole array.
    pub max_writes: u64,
    /// Total writes across the whole array.
    pub total_writes: u64,
}

impl WearHeatmap {
    /// Builds the heatmap from `array`'s wear counters, keeping the
    /// `k` hottest rows.
    pub fn from_crossbar(array: &Crossbar, k: usize) -> Self {
        let per_row = array.row_wear_totals();
        let mut rows: Vec<RowWear> = per_row
            .iter()
            .enumerate()
            .map(|(row, &(max_writes, total_writes))| RowWear {
                row,
                max_writes,
                total_writes,
            })
            .collect();
        let max_writes = rows.iter().map(|r| r.max_writes).max().unwrap_or(0);
        let total_writes = rows.iter().map(|r| r.total_writes).sum();
        rows.sort_by(|a, b| b.total_writes.cmp(&a.total_writes).then(a.row.cmp(&b.row)));
        rows.truncate(k);
        WearHeatmap {
            rows: array.rows(),
            cols: array.cols(),
            top_rows: rows,
            max_writes,
            total_writes,
        }
    }

    /// Multiplications this array survives at its current hottest-cell
    /// wear rate, against the 10^10-write endurance budget.
    pub fn lifetime_operations(&self, operations_so_far: u64) -> u64 {
        if self.max_writes == 0 {
            return u64::MAX;
        }
        operations_so_far.saturating_mul(CELL_ENDURANCE_WRITES / self.max_writes)
    }

    /// Serializes the heatmap into `w`.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.open_object()
            .field_uint("rows", self.rows as u64)
            .field_uint("cols", self.cols as u64)
            .field_uint("max_cell_writes", self.max_writes)
            .field_uint("total_writes", self.total_writes)
            .key("top_rows")
            .open_array();
        for r in &self.top_rows {
            w.open_object()
                .field_uint("row", r.row as u64)
                .field_uint("max_writes", r.max_writes)
                .field_uint("total_writes", r.total_writes)
                .close_object();
        }
        w.close_array().close_object();
    }
}

/// Nearest-rank percentiles over a wear population.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WearPercentiles {
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Maximum.
    pub max: u64,
}

impl WearPercentiles {
    /// Nearest-rank percentiles of `values` (order irrelevant; all
    /// zeros if empty).
    pub fn from_values(values: &[u64]) -> Self {
        if values.is_empty() {
            return WearPercentiles {
                p50: 0,
                p90: 0,
                p99: 0,
                max: 0,
            };
        }
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        let rank = |p: f64| -> u64 {
            let idx = ((p / 100.0 * sorted.len() as f64).ceil() as usize).max(1) - 1;
            sorted[idx.min(sorted.len() - 1)]
        };
        WearPercentiles {
            p50: rank(50.0),
            p90: rank(90.0),
            p99: rank(99.0),
            max: sorted[sorted.len() - 1],
        }
    }

    /// Serializes into `w` as one object.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.open_object()
            .field_uint("p50", self.p50)
            .field_uint("p90", self.p90)
            .field_uint("p99", self.p99)
            .field_uint("max", self.max)
            .close_object();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heatmap_ranks_hottest_rows_first() {
        let mut x = Crossbar::new(4, 8).unwrap();
        // Row 2 hottest (3 writes on one cell), row 0 next (2 spread).
        for _ in 0..3 {
            x.write_row(2, 0, &[true]).unwrap();
        }
        x.write_row(0, 1, &[true, true]).unwrap();
        let hm = WearHeatmap::from_crossbar(&x, 2);
        assert_eq!(hm.rows, 4);
        assert_eq!(hm.cols, 8);
        assert_eq!(hm.top_rows.len(), 2);
        assert_eq!(hm.top_rows[0].row, 2);
        assert_eq!(hm.top_rows[0].total_writes, 3);
        assert_eq!(hm.top_rows[0].max_writes, 3);
        assert_eq!(hm.top_rows[1].row, 0);
        assert_eq!(hm.top_rows[1].total_writes, 2);
        assert_eq!(hm.max_writes, 3);
        assert_eq!(hm.total_writes, 5);
    }

    #[test]
    fn heatmap_json_is_valid_and_k_bounds() {
        let x = Crossbar::new(2, 2).unwrap();
        let hm = WearHeatmap::from_crossbar(&x, 10);
        assert_eq!(hm.top_rows.len(), 2, "k larger than rows is clamped");
        assert_eq!(hm.lifetime_operations(5), u64::MAX, "unworn array");
        let mut w = JsonWriter::new();
        hm.write_json(&mut w);
        cim_trace::json::check(&w.finish()).unwrap();
    }

    #[test]
    fn percentiles_nearest_rank() {
        let p = WearPercentiles::from_values(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        assert_eq!(p.p50, 5);
        assert_eq!(p.p90, 9);
        assert_eq!(p.p99, 10);
        assert_eq!(p.max, 10);
        assert_eq!(WearPercentiles::from_values(&[]).max, 0);
        assert_eq!(WearPercentiles::from_values(&[7]).p50, 7);
        let mut w = JsonWriter::new();
        p.write_json(&mut w);
        cim_trace::json::check(&w.finish()).unwrap();
    }
}
