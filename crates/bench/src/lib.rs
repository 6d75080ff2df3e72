//! # cim-bench — experiment harness
//!
//! Regenerates **every table and figure** of the paper's evaluation:
//!
//! | binary | reproduces |
//! |--------|------------|
//! | `table1` | Table I — throughput/area/ATP/max-writes vs \[6\]–\[9\] |
//! | `fig4` | Fig. 4 — ATP vs unroll depth L |
//! | `fig1_magic_demo` | Fig. 1 — crossbar write/read + MAGIC NOR walk-through |
//! | `fig2_tree` | Fig. 2 — recursive Karatsuba tree + dependency |
//! | `fig3_unrolled` | Fig. 3 — L = 2 unrolled dataflow |
//! | `fig5_pipeline` | Fig. 5 — three-stage pipeline occupancy |
//! | `fig6_kogge_stone` | Fig. 6 — 4-bit Kogge-Stone cycle-by-cycle |
//! | `fig7_postcompute` | Fig. 7 — postcomputation memory schedule |
//! | `algo_exploration` | Sec. III op-count comparison |
//! | `simulate` | end-to-end simulated multiplication report |
//!
//! Exact-metric gating (see [`snapshot`]): `bench_snapshot` records
//! the fixed workload matrix's cycles, writes, energy and serving
//! decisions as deterministic JSON (plus an optional Prometheus
//! exposition of the run's metrics), `bench_check` diffs two
//! snapshots and exits nonzero on regression. Cross-snapshot history
//! (see [`trajectory`]): `bench_check --trajectory` walks an ordered
//! list of committed snapshots, verifies lineage monotonicity, splits
//! multiply cycle deltas by pipeline stage, and writes
//! `BENCH_TRAJECTORY.json`. Host time is measured by the `perfbench`
//! benchmark, not here.
//!
//! Criterion benches (`cargo bench`): `algos` (software multiplication
//! crossover), `stages` (simulated stage latencies), `adders`
//! (Kogge-Stone vs ripple), `modmul` (reduction methods), `ablation`
//! (unroll depth, wear-leveling).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod snapshot;
pub mod trajectory;

use std::fmt::Display;

/// Formats a number with thousands separators (`25,044`).
pub fn group_digits(v: u64) -> String {
    let s = v.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// Formats a float the way Table I does: `4.8`, `10`, `2.8k`, `1.18M`.
pub fn table_number(v: f64) -> String {
    if v >= 1_000_000.0 {
        format!("{:.2}M", v / 1_000_000.0)
    } else if v >= 1_000.0 {
        format!("{:.1}k", v / 1_000.0)
    } else if v >= 10.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.1}")
    }
}

/// A minimal fixed-width text table writer for the experiment
/// binaries.
#[derive(Debug, Clone)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Display>(headers: &[S]) -> Self {
        TextTable {
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row<S: Display>(&mut self, cells: &[S]) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows
            .push(cells.iter().map(|c| c.to_string()).collect());
        self
    }

    /// Renders the table with padded columns and a separator line.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:>width$}", cells[i], width = widths[i]));
            }
            line.push('\n');
            line
        };
        let mut out = fmt_row(&self.headers);
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digit_grouping() {
        assert_eq!(group_digits(5), "5");
        assert_eq!(group_digits(25044), "25,044");
        assert_eq!(group_digits(1180000), "1,180,000");
    }

    #[test]
    fn table_number_shapes() {
        assert_eq!(table_number(4.8), "4.8");
        assert_eq!(table_number(47.0), "47");
        assert_eq!(table_number(999.0), "999");
        assert_eq!(table_number(2800.0), "2.8k");
        assert_eq!(table_number(1_180_000.0), "1.18M");
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(&["n", "value"]);
        t.row(&["64", "short"]);
        t.row(&["384", "a-longer-cell"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn table_rejects_bad_rows() {
        TextTable::new(&["a", "b"]).row(&["only-one"]);
    }
}
