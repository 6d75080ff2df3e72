//! Human-readable hot-span summary.
//!
//! Aggregates spans by name across all tracks and renders a fixed-width
//! table of the top-N spans by total cycles, with the self-vs-child
//! split that tells *where* cycles actually go.

use crate::analysis::{build_forest, TraceError};
use crate::model::Trace;
use std::collections::BTreeMap;

/// Aggregated statistics of all spans sharing one name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SummaryRow {
    /// Span name.
    pub name: String,
    /// Number of spans with this name.
    pub count: u64,
    /// Sum of span durations.
    pub total_cycles: u64,
    /// Sum of self cycles (duration minus direct children).
    pub self_cycles: u64,
    /// Longest single span.
    pub max_cycles: u64,
}

impl SummaryRow {
    /// Cycles attributed to direct children.
    pub fn child_cycles(&self) -> u64 {
        self.total_cycles - self.self_cycles
    }
}

/// Aggregates every span in `trace` by name, sorted by total cycles
/// descending (name ascending on ties — fully deterministic).
///
/// # Errors
///
/// Propagates [`TraceError`] from span-forest reconstruction.
pub fn summarize(trace: &Trace) -> Result<Vec<SummaryRow>, TraceError> {
    let forest = build_forest(trace)?;
    let mut by_name: BTreeMap<String, SummaryRow> = BTreeMap::new();
    for (i, node) in forest.nodes.iter().enumerate() {
        let row = by_name
            .entry(node.name.as_str().to_string())
            .or_insert_with(|| SummaryRow {
                name: node.name.as_str().to_string(),
                count: 0,
                total_cycles: 0,
                self_cycles: 0,
                max_cycles: 0,
            });
        let cycles = node.cycles();
        row.count += 1;
        row.total_cycles += cycles;
        row.self_cycles += forest.self_cycles(i);
        row.max_cycles = row.max_cycles.max(cycles);
    }
    let mut rows: Vec<SummaryRow> = by_name.into_values().collect();
    rows.sort_by(|a, b| {
        b.total_cycles
            .cmp(&a.total_cycles)
            .then_with(|| a.name.cmp(&b.name))
    });
    Ok(rows)
}

/// Renders the top-`top_n` spans as an aligned text table with a
/// trailing `(+k more)` line when truncated.
///
/// # Errors
///
/// Propagates [`TraceError`] from span-forest reconstruction.
pub fn render_summary(trace: &Trace, top_n: usize) -> Result<String, TraceError> {
    let rows = summarize(trace)?;
    let shown = &rows[..rows.len().min(top_n)];
    let wall = trace.last_cycle().max(1);

    let headers = [
        "span",
        "count",
        "total cc",
        "self cc",
        "child cc",
        "max cc",
        "% of trace",
    ];
    let mut cells: Vec<[String; 7]> = Vec::with_capacity(shown.len());
    for r in shown {
        cells.push([
            r.name.clone(),
            r.count.to_string(),
            r.total_cycles.to_string(),
            r.self_cycles.to_string(),
            r.child_cycles().to_string(),
            r.max_cycles.to_string(),
            format!("{:.1}", 100.0 * r.total_cycles as f64 / wall as f64),
        ]);
    }
    let mut widths: [usize; 7] = std::array::from_fn(|i| headers[i].len());
    for row in &cells {
        for (i, c) in row.iter().enumerate() {
            widths[i] = widths[i].max(c.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |out: &mut String, row: &[String; 7]| {
        for (i, c) in row.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            if i == 0 {
                out.push_str(&format!("{:<width$}", c, width = widths[i]));
            } else {
                out.push_str(&format!("{:>width$}", c, width = widths[i]));
            }
        }
        out.push('\n');
    };
    fmt_row(&mut out, &std::array::from_fn(|i| headers[i].to_string()));
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in &cells {
        fmt_row(&mut out, row);
    }
    if rows.len() > shown.len() {
        out.push_str(&format!("(+{} more)\n", rows.len() - shown.len()));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Args;
    use crate::Tracer;

    fn trace() -> Trace {
        let t = Tracer::recording();
        let track = t.track(t.process("p"), "t");
        let outer = t.span_at(track, "stage", 0);
        t.complete(track, "op", 0, 30, Args::new());
        t.complete(track, "op", 40, 50, Args::new());
        outer.end(100);
        t.finish().unwrap()
    }

    #[test]
    fn rows_aggregate_and_sort_by_total() {
        let rows = summarize(&trace()).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "stage");
        assert_eq!(rows[0].total_cycles, 100);
        assert_eq!(rows[0].self_cycles, 20);
        assert_eq!(rows[0].child_cycles(), 80);
        assert_eq!(rows[1].name, "op");
        assert_eq!(rows[1].count, 2);
        assert_eq!(rows[1].max_cycles, 50);
        assert_eq!(rows[1].self_cycles, 80);
    }

    #[test]
    fn render_truncates_to_top_n() {
        let s = render_summary(&trace(), 1).unwrap();
        assert!(s.contains("stage"));
        assert!(!s.lines().any(|l| l.starts_with("op")));
        assert!(s.contains("(+1 more)"));
        let full = render_summary(&trace(), 10).unwrap();
        assert!(full.lines().any(|l| l.starts_with("op")));
        assert!(!full.contains("more)"));
    }

    #[test]
    fn render_is_deterministic() {
        assert_eq!(
            render_summary(&trace(), 5).unwrap(),
            render_summary(&trace(), 5).unwrap()
        );
    }
}
