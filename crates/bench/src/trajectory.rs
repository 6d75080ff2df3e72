//! Cross-snapshot trajectory analysis: lineage verification and
//! exact-metric deltas over an ordered list of `bench_snapshot` files
//! (PR 4 → PR 9 → …).
//!
//! A trajectory treats each committed `BENCH_*.json` as one point in
//! the repo's performance history and checks the **lineage
//! invariants** the stacked-PR process promises:
//!
//! * *workload-set monotonicity* — a workload, once added to the
//!   matrix, never disappears from a later snapshot;
//! * *metric-set monotonicity* — a metric, once recorded for a
//!   workload, is recorded by every later snapshot of that workload.
//!
//! For each consecutive pair it then diffs every shared metric and
//! reports the exact (cycle/write/energy/decision) deltas verbatim.
//! The [`RETIRED_METRICS`] older snapshots carry are skipped by both
//! the lineage check and the deltas. For the `multiply_*` workloads
//! the cycle delta is split into the same `precompute / multiply /
//! postcompute / handoff` rows as [`cim_obs::AttributionReport`] (the
//! snapshot records the first three stages' cycles; `handoff` is the
//! remainder to `cycles`), answering "*which stage* moved PR N's
//! cycles?".
//!
//! [`Trajectory::to_json`] is deterministic (inputs are committed
//! files; the arithmetic is pure), so `BENCH_TRAJECTORY.json` is a
//! reviewable artifact: regenerating it from the same snapshots is
//! byte-identical.

use crate::snapshot::{BenchSnapshot, WorkloadResult, RETIRED_METRICS};
use crate::TextTable;
use cim_obs::attribution::ATTRIBUTION_STAGES;
use cim_trace::json::JsonWriter;
use std::collections::BTreeSet;

/// Schema marker embedded in every trajectory file.
pub const TRAJECTORY_SCHEMA: &str = "cim-bench-trajectory/2";

/// One snapshot's identity inside a trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotInfo {
    /// Display label (the file stem, e.g. `BENCH_PR8`).
    pub label: String,
    /// The snapshot's embedded tag.
    pub tag: String,
    /// Whether it was a `--quick` matrix.
    pub quick: bool,
    /// Workload names in the snapshot.
    pub workloads: Vec<String>,
}

/// One metric's movement between two consecutive snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// Workload the metric belongs to.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Value in the earlier snapshot.
    pub from: f64,
    /// Value in the later snapshot.
    pub to: f64,
}

impl MetricDelta {
    /// `to - from`.
    pub fn delta(&self) -> f64 {
        self.to - self.from
    }

    /// Relative change vs the earlier value (`None` on a zero base).
    pub fn rel(&self) -> Option<f64> {
        (self.from != 0.0).then(|| self.delta() / self.from)
    }

    /// Whether this delta is an *improvement*: a cost-shaped metric
    /// (see [`crate::snapshot::is_improvable_metric`]) moving down.
    /// Labeled in the rendered table and the JSON artifact so an
    /// optimization PR's wins read differently from regressions.
    pub fn is_improvement(&self) -> bool {
        crate::snapshot::is_improvable_metric(&self.metric) && self.to < self.from
    }
}

/// One stage's part of a `multiply_*` workload's step delta.
#[derive(Debug, Clone, PartialEq)]
pub struct StageDeltaRow {
    /// Workload the row attributes (e.g. `multiply_2048`).
    pub workload: String,
    /// Stage label (one of [`ATTRIBUTION_STAGES`]).
    pub stage: &'static str,
    /// Stage cycles in the earlier snapshot.
    pub cycles_from: f64,
    /// Stage cycles in the later snapshot.
    pub cycles_to: f64,
}

impl StageDeltaRow {
    /// The stage's cycle delta.
    pub fn cycles_delta(&self) -> f64 {
        self.cycles_to - self.cycles_from
    }
}

/// The diff between two consecutive snapshots in a trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectoryStep {
    /// Label of the earlier snapshot.
    pub from: String,
    /// Label of the later snapshot.
    pub to: String,
    /// Workloads the later snapshot adds.
    pub added_workloads: Vec<String>,
    /// Exact metrics whose value changed (retired metrics excluded).
    pub changed: Vec<MetricDelta>,
    /// Per-stage split of the `multiply_*` cycle deltas.
    pub attribution: Vec<StageDeltaRow>,
}

/// A verified, diffed sequence of snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    /// The snapshots, oldest first.
    pub snapshots: Vec<SnapshotInfo>,
    /// Lineage violations (empty when the sequence is well-formed).
    pub violations: Vec<String>,
    /// Consecutive-pair diffs, oldest first.
    pub steps: Vec<TrajectoryStep>,
}

/// The stage-cycle metrics a `multiply_*` workload records, in
/// [`ATTRIBUTION_STAGES`] order (handoff is derived, not recorded).
const STAGE_METRICS: [&str; 3] = ["precompute_cycles", "multiply_cycles", "postcompute_cycles"];

fn stage_cycles(wl: &WorkloadResult) -> Option<[f64; 4]> {
    let total = *wl.metrics.get("cycles")?;
    let mut out = [0.0; 4];
    for (slot, metric) in out.iter_mut().zip(STAGE_METRICS) {
        *slot = *wl.metrics.get(metric)?;
    }
    out[3] = total - out[0] - out[1] - out[2];
    Some(out)
}

fn attribution_rows(base: &WorkloadResult, cur: &WorkloadResult) -> Vec<StageDeltaRow> {
    let (Some(from), Some(to)) = (stage_cycles(base), stage_cycles(cur)) else {
        return Vec::new();
    };
    ATTRIBUTION_STAGES
        .iter()
        .enumerate()
        .map(|(i, stage)| StageDeltaRow {
            workload: base.name.clone(),
            stage,
            cycles_from: from[i],
            cycles_to: to[i],
        })
        .collect()
}

/// Builds the trajectory over `(label, snapshot)` pairs, oldest
/// first. Lineage violations are collected, not fatal — the caller
/// decides whether they gate.
pub fn build(snapshots: &[(String, BenchSnapshot)]) -> Trajectory {
    let infos: Vec<SnapshotInfo> = snapshots
        .iter()
        .map(|(label, s)| SnapshotInfo {
            label: label.clone(),
            tag: s.tag.clone(),
            quick: s.quick,
            workloads: s.workloads.iter().map(|w| w.name.clone()).collect(),
        })
        .collect();
    let mut violations = Vec::new();
    let mut steps = Vec::new();
    for pair in snapshots.windows(2) {
        let [(from_label, base), (to_label, cur)] = pair else {
            unreachable!("windows(2)");
        };
        let cur_names: BTreeSet<&str> = cur.workloads.iter().map(|w| w.name.as_str()).collect();
        let base_names: BTreeSet<&str> = base.workloads.iter().map(|w| w.name.as_str()).collect();
        let mut step = TrajectoryStep {
            from: from_label.clone(),
            to: to_label.clone(),
            added_workloads: cur
                .workloads
                .iter()
                .filter(|w| !base_names.contains(w.name.as_str()))
                .map(|w| w.name.clone())
                .collect(),
            changed: Vec::new(),
            attribution: Vec::new(),
        };
        for base_wl in &base.workloads {
            if !cur_names.contains(base_wl.name.as_str()) {
                violations.push(format!(
                    "{to_label}: workload {} present in {from_label} but dropped — \
                     the matrix only grows",
                    base_wl.name
                ));
                continue;
            }
            let cur_wl = cur
                .workloads
                .iter()
                .find(|w| w.name == base_wl.name)
                .expect("membership checked above");
            for (metric, &from) in &base_wl.metrics {
                if RETIRED_METRICS.contains(&metric.as_str()) {
                    continue;
                }
                let Some(&to) = cur_wl.metrics.get(metric) else {
                    violations.push(format!(
                        "{to_label}: metric {}/{metric} present in {from_label} but \
                         dropped — metrics only grow",
                        base_wl.name
                    ));
                    continue;
                };
                if from != to {
                    step.changed.push(MetricDelta {
                        workload: base_wl.name.clone(),
                        metric: metric.clone(),
                        from,
                        to,
                    });
                }
            }
            if base_wl.name.starts_with("multiply_") {
                step.attribution.extend(attribution_rows(base_wl, cur_wl));
            }
        }
        steps.push(step);
    }
    Trajectory {
        snapshots: infos,
        violations,
        steps,
    }
}

impl Trajectory {
    /// Whether the lineage invariants hold.
    pub fn lineage_ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Serializes the trajectory as deterministic JSON.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.open_object().field_str("schema", TRAJECTORY_SCHEMA);
        w.key("lineage_ok").bool(self.lineage_ok());
        w.key("violations").open_array();
        for v in &self.violations {
            w.string(v);
        }
        w.close_array();
        w.key("snapshots").open_array();
        for s in &self.snapshots {
            w.open_object()
                .field_str("label", &s.label)
                .field_str("tag", &s.tag);
            w.key("quick").bool(s.quick);
            w.key("workloads").open_array();
            for name in &s.workloads {
                w.string(name);
            }
            w.close_array().close_object();
        }
        w.close_array();
        w.key("steps").open_array();
        for step in &self.steps {
            w.open_object()
                .field_str("from", &step.from)
                .field_str("to", &step.to);
            w.key("added_workloads").open_array();
            for name in &step.added_workloads {
                w.string(name);
            }
            w.close_array();
            w.key("changed").open_array();
            for d in &step.changed {
                w.open_object()
                    .field_str("workload", &d.workload)
                    .field_str("metric", &d.metric)
                    .field_float("from", d.from)
                    .field_float("to", d.to)
                    .field_float("delta", d.delta());
                w.key("improved").bool(d.is_improvement());
                w.close_object();
            }
            w.close_array();
            w.key("attribution").open_array();
            for row in &step.attribution {
                w.open_object()
                    .field_str("workload", &row.workload)
                    .field_str("stage", row.stage)
                    .field_float("cycles_from", row.cycles_from)
                    .field_float("cycles_to", row.cycles_to)
                    .field_float("cycles_delta", row.cycles_delta())
                    .close_object();
            }
            w.close_array().close_object();
        }
        w.close_array().close_object();
        w.finish()
    }

    /// Renders the human-facing summary: one lineage line, one table
    /// of exact-metric movements per step, and the per-stage cycle
    /// split for the multiply matrix.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "trajectory: {} snapshots, lineage {}\n",
            self.snapshots.len(),
            if self.lineage_ok() { "OK" } else { "VIOLATED" }
        ));
        for v in &self.violations {
            out.push_str(&format!("  violation: {v}\n"));
        }
        for step in &self.steps {
            out.push_str(&format!(
                "\n== {} -> {} ({} exact changes, {} new workloads)\n",
                step.from,
                step.to,
                step.changed.len(),
                step.added_workloads.len()
            ));
            for name in &step.added_workloads {
                out.push_str(&format!("  + workload {name}\n"));
            }
            if !step.changed.is_empty() {
                let mut t =
                    TextTable::new(&["workload", "metric", "from", "to", "delta", "rel", "note"]);
                for d in &step.changed {
                    t.row(&[
                        d.workload.clone(),
                        d.metric.clone(),
                        format!("{}", d.from),
                        format!("{}", d.to),
                        format!("{:+}", d.delta()),
                        d.rel()
                            .map_or("n/a".into(), |r| format!("{:+.2}%", 100.0 * r)),
                        if d.is_improvement() {
                            "improved".into()
                        } else {
                            String::new()
                        },
                    ]);
                }
                out.push_str(&t.render());
            }
            let moved: Vec<&StageDeltaRow> = step
                .attribution
                .iter()
                .filter(|r| r.cycles_delta() != 0.0)
                .collect();
            if !moved.is_empty() {
                out.push_str("  stage attribution of the multiply cycle deltas:\n");
                let mut t = TextTable::new(&["workload", "stage", "cycles"]);
                for r in moved {
                    t.row(&[
                        r.workload.clone(),
                        r.stage.to_string(),
                        format!("{:+}", r.cycles_delta()),
                    ]);
                }
                out.push_str(&t.render());
            }
        }
        out
    }
}

/// Derives a display label from a snapshot path: the file stem
/// (`ci/BENCH_PR8.json` → `BENCH_PR8`).
pub fn path_label(path: &str) -> String {
    std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or(path)
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn snap(entries: &[(&str, &[(&str, f64)])]) -> BenchSnapshot {
        BenchSnapshot {
            tag: "t".into(),
            quick: false,
            workloads: entries
                .iter()
                .map(|(name, ms)| WorkloadResult {
                    name: (*name).to_string(),
                    metrics: ms
                        .iter()
                        .map(|(k, v)| ((*k).to_string(), *v))
                        .collect::<BTreeMap<_, _>>(),
                })
                .collect(),
        }
    }

    fn multiply(pre: f64, mul: f64, post: f64, handoff: f64, pj: f64) -> Vec<(String, f64)> {
        vec![
            ("cycles".into(), pre + mul + post + handoff),
            ("precompute_cycles".into(), pre),
            ("multiply_cycles".into(), mul),
            ("postcompute_cycles".into(), post),
            ("energy_pj".into(), pj),
        ]
    }

    fn msnap(stages: &[(f64, f64, f64, f64, f64)]) -> BenchSnapshot {
        BenchSnapshot {
            tag: String::new(),
            quick: false,
            workloads: stages
                .iter()
                .enumerate()
                .map(|(i, &(a, b, c, d, e))| WorkloadResult {
                    name: format!("multiply_{}", 512 << i),
                    metrics: multiply(a, b, c, d, e).into_iter().collect(),
                })
                .collect(),
        }
    }

    #[test]
    fn growing_lineage_is_ok_and_deltas_are_exact() {
        let a = snap(&[("w", &[("cycles", 10.0), ("wall_ms", 1.0)])]);
        let b = snap(&[
            ("w", &[("cycles", 12.0), ("wall_ms", 50.0)]),
            ("new_wl", &[("cycles", 5.0)]),
        ]);
        let t = build(&[("A".into(), a), ("B".into(), b)]);
        assert!(t.lineage_ok());
        assert_eq!(t.steps.len(), 1);
        let step = &t.steps[0];
        assert_eq!(step.added_workloads, vec!["new_wl".to_string()]);
        // The retired wall metric's movement is not a delta.
        assert_eq!(step.changed.len(), 1);
        assert_eq!(step.changed[0].metric, "cycles");
        assert_eq!(step.changed[0].delta(), 2.0);
    }

    #[test]
    fn dropped_workload_and_metric_violate_lineage() {
        let a = snap(&[
            ("w", &[("cycles", 1.0), ("writes", 2.0)]),
            ("gone", &[("cycles", 3.0)]),
        ]);
        let b = snap(&[("w", &[("cycles", 1.0)])]);
        let t = build(&[("A".into(), a), ("B".into(), b)]);
        assert!(!t.lineage_ok());
        assert_eq!(t.violations.len(), 2);
        assert!(
            t.violations.iter().any(|v| v.contains("workload gone")),
            "{:?}",
            t.violations
        );
        assert!(
            t.violations.iter().any(|v| v.contains("w/writes")),
            "{:?}",
            t.violations
        );
    }

    #[test]
    fn stage_attribution_splits_the_cycle_delta_by_stage() {
        // The multiply stage grows by 30 cycles and postcompute by 10;
        // the energy delta stays one exact workload-level change.
        let a = msnap(&[(100.0, 200.0, 50.0, 10.0, 1_000.0)]);
        let b = msnap(&[(100.0, 230.0, 60.0, 10.0, 1_400.0)]);
        let t = build(&[("A".into(), a), ("B".into(), b)]);
        let rows = &t.steps[0].attribution;
        assert_eq!(rows.len(), 4);
        let by_stage = |s: &str| rows.iter().find(|r| r.stage == s).unwrap();
        assert_eq!(by_stage("multiply").cycles_delta(), 30.0);
        assert_eq!(by_stage("postcompute").cycles_delta(), 10.0);
        assert_eq!(by_stage("precompute").cycles_delta(), 0.0);
        assert_eq!(by_stage("handoff").cycles_delta(), 0.0);
        // The stage rows sum to the workload's cycle delta exactly.
        assert_eq!(
            rows.iter().map(StageDeltaRow::cycles_delta).sum::<f64>(),
            40.0
        );
        let energy = t.steps[0]
            .changed
            .iter()
            .find(|d| d.metric == "energy_pj")
            .unwrap();
        assert_eq!(energy.delta(), 400.0);
    }

    #[test]
    fn unchanged_cycles_attribute_nothing() {
        let a = msnap(&[(1.0, 2.0, 3.0, 0.0, 10.0)]);
        let b = msnap(&[(1.0, 2.0, 3.0, 0.0, 10.0)]);
        let t = build(&[("A".into(), a), ("B".into(), b)]);
        for row in &t.steps[0].attribution {
            assert_eq!(row.cycles_delta(), 0.0);
        }
        assert!(!t.render().contains("stage attribution"), "{}", t.render());
    }

    #[test]
    fn json_is_deterministic_and_valid() {
        let a = msnap(&[(1.0, 2.0, 3.0, 1.0, 10.0)]);
        let b = msnap(&[(1.0, 4.0, 3.0, 1.0, 12.0)]);
        let make = || build(&[("A".into(), a.clone()), ("B".into(), b.clone())]);
        let t = make();
        assert_eq!(t.to_json(), make().to_json());
        cim_trace::json::check(&t.to_json()).unwrap();
        assert!(t
            .to_json()
            .contains("\"schema\":\"cim-bench-trajectory/2\""));
        let rendered = t.render();
        assert!(rendered.contains("lineage OK"), "{rendered}");
        assert!(rendered.contains("multiply_512"), "{rendered}");
    }

    #[test]
    fn improvements_are_labeled_in_render_and_json() {
        // multiply stage cycles drop (an optimization landing), the
        // paper-exact baseline metric is untouched.
        let a = msnap(&[(100.0, 200.0, 50.0, 10.0, 1_000.0)]);
        let b = msnap(&[(100.0, 150.0, 50.0, 10.0, 900.0)]);
        let t = build(&[("A".into(), a), ("B".into(), b)]);
        assert!(
            t.lineage_ok(),
            "a value decrease is not a lineage violation"
        );
        let step = &t.steps[0];
        let cycles = step.changed.iter().find(|d| d.metric == "cycles").unwrap();
        assert!(cycles.is_improvement());
        assert!(cycles.delta() < 0.0);
        let rendered = t.render();
        assert!(rendered.contains("improved"), "{rendered}");
        assert!(t.to_json().contains("\"improved\":true"), "{}", t.to_json());
        // A cost increase is NOT an improvement; nor is a non-cost move.
        let worse = MetricDelta {
            workload: "w".into(),
            metric: "cycles".into(),
            from: 1.0,
            to: 2.0,
        };
        assert!(!worse.is_improvement());
        let other = MetricDelta {
            workload: "w".into(),
            metric: "utilization".into(),
            from: 2.0,
            to: 1.0,
        };
        assert!(!other.is_improvement());
    }

    #[test]
    fn path_labels_use_the_file_stem() {
        assert_eq!(path_label("BENCH_PR8.json"), "BENCH_PR8");
        assert_eq!(path_label("ci/artifacts/BENCH_PR9.json"), "BENCH_PR9");
    }
}
