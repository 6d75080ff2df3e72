//! Pins the committed benchmark artifacts: every `BENCH_PR*.json`
//! snapshot parses, their trajectory keeps its lineage, and the
//! trajectory regenerated from them is valid JSON equal byte for byte
//! to the committed `BENCH_TRAJECTORY.json`.

use cim_bench::snapshot::BenchSnapshot;
use cim_bench::trajectory::build;

/// The committed snapshots in lineage order.
const SNAPSHOTS: [(&str, &str); 7] = [
    ("BENCH_PR4", include_str!("../../../BENCH_PR4.json")),
    ("BENCH_PR5", include_str!("../../../BENCH_PR5.json")),
    ("BENCH_PR6", include_str!("../../../BENCH_PR6.json")),
    ("BENCH_PR7", include_str!("../../../BENCH_PR7.json")),
    ("BENCH_PR8", include_str!("../../../BENCH_PR8.json")),
    ("BENCH_PR9", include_str!("../../../BENCH_PR9.json")),
    ("BENCH_PR10", include_str!("../../../BENCH_PR10.json")),
];

const TRAJECTORY: &str = include_str!("../../../BENCH_TRAJECTORY.json");

#[test]
fn committed_trajectory_is_regenerated_exactly() {
    let snapshots: Vec<(String, BenchSnapshot)> = SNAPSHOTS
        .iter()
        .map(|(label, text)| {
            let snapshot = BenchSnapshot::parse(text).unwrap_or_else(|e| panic!("{label}: {e}"));
            ((*label).to_string(), snapshot)
        })
        .collect();
    let t = build(&snapshots);
    assert!(t.lineage_ok(), "{:?}", t.violations);
    let json = t.to_json();
    cim_trace::json::check(&json).expect("trajectory JSON is well formed");
    assert!(json == TRAJECTORY, "BENCH_TRAJECTORY.json is stale; regenerate it with bench_check --trajectory");
}
