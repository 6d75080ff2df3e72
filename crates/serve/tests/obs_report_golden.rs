//! Golden determinism test for the `obs_report` binary.
//!
//! The diagnostics artifact is a contract: two invocations with the
//! same flags must produce byte-identical JSON (virtual cycle domain,
//! seeded operand streams, deterministic serialization), and the
//! artifact must contain every section the acceptance checklist
//! names — a fully correlated exemplar trace, exact attribution,
//! wear heatmap with top-K rows, per-tile wear, and per-tenant SLO
//! verdicts.

use std::process::Command;

fn run_report(json_path: &std::path::Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_obs_report"))
        .args([
            "--smoke",
            "--requests",
            "1200",
            "--farms",
            "2",
            "--seed",
            "41",
            "--top-k",
            "4",
            "--json",
        ])
        .arg(json_path)
        .output()
        .expect("obs_report runs")
}

#[test]
fn obs_report_json_is_byte_deterministic_and_complete() {
    let dir = std::env::temp_dir();
    let path_a = dir.join("obs_report_golden_a.json");
    let path_b = dir.join("obs_report_golden_b.json");

    let out_a = run_report(&path_a);
    assert!(
        out_a.status.success(),
        "first run failed: {}",
        String::from_utf8_lossy(&out_a.stderr)
    );
    let out_b = run_report(&path_b);
    assert!(out_b.status.success(), "second run failed");

    let json_a = std::fs::read_to_string(&path_a).expect("artifact a");
    let json_b = std::fs::read_to_string(&path_b).expect("artifact b");
    assert_eq!(
        json_a, json_b,
        "obs_report JSON must be byte-identical across runs"
    );
    cim_trace::json::check(&json_a).expect("artifact is valid JSON");

    // Section presence: the four diagnostics plus run/journal header.
    for key in [
        "\"run\":",
        "\"journal\":",
        "\"trigger_state\":",
        "\"exemplar\":",
        "\"attribution\":",
        "\"wear\":",
        "\"slo\":",
    ] {
        assert!(json_a.contains(key), "artifact missing {key}");
    }

    // The exemplar story is fully correlated: every pipeline stage of
    // one request appears, in order, in the retained journal window.
    let story = &json_a[json_a.find("\"story\":").expect("story present")..];
    let mut pos = 0;
    for stage in ["admit", "batch_formed", "job_dispatch", "job_retire"] {
        let needle = format!("\"kind\":\"{stage}\"");
        let at = story[pos..]
            .find(&needle)
            .unwrap_or_else(|| panic!("story missing stage {stage}"));
        pos += at;
    }

    // Attribution sums bit-exactly to the published registry totals.
    assert!(
        json_a.contains("\"attribution_matches_metrics\":true"),
        "attribution must match the metrics registry exactly"
    );
    assert!(
        json_a.contains("\"attribution_sums_exactly\":true"),
        "stage rows must sum to totals"
    );

    // Wear: top-K rows and per-tile entries are present.
    assert!(
        json_a.contains("\"top_rows\":["),
        "heatmap top rows missing"
    );
    assert!(json_a.contains("\"per_tile\":["), "per-tile wear missing");
    assert!(
        json_a.contains("\"max_cell_writes\":"),
        "tile wear fields missing"
    );

    // Per-tenant SLO verdicts for both tenants.
    assert!(
        json_a.contains("\"tenant\":\"tenant0\""),
        "tenant0 verdict missing"
    );
    assert!(
        json_a.contains("\"tenant\":\"tenant1\""),
        "tenant1 verdict missing"
    );

    let _ = std::fs::remove_file(&path_a);
    let _ = std::fs::remove_file(&path_b);
}
