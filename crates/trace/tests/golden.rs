//! Golden-file test: the Chrome export of a fixed, API-built trace is
//! byte-identical across runs and across machines. Timestamps are
//! simulated cycles, names are fixed, and the exporter iterates
//! deterministic structures only — so the JSON below must never drift
//! unless the exporter itself changes (regenerate with
//! `BLESS=1 cargo test -p cim-trace --test golden`).

use cim_trace::{chrome, Args, Tracer};

/// A miniature of the workspace's real shape: one multiplier process
/// with a stage track (nested spans + op completes + a counter) and a
/// scheduler-style track (instants).
fn reference_trace() -> cim_trace::Trace {
    let tracer = Tracer::recording();
    let pid = tracer.process("karatsuba n=64");
    let stage = tracer.track(pid, "stage 1 (precompute)");
    let sched = tracer.track(pid, "scheduler");

    let outer = tracer.span_at(stage, "precompute", 0);
    let writes = tracer.span_at(stage, "write chunks", 0);
    tracer.complete(
        stage,
        "write",
        0,
        2,
        Args::new().with("row", 0).with("bits", 16),
    );
    tracer.complete(
        stage,
        "write",
        2,
        2,
        Args::new().with("row", 1).with("bits", 16),
    );
    writes.end(4);
    let add = tracer.span_at(stage, "add a10", 4);
    tracer.complete(stage, "nor", 4, 1, Args::new().with("out", 3));
    tracer.counter(stage, "cells_active", 4, 18.0);
    add.end(9);
    outer.end(12);

    tracer.instant(
        sched,
        "dispatch",
        5,
        Args::new().with("job", 0).with("tile", 1),
    );
    tracer.counter(sched, "queue_depth", 5, 1.0);
    tracer.finish().expect("recording tracer yields a trace")
}

#[test]
fn chrome_export_matches_golden_file() {
    let json = chrome::to_chrome_json(&reference_trace());
    chrome::validate_chrome_trace(&json).expect("golden trace must validate");

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/reference.trace.json"
    );
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(path, &json).expect("bless golden file");
    }
    let golden = std::fs::read_to_string(path).expect("golden file present");
    assert_eq!(
        json, golden,
        "Chrome export drifted from the golden file; if intentional, \
         regenerate with BLESS=1"
    );
}

#[test]
fn export_is_byte_identical_across_runs() {
    let a = chrome::to_chrome_json(&reference_trace());
    let b = chrome::to_chrome_json(&reference_trace());
    assert_eq!(a, b);
    let folded_a = cim_trace::folded::to_folded(&reference_trace()).unwrap();
    let folded_b = cim_trace::folded::to_folded(&reference_trace()).unwrap();
    assert_eq!(folded_a, folded_b);
}
