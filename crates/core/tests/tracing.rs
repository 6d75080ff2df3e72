//! Tracing-neutrality and determinism tests for the instrumented
//! multiplier: attaching a recording tracer must not change a single
//! cycle, cell, or wear count, and the exported trace of a fixed
//! multiply is byte-identical across runs.

use cim_bigint::rng::UintRng;
use cim_mir::OptLevel;
use cim_trace::{chrome, folded, EventKind, Tracer};
use karatsuba_cim::multiplier::KaratsubaCimMultiplier;

#[test]
fn tracing_changes_no_cycle_or_cell_counts() {
    let mut rng = UintRng::seeded(7);
    for n in [16usize, 64, 128] {
        let a = rng.uniform(n);
        let b = rng.uniform(n);
        let mult = KaratsubaCimMultiplier::new(n).unwrap();
        let plain = mult.multiply(&a, &b).unwrap();
        let tracer = Tracer::recording();
        let traced = mult.multiply_traced(&a, &b, &tracer).unwrap();
        assert_eq!(
            plain, traced,
            "n = {n}: tracing must not perturb the simulation"
        );
        let trace = tracer.finish().unwrap();
        assert!(!trace.events.is_empty(), "n = {n}: trace must not be empty");
    }
}

#[test]
fn fixed_64bit_multiply_trace_is_deterministic_with_stage_spans() {
    let export = || {
        let mut rng = UintRng::seeded(42);
        let a = rng.uniform(64);
        let b = rng.uniform(64);
        let mult = KaratsubaCimMultiplier::new(64).unwrap();
        let tracer = Tracer::recording();
        mult.multiply_traced(&a, &b, &tracer).unwrap();
        let trace = tracer.finish().unwrap();
        let json = chrome::to_chrome_json(&trace);
        let stacks = folded::to_folded(&trace).unwrap();
        (trace, json, stacks)
    };

    let (trace, json, stacks) = export();
    let (_, json2, stacks2) = export();
    assert_eq!(json, json2, "Chrome export must be byte-identical");
    assert_eq!(stacks, stacks2, "folded export must be byte-identical");
    chrome::validate_chrome_trace(&json).expect("export must be schema-valid");

    // All three pipeline stages appear as named spans.
    let span_names: Vec<&str> = trace
        .events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::Begin { name, .. } => Some(name.as_str()),
            EventKind::Complete { name, .. } => Some(name.as_str()),
            _ => None,
        })
        .collect();
    assert!(span_names.contains(&"precompute"), "stage 1 span missing");
    assert!(span_names.contains(&"postcompute"), "stage 3 span missing");
    assert!(
        span_names.contains(&"c_ll") && span_names.contains(&"c_mm"),
        "stage 2 per-row product spans missing"
    );
    // The per-op occupancy counter rides along on the stage tracks.
    assert!(
        trace.events.iter().any(|e| matches!(
            &e.kind,
            EventKind::Counter { name, .. } if name.as_str() == "cells_active"
        )),
        "cells_active counter missing"
    );

    // Every span opened on a stage track is properly closed and
    // nested — the full multiply obeys the same invariants the unit
    // traces do.
    let forest = cim_trace::analysis::build_forest(&trace).unwrap();
    cim_trace::analysis::check_nesting(&forest).unwrap();
}

/// The `precompute` and `postcompute` spans of one fixed 64-bit
/// multiply with their named children, start and end cycle by cycle:
/// the chunk writes, the ten tree additions and the 11 shared-adder
/// passes (Fig. 7), each stage closed by its one-cycle reset wave (an
/// executor op event, which is why it sits among the children). At O0
/// every addition takes 72 cycles and every pass 97; at O3 the fused
/// suffix drops the inter-addition scratch resets (the last addition
/// keeps its own) and each pass packs to 68.
#[test]
fn fixed_64bit_multiply_stage_spans_are_pinned() {
    let o0 = "precompute 0..729, write chunks 0..8, add a10 8..80, add a32 80..152, \
        add a20 152..224, add a31 224..296, add a3210 296..368, add b10 368..440, \
        add b32 440..512, add b20 512..584, add b31 584..656, add b3210 656..728, \
        reset 728..729, postcompute 1128..2196, pass 1: t_l || t_h 1128..1225, \
        pass 2: c~_lm || c~_hm 1225..1322, pass 3: t_m 1322..1419, \
        pass 4: c~_mm 1419..1516, pass 5: c_l 1516..1613, pass 6: c_h 1613..1710, \
        pass 7: u 1710..1807, pass 8: c_m 1807..1904, pass 9: v 1904..2001, \
        pass 10: c~_m 2001..2098, pass 11: c_top 2098..2195, reset 2195..2196";
    let o3 = "precompute 0..490, write chunks 0..8, add a10 8..56, add a32 56..104, \
        add a20 104..152, add a31 152..200, add a3210 200..248, add b10 248..296, \
        add b32 296..344, add b20 344..392, add b31 392..440, add b3210 440..489, \
        reset 489..490, postcompute 799..1548, pass 1: t_l || t_h 799..867, \
        pass 2: c~_lm || c~_hm 867..935, pass 3: t_m 935..1003, \
        pass 4: c~_mm 1003..1071, pass 5: c_l 1071..1139, pass 6: c_h 1139..1207, \
        pass 7: u 1207..1275, pass 8: c_m 1275..1343, pass 9: v 1343..1411, \
        pass 10: c~_m 1411..1479, pass 11: c_top 1479..1547, reset 1547..1548";
    for (opt, expected) in [(OptLevel::O0, o0), (OptLevel::O3, o3)] {
        assert_eq!(stage_spans(opt), expected, "{opt:?}");
    }
}

/// The named stage spans of a traced multiply at `opt`: on the
/// precompute and then the postcompute track, the stage span and its
/// direct children as `name start..end`, in start order.
fn stage_spans(opt: OptLevel) -> String {
    let mut rng = UintRng::seeded(42);
    let (a, b) = (rng.uniform(64), rng.uniform(64));
    let mult = KaratsubaCimMultiplier::with_opt_level(64, opt).unwrap();
    let tracer = Tracer::recording();
    mult.multiply_traced(&a, &b, &tracer).unwrap();
    let trace = tracer.finish().unwrap();
    let forest = cim_trace::analysis::build_forest(&trace).unwrap();
    let mut spans = Vec::new();
    for track in ["stage 1 (precompute)", "stage 3 (postcompute)"] {
        let mut on_track: Vec<_> = forest
            .nodes
            .iter()
            .filter(|s| s.depth <= 1 && trace.track_name(s.track) == track)
            .map(|s| (s.start, s.depth, s.name.as_str(), s.end))
            .collect();
        on_track.sort();
        spans.extend(
            on_track
                .into_iter()
                .map(|(s, _, name, e)| format!("{name} {s}..{e}")),
        );
    }
    spans.join(", ")
}
