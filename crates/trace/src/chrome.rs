//! Chrome Trace Event JSON export — loadable in Perfetto
//! (<https://ui.perfetto.dev>) and `chrome://tracing`.
//!
//! One simulated clock cycle maps to one microsecond of trace time
//! (`ts` is in µs in the Trace Event format), so Perfetto's time axis
//! reads directly as cycles. Output is byte-deterministic: field order
//! is fixed, events are written in emission order after a fixed
//! metadata prologue, and no wall-clock value is ever sampled.

use crate::json::{self, JsonValue, JsonWriter};
use crate::model::{Args, EventKind, Trace};
use std::collections::BTreeMap;

/// Serializes `trace` as Chrome Trace Event JSON.
pub fn to_chrome_json(trace: &Trace) -> String {
    let mut w = JsonWriter::new();
    w.open_object();
    w.key("traceEvents").open_array();

    // Metadata prologue: process and track names, stable sort order.
    for p in &trace.processes {
        w.open_object()
            .field_str("name", "process_name")
            .field_str("ph", "M")
            .field_uint("pid", u64::from(p.id.0))
            .field_uint("tid", 0)
            .key("args")
            .open_object()
            .field_str("name", &p.name)
            .close_object()
            .close_object();
        w.open_object()
            .field_str("name", "process_sort_index")
            .field_str("ph", "M")
            .field_uint("pid", u64::from(p.id.0))
            .field_uint("tid", 0)
            .key("args")
            .open_object()
            .field_uint("sort_index", u64::from(p.id.0))
            .close_object()
            .close_object();
    }
    for t in &trace.tracks {
        w.open_object()
            .field_str("name", "thread_name")
            .field_str("ph", "M")
            .field_uint("pid", u64::from(t.process.0))
            .field_uint("tid", u64::from(t.id.0))
            .key("args")
            .open_object()
            .field_str("name", &t.name)
            .close_object()
            .close_object();
        w.open_object()
            .field_str("name", "thread_sort_index")
            .field_str("ph", "M")
            .field_uint("pid", u64::from(t.process.0))
            .field_uint("tid", u64::from(t.id.0))
            .key("args")
            .open_object()
            .field_uint("sort_index", u64::from(t.id.0))
            .close_object()
            .close_object();
    }

    let pid_of = |track: crate::model::TrackId| -> u64 {
        trace
            .tracks
            .iter()
            .find(|t| t.id == track)
            .map_or(0, |t| u64::from(t.process.0))
    };

    for ev in &trace.events {
        let pid = pid_of(ev.track);
        let tid = u64::from(ev.track.0);
        match &ev.kind {
            EventKind::Begin { name, args, .. } => {
                event_header(&mut w, name.as_str(), "B", ev.cycle, pid, tid);
                write_args(&mut w, args);
                w.close_object();
            }
            EventKind::End { .. } => {
                // The Trace Event format pairs B/E by stack order per
                // (pid, tid); ids are not part of the format.
                event_header(&mut w, "", "E", ev.cycle, pid, tid);
                w.close_object();
            }
            EventKind::Complete { name, dur, args } => {
                event_header(&mut w, name.as_str(), "X", ev.cycle, pid, tid);
                w.field_uint("dur", *dur);
                write_args(&mut w, args);
                w.close_object();
            }
            EventKind::Instant { name, args } => {
                event_header(&mut w, name.as_str(), "i", ev.cycle, pid, tid);
                w.field_str("s", "t");
                write_args(&mut w, args);
                w.close_object();
            }
            EventKind::Counter { name, value } => {
                event_header(&mut w, name.as_str(), "C", ev.cycle, pid, tid);
                w.key("args")
                    .open_object()
                    .field_float("value", *value)
                    .close_object();
                w.close_object();
            }
        }
    }

    w.close_array();
    w.field_str("displayTimeUnit", "ms");
    w.key("otherData")
        .open_object()
        .field_str("clock_domain", "simulated-cycles")
        .field_str("generator", "cim-trace")
        .close_object();
    w.close_object();
    w.finish()
}

fn event_header(w: &mut JsonWriter, name: &str, ph: &str, ts: u64, pid: u64, tid: u64) {
    w.open_object()
        .field_str("name", name)
        .field_str("ph", ph)
        .field_uint("ts", ts)
        .field_uint("pid", pid)
        .field_uint("tid", tid);
}

fn write_args(w: &mut JsonWriter, args: &Args) {
    if args.is_empty() {
        return;
    }
    w.key("args").open_object();
    for (k, v) in args.iter() {
        w.key(k).int(v);
    }
    w.close_object();
}

/// Counts per event phase found by [`validate_chrome_trace`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChromeTraceSummary {
    /// Total `traceEvents` entries (metadata included).
    pub events: usize,
    /// Complete (`X`) span events.
    pub complete_spans: usize,
    /// `B`/`E` pairs.
    pub span_pairs: usize,
    /// Counter (`C`) samples.
    pub counters: usize,
    /// Instant (`i`) markers.
    pub instants: usize,
    /// Metadata (`M`) records.
    pub metadata: usize,
}

/// Validates that `json` is well-formed Chrome Trace Event JSON: the
/// whole text parses as JSON, a top-level `traceEvents` array is
/// present, every event carries its required fields (`ph`, `name`,
/// unsigned integer `pid`/`tid`, `ts` except on metadata, `dur` on
/// `X`), and `B`/`E` events balance per `(pid, tid)` stack.
///
/// This is the schema gate CI runs over `trace_dump` artifacts. It
/// reads the tree [`crate::json::parse`] builds, so only an event's
/// own top-level keys count, never keys nested in its `args`.
///
/// # Errors
///
/// Returns a description of the first violation.
pub fn validate_chrome_trace(json_text: &str) -> Result<ChromeTraceSummary, String> {
    let root = json::parse(json_text).map_err(|e| format!("not valid JSON: {e}"))?;
    let events = root
        .get("traceEvents")
        .ok_or("missing traceEvents key")?
        .as_array()
        .ok_or("traceEvents is not an array")?;

    let mut summary = ChromeTraceSummary::default();
    // Depth of open B spans per (pid, tid).
    let mut stacks: BTreeMap<(u64, u64), i64> = BTreeMap::new();
    for (i, event) in events.iter().enumerate() {
        check_event(i, event, &mut summary, &mut stacks)?;
    }
    for ((pid, tid), open) in &stacks {
        if *open != 0 {
            return Err(format!(
                "unbalanced B/E events on pid {pid} tid {tid}: {open} left open"
            ));
        }
    }
    Ok(summary)
}

fn check_event(
    i: usize,
    event: &JsonValue,
    summary: &mut ChromeTraceSummary,
    stacks: &mut BTreeMap<(u64, u64), i64>,
) -> Result<(), String> {
    summary.events += 1;
    let uint = |key: &str| -> Result<u64, String> {
        let v = event
            .get(key)
            .ok_or_else(|| format!("event {i} missing {key}"))?;
        v.as_u64()
            .ok_or_else(|| format!("event {i} field {key} is not an unsigned integer"))
    };
    let ph = event
        .get("ph")
        .ok_or_else(|| format!("event {i} missing ph"))?;
    let ph = ph
        .as_str()
        .ok_or_else(|| format!("unknown event phase {ph:?} in event {i}"))?;
    // Metadata records carry no timestamp in the Trace Event format.
    if ph != "M" {
        uint("ts")?;
    }
    let pid = uint("pid")?;
    let tid = uint("tid")?;
    if event.get("name").is_none() {
        return Err(format!("event {i} missing name"));
    }
    match ph {
        "M" => summary.metadata += 1,
        "X" => {
            event
                .get("dur")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("X event {i} missing integer dur"))?;
            summary.complete_spans += 1;
        }
        "B" => *stacks.entry((pid, tid)).or_insert(0) += 1,
        "E" => {
            let open = stacks.entry((pid, tid)).or_insert(0);
            *open -= 1;
            if *open < 0 {
                return Err(format!("E without matching B on pid {pid} tid {tid}"));
            }
            summary.span_pairs += 1;
        }
        "C" => summary.counters += 1,
        "i" => summary.instants += 1,
        other => return Err(format!("unknown event phase {other:?} in event {i}")),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Args;
    use crate::Tracer;

    fn sample() -> Trace {
        let t = Tracer::recording();
        let pid = t.process("mult");
        let track = t.track(pid, "stage 1");
        let span = t.span_at(track, "precompute", 0);
        t.complete(track, "write", 0, 1, Args::new().with("row", 3));
        t.counter(track, "occupancy", 1, 0.75);
        t.instant(track, "handoff", 2, Args::new());
        span.end(5);
        t.finish().unwrap()
    }

    #[test]
    fn export_is_valid_and_counts_match() {
        let json_text = to_chrome_json(&sample());
        let s = validate_chrome_trace(&json_text).unwrap();
        assert_eq!(s.complete_spans, 1);
        assert_eq!(s.span_pairs, 1);
        assert_eq!(s.counters, 1);
        assert_eq!(s.instants, 1);
        assert_eq!(s.metadata, 4); // process name+sort, thread name+sort
        assert!(json_text.contains("\"clock_domain\":\"simulated-cycles\""));
    }

    #[test]
    fn export_is_deterministic() {
        let a = to_chrome_json(&sample());
        let b = to_chrome_json(&sample());
        assert_eq!(a, b);
    }

    #[test]
    fn validator_rejects_unbalanced_spans() {
        let json_text = r#"{"traceEvents":[{"name":"x","ph":"E","ts":1,"pid":0,"tid":0}]}"#;
        assert!(validate_chrome_trace(json_text)
            .unwrap_err()
            .contains("E without matching B"));
        let json_text = r#"{"traceEvents":[{"name":"x","ph":"B","ts":1,"pid":0,"tid":0}]}"#;
        assert!(validate_chrome_trace(json_text)
            .unwrap_err()
            .contains("left open"));
    }

    #[test]
    fn validator_rejects_missing_fields() {
        let json_text = r#"{"traceEvents":[{"name":"x","ph":"X","ts":1,"pid":0,"tid":0}]}"#;
        assert!(validate_chrome_trace(json_text)
            .unwrap_err()
            .contains("missing integer dur"));
        let json_text = r#"{"traceEvents":[{"ph":"i","ts":1,"pid":0,"tid":0,"s":"t"}]}"#;
        assert!(validate_chrome_trace(json_text)
            .unwrap_err()
            .contains("missing name"));
        assert!(validate_chrome_trace("not json").is_err());
        let json_text = r#"{"traceEvents":[{"name":"x","ph":"i","ts":-1,"pid":0,"tid":0}]}"#;
        assert!(validate_chrome_trace(json_text)
            .unwrap_err()
            .contains("ts is not an unsigned integer"));
        let json_text = r#"{"traceEvents":[{"name":"x","ph":"Q","ts":1,"pid":0,"tid":0}]}"#;
        assert!(validate_chrome_trace(json_text)
            .unwrap_err()
            .contains("unknown event phase"));
        let json_text = r#"{"traceEvents":[{"name":"x","ts":1,"pid":0,"tid":0}]}"#;
        assert!(validate_chrome_trace(json_text)
            .unwrap_err()
            .contains("missing ph"));
        assert!(validate_chrome_trace(r#"{"events":[]}"#)
            .unwrap_err()
            .contains("missing traceEvents"));
    }

    #[test]
    fn validator_reads_top_level_keys_not_args() {
        // `args` first, carrying keys that shadow the event's own: the
        // event is a complete span on pid 1, named by its own `name`.
        let json_text = r#"{"traceEvents":[
            {"args":{"ph":"B","pid":"x","name":1},"name":"x","ph":"X","ts":1,"dur":1,"pid":1,"tid":0},
            {"args":{"ph":"E","pid":7},"name":"y","ph":"B","ts":2,"pid":0,"tid":0},
            {"args":{"ph":"B"},"name":"","ph":"E","ts":3,"pid":0,"tid":0},
            {"args":{"name":"p"},"ph":"M","name":"process_name","pid":1,"tid":0}
        ]}"#;
        let s = validate_chrome_trace(json_text).unwrap();
        assert_eq!(
            s,
            ChromeTraceSummary {
                events: 4,
                complete_spans: 1,
                span_pairs: 1,
                counters: 0,
                instants: 0,
                metadata: 1,
            }
        );
        // An event whose only `name` sits inside its `args` has none.
        let json_text =
            r#"{"traceEvents":[{"args":{"name":"x"},"ph":"i","ts":1,"pid":0,"tid":0}]}"#;
        assert!(validate_chrome_trace(json_text)
            .unwrap_err()
            .contains("missing name"));
    }
}
