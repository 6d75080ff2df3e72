//! Prometheus text-exposition rendering and a strict grammar checker.
//!
//! [`render`] turns a [`Snapshot`] into the text exposition format
//! (version 0.0.4): `# HELP` / `# TYPE` headers per family, one sample
//! line per series, and the `_bucket`/`_sum`/`_count` expansion with
//! cumulative counts and a `+Inf` bucket for histograms. Output is
//! deterministic — families and series are already sorted in the
//! snapshot.
//!
//! [`check`] is the matching validator used by tests and CI: it parses
//! the whole document against the exposition grammar and additionally
//! enforces the histogram invariants (cumulative monotone buckets,
//! terminal `+Inf`, `_count` consistency).

use crate::labels::Labels;
use crate::registry::{is_valid_metric_name, MetricKind, MetricValue};
use crate::snapshot::Snapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escapes a `# HELP` text per the exposition format (`\\` and `\n`).
fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Formats a sample value: integral values render without a fraction
/// so deterministic counters stay bit-stable in golden files.
fn fmt_value(v: f64) -> String {
    cim_trace::json::number(v)
}

/// Renders `snapshot` in the Prometheus text exposition format.
pub fn render(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    for f in &snapshot.families {
        let _ = writeln!(out, "# HELP {} {}", f.name, escape_help(&f.help));
        let _ = writeln!(out, "# TYPE {} {}", f.name, f.kind.as_str());
        for s in &f.samples {
            match &s.value {
                MetricValue::Number(v) => {
                    let _ = writeln!(out, "{}{} {}", f.name, s.labels, fmt_value(*v));
                }
                MetricValue::Histogram(h) => {
                    let mut cum = 0u64;
                    for (le, count) in h.buckets() {
                        cum += count;
                        let labels = s.labels.clone().with("le", le);
                        let _ = writeln!(out, "{}_bucket{} {}", f.name, labels, cum);
                    }
                    let inf = s.labels.clone().with("le", "+Inf");
                    let _ = writeln!(out, "{}_bucket{} {}", f.name, inf, h.count());
                    let _ = writeln!(out, "{}_sum{} {}", f.name, s.labels, h.sum());
                    let _ = writeln!(out, "{}_count{} {}", f.name, s.labels, h.count());
                }
            }
        }
    }
    out
}

/// Summary statistics returned by a successful [`check`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExpositionStats {
    /// Number of `# TYPE`-declared families.
    pub families: usize,
    /// Number of sample lines.
    pub samples: usize,
    /// Number of histogram series (distinct label sets).
    pub histogram_series: usize,
}

#[derive(Debug, Default)]
struct HistogramSeries {
    buckets: Vec<(String, u64)>,
    sum: bool,
    count: Option<u64>,
}

/// Validates `text` against the exposition grammar.
///
/// # Errors
///
/// Returns `"line N: message"` on the first violation: malformed
/// names, labels or values; samples without a preceding `# TYPE`;
/// duplicate `# TYPE`; histogram buckets that are non-cumulative,
/// missing `+Inf`, or inconsistent with `_count`.
pub fn check(text: &str) -> Result<ExpositionStats, String> {
    let mut stats = ExpositionStats::default();
    let mut kinds: BTreeMap<String, MetricKind> = BTreeMap::new();
    let mut hists: BTreeMap<(String, Labels), HistogramSeries> = BTreeMap::new();

    for (i, line) in text.lines().enumerate() {
        let n = i + 1;
        let err = |msg: String| format!("line {n}: {msg}");
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest
                .split_once(' ')
                .ok_or_else(|| err("malformed TYPE line".into()))?;
            if !is_valid_metric_name(name) {
                return Err(err(format!("bad metric name {name:?}")));
            }
            let kind = match kind {
                "counter" => MetricKind::Counter,
                "gauge" => MetricKind::Gauge,
                "histogram" => MetricKind::Histogram,
                other => return Err(err(format!("unknown TYPE {other:?}"))),
            };
            if kinds.insert(name.to_string(), kind).is_some() {
                return Err(err(format!("duplicate TYPE for {name:?}")));
            }
            stats.families += 1;
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, _) = rest
                .split_once(' ')
                .ok_or_else(|| err("malformed HELP line".into()))?;
            if !is_valid_metric_name(name) {
                return Err(err(format!("bad metric name {name:?}")));
            }
            continue;
        }
        if line.starts_with('#') {
            return Err(err("only HELP/TYPE comments are allowed".into()));
        }

        let (name, labels, value) = parse_sample(line).map_err(&err)?;
        stats.samples += 1;

        // Resolve the declared family: histogram samples use the
        // base name with a _bucket/_sum/_count suffix.
        let (family, suffix) = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|s| {
                let base = name.strip_suffix(s)?;
                (kinds.get(base) == Some(&MetricKind::Histogram)).then_some((base, *s))
            })
            .unwrap_or((name.as_str(), ""));
        let Some(kind) = kinds.get(family) else {
            return Err(err(format!("sample {name:?} has no preceding TYPE")));
        };
        match (kind, suffix) {
            (MetricKind::Histogram, "") => {
                return Err(err(format!(
                    "histogram family {family:?} exposes bare sample {name:?}"
                )));
            }
            (MetricKind::Histogram, _) => {
                let mut base_labels = Labels::new();
                let mut le = None;
                for (k, v) in labels.iter() {
                    if k == "le" {
                        le = Some(v.to_string());
                    } else {
                        base_labels = base_labels.with(k, v);
                    }
                }
                let series = hists.entry((family.to_string(), base_labels)).or_default();
                match suffix {
                    "_bucket" => {
                        let le = le.ok_or_else(|| err("_bucket sample without le label".into()))?;
                        if value < 0.0 || value.fract() != 0.0 {
                            return Err(err(format!("non-integer bucket count {value}")));
                        }
                        series.buckets.push((le, value as u64));
                    }
                    "_sum" => series.sum = true,
                    _ => {
                        if value < 0.0 || value.fract() != 0.0 {
                            return Err(err(format!("non-integer count {value}")));
                        }
                        series.count = Some(value as u64);
                    }
                }
            }
            _ => {
                if labels.get("le").is_some() {
                    return Err(err("le label on a non-histogram sample".into()));
                }
            }
        }
    }

    for ((family, labels), series) in &hists {
        let ctx = format!("histogram {family}{labels}");
        let mut prev = 0u64;
        let mut prev_le = f64::NEG_INFINITY;
        for (le, cum) in &series.buckets {
            let le_v = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse::<f64>()
                    .map_err(|_| format!("{ctx}: bad le {le:?}"))?
            };
            if le_v <= prev_le {
                return Err(format!("{ctx}: le bounds not increasing at {le}"));
            }
            if *cum < prev {
                return Err(format!("{ctx}: bucket counts not cumulative at le={le}"));
            }
            prev = *cum;
            prev_le = le_v;
        }
        match series.buckets.last() {
            Some((le, cum)) if le == "+Inf" => {
                if series.count != Some(*cum) {
                    return Err(format!(
                        "{ctx}: _count {:?} disagrees with +Inf bucket {cum}",
                        series.count
                    ));
                }
            }
            _ => return Err(format!("{ctx}: missing terminal +Inf bucket")),
        }
        if !series.sum {
            return Err(format!("{ctx}: missing _sum"));
        }
        if series.count.is_none() {
            return Err(format!("{ctx}: missing _count"));
        }
        stats.histogram_series += 1;
    }
    Ok(stats)
}

/// Parses one sample line into `(name, labels, value)`.
fn parse_sample(line: &str) -> Result<(String, Labels, f64), String> {
    let bytes = line.as_bytes();
    let mut pos = 0;
    while pos < bytes.len()
        && (bytes[pos].is_ascii_alphanumeric() || bytes[pos] == b'_' || bytes[pos] == b':')
    {
        pos += 1;
    }
    let name = &line[..pos];
    if !is_valid_metric_name(name) {
        return Err(format!("bad metric name {name:?}"));
    }
    let mut labels = Labels::new();
    if bytes.get(pos) == Some(&b'{') {
        pos += 1;
        loop {
            let lstart = pos;
            while pos < bytes.len() && (bytes[pos].is_ascii_alphanumeric() || bytes[pos] == b'_') {
                pos += 1;
            }
            let lname = &line[lstart..pos];
            if lname.is_empty()
                || !(lname.as_bytes()[0].is_ascii_alphabetic() || lname.starts_with('_'))
            {
                return Err(format!("bad label name at byte {lstart}"));
            }
            if bytes.get(pos) != Some(&b'=') || bytes.get(pos + 1) != Some(&b'"') {
                return Err(format!("expected =\" at byte {pos}"));
            }
            pos += 2;
            let mut value = String::new();
            loop {
                match bytes.get(pos) {
                    None => return Err("unterminated label value".into()),
                    Some(b'"') => {
                        pos += 1;
                        break;
                    }
                    Some(b'\\') => {
                        match bytes.get(pos + 1) {
                            Some(b'\\') => value.push('\\'),
                            Some(b'"') => value.push('"'),
                            Some(b'n') => value.push('\n'),
                            _ => return Err(format!("bad escape at byte {pos}")),
                        }
                        pos += 2;
                    }
                    Some(_) => {
                        let c = line[pos..].chars().next().unwrap();
                        value.push(c);
                        pos += c.len_utf8();
                    }
                }
            }
            labels = labels.with(lname, value);
            match bytes.get(pos) {
                Some(b',') => pos += 1,
                Some(b'}') => {
                    pos += 1;
                    break;
                }
                _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
            }
        }
    }
    if bytes.get(pos) != Some(&b' ') {
        return Err(format!("expected space before value at byte {pos}"));
    }
    let raw = &line[pos + 1..];
    let value = match raw {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        _ => raw
            .parse::<f64>()
            .map_err(|_| format!("bad sample value {raw:?}"))?,
    };
    Ok((name.to_string(), labels, value))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsHub;

    fn demo() -> Snapshot {
        let hub = MetricsHub::recording();
        for (class, v) in [("write", 10.0), ("read", 4.0)] {
            hub.add_counter(
                "cim_xbar_cycles_total",
                "cycles by op class",
                &Labels::new().with("op_class", class),
                v,
            );
        }
        hub.set_gauge("cim_sched_queue_depth", "queue depth", &Labels::new(), 3.0);
        for v in [5u64, 5, 80, 1000] {
            hub.observe(
                "cim_sched_job_latency_cycles",
                "job latency",
                &Labels::new().with("policy", "least_loaded"),
                v,
            );
        }
        hub.snapshot()
    }

    #[test]
    fn rendered_output_passes_own_checker() {
        let text = render(&demo());
        let stats = check(&text).expect("rendered exposition must validate");
        assert_eq!(stats.families, 3);
        assert_eq!(stats.histogram_series, 1);
        assert!(text.contains("# TYPE cim_xbar_cycles_total counter"));
        assert!(text.contains("cim_xbar_cycles_total{op_class=\"write\"} 10"));
        assert!(text.contains("le=\"+Inf\",policy=\"least_loaded\"} 4"));
        assert!(text.contains("cim_sched_job_latency_cycles_count{policy=\"least_loaded\"} 4"));
    }

    #[test]
    fn rendering_is_deterministic() {
        assert_eq!(render(&demo()), render(&demo()));
    }

    #[test]
    fn checker_rejects_malformed_documents() {
        for (doc, why) in [
            ("cim_x 1\n", "sample without TYPE"),
            (
                "# TYPE cim_x counter\n# TYPE cim_x counter\ncim_x 1\n",
                "duplicate TYPE",
            ),
            ("# TYPE cim_x counter\ncim_x{le=\"5\"} 1\n", "le on counter"),
            ("# TYPE cim_x wibble\n", "unknown kind"),
            ("# TYPE 9bad counter\n", "bad name"),
            (
                "# TYPE cim_x counter\ncim_x{a=\"v} 1\n",
                "unterminated label",
            ),
            ("# TYPE cim_x counter\ncim_x nope\n", "bad value"),
            ("# random comment\n", "free comment"),
            ("# TYPE cim_h histogram\ncim_h 1\n", "bare histogram sample"),
        ] {
            assert!(check(doc).is_err(), "{why}: {doc:?}");
        }
    }

    #[test]
    fn checker_enforces_histogram_invariants() {
        let ok = "# TYPE cim_h histogram\n\
                  cim_h_bucket{le=\"1\"} 2\n\
                  cim_h_bucket{le=\"+Inf\"} 3\n\
                  cim_h_sum 7\n\
                  cim_h_count 3\n";
        assert!(check(ok).is_ok());
        let non_cumulative = ok.replace("le=\"+Inf\"} 3", "le=\"+Inf\"} 1");
        assert!(check(&non_cumulative).is_err());
        let no_inf = "# TYPE cim_h histogram\n\
                      cim_h_bucket{le=\"1\"} 2\n\
                      cim_h_sum 7\ncim_h_count 2\n";
        assert!(check(no_inf).is_err());
        let bad_count = ok.replace("cim_h_count 3", "cim_h_count 9");
        assert!(check(&bad_count).is_err());
        let no_sum = "# TYPE cim_h histogram\n\
                      cim_h_bucket{le=\"+Inf\"} 0\ncim_h_count 0\n";
        assert!(check(no_sum).is_err());
        let unordered = "# TYPE cim_h histogram\n\
                         cim_h_bucket{le=\"5\"} 1\n\
                         cim_h_bucket{le=\"2\"} 2\n\
                         cim_h_bucket{le=\"+Inf\"} 2\n\
                         cim_h_sum 4\ncim_h_count 2\n";
        assert!(check(unordered).is_err());
    }

    #[test]
    fn label_escapes_round_trip() {
        let hub = MetricsHub::recording();
        hub.add_counter(
            "cim_x_total",
            "x",
            &Labels::new().with("span", "a\\b\"c\nd"),
            1.0,
        );
        let text = render(&hub.snapshot());
        check(&text).expect("escaped labels must still validate");
    }
}
