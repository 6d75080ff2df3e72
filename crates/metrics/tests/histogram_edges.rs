//! Histogram edge cases: nearest-rank percentiles at exact bucket
//! boundaries, empty-vs-populated merges in both directions, and a
//! high-label-cardinality round trip through the JSON snapshot and
//! the Prometheus exposition.

use cim_metrics::{
    bucket_bounds, bucket_index, Histogram, Labels, MetricsHub, LINEAR_CUTOFF, SUBBUCKETS,
};
use cim_trace::json::{parse, JsonValue};

#[test]
fn percentile_at_linear_cutoff_boundary() {
    // 31 is the last exact unit bucket; 32 opens the first log-linear
    // octave. Both are their own bucket's lower bound, so nearest-rank
    // percentiles on either side of the cutoff stay exact here.
    let mut h = Histogram::new();
    h.record(LINEAR_CUTOFF - 1);
    h.record(LINEAR_CUTOFF);
    assert_eq!(h.percentile(0.0), LINEAR_CUTOFF - 1);
    assert_eq!(h.percentile(100.0), LINEAR_CUTOFF);
    // rank(50) = round(0.5 * 1) = 1 -> the cutoff sample.
    assert_eq!(h.p50(), LINEAR_CUTOFF);
    // The two values land in adjacent buckets with no gap between.
    assert_eq!(
        bucket_index(LINEAR_CUTOFF),
        bucket_index(LINEAR_CUTOFF - 1) + 1
    );
    let (lo, _) = bucket_bounds(bucket_index(LINEAR_CUTOFF));
    assert_eq!(lo, LINEAR_CUTOFF);
}

#[test]
fn percentile_at_octave_and_subbucket_boundaries() {
    // Exact bucket lower bounds: recording a bucket's lower bound and
    // querying a percentile that ranks onto it must return a value in
    // that same bucket (the representative is the upper bound clamped
    // to max, here the sample itself when it is the global max).
    for boundary in [
        64u64,                         // octave start
        64 + (64 / SUBBUCKETS as u64), // second sub-bucket of the octave
        1 << 20,                       // a deep octave start
    ] {
        let mut h = Histogram::new();
        h.record(boundary);
        assert_eq!(h.percentile(50.0), boundary, "boundary {boundary}");
        let (lo, hi) = bucket_bounds(bucket_index(boundary));
        assert_eq!(lo, boundary, "{boundary} is a bucket lower bound");
        assert!(hi >= boundary);
    }
    // With samples at both edges of one bucket the representative is
    // the bucket's upper bound for every interior rank.
    let (lo, hi) = bucket_bounds(bucket_index(100));
    let mut h = Histogram::new();
    h.record(lo);
    h.record(hi);
    assert_eq!(h.p50(), hi);
    assert_eq!(
        h.percentile(0.0),
        hi,
        "single shared bucket: rank 0 still maps to it"
    );
    assert_eq!(h.min(), lo);
    assert_eq!(h.max(), hi);
}

#[test]
fn nearest_rank_rounds_half_up_at_even_counts() {
    // Four samples: rank(50) = round(1.5) = 2 (banker-free rounding),
    // so the nearest-rank median of [1,2,3,4] is 3, not 2.
    let mut h = Histogram::new();
    for v in [1u64, 2, 3, 4] {
        h.record(v);
    }
    assert_eq!(h.p50(), 3);
    // rank(25) = round(0.75) = 1 and rank(75) = round(2.25) = 2.
    assert_eq!(h.percentile(25.0), 2);
    assert_eq!(h.percentile(75.0), 3);
    assert_eq!(h.percentile(84.0), 4, "rank rounds up past 2.5");
}

#[test]
fn empty_merges_are_identities_both_directions() {
    let mut populated = Histogram::new();
    for v in [5u64, 500, 50_000] {
        populated.record(v);
    }
    let reference = populated.clone();

    // populated.merge(empty): nothing changes, including min/max.
    populated.merge(&Histogram::new());
    assert_eq!(populated, reference);
    assert_eq!(populated.min(), 5);
    assert_eq!(populated.max(), 50_000);

    // empty.merge(populated): adopts the other's min/max rather than
    // mixing in the empty histogram's 0 defaults.
    let mut empty = Histogram::new();
    empty.merge(&reference);
    assert_eq!(empty, reference);
    assert_eq!(empty.min(), 5);
    assert_eq!(empty.p50(), reference.p50());

    // empty.merge(empty) stays genuinely empty.
    let mut a = Histogram::new();
    a.merge(&Histogram::new());
    assert_eq!(a, Histogram::new());
    assert_eq!(a.count(), 0);
    assert_eq!(a.percentile(50.0), 0);
}

#[test]
fn high_label_cardinality_round_trips_through_snapshot_json() {
    // 64 label sets on one family, each with a distinct histogram.
    let hub = MetricsHub::recording();
    const SERIES: u64 = 64;
    for farm in 0..8u64 {
        for tile in 0..8u64 {
            let labels = Labels::new().with("farm", farm).with("tile", tile);
            hub.observe(
                "cim_test_latency",
                "per-tile latency",
                &labels,
                farm * 100 + tile + 1,
            );
            hub.observe(
                "cim_test_latency",
                "per-tile latency",
                &labels,
                10_000 + farm,
            );
        }
    }
    let snap = hub.snapshot();
    let family = snap.family("cim_test_latency").expect("family present");
    assert_eq!(family.samples.len(), SERIES as usize);

    // JSON side: parse the snapshot back and find every series with
    // its exact count/sum.
    let json = snap.to_json();
    let root = parse(&json).expect("snapshot JSON parses");
    let families = root.get("families").and_then(JsonValue::as_array).unwrap();
    let fam = families
        .iter()
        .find(|f| f.get("name").and_then(JsonValue::as_str) == Some("cim_test_latency"))
        .expect("family in JSON");
    let samples = fam.get("samples").and_then(JsonValue::as_array).unwrap();
    assert_eq!(samples.len(), SERIES as usize);
    for s in samples {
        let labels = s.get("labels").expect("labels object");
        let get = |key: &str| -> u64 {
            labels
                .get(key)
                .and_then(JsonValue::as_str)
                .expect("label value")
                .parse()
                .expect("numeric label")
        };
        let (farm, tile) = (get("farm"), get("tile"));
        let hist = s.get("histogram").expect("histogram sample");
        assert_eq!(hist.get("count").and_then(JsonValue::as_f64), Some(2.0));
        let expected_sum = (farm * 100 + tile + 1 + 10_000 + farm) as f64;
        assert_eq!(
            hist.get("sum").and_then(JsonValue::as_f64),
            Some(expected_sum)
        );
    }

    // Prometheus side: the exposition stays well-formed at this
    // cardinality and carries one summary block per series.
    let prom = cim_metrics::prometheus::render(&snap);
    cim_metrics::prometheus::check(&prom).expect("valid exposition");
    assert_eq!(
        prom.matches("cim_test_latency_count{").count(),
        SERIES as usize
    );
}
