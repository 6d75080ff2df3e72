//! Empty and reversed column ranges on every backend.
//!
//! A span whose end does not exceed its start covers no column. Every
//! region-taking `Crossbar` call treats it that way on all three
//! backends: it returns `Ok`, senses nothing and leaves every cell's
//! value, wear and fault as they were. A span still errors when its
//! end lies past the array.

use cim_crossbar::{BackendKind, ColRange, Crossbar, CrossbarError, Region};

const ROWS: usize = 4;
const COLS: usize = 130;

/// One array per backend, each with the same non-trivial contents.
fn arrays() -> Vec<(&'static str, Crossbar)> {
    let mut out = vec![
        (
            "scalar",
            Crossbar::with_backend(ROWS, COLS, BackendKind::Scalar).unwrap(),
        ),
        (
            "packed",
            Crossbar::with_backend(ROWS, COLS, BackendKind::Packed).unwrap(),
        ),
        ("sliced", Crossbar::new_sliced(ROWS, COLS, 3).unwrap()),
    ];
    for (_, x) in &mut out {
        let bits: Vec<bool> = (0..COLS).map(|c| c % 3 == 1).collect();
        x.write_row(0, 0, &bits).unwrap();
        x.init_region(&Region::new(1..3, 10..90)).unwrap();
    }
    out
}

/// The span `start..end`, reversed when `end < start`.
fn span(start: usize, end: usize) -> ColRange {
    start..end
}

/// What a call sensed, or its error.
type Outcome = Result<Vec<u64>, CrossbarError>;

fn none(r: Result<(), CrossbarError>) -> Outcome {
    r.map(|()| Vec::new())
}

fn bits(r: Result<Vec<bool>, CrossbarError>) -> Outcome {
    r.map(|b| b.into_iter().map(u64::from).collect())
}

/// Every region-taking call, applied to `cols`.
#[allow(clippy::type_complexity)]
fn calls() -> Vec<(
    &'static str,
    Box<dyn Fn(&mut Crossbar, ColRange) -> Outcome>,
)> {
    vec![
        (
            "read_row_bits",
            Box::new(|x, c| bits(x.read_row_bits(0, c))),
        ),
        (
            "read_row_into",
            Box::new(|x, c| {
                let mut out = vec![true];
                bits(x.read_row_into(0, c, &mut out).map(|()| out))
            }),
        ),
        (
            "read_row_words",
            Box::new(|x, c| {
                let mut out = vec![7];
                x.read_row_words(0, c, &mut out).map(|()| out)
            }),
        ),
        (
            "read_row_lane_words",
            Box::new(|x, c| {
                let mut out = vec![7];
                x.read_row_lane_words(0, c, &mut out).map(|()| out)
            }),
        ),
        (
            "read_row_lane_bits",
            Box::new(|x, c| bits(x.read_row_lane_bits(0, 0, c))),
        ),
        (
            "row_region_fault_free",
            Box::new(|x, c| x.row_region_fault_free(0, c).map(|f| vec![u64::from(f)])),
        ),
        (
            "init_region",
            Box::new(|x, c| none(x.init_region(&Region::new(0..ROWS, c)))),
        ),
        (
            "reset_region",
            Box::new(|x, c| none(x.reset_region(&Region::new(0..ROWS, c)))),
        ),
        (
            "wear_region",
            Box::new(|x, c| none(x.wear_region(&Region::new(0..ROWS, c), 3))),
        ),
        (
            "nor_rows",
            Box::new(|x, c| none(x.nor_rows(&[0, 1], 2, c, false))),
        ),
        (
            "nor_rows strict",
            Box::new(|x, c| none(x.nor_rows(&[0, 1], 3, c, true))),
        ),
        (
            "nor_cols_partitioned",
            Box::new(|x, c| none(x.nor_cols_partitioned(0..ROWS, c, 2, &[0], 1, false))),
        ),
        (
            "shift_row_to",
            Box::new(|x, c| none(x.shift_row_to(0, 3, c, 1, true))),
        ),
        ("shift_row", Box::new(|x, c| none(x.shift_row(0, c, -2)))),
    ]
}

#[test]
fn empty_and_reversed_spans_are_no_ops_on_every_backend() {
    // Reversed within a word, across words, from past the array, and
    // empty at both array edges.
    let spans = [
        span(5, 5),
        span(5, 3),
        span(70, 65),
        span(129, 64),
        span(200, 3),
        span(0, 0),
        span(COLS, COLS),
    ];
    for (name, call) in calls() {
        for span in spans.clone() {
            for (backend, mut x) in arrays() {
                let before = x.clone();
                let got = call(&mut x, span.clone());
                let want = if name == "row_region_fault_free" {
                    vec![1]
                } else {
                    Vec::new()
                };
                assert_eq!(got, Ok(want), "{name} {span:?} on {backend}");
                assert!(x == before, "{name} {span:?} changed the {backend} array");
            }
        }
    }
}

#[test]
fn reversed_spans_past_the_array_still_error() {
    for (name, call) in calls() {
        let outcomes: Vec<Outcome> = arrays()
            .into_iter()
            .map(|(_, mut x)| call(&mut x, span(200, COLS + 1)))
            .collect();
        assert!(outcomes[0].is_err(), "{name}");
        assert!(
            outcomes.windows(2).all(|w| w[0] == w[1]),
            "{name}: {outcomes:?}"
        );
    }
}
