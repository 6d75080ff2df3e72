//! Sliced backend kernels against the scalar backend.
//!
//! A sliced array with `L` lanes must behave like `L` scalar arrays
//! running in lockstep, lane `l` of every cell matching cell for cell
//! the scalar array `l`. The sliced NOR checks strict init and pulls
//! down in one chunked pass, and the sliced shift moves whole cell
//! words; both take per-cell paths once a fault is injected. Here both
//! sides take the same ops over spans that start or end at word and
//! chunk edges (columns 0, 1, 15, 16, 17, 63, 64, 65 and the last),
//! empty and one-cell spans, strict-init NORs that fail at the first
//! column, inside a chunk and in the last chunk, and shifts in place
//! and across rows by ±1, ±(span − 1) and at least the span, with
//! fill 0 and 1. After every op the results, sensed reads, raw values,
//! wear and faults of every lane of every cell are compared, without
//! faults and with random stuck-at faults.

use cim_crossbar::{Crossbar, CrossbarError, EnduranceReport, Fault, Region};
use std::ops::Range;

/// A splitmix64 stream.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// One sliced array and one scalar array per lane, driven in lockstep.
struct Lockstep {
    sliced: Crossbar,
    scalar: Vec<Crossbar>,
}

impl Lockstep {
    fn new(rows: usize, cols: usize, lanes: usize) -> Self {
        Lockstep {
            sliced: Crossbar::new_sliced(rows, cols, lanes).unwrap(),
            scalar: (0..lanes)
                .map(|_| Crossbar::new_scalar(rows, cols).unwrap())
                .collect(),
        }
    }

    fn lanes(&self) -> usize {
        self.scalar.len()
    }

    /// Applies a lane-oblivious op to every array; every result must
    /// equal the sliced one.
    fn apply<T: PartialEq + std::fmt::Debug>(
        &mut self,
        what: &str,
        op: impl Fn(&mut Crossbar) -> T,
    ) -> T {
        let got = op(&mut self.sliced);
        for (lane, x) in self.scalar.iter_mut().enumerate() {
            assert_eq!(got, op(x), "{what}: lane {lane} result");
        }
        self.assert_same(what);
        got
    }

    /// Writes `bits[l]` into lane `l` of `row` at `col`.
    fn write_lanes(&mut self, row: usize, col: usize, bits: &[Vec<bool>]) {
        let limbs: Vec<Vec<u64>> = bits
            .iter()
            .map(|b| {
                let mut words = vec![0u64; b.len().div_ceil(64)];
                for (j, _) in b.iter().enumerate().filter(|(_, &v)| v) {
                    words[j / 64] |= 1 << (j % 64);
                }
                words
            })
            .collect();
        let refs: Vec<&[u64]> = limbs.iter().map(Vec::as_slice).collect();
        let words = cim_crossbar::lanes::transpose_lanes(&refs, bits[0].len());
        self.sliced.write_row_lanes(row, col, &words).unwrap();
        for (x, b) in self.scalar.iter_mut().zip(bits) {
            x.write_row(row, col, b).unwrap();
        }
        self.assert_same("write lanes");
    }

    /// A strict-init NOR: the sliced op fails at the first column where
    /// *any* lane's output is uninitialized, after driving the columns
    /// before it in every lane. Each scalar lane is modelled by finding
    /// its own failing column on a copy and then driving the common
    /// prefix. Returns the sliced result.
    fn strict_nor(
        &mut self,
        what: &str,
        inputs: &[usize],
        out: usize,
        span: Range<usize>,
    ) -> Option<usize> {
        let fail = self
            .scalar
            .iter()
            .filter_map(
                |x| match x.clone().nor_rows(inputs, out, span.clone(), true) {
                    Err(CrossbarError::OutputNotInitialized { col, .. }) => Some(col),
                    other => {
                        other.unwrap();
                        None
                    }
                },
            )
            .min();
        let got = match self.sliced.nor_rows(inputs, out, span.clone(), true) {
            Ok(()) => None,
            Err(CrossbarError::OutputNotInitialized { row, col }) => {
                assert_eq!(row, out, "{what}");
                Some(col)
            }
            Err(e) => panic!("{what}: {e}"),
        };
        assert_eq!(got, fail, "{what}: failing column");
        for x in &mut self.scalar {
            x.nor_rows(inputs, out, span.start..fail.unwrap_or(span.end), true)
                .unwrap();
        }
        self.assert_same(what);
        got
    }

    fn assert_same(&self, what: &str) {
        let x = &self.sliced;
        let per_lane = EnduranceReport::per_lane(x);
        let last = self.lanes() - 1;
        assert_eq!(
            per_lane[0],
            EnduranceReport::from_lane(x, 0),
            "{what}: lane 0 endurance"
        );
        assert_eq!(
            per_lane[last],
            EnduranceReport::from_lane(x, last),
            "{what}: lane {last} endurance"
        );
        for (lane, s) in self.scalar.iter().enumerate() {
            for r in 0..x.rows() {
                assert_eq!(
                    x.read_row_lane_bits(lane, r, 0..x.cols()).unwrap(),
                    s.read_row_bits(r, 0..x.cols()).unwrap(),
                    "{what}: lane {lane} row {r} sensed bits"
                );
                for c in 0..x.cols() {
                    assert_eq!(
                        x.lane_cell(lane, r, c).unwrap(),
                        s.cell(r, c).unwrap(),
                        "{what}: lane {lane} cell ({r}, {c})"
                    );
                }
            }
            assert_eq!(
                per_lane[lane],
                EnduranceReport::from_array(s),
                "{what}: lane {lane} endurance"
            );
        }
    }
}

/// Spans over `cols` columns whose starts and ends are word and chunk
/// edges, plus empty and one-cell spans.
fn edge_spans(cols: usize) -> Vec<Range<usize>> {
    let edges: Vec<usize> = [0, 1, 15, 16, 17, 63, 64, 65, cols - 1, cols]
        .into_iter()
        .filter(|&c| c <= cols)
        .collect();
    let mut spans = Vec::new();
    for &s in &edges {
        for &e in &edges {
            if s <= e {
                spans.push(s..e);
            }
        }
    }
    spans.extend([3..3, 70..71, 0..1]);
    spans
}

/// A lockstep set with random contents in every lane and, if
/// `faulty`, about 5% of the cells of every lane stuck at 0 or 1.
fn loaded(rows: usize, cols: usize, lanes: usize, seed: u64, faulty: bool) -> (Lockstep, Rng) {
    let mut rng = Rng(seed);
    let mut set = Lockstep::new(rows, cols, lanes);
    for row in 0..rows {
        let bits: Vec<Vec<bool>> = (0..lanes)
            .map(|_| (0..cols).map(|_| rng.below(2) == 1).collect())
            .collect();
        set.write_lanes(row, 0, &bits);
    }
    if faulty {
        for lane in 0..lanes {
            for row in 0..rows {
                for col in 0..cols {
                    let fault = match rng.below(40) {
                        0 => Some(Fault::StuckAt0),
                        1 => Some(Fault::StuckAt1),
                        _ => continue,
                    };
                    set.sliced.inject_fault_lane(lane, row, col, fault).unwrap();
                    set.scalar[lane].inject_fault(row, col, fault).unwrap();
                }
            }
        }
        set.assert_same("inject");
    }
    (set, rng)
}

/// Runs NORs (plain and strict, one and two inputs) and every shift
/// flavour over each span.
fn drive_spans(set: &mut Lockstep, rng: &mut Rng, spans: &[Range<usize>], tag: &str) {
    let rows = set.sliced.rows();
    for span in spans {
        let (a, b) = (rng.below(rows), rng.below(rows));
        let out = (0..rows).find(|&r| r != a && r != b).unwrap();
        let w = span.len() as isize;
        let tag = |op: &str| format!("{tag} span {span:?}: {op}");
        let init = Region::new(out..out + 1, span.clone());
        set.apply(&tag("init"), |x| x.init_region(&init)).unwrap();
        set.apply(&tag("nor"), |x| {
            x.nor_rows(&[a, b], out, span.clone(), false)
        })
        .unwrap();
        set.apply(&tag("init"), |x| x.init_region(&init)).unwrap();
        set.strict_nor(&tag("strict nor"), &[a, b], out, span.clone());
        set.strict_nor(&tag("strict not"), &[a], out, span.clone());
        set.apply(&tag("not"), |x| x.nor_rows(&[b], out, span.clone(), false))
            .unwrap();
        for offset in [0, 1, -1, w - 1, 1 - w, w, -w, w + 3, -w - 5] {
            for (src, dst) in [(a, a), (a, out)] {
                for fill in [false, true] {
                    set.apply(
                        &tag(&format!("shift {src}→{dst} by {offset} fill {fill}")),
                        |x| x.shift_row_to(src, dst, span.clone(), offset, fill),
                    )
                    .unwrap();
                }
            }
        }
    }
}

/// Plants one uninitialized output cell at each of `holes` (in every
/// lane, or only in `lane`) and checks that the strict NOR fails
/// exactly there after driving the columns before it.
fn strict_holes(set: &mut Lockstep, span: Range<usize>, holes: &[usize], lane: Option<usize>) {
    let out = 2;
    for &hole in holes {
        let what = format!("span {span:?} hole {hole} lane {lane:?}");
        let init = Region::new(out..out + 1, span.clone());
        set.apply(&what, |x| x.init_region(&init)).unwrap();
        match lane {
            None => set
                .apply(&what, |x| x.write_row(out, hole, &[false]))
                .unwrap(),
            Some(l) => {
                let bits: Vec<Vec<bool>> = (0..set.lanes()).map(|k| vec![k != l]).collect();
                set.write_lanes(out, hole, &bits);
            }
        }
        let fail = set.strict_nor(&what, &[0, 1], out, span.clone());
        assert_eq!(fail, Some(hole), "{what}");
    }
}

#[test]
fn one_lane_kernels_match_scalar() {
    for (cols, seed, faulty) in [
        (131, 1, false),
        (128, 2, false),
        (131, 3, true),
        (80, 4, true),
    ] {
        let (mut set, mut rng) = loaded(5, cols, 1, seed, faulty);
        let spans = edge_spans(cols);
        drive_spans(
            &mut set,
            &mut rng,
            &spans,
            &format!("cols {cols} faulty {faulty}"),
        );
    }
}

#[test]
fn strict_failures_land_on_the_first_uninitialized_column() {
    let cols = 131;
    for lanes in [1, 64] {
        let (mut set, _) = loaded(4, cols, lanes, 11, false);
        // First column, inside the first chunk, on a chunk edge, inside
        // a later chunk, in the last (partial) chunk and on the last
        // column.
        let holes = [0, 5, 15, 16, 40, 127, 129, 130];
        strict_holes(&mut set, 0..cols, &holes, None);
        strict_holes(&mut set, 3..cols, &holes[1..], None);
        if lanes > 1 {
            strict_holes(&mut set, 0..cols, &[0, 37, 130], Some(lanes - 1));
        }
    }
}

#[test]
fn many_lanes_match_per_lane_scalar_arrays() {
    let cols = 70;
    let spans = [0..cols, 0..1, 1..17, 15..65, 64..cols, 5..5, cols - 1..cols];
    for (lanes, seed, faulty) in [(64, 21, false), (64, 22, true), (37, 23, true)] {
        let (mut set, mut rng) = loaded(4, cols, lanes, seed, faulty);
        drive_spans(
            &mut set,
            &mut rng,
            &spans,
            &format!("{lanes} lanes faulty {faulty}"),
        );
    }
}
