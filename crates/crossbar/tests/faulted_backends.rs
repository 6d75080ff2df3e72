//! Packed backend against the scalar one on arrays with stuck-at
//! faults.
//!
//! The packed kernels run word-slice loops with head and tail masks
//! and see faults through a view chosen once per op. Here both
//! backends take the same random stuck-at-0/1 faults and the same ops
//! over spans that start or end at word edges (columns 0, 1, 63, 64,
//! 65 and the last), single-word and empty spans, shifts in place and
//! by at least the span width, and strict-init NORs that fail inside
//! their span. Every op must return the same result and every sensed
//! read the same bits; the raw value, wear and fault of every cell are
//! compared after each op.

use cim_crossbar::{BackendKind, Cell, Crossbar, Fault, Region};

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

    fn bits(&mut self, len: usize) -> Vec<bool> {
        (0..len).map(|_| self.below(2) == 1).collect()
    }
}

/// The packed and scalar arrays, driven in lockstep.
struct Pair {
    packed: Crossbar,
    scalar: Crossbar,
}

impl Pair {
    fn new(rows: usize, cols: usize) -> Self {
        Pair {
            packed: Crossbar::with_backend(rows, cols, BackendKind::Packed).unwrap(),
            scalar: Crossbar::with_backend(rows, cols, BackendKind::Scalar).unwrap(),
        }
    }

    /// Applies `op` to both arrays; the results must be equal.
    fn apply<T: PartialEq + std::fmt::Debug>(
        &mut self,
        what: &str,
        op: impl Fn(&mut Crossbar) -> T,
    ) -> T {
        let p = op(&mut self.packed);
        let s = op(&mut self.scalar);
        assert_eq!(p, s, "{what}: packed vs scalar result");
        self.assert_same_cells(what);
        p
    }

    fn cells(x: &Crossbar) -> Vec<Cell> {
        (0..x.rows())
            .flat_map(|r| (0..x.cols()).map(move |c| x.cell(r, c).unwrap()))
            .collect()
    }

    fn assert_same_cells(&self, what: &str) {
        let (p, s) = (Self::cells(&self.packed), Self::cells(&self.scalar));
        if let Some(i) = (0..p.len()).find(|&i| p[i] != s[i]) {
            let cols = self.packed.cols();
            panic!(
                "{what}: cell ({}, {}) packed {:?} vs scalar {:?}",
                i / cols,
                i % cols,
                p[i],
                s[i]
            );
        }
    }
}

/// Spans over `cols` columns with every start and end drawn from the
/// word-edge columns, including empty and single-word spans.
fn edge_spans(cols: usize) -> Vec<std::ops::Range<usize>> {
    let edges: Vec<usize> = [0, 1, 63, 64, 65, cols - 1, cols]
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
    spans.extend([3..10, 64..128.min(cols), 70..71]);
    spans
}

/// Both arrays with the same random contents and, if `faulty`, a few
/// percent of cells stuck at 0 or 1.
fn faulted_pair(rows: usize, cols: usize, seed: u64, faulty: bool) -> (Pair, Rng) {
    let mut rng = Rng(seed);
    let mut pair = Pair::new(rows, cols);
    for row in 0..rows {
        let bits = rng.bits(cols);
        pair.apply("load", |x| x.write_row(row, 0, &bits)).unwrap();
    }
    for row in (0..rows).filter(|_| faulty) {
        for col in 0..cols {
            let fault = match rng.below(40) {
                0 => Some(Fault::StuckAt0),
                1 => Some(Fault::StuckAt1),
                _ => continue,
            };
            pair.apply("inject", |x| x.inject_fault(row, col, fault))
                .unwrap();
        }
    }
    (pair, rng)
}

#[test]
fn row_kernels_agree_on_faulted_arrays() {
    for (cols, seed, faulty) in [
        (131, 1, true),
        (128, 2, true),
        (200, 3, true),
        (131, 4, false),
    ] {
        let rows = 5;
        let (mut pair, mut rng) = faulted_pair(rows, cols, seed, faulty);
        for span in edge_spans(cols) {
            let (a, b) = (rng.below(rows), rng.below(rows));
            let out = (0..rows).find(|&r| r != a && r != b).unwrap();
            let region = Region::new(a..a + 1, span.clone());
            let w = span.len();
            let tag = |op: &str| format!("cols {cols} seed {seed} span {span:?}: {op}");

            pair.apply(&tag("init"), |x| {
                x.init_region(&Region::new(out..out + 1, span.clone()))
            })
            .unwrap();
            pair.apply(&tag("reset"), |x| x.reset_region(&region))
                .unwrap();
            for strict in [false, true] {
                // Strict mode may fail on a fault or a reset cell; both
                // backends must fail alike.
                let _ = pair.apply(&tag("nor"), |x| {
                    x.nor_rows(&[a, b], out, span.clone(), strict)
                });
            }
            pair.apply(&tag("read bits"), |x| x.read_row_bits(out, span.clone()))
                .unwrap();
            pair.apply(&tag("read words"), |x| {
                let mut words = Vec::new();
                x.read_row_words(b, span.clone(), &mut words)
                    .map(|()| words)
            })
            .unwrap();
            let bits = rng.bits(w);
            pair.apply(&tag("write bits"), |x| x.write_row(a, span.start, &bits))
                .unwrap();
            let words: Vec<u64> = (0..w.div_ceil(64)).map(|_| rng.next_u64()).collect();
            pair.apply(&tag("write words"), |x| {
                x.write_row_words(b, span.start, &words, w)
            })
            .unwrap();
            pair.apply(&tag("store words"), |x| {
                x.store_row_words(out, span.start, &words, w)
            })
            .unwrap();
            for offset in [0, 1, -1, 63, -64, 65, w as isize, -(w as isize) - 3] {
                for (src, dst) in [(a, a), (a, out)] {
                    let fill = rng.below(2) == 1;
                    pair.apply(&tag(&format!("shift {offset} fill {fill}")), |x| {
                        x.shift_row_to(src, dst, span.clone(), offset, fill)
                    })
                    .unwrap();
                }
            }
        }
    }
}

#[test]
fn strict_init_failures_inside_spans_agree() {
    let (rows, cols) = (4, 131);
    let (mut pair, mut rng) = faulted_pair(rows, cols, 7, true);
    for span in edge_spans(cols).into_iter().filter(|s| s.len() > 2) {
        // Clear the output span of faults, initialize it, then plant
        // one 0 strictly inside: by a write, or by a stuck-at-0 cell.
        for col in span.clone() {
            pair.apply("clear fault", |x| x.inject_fault(2, col, None))
                .unwrap();
        }
        pair.apply("init", |x| x.init_region(&Region::new(2..3, span.clone())))
            .unwrap();
        let hole = span.start + 1 + rng.below(span.len() - 2);
        if rng.below(2) == 0 {
            pair.apply("hole", |x| x.write_row(2, hole, &[false]))
                .unwrap();
        } else {
            pair.apply("stuck hole", |x| {
                x.inject_fault(2, hole, Some(Fault::StuckAt0))
            })
            .unwrap();
        }
        let err = pair.apply("strict nor", |x| x.nor_rows(&[0, 1], 2, span.clone(), true));
        assert!(
            matches!(err, Err(cim_crossbar::CrossbarError::OutputNotInitialized { row: 2, col }) if col == hole),
            "span {span:?} hole {hole}: {err:?}"
        );
        pair.apply("clear hole", |x| x.inject_fault(2, hole, None))
            .unwrap();
    }
}
