//! SIMD gate emulation from MAGIC NOR/NOT (paper Sec. II-B).
//!
//! NOR is functionally complete; every block here emits a micro-op
//! sequence computing one boolean function of whole rows, bit lines in
//! parallel. Each builder documents its exact cycle cost (including the
//! output/scratch initialization wave) — these costs are what the
//! paper's stage latency formulas are built from.
//!
//! Conventions: every emitted sequence starts with a single
//! [`MicroOp::InitRows`] wave covering all rows it will drive, so the
//! sequences compose safely under the executor's strict-init checking.

use cim_crossbar::{ColRange, MicroOp};

/// `out = NOT(a)` — 2 cc (init + NOR with one input).
pub fn not(a: usize, out: usize, cols: ColRange) -> Vec<MicroOp> {
    vec![
        MicroOp::init_rows(&[out], cols.clone()),
        MicroOp::not_row(a, out, cols),
    ]
}

/// `out = NOR(a, b)` — 2 cc.
pub fn nor(a: usize, b: usize, out: usize, cols: ColRange) -> Vec<MicroOp> {
    vec![
        MicroOp::init_rows(&[out], cols.clone()),
        MicroOp::nor_rows(&[a, b], out, cols),
    ]
}

/// `out = OR(a, b)` via NOT(NOR) — 3 cc. Uses `scratch` for the NOR.
pub fn or(a: usize, b: usize, out: usize, scratch: usize, cols: ColRange) -> Vec<MicroOp> {
    vec![
        MicroOp::init_rows(&[out, scratch], cols.clone()),
        MicroOp::nor_rows(&[a, b], scratch, cols.clone()),
        MicroOp::not_row(scratch, out, cols),
    ]
}

/// `out = AND(a, b)` via NOR(NOT, NOT) — 4 cc. Uses two scratch rows.
pub fn and(a: usize, b: usize, out: usize, scratch: [usize; 2], cols: ColRange) -> Vec<MicroOp> {
    vec![
        MicroOp::init_rows(&[out, scratch[0], scratch[1]], cols.clone()),
        MicroOp::not_row(a, scratch[0], cols.clone()),
        MicroOp::not_row(b, scratch[1], cols.clone()),
        MicroOp::nor_rows(&[scratch[0], scratch[1]], out, cols),
    ]
}

/// `out = XOR(a, b)` = NOR(NOR(a,b), AND(a,b)) — 6 cc.
/// Uses four scratch rows.
pub fn xor(a: usize, b: usize, out: usize, scratch: [usize; 4], cols: ColRange) -> Vec<MicroOp> {
    let [s0, s1, s2, s3] = scratch;
    vec![
        MicroOp::init_rows(&[out, s0, s1, s2, s3], cols.clone()),
        MicroOp::nor_rows(&[a, b], s0, cols.clone()), // ¬a∧¬b
        MicroOp::not_row(a, s1, cols.clone()),
        MicroOp::not_row(b, s2, cols.clone()),
        MicroOp::nor_rows(&[s1, s2], s3, cols.clone()), // a∧b
        MicroOp::nor_rows(&[s0, s3], out, cols),
    ]
}

/// `out = XNOR(a, b)` = NOR(AND(¬a,b), AND(a,¬b)) — 6 cc.
/// Uses four scratch rows.
pub fn xnor(a: usize, b: usize, out: usize, scratch: [usize; 4], cols: ColRange) -> Vec<MicroOp> {
    let [s0, s1, s2, s3] = scratch;
    vec![
        MicroOp::init_rows(&[out, s0, s1, s2, s3], cols.clone()),
        MicroOp::not_row(a, s0, cols.clone()),         // ¬a
        MicroOp::not_row(b, s1, cols.clone()),         // ¬b
        MicroOp::nor_rows(&[s0, b], s2, cols.clone()), // a∧¬b ... NOR(¬a, b) = a ∧ ¬b
        MicroOp::nor_rows(&[a, s1], s3, cols.clone()), // ¬a∧b
        MicroOp::nor_rows(&[s2, s3], out, cols),       // ¬(…∨…) = XNOR
    ]
}

/// Bit-sliced full adder: `sum = a⊕b⊕cin`, `cout = maj(a,b,cin)`,
/// all columns in parallel — 13 cc. Uses ten scratch rows.
///
/// Decomposition: `x = a⊕b`, `sum = x⊕cin`,
/// `cout = (a∧b) ∨ (x∧cin)`. This is the textbook NOR construction;
/// the Kogge-Stone adder avoids chaining it for the carry path, but it
/// is the building block of the ripple-carry ablation baseline.
pub fn full_adder(
    a: usize,
    b: usize,
    cin: usize,
    sum: usize,
    cout: usize,
    scratch: [usize; 10],
    cols: ColRange,
) -> Vec<MicroOp> {
    let [s0, s1, s2, s3, s4, s5, s6, s7, s8, s9] = scratch;
    let c = cols;
    vec![
        MicroOp::init_rows(
            &[sum, cout, s0, s1, s2, s3, s4, s5, s6, s7, s8, s9],
            c.clone(),
        ),
        // x = a ⊕ b  → s4 ; a∧b → s3
        MicroOp::nor_rows(&[a, b], s0, c.clone()), // ¬a∧¬b
        MicroOp::not_row(a, s1, c.clone()),        // ¬a
        MicroOp::not_row(b, s2, c.clone()),        // ¬b
        MicroOp::nor_rows(&[s1, s2], s3, c.clone()), // a∧b
        MicroOp::nor_rows(&[s0, s3], s4, c.clone()), // x = a⊕b
        // sum = x ⊕ cin ; x∧cin → s8
        MicroOp::nor_rows(&[s4, cin], s5, c.clone()), // ¬x∧¬cin
        MicroOp::not_row(s4, s6, c.clone()),          // ¬x
        MicroOp::not_row(cin, s7, c.clone()),         // ¬cin
        MicroOp::nor_rows(&[s6, s7], s8, c.clone()),  // x∧cin
        MicroOp::nor_rows(&[s5, s8], sum, c.clone()), // sum = x⊕cin
        // cout = (a∧b) ∨ (x∧cin)
        MicroOp::nor_rows(&[s3, s8], s9, c.clone()),
        MicroOp::not_row(s9, cout, c),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_crossbar::{Crossbar, Executor};

    /// Runs a gate program with `a`, `b` preloaded in rows 0 and 1 and
    /// returns the bits of `out_row`.
    fn run2(a: &[bool], b: &[bool], program: Vec<MicroOp>, out_row: usize) -> Vec<bool> {
        let w = a.len();
        let mut x = Crossbar::new(16, w).unwrap();
        let mut e = Executor::new(&mut x);
        e.run(&[MicroOp::write_row(0, a), MicroOp::write_row(1, b)])
            .unwrap();
        e.run(&program).unwrap();
        e.array().read_row_bits(out_row, 0..w).unwrap()
    }

    const A: [bool; 4] = [false, false, true, true];
    const B: [bool; 4] = [false, true, false, true];

    #[test]
    fn not_gate() {
        let got = run2(&A, &B, not(0, 2, 0..4), 2);
        assert_eq!(got, vec![true, true, false, false]);
    }

    #[test]
    fn nor_gate() {
        let got = run2(&A, &B, nor(0, 1, 2, 0..4), 2);
        assert_eq!(got, vec![true, false, false, false]);
    }

    #[test]
    fn or_gate() {
        let got = run2(&A, &B, or(0, 1, 2, 3, 0..4), 2);
        assert_eq!(got, vec![false, true, true, true]);
    }

    #[test]
    fn and_gate() {
        let got = run2(&A, &B, and(0, 1, 2, [3, 4], 0..4), 2);
        assert_eq!(got, vec![false, false, false, true]);
    }

    #[test]
    fn xor_gate() {
        let got = run2(&A, &B, xor(0, 1, 2, [3, 4, 5, 6], 0..4), 2);
        assert_eq!(got, vec![false, true, true, false]);
    }

    #[test]
    fn xnor_gate() {
        let got = run2(&A, &B, xnor(0, 1, 2, [3, 4, 5, 6], 0..4), 2);
        assert_eq!(got, vec![true, false, false, true]);
    }

    #[test]
    fn gate_cycle_costs() {
        assert_eq!(cost(not(0, 2, 0..4)), 2);
        assert_eq!(cost(nor(0, 1, 2, 0..4)), 2);
        assert_eq!(cost(or(0, 1, 2, 3, 0..4)), 3);
        assert_eq!(cost(and(0, 1, 2, [3, 4], 0..4)), 4);
        assert_eq!(cost(xor(0, 1, 2, [3, 4, 5, 6], 0..4)), 6);
        assert_eq!(cost(xnor(0, 1, 2, [3, 4, 5, 6], 0..4)), 6);
        assert_eq!(
            cost(full_adder(
                0,
                1,
                2,
                3,
                4,
                [5, 6, 7, 8, 9, 10, 11, 12, 13, 14],
                0..4
            )),
            13
        );
    }

    fn cost(ops: Vec<MicroOp>) -> u64 {
        ops.iter().map(MicroOp::cycles).sum()
    }

    #[test]
    fn full_adder_truth_table() {
        for a in [false, true] {
            for b in [false, true] {
                for cin in [false, true] {
                    let mut x = Crossbar::new(16, 1).unwrap();
                    let mut e = Executor::new(&mut x);
                    e.run(&[
                        MicroOp::write_row(0, &[a]),
                        MicroOp::write_row(1, &[b]),
                        MicroOp::write_row(2, &[cin]),
                    ])
                    .unwrap();
                    e.run(&full_adder(
                        0,
                        1,
                        2,
                        3,
                        4,
                        [5, 6, 7, 8, 9, 10, 11, 12, 13, 14],
                        0..1,
                    ))
                    .unwrap();
                    let sum = e.array().read_cell(3, 0).unwrap();
                    let cout = e.array().read_cell(4, 0).unwrap();
                    let total = a as u8 + b as u8 + cin as u8;
                    assert_eq!(sum, total & 1 == 1, "sum({a},{b},{cin})");
                    assert_eq!(cout, total >= 2, "cout({a},{b},{cin})");
                }
            }
        }
    }
}
