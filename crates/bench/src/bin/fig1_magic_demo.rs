//! Reproduces **Fig. 1**: the memristive-crossbar background —
//! (a) writing/reading a 3×3 grid, (b) a MAGIC NOR across all bit
//! lines in parallel — as a state-transition walk-through on the
//! simulator.
//!
//! ```text
//! cargo run -p cim-bench --bin fig1_magic_demo
//! ```

use cim_crossbar::{Crossbar, Executor, MicroOp, Region};

fn show(x: &Crossbar, caption: &str) {
    println!("{caption}");
    for line in x.render_region(&Region::new(0..3, 0..3)).lines() {
        println!("    {line}");
    }
    println!();
}

fn main() {
    println!("FIG. 1 — MEMRISTIVE CROSSBAR: WRITE, READ AND MAGIC NOR\n");

    let mut x = Crossbar::new(3, 3).expect("3x3 grid");
    show(
        &x,
        "(a) fresh 3×3 crossbar — all memristors in high resistance (0):",
    );

    let mut exec = Executor::new(&mut x);
    exec.step(&MicroOp::write_row(0, &[true, false, true]))
        .expect("write a");
    exec.step(&MicroOp::write_row(1, &[false, false, true]))
        .expect("write b");
    show(
        exec.array(),
        "word-line driver selects row, write circuit applies V_set/V_reset:\n  row 0 ← a = [a0 a1 a2] = 1 0 1\n  row 1 ← b = [b0 b1 b2] = 0 0 1",
    );

    println!("reading row 0 with V_read (sense amplifiers):");
    exec.step(&MicroOp::read_row(0, 0..3)).expect("read");
    println!("    sensed: {:?}\n", exec.read_buffer());

    println!("(b) MAGIC NOR: output row initialized to 1, then the word-line");
    println!("driver applies V_0 to the input rows and GND to the output row;");
    println!("all three bit lines compute c_i = NOR(a_i, b_i) simultaneously:\n");
    exec.step(&MicroOp::init_rows(&[2], 0..3)).expect("init");
    show(
        exec.array(),
        "after output-row initialization (row 2 = 1 1 1):",
    );
    exec.step(&MicroOp::nor_rows(&[0, 1], 2, 0..3))
        .expect("nor");
    show(
        exec.array(),
        "after one MAGIC NOR cycle (row 2 = NOR(row 0, row 1) = 0 1 0):",
    );

    println!(
        "total cycles: {} (2 writes + 1 read + 1 init + 1 NOR)",
        exec.stats().cycles
    );
    println!(
        "SIMD width: all {} bit lines in parallel — one cycle per NOR",
        3
    );
}
