//! Reproduces **Fig. 6**: the 4-bit Kogge-Stone adder schematic —
//! p/g computation (8 cc), two prefix levels (11 cc each) and the sum
//! phase (9 cc) — executed cycle-by-cycle on the simulator with the
//! micro-op trace printed per phase.
//!
//! ```text
//! cargo run -p cim-bench --bin fig6_kogge_stone [x] [y]
//! ```

use cim_bigint::Uint;
use cim_crossbar::{Crossbar, Executor, MicroOp};
use cim_logic::kogge_stone::{AddOp, KoggeStoneAdder};

fn op_name(op: &MicroOp) -> String {
    match op {
        MicroOp::WriteRow { row, .. } => format!("write row {row}"),
        MicroOp::WriteRowLanes { row, .. } => format!("write row {row} (lane words)"),
        MicroOp::ReadRow { row, .. } => format!("read row {row}"),
        MicroOp::InitRows { rows, .. } => format!("init rows {rows:?} → 1"),
        MicroOp::ResetRegion(r) => format!("reset rows {:?}", r.rows),
        MicroOp::ResetRows { rows, .. } => format!("reset rows {rows:?}"),
        MicroOp::NorRows { inputs, out, .. } => format!("NOR rows {inputs:?} → row {out}"),
        MicroOp::NorCols {
            in_cols, out_col, ..
        } => {
            format!("NOR cols {in_cols:?} → col {out_col}")
        }
        MicroOp::NorColsPartitioned {
            part_width,
            in_offsets,
            out_offset,
            ..
        } => format!("partitioned NOR (width {part_width}) {in_offsets:?} → +{out_offset}"),
        MicroOp::Shift {
            src, dst, offset, ..
        } => {
            format!("periphery shift row {src} by {offset:+} → row {dst}")
        }
        MicroOp::Parallel(ops) => {
            let inner: Vec<String> = ops.iter().map(op_name).collect();
            format!("co-issue [{}]", inner.join(" ∥ "))
        }
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let x: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(11);
    let y: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(6);
    assert!(x < 16 && y < 16, "operands must be 4-bit");

    println!("FIG. 6 — 4-BIT KOGGE-STONE ADDER, CYCLE BY CYCLE\n");
    println!("x = {x} = 0b{x:04b},  y = {y} = 0b{y:04b}\n");

    let adder = KoggeStoneAdder::new(4);
    println!(
        "latency formula: 8 + 11·⌈log2 4⌉ + 9 = {} cc,  {} columns, {} scratch rows\n",
        adder.latency(),
        adder.required_cols(),
        cim_logic::kogge_stone::SCRATCH_ROWS
    );

    let mut array = Crossbar::new(adder.required_rows(), adder.required_cols()).expect("array");
    array
        .write_row(0, 0, &Uint::from_u64(x).to_bits(5))
        .expect("load x");
    array
        .write_row(1, 0, &Uint::from_u64(y).to_bits(5))
        .expect("load y");
    let mut exec = Executor::new(&mut array);

    let program = adder.program(AddOp::Add);
    let phases = [
        ("p/g computation (blue in Fig. 6)", 8usize),
        ("prefix level 1, distance 1 (red)", 9),
        ("prefix level 2, distance 2 (red)", 9),
        ("sum computation + reset (yellow)", 8),
    ];
    let mut idx = 0;
    let mut cycle = 0u64;
    for (label, ops) in phases {
        println!("── {label}");
        for _ in 0..ops {
            let op = &program[idx];
            let cost = op.cycles();
            println!("  cc {:>2}–{:<2} {}", cycle + 1, cycle + cost, op_name(op));
            exec.step(op).expect("step");
            cycle += cost;
            idx += 1;
        }
    }
    assert_eq!(idx, program.len(), "all ops accounted for");

    let bits = exec.array().read_row_bits(2, 0..5).expect("sum");
    let sum = Uint::from_bits(&bits);
    println!("\nsum row (5 bits incl. carry-out): {sum} = 0b{sum:05b}");
    assert_eq!(sum, Uint::from_u64(x + y));
    println!(
        "expected {x} + {y} = {} ✓   total cycles: {}",
        x + y,
        exec.stats().cycles
    );
}
