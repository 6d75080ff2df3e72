//! Fault injection: stuck-at faults model worn-out memristors. This
//! example shows (a) that the simulator's gold-model verification
//! catches silent data corruption from a single stuck cell inside an
//! in-memory adder, and (b) which cells an addition is actually
//! sensitive to.
//!
//! ```text
//! cargo run --example fault_injection
//! ```

use cim_bigint::Uint;
use cim_crossbar::{Crossbar, Executor, Fault};
use cim_logic::kogge_stone::{AddOp, KoggeStoneAdder};

fn add_with_fault(
    width: usize,
    a: &Uint,
    b: &Uint,
    fault_at: Option<(usize, usize, Fault)>,
) -> Result<Uint, cim_crossbar::CrossbarError> {
    let adder = KoggeStoneAdder::new(width);
    let mut array = Crossbar::new(adder.required_rows(), adder.required_cols())?;
    array.write_row(0, 0, &a.to_bits(width + 1))?;
    array.write_row(1, 0, &b.to_bits(width + 1))?;
    if let Some((r, c, f)) = fault_at {
        array.inject_fault(r, c, Some(f))?;
    }
    // Strict init checking must be off: a stuck-at-0 output cell looks
    // "uninitialized" to the checker — exactly the physical situation.
    let mut exec =
        Executor::with_config(&mut array, cim_crossbar::ExecConfig { strict_init: false });
    exec.run(&adder.program(AddOp::Add))?;
    let bits = exec.array().read_row_bits(2, 0..width + 1)?;
    Ok(Uint::from_bits(&bits))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let width = 16;
    let a = Uint::from_u64(0xBEEF);
    let b = Uint::from_u64(0x1234);
    let expect = a.add(&b);

    println!("fault-free 16-bit addition: 0x{a:x} + 0x{b:x} = 0x{expect:x}");
    let clean = add_with_fault(width, &a, &b, None)?;
    assert_eq!(clean, expect);
    println!("  simulator result: 0x{clean:x} ✓\n");

    // Sweep a stuck-at-0 fault across every scratch-region cell and
    // count how many corrupt the sum.
    let adder = KoggeStoneAdder::new(width);
    let mut corrupted = 0usize;
    let mut silent = 0usize;
    let mut total = 0usize;
    for row in 3..adder.required_rows() {
        for col in 0..adder.required_cols() {
            total += 1;
            let got = add_with_fault(width, &a, &b, Some((row, col, Fault::StuckAt0)))?;
            if got == expect {
                silent += 1;
            } else {
                corrupted += 1;
            }
        }
    }
    println!("stuck-at-0 sweep over all {total} scratch cells:");
    println!("  {corrupted} faults corrupt the sum (gold-model check catches them)");
    println!("  {silent} faults are masked by this operand pair\n");

    // One concrete corruption, reported the way the top-level
    // multiplier would: verification failure, not silent wrong data.
    let got = add_with_fault(width, &a, &b, Some((5, 3, Fault::StuckAt1)))?;
    if got != expect {
        println!("example: stuck-at-1 at scratch cell (5,3) yields 0x{got:x} ≠ 0x{expect:x}");
        println!("→ the KaratsubaCimMultiplier surfaces this as MultiplyError::VerificationFailed");
    } else {
        println!("example fault at (5,3) was masked for these operands");
    }

    // Recovery: triple modular redundancy with an in-memory majority
    // vote masks any single-lane fault set at ~3x area.
    println!("\nTMR recovery (cim_logic::tmr):");
    let tmr = cim_logic::tmr::TmrAdder::new(width);
    let faults: Vec<(usize, usize, Fault)> = (0..8)
        .map(|i| (15 + 3 + i, i % (width + 1), Fault::StuckAt0)) // lane 1 scratch
        .collect();
    let (sum, stats) = tmr.add(&a, &b, &faults)?;
    assert_eq!(sum, expect);
    println!(
        "  8 stuck cells injected into lane 1 → voted sum still 0x{sum:x} ✓ ({} cc, {}x area)",
        stats.cycles,
        tmr.area_cells() / ((width as u64 + 1) * 15)
    );
    Ok(())
}
