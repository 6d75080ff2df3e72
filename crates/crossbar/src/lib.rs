//! # cim-crossbar — cycle-accurate memristive crossbar simulator
//!
//! A from-scratch simulator of a resistive (ReRAM) memory crossbar with
//! **MAGIC** (Memristor-Aided loGIC) in-memory computation, reproducing
//! the execution model of the paper *"Exploring Large Integer
//! Multiplication for Cryptography Targeting In-Memory Computing"*
//! (DATE 2025), Sec. II:
//!
//! * a grid of memristors stores one bit per cell (low resistance = 1,
//!   high resistance = 0);
//! * whole rows are written (`V_set`/`V_reset`) or read (sense
//!   amplifiers) in one clock cycle;
//! * MAGIC **NOR** executes *inside* the array: two (or more) input
//!   rows and one output row, all bit lines in parallel (SIMD), one
//!   clock cycle. The output cell must be initialized to logic 1 and
//!   can only be pulled towards 0 — the simulator models (and, in
//!   strict mode, polices) exactly this;
//! * the same NOR is available column-wise within rows, with optional
//!   partition isolation, as used by single-row multipliers (MultPIM);
//! * a small periphery circuit performs column shifts (read + shift +
//!   write back), which MAGIC alone cannot do;
//! * every cell write is counted for **endurance** analysis
//!   (ReRAM cells survive ~10^10–10^11 writes), and stuck-at faults
//!   can be injected to test robustness.
//!
//! Programs are sequences of [`MicroOp`]s executed by an [`Executor`],
//! which accumulates exact cycle and write statistics.
//!
//! ## Example: a MAGIC NOR across three bit lines (paper Fig. 1b)
//!
//! ```
//! use cim_crossbar::{Crossbar, Executor, MicroOp};
//!
//! # fn main() -> Result<(), cim_crossbar::CrossbarError> {
//! let mut xbar = Crossbar::new(3, 3)?;
//! let mut exec = Executor::new(&mut xbar);
//! exec.run(&[
//!     MicroOp::write_row(0, &[true, false, true]),   // a0 a1 a2
//!     MicroOp::write_row(1, &[false, false, true]),  // b0 b1 b2
//!     MicroOp::init_rows(&[2], 0..3),                // output row to 1
//!     MicroOp::nor_rows(&[0, 1], 2, 0..3),           // c = NOR(a, b)
//! ])?;
//! assert_eq!(exec.array().read_row_bits(2, 0..3)?, vec![false, true, false]);
//! assert_eq!(exec.stats().cycles, 4);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod array;
mod cell;
mod compiled;
mod endurance;
pub mod energy;
mod error;
mod exec;
mod geometry;
mod isa;
pub mod lanes;
pub mod meter;
mod packed;
pub mod parasitics;
mod plan;
mod sliced;
mod stats;
mod wear;

pub use array::{BackendKind, Crossbar};
pub use cell::{Cell, Fault};
pub use compiled::CompiledProgram;
pub use endurance::{EnduranceReport, CELL_ENDURANCE_WRITES};
pub use energy::{EnergyParams, EnergyReport};
pub use error::{Axis, CrossbarError};
pub use exec::{ExecConfig, Executor};
pub use geometry::{ColRange, Region, WordSpan};
pub use isa::{MicroOp, OpFootprint, RowBits};
pub use meter::MeterSpec;
pub use stats::{CycleStats, OpClass};
pub use wear::WearWindow;

/// Maximum batch lanes a sliced ([`BackendKind::Sliced`]) array can
/// carry: one per bit of the `u64` lane word.
pub const MAX_BATCH_LANES: usize = sliced::MAX_LANES;

/// Practical upper bound on bit-line length (cells per line) before
/// parasitic IR-drop makes sensing unreliable — the paper (Sec. II-C,
/// citing \[7\], \[20\]) flags MultPIM's 5,369-memristor rows as
/// impractical; crossbars in the literature rarely exceed 1–2 K cells
/// per line. Used by [`Crossbar::check_practical_dimensions`].
pub const PRACTICAL_LINE_LIMIT: usize = 2048;
