//! # cim-check
//!
//! Static verification and differential testing for MAGIC micro-op
//! programs.
//!
//! Compiled CIM programs are easy to get subtly wrong: a MAGIC NOR
//! whose output cell was never driven to logic 1 silently computes
//! garbage in lenient mode, a forgotten operand write reads stale
//! cells, and a row index off by one walks out of the array only at
//! run time. This crate catches all of these **before execution**:
//!
//! * [`verify`] walks a program over an abstract per-cell lattice
//!   (uninitialized / one / defined) and reports every rule violation
//!   — read-before-init, missing MAGIC output init, in/out line
//!   overlap, out-of-bounds rows/columns, and inconsistent
//!   partitioned-NOR geometry;
//! * a successful [`VerifyReport`] carries the program's exact cycle
//!   count and per-cell [`WritePressure`], flagging endurance
//!   hotspots statically;
//! * [`GoldMatrix`] is a second, independent implementation of the
//!   ISA with ideal gate semantics, used as the reference side of
//!   differential tests against the cycle-accurate executor;
//! * [`ProgramGen`] emits random *verified* programs for fuzzing the
//!   executor/gold pair.
//!
//! Program builders in `cim-logic` and `karatsuba-cim` call
//! [`debug_assert_verified`] at construction, so every generated
//! program is statically checked in debug and test builds at zero
//! release-mode cost.
//!
//! ```
//! use cim_check::{verify, VerifyConfig};
//! use cim_crossbar::MicroOp;
//!
//! let program = vec![
//!     MicroOp::write_row(0, &[true, false]),
//!     MicroOp::write_row(1, &[false, true]),
//!     MicroOp::init_rows(&[2], 0..2),
//!     MicroOp::nor_rows(&[0, 1], 2, 0..2),
//!     MicroOp::read_row(2, 0..2),
//! ];
//! let report = verify(&program, &VerifyConfig::new(3, 2)).unwrap();
//! assert_eq!(report.cycles, 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gen;
mod gold;
mod pressure;
mod verify;

pub use gen::{BatchGen, LaneBatch, ProgramGen};
pub use gold::GoldMatrix;
pub use pressure::{Hotspot, WritePressure};
pub use verify::{verify, VerifyConfig, VerifyError, VerifyReport, Violation, MAX_VIOLATIONS};

use cim_crossbar::MicroOp;

/// Verifies a freshly-built program in debug and test builds,
/// panicking with the full violation list if it fails. Release builds
/// skip the check entirely, so program builders can call this
/// unconditionally.
///
/// `context` names the builder (e.g. `"KoggeStoneAdder::program"`) so
/// a failure points straight at the generator that produced the bad
/// program.
///
/// # Panics
///
/// Panics (debug/test builds only) if `program` fails [`verify`].
pub fn debug_assert_verified(program: &[MicroOp], config: &VerifyConfig, context: &str) {
    if cfg!(debug_assertions) {
        if let Err(err) = verify(program, config) {
            panic!("{context}: generated program failed static verification:\n{err}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn debug_assert_accepts_legal_programs() {
        let program = vec![MicroOp::write_row(0, &[true])];
        debug_assert_verified(&program, &VerifyConfig::new(1, 1), "test");
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "read before initialization")]
    fn debug_assert_panics_with_context() {
        let program = vec![MicroOp::read_row(0, 0..1)];
        debug_assert_verified(&program, &VerifyConfig::new(1, 1), "test-builder");
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn debug_assert_is_a_no_op_in_release() {
        let program = vec![MicroOp::read_row(0, 0..1)];
        assert!(verify(&program, &VerifyConfig::new(1, 1)).is_err());
        debug_assert_verified(&program, &VerifyConfig::new(1, 1), "test-builder");
    }
}
