//! Compile counting. The stages compile the programs they run when
//! they are built (the precompute square suffix on its first use) and
//! own them; this module only counts those compiles.
//!
//! [`stats`] keeps the shape of the retired process-wide program
//! cache's `(hits, misses)` pair, which benchmarks read to assert that
//! nothing compiles in a timed region. It is kept until a benchmark
//! change drops it.

use cim_crossbar::{CompiledProgram, CrossbarError, MicroOp};
use std::sync::atomic::{AtomicU64, Ordering};

/// Program compiles in this process.
static COMPILES: AtomicU64 = AtomicU64::new(0);

/// `(0, compiles)`: `compiles` counts the programs the stages have
/// compiled in this process. A precompute addition suffix, one buffer
/// split per addition, counts once.
pub fn stats() -> (u64, u64) {
    (0, COMPILES.load(Ordering::Relaxed))
}

/// Compiles `ops` and counts the compile.
pub(crate) fn compile(ops: Vec<MicroOp>) -> Result<CompiledProgram, CrossbarError> {
    COMPILES.fetch_add(1, Ordering::Relaxed);
    CompiledProgram::new(ops)
}

/// Compiles `ops` as consecutive pieces ending before each of `ends`
/// ([`CompiledProgram::split`]) and counts one compile.
pub(crate) fn compile_split(
    ops: Vec<MicroOp>,
    ends: &[usize],
) -> Result<Vec<CompiledProgram>, CrossbarError> {
    COMPILES.fetch_add(1, Ordering::Relaxed);
    CompiledProgram::split(ops, ends)
}
