//! Programs checked, accounted and lowered once, run many times.

use crate::error::CrossbarError;
use crate::exec::OpTrace;
use crate::isa::MicroOp;
use crate::plan::Plan;
use crate::stats::CycleStats;
use std::ops::Range;
use std::sync::Arc;

/// A micro-op program whose co-issue bundles were checked, whose
/// cycle statistics were accumulated, and which was lowered into a
/// row-kernel plan, once at construction.
///
/// The statistics are exactly what [`crate::Executor::run`] would add
/// for the whole program: the accounting depends on the ops alone,
/// never on cell values. The plan (when the builder can prove one, see
/// [`planned`](Self::planned)) holds the program's value effects as
/// fused row kernels and its wear as one per-row footprint.
/// [`crate::Executor::run_compiled`] runs the plan and merges the
/// statistics in one step, so a program executed on every
/// multiplication pays for its bundle checks, per-op accounting and
/// init waves only when it is compiled.
///
/// Cloning shares the ops and the plan. Consecutive programs cut from
/// one buffer by [`CompiledProgram::split`] share that buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledProgram {
    buffer: Arc<[MicroOp]>,
    range: Range<usize>,
    stats: CycleStats,
    plan: Option<Arc<Plan>>,
}

impl CompiledProgram {
    /// Checks every [`MicroOp::Parallel`] bundle of `ops` against the
    /// co-issue rules, accumulates the program's statistics and builds
    /// its plan.
    ///
    /// # Errors
    ///
    /// [`CrossbarError::InvalidBundle`] for the first illegal bundle,
    /// with the detail [`crate::Executor::run`] reports when it
    /// reaches that bundle.
    pub fn new(ops: impl Into<Arc<[MicroOp]>>) -> Result<Self, CrossbarError> {
        let buffer = ops.into();
        let len = buffer.len();
        Self::piece(buffer, 0..len)
    }

    /// Compiles consecutive pieces of one buffer as programs sharing
    /// it: piece `i` ends before op `ends[i]` and starts where piece
    /// `i - 1` ends (piece 0 at op 0).
    ///
    /// # Errors
    ///
    /// As [`CompiledProgram::new`], for the first illegal bundle.
    ///
    /// # Panics
    ///
    /// Panics if `ends` decreases or exceeds the buffer.
    pub fn split(
        ops: impl Into<Arc<[MicroOp]>>,
        ends: &[usize],
    ) -> Result<Vec<Self>, CrossbarError> {
        let buffer = ops.into();
        let mut start = 0;
        ends.iter()
            .map(|&end| {
                let piece = Self::piece(Arc::clone(&buffer), start..end);
                start = end;
                piece
            })
            .collect()
    }

    fn piece(buffer: Arc<[MicroOp]>, range: Range<usize>) -> Result<Self, CrossbarError> {
        let mut stats = CycleStats::default();
        for op in &buffer[range.clone()] {
            if let MicroOp::Parallel(inner) = op {
                if let Some(detail) = MicroOp::bundle_conflict(inner) {
                    return Err(CrossbarError::InvalidBundle { detail });
                }
            }
            charge(&mut stats, op);
        }
        let plan = Plan::build(&buffer[range.clone()]).map(Arc::new);
        Ok(CompiledProgram {
            buffer,
            range,
            stats,
            plan,
        })
    }

    /// The program's ops.
    pub fn ops(&self) -> &[MicroOp] {
        &self.buffer[self.range.clone()]
    }

    /// The buffer the program's ops live in: exactly
    /// [`ops`](Self::ops) unless the program is a piece of a
    /// [`split`](Self::split).
    pub fn buffer(&self) -> &Arc<[MicroOp]> {
        &self.buffer
    }

    /// The statistics one execution of the whole program adds.
    pub fn stats(&self) -> &CycleStats {
        &self.stats
    }

    /// Whether the program was lowered into a row-kernel plan, which
    /// [`crate::Executor::run_compiled`] runs on fault-free packed and
    /// sliced arrays. The builder declines programs it cannot prove
    /// exact: a NOR whose output is not exactly the span of a pending
    /// init wave, one with more than two inputs or an input equal to
    /// its output, an empty span or row range, or any row read, row
    /// write or column-oriented NOR.
    pub fn planned(&self) -> bool {
        self.plan.is_some()
    }

    pub(crate) fn plan(&self) -> Option<&Plan> {
        self.plan.as_deref()
    }
}

/// Adds what [`crate::Executor::step`] charges for a successful `op`:
/// a serial op records its class and cycles; a bundle records every
/// inner op as co-issued and advances the wall clock by its maximum.
fn charge(stats: &mut CycleStats, op: &MicroOp) {
    match op {
        MicroOp::Parallel(inner) => {
            for op in inner {
                stats.record_co_issued(OpTrace::of(op).class(), op.cycles());
            }
            stats.cycles += inner.iter().map(MicroOp::cycles).max().unwrap_or(0);
        }
        _ => stats.record(OpTrace::of(op).class(), op.cycles()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Crossbar, Executor};

    #[test]
    fn compiled_stats_equal_what_run_accumulates() {
        let program = vec![
            MicroOp::write_row(0, &[true, true, false, false]),
            MicroOp::write_row(1, &[true, false, true, false]),
            MicroOp::parallel(vec![
                MicroOp::init_rows(&[2], 0..4),
                MicroOp::init_rows(&[3], 0..4),
            ]),
            MicroOp::parallel(vec![
                MicroOp::nor_rows(&[0, 1], 2, 0..4),
                MicroOp::not_row(0, 3, 0..4),
            ]),
            MicroOp::shift(3, 0..4, 1),
            MicroOp::read_row(2, 0..4),
        ];
        let mut x = Crossbar::new(4, 4).unwrap();
        let mut e = Executor::new(&mut x);
        e.run(&program).unwrap();
        let compiled = CompiledProgram::new(program.clone()).unwrap();
        assert_eq!(compiled.stats(), e.stats());
        // Pieces of a split account for their own ops only.
        let pieces = CompiledProgram::split(program, &[2, 4, 6]).unwrap();
        let mut total = CycleStats::default();
        for piece in &pieces {
            assert_eq!(piece.ops().len(), 2);
            assert!(Arc::ptr_eq(piece.buffer(), pieces[0].buffer()));
            total.merge(piece.stats());
        }
        assert_eq!(&total, e.stats());
    }

    #[test]
    fn illegal_bundles_are_rejected_at_construction() {
        let err = CompiledProgram::new(vec![MicroOp::parallel(vec![
            MicroOp::init_rows(&[2], 0..4),
            MicroOp::reset_rows(&[2], 0..4),
        ])])
        .unwrap_err();
        assert!(matches!(err, CrossbarError::InvalidBundle { .. }));
    }
}
