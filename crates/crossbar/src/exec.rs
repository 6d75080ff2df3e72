//! The micro-op executor: runs programs, charges cycles, latches reads.

use crate::array::Crossbar;
use crate::compiled::CompiledProgram;
use crate::error::CrossbarError;
use crate::isa::MicroOp;
use crate::stats::{CycleStats, OpClass};
use cim_trace::{Args, Tracer, TrackId};

/// Executor configuration.
#[derive(Debug, Clone, Copy)]
pub struct ExecConfig {
    /// Enforce that MAGIC output cells are initialized to logic 1
    /// before being driven. Catches microcode bugs; on by default.
    pub strict_init: bool,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig { strict_init: true }
    }
}

/// Structured, allocation-free summary of one executed micro-op.
///
/// Captures op kind, target index, and cell span as plain integers —
/// no `String` is built per op. The executor emits it to an attached
/// tracer as one complete event and two occupancy counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OpTrace {
    /// Row write from the periphery.
    Write {
        /// Target word line.
        row: usize,
        /// Bits written.
        bits: usize,
    },
    /// Row read into the periphery.
    Read {
        /// Word line sensed.
        row: usize,
        /// Cells sensed.
        cells: usize,
    },
    /// Parallel set wave (MAGIC output initialization).
    Init {
        /// First row initialized.
        first_row: usize,
        /// Rows initialized.
        rows: usize,
        /// Cells driven per row.
        width: usize,
    },
    /// Parallel reset wave.
    Reset {
        /// First row reset.
        first_row: usize,
        /// Rows reset.
        rows: usize,
        /// Cells driven per row.
        width: usize,
    },
    /// MAGIC NOR across rows (SIMD over bit lines).
    NorRows {
        /// Input word lines.
        inputs: usize,
        /// Output word line.
        out: usize,
        /// Bit lines computed in parallel.
        cells: usize,
    },
    /// MAGIC NOR along rows (SIMD over word lines).
    NorCols {
        /// Input bit lines.
        inputs: usize,
        /// Output bit line.
        out: usize,
        /// Word lines computed in parallel.
        rows: usize,
    },
    /// Partitioned MAGIC NOR (MultPIM partition parallelism).
    NorPart {
        /// Partition width in columns.
        part_width: usize,
        /// Partitions active simultaneously.
        partitions: usize,
        /// Output offset within each partition.
        out: usize,
        /// Word lines computed in parallel.
        rows: usize,
    },
    /// Periphery shift (read + shift + write back).
    Shift {
        /// Word line read.
        src: usize,
        /// Word line written.
        dst: usize,
        /// Shift distance (positive = towards higher columns).
        offset: isize,
        /// Cells in the shifted window.
        cells: usize,
    },
}

impl OpTrace {
    /// Captures the structured summary of `op` (no heap allocation).
    ///
    /// # Panics
    ///
    /// Panics on a [`MicroOp::Parallel`] bundle: a bundle is
    /// summarized per inner op, each stamped at the bundle's start.
    pub fn of(op: &MicroOp) -> Self {
        match op {
            MicroOp::WriteRow { row, bits, .. } => OpTrace::Write {
                row: *row,
                bits: bits.len(),
            },
            // Same write circuit, same trace shape: a lane-staged write
            // is indistinguishable from a solo row write of the span.
            MicroOp::WriteRowLanes {
                row, lane_words, ..
            } => OpTrace::Write {
                row: *row,
                bits: lane_words.len(),
            },
            MicroOp::ReadRow { row, cols } => OpTrace::Read {
                row: *row,
                cells: cols.len(),
            },
            MicroOp::InitRows { rows, cols } => OpTrace::Init {
                first_row: rows.first().copied().unwrap_or(0),
                rows: rows.len(),
                width: cols.len(),
            },
            MicroOp::ResetRegion(r) => OpTrace::Reset {
                first_row: r.rows.start,
                rows: r.rows.len(),
                width: r.cols.len(),
            },
            MicroOp::ResetRows { rows, cols } => OpTrace::Reset {
                first_row: rows.first().copied().unwrap_or(0),
                rows: rows.len(),
                width: cols.len(),
            },
            MicroOp::NorRows { inputs, out, cols } => OpTrace::NorRows {
                inputs: inputs.len(),
                out: *out,
                cells: cols.len(),
            },
            MicroOp::NorCols {
                in_cols,
                out_col,
                rows,
            } => OpTrace::NorCols {
                inputs: in_cols.len(),
                out: *out_col,
                rows: rows.len(),
            },
            MicroOp::NorColsPartitioned {
                rows,
                cols,
                part_width,
                out_offset,
                ..
            } => OpTrace::NorPart {
                part_width: *part_width,
                partitions: if *part_width > 0 {
                    cols.len() / part_width
                } else {
                    0
                },
                out: *out_offset,
                rows: rows.len(),
            },
            MicroOp::Shift {
                src,
                dst,
                offset,
                cols,
                ..
            } => OpTrace::Shift {
                src: *src,
                dst: *dst,
                offset: *offset,
                cells: cols.len(),
            },
            MicroOp::Parallel(_) => panic!("a co-issue bundle is summarized per inner op"),
        }
    }

    /// Cycle-accounting class of the op.
    pub fn class(&self) -> OpClass {
        match self {
            OpTrace::Write { .. } => OpClass::Write,
            OpTrace::Read { .. } => OpClass::Read,
            OpTrace::Init { .. } | OpTrace::Reset { .. } => OpClass::Init,
            OpTrace::NorRows { .. } | OpTrace::NorCols { .. } | OpTrace::NorPart { .. } => {
                OpClass::Magic
            }
            OpTrace::Shift { .. } => OpClass::Shift,
        }
    }

    /// Cells the op actively drives or computes (its SIMD occupancy).
    pub fn cells(&self) -> usize {
        match self {
            OpTrace::Write { bits, .. } => *bits,
            OpTrace::Read { cells, .. } => *cells,
            OpTrace::Init { rows, width, .. } | OpTrace::Reset { rows, width, .. } => rows * width,
            OpTrace::NorRows { inputs, cells, .. } => (inputs + 1) * cells,
            OpTrace::NorCols { inputs, rows, .. } => (inputs + 1) * rows,
            OpTrace::NorPart {
                partitions, rows, ..
            } => partitions * rows,
            OpTrace::Shift { cells, .. } => *cells,
        }
    }

    /// Partitions computing simultaneously (1 for non-partitioned ops).
    pub fn partitions(&self) -> usize {
        match self {
            OpTrace::NorPart { partitions, .. } => *partitions,
            _ => 1,
        }
    }

    /// Static event name and argument list for the trace sink.
    fn event(&self) -> (&'static str, Args) {
        match self {
            OpTrace::Write { row, bits } => (
                "write",
                Args::new()
                    .with("row", *row as i64)
                    .with("bits", *bits as i64),
            ),
            OpTrace::Read { row, cells } => (
                "read",
                Args::new()
                    .with("row", *row as i64)
                    .with("cells", *cells as i64),
            ),
            OpTrace::Init { rows, width, .. } => (
                "init",
                Args::new()
                    .with("rows", *rows as i64)
                    .with("width", *width as i64),
            ),
            OpTrace::Reset { rows, width, .. } => (
                "reset",
                Args::new()
                    .with("rows", *rows as i64)
                    .with("width", *width as i64),
            ),
            OpTrace::NorRows { inputs, out, cells } => (
                "nor",
                Args::new()
                    .with("inputs", *inputs as i64)
                    .with("out", *out as i64)
                    .with("cells", *cells as i64),
            ),
            OpTrace::NorCols { inputs, out, rows } => (
                "nor_cols",
                Args::new()
                    .with("inputs", *inputs as i64)
                    .with("out", *out as i64)
                    .with("rows", *rows as i64),
            ),
            OpTrace::NorPart {
                part_width,
                partitions,
                rows,
                ..
            } => (
                "part_nor",
                Args::new()
                    .with("part_width", *part_width as i64)
                    .with("partitions", *partitions as i64)
                    .with("rows", *rows as i64),
            ),
            OpTrace::Shift {
                src, dst, offset, ..
            } => (
                "shift",
                Args::new()
                    .with("src", *src as i64)
                    .with("dst", *dst as i64)
                    .with("offset", *offset as i64),
            ),
        }
    }
}

/// Executes [`MicroOp`] programs against a [`Crossbar`], accumulating
/// [`CycleStats`] and latching `ReadRow` results.
///
/// See the [crate-level example](crate).
#[derive(Debug)]
pub struct Executor<'a> {
    array: &'a mut Crossbar,
    config: ExecConfig,
    stats: CycleStats,
    read_buffer: Vec<bool>,
    tracer: Tracer,
    track: Option<TrackId>,
    cycle_offset: u64,
}

impl<'a> Executor<'a> {
    /// Creates an executor with the default (strict) configuration.
    pub fn new(array: &'a mut Crossbar) -> Self {
        Self::with_config(array, ExecConfig::default())
    }

    /// Creates an executor with an explicit configuration.
    pub fn with_config(array: &'a mut Crossbar, config: ExecConfig) -> Self {
        Executor {
            array,
            config,
            stats: CycleStats::default(),
            read_buffer: Vec::new(),
            tracer: Tracer::disabled(),
            track: None,
            cycle_offset: 0,
        }
    }

    /// Routes per-op events and occupancy counters to `tracer` on
    /// `track`, stamped with this executor's local cycle counter.
    ///
    /// Tracing is purely observational: cycle statistics, wear counts,
    /// and array contents are identical with or without a tracer.
    pub fn attach_tracer(&mut self, tracer: &Tracer, track: TrackId) {
        self.attach_tracer_at(tracer, track, 0);
    }

    /// Like [`attach_tracer`](Self::attach_tracer), but offsets every
    /// emitted timestamp by `cycle_offset` — used to place a stage's
    /// local cycle 0 at its global position in a pipeline trace.
    pub fn attach_tracer_at(&mut self, tracer: &Tracer, track: TrackId, cycle_offset: u64) {
        self.tracer = tracer.clone();
        self.track = Some(track);
        self.cycle_offset = cycle_offset;
    }

    /// Executes one micro-op.
    ///
    /// A [`MicroOp::Parallel`] bundle is validated against the
    /// co-issue rules ([`MicroOp::bundle_conflict`]), its inner ops
    /// are applied (sequential application is exact because inner ops
    /// are pairwise independent), and the *bundle maximum* is charged
    /// to the wall clock while every inner op still records its own
    /// per-class cycles and trace events — so energy and occupancy
    /// stay per-gate-exact even though the gates share cycles.
    ///
    /// # Errors
    ///
    /// Propagates any [`CrossbarError`] from the array; on error the
    /// op's cycles are *not* charged.
    pub fn step(&mut self, op: &MicroOp) -> Result<(), CrossbarError> {
        if let MicroOp::Parallel(inner) = op {
            return self.step_bundle(inner);
        }
        let class = self.apply_effect(op)?;
        self.observe(op, self.stats.cycles);
        self.stats.record(class, op.cycles());
        Ok(())
    }

    /// Executes a co-issue bundle: all inner ops start on the same
    /// cycle; the wall clock advances by the bundle maximum.
    fn step_bundle(&mut self, inner: &[MicroOp]) -> Result<(), CrossbarError> {
        if let Some(detail) = MicroOp::bundle_conflict(inner) {
            return Err(CrossbarError::InvalidBundle { detail });
        }
        let start = self.stats.cycles;
        let wall = inner.iter().map(MicroOp::cycles).max().unwrap_or(0);
        for op in inner {
            let class = self.apply_effect(op)?;
            self.observe(op, start);
            self.stats.record_co_issued(class, op.cycles());
        }
        self.stats.cycles += wall;
        Ok(())
    }

    /// The track per-op events go to, if a tracer is attached and
    /// enabled.
    fn traced_track(&self) -> Option<TrackId> {
        self.track.filter(|_| self.tracer.is_enabled())
    }

    /// Emits the tracer events for one applied op, stamped at `start`
    /// (the op's first cycle, 0-based).
    fn observe(&self, op: &MicroOp, start: u64) {
        if let Some(track) = self.traced_track() {
            let t = OpTrace::of(op);
            let at = self.cycle_offset + start;
            let (name, args) = t.event();
            self.tracer.complete(track, name, at, op.cycles(), args);
            self.tracer
                .counter(track, "cells_active", at, t.cells() as f64);
            self.tracer
                .counter(track, "partitions_active", at, t.partitions() as f64);
        }
    }

    /// Applies the array-state effect of one non-bundle op and returns
    /// its accounting class; charges nothing.
    fn apply_effect(&mut self, op: &MicroOp) -> Result<OpClass, CrossbarError> {
        let class = match op {
            MicroOp::WriteRow {
                row,
                col_offset,
                bits,
            } => {
                self.array
                    .write_row_words(*row, *col_offset, bits.words(), bits.len())?;
                OpClass::Write
            }
            MicroOp::WriteRowLanes {
                row,
                col_offset,
                lane_words,
            } => {
                self.array.write_row_lanes(*row, *col_offset, lane_words)?;
                OpClass::Write
            }
            MicroOp::ReadRow { row, cols } => {
                // Refill the executor-owned buffer in place: no
                // per-read heap allocation on the hot path.
                self.array
                    .read_row_into(*row, cols.clone(), &mut self.read_buffer)?;
                OpClass::Read
            }
            MicroOp::InitRows { rows, cols } => {
                for &r in rows {
                    self.array
                        .init_region(&crate::Region::new(r..r + 1, cols.clone()))?;
                }
                OpClass::Init
            }
            MicroOp::ResetRegion(region) => {
                self.array.reset_region(region)?;
                OpClass::Init
            }
            MicroOp::ResetRows { rows, cols } => {
                for &r in rows {
                    self.array
                        .reset_region(&crate::Region::new(r..r + 1, cols.clone()))?;
                }
                OpClass::Init
            }
            MicroOp::NorRows { inputs, out, cols } => {
                self.array
                    .nor_rows(inputs, *out, cols.clone(), self.config.strict_init)?;
                OpClass::Magic
            }
            MicroOp::NorCols {
                in_cols,
                out_col,
                rows,
            } => {
                self.array
                    .nor_cols(in_cols, *out_col, rows.clone(), self.config.strict_init)?;
                OpClass::Magic
            }
            MicroOp::NorColsPartitioned {
                rows,
                cols,
                part_width,
                in_offsets,
                out_offset,
            } => {
                self.array.nor_cols_partitioned(
                    rows.clone(),
                    cols.clone(),
                    *part_width,
                    in_offsets,
                    *out_offset,
                    self.config.strict_init,
                )?;
                OpClass::Magic
            }
            MicroOp::Shift {
                src,
                dst,
                cols,
                offset,
                fill,
            } => {
                self.array
                    .shift_row_to(*src, *dst, cols.clone(), *offset, *fill)?;
                OpClass::Shift
            }
            MicroOp::Parallel(_) => {
                // `step` intercepts bundles; reaching here means one
                // was nested inside another.
                return Err(CrossbarError::InvalidBundle {
                    detail: "nested bundle".to_string(),
                });
            }
        };
        Ok(class)
    }

    /// Executes a whole program in order.
    ///
    /// # Errors
    ///
    /// Stops and returns the first error; preceding ops stay applied.
    pub fn run(&mut self, program: &[MicroOp]) -> Result<(), CrossbarError> {
        for op in program {
            self.step(op)?;
        }
        Ok(())
    }

    /// Executes a [`CompiledProgram`]: the same array effects, reads
    /// and statistics as [`run`](Self::run) on its ops.
    ///
    /// An executor without an enabled tracer, on a fault-free packed
    /// or sliced array holding every cell of the program, runs the
    /// program's plan (see [`CompiledProgram::planned`]): fused row
    /// kernels, the wear footprint added once, and the statistics
    /// computed at compile time merged once. The plan never fails: it
    /// exists only for programs whose every MAGIC output is proven
    /// initialized. Every other run — an unplanned program, a scalar
    /// or faulted array, or a traced executor — is [`run`](Self::run)
    /// on the ops, which emits every per-op event and error.
    ///
    /// # Errors
    ///
    /// As [`run`](Self::run).
    pub fn run_compiled(&mut self, program: &CompiledProgram) -> Result<(), CrossbarError> {
        let planned =
            self.traced_track().is_none() && program.plan().is_some_and(|p| self.array.run_plan(p));
        if !planned {
            return self.run(program.ops());
        }
        self.stats.merge(program.stats());
        Ok(())
    }

    /// The most recent `ReadRow` result.
    pub fn read_buffer(&self) -> &[bool] {
        &self.read_buffer
    }

    /// Accumulated cycle statistics.
    pub fn stats(&self) -> &CycleStats {
        &self.stats
    }

    /// The underlying array (immutable).
    pub fn array(&self) -> &Crossbar {
        self.array
    }

    /// The underlying array (mutable — for test setup between programs).
    pub fn array_mut(&mut self) -> &mut Crossbar {
        self.array
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_trace::{EventKind, Trace};

    /// Runs `program` with a recording tracer attached and returns the
    /// collected trace.
    fn traced(rows: usize, cols: usize, program: &[MicroOp]) -> Trace {
        let tracer = Tracer::recording();
        let track = tracer.track(tracer.process("xbar"), "ops");
        let mut x = Crossbar::new(rows, cols).unwrap();
        let mut e = Executor::new(&mut x);
        e.attach_tracer(&tracer, track);
        e.run(program).unwrap();
        tracer.finish().unwrap()
    }

    /// `(start cycle, cycles, name)` of every per-op event.
    fn op_events(trace: &Trace) -> Vec<(u64, u64, &str)> {
        trace
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Complete { name, dur, .. } => Some((e.cycle, *dur, name.as_str())),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn cycles_accumulate_per_class() {
        let mut x = Crossbar::new(4, 4).unwrap();
        let mut e = Executor::new(&mut x);
        e.run(&[
            MicroOp::write_row(0, &[true, true, false, false]),
            MicroOp::write_row(1, &[true, false, true, false]),
            MicroOp::init_rows(&[2, 3], 0..4),
            MicroOp::nor_rows(&[0, 1], 2, 0..4),
            MicroOp::not_row(2, 3, 0..4),
            MicroOp::shift(3, 0..4, 1),
            MicroOp::read_row(3, 0..4),
        ])
        .unwrap();
        let s = e.stats();
        assert_eq!(s.cycles, 1 + 1 + 1 + 1 + 1 + 2 + 1);
        assert_eq!(s.ops, 7);
        assert_eq!(s.write_cycles, 2);
        assert_eq!(s.init_cycles, 1);
        assert_eq!(s.magic_cycles, 2);
        assert_eq!(s.shift_cycles, 2);
        assert_eq!(s.read_cycles, 1);
        assert_eq!(s.write_ops, 2);
        assert_eq!(s.init_ops, 1);
        assert_eq!(s.magic_ops, 2);
        assert_eq!(s.shift_ops, 1);
        assert_eq!(s.read_ops, 1);
        // NOR(row0,row1) = [0,0,0,1]; NOT → [1,1,1,0]; shift +1 → [0,1,1,1]
        assert_eq!(e.read_buffer(), &[false, true, true, true]);
    }

    #[test]
    fn strict_mode_flags_uninitialized_magic_output() {
        let mut x = Crossbar::new(3, 2).unwrap();
        let mut e = Executor::new(&mut x);
        e.step(&MicroOp::write_row(0, &[false, false])).unwrap();
        let err = e.step(&MicroOp::nor_rows(&[0], 1, 0..2)).unwrap_err();
        assert!(matches!(err, CrossbarError::OutputNotInitialized { .. }));
        // Failed op must not charge cycles.
        assert_eq!(e.stats().cycles, 1);
    }

    #[test]
    fn step_reports_magic_in_out_overlap_with_axis() {
        use crate::error::Axis;
        let mut x = Crossbar::new(4, 8).unwrap();
        let mut e = Executor::new(&mut x);
        // Row-oriented NOR naming its own output as an input.
        let err = e.step(&MicroOp::nor_rows(&[0, 2], 2, 0..4)).unwrap_err();
        assert_eq!(
            err,
            CrossbarError::MagicInOutOverlap {
                axis: Axis::Row,
                index: 2
            }
        );
        // Column-oriented NOR, same mistake on the other axis.
        let err = e.step(&MicroOp::nor_cols(&[1, 3], 3, 0..4)).unwrap_err();
        assert_eq!(
            err,
            CrossbarError::MagicInOutOverlap {
                axis: Axis::Col,
                index: 3
            }
        );
        // Partitioned NOR: the offending index is the partition offset.
        let err = e
            .step(&MicroOp::nor_cols_partitioned(0..1, 0..8, 4, &[0, 1], 1))
            .unwrap_err();
        assert_eq!(
            err,
            CrossbarError::MagicInOutOverlap {
                axis: Axis::Col,
                index: 1
            }
        );
        // Failed ops charge no cycles.
        assert_eq!(e.stats().cycles, 0);
    }

    #[test]
    fn trace_records_ops_with_cycle_stamps() {
        let trace = traced(
            3,
            4,
            &[
                MicroOp::write_row(0, &[true; 4]),
                MicroOp::shift(0, 0..4, 1),
                MicroOp::read_row(0, 0..4),
            ],
        );
        assert_eq!(
            op_events(&trace),
            [(0, 1, "write"), (1, 2, "shift"), (3, 1, "read")]
        );
        let EventKind::Complete { args, .. } = &trace.events[0].kind else {
            panic!("the first event is the write's span");
        };
        assert_eq!((args.get("row"), args.get("bits")), (Some(0), Some(4)));
        let write = OpTrace::of(&MicroOp::write_row(0, &[true; 4]));
        assert_eq!(write, OpTrace::Write { row: 0, bits: 4 });
        assert_eq!(write.class(), OpClass::Write);
    }

    #[test]
    fn trace_is_empty_when_disabled() {
        let tracer = Tracer::disabled();
        let mut x = Crossbar::new(2, 2).unwrap();
        let mut e = Executor::new(&mut x);
        e.attach_tracer(&tracer, TrackId(0));
        e.step(&MicroOp::write_row(0, &[true, false])).unwrap();
        assert!(
            e.traced_track().is_none(),
            "a disabled tracer observes nothing"
        );
        assert!(tracer.finish().is_none());
    }

    #[test]
    fn op_trace_exposes_cells_and_partitions() {
        let t = OpTrace::of(&MicroOp::nor_rows(&[0, 1], 2, 0..8));
        assert_eq!(t.cells(), 24); // 2 inputs + 1 output, 8 bit lines
        assert_eq!(t.partitions(), 1);
        let t = OpTrace::of(&MicroOp::nor_cols_partitioned(0..1, 0..8, 4, &[0, 1], 2));
        assert_eq!(t.partitions(), 2);
        assert_eq!(t.cells(), 2);
        let t = OpTrace::of(&MicroOp::init_rows(&[1, 3], 2..5));
        assert_eq!(
            t,
            OpTrace::Init {
                first_row: 1,
                rows: 2,
                width: 3
            }
        );
        assert_eq!(t.cells(), 6);
    }

    #[test]
    fn attached_tracer_sees_ops_and_counters() {
        let tracer = Tracer::recording();
        let track = tracer.track(tracer.process("xbar"), "ops");
        let mut x = Crossbar::new(4, 4).unwrap();
        let mut e = Executor::new(&mut x);
        e.attach_tracer_at(&tracer, track, 100);
        e.run(&[
            MicroOp::write_row(0, &[true; 4]),
            MicroOp::shift(0, 0..4, 1),
        ])
        .unwrap();
        let trace = tracer.finish().unwrap();
        // 2 ops × (1 complete + 2 counters).
        assert_eq!(trace.events.len(), 6);
        // Timestamps carry the attachment offset.
        assert_eq!(trace.events[0].cycle, 100);
        assert_eq!(trace.events[3].cycle, 101);
        assert_eq!(trace.last_cycle(), 103); // shift: starts 101, 2 cc
    }

    #[test]
    fn tracing_does_not_change_stats_or_cells() {
        let program = [
            MicroOp::write_row(0, &[true, true, false, false]),
            MicroOp::write_row(1, &[true, false, true, false]),
            MicroOp::init_rows(&[2], 0..4),
            MicroOp::nor_rows(&[0, 1], 2, 0..4),
            MicroOp::shift(2, 0..4, 1),
            MicroOp::read_row(2, 0..4),
        ];
        let mut plain = Crossbar::new(4, 4).unwrap();
        let mut e1 = Executor::new(&mut plain);
        e1.run(&program).unwrap();
        let stats1 = *e1.stats();
        let buf1 = e1.read_buffer().to_vec();

        let tracer = Tracer::recording();
        let track = tracer.track(tracer.process("xbar"), "ops");
        let mut traced = Crossbar::new(4, 4).unwrap();
        let mut e2 = Executor::new(&mut traced);
        e2.attach_tracer(&tracer, track);
        e2.run(&program).unwrap();
        assert_eq!(*e2.stats(), stats1);
        assert_eq!(e2.read_buffer(), &buf1[..]);
        assert!(!tracer.finish().unwrap().events.is_empty());
    }

    #[test]
    fn lenient_mode_applies_physical_semantics() {
        let mut x = Crossbar::new(3, 1).unwrap();
        let mut e = Executor::with_config(&mut x, ExecConfig { strict_init: false });
        e.run(&[
            MicroOp::write_row(0, &[false]),
            MicroOp::nor_rows(&[0], 1, 0..1), // output never initialized
        ])
        .unwrap();
        // NOR result would be 1, but the cell cannot be pulled up.
        assert!(!e.array().read_cell(1, 0).unwrap());
    }

    #[test]
    fn run_stops_at_first_error() {
        let mut x = Crossbar::new(2, 2).unwrap();
        let mut e = Executor::new(&mut x);
        let r = e.run(&[
            MicroOp::write_row(0, &[true, true]),
            MicroOp::write_row(9, &[true]),
            MicroOp::write_row(1, &[true, true]),
        ]);
        assert!(r.is_err());
        assert_eq!(e.stats().ops, 1);
        // Third op never ran.
        assert_eq!(
            e.array().read_row_bits(1, 0..2).unwrap(),
            vec![false, false]
        );
    }

    #[test]
    fn bundle_charges_max_once_but_counts_every_inner_op() {
        let mut x = Crossbar::new(6, 4).unwrap();
        let mut e = Executor::new(&mut x);
        e.run(&[
            MicroOp::write_row(0, &[true, true, false, false]),
            MicroOp::write_row(1, &[true, false, true, false]),
            // Two init waves co-issued: 1 wall cycle, 2 init ops.
            MicroOp::parallel(vec![
                MicroOp::init_rows(&[2], 0..4),
                MicroOp::init_rows(&[3], 0..4),
            ]),
            // Two NORs sharing input rows (reads may overlap) but with
            // disjoint outputs: 1 wall cycle, 2 magic ops.
            MicroOp::parallel(vec![
                MicroOp::nor_rows(&[0, 1], 2, 0..4),
                MicroOp::not_row(0, 3, 0..4),
            ]),
            MicroOp::read_row(2, 0..4),
        ])
        .unwrap();
        let s = e.stats();
        assert_eq!(s.cycles, 2 + 1 + 1 + 1, "each bundle costs its max");
        assert_eq!(s.ops, 7, "inner ops count individually");
        assert_eq!(s.init_ops, 2);
        assert_eq!(s.init_cycles, 2, "per-class cycles count both waves");
        assert_eq!(s.magic_ops, 2);
        assert_eq!(s.magic_cycles, 2);
        // NOR(row0,row1) = [0,0,0,1].
        assert_eq!(e.read_buffer(), &[false, false, false, true]);
        // NOT(row0) = [0,0,1,1].
        assert_eq!(
            e.array().read_row_bits(3, 0..4).unwrap(),
            vec![false, false, true, true]
        );
    }

    #[test]
    fn bundle_rejects_conflicts_and_serial_ops_without_charging() {
        let mut x = Crossbar::new(4, 4).unwrap();
        let mut e = Executor::new(&mut x);
        e.step(&MicroOp::write_row(0, &[true; 4])).unwrap();
        // Two waves writing the same cells.
        let err = e
            .step(&MicroOp::parallel(vec![
                MicroOp::init_rows(&[2], 0..4),
                MicroOp::reset_rows(&[2], 0..4),
            ]))
            .unwrap_err();
        assert!(matches!(err, CrossbarError::InvalidBundle { .. }));
        // Serial periphery op inside a bundle.
        let err = e
            .step(&MicroOp::parallel(vec![
                MicroOp::init_rows(&[2], 0..4),
                MicroOp::write_row(3, &[true; 4]),
            ]))
            .unwrap_err();
        assert!(matches!(err, CrossbarError::InvalidBundle { .. }));
        // Nested bundle.
        let err = e
            .step(&MicroOp::parallel(vec![MicroOp::parallel(vec![
                MicroOp::init_rows(&[2], 0..4),
            ])]))
            .unwrap_err();
        assert!(matches!(err, CrossbarError::InvalidBundle { .. }));
        assert_eq!(e.stats().cycles, 1, "rejected bundles charge nothing");
        assert_eq!(e.stats().ops, 1);
    }

    #[test]
    fn bundle_inner_ops_trace_at_the_same_start_cycle() {
        let trace = traced(
            6,
            4,
            &[
                MicroOp::write_row(0, &[true; 4]),
                MicroOp::parallel(vec![
                    MicroOp::init_rows(&[2], 0..4),
                    MicroOp::init_rows(&[3], 0..4),
                ]),
                MicroOp::read_row(2, 0..4),
            ],
        );
        let starts: Vec<u64> = op_events(&trace).iter().map(|e| e.0).collect();
        // Bundles trace per inner op; co-issued ops share the start
        // stamp, and the wall advances by the bundle max only.
        assert_eq!(starts, [0, 1, 1, 2]);
    }

    #[test]
    fn init_rows_initializes_each_listed_row() {
        let mut x = Crossbar::new(4, 3).unwrap();
        let mut e = Executor::new(&mut x);
        e.step(&MicroOp::init_rows(&[1, 3], 0..3)).unwrap();
        assert_eq!(e.array().read_row_bits(1, 0..3).unwrap(), vec![true; 3]);
        assert_eq!(e.array().read_row_bits(3, 0..3).unwrap(), vec![true; 3]);
        assert_eq!(e.array().read_row_bits(0, 0..3).unwrap(), vec![false; 3]);
        assert_eq!(e.stats().cycles, 1, "one parallel set wave");
    }
}
