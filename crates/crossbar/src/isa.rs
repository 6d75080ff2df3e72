//! The micro-operation ISA executed by the crossbar controller.
//!
//! Cycle costs follow the paper's accounting (Sec. IV-B/IV-C):
//!
//! | Op                         | Cycles | Notes                              |
//! |----------------------------|--------|------------------------------------|
//! | `WriteRow`                 | 1      | write circuit drives one word line |
//! | `ReadRow`                  | 1      | sense amplifiers                   |
//! | `InitRows` / `ResetRegion` | 1      | parallel set/reset wave            |
//! | `NorRows` / `NotRow`       | 1      | MAGIC, SIMD over bit lines         |
//! | `NorCols` / `NotCol`       | 1      | MAGIC, SIMD over word lines        |
//! | `Shift`                    | 2      | periphery read + write back        |

use crate::geometry::{ColRange, Region};

/// One micro-operation of a CIM program.
///
/// Construct via the helper constructors, which keep call sites
/// readable; see the [crate-level example](crate).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MicroOp {
    /// Write `bits` into `row` starting at `col_offset` (1 cc).
    WriteRow {
        /// Target word line.
        row: usize,
        /// First column written.
        col_offset: usize,
        /// Bit payload, packed into words.
        bits: RowBits,
    },
    /// Write one *lane word* per column into `row` starting at
    /// `col_offset` (1 cc): bit `l` of `lane_words[j]` is the bit for
    /// batch lane `l` of column `col_offset + j`. On a sliced array
    /// this stages up to 64 independent operands in the same write
    /// pulse a [`MicroOp::WriteRow`] would take; on scalar/packed
    /// arrays the lane-0 bits are written. Cycle cost, wear and trace
    /// shape are identical to `WriteRow` of the same span.
    WriteRowLanes {
        /// Target word line.
        row: usize,
        /// First column written.
        col_offset: usize,
        /// One lane word per column.
        lane_words: Vec<u64>,
    },
    /// Read a row span; the value is latched into the executor's
    /// read buffer (1 cc).
    ReadRow {
        /// Word line to sense.
        row: usize,
        /// Columns sensed.
        cols: ColRange,
    },
    /// Drive all cells of the given rows (over `cols`) to logic 1 —
    /// MAGIC output initialization (1 cc, parallel set wave).
    InitRows {
        /// Rows initialized.
        rows: Vec<usize>,
        /// Column span.
        cols: ColRange,
    },
    /// Drive a whole region to logic 0 (1 cc, parallel reset wave).
    ResetRegion(Region),
    /// Drive all cells of the given (not necessarily contiguous) rows
    /// to logic 0 over `cols` (1 cc, parallel reset wave).
    ResetRows {
        /// Rows reset.
        rows: Vec<usize>,
        /// Column span.
        cols: ColRange,
    },
    /// MAGIC NOR across rows, SIMD over the column span (1 cc).
    NorRows {
        /// Input word lines.
        inputs: Vec<usize>,
        /// Output word line (must be initialized to 1).
        out: usize,
        /// Column span.
        cols: ColRange,
    },
    /// MAGIC NOR along a row, SIMD over the row span (1 cc).
    NorCols {
        /// Input bit lines.
        in_cols: Vec<usize>,
        /// Output bit line (must be initialized to 1).
        out_col: usize,
        /// Rows the operation applies to in parallel.
        rows: std::ops::Range<usize>,
    },
    /// Partitioned MAGIC NOR along rows (1 cc): every `part_width`
    /// partition of the span computes
    /// `NOR(in_offsets…) → out_offset` simultaneously, for all rows in
    /// `rows` — MultPIM's partition parallelism.
    NorColsPartitioned {
        /// Rows the operation applies to in parallel.
        rows: std::ops::Range<usize>,
        /// Column span (must be a multiple of `part_width`).
        cols: ColRange,
        /// Partition width in columns.
        part_width: usize,
        /// Input offsets within each partition.
        in_offsets: Vec<usize>,
        /// Output offset within each partition.
        out_offset: usize,
    },
    /// Periphery shift of a row span by `offset` columns (2 cc):
    /// read `src`, shift, write into `dst` (may equal `src`).
    Shift {
        /// Word line read.
        src: usize,
        /// Word line written.
        dst: usize,
        /// Columns shifted (window).
        cols: ColRange,
        /// Shift distance; positive = towards higher columns.
        offset: isize,
        /// Bit filled into vacated positions (carry-in injection).
        fill: bool,
    },
    /// Co-issued bundle: every inner op executes in the *same* clock
    /// cycle(s), so the bundle charges the maximum inner cost instead
    /// of the sum — the multi-partition issue model the optimizing
    /// compiler (`cim-mir`) exploits.
    ///
    /// Only controller-free in-array waves may co-issue: the MAGIC NOR
    /// family and init/reset waves. Ops that occupy the serial
    /// periphery (row writes/reads, shifts) never bundle, matching the
    /// paper's single-read/write-circuit model. Inner ops must be
    /// pairwise independent (no op's written cells may intersect
    /// another's read or written cells — shared *read* rows are fine:
    /// one driven word line can feed several gates); the executor and
    /// the static verifier both reject bundles that break these rules,
    /// so sequential simulation of the bundle is semantically identical
    /// to true parallel issue.
    Parallel(Vec<MicroOp>),
}

/// The payload of a [`MicroOp::WriteRow`]: `len` bits packed
/// little-endian into `u64` words (bit `j` is bit `j % 64` of word
/// `j / 64`), with every bit past `len` zero — the form the backends
/// write, so executing a write repacks nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RowBits {
    words: Vec<u64>,
    len: usize,
}

impl RowBits {
    /// Packs one `bool` per bit.
    pub fn from_bools(bits: &[bool]) -> Self {
        let words = bits
            .chunks(64)
            .map(|chunk| {
                chunk
                    .iter()
                    .rev()
                    .fold(0, |acc, &b| (acc << 1) | u64::from(b))
            })
            .collect();
        RowBits {
            words,
            len: bits.len(),
        }
    }

    /// The first `len` bits of little-endian `words`; missing words
    /// read as 0 and bits past `len` are dropped.
    pub fn from_words(words: &[u64], len: usize) -> Self {
        let mut packed = vec![0; len.div_ceil(64)];
        let n = packed.len().min(words.len());
        packed[..n].copy_from_slice(&words[..n]);
        if let (Some(last), tail @ 1..) = (packed.last_mut(), len % 64) {
            *last &= (1 << tail) - 1;
        }
        RowBits { words: packed, len }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the payload holds no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The packed words, `len.div_ceil(64)` of them.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The bits in order.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(|j| (self.words[j / 64] >> (j % 64)) & 1 == 1)
    }
}

impl MicroOp {
    /// Writes `bits` into `row` starting at column 0.
    pub fn write_row(row: usize, bits: &[bool]) -> Self {
        Self::write_row_at(row, 0, bits)
    }

    /// Writes `bits` into `row` starting at `col_offset`.
    pub fn write_row_at(row: usize, col_offset: usize, bits: &[bool]) -> Self {
        MicroOp::WriteRow {
            row,
            col_offset,
            bits: RowBits::from_bools(bits),
        }
    }

    /// Writes the first `len` bits of little-endian `words` into `row`
    /// starting at `col_offset` (see [`RowBits::from_words`]).
    pub fn write_row_words(row: usize, col_offset: usize, words: &[u64], len: usize) -> Self {
        MicroOp::WriteRow {
            row,
            col_offset,
            bits: RowBits::from_words(words, len),
        }
    }

    /// Writes one lane word per column into `row` at `col_offset`.
    pub fn write_row_lanes(row: usize, col_offset: usize, lane_words: &[u64]) -> Self {
        MicroOp::WriteRowLanes {
            row,
            col_offset,
            lane_words: lane_words.to_vec(),
        }
    }

    /// Reads the given span of `row` into the executor's read buffer.
    pub fn read_row(row: usize, cols: ColRange) -> Self {
        MicroOp::ReadRow { row, cols }
    }

    /// Initializes rows to logic 1 over the column span.
    pub fn init_rows(rows: &[usize], cols: ColRange) -> Self {
        MicroOp::InitRows {
            rows: rows.to_vec(),
            cols,
        }
    }

    /// Resets a region to logic 0.
    pub fn reset_region(rows: std::ops::Range<usize>, cols: ColRange) -> Self {
        MicroOp::ResetRegion(Region::new(rows, cols))
    }

    /// Resets the listed rows to logic 0 over the column span.
    pub fn reset_rows(rows: &[usize], cols: ColRange) -> Self {
        MicroOp::ResetRows {
            rows: rows.to_vec(),
            cols,
        }
    }

    /// MAGIC NOR across rows.
    pub fn nor_rows(inputs: &[usize], out: usize, cols: ColRange) -> Self {
        MicroOp::NorRows {
            inputs: inputs.to_vec(),
            out,
            cols,
        }
    }

    /// MAGIC NOT (single-input NOR) across rows.
    pub fn not_row(input: usize, out: usize, cols: ColRange) -> Self {
        MicroOp::NorRows {
            inputs: vec![input],
            out,
            cols,
        }
    }

    /// MAGIC NOR along rows (column-oriented).
    pub fn nor_cols(in_cols: &[usize], out_col: usize, rows: std::ops::Range<usize>) -> Self {
        MicroOp::NorCols {
            in_cols: in_cols.to_vec(),
            out_col,
            rows,
        }
    }

    /// Partitioned MAGIC NOR along rows.
    pub fn nor_cols_partitioned(
        rows: std::ops::Range<usize>,
        cols: ColRange,
        part_width: usize,
        in_offsets: &[usize],
        out_offset: usize,
    ) -> Self {
        MicroOp::NorColsPartitioned {
            rows,
            cols,
            part_width,
            in_offsets: in_offsets.to_vec(),
            out_offset,
        }
    }

    /// In-place periphery shift with zero fill.
    pub fn shift(row: usize, cols: ColRange, offset: isize) -> Self {
        MicroOp::Shift {
            src: row,
            dst: row,
            cols,
            offset,
            fill: false,
        }
    }

    /// Periphery shift from `src` into `dst` with an explicit fill bit.
    pub fn shift_to(src: usize, dst: usize, cols: ColRange, offset: isize, fill: bool) -> Self {
        MicroOp::Shift {
            src,
            dst,
            cols,
            offset,
            fill,
        }
    }

    /// Wraps independent co-issue-class ops into a same-cycle bundle.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) on an empty bundle — the executor and
    /// verifier additionally reject illegal bundles at run/check time.
    pub fn parallel(ops: Vec<MicroOp>) -> Self {
        debug_assert!(!ops.is_empty(), "empty co-issue bundle");
        MicroOp::Parallel(ops)
    }

    /// Clock cycles this operation takes. A [`MicroOp::Parallel`]
    /// bundle costs the maximum of its inner ops — that is the whole
    /// point of co-issue.
    pub fn cycles(&self) -> u64 {
        match self {
            MicroOp::Shift { .. } => 2,
            MicroOp::Parallel(ops) => ops.iter().map(MicroOp::cycles).max().unwrap_or(0),
            _ => 1,
        }
    }

    /// Whether this op is an in-array MAGIC gate (NOR family) — the
    /// ops whose output cells must be pre-initialized and must not
    /// alias an input. A bundle is not itself a gate; its inner ops
    /// keep their own classification.
    pub fn is_magic(&self) -> bool {
        matches!(
            self,
            MicroOp::NorRows { .. } | MicroOp::NorCols { .. } | MicroOp::NorColsPartitioned { .. }
        )
    }

    /// Whether this op may appear inside a [`MicroOp::Parallel`]
    /// bundle: in-array waves (MAGIC NORs, init/reset) co-issue across
    /// partitions; periphery ops (write/read/shift) are serial-only.
    pub fn can_co_issue(&self) -> bool {
        matches!(
            self,
            MicroOp::NorRows { .. }
                | MicroOp::NorCols { .. }
                | MicroOp::NorColsPartitioned { .. }
                | MicroOp::InitRows { .. }
                | MicroOp::ResetRows { .. }
                | MicroOp::ResetRegion(_)
        )
    }

    /// Returns the first co-issue rule violation among `ops` (a
    /// prospective [`MicroOp::Parallel`] bundle), or `None` when the
    /// bundle is legal: non-empty, no nesting, every op in the
    /// co-issue class, and pairwise independent (no op's writes
    /// intersect another op's reads or writes). Shared read regions
    /// are allowed. Used by the executor at issue time and by the
    /// `cim-mir` scheduler when packing, so it allocates nothing: it
    /// compares the ops' spans in place. The static verifier in
    /// `cim-check` re-implements the same rules independently.
    pub fn bundle_conflict(ops: &[MicroOp]) -> Option<String> {
        if ops.is_empty() {
            return Some("bundle is empty".to_string());
        }
        for (i, op) in ops.iter().enumerate() {
            if matches!(op, MicroOp::Parallel(_)) {
                return Some(format!("op {i}: nested bundle"));
            }
            if !op.can_co_issue() {
                return Some(format!("op {i}: serial-only op cannot co-issue"));
            }
        }
        for (i, a) in ops.iter().enumerate() {
            for (j, b) in ops.iter().enumerate() {
                if i == j {
                    continue;
                }
                let hits_b = &mut |w: Region| {
                    b.any_co_issue_region(true, &mut |r| w.intersects(&r))
                        || b.any_co_issue_region(false, &mut |r| w.intersects(&r))
                };
                if a.any_co_issue_region(true, hits_b) {
                    return Some(format!("ops {i} and {j} touch the same cells"));
                }
            }
        }
        None
    }

    /// Visits the regions [`MicroOp::footprint`] lists for a co-issue
    /// class op — the written ones if `writes`, else the read ones —
    /// in order and without allocating, until `f` returns `true`.
    /// Returns whether it did.
    fn any_co_issue_region<F: FnMut(Region) -> bool>(&self, writes: bool, f: &mut F) -> bool {
        match self {
            MicroOp::InitRows { rows, cols } | MicroOp::ResetRows { rows, cols } => {
                writes && rows.iter().any(|&r| f(Region::new(r..r + 1, cols.clone())))
            }
            MicroOp::ResetRegion(region) => writes && f(region.clone()),
            MicroOp::NorRows { inputs, out, cols } => {
                let row = |r: usize| Region::new(r..r + 1, cols.clone());
                if writes {
                    f(row(*out))
                } else {
                    inputs.iter().any(|&r| f(row(r)))
                }
            }
            MicroOp::NorCols {
                in_cols,
                out_col,
                rows,
            } => {
                let col = |c: usize| Region::new(rows.clone(), c..c + 1);
                if writes {
                    f(col(*out_col))
                } else {
                    in_cols.iter().any(|&c| f(col(c)))
                }
            }
            MicroOp::NorColsPartitioned {
                rows,
                cols,
                part_width,
                in_offsets,
                out_offset,
            } => {
                if !partition_geometry_ok(cols, *part_width, in_offsets, *out_offset) {
                    return f(Region::new(rows.clone(), cols.clone()));
                }
                let offsets = if writes {
                    std::slice::from_ref(out_offset)
                } else {
                    in_offsets
                };
                (cols.start..cols.end).step_by(*part_width).any(|base| {
                    offsets
                        .iter()
                        .any(|&off| f(Region::new(rows.clone(), base + off..base + off + 1)))
                })
            }
            _ => unreachable!("serial-only ops are rejected before the pairwise check"),
        }
    }

    /// The cells this op senses (reads) and drives (writes), as
    /// rectangular regions — the metadata static analyzers build on.
    ///
    /// Regions are exact except for a [`MicroOp::NorColsPartitioned`]
    /// with inconsistent geometry (zero or non-dividing partition
    /// width, or an offset outside the partition), where the whole
    /// span is conservatively reported as both read and written; the
    /// executor rejects such an op before touching any cell anyway.
    pub fn footprint(&self) -> OpFootprint {
        let row_span = |row: usize, cols: &ColRange| Region::new(row..row + 1, cols.clone());
        match self {
            MicroOp::WriteRow {
                row,
                col_offset,
                bits,
            } => OpFootprint {
                reads: Vec::new(),
                writes: vec![row_span(*row, &(*col_offset..col_offset + bits.len()))],
            },
            MicroOp::WriteRowLanes {
                row,
                col_offset,
                lane_words,
            } => OpFootprint {
                reads: Vec::new(),
                writes: vec![row_span(
                    *row,
                    &(*col_offset..col_offset + lane_words.len()),
                )],
            },
            MicroOp::ReadRow { row, cols } => OpFootprint {
                reads: vec![row_span(*row, cols)],
                writes: Vec::new(),
            },
            MicroOp::InitRows { rows, cols } | MicroOp::ResetRows { rows, cols } => OpFootprint {
                reads: Vec::new(),
                writes: rows.iter().map(|&r| row_span(r, cols)).collect(),
            },
            MicroOp::ResetRegion(region) => OpFootprint {
                reads: Vec::new(),
                writes: vec![region.clone()],
            },
            MicroOp::NorRows { inputs, out, cols } => OpFootprint {
                reads: inputs.iter().map(|&r| row_span(r, cols)).collect(),
                writes: vec![row_span(*out, cols)],
            },
            MicroOp::NorCols {
                in_cols,
                out_col,
                rows,
            } => OpFootprint {
                reads: in_cols
                    .iter()
                    .map(|&c| Region::new(rows.clone(), c..c + 1))
                    .collect(),
                writes: vec![Region::new(rows.clone(), *out_col..out_col + 1)],
            },
            MicroOp::NorColsPartitioned {
                rows,
                cols,
                part_width,
                in_offsets,
                out_offset,
            } => {
                if !partition_geometry_ok(cols, *part_width, in_offsets, *out_offset) {
                    let whole = Region::new(rows.clone(), cols.clone());
                    return OpFootprint {
                        reads: vec![whole.clone()],
                        writes: vec![whole],
                    };
                }
                let bases = (cols.start..cols.end).step_by(*part_width);
                OpFootprint {
                    reads: bases
                        .clone()
                        .flat_map(|base| {
                            in_offsets.iter().map(move |&off| {
                                Region::new(rows.clone(), base + off..base + off + 1)
                            })
                        })
                        .collect(),
                    writes: bases
                        .map(|base| {
                            Region::new(rows.clone(), base + out_offset..base + out_offset + 1)
                        })
                        .collect(),
                }
            }
            MicroOp::Shift { src, dst, cols, .. } => OpFootprint {
                reads: vec![row_span(*src, cols)],
                writes: vec![row_span(*dst, cols)],
            },
            MicroOp::Parallel(ops) => {
                let mut fp = OpFootprint::default();
                for op in ops {
                    let inner = op.footprint();
                    fp.reads.extend(inner.reads);
                    fp.writes.extend(inner.writes);
                }
                fp
            }
        }
    }
}

/// Whether a partitioned NOR's geometry is consistent: a non-zero
/// partition width dividing the span, every offset inside a partition.
fn partition_geometry_ok(
    cols: &ColRange,
    part_width: usize,
    in_offsets: &[usize],
    out_offset: usize,
) -> bool {
    part_width > 0
        && cols.len().is_multiple_of(part_width)
        && in_offsets
            .iter()
            .chain(std::iter::once(&out_offset))
            .all(|&off| off < part_width)
}

/// The cells a [`MicroOp`] reads and writes, as rectangular regions.
///
/// Produced by [`MicroOp::footprint`]; consumed by static analyzers
/// (bounds checking, wear accounting, MAGIC legality) that must reason
/// about programs without executing them.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OpFootprint {
    /// Regions the op senses. Empty regions may appear (zero-width
    /// spans); they touch no cells.
    pub reads: Vec<Region>,
    /// Regions the op drives.
    pub writes: Vec<Region>,
}

impl OpFootprint {
    /// One past the highest row touched (0 if the op touches nothing).
    pub fn row_bound(&self) -> usize {
        self.regions().map(|r| r.rows.end).max().unwrap_or(0)
    }

    /// One past the highest column touched (0 if the op touches
    /// nothing).
    pub fn col_bound(&self) -> usize {
        self.regions().map(|r| r.cols.end).max().unwrap_or(0)
    }

    /// Whether any written region shares a cell with any read region —
    /// for MAGIC ops, the statically-checkable in/out overlap
    /// condition.
    pub fn writes_overlap_reads(&self) -> bool {
        self.writes
            .iter()
            .any(|w| self.reads.iter().any(|r| w.intersects(r)))
    }

    /// Whether the op touches the given cell at all.
    pub fn touches(&self, row: usize, col: usize) -> bool {
        self.regions().any(|r| r.contains(row, col))
    }

    fn regions(&self) -> impl Iterator<Item = &Region> {
        self.reads.iter().chain(self.writes.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_costs() {
        assert_eq!(MicroOp::write_row(0, &[true]).cycles(), 1);
        assert_eq!(MicroOp::read_row(0, 0..4).cycles(), 1);
        assert_eq!(MicroOp::init_rows(&[1, 2], 0..4).cycles(), 1);
        assert_eq!(MicroOp::reset_region(0..2, 0..4).cycles(), 1);
        assert_eq!(MicroOp::nor_rows(&[0, 1], 2, 0..4).cycles(), 1);
        assert_eq!(MicroOp::nor_cols(&[0, 1], 2, 0..4).cycles(), 1);
        assert_eq!(MicroOp::shift(0, 0..4, 1).cycles(), 2);
    }

    #[test]
    fn row_bits_pack_bools_and_words_alike() {
        let bools: Vec<bool> = (0..130).map(|j| j % 3 == 0 || j == 129).collect();
        let packed = RowBits::from_bools(&bools);
        assert_eq!(packed.len(), 130);
        assert_eq!(packed.words().len(), 3);
        assert!(packed.iter().eq(bools.iter().copied()));
        // Extra words and bits past `len` are dropped, missing words
        // read as zero.
        let from_words = RowBits::from_words(&[packed.words(), &[u64::MAX]].concat(), 130);
        assert_eq!(from_words, packed);
        assert_eq!(RowBits::from_words(&[u64::MAX], 3).words(), &[0b111]);
        assert_eq!(RowBits::from_words(&[1], 70).words(), &[1, 0]);
        assert!(RowBits::from_bools(&[]).is_empty());
        assert_eq!(
            MicroOp::write_row_at(2, 5, &bools),
            MicroOp::write_row_words(2, 5, packed.words(), 130)
        );
    }

    #[test]
    fn not_is_single_input_nor() {
        let op = MicroOp::not_row(3, 5, 0..2);
        assert_eq!(op, MicroOp::nor_rows(&[3], 5, 0..2));
    }

    #[test]
    fn footprint_of_row_nor() {
        let fp = MicroOp::nor_rows(&[0, 1], 2, 4..8).footprint();
        assert_eq!(fp.reads.len(), 2);
        assert_eq!(fp.writes, vec![Region::new(2..3, 4..8)]);
        assert_eq!(fp.row_bound(), 3);
        assert_eq!(fp.col_bound(), 8);
        assert!(!fp.writes_overlap_reads());
        assert!(fp.touches(0, 5));
        assert!(!fp.touches(0, 3));
    }

    #[test]
    fn footprint_flags_aliased_nor() {
        let fp = MicroOp::nor_rows(&[0, 2], 2, 0..4).footprint();
        assert!(fp.writes_overlap_reads());
        let fp = MicroOp::nor_cols(&[1, 3], 3, 0..2).footprint();
        assert!(fp.writes_overlap_reads());
    }

    #[test]
    fn footprint_of_partitioned_nor_is_per_partition() {
        let fp = MicroOp::nor_cols_partitioned(0..2, 0..8, 4, &[0, 1], 2).footprint();
        // 2 partitions × 2 inputs read, 2 outputs written.
        assert_eq!(fp.reads.len(), 4);
        assert_eq!(fp.writes.len(), 2);
        assert!(fp.touches(1, 6), "second partition's output");
        assert!(!fp.touches(0, 3), "offset 3 unused");
        assert!(!fp.writes_overlap_reads());
    }

    #[test]
    fn footprint_of_bad_partition_is_conservative() {
        let fp = MicroOp::nor_cols_partitioned(0..1, 0..8, 3, &[0], 1).footprint();
        assert_eq!(fp.reads, vec![Region::new(0..1, 0..8)]);
        assert_eq!(fp.writes, vec![Region::new(0..1, 0..8)]);
        assert!(fp.writes_overlap_reads());
    }

    #[test]
    fn parallel_bundle_costs_max_and_unions_footprints() {
        let bundle = MicroOp::parallel(vec![
            MicroOp::nor_rows(&[0, 1], 2, 0..4),
            MicroOp::not_row(0, 3, 0..4),
            MicroOp::init_rows(&[5], 0..4),
        ]);
        assert_eq!(bundle.cycles(), 1, "co-issue charges the max, not the sum");
        assert!(!bundle.is_magic());
        let fp = bundle.footprint();
        assert_eq!(fp.writes.len(), 3);
        assert_eq!(fp.row_bound(), 6);
        assert!(fp.touches(3, 0) && fp.touches(5, 3));
    }

    #[test]
    fn co_issue_class_excludes_serial_periphery() {
        assert!(MicroOp::nor_rows(&[0], 1, 0..2).can_co_issue());
        assert!(MicroOp::nor_cols(&[0], 1, 0..2).can_co_issue());
        assert!(MicroOp::init_rows(&[0], 0..2).can_co_issue());
        assert!(MicroOp::reset_rows(&[0], 0..2).can_co_issue());
        assert!(MicroOp::reset_region(0..1, 0..2).can_co_issue());
        assert!(!MicroOp::write_row(0, &[true]).can_co_issue());
        assert!(!MicroOp::read_row(0, 0..2).can_co_issue());
        assert!(!MicroOp::shift(0, 0..2, 1).can_co_issue());
    }

    #[test]
    fn shift_reads_src_writes_dst() {
        let fp = MicroOp::shift_to(1, 4, 2..6, 1, false).footprint();
        assert_eq!(fp.reads, vec![Region::new(1..2, 2..6)]);
        assert_eq!(fp.writes, vec![Region::new(4..5, 2..6)]);
        // In-place shift overlaps by design; it is not a MAGIC op.
        let inplace = MicroOp::shift(1, 2..6, 1);
        assert!(inplace.footprint().writes_overlap_reads());
        assert!(!inplace.is_magic());
        assert!(MicroOp::nor_rows(&[0], 1, 0..2).is_magic());
    }
}
