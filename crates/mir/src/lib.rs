//! cim-mir — an SSA-style mid-level IR for MAGIC crossbar programs
//! with an optimizing, verifier-gated lowering pipeline.
//!
//! Program construction in `cim-logic`/`cim-core` historically emitted
//! raw `Vec<MicroOp>` instruction vectors whose schedule was the
//! emission order. This crate inserts an explicit IR between
//! construction and execution: a [`MirProgram`] carries the
//! instruction stream *plus* the metadata an optimizer needs (array
//! geometry and the live-out regions whose final values are the
//! program's contract), and [`MirProgram::lower`] turns it back into
//! an executable micro-op vector through a pass pipeline selected by
//! [`OptLevel`]:
//!
//! * **O0** — byte-identical passthrough (the paper-exact schedule);
//! * **O1** — [`dead_write_elim`]: drops pure writes (init/reset
//!   waves, operand writes) and MAGIC ops whose results are dead —
//!   overwritten before any read and not live-out;
//! * **O2** — O1 plus [`parallel_pack`]: an earliest-slot list
//!   scheduler that re-packs independent NOR/NOT/init/reset ops into
//!   [`MicroOp::Parallel`] co-issue bundles (same-cycle
//!   multi-partition issue), bounded by the tile's partition count;
//! * **O3** — O2 plus [`place`]: a crossbar-constrained placement
//!   pass that checks the program against the tile's row/column
//!   limits and compacts non-interface rows into the lowest free
//!   word lines.
//!
//! Every dependence decision is derived from [`MicroOp::footprint`]
//! (the def-use information of the SSA view): op `j` depends on op
//! `i < j` iff `i`'s writes intersect `j`'s reads or writes, or `i`'s
//! reads intersect `j`'s writes. MAGIC outputs count as *reads* too —
//! the gate physically senses its output cell, which is what makes
//! the preceding init wave a true dependence.
//!
//! The pass pipeline is *validity-gated*: `cim-check`'s abstract
//! lattice verifier is the oracle every optimized program must pass
//! (see [`verified_lower`]), and the crate's tests include mutant
//! passes (an elimination that drops live init waves, a packer that
//! ignores conflicts, a placement that aliases rows) proving the
//! oracle rejects every broken rewrite.

use cim_crossbar::{MicroOp, OpFootprint, Region, WordSpan};
use std::fmt;

pub mod rowmul;

/// Optimization level of the lowering pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum OptLevel {
    /// Legacy schedule: lowering is byte-identical to construction.
    #[default]
    O0,
    /// Dead-write/dead-NOR elimination.
    O1,
    /// O1 + co-issue re-packing into parallel bundles.
    O2,
    /// O2 + crossbar-constrained placement.
    O3,
}

impl OptLevel {
    /// All levels, in ascending order.
    pub const ALL: [OptLevel; 4] = [OptLevel::O0, OptLevel::O1, OptLevel::O2, OptLevel::O3];

    /// The most aggressive level.
    pub const MAX: OptLevel = OptLevel::O3;

    /// Numeric index (0–3).
    pub fn index(self) -> u8 {
        match self {
            OptLevel::O0 => 0,
            OptLevel::O1 => 1,
            OptLevel::O2 => 2,
            OptLevel::O3 => 3,
        }
    }

    /// Level from its numeric index.
    pub fn from_index(i: u8) -> Option<OptLevel> {
        OptLevel::ALL.get(i as usize).copied()
    }

    /// Parses `"0"…"3"` / `"O0"…"O3"` (case-insensitive).
    pub fn parse(s: &str) -> Option<OptLevel> {
        let digits = s.trim().trim_start_matches(['o', 'O']);
        digits.parse::<u8>().ok().and_then(OptLevel::from_index)
    }
}

impl fmt::Display for OptLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "O{}", self.index())
    }
}

/// Physical limits of the crossbar tile a program is mapped onto.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileLimits {
    /// Word lines available.
    pub rows: usize,
    /// Bit lines available.
    pub cols: usize,
    /// Partitions that can issue in the same clock — the upper bound
    /// on co-issue bundle width.
    pub partitions: usize,
}

impl TileLimits {
    /// Default partition budget of one tile (MultPIM-class arrays
    /// drive a handful of partitions per cycle; 8 is conservative).
    pub const DEFAULT_PARTITIONS: usize = 8;

    /// Limits matching an array geometry with the default partition
    /// budget.
    pub fn for_array(rows: usize, cols: usize) -> Self {
        TileLimits {
            rows,
            cols,
            partitions: Self::DEFAULT_PARTITIONS,
        }
    }
}

/// An error from the placement pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlaceError {
    /// The program touches more rows than the tile has.
    RowsExceedTile {
        /// Distinct rows the program uses.
        used: usize,
        /// Rows the tile provides.
        limit: usize,
    },
    /// The program touches columns past the tile's bit lines.
    ColsExceedTile {
        /// One past the highest column used.
        used: usize,
        /// Columns the tile provides.
        limit: usize,
    },
    /// A row-range op (e.g. a region reset) maps onto rows that are
    /// not contiguous after remapping.
    NonContiguousRange {
        /// Program index of the offending op.
        op: usize,
    },
}

impl fmt::Display for PlaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlaceError::RowsExceedTile { used, limit } => {
                write!(f, "program uses {used} rows, tile has {limit}")
            }
            PlaceError::ColsExceedTile { used, limit } => {
                write!(f, "program uses columns up to {used}, tile has {limit}")
            }
            PlaceError::NonContiguousRange { op } => {
                write!(f, "op {op}: row range is non-contiguous after placement")
            }
        }
    }
}

impl std::error::Error for PlaceError {}

/// A MAGIC program in mid-level form: the instruction stream plus the
/// geometry and liveness metadata the optimizer needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MirProgram {
    rows: usize,
    cols: usize,
    insts: Vec<MicroOp>,
    live_out: Vec<Region>,
}

/// Incremental builder for a [`MirProgram`].
#[derive(Debug, Clone)]
pub struct MirBuilder {
    rows: usize,
    cols: usize,
    insts: Vec<MicroOp>,
    live_out: Vec<Region>,
}

impl MirBuilder {
    /// Starts a program for a `rows × cols` array.
    pub fn new(rows: usize, cols: usize) -> Self {
        MirBuilder {
            rows,
            cols,
            insts: Vec::new(),
            live_out: Vec::new(),
        }
    }

    /// Appends one instruction.
    pub fn push(&mut self, op: MicroOp) -> &mut Self {
        self.insts.push(op);
        self
    }

    /// Appends a slice of instructions.
    pub fn extend(&mut self, ops: &[MicroOp]) -> &mut Self {
        self.insts.extend_from_slice(ops);
        self
    }

    /// Declares a region whose final value is part of the program's
    /// contract — the optimizer must preserve its last definition.
    pub fn live_out(&mut self, region: Region) -> &mut Self {
        self.live_out.push(region);
        self
    }

    /// Finishes the program.
    pub fn build(self) -> MirProgram {
        MirProgram {
            rows: self.rows,
            cols: self.cols,
            insts: self.insts,
            live_out: self.live_out,
        }
    }
}

/// Total clock cycles a lowered program charges.
pub fn program_cycles(ops: &[MicroOp]) -> u64 {
    ops.iter().map(MicroOp::cycles).sum()
}

/// Total cell-writes a lowered program performs (area × waves; a
/// bundle writes what its inner ops write).
pub fn program_writes(ops: &[MicroOp]) -> u64 {
    ops.iter()
        .map(|op| {
            op.footprint()
                .writes
                .iter()
                .map(|r| (r.rows.len() * r.cols.len()) as u64)
                .sum::<u64>()
        })
        .sum()
}

impl MirProgram {
    /// Wraps an existing instruction vector (the migration path for
    /// legacy `Vec<MicroOp>` builders).
    pub fn from_ops(rows: usize, cols: usize, ops: Vec<MicroOp>, live_out: Vec<Region>) -> Self {
        MirProgram {
            rows,
            cols,
            insts: ops,
            live_out,
        }
    }

    /// The instruction stream.
    pub fn ops(&self) -> &[MicroOp] {
        &self.insts
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Declared live-out regions.
    pub fn live_out(&self) -> &[Region] {
        &self.live_out
    }

    /// Array geometry `(rows, cols)`.
    pub fn geometry(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Lowers through the pass pipeline for `opt` under `limits`.
    ///
    /// O0 lowering is byte-identical to the built instruction stream;
    /// higher levels apply the passes described at the [crate
    /// level](self).
    ///
    /// # Panics
    ///
    /// Panics if the O3 placement pass cannot map the program onto
    /// the tile (the stages size their tiles to fit, so this is a
    /// construction bug, not a data-dependent condition).
    pub fn lower(&self, opt: OptLevel, limits: &TileLimits) -> Vec<MicroOp> {
        match opt {
            OptLevel::O0 => self.insts.clone(),
            OptLevel::O1 => dead_write_elim(self).insts,
            OptLevel::O2 => parallel_pack(&dead_write_elim(self), limits),
            OptLevel::O3 => {
                let packed = parallel_pack(&dead_write_elim(self), limits);
                let pinned = self.interface_rows();
                let (placed, _map) = place(&packed, self.rows, limits, &pinned)
                    .expect("placement must fit the stage tile");
                placed
            }
        }
    }

    /// Rows the program may not relocate: rows carrying live-out
    /// values plus rows whose first touch is a read (preloaded
    /// operands — the caller stored data there before the program).
    pub fn interface_rows(&self) -> Vec<usize> {
        let mut pinned = vec![false; self.rows];
        for region in &self.live_out {
            for r in region.rows.clone() {
                if r < self.rows {
                    pinned[r] = true;
                }
            }
        }
        let mut written = vec![false; self.rows];
        for op in &self.insts {
            let fp = op.footprint();
            for region in &fp.reads {
                for r in region.rows.clone() {
                    if r < self.rows && !written[r] {
                        pinned[r] = true;
                    }
                }
            }
            for region in &fp.writes {
                for r in region.rows.clone() {
                    if r < self.rows {
                        written[r] = true;
                    }
                }
            }
        }
        (0..self.rows).filter(|&r| pinned[r]).collect()
    }
}

// ---------------------------------------------------------------------
// Dependence analysis
// ---------------------------------------------------------------------

/// The regions an op *effectively* reads: declared reads plus, for
/// MAGIC ops, the written cells (the gate senses its output, so the
/// init wave that preconditions it is a true dependence).
fn effective_reads<'a>(op: &MicroOp, fp: &'a OpFootprint) -> impl Iterator<Item = &'a Region> {
    let outputs: &[Region] = if op.is_magic() { &fp.writes } else { &[] };
    fp.reads.iter().chain(outputs)
}

/// Hazard state of one column segment of a row band: the op that last
/// wrote all of its cells and the ops that read all of them since.
#[derive(Debug, Clone)]
struct Segment {
    start: usize,
    end: usize,
    writer: Option<usize>,
    readers: Vec<usize>,
}

/// The dependence frontier of one row band: disjoint column segments
/// sorted by start. Columns no op has touched have no segment.
#[derive(Debug, Clone, Default)]
struct Band {
    segs: Vec<Segment>,
}

impl Band {
    /// Splits and fills segments so that a run of them covers exactly
    /// `lo..hi` (`lo < hi`), and returns the run's index range. A split
    /// half inherits its parent's writer and readers.
    fn cover(&mut self, lo: usize, hi: usize) -> std::ops::Range<usize> {
        let mut i = self.segs.partition_point(|s| s.end <= lo);
        if i < self.segs.len() && self.segs[i].start < lo {
            let mut right = self.segs[i].clone();
            right.start = lo;
            self.segs[i].end = lo;
            i += 1;
            self.segs.insert(i, right);
        }
        let first = i;
        let mut pos = lo;
        while pos < hi {
            if i < self.segs.len() && self.segs[i].start == pos {
                if self.segs[i].end > hi {
                    let mut right = self.segs[i].clone();
                    right.start = hi;
                    self.segs[i].end = hi;
                    self.segs.insert(i + 1, right);
                }
            } else {
                let end = self.segs.get(i).map_or(hi, |s| s.start.min(hi));
                let fresh = Segment {
                    start: pos,
                    end,
                    writer: None,
                    readers: Vec::new(),
                };
                self.segs.insert(i, fresh);
            }
            pos = self.segs[i].end;
            i += 1;
        }
        first..i
    }
}

/// The dependence frontier of a program: its rows cut into *bands* at
/// every region's row bounds, so each region covers a band wholly or
/// not at all, and one [`Band`] of column segments per band.
struct Frontier {
    cuts: Vec<usize>,
    bands: Vec<Band>,
}

impl Frontier {
    fn new(fps: &[OpFootprint]) -> Self {
        let mut cuts: Vec<usize> = fps
            .iter()
            .flat_map(|fp| fp.reads.iter().chain(&fp.writes))
            .filter(|r| r.cells() > 0)
            .flat_map(|r| [r.rows.start, r.rows.end])
            .collect();
        cuts.sort_unstable();
        cuts.dedup();
        let bands = vec![Band::default(); cuts.len().saturating_sub(1)];
        Frontier { cuts, bands }
    }

    /// Calls `f` on every segment of `region`'s cells (none for an
    /// empty region), splitting segments at the region's bounds.
    fn for_each(&mut self, region: &Region, mut f: impl FnMut(&mut Segment)) {
        if region.cells() == 0 {
            return;
        }
        let band = |row: usize| self.cuts.binary_search(&row).expect("row bounds are cuts");
        let first = band(region.rows.start);
        // Most regions are one band: its end is the next cut.
        let last = match self.cuts.get(first + 1) {
            Some(&cut) if cut == region.rows.end => first + 1,
            _ => band(region.rows.end),
        };
        for b in first..last {
            let run = self.bands[b].cover(region.cols.start, region.cols.end);
            self.bands[b].segs[run].iter_mut().for_each(&mut f);
        }
    }
}

/// Predecessor sets of the program's dependence DAG, each ascending.
///
/// Every `i` in `deps[j]` is an earlier op with a RAW, WAR or WAW
/// hazard against `j`, and the transitive closure of the sets contains
/// every such hazard: `deps[j]` names, for each cell `j` touches, the
/// cell's last writer and (when `j` writes it) the cell's readers
/// since that write — not every earlier op that conflicts. An op placed
/// strictly after all its predecessors is therefore placed after every
/// op it conflicts with.
///
/// The frontier is kept per row band as sorted column segments, which
/// makes the pass linear in the program's regions times the segments
/// they cover.
pub fn dependence_preds(ops: &[MicroOp]) -> Vec<Vec<usize>> {
    let fps: Vec<OpFootprint> = ops.iter().map(MicroOp::footprint).collect();
    let mut frontier = Frontier::new(&fps);
    let mut deps = Vec::with_capacity(ops.len());
    let mut preds = Vec::new();
    // A MAGIC op also senses its output cells (see `effective_reads`),
    // but visiting them as writes already names their last writer and
    // leaves no reader on them, so only declared reads are visited as
    // reads.
    for (j, fp) in fps.iter().enumerate() {
        preds.clear();
        for region in &fp.reads {
            frontier.for_each(region, |seg| preds.extend(seg.writer));
        }
        for region in &fp.writes {
            frontier.for_each(region, |seg| {
                preds.extend(seg.writer);
                preds.extend_from_slice(&seg.readers);
            });
        }
        preds.sort_unstable();
        preds.dedup();
        deps.push(preds.clone());
        for region in &fp.reads {
            frontier.for_each(region, |seg| {
                if seg.readers.last() != Some(&j) {
                    seg.readers.push(j);
                }
            });
        }
        for region in &fp.writes {
            frontier.for_each(region, |seg| {
                seg.writer = Some(j);
                seg.readers.clear();
            });
        }
    }
    deps
}

// ---------------------------------------------------------------------
// Pass: dead-write / dead-NOR elimination
// ---------------------------------------------------------------------

/// Per-op keep mask of [`dead_write_elim`]: `false` marks an op whose
/// every written cell is overwritten before any read and is not
/// live-out. Exposed separately so callers that track op provenance
/// (e.g. the precompute suffix's per-addition boundaries) can re-slice
/// after elimination.
///
/// The backward `needed` set is one `u64` word per 64 columns of each
/// row, so testing, clearing and setting a region costs one masked
/// word operation per row and word of its column span.
pub fn dead_write_mask(prog: &MirProgram) -> Vec<bool> {
    let mut needed = CellSet::new(prog.rows, prog.cols);
    for region in &prog.live_out {
        needed.fill(region, true);
    }
    let mut keep = vec![true; prog.insts.len()];
    for (i, op) in prog.insts.iter().enumerate().rev() {
        let fp = op.footprint();
        // Removable candidates: ops with no observable effect beyond
        // their writes. Reads (sensing) and bundles are kept as units.
        let removable = !matches!(op, MicroOp::ReadRow { .. } | MicroOp::Parallel(_));
        if removable && !fp.writes.is_empty() && !fp.writes.iter().any(|w| needed.any(w)) {
            keep[i] = false;
            continue;
        }
        // needed = (needed − defs) ∪ uses.
        for w in &fp.writes {
            needed.fill(w, false);
        }
        for u in effective_reads(op, &fp) {
            needed.fill(u, true);
        }
    }
    keep
}

/// A set of cells of a `rows × cols` array, one bit per cell, stored
/// as `u64` words per row. Every operation clamps its region to the
/// array.
struct CellSet {
    rows: usize,
    cols: usize,
    words_per_row: usize,
    words: Vec<u64>,
}

impl CellSet {
    fn new(rows: usize, cols: usize) -> Self {
        let words_per_row = cols.div_ceil(64);
        CellSet {
            rows,
            cols,
            words_per_row,
            words: vec![0; rows * words_per_row],
        }
    }

    /// The clamped region's rows and column span (`None` when the
    /// clamped region has no columns).
    fn clamp(&self, region: &Region) -> Option<(std::ops::Range<usize>, WordSpan)> {
        let span = WordSpan::new(&(region.cols.start..region.cols.end.min(self.cols)))?;
        let rows = region.rows.start..region.rows.end.min(self.rows);
        Some((rows, span))
    }

    /// The word indices of row `r`.
    fn row(&self, r: usize) -> std::ops::Range<usize> {
        r * self.words_per_row..(r + 1) * self.words_per_row
    }

    fn any(&self, region: &Region) -> bool {
        self.clamp(region)
            .is_some_and(|(mut rows, span)| rows.any(|r| span.any(&self.words[self.row(r)])))
    }

    /// Sets (`value`) or clears every cell of the region.
    fn fill(&mut self, region: &Region, value: bool) {
        if let Some((rows, span)) = self.clamp(region) {
            for r in rows {
                let words = self.row(r);
                span.fill(&mut self.words[words], value);
            }
        }
    }
}

/// Removes dead writes and dead MAGIC ops (see [`dead_write_mask`]).
pub fn dead_write_elim(prog: &MirProgram) -> MirProgram {
    let keep = dead_write_mask(prog);
    MirProgram {
        rows: prog.rows,
        cols: prog.cols,
        insts: prog
            .insts
            .iter()
            .zip(&keep)
            .filter(|(_, &k)| k)
            .map(|(op, _)| op.clone())
            .collect(),
        live_out: prog.live_out.clone(),
    }
}

// ---------------------------------------------------------------------
// Pass: NOR-level parallel re-packing (co-issue scheduling)
// ---------------------------------------------------------------------

/// Earliest-slot list scheduler: walks the instruction stream in
/// order, places every op into the first issue slot at or after all
/// its dependence predecessors that it can legally share (co-issue
/// class, pairwise cell-disjointness via [`MicroOp::bundle_conflict`],
/// bundle width ≤ `limits.partitions`), and emits multi-op slots as
/// [`MicroOp::Parallel`] bundles. Serial-periphery ops (writes, reads,
/// shifts) always occupy a slot alone.
pub fn parallel_pack(prog: &MirProgram, limits: &TileLimits) -> Vec<MicroOp> {
    let deps = dependence_preds(&prog.insts);
    let mut slots: Vec<Vec<MicroOp>> = Vec::new();
    let mut slot_of = vec![0usize; prog.insts.len()];
    for (i, op) in prog.insts.iter().enumerate() {
        // Slots rise strictly along every predecessor edge, so a hazard
        // that `deps` implies only transitively never sets the maximum:
        // the schedule is the one the full pairwise hazard set gives.
        let earliest = deps[i].iter().map(|&p| slot_of[p] + 1).max().unwrap_or(0);
        let mut chosen = None;
        if op.can_co_issue() {
            for (s, slot) in slots.iter().enumerate().skip(earliest) {
                if slot.len() < limits.partitions && slot.iter().all(MicroOp::can_co_issue) {
                    let mut candidate = slot.clone();
                    candidate.push(op.clone());
                    if MicroOp::bundle_conflict(&candidate).is_none() {
                        chosen = Some(s);
                        break;
                    }
                }
            }
        }
        let s = chosen.unwrap_or_else(|| {
            slots.push(Vec::new());
            slots.len() - 1
        });
        // A new slot index can be below `earliest` only if `earliest`
        // exceeded the current slot count, which cannot happen:
        // predecessors were all placed in existing slots.
        debug_assert!(s >= earliest || !slots[s].is_empty());
        slots[s].push(op.clone());
        slot_of[i] = s;
    }
    slots
        .into_iter()
        .map(|mut slot| {
            if slot.len() == 1 {
                slot.pop().expect("non-empty slot")
            } else {
                MicroOp::parallel(slot)
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Pass: crossbar-constrained placement
// ---------------------------------------------------------------------

fn remap_rows_in_op(op: &MicroOp, map: &[usize], index: usize) -> Result<MicroOp, PlaceError> {
    let m = |r: usize| map[r];
    let m_range = |range: &std::ops::Range<usize>| -> Result<std::ops::Range<usize>, PlaceError> {
        let mut mapped: Vec<usize> = range.clone().map(m).collect();
        mapped.sort_unstable();
        if mapped.windows(2).all(|w| w[1] == w[0] + 1) {
            let start = mapped.first().copied().unwrap_or(0);
            Ok(start..start + mapped.len())
        } else {
            Err(PlaceError::NonContiguousRange { op: index })
        }
    };
    Ok(match op {
        MicroOp::WriteRow {
            row,
            col_offset,
            bits,
        } => MicroOp::WriteRow {
            row: m(*row),
            col_offset: *col_offset,
            bits: bits.clone(),
        },
        MicroOp::WriteRowLanes {
            row,
            col_offset,
            lane_words,
        } => MicroOp::WriteRowLanes {
            row: m(*row),
            col_offset: *col_offset,
            lane_words: lane_words.clone(),
        },
        MicroOp::ReadRow { row, cols } => MicroOp::ReadRow {
            row: m(*row),
            cols: cols.clone(),
        },
        MicroOp::InitRows { rows, cols } => MicroOp::InitRows {
            rows: rows.iter().map(|&r| m(r)).collect(),
            cols: cols.clone(),
        },
        MicroOp::ResetRows { rows, cols } => MicroOp::ResetRows {
            rows: rows.iter().map(|&r| m(r)).collect(),
            cols: cols.clone(),
        },
        MicroOp::ResetRegion(region) => {
            MicroOp::ResetRegion(Region::new(m_range(&region.rows)?, region.cols.clone()))
        }
        MicroOp::NorRows { inputs, out, cols } => MicroOp::NorRows {
            inputs: inputs.iter().map(|&r| m(r)).collect(),
            out: m(*out),
            cols: cols.clone(),
        },
        MicroOp::NorCols {
            in_cols,
            out_col,
            rows,
        } => MicroOp::NorCols {
            in_cols: in_cols.clone(),
            out_col: *out_col,
            rows: m_range(rows)?,
        },
        MicroOp::NorColsPartitioned {
            rows,
            cols,
            part_width,
            in_offsets,
            out_offset,
        } => MicroOp::NorColsPartitioned {
            rows: m_range(rows)?,
            cols: cols.clone(),
            part_width: *part_width,
            in_offsets: in_offsets.clone(),
            out_offset: *out_offset,
        },
        MicroOp::Shift {
            src,
            dst,
            cols,
            offset,
            fill,
        } => MicroOp::Shift {
            src: m(*src),
            dst: m(*dst),
            cols: cols.clone(),
            offset: *offset,
            fill: *fill,
        },
        MicroOp::Parallel(inner) => MicroOp::Parallel(
            inner
                .iter()
                .map(|o| remap_rows_in_op(o, map, index))
                .collect::<Result<Vec<_>, _>>()?,
        ),
    })
}

/// Crossbar-constrained placement: checks the program against the
/// tile's row/column budget and allocates word lines — pinned
/// (interface) rows keep their index, every other used row is packed
/// into the lowest free word line below `limits.rows`. Returns the
/// remapped program and the row map (`map[old] = new`; unused rows
/// map to themselves).
///
/// # Errors
///
/// [`PlaceError`] when the program cannot fit the tile or a row-range
/// op would become non-contiguous under the compaction.
pub fn place(
    ops: &[MicroOp],
    rows: usize,
    limits: &TileLimits,
    pinned: &[usize],
) -> Result<(Vec<MicroOp>, Vec<usize>), PlaceError> {
    let mut used = vec![false; rows];
    let mut col_bound = 0usize;
    for op in ops {
        let fp = op.footprint();
        col_bound = col_bound.max(fp.col_bound());
        for region in fp.reads.iter().chain(fp.writes.iter()) {
            for r in region.rows.clone() {
                if r < rows {
                    used[r] = true;
                }
            }
        }
    }
    let used_count = used.iter().filter(|&&u| u).count();
    if used_count > limits.rows {
        return Err(PlaceError::RowsExceedTile {
            used: used_count,
            limit: limits.rows,
        });
    }
    if col_bound > limits.cols {
        return Err(PlaceError::ColsExceedTile {
            used: col_bound,
            limit: limits.cols,
        });
    }
    let is_pinned = |r: usize| pinned.contains(&r);
    let mut map: Vec<usize> = (0..rows).collect();
    let mut taken = vec![false; limits.rows.max(rows)];
    for r in 0..rows {
        if used[r] && is_pinned(r) {
            taken[r] = true;
        }
    }
    let mut next_free = 0usize;
    for r in 0..rows {
        if used[r] && !is_pinned(r) {
            while taken[next_free] {
                next_free += 1;
            }
            map[r] = next_free;
            taken[next_free] = true;
        }
    }
    let placed = ops
        .iter()
        .enumerate()
        .map(|(i, op)| remap_rows_in_op(op, &map, i))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((placed, map))
}

// ---------------------------------------------------------------------
// Verifier-gated lowering
// ---------------------------------------------------------------------

/// Lowers at `opt` and gates the result on the `cim-check` abstract
/// lattice verifier — the pass-validity oracle. Returns the verified
/// program.
///
/// # Panics
///
/// Panics if the optimized program fails static verification (a pass
/// bug, never a data-dependent condition).
pub fn verified_lower(
    prog: &MirProgram,
    opt: OptLevel,
    limits: &TileLimits,
    config: &cim_check::VerifyConfig,
    context: &str,
) -> Vec<MicroOp> {
    let lowered = prog.lower(opt, limits);
    if let Err(err) = cim_check::verify(&lowered, config) {
        panic!("{context}: {opt} lowering failed pass-validity verification:\n{err}");
    }
    lowered
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_check::{GoldMatrix, VerifyConfig};

    /// A small adder-shaped program: operands preloaded in rows 0–1,
    /// result in row 2, scratch rows 3–5.
    fn xor_program() -> MirProgram {
        let mut b = MirBuilder::new(6, 4);
        b.push(MicroOp::init_rows(&[3, 4, 5], 0..4))
            .push(MicroOp::not_row(0, 3, 0..4)) // ¬a
            .push(MicroOp::not_row(1, 4, 0..4)) // ¬b
            .push(MicroOp::nor_rows(&[3, 4], 5, 0..4)) // a∧b … placeholder value
            .push(MicroOp::init_rows(&[2], 0..4))
            .push(MicroOp::nor_rows(&[5, 3], 2, 0..4))
            .push(MicroOp::reset_rows(&[3, 4, 5], 0..4));
        b.live_out(Region::new(2..3, 0..4));
        b.live_out(Region::new(3..6, 0..4));
        b.build()
    }

    fn limits() -> TileLimits {
        TileLimits::for_array(6, 4)
    }

    fn config() -> VerifyConfig {
        VerifyConfig::new(6, 4).with_preloaded_rows(&[0, 1], 0..4)
    }

    fn run_gold(ops: &[MicroOp]) -> GoldMatrix {
        let mut m = GoldMatrix::new(6, 4);
        m.apply(&MicroOp::write_row(0, &[true, false, true, false]));
        m.apply(&MicroOp::write_row(1, &[true, true, false, false]));
        m.run(ops);
        m
    }

    #[test]
    fn o0_lowering_is_byte_identical() {
        let prog = xor_program();
        assert_eq!(prog.lower(OptLevel::O0, &limits()), prog.ops().to_vec());
    }

    #[test]
    fn opt_levels_never_increase_cycles_and_stay_equivalent() {
        let prog = xor_program();
        let base = prog.lower(OptLevel::O0, &limits());
        let gold = run_gold(&base);
        let mut last = program_cycles(&base);
        for opt in OptLevel::ALL {
            let lowered = verified_lower(&prog, opt, &limits(), &config(), "xor_program");
            let cycles = program_cycles(&lowered);
            assert!(cycles <= last, "{opt} must not regress cycles");
            last = cycles;
            let m = run_gold(&lowered);
            assert_eq!(
                m.row_bits(2, 0..4),
                gold.row_bits(2, 0..4),
                "{opt} result must match O0"
            );
            assert!(
                program_writes(&lowered) <= program_writes(&base),
                "{opt} must not add writes"
            );
        }
    }

    #[test]
    fn dead_elim_drops_reset_overwritten_by_init() {
        // reset scratch → init scratch (next addition) with no read in
        // between: the reset is dead.
        let mut b = MirBuilder::new(3, 4);
        b.push(MicroOp::init_rows(&[1], 0..4))
            .push(MicroOp::not_row(0, 1, 0..4))
            .push(MicroOp::reset_rows(&[1], 0..4)) // dead: re-inited below
            .push(MicroOp::init_rows(&[1, 2], 0..4))
            .push(MicroOp::nor_rows(&[0], 2, 0..4))
            .push(MicroOp::reset_rows(&[1], 0..4)); // live: row 1 is live-out
        b.live_out(Region::new(1..3, 0..4));
        let prog = b.build();
        let mask = dead_write_mask(&prog);
        // The reset is dead, and removing it cascades: nothing reads
        // row 1 before the re-init, so the NOT and its init wave are
        // dead too.
        assert_eq!(mask, vec![false, false, false, true, true, true]);
        let pruned = dead_write_elim(&prog);
        assert_eq!(pruned.len(), 3);
        let cfg = VerifyConfig::new(3, 4).with_preloaded_rows(&[0], 0..4);
        assert!(cim_check::verify(&pruned.insts, &cfg).is_ok());
    }

    #[test]
    fn dead_elim_keeps_init_waves_magic_depends_on() {
        let prog = xor_program();
        let pruned = dead_write_elim(&prog);
        // Nothing in the well-formed program is dead.
        assert_eq!(pruned.len(), prog.len());
    }

    #[test]
    fn parallel_pack_bundles_independent_nots() {
        let prog = xor_program();
        let packed = parallel_pack(&prog, &limits());
        // ¬a and ¬b are independent → one bundle; total cycles shrink
        // from 7 to 6 (init; {¬a,¬b,init-sum}? init-sum is independent
        // of everything except the final NOR — scheduler's choice, we
        // only pin the cycle count and equivalence).
        assert!(program_cycles(&packed) < program_cycles(prog.ops()));
        assert!(packed.iter().any(|op| matches!(op, MicroOp::Parallel(_))));
        let cfg = config();
        assert!(cim_check::verify(&packed, &cfg).is_ok());
    }

    #[test]
    fn parallel_pack_respects_partition_budget() {
        let mut b = MirBuilder::new(9, 2);
        b.push(MicroOp::init_rows(&[0, 1, 2, 3, 4, 5, 6, 7], 0..2));
        for r in 0..8 {
            b.push(MicroOp::not_row(8, r, 0..2));
        }
        b.live_out(Region::new(0..8, 0..2));
        let prog = b.build();
        let narrow = TileLimits {
            rows: 9,
            cols: 2,
            partitions: 2,
        };
        let packed = parallel_pack(&prog, &narrow);
        for op in &packed {
            if let MicroOp::Parallel(inner) = op {
                assert!(inner.len() <= 2, "partition budget exceeded");
            }
        }
        // 8 NOTs at width-2 bundles → 4 slots, plus the init.
        assert_eq!(program_cycles(&packed), 5);
    }

    #[test]
    fn placement_compacts_sparse_scratch_rows() {
        // Same program shifted into sparse high rows: placement pulls
        // the scratch rows down while pinning the preloaded operands
        // and live-out row.
        let mut b = MirBuilder::new(32, 4);
        b.push(MicroOp::init_rows(&[20, 25, 30], 0..4))
            .push(MicroOp::not_row(0, 20, 0..4))
            .push(MicroOp::not_row(1, 25, 0..4))
            .push(MicroOp::nor_rows(&[20, 25], 30, 0..4))
            .push(MicroOp::init_rows(&[2], 0..4))
            .push(MicroOp::nor_rows(&[30, 20], 2, 0..4));
        b.live_out(Region::new(2..3, 0..4));
        let prog = b.build();
        let tight = TileLimits::for_array(6, 4);
        let pinned = prog.interface_rows();
        assert_eq!(pinned, vec![0, 1, 2]);
        let (placed, map) = place(prog.ops(), 32, &tight, &pinned).unwrap();
        assert_eq!(map[0], 0);
        assert_eq!(map[2], 2);
        assert!(map[20] < 6 && map[25] < 6 && map[30] < 6);
        let cfg = VerifyConfig::new(6, 4).with_preloaded_rows(&[0, 1], 0..4);
        assert!(cim_check::verify(&placed, &cfg).is_ok());
        // Equivalent on the interface row.
        let mut gold_sparse = GoldMatrix::new(32, 4);
        let mut gold_placed = GoldMatrix::new(6, 4);
        for m in [&mut gold_sparse, &mut gold_placed] {
            m.apply(&MicroOp::write_row(0, &[true, false, true, false]));
            m.apply(&MicroOp::write_row(1, &[false, true, true, false]));
        }
        gold_sparse.run(prog.ops());
        gold_placed.run(&placed);
        assert_eq!(gold_sparse.row_bits(2, 0..4), gold_placed.row_bits(2, 0..4));
    }

    #[test]
    fn placement_rejects_programs_larger_than_the_tile() {
        let prog = xor_program();
        let tiny = TileLimits::for_array(3, 4);
        let err = place(prog.ops(), 6, &tiny, &[]).unwrap_err();
        assert!(matches!(
            err,
            PlaceError::RowsExceedTile { used: 6, limit: 3 }
        ));
        let narrow = TileLimits::for_array(6, 2);
        let err = place(prog.ops(), 6, &narrow, &[]).unwrap_err();
        assert!(matches!(err, PlaceError::ColsExceedTile { .. }));
    }

    // ---- Mutant passes: the verifier is the oracle ----

    #[test]
    fn verifier_catches_broken_elimination() {
        // A "dead-write elim" that also deletes the init wave a MAGIC
        // NOR depends on.
        let prog = xor_program();
        let broken: Vec<MicroOp> = prog
            .ops()
            .iter()
            .filter(|op| !matches!(op, MicroOp::InitRows { .. }))
            .cloned()
            .collect();
        let err = cim_check::verify(&broken, &config()).unwrap_err();
        assert!(err
            .violations
            .iter()
            .any(|v| matches!(v, cim_check::Violation::OutputNotInitialized { .. })));
    }

    #[test]
    fn verifier_catches_broken_packer() {
        // A "packer" that bundles dependent ops (¬a and the NOR that
        // reads ¬a) into the same cycle.
        let broken = vec![
            MicroOp::init_rows(&[3, 4, 5], 0..4),
            MicroOp::parallel(vec![
                MicroOp::not_row(0, 3, 0..4),
                MicroOp::nor_rows(&[3], 5, 0..4),
            ]),
        ];
        let err = cim_check::verify(&broken, &config()).unwrap_err();
        assert!(err
            .violations
            .iter()
            .any(|v| matches!(v, cim_check::Violation::BundleConflict { .. })));
    }

    #[test]
    fn verifier_catches_broken_placement() {
        // A "placement" that aliases a NOR's input row onto its output
        // row — the in/out overlap the lattice rejects.
        let prog = xor_program();
        let mut map: Vec<usize> = (0..6).collect();
        map[4] = 5; // ¬b lands on the same row as the a∧b NOR output
        let broken: Vec<MicroOp> = prog
            .ops()
            .iter()
            .enumerate()
            .map(|(i, op)| remap_rows_in_op(op, &map, i).unwrap())
            .collect();
        let err = cim_check::verify(&broken, &config()).unwrap_err();
        assert!(!err.violations.is_empty());
    }

    #[test]
    fn opt_level_parsing_and_order() {
        assert_eq!(OptLevel::parse("0"), Some(OptLevel::O0));
        assert_eq!(OptLevel::parse("O2"), Some(OptLevel::O2));
        assert_eq!(OptLevel::parse("o3"), Some(OptLevel::O3));
        assert_eq!(OptLevel::parse("7"), None);
        assert!(OptLevel::O0 < OptLevel::MAX);
        assert_eq!(OptLevel::MAX.to_string(), "O3");
        assert_eq!(OptLevel::from_index(2), Some(OptLevel::O2));
    }
}
