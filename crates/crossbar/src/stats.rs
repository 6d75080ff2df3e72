//! Cycle accounting.

/// Classification of micro-ops for the per-class cycle breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Row writes from the periphery.
    Write,
    /// Row reads into the periphery.
    Read,
    /// Init/reset waves.
    Init,
    /// In-array MAGIC NOR/NOT operations.
    Magic,
    /// Periphery shifts.
    Shift,
}

impl OpClass {
    /// All classes, in the fixed breakdown/report order.
    pub const ALL: [OpClass; 5] = [
        OpClass::Write,
        OpClass::Read,
        OpClass::Init,
        OpClass::Magic,
        OpClass::Shift,
    ];

    /// Short lowercase label (`"write"`, `"read"`, …).
    pub fn label(self) -> &'static str {
        match self {
            OpClass::Write => "write",
            OpClass::Read => "read",
            OpClass::Init => "init",
            OpClass::Magic => "magic",
            OpClass::Shift => "shift",
        }
    }
}

/// Cycle statistics accumulated by an [`crate::Executor`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleStats {
    /// Total clock cycles.
    pub cycles: u64,
    /// Number of micro-ops executed.
    pub ops: u64,
    /// Cycles spent in row writes.
    pub write_cycles: u64,
    /// Cycles spent in row reads.
    pub read_cycles: u64,
    /// Cycles spent in init/reset waves.
    pub init_cycles: u64,
    /// Cycles spent in MAGIC NOR/NOT.
    pub magic_cycles: u64,
    /// Cycles spent in periphery shifts.
    pub shift_cycles: u64,
    /// Row-write ops executed.
    pub write_ops: u64,
    /// Row-read ops executed.
    pub read_ops: u64,
    /// Init/reset ops executed.
    pub init_ops: u64,
    /// MAGIC NOR/NOT ops executed.
    pub magic_ops: u64,
    /// Periphery shift ops executed.
    pub shift_ops: u64,
}

impl CycleStats {
    /// Records an operation of the given class and cycle cost.
    pub fn record(&mut self, class: OpClass, cycles: u64) {
        self.cycles += cycles;
        self.ops += 1;
        match class {
            OpClass::Write => {
                self.write_cycles += cycles;
                self.write_ops += 1;
            }
            OpClass::Read => {
                self.read_cycles += cycles;
                self.read_ops += 1;
            }
            OpClass::Init => {
                self.init_cycles += cycles;
                self.init_ops += 1;
            }
            OpClass::Magic => {
                self.magic_cycles += cycles;
                self.magic_ops += 1;
            }
            OpClass::Shift => {
                self.shift_cycles += cycles;
                self.shift_ops += 1;
            }
        }
    }

    /// Records an operation that co-issues inside a
    /// [`Parallel`](crate::MicroOp::Parallel) bundle: the per-class
    /// cycle/op counters advance (the gate still burns its energy and
    /// occupies its partition), but the wall-clock total does *not* —
    /// the caller charges the bundle's maximum once. As a consequence,
    /// the per-class cycle sums of a program with co-issued bundles
    /// may exceed its wall `cycles`.
    pub fn record_co_issued(&mut self, class: OpClass, cycles: u64) {
        let wall = self.cycles;
        self.record(class, cycles);
        self.cycles = wall;
    }

    /// Merges another statistics record into this one.
    pub fn merge(&mut self, other: &CycleStats) {
        self.cycles += other.cycles;
        self.ops += other.ops;
        self.write_cycles += other.write_cycles;
        self.read_cycles += other.read_cycles;
        self.init_cycles += other.init_cycles;
        self.magic_cycles += other.magic_cycles;
        self.shift_cycles += other.shift_cycles;
        self.write_ops += other.write_ops;
        self.read_ops += other.read_ops;
        self.init_ops += other.init_ops;
        self.magic_ops += other.magic_ops;
        self.shift_ops += other.shift_ops;
    }

    /// Cycles spent in the given class.
    pub fn cycles_of(&self, class: OpClass) -> u64 {
        match class {
            OpClass::Write => self.write_cycles,
            OpClass::Read => self.read_cycles,
            OpClass::Init => self.init_cycles,
            OpClass::Magic => self.magic_cycles,
            OpClass::Shift => self.shift_cycles,
        }
    }

    /// Ops executed in the given class.
    pub fn ops_of(&self, class: OpClass) -> u64 {
        match class {
            OpClass::Write => self.write_ops,
            OpClass::Read => self.read_ops,
            OpClass::Init => self.init_ops,
            OpClass::Magic => self.magic_ops,
            OpClass::Shift => self.shift_ops,
        }
    }

    /// Compute utilization: the fraction of total cycles spent in
    /// in-array MAGIC logic (vs. data movement and housekeeping).
    /// `0.0` when no cycles have elapsed.
    pub fn utilization(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.magic_cycles as f64 / self.cycles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_by_class() {
        let mut s = CycleStats::default();
        s.record(OpClass::Magic, 1);
        s.record(OpClass::Shift, 2);
        s.record(OpClass::Write, 1);
        assert_eq!(s.cycles, 4);
        assert_eq!(s.ops, 3);
        assert_eq!(s.magic_cycles, 1);
        assert_eq!(s.shift_cycles, 2);
        assert_eq!(s.write_cycles, 1);
        assert_eq!(s.magic_ops, 1);
        assert_eq!(s.shift_ops, 1);
        assert_eq!(s.write_ops, 1);
        assert_eq!(s.read_ops, 0);
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = CycleStats::default();
        a.record(OpClass::Read, 1);
        let mut b = CycleStats::default();
        b.record(OpClass::Init, 1);
        b.record(OpClass::Magic, 1);
        a.merge(&b);
        assert_eq!(a.cycles, 3);
        assert_eq!(a.ops, 3);
        assert_eq!(a.read_cycles, 1);
        assert_eq!(a.init_cycles, 1);
        assert_eq!(a.read_ops, 1);
        assert_eq!(a.init_ops, 1);
        assert_eq!(a.magic_ops, 1);
    }

    #[test]
    fn merge_preserves_op_counts_alongside_cycles() {
        let mut a = CycleStats::default();
        for _ in 0..5 {
            a.record(OpClass::Magic, 1);
        }
        a.record(OpClass::Shift, 2);
        let mut b = CycleStats::default();
        b.record(OpClass::Shift, 2);
        b.record(OpClass::Write, 1);
        a.merge(&b);
        assert_eq!(a.ops, 8);
        assert_eq!(a.magic_ops, 5);
        assert_eq!(a.shift_ops, 2);
        assert_eq!(a.shift_cycles, 4);
        assert_eq!(a.write_ops, 1);
        // Per-class ops sum to the total.
        let total: u64 = OpClass::ALL.iter().map(|&c| a.ops_of(c)).sum();
        assert_eq!(total, a.ops);
    }

    #[test]
    fn utilization_is_magic_share() {
        let mut s = CycleStats::default();
        assert_eq!(s.utilization(), 0.0, "empty stats divide safely");
        s.record(OpClass::Magic, 3);
        s.record(OpClass::Write, 1);
        assert!((s.utilization() - 0.75).abs() < 1e-12);
        s.record(OpClass::Shift, 4);
        assert!((s.utilization() - 0.375).abs() < 1e-12);
    }

    #[test]
    fn class_accessors_match_fields() {
        let mut s = CycleStats::default();
        s.record(OpClass::Shift, 2);
        s.record(OpClass::Read, 1);
        assert_eq!(s.cycles_of(OpClass::Shift), 2);
        assert_eq!(s.ops_of(OpClass::Shift), 1);
        assert_eq!(s.cycles_of(OpClass::Read), 1);
        assert_eq!(s.cycles_of(OpClass::Magic), 0);
        assert_eq!(OpClass::Magic.label(), "magic");
    }
}
