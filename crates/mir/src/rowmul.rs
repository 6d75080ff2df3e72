//! Abstract iteration model of the MultPIM-style row multiplier.
//!
//! The row multiplier (`cim-logic::RowMultiplier`) executes one
//! iteration per multiplier row: select the row, re-init scratch,
//! compute generate/propagate, run a Kogge–Stone prefix ladder over
//! the partition columns, and accumulate. Its paper latency is
//! `w·(⌈log₂w⌉ + 14) + 3` — every iteration issues its
//! `⌈log₂w⌉ + 14` micro-steps serially.
//!
//! This module captures the iteration as an explicit dependence DAG
//! over abstract registers (one per logical scratch column-group) so
//! the generic [`parallel_pack`](crate::parallel_pack) discipline can
//! be applied *symbolically*: the packed depth of one iteration is
//! computed by the same earliest-slot greedy scheduler, and the
//! optimized latency formula follows as `w·depth + 3`. The scheduler
//! finds `⌈log₂w⌉ + 9` — five of the fourteen non-ladder steps fold
//! into co-issue bundles (¬a/¬b/a∨b; ¬g with the xor reduction;
//! carry with the propagate move; ¬c with the first sum half).

use crate::OptLevel;

/// Abstract registers of one multiplier iteration. Each is a distinct
/// column group inside the iteration's partition, so steps writing
/// different registers touch disjoint cells.
pub mod reg {
    /// Multiplicand row (preloaded, read-only).
    pub const A: u32 = 1 << 0;
    /// Selected multiplier-bit broadcast row.
    pub const BI: u32 = 1 << 1;
    /// Running accumulator (live across iterations).
    pub const ACC: u32 = 1 << 2;
    /// ¬a.
    pub const NA: u32 = 1 << 3;
    /// ¬bᵢ.
    pub const NB: u32 = 1 << 4;
    /// First XOR half / re-used propagate staging.
    pub const X1: u32 = 1 << 5;
    /// Generate chain.
    pub const G: u32 = 1 << 6;
    /// ¬generate.
    pub const NG: u32 = 1 << 7;
    /// Propagate chain.
    pub const P: u32 = 1 << 8;
    /// Carry.
    pub const C: u32 = 1 << 9;
    /// ¬carry.
    pub const NC: u32 = 1 << 10;
    /// Second XOR half.
    pub const X2: u32 = 1 << 11;
    /// Sum staging.
    pub const S: u32 = 1 << 12;
    /// Every scratch register an iteration re-initializes.
    pub const SCRATCH: u32 = NA | NB | X1 | G | NG | P | C | NC | X2 | S;
}

/// One abstract micro-step of a multiplier iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    /// Step name (stable; used in profiles and tests).
    pub name: &'static str,
    /// Registers read.
    pub reads: u32,
    /// Registers written.
    pub writes: u32,
    /// Whether the step occupies the serial periphery (row select,
    /// accumulator sense) and therefore cannot co-issue.
    pub serial: bool,
    /// Whether the step is a MAGIC gate (its output cells are also
    /// sensed, so the init that preconditions them is a dependence).
    pub magic: bool,
}

impl Step {
    const fn magic(name: &'static str, reads: u32, writes: u32) -> Self {
        Step {
            name,
            reads,
            writes,
            serial: false,
            magic: true,
        }
    }

    const fn serial(name: &'static str, reads: u32, writes: u32) -> Self {
        Step {
            name,
            reads,
            writes,
            serial: true,
            magic: false,
        }
    }

    /// Effective read set: declared reads plus, for MAGIC steps, the
    /// written registers (output cells are sensed).
    fn eff_reads(&self) -> u32 {
        if self.magic {
            self.reads | self.writes
        } else {
            self.reads
        }
    }
}

/// `⌈log₂ n⌉` (0 for n ≤ 1), as the paper's formulas use it.
pub fn ceil_log2(n: usize) -> usize {
    if n <= 1 {
        0
    } else {
        (usize::BITS - (n - 1).leading_zeros()) as usize
    }
}

/// The dependence DAG of one iteration for a `width`-row multiplier:
/// `⌈log₂ width⌉ + 14` steps in the legacy serial order.
pub fn iteration_steps(width: usize) -> Vec<Step> {
    use reg::*;
    let levels = ceil_log2(width);
    let mut steps = vec![
        Step::serial("select", 0, BI),
        Step {
            name: "init",
            reads: 0,
            writes: SCRATCH,
            serial: false,
            magic: false,
        },
        Step::magic("not_a", A, NA),
        Step::magic("not_b", BI, NB),
        Step::magic("or_n", A | BI, X1),
        Step::magic("and_g", NA | NB, G),
        Step::magic("not_g", G, NG),
        Step::magic("xor_p", X1 | G, P),
    ];
    for _ in 0..levels {
        steps.push(Step::magic("prefix", G | P, G | P));
    }
    steps.extend([
        Step::magic("carry", G, C),
        Step::magic("not_c", C, NC),
        Step::magic("np", P, X1),
        Step::magic("u1", P | C, X2),
        Step::magic("u2", X1 | NC, S),
        Step::serial("sum", X2 | S, ACC),
    ]);
    steps
}

/// Packs one iteration's steps with the same earliest-slot greedy
/// discipline as [`parallel_pack`](crate::parallel_pack): each slot is
/// a co-issue bundle of pairwise cell-disjoint MAGIC/init steps,
/// serial steps sit alone. Returns the slots as step indices.
pub fn packed_schedule(steps: &[Step], partitions: usize) -> Vec<Vec<usize>> {
    let mut slots: Vec<Vec<usize>> = Vec::new();
    let mut slot_of = vec![0usize; steps.len()];
    for (i, step) in steps.iter().enumerate() {
        let earliest = (0..i)
            .filter(|&p| {
                let (a, b) = (&steps[p], step);
                a.writes & (b.eff_reads() | b.writes) != 0 || a.eff_reads() & b.writes != 0
            })
            .map(|p| slot_of[p] + 1)
            .max()
            .unwrap_or(0);
        let mut chosen = None;
        if !step.serial {
            for (s, occupants) in slots.iter().enumerate().skip(earliest) {
                let fits = occupants.len() < partitions
                    && occupants.iter().all(|&o| {
                        let other = &steps[o];
                        !other.serial
                            && other.writes & (step.eff_reads() | step.writes) == 0
                            && step.writes & other.eff_reads() == 0
                    });
                if fits {
                    chosen = Some(s);
                    break;
                }
            }
        }
        let s = chosen.unwrap_or_else(|| {
            slots.push(Vec::new());
            slots.len() - 1
        });
        slots[s].push(i);
        slot_of[i] = s;
    }
    slots
}

/// Serial (paper) per-iteration depth: `⌈log₂ width⌉ + 14`.
pub fn serial_depth(width: usize) -> usize {
    iteration_steps(width).len()
}

/// Packed per-iteration depth under the default partition budget —
/// `⌈log₂ width⌉ + 9` for every practical width.
pub fn packed_depth(width: usize, partitions: usize) -> usize {
    packed_schedule(&iteration_steps(width), partitions).len()
}

/// Row-multiplier latency at an optimization level:
/// `width · depth + 3` virtual cycles, where depth is the serial
/// per-iteration depth at O0/O1 (nothing in the iteration is dead)
/// and the packed depth at O2+.
pub fn latency(width: usize, opt: OptLevel, partitions: usize) -> u64 {
    let depth = match opt {
        OptLevel::O0 | OptLevel::O1 => serial_depth(width),
        OptLevel::O2 | OptLevel::O3 => packed_depth(width, partitions),
    };
    (width as u64) * (depth as u64) + 3
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TileLimits;

    #[test]
    fn serial_depth_matches_paper_formula() {
        for w in [4, 18, 66, 130, 514] {
            assert_eq!(serial_depth(w), ceil_log2(w) + 14);
        }
    }

    #[test]
    fn packed_depth_saves_five_slots() {
        for w in [4, 18, 66, 130, 514] {
            assert_eq!(
                packed_depth(w, TileLimits::DEFAULT_PARTITIONS),
                ceil_log2(w) + 9,
                "width {w}"
            );
        }
    }

    #[test]
    fn packed_schedule_is_a_valid_topological_bundling() {
        let steps = iteration_steps(66);
        let slots = packed_schedule(&steps, TileLimits::DEFAULT_PARTITIONS);
        // Every step appears exactly once.
        let mut seen = vec![false; steps.len()];
        for slot in &slots {
            for &i in slot {
                assert!(!seen[i], "step {i} scheduled twice");
                seen[i] = true;
            }
            // Serial steps sit alone; bundles are pairwise disjoint.
            if slot.len() > 1 {
                for (x, &i) in slot.iter().enumerate() {
                    assert!(!steps[i].serial);
                    for &j in &slot[x + 1..] {
                        assert_eq!(
                            steps[i].writes & (steps[j].eff_reads() | steps[j].writes),
                            0
                        );
                        assert_eq!(steps[j].writes & steps[i].eff_reads(), 0);
                    }
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
        // Dependences never share a slot and never run backwards.
        let slot_of: Vec<usize> = (0..steps.len())
            .map(|i| slots.iter().position(|s| s.contains(&i)).unwrap())
            .collect();
        for j in 0..steps.len() {
            for i in 0..j {
                let dep = steps[i].writes & (steps[j].eff_reads() | steps[j].writes) != 0
                    || steps[i].eff_reads() & steps[j].writes != 0;
                if dep {
                    assert!(slot_of[i] < slot_of[j], "dep {i}→{j} not ordered");
                }
            }
        }
    }

    #[test]
    fn partition_budget_of_one_recovers_serial_depth() {
        assert_eq!(packed_depth(66, 1), serial_depth(66));
    }

    #[test]
    fn latency_formula_examples() {
        // Paper-exact at O0: 66·(7+14)+3 = 1389, 18·(5+14)+3 = 345.
        assert_eq!(latency(66, OptLevel::O0, 8), 1389);
        assert_eq!(latency(18, OptLevel::O0, 8), 345);
        // Packed: 66·(7+9)+3 = 1059, 18·(5+9)+3 = 255.
        assert_eq!(latency(66, OptLevel::O3, 8), 1059);
        assert_eq!(latency(18, OptLevel::O2, 8), 255);
        assert!(latency(514, OptLevel::O3, 8) < latency(514, OptLevel::O0, 8));
    }
}
