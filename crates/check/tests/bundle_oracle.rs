//! `MicroOp::bundle_conflict` against the footprint-based pairwise
//! reference.
//!
//! The executor and the `cim-mir` packer ask `bundle_conflict` about
//! every bundle, so it compares the ops' spans in place. The reference
//! below materializes every op's [`OpFootprint`] and intersects the
//! region lists pairwise; on every bundle both must return the same
//! verdict and the same message.

#[path = "support/wild.rs"]
mod wild;

use cim_check::ProgramGen;
use cim_crossbar::{MicroOp, OpFootprint, Region};
use wild::{Rng, Wild};

/// The pairwise rule over materialized footprints.
fn reference(ops: &[MicroOp]) -> Option<String> {
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
    let fps: Vec<OpFootprint> = ops.iter().map(MicroOp::footprint).collect();
    for (i, a) in fps.iter().enumerate() {
        for (j, b) in fps.iter().enumerate() {
            let hits = |w: &Region| b.writes.iter().chain(&b.reads).any(|r| w.intersects(r));
            if i != j && a.writes.iter().any(hits) {
                return Some(format!("ops {i} and {j} touch the same cells"));
            }
        }
    }
    None
}

fn assert_agrees(bundle: &[MicroOp], context: &str) -> Option<String> {
    let got = MicroOp::bundle_conflict(bundle);
    assert_eq!(got, reference(bundle), "{context}: {bundle:?}");
    got
}

#[test]
fn hand_built_bundles() {
    let cases: Vec<(Vec<MicroOp>, Option<&str>)> = vec![
        (vec![], Some("bundle is empty")),
        (
            vec![MicroOp::not_row(0, 1, 0..4), MicroOp::Parallel(vec![])],
            Some("op 1: nested bundle"),
        ),
        (
            vec![MicroOp::init_rows(&[0], 0..4), MicroOp::shift(2, 0..4, 1)],
            Some("op 1: serial-only op cannot co-issue"),
        ),
        // Shared reads are legal; disjoint column spans of one row too.
        (
            vec![
                MicroOp::nor_rows(&[0, 1], 2, 0..8),
                MicroOp::nor_rows(&[0, 1], 3, 0..8),
            ],
            None,
        ),
        (
            vec![MicroOp::not_row(0, 1, 0..4), MicroOp::not_row(0, 1, 4..8)],
            None,
        ),
        // One op writes a row another reads, in either order.
        (
            vec![MicroOp::not_row(0, 1, 0..8), MicroOp::not_row(1, 2, 7..9)],
            Some("ops 0 and 1 touch the same cells"),
        ),
        (
            vec![MicroOp::not_row(1, 2, 7..9), MicroOp::not_row(0, 1, 0..8)],
            Some("ops 1 and 0 touch the same cells"),
        ),
        // Write-write on one row; a reset region across another op's output.
        (
            vec![
                MicroOp::init_rows(&[5, 3], 0..4),
                MicroOp::reset_rows(&[3], 3..6),
            ],
            Some("ops 0 and 1 touch the same cells"),
        ),
        (
            vec![
                MicroOp::not_row(0, 4, 2..3),
                MicroOp::reset_region(3..6, 0..3),
            ],
            Some("ops 0 and 1 touch the same cells"),
        ),
        // Row and column orientations crossing at one cell.
        (
            vec![
                MicroOp::nor_cols(&[0], 5, 0..4),
                MicroOp::not_row(6, 2, 5..6),
            ],
            Some("ops 0 and 1 touch the same cells"),
        ),
        (
            vec![
                MicroOp::nor_cols(&[0], 5, 0..4),
                MicroOp::not_row(6, 2, 6..8),
            ],
            None,
        ),
        // Interleaved partitions touch distinct cells; a shared offset
        // does not.
        (
            vec![
                MicroOp::nor_cols_partitioned(0..2, 0..8, 4, &[0], 1),
                MicroOp::nor_cols_partitioned(0..2, 0..8, 4, &[2], 3),
            ],
            None,
        ),
        (
            vec![
                MicroOp::nor_cols_partitioned(0..2, 0..8, 4, &[0], 1),
                MicroOp::nor_cols_partitioned(1..3, 0..8, 4, &[1], 3),
            ],
            Some("ops 0 and 1 touch the same cells"),
        ),
        // Broken partition geometry is read and written as a whole.
        (
            vec![
                MicroOp::nor_cols_partitioned(0..1, 0..8, 3, &[0], 1),
                MicroOp::init_rows(&[0], 7..8),
            ],
            Some("ops 0 and 1 touch the same cells"),
        ),
        // Empty spans touch nothing.
        (
            vec![MicroOp::init_rows(&[0], 3..3), MicroOp::not_row(1, 0, 0..4)],
            None,
        ),
    ];
    for (bundle, expect) in cases {
        let got = assert_agrees(&bundle, "hand-built");
        assert_eq!(got.as_deref(), expect, "{bundle:?}");
    }
}

#[test]
fn program_gen_windows() {
    let mut conflicts = 0;
    for seed in 0..40 {
        let program = ProgramGen::new(6, 12, seed).generate(60);
        for len in 1..=4 {
            for window in program.windows(len) {
                conflicts += usize::from(assert_agrees(window, &format!("seed {seed}")).is_some());
            }
        }
    }
    assert!(conflicts > 0);
}

#[test]
fn wild_co_issue_bundles() {
    let (mut legal, mut illegal) = (0, 0);
    for seed in 0..200 {
        let mut rng = Rng::new(seed);
        let ops: Vec<MicroOp> = Wild::new(5, 10, seed)
            .program(120)
            .into_iter()
            .filter(MicroOp::can_co_issue)
            .collect();
        let mut rest = &ops[..];
        while rest.len() >= 2 {
            let (bundle, tail) = rest.split_at((2 + rng.below(3)).min(rest.len()));
            match assert_agrees(bundle, &format!("seed {seed}")) {
                Some(_) => illegal += 1,
                None => legal += 1,
            }
            rest = tail;
        }
    }
    assert!(legal > 0 && illegal > 0, "{legal} legal, {illegal} illegal");
}
