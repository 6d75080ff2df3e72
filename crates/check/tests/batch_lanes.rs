//! Lane triangulation for bit-sliced batch execution: every lane of a
//! [`RowMultiplier::run_lanes_in`] batch is checked three ways — its
//! product against the software gold multiplier, its product / cycles /
//! per-cell state / wear against a solo run on the per-cell scalar
//! backend, and its product against a solo run on the process-default
//! backend (which CI flips between packed and scalar via
//! `CIM_XBAR_BACKEND`). A mutant test cross-wires two lanes to prove
//! the harness actually catches lane bleed, and a lane-isolation suite
//! injects one adversarial lane into a full 64-lane batch and checks
//! that every *other* lane stays bit-identical to a solo run.
//!
//! The whole multiplier is checked the same way: `multiply_batch`
//! (which keeps the batch in lane words from the operand transposes to
//! the product readout), the three stages chained through their `Uint`
//! batch adapters, and one solo `multiply` per lane must agree on
//! every product, the stage cycles and every lane's wear.

use cim_bigint::mul::schoolbook;
use cim_bigint::Uint;
use cim_check::{BatchGen, LaneBatch};
use cim_crossbar::{BackendKind, Crossbar, EnduranceReport, Executor};
use cim_logic::multpim::{RowMultStats, RowMultiplier};
use cim_mir::OptLevel;
use cim_trace::{Event, Tracer};
use karatsuba_cim::multiplier::KaratsubaCimMultiplier;
use karatsuba_cim::multiply::MultiplyStage;
use karatsuba_cim::postcompute::PostcomputeStage;
use karatsuba_cim::precompute::PrecomputeStage;
use proptest::prelude::*;

/// Converts a generated batch into multiplier operand pairs.
fn to_pairs(batch: &LaneBatch) -> Vec<(Uint, Uint)> {
    batch
        .lanes
        .iter()
        .map(|(a, b)| (Uint::from_bits(a), Uint::from_bits(b)))
        .collect()
}

/// Solo reference run of one operand pair on a fresh array with the
/// given backend. Returns the product, the run stats and the final
/// array (for state and wear comparison).
fn solo_run(width: usize, kind: BackendKind, a: &Uint, b: &Uint) -> (Uint, RowMultStats, Crossbar) {
    let mult = RowMultiplier::new(width);
    let mut array = Crossbar::with_backend(1, mult.required_cols(), kind).unwrap();
    let (product, stats) = mult.run_in(&mut array, 0, 0, a, b).unwrap();
    (product, stats, array)
}

/// Triangulates every lane of `batch`: batch product vs gold, batch
/// product/cycles/state/wear vs a scalar-backend solo run, and batch
/// product vs a default-backend solo run. `bleed` optionally
/// cross-wires two lanes' sensed products first — simulating the lane
/// bleed bug this harness exists to catch.
///
/// Returns `Err` naming the first divergent lane instead of
/// panicking, so the mutant test can assert the harness fires.
fn triangulate(batch: &LaneBatch, bleed: Option<(usize, usize)>) -> Result<(), String> {
    let width = batch.width;
    let mult = RowMultiplier::new(width);
    let cols = mult.required_cols();
    let pairs = to_pairs(batch);
    let mut sliced =
        Crossbar::new_sliced(1, cols, pairs.len()).map_err(|e| format!("sliced array: {e}"))?;
    let (a, b) = cim_logic::pair_lanes(&pairs, width);
    let (lane_words, stats) = mult
        .run_lanes_in(&mut sliced, 0, 0, &a, &b, pairs.len())
        .map_err(|e| format!("batch run: {e}"))?;
    let mut products = cim_logic::lane_uints(&lane_words, pairs.len());
    if let Some((i, j)) = bleed {
        products.swap(i, j);
    }
    for (lane, (a, b)) in pairs.iter().enumerate() {
        let gold = schoolbook::mul(a, b);
        if products[lane] != gold {
            return Err(format!("lane {lane}: batch product diverged from gold"));
        }
        let (scalar_product, scalar_stats, scalar_array) =
            solo_run(width, BackendKind::Scalar, a, b);
        if products[lane] != scalar_product {
            return Err(format!(
                "lane {lane}: batch product diverged from scalar solo run"
            ));
        }
        if stats != scalar_stats {
            return Err(format!(
                "lane {lane}: batch stats {stats:?} != scalar solo {scalar_stats:?}"
            ));
        }
        let (default_product, default_stats, _) =
            solo_run(width, BackendKind::default_kind(), a, b);
        if products[lane] != default_product || stats != default_stats {
            return Err(format!(
                "lane {lane}: batch diverged from default-backend solo run"
            ));
        }
        // Per-lane final state and wear, cell for cell: lane `lane` of
        // the batch array must be indistinguishable from the solo
        // array's cells (value, write count, fault).
        for c in 0..cols {
            let lane_cell = sliced
                .lane_cell(lane, 0, c)
                .map_err(|e| format!("lane {lane}: lane_cell({c}): {e}"))?;
            let solo_cell = scalar_array.cell(0, c).unwrap();
            if lane_cell != solo_cell {
                return Err(format!(
                    "lane {lane}: cell {c} diverged: batch {lane_cell:?} vs solo {solo_cell:?}"
                ));
            }
        }
        if EnduranceReport::from_lane(&sliced, lane) != EnduranceReport::from_array(&scalar_array) {
            return Err(format!("lane {lane}: endurance report diverged from solo"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fuzzed batches (random lane count 1..=64, ragged widths within
    /// the bucket, adversarial extremes mixed in) triangulate clean on
    /// every lane.
    #[test]
    fn every_lane_triangulates_against_scalar_and_gold(seed in any::<u64>()) {
        let batch = BatchGen::new(seed).next_batch(10);
        if let Err(err) = triangulate(&batch, None) {
            prop_assert!(false, "seed {}: {}", seed, err);
        }
    }

    /// Lane isolation: one adversarial lane (all-ones, all-zeros, or
    /// max-width operands) injected into a full 64-lane batch leaves
    /// every other lane's product, cycles, state and wear
    /// bit-identical to a solo run. The harness compares *every* lane
    /// to its own solo reference, so a clean pass is exactly the
    /// isolation property.
    #[test]
    fn adversarial_lane_cannot_disturb_its_neighbours(
        operands in proptest::collection::vec(any::<u16>(), 64),
        adv_lane in 0usize..64,
        shape in 0usize..3,
    ) {
        let width = 8;
        let bits = |v: u16| (0..width).map(|i| v >> i & 1 == 1).collect::<Vec<bool>>();
        let mut lanes: Vec<(Vec<bool>, Vec<bool>)> = operands
            .iter()
            .map(|&v| (bits(v & 0xff), bits(v >> 8)))
            .collect();
        lanes[adv_lane] = match shape {
            0 => (vec![true; width], vec![true; width]),   // all-ones
            1 => (vec![false; width], vec![false; width]), // all-zeros
            // max-width: top bit forced on both operands
            _ => (bits(operands[adv_lane] | 0x80), bits(operands[adv_lane] >> 8 | 0x80)),
        };
        let batch = LaneBatch { width, lanes };
        if let Err(err) = triangulate(&batch, None) {
            prop_assert!(false, "adv lane {} shape {}: {}", adv_lane, shape, err);
        }
    }
}

/// Pinned seeds so harness failures replay without the proptest
/// shrinker.
#[test]
fn pinned_batches_triangulate() {
    for seed in [0u64, 1, 0xdead_beef, 0x5eed] {
        let batch = BatchGen::new(seed).next_batch(12);
        triangulate(&batch, None).unwrap_or_else(|err| panic!("pinned seed {seed:#x}: {err}"));
    }
}

/// Mutant: cross-wiring two lanes' products (the observable effect of
/// a lane-bleed bug in the sliced backend) must trip the harness —
/// evidence the triangulation actually discriminates lanes rather
/// than comparing aggregates.
#[test]
fn lane_bleed_mutant_is_caught() {
    let mut gen = BatchGen::new(0xb1eed);
    loop {
        let batch = gen.next_batch(8);
        if batch.lanes.len() < 2 {
            continue;
        }
        let pairs = to_pairs(&batch);
        // Find two lanes whose expected products differ, so the swap
        // is observable.
        let golds: Vec<Uint> = pairs.iter().map(|(a, b)| schoolbook::mul(a, b)).collect();
        let Some(j) = (1..golds.len()).find(|&j| golds[j] != golds[0]) else {
            continue;
        };
        triangulate(&batch, None).expect("unmutated batch must triangulate clean");
        let err = triangulate(&batch, Some((0, j)))
            .expect_err("cross-wired lanes must fail triangulation");
        assert!(
            err.contains("diverged"),
            "error must name a divergence, got: {err}"
        );
        return;
    }
}

/// The batch operand-loading program is trace-identical to the solo
/// loader: same op count, same trace events (a lane-word write traces
/// as the same `write` span with the same `row` and `bits` as a scalar
/// write), same cycle cost.
#[test]
fn batch_load_trace_matches_solo_load_trace() {
    let width = 8;
    let mult = RowMultiplier::new(width);
    let cols = mult.required_cols();
    let pairs: Vec<(Uint, Uint)> = (0..5u64)
        .map(|l| (Uint::from_u64(0xa5 ^ l), Uint::from_u64(0x3c ^ l)))
        .collect();

    let run = |array: &mut Crossbar, program: &[cim_crossbar::MicroOp]| -> (u64, Vec<Event>) {
        let tracer = Tracer::recording();
        let track = tracer.track(tracer.process("xbar"), "ops");
        let mut exec = Executor::new(array);
        exec.attach_tracer(&tracer, track);
        for op in program {
            exec.step(op).expect("load program must execute");
        }
        let events = tracer.finish().expect("recording tracer").events;
        (exec.stats().cycles, events)
    };

    let mut sliced = Crossbar::new_sliced(1, cols, pairs.len()).unwrap();
    let (a, b) = cim_logic::pair_lanes(&pairs, width);
    let batch_prog = mult.load_lanes_program(0, 0, &a, &b);
    let (batch_cycles, batch_trace) = run(&mut sliced, &batch_prog);

    let mut solo = Crossbar::with_backend(1, cols, BackendKind::Scalar).unwrap();
    let solo_prog = mult.load_program(0, 0, &pairs[0].0, &pairs[0].1);
    let (solo_cycles, solo_trace) = run(&mut solo, &solo_prog);

    assert_eq!(batch_prog.len(), solo_prog.len(), "same op count");
    assert_eq!(batch_cycles, solo_cycles, "same cycle cost");
    assert!(!solo_trace.is_empty());
    assert_eq!(batch_trace, solo_trace, "same trace events");
}

/// Runs one corner batch of `lanes` `n`-bit pairs at `opt` three ways
/// — `multiply_batch`, the chained `Uint` stage adapters, and a solo
/// `multiply` per lane — and checks that they agree on every product,
/// the stage cycles and every lane's per-stage endurance.
fn assert_batch_paths_agree(n: usize, lanes: usize, opt: OptLevel, seed: u64) {
    let batch = BatchGen::new(seed).corner_batch(n, lanes);
    let pairs = to_pairs(&batch);
    let what = format!("n = {n}, {lanes} lanes, {opt:?}, seed {seed:#x}");
    let mult = KaratsubaCimMultiplier::with_opt_level(n, opt).unwrap();
    let whole = mult
        .multiply_batch(&pairs)
        .unwrap_or_else(|e| panic!("{what}: multiply_batch: {e}"));

    let pre = PrecomputeStage::with_opt_level(n, opt)
        .unwrap()
        .run_batch(&pairs)
        .unwrap();
    let mid = MultiplyStage::with_opt_level(n, opt)
        .unwrap()
        .run_batch(&pre.a_leaves, &pre.b_leaves)
        .unwrap();
    let post = PostcomputeStage::with_opt_level(n, opt)
        .unwrap()
        .run_batch(&mid.products)
        .unwrap();
    assert_eq!(post.products, whole.products, "{what}: adapter products");
    assert_eq!(
        [pre.stats.cycles, mid.cycles, post.stats.cycles],
        whole.stage_cycles,
        "{what}: adapter cycles"
    );
    assert_eq!(
        [pre.endurance, mid.endurance, post.endurance],
        whole.lane_endurance,
        "{what}: adapter wear"
    );

    for (lane, (a, b)) in pairs.iter().enumerate() {
        let solo = mult.multiply(a, b).unwrap();
        assert_eq!(
            whole.products[lane], solo.product,
            "{what}: lane {lane} product"
        );
        assert_eq!(
            whole.stage_cycles, solo.report.stage_cycles,
            "{what}: cycles"
        );
        for stage in 0..3 {
            assert_eq!(
                whole.lane_endurance[stage][lane], solo.report.endurance[stage],
                "{what}: lane {lane}, stage {stage} wear"
            );
        }
    }
}

/// Every lane count at every opt level for `n`-bit operands: a single
/// lane, two, a ragged 37, one short of a full word and a full word.
fn assert_batch_paths_agree_at(n: usize) {
    for (i, lanes) in [1usize, 2, 37, 63, 64].into_iter().enumerate() {
        for opt in [OptLevel::O0, OptLevel::O1, OptLevel::O2, OptLevel::O3] {
            assert_batch_paths_agree(n, lanes, opt, (n * 8 + i) as u64);
        }
    }
}

#[test]
fn multiply_batch_adapters_and_solo_runs_agree_at_16_bits() {
    assert_batch_paths_agree_at(16);
}

#[test]
fn multiply_batch_adapters_and_solo_runs_agree_at_64_bits() {
    assert_batch_paths_agree_at(64);
}

#[test]
fn multiply_batch_adapters_and_solo_runs_agree_at_384_bits() {
    assert_batch_paths_agree_at(384);
}
