//! Heap budget of the multiply stage, counted by a global allocator.
//!
//! The counters are per thread, so the test harness's other threads
//! (and any test added beside these) never leak into a measurement.
//! Each bound is the measured warm count of the current code plus a
//! small margin, separately for debug builds (which also verify every
//! prologue program) and release builds: a change that makes the
//! stage allocate per lane again, or lay its shift-add wear down as
//! per-cell blocks or per-offset entries instead of window records,
//! fails here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cim_bigint::rng::UintRng;
use cim_bigint::Uint;
use cim_mir::OptLevel;
use karatsuba_cim::chunks::decompose_operand;
use karatsuba_cim::multiply::MultiplyStage;
use karatsuba_cim::precompute::PrecomputeStage;

struct Counting;

thread_local! {
    /// (allocations, bytes) requested by this thread.
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count(bytes: usize) {
    // `try_with` fails only while the thread is being torn down.
    let _ = COUNTS.try_with(|c| {
        let (n, b) = c.get();
        c.set((n + 1, b + bytes as u64));
    });
}

// SAFETY: every method forwards to `System` with the caller's layout
// and pointer unchanged; the counters are thread-local `Cell`s with a
// const initializer, so counting never allocates or re-enters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded under the caller's guarantees for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded under the caller's guarantees for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: forwarded under the caller's guarantees for `ptr`,
        // `layout` and `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocations and bytes of one call of `f`, after `warm` calls.
fn per_call<T>(warm: usize, mut f: impl FnMut() -> T) -> (u64, u64) {
    for _ in 0..warm {
        std::hint::black_box(f());
    }
    let (n0, b0) = COUNTS.with(Cell::get);
    std::hint::black_box(f());
    let (n1, b1) = COUNTS.with(Cell::get);
    (n1 - n0, b1 - b0)
}

/// Picks the bound of the build being tested.
fn bound(debug: u64, release: u64) -> u64 {
    if cfg!(debug_assertions) {
        debug
    } else {
        release
    }
}

/// One warm 64-lane, 384-bit O3 multiply stage: the nine rows' load,
/// closed-form shift-add and readback plus the per-lane wear fold.
#[test]
fn batch_multiply_stage_allocations_per_op() {
    let (n, lanes) = (384, 64);
    let mut rng = UintRng::seeded(31);
    let pairs: Vec<(Uint, Uint)> = (0..lanes)
        .map(|_| (rng.uniform(n), rng.uniform(n)))
        .collect();
    let (a, b) = cim_logic::pair_lanes(&pairs, n);
    let pre = PrecomputeStage::with_opt_level(n, OptLevel::O3).unwrap();
    let leaves = pre.run_batch_lanes(&a, &b, lanes).unwrap();
    let stage = MultiplyStage::with_opt_level(n, OptLevel::O3).unwrap();
    let (allocs, _) = per_call(3, || {
        stage
            .run_batch_lanes(&leaves.a_leaves, &leaves.b_leaves, lanes)
            .unwrap()
    });
    // Measured 454 (debug) and 382 (release); 490 in release while
    // each set multiplier bit pushed a masked wear entry, 3,954 while
    // the closed form built per-lane integers.
    let limit = bound(501, 421);
    assert!(
        allocs <= limit,
        "{allocs} allocations per 64 × {n}-bit multiply stage, budget {limit}"
    );
}

/// One warm 2048-bit O3 solo multiply stage: each row's shift-add wear
/// is three window records over one copy of the multiplier's bits,
/// not a dense block of counters.
#[test]
fn solo_multiply_stage_bytes_per_op() {
    let n = 2048;
    let mut rng = UintRng::seeded(32);
    let (a, b) = (rng.exact_bits(n), rng.exact_bits(n));
    let (da, db) = (decompose_operand(&a, n), decompose_operand(&b, n));
    let stage = MultiplyStage::with_opt_level(n, OptLevel::O3).unwrap();
    let (_, bytes) = per_call(3, || stage.run(&da.leaves, &db.leaves).unwrap());
    // Measured 177,480 (debug) and 105,192 (release); 285,768 in
    // release while each row added a dense block over its product and
    // carry cells, 508,608 while that block grew over the whole row.
    let limit = bound(187_900, 110_400);
    assert!(
        bytes <= limit,
        "{bytes} bytes allocated per {n}-bit multiply stage, budget {limit}"
    );
}
