//! Heap budget of the curve arithmetic, counted by a global allocator.
//!
//! Points hold fixed-width Montgomery field elements, so warm group
//! operations and Jacobian equality allocate nothing; only the two
//! affine `Uint` coordinates `to_affine` returns touch the heap. The
//! counters are per thread, so the test harness's other threads never
//! leak into a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cim_bigint::Uint;
use cim_modmul::ec::{Curve, Point};

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

fn curves() -> Vec<(&'static str, Curve)> {
    vec![
        (
            "bn254",
            Curve::new(
                cim_modmul::fields::bn254_base(),
                Uint::zero(),
                Uint::from_u64(3),
            )
            .unwrap(),
        ),
        ("bls12-381", Curve::bls12_381_g1().unwrap()),
    ]
}

/// Two distinct finite points of `c`, `P` and `3P`, both with `Z ≠ 1`.
fn operands(c: &Curve) -> (Point, Point) {
    let g = c.find_point();
    (c.double(&g), c.scalar_mul(&Uint::from_u64(3), &g))
}

#[test]
fn group_operations_and_equality_allocate_nothing() {
    for (name, c) in curves() {
        let (p, q) = operands(&c);
        let calls: [(&str, &dyn Fn() -> bool); 4] = [
            ("add", &|| c.add(&p, &q).is_infinity()),
            ("add self", &|| c.add(&p, &p).is_infinity()),
            ("double", &|| c.double(&p).is_infinity()),
            ("points_equal", &|| c.points_equal(&p, &q)),
        ];
        for (op, f) in calls {
            let (allocs, _) = per_call(2, f);
            assert_eq!(allocs, 0, "{op} on {name}");
        }
    }
}

#[test]
fn scalar_mul_and_to_affine_budgets() {
    for (name, c) in curves() {
        let (p, _) = operands(&c);
        // A 12-bit scalar, the load generator's default, and a
        // full-width one: the double-and-add and ladder loops read
        // the scalar's bits in place.
        for k in [Uint::from_u64(0xA5C), c.modulus().sub(&Uint::from_u64(2))] {
            let (allocs, _) = per_call(2, || c.scalar_mul(&k, &p));
            assert_eq!(allocs, 0, "scalar_mul on {name}");
            let (allocs, _) = per_call(2, || c.scalar_mul_ladder(&k, &p));
            assert_eq!(allocs, 0, "scalar_mul_ladder on {name}");
        }
        // Measured 2: the returned affine coordinates.
        let (allocs, _) = per_call(2, || c.to_affine(&p));
        assert_eq!(allocs, 2, "to_affine on {name}");
    }
}
