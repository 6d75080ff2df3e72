//! Short-Weierstrass elliptic-curve arithmetic — the pairing-based ZKP
//! workload (paper Sec. I: "384-bit elliptic curve points", citing
//! PipeZK \[2\] and MSM engines \[3\], \[18\]).
//!
//! Points are kept in Jacobian projective coordinates so group
//! operations are inversion-free chains of field multiplications,
//! squarings and additions — precisely the mix the CIM multiplier and
//! adder execute. Every group operation counts its field
//! multiplications, so MSM-scale workloads can be projected onto the
//! paper's hardware (see [`EcOps`] and the `zkp_msm` example).
//!
//! Coordinates are fixed-width Montgomery-form [`Fp`] elements
//! ([`crate::fp`]): group operations and [`Curve::points_equal`]
//! allocate nothing and invert nothing. [`Uint`] values enter at
//! [`Curve::point`] and leave at [`Curve::to_affine`], the one call
//! that inverts.

use crate::fp::{Fp, FpContext, FpError};
use crate::CimCost;
use cim_bigint::Uint;
use std::cell::Cell;
use std::error::Error;
use std::fmt;
use std::rc::Rc;

/// Error constructing a curve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CurveError {
    /// Field setup failed: a modulus below 3, even, or wider than
    /// 384 bits.
    Field(FpError),
    /// The discriminant `4a³ + 27b²` is zero (singular curve).
    Singular,
}

impl fmt::Display for CurveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CurveError::Field(e) => write!(f, "curve field: {e}"),
            CurveError::Singular => write!(f, "singular curve: 4a³ + 27b² = 0"),
        }
    }
}

impl Error for CurveError {}

impl From<FpError> for CurveError {
    fn from(e: FpError) -> Self {
        CurveError::Field(e)
    }
}

/// Field-multiplication counters (for CIM cost projection).
#[derive(Debug, Default)]
struct OpCounters {
    muls: Cell<u64>,
    adds: Cell<u64>,
}

/// A short-Weierstrass curve `y² = x³ + ax + b` over `Z_p`.
#[derive(Debug, Clone)]
pub struct Curve {
    field: FpContext,
    a: Fp,
    b: Fp,
    ops: Rc<OpCounters>,
}

/// Snapshot of the field-operation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EcOps {
    /// Field multiplications (including squarings).
    pub field_muls: u64,
    /// Field additions/subtractions.
    pub field_adds: u64,
}

impl EcOps {
    /// Projects these operations onto the paper's CIM hardware at the
    /// curve's field width.
    pub fn cim_cost(&self, field_bits: usize) -> CimCost {
        // One field mul = one Montgomery triple-pass (3 multiplier
        // invocations) in steady state.
        CimCost::compose(field_bits, 3 * self.field_muls, self.field_adds)
    }
}

/// A point in Jacobian coordinates (Montgomery form); `z = 0` encodes
/// infinity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Point {
    x: Fp,
    y: Fp,
    z: Fp,
}

impl Point {
    /// The point at infinity (group identity).
    pub fn infinity() -> Self {
        Point {
            x: Fp::ZERO,
            y: Fp::ZERO,
            z: Fp::ZERO,
        }
    }

    /// Whether this is the identity.
    pub fn is_infinity(&self) -> bool {
        self.z.is_zero()
    }
}

impl Curve {
    /// Creates the curve, validating non-singularity.
    ///
    /// # Errors
    ///
    /// Returns [`CurveError`] for a bad field or singular parameters.
    pub fn new(p: Uint, a: Uint, b: Uint) -> Result<Self, CurveError> {
        let field = FpContext::new(p)?;
        let a = field.from_uint(&a);
        let b = field.from_uint(&b);
        // 4a³ + 27b² ≠ 0 (mod p)
        let a3 = field.mul(&field.square(&a), &a);
        let b2 = field.square(&b);
        let disc = field.add(
            &field.mul(&field.from_uint(&Uint::from_u64(4)), &a3),
            &field.mul(&field.from_uint(&Uint::from_u64(27)), &b2),
        );
        if disc.is_zero() {
            return Err(CurveError::Singular);
        }
        Ok(Curve {
            field,
            a,
            b,
            ops: Rc::new(OpCounters::default()),
        })
    }

    /// The BLS12-381 G1 curve `y² = x³ + 4` (381-bit field).
    ///
    /// # Errors
    ///
    /// Never fails for the fixed parameters.
    pub fn bls12_381_g1() -> Result<Self, CurveError> {
        Curve::new(
            crate::fields::bls12_381_base(),
            Uint::zero(),
            Uint::from_u64(4),
        )
    }

    /// The field modulus.
    pub fn modulus(&self) -> &Uint {
        self.field.modulus()
    }

    fn fmul(&self, x: &Fp, y: &Fp) -> Fp {
        self.ops.muls.set(self.ops.muls.get() + 1);
        self.field.mul(x, y)
    }

    fn fadd(&self, x: &Fp, y: &Fp) -> Fp {
        self.ops.adds.set(self.ops.adds.get() + 1);
        self.field.add(x, y)
    }

    fn fsub(&self, x: &Fp, y: &Fp) -> Fp {
        self.ops.adds.set(self.ops.adds.get() + 1);
        self.field.sub(x, y)
    }

    fn fdbl(&self, x: &Fp) -> Fp {
        self.fadd(x, x)
    }

    /// Resets and returns the accumulated operation counters.
    pub fn take_ops(&self) -> EcOps {
        let out = EcOps {
            field_muls: self.ops.muls.get(),
            field_adds: self.ops.adds.get(),
        };
        self.ops.muls.set(0);
        self.ops.adds.set(0);
        out
    }

    /// `x³ + ax + b` (uncounted).
    fn rhs(&self, x: &Fp) -> Fp {
        let f = &self.field;
        let x3 = f.mul(&f.square(x), x);
        f.add(&f.add(&x3, &f.mul(&self.a, x)), &self.b)
    }

    /// Creates an affine point, checking the curve equation.
    ///
    /// Returns `None` if `(x, y)` is not on the curve.
    pub fn point(&self, x: &Uint, y: &Uint) -> Option<Point> {
        let x = self.field.from_uint(x);
        let y = self.field.from_uint(y);
        (self.field.square(&y) == self.rhs(&x)).then(|| Point {
            x,
            y,
            z: self.field.one(),
        })
    }

    /// Finds some point on the curve by scanning x and taking a
    /// square root (requires `p ≡ 3 (mod 4)`).
    ///
    /// # Panics
    ///
    /// Panics if `p ≢ 3 (mod 4)` or no point is found within 1000
    /// abscissae (practically impossible for real curves).
    pub fn find_point(&self) -> Point {
        let p = self.modulus();
        assert_eq!(
            p.low_bits(2),
            Uint::from_u64(3),
            "sqrt shortcut needs p ≡ 3 (mod 4)"
        );
        let exp = p.add(&Uint::one()).shr(2); // (p+1)/4
        for xi in 1u64..1000 {
            let x = self.field.from_uint(&Uint::from_u64(xi));
            let rhs = self.rhs(&x);
            let y = self.field.pow(&rhs, &exp);
            if self.field.square(&y) == rhs {
                return Point {
                    x,
                    y,
                    z: self.field.one(),
                };
            }
        }
        unreachable!("no point found on a non-singular curve in 1000 tries");
    }

    /// Converts to affine coordinates; `None` for infinity.
    pub fn to_affine(&self, pt: &Point) -> Option<(Uint, Uint)> {
        if pt.is_infinity() {
            return None;
        }
        let f = &self.field;
        let z_inv = f.inv(&pt.z).expect("z coprime to prime p");
        let z2 = f.square(&z_inv);
        let z3 = f.mul(&z2, &z_inv);
        Some((f.to_uint(&f.mul(&pt.x, &z2)), f.to_uint(&f.mul(&pt.y, &z3))))
    }

    /// Jacobian point doubling (general `a`).
    pub fn double(&self, pt: &Point) -> Point {
        if pt.is_infinity() || pt.y.is_zero() {
            return Point::infinity();
        }
        let xx = self.fmul(&pt.x, &pt.x); // A = X²
        let yy = self.fmul(&pt.y, &pt.y); // B = Y²
        let yyyy = self.fmul(&yy, &yy); // C = B²
                                        // D = 2((X+B)² − A − C)
        let xb = self.fadd(&pt.x, &yy);
        let xb2 = self.fmul(&xb, &xb);
        let d = self.fdbl(&self.fsub(&self.fsub(&xb2, &xx), &yyyy));
        // E = 3A + a·Z⁴
        let zz = self.fmul(&pt.z, &pt.z);
        let z4 = self.fmul(&zz, &zz);
        let e = self.fadd(
            &self.fadd(&xx, &self.fadd(&xx, &xx)),
            &self.fmul(&self.a, &z4),
        );
        let f = self.fmul(&e, &e); // F = E²
        let x3 = self.fsub(&self.fsub(&f, &d), &d);
        let c8 = self.fdbl(&self.fdbl(&self.fdbl(&yyyy)));
        let y3 = self.fsub(&self.fmul(&e, &self.fsub(&d, &x3)), &c8);
        let z3 = self.fdbl(&self.fmul(&pt.y, &pt.z));
        Point {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Jacobian point addition.
    pub fn add(&self, p1: &Point, p2: &Point) -> Point {
        if p1.is_infinity() {
            return p2.clone();
        }
        if p2.is_infinity() {
            return p1.clone();
        }
        let z1z1 = self.fmul(&p1.z, &p1.z);
        let z2z2 = self.fmul(&p2.z, &p2.z);
        let u1 = self.fmul(&p1.x, &z2z2);
        let u2 = self.fmul(&p2.x, &z1z1);
        let s1 = self.fmul(&p1.y, &self.fmul(&z2z2, &p2.z));
        let s2 = self.fmul(&p2.y, &self.fmul(&z1z1, &p1.z));
        if u1 == u2 {
            return if s1 == s2 {
                self.double(p1)
            } else {
                Point::infinity()
            };
        }
        let h = self.fsub(&u2, &u1);
        let r = self.fsub(&s2, &s1);
        let hh = self.fmul(&h, &h);
        let hhh = self.fmul(&hh, &h);
        let v = self.fmul(&u1, &hh);
        let r2 = self.fmul(&r, &r);
        let x3 = self.fsub(&self.fsub(&r2, &hhh), &self.fdbl(&v));
        let y3 = self.fsub(&self.fmul(&r, &self.fsub(&v, &x3)), &self.fmul(&s1, &hhh));
        let z3 = self.fmul(&h, &self.fmul(&p1.z, &p2.z));
        Point {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Negates a point.
    pub fn neg(&self, pt: &Point) -> Point {
        if pt.is_infinity() {
            return Point::infinity();
        }
        Point {
            x: pt.x,
            y: self.field.neg(&pt.y),
            z: pt.z,
        }
    }

    /// Scalar multiplication `k·P` (double-and-add, MSB first).
    pub fn scalar_mul(&self, k: &Uint, pt: &Point) -> Point {
        let mut acc = Point::infinity();
        for i in (0..k.bit_len()).rev() {
            acc = self.double(&acc);
            if k.bit(i) {
                acc = self.add(&acc, pt);
            }
        }
        acc
    }

    /// Equality as group elements, without inverting: `X₁Z₂² = X₂Z₁²`
    /// and `Y₁Z₂³ = Y₂Z₁³` (uncounted).
    pub fn points_equal(&self, p1: &Point, p2: &Point) -> bool {
        match (p1.is_infinity(), p2.is_infinity()) {
            (true, true) => true,
            (false, false) => {
                let f = &self.field;
                let z1z1 = f.square(&p1.z);
                let z2z2 = f.square(&p2.z);
                f.mul(&p1.x, &z2z2) == f.mul(&p2.x, &z1z1)
                    && f.mul(&p1.y, &f.mul(&z2z2, &p2.z)) == f.mul(&p2.y, &f.mul(&z1z1, &p1.z))
            }
            _ => false,
        }
    }

    /// Multi-scalar multiplication `Σ k_i·P_i` by Pippenger's bucket
    /// method with window size `window` bits — the zkSNARK proving
    /// kernel (paper Sec. I / \[3\], \[18\]).
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length or `window` is 0 or > 24.
    pub fn msm(&self, scalars: &[Uint], points: &[Point], window: u32) -> Point {
        assert_eq!(scalars.len(), points.len(), "length mismatch");
        assert!((1..=24).contains(&window), "window must be in 1..=24");
        if scalars.is_empty() {
            return Point::infinity();
        }
        let max_bits = scalars.iter().map(Uint::bit_len).max().unwrap_or(0);
        if max_bits == 0 {
            return Point::infinity();
        }
        let w = window as usize;
        let num_windows = max_bits.div_ceil(w);
        let num_buckets = (1usize << w) - 1;

        let mut result = Point::infinity();
        for win in (0..num_windows).rev() {
            // Shift the running result left by one window.
            for _ in 0..w {
                result = self.double(&result);
            }
            // Scatter points into buckets by their window digit.
            let mut buckets = vec![Point::infinity(); num_buckets];
            for (k, p) in scalars.iter().zip(points) {
                let mut digit = 0usize;
                for b in 0..w {
                    let idx = win * w + b;
                    if idx < k.bit_len() && k.bit(idx) {
                        digit |= 1 << b;
                    }
                }
                if digit != 0 {
                    buckets[digit - 1] = self.add(&buckets[digit - 1], p);
                }
            }
            // Aggregate: Σ d·bucket_d with the running-sum trick
            // (one pass, 2·(buckets−1) additions).
            let mut running = Point::infinity();
            let mut window_sum = Point::infinity();
            for bucket in buckets.iter().rev() {
                running = self.add(&running, bucket);
                window_sum = self.add(&window_sum, &running);
            }
            result = self.add(&result, &window_sum);
        }
        result
    }

    /// Constant-sequence scalar multiplication via the Montgomery
    /// ladder — same double/add count for every scalar of a given
    /// bit length (a side-channel-uniformity property that also keeps
    /// the CIM pipeline's occupancy data-independent).
    pub fn scalar_mul_ladder(&self, k: &Uint, pt: &Point) -> Point {
        let mut r0 = Point::infinity();
        let mut r1 = pt.clone();
        for i in (0..k.bit_len()).rev() {
            if k.bit(i) {
                r0 = self.add(&r0, &r1);
                r1 = self.double(&r1);
            } else {
                r1 = self.add(&r0, &r1);
                r0 = self.double(&r0);
            }
        }
        r0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_curve() -> Curve {
        // y² = x³ + 2x + 3 over F_103 (non-singular, 103 ≡ 3 mod 4).
        Curve::new(Uint::from_u64(103), Uint::from_u64(2), Uint::from_u64(3)).unwrap()
    }

    /// All affine points of the toy curve, by brute force.
    fn toy_points(c: &Curve) -> Vec<Point> {
        let mut pts = Vec::new();
        for x in 0u64..103 {
            for y in 0u64..103 {
                if let Some(p) = c.point(&Uint::from_u64(x), &Uint::from_u64(y)) {
                    pts.push(p);
                }
            }
        }
        pts
    }

    #[test]
    fn rejects_singular_curves() {
        // y² = x³ over any field is singular (a = b = 0).
        let err = Curve::new(Uint::from_u64(97), Uint::zero(), Uint::zero()).unwrap_err();
        assert_eq!(err, CurveError::Singular);
    }

    #[test]
    fn rejects_even_and_wide_moduli() {
        let curve = |p: Uint| Curve::new(p, Uint::one(), Uint::one()).unwrap_err();
        assert_eq!(
            curve(Uint::from_u64(104)),
            CurveError::Field(FpError::EvenModulus)
        );
        assert_eq!(
            curve(Uint::pow2(384).add(&Uint::from_u64(231))),
            CurveError::Field(FpError::TooWide { bits: 385 })
        );
    }

    #[test]
    fn toy_group_closure_and_commutativity() {
        let c = toy_curve();
        let pts = toy_points(&c);
        assert!(!pts.is_empty());
        for i in (0..pts.len()).step_by(7) {
            for j in (0..pts.len()).step_by(11) {
                let sum = c.add(&pts[i], &pts[j]);
                if let Some((x, y)) = c.to_affine(&sum) {
                    assert!(c.point(&x, &y).is_some(), "closure violated");
                }
                assert!(c.points_equal(&sum, &c.add(&pts[j], &pts[i])));
            }
        }
    }

    #[test]
    fn toy_group_associativity_samples() {
        let c = toy_curve();
        let pts = toy_points(&c);
        for k in (0..pts.len().saturating_sub(3)).step_by(13) {
            let (p, q, r) = (&pts[k], &pts[k + 1], &pts[k + 2]);
            let left = c.add(&c.add(p, q), r);
            let right = c.add(p, &c.add(q, r));
            assert!(c.points_equal(&left, &right));
        }
    }

    #[test]
    fn identity_and_inverse_laws() {
        let c = toy_curve();
        let p = c.find_point();
        assert!(c.points_equal(&c.add(&p, &Point::infinity()), &p));
        let sum = c.add(&p, &c.neg(&p));
        assert!(sum.is_infinity());
        assert!(c.scalar_mul(&Uint::zero(), &p).is_infinity());
        assert!(c.points_equal(&c.scalar_mul(&Uint::one(), &p), &p));
    }

    #[test]
    fn scalar_multiplication_is_additive() {
        let c = toy_curve();
        let p = c.find_point();
        for (m, n) in [(2u64, 3u64), (5, 8), (20, 17)] {
            let left = c.scalar_mul(&Uint::from_u64(m + n), &p);
            let right = c.add(
                &c.scalar_mul(&Uint::from_u64(m), &p),
                &c.scalar_mul(&Uint::from_u64(n), &p),
            );
            assert!(c.points_equal(&left, &right), "({m}+{n})P");
        }
    }

    #[test]
    fn double_equals_add_self() {
        let c = toy_curve();
        let p = c.find_point();
        assert!(c.points_equal(&c.double(&p), &c.add(&p, &p)));
    }

    #[test]
    fn bls12_381_point_operations() {
        let c = Curve::bls12_381_g1().unwrap();
        let p = c.find_point();
        // (m+n)P = mP + nP on the real 381-bit curve.
        let m = Uint::from_u64(0xDEAD_BEEF);
        let n = Uint::from_u64(0x1234_5678);
        let left = c.scalar_mul(&m.add(&n), &p);
        let right = c.add(&c.scalar_mul(&m, &p), &c.scalar_mul(&n, &p));
        assert!(c.points_equal(&left, &right));
    }

    #[test]
    fn msm_matches_naive_sum() {
        let c = toy_curve();
        let base = c.find_point();
        let points: Vec<Point> = (1..=6u64)
            .map(|i| c.scalar_mul(&Uint::from_u64(i), &base))
            .collect();
        let scalars: Vec<Uint> = [13u64, 0, 255, 7, 100, 1]
            .iter()
            .map(|&k| Uint::from_u64(k))
            .collect();
        let naive = scalars
            .iter()
            .zip(&points)
            .fold(Point::infinity(), |acc, (k, p)| {
                c.add(&acc, &c.scalar_mul(k, p))
            });
        for window in [1u32, 3, 4, 8] {
            let fast = c.msm(&scalars, &points, window);
            assert!(c.points_equal(&fast, &naive), "window {window}");
        }
    }

    #[test]
    fn msm_edge_cases() {
        let c = toy_curve();
        assert!(c.msm(&[], &[], 4).is_infinity());
        let p = c.find_point();
        assert!(c
            .msm(&[Uint::zero()], std::slice::from_ref(&p), 4)
            .is_infinity());
        let one = c.msm(&[Uint::one()], std::slice::from_ref(&p), 4);
        assert!(c.points_equal(&one, &p));
    }

    #[test]
    fn ladder_matches_double_and_add() {
        let c = toy_curve();
        let p = c.find_point();
        for k in [0u64, 1, 2, 77, 1023, 65537] {
            let k = Uint::from_u64(k);
            assert!(
                c.points_equal(&c.scalar_mul_ladder(&k, &p), &c.scalar_mul(&k, &p)),
                "k = {k}"
            );
        }
    }

    #[test]
    fn pippenger_beats_naive_on_field_muls() {
        let c = toy_curve();
        let base = c.find_point();
        let n = 24usize;
        let points: Vec<Point> = (1..=n as u64)
            .map(|i| c.scalar_mul(&Uint::from_u64(i), &base))
            .collect();
        let scalars: Vec<Uint> = (0..n as u64)
            .map(|i| Uint::from_u64(0x8000_0000_0000_0001u64.wrapping_mul(i + 3) >> 1))
            .collect();
        c.take_ops();
        let naive = scalars
            .iter()
            .zip(&points)
            .fold(Point::infinity(), |acc, (k, p)| {
                c.add(&acc, &c.scalar_mul(k, p))
            });
        let naive_ops = c.take_ops();
        let fast = c.msm(&scalars, &points, 8);
        let fast_ops = c.take_ops();
        assert!(c.points_equal(&fast, &naive));
        assert!(
            fast_ops.field_muls < naive_ops.field_muls,
            "pippenger {} vs naive {}",
            fast_ops.field_muls,
            naive_ops.field_muls
        );
    }

    #[test]
    fn jacobian_equality_matches_affine_comparison() {
        let bn254 =
            Curve::new(crate::fields::bn254_base(), Uint::zero(), Uint::from_u64(3)).unwrap();
        for c in [toy_curve(), bn254, Curve::bls12_381_g1().unwrap()] {
            let g = c.find_point();
            let mut rng = cim_bigint::rng::UintRng::seeded(26);
            let mut pts = vec![Point::infinity(), g.clone(), c.neg(&g), c.double(&g)];
            for _ in 0..6 {
                let k = rng.uniform(40);
                // The same multiple by two routes: equal, with
                // different Jacobian coordinates.
                pts.push(c.scalar_mul(&k, &g));
                pts.push(c.scalar_mul_ladder(&k, &g));
                pts.push(c.neg(&c.scalar_mul(&k, &g)));
            }
            c.take_ops();
            for p1 in &pts {
                for p2 in &pts {
                    assert_eq!(
                        c.points_equal(p1, p2),
                        c.to_affine(p1) == c.to_affine(p2),
                        "{p1:?} vs {p2:?} over {}",
                        c.modulus()
                    );
                }
            }
            // Equality is uncounted.
            assert_eq!(
                c.take_ops(),
                EcOps {
                    field_muls: 0,
                    field_adds: 0
                }
            );
            // P / −P share X; P / 2P differ; infinity equals only
            // itself.
            assert!(!c.points_equal(&g, &c.neg(&g)));
            assert!(!c.points_equal(&g, &c.double(&g)));
            assert!(c.points_equal(&Point::infinity(), &c.add(&g, &c.neg(&g))));
            assert!(!c.points_equal(&Point::infinity(), &g));
            assert!(!c.points_equal(&g, &Point::infinity()));
            // Some equal pair differs in its Jacobian coordinates.
            assert!(pts
                .iter()
                .any(|p1| pts.iter().any(|p2| p1 != p2 && c.points_equal(p1, p2))));
        }
    }

    #[test]
    fn op_counters_track_field_muls() {
        let c = toy_curve();
        let p = c.find_point();
        c.take_ops(); // reset
        let _ = c.double(&p);
        let dbl_ops = c.take_ops();
        // Jacobian doubling: ~8 field muls (with a ≠ 0).
        assert!((6..=10).contains(&dbl_ops.field_muls), "{dbl_ops:?}");
        let _ = c.add(&p, &c.double(&p));
        let _ = c.take_ops();

        let k = Uint::from_u64(0xFFFF);
        let _ = c.scalar_mul(&k, &p);
        let ops = c.take_ops();
        // 16 doublings + ~16 additions.
        assert!(ops.field_muls > 16 * 8, "{ops:?}");
        let cost = ops.cim_cost(384);
        assert!(cost.cycles > 0);
        assert_eq!(cost.multiplications, 3 * ops.field_muls);
    }
}
