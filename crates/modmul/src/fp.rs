//! Fixed-width Montgomery field arithmetic for the curve layer.
//!
//! [`Fp`] is a prime-field element of at most [`MAX_LIMBS`] `u64`
//! limbs (384 bits, enough for BLS12-381) held in Montgomery form
//! `aR mod p`, `R = 2^(64·n)` for the modulus's `n` live limbs. Every
//! element is fully reduced (`< p`) and its limbs above `n` are zero,
//! so two elements are equal exactly when their limbs are. Arithmetic
//! runs in place on the limb arrays with no heap allocation:
//!
//! * multiply — CIOS Montgomery multiplication with one conditional
//!   subtraction, unrolled per limb count;
//! * add, subtract, negate — carry/borrow chains with one
//!   conditional correction;
//! * inverse — binary extended Euclid over the limbs (`p` odd), one
//!   Montgomery multiply to return to form.
//!
//! Conversions to and from [`Uint`] are the only allocating calls.
//! [`MontgomeryContext`](crate::montgomery::MontgomeryContext) is the
//! same reduction over [`Uint`] with the paper's cost model; this
//! module is the host's fast path for the curve arithmetic served on
//! top of it.

use cim_bigint::Uint;
use std::error::Error;
use std::fmt;

/// Most limbs a field element carries (384 bits).
pub const MAX_LIMBS: usize = 6;

type Limbs = [u64; MAX_LIMBS];

/// Error constructing an [`FpContext`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FpError {
    /// The modulus must be at least 3.
    ModulusTooSmall,
    /// Montgomery reduction requires an odd modulus.
    EvenModulus,
    /// The modulus has more than `64 · MAX_LIMBS` bits.
    TooWide {
        /// Bit length of the rejected modulus.
        bits: usize,
    },
}

impl fmt::Display for FpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FpError::ModulusTooSmall => write!(f, "field modulus must be ≥ 3"),
            FpError::EvenModulus => write!(f, "field modulus must be odd"),
            FpError::TooWide { bits } => write!(
                f,
                "field modulus of {bits} bits exceeds {} bits",
                64 * MAX_LIMBS
            ),
        }
    }
}

impl Error for FpError {}

/// A field element in Montgomery form; see the [module docs](self).
///
/// Only the [`FpContext`] that made an element gives it meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fp(Limbs);

impl Fp {
    /// The zero element (zero in every field).
    pub const ZERO: Fp = Fp([0; MAX_LIMBS]);

    /// Whether this is zero.
    pub fn is_zero(&self) -> bool {
        self.0 == [0; MAX_LIMBS]
    }
}

/// `t + a·b + carry` as (low, high) words.
#[inline(always)]
fn mac(t: u64, a: u64, b: u64, carry: u64) -> (u64, u64) {
    let w = u128::from(t) + u128::from(a) * u128::from(b) + u128::from(carry);
    (w as u64, (w >> 64) as u64)
}

/// `a + b + carry` with the carry out.
#[inline(always)]
fn adc(a: u64, b: u64, carry: bool) -> (u64, bool) {
    let (s, c1) = a.overflowing_add(b);
    let (s, c2) = s.overflowing_add(u64::from(carry));
    (s, c1 | c2)
}

/// `a − b − borrow` with the borrow out.
#[inline(always)]
fn sbb(a: u64, b: u64, borrow: bool) -> (u64, bool) {
    let (d, b1) = a.overflowing_sub(b);
    let (d, b2) = d.overflowing_sub(u64::from(borrow));
    (d, b1 | b2)
}

/// `a += b` over the low `n` limbs; returns the carry out.
#[inline(always)]
fn add_in_place(a: &mut Limbs, b: &Limbs, n: usize) -> bool {
    let mut carry = false;
    for (x, &y) in a[..n].iter_mut().zip(&b[..n]) {
        (*x, carry) = adc(*x, y, carry);
    }
    carry
}

/// `a −= b` over the low `n` limbs; returns the borrow out.
#[inline(always)]
fn sub_in_place(a: &mut Limbs, b: &Limbs, n: usize) -> bool {
    let mut borrow = false;
    for (x, &y) in a[..n].iter_mut().zip(&b[..n]) {
        (*x, borrow) = sbb(*x, y, borrow);
    }
    borrow
}

/// `a >>= t` over the low `n` limbs for `1 ≤ t ≤ 63`, shifting the
/// low `t` bits of `top` in at bit `64n − t`.
#[inline(always)]
fn shr_bits(a: &mut Limbs, n: usize, t: u32, top: u64) {
    for i in 0..n - 1 {
        a[i] = (a[i] >> t) | (a[i + 1] << (64 - t));
    }
    a[n - 1] = (a[n - 1] >> t) | (top << (64 - t));
}

/// `a ≥ b` over the low `n` limbs.
#[inline(always)]
fn geq(a: &Limbs, b: &Limbs, n: usize) -> bool {
    for i in (0..n).rev() {
        if a[i] != b[i] {
            return a[i] > b[i];
        }
    }
    true
}

/// The limbs of `x < 2^(64·MAX_LIMBS)`, zero-extended.
fn limbs_of(x: &Uint) -> Limbs {
    let mut out = [0u64; MAX_LIMBS];
    out[..x.limbs().len()].copy_from_slice(x.limbs());
    out
}

fn is_one(a: &Limbs) -> bool {
    a[0] == 1 && a[1..].iter().all(|&l| l == 0)
}

/// CIOS Montgomery product `a·b·R⁻¹ mod p` over `N` limbs, for
/// `a, b < p`: each outer step adds `a·b_i`, then one multiple of `p`
/// that clears the low word, and shifts down a word. The sum stays
/// below `2p`, so one conditional subtraction finishes it.
#[inline(always)]
fn cios<const N: usize>(a: &Limbs, b: &Limbs, p: &Limbs, inv: u64) -> Limbs {
    let mut t = [0u64; MAX_LIMBS];
    let mut top = 0u64;
    for &bi in &b[..N] {
        let mut c = 0;
        for j in 0..N {
            (t[j], c) = mac(t[j], a[j], bi, c);
        }
        let (t_n, carry) = top.overflowing_add(c);
        let m = t[0].wrapping_mul(inv);
        let (_, mut c) = mac(t[0], m, p[0], 0);
        for j in 1..N {
            (t[j - 1], c) = mac(t[j], m, p[j], c);
        }
        let (s, c2) = t_n.overflowing_add(c);
        t[N - 1] = s;
        top = u64::from(carry) + u64::from(c2);
    }
    let mut d = t;
    let borrow = sub_in_place(&mut d, p, N);
    if top != 0 || !borrow {
        d
    } else {
        t
    }
}

/// Precomputed constants of one odd modulus; every [`Fp`] operation
/// goes through it.
#[derive(Debug, Clone)]
pub struct FpContext {
    p: Limbs,
    /// Live limbs `n` (`R = 2^(64n)`).
    n: usize,
    /// `−p⁻¹ mod 2^64`.
    inv: u64,
    /// `R mod p`: one in Montgomery form.
    one: Fp,
    /// `R² mod p`: converts into Montgomery form.
    r2: Fp,
    /// `R³ mod p`: returns an inverse to Montgomery form.
    r3: Fp,
    modulus: Uint,
}

impl FpContext {
    /// Precomputes the Montgomery constants of `p`.
    ///
    /// # Errors
    ///
    /// [`FpError`] for `p < 3`, an even `p`, or one wider than 384
    /// bits.
    pub fn new(p: Uint) -> Result<Self, FpError> {
        if p < Uint::from_u64(3) {
            return Err(FpError::ModulusTooSmall);
        }
        if !p.bit(0) {
            return Err(FpError::EvenModulus);
        }
        let n = p.limbs().len();
        if n > MAX_LIMBS {
            return Err(FpError::TooWide { bits: p.bit_len() });
        }
        // p₀⁻¹ mod 2^64 by Newton: each step doubles the valid bits
        // (p₀ is its own inverse mod 8, so 3 bits hold to start).
        let p0 = p.limbs()[0];
        let mut p0_inv = p0;
        for _ in 0..5 {
            p0_inv = p0_inv.wrapping_mul(2u64.wrapping_sub(p0.wrapping_mul(p0_inv)));
        }
        let r_pow = |k: usize| Fp(limbs_of(&Uint::pow2(64 * n * k).rem(&p)));
        Ok(FpContext {
            p: limbs_of(&p),
            n,
            inv: p0_inv.wrapping_neg(),
            one: r_pow(1),
            r2: r_pow(2),
            r3: r_pow(3),
            modulus: p,
        })
    }

    /// The modulus.
    pub fn modulus(&self) -> &Uint {
        &self.modulus
    }

    /// One, in Montgomery form.
    pub fn one(&self) -> Fp {
        self.one
    }

    /// `a·b`.
    #[inline]
    pub fn mul(&self, a: &Fp, b: &Fp) -> Fp {
        let (a, b, p, inv) = (&a.0, &b.0, &self.p, self.inv);
        Fp(match self.n {
            1 => cios::<1>(a, b, p, inv),
            2 => cios::<2>(a, b, p, inv),
            3 => cios::<3>(a, b, p, inv),
            4 => cios::<4>(a, b, p, inv),
            5 => cios::<5>(a, b, p, inv),
            _ => cios::<6>(a, b, p, inv),
        })
    }

    /// `a²`.
    pub fn square(&self, a: &Fp) -> Fp {
        self.mul(a, a)
    }

    /// `a + b`.
    #[inline]
    pub fn add(&self, a: &Fp, b: &Fp) -> Fp {
        let mut s = a.0;
        let carry = add_in_place(&mut s, &b.0, self.n);
        let mut d = s;
        let borrow = sub_in_place(&mut d, &self.p, self.n);
        Fp(if carry || !borrow { d } else { s })
    }

    /// `a − b`.
    #[inline]
    pub fn sub(&self, a: &Fp, b: &Fp) -> Fp {
        let mut d = a.0;
        if sub_in_place(&mut d, &b.0, self.n) {
            add_in_place(&mut d, &self.p, self.n);
        }
        Fp(d)
    }

    /// `−a`.
    pub fn neg(&self, a: &Fp) -> Fp {
        self.sub(&Fp::ZERO, a)
    }

    /// Converts `x` (any size; reduced mod `p` first) into Montgomery
    /// form.
    pub fn from_uint(&self, x: &Uint) -> Fp {
        let reduced;
        let x = if *x < self.modulus {
            x
        } else {
            reduced = x.rem(&self.modulus);
            &reduced
        };
        self.mul(&Fp(limbs_of(x)), &self.r2)
    }

    /// The canonical value of `a` (in `[0, p)`).
    pub fn to_uint(&self, a: &Fp) -> Uint {
        Uint::from_limbs(self.mul(a, &self.unit_raw()).0[..self.n].to_vec())
    }

    /// `base^exp` by left-to-right square-and-multiply.
    pub fn pow(&self, base: &Fp, exp: &Uint) -> Fp {
        crate::square_and_multiply(self.one, *base, exp, |a, b| self.mul(a, b))
    }

    /// `a⁻¹`, or `None` when `a` has no inverse (zero, or sharing a
    /// factor with a composite `p`).
    ///
    /// Binary extended Euclid on the Montgomery representation
    /// `x = aR`: from `(u, v) = (x, p)` it keeps `u ≡ x₁·x` and
    /// `v ≡ x₂·x (mod p)` with `u` and `v` odd, subtracting the smaller
    /// from the larger and stripping the difference's factors of two,
    /// until `u = v = gcd(x, p)`. For a unit that yields
    /// `x₁ = x⁻¹ = a⁻¹R⁻¹`; one multiply by `R³` gives `a⁻¹R`.
    pub fn inv(&self, a: &Fp) -> Option<Fp> {
        if a.is_zero() {
            return None;
        }
        let n = self.n;
        let (mut u, mut v) = (a.0, self.p);
        let (mut x1, mut x2) = (self.unit_raw(), Fp::ZERO);
        self.strip_twos(&mut u, &mut x1.0);
        while u != v {
            if geq(&u, &v, n) {
                sub_in_place(&mut u, &v, n);
                x1 = self.sub(&x1, &x2);
                self.strip_twos(&mut u, &mut x1.0);
            } else {
                sub_in_place(&mut v, &u, n);
                x2 = self.sub(&x2, &x1);
                self.strip_twos(&mut v, &mut x2.0);
            }
        }
        is_one(&u).then(|| self.mul(&x1, &self.r3))
    }

    /// The raw limb value 1 (not one in Montgomery form).
    fn unit_raw(&self) -> Fp {
        let mut unit = Fp::ZERO;
        unit.0[0] = 1;
        unit
    }

    /// Divides the nonzero `w` by its largest power of two `2^k` and
    /// `x < p` by the same `2^k` mod `p`, at most 63 bits a step. A
    /// step of `t` bits adds the multiple `m·p` that clears `x`'s low
    /// `t` bits (`m = x·(−p⁻¹) mod 2^t`) and shifts: the sum is below
    /// `2^t·p`, so the quotient is below `p`, and the sum's carry out
    /// of the top limb is shifted back in.
    fn strip_twos(&self, w: &mut Limbs, x: &mut Limbs) {
        let n = self.n;
        loop {
            let t = w[0].trailing_zeros().min(63);
            if t == 0 {
                return;
            }
            shr_bits(w, n, t, 0);
            let m = x[0].wrapping_mul(self.inv) & ((1 << t) - 1);
            let mut carry = 0;
            for (xj, &pj) in x[..n].iter_mut().zip(&self.p[..n]) {
                (*xj, carry) = mac(*xj, m, pj, carry);
            }
            shr_bits(x, n, t, carry);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_moduli() {
        assert_eq!(
            FpContext::new(Uint::from_u64(2)).unwrap_err(),
            FpError::ModulusTooSmall
        );
        assert_eq!(
            FpContext::new(Uint::from_u64(100)).unwrap_err(),
            FpError::EvenModulus
        );
        let wide = Uint::pow2(384).add(&Uint::one());
        assert_eq!(
            FpContext::new(wide).unwrap_err(),
            FpError::TooWide { bits: 385 }
        );
        assert!(FpContext::new(Uint::pow2(384).sub(&Uint::one())).is_ok());
    }

    #[test]
    fn inverse_of_a_shared_factor_is_none() {
        // 15 = 3·5: 6 shares 3 with the modulus.
        let f = FpContext::new(Uint::from_u64(15)).unwrap();
        assert_eq!(f.inv(&f.from_uint(&Uint::from_u64(6))), None);
        assert_eq!(f.inv(&Fp::ZERO), None);
        let two = f.from_uint(&Uint::from_u64(2));
        let half = f.inv(&two).unwrap();
        assert_eq!(f.mul(&two, &half), f.one());
    }
}
