//! A minimal signed big integer, used where intermediate values can go
//! negative: Toom-Cook evaluation at negative points (paper Sec. III-B)
//! and the Karatsuba middle term `c_m - c_h - c_l` (paper Eq. (3)).

use crate::uint::Uint;
use std::cmp::Ordering;
use std::fmt;

/// Sign-magnitude arbitrary-precision signed integer.
///
/// Zero is always stored with `negative == false`.
///
/// ```
/// use cim_bigint::{Int, Uint};
///
/// let a = Int::from(Uint::from_u64(3));
/// let b = Int::from(Uint::from_u64(5));
/// let d = &a - &b;
/// assert!(d.is_negative());
/// assert_eq!(d.magnitude(), &Uint::from_u64(2));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Int {
    negative: bool,
    magnitude: Uint,
}

impl Int {
    /// The value 0.
    pub fn zero() -> Self {
        Int::default()
    }

    /// Creates a signed value from sign and magnitude (zero forces `+`).
    pub fn new(negative: bool, magnitude: Uint) -> Self {
        let negative = negative && !magnitude.is_zero();
        Int {
            negative,
            magnitude,
        }
    }

    /// Creates the value `-m`.
    pub fn negative(magnitude: Uint) -> Self {
        Int::new(true, magnitude)
    }

    /// Creates an `Int` from an `i64`.
    pub fn from_i64(v: i64) -> Self {
        Int::new(v < 0, Uint::from_u64(v.unsigned_abs()))
    }

    /// Whether the value is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.negative
    }

    /// Whether the value is zero.
    pub fn is_zero(&self) -> bool {
        self.magnitude.is_zero()
    }

    /// The absolute value.
    pub fn magnitude(&self) -> &Uint {
        &self.magnitude
    }

    /// Converts to a `Uint` if the value is non-negative.
    pub fn to_uint(&self) -> Option<Uint> {
        if self.negative {
            None
        } else {
            Some(self.magnitude.clone())
        }
    }

    /// Converts to `Uint`, panicking with `context` if negative.
    ///
    /// # Panics
    ///
    /// Panics if the value is negative.
    pub fn expect_uint(&self, context: &str) -> Uint {
        assert!(!self.negative, "expected non-negative value: {context}");
        self.magnitude.clone()
    }

    /// `-self`.
    pub fn neg(&self) -> Int {
        Int::new(!self.negative, self.magnitude.clone())
    }

    /// `self + other`.
    pub fn add(&self, other: &Int) -> Int {
        if self.negative == other.negative {
            Int::new(self.negative, self.magnitude.add(&other.magnitude))
        } else {
            match self.magnitude.cmp(&other.magnitude) {
                Ordering::Equal => Int::zero(),
                Ordering::Greater => Int::new(self.negative, self.magnitude.sub(&other.magnitude)),
                Ordering::Less => Int::new(other.negative, other.magnitude.sub(&self.magnitude)),
            }
        }
    }

    /// `self - other`.
    pub fn sub(&self, other: &Int) -> Int {
        self.add(&other.neg())
    }

    /// `self * other` (schoolbook on magnitudes).
    pub fn mul(&self, other: &Int) -> Int {
        Int::new(
            self.negative != other.negative,
            &self.magnitude * &other.magnitude,
        )
    }

    /// `self << k`.
    pub fn shl(&self, k: usize) -> Int {
        Int::new(self.negative, self.magnitude.shl(k))
    }

    /// Exact division by a small constant, used in Toom-Cook
    /// interpolation (e.g. division by 2, 3 or 6).
    ///
    /// # Panics
    ///
    /// Panics if the division is not exact or `d == 0`.
    pub fn div_exact_limb(&self, d: u64) -> Int {
        let (q, r) = self.magnitude.div_rem_limb(d);
        assert_eq!(r, 0, "div_exact_limb: {self:?} is not divisible by {d}");
        Int::new(self.negative, q)
    }
}

impl From<Uint> for Int {
    fn from(u: Uint) -> Self {
        Int::new(false, u)
    }
}

impl From<&Uint> for Int {
    fn from(u: &Uint) -> Self {
        Int::new(false, u.clone())
    }
}

impl fmt::Debug for Int {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.negative {
            write!(f, "Int(-0x{:x})", self.magnitude)
        } else {
            write!(f, "Int(0x{:x})", self.magnitude)
        }
    }
}

impl fmt::Display for Int {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.negative {
            write!(f, "-{}", self.magnitude)
        } else {
            write!(f, "{}", self.magnitude)
        }
    }
}

impl PartialOrd for Int {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Int {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self.negative, other.negative) {
            (false, true) => Ordering::Greater,
            (true, false) => Ordering::Less,
            (false, false) => self.magnitude.cmp(&other.magnitude),
            (true, true) => other.magnitude.cmp(&self.magnitude),
        }
    }
}

macro_rules! int_binop {
    ($trait:ident, $method:ident, $impl_method:ident) => {
        impl std::ops::$trait<&Int> for &Int {
            type Output = Int;
            fn $method(self, rhs: &Int) -> Int {
                Int::$impl_method(self, rhs)
            }
        }
        impl std::ops::$trait<Int> for Int {
            type Output = Int;
            fn $method(self, rhs: Int) -> Int {
                Int::$impl_method(&self, &rhs)
            }
        }
    };
}

int_binop!(Add, add, add);
int_binop!(Sub, sub, sub);
int_binop!(Mul, mul, mul);

impl std::ops::Neg for &Int {
    type Output = Int;
    fn neg(self) -> Int {
        Int::neg(self)
    }
}

impl std::ops::Neg for Int {
    type Output = Int;
    fn neg(self) -> Int {
        Int::neg(&self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int(v: i64) -> Int {
        Int::from_i64(v)
    }

    #[test]
    fn negative_zero_is_normalized() {
        assert!(!Int::negative(Uint::zero()).is_negative());
        assert_eq!(Int::negative(Uint::zero()), Int::zero());
    }

    #[test]
    fn signed_addition_table() {
        for a in [-7i64, -1, 0, 3, 9] {
            for b in [-5i64, -3, 0, 2, 11] {
                assert_eq!(int(a) + int(b), int(a + b), "{a} + {b}");
                assert_eq!(int(a) - int(b), int(a - b), "{a} - {b}");
                assert_eq!(int(a) * int(b), int(a * b), "{a} * {b}");
            }
        }
    }

    #[test]
    fn neg_involution() {
        let x = int(-42);
        assert_eq!(-(-x.clone()), x);
    }

    #[test]
    fn ordering() {
        assert!(int(-2) < int(-1));
        assert!(int(-1) < int(0));
        assert!(int(0) < int(1));
        assert!(int(5) > int(-100));
    }

    #[test]
    fn to_uint_only_when_non_negative() {
        assert_eq!(int(5).to_uint(), Some(Uint::from_u64(5)));
        assert_eq!(int(-5).to_uint(), None);
    }

    #[test]
    fn div_exact() {
        assert_eq!(int(-6).div_exact_limb(3), int(-2));
        assert_eq!(int(6).div_exact_limb(2), int(3));
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn div_exact_panics_on_remainder() {
        int(7).div_exact_limb(2);
    }

    #[test]
    fn display() {
        assert_eq!(int(-15).to_string(), "-15");
        assert_eq!(int(15).to_string(), "15");
    }

    #[test]
    fn shl_preserves_sign() {
        assert_eq!(int(-3).shl(2), int(-12));
    }
}
