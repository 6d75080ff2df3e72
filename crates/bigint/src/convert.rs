//! Conversions to and from strings, bytes and primitive integers.

use crate::error::{ParseUintError, ParseUintErrorKind};
use crate::uint::Uint;
use std::fmt;
use std::str::FromStr;

impl Uint {
    /// Parses a hexadecimal string (no `0x` prefix, case-insensitive).
    ///
    /// # Errors
    ///
    /// Returns [`ParseUintError`] on an empty string or a non-hex digit.
    ///
    /// ```
    /// use cim_bigint::Uint;
    /// # fn main() -> Result<(), cim_bigint::ParseUintError> {
    /// let x = Uint::from_hex("Ff")?;
    /// assert_eq!(x, Uint::from_u64(255));
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_hex(s: &str) -> Result<Uint, ParseUintError> {
        Self::from_str_radix(s, 16)
    }

    /// Parses a decimal string.
    ///
    /// # Errors
    ///
    /// Returns [`ParseUintError`] on an empty string or a non-decimal digit.
    pub fn from_decimal(s: &str) -> Result<Uint, ParseUintError> {
        Self::from_str_radix(s, 10)
    }

    /// Parses a string in the given radix (2..=16). Underscores are
    /// allowed as visual separators.
    ///
    /// # Errors
    ///
    /// Returns [`ParseUintError`] on an empty string or invalid digit.
    ///
    /// # Panics
    ///
    /// Panics if `radix` is outside `2..=16`.
    pub fn from_str_radix(s: &str, radix: u32) -> Result<Uint, ParseUintError> {
        assert!((2..=16).contains(&radix), "radix must be in 2..=16");
        let digits: Vec<(usize, char)> = s.char_indices().filter(|&(_, c)| c != '_').collect();
        if digits.is_empty() {
            return Err(ParseUintError {
                kind: ParseUintErrorKind::Empty,
            });
        }
        let mut acc = Uint::zero();
        for (index, ch) in digits {
            let d = ch.to_digit(radix).ok_or(ParseUintError {
                kind: ParseUintErrorKind::InvalidDigit { ch, index, radix },
            })?;
            acc.mul_assign_limb(radix as u64);
            acc.add_assign_limb(d as u64);
        }
        Ok(acc)
    }

    /// Lowercase hexadecimal representation without leading zeros
    /// (`"0"` for zero).
    ///
    /// ```
    /// use cim_bigint::Uint;
    /// assert_eq!(Uint::from_u64(255).to_hex(), "ff");
    /// assert_eq!(Uint::zero().to_hex(), "0");
    /// ```
    pub fn to_hex(&self) -> String {
        format!("{self:x}")
    }

    /// Decimal string representation.
    pub fn to_decimal(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        // Repeated division by 10^19 (largest power of ten in a u64).
        const CHUNK: u64 = 10_000_000_000_000_000_000;
        let mut digits_rev: Vec<String> = Vec::new();
        let mut cur = self.clone();
        while !cur.is_zero() {
            let (q, r) = cur.div_rem_limb(CHUNK);
            cur = q;
            if cur.is_zero() {
                digits_rev.push(format!("{r}"));
            } else {
                digits_rev.push(format!("{r:019}"));
            }
        }
        digits_rev.reverse();
        digits_rev.concat()
    }

    /// Little-endian byte representation, minimal length (empty for zero).
    pub fn to_le_bytes(&self) -> Vec<u8> {
        let mut out: Vec<u8> = self.limbs.iter().flat_map(|l| l.to_le_bytes()).collect();
        while let Some(&0) = out.last() {
            out.pop();
        }
        out
    }

    /// Builds a `Uint` from little-endian bytes.
    ///
    /// ```
    /// use cim_bigint::Uint;
    /// assert_eq!(Uint::from_le_bytes(&[0x34, 0x12]), Uint::from_u64(0x1234));
    /// ```
    pub fn from_le_bytes(bytes: &[u8]) -> Uint {
        let mut limbs = vec![0u64; bytes.len().div_ceil(8)];
        for (i, &b) in bytes.iter().enumerate() {
            limbs[i / 8] |= (b as u64) << (8 * (i % 8));
        }
        Uint::from_limbs(limbs)
    }
}

impl FromStr for Uint {
    type Err = ParseUintError;

    /// Parses decimal by default; `0x`/`0b` prefixes select hex/binary.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
            Uint::from_hex(hex)
        } else if let Some(bin) = s.strip_prefix("0b").or_else(|| s.strip_prefix("0B")) {
            Uint::from_str_radix(bin, 2)
        } else {
            Uint::from_decimal(s)
        }
    }
}

impl fmt::Debug for Uint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Uint(0x{self:x})")
    }
}

impl fmt::Display for Uint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad_integral(true, "", &self.to_decimal())
    }
}

impl fmt::LowerHex for Uint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = if self.is_zero() {
            "0".to_string()
        } else {
            let mut s = format!("{:x}", self.limbs.last().expect("non-zero"));
            for l in self.limbs.iter().rev().skip(1) {
                s.push_str(&format!("{l:016x}"));
            }
            s
        };
        f.pad_integral(true, "0x", &s)
    }
}

impl fmt::UpperHex for Uint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = format!("{self:x}").to_uppercase();
        f.pad_integral(true, "0x", &s)
    }
}

impl fmt::Binary for Uint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = if self.is_zero() {
            "0".to_string()
        } else {
            let mut s = format!("{:b}", self.limbs.last().expect("non-zero"));
            for l in self.limbs.iter().rev().skip(1) {
                s.push_str(&format!("{l:064b}"));
            }
            s
        };
        f.pad_integral(true, "0b", &s)
    }
}

impl From<u64> for Uint {
    fn from(v: u64) -> Self {
        Uint::from_u64(v)
    }
}

impl From<u128> for Uint {
    fn from(v: u128) -> Self {
        Uint::from_u128(v)
    }
}

impl From<u32> for Uint {
    fn from(v: u32) -> Self {
        Uint::from_u64(v as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_roundtrip() {
        let s = "123456789abcdef0fedcba9876543210deadbeef";
        let x = Uint::from_hex(s).unwrap();
        assert_eq!(x.to_hex(), s);
    }

    #[test]
    fn decimal_roundtrip() {
        let s = "340282366920938463463374607431768211456"; // 2^128
        let x = Uint::from_decimal(s).unwrap();
        assert_eq!(x, Uint::pow2(128));
        assert_eq!(x.to_decimal(), s);
    }

    #[test]
    fn from_str_prefixes() {
        assert_eq!("0x10".parse::<Uint>().unwrap(), Uint::from_u64(16));
        assert_eq!("0b110".parse::<Uint>().unwrap(), Uint::from_u64(6));
        assert_eq!("16".parse::<Uint>().unwrap(), Uint::from_u64(16));
    }

    #[test]
    fn underscores_allowed() {
        assert_eq!(Uint::from_hex("ff_ff").unwrap(), Uint::from_u64(0xFFFF));
    }

    #[test]
    fn parse_errors() {
        assert!(Uint::from_hex("").is_err());
        assert!(Uint::from_hex("g").is_err());
        assert!(Uint::from_decimal("1 2").is_err());
    }

    #[test]
    fn le_bytes_roundtrip() {
        let x = Uint::from_hex("0102030405060708090a").unwrap();
        assert_eq!(Uint::from_le_bytes(&x.to_le_bytes()), x);
        assert!(Uint::zero().to_le_bytes().is_empty());
    }

    #[test]
    fn formatting_traits() {
        let x = Uint::from_u64(0xAB);
        assert_eq!(format!("{x:x}"), "ab");
        assert_eq!(format!("{x:X}"), "AB");
        assert_eq!(format!("{x:b}"), "10101011");
        assert_eq!(format!("{x}"), "171");
        assert_eq!(format!("{x:#x}"), "0xab");
    }

    #[test]
    fn multi_limb_hex_padding() {
        // Middle limbs must be zero-padded to 16 hex digits.
        let x = Uint::from_limbs(vec![0x1, 0x2]);
        assert_eq!(x.to_hex(), "20000000000000001");
    }
}
