//! Cryptographic moduli the paper motivates: pairing-based ZKP uses
//! up to 384-bit fields (BLS12-381, BN254), FHE uses ~64-bit NTT
//! primes (Goldilocks), and Curve25519 is the classic sparse prime.

use cim_bigint::Uint;

/// BLS12-381 base-field modulus (381 bits) — the field of the
/// pairing-friendly curve used by most zkSNARK systems the paper
/// cites (\[2\], \[18\]).
///
/// ```
/// assert_eq!(cim_modmul::fields::bls12_381_base().bit_len(), 381);
/// ```
pub fn bls12_381_base() -> Uint {
    Uint::from_decimal(
        "4002409555221667393417789825735904156556882819939007885332\
         058136124031650490837864442687629129015664037894272559787",
    )
    .expect("valid constant")
}

/// BN254 base-field modulus (254 bits) — the Ethereum precompile
/// pairing curve.
///
/// ```
/// assert_eq!(cim_modmul::fields::bn254_base().bit_len(), 254);
/// ```
pub fn bn254_base() -> Uint {
    Uint::from_decimal(
        "21888242871839275222246405745257275088696311157297823662689037894645226208583",
    )
    .expect("valid constant")
}

/// BN254 scalar-field modulus (the SNARK "circuit field").
pub fn bn254_scalar() -> Uint {
    Uint::from_decimal(
        "21888242871839275222246405745257275088548364400416034343698204186575808495617",
    )
    .expect("valid constant")
}

/// Curve25519 prime `2^255 − 19`.
pub fn curve25519() -> Uint {
    Uint::pow2(255).sub(&Uint::from_u64(19))
}

/// The Goldilocks prime `2^64 − 2^32 + 1` — a 64-bit NTT-friendly
/// prime of the kind FHE implementations use for RNS limbs (the
/// paper's "64-bit integers for FHE").
pub fn goldilocks() -> Uint {
    Uint::from_u64(0xFFFF_FFFF_0000_0001)
}

/// A stable, wire-serializable identifier for the sample moduli —
/// the field tag the `cim-serve` protocol puts on `modexp` / `ec_*`
/// requests. The `u8` codes are part of the wire format and must
/// never be reassigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FieldId {
    /// BLS12-381 base field (381 bits).
    Bls12_381Base,
    /// BN254 base field (254 bits).
    Bn254Base,
    /// BN254 scalar field (254 bits).
    Bn254Scalar,
    /// Curve25519 prime `2^255 − 19`.
    Curve25519,
    /// Goldilocks prime `2^64 − 2^32 + 1`.
    Goldilocks,
}

impl FieldId {
    /// Every defined field id.
    pub const ALL: [FieldId; 5] = [
        FieldId::Bls12_381Base,
        FieldId::Bn254Base,
        FieldId::Bn254Scalar,
        FieldId::Curve25519,
        FieldId::Goldilocks,
    ];

    /// The wire code (stable across protocol versions).
    pub fn code(self) -> u8 {
        match self {
            FieldId::Bls12_381Base => 0,
            FieldId::Bn254Base => 1,
            FieldId::Bn254Scalar => 2,
            FieldId::Curve25519 => 3,
            FieldId::Goldilocks => 4,
        }
    }

    /// Decodes a wire code; `None` for unknown codes.
    pub fn from_code(code: u8) -> Option<FieldId> {
        FieldId::ALL.into_iter().find(|f| f.code() == code)
    }

    /// Display name (matches [`catalog`]).
    pub fn label(self) -> &'static str {
        match self {
            FieldId::Bls12_381Base => "bls12_381_base",
            FieldId::Bn254Base => "bn254_base",
            FieldId::Bn254Scalar => "bn254_scalar",
            FieldId::Curve25519 => "curve25519",
            FieldId::Goldilocks => "goldilocks",
        }
    }

    /// The modulus this id names.
    pub fn modulus(self) -> Uint {
        match self {
            FieldId::Bls12_381Base => bls12_381_base(),
            FieldId::Bn254Base => bn254_base(),
            FieldId::Bn254Scalar => bn254_scalar(),
            FieldId::Curve25519 => curve25519(),
            FieldId::Goldilocks => goldilocks(),
        }
    }

    /// Operand width class of this field on the CIM multiplier: the
    /// modulus bit length rounded up to a multiple of 4.
    pub fn width(self) -> usize {
        self.modulus().bit_len().div_ceil(4) * 4
    }
}

/// All sample moduli with display names and the paper's motivating
/// application.
pub fn catalog() -> Vec<(&'static str, &'static str, Uint)> {
    vec![
        (
            "BLS12-381 base",
            "pairing-based ZKP (384-bit class)",
            bls12_381_base(),
        ),
        (
            "BN254 base",
            "pairing-based ZKP (256-bit class)",
            bn254_base(),
        ),
        ("BN254 scalar", "SNARK circuit field", bn254_scalar()),
        ("Curve25519", "ECC / sparse reduction", curve25519()),
        ("Goldilocks", "FHE NTT limb (64-bit class)", goldilocks()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_lengths() {
        assert_eq!(bls12_381_base().bit_len(), 381);
        assert_eq!(bn254_base().bit_len(), 254);
        assert_eq!(bn254_scalar().bit_len(), 254);
        assert_eq!(curve25519().bit_len(), 255);
        assert_eq!(goldilocks().bit_len(), 64);
    }

    #[test]
    fn all_moduli_are_odd() {
        for (name, _, m) in catalog() {
            assert!(m.bit(0), "{name} must be odd");
        }
    }

    #[test]
    fn known_residues() {
        // 2^255 mod (2^255 − 19) = 19.
        assert_eq!(Uint::pow2(255).rem(&curve25519()), Uint::from_u64(19));
        // 2^64 mod goldilocks = 2^32 − 1.
        assert_eq!(
            Uint::pow2(64).rem(&goldilocks()),
            Uint::pow2(32).sub(&Uint::one())
        );
    }

    #[test]
    fn field_id_codes_round_trip() {
        for id in FieldId::ALL {
            assert_eq!(FieldId::from_code(id.code()), Some(id));
            assert_eq!(id.width() % 4, 0);
            assert!(id.width() >= id.modulus().bit_len());
            assert!(id.width() < id.modulus().bit_len() + 4);
        }
        assert_eq!(FieldId::from_code(200), None);
    }

    #[test]
    fn fermat_little_theorem_spot_check() {
        use crate::{barrett::BarrettContext, ModularReducer};
        // 3^(p−1) ≡ 1 (mod p) — a strong indication the constants are
        // the primes they claim to be.
        for p in [goldilocks(), bn254_base(), curve25519()] {
            let ctx = BarrettContext::new(p.clone()).unwrap();
            let r = ctx.pow_mod(&Uint::from_u64(3), &p.sub(&Uint::one()));
            assert_eq!(r, Uint::one(), "p = {p}");
        }
    }
}
