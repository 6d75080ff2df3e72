//! # cim-bigint — big-integer substrate for the Karatsuba CIM reproduction
//!
//! Arbitrary-precision **unsigned** integer arithmetic implemented from
//! scratch (no external big-number crates), serving three roles in this
//! repository:
//!
//! 1. **Gold model.** Every in-memory (CIM) computation performed by the
//!    crossbar simulator is verified against the results produced here.
//! 2. **Algorithm exploration (paper Sec. III).** Schoolbook, recursive
//!    Karatsuba, *unrolled* Karatsuba (mirroring the hardware dataflow of
//!    the paper's Fig. 3) and Toom-3 multiplication, with instrumented
//!    operation counting used to regenerate the paper's algorithm
//!    comparison numbers.
//! 3. **Substrate for modular arithmetic** (`cim-modmul`): long division
//!    (for Barrett's µ), shifting and masking.
//!
//! The central type is [`Uint`], a little-endian vector of `u64` limbs.
//!
//! ## Example
//!
//! ```
//! use cim_bigint::Uint;
//!
//! # fn main() -> Result<(), cim_bigint::ParseUintError> {
//! let a = Uint::from_hex("ffffffffffffffff")?; // 2^64 - 1
//! let b = Uint::from_u64(2);
//! assert_eq!((&a * &b).to_hex(), "1fffffffffffffffe");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod add;
mod convert;
mod div;
mod error;
mod int;
pub mod mul;
pub mod opcount;
mod ops;
pub mod rng;
mod shift;
mod uint;

pub use error::ParseUintError;
pub use int::Int;
pub use uint::Uint;

/// Number of bits in one limb of a [`Uint`].
pub const LIMB_BITS: usize = 64;

/// A limb (machine word) of a [`Uint`]: little-endian base-2^64 digit.
pub type Limb = u64;
