//! # karatsuba-cim — the paper's contribution
//!
//! A three-stage pipelined, depth-2 **unrolled-Karatsuba** large
//! integer multiplier for resistive CIM crossbars, reproducing
//! *"Exploring Large Integer Multiplication for Cryptography Targeting
//! In-Memory Computing"* (DATE 2025), Sec. IV:
//!
//! * [`chunks`] — operand decomposition and the Fig. 3 dataflow
//!   (chunk / partial-product naming used by the other stages);
//! * [`precompute`] — Stage 1 (Sec. IV-C): 10 chunk additions on a
//!   shared `n/4+1`-bit Kogge-Stone adder in a
//!   `(8+10+12) × (n/4+2)` array;
//! * [`multiply`] — Stage 2 (Sec. IV-D): 9 parallel single-row
//!   multipliers (`9 × 12·(n/4+2)` cells);
//! * [`postcompute`] — Stage 3 (Sec. IV-E): 11 batched Kogge-Stone
//!   passes on a `1.5n`-bit adder implementing the Fig. 7 schedule,
//!   including the paper's 25 % LSB area optimization;
//! * [`pipeline`] — the three-stage pipeline (Fig. 5): latency is the
//!   sum of the stage latencies, throughput is set by the slowest
//!   stage (plus the 27-cycle operand/product handoff);
//! * [`multiplier`] — [`multiplier::KaratsubaCimMultiplier`], the
//!   top-level API that runs all three stages on simulated crossbars
//!   and verifies the product against the software gold model;
//! * [`cost`] — the closed-form area/latency/throughput/ATP/endurance
//!   model for arbitrary `(n, L)`, reproducing the paper's Table I
//!   "Our" rows exactly and generating Fig. 4.
//!
//! ## Example
//!
//! ```
//! use cim_bigint::Uint;
//! use karatsuba_cim::multiplier::KaratsubaCimMultiplier;
//!
//! # fn main() -> Result<(), karatsuba_cim::multiplier::MultiplyError> {
//! let mult = KaratsubaCimMultiplier::new(64)?;
//! let a = Uint::from_hex("fedcba9876543210").expect("hex");
//! let b = Uint::from_hex("0123456789abcdef").expect("hex");
//! let outcome = mult.multiply(&a, &b)?;
//! assert_eq!(outcome.product, &a * &b);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chunks;
pub mod cost;
pub mod depth1;
pub mod metrics;
pub mod multiplier;
pub mod multiply;
pub mod pipeline;
pub mod postcompute;
pub mod precompute;
pub mod progcache;

/// The paper's chosen unroll depth (Fig. 4 shows L = 2 minimizes the
/// area-time product across cryptographically relevant sizes).
pub const PAPER_DEPTH: u32 = 2;

/// Operand sizes evaluated in the paper's Table I.
pub const PAPER_SIZES: [usize; 4] = [64, 128, 256, 384];
