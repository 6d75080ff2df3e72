//! # cim-suite — umbrella crate for the Karatsuba CIM reproduction
//!
//! This crate hosts the repository-level [examples](https://example.invalid)
//! and cross-crate integration tests. It re-exports the public crates so
//! examples can use one import root.

#![forbid(unsafe_code)]

pub use cim_baselines as baselines;
pub use cim_bigint as bigint;
pub use cim_crossbar as crossbar;
pub use cim_logic as logic;
pub use cim_modmul as modmul;
pub use karatsuba_cim as karatsuba;
