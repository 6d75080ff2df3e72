//! Pins the compiler's output byte for byte: one FNV-1a digest over
//! the `Debug` form of every lowered adder program the stages run.
//!
//! * Kogge-Stone `Add` and `Sub` lowered at `O1`–`O3` at widths from
//!   one bit to the 3072-bit postcompute adder;
//! * the precompute addition suffixes (the ten-addition suffix and the
//!   five-addition square suffix) and the postcompute `Add` and `Sub`
//!   adder bodies at n = 64, 384 and 2048, at `O0`–`O3`.
//!
//! A pass rewrite that is meant to be a pure speed-up must reproduce
//! the digest; the assertion prints the new digest when it does not.

use cim_crossbar::CompiledProgram;
use cim_logic::kogge_stone::{AddOp, KoggeStoneAdder};
use cim_mir::OptLevel;
use karatsuba_cim::postcompute::PostcomputeStage;
use karatsuba_cim::precompute::PrecomputeStage;
use std::fmt::Write;

/// Digest of the programs below, taken before the allocation-free
/// rewrite of the lowering passes.
const PINNED: u64 = 0xb190_6bc9_6b05_76d8;

/// FNV-1a over everything written into it.
struct Fnv(u64);

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

fn digest_programs<'a>(h: &mut Fnv, programs: impl IntoIterator<Item = &'a CompiledProgram>) {
    for p in programs {
        write!(h, "{:?};", p.ops()).expect("hashing cannot fail");
    }
}

#[test]
fn lowered_programs_are_pinned() {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for width in [1usize, 7, 64, 65, 129, 513, 1025, 3072] {
        let adder = KoggeStoneAdder::new(width);
        for opt in [OptLevel::O1, OptLevel::O2, OptLevel::O3] {
            for op in [AddOp::Add, AddOp::Sub] {
                write!(h, "{width} {opt} {op:?}: {:?};", adder.program_opt(op, opt))
                    .expect("hashing cannot fail");
            }
        }
    }
    for n in [64usize, 384, 2048] {
        for opt in OptLevel::ALL {
            let pre = PrecomputeStage::with_opt_level(n, opt).expect("precompute stage");
            let post = PostcomputeStage::with_opt_level(n, opt).expect("postcompute stage");
            write!(h, "pre {n} {opt}:").expect("hashing cannot fail");
            digest_programs(&mut h, pre.addition_programs(false).iter());
            digest_programs(&mut h, pre.addition_programs(true).iter());
            write!(h, "post {n} {opt}:").expect("hashing cannot fail");
            digest_programs(
                &mut h,
                [
                    post.adder_program(AddOp::Add),
                    post.adder_program(AddOp::Sub),
                ],
            );
        }
    }
    assert_eq!(h.0, PINNED, "lowered programs moved: digest {:#x}", h.0);
}
