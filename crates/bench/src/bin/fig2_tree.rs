//! Reproduces **Fig. 2**: the two-level *recursive* Karatsuba tree,
//! including the cross-level data dependency (the level-1 sums
//! `a_m, b_m` must exist before level 2 can split them) and the
//! non-uniform addition widths that make recursive Karatsuba awkward
//! for CIM (paper Sec. III-C1).
//!
//! ```text
//! cargo run -p cim-bench --bin fig2_tree [n]
//! ```

use cim_bigint::opcount::{karatsuba_recursive_counts, precompute_width_sets};

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(64);

    println!("FIG. 2 — TWO-LEVEL RECURSIVE KARATSUBA TREE (n = {n} bits)\n");
    println!("level 0:                      a · b                ({n}-bit)");
    println!("                            /   |   \\");
    let h = n / 2;
    println!(
        "level 1:            a_l·b_l  a_h·b_h  a_m·b_m      ({h}/{h}/{}-bit)",
        h + 1
    );
    println!("                     /|\\      /|\\      /|\\");
    println!(
        "level 2:            9 multiplications of ~{}-bit    (plus carries)",
        n / 4
    );
    println!();
    println!("cross-level dependency (red arrow in the paper):");
    println!("  a_m = a_h + a_l  must be computed ({h}-bit addition) BEFORE");
    println!("  level 2 can split a_m into chunks and form a_mm = a_m,h + a_m,l");
    println!("  ({}-bit addition).\n", n / 4 + 1);

    let (rec_widths, unr_widths) = precompute_width_sets(n, 2);
    println!("precomputation addition widths needed:");
    println!("  recursive Karatsuba : {rec_widths:?} bits  → one adder array per width,");
    println!("                        or one oversized array (underutilized)");
    println!("  unrolled  Karatsuba : {unr_widths:?} bits  → a single uniform adder\n");

    let counts = karatsuba_recursive_counts(2);
    println!("operation counts at depth 2 (recursive):");
    println!("  partial multiplications : {}", counts.multiplications);
    println!(
        "  precompute additions    : {} (at MIXED widths)",
        counts.precompute_additions
    );
    println!("  postcompute add/subs    : {}", counts.postcompute_addsubs);
    println!();
    println!("→ the non-uniformity of the recursive form is why the paper");
    println!("  unrolls the tree (see fig3_unrolled).");
}
