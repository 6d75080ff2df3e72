//! Reproduces **Fig. 3**: the L = 2 *unrolled* Karatsuba dataflow —
//! merged precomputation (10 uniform chunk additions), 9 partial
//! multiplications, and the postcomputation naming — shown with live
//! values for a concrete operand pair.
//!
//! ```text
//! cargo run -p cim-bench --bin fig3_unrolled [n]
//! ```

use cim_bench::TextTable;
use cim_bigint::rng::UintRng;
use karatsuba_cim::chunks::{decompose_operand, leaf_widths, LEAF_NAMES, PRODUCT_NAMES};

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(64);
    assert!(
        n.is_multiple_of(4) && n >= 8,
        "n must be a multiple of 4, ≥ 8"
    );

    let mut rng = UintRng::seeded(3);
    let a = rng.exact_bits(n);
    let b = rng.exact_bits(n);

    println!("FIG. 3 — L = 2 UNROLLED KARATSUBA DATAFLOW (n = {n} bits)\n");
    println!("a = 0x{a:x}");
    println!("b = 0x{b:x}\n");

    let da = decompose_operand(&a, n);
    let db = decompose_operand(&b, n);
    let widths = leaf_widths(n);

    println!("stage 1 — merged precomputation (2 × 5 chunk additions, all between");
    println!(
        "{}-bit and {}-bit — a single uniform adder serves them all):\n",
        n / 4,
        n / 4 + 1
    );

    let mut table = TextTable::new(&["leaf", "value (a side)", "value (b side)", "max bits"]);
    for i in 0..9 {
        table.row(&[
            format!(
                "{} / {}",
                LEAF_NAMES[i],
                LEAF_NAMES[i].replacen('a', "b", 1)
            ),
            format!("0x{:x}", da.leaves[i]),
            format!("0x{:x}", db.leaves[i]),
            widths[i].to_string(),
        ]);
    }
    println!("{}", table.render());

    println!(
        "stage 2 — nine independent multiplications (operand ≤ {} bits):\n",
        n / 4 + 2
    );
    let mut ptable = TextTable::new(&["product", "operands", "value", "bits"]);
    for i in 0..9 {
        let p = &da.leaves[i] * &db.leaves[i];
        ptable.row(&[
            PRODUCT_NAMES[i].to_string(),
            format!("{}·{}", LEAF_NAMES[i], LEAF_NAMES[i].replacen('a', "b", 1)),
            format!("0x{p:x}"),
            p.bit_len().to_string(),
        ]);
    }
    println!("{}", ptable.render());

    let products: [cim_bigint::Uint; 9] = std::array::from_fn(|i| &da.leaves[i] * &db.leaves[i]);
    let c = karatsuba_cim::chunks::combine_products(&products, n / 4);
    println!("stage 3 — postcomputation recombines the nine products:");
    println!("  c = a·b = 0x{c:x}");
    assert_eq!(c, &a * &b, "dataflow must reproduce the product");
    println!("  verified against the software gold model ✓");
}
