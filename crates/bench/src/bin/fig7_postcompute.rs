//! Reproduces **Fig. 7**: the postcomputation memory schedule —
//! layouts (a)–(d) of the partial products and intermediates across
//! the 11 adder passes — with live values for a concrete operand pair.
//!
//! ```text
//! cargo run -p cim-bench --bin fig7_postcompute [n]
//! ```

use cim_bench::TextTable;
use cim_bigint::rng::UintRng;
use cim_bigint::Uint;
use karatsuba_cim::chunks::{decompose_operand, PRODUCT_NAMES};
use karatsuba_cim::postcompute::PostcomputeStage;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(64);
    assert!(
        n.is_multiple_of(4) && n >= 8,
        "n must be a multiple of 4, ≥ 8"
    );
    let q = n / 4;

    let mut rng = UintRng::seeded(7);
    let a = rng.exact_bits(n);
    let b = rng.exact_bits(n);
    let da = decompose_operand(&a, n);
    let db = decompose_operand(&b, n);
    let p: [Uint; 9] = std::array::from_fn(|i| &da.leaves[i] * &db.leaves[i]);

    println!(
        "FIG. 7 — POSTCOMPUTATION SCHEDULE (n = {n} bits, adder width 1.5n = {})\n",
        3 * n / 2
    );

    println!("(a) initial layout — the nine partial products from stage 2:");
    let mut t = TextTable::new(&["product", "value", "bits"]);
    for i in 0..9 {
        t.row(&[
            PRODUCT_NAMES[i].to_string(),
            format!("0x{:x}", p[i]),
            p[i].bit_len().to_string(),
        ]);
    }
    println!("{}", t.render());

    // Mirror the stage's schedule with named intermediates.
    let t_l = p[0].add(&p[1]);
    let ct_lm = p[2].sub(&t_l);
    let t_h = p[3].add(&p[4]);
    let ct_hm = p[5].sub(&t_h);
    let t_m = p[6].add(&p[7]);
    let ct_mm = p[8].sub(&t_m);
    println!("passes 1–4 (c̃ terms; l/h pairs run batched side-by-side):");
    println!("  c̃_lm = c_lm − (c_ll + c_lh) = 0x{ct_lm:x}");
    println!("  c̃_hm = c_hm − (c_hl + c_hh) = 0x{ct_hm:x}");
    println!("  c̃_mm = c_mm − (c_ml + c_mh) = 0x{ct_mm:x}\n");

    let c_l = p[0].add(&p[1].shl(2 * q)).add(&ct_lm.shl(q));
    let c_h = p[3].add(&p[4].shl(2 * q)).add(&ct_hm.shl(q));
    let u = p[6].add(&p[7].shl(2 * q));
    let c_m = u.add(&ct_mm.shl(q));
    println!("(b) after reorder — passes 5–8 (c_m needs TWO additions because");
    println!(
        "    c_ml is n/2+2 = {} bits wide and cannot simply be appended):",
        n / 2 + 2
    );
    println!("  c_l = (c_lh ‖ c_ll) + c̃_lm·2^{q} = 0x{c_l:x}");
    println!("  c_h = (c_hh ‖ c_hl) + c̃_hm·2^{q} = 0x{c_h:x}");
    println!(
        "  c_m = (c_ml + c_mh·2^{}) + c̃_mm·2^{q} = 0x{c_m:x}\n",
        2 * q
    );

    let ct_m = c_m.sub(&c_h).sub(&c_l);
    println!("(c) passes 9–10:  c̃_m = c_m − c_h − c_l = 0x{ct_m:x}\n");

    let base_top = c_l.add(&c_h.shl(n)).shr(n / 2);
    let c_top = base_top.add(&ct_m);
    let c = c_top.shl(n / 2).add(&c_l.low_bits(n / 2));
    println!(
        "(d) pass 11 — LSB optimization: the low n/2 = {} bits of c_l are",
        n / 2
    );
    println!("    already final; the addition covers only the top 1.5n bits");
    println!("    (saves 25% of the stage area):");
    println!("  c = a·b = 0x{c:x}");
    assert_eq!(c, &a * &b);

    // And run the actual in-memory stage for confirmation.
    let stage = PostcomputeStage::new(n).expect("stage");
    let out = stage.run(&p).expect("postcompute");
    assert_eq!(out.product, c);
    println!(
        "\nin-memory stage result matches, {} cc measured",
        out.stats.cycles
    );
    println!(
        "(paper closed form: {} cc — delta is operand staging, see EXPERIMENTS.md)",
        stage.paper_latency()
    );
}
