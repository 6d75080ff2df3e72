//! Endurance study: ReRAM cells survive ~10^10–10^11 writes (paper
//! Sec. II-A). This example runs a long stream of in-memory additions
//! with and without the paper's wear-leveling (Sec. IV-B) and projects
//! the array lifetime, then compares per-multiplication write loads
//! against MultPIM's.
//!
//! ```text
//! cargo run --release --example endurance
//! ```

use cim_baselines::{MultPim, MultiplierModel, OurKaratsuba};
use cim_bigint::rng::UintRng;
use cim_crossbar::CELL_ENDURANCE_WRITES;
use cim_logic::kogge_stone::AdderUnit;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("ReRAM endurance: ~{CELL_ENDURANCE_WRITES} write cycles per cell\n");

    // --- Adder-level wear-leveling ablation.
    let operations = 300usize;
    let mut rng = UintRng::seeded(11);
    let pairs: Vec<_> = (0..operations)
        .map(|_| (rng.uniform(64), rng.uniform(64)))
        .collect();

    for leveling in [false, true] {
        let mut unit = AdderUnit::new(64, leveling)?;
        for (a, b) in &pairs {
            let sum = unit.add(a, b)?;
            assert_eq!(sum, a.add(b));
        }
        let e = unit.endurance();
        let adds_per_lifetime = CELL_ENDURANCE_WRITES / (e.max_writes / operations as u64).max(1);
        println!(
            "wear-leveling {}: after {} additions",
            if leveling { "ON " } else { "OFF" },
            operations
        );
        println!("  peak cell writes : {}", e.max_writes);
        println!("  mean cell writes : {:.1}", e.mean_writes());
        println!(
            "  wear balance     : {:.2} (1.0 = perfectly even)",
            e.balance()
        );
        println!("  projected adder lifetime: ~{adds_per_lifetime} additions");
        println!(
            "  cycle cost of leveling  : none ({} cc total)\n",
            unit.cycles()
        );
    }

    // --- Design-level comparison (Table I "Max. Writes" column).
    println!("per-multiplication write load at n = 384 (Table I):");
    let ours = OurKaratsuba;
    let multpim = MultPim;
    let ow = ours.max_writes(384).expect("reported");
    let mw = multpim.max_writes(384).expect("reported");
    println!("  our Karatsuba design : {ow} writes to the hottest cell");
    println!(
        "  MultPIM single-row   : {mw} writes ({:.1}x more)",
        mw as f64 / ow as f64
    );
    println!(
        "  array lifetime: ours ~{} multiplications vs MultPIM ~{}",
        CELL_ENDURANCE_WRITES / ow,
        CELL_ENDURANCE_WRITES / mw
    );
    Ok(())
}
