//! Regenerates the paper's **Table I** ("FPGA implementation results of
//! the 8-thread design examples") from the structural cost model, with
//! the paper's reported numbers side by side, plus the 16-thread
//! extension behind the paper's ">22 % savings" remark. Every area is
//! `Inventory::from_ir` of the design's own IR (see
//! [`elastic_bench::table1`]).
//!
//! With `--inventory`, also prints the itemized LE breakdown of every
//! design/buffer combination.
//!
//! ```text
//! cargo run --release -p elastic-bench --bin table1_fpga [-- --inventory]
//! ```

use elastic_bench::table1::{render, KINDS};
use elastic_bench::Design;

fn main() {
    let inventory = std::env::args().any(|a| a == "--inventory");

    print!("{}", render(&[8, 16]));

    // Extension: the same model applied to the circuit synthesized by the
    // elastic-synth flow (examples/gcd_synthesis.rs).
    println!("extension — synthesized GCD loop (not in the paper):");
    for (kind, label) in KINDS {
        let area = Design::Gcd.area_les(kind, 8);
        println!(
            "  {label:<12} 8 threads: {:>6} LEs @ {:>5.1} MHz",
            area,
            Design::Gcd.freq_mhz(area)
        );
    }
    println!();

    if inventory {
        for design in Design::TABLE1 {
            for (kind, label) in KINDS {
                println!("\n=== {} — {label} (8 threads) ===", design.name());
                print!("{}", design.inventory(kind, 8).render());
            }
        }
    } else {
        println!("(run with --inventory for the itemized LE breakdown)");
    }
}
