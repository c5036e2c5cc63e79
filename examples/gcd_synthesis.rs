//! Automated synthesis demo (the paper's conclusion: the primitives
//! "enable the automated synthesis of complex algorithms to their
//! multithreaded elastic equivalent circuits"): write Euclid's GCD as a
//! dataflow graph straight into the structural elastic IR, and let that
//! ONE description feed all three consumers — the Graphviz netlist, the
//! Table I cost model, and the simulated circuit that four hardware
//! threads time-multiplex.
//!
//! ```text
//! cargo run --example gcd_synthesis
//! ```

use mt_elastic::cost::Inventory;
use mt_elastic::synth::{DataflowBuilder, OpLatency};

fn software_gcd(mut a: u64, mut b: u64) -> u64 {
    while a != b {
        if a > b {
            a -= b;
        } else {
            b -= a;
        }
    }
    a
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const THREADS: usize = 4;

    // Describe the algorithm as a dataflow graph:
    //
    //   pairs ──► merge ──► branch(a == b) ──► gcd (output)
    //               ▲            │ not equal
    //               └── step ◄───┘   (subtract smaller from larger)
    let mut g = DataflowBuilder::<(u64, u64)>::new(THREADS);
    let fresh = g.input("pairs");
    let looped = g.input("loop"); // placeholder, closed below
    let head = g.merge("entry", &[fresh, looped]);
    let (done, cont) = g.branch("done?", head, |&(a, b): &(u64, u64)| a == b);
    g.output("gcd", done);
    let step = g.op1("step", OpLatency::Fixed(1), cont, |&(a, b)| {
        if a > b {
            (a - b, b)
        } else {
            (a, b - a)
        }
    });
    g.loopback("loop", step)?;

    // Stage 1 — finish the structural IR the builder wrote: merges/ops
    // got reduced MEBs automatically, so the loop is legal elastic
    // hardware and inherently multithreaded, and `build_ir` has run the
    // protocol and cycle-cover lints. The IR is the single source of
    // truth for everything that follows.
    let mut synth_ir = g.build_ir()?;

    // Consumer 1: the Graphviz netlist (no simulation).
    println!(
        "netlist (render with `dot -Tsvg`):\n{}",
        synth_ir.ir.to_dot()
    );

    // Consumer 2: the structural cost model, from the same description.
    // Annotate the token width first — a (u64, u64) problem pair — so the
    // model can size the inserted MEBs' register banks.
    let every_channel: Vec<_> = synth_ir
        .ir
        .nodes()
        .flat_map(|n| n.inputs().iter().chain(n.outputs()).copied())
        .collect();
    for ch in every_channel {
        synth_ir.ir.set_width(ch, 128);
    }
    let inv = Inventory::from_ir(&synth_ir.ir);
    println!(
        "buffer inventory from the IR ({} LEs total):\n{}",
        inv.total_les(),
        inv.render()
    );

    // Consumer 3: the simulated circuit.
    let mut s = synth_ir.elaborate()?;
    println!(
        "synthesized components: {:?}\n",
        s.circuit.component_names()
    );

    let problems = [(1071u64, 462u64), (270, 192), (35, 64), (123456, 7890)];
    for (t, &(a, b)) in problems.iter().enumerate() {
        s.push("pairs", t, (a, b))?;
    }
    s.run_until_outputs("gcd", THREADS as u64, 100_000)?;

    println!("{:<18} {:>10} {:>10}", "problem", "circuit", "software");
    println!("{}", "-".repeat(40));
    for (t, &(a, b)) in problems.iter().enumerate() {
        let got = s.collected("gcd", t)[0].0;
        let expect = software_gcd(a, b);
        println!("gcd({a:>6}, {b:>5}) {got:>10} {expect:>10}");
        assert_eq!(got, expect);
    }
    println!(
        "\ncompleted in {} cycles — all four threads iterated concurrently through\n\
         ONE subtractor, ONE branch and ONE merge, scheduled by the MEB arbiters.",
        s.circuit.cycle()
    );
    Ok(())
}
