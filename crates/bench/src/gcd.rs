//! The synthesized GCD loop (extension, not in the paper): the design
//! `examples/gcd_synthesis.rs` writes with the `DataflowBuilder`, stopped
//! at the IR stage and annotated for the cost model.

use elastic_cost::primitives::{adder, lut_layer, mux};
use elastic_synth::{DataflowBuilder, ElasticIr, IrChannelId, OpLatency};

/// Bits of the loop token the cost model sizes the MEBs at: the
/// extension row's documented 130-bit calibration point (the `(u64, u64)`
/// operand pair is 128 of them).
const TOKEN_BITS: usize = 130;

/// The GCD loop — merge → branch(a == b) → subtract → back to the merge —
/// as the structural IR `DataflowBuilder::build_ir` returns for `threads`
/// threads, linted, with its MEBs still the builder's reduced ones.
///
/// Every channel carries the 130-bit loop token, and cost hints describe
/// the datapath the nodes' closures compute: the equality test on the
/// branch, the magnitude comparator, subtractor and operand swap on the
/// step, and the merge/branch control on the merge.
pub fn gcd_ir(threads: usize) -> ElasticIr<(u64, u64)> {
    let mut g = DataflowBuilder::<(u64, u64)>::new(threads);
    let fresh = g.input("pairs");
    let looped = g.input("loop");
    let head = g.merge("entry", &[fresh, looped]);
    let (done, cont) = g.branch("done?", head, |&(a, b)| a == b);
    g.output("gcd", done);
    let step = g.op1("step", OpLatency::Fixed(1), cont, |&(a, b)| {
        if a > b {
            (a - b, b)
        } else {
            (a, b - a)
        }
    });
    g.loopback("loop", step).expect("loop closes");
    let mut ir = g.build_ir().expect("gcd graph builds").ir;

    let ports: Vec<IrChannelId> = ir
        .nodes()
        .flat_map(|n| n.inputs().iter().chain(n.outputs()).copied())
        .collect();
    for ch in ports {
        ir.set_width(ch, TOKEN_BITS);
    }
    let node = |name| ir.node_named(name).expect("the gcd loop names its nodes");
    let (merge, branch, step) = (node("entry"), node("done?"), node("step:fn"));
    ir.add_cost_hint(branch, "equality comparator (2x64b)", 1, 2 * lut_layer(64));
    ir.add_cost_hint(step, "magnitude comparator", 1, lut_layer(64));
    ir.add_cost_hint(step, "subtractor", 1, adder(64));
    ir.add_cost_hint(step, "operand swap muxes", 2, mux(64, 2));
    ir.add_cost_hint(merge, "merge/branch control", 1, 24);
    ir
}
