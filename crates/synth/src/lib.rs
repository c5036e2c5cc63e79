//! # elastic-synth — dataflow graphs to multithreaded elastic circuits
//!
//! The paper's conclusion promises that its primitives "enable the
//! automated synthesis of complex algorithms to their multithreaded
//! elastic equivalent circuits." This crate implements that flow:
//! [`DataflowBuilder`] writes a dataflow graph straight into the
//! structural [`ElasticIr`] built from [`elastic_core`] primitives — ops
//! become joins + (variable-)latency units, conditionals become
//! M-Branch/M-Merge loops, fan-out becomes eager M-Forks, and every
//! operation and merge output gets a reduced MEB marked `auto`, so the
//! synthesized circuit is automatically multithreaded: `S` independent
//! threads time-multiplex the one datapath. The same IR feeds the
//! [`passes`] (e.g. [`MebSubstitution::auto`] picks the inserted
//! buffers' microarchitecture), the cost model, DOT rendering and
//! elaboration into an [`elastic_sim`] circuit.
//!
//! **Loop ordering caveat**: an iterative loop (built with
//! [`DataflowBuilder::loopback`]) may hold several problems of the same
//! thread in flight simultaneously; problems that converge in fewer
//! iterations exit first, so completion order *within* a thread is not
//! FIFO. Tag tokens with a sequence number, or feed one problem per
//! thread at a time, when order matters.
//!
//! # Example — an iterative circuit (Euclid's GCD) shared by 2 threads
//!
//! ```
//! use elastic_synth::{DataflowBuilder, OpLatency};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut g = DataflowBuilder::<(u64, u64)>::new(2);
//! let fresh = g.input("pairs");
//! let looped = g.input("loop_seed"); // placeholder producer for the loopback
//! // merge(fresh, loop) -> branch(a == b) -> done | step -> back
//! let head = g.merge("entry", &[fresh, looped]);
//! let (done, cont) = g.branch("done?", head, |&(a, b): &(u64, u64)| a == b);
//! g.output("gcd", done);
//! let step = g.op1("step", OpLatency::Fixed(1), cont, |&(a, b)| {
//!     if a > b { (a - b, b) } else { (a, b - a) }
//! });
//! // Close the loop: the `step` output is what `loop_seed` stood for
//! // (`loopback` rewires the placeholder's reader to the internal wire).
//! g.loopback("loop_seed", step)?;
//! let mut s = g.elaborate()?;
//! s.push("pairs", 0, (48, 36))?;
//! s.push("pairs", 1, (81, 54))?;
//! s.run_until_outputs("gcd", 2, 2_000)?;
//! assert_eq!(s.collected("gcd", 0), vec![(12, 12)]);
//! assert_eq!(s.collected("gcd", 1), vec![(27, 27)]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod builder;
mod circuit;
pub mod ir;
pub mod opt;
pub mod passes;

pub use builder::{DataflowBuilder, OpLatency, SynthError, SynthIr, Wire};
pub use circuit::{RunError, SynthCircuit, UnknownPortError};
pub use ir::{
    BuildFn, CostHint, Elaborated, ElasticIr, IrChannel, IrChannelId, IrError, IrNode, IrNodeId,
    IrNodeKind, IrNodeTag,
};
pub use opt::{
    delta_styles, dot_with_deltas, MebDepthSizing, Retiming, SlackMatching, TransformSpec,
};
pub use passes::{
    CycleCoverLint, MebSubstitution, MebTarget, Pass, PassDelta, PassError, PassManager,
    PassReport, ProtocolLint, RetimeDirection,
};
