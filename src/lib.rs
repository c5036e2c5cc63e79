//! # mt-elastic — multithreaded elastic systems (DATE 2014), in Rust
//!
//! A comprehensive reproduction of *"Hardware Primitives for the Synthesis
//! of Multithreaded Elastic Systems"* (Dimitrakopoulos, Seitanidis,
//! Psarras, Tsiouris, Mattheakis, Cortadella — DATE 2014). This facade
//! crate re-exports the workspace:
//!
//! * [`sim`] — the cycle-accurate synchronous simulation kernel
//!   (channels with per-thread valid/ready, components, settle loop,
//!   traces, statistics);
//! * [`core`] — the paper's primitives: elastic buffers, full/reduced
//!   multithreaded elastic buffers, M-Join/M-Fork/M-Branch/M-Merge,
//!   arbiters and the thread barrier;
//! * [`md5`] — the MD5 design example (RFC 1321 reference + elastic
//!   circuit with barrier-synchronized rounds);
//! * [`proc`] — the multithreaded elastic processor (DTU-RISC ISA,
//!   assembler, MEB pipeline);
//! * [`cost`] — the structural FPGA area model: per-primitive LE
//!   formulas and `Inventory::from_ir`, which costs a design from its IR
//!   (Table I itself is printed by `elastic-bench`'s `table1_fpga`);
//! * [`synth`] — dataflow graphs elaborated into multithreaded elastic
//!   circuits (the conclusion's "automated synthesis" flow).
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory and
//! per-experiment index, and `EXPERIMENTS.md` for paper-vs-measured
//! results.
//!
//! # Quickstart
//!
//! ```
//! use mt_elastic::core::{MebKind, PipelineConfig, PipelineHarness};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Two threads time-multiplexing a 2-stage reduced-MEB pipeline.
//! let cfg = PipelineConfig::free_flowing(2, 2, MebKind::Reduced, 20);
//! let mut h = PipelineHarness::build(cfg);
//! h.circuit.run(50)?;
//! assert_eq!(h.sink().consumed_total(), 40);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub use elastic_core as core;
pub use elastic_cost as cost;
pub use elastic_md5 as md5;
pub use elastic_proc as proc;
pub use elastic_sim as sim;
pub use elastic_synth as synth;
