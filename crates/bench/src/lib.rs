//! # elastic-bench — experiment harnesses for the DATE 2014 reproduction
//!
//! Shared builders used by the figure/table generator binaries (`fig1_traces`,
//! `fig2_handshake`, `fig5_pipeline_trace`, `table1_fpga`,
//! `throughput_vs_threads`, `ablation_buffers`), the Criterion benches and
//! the repository-level integration tests. Each public function maps to an
//! experiment row in `DESIGN.md`'s per-experiment index.
//!
//! [`table1`] lives here rather than in `elastic-cost` because it costs
//! the MD5 and processor designs, whose crates depend on the cost
//! formulas.

#![warn(missing_docs)]

pub mod fig5;
pub mod gcd;
pub mod table1;
pub mod throughput;

pub use fig5::{fig5_harness, fig5_rows, Fig5Setup};
pub use gcd::gcd_ir;
pub use table1::Design;
pub use throughput::{measure_throughput, reduced_worstcase, ThroughputPoint, WorstcaseResult};
