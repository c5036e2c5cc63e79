//! # elastic-core — multithreaded elastic hardware primitives
//!
//! A faithful, cycle-accurate model of the primitives proposed in
//! *"Hardware Primitives for the Synthesis of Multithreaded Elastic
//! Systems"* (Dimitrakopoulos, Seitanidis, Psarras, Tsiouris, Mattheakis,
//! Cortadella — DATE 2014), built on the [`elastic_sim`] kernel:
//!
//! * the baseline single-thread [`ElasticBuffer`] with its EMPTY/HALF/FULL
//!   control FSM (paper Sec. II);
//! * multithreaded elastic buffers: the full MEB (one EB per thread,
//!   Fig. 4), which is [`FifoMeb::full`], a private FIFO of depth 2 per
//!   thread; the paper's key contribution the [`ReducedMeb`] (one main
//!   register per thread plus a single dynamically shared auxiliary
//!   register, Fig. 6); and [`FifoMeb`] at other depths as an ablation;
//! * thread [`Arbiter`]s ([`FixedPriority`], [`RoundRobin`],
//!   [`LeastRecent`]);
//! * the elastic control operators [`Join`], [`Fork`], [`Branch`] and
//!   [`Merge`] — instantiated on multithreaded channels they are the
//!   M-Join / M-Fork / M-Branch / M-Merge of Fig. 7;
//! * the sense-reversing thread [`Barrier`] (Fig. 8);
//! * [`pipeline`] helpers to assemble MEB pipelines like the one in the
//!   paper's Fig. 5.
//!
//! # Example
//!
//! Two threads time-multiplexing a 2-stage reduced-MEB pipeline:
//!
//! ```
//! use elastic_core::{MebKind, PipelineConfig, PipelineHarness};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = PipelineConfig::free_flowing(2, 2, MebKind::Reduced, 20);
//! let mut h = PipelineHarness::build(cfg);
//! h.circuit.run(42)?;
//! assert_eq!(h.sink().consumed_total(), 40);
//! // Each of the M = 2 active threads received 1/M of the channel while
//! // the pipeline was busy.
//! let thr = h.circuit.stats().throughput(h.pipeline.output, 0);
//! assert!((thr - 0.5).abs() < 0.1, "throughput {thr}");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod arbiter;
pub mod barrier;
pub mod eb;
pub mod meb;
pub mod ops;
pub mod pipeline;
mod select;

pub use arbiter::{Arbiter, ArbiterKind, CoarseGrained, FixedPriority, LeastRecent, RoundRobin};
pub use barrier::{Barrier, BarrierState};
pub use eb::{EbState, ElasticBuffer};
pub use meb::{FifoMeb, MebKind, ReducedMeb};
pub use ops::{Branch, Fork, Join, Merge};
pub use pipeline::{build_meb_pipeline, MebPipeline, PipelineConfig, PipelineHarness};
pub use select::{select_output_thread, ReadyCache, SelectState};
