//! Elastic control operators (paper, Fig. 3) and their multithreaded
//! variants (Fig. 7).
//!
//! Each operator is generic over the channel's thread count: instantiated
//! on single-thread channels it is the baseline operator of Sec. II;
//! on `S`-thread channels it is the M- variant of Sec. IV-B (which the
//! paper constructs as `S` copies of the baseline operator with the
//! handshake wires gathered per thread).

mod branch;
mod fork;
mod join;
mod merge;

pub use branch::Branch;
pub use fork::Fork;
pub use join::Join;
pub use merge::Merge;
