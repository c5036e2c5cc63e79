//! # elastic-cost — structural FPGA area model
//!
//! The area half of the paper's Table I ("FPGA implementation results of
//! the 8-thread design examples") without a synthesis flow: per-primitive
//! logic-element formulas ([`primitives`]) summed over a design's
//! structural IR by [`Inventory::from_ir`] — the same netlist the
//! simulator elaborates. See `DESIGN.md` for the substitution rationale:
//! Table I compares *relative* cost of full vs reduced MEBs, which a
//! structural model over identical inventories preserves (who wins, by
//! roughly what factor, and how the gap grows with the thread count).
//!
//! The table itself, with the delay model and the paper's reference
//! numbers, is generated by `elastic-bench` (`table1_fpga`): the design
//! crates depend on this one for the formulas, so it cannot see them.
//!
//! # Example
//!
//! ```
//! use elastic_core::MebKind;
//! use elastic_cost::meb_inventory;
//!
//! // A reduced MEB stores S + 1 tokens instead of 2·S.
//! let full = meb_inventory(MebKind::Full, 8, 128).total_les();
//! let reduced = meb_inventory(MebKind::Reduced, 8, 128).total_les();
//! assert_eq!((full, reduced), (4024, 3138));
//! ```

#![warn(missing_docs)]

pub mod from_ir;
pub mod primitives;

pub use from_ir::{expected_les_delta, meb_inventory};
pub use primitives::{CostItem, Inventory};
