//! # elastic-md5 — MD5 as a multithreaded elastic circuit
//!
//! The first design example of *"Hardware Primitives for the Synthesis of
//! Multithreaded Elastic Systems"* (DATE 2014, Sec. V-A): an MD5 engine in
//! which the 16 steps of each round are fully unrolled into one
//! combinational stage, each block makes four trips through that stage,
//! and a thread [`Barrier`](elastic_core::Barrier) synchronizes all
//! threads between rounds so a single global round-configuration counter
//! can drive the datapath.
//!
//! * [`algo`] — a from-scratch RFC 1321 software MD5 (the golden model);
//! * [`circuit`] — the elastic loop (M-Merge → MEB → round unit → MEB →
//!   barrier → M-Branch) and a cycle-accurate driver.
//!
//! # Example
//!
//! ```
//! use elastic_core::MebKind;
//! use elastic_md5::{algo, Md5Hasher};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let hasher = Md5Hasher::new(4, MebKind::Reduced);
//! let (digests, cycles) = hasher.hash_messages(&[b"abc" as &[u8], b"xyz"])?;
//! assert_eq!(digests[0], algo::md5(b"abc"));
//! assert!(cycles > 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod algo;
pub mod circuit;

pub use circuit::{Md5Circuit, Md5Error, Md5Hasher, Md5Ir, Md5Token};
