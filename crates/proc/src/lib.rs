//! # elastic-proc — a multithreaded elastic pipelined processor
//!
//! The second design example of *"Hardware Primitives for the Synthesis of
//! Multithreaded Elastic Systems"* (DATE 2014, Sec. V-B): an in-order RISC
//! pipeline in which **every pipeline register is a MEB** that selects
//! independently, each cycle, which thread to promote; each thread has a
//! private program counter and register file; instruction memory, data
//! memory and the multiplier are variable-latency units.
//!
//! * [`isa`] — the DTU-RISC instruction set (standing in for the iDEA
//!   soft processor of the paper's reference \[10\]);
//! * [`asm`] — a two-pass assembler with labels and pseudo-instructions;
//! * [`stages`] — fetch, decode/writeback, execute and memory components;
//! * [`cpu`] — the assembled pipeline and run harness;
//! * [`programs`] — multithreaded benchmark workloads.
//!
//! # Example
//!
//! ```
//! use elastic_proc::{Cpu, CpuConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut cpu = Cpu::from_asm(
//!     CpuConfig::new(2),
//!     "tid r1\naddi r2, r1, 40\nhalt\n",
//! )?;
//! let stats = cpu.run_to_halt(10_000)?;
//! assert_eq!(cpu.reg(0, 2), 40);
//! assert_eq!(cpu.reg(1, 2), 41);
//! assert!(stats.ipc > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod asm;
pub mod cpu;
pub mod isa;
pub mod programs;
pub mod stages;
pub mod token;

pub use asm::{assemble, disassemble, AsmError};
pub use cpu::{Cpu, CpuConfig, CpuError, CpuIr, CpuRunStats};
pub use isa::{Instr, NUM_REGS};
pub use stages::{execute, Fetcher, MemUnit, RegUnit, SpecState, ThreadStatus};
pub use token::ProcToken;
