//! The assembled multithreaded elastic processor.
//!
//! Pipeline (paper, Sec. V-B — every pipeline register is a MEB; fetch,
//! memories and the multiplier are variable-latency):
//!
//! ```text
//! Fetcher ─► icache(varlat) ─► MEB ─► RegUnit(decode) ─► MEB ─► Exec(varlat)
//!    ▲                                    ▲                        │
//!    │                                    │ writeback              ▼
//!   MEB ◄── redirect ◄── Router ◄──────── MEB ◄── MemUnit ◄─────── MEB
//! ```
//!
//! Control-flow instructions stall only their own thread at fetch; the
//! MEBs let every other thread keep flowing through the shared datapath —
//! the utilization argument of the paper's introduction.

use std::sync::Arc;

use elastic_core::{ArbiterKind, MebKind};
use elastic_cost::primitives::{adder, lut_layer, mux, register};
use elastic_sim::{ChannelId, Circuit, Component, LatencyModel, SimError};
use elastic_synth::{
    CycleCoverLint, ElasticIr, IrNodeKind, MebSubstitution, PassManager, ProtocolLint,
};

use crate::asm::{assemble, AsmError};
use crate::isa::Instr;
use crate::stages::{execute, Fetcher, MemUnit, RegUnit, SpecState};
use crate::token::ProcToken;

/// Processor configuration.
#[derive(Clone, Debug)]
pub struct CpuConfig {
    /// Hardware thread count `S`.
    pub threads: usize,
    /// MEB microarchitecture used for every pipeline register.
    pub meb: MebKind,
    /// Arbitration policy in every MEB.
    pub arbiter: ArbiterKind,
    /// Instruction-fetch latency range (cycles).
    pub imem_latency: (u32, u32),
    /// Data-memory latency range (cycles).
    pub dmem_latency: (u32, u32),
    /// Multiplier latency (cycles).
    pub mul_latency: u32,
    /// Data-memory size in words.
    pub dmem_words: usize,
    /// Seed for all variable-latency draws.
    pub seed: u64,
    /// Predict-not-taken speculation for conditional branches (direct
    /// jumps resolve at predecode; `jr` still stalls). Wrong-path
    /// instructions are squashed via per-thread epochs.
    pub speculate: bool,
}

impl CpuConfig {
    /// A sensible default: variable 1–3 cycle fetch, 1–4 cycle data
    /// memory, 3-cycle multiplier, 64 KiW of data memory, reduced MEBs.
    pub fn new(threads: usize) -> Self {
        Self {
            threads,
            meb: MebKind::Reduced,
            arbiter: ArbiterKind::RoundRobin,
            imem_latency: (1, 3),
            dmem_latency: (1, 4),
            mul_latency: 3,
            dmem_words: 1 << 16,
            seed: 0xDA7E_2014,
            speculate: false,
        }
    }

    /// Overrides the MEB kind.
    #[must_use]
    pub fn with_meb(mut self, meb: MebKind) -> Self {
        self.meb = meb;
        self
    }

    /// Overrides the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables predict-not-taken branch speculation.
    #[must_use]
    pub fn with_speculation(mut self) -> Self {
        self.speculate = true;
        self
    }

    /// Makes every unit single-cycle (deterministic timing for tests).
    #[must_use]
    pub fn deterministic(mut self) -> Self {
        self.imem_latency = (1, 1);
        self.dmem_latency = (1, 1);
        self.mul_latency = 1;
        self
    }
}

impl Default for CpuConfig {
    fn default() -> Self {
        Self::new(8)
    }
}

/// Statistics from a completed run.
#[derive(Clone, PartialEq, Debug)]
pub struct CpuRunStats {
    /// Cycles simulated until every thread halted and the pipeline
    /// drained.
    pub cycles: u64,
    /// Instructions executed (passed the execute stage) per thread —
    /// includes wrong-path instructions when speculating.
    pub executed: Vec<u64>,
    /// Wrong-path instructions squashed per thread (zero without
    /// speculation).
    pub squashed: Vec<u64>,
    /// Aggregate instructions per cycle (wrong-path included).
    pub ipc: f64,
    /// Aggregate *useful* instructions per cycle (wrong-path squashes
    /// subtracted; equals `ipc` without speculation).
    pub useful_ipc: f64,
}

/// Errors from driving the processor.
#[derive(Debug)]
pub enum CpuError {
    /// The underlying simulation failed.
    Sim(SimError),
    /// The program did not halt within the cycle budget.
    Timeout {
        /// Budget that was exhausted.
        max_cycles: u64,
    },
    /// [`CpuConfig::threads`] is 0.
    NoThreads,
    /// [`CpuConfig::imem_latency`] is an empty range (`min > max`).
    ImemLatency {
        /// Lower end of the range.
        min: u32,
        /// Upper end of the range.
        max: u32,
    },
    /// [`CpuConfig::dmem_latency`] is an empty range (`min > max`) or
    /// starts at 0 cycles, which the data memory cannot serve.
    DmemLatency {
        /// Lower end of the range.
        min: u32,
        /// Upper end of the range.
        max: u32,
    },
    /// The program has no instruction.
    EmptyProgram,
    /// The entry-PC list does not hold one PC per thread.
    EntryPcCount {
        /// [`CpuConfig::threads`].
        threads: usize,
        /// Length of the entry-PC list.
        entry_pcs: usize,
    },
    /// [`Cpu::from_asm`]'s source did not assemble.
    Asm(AsmError),
}

impl std::fmt::Display for CpuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CpuError::Sim(e) => write!(f, "simulation error: {e}"),
            CpuError::Timeout { max_cycles } => {
                write!(f, "program did not halt within {max_cycles} cycles")
            }
            CpuError::NoThreads => write!(f, "the processor needs at least one thread"),
            CpuError::ImemLatency { min, max } => {
                write!(f, "instruction-memory latency range {min}..={max} is empty")
            }
            CpuError::DmemLatency { min, max } => write!(
                f,
                "data-memory latency range {min}..={max} is empty or starts at 0 cycles"
            ),
            CpuError::EmptyProgram => write!(f, "program must contain at least one instruction"),
            CpuError::EntryPcCount { threads, entry_pcs } => write!(
                f,
                "{entry_pcs} entry PCs for {threads} threads (one entry PC per thread)"
            ),
            CpuError::Asm(e) => write!(f, "assembler error: {e}"),
        }
    }
}

impl std::error::Error for CpuError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CpuError::Sim(e) => Some(e),
            CpuError::Asm(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for CpuError {
    fn from(e: SimError) -> Self {
        CpuError::Sim(e)
    }
}

impl From<AsmError> for CpuError {
    fn from(e: AsmError) -> Self {
        CpuError::Asm(e)
    }
}

/// The router's output mask for an executed instruction: bit 0 sends it
/// on to memory and writeback, bit 1 to the fetch redirect. Control
/// flow redirects (`jal` also writes its link register); everything
/// else writes back. A token that is not [`ProcToken::Executed`] routes
/// nowhere, which the router fork reports as
/// [`ProtocolError::InvalidRoute`](elastic_sim::ProtocolError::InvalidRoute).
pub fn route(tok: &ProcToken) -> u64 {
    let ProcToken::Executed { instr, .. } = tok else {
        return 0;
    };
    let to_wb = !instr.is_control_flow() || matches!(instr, Instr::Jal { .. });
    let to_redirect = instr.is_control_flow();
    u64::from(to_wb) | u64::from(to_redirect) << 1
}

/// The structural IR of the processor pipeline — the one description
/// behind simulation ([`Cpu::new`] elaborates it), the cost model
/// (`Inventory::from_ir`) and DOT rendering (`ir.to_dot()`).
pub struct CpuIr {
    /// The netlist. The five pipeline-register MEBs are emitted as
    /// `auto` nodes with the placeholder `Reduced` kind; [`Cpu::new`]
    /// retargets them with [`MebSubstitution::auto`].
    pub ir: ElasticIr<ProcToken>,
}

/// The multithreaded elastic processor.
pub struct Cpu {
    /// The simulated pipeline netlist.
    pub circuit: Circuit<ProcToken>,
    config: CpuConfig,
    /// execute → EX/MEM MEB: its transfers are the executed instructions.
    ex_out: ChannelId,
}

impl Cpu {
    /// Builds the structural IR of the pipeline, with `program` loaded
    /// into instruction memory and every thread starting at
    /// `entry_pcs[thread]`.
    ///
    /// The design-specific stages (fetcher, register unit, data memory)
    /// are [`IrNodeKind::Custom`] nodes whose factories capture the
    /// program and configuration; the generic stages (latency units, the
    /// router fork, the MEB pipeline registers) are ordinary primitive
    /// nodes, so passes can retarget the buffers and the lints can check
    /// the wiring. Channel widths carry the per-stage token widths of the
    /// cost model, and cost hints describe the combinational payload
    /// (ALU, decoder, PCs, …).
    ///
    /// # Panics
    ///
    /// Panics if `entry_pcs.len() != config.threads` or the program is
    /// empty.
    pub fn ir(config: &CpuConfig, program: Vec<u32>, entry_pcs: Vec<u32>) -> CpuIr {
        assert!(
            !program.is_empty(),
            "program must contain at least one instruction"
        );
        assert_eq!(entry_pcs.len(), config.threads, "one entry PC per thread");
        let s = config.threads;
        let mut ir = ElasticIr::<ProcToken>::new();

        let fetch = ir.channel("fetch", s);
        let fetched = ir.channel("fetched", s);
        let decode_in = ir.channel_with_width("decode_in", s, 36);
        let issued = ir.channel("issued", s);
        let ex_in = ir.channel_with_width("ex_in", s, 52);
        let ex_out = ir.channel("ex_out", s);
        let route_in = ir.channel_with_width("route_in", s, 44);
        let mem_in = ir.channel("mem_in", s);
        let mem_out = ir.channel("mem_out", s);
        let wb = ir.channel_with_width("wb", s, 30);
        let redirect_raw = ir.channel("redirect_raw", s);
        let redirect = ir.channel_with_width("redirect", s, 18);

        let meb = || IrNodeKind::Meb {
            kind: MebKind::Reduced,
            arbiter: config.arbiter,
            initial: Vec::new(),
            auto: true,
        };

        let imem = Arc::new(program);
        let spec = SpecState::new(s);
        let speculate = config.speculate;

        let fetch_spec = Arc::clone(&spec);
        let fetcher_node = ir.add(
            "fetch",
            IrNodeKind::Custom {
                build: Box::new(move |ins: &[ChannelId], outs: &[ChannelId]| {
                    let mut fetcher = Fetcher::new("fetch", outs[0], ins[0], s, imem, entry_pcs);
                    if speculate {
                        fetcher = fetcher.with_speculation(fetch_spec);
                    }
                    Box::new(fetcher) as Box<dyn Component<ProcToken>>
                }),
                // The PC registers drive fetch, but the redirect path
                // gates `valid` combinationally — not a loop cut.
                cuts: false,
            },
            vec![redirect],
            vec![fetch],
        );
        ir.add_cost_hint(fetcher_node, "program counters", s, register(16));
        ir.add_cost_hint(fetcher_node, "fetch thread-select", 1, 8 * s);

        ir.add(
            "icache",
            IrNodeKind::VarLatency {
                servers: s.max(2),
                model: LatencyModel::Uniform {
                    min: config.imem_latency.0,
                    max: config.imem_latency.1,
                    seed: config.seed ^ 0x1CAC4E,
                },
                transform: None,
            },
            vec![fetch],
            vec![fetched],
        );
        ir.add("meb_if", meb(), vec![fetched], vec![decode_in]);

        let regs_spec = Arc::clone(&spec);
        let regs_node = ir.add(
            "regs",
            IrNodeKind::Custom {
                build: Box::new(move |ins: &[ChannelId], outs: &[ChannelId]| {
                    let mut regs = RegUnit::new("regs", ins[0], ins[1], outs[0], s);
                    if speculate {
                        regs = regs.with_speculation(regs_spec);
                    }
                    Box::new(regs) as Box<dyn Component<ProcToken>>
                }),
                cuts: false,
            },
            vec![decode_in, wb],
            vec![issued],
        );
        ir.add_cost_hint(regs_node, "instruction decoder", 1, 120);
        ir.add_cost_hint(regs_node, "scoreboard (pending bits)", s, 32);
        ir.add_cost_hint(regs_node, "hazard/forward control", 1, 124);

        ir.add("meb_id", meb(), vec![issued], vec![ex_in]);

        let mul_latency = config.mul_latency;
        let exec_node = ir.add(
            "exec",
            IrNodeKind::VarLatency {
                servers: s.max(2),
                model: LatencyModel::PerToken(Box::new(move |tok: &ProcToken| match tok {
                    ProcToken::Decoded { instr, .. } if instr.is_mul() => mul_latency,
                    _ => 1,
                })),
                transform: Some(Box::new(execute)),
            },
            vec![ex_in],
            vec![ex_out],
        );
        ir.add_cost_hint(
            exec_node,
            "ALU (adder + logic + shifter + result mux)",
            1,
            adder(32) + 2 * lut_layer(32) + 3 * lut_layer(32) + 2 * mux(32, 2),
        );
        ir.add_cost_hint(exec_node, "multiplier glue (DSP excluded)", 1, 40);

        ir.add("meb_ex", meb(), vec![ex_out], vec![route_in]);
        ir.add(
            "router",
            IrNodeKind::Fork {
                route: Some(Box::new(route)),
            },
            vec![route_in],
            vec![mem_in, redirect_raw],
        );

        let dmem_words = config.dmem_words;
        let dmem_latency = config.dmem_latency;
        let dmem_seed = config.seed ^ 0xD3EA;
        ir.add(
            "dmem",
            IrNodeKind::Custom {
                build: Box::new(move |ins: &[ChannelId], outs: &[ChannelId]| {
                    let mut dmem = MemUnit::new(
                        "dmem",
                        ins[0],
                        outs[0],
                        s,
                        s.max(2),
                        dmem_words,
                        dmem_latency,
                        dmem_seed,
                    );
                    if speculate {
                        dmem = dmem.with_speculation(spec);
                    }
                    Box::new(dmem) as Box<dyn Component<ProcToken>>
                }),
                // A variable-latency memory: every handshake path is
                // registered, so it legally cuts feedback cycles.
                cuts: true,
            },
            vec![mem_in],
            vec![mem_out],
        );
        ir.add("meb_wb", meb(), vec![mem_out], vec![wb]);
        ir.add("meb_rd", meb(), vec![redirect_raw], vec![redirect]);

        CpuIr { ir }
    }

    /// Builds an IR for *cost and rendering only* (a trivial one-word
    /// program): what `Inventory::from_ir` and the design-lint tooling
    /// consume when no real workload is at hand.
    pub fn cost_ir(threads: usize) -> CpuIr {
        Self::ir(&CpuConfig::new(threads), vec![0], vec![0; threads])
    }

    /// Builds the processor with `program` loaded into instruction memory
    /// and every thread starting at `entry_pcs[thread]`.
    ///
    /// Construction is the IR pipeline end to end: [`ir`](Self::ir) →
    /// [`MebSubstitution::auto`]`(config.meb)` → protocol + cycle-cover
    /// lints → elaboration.
    ///
    /// # Errors
    ///
    /// Before elaboration, in this order: [`CpuError::NoThreads`] for
    /// `config.threads == 0`, [`CpuError::ImemLatency`] for an empty
    /// `config.imem_latency` range, [`CpuError::DmemLatency`]
    /// for an empty `config.dmem_latency` range or one that starts at 0,
    /// [`CpuError::EmptyProgram`], and [`CpuError::EntryPcCount`] unless
    /// `entry_pcs` holds one PC per thread.
    pub fn try_new(
        config: CpuConfig,
        program: Vec<u32>,
        entry_pcs: Vec<u32>,
    ) -> Result<Self, CpuError> {
        if config.threads == 0 {
            return Err(CpuError::NoThreads);
        }
        let (min, max) = config.imem_latency;
        if min > max {
            return Err(CpuError::ImemLatency { min, max });
        }
        let (min, max) = config.dmem_latency;
        if min == 0 || min > max {
            return Err(CpuError::DmemLatency { min, max });
        }
        if program.is_empty() {
            return Err(CpuError::EmptyProgram);
        }
        if entry_pcs.len() != config.threads {
            return Err(CpuError::EntryPcCount {
                threads: config.threads,
                entry_pcs: entry_pcs.len(),
            });
        }
        let mut ir = Self::ir(&config, program, entry_pcs).ir;
        PassManager::new()
            .with(MebSubstitution::auto(config.meb).with_arbiter(config.arbiter))
            .with(ProtocolLint)
            .with(CycleCoverLint)
            .run(&mut ir)
            .expect("cpu netlist passes lints");
        let ex_out = ir
            .channel_named("ex_out")
            .expect("the pipeline has an `ex_out` channel");
        let e = ir.elaborate().expect("cpu netlist is well-formed");
        Ok(Self {
            ex_out: e.channel(ex_out),
            circuit: e.circuit,
            config,
        })
    }

    /// [`try_new`](Self::try_new) for a configuration known to be valid.
    ///
    /// # Panics
    ///
    /// Panics with the error's message where [`try_new`](Self::try_new)
    /// returns one: no thread, an empty `config.imem_latency` range, an
    /// empty `config.dmem_latency` range or one that starts at 0, an
    /// empty program, or an entry-PC count other than `config.threads`.
    pub fn new(config: CpuConfig, program: Vec<u32>, entry_pcs: Vec<u32>) -> Self {
        Self::try_new(config, program, entry_pcs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Convenience: assembles `source` and starts every thread at PC 0
    /// (thread-specific behaviour via the `tid` instruction).
    ///
    /// # Errors
    ///
    /// [`CpuError::Asm`] if `source` does not assemble, else whatever
    /// [`try_new`](Self::try_new) returns for `config` and the program.
    pub fn from_asm(config: CpuConfig, source: &str) -> Result<Self, CpuError> {
        let program = assemble(source)?;
        let entries = vec![0; config.threads];
        Self::try_new(config, program, entries)
    }

    /// The configuration this processor was built with.
    pub fn config(&self) -> &CpuConfig {
        &self.config
    }

    /// Architectural register value.
    pub fn reg(&self, thread: usize, r: usize) -> u32 {
        self.regs().reg(thread, r)
    }

    /// Reads a data-memory word.
    pub fn mem(&self, addr: usize) -> u32 {
        self.dmem().read(addr)
    }

    /// Writes a data-memory word before running.
    pub fn set_mem(&mut self, addr: usize, value: u32) {
        self.circuit
            .get_mut::<MemUnit>("dmem")
            .expect("dmem exists")
            .write(addr, value);
    }

    /// The fetch stage (thread status inspection).
    pub fn fetcher(&self) -> &Fetcher {
        self.circuit.get("fetch").expect("fetcher exists")
    }

    /// The register unit.
    pub fn regs(&self) -> &RegUnit {
        self.circuit.get("regs").expect("reg unit exists")
    }

    /// The data memory unit.
    pub fn dmem(&self) -> &MemUnit {
        self.circuit.get("dmem").expect("dmem exists")
    }

    /// Runs until every thread has halted and the pipeline has drained,
    /// or until `max_cycles`.
    ///
    /// # Errors
    ///
    /// [`CpuError::Timeout`] when the budget is exhausted, or
    /// [`CpuError::Sim`] on a protocol violation/deadlock.
    pub fn run_to_halt(&mut self, max_cycles: u64) -> Result<CpuRunStats, CpuError> {
        let drain_window = 8
            + 4 * (self.config.imem_latency.1.max(self.config.dmem_latency.1) as u64)
            + u64::from(self.config.mul_latency);
        let mut idle = 0u64;
        loop {
            let cycle = self.circuit.cycle();
            if cycle >= max_cycles {
                return Err(CpuError::Timeout { max_cycles });
            }
            // One cycle through the batch driver, which collects no
            // transfer records.
            self.circuit.run(1)?;
            if self.circuit.last_progress() == Some(cycle) {
                idle = 0;
            } else {
                idle += 1;
            }
            // The name lookup behind `fetcher()` runs only once the
            // pipeline has been idle for a whole drain window.
            if idle >= drain_window && self.fetcher().all_halted() {
                break;
            }
        }
        let cycles = self.circuit.cycle();
        let executed: Vec<u64> = (0..self.config.threads)
            .map(|t| self.circuit.stats().transfers(self.ex_out, t))
            .collect();
        let squashed: Vec<u64> = (0..self.config.threads)
            .map(|t| self.fetcher().squashed(t))
            .collect();
        let total: u64 = executed.iter().sum();
        let useful = total.saturating_sub(squashed.iter().sum());
        Ok(CpuRunStats {
            cycles,
            executed,
            squashed,
            ipc: total as f64 / cycles as f64,
            useful_ipc: useful as f64 / cycles as f64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(source: &str, threads: usize) -> Cpu {
        let mut cpu = Cpu::from_asm(CpuConfig::new(threads), source).expect("assembles");
        cpu.run_to_halt(50_000).expect("halts");
        cpu
    }

    #[test]
    fn straight_line_arithmetic() {
        let cpu = run(
            "addi r1, r0, 21\n\
             add  r2, r1, r1\n\
             sll  r3, r2, 2\n\
             halt\n",
            1,
        );
        assert_eq!(cpu.reg(0, 1), 21);
        assert_eq!(cpu.reg(0, 2), 42);
        assert_eq!(cpu.reg(0, 3), 168);
    }

    #[test]
    fn raw_hazards_resolve_correctly() {
        // Each instruction depends on the previous one.
        let cpu = run(
            "addi r1, r0, 1\n\
             add  r2, r1, r1\n\
             add  r3, r2, r2\n\
             add  r4, r3, r3\n\
             mul  r5, r4, r4\n\
             add  r6, r5, r4\n\
             halt\n",
            1,
        );
        assert_eq!(cpu.reg(0, 4), 8);
        assert_eq!(cpu.reg(0, 5), 64);
        assert_eq!(cpu.reg(0, 6), 72);
    }

    #[test]
    fn loop_with_branch_counts_down() {
        let cpu = run(
            "      addi r1, r0, 10\n\
                   addi r2, r0, 0\n\
             loop: add  r2, r2, r1\n\
                   addi r1, r1, -1\n\
                   bne  r1, r0, loop\n\
                   halt\n",
            1,
        );
        assert_eq!(cpu.reg(0, 2), 55);
        assert_eq!(cpu.reg(0, 1), 0);
    }

    #[test]
    fn loads_and_stores_roundtrip() {
        let mut cpu = Cpu::from_asm(
            CpuConfig::new(1),
            "addi r1, r0, 100\n\
             addi r2, r0, 1234\n\
             sw   r2, 0(r1)\n\
             lw   r3, 0(r1)\n\
             add  r4, r3, r3\n\
             sw   r4, 1(r1)\n\
             halt\n",
        )
        .expect("assembles");
        cpu.run_to_halt(50_000).expect("halts");
        assert_eq!(cpu.mem(100), 1234);
        assert_eq!(cpu.mem(101), 2468);
        assert_eq!(cpu.reg(0, 3), 1234);
    }

    #[test]
    fn jal_and_jr_implement_a_call() {
        let cpu = run(
            "       addi r1, r0, 5\n\
                    jal  fn\n\
                    add  r3, r2, r2\n\
                    halt\n\
             fn:    add  r2, r1, r1\n\
                    jr   r31\n",
            1,
        );
        assert_eq!(cpu.reg(0, 2), 10);
        assert_eq!(cpu.reg(0, 3), 20);
        assert_eq!(cpu.reg(0, 31), 2);
    }

    #[test]
    fn tid_gives_each_thread_its_identity() {
        let cpu = run(
            "tid  r1\n\
             addi r2, r1, 100\n\
             sw   r2, 0(r1)\n\
             halt\n",
            4,
        );
        for t in 0..4 {
            assert_eq!(cpu.reg(t, 1), t as u32);
            assert_eq!(cpu.mem(t), 100 + t as u32);
        }
    }

    #[test]
    fn threads_share_the_datapath_without_interference() {
        // Each thread computes its own sum 1..=N with N = 5 + tid; results
        // must be independent despite full datapath sharing.
        let cpu = run(
            "      tid  r1\n\
                   addi r1, r1, 5\n\
                   addi r2, r0, 0\n\
             loop: add  r2, r2, r1\n\
                   addi r1, r1, -1\n\
                   bne  r1, r0, loop\n\
                   halt\n",
            8,
        );
        for t in 0..8 {
            let n = 5 + t as u32;
            assert_eq!(cpu.reg(t, 2), n * (n + 1) / 2, "thread {t}");
        }
    }

    #[test]
    fn multithreading_improves_utilization() {
        // A branchy, dependent workload: a single thread leaves bubbles
        // (stall-on-branch + variable latency); 8 threads fill them. IPC
        // must improve substantially — the paper's motivation (Fig. 1).
        let source = "      tid  r1\n\
                            addi r1, r1, 8\n\
                            addi r2, r0, 0\n\
                      loop: add  r2, r2, r1\n\
                            addi r1, r1, -1\n\
                            bne  r1, r0, loop\n\
                            halt\n";
        let mut single = Cpu::from_asm(CpuConfig::new(1), source).expect("asm");
        let s1 = single.run_to_halt(100_000).expect("halts");
        let mut eight = Cpu::from_asm(CpuConfig::new(8), source).expect("asm");
        let s8 = eight.run_to_halt(100_000).expect("halts");
        assert!(
            s8.ipc > 2.0 * s1.ipc,
            "8-thread IPC {:.3} should be well above single-thread IPC {:.3}",
            s8.ipc,
            s1.ipc
        );
    }

    #[test]
    fn full_and_reduced_mebs_compute_identical_results() {
        let source = "      tid  r1\n\
                            addi r3, r1, 3\n\
                            addi r2, r0, 1\n\
                      loop: mul  r2, r2, r3\n\
                            addi r3, r3, -1\n\
                            bne  r3, r0, loop\n\
                            sw   r2, 0(r1)\n\
                            halt\n";
        let mut results = Vec::new();
        for kind in [MebKind::Full, MebKind::Reduced] {
            let mut cpu = Cpu::from_asm(CpuConfig::new(4).with_meb(kind), source).expect("asm");
            cpu.run_to_halt(100_000).expect("halts");
            results.push((0..4).map(|t| cpu.mem(t)).collect::<Vec<_>>());
        }
        assert_eq!(results[0], results[1]);
        // factorial(3 + tid): 6, 24, 120, 720.
        assert_eq!(results[0], vec![6, 24, 120, 720]);
    }

    #[test]
    fn speculation_preserves_architectural_results() {
        // A branchy loop whose wrong path contains a halt — speculation
        // must squash it and still produce the right sums.
        let source = "      tid  r1\n\
                            addi r1, r1, 6\n\
                            addi r2, r0, 0\n\
                      loop: add  r2, r2, r1\n\
                            addi r1, r1, -1\n\
                            bne  r1, r0, loop\n\
                            halt\n";
        for threads in [1usize, 4] {
            let mut base = Cpu::from_asm(CpuConfig::new(threads), source).expect("asm");
            base.run_to_halt(200_000).expect("halts");
            let mut spec =
                Cpu::from_asm(CpuConfig::new(threads).with_speculation(), source).expect("asm");
            let stats = spec.run_to_halt(200_000).expect("halts");
            for t in 0..threads {
                assert_eq!(spec.reg(t, 2), base.reg(t, 2), "thread {t}");
            }
            // The loop's taken back-edges mispredict: squashes observed.
            assert!(stats.squashed.iter().sum::<u64>() > 0);
        }
    }

    #[test]
    fn speculation_never_leaks_wrong_path_memory_writes() {
        // Wrong path after the (taken) branch stores a poison value; the
        // squash must keep it out of memory.
        let source = "      addi r1, r0, 1\n\
                            addi r3, r0, 42\n\
                            sw   r3, 0(r0)\n\
                            bne  r1, r0, skip\n\
                            addi r4, r0, 666\n\
                            sw   r4, 0(r0)\n\
                      skip: lw   r5, 0(r0)\n\
                            halt\n";
        let mut cpu = Cpu::from_asm(CpuConfig::new(1).with_speculation(), source).expect("asm");
        cpu.run_to_halt(100_000).expect("halts");
        assert_eq!(cpu.mem(0), 42, "wrong-path store leaked to memory");
        assert_eq!(cpu.reg(0, 5), 42);
        assert_eq!(cpu.reg(0, 4), 0, "wrong-path register write leaked");

        // Every taken branch of this loop is followed directly by stores
        // of a poison word to the thread's own words 100 + tid and
        // 108 + tid, which only a wrong path reaches. Such a store can
        // enter the data memory at the clock edge at which its branch
        // redirects fetch, so `dmem` must see the squash at that edge.
        let source = "      tid  r1\n\
                            addi r7, r1, 100\n\
                            addi r6, r0, 666\n\
                            addi r2, r0, 12\n\
                      loop: addi r3, r3, 1\n\
                            addi r2, r2, -1\n\
                            beq  r2, r0, done\n\
                            beq  r0, r0, loop\n\
                            sw   r6, 0(r7)\n\
                            sw   r6, 8(r7)\n\
                            addi r4, r0, 666\n\
                      done: sw   r3, 200(r1)\n\
                            halt\n";
        let mut squashed = 0;
        for threads in [1usize, 2, 4, 8] {
            // Single-cycle units, then the default latencies on five seeds.
            let configs = std::iter::once(CpuConfig::new(threads).deterministic())
                .chain((1..=5).map(|seed| CpuConfig::new(threads).with_seed(seed)));
            for config in configs {
                let label = format!("{threads} threads, {config:?}");
                let mut base = Cpu::from_asm(config.clone(), source).expect("asm");
                base.run_to_halt(200_000).expect("halts");
                let mut spec = Cpu::from_asm(config.with_speculation(), source).expect("asm");
                let stats = spec.run_to_halt(200_000).expect("halts");
                squashed += stats.squashed.iter().sum::<u64>();
                for t in 0..threads {
                    for addr in [100 + t, 108 + t] {
                        assert_eq!(
                            spec.mem(addr),
                            0,
                            "{label}: thread {t}'s wrong-path store leaked to {addr}"
                        );
                    }
                    assert_eq!(spec.mem(200 + t), 12, "{label}: thread {t}");
                    for r in 0..crate::isa::NUM_REGS {
                        assert_eq!(spec.reg(t, r), base.reg(t, r), "{label}: thread {t}, r{r}");
                    }
                }
            }
        }
        assert!(squashed > 0, "no wrong path was fetched");
    }

    #[test]
    fn speculation_helps_single_thread_branchy_code() {
        // Mostly not-taken forward branches: prediction is usually right,
        // so the stall-on-branch baseline loses cycles speculation saves.
        let source = "      tid  r1\n\
                            addi r2, r0, 200\n\
                            addi r3, r0, 0\n\
                      loop: addi r2, r2, -1\n\
                            beq  r2, r0, done\n\
                            addi r3, r3, 1\n\
                            beq  r2, r0, done\n\
                            addi r3, r3, 1\n\
                            bne  r2, r0, loop\n\
                      done: halt\n";
        let mut base = Cpu::from_asm(CpuConfig::new(1), source).expect("asm");
        let b = base.run_to_halt(500_000).expect("halts");
        let mut spec = Cpu::from_asm(CpuConfig::new(1).with_speculation(), source).expect("asm");
        let sp = spec.run_to_halt(500_000).expect("halts");
        assert_eq!(spec.reg(0, 3), base.reg(0, 3));
        assert!(
            sp.cycles < b.cycles * 9 / 10,
            "speculation {} cycles vs baseline {}",
            sp.cycles,
            b.cycles
        );
    }

    #[test]
    fn router_masks_follow_the_instruction_class() {
        let executed = |instr| ProcToken::Executed {
            thread: 0,
            pc: 0,
            instr,
            result: 0,
            addr: 0,
            taken: false,
            target: 0,
            epoch: 0,
            seq: 0,
        };
        let add = Instr::Add {
            rd: 1,
            rs: 2,
            rt: 3,
        };
        assert_eq!(route(&executed(add)), 0b01);
        assert_eq!(route(&executed(Instr::Jr { rs: 31 })), 0b10);
        assert_eq!(route(&executed(Instr::Jal { target: 4 })), 0b11);
        // A token that has not been executed routes nowhere: the router
        // fork reports it as a typed fault.
        let fetched = ProcToken::Fetched {
            thread: 0,
            pc: 0,
            word: 0,
            epoch: 0,
            seq: 0,
        };
        assert_eq!(route(&fetched), 0);
    }

    #[test]
    fn timeout_is_reported_for_nonhalting_programs() {
        let mut cpu = Cpu::from_asm(CpuConfig::new(1), "loop: j loop\n").expect("asm");
        let err = cpu.run_to_halt(500).unwrap_err();
        assert!(matches!(err, CpuError::Timeout { max_cycles: 500 }));
    }
}
