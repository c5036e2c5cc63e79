//! Reference-model tests for the processor datapath's word-level `eval`s.
//!
//! The fetcher, register unit and data memory (the processor's custom
//! units), its two variable-latency units and its routing fork evaluate
//! through word-level `eval`s that cache per-cycle words. Each keeps its
//! per-thread evaluation as `eval_reference`. Here every program of
//! `programs::all()` runs on a processor built as usual and on one whose
//! six units are wrapped so that their `eval` calls `eval_reference`; the
//! architectural state, the `CpuRunStats` and the kernel counters (eval
//! counts, round counts, per-op evals) must be identical under both
//! settle modes. The reset contract of the processor units is checked
//! here too: reset-and-rerun loops must reproduce a fresh build's run.

mod common;

use common::{wrap, HasReference, Model};
use mt_elastic::core::Fork;
use mt_elastic::proc::{
    assemble, programs, Cpu, CpuConfig, CpuRunStats, Fetcher, MemUnit, ProcToken, RegUnit, NUM_REGS,
};
use mt_elastic::sim::{
    run_sweep_on, Circuit, EvalCtx, EvalMode, KernelStats, SimError, SimJob, VarLatency,
};

impl HasReference<ProcToken> for Fetcher {
    fn eval_reference(&mut self, ctx: &mut EvalCtx<'_, ProcToken>) {
        Fetcher::eval_reference(self, ctx);
    }
}

impl HasReference<ProcToken> for RegUnit {
    fn eval_reference(&mut self, ctx: &mut EvalCtx<'_, ProcToken>) {
        RegUnit::eval_reference(self, ctx);
    }
}

impl HasReference<ProcToken> for MemUnit {
    fn eval_reference(&mut self, ctx: &mut EvalCtx<'_, ProcToken>) {
        MemUnit::eval_reference(self, ctx);
    }
}

fn build(source: &str, config: &CpuConfig, model: Model, mode: EvalMode) -> Cpu {
    let program = assemble(source).expect("shipped programs assemble");
    let mut cpu = Cpu::new(config.clone(), program, vec![0; config.threads]);
    if model == Model::Reference {
        let c = &mut cpu.circuit;
        wrap::<_, Fetcher>(c, "fetch");
        wrap::<_, VarLatency<ProcToken>>(c, "icache");
        wrap::<_, RegUnit>(c, "regs");
        wrap::<_, VarLatency<ProcToken>>(c, "exec");
        wrap::<_, Fork<ProcToken>>(c, "router");
        wrap::<_, MemUnit>(c, "dmem");
    }
    cpu.circuit.set_eval_mode(mode);
    cpu
}

/// Words of data memory the programs touch on up to 8 threads.
const DATA_WORDS: usize = 1024;

/// Seeds the first 32 words of every thread's 64-word region, where the
/// copy, dot-product, sort and matrix programs read their inputs.
fn preset(cpu: &mut Cpu) {
    for t in 0..cpu.config().threads {
        for i in 0..32usize {
            cpu.set_mem(t * 64 + i, ((t * 131 + i * 17 + 5) % 97) as u32);
        }
    }
}

/// Everything a run can observe.
#[derive(PartialEq, Debug)]
struct Obs {
    stats: CpuRunStats,
    regs: Vec<u32>,
    mem: Vec<u32>,
    fetched: Vec<u64>,
    kernel: KernelStats,
}

/// Presets the data, runs to halt and observes.
fn run(cpu: &mut Cpu) -> Obs {
    preset(cpu);
    let stats = cpu.run_to_halt(3_000_000).expect("program halts");
    let threads = cpu.config().threads;
    Obs {
        stats,
        regs: (0..threads)
            .flat_map(|t| (0..NUM_REGS).map(move |r| (t, r)))
            .map(|(t, r)| cpu.reg(t, r))
            .collect(),
        mem: (0..DATA_WORDS).map(|a| cpu.mem(a)).collect(),
        fetched: (0..threads).map(|t| cpu.fetcher().fetched(t)).collect(),
        kernel: *cpu.circuit.stats().kernel(),
    }
}

/// Every program under both settle modes: the fast and the reference
/// units must agree on everything.
fn check_programs(config: &CpuConfig) {
    for (name, source, _) in programs::all() {
        for mode in [EvalMode::EventDriven, EvalMode::Exhaustive] {
            let fast = run(&mut build(source, config, Model::Fast, mode));
            let reference = run(&mut build(source, config, Model::Reference, mode));
            assert_eq!(
                fast, reference,
                "{name} on {} threads ({mode:?}): fast evals diverged from the reference",
                config.threads
            );
        }
    }
}

#[test]
fn fast_paths_match_the_reference_on_2_threads() {
    check_programs(&CpuConfig::new(2));
}

#[test]
fn fast_paths_match_the_reference_on_4_threads() {
    check_programs(&CpuConfig::new(4));
}

#[test]
fn fast_paths_match_the_reference_on_8_threads() {
    check_programs(&CpuConfig::new(8));
}

/// Speculation adds the squash epochs the fetcher mirrors locally and
/// the wrong-path handling of the register and memory units.
#[test]
fn fast_paths_match_the_reference_under_speculation() {
    check_programs(&CpuConfig::new(4).with_speculation());
}

/// `Circuit::reset` rewinds the whole processor: a reset and rerun
/// reproduces a fresh build's run exactly, whether the reset comes after
/// a full run, mid-run, or after a single cycle (which leaves every
/// per-cycle word built at cycle 0, the cycle the rerun starts at).
#[test]
fn reset_and_rerun_reproduce_a_fresh_run() {
    for config in [CpuConfig::new(4), CpuConfig::new(4).with_speculation()] {
        for (name, source) in [
            ("bubble_sort", programs::BUBBLE_SORT),
            ("sieve", programs::SIEVE),
        ] {
            for model in [Model::Fast, Model::Reference] {
                let mut cpu = build(source, &config, model, EvalMode::EventDriven);
                let fresh = run(&mut cpu);
                for cut in [None, Some(1), Some(300)] {
                    cpu.circuit.reset().expect("every processor unit resets");
                    if let Some(cycles) = cut {
                        preset(&mut cpu);
                        cpu.circuit.run(cycles).expect("clean");
                        cpu.circuit.reset().expect("every processor unit resets");
                    }
                    assert_eq!(
                        run(&mut cpu),
                        fresh,
                        "{name} ({model:?}, speculate {}): rerun after a reset at {cut:?}",
                        config.speculate
                    );
                }
            }
        }
    }
}

/// Seeds the data memory, runs the matrix program to halt and returns the
/// cycle count, the data memory and the kernel counters.
fn run_matmul(circuit: &mut Circuit<ProcToken>) -> Result<(u64, Vec<u32>, KernelStats), SimError> {
    let dmem: &mut MemUnit = circuit.get_mut("dmem").expect("data memory");
    for a in 0..4 * 64 {
        dmem.write(a, (a * 7 % 31) as u32);
    }
    let mut idle = 0;
    loop {
        let cycle = circuit.cycle();
        circuit.run(1)?;
        idle = if circuit.last_progress() == Some(cycle) {
            0
        } else {
            idle + 1
        };
        let fetch: &Fetcher = circuit.get("fetch").expect("fetcher");
        if idle >= 64 && fetch.all_halted() {
            break;
        }
    }
    let dmem: &MemUnit = circuit.get("dmem").expect("data memory");
    let words: Vec<u32> = (0..4 * 64).map(|a| dmem.read(a)).collect();
    Ok((circuit.cycle(), words, *circuit.stats().kernel()))
}

/// With reset supported, a sweep job can rerun its processor: each of
/// four jobs runs the matrix program, resets its processor and runs it
/// again. Every rerun matches the first run.
#[test]
fn sweep_jobs_reuse_a_reset_processor() {
    let config = CpuConfig::new(4);
    let program = assemble(programs::MATMUL).expect("assembles");
    let jobs = (0..4)
        .map(|i| {
            let (config, program) = (config.clone(), program.clone());
            SimJob::instrumented(format!("matmul #{i}"), move || {
                let threads = config.threads;
                let mut circuit = Cpu::new(config, program, vec![0; threads]).circuit;
                let first = run_matmul(&mut circuit)?;
                circuit.reset()?;
                let rerun = run_matmul(&mut circuit)?;
                let kernel = rerun.2;
                Ok(((first, rerun), kernel))
            })
        })
        .collect();
    let report = run_sweep_on(jobs, 2);
    let results: Vec<_> = report
        .jobs
        .into_iter()
        .map(|j| j.outcome.expect("job runs clean"))
        .collect();
    let first = &results[0].0;
    for (fresh, rerun) in &results {
        assert_eq!(fresh, first, "a fresh processor diverged");
        assert_eq!(rerun, first, "a reset processor diverged");
    }
}
