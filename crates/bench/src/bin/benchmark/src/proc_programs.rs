//! `proc_programs`: every kernel of `programs::all()` on the
//! multithreaded processor, results checked against software.
//!
//! Feedback loops, boxed custom fetch/register/memory units, variable
//! latency and quiescent gaps; the job mix has a heavy tail (sieve and
//! matmul run tens of times longer than the sum loop).

use std::collections::HashSet;

use elastic_proc::{assemble, programs, Cpu, CpuConfig};
use elastic_sim::EvalMode;

use crate::record::Rec;
use crate::rng::{Fnv, Rng};
use crate::{Scale, Workload};

const MAX_CYCLES: u64 = 2_000_000;

/// Out-of-order pairs in every bubble-sort input: the sort swaps exactly
/// this often, so its work is the same for every seed while the values
/// and their order differ.
const SORT_INVERSIONS: u64 = 14;

/// One expected architectural value after halt.
#[derive(Clone, Copy)]
pub enum Expect {
    Reg {
        thread: usize,
        reg: usize,
        value: u32,
    },
    Mem {
        addr: usize,
        value: u32,
    },
}

struct Job {
    name: &'static str,
    source: &'static str,
    threads: usize,
    latency_seed: u64,
    memory: Vec<(usize, u32)>,
    expect: Vec<Expect>,
}

pub struct ProcPrograms {
    jobs: Vec<Job>,
}

fn fib(n: usize) -> u32 {
    let (mut a, mut b) = (0u32, 1u32);
    for _ in 0..n {
        (a, b) = (b, a.wrapping_add(b));
    }
    a
}

/// `n` distinct seeded values in an order with exactly `inversions`
/// out-of-order pairs (drawn as a Lehmer code with that digit sum).
fn shuffled_with_inversions(rng: &mut Rng, n: usize, inversions: u64) -> Vec<u32> {
    let mut code = vec![0u64; n];
    for _ in 0..inversions {
        let open: Vec<usize> = (0..n).filter(|&i| code[i] < (n - 1 - i) as u64).collect();
        code[open[rng.below(open.len() as u64) as usize]] += 1;
    }
    let mut sorted: Vec<u32> = Vec::with_capacity(n);
    while sorted.len() < n {
        let v = rng.below(1000) as u32;
        if !sorted.contains(&v) {
            sorted.push(v);
        }
    }
    sorted.sort_unstable();
    code.iter().map(|&c| sorted.remove(c as usize)).collect()
}

/// Seeded input data for `name` on `threads` threads and the software
/// reference of what the program must leave behind.
pub fn inputs(name: &str, threads: usize, rng: &mut Rng) -> (Vec<(usize, u32)>, Vec<Expect>) {
    let mut memory = Vec::new();
    let mut expect = Vec::new();
    for t in 0..threads {
        match name {
            "sum_loop" => expect.push(Expect::Reg {
                thread: t,
                reg: 2,
                value: (1..=8 + t as u32).sum(),
            }),
            "fibonacci" => expect.push(Expect::Mem {
                addr: t,
                value: fib(10 + t),
            }),
            "memcpy" => {
                for i in 0..16 {
                    let v = rng.next_u64() as u32;
                    memory.push((t * 64 + i, v));
                    expect.push(Expect::Mem {
                        addr: t * 64 + 32 + i,
                        value: v,
                    });
                }
            }
            "dot_product" => {
                let mut acc = 0u32;
                for i in 0..16 {
                    let (x, y) = (rng.below(1000) as u32, rng.below(1000) as u32);
                    memory.push((t * 64 + i, x));
                    memory.push((t * 64 + 16 + i, y));
                    acc = acc.wrapping_add(x.wrapping_mul(y));
                }
                expect.push(Expect::Mem {
                    addr: t * 64 + 63,
                    value: acc,
                });
            }
            "sieve" => expect.push(Expect::Mem {
                addr: t * 128 + 127,
                value: 18,
            }),
            "bubble_sort" => {
                let mut vals = shuffled_with_inversions(rng, 8, SORT_INVERSIONS);
                for (i, &v) in vals.iter().enumerate() {
                    memory.push((t * 32 + i, v));
                }
                vals.sort_unstable();
                for (i, &v) in vals.iter().enumerate() {
                    expect.push(Expect::Mem {
                        addr: t * 32 + i,
                        value: v,
                    });
                }
            }
            "matmul" => {
                let a: Vec<u32> = (0..16).map(|_| rng.below(100) as u32).collect();
                let b: Vec<u32> = (0..16).map(|_| rng.below(100) as u32).collect();
                for i in 0..16 {
                    memory.push((t * 64 + i, a[i]));
                    memory.push((t * 64 + 16 + i, b[i]));
                }
                for i in 0..4 {
                    for j in 0..4 {
                        let c = (0..4).fold(0u32, |c, k| {
                            c.wrapping_add(a[4 * i + k].wrapping_mul(b[4 * k + j]))
                        });
                        expect.push(Expect::Mem {
                            addr: t * 64 + 32 + 4 * i + j,
                            value: c,
                        });
                    }
                }
            }
            other => unreachable!("no software reference for program `{other}`"),
        }
    }
    (memory, expect)
}

/// Compares the architectural state after halt with the software
/// reference; returns the digest of the checked values.
pub fn verify(
    expect: &[Expect],
    reg: impl Fn(usize, usize) -> u32,
    mem: impl Fn(usize) -> u32,
) -> Result<Fnv, String> {
    let mut digest = Fnv::new();
    for e in expect {
        let (got, want) = match *e {
            Expect::Reg {
                thread,
                reg: r,
                value,
            } => (reg(thread, r), value),
            Expect::Mem { addr, value } => (mem(addr), value),
        };
        if got != want {
            return Err(format!("expected {want}, got {got}"));
        }
        digest.word(u64::from(got));
    }
    Ok(digest)
}

impl ProcPrograms {
    pub fn new(seed: u64, scale: Scale) -> Self {
        // Three seeded variants of every (program, threads) pair: the
        // median and the tail of the mix then sit inside a group of like
        // jobs instead of between two jobs that each vary with the seed.
        let (thread_counts, variants): (&[usize], usize) = match scale {
            Scale::Full => (&[2, 4, 8], 3),
            Scale::Smoke => (&[2], 1),
        };
        let mut rng = Rng::new(seed, "proc_programs");
        let mut jobs = Vec::new();
        for &threads in thread_counts {
            for (name, source, _) in programs::all() {
                for _ in 0..variants {
                    let (memory, expect) = inputs(name, threads, &mut rng);
                    jobs.push(Job {
                        name,
                        source,
                        threads,
                        latency_seed: rng.next_u64(),
                        memory,
                        expect,
                    });
                }
            }
        }
        Self { jobs }
    }

    /// Assembles, builds, loads and runs one job; returns the digest of
    /// the checked values, the cycles and the instructions executed.
    fn run(job: &Job, mode: EvalMode, rec: &mut Rec) -> Result<(Fnv, u64, u64), String> {
        let program = rec
            .setup("proc.asm", |_| assemble(job.source))
            .map_err(|e| e.to_string())?;
        let config = CpuConfig::new(job.threads).with_seed(job.latency_seed);
        let mut cpu = rec.setup("proc.new", |_| {
            let mut cpu = Cpu::new(config, program, vec![0; job.threads]);
            for &(addr, value) in &job.memory {
                cpu.set_mem(addr, value);
            }
            cpu
        });
        if mode != EvalMode::default() {
            cpu.circuit.set_eval_mode(mode);
        }
        if rec.tracing() {
            cpu.circuit.set_settle_timing(true);
        }
        let stats = rec
            .span("sim.step", |_| cpu.run_to_halt(MAX_CYCLES))
            .map_err(|e| e.to_string())?;
        rec.kernel.merge(cpu.circuit.stats().kernel());
        let digest = rec.span("bench.check", |_| {
            verify(&job.expect, |t, r| cpu.reg(t, r), |a| cpu.mem(a))
                .map_err(|e| format!("{}: {e}", job.name))
        })?;
        Ok((digest, stats.cycles, stats.executed.iter().sum()))
    }
}

impl Workload for ProcPrograms {
    fn oracle(&self, rec: &mut Rec) {
        let mut seen = HashSet::new();
        for job in self
            .jobs
            .iter()
            .filter(|j| seen.insert((j.name, j.threads)))
        {
            rec.job(&format!("oracle {}x{}", job.name, job.threads), |rec| {
                let fast = Self::run(job, EvalMode::EventDriven, rec)?;
                let oracle = Self::run(job, EvalMode::Exhaustive, rec)?;
                if fast != oracle {
                    return Err(format!("event-driven {fast:?} != exhaustive {oracle:?}"));
                }
                Ok(())
            });
        }
    }

    fn rep(&self, rec: &mut Rec) {
        for job in &self.jobs {
            rec.job(&format!("{}x{}", job.name, job.threads), |rec| {
                let (digest, cycles, executed) = Self::run(job, EvalMode::default(), rec)?;
                rec.digest.word(digest.0);
                rec.items += executed;
                rec.cycles += cycles;
                Ok(())
            });
        }
    }
}
