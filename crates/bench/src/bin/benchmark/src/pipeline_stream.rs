//! `pipeline_stream`: reduced-MEB pipelines streaming tagged tokens into
//! randomly stalling sinks.
//!
//! Acyclic, no custom nodes, one ranked settle round per cycle: the settle
//! loop and the clock edge do nearly all the work and construction is
//! under 1% of a job, so this is where a kernel gain must show.

use elastic_core::{MebKind, PipelineConfig, PipelineHarness};
use elastic_sim::{EvalMode, ReadyPolicy, Sink, Tagged};

use crate::record::Rec;
use crate::rng::{Fnv, Rng};
use crate::{Scale, Workload};

/// (threads, stages) of the three pipeline shapes.
const SHAPES: [(usize, usize); 3] = [(8, 12), (16, 8), (64, 4)];

struct Job {
    threads: usize,
    stages: usize,
    tokens: Vec<u64>,
    policies: Vec<ReadyPolicy>,
}

pub struct PipelineStream {
    jobs: Vec<Job>,
}

impl PipelineStream {
    pub fn new(seed: u64, scale: Scale) -> Self {
        let (per_shape, tokens) = match scale {
            Scale::Full => (10, 2048),
            Scale::Smoke => (1, 128),
        };
        let mut rng = Rng::new(seed, "pipeline_stream");
        let mut jobs = Vec::new();
        for (threads, stages) in SHAPES {
            for _ in 0..per_shape {
                // Threads pair up and move tokens between each other, so
                // every job of a shape carries the same total.
                let base = tokens / threads as u64;
                let counts = (0..threads / 2)
                    .flat_map(|_| {
                        let d = rng.below(base / 2 + 1);
                        [base + d, base - d]
                    })
                    .collect();
                // Stratified sink probabilities in [0.4, 0.9): every job
                // mixes fast and slow consumers in the same proportion.
                let mut strata: Vec<usize> = (0..threads).collect();
                rng.shuffle(&mut strata);
                let policies = strata
                    .iter()
                    .map(|&k| ReadyPolicy::Random {
                        p: 0.4 + 0.5 * (k as f64 + rng.unit()) / threads as f64,
                        seed: rng.next_u64(),
                    })
                    .collect();
                jobs.push(Job {
                    threads,
                    stages,
                    tokens: counts,
                    policies,
                });
            }
        }
        Self { jobs }
    }

    /// Runs one job to its last delivered token and checks it; returns
    /// the capture digest and the simulated cycle count.
    fn run(job: &Job, mode: EvalMode, rec: &mut Rec) -> Result<(Fnv, u64), String> {
        let mut cfg = PipelineConfig::free_flowing(job.threads, job.stages, MebKind::Reduced, 0);
        cfg.tokens_per_thread = job.tokens.clone();
        cfg.sink_policies = job.policies.clone();
        if mode != EvalMode::default() {
            cfg = cfg.with_eval_mode(mode);
        }
        let mut h = rec.setup("sim.build", |_| PipelineHarness::build(cfg));
        if rec.tracing() {
            h.circuit.set_settle_timing(true);
        }
        let total: u64 = job.tokens.iter().sum();
        let out = h.pipeline.output;
        let limit = 100 * total + 10_000;
        rec.span("sim.step", |_| {
            // At most one token leaves per cycle, so running for the
            // number still missing can never overshoot the last delivery.
            loop {
                let done = h.circuit.stats().total_transfers(out);
                if done >= total {
                    return Ok(());
                }
                if h.circuit.cycle() > limit {
                    return Err(format!("{done}/{total} tokens after {limit} cycles"));
                }
                h.circuit.run(total - done).map_err(|e| e.to_string())?;
            }
        })?;
        let digest = rec.span("bench.check", |_| check(&h, job))?;
        let stats = h.circuit.stats();
        rec.kernel.merge(stats.kernel());
        rec.count(
            "model.stall_cycles",
            stats.channel(out).total_stall_cycles() as f64,
        );
        Ok((digest, h.circuit.cycle()))
    }
}

/// Per-thread FIFO order and token conservation: every thread's tokens
/// arrive exactly once, in sequence, and the source is drained.
fn check(h: &PipelineHarness, job: &Job) -> Result<Fnv, String> {
    let sink: &Sink<Tagged> = h.sink();
    let mut digest = Fnv::new();
    for (t, &n) in job.tokens.iter().enumerate() {
        let got = sink.captured(t);
        if got.len() as u64 != n {
            return Err(format!("thread {t}: {} of {n} tokens delivered", got.len()));
        }
        for (i, (cycle, tok)) in got.iter().enumerate() {
            if tok.thread != t || tok.seq != i as u64 || tok.payload != i as u64 {
                return Err(format!("thread {t}: token {i} arrived as {tok:?}"));
            }
            digest.word(*cycle);
        }
    }
    if !h.source().is_drained() {
        return Err("source still holds tokens".to_string());
    }
    Ok(digest)
}

impl Workload for PipelineStream {
    fn oracle(&self, rec: &mut Rec) {
        for (threads, stages) in SHAPES {
            let job = self
                .jobs
                .iter()
                .find(|j| (j.threads, j.stages) == (threads, stages))
                .expect("every shape has jobs");
            rec.job(&format!("oracle {threads}x{stages}"), |rec| {
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
        for (i, job) in self.jobs.iter().enumerate() {
            rec.job(&format!("job {i}"), |rec| {
                let (digest, cycles) = Self::run(job, EvalMode::default(), rec)?;
                rec.digest.word(digest.0);
                rec.items += job.tokens.iter().sum::<u64>();
                rec.cycles += cycles;
                Ok(())
            });
        }
    }
}
