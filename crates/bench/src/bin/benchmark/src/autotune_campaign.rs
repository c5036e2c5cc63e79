//! `autotune_campaign`: the greedy sim + cost autotuner, rebuilt on
//! library calls, over MD5 and processor design points.
//!
//! Candidates come from `MebDepthSizing`, `SlackMatching` and `Retiming`,
//! are linted and cost-delta-checked, and are evaluated as keyed jobs on a
//! `SweepService`. Re-proposing after every accept puts cache hits next to
//! misses. The only workload where IR, passes, cost and elaboration are a
//! visible share of the time, and where the pool and the cache do work.

use std::cell::Cell;
use std::collections::HashSet;
use std::sync::Arc;

use elastic_core::MebKind;
use elastic_cost::{expected_les_delta, Inventory};
use elastic_md5::{algo, Md5Circuit, Md5Token};
use elastic_proc::{assemble, programs, Cpu, CpuConfig, Fetcher, MemUnit, ProcToken, RegUnit};
use elastic_sim::{
    campaign_key, Circuit, EvalMode, FeedbackProfile, SimError, SimJob, Sink, Source, SweepReport,
    SweepService, Token,
};
use elastic_synth::{
    ElasticIr, IrNodeTag, MebDepthSizing, Pass, PassManager, RetimeDirection, Retiming,
    SlackMatching, TransformSpec,
};

use crate::record::{Part, Rec};
use crate::rng::{Fnv, Rng};
use crate::{host, proc_programs, Scale, Workload};

type Factory<T> = Arc<dyn Fn() -> ElasticIr<T> + Send + Sync>;
/// Runs a built design to completion and returns its output digest and
/// whether every output matched the software reference.
type Drive<T> = Arc<dyn Fn(&mut Circuit<T>) -> Result<(u64, bool), SimError> + Send + Sync>;

struct Target<T: Token> {
    name: String,
    factory: Factory<T>,
    drive: Drive<T>,
}

enum Point {
    Md5(Target<Md5Token>),
    Cpu(Target<ProcToken>),
}

/// Applies the same generic code to a point whatever its token type.
macro_rules! on_target {
    ($point:expr, $t:ident => $body:expr) => {
        match $point {
            Point::Md5($t) => $body,
            Point::Cpu($t) => $body,
        }
    };
}

/// One evaluated design point.
#[derive(Clone)]
struct EvalOut {
    digest: u64,
    matches_reference: bool,
    cycles: u64,
    les: u64,
    profile: FeedbackProfile,
    /// The worker's set-up time and spans (ignored on cache hits).
    part: Part,
}

pub struct AutotuneCampaign {
    points: Vec<Point>,
    /// Point indices of each campaign, run in order on one service. The
    /// second re-submits the stage sweep at one thread count, as a
    /// regression gate over earlier results would, so its candidates
    /// answer from the cache next to the first campaign's misses.
    campaigns: [Vec<usize>; 2],
    rounds: usize,
}

impl AutotuneCampaign {
    pub fn new(seed: u64, scale: Scale) -> Self {
        let (threads, stages, waves, rounds): (&[usize], &[usize], usize, usize) = match scale {
            Scale::Full => (&[2, 4, 8], &[1, 2, 4, 8, 16], 6, 4),
            Scale::Smoke => (&[2], &[1, 2], 2, 2),
        };
        let mut rng = Rng::new(seed, "autotune_campaign");
        let mut points = Vec::new();
        let mut resubmitted = Vec::new();
        for &t in threads {
            for &s in stages {
                if t == threads[threads.len() / 2] {
                    resubmitted.push(points.len());
                }
                points.push(Point::Md5(md5_point(t, s, waves, &mut rng)));
            }
        }
        let cpus: &[(&str, &str, usize)] = match scale {
            Scale::Full => &[
                ("memcpy", programs::MEMCPY, 4),
                ("dot_product", programs::DOT_PRODUCT, 2),
            ],
            Scale::Smoke => &[("memcpy", programs::MEMCPY, 2)],
        };
        for &(name, source, t) in cpus {
            points.push(Point::Cpu(cpu_point(name, source, t, &mut rng)));
        }
        let campaigns = [(0..points.len()).collect(), resubmitted];
        Self {
            points,
            campaigns,
            rounds,
        }
    }

    /// One campaign: a sweep of every baseline, each point's tuning rounds
    /// in turn, then a sweep of every final design (all cache hits) that
    /// must reproduce what the tuning measured. Each step is one
    /// closed-loop job. Returns the final designs' (cycles, LEs), or
    /// nothing if a job failed.
    fn campaign(
        &self,
        rec: &mut Rec,
        service: &SweepService<EvalOut>,
        members: &[usize],
    ) -> Vec<(u64, u64)> {
        let points: Vec<&Point> = members.iter().map(|&i| &self.points[i]).collect();
        let mut states: Vec<Tuning> = Vec::new();
        rec.job("baseline sweep", |rec| {
            let jobs = points
                .iter()
                .map(|p| on_target!(p, t => make_job(rec, t, Vec::new())))
                .collect::<Result<Vec<_>, _>>()?;
            let report = submit(rec, service, jobs);
            for (point, job) in points.iter().zip(&report.jobs) {
                match &job.outcome {
                    Ok(out) if out.matches_reference => states.push(Tuning {
                        baseline: out.clone(),
                        current: out.clone(),
                        accepted: Vec::new(),
                        tried: HashSet::new(),
                    }),
                    Ok(_) => {
                        return Err(format!(
                            "{}: baseline differs from the reference",
                            point.name()
                        ))
                    }
                    Err(e) => return Err(format!("{}: baseline: {e}", point.name())),
                }
            }
            Ok(())
        });
        if states.len() != points.len() {
            return Vec::new();
        }
        for (point, state) in points.iter().zip(&mut states) {
            for r in 0..self.rounds {
                let mut accepted = false;
                rec.job(&format!("{} round {r}", point.name()), |rec| {
                    accepted = on_target!(point, t => round(rec, t, state, service))?;
                    Ok(())
                });
                if !accepted {
                    break;
                }
            }
        }
        let mut finals = Vec::new();
        rec.job("final sweep", |rec| {
            let jobs = points
                .iter()
                .zip(&states)
                .map(|(p, s)| on_target!(p, t => make_job(rec, t, s.accepted.clone())))
                .collect::<Result<Vec<_>, _>>()?;
            let report = submit(rec, service, jobs);
            for ((point, state), job) in points.iter().zip(&states).zip(&report.jobs) {
                let out = job
                    .outcome
                    .as_ref()
                    .map_err(|e| format!("{}: {e}", point.name()))?;
                if out.digest != state.baseline.digest || out.cycles != state.current.cycles {
                    return Err(format!(
                        "{}: final design does not reproduce its tuning",
                        point.name()
                    ));
                }
                rec.digest.word(out.digest);
                rec.digest.word(out.cycles);
                rec.digest.word(out.les);
                finals.push((out.cycles, out.les));
            }
            Ok(())
        });
        finals
    }
}

/// MD5 round loop with `threads` threads and `stages` round stages; each
/// thread hashes `waves` seeded blocks, one in flight at a time.
fn md5_point(threads: usize, stages: usize, waves: usize, rng: &mut Rng) -> Target<Md5Token> {
    let blocks: Arc<Vec<Vec<[u32; 16]>>> = Arc::new(
        (0..threads)
            .map(|_| {
                (0..waves)
                    .map(|_| std::array::from_fn(|_| rng.next_u64() as u32))
                    .collect()
            })
            .collect(),
    );
    let token = |t: usize, wave: usize, block: [u32; 16]| Md5Token {
        thread: t,
        wave,
        block,
        chain: algo::MD5_IV,
        work: algo::MD5_IV,
        steps_done: 0,
        phantom: false,
    };
    let drive: Drive<Md5Token> = Arc::new(move |circuit| {
        let feeder: &mut Source<Md5Token> = circuit.get_mut("feeder").expect("feeder exists");
        for (t, b) in blocks.iter().enumerate() {
            feeder.push(t, token(t, 0, b[0]));
        }
        let mut seen = vec![0usize; threads];
        let mut done = 0;
        while done < threads * waves {
            assert!(
                circuit.cycle() <= 200_000,
                "md5 run exceeded its cycle budget"
            );
            circuit.step()?;
            let sink: &Sink<Md5Token> = circuit.get("out").expect("sink exists");
            let mut refill = Vec::new();
            for (t, seen) in seen.iter_mut().enumerate() {
                let n = sink.captured(t).len();
                for wave in *seen..n {
                    done += 1;
                    if wave + 1 < waves {
                        refill.push((t, token(t, wave + 1, blocks[t][wave + 1])));
                    }
                }
                *seen = n;
            }
            let feeder: &mut Source<Md5Token> = circuit.get_mut("feeder").expect("feeder exists");
            for (t, tok) in refill {
                feeder.push(t, tok);
            }
        }
        let sink: &Sink<Md5Token> = circuit.get("out").expect("sink exists");
        let mut digest = Fnv::new();
        let mut ok = true;
        for (t, thread_blocks) in blocks.iter().enumerate() {
            for (wave, (_, tok)) in sink.captured(t).iter().enumerate() {
                let want = algo::apply_steps(algo::MD5_IV, &thread_blocks[wave], 0, 64);
                ok &= tok.steps_done == 64 && tok.work == want && tok.wave == wave;
                tok.work.iter().for_each(|&w| digest.word(u64::from(w)));
            }
        }
        Ok((digest.0, ok))
    });
    Target {
        name: format!("md5 {threads}x{stages}"),
        factory: Arc::new(move || Md5Circuit::ir(threads, threads, stages).ir),
        drive,
    }
}

/// The processor running `name` on `threads` threads with seeded data
/// (checked as in `proc_programs`). The latencies keep the default seed
/// and the programs' control flow does not depend on their data, so the
/// tuning takes the same path for every seed.
fn cpu_point(name: &str, source: &str, threads: usize, rng: &mut Rng) -> Target<ProcToken> {
    let program = assemble(source).expect("shipped programs assemble");
    let (memory, expect) = proc_programs::inputs(name, threads, rng);
    let config = CpuConfig::new(threads);
    let drive: Drive<ProcToken> = Arc::new(move |circuit| {
        let dmem: &mut MemUnit = circuit.get_mut("dmem").expect("data memory exists");
        for &(addr, value) in &memory {
            dmem.write(addr, value);
        }
        let mut idle = 0u64;
        loop {
            assert!(
                circuit.cycle() <= 300_000,
                "processor run exceeded its cycle budget"
            );
            let report = circuit.step()?;
            idle = if report.transfers.is_empty() {
                idle + 1
            } else {
                0
            };
            let fetch: &Fetcher = circuit.get("fetch").expect("fetcher exists");
            if fetch.all_halted() && idle >= 64 {
                break;
            }
        }
        let regs: &RegUnit = circuit.get("regs").expect("reg unit exists");
        let dmem: &MemUnit = circuit.get("dmem").expect("data memory exists");
        Ok(
            match proc_programs::verify(&expect, |t, r| regs.reg(t, r), |a| dmem.read(a)) {
                Ok(digest) => (digest.0, true),
                Err(_) => (0, false),
            },
        )
    });
    Target {
        name: format!("cpu {name}x{threads}"),
        factory: Arc::new(move || Cpu::ir(&config, program.clone(), vec![0; threads]).ir),
        drive,
    }
}

thread_local! {
    static IN_CANDIDATE: Cell<bool> = const { Cell::new(false) };
}

/// Whether this thread is evaluating a design on the sweep pool. The
/// pool isolates a panicking design and the tuner rejects it, so the
/// panic hook keeps such reports off stderr.
pub fn in_candidate() -> bool {
    IN_CANDIDATE.get()
}

/// Marks the current thread as evaluating a design until dropped (also
/// when a panic unwinds through it, which happens after the hook ran).
struct CandidateGuard;

impl CandidateGuard {
    fn enter() -> Self {
        IN_CANDIDATE.set(true);
        CandidateGuard
    }
}

impl Drop for CandidateGuard {
    fn drop(&mut self) {
        IN_CANDIDATE.set(false);
    }
}

/// A fresh build of the design with `specs` replayed onto it.
fn rebuild<T: Token>(
    rec: &mut Rec,
    factory: &Factory<T>,
    specs: &[TransformSpec],
) -> Result<ElasticIr<T>, String> {
    let mut ir = rec.setup("synth.ir", |_| factory());
    rec.setup("synth.transform", |_| {
        specs.iter().try_for_each(|spec| {
            spec.apply(&mut ir)
                .map(drop)
                .map_err(|e| format!("replay `{}`: {e}", spec.describe()))
        })
    })?;
    Ok(ir)
}

/// Validates `specs` on a scratch build (lint, cost, structural hash) and
/// returns the keyed job that rebuilds, elaborates and simulates them on
/// a pool worker.
fn make_job<T: Token>(
    rec: &mut Rec,
    target: &Target<T>,
    specs: Vec<TransformSpec>,
) -> Result<SimJob<EvalOut>, String> {
    let mut scratch = rebuild(rec, &target.factory, &specs)?;
    rec.setup("synth.lint", |_| {
        PassManager::lint_suite().run(&mut scratch)
    })
    .map_err(|e| format!("lint: {e}"))?;
    let les = rec.setup("cost.from_ir", |_| Inventory::from_ir(&scratch).total_les()) as u64;
    let hash = rec.setup("synth.hash", |_| scratch.structural_hash());
    let mut design = Fnv::new();
    design.eat(target.name.as_bytes());
    let key = campaign_key(hash, design.0, 0);

    let factory = Arc::clone(&target.factory);
    let drive = Arc::clone(&target.drive);
    let (epoch, tracing) = (rec.epoch(), rec.tracing());
    let label = format!("{}: {} specs", target.name, specs.len());
    let job = SimJob::instrumented(label, move || {
        let _quiet = CandidateGuard::enter();
        let mut w = Rec::new(epoch, tracing);
        let (digest, matches_reference, circuit) = w.span("sweep.job", |w| {
            let ir = rebuild(w, &factory, &specs).expect("validated specs replay on a fresh build");
            let mut circuit = w
                .setup("synth.elaborate", |_| ir.elaborate())
                .expect("validated IR elaborates")
                .circuit;
            circuit.set_settle_timing(tracing);
            let (digest, ok) = w.span("sim.step", |_| drive(&mut circuit))?;
            Ok::<_, SimError>((digest, ok, circuit))
        })?;
        let stats = circuit.stats();
        Ok((
            EvalOut {
                digest,
                matches_reference,
                cycles: circuit.cycle(),
                les,
                profile: stats.feedback_profile(),
                part: w.into_part(),
            },
            *stats.kernel(),
        ))
    })
    .with_cache_key(key);
    Ok(job)
}

/// Runs one campaign submission and accounts for it: points answered,
/// simulation work of the executed (non-memoized) jobs, cache traffic.
fn submit(
    rec: &mut Rec,
    service: &SweepService<EvalOut>,
    jobs: Vec<SimJob<EvalOut>>,
) -> SweepReport<EvalOut> {
    let report = rec.span("sweep.run", |rec| {
        let report = service.run(jobs);
        for j in report.jobs.iter().filter(|j| !j.memoized) {
            if let Ok(out) = &j.outcome {
                rec.graft(&out.part);
            }
        }
        report
    });
    rec.items += report.jobs.len() as u64;
    let wall = report.wall.as_secs_f64();
    rec.count("sweep.run_s", wall);
    rec.count("sweep.capacity_s", wall * report.workers_used as f64);
    rec.count("sweep.submissions", 1.0);
    rec.count("sweep.workers_used", report.workers_used as f64);
    rec.count("sweep.hits", report.cache_hits as f64);
    rec.count("sweep.misses", report.cache_misses as f64);
    rec.count("sweep.evictions", report.cache_evictions as f64);
    for j in report.jobs.iter().filter(|j| !j.memoized) {
        rec.count("sweep.busy_s", j.wall.as_secs_f64());
        rec.kernel.merge(&j.kernel);
        if let Ok(out) = &j.outcome {
            rec.cycles += out.cycles;
        }
    }
    report
}

/// Candidate specs for the current netlist: depth sizing from the
/// measured profile, slack matching, and every legal retime.
fn propose<T: Token>(
    rec: &mut Rec,
    target: &Target<T>,
    accepted: &[TransformSpec],
    profile: &FeedbackProfile,
) -> Vec<TransformSpec> {
    let mut cands = Vec::new();
    if let Ok(mut ir) = rebuild(rec, &target.factory, accepted) {
        let sized = rec.setup("synth.transform", |_| {
            MebDepthSizing::new(profile.clone())
                .converting()
                .run(&mut ir)
        });
        if let Ok(report) = sized {
            cands.extend(report.deltas.iter().map(TransformSpec::from_delta));
        }
    }
    if let Ok(mut ir) = rebuild(rec, &target.factory, accepted) {
        let slack = rec.setup("synth.transform", |_| {
            SlackMatching::new(MebKind::Reduced).run(&mut ir)
        });
        if let Ok(report) = slack {
            cands.extend(report.deltas.iter().map(TransformSpec::from_delta));
        }
    }
    let Ok(ir) = rebuild(rec, &target.factory, accepted) else {
        return cands;
    };
    let buffers: Vec<String> = ir
        .nodes()
        .filter(|n| matches!(n.tag(), IrNodeTag::Eb | IrNodeTag::Meb(_)))
        .map(|n| n.name().to_string())
        .collect();
    for node in buffers {
        for direction in [RetimeDirection::Forward, RetimeDirection::Backward] {
            let Ok(mut scratch) = rebuild(rec, &target.factory, accepted) else {
                continue;
            };
            let moved = rec
                .setup("synth.transform", |_| {
                    Retiming::new(node.clone(), direction).run(&mut scratch)
                })
                .is_ok();
            if moved
                && rec
                    .setup("synth.lint", |_| {
                        PassManager::lint_suite().run(&mut scratch)
                    })
                    .is_ok()
            {
                cands.push(TransformSpec::Retime {
                    node: node.clone(),
                    direction,
                });
            }
        }
    }
    cands
}

/// Re-deriving the inventory across `spec` must move the LE count by
/// exactly what the pass's deltas predict; a mismatch is a bug, not a
/// bad candidate.
fn delta_check<T: Token>(
    rec: &mut Rec,
    target: &Target<T>,
    accepted: &[TransformSpec],
    spec: &TransformSpec,
) -> Result<(), String> {
    let mut ir = rebuild(rec, &target.factory, accepted)?;
    let before = rec.setup("cost.from_ir", |_| Inventory::from_ir(&ir).total_les()) as i64;
    let report = rec
        .setup("synth.transform", |_| spec.apply(&mut ir))
        .map_err(|e| e.to_string())?;
    let after = rec.setup("cost.from_ir", |_| Inventory::from_ir(&ir).total_les()) as i64;
    let predicted = expected_les_delta(&report.deltas);
    if after - before != predicted {
        return Err(format!(
            "cost delta-check failed for `{}`: inventory moved {} LEs, deltas predict {predicted}",
            spec.describe(),
            after - before
        ));
    }
    Ok(())
}

/// Where one design point's tuning stands.
struct Tuning {
    baseline: EvalOut,
    current: EvalOut,
    accepted: Vec<TransformSpec>,
    /// Candidates already evaluated against the current netlist.
    tried: HashSet<String>,
}

/// One round of the greedy loop: propose, validate, evaluate, decide. A
/// candidate is accepted iff its digest equals the baseline's, its
/// outputs match the software reference and its (cycles, LEs) point
/// dominates the current one; candidates that fail to simulate are
/// rejected, not failures. Returns whether one was accepted.
fn round<T: Token>(
    rec: &mut Rec,
    target: &Target<T>,
    state: &mut Tuning,
    service: &SweepService<EvalOut>,
) -> Result<bool, String> {
    let cands: Vec<TransformSpec> = rec
        .setup("synth.propose", |rec| {
            propose(rec, target, &state.accepted, &state.current.profile)
        })
        .into_iter()
        .filter(|c| state.tried.insert(c.describe()))
        .collect();
    let mut jobs = Vec::new();
    let mut specs_of = Vec::new();
    for cand in cands {
        delta_check(rec, target, &state.accepted, &cand)?;
        let mut specs = state.accepted.clone();
        specs.push(cand.clone());
        // Candidates that fail to replay or lint are dropped.
        if let Ok(job) = make_job(rec, target, specs) {
            jobs.push(job);
            specs_of.push(cand);
        }
    }
    if jobs.is_empty() {
        return Ok(false);
    }
    rec.count("synth.candidates", jobs.len() as f64);
    let report = submit(rec, service, jobs);
    let (base, cur) = (&state.baseline, &state.current);
    let best = report
        .jobs
        .iter()
        .zip(&specs_of)
        .filter_map(|(j, spec)| j.outcome.as_ref().ok().map(|out| (out, spec)))
        .filter(|(out, _)| {
            out.digest == base.digest
                && out.matches_reference
                && out.cycles <= cur.cycles
                && out.les <= cur.les
                && (out.cycles < cur.cycles || out.les < cur.les)
        })
        .min_by_key(|(out, _)| (out.cycles, out.les));
    let Some((out, spec)) = best else {
        return Ok(false);
    };
    rec.count("synth.accepted", 1.0);
    state.accepted.push(spec.clone());
    state.current = out.clone();
    // The netlist changed: earlier rejects are worth re-proposing against
    // it (the campaign cache absorbs true repeats).
    state.tried.clear();
    Ok(true)
}

/// The baseline of `target` under both settle modes: digests and cycle
/// counts must be identical.
fn oracle_check<T: Token>(target: &Target<T>) -> Result<(), String> {
    let run = |mode: EvalMode| -> Result<(u64, bool, u64), String> {
        let mut circuit = (target.factory)()
            .elaborate()
            .map_err(|e| e.to_string())?
            .circuit;
        circuit.set_eval_mode(mode);
        let (digest, ok) = (target.drive)(&mut circuit).map_err(|e| e.to_string())?;
        Ok((digest, ok, circuit.cycle()))
    };
    let fast = run(EvalMode::default())?;
    let oracle = run(EvalMode::Exhaustive)?;
    if fast != oracle || !fast.1 {
        return Err(format!("event-driven {fast:?} vs exhaustive {oracle:?}"));
    }
    Ok(())
}

impl Point {
    fn name(&self) -> &str {
        on_target!(self, t => &t.name)
    }
}

impl Workload for AutotuneCampaign {
    fn oracle(&self, rec: &mut Rec) {
        for point in &self.points {
            rec.job(point.name(), |_| on_target!(point, t => oracle_check(t)));
        }
    }

    fn rep(&self, rec: &mut Rec) {
        // A fresh service per rep: every rep sees the same hits and misses.
        let service = SweepService::new(host::workers());
        let finals = self.campaign(rec, &service, &self.campaigns[0]);
        for (cycles, les) in finals {
            rec.count("model.design_cycles", cycles as f64);
            rec.count("model.design_les", les as f64);
        }
        self.campaign(rec, &service, &self.campaigns[1]);
    }
}
