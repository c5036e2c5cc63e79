//! Closed-loop transform autotuner: sim + cost feedback drives the
//! transforming pass pipeline.
//!
//! For each design (the GCD loop, the MD5 round pipeline, the
//! processor) the tuner runs a greedy accept/reject loop:
//!
//! 1. **Measure** the current netlist — a full simulation yields a
//!    per-thread capture digest (the exhaustive oracle), the cycle
//!    count, and a [`FeedbackProfile`] of per-channel occupancy
//!    histograms; `Inventory::from_ir` yields the LE count.
//! 2. **Propose** candidates from the transforming passes:
//!    [`MebDepthSizing`] (data-driven FIFO depths), [`SlackMatching`]
//!    (buffers on unbalanced reconvergent paths), [`Retiming`] (every
//!    legal buffer/transform commute). Each candidate is one replayable
//!    [`TransformSpec`].
//! 3. **Evaluate** all candidates of a round in parallel through the
//!    memoizing [`SweepService`] — each job rebuilds the IR from the
//!    factory, replays the accepted specs plus the candidate, lints,
//!    elaborates and simulates. Jobs are keyed by
//!    `campaign_key(structural_hash, design, seed)`, so re-proposed
//!    structures answer from the campaign cache.
//! 4. **Accept** the best candidate iff its capture digest is
//!    byte-identical to the baseline oracle AND its (cycles, LEs) point
//!    is non-dominated and strictly improves one axis. Every applied
//!    spec is delta-checked: the re-derived inventory must move by
//!    exactly [`expected_les_delta`] of the pass's reported
//!    [`PassDelta`]s.
//!
//! Output: `BENCH_autotune.json` with the per-design pareto front, plus
//! a delta-highlighted DOT of the accepted GCD transforms.
//!
//! ```text
//! cargo run --release -p elastic-bench --bin synth_optimize
//! cargo run --release -p elastic-bench --bin synth_optimize -- --smoke
//! ```
//!
//! `--smoke` tunes only the backpressured GCD loop on a tiny budget and
//! exits non-zero unless at least one transform was accepted with a
//! byte-identical digest — the CI leg.

use std::collections::HashSet;
use std::process::ExitCode;
use std::sync::Arc;

use elastic_core::MebKind;
use elastic_cost::{expected_les_delta, Inventory};
use elastic_md5::Md5Token;
use elastic_proc::{programs, Cpu, CpuConfig, Fetcher, RegUnit, NUM_REGS};
use elastic_sim::{
    campaign_key, Circuit, FeedbackProfile, Fnv1a, ReadyPolicy, SimError, SimJob, Sink, Source,
    SweepService, Token,
};
use elastic_synth::{
    dot_with_deltas, ElasticIr, IrNodeKind, IrNodeTag, MebDepthSizing, Pass, PassDelta,
    PassManager, RetimeDirection, Retiming, SlackMatching, TransformSpec,
};

/// One measured design point.
#[derive(Clone)]
struct EvalOut {
    digest: u64,
    cycles: u64,
    les: u64,
    profile: FeedbackProfile,
}

/// A measured candidate with the spec that produced it (`None` for the
/// baseline).
#[derive(Clone)]
struct PointRecord {
    spec: Option<String>,
    accepted: bool,
    digest_ok: bool,
    cycles: u64,
    les: u64,
}

/// Everything the tuner needs to know about one design, type-erased
/// over its token.
struct TuneTarget<T: Token> {
    name: &'static str,
    /// Work units completed per run (constant across candidates, so
    /// throughput comparisons reduce to cycle comparisons).
    work: u64,
    factory: Arc<dyn Fn() -> ElasticIr<T> + Send + Sync>,
    drive: Arc<DriveFn<T>>,
}

/// Runs one built circuit to completion and returns its capture digest.
type DriveFn<T> = dyn Fn(&mut Circuit<T>) -> Result<u64, SimError> + Send + Sync;

/// The per-design tuning outcome, ready for JSON rendering.
struct DesignResult {
    name: &'static str,
    work: u64,
    baseline: (u64, u64, u64),         // digest, cycles, les
    accepted: Vec<(String, u64, u64)>, // spec, cycles, les
    points: Vec<PointRecord>,
    candidates_tried: usize,
    cache_hits: u64,
    /// Delta-highlighted DOT of the final netlist (accepted transforms).
    dot: Option<String>,
}

fn rebuild<T: Token>(
    factory: &Arc<dyn Fn() -> ElasticIr<T> + Send + Sync>,
    specs: &[TransformSpec],
) -> Result<(ElasticIr<T>, Vec<PassDelta>), String> {
    let mut ir = factory();
    let mut deltas = Vec::new();
    for spec in specs {
        let report = spec
            .apply(&mut ir)
            .map_err(|e| format!("replay `{}`: {e}", spec.describe()))?;
        deltas.extend(report.deltas);
    }
    Ok((ir, deltas))
}

/// Builds the keyed evaluation job for `specs` applied to a fresh
/// build. The structural hash, LE count and cost delta-check happen
/// here, on a scratch build; the job itself rebuilds (the IR's boxed
/// closures stay off the queue) and simulates.
fn make_job<T: Token>(
    target: &TuneTarget<T>,
    specs: Vec<TransformSpec>,
    label: String,
) -> Result<SimJob<EvalOut>, String> {
    let (mut scratch, _) = rebuild(&target.factory, &specs)?;
    PassManager::lint_suite()
        .run(&mut scratch)
        .map_err(|e| format!("lint: {e}"))?;
    let les = Inventory::from_ir(&scratch).total_les() as u64;
    let mut cfg = Fnv1a::new();
    cfg.write(target.name.as_bytes());
    let key = campaign_key(scratch.structural_hash(), cfg.finish(), 0);

    let factory = Arc::clone(&target.factory);
    let drive = Arc::clone(&target.drive);
    let job = SimJob::instrumented(label, move || {
        let (ir, _) = rebuild(&factory, &specs).expect("specs replay on a fresh build");
        let e = ir.elaborate().expect("validated IR elaborates");
        let mut circuit = e.circuit;
        let digest = drive(&mut circuit)?;
        let kernel = *circuit.stats().kernel();
        Ok((
            EvalOut {
                digest,
                cycles: circuit.cycle(),
                les,
                profile: circuit.stats().feedback_profile(),
            },
            kernel,
        ))
    })
    .with_cache_key(key);
    Ok(job)
}

/// Asserts that re-deriving the inventory across `spec` moves the LE
/// count by exactly what the pass's deltas predict.
fn delta_check<T: Token>(
    target: &TuneTarget<T>,
    accepted: &[TransformSpec],
    spec: &TransformSpec,
) -> Result<(), String> {
    let (mut ir, _) = rebuild(&target.factory, accepted)?;
    let before = Inventory::from_ir(&ir).total_les() as i64;
    let report = spec.apply(&mut ir).map_err(|e| e.to_string())?;
    let after = Inventory::from_ir(&ir).total_les() as i64;
    let predicted = expected_les_delta(&report.deltas);
    if after - before != predicted {
        return Err(format!(
            "cost delta-check failed for `{}`: inventory moved {} LEs, deltas predict {}",
            spec.describe(),
            after - before,
            predicted
        ));
    }
    Ok(())
}

/// Proposes candidate specs for the current netlist: depth sizing from
/// the measured profile, slack matching, and every legal retime.
fn propose<T: Token>(
    target: &TuneTarget<T>,
    accepted: &[TransformSpec],
    profile: &FeedbackProfile,
) -> Vec<TransformSpec> {
    let mut cands = Vec::new();

    if let Ok((mut ir, _)) = rebuild(&target.factory, accepted) {
        if let Ok(report) = MebDepthSizing::new(profile.clone())
            .converting()
            .run(&mut ir)
        {
            cands.extend(report.deltas.iter().map(TransformSpec::from_delta));
        }
    }
    if let Ok((mut ir, _)) = rebuild(&target.factory, accepted) {
        if let Ok(report) = SlackMatching::new(MebKind::Reduced).run(&mut ir) {
            cands.extend(report.deltas.iter().map(TransformSpec::from_delta));
        }
    }
    if let Ok((ir, _)) = rebuild(&target.factory, accepted) {
        let buffers: Vec<String> = ir
            .nodes()
            .filter(|n| matches!(n.tag(), IrNodeTag::Eb | IrNodeTag::Meb(_)))
            .map(|n| n.name().to_string())
            .collect();
        for name in buffers {
            for dir in [RetimeDirection::Forward, RetimeDirection::Backward] {
                let Ok((mut scratch, _)) = rebuild(&target.factory, accepted) else {
                    continue;
                };
                if Retiming::new(name.clone(), dir).run(&mut scratch).is_ok()
                    && PassManager::lint_suite().run(&mut scratch).is_ok()
                {
                    cands.push(TransformSpec::Retime {
                        node: name.clone(),
                        direction: dir,
                    });
                }
            }
        }
    }
    cands
}

/// The greedy accept/reject loop for one design.
fn tune<T: Token>(
    target: &TuneTarget<T>,
    service: &SweepService<EvalOut>,
    rounds: usize,
) -> Result<DesignResult, String> {
    let base_job = make_job(target, Vec::new(), format!("{}:baseline", target.name))?;
    let base_report = service.run(vec![base_job]);
    let baseline = base_report.jobs[0]
        .outcome
        .as_ref()
        .map_err(|e| format!("{} baseline failed: {e:?}", target.name))?
        .clone();
    println!(
        "[{}] baseline: {} cycles, {} LEs, digest {:016x}",
        target.name, baseline.cycles, baseline.les, baseline.digest
    );

    let mut accepted: Vec<TransformSpec> = Vec::new();
    let mut current = baseline.clone();
    let mut points = vec![PointRecord {
        spec: None,
        accepted: true,
        digest_ok: true,
        cycles: baseline.cycles,
        les: baseline.les,
    }];
    let mut accepted_log: Vec<(String, u64, u64)> = Vec::new();
    let mut tried: HashSet<String> = HashSet::new();
    // Candidates whose job failed (a simulation error or a panic): a
    // later netlist does not make them worth another run.
    let mut failed: HashSet<String> = HashSet::new();
    let mut candidates_tried = 0usize;
    let mut cache_hits = 0u64;

    for round in 0..rounds {
        let cands: Vec<TransformSpec> = propose(target, &accepted, &current.profile)
            .into_iter()
            .filter(|c| !failed.contains(&c.describe()) && tried.insert(c.describe()))
            .collect();
        if cands.is_empty() {
            break;
        }
        // Validate structurally (replay + lint + cost delta-check) and
        // build one keyed job per surviving candidate.
        let mut jobs = Vec::new();
        let mut job_specs = Vec::new();
        for cand in cands {
            // A lying pass is a bug, not a bad point — hard error.
            delta_check(target, &accepted, &cand)?;
            let mut specs = accepted.clone();
            specs.push(cand.clone());
            match make_job(
                target,
                specs,
                format!("{}:{}", target.name, cand.describe()),
            ) {
                Ok(job) => {
                    jobs.push(job);
                    job_specs.push(cand);
                }
                // Candidates that fail to replay or lint are dropped.
                Err(_) => continue,
            }
        }
        if jobs.is_empty() {
            break;
        }
        candidates_tried += job_specs.len();
        let report = service.run(jobs);
        cache_hits += report.cache_hits;

        // Pick the accepted candidate greedily: digest-identical,
        // non-dominated vs the current point, strictly better on one
        // axis; ties broken toward fewer cycles then fewer LEs.
        let mut best: Option<(usize, EvalOut)> = None;
        for (i, job) in report.jobs.iter().enumerate() {
            let Ok(out) = &job.outcome else {
                failed.insert(job_specs[i].describe());
                points.push(PointRecord {
                    spec: Some(job_specs[i].describe()),
                    accepted: false,
                    digest_ok: false,
                    cycles: 0,
                    les: 0,
                });
                continue;
            };
            let digest_ok = out.digest == baseline.digest;
            let dominates = out.cycles <= current.cycles
                && out.les <= current.les
                && (out.cycles < current.cycles || out.les < current.les);
            points.push(PointRecord {
                spec: Some(job_specs[i].describe()),
                accepted: false,
                digest_ok,
                cycles: out.cycles,
                les: out.les,
            });
            if digest_ok && dominates {
                let better = match &best {
                    None => true,
                    Some((_, b)) => (out.cycles, out.les) < (b.cycles, b.les),
                };
                if better {
                    best = Some((i, out.clone()));
                }
            }
        }
        let Some((i, out)) = best else {
            println!(
                "[{}] round {round}: no candidate survived ({} tried)",
                target.name,
                report.jobs.len()
            );
            break;
        };
        let spec = job_specs[i].clone();
        println!(
            "[{}] round {round}: accept `{}` — {} -> {} cycles, {} -> {} LEs (digest identical)",
            target.name,
            spec.describe(),
            current.cycles,
            out.cycles,
            current.les,
            out.les
        );
        for p in points.iter_mut().rev() {
            if p.spec.as_deref() == Some(spec.describe().as_str()) {
                p.accepted = true;
                break;
            }
        }
        accepted_log.push((spec.describe(), out.cycles, out.les));
        accepted.push(spec);
        current = out;
        // The netlist changed: candidates rejected against the old
        // structure are worth re-proposing against the new one (the
        // campaign cache absorbs any true repeats), failed ones are not.
        tried.clear();
    }

    // Delta-highlighted DOT of everything the tuner changed.
    let dot = rebuild(&target.factory, &accepted)
        .ok()
        .map(|(ir, deltas)| dot_with_deltas(&ir, &deltas));

    Ok(DesignResult {
        name: target.name,
        work: target.work,
        baseline: (baseline.digest, baseline.cycles, baseline.les),
        accepted: accepted_log,
        points,
        candidates_tried,
        cache_hits,
        dot,
    })
}

// ---------------------------------------------------------------- GCD

type GcdTok = (u64, u64);

/// Euclid's GCD loop with width-annotated channels and a periodically
/// stalling consumer: merge -> branch -> step -> MEB -> back, one
/// problem in flight per thread so completion order (and therefore the
/// oracle digest) is buffer-placement-invariant. The half-duty sink is
/// the backpressure source the depth-sizing pass feeds on.
fn gcd_full_ir(threads: usize) -> ElasticIr<GcdTok> {
    use elastic_core::ArbiterKind;
    let meb = || IrNodeKind::Meb {
        kind: MebKind::Reduced,
        arbiter: ArbiterKind::RoundRobin,
        initial: Vec::new(),
        auto: true,
    };
    let mut ir = ElasticIr::<GcdTok>::new();
    let fresh = ir.channel_with_width("pairs", threads, 128);
    let loopback = ir.channel_with_width("loopback", threads, 128);
    let into = ir.channel_with_width("into", threads, 128);
    let head = ir.channel_with_width("head", threads, 128);
    let done = ir.channel_with_width("gcd", threads, 64);
    let stepped = ir.channel_with_width("stepped", threads, 128);
    let buffered = ir.channel_with_width("buffered", threads, 128);
    ir.add("feeder", IrNodeKind::Source, vec![], vec![fresh]);
    ir.add(
        "entry",
        IrNodeKind::Merge,
        vec![fresh, loopback],
        vec![into],
    );
    ir.add("loop_buf", meb(), vec![into], vec![head]);
    ir.add(
        "done?",
        IrNodeKind::Branch {
            cond: Box::new(|&(a, b): &GcdTok| a == b),
        },
        vec![head],
        vec![done, stepped],
    );
    ir.add(
        "step",
        IrNodeKind::Transform {
            f: Box::new(|&(a, b): &GcdTok| if a > b { (a - b, b) } else { (a, b - a) }),
        },
        vec![stepped],
        vec![buffered],
    );
    ir.add("step_buf", meb(), vec![buffered], vec![loopback]);
    ir.add(
        "out",
        IrNodeKind::Sink {
            capture: true,
            policy: ReadyPolicy::Period {
                on: 1,
                off: 1,
                phase: 0,
            },
        },
        vec![done],
        vec![],
    );
    ir
}

/// Drives the GCD loop: `waves` problems per thread, one in flight per
/// thread at a time, against a periodically stalling sink. Digest =
/// per-thread output value streams.
fn drive_gcd(circuit: &mut Circuit<GcdTok>, threads: usize, waves: usize) -> Result<u64, SimError> {
    let problems: Vec<Vec<GcdTok>> = (0..threads)
        .map(|t| {
            (0..waves)
                .map(|w| {
                    let a = 6 * (t as u64 + 2) * (w as u64 + 3);
                    let b = 9 * (t as u64 + 1) + 3 * w as u64;
                    (a.max(1), b.max(1))
                })
                .collect()
        })
        .collect();
    {
        let feeder: &mut Source<GcdTok> = circuit.get_mut("feeder").expect("feeder exists");
        for (t, probs) in problems.iter().enumerate() {
            feeder.push(t, probs[0]);
        }
    }
    let mut next = vec![1usize; threads];
    let mut seen = vec![0usize; threads];
    let total = threads * waves;
    let mut completed = 0usize;
    while completed < total {
        assert!(circuit.cycle() <= 200_000, "gcd run exceeded cycle budget");
        circuit.step()?;
        let mut refill = Vec::new();
        {
            let sink: &Sink<GcdTok> = circuit.get("out").expect("sink exists");
            for t in 0..threads {
                let captured = sink.captured(t);
                for _ in &captured[seen[t]..] {
                    completed += 1;
                    if next[t] < waves {
                        refill.push((t, problems[t][next[t]]));
                        next[t] += 1;
                    }
                }
                seen[t] = captured.len();
            }
        }
        let feeder: &mut Source<GcdTok> = circuit.get_mut("feeder").expect("feeder exists");
        for (t, tok) in refill {
            feeder.push(t, tok);
        }
    }
    let sink: &Sink<GcdTok> = circuit.get("out").expect("sink exists");
    let mut h = Fnv1a::new();
    for t in 0..threads {
        h.write_u64(t as u64);
        for (_, (a, b)) in sink.captured(t) {
            h.write_u64(*a);
            h.write_u64(*b);
        }
    }
    Ok(h.finish())
}

// ---------------------------------------------------------------- MD5

/// Drives the MD5 round loop: one block per participating thread,
/// arbitrary block/chain contents (the oracle digests the captured
/// working-state tokens, not real MD5 values).
fn drive_md5(circuit: &mut Circuit<Md5Token>, participants: usize) -> Result<u64, SimError> {
    {
        let feeder: &mut Source<Md5Token> = circuit.get_mut("feeder").expect("feeder exists");
        for t in 0..participants {
            let mut block = [0u32; 16];
            for (i, w) in block.iter_mut().enumerate() {
                *w = (t as u32 + 1)
                    .wrapping_mul(0x9e37_79b9)
                    .wrapping_add(i as u32);
            }
            let chain = [0x6745_2301, 0xefcd_ab89, 0x98ba_dcfe, 0x1032_5476];
            feeder.push(
                t,
                Md5Token {
                    thread: t,
                    wave: 0,
                    block,
                    chain,
                    work: chain,
                    steps_done: 0,
                    phantom: false,
                },
            );
        }
    }
    loop {
        assert!(circuit.cycle() <= 200_000, "md5 run exceeded cycle budget");
        circuit.step()?;
        let sink: &Sink<Md5Token> = circuit.get("out").expect("sink exists");
        let done: usize = (0..participants).map(|t| sink.captured(t).len()).sum();
        if done >= participants {
            break;
        }
    }
    let sink: &Sink<Md5Token> = circuit.get("out").expect("sink exists");
    let mut h = Fnv1a::new();
    for t in 0..participants {
        h.write_u64(t as u64);
        for (_, tok) in sink.captured(t) {
            for w in tok.work {
                h.write_u64(u64::from(w));
            }
            h.write_u64(u64::from(tok.steps_done));
        }
    }
    Ok(h.finish())
}

// ------------------------------------------------------------ processor

/// Runs the processor netlist to halt and digests the architectural
/// state (every thread's register file) — latency-insensitive by
/// construction, so any legal buffer transform preserves it.
fn drive_cpu(
    circuit: &mut Circuit<elastic_proc::ProcToken>,
    threads: usize,
) -> Result<u64, SimError> {
    let mut idle = 0u64;
    loop {
        assert!(
            circuit.cycle() <= 300_000,
            "processor run exceeded cycle budget"
        );
        let report = circuit.step()?;
        if report.transfers.is_empty() {
            idle += 1;
        } else {
            idle = 0;
        }
        let halted = circuit
            .get::<Fetcher>("fetch")
            .expect("fetcher exists")
            .all_halted();
        if halted && idle >= 64 {
            break;
        }
    }
    let regs: &RegUnit = circuit.get("regs").expect("reg unit exists");
    let mut h = Fnv1a::new();
    for t in 0..threads {
        h.write_u64(t as u64);
        for r in 0..NUM_REGS {
            h.write_u64(u64::from(regs.reg(t, r)));
        }
    }
    Ok(h.finish())
}

// ---------------------------------------------------------------- JSON

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn design_json(r: &DesignResult) -> String {
    let accepted: Vec<String> = r
        .accepted
        .iter()
        .map(|(spec, cycles, les)| {
            format!(
                "{{\"spec\":\"{}\",\"cycles\":{cycles},\"les\":{les}}}",
                json_escape(spec)
            )
        })
        .collect();
    // The pareto front over every measured point (baseline included).
    let measured: Vec<&PointRecord> = r.points.iter().filter(|p| p.digest_ok).collect();
    let pareto: Vec<String> = measured
        .iter()
        .filter(|p| {
            !measured.iter().any(|q| {
                (q.cycles < p.cycles && q.les <= p.les) || (q.cycles <= p.cycles && q.les < p.les)
            })
        })
        .map(|p| {
            format!(
                "{{\"spec\":{},\"cycles\":{},\"les\":{},\"throughput\":{:.6},\"accepted\":{}}}",
                match &p.spec {
                    Some(s) => format!("\"{}\"", json_escape(s)),
                    None => "null".to_string(),
                },
                p.cycles,
                p.les,
                r.work as f64 / p.cycles as f64,
                p.accepted
            )
        })
        .collect();
    format!(
        "{{\"design\":\"{}\",\"baseline\":{{\"digest\":\"{:016x}\",\"cycles\":{},\"les\":{},\"throughput\":{:.6}}},\"digest_identical\":true,\"candidates_tried\":{},\"cache_hits\":{},\"accepted\":[{}],\"pareto\":[{}]}}",
        r.name,
        r.baseline.0,
        r.baseline.1,
        r.baseline.2,
        r.work as f64 / r.baseline.1 as f64,
        r.candidates_tried,
        r.cache_hits,
        accepted.join(","),
        pareto.join(",")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_autotune.json".to_string());
    let rounds = if smoke { 3 } else { 6 };

    let service: SweepService<EvalOut> = SweepService::new(elastic_sim::available_workers());
    let mut results: Vec<DesignResult> = Vec::new();

    // GCD: 2 threads, 4 problems each, periodically stalling consumer
    // (the backpressured pipeline of the CI smoke leg).
    let gcd = TuneTarget::<GcdTok> {
        name: "gcd",
        work: 8,
        factory: Arc::new(|| gcd_full_ir(2)),
        drive: Arc::new(|c| drive_gcd(c, 2, 4)),
    };
    match tune(&gcd, &service, rounds) {
        Ok(r) => results.push(r),
        Err(e) => {
            eprintln!("gcd tuning failed: {e}");
            return ExitCode::FAILURE;
        }
    }

    if !smoke {
        // MD5: 4 threads, 2-stage pipelined round.
        let md5 = TuneTarget::<Md5Token> {
            name: "md5",
            work: 4,
            factory: Arc::new(|| elastic_md5::Md5Circuit::ir(4, 4, 2).ir),
            drive: Arc::new(|c| drive_md5(c, 4)),
        };
        match tune(&md5, &service, rounds) {
            Ok(r) => results.push(r),
            Err(e) => {
                eprintln!("md5 tuning failed: {e}");
                return ExitCode::FAILURE;
            }
        }

        // Processor: 4 threads running the summation loop.
        let threads = 4usize;
        let program = elastic_proc::assemble(programs::SUM_LOOP).expect("program assembles");
        let proc = TuneTarget::<elastic_proc::ProcToken> {
            name: "processor",
            work: program.len() as u64,
            factory: Arc::new(move || {
                Cpu::ir(&CpuConfig::new(threads), program.clone(), vec![0; threads]).ir
            }),
            drive: Arc::new(move |c| drive_cpu(c, threads)),
        };
        match tune(&proc, &service, rounds) {
            Ok(r) => results.push(r),
            Err(e) => {
                eprintln!("processor tuning failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    // Report + artifacts.
    let designs: Vec<String> = results.iter().map(design_json).collect();
    let json = format!("{{\"designs\":[{}]}}\n", designs.join(","));
    std::fs::write(&out_path, &json).expect("write BENCH_autotune.json");
    println!("wrote {out_path}");

    if let Some(dot) = results
        .iter()
        .find(|r| r.name == "gcd")
        .and_then(|r| r.dot.as_ref())
    {
        if !smoke {
            std::fs::write("golden/gcd_autotune_deltas.dot", dot).ok();
        }
    }

    let mut ok = true;
    for r in &results {
        let accepted = r.accepted.len();
        println!(
            "[{}] {} candidates tried, {} accepted, {} cache hits",
            r.name, r.candidates_tried, accepted, r.cache_hits
        );
        if accepted == 0 {
            eprintln!("[{}] no transform accepted", r.name);
            ok = false;
        }
    }
    if smoke && !ok {
        eprintln!("--smoke: expected at least one accepted transform per design");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
