//! Old-vs-new simulation kernel ablation: the exhaustive settle sweep
//! (the original kernel, kept as [`EvalMode::Exhaustive`]) against the
//! event-driven dirty-set kernel (`EvalMode::EventDriven`, the default),
//! on the paper's two reference workloads:
//!
//! 1. the Figure 5 pipeline (2 threads, 2 MEB stages, thread B stalled
//!    for a window), for both full and reduced MEBs;
//! 2. the Sec. V-A elastic MD5 circuit (8 threads, one message each).
//!
//! For every workload the two kernels must produce bit-identical sink
//! captures / digests and cycle counts — the ablation asserts this —
//! while the table shows how many `Component::eval` calls the dirty-set
//! worklist and the quiescence fast-path avoid.
//!
//! The campaign itself runs on the [`run_sweep_on`] worker pool. With
//! `--parallel` the binary additionally proves the parallel path
//! byte-identical to the serial one and records the wall-clock scaling
//! curve of a replicated campaign in `BENCH_parallel_sweep.json`.
//!
//! ```text
//! cargo run --release --bin kernel_ablation [-- --parallel] [--workers N]
//! ```
//!
//! `--workers N` overrides the pool width (by default the host's
//! available parallelism). On single-core hosts the scaling curve is
//! still recorded, but the JSON is annotated `"scaling_valid": false` —
//! wall-clock speedups measured there say nothing about the pool.

use std::time::Duration;

use elastic_bench::Fig5Setup;
use elastic_core::{ArbiterKind, MebKind, PipelineConfig, PipelineHarness};
use elastic_md5::{Md5Error, Md5Hasher};
use elastic_sim::{
    available_workers, campaign_key, run_sweep_on, Circuit, EvalMode, KernelStats, ReadyPolicy,
    SharedCircuit, SimError, SimJob, Sink, Source, SweepService, Tagged,
};
use elastic_synth::{ElasticIr, IrNodeKind};

fn header() {
    println!(
        "{:<26} {:<12} {:>8} {:>8} {:>10} {:>8} {:>9}",
        "workload", "kernel", "evals", "rounds", "evals/cyc", "skipped", "quiesced"
    );
    println!("{}", "-".repeat(86));
}

fn row(workload: &str, mode: EvalMode, k: &KernelStats) {
    println!(
        "{:<26} {:<12} {:>8} {:>8} {:>10.2} {:>8} {:>9}  {}",
        workload,
        format!("{mode:?}"),
        k.component_evals,
        k.settle_rounds,
        k.evals_per_cycle(),
        k.components_skipped,
        k.quiesced_cycles,
        hist(k)
    );
}

/// Compact settle-round histogram: `1:912 2:88` means 912 stepped cycles
/// settled in one round and 88 needed two (the last bucket is `8+`).
fn hist(k: &KernelStats) -> String {
    let cells: Vec<String> = k
        .settle_round_hist
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(i, c)| {
            if i + 1 == k.settle_round_hist.len() {
                format!("{}+:{c}", i + 1)
            } else {
                format!("{}:{c}", i + 1)
            }
        })
        .collect();
    format!("rounds[{}]", cells.join(" "))
}

fn saving(old: &KernelStats, new: &KernelStats) {
    let pct = 100.0 * (1.0 - new.component_evals as f64 / old.component_evals as f64);
    println!("{:>39}  → {pct:.1}% fewer evals\n", "");
}

/// Runs the Figure 5 scenario under `mode` and returns a digest of the
/// per-thread captures plus kernel counters.
fn run_fig5(kind: MebKind, mode: EvalMode) -> Result<RunResult, SimError> {
    let setup = Fig5Setup::paper(kind);
    let cfg = PipelineConfig::free_flowing(2, setup.stages, kind, setup.tokens_per_thread)
        .with_sink_policy(
            1,
            ReadyPolicy::StallWindow {
                from: setup.stall_from,
                to: setup.stall_to,
            },
        )
        .with_eval_mode(mode);
    let mut h = PipelineHarness::build(cfg);
    h.circuit.run(setup.cycles)?;
    let captures: Vec<Vec<(u64, u64)>> = (0..2)
        .map(|t| {
            h.sink()
                .captured(t)
                .iter()
                .map(|(c, tok)| (*c, tok.seq))
                .collect()
        })
        .collect();
    Ok((format!("{captures:?}"), *h.circuit.stats().kernel()))
}

/// A longer random-stall pipeline where the dirty-set savings compound.
/// `seed` varies the stall pattern so the scaling campaign can replicate
/// the workload into many distinct, equally-heavy jobs.
fn run_stalled(seed: u64, mode: EvalMode) -> Result<RunResult, SimError> {
    const THREADS: usize = 4;
    let mut cfg =
        PipelineConfig::free_flowing(THREADS, 4, MebKind::Reduced, 64).with_eval_mode(mode);
    for t in 0..THREADS {
        cfg.sink_policies[t] = ReadyPolicy::Random {
            p: 0.4,
            seed: seed ^ t as u64,
        };
    }
    let mut h = PipelineHarness::build(cfg);
    h.circuit.run(1_200)?;
    let captures: Vec<Vec<(u64, u64)>> = (0..THREADS)
        .map(|t| {
            h.sink()
                .captured(t)
                .iter()
                .map(|(c, tok)| (*c, tok.seq))
                .collect()
        })
        .collect();
    Ok((format!("{captures:?}"), *h.circuit.stats().kernel()))
}

/// The Sec. V-A MD5 circuit: 8 threads, one message each.
fn run_md5(mode: EvalMode) -> Result<RunResult, SimError> {
    let msgs: Vec<Vec<u8>> = (0..8)
        .map(|i| format!("kernel ablation message {i}").into_bytes())
        .collect();
    let refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
    let (digests, cycles, kernel) = Md5Hasher::new(8, MebKind::Reduced)
        .with_eval_mode(mode)
        .hash_messages_instrumented(&refs)
        .map_err(|e| match e {
            Md5Error::Sim(s) => s,
            other => panic!("md5 harness misconfigured: {other}"),
        })?;
    Ok((format!("{digests:?} in {cycles} cycles"), kernel))
}

/// One campaign result: digest string + kernel counters.
type RunResult = (String, KernelStats);

/// The ablation campaign: every workload under both kernels, as
/// independent sweep jobs (submission order = table order).
fn campaign() -> (Vec<(String, EvalMode)>, Vec<SimJob<RunResult>>) {
    let mut meta = Vec::new();
    let mut jobs: Vec<SimJob<RunResult>> = Vec::new();
    for kind in [MebKind::Full, MebKind::Reduced] {
        for mode in [EvalMode::Exhaustive, EvalMode::EventDriven] {
            meta.push((format!("fig5 ({kind})"), mode));
            jobs.push(SimJob::new(format!("fig5 {kind} {mode:?}"), move || {
                run_fig5(kind, mode)
            }));
        }
    }
    for mode in [EvalMode::Exhaustive, EvalMode::EventDriven] {
        meta.push(("4t/4s random stalls".to_string(), mode));
        jobs.push(SimJob::new(format!("stalled {mode:?}"), move || {
            run_stalled(0xA5A5, mode)
        }));
    }
    for mode in [EvalMode::Exhaustive, EvalMode::EventDriven] {
        meta.push(("md5 (8t, reduced)".to_string(), mode));
        jobs.push(SimJob::new(format!("md5 {mode:?}"), move || run_md5(mode)));
    }
    (meta, jobs)
}

/// Digests of a campaign's results, in submission order (the byte-level
/// identity the parallel path must preserve).
fn digests(results: &[RunResult]) -> Vec<&str> {
    results.iter().map(|(d, _)| d.as_str()).collect()
}

fn one_over(d: Duration, w: Duration) -> f64 {
    d.as_secs_f64() / w.as_secs_f64().max(1e-9)
}

/// Thread/stage shape of the scaling workload (shared with
/// [`run_stalled`]).
const SCALING_THREADS: usize = 4;
const SCALING_STAGES: usize = 4;
const SCALING_TOKENS: u64 = 64;
const SCALING_CYCLES: u64 = 1_200;
const SCALING_SEEDS: u64 = 24;

/// The empty scaling-pipeline prototype: elaborated once per pool worker
/// and rewound by [`Circuit::reset`] between sweep points. Built with
/// zero tokens so a reset instance and a fresh build are identical; each
/// point injects its own tokens and sink policies.
fn scaling_prototype() -> SharedCircuit<Tagged> {
    SharedCircuit::new(|| {
        PipelineHarness::build(PipelineConfig::free_flowing(
            SCALING_THREADS,
            SCALING_STAGES,
            MebKind::Reduced,
            0,
        ))
        .circuit
    })
}

/// Drives one scaling point on a (fresh or reset) prototype instance:
/// configures the kernel mode, injects the tokens, seeds the sink stalls
/// and runs — the reused-circuit equivalent of [`run_stalled`].
fn drive_stalled(
    c: &mut Circuit<Tagged>,
    seed: u64,
    mode: EvalMode,
) -> Result<(RunResult, KernelStats), SimError> {
    c.set_eval_mode(mode);
    {
        let src: &mut Source<Tagged> = c.get_mut("src").expect("harness source");
        for t in 0..SCALING_THREADS {
            src.extend(t, (0..SCALING_TOKENS).map(|i| Tagged::new(t, i, i)));
        }
    }
    {
        let snk: &mut Sink<Tagged> = c.get_mut("snk").expect("harness sink");
        for t in 0..SCALING_THREADS {
            snk.set_policy(
                t,
                ReadyPolicy::Random {
                    p: 0.4,
                    seed: seed ^ t as u64,
                },
            );
        }
    }
    c.run(SCALING_CYCLES)?;
    let snk: &Sink<Tagged> = c.get("snk").expect("harness sink");
    let captures: Vec<Vec<(u64, u64)>> = (0..SCALING_THREADS)
        .map(|t| {
            snk.captured(t)
                .iter()
                .map(|(cyc, tok)| (*cyc, tok.seq))
                .collect()
        })
        .collect();
    let k = *c.stats().kernel();
    Ok(((format!("{captures:?}"), k), k))
}

/// An IR mirror of the scaling pipeline, hashed into the campaign cache
/// key — the structural component of [`campaign_key`]. The closures
/// (sink policies, seeds) are config/seed axes of the key, not
/// structure.
fn scaling_ir_hash() -> u64 {
    let mut ir = ElasticIr::<Tagged>::new();
    let chs: Vec<_> = (0..=SCALING_STAGES)
        .map(|i| ir.channel(format!("p.ch{i}"), SCALING_THREADS))
        .collect();
    ir.add("src", IrNodeKind::Source, vec![], vec![chs[0]]);
    for i in 0..SCALING_STAGES {
        ir.add(
            format!("p.meb{i}"),
            IrNodeKind::Meb {
                kind: MebKind::Reduced,
                arbiter: ArbiterKind::RoundRobin,
                initial: Vec::new(),
                auto: false,
            },
            vec![chs[i]],
            vec![chs[i + 1]],
        );
    }
    ir.add(
        "snk",
        IrNodeKind::Sink {
            capture: true,
            policy: ReadyPolicy::Always,
        },
        vec![chs[SCALING_STAGES]],
        vec![],
    );
    ir.structural_hash()
}

/// Replicated stalled-pipeline campaign for the wall-clock scaling curve
/// (both kernels × many seeds). All points share one prototype, so each
/// pool worker elaborates the pipeline once and resets it per point;
/// `keyed` additionally tags every job for the [`SweepService`] campaign
/// cache.
fn scaling_jobs(keyed: bool) -> Vec<SimJob<RunResult>> {
    let proto = scaling_prototype();
    let ir_hash = if keyed { scaling_ir_hash() } else { 0 };
    let mut jobs = Vec::new();
    for seed in 0..SCALING_SEEDS {
        for mode in [EvalMode::Exhaustive, EvalMode::EventDriven] {
            let point_seed = 0x5eed ^ (seed << 8);
            let mut job =
                SimJob::on_circuit(format!("stalled seed {seed} {mode:?}"), &proto, move |c| {
                    drive_stalled(c, point_seed, mode)
                });
            if keyed {
                // (structure, config, seed): the config axis folds in the
                // kernel mode and the run length.
                let config_hash = campaign_key(mode as u64, SCALING_CYCLES, SCALING_TOKENS);
                job = job.with_cache_key(campaign_key(ir_hash, config_hash, point_seed));
            }
            jobs.push(job);
        }
    }
    jobs
}

/// Best-of-`reps` sweep timing at a fixed worker count, with the
/// digests and actual pool size of the last repetition.
fn best_of(reps: usize, w: usize) -> (Duration, usize, Vec<RunResult>) {
    let mut best = Duration::MAX;
    let mut used = 1;
    let mut results = Vec::new();
    for _ in 0..reps {
        let rep = run_sweep_on(scaling_jobs(false), w);
        best = best.min(rep.wall);
        used = rep.workers_used;
        results = rep.unwrap_all();
    }
    (best, used, results)
}

fn scaling_curve(width: usize) {
    let host = available_workers();
    // Scaling (speedup/efficiency) is only meaningful with ≥ 4 real
    // cores; below that the curve records pool *overhead* instead and
    // the efficiency gate is skipped.
    let scaling_valid = host >= 4;
    if !scaling_valid {
        eprintln!(
            "warning: available_parallelism() == {host} < 4 — recording pool \
             overhead, not parallel speedup \
             (annotating BENCH_parallel_sweep.json with scaling_valid: false)"
        );
    }
    // Always cross the 1→2→4 worker boundary (even on small hosts, so
    // the byte-identity assertion below exercises real threads), then
    // continue to the host's full width.
    let mut worker_counts = vec![1usize, 2, 4];
    for w in [8, 16] {
        if w < width {
            worker_counts.push(w);
        }
    }
    if width > 4 {
        worker_counts.push(width);
    }

    let n_jobs = scaling_jobs(false).len();
    println!(
        "parallel sweep scaling — replicated kernel-ablation campaign \
         ({n_jobs} jobs, {host} cores available, best of 5)\n"
    );
    println!(
        "{:>10} {:>6} {:>10} {:>9} {:>11} {:>10}",
        "requested", "used", "wall ms", "speedup", "efficiency", "overhead"
    );
    println!("{}", "-".repeat(62));

    // Reset-reuse sanity: the shared-prototype campaign must reproduce
    // the fresh-build-per-point campaign bit for bit.
    let fresh: Vec<RunResult> = run_sweep_on(
        (0..SCALING_SEEDS)
            .flat_map(|seed| {
                [EvalMode::Exhaustive, EvalMode::EventDriven].map(|mode| {
                    SimJob::new(format!("fresh seed {seed} {mode:?}"), move || {
                        run_stalled(0x5eed ^ (seed << 8), mode)
                    })
                })
            })
            .collect(),
        1,
    )
    .unwrap_all();

    let (baseline_wall, _, base_results) = best_of(5, 1);
    assert_eq!(
        digests(&base_results),
        digests(&fresh),
        "reset-then-rerun diverged from fresh-build-per-point"
    );

    struct Point {
        requested: usize,
        used: usize,
        wall: Duration,
        speedup: f64,
        efficiency: f64,
        overhead: f64,
    }
    let mut points = Vec::new();
    for &w in &worker_counts {
        let (wall, used, results) = if w == 1 {
            (baseline_wall, 1, Vec::new())
        } else {
            best_of(5, w)
        };
        if w != 1 {
            assert_eq!(
                digests(&results),
                digests(&base_results),
                "parallel campaign diverged at {w} workers"
            );
        }
        let speedup = one_over(baseline_wall, wall);
        let efficiency = speedup / used as f64;
        let overhead = one_over(wall, baseline_wall) - 1.0;
        println!(
            "{:>10} {:>6} {:>10.1} {:>8.2}x {:>11.2} {:>9.1}%",
            w,
            used,
            wall.as_secs_f64() * 1e3,
            speedup,
            efficiency,
            overhead * 100.0
        );
        points.push(Point {
            requested: w,
            used,
            wall,
            speedup,
            efficiency,
            overhead,
        });
    }

    // Gates (ISSUE 6 acceptance): on a single-core host the pool must
    // cost ≤ 5% over serial at 2 workers; with ≥ 4 cores, 4 workers must
    // reach ≥ 0.7 efficiency. In between neither says anything crisp.
    let at = |w: usize| points.iter().find(|p| p.requested == w);
    if host == 1 {
        let p2 = at(2).expect("2-worker point always measured");
        assert!(
            p2.overhead <= 0.05,
            "2-worker pool overhead {:.1}% exceeds 5% on a 1-core host \
             (wall {:.1} ms vs serial {:.1} ms)",
            p2.overhead * 100.0,
            p2.wall.as_secs_f64() * 1e3,
            baseline_wall.as_secs_f64() * 1e3
        );
        println!(
            "\n1-core host: 2-worker overhead {:.1}% (gate: <= 5%); speedup \
             gates skipped (scaling_valid: false).",
            p2.overhead * 100.0
        );
    } else if scaling_valid {
        let p4 = at(4).expect("4-worker point always measured");
        assert!(
            p4.efficiency >= 0.7,
            "4-worker efficiency {:.2} below 0.7 on a {host}-core host",
            p4.efficiency
        );
        println!(
            "\n{host}-core host: 4-worker efficiency {:.2} (gate: >= 0.7).",
            p4.efficiency
        );
    } else {
        println!(
            "\n{host}-core host: too few cores for the efficiency gate, too \
             many for the overhead gate — curve recorded unasserted."
        );
    }

    // Campaign-cache leg: the same keyed campaign twice through one
    // SweepService — the second submission must answer ≥ 90% (in fact
    // 100%) of its points from memory.
    let service: SweepService<RunResult> = SweepService::new(width);
    let first = service.run(scaling_jobs(true));
    assert_eq!(first.memoized_jobs, 0, "cold cache must not memoize");
    let second = service.run(scaling_jobs(true));
    let cache_jobs = second.jobs.len();
    let memoized = second.memoized_jobs;
    let hit_rate = memoized as f64 / cache_jobs as f64;
    assert!(
        hit_rate >= 0.9,
        "second identical campaign memoized only {:.0}% of {cache_jobs} jobs",
        hit_rate * 100.0
    );
    let first_digests: Vec<RunResult> = first.unwrap_all();
    let second_digests: Vec<RunResult> = second.unwrap_all();
    assert_eq!(
        digests(&first_digests),
        digests(&second_digests),
        "memoized campaign diverged from its first run"
    );
    assert_eq!(
        digests(&second_digests),
        digests(&base_results),
        "keyed campaign diverged from the unkeyed baseline"
    );
    println!(
        "campaign cache: second identical submission memoized {}/{cache_jobs} \
         jobs ({:.0}% hit rate).",
        memoized,
        hit_rate * 100.0
    );

    let json_points: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "    {{\"workers_requested\": {}, \"workers_used\": {}, \
                 \"wall_ms\": {:.3}, \"speedup\": {:.3}, \"efficiency\": {:.3}, \
                 \"overhead_vs_serial\": {:.3}}}",
                p.requested,
                p.used,
                p.wall.as_secs_f64() * 1e3,
                p.speedup,
                p.efficiency,
                p.overhead
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"kernel_ablation parallel sweep\",\n  \
         \"campaign\": \"stalled {SCALING_THREADS}t/{SCALING_STAGES}s pipeline, \
         {SCALING_SEEDS} seeds x 2 kernels, shared prototype per worker\",\n  \
         \"jobs\": {n_jobs},\n  \"available_parallelism\": {host},\n  \
         \"timing\": \"best of 5\",\n  \
         \"scaling_valid\": {scaling_valid},\n  \
         \"digests_identical\": true,\n  \
         \"cache\": {{\"second_run_memoized\": {}, \"jobs\": {cache_jobs}, \
         \"hit_rate\": {hit_rate:.3}}},\n  \"points\": [\n{}\n  ]\n}}\n",
        memoized,
        json_points.join(",\n")
    );
    std::fs::write("BENCH_parallel_sweep.json", json).expect("write BENCH_parallel_sweep.json");
    println!("\nwrote BENCH_parallel_sweep.json");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let parallel = args.iter().any(|a| a == "--parallel");
    let workers_override: Option<usize> = args.iter().position(|a| a == "--workers").map(|i| {
        args.get(i + 1)
            .and_then(|v| v.parse().ok())
            .filter(|&n| n > 0)
            .expect("--workers takes a positive integer")
    });
    let width = workers_override.unwrap_or_else(available_workers);
    let (meta, jobs) = campaign();

    // The table itself: run the campaign on the pool (all cores when
    // --parallel, serial baseline otherwise) — results always arrive in
    // submission order, so the table layout is identical either way.
    let workers = if parallel { width } else { 1 };
    let report = run_sweep_on(jobs, workers);
    if parallel {
        // The pool clamps to the job count; label the table run with the
        // width that actually executed, not just the request.
        println!(
            "ablation campaign pool: requested {} worker(s), used {}\n",
            report.workers_requested, report.workers_used
        );
    }
    let results = report.unwrap_all();

    header();
    for pair in meta.chunks(2).zip(results.chunks(2)) {
        let ((name, _), results) = (&pair.0[0], pair.1);
        let (oracle_digest, oracle) = &results[0];
        let (fast_digest, fast) = &results[1];
        assert_eq!(
            oracle_digest, fast_digest,
            "{name}: captures diverged between kernels"
        );
        row(name, EvalMode::Exhaustive, oracle);
        row(name, EvalMode::EventDriven, fast);
        saving(oracle, fast);
    }
    println!(
        "identical captures/digests in every pair — the dirty-set kernel is\n\
         observationally equivalent to the exhaustive oracle (docs/kernel.md).\n"
    );

    if parallel {
        // Prove the parallel path byte-identical to the serial one on
        // the real campaign, then record the scaling curve.
        let serial = run_sweep_on(campaign().1, 1).unwrap_all();
        assert_eq!(
            digests(&serial),
            digests(&results),
            "parallel ablation campaign diverged from the serial baseline"
        );
        println!("serial and parallel campaign digests are byte-identical.\n");
        scaling_curve(width);
    }
}
