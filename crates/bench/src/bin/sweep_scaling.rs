//! Wall-clock scaling of the parallel sweep pool and hit rate of the
//! campaign cache, recorded in `BENCH_parallel_sweep.json`.
//!
//! The campaign replicates one workload, a 4-thread, 4-stage reduced-MEB
//! pipeline whose sinks stall at random, over 24 seeds under both settle
//! modes (48 jobs). Each point builds its own pipeline. The binary
//! asserts that
//!
//! * every worker count reproduces the serial digests;
//! * on a 1-core host, 2 workers cost at most 5% over serial, and on a
//!   host with at least 4 cores, 4 workers reach an efficiency of at
//!   least 0.7 (in between, the curve is recorded unasserted);
//! * a second identical keyed campaign through one [`SweepService`] is
//!   at least 90% memoized, and equals the first and the unkeyed
//!   baseline.
//!
//! The curve always crosses 1 → 2 → 4 workers, then continues to the
//! host's available parallelism; the cache leg runs on at least 2
//! workers, so both use real threads on any host. Below 4 cores the JSON
//! is annotated `"scaling_valid": false`: wall-clock speedups measured
//! there say nothing about the pool.
//!
//! ```text
//! cargo run --release -p elastic-bench --bin sweep_scaling
//! ```

use std::time::Duration;

use elastic_core::{ArbiterKind, MebKind, PipelineConfig, PipelineHarness};
use elastic_sim::{
    available_workers, campaign_key, run_sweep_on, EvalMode, KernelStats, ReadyPolicy, SimError,
    SimJob, Sink, Source, SweepService, Tagged,
};
use elastic_synth::{ElasticIr, IrNodeKind};

/// Thread/stage shape, tokens per thread and run length of the scaling
/// workload.
const THREADS: usize = 4;
const STAGES: usize = 4;
const TOKENS: u64 = 64;
const CYCLES: u64 = 1_200;
/// Stall seeds; each runs under both settle modes.
const SEEDS: u64 = 24;
/// Timed repetitions per worker count; the best one counts.
const REPS: usize = 5;

/// The campaign's points: `(point seed, settle mode)`, in submission
/// order.
fn points() -> impl Iterator<Item = (u64, EvalMode)> {
    (0..SEEDS).flat_map(|seed| {
        [EvalMode::Exhaustive, EvalMode::EventDriven].map(|mode| (0x5eed ^ (seed << 8), mode))
    })
}

/// Runs one point: builds the scaling pipeline empty, sets the settle
/// mode, injects the tokens, seeds the sink stalls and runs. Returns a
/// digest of the captures.
fn run_point(seed: u64, mode: EvalMode) -> Result<(String, KernelStats), SimError> {
    let mut c = PipelineHarness::build(PipelineConfig::free_flowing(
        THREADS,
        STAGES,
        MebKind::Reduced,
        0,
    ))
    .circuit;
    c.set_eval_mode(mode);
    {
        let src: &mut Source<Tagged> = c.get_mut("src").expect("harness source");
        for t in 0..THREADS {
            src.extend(t, (0..TOKENS).map(|i| Tagged::new(t, i, i)));
        }
    }
    {
        let snk: &mut Sink<Tagged> = c.get_mut("snk").expect("harness sink");
        for t in 0..THREADS {
            snk.set_policy(
                t,
                ReadyPolicy::Random {
                    p: 0.4,
                    seed: seed ^ t as u64,
                },
            );
        }
    }
    c.run(CYCLES)?;
    let snk: &Sink<Tagged> = c.get("snk").expect("harness sink");
    let captures: Vec<Vec<(u64, u64)>> = (0..THREADS)
        .map(|t| {
            snk.captured(t)
                .iter()
                .map(|(cyc, tok)| (*cyc, tok.seq))
                .collect()
        })
        .collect();
    Ok((format!("{captures:?}"), *c.stats().kernel()))
}

/// An IR mirror of the scaling pipeline, hashed into the campaign cache
/// key — the structural component of [`campaign_key`]. The closures
/// (sink policies, seeds) are config/seed axes of the key, not
/// structure.
fn scaling_ir_hash() -> u64 {
    let mut ir = ElasticIr::<Tagged>::new();
    let chs: Vec<_> = (0..=STAGES)
        .map(|i| ir.channel(format!("p.ch{i}"), THREADS))
        .collect();
    ir.add("src", IrNodeKind::Source, vec![], vec![chs[0]]);
    for i in 0..STAGES {
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
        vec![chs[STAGES]],
        vec![],
    );
    ir.structural_hash()
}

/// The campaign, one job per point; `keyed` additionally tags every job
/// for the [`SweepService`] campaign cache.
fn scaling_jobs(keyed: bool) -> Vec<SimJob<String>> {
    let ir_hash = if keyed { scaling_ir_hash() } else { 0 };
    points()
        .map(|(seed, mode)| {
            let job = SimJob::instrumented(format!("seed {seed:#x} {mode:?}"), move || {
                run_point(seed, mode)
            });
            if keyed {
                // (structure, config, seed): the config axis folds in the
                // kernel mode and the run length.
                let config_hash = campaign_key(mode as u64, CYCLES, TOKENS);
                job.with_cache_key(campaign_key(ir_hash, config_hash, seed))
            } else {
                job
            }
        })
        .collect()
}

/// Best-of-[`REPS`] sweep timing at a fixed worker count, with the
/// digests and actual pool size of the last repetition.
fn best_of(workers: usize) -> (Duration, usize, Vec<String>) {
    let mut best = Duration::MAX;
    let mut used = 1;
    let mut digests = Vec::new();
    for _ in 0..REPS {
        let rep = run_sweep_on(scaling_jobs(false), workers);
        best = best.min(rep.wall);
        used = rep.workers_used;
        digests = rep.unwrap_all();
    }
    (best, used, digests)
}

fn one_over(d: Duration, w: Duration) -> f64 {
    d.as_secs_f64() / w.as_secs_f64().max(1e-9)
}

fn main() {
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
        if w < host {
            worker_counts.push(w);
        }
    }
    if host > 4 {
        worker_counts.push(host);
    }

    let n_jobs = points().count();
    println!(
        "parallel sweep scaling — replicated stalled-pipeline campaign \
         ({n_jobs} jobs, {host} cores available, best of {REPS})\n"
    );
    println!(
        "{:>10} {:>6} {:>10} {:>9} {:>11} {:>10}",
        "requested", "used", "wall ms", "speedup", "efficiency", "overhead"
    );
    println!("{}", "-".repeat(62));

    let (baseline_wall, _, baseline) = best_of(1);

    struct Point {
        requested: usize,
        used: usize,
        wall: Duration,
        speedup: f64,
        efficiency: f64,
        overhead: f64,
    }
    let mut curve = Vec::new();
    for &w in &worker_counts {
        let (wall, used) = if w == 1 {
            (baseline_wall, 1)
        } else {
            let (wall, used, digests) = best_of(w);
            assert_eq!(
                digests, baseline,
                "parallel campaign diverged at {w} workers"
            );
            (wall, used)
        };
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
        curve.push(Point {
            requested: w,
            used,
            wall,
            speedup,
            efficiency,
            overhead,
        });
    }

    // Gates: on a single-core host the pool must cost ≤ 5% over serial
    // at 2 workers; with ≥ 4 cores, 4 workers must reach ≥ 0.7
    // efficiency. In between neither says anything crisp.
    let at = |w: usize| curve.iter().find(|p| p.requested == w);
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
    let cache_workers = host.max(2);
    let service: SweepService<String> = SweepService::new(cache_workers);
    let first = service.run(scaling_jobs(true));
    assert_eq!(first.cache_hits, 0, "cold cache must not memoize");
    let second = service.run(scaling_jobs(true));
    let cache_jobs = second.jobs.len();
    let memoized = second.cache_hits;
    let hit_rate = memoized as f64 / cache_jobs as f64;
    assert!(
        hit_rate >= 0.9,
        "second identical campaign memoized only {:.0}% of {cache_jobs} jobs",
        hit_rate * 100.0
    );
    let first = first.unwrap_all();
    let second = second.unwrap_all();
    assert_eq!(
        first, second,
        "memoized campaign diverged from its first run"
    );
    assert_eq!(
        second, baseline,
        "keyed campaign diverged from the unkeyed baseline"
    );
    println!(
        "campaign cache ({cache_workers} workers): second identical submission \
         memoized {memoized}/{cache_jobs} jobs ({:.0}% hit rate).",
        hit_rate * 100.0
    );

    let json_points: Vec<String> = curve
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
        "{{\n  \"bench\": \"sweep_scaling\",\n  \
         \"campaign\": \"stalled {THREADS}t/{STAGES}s pipeline, \
         {SEEDS} seeds x 2 kernels, one build per point\",\n  \
         \"jobs\": {n_jobs},\n  \"available_parallelism\": {host},\n  \
         \"timing\": \"best of {REPS}\",\n  \
         \"scaling_valid\": {scaling_valid},\n  \
         \"digests_identical\": true,\n  \
         \"cache\": {{\"workers\": {cache_workers}, \"second_run_memoized\": {memoized}, \
         \"jobs\": {cache_jobs}, \"hit_rate\": {hit_rate:.3}}},\n  \"points\": [\n{}\n  ]\n}}\n",
        json_points.join(",\n")
    );
    std::fs::write("BENCH_parallel_sweep.json", json).expect("write BENCH_parallel_sweep.json");
    println!("\nwrote BENCH_parallel_sweep.json");
}
