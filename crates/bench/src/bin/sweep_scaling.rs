//! Wall-clock scaling of the parallel sweep pool and hit rate of the
//! campaign cache, recorded in `BENCH_parallel_sweep.json`.
//!
//! The campaign replicates one workload, a 4-thread, 4-stage reduced-MEB
//! pipeline whose sinks stall at random, over 24 seeds under both settle
//! modes (48 jobs). Each point builds its own pipeline. Every worker
//! count is timed in [`PAIRS`] pairs, each a serial campaign and an
//! N-worker campaign run back to back (which one goes first alternates),
//! so both sides of a speedup see the same host load; the curve records
//! the median and the range of the per-pair speedups. The serial
//! campaign is the pool's own loop on one worker thread, so both sides
//! of a pair run the same code. The binary asserts that
//!
//! * every campaign, serial or parallel, reproduces the first serial
//!   digests;
//! * on a 1-core host, 2 workers cost at most 5% over serial, and on a
//!   host with at least 4 cores, 4 workers reach an efficiency of at
//!   least 0.7, both from the median pair (in between, the curve is
//!   recorded unasserted);
//! * a second identical keyed campaign through one [`SweepService`] is
//!   at least 90% memoized, and equals the first and the unkeyed
//!   baseline.
//!
//! The curve always crosses 2 → 4 workers, then continues to the host's
//! available parallelism; the cache leg runs on at least 2
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
/// Serial/parallel timing pairs per worker count.
const PAIRS: usize = 11;

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

/// One unkeyed campaign on `workers` workers: its wall time, the pool
/// size actually used and the digests.
fn campaign(workers: usize) -> (Duration, usize, Vec<String>) {
    let rep = run_sweep_on(scaling_jobs(false), workers);
    (rep.wall, rep.workers_used, rep.unwrap_all())
}

/// The median of `xs`, which must not be empty.
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// One worker count timed in pairs against the serial campaign.
struct Point {
    requested: usize,
    used: usize,
    /// Median wall times of the serial and the parallel campaigns.
    serial_ms: f64,
    wall_ms: f64,
    /// Median, least and greatest serial/parallel wall ratio of a pair.
    speedup: f64,
    speedup_min: f64,
    speedup_max: f64,
}

impl Point {
    fn efficiency(&self) -> f64 {
        self.speedup / self.used as f64
    }

    fn overhead(&self) -> f64 {
        1.0 / self.speedup - 1.0
    }
}

/// Times `workers` in [`PAIRS`] serial/parallel pairs, asserting that
/// every campaign reproduces `baseline`.
fn paired(workers: usize, baseline: &[String]) -> Point {
    let mut serial = Vec::with_capacity(PAIRS);
    let mut wall = Vec::with_capacity(PAIRS);
    let mut ratios = Vec::with_capacity(PAIRS);
    let mut used = 1;
    for pair in 0..PAIRS {
        let run = |w: usize| {
            let (t, u, digests) = campaign(w);
            assert_eq!(digests, baseline, "campaign diverged at {w} workers");
            (t.as_secs_f64() * 1e3, u)
        };
        let ((s, _), (p, u)) = if pair % 2 == 0 {
            (run(1), run(workers))
        } else {
            let p = run(workers);
            (run(1), p)
        };
        serial.push(s);
        wall.push(p);
        ratios.push(s / p.max(1e-9));
        used = u;
    }
    // `median` sorts, so the range is the sorted ratios' ends.
    let speedup = median(&mut ratios);
    Point {
        requested: workers,
        used,
        serial_ms: median(&mut serial),
        wall_ms: median(&mut wall),
        speedup,
        speedup_min: ratios[0],
        speedup_max: ratios[PAIRS - 1],
    }
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
    // Always cross the 2→4 worker boundary (even on small hosts, so the
    // byte-identity assertion below exercises real threads), then
    // continue to the host's full width.
    let mut worker_counts = vec![2usize, 4];
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
         ({n_jobs} jobs, {host} cores available, {PAIRS} serial/parallel pairs \
         per worker count)\n"
    );
    println!(
        "{:>10} {:>6} {:>10} {:>10} {:>9} {:>15} {:>11} {:>10}",
        "requested",
        "used",
        "serial ms",
        "wall ms",
        "speedup",
        "pair range",
        "efficiency",
        "overhead"
    );
    println!("{}", "-".repeat(88));

    let (_, _, baseline) = campaign(1);
    let curve: Vec<Point> = worker_counts
        .iter()
        .map(|&w| {
            let p = paired(w, &baseline);
            println!(
                "{:>10} {:>6} {:>10.1} {:>10.1} {:>8.2}x {:>6.2}x – {:>5.2}x {:>11.2} {:>9.1}%",
                p.requested,
                p.used,
                p.serial_ms,
                p.wall_ms,
                p.speedup,
                p.speedup_min,
                p.speedup_max,
                p.efficiency(),
                p.overhead() * 100.0
            );
            p
        })
        .collect();

    // Gates, on the median pair: on a single-core host the pool must
    // cost ≤ 5% over serial at 2 workers; with ≥ 4 cores, 4 workers
    // must reach ≥ 0.7 efficiency. In between neither says anything
    // crisp.
    let at = |w: usize| curve.iter().find(|p| p.requested == w);
    if host == 1 {
        let p2 = at(2).expect("2-worker point always measured");
        assert!(
            p2.overhead() <= 0.05,
            "2-worker pool overhead {:.1}% exceeds 5% on a 1-core host \
             (median wall {:.1} ms vs serial {:.1} ms)",
            p2.overhead() * 100.0,
            p2.wall_ms,
            p2.serial_ms
        );
        println!(
            "\n1-core host: 2-worker overhead {:.1}% (gate: <= 5%); speedup \
             gates skipped (scaling_valid: false).",
            p2.overhead() * 100.0
        );
    } else if scaling_valid {
        let p4 = at(4).expect("4-worker point always measured");
        assert!(
            p4.efficiency() >= 0.7,
            "4-worker efficiency {:.2} below 0.7 on a {host}-core host",
            p4.efficiency()
        );
        println!(
            "\n{host}-core host: 4-worker efficiency {:.2} (gate: >= 0.7).",
            p4.efficiency()
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
                 \"serial_wall_ms\": {:.3}, \"wall_ms\": {:.3}, \"speedup\": {:.3}, \
                 \"speedup_min\": {:.3}, \"speedup_max\": {:.3}, \"efficiency\": {:.3}, \
                 \"overhead_vs_serial\": {:.3}}}",
                p.requested,
                p.used,
                p.serial_ms,
                p.wall_ms,
                p.speedup,
                p.speedup_min,
                p.speedup_max,
                p.efficiency(),
                p.overhead()
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"sweep_scaling\",\n  \
         \"campaign\": \"stalled {THREADS}t/{STAGES}s pipeline, \
         {SEEDS} seeds x 2 kernels, one build per point\",\n  \
         \"jobs\": {n_jobs},\n  \"available_parallelism\": {host},\n  \
         \"timing\": \"{PAIRS} alternating serial/parallel pairs per point; \
         median wall times, median and range of the per-pair speedups\",\n  \
         \"scaling_valid\": {scaling_valid},\n  \
         \"digests_identical\": true,\n  \
         \"cache\": {{\"workers\": {cache_workers}, \"second_run_memoized\": {memoized}, \
         \"jobs\": {cache_jobs}, \"hit_rate\": {hit_rate:.3}}},\n  \"points\": [\n{}\n  ]\n}}\n",
        json_points.join(",\n")
    );
    std::fs::write("BENCH_parallel_sweep.json", json).expect("write BENCH_parallel_sweep.json");
    println!("\nwrote BENCH_parallel_sweep.json");
}
