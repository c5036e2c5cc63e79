//! Integration coverage for the parallel sweep harness (`sim::par` +
//! `sim::sweep`): running a realistic simulation campaign — MEB
//! pipelines plus the MD5 design example — through the sweep pool must
//! be byte-identical to running it serially (whatever the pool shape,
//! job mix, or panic placement), a circuit rewound by `Circuit::reset`
//! must be indistinguishable from a fresh build, failures must stay
//! isolated to their job, the `SweepService` campaign cache must answer
//! repeat submissions from memory — while staying bounded at its
//! capacity cap under autotune-volume key churn, keeping the same
//! entries whatever order its jobs finish in, and never serving a stale
//! result across an IR mutation — and on hosts with real parallelism
//! the wall-clock must actually scale.

use mt_elastic::core::{MebKind, PipelineConfig, PipelineHarness};
use mt_elastic::md5::Md5Hasher;
use mt_elastic::sim::{
    available_workers, campaign_key, run_sweep, run_sweep_on, Circuit, EvalMode, JobError,
    KernelStats, ReadyPolicy, SimError, SimJob, Sink, Source, SweepService, Tagged,
};
use proptest::prelude::*;

/// A deterministic stalled-pipeline run: digest of every capture.
fn pipeline_digest(seed: u64, mode: EvalMode) -> Result<(String, KernelStats), SimError> {
    const THREADS: usize = 3;
    let mut cfg =
        PipelineConfig::free_flowing(THREADS, 3, MebKind::Reduced, 24).with_eval_mode(mode);
    for t in 0..THREADS {
        cfg.sink_policies[t] = ReadyPolicy::Random {
            p: 0.5,
            seed: seed ^ t as u64,
        };
    }
    let mut h = PipelineHarness::build(cfg);
    h.circuit.run(600)?;
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

/// MD5 digests of a deterministic message set through the elastic
/// circuit — the campaign's "real design example" leg.
fn md5_digest(threads: usize) -> Result<(String, KernelStats), SimError> {
    let msgs: Vec<Vec<u8>> = (0..threads)
        .map(|i| format!("parallel sweep message {i}").into_bytes())
        .collect();
    let refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
    let (digests, cycles, kernel) = Md5Hasher::new(threads, MebKind::Reduced)
        .hash_messages_instrumented(&refs)
        .expect("md5 campaign runs clean");
    Ok((format!("{digests:02x?} in {cycles}"), kernel))
}

/// The mixed campaign used by the identity tests below.
fn campaign() -> Vec<SimJob<(String, KernelStats)>> {
    let mut jobs = Vec::new();
    for seed in 0..6u64 {
        for mode in [EvalMode::Exhaustive, EvalMode::EventDriven] {
            jobs.push(SimJob::new(format!("pipe {seed} {mode:?}"), move || {
                pipeline_digest(0xC0FFEE ^ seed, mode)
            }));
        }
    }
    for threads in [2usize, 4, 8] {
        jobs.push(SimJob::new(format!("md5 {threads}t"), move || {
            md5_digest(threads)
        }));
    }
    jobs
}

fn digests(results: &[(String, KernelStats)]) -> Vec<&str> {
    results.iter().map(|(d, _)| d.as_str()).collect()
}

/// The whole point of the harness: parallel execution is byte-identical
/// to serial execution — same digests, in submission order, and the
/// aggregated kernel counters match because aggregation is commutative.
#[test]
fn parallel_campaign_is_byte_identical_to_serial() {
    let serial = run_sweep_on(campaign(), 1);
    let serial_kernel = serial.kernel;
    let serial_results = serial.unwrap_all();
    for workers in [2, 4, available_workers().max(2)] {
        let par = run_sweep_on(campaign(), workers);
        assert_eq!(
            par.kernel, serial_kernel,
            "{workers} workers: kernel aggregate diverged"
        );
        let par_results = par.unwrap_all();
        assert_eq!(
            digests(&par_results),
            digests(&serial_results),
            "{workers} workers: digests diverged"
        );
    }
}

/// `run_sweep` (auto worker count) gives the same answer as the explicit
/// serial baseline.
#[test]
fn auto_worker_count_matches_serial() {
    let serial = run_sweep_on(campaign(), 1).unwrap_all();
    let auto = run_sweep(campaign()).unwrap_all();
    assert_eq!(digests(&auto), digests(&serial));
}

/// A failing job — simulation error or outright panic — must not take
/// down the sweep or disturb its neighbours' results.
#[test]
fn failures_stay_isolated_to_their_job() {
    let mut jobs: Vec<SimJob<(String, KernelStats)>> = vec![SimJob::new("ok-a", || {
        pipeline_digest(1, EvalMode::EventDriven)
    })];
    jobs.push(SimJob::new("deadlocked", || {
        // A pipeline whose sink never becomes ready trips the watchdog.
        let cfg = PipelineConfig::free_flowing(2, 2, MebKind::Reduced, 8)
            .with_sink_policy(0, ReadyPolicy::Never)
            .with_sink_policy(1, ReadyPolicy::Never);
        let mut h = PipelineHarness::build(cfg);
        h.circuit.set_deadlock_watchdog(Some(64));
        h.circuit.run(2_000)?;
        Ok(("unreachable".to_string(), KernelStats::default()))
    }));
    jobs.push(SimJob::new("panicking", || panic!("job blew up")));
    jobs.push(SimJob::new("ok-b", || {
        pipeline_digest(2, EvalMode::EventDriven)
    }));

    let report = run_sweep_on(jobs, 2);
    assert_eq!(report.ok_count(), 2);
    let failures = report.failures();
    assert_eq!(failures.len(), 2);
    assert!(matches!(
        failures[0],
        ("deadlocked", JobError::Sim(SimError::Deadlock { .. }))
    ));
    assert!(matches!(
        failures[1],
        ("panicking", JobError::Panic { message, .. }) if message.contains("blew up")
    ));
    // The panic hook captured where the panic was raised, so the report
    // names this file rather than an anonymous unwind.
    if let ("panicking", JobError::Panic { location, .. }) = failures[1] {
        let loc = location.as_deref().expect("panic location captured");
        assert!(
            loc.contains("parallel_sweep.rs"),
            "unexpected location {loc}"
        );
        let rendered = failures[1].1.to_string();
        assert!(
            rendered.contains("parallel_sweep.rs") && rendered.contains("blew up"),
            "Display lost the location or message: {rendered}"
        );
    }
    // The deadlock error carries the blocked-channel diagnosis end to end.
    let rendered = failures[0].1.to_string();
    assert!(rendered.contains("blocked:"), "diagnosis lost: {rendered}");
    // Healthy neighbours are untouched.
    assert!(report.jobs[0].outcome.is_ok());
    assert!(report.jobs[3].outcome.is_ok());
}

/// On hosts with ≥ 4 cores the replicated campaign must scale: 4 workers
/// at least 2× faster than 1. Skipped (trivially green) on smaller
/// hosts, where there is nothing to measure — `BENCH_parallel_sweep.json`
/// records the curve for whichever host ran `sweep_scaling`.
#[test]
fn four_workers_give_at_least_2x_on_a_4_core_host() {
    if available_workers() < 4 {
        eprintln!(
            "skipping speedup assertion: only {} core(s) available",
            available_workers()
        );
        return;
    }
    let heavy = || -> Vec<SimJob<(String, KernelStats)>> {
        (0..16u64)
            .map(|seed| {
                SimJob::new(format!("heavy {seed}"), move || {
                    pipeline_digest(0xBEEF ^ (seed << 4), EvalMode::Exhaustive)
                })
            })
            .collect()
    };
    // Warm up, then take the best of 3 to shake scheduler noise.
    run_sweep_on(heavy(), 4);
    let best = |workers: usize| {
        (0..3)
            .map(|_| run_sweep_on(heavy(), workers).wall)
            .min()
            .expect("three timed runs")
    };
    let serial = best(1);
    let parallel = best(4);
    let speedup = serial.as_secs_f64() / parallel.as_secs_f64().max(1e-9);
    assert!(
        speedup >= 2.0,
        "expected ≥2x speedup on {} cores, measured {speedup:.2}x",
        available_workers()
    );
}

/// Drives one [`pipeline_digest`] point on the zero-token pipeline, freshly
/// built or rewound by `Circuit::reset`: injects the tokens and stall
/// seeds, then runs.
fn drive_point(c: &mut Circuit<Tagged>, seed: u64) -> Result<(String, KernelStats), SimError> {
    const THREADS: usize = 3;
    c.set_eval_mode(EvalMode::EventDriven);
    {
        let src: &mut Source<Tagged> = c.get_mut("src").expect("harness source");
        for t in 0..THREADS {
            src.extend(t, (0..24u64).map(|i| Tagged::new(t, i, i)));
        }
    }
    {
        let snk: &mut Sink<Tagged> = c.get_mut("snk").expect("harness sink");
        for t in 0..THREADS {
            snk.set_policy(
                t,
                ReadyPolicy::Random {
                    p: 0.5,
                    seed: seed ^ t as u64,
                },
            );
        }
    }
    c.run(600)?;
    let snk: &Sink<Tagged> = c.get("snk").expect("harness sink");
    let captures: Vec<Vec<(u64, u64)>> = (0..THREADS)
        .map(|t| {
            snk.captured(t)
                .iter()
                .map(|(c, tok)| (*c, tok.seq))
                .collect()
        })
        .collect();
    Ok((format!("{captures:?}"), *c.stats().kernel()))
}

/// The reset twin of [`pipeline_digest`]: builds the zero-token pipeline,
/// runs a throwaway point on it, rewinds it with `Circuit::reset` and
/// reruns `seed`.
fn reset_twin(seed: u64) -> Result<(String, KernelStats), SimError> {
    let mut c =
        PipelineHarness::build(PipelineConfig::free_flowing(3, 3, MebKind::Reduced, 0)).circuit;
    drive_point(&mut c, !seed)?;
    c.reset()?;
    drive_point(&mut c, seed)
}

/// A mixed campaign: per seed one fresh-build job and its reset twin,
/// with an optional panicking job spliced in at `panic_at`.
fn mixed_jobs(seeds: &[u64], panic_at: Option<usize>) -> Vec<SimJob<(String, KernelStats)>> {
    let mut jobs = Vec::new();
    for (i, &seed) in seeds.iter().enumerate() {
        if panic_at == Some(i) {
            jobs.push(SimJob::new(format!("boom {i}"), || {
                panic!("injected panic")
            }));
        }
        jobs.push(SimJob::new(format!("owned {seed:#x}"), move || {
            pipeline_digest(seed, EvalMode::EventDriven)
        }));
        jobs.push(SimJob::instrumented(
            format!("reset {seed:#x}"),
            move || {
                let (digest, kernel) = reset_twin(seed)?;
                Ok(((digest, kernel), kernel))
            },
        ));
    }
    jobs
}

/// Renders every outcome (label, digest or error text) in submission
/// order, so two reports can be compared byte for byte including their
/// failures.
fn rendered(report: &mt_elastic::sim::SweepReport<(String, KernelStats)>) -> Vec<String> {
    report
        .jobs
        .iter()
        .map(|j| match &j.outcome {
            Ok((d, _)) => format!("ok {}: {d}", j.label),
            Err(e) => format!("err {}: {e}", j.label),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Pool shape is behaviourally invisible: whatever the worker count
    /// (and hence which worker claims which job), however owned jobs
    /// and their reset twins interleave, and wherever a panicking job
    /// lands, the submission-ordered outcomes — digests, errors *and* the
    /// aggregated kernel counters — are byte-identical to `workers == 1`.
    /// The per-seed pairing additionally checks the `Circuit::reset`
    /// contract: a rewound instance reproduces a fresh build exactly.
    #[test]
    fn pool_shape_and_circuit_reuse_are_invisible(
        workers in 2usize..7,
        seeds in prop::collection::vec(any::<u64>(), 2..7),
        panic_pick in any::<u64>(),
    ) {
        let panic_at = panic_pick
            .is_multiple_of(3)
            .then(|| (panic_pick / 3) as usize % seeds.len());
        let serial = run_sweep_on(mixed_jobs(&seeds, panic_at), 1);
        prop_assert_eq!(serial.workers_used, 1);
        let par = run_sweep_on(mixed_jobs(&seeds, panic_at), workers);
        prop_assert_eq!(par.workers_requested, workers);
        prop_assert_eq!(
            rendered(&par),
            rendered(&serial),
            "{} workers diverged from serial (panic at {:?})",
            workers,
            panic_at
        );
        prop_assert_eq!(par.kernel, serial.kernel, "kernel aggregate diverged");

        // Reset-then-rerun == fresh build, point by point: within one
        // report, each reset twin's digest equals its owned job's.
        for pair in serial.jobs.chunks(2).filter(|p| p.len() == 2) {
            if !pair[0].label.starts_with("owned") {
                continue; // the spliced-in panic job offsets one chunk
            }
            let owned = pair[0].outcome.as_ref().expect("owned job runs clean");
            let twin = pair[1].outcome.as_ref().expect("reset twin runs clean");
            prop_assert_eq!(&owned.0, &twin.0, "reset-then-rerun diverged from fresh build");
        }
    }
}

/// The `SweepService` campaign cache: a second identical keyed campaign
/// answers ≥ 90% (here: all) of its points from memory, byte-identically
/// and with zero simulation work.
#[test]
fn sweep_service_memoizes_repeat_campaigns() {
    let keyed = || -> Vec<SimJob<(String, KernelStats)>> {
        (0..8u64)
            .map(|seed| {
                SimJob::new(format!("pt {seed}"), move || {
                    pipeline_digest(seed, EvalMode::EventDriven)
                })
                .with_cache_key(campaign_key(0xF00D, 0x1, seed))
            })
            .collect()
    };
    let service = SweepService::new(2);
    let first = service.run(keyed());
    assert_eq!(first.cache_hits, 0, "cold cache must not memoize");
    assert_eq!(first.ok_count(), 8);

    let second = service.run(keyed());
    assert!(
        second.cache_hits * 10 >= second.jobs.len() as u64 * 9,
        "second identical campaign memoized only {}/{} jobs",
        second.cache_hits,
        second.jobs.len()
    );
    assert_eq!(rendered(&second), rendered(&first));
    assert!(second
        .jobs
        .iter()
        .all(|j| j.memoized && j.wall == std::time::Duration::ZERO));
}

/// Autotune-volume cache behaviour: thousands of distinct keyed points
/// (the size of a long `synth_optimize` run) keep the campaign cache
/// bounded at its capacity cap, the freshest keys still answer from
/// memory with their original values, and long-evicted keys re-execute.
#[test]
fn campaign_cache_is_bounded_at_autotune_volume() {
    const CAP: usize = 256;
    let svc = SweepService::new(2).with_cache_capacity(CAP);
    let point = |key: u64, value: u64| -> SimJob<u64> {
        SimJob::new(format!("pt {key:x}"), move || Ok(value)).with_cache_key(key)
    };

    // Five waves of 600 distinct campaign keys — 3 000 points.
    for wave in 0..5u64 {
        let jobs: Vec<SimJob<u64>> = (0..600u64)
            .map(|i| point(campaign_key(wave * 600 + i, 0xC0DE, 0), wave * 600 + i))
            .collect();
        let report = svc.run(jobs);
        assert_eq!(report.cache_hits, 0, "wave {wave}: keys are all distinct");
        assert_eq!(report.cache_misses, 600);
        assert!(
            svc.cached_results() <= CAP,
            "cache grew past its cap after wave {wave}: {}",
            svc.cached_results()
        );
    }
    assert_eq!(svc.cache_evictions(), (3000 - CAP) as u64);

    // A fresh tail wave smaller than the cap is fully retained: the same
    // keys resubmitted with poisoned closures must answer from memory
    // with their original values.
    let tail: Vec<SimJob<u64>> = (0..200u64)
        .map(|i| point(campaign_key(0xAAAA_0000 + i, 0xC0DE, 0), 5000 + i))
        .collect();
    assert_eq!(svc.run(tail).cache_misses, 200);
    let poisoned: Vec<SimJob<u64>> =
        (0..200u64)
            .map(|i| {
                SimJob::new(format!("poison {i}"), move || Ok(u64::MAX))
                    .with_cache_key(campaign_key(0xAAAA_0000 + i, 0xC0DE, 0))
            })
            .collect();
    let report = svc.run(poisoned);
    assert_eq!(report.cache_hits, 200, "recent keys must all hit");
    let values = report.unwrap_all();
    assert!(
        values
            .iter()
            .enumerate()
            .all(|(i, &v)| v == 5000 + i as u64),
        "a poisoned (stale) value was served: {values:?}"
    );

    // Wave-0 keys were evicted thousands of insertions ago.
    let ancient: Vec<SimJob<u64>> = (0..200u64)
        .map(|i| point(campaign_key(i, 0xC0DE, 0), 9000 + i))
        .collect();
    assert_eq!(svc.run(ancient).cache_hits, 0, "evicted keys must not hit");
}

/// The campaign cache keeps the same entries whatever order a
/// submission's jobs finish in: results enter the cache in submission
/// order once the pool returns. A keyed campaign larger than the cap,
/// whose early jobs run longer than its late ones, leaves exactly its
/// last `CAP` jobs, oldest first, on 1, 2 and 4 workers. The sleeps only
/// let late jobs finish first, which a cache filled in completion order
/// would show; the assertions hold under any timing.
#[test]
fn campaign_cache_keeps_the_last_jobs_in_submission_order() {
    const JOBS: u64 = 8;
    const CAP: usize = 3;
    let key = |i: u64| campaign_key(0x0D0E, 0x5EED, i);
    let slow_first = |i: u64| -> SimJob<u64> {
        SimJob::new(format!("job {i}"), move || {
            std::thread::sleep(std::time::Duration::from_millis(2 * (JOBS - i)));
            Ok(i)
        })
        .with_cache_key(key(i))
    };
    let poisoned =
        |i: u64| SimJob::new(format!("poison {i}"), move || Ok(u64::MAX)).with_cache_key(key(i));
    for workers in [1, 2, 4] {
        let svc = SweepService::new(workers).with_cache_capacity(CAP);
        let first = svc.run((0..JOBS).map(slow_first).collect());
        assert_eq!(first.cache_evictions, JOBS - CAP as u64);
        assert_eq!(svc.cached_results(), CAP);

        // A resubmission answers exactly the last CAP jobs from memory,
        // with their original values.
        let again = svc.run((0..JOBS).map(poisoned).collect());
        let memoized: Vec<u64> = again
            .jobs
            .iter()
            .filter(|j| j.memoized)
            .map(|j| *j.outcome.as_ref().expect("a hit is a value"))
            .collect();
        let survivors: Vec<u64> = (JOBS - CAP as u64..JOBS).collect();
        assert_eq!(memoized, survivors, "{workers} workers");

        // They entered in submission order: a fresh cache of the same
        // campaign, then one new key, evicts the oldest survivor.
        let svc = SweepService::new(workers).with_cache_capacity(CAP);
        svc.run((0..JOBS).map(slow_first).collect());
        assert_eq!(svc.run(vec![poisoned(JOBS)]).cache_evictions, 1);
        let after = svc.run(survivors.iter().map(|&i| poisoned(i)).collect());
        let memo: Vec<bool> = after.jobs.iter().map(|j| j.memoized).collect();
        assert_eq!(memo, [false, true, true], "{workers} workers");
    }
}

/// Campaign keys derived from `ElasticIr::structural_hash` can never
/// serve a stale result across an IR mutation: a transforming pass
/// changes the hash — and therefore the key — so the mutated design's
/// point misses and re-executes, while the unmutated design still hits.
#[test]
fn ir_mutation_changes_the_key_so_no_stale_hit() {
    use mt_elastic::core::ArbiterKind;
    use mt_elastic::synth::{ElasticIr, IrNodeKind, MebSubstitution, Pass};

    fn chain(kind: MebKind) -> ElasticIr<u64> {
        let mut ir = ElasticIr::<u64>::new();
        let a = ir.channel_with_width("a", 2, 8);
        let b = ir.channel_with_width("b", 2, 8);
        ir.add("src", IrNodeKind::Source, vec![], vec![a]);
        ir.add(
            "buf",
            IrNodeKind::Meb {
                kind,
                arbiter: ArbiterKind::RoundRobin,
                initial: Vec::new(),
                auto: true,
            },
            vec![a],
            vec![b],
        );
        ir.add(
            "snk",
            IrNodeKind::Sink {
                capture: false,
                policy: ReadyPolicy::Always,
            },
            vec![b],
            vec![],
        );
        ir
    }

    let svc = SweepService::new(1);
    // The job's "result" is the buffer microarchitecture it was built
    // from, so a stale cache entry is immediately visible in the value.
    let probe = |ir: &ElasticIr<u64>, label: &str| -> (u64, SimJob<String>) {
        let key = campaign_key(ir.structural_hash(), 0x5EED, 0);
        let tag = format!("{:?}", ir.node(ir.node_named("buf").unwrap()).tag());
        let job = SimJob::new(label.to_string(), move || Ok(tag)).with_cache_key(key);
        (key, job)
    };

    let mut ir = chain(MebKind::Full);
    let (key_before, job) = probe(&ir, "before");
    let first = svc.run(vec![job]).unwrap_all();
    assert!(first[0].contains("Full"));

    // Identical design resubmitted: served from memory.
    let (_, job) = probe(&ir, "again");
    assert_eq!(svc.run(vec![job]).cache_hits, 1);

    // Mutate the design: the key must change and the point re-execute.
    MebSubstitution::named("buf", MebKind::Fifo { depth: 4 })
        .run(&mut ir)
        .expect("substitute");
    let (key_after, job) = probe(&ir, "after");
    assert_ne!(
        key_before, key_after,
        "mutation must change the campaign key"
    );
    let report = svc.run(vec![job]);
    assert_eq!(
        report.cache_hits, 0,
        "stale hit served across an IR mutation"
    );
    let values = report.unwrap_all();
    assert!(
        values[0].contains("Fifo"),
        "stale pre-mutation result returned: {}",
        values[0]
    );
}

/// Campaign keys are compared across processes and builds, so the
/// structural hashes of the shipped designs are pinned: the GCD loop of
/// `design_lint`, the 16-stage MD5 loop and the processor running memcpy
/// on four threads.
#[test]
fn structural_hashes_of_the_shipped_designs_are_pinned() {
    use mt_elastic::md5::Md5Circuit;
    use mt_elastic::proc::{assemble, programs, Cpu, CpuConfig};

    let memcpy = assemble(programs::MEMCPY).expect("memcpy assembles");
    let hashes = [
        elastic_bench::gcd_ir(4).structural_hash(),
        Md5Circuit::ir(8, 8, 16).ir.structural_hash(),
        Cpu::ir(&CpuConfig::new(4), memcpy, vec![0; 4])
            .ir
            .structural_hash(),
    ];
    assert_eq!(
        hashes,
        [
            0xfd29_e887_04d7_04c5,
            0x8b88_4c43_e28d_2c57,
            0xe7c0_92e5_6e31_dd03
        ]
    );
}
