//! Tests for the build-time levelized rank schedule.
//!
//! The rank sort breaks ties by builder insertion index, so shuffling the
//! insertion order permutes the evaluation order inside every rank level.
//! Two equivalence bars, in decreasing strength:
//!
//! 1. **Kernel soundness** — for every shuffled builder insertion order,
//!    the event-driven dirty-set kernel must match the exhaustive oracle
//!    byte for byte. Holds unconditionally.
//! 2. **Order independence** — on *signal-acyclic* nets every eval is
//!    a pure function of the handshake state, the cycle's fixed point is
//!    unique, and the captures are identical across insertion orders
//!    (the purity argument of `docs/kernel.md`).
//!    The fork/join diamond is deliberately *excluded* from this bar:
//!    the Join's valid→ready coupling closes a (damped) signal cycle
//!    through the two variable-latency arms, and on feedback channels
//!    the anti-swap hysteresis legitimately picks an order-dependent —
//!    but individually valid — fixed point. There the weaker guarantee
//!    is token conservation per thread.

use mt_elastic::core::{
    ArbiterKind, Fork, ForkMode, Join, MebKind, PipelineConfig, PipelineHarness,
};
use mt_elastic::sim::{
    CircuitBuilder, Component, EvalMode, KernelStats, LatencyModel, ReadyPolicy, Sink, Source,
    Tagged, VarLatency,
};
use proptest::prelude::*;

fn meb_kind_strategy() -> impl Strategy<Value = MebKind> {
    prop_oneof![
        Just(MebKind::Full),
        Just(MebKind::Reduced),
        (2usize..4).prop_map(|depth| MebKind::Fifo { depth }),
    ]
}

/// Deterministic Fisher–Yates (LCG-driven) over the builder insertion
/// order, so the same `order_seed` always yields the same permutation.
fn shuffle<T>(items: &mut [T], mut seed: u64) {
    for i in (1..items.len()).rev() {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (seed >> 33) as usize % (i + 1);
        items.swap(i, j);
    }
}

/// Randomized topology: source → MEB → (fork/join diamond over skewed
/// variable-latency arms, or a single variable-latency unit) → a short
/// MEB chain → randomly-stalling sink.
#[derive(Clone, Debug)]
struct NetParams {
    threads: usize,
    tokens: u64,
    kind: MebKind,
    diamond: bool,
    tail_stages: usize,
    p_ready: f64,
    seed: u64,
}

/// Builds and runs the network, adding components in the permutation
/// selected by `order_seed`, and returns the per-thread captures.
fn run_net(p: &NetParams, mode: EvalMode, order_seed: u64) -> Vec<Vec<(u64, u64)>> {
    let mut b = CircuitBuilder::<Tagged>::new();
    let src_ch = b.channel("src", p.threads);
    let work = b.channel("work", p.threads);
    let mid = b.channel("mid", p.threads);
    let tail = b.channels("tail", p.threads, p.tail_stages + 1);

    let mut comps: Vec<Box<dyn Component<Tagged>>> = Vec::new();
    let mut src = Source::new("src", src_ch, p.threads);
    for t in 0..p.threads {
        src.extend(t, (0..p.tokens).map(|i| Tagged::new(t, i, i)));
    }
    comps.push(Box::new(src));
    comps.push(p.kind.build_with::<Tagged>(
        "head",
        src_ch,
        work,
        p.threads,
        ArbiterKind::RoundRobin,
    ));
    if p.diamond {
        let arm_a = b.channel("arm_a", p.threads);
        let arm_b = b.channel("arm_b", p.threads);
        let done_a = b.channel("done_a", p.threads);
        let done_b = b.channel("done_b", p.threads);
        comps.push(Box::new(Fork::new(
            "split",
            work,
            vec![arm_a, arm_b],
            p.threads,
            ForkMode::Eager,
        )));
        comps.push(Box::new(VarLatency::new(
            "ua",
            arm_a,
            done_a,
            p.threads,
            2,
            LatencyModel::Uniform {
                min: 1,
                max: 3,
                seed: p.seed,
            },
        )));
        comps.push(Box::new(VarLatency::new(
            "ub",
            arm_b,
            done_b,
            p.threads,
            2,
            LatencyModel::Uniform {
                min: 1,
                max: 2,
                seed: p.seed ^ 7,
            },
        )));
        comps.push(Box::new(Join::new(
            "pair",
            vec![done_a, done_b],
            mid,
            p.threads,
            |ins: &[&Tagged]| ins[0].clone(),
        )));
    } else {
        comps.push(Box::new(VarLatency::new(
            "u",
            work,
            mid,
            p.threads,
            2,
            LatencyModel::Uniform {
                min: 1,
                max: 3,
                seed: p.seed,
            },
        )));
    }
    comps.push(p.kind.build_with::<Tagged>(
        "bridge",
        mid,
        tail[0],
        p.threads,
        ArbiterKind::RoundRobin,
    ));
    for i in 0..p.tail_stages {
        comps.push(p.kind.build_with::<Tagged>(
            format!("tail{i}"),
            tail[i],
            tail[i + 1],
            p.threads,
            ArbiterKind::RoundRobin,
        ));
    }
    let out = tail[p.tail_stages];
    comps.push(Box::new(Sink::with_capture(
        "snk",
        out,
        p.threads,
        ReadyPolicy::Random {
            p: p.p_ready,
            seed: p.seed ^ 13,
        },
    )));

    shuffle(&mut comps, order_seed);
    for c in comps {
        b.add_boxed(c);
    }
    let mut circuit = b.build().expect("random acyclic net is well-formed");
    circuit.set_eval_mode(mode);
    circuit.set_deadlock_watchdog(Some(400));
    let expected = p.tokens * p.threads as u64;
    let budget = 400 + expected * 24;
    let done = circuit.run_until(budget, move |c| c.stats().total_transfers(out) >= expected);
    assert!(matches!(done, Ok(true)), "net did not drain: {done:?}");
    let snk: &Sink<Tagged> = circuit.get("snk").expect("sink");
    (0..p.threads)
        .map(|t| {
            snk.captured(t)
                .iter()
                .map(|(c, tok)| (*c, tok.seq))
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Both equivalence bars on random topologies, including shuffled
    /// builder insertion orders.
    #[test]
    fn schedules_and_oracle_agree_on_random_topologies(
        threads in 1usize..4,
        tokens in 1u64..12,
        kind in meb_kind_strategy(),
        diamond in any::<bool>(),
        tail_stages in 0usize..3,
        p_ready in 0.3f64..1.0,
        seed in any::<u64>(),
        order_seed in any::<u64>(),
    ) {
        let p = NetParams { threads, tokens, kind, diamond, tail_stages, p_ready, seed };
        let orders = [order_seed, order_seed ^ 0xDEAD_BEEF];
        let reference = run_net(&p, EvalMode::EventDriven, orders[0]);

        for order in orders {
            // Bar 1: the dirty-set kernel matches the exhaustive oracle
            // under every insertion order, on every topology.
            let fast = run_net(&p, EvalMode::EventDriven, order);
            let oracle = run_net(&p, EvalMode::Exhaustive, order);
            prop_assert_eq!(
                &fast, &oracle,
                "order {:#x}: event-driven kernel diverged from the exhaustive oracle", order
            );
            if diamond {
                // Feedback (damped) signal cycle through the join: the
                // orders may settle on different — individually valid —
                // arbitration orders, but never lose or forge tokens.
                for (t, caps) in fast.iter().enumerate() {
                    let mut seqs: Vec<u64> = caps.iter().map(|&(_, s)| s).collect();
                    seqs.sort_unstable();
                    prop_assert_eq!(&seqs, &(0..tokens).collect::<Vec<_>>(), "thread {}", t);
                }
            } else {
                // Bar 2: signal-acyclic net — the fixed point is unique,
                // so the builder insertion order is behaviourally
                // invisible.
                prop_assert_eq!(
                    &reference, &fast,
                    "builder insertion order {:#x} leaked into behaviour", order
                );
            }
        }
    }
}

/// The S = 8 workload: an 8-thread, 8-stage reduced-MEB pipeline, 64
/// tokens per thread. `backpressured` adds irregular per-thread sink
/// stalls so downstream ready keeps changing.
fn run_pipeline_s8(backpressured: bool, mode: EvalMode) -> (Vec<Vec<(u64, u64)>>, KernelStats) {
    const THREADS: usize = 8;
    const STAGES: usize = 8;
    let mut cfg =
        PipelineConfig::free_flowing(THREADS, STAGES, MebKind::Reduced, 64).with_eval_mode(mode);
    if backpressured {
        for t in 0..THREADS {
            cfg.sink_policies[t] = ReadyPolicy::Random {
                p: 0.35,
                seed: 0xC0FFEE ^ t as u64,
            };
        }
    }
    let mut h = PipelineHarness::build(cfg);
    h.circuit.run(1_500).expect("S = 8 pipeline runs clean");
    let captures = (0..THREADS)
        .map(|t| {
            h.sink()
                .captured(t)
                .iter()
                .map(|(c, tok)| (*c, tok.seq))
                .collect()
        })
        .collect();
    (captures, *h.circuit.stats().kernel())
}

/// Rank order makes the round-1 sweep the fixed point: the S = 8
/// pipeline settles in (essentially) one round every stepped cycle, both
/// straight and under backpressure, where a sink's ready change reaches
/// the upstream stages in the same sweep only if consumers evaluate
/// first; and the dirty-set kernel still matches the exhaustive oracle
/// byte for byte.
#[test]
fn s8_pipeline_settles_in_one_round_and_matches_the_oracle() {
    let (_, straight) = run_pipeline_s8(false, EvalMode::EventDriven);
    let (fast, backpressured) = run_pipeline_s8(true, EvalMode::EventDriven);
    for (label, k) in [("straight", straight), ("backpressured", backpressured)] {
        let mean = k.rounds_per_cycle();
        assert!(
            mean <= 1.05,
            "{label} pipeline settle-round mean {mean:.3} exceeds 1.05"
        );
    }

    let (oracle, _) = run_pipeline_s8(true, EvalMode::Exhaustive);
    assert!(
        fast.iter().all(|caps| !caps.is_empty()),
        "every thread delivers"
    );
    assert_eq!(
        fast, oracle,
        "backpressured captures diverged from the oracle"
    );
}
