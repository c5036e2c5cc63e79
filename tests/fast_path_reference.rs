//! Reference-model tests for the word-level fast paths.
//!
//! The three MEBs, `Source`, `Sink`, `VarLatency` and the eager `Fork`
//! evaluate through word-level `eval`s that cache a per-cycle word
//! (upstream ready, released heads, the ready-policy word, completed
//! heads) or build each handshake word in one pass, and commit it with one
//! masked write. `Barrier`, `Branch` and `Transform` gate or copy whole
//! handshake words, and the pass-through units forward data words that
//! are cloned only when they change. Each primitive keeps its per-thread
//! evaluation as `eval_reference`. Here a circuit built from the fast
//! primitives is run next to the same circuit whose primitives are wrapped
//! in [`Reference`], so that their `eval` calls `eval_reference`. The
//! bars, under both settle modes:
//!
//! 1. identical per-thread sink captures (digests, for the MD5 loop);
//! 2. identical `Component::eval` counts and settle-round counts — the
//!    fast paths save work inside an evaluation, never evaluations;
//! 3. on random topologies (`common::random_net`), bars 1 and 2 hold
//!    under two shuffled builder insertion orders. The kernel's own bars
//!    on those nets are in `tests/ranked_schedule.rs`.
//!
//! Beyond the random topologies, deterministic cases cover every way the
//! state behind a cached word changes between steps: timed `push_at`
//! releases, a push into the past after an idle stretch,
//! `Sink::set_policy` between runs (also on a 65-thread sink that mixes
//! every policy kind), reconfiguration after a deadlock
//! error and `Circuit::reset` loops, on every MEB kind. The MD5 loop runs on 1–8 threads and 1–16 round
//! stages, and the barrier's `open` word is checked over random arrival
//! schedules, participant masks and reset loops.

mod common;

use common::random_net::{meb, meb_kind_strategy, observe, run_net, NetParams, Obs};
use common::{boxed, wrap, Model};
use mt_elastic::core::{Barrier, BarrierState, Branch, Fork, MebKind, Merge, ReducedMeb};
use mt_elastic::md5::{algo, Md5Circuit, Md5Token};
use mt_elastic::sim::{
    Circuit, CircuitBuilder, Component, EvalMode, KernelStats, ReadyPolicy, Sink, Source, Tagged,
    Transform,
};
use proptest::prelude::*;

fn part<'a, C: Component<Tagged> + 'static>(c: &'a Circuit<Tagged>, name: &str) -> &'a C {
    c.get::<C>(name).expect("component exists")
}

fn part_mut<'a, C: Component<Tagged> + 'static>(
    c: &'a mut Circuit<Tagged>,
    name: &str,
) -> &'a mut C {
    c.get_mut::<C>(name).expect("component exists")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The fast paths match the reference model on random topologies,
    /// under both settle modes and two shuffled insertion orders. The
    /// kernel bars on the same nets (event-driven against the oracle,
    /// insertion-order independence, conservation on the diamond) are
    /// `ranked_schedule.rs`'s `schedules_and_oracle_agree_on_random_topologies`.
    #[test]
    fn fast_paths_match_the_reference_model(
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
        for order in [order_seed, order_seed ^ 0xDEAD_BEEF] {
            for mode in [EvalMode::EventDriven, EvalMode::Exhaustive] {
                let fast = run_net(&p, Model::Fast, mode, order);
                let reference = run_net(&p, Model::Reference, mode, order);
                prop_assert_eq!(
                    &fast, &reference,
                    "order {:#x}/{:?}: fast paths diverged from the reference model", order, mode
                );
            }
        }
    }
}

/// Per-sink, per-thread `(cycle, seq)` captures, eval count and
/// settle-round count.
type RoutedObs = (Vec<Vec<Vec<(u64, u64)>>>, u64, u64);

/// Source → reduced MEB → routing fork over three outputs → three
/// randomly stalling sinks. Each token's route is a seeded non-empty
/// mask, so tokens go to one, two or all three outputs, and the stalls
/// leave partial deliveries latched in the fork's done bits. The MEB's
/// ready-aware selection puts the fork's input on a feedback channel, as
/// in the processor's router.
fn run_routed(threads: usize, tokens: u64, seed: u64, model: Model, mode: EvalMode) -> RoutedObs {
    let mut b = CircuitBuilder::<Tagged>::new();
    let src_ch = b.channel("src", threads);
    let work = b.channel("work", threads);
    let outs = b.channels("out", threads, 3);
    let mut src = Source::new("src", src_ch, threads);
    for t in 0..threads {
        src.extend(t, (0..tokens).map(|i| Tagged::new(t, i, i)));
    }
    b.add_boxed(boxed(src, model));
    b.add_boxed(meb(MebKind::Reduced, "head", src_ch, work, threads, model));
    let route = move |tok: &Tagged| {
        let h = (tok.seq ^ (tok.thread as u64) << 32 ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        1 + (h >> 61) % 7
    };
    b.add_boxed(boxed(
        Fork::new("route", work, outs.clone(), threads).with_route(route),
        model,
    ));
    for (o, &ch) in outs.iter().enumerate() {
        let policy = ReadyPolicy::Random {
            p: 0.4 + 0.2 * o as f64,
            seed: seed ^ o as u64,
        };
        b.add_boxed(boxed(
            Sink::with_capture(format!("s{o}"), ch, threads, policy),
            model,
        ));
    }
    let mut c = b.build().expect("routed fork is well-formed");
    c.set_eval_mode(mode);
    c.run(40 + tokens * threads as u64 * 8).expect("clean");
    let captures = (0..3)
        .map(|o| {
            let snk: &Sink<Tagged> = part(&c, &format!("s{o}"));
            (0..threads)
                .map(|t| {
                    snk.captured(t)
                        .iter()
                        .map(|(cy, tok)| (*cy, tok.seq))
                        .collect()
                })
                .collect()
        })
        .collect();
    let k = c.stats().kernel();
    (captures, k.component_evals, k.settle_rounds)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The word-level routing fork matches its reference under random
    /// routes and partial deliveries, in both settle modes.
    #[test]
    fn routed_fork_matches_the_reference(
        threads in 1usize..5,
        tokens in 1u64..10,
        seed in any::<u64>(),
    ) {
        for mode in [EvalMode::EventDriven, EvalMode::Exhaustive] {
            let fast = run_routed(threads, tokens, seed, Model::Fast, mode);
            let reference = run_routed(threads, tokens, seed, Model::Reference, mode);
            prop_assert_eq!(&fast, &reference, "{:?}: routed fork diverged", mode);
        }
    }
}

/// Deterministic S = 65 word-boundary case: every `ThreadMask` in the net
/// spills past the inline word, exercising the multi-word paths of the
/// word-level commits, the rotation scans and the occupancy and full-mask
/// complements of every MEB kind.
#[test]
fn fast_paths_match_the_reference_at_the_word_boundary() {
    for kind in [MebKind::Reduced, MebKind::Full, MebKind::Fifo { depth: 2 }] {
        let p = NetParams {
            threads: 65,
            tokens: 3,
            kind,
            diamond: false,
            tail_stages: 2,
            p_ready: 0.55,
            seed: 0x65,
        };
        for order in [0x5eed, 0x5eed ^ 0xDEAD_BEEF] {
            for mode in [EvalMode::EventDriven, EvalMode::Exhaustive] {
                let fast = run_net(&p, Model::Fast, mode, order);
                let reference = run_net(&p, Model::Reference, mode, order);
                assert_eq!(
                    fast, reference,
                    "{kind}/order {order:#x}/{mode:?}: S=65 fast paths diverged from the reference"
                );
            }
        }
    }
}

/// Source → `stages` MEBs of `kind` → capturing sink, with empty queues
/// and an always-ready sink; the scenarios below load and reconfigure it.
fn pipeline(
    kind: MebKind,
    threads: usize,
    stages: usize,
    model: Model,
    mode: EvalMode,
) -> Circuit<Tagged> {
    let mut b = CircuitBuilder::<Tagged>::new();
    let chs = b.channels("ch", threads, stages + 1);
    b.add_boxed(boxed(Source::new("src", chs[0], threads), model));
    for s in 0..stages {
        b.add_boxed(meb(
            kind,
            format!("meb{s}"),
            chs[s],
            chs[s + 1],
            threads,
            model,
        ));
    }
    b.add_boxed(boxed(
        Sink::with_capture("snk", chs[stages], threads, ReadyPolicy::Always),
        model,
    ));
    let mut c = b.build().expect("pipeline is well-formed");
    c.set_eval_mode(mode);
    c
}

/// Runs `scenario` on the fast and the reference pipeline of every MEB
/// kind under both settle modes and asserts every observation it returns
/// is identical.
fn check<R: PartialEq + std::fmt::Debug>(
    threads: usize,
    stages: usize,
    scenario: impl Fn(&mut Circuit<Tagged>) -> R,
) {
    for kind in [MebKind::Reduced, MebKind::Full, MebKind::Fifo { depth: 3 }] {
        for mode in [EvalMode::EventDriven, EvalMode::Exhaustive] {
            let fast = scenario(&mut pipeline(kind, threads, stages, Model::Fast, mode));
            let reference = scenario(&mut pipeline(kind, threads, stages, Model::Reference, mode));
            assert_eq!(
                fast, reference,
                "{kind}/{mode:?}: fast paths diverged from the reference"
            );
        }
    }
}

fn src(c: &mut Circuit<Tagged>) -> &mut Source<Tagged> {
    part_mut(c, "src")
}

fn snk(c: &mut Circuit<Tagged>) -> &mut Sink<Tagged> {
    part_mut(c, "snk")
}

/// Timed releases keep `Source`'s `timed > 0` head scan live: tokens on
/// several threads with staggered, partly equal release cycles, some
/// behind untimed tokens, under a stalling sink.
#[test]
fn timed_source_releases_match_the_reference() {
    check(3, 2, |c| {
        for t in 0..3u64 {
            let s = src(c);
            s.push(t as usize, Tagged::new(t as usize, 0, 0));
            for i in 1..6u64 {
                s.push_at(t as usize, 3 * i + t, Tagged::new(t as usize, i, i));
            }
        }
        snk(c).set_policy(
            1,
            ReadyPolicy::Period {
                on: 1,
                off: 2,
                phase: 0,
            },
        );
        c.run(80).expect("clean");
        observe(c)
    });
}

/// A push whose release cycle is already in the past, issued after an
/// idle stretch of the run: the released-head word must be rebuilt for
/// the pushed thread on the next stepped cycle.
#[test]
fn push_into_the_past_after_fast_forward_matches_the_reference() {
    check(2, 3, |c| {
        src(c).push(0, Tagged::new(0, 0, 0));
        src(c).push_at(1, 5, Tagged::new(1, 0, 0));
        c.run(60).expect("clean");
        src(c).push_at(0, 7, Tagged::new(0, 1, 1));
        src(c).push_at(1, 3, Tagged::new(1, 1, 1));
        src(c).push_at(1, 70, Tagged::new(1, 2, 2));
        c.run(30).expect("clean");
        (observe(c), c.cycle())
    });
}

/// Reconfiguring a sink's ready policy between runs.
#[test]
fn sink_set_policy_between_runs_matches_the_reference() {
    check(4, 2, |c| {
        for t in 0..4 {
            src(c).extend(t, (0..40).map(|i| Tagged::new(t, i, i)));
        }
        let mut obs = Vec::new();
        let policies = [
            ReadyPolicy::Never,
            ReadyPolicy::Random { p: 0.4, seed: 9 },
            ReadyPolicy::StallWindow { from: 0, to: 200 },
            ReadyPolicy::Always,
        ];
        for (round, policy) in policies.iter().enumerate() {
            snk(c).set_policy(round % 4, policy.clone());
            snk(c).set_policy((round + 1) % 4, ReadyPolicy::Never);
            c.run(25).expect("clean");
            obs.push(observe(c));
        }
        obs
    });
}

/// A 65-thread sink mixing all five policy kinds, so both words of its
/// lowered policy word hold fixed, hashed and per-cycle threads, with
/// `Random` probabilities that lower to a limit, to a fixed-on bit
/// (`p > 1`) and to a fixed-off bit (`p = 0`, NaN). Between runs
/// `set_policy` moves a third of the threads to another class.
#[test]
fn mixed_sink_policies_across_the_word_boundary_match_the_reference() {
    const THREADS: usize = 65;
    let policy = |t: usize, round: usize| {
        let k = t as u64;
        match (t + round) % 5 {
            0 => ReadyPolicy::Always,
            1 => ReadyPolicy::Never,
            2 => ReadyPolicy::StallWindow {
                from: 3 + k % 7,
                to: 12 + k % 11,
            },
            3 => ReadyPolicy::Period {
                on: 1 + k % 2,
                off: 1 + k % 3,
                phase: k,
            },
            _ => ReadyPolicy::Random {
                p: [0.45, 0.7, 1.0, 1.5, 0.0, f64::NAN][(t + round) % 6],
                seed: 0x5EED ^ k,
            },
        }
    };
    check(THREADS, 2, |c| {
        for t in 0..THREADS {
            src(c).extend(t, (0..12).map(|i| Tagged::new(t, i, i)));
        }
        let mut obs = Vec::new();
        for round in 0..4 {
            for t in (0..THREADS).filter(|t| round == 0 || t % 3 == round % 3) {
                snk(c).set_policy(t, policy(t, round));
            }
            c.run(60).expect("clean");
            obs.push(observe(c));
        }
        obs
    });
}

/// The deadlock watchdog returns before the clock edge, so the next run
/// re-evaluates the *same* cycle, after `set_policy` and `push` have
/// changed what the words cached before the error were built from. The
/// re-step's first round must rebuild them.
#[test]
fn reconfiguring_after_a_deadlock_matches_the_reference() {
    check(2, 2, |c| {
        src(c).extend(0, (0..10).map(|i| Tagged::new(0, i, i)));
        snk(c).set_policy(0, ReadyPolicy::Never);
        let mut obs = Vec::new();
        for round in 0..2 {
            c.set_deadlock_watchdog(Some(5));
            let stuck = c.run(50).expect_err("the never-ready thread deadlocks");
            c.set_deadlock_watchdog(None);
            obs.push((format!("{stuck:?}"), c.cycle(), observe(c)));
            if round == 0 {
                // Thread 1's queue was empty when the released-head word
                // was built.
                src(c).push(1, Tagged::new(1, 0, 0));
                c.run(10).expect("clean");
            } else {
                snk(c).set_policy(0, ReadyPolicy::Always);
                c.run(30).expect("clean");
            }
            obs.push((String::new(), c.cycle(), observe(c)));
        }
        obs
    });
}

/// `Circuit::reset` loops: the clock restarts at cycle 0 and the channel
/// signals are cleared, so the first round after a reset must rebuild
/// every cached word. The one-cycle runs leave words built at cycle 0,
/// exactly the cycle the next run starts at.
#[test]
fn reset_loops_match_the_reference() {
    check(3, 2, |c| {
        let mut obs = Vec::new();
        for round in 0..4u64 {
            c.reset().expect("all primitives reset");
            if round % 2 == 1 {
                src(c).push(0, Tagged::new(0, 0, 0));
                c.run(1).expect("clean");
                obs.push(observe(c));
                c.reset().expect("all primitives reset");
            }
            for t in 0..3usize {
                let s = src(c);
                s.extend(t, (0..(4 + round)).map(|i| Tagged::new(t, i, i)));
                s.push_at(t, 6 + round, Tagged::new(t, 100, 100));
            }
            snk(c).set_policy(
                (round % 3) as usize,
                ReadyPolicy::Random {
                    p: 0.5,
                    seed: round,
                },
            );
            c.run(40).expect("clean");
            obs.push(observe(c));
        }
        obs
    });
}

/// Digests, cycles and kernel counters of one MD5 batch.
type Md5Obs = (Vec<[u8; 16]>, u64, KernelStats);

/// Hashes one message per thread on `Md5Circuit::with_stages`, with every
/// primitive of the loop (feeder, merge, MEBs, round stages, barrier,
/// branch, sink) running the `model` evaluation. The messages span one to
/// three blocks, so phantom equalisation and multi-wave chaining run.
fn run_md5(threads: usize, stages: usize, mode: EvalMode, model: Model) -> Md5Obs {
    let messages: Vec<Vec<u8>> = (0..threads)
        .map(|t| {
            (0..(t * 29 + 11) % 150)
                .map(|i| (i * 7 + t) as u8)
                .collect()
        })
        .collect();
    let refs: Vec<&[u8]> = messages.iter().map(Vec::as_slice).collect();
    let mut md5 = Md5Circuit::with_stages(threads, threads, MebKind::Reduced, stages);
    md5.circuit.set_eval_mode(mode);
    if model == Model::Reference {
        let c = &mut md5.circuit;
        wrap::<Md5Token, Source<_>>(c, "feeder");
        wrap::<Md5Token, Merge<_>>(c, "entry");
        wrap::<Md5Token, ReducedMeb<_>>(c, "meb_in");
        for k in 0..stages {
            wrap::<Md5Token, Transform<_>>(c, &format!("round_stage{k}"));
            if k + 1 < stages {
                wrap::<Md5Token, ReducedMeb<_>>(c, &format!("meb_stage{k}"));
            }
        }
        wrap::<Md5Token, ReducedMeb<_>>(c, "meb_out");
        wrap::<Md5Token, Barrier<_>>(c, "barrier");
        wrap::<Md5Token, Branch<_>>(c, "exit");
        wrap::<Md5Token, Sink<_>>(c, "out");
    }
    let (digests, cycles, kernel) = md5.hash(&refs).expect("the loop hashes");
    for (got, m) in digests.iter().zip(&messages) {
        assert_eq!(*got, algo::md5(m), "{threads} threads, {stages} stages");
    }
    (digests, cycles, kernel)
}

/// The MD5 loop — barrier, branch, round transforms and merge included —
/// gives identical digests, cycles and kernel counters (evals, rounds,
/// per-op evals) under its fast and its reference evaluations, and the
/// same digests and cycles under both settle modes.
#[test]
fn md5_loop_matches_the_reference() {
    for threads in [1usize, 2, 4, 8] {
        for stages in [1usize, 2, 4, 16] {
            let mut per_mode = Vec::new();
            for mode in [EvalMode::EventDriven, EvalMode::Exhaustive] {
                let fast = run_md5(threads, stages, mode, Model::Fast);
                let reference = run_md5(threads, stages, mode, Model::Reference);
                assert_eq!(
                    fast, reference,
                    "{threads} threads, {stages} stages, {mode:?}: MD5 fast paths diverged"
                );
                per_mode.push((fast.0, fast.1));
            }
            assert_eq!(
                per_mode[0], per_mode[1],
                "{threads} threads, {stages} stages: the event-driven kernel's digests or \
                 cycles diverged from the oracle's"
            );
        }
    }
}

/// Sink captures, kernel counters and the barrier's releases and FSM
/// states after each round of a barrier scenario.
type BarrierObs = Vec<(Obs, u64, Vec<BarrierState>)>;

/// One run of a barrier scenario: the `(thread, release cycle)` arrivals
/// it pushes, the sink's ready policy and the cycles it runs.
struct Round {
    arrivals: Vec<(usize, u64)>,
    sink: ReadyPolicy,
    cycles: u64,
}

/// Source → reduced MEB → barrier over `participants` → sink. Each round
/// pushes its arrivals, sets the sink policy, runs and records what it
/// saw; a `Circuit::reset` comes before every round but the first.
fn run_barrier(
    participants: &[bool],
    rounds: &[Round],
    model: Model,
    mode: EvalMode,
) -> BarrierObs {
    let threads = participants.len();
    let mut b = CircuitBuilder::<Tagged>::new();
    let x = b.channel("x", threads);
    let m = b.channel("m", threads);
    let y = b.channel("y", threads);
    b.add_boxed(boxed(Source::new("src", x, threads), model));
    b.add_boxed(meb(MebKind::Reduced, "meb", x, m, threads, model));
    b.add_boxed(boxed(
        Barrier::new("bar", m, y, threads).with_participants(participants.to_vec()),
        model,
    ));
    b.add_boxed(boxed(
        Sink::with_capture("snk", y, threads, ReadyPolicy::Always),
        model,
    ));
    let mut c = b.build().expect("barrier net is well-formed");
    c.set_eval_mode(mode);
    let mut obs = Vec::new();
    for (i, round) in rounds.iter().enumerate() {
        if i > 0 {
            c.reset().expect("all primitives reset");
        }
        let mut seq = vec![0u64; threads];
        for &(t, at) in &round.arrivals {
            let t = t % threads;
            part_mut::<Source<Tagged>>(&mut c, "src").push_at(t, at, Tagged::new(t, seq[t], at));
            seq[t] += 1;
        }
        for t in 0..threads {
            part_mut::<Sink<Tagged>>(&mut c, "snk").set_policy(t, round.sink.clone());
        }
        c.run(round.cycles).expect("clean");
        let bar: &Barrier<Tagged> = part(&c, "bar");
        let states = (0..threads).map(|t| bar.thread_state(t)).collect();
        obs.push((observe(&c), bar.releases(), states));
    }
    obs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The word-level barrier matches its reference over random arrival
    /// schedules, participant masks, sink stalls and `reset` loops (resets
    /// land mid-phase, with threads waiting or released).
    #[test]
    fn barrier_matches_the_reference(
        threads in 1usize..6,
        mask in any::<u64>(),
        arrivals in prop::collection::vec((0usize..6, 0u64..30), 1..20),
        cycles in prop::collection::vec(1u64..60, 1..4),
        p_ready in 0.2f64..1.0,
        seed in any::<u64>(),
    ) {
        let mut participants: Vec<bool> = (0..threads).map(|t| mask >> t & 1 != 0).collect();
        if !participants.contains(&true) {
            participants[(mask as usize) % threads] = true;
        }
        let rounds: Vec<Round> = cycles
            .iter()
            .enumerate()
            .map(|(i, &cycles)| Round {
                arrivals: arrivals.clone(),
                sink: ReadyPolicy::Random { p: p_ready, seed: seed ^ i as u64 },
                cycles,
            })
            .collect();
        for mode in [EvalMode::EventDriven, EvalMode::Exhaustive] {
            let fast = run_barrier(&participants, &rounds, Model::Fast, mode);
            let reference = run_barrier(&participants, &rounds, Model::Reference, mode);
            prop_assert_eq!(&fast, &reference, "{:?}: barrier diverged", mode);
        }
    }
}

/// A 65-thread barrier, so the `open` word and the gated `valid`/`ready`
/// commits span two mask words: participants on both sides of the word
/// boundary, bypass threads among them, sink stalls and a reset between
/// two phases.
#[test]
fn barrier_matches_the_reference_at_the_word_boundary() {
    let participants: Vec<bool> = (0..65).map(|t| t % 3 != 1).collect();
    let arrivals: Vec<(usize, u64)> = (0..65)
        .rev()
        .flat_map(|t| [(t, (t as u64 * 7) % 23), (t, 30 + (t as u64 * 5) % 17)])
        .collect();
    let rounds = [
        Round {
            arrivals: arrivals.clone(),
            sink: ReadyPolicy::Random { p: 0.6, seed: 65 },
            cycles: 150,
        },
        Round {
            arrivals,
            sink: ReadyPolicy::Always,
            cycles: 200,
        },
    ];
    for mode in [EvalMode::EventDriven, EvalMode::Exhaustive] {
        let fast = run_barrier(&participants, &rounds, Model::Fast, mode);
        let reference = run_barrier(&participants, &rounds, Model::Reference, mode);
        assert_eq!(fast, reference, "{mode:?}: 65-thread barrier diverged");
        assert!(
            fast.iter().all(|(_, releases, _)| *releases >= 1),
            "every round must release at least one phase"
        );
    }
}

/// A reset while released threads still hold the barrier open: after it,
/// a lone participant's arrival must wait for the others again.
#[test]
fn barrier_reset_while_released_matches_the_reference() {
    // Both participants arrive and are released, but a never-ready sink
    // keeps them FREE until the reset. Afterwards only thread 0 arrives,
    // at an always-ready sink: it must not pass.
    let rounds = [
        Round {
            arrivals: vec![(0, 0), (1, 1), (2, 2)],
            sink: ReadyPolicy::Never,
            cycles: 12,
        },
        Round {
            arrivals: vec![(0, 0), (2, 1)],
            sink: ReadyPolicy::Always,
            cycles: 30,
        },
    ];
    for mode in [EvalMode::EventDriven, EvalMode::Exhaustive] {
        let fast = run_barrier(&[true, true, false], &rounds, Model::Fast, mode);
        let reference = run_barrier(&[true, true, false], &rounds, Model::Reference, mode);
        assert_eq!(fast, reference, "{mode:?}: barrier diverged across a reset");
        assert_eq!(
            fast[0].2,
            [BarrierState::Free, BarrierState::Free, BarrierState::Idle],
            "the reset must land while both participants are released"
        );
        let captured = &fast[1].0 .0;
        assert!(
            captured[0].is_empty() && captured[2].len() == 1,
            "only the bypass thread passes after the reset: {captured:?}"
        );
    }
}
