//! Reference-model tests for the word-level fast paths.
//!
//! `ReducedMeb`, `Source`, `Sink`, `VarLatency` and the eager `Fork`
//! evaluate through word-level `eval`s that cache a per-cycle word
//! (upstream ready, released heads, the ready-policy word, completed
//! heads) or build each handshake word in one pass, and commit it with one
//! masked write. Each primitive keeps its per-thread evaluation as
//! `eval_reference`. Here a circuit built from the fast primitives is run
//! next to the same circuit whose primitives are wrapped in
//! [`Reference`], so that their `eval` calls `eval_reference`. The bars,
//! under both settle modes:
//!
//! 1. identical per-thread sink captures;
//! 2. identical `Component::eval` counts and settle-round counts — the
//!    fast paths save work inside an evaluation, never evaluations;
//! 3. on random topologies, the event-driven kernel still matches the
//!    exhaustive oracle, and builder insertion order does not leak through
//!    on signal-acyclic nets.
//!
//! Beyond the random topologies, deterministic cases cover the cache
//! invalidation paths: timed `push_at` releases, a push into the past
//! after a quiescent fast-forward, `Sink::set_policy` between runs,
//! reconfiguration after a deadlock error and `Circuit::reset` loops.

use mt_elastic::core::{ArbiterKind, Fork, ForkMode, Join, MebKind, ReducedMeb};
use mt_elastic::sim::{
    impl_as_any, Circuit, CircuitBuilder, CombPath, Component, EvalCtx, EvalMode, FusedOpKind,
    LatencyModel, NetlistNodeKind, NextEvent, Ports, ProtocolError, ReadyPolicy, Sink, SlotView,
    Source, Tagged, TickCtx, VarLatency,
};
use proptest::prelude::*;

/// A primitive with a per-thread reference evaluation.
trait HasReference: Component<Tagged> {
    fn eval_reference(&mut self, ctx: &mut EvalCtx<'_, Tagged>);
}

impl HasReference for ReducedMeb<Tagged> {
    fn eval_reference(&mut self, ctx: &mut EvalCtx<'_, Tagged>) {
        ReducedMeb::eval_reference(self, ctx);
    }
}

impl HasReference for Source<Tagged> {
    fn eval_reference(&mut self, ctx: &mut EvalCtx<'_, Tagged>) {
        Source::eval_reference(self, ctx);
    }
}

impl HasReference for Sink<Tagged> {
    fn eval_reference(&mut self, ctx: &mut EvalCtx<'_, Tagged>) {
        Sink::eval_reference(self, ctx);
    }
}

impl HasReference for Fork<Tagged> {
    fn eval_reference(&mut self, ctx: &mut EvalCtx<'_, Tagged>) {
        Fork::eval_reference(self, ctx);
    }
}

impl HasReference for VarLatency<Tagged> {
    fn eval_reference(&mut self, ctx: &mut EvalCtx<'_, Tagged>) {
        VarLatency::eval_reference(self, ctx);
    }
}

/// Runs the wrapped primitive with its reference `eval`; every other
/// method delegates unchanged.
struct Reference<C>(C);

impl<C: HasReference + 'static> Component<Tagged> for Reference<C> {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn ports(&self) -> Ports {
        self.0.ports()
    }
    fn comb_paths(&self) -> Vec<CombPath> {
        self.0.comb_paths()
    }
    fn eval(&mut self, ctx: &mut EvalCtx<'_, Tagged>) {
        self.0.eval_reference(ctx);
    }
    fn tick(&mut self, ctx: &TickCtx<'_, Tagged>) {
        self.0.tick(ctx);
    }
    fn reset(&mut self) -> bool {
        self.0.reset()
    }
    fn slots(&self) -> Vec<SlotView> {
        self.0.slots()
    }
    fn next_event(&self, now: u64) -> NextEvent {
        self.0.next_event(now)
    }
    fn take_fault(&mut self) -> Option<ProtocolError> {
        self.0.take_fault()
    }
    fn netlist_kind(&self) -> NetlistNodeKind {
        self.0.netlist_kind()
    }
    fn op_kind(&self) -> FusedOpKind {
        self.0.op_kind()
    }
    impl_as_any!();
}

/// Which `eval` the primitives with a fast path run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Model {
    Fast,
    Reference,
}

fn boxed<C: HasReference + 'static>(c: C, model: Model) -> Box<dyn Component<Tagged>> {
    match model {
        Model::Fast => Box::new(c),
        Model::Reference => Box::new(Reference(c)),
    }
}

/// The primitive named `name`, whether or not it is wrapped.
fn part_mut<'a, C: HasReference + 'static>(c: &'a mut Circuit<Tagged>, name: &str) -> &'a mut C {
    if c.get::<C>(name).is_some() {
        return c.get_mut::<C>(name).expect("checked above");
    }
    &mut c.get_mut::<Reference<C>>(name).expect("component exists").0
}

fn part<'a, C: HasReference + 'static>(c: &'a Circuit<Tagged>, name: &str) -> &'a C {
    c.get::<C>(name)
        .or_else(|| c.get::<Reference<C>>(name).map(|r| &r.0))
        .expect("component exists")
}

/// A MEB of `kind`; reduced MEBs honour `model`, the other kinds have no
/// fast path to compare.
fn meb(
    kind: MebKind,
    name: impl Into<String>,
    inp: mt_elastic::sim::ChannelId,
    out: mt_elastic::sim::ChannelId,
    threads: usize,
    model: Model,
) -> Box<dyn Component<Tagged>> {
    match kind {
        MebKind::Reduced => boxed(
            ReducedMeb::new(name, inp, out, threads, ArbiterKind::RoundRobin.build()),
            model,
        ),
        _ => kind.build_with::<Tagged>(name, inp, out, threads, ArbiterKind::RoundRobin),
    }
}

/// Per-thread `(cycle, seq)` captures, eval count and settle-round count.
type Obs = (Vec<Vec<(u64, u64)>>, u64, u64);

fn observe(c: &Circuit<Tagged>) -> Obs {
    let snk: &Sink<Tagged> = part(c, "snk");
    let threads = c.channel_threads(c.channel_ids()[0]);
    let captures = (0..threads)
        .map(|t| {
            snk.captured(t)
                .iter()
                .map(|(cy, tok)| (*cy, tok.seq))
                .collect()
        })
        .collect();
    let k = c.stats().kernel();
    (captures, k.component_evals, k.settle_rounds)
}

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

/// Randomized topology shared with `ranked_schedule.rs`: source → MEB →
/// (fork/join diamond over skewed variable-latency arms, or a single
/// variable-latency unit) → MEB chain → randomly-stalling sink.
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

/// Builds and drains the network, adding components in the permutation
/// selected by `order_seed`.
fn run_net(p: &NetParams, model: Model, mode: EvalMode, order_seed: u64) -> Obs {
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
    comps.push(boxed(src, model));
    comps.push(meb(p.kind, "head", src_ch, work, p.threads, model));
    if p.diamond {
        let arm_a = b.channel("arm_a", p.threads);
        let arm_b = b.channel("arm_b", p.threads);
        let done_a = b.channel("done_a", p.threads);
        let done_b = b.channel("done_b", p.threads);
        comps.push(boxed(
            Fork::new(
                "split",
                work,
                vec![arm_a, arm_b],
                p.threads,
                ForkMode::Eager,
            ),
            model,
        ));
        comps.push(boxed(
            VarLatency::new(
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
            ),
            model,
        ));
        comps.push(boxed(
            VarLatency::new(
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
            ),
            model,
        ));
        comps.push(Box::new(Join::new(
            "pair",
            vec![done_a, done_b],
            mid,
            p.threads,
            |ins: &[&Tagged]| ins[0].clone(),
        )));
    } else {
        comps.push(boxed(
            VarLatency::new(
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
            ),
            model,
        ));
    }
    comps.push(meb(p.kind, "bridge", mid, tail[0], p.threads, model));
    for i in 0..p.tail_stages {
        comps.push(meb(
            p.kind,
            format!("tail{i}"),
            tail[i],
            tail[i + 1],
            p.threads,
            model,
        ));
    }
    let out = tail[p.tail_stages];
    comps.push(boxed(
        Sink::with_capture(
            "snk",
            out,
            p.threads,
            ReadyPolicy::Random {
                p: p.p_ready,
                seed: p.seed ^ 13,
            },
        ),
        model,
    ));

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
    observe(&circuit)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The fast paths match the reference model on random topologies,
    /// under both settle modes and two shuffled insertion orders (the
    /// rank sort breaks ties by insertion index, so each order permutes
    /// the evaluation order inside every rank level).
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
            // Kernel soundness: the dirty-set kernel matches the oracle.
            let fast = run_net(&p, Model::Fast, EvalMode::EventDriven, order);
            let oracle = run_net(&p, Model::Fast, EvalMode::Exhaustive, order);
            prop_assert_eq!(
                &fast.0, &oracle.0,
                "order {:#x}: dirty-set kernel diverged from the oracle", order
            );
        }

        // Builder insertion order must not leak on signal-acyclic nets (on
        // the diamond the damped feedback makes the fixed point
        // legitimately order-sensitive, exactly as in `ranked_schedule.rs`).
        if !diamond {
            let a = run_net(&p, Model::Fast, EvalMode::EventDriven, order_seed);
            let b = run_net(&p, Model::Fast, EvalMode::EventDriven, order_seed ^ 0xDEAD_BEEF);
            prop_assert_eq!(&a.0, &b.0, "insertion order leaked through the fast paths");
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
        Fork::new("route", work, outs.clone(), threads, ForkMode::Eager).with_route(route),
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
/// word-level commits, the rotation scans and the occupancy complement.
#[test]
fn fast_paths_match_the_reference_at_the_word_boundary() {
    let p = NetParams {
        threads: 65,
        tokens: 3,
        kind: MebKind::Reduced,
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
                "order {order:#x}/{mode:?}: S=65 fast paths diverged from the reference"
            );
        }
    }
}

/// Source → `stages` reduced MEBs → capturing sink, with empty queues and
/// an always-ready sink; the scenarios below load and reconfigure it.
fn pipeline(threads: usize, stages: usize, model: Model, mode: EvalMode) -> Circuit<Tagged> {
    let mut b = CircuitBuilder::<Tagged>::new();
    let chs = b.channels("ch", threads, stages + 1);
    b.add_boxed(boxed(Source::new("src", chs[0], threads), model));
    for s in 0..stages {
        b.add_boxed(meb(
            MebKind::Reduced,
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

/// Runs `scenario` on the fast and the reference pipeline under both
/// settle modes and asserts every observation it returns is identical.
fn check<R: PartialEq + std::fmt::Debug>(
    threads: usize,
    stages: usize,
    scenario: impl Fn(&mut Circuit<Tagged>) -> R,
) {
    for mode in [EvalMode::EventDriven, EvalMode::Exhaustive] {
        let fast = scenario(&mut pipeline(threads, stages, Model::Fast, mode));
        let reference = scenario(&mut pipeline(threads, stages, Model::Reference, mode));
        assert_eq!(
            fast, reference,
            "{mode:?}: fast paths diverged from the reference"
        );
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

/// A push whose release cycle is already in the past, issued after the
/// quiescence fast-forward jumped the clock: the released-head word must
/// be rebuilt for the pushed thread on the next stepped cycle.
#[test]
fn push_into_the_past_after_fast_forward_matches_the_reference() {
    check(2, 3, |c| {
        src(c).push(0, Tagged::new(0, 0, 0));
        src(c).push_at(1, 5, Tagged::new(1, 0, 0));
        c.run(60).expect("clean");
        assert!(c.is_quiescent());
        let jumped = c.stats().kernel().quiesced_cycles;
        assert!(jumped > 0, "the idle gap was stepped, not fast-forwarded");
        src(c).push_at(0, 7, Tagged::new(0, 1, 1));
        src(c).push_at(1, 3, Tagged::new(1, 1, 1));
        src(c).push_at(1, 70, Tagged::new(1, 2, 2));
        c.run(30).expect("clean");
        (observe(c), jumped, c.cycle())
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

/// The deadlock watchdog returns before the clock edge, so the next run
/// re-evaluates the *same* cycle: a cycle stamp alone would keep serving
/// the words cached before the error. `set_policy` and `push` must
/// invalidate them.
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

/// `Circuit::reset` loops: every cached word must be invalidated by the
/// components' `reset`, since the clock restarts at cycle 0 and the
/// channel signals are cleared. The one-cycle runs leave a cache stamped
/// for cycle 0, exactly the cycle the next run starts at.
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
