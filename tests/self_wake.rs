//! The settle kernel's self-wake rule, pinned from both sides, and the
//! first-evaluation flag the re-evaluations are told apart by.
//!
//! When a component changes a signal on a feedback channel, the
//! event-driven kernel re-evaluates that component only if it declared a
//! damped `ReadyToValid` arc: only a hysteretic `eval` reads a signal it
//! drives (its anti-swap guard reads `valid(out)`).
//!
//! * Without the damped half, the event-driven kernel leaves a guarded
//!   pick standing where the exhaustive oracle would re-evaluate it and
//!   yield to the arbiter's pick, so the captures diverge.
//! * Every other component evaluates a function of registered state and
//!   its declared inputs, so re-running it on its own write is a no-op:
//!   within one cycle it never sees the same inputs twice.
//! * `EvalCtx::first_eval` is true for exactly one evaluation of every
//!   component per step, the first, and every cycle of the clock is
//!   stepped, idle ones included.

use std::sync::{Arc, Mutex};

use mt_elastic::core::{ArbiterKind, Fork, Join, MebKind, PipelineConfig, PipelineHarness};
use mt_elastic::md5::{algo, Md5Circuit, Md5Token};
use mt_elastic::sim::{
    ChannelId, Circuit, CircuitBuilder, CombPath, Component, EvalMode, ReadyPolicy, SimError, Sink,
    Source, Tagged, ThreadMask, Token,
};

mod common;
use common::Hooked;

/// A signal a component's `eval` listens to: the trigger of one of its
/// declared combinational paths.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Trigger {
    Valid(ChannelId),
    Ready(ChannelId),
}

/// What one `eval` saw on the signals it listens to: each trigger's
/// packed word, with the data word for a `valid` trigger.
type Inputs<T> = Vec<(ThreadMask, Option<T>)>;

/// `(cycle, first_eval, inputs)` of every evaluation of one component.
type EvalLog<T> = Arc<Mutex<Vec<(u64, bool, Inputs<T>)>>>;

/// `unit`, logging `first_eval` and the inputs of every `eval` into `log`
/// before it runs.
fn recorded<T: Token>(unit: Box<dyn Component<T>>, log: EvalLog<T>) -> Hooked<T> {
    let mut triggers = Vec::new();
    for path in unit.comb_paths() {
        let trigger = match path {
            CombPath::ValidToValid { from, .. } | CombPath::ValidToReady { from, .. } => {
                Trigger::Valid(from)
            }
            CombPath::ReadyToValid { from, .. } | CombPath::ReadyToReady { from, .. } => {
                Trigger::Ready(from)
            }
        };
        if !triggers.contains(&trigger) {
            triggers.push(trigger);
        }
    }
    Hooked::new(unit, move |unit, ctx| {
        let inputs = triggers
            .iter()
            .map(|&trigger| match trigger {
                Trigger::Valid(ch) => (ctx.valid_mask(ch).clone(), ctx.data(ch).cloned()),
                Trigger::Ready(ch) => (ctx.ready_mask(ch).clone(), None),
            })
            .collect();
        log.lock()
            .expect("log lock")
            .push((ctx.cycle(), ctx.first_eval(), inputs));
        unit.eval(ctx);
    })
}

/// On the MD5 loop, the merge (`entry`), the barrier and the branch
/// (`exit`) never evaluate twice in one cycle with identical inputs:
/// every re-evaluation the kernel spends on them follows a change of a
/// signal they listen to. Re-waking them on their own writes on feedback
/// channels would fail this. Each cycle's first evaluation, and only
/// that one, sees `first_eval()` true.
#[test]
fn undamped_components_never_reevaluate_on_unchanged_inputs() {
    let messages: Vec<Vec<u8>> = (0..8u8)
        .map(|i| {
            (0..[20usize, 70, 130, 190][usize::from(i) % 4])
                .map(|b| b as u8 ^ i)
                .collect()
        })
        .collect();
    let refs: Vec<&[u8]> = messages.iter().map(Vec::as_slice).collect();
    for stages in [1usize, 4] {
        let mut md5 = Md5Circuit::with_stages(8, 8, MebKind::Reduced, stages);
        md5.circuit.set_eval_mode(EvalMode::EventDriven);
        let names = ["entry", "barrier", "exit"];
        let logs: Vec<EvalLog<Md5Token>> = names.iter().map(|_| EvalLog::default()).collect();
        for (name, log) in names.iter().zip(&logs) {
            let log = Arc::clone(log);
            let wrapped = md5
                .circuit
                .wrap_component(name, |unit| Box::new(recorded(unit, log)));
            assert!(wrapped, "the MD5 loop has a component named `{name}`");
        }
        let (digests, _, _) = md5.hash(&refs).expect("the loop hashes");
        for (digest, m) in digests.iter().zip(&refs) {
            assert_eq!(*digest, algo::md5(m), "{stages} stages");
        }

        for (name, log) in names.iter().zip(&logs) {
            let log = log.lock().expect("log lock");
            let mut reevaluated = 0;
            for (k, (cycle, first, inputs)) in log.iter().enumerate() {
                let earlier = log[..k].iter().rev().take_while(|(c, ..)| c == cycle);
                let again = earlier.clone().next().is_some();
                reevaluated += usize::from(again);
                assert_eq!(
                    *first, !again,
                    "{stages} stages: `{name}` in cycle {cycle}: first_eval() must be \
                     true on the first evaluation only"
                );
                for (.., seen) in earlier {
                    assert_ne!(
                        seen, inputs,
                        "{stages} stages: `{name}` evaluated twice in cycle {cycle} \
                         with identical inputs"
                    );
                }
            }
            // The rule has teeth only if the kernel does re-evaluate.
            assert!(
                reevaluated > 0,
                "{stages} stages: `{name}` was never re-evaluated within a cycle"
            );
        }
    }
}

/// Sink captures `(cycle, seq)` per thread of both sinks.
type Captures = [Vec<Vec<(u64, u64)>>; 2];

/// Two reduced MEBs feed an M-Join, the first through an eager fork
/// whose other output drains through a third MEB into a randomly
/// stalling sink. The fork is `ready` for every thread whose join copy
/// it already delivered, so the first MEB's feedback output can see
/// several ready threads at once. Its anti-swap guard may then switch to
/// a ready thread other than the arbiter's pick. When that switch leaves
/// the fork's `ready` unchanged, only the MEB's own write wakes it
/// again, and only that re-evaluation yields to the arbiter's pick as
/// the exhaustive oracle does. The net came out of a bounded random
/// search over such fork/join nets, then shrunk.
fn run_fork_join(mode: EvalMode) -> Captures {
    const THREADS: usize = 3;
    let mut b = CircuitBuilder::<Tagged>::new();
    let [sa, sb, a, bb, o1, o2, c, jo, d] =
        ["sa", "sb", "a", "b", "o1", "o2", "c", "jo", "d"].map(|name| b.channel(name, THREADS));
    let mut src_a = Source::new("src_a", sa, THREADS);
    let mut src_b = Source::new("src_b", sb, THREADS);
    for (t, (n_a, n_b)) in [(4u64, 4u64), (3, 3), (2, 1)].into_iter().enumerate() {
        for i in 0..n_a {
            src_a.push_at(t, 1, Tagged::new(t, i, i));
        }
        src_b.extend(t, (0..n_b).map(|i| Tagged::new(t, i, 100 + i)));
    }
    let meb = |name: &str, inp: ChannelId, out: ChannelId| {
        MebKind::Reduced.build_with::<Tagged>(name, inp, out, THREADS, ArbiterKind::RoundRobin)
    };
    b.add(src_a);
    b.add(src_b);
    b.add_boxed(meb("ma", sa, a));
    b.add_boxed(meb("mb", sb, bb));
    b.add(Fork::new("fork", a, vec![o1, o2], THREADS));
    b.add(Join::new(
        "join",
        vec![o1, bb],
        jo,
        THREADS,
        |ins: &[&Tagged]| ins[0].clone(),
    ));
    b.add_boxed(meb("mc", o2, c));
    b.add_boxed(meb("md", jo, d));
    b.add(Sink::with_capture(
        "kc",
        c,
        THREADS,
        ReadyPolicy::Random {
            p: 0.388,
            seed: 1_316_223_259 ^ 3,
        },
    ));
    b.add(Sink::with_capture("kd", d, THREADS, ReadyPolicy::Always));
    let mut circuit = b.build().expect("the fork/join net is well-formed");
    circuit.set_eval_mode(mode);
    circuit.run(40).expect("the net runs clean");
    ["kc", "kd"].map(|name| {
        let sink: &Sink<Tagged> = circuit.get(name).expect("sink");
        (0..THREADS)
            .map(|t| {
                sink.captured(t)
                    .iter()
                    .map(|(cycle, tok)| (*cycle, tok.seq))
                    .collect()
            })
            .collect()
    })
}

/// The damped half of the rule matters: on this net the event-driven
/// kernel matches the exhaustive oracle only because the MEB re-wakes
/// itself on its own feedback output.
#[test]
fn damped_self_wake_keeps_the_oracle_captures() {
    let fast = run_fork_join(EvalMode::EventDriven);
    let oracle = run_fork_join(EvalMode::Exhaustive);
    // Every token reaches its sinks, so the comparison covers the whole run.
    let delivered = |caps: &Captures| caps.iter().flatten().map(Vec::len).sum::<usize>();
    assert_eq!(delivered(&oracle), 9 + 8, "the oracle run drains");
    assert_eq!(
        fast, oracle,
        "event-driven captures diverged from the exhaustive oracle"
    );
}

/// `(evaluation-order index, cycle, first_eval)` of every evaluation of
/// a circuit, in the order the kernel ran them.
type FirstLog = Arc<Mutex<Vec<(usize, u64, bool)>>>;

/// A 2-thread source, two reduced MEBs and a sink, each wrapped to log
/// into the returned log.
fn logged_pipeline(mode: EvalMode) -> (Circuit<Tagged>, FirstLog) {
    let config = PipelineConfig::free_flowing(2, 2, MebKind::Reduced, 0).with_eval_mode(mode);
    let mut circuit = PipelineHarness::build(config).circuit;
    let log = FirstLog::default();
    for (i, name) in circuit.component_names().iter().enumerate() {
        let log = Arc::clone(&log);
        circuit.wrap_component(name, |unit| {
            Box::new(Hooked::new(unit, move |unit, ctx| {
                log.lock()
                    .expect("log lock")
                    .push((i, ctx.cycle(), ctx.first_eval()));
                unit.eval(ctx);
            }))
        });
    }
    (circuit, log)
}

/// Splits `log` into steps and checks each against the kernel: a step
/// opens with one evaluation of every component with `first_eval()`
/// true, in evaluation order and at one cycle, and every later
/// evaluation of that cycle sees it false. The steps are the kernel's
/// stepped cycles, and every cycle the clock has passed is one of them.
/// Returns each step's cycle.
fn steps_of(log: &[(usize, u64, bool)], circuit: &Circuit<Tagged>, label: &str) -> Vec<u64> {
    let n = circuit.component_names().len();
    let mut steps: Vec<u64> = Vec::new();
    let mut k = 0;
    while k < log.len() {
        let cycle = log[k].1;
        let opening = &log[k..log.len().min(k + n)];
        assert!(
            opening.len() == n
                && opening
                    .iter()
                    .enumerate()
                    .all(|(i, &(unit, c, first))| unit == i && c == cycle && first),
            "{label}: step {} does not open with one first evaluation of every \
             component at cycle {cycle}: {opening:?}",
            steps.len()
        );
        k += n;
        while let Some(&(unit, c, _)) = log.get(k).filter(|e| !e.2) {
            assert_eq!(
                c, cycle,
                "{label}: unit {unit} re-evaluated out of its step"
            );
            k += 1;
        }
        steps.push(cycle);
    }
    let kernel = circuit.stats().kernel();
    assert_eq!(
        steps.len() as u64,
        kernel.stepped_cycles,
        "{label}: one first evaluation per component per stepped cycle"
    );
    let mut stepped = steps.clone();
    stepped.dedup();
    assert!(
        stepped.windows(2).all(|w| w[0] < w[1]),
        "{label}: steps out of order: {steps:?}"
    );
    // A step that failed before its clock edge evaluated the cycle the
    // clock still shows.
    let unfinished = u64::from(stepped.last() == Some(&circuit.cycle()));
    assert_eq!(
        stepped,
        (0..circuit.cycle() + unfinished).collect::<Vec<_>>(),
        "{label}: a cycle of the clock was not evaluated"
    );
    steps
}

/// The kernel alone says when a cycle starts. On a small stalled
/// pipeline, under both settle modes, across a re-step after a
/// `Deadlock` (the error returns before the clock edge, so the next step
/// evaluates the same cycle again) and across a `Circuit::reset` loop,
/// every step evaluates every component exactly once with
/// `first_eval()` true, before any re-evaluation, and `run` steps every
/// cycle, those of an idle gap included.
#[test]
fn first_eval_opens_every_step_once_across_deadlocks_and_resets() {
    for mode in [EvalMode::EventDriven, EvalMode::Exhaustive] {
        let (mut c, log) = logged_pipeline(mode);
        for round in 0..3u64 {
            let label = format!("{mode:?}, round {round}");
            c.reset().expect("every unit resets");
            log.lock().expect("log lock").clear();
            // Each run's evaluations are checked before its outcome.
            let run = |c: &mut Circuit<Tagged>, cycles| {
                let outcome = c.run(cycles);
                steps_of(&log.lock().expect("log lock"), c, &label);
                outcome
            };
            let src: &mut Source<Tagged> = c.get_mut("src").expect("source");
            src.extend(0, (0..4).map(|i| Tagged::new(0, i, i)));
            src.extend(1, (0..3 + round).map(|i| Tagged::new(1, i, i)));
            let snk: &mut Sink<Tagged> = c.get_mut("snk").expect("sink");
            snk.set_policy(0, ReadyPolicy::Never);
            c.set_deadlock_watchdog(Some(4));
            let stuck = run(&mut c, 200).expect_err("the never-ready thread deadlocks");
            assert!(
                matches!(stuck, SimError::Deadlock { .. }),
                "{label}: {stuck:?}"
            );
            let deadlocked_at = c.cycle();
            c.set_deadlock_watchdog(None);
            let snk: &mut Sink<Tagged> = c.get_mut("snk").expect("sink");
            snk.set_policy(0, ReadyPolicy::Always);
            run(&mut c, 20).expect("the released pipeline drains");
            // A late token leaves an idle gap, which `run` steps too.
            let idle_from = c.cycle();
            let release = idle_from + 15 + round;
            let src: &mut Source<Tagged> = c.get_mut("src").expect("source");
            src.push_at(1, release, Tagged::new(1, 99, 99));
            run(&mut c, 40).expect("the late token drains");

            let snk: &Sink<Tagged> = c.get("snk").expect("sink");
            assert_eq!(snk.consumed_total(), 4 + 3 + round + 1, "{label}");
            let steps = steps_of(&log.lock().expect("log lock"), &c, &label);
            // The checks have teeth only if this run re-stepped a cycle,
            // stepped an idle gap and, under the oracle, re-evaluated.
            assert_eq!(
                steps.iter().filter(|&&s| s == deadlocked_at).count(),
                2,
                "{label}: the deadlocked cycle is stepped again"
            );
            assert!(
                (idle_from..release).all(|cycle| steps.contains(&cycle)),
                "{label}: the gap before cycle {release} was evaluated"
            );
            if mode == EvalMode::Exhaustive {
                assert!(
                    log.lock().expect("log lock").iter().any(|e| !e.2),
                    "{label}: the oracle re-evaluates"
                );
            }
        }
    }
}
