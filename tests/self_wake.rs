//! The settle kernel's self-wake rule, pinned from both sides.
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

use std::sync::{Arc, Mutex};

use mt_elastic::core::{ArbiterKind, Fork, ForkMode, Join, MebKind};
use mt_elastic::md5::{algo, Md5Circuit, Md5Token};
use mt_elastic::sim::{
    ChannelId, CircuitBuilder, CombPath, Component, EvalMode, ReadyPolicy, Sink, Source, Tagged,
    ThreadMask, Token,
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

/// `(cycle, inputs)` of every evaluation of one component.
type EvalLog<T> = Arc<Mutex<Vec<(u64, Inputs<T>)>>>;

/// `unit`, logging the inputs of every `eval` into `log` before it runs.
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
        log.lock().expect("log lock").push((ctx.cycle(), inputs));
        unit.eval(ctx);
    })
}

/// On the MD5 loop, the merge (`entry`), the barrier and the branch
/// (`exit`) never evaluate twice in one cycle with identical inputs:
/// every re-evaluation the kernel spends on them follows a change of a
/// signal they listen to. Re-waking them on their own writes on feedback
/// channels would fail this.
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
            for (k, (cycle, inputs)) in log.iter().enumerate() {
                let earlier = log[..k].iter().rev().take_while(|(c, _)| c == cycle);
                reevaluated += usize::from(earlier.clone().next().is_some());
                for (_, seen) in earlier {
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
    b.add(Fork::new("fork", a, vec![o1, o2], THREADS, ForkMode::Eager));
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
