//! The random topology shared by the fast-path and schedule properties.
//!
//! [`run_net`] builds source → MEB → (fork/join diamond over skewed
//! variable-latency arms, or a single variable-latency unit) → MEB chain
//! → randomly-stalling sink, adds its components in a shuffled builder
//! insertion order, runs the `model` evaluation under one settle mode and
//! drains it. The rank sort breaks ties by insertion index, so each
//! insertion order permutes the evaluation order inside every rank level.

use mt_elastic::core::{ArbiterKind, FifoMeb, Fork, Join, MebKind, ReducedMeb};
use mt_elastic::sim::{
    ChannelId, Circuit, CircuitBuilder, Component, EvalMode, LatencyModel, ReadyPolicy, Sink,
    Source, Tagged, VarLatency,
};
use proptest::prelude::*;

use super::{boxed, Model};

/// A round-robin MEB of `kind` running the `model` evaluation.
pub fn meb(
    kind: MebKind,
    name: impl Into<String>,
    inp: ChannelId,
    out: ChannelId,
    threads: usize,
    model: Model,
) -> Box<dyn Component<Tagged>> {
    let arbiter = ArbiterKind::RoundRobin.build();
    match kind {
        MebKind::Reduced => boxed(ReducedMeb::new(name, inp, out, threads, arbiter), model),
        MebKind::Full => boxed(FifoMeb::full(name, inp, out, threads, arbiter), model),
        MebKind::Fifo { depth } => {
            boxed(FifoMeb::new(name, inp, out, threads, depth, arbiter), model)
        }
    }
}

/// Per-thread `(cycle, seq)` captures, eval count and settle-round count.
pub type Obs = (Vec<Vec<(u64, u64)>>, u64, u64);

pub fn observe(c: &Circuit<Tagged>) -> Obs {
    let snk: &Sink<Tagged> = c.get("snk").expect("the net has a sink named `snk`");
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

pub fn meb_kind_strategy() -> impl Strategy<Value = MebKind> {
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
/// variable-latency arms, or a single variable-latency unit) → MEB chain
/// → randomly-stalling sink.
#[derive(Clone, Debug)]
pub struct NetParams {
    pub threads: usize,
    pub tokens: u64,
    pub kind: MebKind,
    pub diamond: bool,
    pub tail_stages: usize,
    pub p_ready: f64,
    pub seed: u64,
}

/// Builds and drains the network, adding components in the permutation
/// selected by `order_seed`.
pub fn run_net(p: &NetParams, model: Model, mode: EvalMode, order_seed: u64) -> Obs {
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
            Fork::new("split", work, vec![arm_a, arm_b], p.threads),
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
