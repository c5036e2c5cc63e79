//! Property coverage for the transforming pass pipeline (`synth::opt`):
//! on randomly generated topologies, every transforming pass —
//! depth sizing, slack matching, retiming — must preserve the
//! exhaustive-oracle capture digest (per-thread token streams through a
//! backpressured capturing sink), and every *successful* retime must
//! leave an IR that still passes the full lint suite and still
//! elaborates. The passes may refuse (illegal retime, unknown node) —
//! refusal must leave the IR untouched, which the digest check catches.

use mt_elastic::core::{ArbiterKind, MebKind};
use mt_elastic::sim::{
    ChannelFeedback, FeedbackProfile, ReadyPolicy, Sink, Source, OCCUPANCY_BUCKETS,
};
use mt_elastic::synth::{
    ElasticIr, IrNodeKind, MebDepthSizing, Pass, PassError, PassManager, RetimeDirection, Retiming,
    SlackMatching,
};
use proptest::prelude::*;

/// One randomly drawn pipeline shape: `src -> [xf{i} -> buf{i}]* ->
/// (optional fork/join diamond) -> snk`, rebuilt identically on every
/// call (the IR holds boxed closures and cannot be cloned).
#[derive(Clone, Debug)]
struct Topo {
    threads: usize,
    stage_kinds: Vec<MebKind>,
    diamond: bool,
    seed: u64,
}

fn build(t: &Topo) -> ElasticIr<u64> {
    let mut ir = ElasticIr::<u64>::new();
    let mut cur = ir.channel_with_width("c0", t.threads, 32);
    ir.add("src", IrNodeKind::Source, vec![], vec![cur]);
    for (i, kind) in t.stage_kinds.iter().enumerate() {
        let mid = ir.channel_with_width(format!("t{i}"), t.threads, 32);
        let out = ir.channel_with_width(format!("c{}", i + 1), t.threads, 32);
        let k = i as u64;
        ir.add(
            format!("xf{i}"),
            IrNodeKind::Transform {
                f: Box::new(move |&v: &u64| v.wrapping_mul(2 * k + 3).wrapping_add(k)),
            },
            vec![cur],
            vec![mid],
        );
        ir.add(
            format!("buf{i}"),
            IrNodeKind::Meb {
                kind: *kind,
                arbiter: ArbiterKind::RoundRobin,
                initial: Vec::new(),
                auto: true,
            },
            vec![mid],
            vec![out],
        );
        cur = out;
    }
    if t.diamond {
        let deep = ir.channel_with_width("deep", t.threads, 32);
        let shallow = ir.channel_with_width("shallow", t.threads, 32);
        let stepped = ir.channel_with_width("stepped", t.threads, 32);
        let buffered = ir.channel_with_width("buffered", t.threads, 32);
        let joined = ir.channel_with_width("joined", t.threads, 32);
        ir.add(
            "fork",
            IrNodeKind::Fork { route: None },
            vec![cur],
            vec![deep, shallow],
        );
        ir.add(
            "double",
            IrNodeKind::Transform {
                f: Box::new(|&v: &u64| v.rotate_left(7)),
            },
            vec![deep],
            vec![stepped],
        );
        ir.add(
            "deep_buf",
            IrNodeKind::Meb {
                kind: MebKind::Fifo { depth: 2 },
                arbiter: ArbiterKind::RoundRobin,
                initial: Vec::new(),
                auto: true,
            },
            vec![stepped],
            vec![buffered],
        );
        ir.add(
            "join",
            IrNodeKind::Join {
                combine: Box::new(|toks: &[&u64]| toks[0].wrapping_add(*toks[1])),
            },
            vec![buffered, shallow],
            vec![joined],
        );
        cur = joined;
    }
    ir.add(
        "snk",
        IrNodeKind::Sink {
            capture: true,
            // Deterministic backpressure so buffering actually matters.
            policy: ReadyPolicy::Period {
                on: 1,
                off: 1,
                phase: 0,
            },
        },
        vec![cur],
        vec![],
    );
    ir
}

const TOKENS_PER_THREAD: usize = 6;

/// The exhaustive-oracle digest: per-thread captured token *values* (not
/// cycle stamps — a pass is allowed to change latency, never data).
fn oracle_digest(t: &Topo) -> String {
    let mut el = build(t).elaborate().expect("topology elaborates");
    let c = &mut el.circuit;
    {
        let src = c.get_mut::<Source<u64>>("src").expect("source exists");
        for th in 0..t.threads {
            for i in 0..TOKENS_PER_THREAD {
                src.push(
                    th,
                    t.seed ^ (th as u64 * 17 + i as u64).wrapping_mul(0x9e37),
                );
            }
        }
    }
    for _ in 0..600 {
        c.step().expect("settle converges");
    }
    let snk = c.get::<Sink<u64>>("snk").expect("sink exists");
    let streams: Vec<Vec<u64>> = (0..t.threads)
        .map(|th| snk.captured(th).iter().map(|(_, v)| *v).collect())
        .collect();
    for (th, s) in streams.iter().enumerate() {
        assert_eq!(
            s.len(),
            TOKENS_PER_THREAD,
            "thread {th} did not drain within the cycle budget"
        );
    }
    format!("{streams:x?}")
}

/// Digest after applying `pass` to a fresh build; pass refusal
/// (illegal retime, unmeasured channel) must leave the IR untouched.
fn digest_after(t: &Topo, pass: &mut dyn Pass<u64>) -> String {
    let mut ir = build(t);
    match pass.run(&mut ir) {
        Ok(_) | Err(PassError::IllegalRetiming { .. }) | Err(PassError::NoSuchNode { .. }) => {}
        Err(e) => panic!("pass failed structurally: {e}"),
    }
    let mut el = ir.elaborate().expect("transformed IR elaborates");
    let c = &mut el.circuit;
    {
        let src = c.get_mut::<Source<u64>>("src").expect("source exists");
        for th in 0..t.threads {
            for i in 0..TOKENS_PER_THREAD {
                src.push(
                    th,
                    t.seed ^ (th as u64 * 17 + i as u64).wrapping_mul(0x9e37),
                );
            }
        }
    }
    for _ in 0..600 {
        c.step().expect("settle converges");
    }
    let snk = c.get::<Sink<u64>>("snk").expect("sink exists");
    let streams: Vec<Vec<u64>> = (0..t.threads)
        .map(|th| snk.captured(th).iter().map(|(_, v)| *v).collect())
        .collect();
    format!("{streams:x?}")
}

fn meb_kind(choice: u8) -> MebKind {
    match choice % 5 {
        0 => MebKind::Full,
        1 => MebKind::Reduced,
        n => MebKind::Fifo {
            depth: n as usize - 1, // 1..=3
        },
    }
}

fn topo_strategy() -> impl Strategy<Value = Topo> {
    (
        1usize..=3,
        prop::collection::vec(0u8..5, 1..=3),
        any::<bool>(),
        any::<u64>(),
    )
        .prop_map(|(threads, kinds, diamond, seed)| Topo {
            threads,
            stage_kinds: kinds.into_iter().map(meb_kind).collect(),
            diamond,
            seed,
        })
}

/// A synthetic profile that claims the given channel saw backpressure
/// streaks of length `len` — the input MebDepthSizing resizes from.
fn profile(channel: &str, len: usize) -> FeedbackProfile {
    let mut hist = [0u64; OCCUPANCY_BUCKETS];
    if len > 0 {
        hist[(len - 1).min(OCCUPANCY_BUCKETS - 1)] = 7;
    }
    FeedbackProfile {
        cycles: 600,
        channels: vec![ChannelFeedback {
            name: channel.to_string(),
            threads: 2,
            transfers: 64,
            stall_cycles: (len * 7) as u64,
            utilization: 0.5,
            stall_rate: 0.1,
            occupancy_hist: hist,
        }],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Depth sizing driven by an arbitrary measured streak length never
    /// changes what the circuit computes.
    #[test]
    fn depth_sizing_preserves_the_oracle_digest(
        topo in topo_strategy(),
        stage in 0usize..3,
        streak in 0usize..10,
        convert in any::<bool>(),
    ) {
        let base = oracle_digest(&topo);
        let stage = stage % topo.stage_kinds.len();
        let mut pass = MebDepthSizing::new(profile(&format!("t{stage}"), streak));
        if convert {
            pass = pass.converting();
        }
        prop_assert_eq!(digest_after(&topo, &mut pass), base);
    }

    /// Slack matching (any buffer kind) never changes what the circuit
    /// computes — on diamonds it inserts, on chains it is a no-op.
    #[test]
    fn slack_matching_preserves_the_oracle_digest(
        topo in topo_strategy(),
        kind in 0u8..5,
    ) {
        let base = oracle_digest(&topo);
        let mut pass = SlackMatching::new(meb_kind(kind));
        prop_assert_eq!(digest_after(&topo, &mut pass), base);
    }

    /// Retiming — legal or refused — never changes what the circuit
    /// computes, and a *successful* retime leaves an IR that still
    /// passes the whole lint suite and still elaborates.
    #[test]
    fn retiming_preserves_digest_and_legality(
        topo in topo_strategy(),
        stage in 0usize..3,
        forward in any::<bool>(),
    ) {
        let base = oracle_digest(&topo);
        let stage = stage % topo.stage_kinds.len();
        let dir = if forward {
            RetimeDirection::Forward
        } else {
            RetimeDirection::Backward
        };
        let mut pass = Retiming::new(format!("buf{stage}"), dir);
        prop_assert_eq!(digest_after(&topo, &mut pass), base);

        // Re-run on a fresh build to observe the report, then check the
        // moved buffer still satisfies every lint and builds.
        let mut ir = build(&topo);
        if let Ok(report) = Pass::<u64>::run(&mut pass, &mut ir) {
            prop_assert_eq!(report.changed, 1);
            prop_assert_eq!(report.deltas.len(), 1);
            PassManager::lint_suite()
                .run(&mut ir)
                .expect("retimed IR passes the lint suite");
            ir.elaborate().expect("retimed IR elaborates");
        }
    }
}
