//! Tests for the build-time levelized rank schedule and the eval record
//! of the two settle kernels.
//!
//! * On an 8-thread, 8-stage reduced-MEB pipeline, rank order settles
//!   every stepped cycle in (essentially) one round, and the
//!   event-driven kernel matches the exhaustive oracle.
//! * On the paper's Fig. 5 pipeline, a stalled 4-thread pipeline and the
//!   Sec. V-A MD5 loop, both kernels deliver the same captures (digests
//!   and cycles, for MD5), and each kernel's evaluation, settle-round
//!   and quiesced-cycle counts are pinned. A change that moves a count
//!   updates its row in [`PINNED`] and says why.
//! * On random topologies (`common::random_net`), built in shuffled
//!   builder insertion orders, the kernel bars below hold. The rank sort
//!   breaks ties by insertion index, so each order permutes the
//!   evaluation order inside every rank level.
//!
//! The random-topology bars, in decreasing strength:
//!
//! 1. **Kernel soundness**: for every insertion order, the event-driven
//!    dirty-set kernel matches the exhaustive oracle byte for byte.
//! 2. **Order independence**: on *signal-acyclic* nets every eval is a
//!    pure function of the handshake state, the cycle's fixed point is
//!    unique, and the captures are identical across insertion orders
//!    (the purity argument of `docs/kernel.md`). The fork/join diamond is
//!    excluded: the Join's valid→ready coupling closes a damped signal
//!    cycle through the two variable-latency arms, and on feedback
//!    channels the anti-swap hysteresis may pick an order-dependent, but
//!    individually valid, fixed point. There the bar is token
//!    conservation per thread.
//!
//! The fast-path bars on the same nets are
//! `tests/fast_path_reference.rs`'s `fast_paths_match_the_reference_model`.

mod common;

use common::random_net::{meb_kind_strategy, run_net, NetParams};
use common::Model;
use elastic_bench::Fig5Setup;
use mt_elastic::core::{MebKind, PipelineConfig, PipelineHarness};
use mt_elastic::md5::Md5Hasher;
use mt_elastic::sim::{EvalMode, KernelStats, ReadyPolicy};
use proptest::prelude::*;

/// Per-thread `(cycle, seq)` captures of a pipeline's sink.
type Captures = Vec<Vec<(u64, u64)>>;

/// Builds the pipeline `cfg`, runs it for `cycles` and returns its
/// captures and kernel counters.
fn run_pipeline(cfg: PipelineConfig, cycles: u64) -> (Captures, KernelStats) {
    let threads = cfg.threads;
    let mut h = PipelineHarness::build(cfg);
    h.circuit.run(cycles).expect("the pipeline runs clean");
    let captures = (0..threads)
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Both random-topology bars, under two shuffled builder insertion
    /// orders.
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
        let captures = |mode, order| run_net(&p, Model::Fast, mode, order).0;
        let mut per_order = Vec::new();
        for order in [order_seed, order_seed ^ 0xDEAD_BEEF] {
            // Bar 1: the dirty-set kernel matches the exhaustive oracle
            // under every insertion order, on every topology.
            let fast = captures(EvalMode::EventDriven, order);
            let oracle = captures(EvalMode::Exhaustive, order);
            prop_assert_eq!(
                &fast, &oracle,
                "order {:#x}: event-driven kernel diverged from the exhaustive oracle", order
            );
            if diamond {
                // Damped signal cycle through the join: the orders may
                // settle on different, individually valid, arbitration
                // orders, but never lose or forge a token.
                for (t, caps) in fast.iter().enumerate() {
                    let mut seqs: Vec<u64> = caps.iter().map(|&(_, s)| s).collect();
                    seqs.sort_unstable();
                    prop_assert_eq!(&seqs, &(0..tokens).collect::<Vec<_>>(), "thread {}", t);
                }
            }
            per_order.push(fast);
        }

        // Bar 2: on a signal-acyclic net the fixed point is unique, so the
        // builder insertion order is invisible.
        if !diamond {
            prop_assert_eq!(
                &per_order[0], &per_order[1],
                "builder insertion order leaked into behaviour"
            );
        }
    }
}

/// The S = 8 workload: an 8-thread, 8-stage reduced-MEB pipeline, 64
/// tokens per thread. `backpressured` adds irregular per-thread sink
/// stalls so downstream ready keeps changing.
fn run_pipeline_s8(backpressured: bool, mode: EvalMode) -> (Captures, KernelStats) {
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
    run_pipeline(cfg, 1_500)
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

/// What a workload delivers: sink captures, or MD5 digests with the
/// cycles the batch took.
#[derive(Debug, PartialEq)]
enum Delivered {
    Captures(Captures),
    Digests(Vec<[u8; 16]>, u64),
}

/// One workload run under one settle mode.
type Run = (Delivered, KernelStats);

/// The paper's Fig. 5 scenario (2 threads, 2 stages, 8 tokens per
/// thread, thread B's sink stalled over `3..8`, 24 cycles), untraced so
/// the quiescence fast-forward stays on.
fn run_fig5(kind: MebKind, mode: EvalMode) -> Run {
    let setup = Fig5Setup::paper(kind);
    let cfg = PipelineConfig::free_flowing(2, setup.stages, kind, setup.tokens_per_thread)
        .with_sink_policy(
            1,
            ReadyPolicy::StallWindow {
                from: setup.stall_from,
                to: setup.stall_to,
            },
        )
        .with_eval_mode(mode);
    let (captures, kernel) = run_pipeline(cfg, setup.cycles);
    (Delivered::Captures(captures), kernel)
}

/// A 4-thread, 4-stage reduced-MEB pipeline, 64 tokens per thread,
/// every sink thread stalling at random, 1,200 cycles.
fn run_stalled(mode: EvalMode) -> Run {
    let mut cfg = PipelineConfig::free_flowing(4, 4, MebKind::Reduced, 64).with_eval_mode(mode);
    for t in 0..4 {
        cfg.sink_policies[t] = ReadyPolicy::Random {
            p: 0.4,
            seed: 0xA5A5 ^ t as u64,
        };
    }
    let (captures, kernel) = run_pipeline(cfg, 1_200);
    (Delivered::Captures(captures), kernel)
}

/// The Sec. V-A MD5 loop on 8 threads with reduced MEBs, one message
/// per thread.
fn run_md5(mode: EvalMode) -> Run {
    let messages: Vec<Vec<u8>> = (0..8)
        .map(|i| format!("kernel ablation message {i}").into_bytes())
        .collect();
    let refs: Vec<&[u8]> = messages.iter().map(Vec::as_slice).collect();
    let (digests, cycles, kernel) = Md5Hasher::new(8, MebKind::Reduced)
        .with_eval_mode(mode)
        .hash_messages_instrumented(&refs)
        .expect("the MD5 loop hashes");
    (Delivered::Digests(digests, cycles), kernel)
}

/// `(component_evals, settle_rounds, quiesced_cycles)` of one run.
/// `components_skipped` follows from the evaluations and rounds.
fn counts(k: &KernelStats) -> [u64; 3] {
    [k.component_evals, k.settle_rounds, k.quiesced_cycles]
}

/// The eval record: each workload's counts under the exhaustive oracle
/// and under the event-driven kernel.
const PINNED: [(&str, [u64; 3], [u64; 3]); 4] = [
    ("Fig. 5, full MEBs", [176, 44, 2], [88, 22, 2]),
    ("Fig. 5, reduced MEBs", [176, 44, 2], [88, 22, 2]),
    ("4 threads, 4 stages", [3804, 634, 883], [1902, 317, 883]),
    ("MD5, 8 threads", [1672, 209, 0], [820, 197, 0]),
];

/// Both settle kernels deliver the same captures, digests and cycles on
/// the paper's workloads, with the evaluation, round and quiesced-cycle
/// counts of [`PINNED`].
#[test]
fn kernels_agree_and_keep_their_pinned_eval_counts() {
    let workloads: [fn(EvalMode) -> Run; 4] = [
        |mode| run_fig5(MebKind::Full, mode),
        |mode| run_fig5(MebKind::Reduced, mode),
        run_stalled,
        run_md5,
    ];
    let measured: Vec<(&str, [u64; 3], [u64; 3])> = PINNED
        .iter()
        .zip(workloads)
        .map(|(&(row, ..), run)| {
            let (oracle, exhaustive) = run(EvalMode::Exhaustive);
            let (fast, event_driven) = run(EvalMode::EventDriven);
            assert_eq!(
                fast, oracle,
                "{row}: the event-driven kernel diverged from the oracle"
            );
            (row, counts(&exhaustive), counts(&event_driven))
        })
        .collect();
    assert_eq!(
        measured, PINNED,
        "eval counts moved: update PINNED and say why"
    );
}
