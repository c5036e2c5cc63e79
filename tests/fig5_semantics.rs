//! E-F5 / E-X2 — integration tests pinning the semantics behind the
//! paper's Figure 5 and the Sec. III-A analysis: the full and reduced
//! MEB pipelines behave identically except in the all-but-one-blocked
//! worst case.

use elastic_bench::{fig5_harness, fig5_rows, reduced_worstcase, Fig5Setup};
use mt_elastic::core::{MebKind, PipelineConfig, PipelineHarness};
use mt_elastic::sim::{GridTrace, ReadyPolicy};

/// During a *bounded* stall (Fig. 5's scenario) both variants deliver the
/// same tokens in the same per-thread order.
#[test]
fn bounded_stall_same_deliveries_for_both_variants() {
    let mut outputs = Vec::new();
    for kind in [MebKind::Full, MebKind::Reduced] {
        let h = fig5_harness(&Fig5Setup::paper(kind));
        let per_thread: Vec<Vec<u64>> = (0..2)
            .map(|t| {
                h.sink()
                    .captured(t)
                    .iter()
                    .map(|(_, tok)| tok.seq)
                    .collect()
            })
            .collect();
        assert_eq!(
            per_thread[0],
            (0..8).collect::<Vec<_>>(),
            "{kind} thread A order"
        );
        assert_eq!(
            per_thread[1],
            (0..8).collect::<Vec<_>>(),
            "{kind} thread B order"
        );
        outputs.push(per_thread);
    }
    assert_eq!(outputs[0], outputs[1]);
}

/// The stalled thread never blocks the other thread's progress during the
/// stall window (the MT-elastic selling point).
#[test]
fn unblocked_thread_keeps_flowing_during_the_stall() {
    for kind in [MebKind::Full, MebKind::Reduced] {
        let setup = Fig5Setup::paper(kind);
        let h = fig5_harness(&setup);
        let a_during_stall = h
            .sink()
            .captured(0)
            .iter()
            .filter(|(c, _)| *c >= setup.stall_from && *c < setup.stall_to)
            .count();
        // The stall lasts 5 cycles; thread A must land several tokens.
        assert!(
            a_during_stall >= 2,
            "{kind}: A delivered {a_during_stall} during the stall"
        );
    }
}

/// The one behavioural difference (paper, Sec. III-A): with every other
/// thread blocked and backpressure at the source, a full-MEB pipeline
/// still gives the active thread the whole channel; a reduced one caps
/// it at 50 %.
#[test]
fn worstcase_throughput_separation() {
    let full = reduced_worstcase(MebKind::Full, 2, 4);
    let reduced = reduced_worstcase(MebKind::Reduced, 2, 4);
    assert!(
        full.active_throughput > 0.95,
        "full: {:.3}",
        full.active_throughput
    );
    assert!(
        (reduced.active_throughput - 0.5).abs() < 0.05,
        "reduced: {:.3}",
        reduced.active_throughput
    );
}

/// The separation persists across pipeline depths and thread counts.
#[test]
fn worstcase_separation_scales() {
    for threads in [2usize, 4] {
        for stages in [2usize, 6] {
            let full = reduced_worstcase(MebKind::Full, threads, stages);
            let reduced = reduced_worstcase(MebKind::Reduced, threads, stages);
            assert!(
                full.active_throughput > 0.9,
                "full S={threads} stages={stages}: {:.3}",
                full.active_throughput
            );
            assert!(
                reduced.active_throughput < 0.6,
                "reduced S={threads} stages={stages}: {:.3}",
                reduced.active_throughput
            );
        }
    }
}

/// In the reduced trace, the stalled thread's second token sits in the
/// *shared* register; in the full trace it sits in the thread's private
/// aux slot, the second slot of its FIFO (`q[1][1]`) — the
/// microarchitectural difference the figure illustrates.
#[test]
fn traces_show_where_the_stalled_tokens_live() {
    let setup = Fig5Setup::paper(MebKind::Reduced);
    let h = fig5_harness(&setup);
    let grid = GridTrace::new(fig5_rows(&h, MebKind::Reduced));
    let text = grid.render(h.circuit.trace().expect("traced"), 0, setup.cycles - 1);
    assert!(text.contains("shared"), "{text}");

    let setup = Fig5Setup::paper(MebKind::Full);
    let h = fig5_harness(&setup);
    let trace = h.circuit.trace().expect("traced");
    let b_in_aux = trace.records().iter().any(|r| {
        r.slots.iter().map(|(_, slots)| slots).any(|slots| {
            slots
                .iter()
                .any(|s| s.name == "q[1][1]" && s.occupant.as_ref().is_some_and(|(t, _)| *t == 1))
        })
    });
    assert!(b_in_aux, "full MEB never used thread B's private aux slot");
}

/// Injection for the stalled thread stops once its storage fills —
/// "injection for thread B stops and only data for thread A enter the
/// system" (paper, Fig. 5 discussion).
#[test]
fn stalled_thread_injection_backpressures_to_the_source() {
    let mut cfg = PipelineConfig::free_flowing(2, 2, MebKind::Reduced, 40);
    cfg = cfg.with_sink_policy(1, ReadyPolicy::Never);
    let mut h = PipelineHarness::build(cfg);
    h.circuit.run(40).expect("runs clean");
    let injected_b = h.source().injected(1);
    // Reduced, 2 stages: B can hold at most one main slot per stage plus
    // the shared slots: 2 mains + 2 shared = 4 tokens in flight.
    assert!(
        injected_b <= 4,
        "B injected {injected_b} tokens into a blocked pipeline"
    );
    // A keeps flowing meanwhile — at the reduced worst-case rate of ~50 %
    // once B's backpressure occupies every shared slot (Sec. III-A).
    assert!(
        h.sink().consumed(0) >= 18,
        "A consumed only {}",
        h.sink().consumed(0)
    );
}
