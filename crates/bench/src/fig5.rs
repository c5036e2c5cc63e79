//! The Figure 5 experiment: a 2-stage MEB pipeline with two threads where
//! thread B's consumer stalls for a window, traced cycle by cycle
//! (paper, Fig. 5(a) full MEBs vs Fig. 5(b) reduced MEBs).

use elastic_core::{MebKind, PipelineConfig, PipelineHarness};
use elastic_sim::{ReadyPolicy, RowSpec};

/// Parameters of the Figure 5 run.
#[derive(Clone, Debug)]
pub struct Fig5Setup {
    /// MEB microarchitecture under trace.
    pub kind: MebKind,
    /// Pipeline depth (the paper uses 2).
    pub stages: usize,
    /// Tokens injected per thread.
    pub tokens_per_thread: u64,
    /// First cycle of thread B's downstream stall.
    pub stall_from: u64,
    /// First cycle after the stall.
    pub stall_to: u64,
    /// Cycles to simulate.
    pub cycles: u64,
}

impl Fig5Setup {
    /// The paper's scenario: 2 stages, B stalls for a handful of cycles,
    /// then is released.
    pub fn paper(kind: MebKind) -> Self {
        Self {
            kind,
            stages: 2,
            tokens_per_thread: 8,
            stall_from: 3,
            stall_to: 8,
            cycles: 24,
        }
    }
}

/// Builds and runs the traced Figure 5 pipeline; returns the harness with
/// the trace recorded.
///
/// # Panics
///
/// Panics if the simulation reports a protocol error (it must not).
pub fn fig5_harness(setup: &Fig5Setup) -> PipelineHarness {
    let cfg = PipelineConfig::free_flowing(2, setup.stages, setup.kind, setup.tokens_per_thread)
        .with_sink_policy(
            1,
            ReadyPolicy::StallWindow {
                from: setup.stall_from,
                to: setup.stall_to,
            },
        );
    let mut h = PipelineHarness::build(cfg);
    h.circuit.enable_trace();
    h.circuit
        .run(setup.cycles)
        .expect("fig5 pipeline runs clean");
    h
}

/// Grid rows matching the paper's figure: input channel, each MEB's
/// per-thread and shared slots, the inter-stage channels, and the output.
/// A full MEB's private FIFO slots `q[t][0]` and `q[t][1]` carry the
/// paper's `main[t]` and `aux[t]` captions.
pub fn fig5_rows(h: &PipelineHarness, kind: MebKind) -> Vec<RowSpec> {
    let mut rows = vec![RowSpec::channel(h.pipeline.input, "Input")];
    for (i, name) in h.pipeline.meb_names.iter().enumerate() {
        match kind {
            MebKind::Full => {
                for t in 0..2 {
                    rows.push(RowSpec::slot(
                        name,
                        format!("q[{t}][0]"),
                        format!("MEB#{i} main[{t}]"),
                    ));
                    rows.push(RowSpec::slot(
                        name,
                        format!("q[{t}][1]"),
                        format!("MEB#{i} aux[{t}]"),
                    ));
                }
            }
            MebKind::Reduced => {
                for t in 0..2 {
                    rows.push(RowSpec::slot(
                        name,
                        format!("main[{t}]"),
                        format!("MEB#{i} main[{t}]"),
                    ));
                }
                rows.push(RowSpec::slot(name, "shared", format!("MEB#{i} shared")));
            }
            MebKind::Fifo { depth } => {
                for t in 0..2 {
                    for d in 0..depth {
                        rows.push(RowSpec::slot(
                            name,
                            format!("q[{t}][{d}]"),
                            format!("MEB#{i} q[{t}][{d}]"),
                        ));
                    }
                }
            }
        }
        rows.push(RowSpec::channel(
            h.pipeline.channels[i + 1],
            format!("Channel {i}"),
        ));
    }
    rows.pop();
    rows.push(RowSpec::channel(h.pipeline.output, "Output"));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use elastic_sim::GridTrace;

    #[test]
    fn fig5_runs_and_renders_for_both_kinds() {
        for kind in [MebKind::Full, MebKind::Reduced] {
            let setup = Fig5Setup::paper(kind);
            let h = fig5_harness(&setup);
            let grid = GridTrace::new(fig5_rows(&h, kind));
            let rendered = grid.render(h.circuit.trace().expect("traced"), 0, setup.cycles - 1);
            assert!(rendered.contains("Input"), "{rendered}");
            assert!(rendered.contains("Output"));
            assert!(rendered.contains("A0"));
            assert!(rendered.contains("B0"));
        }
    }

    #[test]
    fn all_tokens_eventually_delivered_in_both_variants() {
        for kind in [MebKind::Full, MebKind::Reduced] {
            let h = fig5_harness(&Fig5Setup::paper(kind));
            assert_eq!(h.sink().consumed_total(), 16, "{kind}");
        }
    }

    #[test]
    fn shared_slot_absorbs_the_stalled_thread_in_reduced() {
        let setup = Fig5Setup::paper(MebKind::Reduced);
        let h = fig5_harness(&setup);
        let trace = h.circuit.trace().expect("traced");
        // During the stall, some MEB's shared slot must hold a B token.
        let some_shared_b = trace.records().iter().any(|r| {
            r.slots.iter().map(|(_, slots)| slots).any(|slots| {
                slots.iter().any(|s| {
                    s.name == "shared" && s.occupant.as_ref().is_some_and(|(t, _)| *t == 1)
                })
            })
        });
        assert!(
            some_shared_b,
            "shared register never held the stalled thread"
        );
    }
}
