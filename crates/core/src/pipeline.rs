//! Helpers for building linear MEB pipelines — the structure of the
//! paper's Figure 5 experiment and of every pipelined datapath in the
//! design examples (pipeline registers replaced by MEBs, Sec. V-B).

use elastic_sim::{
    ChannelId, Circuit, CircuitBuilder, EvalMode, ReadyPolicy, Sink, Source, Tagged, Token,
};

use crate::arbiter::ArbiterKind;
use crate::meb::MebKind;

/// Channel/component handles of a linear MEB pipeline.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MebPipeline {
    /// Channel feeding stage 0 (attach a producer here).
    pub input: ChannelId,
    /// Channel leaving the last stage (attach a consumer here).
    pub output: ChannelId,
    /// All `stages + 1` channels in order, `channels[0] == input`.
    pub channels: Vec<ChannelId>,
    /// MEB instance names, `meb_names[i]` between `channels[i]` and
    /// `channels[i + 1]`.
    pub meb_names: Vec<String>,
}

/// Adds a linear pipeline of `stages` MEBs to `builder`.
///
/// Channels are named `{prefix}ch{i}` and MEBs `{prefix}meb{i}`.
///
/// # Panics
///
/// Panics if `stages == 0` or `threads == 0`.
pub fn build_meb_pipeline<T: Token>(
    builder: &mut CircuitBuilder<T>,
    prefix: &str,
    threads: usize,
    stages: usize,
    kind: MebKind,
    arbiter: ArbiterKind,
) -> MebPipeline {
    assert!(stages > 0, "a pipeline needs at least one stage");
    let channels = builder.channels(&format!("{prefix}ch"), threads, stages + 1);
    let mut meb_names = Vec::with_capacity(stages);
    for i in 0..stages {
        let name = format!("{prefix}meb{i}");
        builder.add_boxed(kind.build::<T>(
            name.clone(),
            channels[i],
            channels[i + 1],
            threads,
            arbiter.build(),
        ));
        meb_names.push(name);
    }
    MebPipeline {
        input: channels[0],
        output: channels[stages],
        channels,
        meb_names,
    }
}

/// A complete source → MEB pipeline → sink testbench over [`Tagged`]
/// tokens, the workhorse of the Figure 5 and throughput experiments.
#[derive(Debug)]
pub struct PipelineHarness {
    /// The built circuit.
    pub circuit: Circuit<Tagged>,
    /// Pipeline channel handles.
    pub pipeline: MebPipeline,
}

/// Configuration for [`PipelineHarness::build`].
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Thread count `S`.
    pub threads: usize,
    /// Number of MEB stages.
    pub stages: usize,
    /// MEB microarchitecture.
    pub kind: MebKind,
    /// Arbitration policy in every stage.
    pub arbiter: ArbiterKind,
    /// Tokens to inject per thread (`Tagged { thread, seq }`).
    pub tokens_per_thread: Vec<u64>,
    /// Per-thread sink policy.
    pub sink_policies: Vec<ReadyPolicy>,
    /// Settle-phase scheduling mode of the built circuit (the dirty-set
    /// kernel by default; [`EvalMode::Exhaustive`] for oracle runs).
    pub eval_mode: EvalMode,
}

impl PipelineConfig {
    /// A free-flowing configuration: `threads` threads, `stages` stages,
    /// `n` tokens per thread, always-ready sink.
    pub fn free_flowing(threads: usize, stages: usize, kind: MebKind, n: u64) -> Self {
        Self {
            threads,
            stages,
            kind,
            arbiter: ArbiterKind::RoundRobin,
            tokens_per_thread: vec![n; threads],
            sink_policies: vec![ReadyPolicy::Always; threads],
            eval_mode: EvalMode::default(),
        }
    }

    /// Overrides one thread's sink policy (e.g. "thread B stalls").
    #[must_use]
    pub fn with_sink_policy(mut self, thread: usize, policy: ReadyPolicy) -> Self {
        self.sink_policies[thread] = policy;
        self
    }

    /// Selects the simulation kernel's settle-phase mode.
    #[must_use]
    pub fn with_eval_mode(mut self, mode: EvalMode) -> Self {
        self.eval_mode = mode;
        self
    }
}

impl PipelineHarness {
    /// Builds the testbench circuit.
    ///
    /// # Panics
    ///
    /// Panics if the configuration vectors do not match `threads`, or if
    /// the netlist is internally inconsistent (a bug in this helper).
    pub fn build(config: PipelineConfig) -> Self {
        assert_eq!(config.tokens_per_thread.len(), config.threads);
        assert_eq!(config.sink_policies.len(), config.threads);
        let mut b = CircuitBuilder::<Tagged>::new();
        let pipeline = build_meb_pipeline(
            &mut b,
            "p.",
            config.threads,
            config.stages,
            config.kind,
            config.arbiter,
        );
        let mut src = Source::new("src", pipeline.input, config.threads);
        for (t, &n) in config.tokens_per_thread.iter().enumerate() {
            src.extend(t, (0..n).map(|i| Tagged::new(t, i, i)));
        }
        b.add(src);
        let mut sink =
            Sink::with_capture("snk", pipeline.output, config.threads, ReadyPolicy::Always);
        for (t, p) in config.sink_policies.iter().enumerate() {
            sink.set_policy(t, p.clone());
        }
        b.add(sink);
        let mut circuit = b.build().expect("pipeline harness netlist is well-formed");
        circuit.set_eval_mode(config.eval_mode);
        Self { circuit, pipeline }
    }

    /// Convenience: the captured sink.
    pub fn sink(&self) -> &Sink<Tagged> {
        self.circuit.get("snk").expect("harness sink exists")
    }

    /// Convenience: the source.
    pub fn source(&self) -> &Source<Tagged> {
        self.circuit.get("src").expect("harness source exists")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elastic_sim::FusedOpKind;

    /// Every paper primitive — and the fully-assembled harness — must be
    /// `Send` so whole pipelines can be handed to the parallel sweep
    /// workers in `elastic-sim` (`run_sweep`). This is a compile-time
    /// guard against interior `Rc`/`RefCell` state creeping into a
    /// buffer or arbiter implementation.
    #[test]
    fn primitives_and_harness_are_send() {
        fn assert_send<X: Send>() {}
        assert_send::<PipelineHarness>();
        assert_send::<crate::ElasticBuffer<Tagged>>();
        assert_send::<crate::ReducedMeb<Tagged>>();
        assert_send::<crate::FifoMeb<Tagged>>();
        assert_send::<crate::Barrier<Tagged>>();
        assert_send::<crate::Join<Tagged>>();
        assert_send::<crate::Fork<Tagged>>();
        assert_send::<crate::Branch<Tagged>>();
        assert_send::<crate::Merge<Tagged>>();
    }

    #[test]
    fn harness_runs_free_flowing_pipeline_to_completion() {
        let cfg = PipelineConfig::free_flowing(2, 3, MebKind::Reduced, 10);
        let mut h = PipelineHarness::build(cfg);
        h.circuit.run(80).expect("clean");
        assert_eq!(h.sink().consumed_total(), 20);
        assert!(h.source().is_drained());
    }

    /// The settle loop tallies every evaluation under its component's
    /// `op_kind`, so the per-op counters add up to the eval total.
    #[test]
    fn per_op_eval_counts_sum_to_component_evals() {
        let mut cfg = PipelineConfig::free_flowing(8, 4, MebKind::Reduced, 40);
        for t in 0..8 {
            cfg = cfg.with_sink_policy(
                t,
                ReadyPolicy::Random {
                    p: 0.5,
                    seed: t as u64,
                },
            );
        }
        let mut h = PipelineHarness::build(cfg);
        h.circuit.run(400).expect("clean");
        let k = h.circuit.stats().kernel();
        assert_eq!(k.fused_op_evals.iter().sum::<u64>(), k.component_evals);
        let per_kind: Vec<FusedOpKind> = k
            .fused_op_breakdown()
            .iter()
            .map(|&(kind, _)| kind)
            .collect();
        assert_eq!(
            per_kind,
            [
                FusedOpKind::Source,
                FusedOpKind::Sink,
                FusedOpKind::MebReduced
            ]
        );
    }

    #[test]
    fn pipeline_names_are_predictable() {
        let mut b = CircuitBuilder::<Tagged>::new();
        let p = build_meb_pipeline(&mut b, "x.", 2, 2, MebKind::Full, ArbiterKind::RoundRobin);
        assert_eq!(p.meb_names, vec!["x.meb0", "x.meb1"]);
        assert_eq!(p.channels.len(), 3);
        assert_eq!(p.input, p.channels[0]);
        assert_eq!(p.output, p.channels[2]);
    }

    #[test]
    fn eval_modes_agree_on_a_stalled_pipeline() {
        // The Figure 5 shape (thread B stalls mid-run) under both kernel
        // modes: captures must match exactly.
        let run = |mode: EvalMode| {
            let cfg = PipelineConfig::free_flowing(2, 3, MebKind::Reduced, 15)
                .with_sink_policy(1, ReadyPolicy::StallWindow { from: 4, to: 12 })
                .with_eval_mode(mode);
            let mut h = PipelineHarness::build(cfg);
            assert_eq!(h.circuit.eval_mode(), mode);
            h.circuit.run(120).expect("clean");
            (0..2)
                .map(|t| h.sink().captured(t).to_vec())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(EvalMode::EventDriven), run(EvalMode::Exhaustive));
    }

    /// 65 threads straddle the packed mask's `u64` word boundary: thread
    /// 64 lives in the spillover word. Both kernel modes must agree
    /// bit-exactly even with stalls landing on threads in either word.
    #[test]
    fn eval_modes_agree_across_the_mask_word_boundary() {
        let threads = 65;
        let run = |mode: EvalMode| {
            let cfg = PipelineConfig::free_flowing(threads, 2, MebKind::Reduced, 3)
                .with_sink_policy(0, ReadyPolicy::StallWindow { from: 2, to: 30 })
                .with_sink_policy(63, ReadyPolicy::Random { p: 0.5, seed: 7 })
                .with_sink_policy(64, ReadyPolicy::StallWindow { from: 5, to: 40 })
                .with_eval_mode(mode);
            let mut h = PipelineHarness::build(cfg);
            h.circuit.run(2_000).expect("clean");
            (0..threads)
                .map(|t| h.sink().captured(t).to_vec())
                .collect::<Vec<_>>()
        };
        let event = run(EvalMode::EventDriven);
        let oracle = run(EvalMode::Exhaustive);
        assert_eq!(event, oracle);
        // Every thread — both words of the mask — completed its tokens.
        for (t, caps) in oracle.iter().enumerate() {
            assert_eq!(caps.len(), 3, "thread {t} lost tokens");
        }
    }

    #[test]
    fn full_and_reduced_agree_when_nothing_stalls() {
        // Without stalls the two microarchitectures are observationally
        // equivalent (same transfer counts and completion time).
        let mut results = Vec::new();
        for kind in [MebKind::Full, MebKind::Reduced] {
            let cfg = PipelineConfig::free_flowing(4, 3, kind, 25);
            let mut h = PipelineHarness::build(cfg);
            h.circuit.run(150).expect("clean");
            results.push((
                h.sink().consumed_total(),
                h.circuit.stats().total_transfers(h.pipeline.output),
            ));
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[0].0, 100);
    }
}
