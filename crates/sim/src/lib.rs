//! # elastic-sim — a cycle-accurate kernel for (multithreaded) elastic circuits
//!
//! This crate is the simulation substrate for the reproduction of
//! *"Hardware Primitives for the Synthesis of Multithreaded Elastic
//! Systems"* (Dimitrakopoulos et al., DATE 2014). It provides:
//!
//! * [`Channel`](ChannelId)s carrying data plus per-thread `valid/ready`
//!   handshake pairs — the multithreaded elastic channel of the paper's
//!   Sec. III (a 1-thread channel is the baseline elastic channel of
//!   Sec. II);
//! * a [`Component`] model with a combinational phase ([`EvalCtx`]) and a
//!   clock edge ([`TickCtx`]), evaluated to a fixed point each cycle by
//!   [`Circuit`];
//! * structural validation via [`CircuitBuilder`];
//! * testbench endpoints ([`Source`], [`Sink`] with [`ReadyPolicy`]),
//!   variable-latency servers ([`VarLatency`]) and combinational
//!   [`Transform`] units;
//! * per-channel, per-thread [`Stats`] and a cycle [`TraceRecorder`] with
//!   ASCII renderers ([`GridTrace`], [`render_waveform`]) used to
//!   regenerate the paper's Figures 2 and 5.
//!
//! The kernel *checks the protocol*: multiple simultaneous `valid(i)` on a
//! channel, valid-without-data, unsettleable combinational loops and
//! (optionally) deadlock are reported as [`SimError`]s rather than silently
//! mis-simulated.
//!
//! The settle phase is **event-driven** by default ([`EvalMode`]): after
//! one full sweep per cycle, only components woken by a signal change on a
//! channel they declared sensitivity to ([`Component::comb_paths`]) are
//! re-evaluated, and the saved work is reported through [`KernelStats`].
//! Every cycle is stepped: the kernel never jumps the clock. The builder
//! additionally compiles the declarations into a **levelized rank
//! schedule** ([`CircuitBuilder::build`]): components are permuted so each
//! evaluates after everything it combinationally depends on, making the
//! round-1 sweep the fixed point on acyclic nets, and
//! genuine zero-latency handshake cycles are rejected at build time with
//! the offending component names ([`BuildError::CombinationalLoop`]). The
//! exhaustive sweep of the original kernel is kept as an equivalence
//! oracle ([`EvalMode::Exhaustive`]); `docs/kernel.md` documents both and
//! the argument for why they reach identical fixed points.
//!
//! # Example
//!
//! A source feeding a sink through a wire (the smallest legal circuit):
//!
//! ```
//! use elastic_sim::{CircuitBuilder, ReadyPolicy, Sink, Source};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = CircuitBuilder::<u64>::new();
//! let ch = b.channel("wire", 1);
//! let mut src = Source::new("src", ch, 1);
//! src.extend(0, [10, 20, 30]);
//! b.add(src);
//! b.add(Sink::with_capture("snk", ch, 1, ReadyPolicy::Always));
//! let mut circuit = b.build()?;
//! circuit.run(5)?;
//! let snk: &Sink<u64> = circuit.get("snk").expect("sink exists");
//! assert_eq!(snk.consumed_total(), 3);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod builder;
mod channel;
mod circuit;
mod component;
mod error;
mod fnv;
mod latency;
mod mask;
mod netlist;
mod occupancy;
mod par;
mod rank;
mod schedule;
mod stats;
mod sweep;
mod token;
mod trace;
mod varlat;
mod vcd;

pub use builder::CircuitBuilder;
pub use channel::{ChannelId, ChannelSpec};
pub use circuit::{Circuit, CycleReport, EvalCtx, EvalMode, TickCtx, Transfer};
pub use component::{conservative_paths, CombPath, Component, FusedOpKind, Ports, SlotView};
pub use error::{BuildError, ProtocolError, SimError};
pub use fnv::Fnv1a;
pub use latency::{token_latencies, LatencySummary, TokenLatencies};
pub use mask::{Ones, ThreadMask};
pub use netlist::{NetlistEdge, NetlistGraph};
pub use occupancy::{occupancy_stats, OccupancyStats};
pub use par::{
    available_workers, run_sweep, run_sweep_on, JobError, JobReport, SimJob, SweepReport,
};
pub use rank::Adjacency;
pub use schedule::{ReadyPolicy, Sink, Source};
pub use stats::{
    ChannelFeedback, ChannelStats, FeedbackProfile, KernelStats, Stats, OCCUPANCY_BUCKETS,
};
pub use sweep::{campaign_key, SweepService, DEFAULT_CACHE_CAPACITY};
pub use token::{thread_letter, Tagged, Token};
pub use trace::{render_waveform, ChannelTrace, CycleTrace, GridTrace, RowSpec, TraceRecorder};
pub use varlat::{LatencyModel, Transform, VarLatency};
pub use vcd::{write_vcd, VcdChannel, VcdError};

#[cfg(test)]
mod kernel_tests {
    use super::*;

    /// The whole simulation stack must be shippable across threads: the
    /// parallel sweep harness moves fully-built [`Circuit`]s (and the
    /// closures that build them) onto pool workers. `Component<T>` and
    /// `Token` carry `Send` bounds; this proves they compose all the way
    /// up, and guards against a future `Rc`/`RefCell` sneaking in.
    #[test]
    fn circuits_and_jobs_are_send() {
        fn assert_send<X: Send>() {}
        assert_send::<Circuit<u64>>();
        assert_send::<Circuit<Tagged<u64>>>();
        assert_send::<Circuit<String>>();
        assert_send::<Box<dyn Component<u64>>>();
        assert_send::<Source<Tagged>>();
        assert_send::<Sink<Tagged>>();
        assert_send::<SimJob<Vec<u64>>>();
        assert_send::<SweepReport<Stats>>();
    }

    /// Source → Transform → Sink end to end through the kernel.
    #[test]
    fn source_transform_sink_roundtrip() {
        let mut b = CircuitBuilder::<u64>::new();
        let a = b.channel("a", 1);
        let c = b.channel("c", 1);
        let mut src = Source::new("src", a, 1);
        src.extend(0, [1, 2, 3, 4]);
        b.add(src);
        b.add(Transform::new("double", a, c, 1, |x| x * 2));
        b.add(Sink::with_capture("snk", c, 1, ReadyPolicy::Always));
        let mut circuit = b.build().expect("valid circuit");
        circuit.run(6).expect("no protocol error");
        let snk: &Sink<u64> = circuit.get("snk").expect("sink");
        let got: Vec<u64> = snk.captured(0).iter().map(|(_, t)| *t).collect();
        assert_eq!(got, vec![2, 4, 6, 8]);
    }

    /// A never-ready sink stalls the source; nothing is consumed and the
    /// source keeps re-offering the same token (valid-with-stall).
    #[test]
    fn backpressure_stalls_injection() {
        let mut b = CircuitBuilder::<u64>::new();
        let a = b.channel("a", 1);
        let mut src = Source::new("src", a, 1);
        src.extend(0, [1, 2]);
        b.add(src);
        b.add(Sink::with_capture("snk", a, 1, ReadyPolicy::Never));
        let mut circuit = b.build().expect("valid");
        circuit.run(10).expect("runs");
        let src: &Source<u64> = circuit.get("src").expect("source");
        assert_eq!(src.pending_total(), 2);
        assert_eq!(circuit.stats().total_transfers(a), 0);
        assert_eq!(circuit.stats().stall_rate(a), 1.0);
        assert_eq!(circuit.stats().utilization(a), 1.0);
    }

    /// Two threads share a channel: the MT invariant holds and round-robin
    /// interleaves them fairly.
    #[test]
    fn two_threads_interleave_round_robin() {
        let mut b = CircuitBuilder::<u64>::new();
        let a = b.channel("a", 2);
        let mut src = Source::new("src", a, 2);
        src.extend(0, 0..8u64);
        src.extend(1, 100..108u64);
        b.add(src);
        b.add(Sink::with_capture("snk", a, 2, ReadyPolicy::Always));
        let mut circuit = b.build().expect("valid");
        circuit.run(16).expect("no invariant violation");
        let snk: &Sink<u64> = circuit.get("snk").expect("sink");
        assert_eq!(snk.consumed(0), 8);
        assert_eq!(snk.consumed(1), 8);
        // Each thread got exactly half the cycles.
        assert!((circuit.stats().throughput(a, 0) - 0.5).abs() < 1e-9);
        assert!((circuit.stats().throughput(a, 1) - 0.5).abs() < 1e-9);
    }

    /// Variable latency preserves per-thread FIFO order under random
    /// downstream stalls.
    #[test]
    fn varlatency_preserves_thread_order() {
        let mut b = CircuitBuilder::<u64>::new();
        let a = b.channel("a", 2);
        let c = b.channel("c", 2);
        let mut src = Source::new("src", a, 2);
        src.extend(0, 0..20u64);
        src.extend(1, 100..120u64);
        b.add(src);
        b.add(VarLatency::new(
            "mem",
            a,
            c,
            2,
            3,
            LatencyModel::Uniform {
                min: 1,
                max: 4,
                seed: 99,
            },
        ));
        b.add(Sink::with_capture(
            "snk",
            c,
            2,
            ReadyPolicy::Random { p: 0.7, seed: 5 },
        ));
        let mut circuit = b.build().expect("valid");
        circuit.run(400).expect("runs clean");
        let snk: &Sink<u64> = circuit.get("snk").expect("sink");
        let t0: Vec<u64> = snk.captured(0).iter().map(|(_, t)| *t).collect();
        let t1: Vec<u64> = snk.captured(1).iter().map(|(_, t)| *t).collect();
        assert_eq!(t0, (0..20u64).collect::<Vec<_>>());
        assert_eq!(t1, (100..120u64).collect::<Vec<_>>());
    }

    /// The deadlock watchdog fires on a permanently blocked circuit.
    #[test]
    fn watchdog_detects_permanent_stall() {
        let mut b = CircuitBuilder::<u64>::new();
        let a = b.channel("a", 1);
        let mut src = Source::new("src", a, 1);
        src.push(0, 1);
        b.add(src);
        b.add(Sink::new("snk", a, 1, ReadyPolicy::Never));
        let mut circuit = b.build().expect("valid");
        circuit.set_deadlock_watchdog(Some(5));
        let err = circuit.run(100).expect_err("watchdog must fire");
        assert!(matches!(err, SimError::Deadlock { .. }));
        let hist = |c: &Circuit<u64>| c.stats().channel(a).occupancy_hist;
        assert_eq!(hist(&circuit), [1, 1, 1, 1, 0, 0, 0, 0]);
        // Stepping on runs the stuck cycle again, which is still not
        // counted: the deadlocked cycle 4 takes back its stall.
        let err = circuit.step().expect_err("still stuck");
        assert!(matches!(err, SimError::Deadlock { cycle: 4, .. }));
        assert_eq!(hist(&circuit), [1, 1, 1, 1, 0, 0, 0, 0]);
    }

    /// Tracing records fired transfers with labels.
    #[test]
    fn trace_records_transfers() {
        let mut b = CircuitBuilder::<Tagged<u64>>::new();
        let a = b.channel("a", 2);
        let mut src = Source::new("src", a, 2);
        src.push(0, Tagged::new(0, 0, 1u64));
        src.push(1, Tagged::new(1, 0, 2u64));
        b.add(src);
        b.add(Sink::new("snk", a, 2, ReadyPolicy::Always));
        let mut circuit = b.build().expect("valid");
        circuit.enable_trace();
        circuit.run(4).expect("clean");
        let transfers = circuit.trace().expect("trace on").transfers_on(a);
        let labels: Vec<&str> = transfers.iter().map(|(_, _, l)| l.as_str()).collect();
        assert_eq!(labels.len(), 2);
        assert!(labels.contains(&"A0"));
        assert!(labels.contains(&"B0"));
    }

    /// Builds the same randomized pipeline twice and runs it under both
    /// eval modes; captures, stats and injection counts must be
    /// bit-identical (the dirty-set kernel is an optimization, not a
    /// semantics change).
    #[test]
    fn event_driven_kernel_matches_exhaustive_oracle() {
        let build = || {
            let mut b = CircuitBuilder::<u64>::new();
            let a = b.channel("a", 3);
            let c = b.channel("c", 3);
            let d = b.channel("d", 3);
            let mut src = Source::new("src", a, 3);
            src.extend(0, 0..25u64);
            src.extend(1, 100..125u64);
            src.extend(2, 200..225u64);
            b.add(src);
            b.add(VarLatency::new(
                "mem",
                a,
                c,
                3,
                2,
                LatencyModel::Uniform {
                    min: 1,
                    max: 5,
                    seed: 31,
                },
            ));
            b.add(Transform::new("inc", c, d, 3, |x| x + 1));
            b.add(Sink::with_capture(
                "snk",
                d,
                3,
                ReadyPolicy::Random { p: 0.6, seed: 77 },
            ));
            b.build().expect("valid")
        };

        let mut oracle = build();
        oracle.set_eval_mode(EvalMode::Exhaustive);
        oracle.run(600).expect("oracle runs clean");

        let mut fast = build();
        assert_eq!(fast.eval_mode(), EvalMode::EventDriven);
        fast.run(600).expect("event-driven runs clean");

        let o: &Sink<u64> = oracle.get("snk").expect("sink");
        let f: &Sink<u64> = fast.get("snk").expect("sink");
        for t in 0..3 {
            assert_eq!(o.captured(t), f.captured(t), "thread {t} capture diverged");
        }
        assert_eq!(
            oracle.stats().total_transfers(ChannelId(2)),
            fast.stats().total_transfers(ChannelId(2))
        );
        // And the dirty-set kernel must actually have skipped work.
        assert!(
            fast.stats().kernel().component_evals < oracle.stats().kernel().component_evals,
            "event-driven kernel did not save any evals ({} vs {})",
            fast.stats().kernel().component_evals,
            oracle.stats().kernel().component_evals,
        );
    }

    /// A cycle whose warm-started signals are already at the fixed point
    /// (here: a token stalled at an unready sink) converges inside the
    /// single full sweep and goes straight to the clock edge — the
    /// counters prove it.
    #[test]
    fn converged_first_sweep_skips_further_rounds() {
        let mut b = CircuitBuilder::<u64>::new();
        let a = b.channel("a", 1);
        let mut src = Source::new("src", a, 1);
        src.extend(0, 0..2u64);
        b.add(src);
        b.add(Sink::new(
            "snk",
            a,
            1,
            ReadyPolicy::StallWindow { from: 0, to: 6 },
        ));
        let mut circuit = b.build().expect("valid");
        circuit.run(8).expect("clean");
        let k = circuit.stats().kernel();
        // Every stepped cycle runs at least one round, so fewer than two
        // rounds per cycle on average means some cycle ran only one.
        assert!(
            k.settle_rounds < 2 * k.stepped_cycles,
            "no cycle converged in one sweep: {k:?}"
        );
        assert!(
            k.rounds_per_cycle() < 3.0,
            "rounds per cycle too high: {k:?}"
        );
    }

    /// `run_until` stops as soon as the predicate holds.
    #[test]
    fn run_until_predicate() {
        let mut b = CircuitBuilder::<u64>::new();
        let a = b.channel("a", 1);
        let mut src = Source::new("src", a, 1);
        src.extend(0, 0..100u64);
        b.add(src);
        b.add(Sink::new("snk", a, 1, ReadyPolicy::Always));
        let mut circuit = b.build().expect("valid");
        let done = circuit
            .run_until(1000, |c| c.stats().total_transfers(a) >= 10)
            .expect("clean");
        assert!(done);
        assert_eq!(circuit.stats().total_transfers(a), 10);
    }
}
