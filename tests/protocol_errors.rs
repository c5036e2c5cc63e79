//! The kernel's protocol checks, exercised deliberately: ill-formed
//! circuits must be *reported*, not mis-simulated.

use mt_elastic::sim::{
    impl_as_any, BuildError, ChannelId, Circuit, CircuitBuilder, Component, EvalCtx, Ports,
    ProtocolError, ReadyPolicy, SimError, Sink, Source, TickCtx, Transform,
};

/// A misbehaving producer that asserts two valids at once.
struct DoubleValid {
    out: ChannelId,
}

impl Component<u64> for DoubleValid {
    fn name(&self) -> &str {
        "double_valid"
    }
    fn ports(&self) -> Ports {
        Ports::new([], [self.out])
    }
    fn eval(&mut self, ctx: &mut EvalCtx<'_, u64>) {
        ctx.set_valid(self.out, 0, true);
        ctx.set_valid(self.out, 1, true);
        ctx.set_data(self.out, Some(1));
    }
    fn tick(&mut self, _ctx: &TickCtx<'_, u64>) {}
    impl_as_any!();
}

/// A producer that asserts valid but never drives data.
struct NoData {
    out: ChannelId,
}

impl Component<u64> for NoData {
    fn name(&self) -> &str {
        "no_data"
    }
    fn ports(&self) -> Ports {
        Ports::new([], [self.out])
    }
    fn eval(&mut self, ctx: &mut EvalCtx<'_, u64>) {
        ctx.set_valid(self.out, 0, true);
        ctx.set_data(self.out, None);
    }
    fn tick(&mut self, _ctx: &TickCtx<'_, u64>) {}
    impl_as_any!();
}

#[test]
fn multiple_valids_violate_the_mt_channel_invariant() {
    let mut b = CircuitBuilder::<u64>::new();
    let ch = b.channel("bus", 2);
    b.add(DoubleValid { out: ch });
    b.add(Sink::new("snk", ch, 2, ReadyPolicy::Always));
    let mut circuit = b.build().expect("structurally valid");
    let err = circuit.step().expect_err("invariant must trip");
    match err {
        SimError::ChannelInvariant {
            channel, threads, ..
        } => {
            assert_eq!(channel, "bus");
            assert_eq!(threads, vec![0, 1]);
        }
        other => panic!("unexpected: {other}"),
    }
}

#[test]
fn valid_without_data_is_reported() {
    let mut b = CircuitBuilder::<u64>::new();
    let ch = b.channel("bus", 1);
    b.add(NoData { out: ch });
    b.add(Sink::new("snk", ch, 1, ReadyPolicy::Always));
    let mut circuit = b.build().expect("structurally valid");
    let err = circuit.step().expect_err("missing data must trip");
    assert!(
        matches!(err, SimError::MissingData { thread: 0, .. }),
        "{err}"
    );
}

/// Two combinational transforms wired in a loop: structurally legal (one
/// driver/reader per channel) but has no settling fixed point — the
/// circuit class elastic design forbids without a buffer. The rank
/// schedule rejects it at build time, naming the offending components.
#[test]
fn unbuffered_combinational_loop_is_detected() {
    struct Gate {
        name: &'static str,
        invert: bool,
        inp: ChannelId,
        out: ChannelId,
    }
    impl Component<u64> for Gate {
        fn name(&self) -> &str {
            self.name
        }
        fn ports(&self) -> Ports {
            Ports::new([self.inp], [self.out])
        }
        fn eval(&mut self, ctx: &mut EvalCtx<'_, u64>) {
            let v = ctx.valid(self.inp, 0);
            ctx.set_valid(self.out, 0, v ^ self.invert);
            ctx.set_data(self.out, Some(0));
            ctx.set_ready(self.inp, 0, false);
        }
        fn tick(&mut self, _ctx: &TickCtx<'_, u64>) {}
        impl_as_any!();
    }
    // x = !y and y = x ⇒ x = !x: no fixed point exists.
    let mut b = CircuitBuilder::<u64>::new();
    let x = b.channel("x", 1);
    let y = b.channel("y", 1);
    b.add(Gate {
        name: "not",
        invert: true,
        inp: x,
        out: y,
    });
    b.add(Gate {
        name: "wire",
        invert: false,
        inp: y,
        out: x,
    });
    let err = b
        .build()
        .expect_err("combinational loop must be rejected at build()");
    match err {
        BuildError::CombinationalLoop { components } => {
            assert_eq!(
                components,
                vec!["not".to_string(), "wire".to_string()],
                "both gates on the cycle must be named"
            );
        }
        other => panic!("expected CombinationalLoop, got {other}"),
    }
}

/// A component driving a channel it does not own is a programming error
/// caught by the eval context's ownership assertions.
#[test]
fn driving_a_foreign_channel_panics() {
    struct Trespasser {
        mine: ChannelId,
        theirs: ChannelId,
    }
    impl Component<u64> for Trespasser {
        fn name(&self) -> &str {
            "trespasser"
        }
        fn ports(&self) -> Ports {
            Ports::new([], [self.mine])
        }
        fn eval(&mut self, ctx: &mut EvalCtx<'_, u64>) {
            ctx.drive_idle(self.mine);
            ctx.set_valid(self.theirs, 0, true); // not ours!
        }
        fn tick(&mut self, _ctx: &TickCtx<'_, u64>) {}
        impl_as_any!();
    }
    let mut b = CircuitBuilder::<u64>::new();
    let mine = b.channel("mine", 1);
    let theirs = b.channel("theirs", 1);
    b.add(Trespasser { mine, theirs });
    let mut src = Source::new("src", theirs, 1);
    src.push(0, 1);
    b.add(src);
    b.add(Sink::new("s1", mine, 1, ReadyPolicy::Always));
    b.add(Sink::new("s2", theirs, 1, ReadyPolicy::Always));
    let mut circuit = b.build().expect("structurally valid");
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| circuit.step()));
    assert!(r.is_err(), "ownership assertion must panic");
}

/// Drives nothing, and reports `errors` through `TickCtx::fault`, in
/// order, at the clock edge of cycle `at`.
struct FaultAt {
    name: &'static str,
    out: ChannelId,
    at: u64,
    errors: Vec<ProtocolError>,
}

impl Component<u64> for FaultAt {
    fn name(&self) -> &str {
        self.name
    }
    fn ports(&self) -> Ports {
        Ports::new([], [self.out])
    }
    fn eval(&mut self, ctx: &mut EvalCtx<'_, u64>) {
        ctx.drive_idle(self.out);
    }
    fn tick(&mut self, ctx: &TickCtx<'_, u64>) {
        if ctx.cycle() == self.at {
            for error in &self.errors {
                ctx.fault(error.clone());
            }
        }
    }
    fn reset(&mut self) -> bool {
        true
    }
    impl_as_any!();
}

/// A circuit of one [`FaultAt`] per `(name, errors)`, each faulting at
/// cycle 2, in that evaluation order.
fn faulting_at_cycle_2(units: &[(&'static str, &[ProtocolError])]) -> Circuit<u64> {
    let mut b = CircuitBuilder::<u64>::new();
    for &(name, errors) in units {
        let ch = b.channel(format!("{name}_out"), 1);
        b.add(FaultAt {
            name,
            out: ch,
            at: 2,
            errors: errors.to_vec(),
        });
        b.add(Sink::new(format!("{name}_snk"), ch, 1, ReadyPolicy::Always));
    }
    b.build().expect("structurally valid")
}

/// A component that reports a fault at its clock edge is surfaced as a
/// typed [`SimError::Component`] by the kernel — no panic, no
/// `catch_unwind`.
#[test]
fn latched_component_fault_is_surfaced_as_typed_error() {
    let mut circuit = faulting_at_cycle_2(&[("faulty_eb", &[ProtocolError::BufferUnderflow])]);
    let err = circuit.run(10).expect_err("fault must surface");
    match err {
        SimError::Component {
            cycle,
            component,
            error,
        } => {
            assert_eq!(cycle, 2);
            assert_eq!(component, "faulty_eb");
            assert_eq!(error, ProtocolError::BufferUnderflow);
        }
        other => panic!("unexpected: {other}"),
    }
}

/// Two components that fault at the same clock edge are both reported
/// with that edge's cycle, in evaluation order: the second comes out of
/// the next `step`, which simulates nothing. A component's second fault
/// in the same `tick` is dropped, and `Circuit::reset` drops a fault not
/// yet returned.
#[test]
fn two_faults_at_one_edge_keep_their_cycle() {
    let fault = |component: &str, error| SimError::Component {
        cycle: 2,
        component: component.to_string(),
        error,
    };
    let mut circuit = faulting_at_cycle_2(&[
        ("a", &[ProtocolError::BufferUnderflow]),
        (
            "b",
            &[
                ProtocolError::BufferOverflow,
                ProtocolError::BufferUnderflow,
            ],
        ),
    ]);
    let first = circuit.run(10).expect_err("the first fault surfaces");
    assert_eq!(first, fault("a", ProtocolError::BufferUnderflow));
    let (cycle, stats) = (circuit.cycle(), circuit.stats().clone());
    assert_eq!(cycle, 3, "the faulted edge has happened");
    let second = circuit.step().expect_err("the second fault surfaces");
    assert_eq!(second, fault("b", ProtocolError::BufferOverflow));
    assert_eq!(circuit.cycle(), cycle, "no cycle was simulated");
    assert_eq!(circuit.stats(), &stats);
    let report = circuit.step().expect("both faults are reported");
    assert_eq!(report.cycle, 3);

    circuit.reset().expect("every component resets");
    assert_eq!(
        circuit.run(10).expect_err("the first fault again"),
        fault("a", ProtocolError::BufferUnderflow)
    );
    circuit.reset().expect("every component resets");
    assert_eq!(circuit.step().expect("no stale fault").cycle, 0);
}

/// Offers the same token on thread 0 every cycle, fired or not.
struct Offer {
    name: &'static str,
    out: ChannelId,
}

impl Component<u64> for Offer {
    fn name(&self) -> &str {
        self.name
    }
    fn ports(&self) -> Ports {
        Ports::new([], [self.out])
    }
    fn eval(&mut self, ctx: &mut EvalCtx<'_, u64>) {
        ctx.drive_token(self.out, 0, 7);
    }
    fn tick(&mut self, _ctx: &TickCtx<'_, u64>) {}
    impl_as_any!();
}

/// Idle until cycle `from`, then offers two valid threads at once (or,
/// with `data` false, one valid thread without data).
struct BreaksAt {
    out: ChannelId,
    from: u64,
    data: bool,
}

impl Component<u64> for BreaksAt {
    fn name(&self) -> &str {
        "breaks"
    }
    fn ports(&self) -> Ports {
        Ports::new([], [self.out])
    }
    fn eval(&mut self, ctx: &mut EvalCtx<'_, u64>) {
        if ctx.cycle() < self.from {
            ctx.drive_idle(self.out);
        } else if self.data {
            ctx.set_valid(self.out, 0, true);
            ctx.set_valid(self.out, 1, true);
            ctx.set_data(self.out, Some(1));
        } else {
            ctx.set_valid(self.out, 0, true);
            ctx.set_data(self.out, None);
        }
    }
    fn tick(&mut self, _ctx: &TickCtx<'_, u64>) {}
    impl_as_any!();
}

/// A cycle that fails a channel check leaves every channel statistic and
/// the cycle count as they were, including those of the channels checked
/// before the failing one: an early channel that fires and one that
/// stalls, whose backpressure streak starts fresh (cycle 0), goes on
/// (`Never`), or starts again after a transfer (`Period`).
#[test]
fn failed_channel_check_leaves_the_statistics_untouched() {
    for (fail_at, stall) in [
        (0, ReadyPolicy::Never),
        (3, ReadyPolicy::Never),
        // Stalls at cycles 0 and 1, fires at 2, stalls again at 3.
        (
            3,
            ReadyPolicy::Period {
                on: 1,
                off: 2,
                phase: 1,
            },
        ),
    ] {
        for data in [true, false] {
            let mut b = CircuitBuilder::<u64>::new();
            let early = b.channel("early", 1);
            let stalled = b.channel("stalled", 1);
            let bad = b.channel("bad", 2);
            b.add(Offer {
                name: "fires",
                out: early,
            });
            b.add(Sink::new("early_snk", early, 1, ReadyPolicy::Always));
            b.add(Offer {
                name: "stalls",
                out: stalled,
            });
            b.add(Sink::new("stalled_snk", stalled, 1, stall.clone()));
            b.add(BreaksAt {
                out: bad,
                from: fail_at,
                data,
            });
            b.add(Sink::new("bad_snk", bad, 2, ReadyPolicy::Always));
            let mut circuit = b.build().expect("structurally valid");
            circuit.run(fail_at).expect("healthy until the bad cycle");
            let before = circuit.stats().clone();
            let err = circuit.step().expect_err("the bad channel trips");
            let expected = if data {
                SimError::ChannelInvariant {
                    cycle: fail_at,
                    channel: "bad".to_string(),
                    threads: vec![0, 1],
                }
            } else {
                SimError::MissingData {
                    cycle: fail_at,
                    channel: "bad".to_string(),
                    thread: 0,
                }
            };
            assert_eq!(err, expected);
            // The settle of the failing cycle did run, so only the
            // kernel counters move.
            let after = circuit.stats();
            assert_eq!(
                after.iter().collect::<Vec<_>>(),
                before.iter().collect::<Vec<_>>(),
                "fail at {fail_at}, {stall:?}"
            );
            assert_eq!(after.cycles(), before.cycles());
            assert_eq!(before.channel(early).total_transfers(), fail_at);
            assert!(before.channel(stalled).total_transfers() <= 1);
        }
    }
}

/// A step that the watchdog stops is not counted either: the deadlocked
/// cycle leaves the channel statistics, the cycle count, the trace and
/// the watchdog's idle count as they were. Stepping it again reports the
/// same deadlock, and once the stall is released every cycle is counted
/// exactly once.
#[test]
fn deadlocked_step_leaves_the_statistics_untouched() {
    use mt_elastic::core::{ArbiterKind, ReducedMeb};
    let mut b = CircuitBuilder::<u64>::new();
    let x = b.channel("x", 1);
    let y = b.channel("y", 1);
    let mut src = Source::new("src", x, 1);
    src.extend(0, 0..4u64);
    b.add(src);
    b.add(ReducedMeb::new(
        "meb",
        x,
        y,
        1,
        ArbiterKind::RoundRobin.build(),
    ));
    b.add(Sink::with_capture("snk", y, 1, ReadyPolicy::Never));
    let mut circuit = b.build().expect("valid");
    circuit.enable_trace();
    circuit.set_deadlock_watchdog(Some(3));
    let err = circuit.run(100).expect_err("the sink never takes a token");
    let &SimError::Deadlock {
        cycle, idle_cycles, ..
    } = &err
    else {
        panic!("expected a deadlock, got {err:?}");
    };
    assert_eq!(idle_cycles, 3);
    assert_eq!(circuit.cycle(), cycle);
    let traced = |c: &Circuit<u64>| c.trace().expect("tracing is on").records().len() as u64;
    let before = circuit.stats().clone();
    assert_eq!(before.cycles(), cycle);
    assert_eq!(traced(&circuit), cycle);

    // Stepping again runs the stuck cycle again: the same report, and
    // still nothing counted.
    assert_eq!(circuit.step().expect_err("still stuck"), err);
    let after = circuit.stats();
    assert_eq!(
        after.iter().collect::<Vec<_>>(),
        before.iter().collect::<Vec<_>>()
    );
    assert_eq!(after.cycles(), cycle);
    assert_eq!(traced(&circuit), cycle);

    // Released, the pipeline drains, and every cycle is counted once.
    circuit.set_deadlock_watchdog(None);
    let snk: &mut Sink<u64> = circuit.get_mut("snk").expect("sink");
    snk.set_policy(0, ReadyPolicy::Always);
    circuit.run(10).expect("drains");
    let snk: &Sink<u64> = circuit.get("snk").expect("sink");
    assert_eq!(snk.consumed_total(), 4);
    assert_eq!(circuit.stats().cycles(), circuit.cycle());
    assert_eq!(traced(&circuit), circuit.cycle());
    let stalled = circuit
        .trace()
        .expect("tracing is on")
        .records()
        .iter()
        .filter(|r| {
            let ch = &r.channels[y.index()];
            ch.valid_thread.is_some() && !ch.fired
        })
        .count() as u64;
    assert_eq!(circuit.stats().channel(y).total_stall_cycles(), stalled);
}

/// The elastic-buffer FSM reports violations as values, and seeding a MEB
/// beyond its per-thread capacity is a typed error too (these used to be
/// `panic!`s that tests had to catch as unwinds).
#[test]
fn buffer_protocol_violations_are_typed_values() {
    use mt_elastic::core::{ArbiterKind, EbState, ReducedMeb};

    assert_eq!(
        EbState::Empty.advance(false, true),
        Err(ProtocolError::BufferUnderflow)
    );
    assert_eq!(
        EbState::Full.advance(true, false),
        Err(ProtocolError::BufferOverflow)
    );
    assert_eq!(EbState::Half.advance(true, false), Ok(EbState::Full));

    let mut b = CircuitBuilder::<u64>::new();
    let a = b.channel("a", 2);
    let c = b.channel("c", 2);
    let err = ReducedMeb::<u64>::new("m", a, c, 2, ArbiterKind::RoundRobin.build())
        .with_initial(vec![(1, 5), (1, 6)])
        .err()
        .expect("reduced MEB holds one initial token per thread");
    assert_eq!(
        err,
        ProtocolError::ExcessInitialTokens {
            thread: 1,
            capacity: 1
        }
    );
    assert!(err.to_string().contains("thread 1"));
}

/// The same loop, legalized with an elastic buffer, settles fine — the
/// canonical fix the error message suggests.
#[test]
fn a_buffer_cuts_the_loop() {
    use mt_elastic::core::ElasticBuffer;
    let mut b = CircuitBuilder::<u64>::new();
    let x = b.channel("x", 1);
    let y = b.channel("y", 1);
    let z = b.channel("z", 1);
    let mut src = Source::new("src", x, 1);
    src.extend(0, 0..5u64);
    b.add(src);
    b.add(Transform::new("inc", x, y, 1, |v| v + 1));
    b.add(ElasticBuffer::new("eb", y, z));
    b.add(Sink::with_capture("snk", z, 1, ReadyPolicy::Always));
    let mut circuit = b.build().expect("valid");
    circuit.run(10).expect("settles every cycle");
    let snk: &Sink<u64> = circuit.get("snk").expect("sink");
    assert_eq!(snk.consumed_total(), 5);
}

/// A routing fork whose route function selects no output, or an output
/// the fork does not have, stalls the token and reports a typed fault at
/// the clock edge instead of panicking inside `eval`.
#[test]
fn misrouted_fork_reports_a_typed_fault() {
    use mt_elastic::core::Fork;
    for bad in [0u64, 0b100] {
        let mut b = CircuitBuilder::<u64>::new();
        let x = b.channel("x", 1);
        let y0 = b.channel("y0", 1);
        let y1 = b.channel("y1", 1);
        let mut src = Source::new("src", x, 1);
        src.extend(0, 0..4u64);
        b.add(src);
        // Token 2 is mis-routed; the others go to output 0.
        b.add(Fork::new("router", x, vec![y0, y1], 1).with_route(
            move |v: &u64| {
                if *v == 2 {
                    bad
                } else {
                    0b01
                }
            },
        ));
        b.add(Sink::with_capture("s0", y0, 1, ReadyPolicy::Always));
        b.add(Sink::with_capture("s1", y1, 1, ReadyPolicy::Always));
        let mut circuit = b.build().expect("structurally valid");
        let err = circuit.run(10).expect_err("the bad route must surface");
        match err {
            SimError::Component {
                cycle,
                component,
                error,
            } => {
                assert_eq!(cycle, 2);
                assert_eq!(component, "router");
                assert_eq!(
                    error,
                    ProtocolError::InvalidRoute {
                        mask: bad,
                        outputs: 2
                    }
                );
            }
            other => panic!("unexpected: {other}"),
        }
        let s0: &Sink<u64> = circuit.get("s0").expect("sink");
        assert_eq!(
            s0.consumed(0),
            2,
            "tokens before the bad one were delivered"
        );
        let s1: &Sink<u64> = circuit.get("s1").expect("sink");
        assert_eq!(s1.consumed(0), 0, "the mis-routed token went nowhere");
    }
}

/// A load or store outside the processor's data memory reports a typed
/// fault at the clock edge that accepts it instead of panicking, and the
/// faulting access leaves memory untouched.
#[test]
fn out_of_range_memory_access_reports_a_typed_fault() {
    use mt_elastic::proc::{Cpu, CpuConfig, CpuError};
    for program in [
        "lw r1, -1(r0)\nhalt\n",
        "addi r1, r0, 7\nsw r1, -1(r0)\nhalt\n",
    ] {
        let config = CpuConfig::new(1);
        let words = config.dmem_words;
        let mut cpu = Cpu::from_asm(config, program).expect("assembles");
        match cpu.run_to_halt(1_000) {
            Err(CpuError::Sim(SimError::Component {
                component, error, ..
            })) => {
                assert_eq!(component, "dmem");
                assert_eq!(
                    error,
                    ProtocolError::AddressOutOfRange {
                        addr: u32::MAX,
                        words
                    }
                );
            }
            other => panic!("{program:?}: unexpected: {other:?}"),
        }
        let dmem = cpu.dmem();
        assert!(
            (0..dmem.size()).all(|a| dmem.read(a) == 0),
            "{program:?}: the faulting access touched memory"
        );
        // The access was dropped, not wedged: stepping on drains the
        // pipeline and halts.
        cpu.run_to_halt(1_000).expect("runs on past the fault");
    }
}

/// An undecodable instruction word reports a typed fault when it is
/// fetched, and again when it reaches decode if the caller steps on after
/// the first error; the thread stops fetching and the pipeline drains.
#[test]
fn invalid_instruction_reports_a_typed_fault() {
    use mt_elastic::proc::{Cpu, CpuConfig, CpuError};
    const WORD: u32 = 0x7000_0000;
    let mut cpu = Cpu::new(CpuConfig::new(1), vec![WORD], vec![0]);
    for stage in ["fetch", "regs"] {
        match cpu.run_to_halt(1_000) {
            Err(CpuError::Sim(SimError::Component {
                component, error, ..
            })) => {
                assert_eq!(component, stage);
                assert_eq!(
                    error,
                    ProtocolError::InvalidInstruction { pc: 0, word: WORD }
                );
            }
            other => panic!("{stage}: unexpected: {other:?}"),
        }
    }
    cpu.run_to_halt(1_000)
        .expect("the faulting thread is halted");
}

/// `Cpu::try_new` rejects a configuration before elaboration. `Cpu::new`
/// panics with the same message, so `cpu_build_error` returns both.
fn cpu_build_error(
    config: mt_elastic::proc::CpuConfig,
    program: Vec<u32>,
    entry_pcs: Vec<u32>,
) -> (mt_elastic::proc::CpuError, String) {
    use mt_elastic::proc::Cpu;
    let error = Cpu::try_new(config.clone(), program.clone(), entry_pcs.clone())
        .err()
        .expect("the configuration is rejected");
    let panic = std::panic::catch_unwind(|| Cpu::new(config, program, entry_pcs))
        .err()
        .expect("Cpu::new panics on a rejected configuration");
    let message = panic
        .downcast_ref::<String>()
        .expect("the panic carries the error's message")
        .clone();
    (error, message)
}

#[test]
fn zero_thread_configuration_is_a_typed_error() {
    use mt_elastic::proc::{CpuConfig, CpuError};
    let (error, message) = cpu_build_error(CpuConfig::new(0), vec![0], vec![]);
    assert!(matches!(error, CpuError::NoThreads), "{error:?}");
    assert_eq!(message, error.to_string());
}

#[test]
fn inverted_instruction_memory_latency_is_a_typed_error() {
    use mt_elastic::proc::{CpuConfig, CpuError};
    let mut config = CpuConfig::new(2);
    config.imem_latency = (3, 1);
    let (error, message) = cpu_build_error(config, vec![0], vec![0; 2]);
    assert!(
        matches!(error, CpuError::ImemLatency { min: 3, max: 1 }),
        "{error:?}"
    );
    assert_eq!(message, error.to_string());
}

#[test]
fn inverted_or_zero_data_memory_latency_is_a_typed_error() {
    use mt_elastic::proc::{CpuConfig, CpuError};
    for (min, max) in [(4, 2), (0, 3)] {
        let mut config = CpuConfig::new(2);
        config.dmem_latency = (min, max);
        let (error, message) = cpu_build_error(config, vec![0], vec![0; 2]);
        assert!(
            matches!(error, CpuError::DmemLatency { min: m, max: x } if (m, x) == (min, max)),
            "{error:?}"
        );
        assert_eq!(message, error.to_string());
    }
}

#[test]
fn empty_program_is_a_typed_error() {
    use mt_elastic::proc::{CpuConfig, CpuError};
    let (error, message) = cpu_build_error(CpuConfig::new(2), vec![], vec![0; 2]);
    assert!(matches!(error, CpuError::EmptyProgram), "{error:?}");
    assert_eq!(message, error.to_string());
}

#[test]
fn wrong_entry_pc_count_is_a_typed_error() {
    use mt_elastic::proc::{CpuConfig, CpuError};
    let (error, message) = cpu_build_error(CpuConfig::new(4), vec![0], vec![0; 3]);
    assert!(
        matches!(
            error,
            CpuError::EntryPcCount {
                threads: 4,
                entry_pcs: 3
            }
        ),
        "{error:?}"
    );
    assert_eq!(message, error.to_string());
}

/// `Cpu::from_asm` builds through `Cpu::try_new`, so a bad configuration
/// is the same typed error there, not a panic.
#[test]
fn from_asm_rejects_a_bad_configuration() {
    use mt_elastic::proc::{Cpu, CpuConfig, CpuError};
    let mut config = CpuConfig::new(2);
    config.imem_latency = (3, 1);
    let error = Cpu::from_asm(config, "halt\n")
        .err()
        .expect("the configuration is rejected");
    assert!(
        matches!(error, CpuError::ImemLatency { min: 3, max: 1 }),
        "{error:?}"
    );
}

/// A program that does not assemble is `CpuError::Asm`, whose source is
/// the assembler's error.
#[test]
fn from_asm_reports_the_assembler_error() {
    use mt_elastic::proc::{Cpu, CpuConfig, CpuError};
    use std::error::Error;
    let error = Cpu::from_asm(CpuConfig::new(2), "halt\nbogus r1\n")
        .err()
        .expect("the program is rejected");
    let CpuError::Asm(asm) = &error else {
        panic!("unexpected: {error:?}");
    };
    assert_eq!(asm.line, 2);
    let source = error.source().expect("the assembler error is the source");
    assert_eq!(source.to_string(), asm.to_string());
    assert!(error.to_string().contains(&asm.to_string()), "{error}");
}
