//! End-to-end tests of the dataflow-to-elastic synthesis flow.

use elastic_core::{ArbiterKind, MebKind};
use elastic_sim::ProtocolError;
use elastic_synth::{
    DataflowBuilder, ElasticIr, IrError, IrNodeKind, MebSubstitution, OpLatency, Pass, PassError,
    RunError, SynthCircuit, SynthError, TransformSpec,
};
use proptest::prelude::*;

fn software_gcd(mut a: u64, mut b: u64) -> u64 {
    while a != b {
        if a > b {
            a -= b;
        } else {
            b -= a;
        }
    }
    a
}

/// The iterative GCD graph over `threads` threads.
fn gcd_graph(threads: usize) -> DataflowBuilder<(u64, u64)> {
    let mut g = DataflowBuilder::<(u64, u64)>::new(threads);
    let fresh = g.input("pairs");
    let looped = g.input("loop");
    let head = g.merge("entry", &[fresh, looped]);
    let (done, cont) = g.branch("done?", head, |&(a, b): &(u64, u64)| a == b);
    g.output("gcd", done);
    let step = g.op1("step", OpLatency::Fixed(1), cont, |&(a, b)| {
        if a > b {
            (a - b, b)
        } else {
            (a, b - a)
        }
    });
    g.loopback("loop", step).expect("loop closes");
    g
}

/// The iterative GCD circuit over `threads` threads.
fn gcd_circuit(threads: usize) -> SynthCircuit<(u64, u64)> {
    gcd_graph(threads).elaborate().expect("gcd elaborates")
}

#[test]
fn gcd_multithreaded_matches_software() {
    let mut s = gcd_circuit(4);
    let pairs = [(48u64, 36u64), (81, 54), (17, 5), (1000, 35)];
    for (t, &(a, b)) in pairs.iter().enumerate() {
        s.push("pairs", t, (a, b)).expect("port exists");
    }
    s.run_until_outputs("gcd", 4, 20_000)
        .expect("all gcds complete");
    for (t, &(a, b)) in pairs.iter().enumerate() {
        let expect = software_gcd(a, b);
        assert_eq!(s.collected("gcd", t), vec![(expect, expect)], "thread {t}");
    }
}

#[test]
fn gcd_streams_multiple_problems_per_thread() {
    // NOTE: an iterative loop may hold several problems of one thread in
    // flight; problems that converge in fewer iterations exit first, so
    // completion order within a thread is not FIFO (see the crate docs).
    // Completion is compared as a multiset.
    let mut s = gcd_circuit(2);
    let per_thread: [Vec<(u64, u64)>; 2] =
        [vec![(12, 8), (100, 75), (7, 7)], vec![(9, 27), (14, 21)]];
    for (t, list) in per_thread.iter().enumerate() {
        for &(a, b) in list {
            s.push("pairs", t, (a, b)).expect("push");
        }
    }
    s.run_until_outputs("gcd", 5, 40_000).expect("completes");
    for (t, list) in per_thread.iter().enumerate() {
        let mut got = s.collected("gcd", t);
        got.sort_unstable();
        let mut expect: Vec<(u64, u64)> = list
            .iter()
            .map(|&(a, b)| (software_gcd(a, b), software_gcd(a, b)))
            .collect();
        expect.sort_unstable();
        assert_eq!(got, expect, "thread {t}");
    }
}

#[test]
fn full_and_reduced_synthesis_agree() {
    let pairs = [(250u64, 35u64), (13, 39)];
    let mut results = Vec::new();
    for meb in [MebKind::Full, MebKind::Reduced] {
        let mut synth = gcd_graph(2).build_ir().expect("gcd builds");
        MebSubstitution::auto(meb)
            .run(&mut synth.ir)
            .expect("auto-buffers retarget");
        let mut s = synth.elaborate().expect("gcd elaborates");
        for (t, &(a, b)) in pairs.iter().enumerate() {
            s.push("pairs", t, (a, b)).expect("push");
        }
        s.run_until_outputs("gcd", 2, 40_000).expect("completes");
        results.push((s.collected("gcd", 0), s.collected("gcd", 1)));
    }
    assert_eq!(results[0], results[1]);
}

/// `run_until_outputs` counts at the sink even after a pass splices a
/// buffer in front of it (the sink then reads the buffer's new channel).
#[test]
fn outputs_follow_a_buffer_spliced_before_the_sink() {
    let mut synth = gcd_graph(2).build_ir().expect("gcd builds");
    TransformSpec::InsertSlack {
        channel: "w3:done?.0".into(),
        kind: MebKind::Fifo { depth: 1 },
    }
    .apply(&mut synth.ir)
    .expect("slack inserts before the sink");
    let mut s = synth.elaborate().expect("gcd elaborates");
    s.push("pairs", 0, (48, 36)).expect("push");
    s.push("pairs", 1, (81, 54)).expect("push");
    s.run_until_outputs("gcd", 2, 2_000).expect("completes");
    assert_eq!(s.collected("gcd", 0), vec![(12, 12)]);
    assert_eq!(s.collected("gcd", 1), vec![(27, 27)]);
}

/// A diamond: fork → two ops → join — exercises fan-out plus
/// reconvergence through the synthesized netlist.
#[test]
fn diamond_fork_join() {
    let mut g = DataflowBuilder::<u64>::new(2);
    let x = g.input("x");
    let copies = g.fork("split", x, 2);
    let doubled = g.op1("double", OpLatency::Combinational, copies[0], |v| v * 2);
    let squared = g.op1(
        "square",
        OpLatency::Variable {
            min: 1,
            max: 3,
            seed: 5,
        },
        copies[1],
        |v| v * v,
    );
    let sum = g.op2("sum", OpLatency::Combinational, doubled, squared, |a, b| {
        a + b
    });
    g.output("y", sum);
    let mut s = g.elaborate().expect("elaborates");
    for t in 0..2 {
        for v in 1..=10u64 {
            s.push("x", t, v).expect("push");
        }
    }
    s.run_until_outputs("y", 20, 5_000).expect("completes");
    for t in 0..2 {
        let got = s.collected("y", t);
        let expect: Vec<u64> = (1..=10).map(|v| 2 * v + v * v).collect();
        assert_eq!(got, expect, "thread {t}");
    }
}

/// A barrier node synchronizes synthesized threads: nobody reaches the
/// output until all arrive.
#[test]
fn barrier_node_synchronizes_threads() {
    let mut g = DataflowBuilder::<u64>::new(3);
    let x = g.input("x");
    let synced = g.barrier("sync", x);
    g.output("y", synced);
    let mut s = g.elaborate().expect("elaborates");
    s.push_at("x", 0, 0, 1).expect("push");
    s.push_at("x", 1, 5, 2).expect("push");
    s.push_at("x", 2, 15, 3).expect("push");
    s.run_until_outputs("y", 3, 1_000).expect("released");
    // Everyone released only after the cycle-15 arrival.
    for t in 0..3 {
        assert_eq!(s.collected("y", t).len(), 1, "thread {t}");
    }
    assert!(s.circuit.cycle() > 15);
}

/// A streaming per-thread accumulator: running sums flow out while the
/// accumulated value circulates through a buffer seeded with an initial
/// zero token per thread — the classic dataflow "token on the back edge".
#[test]
fn accumulator_loop_with_initial_tokens() {
    const THREADS: usize = 3;
    let mut g = DataflowBuilder::<u64>::new(THREADS);
    let x = g.input("x");
    let acc = g.input("acc"); // placeholder, closed below
    let sum = g.op2("add", OpLatency::Combinational, x, acc, |a, b| a + b);
    let copies = g.fork("dup", sum, 2);
    g.output("sums", copies[0]);
    let seeded = g.buffer_with_initial(
        "acc_reg",
        copies[1],
        MebKind::Reduced,
        (0..THREADS).map(|t| (t, 0u64)).collect(),
    );
    g.loopback("acc", seeded).expect("loop closes");

    let mut s = g.elaborate().expect("elaborates");
    let streams: [Vec<u64>; 3] = [vec![1, 2, 3, 4], vec![10, 20], vec![5, 5, 5]];
    for (t, stream) in streams.iter().enumerate() {
        for &v in stream {
            s.push("x", t, v).expect("push");
        }
    }
    let total: u64 = streams.iter().map(|v| v.len() as u64).sum();
    s.run_until_outputs("sums", total, 10_000)
        .expect("completes");
    assert_eq!(s.collected("sums", 0), vec![1, 3, 6, 10]);
    assert_eq!(s.collected("sums", 1), vec![10, 30]);
    assert_eq!(s.collected("sums", 2), vec![5, 10, 15]);
}

#[test]
fn unconsumed_wire_is_rejected() {
    let mut g = DataflowBuilder::<u64>::new(1);
    let x = g.input("x");
    let _dangling = g.op1("inc", OpLatency::Combinational, x, |v| v + 1);
    let err = g.elaborate().unwrap_err();
    assert!(
        matches!(&err, SynthError::Lint(PassError::NoReader { channel }) if channel == "w1:inc.0:buf"),
        "{err}"
    );
}

#[test]
fn fan_out_without_a_fork_is_a_lint_error() {
    let mut g = DataflowBuilder::<u64>::new(1);
    let x = g.input("x");
    g.output("a", x);
    g.output("b", x);
    match g.build_ir() {
        Err(SynthError::Lint(PassError::MultipleReaders { channel, readers })) => {
            assert_eq!(channel, "w0:x.0");
            assert_eq!(readers, ["out:a", "out:b"]);
        }
        other => panic!("{:?}", other.map(|_| ())),
    }
}

#[test]
fn one_input_merge_is_a_lint_error() {
    let mut g = DataflowBuilder::<u64>::new(1);
    let x = g.input("x");
    let m = g.merge("m", &[x]);
    g.output("y", m);
    match g.build_ir() {
        Err(SynthError::Lint(PassError::BadArity {
            node,
            inputs: 1,
            outputs: 1,
        })) => assert_eq!(node, "m"),
        other => panic!("{:?}", other.map(|_| ())),
    }
}

/// A reduced MEB holds one initial token per thread; a second one is the
/// typed protocol error of elaboration, not a panic or a string.
#[test]
fn excess_initial_tokens_are_a_typed_elaboration_error() {
    let mut g = DataflowBuilder::<u64>::new(2);
    let x = g.input("x");
    let held = g.buffer_with_initial("held", x, MebKind::Reduced, vec![(0, 1), (0, 2)]);
    g.output("y", held);
    match g.elaborate() {
        Err(SynthError::Elaborate(IrError::Protocol(ProtocolError::ExcessInitialTokens {
            thread: 0,
            capacity: 1,
        }))) => {}
        other => panic!("{:?}", other.map(|_| ())),
    }
}

/// The `auto` flag decides what `MebSubstitution::auto` touches: every
/// buffer the builder inserted, never one placed with `buffer()`.
#[test]
fn auto_substitution_rewrites_only_the_inserted_buffers() {
    let mut g = DataflowBuilder::<u64>::new(2);
    let x = g.input("x");
    let y = g.input("y");
    let placed = g.buffer("placed", x, MebKind::Fifo { depth: 2 });
    let sum = g.op2("add", OpLatency::Fixed(1), placed, y, |a, b| a + b);
    let doubled = g.op1("double", OpLatency::Combinational, sum, |v| v * 2);
    g.output("z", doubled);
    let mut synth = g.build_ir().expect("builds");
    let mebs = |ir: &ElasticIr<u64>| -> Vec<(String, MebKind, ArbiterKind, bool)> {
        ir.nodes()
            .filter_map(|n| match n.kind() {
                IrNodeKind::Meb {
                    kind,
                    arbiter,
                    auto,
                    ..
                } => Some((n.name().to_string(), *kind, *arbiter, *auto)),
                _ => None,
            })
            .collect()
    };
    let (rr, fixed) = (ArbiterKind::RoundRobin, ArbiterKind::Fixed);
    let fifo = MebKind::Fifo { depth: 2 };
    assert_eq!(
        mebs(&synth.ir),
        [
            ("autobuf:w3".to_string(), MebKind::Reduced, rr, true),
            ("autobuf:w4".to_string(), MebKind::Reduced, rr, true),
            ("placed".to_string(), fifo, rr, false),
        ]
    );

    let report = MebSubstitution::auto(MebKind::Full)
        .with_arbiter(fixed)
        .run(&mut synth.ir)
        .expect("substitutes");
    assert_eq!(report.deltas.len(), 2, "{report:?}");
    assert_eq!(
        mebs(&synth.ir),
        [
            ("autobuf:w3".to_string(), MebKind::Full, fixed, true),
            ("autobuf:w4".to_string(), MebKind::Full, fixed, true),
            ("placed".to_string(), fifo, rr, false),
        ]
    );

    let mut s = synth.elaborate().expect("elaborates");
    for t in 0..2 {
        s.push("x", t, 10 * t as u64).expect("push");
        s.push("y", t, 1).expect("push");
    }
    s.run_until_outputs("z", 2, 1_000).expect("completes");
    assert_eq!(s.collected("z", 0), vec![2]);
    assert_eq!(s.collected("z", 1), vec![22]);
}

#[test]
fn dataflow_dot_export_shows_the_loop() -> Result<(), SynthError> {
    let mut g = DataflowBuilder::<(u64, u64)>::new(2);
    let fresh = g.input("pairs");
    let looped = g.input("loop");
    let head = g.merge("entry", &[fresh, looped]);
    let (done, cont) = g.branch("done?", head, |&(a, b): &(u64, u64)| a == b);
    g.output("gcd", done);
    let step = g.op1("step", OpLatency::Combinational, cont, |&p| p);
    g.loopback("loop", step).expect("closes");
    let synth = g.build_ir()?;
    // The closed placeholder and its wire are gone from the IR.
    assert!(synth.ir.node_named("in:loop").is_none());
    assert!(synth.ir.channel_named("w1:loop.0").is_none());
    let dot = synth.ir.to_dot();
    assert!(dot.starts_with("digraph elastic {"), "{dot}");
    assert!(dot.contains("shape=diamond"), "{dot}");
    assert!(dot.contains("entry"));
    // The buffered loop edge runs back into the entry merge.
    let entry = dot
        .lines()
        .find_map(|l| l.trim().strip_suffix(" [label=\"entry\", shape=diamond];"))
        .expect("entry node");
    assert!(
        dot.contains(&format!(" -> {entry} [label=\"w5:step.0:buf")),
        "{dot}"
    );
    assert!(dot.trim_end().ends_with('}'));
    Ok(())
}

#[test]
fn empty_graph_is_rejected() {
    let g = DataflowBuilder::<u64>::new(1);
    assert!(matches!(g.elaborate(), Err(SynthError::EmptyGraph)));
}

#[test]
fn bad_loopback_targets_are_rejected() {
    let mut g = DataflowBuilder::<u64>::new(1);
    let x = g.input("x");
    let looped = g.input("loop");
    let _unread = g.input("unread");
    let sum = g.op2("add", OpLatency::Combinational, x, looped, |a, b| a + b);
    let copies = g.fork("dup", sum, 2);
    g.output("y", copies[0]);
    // No such port.
    let err = g.loopback("nope", copies[1]).unwrap_err();
    assert!(
        matches!(&err, SynthError::NoSuchInput { port } if port == "nope"),
        "{err}"
    );
    assert!(err.to_string().contains("no input port"), "{err}");
    // A placeholder nothing reads yet.
    let err = g.loopback("unread", copies[1]).unwrap_err();
    assert!(
        matches!(&err, SynthError::PlaceholderUnread { port } if port == "unread"),
        "{err}"
    );
    // A wire that already feeds the output.
    let err = g.loopback("loop", copies[0]).unwrap_err();
    assert!(
        matches!(&err, SynthError::WireConsumed { port, channel }
            if port == "loop" && channel == "w4:dup.0"),
        "{err}"
    );
    // The failures changed nothing: the loop still closes, a closed port
    // is no longer an input, and the unread placeholder still dangles.
    g.loopback("loop", copies[1]).expect("loop closes");
    assert!(matches!(
        g.loopback("loop", copies[1]),
        Err(SynthError::NoSuchInput { .. })
    ));
    let err = g.build_ir().unwrap_err();
    assert!(
        matches!(&err, SynthError::Lint(PassError::NoReader { channel }) if channel == "w2:unread.0"),
        "{err}"
    );
}

#[test]
fn unknown_ports_are_reported_with_alternatives() {
    let mut g = DataflowBuilder::<u64>::new(1);
    let x = g.input("x");
    let y = g.op1("inc", OpLatency::Combinational, x, |v| v + 1);
    g.output("y", y);
    let mut s = g.elaborate().expect("elaborates");
    let err = s.push("z", 0, 1).unwrap_err();
    match err {
        RunError::UnknownPort(e) => {
            assert_eq!(e.port, "z");
            assert_eq!(e.available, vec!["x".to_string()]);
        }
        other => panic!("unexpected: {other}"),
    }
}

/// A loop with an explicit buffer next to the inserted ones works.
#[test]
fn manually_buffered_loop_works() {
    let mut g = DataflowBuilder::<(u64, u64)>::new(1);
    let fresh = g.input("pairs");
    let looped = g.input("loop");
    let head = g.merge("entry", &[fresh, looped]);
    let buffered = g.buffer("loop_buf", head, MebKind::Reduced);
    let (done, cont) = g.branch("done?", buffered, |&(a, b): &(u64, u64)| a == b);
    g.output("gcd", done);
    let step = g.op1("step", OpLatency::Combinational, cont, |&(a, b)| {
        if a > b {
            (a - b, b)
        } else {
            (a, b - a)
        }
    });
    g.loopback("loop", step).expect("loop closes");
    let mut s = g.elaborate().expect("elaborates");
    s.push("pairs", 0, (48, 18)).expect("push");
    s.run_until_outputs("gcd", 1, 5_000).expect("completes");
    assert_eq!(s.collected("gcd", 0), vec![(6, 6)]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random GCD problems across random thread counts match software.
    #[test]
    fn gcd_circuit_matches_software_on_random_inputs(
        pairs in prop::collection::vec((1u64..500, 1u64..500), 1..6),
    ) {
        let threads = pairs.len();
        let mut s = gcd_circuit(threads);
        for (t, &(a, b)) in pairs.iter().enumerate() {
            s.push("pairs", t, (a, b)).expect("push");
        }
        s.run_until_outputs("gcd", threads as u64, 2_000_000).expect("completes");
        for (t, &(a, b)) in pairs.iter().enumerate() {
            let expect = software_gcd(a, b);
            prop_assert_eq!(s.collected("gcd", t), vec![(expect, expect)]);
        }
    }
}
