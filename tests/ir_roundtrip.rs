//! IR round-trip equivalence — the structural-IR elaboration path must be
//! *byte-identical* to the pre-refactor direct `CircuitBuilder` path.
//!
//! For each design (GCD loop, MD5 engine, the processor) we build the
//! circuit twice: once through `ElasticIr` (the only path the library now
//! exposes) and once through a test-local replica of the old hand-written
//! construction, preserved here verbatim. Both are driven with identical
//! stimuli under the exhaustive settle oracle and must produce identical
//! capture digests — every `(cycle, token)` pair, in order, per thread.
//! The same designs' IR node classes must also match the op classes of
//! the components they elaborate to.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use mt_elastic::core::{ArbiterKind, Barrier, Branch, MebKind, Merge};
use mt_elastic::md5::algo::{apply_steps, pad_blocks, MD5_IV};
use mt_elastic::md5::{Md5Circuit, Md5Token};
use mt_elastic::proc::{assemble, programs, Cpu, CpuConfig, RegUnit, NUM_REGS};
use mt_elastic::sim::{
    Circuit, CircuitBuilder, EvalMode, FusedOpKind, LatencyModel, NetlistGraph, ReadyPolicy, Sink,
    Source, Token, Transform, VarLatency,
};
use mt_elastic::synth::{DataflowBuilder, ElasticIr, MebSubstitution, OpLatency, Pass};

/// Debug-formatted capture digest of a sink: every `(cycle, token)` pair
/// for every thread, in arrival order.
fn capture_digest<T: mt_elastic::sim::Token>(
    circuit: &Circuit<T>,
    sink: &str,
    threads: usize,
) -> String {
    let sink: &Sink<T> = circuit.get(sink).expect("sink exists");
    (0..threads)
        .map(|t| format!("t{t}: {:?}\n", sink.captured(t)))
        .collect()
}

// ---------------------------------------------------------------------
// GCD: DataflowBuilder -> IR -> circuit  vs  direct CircuitBuilder replica
// ---------------------------------------------------------------------

type Pair = (u64, u64);

fn gcd_via_ir(threads: usize) -> Circuit<Pair> {
    let mut g = DataflowBuilder::<Pair>::new(threads);
    let fresh = g.input("pairs");
    let looped = g.input("loop");
    let head = g.merge("entry", &[fresh, looped]);
    let (done, cont) = g.branch("done?", head, |&(a, b): &Pair| a == b);
    g.output("gcd", done);
    let step = g.op1("step", OpLatency::Fixed(1), cont, |&(a, b)| {
        if a > b {
            (a - b, b)
        } else {
            (a, b - a)
        }
    });
    g.loopback("loop", step).expect("loop closes");
    g.elaborate().expect("gcd elaborates").circuit
}

/// The pre-refactor elaboration of the GCD graph, wire by wire: channel
/// and component creation in exactly the order the old monolithic
/// `elaborate` emitted them.
fn gcd_direct(threads: usize) -> Circuit<Pair> {
    let mut b = CircuitBuilder::<Pair>::new();
    // Wire loop (w1 is the dead placeholder; Merge/Op outputs get an
    // auto-buffer under the default AfterOps policy).
    let w0 = b.channel("w0:pairs.0", threads);
    let w2 = b.channel("w2:entry.0", threads);
    let w2_buf = b.channel("w2:entry.0:buf", threads);
    b.add_boxed(MebKind::Reduced.build_with::<Pair>(
        "autobuf:w2",
        w2,
        w2_buf,
        threads,
        ArbiterKind::RoundRobin,
    ));
    let w3 = b.channel("w3:done?.0", threads);
    let w4 = b.channel("w4:done?.1", threads);
    let w5 = b.channel("w5:step.0", threads);
    let w5_buf = b.channel("w5:step.0:buf", threads);
    b.add_boxed(MebKind::Reduced.build_with::<Pair>(
        "autobuf:w5",
        w5,
        w5_buf,
        threads,
        ArbiterKind::RoundRobin,
    ));
    // Node loop, in insertion order (the `loop` input is dead).
    b.add(Source::<Pair>::new("in:pairs", w0, threads));
    b.add(Merge::new("entry", vec![w0, w5_buf], w2, threads));
    b.add(Branch::new(
        "done?",
        w2_buf,
        w3,
        w4,
        threads,
        |&(a, b): &Pair| a == b,
    ));
    b.add(Sink::with_capture(
        "out:gcd",
        w3,
        threads,
        ReadyPolicy::Always,
    ));
    let mid = b.channel("step:joined", threads);
    b.add(Transform::new(
        "step:fn",
        w4,
        mid,
        threads,
        |&(a, b): &Pair| {
            if a > b {
                (a - b, b)
            } else {
                (a, b - a)
            }
        },
    ));
    b.add(VarLatency::new(
        "step:unit",
        mid,
        w5,
        threads,
        threads.max(2),
        LatencyModel::Fixed(1),
    ));
    b.build().expect("gcd direct netlist is well-formed")
}

#[test]
fn gcd_ir_path_matches_direct_path() {
    const THREADS: usize = 4;
    let problems = [(1071u64, 462u64), (270, 192), (35, 64), (123456, 7890)];

    let run = |mut c: Circuit<Pair>| -> (String, u64) {
        c.set_eval_mode(EvalMode::Exhaustive);
        {
            let src: &mut Source<Pair> = c.get_mut("in:pairs").expect("source exists");
            for (t, &p) in problems.iter().enumerate() {
                src.push(t, p);
            }
        }
        c.run(2_000).expect("runs clean");
        (capture_digest(&c, "out:gcd", THREADS), c.cycle())
    };

    let (ir_digest, ir_cycles) = run(gcd_via_ir(THREADS));
    let (direct_digest, direct_cycles) = run(gcd_direct(THREADS));
    assert!(
        ir_digest.contains("(21, 21)") && ir_digest.contains("(6, 6)"),
        "sanity: gcd(1071,462)=21 run produced digests:\n{ir_digest}"
    );
    assert_eq!(ir_cycles, direct_cycles);
    assert_eq!(ir_digest, direct_digest, "GCD capture digests diverge");
}

// ---------------------------------------------------------------------
// MD5: Md5Circuit::with_stages (IR path)  vs  direct replica of the old body
// ---------------------------------------------------------------------

/// The pre-refactor `Md5Circuit::with_stages` body, specialised to one
/// round stage, returning the raw circuit.
fn md5_direct(threads: usize, participants: usize, kind: MebKind) -> Circuit<Md5Token> {
    let mut b = CircuitBuilder::<Md5Token>::new();
    let fresh = b.channel("fresh", threads);
    let loopback = b.channel("loop", threads);
    let into_buf = b.channel("in", threads);
    let stage_chs = b.channels("st", threads, 2);
    let obuf = b.channel("obuf", threads);
    let released = b.channel("rel", threads);
    let done = b.channel("done", threads);

    b.add(Source::<Md5Token>::new("feeder", fresh, threads));
    b.add(Merge::new(
        "entry",
        vec![loopback, fresh],
        into_buf,
        threads,
    ));
    b.add_boxed(kind.build_with::<Md5Token>(
        "meb_in",
        into_buf,
        stage_chs[0],
        threads,
        ArbiterKind::RoundRobin,
    ));

    let round_counter = Arc::new(AtomicUsize::new(0));
    let rc = Arc::clone(&round_counter);
    b.add(Transform::new(
        "round_stage0",
        stage_chs[0],
        stage_chs[1],
        threads,
        move |tok: &Md5Token| {
            let round = rc.load(Ordering::SeqCst) % 4;
            assert_eq!(usize::from(tok.steps_done) % 64, round * 16);
            let mut out = tok.clone();
            out.work = apply_steps(out.work, &out.block, round * 16, 16);
            out.steps_done += 16;
            out
        },
    ));

    b.add_boxed(kind.build_with::<Md5Token>(
        "meb_out",
        stage_chs[1],
        obuf,
        threads,
        ArbiterKind::RoundRobin,
    ));

    let rc = Arc::clone(&round_counter);
    let mask: Vec<bool> = (0..threads).map(|t| t < participants).collect();
    b.add(
        Barrier::new("barrier", obuf, released, threads)
            .with_participants(mask)
            .with_release_action(move |_| {
                rc.fetch_add(1, Ordering::SeqCst);
            }),
    );
    b.add(Branch::new(
        "exit",
        released,
        done,
        loopback,
        threads,
        |tok: &Md5Token| tok.steps_done >= 64,
    ));
    b.add(Sink::with_capture(
        "out",
        done,
        threads,
        ReadyPolicy::Always,
    ));
    b.build().expect("md5 direct netlist is well-formed")
}

#[test]
fn md5_ir_path_matches_direct_path() {
    const THREADS: usize = 4;
    let messages: [&[u8]; THREADS] = [b"", b"abc", b"message digest", b"roundtrip"];

    for kind in [MebKind::Full, MebKind::Reduced] {
        let run = |mut c: Circuit<Md5Token>| -> (String, u64) {
            c.set_eval_mode(EvalMode::Exhaustive);
            {
                let feeder: &mut Source<Md5Token> = c.get_mut("feeder").expect("feeder exists");
                for (t, msg) in messages.iter().enumerate() {
                    let block = pad_blocks(msg)[0];
                    feeder.push(
                        t,
                        Md5Token {
                            thread: t,
                            wave: 0,
                            block,
                            chain: MD5_IV,
                            work: MD5_IV,
                            steps_done: 0,
                            phantom: false,
                        },
                    );
                }
            }
            c.run(600).expect("runs clean");
            (capture_digest(&c, "out", THREADS), c.cycle())
        };

        let ir = Md5Circuit::with_stages(THREADS, THREADS, kind, 1);
        let (ir_digest, ir_cycles) = run(ir.circuit);
        let (direct_digest, direct_cycles) = run(md5_direct(THREADS, THREADS, kind));
        assert_eq!(ir_cycles, direct_cycles, "{kind}");
        assert_eq!(
            ir_digest, direct_digest,
            "MD5 capture digests diverge for {kind}"
        );
        // Sanity: every thread finished its four round trips.
        assert_eq!(ir_digest.matches("steps_done: 64").count(), THREADS);
    }
}

// ---------------------------------------------------------------------
// Processor: Cpu::new (IR path)  vs  direct replica of the old body
// ---------------------------------------------------------------------

/// The pre-refactor `Cpu::new` body (no speculation), returning the raw
/// circuit.
fn cpu_direct(
    config: &CpuConfig,
    program: Vec<u32>,
    entry_pcs: Vec<u32>,
) -> Circuit<mt_elastic::proc::ProcToken> {
    use mt_elastic::core::Fork;
    use mt_elastic::proc::{execute, Fetcher, MemUnit, ProcToken};

    let s = config.threads;
    let mut b = CircuitBuilder::<ProcToken>::new();

    let fetch = b.channel("fetch", s);
    let fetched = b.channel("fetched", s);
    let decode_in = b.channel("decode_in", s);
    let issued = b.channel("issued", s);
    let ex_in = b.channel("ex_in", s);
    let ex_out = b.channel("ex_out", s);
    let route_in = b.channel("route_in", s);
    let mem_in = b.channel("mem_in", s);
    let mem_out = b.channel("mem_out", s);
    let wb = b.channel("wb", s);
    let redirect_raw = b.channel("redirect_raw", s);
    let redirect = b.channel("redirect", s);

    let imem = Arc::new(program);
    b.add(Fetcher::new("fetch", fetch, redirect, s, imem, entry_pcs));
    b.add(VarLatency::new(
        "icache",
        fetch,
        fetched,
        s,
        s.max(2),
        LatencyModel::Uniform {
            min: config.imem_latency.0,
            max: config.imem_latency.1,
            seed: config.seed ^ 0x1CAC4E,
        },
    ));
    b.add_boxed(config.meb.build_with::<ProcToken>(
        "meb_if",
        fetched,
        decode_in,
        s,
        config.arbiter,
    ));
    b.add(RegUnit::new("regs", decode_in, wb, issued, s));
    b.add_boxed(
        config
            .meb
            .build_with::<ProcToken>("meb_id", issued, ex_in, s, config.arbiter),
    );
    let mul_latency = config.mul_latency;
    b.add(
        VarLatency::new(
            "exec",
            ex_in,
            ex_out,
            s,
            s.max(2),
            LatencyModel::PerToken(Box::new(move |tok: &ProcToken| match tok {
                ProcToken::Decoded { instr, .. } if instr.is_mul() => mul_latency,
                _ => 1,
            })),
        )
        .with_transform(execute),
    );
    b.add_boxed(
        config
            .meb
            .build_with::<ProcToken>("meb_ex", ex_out, route_in, s, config.arbiter),
    );
    b.add(
        Fork::new("router", route_in, vec![mem_in, redirect_raw], s)
            .with_route(mt_elastic::proc::cpu::route),
    );
    b.add(MemUnit::new(
        "dmem",
        mem_in,
        mem_out,
        s,
        s.max(2),
        config.dmem_words,
        config.dmem_latency,
        config.seed ^ 0xD3EA,
    ));
    b.add_boxed(
        config
            .meb
            .build_with::<ProcToken>("meb_wb", mem_out, wb, s, config.arbiter),
    );
    b.add_boxed(config.meb.build_with::<ProcToken>(
        "meb_rd",
        redirect_raw,
        redirect,
        s,
        config.arbiter,
    ));

    b.build().expect("cpu direct netlist is well-formed")
}

#[test]
fn processor_ir_path_matches_direct_path() {
    const THREADS: usize = 2;
    const CYCLES: u64 = 2_000;
    let program = assemble(programs::SUM_LOOP).expect("program assembles");
    let config = CpuConfig::new(THREADS);

    // IR path: the library's own constructor.
    let mut cpu = Cpu::new(config.clone(), program.clone(), vec![0; THREADS]);
    cpu.circuit.set_eval_mode(EvalMode::Exhaustive);
    cpu.circuit.run(CYCLES).expect("ir cpu runs clean");

    // Direct path: the pre-refactor construction.
    let mut direct = cpu_direct(&config, program, vec![0; THREADS]);
    direct.set_eval_mode(EvalMode::Exhaustive);
    direct.run(CYCLES).expect("direct cpu runs clean");

    // Architectural state must be byte-identical.
    let direct_regs: &RegUnit = direct.get("regs").expect("regs exist");
    for t in 0..THREADS {
        for r in 0..NUM_REGS {
            assert_eq!(
                cpu.reg(t, r),
                direct_regs.reg(t, r),
                "thread {t} register r{r} diverges"
            );
        }
    }

    // So must the microarchitectural trace: per-thread transfer counts on
    // all twelve pipeline channels, paired by name.
    let ir_chs = cpu.circuit.channel_ids();
    let names: Vec<&str> = ir_chs
        .iter()
        .map(|&ch| cpu.circuit.channel_name(ch))
        .collect();
    assert_eq!(
        names,
        [
            "fetch",
            "fetched",
            "decode_in",
            "issued",
            "ex_in",
            "ex_out",
            "route_in",
            "mem_in",
            "mem_out",
            "wb",
            "redirect_raw",
            "redirect",
        ],
        "the pipeline's channels, in pipeline order"
    );
    let mut executed_anything = false;
    for (&a, name) in ir_chs.iter().zip(&names) {
        let b = direct
            .channel_ids()
            .into_iter()
            .find(|&b| direct.channel_name(b) == *name)
            .expect("the direct pipeline has a channel of the same name");
        for t in 0..THREADS {
            let ir_n = cpu.circuit.stats().transfers(a, t);
            assert_eq!(
                ir_n,
                direct.stats().transfers(b, t),
                "transfers diverge on channel `{name}` thread {t}"
            );
            executed_anything |= ir_n > 0;
        }
    }
    assert!(executed_anything, "sanity: the program actually ran");
}

// ---------------------------------------------------------------------
// Node classes: IR tags vs the elaborated components' `op_kind`s
// ---------------------------------------------------------------------

/// The `(name, class)` pairs of a netlist, sorted by name: the circuit
/// lists its components in rank order, the IR in insertion order.
fn node_classes(g: &NetlistGraph) -> Vec<(String, FusedOpKind)> {
    let mut pairs: Vec<_> = g.components.iter().cloned().zip(g.kinds.clone()).collect();
    pairs.sort_by(|a, b| a.0.cmp(&b.0));
    pairs
}

fn assert_classes_agree<T: Token>(design: &str, ir: ElasticIr<T>) {
    let declared = node_classes(&ir.to_netlist());
    let built = node_classes(&ir.elaborate().expect("design elaborates").circuit.netlist());
    assert_eq!(declared, built, "{design}: IR and circuit classes differ");
}

#[test]
fn ir_and_circuit_agree_on_every_node_class() {
    assert_classes_agree("gcd", elastic_bench::gcd_ir(2));
    for stages in [1, 4] {
        for kind in [MebKind::Full, MebKind::Reduced, MebKind::Fifo { depth: 2 }] {
            let mut ir = Md5Circuit::ir(4, 4, stages).ir;
            MebSubstitution::all(kind)
                .run(&mut ir)
                .expect("substitution applies");
            assert_classes_agree(&format!("md5, {stages} stages, {kind} MEBs"), ir);
        }
    }
    assert_classes_agree("processor", Cpu::cost_ir(2).ir);
}
