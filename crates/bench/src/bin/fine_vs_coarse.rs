//! Fine-grained vs coarse-grained multithreading (paper, Sec. I: threads
//! may share the datapath "in a fine-grained manner by changing the
//! active thread on cycle-by-cycle basis or in a coarse-grained manner
//! that allows each thread to complete a larger set of computations
//! before moving to the next one", citing Ungerer et al.).
//!
//! Two measurements:
//!
//! 1. processor IPC across workloads — with stall-on-branch and variable
//!    latencies, fine-grained interleaving hides more bubbles;
//! 2. per-token latency through a MEB pipeline — coarse-grained quanta
//!    make *other* threads' tokens wait, fattening the latency tail.
//!
//! ```text
//! cargo run --release -p elastic-bench --bin fine_vs_coarse
//! ```

use elastic_core::{ArbiterKind, MebKind};
use elastic_proc::{programs, Cpu, CpuConfig};
use elastic_sim::{CircuitBuilder, ReadyPolicy, Sink, Source, Tagged};

fn processor_ipc(arbiter: ArbiterKind, source: &str) -> f64 {
    let mut config = CpuConfig::new(4);
    config.arbiter = arbiter;
    let mut cpu = Cpu::from_asm(config, source).expect("assembles");
    cpu.run_to_halt(2_000_000).expect("halts").ipc
}

/// One deep MEB stage (per-thread FIFOs) shared by a backlogged thread 0
/// and three latency-sensitive threads that submit one token every few
/// cycles, draining into a throttled consumer so the buffer stays
/// contended. A coarse quantum lets thread 0 hold the output in bursts,
/// so the sparse threads' tokens queue behind it.
fn pipeline_latency(arbiter: ArbiterKind) -> (f64, u64) {
    const THREADS: usize = 4;
    let mut b = CircuitBuilder::<Tagged>::new();
    let input = b.channel("in", THREADS);
    let output = b.channel("out", THREADS);
    let mut src = Source::new("src", input, THREADS);
    src.extend(0, (0..400).map(|i| Tagged::new(0, i, i)));
    for t in 1..THREADS {
        for i in 0..80u64 {
            src.push_at(t, 5 * i + t as u64, Tagged::new(t, i, i));
        }
    }
    b.add(src);
    b.add_boxed(
        MebKind::Fifo { depth: 8 }.build_with::<Tagged>("meb", input, output, THREADS, arbiter),
    );
    b.add(Sink::with_capture(
        "snk",
        output,
        THREADS,
        ReadyPolicy::Period {
            on: 2,
            off: 1,
            phase: 0,
        },
    ));
    let mut circuit = b.build().expect("latency circuit is well-formed");
    circuit.run(450).expect("runs clean");
    // Latency = delivery cycle − the token's scheduled release cycle (the
    // queueing happens while the quantum owner hogs the channel, i.e.
    // *before* the injection fire — so measure from release, not entry).
    let snk: &Sink<Tagged> = circuit.get("snk").expect("sink");
    let mut sparse: Vec<u64> = Vec::new();
    for t in 1..THREADS {
        for (cycle, tok) in snk.captured(t) {
            let released = 5 * tok.seq + t as u64;
            sparse.push(cycle - released);
        }
    }
    let count = sparse.len() as f64;
    let mean = sparse.iter().sum::<u64>() as f64 / count;
    sparse.sort_unstable();
    let p95 = sparse[((sparse.len() - 1) as f64 * 0.95).round() as usize];
    (mean, p95)
}

fn main() {
    let policies = [
        ArbiterKind::RoundRobin,
        ArbiterKind::Coarse { quantum: 2 },
        ArbiterKind::Coarse { quantum: 4 },
        ArbiterKind::Coarse { quantum: 16 },
    ];

    println!("1. Processor IPC, 4 threads (higher is better)\n");
    print!("{:<14}", "policy");
    let workloads = ["sum_loop", "dot_product", "sieve"];
    for w in workloads {
        print!(" {w:>12}");
    }
    println!();
    println!("{}", "-".repeat(14 + 13 * workloads.len()));
    for policy in policies {
        print!("{:<14}", policy.to_string());
        for name in workloads {
            let source = programs::all()
                .into_iter()
                .find(|(n, _, _)| *n == name)
                .map(|(_, s, _)| s)
                .expect("workload exists");
            print!(" {:>12.3}", processor_ipc(policy, source));
        }
        println!();
    }

    println!(
        "\n2. Latency of sparse threads sharing one contended deep-FIFO MEB with a\n   backlogged thread (lower is better)\n"
    );
    println!("{:<14} {:>10} {:>10}", "policy", "mean", "p95");
    println!("{}", "-".repeat(36));
    for policy in policies {
        let (mean, p95) = pipeline_latency(policy);
        println!("{:<14} {:>10.1} {:>10}", policy.to_string(), mean, p95);
    }
    println!(
        "\nwith dependent/branchy code, a thread that owns the datapath for a long\n\
         quantum stalls on its own hazards while other threads queue behind it —\n\
         the elastic MEBs make fine-grained interleaving free, which is why the\n\
         paper's examples arbitrate cycle by cycle."
    );
}
