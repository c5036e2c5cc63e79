//! Regenerates the paper's **Figure 1**: the same computation under
//! (a) inelastic, (b) single-thread elastic and (c) multithreaded elastic
//! operation.
//!
//! One variable-latency computation unit processes a bursty stream from
//! thread A. Inelastic operation must clock every stage at the worst-case
//! latency; elastic operation processes data when it is valid, leaving
//! idle slots during bursts' gaps; multithreaded elastic operation fills
//! those slots with an independent thread B.
//!
//! ```text
//! cargo run --release -p elastic-bench --bin fig1_traces
//! ```

use elastic_core::{ArbiterKind, MebKind};
use elastic_sim::{
    CircuitBuilder, GridTrace, LatencyModel, ReadyPolicy, RowSpec, Sink, Source, Tagged, VarLatency,
};

/// Thread A's bursty arrival pattern: tokens released in clumps.
fn thread_a_schedule() -> Vec<(u64, u64)> {
    // (release cycle, sequence) — bursts of 2–3 with gaps.
    vec![
        (0, 0),
        (1, 1),
        (5, 2),
        (6, 3),
        (7, 4),
        (12, 5),
        (13, 6),
        (18, 7),
    ]
}

fn run_variant(threads: usize, b_tokens: u64) -> (f64, String) {
    let mut b = CircuitBuilder::<Tagged>::new();
    let inject = b.channel("inject", threads);
    let buffered = b.channel("buffered", threads);
    let computed = b.channel("computed", threads);
    let mut src = Source::new("src", inject, threads);
    for (cycle, seq) in thread_a_schedule() {
        src.push_at(0, cycle, Tagged::new(0, seq, seq));
    }
    if threads > 1 {
        for seq in 0..b_tokens {
            src.push(1, Tagged::new(1, seq, seq));
        }
    }
    b.add(src);
    b.add_boxed(MebKind::Reduced.build_with::<Tagged>(
        "meb",
        inject,
        buffered,
        threads,
        ArbiterKind::RoundRobin,
    ));
    b.add(VarLatency::new(
        "unit",
        buffered,
        computed,
        threads,
        2,
        LatencyModel::Uniform {
            min: 1,
            max: 2,
            seed: 7,
        },
    ));
    b.add(Sink::new("snk", computed, threads, ReadyPolicy::Always));
    let mut circuit = b.build().expect("fig1 circuit is well-formed");
    circuit.enable_trace();
    circuit.run(26).expect("fig1 runs clean");
    let utilization = circuit.stats().utilization(computed);
    let grid = GridTrace::new(vec![RowSpec::channel(computed, "unit output")]);
    let rendered = grid.render(circuit.trace().expect("traced"), 0, 25);
    (utilization, rendered)
}

fn main() {
    println!("Fig. 1 — single and multithreaded elasticity versus inelastic operation\n");

    // (a) Inelastic: every operation takes the worst-case latency and the
    // schedule is fixed at design time — the clock period absorbs the
    // worst case, so effective throughput is 1/worst-case even for fast
    // operations.
    let ops = thread_a_schedule().len() as f64;
    let worst_case = 2.0;
    println!(
        "(a) inelastic: fixed global schedule, every stage clocked at the worst-case\n    \
         latency of {worst_case} cycles -> {ops} operations need {} slow cycles \
         (effective utilization {:.0}% of the fast-clock datapath)\n",
        ops * worst_case,
        100.0 / worst_case
    );

    let (util_elastic, trace_elastic) = run_variant(1, 0);
    println!(
        "(b) elastic (1 thread): operations run when data is valid; bursty input\n    \
         leaves idle slots — utilization {:.0}%\n",
        100.0 * util_elastic
    );
    println!("{trace_elastic}");

    let (util_mt, trace_mt) = run_variant(2, 14);
    println!(
        "(c) multithreaded elastic (2 threads): thread B's independent work fills\n    \
         the idle slots — utilization {:.0}%\n",
        100.0 * util_mt
    );
    println!("{trace_mt}");

    println!(
        "utilization: elastic {:.0}% -> multithreaded elastic {:.0}%",
        100.0 * util_elastic,
        100.0 * util_mt
    );
}
