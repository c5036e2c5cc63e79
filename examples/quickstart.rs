//! Quickstart: build a small multithreaded elastic circuit by hand, run
//! it, and inspect throughput — the five-minute tour of the library.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use mt_elastic::core::{ArbiterKind, MebKind, ReducedMeb};
use mt_elastic::sim::{
    CircuitBuilder, LatencyModel, ReadyPolicy, Sink, Source, Tagged, VarLatency,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const THREADS: usize = 3;

    // 1. Declare channels. A multithreaded elastic channel carries one
    //    thread's data per cycle plus a valid/ready pair per thread.
    let mut b = CircuitBuilder::<Tagged>::new();
    let inject = b.channel("inject", THREADS);
    let buffered = b.channel("buffered", THREADS);
    let computed = b.channel("computed", THREADS);

    // 2. A source with some work per thread.
    let mut src = Source::new("src", inject, THREADS);
    for t in 0..THREADS {
        src.extend(t, (0..10).map(|i| Tagged::new(t, i, i * 10 + t as u64)));
    }
    b.add(src);

    // 3. The paper's reduced MEB: S main registers + one shared auxiliary
    //    slot, arbitrated round-robin.
    b.add(ReducedMeb::new(
        "meb",
        inject,
        buffered,
        THREADS,
        ArbiterKind::RoundRobin.build(),
    ));

    // 4. A variable-latency computation unit (1–3 cycles), as elasticity
    //    is designed to tolerate.
    b.add(
        VarLatency::new(
            "unit",
            buffered,
            computed,
            THREADS,
            2,
            LatencyModel::Uniform {
                min: 1,
                max: 3,
                seed: 42,
            },
        )
        .with_transform(|tok: &Tagged| Tagged::new(tok.thread, tok.seq, tok.payload * 2)),
    );

    // 5. A consumer that occasionally back-pressures.
    b.add(Sink::with_capture(
        "snk",
        computed,
        THREADS,
        ReadyPolicy::Period {
            on: 3,
            off: 1,
            phase: 0,
        },
    ));

    // 6. Build (the netlist is validated) and run.
    let mut circuit = b.build()?;
    circuit.run(120)?;

    let snk: &Sink<Tagged> = circuit.get("snk").expect("sink exists");
    println!("consumed per thread:");
    for t in 0..THREADS {
        let first: Vec<u64> = snk
            .captured(t)
            .iter()
            .take(4)
            .map(|(_, tok)| tok.payload)
            .collect();
        println!(
            "  thread {t}: {} tokens (first payloads: {:?}), throughput {:.3}",
            snk.consumed(t),
            first,
            circuit.stats().throughput(computed, t)
        );
    }
    println!(
        "channel `computed`: utilization {:.1}%, stall rate {:.1}%",
        100.0 * circuit.stats().utilization(computed),
        100.0 * circuit.stats().stall_rate(computed)
    );
    println!("\nnext stops: DESIGN.md, `cargo run -p elastic-bench --bin fig5_pipeline_trace`, `cargo run --example md5_pipeline`");
    assert_eq!(snk.consumed_total(), 30);
    let _ = MebKind::Full; // see `reduced_vs_full` for the comparison
    Ok(())
}
