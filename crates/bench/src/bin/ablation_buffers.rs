//! Ablation studies on the design choices called out in `DESIGN.md`:
//!
//! 1. **Buffer microarchitecture / capacity** — full vs reduced vs
//!    per-thread FIFOs of depth 1–4, under uniform load and under a
//!    blocked thread, with the storage cost next to the throughput;
//! 2. **Arbiter policy** — fixed-priority vs round-robin vs
//!    least-recently-granted fairness on a shared channel.
//!
//! Every table row is an independent simulation, so both ablations run
//! their rows as [`run_sweep`] jobs (submission order = row order).
//!
//! ```text
//! cargo run --release -p elastic-bench --bin ablation_buffers
//! ```

use elastic_bench::{measure_throughput, reduced_worstcase};
use elastic_core::{ArbiterKind, MebKind, PipelineConfig, PipelineHarness};
use elastic_sim::{run_sweep, SimJob};

fn buffer_ablation() {
    const THREADS: usize = 4;
    println!("1. Buffer ablation — {THREADS} threads, 3-stage pipeline\n");
    println!(
        "{:<12} {:>6} {:>18} {:>22}",
        "buffer", "slots", "uniform aggregate", "lone-thread (blocked)"
    );
    println!("{}", "-".repeat(62));
    let kinds = [
        MebKind::Fifo { depth: 1 },
        MebKind::Reduced,
        MebKind::Fifo { depth: 2 }, // storage-equivalent to Full
        MebKind::Full,
        MebKind::Fifo { depth: 4 },
    ];
    let jobs: Vec<SimJob<(f64, f64)>> = kinds
        .iter()
        .map(|&kind| {
            SimJob::new(format!("buffer {kind}"), move || {
                let uniform = measure_throughput(kind, THREADS, THREADS, 3);
                let worst = reduced_worstcase(kind, THREADS, 3);
                Ok((uniform.aggregate, worst.active_throughput))
            })
        })
        .collect();
    let rows = run_sweep(jobs).unwrap_all();
    for (kind, (uniform, worst)) in kinds.iter().zip(rows) {
        println!(
            "{:<12} {:>6} {:>18.3} {:>22.3}",
            kind.to_string(),
            kind.slots(THREADS),
            uniform,
            worst
        );
    }
    println!(
        "\n   reduced ({} slots) matches full ({} slots) everywhere except the\n   \
         all-but-one-blocked case — the paper's Sec. III-A trade-off.\n",
        MebKind::Reduced.slots(THREADS),
        MebKind::Full.slots(THREADS)
    );
}

fn arbiter_ablation() {
    const THREADS: usize = 4;
    println!("2. Arbiter ablation — {THREADS} always-active threads on one reduced-MEB stage\n");
    println!(
        "{:<14} {:>10} {:>26}",
        "policy", "aggregate", "per-thread min/max"
    );
    println!("{}", "-".repeat(54));
    let arbiters = ArbiterKind::all();
    let jobs: Vec<SimJob<(f64, f64, f64)>> = arbiters
        .iter()
        .map(|&arbiter| {
            SimJob::new(format!("arbiter {arbiter}"), move || {
                let mut cfg = PipelineConfig::free_flowing(THREADS, 1, MebKind::Reduced, 800);
                cfg.arbiter = arbiter;
                let mut h = PipelineHarness::build(cfg);
                h.circuit.run(40)?;
                h.circuit.reset_stats();
                h.circuit.run(400)?;
                let out = h.pipeline.output;
                let per: Vec<f64> = (0..THREADS)
                    .map(|t| h.circuit.stats().throughput(out, t))
                    .collect();
                let min = per.iter().cloned().fold(f64::INFINITY, f64::min);
                let max = per.iter().cloned().fold(0.0_f64, f64::max);
                Ok((h.circuit.stats().channel_throughput(out), min, max))
            })
        })
        .collect();
    let rows = run_sweep(jobs).unwrap_all();
    for (arbiter, (aggregate, min, max)) in arbiters.iter().zip(rows) {
        println!(
            "{:<14} {:>10.3} {:>15.3} / {:.3}",
            arbiter.to_string(),
            aggregate,
            min,
            max
        );
    }
    println!(
        "\n   all policies sustain the aggregate; fairness (min/max spread) is what\n   \
         distinguishes them — sources throttle under fixed priority only when a\n   \
         higher-priority thread keeps its slot occupied."
    );
}

fn main() {
    buffer_ablation();
    arbiter_ablation();
}
