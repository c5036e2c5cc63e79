//! Sweeps the number of active threads `M` over an 8-thread MEB pipeline
//! and reports per-thread and aggregate throughput — the `1/M` sharing
//! analysis of the paper's Sec. III-A, for both MEB microarchitectures
//! and the FIFO ablation.
//!
//! The 18 (buffer, M) measurement points are independent simulations, so
//! the sweep runs on the [`run_sweep`] worker pool; submission-order
//! results keep the table layout identical to the old serial loop.
//!
//! ```text
//! cargo run --release -p elastic-bench --bin throughput_vs_threads
//! ```

use elastic_bench::{measure_throughput, ThroughputPoint};
use elastic_core::MebKind;
use elastic_sim::{run_sweep, SimJob};

fn main() {
    const THREADS: usize = 8;
    const STAGES: usize = 3;
    println!(
        "Per-thread and aggregate throughput, {THREADS}-thread {STAGES}-stage MEB pipeline \
         (Sec. III-A: each of M active threads receives 1/M)\n"
    );
    println!(
        "{:<12} {:>3} {:>14} {:>8} {:>11}",
        "buffer", "M", "per-thread", "1/M", "aggregate"
    );
    println!("{}", "-".repeat(54));

    let kinds = [MebKind::Full, MebKind::Reduced, MebKind::Fifo { depth: 1 }];
    let actives = [1usize, 2, 3, 4, 6, 8];
    let mut jobs: Vec<SimJob<ThroughputPoint>> = Vec::new();
    for kind in kinds {
        for active in actives {
            jobs.push(SimJob::new(format!("{kind} M={active}"), move || {
                Ok(measure_throughput(kind, THREADS, active, STAGES))
            }));
        }
    }
    let points = run_sweep(jobs).unwrap_all();

    for (i, kind) in kinds.iter().enumerate() {
        for (j, active) in actives.iter().enumerate() {
            let p = &points[i * actives.len() + j];
            println!(
                "{:<12} {:>3} {:>14.3} {:>8.3} {:>11.3}",
                kind.to_string(),
                active,
                p.per_thread,
                1.0 / *active as f64,
                p.aggregate
            );
        }
        println!();
    }
    println!(
        "note: fifo(1) lacks any auxiliary slot — a lone thread saturates at 0.5 \
         even without stalls, which is why the EB needs two slots (Sec. II)."
    );
}
