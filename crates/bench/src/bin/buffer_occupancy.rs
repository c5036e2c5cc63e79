//! Buffer-occupancy evidence for the reduced MEB (paper, Sec. III-A):
//! under uniform utilization "each thread will use only one buffer out of
//! the two available per thread … Only when a thread stalls, it will use
//! its second auxiliary buffer." This experiment measures exactly that —
//! how often the main slots vs the auxiliary/shared slots actually hold
//! data, with and without downstream stalls.
//!
//! The four (load, buffer) configurations are independent traced runs
//! and execute as [`run_sweep`] jobs in submission order.
//!
//! ```text
//! cargo run --release -p elastic-bench --bin buffer_occupancy
//! ```

use elastic_core::{MebKind, PipelineConfig, PipelineHarness};
use elastic_sim::{occupancy_stats, run_sweep, OccupancyStats, ReadyPolicy, SimError, SimJob};

fn measure(kind: MebKind, stall: bool) -> Result<OccupancyStats, SimError> {
    const THREADS: usize = 8;
    let mut cfg = PipelineConfig::free_flowing(THREADS, 1, kind, 900);
    if stall {
        // Irregular stalls on half the threads so backpressure actually
        // bites (deterministic per-cycle hash, no periodic resonance).
        for t in 0..THREADS / 2 {
            cfg = cfg.with_sink_policy(
                t,
                ReadyPolicy::Random {
                    p: 0.25,
                    seed: 11 + t as u64,
                },
            );
        }
    }
    let mut h = PipelineHarness::build(cfg);
    h.circuit.enable_trace();
    h.circuit.run(600)?;
    let stats = occupancy_stats(h.circuit.trace().expect("traced"));
    Ok(stats
        .get(&h.pipeline.meb_names[0])
        .expect("meb snapshots present")
        .clone())
}

/// Mean busy fraction of the main slots and of the auxiliary/shared
/// slots. A reduced MEB's main slots are `main[t]`; a full MEB's are the
/// heads of its private FIFOs, `q[t][0]`.
fn aux_busy(stats: &OccupancyStats) -> (f64, f64) {
    let (mut main_sum, mut main_n, mut aux_sum, mut aux_n) = (0.0, 0, 0.0, 0);
    for (name, frac) in &stats.per_slot {
        if name.starts_with("main") || name.ends_with("[0]") {
            main_sum += frac;
            main_n += 1;
        } else {
            aux_sum += frac;
            aux_n += 1;
        }
    }
    (
        main_sum / main_n.max(1) as f64,
        aux_sum / aux_n.max(1) as f64,
    )
}

fn main() {
    println!(
        "Slot usage of one 8-thread MEB, 600 cycles — how often the main slots\n\
         vs the auxiliary/shared slots hold data (paper, Sec. III-A)\n"
    );
    println!(
        "{:<26} {:>7} {:>6} {:>12} {:>12}",
        "configuration", "mean", "peak", "main busy", "aux busy"
    );
    println!("{}", "-".repeat(68));

    let configs: Vec<(bool, &str, MebKind)> = [(false, "uniform"), (true, "half blocked")]
        .into_iter()
        .flat_map(|(stall, label)| {
            [MebKind::Full, MebKind::Reduced]
                .into_iter()
                .map(move |kind| (stall, label, kind))
        })
        .collect();
    let jobs: Vec<SimJob<OccupancyStats>> = configs
        .iter()
        .map(|&(stall, label, kind)| {
            SimJob::new(format!("{kind}, {label}"), move || measure(kind, stall))
        })
        .collect();
    let results = run_sweep(jobs).unwrap_all();

    for ((_, label, kind), stats) in configs.iter().zip(&results) {
        let (main, aux) = aux_busy(stats);
        println!(
            "{:<26} {:>7.2} {:>6} {:>11.1}% {:>11.1}%",
            format!("{kind}, {label}"),
            stats.mean,
            stats.max,
            100.0 * main,
            100.0 * aux
        );
    }
    println!(
        "\nuniform load: the auxiliary slots are essentially idle — the full MEB\n\
         carries 8 of them, the reduced MEB one; that difference is exactly the\n\
         register area Table I shows the reduced MEB saving. Under stalls the\n\
         aux storage earns its keep, and the reduced MEB\'s single shared slot\n\
         covers the common case (one blocked thread at a time)."
    );
}
