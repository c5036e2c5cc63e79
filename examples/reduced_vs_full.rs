//! The paper's central trade-off in one screen: the reduced MEB stores
//! `S + 1` tokens instead of `2·S`, behaves identically under uniform
//! load, and gives up throughput only in the all-but-one-blocked worst
//! case (paper, Sec. III-A) — while the cost model shows what the saved
//! registers buy in silicon (Table I).
//!
//! ```text
//! cargo run --release --example reduced_vs_full
//! ```

use mt_elastic::core::{MebKind, PipelineConfig, PipelineHarness};
use mt_elastic::sim::ReadyPolicy;

use elastic_bench::table1::average_savings;
use elastic_bench::Design;

fn measure(kind: MebKind, blocked: bool) -> (f64, u64) {
    const THREADS: usize = 4;
    let mut cfg = PipelineConfig::free_flowing(THREADS, 3, kind, 500);
    if blocked {
        for t in 1..THREADS {
            cfg = cfg.with_sink_policy(t, ReadyPolicy::Never);
        }
    }
    let mut h = PipelineHarness::build(cfg);
    h.circuit.run(60).expect("warmup");
    h.circuit.reset_stats();
    h.circuit.run(300).expect("measurement");
    let thr = if blocked {
        h.circuit.stats().throughput(h.pipeline.output, 0)
    } else {
        h.circuit.stats().channel_throughput(h.pipeline.output)
    };
    (thr, kind.slots(THREADS) as u64 * 3)
}

fn main() {
    println!("reduced vs full MEB — behaviour (4 threads, 3-stage pipeline)\n");
    println!(
        "{:<12} {:>12} {:>20} {:>22}",
        "buffer", "slots (×3)", "uniform aggregate", "lone unblocked thread"
    );
    println!("{}", "-".repeat(70));
    for kind in [MebKind::Full, MebKind::Reduced] {
        let (uniform, slots) = measure(kind, false);
        let (worst, _) = measure(kind, true);
        println!(
            "{:<12} {:>12} {:>20.3} {:>22.3}",
            kind.to_string(),
            slots,
            uniform,
            worst
        );
    }

    println!("\nreduced vs full MEB — silicon (structural cost model, Table I)\n");
    for (design, label) in [(Design::Md5, "MD5 hash"), (Design::Processor, "processor")] {
        println!(
            "  {label:<10} 8 threads: full {:>6} LEs, reduced {:>6} LEs  (saves {:.1}%)",
            design.area_les(MebKind::Full, 8),
            design.area_les(MebKind::Reduced, 8),
            100.0 * design.savings_fraction(8)
        );
    }
    println!(
        "\naverage saving: {:.1}% at 8 threads, {:.1}% at 16 — the buffer-dominated\n\
         designs benefit most, at the price of the worst-case column above.",
        100.0 * average_savings(8),
        100.0 * average_savings(16)
    );
}
