//! Regenerates the paper's **Figure 5**: cycle-by-cycle traces of a
//! 2-stage, 2-thread MEB pipeline in which thread B's consumer stalls and
//! is later released — once with full MEBs (Fig. 5a) and once with
//! reduced MEBs (Fig. 5b).
//!
//! With `--long`, also runs the Sec. III-A worst case (B blocked forever,
//! deep pipeline) and prints the steady-state throughput of the lone
//! active thread: ~100 % with full MEBs, ~50 % with reduced ones.
//!
//! ```text
//! cargo run --release -p elastic-bench --bin fig5_pipeline_trace [-- --long]
//! ```

use elastic_bench::{fig5_harness, fig5_rows, reduced_worstcase, Fig5Setup};
use elastic_core::MebKind;
use elastic_sim::GridTrace;

fn main() {
    let long = std::env::args().any(|a| a == "--long");

    for (kind, figure) in [
        (MebKind::Full, "Fig. 5(a)"),
        (MebKind::Reduced, "Fig. 5(b)"),
    ] {
        let setup = Fig5Setup::paper(kind);
        let h = fig5_harness(&setup);
        println!(
            "{figure} — 2-stage pipeline of {kind} MEBs, 2 threads; thread B's consumer \
             stalls during cycles {}..{} (tokens marked `*` are valid but stalled)\n",
            setup.stall_from, setup.stall_to
        );
        let grid = GridTrace::new(fig5_rows(&h, kind));
        println!(
            "{}",
            grid.render(
                h.circuit.trace().expect("trace enabled"),
                0,
                setup.cycles - 1
            )
        );
        let out = h.pipeline.output;
        println!(
            "delivered: thread A {} tokens, thread B {} tokens in {} cycles\n",
            h.circuit.stats().transfers(out, 0),
            h.circuit.stats().transfers(out, 1),
            setup.cycles
        );
    }

    if long {
        println!(
            "Sec. III-A worst case: all threads but A blocked, stall propagated to the source"
        );
        println!("(this is the only behavioural difference between the two MEBs)\n");
        for kind in [MebKind::Full, MebKind::Reduced] {
            let r = reduced_worstcase(kind, 2, 4);
            println!(
                "  {:<8} MEB pipeline (4 stages): lone active thread throughput = {:.3}  (paper: {})",
                kind.to_string(),
                r.active_throughput,
                match kind {
                    MebKind::Full => "full channel utilization",
                    _ => "50% of throughput",
                }
            );
        }
    } else {
        println!("(run with --long for the Sec. III-A worst-case throughput measurement)");
    }
}
