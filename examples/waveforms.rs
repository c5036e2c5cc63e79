//! EDA tooling demo: run the Figure 5 scenario, export the trace as a
//! **VCD** waveform (open it in GTKWave) and the elaborated netlist as a
//! **Graphviz DOT** graph, and print per-token latency statistics.
//!
//! ```text
//! cargo run --example waveforms
//! gtkwave target/fig5_reduced.vcd     # if you have GTKWave
//! dot -Tsvg target/fig5_netlist.dot -o fig5.svg
//! ```

use std::fs::File;
use std::io::BufWriter;

use mt_elastic::core::MebKind;
use mt_elastic::sim::token_latencies;

use elastic_bench::{fig5_harness, Fig5Setup};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let setup = Fig5Setup::paper(MebKind::Reduced);
    let h = fig5_harness(&setup);

    // 1. VCD waveform of every channel.
    std::fs::create_dir_all("target")?;
    let vcd_path = "target/fig5_reduced.vcd";
    h.circuit
        .write_vcd(BufWriter::new(File::create(vcd_path)?))?;
    println!("wrote {vcd_path} — open with `gtkwave {vcd_path}`");

    // 2. Structural netlist as DOT.
    let netlist = h.circuit.netlist();
    let dot_path = "target/fig5_netlist.dot";
    std::fs::write(dot_path, netlist.to_dot())?;
    println!(
        "wrote {dot_path} — {} components, {} channels{}",
        netlist.component_count(),
        netlist.channel_count(),
        if netlist.has_cycle() {
            " (with feedback)"
        } else {
            ""
        }
    );

    // 3. Per-token latency through the 2-stage pipeline.
    let lat = token_latencies(
        h.circuit.trace().expect("tracing was enabled"),
        h.pipeline.input,
        h.pipeline.output,
    );
    println!("\nper-token latency (input → output):");
    if let Some(all) = lat.summary() {
        println!("  all threads: {all}");
    }
    for t in 0..2 {
        if let Some(s) = lat.summary_for(t) {
            println!("  thread {t}:    {s}");
        }
    }
    println!(
        "\nthread B's tail latency reflects its scripted stall (cycles {}..{}).",
        setup.stall_from, setup.stall_to
    );
    Ok(())
}
