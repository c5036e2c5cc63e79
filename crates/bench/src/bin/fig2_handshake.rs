//! Regenerates the paper's **Figure 2(b)**: the valid/ready handshake of
//! a single-thread elastic channel between two EBs, with intermittent
//! backpressure so all three protocol situations appear (transfer, idle,
//! stall).
//!
//! ```text
//! cargo run --release -p elastic-bench --bin fig2_handshake
//! ```

use elastic_core::ElasticBuffer;
use elastic_sim::{render_waveform, CircuitBuilder, ReadyPolicy, Sink, Source};

fn main() {
    let mut b = CircuitBuilder::<String>::new();
    let input = b.channel("in", 1);
    let mid = b.channel("link", 1);
    let output = b.channel("out", 1);
    let mut src = Source::new("src", input, 1);
    for (i, word) in ["word1", "word2", "word3"].iter().enumerate() {
        src.push_at(0, 2 * i as u64, word.to_string());
    }
    b.add(src);
    b.add(ElasticBuffer::new("eb0", input, mid));
    b.add(ElasticBuffer::new("eb1", mid, output));
    b.add(Sink::new(
        "snk",
        output,
        1,
        ReadyPolicy::Period {
            on: 2,
            off: 1,
            phase: 1,
        },
    ));
    let mut circuit = b.build().expect("fig2 circuit is well-formed");
    circuit.enable_trace();
    circuit.run(12).expect("fig2 runs clean");

    println!("Fig. 2(b) — elastic channel handshake between two EBs");
    println!("(valid ▔ high / ▁ low; ready shown where the transfer fires; data at fire)\n");
    print!(
        "{}",
        render_waveform(circuit.trace().expect("traced"), &[(mid, "link")], 0, 11)
    );
    println!(
        "transfers on `link`: {:?}",
        circuit
            .trace()
            .expect("traced")
            .transfers_on(mid)
            .iter()
            .map(|(c, _, l)| format!("{l}@{c}"))
            .collect::<Vec<_>>()
    );
}
