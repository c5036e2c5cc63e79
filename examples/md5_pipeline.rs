//! The paper's first design example end to end: hash eight messages on
//! the 8-thread multithreaded elastic MD5 circuit and verify against the
//! software reference (paper, Sec. V-A). Each hasher then hashes the same
//! messages a second time on the circuit it kept from the first call,
//! which must give the same digests in the same number of cycles.
//!
//! ```text
//! cargo run --example md5_pipeline
//! ```

use mt_elastic::core::MebKind;
use mt_elastic::md5::{algo, Md5Hasher};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let messages: Vec<Vec<u8>> = vec![
        b"".to_vec(),
        b"a".to_vec(),
        b"abc".to_vec(),
        b"message digest".to_vec(),
        b"abcdefghijklmnopqrstuvwxyz".to_vec(),
        (0..100u8).collect(), // multi-block
        b"elastic systems tolerate variable latency".to_vec(),
        b"threads share buffers in the reduced MEB".to_vec(),
    ];
    let refs: Vec<&[u8]> = messages.iter().map(|m| m.as_slice()).collect();

    for kind in [MebKind::Full, MebKind::Reduced] {
        let hasher = Md5Hasher::new(8, kind);
        let (digests, cycles) = hasher.hash_messages(&refs)?;
        println!("{kind} MEBs — 8 threads, {cycles} cycles:");
        for (msg, digest) in refs.iter().zip(&digests) {
            let reference = algo::md5(msg);
            let status = if *digest == reference {
                "ok"
            } else {
                "MISMATCH"
            };
            println!(
                "  {:<44} {} [{status}]",
                format!("{:?}", String::from_utf8_lossy(&msg[..msg.len().min(40)])),
                algo::to_hex(digest)
            );
            assert_eq!(*digest, reference, "circuit must match RFC 1321");
        }
        let (again, cycles_again) = hasher.hash_messages(&refs)?;
        assert_eq!(
            again, digests,
            "a reused circuit must give the same digests"
        );
        assert_eq!(
            cycles_again, cycles,
            "a reused circuit must take as many cycles"
        );
        println!("  second call on the kept circuit: same digests, {cycles_again} cycles");
        println!();
    }
    println!(
        "each block makes 4 trips through the unrolled round unit; the barrier\n\
         holds all threads between rounds so one global configuration counter\n\
         can drive the datapath — exactly the structure of the paper's Sec. V-A."
    );
    Ok(())
}
