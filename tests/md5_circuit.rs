//! E-X3 — the elastic MD5 circuit against the RFC 1321 reference, across
//! thread counts, MEB kinds and arbitrary messages (property-based).

use mt_elastic::core::MebKind;
use mt_elastic::md5::{algo, Md5Circuit, Md5Error, Md5Hasher};
use mt_elastic::sim::EvalMode;
use proptest::prelude::*;

/// RFC 1321 appendix suite through the 8-thread circuit, both MEB kinds.
#[test]
fn rfc1321_suite_through_the_circuit() {
    let vectors: [(&[u8], &str); 7] = [
        (b"", "d41d8cd98f00b204e9800998ecf8427e"),
        (b"a", "0cc175b9c0f1b6a831c399e269772661"),
        (b"abc", "900150983cd24fb0d6963f7d28e17f72"),
        (b"message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
        (
            b"abcdefghijklmnopqrstuvwxyz",
            "c3fcd3d76192e4007dfb496cca67e13b",
        ),
        (
            b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
            "d174ab98d277d9f5a5611c2c9f419d9f",
        ),
        (
            b"12345678901234567890123456789012345678901234567890123456789012345678901234567890",
            "57edf4a22be3c955ac49da2e2107b67a",
        ),
    ];
    let messages: Vec<&[u8]> = vectors.iter().map(|(m, _)| *m).collect();
    for kind in [MebKind::Full, MebKind::Reduced] {
        let hasher = Md5Hasher::new(8, kind);
        let (digests, _) = hasher.hash_messages(&messages).expect("hashing succeeds");
        for ((_, expect), digest) in vectors.iter().zip(&digests) {
            assert_eq!(&algo::to_hex(digest), expect, "{kind}");
        }
    }
}

/// Thread-count sweep: 1..=8 threads, same messages, same digests.
#[test]
fn digests_are_thread_count_invariant() {
    let messages: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8; 10 + 7 * i]).collect();
    let refs: Vec<&[u8]> = messages.iter().map(|m| m.as_slice()).collect();
    let expected: Vec<String> = refs.iter().map(|m| algo::to_hex(&algo::md5(m))).collect();
    for threads in 4..=8 {
        let hasher = Md5Hasher::new(threads, MebKind::Reduced);
        let (digests, _) = hasher.hash_messages(&refs).expect("hashing succeeds");
        let got: Vec<String> = digests.iter().map(algo::to_hex).collect();
        assert_eq!(got, expected, "threads = {threads}");
    }
}

/// More threads processing the same per-thread workload should not cost
/// proportionally more cycles — the loop is time-multiplexed.
#[test]
fn cycles_scale_sublinearly_with_threads() {
    let one_msg = [b"x".repeat(40)];
    let one: Vec<&[u8]> = one_msg.iter().map(|m| m.as_slice()).collect();
    let (_, cycles_1) = Md5Hasher::new(1, MebKind::Reduced)
        .hash_messages(&one)
        .expect("ok");

    let eight_msgs: Vec<Vec<u8>> = (0..8).map(|_| b"x".repeat(40)).collect();
    let eight: Vec<&[u8]> = eight_msgs.iter().map(|m| m.as_slice()).collect();
    let (_, cycles_8) = Md5Hasher::new(8, MebKind::Reduced)
        .hash_messages(&eight)
        .expect("ok");

    // 8× the work should cost well under 8× the cycles (measured ≈ 4×:
    // the rounds serialize on one channel but latencies overlap).
    assert!(
        (cycles_8 as f64) < 5.0 * cycles_1 as f64,
        "8 threads x same work took {cycles_8} cycles vs {cycles_1} for one"
    );
}

/// `count` messages of 1–4 blocks (after padding), distinct per `salt`.
fn batch(count: usize, salt: u8) -> Vec<Vec<u8>> {
    (0..count)
        .map(|i| {
            let len = [20, 70, 130, 190][(i + usize::from(salt)) % 4] + usize::from(salt);
            (0..len).map(|b| (b as u8) ^ salt ^ (i as u8)).collect()
        })
        .collect()
}

/// One hasher serves a sequence of calls of different sizes, with an
/// empty call and a failing call in between, and returns for each call
/// what a fresh hasher returns: digests, cycles and kernel counters. It
/// keeps doing so after `with_eval_mode` and `with_stages` change the
/// circuit it would reuse.
#[test]
fn a_reused_hasher_matches_a_fresh_hasher_per_call() {
    const THREADS: usize = 8;
    // Message counts of the calls; 9 exceeds the thread count and fails.
    // The sequence ends with the count it starts with, so a circuit kept
    // across `with_eval_mode` or `with_stages` would be reused.
    let counts = [1usize, 8, 8, 3, 0, 3, 9, 8, 1, 1];
    let run = |hasher: &Md5Hasher, fresh: &dyn Fn() -> Md5Hasher, label: &str| {
        for (call, &count) in counts.iter().enumerate() {
            let messages = batch(count, call as u8);
            let refs: Vec<&[u8]> = messages.iter().map(Vec::as_slice).collect();
            match hasher.hash_messages_instrumented(&refs) {
                Ok(got) => {
                    let want = fresh()
                        .hash_messages_instrumented(&refs)
                        .expect("a fresh hasher hashes");
                    assert_eq!(got, want, "{label}, call {call} ({count} messages)");
                    for (digest, m) in got.0.iter().zip(&refs) {
                        assert_eq!(*digest, algo::md5(m), "{label}, call {call}");
                    }
                }
                Err(e) => assert!(
                    matches!(
                        e,
                        Md5Error::TooManyMessages {
                            given: 9,
                            threads: THREADS
                        }
                    ),
                    "{label}, call {call}: {e}"
                ),
            }
        }
    };
    let new = |mode: EvalMode, stages: usize| {
        Md5Hasher::new(THREADS, MebKind::Reduced)
            .with_eval_mode(mode)
            .with_stages(stages)
    };
    let hasher = new(EvalMode::EventDriven, 1);
    run(&hasher, &|| new(EvalMode::EventDriven, 1), "event-driven");
    let hasher = hasher.with_eval_mode(EvalMode::Exhaustive);
    run(&hasher, &|| new(EvalMode::Exhaustive, 1), "exhaustive");
    let hasher = hasher.with_stages(4);
    run(
        &hasher,
        &|| new(EvalMode::Exhaustive, 4),
        "exhaustive, 4 stages",
    );
}

/// A message count other than the participant count is a typed error
/// that leaves the circuit as it was; the circuit then hashes, and
/// hashes again identically after `Md5Circuit::reset`.
#[test]
fn wrong_message_count_is_a_typed_error() {
    let mut md5 = Md5Circuit::new(4, 2, MebKind::Reduced);
    for given in [1usize, 3] {
        let messages = batch(given, 1);
        let refs: Vec<&[u8]> = messages.iter().map(Vec::as_slice).collect();
        let err = md5.hash(&refs).expect_err("wrong message count");
        assert!(
            matches!(err, Md5Error::WrongMessageCount { given: g, participants: 2 } if g == given),
            "{err}"
        );
    }
    let messages = batch(2, 2);
    let refs: Vec<&[u8]> = messages.iter().map(Vec::as_slice).collect();
    let first = md5.hash(&refs).expect("the circuit still hashes");
    for (digest, m) in first.0.iter().zip(&refs) {
        assert_eq!(*digest, algo::md5(m));
    }
    md5.reset().expect("the loop resets");
    assert_eq!(md5.hash(&refs).expect("hashes after reset"), first);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary messages (up to 3 blocks, up to 4 threads) hash
    /// identically through the circuit and the software reference.
    #[test]
    fn circuit_matches_reference_on_arbitrary_messages(
        msgs in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..150), 1..4),
        full in any::<bool>(),
    ) {
        let refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
        let kind = if full { MebKind::Full } else { MebKind::Reduced };
        let hasher = Md5Hasher::new(refs.len(), kind);
        let (digests, _) = hasher.hash_messages(&refs).expect("hashing succeeds");
        for (msg, digest) in refs.iter().zip(&digests) {
            prop_assert_eq!(*digest, algo::md5(msg));
        }
    }
}
