//! Property tests over *composed* operator networks: fork/join diamonds
//! and branch/merge reconvergence with randomized MEB kinds, latencies
//! and stall patterns. Token conservation and per-thread pairing must
//! hold through any composition of the paper's primitives.

use mt_elastic::core::{ArbiterKind, Branch, Fork, Join, MebKind, Merge};
use mt_elastic::sim::{
    CircuitBuilder, LatencyModel, ReadyPolicy, Sink, Source, Tagged, VarLatency,
};
use proptest::prelude::*;

fn meb_kind_strategy() -> impl Strategy<Value = MebKind> {
    prop_oneof![
        Just(MebKind::Full),
        Just(MebKind::Reduced),
        (2usize..4).prop_map(|depth| MebKind::Fifo { depth }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Diamond: source → MEB → fork → (varlat | varlat) → join → sink.
    /// The join must pair each token with its own twin, per thread, for
    /// any latency skew between the arms.
    #[test]
    fn fork_join_diamond_pairs_twins(
        threads in 1usize..4,
        tokens in 1u64..15,
        kind in meb_kind_strategy(),
        lat_a in 1u32..4,
        lat_b in 1u32..4,
        seed in any::<u64>(),
    ) {
        let mut b = CircuitBuilder::<Tagged>::new();
        let src_ch = b.channel("src", threads);
        let buffered = b.channel("buf", threads);
        let arm_a = b.channel("arm_a", threads);
        let arm_b = b.channel("arm_b", threads);
        let done_a = b.channel("done_a", threads);
        let done_b = b.channel("done_b", threads);
        let joined = b.channel("joined", threads);

        let mut src = Source::new("src", src_ch, threads);
        for t in 0..threads {
            src.extend(t, (0..tokens).map(|i| Tagged::new(t, i, i)));
        }
        b.add(src);
        b.add_boxed(kind.build_with::<Tagged>("meb", src_ch, buffered, threads, ArbiterKind::RoundRobin));
        b.add(Fork::new("split", buffered, vec![arm_a, arm_b], threads));
        b.add(VarLatency::new("ua", arm_a, done_a, threads, 2,
            LatencyModel::Uniform { min: 1, max: lat_a.max(1), seed }));
        b.add(VarLatency::new("ub", arm_b, done_b, threads, 2,
            LatencyModel::Uniform { min: 1, max: lat_b.max(1), seed: seed ^ 1 }));
        b.add(Join::new("pair", vec![done_a, done_b], joined, threads, |ins: &[&Tagged]| {
            assert_eq!(ins[0].thread, ins[1].thread, "join paired different threads");
            assert_eq!(ins[0].seq, ins[1].seq, "join paired different generations");
            ins[0].clone()
        }));
        b.add(Sink::with_capture("snk", joined, threads, ReadyPolicy::Always));

        let mut circuit = b.build().expect("valid netlist");
        circuit.set_deadlock_watchdog(Some(200));
        let expected = tokens * threads as u64;
        let budget = 200 + expected * 12;
        let done = circuit
            .run_until(budget, move |c| c.stats().total_transfers(joined) >= expected);
        prop_assert!(matches!(done, Ok(true)), "{done:?}");

        let snk: &Sink<Tagged> = circuit.get("snk").expect("sink");
        for t in 0..threads {
            let seqs: Vec<u64> = snk.captured(t).iter().map(|(_, tok)| tok.seq).collect();
            prop_assert_eq!(&seqs, &(0..tokens).collect::<Vec<_>>(), "thread {}", t);
        }
    }

    /// Branch/merge reconvergence through buffered, latency-skewed paths:
    /// conservation per thread regardless of the routing predicate.
    #[test]
    fn branch_merge_reconvergence_conserves(
        threads in 1usize..4,
        tokens in 1u64..15,
        kind in meb_kind_strategy(),
        modulus in 2u64..5,
        p_ready in 0.3f64..1.0,
        seed in any::<u64>(),
    ) {
        let mut b = CircuitBuilder::<Tagged>::new();
        let src_ch = b.channel("src", threads);
        let buffered = b.channel("buf", threads);
        let hi = b.channel("hi", threads);
        let lo = b.channel("lo", threads);
        let hi_d = b.channel("hi_d", threads);
        let lo_d = b.channel("lo_d", threads);
        let merged = b.channel("merged", threads);

        let mut src = Source::new("src", src_ch, threads);
        for t in 0..threads {
            src.extend(t, (0..tokens).map(|i| Tagged::new(t, i, i)));
        }
        b.add(src);
        b.add_boxed(kind.build_with::<Tagged>("meb", src_ch, buffered, threads, ArbiterKind::RoundRobin));
        let m = modulus;
        b.add(Branch::new("route", buffered, hi, lo, threads, move |tok: &Tagged| {
            tok.payload % m == 0
        }));
        b.add(VarLatency::new("uh", hi, hi_d, threads, 2,
            LatencyModel::Uniform { min: 1, max: 3, seed }));
        b.add(VarLatency::new("ul", lo, lo_d, threads, 2,
            LatencyModel::Uniform { min: 1, max: 2, seed: seed ^ 7 }));
        b.add(Merge::new("rejoin", vec![hi_d, lo_d], merged, threads));
        b.add(Sink::with_capture("snk", merged, threads,
            ReadyPolicy::Random { p: p_ready, seed: seed ^ 13 }));

        let mut circuit = b.build().expect("valid netlist");
        circuit.set_deadlock_watchdog(Some(300));
        let expected = tokens * threads as u64;
        let budget = 300 + expected * 16;
        let done = circuit
            .run_until(budget, move |c| c.stats().total_transfers(merged) >= expected);
        prop_assert!(matches!(done, Ok(true)), "{done:?}");

        let snk: &Sink<Tagged> = circuit.get("snk").expect("sink");
        for t in 0..threads {
            let mut seqs: Vec<u64> = snk.captured(t).iter().map(|(_, tok)| tok.seq).collect();
            seqs.sort_unstable();
            prop_assert_eq!(&seqs, &(0..tokens).collect::<Vec<_>>(), "thread {}", t);
        }
    }
}
