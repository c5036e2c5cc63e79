//! Property-based microarchitectural invariants of the MEBs, checked
//! against recorded cycle traces and slot snapshots:
//!
//! * forward latency ≥ 1 cycle (a token never appears at the output in
//!   its arrival cycle — both handshake directions are registered);
//! * per-thread FIFO order through the buffer;
//! * the reduced MEB never holds more than one thread with two items,
//!   and its shared slot is occupied exactly when some thread is FULL;
//! * storage never exceeds the architectural capacity (`2S` vs `S+1`).

use elastic_core::{ArbiterKind, FifoMeb, MebKind, ReducedMeb};
use elastic_sim::{Circuit, CircuitBuilder, CycleTrace, ReadyPolicy, Sink, Source, Tagged};
use proptest::prelude::*;
use std::collections::HashMap;

struct TraceRun {
    circuit: Circuit<Tagged>,
    input: elastic_sim::ChannelId,
    output: elastic_sim::ChannelId,
}

fn run_meb(
    kind: MebKind,
    threads: usize,
    tokens: u64,
    p_ready: f64,
    seed: u64,
    cycles: u64,
) -> TraceRun {
    let mut b = CircuitBuilder::<Tagged>::new();
    let input = b.channel("in", threads);
    let output = b.channel("out", threads);
    let mut src = Source::new("src", input, threads);
    for t in 0..threads {
        src.extend(t, (0..tokens).map(|i| Tagged::new(t, i, i)));
    }
    b.add(src);
    b.add_boxed(kind.build_with::<Tagged>("meb", input, output, threads, ArbiterKind::RoundRobin));
    let mut sink = Sink::with_capture("snk", output, threads, ReadyPolicy::Always);
    for t in 0..threads {
        sink.set_policy(
            t,
            ReadyPolicy::Random {
                p: p_ready,
                seed: seed ^ (t as u64) << 7,
            },
        );
    }
    b.add(sink);
    let mut circuit = b.build().expect("valid");
    circuit.enable_trace();
    circuit.run(cycles).expect("protocol clean");
    TraceRun {
        circuit,
        input,
        output,
    }
}

/// Arrival cycle per label on `ch` (fired transfers).
fn fire_cycles(records: &[CycleTrace], ch: elastic_sim::ChannelId) -> HashMap<String, u64> {
    let mut map = HashMap::new();
    for r in records {
        let c = &r.channels[ch.index()];
        if c.fired {
            if let Some(l) = &c.label {
                map.entry(l.clone()).or_insert(r.cycle);
            }
        }
    }
    map
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn forward_latency_at_least_one_cycle(
        threads in 1usize..5,
        tokens in 1u64..12,
        p_ready in 0.2f64..1.0,
        seed in any::<u64>(),
        full in any::<bool>(),
    ) {
        let kind = if full { MebKind::Full } else { MebKind::Reduced };
        let run = run_meb(kind, threads, tokens, p_ready, seed, 300);
        let records = run.circuit.trace().expect("traced").records();
        let ins = fire_cycles(records, run.input);
        let outs = fire_cycles(records, run.output);
        for (label, exit) in &outs {
            let enter = ins.get(label).expect("exited token must have entered");
            prop_assert!(
                exit > enter,
                "token {label} exited at {exit} but entered at {enter}"
            );
        }
    }

    #[test]
    fn per_thread_fifo_order(
        threads in 1usize..5,
        tokens in 1u64..12,
        p_ready in 0.2f64..1.0,
        seed in any::<u64>(),
        full in any::<bool>(),
    ) {
        let kind = if full { MebKind::Full } else { MebKind::Reduced };
        let run = run_meb(kind, threads, tokens, p_ready, seed, 400);
        let snk: &Sink<Tagged> = run.circuit.get("snk").expect("sink");
        for t in 0..threads {
            let seqs: Vec<u64> = snk.captured(t).iter().map(|(_, tok)| tok.seq).collect();
            prop_assert_eq!(&seqs, &(0..tokens).collect::<Vec<_>>(), "thread {}", t);
        }
    }

    /// Reduced MEB structural invariants, inspected from the per-cycle
    /// slot snapshots: shared occupied ⇒ its owner's main is occupied too
    /// (the FULL thread), and total occupancy ≤ S + 1.
    #[test]
    fn reduced_meb_slot_invariants(
        threads in 1usize..5,
        tokens in 1u64..12,
        p_ready in 0.1f64..0.9,
        seed in any::<u64>(),
    ) {
        let run = run_meb(MebKind::Reduced, threads, tokens, p_ready, seed, 300);
        let rec = run.circuit.trace().expect("traced");
        let meb_idx = rec
            .component_names()
            .iter()
            .position(|n| n == "meb")
            .expect("meb in name table");
        for record in rec.records() {
            let slots = record
                .slots
                .iter()
                .find(|(i, _)| *i == meb_idx)
                .map(|(_, s)| s)
                .expect("meb snapshots present");
            let shared_owner = slots
                .iter()
                .find(|s| s.name == "shared")
                .and_then(|s| s.occupant.as_ref())
                .map(|(t, _)| *t);
            let occupied: usize = slots.iter().filter(|s| s.occupant.is_some()).count();
            prop_assert!(occupied <= threads + 1, "occupancy {} at cycle {}", occupied, record.cycle);
            if let Some(owner) = shared_owner {
                let owner_main = slots
                    .iter()
                    .find(|s| s.name == format!("main[{owner}]"))
                    .and_then(|s| s.occupant.as_ref());
                prop_assert!(
                    owner_main.is_some(),
                    "shared owned by thread {} with empty main at cycle {}",
                    owner,
                    record.cycle
                );
            }
        }
    }

    /// Full MEB: per-thread occupancy ≤ 2 in every snapshot; aux occupied
    /// implies main occupied (the queue shifts forward).
    #[test]
    fn full_meb_slot_invariants(
        threads in 1usize..5,
        tokens in 1u64..12,
        p_ready in 0.1f64..0.9,
        seed in any::<u64>(),
    ) {
        let run = run_meb(MebKind::Full, threads, tokens, p_ready, seed, 300);
        let rec = run.circuit.trace().expect("traced");
        let meb_idx = rec
            .component_names()
            .iter()
            .position(|n| n == "meb")
            .expect("meb in name table");
        for record in rec.records() {
            let slots = record
                .slots
                .iter()
                .find(|(i, _)| *i == meb_idx)
                .map(|(_, s)| s)
                .expect("meb snapshots present");
            for t in 0..threads {
                let main = slots.iter().find(|s| s.name == format!("q[{t}][0]"));
                let aux = slots.iter().find(|s| s.name == format!("q[{t}][1]"));
                let main_full = main.is_some_and(|s| s.occupant.is_some());
                let aux_full = aux.is_some_and(|s| s.occupant.is_some());
                prop_assert!(
                    !aux_full || main_full,
                    "thread {} aux occupied with empty main at cycle {}",
                    t,
                    record.cycle
                );
            }
        }
    }
}

/// Deterministic cross-check: a full MEB and a ReducedMeb instance driven
/// by identical always-ready traffic deliver identical schedules (they
/// only differ under multi-thread stalls).
#[test]
fn identical_schedules_without_stalls() {
    let mut schedules = Vec::new();
    for kind in [MebKind::Full, MebKind::Reduced] {
        let run = run_meb(kind, 3, 8, 1.0, 0, 60);
        let records = run.circuit.trace().expect("traced").records();
        let outs: Vec<(u64, String)> = records
            .iter()
            .filter_map(|r| {
                let c = &r.channels[run.output.index()];
                if c.fired {
                    c.label.clone().map(|l| (r.cycle, l))
                } else {
                    None
                }
            })
            .collect();
        schedules.push(outs);
    }
    assert_eq!(schedules[0], schedules[1]);
}

/// Direct API cross-check of occupancy accounting.
#[test]
fn occupancy_accessors_match_reality() {
    let mut b = CircuitBuilder::<Tagged>::new();
    let input = b.channel("in", 2);
    let output = b.channel("out", 2);
    let mut src = Source::new("src", input, 2);
    src.extend(0, (0..4).map(|i| Tagged::new(0, i, i)));
    src.extend(1, (0..4).map(|i| Tagged::new(1, i, i)));
    b.add(src);
    b.add(FifoMeb::full(
        "full",
        input,
        output,
        2,
        ArbiterKind::RoundRobin.build(),
    ));
    b.add(Sink::new("snk", output, 2, ReadyPolicy::Never));
    let mut c = b.build().expect("valid");
    c.run(12).expect("clean");
    let meb: &FifoMeb<Tagged> = c.get("full").expect("meb");
    assert_eq!(meb.occupancy_total(), 4);
    assert_eq!(meb.occupancy(0), 2);
    assert_eq!(meb.occupancy(1), 2);

    let mut b = CircuitBuilder::<Tagged>::new();
    let input = b.channel("in", 2);
    let output = b.channel("out", 2);
    let mut src = Source::new("src", input, 2);
    src.extend(0, (0..4).map(|i| Tagged::new(0, i, i)));
    src.extend(1, (0..4).map(|i| Tagged::new(1, i, i)));
    b.add(src);
    b.add(ReducedMeb::new(
        "red",
        input,
        output,
        2,
        ArbiterKind::RoundRobin.build(),
    ));
    b.add(Sink::new("snk", output, 2, ReadyPolicy::Never));
    let mut c = b.build().expect("valid");
    c.run(12).expect("clean");
    let meb: &ReducedMeb<Tagged> = c.get("red").expect("meb");
    assert_eq!(meb.occupancy_total(), 3, "S + 1 = 3 slots");
}
