//! Criterion bench: the dataflow-to-elastic synthesis flow (E-X10) —
//! elaboration cost and the simulation throughput of the synthesized
//! multithreaded GCD loop across thread counts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use elastic_synth::{DataflowBuilder, OpLatency, SynthCircuit};

fn build_gcd(threads: usize) -> SynthCircuit<(u64, u64)> {
    let mut g = DataflowBuilder::<(u64, u64)>::new(threads);
    let fresh = g.input("pairs");
    let looped = g.input("loop");
    let head = g.merge("entry", &[fresh, looped]);
    let (done, cont) = g.branch("done?", head, |&(a, b): &(u64, u64)| a == b);
    g.output("gcd", done);
    let step = g.op1("step", OpLatency::Fixed(1), cont, |&(a, b)| {
        if a > b {
            (a - b, b)
        } else {
            (a, b - a)
        }
    });
    g.loopback("loop", step).expect("loop closes");
    g.elaborate().expect("elaborates")
}

fn bench_elaboration(c: &mut Criterion) {
    let mut group = c.benchmark_group("synth_elaborate");
    for threads in [1usize, 4, 16] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| b.iter(|| build_gcd(threads)),
        );
    }
    group.finish();
}

fn bench_gcd_run(c: &mut Criterion) {
    let mut group = c.benchmark_group("synth_gcd_run");
    for threads in [1usize, 4, 8] {
        group.throughput(Throughput::Elements(threads as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let mut s = build_gcd(threads);
                    for t in 0..threads {
                        s.push("pairs", t, (1071 + t as u64, 462)).expect("push");
                    }
                    s.run_until_outputs("gcd", threads as u64, 200_000)
                        .expect("completes");
                    s.circuit.cycle()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_elaboration, bench_gcd_run);
criterion_main!(benches);
