//! Criterion bench: the settle-loop hot path.
//!
//! Measures the simulation kernel's inner settle loop on backpressured
//! reduced-MEB pipelines (the workload of the packed-handshake and
//! fused-kernel measurements, `docs/perf.md` §4–5) and the raw cost of
//! the `ThreadMask` operations the loop is built from. Random sink
//! readiness keeps every channel's valid/ready masks churning, so the
//! pipeline cannot drain early. The `sink_word` group isolates the sink's
//! per-cycle policy word on a bare source → sink channel. The
//! `processor` group tracks the processor datapath, whose custom units
//! carry their own word-level `eval`s, and the `md5` group the paper's
//! MD5 loop (merge, MEBs, round transform, barrier, branch). See
//! `docs/perf.md` for the full methodology.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use elastic_core::{MebKind, PipelineConfig, PipelineHarness};
use elastic_md5::Md5Hasher;
use elastic_proc::{assemble, programs, Cpu, CpuConfig};
use elastic_sim::{CircuitBuilder, ReadyPolicy, Sink, Source, ThreadMask};

const CYCLES: u64 = 1_000;

fn run_backpressured(threads: usize, stages: usize) -> u64 {
    let mut cfg = PipelineConfig::free_flowing(threads, stages, MebKind::Reduced, CYCLES);
    for t in 0..threads {
        cfg = cfg.with_sink_policy(
            t,
            ReadyPolicy::Random {
                p: 0.6,
                seed: 0xC0FF_EE00 ^ t as u64,
            },
        );
    }
    let mut h = PipelineHarness::build(cfg);
    h.circuit.run(CYCLES).expect("pipeline runs clean");
    h.sink().consumed_total()
}

/// 4-stage backpressured pipelines at S = 8, 16 and 64, where the
/// word-level `eval` of `ReducedMeb`, `Source` and `Sink` carries the
/// settle loop.
fn bench_settle_loop(c: &mut Criterion) {
    let mut group = c.benchmark_group("backpressured");
    group.throughput(Throughput::Elements(CYCLES));
    for threads in [8usize, 16, 64] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| b.iter(|| run_backpressured(threads, 4)),
        );
    }
    group.finish();
}

/// A bare source → sink channel: every sink thread on a seeded
/// `ReadyPolicy::Random`, and twice each thread's round-robin share of
/// the transfers queued, so the source keeps offering.
fn run_sink_word(threads: usize) -> u64 {
    let mut b = CircuitBuilder::<u64>::new();
    let ch = b.channel("ch", threads);
    let mut src = Source::new("src", ch, threads);
    for t in 0..threads {
        src.extend(t, 0..2 * CYCLES / threads as u64 + 16);
    }
    b.add(src);
    let mut snk = Sink::new("snk", ch, threads, ReadyPolicy::Always);
    for t in 0..threads {
        snk.set_policy(
            t,
            ReadyPolicy::Random {
                p: 0.6,
                seed: 0xC0FF_EE00 ^ t as u64,
            },
        );
    }
    b.add(snk);
    let mut c = b.build().expect("source → sink is well-formed");
    c.run(CYCLES).expect("the channel runs clean");
    c.get::<Sink<u64>>("snk").expect("sink").consumed_total()
}

/// The sink's policy word at S = 8, 16 and 64: with one component on
/// each side of one channel, building it is most of each step.
fn bench_sink_word(c: &mut Criterion) {
    let mut group = c.benchmark_group("sink_word");
    group.throughput(Throughput::Elements(CYCLES));
    for threads in [8usize, 16, 64] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| b.iter(|| run_sink_word(threads)),
        );
    }
    group.finish();
}

/// The processor datapath run to halt: the word-level `eval`s of the
/// custom fetch, register and memory units, the variable-latency units
/// and the routing fork, on the sieve (4 threads) and the matrix
/// multiply (8 threads).
fn bench_processor(c: &mut Criterion) {
    let mut group = c.benchmark_group("processor");
    group.sample_size(10);
    for (name, source, threads) in [
        ("sieve", programs::SIEVE, 4usize),
        ("matmul", programs::MATMUL, 8),
    ] {
        let program = assemble(source).expect("shipped programs assemble");
        group.bench_function(BenchmarkId::new(name, threads), |b| {
            b.iter(|| {
                let mut cpu = Cpu::new(CpuConfig::new(threads), program.clone(), vec![0; threads]);
                cpu.run_to_halt(2_000_000).expect("halts").cycles
            })
        });
    }
    group.finish();
}

/// One 8-thread batch of 4-block messages through `Md5Hasher`: four waves
/// of four barrier-synchronised round trips, elaboration included.
fn bench_md5(c: &mut Criterion) {
    let mut group = c.benchmark_group("md5");
    group.sample_size(10);
    let messages: Vec<Vec<u8>> = (0..8u8)
        .map(|t| (0..200u8).map(|i| i.wrapping_mul(31) ^ t).collect())
        .collect();
    let refs: Vec<&[u8]> = messages.iter().map(Vec::as_slice).collect();
    let hasher = Md5Hasher::new(8, MebKind::Reduced);
    group.bench_function(BenchmarkId::new("batch_4_blocks", 8), |b| {
        b.iter(|| hasher.hash_messages(&refs).expect("hashes").1)
    });
    group.finish();
}

fn bench_mask_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("thread_mask");
    for threads in [8usize, 64, 65] {
        let bits: Vec<bool> = (0..threads).map(|i| i % 3 == 0).collect();
        let mask = ThreadMask::from_bools(&bits);
        group.bench_with_input(
            BenchmarkId::new("iter_ones_sum", threads),
            &threads,
            |b, _| b.iter(|| std::hint::black_box(&mask).iter_ones().sum::<usize>()),
        );
        group.bench_with_input(
            BenchmarkId::new("next_one_wrapping", threads),
            &threads,
            |b, _| b.iter(|| std::hint::black_box(&mask).next_one_wrapping(threads / 2)),
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_settle_loop,
    bench_sink_word,
    bench_processor,
    bench_md5,
    bench_mask_ops
);
criterion_main!(benches);
