//! Seeded end-to-end benchmark of the mt-elastic reproduction.
//!
//! Four workloads drive the crates' public APIs with the defaults a
//! caller gets (no backend, eval-mode or schedule override), check every
//! output against an independent reference and print each end-to-end
//! metric by name with its unit. `--trace 1` adds traced reps and prints
//! the per-layer metrics instead. See `README.md` beside this package for
//! the metric table and the comparison protocol.
//!
//! ```text
//! cargo run --quiet --release --offline \
//!     --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- \
//!     --workload pipeline_stream --seed 1 --seconds 15 --trace 0
//! ```

mod autotune_campaign;
mod host;
mod md5_hash;
mod pipeline_stream;
mod proc_programs;
mod record;
mod rng;

use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use elastic_sim::FusedOpKind;

use crate::record::{self_times, spans_json, Rec};

/// Input size: the benchmark's own, or a few jobs for the tests.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    Full,
    Smoke,
}

/// One workload: a fixed, seeded set of closed-loop jobs.
pub trait Workload {
    /// Untimed: one job per distinct configuration, run under the default
    /// and the exhaustive settle mode; digests and cycles must agree.
    fn oracle(&self, rec: &mut Rec);
    /// One rep: every job once, each submitted after the previous ends.
    fn rep(&self, rec: &mut Rec);
}

const WORKLOADS: [&str; 4] = [
    "pipeline_stream",
    "md5_hash",
    "proc_programs",
    "autotune_campaign",
];

/// Timed reps per run, however short `--seconds` is.
const MIN_REPS: usize = 3;

/// Traced reps per traced run; the fastest one's spans are reported.
const TRACED_REPS: usize = 3;

fn workload(name: &str, seed: u64, scale: Scale) -> Box<dyn Workload> {
    match name {
        "pipeline_stream" => Box::new(pipeline_stream::PipelineStream::new(seed, scale)),
        "md5_hash" => Box::new(md5_hash::Md5Hash::new(seed, scale)),
        "proc_programs" => Box::new(proc_programs::ProcPrograms::new(seed, scale)),
        "autotune_campaign" => Box::new(autotune_campaign::AutotuneCampaign::new(seed, scale)),
        other => unreachable!("`{other}` is not one of {WORKLOADS:?}"),
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_out: Option<String>,
    out: Option<String>,
}

const USAGE: &str = "usage: benchmark --seed N [--workload NAME] [--seconds S] [--trace 0|1] \
                     [--trace-out FILE] [--out FILE]";

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 0,
        seconds: 15,
        trace: false,
        trace_out: None,
        out: None,
    };
    let mut seed = None;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload `{name}` (one of {WORKLOADS:?})"));
                }
                args.workload = Some(name.clone());
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--trace-out" => args.trace_out = Some(value()?.clone()),
            "--out" => args.out = Some(value()?.clone()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    args.seed = seed.ok_or("--seed is required")?;
    if args.workload.is_none() && (args.trace_out.is_some() || args.out.is_some()) {
        return Err("--trace-out and --out need --workload".to_string());
    }
    if args.trace_out.is_some() && !args.trace {
        return Err("--trace-out needs --trace 1".to_string());
    }
    Ok(args)
}

/// One timed rep.
struct RepResult {
    rec: Rec,
    probe: Duration,
}

impl RepResult {
    /// Time the client spent waiting on jobs (the closed loop's busy time).
    fn busy_s(&self) -> f64 {
        self.rec.job_ns.iter().flatten().sum::<u64>() as f64 * 1e-9
    }
}

/// For every job slot, the smallest of its values over `reps` (slots
/// with no value in any rep are left out).
fn best_per_job<'a, T>(reps: impl Iterator<Item = &'a [T]>) -> Vec<f64>
where
    T: Copy + Into<Option<u64>> + 'a,
{
    let mut best: Vec<Option<u64>> = Vec::new();
    for row in reps {
        if best.len() < row.len() {
            best.resize(row.len(), None);
        }
        for (b, &v) in best.iter_mut().zip(row) {
            *b = match (*b, v.into()) {
                (Some(a), Some(v)) => Some(a.min(v)),
                (a, v) => a.or(v),
            };
        }
    }
    best.into_iter().flatten().map(|ns| ns as f64).collect()
}

/// Per-job best-of-reps wall times, in nanoseconds.
fn best_job_ns(reps: &[RepResult]) -> Vec<f64> {
    best_per_job(reps.iter().map(|r| r.rec.job_ns.as_slice()))
}

/// Everything one run measured.
pub struct Outcome {
    workload: String,
    reps: Vec<RepResult>,
    /// Traced reps, fastest first (its spans are the ones reported).
    traced: Vec<RepResult>,
    oracle: Rec,
    peak_rss_mib: f64,
    failures: Vec<String>,
}

/// Linear-interpolated quantile of `xs` (`q` in 0..=1).
fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Runs `name`: generate inputs, check under the oracle, time reps for
/// `seconds`, then (when tracing) the traced reps.
pub fn run(name: &str, seed: u64, seconds: u64, trace: bool, scale: Scale) -> Outcome {
    let epoch = Instant::now();
    let w = workload(name, seed, scale);
    let mut oracle = Rec::new(epoch, false);
    w.oracle(&mut oracle);

    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut reps: Vec<RepResult> = Vec::new();
    while reps.len() < MIN_REPS || start.elapsed() < budget {
        let probe = host::probe();
        let mut rec = Rec::new(epoch, false);
        w.rep(&mut rec);
        reps.push(RepResult { rec, probe });
    }
    let peak_rss_mib = host::peak_rss_mib();
    let traced_reps = if trace { TRACED_REPS } else { 0 };
    let mut traced: Vec<RepResult> = (0..traced_reps)
        .map(|_| {
            let probe = host::probe();
            let mut rec = Rec::new(epoch, true);
            rec.span("bench.rep", |rec| w.rep(rec));
            RepResult { rec, probe }
        })
        .collect();
    traced.sort_by(|a, b| a.busy_s().total_cmp(&b.busy_s()));

    let mut failures = oracle.failures.clone();
    let first = &reps[0].rec;
    let same = |a: &Rec| (a.digest, a.cycles, a.items, a.kernel.component_evals);
    for (i, r) in reps.iter().chain(&traced).enumerate() {
        failures.extend(r.rec.failures.iter().cloned());
        if same(&r.rec) != same(first) {
            failures.push(format!(
                "rep {i} diverged from rep 0 (digest, cycles, items, evals)"
            ));
        }
    }
    Outcome {
        workload: name.to_string(),
        reps,
        traced,
        oracle,
        peak_rss_mib,
        failures,
    }
}

impl Outcome {
    fn attempted(&self) -> u64 {
        self.oracle.attempted
            + self
                .reps
                .iter()
                .chain(&self.traced)
                .map(|r| r.rec.attempted)
                .sum::<u64>()
    }

    fn probes_ms(&self) -> Vec<f64> {
        self.reps
            .iter()
            .map(|r| r.probe.as_secs_f64() * 1e3)
            .collect()
    }

    /// Host-speed drift over the run: interquartile range of the probe as
    /// a share of its median. (Its full range is over 20% in nearly every
    /// run on a shared host, so it would flag every run.)
    fn probe_spread(&self) -> f64 {
        let p = self.probes_ms();
        ratio(quantile(&p, 0.75) - quantile(&p, 0.25), median(&p))
    }

    /// Host speed against the reference host: the 10th percentile of the
    /// run's probe times over [`host::REFERENCE_PROBE_MS`] (above 1 on a
    /// slower host). A low percentile tracks the quiet stretches the
    /// per-job bests come from; the very fastest probe catches short bursts
    /// that millisecond jobs cannot ride.
    fn host_scale(&self) -> f64 {
        quantile(&self.probes_ms(), 0.1) / host::REFERENCE_PROBE_MS
    }

    /// The end-to-end metrics as `(name, value, unit)`.
    ///
    /// Every rep runs the same jobs, so each job's host time is its best
    /// over the reps, the estimate least disturbed by other load on the
    /// host. Host times are then scaled by [`Self::host_scale`] to the
    /// reference host, which removes the drift of the host's own speed
    /// between runs.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64, &'static str)> {
        let scale = self.host_scale();
        let jobs = best_job_ns(&self.reps);
        let busy_s = jobs.iter().sum::<f64>() * 1e-9 / scale;
        let setup = best_per_job(self.reps.iter().map(|r| r.rec.setup_ns.as_slice()));
        let first = &self.reps[0].rec;
        vec![
            ("setup_s", setup.iter().sum::<f64>() * 1e-9 / scale, "s"),
            (
                "sim_cycles_per_s",
                ratio(first.cycles as f64, busy_s),
                "cycles/s",
            ),
            ("items_per_s", ratio(first.items as f64, busy_s), "items/s"),
            ("job_p50_ms", quantile(&jobs, 0.50) * 1e-6 / scale, "ms"),
            ("job_p99_ms", quantile(&jobs, 0.99) * 1e-6 / scale, "ms"),
            ("peak_rss_mb", self.peak_rss_mib, "MiB"),
            ("sim_cycles", first.cycles as f64, "cycles"),
        ]
    }

    /// The per-layer metrics of the fastest traced rep (none without one).
    pub fn per_layer(&self) -> Vec<(String, f64, &'static str)> {
        let Some(t) = self.traced.first() else {
            return Vec::new();
        };
        let rec = &t.rec;
        let own = self_times(rec.spans());
        let get = |n: &str| own.get(n).copied().unwrap_or(0.0);
        let count = |n: &str| rec.counts.get(n).copied().unwrap_or(0.0);
        let root = rec
            .spans()
            .first()
            .map_or(0.0, |s| (s.end - s.start) as f64 * 1e-9);
        let k = &rec.kernel;
        let (items, cycles) = (rec.items as f64, rec.cycles as f64);
        let only = |w: &str, v: f64| if self.workload == w { v } else { 0.0 };

        let step = get("sim.step");
        let settle = k.settle_nanos as f64 * 1e-9;
        let simulate = step + get("md5.hash");
        let sweep_jobs: Vec<f64> = rec
            .spans()
            .iter()
            .filter(|s| s.name == "sweep.job")
            .map(|s| (s.end - s.start) as f64 * 1e-6)
            .collect();
        // Against the same number of untraced reps, the last ones timed.
        let traced_busy: f64 = best_job_ns(&self.traced).iter().sum();
        let untraced = &self.reps[self.reps.len() - self.traced.len().min(self.reps.len())..];
        let untraced_busy: f64 = best_job_ns(untraced).iter().sum();

        let mut m: Vec<(String, f64, &'static str)> = Vec::new();
        let mut put = |name: &str, v: f64, unit: &'static str| m.push((name.to_string(), v, unit));
        put("sim.build_s", get("sim.build"), "s");
        put("sim.step_s", step, "s");
        put("sim.settle_s", settle, "s");
        put(
            "sim.edge_s",
            if settle > 0.0 {
                (step - settle).max(0.0)
            } else {
                0.0
            },
            "s",
        );
        put("sim.ns_per_cycle", ratio(simulate * 1e9, cycles), "ns");
        put(
            "sim.ns_per_eval",
            ratio(simulate * 1e9, k.component_evals as f64),
            "ns",
        );
        put("sim.evals_per_cycle", k.evals_per_cycle(), "evals/cycle");
        put("sim.rounds_per_cycle", k.rounds_per_cycle(), "rounds/cycle");
        let evals = k.component_evals as f64;
        put(
            "sim.skipped_ratio",
            ratio(
                k.components_skipped as f64,
                evals + k.components_skipped as f64,
            ),
            "ratio",
        );
        let stepped = k.stepped_cycles as f64;
        put(
            "sim.quiesced_ratio",
            ratio(k.quiesced_cycles as f64, stepped + k.quiesced_cycles as f64),
            "ratio",
        );
        put("sim.rank_width", k.rank_width as f64, "count");
        for (kind, n) in FusedOpKind::ALL.iter().zip(k.fused_op_evals) {
            put(&format!("sim.op_evals.{}", kind.label()), n as f64, "count");
        }
        for layer in [
            "synth.ir",
            "synth.lint",
            "synth.transform",
            "synth.propose",
            "synth.elaborate",
            "synth.hash",
            "cost.from_ir",
            "md5.hash",
            "md5.build",
            "proc.asm",
            "proc.new",
        ] {
            put(&format!("{layer}_s"), get(layer), "s");
        }
        let software = count("md5.sw_s");
        put("md5.sw_s", software, "s");
        put("md5.slowdown_vs_sw", ratio(get("md5.hash"), software), "x");
        put(
            "proc.ns_per_instr",
            only("proc_programs", ratio(step * 1e9, items)),
            "ns",
        );
        let busy = count("sweep.busy_s");
        put("sweep.run_s", count("sweep.run_s"), "s");
        put("sweep.busy_s", busy, "s");
        put("sweep.overhead_s", get("sweep.run"), "s");
        put(
            "sweep.worker_util",
            ratio(busy, count("sweep.capacity_s")),
            "ratio",
        );
        let (hits, misses) = (count("sweep.hits"), count("sweep.misses"));
        put("sweep.hit_ratio", ratio(hits, hits + misses), "ratio");
        put("sweep.evictions", count("sweep.evictions"), "count");
        put(
            "sweep.workers_used",
            ratio(count("sweep.workers_used"), count("sweep.submissions")),
            "count",
        );
        put("sweep.job_p99_ms", quantile(&sweep_jobs, 0.99), "ms");
        put(
            "synth.accept_ratio",
            ratio(count("synth.accepted"), count("synth.candidates")),
            "ratio",
        );
        put(
            "model.tokens_per_cycle",
            only("pipeline_stream", ratio(items, cycles)),
            "tokens/cycle",
        );
        put(
            "model.stall_ratio",
            only(
                "pipeline_stream",
                ratio(count("model.stall_cycles"), cycles),
            ),
            "ratio",
        );
        put(
            "model.cycles_per_msg",
            only("md5_hash", ratio(cycles, items)),
            "cycles/msg",
        );
        put(
            "model.ipc",
            only("proc_programs", ratio(items, cycles)),
            "instr/cycle",
        );
        put(
            "model.design_cycles",
            count("model.design_cycles"),
            "cycles",
        );
        put("model.design_les", count("model.design_les"), "LEs");
        put("bench.check_s", get("bench.check"), "s");
        put(
            "bench.layer_cover",
            1.0 - ratio(get("bench.rep") + get("bench.job"), root),
            "ratio",
        );
        put(
            "bench.trace_overhead",
            ratio(traced_busy, untraced_busy),
            "x",
        );
        put("bench.jobs", best_job_ns(&self.reps).len() as f64, "count");
        put("bench.reps", self.reps.len() as f64, "count");
        put("host.probe_ms", median(&self.probes_ms()), "ms");
        put("host.probe_spread", self.probe_spread(), "ratio");
        put("host.scale", self.host_scale(), "x");
        put("host.cores", host::cores() as f64, "count");
        put("host.workers", host::workers() as f64, "count");
        m
    }

    /// The workload's own names for its headline numbers, for the human
    /// report.
    fn named(
        &self,
        e2e: &[(&'static str, f64, &'static str)],
    ) -> Vec<(&'static str, f64, &'static str)> {
        let items = e2e
            .iter()
            .find(|m| m.0 == "items_per_s")
            .map_or(0.0, |m| m.1);
        let throughput = match self.workload.as_str() {
            "pipeline_stream" => ("tokens_per_s", "tokens/s"),
            "md5_hash" => ("md5_msgs_per_s", "msgs/s"),
            "proc_programs" => ("instr_per_s", "instr/s"),
            _ => ("points_per_s", "points/s"),
        };
        let counts = &self.reps[0].rec.counts;
        let mut out = vec![
            (throughput.0, items, throughput.1),
            (
                "failed_ratio",
                ratio(self.failures.len() as f64, self.attempted() as f64),
                "failed/attempted",
            ),
        ];
        if self.workload == "autotune_campaign" {
            for (name, key, unit) in [
                ("design_cycles", "model.design_cycles", "cycles"),
                ("design_les", "model.design_les", "LEs"),
            ] {
                out.push((name, counts.get(key).copied().unwrap_or(0.0), unit));
            }
        }
        out
    }

    fn context_json(&self, seed: u64, seconds: u64, trace: bool) -> String {
        format!(
            "{{\"workload\":\"{}\",\"seed\":{seed},\"seconds\":{seconds},\"trace\":{},\"reps\":{},\"jobs\":{},\"cores\":{},\"workers\":{},\"rev\":\"{}\",\"probe_ms\":{:.4},\"host_scale\":{:.4},\"probe_spread\":{:.4},\"noisy\":{}}}",
            self.workload,
            u8::from(trace),
            self.reps.len(),
            best_job_ns(&self.reps).len(),
            host::cores(),
            host::workers(),
            host::git_rev(),
            median(&self.probes_ms()),
            self.host_scale(),
            self.probe_spread(),
            self.probe_spread() > 0.10
        )
    }
}

fn metrics_json<N: AsRef<str>>(metrics: &[(N, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{}\":{{\"value\":{v},\"unit\":\"{u}\"}}", n.as_ref()))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Re-executes this binary once per workload, so each gets a fresh
/// process (and its own peak RSS).
fn run_all(raw: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate the benchmark binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for name in WORKLOADS {
        let status = Command::new(&exe)
            .args(raw)
            .args(["--workload", name])
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(name) = args.workload.as_deref() else {
        return run_all(&raw);
    };
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !autotune_campaign::in_candidate() {
            default_hook(info);
        }
    }));

    let outcome = run(name, args.seed, args.seconds, args.trace, Scale::Full);
    let context = outcome.context_json(args.seed, args.seconds, args.trace);
    println!("# context {context}");
    let e2e = outcome.end_to_end();
    let named = outcome.named(&e2e);
    for (n, v, u) in e2e.iter().chain(&named) {
        println!("{n:<18} {v:>16.6} {u}");
    }
    let layers = outcome.per_layer();
    for (n, v, u) in &layers {
        println!("{n:<28} {v:>16.6} {u}");
    }
    for f in outcome.failures.iter().take(10) {
        eprintln!("FAILED {f}");
    }
    if let (Some(path), Some(t)) = (&args.trace_out, outcome.traced.first()) {
        if let Err(e) = std::fs::write(path, spans_json(name, args.seed, t.rec.spans())) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &args.out {
        let reps: Vec<String> = outcome
            .reps
            .iter()
            .map(|r| {
                format!(
                    "{{\"busy_s\":{},\"setup_s\":{},\"items\":{},\"cycles\":{},\"probe_ms\":{}}}",
                    r.busy_s(),
                    r.rec.setup_total().as_secs_f64(),
                    r.rec.items,
                    r.rec.cycles,
                    r.probe.as_secs_f64() * 1e3
                )
            })
            .collect();
        let mut all: Vec<(String, f64, &str)> =
            e2e.iter().map(|&(n, v, u)| (n.to_string(), v, u)).collect();
        all.extend(named.iter().map(|&(n, v, u)| (n.to_string(), v, u)));
        all.extend(layers.iter().cloned());
        let jobs: Vec<String> = best_job_ns(&outcome.reps)
            .iter()
            .map(|ns| (ns * 1e-6).to_string())
            .collect();
        let report = format!(
            "{{\"context\":{context},\"metrics\":{},\"reps\":[{}],\"best_job_ms\":[{}],\"failures\":{}}}\n",
            metrics_json(&all),
            reps.join(","),
            jobs.join(","),
            outcome.failures.len()
        );
        if let Err(e) = std::fs::write(path, report) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let metrics = if args.trace {
        metrics_json(&layers)
    } else {
        metrics_json(&e2e)
    };
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}}}",
        outcome.failures.is_empty(),
        outcome.attempted(),
        outcome.failures.len()
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(name: &str, seed: u64, trace: bool) -> Outcome {
        run(name, seed, 0, trace, Scale::Smoke)
    }

    #[test]
    fn every_workload_passes_its_checks_at_smoke_size() {
        for name in WORKLOADS {
            let o = smoke(name, 7, false);
            assert!(o.failures.is_empty(), "{name}: {:?}", o.failures);
            assert!(o.attempted() > 0);
            for (metric, value, _) in o.end_to_end() {
                assert!(value > 0.0, "{name}: {metric} = {value}");
            }
        }
    }

    #[test]
    fn one_seed_repeats_exactly_and_another_changes_the_inputs() {
        for name in WORKLOADS {
            let fingerprint = |o: &Outcome| {
                let r = &o.reps[0].rec;
                (
                    r.digest,
                    r.cycles,
                    r.items,
                    r.kernel.component_evals,
                    r.kernel.settle_rounds,
                )
            };
            let a = smoke(name, 11, false);
            let b = smoke(name, 11, false);
            assert_eq!(
                fingerprint(&a),
                fingerprint(&b),
                "{name}: same seed diverged"
            );
            let c = smoke(name, 12, false);
            assert_ne!(
                a.reps[0].rec.digest, c.reps[0].rec.digest,
                "{name}: seed ignored"
            );
        }
    }

    #[test]
    fn self_times_of_a_sequential_trace_sum_to_its_root() {
        for name in ["pipeline_stream", "md5_hash", "proc_programs"] {
            let o = smoke(name, 3, true);
            let spans = o.traced.first().expect("traced rep").rec.spans();
            assert_eq!(spans[0].name, "bench.rep");
            let root = (spans[0].end - spans[0].start) as f64 * 1e-9;
            let total: f64 = self_times(spans).values().sum();
            assert!((total - root).abs() < 1e-6, "{name}: {total} vs {root}");
            let layers = o.per_layer();
            let cover = layers.iter().find(|m| m.0 == "bench.layer_cover");
            assert!(cover.is_some_and(|m| m.1 > 0.9), "{name}: {cover:?}");
        }
    }

    #[test]
    fn overlapping_children_are_subtracted_once() {
        use crate::record::Span;
        let span = |name, start, end, parent| Span {
            name,
            start,
            end,
            parent,
            job: None,
        };
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),
        ];
        let own = self_times(&spans);
        assert!((own["root"] - 50e-9).abs() < 1e-15);
        assert!((own["a"] - 30e-9).abs() < 1e-15);
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| -> Vec<String> { s.split_whitespace().map(str::to_string).collect() };
        assert!(parse_args(&args("--seed 1 --workload md5_hash --seconds 3 --trace 1")).is_ok());
        assert!(
            parse_args(&args("--workload md5_hash")).is_err(),
            "seed is required"
        );
        assert!(parse_args(&args("--seed 1 --workload nope")).is_err());
        assert!(parse_args(&args("--seed 1 --trace 2")).is_err());
        assert!(parse_args(&args("--seed 1 --workload md5_hash --trace-out t.json")).is_err());
        assert!(
            parse_args(&args("--seed 1 --out o.json")).is_err(),
            "one file per workload"
        );
    }
}
