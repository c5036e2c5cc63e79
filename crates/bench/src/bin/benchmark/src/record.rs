//! Per-rep accounting and the span trace.
//!
//! A [`Rec`] always tallies what the end-to-end metrics need (set-up
//! time, job latencies, work done, failures). Spans are stored only when
//! tracing is on; every layer call of the benchmark goes through
//! [`Rec::span`] or [`Rec::setup`], so the same code path runs traced and
//! untraced and the difference between the two is the tracing overhead.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use elastic_sim::KernelStats;

use crate::rng::Fnv;

/// One closed span. Times are nanoseconds since the run's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub job: Option<u64>,
}

/// What a sweep worker hands back to the rep that submitted its job: the
/// set-up time it spent and, when tracing, its spans.
#[derive(Clone, Debug, Default)]
pub struct Part {
    pub setup: Duration,
    pub spans: Vec<Span>,
}

/// Accounting for one rep (or one untimed pass).
pub struct Rec {
    epoch: Instant,
    tracing: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: Option<u64>,
    next_job: u64,
    setup_depth: usize,
    /// Time in construction calls (outermost [`Rec::setup`] spans) per
    /// job, in nanoseconds; a call outside any job counts toward the job
    /// that follows it.
    pub setup_ns: Vec<u64>,
    /// Wall time per job, in nanoseconds; `None` for a failed job.
    pub job_ns: Vec<Option<u64>>,
    /// Workload items completed (tokens, messages, instructions, points).
    pub items: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Kernel counters merged over every simulation the rep executed.
    pub kernel: KernelStats,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Every job's checked output, folded in job order.
    pub digest: Fnv,
    /// Workload-specific per-layer counts, summed over the rep.
    pub counts: BTreeMap<&'static str, f64>,
}

impl Rec {
    pub fn new(epoch: Instant, tracing: bool) -> Self {
        Self {
            epoch,
            tracing,
            spans: Vec::new(),
            open: Vec::new(),
            job: None,
            next_job: 0,
            setup_depth: 0,
            setup_ns: Vec::new(),
            job_ns: Vec::new(),
            items: 0,
            cycles: 0,
            kernel: KernelStats::default(),
            attempted: 0,
            failures: Vec::new(),
            digest: Fnv::new(),
            counts: BTreeMap::new(),
        }
    }

    pub fn tracing(&self) -> bool {
        self.tracing
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named after the layer it calls.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.tracing {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent: self.open.last().copied(),
            job: self.job,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end = self.now();
        r
    }

    /// A construction call: a span whose time also counts toward
    /// `setup_s` (only the outermost one when they nest).
    pub fn setup<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let outermost = self.setup_depth == 0;
        self.setup_depth += 1;
        let start = Instant::now();
        let r = self.span(name, f);
        self.setup_depth -= 1;
        if outermost {
            self.add_setup(start.elapsed());
        }
        r
    }

    fn add_setup(&mut self, d: Duration) {
        let slot = self.job.unwrap_or(self.next_job) as usize;
        if self.setup_ns.len() <= slot {
            self.setup_ns.resize(slot + 1, 0);
        }
        self.setup_ns[slot] += d.as_nanos() as u64;
    }

    /// Total set-up time of the rep.
    pub fn setup_total(&self) -> Duration {
        Duration::from_nanos(self.setup_ns.iter().sum())
    }

    /// Adds `n` to a workload-specific count.
    pub fn count(&mut self, name: &'static str, n: f64) {
        *self.counts.entry(name).or_insert(0.0) += n;
    }

    /// One closed-loop job: timed, checked and isolated. An `Err` or a
    /// panic counts as a failed job and the rep carries on.
    pub fn job(&mut self, label: &str, f: impl FnOnce(&mut Self) -> Result<(), String>) {
        let id = self.next_job;
        self.next_job += 1;
        self.job = Some(id);
        let (open, depth) = (self.open.len(), self.setup_depth);
        self.attempted += 1;
        let start = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| self.span("bench.job", f)));
        let ns = start.elapsed().as_nanos() as u64;
        // A panic skips the span bookkeeping of every frame it unwound.
        let now = self.now();
        for &i in &self.open[open..] {
            self.spans[i].end = now;
        }
        self.open.truncate(open);
        self.setup_depth = depth;
        self.job = None;
        self.job_ns
            .push(outcome.as_ref().is_ok_and(Result::is_ok).then_some(ns));
        match outcome {
            Ok(Ok(())) => {}
            Ok(Err(msg)) => self.failures.push(format!("{label}: {msg}")),
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                self.failures.push(format!("{label}: panicked: {msg}"));
            }
        }
    }

    /// Hands a worker's accounting back as a [`Part`].
    pub fn into_part(self) -> Part {
        Part {
            setup: self.setup_total(),
            spans: self.spans,
        }
    }

    /// Adopts a worker's set-up time and spans; its root spans become
    /// children of the currently open span, all tagged with this job.
    pub fn graft(&mut self, part: &Part) {
        self.add_setup(part.setup);
        if !self.tracing {
            return;
        }
        let base = self.spans.len();
        let parent = self.open.last().copied();
        for s in &part.spans {
            self.spans.push(Span {
                parent: s.parent.map_or(parent, |p| Some(base + p)),
                job: self.job,
                ..s.clone()
            });
        }
    }
}

/// Self time per span name: each span's duration minus the part of it
/// that its children cover (children on other threads may overlap each
/// other; their union is what is subtracted).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    let mut out = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut reach = s.start;
        for &(a, b) in kids.iter() {
            let (a, b) = (a.max(reach), b.min(s.end));
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let own = (s.end - s.start).saturating_sub(covered);
        *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
    }
    out
}

/// The spans as one JSON document.
pub fn spans_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let body: Vec<String> = spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            format!(
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"job\":{}}}",
                s.name,
                s.start,
                s.end,
                opt(s.parent.map(|p| p as u64)),
                opt(s.job)
            )
        })
        .collect();
    format!(
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":[\n{}\n]}}\n",
        body.join(",\n")
    )
}
