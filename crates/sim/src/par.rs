//! Parallel sweep harness for simulation *campaigns*.
//!
//! Every experiment binary in this repository runs many **independent**
//! simulations — cost sweeps, throughput-vs-threads curves, kernel
//! ablations, oracle-equivalence campaigns. Each individual [`Circuit`]
//! run is strictly sequential (a synchronous fixed point cannot be
//! parallelized without changing its semantics), but the *campaign* is
//! embarrassingly parallel: jobs share nothing, so they can be spread
//! across all cores while remaining bit-deterministic.
//!
//! [`run_sweep`] executes a vector of [`SimJob`]s on a pure-`std`
//! **work-stealing** worker pool:
//!
//! * **Worker model** — [`std::thread::scope`] spawns
//!   `available_parallelism()` workers (or the requested count). Each
//!   worker owns a deque seeded with a contiguous chunk of the
//!   submission order; it pops its own jobs from the front and, when its
//!   deque runs dry, steals from the *back* of a neighbour's. Workers
//!   therefore run uncontended on their own chunk in the common case and
//!   only touch a shared lock to rebalance stragglers — the earlier
//!   design funneled every single job through one `Mutex<Receiver>`
//!   handoff, which cost more than it saved on short jobs.
//! * **Circuit reuse** — jobs built with [`SimJob::on_circuit`] share one
//!   elaborated [`Circuit`] *per worker*: the first such job on a worker
//!   builds it, later jobs [`Circuit::reset`] and re-drive it, so a
//!   thousand-point sweep elaborates the netlist `workers` times instead
//!   of a thousand.
//! * **Determinism** — each job is a self-contained deterministic
//!   function ([`Circuit::reset`] rewinds to the freshly built state, so
//!   reuse does not leak state between points); results are returned
//!   **in submission order**, so the output of a parallel sweep is
//!   byte-identical to the serial (`workers = 1`) path no matter how
//!   execution interleaves or which worker ran which point.
//! * **Isolation** — a job that returns [`SimError`] or panics produces a
//!   per-job [`JobError`]; it does not poison the pool, and every other
//!   job still completes and reports. A panic inside a shared circuit
//!   drops that worker's cached instance (its state is suspect), and the
//!   panic location is captured so the report names `file:line`.
//! * **Aggregation** — per-job [`KernelStats`] are merged into a
//!   campaign-wide total ([`SweepReport::kernel`]).
//!
//! For memoized campaigns (resubmitting overlapping job sets) see
//! [`SweepService`](crate::SweepService).
//!
//! [`Circuit`]: crate::Circuit
//!
//! # Example
//!
//! ```
//! use elastic_sim::{run_sweep, SimJob};
//!
//! let jobs: Vec<SimJob<u64>> = (0..8)
//!     .map(|i| SimJob::new(format!("square {i}"), move || Ok(i * i)))
//!     .collect();
//! let report = run_sweep(jobs);
//! let squares: Vec<u64> = report.values().cloned().collect();
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

use std::any::Any;
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, Once};
use std::thread;
use std::time::{Duration, Instant};

use crate::circuit::Circuit;
use crate::error::SimError;
use crate::stats::KernelStats;
use crate::token::Token;

/// A circuit prototype shared by many sweep points: the build closure is
/// elaborated **once per worker** and every subsequent
/// [`SimJob::on_circuit`] job on that worker rewinds the instance with
/// [`Circuit::reset`] instead of rebuilding it.
///
/// Cloning the handle is cheap (it shares the build closure); all clones
/// refer to the same per-worker cache slot.
pub struct SharedCircuit<T: Token> {
    key: u64,
    build: Arc<dyn Fn() -> Circuit<T> + Send + Sync>,
}

/// Process-unique keys for [`SharedCircuit`] cache slots.
static NEXT_SHARED_KEY: AtomicU64 = AtomicU64::new(1);

impl<T: Token> SharedCircuit<T> {
    /// A prototype whose `build` closure elaborates the circuit. The
    /// closure must be deterministic: a reset instance and a freshly
    /// built one must be indistinguishable, or reuse would break the
    /// sweep's bit-identity guarantee.
    pub fn new(build: impl Fn() -> Circuit<T> + Send + Sync + 'static) -> Self {
        Self {
            key: NEXT_SHARED_KEY.fetch_add(1, Ordering::Relaxed),
            build: Arc::new(build),
        }
    }

    /// The process-unique cache key identifying this prototype.
    pub fn key(&self) -> u64 {
        self.key
    }
}

impl<T: Token> Clone for SharedCircuit<T> {
    fn clone(&self) -> Self {
        Self {
            key: self.key,
            build: Arc::clone(&self.build),
        }
    }
}

/// Per-worker cache of elaborated shared circuits, keyed by
/// [`SharedCircuit::key`]. Type-erased so one pool handles sweeps over
/// any token type.
type CircuitCache = HashMap<u64, Box<dyn Any + Send>>;

/// How a job produces its result.
enum JobKind<R> {
    /// The closure owns everything it needs (including any circuit it
    /// builds) and runs exactly once.
    Owned(
        #[allow(clippy::type_complexity)]
        Box<dyn FnOnce() -> Result<(R, KernelStats), SimError> + Send>,
    ),
    /// The job drives a worker-cached [`SharedCircuit`] instance,
    /// resetting it when it is reused.
    Shared {
        key: u64,
        build: Arc<dyn Fn() -> Box<dyn Any + Send> + Send + Sync>,
        #[allow(clippy::type_complexity)]
        run: Box<
            dyn FnOnce(&mut Box<dyn Any + Send>, bool) -> Result<(R, KernelStats), SimError> + Send,
        >,
    },
}

/// One independent simulation to execute on the sweep pool.
///
/// The closure owns everything it needs (configs, seeds, token vectors)
/// and must be deterministic: the harness guarantees submission-order
/// results, so a deterministic job set yields a bit-identical campaign
/// under any worker count.
pub struct SimJob<R> {
    label: String,
    cache_key: Option<u64>,
    kind: JobKind<R>,
}

impl<R> SimJob<R> {
    /// A job whose closure returns only a result value.
    pub fn new(
        label: impl Into<String>,
        f: impl FnOnce() -> Result<R, SimError> + Send + 'static,
    ) -> Self {
        Self {
            label: label.into(),
            cache_key: None,
            kind: JobKind::Owned(Box::new(move || f().map(|r| (r, KernelStats::default())))),
        }
    }

    /// A job that also reports the [`KernelStats`] of its run, so the
    /// sweep can aggregate settle-phase work across the whole campaign.
    pub fn instrumented(
        label: impl Into<String>,
        f: impl FnOnce() -> Result<(R, KernelStats), SimError> + Send + 'static,
    ) -> Self {
        Self {
            label: label.into(),
            cache_key: None,
            kind: JobKind::Owned(Box::new(f)),
        }
    }

    /// A job that drives a [`SharedCircuit`] instance cached on whichever
    /// worker runs it: the first such job on a worker elaborates the
    /// prototype, later jobs receive the same instance rewound by
    /// [`Circuit::reset`]. The closure gets the circuit in its freshly
    /// built (or equivalently, freshly reset) state and may configure,
    /// run and inspect it at will.
    ///
    /// If the circuit contains a component that does not support reset,
    /// every reused point fails with
    /// [`SimError::ResetUnsupported`] — build such sweeps with
    /// [`SimJob::instrumented`] instead.
    pub fn on_circuit<T: Token>(
        label: impl Into<String>,
        shared: &SharedCircuit<T>,
        f: impl FnOnce(&mut Circuit<T>) -> Result<(R, KernelStats), SimError> + Send + 'static,
    ) -> Self {
        let build = Arc::clone(&shared.build);
        Self {
            label: label.into(),
            cache_key: None,
            kind: JobKind::Shared {
                key: shared.key,
                build: Arc::new(move || Box::new(build()) as Box<dyn Any + Send>),
                run: Box::new(move |slot, reused| {
                    let circuit = slot
                        .downcast_mut::<Circuit<T>>()
                        .expect("shared-circuit cache slot holds the prototype's circuit type");
                    if reused {
                        circuit.reset()?;
                    }
                    f(circuit)
                }),
            },
        }
    }

    /// Tags the job with a memoization key for
    /// [`SweepService`](crate::SweepService): two jobs with the same key
    /// must be interchangeable (same circuit, same config, same seed —
    /// see [`campaign_key`](crate::campaign_key)). Untagged jobs are
    /// never memoized.
    pub fn with_cache_key(mut self, key: u64) -> Self {
        self.cache_key = Some(key);
        self
    }

    /// The job's display label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The memoization key, if [`with_cache_key`](Self::with_cache_key)
    /// tagged one.
    pub fn cache_key(&self) -> Option<u64> {
        self.cache_key
    }
}

/// Why a job failed (the pool itself never fails).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum JobError {
    /// The job's simulation reported a protocol error, deadlock, etc.
    Sim(SimError),
    /// The job panicked; the payload message and (when the runtime
    /// reports one) the `file:line:column` of the panic site are
    /// preserved. The panic is confined to the job — the worker and the
    /// rest of the sweep continue.
    Panic {
        /// The panic payload, stringified.
        message: String,
        /// `file:line:column` of the panic site, captured by a panic
        /// hook on the worker that ran the job.
        location: Option<String>,
    },
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Sim(e) => write!(f, "simulation error: {e}"),
            JobError::Panic {
                message,
                location: Some(loc),
            } => write!(f, "job panicked at {loc}: {message}"),
            JobError::Panic {
                message,
                location: None,
            } => write!(f, "job panicked: {message}"),
        }
    }
}

impl std::error::Error for JobError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JobError::Sim(e) => Some(e),
            JobError::Panic { .. } => None,
        }
    }
}

/// The outcome of one [`SimJob`], in submission order.
#[derive(Debug)]
pub struct JobReport<R> {
    /// Submission index of the job (also its position in
    /// [`SweepReport::jobs`]).
    pub index: usize,
    /// Label given at construction.
    pub label: String,
    /// Memoization key the job was tagged with, if any.
    pub cache_key: Option<u64>,
    /// The job's value, or the isolated failure.
    pub outcome: Result<R, JobError>,
    /// Kernel counters reported by the job (zeroed for plain or failed
    /// jobs).
    pub kernel: KernelStats,
    /// Wall-clock time the job spent executing (zero for memoized hits).
    pub wall: Duration,
    /// Whether the result came from a
    /// [`SweepService`](crate::SweepService) campaign cache instead of a
    /// fresh execution.
    pub memoized: bool,
}

/// Everything a sweep produced: per-job reports in submission order plus
/// campaign-level aggregates.
#[derive(Debug)]
pub struct SweepReport<R> {
    /// Per-job outcomes, in submission order.
    pub jobs: Vec<JobReport<R>>,
    /// Worker count the caller asked for, before clamping.
    pub workers_requested: usize,
    /// Worker count the pool actually ran (clamped to `1..=jobs`).
    pub workers_used: usize,
    /// Wall-clock time of the whole sweep.
    pub wall: Duration,
    /// Kernel counters merged over all successful jobs.
    pub kernel: KernelStats,
    /// Keyed jobs answered from a [`SweepService`](crate::SweepService)
    /// campaign cache (always 0 for the plain [`run_sweep_on`] path).
    pub cache_hits: u64,
    /// Keyed jobs whose key was *not* in the campaign cache and had to
    /// execute. Untagged jobs count as neither hit nor miss.
    pub cache_misses: u64,
    /// Entries evicted from the capacity-limited campaign cache while
    /// inserting this submission's results (always 0 for the plain
    /// [`run_sweep_on`] path).
    pub cache_evictions: u64,
}

impl<R> SweepReport<R> {
    /// Number of jobs that completed successfully.
    pub fn ok_count(&self) -> usize {
        self.jobs.iter().filter(|j| j.outcome.is_ok()).count()
    }

    /// The failed jobs, as `(label, error)` pairs in submission order.
    pub fn failures(&self) -> Vec<(&str, &JobError)> {
        self.jobs
            .iter()
            .filter_map(|j| j.outcome.as_ref().err().map(|e| (j.label.as_str(), e)))
            .collect()
    }

    /// Iterates over the successful values in submission order.
    pub fn values(&self) -> impl Iterator<Item = &R> {
        self.jobs.iter().filter_map(|j| j.outcome.as_ref().ok())
    }

    /// Unwraps every job into its value, in submission order.
    ///
    /// # Panics
    ///
    /// Panics with the label and error of the first failed job.
    pub fn unwrap_all(self) -> Vec<R> {
        self.jobs
            .into_iter()
            .map(|j| match j.outcome {
                Ok(v) => v,
                Err(e) => panic!("sweep job `{}` failed: {e}", j.label),
            })
            .collect()
    }
}

/// Worker count used by [`run_sweep`]: the machine's
/// [`available_parallelism`](thread::available_parallelism), or 1 when it
/// cannot be determined.
pub fn available_workers() -> usize {
    thread::available_parallelism().map_or(1, usize::from)
}

/// Runs `jobs` on [`available_workers`] threads. See [`run_sweep_on`].
pub fn run_sweep<R: Send>(jobs: Vec<SimJob<R>>) -> SweepReport<R> {
    let workers = available_workers();
    run_sweep_on(jobs, workers)
}

thread_local! {
    /// `file:line:column` of the most recent panic on this thread,
    /// recorded by the sweep panic hook (`catch_unwind` only hands the
    /// payload to the catcher; the location exists only inside the hook).
    static LAST_PANIC_LOCATION: RefCell<Option<String>> = const { RefCell::new(None) };
}

static PANIC_HOOK: Once = Once::new();

/// Installs (once, process-wide) a panic hook that stashes the panic
/// site in [`LAST_PANIC_LOCATION`] and then defers to the previous hook,
/// so panics outside the sweep keep their normal reporting.
fn install_panic_hook() {
    PANIC_HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let loc = info
                .location()
                .map(|l| format!("{}:{}:{}", l.file(), l.line(), l.column()));
            LAST_PANIC_LOCATION.with(|slot| *slot.borrow_mut() = loc);
            previous(info);
        }));
    });
}

fn execute<R>(job: SimJob<R>, index: usize, circuits: &mut CircuitCache) -> JobReport<R> {
    let SimJob {
        label,
        cache_key,
        kind,
    } = job;
    install_panic_hook();
    LAST_PANIC_LOCATION.with(|slot| slot.borrow_mut().take());
    let start = Instant::now();
    let raw = match kind {
        JobKind::Owned(run) => catch_unwind(AssertUnwindSafe(run)),
        JobKind::Shared { key, build, run } => {
            let (mut circuit, reused) = match circuits.remove(&key) {
                Some(c) => (c, true),
                None => (build(), false),
            };
            match catch_unwind(AssertUnwindSafe(move || {
                let out = run(&mut circuit, reused);
                (out, circuit)
            })) {
                Ok((out, circuit)) => {
                    // The instance stays coherent across Ok *and* SimError
                    // outcomes (errors leave a resettable circuit); only a
                    // panic poisons it, and then the unwound closure has
                    // already dropped it.
                    circuits.insert(key, circuit);
                    Ok(out)
                }
                Err(payload) => Err(payload),
            }
        }
    };
    let wall = start.elapsed();
    let (outcome, kernel) = match raw {
        Ok(Ok((value, kernel))) => (Ok(value), kernel),
        Ok(Err(e)) => (Err(JobError::Sim(e)), KernelStats::default()),
        Err(payload) => {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            let location = LAST_PANIC_LOCATION.with(|slot| slot.borrow_mut().take());
            (
                Err(JobError::Panic { message, location }),
                KernelStats::default(),
            )
        }
    };
    JobReport {
        index,
        label,
        cache_key,
        outcome,
        kernel,
        wall,
        memoized: false,
    }
}

/// One worker's deque of `(submission index, job)` pairs.
type JobDeque<R> = Mutex<VecDeque<(usize, SimJob<R>)>>;

/// Pops the next job for worker `me`: its own deque front first, then a
/// steal from the *back* of the nearest non-empty neighbour (scanning
/// `me+1, me+2, …` cyclically). Stealing from the opposite end keeps the
/// victim's cache-warm front-of-chunk jobs with the victim.
fn next_job<R>(deques: &[JobDeque<R>], me: usize) -> Option<(usize, SimJob<R>)> {
    if let Some(pair) = deques[me].lock().expect("deque lock").pop_front() {
        return Some(pair);
    }
    let n = deques.len();
    for off in 1..n {
        let victim = (me + off) % n;
        if let Some(pair) = deques[victim].lock().expect("deque lock").pop_back() {
            return Some(pair);
        }
    }
    None
}

/// Runs indexed jobs on `workers` threads, handing each finished
/// [`JobReport`] (in completion order, on the calling thread) to
/// `on_report`. Returns the clamped worker count actually used.
///
/// This is the engine under both [`run_sweep_on`] and
/// [`SweepService`](crate::SweepService).
pub(crate) fn run_pool<R: Send>(
    jobs: Vec<(usize, SimJob<R>)>,
    workers: usize,
    on_report: &mut dyn FnMut(JobReport<R>),
) -> usize {
    let n = jobs.len();
    let workers_used = workers.clamp(1, n.max(1));

    if workers_used <= 1 {
        let mut circuits = CircuitCache::new();
        for (index, job) in jobs {
            on_report(execute(job, index, &mut circuits));
        }
        return workers_used;
    }

    // Seed each worker's deque with a contiguous chunk of the submission
    // order: worker w starts on jobs [w·n/W, (w+1)·n/W). Contiguity is
    // what makes per-worker circuit reuse pay off — neighbouring sweep
    // points share a prototype, so a chunk usually elaborates once.
    let deques: Vec<JobDeque<R>> = (0..workers_used)
        .map(|_| Mutex::new(VecDeque::new()))
        .collect();
    for (pos, pair) in jobs.into_iter().enumerate() {
        let w = pos * workers_used / n;
        deques[w].lock().expect("deque lock").push_back(pair);
    }
    let deques = &deques;

    let (result_tx, result_rx) = mpsc::channel::<JobReport<R>>();
    thread::scope(|scope| {
        for w in 0..workers_used {
            let result_tx = result_tx.clone();
            scope.spawn(move || {
                let mut circuits = CircuitCache::new();
                while let Some((index, job)) = next_job(deques, w) {
                    // A send only fails when the collector hung up, which
                    // cannot happen while this scope is alive.
                    let _ = result_tx.send(execute(job, index, &mut circuits));
                }
            });
        }
        drop(result_tx);
        for report in result_rx.iter() {
            on_report(report);
        }
    });
    workers_used
}

/// Runs `jobs` on a pool of `workers` work-stealing threads (clamped to
/// `1..=jobs.len()`), returning per-job reports **in submission order**.
///
/// `workers == 1` executes the jobs inline on the calling thread — the
/// serial baseline every parallel sweep must reproduce bit-identically.
/// Failures (simulation errors and panics alike) are isolated per job:
/// the pool always returns one report per submitted job.
pub fn run_sweep_on<R: Send>(jobs: Vec<SimJob<R>>, workers: usize) -> SweepReport<R> {
    let n = jobs.len();
    let start = Instant::now();
    let mut slots: Vec<Option<JobReport<R>>> = (0..n).map(|_| None).collect();
    let indexed: Vec<(usize, SimJob<R>)> = jobs.into_iter().enumerate().collect();
    let workers_used = run_pool(indexed, workers, &mut |report| {
        let index = report.index;
        slots[index] = Some(report);
    });

    let jobs: Vec<JobReport<R>> = slots
        .into_iter()
        .map(|s| s.expect("one report per job"))
        .collect();
    let mut kernel = KernelStats::default();
    for j in &jobs {
        kernel.merge(&j.kernel);
    }
    SweepReport {
        jobs,
        workers_requested: workers,
        workers_used,
        wall: start.elapsed(),
        kernel,
        cache_hits: 0,
        cache_misses: 0,
        cache_evictions: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CircuitBuilder;
    use crate::circuit::EvalMode;
    use crate::schedule::{ReadyPolicy, Sink, Source};

    /// A small but real simulation job: tokens through a 1-stage wire
    /// with a seeded random sink, returning the capture.
    fn pipeline_job(seed: u64, mode: EvalMode) -> Result<(Vec<(u64, u64)>, KernelStats), SimError> {
        let mut b = CircuitBuilder::<u64>::new();
        let ch = b.channel("ch", 2);
        let mut src = Source::new("src", ch, 2);
        src.extend(0, 0..20u64);
        src.extend(1, 100..120u64);
        b.add(src);
        b.add(Sink::with_capture(
            "snk",
            ch,
            2,
            ReadyPolicy::Random { p: 0.6, seed },
        ));
        let mut c = b.build().expect("valid");
        c.set_eval_mode(mode);
        c.run(200)?;
        let snk: &Sink<u64> = c.get("snk").expect("sink");
        let mut cap: Vec<(u64, u64)> = Vec::new();
        for t in 0..2 {
            cap.extend(snk.captured(t).iter().copied());
        }
        Ok((cap, *c.stats().kernel()))
    }

    fn campaign(mode: EvalMode) -> Vec<SimJob<Vec<(u64, u64)>>> {
        (0..12)
            .map(|seed| {
                SimJob::instrumented(format!("pipeline seed {seed}"), move || {
                    pipeline_job(seed, mode)
                })
            })
            .collect()
    }

    /// The same campaign expressed over one shared prototype: every
    /// point reconfigures the sink seed on the reused circuit.
    fn shared_campaign(mode: EvalMode) -> Vec<SimJob<Vec<(u64, u64)>>> {
        let proto = SharedCircuit::new(|| {
            let mut b = CircuitBuilder::<u64>::new();
            let ch = b.channel("ch", 2);
            b.add(Source::new("src", ch, 2));
            b.add(Sink::with_capture(
                "snk",
                ch,
                2,
                ReadyPolicy::Random { p: 0.6, seed: 0 },
            ));
            b.build().expect("valid")
        });
        (0..12u64)
            .map(|seed| {
                SimJob::on_circuit(format!("pipeline seed {seed}"), &proto, move |c| {
                    c.set_eval_mode(mode);
                    {
                        let src: &mut Source<u64> = c.get_mut("src").expect("source");
                        src.extend(0, 0..20u64);
                        src.extend(1, 100..120u64);
                    }
                    {
                        let snk: &mut Sink<u64> = c.get_mut("snk").expect("sink");
                        for t in 0..2 {
                            snk.set_policy(t, ReadyPolicy::Random { p: 0.6, seed });
                        }
                    }
                    c.run(200)?;
                    let snk: &Sink<u64> = c.get("snk").expect("sink");
                    let mut cap: Vec<(u64, u64)> = Vec::new();
                    for t in 0..2 {
                        cap.extend(snk.captured(t).iter().copied());
                    }
                    Ok((cap, *c.stats().kernel()))
                })
            })
            .collect()
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let report = run_sweep_on(campaign(EvalMode::EventDriven), 4);
        assert_eq!(report.jobs.len(), 12);
        for (i, j) in report.jobs.iter().enumerate() {
            assert_eq!(j.index, i);
            assert_eq!(j.label, format!("pipeline seed {i}"));
            assert!(!j.memoized);
        }
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let serial = run_sweep_on(campaign(EvalMode::EventDriven), 1);
        let parallel = run_sweep_on(campaign(EvalMode::EventDriven), 4);
        assert_eq!(serial.workers_used, 1);
        let s: Vec<_> = serial.values().collect();
        let p: Vec<_> = parallel.values().collect();
        assert_eq!(s, p, "parallel sweep diverged from the serial baseline");
        // Kernel aggregation is order-independent, so it must agree too.
        assert_eq!(serial.kernel, parallel.kernel);
        assert!(serial.kernel.component_evals > 0);
    }

    #[test]
    fn shared_circuit_matches_owned_jobs_bit_for_bit() {
        let owned = run_sweep_on(campaign(EvalMode::EventDriven), 1);
        for workers in [1, 2, 4] {
            let shared = run_sweep_on(shared_campaign(EvalMode::EventDriven), workers);
            let o: Vec<_> = owned.values().collect();
            let s: Vec<_> = shared.values().collect();
            assert_eq!(o, s, "circuit reuse diverged at {workers} workers");
            assert_eq!(owned.kernel, shared.kernel);
        }
    }

    #[test]
    fn panics_are_isolated_per_job() {
        let mut jobs: Vec<SimJob<u64>> = Vec::new();
        jobs.push(SimJob::new("fine before", || Ok(1)));
        jobs.push(SimJob::new("explodes", || -> Result<u64, SimError> {
            panic!("boom at job level")
        }));
        jobs.push(SimJob::new("fine after", || Ok(3)));
        let report = run_sweep_on(jobs, 2);
        assert_eq!(report.ok_count(), 2);
        assert_eq!(report.jobs[0].outcome.as_ref().ok(), Some(&1));
        assert_eq!(report.jobs[2].outcome.as_ref().ok(), Some(&3));
        match &report.jobs[1].outcome {
            Err(JobError::Panic { message, location }) => {
                assert!(message.contains("boom"), "{message}");
                let loc = location.as_deref().expect("panic site captured");
                assert!(loc.contains("par.rs"), "unexpected location {loc}");
            }
            other => panic!("expected isolated panic, got {other:?}"),
        }
        let failures = report.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].0, "explodes");
        assert!(
            failures[0].1.to_string().contains("par.rs"),
            "display must name the panic site: {}",
            failures[0].1
        );
    }

    #[test]
    fn shared_circuit_survives_a_panicking_job() {
        let proto = SharedCircuit::new(|| {
            let mut b = CircuitBuilder::<u64>::new();
            let ch = b.channel("ch", 1);
            b.add(Source::new("src", ch, 1));
            b.add(Sink::with_capture("snk", ch, 1, ReadyPolicy::Always));
            b.build().expect("valid")
        });
        let point = |label: &str, tokens: std::ops::Range<u64>| {
            SimJob::on_circuit(label, &proto, move |c| {
                {
                    let src: &mut Source<u64> = c.get_mut("src").expect("source");
                    src.extend(0, tokens.clone());
                }
                c.run(40)?;
                let snk: &Sink<u64> = c.get("snk").expect("sink");
                Ok((
                    snk.captured(0).iter().map(|(_, t)| *t).collect::<Vec<_>>(),
                    *c.stats().kernel(),
                ))
            })
        };
        let jobs = vec![
            point("first", 0..5),
            SimJob::on_circuit(
                "explodes",
                &proto,
                |_c| -> Result<(Vec<u64>, KernelStats), SimError> { panic!("mid-sweep boom") },
            ),
            point("after panic", 5..10),
        ];
        // Serial: all three points hit the same worker cache, so the
        // panicking job's instance must be discarded and rebuilt.
        let report = run_sweep_on(jobs, 1);
        assert_eq!(
            report.jobs[0].outcome.as_ref().ok(),
            Some(&(0..5).collect::<Vec<u64>>())
        );
        assert!(matches!(
            report.jobs[1].outcome,
            Err(JobError::Panic { .. })
        ));
        assert_eq!(
            report.jobs[2].outcome.as_ref().ok(),
            Some(&(5..10).collect::<Vec<u64>>()),
            "worker must rebuild the poisoned circuit"
        );
    }

    #[test]
    fn sim_errors_are_per_job_outcomes() {
        let deadlocked = SimJob::new("deadlocks", || {
            let mut b = CircuitBuilder::<u64>::new();
            let ch = b.channel("ch", 1);
            let mut src = Source::new("src", ch, 1);
            src.push(0, 7);
            b.add(src);
            b.add(Sink::new("snk", ch, 1, ReadyPolicy::Never));
            let mut c = b.build().expect("valid");
            c.set_deadlock_watchdog(Some(4));
            c.run(50)?;
            Ok(0u64)
        });
        let fine = SimJob::new("fine", || Ok(42u64));
        let report = run_sweep_on(vec![deadlocked, fine], 2);
        assert!(matches!(
            report.jobs[0].outcome,
            Err(JobError::Sim(SimError::Deadlock { .. }))
        ));
        assert_eq!(report.jobs[1].outcome.as_ref().ok(), Some(&42));
    }

    #[test]
    fn worker_count_is_clamped() {
        let report = run_sweep_on(campaign(EvalMode::EventDriven), 64);
        assert_eq!(report.workers_requested, 64, "requested count is recorded");
        assert_eq!(report.workers_used, 12, "workers clamp to the job count");
        let report = run_sweep_on(Vec::<SimJob<u64>>::new(), 8);
        assert!(report.jobs.is_empty());
        assert_eq!(report.workers_used, 1);
    }

    #[test]
    fn unwrap_all_panics_with_label() {
        let jobs: Vec<SimJob<u64>> = vec![SimJob::new("bad job", || {
            Err(SimError::CombinationalLoop {
                cycle: 0,
                iterations: 1,
            })
        })];
        let report = run_sweep_on(jobs, 1);
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| report.unwrap_all()));
        let msg = *r
            .expect_err("must panic")
            .downcast::<String>()
            .expect("msg");
        assert!(msg.contains("bad job"), "{msg}");
    }
}
