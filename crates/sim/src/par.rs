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
//! worker pool:
//!
//! * **Worker model** — [`std::thread::scope`] spawns
//!   `available_parallelism()` workers (or the requested count, at most
//!   one per job). Each worker claims its next job with one `fetch_add`
//!   on a shared cursor over the submitted jobs and keeps its reports
//!   until the cursor runs past the last job. The claim takes no lock,
//!   and one worker runs the very same loop as many.
//! * **Determinism** — each job is a self-contained deterministic
//!   function that builds its own circuit; results are returned **in
//!   submission order**, so the output of a parallel sweep is
//!   byte-identical to the serial (`workers = 1`) path no matter how
//!   execution interleaves or which worker ran which point.
//! * **Isolation** — a job that returns [`SimError`] or panics produces a
//!   per-job [`JobError`]; it does not poison the pool, and every other
//!   job still completes and reports. The panic location is captured so
//!   the report names `file:line`.
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

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, Once};
use std::thread;
use std::time::{Duration, Instant};

use crate::error::SimError;
use crate::stats::KernelStats;

/// The body of a [`SimJob`]: runs once and returns the value with the
/// run's kernel counters.
type JobFn<R> = Box<dyn FnOnce() -> Result<(R, KernelStats), SimError> + Send>;

/// One independent simulation to execute on the sweep pool.
///
/// The closure owns everything it needs (configs, seeds, token vectors)
/// and must be deterministic: the harness guarantees submission-order
/// results, so a deterministic job set yields a bit-identical campaign
/// under any worker count.
pub struct SimJob<R> {
    label: String,
    cache_key: Option<u64>,
    run: JobFn<R>,
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
            run: Box::new(move || f().map(|r| (r, KernelStats::default()))),
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
            run: Box::new(f),
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
    /// The report over `jobs`, given in submission order: merges their
    /// kernel counters, times the sweep from `start` and counts no cache
    /// traffic. [`run_sweep_on`] returns it as is;
    /// [`SweepService::run`](crate::SweepService::run) adds its cache
    /// counts.
    pub(crate) fn new(
        jobs: Vec<JobReport<R>>,
        workers_requested: usize,
        workers_used: usize,
        start: Instant,
    ) -> Self {
        let mut kernel = KernelStats::default();
        for j in &jobs {
            kernel.merge(&j.kernel);
        }
        Self {
            jobs,
            workers_requested,
            workers_used,
            wall: start.elapsed(),
            kernel,
            cache_hits: 0,
            cache_misses: 0,
            cache_evictions: 0,
        }
    }

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

fn execute<R>(job: SimJob<R>, index: usize) -> JobReport<R> {
    let SimJob {
        label,
        cache_key,
        run,
    } = job;
    install_panic_hook();
    LAST_PANIC_LOCATION.with(|slot| slot.borrow_mut().take());
    let start = Instant::now();
    let raw = catch_unwind(AssertUnwindSafe(run));
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

/// Runs `(submission index, job)` pairs on `min(workers, jobs)` scoped
/// threads with the loop of the module docs' worker model, returning
/// their reports sorted by submission index and the clamped worker count
/// (`1..=jobs`). The cursor hands out each position once, so a slot's
/// lock is taken once and never waited for.
///
/// This is the engine under both [`run_sweep_on`] and
/// [`SweepService`](crate::SweepService).
pub(crate) fn run_pool<R: Send>(
    jobs: Vec<(usize, SimJob<R>)>,
    workers: usize,
) -> (Vec<JobReport<R>>, usize) {
    let n = jobs.len();
    let workers_used = workers.clamp(1, n.max(1));
    let slots: Vec<_> = jobs.into_iter().map(|job| Mutex::new(Some(job))).collect();
    let cursor = AtomicUsize::new(0);
    let worker = || {
        let mut done = Vec::new();
        // `Relaxed` suffices: the cursor only hands out positions, and
        // each slot's lock publishes the job it holds.
        while let Some(slot) = slots.get(cursor.fetch_add(1, Ordering::Relaxed)) {
            let (index, job) = slot
                .lock()
                .expect("job slot")
                .take()
                .expect("the cursor hands out each slot once");
            done.push(execute(job, index));
        }
        done
    };
    let mut reports: Vec<JobReport<R>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers_used.min(n))
            .map(|_| scope.spawn(worker))
            .collect();
        // `execute` catches every job panic, so no worker panics.
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sweep worker"))
            .collect()
    });
    reports.sort_unstable_by_key(|report| report.index);
    (reports, workers_used)
}

/// Runs `jobs` on `workers` threads (clamped to `1..=jobs.len()`),
/// returning per-job reports **in submission order**.
///
/// Every worker count runs the same pool loop on spawned threads, so
/// `workers == 1` is the serial reference that every parallel sweep must
/// reproduce bit-identically. Failures (simulation errors and panics
/// alike) are isolated per job: the pool always returns one report per
/// submitted job.
pub fn run_sweep_on<R: Send>(jobs: Vec<SimJob<R>>, workers: usize) -> SweepReport<R> {
    let start = Instant::now();
    let (jobs, workers_used) = run_pool(jobs.into_iter().enumerate().collect(), workers);
    SweepReport::new(jobs, workers, workers_used, start)
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
