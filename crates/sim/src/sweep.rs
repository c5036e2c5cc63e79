//! Campaign front-end over the sweep pool: submit thousands of
//! [`SimJob`]s, get one [`JobReport`] per job in submission order, and
//! memoize keyed results across submissions.
//!
//! Experiment binaries often resubmit overlapping campaigns — the same
//! `(circuit, config, seed)` points appear in a scaling curve, an
//! ablation table *and* a regression gate. [`SweepService`] keeps a
//! cache keyed by the job's [`SimJob::with_cache_key`] tag (conventionally
//! produced by [`campaign_key`] from the structural IR hash, the run
//! configuration and the seed), so a point simulates once per process and
//! every later submission answers from memory with `memoized: true` and
//! zero wall time.
//!
//! Untagged jobs always execute; tagged jobs hit the cache only on an
//! exact key match. Failed jobs are never cached (a deadlock may be
//! config-dependent and is cheap to rediscover), and the submission-order
//! final report is indistinguishable from an uncached run apart from the
//! `memoized` markers.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::fnv::Fnv1a;
use crate::par::{run_pool, JobReport, SimJob, SweepReport};
use crate::stats::KernelStats;

/// Memoization key for a sweep point: mixes the circuit's structural
/// hash (e.g. `ElasticIr::structural_hash`), a hash of the run
/// configuration (eval mode, cycle budget, policies…) and the seed into
/// one 64-bit FNV-1a digest. Two points with equal keys must be
/// interchangeable simulations.
pub fn campaign_key(ir_hash: u64, config_hash: u64, seed: u64) -> u64 {
    let mut h = Fnv1a::new();
    for word in [ir_hash, config_hash, seed] {
        h.write_u64(word);
    }
    h.finish()
}

/// Default campaign-cache capacity (entries). Ablation tables and
/// scaling curves hold a few hundred points; the default leaves ample
/// headroom while bounding a long-lived service driving thousands of
/// distinct campaigns.
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// One memoized sweep point plus its LRU stamp.
struct CacheEntry<R> {
    value: R,
    kernel: KernelStats,
    /// Monotonic use stamp: smallest = least recently used.
    last_used: u64,
}

/// The capacity-limited campaign cache plus its lifetime counters, all
/// behind one lock so hit accounting and eviction stay consistent.
struct CacheState<R> {
    map: HashMap<u64, CacheEntry<R>>,
    /// Monotonic clock stamped onto entries at insert and on every hit.
    clock: u64,
    evictions: u64,
}

impl<R> CacheState<R> {
    /// Looks up `key`, refreshing its LRU stamp on a hit.
    fn hit(&mut self, key: u64) -> Option<(R, KernelStats)>
    where
        R: Clone,
    {
        let clock = self.clock + 1;
        let entry = self.map.get_mut(&key)?;
        entry.last_used = clock;
        self.clock = clock;
        Some((entry.value.clone(), entry.kernel))
    }

    /// Inserts `key`, evicting the least-recently-used entry first when
    /// the cache is at `cap`. Returns the number of evictions (0 or 1).
    fn insert(&mut self, cap: usize, key: u64, value: R, kernel: KernelStats) -> u64 {
        let mut evicted = 0;
        if !self.map.contains_key(&key) && self.map.len() >= cap {
            // O(cap) scan: caps are a few thousand entries and insertion
            // happens once per *simulated* job, so the scan is noise next
            // to the simulation it follows.
            if let Some(&lru) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k)
            {
                self.map.remove(&lru);
                self.evictions += 1;
                evicted = 1;
            }
        }
        self.clock += 1;
        self.map.insert(
            key,
            CacheEntry {
                value,
                kernel,
                last_used: self.clock,
            },
        );
        evicted
    }
}

/// A memoizing sweep front-end: keyed jobs simulate once per process
/// and repeat submissions answer from the campaign cache (see the
/// module-level docs above).
///
/// The cache is **capacity-limited**: at most [`DEFAULT_CACHE_CAPACITY`]
/// entries are held (or the cap given to
/// [`with_cache_capacity`](SweepService::with_cache_capacity)), with
/// least-recently-used eviction — a hit refreshes an entry's recency.
/// Hit/miss/eviction counts for each submission are surfaced on the
/// returned [`SweepReport`] (`cache_hits` / `cache_misses` /
/// `cache_evictions`).
///
/// The service is `Sync`: submissions from several threads share the
/// campaign cache (each submission runs its own pool).
pub struct SweepService<R> {
    workers: usize,
    cap: usize,
    cache: Mutex<CacheState<R>>,
}

impl<R: Clone + Send> SweepService<R> {
    /// A service whose submissions run on `workers` pool threads
    /// (clamped per submission to the number of uncached jobs), caching
    /// up to [`DEFAULT_CACHE_CAPACITY`] results.
    pub fn new(workers: usize) -> Self {
        Self {
            workers,
            cap: DEFAULT_CACHE_CAPACITY,
            cache: Mutex::new(CacheState {
                map: HashMap::new(),
                clock: 0,
                evictions: 0,
            }),
        }
    }

    /// Sets the campaign-cache entry cap (chainable; clamped to ≥ 1).
    pub fn with_cache_capacity(mut self, cap: usize) -> Self {
        self.cap = cap.max(1);
        self
    }

    /// Number of memoized results currently held (≤ the cap).
    pub fn cached_results(&self) -> usize {
        self.cache.lock().expect("cache lock").map.len()
    }

    /// Total entries evicted over the service's lifetime.
    pub fn cache_evictions(&self) -> u64 {
        self.cache.lock().expect("cache lock").evictions
    }

    /// Runs a campaign, returning the submission-ordered report.
    ///
    /// Keyed jobs found in the cache are answered from it; every other
    /// job runs on the pool. Once the pool returns, the successful keyed
    /// results enter the cache in submission order, so which entries an
    /// eviction leaves does not depend on which job finished first.
    pub fn run(&self, jobs: Vec<SimJob<R>>) -> SweepReport<R> {
        let start = Instant::now();
        let mut slots: Vec<Option<JobReport<R>>> = Vec::with_capacity(jobs.len());
        let mut misses: Vec<(usize, SimJob<R>)> = Vec::new();
        let mut cache_hits = 0u64;
        let mut cache_misses = 0u64;
        {
            let mut cache = self.cache.lock().expect("cache lock");
            for (index, job) in jobs.into_iter().enumerate() {
                match job.cache_key().and_then(|k| cache.hit(k)) {
                    Some((value, kernel)) => {
                        cache_hits += 1;
                        slots.push(Some(JobReport {
                            index,
                            label: job.label().to_string(),
                            cache_key: job.cache_key(),
                            outcome: Ok(value),
                            kernel,
                            wall: Duration::ZERO,
                            memoized: true,
                        }));
                    }
                    None => {
                        cache_misses += u64::from(job.cache_key().is_some());
                        slots.push(None);
                        misses.push((index, job));
                    }
                }
            }
        }

        let (ran, workers_used) = run_pool(misses, self.workers);
        let mut cache_evictions = 0u64;
        {
            let mut cache = self.cache.lock().expect("cache lock");
            for report in ran {
                if let (Some(key), Ok(value)) = (report.cache_key, &report.outcome) {
                    cache_evictions += cache.insert(self.cap, key, value.clone(), report.kernel);
                }
                let index = report.index;
                slots[index] = Some(report);
            }
        }

        let jobs = slots
            .into_iter()
            .map(|s| s.expect("one report per job"))
            .collect();
        SweepReport {
            cache_hits,
            cache_misses,
            cache_evictions,
            ..SweepReport::new(jobs, self.workers, workers_used, start)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CircuitBuilder;
    use crate::error::SimError;
    use crate::schedule::{ReadyPolicy, Sink, Source};

    fn keyed_job(seed: u64) -> SimJob<Vec<u64>> {
        SimJob::new(format!("point {seed}"), move || {
            let mut b = CircuitBuilder::<u64>::new();
            let ch = b.channel("ch", 1);
            let mut src = Source::new("src", ch, 1);
            src.extend(0, 0..10u64);
            b.add(src);
            b.add(Sink::with_capture(
                "snk",
                ch,
                1,
                ReadyPolicy::Random { p: 0.7, seed },
            ));
            let mut c = b.build().expect("valid");
            c.run(100)?;
            let snk: &Sink<u64> = c.get("snk").expect("sink");
            Ok(snk.captured(0).iter().map(|(_, t)| *t).collect())
        })
        .with_cache_key(campaign_key(0x11, 0x22, seed))
    }

    #[test]
    fn second_submission_is_fully_memoized() {
        let service = SweepService::new(2);
        let first = service.run((0..8).map(keyed_job).collect());
        assert_eq!(first.cache_hits, 0);
        assert_eq!(first.ok_count(), 8);
        assert_eq!(service.cached_results(), 8);

        let second = service.run((0..8).map(keyed_job).collect());
        assert_eq!(second.cache_hits, 8);
        assert!(second.jobs.iter().all(|j| j.memoized));
        assert!(second.jobs.iter().all(|j| j.wall == Duration::ZERO));
        let a: Vec<_> = first.values().collect();
        let b: Vec<_> = second.values().collect();
        assert_eq!(a, b, "memoized values must equal the originals");
        // Kernel counters are replayed from the cache, so campaign
        // aggregates stay comparable across cached and uncached runs.
        assert_eq!(first.kernel, second.kernel);
    }

    #[test]
    fn overlapping_campaigns_only_run_the_new_points() {
        let service = SweepService::new(2);
        service.run((0..4).map(keyed_job).collect());
        let report = service.run((0..6).map(keyed_job).collect());
        assert_eq!(report.cache_hits, 4);
        assert_eq!(report.ok_count(), 6);
        for j in &report.jobs {
            assert_eq!(j.memoized, j.index < 4, "job {} memoization", j.index);
        }
        assert_eq!(service.cached_results(), 6);
    }

    #[test]
    fn untagged_and_failed_jobs_are_never_cached() {
        let service: SweepService<u64> = SweepService::new(1);
        let jobs = || -> Vec<SimJob<u64>> {
            vec![
                SimJob::new("untagged", || Ok(7u64)),
                SimJob::new("fails", || -> Result<u64, SimError> {
                    Err(SimError::CombinationalLoop {
                        cycle: 0,
                        iterations: 1,
                    })
                })
                .with_cache_key(0xDEAD),
            ]
        };
        let first = service.run(jobs());
        assert_eq!(first.cache_hits, 0);
        assert_eq!(service.cached_results(), 0);
        let second = service.run(jobs());
        assert_eq!(second.cache_hits, 0, "nothing eligible was cached");
    }

    /// A cheap keyed job (no circuit) for cache-policy tests.
    fn tiny_job(seed: u64) -> SimJob<u64> {
        SimJob::new(format!("tiny {seed}"), move || Ok(seed))
            .with_cache_key(campaign_key(0x33, 0x44, seed))
    }

    #[test]
    fn batch_of_thousands_respects_the_entry_cap() {
        const TOTAL: u64 = 3000;
        const CAP: usize = 64;
        let service = SweepService::new(4).with_cache_capacity(CAP);

        let report = service.run((0..TOTAL).map(tiny_job).collect());
        assert_eq!(report.ok_count(), TOTAL as usize);
        assert_eq!(report.cache_hits, 0);
        assert_eq!(report.cache_misses, TOTAL);
        assert_eq!(report.cache_evictions, TOTAL - CAP as u64);
        assert_eq!(service.cached_results(), CAP);
        assert_eq!(service.cache_evictions(), TOTAL - CAP as u64);

        // Resubmitting the full batch: at most CAP points can answer from
        // cache; everything evicted re-executes (and evicts again).
        let second = service.run((0..TOTAL).map(tiny_job).collect());
        assert!(second.cache_hits as usize <= CAP);
        assert_eq!(second.cache_hits + second.cache_misses, TOTAL);
        assert_eq!(service.cached_results(), CAP);
    }

    #[test]
    fn lru_eviction_prefers_stale_entries_and_hits_refresh() {
        let service = SweepService::new(1).with_cache_capacity(2);
        service.run(vec![tiny_job(1), tiny_job(2)]);
        assert_eq!(service.cached_results(), 2);

        // Touch key 1 so key 2 becomes the least recently used…
        let touch = service.run(vec![tiny_job(1)]);
        assert_eq!(touch.cache_hits, 1);
        assert_eq!(touch.cache_evictions, 0);

        // …then a new key evicts exactly one entry: key 2, not key 1.
        let third = service.run(vec![tiny_job(3)]);
        assert_eq!(third.cache_evictions, 1);
        let after = service.run(vec![tiny_job(1), tiny_job(2), tiny_job(3)]);
        let memo: Vec<bool> = after.jobs.iter().map(|j| j.memoized).collect();
        assert_eq!(memo, vec![true, false, true], "key 2 was the LRU victim");
    }

    #[test]
    fn untagged_jobs_count_as_neither_hit_nor_miss() {
        let service: SweepService<u64> = SweepService::new(1);
        let report = service.run(vec![SimJob::new("untagged", || Ok(7u64)), tiny_job(0)]);
        assert_eq!(report.cache_hits, 0);
        assert_eq!(report.cache_misses, 1, "only the keyed job is a miss");
        assert_eq!(report.cache_evictions, 0);
    }

    #[test]
    fn campaign_key_separates_components() {
        let base = campaign_key(1, 2, 3);
        // Keys must not drift between processes or releases: pinned.
        assert_eq!(base, 0xda2b_fb22_5e0d_1f05);
        assert_ne!(base, campaign_key(9, 2, 3));
        assert_ne!(base, campaign_key(1, 9, 3));
        assert_ne!(base, campaign_key(1, 2, 9));
        // Argument order matters (ir/config/seed are distinct axes).
        assert_ne!(campaign_key(1, 2, 3), campaign_key(3, 2, 1));
    }
}
