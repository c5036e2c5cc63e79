//! Per-channel, per-thread transfer statistics.
//!
//! Statistics are collected on every simulated cycle and answer the
//! questions the paper's analysis poses in Sec. III-A: what throughput
//! does each thread obtain on a channel, how often is a channel stalled
//! by backpressure, and how busy is the datapath overall.

use crate::channel::ChannelId;
use crate::component::FusedOpKind;

/// Bucket count of [`ChannelStats::occupancy_hist`]: bucket `k` counts
/// cycles spent at backlog depth `k + 1`; the last bucket collects
/// everything at `OCCUPANCY_BUCKETS` or deeper.
pub const OCCUPANCY_BUCKETS: usize = 8;

/// Counters for a single channel.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ChannelStats {
    /// Channel name (copied from the spec for self-contained reporting).
    pub name: String,
    /// Number of fired transfers per thread.
    pub transfers: Vec<u64>,
    /// Cycles in which some `valid(i)` was asserted.
    pub busy_cycles: u64,
    /// Per-thread stall cycles: `stall_cycles[i]` counts the cycles in
    /// which `valid(i)` was asserted but `ready(i)` was low (thread `i`
    /// stalled by backpressure). Earlier versions kept a single counter
    /// that conflated all threads, which made the per-thread
    /// backpressure analysis of Sec. III-A impossible to read off.
    pub stall_cycles: Vec<u64>,
    /// Occupancy histogram: bucket `k` counts the cycles the channel
    /// spent in a backpressure streak of length `k + 1` (consecutive
    /// valid-without-ready cycles; the last bucket collects streaks of
    /// [`OCCUPANCY_BUCKETS`] or longer). A streak of length `d` means the
    /// producer side has been holding tokens for `d` cycles — a lower
    /// bound on the backlog a deeper FIFO-MEB upstream could absorb,
    /// which is exactly the signal the data-driven depth-sizing pass
    /// consumes via [`Stats::feedback_profile`].
    pub occupancy_hist: [u64; OCCUPANCY_BUCKETS],
    /// The latest backpressure streak (internal recording state for
    /// `occupancy_hist`).
    pub(crate) streak: StallStreak,
}

/// A channel's latest backpressure streak: its length and the cycle it
/// last stalled. A stall extends the streak only if the channel stalled
/// the cycle before, so a cycle in which the channel idles or fires ends
/// the streak without writing anything.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct StallStreak {
    len: u64,
    last: u64,
}

impl StallStreak {
    /// No stall recorded yet.
    pub(crate) const NONE: Self = Self {
        len: 0,
        last: u64::MAX,
    };
}

impl ChannelStats {
    pub(crate) fn new(name: String, threads: usize) -> Self {
        Self {
            name,
            transfers: vec![0; threads],
            busy_cycles: 0,
            stall_cycles: vec![0; threads],
            occupancy_hist: [0; OCCUPANCY_BUCKETS],
            streak: StallStreak::NONE,
        }
    }

    /// Total transfers across all threads.
    pub fn total_transfers(&self) -> u64 {
        self.transfers.iter().sum()
    }

    /// Total stall cycles across all threads — the single number the
    /// pre-split `stall_cycles` field used to hold.
    pub fn total_stall_cycles(&self) -> u64 {
        self.stall_cycles.iter().sum()
    }

    /// Records a stall (valid without ready) at `cycle` and banks the
    /// streak depth in the histogram. The streak goes on if the channel
    /// stalled the cycle before and starts over otherwise.
    #[inline]
    pub(crate) fn record_stall_occupancy(&mut self, cycle: u64) {
        // `last` starts at `u64::MAX`, which wraps to "stalled before
        // cycle 0" with a zero length: the first stall is depth 1 either way.
        let len = if self.streak.last.wrapping_add(1) == cycle {
            self.streak.len + 1
        } else {
            1
        };
        self.streak = StallStreak { len, last: cycle };
        self.occupancy_hist[Self::bucket(len)] += 1;
    }

    /// Takes back the last [`record_stall_occupancy`] of a step that then
    /// failed, restoring the streak `before` it.
    ///
    /// [`record_stall_occupancy`]: ChannelStats::record_stall_occupancy
    pub(crate) fn unrecord_stall_occupancy(&mut self, before: StallStreak) {
        self.occupancy_hist[Self::bucket(self.streak.len)] -= 1;
        self.streak = before;
    }

    /// Histogram bucket of a streak of depth `len` (≥ 1).
    #[inline]
    fn bucket(len: u64) -> usize {
        (len as usize).min(OCCUPANCY_BUCKETS) - 1
    }
}

/// Counters for the evaluation kernel itself: how much combinational
/// work the settle phase performed, and how much the event-driven
/// dirty-set scheduler avoided (see `docs/kernel.md`).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct KernelStats {
    /// Total `Component::eval` invocations across the run.
    pub component_evals: u64,
    /// Total settle rounds (the initial full sweep of each cycle plus
    /// every dirty-set round after it).
    pub settle_rounds: u64,
    /// Evaluations avoided relative to an exhaustive kernel performing
    /// the same number of rounds (`rounds × components − evals`).
    pub components_skipped: u64,
    /// Cycles skipped wholesale by the quiescence fast-path (no token
    /// anywhere; the clock jumped to the next scheduled event).
    pub quiesced_cycles: u64,
    /// Cycles actually stepped through the settle loop.
    pub stepped_cycles: u64,
    /// Widest rank of the build-time levelized schedule: the largest
    /// number of components sharing one dependency level (1 for a pure
    /// chain; merged across jobs by `max`).
    pub rank_width: u64,
    /// Evaluations per op class ([`Component::op_kind`]), indexed by
    /// [`FusedOpKind::ALL`](crate::FusedOpKind::ALL) order. Sums to
    /// [`component_evals`](Self::component_evals).
    ///
    /// [`Component::op_kind`]: crate::Component::op_kind
    pub fused_op_evals: [u64; FusedOpKind::COUNT],
    /// Wall-clock nanoseconds spent inside the settle loop (phase 1 of
    /// every stepped cycle), accumulated only while settle timing is
    /// armed via [`Circuit::set_settle_timing`] — zero otherwise, so the
    /// hot path never pays for the clock reads by default. It isolates
    /// the combinational phase from the tick/capture/stats phases.
    ///
    /// [`Circuit::set_settle_timing`]: crate::Circuit::set_settle_timing
    pub settle_nanos: u64,
}

impl KernelStats {
    /// Mean `Component::eval` calls per stepped cycle — the headline
    /// metric of the dirty-set kernel.
    pub fn evals_per_cycle(&self) -> f64 {
        if self.stepped_cycles == 0 {
            0.0
        } else {
            self.component_evals as f64 / self.stepped_cycles as f64
        }
    }

    /// Mean settle rounds per stepped cycle.
    pub fn rounds_per_cycle(&self) -> f64 {
        if self.stepped_cycles == 0 {
            0.0
        } else {
            self.settle_rounds as f64 / self.stepped_cycles as f64
        }
    }

    /// Adds `other`'s counters into `self`. Used by the parallel sweep
    /// harness ([`run_sweep`](crate::run_sweep)) to aggregate kernel work
    /// across the independent jobs of a campaign; merging is commutative,
    /// so the aggregate is independent of job completion order.
    pub fn merge(&mut self, other: &KernelStats) {
        self.component_evals += other.component_evals;
        self.settle_rounds += other.settle_rounds;
        self.components_skipped += other.components_skipped;
        self.quiesced_cycles += other.quiesced_cycles;
        self.stepped_cycles += other.stepped_cycles;
        // Rank width is a property of each circuit, not a tally: the
        // aggregate reports the widest schedule seen across the jobs.
        self.rank_width = self.rank_width.max(other.rank_width);
        for (h, o) in self.fused_op_evals.iter_mut().zip(other.fused_op_evals) {
            *h += o;
        }
        self.settle_nanos += other.settle_nanos;
    }

    /// Per-op eval breakdown: `(kind, evals)` for every op class with a
    /// non-zero count.
    pub fn fused_op_breakdown(&self) -> Vec<(FusedOpKind, u64)> {
        FusedOpKind::ALL
            .iter()
            .zip(self.fused_op_evals)
            .filter(|&(_, n)| n > 0)
            .map(|(&k, n)| (k, n))
            .collect()
    }
}

/// Aggregated statistics for a whole circuit run.
///
/// Obtained from [`Circuit::stats`](crate::Circuit::stats).
///
/// # Examples
///
/// Throughput of thread 0 on a channel over the run:
///
/// ```no_run
/// # use elastic_sim::{Stats, ChannelId};
/// # fn demo(stats: &Stats, ch: ChannelId) {
/// let thr = stats.throughput(ch, 0);
/// assert!(thr <= 1.0);
/// # }
/// ```
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Stats {
    channels: Vec<ChannelStats>,
    cycles: u64,
    kernel: KernelStats,
}

impl Stats {
    pub(crate) fn new(specs: impl IntoIterator<Item = (String, usize)>) -> Self {
        Self {
            channels: specs
                .into_iter()
                .map(|(n, t)| ChannelStats::new(n, t))
                .collect(),
            cycles: 0,
            kernel: KernelStats::default(),
        }
    }

    pub(crate) fn record_cycle(&mut self) {
        self.cycles += 1;
    }

    pub(crate) fn record_quiesced(&mut self, cycles: u64) {
        self.cycles += cycles;
        self.kernel.quiesced_cycles += cycles;
    }

    pub(crate) fn kernel_mut(&mut self) -> &mut KernelStats {
        &mut self.kernel
    }

    /// Evaluation-kernel counters (evals per cycle, settle rounds,
    /// skipped work, quiesced cycles).
    pub fn kernel(&self) -> &KernelStats {
        &self.kernel
    }

    #[inline]
    pub(crate) fn channel_mut(&mut self, ch: ChannelId) -> &mut ChannelStats {
        &mut self.channels[ch.index()]
    }

    /// Number of simulated cycles covered by these statistics.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Counters for one channel.
    ///
    /// # Panics
    ///
    /// Panics if `ch` does not belong to the circuit that produced these
    /// statistics.
    pub fn channel(&self, ch: ChannelId) -> &ChannelStats {
        &self.channels[ch.index()]
    }

    /// Transfers completed by `thread` on `ch`.
    pub fn transfers(&self, ch: ChannelId, thread: usize) -> u64 {
        self.channels[ch.index()].transfers[thread]
    }

    /// Transfers completed by all threads on `ch`.
    pub fn total_transfers(&self, ch: ChannelId) -> u64 {
        self.channels[ch.index()].total_transfers()
    }

    /// Per-thread throughput on `ch`: transfers / simulated cycles.
    ///
    /// Returns 0.0 before the first cycle.
    pub fn throughput(&self, ch: ChannelId, thread: usize) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.transfers(ch, thread) as f64 / self.cycles as f64
        }
    }

    /// Aggregate channel throughput: total transfers / simulated cycles.
    pub fn channel_throughput(&self, ch: ChannelId) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.total_transfers(ch) as f64 / self.cycles as f64
        }
    }

    /// Fraction of cycles in which the channel carried a valid token.
    pub fn utilization(&self, ch: ChannelId) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.channels[ch.index()].busy_cycles as f64 / self.cycles as f64
        }
    }

    /// Fraction of cycles in which the channel was stalled (valid without
    /// ready for the asserted thread), summed over threads.
    pub fn stall_rate(&self, ch: ChannelId) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.channels[ch.index()].total_stall_cycles() as f64 / self.cycles as f64
        }
    }

    /// Cycles in which `thread` was stalled on `ch` (its valid asserted
    /// with ready low).
    pub fn stall_cycles(&self, ch: ChannelId, thread: usize) -> u64 {
        self.channels[ch.index()].stall_cycles[thread]
    }

    /// Iterates over all channel counters in channel-id order.
    pub fn iter(&self) -> impl Iterator<Item = &ChannelStats> {
        self.channels.iter()
    }

    /// Resets all counters to zero (e.g. to measure a steady-state window
    /// after a warm-up period).
    pub fn reset(&mut self) {
        self.cycles = 0;
        self.kernel = KernelStats::default();
        for c in &mut self.channels {
            c.transfers.iter_mut().for_each(|t| *t = 0);
            c.busy_cycles = 0;
            c.stall_cycles.iter_mut().for_each(|s| *s = 0);
            c.occupancy_hist = [0; OCCUPANCY_BUCKETS];
            c.streak = StallStreak::NONE;
        }
    }

    /// Extracts the measured per-channel feedback a data-driven sizing
    /// pass consumes: utilization, stall rate and the occupancy
    /// histogram of every channel, keyed by channel name (simulated
    /// channel names are copied verbatim from the IR, so the records
    /// match back to IR channels by name).
    pub fn feedback_profile(&self) -> FeedbackProfile {
        FeedbackProfile {
            cycles: self.cycles,
            channels: self
                .channels
                .iter()
                .enumerate()
                .map(|(i, c)| ChannelFeedback {
                    name: c.name.clone(),
                    threads: c.transfers.len(),
                    transfers: c.total_transfers(),
                    stall_cycles: c.total_stall_cycles(),
                    utilization: self.utilization(ChannelId(i)),
                    stall_rate: self.stall_rate(ChannelId(i)),
                    occupancy_hist: c.occupancy_hist,
                })
                .collect(),
        }
    }
}

/// One channel's measured feedback record (see
/// [`Stats::feedback_profile`]).
#[derive(Clone, PartialEq, Debug)]
pub struct ChannelFeedback {
    /// Channel name, verbatim from the circuit (and hence the IR).
    pub name: String,
    /// Thread count `S` of the channel.
    pub threads: usize,
    /// Total fired transfers across all threads.
    pub transfers: u64,
    /// Total stalled cycles across all threads.
    pub stall_cycles: u64,
    /// Fraction of cycles with a valid token on the channel.
    pub utilization: f64,
    /// Fraction of cycles stalled by backpressure.
    pub stall_rate: f64,
    /// Backpressure-streak histogram (see
    /// [`ChannelStats::occupancy_hist`]).
    pub occupancy_hist: [u64; OCCUPANCY_BUCKETS],
}

impl ChannelFeedback {
    /// Mean backlog depth over the channel's stalled cycles (0.0 when the
    /// channel never stalled): the expected streak position of a stalled
    /// cycle, weighting each histogram bucket by its depth.
    pub fn mean_backlog(&self) -> f64 {
        let total: u64 = self.occupancy_hist.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let weighted: u64 = self
            .occupancy_hist
            .iter()
            .enumerate()
            .map(|(k, &n)| (k as u64 + 1) * n)
            .sum();
        weighted as f64 / total as f64
    }
}

/// Measured per-channel feedback extracted from a run's [`Stats`] — the
/// input contract of the `MebDepthSizing` pass in `elastic-synth`: the
/// simulator exports plain measurements, the pass decides depths.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct FeedbackProfile {
    /// Simulated cycles behind the measurements.
    pub cycles: u64,
    /// One record per channel, in channel-id order.
    pub channels: Vec<ChannelFeedback>,
}

impl FeedbackProfile {
    /// Looks up a channel's record by name (first match).
    pub fn channel(&self, name: &str) -> Option<&ChannelFeedback> {
        self.channels.iter().find(|c| c.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> Stats {
        Stats::new([("a".to_string(), 2), ("b".to_string(), 1)])
    }

    #[test]
    fn throughput_is_transfers_over_cycles() {
        let mut s = stats();
        for _ in 0..10 {
            s.record_cycle();
        }
        s.channel_mut(ChannelId(0)).transfers[1] = 5;
        assert_eq!(s.throughput(ChannelId(0), 1), 0.5);
        assert_eq!(s.throughput(ChannelId(0), 0), 0.0);
        assert_eq!(s.channel_throughput(ChannelId(0)), 0.5);
    }

    #[test]
    fn zero_cycles_yields_zero_rates() {
        let s = stats();
        assert_eq!(s.throughput(ChannelId(0), 0), 0.0);
        assert_eq!(s.utilization(ChannelId(1)), 0.0);
        assert_eq!(s.stall_rate(ChannelId(1)), 0.0);
    }

    #[test]
    fn reset_clears_counters() {
        let mut s = stats();
        s.record_cycle();
        s.channel_mut(ChannelId(1)).transfers[0] = 3;
        s.channel_mut(ChannelId(1)).busy_cycles = 4;
        s.channel_mut(ChannelId(0)).stall_cycles[1] = 2;
        s.channel_mut(ChannelId(0)).record_stall_occupancy(0);
        s.kernel_mut().component_evals = 9;
        s.reset();
        assert_eq!(s.cycles(), 0);
        assert_eq!(s.total_transfers(ChannelId(1)), 0);
        assert_eq!(s.channel(ChannelId(1)).busy_cycles, 0);
        assert_eq!(s.channel(ChannelId(0)).total_stall_cycles(), 0);
        assert_eq!(
            s.channel(ChannelId(0)).occupancy_hist,
            [0; OCCUPANCY_BUCKETS]
        );
        assert_eq!(s.channel(ChannelId(0)).streak, StallStreak::NONE);
        assert_eq!(s.kernel().component_evals, 0);
    }

    #[test]
    fn occupancy_histogram_banks_streak_depths() {
        let mut s = stats();
        let ch = s.channel_mut(ChannelId(0));
        // A 3-cycle backpressure streak visits depths 1, 2, 3 and no
        // deeper…
        for cycle in 0..3 {
            ch.record_stall_occupancy(cycle);
        }
        assert_eq!(&ch.occupancy_hist[..3], &[1, 1, 1]);
        assert!(ch.occupancy_hist[3..].iter().all(|&n| n == 0));
        // …a transfer/idle cycle (3) ends it, and the next streak
        // restarts at 1.
        ch.record_stall_occupancy(4);
        assert_eq!(ch.occupancy_hist[0], 2);
        // Taking a stall back restores the streak before it.
        let before = ch.streak;
        ch.record_stall_occupancy(5);
        ch.unrecord_stall_occupancy(before);
        assert_eq!(ch.occupancy_hist[1], 1);
        assert_eq!(ch.streak, before);
        // Depths beyond the bucket range collapse into the last bucket.
        for cycle in 5..4 + OCCUPANCY_BUCKETS as u64 {
            ch.record_stall_occupancy(cycle);
        }
        assert_eq!(ch.occupancy_hist[OCCUPANCY_BUCKETS - 1], 1);
    }

    #[test]
    fn feedback_profile_exports_per_channel_records() {
        let mut s = stats();
        for _ in 0..10 {
            s.record_cycle();
        }
        let a = s.channel_mut(ChannelId(0));
        a.transfers[0] = 4;
        a.busy_cycles = 6;
        a.stall_cycles[1] = 2;
        a.record_stall_occupancy(0);
        a.record_stall_occupancy(1);

        let profile = s.feedback_profile();
        assert_eq!(profile.cycles, 10);
        assert_eq!(profile.channels.len(), 2);
        let fa = profile.channel("a").expect("channel a");
        assert_eq!(fa.threads, 2);
        assert_eq!(fa.transfers, 4);
        assert_eq!(fa.stall_cycles, 2);
        assert!((fa.utilization - 0.6).abs() < 1e-12);
        assert!((fa.stall_rate - 0.2).abs() < 1e-12);
        assert_eq!(fa.occupancy_hist[0], 1);
        assert_eq!(fa.occupancy_hist[1], 1);
        // (1 + 2) / 2
        assert!((fa.mean_backlog() - 1.5).abs() < 1e-12);
        let fb = profile.channel("b").expect("channel b");
        assert_eq!(fb.mean_backlog(), 0.0);
        assert!(profile.channel("nope").is_none());
    }

    #[test]
    fn stall_cycles_are_per_thread() {
        let mut s = stats();
        for _ in 0..10 {
            s.record_cycle();
        }
        // Thread 0 stalled 4 cycles, thread 1 stalled 1 — the split the
        // old single counter could not express.
        s.channel_mut(ChannelId(0)).stall_cycles[0] = 4;
        s.channel_mut(ChannelId(0)).stall_cycles[1] = 1;
        assert_eq!(s.stall_cycles(ChannelId(0), 0), 4);
        assert_eq!(s.stall_cycles(ChannelId(0), 1), 1);
        assert_eq!(s.channel(ChannelId(0)).total_stall_cycles(), 5);
        assert_eq!(s.stall_rate(ChannelId(0)), 0.5);
    }

    #[test]
    fn kernel_stats_merge_adds_all_counters() {
        let mut fused_a = [0u64; FusedOpKind::COUNT];
        fused_a[0] = 4;
        fused_a[1] = 2;
        let mut fused_b = [0u64; FusedOpKind::COUNT];
        fused_b[1] = 3;
        let mut a = KernelStats {
            component_evals: 10,
            settle_rounds: 4,
            components_skipped: 6,
            quiesced_cycles: 1,
            stepped_cycles: 3,
            rank_width: 2,
            fused_op_evals: fused_a,
            settle_nanos: 40,
        };
        let b = KernelStats {
            component_evals: 5,
            settle_rounds: 2,
            components_skipped: 3,
            quiesced_cycles: 9,
            stepped_cycles: 2,
            rank_width: 5,
            fused_op_evals: fused_b,
            settle_nanos: 2,
        };
        a.merge(&b);
        assert_eq!(a.component_evals, 15);
        assert_eq!(a.settle_rounds, 6);
        assert_eq!(a.components_skipped, 9);
        assert_eq!(a.quiesced_cycles, 10);
        assert_eq!(a.stepped_cycles, 5);
        assert_eq!(a.settle_nanos, 42);
        // Rank width takes the max, not the sum.
        assert_eq!(a.rank_width, 5);
        // Per-op counters add elementwise.
        assert_eq!(a.fused_op_evals[0], 4);
        assert_eq!(a.fused_op_evals[1], 5);
        assert_eq!(
            a.fused_op_breakdown(),
            vec![(FusedOpKind::Source, 4), (FusedOpKind::Sink, 5)]
        );
        // Merging a default is the identity.
        let before = a;
        a.merge(&KernelStats::default());
        assert_eq!(a, before);
    }

    #[test]
    fn kernel_rates_average_over_stepped_cycles() {
        let mut k = KernelStats::default();
        assert_eq!(k.evals_per_cycle(), 0.0);
        k.component_evals = 30;
        k.settle_rounds = 15;
        k.stepped_cycles = 10;
        assert_eq!(k.evals_per_cycle(), 3.0);
        assert_eq!(k.rounds_per_cycle(), 1.5);
    }

    #[test]
    fn quiesced_cycles_count_toward_total_cycles() {
        let mut s = stats();
        s.record_cycle();
        s.record_quiesced(9);
        assert_eq!(s.cycles(), 10);
        assert_eq!(s.kernel().quiesced_cycles, 9);
    }
}
