//! Testbench endpoints: token sources and sinks with stall policies.

use std::collections::VecDeque;

use crate::channel::ChannelId;
use crate::circuit::{EvalCtx, TickCtx};
use crate::component::{CombPath, Component, FusedOpKind, Ports};
use crate::mask::ThreadMask;
use crate::token::Token;

/// Deterministic 64-bit mix (splitmix64 finalizer). Used to derive
/// per-cycle pseudo-random decisions that are *stable across settle
/// iterations* — `eval` must be idempotent within a cycle.
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// When a [`Sink`] asserts `ready` for a thread.
#[derive(Clone, Debug)]
pub enum ReadyPolicy {
    /// Always ready.
    Always,
    /// Never ready (a permanently blocked consumer).
    Never,
    /// Ready except during the half-open cycle range `from..to`.
    ///
    /// This reproduces scripted stalls such as "thread B stalls during
    /// cycles 2–4" in the paper's Figure 5.
    StallWindow {
        /// First stalled cycle.
        from: u64,
        /// First cycle after the stall.
        to: u64,
    },
    /// Periodically ready: `on` ready cycles followed by `off` stalled
    /// cycles, starting at `phase`.
    Period {
        /// Ready cycles per period.
        on: u64,
        /// Stalled cycles per period.
        off: u64,
        /// Offset of the pattern start.
        phase: u64,
    },
    /// Ready with probability `p` each cycle, deterministically derived
    /// from `seed` (same decision on every settle iteration of a cycle).
    ///
    /// Thread `t` is ready at `cycle` iff `(h as f64 / u64::MAX as f64) <
    /// p`, where `h = mix64(seed ^ cycle·0x5851_f42d_4c95_7f2d ^ t << 48)`
    /// is a splitmix64 hash. The test is exactly the integer threshold
    /// `h < limit(p)`, the form [`Sink`] evaluates: `u64::MAX as f64` is
    /// 2^64, so the test reads `fl(h) < p·2^64`, and rounding `h` to `f64`
    /// is monotone. `limit(p)` is `⌈p·2^64⌉` up to `p·2^64 = 2^53`; above
    /// it, the least `h` that rounds (to nearest, ties to even) to
    /// `p·2^64` or higher. No hash is ready for `p ≤ 0` or NaN, and every
    /// hash for `p > 1`. `p = 1.0` is not always ready: the hashes from
    /// 2^64 − 1024 up round to 2^64.
    Random {
        /// Probability of being ready in a given cycle (0.0–1.0).
        p: f64,
        /// Seed for the per-cycle hash.
        seed: u64,
    },
}

impl ReadyPolicy {
    /// Whether the policy is ready for `thread` at `cycle`.
    pub fn is_ready(&self, cycle: u64, thread: usize) -> bool {
        match *self {
            ReadyPolicy::Always => true,
            ReadyPolicy::Never => false,
            ReadyPolicy::StallWindow { from, to } => !(cycle >= from && cycle < to),
            ReadyPolicy::Period { on, off, phase } => {
                let period = on + off;
                if period == 0 {
                    return true;
                }
                (cycle.wrapping_add(phase)) % period < on
            }
            ReadyPolicy::Random { p, seed } => {
                let h = mix64(seed ^ cycle.wrapping_mul(CYCLE_MIX) ^ (thread as u64) << 48);
                (h as f64 / u64::MAX as f64) < p
            }
        }
    }

    /// `thread`'s decision in the form the [`Sink`]'s word build
    /// evaluates.
    fn lower(&self, thread: usize) -> Lowered {
        match *self {
            ReadyPolicy::Always => Lowered::Fixed(true),
            ReadyPolicy::Never => Lowered::Fixed(false),
            ReadyPolicy::StallWindow { .. } | ReadyPolicy::Period { .. } => Lowered::Scripted,
            // `h as f64 / 2^64` lies in [0, 1]: never below a `p` that is
            // not positive (or NaN), always below a `p` above 1.
            ReadyPolicy::Random { p, .. } if p.is_nan() || p <= 0.0 => Lowered::Fixed(false),
            ReadyPolicy::Random { p, .. } if p > 1.0 => Lowered::Fixed(true),
            ReadyPolicy::Random { p, seed } => Lowered::Hashed {
                key: seed ^ (thread as u64) << 48,
                limit: random_limit(p),
            },
        }
    }
}

/// Odd multiplier that spreads the cycle number over the hash key of
/// [`ReadyPolicy::Random`].
const CYCLE_MIX: u64 = 0x5851_f42d_4c95_7f2d;

/// One thread's [`ReadyPolicy`], lowered by the [`Sink`]'s first word
/// build after the policy is set.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Lowered {
    /// The same bit every cycle.
    Fixed(bool),
    /// A `Random` policy: ready iff `mix64(key ^ cycle·CYCLE_MIX) <
    /// limit`.
    Hashed { key: u64, limit: u64 },
    /// `StallWindow` and `Period`: [`ReadyPolicy::is_ready`] every cycle.
    Scripted,
}

/// The least hash `h` that fails `Random { p, .. }`'s float test `(h as
/// f64 / u64::MAX as f64) < p`, for `0 < p ≤ 1`.
///
/// `u64::MAX as f64` is exactly 2^64, and scaling by a power of two is
/// exact, so the test is `fl(h) < t` with `t = p·2^64` in (0, 2^64].
/// Rounding to `f64` is monotone, so the passing hashes are `0..limit`.
fn random_limit(p: f64) -> u64 {
    debug_assert!(p > 0.0 && p <= 1.0, "p = {p} has no finite limit");
    let t = p * 18_446_744_073_709_551_616.0;
    if t <= 9_007_199_254_740_992.0 {
        // Up to 2^53 every integer converts exactly, and a larger one
        // converts to at least 2^53 ≥ t.
        return t.ceil() as u64;
    }
    // Above 2^53, t = m·2^e with a 53-bit significand m and e ≥ 1. The
    // hashes that round to t or higher start at the midpoint between t
    // and the float below it, which lies 2^e below t, or 2^(e−1) when m
    // is a power of two; at the midpoint the tie goes to the even
    // significand, which is t's when m is even.
    let bits = t.to_bits();
    let e = (bits >> 52) as u32 - 1075;
    let m = bits & ((1 << 52) - 1) | 1 << 52;
    let half_gap = if m == 1 << 52 {
        1 << (e - 2)
    } else {
        1 << (e - 1)
    };
    let midpoint = (u128::from(m) << e) - half_gap;
    (midpoint + u128::from(m % 2)) as u64
}

/// Injects tokens into a multithreaded elastic channel.
///
/// Each thread owns a FIFO of `(release_cycle, token)` pairs. Every cycle
/// the source considers the threads whose head token is released *and*
/// whose downstream `ready(i)` is high, and offers exactly one of them
/// (round-robin) — respecting the MT channel invariant that only one
/// `valid(i)` may be asserted per cycle.
pub struct Source<T: Token> {
    name: String,
    out: ChannelId,
    threads: usize,
    queues: Vec<VecDeque<(u64, T)>>,
    rr: usize,
    injected: Vec<u64>,
    /// Released-head word: bit `t` set iff thread `t`'s queue head is
    /// released this cycle. Queues change only at the clock edge (or
    /// between steps via `push*`), so one rebuild per step serves every
    /// settle re-evaluation.
    eligible: ThreadMask,
    /// Bit `t` set iff thread `t`'s queue is non-empty, maintained
    /// incrementally on `push*`/tick. While no time-gated token is queued
    /// ([`timed`](Self::timed) is 0) this *is* the eligibility word, so
    /// the per-cycle rebuild collapses to a word copy.
    nonempty: ThreadMask,
    /// Number of queued tokens with a non-zero release cycle. Zero on the
    /// common release-immediately workloads; while non-zero the
    /// eligibility rebuild falls back to the per-thread head scan.
    timed: usize,
}

impl<T: Token> Source<T> {
    /// A source with empty per-thread queues driving `out`.
    pub fn new(name: impl Into<String>, out: ChannelId, threads: usize) -> Self {
        Self {
            name: name.into(),
            out,
            threads,
            queues: (0..threads).map(|_| VecDeque::new()).collect(),
            rr: 0,
            injected: vec![0; threads],
            eligible: ThreadMask::new(threads),
            nonempty: ThreadMask::new(threads),
            timed: 0,
        }
    }

    /// Queues `token` on `thread`, available immediately.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range.
    pub fn push(&mut self, thread: usize, token: T) {
        self.queues[thread].push_back((0, token));
        self.nonempty.set(thread, true);
    }

    /// Queues `token` on `thread`, released no earlier than `cycle`.
    ///
    /// Release cycles are clamped to stay FIFO-monotonic per thread: a
    /// `cycle` earlier than the previously queued token's release makes
    /// the token eligible when its predecessor is, instead of panicking.
    /// A push "in the past", issued mid-run after the simulation clock
    /// has already passed `cycle`, releases the token at the next cycle
    /// the thread's queue head can legally release.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range.
    pub fn push_at(&mut self, thread: usize, cycle: u64, token: T) {
        let release = match self.queues[thread].back() {
            Some((last, _)) => cycle.max(*last),
            None => cycle,
        };
        if release > 0 {
            self.timed += 1;
        }
        self.queues[thread].push_back((release, token));
        self.nonempty.set(thread, true);
    }

    /// Queues every token from `iter` on `thread`, available immediately.
    pub fn extend(&mut self, thread: usize, iter: impl IntoIterator<Item = T>) {
        for t in iter {
            self.push(thread, t);
        }
    }

    /// Tokens not yet injected, per thread.
    pub fn pending(&self, thread: usize) -> usize {
        self.queues[thread].len()
    }

    /// Total tokens not yet injected.
    pub fn pending_total(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Tokens injected so far, per thread.
    pub fn injected(&self, thread: usize) -> u64 {
        self.injected[thread]
    }

    /// True when every queue is drained.
    pub fn is_drained(&self) -> bool {
        self.pending_total() == 0
    }

    /// The per-thread reference evaluation [`eval`](Component::eval) is
    /// checked against: probes every queue head on every call and picks
    /// the offered thread with a per-thread round-robin scan. Kept so
    /// tests can run a circuit with it; not a production path.
    #[doc(hidden)]
    pub fn eval_reference(&mut self, ctx: &mut EvalCtx<'_, T>) {
        let cycle = ctx.cycle();
        // Requests: token available and downstream ready (the paper's MEB
        // arbiter likewise "takes into account which threads are ready
        // downstream").
        let mut chosen = None;
        for off in 0..self.threads {
            let t = (self.rr + off) % self.threads;
            let has = self.queues[t].front().is_some_and(|(rel, _)| *rel <= cycle);
            if has && ctx.ready(self.out, t) {
                chosen = Some(t);
                break;
            }
        }
        // If nobody is ready downstream, still offer the round-robin first
        // eligible thread so `valid` precedes `ready` (elastic protocol
        // permits valid-without-ready; the token simply stalls).
        if chosen.is_none() {
            chosen = (0..self.threads)
                .filter(|&t| self.queues[t].front().is_some_and(|(rel, _)| *rel <= cycle))
                .min_by_key(|&t| (t + self.threads - self.rr) % self.threads);
        }
        match chosen {
            Some(t) => {
                let data = self.queues[t]
                    .front()
                    .map(|(_, d)| d.clone())
                    .expect("eligible head");
                ctx.drive_token(self.out, t, data);
            }
            None => ctx.drive_idle(self.out),
        }
    }
}

impl<T: Token> Component<T> for Source<T> {
    fn op_kind(&self) -> FusedOpKind {
        FusedOpKind::Source
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Ports {
        Ports::new([], [self.out])
    }

    fn comb_paths(&self) -> Vec<CombPath> {
        // The arbiter reads `ready(out)` to pick which thread to offer, so
        // downstream ready feeds into `valid(out)`. The offer is re-derived
        // deterministically from the ready mask each sweep (ready request
        // wins, else round-robin fallback), so settle iteration converges
        // even when the channel sits on a ready→valid cycle: damped.
        vec![CombPath::ReadyToValid {
            from: self.out,
            to: self.out,
            damped: true,
        }]
    }

    /// Word-level evaluation: the released-head scan over the per-thread
    /// queues runs once per cycle into a packed word, and the round-robin
    /// "released ∧ downstream-ready" pick is a wrapping word scan instead
    /// of per-thread queue probes.
    fn eval(&mut self, ctx: &mut EvalCtx<'_, T>) {
        if ctx.first_eval() {
            if self.timed == 0 {
                // No time-gated token anywhere: every non-empty queue's
                // head is released, so the incrementally maintained
                // occupancy word is the eligibility word.
                self.eligible.copy_from(&self.nonempty);
            } else {
                let cycle = ctx.cycle();
                for t in 0..self.threads {
                    self.eligible.set(
                        t,
                        self.queues[t].front().is_some_and(|(rel, _)| *rel <= cycle),
                    );
                }
            }
        }
        // Ready-first in round-robin order, else the round-robin first
        // released thread (valid may precede ready — the offer stalls).
        // The intersection with `ready(out)` is folded into the wrapping
        // scan, so no temporary mask is touched per evaluation.
        let chosen = self
            .eligible
            .next_one_wrapping_and(ctx.ready_mask(self.out), self.rr)
            .or_else(|| self.eligible.next_one_wrapping(self.rr));
        // The queue head is cloned only when the offer changes.
        match chosen {
            Some(t) => {
                let (_, data) = self.queues[t].front().expect("eligible head");
                ctx.drive_token_ref(self.out, t, data);
            }
            None => ctx.drive_idle(self.out),
        }
    }

    fn tick(&mut self, ctx: &TickCtx<'_, T>) {
        // The kernel has checked the MT channel invariant before the edge:
        // at most one thread is valid, so one word scan finds the offer.
        let Some(t) = ctx.valid_mask(self.out).first_one() else {
            return;
        };
        if ctx.ready(self.out, t) {
            if let Some((rel, _)) = self.queues[t].pop_front() {
                if rel > 0 {
                    self.timed -= 1;
                }
            }
            if self.queues[t].is_empty() {
                self.nonempty.set(t, false);
            }
            self.injected[t] += 1;
        }
        // Fired or stalled, rotate past the offered thread: a stalled
        // offer must not starve the others (a closed barrier must be able
        // to observe all arrivals).
        self.rr = (t + 1) % self.threads;
    }

    fn reset(&mut self) -> bool {
        for q in &mut self.queues {
            q.clear();
        }
        self.rr = 0;
        self.injected.iter_mut().for_each(|n| *n = 0);
        self.nonempty.clear();
        self.timed = 0;
        true
    }

    crate::impl_as_any!();
}

/// Consumes tokens from a channel according to a per-thread
/// [`ReadyPolicy`], optionally capturing everything it accepts.
pub struct Sink<T: Token> {
    name: String,
    inp: ChannelId,
    policies: Vec<ReadyPolicy>,
    captured: Vec<Vec<(u64, T)>>,
    counts: Vec<u64>,
    capture: bool,
    /// Threads whose policy was set after the last word build, which
    /// lowers them.
    stale: ThreadMask,
    /// The lowered policies: the always-ready threads, the threads
    /// decided by a hash, each thread's `(key, limit)` (a limit of 0,
    /// never ready, on every other thread), and the threads whose policy
    /// is evaluated per cycle.
    fixed: ThreadMask,
    hashed: ThreadMask,
    hashes: Vec<(u64, u64)>,
    scripted: ThreadMask,
    /// Policy word: the ready mask built by the step's first
    /// evaluation.
    ready: ThreadMask,
}

impl<T: Token> Sink<T> {
    /// A sink applying the same `policy` to every thread, not capturing.
    pub fn new(
        name: impl Into<String>,
        inp: ChannelId,
        threads: usize,
        policy: ReadyPolicy,
    ) -> Self {
        let mut stale = ThreadMask::new(threads);
        stale.fill();
        Self {
            name: name.into(),
            inp,
            policies: vec![policy; threads],
            captured: (0..threads).map(|_| Vec::new()).collect(),
            counts: vec![0; threads],
            capture: false,
            stale,
            fixed: ThreadMask::new(threads),
            hashed: ThreadMask::new(threads),
            hashes: vec![(0, 0); threads],
            scripted: ThreadMask::new(threads),
            ready: ThreadMask::new(threads),
        }
    }

    /// A sink that records every `(cycle, token)` it consumes.
    pub fn with_capture(
        name: impl Into<String>,
        inp: ChannelId,
        threads: usize,
        policy: ReadyPolicy,
    ) -> Self {
        let mut s = Self::new(name, inp, threads, policy);
        s.capture = true;
        s
    }

    /// Overrides the policy of a single thread (e.g. "thread B stalls").
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range.
    pub fn set_policy(&mut self, thread: usize, policy: ReadyPolicy) {
        self.policies[thread] = policy;
        self.stale.set(thread, true);
    }

    /// Tokens consumed by `thread`, with the cycle at which each arrived.
    pub fn captured(&self, thread: usize) -> &[(u64, T)] {
        &self.captured[thread]
    }

    /// Number of tokens consumed by `thread` (counted even when payload
    /// capture is disabled).
    pub fn consumed(&self, thread: usize) -> u64 {
        self.counts[thread]
    }

    /// Total tokens consumed across threads.
    pub fn consumed_total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Lowers each policy set since the last word build, once.
    #[cold]
    fn lower_stale(&mut self) {
        let mut stale = std::mem::take(&mut self.stale);
        for t in stale.iter_ones() {
            let lowered = self.policies[t].lower(t);
            self.fixed.set(t, lowered == Lowered::Fixed(true));
            self.scripted.set(t, lowered == Lowered::Scripted);
            let hash = match lowered {
                Lowered::Hashed { key, limit } => Some((key, limit)),
                _ => None,
            };
            self.hashed.set(t, hash.is_some());
            self.hashes[t] = hash.unwrap_or((0, 0));
        }
        stale.clear();
        self.stale = stale;
    }

    /// Builds the policy word of `cycle` into `ready`, 64 threads at a
    /// time: the fixed bits, one hash and compare per hashed thread, then
    /// the scripted threads one by one.
    fn build_ready(&mut self, cycle: u64) {
        if self.stale.any() {
            self.lower_stale();
        }
        let mixed = cycle.wrapping_mul(CYCLE_MIX);
        for (w, hashes) in self.hashes.chunks(64).enumerate() {
            let mut word = 0;
            // Words without a hashed thread skip the hashing. The bits
            // shift in from the word's last thread down, a chain that
            // keeps the loop scalar: vectorised, each 64-bit multiply of
            // the hash costs several SSE2 operations on baseline x86-64.
            if self.hashed.word(w) != 0 {
                for &(key, limit) in hashes.iter().rev() {
                    word = word << 1 | u64::from(mix64(key ^ mixed) < limit);
                }
            }
            self.ready.set_word(w, word | self.fixed.word(w));
        }
        for t in self.scripted.iter_ones() {
            self.ready.set(t, self.policies[t].is_ready(cycle, t));
        }
    }

    /// The per-thread reference evaluation [`eval`](Component::eval) is
    /// checked against: re-evaluates every thread's policy and commits it
    /// bit by bit on every call. Kept so tests can run a circuit with it;
    /// not a production path.
    #[doc(hidden)]
    pub fn eval_reference(&mut self, ctx: &mut EvalCtx<'_, T>) {
        let cycle = ctx.cycle();
        for (t, policy) in self.policies.iter().enumerate() {
            ctx.set_ready(self.inp, t, policy.is_ready(cycle, t));
        }
    }
}

impl<T: Token> Component<T> for Sink<T> {
    fn op_kind(&self) -> FusedOpKind {
        FusedOpKind::Sink
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Ports {
        Ports::new([self.inp], [])
    }

    fn comb_paths(&self) -> Vec<CombPath> {
        // Ready is a pure function of the cycle number and the policy —
        // it never looks at `valid(inp)`, so there is no valid→ready path
        // (the conservative default would wrongly declare one and drag the
        // sink into a feedback cycle with its source).
        Vec::new()
    }

    /// Word-level evaluation: the policy word is built once per *step*,
    /// 64 threads at a time from the lowered policies — the fixed bits,
    /// one hash and compare per [`ReadyPolicy::Random`] thread — and
    /// committed with a single word-level mask write.
    fn eval(&mut self, ctx: &mut EvalCtx<'_, T>) {
        if ctx.first_eval() {
            self.build_ready(ctx.cycle());
            // Commit once per step: the sink is the only driver of
            // `ready(inp)` and the word depends on the cycle number
            // alone, so re-commits on settle re-evaluations would be
            // guaranteed no-ops — skip them.
            ctx.set_ready_mask(self.inp, &self.ready);
        }
    }

    fn tick(&mut self, ctx: &TickCtx<'_, T>) {
        if let Some((t, data)) = ctx.fired_any(self.inp) {
            self.counts[t] += 1;
            if self.capture {
                self.captured[t].push((ctx.cycle(), data.clone()));
            }
        }
    }

    fn reset(&mut self) -> bool {
        // Policies and the capture flag are configuration; only the
        // recorded consumption rewinds.
        for c in &mut self.captured {
            c.clear();
        }
        self.counts.iter_mut().for_each(|n| *n = 0);
        true
    }

    crate::impl_as_any!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ready_policy_windows_and_periods() {
        let w = ReadyPolicy::StallWindow { from: 2, to: 5 };
        assert!(w.is_ready(1, 0));
        assert!(!w.is_ready(2, 0));
        assert!(!w.is_ready(4, 0));
        assert!(w.is_ready(5, 0));

        let p = ReadyPolicy::Period {
            on: 1,
            off: 2,
            phase: 0,
        };
        assert!(p.is_ready(0, 0));
        assert!(!p.is_ready(1, 0));
        assert!(!p.is_ready(2, 0));
        assert!(p.is_ready(3, 0));
    }

    #[test]
    fn random_policy_is_cycle_deterministic() {
        let r = ReadyPolicy::Random { p: 0.5, seed: 42 };
        for cycle in 0..64 {
            assert_eq!(r.is_ready(cycle, 0), r.is_ready(cycle, 0));
        }
        // Roughly half ready over a long horizon.
        let ready = (0..10_000).filter(|&c| r.is_ready(c, 0)).count();
        assert!((3_000..7_000).contains(&ready), "ready={ready}");
    }

    /// The lowered sink word is exact: for every probability, on every
    /// thread of both mask words and at every cycle, the word
    /// `build_ready` builds equals `ReadyPolicy::is_ready`, and each
    /// limit sits exactly on the float test's boundary.
    #[test]
    fn lowered_random_policies_match_the_float_test() {
        let float_ready = |h: u64, p: f64| (h as f64 / u64::MAX as f64) < p;
        let mut ps = vec![
            f64::NAN,
            -1.0,
            -0.0,
            0.0,
            5e-324,
            2f64.powi(-64),
            0.5,
            1.0 - 2f64.powi(-53),
            1.0,
            1.0 + 2f64.powi(-52),
            2.0,
        ];
        // Half uniform in [0, 1), half uniform over the bit patterns of
        // [0, 1], which reaches the subnormals and every binade.
        let mut x = 0x5eed_u64;
        for i in 0..2_000 {
            x = mix64(x);
            ps.push(if i % 2 == 0 {
                (x >> 11) as f64 / (1u64 << 53) as f64
            } else {
                f64::from_bits(x % (1.0f64.to_bits() + 1))
            });
        }
        const THREADS: usize = 70;
        let mut sink = Sink::<u64>::new("snk", ChannelId(0), THREADS, ReadyPolicy::Always);
        for &p in &ps {
            for t in 0..THREADS {
                x = mix64(x);
                let policy = ReadyPolicy::Random { p, seed: x };
                match policy.lower(t) {
                    Lowered::Fixed(true) => assert!(float_ready(u64::MAX, p), "p = {p:e}"),
                    Lowered::Fixed(false) => assert!(!float_ready(0, p), "p = {p:e}"),
                    Lowered::Hashed { limit, .. } => assert!(
                        float_ready(limit - 1, p) && !float_ready(limit, p),
                        "p = {p:e}: limit {limit} is off the boundary"
                    ),
                    Lowered::Scripted => panic!("a random policy lowers to a hash or a bit"),
                }
                sink.set_policy(t, policy);
            }
            let first = mix64(x) >> 1;
            for cycle in first..first + 200 {
                sink.build_ready(cycle);
                for (t, policy) in sink.policies.iter().enumerate() {
                    assert_eq!(
                        sink.ready.get(t),
                        policy.is_ready(cycle, t),
                        "p = {p:e}, thread {t}, cycle {cycle}"
                    );
                }
            }
        }
        // `p = 1.0` is not always ready: the top 1024 hashes round to 2^64.
        assert_eq!(random_limit(1.0), u64::MAX - 1023);
        assert!(!float_ready(u64::MAX - 1023, 1.0));
    }

    #[test]
    fn source_release_cycles_are_clamped_monotonic() {
        // A push "before" an already-queued release keeps FIFO order by
        // clamping: the new token becomes eligible when its predecessor
        // is, rather than panicking (the old behaviour) or producing a
        // release schedule that runs backwards.
        let mut s = Source::<u64>::new("s", ChannelId(0), 1);
        s.push_at(0, 5, 1);
        s.push_at(0, 3, 2);
        assert_eq!(
            s.queues[0].iter().map(|(r, _)| *r).collect::<Vec<_>>(),
            vec![5, 5],
            "late push clamps to the predecessor's release cycle"
        );
    }

    #[test]
    fn push_in_the_past_mid_run_releases_next_eligible_cycle() {
        // Regression: a token pushed with a release cycle the simulation
        // clock has already passed must flow on the next cycle, not stall
        // and not corrupt the cycle accounting.
        use crate::builder::CircuitBuilder;

        let mut b = CircuitBuilder::<u64>::new();
        let ch = b.channel("ch", 1);
        let mut src = Source::<u64>::new("src", ch, 1);
        src.push(0, 1);
        b.add(src);
        b.add(Sink::with_capture("snk", ch, 1, ReadyPolicy::Always));
        let mut c = b.build().expect("valid");

        // Token 1 is delivered at cycle 0; the rest of the window is
        // empty.
        c.run(40).expect("clean");
        assert_eq!(c.cycle(), 40);

        // Now push "at cycle 3" — 37 cycles in the past.
        let src: &mut Source<u64> = c.get_mut("src").expect("source");
        src.push_at(0, 3, 2);
        c.run(5).expect("clean");

        let snk: &Sink<u64> = c.get("snk").expect("sink");
        assert_eq!(
            snk.captured(0),
            &[(0, 1), (40, 2)],
            "past-released token must fire on the first cycle after the push"
        );
        // Cycle accounting stayed consistent across the late push.
        assert_eq!(c.cycle(), 45);
        assert_eq!(c.stats().cycles(), 45);
    }

    #[test]
    fn source_eval_is_idempotent_within_a_cycle() {
        // Regression for the stalled-offer fallback: with no thread ready
        // downstream, a second settle sweep must re-derive exactly the
        // same offer — `eval` may not depend on how many times it ran.
        use crate::channel::{ChannelSpec, ChannelState};

        let mut src = Source::<u64>::new("src", ChannelId(0), 3);
        src.push(0, 10);
        src.push(1, 11);
        src.push(2, 12);
        src.rr = 1; // mid-rotation, as after a few simulated cycles

        let mut channels = vec![ChannelState::<u64>::new(ChannelSpec {
            name: "ch".into(),
            threads: 3,
        })];
        let driver = vec![0usize];
        let reader = vec![0usize];
        let listen_valid = vec![false];
        let listen_ready = vec![true];
        let feedback = vec![false];
        let self_wake = vec![false];
        let mut woke = crate::ThreadMask::new(1);
        // `first` marks the step's first settle round; the later sweeps
        // are re-evaluations of the same step.
        let mut sweep = |src: &mut Source<u64>, channels: &mut Vec<ChannelState<u64>>, first| {
            let mut changed = false;
            let mut ctx = EvalCtx {
                channels,
                woke: &mut woke,
                changed: &mut changed,
                current: 0,
                driver: &driver,
                reader: &reader,
                listen_valid: &listen_valid,
                listen_ready: &listen_ready,
                feedback: &feedback,
                self_wake_valid: &self_wake,
                self_wake_ready: &self_wake,
                cycle: 4,
                first,
            };
            src.eval(&mut ctx);
            changed
        };

        // Nobody ready: the fallback offer must be stable across sweeps.
        sweep(&mut src, &mut channels, true);
        let first = (channels[0].valid.clone(), channels[0].data);
        let changed = sweep(&mut src, &mut channels, false);
        assert!(
            !changed,
            "second sweep changed signals the first already settled"
        );
        assert_eq!((channels[0].valid.clone(), channels[0].data), first);
        assert_eq!(
            channels[0].single_valid(),
            Some(1),
            "fallback follows the rr pointer"
        );

        // Downstream becomes ready for thread 2 only: again stable.
        channels[0].ready = crate::ThreadMask::from_bools(&[false, false, true]);
        sweep(&mut src, &mut channels, false);
        let first = (channels[0].valid.clone(), channels[0].data);
        let changed = sweep(&mut src, &mut channels, false);
        assert!(!changed);
        assert_eq!((channels[0].valid.clone(), channels[0].data), first);
        assert_eq!(
            channels[0].single_valid(),
            Some(2),
            "ready request wins over fallback"
        );
    }

    #[test]
    fn source_tracks_pending_counts() {
        let mut s = Source::<u64>::new("s", ChannelId(0), 2);
        s.extend(0, [1, 2, 3]);
        s.push(1, 9);
        assert_eq!(s.pending(0), 3);
        assert_eq!(s.pending(1), 1);
        assert_eq!(s.pending_total(), 4);
        assert!(!s.is_drained());
    }
}
