//! Datapath units: zero-latency combinational transforms and
//! variable-latency servers.
//!
//! The paper treats "instruction and data memory as well as the execution
//! units" as *variable latency units* (Sec. V-B); elasticity exists
//! precisely to tolerate them. [`VarLatency`] models such a unit: it
//! accepts one token per cycle, holds it for a (possibly data-dependent or
//! random) number of cycles, and emits completed tokens in per-thread FIFO
//! order through an internal round-robin selector.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::channel::ChannelId;
use crate::circuit::{EvalCtx, TickCtx};
use crate::component::{CombPath, Component, FusedOpKind, Ports, SlotView};
use crate::mask::ThreadMask;
use crate::token::Token;

/// Per-token latency function (see [`LatencyModel::PerToken`]).
pub type TokenLatencyFn<T> = Box<dyn Fn(&T) -> u32 + Send>;

/// Emission transform function (see [`VarLatency::with_transform`]).
type TransformFn<T> = Box<dyn Fn(&T) -> T + Send>;

/// How a [`VarLatency`] unit chooses each token's service latency.
pub enum LatencyModel<T> {
    /// Every token takes exactly `n` cycles (`n >= 1`).
    Fixed(u32),
    /// Uniform in `min..=max` cycles, drawn from a seeded RNG at insert
    /// time (deterministic for a given seed and arrival order).
    Uniform {
        /// Minimum latency (>= 1).
        min: u32,
        /// Maximum latency.
        max: u32,
        /// RNG seed.
        seed: u64,
    },
    /// Latency computed from the token itself.
    PerToken(TokenLatencyFn<T>),
}

impl<T> LatencyModel<T> {
    fn sample(&self, token: &T, rng: &mut StdRng) -> u32 {
        let l = match self {
            LatencyModel::Fixed(n) => *n,
            LatencyModel::Uniform { min, max, .. } => rng.gen_range(*min..=*max),
            LatencyModel::PerToken(f) => f(token),
        };
        l.max(1)
    }

    fn seed(&self) -> u64 {
        match self {
            LatencyModel::Uniform { seed, .. } => *seed,
            _ => 0,
        }
    }
}

impl<T> std::fmt::Debug for LatencyModel<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LatencyModel::Fixed(n) => write!(f, "Fixed({n})"),
            LatencyModel::Uniform { min, max, seed } => {
                write!(f, "Uniform({min}..={max}, seed={seed})")
            }
            LatencyModel::PerToken(_) => write!(f, "PerToken(..)"),
        }
    }
}

#[derive(Clone, Debug)]
struct Entry<T> {
    thread: usize,
    token: T,
    done_at: u64,
}

/// A variable-latency elastic server with `capacity` internal slots.
///
/// * `ready(i)` upstream is asserted while a slot is free (shared across
///   threads, like a small reservation station);
/// * a completed token becomes eligible when it is the *oldest in-flight
///   token of its thread* (per-thread order is preserved);
/// * among eligible tokens whose downstream `ready(i)` is high, a
///   round-robin pointer picks one per cycle.
///
/// With `LatencyModel::Fixed(1)` and capacity 1 this degenerates to a
/// registered function unit.
pub struct VarLatency<T: Token> {
    name: String,
    inp: ChannelId,
    out: ChannelId,
    threads: usize,
    capacity: usize,
    latency: LatencyModel<T>,
    transform: Option<TransformFn<T>>,
    entries: VecDeque<Entry<T>>,
    rng: StdRng,
    rr: usize,
    /// Upstream ready word: all ones while a slot is free, else zero.
    ready: ThreadMask,
    /// Threads whose oldest in-flight entry has completed.
    heads: ThreadMask,
    /// Entry index of each thread's completed head (meaningful where
    /// `heads` is set).
    head_idx: Vec<usize>,
    /// Scratch "oldest entry already seen" mask of the head scan.
    seen: ThreadMask,
    /// The token emitted for an entry this cycle: `(entry index, token
    /// after the transform)`, so settle re-evaluations that offer the
    /// same entry do not re-run the transform.
    emitted: Option<(usize, T)>,
}

impl<T: Token> VarLatency<T> {
    /// A unit reading `inp` and driving `out` for `threads` threads.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`, or if `latency` is a
    /// [`LatencyModel::Uniform`] range with `min > max`.
    pub fn new(
        name: impl Into<String>,
        inp: ChannelId,
        out: ChannelId,
        threads: usize,
        capacity: usize,
        latency: LatencyModel<T>,
    ) -> Self {
        assert!(
            capacity > 0,
            "a variable-latency unit needs at least one slot"
        );
        if let LatencyModel::Uniform { min, max, .. } = latency {
            assert!(min <= max, "empty latency range {min}..={max}");
        }
        let seed = latency.seed();
        Self {
            name: name.into(),
            inp,
            out,
            threads,
            capacity,
            latency,
            transform: None,
            entries: VecDeque::with_capacity(capacity),
            rng: StdRng::seed_from_u64(seed ^ 0xE1A5),
            rr: 0,
            ready: ThreadMask::new(threads),
            heads: ThreadMask::new(threads),
            head_idx: vec![0; threads],
            seen: ThreadMask::new(threads),
            emitted: None,
        }
    }

    /// Applies `f` to every token when it is emitted (a latent function
    /// unit rather than a pure delay).
    #[must_use]
    pub fn with_transform(mut self, f: impl Fn(&T) -> T + Send + 'static) -> Self {
        self.transform = Some(Box::new(f));
        self
    }

    /// Number of tokens currently in flight.
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    /// The oldest entry of each thread that is complete at `cycle`.
    fn completed_heads(&self, cycle: u64) -> Vec<(usize, usize)> {
        // (thread, entry index); entries is globally FIFO so the first
        // entry found per thread is that thread's oldest.
        let mut seen = ThreadMask::new(self.threads);
        let mut out = Vec::new();
        for (i, e) in self.entries.iter().enumerate() {
            if !seen.get(e.thread) {
                seen.set(e.thread, true);
                if e.done_at <= cycle {
                    out.push((e.thread, i));
                }
            }
        }
        out
    }

    /// The per-thread reference evaluation [`eval`](Component::eval) is
    /// checked against: drives `ready` bit by bit, rebuilds the completed
    /// heads as a list on every call and re-runs the transform on every
    /// offer. Kept so tests can run a circuit with it; not a production
    /// path.
    #[doc(hidden)]
    pub fn eval_reference(&mut self, ctx: &mut EvalCtx<'_, T>) {
        // Upstream ready: any free slot, shared by all threads.
        let free = self.entries.len() < self.capacity;
        for t in 0..self.threads {
            ctx.set_ready(self.inp, t, free);
        }
        // Downstream valid: the chosen completed head.
        match self.choose(ctx) {
            Some((t, idx)) => {
                let token = &self.entries[idx].token;
                let data = match &self.transform {
                    Some(f) => f(token),
                    None => token.clone(),
                };
                ctx.drive_token(self.out, t, data);
            }
            None => ctx.drive_idle(self.out),
        }
    }

    /// Rebuilds the per-cycle words from the entries: the `ready` word,
    /// the completed-head mask and each head's entry index.
    fn rebuild(&mut self, cycle: u64) {
        if self.entries.len() < self.capacity {
            self.ready.fill();
        } else {
            self.ready.clear();
        }
        self.heads.clear();
        self.seen.clear();
        // Entries are globally FIFO, so the first entry found per thread
        // is that thread's oldest.
        for (i, e) in self.entries.iter().enumerate() {
            if !self.seen.get(e.thread) {
                self.seen.set(e.thread, true);
                if e.done_at <= cycle {
                    self.heads.set(e.thread, true);
                    self.head_idx[e.thread] = i;
                }
            }
        }
        self.emitted = None;
    }

    /// [`choose`](Self::choose) over the cached head mask: the same
    /// ready-first pick, anti-swap guard and stalled-offer rotation as
    /// word scans. Returns the thread; its entry is `head_idx[thread]`.
    fn pick(&self, ctx: &EvalCtx<'_, T>) -> Option<usize> {
        let ready = ctx.ready_mask(self.out);
        let Some(ready_pick) = self.heads.next_one_wrapping_and(ready, self.rr) else {
            return self.heads.next_one_wrapping(self.rr);
        };
        // The anti-swap guard (see `choose`) only runs on a feedback
        // output, after the first evaluation of the step.
        if !ctx.first_eval() && ctx.in_feedback(self.out) {
            if let Some(c) = ctx.valid_mask(self.out).first_one() {
                if self.heads.get(c) && !ready.get(c) {
                    // The lowest rank among ready heads is the first one
                    // at or after the cycle's rotation point.
                    let base = ctx.cycle() as usize % self.threads;
                    let rank = |t: usize| (t + self.threads - base) % self.threads;
                    let best = self
                        .heads
                        .next_one_wrapping_and(ready, base)
                        .expect("ready pick exists");
                    return Some(if rank(best) < rank(c) { best } else { c });
                }
            }
        }
        Some(ready_pick)
    }

    /// Chooses the `(thread, entry index)` to offer. Mirrors the MEB
    /// selection discipline (ready-first, anti-swap guard between settle
    /// passes, rotating stalled offer) so that two variable-latency units
    /// feeding a join cannot chase each other's offers — the same
    /// convergence argument as `elastic-core`'s `select_output_thread`
    /// (see `docs/kernel.md` §3).
    fn choose(&self, ctx: &EvalCtx<'_, T>) -> Option<(usize, usize)> {
        let heads = self.completed_heads(ctx.cycle());
        if heads.is_empty() {
            return None;
        }
        let pick = |pred: &dyn Fn(usize) -> bool| {
            (0..self.threads)
                .map(|off| (self.rr + off) % self.threads)
                .find_map(|t| heads.iter().find(|(ht, _)| *ht == t && pred(t)).copied())
        };
        if let Some(ready_pick) = pick(&|t| ctx.ready(self.out, t)) {
            // The anti-swap guard only matters when downstream ready can
            // change *between* settle passes, i.e. when `out` sits on a
            // feedback cycle. On a DAG the rank schedule evaluates the
            // consumer first, so the first pass already sees final ready
            // and the pure ready-first pick keeps eval order-independent.
            if !ctx.first_eval() && ctx.in_feedback(self.out) {
                let current = ctx.valid_mask(self.out).first_one();
                if let Some(c) = current {
                    let c_head = heads.iter().find(|(ht, _)| *ht == c).copied();
                    if let Some(ch) = c_head {
                        if !ctx.ready(self.out, c) {
                            let rank = |t: usize| {
                                (t + self.threads - (ctx.cycle() as usize % self.threads))
                                    % self.threads
                            };
                            let best = heads
                                .iter()
                                .filter(|&&(t, _)| ctx.ready(self.out, t))
                                .min_by_key(|&&(t, _)| rank(t))
                                .copied()
                                .expect("ready pick exists");
                            return Some(if rank(best.0) < rank(c) { best } else { ch });
                        }
                    }
                }
            }
            return Some(ready_pick);
        }
        pick(&|_| true)
    }
}

impl<T: Token> Component<T> for VarLatency<T> {
    fn op_kind(&self) -> FusedOpKind {
        FusedOpKind::VarLatency
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Ports {
        Ports::new([self.inp], [self.out])
    }

    fn comb_paths(&self) -> Vec<CombPath> {
        // Upstream ready depends only on registered occupancy; output
        // valid depends only on registered entries plus downstream ready
        // (the arbiter's ready-first pick), which is damped by the
        // anti-swap guard. There is no input→output combinational path.
        vec![CombPath::ReadyToValid {
            from: self.out,
            to: self.out,
            damped: true,
        }]
    }

    /// Word-level evaluation. Upstream `ready` (a free slot) and the
    /// completed-head mask depend only on the entries, so both are built
    /// once per step; `ready` is committed then with one word-level
    /// [`EvalCtx::set_ready_mask`] (re-commits would be no-ops). The
    /// output pick is a word scan over `heads ∩ ready(out)` from the
    /// round-robin pointer, and the emitted token is transformed once per
    /// step and entry.
    fn eval(&mut self, ctx: &mut EvalCtx<'_, T>) {
        if ctx.first_eval() {
            self.rebuild(ctx.cycle());
            ctx.set_ready_mask(self.inp, &self.ready);
        }
        let Some(t) = self.pick(ctx) else {
            ctx.drive_idle(self.out);
            return;
        };
        let idx = self.head_idx[t];
        if !matches!(&self.emitted, Some((i, _)) if *i == idx) {
            let token = &self.entries[idx].token;
            let tok = match &self.transform {
                Some(f) => f(token),
                None => token.clone(),
            };
            self.emitted = Some((idx, tok));
        }
        let (_, data) = self.emitted.as_ref().expect("emitted token cached above");
        ctx.drive_token_ref(self.out, t, data);
    }

    fn tick(&mut self, ctx: &TickCtx<'_, T>) {
        // Emit first (frees the slot next cycle, not this one — the input
        // ready this cycle already accounted for the pre-emission count).
        if let Some((t, _)) = ctx.fired_any(self.out) {
            if let Some(pos) = self
                .entries
                .iter()
                .position(|e| e.thread == t && e.done_at <= ctx.cycle())
            {
                self.entries.remove(pos);
            }
            self.rr = (t + 1) % self.threads;
        } else if let Some(t) = ctx.valid_mask(self.out).first_one() {
            // Stalled offer: rotate to avoid starving other done threads.
            self.rr = (t + 1) % self.threads;
        }
        if let Some((t, data)) = ctx.fired_any(self.inp) {
            let lat = self.latency.sample(data, &mut self.rng);
            self.entries.push_back(Entry {
                thread: t,
                token: data.clone(),
                done_at: ctx.cycle() + u64::from(lat),
            });
        }
    }

    fn reset(&mut self) -> bool {
        self.entries.clear();
        // Re-seed so a reset-then-rerun draws the same latency stream as a
        // fresh build (byte-identical campaigns across reuse).
        self.rng = StdRng::seed_from_u64(self.latency.seed() ^ 0xE1A5);
        self.rr = 0;
        true
    }

    fn slots(&self) -> Vec<SlotView> {
        (0..self.capacity)
            .map(|i| match self.entries.get(i) {
                Some(e) => SlotView::full(format!("slot[{i}]"), e.thread, e.token.label()),
                None => SlotView::empty(format!("slot[{i}]")),
            })
            .collect()
    }

    crate::impl_as_any!();
}

/// A zero-latency combinational function unit: passes the handshake
/// through unchanged and maps the data word with `f`.
///
/// Placing a [`Transform`] between two elastic buffers models a pipeline
/// stage's combinational logic (e.g. one unrolled MD5 round).
pub struct Transform<T: Token> {
    name: String,
    inp: ChannelId,
    out: ChannelId,
    threads: usize,
    f: Box<dyn Fn(&T) -> T + Send>,
}

impl<T: Token> Transform<T> {
    /// A combinational unit computing `f` between `inp` and `out`.
    pub fn new(
        name: impl Into<String>,
        inp: ChannelId,
        out: ChannelId,
        threads: usize,
        f: impl Fn(&T) -> T + Send + 'static,
    ) -> Self {
        Self {
            name: name.into(),
            inp,
            out,
            threads,
            f: Box::new(f),
        }
    }

    /// The per-thread reference evaluation [`eval`](Component::eval) is
    /// checked against: copies `valid` and `ready` bit by bit. Kept so
    /// tests can run a circuit with it; not a production path.
    #[doc(hidden)]
    pub fn eval_reference(&mut self, ctx: &mut EvalCtx<'_, T>) {
        for t in 0..self.threads {
            let v = ctx.valid(self.inp, t);
            ctx.set_valid(self.out, t, v);
            let r = ctx.ready(self.out, t);
            ctx.set_ready(self.inp, t, r);
        }
        let data = ctx.data(self.inp).map(|d| (self.f)(d));
        ctx.set_data(self.out, data);
    }
}

impl<T: Token> Component<T> for Transform<T> {
    fn op_kind(&self) -> FusedOpKind {
        FusedOpKind::Transform
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Ports {
        Ports::new([self.inp], [self.out])
    }

    fn comb_paths(&self) -> Vec<CombPath> {
        // Pure pass-through: valid and data flow forward, ready flows
        // backward, both zero-latency.
        vec![
            CombPath::ValidToValid {
                from: self.inp,
                to: self.out,
            },
            CombPath::ReadyToReady {
                from: self.out,
                to: self.inp,
            },
        ]
    }

    /// Word-level evaluation: both handshake words are copied through in
    /// one commit each; the data word is computed.
    fn eval(&mut self, ctx: &mut EvalCtx<'_, T>) {
        ctx.forward_valid(self.inp, self.out, None);
        ctx.forward_ready(self.out, self.inp, None);
        let data = ctx.data(self.inp).map(|d| (self.f)(d));
        ctx.set_data(self.out, data);
    }

    fn tick(&mut self, _ctx: &TickCtx<'_, T>) {}

    fn reset(&mut self) -> bool {
        true // stateless
    }

    crate::impl_as_any!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_model_samples_at_least_one() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = LatencyModel::<u64>::Fixed(0);
        assert_eq!(m.sample(&0, &mut rng), 1);
        let m = LatencyModel::<u64>::Uniform {
            min: 2,
            max: 5,
            seed: 7,
        };
        for _ in 0..32 {
            let l = m.sample(&0, &mut rng);
            assert!((2..=5).contains(&l));
        }
        let m = LatencyModel::PerToken(Box::new(|t: &u64| *t as u32));
        assert_eq!(m.sample(&9, &mut rng), 9);
    }

    #[test]
    fn completed_heads_respects_per_thread_order() {
        let mut v = VarLatency::<u64>::new(
            "v",
            ChannelId(0),
            ChannelId(1),
            2,
            4,
            LatencyModel::Fixed(1),
        );
        v.entries.push_back(Entry {
            thread: 0,
            token: 1,
            done_at: 10,
        });
        v.entries.push_back(Entry {
            thread: 0,
            token: 2,
            done_at: 0,
        });
        v.entries.push_back(Entry {
            thread: 1,
            token: 3,
            done_at: 0,
        });
        // Thread 0's head is not done; its second (done) entry must wait.
        let heads = v.completed_heads(5);
        assert_eq!(heads, vec![(1, 2)]);
    }

    #[test]
    fn slots_report_occupancy() {
        let mut v = VarLatency::<u64>::new(
            "v",
            ChannelId(0),
            ChannelId(1),
            1,
            2,
            LatencyModel::Fixed(1),
        );
        v.entries.push_back(Entry {
            thread: 0,
            token: 42,
            done_at: 3,
        });
        let slots = v.slots();
        assert_eq!(slots.len(), 2);
        assert_eq!(slots[0].occupant, Some((0, "42".to_string())));
        assert_eq!(slots[1].occupant, None);
    }
}
