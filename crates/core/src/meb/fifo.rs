//! A MEB with a private FIFO of configurable depth per thread.
//!
//! At depth 2 it is the paper's *full* MEB (Fig. 4), built by
//! [`FifoMeb::full`]: one 2-slot EB per thread behind a shared arbiter and
//! output multiplexer, `2·S` slots in all. Every thread always has its
//! private second slot, so an active thread keeps 100 % throughput even
//! when every other thread is blocked. The price is that the storage is
//! "effectively replicated per thread" (Sec. III), which the reduced MEB
//! eliminates.
//!
//! Other depths are an *ablation* axis, not primitives from the paper:
//! depth 1 shows what happens without any auxiliary storage at all (a lone
//! active thread can never exceed 50 % throughput, because a slot freed
//! this cycle is only visible upstream on the next), and larger depths
//! quantify how much extra buffering buys beyond the paper's design
//! points.

use std::collections::VecDeque;

use elastic_sim::{
    impl_as_any, ChannelId, CombPath, Component, EvalCtx, FusedOpKind, Ports, ProtocolError,
    SlotView, ThreadMask, TickCtx, Token,
};

use crate::arbiter::Arbiter;
use crate::select::{ReadyCache, SelectState};

/// A MEB with `depth` private slots per thread and no shared storage; at
/// depth 2, the full MEB.
pub struct FifoMeb<T: Token> {
    name: String,
    /// The node class reported: [`FusedOpKind::MebFull`] when built by
    /// [`full`](Self::full), [`FusedOpKind::MebFifo`] otherwise.
    op_kind: FusedOpKind,
    inp: ChannelId,
    out: ChannelId,
    threads: usize,
    depth: usize,
    queues: Vec<VecDeque<T>>,
    arbiter: Box<dyn Arbiter>,
    select: SelectState,
    /// Packed "thread has data" mask (queue non-empty), maintained at the
    /// clock edge.
    has: ThreadMask,
    /// Packed "queue holds `depth` items" mask, maintained at the clock
    /// edge.
    full: ThreadMask,
    /// Upstream ready word, `¬full`, and rotation hint, built and
    /// committed once per cycle.
    cache: ReadyCache,
}

impl<T: Token> FifoMeb<T> {
    /// An empty FIFO MEB with `depth` slots per thread.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` or `depth == 0`.
    pub fn new(
        name: impl Into<String>,
        inp: ChannelId,
        out: ChannelId,
        threads: usize,
        depth: usize,
        arbiter: Box<dyn Arbiter>,
    ) -> Self {
        assert!(threads > 0, "a MEB needs at least one thread");
        assert!(depth > 0, "per-thread FIFO depth must be at least 1");
        Self {
            name: name.into(),
            op_kind: FusedOpKind::MebFifo,
            inp,
            out,
            threads,
            depth,
            queues: (0..threads)
                .map(|_| VecDeque::with_capacity(depth))
                .collect(),
            arbiter,
            select: SelectState::new(),
            has: ThreadMask::new(threads),
            full: ThreadMask::new(threads),
            cache: ReadyCache::new(threads),
        }
    }

    /// The paper's full MEB (Fig. 4): a private FIFO of depth 2 per
    /// thread, reported as [`FusedOpKind::MebFull`]. Its slots are
    /// `q[t][0]`, the head (the EB's main register), and `q[t][1]` (its
    /// auxiliary register).
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn full(
        name: impl Into<String>,
        inp: ChannelId,
        out: ChannelId,
        threads: usize,
        arbiter: Box<dyn Arbiter>,
    ) -> Self {
        Self {
            op_kind: FusedOpKind::MebFull,
            ..Self::new(name, inp, out, threads, 2, arbiter)
        }
    }

    /// Re-derives thread `t`'s bits of the `has` and `full` masks from its
    /// queue.
    fn sync_masks(&mut self, t: usize) {
        let len = self.queues[t].len();
        self.has.set(t, len > 0);
        self.full.set(t, len >= self.depth);
    }

    /// The per-thread reference evaluation [`eval`](Component::eval) is
    /// checked against: re-derives every queue's state on every call,
    /// drives `ready` bit by bit and always takes the generic arbiter
    /// path. Kept so tests can run a circuit with it; not a production
    /// path.
    #[doc(hidden)]
    pub fn eval_reference(&mut self, ctx: &mut EvalCtx<'_, T>) {
        for t in 0..self.threads {
            ctx.set_ready(self.inp, t, self.queues[t].len() < self.depth);
            self.has.set(t, !self.queues[t].is_empty());
        }
        match self
            .select
            .select(ctx, self.out, self.arbiter.as_ref(), &self.has)
        {
            Some(t) => {
                let head = self.queues[t].front().cloned().expect("non-empty queue");
                ctx.drive_token(self.out, t, head);
            }
            None => ctx.drive_idle(self.out),
        }
    }

    /// Pre-loads tokens before the first cycle (the dataflow "initial
    /// token on the back edge"), at most `depth` per thread, in order.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::ExcessInitialTokens`] if a thread receives
    /// more than `depth` initial tokens, and
    /// [`ProtocolError::InitialTokenThread`] for a thread index out of
    /// range.
    pub fn with_initial(
        mut self,
        tokens: impl IntoIterator<Item = (usize, T)>,
    ) -> Result<Self, ProtocolError> {
        for (t, tok) in tokens {
            if t >= self.threads {
                return Err(ProtocolError::InitialTokenThread {
                    thread: t,
                    threads: self.threads,
                });
            }
            if self.queues[t].len() >= self.depth {
                return Err(ProtocolError::ExcessInitialTokens {
                    thread: t,
                    capacity: self.depth,
                });
            }
            self.queues[t].push_back(tok);
            self.sync_masks(t);
        }
        Ok(self)
    }

    /// Items stored for `thread`.
    pub fn occupancy(&self, thread: usize) -> usize {
        self.queues[thread].len()
    }

    /// Items stored across all threads.
    pub fn occupancy_total(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Total storage capacity: `depth · S`.
    pub fn capacity(&self) -> usize {
        self.depth * self.threads
    }

    /// Per-thread FIFO depth.
    pub fn depth(&self) -> usize {
        self.depth
    }
}

impl<T: Token> Component<T> for FifoMeb<T> {
    fn op_kind(&self) -> FusedOpKind {
        self.op_kind
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Ports {
        Ports::new([self.inp], [self.out])
    }

    fn comb_paths(&self) -> Vec<CombPath> {
        // Ready is a function of registered queue occupancy; the arbiter's
        // ready-aware selection is the only combinational input, damped by
        // the anti-swap guard.
        vec![CombPath::ReadyToValid {
            from: self.out,
            to: self.out,
            damped: true,
        }]
    }

    /// Word-level evaluation: upstream `ready` (a free queue slot) is the
    /// complement of the full mask kept at the clock edge, built and
    /// committed once per cycle; the output pick and the head drive are
    /// `ReducedMeb`'s.
    fn eval(&mut self, ctx: &mut EvalCtx<'_, T>) {
        let full = &self.full;
        self.cache
            .commit(ctx, self.inp, self.arbiter.as_ref(), |ready| {
                ready.assign_not(full)
            });
        let queues = &self.queues;
        self.select.offer(
            ctx,
            self.out,
            self.arbiter.as_ref(),
            &self.has,
            self.cache.hint(),
            |t| queues[t].front().expect("non-empty queue"),
        );
    }

    fn tick(&mut self, ctx: &TickCtx<'_, T>) {
        if let Some(t) = self.select.on_tick(ctx, self.out) {
            self.queues[t].pop_front();
            self.sync_masks(t);
            self.arbiter.commit(t);
        }
        if let Some((t, data)) = ctx.fired_any(self.inp) {
            debug_assert!(self.queues[t].len() < self.depth, "enqueue into full FIFO");
            self.queues[t].push_back(data.clone());
            self.sync_masks(t);
        }
    }

    fn slots(&self) -> Vec<SlotView> {
        let mut out = Vec::with_capacity(self.threads * self.depth);
        for t in 0..self.threads {
            for d in 0..self.depth {
                out.push(match self.queues[t].get(d) {
                    Some(item) => SlotView::full(format!("q[{t}][{d}]"), t, item.label()),
                    None => SlotView::empty(format!("q[{t}][{d}]")),
                });
            }
        }
        out
    }

    fn reset(&mut self) -> bool {
        for q in &mut self.queues {
            q.clear();
        }
        self.arbiter.reset();
        self.select.reset();
        self.has.clear();
        self.full.clear();
        true
    }

    impl_as_any!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::ArbiterKind;
    use elastic_sim::{CircuitBuilder, ReadyPolicy, Sink, Source, Tagged};

    /// Offers `cycles` tokens to a one-thread `meb` feeding an always-ready
    /// sink for `cycles` cycles; returns the output channel's throughput
    /// and the delivered tokens.
    fn run_single_thread(
        meb: impl FnOnce(ChannelId, ChannelId) -> FifoMeb<u64>,
        cycles: u64,
    ) -> (f64, Vec<u64>) {
        let mut b = CircuitBuilder::<u64>::new();
        let a = b.channel("a", 1);
        let c = b.channel("c", 1);
        let mut src = Source::new("src", a, 1);
        src.extend(0, 0..cycles);
        b.add(src);
        b.add(meb(a, c));
        b.add(Sink::with_capture("snk", c, 1, ReadyPolicy::Always));
        let mut circuit = b.build().expect("valid");
        circuit.run(cycles).expect("clean");
        let snk: &Sink<u64> = circuit.get("snk").expect("sink");
        let outs = snk.captured(0).iter().map(|(_, t)| *t).collect();
        (circuit.stats().channel_throughput(c), outs)
    }

    #[test]
    fn single_thread_full_meb_behaves_like_an_eb() {
        let (thr, outs) = run_single_thread(
            |a, c| FifoMeb::full("meb", a, c, 1, ArbiterKind::RoundRobin.build()),
            100,
        );
        assert!(thr > 0.9, "full MEB throughput {thr}");
        assert_eq!(outs, (0..outs.len() as u64).collect::<Vec<_>>());
    }

    #[test]
    fn depth_one_halves_single_thread_throughput() {
        // One slot: after each transfer the freed slot is visible upstream
        // only the following cycle — the classic "half-buffer" ceiling.
        let (thr, _) = run_single_thread(
            |a, c| FifoMeb::new("meb", a, c, 1, 1, ArbiterKind::RoundRobin.build()),
            100,
        );
        assert!((thr - 0.5).abs() < 0.05, "depth-1 throughput {thr}");
    }

    #[test]
    fn blocked_thread_fills_exactly_depth_items() {
        let mut b = CircuitBuilder::<u64>::new();
        let a = b.channel("a", 1);
        let c = b.channel("c", 1);
        let mut src = Source::new("src", a, 1);
        src.extend(0, 0..20u64);
        b.add(src);
        b.add(FifoMeb::new(
            "meb",
            a,
            c,
            1,
            5,
            ArbiterKind::RoundRobin.build(),
        ));
        b.add(Sink::new("snk", c, 1, ReadyPolicy::Never));
        let mut circuit = b.build().expect("valid");
        circuit.run(20).expect("clean");
        assert_eq!(circuit.stats().total_transfers(a), 5);
        let meb: &FifoMeb<u64> = circuit.get("meb").expect("meb");
        assert_eq!(meb.occupancy(0), 5);
        assert_eq!(meb.capacity(), 5);
        assert_eq!(meb.depth(), 5);
    }

    #[test]
    fn full_meb_blocked_thread_fills_only_its_private_slots() {
        // Thread 0 blocked at the sink: it accumulates exactly 2 items in
        // the MEB; thread 1 keeps flowing at full speed past it.
        let mut b = CircuitBuilder::<Tagged>::new();
        let a = b.channel("a", 2);
        let c = b.channel("c", 2);
        let mut src = Source::new("src", a, 2);
        for t in 0..2 {
            src.extend(t, (0..10).map(|i| Tagged::new(t, i, i)));
        }
        b.add(src);
        b.add(FifoMeb::full(
            "meb",
            a,
            c,
            2,
            ArbiterKind::RoundRobin.build(),
        ));
        let mut sink = Sink::new("snk", c, 2, ReadyPolicy::Always);
        sink.set_policy(0, ReadyPolicy::Never);
        b.add(sink);
        let mut circuit = b.build().expect("valid");
        circuit.run(30).expect("clean");
        let meb: &FifoMeb<Tagged> = circuit.get("meb").expect("meb");
        assert_eq!(meb.occupancy(0), 2, "blocked thread holds its two slots");
        assert_eq!(meb.capacity(), 4, "two slots per thread");
        let snk: &Sink<Tagged> = circuit.get("snk").expect("sink");
        assert_eq!(snk.consumed(0), 0);
        assert_eq!(snk.consumed(1), 10, "unblocked thread is unaffected");
    }
}
