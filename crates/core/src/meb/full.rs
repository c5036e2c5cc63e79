//! The *full* multithreaded elastic buffer: one 2-slot EB per thread
//! (paper, Fig. 4).
//!
//! For `S` threads the full MEB provides `2·S` storage slots — every
//! thread always has its private auxiliary slot, so an active thread keeps
//! 100 % throughput even when every other thread is blocked. The price is
//! that the storage is "effectively replicated per thread" (Sec. III),
//! which the reduced MEB eliminates.

use elastic_sim::{
    impl_as_any, ChannelId, CombPath, Component, EvalCtx, FusedOpKind, NextEvent, Ports,
    ProtocolError, SlotView, ThreadMask, TickCtx, Token,
};

use crate::arbiter::Arbiter;
use crate::select::SelectState;

/// A full MEB: per-thread 2-slot elastic buffers behind a shared arbiter
/// and output multiplexer.
///
/// # Examples
///
/// ```
/// use elastic_core::{ArbiterKind, FullMeb};
/// use elastic_sim::{CircuitBuilder, ReadyPolicy, Sink, Source, Tagged};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = CircuitBuilder::<Tagged>::new();
/// let a = b.channel("in", 2);
/// let c = b.channel("out", 2);
/// let mut src = Source::new("src", a, 2);
/// src.push(0, Tagged::new(0, 0, 1));
/// src.push(1, Tagged::new(1, 0, 2));
/// b.add(src);
/// b.add(FullMeb::new("meb", a, c, 2, ArbiterKind::RoundRobin.build()));
/// b.add(Sink::new("snk", c, 2, ReadyPolicy::Always));
/// let mut circuit = b.build()?;
/// circuit.run(6)?;
/// assert_eq!(circuit.stats().total_transfers(c), 2);
/// # Ok(())
/// # }
/// ```
pub struct FullMeb<T: Token> {
    name: String,
    inp: ChannelId,
    out: ChannelId,
    threads: usize,
    /// Per-thread head register (`eb[i]` main slot).
    main: Vec<Option<T>>,
    /// Per-thread auxiliary register (`eb[i]` second slot).
    aux: Vec<Option<T>>,
    arbiter: Box<dyn Arbiter>,
    select: SelectState,
    /// Persistent "thread has data" mask, rebuilt in place each eval.
    has: ThreadMask,
}

impl<T: Token> FullMeb<T> {
    /// An empty full MEB for `threads` threads between `inp` and `out`.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(
        name: impl Into<String>,
        inp: ChannelId,
        out: ChannelId,
        threads: usize,
        arbiter: Box<dyn Arbiter>,
    ) -> Self {
        assert!(threads > 0, "a MEB needs at least one thread");
        Self {
            name: name.into(),
            inp,
            out,
            threads,
            main: vec![None; threads],
            aux: vec![None; threads],
            arbiter,
            select: SelectState::new(),
            has: ThreadMask::new(threads),
        }
    }

    /// Pre-loads tokens before the first cycle (the dataflow "initial
    /// token on the back edge"), at most two per thread.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::ExcessInitialTokens`] if a thread receives
    /// more than two initial tokens, and
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
            if self.main[t].is_none() {
                self.main[t] = Some(tok);
            } else if self.aux[t].is_none() {
                self.aux[t] = Some(tok);
            } else {
                return Err(ProtocolError::ExcessInitialTokens {
                    thread: t,
                    capacity: 2,
                });
            }
        }
        Ok(self)
    }

    /// Items stored for `thread` (0–2).
    pub fn occupancy(&self, thread: usize) -> usize {
        usize::from(self.main[thread].is_some()) + usize::from(self.aux[thread].is_some())
    }

    /// Items stored across all threads.
    pub fn occupancy_total(&self) -> usize {
        (0..self.threads).map(|t| self.occupancy(t)).sum()
    }

    /// Total storage capacity: `2 · S`.
    pub fn capacity(&self) -> usize {
        2 * self.threads
    }
}

impl<T: Token> Component<T> for FullMeb<T> {
    fn op_kind(&self) -> FusedOpKind {
        FusedOpKind::MebFull
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Ports {
        Ports::new([self.inp], [self.out])
    }

    fn comb_paths(&self) -> Vec<CombPath> {
        // Upstream ready and the stored data are registered (the MEB cuts
        // every input→output path, like the EB); the only combinational
        // dependence is the arbiter reading ready(out) to select which
        // thread's valid(out) to assert — damped by the anti-swap guard.
        vec![CombPath::ReadyToValid {
            from: self.out,
            to: self.out,
            damped: true,
        }]
    }

    fn eval(&mut self, ctx: &mut EvalCtx<'_, T>) {
        // Upstream ready: private per-thread capacity check (registered).
        for t in 0..self.threads {
            ctx.set_ready(self.inp, t, self.occupancy(t) < 2);
            self.has.set(t, self.main[t].is_some());
        }
        // Downstream valid: arbiter over threads with data.
        match self
            .select
            .select(ctx, self.out, self.arbiter.as_ref(), &self.has)
        {
            Some(t) => {
                let head = self.main[t]
                    .clone()
                    .expect("selected thread has a head item");
                ctx.drive_token(self.out, t, head);
            }
            None => ctx.drive_idle(self.out),
        }
    }

    fn tick(&mut self, ctx: &TickCtx<'_, T>) {
        if let Some((t, _)) = ctx.fired_any(self.out) {
            // Dequeue: aux shifts into main.
            self.main[t] = self.aux[t].take();
            self.arbiter.commit(t);
        }
        if let Some((t, data)) = ctx.fired_any(self.inp) {
            if self.main[t].is_none() {
                self.main[t] = Some(data.clone());
            } else {
                debug_assert!(self.aux[t].is_none(), "enqueue into full per-thread EB");
                self.aux[t] = Some(data.clone());
            }
        }
        self.select.on_tick(ctx, self.out);
    }

    fn slots(&self) -> Vec<SlotView> {
        let mut out = Vec::with_capacity(2 * self.threads);
        for t in 0..self.threads {
            let view = |name: String, item: &Option<T>| match item {
                Some(d) => SlotView::full(name, t, d.label()),
                None => SlotView::empty(name),
            };
            out.push(view(format!("main[{t}]"), &self.main[t]));
            out.push(view(format!("aux[{t}]"), &self.aux[t]));
        }
        out
    }

    fn next_event(&self, _now: u64) -> NextEvent {
        NextEvent::Idle
    }

    fn reset(&mut self) -> bool {
        self.main.iter_mut().for_each(|s| *s = None);
        self.aux.iter_mut().for_each(|s| *s = None);
        self.arbiter.reset();
        self.select.reset();
        self.has.clear();
        true
    }

    impl_as_any!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::{ArbiterKind, RoundRobin};
    use elastic_sim::{CircuitBuilder, ReadyPolicy, Sink, Source, Tagged};

    fn tagged_stream(thread: usize, n: u64) -> Vec<Tagged> {
        (0..n).map(|i| Tagged::new(thread, i, i)).collect()
    }

    #[test]
    fn single_thread_full_meb_behaves_like_an_eb() {
        let mut b = CircuitBuilder::<u64>::new();
        let a = b.channel("a", 1);
        let c = b.channel("c", 1);
        let mut src = Source::new("src", a, 1);
        src.extend(0, 0..10u64);
        b.add(src);
        b.add(FullMeb::new("meb", a, c, 1, Box::new(RoundRobin::new())));
        b.add(Sink::with_capture("snk", c, 1, ReadyPolicy::Always));
        let mut circuit = b.build().expect("valid");
        circuit.run(20).expect("clean");
        let snk: &Sink<u64> = circuit.get("snk").expect("sink");
        let outs: Vec<u64> = snk.captured(0).iter().map(|(_, t)| *t).collect();
        assert_eq!(outs, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn blocked_thread_fills_only_its_private_slots() {
        // Thread 0 blocked at the sink: it accumulates exactly 2 items in
        // the MEB; thread 1 keeps flowing at full speed past it.
        let mut b = CircuitBuilder::<Tagged>::new();
        let a = b.channel("a", 2);
        let c = b.channel("c", 2);
        let mut src = Source::new("src", a, 2);
        src.extend(0, tagged_stream(0, 10));
        src.extend(1, tagged_stream(1, 10));
        b.add(src);
        b.add(FullMeb::new(
            "meb",
            a,
            c,
            2,
            ArbiterKind::RoundRobin.build(),
        ));
        let mut sink = Sink::with_capture("snk", c, 2, ReadyPolicy::Always);
        sink.set_policy(0, ReadyPolicy::Never);
        b.add(sink);
        let mut circuit = b.build().expect("valid");
        circuit.run(30).expect("clean");
        let meb: &FullMeb<Tagged> = circuit.get("meb").expect("meb");
        assert_eq!(meb.occupancy(0), 2, "blocked thread holds its two slots");
        let snk: &Sink<Tagged> = circuit.get("snk").expect("sink");
        assert_eq!(snk.consumed(0), 0);
        assert_eq!(snk.consumed(1), 10, "unblocked thread is unaffected");
    }

    #[test]
    fn two_active_threads_split_throughput_evenly() {
        let mut b = CircuitBuilder::<Tagged>::new();
        let a = b.channel("a", 2);
        let c = b.channel("c", 2);
        let mut src = Source::new("src", a, 2);
        src.extend(0, tagged_stream(0, 50));
        src.extend(1, tagged_stream(1, 50));
        b.add(src);
        b.add(FullMeb::new(
            "meb",
            a,
            c,
            2,
            ArbiterKind::RoundRobin.build(),
        ));
        b.add(Sink::new("snk", c, 2, ReadyPolicy::Always));
        let mut circuit = b.build().expect("valid");
        circuit.run(40).expect("clean");
        // Sec. III-A: M = 2 active threads ⇒ each gets 1/M = 0.5.
        let thr0 = circuit.stats().throughput(c, 0);
        let thr1 = circuit.stats().throughput(c, 1);
        assert!((thr0 - 0.5).abs() < 0.08, "thr0 = {thr0}");
        assert!((thr1 - 0.5).abs() < 0.08, "thr1 = {thr1}");
    }

    #[test]
    fn per_thread_order_is_preserved_under_random_stalls() {
        let mut b = CircuitBuilder::<Tagged>::new();
        let a = b.channel("a", 3);
        let c = b.channel("c", 3);
        let mut src = Source::new("src", a, 3);
        for t in 0..3 {
            src.extend(t, tagged_stream(t, 20));
        }
        b.add(src);
        b.add(FullMeb::new(
            "meb",
            a,
            c,
            3,
            ArbiterKind::RoundRobin.build(),
        ));
        b.add(Sink::with_capture(
            "snk",
            c,
            3,
            ReadyPolicy::Random { p: 0.5, seed: 3 },
        ));
        let mut circuit = b.build().expect("valid");
        circuit.run(400).expect("clean");
        let snk: &Sink<Tagged> = circuit.get("snk").expect("sink");
        for t in 0..3 {
            let seqs: Vec<u64> = snk.captured(t).iter().map(|(_, tok)| tok.seq).collect();
            assert_eq!(seqs, (0..20).collect::<Vec<_>>(), "thread {t} out of order");
        }
    }

    #[test]
    fn capacity_reports_two_per_thread() {
        let mut b = CircuitBuilder::<u64>::new();
        let a = b.channel("a", 8);
        let c = b.channel("c", 8);
        let meb = FullMeb::<u64>::new("m", a, c, 8, ArbiterKind::Fixed.build());
        assert_eq!(meb.capacity(), 16);
        assert_eq!(meb.occupancy_total(), 0);
    }
}
